//! Integration tests of the cross-module planner's oracle and hazard hooks on
//! a corpus with an unlinkable pair: every oracle run links exactly its
//! before and after programs (two links per run, in every fixpoint round),
//! the ODR hazard rules skip the conflicting pair, and repeated runs commit
//! the same schedule.

use ssa_ir::{parse_module, Module};
use xmerge::{xmerge_corpus, FixpointConfig, XMergeConfig};

/// A ~10-instruction worker whose clones merge profitably (the same shape
/// the xmerge pipeline tests use).
fn worker(name: &str, k: i32) -> String {
    format!(
        "define i32 @{name}(i32 %x) {{\nentry:\n  %a = add i32 %x, {k}\n  %b = mul i32 %a, 3\n  %c = call i32 @h(i32 %b)\n  %d = xor i32 %c, %x\n  %e = call i32 @h(i32 %d)\n  %g2 = sub i32 %e, %a\n  %h2 = mul i32 %g2, %b\n  %i = call i32 @h(i32 %h2)\n  %j = add i32 %i, %d\n  ret i32 %j\n}}"
    )
}

fn module(name: &str, text: &str) -> Module {
    let mut m = parse_module(text).unwrap();
    m.name = name.to_string();
    m
}

/// Corpus layout:
/// - `ma`/`mb` hold a profitable clone pair (`fa`/`fb`) that commits in
///   round 1, forcing a second fixpoint round;
/// - `mc`/`md` hold a profitable clone pair (`fc`/`fd`) *and* two differing
///   external definitions of `@conflict`, so the pair can never link: the
///   oracle skips the commit without mutating either module. Round 2
///   re-attempts the same pair and links both programs again.
fn carry_corpus() -> Vec<Module> {
    vec![
        module("ma", &worker("fa", 1)),
        module("mb", &worker("fb", 2)),
        module(
            "mc",
            &format!(
                "{}\n{}",
                worker("fc", 3),
                "define i32 @conflict(i32 %x) {\nentry:\n  %a = add i32 %x, 100\n  %b = mul i32 %a, 5\n  %c = sub i32 %b, %x\n  ret i32 %c\n}"
            ),
        ),
        module(
            "md",
            &format!(
                "{}\n{}",
                worker("fd", 4),
                "define i32 @conflict(i32 %x) {\nentry:\n  %a = add i32 %x, 200\n  %b = mul i32 %a, 7\n  %c = xor i32 %b, %x\n  ret i32 %c\n}"
            ),
        ),
    ]
}

#[test]
fn every_fixpoint_round_links_fresh_before_and_after_programs() {
    let mut corpus = carry_corpus();
    let config = XMergeConfig::new()
        .with_check_semantics(true)
        .with_fixpoint(FixpointConfig {
            max_rounds: 3,
            // No interleaved intra pass: mc/md stay untouched between
            // rounds, so round 2 re-runs the oracle on the same pair.
            intra: None,
        });
    let report = xmerge_corpus(&mut corpus, &config);

    assert!(
        report.rounds >= 2,
        "round 1 must commit and force a round 2"
    );
    assert!(report.num_commits() >= 1, "the fa/fb pair must commit");
    assert_eq!(report.semantic_rejections, 0);
    // Two oracle runs per round, each linking a before and an after program.
    assert_eq!(report.planner.oracle_links, 8, "{report}");
    // The unlinkable pair is skipped conservatively, never committed.
    let between_mc_md = |a: &str, b: &str| a.starts_with("mc") && b.starts_with("md");
    assert!(report
        .committed
        .iter()
        .all(|r| !between_mc_md(&r.host_module, &r.donor_module)
            && !between_mc_md(&r.donor_module, &r.host_module)));
}

#[test]
fn single_round_skips_the_odr_hazard_with_two_links_per_oracle_run() {
    let mut corpus = carry_corpus();
    let config = XMergeConfig::new().with_check_semantics(true);
    let report = xmerge_corpus(&mut corpus, &config);
    assert!(report.num_commits() >= 1);
    // Two oracle runs, each linking a before and an after program.
    assert_eq!(report.planner.oracle_links, 4, "{report}");
    // The differing external @conflict definitions are a genuine ODR hazard
    // (or an unlinkable-pair skip).
    assert!(report.hazard_skips >= 1, "{report}");
}

#[test]
fn planner_caches_do_not_change_the_committed_schedule() {
    let run = |check: bool| {
        let mut corpus = carry_corpus();
        let mut config = XMergeConfig::new().with_check_semantics(check);
        config.fixpoint = Some(FixpointConfig {
            max_rounds: 3,
            intra: None,
        });
        (xmerge_corpus(&mut corpus, &config), corpus)
    };
    // Deterministic across repeated runs in both modes: process-wide state
    // warmed by the first run must never change what commits. (Checked and
    // unchecked schedules legitimately differ on this corpus — the oracle
    // conservatively skips the unlinkable fc/fd pair, the unchecked run has
    // no reason to — so each mode is compared against itself.)
    let (first, first_corpus) = run(true);
    let (second, second_corpus) = run(true);
    assert_eq!(first.committed, second.committed);
    for (a, b) in first_corpus.iter().zip(&second_corpus) {
        assert_eq!(ssa_ir::print_module(a), ssa_ir::print_module(b));
    }
    let (unchecked_a, corpus_a) = run(false);
    let (unchecked_b, corpus_b) = run(false);
    assert_eq!(unchecked_a.committed, unchecked_b.committed);
    for (a, b) in corpus_a.iter().zip(&corpus_b) {
        assert_eq!(ssa_ir::print_module(a), ssa_ir::print_module(b));
    }
    // The oracle-guarded run never commits the unattestable pair.
    assert!(first
        .committed
        .iter()
        .all(|r| !(r.host_module == "mc" && r.donor_module == "md")));
}
