//! End-to-end tests of the cross-module merging subsystem over generated
//! multi-module corpora — including the acceptance scenario: on an 8-module
//! corpus the pipeline commits cross-module merges, every output module
//! passes the verifier, and the semantic oracle reports zero mismatches.

use salssa::merge_pair;
use ssa_ir::verifier::verify_module;
use ssa_ir::{link_modules, print_module};
use std::time::Duration;
use workloads::CorpusSpec;
use xmerge::{corpus_report_json, xmerge_corpus, FixpointConfig, HostPolicy, XMergeConfig};

fn eight_module_corpus() -> Vec<ssa_ir::Module> {
    CorpusSpec::default().generate()
}

#[test]
fn acceptance_eight_module_corpus_merges_cleanly_under_the_oracle() {
    let mut corpus = eight_module_corpus();
    assert_eq!(corpus.len(), 8);
    let config = XMergeConfig::new().with_check_semantics(true);
    let report = xmerge_corpus(&mut corpus, &config);

    assert!(
        report.num_merges() >= 1,
        "no cross-module merge committed: {report}"
    );
    assert_eq!(
        report.semantic_rejections, 0,
        "oracle rejected sound merges: {report}"
    );
    for module in &corpus {
        assert!(
            verify_module(module).is_empty(),
            "module {} failed verification after xmerge",
            module.name
        );
    }
    // Every commit crossed a module boundary and paid for itself.
    for record in &report.committed {
        assert_ne!(record.host_module, record.donor_module);
        assert!(record.profit_bytes > 0);
    }
    assert!(report.size_after < report.size_before);
    // The linked whole program is still well-formed.
    let linked = link_modules(&corpus, "prog").expect("corpus must stay linkable");
    assert!(verify_module(&linked).is_empty());
}

/// The fixpoint acceptance scenario: on the 8-module corpus, a merged host
/// re-enters the candidate pool and merges again in a later round, with the
/// differential oracle attesting every commit (0 mismatches).
#[test]
fn fixpoint_commits_second_round_merges_under_the_oracle() {
    let mut corpus = eight_module_corpus();
    let config = XMergeConfig::new()
        .with_check_semantics(true)
        .with_fixpoint(FixpointConfig::default());
    let report = xmerge_corpus(&mut corpus, &config);

    assert!(report.rounds >= 2, "expected multiple rounds: {report}");
    assert!(
        report.round_commits.len() >= 2 && report.round_commits[1] > 0,
        "no second-round commit: {report}"
    );
    assert_eq!(report.semantic_rejections, 0, "oracle mismatches: {report}");
    // Later rounds really do merge the products of earlier rounds.
    assert!(
        report
            .committed
            .iter()
            .any(|r| r.f1.starts_with("merged.xm.") || r.f2.starts_with("merged.xm.")),
        "no merged host re-entered the pool: {report}"
    );
    for module in &corpus {
        assert!(
            verify_module(module).is_empty(),
            "module {} failed verification after fixpoint xmerge",
            module.name
        );
    }
    let linked = link_modules(&corpus, "prog").expect("corpus must stay linkable");
    assert!(verify_module(&linked).is_empty());
    // The structural-key cache carried real traffic and planner stats add up.
    assert!(report.cache_hits > 0, "{report}");
    assert!(report.planner.candidates > 0);
    assert!(report.planner.rounds >= report.rounds);
}

/// The first fixpoint round is exactly the single-shot pipeline: its commits
/// are a prefix of the fixpoint run's commit list.
#[test]
fn fixpoint_round_one_matches_the_single_shot_pipeline() {
    let mut single = eight_module_corpus();
    let baseline = xmerge_corpus(&mut single, &XMergeConfig::new());
    let mut fix = eight_module_corpus();
    let report = xmerge_corpus(
        &mut fix,
        &XMergeConfig::new().with_fixpoint(FixpointConfig::default()),
    );
    let first_round = report.round_commits[0];
    assert_eq!(baseline.committed.len(), first_round);
    assert_eq!(baseline.committed[..], report.committed[..first_round]);
}

/// The host-selection acceptance scenario: on a generated call-heavy corpus,
/// the call-graph policy forces strictly fewer cross-module call edges than
/// the size policy, with zero semantic-oracle mismatches.
#[test]
fn callgraph_host_policy_forces_strictly_fewer_cross_edges() {
    let mut size_corpus = CorpusSpec::call_heavy().generate();
    let size_report = xmerge_corpus(&mut size_corpus, &XMergeConfig::new());
    assert_eq!(size_report.host_policy, HostPolicy::Size);
    assert_eq!(
        size_report.saved_cross_edges, 0,
        "the size policy never flips, so it never saves"
    );

    let mut cg_corpus = CorpusSpec::call_heavy().generate();
    let config = XMergeConfig::new()
        .with_host_policy(HostPolicy::CallGraph)
        .with_check_semantics(true);
    let cg_report = xmerge_corpus(&mut cg_corpus, &config);
    assert_eq!(cg_report.host_policy, HostPolicy::CallGraph);
    assert!(cg_report.num_commits() >= 1, "{cg_report}");
    assert_eq!(
        cg_report.semantic_rejections, 0,
        "oracle mismatches under the callgraph policy: {cg_report}"
    );
    assert!(
        cg_report.forced_cross_edges < size_report.forced_cross_edges,
        "callgraph policy must force strictly fewer cross-module call edges: \
         {} (callgraph) vs {} (size)",
        cg_report.forced_cross_edges,
        size_report.forced_cross_edges
    );
    assert!(
        cg_report.saved_cross_edges > 0,
        "at least one placement must have been flipped profitably"
    );
    for module in &cg_corpus {
        assert!(
            verify_module(module).is_empty(),
            "module {} failed verification under the callgraph policy",
            module.name
        );
    }
    let linked = link_modules(&cg_corpus, "prog").expect("corpus must stay linkable");
    assert!(verify_module(&linked).is_empty());
}

/// A call-heavy hand-built worker over `helper`; workers sharing a helper
/// land in one call-graph region.
fn int_worker(name: &str, helper: &str, k: i64) -> String {
    format!(
        "define i32 @{name}(i32 %x) {{\nentry:\n  %a = add i32 %x, {k}\n  %b = mul i32 %a, 3\n  %c = call i32 @{helper}(i32 %b)\n  %d = xor i32 %c, %x\n  %e = call i32 @{helper}(i32 %d)\n  %g = sub i32 %e, %a\n  %h2 = mul i32 %g, %b\n  %i = call i32 @{helper}(i32 %h2)\n  %j = add i32 %i, %d\n  ret i32 %j\n}}"
    )
}

/// A float-heavy worker over `@hb`, so discovery never pairs it with an
/// [`int_worker`] — otherwise a cross-group candidate pair would link the
/// regions.
fn float_worker(name: &str, k: f64) -> String {
    format!(
        "define double @{name}(double %x) {{\nentry:\n  %a = fadd double %x, {k}.5\n  %b = fmul double %a, 3.0\n  %c = call double @hb(double %b)\n  %d = fdiv double %c, 2.0\n  %e = call double @hb(double %d)\n  %g = fmul double %e, %a\n  %h2 = fadd double %g, %b\n  %i = call double @hb(double %h2)\n  %j = fdiv double %i, %d\n  ret double %j\n}}"
    )
}

fn hand_corpus(texts: &[(&str, String)]) -> Vec<ssa_ir::Module> {
    texts
        .iter()
        .map(|(module, text)| {
            let mut m = ssa_ir::parse_module(text).unwrap();
            m.name = (*module).to_string();
            m
        })
        .collect()
}

/// The alignment ledger counts every traceback alignment once: on one clone
/// pair across two modules, the report's cells are the pair's scoring
/// alignment plus its commit's re-alignment of the same two bodies.
#[test]
fn align_cells_count_the_scoring_alignment_and_the_commit_realignment() {
    let texts = [
        ("mod_a", int_worker("left", "h1", 1)),
        ("mod_b", int_worker("right", "h1", 2)),
    ];
    let mut corpus = hand_corpus(&texts);
    let config = XMergeConfig::new();
    let report = xmerge_corpus(&mut corpus, &config);
    assert_eq!(report.num_merges(), 1, "{report}");
    assert_eq!(report.planner.speculative_scores, 1, "{report}");
    assert_eq!(
        report.align_full_runs, 2,
        "one scoring, one commit: {report}"
    );
    assert_eq!(report.align_band_runs, 0, "{report}");

    let original = hand_corpus(&texts);
    let r = &report.committed[0];
    let function = |module: &str, name: &str| {
        original
            .iter()
            .find(|m| m.name == module)
            .and_then(|m| m.function(name))
            .unwrap()
    };
    let (f1, f2) = (
        function(&r.host_module, &r.f1),
        function(&r.donor_module, &r.f2),
    );
    let scoring = merge_pair(f1, f2, &config.options, "merged.xm.trial").unwrap();
    let commit = merge_pair(f1, f2, &config.options, &r.merged_name).unwrap();
    assert!(scoring.alignment.cells > 0);
    assert_eq!(
        report.align_cells,
        scoring.alignment.cells + commit.alignment.cells
    );
    assert_eq!(
        report.align_trimmed_entries,
        (scoring.alignment.trimmed + commit.alignment.trimmed) as u64
    );
}

/// A cross run reports the alignment and code-generation time of every
/// merge it makes, in its report and its JSON: a cross commit's scoring and
/// re-merge, and the interleaved intra passes' merges, which are the only
/// merges of a one-module corpus.
#[test]
fn cross_runs_report_alignment_and_codegen_time() {
    let cross = xmerge_corpus(
        &mut hand_corpus(&[
            ("mod_a", int_worker("left", "h1", 1)),
            ("mod_b", int_worker("right", "h1", 2)),
        ]),
        &XMergeConfig::new(),
    );
    assert_eq!(cross.num_merges(), 1, "{cross}");
    let clones = format!(
        "{}\n{}",
        int_worker("left", "h1", 1),
        int_worker("right", "h1", 2)
    );
    let intra = xmerge_corpus(
        &mut hand_corpus(&[("mod_a", clones)]),
        &XMergeConfig::new().with_fixpoint(FixpointConfig::default()),
    );
    assert_eq!(
        (intra.num_commits(), intra.num_intra_merges()),
        (0, 1),
        "{intra}"
    );
    for report in [&cross, &intra] {
        assert!(report.align_time > Duration::ZERO, "{report}");
        assert!(report.codegen_time > Duration::ZERO, "{report}");
        let json = corpus_report_json(report);
        assert!(json.contains(r#","align_ms":"#), "{json}");
        assert!(json.contains(r#","codegen_ms":"#), "{json}");
    }
}

/// One committing region plus an unrelated singleton region: the default
/// round reports both regions, and its records and modules are
/// bit-identical to planning the committing region on its own, so a
/// region-parallel split of the round would change nothing.
#[test]
fn region_parallel_single_committing_region_is_bit_identical() {
    let noise = "define double @noise(double %x) {\nentry:\n  %a = fmul double %x, 2.0\n  %b = fadd double %a, 1.0\n  ret double %b\n}";
    let region = [
        ("mod_a", int_worker("left", "h1", 1)),
        ("mod_b", int_worker("right", "h1", 2)),
    ];
    // A symbol-disjoint third module: its own region, nothing to merge.
    let mut whole = hand_corpus(&[
        region[0].clone(),
        region[1].clone(),
        ("mod_c", noise.to_string()),
    ]);
    let report = xmerge_corpus(&mut whole, &XMergeConfig::new());
    assert!(report.num_merges() >= 1, "{report}");
    assert_eq!(report.region_counts, vec![2], "{report}");

    let mut alone = hand_corpus(&region);
    let region_report = xmerge_corpus(&mut alone, &XMergeConfig::new());
    assert_eq!(region_report.region_counts, vec![1], "{region_report}");
    assert_eq!(
        report.committed, region_report.committed,
        "bit-identical records"
    );
    for (a, b) in whole.iter().zip(&alone) {
        assert_eq!(print_module(a), print_module(b));
    }
    assert_eq!(
        print_module(&whole[2]),
        print_module(&hand_corpus(&[("mod_c", noise.to_string())])[0])
    );
}

/// Two symbol-disjoint committing regions: the default round reports both
/// and commits both merges under the oracle — the same set of operations,
/// and identical final modules, as planning each region on its own.
#[test]
fn region_parallel_disjoint_regions_commit_the_same_set() {
    let regions = [
        [
            ("a1", int_worker("left_a", "ha", 1)),
            ("a2", int_worker("right_a", "ha", 2)),
        ],
        [
            ("b1", float_worker("left_b", 5.0)),
            ("b2", float_worker("right_b", 9.0)),
        ],
    ];
    let config = XMergeConfig::new().with_check_semantics(true);
    let mut whole = hand_corpus(&regions.concat());
    let report = xmerge_corpus(&mut whole, &config);
    assert_eq!(report.region_counts, vec![2], "{report}");
    assert_eq!(report.num_merges(), 2, "{report}");
    assert_eq!(report.semantic_rejections, 0, "{report}");

    let mut split_records = Vec::new();
    let mut split_modules = Vec::new();
    for region in &regions {
        let mut modules = hand_corpus(region);
        let region_report = xmerge_corpus(&mut modules, &config);
        assert_eq!(region_report.region_counts, vec![1], "{region_report}");
        assert_eq!(region_report.semantic_rejections, 0, "{region_report}");
        split_records.extend(region_report.committed);
        split_modules.extend(modules);
    }
    let sorted = |mut records: Vec<xmerge::CrossMergeRecord>| {
        records.sort_by(|a, b| {
            (&a.host_module, &a.f1, &a.donor_module, &a.f2).cmp(&(
                &b.host_module,
                &b.f1,
                &b.donor_module,
                &b.f2,
            ))
        });
        records
    };
    assert_eq!(sorted(report.committed.clone()), sorted(split_records));
    for (a, b) in whole.iter().zip(&split_modules) {
        assert_eq!(print_module(a), print_module(b));
    }
}

/// Callgraph policy + fixpoint + oracle compose on the call-heavy corpus
/// without rejections or verifier breakage, reporting regions every round.
#[test]
fn regions_policy_and_fixpoint_compose_cleanly() {
    let mut corpus = CorpusSpec::call_heavy().generate();
    let config = XMergeConfig::new()
        .with_host_policy(HostPolicy::CallGraph)
        .with_check_semantics(true)
        .with_fixpoint(FixpointConfig::default());
    let report = xmerge_corpus(&mut corpus, &config);
    assert!(report.num_commits() >= 1, "{report}");
    assert_eq!(report.semantic_rejections, 0, "{report}");
    assert_eq!(report.region_counts.len(), report.rounds);
    assert!(
        report.planner.oracle_links > 0,
        "the oracle must have linked pairs: {report}"
    );
    // Each oracle run links a before and an after program, and the oracle
    // runs at most once per commit attempt.
    assert!(
        report.planner.oracle_links <= 2 * (report.attempts + report.num_commits()),
        "{report}"
    );
    for module in &corpus {
        assert!(verify_module(module).is_empty(), "module {}", module.name);
    }
    let linked = link_modules(&corpus, "prog").expect("corpus must stay linkable");
    assert!(verify_module(&linked).is_empty());
}

#[test]
fn oracle_and_unchecked_runs_commit_identically_on_generated_corpora() {
    let mut plain = eight_module_corpus();
    let baseline = xmerge_corpus(&mut plain, &XMergeConfig::new());
    let mut checked = eight_module_corpus();
    let report = xmerge_corpus(
        &mut checked,
        &XMergeConfig::new().with_check_semantics(true),
    );
    assert_eq!(baseline.committed, report.committed);
    for (a, b) in plain.iter().zip(&checked) {
        assert_eq!(print_module(a), print_module(b));
    }
}

#[test]
fn xmerge_is_deterministic() {
    let run = || {
        let mut corpus = eight_module_corpus();
        let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
        (
            report.committed,
            corpus.iter().map(print_module).collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn donor_thunks_keep_every_original_symbol_exported() {
    let mut corpus = eight_module_corpus();
    let names_before: Vec<(String, String)> = corpus
        .iter()
        .flat_map(|m| {
            m.functions()
                .iter()
                .map(|f| (m.name.clone(), f.name.clone()))
        })
        .collect();
    let report = xmerge_corpus(&mut corpus, &XMergeConfig::new());
    assert!(report.num_merges() >= 1);
    let dropped: Vec<&(String, String)> = names_before
        .iter()
        .filter(|(module, name)| {
            corpus
                .iter()
                .find(|m| &m.name == module)
                .is_none_or(|m| m.function(name).is_none())
        })
        .collect();
    // Only ODR-deduped donor copies may lose their definition — and those
    // modules must still declare the symbol.
    for (module, name) in &dropped {
        let record = report
            .committed
            .iter()
            .find(|r| r.odr_dedup && &r.donor_module == module && &r.f2 == name)
            .unwrap_or_else(|| panic!("{module}:@{name} vanished without an ODR dedup record"));
        assert!(record.odr_dedup);
        let m = corpus.iter().find(|m| &m.name == module).unwrap();
        assert!(m.declarations().iter().any(|d| &d.name == name));
    }
}
