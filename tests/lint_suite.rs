//! Static-analysis suite: generated workloads must lint clean (no errors,
//! no warnings — advisory lints are allowed), each corruption fixture must
//! produce exactly its documented diagnostic code, and paranoid mode must be
//! purely observational — bit-identical commits with zero delta diagnostics
//! on clean pipelines.

use analysis::{count_severities, AnalysisEngine};
use proptest::prelude::*;
use salssa::{merge_module, DriverConfig, MergeOptions, SalSsaMerger};
use ssa_ir::{parse_module, print_module, Module};
use std::path::PathBuf;
use workloads::{BenchmarkSpec, CorpusSpec, Divergence};
use xmerge::{xmerge_corpus, FixpointConfig, XMergeConfig};

fn module_workload(seed: u64) -> Module {
    BenchmarkSpec {
        name: format!("lint.suite.{seed}"),
        num_functions: 14,
        size_range: (10, 40),
        clone_fraction: 0.5,
        family_size: 3,
        divergence: Divergence::medium(),
        seed,
    }
    .generate()
}

fn corpus_workload(seed: u64) -> Vec<Module> {
    CorpusSpec {
        name: format!("lint.corpus.{seed}"),
        seed,
        ..CorpusSpec::default()
    }
    .generate()
}

/// Asserts a corpus carries no errors and no warnings (lints are advisory
/// and generated workloads legitimately contain dead parameters).
fn assert_lint_clean(modules: &[Module], what: &str) {
    let report = AnalysisEngine::new().analyze_program(modules);
    let (errors, warnings, _lints) = report.counts();
    assert_eq!(
        (errors, warnings),
        (0, 0),
        "{what} should lint clean, got: {:#?}",
        report.diagnostics
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every generator's output — plain modules, corpora, call-heavy
    /// corpora, and register-demoted (FMSA-shaped) modules — lints with no
    /// errors and no warnings.
    #[test]
    fn generated_workloads_lint_clean(seed in 0u64..1000) {
        let plain = module_workload(seed);
        assert_lint_clean(std::slice::from_ref(&plain), "gen-module output");

        let mut demoted = module_workload(seed.wrapping_add(7));
        for function in demoted.functions_mut() {
            ssa_passes::reg2mem::demote_function(function);
        }
        assert_lint_clean(std::slice::from_ref(&demoted), "demoted gen-module output");

        let corpus = corpus_workload(seed);
        assert_lint_clean(&corpus, "gen-corpus output");

        let call_heavy = CorpusSpec {
            name: format!("lint.callheavy.{seed}"),
            seed: seed.wrapping_add(13),
            ..CorpusSpec::call_heavy()
        }
        .generate();
        assert_lint_clean(&call_heavy, "call-heavy gen-corpus output");
    }
}

fn fixture(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(rel)
}

fn lint_fixture_files(rels: &[&str]) -> Vec<&'static str> {
    let modules: Vec<Module> = rels
        .iter()
        .map(|rel| {
            let path = fixture(rel);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", path.display()));
            let mut m =
                parse_module(&text).unwrap_or_else(|e| panic!("fixture {rel} must parse: {e}"));
            m.name = path.file_stem().unwrap().to_string_lossy().into_owned();
            m
        })
        .collect();
    AnalysisEngine::new()
        .analyze_program(&modules)
        .diagnostics
        .iter()
        .map(|d| d.code)
        .collect()
}

#[test]
fn corruption_fixtures_produce_their_documented_codes() {
    assert_eq!(
        lint_fixture_files(&["dominance.ll"]),
        vec![analysis::verifier_codes::DOMINANCE]
    );
    // The i1 operand breaks both binary-op type rules; every diagnostic is
    // the documented E003.
    let types = lint_fixture_files(&["type_mismatch.ll"]);
    assert!(!types.is_empty());
    assert!(types.iter().all(|c| *c == analysis::verifier_codes::TYPES));
    assert_eq!(
        lint_fixture_files(&["dangling_merged.ll"]),
        vec![analysis::codes::DANGLING_MERGED_CALLEE]
    );
    assert_eq!(
        lint_fixture_files(&["thunk_shape.ll"]),
        vec![analysis::codes::THUNK_SHAPE]
    );
    assert_eq!(
        lint_fixture_files(&["odr_clash/first.ll", "odr_clash/second.ll"]),
        vec![analysis::codes::ODR_CLASH]
    );
}

#[test]
fn paranoid_intra_merging_is_observational_with_zero_delta() {
    for seed in [3u64, 19, 42] {
        let mut plain_module = module_workload(seed);
        let mut paranoid_module = plain_module.clone();
        let merger = SalSsaMerger::new(MergeOptions::default());
        let plain = merge_module(&mut plain_module, &merger, &DriverConfig::default());
        let paranoid = merge_module(
            &mut paranoid_module,
            &merger,
            &DriverConfig::default().with_paranoid(true),
        );
        assert_eq!(
            plain.committed, paranoid.committed,
            "paranoid mode must not change what gets committed (seed {seed})"
        );
        assert_eq!(
            print_module(&plain_module),
            print_module(&paranoid_module),
            "paranoid mode must not change the merged module (seed {seed})"
        );
        assert!(!plain.paranoid && plain.paranoid_checks == 0);
        assert!(paranoid.paranoid);
        // One check per commit plus the post-postprocess check.
        assert_eq!(paranoid.paranoid_checks, paranoid.committed.len() + 1);
        assert!(
            paranoid.paranoid_delta.is_empty(),
            "intra merging introduced diagnostics (seed {seed}): {:#?}",
            paranoid.paranoid_delta
        );
        assert!(paranoid.paranoid_stats.cache_misses > 0);
    }
}

#[test]
fn paranoid_xmerge_pipeline_is_observational_with_zero_delta() {
    let mut plain_corpus = corpus_workload(11);
    let mut paranoid_corpus = plain_corpus.clone();
    let fixpoint = FixpointConfig {
        max_rounds: 3,
        intra: Some(DriverConfig::default()),
    };
    let plain_config = XMergeConfig::new().with_fixpoint(fixpoint);
    let paranoid_config = plain_config.clone().with_paranoid(true);
    let plain = xmerge_corpus(&mut plain_corpus, &plain_config);
    let paranoid = xmerge_corpus(&mut paranoid_corpus, &paranoid_config);
    assert_eq!(
        plain.committed, paranoid.committed,
        "paranoid mode must not change cross-module commits"
    );
    assert_eq!(plain.intra_committed, paranoid.intra_committed);
    for (a, b) in plain_corpus.iter().zip(&paranoid_corpus) {
        assert_eq!(print_module(a), print_module(b));
    }
    assert!(!plain.paranoid && plain.paranoid_checks == 0);
    assert!(paranoid.paranoid);
    assert!(paranoid.paranoid_checks > 0);
    assert!(
        paranoid.paranoid_delta.is_empty(),
        "the pipeline introduced diagnostics: {:#?}",
        paranoid.paranoid_delta
    );
    // The merged corpus still lints clean as a whole program.
    assert_lint_clean(&paranoid_corpus, "post-xmerge corpus");
    // Re-analysis after every commit leans on the verdict caches.
    assert!(paranoid.paranoid_stats.hit_rate() > 0.3);
}

#[test]
fn paranoid_catches_a_merger_that_breaks_invariants() {
    // Plant a regression by hand: a "merged" function whose discriminator
    // escapes into arithmetic. A paranoid check over the module must report
    // exactly the planted E021 as delta.
    let mut m = module_workload(5);
    let mut monitor = analysis::ParanoidMonitor::for_module(&m);
    let bad = parse_module(
        "define i32 @merged.planted.bug(i1 %fid, i32 %x) {\nentry:\n  %z = zext i1 %fid to i32\n  %r = add i32 %z, %x\n  ret i32 %r\n}",
    )
    .unwrap()
    .functions()[0]
        .clone();
    m.add_function(bad);
    assert_eq!(monitor.check_module(&m), 1);
    assert_eq!(monitor.delta()[0].code, analysis::codes::DISCRIMINATOR);
    assert_eq!(monitor.delta()[0].function, "merged.planted.bug");
}

#[test]
fn severity_counting_matches_code_tiers() {
    let diags = vec![
        analysis::Diagnostic::new(analysis::codes::THUNK_SHAPE, "m", "f", "x"),
        analysis::Diagnostic::new(analysis::codes::UNREACHABLE_BLOCK, "m", "f", "x"),
        analysis::Diagnostic::new(analysis::codes::DEAD_PARAM, "m", "f", "x"),
        analysis::Diagnostic::new(analysis::codes::DEAD_PARAM, "m", "g", "x"),
    ];
    assert_eq!(count_severities(&diags), (1, 1, 2));
}
