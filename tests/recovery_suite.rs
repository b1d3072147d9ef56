//! Robustness suite: the error-recovering frontend must skip exactly the
//! broken parts of the committed recovery fixtures, arbitrary seeded
//! corruption of generated corpora must never unwind out of the full
//! parse → verify → xmerge pipeline, recovery must be observationally pure
//! (bit-identical commits) on clean inputs, and injected faults plus oracle
//! fuel budgets must degrade to counted decisions instead of aborts.

use proptest::prelude::*;
use salssa::{merge_module, DriverConfig, MergeOptions, SalSsaMerger};
use ssa_ir::verifier::verify_module;
use ssa_ir::{parse_module, parse_module_recovering, print_module, Module};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use telemetry::{DecisionEvent, RejectReason};
use workloads::{mutate_text, CorpusSpec};
use xmerge::{xmerge_corpus, XMergeConfig};

/// Fault probes are process-global; every test that runs the planner (and
/// could therefore consume — or be poisoned by — an armed probe) serializes
/// on this lock.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fixture(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/recovery")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn mixed_fixture_skips_only_the_broken_function() {
    let text = fixture("mixed.ll");
    assert!(parse_module(&text).is_err(), "strict parse must reject it");
    let recovered = parse_module_recovering(&text);
    assert!(recovered.degraded());
    assert_eq!(recovered.skipped.len(), 1);
    assert_eq!(recovered.skipped[0].name, "bad");
    assert_eq!(recovered.skipped[0].line, 9);
    assert_eq!(recovered.module.num_functions(), 2);
    assert!(recovered.module.function("good1").is_some());
    assert!(recovered.module.function("good2").is_some());
    assert!(verify_module(&recovered.module).is_empty());
}

#[test]
fn truncated_fixture_keeps_the_complete_function() {
    let text = fixture("truncated.ll");
    assert!(parse_module(&text).is_err());
    let recovered = parse_module_recovering(&text);
    assert_eq!(recovered.skipped.len(), 1);
    assert_eq!(recovered.skipped[0].name, "cut");
    assert_eq!(recovered.module.num_functions(), 1);
    assert!(recovered.module.function("keep").is_some());
    assert!(verify_module(&recovered.module).is_empty());
}

#[test]
fn garbage_fixture_resyncs_on_each_define() {
    let text = fixture("garbage.ll");
    assert!(parse_module(&text).is_err());
    let recovered = parse_module_recovering(&text);
    // Leading `$$$` noise, the stray sentence between the functions, and the
    // `###` trailer: one skip each, with both real functions surviving.
    assert_eq!(recovered.skipped.len(), 3);
    assert_eq!(
        recovered.skipped.iter().map(|s| s.line).collect::<Vec<_>>(),
        vec![1, 6, 12]
    );
    assert_eq!(recovered.module.num_functions(), 2);
    assert!(recovered.module.function("first").is_some());
    assert!(recovered.module.function("second").is_some());
    assert!(verify_module(&recovered.module).is_empty());
}

#[test]
fn clean_pair_fixture_is_clean_and_commits_one_merge() {
    let _guard = lock();
    let text = fixture("clean_pair.ll");
    let recovered = parse_module_recovering(&text);
    assert!(!recovered.degraded(), "the CI smoke fixture must be clean");
    let mut module = parse_module(&text).expect("clean fixture parses strictly");
    let merger = SalSsaMerger::new(MergeOptions::default());
    let report = merge_module(&mut module, &merger, &DriverConfig::default());
    // CI's fault-injection smoke relies on this pair actually committing.
    assert_eq!(report.num_merges(), 1);
    assert!(verify_module(&module).is_empty());
}

#[test]
fn integer_widths_outside_1_to_64_are_skipped_at_load() {
    let _guard = lock();
    // Integer constants are kept in an `i64`, so a width must be 1 to 64.
    // Loaded, an `i0` copy of the clean pair would panic the semantic
    // oracle's truncation in debug builds (the pair lost to isolated
    // internal errors) and commit in release builds, and an `i65` copy
    // would merge with 64-bit semantics.
    let pair = fixture("clean_pair.ll");
    let copy = |ty: &str, tag: &str| {
        pair.replace("i64", ty)
            .replace("@pair_", &format!("@{tag}_"))
    };
    let text = [copy("i0", "zero"), copy("i65", "wide"), pair.clone()].concat();
    let err = parse_module(&text).unwrap_err();
    assert_eq!((err.message.as_str(), err.line), ("unknown type 'i0'", 1));

    let recovered = parse_module_recovering(&text);
    let skips: Vec<(&str, usize, &str)> = recovered
        .skipped
        .iter()
        .map(|s| (s.name.as_str(), s.line, s.message.as_str()))
        .collect();
    assert_eq!(
        skips,
        [
            ("zero_a", 1, "unknown type 'i0'"),
            ("zero_b", 18, "unknown type 'i0'"),
            ("wide_a", 34, "unknown type 'i65'"),
            ("wide_b", 51, "unknown type 'i65'"),
        ]
    );
    // What loads is the clean pair, which merges as it does on its own.
    let mut module = recovered.module;
    assert_eq!(module.num_functions(), 2);
    let config = DriverConfig {
        check_semantics: true,
        ..DriverConfig::default()
    };
    let merger = SalSsaMerger::new(MergeOptions::default());
    let report = merge_module(&mut module, &merger, &config);
    assert_eq!(report.planner.internal_errors, 0);
    assert_eq!(report.num_merges(), 1);
    assert!(verify_module(&module).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One seeded corruption (byte flip, truncation, line delete/duplicate)
    /// per module of a generated corpus: the recovering parse plus the
    /// loader's verify gate plus a full xmerge run must degrade — skipped
    /// functions, dropped modules — and never unwind.
    #[test]
    fn corrupted_corpora_never_panic_the_pipeline(seed in 0u64..1_000_000) {
        let _guard = lock();
        let spec = CorpusSpec {
            name: format!("fuzz.{seed}"),
            num_modules: 3,
            functions_per_module: 3,
            size_range: (6, 18),
            seed,
            ..CorpusSpec::default()
        };
        let mut modules: Vec<Module> = Vec::new();
        for (i, module) in spec.generate().into_iter().enumerate() {
            let (mutated, _) = mutate_text(&print_module(&module), seed ^ ((i as u64) << 32));
            let recovered = parse_module_recovering(&mutated);
            let mut m = recovered.module;
            m.name = format!("m{i}");
            if verify_module(&m).is_empty() {
                modules.push(m);
            }
        }
        if !modules.is_empty() {
            xmerge_corpus(&mut modules, &XMergeConfig::new());
            for m in &modules {
                prop_assert!(verify_module(m).is_empty());
            }
        }
    }
}

#[test]
fn recovery_is_bit_identical_on_the_clean_subset() {
    let _guard = lock();
    for seed in [1u64, 7, 23] {
        let spec = CorpusSpec {
            name: format!("clean.{seed}"),
            seed,
            ..CorpusSpec::default()
        };
        let mut strict: Vec<Module> = Vec::new();
        let mut recovering: Vec<Module> = Vec::new();
        for (i, module) in spec.generate().into_iter().enumerate() {
            let text = print_module(&module);
            let mut a = parse_module(&text).expect("clean corpus parses strictly");
            a.name = format!("m{i}");
            strict.push(a);
            let recovered = parse_module_recovering(&text);
            assert!(!recovered.degraded(), "phantom recovery on clean input");
            let mut b = recovered.module;
            b.name = format!("m{i}");
            recovering.push(b);
        }
        let ra = xmerge_corpus(&mut strict, &XMergeConfig::new());
        let rb = xmerge_corpus(&mut recovering, &XMergeConfig::new());
        assert_eq!(ra.num_commits(), rb.num_commits());
        let printed_strict: Vec<String> = strict.iter().map(print_module).collect();
        let printed_recovering: Vec<String> = recovering.iter().map(print_module).collect();
        assert_eq!(printed_strict, printed_recovering);
    }
}

#[test]
fn injected_scoring_panic_degrades_to_internal_error() {
    let _guard = lock();
    telemetry::disarm_faults();
    let text = fixture("clean_pair.ll");
    let mut module = parse_module(&text).unwrap();
    telemetry::arm_fault("plan.score", 1);
    let merger = SalSsaMerger::new(MergeOptions::default());
    let report = merge_module(&mut module, &merger, &DriverConfig::default());
    telemetry::disarm_faults();
    // The run completes: exactly one scoring attempt was lost to the
    // injected panic, the module stays well-formed, and any surviving
    // candidate direction may still commit.
    assert_eq!(report.planner.internal_errors, 1);
    assert!(verify_module(&module).is_empty());
}

#[test]
fn every_injected_scoring_panic_is_counted_in_xmerge() {
    let _guard = lock();
    telemetry::disarm_faults();
    let corpus = CorpusSpec::default().generate();
    let scoring_calls = xmerge_corpus(&mut corpus.clone(), &XMergeConfig::new())
        .planner
        .speculative_scores;
    assert!(scoring_calls > 10, "{scoring_calls} scoring calls");
    // A cross-module round scores every discovered pair up front, and most
    // of them never reach the commit loop: each panic must still count.
    for armed in [1, 10, scoring_calls + 5] {
        let mut modules = corpus.clone();
        let _ = telemetry::take_decisions();
        telemetry::set_decisions(true);
        telemetry::arm_fault("plan.score", armed as u64);
        let report = xmerge_corpus(&mut modules, &XMergeConfig::new());
        telemetry::disarm_faults();
        telemetry::set_decisions(false);
        let internal = telemetry::take_decisions()
            .iter()
            .filter(|d| d.event == DecisionEvent::Rejected(RejectReason::InternalError))
            .count();
        let expected = armed.min(report.planner.speculative_scores);
        assert_eq!(
            report.planner.internal_errors, expected,
            "plan.score:{armed}"
        );
        assert_eq!(internal, expected, "plan.score:{armed}");
        assert!(modules.iter().all(|m| verify_module(m).is_empty()));
    }
}

#[test]
fn oracle_fuel_budget_times_out_through_merge_module() {
    let _guard = lock();
    let text = fixture("clean_pair.ll");
    let merger = SalSsaMerger::new(MergeOptions::default());

    let mut starved = parse_module(&text).unwrap();
    let config = DriverConfig {
        check_semantics: true,
        oracle_fuel: Some(1),
        ..DriverConfig::default()
    };
    let report = merge_module(&mut starved, &merger, &config);
    assert!(report.planner.oracle_timeouts >= 1);
    assert_eq!(report.num_merges(), 0);
    assert_eq!(
        report.semantic_rejections, 0,
        "a timeout is not a semantic verdict"
    );

    let mut fueled = parse_module(&text).unwrap();
    let config = DriverConfig {
        check_semantics: true,
        oracle_fuel: Some(1_000_000),
        ..DriverConfig::default()
    };
    let report = merge_module(&mut fueled, &merger, &config);
    assert_eq!(report.planner.oracle_timeouts, 0);
    assert_eq!(report.num_merges(), 1);
}
