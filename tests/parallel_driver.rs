//! Integration tests of the whole-module merge driver on 30-function seed
//! modules: the driver, configured as the benchmark configures it, must
//! commit exactly the merges of the paper's sequential loop and produce a
//! byte-identical module, and the result must stay semantically equivalent
//! to the original and shrink by exactly the modelled profit.

mod common;

use common::reference_merge;
use salssa::{merge_module, DriverConfig, DriverMode, SalSsaMerger};
use ssa_interp::check_equivalent;
use ssa_ir::verifier::verify_module;
use ssa_ir::{print_module, Module};
use ssa_passes::codesize::Target;
use workloads::BenchmarkSpec;

/// Several clone families plus unrelated noise functions.
fn seed_module(seed: u64) -> Module {
    BenchmarkSpec {
        name: format!("par_driver_{seed}"),
        num_functions: 30,
        size_range: (10, 45),
        clone_fraction: 0.5,
        family_size: 3,
        divergence: workloads::Divergence::medium(),
        seed,
    }
    .generate()
}

/// The driver under `DriverMode::Parallel` (the benchmark's configuration)
/// and the sequential reference loop commit identical merge records.
#[test]
fn parallel_and_sequential_commit_identical_merge_records() {
    let merger = SalSsaMerger::default();
    for seed in [1u64, 17, 99] {
        let mut sequential = seed_module(seed);
        let (reference, scored) = reference_merge(&mut sequential, 3, 3);
        let mut parallel = seed_module(seed);
        let report = merge_module(
            &mut parallel,
            &merger,
            &DriverConfig::with_threshold(3).with_mode(DriverMode::Parallel),
        );

        assert!(
            report.num_merges() > 0,
            "seed {seed}: expected the clone families to produce merges"
        );
        assert_eq!(
            report.committed, reference,
            "seed {seed}: committed merge records diverged"
        );
        assert_eq!(report.planner.speculative_scores, 0, "seed {seed}");
        assert_eq!(report.planner.inline_scores, scored, "seed {seed}");
        assert_eq!(report.planner.candidates, scored, "seed {seed}");
        assert_eq!(
            print_module(&parallel),
            print_module(&sequential),
            "seed {seed}: merged modules diverged"
        );
        assert!(verify_module(&parallel).is_empty(), "seed {seed}");
    }
}

#[test]
fn parallel_merging_preserves_observable_behaviour() {
    let original = seed_module(7);
    let mut merged = seed_module(7);
    let merger = SalSsaMerger::default();
    let report = merge_module(&mut merged, &merger, &DriverConfig::with_threshold(2));
    assert!(report.num_merges() > 0);
    assert!(verify_module(&merged).is_empty());

    // Every function the module started with is still callable by name (as a
    // thunk if it was merged) and behaves identically on sample inputs.
    for function in original.functions() {
        let name = &function.name;
        for args in [[1i64, 2, 3], [-5, 0, 9]] {
            check_equivalent(&original, name, &args, &merged, name, &args)
                .unwrap_or_else(|e| panic!("{name} diverged after merging: {e:?}"));
        }
    }
}

#[test]
fn parallel_mode_shrinks_the_modelled_module_size() {
    let mut module = seed_module(23);
    let before = ssa_passes::module_size_bytes(&module, Target::X86Like);
    let merger = SalSsaMerger::default();
    let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(3));
    let after = ssa_passes::module_size_bytes(&module, Target::X86Like);
    assert!(report.num_merges() > 0);
    assert!(after < before, "expected shrink, got {before} -> {after}");
    assert_eq!(report.total_profit_bytes(), (before - after) as i64);
}
