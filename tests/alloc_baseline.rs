//! The counting allocator's live-bytes figure returns exactly to its
//! baseline once a scoped workload drops: every tracked allocation is
//! matched by a tracked deallocation of the same size (realloc included).
//!
//! The figure is one process-wide counter, so any other thread that
//! allocates or frees inside the measured window moves it. This is the only
//! test in this file, so the test binary has no other test threads.

use proptest::prelude::*;
use ssa_ir::Module;
use workloads::{BenchmarkSpec, Divergence};

/// One generated module of the telemetry suite's corpus shape.
fn module(seed: u64) -> Module {
    let mut m = BenchmarkSpec {
        name: format!("telem.eq.{seed}"),
        num_functions: 10,
        size_range: (15, 60),
        clone_fraction: 0.6,
        family_size: 3,
        seed,
        divergence: Divergence::low(),
    }
    .generate();
    m.name = "m0".to_string();
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One warm-up run of the same workload first lets process-wide lazy
    /// state (thread locals, interned tables) reach steady state.
    #[test]
    fn alloc_current_bytes_returns_to_baseline(seed in 0u64..1000) {
        let workload = |seed: u64| {
            let text = ssa_ir::print_module(&module(seed));
            // String/Vec churn exercises alloc, realloc (push growth), and
            // dealloc paths beyond what generation itself does.
            let mut grown = String::new();
            for _ in 0..(seed % 7 + 2) {
                grown.push_str(&text);
            }
            grown.len()
        };
        telemetry::set_alloc_tracking(true);
        workload(seed);
        let before = telemetry::alloc_snapshot();
        let produced = workload(seed);
        let after = telemetry::alloc_snapshot();
        telemetry::set_alloc_tracking(false);
        prop_assert!(produced > 0);
        prop_assert_eq!(after.current_bytes, before.current_bytes);
        prop_assert!(after.total_alloc_bytes > before.total_alloc_bytes);
        prop_assert!(after.allocs > before.allocs);
    }
}
