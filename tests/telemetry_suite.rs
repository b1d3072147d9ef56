//! Telemetry suite: trace well-formedness under arbitrary span nesting (and
//! rayon parallelism), and **observational purity** — the planner must commit
//! bit-identical records with tracing, decision logging, and allocation
//! tracking on or off, and the committed entries of the decision log must
//! exactly match the report's merge records. The resource layer gets the
//! same treatment: the per-span profile rollup must agree with the report's
//! own phase timings. (The allocator's live-bytes check runs alone in
//! `tests/alloc_baseline.rs`: the figure is process-wide, so other test
//! threads would move it.)
//!
//! Telemetry state (the tracing flag, the allocation-tracking flag, the
//! decision log, per-thread span buffers) is process-global, so every test
//! here serializes on one lock and drains the global buffers before and
//! after itself.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use salssa::{merge_module, DriverConfig, SalSsaMerger};
use ssa_ir::Module;
use std::sync::{Mutex, MutexGuard, OnceLock};
use workloads::{BenchmarkSpec, Divergence};
use xmerge::{xmerge_corpus, XMergeConfig};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Resets all global telemetry state and returns the guard that keeps other
/// tests out while the caller holds it.
fn exclusive_telemetry() -> MutexGuard<'static, ()> {
    let guard = lock();
    telemetry::set_tracing(false);
    telemetry::set_decisions(false);
    telemetry::set_alloc_tracking(false);
    let _ = telemetry::take_trace();
    let _ = telemetry::take_decisions();
    guard
}

fn corpus(seed: u64, modules: usize) -> Vec<Module> {
    (0..modules as u64)
        .map(|i| {
            let mut m = BenchmarkSpec {
                name: format!("telem.eq.{seed}"),
                num_functions: 10,
                size_range: (15, 60),
                clone_fraction: 0.6,
                family_size: 3,
                // A shared base seed plus a small per-module offset: modules
                // overlap enough for cross-module candidates without being
                // identical.
                seed: seed + (i % 2),
                divergence: Divergence::low(),
            }
            .generate();
            m.name = format!("m{i}");
            m
        })
        .collect()
}

/// Asserts the Chrome-trace invariants on a drained trace: per-thread
/// balanced and properly nested B/E events with monotone timestamps.
fn assert_well_formed(trace: &telemetry::Trace) -> Result<(), TestCaseError> {
    for (tid, events) in &trace.threads {
        let mut stack: Vec<&'static str> = Vec::new();
        let mut last_ts = 0u64;
        for ev in events {
            prop_assert_eq!(ev.tid, *tid);
            prop_assert!(
                ev.ts_micros >= last_ts,
                "timestamps regressed on tid {}: {} after {}",
                tid,
                ev.ts_micros,
                last_ts
            );
            last_ts = ev.ts_micros;
            match ev.phase {
                'B' => stack.push(ev.name),
                'E' => {
                    let open = stack.pop();
                    prop_assert!(
                        open == Some(ev.name),
                        "E event does not close the innermost open span on tid {tid}: {open:?} vs {}",
                        ev.name
                    );
                }
                other => prop_assert!(false, "unexpected phase {:?}", other),
            }
        }
        prop_assert!(stack.is_empty(), "tid {} left spans open: {:?}", tid, stack);
    }
    Ok(())
}

/// Opens a randomized span tree on the current thread, recursing to `depth`.
fn nest(plan: &[u8], depth: usize) {
    if depth >= plan.len() {
        return;
    }
    let n = (plan[depth] % 3) as usize + 1;
    for i in 0..n {
        let _g = match (depth + i) % 3 {
            0 => telemetry::span("prop.a"),
            1 => telemetry::span_with("prop.b", || format!("d{depth} i{i}")),
            _ => telemetry::timed_span("prop.c"),
        };
        nest(plan, depth + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary nesting plans — including spans recorded concurrently from
    /// rayon workers — always drain to a balanced, nested, monotone trace.
    #[test]
    fn traces_are_well_formed(seed in 0u64..10_000) {
        let _guard = exclusive_telemetry();
        let mut rng = SmallRng::seed_from_u64(seed);
        let plan: Vec<u8> = (0..rng.gen_range(1..6usize)).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        telemetry::set_tracing(true);
        {
            let _root = telemetry::span("prop.root");
            nest(&plan, 0);
            // Rayon section: every worker records into its own buffer.
            (0..8u64).collect::<Vec<_>>().par_iter().for_each(|i| {
                let _outer = telemetry::span("prop.par");
                let _inner = telemetry::span_with("prop.par.inner", || i.to_string());
            });
        }
        telemetry::set_tracing(false);
        let trace = telemetry::take_trace();
        prop_assert!(trace.event_count() >= 4, "trace suspiciously empty");
        assert_well_formed(&trace)?;
        // The exported JSON contains exactly one B and one E line per event.
        let json = trace.to_chrome_json();
        prop_assert_eq!(json.matches("\"ph\":").count(), trace.event_count());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The cross-module pipeline commits bit-identical records with all
    /// telemetry on vs off, and the decision log's committed entries match
    /// the report's records exactly.
    #[test]
    fn xmerge_is_observationally_pure(seed in 0u64..500) {
        let _guard = exclusive_telemetry();
        let config = XMergeConfig::new().with_check_semantics(seed % 2 == 0);

        let mut plain = corpus(seed, 4);
        let baseline = xmerge_corpus(&mut plain, &config);

        telemetry::set_tracing(true);
        telemetry::set_decisions(true);
        let mut traced = corpus(seed, 4);
        let observed = xmerge_corpus(&mut traced, &config);
        telemetry::set_tracing(false);
        telemetry::set_decisions(false);
        let trace = telemetry::take_trace();
        let decisions = telemetry::take_decisions();

        prop_assert_eq!(&baseline.committed, &observed.committed);
        prop_assert_eq!(baseline.size_after, observed.size_after);
        for (a, b) in plain.iter().zip(&traced) {
            prop_assert_eq!(ssa_ir::print_module(a), ssa_ir::print_module(b));
        }

        // Committed decision events == report records, both directions.
        let logged: Vec<(&str, &str, &str, &str)> = decisions
            .iter()
            .filter(|d| matches!(d.event, telemetry::DecisionEvent::Committed))
            .map(|d| (
                d.pair.module_a.as_str(),
                d.pair.func_a.as_str(),
                d.pair.module_b.as_str(),
                d.pair.func_b.as_str(),
            ))
            .collect();
        let reported: Vec<(&str, &str, &str, &str)> = observed
            .committed
            .iter()
            .map(|r| (
                r.host_module.as_str(),
                r.f1.as_str(),
                r.donor_module.as_str(),
                r.f2.as_str(),
            ))
            .collect();
        prop_assert_eq!(logged, reported);

        assert_well_formed(&trace)?;
        if !observed.committed.is_empty() {
            for phase in ["xmerge.index", "xmerge.discover", "plan.score", "plan.commit"] {
                prop_assert!(
                    trace.threads.iter().any(|(_, ev)| ev.iter().any(|e| e.name == phase)),
                    "no {} span in a committing run", phase
                );
            }
        }
    }

    /// Same purity contract for the counting allocator: enabling allocation
    /// tracking must not change what the pipeline commits — it only counts.
    #[test]
    fn xmerge_is_pure_under_alloc_tracking(seed in 0u64..500) {
        let _guard = exclusive_telemetry();
        let config = XMergeConfig::new();

        let mut plain = corpus(seed, 4);
        let baseline = xmerge_corpus(&mut plain, &config);

        telemetry::set_alloc_tracking(true);
        let mut tracked = corpus(seed, 4);
        let observed = xmerge_corpus(&mut tracked, &config);
        telemetry::set_alloc_tracking(false);

        prop_assert_eq!(&baseline.committed, &observed.committed);
        prop_assert_eq!(baseline.size_after, observed.size_after);
        for (a, b) in plain.iter().zip(&tracked) {
            prop_assert_eq!(ssa_ir::print_module(a), ssa_ir::print_module(b));
        }
    }

    /// Same purity contract for the intra-module driver.
    #[test]
    fn intra_merge_is_observationally_pure(seed in 0u64..500) {
        let _guard = exclusive_telemetry();
        let merger = SalSsaMerger::default();
        let config = DriverConfig::default();

        let mut plain = corpus(seed, 1).pop().unwrap();
        let baseline = merge_module(&mut plain, &merger, &config);

        telemetry::set_tracing(true);
        telemetry::set_decisions(true);
        let mut traced = corpus(seed, 1).pop().unwrap();
        let observed = merge_module(&mut traced, &merger, &config);
        telemetry::set_tracing(false);
        telemetry::set_decisions(false);
        let trace = telemetry::take_trace();
        let decisions = telemetry::take_decisions();

        prop_assert_eq!(&baseline.committed, &observed.committed);
        prop_assert_eq!(ssa_ir::print_module(&plain), ssa_ir::print_module(&traced));
        assert_well_formed(&trace)?;

        let committed = decisions
            .iter()
            .filter(|d| matches!(d.event, telemetry::DecisionEvent::Committed))
            .count();
        prop_assert_eq!(committed, observed.committed.len());
    }
}

/// The profile rollup folded from a traced run agrees with the report's own
/// phase timings (both sides measure the same guard, so they may differ only
/// by microsecond truncation in the trace timestamps), and — with allocation
/// tracking on — every pipeline phase span carries an allocation delta.
#[test]
fn profile_rollup_matches_report_phase_timings() {
    let _guard = exclusive_telemetry();
    let config = XMergeConfig::new();
    telemetry::set_tracing(true);
    telemetry::set_alloc_tracking(true);
    let mut modules = corpus(3, 4);
    let report = xmerge_corpus(&mut modules, &config);
    telemetry::set_tracing(false);
    telemetry::set_alloc_tracking(false);
    let trace = telemetry::take_trace();

    let profile = telemetry::Profile::from_trace(&trace);
    for (name, reported) in [
        ("xmerge.index", report.index_time),
        ("xmerge.discover", report.discover_time),
        ("xmerge.callgraph", report.callgraph_time),
    ] {
        let node = profile
            .find(name)
            .unwrap_or_else(|| panic!("no {name} node"));
        let reported_micros = reported.as_micros() as i64;
        let rolled_micros = node.total_micros as i64;
        // 1ms cushion: generous against scheduling noise, still far tighter
        // than any real double-counting or missed-span bug would land.
        assert!(
            (rolled_micros - reported_micros).abs() <= 1000,
            "{name}: rollup {rolled_micros}us vs report {reported_micros}us"
        );
    }

    let mut phase_ends = 0usize;
    for (_, events) in &trace.threads {
        for ev in events.iter().filter(|e| e.phase == 'E') {
            let phase_span = ["xmerge.", "plan.", "merge."]
                .iter()
                .any(|p| ev.name.starts_with(p));
            if phase_span {
                phase_ends += 1;
                assert!(
                    ev.alloc.is_some(),
                    "{} end event lacks an allocation delta",
                    ev.name
                );
            }
        }
    }
    assert!(phase_ends > 0, "trace recorded no pipeline phase spans");
}
