//! Criterion benchmarks of whole-module merging for both techniques and of a
//! single SalSSA pair merge (ablation of phi-node coalescing), plus the
//! telemetry hot paths.
//!
//! After the criterion groups run, `main` asserts the telemetry contract CI
//! relies on: with tracing **off**, the total cost of every span site a full
//! pipeline run would hit is under 2% of that pipeline's wall time.

use criterion::{criterion_group, BenchmarkId, Criterion};
use fmsa::FmsaMerger;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use salssa::{merge_module, merge_pair, DriverConfig, MergeOptions, SalSsaMerger};
use ssa_ir::Module;
use std::time::{Duration, Instant};
use workloads::{generate_function, make_clone, BenchmarkSpec, Divergence, FunctionSpec};
use xmerge::{xmerge_corpus, XMergeConfig};

fn pair_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("pair_merge");
    let mut rng = SmallRng::seed_from_u64(7);
    let f1 = generate_function(
        &FunctionSpec {
            name: "base".into(),
            size: 120,
            ..FunctionSpec::default()
        },
        &mut rng,
    );
    let f2 = make_clone(&f1, "clone", Divergence::medium(), &mut rng, &[]);
    group.bench_function("salssa", |b| {
        b.iter(|| merge_pair(&f1, &f2, &MergeOptions::default(), "m").map(|m| m.merged_size()))
    });
    group.bench_function("salssa_no_phi_coalescing", |b| {
        b.iter(|| {
            merge_pair(&f1, &f2, &MergeOptions::without_phi_coalescing(), "m")
                .map(|m| m.merged_size())
        })
    });
    group.finish();
}

fn module_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("module_merge");
    group.sample_size(10);
    let spec = BenchmarkSpec {
        name: "bench.module".into(),
        num_functions: 12,
        size_range: (20, 80),
        clone_fraction: 0.5,
        family_size: 3,
        divergence: Divergence::low(),
        seed: 99,
    };
    for t in [1usize, 5] {
        group.bench_with_input(BenchmarkId::new("salssa", t), &t, |b, &t| {
            b.iter(|| {
                let mut m = spec.generate();
                merge_module(
                    &mut m,
                    &SalSsaMerger::default(),
                    &DriverConfig::with_threshold(t),
                )
                .num_merges()
            })
        });
        group.bench_with_input(BenchmarkId::new("fmsa", t), &t, |b, &t| {
            b.iter(|| {
                let mut m = spec.generate();
                merge_module(
                    &mut m,
                    &FmsaMerger::default(),
                    &DriverConfig::with_threshold(t),
                )
                .num_merges()
            })
        });
    }
    group.finish();
}

fn telemetry_hot_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry");
    // The contract: a disabled span is one relaxed atomic load. Regressions
    // here multiply across every instrumentation site in the pipeline.
    telemetry::set_tracing(false);
    group.bench_function("span_disabled", |b| {
        b.iter(|| {
            let _g = telemetry::span("bench.telemetry.off");
        })
    });
    group.bench_function("span_with_disabled", |b| {
        b.iter(|| {
            let _g = telemetry::span_with("bench.telemetry.off", || unreachable!());
        })
    });
    group.finish();
}

fn overhead_corpus() -> Vec<Module> {
    (0..4u64)
        .map(|i| {
            let mut m = BenchmarkSpec {
                name: "bench.telemetry".into(),
                num_functions: 10,
                size_range: (15, 60),
                clone_fraction: 0.6,
                family_size: 3,
                divergence: Divergence::low(),
                seed: 7 + (i % 2),
            }
            .generate();
            m.name = format!("m{i}");
            m
        })
        .collect()
}

/// Best-of-N wall clock of `run`.
fn best_of(n: usize, mut run: impl FnMut()) -> Duration {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            run();
            start.elapsed()
        })
        .min()
        .unwrap()
}

/// Asserts disabled tracing costs under 2% of a full cross-module pipeline
/// run: (span sites one traced run hits) x (measured cost of one disabled
/// span) must stay below 2% of the untraced pipeline's wall time.
fn assert_tracing_off_overhead() {
    let config = XMergeConfig::new();
    telemetry::set_tracing(false);
    let wall = best_of(3, || {
        let mut modules = overhead_corpus();
        xmerge_corpus(&mut modules, &config);
    });

    // Count the span sites a real run passes through.
    telemetry::set_tracing(true);
    {
        let mut modules = overhead_corpus();
        xmerge_corpus(&mut modules, &config);
    }
    telemetry::set_tracing(false);
    let trace = telemetry::take_trace();
    let spans = trace.event_count() / 2;
    assert!(spans > 0, "traced pipeline run recorded no spans");

    // Per-site cost of a disabled span, amortized over a tight loop.
    const REPS: u32 = 1_000_000;
    let loop_time = best_of(3, || {
        for _ in 0..REPS {
            let _g = telemetry::span("bench.telemetry.off");
        }
    });
    let per_span = loop_time / REPS;

    let overhead = per_span * spans as u32;
    let budget = wall.mul_f64(0.02);
    assert!(
        overhead < budget,
        "disabled tracing too expensive: {spans} spans x {per_span:?} = {overhead:?}, \
         over 2% of pipeline wall time {wall:?}"
    );
    println!(
        "telemetry overhead ok: {spans} spans x {per_span:?} = {overhead:?} \
         vs 2% budget {budget:?} (pipeline {wall:?})"
    );
}

/// Asserts disabled allocation tracking costs under 2% of a full
/// cross-module pipeline run: (allocator operations one tracked run
/// performs) x (measured cost of the off-path check — the one relaxed load
/// the counting wrapper adds per operation) must stay below 2% of the
/// untracked pipeline's wall time.
fn assert_alloc_tracking_off_overhead() {
    let config = XMergeConfig::new();
    telemetry::set_alloc_tracking(false);
    let wall = best_of(3, || {
        let mut modules = overhead_corpus();
        xmerge_corpus(&mut modules, &config);
    });

    // Count the allocator operations a real run performs.
    telemetry::set_alloc_tracking(true);
    let before = telemetry::alloc_snapshot();
    {
        let mut modules = overhead_corpus();
        xmerge_corpus(&mut modules, &config);
    }
    let after = telemetry::alloc_snapshot();
    telemetry::set_alloc_tracking(false);
    let ops = (after.allocs - before.allocs) + (after.deallocs - before.deallocs);
    assert!(ops > 0, "tracked pipeline run recorded no allocations");

    // Per-operation cost of the off path, amortized over a tight loop.
    // Kept in float nanoseconds: the real cost is sub-nanosecond, which a
    // Duration division would round to zero and gut the assertion.
    const REPS: u32 = 1_000_000;
    let loop_time = best_of(3, || {
        for _ in 0..REPS {
            std::hint::black_box(telemetry::alloc_tracking_enabled());
        }
    });
    let per_op_nanos = loop_time.as_secs_f64() * 1e9 / f64::from(REPS);

    let overhead = Duration::from_secs_f64(per_op_nanos * ops as f64 / 1e9);
    let budget = wall.mul_f64(0.02);
    assert!(
        overhead < budget,
        "disabled alloc tracking too expensive: {ops} ops x {per_op_nanos:.3}ns = {overhead:?}, \
         over 2% of pipeline wall time {wall:?}"
    );
    println!(
        "alloc tracking overhead ok: {ops} ops x {per_op_nanos:.3}ns = {overhead:?} \
         vs 2% budget {budget:?} (pipeline {wall:?})"
    );
}

criterion_group!(benches, pair_merge, module_merge, telemetry_hot_paths);

fn main() {
    benches();
    assert_tracing_off_overhead();
    assert_alloc_tracking_off_overhead();
}
