//! Criterion benchmarks of the substrate passes: the textual frontend,
//! register demotion, SSA construction (mem2reg) and the clean-up pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ssa_ir::{parse_module_recovering, print_module};
use ssa_passes::{cleanup_function, mem2reg, reg2mem};
use workloads::{generate_function, FunctionSpec, PerfTier};

/// Loads the M tier, cleaned like `gen-corpus --clean`, as `salssa` loads
/// its inputs: the frontend's throughput on the benchmark's `xmerge-m` text.
fn parse_benches(c: &mut Criterion) {
    let texts: Vec<String> = PerfTier::M
        .spec()
        .generate()
        .into_iter()
        .map(|mut module| {
            for function in module.functions_mut() {
                cleanup_function(function);
            }
            print_module(&module)
        })
        .collect();
    let bytes: usize = texts.iter().map(String::len).sum();
    let mut group = c.benchmark_group("parse");
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("recovering/perf-tier-m", |b| {
        b.iter(|| {
            texts
                .iter()
                .map(|text| parse_module_recovering(text).module.num_functions())
                .sum::<usize>()
        })
    });
    group.finish();
}

fn pass_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("passes");
    for &size in &[60usize, 200] {
        let mut rng = SmallRng::seed_from_u64(size as u64);
        let f = generate_function(
            &FunctionSpec {
                name: "f".into(),
                size,
                ..FunctionSpec::default()
            },
            &mut rng,
        );
        group.bench_with_input(BenchmarkId::new("reg2mem", size), &size, |b, _| {
            b.iter(|| {
                let mut clone = f.clone();
                reg2mem::demote_function(&mut clone).insts_after
            })
        });
        group.bench_with_input(BenchmarkId::new("reg2mem+mem2reg", size), &size, |b, _| {
            b.iter(|| {
                let mut clone = f.clone();
                reg2mem::demote_function(&mut clone);
                mem2reg::promote_function(&mut clone).promoted
            })
        });
        group.bench_with_input(BenchmarkId::new("cleanup", size), &size, |b, _| {
            b.iter(|| {
                let mut clone = f.clone();
                cleanup_function(&mut clone);
                clone.num_insts()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, parse_benches, pass_benches);
criterion_main!(benches);
