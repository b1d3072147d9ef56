//! Equivalence suite for the unified merge planner: the planner-based driver
//! and a hand-rolled paper-faithful reference implementation must commit
//! bit-identical [`MergeRecord`]s, after scoring the same pairs, on generated
//! workloads — and the structural-key cache must never disagree with a fresh
//! re-print after arbitrary builder/linker mutations.
//!
//! [`MergeRecord`]: salssa::MergeRecord

mod common;

use common::reference_merge;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use salssa::{merge_module, DriverConfig, DriverMode, MergeOptions, SalSsaMerger};
use ssa_ir::{
    import_function, parse_function, print_function, print_module, rename_symbol, Module, Value,
};
use workloads::{generate_function, BenchmarkSpec, Divergence, FunctionSpec};

fn workload(seed: u64) -> Module {
    BenchmarkSpec {
        name: format!("planner.eq.{seed}"),
        num_functions: 12,
        size_range: (15, 60),
        clone_fraction: 0.6,
        family_size: 3,
        divergence: Divergence::low(),
        seed,
    }
    .generate()
}

/// The driver's one schedule, under the default (sequential commit loop)
/// configuration and the `DriverMode::Parallel` configuration the benchmark
/// requests, commits bit-identical records to the reference loop at every
/// exploration threshold, after scoring exactly the pairs the reference
/// scores.
#[test]
fn sequential_parallel_and_reference_drivers_agree_bit_for_bit() {
    let merger = SalSsaMerger::default();
    for seed in [11u64, 42, 97, 1234] {
        for threshold in [1usize, 2, 3, 5] {
            let config = DriverConfig::with_threshold(threshold);
            assert_eq!(config.with_mode(DriverMode::Parallel), config);

            let mut reference_module = workload(seed);
            let (reference, scored) = reference_merge(&mut reference_module, threshold, 3);
            let mut module = workload(seed);
            let report = merge_module(&mut module, &merger, &config);

            let what = format!("seed {seed} t {threshold}");
            assert!(
                report.num_merges() > 0,
                "{what}: the clone families must merge"
            );
            assert_eq!(report.committed, reference, "{what}");
            assert_eq!(
                print_module(&module),
                print_module(&reference_module),
                "{what}"
            );
            assert!(
                ssa_ir::verifier::verify_module(&module).is_empty(),
                "{what}"
            );
            // The driver scores exactly the pairs the paper's loop reaches,
            // each once, when it reaches them.
            assert_eq!(report.planner.speculative_scores, 0, "{what}");
            assert_eq!(report.planner.inline_scores, scored, "{what}");
            assert_eq!(report.planner.candidates, scored, "{what}");
        }
    }
}

/// Banding and the admissible pre-filter are pure accelerators: every
/// combination of band width (including none) and prefilter setting must
/// commit bit-identical records and leave byte-identical modules.
#[test]
fn banding_and_prefilter_toggles_commit_identically() {
    let merger = SalSsaMerger::default();
    for seed in [11u64, 97] {
        let mut base_module = workload(seed);
        let base = merge_module(&mut base_module, &merger, &DriverConfig::with_threshold(2));

        // Unbanded alignment (always the exact tier).
        let unbanded = SalSsaMerger::new(MergeOptions {
            band: None,
            ..MergeOptions::default()
        });
        let mut m = workload(seed);
        let r = merge_module(&mut m, &unbanded, &DriverConfig::with_threshold(2));
        assert_eq!(base.committed, r.committed, "unbanded, seed {seed}");
        assert_eq!(print_module(&base_module), print_module(&m));

        // A wider explicit corridor.
        let wide = SalSsaMerger::new(MergeOptions {
            band: Some(40),
            ..MergeOptions::default()
        });
        let mut m = workload(seed);
        let r = merge_module(&mut m, &wide, &DriverConfig::with_threshold(2));
        assert_eq!(base.committed, r.committed, "band 40, seed {seed}");
        assert_eq!(print_module(&base_module), print_module(&m));

        // Pre-filter disabled: more pairs get scored, same commits.
        let mut m = workload(seed);
        let r = merge_module(
            &mut m,
            &merger,
            &DriverConfig::with_threshold(2).with_prefilter(false),
        );
        assert_eq!(base.committed, r.committed, "no prefilter, seed {seed}");
        assert_eq!(print_module(&base_module), print_module(&m));
        assert!(r.planner.prefilter_rejected == 0 && r.planner.prefilter_checked == 0);
    }
}

#[test]
fn oracle_guarded_planner_run_matches_unchecked_run() {
    let merger = SalSsaMerger::default();
    let mut unchecked = workload(7);
    let baseline = merge_module(&mut unchecked, &merger, &DriverConfig::with_threshold(2));
    let mut checked = workload(7);
    let report = merge_module(
        &mut checked,
        &merger,
        &DriverConfig::with_threshold(2).with_check_semantics(true),
    );
    assert_eq!(report.semantic_rejections, 0);
    assert_eq!(report.committed, baseline.committed);
    assert_eq!(print_module(&checked), print_module(&unchecked));
}

/// One mutation step through a builder or linker path, chosen by the seeded
/// RNG. Every step leaves the function printable (uses are rewritten before
/// instructions are removed).
fn mutate(module: &mut Module, name: &str, rng: &mut SmallRng) {
    match rng.gen_range(0u32..5) {
        // Append a fresh block with an instruction and a terminator.
        0 => {
            let f = module.function_mut(name).unwrap();
            let block = f.add_block(format!("tail{}", f.num_blocks()));
            let v = f.append_inst(
                block,
                ssa_ir::InstKind::Binary {
                    op: ssa_ir::BinOp::Add,
                    lhs: Value::i32(rng.gen_range(-50..50)),
                    rhs: Value::i32(1),
                },
                ssa_ir::Type::I32,
            );
            f.append_inst(
                block,
                ssa_ir::InstKind::Ret {
                    value: Some(Value::Inst(v)),
                },
                ssa_ir::Type::Void,
            );
        }
        // Rename an instruction result.
        1 => {
            let f = module.function_mut(name).unwrap();
            let first = f.inst_ids().next();
            if let Some(inst) = first {
                let tag = rng.gen_range(0..1000);
                f.set_inst_name(inst, format!("renamed{tag}"));
            }
        }
        // Rewrite all uses of the first instruction to a constant, then
        // remove it (a safe remove: no dangling operands).
        2 => {
            let f = module.function_mut(name).unwrap();
            let removable = f.inst_ids().find(|id| {
                let data = f.inst(*id);
                // i32-typed only, so the constant replacement stays
                // type-consistent and the print→parse round trip is exact.
                data.ty == ssa_ir::Type::I32 && !data.kind.is_phi()
            });
            if let Some(id) = removable {
                f.replace_all_uses(Value::Inst(id), Value::i32(3));
                f.remove_inst(id);
            }
        }
        // Rename the symbol through the linker (call sites follow).
        3 => {
            let tag = rng.gen_range(0..1000);
            let new_name = format!("{name}.r{tag}");
            rename_symbol(module, name, &new_name).unwrap();
            rename_symbol(module, &new_name, name).unwrap();
        }
        // Import the function into a scratch host (exercises the rename +
        // self-call path), then mutate the original's linkage round trip.
        _ => {
            let mut host = Module::new("scratch");
            host.add_function(
                parse_function(&format!(
                    "define i32 @{name}(i32 %x) {{\nentry:\n  ret i32 %x\n}}"
                ))
                .unwrap(),
            );
            let _ = import_function(&mut host, module, name);
            let f = module.function_mut(name).unwrap();
            let linkage = f.linkage;
            f.set_linkage(ssa_ir::Linkage::Internal);
            f.set_linkage(linkage);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After arbitrary builder/linker mutation sequences, the (possibly
    /// cached) structural key agrees exactly with a freshly computed one: a
    /// print → parse round trip produces a cache-cold twin whose key must be
    /// identical, and `structurally_equal` must accept the pair.
    #[test]
    fn structural_key_cache_never_disagrees_with_a_fresh_print(
        seed in 0u64..300,
        size in 10usize..40,
        steps in 1usize..6,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9e37));
        let name = format!("gen{seed}");
        let f = generate_function(
            &FunctionSpec { name: name.clone(), size, ..FunctionSpec::default() },
            &mut rng,
        );
        let mut module = Module::new("m");
        module.add_function(f);
        for _ in 0..steps {
            mutate(&mut module, &name, &mut rng);
            let f = module.function(&name).unwrap();
            // Prime the cache, then compare against a cache-cold twin.
            let cached = f.structural_key();
            let twin = parse_function(&print_function(f)).unwrap();
            let fresh = twin.structural_key();
            prop_assert_eq!(cached.as_ref(), fresh.as_ref());
            prop_assert!(ssa_ir::structurally_equal(f, &twin));
        }
    }
}
