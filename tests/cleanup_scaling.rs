//! Scaling guard for the stages that run after code generation.
//!
//! SalSSA's code generator emits one block per aligned entry and leaves it
//! to CFG simplification and SSA repair to collapse them again, so the cost
//! of those stages must grow with the merged function's size, not with its
//! square. This suite merges a medium-divergence clone pair at 100 and at
//! 1000 instructions and compares the allocations of the post-codegen stages
//! (simplify, repair, clean-up, phi absorption, clean-up, verification):
//! ten times the input may cost at most twenty times the allocations. A
//! per-edit whole-function rescan costs about sixty times as much.
//!
//! It counts allocations, not time, so a busy machine cannot flake it. It is
//! the only test in this file because the counter is process-wide.

use fm_align::{align_banded, linearize, Band};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use salssa::{codegen, repair, MergeOptions};
use ssa_ir::verifier::verify_function;
use ssa_ir::Function;
use ssa_passes::{cleanup_function, phi_dedup, simplify};
use workloads::{generate_function, make_clone, Divergence, FunctionSpec};

/// A generated function of about `size` instructions and a
/// medium-divergence clone of it.
fn clone_pair(size: usize) -> (Function, Function) {
    let mut rng = SmallRng::seed_from_u64(size as u64);
    let spec = FunctionSpec {
        name: format!("base{size}"),
        size,
        ..FunctionSpec::default()
    };
    let base = generate_function(&spec, &mut rng);
    let clone = make_clone(
        &base,
        &format!("clone{size}"),
        Divergence::medium(),
        &mut rng,
        &spec.callees,
    );
    (base, clone)
}

/// Allocations made by the stages of `salssa::merge_pair` that follow code
/// generation, on the clone pair of `size` instructions.
fn post_codegen_allocs(size: usize) -> u64 {
    let (f1, f2) = clone_pair(size);
    let options = MergeOptions::default();
    let band = options.band.map(|slack| Band::from_hint(slack, None));
    let alignment = align_banded(&f1, &linearize(&f1), &f2, &linearize(&f2), band);
    let (mut merged, maps) = codegen::generate(&f1, &f2, &alignment, &options, "merged")
        .expect("the clone pair must generate");

    telemetry::set_alloc_tracking(true);
    let before = telemetry::alloc_snapshot().allocs;
    simplify(&mut merged);
    repair(&mut merged, &maps, options.phi_coalescing);
    cleanup_function(&mut merged);
    phi_dedup::absorb_undef_compatible_phis(&mut merged);
    cleanup_function(&mut merged);
    let errors = verify_function(&merged);
    let allocs = telemetry::alloc_snapshot().allocs - before;
    telemetry::set_alloc_tracking(false);

    assert!(errors.is_empty(), "merged function must verify: {errors:?}");
    allocs
}

#[test]
fn post_codegen_stages_scale_linearly() {
    let small = post_codegen_allocs(100);
    let large = post_codegen_allocs(1000);
    let ratio = large as f64 / small as f64;
    eprintln!("post-codegen allocations: {small} at 100, {large} at 1000 ({ratio:.1}x)");
    assert!(
        ratio <= 20.0,
        "post-codegen stages grew {ratio:.1}x for 10x the input \
         ({small} allocations at 100 instructions, {large} at 1000)"
    );
}
