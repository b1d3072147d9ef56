//! The stages of `salssa::merge_pair`, run one by one on the merged
//! functions of `examples/clone_heavy.ll` and of `PerfTier::S` pairs, with
//! two checks between stages:
//!
//! * the CFG analyses this thread hands out (predecessors, reverse
//!   post-order, dominator tree), possibly from its memo, equal the ones a
//!   fresh thread builds from scratch, also when the memo last saw the same
//!   function with every conditional branch's targets swapped;
//! * from SSA repair on, `cleanup_function`, which skips its second sweep
//!   when the first changed nothing, prints the same function as two full
//!   sweeps.

use fm_align::{align_banded, linearize, Band};
use salssa::{codegen, repair, MergeOptions};
use ssa_ir::{parse_module, print_function, BlockId, DomTree, Function, InstKind};
use ssa_passes::{
    cleanup_function, constant_fold, dce, phi_dedup, simplify, simplify_cfg::SimplifyStats,
};
use std::collections::HashMap;
use workloads::PerfTier;

/// Consecutive function pairs of `examples/clone_heavy.ll` and of each
/// `PerfTier::S` module.
fn pairs() -> Vec<(Function, Function)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/clone_heavy.ll");
    let text = std::fs::read_to_string(path).expect("the example is committed");
    let mut modules = vec![parse_module(&text).expect("the example parses")];
    modules.extend(PerfTier::S.spec().generate());
    modules
        .iter()
        .flat_map(|m| {
            m.functions()
                .windows(2)
                .map(|w| (w[0].clone(), w[1].clone()))
        })
        .collect()
}

/// Runs the stages of `salssa::merge_pair` on `f1` and `f2`, calling
/// `after` with each stage's name and the merged function as it leaves the
/// stage. Returns `false` when the pair does not generate.
fn merge_in_stages(f1: &Function, f2: &Function, mut after: impl FnMut(&str, &Function)) -> bool {
    let options = MergeOptions::default();
    let band = options.band.map(|slack| Band::from_hint(slack, None));
    let alignment = align_banded(f1, &linearize(f1), f2, &linearize(f2), band);
    let Some((mut merged, maps)) = codegen::generate(f1, f2, &alignment, &options, "merged") else {
        return false;
    };
    after("codegen", &merged);
    simplify(&mut merged);
    after("simplify", &merged);
    repair(&mut merged, &maps, options.phi_coalescing);
    after("repair", &merged);
    cleanup_function(&mut merged);
    after("cleanup", &merged);
    phi_dedup::absorb_undef_compatible_phis(&mut merged);
    after("absorb", &merged);
    cleanup_function(&mut merged);
    after("final cleanup", &merged);
    true
}

type Analyses = (HashMap<BlockId, Vec<BlockId>>, Vec<BlockId>, DomTree);

fn analyses(function: &Function) -> Analyses {
    (
        (*function.predecessors()).clone(),
        (*function.reverse_post_order()).clone(),
        (*DomTree::compute(function)).clone(),
    )
}

/// Asserts that the analyses of `function` on this thread equal a fresh
/// thread's.
fn assert_memo_is_exact(what: &str, function: &Function) {
    let here = analyses(function);
    let fresh = std::thread::scope(|s| {
        s.spawn(|| analyses(function))
            .join()
            .expect("a fresh build does not panic")
    });
    assert_eq!(here.0, fresh.0, "{what}: predecessors");
    assert_eq!(here.1, fresh.1, "{what}: reverse post-order");
    assert_eq!(here.2, fresh.2, "{what}: dominator tree");
}

/// `function` with the targets of every conditional branch swapped: the
/// same blocks, each with as many successors, in a different order.
fn with_branch_targets_swapped(function: &Function) -> Function {
    let mut swapped = function.clone();
    let terms: Vec<_> = swapped
        .block_ids()
        .filter_map(|b| swapped.block(b).term)
        .collect();
    for term in terms {
        if let InstKind::CondBr {
            if_true, if_false, ..
        } = &mut swapped.inst_mut(term).kind
        {
            std::mem::swap(if_true, if_false);
        }
    }
    swapped
}

#[test]
fn memoized_analyses_equal_fresh_builds_after_every_stage() {
    let mut merged = 0;
    for (f1, f2) in pairs() {
        merged += usize::from(merge_in_stages(&f1, &f2, |stage, function| {
            let what = format!("{} after {stage}", function.name);
            assert_memo_is_exact(&what, function);
            // Each request now finds the other CFG in the memo.
            assert_memo_is_exact(
                &format!("{what}, swapped"),
                &with_branch_targets_swapped(function),
            );
            assert_memo_is_exact(&what, function);
        }));
    }
    assert!(merged > 100, "only {merged} pairs generated");
}

/// What `cleanup_function` did before it learned to stop early.
fn two_full_sweeps(function: &mut Function) {
    for _ in 0..2 {
        simplify(function);
        constant_fold::fold_constants(function);
        phi_dedup::simplify_phis(function);
        dce::eliminate_dead_code(function);
    }
}

/// Whether a sweep of `cleanup_function` changes `function`.
fn sweep_changes(function: &Function) -> bool {
    let mut f = function.clone();
    simplify(&mut f) != SimplifyStats::default()
        || constant_fold::fold_constants(&mut f) > 0
        || phi_dedup::simplify_phis(&mut f) > 0
        || dce::eliminate_dead_code(&mut f) > 0
}

#[test]
fn stopping_cleanup_early_prints_what_two_full_sweeps_print() {
    let (mut stopped, mut swept) = (0, 0);
    for (f1, f2) in pairs() {
        merge_in_stages(&f1, &f2, |stage, function| {
            // Clean-up runs on repaired SSA only.
            if matches!(stage, "codegen" | "simplify") {
                return;
            }
            if sweep_changes(function) {
                swept += 1;
            } else {
                stopped += 1;
            }
            let mut early = function.clone();
            cleanup_function(&mut early);
            let mut full = function.clone();
            two_full_sweeps(&mut full);
            assert_eq!(
                print_function(&early),
                print_function(&full),
                "{} after {stage}",
                function.name
            );
        });
    }
    // Both outcomes of the first sweep occur.
    assert!(
        stopped > 100 && swept > 100,
        "{stopped} stopped, {swept} swept"
    );
}
