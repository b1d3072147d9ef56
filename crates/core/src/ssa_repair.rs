//! SSA repair (Section 4.3) and phi-node coalescing (Section 4.4).
//!
//! The code generator resolves operands through the value mapping without
//! worrying about dominance, so a merged value may be used on paths where its
//! definition does not execute. Following the paper, repair works by:
//!
//! 1. finding every definition whose uses violate the dominance property,
//! 2. **phi-node coalescing**: pairing violating definitions that are
//!    *disjoint* (exclusive to different input functions) and of equal type,
//!    preferring pairs whose users share the most blocks
//!    (`maximize |UB(d1) ∩ UB(d2)|`), and assigning each pair one stack slot,
//! 3. demoting each group to its slot (store after the definition, load before
//!    each use), and
//! 4. re-running the standard SSA construction algorithm ([`ssa_passes::mem2reg`])
//!    to place phi-nodes, which — thanks to the shared slots — materializes one
//!    phi web per coalesced pair instead of two plus a select.
//!
//! ## Cost
//!
//! One repair asks for one dominator tree, which the thread's memo of CFG
//! analyses builds only when its last build was for a different CFG. It
//! checks every use once to find the broken definitions (a use in its
//! definition's own block by walking that block up to the first of the
//! two), collects the uses of all broken definitions in one more pass, pairs
//! them (quadratic in the number of broken definitions of each input
//! function, not in the function's size), places each store and load after
//! one search of its block, and runs [`ssa_passes::mem2reg::promote_slots`]
//! once over all slots. Demotion changes no edge, so `promote_slots` is
//! handed the same tree without a rebuild.

use crate::codegen::CodegenMaps;
use ssa_ir::dominators::DomTree;
use ssa_ir::{BlockId, Function, InstId, InstKind, Type, Value};
use std::collections::{HashMap, HashSet};

/// Statistics of one SSA-repair run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Definitions whose uses violated the dominance property.
    pub broken_defs: usize,
    /// Pairs of disjoint definitions coalesced into a single name.
    pub coalesced_pairs: usize,
    /// Stack slots created during repair.
    pub slots: usize,
    /// Phi-nodes inserted by the SSA reconstruction.
    pub phis_inserted: usize,
}

/// Repairs the dominance property of `function`, optionally applying phi-node
/// coalescing, and returns statistics.
pub fn repair(function: &mut Function, maps: &CodegenMaps, coalesce: bool) -> RepairStats {
    let broken = find_broken_defs(function);
    let mut stats = RepairStats {
        broken_defs: broken.len(),
        ..RepairStats::default()
    };
    if broken.is_empty() {
        return stats;
    }

    // Demoting one definition never changes another one's users, so these
    // lists stay valid throughout the repair.
    let users = function.users_of_all(&broken);

    // Group definitions: coalesced pairs share one slot, the rest get one each.
    let groups = if coalesce {
        let (pairs, singles) = coalesce_pairs(function, maps, &broken, &users);
        stats.coalesced_pairs = pairs.len();
        pairs
            .into_iter()
            .map(|(a, b)| vec![a, b])
            .chain(singles.into_iter().map(|d| vec![d]))
            .collect::<Vec<_>>()
    } else {
        broken.iter().map(|d| vec![*d]).collect()
    };

    // Demote each group to a shared stack slot.
    let entry = function.entry();
    let mut slots = Vec::new();
    for group in &groups {
        let ty = function.inst(group[0]).ty;
        let slot = function.insert_inst(entry, 0, InstKind::Alloca { ty }, Type::Ptr);
        slots.push(slot);
        for &def in group {
            demote_def_to_slot(function, def, slot, &users[&def]);
        }
    }
    stats.slots = slots.len();

    // Standard SSA construction turns the slots back into (coalesced) phis.
    stats.phis_inserted = ssa_passes::mem2reg::promote_slots(function, &slots);
    stats
}

/// Finds every instruction-defined value that has at least one use not
/// dominated by its definition.
pub fn find_broken_defs(function: &Function) -> Vec<InstId> {
    let domtree = DomTree::compute(function);
    let mut broken: Vec<InstId> = Vec::new();
    let mut seen: HashSet<InstId> = HashSet::new();
    for block in function.block_ids() {
        for user in function.block(block).all_insts() {
            if let InstKind::Phi { incomings } = &function.inst(user).kind {
                for &(value, pred) in incomings {
                    let Value::Inst(def) = value else { continue };
                    if !function.contains_inst(def) {
                        continue;
                    }
                    let def_block = function.inst(def).block;
                    let ok = domtree.is_reachable(pred)
                        && (def_block == pred || domtree.dominates(def_block, pred));
                    if !ok && seen.insert(def) {
                        broken.push(def);
                    }
                }
            } else {
                function.inst(user).kind.for_each_operand(|v| {
                    let Value::Inst(def) = v else { return };
                    if function.contains_inst(def)
                        && !domtree.def_dominates_use(function, def, user, block)
                        && seen.insert(def)
                    {
                        broken.push(def);
                    }
                });
            }
        }
    }
    broken
}

/// Pairs broken definitions that are disjoint (one exclusive to each input
/// function) and of the same type, maximizing the overlap of their user-block
/// sets. Returns the chosen pairs and the remaining unpaired definitions.
fn coalesce_pairs(
    function: &Function,
    maps: &CodegenMaps,
    broken: &[InstId],
    users: &HashMap<InstId, Vec<InstId>>,
) -> (Vec<(InstId, InstId)>, Vec<InstId>) {
    let user_blocks = |d: InstId| -> HashSet<BlockId> {
        users[&d].iter().map(|&u| function.inst(u).block).collect()
    };
    let mut f1_only: Vec<InstId> = Vec::new();
    let mut f2_only: Vec<InstId> = Vec::new();
    let mut rest: Vec<InstId> = Vec::new();
    for &d in broken {
        match maps.side_of(d) {
            (true, false) => f1_only.push(d),
            (false, true) => f2_only.push(d),
            _ => rest.push(d),
        }
    }
    let ub1: HashMap<InstId, HashSet<BlockId>> =
        f1_only.iter().map(|&d| (d, user_blocks(d))).collect();
    let ub2: HashMap<InstId, HashSet<BlockId>> =
        f2_only.iter().map(|&d| (d, user_blocks(d))).collect();

    // All compatible pairs, scored by user-block overlap.
    let mut candidates: Vec<(usize, InstId, InstId)> = Vec::new();
    for &d1 in &f1_only {
        for &d2 in &f2_only {
            if function.inst(d1).ty != function.inst(d2).ty {
                continue;
            }
            let overlap = ub1[&d1].intersection(&ub2[&d2]).count();
            // Only coalesce definitions whose users share at least one block:
            // pairing unrelated definitions can enlarge the resulting phi webs
            // instead of shrinking them.
            if overlap == 0 {
                continue;
            }
            candidates.push((overlap, d1, d2));
        }
    }
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    let mut used: HashSet<InstId> = HashSet::new();
    let mut pairs = Vec::new();
    for (_, d1, d2) in candidates {
        if used.contains(&d1) || used.contains(&d2) {
            continue;
        }
        used.insert(d1);
        used.insert(d2);
        pairs.push((d1, d2));
    }
    let singles: Vec<InstId> = broken
        .iter()
        .copied()
        .filter(|d| !used.contains(d))
        .collect();
    let _ = rest;
    (pairs, singles)
}

/// Demotes one definition to the given stack slot: stores it right after its
/// definition and replaces every use by a load placed before the user (or at
/// the end of the incoming block for phi uses).
fn demote_def_to_slot(function: &mut Function, def: InstId, slot: InstId, users: &[InstId]) {
    let slot_val = Value::Inst(slot);
    let ty = function.inst(def).ty;
    let def_block = function.inst(def).block;

    // Place the defining store.
    if let InstKind::Invoke { normal, .. } = &function.inst(def).kind {
        let normal = *normal;
        function.insert_inst(
            normal,
            0,
            InstKind::Store {
                value: Value::Inst(def),
                ptr: slot_val,
            },
            Type::Void,
        );
    } else {
        let pos = function
            .block(def_block)
            .insts
            .iter()
            .position(|i| *i == def)
            .map(|p| p + 1)
            // Phi definitions: store at the top of the block body.
            .unwrap_or(0);
        function.insert_inst(
            def_block,
            pos,
            InstKind::Store {
                value: Value::Inst(def),
                ptr: slot_val,
            },
            Type::Void,
        );
    }

    // Replace the uses.
    for &user in users {
        let user_block = function.inst(user).block;
        if let InstKind::Phi { incomings } = &function.inst(user).kind {
            let mut rewritten = incomings.clone();
            for (value, pred) in rewritten.iter_mut() {
                if *value == Value::Inst(def) {
                    let at = function.block(*pred).insts.len();
                    let load =
                        function.insert_inst(*pred, at, InstKind::Load { ptr: slot_val }, ty);
                    *value = Value::Inst(load);
                }
            }
            if let InstKind::Phi { incomings } = &mut function.inst_mut(user).kind {
                *incomings = rewritten;
            }
        } else {
            let pos = function
                .block(user_block)
                .insts
                .iter()
                .position(|i| *i == user)
                .unwrap_or(function.block(user_block).insts.len());
            let load = function.insert_inst(user_block, pos, InstKind::Load { ptr: slot_val }, ty);
            function
                .inst_mut(user)
                .kind
                .replace_value(Value::Inst(def), Value::Inst(load));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::builder::FunctionBuilder;
    use ssa_ir::verifier::{assert_valid, verify_function};
    use ssa_ir::{parse_function, BinOp, ICmpPred};

    /// Builds a function shaped like Figure 13a of the paper: a value defined
    /// in one branch is used after the join without a phi.
    fn broken_diamond() -> Function {
        let mut b = FunctionBuilder::new("broken", vec![Type::I1, Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let l12 = b.create_block("L12");
        let l21 = b.create_block("L21");
        let l4 = b.create_block("L4");
        b.switch_to(entry);
        b.cond_br(Value::Arg(0), l12, l21);
        b.switch_to(l12);
        let v2 = b.binary(BinOp::Add, Value::Arg(1), Value::i32(1));
        b.br(l4);
        b.switch_to(l21);
        b.br(l4);
        b.switch_to(l4);
        let call = b.call("body", vec![v2], Type::I32);
        b.ret(Some(call));
        b.finish()
    }

    #[test]
    fn detects_dominance_violation() {
        let f = broken_diamond();
        assert!(!verify_function(&f).is_empty());
        let broken = find_broken_defs(&f);
        assert_eq!(broken.len(), 1);
    }

    #[test]
    fn repair_restores_ssa_with_a_phi() {
        let mut f = broken_diamond();
        let maps = CodegenMaps::default();
        let stats = repair(&mut f, &maps, true);
        assert_eq!(stats.broken_defs, 1);
        assert!(stats.phis_inserted >= 1);
        assert_valid(&f);
        let l4 = f.block_by_name("L4").unwrap();
        assert_eq!(f.block(l4).phis.len(), 1);
    }

    #[test]
    fn valid_function_is_left_untouched() {
        let mut f = parse_function(
            "define i32 @ok(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}",
        )
        .unwrap();
        let before = f.num_insts();
        let stats = repair(&mut f, &CodegenMaps::default(), true);
        assert_eq!(stats.broken_defs, 0);
        assert_eq!(f.num_insts(), before);
    }

    /// Two disjoint definitions (one per input function) feeding a select on
    /// the function identifier — the Figure 14 situation.
    fn disjoint_defs_function() -> (Function, CodegenMaps) {
        let mut b = FunctionBuilder::new("m", vec![Type::I1, Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let lf1 = b.create_block("Lf1");
        let lf2 = b.create_block("Lf2");
        let lm = b.create_block("Lmerged");
        b.switch_to(entry);
        b.cond_br(Value::Arg(0), lf2, lf1);
        b.switch_to(lf1);
        let v = b.binary(BinOp::Add, Value::Arg(1), Value::i32(1));
        b.br(lm);
        b.switch_to(lf2);
        let x = b.binary(BinOp::Mul, Value::Arg(1), Value::i32(2));
        b.br(lm);
        b.switch_to(lm);
        let s = b.select(Value::Arg(0), x, v);
        let r = b.call("use", vec![s], Type::I32);
        b.ret(Some(r));
        let f = b.finish();
        // Mark v as exclusive to F1 and x as exclusive to F2, as the code
        // generator would have recorded.
        let mut maps = CodegenMaps::default();
        let vid = v.as_inst().unwrap();
        let xid = x.as_inst().unwrap();
        maps.provenance.insert(vid, (Some(vid), None));
        maps.provenance.insert(xid, (None, Some(xid)));
        (f, maps)
    }

    #[test]
    fn coalescing_merges_disjoint_definitions_into_one_phi() {
        let (mut f, maps) = disjoint_defs_function();
        let stats = repair(&mut f, &maps, true);
        assert_eq!(stats.broken_defs, 2);
        assert_eq!(stats.coalesced_pairs, 1);
        assert_eq!(stats.slots, 1);
        assert_valid(&f);
        let lm = f.block_by_name("Lmerged").unwrap();
        assert_eq!(
            f.block(lm).phis.len(),
            1,
            "coalesced pair must yield one phi"
        );
        // After constant-folding the select-of-identical-values, the select
        // disappears entirely (Figure 14b).
        ssa_passes::cleanup_function(&mut f);
        let selects = f
            .inst_ids()
            .filter(|i| matches!(f.inst(*i).kind, InstKind::Select { .. }))
            .count();
        assert_eq!(selects, 0);
    }

    #[test]
    fn without_coalescing_two_phis_and_the_select_remain() {
        let (mut f, maps) = disjoint_defs_function();
        let stats = repair(&mut f, &maps, false);
        assert_eq!(stats.coalesced_pairs, 0);
        assert_eq!(stats.slots, 2);
        assert_valid(&f);
        let lm = f.block_by_name("Lmerged").unwrap();
        assert_eq!(f.block(lm).phis.len(), 2);
        ssa_passes::cleanup_function(&mut f);
        let selects = f
            .inst_ids()
            .filter(|i| matches!(f.inst(*i).kind, InstKind::Select { .. }))
            .count();
        assert_eq!(selects, 1, "the fid select must survive without coalescing");
    }

    #[test]
    fn coalescing_reduces_code_size_versus_no_coalescing() {
        let (mut with, maps) = disjoint_defs_function();
        let (mut without, maps2) = disjoint_defs_function();
        repair(&mut with, &maps, true);
        repair(&mut without, &maps2, false);
        ssa_passes::cleanup_function(&mut with);
        ssa_passes::cleanup_function(&mut without);
        assert!(with.num_insts() < without.num_insts());
    }

    #[test]
    fn coalescing_only_pairs_equal_types() {
        let mut b = FunctionBuilder::new("m", vec![Type::I1, Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let a = b.create_block("a");
        let c = b.create_block("c");
        let j = b.create_block("j");
        b.switch_to(entry);
        b.cond_br(Value::Arg(0), a, c);
        b.switch_to(a);
        let v64 = b.cast(ssa_ir::CastKind::SExt, Value::Arg(1), Type::I64);
        b.br(j);
        b.switch_to(c);
        let v32 = b.binary(BinOp::Add, Value::Arg(1), Value::i32(1));
        b.br(j);
        b.switch_to(j);
        let t = b.cast(ssa_ir::CastKind::Trunc, v64, Type::I32);
        let s = b.binary(BinOp::Add, t, v32);
        let cmp = b.icmp(ICmpPred::Sgt, s, Value::i32(0));
        let r = b.select(cmp, s, Value::i32(0));
        b.ret(Some(r));
        let f0 = b.finish();
        let mut maps = CodegenMaps::default();
        maps.provenance
            .insert(v64.as_inst().unwrap(), (Some(v64.as_inst().unwrap()), None));
        maps.provenance
            .insert(v32.as_inst().unwrap(), (None, Some(v32.as_inst().unwrap())));
        let mut f = f0;
        let stats = repair(&mut f, &maps, true);
        assert_eq!(
            stats.coalesced_pairs, 0,
            "i64 and i32 defs must not be coalesced"
        );
        assert_valid(&f);
    }
}
