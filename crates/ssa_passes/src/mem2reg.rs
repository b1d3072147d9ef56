//! Register promotion (`mem2reg`): the standard SSA construction algorithm of
//! Cytron et al., driven by iterated dominance frontiers.
//!
//! Two clients in this reproduction use it:
//!
//! * the FMSA baseline promotes the stack slots it created with
//!   [`crate::reg2mem`] back into phi-nodes after merging (when possible), and
//! * SalSSA's SSA-repair stage (Section 4.3 of the paper) demotes only the
//!   values whose dominance property was broken by merging and relies on this
//!   pass to place the necessary phi-nodes — including the coalesced ones.
//!
//! A stack slot is promotable only when its address is used *directly* and
//! exclusively by `load` and `store` instructions. This is precisely the
//! property that the merged stores with `select`-ed addresses violate in the
//! paper's motivating example, which is why FMSA's promotion often fails.
//!
//! ## Cost
//!
//! [`promote_slots`] makes one pass to find the slots' loads and stores, takes
//! the dominator tree and predecessor lists from the thread's memo of CFG
//! analyses (built only when the memo's last build was for a different CFG,
//! so after SSA repair, which changes no edge, the tree is not rebuilt),
//! places phis at each slot's iterated dominance frontier, renames in one
//! walk down the dominator tree, and rewrites the loads' uses in one pass at
//! the end: O(n + s·b) for n instructions, s slots and b blocks (the walk
//! carries one current value per slot into every block).
//! [`promote_function`] first checks each `alloca` with one scan of the
//! function, so it adds O(n) per `alloca`.

use crate::subst::ValueSubst;
use ssa_ir::dominators::{iterated_dominance_frontier, DomTree};
use ssa_ir::{BlockId, Function, InstId, InstKind, Type, Value};
use std::collections::{HashMap, HashSet};

/// Statistics returned by [`promote_function`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mem2RegStats {
    /// Stack slots that were promoted to SSA values.
    pub promoted: usize,
    /// Stack slots that could not be promoted (address escapes).
    pub not_promotable: usize,
    /// Phi-nodes inserted by SSA construction.
    pub phis_inserted: usize,
}

/// Promotes every promotable `alloca` of `function` into SSA form.
pub fn promote_function(function: &mut Function) -> Mem2RegStats {
    let allocas = collect_allocas(function);
    let mut stats = Mem2RegStats::default();
    let mut promotable = Vec::new();
    for alloca in allocas {
        if is_promotable(function, alloca) {
            promotable.push(alloca);
        } else {
            stats.not_promotable += 1;
        }
    }
    if promotable.is_empty() {
        return stats;
    }
    stats.promoted = promotable.len();
    stats.phis_inserted = promote_slots(function, &promotable);
    stats
}

/// Collects every `alloca` of the function (in deterministic block order).
pub fn collect_allocas(function: &Function) -> Vec<InstId> {
    let mut out = Vec::new();
    for block in function.block_ids() {
        for inst in &function.block(block).insts {
            if matches!(function.inst(*inst).kind, InstKind::Alloca { .. }) {
                out.push(*inst);
            }
        }
    }
    out
}

/// Returns `true` when the slot's address is only ever used as the direct
/// pointer operand of loads and stores (and never stored itself).
pub fn is_promotable(function: &Function, alloca: InstId) -> bool {
    let addr = Value::Inst(alloca);
    for user in function.users_of(addr) {
        match &function.inst(user).kind {
            InstKind::Load { ptr } => {
                if *ptr != addr {
                    return false;
                }
            }
            InstKind::Store { value, ptr } => {
                // Storing the address itself makes it escape.
                if *value == addr || *ptr != addr {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

/// The element type stored in the slot.
fn slot_type(function: &Function, alloca: InstId) -> Type {
    match function.inst(alloca).kind {
        InstKind::Alloca { ty } => ty,
        _ => panic!("not an alloca"),
    }
}

/// Runs SSA construction for the given (promotable) slots and removes them.
/// Returns the number of phi-nodes inserted.
///
/// The slots' loads and stores are collected in one pass over the function.
/// The renaming walk records what each load's uses take and rewrites the
/// function once after the walk; the promoted accesses and slots are removed
/// together at the end.
pub fn promote_slots(function: &mut Function, slots: &[InstId]) -> usize {
    let domtree = DomTree::compute(function);
    let slot_index: HashMap<InstId, usize> =
        slots.iter().enumerate().map(|(i, s)| (*s, i)).collect();

    let users = function.users_of_all(slots);

    // 1. Phi placement at iterated dominance frontiers of the defining blocks.
    let mut phis_for_slot: Vec<HashMap<BlockId, InstId>> = vec![HashMap::new(); slots.len()];
    let mut inserted = 0usize;
    for (idx, &slot) in slots.iter().enumerate() {
        let mut def_blocks: HashSet<BlockId> = users[&slot]
            .iter()
            .filter(|&&user| matches!(function.inst(user).kind, InstKind::Store { .. }))
            .map(|&user| function.inst(user).block)
            .collect();
        // The entry block provides the implicit initial (undef) definition.
        def_blocks.insert(function.entry());
        let ty = slot_type(function, slot);
        for block in iterated_dominance_frontier(&domtree, &def_blocks) {
            let phi = function.append_inst(
                block,
                InstKind::Phi {
                    incomings: Vec::new(),
                },
                ty,
            );
            phis_for_slot[idx].insert(block, phi);
            inserted += 1;
        }
    }
    let phi_owner: HashMap<InstId, usize> = phis_for_slot
        .iter()
        .enumerate()
        .flat_map(|(idx, m)| m.values().map(move |p| (*p, idx)))
        .collect();

    // 2. Renaming walk over the dominator tree.
    let entry = function.entry();
    let preds = function.predecessors();
    let mut loaded = ValueSubst::default();
    let mut dead: Vec<InstId> = Vec::new();
    let mut stack: Vec<(BlockId, Vec<Value>)> = vec![(
        entry,
        slots
            .iter()
            .map(|s| Value::undef(slot_type(function, *s)))
            .collect(),
    )];
    let mut visited: HashSet<BlockId> = HashSet::new();
    while let Some((block, mut current)) = stack.pop() {
        if !visited.insert(block) {
            continue;
        }
        let data = function.block(block);
        // Phi results become the current value of their slot.
        for phi in &data.phis {
            if let Some(&idx) = phi_owner.get(phi) {
                current[idx] = Value::Inst(*phi);
            }
        }
        // Walk the body: loads take the current value, stores update the
        // current value; both go.
        for &inst in &data.insts {
            match function.inst(inst).kind {
                InstKind::Load {
                    ptr: Value::Inst(slot),
                } if slot_index.contains_key(&slot) => {
                    let value = loaded.resolve(current[slot_index[&slot]]);
                    if value != Value::Inst(inst) {
                        loaded.insert(inst, value);
                    }
                    dead.push(inst);
                }
                InstKind::Store {
                    value,
                    ptr: Value::Inst(slot),
                } if slot_index.contains_key(&slot) => {
                    current[slot_index[&slot]] = loaded.resolve(value);
                    dead.push(inst);
                }
                _ => {}
            }
        }
        // Fill in phi operands of the successors.
        for succ in function.successors(block) {
            for &phi in &function.block(succ).phis.clone() {
                if let Some(&idx) = phi_owner.get(&phi) {
                    let value = current[idx];
                    if let InstKind::Phi { incomings } = &mut function.inst_mut(phi).kind {
                        if !incomings.iter().any(|(_, b)| *b == block) {
                            incomings.push((value, block));
                        }
                    }
                }
            }
        }
        // Recurse into dominator-tree children.
        for &child in domtree.children(block) {
            stack.push((child, current.clone()));
        }
    }

    // 3. Every predecessor edge of a placed phi must have an incoming value;
    // unreachable-from-def paths get undef.
    for map in &phis_for_slot {
        for (&block, &phi) in map {
            let expected: Vec<BlockId> = preds.get(&block).cloned().unwrap_or_default();
            let phi_ty = function.inst(phi).ty;
            if let InstKind::Phi { incomings } = &mut function.inst_mut(phi).kind {
                for p in expected {
                    if !incomings.iter().any(|(_, b)| *b == p) {
                        incomings.push((Value::undef(phi_ty), p));
                    }
                }
            }
        }
    }

    // 4. Remove the now-dead slots. Accesses left in unreachable blocks (never
    // visited by the renaming walk) are cleaned up with undef.
    let walked: HashSet<InstId> = dead.iter().copied().collect();
    for &slot in slots {
        for &user in users[&slot].iter().filter(|u| !walked.contains(u)) {
            let data = function.inst(user);
            match data.kind {
                InstKind::Load { .. } => loaded.insert(user, Value::undef(data.ty)),
                InstKind::Store { .. } => {}
                _ => unreachable!("slot classified as promotable has a non-memory user"),
            }
            dead.push(user);
        }
        dead.push(slot);
    }
    loaded.apply(function);
    function.remove_insts(&dead);

    // 5. Prune trivial phis introduced by over-eager placement.
    crate::phi_dedup::simplify_trivial_phis(function);
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg2mem;
    use ssa_ir::verifier::assert_valid;
    use ssa_ir::{parse_function, print_function};

    const F2: &str = r#"
define i32 @f2(i32 %n) {
L1:
  %v1 = call i32 @start(i32 %n)
  br label %L2
L2:
  %v2 = phi i32 [ %v1, %L1 ], [ %v4, %L3 ]
  %v3 = icmp ne i32 %v2, 0
  br i1 %v3, label %L3, label %L4
L3:
  %v4 = call i32 @body(i32 %v2)
  br label %L2
L4:
  %v5 = call i32 @end(i32 %v2)
  ret i32 %v5
}
"#;

    #[test]
    fn promotes_simple_slot_to_value() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  %slot = alloca i32
  store i32 %x, ptr %slot
  %v = load i32, ptr %slot
  %r = add i32 %v, 1
  ret i32 %r
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = promote_function(&mut f);
        assert_eq!(stats.promoted, 1);
        assert_eq!(stats.phis_inserted, 0);
        assert_valid(&f);
        // No memory operations left.
        for b in f.block_ids() {
            for i in f.block(b).all_insts() {
                assert!(!matches!(
                    f.inst(i).kind,
                    InstKind::Alloca { .. } | InstKind::Load { .. } | InstKind::Store { .. }
                ));
            }
        }
    }

    #[test]
    fn demote_then_promote_roundtrips_to_ssa() {
        let mut f = parse_function(F2).unwrap();
        let original_size = f.num_insts();
        reg2mem::demote_function(&mut f);
        assert!(f.num_insts() > original_size);
        let stats = promote_function(&mut f);
        assert!(stats.promoted > 0);
        assert_valid(&f);
        // All loads/stores/allocas introduced by demotion are gone again.
        let mems = f
            .block_ids()
            .flat_map(|b| f.block(b).all_insts().collect::<Vec<_>>())
            .filter(|i| {
                matches!(
                    f.inst(*i).kind,
                    InstKind::Alloca { .. } | InstKind::Load { .. } | InstKind::Store { .. }
                )
            })
            .count();
        assert_eq!(mems, 0, "{}", print_function(&f));
        // Size is back in the neighbourhood of the original function.
        assert!(f.num_insts() <= original_size + 2, "{}", print_function(&f));
    }

    #[test]
    fn escaping_slot_is_not_promoted() {
        let text = r#"
define void @f(i32 %x) {
entry:
  %slot = alloca i32
  store i32 %x, ptr %slot
  call void @escape(ptr %slot)
  ret void
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = promote_function(&mut f);
        assert_eq!(stats.promoted, 0);
        assert_eq!(stats.not_promotable, 1);
        assert_valid(&f);
    }

    #[test]
    fn slot_with_selected_address_is_not_promoted() {
        // This is the exact situation from the paper's motivating example:
        // after FMSA merges two stores with different target slots, the store
        // address becomes a select, which blocks promotion of both slots.
        let text = r#"
define i32 @f(i1 %fid, i32 %x) {
entry:
  %a = alloca i32
  %b = alloca i32
  %addr = select i1 %fid, ptr %a, ptr %b
  store i32 %x, ptr %addr
  %v = load i32, ptr %a
  ret i32 %v
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = promote_function(&mut f);
        assert_eq!(stats.promoted, 0);
        assert_eq!(stats.not_promotable, 2);
    }

    #[test]
    fn loop_promotion_builds_phi() {
        let text = r#"
define i32 @sum(i32 %n) {
entry:
  %acc = alloca i32
  %i = alloca i32
  store i32 0, ptr %acc
  store i32 0, ptr %i
  br label %header
header:
  %iv = load i32, ptr %i
  %c = icmp slt i32 %iv, %n
  br i1 %c, label %body, label %exit
body:
  %a = load i32, ptr %acc
  %a2 = add i32 %a, %iv
  store i32 %a2, ptr %acc
  %i2 = add i32 %iv, 1
  store i32 %i2, ptr %i
  br label %header
exit:
  %r = load i32, ptr %acc
  ret i32 %r
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = promote_function(&mut f);
        assert_eq!(stats.promoted, 2);
        assert!(stats.phis_inserted >= 2);
        assert_valid(&f);
        let header = f.block_by_name("header").unwrap();
        assert!(!f.block(header).phis.is_empty());
    }

    #[test]
    fn promotion_is_idempotent() {
        let mut f = parse_function(F2).unwrap();
        reg2mem::demote_function(&mut f);
        promote_function(&mut f);
        let size_once = f.num_insts();
        let stats = promote_function(&mut f);
        assert_eq!(stats.promoted, 0);
        assert_eq!(f.num_insts(), size_once);
    }
}
