//! CFG simplification.
//!
//! SalSSA's code generator deliberately produces many tiny blocks chained by
//! unconditional branches (one block per matching instruction/label, Section
//! 4.1); this pass is the "Simplification" stage from Figure 1 that collapses
//! those chains again, folds constant branches and deletes unreachable code.
//!
//! ## Cost
//!
//! Every sub-pass of a [`simplify`] round is one walk over the function, and
//! removed phis and blocks are resolved through one value and one label
//! substitution applied once at the end, never by a whole-function rescan per
//! edit. Predecessor lists, the reverse post-order and the dominator tree
//! come from the thread's memo of CFG analyses ([`Function::predecessors`],
//! [`Function::reverse_post_order`], [`ssa_ir::DomTree::compute`]): each is
//! rebuilt only when the CFG differs from the one its last build was for,
//! and otherwise costs one walk over the blocks and their successors.
//! Sub-passes stop early when there is nothing to do: forwarder removal
//! before asking for anything when no block is a forwarder, and
//! unreachable-block removal when the reverse post-order holds every block.
//! A round therefore costs time linear in the number of instructions and
//! blocks, plus, for each removed forwarding block, the size of its
//! destination's phis and predecessor list. [`simplify`] repeats rounds
//! until one changes nothing; a cascade of simplifications rarely needs
//! more than three.

use crate::dce;
use crate::subst::ValueSubst;
use ssa_ir::{BlockId, Constant, Function, InstKind, Type, Value};
use std::collections::{HashMap, HashSet};

/// Aggregate statistics of one [`simplify`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Conditional branches folded to unconditional ones.
    pub branches_folded: usize,
    /// Blocks merged into their unique predecessor.
    pub blocks_merged: usize,
    /// Empty forwarding blocks removed.
    pub forwarders_removed: usize,
    /// Unreachable blocks removed.
    pub unreachable_removed: usize,
    /// Trivial phis removed. Not part of the total that decides whether
    /// [`simplify`] runs another round.
    pub trivial_phis_removed: usize,
}

impl SimplifyStats {
    fn total(&self) -> usize {
        self.branches_folded
            + self.blocks_merged
            + self.forwarders_removed
            + self.unreachable_removed
    }
}

/// Simplifies the CFG to a fixed point.
pub fn simplify(function: &mut Function) -> SimplifyStats {
    let mut stats = SimplifyStats::default();
    loop {
        let mut round = SimplifyStats::default();
        round.branches_folded += fold_constant_branches(function);
        round.unreachable_removed += dce::remove_unreachable_blocks(function);
        stats.trivial_phis_removed += crate::phi_dedup::simplify_trivial_phis(function);
        round.forwarders_removed += remove_forwarding_blocks(function);
        round.blocks_merged += merge_single_pred_blocks(function);
        stats.branches_folded += round.branches_folded;
        stats.blocks_merged += round.blocks_merged;
        stats.forwarders_removed += round.forwarders_removed;
        stats.unreachable_removed += round.unreachable_removed;
        if round.total() == 0 {
            return stats;
        }
    }
}

/// Folds `br i1 true/false` and conditional branches whose two targets are the
/// same block into unconditional branches. Returns the number folded.
pub fn fold_constant_branches(function: &mut Function) -> usize {
    let mut folded = 0;
    for block in function.block_ids().collect::<Vec<_>>() {
        let Some(term) = function.block(block).term else {
            continue;
        };
        let InstKind::CondBr {
            cond,
            if_true,
            if_false,
        } = function.inst(term).kind.clone()
        else {
            continue;
        };
        let target = if if_true == if_false {
            Some((if_true, None))
        } else if let Value::Const(Constant::Int { value, .. }) = cond {
            let (taken, skipped) = if value != 0 {
                (if_true, if_false)
            } else {
                (if_false, if_true)
            };
            Some((taken, Some(skipped)))
        } else {
            None
        };
        let Some((dest, skipped)) = target else {
            continue;
        };
        // If an edge disappears, remove the corresponding phi incomings.
        if let Some(skipped) = skipped {
            for phi in function.block(skipped).phis.clone() {
                if let InstKind::Phi { incomings } = &mut function.inst_mut(phi).kind {
                    incomings.retain(|(_, b)| *b != block);
                }
            }
        }
        function.remove_inst(term);
        function.append_inst(block, InstKind::Br { dest }, Type::Void);
        folded += 1;
    }
    folded
}

/// Removes blocks that contain nothing but an unconditional branch, rewiring
/// their predecessors straight to the destination and updating the
/// destination's phi-nodes. The forwarder is kept when rewiring would create a
/// conflicting phi entry (a predecessor that already reaches the destination
/// with a different value) and when it is the entry block.
///
/// A function without a forwarder returns before anything is built.
/// Otherwise the predecessor lists of [`Function::predecessors`] are kept up
/// to date as forwarders go, in their order (predecessors in layout order,
/// one entry per edge): that order decides the order in which rewired phi
/// incomings are appended. The lists that changed live in a side map.
pub fn remove_forwarding_blocks(function: &mut Function) -> usize {
    let entry = function.entry();
    let layout: Vec<BlockId> = function.block_ids().collect();
    if !layout
        .iter()
        .any(|&block| block != entry && forwarding_dest(function, block).is_some())
    {
        return 0;
    }
    let position: HashMap<BlockId, usize> =
        layout.iter().enumerate().map(|(i, b)| (*b, i)).collect();
    let preds = function.predecessors();
    let mut updated: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    // Each removed forwarder, with the block it forwarded to.
    let mut forwarded: HashMap<BlockId, BlockId> = HashMap::new();
    for &block in &layout {
        if block == entry {
            continue;
        }
        let Some(dest) = forwarding_dest(function, block) else {
            continue;
        };
        let fwd_preds = updated.get(&block).unwrap_or(&preds[&block]);
        // Check that rewiring does not create conflicting phi incomings in the
        // destination: for every phi and every predecessor of the forwarder,
        // the value flowing through the forwarder must be compatible with any
        // value already flowing from that predecessor directly.
        let dest_phis = function.block(dest).phis.clone();
        let mut ok = true;
        for &phi in &dest_phis {
            let InstKind::Phi { incomings } = &function.inst(phi).kind else {
                continue;
            };
            let via_fwd = incomings.iter().find(|(_, b)| *b == block).map(|(v, _)| *v);
            for &p in fwd_preds {
                if let (Some(direct), Some(via)) = (
                    incomings.iter().find(|(_, b)| *b == p).map(|(v, _)| *v),
                    via_fwd,
                ) {
                    if direct != via {
                        ok = false;
                    }
                }
            }
        }
        if !ok {
            continue;
        }
        let fwd_preds = updated
            .remove(&block)
            .unwrap_or_else(|| preds[&block].clone());
        // Rewire destination phis: the value that flowed through the forwarder
        // now flows directly from each of the forwarder's predecessors.
        for &phi in &dest_phis {
            let InstKind::Phi { incomings } = &mut function.inst_mut(phi).kind else {
                continue;
            };
            let via_fwd = incomings.iter().find(|(_, b)| *b == block).map(|(v, _)| *v);
            incomings.retain(|(_, b)| *b != block);
            if let Some(value) = via_fwd {
                for &p in &fwd_preds {
                    if !incomings.iter().any(|(_, b)| *b == p) {
                        incomings.push((value, p));
                    }
                }
            }
        }
        // Retarget the predecessors' terminators, and merge the forwarder's
        // predecessors into the destination's list in layout order.
        for &p in &fwd_preds {
            let p_term = function
                .block(p)
                .term
                .expect("a predecessor ends in a terminator");
            function.inst_mut(p_term).kind.for_each_block_ref_mut(|b| {
                if *b == block {
                    *b = dest;
                }
            });
        }
        let mut direct = updated
            .remove(&dest)
            .unwrap_or_else(|| preds[&dest].clone());
        direct.retain(|b| *b != block);
        updated.insert(dest, merge_by_position(direct, fwd_preds, &position));
        forwarded.insert(block, dest);
    }
    if forwarded.is_empty() {
        return 0;
    }
    function.remove_blocks(&forwarded.keys().copied().collect());
    // A reference to a forwarder that did not come from one of its
    // predecessors' terminators or its destination's phis (a phi listing a
    // block that is not its predecessor) follows the forwarder too.
    let target: HashMap<BlockId, BlockId> = forwarded
        .keys()
        .map(|&b| (b, resolve(&forwarded, b)))
        .collect();
    function.rewrite_block_refs(|b| target.get(&b).copied().unwrap_or(b));
    forwarded.len()
}

/// The destination of `block` when it holds nothing but a branch to another
/// block.
fn forwarding_dest(function: &Function, block: BlockId) -> Option<BlockId> {
    let data = function.block(block);
    if !data.phis.is_empty() || !data.insts.is_empty() {
        return None;
    }
    match function.inst(data.term?).kind {
        InstKind::Br { dest } if dest != block => Some(dest),
        _ => None,
    }
}

/// Merges two predecessor lists that are each in layout order into one.
fn merge_by_position(
    a: Vec<BlockId>,
    b: Vec<BlockId>,
    position: &HashMap<BlockId, usize>,
) -> Vec<BlockId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        if position[x] <= position[y] {
            out.extend(a.next());
        } else {
            out.extend(b.next());
        }
    }
    out.extend(a);
    out.extend(b);
    out
}

/// Merges a block into its unique predecessor when that predecessor has the
/// block as its unique successor. Returns the number of merges performed.
///
/// A merge never changes whether another block can merge, so one pass in
/// layout order finds every merge; each block is absorbed into the head of
/// the chain its predecessor belongs to by then. The absorbed phis are
/// replaced by their first incoming value and the absorbed labels by their
/// head, through one substitution each, applied once at the end; each head's
/// body is assembled once.
pub fn merge_single_pred_blocks(function: &mut Function) -> usize {
    let entry = function.entry();
    let preds = function.predecessors();
    let candidates: Vec<(BlockId, BlockId)> = function
        .block_ids()
        .filter(|&block| block != entry)
        .filter_map(|block| {
            let &[pred] = preds[&block].as_slice() else {
                return None;
            };
            let term = function.block(pred).term?;
            // The predecessor must end in a plain branch (not an invoke).
            let single = matches!(function.inst(term).kind, InstKind::Br { dest } if dest == block);
            (single && pred != block).then_some((block, pred))
        })
        .collect();
    if candidates.is_empty() {
        return 0;
    }

    // Absorbed block -> the block it was absorbed into.
    let mut head_of: HashMap<BlockId, BlockId> = HashMap::new();
    // Head -> the blocks absorbed into it, in absorption order.
    let mut absorbed: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
    let mut phi_value = ValueSubst::default();
    for (block, pred) in candidates {
        let head = resolve(&head_of, pred);
        if head == block {
            continue; // the chain closed into a loop: the block branches to itself
        }
        // Phis in `block` have a single incoming value; replace them by it.
        for &phi in &function.block(block).phis {
            let data = function.inst(phi);
            let InstKind::Phi { incomings } = &data.kind else {
                continue;
            };
            let first = incomings
                .first()
                .map(|(v, _)| *v)
                .unwrap_or(Value::undef(data.ty));
            let value = phi_value.resolve(first);
            if value != Value::Inst(phi) {
                phi_value.insert(phi, value);
            }
        }
        head_of.insert(block, head);
        absorbed.entry(head).or_default().push(block);
    }

    // Each head's body: its own, then what it absorbed, depth first (a
    // block carries along what it had absorbed itself). The last block's
    // terminator ends the head; every other block's is the branch to the
    // next one and goes.
    let mut dead: HashSet<BlockId> = HashSet::new();
    for (&head, children) in &absorbed {
        if head_of.contains_key(&head) {
            continue; // absorbed itself: assembled as part of its own head
        }
        let mut chain = Vec::new();
        let mut stack: Vec<BlockId> = children.iter().rev().copied().collect();
        while let Some(b) = stack.pop() {
            chain.push(b);
            if let Some(grandchildren) = absorbed.get(&b) {
                stack.extend(grandchildren.iter().rev());
            }
        }
        let mut body = std::mem::take(&mut function.block_mut(head).insts);
        if let Some(branch) = function.block_mut(head).term.take() {
            function.remove_inst(branch);
        }
        let own = body.len();
        for &b in &chain {
            body.append(&mut function.block_mut(b).insts);
            dead.insert(b);
        }
        let last = *chain.last().expect("a head absorbed at least one block");
        let term = function.block_mut(last).term.take();
        for &inst in body[own..].iter().chain(&term) {
            function.inst_mut(inst).block = head;
        }
        let data = function.block_mut(head);
        data.insts = body;
        data.term = term;
    }
    function.remove_blocks(&dead);

    let head_of: HashMap<BlockId, BlockId> =
        head_of.keys().map(|&b| (b, resolve(&head_of, b))).collect();
    function.rewrite_block_refs(|b| head_of.get(&b).copied().unwrap_or(b));
    phi_value.apply(function);
    head_of.len()
}

/// Follows `map` from `block` to a block it does not map.
fn resolve(map: &HashMap<BlockId, BlockId>, mut block: BlockId) -> BlockId {
    while let Some(&next) = map.get(&block) {
        block = next;
    }
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::verifier::assert_valid;
    use ssa_ir::{parse_function, print_function};

    #[test]
    fn folds_constant_condition_and_removes_dead_branch() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  br i1 true, label %a, label %b
a:
  %va = add i32 %x, 1
  br label %join
b:
  %vb = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [ %va, %a ], [ %vb, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert!(stats.branches_folded >= 1);
        assert!(stats.unreachable_removed >= 1);
        assert_valid(&f);
        // Everything collapses into a single block.
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    fn merges_straight_line_chain() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  br label %b1
b1:
  %b = add i32 %a, 2
  br label %b2
b2:
  %c = add i32 %b, 3
  ret i32 %c
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert_eq!(stats.blocks_merged, 2);
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_insts(), 4);
        assert_valid(&f);
    }

    #[test]
    fn removes_empty_forwarding_block() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %fwd, label %direct
fwd:
  br label %target
direct:
  br label %target
target:
  ret i32 %x
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert!(stats.forwarders_removed >= 1);
        assert_valid(&f);
        assert!(f.block_by_name("fwd").is_none());
    }

    #[test]
    fn same_target_condbr_becomes_br() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %next, label %next
next:
  ret i32 %x
}
"#;
        let mut f = parse_function(text).unwrap();
        let stats = simplify(&mut f);
        assert_eq!(stats.branches_folded, 1);
        assert_valid(&f);
        assert_eq!(f.num_blocks(), 1);
    }

    #[test]
    fn preserves_meaningful_diamonds() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  %va = add i32 %x, 1
  br label %join
b:
  %vb = add i32 %x, 2
  br label %join
join:
  %p = phi i32 [ %va, %a ], [ %vb, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        simplify(&mut f);
        assert_valid(&f);
        assert_eq!(f.num_blocks(), 4);
        assert_eq!(f.num_insts(), 7);
    }

    /// Parses `text`, applies `pass` and returns the printed result.
    fn printed_after(text: &str, pass: impl FnOnce(&mut Function)) -> String {
        let mut f = parse_function(text).unwrap();
        pass(&mut f);
        print_function(&f)
    }

    /// A chain laid out successor-before-predecessor whose blocks carry
    /// single-incoming phis that feed each other (one of them is used ahead
    /// of its definition, as in unrepaired merged code).
    const REVERSED_CHAIN: &str = r#"
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  br label %b1
b3:
  %r = phi i32 [ %q, %b2 ]
  %s = add i32 %r, %p
  ret i32 %s
b2:
  %q = phi i32 [ %p, %b1 ]
  %t = mul i32 %q, %r
  br label %b3
b1:
  %p = phi i32 [ %a, %entry ]
  br label %b2
}
"#;

    #[test]
    fn reversed_chain_with_feeding_phis_collapses_into_its_head() {
        let merged = printed_after(REVERSED_CHAIN, |f| {
            assert_eq!(merge_single_pred_blocks(f), 3);
        });
        assert_eq!(
            merged,
            "\
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %t = mul i32 %a, %a
  %s = add i32 %a, %a
  ret i32 %s
}
"
        );
        let simplified = printed_after(REVERSED_CHAIN, |f| {
            simplify(f);
        });
        assert_eq!(
            simplified,
            "\
define i32 @f(i32 %x) {
entry:
  %a = add i32 %x, 1
  %t = mul i32 %a, %a
  %s = add i32 %a, %a
  ret i32 %s
}
"
        );
    }

    /// `%mid`'s conditional branch targets both the forwarder and the
    /// forwarder's destination, so removing the forwarder leaves `%mid` in
    /// `%join`'s predecessor list twice; the rewired phi's incoming order
    /// follows the forwarder's predecessor order.
    const FORWARDER_BESIDE_ITS_DESTINATION: &str = r#"
define i32 @f(i1 %c, i1 %d, i32 %x, i32 %y) {
entry:
  br i1 %c, label %mid, label %side
side:
  br i1 %d, label %other, label %join
other:
  %z = add i32 %y, 1
  br label %fwd
mid:
  br i1 %d, label %fwd, label %join
fwd:
  br label %join
join:
  %p = phi i32 [ %y, %side ], [ %x, %fwd ], [ %x, %mid ]
  ret i32 %p
}
"#;

    #[test]
    fn forwarder_whose_predecessor_also_targets_its_destination() {
        let removed = printed_after(FORWARDER_BESIDE_ITS_DESTINATION, |f| {
            assert_eq!(remove_forwarding_blocks(f), 1);
        });
        assert_eq!(
            removed,
            "\
define i32 @f(i1 %c, i1 %d, i32 %x, i32 %y) {
entry:
  br i1 %c, label %mid, label %side

side:
  br i1 %d, label %other, label %join

other:
  %z = add i32 %y, 1
  br label %join

mid:
  br i1 %d, label %join, label %join

join:
  %p = phi i32 [ %y, %side ], [ %x, %mid ], [ %x, %other ]
  ret i32 %p
}
"
        );
        let simplified = printed_after(FORWARDER_BESIDE_ITS_DESTINATION, |f| {
            simplify(f);
        });
        assert_eq!(
            simplified,
            "\
define i32 @f(i1 %c, i1 %d, i32 %x, i32 %y) {
entry:
  br i1 %c, label %join, label %side

side:
  br i1 %d, label %other, label %join

other:
  %z = add i32 %y, 1
  br label %join

join:
  %p = phi i32 [ %y, %side ], [ %x, %other ], [ %x, %entry ]
  ret i32 %p
}
"
        );
    }

    /// Two forwarders in a row, in both layout orders: removing the first
    /// one changes the second one's predecessors, whose order then decides
    /// the order of `%join`'s rewired phi incomings.
    const FORWARDERS_IN_A_ROW: &str = r#"
define i32 @f(i1 %c, i1 %d, i32 %x, i32 %y) {
entry:
  br i1 %c, label %f1, label %b
b:
  %v = add i32 %y, 1
  br i1 %d, label %f2, label %c2
c2:
  %w = add i32 %v, 2
  br label %join
f1:
  br label %f2
f2:
  br label %join
join:
  %p = phi i32 [ %x, %f2 ], [ %w, %c2 ]
  ret i32 %p
}
"#;

    #[test]
    fn two_forwarders_in_a_row() {
        let forward = printed_after(FORWARDERS_IN_A_ROW, |f| {
            assert_eq!(remove_forwarding_blocks(f), 2);
        });
        assert_eq!(
            forward,
            "\
define i32 @f(i1 %c, i1 %d, i32 %x, i32 %y) {
entry:
  br i1 %c, label %join, label %b

b:
  %v = add i32 %y, 1
  br i1 %d, label %join, label %c2

c2:
  %w = add i32 %v, 2
  br label %join

join:
  %p = phi i32 [ %w, %c2 ], [ %x, %entry ], [ %x, %b ]
  ret i32 %p
}
"
        );
        let reversed_text = FORWARDERS_IN_A_ROW.replace(
            "f1:\n  br label %f2\nf2:\n  br label %join\n",
            "f2:\n  br label %join\nf1:\n  br label %f2\n",
        );
        assert_ne!(reversed_text, FORWARDERS_IN_A_ROW);
        let reversed = printed_after(&reversed_text, |f| {
            assert_eq!(remove_forwarding_blocks(f), 2);
        });
        assert_eq!(
            reversed,
            "\
define i32 @f(i1 %c, i1 %d, i32 %x, i32 %y) {
entry:
  br i1 %c, label %join, label %b

b:
  %v = add i32 %y, 1
  br i1 %d, label %join, label %c2

c2:
  %w = add i32 %v, 2
  br label %join

join:
  %p = phi i32 [ %w, %c2 ], [ %x, %b ], [ %x, %entry ]
  ret i32 %p
}
"
        );
        let simplified = printed_after(FORWARDERS_IN_A_ROW, |f| {
            simplify(f);
        });
        assert_eq!(
            simplified,
            "\
define i32 @f(i1 %c, i1 %d, i32 %x, i32 %y) {
entry:
  br i1 %c, label %join, label %b

b:
  %v = add i32 %y, 1
  br i1 %d, label %join, label %c2

c2:
  %w = add i32 %v, 2
  br label %join

join:
  %p = phi i32 [ %w, %c2 ], [ %x, %entry ], [ %x, %b ]
  ret i32 %p
}
"
        );
    }

    #[test]
    fn simplify_is_idempotent() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %fwd, label %b
fwd:
  br label %join
b:
  br label %join
join:
  ret i32 %x
}
"#;
        let mut f = parse_function(text).unwrap();
        simplify(&mut f);
        let size = f.num_insts();
        let blocks = f.num_blocks();
        let stats = simplify(&mut f);
        assert_eq!(stats.total(), 0);
        assert_eq!(f.num_insts(), size);
        assert_eq!(f.num_blocks(), blocks);
    }
}
