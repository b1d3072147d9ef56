//! Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy algorithm).
//!
//! Dominance information drives three parts of the reproduction: the verifier
//! (SSA dominance property), the standard SSA construction used by `mem2reg`
//! and by SalSSA's SSA-repair stage, and the phi-node placement of the merged
//! code generator.
//!
//! ## Cost
//!
//! [`DomTree::compute`] goes through the thread's memo of CFG analyses: a
//! tree is built only when the CFG differs from the one the thread's last
//! tree was built from, and is otherwise shared as an `Rc`, so passes that
//! only rewrite instructions, or ask twice, pay one walk over the blocks and
//! their successors instead of a build.

use crate::cfg_memo;
use crate::function::Function;
use crate::ids::{BlockId, EntityId, InstId};
use std::collections::HashSet;
use std::rc::Rc;

/// Marks an unreachable block in the position table.
const UNREACHABLE: u32 = u32::MAX;

/// The dominator tree of a function, including dominance frontiers.
///
/// Blocks are numbered by their position in the reverse post-order, and
/// every table is a vector over those positions: computing the tree costs a
/// handful of allocations whatever the size of the function, and a
/// dominance query walks up plain indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomTree {
    /// Reverse post-order of reachable blocks.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo`, indexed by block id
    /// ([`UNREACHABLE`] for blocks the entry does not reach).
    rpo_index: Vec<u32>,
    /// Immediate dominator of each reachable block, by position (the entry
    /// maps to itself).
    idom: Vec<u32>,
    /// Children in the dominator tree, in reverse post-order: those of the
    /// block at position `i` are `children[child_start[i]..child_start[i + 1]]`.
    child_start: Vec<u32>,
    children: Vec<BlockId>,
    /// Dominance frontiers, laid out like the children.
    frontier_start: Vec<u32>,
    frontier: Vec<BlockId>,
    entry: BlockId,
}

impl DomTree {
    /// The dominator tree of `function`. Each thread keeps its last build
    /// and hands it out again while the CFG is the one it was built from
    /// (see the module's Cost notes).
    ///
    /// # Panics
    ///
    /// Panics if the function has no entry block.
    pub fn compute(function: &Function) -> Rc<DomTree> {
        cfg_memo::DOM_TREE.with(|memo| memo.get_or_build(function, DomTree::build))
    }

    fn build(function: &Function) -> DomTree {
        let entry = function.entry();
        let rpo = function.reverse_post_order().to_vec();
        let n = rpo.len();
        let slots = function
            .block_ids()
            .map(|b| b.index() + 1)
            .max()
            .unwrap_or(0);
        let mut rpo_index = vec![UNREACHABLE; slots];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.index()] = i as u32;
        }
        let position = |b: BlockId| {
            rpo_index
                .get(b.index())
                .copied()
                .filter(|&i| i != UNREACHABLE)
        };

        // Predecessors that are themselves reachable, one entry per edge.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (i, &b) in rpo.iter().enumerate() {
            function.for_each_successor(b, |s| {
                if let Some(j) = position(s) {
                    edges.push((j, i as u32));
                }
            });
        }
        let (pred_start, preds) = group_by_first(n, &edges);
        let preds_of = |b: usize| &preds[pred_start[b] as usize..pred_start[b + 1] as usize];

        let mut idom = vec![UNREACHABLE; n];
        if n > 0 {
            idom[0] = 0;
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..n {
                let mut new_idom = UNREACHABLE;
                for &p in preds_of(b) {
                    if idom[p as usize] == UNREACHABLE {
                        continue;
                    }
                    new_idom = if new_idom == UNREACHABLE {
                        p
                    } else {
                        intersect(&idom, p, new_idom)
                    };
                }
                if new_idom != UNREACHABLE && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        let tree_edges: Vec<(u32, u32)> = (1..n)
            .filter(|&b| idom[b] != UNREACHABLE)
            .map(|b| (idom[b], b as u32))
            .collect();
        let (child_start, children) = group_by_first(n, &tree_edges);
        let children = children.iter().map(|&c| rpo[c as usize]).collect();

        // Dominance frontiers (Cytron et al. via the CHK formulation). Each
        // block's frontier grows in reverse post-order, so a block already
        // in it is its last entry.
        let mut frontier_edges: Vec<(u32, u32)> = Vec::new();
        let mut last_added = vec![UNREACHABLE; n];
        for b in 0..n {
            let ps = preds_of(b);
            if ps.len() < 2 {
                continue;
            }
            for &p in ps {
                let mut runner = p;
                while runner != idom[b] {
                    if last_added[runner as usize] != b as u32 {
                        last_added[runner as usize] = b as u32;
                        frontier_edges.push((runner, b as u32));
                    }
                    runner = idom[runner as usize];
                }
            }
        }
        let (frontier_start, frontier) = group_by_first(n, &frontier_edges);
        let frontier = frontier.iter().map(|&f| rpo[f as usize]).collect();

        DomTree {
            rpo,
            rpo_index,
            idom,
            child_start,
            children,
            frontier_start,
            frontier,
            entry,
        }
    }

    /// Position of `block` in the reverse post-order, if it is reachable.
    fn position(&self, block: BlockId) -> Option<usize> {
        self.rpo_index
            .get(block.index())
            .copied()
            .filter(|&i| i != UNREACHABLE)
            .map(|i| i as usize)
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// The reverse post-order used internally.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Returns `true` when `block` is reachable from the entry.
    pub fn is_reachable(&self, block: BlockId) -> bool {
        self.position(block).is_some()
    }

    /// Immediate dominator of a reachable block (`None` for the entry or for
    /// unreachable blocks).
    pub fn idom(&self, block: BlockId) -> Option<BlockId> {
        let b = self.position(block)?;
        let d = self.idom[b] as usize;
        (d != b).then(|| self.rpo[d])
    }

    /// Children of `block` in the dominator tree.
    pub fn children(&self, block: BlockId) -> &[BlockId] {
        match self.position(block) {
            Some(b) => {
                &self.children[self.child_start[b] as usize..self.child_start[b + 1] as usize]
            }
            None => &[],
        }
    }

    /// Dominance frontier of `block`.
    pub fn frontier(&self, block: BlockId) -> &[BlockId] {
        match self.position(block) {
            Some(b) => {
                &self.frontier[self.frontier_start[b] as usize..self.frontier_start[b + 1] as usize]
            }
            None => &[],
        }
    }

    /// Returns `true` when `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let (Some(a), Some(mut cur)) = (self.position(a), self.position(b)) else {
            return false;
        };
        // A dominator precedes the blocks it dominates in reverse post-order.
        while cur > a {
            cur = self.idom[cur] as usize;
        }
        cur == a
    }

    /// Returns `true` when `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Blocks in dominator-tree pre-order (useful for SSA renaming).
    pub fn preorder(&self) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(self.rpo.len());
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            out.push(b);
            for &c in self.children(b).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Returns `true` when the definition `def` dominates the use of its value
    /// at instruction `user`. Phi uses are considered to occur at the end of
    /// the corresponding predecessor block, which the caller models by passing
    /// `user_block` explicitly.
    pub fn def_dominates_use(
        &self,
        function: &Function,
        def: InstId,
        user: InstId,
        user_block: BlockId,
    ) -> bool {
        let def_block = function.inst(def).block;
        if def_block != user_block {
            return self.dominates(def_block, user_block);
        }
        // Same block: rely on intra-block ordering. Phis implicitly precede
        // every ordinary instruction. Whichever of the two comes first
        // decides; a definition that reaches the block end also reaches a
        // user that is not in this block (a phi use routed through a
        // predecessor).
        for inst in function.block(def_block).all_insts() {
            if inst == user {
                return false;
            }
            if inst == def {
                return true;
            }
        }
        false
    }
}

/// The nearest common dominator of two positions, given the dominators
/// found so far.
fn intersect(idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = idom[a as usize];
        }
        while b > a {
            b = idom[b as usize];
        }
    }
    a
}

/// Groups `(key, value)` pairs with keys below `n` by key, keeping their
/// order within each key: the values of key `k` are
/// `values[start[k]..start[k + 1]]`.
fn group_by_first(n: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for &(k, _) in pairs {
        start[k as usize + 1] += 1;
    }
    for k in 0..n {
        start[k + 1] += start[k];
    }
    let mut next = start.clone();
    let mut values = vec![0u32; pairs.len()];
    for &(k, v) in pairs {
        values[next[k as usize] as usize] = v;
        next[k as usize] += 1;
    }
    (start, values)
}

/// Computes the set of blocks where phi-nodes are required for a variable
/// defined in `def_blocks`, using iterated dominance frontiers.
pub fn iterated_dominance_frontier(
    domtree: &DomTree,
    def_blocks: &HashSet<BlockId>,
) -> HashSet<BlockId> {
    let mut result = HashSet::new();
    let mut worklist: Vec<BlockId> = def_blocks
        .iter()
        .copied()
        .filter(|b| domtree.is_reachable(*b))
        .collect();
    let mut enqueued: HashSet<BlockId> = worklist.iter().copied().collect();
    while let Some(b) = worklist.pop() {
        for &f in domtree.frontier(b) {
            if result.insert(f) && enqueued.insert(f) {
                worklist.push(f);
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instruction::ICmpPred;
    use crate::types::Type;
    use crate::value::Value;

    /// Builds the classic diamond CFG: entry -> {a, b} -> join.
    fn diamond() -> (Function, BlockId, BlockId, BlockId, BlockId) {
        let mut b = FunctionBuilder::new("d", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let t = b.create_block("a");
        let e = b.create_block("b");
        let j = b.create_block("join");
        b.switch_to(entry);
        let c = b.icmp(ICmpPred::Sgt, Value::Arg(0), Value::i32(0));
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.br(j);
        b.switch_to(e);
        b.br(j);
        b.switch_to(j);
        b.ret(Some(Value::Arg(0)));
        (b.finish(), entry, t, e, j)
    }

    #[test]
    fn diamond_idoms() {
        let (f, entry, a, b, join) = diamond();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(entry), None);
        assert_eq!(dt.idom(a), Some(entry));
        assert_eq!(dt.idom(b), Some(entry));
        assert_eq!(dt.idom(join), Some(entry));
        assert!(dt.dominates(entry, join));
        assert!(!dt.dominates(a, join));
        assert!(dt.strictly_dominates(entry, a));
        assert!(!dt.strictly_dominates(a, a));
        assert!(dt.dominates(a, a));
    }

    #[test]
    fn diamond_frontiers() {
        let (f, _entry, a, b, join) = diamond();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.frontier(a), &[join]);
        assert_eq!(dt.frontier(b), &[join]);
        assert!(dt.frontier(join).is_empty());
    }

    #[test]
    fn loop_frontier_includes_header() {
        // entry -> header -> body -> header (back edge); header -> exit
        let mut b = FunctionBuilder::new("loop", vec![Type::I32], Type::Void);
        let entry = b.create_block("entry");
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        b.switch_to(entry);
        b.br(header);
        b.switch_to(header);
        let c = b.icmp(ICmpPred::Slt, Value::Arg(0), Value::i32(10));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        b.br(header);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(body), Some(header));
        assert_eq!(dt.idom(exit), Some(header));
        // The back edge puts the header in the body's (and its own) frontier.
        assert!(dt.frontier(body).contains(&header));
        assert!(dt.frontier(header).contains(&header));
    }

    #[test]
    fn idf_of_two_branch_defs_is_join() {
        let (f, _entry, a, b, join) = diamond();
        let dt = DomTree::compute(&f);
        let defs: HashSet<BlockId> = [a, b].into_iter().collect();
        let idf = iterated_dominance_frontier(&dt, &defs);
        assert_eq!(idf, [join].into_iter().collect());
    }

    #[test]
    fn preorder_visits_all_reachable_blocks_once() {
        let (f, ..) = diamond();
        let dt = DomTree::compute(&f);
        let pre = dt.preorder();
        assert_eq!(pre.len(), 4);
        let unique: HashSet<_> = pre.iter().collect();
        assert_eq!(unique.len(), 4);
        assert_eq!(pre[0], f.entry());
    }

    #[test]
    fn unreachable_blocks_are_not_in_tree() {
        let (mut f, ..) = diamond();
        let dead = f.add_block("dead");
        f.append_inst(dead, crate::instruction::InstKind::Unreachable, Type::Void);
        let dt = DomTree::compute(&f);
        assert!(!dt.is_reachable(dead));
        assert_eq!(dt.idom(dead), None);
        assert!(!dt.dominates(f.entry(), dead));
    }

    #[test]
    fn intra_block_def_use_ordering() {
        let mut b = FunctionBuilder::new("f", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        b.switch_to(entry);
        let x = b.binary(crate::instruction::BinOp::Add, Value::Arg(0), Value::i32(1));
        let y = b.binary(crate::instruction::BinOp::Mul, x, Value::i32(2));
        b.ret(Some(y));
        let f = b.finish();
        let dt = DomTree::compute(&f);
        let xid = x.as_inst().unwrap();
        let yid = y.as_inst().unwrap();
        assert!(dt.def_dominates_use(&f, xid, yid, entry));
        assert!(!dt.def_dominates_use(&f, yid, xid, entry));
    }
}
