//! A per-thread memo of the CFG analyses: predecessor lists, reverse
//! post-order and the dominator tree.
//!
//! The merge pipeline asks for these analyses many times per merged
//! function, and most requests find the CFG as the previous one left it:
//! passes rewrite instructions far more often than edges. Each analysis is a
//! pure function of the CFG's *snapshot* — the entry block, the block ids in
//! layout order and each block's successors in terminator order — so every
//! thread keeps, for each analysis, the snapshot and result of its last
//! build. A request walks the function once and compares it with the stored
//! snapshot without allocating: on a hit it hands out the stored result, on
//! a miss it rewrites the snapshot in place, builds the analysis and stores
//! the result by move.
//!
//! A hit returns exactly what rebuilding would, so no pass has to tell the
//! memo that it changed the CFG, and the memo keeps no counts.

use crate::dominators::DomTree;
use crate::function::Function;
use crate::ids::BlockId;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

thread_local! {
    pub(crate) static PREDECESSORS: Memo<HashMap<BlockId, Vec<BlockId>>> = const { Memo::new() };
    pub(crate) static REVERSE_POST_ORDER: Memo<Vec<BlockId>> = const { Memo::new() };
    pub(crate) static DOM_TREE: Memo<DomTree> = const { Memo::new() };
}

/// The last build of one analysis on this thread.
pub(crate) struct Memo<T>(RefCell<Entry<T>>);

struct Entry<T> {
    /// The snapshot of the CFG the value was built from (see [`record`]).
    snapshot: Vec<u32>,
    /// `None` until a build for `snapshot` has finished.
    value: Option<Rc<T>>,
}

impl<T> Memo<T> {
    const fn new() -> Self {
        Memo(RefCell::new(Entry {
            snapshot: Vec::new(),
            value: None,
        }))
    }

    /// The analysis of `function`'s CFG: the stored one when the snapshot
    /// matches, otherwise `build(function)`, which is then stored.
    pub(crate) fn get_or_build(
        &self,
        function: &Function,
        build: impl FnOnce(&Function) -> T,
    ) -> Rc<T> {
        {
            let mut entry = self.0.borrow_mut();
            // Taken out first, so that a walk or a build that panics leaves
            // no value behind.
            let value = entry.value.take();
            if record(&mut entry.snapshot, function) {
                if let Some(value) = value {
                    entry.value = Some(Rc::clone(&value));
                    return value;
                }
            }
        }
        // The borrow ends before building: the dominator tree asks for the
        // reverse post-order.
        let value = Rc::new(build(function));
        self.0.borrow_mut().value = Some(Rc::clone(&value));
        value
    }
}

/// Compares `snapshot` with the CFG of `function` in one walk, rewriting it
/// from the first difference on. Returns whether it already matched.
///
/// The snapshot is the entry block (`u32::MAX` when there is none, which
/// only a function without blocks lacks), then for each block in layout
/// order its id, its successors and their count. Read from the end, the
/// counts delimit the blocks, so two CFGs have equal snapshots only when
/// they are the same CFG.
fn record(snapshot: &mut Vec<u32>, function: &Function) -> bool {
    let mut writer = Writer {
        snapshot,
        len: 0,
        same: true,
    };
    writer.push(function.try_entry().map_or(u32::MAX, BlockId::as_u32));
    for block in function.block_ids() {
        writer.push(block.as_u32());
        let mut successors = 0;
        function.for_each_successor(block, |s| {
            writer.push(s.as_u32());
            successors += 1;
        });
        writer.push(successors);
    }
    let same = writer.same && writer.len == writer.snapshot.len();
    writer.snapshot.truncate(writer.len);
    same
}

/// Overwrites a snapshot word by word, noting whether any word changed.
struct Writer<'a> {
    snapshot: &'a mut Vec<u32>,
    len: usize,
    same: bool,
}

impl Writer<'_> {
    fn push(&mut self, word: u32) {
        if self.same {
            if self.snapshot.get(self.len) == Some(&word) {
                self.len += 1;
                return;
            }
            self.same = false;
            self.snapshot.truncate(self.len);
        }
        self.snapshot.push(word);
        self.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::FunctionBuilder;
    use crate::dominators::DomTree;
    use crate::instruction::{ICmpPred, InstKind};
    use crate::types::Type;
    use crate::value::Value;
    use crate::Function;

    /// The three analyses of `function`, built on a thread whose memo is
    /// empty.
    fn fresh(
        function: &Function,
    ) -> (
        std::collections::HashMap<crate::BlockId, Vec<crate::BlockId>>,
        Vec<crate::BlockId>,
        DomTree,
    ) {
        std::thread::scope(|s| {
            s.spawn(|| {
                (
                    (*function.predecessors()).clone(),
                    (*function.reverse_post_order()).clone(),
                    (*DomTree::compute(function)).clone(),
                )
            })
            .join()
            .expect("the fresh build does not panic")
        })
    }

    #[test]
    fn swapping_branch_targets_is_a_different_cfg() {
        // entry -> {a, b} -> join: the same blocks and the same edges either
        // way round, but the reverse post-order visits the first target last.
        let mut b = FunctionBuilder::new("swap", vec![Type::I32], Type::I32);
        let entry = b.create_block("entry");
        let (a, other) = (b.create_block("a"), b.create_block("b"));
        let join = b.create_block("join");
        b.switch_to(entry);
        let c = b.icmp(ICmpPred::Sgt, Value::Arg(0), Value::i32(0));
        b.cond_br(c, a, other);
        for arm in [a, other] {
            b.switch_to(arm);
            b.br(join);
        }
        b.switch_to(join);
        b.ret(Some(Value::Arg(0)));
        let mut f = b.finish();

        let before = f.reverse_post_order();
        assert_eq!(*before, [entry, other, a, join]);
        let (preds, rpo, domtree) = fresh(&f);
        assert_eq!(*f.predecessors(), preds);
        assert_eq!(*before, rpo);
        assert_eq!(*DomTree::compute(&f), domtree);

        let term = f.block(entry).term.expect("the entry branches");
        if let InstKind::CondBr {
            if_true, if_false, ..
        } = &mut f.inst_mut(term).kind
        {
            std::mem::swap(if_true, if_false);
        }
        let after = f.reverse_post_order();
        assert_eq!(*after, [entry, a, other, join]);
        let (preds, rpo, domtree) = fresh(&f);
        assert_eq!(*f.predecessors(), preds);
        assert_eq!(*after, rpo);
        assert_eq!(*DomTree::compute(&f), domtree);
    }
}
