//! Functions, basic blocks and the mutation API used by all passes.

use crate::cfg_memo;
use crate::ids::{Arena, BlockId, InstId};
use crate::instruction::{InstData, InstKind};
use crate::types::Type;
use crate::value::Value;
use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A basic block: a label, leading phi-nodes, ordinary instructions and an
/// optional terminator.
///
/// Phi-nodes are kept in a dedicated list (instead of being the leading
/// instructions of `insts`) because SalSSA treats them as attached to the
/// block's label during alignment and code generation (Section 4.1.1).
#[derive(Clone, Debug, Default)]
pub struct BlockData {
    /// The label of the block.
    pub name: String,
    /// Phi-nodes of the block, in order.
    pub phis: Vec<InstId>,
    /// Ordinary (non-phi, non-terminator) instructions, in order.
    pub insts: Vec<InstId>,
    /// The terminator, if the block has been terminated.
    pub term: Option<InstId>,
}

impl BlockData {
    /// Iterates over all instruction ids of the block: phis, then ordinary
    /// instructions, then the terminator.
    pub fn all_insts(&self) -> impl Iterator<Item = InstId> + '_ {
        self.phis
            .iter()
            .copied()
            .chain(self.insts.iter().copied())
            .chain(self.term.iter().copied())
    }

    /// Number of instructions in the block (phis + body + terminator).
    pub fn len(&self) -> usize {
        self.phis.len() + self.insts.len() + usize::from(self.term.is_some())
    }

    /// Returns `true` when the block holds no instructions at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Linkage of a function symbol: whether it participates in cross-module
/// symbol resolution.
///
/// `Internal` models LLVM's `internal`/`static` linkage: the symbol is local
/// to its translation unit, so two modules may define different functions of
/// the same internal name without an ODR conflict. The cross-module merge
/// hazard rules and [`crate::linker::link_modules`] exploit this.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Linkage {
    /// Visible to other modules; same-named external definitions must be
    /// identical (the ODR rule).
    #[default]
    External,
    /// Local to the defining module; never clashes across modules.
    Internal,
}

impl fmt::Display for Linkage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Linkage::External => write!(f, "external"),
            Linkage::Internal => write!(f, "internal"),
        }
    }
}

/// The cached structural key of a function: the normalized print it had when
/// the key was computed, plus the symbol name it was computed under (a direct
/// `function.name = ...` field write cannot invalidate the cache, so lookups
/// validate the name instead — self-calls make the normalized print
/// name-sensitive).
#[derive(Clone, Debug)]
struct StructuralKey {
    name: String,
    text: Arc<str>,
}

/// Placeholder substituted for the function's own name (and self-calls) in
/// the normalized print that backs [`Function::structural_key`].
pub(crate) const STRUCTURAL_PLACEHOLDER: &str = "__odr_key__";

/// Structural-key cache lookups served from the cache, and full normalized
/// re-prints. Process-wide: reports take the delta around their run, so
/// concurrent runs in one process see each other's lookups.
static KEY_HITS: AtomicU64 = AtomicU64::new(0);
static KEY_MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide structural-key cache counters: `(hits,
/// misses)`, where a miss is a full normalized re-print of a function body.
pub fn structural_key_counters() -> (u64, u64) {
    (
        KEY_HITS.load(Ordering::Relaxed),
        KEY_MISSES.load(Ordering::Relaxed),
    )
}

/// A function in SSA (or, transiently, non-SSA) form.
#[derive(Clone, Debug)]
pub struct Function {
    /// The symbol name of the function.
    pub name: String,
    /// Parameter types.
    pub params: Vec<Type>,
    /// Optional parameter names used by the printer.
    pub param_names: Vec<String>,
    /// Return type.
    pub ret_ty: Type,
    /// Symbol linkage (external by default).
    pub linkage: Linkage,
    blocks: Arena<BlockId, BlockData>,
    insts: Arena<InstId, InstData>,
    block_order: Vec<BlockId>,
    entry: Option<BlockId>,
    /// Cached normalized print key; cleared by every mutating method.
    structural_cache: OnceLock<StructuralKey>,
    /// Opaque derived-analysis slot; cleared alongside the structural key.
    analysis_cache: AnalysisSlot,
}

/// Opaque, type-erased cache slot for per-function derived analyses.
///
/// Downstream crates (the alignment engine caches its interned
/// mergeability-class table here) store an `Arc<dyn Any>` they downcast on
/// retrieval. The slot follows the exact lifecycle of the structural key:
/// populated lazily through `&self`, shared by clones, and cleared by every
/// mutating method via [`Function::invalidate_structural_key`], so a stored
/// analysis can never outlive the body it was computed from.
#[derive(Clone, Default)]
struct AnalysisSlot(OnceLock<Arc<dyn Any + Send + Sync>>);

impl fmt::Debug for AnalysisSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.get().is_some() {
            "AnalysisSlot(set)"
        } else {
            "AnalysisSlot(empty)"
        })
    }
}

impl Function {
    /// Creates an empty function with the given signature.
    pub fn new(name: impl Into<String>, params: Vec<Type>, ret_ty: Type) -> Function {
        let params_len = params.len();
        Function {
            name: name.into(),
            params,
            param_names: (0..params_len).map(|i| format!("arg{i}")).collect(),
            ret_ty,
            linkage: Linkage::External,
            blocks: Arena::new(),
            insts: Arena::new(),
            block_order: Vec::new(),
            entry: None,
            structural_cache: OnceLock::new(),
            analysis_cache: AnalysisSlot::default(),
        }
    }

    /// Reads the opaque derived-analysis slot (see [`AnalysisSlot`]).
    ///
    /// Returns a clone of the stored `Arc`, or `None` when nothing has been
    /// cached since the last mutation. Callers downcast to their own table
    /// type and must treat a failed downcast like a miss (another analysis
    /// got the slot first).
    pub fn analysis_cache(&self) -> Option<Arc<dyn Any + Send + Sync>> {
        self.analysis_cache.0.get().cloned()
    }

    /// Stores a derived analysis in the opaque slot through `&self`.
    ///
    /// First write wins, mirroring `OnceLock::set`: if another analysis is
    /// already cached the call is a no-op and returns `false`. The slot is
    /// cleared by every mutating method, so stored values are only ever read
    /// against the body they were computed from.
    pub fn set_analysis_cache(&self, value: Arc<dyn Any + Send + Sync>) -> bool {
        self.analysis_cache.0.set(value).is_ok()
    }

    /// Clears the cached structural key. Every `&mut self` method that can
    /// change the printed form of the function calls this.
    ///
    /// Debug builds additionally catch the stale-rename footgun *at mutation
    /// time*: if the cached key was computed under a different symbol name,
    /// the function was renamed through a direct `name` field write (which
    /// cannot invalidate the cache) and has been carrying a stale key since.
    /// Release builds keep tolerating this — [`Function::structural_key`]
    /// detects the mismatch at lookup and recomputes — but the assert points
    /// straight at the offending write instead of at a much later lookup.
    fn invalidate_structural_key(&mut self) {
        #[cfg(debug_assertions)]
        if let Some(key) = self.structural_cache.get() {
            assert!(
                key.name == self.name,
                "stale structural key: function is named @{} but its cached key was \
                 computed for @{}; rename functions with Function::set_name, not by \
                 assigning the public `name` field",
                self.name,
                key.name
            );
        }
        self.structural_cache.take();
        self.analysis_cache.0.take();
    }

    /// Renames the function, invalidating the cached structural key (the key
    /// normalizes self-recursive calls by the current name, so a rename can
    /// change it). Prefer this over assigning the `name` field directly: a
    /// field write leaves a stale cache behind that every subsequent
    /// [`Function::structural_key`] lookup must detect and recompute around.
    pub fn set_name(&mut self, name: impl Into<String>) {
        // Invalidate under the *old* name: the debug-build stale-name assert
        // inside `invalidate_structural_key` compares the cached key against
        // the current name, so the order matters.
        self.invalidate_structural_key();
        self.name = name.into();
    }

    /// Sets the linkage, invalidating the cached structural key (linkage is
    /// part of the printed form).
    pub fn set_linkage(&mut self, linkage: Linkage) {
        self.linkage = linkage;
        self.invalidate_structural_key();
    }

    /// The name-independent structural key of the function: its printed form
    /// with the symbol name (and self-recursive calls) replaced by a fixed
    /// placeholder. Two functions are ODR-interchangeable exactly when their
    /// signatures and structural keys agree ([`crate::structurally_equal`]).
    ///
    /// The key is cached on first computation and invalidated by every
    /// mutating method, so repeated equality checks over an unchanged
    /// function — hazard scans, `link_modules`, ODR dedup — stop re-printing
    /// it. Clones share the cached key. A direct write to the public `name`
    /// field is detected at lookup (the key remembers the name it was
    /// computed under) and falls back to an uncached recompute.
    pub fn structural_key(&self) -> Arc<str> {
        if let Some(key) = self.structural_cache.get() {
            if key.name == self.name {
                KEY_HITS.fetch_add(1, Ordering::Relaxed);
                return key.text.clone();
            }
            // Stale: the name was reassigned through the public field after
            // the key was computed. Recompute without caching (the slot is
            // already taken); `set_name` avoids this path.
            KEY_MISSES.fetch_add(1, Ordering::Relaxed);
            return crate::printer::print_function_normalized(self, STRUCTURAL_PLACEHOLDER).into();
        }
        KEY_MISSES.fetch_add(1, Ordering::Relaxed);
        let text: Arc<str> =
            crate::printer::print_function_normalized(self, STRUCTURAL_PLACEHOLDER).into();
        let _ = self.structural_cache.set(StructuralKey {
            name: self.name.clone(),
            text: text.clone(),
        });
        text
    }

    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics if no block has been created yet.
    pub fn entry(&self) -> BlockId {
        self.entry.expect("function has no entry block")
    }

    /// Returns the entry block if one exists.
    pub fn try_entry(&self) -> Option<BlockId> {
        self.entry
    }

    /// Overrides the entry block.
    pub fn set_entry(&mut self, block: BlockId) {
        assert!(self.blocks.contains(block), "unknown block {block}");
        self.invalidate_structural_key();
        self.entry = Some(block);
    }

    /// Creates a new, empty basic block appended to the layout order. The
    /// first block created becomes the entry block.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        self.invalidate_structural_key();
        let id = self.blocks.alloc(BlockData {
            name: name.into(),
            ..BlockData::default()
        });
        self.block_order.push(id);
        if self.entry.is_none() {
            self.entry = Some(id);
        }
        id
    }

    /// Removes every block of `dead` and the instructions still listed in
    /// them, with one pass over the layout order. The caller is responsible
    /// for ensuring no remaining block still branches to them.
    pub fn remove_blocks(&mut self, dead: &HashSet<BlockId>) {
        if dead.is_empty() {
            return;
        }
        self.invalidate_structural_key();
        for &block in dead {
            if let Some(data) = self.blocks.remove(block) {
                for inst in data.all_insts() {
                    self.insts.remove(inst);
                }
            }
        }
        self.block_order.retain(|b| !dead.contains(b));
        if self.entry.is_some_and(|e| dead.contains(&e)) {
            self.entry = self.block_order.first().copied();
        }
    }

    /// Removes every instruction of `dead` from its block and from the
    /// arena: the bulk form of [`Function::remove_inst`], with one pass over
    /// each affected block's lists instead of one per instruction.
    pub fn remove_insts(&mut self, dead: &[InstId]) {
        if dead.is_empty() {
            return;
        }
        self.invalidate_structural_key();
        let dead: HashSet<InstId> = dead.iter().copied().collect();
        let mut blocks: Vec<BlockId> = dead
            .iter()
            .filter_map(|&inst| self.insts.get(inst).map(|data| data.block))
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        for block in blocks {
            if let Some(data) = self.blocks.get_mut(block) {
                data.phis.retain(|i| !dead.contains(i));
                data.insts.retain(|i| !dead.contains(i));
                if data.term.is_some_and(|t| dead.contains(&t)) {
                    data.term = None;
                }
            }
        }
        for inst in dead {
            self.insts.remove(inst);
        }
    }

    /// Returns a reference to a block.
    ///
    /// # Panics
    ///
    /// Panics if the block has been removed.
    pub fn block(&self, id: BlockId) -> &BlockData {
        self.blocks
            .get(id)
            .unwrap_or_else(|| panic!("dangling block {id}"))
    }

    /// Returns a mutable reference to a block (conservatively invalidates the
    /// cached structural key).
    pub fn block_mut(&mut self, id: BlockId) -> &mut BlockData {
        self.invalidate_structural_key();
        self.blocks
            .get_mut(id)
            .unwrap_or_else(|| panic!("dangling block {id}"))
    }

    /// Returns `true` when the block id refers to a live block.
    pub fn contains_block(&self, id: BlockId) -> bool {
        self.blocks.contains(id)
    }

    /// Block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.block_order.iter().copied()
    }

    /// Number of live blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Returns a reference to an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has been removed.
    pub fn inst(&self, id: InstId) -> &InstData {
        self.insts
            .get(id)
            .unwrap_or_else(|| panic!("dangling inst {id}"))
    }

    /// Returns a mutable reference to an instruction (conservatively
    /// invalidates the cached structural key).
    pub fn inst_mut(&mut self, id: InstId) -> &mut InstData {
        self.invalidate_structural_key();
        self.insts
            .get_mut(id)
            .unwrap_or_else(|| panic!("dangling inst {id}"))
    }

    /// Returns `true` when the instruction id refers to a live instruction.
    pub fn contains_inst(&self, id: InstId) -> bool {
        self.insts.contains(id)
    }

    /// All live instruction ids, in arena order (not program order).
    pub fn inst_ids(&self) -> impl Iterator<Item = InstId> + '_ {
        self.insts.ids()
    }

    /// Appends an instruction of the given kind to `block` and returns its id.
    ///
    /// Phi-nodes are appended to the block's phi list, terminators set the
    /// block's terminator (panicking if one is already present), and everything
    /// else is appended to the ordinary instruction list.
    pub fn append_inst(&mut self, block: BlockId, kind: InstKind, ty: Type) -> InstId {
        self.invalidate_structural_key();
        let is_phi = kind.is_phi();
        let is_term = kind.is_terminator();
        let id = self.insts.alloc(InstData {
            kind,
            ty,
            block,
            name: None,
        });
        let data = self.block_mut(block);
        if is_phi {
            data.phis.push(id);
        } else if is_term {
            assert!(
                data.term.is_none(),
                "block {block} already has a terminator"
            );
            data.term = Some(id);
        } else {
            data.insts.push(id);
        }
        id
    }

    /// Inserts an ordinary instruction at position `index` of `block`'s body.
    pub fn insert_inst(
        &mut self,
        block: BlockId,
        index: usize,
        kind: InstKind,
        ty: Type,
    ) -> InstId {
        assert!(!kind.is_phi() && !kind.is_terminator());
        self.invalidate_structural_key();
        let id = self.insts.alloc(InstData {
            kind,
            ty,
            block,
            name: None,
        });
        self.block_mut(block).insts.insert(index, id);
        id
    }

    /// Removes an instruction from its block and from the arena.
    pub fn remove_inst(&mut self, id: InstId) {
        self.invalidate_structural_key();
        let block = self.inst(id).block;
        if self.blocks.contains(block) {
            let data = self.block_mut(block);
            data.phis.retain(|i| *i != id);
            data.insts.retain(|i| *i != id);
            if data.term == Some(id) {
                data.term = None;
            }
        }
        self.insts.remove(id);
    }

    /// Detaches the terminator of `block` (if any) and removes it.
    pub fn clear_terminator(&mut self, block: BlockId) {
        if let Some(term) = self.block(block).term {
            self.remove_inst(term);
        }
    }

    /// Sets the printer name of an instruction's result and returns the id,
    /// for fluent use in builders and tests.
    pub fn set_inst_name(&mut self, id: InstId, name: impl Into<String>) -> InstId {
        self.inst_mut(id).name = Some(name.into());
        id
    }

    /// The values of the formal parameters.
    pub fn arg_values(&self) -> Vec<Value> {
        (0..self.params.len() as u32).map(Value::Arg).collect()
    }

    /// The type of a value in the context of this function.
    ///
    /// # Panics
    ///
    /// Panics if the value is an argument index out of range or a removed
    /// instruction.
    pub fn value_type(&self, value: Value) -> Type {
        match value {
            Value::Inst(id) => self.inst(id).ty,
            Value::Arg(i) => self.params[i as usize],
            Value::Const(c) => c.ty(),
        }
    }

    /// Successor blocks of `block`, in terminator order. Blocks without a
    /// terminator have no successors.
    pub fn successors(&self, block: BlockId) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_successor(block, |s| out.push(s));
        out
    }

    /// Calls `f` on each successor of `block`, in [`Function::successors`]
    /// order, without collecting them.
    pub fn for_each_successor(&self, block: BlockId, f: impl FnMut(BlockId)) {
        if let Some(term) = self.block(block).term {
            self.inst(term).kind.for_each_successor(f);
        }
    }

    /// The predecessor map of the whole CFG. A block appears once per
    /// incoming edge (duplicates possible when a terminator lists the same
    /// successor twice), in layout order. Each thread keeps its last build
    /// and hands it out again while the CFG is the one it was built from,
    /// like [`DomTree::compute`](crate::DomTree::compute).
    pub fn predecessors(&self) -> Rc<HashMap<BlockId, Vec<BlockId>>> {
        cfg_memo::PREDECESSORS.with(|memo| {
            memo.get_or_build(self, |function| {
                let mut preds: HashMap<BlockId, Vec<BlockId>> =
                    function.block_ids().map(|b| (b, Vec::new())).collect();
                for b in function.block_ids() {
                    function.for_each_successor(b, |s| preds.entry(s).or_default().push(b));
                }
                preds
            })
        })
    }

    /// Total number of instructions (phis + body + terminators) across all
    /// blocks. This is the "function size" metric used throughout the paper.
    pub fn num_insts(&self) -> usize {
        self.block_ids().map(|b| self.block(b).len()).sum()
    }

    /// Replaces every use of `from` with `to` in all instructions.
    /// Returns the number of operand slots rewritten.
    pub fn replace_all_uses(&mut self, from: Value, to: Value) -> usize {
        self.invalidate_structural_key();
        self.insts
            .values_mut()
            .map(|data| data.kind.replace_value(from, to))
            .sum()
    }

    /// Rewrites every value operand of every instruction through `map`, in
    /// one pass over the instruction arena. Passes that retire many values
    /// at once collect a substitution and apply it here once, instead of one
    /// [`Function::replace_all_uses`] scan per retired value.
    pub fn rewrite_values(&mut self, mut map: impl FnMut(Value) -> Value) {
        self.invalidate_structural_key();
        for data in self.insts.values_mut() {
            data.kind.for_each_operand_mut(|v| *v = map(*v));
        }
    }

    /// Returns the users (instructions that reference `value` as an operand).
    pub fn users_of(&self, value: Value) -> Vec<InstId> {
        let mut users = Vec::new();
        for (id, data) in self.insts.iter() {
            let mut found = false;
            data.kind.for_each_operand(|v| {
                if v == value {
                    found = true;
                }
            });
            if found {
                users.push(id);
            }
        }
        users
    }

    /// The users of each definition in `defs`, collected in one pass over
    /// the instruction arena: each list is what [`Function::users_of`] gives
    /// for that definition.
    pub fn users_of_all(&self, defs: &[InstId]) -> HashMap<InstId, Vec<InstId>> {
        let mut users: HashMap<InstId, Vec<InstId>> =
            defs.iter().map(|&def| (def, Vec::new())).collect();
        for (id, data) in self.insts.iter() {
            data.kind.for_each_operand(|v| {
                if let Some(list) = v.as_inst().and_then(|def| users.get_mut(&def)) {
                    if list.last() != Some(&id) {
                        list.push(id);
                    }
                }
            });
        }
        users
    }

    /// Rewrites every block reference (terminator successors and phi
    /// incoming blocks) through `map`, in one pass over the instruction
    /// arena.
    pub fn rewrite_block_refs(&mut self, mut map: impl FnMut(BlockId) -> BlockId) {
        self.invalidate_structural_key();
        for data in self.insts.values_mut() {
            data.kind.for_each_block_ref_mut(|b| *b = map(*b));
        }
    }

    /// Blocks in reverse post-order from the entry block. Unreachable blocks
    /// are not included. Each thread keeps its last build and hands it out
    /// again while the CFG is the one it was built from, like
    /// [`DomTree::compute`](crate::DomTree::compute).
    pub fn reverse_post_order(&self) -> Rc<Vec<BlockId>> {
        cfg_memo::REVERSE_POST_ORDER.with(|memo| memo.get_or_build(self, Function::build_rpo))
    }

    fn build_rpo(&self) -> Vec<BlockId> {
        let Some(entry) = self.entry else {
            return Vec::new();
        };
        let mut visited = HashSet::new();
        let mut post = Vec::new();
        // Iterative DFS with an explicit stack to survive deep CFGs.
        enum Frame {
            Enter(BlockId),
            Exit(BlockId),
        }
        let mut stack = vec![Frame::Enter(entry)];
        let mut succs = Vec::new();
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(b) => {
                    if !visited.insert(b) {
                        continue;
                    }
                    stack.push(Frame::Exit(b));
                    succs.clear();
                    self.for_each_successor(b, |s| succs.push(s));
                    for &s in succs.iter().rev() {
                        if !visited.contains(&s) {
                            stack.push(Frame::Enter(s));
                        }
                    }
                }
                Frame::Exit(b) => post.push(b),
            }
        }
        post.reverse();
        post
    }

    /// Blocks reachable from the entry.
    pub fn reachable_blocks(&self) -> HashSet<BlockId> {
        self.reverse_post_order().iter().copied().collect()
    }

    /// Looks up a block by label name.
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.block_ids().find(|b| self.block(*b).name == name)
    }

    /// Finds the instruction whose printer name is `name`.
    pub fn inst_by_name(&self, name: &str) -> Option<InstId> {
        self.insts
            .iter()
            .find(|(_, d)| d.name.as_deref() == Some(name))
            .map(|(id, _)| id)
    }

    /// The callee symbol of a call or invoke instruction, or `None` for any
    /// other instruction kind.
    pub fn call_target(&self, inst: InstId) -> Option<&str> {
        match &self.inst(inst).kind {
            InstKind::Call { callee, .. } | InstKind::Invoke { callee, .. } => Some(callee),
            _ => None,
        }
    }

    /// Iterates over every call/invoke site of the function as
    /// `(instruction, callee symbol)`, in arena order (not program order —
    /// static site *counts* are order-independent, which is all the
    /// call-graph layer needs).
    pub fn call_sites(&self) -> impl Iterator<Item = (InstId, &str)> + '_ {
        self.inst_ids()
            .filter_map(|inst| self.call_target(inst).map(|callee| (inst, callee)))
    }

    /// Static call-site counts per callee symbol: how many call/invoke
    /// instructions of this function target each symbol.
    pub fn callee_counts(&self) -> HashMap<String, u32> {
        let mut counts: HashMap<String, u32> = HashMap::new();
        for (_, callee) in self.call_sites() {
            *counts.entry(callee.to_string()).or_insert(0) += 1;
        }
        counts
    }

    /// Rewrites call/invoke targets: `rename` is consulted per site and a
    /// `Some(new)` replaces the callee symbol. Returns the number of sites
    /// rewritten. The structural key is only invalidated when something
    /// actually changed.
    pub fn rewrite_call_targets(
        &mut self,
        mut rename: impl FnMut(&str) -> Option<String>,
    ) -> usize {
        let planned: Vec<(InstId, String)> = self
            .call_sites()
            .filter_map(|(inst, callee)| rename(callee).map(|to| (inst, to)))
            .collect();
        for (inst, to) in &planned {
            match &mut self.inst_mut(*inst).kind {
                InstKind::Call { callee, .. } | InstKind::Invoke { callee, .. } => {
                    *callee = to.clone();
                }
                _ => unreachable!("call_sites only yields calls and invokes"),
            }
        }
        planned.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::BinOp;

    fn sample() -> Function {
        // define i32 @f(i32 %a, i32 %b) {
        // entry:
        //   %s = add i32 %a, %b
        //   br label %exit
        // exit:
        //   ret i32 %s
        // }
        let mut f = Function::new("f", vec![Type::I32, Type::I32], Type::I32);
        let entry = f.add_block("entry");
        let exit = f.add_block("exit");
        let s = f.append_inst(
            entry,
            InstKind::Binary {
                op: BinOp::Add,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            },
            Type::I32,
        );
        f.set_inst_name(s, "s");
        f.append_inst(entry, InstKind::Br { dest: exit }, Type::Void);
        f.append_inst(
            exit,
            InstKind::Ret {
                value: Some(Value::Inst(s)),
            },
            Type::Void,
        );
        f
    }

    #[test]
    fn block_and_inst_accounting() {
        let f = sample();
        assert_eq!(f.num_blocks(), 2);
        assert_eq!(f.num_insts(), 3);
        let entry = f.entry();
        assert_eq!(f.block(entry).name, "entry");
        assert_eq!(f.successors(entry), vec![f.block_by_name("exit").unwrap()]);
    }

    #[test]
    fn predecessors_map() {
        let f = sample();
        let preds = f.predecessors();
        let exit = f.block_by_name("exit").unwrap();
        assert_eq!(preds[&exit], vec![f.entry()]);
        assert!(preds[&f.entry()].is_empty());
    }

    #[test]
    fn replace_all_uses_rewrites_operands() {
        let mut f = sample();
        let n = f.replace_all_uses(Value::Arg(0), Value::i32(7));
        assert_eq!(n, 1);
        let add = f.inst_by_name("s").unwrap();
        assert_eq!(f.inst(add).kind.operands()[0], Value::i32(7));
    }

    #[test]
    fn remove_inst_detaches_from_block() {
        let mut f = sample();
        let add = f.inst_by_name("s").unwrap();
        f.remove_inst(add);
        assert_eq!(f.num_insts(), 2);
        assert!(!f.contains_inst(add));
        assert!(f.block(f.entry()).insts.is_empty());
    }

    #[test]
    fn rpo_starts_at_entry_and_skips_unreachable() {
        let mut f = sample();
        let dead = f.add_block("dead");
        f.append_inst(dead, InstKind::Unreachable, Type::Void);
        let rpo = f.reverse_post_order();
        assert_eq!(rpo[0], f.entry());
        assert_eq!(rpo.len(), 2);
        assert!(!rpo.contains(&dead));
    }

    #[test]
    fn value_types() {
        let f = sample();
        assert_eq!(f.value_type(Value::Arg(1)), Type::I32);
        assert_eq!(f.value_type(Value::bool(true)), Type::I1);
        let add = f.inst_by_name("s").unwrap();
        assert_eq!(f.value_type(Value::Inst(add)), Type::I32);
    }

    #[test]
    #[should_panic(expected = "already has a terminator")]
    fn double_terminator_panics() {
        let mut f = sample();
        let entry = f.entry();
        f.append_inst(entry, InstKind::Ret { value: None }, Type::Void);
    }

    #[test]
    fn users_of_finds_all_users() {
        let f = sample();
        let add = f.inst_by_name("s").unwrap();
        let users = f.users_of(Value::Inst(add));
        assert_eq!(users.len(), 1);
        assert!(f.inst(users[0]).kind.is_terminator());
    }

    #[test]
    fn remove_block_removes_instructions() {
        let mut f = sample();
        let exit = f.block_by_name("exit").unwrap();
        let count_before = f.num_insts();
        f.remove_blocks(&HashSet::from([exit]));
        assert_eq!(f.num_blocks(), 1);
        assert_eq!(f.num_insts(), count_before - 1);
    }

    /// The PR 3 footgun, caught at mutation time in debug builds: renaming a
    /// function by assigning the public `name` field leaves the cached
    /// structural key stale; the next mutating method asserts instead of the
    /// staleness surfacing at a much later `structural_key` lookup.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale structural key")]
    fn direct_name_write_followed_by_mutation_panics_in_debug() {
        let mut f = sample();
        let _ = f.structural_key(); // populate the cache
        f.name = "poked".to_string(); // the footgun: bypasses set_name
        f.set_entry(f.entry()); // any mutating method trips the assert
    }

    /// `set_name` stays safe: it invalidates under the old name, so the
    /// stale-name assert never fires and later mutations are clean.
    #[test]
    fn set_name_after_cached_key_is_clean() {
        let mut f = sample();
        let _ = f.structural_key();
        f.set_name("renamed");
        f.set_entry(f.entry()); // must not panic
        assert_eq!(f.name, "renamed");
        let _ = f.structural_key();
    }
}
