//! SalSSA's CFG-driven code generator (Sections 4.1 and 4.2 of the paper).
//!
//! Instead of emitting code directly from the aligned sequence (as FMSA does),
//! the generator walks the control-flow graphs of the two input functions and
//! builds the merged function top-down:
//!
//! 1. **CFG generation** — every aligned label or instruction becomes its own
//!    small basic block; blocks originating from the same input block are
//!    chained with unconditional branches, or with conditional branches on the
//!    function identifier `%fid` when the two functions continue differently.
//!    Phi-nodes are treated as attached to their label and copied (not merged).
//! 2. **Operand assignment** — label operands are resolved through the block
//!    mapping (with label-selection blocks or the xor-branch trick when the
//!    two functions disagree), value operands through the value mapping (with
//!    `select %fid` and operand reordering for commutative instructions), and
//!    invokes get fresh landing blocks.
//!
//! The generated function may still violate the SSA dominance property; that
//! is repaired afterwards by [`crate::ssa_repair`].

use crate::options::MergeOptions;
use fm_align::{AlignedPair, Alignment, SeqEntry};
use ssa_ir::{BinOp, BlockId, Function, InstId, InstKind, Type, Value};
use std::collections::HashMap;

/// Which input function an entity originated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The first input function (selected by `%fid = false`).
    F1,
    /// The second input function (selected by `%fid = true`).
    F2,
}

/// The value, label and provenance mappings produced by code generation.
/// Operand assignment and SSA repair both consult these tables.
#[derive(Debug, Default)]
pub struct CodegenMaps {
    /// Original instruction of F1 -> merged value.
    pub value_f1: HashMap<InstId, Value>,
    /// Original instruction of F2 -> merged value.
    pub value_f2: HashMap<InstId, Value>,
    /// Original label of F1 -> merged block holding that label.
    pub label_f1: HashMap<BlockId, BlockId>,
    /// Original label of F2 -> merged block holding that label.
    pub label_f2: HashMap<BlockId, BlockId>,
    /// Merged block -> originating blocks in (F1, F2). This is the paper's
    /// *block mapping*, needed to assign phi-node incoming values.
    pub block_origin: HashMap<BlockId, (Option<BlockId>, Option<BlockId>)>,
    /// Provenance of each merged instruction: the original instructions it
    /// stands for in F1 and/or F2.
    pub provenance: HashMap<InstId, (Option<InstId>, Option<InstId>)>,
    /// Merged phi-node -> (side it was copied from, original phi).
    pub phi_origin: HashMap<InstId, (Side, InstId)>,
    /// Original instruction of F1 -> merged instruction (covers void-typed
    /// instructions and terminators, which have no entry in `value_f1`).
    pub inst_f1: HashMap<InstId, InstId>,
    /// Original instruction of F2 -> merged instruction.
    pub inst_f2: HashMap<InstId, InstId>,
    /// F1 parameter index -> merged parameter index.
    pub param_f1: Vec<u32>,
    /// F2 parameter index -> merged parameter index.
    pub param_f2: Vec<u32>,
    /// Number of `select` instructions inserted for mismatching operands.
    pub selects_inserted: usize,
    /// Number of label-selection blocks inserted.
    pub label_selections: usize,
    /// Number of xor-branch optimizations applied.
    pub xor_branches: usize,
}

impl CodegenMaps {
    /// Maps a value of the given side into the merged function.
    pub fn map_value(&self, side: Side, value: Value) -> Value {
        match value {
            Value::Inst(id) => {
                let table = match side {
                    Side::F1 => &self.value_f1,
                    Side::F2 => &self.value_f2,
                };
                table.get(&id).copied().unwrap_or(value)
            }
            Value::Arg(i) => {
                let table = match side {
                    Side::F1 => &self.param_f1,
                    Side::F2 => &self.param_f2,
                };
                Value::Arg(table[i as usize])
            }
            Value::Const(_) => value,
        }
    }

    /// Maps a label of the given side into the merged function.
    pub fn map_label(&self, side: Side, block: BlockId) -> BlockId {
        let table = match side {
            Side::F1 => &self.label_f1,
            Side::F2 => &self.label_f2,
        };
        table[&block]
    }

    /// Returns the side(s) a merged instruction originates from.
    pub fn side_of(&self, inst: InstId) -> (bool, bool) {
        match self.provenance.get(&inst) {
            Some((a, b)) => (a.is_some(), b.is_some()),
            None => (false, false),
        }
    }
}

/// The function identifier parameter of every merged function.
pub const FID: Value = Value::Arg(0);

/// Generates the merged function from an alignment of `f1` and `f2`.
///
/// Operand reordering (Figure 9) and the xor-branch trick (Figure 11) always
/// apply, so code generation reads none of the `_options`; the parameter
/// keeps the call shape the merge pipeline and `mergebench` share.
///
/// Returns `None` when the signatures cannot be merged (different non-void
/// return types).
pub fn generate(
    f1: &Function,
    f2: &Function,
    alignment: &Alignment,
    _options: &MergeOptions,
    merged_name: &str,
) -> Option<(Function, CodegenMaps)> {
    if f1.ret_ty != f2.ret_ty {
        return None;
    }

    let mut maps = CodegenMaps::default();

    // ----- Signature ------------------------------------------------------
    let mut params = vec![Type::I1];
    maps.param_f1 = f1
        .params
        .iter()
        .map(|ty| {
            params.push(*ty);
            (params.len() - 1) as u32
        })
        .collect();
    let mut claimed = vec![false; params.len()];
    maps.param_f2 = f2
        .params
        .iter()
        .map(|ty| {
            // Reuse the first unclaimed merged parameter of the same type.
            for (k, pty) in params.iter().enumerate().skip(1) {
                if *pty == *ty && !claimed[k] {
                    claimed[k] = true;
                    return k as u32;
                }
            }
            params.push(*ty);
            claimed.push(true);
            (params.len() - 1) as u32
        })
        .collect();
    let mut merged = Function::new(merged_name, params, f1.ret_ty);
    merged.param_names = (0..merged.params.len())
        .map(|i| {
            if i == 0 {
                "fid".to_string()
            } else {
                format!("p{i}")
            }
        })
        .collect();

    // ----- CFG generation ---------------------------------------------------
    let entry = merged.add_block("entry");

    // One merged block per aligned entry.
    for pair in &alignment.pairs {
        match pair {
            AlignedPair::Match(SeqEntry::Label(l1), SeqEntry::Label(l2)) => {
                let block =
                    merged.add_block(format!("m.{}.{}", f1.block(*l1).name, f2.block(*l2).name));
                maps.label_f1.insert(*l1, block);
                maps.label_f2.insert(*l2, block);
                maps.block_origin.insert(block, (Some(*l1), Some(*l2)));
                copy_phis(f1, *l1, Side::F1, block, &mut merged, &mut maps);
                copy_phis(f2, *l2, Side::F2, block, &mut merged, &mut maps);
            }
            AlignedPair::Match(SeqEntry::Inst(i1), SeqEntry::Inst(i2)) => {
                let block = merged.add_block("m.i");
                let b1 = f1.inst(*i1).block;
                let b2 = f2.inst(*i2).block;
                maps.block_origin.insert(block, (Some(b1), Some(b2)));
                let kind = f1.inst(*i1).kind.clone();
                let ty = f1.inst(*i1).ty;
                let inst = merged.append_inst(block, kind, ty);
                if let Some(name) = &f1.inst(*i1).name {
                    merged.set_inst_name(inst, format!("m.{name}"));
                }
                maps.provenance.insert(inst, (Some(*i1), Some(*i2)));
                maps.inst_f1.insert(*i1, inst);
                maps.inst_f2.insert(*i2, inst);
                if ty.is_first_class() {
                    maps.value_f1.insert(*i1, Value::Inst(inst));
                    maps.value_f2.insert(*i2, Value::Inst(inst));
                }
            }
            AlignedPair::Match(_, _) => unreachable!("labels only match labels"),
            AlignedPair::OnlyLeft(entry) => {
                clone_exclusive(f1, Side::F1, *entry, &mut merged, &mut maps);
            }
            AlignedPair::OnlyRight(entry) => {
                clone_exclusive(f2, Side::F2, *entry, &mut merged, &mut maps);
            }
        }
    }

    // Chain the blocks that came from the same input block, in original order,
    // and give every block that does not hold an original terminator a
    // (possibly fid-conditional) branch to its continuation.
    let mut next1: HashMap<BlockId, BlockId> = HashMap::new();
    let mut next2: HashMap<BlockId, BlockId> = HashMap::new();
    chain_targets(f1, Side::F1, &merged, &maps, &mut next1);
    chain_targets(f2, Side::F2, &merged, &maps, &mut next2);

    let blocks: Vec<BlockId> = merged.block_ids().collect();
    for block in blocks {
        if block == entry || merged.block(block).term.is_some() {
            continue;
        }
        let n1 = next1.get(&block).copied();
        let n2 = next2.get(&block).copied();
        append_dispatch(&mut merged, block, n1, n2);
    }
    // The entry block dispatches on %fid to the two original entry labels.
    let e1 = maps.label_f1.get(&f1.entry()).copied();
    let e2 = maps.label_f2.get(&f2.entry()).copied();
    append_dispatch(&mut merged, entry, e1, e2);
    merged.set_entry(entry);

    // ----- Operand assignment ----------------------------------------------
    assign_operands(f1, f2, &mut merged, &mut maps);
    assign_labels(f1, f2, &mut merged, &mut maps);
    assign_phi_incomings(f1, f2, &mut merged, &mut maps);

    Some((merged, maps))
}

/// Copies the phi-nodes attached to `label` into the merged block, with empty
/// incoming lists (filled during operand assignment).
fn copy_phis(
    source: &Function,
    label: BlockId,
    side: Side,
    block: BlockId,
    merged: &mut Function,
    maps: &mut CodegenMaps,
) {
    for &phi in &source.block(label).phis {
        let ty = source.inst(phi).ty;
        let new_phi = merged.append_inst(
            block,
            InstKind::Phi {
                incomings: Vec::new(),
            },
            ty,
        );
        if let Some(name) = &source.inst(phi).name {
            merged.set_inst_name(new_phi, name.clone());
        }
        maps.phi_origin.insert(new_phi, (side, phi));
        match side {
            Side::F1 => maps.inst_f1.insert(phi, new_phi),
            Side::F2 => maps.inst_f2.insert(phi, new_phi),
        };
        maps.provenance.insert(
            new_phi,
            match side {
                Side::F1 => (Some(phi), None),
                Side::F2 => (None, Some(phi)),
            },
        );
        match side {
            Side::F1 => maps.value_f1.insert(phi, Value::Inst(new_phi)),
            Side::F2 => maps.value_f2.insert(phi, Value::Inst(new_phi)),
        };
    }
}

/// Clones an exclusive (non-matching) entry into its own merged block.
fn clone_exclusive(
    source: &Function,
    side: Side,
    entry: SeqEntry,
    merged: &mut Function,
    maps: &mut CodegenMaps,
) {
    match entry {
        SeqEntry::Label(label) => {
            let block = merged.add_block(format!("x.{}", source.block(label).name));
            match side {
                Side::F1 => {
                    maps.label_f1.insert(label, block);
                    maps.block_origin.insert(block, (Some(label), None));
                }
                Side::F2 => {
                    maps.label_f2.insert(label, block);
                    maps.block_origin.insert(block, (None, Some(label)));
                }
            }
            copy_phis(source, label, side, block, merged, maps);
        }
        SeqEntry::Inst(inst) => {
            let block = merged.add_block("x.i");
            let origin = source.inst(inst).block;
            maps.block_origin.insert(
                block,
                match side {
                    Side::F1 => (Some(origin), None),
                    Side::F2 => (None, Some(origin)),
                },
            );
            let kind = source.inst(inst).kind.clone();
            let ty = source.inst(inst).ty;
            let new_inst = merged.append_inst(block, kind, ty);
            if let Some(name) = &source.inst(inst).name {
                merged.set_inst_name(new_inst, name.clone());
            }
            maps.provenance.insert(
                new_inst,
                match side {
                    Side::F1 => (Some(inst), None),
                    Side::F2 => (None, Some(inst)),
                },
            );
            match side {
                Side::F1 => maps.inst_f1.insert(inst, new_inst),
                Side::F2 => maps.inst_f2.insert(inst, new_inst),
            };
            if ty.is_first_class() {
                match side {
                    Side::F1 => maps.value_f1.insert(inst, Value::Inst(new_inst)),
                    Side::F2 => maps.value_f2.insert(inst, Value::Inst(new_inst)),
                };
            }
        }
    }
}

/// Records, for every merged block holding a non-terminator entry of `side`,
/// the merged block it must continue to in order to preserve that side's
/// original instruction order.
fn chain_targets(
    source: &Function,
    side: Side,
    merged: &Function,
    maps: &CodegenMaps,
    next: &mut HashMap<BlockId, BlockId>,
) {
    for block in source.block_ids() {
        // The per-block entry list mirrors the linearization: label, body
        // instructions (minus landing pads), terminator.
        let mut entries: Vec<SeqEntry> = vec![SeqEntry::Label(block)];
        for &inst in &source.block(block).insts {
            if matches!(source.inst(inst).kind, InstKind::LandingPad) {
                continue;
            }
            entries.push(SeqEntry::Inst(inst));
        }
        if let Some(term) = source.block(block).term {
            entries.push(SeqEntry::Inst(term));
        }
        for pair in entries.windows(2) {
            let from = merged_block_of(side, merged, maps, pair[0]);
            let to = merged_block_of(side, merged, maps, pair[1]);
            next.insert(from, to);
        }
    }
}

/// The merged block that holds the given entry of one input function.
fn merged_block_of(side: Side, merged: &Function, maps: &CodegenMaps, entry: SeqEntry) -> BlockId {
    match entry {
        SeqEntry::Label(l) => maps.map_label(side, l),
        SeqEntry::Inst(i) => {
            let table = match side {
                Side::F1 => &maps.inst_f1,
                Side::F2 => &maps.inst_f2,
            };
            merged.inst(table[&i]).block
        }
    }
}

/// Appends a branch (or fid-conditional branch) to `block` continuing to the
/// given per-function successors.
fn append_dispatch(
    merged: &mut Function,
    block: BlockId,
    next_f1: Option<BlockId>,
    next_f2: Option<BlockId>,
) {
    match (next_f1, next_f2) {
        (Some(a), Some(b)) if a == b => {
            merged.append_inst(block, InstKind::Br { dest: a }, Type::Void);
        }
        (Some(a), Some(b)) => {
            merged.append_inst(
                block,
                InstKind::CondBr {
                    cond: FID,
                    if_true: b,
                    if_false: a,
                },
                Type::Void,
            );
        }
        (Some(a), None) | (None, Some(a)) => {
            merged.append_inst(block, InstKind::Br { dest: a }, Type::Void);
        }
        (None, None) => {
            merged.append_inst(block, InstKind::Unreachable, Type::Void);
        }
    }
}

// ---------------------------------------------------------------------------
// Operand assignment
// ---------------------------------------------------------------------------

/// Resolves every value operand of every generated instruction, inserting
/// `select %fid` instructions (and applying operand reordering) where the two
/// functions disagree.
fn assign_operands(f1: &Function, f2: &Function, merged: &mut Function, maps: &mut CodegenMaps) {
    // Sort into arena (emission) order: HashMap iteration order varies per
    // instance, and the mutations below (select/lsel insertion) must happen
    // in a deterministic order for merge output to be reproducible.
    let mut insts: Vec<InstId> = maps.provenance.keys().copied().collect();
    insts.sort_unstable();
    for inst in insts {
        if maps.phi_origin.contains_key(&inst) {
            continue; // phi incomings are assigned separately
        }
        let (orig1, orig2) = maps.provenance[&inst];
        match (orig1, orig2) {
            (Some(i1), Some(i2)) => {
                let ops1: Vec<Value> = f1
                    .inst(i1)
                    .kind
                    .operands()
                    .iter()
                    .map(|v| maps.map_value(Side::F1, *v))
                    .collect();
                let ops2: Vec<Value> = f2
                    .inst(i2)
                    .kind
                    .operands()
                    .iter()
                    .map(|v| maps.map_value(Side::F2, *v))
                    .collect();
                let merged_ops = resolve_operand_pairs(f1, i1, ops1, ops2, merged, inst, maps);
                write_operands(merged, inst, &merged_ops);
            }
            (Some(i1), None) => {
                let ops: Vec<Value> = f1
                    .inst(i1)
                    .kind
                    .operands()
                    .iter()
                    .map(|v| maps.map_value(Side::F1, *v))
                    .collect();
                write_operands(merged, inst, &ops);
            }
            (None, Some(i2)) => {
                let ops: Vec<Value> = f2
                    .inst(i2)
                    .kind
                    .operands()
                    .iter()
                    .map(|v| maps.map_value(Side::F2, *v))
                    .collect();
                write_operands(merged, inst, &ops);
            }
            (None, None) => {}
        }
    }
}

/// Decides the merged operand list for a pair of matched instructions,
/// inserting selects for operands that still differ.
fn resolve_operand_pairs(
    f1: &Function,
    i1: InstId,
    mut ops1: Vec<Value>,
    mut ops2: Vec<Value>,
    merged: &mut Function,
    user: InstId,
    maps: &mut CodegenMaps,
) -> Vec<Value> {
    // Operand reordering for commutative binary operations (Figure 9): swap
    // one side when it strictly increases the number of equal operand pairs.
    if ops1.len() == 2 && ops2.len() == 2 {
        if let InstKind::Binary { op, .. } = &f1.inst(i1).kind {
            if op.is_commutative() {
                let direct = usize::from(ops1[0] == ops2[0]) + usize::from(ops1[1] == ops2[1]);
                let swapped = usize::from(ops1[0] == ops2[1]) + usize::from(ops1[1] == ops2[0]);
                if swapped > direct {
                    ops2.swap(0, 1);
                }
            }
        }
    }
    let mut out = Vec::with_capacity(ops1.len());
    for (a, b) in ops1.drain(..).zip(ops2.drain(..)) {
        if a == b || b.is_undef() {
            out.push(a);
        } else if a.is_undef() {
            out.push(b);
        } else {
            let ty = merged.value_type(a);
            let block = merged.inst(user).block;
            let pos = merged
                .block(block)
                .insts
                .iter()
                .position(|i| *i == user)
                .unwrap_or(merged.block(block).insts.len());
            let select = merged.insert_inst(
                block,
                pos,
                InstKind::Select {
                    cond: FID,
                    if_true: b,
                    if_false: a,
                },
                ty,
            );
            merged.set_inst_name(select, "opsel");
            maps.selects_inserted += 1;
            out.push(Value::Inst(select));
        }
    }
    out
}

fn write_operands(merged: &mut Function, inst: InstId, operands: &[Value]) {
    let mut idx = 0;
    merged.inst_mut(inst).kind.for_each_operand_mut(|slot| {
        *slot = operands[idx];
        idx += 1;
    });
    debug_assert_eq!(idx, operands.len());
}

// ---------------------------------------------------------------------------
// Label assignment (Section 4.2.1) and landing blocks (Section 4.2.2)
// ---------------------------------------------------------------------------

/// Resolves the label operands of every generated terminator, creating
/// label-selection blocks, applying the xor-branch optimization and inserting
/// landing blocks for invokes.
fn assign_labels(f1: &Function, f2: &Function, merged: &mut Function, maps: &mut CodegenMaps) {
    // Sort into arena (emission) order: HashMap iteration order varies per
    // instance, and the mutations below (select/lsel insertion) must happen
    // in a deterministic order for merge output to be reproducible.
    let mut insts: Vec<InstId> = maps.provenance.keys().copied().collect();
    insts.sort_unstable();
    for inst in insts {
        if !merged.contains_inst(inst) || !merged.inst(inst).kind.is_terminator() {
            continue;
        }
        let (orig1, orig2) = maps.provenance[&inst];
        let labels1: Option<Vec<BlockId>> = orig1.map(|i| {
            f1.inst(i)
                .kind
                .successors()
                .iter()
                .map(|b| maps.map_label(Side::F1, *b))
                .collect()
        });
        let labels2: Option<Vec<BlockId>> = orig2.map(|i| {
            f2.inst(i)
                .kind
                .successors()
                .iter()
                .map(|b| maps.map_label(Side::F2, *b))
                .collect()
        });
        let origin = maps.block_origin[&merged.inst(inst).block];

        match (labels1, labels2) {
            (Some(l1), Some(l2)) => {
                // xor-branch optimization: conditional branches with swapped
                // targets need one xor instead of two label selections.
                let is_condbr = matches!(merged.inst(inst).kind, InstKind::CondBr { .. });
                if is_condbr && l1.len() == 2 && l1[0] == l2[1] && l1[1] == l2[0] && l1[0] != l1[1]
                {
                    let block = merged.inst(inst).block;
                    let cond = match merged.inst(inst).kind {
                        InstKind::CondBr { cond, .. } => cond,
                        _ => unreachable!(),
                    };
                    let pos = merged.block(block).insts.len();
                    let xorred = merged.insert_inst(
                        block,
                        pos,
                        InstKind::Binary {
                            op: BinOp::Xor,
                            lhs: cond,
                            rhs: FID,
                        },
                        Type::I1,
                    );
                    merged.set_inst_name(xorred, "xorcond");
                    maps.xor_branches += 1;
                    if let InstKind::CondBr {
                        cond,
                        if_true,
                        if_false,
                    } = &mut merged.inst_mut(inst).kind
                    {
                        *cond = Value::Inst(xorred);
                        *if_true = l1[0];
                        *if_false = l1[1];
                    }
                } else {
                    let resolved: Vec<BlockId> = l1
                        .iter()
                        .zip(l2.iter())
                        .map(|(a, b)| select_label(merged, maps, origin, *a, *b))
                        .collect();
                    write_labels(merged, inst, &resolved);
                }
            }
            (Some(l), None) | (None, Some(l)) => write_labels(merged, inst, &l),
            (None, None) => {}
        }

        // Landing blocks for invokes: the unwind operand must point at a block
        // that begins with a landingpad.
        if matches!(merged.inst(inst).kind, InstKind::Invoke { .. }) {
            add_landing_block(f1, f2, merged, maps, inst);
        }
    }
}

/// Returns a block that transfers control to `a` when `%fid` is false and to
/// `b` when `%fid` is true (or just `a` when they agree), creating the
/// label-selection block of Figure 10 on demand.
fn select_label(
    merged: &mut Function,
    maps: &mut CodegenMaps,
    origin: (Option<BlockId>, Option<BlockId>),
    a: BlockId,
    b: BlockId,
) -> BlockId {
    if a == b {
        return a;
    }
    let sel = merged.add_block("lsel");
    merged.append_inst(
        sel,
        InstKind::CondBr {
            cond: FID,
            if_true: b,
            if_false: a,
        },
        Type::Void,
    );
    maps.block_origin.insert(sel, origin);
    maps.label_selections += 1;
    sel
}

fn write_labels(merged: &mut Function, inst: InstId, labels: &[BlockId]) {
    let mut idx = 0;
    merged.inst_mut(inst).kind.for_each_block_ref_mut(|slot| {
        *slot = labels[idx];
        idx += 1;
    });
    debug_assert_eq!(idx, labels.len());
}

/// Creates the landing block of a merged invoke (Figure 12) and maps the
/// original landingpad values to the new landingpad.
fn add_landing_block(
    f1: &Function,
    f2: &Function,
    merged: &mut Function,
    maps: &mut CodegenMaps,
    invoke: InstId,
) {
    let InstKind::Invoke { unwind, .. } = merged.inst(invoke).kind else {
        return;
    };
    let origin = maps.block_origin[&merged.inst(invoke).block];
    let landing = merged.add_block("landing");
    let pad = merged.append_inst(landing, InstKind::LandingPad, Type::Ptr);
    merged.set_inst_name(pad, "lpad");
    merged.append_inst(landing, InstKind::Br { dest: unwind }, Type::Void);
    maps.block_origin.insert(landing, origin);
    if let InstKind::Invoke { unwind, .. } = &mut merged.inst_mut(invoke).kind {
        *unwind = landing;
    }
    // Map the original landingpad instructions (excluded from alignment) to
    // the freshly created one so their uses (e.g. resume) resolve.
    let (orig1, orig2) = maps.provenance[&invoke];
    if let Some(i1) = orig1 {
        if let InstKind::Invoke { unwind, .. } = &f1.inst(i1).kind {
            for &cand in &f1.block(*unwind).insts {
                if matches!(f1.inst(cand).kind, InstKind::LandingPad) {
                    maps.value_f1.entry(cand).or_insert(Value::Inst(pad));
                }
            }
        }
    }
    if let Some(i2) = orig2 {
        if let InstKind::Invoke { unwind, .. } = &f2.inst(i2).kind {
            for &cand in &f2.block(*unwind).insts {
                if matches!(f2.inst(cand).kind, InstKind::LandingPad) {
                    maps.value_f2.entry(cand).or_insert(Value::Inst(pad));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Phi-node incoming values (Section 4.2.3)
// ---------------------------------------------------------------------------

/// Assigns the incoming values of every copied phi-node using the block
/// mapping: for each predecessor of the merged block, find the corresponding
/// block of the phi's input function and take that incoming value; if there is
/// none, the value is `undef` (which by construction is never read).
fn assign_phi_incomings(
    f1: &Function,
    f2: &Function,
    merged: &mut Function,
    maps: &mut CodegenMaps,
) {
    let preds = merged.predecessors();
    // Emission order, not HashMap order — see assign_operands.
    let mut phis: Vec<InstId> = maps.phi_origin.keys().copied().collect();
    phis.sort_unstable();
    for phi in phis {
        let (side, orig_phi) = maps.phi_origin[&phi];
        let (source, origin_index): (&Function, usize) = match side {
            Side::F1 => (f1, 0),
            Side::F2 => (f2, 1),
        };
        let InstKind::Phi {
            incomings: orig_incomings,
        } = &source.inst(orig_phi).kind
        else {
            continue;
        };
        let ty = merged.inst(phi).ty;
        let block = merged.inst(phi).block;
        let mut incomings: Vec<(Value, BlockId)> = Vec::new();
        for &pred in preds.get(&block).map(Vec::as_slice).unwrap_or(&[]) {
            if incomings.iter().any(|(_, b)| *b == pred) {
                continue;
            }
            let origin = maps
                .block_origin
                .get(&pred)
                .copied()
                .unwrap_or((None, None));
            let orig_pred = if origin_index == 0 {
                origin.0
            } else {
                origin.1
            };
            let value = orig_pred
                .and_then(|op| {
                    orig_incomings
                        .iter()
                        .find(|(_, b)| *b == op)
                        .map(|(v, _)| maps.map_value(side, *v))
                })
                .unwrap_or(Value::undef(ty));
            incomings.push((value, pred));
        }
        if let InstKind::Phi { incomings: slot } = &mut merged.inst_mut(phi).kind {
            *slot = incomings;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_align::{align, linearize};
    use ssa_ir::parse_function;

    fn merge_raw(f1: &Function, f2: &Function) -> (Function, CodegenMaps) {
        let s1 = linearize(f1);
        let s2 = linearize(f2);
        let alignment = align(f1, &s1, f2, &s2);
        generate(f1, f2, &alignment, &MergeOptions::default(), "merged").unwrap()
    }

    const F1: &str = r#"
define i32 @f1(i32 %n) {
L1:
  %x1 = call i32 @start(i32 %n)
  %x2 = icmp slt i32 %x1, 0
  br i1 %x2, label %L2, label %L3
L2:
  %x3 = call i32 @body(i32 %x1)
  br label %L4
L3:
  %x4 = call i32 @other(i32 %x1)
  br label %L4
L4:
  %x5 = phi i32 [ %x3, %L2 ], [ %x4, %L3 ]
  %x6 = call i32 @end(i32 %x5)
  ret i32 %x6
}
"#;

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
    fn generates_fid_parameter_and_merged_params() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let (merged, maps) = merge_raw(&f1, &f2);
        assert_eq!(merged.params[0], Type::I1);
        // Both single i32 parameters share one merged parameter.
        assert_eq!(merged.params.len(), 2);
        assert_eq!(maps.param_f1, vec![1]);
        assert_eq!(maps.param_f2, vec![1]);
    }

    #[test]
    fn matched_instructions_are_emitted_once() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let (merged, maps) = merge_raw(&f1, &f2);
        // @start and @end calls must be shared.
        let start_calls = merged
            .inst_ids()
            .filter(|i| matches!(&merged.inst(*i).kind, InstKind::Call { callee, .. } if callee == "start"))
            .count();
        let end_calls = merged
            .inst_ids()
            .filter(|i| matches!(&merged.inst(*i).kind, InstKind::Call { callee, .. } if callee == "end"))
            .count();
        assert_eq!(start_calls, 1);
        assert_eq!(end_calls, 1);
        // Both originals map to the same merged start call.
        let s1 = f1.inst_by_name("x1").unwrap();
        let s2 = f2.inst_by_name("v1").unwrap();
        assert_eq!(maps.value_f1[&s1], maps.value_f2[&s2]);
    }

    #[test]
    fn phis_are_copied_not_merged() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let (merged, maps) = merge_raw(&f1, &f2);
        assert_eq!(maps.phi_origin.len(), 2);
        let phi_count: usize = merged.block_ids().map(|b| merged.block(b).phis.len()).sum();
        assert_eq!(phi_count, 2);
    }

    #[test]
    fn identical_functions_need_no_label_selections() {
        let f1 = parse_function(F1).unwrap();
        let mut f2 = parse_function(F1).unwrap();
        f2.name = "copy".into();
        let (_, maps) = merge_raw(&f1, &f2);
        assert_eq!(maps.label_selections, 0);
        // Phi-nodes are copied per function (not merged), so at most the uses
        // of phi values need a select; everything else must match directly.
        assert!(maps.selects_inserted <= 1, "{}", maps.selects_inserted);
        assert_eq!(maps.xor_branches, 0);
    }

    #[test]
    fn different_return_types_are_rejected() {
        let a = parse_function("define i32 @a(i32 %x) {\nentry:\n  ret i32 %x\n}").unwrap();
        let b = parse_function("define i64 @b(i64 %x) {\nentry:\n  ret i64 %x\n}").unwrap();
        let sa = linearize(&a);
        let sb = linearize(&b);
        let alignment = align(&a, &sa, &b, &sb);
        assert!(generate(&a, &b, &alignment, &MergeOptions::default(), "m").is_none());
    }

    #[test]
    fn every_block_has_a_terminator_after_generation() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let (merged, _) = merge_raw(&f1, &f2);
        for b in merged.block_ids() {
            assert!(merged.block(b).term.is_some(), "block without terminator");
        }
    }

    #[test]
    fn mismatching_call_arguments_get_fid_selects() {
        let a = parse_function(
            "define i32 @a(i32 %x, i32 %y) {\nentry:\n  %r = call i32 @g(i32 %x)\n  ret i32 %r\n}",
        )
        .unwrap();
        let b = parse_function(
            "define i32 @b(i32 %x, i32 %y) {\nentry:\n  %r = call i32 @g(i32 %y)\n  ret i32 %r\n}",
        )
        .unwrap();
        let (merged, maps) = merge_raw(&a, &b);
        assert!(maps.selects_inserted >= 1);
        let has_select = merged
            .inst_ids()
            .any(|i| matches!(merged.inst(i).kind, InstKind::Select { .. }));
        assert!(has_select);
    }

    #[test]
    fn commutative_operand_reordering_avoids_selects() {
        let a = parse_function(
            "define i32 @a(i32 %x, i32 %y) {\nentry:\n  %r = add i32 %x, %y\n  ret i32 %r\n}",
        )
        .unwrap();
        let b = parse_function(
            "define i32 @b(i32 %x, i32 %y) {\nentry:\n  %r = add i32 %y, %x\n  ret i32 %r\n}",
        )
        .unwrap();
        let (_, maps) = merge_raw(&a, &b);
        assert_eq!(
            maps.selects_inserted, 0,
            "reordering should avoid the select"
        );
        // The non-commutative twin cannot be reordered: a select appears.
        let c = parse_function(
            "define i32 @c(i32 %x, i32 %y) {\nentry:\n  %r = sub i32 %x, %y\n  ret i32 %r\n}",
        )
        .unwrap();
        let d = parse_function(
            "define i32 @d(i32 %x, i32 %y) {\nentry:\n  %r = sub i32 %y, %x\n  ret i32 %r\n}",
        )
        .unwrap();
        let (_, maps2) = merge_raw(&c, &d);
        assert!(maps2.selects_inserted >= 1);
    }
}
