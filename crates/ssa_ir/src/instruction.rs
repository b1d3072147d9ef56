//! Instructions of the IR.
//!
//! The instruction set mirrors the subset of LLVM IR exercised by the paper:
//! integer/float arithmetic, comparisons, selects, calls/invokes with landing
//! pads, memory operations (`alloca`/`load`/`store`/`gep`), casts, phi-nodes
//! and the usual terminators.

use crate::ids::{BlockId, InstId};
use crate::types::Type;
use crate::value::Value;
use std::fmt;

/// Binary arithmetic and bitwise operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    UDiv,
    SRem,
    URem,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
    FAdd,
    FSub,
    FMul,
    FDiv,
}

impl BinOp {
    /// Returns `true` when `a op b == b op a`, which SalSSA exploits for
    /// operand reordering (Section 4.2 of the paper).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add
                | BinOp::Mul
                | BinOp::And
                | BinOp::Or
                | BinOp::Xor
                | BinOp::FAdd
                | BinOp::FMul
        )
    }

    /// Returns `true` for the floating-point operators.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }

    /// LLVM-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::SDiv => "sdiv",
            BinOp::UDiv => "udiv",
            BinOp::SRem => "srem",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
            BinOp::FAdd => "fadd",
            BinOp::FSub => "fsub",
            BinOp::FMul => "fmul",
            BinOp::FDiv => "fdiv",
        }
    }

    /// All binary operators (useful for workload generation and tests).
    pub fn all() -> &'static [BinOp] {
        &[
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::SDiv,
            BinOp::UDiv,
            BinOp::SRem,
            BinOp::URem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::LShr,
            BinOp::AShr,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
        ]
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Integer comparison predicates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum ICmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl ICmpPred {
    /// LLVM-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ICmpPred::Eq => "eq",
            ICmpPred::Ne => "ne",
            ICmpPred::Slt => "slt",
            ICmpPred::Sle => "sle",
            ICmpPred::Sgt => "sgt",
            ICmpPred::Sge => "sge",
            ICmpPred::Ult => "ult",
            ICmpPred::Ule => "ule",
            ICmpPred::Ugt => "ugt",
            ICmpPred::Uge => "uge",
        }
    }

    /// The predicate obtained by swapping the two operands.
    pub fn swapped(self) -> ICmpPred {
        match self {
            ICmpPred::Eq => ICmpPred::Eq,
            ICmpPred::Ne => ICmpPred::Ne,
            ICmpPred::Slt => ICmpPred::Sgt,
            ICmpPred::Sle => ICmpPred::Sge,
            ICmpPred::Sgt => ICmpPred::Slt,
            ICmpPred::Sge => ICmpPred::Sle,
            ICmpPred::Ult => ICmpPred::Ugt,
            ICmpPred::Ule => ICmpPred::Uge,
            ICmpPred::Ugt => ICmpPred::Ult,
            ICmpPred::Uge => ICmpPred::Ule,
        }
    }

    /// All predicates.
    pub fn all() -> &'static [ICmpPred] {
        &[
            ICmpPred::Eq,
            ICmpPred::Ne,
            ICmpPred::Slt,
            ICmpPred::Sle,
            ICmpPred::Sgt,
            ICmpPred::Sge,
            ICmpPred::Ult,
            ICmpPred::Ule,
            ICmpPred::Ugt,
            ICmpPred::Uge,
        ]
    }
}

impl fmt::Display for ICmpPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Cast operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CastKind {
    Trunc,
    ZExt,
    SExt,
    Bitcast,
    PtrToInt,
    IntToPtr,
    SIToFP,
    FPToSI,
}

impl CastKind {
    /// LLVM-style mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::Trunc => "trunc",
            CastKind::ZExt => "zext",
            CastKind::SExt => "sext",
            CastKind::Bitcast => "bitcast",
            CastKind::PtrToInt => "ptrtoint",
            CastKind::IntToPtr => "inttoptr",
            CastKind::SIToFP => "sitofp",
            CastKind::FPToSI => "fptosi",
        }
    }
}

impl fmt::Display for CastKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// The operation performed by an instruction together with its operands.
#[derive(Clone, PartialEq, Debug)]
pub enum InstKind {
    /// Binary arithmetic/bitwise operation.
    Binary { op: BinOp, lhs: Value, rhs: Value },
    /// Integer (or pointer) comparison producing an `i1`.
    ICmp {
        pred: ICmpPred,
        lhs: Value,
        rhs: Value,
    },
    /// `select cond, if_true, if_false`.
    Select {
        cond: Value,
        if_true: Value,
        if_false: Value,
    },
    /// Direct call to a named function.
    Call { callee: String, args: Vec<Value> },
    /// Call with exceptional control flow (terminator).
    Invoke {
        callee: String,
        args: Vec<Value>,
        normal: BlockId,
        unwind: BlockId,
    },
    /// Landing pad: first non-phi instruction of an unwind destination.
    LandingPad,
    /// Resume exception propagation (terminator).
    Resume { value: Value },
    /// SSA phi-node. One incoming value per predecessor block.
    Phi { incomings: Vec<(Value, BlockId)> },
    /// Stack allocation of a slot holding a value of type `ty`.
    Alloca { ty: Type },
    /// Memory load through a pointer.
    Load { ptr: Value },
    /// Memory store through a pointer.
    Store { value: Value, ptr: Value },
    /// Pointer arithmetic: `base + index * stride` (a simplified GEP).
    Gep {
        base: Value,
        index: Value,
        stride: u32,
    },
    /// Type cast.
    Cast { kind: CastKind, value: Value },
    /// Unconditional branch (terminator).
    Br { dest: BlockId },
    /// Conditional branch (terminator).
    CondBr {
        cond: Value,
        if_true: BlockId,
        if_false: BlockId,
    },
    /// Multi-way switch (terminator).
    Switch {
        value: Value,
        default: BlockId,
        cases: Vec<(i64, BlockId)>,
    },
    /// Return (terminator).
    Ret { value: Option<Value> },
    /// Unreachable (terminator).
    Unreachable,
}

impl InstKind {
    /// Returns `true` for instructions that terminate a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            InstKind::Br { .. }
                | InstKind::CondBr { .. }
                | InstKind::Switch { .. }
                | InstKind::Ret { .. }
                | InstKind::Invoke { .. }
                | InstKind::Resume { .. }
                | InstKind::Unreachable
        )
    }

    /// Returns `true` for phi-nodes.
    pub fn is_phi(&self) -> bool {
        matches!(self, InstKind::Phi { .. })
    }

    /// Returns `true` for instructions with side effects that must not be
    /// removed by dead-code elimination even if their result is unused.
    pub fn has_side_effects(&self) -> bool {
        matches!(
            self,
            InstKind::Call { .. }
                | InstKind::Invoke { .. }
                | InstKind::Store { .. }
                | InstKind::Resume { .. }
                | InstKind::LandingPad
        ) || self.is_terminator()
    }

    /// A short mnemonic identifying the opcode (used by the printer, the
    /// fingerprints and the alignment matcher).
    pub fn opcode(&self) -> &'static str {
        match self {
            InstKind::Binary { op, .. } => op.mnemonic(),
            InstKind::ICmp { .. } => "icmp",
            InstKind::Select { .. } => "select",
            InstKind::Call { .. } => "call",
            InstKind::Invoke { .. } => "invoke",
            InstKind::LandingPad => "landingpad",
            InstKind::Resume { .. } => "resume",
            InstKind::Phi { .. } => "phi",
            InstKind::Alloca { .. } => "alloca",
            InstKind::Load { .. } => "load",
            InstKind::Store { .. } => "store",
            InstKind::Gep { .. } => "getelementptr",
            InstKind::Cast { kind, .. } => kind.mnemonic(),
            InstKind::Br { .. } => "br",
            InstKind::CondBr { .. } => "br",
            InstKind::Switch { .. } => "switch",
            InstKind::Ret { .. } => "ret",
            InstKind::Unreachable => "unreachable",
        }
    }

    /// A small dense integer identifying the opcode class, used by the
    /// fingerprint vectors of the candidate-ranking stage.
    pub fn opcode_class(&self) -> usize {
        match self {
            InstKind::Binary { op, .. } => *op as usize,
            InstKind::ICmp { .. } => 20,
            InstKind::Select { .. } => 21,
            InstKind::Call { .. } => 22,
            InstKind::Invoke { .. } => 23,
            InstKind::LandingPad => 24,
            InstKind::Resume { .. } => 25,
            InstKind::Phi { .. } => 26,
            InstKind::Alloca { .. } => 27,
            InstKind::Load { .. } => 28,
            InstKind::Store { .. } => 29,
            InstKind::Gep { .. } => 30,
            InstKind::Cast { kind, .. } => 31 + *kind as usize,
            InstKind::Br { .. } => 40,
            InstKind::CondBr { .. } => 41,
            InstKind::Switch { .. } => 42,
            InstKind::Ret { .. } => 43,
            InstKind::Unreachable => 44,
        }
    }

    /// Number of distinct opcode classes (size of fingerprint vectors).
    pub const NUM_OPCODE_CLASSES: usize = 48;

    /// Collects the value operands of the instruction, in a fixed order.
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Calls `f` on each value operand.
    pub fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            InstKind::Binary { lhs, rhs, .. } | InstKind::ICmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                f(*cond);
                f(*if_true);
                f(*if_false);
            }
            InstKind::Call { args, .. } | InstKind::Invoke { args, .. } => {
                for a in args {
                    f(*a);
                }
            }
            InstKind::LandingPad | InstKind::Unreachable | InstKind::Alloca { .. } => {}
            InstKind::Resume { value } => f(*value),
            InstKind::Phi { incomings } => {
                for (v, _) in incomings {
                    f(*v);
                }
            }
            InstKind::Load { ptr } => f(*ptr),
            InstKind::Store { value, ptr } => {
                f(*value);
                f(*ptr);
            }
            InstKind::Gep { base, index, .. } => {
                f(*base);
                f(*index);
            }
            InstKind::Cast { value, .. } => f(*value),
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => f(*cond),
            InstKind::Switch { value, .. } => f(*value),
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    f(*v);
                }
            }
        }
    }

    /// Calls `f` on a mutable reference to each value operand.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Value)) {
        match self {
            InstKind::Binary { lhs, rhs, .. } | InstKind::ICmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            InstKind::Select {
                cond,
                if_true,
                if_false,
            } => {
                f(cond);
                f(if_true);
                f(if_false);
            }
            InstKind::Call { args, .. } | InstKind::Invoke { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            InstKind::LandingPad | InstKind::Unreachable | InstKind::Alloca { .. } => {}
            InstKind::Resume { value } => f(value),
            InstKind::Phi { incomings } => {
                for (v, _) in incomings {
                    f(v);
                }
            }
            InstKind::Load { ptr } => f(ptr),
            InstKind::Store { value, ptr } => {
                f(value);
                f(ptr);
            }
            InstKind::Gep { base, index, .. } => {
                f(base);
                f(index);
            }
            InstKind::Cast { value, .. } => f(value),
            InstKind::Br { .. } => {}
            InstKind::CondBr { cond, .. } => f(cond),
            InstKind::Switch { value, .. } => f(value),
            InstKind::Ret { value } => {
                if let Some(v) = value {
                    f(v);
                }
            }
        }
    }

    /// The successor blocks referenced by this instruction (terminators and
    /// phi-node incoming blocks reference blocks).
    pub fn successors(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.for_each_successor(|b| out.push(b));
        out
    }

    /// Calls `f` on each successor block, in [`InstKind::successors`] order,
    /// without collecting them.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            InstKind::Br { dest } => f(*dest),
            InstKind::CondBr {
                if_true, if_false, ..
            } => {
                f(*if_true);
                f(*if_false);
            }
            InstKind::Switch { default, cases, .. } => {
                f(*default);
                for (_, b) in cases {
                    f(*b);
                }
            }
            InstKind::Invoke { normal, unwind, .. } => {
                f(*normal);
                f(*unwind);
            }
            _ => {}
        }
    }

    /// Calls `f` on a mutable reference to each referenced block label
    /// (terminator successors and phi incoming blocks).
    pub fn for_each_block_ref_mut(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            InstKind::Br { dest } => f(dest),
            InstKind::CondBr {
                if_true, if_false, ..
            } => {
                f(if_true);
                f(if_false);
            }
            InstKind::Switch { default, cases, .. } => {
                f(default);
                for (_, b) in cases {
                    f(b);
                }
            }
            InstKind::Invoke { normal, unwind, .. } => {
                f(normal);
                f(unwind);
            }
            InstKind::Phi { incomings } => {
                for (_, b) in incomings {
                    f(b);
                }
            }
            _ => {}
        }
    }

    /// Replaces every operand equal to `from` with `to`. Returns the number
    /// of replacements performed.
    pub fn replace_value(&mut self, from: Value, to: Value) -> usize {
        let mut count = 0;
        self.for_each_operand_mut(|v| {
            if *v == from {
                *v = to;
                count += 1;
            }
        });
        count
    }
}

/// An instruction: its kind, result type, parent block and an optional name
/// hint used by the printer.
#[derive(Clone, Debug)]
pub struct InstData {
    /// The operation and operands.
    pub kind: InstKind,
    /// The type of the produced value (`Type::Void` when no value is produced).
    pub ty: Type,
    /// The basic block this instruction currently belongs to.
    pub block: BlockId,
    /// Optional human-readable name used when printing (`%name`).
    pub name: Option<String>,
}

/// Reference to an instruction paired with its id; convenient return type for
/// iteration helpers.
#[derive(Clone, Copy, Debug)]
pub struct InstRef<'a> {
    /// The id of the instruction.
    pub id: InstId,
    /// The instruction payload.
    pub data: &'a InstData,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::EntityId;

    fn bid(i: usize) -> BlockId {
        BlockId::from_index(i)
    }

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(BinOp::Xor.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(BinOp::FMul.is_commutative());
        assert!(!BinOp::FDiv.is_commutative());
    }

    #[test]
    fn icmp_swapped_is_involutive() {
        for &p in ICmpPred::all() {
            assert_eq!(p.swapped().swapped(), p);
        }
    }

    #[test]
    fn terminator_classification() {
        assert!(InstKind::Br { dest: bid(0) }.is_terminator());
        assert!(InstKind::Ret { value: None }.is_terminator());
        assert!(InstKind::Unreachable.is_terminator());
        assert!(InstKind::Invoke {
            callee: "f".into(),
            args: vec![],
            normal: bid(0),
            unwind: bid(1)
        }
        .is_terminator());
        assert!(!InstKind::Load { ptr: Value::Arg(0) }.is_terminator());
        assert!(!InstKind::Phi { incomings: vec![] }.is_terminator());
    }

    #[test]
    fn operand_iteration_and_replacement() {
        let mut k = InstKind::Select {
            cond: Value::Arg(0),
            if_true: Value::Arg(1),
            if_false: Value::Arg(1),
        };
        assert_eq!(k.operands().len(), 3);
        let n = k.replace_value(Value::Arg(1), Value::i32(5));
        assert_eq!(n, 2);
        assert_eq!(
            k.operands(),
            vec![Value::Arg(0), Value::i32(5), Value::i32(5)]
        );
    }

    #[test]
    fn successors_of_terminators() {
        let sw = InstKind::Switch {
            value: Value::Arg(0),
            default: bid(3),
            cases: vec![(1, bid(1)), (2, bid(2))],
        };
        assert_eq!(sw.successors(), vec![bid(3), bid(1), bid(2)]);
        let br = InstKind::CondBr {
            cond: Value::bool(true),
            if_true: bid(1),
            if_false: bid(2),
        };
        assert_eq!(br.successors(), vec![bid(1), bid(2)]);
        assert!(InstKind::Ret { value: None }.successors().is_empty());
    }

    #[test]
    fn opcode_classes_are_distinct_for_distinct_opcodes() {
        let kinds = vec![
            InstKind::ICmp {
                pred: ICmpPred::Eq,
                lhs: Value::Arg(0),
                rhs: Value::Arg(1),
            },
            InstKind::Select {
                cond: Value::Arg(0),
                if_true: Value::Arg(1),
                if_false: Value::Arg(2),
            },
            InstKind::Call {
                callee: "f".into(),
                args: vec![],
            },
            InstKind::LandingPad,
            InstKind::Phi { incomings: vec![] },
            InstKind::Alloca { ty: Type::I32 },
            InstKind::Load { ptr: Value::Arg(0) },
            InstKind::Store {
                value: Value::Arg(0),
                ptr: Value::Arg(1),
            },
            InstKind::Unreachable,
        ];
        let mut seen = std::collections::HashSet::new();
        for k in &kinds {
            assert!(k.opcode_class() < InstKind::NUM_OPCODE_CLASSES);
            assert!(seen.insert(k.opcode_class()), "duplicate class for {k:?}");
        }
    }

    #[test]
    fn side_effects() {
        assert!(InstKind::Store {
            value: Value::Arg(0),
            ptr: Value::Arg(1)
        }
        .has_side_effects());
        assert!(InstKind::Call {
            callee: "f".into(),
            args: vec![]
        }
        .has_side_effects());
        assert!(!InstKind::Binary {
            op: BinOp::Add,
            lhs: Value::Arg(0),
            rhs: Value::Arg(1)
        }
        .has_side_effects());
        assert!(!InstKind::Load { ptr: Value::Arg(0) }.has_side_effects());
    }
}
