//! Function linearization: turning a CFG into the sequence of labels and
//! instructions that the sequence-alignment stage works on.
//!
//! Following the paper, phi-nodes are *not* part of the sequence — SalSSA
//! treats them as attached to their block's label (Section 4.1.1) — and
//! landing pads are excluded as well (they are regenerated next to their
//! invoke during operand assignment, Section 4.2.2).

use ssa_ir::{BlockId, Function, InstId, InstKind};

/// One element of a linearized function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeqEntry {
    /// A basic-block label.
    Label(BlockId),
    /// An instruction (never a phi-node or a landing pad).
    Inst(InstId),
}

impl SeqEntry {
    /// Returns the instruction id if this entry is an instruction.
    pub fn as_inst(self) -> Option<InstId> {
        match self {
            SeqEntry::Inst(i) => Some(i),
            SeqEntry::Label(_) => None,
        }
    }
}

/// Linearizes a function into labels and instructions, in layout order.
pub fn linearize(function: &Function) -> Vec<SeqEntry> {
    let mut seq = Vec::with_capacity(function.num_insts() + function.num_blocks());
    for block in function.block_ids() {
        seq.push(SeqEntry::Label(block));
        let data = function.block(block);
        for &inst in &data.insts {
            if matches!(function.inst(inst).kind, InstKind::LandingPad) {
                continue;
            }
            seq.push(SeqEntry::Inst(inst));
        }
        if let Some(term) = data.term {
            seq.push(SeqEntry::Inst(term));
        }
    }
    seq
}

/// Returns `true` when two sequence entries from two functions are allowed to
/// be merged into a single entity in the merged function.
///
/// Labels always match labels. Instructions match when they have the same
/// opcode, the same result type, the same operand types in the same order, and
/// — for calls and invokes — the same callee.
pub fn mergeable(f1: &Function, e1: SeqEntry, f2: &Function, e2: SeqEntry) -> bool {
    match (e1, e2) {
        (SeqEntry::Label(_), SeqEntry::Label(_)) => true,
        (SeqEntry::Inst(a), SeqEntry::Inst(b)) => mergeable_insts(f1, a, f2, b),
        _ => false,
    }
}

/// Instruction-level mergeability test (see [`mergeable`]).
pub fn mergeable_insts(f1: &Function, a: InstId, f2: &Function, b: InstId) -> bool {
    let da = f1.inst(a);
    let db = f2.inst(b);
    if da.ty != db.ty {
        return false;
    }
    use InstKind::*;
    match (&da.kind, &db.kind) {
        (Binary { op: o1, .. }, Binary { op: o2, .. }) => o1 == o2,
        (ICmp { pred: p1, .. }, ICmp { pred: p2, .. }) => p1 == p2,
        (Select { .. }, Select { .. }) => operand_types_match(f1, a, f2, b),
        (
            Call {
                callee: c1,
                args: a1,
            },
            Call {
                callee: c2,
                args: a2,
            },
        ) => c1 == c2 && a1.len() == a2.len() && operand_types_match(f1, a, f2, b),
        (
            Invoke {
                callee: c1,
                args: a1,
                ..
            },
            Invoke {
                callee: c2,
                args: a2,
                ..
            },
        ) => c1 == c2 && a1.len() == a2.len() && operand_types_match(f1, a, f2, b),
        (Alloca { ty: t1 }, Alloca { ty: t2 }) => t1 == t2,
        (Load { .. }, Load { .. }) => true,
        (Store { .. }, Store { .. }) => operand_types_match(f1, a, f2, b),
        (Gep { stride: s1, .. }, Gep { stride: s2, .. }) => {
            s1 == s2 && operand_types_match(f1, a, f2, b)
        }
        (Cast { kind: k1, .. }, Cast { kind: k2, .. }) => {
            k1 == k2 && operand_types_match(f1, a, f2, b)
        }
        (Br { .. }, Br { .. }) => true,
        (CondBr { .. }, CondBr { .. }) => true,
        (Switch { cases: c1, .. }, Switch { cases: c2, .. }) => {
            c1.len() == c2.len() && c1.iter().zip(c2.iter()).all(|((v1, _), (v2, _))| v1 == v2)
        }
        (Ret { value: v1 }, Ret { value: v2 }) => v1.is_some() == v2.is_some(),
        (Unreachable, Unreachable) => true,
        (Resume { .. }, Resume { .. }) => true,
        _ => false,
    }
}

fn operand_types_match(f1: &Function, a: InstId, f2: &Function, b: InstId) -> bool {
    let ta: Vec<_> = f1
        .inst(a)
        .kind
        .operands()
        .iter()
        .map(|v| f1.value_type(*v))
        .collect();
    let tb: Vec<_> = f2
        .inst(b)
        .kind
        .operands()
        .iter()
        .map(|v| f2.value_type(*v))
        .collect();
    ta == tb
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_function;

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

    #[test]
    fn linearization_skips_phis_and_keeps_order() {
        let f = parse_function(F1).unwrap();
        let seq = linearize(&f);
        // 4 labels + 10 instructions - 1 phi = 13 entries.
        assert_eq!(seq.len(), 13);
        assert!(matches!(seq[0], SeqEntry::Label(_)));
        let phi_present = seq.iter().any(|e| {
            e.as_inst()
                .map(|i| f.inst(i).kind.is_phi())
                .unwrap_or(false)
        });
        assert!(!phi_present);
    }

    #[test]
    fn labels_match_labels_not_instructions() {
        let f = parse_function(F1).unwrap();
        let seq = linearize(&f);
        assert!(mergeable(&f, seq[0], &f, seq[4]) || !mergeable(&f, seq[0], &f, seq[1]));
        assert!(!mergeable(&f, seq[0], &f, seq[1]));
    }

    #[test]
    fn identical_calls_are_mergeable_but_different_callees_are_not() {
        let f = parse_function(F1).unwrap();
        let body = f.inst_by_name("x3").unwrap();
        let other = f.inst_by_name("x4").unwrap();
        let start = f.inst_by_name("x1").unwrap();
        assert!(mergeable_insts(&f, body, &f, body));
        assert!(!mergeable_insts(&f, body, &f, other));
        assert!(!mergeable_insts(&f, body, &f, start)); // different arity? same; different callee
    }

    #[test]
    fn type_mismatch_blocks_merging() {
        let a = parse_function(
            "define i32 @a(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}",
        )
        .unwrap();
        let b = parse_function(
            "define i64 @b(i64 %x) {\nentry:\n  %r = add i64 %x, 1\n  ret i64 %r\n}",
        )
        .unwrap();
        let ra = a.inst_by_name("r").unwrap();
        let rb = b.inst_by_name("r").unwrap();
        assert!(!mergeable_insts(&a, ra, &b, rb));
    }

    #[test]
    fn branches_and_rets_match_by_shape() {
        let a = parse_function(F1).unwrap();
        let seq = linearize(&a);
        let terms: Vec<_> = seq
            .iter()
            .filter_map(|e| e.as_inst())
            .filter(|i| a.inst(*i).kind.is_terminator())
            .collect();
        // br (cond) vs br (uncond) do not both exist as CondBr; check pairs of plain brs.
        let brs: Vec<_> = terms
            .iter()
            .copied()
            .filter(|i| matches!(a.inst(*i).kind, InstKind::Br { .. }))
            .collect();
        assert!(brs.len() >= 2);
        assert!(mergeable_insts(&a, brs[0], &a, brs[1]));
        let condbr = terms
            .iter()
            .copied()
            .find(|i| matches!(a.inst(*i).kind, InstKind::CondBr { .. }))
            .unwrap();
        assert!(!mergeable_insts(&a, brs[0], &a, condbr));
    }
}
