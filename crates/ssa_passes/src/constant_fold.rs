//! Constant folding and algebraic simplification of straight-line code.
//!
//! Part of the "Simplification" clean-up stage that both FMSA and SalSSA run
//! after code generation (Figure 1 of the paper).

use crate::subst::ValueSubst;
use ssa_ir::{BinOp, Constant, Function, ICmpPred, InstId, InstKind, Type, Value};

/// Folds constant expressions and trivial algebraic identities. Returns the
/// number of instructions replaced by constants or simpler values.
///
/// Each sweep reads operands through the folds made so far and rewrites the
/// function once at its end.
pub fn fold_constants(function: &mut Function) -> usize {
    let mut folded = 0;
    loop {
        let mut subst = ValueSubst::default();
        let mut dead: Vec<InstId> = Vec::new();
        for block in function.block_ids() {
            for inst in function.block(block).all_insts() {
                let data = function.inst(inst);
                if !data.ty.is_first_class() {
                    continue;
                }
                if let Some(value) = fold_inst(function, &data.kind, data.ty, &subst) {
                    if value != Value::Inst(inst) {
                        subst.insert(inst, value);
                    }
                    dead.push(inst);
                }
            }
        }
        if dead.is_empty() {
            return folded;
        }
        subst.apply(function);
        function.remove_insts(&dead);
        folded += dead.len();
    }
}

fn const_int(function: &Function, value: Value) -> Option<(i64, u16)> {
    match value {
        Value::Const(Constant::Int { bits, value }) => Some((value, bits)),
        _ => {
            let _ = function;
            None
        }
    }
}

fn mask(bits: u16, value: i64) -> i64 {
    if bits >= 64 {
        value
    } else {
        let m = (1i64 << bits) - 1;
        let v = value & m;
        // Sign-extend back so the stored payload stays canonical.
        let sign = 1i64 << (bits - 1);
        if bits > 1 && (v & sign) != 0 {
            v | !m
        } else {
            v
        }
    }
}

/// Folds `kind`, reading each operand through the folds `subst` holds.
fn fold_inst(function: &Function, kind: &InstKind, ty: Type, subst: &ValueSubst) -> Option<Value> {
    let read = |value: &Value| subst.resolve(*value);
    match kind {
        InstKind::Binary { op, lhs, rhs } => fold_binary(function, *op, read(lhs), read(rhs), ty),
        InstKind::ICmp { pred, lhs, rhs } => fold_icmp(function, *pred, read(lhs), read(rhs)),
        InstKind::Select {
            cond,
            if_true,
            if_false,
        } => {
            let (if_true, if_false) = (read(if_true), read(if_false));
            if if_true == if_false {
                return Some(if_true);
            }
            match read(cond) {
                Value::Const(Constant::Int { value, .. }) => {
                    Some(if value != 0 { if_true } else { if_false })
                }
                _ => None,
            }
        }
        InstKind::Cast { kind, value } => fold_cast(function, *kind, read(value), ty),
        InstKind::Phi { .. } => None,
        _ => None,
    }
}

fn fold_binary(function: &Function, op: BinOp, lhs: Value, rhs: Value, ty: Type) -> Option<Value> {
    if op.is_float() {
        return None;
    }
    let bits = if ty.is_int() { ty.bits() } else { 64 };
    let l = const_int(function, lhs);
    let r = const_int(function, rhs);
    // Algebraic identities with one constant operand.
    if let Some((rv, _)) = r {
        match (op, rv) {
            (
                BinOp::Add
                | BinOp::Sub
                | BinOp::Or
                | BinOp::Xor
                | BinOp::Shl
                | BinOp::LShr
                | BinOp::AShr,
                0,
            ) => return Some(lhs),
            (BinOp::Mul | BinOp::SDiv | BinOp::UDiv, 1) => return Some(lhs),
            (BinOp::Mul | BinOp::And, 0) => {
                return Some(Value::Const(Constant::Int { bits, value: 0 }))
            }
            _ => {}
        }
    }
    if let Some((lv, _)) = l {
        match (op, lv) {
            (BinOp::Add | BinOp::Or | BinOp::Xor, 0) => return Some(rhs),
            (BinOp::Mul, 1) => return Some(rhs),
            (BinOp::Mul | BinOp::And, 0) => {
                return Some(Value::Const(Constant::Int { bits, value: 0 }))
            }
            _ => {}
        }
    }
    // Full constant folding.
    let (lv, _) = l?;
    let (rv, _) = r?;
    let value = match op {
        BinOp::Add => lv.wrapping_add(rv),
        BinOp::Sub => lv.wrapping_sub(rv),
        BinOp::Mul => lv.wrapping_mul(rv),
        BinOp::SDiv => {
            if rv == 0 {
                return None;
            }
            lv.wrapping_div(rv)
        }
        BinOp::UDiv => {
            if rv == 0 {
                return None;
            }
            ((lv as u64) / (rv as u64)) as i64
        }
        BinOp::SRem => {
            if rv == 0 {
                return None;
            }
            lv.wrapping_rem(rv)
        }
        BinOp::URem => {
            if rv == 0 {
                return None;
            }
            ((lv as u64) % (rv as u64)) as i64
        }
        BinOp::And => lv & rv,
        BinOp::Or => lv | rv,
        BinOp::Xor => lv ^ rv,
        BinOp::Shl => lv.wrapping_shl(rv as u32 & 63),
        BinOp::LShr => ((lv as u64).wrapping_shr(rv as u32 & 63)) as i64,
        BinOp::AShr => lv.wrapping_shr(rv as u32 & 63),
        _ => return None,
    };
    Some(Value::Const(Constant::Int {
        bits,
        value: mask(bits, value),
    }))
}

fn fold_icmp(function: &Function, pred: ICmpPred, lhs: Value, rhs: Value) -> Option<Value> {
    let (l, _) = const_int(function, lhs)?;
    let (r, _) = const_int(function, rhs)?;
    let (lu, ru) = (l as u64, r as u64);
    let result = match pred {
        ICmpPred::Eq => l == r,
        ICmpPred::Ne => l != r,
        ICmpPred::Slt => l < r,
        ICmpPred::Sle => l <= r,
        ICmpPred::Sgt => l > r,
        ICmpPred::Sge => l >= r,
        ICmpPred::Ult => lu < ru,
        ICmpPred::Ule => lu <= ru,
        ICmpPred::Ugt => lu > ru,
        ICmpPred::Uge => lu >= ru,
    };
    Some(Value::bool(result))
}

fn fold_cast(
    function: &Function,
    kind: ssa_ir::CastKind,
    value: Value,
    to_ty: Type,
) -> Option<Value> {
    use ssa_ir::CastKind::*;
    let (v, bits) = const_int(function, value)?;
    if !to_ty.is_int() {
        return None;
    }
    let to_bits = to_ty.bits();
    let folded = match kind {
        Trunc => mask(to_bits, v),
        ZExt => {
            if bits >= 64 {
                v
            } else {
                v & ((1i64 << bits) - 1)
            }
        }
        SExt | Bitcast => v,
        _ => return None,
    };
    Some(Value::Const(Constant::Int {
        bits: to_bits,
        value: mask(to_bits, folded),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_function;
    use ssa_ir::verifier::assert_valid;

    fn fold(text: &str) -> (Function, usize) {
        let mut f = parse_function(text).unwrap();
        let n = fold_constants(&mut f);
        assert_valid(&f);
        (f, n)
    }

    #[test]
    fn folds_constant_arithmetic() {
        let (f, n) = fold(
            "define i32 @f() {\nentry:\n  %a = add i32 2, 3\n  %b = mul i32 %a, 4\n  ret i32 %b\n}",
        );
        assert_eq!(n, 2);
        assert_eq!(f.num_insts(), 1);
        let ret = f.block(f.entry()).term.unwrap();
        assert_eq!(
            f.inst(ret).kind.operands()[0],
            Value::Const(Constant::Int {
                bits: 32,
                value: 20
            })
        );
    }

    #[test]
    fn folds_icmp_and_select() {
        let (f, _) = fold(
            "define i32 @f(i32 %x) {\nentry:\n  %c = icmp slt i32 3, 5\n  %s = select i1 %c, i32 %x, i32 0\n  ret i32 %s\n}",
        );
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn applies_algebraic_identities() {
        let (f, n) = fold(
            "define i32 @f(i32 %x) {\nentry:\n  %a = add i32 %x, 0\n  %b = mul i32 %a, 1\n  %c = xor i32 0, %b\n  ret i32 %c\n}",
        );
        assert_eq!(n, 3);
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let (f, n) = fold("define i32 @f() {\nentry:\n  %a = sdiv i32 4, 0\n  ret i32 %a\n}");
        assert_eq!(n, 0);
        assert_eq!(f.num_insts(), 2);
    }

    #[test]
    fn folds_casts() {
        let (f, n) = fold(
            "define i64 @f() {\nentry:\n  %a = zext i32 300 to i64\n  %b = add i64 %a, 0\n  ret i64 %b\n}",
        );
        assert!(n >= 2);
        assert_eq!(f.num_insts(), 1);
    }

    #[test]
    fn truncation_wraps() {
        let (f, _) = fold("define i8 @f() {\nentry:\n  %a = trunc i32 300 to i8\n  ret i8 %a\n}");
        let ret = f.block(f.entry()).term.unwrap();
        let v = f.inst(ret).kind.operands()[0];
        assert_eq!(v, Value::Const(Constant::Int { bits: 8, value: 44 }));
    }

    #[test]
    fn select_with_equal_arms_folds_even_with_dynamic_condition() {
        let (f, n) = fold(
            "define i32 @f(i1 %c, i32 %x) {\nentry:\n  %s = select i1 %c, i32 %x, i32 %x\n  ret i32 %s\n}",
        );
        assert_eq!(n, 1);
        assert_eq!(f.num_insts(), 1);
    }
}
