//! Phi-node simplification: removal of trivial phis and deduplication of
//! identical phis.
//!
//! The paper relies on "existing optimizations from LLVM" to merge identical
//! phi-nodes copied from the two input functions during SalSSA's
//! simplification stage (Section 4.1.1); this module provides that
//! functionality for the reproduction.

use crate::subst::ValueSubst;
use ssa_ir::{BlockId, DomTree, Function, InstId, InstKind, Type, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;

/// Replaces phis that have a single distinct incoming value (ignoring `undef`
/// and self-references) with that value. Runs to a fixed point. Returns the
/// number of phis removed.
///
/// Each sweep reads operands through the substitutions made so far and
/// rewrites the function once at its end. Removing phis never changes the
/// CFG, so one dominator tree serves every sweep; it is built only when a
/// phi needs the dominance test.
pub fn simplify_trivial_phis(function: &mut Function) -> usize {
    let mut removed = 0;
    let mut domtree: Option<Rc<DomTree>> = None;
    loop {
        let mut subst = ValueSubst::default();
        let mut dead = Vec::new();
        for block in function.block_ids() {
            for &phi in &function.block(block).phis {
                let InstKind::Phi { incomings } = &function.inst(phi).kind else {
                    continue;
                };
                let mut unique: Option<Value> = None;
                let mut saw_skipped = false;
                let mut trivial = true;
                for (value, _) in incomings {
                    let value = subst.resolve(*value);
                    if value == Value::Inst(phi) || value.is_undef() {
                        saw_skipped = true;
                        continue;
                    }
                    match unique {
                        None => unique = Some(value),
                        Some(u) if u == value => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if !trivial {
                    continue;
                }
                // Replacing the phi with an instruction result is only legal if
                // that definition dominates the phi's block; otherwise the
                // "trivial" phi (fed by undef on the other paths) is in fact
                // the SSA repair point and must stay.
                if saw_skipped {
                    if let Some(Value::Inst(def)) = unique {
                        let def_block = function.inst(def).block;
                        let domtree = domtree.get_or_insert_with(|| DomTree::compute(function));
                        if !domtree.strictly_dominates(def_block, block) {
                            continue;
                        }
                    }
                }
                let ty = function.inst(phi).ty;
                subst.insert(phi, unique.unwrap_or(Value::undef(ty)));
                dead.push(phi);
            }
        }
        if dead.is_empty() {
            return removed;
        }
        subst.apply(function);
        function.remove_insts(&dead);
        removed += dead.len();
    }
}

/// Merges phis within the same block that have identical incoming lists.
/// Returns the number of phis removed.
pub fn dedupe_identical_phis(function: &mut Function) -> usize {
    let mut subst = ValueSubst::default();
    let mut dead = Vec::new();
    for block in function.block_ids() {
        if function.block(block).phis.len() < 2 {
            continue;
        }
        let mut seen: HashMap<(Type, Vec<(Value, BlockId)>), InstId> = HashMap::new();
        for &phi in &function.block(block).phis {
            let data = function.inst(phi);
            let InstKind::Phi { incomings } = &data.kind else {
                continue;
            };
            let mut incomings: Vec<(Value, BlockId)> = incomings
                .iter()
                .map(|&(value, pred)| (subst.resolve(value), pred))
                .collect();
            incomings.sort_by_key(|(_, b)| *b);
            match seen.entry((data.ty, incomings)) {
                Entry::Occupied(canonical) => {
                    subst.insert(phi, Value::Inst(*canonical.get()));
                    dead.push(phi);
                }
                Entry::Vacant(slot) => {
                    slot.insert(phi);
                }
            }
        }
    }
    subst.apply(function);
    function.remove_insts(&dead);
    dead.len()
}

/// Absorbs phis that agree on every predecessor *up to `undef`* into a single
/// phi. `undef` may take any value, so two phis of the same type whose
/// incoming values never conflict (equal, or at least one side `undef`) can be
/// represented by one phi carrying the more-defined value on every edge.
/// Merged code is full of such pairs because each input function contributes
/// its own phi with `undef` on the other function's paths. Returns the number
/// of phis removed.
///
/// Each block's phis are paired up in order, their incomings read through
/// the absorptions made so far; the function is rewritten once at the end.
pub fn absorb_undef_compatible_phis(function: &mut Function) -> usize {
    let mut subst = ValueSubst::default();
    let mut dead = Vec::new();
    for block in function.block_ids().collect::<Vec<_>>() {
        // The block's phis, each with its incomings as they read once every
        // absorption so far is applied.
        let mut phis: Vec<(InstId, Vec<(Value, BlockId)>)> = function
            .block(block)
            .phis
            .iter()
            .filter_map(|&phi| match &function.inst(phi).kind {
                InstKind::Phi { incomings } => Some((
                    phi,
                    incomings
                        .iter()
                        .map(|&(value, pred)| (subst.resolve(value), pred))
                        .collect(),
                )),
                _ => None,
            })
            .collect();
        // Absorb the first compatible pair in (i, j) order while there is one.
        let (mut i, mut j) = (0, 1);
        while i + 1 < phis.len() {
            if j == phis.len() {
                i += 1;
                j = i + 1;
                continue;
            }
            let (a, b) = (phis[i].0, phis[j].0);
            let joined = if function.inst(a).ty == function.inst(b).ty {
                join_incomings(&phis[i].1, &phis[j].1)
            } else {
                None
            };
            let Some(joined) = joined else {
                j += 1;
                continue;
            };
            if let InstKind::Phi { incomings } = &mut function.inst_mut(a).kind {
                incomings.clone_from(&joined);
            }
            phis[i].1 = joined;
            phis.remove(j);
            subst.insert(b, Value::Inst(a));
            dead.push(b);
            // Absorbing only gives `a` more defined incomings, so a pair found
            // incompatible before stays so, unless one of its phis read `b`,
            // which now reads `a`. Only then does the search start over.
            let mut read_b = false;
            for (_, incomings) in &mut phis {
                for (value, _) in incomings {
                    if *value == Value::Inst(b) {
                        *value = Value::Inst(a);
                        read_b = true;
                    }
                }
            }
            if read_b {
                (i, j) = (0, 1);
            }
        }
    }
    subst.apply(function);
    function.remove_insts(&dead);
    dead.len()
}

/// Joins two incoming lists when they never disagree on a predecessor
/// (treating `undef` as a wildcard). Returns `None` on conflict.
fn join_incomings(
    a: &[(Value, ssa_ir::BlockId)],
    b: &[(Value, ssa_ir::BlockId)],
) -> Option<Vec<(Value, ssa_ir::BlockId)>> {
    let mut out: Vec<(Value, ssa_ir::BlockId)> = a.to_vec();
    for (vb, pred) in b {
        match out.iter_mut().find(|(_, p)| p == pred) {
            Some((va, _)) => {
                if va == vb || vb.is_undef() {
                    // keep va
                } else if va.is_undef() {
                    *va = *vb;
                } else {
                    return None;
                }
            }
            None => out.push((*vb, *pred)),
        }
    }
    Some(out)
}

/// Runs the default phi simplifications until nothing changes. Returns the
/// total number of phis removed.
///
/// [`absorb_undef_compatible_phis`] is intentionally *not* part of the default
/// pipeline: it implements the phi-coalescing flavour of clean-up that the
/// SalSSA merger applies explicitly, and keeping it separate preserves the
/// SalSSA-NoPC ablation of the paper's Figure 20.
pub fn simplify_phis(function: &mut Function) -> usize {
    let mut total = 0;
    loop {
        let n = simplify_trivial_phis(function) + dedupe_identical_phis(function);
        total += n;
        if n == 0 {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::verifier::assert_valid;
    use ssa_ir::{parse_function, print_function};

    #[test]
    fn removes_single_value_phi() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ %x, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        let removed = simplify_trivial_phis(&mut f);
        assert_eq!(removed, 1);
        assert_valid(&f);
        let join = f.block_by_name("join").unwrap();
        assert!(f.block(join).phis.is_empty());
    }

    #[test]
    fn keeps_meaningful_phi() {
        let text = r#"
define i32 @f(i1 %c, i32 %x, i32 %y) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ %y, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(simplify_trivial_phis(&mut f), 0);
        let join = f.block_by_name("join").unwrap();
        assert_eq!(f.block(join).phis.len(), 1);
    }

    #[test]
    fn undef_incomings_are_ignored() {
        let text = r#"
define i32 @f(i1 %c, i32 %x) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ undef, %b ]
  ret i32 %p
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(simplify_trivial_phis(&mut f), 1);
        assert_valid(&f);
    }

    #[test]
    fn dedupes_identical_phis() {
        let text = r#"
define i32 @f(i1 %c, i32 %x, i32 %y) {
entry:
  br i1 %c, label %a, label %b
a:
  br label %join
b:
  br label %join
join:
  %p = phi i32 [ %x, %a ], [ %y, %b ]
  %q = phi i32 [ %x, %a ], [ %y, %b ]
  %s = add i32 %p, %q
  ret i32 %s
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(dedupe_identical_phis(&mut f), 1);
        assert_valid(&f);
        let join = f.block_by_name("join").unwrap();
        assert_eq!(f.block(join).phis.len(), 1);
    }

    /// `%q` conflicts with `%p` only through `%n`; once `%n` is absorbed
    /// into `%m`, `%q` reads `%m` and the earlier pair `%p`/`%q` becomes
    /// absorbable.
    #[test]
    fn absorption_revisits_pairs_that_read_the_absorbed_phi() {
        let text = r#"
define i32 @f(i1 %c, i32 %x, i32 %y, i32 %z) {
entry:
  br label %loop
loop:
  %p = phi i32 [ %x, %entry ], [ %m, %loop ]
  %q = phi i32 [ %x, %entry ], [ %n, %loop ]
  %m = phi i32 [ %y, %entry ], [ undef, %loop ]
  %n = phi i32 [ undef, %entry ], [ %z, %loop ]
  br i1 %c, label %loop, label %exit
exit:
  %s = add i32 %p, %q
  %t = add i32 %s, %m
  ret i32 %t
}
"#;
        let mut f = parse_function(text).unwrap();
        assert_eq!(absorb_undef_compatible_phis(&mut f), 2);
        assert_valid(&f);
        assert_eq!(
            print_function(&f),
            "\
define i32 @f(i1 %c, i32 %x, i32 %y, i32 %z) {
entry:
  br label %loop

loop:
  %p = phi i32 [ %x, %entry ], [ %m, %loop ]
  %m = phi i32 [ %y, %entry ], [ %z, %loop ]
  br i1 %c, label %loop, label %exit

exit:
  %s = add i32 %p, %p
  %t = add i32 %s, %m
  ret i32 %t
}
"
        );
    }

    #[test]
    fn chains_of_trivial_phis_collapse() {
        let text = r#"
define i32 @f(i32 %x) {
entry:
  br label %a
a:
  %p = phi i32 [ %x, %entry ]
  br label %b
b:
  %q = phi i32 [ %p, %a ]
  ret i32 %q
}
"#;
        let mut f = parse_function(text).unwrap();
        let removed = simplify_phis(&mut f);
        assert_eq!(removed, 2);
        assert_valid(&f);
    }
}
