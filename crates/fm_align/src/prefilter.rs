//! Admissible candidate pre-filter: a cheap upper bound on merge profit.
//!
//! The planner's profit scoring is expensive — codegen, SSA repair, cleanup
//! and verification per candidate pair. Most ranked candidates are hopeless,
//! and for those a histogram argument proves it without aligning anything:
//!
//! Any alignment matches at most `Σ_c min(count₁[c], count₂[c])` entries per
//! mergeability class `c` (a matched pair must share a class, and a class
//! with `k` occurrences on one side can appear in at most `k` matched
//! pairs). Because every byte-relevant field of an instruction is part of
//! its class, all members of a class encode to the same `β_c` bytes on a
//! target, so the bytes deduplicated by merging are at most
//!
//! ```text
//! shared = Σ_c min(count₁[c], count₂[c]) · β_c
//! ```
//!
//! The merged function keeps at least `overhead + b₁ + b₂ − shared` bytes
//! (each matched pair collapses to one instruction of the same class;
//! operand divergence only adds selects and branches), and each thunk costs
//! exactly `overhead + call + ret`. With `sᵢ = overhead + bᵢ`:
//!
//! ```text
//! profit = s₁ + s₂ − merged − thunk₁ − thunk₂
//!        ≤ shared − (overhead + 2·(call + ret))
//! ```
//!
//! Post-merge cleanup (DCE, constant folding, CFG simplification) can shrink
//! the merged body *below* `overhead + b₁ + b₂ − shared`, so the raw
//! inequality is not admissible on functions carrying foldable code — real
//! corpora contain constant branches whose elimination manufactures "profit"
//! the histogram cannot see. The filter therefore charges each function its
//! **foldable bytes** `foldᵢ` — how much the same cleanup pipeline shrinks a
//! solo clone of `fᵢ` (cached per function body, see
//! [`ClassTable::foldable_bytes`]). Whatever cleanup strips from a
//! function's own code inside the merged body it also strips from the solo
//! clone: merging never makes side-exclusive code more foldable (operand
//! divergence only introduces selects, which block folding rather than
//! enable it). With `removed ≤ fold₁ + fold₂` the admissible bound is
//!
//! ```text
//! profit ≤ shared + fold₁ + fold₂ − (overhead + 2·(call + ret))
//! ```
//!
//! and the pair is rejected only when that right-hand side is ≤ 0.
//! Structurally-equal pairs (the ODR-dedup fast path, whose profit ignores
//! the merged body entirely) are always passed through, and the
//! planner-equivalence suites plus the `gen-corpus` CI smoke enforce that
//! the filter changes no committed record on real workloads.
//!
//! A second, optional stage sharpens the bound for pairs that clear the
//! histogram test only narrowly: one score-only (optionally banded) DP —
//! orders of magnitude cheaper than codegen-based scoring — yields the exact
//! optimal match count `M`, and `M · max_c β_c` replaces the histogram
//! intersection in the same inequality (the fold terms stay).

use crate::align::{
    align_score_banded_in, class_table_of, with_scratch, AlignmentStats, Band, ClassTable,
    MergeClass,
};
use ssa_ir::{Function, InstKind};
use ssa_passes::Target;
use std::collections::HashMap;

/// Gray-zone factor of the second stage: the exact score-only DP runs when
/// the histogram bound exceeds the rejection margin by at most this factor.
pub const PREFILTER_GRAY_FACTOR: u64 = 4;

/// The fixed byte margin a pair must beat to be profitable:
/// `overhead + 2·(call + ret)` — the merged function's own overhead plus two
/// thunks (each exactly `overhead + call + ret`, see the driver's thunk
/// builder). Derived from the live code-size tables so it can never drift
/// from the cost model.
pub fn profit_margin_bytes(target: Target) -> u64 {
    let call = target.inst_bytes(&InstKind::Call {
        callee: String::new(),
        args: Vec::new(),
    });
    let ret = target.inst_bytes(&InstKind::Ret { value: None });
    (target.function_overhead_bytes() + 2 * (call + ret)) as u64
}

/// Upper bound on the number of entries *any* alignment of the two functions
/// can match: the class-histogram intersection `Σ_c min(count₁, count₂)`.
/// Admissibility (`align(..).stats.matches ≤` this) is proptest-enforced.
pub fn match_upper_bound(f1: &Function, f2: &Function) -> u64 {
    let (t1, _) = class_table_of(f1);
    let (t2, _) = class_table_of(f2);
    intersect(&t1, &t2, Target::X86Like, |c1, c2, _| c1.min(c2) as u64)
}

/// Byte-weighted histogram intersection on `target`, plus the largest
/// per-class byte cost among shared classes (the per-match multiplier of the
/// exact second stage).
fn shared_byte_bound(t1: &ClassTable, t2: &ClassTable, target: Target) -> (u64, u64) {
    let mut beta_max = 0u64;
    let shared = intersect(t1, t2, target, |c1, c2, beta| {
        beta_max = beta_max.max(beta);
        c1.min(c2) as u64 * beta
    });
    (shared, beta_max)
}

/// Folds `f(count1, count2, bytes)` over the classes common to both tables.
/// Only the distinct classes are hashed — never the O(n + m) entries.
fn intersect(
    t1: &ClassTable,
    t2: &ClassTable,
    target: Target,
    mut f: impl FnMut(u32, u32, u64) -> u64,
) -> u64 {
    let map: HashMap<&MergeClass, u32> = t1.classes.iter().zip(0u32..).collect();
    let mut total = 0u64;
    for (j, class) in t2.classes.iter().enumerate() {
        if let Some(&i) = map.get(class) {
            let beta = t1.class_bytes(i as usize, target);
            total = total.saturating_add(f(t1.counts[i as usize], t2.counts[j], beta));
        }
    }
    total
}

/// One pre-filter verdict and the work it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefilterCheck {
    /// `true` when the pair provably cannot be profitable.
    pub rejects: bool,
    /// Class tables the check built, of the two it looked up.
    pub class_table_builds: u32,
    /// The gray-zone score DP, when the check ran one.
    pub alignment: Option<AlignmentStats>,
}

/// `true` when the pair provably cannot be profitable on `target` and the
/// planner may skip codegen-based scoring for it. Structurally-equal pairs
/// (ODR dedup) are never rejected. `band` shapes the optional second-stage
/// score DP; it does not affect the verdict's value, only its cost.
pub fn prefilter_rejects(f1: &Function, f2: &Function, target: Target, band: Option<Band>) -> bool {
    prefilter_check(f1, f2, target, band).rejects
}

/// [`prefilter_rejects`], also returning the class-table builds and the
/// gray-zone alignment the check made, for the run to count.
pub fn prefilter_check(
    f1: &Function,
    f2: &Function,
    target: Target,
    band: Option<Band>,
) -> PrefilterCheck {
    let (t1, built1) = class_table_of(f1);
    let (t2, built2) = class_table_of(f2);
    let mut check = PrefilterCheck {
        rejects: false,
        class_table_builds: u32::from(built1) + u32::from(built2),
        alignment: None,
    };
    let margin = profit_margin_bytes(target);
    let (shared, beta_max) = shared_byte_bound(&t1, &t2, target);
    if shared > PREFILTER_GRAY_FACTOR * margin {
        // Clearly promising: no rejection is possible (fold terms only grow
        // the bound), so don't even price the cleanup slack.
        return check;
    }
    // Cleanup slack: bytes the post-merge cleanup could strip from each
    // side's own code, priced on a cached solo clone-and-clean.
    let fold = t1.foldable_bytes(f1, target) + t2.foldable_bytes(f2, target);
    if shared + fold <= margin {
        check.rejects = !ssa_ir::structurally_equal(f1, f2);
        return check;
    }
    if beta_max > 0 && shared + fold <= PREFILTER_GRAY_FACTOR * margin {
        // Gray zone: the histogram bound barely clears the margin. One
        // score-only DP gives the exact optimal match count, which sharpens
        // `shared` to `M · β_max` in the same inequality.
        let stats =
            with_scratch(|scratch| align_score_banded_in(scratch, f1, &t1.seq, f2, &t2.seq, band));
        check.alignment = Some(stats);
        if stats.matches as u64 * beta_max + fold <= margin {
            check.rejects = !ssa_ir::structurally_equal(f1, f2);
        }
    }
    check
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::align;
    use crate::linearize::linearize;
    use ssa_ir::parse_function;

    /// Chained live body: each instruction consumes the previous result and
    /// the last value is returned, so cleanup strips nothing (fold = 0) and
    /// the histogram bound is exercised at full strength.
    fn chain(name: &str, ops: &[(&str, u32)]) -> Function {
        let mut s = format!("define i32 @{name}(i32 %x) {{\nentry:\n");
        let mut prev = "%x".to_string();
        for (i, (op, k)) in ops.iter().enumerate() {
            s.push_str(&format!("  %v{i} = {op} i32 {prev}, {k}\n"));
            prev = format!("%v{i}");
        }
        s.push_str(&format!("  ret i32 {prev}\n}}"));
        parse_function(&s).unwrap()
    }

    /// Dead body: every instruction computes from `%x` but `%x` itself is
    /// returned, so the whole chain is DCE-fodder (fold ≈ the entire body).
    fn dead(name: &str, op: &str, n: u32) -> Function {
        let mut s = format!("define i32 @{name}(i32 %x) {{\nentry:\n");
        for i in 0..n {
            s.push_str(&format!("  %d{i} = {op} i32 %x, {}\n", i + 1));
        }
        s.push_str("  ret i32 %x\n}");
        parse_function(&s).unwrap()
    }

    #[test]
    fn margin_is_positive_on_both_targets() {
        for target in [Target::X86Like, Target::ThumbLike] {
            assert!(profit_margin_bytes(target) > 0);
        }
        // Thumb's compact encodings must not produce a *larger* margin.
        assert!(profit_margin_bytes(Target::ThumbLike) <= profit_margin_bytes(Target::X86Like));
    }

    #[test]
    fn match_upper_bound_is_admissible_on_sample_pairs() {
        let adds: Vec<(&str, u32)> = (0..12).map(|i| ("add", i + 1)).collect();
        let mixed: Vec<(&str, u32)> = (0..12)
            .map(|i| (if i % 3 == 0 { "add" } else { "mul" }, i + 1))
            .collect();
        let f1 = chain("p", &adds);
        let f2 = chain("q", &mixed);
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let a = align(&f1, &s1, &f2, &s2);
        assert!(a.stats.matches as u64 <= match_upper_bound(&f1, &f2));
        // Self-alignment saturates the bound exactly.
        let self_a = align(&f1, &s1, &f1, &s1);
        assert_eq!(self_a.stats.matches as u64, match_upper_bound(&f1, &f1));
    }

    #[test]
    fn structurally_equal_pairs_are_never_rejected() {
        // Tiny bodies: shared is far below the margin, but ODR dedup still
        // profits, so the filter must pass the pair through.
        let f1 = chain("dup1", &[("add", 1)]);
        let f2 = chain("dup2", &[("add", 1)]);
        assert!(ssa_ir::structurally_equal(&f1, &f2));
        for target in [Target::X86Like, Target::ThumbLike] {
            assert!(!prefilter_rejects(&f1, &f2, target, None));
        }
    }

    #[test]
    fn class_disjoint_pairs_are_rejected() {
        let adds: Vec<(&str, u32)> = (0..6).map(|i| ("add", i + 1)).collect();
        let muls: Vec<(&str, u32)> = (0..6).map(|i| ("mul", i + 1)).collect();
        let f1 = chain("lhs", &adds);
        let f2 = chain("rhs", &muls);
        // Fully live bodies (fold = 0) whose only shared classes are the
        // entry label and the ret; their bytes cannot clear overhead + two
        // thunks.
        assert!(prefilter_rejects(&f1, &f2, Target::X86Like, None));
    }

    #[test]
    fn similar_pairs_survive_the_filter() {
        let adds: Vec<(&str, u32)> = (0..40).map(|i| ("add", i + 1)).collect();
        let mut shifted = adds.clone();
        shifted[20] = ("mul", 7);
        let f1 = chain("big1", &adds);
        let f2 = chain("big2", &shifted);
        assert!(!ssa_ir::structurally_equal(&f1, &f2));
        assert!(!prefilter_rejects(&f1, &f2, Target::X86Like, None));
        assert!(!prefilter_rejects(&f1, &f2, Target::ThumbLike, None));
    }

    #[test]
    fn foldable_bodies_disable_the_histogram_rejection() {
        // Same class-disjoint shape as `class_disjoint_pairs_are_rejected`,
        // but every instruction is dead: cleanup folds both bodies to a bare
        // `ret`, so the merged body can shrink far below the histogram bound
        // and the filter must NOT reject — the fold terms keep it admissible.
        let f1 = dead("deadlhs", "add", 6);
        let f2 = dead("deadrhs", "mul", 6);
        assert!(!prefilter_rejects(&f1, &f2, Target::X86Like, None));
        assert!(!prefilter_rejects(&f1, &f2, Target::ThumbLike, None));
    }
}
