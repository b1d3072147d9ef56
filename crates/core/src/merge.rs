//! Pair merging: the full SalSSA pipeline for two functions
//! (alignment → CFG code generation → operand assignment → SSA repair with
//! phi-node coalescing → clean-up), together with stage timers and the
//! instrumentation consumed by the experiments.
//!
//! The alignment stage runs `fm_align`'s linear-space engine: common
//! suffixes are matched without any DP, and the traceback is the
//! divide-and-conquer tier whose output is byte-identical to the classic
//! full-matrix formulation while holding only O(m · log n) bytes live. The
//! planner's scoring therefore never allocates a quadratic score matrix,
//! per-candidate-pair memory is bounded by the sequence lengths, and
//! [`AlignmentStats`] records both the live peak and the footprint the full
//! matrix would have had.

use crate::codegen;
use crate::options::MergeOptions;
use crate::ssa_repair::{self, RepairStats};
use fm_align::{align_banded, linearize, AlignmentStats, Band};
use ssa_ir::verifier;
use ssa_ir::Function;
use std::time::Duration;

/// The result of merging one pair of functions.
#[derive(Debug)]
pub struct PairMerge {
    /// The merged function (first parameter is the `i1` function identifier).
    pub merged: Function,
    /// Alignment instrumentation (sequence lengths, matrix bytes, matches).
    pub alignment: AlignmentStats,
    /// SSA-repair statistics (broken defs, coalesced pairs, phis inserted).
    pub repair: RepairStats,
    /// Mapping statistics from code generation.
    pub selects_inserted: usize,
    /// Label-selection blocks created.
    pub label_selections: usize,
    /// Time spent in sequence alignment.
    pub align_time: Duration,
    /// Time spent in code generation, SSA repair and clean-up.
    pub codegen_time: Duration,
    /// Sizes of the two inputs (IR instructions) at merge time.
    pub input_sizes: (usize, usize),
    /// Mapping from `f1` parameter indices to merged parameter indices.
    pub param_f1: Vec<u32>,
    /// Mapping from `f2` parameter indices to merged parameter indices.
    pub param_f2: Vec<u32>,
}

impl PairMerge {
    /// Size of the merged function in IR instructions.
    pub fn merged_size(&self) -> usize {
        self.merged.num_insts()
    }
}

/// The banding corridor for a pair under `options`, widened by the
/// fingerprint/MinHash `distance` hint when discovery produced one (a larger
/// distance means more shape drift, so the corridor grows with it).
fn band_for(options: &MergeOptions, distance: Option<u64>) -> Option<Band> {
    options.band.map(|slack| Band::from_hint(slack, distance))
}

/// A pair that was aligned but not merged: the signatures are incompatible,
/// or the merged body fails verification (which would make the merge unsafe
/// to commit). Carries the stats and stage times of the work it ran, which
/// the run still counts.
#[derive(Debug, Clone, Copy)]
pub struct Refused {
    /// Instrumentation of the alignment the refused merge ran.
    pub alignment: AlignmentStats,
    /// Time spent in sequence alignment.
    pub align_time: Duration,
    /// Time spent in code generation before the pair was refused.
    pub codegen_time: Duration,
}

/// Merges `f1` and `f2` with SalSSA. Returns `None` when the pair cannot be
/// merged (see [`Refused`]).
pub fn merge_pair(
    f1: &Function,
    f2: &Function,
    options: &MergeOptions,
    merged_name: &str,
) -> Option<PairMerge> {
    merge_pair_with_distance(f1, f2, options, merged_name, None).ok()
}

/// [`merge_pair`] with the discovery-time fingerprint distance of the pair,
/// used to size the alignment band (the distance affects only the cost of
/// alignment, never its result). A refused pair reports the alignment it
/// ran.
pub fn merge_pair_with_distance(
    f1: &Function,
    f2: &Function,
    options: &MergeOptions,
    merged_name: &str,
    distance: Option<u64>,
) -> Result<PairMerge, Refused> {
    let align_span = telemetry::timed_span("merge.align");
    let seq1 = linearize(f1);
    let seq2 = linearize(f2);
    let alignment = align_banded(f1, &seq1, f2, &seq2, band_for(options, distance));
    let align_time = align_span.stop();
    let refused = |codegen_time| Refused {
        alignment: alignment.stats,
        align_time,
        codegen_time,
    };

    let gen_span = telemetry::timed_span("merge.codegen");
    let Some((mut merged, maps)) = codegen::generate(f1, f2, &alignment, options, merged_name)
    else {
        return Err(refused(gen_span.stop()));
    };
    // Collapse the per-entry block chains before SSA repair so phi-nodes are
    // only placed at genuine join points of the merged CFG.
    ssa_passes::simplify_cfg::simplify(&mut merged);
    let repair = ssa_repair::repair(&mut merged, &maps, options.phi_coalescing);
    ssa_passes::cleanup_function(&mut merged);
    if options.phi_coalescing {
        // Coalesce the per-function phi copies that never conflict (the
        // phi-level counterpart of Section 4.4), then clean up the selects
        // whose arms have become identical.
        ssa_passes::phi_dedup::absorb_undef_compatible_phis(&mut merged);
        ssa_passes::cleanup_function(&mut merged);
    }
    let codegen_time = gen_span.stop();

    if !verifier::verify_function(&merged).is_empty() {
        return Err(refused(codegen_time));
    }

    Ok(PairMerge {
        merged,
        alignment: alignment.stats,
        repair,
        selects_inserted: maps.selects_inserted,
        label_selections: maps.label_selections,
        align_time,
        codegen_time,
        input_sizes: (f1.num_insts(), f2.num_insts()),
        param_f1: maps.param_f1,
        param_f2: maps.param_f2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_function;
    use ssa_ir::verifier::assert_valid;

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
    fn motivating_example_merges_and_verifies() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let merge = merge_pair(&f1, &f2, &MergeOptions::default(), "merged").unwrap();
        assert_valid(&merge.merged);
        // The essence of the merge: the shared calls (@start, @body, @end) are
        // emitted exactly once, @other stays exclusive to f1 — four call sites
        // instead of the seven present in the two inputs.
        let calls = merge
            .merged
            .inst_ids()
            .filter(|i| matches!(merge.merged.inst(*i).kind, ssa_ir::InstKind::Call { .. }))
            .count();
        assert_eq!(calls, 4);
        // The control-flow merging adds some glue (selects, phis, dispatch
        // branches); the result must stay well below twice the bigger input.
        let sum = f1.num_insts() + f2.num_insts();
        assert!(
            merge.merged_size() < sum + 6,
            "merged {} too large vs {}",
            merge.merged_size(),
            sum
        );
    }

    #[test]
    fn identical_functions_merge_to_roughly_one_copy() {
        let f1 = parse_function(F1).unwrap();
        let mut f2 = parse_function(F1).unwrap();
        f2.name = "copy".into();
        let merge = merge_pair(&f1, &f2, &MergeOptions::default(), "merged").unwrap();
        assert_valid(&merge.merged);
        // Identical code: merged size should be close to a single input, with
        // a small allowance for the entry dispatch and phi copies.
        assert!(
            merge.merged_size() <= f1.num_insts() + 3,
            "merged {} vs input {}",
            merge.merged_size(),
            f1.num_insts()
        );
        assert_eq!(merge.label_selections, 0);
    }

    #[test]
    fn stage_timers_and_stats_are_populated() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let merge = merge_pair(&f1, &f2, &MergeOptions::default(), "merged").unwrap();
        assert!(merge.alignment.cells > 0);
        assert!(merge.alignment.matrix_bytes > 0);
        assert!(merge.alignment.matches > 0);
        assert_eq!(merge.input_sizes, (f1.num_insts(), f2.num_insts()));
    }

    #[test]
    fn incompatible_signatures_are_rejected() {
        let a = parse_function("define i32 @a(i32 %x) {\nentry:\n  ret i32 %x\n}").unwrap();
        let b = parse_function("define void @b(i32 %x) {\nentry:\n  ret void\n}").unwrap();
        assert!(merge_pair(&a, &b, &MergeOptions::default(), "m").is_none());
        // The refusal comes after aligning, and reports that alignment.
        let refused =
            merge_pair_with_distance(&a, &b, &MergeOptions::default(), "m", None).unwrap_err();
        assert_eq!(refused.alignment.len_left, 2);
        assert_eq!(refused.alignment.len_right, 2);
    }

    #[test]
    fn no_phi_coalescing_produces_larger_or_equal_output() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let with = merge_pair(&f1, &f2, &MergeOptions::default(), "m1").unwrap();
        let without = merge_pair(&f1, &f2, &MergeOptions::without_phi_coalescing(), "m2").unwrap();
        assert!(with.merged_size() <= without.merged_size());
    }

    #[test]
    fn banded_and_unbanded_merges_are_identical() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let unbanded = MergeOptions {
            band: None,
            ..MergeOptions::default()
        };
        let a = merge_pair(&f1, &f2, &MergeOptions::default(), "m").unwrap();
        let b = merge_pair(&f1, &f2, &unbanded, "m").unwrap();
        let render = ssa_ir::printer::print_function;
        assert_eq!(render(&a.merged), render(&b.merged));
        // A distance hint widens the corridor but cannot change the result.
        let c = merge_pair_with_distance(&f1, &f2, &MergeOptions::default(), "m", Some(5)).unwrap();
        assert_eq!(render(&a.merged), render(&c.merged));
    }

    #[test]
    fn param_maps_cover_all_parameters() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let merge = merge_pair(&f1, &f2, &MergeOptions::default(), "m").unwrap();
        let (p1, p2, n) = (&merge.param_f1, &merge.param_f2, merge.merged.params.len());
        assert_eq!(p1.len(), f1.params.len());
        assert_eq!(p2.len(), f2.params.len());
        assert!(p1.iter().chain(p2.iter()).all(|i| (*i as usize) < n));
    }
}
