//! Differential tests of the tiered alignment engine: the linear-space
//! divide-and-conquer traceback must be *byte-identical* to the textbook
//! full-matrix formulation ([`full_matrix`], kept here exactly for this
//! purpose), and the score-only rolling tier must report the same optimal
//! match count — on arbitrary generated function pairs, their
//! register-demoted variants, and the empty/one-sided/all-unmergeable edges.

use fm_align::{
    align, align_banded, align_score, align_score_banded, linearize, match_upper_bound, mergeable,
    prefilter_rejects, AlignedPair, Band, SeqEntry,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use ssa_ir::{parse_function, Function};
use ssa_passes::codesize::Target;
use ssa_passes::reg2mem;
use workloads::{generate_function, make_clone, Divergence, FunctionSpec};

fn generated(seed: u64, size: usize) -> Function {
    let spec = FunctionSpec {
        name: format!("gen{seed}"),
        size,
        ..FunctionSpec::default()
    };
    generate_function(&spec, &mut SmallRng::seed_from_u64(seed))
}

/// The historical full-matrix Needleman–Wunsch alignment, the oracle of
/// these tests: fills the whole `(n + 1) × (m + 1)` score matrix, then
/// traces back from the bottom-right corner, preferring a match, then a
/// left-only step, then a right-only one. Returns the pairs and the matrix
/// footprint in bytes.
fn full_matrix(
    f1: &Function,
    s1: &[SeqEntry],
    f2: &Function,
    s2: &[SeqEntry],
) -> (Vec<AlignedPair>, u64) {
    let (n, m) = (s1.len(), s2.len());
    let at = |i: usize, j: usize| i * (m + 1) + j;
    let matches = |i: usize, j: usize| mergeable(f1, s1[i - 1], f2, s2[j - 1]);
    let mut score = vec![0u32; (n + 1) * (m + 1)];
    for i in 1..=n {
        for j in 1..=m {
            let diag = if matches(i, j) {
                score[at(i - 1, j - 1)] + 1
            } else {
                0
            };
            score[at(i, j)] = score[at(i - 1, j)].max(score[at(i, j - 1)]).max(diag);
        }
    }
    let mut pairs = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    while i > 0 || j > 0 {
        let cur = score[at(i, j)];
        if i > 0 && j > 0 && matches(i, j) && cur == score[at(i - 1, j - 1)] + 1 {
            pairs.push(AlignedPair::Match(s1[i - 1], s2[j - 1]));
            (i, j) = (i - 1, j - 1);
        } else if i > 0 && cur == score[at(i - 1, j)] {
            pairs.push(AlignedPair::OnlyLeft(s1[i - 1]));
            i -= 1;
        } else {
            pairs.push(AlignedPair::OnlyRight(s2[j - 1]));
            j -= 1;
        }
    }
    pairs.reverse();
    (pairs, (score.len() * std::mem::size_of::<u32>()) as u64)
}

/// Asserts all three tiers agree on a pair: identical pairs for the two
/// traceback tiers, identical match counts for all three.
fn assert_tiers_agree(
    f1: &Function,
    s1: &[SeqEntry],
    f2: &Function,
    s2: &[SeqEntry],
) -> Result<(), TestCaseError> {
    let (reference, reference_bytes) = full_matrix(f1, s1, f2, s2);
    let reference_matches = reference
        .iter()
        .filter(|p| matches!(p, AlignedPair::Match(..)))
        .count();
    let linear = align(f1, s1, f2, s2);
    prop_assert!(
        linear.pairs == reference,
        "divide-and-conquer traceback diverged from the full matrix:\n  linear: {:?}\n  reference: {:?}",
        linear.pairs,
        reference
    );
    prop_assert_eq!(linear.stats.matches, reference_matches);
    let score = align_score(f1, s1, f2, s2);
    prop_assert_eq!(score.matches, reference_matches);
    // Linear-space invariant: the live peak is O(m · log n) — at most one
    // seed row per recursion level plus a few working rows — never the
    // quadratic matrix. (For shallow-but-wide pairs the handful of rows can
    // exceed the tiny full matrix, so the bound is structural, not
    // relative.)
    let n = s1.len() as u64;
    let m = s2.len() as u64;
    let levels = 64 - n.max(2).leading_zeros() as u64;
    prop_assert!(
        linear.stats.matrix_bytes <= 4 * (m + 1) * (levels + 4),
        "live peak {} exceeds the O(m log n) bound for n={n}, m={m}",
        linear.stats.matrix_bytes
    );
    prop_assert_eq!(linear.stats.full_matrix_bytes, reference_bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated function vs. a mutated clone — the planner's actual
    /// workload shape — in both orientations.
    #[test]
    fn clone_pairs_align_identically_across_tiers(
        seed in 0u64..300,
        size in 10usize..60,
        divergence in 0usize..3,
    ) {
        let base = generated(seed, size);
        let divergence = match divergence {
            0 => Divergence::low(),
            1 => Divergence::medium(),
            _ => Divergence::high(),
        };
        let clone = make_clone(
            &base,
            "clone",
            divergence,
            &mut SmallRng::seed_from_u64(seed.wrapping_mul(77)),
            &["alt_helper".to_string()],
        );
        let s1 = linearize(&base);
        let s2 = linearize(&clone);
        assert_tiers_agree(&base, &s1, &clone, &s2)?;
        assert_tiers_agree(&clone, &s2, &base, &s1)?;
    }

    /// Unrelated generated functions (no clone relationship) still align
    /// identically — this exercises cores with little trimming.
    #[test]
    fn unrelated_pairs_align_identically_across_tiers(
        seed in 0u64..200,
        size1 in 8usize..50,
        size2 in 8usize..50,
    ) {
        let f1 = generated(seed, size1);
        let f2 = generated(seed.wrapping_add(10_000), size2);
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        assert_tiers_agree(&f1, &s1, &f2, &s2)?;
    }

    /// Register-demoted pairs — the FMSA input shape whose doubled sequences
    /// are the paper's quadratic-blowup case — must also be exact, and the
    /// live peak must undercut the full matrix by a wide margin once the
    /// sequences are long enough.
    #[test]
    fn demoted_pairs_align_identically_and_stay_linear(
        seed in 0u64..100,
        size in 25usize..60,
    ) {
        let mut f1 = generated(seed, size);
        let mut f2 = make_clone(
            &f1,
            "clone",
            Divergence::medium(),
            &mut SmallRng::seed_from_u64(seed ^ 0xfeed),
            &[],
        );
        reg2mem::demote_function(&mut f1);
        reg2mem::demote_function(&mut f2);
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        assert_tiers_agree(&f1, &s1, &f2, &s2)?;
        let linear = align(&f1, &s1, &f2, &s2);
        if s1.len().min(s2.len()) >= 64 {
            // At proptest sizes (~70-entry cores) the reduction is already
            // severalfold; the >= 10x criterion is asserted at realistic
            // sizes by the `alignment` bench and the CI JSON smoke.
            prop_assert!(
                linear.stats.matrix_bytes * 5 <= linear.stats.full_matrix_bytes,
                "live {} vs full {}",
                linear.stats.matrix_bytes,
                linear.stats.full_matrix_bytes
            );
        }
    }

    /// Banded alignment is byte-identical to the exact tier at *every*
    /// corridor width — tight corridors that saturate and fall back, wide
    /// corridors that cover the matrix, and distance-widened hints alike.
    #[test]
    fn banded_alignment_is_identical_at_every_width(
        seed in 0u64..200,
        size in 10usize..50,
        slack in 0u32..48,
        distance_raw in 0u64..65,
    ) {
        let base = generated(seed, size);
        let clone = make_clone(
            &base,
            "clone",
            Divergence::medium(),
            &mut SmallRng::seed_from_u64(seed ^ 0xabcd),
            &["alt_helper".to_string()],
        );
        let s1 = linearize(&base);
        let s2 = linearize(&clone);
        let reference = align(&base, &s1, &clone, &s2);
        // 64 doubles as "no hint" so one range covers both constructors.
        let distance = (distance_raw < 64).then_some(distance_raw);
        let band = match distance {
            Some(d) => Band::from_hint(slack, Some(d)),
            None => Band::new(slack),
        };
        let banded = align_banded(&base, &s1, &clone, &s2, Some(band));
        prop_assert!(
            banded.pairs == reference.pairs,
            "banded traceback diverged at slack {} distance {:?}",
            slack,
            distance
        );
        prop_assert_eq!(banded.stats.matches, reference.stats.matches);
        let banded_score = align_score_banded(&base, &s1, &clone, &s2, Some(band));
        prop_assert_eq!(banded_score.matches, reference.stats.matches);
    }

    /// The class-histogram intersection is an admissible bound: no alignment
    /// of any generated pair ever matches more entries than it promises.
    /// This is the inequality the planner's pre-filter rests on.
    #[test]
    fn match_upper_bound_is_admissible(
        seed in 0u64..200,
        size1 in 8usize..50,
        size2 in 8usize..50,
        related in 0usize..2,
    ) {
        let f1 = generated(seed, size1);
        let f2 = if related == 1 {
            make_clone(
                &f1,
                "clone",
                Divergence::high(),
                &mut SmallRng::seed_from_u64(seed ^ 0x5eed),
                &[],
            )
        } else {
            generated(seed.wrapping_add(20_000), size2)
        };
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let a = align(&f1, &s1, &f2, &s2);
        prop_assert!(a.stats.matches as u64 <= match_upper_bound(&f1, &f2));
    }

    /// A prefilter-rejected pair is never profitable: merging it anyway and
    /// pricing the result with the real cost model (merged body + two thunks,
    /// exactly what the driver commits on) always yields profit <= 0, on both
    /// targets and at every band width.
    #[test]
    fn prefilter_rejected_pairs_are_never_profitable(
        seed in 0u64..120,
        size1 in 8usize..40,
        size2 in 8usize..40,
        slack in 0u32..32,
    ) {
        use salssa::{estimate_profit, merge_pair, MergeOptions};
        let f1 = generated(seed, size1);
        let f2 = generated(seed.wrapping_add(30_000), size2);
        for target in [Target::X86Like, Target::ThumbLike] {
            if !prefilter_rejects(&f1, &f2, target, Some(Band::new(slack))) {
                continue;
            }
            let options = MergeOptions { target, ..MergeOptions::default() };
            if let Some(pair) = merge_pair(&f1, &f2, &options, "merged.pf") {
                let profit = estimate_profit(&f1, &f2, &pair, target);
                prop_assert!(
                    profit <= 0,
                    "prefilter rejected a pair worth {profit} bytes on {target:?}"
                );
            }
        }
    }

    /// One-sided and truncated-slice alignments (the API accepts arbitrary
    /// subslices) stay exact.
    #[test]
    fn partial_slices_align_identically(
        seed in 0u64..150,
        size in 10usize..40,
        cut1 in 0usize..100,
        cut2 in 0usize..100,
    ) {
        let f1 = generated(seed, size);
        let f2 = generated(seed.wrapping_add(5_000), size);
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let s1 = &s1[..cut1 % (s1.len() + 1)];
        let s2 = &s2[..cut2 % (s2.len() + 1)];
        assert_tiers_agree(&f1, s1, &f2, s2)?;
    }
}

/// The score-only tier's live memory is bounded by the *shorter* sequence:
/// growing the longer side must not grow the DP rows (the satellite
/// assertion, at integration level).
#[test]
fn score_only_peak_tracks_the_shorter_sequence() {
    let short = generated(1, 10);
    let medium = generated(2, 60);
    let long = generated(3, 200);
    let ss = linearize(&short);
    let sm = linearize(&medium);
    let sl = linearize(&long);
    let peak_medium = align_score(&medium, &sm, &short, &ss).matrix_bytes;
    let peak_long = align_score(&long, &sl, &short, &ss).matrix_bytes;
    assert!(sl.len() > 2 * sm.len(), "workload generator changed shape");
    assert!(
        peak_long <= peak_medium.max(8 * (ss.len() as u64 + 1)),
        "score-only peak grew with the longer side: {peak_medium} -> {peak_long}"
    );
}

/// Edge cases the DP must not special-case wrongly: empty sequences, one
/// empty side, and instruction-only slices with no mergeable pair at all
/// (labels are filtered out so nothing matches across an i32/double split).
#[test]
fn edge_cases_match_the_reference() {
    let ints = parse_function(
        "define i32 @a(i32 %x) {\nentry:\n  %p = add i32 %x, 1\n  %q = mul i32 %p, 2\n  %r = call i32 @s(i32 %q)\n  ret i32 %r\n}",
    )
    .unwrap();
    let floats = parse_function(
        "define double @b(double %x) {\nentry:\n  %p = fadd double %x, 1.0\n  %q = fmul double %p, 2.0\n  ret double %q\n}",
    )
    .unwrap();
    let si = linearize(&ints);
    let sf = linearize(&floats);

    // Both empty.
    let a = align(&ints, &[], &floats, &[]);
    assert!(a.pairs.is_empty());
    assert_eq!(a.stats.matches, 0);

    // One side empty, either way.
    for (f1, s1, f2, s2) in [
        (&ints, &si[..], &floats, &[][..]),
        (&ints, &[][..], &floats, &sf[..]),
    ] {
        let linear = align(f1, s1, f2, s2);
        assert_eq!(linear.pairs, full_matrix(f1, s1, f2, s2).0);
        assert_eq!(align_score(f1, s1, f2, s2).matches, 0);
    }

    // Body-instruction-only slices across the int/double type split: nothing
    // is mergeable (labels match universally and terminators like `ret`
    // match by shape regardless of operand type, so both are excluded).
    let insts_only = |f: &Function, seq: &[SeqEntry]| -> Vec<SeqEntry> {
        seq.iter()
            .copied()
            .filter(|e| e.as_inst().is_some_and(|i| !f.inst(i).kind.is_terminator()))
            .collect()
    };
    let ii = insts_only(&ints, &si);
    let ff = insts_only(&floats, &sf);
    let linear = align(&ints, &ii, &floats, &ff);
    assert_eq!(linear.pairs, full_matrix(&ints, &ii, &floats, &ff).0);
    assert_eq!(linear.stats.matches, 0);
    assert_eq!(align_score(&ints, &ii, &floats, &ff).matches, 0);
}

/// The canonical traceback prefers *late* partners: a mergeable first pair
/// must not be blindly prefix-trimmed by the full tier (the score tier may —
/// the count is unaffected). This is the counterexample that keeps prefix
/// trimming out of `align`.
#[test]
fn full_tier_does_not_prefix_trim_away_the_canonical_choice() {
    let f1 =
        parse_function("define i32 @p(i32 %x) {\nentry:\n  %a = add i32 %x, 1\n  ret i32 %a\n}")
            .unwrap();
    let f2 = parse_function(
        "define i32 @q(i32 %x) {\nentry:\n  %a = add i32 %x, 2\n  %b = add i32 %a, 3\n  ret i32 %b\n}",
    )
    .unwrap();
    // Instruction-only slices: s1 = [add], s2 = [add, add] — the canonical
    // traceback matches s1's add with s2's *second* add.
    let s1: Vec<SeqEntry> = linearize(&f1)
        .into_iter()
        .filter(|e| e.as_inst().is_some())
        .take(1)
        .collect();
    let s2: Vec<SeqEntry> = linearize(&f2)
        .into_iter()
        .filter(|e| e.as_inst().is_some())
        .take(2)
        .collect();
    let linear = align(&f1, &s1, &f2, &s2);
    assert_eq!(linear.pairs, full_matrix(&f1, &s1, &f2, &s2).0);
    assert_eq!(linear.stats.matches, 1);
    assert!(
        matches!(linear.pairs[0], AlignedPair::OnlyRight(_)),
        "canonical alignment pairs the late partner: {:?}",
        linear.pairs
    );
    assert_eq!(align_score(&f1, &s1, &f2, &s2).matches, 1);
}
