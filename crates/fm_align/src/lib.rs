//! # `fm_align` — linearization, sequence alignment and candidate ranking
//!
//! The components shared by the FMSA baseline and SalSSA in the reproduction
//! of *Effective Function Merging in the SSA Form* (PLDI 2020):
//!
//! * [`linearize()`] — turn a function's CFG into the sequence of labels and
//!   instructions that alignment operates on (phi-nodes and landing pads are
//!   excluded, as in the paper),
//! * [`align()`] — Needleman–Wunsch global alignment maximizing the number of
//!   mergeable pairs, computed by a linear-space divide-and-conquer traceback
//!   whose output is byte-identical to the classic full-matrix formulation
//!   (which survives only as the differential tests' oracle), with the
//!   instrumentation (cells, live DP bytes, trim savings) used by the
//!   compile-time and memory experiments,
//! * [`align_score`] — the score-only tier: a two-row rolling DP over the
//!   shorter sequence for callers that need only the match count,
//! * [`AlignTally`] — the sums a run's reports publish: every call returns
//!   its own [`AlignmentStats`] (tier, band outcome, lengths, class-table
//!   builds) and the run adds them up, the cells, trimmed entries and byte
//!   peaks of every traceback run included. The crate keeps no process-wide
//!   counters, so concurrent runs cannot see each other's alignments,
//! * [`prefilter_check`] — the admissible profit pre-filter, which also
//!   returns the work it did for the run to count,
//! * [`Fingerprint`] / [`Ranking`] — the opcode-frequency ranking that selects
//!   which pairs of functions to attempt to merge under a given exploration
//!   threshold `t`.
//!
//! ## Example
//!
//! ```rust
//! use fm_align::{align, linearize};
//! use ssa_ir::parse_function;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = parse_function(
//!     "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}",
//! )?;
//! let seq = linearize(&f);
//! let alignment = align(&f, &seq, &f, &seq);
//! assert_eq!(alignment.stats.matches, seq.len());
//! # Ok(())
//! # }
//! ```

pub mod align;
pub mod fingerprint;
pub mod linearize;
pub mod prefilter;

pub use align::{
    align, align_banded, align_banded_in, align_in, align_score, align_score_banded,
    align_score_banded_in, align_score_in, with_scratch, AlignScratch, AlignTally, AlignedPair,
    Alignment, AlignmentStats, Band, ClassTable,
};
pub use fingerprint::{Fingerprint, MinHash, Ranking, SHINGLE_LEN};
pub use linearize::{linearize, mergeable, mergeable_insts, SeqEntry};
pub use prefilter::{
    match_upper_bound, prefilter_check, prefilter_rejects, profit_margin_bytes, PrefilterCheck,
    PREFILTER_GRAY_FACTOR,
};
