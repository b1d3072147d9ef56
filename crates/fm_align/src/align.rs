//! The tiered sequence-alignment engine over linearized functions.
//!
//! This is the "Alignment" stage shared by FMSA and SalSSA (Figure 1 of the
//! paper). The textbook Needleman–Wunsch formulation is quadratic in time and
//! *space* over the sequence lengths, which is exactly why register demotion
//! (which roughly doubles the sequences) quadruples both the running time and
//! the peak memory of the baseline — the effect measured in Figures 22
//! and 23. Because the planner speculatively scores every ranked candidate
//! pair, that quadratic matrix used to be allocated once per candidate; this
//! module replaces it with two tiers that never materialize the full matrix:
//!
//! * [`align_score`] — score only: a two-row rolling DP over the *shorter*
//!   sequence. O(min(n, m)) live memory, no traceback. This is the tier for
//!   callers that only need the number of mergeable matches (benchmarking,
//!   profitability profiling, and the planner's admissible pre-filter).
//! * [`align`] — full traceback in linear space: a Hirschberg-style
//!   divide-and-conquer over the rows of the DP. Unlike classic Hirschberg
//!   (which returns *an* optimal alignment), the recursion here is seeded
//!   with true global DP rows, so every traceback decision is evaluated
//!   against the same scores the full matrix would have held — the returned
//!   [`Alignment::pairs`] are **byte-identical** to the historical
//!   full-matrix traceback (enforced by differential tests against that
//!   textbook formulation). Peak live memory is O(m · log n) — the rolling
//!   rows plus one seed row per live recursion level — instead of O(n · m).
//!   Time is O(n · m) cells in the worst case: once the first base strip
//!   fixes the walk's value, every later strip clamps its column range to a
//!   meet-in-the-middle split column (the leftmost seed column whose score
//!   can still reach the walk's value), restoring the strict Hirschberg
//!   work bound that the exact-seed recursion previously gave up on
//!   right-edge-hugging adversarial paths.
//!
//! The original quadratic implementation survives only as the differential
//! tests' oracle; no production path has it.
//!
//! On top of the tiers sits an optional **diagonal band** ([`Band`],
//! [`align_banded`], [`align_score_banded`]): the DP is restricted to a
//! corridor around the main diagonal sized from the pair's fingerprint
//! distance. Cells outside the corridor keep stale values — always *lower
//! bounds* of the true scores, because DP rows only grow downwards — so the
//! banded corner score `S` is itself a lower bound, and it is provably exact
//! whenever `S ≥ min(n, m) − w` (at most `w` entries of the shorter side
//! unmatched means some optimal path stays inside the corridor). When that
//! saturation check fails the banded pass is discarded and the exact tier
//! runs, so banded results are **byte-identical** to unbanded ones at any
//! band width (proptest-enforced); the band only decides how much work the
//! happy path does.
//!
//! Two shared optimizations feed all tiers:
//!
//! * **mergeability classes** — [`mergeable`] is an equivalence relation
//!   (every arm compares a feature tuple for equality), so each sequence
//!   entry is interned to a small integer class once per pair and the DP
//!   inner loop becomes a single `u32` comparison instead of a structural
//!   check that allocated operand-type vectors per cell. Entries that are
//!   mergeable with nothing (phi-nodes, landing pads — which [`linearize`]
//!   never emits, but the API accepts arbitrary slices) receive unique
//!   sentinel classes. The per-function half of that work is cached: each
//!   function's interned [`ClassTable`] lives in the `ssa_ir::Function`
//!   analysis slot (invalidated by every mutating method, like the
//!   structural key), so classifying a pair merges two precomputed tables —
//!   O(k) hash operations over the *distinct* classes — instead of
//!   re-hashing all O(n + m) entries per candidate.
//! * **common prefix/suffix trimming** — runs of end-to-end mergeable
//!   entries are matched without running the DP at all. Suffix trimming is
//!   canonical-path-exact (the greedy traceback provably starts with the
//!   diagonal move whenever the last entries are mergeable), so [`align`]
//!   applies it. Prefix trimming preserves the optimal *score* but not the
//!   canonical tie-breaking (the traceback may prefer a later partner for
//!   the first entry), so only the score-only tier applies it.
//!
//! Each thread reuses one [`AlignScratch`] arena across calls — under the
//! planner's rayon scoring batches, speculative scoring therefore performs
//! no per-pair DP allocations in steady state.
//!
//! [`linearize`]: crate::linearize::linearize
//! [`mergeable`]: crate::linearize::mergeable

use crate::linearize::{linearize, SeqEntry};
use crate::prefilter::PrefilterCheck;
use ssa_ir::{BinOp, CastKind, Function, ICmpPred, InstKind, Type};
use ssa_passes::Target;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use telemetry::Histogram;

/// One element of an alignment result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlignedPair {
    /// A pair of entries that matched and will be merged into one entity.
    Match(SeqEntry, SeqEntry),
    /// An entry that exists only in the first function.
    OnlyLeft(SeqEntry),
    /// An entry that exists only in the second function.
    OnlyRight(SeqEntry),
}

/// Instrumentation of one alignment run (drives Figures 22 and 23).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlignmentStats {
    /// Length of the first sequence.
    pub len_left: usize,
    /// Length of the second sequence.
    pub len_right: usize,
    /// Number of matched pairs.
    pub matches: usize,
    /// Mergeability comparisons performed (time proxy): dynamic-programming
    /// cells computed plus prefix/suffix trim comparisons. Saturating — a
    /// corpus-wide accumulation cannot overflow into nonsense.
    pub cells: u64,
    /// Peak *live* dynamic-programming bytes of this run: the rolling rows,
    /// plus — for the divide-and-conquer traceback — the seed rows held on
    /// the recursion stack. Zero when trimming resolved the whole pair.
    /// (Class tables are O(n + m) bookkeeping, not DP state, and are not
    /// counted.)
    pub matrix_bytes: u64,
    /// Bytes the historical full score matrix would have occupied for this
    /// pair: `(n + 1) · (m + 1) · 4`. The Figure 22 baseline figure.
    pub full_matrix_bytes: u64,
    /// Match pairs resolved by prefix/suffix trimming, without any DP.
    pub trimmed: usize,
    /// `true` when the run was score-only (no traceback).
    pub score_only: bool,
    /// `true` when a diagonal band was attempted for this run.
    pub banded: bool,
    /// `true` when the band saturated and the run fell back to the exact
    /// (unbanded) computation. The result is byte-identical either way.
    pub band_saturated: bool,
    /// Class tables this run built instead of finding them cached. The
    /// score-only and traceback tiers look up one table per side; the
    /// full-matrix reference looks up none.
    pub class_table_builds: u32,
}

impl AlignmentStats {
    /// Fraction of the shorter sequence that was matched, in `[0, 1]`.
    pub fn match_ratio(&self) -> f64 {
        let denom = self.len_left.min(self.len_right);
        if denom == 0 {
            0.0
        } else {
            self.matches as f64 / denom as f64
        }
    }
}

/// The result of aligning two linearized functions.
#[derive(Debug, Clone)]
pub struct Alignment {
    /// Aligned entries in sequence order.
    pub pairs: Vec<AlignedPair>,
    /// Instrumentation counters.
    pub stats: AlignmentStats,
}

/// Sums over the alignments of one run: the [`AlignmentStats`] of each
/// call, added up by the run that made it. Reports publish these sums as
/// their `align_*` run counts, their cells, trim and peak figures, and in
/// their `telemetry` block. Nothing is counted process-wide, so concurrent
/// runs keep separate sums.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlignTally {
    /// Score-only runs ([`align_score`] and its banded variants).
    pub score_only_runs: u64,
    /// Traceback runs ([`align`] and its banded variants).
    pub full_runs: u64,
    /// Cells of every traceback run (DP plus trim comparisons), saturating.
    /// Score-only runs are the pre-filter's, and count only in
    /// [`Self::score_only_runs`] and [`Self::lengths`].
    pub cells: u64,
    /// Match pairs every traceback run resolved by trimming instead of DP.
    pub trimmed_entries: u64,
    /// Peak live DP bytes over every traceback run.
    pub peak_live_bytes: u64,
    /// Peak bytes the full score matrix would have taken over every
    /// traceback run (the Figure 22 baseline).
    pub peak_full_matrix_bytes: u64,
    /// Runs that attempted a diagonal band.
    pub band_runs: u64,
    /// Band attempts that saturated and fell back to the exact tier.
    pub band_saturations: u64,
    /// Class-table lookups served from a function's analysis slot.
    pub class_table_hits: u64,
    /// Class-table builds (empty slot, mutated function, or foreign slice).
    pub class_table_misses: u64,
    /// Aligned sequence lengths, `n + m` per run.
    pub lengths: Histogram,
}

impl AlignTally {
    /// Counts one score-only or traceback run.
    pub fn add(&mut self, stats: &AlignmentStats) {
        if stats.score_only {
            self.score_only_runs += 1;
        } else {
            self.full_runs += 1;
            self.cells = self.cells.saturating_add(stats.cells);
            self.trimmed_entries += stats.trimmed as u64;
            self.peak_live_bytes = self.peak_live_bytes.max(stats.matrix_bytes);
            self.peak_full_matrix_bytes = self.peak_full_matrix_bytes.max(stats.full_matrix_bytes);
        }
        self.band_runs += u64::from(stats.banded);
        self.band_saturations += u64::from(stats.band_saturated);
        self.add_class_tables(2, stats.class_table_builds);
        self.lengths
            .record((stats.len_left + stats.len_right) as u64);
    }

    /// Counts one pre-filter check: its two class-table lookups and its
    /// gray-zone score DP, if it ran one.
    pub fn add_prefilter(&mut self, check: &PrefilterCheck) {
        self.add_class_tables(2, check.class_table_builds);
        if let Some(stats) = &check.alignment {
            self.add(stats);
        }
    }

    /// Adds another run's sums.
    pub fn absorb(&mut self, other: &AlignTally) {
        self.score_only_runs += other.score_only_runs;
        self.full_runs += other.full_runs;
        self.cells = self.cells.saturating_add(other.cells);
        self.trimmed_entries += other.trimmed_entries;
        self.peak_live_bytes = self.peak_live_bytes.max(other.peak_live_bytes);
        self.peak_full_matrix_bytes = self
            .peak_full_matrix_bytes
            .max(other.peak_full_matrix_bytes);
        self.band_runs += other.band_runs;
        self.band_saturations += other.band_saturations;
        self.class_table_hits += other.class_table_hits;
        self.class_table_misses += other.class_table_misses;
        self.lengths.absorb(&other.lengths);
    }

    fn add_class_tables(&mut self, lookups: u32, builds: u32) {
        self.class_table_hits += u64::from(lookups - builds);
        self.class_table_misses += u64::from(builds);
    }
}

// ---------------------------------------------------------------------------
// Mergeability classes.
// ---------------------------------------------------------------------------

/// The feature tuple [`mergeable`](crate::linearize::mergeable) compares:
/// two entries are mergeable iff their classes are equal. Kept in exact
/// lockstep with [`crate::linearize::mergeable_insts`] — every arm of that
/// match compares precisely the fields captured here.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) enum MergeClass {
    Label,
    Binary(Type, BinOp),
    ICmp(Type, ICmpPred),
    Select(Type, Vec<Type>),
    Call(Type, String, usize, Vec<Type>),
    Invoke(Type, String, usize, Vec<Type>),
    Alloca(Type, Type),
    Load(Type),
    Store(Type, Vec<Type>),
    Gep(Type, u32, Vec<Type>),
    Cast(Type, CastKind, Vec<Type>),
    Br(Type),
    CondBr(Type),
    Switch(Type, Vec<i64>),
    Ret(Type, bool),
    Unreachable(Type),
    Resume(Type),
}

fn operand_types(f: &Function, id: ssa_ir::InstId) -> Vec<Type> {
    f.inst(id)
        .kind
        .operands()
        .iter()
        .map(|v| f.value_type(*v))
        .collect()
}

/// The mergeability class of one entry, or `None` for entries mergeable with
/// nothing (phi-nodes and landing pads fall through `mergeable_insts` to the
/// catch-all `false` arm — even against themselves).
fn entry_class(f: &Function, e: SeqEntry) -> Option<MergeClass> {
    let id = match e {
        SeqEntry::Label(_) => return Some(MergeClass::Label),
        SeqEntry::Inst(id) => id,
    };
    let data = f.inst(id);
    let ty = data.ty;
    use InstKind::*;
    Some(match &data.kind {
        Binary { op, .. } => MergeClass::Binary(ty, *op),
        ICmp { pred, .. } => MergeClass::ICmp(ty, *pred),
        Select { .. } => MergeClass::Select(ty, operand_types(f, id)),
        Call { callee, args } => {
            MergeClass::Call(ty, callee.clone(), args.len(), operand_types(f, id))
        }
        Invoke { callee, args, .. } => {
            MergeClass::Invoke(ty, callee.clone(), args.len(), operand_types(f, id))
        }
        Alloca { ty: slot } => MergeClass::Alloca(ty, *slot),
        Load { .. } => MergeClass::Load(ty),
        Store { .. } => MergeClass::Store(ty, operand_types(f, id)),
        Gep { stride, .. } => MergeClass::Gep(ty, *stride, operand_types(f, id)),
        Cast { kind, .. } => MergeClass::Cast(ty, *kind, operand_types(f, id)),
        Br { .. } => MergeClass::Br(ty),
        CondBr { .. } => MergeClass::CondBr(ty),
        Switch { cases, .. } => MergeClass::Switch(ty, cases.iter().map(|(v, _)| *v).collect()),
        Ret { value } => MergeClass::Ret(ty, value.is_some()),
        Unreachable => MergeClass::Unreachable(ty),
        Resume { .. } => MergeClass::Resume(ty),
        Phi { .. } | LandingPad => return None,
    })
}

// ---------------------------------------------------------------------------
// Cached per-function class tables.
// ---------------------------------------------------------------------------

/// A function's interned mergeability-class table: one local class id per
/// linearized entry, plus per-class occurrence counts and encoded byte costs.
///
/// Built once per function body and cached in the `ssa_ir::Function` opaque
/// analysis slot ([`Function::analysis_cache`]), which every mutating method
/// clears — so a cached table is always consistent with the current body.
/// Classifying a candidate pair then merges two tables (hashing only the
/// distinct classes) instead of re-interning every entry, and the planner's
/// admissible pre-filter reads the histogram without touching the body at
/// all.
pub struct ClassTable {
    /// The linearized sequence the table was computed for. [`class_table`]
    /// only serves a cached table when the caller's slice matches exactly.
    pub(crate) seq: Vec<SeqEntry>,
    /// Local class id per entry; `u32::MAX` marks never-mergeable entries
    /// (phi-nodes, landing pads) that get fresh sentinels at pair time.
    pub(crate) ids: Vec<u32>,
    /// The distinct classes, indexed by local id.
    pub(crate) classes: Vec<MergeClass>,
    /// Occurrences of each class in the sequence.
    pub(crate) counts: Vec<u32>,
    /// Encoded instruction bytes of each class as `(X86Like, ThumbLike)`.
    /// Constant within a class: every byte-relevant `InstKind` field (opcode,
    /// switch-case count, …) is part of the class tuple. Labels cost zero.
    pub(crate) bytes: Vec<(u32, u32)>,
    /// Lazily-computed foldable bytes as `(X86Like, ThumbLike)`: how much the
    /// post-merge cleanup pipeline shrinks this function when run on the
    /// function *alone*. The pre-filter's profit bound charges this much
    /// slack to the pair, because whatever cleanup strips from a function's
    /// own code in the merged body it also strips from a solo clone (merging
    /// never makes side-exclusive code *more* foldable — operand divergence
    /// only adds selects). Computed at most once per cached table; the slot
    /// invalidation that guards [`ClassTable::seq`] guards this too.
    pub(crate) foldable: OnceLock<(u64, u64)>,
}

impl ClassTable {
    /// Number of linearized entries the table covers.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the function linearizes to nothing.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Per-class byte cost on `target`.
    pub(crate) fn class_bytes(&self, id: usize, target: Target) -> u64 {
        let (x86, thumb) = self.bytes[id];
        match target {
            Target::X86Like => x86 as u64,
            Target::ThumbLike => thumb as u64,
        }
    }

    /// Bytes the post-merge cleanup pipeline strips from `f` when run on a
    /// solo clone, on `target`. `f` must be the function this table was built
    /// for. Cached in the table (and thus in the function's analysis slot),
    /// so the clone-and-clean runs at most once per function body no matter
    /// how many candidate pairs the function appears in.
    pub(crate) fn foldable_bytes(&self, f: &Function, target: Target) -> u64 {
        let (x86, thumb) = *self.foldable.get_or_init(|| compute_foldable_bytes(f));
        match target {
            Target::X86Like => x86,
            Target::ThumbLike => thumb,
        }
    }
}

/// Runs the merge pipeline's cleanup (`cleanup_function`, which iterates
/// simplify-cfg, constant folding, phi dedup and DCE) to a size fixpoint on
/// a clone of `f` and reports how many encoded bytes it shaved, per target.
fn compute_foldable_bytes(f: &Function) -> (u64, u64) {
    let mut cleaned = f.clone();
    for _ in 0..4 {
        let before = ssa_passes::function_size_bytes(&cleaned, Target::X86Like);
        ssa_passes::cleanup_function(&mut cleaned);
        if ssa_passes::function_size_bytes(&cleaned, Target::X86Like) == before {
            break;
        }
    }
    let fold = |t: Target| {
        ssa_passes::function_size_bytes(f, t)
            .saturating_sub(ssa_passes::function_size_bytes(&cleaned, t)) as u64
    };
    (fold(Target::X86Like), fold(Target::ThumbLike))
}

fn build_class_table(f: &Function, seq: &[SeqEntry]) -> ClassTable {
    let mut intern: HashMap<MergeClass, u32> = HashMap::new();
    let mut ids = Vec::with_capacity(seq.len());
    let mut classes = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut bytes: Vec<(u32, u32)> = Vec::new();
    for &e in seq {
        match entry_class(f, e) {
            Some(class) => {
                let id = if let Some(&id) = intern.get(&class) {
                    id
                } else {
                    let id = classes.len() as u32;
                    let (x86, thumb) = match e {
                        SeqEntry::Label(_) => (0, 0),
                        SeqEntry::Inst(inst) => {
                            let kind = &f.inst(inst).kind;
                            (
                                Target::X86Like.inst_bytes(kind) as u32,
                                Target::ThumbLike.inst_bytes(kind) as u32,
                            )
                        }
                    };
                    classes.push(class.clone());
                    counts.push(0);
                    bytes.push((x86, thumb));
                    intern.insert(class, id);
                    id
                };
                counts[id as usize] += 1;
                ids.push(id);
            }
            None => ids.push(u32::MAX),
        }
    }
    ClassTable {
        seq: seq.to_vec(),
        ids,
        classes,
        counts,
        bytes,
        foldable: OnceLock::new(),
    }
}

/// The class table for `seq` (a linearization of `f`), served from the
/// function's analysis slot when possible, and whether this call had to
/// build it. A cached table is only reused when its recorded sequence
/// matches `seq` exactly, so callers passing foreign slices (tests align
/// arbitrary sub-slices) fall back to a fresh build without ever producing
/// a wrong table.
pub(crate) fn class_table(f: &Function, seq: &[SeqEntry]) -> (Arc<ClassTable>, bool) {
    if let Some(cached) = f.analysis_cache() {
        if let Ok(table) = cached.downcast::<ClassTable>() {
            if table.seq == seq {
                return (table, false);
            }
        }
    }
    let table = Arc::new(build_class_table(f, seq));
    let _ = f.set_analysis_cache(table.clone());
    (table, true)
}

/// Like [`class_table`] but linearizes `f` itself on a miss. On a hit the
/// cached table is trusted as-is: the analysis slot is cleared by every
/// mutation, so whatever was stored was computed from the current body.
pub(crate) fn class_table_of(f: &Function) -> (Arc<ClassTable>, bool) {
    if let Some(cached) = f.analysis_cache() {
        if let Ok(table) = cached.downcast::<ClassTable>() {
            return (table, false);
        }
    }
    let seq = linearize(f);
    let table = Arc::new(build_class_table(f, &seq));
    let _ = f.set_analysis_cache(table.clone());
    (table, true)
}

// ---------------------------------------------------------------------------
// Thread-local scratch arena.
// ---------------------------------------------------------------------------

/// Reusable buffers for one alignment run. One arena lives per thread
/// ([`with_scratch`]), so the planner's rayon scoring batches stop allocating
/// per candidate pair once every worker's arena has warmed up.
#[derive(Default)]
pub struct AlignScratch {
    /// Interned class ids of the two sequences.
    c1: Vec<u32>,
    c2: Vec<u32>,
    /// Per-pair remap of the second table's local class ids onto the shared
    /// pair-local id space.
    remap2: Vec<u32>,
    /// Pool of DP row buffers for the rolling passes and the seed rows held
    /// by the divide-and-conquer traceback.
    rows: Vec<Vec<u32>>,
    /// Reverse-order pair buffer of the traceback.
    rev: Vec<AlignedPair>,
}

impl AlignScratch {
    /// A fresh, empty arena (buffers grow on first use).
    pub fn new() -> AlignScratch {
        AlignScratch::default()
    }

    /// Fills `c1`/`c2` with pair-comparable class ids by merging the two
    /// functions' cached [`ClassTable`]s: only the *distinct* classes are
    /// hashed (to remap the second table onto the first), every entry is a
    /// plain array copy. Never-mergeable entries get unique sentinel ids
    /// counted down from `u32::MAX` so they equal nothing — not even each
    /// other — exactly as the historical per-pair interner assigned them.
    /// Returns how many of the two tables had to be built.
    fn classify(
        &mut self,
        f1: &Function,
        seq1: &[SeqEntry],
        f2: &Function,
        seq2: &[SeqEntry],
    ) -> u32 {
        let (t1, built1) = class_table(f1, seq1);
        let (t2, built2) = class_table(f2, seq2);
        self.merge_tables(&t1, &t2);
        u32::from(built1) + u32::from(built2)
    }

    fn merge_tables(&mut self, t1: &ClassTable, t2: &ClassTable) {
        self.c1.clear();
        self.c2.clear();
        let mut sentinel = u32::MAX;
        // The first table's local ids are already distinct; use them verbatim.
        for &id in &t1.ids {
            self.c1.push(if id == u32::MAX {
                let s = sentinel;
                sentinel -= 1;
                s
            } else {
                id
            });
        }
        // Remap the second table's classes: equal classes collapse onto the
        // first table's id, new ones extend the id space above it. The map
        // borrows the classes, so nothing is cloned per pair.
        let map: HashMap<&MergeClass, u32> = t1.classes.iter().zip(0u32..).collect();
        self.remap2.clear();
        let mut next = t1.classes.len() as u32;
        for class in &t2.classes {
            match map.get(class) {
                Some(&id) => self.remap2.push(id),
                None => {
                    self.remap2.push(next);
                    next += 1;
                }
            }
        }
        for &id in &t2.ids {
            self.c2.push(if id == u32::MAX {
                let s = sentinel;
                sentinel -= 1;
                s
            } else {
                self.remap2[id as usize]
            });
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<AlignScratch> = RefCell::new(AlignScratch::new());
}

/// Runs `body` with this thread's [`AlignScratch`] arena.
pub fn with_scratch<R>(body: impl FnOnce(&mut AlignScratch) -> R) -> R {
    SCRATCH.with(|scratch| body(&mut scratch.borrow_mut()))
}

/// Tracks live DP bytes (rows in flight) and their high-water mark.
#[derive(Default)]
struct MemTracker {
    live: u64,
    peak: u64,
    cells: u64,
}

impl MemTracker {
    fn acquire(&mut self, len: usize) {
        self.live += 4 * len as u64;
        self.peak = self.peak.max(self.live);
    }

    fn release(&mut self, len: usize) {
        self.live -= 4 * len as u64;
    }

    fn count_cells(&mut self, n: u64) {
        self.cells = self.cells.saturating_add(n);
    }
}

fn full_matrix_bytes(n: usize, m: usize) -> u64 {
    4 * ((n as u64) + 1) * ((m as u64) + 1)
}

// ---------------------------------------------------------------------------
// Diagonal banding.
// ---------------------------------------------------------------------------

/// A diagonal-band request for the banded DP tiers.
///
/// The band restricts row `i` of the DP to columns
/// `j ∈ [i + min(0, m−n) − slack, i + max(0, m−n) + slack]` — the `|n − m|`
/// corridor every global path must cross, widened by `slack` on each side.
/// Any width is *safe*: a saturated band (one that cannot prove its corner
/// score exact) falls back to the unbanded tier, so results are byte-exact
/// regardless; the width only tunes how often the cheap pass wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// Extra half-width beyond the `|n − m|` corridor.
    pub slack: u32,
}

impl Band {
    /// A band with the given extra half-width.
    pub fn new(slack: u32) -> Band {
        Band { slack }
    }

    /// Sizes a band from a discovery-time distance hint (opcode-fingerprint
    /// Manhattan distance or MinHash estimate): each unit of distance is one
    /// potential insertion/deletion pushing the path off the diagonal, so
    /// the corridor is widened by the full hint on top of the base slack.
    pub fn from_hint(slack: u32, distance: Option<u64>) -> Band {
        let widen = distance.unwrap_or(0).min(u32::MAX as u64) as u32;
        Band {
            slack: slack.saturating_add(widen),
        }
    }
}

/// A concrete band corridor for an `n × m` core: row `i` may compute columns
/// `[i + cmin, i + cmax]` (clamped to `[1, cols]`). `floor` is the exactness
/// threshold: a banded corner score `S ≥ floor = min(n, m) − slack` proves at
/// most `slack` entries of the shorter side are unmatched, hence some optimal
/// path deviates from the corridor diagonal by at most `slack` — it lies
/// inside the band, and every in-band score on it was computed exactly.
#[derive(Debug, Clone, Copy)]
struct Corridor {
    cmin: i64,
    cmax: i64,
    floor: i64,
}

impl Corridor {
    /// The corridor for an `n`-row, `m`-column core, or `None` when the band
    /// would not exclude any cells (nothing to win; run unbanded).
    fn new(n: usize, m: usize, band: Band) -> Option<Corridor> {
        let w = band.slack as i64;
        let diff = m as i64 - n as i64;
        let cmin = diff.min(0) - w;
        let cmax = diff.max(0) + w;
        if cmax - cmin >= m as i64 {
            return None;
        }
        Some(Corridor {
            cmin,
            cmax,
            floor: n.min(m) as i64 - w,
        })
    }

    #[inline]
    fn lo(&self, r: usize) -> usize {
        (r as i64 + self.cmin).max(1) as usize
    }

    #[inline]
    fn hi(&self, r: usize, cols: usize) -> usize {
        (r as i64 + self.cmax).min(cols as i64).max(0) as usize
    }
}

/// Runs the in-place banded rolling score DP over the class slices `x`
/// (rows) and `y` (columns), returning the corner value `row[m]`.
///
/// Cells outside the corridor keep whatever the row buffer last held (the
/// zero seed, or an older row's value). Those stale values are always lower
/// bounds of the true scores — DP values are monotone down a column — and a
/// `max` against a lower bound can only understate, so every computed cell
/// is `≤` its true value, and cells whose best path stays inside the band
/// are exact. The corner check against [`Corridor::floor`] then certifies
/// exactness of the returned score.
fn banded_score_pass(
    x: &[u32],
    y: &[u32],
    cor: &Corridor,
    row: &mut Vec<u32>,
    mem: &mut MemTracker,
) -> u32 {
    let cols = y.len();
    row.clear();
    row.resize(cols + 1, 0);
    for r in 1..=x.len() {
        let lo = cor.lo(r);
        let hi = cor.hi(r, cols);
        if lo > hi {
            continue;
        }
        let xc = x[r - 1];
        // In-place row update: `old` is the cell's previous-row value (up),
        // `row[j-1]` is already this row (left), and `diag` carries the
        // previous-row value of the left neighbor. At `j = lo` the left
        // neighbor is a stale out-of-band cell — a lower bound, which is
        // exactly what the banded pass is allowed to read.
        let mut diag = row[lo - 1];
        for j in lo..=hi {
            let old = row[j];
            let mut best = old.max(row[j - 1]);
            if xc == y[j - 1] {
                best = best.max(diag + 1);
            }
            row[j] = best;
            diag = old;
        }
        mem.count_cells((hi - lo + 1) as u64);
    }
    row[cols]
}

// ---------------------------------------------------------------------------
// Tier 1: score only.
// ---------------------------------------------------------------------------

/// Computes the optimal number of mergeable matches between the two
/// linearized functions — exactly [`align`]`(..).stats.matches` — without a
/// traceback and without the full matrix: common prefixes and suffixes are
/// trimmed (both preserve the optimal score because gaps are free), and the
/// remaining core runs a two-row rolling DP over its *shorter* side, so live
/// memory is O(min(n, m)).
pub fn align_score(
    f1: &Function,
    seq1: &[SeqEntry],
    f2: &Function,
    seq2: &[SeqEntry],
) -> AlignmentStats {
    with_scratch(|scratch| align_score_banded_in(scratch, f1, seq1, f2, seq2, None))
}

/// [`align_score`] against a caller-managed arena.
pub fn align_score_in(
    scratch: &mut AlignScratch,
    f1: &Function,
    seq1: &[SeqEntry],
    f2: &Function,
    seq2: &[SeqEntry],
) -> AlignmentStats {
    align_score_banded_in(scratch, f1, seq1, f2, seq2, None)
}

/// [`align_score`] with an optional diagonal band. The returned stats —
/// including the match count — are identical at any band width; a band that
/// cannot certify its corner score falls back to the exact rolling DP and
/// reports [`AlignmentStats::band_saturated`].
pub fn align_score_banded(
    f1: &Function,
    seq1: &[SeqEntry],
    f2: &Function,
    seq2: &[SeqEntry],
    band: Option<Band>,
) -> AlignmentStats {
    with_scratch(|scratch| align_score_banded_in(scratch, f1, seq1, f2, seq2, band))
}

/// [`align_score_banded`] against a caller-managed arena.
pub fn align_score_banded_in(
    scratch: &mut AlignScratch,
    f1: &Function,
    seq1: &[SeqEntry],
    f2: &Function,
    seq2: &[SeqEntry],
    band: Option<Band>,
) -> AlignmentStats {
    let (n, m) = (seq1.len(), seq2.len());
    let class_table_builds = scratch.classify(f1, seq1, f2, seq2);
    let mut mem = MemTracker::default();

    // Trim the common prefix, then the common suffix of what remains. Both
    // are score-exact: when the outermost entries are mergeable, some optimal
    // alignment matches them (free gaps admit an exchange argument).
    let mut lo = 0usize;
    while lo < n && lo < m && scratch.c1[lo] == scratch.c2[lo] {
        lo += 1;
    }
    let mut suf = 0usize;
    while lo + suf < n && lo + suf < m && scratch.c1[n - 1 - suf] == scratch.c2[m - 1 - suf] {
        suf += 1;
    }
    mem.count_cells((lo + suf + 1).min(n.min(m) + 1) as u64);

    let AlignScratch { c1, c2, rows, .. } = scratch;
    let core1 = &c1[lo..n - suf];
    let core2 = &c2[lo..m - suf];
    // The score DP is symmetric in its inputs; roll over the shorter side.
    let (short, long) = if core1.len() <= core2.len() {
        (core1, core2)
    } else {
        (core2, core1)
    };
    let mut pool = RowPool { rows };
    let mut dp_matches = 0u32;
    let mut rows_bytes = 0u64;
    let mut banded = false;
    let mut band_saturated = false;
    if !short.is_empty() {
        let width = short.len() + 1;
        // Banded attempt first: one row, corridor cells only. The corner
        // check proves the score exact or the attempt is discarded.
        let corridor = band.and_then(|b| Corridor::new(long.len(), short.len(), b));
        let mut band_hit = false;
        if let Some(cor) = corridor {
            banded = true;
            let mut row = pool.take(width, &mut mem);
            let corner = banded_score_pass(long, short, &cor, &mut row, &mut mem);
            pool.give(row, width, &mut mem);
            if corner as i64 >= cor.floor {
                dp_matches = corner;
                rows_bytes = 4 * width as u64;
                band_hit = true;
            } else {
                band_saturated = true;
            }
        }
        if !band_hit {
            let mut prev = pool.take(width, &mut mem);
            prev.resize(width, 0);
            let mut cur = pool.take(width, &mut mem);
            cur.resize(width, 0);
            rows_bytes = 4 * 2 * width as u64;
            for &lc in long {
                cur[0] = 0;
                for j in 1..width {
                    let up = prev[j];
                    let left = cur[j - 1];
                    let mut best = up.max(left);
                    if lc == short[j - 1] {
                        best = best.max(prev[j - 1] + 1);
                    }
                    cur[j] = best;
                }
                std::mem::swap(&mut prev, &mut cur);
                mem.count_cells(short.len() as u64);
            }
            dp_matches = prev[width - 1];
            pool.give(prev, width, &mut mem);
            pool.give(cur, width, &mut mem);
        }
    }

    AlignmentStats {
        len_left: n,
        len_right: m,
        matches: lo + suf + dp_matches as usize,
        cells: mem.cells,
        matrix_bytes: rows_bytes,
        full_matrix_bytes: full_matrix_bytes(n, m),
        trimmed: lo + suf,
        score_only: true,
        banded,
        band_saturated,
        class_table_builds,
    }
}

// ---------------------------------------------------------------------------
// Tier 2: linear-space exact traceback.
// ---------------------------------------------------------------------------

/// Aligns two linearized functions, maximizing the number of
/// [`mergeable`](crate::linearize::mergeable) pairs (gaps carry no penalty
/// and non-mergeable entries are never paired, matching the scoring used by
/// FMSA). The result — including tie-breaking — is byte-identical to the
/// historical full-matrix traceback (the tests' oracle), but peak memory is
/// O(m · log n) instead of O(n · m): the divide-and-conquer recursion
/// re-derives DP rows on demand and holds at most one seed row per live
/// level.
pub fn align(f1: &Function, seq1: &[SeqEntry], f2: &Function, seq2: &[SeqEntry]) -> Alignment {
    with_scratch(|scratch| align_banded_in(scratch, f1, seq1, f2, seq2, None))
}

/// [`align`] against a caller-managed arena.
pub fn align_in(
    scratch: &mut AlignScratch,
    f1: &Function,
    seq1: &[SeqEntry],
    f2: &Function,
    seq2: &[SeqEntry],
) -> Alignment {
    align_banded_in(scratch, f1, seq1, f2, seq2, None)
}

/// [`align`] with an optional diagonal band.
///
/// A banded run first makes a one-row score pass over the corridor. If the
/// corner score certifies exactness (see [`Band`]), the traceback then (a)
/// restricts every recomputed DP row to the corridor, and (b) starts with
/// the walk's value already known, which arms the meet-in-the-middle column
/// clamp from the first strip. If the band saturates, the pass is discarded
/// and the exact unbanded traceback runs. Either way the returned pairs are
/// byte-identical to [`align`]'s — banding never changes results, only the
/// work spent reaching them.
pub fn align_banded(
    f1: &Function,
    seq1: &[SeqEntry],
    f2: &Function,
    seq2: &[SeqEntry],
    band: Option<Band>,
) -> Alignment {
    with_scratch(|scratch| align_banded_in(scratch, f1, seq1, f2, seq2, band))
}

/// [`align_banded`] against a caller-managed arena.
pub fn align_banded_in(
    scratch: &mut AlignScratch,
    f1: &Function,
    seq1: &[SeqEntry],
    f2: &Function,
    seq2: &[SeqEntry],
    band: Option<Band>,
) -> Alignment {
    let (n, m) = (seq1.len(), seq2.len());
    let class_table_builds = scratch.classify(f1, seq1, f2, seq2);
    let mut mem = MemTracker::default();

    // Suffix trimming only: the greedy traceback provably takes the diagonal
    // at (n, m) whenever the last entries are mergeable (S(n, m) always
    // equals S(n-1, m-1) + 1 then), so trailing matches are canonical. A
    // common *prefix* match is merely score-preserving — the canonical
    // traceback may pair the first entry with a later partner — so the full
    // tier leaves prefixes to the DP.
    let mut suf = 0usize;
    while suf < n && suf < m && scratch.c1[n - 1 - suf] == scratch.c2[m - 1 - suf] {
        suf += 1;
    }
    mem.count_cells((suf + 1).min(n.min(m) + 1) as u64);
    let core_n = n - suf;
    let core_m = m - suf;

    scratch.rev.clear();
    let mut matches = suf;
    let mut banded = false;
    let mut band_saturated = false;
    {
        // Split-borrow the arena: class tables and the pair buffer are
        // disjoint from the row pool the tracer draws on.
        let AlignScratch {
            c1, c2, rows, rev, ..
        } = scratch;
        let mut tracer = Tracer {
            x: &c1[..core_n],
            y: &c2[..core_m],
            s1: &seq1[..core_n],
            s2: &seq2[..core_m],
            out: rev,
            pool: RowPool { rows },
            mem: &mut mem,
            cor: None,
        };
        if core_n > 0 {
            // Banded pre-pass: a one-row corridor score. When its corner
            // check certifies exactness, the traceback runs with the
            // corridor window *and* the walk's value known up front (which
            // arms the column clamp from the very first strip); when it
            // saturates, the traceback runs unbanded as if no band had been
            // requested.
            let mut top_val = None;
            if let Some(cor) = band.and_then(|b| Corridor::new(core_n, core_m, b)) {
                banded = true;
                let mut row = tracer.pool.take(core_m + 1, tracer.mem);
                let corner =
                    banded_score_pass(&c1[..core_n], &c2[..core_m], &cor, &mut row, tracer.mem);
                tracer.pool.give(row, core_m + 1, tracer.mem);
                if (corner as i64) >= cor.floor {
                    tracer.cor = Some(cor);
                    top_val = Some(corner);
                } else {
                    band_saturated = true;
                }
            }
            let mut seed = tracer.pool.take(core_m + 1, tracer.mem);
            seed.resize(core_m + 1, 0);
            let ca = tracer.trace(0, core_n, core_m, top_val, &seed);
            let seed_len = seed.len();
            tracer.pool.give(seed, seed_len, tracer.mem);
            // The walk reached row 0 at column `ca`; the canonical traceback
            // finishes with left moves only.
            for j in (1..=ca).rev() {
                tracer.out.push(AlignedPair::OnlyRight(tracer.s2[j - 1]));
            }
        } else {
            for j in (1..=core_m).rev() {
                tracer.out.push(AlignedPair::OnlyRight(tracer.s2[j - 1]));
            }
        }
    }

    let mut pairs = Vec::with_capacity(scratch.rev.len() + suf);
    while let Some(pair) = scratch.rev.pop() {
        if matches!(pair, AlignedPair::Match(..)) {
            matches += 1;
        }
        pairs.push(pair);
    }
    for k in 0..suf {
        pairs.push(AlignedPair::Match(seq1[core_n + k], seq2[core_m + k]));
    }

    Alignment {
        pairs,
        stats: AlignmentStats {
            len_left: n,
            len_right: m,
            matches,
            cells: mem.cells,
            matrix_bytes: mem.peak,
            full_matrix_bytes: full_matrix_bytes(n, m),
            trimmed: suf,
            score_only: false,
            banded,
            band_saturated,
            class_table_builds,
        },
    }
}

/// Row-buffer pool wrapper used inside the split borrow of the arena.
struct RowPool<'a> {
    rows: &'a mut Vec<Vec<u32>>,
}

impl RowPool<'_> {
    fn take(&mut self, len: usize, mem: &mut MemTracker) -> Vec<u32> {
        mem.acquire(len);
        let mut row = self.rows.pop().unwrap_or_default();
        row.clear();
        row.reserve(len);
        row
    }

    fn give(&mut self, row: Vec<u32>, len: usize, mem: &mut MemTracker) {
        mem.release(len);
        self.rows.push(row);
    }
}

/// The divide-and-conquer traceback. Row `i` of the (virtual) DP pairs with
/// `x[i-1]`/`s1[i-1]`, column `j` with `y[j-1]`/`s2[j-1]`; `S(i, j)` denotes
/// the global score matrix the full-matrix implementation would fill.
struct Tracer<'a> {
    x: &'a [u32],
    y: &'a [u32],
    s1: &'a [SeqEntry],
    s2: &'a [SeqEntry],
    /// Pairs in reverse (end-to-start) order, exactly as the historical
    /// traceback pushed them.
    out: &'a mut Vec<AlignedPair>,
    pool: RowPool<'a>,
    mem: &'a mut MemTracker,
    /// Certified band corridor, in core coordinates. Only set after the
    /// banded pre-pass proved its corner score exact; every row advance then
    /// restricts itself to the corridor window.
    cor: Option<Corridor>,
}

impl Tracer<'_> {
    /// The column window row `r` computes: the intersection of `[1, cols]`,
    /// the certified band corridor (if any), and the meet-in-the-middle
    /// clamp `[clo, ∞)` derived from the walk's known value.
    #[inline]
    fn window(&self, r: usize, cols: usize, clo: usize) -> (usize, usize) {
        let mut lo = clo.max(1);
        let mut hi = cols;
        if let Some(cor) = &self.cor {
            lo = lo.max(cor.lo(r));
            hi = hi.min(cor.hi(r, cols));
        }
        (lo, hi)
    }

    /// Computes global DP row `to` over columns `0..=cols` into `out`, given
    /// the true global row `from` in `seed` (column 0 is gap-only, so the
    /// restriction to a column prefix is self-contained).
    ///
    /// The update is in place over one row buffer: cells left of the window
    /// keep the seed row's values and cells right of it are never read by
    /// the walk. Stale cells are always *lower bounds* of the true scores
    /// (DP values are monotone down a column), and the windows are chosen so
    /// that every cell whose value can influence a walk decision — a cell on
    /// some optimal path — is computed exactly:
    ///
    /// * Band corridor: the pre-pass certified that an optimal path stays
    ///   inside the corridor, and a walk cell's best-prefix-plus-canonical-
    ///   suffix path is optimal, hence in-corridor end to end.
    /// * Column clamp `clo`: when the walk's value `v` at `(b, cb)` is
    ///   known, any cell read in rows `(a, b]` has value `≥ v − (b − a) − 1`
    ///   along the walk, so its best prefix crosses row `a` at a column
    ///   where `seed ≥ v − (b − a)`; columns strictly left of the first such
    ///   column can never matter. Understatement is harmless on the read
    ///   side: a match decision only reads the diagonal when the classes
    ///   match, in which case the diagonal cell is on an optimal path (so
    ///   exact), and an up/left comparison against an understated cell can
    ///   never spuriously equal the walk's exact value because true DP
    ///   values are monotone.
    fn advance_rows(
        &mut self,
        from: usize,
        to: usize,
        cols: usize,
        seed: &[u32],
        out: &mut Vec<u32>,
        clo: usize,
    ) {
        out.clear();
        out.extend_from_slice(&seed[..=cols]);
        for r in from + 1..=to {
            let (lo, hi) = self.window(r, cols, clo);
            if lo > hi {
                continue;
            }
            let xc = self.x[r - 1];
            let mut diag = out[lo - 1];
            for j in lo..=hi {
                let old = out[j];
                let mut best = old.max(out[j - 1]);
                if xc == self.y[j - 1] {
                    best = best.max(diag + 1);
                }
                out[j] = best;
                diag = old;
            }
            self.mem.count_cells((hi - lo + 1) as u64);
        }
    }

    /// Walks the canonical traceback backwards from cell `(b, cb)` until it
    /// first reaches row `a`, emitting the moves taken (in reverse order)
    /// and returning the arrival column. `seed` holds the global DP row `a`
    /// over at least `0..=cb` (exact wherever the walk can look, see
    /// [`Tracer::advance_rows`]). Row halving recurses into the bottom strip
    /// (whose seed row is computed on demand and held only while that
    /// recursion is live) and continues iteratively into the top strip,
    /// reusing `seed`.
    ///
    /// `val` is the walk's DP value at `(b, cb)` when known — `None` only on
    /// the unbanded descent spine before the first base strip fixes it.
    /// Every strip that knows its value computes the meet-in-the-middle
    /// split column `clo` — the leftmost seed column that can still reach
    /// `val` — and clamps all row advances below it, which restores the
    /// strict O(n · m) total-work bound of classic Hirschberg.
    fn trace(&mut self, a: usize, b: usize, cb: usize, val: Option<u32>, seed: &[u32]) -> usize {
        let mut b = b;
        let mut cb = cb;
        let mut val = val;
        loop {
            if b == a {
                return cb;
            }
            // The clamp scan is exact even over a partially-stale seed row:
            // understated cells can only fail the `≥` test, and the first
            // truly-qualifying column is on an optimal path, hence computed
            // exactly.
            let clo = match val {
                Some(v) => {
                    let starget = v as i64 - (b - a) as i64;
                    if starget <= 0 {
                        0
                    } else {
                        seed[..=cb]
                            .iter()
                            .position(|&s| s as i64 >= starget)
                            .unwrap_or(0)
                    }
                }
                None => 0,
            };
            if b == a + 1 {
                // Base strip: rows a and b are both known exactly wherever
                // the walk looks; replay the historical greedy cell-for-cell.
                let mut row = self.pool.take(cb + 1, self.mem);
                self.advance_rows(a, b, cb, seed, &mut row, clo);
                let mut j = cb;
                loop {
                    let cur = row[j];
                    if j > 0 && self.x[b - 1] == self.y[j - 1] && cur == seed[j - 1] + 1 {
                        self.out
                            .push(AlignedPair::Match(self.s1[b - 1], self.s2[j - 1]));
                        self.pool.give(row, cb + 1, self.mem);
                        return j - 1;
                    } else if cur == seed[j] {
                        self.out.push(AlignedPair::OnlyLeft(self.s1[b - 1]));
                        self.pool.give(row, cb + 1, self.mem);
                        return j;
                    } else {
                        self.out.push(AlignedPair::OnlyRight(self.s2[j - 1]));
                        j -= 1;
                    }
                }
            }
            let mid = a + (b - a) / 2;
            let mut midrow = self.pool.take(cb + 1, self.mem);
            self.advance_rows(a, mid, cb, seed, &mut midrow, clo);
            let cmid = self.trace(mid, b, cb, val, &midrow);
            // The crossing cell (mid, cmid) is on the canonical path, so its
            // midrow value is exact: it seeds the top strip's clamp.
            let vmid = midrow[cmid];
            self.pool.give(midrow, cb + 1, self.mem);
            // Continue into the top strip with the same seed (row a).
            b = mid;
            cb = cmid;
            val = Some(vmid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linearize::{linearize, mergeable};
    use ssa_ir::parse_function;

    /// The historical full-matrix Needleman–Wunsch implementation: allocates
    /// the complete `(n + 1) × (m + 1)` score matrix and traces back greedily
    /// from the bottom-right corner. The oracle the linear-space [`align`] is
    /// differentially tested against; production paths have no such tier.
    fn align_full_matrix(
        f1: &Function,
        seq1: &[SeqEntry],
        f2: &Function,
        seq2: &[SeqEntry],
    ) -> Alignment {
        let n = seq1.len();
        let m = seq2.len();
        // Score matrix, (n+1) x (m+1). u32 scores; usize would double memory
        // for no benefit, and function sizes beyond 4G entries are not
        // realistic.
        let width = m + 1;
        let mut score = vec![0u32; (n + 1) * width];
        let mut cells = 0u64;
        for i in 1..=n {
            for j in 1..=m {
                cells += 1;
                let up = score[(i - 1) * width + j];
                let left = score[i * width + (j - 1)];
                let mut best = up.max(left);
                if mergeable(f1, seq1[i - 1], f2, seq2[j - 1]) {
                    let diag = score[(i - 1) * width + (j - 1)] + 1;
                    best = best.max(diag);
                }
                score[i * width + j] = best;
            }
        }

        // Traceback from the bottom-right corner.
        let mut pairs_rev = Vec::with_capacity(n + m);
        let mut matches = 0usize;
        let (mut i, mut j) = (n, m);
        while i > 0 || j > 0 {
            let cur = score[i * width + j];
            if i > 0
                && j > 0
                && mergeable(f1, seq1[i - 1], f2, seq2[j - 1])
                && cur == score[(i - 1) * width + (j - 1)] + 1
            {
                pairs_rev.push(AlignedPair::Match(seq1[i - 1], seq2[j - 1]));
                matches += 1;
                i -= 1;
                j -= 1;
            } else if i > 0 && cur == score[(i - 1) * width + j] {
                pairs_rev.push(AlignedPair::OnlyLeft(seq1[i - 1]));
                i -= 1;
            } else {
                pairs_rev.push(AlignedPair::OnlyRight(seq2[j - 1]));
                j -= 1;
            }
        }
        pairs_rev.reverse();

        let matrix = (score.len() * std::mem::size_of::<u32>()) as u64;
        Alignment {
            pairs: pairs_rev,
            stats: AlignmentStats {
                len_left: n,
                len_right: m,
                matches,
                cells,
                matrix_bytes: matrix,
                full_matrix_bytes: matrix,
                trimmed: 0,
                score_only: false,
                banded: false,
                band_saturated: false,
                class_table_builds: 0,
            },
        }
    }

    /// Exhaustive (exponential) alignment, to check the optimality of
    /// [`align`] on tiny sequences.
    fn brute_force_best_score(
        f1: &Function,
        seq1: &[SeqEntry],
        f2: &Function,
        seq2: &[SeqEntry],
    ) -> usize {
        fn go(f1: &Function, s1: &[SeqEntry], f2: &Function, s2: &[SeqEntry]) -> usize {
            if s1.is_empty() || s2.is_empty() {
                return 0;
            }
            let mut best = go(f1, &s1[1..], f2, s2).max(go(f1, s1, f2, &s2[1..]));
            if mergeable(f1, s1[0], f2, s2[0]) {
                best = best.max(1 + go(f1, &s1[1..], f2, &s2[1..]));
            }
            best
        }
        go(f1, seq1, f2, seq2)
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
    fn identical_functions_align_perfectly() {
        let f = parse_function(F1).unwrap();
        let seq = linearize(&f);
        let a = align(&f, &seq, &f, &seq);
        assert_eq!(a.stats.matches, seq.len());
        assert!(a.pairs.iter().all(|p| matches!(p, AlignedPair::Match(..))));
        assert_eq!(a.stats.match_ratio(), 1.0);
        // An identical pair is resolved entirely by suffix trimming: no DP
        // rows ever go live.
        assert_eq!(a.stats.trimmed, seq.len());
        assert_eq!(a.stats.matrix_bytes, 0);
    }

    #[test]
    fn paper_example_aligns_the_shared_skeleton() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let a = align(&f1, &s1, &f2, &s2);
        // start/end calls, icmp-free matches, labels and branches: substantial
        // overlap but not total.
        assert!(a.stats.matches >= 8, "only {} matches", a.stats.matches);
        assert!(a.stats.matches < s1.len().min(s2.len()));
        // The output must contain every entry of both sequences exactly once.
        let left: usize = a
            .pairs
            .iter()
            .filter(|p| matches!(p, AlignedPair::Match(..) | AlignedPair::OnlyLeft(_)))
            .count();
        let right: usize = a
            .pairs
            .iter()
            .filter(|p| matches!(p, AlignedPair::Match(..) | AlignedPair::OnlyRight(_)))
            .count();
        assert_eq!(left, s1.len());
        assert_eq!(right, s2.len());
    }

    #[test]
    fn linear_space_traceback_equals_the_full_matrix_reference() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let fast = align(&f1, &s1, &f2, &s2);
        let reference = align_full_matrix(&f1, &s1, &f2, &s2);
        assert_eq!(fast.pairs, reference.pairs);
        assert_eq!(fast.stats.matches, reference.stats.matches);
        // And in both orientations plus the self-pair.
        let fast = align(&f2, &s2, &f1, &s1);
        let reference = align_full_matrix(&f2, &s2, &f1, &s1);
        assert_eq!(fast.pairs, reference.pairs);
        let fast = align(&f1, &s1, &f1, &s1);
        let reference = align_full_matrix(&f1, &s1, &f1, &s1);
        assert_eq!(fast.pairs, reference.pairs);
    }

    #[test]
    fn score_only_tier_agrees_with_the_traceback() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let score = align_score(&f1, &s1, &f2, &s2);
        let full = align(&f1, &s1, &f2, &s2);
        assert_eq!(score.matches, full.stats.matches);
        assert!(score.score_only);
        assert!(!full.stats.score_only);
    }

    #[test]
    fn alignment_preserves_relative_order() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let a = align(&f1, &s1, &f2, &s2);
        // Matched left entries must appear in the same order as in s1.
        let mut last = None;
        for p in &a.pairs {
            if let AlignedPair::Match(l, _) | AlignedPair::OnlyLeft(l) = p {
                let idx = s1.iter().position(|e| e == l).unwrap();
                if let Some(prev) = last {
                    assert!(idx > prev);
                }
                last = Some(idx);
            }
        }
    }

    #[test]
    fn dp_matches_brute_force_on_small_functions() {
        let a = parse_function(
            "define i32 @a(i32 %x) {\nentry:\n  %p = add i32 %x, 1\n  %q = mul i32 %p, 2\n  ret i32 %q\n}",
        )
        .unwrap();
        let b = parse_function(
            "define i32 @b(i32 %x) {\nentry:\n  %p = mul i32 %x, 2\n  %q = add i32 %p, 3\n  %r = mul i32 %q, 5\n  ret i32 %r\n}",
        )
        .unwrap();
        let sa = linearize(&a);
        let sb = linearize(&b);
        let dp = align(&a, &sa, &b, &sb);
        let brute = brute_force_best_score(&a, &sa, &b, &sb);
        assert_eq!(dp.stats.matches, brute);
        assert_eq!(align_score(&a, &sa, &b, &sb).matches, brute);
    }

    #[test]
    fn stats_report_linear_live_memory_against_the_quadratic_baseline() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let a = align(&f1, &s1, &f2, &s2);
        let quadratic = ((s1.len() + 1) * (s2.len() + 1) * 4) as u64;
        assert_eq!(a.stats.full_matrix_bytes, quadratic);
        assert!(a.stats.matrix_bytes > 0, "this pair needs a DP core");
        assert!(
            a.stats.matrix_bytes < quadratic,
            "live peak {} must undercut the full matrix {}",
            a.stats.matrix_bytes,
            quadratic
        );
        assert!(a.stats.cells > 0);
        // The reference still reports the quadratic figures.
        let reference = align_full_matrix(&f1, &s1, &f2, &s2);
        assert_eq!(reference.stats.matrix_bytes, quadratic);
        assert_eq!(reference.stats.cells, (s1.len() * s2.len()) as u64);
    }

    #[test]
    fn score_only_peak_is_bounded_by_the_shorter_sequence() {
        // Satellite: score-only live bytes are O(min(n, m)) — growing the
        // longer side must not grow the DP rows.
        let grow = |blocks: usize| {
            let mut body = String::from("define i32 @g(i32 %x) {\nentry:\n  br label %b0\n");
            for i in 0..blocks {
                body.push_str(&format!(
                    "b{i}:\n  %v{i} = add i32 %x, {i}\n  br label %b{}\n",
                    i + 1
                ));
            }
            body.push_str(&format!("b{blocks}:\n  ret i32 %x\n}}"));
            parse_function(&body).unwrap()
        };
        let short_fn = parse_function(
            "define i32 @s(i32 %x) {\nentry:\n  %a = mul i32 %x, 2\n  %b = icmp eq i32 %a, 0\n  ret i32 %a\n}",
        )
        .unwrap();
        let short_seq = linearize(&short_fn);
        let medium = grow(40);
        let long = grow(160);
        let medium_seq = linearize(&medium);
        let long_seq = linearize(&long);
        let stats_medium = align_score(&medium, &medium_seq, &short_fn, &short_seq);
        let stats_long = align_score(&long, &long_seq, &short_fn, &short_seq);
        // Identical peaks: both runs roll over the short side only.
        assert_eq!(stats_medium.matrix_bytes, stats_long.matrix_bytes);
        let bound = (2 * (short_seq.len() + 1) * 4) as u64;
        assert!(stats_long.matrix_bytes <= bound);
        assert!(stats_long.full_matrix_bytes > 10 * stats_long.matrix_bytes.max(1));
    }

    #[test]
    fn mergeability_classes_agree_with_the_structural_predicate() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        with_scratch(|scratch| {
            scratch.classify(&f1, &s1, &f2, &s2);
            for (i, &e1) in s1.iter().enumerate() {
                for (j, &e2) in s2.iter().enumerate() {
                    assert_eq!(
                        scratch.c1[i] == scratch.c2[j],
                        mergeable(&f1, e1, &f2, e2),
                        "class table diverges at ({i}, {j})"
                    );
                }
            }
        });
    }

    #[test]
    fn tier_stats_are_attributed_to_their_run() {
        let f = parse_function(F1).unwrap();
        let seq = linearize(&f);
        let score = align_score(&f, &seq, &f, &seq);
        let full = align(&f, &seq, &f, &seq).stats;
        let reference = align_full_matrix(&f, &seq, &f, &seq).stats;
        assert!(score.score_only);
        assert!(!full.score_only);
        assert!(!reference.score_only);
        // Only the quadratic reference holds the whole matrix live.
        assert_eq!(reference.matrix_bytes, reference.full_matrix_bytes);
        assert!(full.matrix_bytes < full.full_matrix_bytes);
        assert!(score.trimmed + full.trimmed >= 2 * seq.len());
        let mut tally = AlignTally::default();
        tally.add(&score);
        tally.add(&full);
        assert_eq!((tally.score_only_runs, tally.full_runs), (1, 1));
        assert_eq!(tally.lengths.count(), 2);
        assert_eq!(tally.lengths.sum(), 4 * seq.len() as u64);
        // Cells, trimmed entries and peaks are the traceback run's alone.
        assert_eq!(tally.cells, full.cells);
        assert_eq!(tally.trimmed_entries, full.trimmed as u64);
        assert_eq!(tally.peak_live_bytes, full.matrix_bytes);
        assert_eq!(tally.peak_full_matrix_bytes, full.full_matrix_bytes);
        let mut twice = tally;
        twice.absorb(&tally);
        assert_eq!(twice.cells, 2 * full.cells);
        assert_eq!(twice.trimmed_entries, 2 * full.trimmed as u64);
        assert_eq!(twice.peak_full_matrix_bytes, full.full_matrix_bytes);
    }

    #[test]
    fn banded_alignment_is_byte_identical_at_every_width() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let reference = align_full_matrix(&f1, &s1, &f2, &s2);
        for slack in 0..=8u32 {
            let banded = align_banded(&f1, &s1, &f2, &s2, Some(Band::new(slack)));
            assert_eq!(banded.pairs, reference.pairs, "slack {slack}");
            assert_eq!(banded.stats.matches, reference.stats.matches);
            let score = align_score_banded(&f1, &s1, &f2, &s2, Some(Band::new(slack)));
            assert_eq!(score.matches, reference.stats.matches, "slack {slack}");
            // And the mirrored orientation.
            let reference_rev = align_full_matrix(&f2, &s2, &f1, &s1);
            let banded_rev = align_banded(&f2, &s2, &f1, &s1, Some(Band::new(slack)));
            assert_eq!(banded_rev.pairs, reference_rev.pairs, "slack {slack}");
        }
    }

    /// Two same-length functions whose shared run sits 30 diagonals off the
    /// corridor (the |n − m| shift is zero, so a narrow band excludes the
    /// run entirely): the band must saturate — the corner score cannot be
    /// certified — and fall back, still byte-identical to the reference.
    #[test]
    fn band_saturation_falls_back_on_diagonal_shifted_sequences() {
        let mut b1 = String::from("define i32 @l(i32 %x) {\nentry:\n");
        for i in 0..30 {
            b1.push_str(&format!("  %m{i} = mul i32 %x, {i}\n"));
        }
        for i in 0..10 {
            b1.push_str(&format!("  %a{i} = add i32 %x, {i}\n"));
        }
        b1.push_str("  %c = icmp eq i32 %x, 0\n  ret i32 %x\n}");
        let f1 = parse_function(&b1).unwrap();
        let mut b2 = String::from("define i32 @s(i32 %x) {\nentry:\n");
        for i in 0..10 {
            b2.push_str(&format!("  %a{i} = add i32 %x, {i}\n"));
        }
        for i in 0..30 {
            b2.push_str(&format!("  %d{i} = sdiv i32 %x, {}\n", i + 1));
        }
        b2.push_str("  %c = icmp ne i32 %x, 0\n  ret i32 %x\n}");
        let f2 = parse_function(&b2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        assert_eq!(s1.len(), s2.len());
        let banded = align_banded(&f1, &s1, &f2, &s2, Some(Band::new(1)));
        assert!(banded.stats.banded);
        assert!(banded.stats.band_saturated, "band must saturate");
        let mut tally = AlignTally::default();
        tally.add(&banded.stats);
        assert_eq!((tally.band_runs, tally.band_saturations), (1, 1));
        let reference = align_full_matrix(&f1, &s1, &f2, &s2);
        assert_eq!(banded.pairs, reference.pairs);
        assert_eq!(banded.stats.matches, reference.stats.matches);
        // Same fallback guarantee on the score-only tier.
        let score = align_score_banded(&f1, &s1, &f2, &s2, Some(Band::new(1)));
        assert!(score.band_saturated);
        assert_eq!(score.matches, reference.stats.matches);
    }

    /// A *similar* pair (two extra instructions in the middle) certifies a
    /// narrow band: the corner score reaches the floor, no fallback runs,
    /// and the banded run computes strictly fewer cells than the exact one.
    #[test]
    fn certified_bands_skip_work_without_changing_results() {
        let adds = 60usize;
        let mut b1 = String::from("define i32 @a(i32 %x) {\nentry:\n");
        for i in 0..adds {
            b1.push_str(&format!("  %a{i} = add i32 %x, {i}\n"));
        }
        b1.push_str("  %c = icmp eq i32 %x, 0\n  ret i32 %x\n}");
        let f1 = parse_function(&b1).unwrap();
        let mut b2 = String::from("define i32 @b(i32 %x) {\nentry:\n");
        for i in 0..adds {
            if i == adds / 2 {
                b2.push_str("  %e0 = mul i32 %x, 7\n  %e1 = mul i32 %x, 9\n");
            }
            b2.push_str(&format!("  %a{i} = add i32 %x, {i}\n"));
        }
        b2.push_str("  %c = icmp ne i32 %x, 0\n  ret i32 %x\n}");
        let f2 = parse_function(&b2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let exact = align(&f1, &s1, &f2, &s2);
        let banded = align_banded(&f1, &s1, &f2, &s2, Some(Band::new(4)));
        assert!(banded.stats.banded);
        assert!(!banded.stats.band_saturated, "slack 4 must certify");
        assert_eq!(banded.pairs, exact.pairs);
        assert!(
            banded.stats.cells < exact.stats.cells,
            "certified band must save work: {} vs {}",
            banded.stats.cells,
            exact.stats.cells
        );
        let score_banded = align_score_banded(&f1, &s1, &f2, &s2, Some(Band::new(4)));
        let score_exact = align_score(&f1, &s1, &f2, &s2);
        assert_eq!(score_banded.matches, score_exact.matches);
        assert!(score_banded.cells < score_exact.cells);
    }

    /// The meet-in-the-middle column clamp keeps total traceback work at
    /// O(n · m) even on the adversarial family where the canonical path hugs
    /// the right edge (which used to cost an extra log n factor).
    #[test]
    fn traceback_cells_stay_quadratic_on_right_edge_hugging_paths() {
        let adds = 12usize;
        let muls = 400usize;
        // f1: the shared adds at the *top*, then a long unmatched mul tail.
        let mut b1 = String::from("define i32 @a(i32 %x) {\nentry:\n");
        for i in 0..adds {
            b1.push_str(&format!("  %a{i} = add i32 %x, {i}\n"));
        }
        for i in 0..muls {
            b1.push_str(&format!("  %m{i} = mul i32 %x, {i}\n"));
        }
        b1.push_str("  ret i32 %x\n}");
        let f1 = parse_function(&b1).unwrap();
        // f2: just the adds, ending differently so suffix trimming cannot
        // shortcut the DP.
        let mut b2 = String::from("define i32 @b(i32 %x) {\nentry:\n");
        for i in 0..adds {
            b2.push_str(&format!("  %a{i} = add i32 %x, {i}\n"));
        }
        b2.push_str("  %c = icmp eq i32 %x, 0\n  ret i32 %x\n}");
        let f2 = parse_function(&b2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let a = align(&f1, &s1, &f2, &s2);
        let reference = align_full_matrix(&f1, &s1, &f2, &s2);
        assert_eq!(a.pairs, reference.pairs);
        // An unclamped divide-and-conquer descent costs ~(1 + log₂(n)/2)·n·m
        // on this shape (≈ 5.3·n·m at n = 414): every block's walk target sits
        // on the right edge, so block widths never shrink. The split-value
        // clamp keeps the measured cost at ~3.45·n·m here, and on *similar*
        // pairs (the tier the planner feeds) at ~2·n·m.
        let quadratic = (s1.len() as u64) * (s2.len() as u64);
        assert!(
            a.stats.cells <= 4 * quadratic,
            "traceback cells {} exceed 4·n·m = {} — the column clamp regressed",
            a.stats.cells,
            4 * quadratic
        );
    }

    #[test]
    fn class_tables_are_cached_and_invalidated_with_the_body() {
        let f1 = parse_function(F1).unwrap();
        let f2 = parse_function(F2).unwrap();
        let s1 = linearize(&f1);
        let s2 = linearize(&f2);
        let first = align(&f1, &s1, &f2, &s2).stats;
        assert_eq!(first.class_table_builds, 2, "first run builds both tables");
        let mut tally = AlignTally::default();
        tally.add(&align(&f1, &s1, &f2, &s2).stats);
        tally.add(&align_score(&f1, &s1, &f2, &s2));
        assert_eq!(tally.class_table_misses, 0, "repeat runs build nothing");
        assert_eq!(tally.class_table_hits, 4, "repeat runs hit the cache");
        // Mutating the function clears its slot; the next run rebuilds.
        let mut f1 = f1;
        f1.set_name("renamed");
        let s1 = linearize(&f1);
        let rebuilt = align(&f1, &s1, &f2, &s2).stats;
        assert_eq!(
            rebuilt.class_table_builds, 1,
            "mutation invalidates exactly one table"
        );
    }

    #[test]
    fn empty_sequences_align_trivially() {
        let f = parse_function("define void @e() {\nentry:\n  ret void\n}").unwrap();
        let a = align(&f, &[], &f, &[]);
        assert!(a.pairs.is_empty());
        assert_eq!(a.stats.matches, 0);
        assert_eq!(a.stats.match_ratio(), 0.0);
        assert_eq!(a.stats.matrix_bytes, 0);
        let seq = linearize(&f);
        let one_sided = align(&f, &seq, &f, &[]);
        assert_eq!(one_sided.pairs.len(), seq.len());
        assert!(one_sided
            .pairs
            .iter()
            .all(|p| matches!(p, AlignedPair::OnlyLeft(_))));
        assert_eq!(one_sided.pairs, align_full_matrix(&f, &seq, &f, &[]).pairs);
        let other_side = align(&f, &[], &f, &seq);
        assert_eq!(other_side.pairs, align_full_matrix(&f, &[], &f, &seq).pairs);
    }
}
