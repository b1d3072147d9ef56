//! The cross-module merging pipeline: index → sharded discovery → speculative
//! parallel scoring → sequential profit-ordered commits with donor-side thunk
//! emission — all driven by the unified planner engine ([`salssa::plan`])
//! that the intra-module driver shares.
//!
//! The commit protocol for a pair `f1@host`, `f2@donor`:
//!
//! 1. `f2` is imported into the host module with [`ssa_ir::import_function`]
//!    (ODR-identical host copies dedup instead of copying);
//! 2. the imported pair is merged by the existing pairwise machinery
//!    ([`salssa::merge_pair`]) and committed when the code-size model judges
//!    it profitable: host keeps the merged function plus a thunk under `f1`'s
//!    name;
//! 3. the donor module's `f2` is replaced by a thunk tail-calling the merged
//!    function — which the donor now only *declares* — so the donor keeps
//!    exporting a working symbol and the final link resolves the call into
//!    the host's definition.
//!
//! Pairs whose commit would break whole-program linking (ODR hazards: the
//! symbols involved, or the donor function's module-internal callees, are
//! defined differently elsewhere in the corpus) are skipped conservatively.
//! [`ssa_ir::Linkage`] metadata relaxes the rules: internal-linkage symbols
//! are module-local and never conflict across translation units, so only
//! externally visible duplicate definitions count as hazards. With
//! [`XMergeConfig::check_semantics`] every commit is additionally trial-run
//! with the reference interpreter against the linked host+donor pair (the
//! only modules a commit mutates), and rejected on any observable divergence.
//!
//! With [`XMergeConfig::fixpoint`] the pipeline iterates to a fixpoint: after
//! each cross-module round the changed modules are re-summarized (unchanged
//! ones reuse their index entries via the content-hash cache), each module is
//! intra-merged in place, and another round runs — so a merged host function
//! re-enters the candidate pool and can merge again — until a round commits
//! nothing or the round cap is reached.
//!
//! A run merges each ordered pair of function bodies at most once: every
//! round's scoring and every intra pass share one [`ScoreMemo`], keyed by
//! each side's name and structural key, so a pair a later round or pass
//! meets again with both bodies unchanged takes its remembered score
//! ([`PlanStats::memo_hits`]). A remembered score carries no merged body: a
//! cross commit re-merges its winner anyway, and an intra commit of a
//! remembered pair merges it once more. Hazard and oracle verdicts are
//! computed fresh every time.
//!
//! The intra passes of one round run in parallel, one module each
//! ([`merge_module_with_memo`]): a pass reads and writes only its module.
//! When the run records decisions, each pass records its own into a buffer
//! ([`telemetry::capture_decisions`]); every pass reads the memo as the
//! round left it. The pipeline then appends the decisions, adds the passes'
//! new scores to the memo, runs the paranoid checks and folds the reports,
//! all in module order, so output, counts and the decision log (sequence
//! numbers included) are those of passes run one after another. The passes'
//! phase times still add up into [`PlanStats::score_time`] and
//! [`PlanStats::commit_time`], so those sums can exceed the wall time. Which
//! pass trips an armed `plan.score` or `plan.commit` fault probe depends on
//! their timing.
//!
//! Every round also (incrementally) rebuilds the whole-program **call graph**
//! (the `callgraph` crate). It drives **host selection**
//! ([`XMergeConfig::host_policy`]): under [`HostPolicy::CallGraph`] each
//! candidate pair is re-oriented through the planner's placement hook so the
//! member with *lower* static intra-module coupling (callers + callees that
//! would be forced into cross-module hops by moving its body) donates,
//! minimizing the call edges the commit forces cross-module; ties fall back
//! to the size rule. Every commit records the forced and saved edge counts,
//! and every round reports how many independent call-graph regions the
//! corpus splits into ([`CorpusMergeReport::region_counts`]).
//!
//! Each round is one sequential [`run_plan`] over the whole corpus: hazard
//! verdicts are computed on each group winner at commit time, and every
//! oracle run links its own before and after programs.

use crate::discover::{discover, CandidatePair, DiscoveryConfig};
use crate::index::{CorpusIndex, IndexReuse};
use callgraph::{module_regions, CallGraph, CallIndexReuse, CorpusCallIndex};
use fm_align::{AlignTally, MinHash};
use rayon::prelude::*;
use salssa::plan::{run_plan, CandidateSource, CommitOutcome, MemoScore, PlanStats, ScoreMemo};
use salssa::{
    build_thunk, estimate_profit, merge_module_with_memo, merge_pair_with_distance, DriverConfig,
    MergeOptions, MergeRecord, PassWork, SalSsaMerger, SEMANTIC_SAMPLES, SEMANTIC_SEED,
};
use ssa_ir::{
    callees_of, import_function, link_modules_with_renames, sanitize_symbol,
    structural_key_counters, structurally_equal, FuncDecl, Function, Linkage, Module,
};
use ssa_passes::codesize::function_size_bytes;
use ssa_passes::module_size_bytes;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use telemetry::Histogram;

/// How the cross-module pipeline decides which module hosts a merged body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum HostPolicy {
    /// The larger function's module hosts (ties broken by module/function
    /// name) — the original rule, encoded in discovery's pair orientation.
    #[default]
    Size,
    /// Call-graph locality decides: the pair member with lower static
    /// intra-module coupling donates its body, so the commit forces the
    /// fewest call edges cross-module; ties fall back to [`HostPolicy::Size`].
    CallGraph,
}

impl fmt::Display for HostPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HostPolicy::Size => write!(f, "size"),
            HostPolicy::CallGraph => write!(f, "callgraph"),
        }
    }
}

impl std::str::FromStr for HostPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<HostPolicy, String> {
        match s {
            "size" => Ok(HostPolicy::Size),
            "callgraph" => Ok(HostPolicy::CallGraph),
            other => Err(format!("unknown host policy '{other}' (size|callgraph)")),
        }
    }
}

/// Fixpoint iteration of the cross-module pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixpointConfig {
    /// Maximum number of cross-module rounds (clamped to at least 1).
    pub max_rounds: usize,
    /// Intra-module driver configuration for the per-module merge pass
    /// interleaved after every cross-module round; `None` disables the
    /// interleaved intra pass.
    pub intra: Option<DriverConfig>,
}

impl Default for FixpointConfig {
    fn default() -> Self {
        FixpointConfig {
            max_rounds: 4,
            intra: Some(DriverConfig::default()),
        }
    }
}

/// Configuration of the cross-module pipeline.
#[derive(Debug, Clone)]
pub struct XMergeConfig {
    /// Pairwise merge (code generation) options, including the code-size
    /// target of the profitability model.
    pub options: MergeOptions,
    /// Candidate discovery tuning.
    pub discovery: DiscoveryConfig,
    /// MinHash signature width of the index.
    pub num_hashes: usize,
    /// Run the whole-program differential oracle on every commit.
    pub check_semantics: bool,
    /// Iterate to a fixpoint (merged hosts re-enter the candidate pool,
    /// interleaved with per-module intra merging). `None` runs one round,
    /// exactly the pre-fixpoint behavior.
    pub fixpoint: Option<FixpointConfig>,
    /// How merged bodies are placed (defaults to the original size rule).
    pub host_policy: HostPolicy,
    /// Paranoid verification: capture the corpus's diagnostic baseline with
    /// the `analysis` engine after module-name uniquification, re-analyze
    /// every mutated module after each committed cross-module operation (and
    /// the whole program once at the end), and report diagnostics the run
    /// introduced as [`CorpusMergeReport::paranoid_delta`]. Purely
    /// observational — commit decisions are bit-identical with it on or off.
    pub paranoid: bool,
    /// Admissible candidate pre-filter ([`fm_align::prefilter_rejects`]):
    /// drop candidate pairs whose class-histogram profit bound cannot clear
    /// the merge overhead before any speculative scoring runs. The bound is
    /// admissible, so committed records are identical with it on or off.
    pub prefilter: bool,
    /// Per-execution step budget for the semantic oracle; `None` is the
    /// interpreter's default limit. A budget-exhausting oracle run is a
    /// counted `rejected(oracle_timeout)` instead of a verdict.
    pub oracle_fuel: Option<u64>,
}

impl Default for XMergeConfig {
    fn default() -> Self {
        XMergeConfig::new()
    }
}

impl XMergeConfig {
    /// The default pipeline configuration.
    pub fn new() -> XMergeConfig {
        XMergeConfig {
            options: MergeOptions::default(),
            discovery: DiscoveryConfig::default(),
            num_hashes: MinHash::DEFAULT_HASHES,
            check_semantics: false,
            fixpoint: None,
            host_policy: HostPolicy::default(),
            paranoid: false,
            prefilter: true,
            oracle_fuel: None,
        }
    }

    /// Enables the semantic oracle.
    pub fn with_check_semantics(mut self, on: bool) -> XMergeConfig {
        self.check_semantics = on;
        self
    }

    /// Enables fixpoint iteration with the given round cap and interleaved
    /// intra-module pass.
    pub fn with_fixpoint(mut self, fixpoint: FixpointConfig) -> XMergeConfig {
        self.fixpoint = Some(fixpoint);
        self
    }

    /// Selects the host-placement policy.
    pub fn with_host_policy(mut self, policy: HostPolicy) -> XMergeConfig {
        self.host_policy = policy;
        self
    }

    /// Enables paranoid post-commit re-analysis.
    pub fn with_paranoid(mut self, on: bool) -> XMergeConfig {
        self.paranoid = on;
        self
    }

    /// Enables or disables the admissible candidate pre-filter.
    pub fn with_prefilter(mut self, on: bool) -> XMergeConfig {
        self.prefilter = on;
        self
    }

    /// Sets the semantic oracle's per-execution step budget.
    pub fn with_oracle_fuel(mut self, fuel: Option<u64>) -> XMergeConfig {
        self.oracle_fuel = fuel;
        self
    }
}

/// One committed cross-module operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossMergeRecord {
    /// Module that hosts the merged function (or the kept ODR copy).
    pub host_module: String,
    /// Module whose function was replaced by a thunk (or dropped).
    pub donor_module: String,
    /// Host-side input function.
    pub f1: String,
    /// Donor-side input function.
    pub f2: String,
    /// Name of the merged function (empty for a pure ODR dedup).
    pub merged_name: String,
    /// Modelled byte savings across both modules.
    pub profit_bytes: i64,
    /// IR-instruction sizes (f1, f2, merged; merged = 0 for a dedup).
    pub sizes: (usize, usize, usize),
    /// `true` when the pair was ODR-identical and the donor copy was simply
    /// dropped instead of merged.
    pub odr_dedup: bool,
    /// Static call edges this commit's placement forces cross-module: the
    /// donor function's intra-module coupling (its same-module callers now
    /// hop out through the thunk; for genuine merges, its body's same-module
    /// callees are hopped back to from the host — an ODR dedup deletes the
    /// body, so only caller sites count).
    pub forced_edges: u32,
    /// Static call edges the host-selection policy saved versus the flipped
    /// placement (0 under [`HostPolicy::Size`] and on coupling ties).
    pub saved_edges: u32,
}

/// Before/after statistics of one module of the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleStats {
    /// Module name.
    pub name: String,
    /// Function definitions before / after.
    pub functions: (usize, usize),
    /// Modelled code size in bytes before / after.
    pub bytes: (usize, usize),
}

/// Aggregate report of one cross-module merging run.
#[derive(Debug, Clone, Default)]
pub struct CorpusMergeReport {
    /// Number of modules in the corpus.
    pub modules: usize,
    /// Number of functions across the corpus before merging.
    pub functions: usize,
    /// Cross-module candidate pairs produced by sharded discovery (summed
    /// over fixpoint rounds).
    pub candidates: usize,
    /// Pairs scored successfully (the merger did not refuse them), scores
    /// the run's memo supplied included.
    pub attempts: usize,
    /// Committed cross-module operations, in commit order.
    pub committed: Vec<CrossMergeRecord>,
    /// Pairs skipped because committing them would break whole-program
    /// linking (ODR hazards).
    pub hazard_skips: usize,
    /// Commits rejected by the semantic oracle.
    pub semantic_rejections: usize,
    /// Whole-corpus modelled size before merging, in bytes.
    pub size_before: usize,
    /// Whole-corpus modelled size after merging, in bytes.
    pub size_after: usize,
    /// Per-module before/after statistics.
    pub per_module: Vec<ModuleStats>,
    /// Time spent building the summary index.
    pub index_time: Duration,
    /// Time spent (re-)building and resolving the whole-program call graph.
    pub callgraph_time: Duration,
    /// Time spent in sharded candidate discovery.
    pub discover_time: Duration,
    /// Time spent speculatively scoring candidate pairs.
    pub score_time: Duration,
    /// Time spent committing (imports, merges, thunk emission, oracle runs).
    pub commit_time: Duration,
    /// Total time spent in sequence alignment by every merge the run made
    /// (cross trial merges and commit re-merges, interleaved intra passes),
    /// refused ones included.
    pub align_time: Duration,
    /// Total time the same merges spent in code generation (including SSA
    /// repair and local clean-up).
    pub codegen_time: Duration,
    /// Fixpoint rounds executed (1 without [`XMergeConfig::fixpoint`]).
    pub rounds: usize,
    /// Cross-module commits per round, in round order.
    pub round_commits: Vec<usize>,
    /// Merges committed by the interleaved intra-module passes, with the
    /// module each one happened in.
    pub intra_committed: Vec<(String, MergeRecord)>,
    /// Planner-engine statistics (cross rounds and interleaved intra passes
    /// folded together).
    pub planner: PlanStats,
    /// Structural-key cache hits observed during this run. The cache
    /// counters are process-wide, so this delta includes concurrent runs'
    /// lookups.
    pub cache_hits: u64,
    /// Structural-key cache misses (normalized re-prints) during this run;
    /// process-wide like [`Self::cache_hits`].
    pub cache_misses: u64,
    /// Index reuse of the incremental (re-)builds, summed over rounds.
    pub index_reuse: IndexReuse,
    /// Host-placement policy the run used.
    pub host_policy: HostPolicy,
    /// Static call edges forced cross-module, summed over all commits.
    pub forced_cross_edges: u64,
    /// Static call edges the host-selection policy saved versus flipped
    /// placements, summed over all commits.
    pub saved_cross_edges: u64,
    /// Independent call-graph regions per round, in round order: modules
    /// linked by cross-module calls, shared externally visible definitions
    /// or candidate pairs fall into one region.
    pub region_counts: Vec<usize>,
    /// Call-site index reuse of the incremental per-round rebuilds.
    pub call_index_reuse: CallIndexReuse,
    /// Peak *live* alignment DP bytes over the traceback runs counted in
    /// [`Self::align_full_runs`] (cross and interleaved intra, commit
    /// re-alignments included): rolling rows plus divide-and-conquer seed
    /// rows.
    pub align_peak_live_bytes: u64,
    /// Peak footprint the historical full score matrix would have had over
    /// the same runs (the quadratic baseline the engine undercuts).
    pub align_peak_full_matrix_bytes: u64,
    /// Alignment cells of the same runs (DP plus trim comparisons),
    /// saturating. The pre-filter's score-only runs are not included.
    pub align_cells: u64,
    /// Match pairs the same runs resolved by prefix/suffix trimming instead
    /// of DP.
    pub align_trimmed_entries: u64,
    /// Score-only alignment runs this pipeline run made (the pre-filter's
    /// gray-zone passes, cross and intra).
    pub align_score_only_runs: u64,
    /// Traceback alignment runs this pipeline run made: every pair merged
    /// for its score, refused ones included (pairs whose score the run's
    /// memo supplied ran none), plus each commit's re-alignment.
    pub align_full_runs: u64,
    /// Banded DP attempts across both alignment tiers.
    pub align_band_runs: u64,
    /// Banded attempts that saturated their corridor and fell back to the
    /// exact tier (a subset of [`Self::align_band_runs`]).
    pub align_band_saturations: u64,
    /// Class-table lookups of this run's alignments and pre-filter checks
    /// that found the table cached on the function.
    pub align_class_table_hits: u64,
    /// Class-table builds of this run's alignments and pre-filter checks.
    pub align_class_table_misses: u64,
    /// Aligned sequence lengths (`n + m`) of every alignment run counted
    /// above.
    pub align_lengths: Histogram,
    /// Whether paranoid post-commit re-analysis was enabled for this run.
    pub paranoid: bool,
    /// Post-commit re-analysis checks performed (0 unless
    /// [`XMergeConfig::paranoid`] is set). Interleaved intra-module passes
    /// and the final whole-program check are included.
    pub paranoid_checks: usize,
    /// Diagnostics introduced relative to the input corpus's baseline. A
    /// correct pipeline keeps this empty; anything here is a regression some
    /// commit introduced.
    pub paranoid_delta: Vec<analysis::Diagnostic>,
    /// Aggregate analysis-engine statistics (cache hits/misses, timing) over
    /// the baseline capture and every paranoid check.
    pub paranoid_stats: analysis::AnalysisStats,
    /// Unparseable functions skipped by the error-recovering frontend while
    /// loading the corpus (filled by the loader, not the merge).
    pub functions_skipped: usize,
    /// Modules that needed frontend recovery (at least one skipped function)
    /// but still loaded and participated in the run.
    pub modules_recovered: usize,
}

impl CorpusMergeReport {
    /// Number of committed cross-module operations (merges + dedups).
    pub fn num_commits(&self) -> usize {
        self.committed.len()
    }

    /// Committed genuine cross-module merges (excluding pure ODR dedups).
    pub fn num_merges(&self) -> usize {
        self.committed.iter().filter(|r| !r.odr_dedup).count()
    }

    /// Merges committed by the interleaved intra-module passes.
    pub fn num_intra_merges(&self) -> usize {
        self.intra_committed.len()
    }

    /// Total modelled byte savings over all commits (cross and intra).
    pub fn total_profit_bytes(&self) -> i64 {
        self.committed.iter().map(|r| r.profit_bytes).sum::<i64>()
            + self
                .intra_committed
                .iter()
                .map(|(_, r)| r.profit_bytes)
                .sum::<i64>()
    }

    /// Structural-key cache hit rate over this run, in [0, 1].
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The run's alignment sums, as held in the `align_*` run fields.
    pub(crate) fn alignments(&self) -> AlignTally {
        AlignTally {
            score_only_runs: self.align_score_only_runs,
            full_runs: self.align_full_runs,
            cells: self.align_cells,
            trimmed_entries: self.align_trimmed_entries,
            peak_live_bytes: self.align_peak_live_bytes,
            peak_full_matrix_bytes: self.align_peak_full_matrix_bytes,
            band_runs: self.align_band_runs,
            band_saturations: self.align_band_saturations,
            class_table_hits: self.align_class_table_hits,
            class_table_misses: self.align_class_table_misses,
            lengths: self.align_lengths,
        }
    }

    /// Stores a run's work in the `align_*` run fields and stage times.
    fn set_work(&mut self, work: &PassWork) {
        self.align_time = work.align_time;
        self.codegen_time = work.codegen_time;
        let tally = &work.alignments;
        self.align_score_only_runs = tally.score_only_runs;
        self.align_full_runs = tally.full_runs;
        self.align_cells = tally.cells;
        self.align_trimmed_entries = tally.trimmed_entries;
        self.align_peak_live_bytes = tally.peak_live_bytes;
        self.align_peak_full_matrix_bytes = tally.peak_full_matrix_bytes;
        self.align_band_runs = tally.band_runs;
        self.align_band_saturations = tally.band_saturations;
        self.align_class_table_hits = tally.class_table_hits;
        self.align_class_table_misses = tally.class_table_misses;
        self.align_lengths = tally.lengths;
    }
}

impl fmt::Display for CorpusMergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CorpusMergeReport {{ modules: {}, functions: {}, candidates: {}, attempts: {}, committed: {} ({} merges, {} dedups) }}",
            self.modules,
            self.functions,
            self.candidates,
            self.attempts,
            self.num_commits(),
            self.num_merges(),
            self.num_commits() - self.num_merges(),
        )?;
        for r in &self.committed {
            if r.odr_dedup {
                writeln!(
                    f,
                    "  dedup @{} ({} insts): kept {}'s copy, dropped {}'s, profit {} bytes",
                    r.f1, r.sizes.0, r.host_module, r.donor_module, r.profit_bytes
                )?;
            } else {
                writeln!(
                    f,
                    "  merged {}:@{} ({} insts) + {}:@{} ({} insts) -> @{} ({} insts), profit {} bytes",
                    r.host_module,
                    r.f1,
                    r.sizes.0,
                    r.donor_module,
                    r.f2,
                    r.sizes.1,
                    r.merged_name,
                    r.sizes.2,
                    r.profit_bytes
                )?;
            }
        }
        if self.rounds > 1 || !self.intra_committed.is_empty() {
            writeln!(
                f,
                "  fixpoint: {} rounds (commits per round: {:?}), {} interleaved intra merges",
                self.rounds,
                self.round_commits,
                self.num_intra_merges()
            )?;
        }
        if self.hazard_skips > 0 {
            writeln!(f, "  {} pairs skipped on ODR hazards", self.hazard_skips)?;
        }
        if self.semantic_rejections > 0 {
            writeln!(
                f,
                "  semantic oracle rejected {} commits",
                self.semantic_rejections
            )?;
        }
        if self.planner.oracle_timeouts > 0 {
            writeln!(
                f,
                "  semantic oracle timed out on {} commits",
                self.planner.oracle_timeouts
            )?;
        }
        if self.planner.internal_errors > 0 {
            writeln!(
                f,
                "  {} candidates lost to isolated internal errors",
                self.planner.internal_errors
            )?;
        }
        if self.functions_skipped > 0 {
            writeln!(
                f,
                "  recovery: {} unparseable functions skipped across {} modules",
                self.functions_skipped, self.modules_recovered
            )?;
        }
        if self.paranoid {
            writeln!(
                f,
                "  paranoid: {} checks, {} delta diagnostics, analysis cache hit rate {:.0}%",
                self.paranoid_checks,
                self.paranoid_delta.len(),
                self.paranoid_stats.hit_rate() * 100.0
            )?;
        }
        writeln!(
            f,
            "  placement: {} policy, {} call edges forced cross-module ({} saved); regions per round: {:?}",
            self.host_policy, self.forced_cross_edges, self.saved_cross_edges, self.region_counts
        )?;
        writeln!(
            f,
            "  alignment: peak live DP {} bytes (full matrix would be {}), {} cells, {} entries trimmed, {} full + {} score-only runs, {} banded ({} saturated); prefilter: {} checked, {} rejected",
            self.align_peak_live_bytes,
            self.align_peak_full_matrix_bytes,
            self.align_cells,
            self.align_trimmed_entries,
            self.align_full_runs,
            self.align_score_only_runs,
            self.align_band_runs,
            self.align_band_saturations,
            self.planner.prefilter_checked,
            self.planner.prefilter_rejected
        )?;
        writeln!(
            f,
            "  planner: {} candidates, {} speculative + {} inline scores ({} from the score memo), {} oracle links; structural-key cache {:.1}% hits ({} hits / {} misses)",
            self.planner.candidates,
            self.planner.speculative_scores,
            self.planner.inline_scores,
            self.planner.memo_hits,
            self.planner.oracle_links,
            100.0 * self.cache_hit_rate(),
            self.cache_hits,
            self.cache_misses
        )?;
        write!(
            f,
            "  corpus: {} -> {} bytes ({:.1}% reduction); index {:?} ({} modules re-summarized, {} reused), callgraph {:?} ({} re-scanned, {} reused), discover {:?}, score {:?}, commit {:?}, align {:?}, codegen {:?}",
            self.size_before,
            self.size_after,
            100.0 * self.size_before.saturating_sub(self.size_after) as f64
                / self.size_before.max(1) as f64,
            self.index_time,
            self.index_reuse.refreshed,
            self.index_reuse.reused,
            self.callgraph_time,
            self.call_index_reuse.refreshed,
            self.call_index_reuse.reused,
            self.discover_time,
            self.score_time,
            self.commit_time,
            self.align_time,
            self.codegen_time
        )
    }
}

/// One speculatively scored cross-module pair. Its merged body is dropped:
/// one body per profitable pair corpus-wide would dominate memory, so the
/// commit regenerates the winner (pair merging is deterministic).
struct ScoredCross {
    host: usize,
    donor: usize,
    f1: String,
    f2: String,
    profit: i64,
    sizes: (usize, usize, usize),
    odr_dedup: bool,
}

/// Identity of one cross-module candidate pair: host module index, donor
/// module index, and the two function names.
type CrossKey = (usize, usize, String, String);

/// Discovery-time fingerprint distance per candidate pair, keyed by module
/// and function names with both orientations inserted so the host-policy
/// placement flip still finds its hint. The distance only sizes alignment
/// bands — losing an entry can never change a result, only its cost.
type DistanceMap = HashMap<(String, String, String, String), u64>;

/// Per-function static intra-module coupling, split by side: a *merged*
/// donor forces both its same-module callers (they now hop out through the
/// thunk) and its body's same-module callees (hopped back to from the host)
/// cross-module, while an *ODR-deduped* donor forces only its callers — the
/// deleted body's callee edges vanish with it.
#[derive(Debug, Clone, Copy, Default)]
struct Coupling {
    /// Same-module call sites targeting the function (self-calls excluded).
    callers: u32,
    /// The function's own call sites targeting same-module definitions.
    callees: u32,
}

/// Every function's static intra-module coupling in one round's corpus,
/// keyed module name → function name (nested so placement looks up by `&str`
/// without allocating). The pipeline builds one per round.
#[derive(Debug, Default)]
struct CouplingMap(HashMap<String, HashMap<String, Coupling>>);

impl CouplingMap {
    /// The coupling of every function of a resolved call graph.
    fn of(graph: &CallGraph) -> CouplingMap {
        let mut map: HashMap<String, HashMap<String, Coupling>> = HashMap::new();
        for (node, locality) in graph.nodes.iter().zip(graph.locality()) {
            map.entry(graph.modules[node.module].clone())
                .or_default()
                .insert(
                    node.name.clone(),
                    Coupling {
                        callers: locality.intra_callers,
                        callees: locality.intra_callees,
                    },
                );
        }
        CouplingMap(map)
    }

    /// The static call edges forced cross-module by making `name`@`module`
    /// the donor side: callers + callees for a genuine merge (the body
    /// moves), callers only for an ODR dedup (the body is deleted).
    fn donor_cost(&self, modules: &[Module], module: usize, name: &str, dedup: bool) -> u32 {
        let c = self
            .0
            .get(&modules[module].name)
            .and_then(|functions| functions.get(name))
            .copied()
            .unwrap_or_default();
        if dedup {
            c.callers
        } else {
            c.callers + c.callees
        }
    }

    /// The host policy: under [`HostPolicy::CallGraph`], flip the pair when
    /// the size-rule host side would be a *cheaper* donor than the donor
    /// side — the less-coupled member donates, minimizing forced
    /// cross-module edges. Ties keep the size orientation, and placement is
    /// idempotent (a flipped key never flips back: its new donor side costs
    /// ≤ its new host side).
    fn place(&self, modules: &[Module], policy: HostPolicy, key: CrossKey) -> CrossKey {
        if policy != HostPolicy::CallGraph {
            return key;
        }
        let (hi, di, f1, f2) = key;
        let dedup = f1 == f2 && is_potential_dedup(modules, hi, di, &f1);
        if self.donor_cost(modules, hi, &f1, dedup) < self.donor_cost(modules, di, &f2, dedup) {
            (di, hi, f2, f1)
        } else {
            (hi, di, f1, f2)
        }
    }
}

/// Whether a pair would commit as an ODR dedup (mirrors the scorer's
/// criterion), so placement costs it by the dedup rule.
fn is_potential_dedup(modules: &[Module], hi: usize, di: usize, name: &str) -> bool {
    match (modules[hi].function(name), modules[di].function(name)) {
        (Some(a), Some(b)) => a.linkage == Linkage::External && structurally_equal(a, b),
        _ => false,
    }
}

/// The cross-module [`CandidateSource`]: LSH-shard discovery provides the
/// candidates, [`score_cross`] the scores, and the import/merge/thunk commit
/// protocol — behind the ODR hazard hook and optionally the differential
/// oracle — the commits. The schedule is globally profit-ordered, derived
/// from the speculative scores in [`CandidateSource::plan`].
struct CrossSource<'a> {
    modules: &'a mut [Module],
    config: &'a XMergeConfig,
    /// Where every symbol is defined, with its linkage, for the hazard rules.
    def_sites: HashMap<String, Vec<(usize, Linkage)>>,
    /// Discovery output, in discovery order (the speculative key set),
    /// size-rule oriented; the placement hook applies the host policy.
    resolved: Vec<CrossKey>,
    /// Per-function intra-module coupling (static caller + callee sites that
    /// moving the body would force cross-module), from the round's
    /// call-graph locality summaries.
    coupling: &'a CouplingMap,
    /// Profit-ordered commit schedule: key, profit, odr_dedup.
    schedule: VecDeque<(CrossKey, i64, bool)>,
    consumed: HashSet<(usize, String)>,
    attempts: usize,
    hazard_skips: usize,
    semantic_rejections: usize,
    /// Whole-program links performed for the oracle (before + after sides).
    oracle_links: usize,
    /// The round's work: every merge and pre-filter check. Behind a lock
    /// because speculative scoring runs on rayon workers through `&self`.
    work: Mutex<PassWork>,
    /// Paranoid monitor of the run; `None` unless [`XMergeConfig::paranoid`]
    /// is set.
    paranoid: Option<&'a mut analysis::ParanoidMonitor>,
    /// Discovery-time fingerprint distances, for band sizing.
    distances: &'a DistanceMap,
    /// The run's pair scores, shared by every round and intra pass.
    memo: &'a ScoreMemo,
    /// Scores the memo supplied (counted from scoring workers).
    memo_hits: AtomicUsize,
}

impl<'a> CrossSource<'a> {
    fn new(
        modules: &'a mut [Module],
        config: &'a XMergeConfig,
        resolved: Vec<CrossKey>,
        coupling: &'a CouplingMap,
        paranoid: Option<&'a mut analysis::ParanoidMonitor>,
        distances: &'a DistanceMap,
        memo: &'a ScoreMemo,
    ) -> CrossSource<'a> {
        // Where each symbol is defined, with linkage, for the hazard rules.
        let mut def_sites: HashMap<String, Vec<(usize, Linkage)>> = HashMap::new();
        for (mi, m) in modules.iter().enumerate() {
            for f in m.functions() {
                def_sites
                    .entry(f.name.clone())
                    .or_default()
                    .push((mi, f.linkage));
            }
        }
        CrossSource {
            modules,
            config,
            def_sites,
            resolved,
            coupling,
            schedule: VecDeque::new(),
            consumed: HashSet::new(),
            attempts: 0,
            hazard_skips: 0,
            semantic_rejections: 0,
            oracle_links: 0,
            work: Mutex::new(PassWork::default()),
            paranoid,
            distances,
            memo,
            memo_hits: AtomicUsize::new(0),
        }
    }

    /// A key's host module, host function, donor module and donor function
    /// names.
    fn names_of<'k>(&'k self, key: &'k CrossKey) -> (&'k str, &'k str, &'k str, &'k str) {
        let (hi, di, f1, f2) = key;
        (&self.modules[*hi].name, f1, &self.modules[*di].name, f2)
    }

    /// The discovery-time fingerprint distance of a (placed) pair, if the
    /// round's LSH pass produced one.
    fn distance_of(&self, key: &CrossKey) -> Option<u64> {
        let (hn, f1, dn, f2) = self.names_of(key);
        self.distances
            .get(&(
                hn.to_string(),
                f1.to_string(),
                dn.to_string(),
                f2.to_string(),
            ))
            .copied()
    }

    /// Forced/saved cross-module call edges of a placed pair: forced is the
    /// donor side's cost; saved is how much worse the flipped placement
    /// would have been (0 under the size policy, which never flips).
    fn edge_stats(&self, s: &ScoredCross) -> (u32, u32) {
        let cost = |module, name: &str| {
            self.coupling
                .donor_cost(self.modules, module, name, s.odr_dedup)
        };
        let forced = cost(s.donor, &s.f2);
        let saved = match self.config.host_policy {
            HostPolicy::CallGraph => cost(s.host, &s.f1).saturating_sub(forced),
            HostPolicy::Size => 0,
        };
        (forced, saved)
    }

    /// Names a candidate key for telemetry decision provenance.
    fn pair_of(&self, key: &CrossKey) -> telemetry::Pair {
        let (hn, f1, dn, f2) = self.names_of(key);
        telemetry::Pair::cross(hn, f1, dn, f2)
    }
}

impl CandidateSource for CrossSource<'_> {
    type Key = CrossKey;
    type Score = ScoredCross;
    type Record = CrossMergeRecord;

    fn speculative_keys(&self) -> Vec<CrossKey> {
        self.resolved.clone()
    }

    /// The host policy ([`CouplingMap::place`]).
    fn place(&self, key: CrossKey) -> CrossKey {
        self.coupling
            .place(self.modules, self.config.host_policy, key)
    }

    /// Scores a pair through the run's memo: a pair of bodies the run has
    /// scored before is not merged again. A trial merge counts in the
    /// round's work, refused or not.
    fn score(&self, key: &CrossKey) -> Option<ScoredCross> {
        let (hi, di, f1n, f2n) = key;
        let f1 = self.modules[*hi].function(f1n)?;
        let f2 = self.modules[*di].function(f2n)?;
        let (remembered, hit) = self.memo.get_or_score(f1, f2, || {
            score_cross(
                f1,
                f2,
                &self.config.options,
                self.distance_of(key),
                &self.work,
            )
        });
        if hit {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        let score = remembered?;
        Some(ScoredCross {
            host: *hi,
            donor: *di,
            f1: f1n.clone(),
            f2: f2n.clone(),
            profit: score.profit,
            sizes: score.sizes,
            odr_dedup: score.odr_dedup,
        })
    }

    fn profit(score: &ScoredCross) -> i64 {
        score.profit
    }

    /// The admissible pre-filter: a pure read (class tables are cached on
    /// the functions' analysis slots), so a rejection can never change a
    /// committed record — it only skips the speculative trial merge.
    fn prefilter_enabled(&self) -> bool {
        self.config.prefilter
    }

    fn prefilter(&self, key: &CrossKey) -> bool {
        let (hi, di, f1n, f2n) = key;
        let (Some(f1), Some(f2)) = (
            self.modules[*hi].function(f1n),
            self.modules[*di].function(f2n),
        ) else {
            return false;
        };
        let band = self
            .config
            .options
            .band
            .map(|slack| fm_align::Band::from_hint(slack, self.distance_of(key)));
        let check = fm_align::prefilter_check(f1, f2, self.config.options.target, band);
        self.work
            .lock()
            .expect("no thread panics while counting an alignment")
            .alignments
            .add_prefilter(&check);
        check.rejects
    }

    /// Derives the commit schedule: every successfully scored pair, most
    /// profitable first, ties broken by module/function names (total, since
    /// module names are unique after uniquification).
    fn plan(&mut self, cache: &salssa::plan::ScoreCache<CrossKey, ScoredCross>) {
        let mut scored: Vec<(CrossKey, i64, bool)> = cache
            .iter()
            .map(|(key, s)| (key.clone(), s.profit, s.odr_dedup))
            .collect();
        self.attempts = scored.len();
        scored.sort_by(|(xk, xp, _), (yk, yp, _)| {
            yp.cmp(xp)
                .then_with(|| self.names_of(xk).cmp(&self.names_of(yk)))
        });
        self.schedule = scored.into();
    }

    fn next_group(&mut self) -> Option<Vec<CrossKey>> {
        while let Some((key, profit, odr_dedup)) = self.schedule.pop_front() {
            if profit <= 0 {
                // The schedule is profit-ordered: nothing profitable remains.
                if telemetry::decisions_enabled() {
                    let rest = std::iter::once((&key, profit))
                        .chain(self.schedule.iter().map(|(key, profit, _)| (key, *profit)));
                    for (key, profit) in rest {
                        telemetry::record_decision(
                            telemetry::DecisionEvent::Rejected(
                                telemetry::RejectReason::Unprofitable,
                            ),
                            self.pair_of(key),
                            Some(profit),
                            String::new(),
                        );
                    }
                }
                return None;
            }
            // An ODR dedup leaves the host's copy untouched, so a consumed
            // host endpoint (e.g. it already became a behavior-preserving
            // thunk, or an earlier dedup already kept it) does not block
            // further dedups against it — only the donor side is spent.
            let host_blocked = !odr_dedup && self.consumed.contains(&(key.0, key.2.clone()));
            if host_blocked || self.consumed.contains(&(key.1, key.3.clone())) {
                telemetry::record_decision_with(
                    telemetry::DecisionEvent::Rejected(telemetry::RejectReason::Superseded),
                    || {
                        (
                            self.pair_of(&key),
                            Some(profit),
                            "an endpoint was consumed by an earlier commit".to_string(),
                        )
                    },
                );
                continue;
            }
            return Some(vec![key]);
        }
        None
    }

    fn observe(&mut self, _key: &CrossKey, _score: &ScoredCross) {
        // Attempt accounting happens in `plan` (every scored pair counts,
        // including the ones the consumed-set later filters out).
    }

    fn describe(&self, key: &CrossKey) -> Option<telemetry::Pair> {
        Some(self.pair_of(key))
    }

    fn hazard(&mut self, _key: &CrossKey, s: &ScoredCross) -> Option<&'static str> {
        let _span = telemetry::span_with("xmerge.hazard_scan", || {
            format!(
                "{}:{} vs {}:{}",
                self.modules[s.host].name, s.f1, self.modules[s.donor].name, s.f2
            )
        });
        if !has_odr_hazard(self.modules, &self.def_sites, s) {
            return None;
        }
        self.hazard_skips += 1;
        Some("ODR conflict: the commit would rebind a symbol another module defines differently")
    }

    fn commit(&mut self, _key: CrossKey, s: ScoredCross) -> CommitOutcome<CrossMergeRecord> {
        let merged_name = format!(
            "merged.xm.{}.{}.{}.{}",
            sanitize_symbol(&self.modules[s.host].name),
            s.f1,
            sanitize_symbol(&self.modules[s.donor].name),
            s.f2
        );
        let (forced_edges, saved_edges) = self.edge_stats(&s);
        let work = self
            .work
            .get_mut()
            .expect("no thread panics while counting an alignment");
        // Savings the speculative score could not see (host-side ODR dedup
        // during the import), reported on top of the scored profit.
        let extra_profit: i64;
        if self.config.check_semantics {
            // Trial-commit on clones and interrogate the linked host+donor
            // pair. Commits only mutate these two modules, and other modules
            // observe them solely through the checked symbols, so the
            // pair-local link is as discriminating as a whole-program link —
            // and unrelated duplicate-symbol conflicts elsewhere in the
            // corpus cannot blind the oracle.
            let _span = telemetry::span_with("xmerge.oracle", || {
                format!(
                    "{}:{} vs {}:{}",
                    self.modules[s.host].name, s.f1, self.modules[s.donor].name, s.f2
                )
            });
            let mut trial_host = self.modules[s.host].clone();
            let mut trial_donor = self.modules[s.donor].clone();
            let outcome = if s.odr_dedup {
                apply_dedup(&trial_host, &mut trial_donor, &s.f2)
            } else {
                apply_commit(
                    &mut trial_host,
                    &mut trial_donor,
                    &s,
                    &merged_name,
                    &self.config.options,
                    work,
                )
            };
            let Some(profit) = outcome else {
                return CommitOutcome::Skipped;
            };
            extra_profit = profit;
            self.oracle_links += 2;
            let before = link_modules_with_renames(
                [&self.modules[s.host], &self.modules[s.donor]],
                "pair.before",
            );
            let after = link_modules_with_renames([&trial_host, &trial_donor], "pair.after");
            let (Ok((before_prog, before_renames)), Ok((after_prog, _))) = (before, after) else {
                // The pair carries a duplicate-symbol conflict (a pre-existing
                // one when the before side fails): the oracle cannot attest
                // anything, so skip the commit conservatively as a link hazard.
                self.hazard_skips += 1;
                return CommitOutcome::Hazard(
                    "link conflict: host and donor define a symbol differently, \
                     so the oracle cannot link them",
                );
            };
            // Internal entry points were localized by the link; resolve them
            // through the rename map (host and donor keep their module names
            // across the before/after links, so the names line up).
            let entries = [(s.host, &s.f1), (s.donor, &s.f2)].map(|(mi, name)| {
                before_renames
                    .get(&(self.modules[mi].name.clone(), name.clone()))
                    .cloned()
                    .unwrap_or_else(|| name.clone())
            });
            telemetry::faultinject::trip("oracle.check");
            let verdict = entries.iter().try_for_each(|name| {
                ssa_interp::differential_check_with_fuel(
                    &before_prog,
                    &after_prog,
                    name,
                    SEMANTIC_SAMPLES,
                    SEMANTIC_SEED,
                    self.config.oracle_fuel,
                )
            });
            match verdict {
                Err(ssa_interp::OracleFailure::Timeout) => {
                    return CommitOutcome::OracleTimeout;
                }
                Err(ssa_interp::OracleFailure::Mismatch(_)) => {
                    self.semantic_rejections += 1;
                    return CommitOutcome::OracleRejected;
                }
                Ok(()) => {}
            }
            self.modules[s.host] = trial_host;
            self.modules[s.donor] = trial_donor;
        } else {
            let (host, donor) = two_mut(self.modules, s.host, s.donor);
            let outcome = if s.odr_dedup {
                apply_dedup(host, donor, &s.f2)
            } else {
                apply_commit(host, donor, &s, &merged_name, &self.config.options, work)
            };
            let Some(profit) = outcome else {
                return CommitOutcome::Skipped;
            };
            extra_profit = profit;
        }
        if !s.odr_dedup {
            self.consumed.insert((s.host, s.f1.clone()));
        }
        self.consumed.insert((s.donor, s.f2.clone()));
        if let Some(monitor) = self.paranoid.as_deref_mut() {
            // Observational only: re-analyze the two mutated modules. The
            // whole-program passes re-run once at the end of the pipeline.
            monitor.check_module(&self.modules[s.host]);
            monitor.check_module(&self.modules[s.donor]);
        }
        CommitOutcome::Committed(CrossMergeRecord {
            host_module: self.modules[s.host].name.clone(),
            donor_module: self.modules[s.donor].name.clone(),
            f1: s.f1,
            f2: s.f2,
            merged_name: if s.odr_dedup {
                String::new()
            } else {
                merged_name
            },
            profit_bytes: s.profit + extra_profit,
            sizes: s.sizes,
            odr_dedup: s.odr_dedup,
            forced_edges,
            saved_edges,
        })
    }
}

/// Runs the full cross-module pipeline over `modules`, mutating them in
/// place, and returns the report. With [`XMergeConfig::fixpoint`] the
/// pipeline iterates: merged hosts are re-summarized (through the
/// content-hash index cache) and re-enter candidate discovery, interleaved
/// with per-module intra merging, until a round commits nothing or the round
/// cap is reached.
///
/// Module names identify translation units throughout the pipeline (candidate
/// discovery, merged-symbol names, reports), so modules with empty or
/// duplicate names — e.g. several results of [`ssa_ir::parse_module`], which
/// all come back named `parsed` — are renamed with a numeric suffix first.
pub fn xmerge_corpus(modules: &mut [Module], config: &XMergeConfig) -> CorpusMergeReport {
    let num_hashes = if config.num_hashes == 0 {
        MinHash::DEFAULT_HASHES
    } else {
        config.num_hashes
    };
    let (hits0, misses0) = structural_key_counters();
    uniquify_module_names(modules);
    // The paranoid baseline is captured after name uniquification so its
    // fingerprints use the same module names every later check sees.
    let mut paranoid_monitor = config
        .paranoid
        .then(|| analysis::ParanoidMonitor::for_corpus(modules));
    let target = config.options.target;
    let before: Vec<(String, usize, usize)> = modules
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                m.num_functions(),
                module_size_bytes(m, target),
            )
        })
        .collect();
    let mut report = CorpusMergeReport {
        modules: modules.len(),
        functions: before.iter().map(|(_, f, _)| f).sum(),
        size_before: before.iter().map(|(_, _, b)| b).sum(),
        host_policy: config.host_policy,
        ..CorpusMergeReport::default()
    };

    let names: Vec<String> = before.iter().map(|(n, _, _)| n.clone()).collect();
    let name_index: HashMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let fixpoint = config.fixpoint;
    let max_rounds = fixpoint.map(|f| f.max_rounds.max(1)).unwrap_or(1);
    // Round N+1 reuses round N's summaries of every module it left unchanged.
    let mut index: Option<CorpusIndex> = None;
    let mut call_index: Option<CorpusCallIndex> = None;
    // Modules worth an intra pass this round: everything on round 1, then
    // only modules a cross commit touched or whose last intra pass committed
    // something (merge_module is deterministic, so an unchanged module that
    // committed nothing will commit nothing again).
    let mut intra_dirty = vec![true; modules.len()];
    let mut work = PassWork::default();
    // Every pair score of the run, shared by all rounds and intra passes:
    // each ordered pair of bodies is merged at most once per run.
    let memo = ScoreMemo::new();
    for _round in 0..max_rounds {
        let _round_span = telemetry::span_with("xmerge.round", || format!("round {_round}"));
        // Re-index: unchanged modules reuse their summaries via the
        // content-hash cache (full build on the first round).
        let index_span = telemetry::timed_span("xmerge.index");
        let (round_index, reuse) =
            CorpusIndex::build_incremental(modules, num_hashes, index.as_ref());
        report.index_time += index_span.stop();
        report.index_reuse.reused += reuse.reused;
        report.index_reuse.refreshed += reuse.refreshed;

        let discover_span = telemetry::timed_span("xmerge.discover");
        let candidates = discover(&round_index, &config.discovery);
        report.discover_time += discover_span.stop();
        report.candidates += candidates.len();

        // Entry index -> owning module index (entries are grouped by module
        // in build order, so prefix sums translate positions).
        let mut owner = Vec::with_capacity(round_index.entries.len());
        for (mi, m) in modules.iter().enumerate() {
            owner.extend(std::iter::repeat_n(mi, m.num_functions()));
        }
        let resolved: Vec<CrossKey> = candidates
            .iter()
            .map(|CandidatePair { a, b, .. }| {
                let (ea, eb) = (&round_index.entries[*a], &round_index.entries[*b]);
                (owner[*a], owner[*b], ea.name.clone(), eb.name.clone())
            })
            .collect();
        // The discovery-time distance of every pair, for alignment-band
        // sizing; both orientations so the placement flip still hits.
        let mut distances = DistanceMap::new();
        for (pair, key) in candidates.iter().zip(&resolved) {
            let (hn, f1, dn, f2) = (&names[key.0], &key.2, &names[key.1], &key.3);
            distances.insert(
                (hn.clone(), f1.clone(), dn.clone(), f2.clone()),
                pair.distance,
            );
            distances.insert(
                (dn.clone(), f2.clone(), hn.clone(), f1.clone()),
                pair.distance,
            );
        }
        if telemetry::decisions_enabled() {
            for (pair, key) in candidates.iter().zip(&resolved) {
                telemetry::record_decision(
                    telemetry::DecisionEvent::Discovered,
                    telemetry::Pair::cross(
                        names[key.0].clone(),
                        key.2.clone(),
                        names[key.1].clone(),
                        key.3.clone(),
                    ),
                    None,
                    format!(
                        "lsh distance={} similarity={:.3}",
                        pair.distance, pair.similarity
                    ),
                );
            }
        }

        // Re-build the whole-program call graph (unchanged modules reuse
        // their call-site summaries) and derive the per-function coupling the
        // host policy places by, plus the round's independent regions.
        let callgraph_span = telemetry::timed_span("xmerge.callgraph");
        let (round_calls, call_reuse) =
            CorpusCallIndex::build_incremental(modules, call_index.as_ref());
        let graph = CallGraph::resolve(&round_calls);
        let coupling = CouplingMap::of(&graph);
        let mut links: Vec<(usize, usize)> = graph.cross_module_links();
        links.extend(graph.shared_definition_links());
        links.extend(resolved.iter().map(|(h, d, _, _)| (*h.min(d), *h.max(d))));
        let regions = module_regions(modules.len(), links).len();
        report.callgraph_time += callgraph_span.stop();
        report.call_index_reuse.absorb(call_reuse);
        report.region_counts.push(regions);

        let mut source = CrossSource::new(
            modules,
            config,
            resolved,
            &coupling,
            paranoid_monitor.as_mut(),
            &distances,
            &memo,
        );
        let (committed, mut stats) = run_plan(&mut source);
        stats.oracle_links = source.oracle_links;
        stats.memo_hits = source.memo_hits.into_inner();
        report.attempts += source.attempts;
        report.hazard_skips += source.hazard_skips;
        report.semantic_rejections += source.semantic_rejections;
        report.score_time += stats.score_time;
        report.commit_time += stats.commit_time;
        report.planner.absorb(&stats);
        work.absorb(
            &source
                .work
                .into_inner()
                .expect("no thread panics while counting an alignment"),
        );
        for r in &committed {
            report.forced_cross_edges += u64::from(r.forced_edges);
            report.saved_cross_edges += u64::from(r.saved_edges);
        }
        let cross_commits = committed.len();
        report.round_commits.push(cross_commits);
        report.committed.extend(committed);
        report.rounds += 1;
        index = Some(round_index);
        call_index = Some(round_calls);

        // Interleaved per-module intra merging: a merged host function can
        // merge again within its module, and the next round's discovery sees
        // the result. Modules untouched since their last commit-free intra
        // pass are skipped — deterministic merging would find nothing new.
        for record in &report.committed[report.committed.len() - cross_commits..] {
            for touched in [&record.host_module, &record.donor_module] {
                if let Some(&mi) = name_index.get(touched.as_str()) {
                    intra_dirty[mi] = true;
                }
            }
        }
        let mut intra_commits = 0usize;
        if let Some(intra_config) = fixpoint.and_then(|f| f.intra) {
            let merger = SalSsaMerger::new(config.options);
            // A pass reads and writes only its own module, so the round's
            // passes run on all cores. When this thread records decisions,
            // each pass records its own into a buffer (a capture records
            // whether or not the process-wide log is on, so passes open
            // none otherwise). A pass reads the run's memo without adding to
            // it; the loop below appends the decisions, absorbs the new
            // scores and folds the reports in module order, exactly as
            // passes run one after another would.
            let record = telemetry::decisions_enabled();
            let mut passes: Vec<(usize, &mut Module)> = modules
                .iter_mut()
                .enumerate()
                .filter(|(mi, _)| intra_dirty[*mi])
                .collect();
            let outcomes: Vec<_> = passes
                .par_iter_mut()
                .map(|(mi, module)| {
                    let _span = telemetry::span_with("xmerge.intra", || module.name.clone());
                    let mut pass = || merge_module_with_memo(module, &merger, &intra_config, &memo);
                    let ((intra_report, scores), decisions) = if record {
                        telemetry::capture_decisions(pass)
                    } else {
                        (pass(), telemetry::CapturedDecisions::default())
                    };
                    (*mi, intra_report, scores, decisions)
                })
                .collect();
            for (mi, intra_report, scores, decisions) in outcomes {
                telemetry::append_decisions(decisions);
                memo.absorb(scores);
                if let Some(monitor) = &mut paranoid_monitor {
                    if intra_report.num_merges() > 0 {
                        // Attribute intra-introduced regressions to this
                        // round rather than letting the next cross commit's
                        // check inherit them.
                        monitor.check_module(&modules[mi]);
                    }
                }
                intra_commits += intra_report.num_merges();
                intra_dirty[mi] = intra_report.num_merges() > 0;
                report.planner.absorb(&intra_report.planner);
                report.semantic_rejections += intra_report.semantic_rejections;
                work.absorb(&intra_report.work());
                report.intra_committed.extend(
                    intra_report
                        .committed
                        .into_iter()
                        .map(|r| (names[mi].clone(), r)),
                );
            }
        }

        if cross_commits == 0 && intra_commits == 0 {
            break; // Fixpoint reached.
        }
    }

    if let Some(mut monitor) = paranoid_monitor {
        // One final whole-program pass: the per-commit checks are
        // module-scope, so cross-module regressions (declaration drift, ODR
        // clashes) surface here.
        monitor.check_corpus(modules);
        report.paranoid = true;
        report.paranoid_checks = monitor.checks();
        report.paranoid_stats = monitor.stats();
        report.paranoid_delta = monitor.into_delta();
    }

    report.per_module = modules
        .iter()
        .zip(&before)
        .map(|(m, (name, fns, bytes))| ModuleStats {
            name: name.clone(),
            functions: (*fns, m.num_functions()),
            bytes: (*bytes, module_size_bytes(m, target)),
        })
        .collect();
    report.size_after = report.per_module.iter().map(|s| s.bytes.1).sum();
    let (hits1, misses1) = structural_key_counters();
    report.cache_hits = hits1.saturating_sub(hits0);
    report.cache_misses = misses1.saturating_sub(misses0);
    report.set_work(&work);
    report
}

/// Scores one cross-module pair without mutating anything; the merged body
/// is dropped (see [`ScoredCross`]). The trial merge counts in `work`,
/// refused or not; an ODR dedup merges nothing. `None` when the merger
/// refuses the pair.
fn score_cross(
    f1: &Function,
    f2: &Function,
    options: &MergeOptions,
    distance: Option<u64>,
    work: &Mutex<PassWork>,
) -> Option<MemoScore> {
    if f1.name == f2.name && f1.linkage == Linkage::External && structurally_equal(f1, f2) {
        // ODR-identical external copies: dropping the donor's copy saves its
        // whole footprint minus nothing — no merge needed. (Internal copies
        // are distinct symbols; dropping one would leave the donor's
        // declaration unresolvable, so they go through a genuine merge.)
        return Some(MemoScore {
            profit: function_size_bytes(f2, options.target) as i64,
            sizes: (f1.num_insts(), f2.num_insts(), 0),
            odr_dedup: true,
        });
    }
    let merged = merge_pair_with_distance(f1, f2, options, "merged.xm.trial", distance);
    work.lock()
        .expect("no thread panics while counting an alignment")
        .add_merge(&merged);
    let pair = merged.ok()?;
    Some(MemoScore {
        profit: estimate_profit(f1, f2, &pair, options.target),
        sizes: (f1.num_insts(), f2.num_insts(), pair.merged.num_insts()),
        odr_dedup: false,
    })
}

/// Conservative ODR hazard rules: committing must not leave the corpus with
/// two differing externally visible definitions of any involved symbol.
/// Internal-linkage definitions are module-local and never conflict across
/// modules, so they are ignored when counting rival definition sites.
///
/// - `f1`'s definition becomes a thunk; if it is externally visible, no other
///   module may export a rival definition (which would now diverge from the
///   thunk). An internal `f1` is free to change regardless.
/// - `f2`'s donor definition becomes a thunk under the same name; if it is
///   externally visible, every other external definition site must be the
///   host holding an identical body (the import-dedup case, where both
///   copies end up as identical thunks). An internal `f2` only needs to
///   exist in the donor.
/// - `f2`'s body effectively moves into the host (merged function) or is
///   served by the host's copy (dedup), so its callees must keep their
///   bindings: a callee the host defines differently is a hazard
///   (intra-host name resolution binds to the host's definition), and a
///   callee defined *internally* in the donor but not identically in the
///   host is a hazard too — the call would escape the donor's module-local
///   symbol, which [`ssa_ir::link_modules`] localizes away.
fn has_odr_hazard(
    modules: &[Module],
    def_sites: &HashMap<String, Vec<(usize, Linkage)>>,
    s: &ScoredCross,
) -> bool {
    if s.odr_dedup {
        // Dropping one of several identical external copies is link-safe for
        // the symbol itself (the scorer established host/donor bodies are
        // identical and external) — but its callees must still bind the same
        // way from the host's module.
        return modules[s.donor]
            .function(&s.f2)
            .is_none_or(|donor_fn| has_callee_hazard(modules, donor_fn, s));
    }
    let empty = Vec::new();
    let Some(f1) = modules[s.host].function(&s.f1) else {
        return true;
    };
    if f1.linkage == Linkage::External {
        let rivals = def_sites
            .get(&s.f1)
            .unwrap_or(&empty)
            .iter()
            .any(|(mi, linkage)| *mi != s.host && *linkage == Linkage::External);
        if rivals {
            return true;
        }
    }
    let Some(donor_fn) = modules[s.donor].function(&s.f2) else {
        return true;
    };
    if donor_fn.linkage == Linkage::External {
        let sites_f2 = def_sites.get(&s.f2).unwrap_or(&empty);
        let f2_ok = sites_f2
            .iter()
            .filter(|(_, linkage)| *linkage == Linkage::External)
            .all(|(mi, _)| {
                *mi == s.donor
                    || (*mi == s.host
                        && match (
                            modules[s.host].function(&s.f2),
                            modules[s.donor].function(&s.f2),
                        ) {
                            (Some(a), Some(b)) => structurally_equal(a, b),
                            _ => false,
                        })
            });
        if !f2_ok {
            return true;
        }
    }
    has_callee_hazard(modules, donor_fn, s)
}

/// Returns `true` when moving `donor_fn`'s body into the host module would
/// re-bind one of its calls: the host defines the callee differently, or the
/// callee is a donor-internal symbol the host has no identical copy of (the
/// linked program localizes the donor's definition, so the moved call could
/// only bind to an unrelated — or missing — external definition).
fn has_callee_hazard(modules: &[Module], donor_fn: &Function, s: &ScoredCross) -> bool {
    for callee in callees_of(donor_fn) {
        match (
            modules[s.donor].function(&callee),
            modules[s.host].function(&callee),
        ) {
            (Some(in_donor), Some(in_host)) if !structurally_equal(in_donor, in_host) => {
                return true;
            }
            (Some(in_donor), None) if in_donor.linkage == Linkage::Internal => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Commits a pure ODR dedup: the donor drops its identical copy and keeps a
/// declaration, resolving to the host's definition at link time. Returns 0 —
/// the scored profit already covers the dropped copy.
fn apply_dedup(host: &Module, donor: &mut Module, name: &str) -> Option<i64> {
    // Both sides were verified identical by the scorer; keep the host's.
    host.function(name)?;
    let dropped = donor.remove_function(name)?;
    donor.declare(FuncDecl::new(
        dropped.name.clone(),
        dropped.params.clone(),
        dropped.ret_ty,
    ));
    Some(0)
}

/// Gives every module a unique, non-empty name: discovery treats equal names
/// as "same module" and would silently find zero cross-module candidates in a
/// corpus of same-named modules.
pub(crate) fn uniquify_module_names(modules: &mut [Module]) {
    let mut seen: HashSet<String> = HashSet::new();
    for module in modules.iter_mut() {
        let base = if module.name.is_empty() {
            "module".to_string()
        } else {
            module.name.clone()
        };
        let mut candidate = base.clone();
        let mut n = 2usize;
        while !seen.insert(candidate.clone()) {
            candidate = format!("{base}.{n}");
            n += 1;
        }
        module.name = candidate;
    }
}

/// Imports `f2` into the host, merges it with `f1`, and rewires both modules:
/// host keeps merged + thunk(f1) (+ thunk for its own deduped `f2` copy, if
/// any); donor keeps thunk(f2) + a declaration of the merged function.
///
/// Returns the byte savings the speculative score could not see: when the
/// host held its own ODR-identical copy of `f2`, that copy is replaced by a
/// thunk too, saving its footprint on top of the scored profit. Zero in the
/// common no-dedup case. The re-merge is counted in `work`.
fn apply_commit(
    host: &mut Module,
    donor: &mut Module,
    s: &ScoredCross,
    merged_name: &str,
    options: &MergeOptions,
    work: &mut PassWork,
) -> Option<i64> {
    let outcome = import_function(host, donor, &s.f2).ok()?;
    let original_f1 = host.function(&s.f1)?.clone();
    let original_f2 = host.function(&outcome.name)?.clone();
    let merged = merge_pair_with_distance(&original_f1, &original_f2, options, merged_name, None);
    work.add_merge(&merged);
    let Ok(pair) = merged else {
        if !outcome.deduped {
            host.remove_function(&outcome.name);
        }
        return None;
    };

    let thunk1 = build_thunk(&original_f1, &pair.merged, &pair.param_f1, false);
    let host_thunk2 = outcome
        .deduped
        .then(|| build_thunk(&original_f2, &pair.merged, &pair.param_f2, true));
    let extra_profit = host_thunk2
        .as_ref()
        .map(|thunk| {
            function_size_bytes(&original_f2, options.target) as i64
                - function_size_bytes(thunk, options.target) as i64
        })
        .unwrap_or(0);
    let donor_original = donor.remove_function(&s.f2)?;
    let donor_thunk = build_thunk(&donor_original, &pair.merged, &pair.param_f2, true);
    let merged_decl = FuncDecl::new(
        pair.merged.name.clone(),
        pair.merged.params.clone(),
        pair.merged.ret_ty,
    );

    host.remove_function(&s.f1);
    host.remove_function(&outcome.name);
    host.add_function(pair.merged);
    host.add_function(thunk1);
    if let Some(thunk2) = host_thunk2 {
        host.add_function(thunk2);
    }
    donor.add_function(donor_thunk);
    donor.declare(merged_decl);
    Some(extra_profit)
}

/// Disjoint mutable borrows of two different slice elements.
fn two_mut(modules: &mut [Module], i: usize, j: usize) -> (&mut Module, &mut Module) {
    assert_ne!(i, j, "host and donor must be different modules");
    if i < j {
        let (lo, hi) = modules.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = modules.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_module;
    use ssa_ir::verifier::verify_module;

    /// When the host already holds an ODR-identical copy of the donor's
    /// function, the import dedups, the host copy is replaced by a thunk too,
    /// and apply_commit reports the additional savings the speculative score
    /// could not see.
    #[test]
    fn apply_commit_reports_extra_profit_on_host_side_dedup() {
        let body = |name: &str, k: i32| {
            format!(
                "define i32 @{name}(i32 %x) {{\nentry:\n  %a = add i32 %x, {k}\n  %b = mul i32 %a, 3\n  %c = call i32 @h(i32 %b)\n  %d = xor i32 %c, %x\n  %e = call i32 @h(i32 %d)\n  %g2 = sub i32 %e, %a\n  %h2 = mul i32 %g2, %b\n  %i = call i32 @h(i32 %h2)\n  %j = add i32 %i, %d\n  ret i32 %j\n}}"
            )
        };
        let mut host = parse_module(&format!("{}\n{}", body("f1", 1), body("g", 9))).unwrap();
        host.name = "host".to_string();
        let mut donor = parse_module(&body("g", 9)).unwrap();
        donor.name = "donor".to_string();

        let s = ScoredCross {
            host: 0,
            donor: 1,
            f1: "f1".to_string(),
            f2: "g".to_string(),
            profit: 1,
            sizes: (10, 10, 0),
            odr_dedup: false,
        };
        let mut work = PassWork::default();
        let extra = apply_commit(
            &mut host,
            &mut donor,
            &s,
            "merged.t",
            &MergeOptions::default(),
            &mut work,
        )
        .expect("commit must succeed");
        assert_eq!(
            work.alignments.full_runs, 1,
            "the commit re-aligns the pair"
        );
        assert!(work.align_time > Duration::ZERO, "the re-merge is timed");
        assert!(
            extra > 0,
            "host's deduped @g copy must add savings: {extra}"
        );
        // Host: merged + thunks for both f1 and its own g copy.
        assert!(host.function("merged.t").is_some());
        assert!(host.function("f1").is_some());
        assert!(host.function("g").is_some());
        assert!(
            host.function("g").unwrap().num_insts() <= 2,
            "g must be a thunk now"
        );
        // Donor: thunk + declaration of the merged function.
        assert!(donor.function("g").is_some());
        assert!(donor.declarations().iter().any(|d| d.name == "merged.t"));
        assert!(verify_module(&host).is_empty());
        assert!(verify_module(&donor).is_empty());
    }

    /// Internal-linkage rivals in third-party modules do not block a merge
    /// that the old external-only rules would have skipped.
    #[test]
    fn internal_rival_definitions_are_not_hazards() {
        let worker = |name: &str, linkage: &str, k: i32| {
            format!(
                "define {linkage}i32 @{name}(i32 %x) {{\nentry:\n  %a = add i32 %x, {k}\n  %b = mul i32 %a, 3\n  %c = call i32 @h(i32 %b)\n  %d = xor i32 %c, %x\n  %e = call i32 @h(i32 %d)\n  %g2 = sub i32 %e, %a\n  %h2 = mul i32 %g2, %b\n  %i = call i32 @h(i32 %h2)\n  %j = add i32 %i, %d\n  ret i32 %j\n}}"
            )
        };
        // host exports @dup; a third module defines a *different* internal
        // @dup — under the old rules a hazard, with linkage metadata not.
        let mut host = parse_module(&worker("dup", "", 1)).unwrap();
        host.name = "host".to_string();
        let mut donor = parse_module(&worker("donor_fn", "", 2)).unwrap();
        donor.name = "donor".to_string();
        let mut third = parse_module(&worker("dup", "internal ", 40)).unwrap();
        third.name = "third".to_string();
        let modules = [host, donor, third];
        let mut def_sites: HashMap<String, Vec<(usize, Linkage)>> = HashMap::new();
        for (mi, m) in modules.iter().enumerate() {
            for f in m.functions() {
                def_sites
                    .entry(f.name.clone())
                    .or_default()
                    .push((mi, f.linkage));
            }
        }
        let s = ScoredCross {
            host: 0,
            donor: 1,
            f1: "dup".to_string(),
            f2: "donor_fn".to_string(),
            profit: 1,
            sizes: (10, 10, 8),
            odr_dedup: false,
        };
        assert!(
            !has_odr_hazard(&modules, &def_sites, &s),
            "internal @dup in a third module must not block the merge"
        );
        // Flip the third module's copy to external linkage: now it's a rival.
        let mut modules = modules;
        modules[2]
            .function_mut("dup")
            .unwrap()
            .set_linkage(Linkage::External);
        let mut def_sites: HashMap<String, Vec<(usize, Linkage)>> = HashMap::new();
        for (mi, m) in modules.iter().enumerate() {
            for f in m.functions() {
                def_sites
                    .entry(f.name.clone())
                    .or_default()
                    .push((mi, f.linkage));
            }
        }
        assert!(
            has_odr_hazard(&modules, &def_sites, &s),
            "an external rival definition of @dup must still be a hazard"
        );
    }

    /// Moving a donor function whose body calls a donor-*internal* symbol
    /// into the host would strand the call: link_modules localizes the
    /// donor's definition, so the moved call could only bind to an unrelated
    /// or missing external one. Both the merge and the dedup path must treat
    /// that as a hazard unless the host holds an identical copy.
    #[test]
    fn donor_internal_callees_block_merges_and_dedups() {
        let donor_text = "define internal i32 @helper(i32 %x) {\nentry:\n  %r = sub i32 %x, 5\n  ret i32 %r\n}\ndefine i32 @g(i32 %n) {\nentry:\n  %a = call i32 @helper(i32 %n)\n  %b = add i32 %a, %n\n  ret i32 %b\n}";
        let host_text = "define i32 @f(i32 %n) {\nentry:\n  %a = call i32 @ext(i32 %n)\n  %b = add i32 %a, %n\n  ret i32 %b\n}";
        let mut host = parse_module(host_text).unwrap();
        host.name = "host".to_string();
        let mut donor = parse_module(donor_text).unwrap();
        donor.name = "donor".to_string();
        let modules = [host, donor];
        let mut def_sites: HashMap<String, Vec<(usize, Linkage)>> = HashMap::new();
        for (mi, m) in modules.iter().enumerate() {
            for f in m.functions() {
                def_sites
                    .entry(f.name.clone())
                    .or_default()
                    .push((mi, f.linkage));
            }
        }
        let merge = ScoredCross {
            host: 0,
            donor: 1,
            f1: "f".to_string(),
            f2: "g".to_string(),
            profit: 1,
            sizes: (3, 3, 3),
            odr_dedup: false,
        };
        assert!(
            has_odr_hazard(&modules, &def_sites, &merge),
            "the host has no @helper: the moved body's call would escape the donor-internal symbol"
        );
        let dedup = ScoredCross {
            odr_dedup: true,
            ..merge
        };
        assert!(
            has_odr_hazard(&modules, &def_sites, &dedup),
            "serving donor callers from the host re-binds the internal callee too"
        );
        // An identical internal copy in the host makes both safe.
        let mut modules = modules;
        let helper = modules[1].function("helper").unwrap().clone();
        modules[0].add_function(helper);
        let merge = ScoredCross {
            odr_dedup: false,
            ..dedup
        };
        assert!(!has_odr_hazard(&modules, &def_sites, &merge));
    }
}
