//! Whole-module function merging: candidate ranking, profitability evaluation,
//! thunk creation and reporting.
//!
//! This is the driver both techniques share in the paper's evaluation: for
//! every function (largest first) the `t` most similar candidates — the
//! exploration threshold of Section 5.1 — are aligned and merged tentatively;
//! the most profitable merge according to the code-size cost model is
//! committed, replacing the two originals with the merged function plus two
//! thin thunks that preserve the external interface.
//!
//! Candidates are scored as the loop reaches them, exactly as the paper
//! describes: only the pairs the loop examines are aligned, and the winner's
//! merged body is committed as scored.
//!
//! [`merge_module_with_memo`] is the same pass for a run that merges a
//! module more than once (the cross-module fixpoint): a pair of bodies the
//! run has already scored is not merged again.

use crate::merge::{self, PairMerge, Refused};
use crate::options::MergeOptions;
use crate::plan::{run_plan, CandidateSource, CommitOutcome, MemoScore, PlanStats, ScoreMemo};
use fm_align::{AlignTally, Band, Ranking};
use ssa_ir::{structural_key_counters, Function, InstKind, Module, Type, Value};
use ssa_passes::codesize::{function_size_bytes, Target};
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;
use telemetry::Histogram;

/// A technique that can merge two functions (SalSSA, or the FMSA baseline in
/// the `fmsa` crate). `Sync` is required because the planner may score
/// candidate pairs from worker threads; mergers are plain configuration data.
pub trait FunctionMerger: Sync {
    /// Short name used in reports ("salssa", "fmsa", ...).
    fn name(&self) -> &'static str;

    /// Module-wide preprocessing applied before any merging (FMSA demotes all
    /// functions here; SalSSA does nothing).
    fn preprocess_module(&self, _module: &mut Module) {}

    /// Module-wide post-processing applied after merging (FMSA re-promotes and
    /// cleans up the functions left demoted by its preprocessing).
    fn postprocess_module(&self, _module: &mut Module) {}

    /// Attempts to merge one pair of functions. A refusal still reports the
    /// alignment it ran, which the driver counts.
    fn merge_pair(
        &self,
        f1: &Function,
        f2: &Function,
        merged_name: &str,
    ) -> Result<PairMerge, Refused>;

    /// The code-size target used by the profitability model.
    fn target(&self) -> Target;
}

/// The SalSSA merger (the paper's contribution).
#[derive(Debug, Clone, Default)]
pub struct SalSsaMerger {
    /// Code-generator options.
    pub options: MergeOptions,
}

impl SalSsaMerger {
    /// Creates a SalSSA merger with the given options.
    pub fn new(options: MergeOptions) -> SalSsaMerger {
        SalSsaMerger { options }
    }
}

impl FunctionMerger for SalSsaMerger {
    fn name(&self) -> &'static str {
        "salssa"
    }

    fn merge_pair(
        &self,
        f1: &Function,
        f2: &Function,
        merged_name: &str,
    ) -> Result<PairMerge, Refused> {
        merge::merge_pair_with_distance(f1, f2, &self.options, merged_name, None)
    }

    fn target(&self) -> Target {
        self.options.target
    }
}

/// Selects nothing: the driver has one scoring schedule. Kept, with
/// [`DriverConfig::with_mode`], only for callers that still name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverMode {
    /// The only variant; changes nothing.
    Parallel,
}

/// Configuration of the module driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriverConfig {
    /// Exploration threshold `t`: how many ranked candidates to try per
    /// function before giving up (the paper evaluates t ∈ {1, 5, 10}).
    pub threshold: usize,
    /// Functions smaller than this many IR instructions are not considered.
    pub min_function_size: usize,
    /// Opt-in semantic oracle: differentially test every would-be commit with
    /// the reference interpreter ([`ssa_interp::differential_check`]) on
    /// deterministic random inputs, and reject (skip) merges whose thunked
    /// module diverges from the original. Rejections are counted in
    /// [`ModuleMergeReport::semantic_rejections`].
    pub check_semantics: bool,
    /// Paranoid verification: capture the module's diagnostic baseline with
    /// the `analysis` engine before planning, re-analyze after every
    /// committed merge, and report diagnostics a commit introduced as
    /// [`ModuleMergeReport::paranoid_delta`]. Purely observational — it
    /// never changes which merges are committed.
    pub paranoid: bool,
    /// Admissible candidate pre-filter ([`fm_align::prefilter_rejects`]):
    /// skip codegen-based scoring for pairs whose class-histogram profit
    /// bound cannot clear the merge overhead. The bound is admissible, so
    /// the committed [`MergeRecord`]s are identical with the filter on or
    /// off; only the scoring cost changes.
    pub prefilter: bool,
    /// Per-execution step budget for the semantic oracle; `None` (the
    /// default) is the interpreter's own limit. The budget bounds worst-case
    /// oracle latency per candidate, and a run that exhausts it degrades the
    /// commit to a counted `rejected(oracle_timeout)` instead of a verdict.
    pub oracle_fuel: Option<u64>,
}

/// Random input vectors sampled per function by the semantic oracle (on top
/// of the fixed all-zeros/all-ones edge vectors).
pub const SEMANTIC_SAMPLES: usize = 6;

/// Seed of the oracle's deterministic input sampling.
pub const SEMANTIC_SEED: u64 = 0x5a15_5a00;

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            threshold: 1,
            min_function_size: 3,
            check_semantics: false,
            paranoid: false,
            prefilter: true,
            oracle_fuel: None,
        }
    }
}

impl DriverConfig {
    /// Convenience constructor for a given exploration threshold.
    pub fn with_threshold(threshold: usize) -> DriverConfig {
        DriverConfig {
            threshold,
            ..DriverConfig::default()
        }
    }

    /// Returns the configuration unchanged: [`DriverMode`] selects nothing.
    pub fn with_mode(self, _mode: DriverMode) -> DriverConfig {
        self
    }

    /// Enables or disables the differential semantic oracle.
    pub fn with_check_semantics(self, check_semantics: bool) -> DriverConfig {
        DriverConfig {
            check_semantics,
            ..self
        }
    }

    /// Enables or disables paranoid post-commit re-analysis.
    pub fn with_paranoid(self, paranoid: bool) -> DriverConfig {
        DriverConfig { paranoid, ..self }
    }

    /// Enables or disables the admissible candidate pre-filter.
    pub fn with_prefilter(self, prefilter: bool) -> DriverConfig {
        DriverConfig { prefilter, ..self }
    }

    /// Sets the semantic oracle's per-execution step budget.
    pub fn with_oracle_fuel(self, oracle_fuel: Option<u64>) -> DriverConfig {
        DriverConfig {
            oracle_fuel,
            ..self
        }
    }
}

/// One committed merge operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeRecord {
    /// Name of the first input function.
    pub f1: String,
    /// Name of the second input function.
    pub f2: String,
    /// Name of the merged function added to the module.
    pub merged_name: String,
    /// Modelled byte savings of this merge (inputs − merged − thunks);
    /// positive means the cost model judged it profitable.
    pub profit_bytes: i64,
    /// IR-instruction sizes (f1, f2, merged).
    pub sizes: (usize, usize, usize),
    /// Number of coalesced phi pairs in this merge.
    pub coalesced_pairs: usize,
}

/// Aggregate report of one whole-module merging run.
#[derive(Debug, Clone, Default)]
pub struct ModuleMergeReport {
    /// Technique name.
    pub technique: String,
    /// Exploration threshold used.
    pub threshold: usize,
    /// Candidate pairs scored successfully (the merger did not refuse
    /// them), scores a run's [`ScoreMemo`] supplied included.
    pub attempts: usize,
    /// Merges committed because the cost model judged them profitable.
    pub committed: Vec<MergeRecord>,
    /// Total time spent in sequence alignment.
    pub align_time: Duration,
    /// Total time spent in code generation (including SSA repair and local
    /// clean-up of candidate merges).
    pub codegen_time: Duration,
    /// Peak *live* dynamic-programming footprint over all attempted
    /// alignments, in bytes: rolling rows plus the divide-and-conquer seed
    /// rows. This is what the linear-space engine actually holds in memory.
    pub peak_matrix_bytes: u64,
    /// Peak footprint the historical full score matrix would have had over
    /// the same alignments (the Figure 22 baseline the engine is measured
    /// against).
    pub peak_full_matrix_bytes: u64,
    /// Total dynamic-programming cells computed (time proxy for Figure 23),
    /// including trim comparisons; saturating.
    pub total_cells: u64,
    /// Match pairs resolved by common prefix/suffix trimming instead of DP,
    /// summed over all attempted alignments.
    pub align_trimmed_entries: u64,
    /// Score-only alignment runs ([`fm_align::align_score`]) this run made.
    /// Exact profit needs the merged body, so scoring always runs the
    /// traceback tier; the score-only tier is the pre-filter's gray zone
    /// (one cheap DP sharpening the histogram bound before codegen-based
    /// scoring).
    pub align_score_only_runs: u64,
    /// Traceback alignment runs this run made: one per scored pair, refused
    /// ones included, except the pairs a run's [`ScoreMemo`] supplied; plus
    /// one per commit of such a pair, which merges it again for its body.
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
    /// Structural-key cache hits during this run. The cache counters are
    /// process-wide, so this delta includes concurrent runs' lookups.
    pub cache_hits: u64,
    /// Structural-key cache misses (normalized re-prints) during this run;
    /// process-wide like [`Self::cache_hits`].
    pub cache_misses: u64,
    /// Profitable merges rejected by the semantic oracle (always 0 unless
    /// [`DriverConfig::check_semantics`] is on; nonzero means the merger
    /// produced observably wrong code and the driver refused to commit it).
    pub semantic_rejections: usize,
    /// Planner-engine statistics: candidates examined, pairs scored, phase
    /// timings.
    pub planner: PlanStats,
    /// Whether paranoid post-commit re-analysis was enabled for this run.
    pub paranoid: bool,
    /// Post-commit re-analysis checks performed (0 unless
    /// [`DriverConfig::paranoid`] is set).
    pub paranoid_checks: usize,
    /// Diagnostics introduced relative to the module's pre-merge baseline.
    /// A correct merger keeps this empty; anything here is a regression a
    /// specific commit introduced.
    pub paranoid_delta: Vec<analysis::Diagnostic>,
    /// Aggregate analysis-engine statistics (cache hits/misses, timing) over
    /// the baseline capture and every post-commit check.
    pub paranoid_stats: analysis::AnalysisStats,
    /// Functions the error-recovering frontend skipped while loading this
    /// module's input (0 when the input was clean or recovery was off; filled
    /// by the loader, not by the merge itself).
    pub functions_skipped: usize,
    /// Input modules that loaded in degraded form — with at least one
    /// skipped function (0 or 1 for a single-module merge; filled by the
    /// loader).
    pub modules_recovered: usize,
}

impl ModuleMergeReport {
    /// Number of committed (profitable) merge operations.
    pub fn num_merges(&self) -> usize {
        self.committed.len()
    }

    /// Total modelled byte savings over all committed merges.
    pub fn total_profit_bytes(&self) -> i64 {
        self.committed.iter().map(|r| r.profit_bytes).sum()
    }

    /// The run's alignment sums, as held in the `align_*` run fields.
    pub fn alignments(&self) -> AlignTally {
        AlignTally {
            score_only_runs: self.align_score_only_runs,
            full_runs: self.align_full_runs,
            band_runs: self.align_band_runs,
            band_saturations: self.align_band_saturations,
            class_table_hits: self.align_class_table_hits,
            class_table_misses: self.align_class_table_misses,
            lengths: self.align_lengths,
        }
    }

    /// Stores a run's alignment sums in the `align_*` run fields.
    fn set_alignments(&mut self, tally: &AlignTally) {
        self.align_score_only_runs = tally.score_only_runs;
        self.align_full_runs = tally.full_runs;
        self.align_band_runs = tally.band_runs;
        self.align_band_saturations = tally.band_saturations;
        self.align_class_table_hits = tally.class_table_hits;
        self.align_class_table_misses = tally.class_table_misses;
        self.align_lengths = tally.lengths;
    }
}

impl fmt::Display for ModuleMergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ModuleMergeReport {{ technique: {}, threshold: {}, attempts: {}, committed: {} }}",
            self.technique,
            self.threshold,
            self.attempts,
            self.committed.len()
        )?;
        for record in &self.committed {
            writeln!(
                f,
                "  merged {} ({} insts) + {} ({} insts) -> {} ({} insts), profit {} bytes, {} coalesced phi pairs",
                record.f1,
                record.sizes.0,
                record.f2,
                record.sizes.1,
                record.merged_name,
                record.sizes.2,
                record.profit_bytes,
                record.coalesced_pairs
            )?;
        }
        write!(
            f,
            "  align: {:?}, codegen: {:?}, peak live DP: {} bytes (full matrix would be {}), DP cells: {}, {} entries trimmed, total profit: {} bytes",
            self.align_time,
            self.codegen_time,
            self.peak_matrix_bytes,
            self.peak_full_matrix_bytes,
            self.total_cells,
            self.align_trimmed_entries,
            self.total_profit_bytes()
        )?;
        if self.semantic_rejections > 0 {
            write!(
                f,
                "\n  semantic oracle rejected {} merges",
                self.semantic_rejections
            )?;
        }
        if self.planner.oracle_timeouts > 0 {
            write!(
                f,
                "\n  semantic oracle timed out on {} merges",
                self.planner.oracle_timeouts
            )?;
        }
        if self.planner.internal_errors > 0 {
            write!(
                f,
                "\n  {} candidates lost to isolated internal errors",
                self.planner.internal_errors
            )?;
        }
        if self.functions_skipped > 0 {
            write!(
                f,
                "\n  recovery: {} unparseable functions skipped at load",
                self.functions_skipped
            )?;
        }
        if self.paranoid {
            write!(
                f,
                "\n  paranoid: {} checks, {} delta diagnostics, cache hit rate {:.0}%",
                self.paranoid_checks,
                self.paranoid_delta.len(),
                self.paranoid_stats.hit_rate() * 100.0
            )?;
        }
        Ok(())
    }
}

/// The outcome of scoring one candidate pair: its modelled profit and, when
/// this call merged the pair, the trial merge, which the commit adopts if the
/// pair wins its group. A score the run's memo supplied carries no body.
struct ScoredCandidate {
    profit: i64,
    pair: Option<PairMerge>,
}

/// The memo a fixpoint run shares with one intra pass: the run's scores,
/// which the pass only reads, and the scores the pass computes, which the
/// caller adds to the run's memo afterwards (see [`merge_module_with_memo`]).
struct PassMemo<'a> {
    seen: &'a ScoreMemo,
    fresh: ScoreMemo,
}

/// The intra-module [`CandidateSource`]: fingerprint ranking provides the
/// candidates (each function's top-`t` most similar peers form one rival
/// group, visited largest function first), trial merges the scores, and
/// [`commit_merge`] — optionally guarded by the differential oracle — the
/// commits.
struct IntraSource<'a> {
    module: &'a mut Module,
    merger: &'a dyn FunctionMerger,
    config: &'a DriverConfig,
    ranking: Ranking,
    order: Vec<String>,
    cursor: usize,
    unavailable: HashSet<String>,
    report: &'a mut ModuleMergeReport,
    paranoid: Option<analysis::ParanoidMonitor>,
    /// Every alignment and pre-filter check of the run. Behind a lock
    /// because scoring and pre-filtering count through `&self`.
    alignments: Mutex<AlignTally>,
    /// The run's memo, for a pass of a run that shares one.
    memo: Option<PassMemo<'a>>,
    /// Scores the memo supplied (counted through `&self`, like
    /// `alignments`).
    memo_hits: AtomicUsize,
}

impl IntraSource<'_> {
    /// Trial-merges a pair, counting its alignment whether or not the
    /// merger refuses the pair.
    fn merge_pair(&self, f1: &Function, f2: &Function) -> Option<PairMerge> {
        let merged_name = format!("merged.{}.{}", f1.name, f2.name);
        let merged = self.merger.merge_pair(f1, f2, &merged_name);
        let stats = merged
            .as_ref()
            .map_or_else(|r| r.alignment, |p| p.alignment);
        self.alignments
            .lock()
            .expect("no thread panics while counting an alignment")
            .add(&stats);
        merged.ok()
    }

    /// Trial-merges a pair and prices it.
    fn trial(&self, f1: &Function, f2: &Function) -> Option<(i64, PairMerge)> {
        let pair = self.merge_pair(f1, f2)?;
        let profit = estimate_profit(self.module, &f1.name, &f2.name, &pair, self.merger.target());
        Some((profit, pair))
    }
}

impl CandidateSource for IntraSource<'_> {
    type Key = (String, String);
    type Score = ScoredCandidate;
    type Record = MergeRecord;

    fn score(&self, key: &(String, String)) -> Option<ScoredCandidate> {
        let (f1, f2) = (self.module.function(&key.0)?, self.module.function(&key.1)?);
        let merged = |(profit, pair)| ScoredCandidate {
            profit,
            pair: Some(pair),
        };
        let Some(memo) = &self.memo else {
            return self.trial(f1, f2).map(merged);
        };
        let memo_key = ScoreMemo::key(f1, f2);
        if let Some(remembered) = memo.seen.lookup(&memo_key) {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            return remembered.map(|score| ScoredCandidate {
                profit: score.profit,
                pair: None,
            });
        }
        // One pass never scores an ordered pair twice (each function leads
        // at most one group), so its own scores need no lookup.
        let trial = self.trial(f1, f2);
        let remembered = trial.as_ref().map(|(profit, pair)| MemoScore {
            profit: *profit,
            sizes: (f1.num_insts(), f2.num_insts(), pair.merged_size()),
            odr_dedup: false,
        });
        memo.fresh.record(memo_key, remembered);
        trial.map(merged)
    }

    fn profit(score: &ScoredCandidate) -> i64 {
        score.profit
    }

    /// The admissible pre-filter: a pure read (class tables are cached on the
    /// functions' analysis slots), so rejecting here can never change a
    /// committed record — it only skips scoring work the cost model would
    /// discard anyway.
    fn prefilter_enabled(&self) -> bool {
        self.config.prefilter
    }

    fn prefilter(&self, key: &(String, String)) -> bool {
        let (Some(f1), Some(f2)) = (self.module.function(&key.0), self.module.function(&key.1))
        else {
            return false;
        };
        let band = Some(Band::new(crate::options::DEFAULT_BAND_SLACK));
        let check = fm_align::prefilter_check(f1, f2, self.merger.target(), band);
        self.alignments
            .lock()
            .expect("no thread panics while counting an alignment")
            .add_prefilter(&check);
        check.rejects
    }

    fn next_group(&mut self) -> Option<Vec<(String, String)>> {
        while self.cursor < self.order.len() {
            let name = self.order[self.cursor].clone();
            self.cursor += 1;
            if self.unavailable.contains(&name) {
                continue;
            }
            let Some(size) = self.module.function(&name).map(Function::num_insts) else {
                continue;
            };
            if size < self.config.min_function_size {
                continue;
            }
            let exclude: Vec<String> = self.unavailable.iter().cloned().collect();
            let group: Vec<(String, String)> = self
                .ranking
                .candidates(&name, self.config.threshold, &exclude)
                .into_iter()
                .filter(|candidate| {
                    !self.unavailable.contains(candidate)
                        && candidate != &name
                        && self
                            .module
                            .function(candidate)
                            .is_some_and(|f2| f2.num_insts() >= self.config.min_function_size)
                })
                .map(|candidate| (name.clone(), candidate))
                .collect();
            if telemetry::decisions_enabled() {
                for (f1, f2) in &group {
                    telemetry::record_decision(
                        telemetry::DecisionEvent::Discovered,
                        telemetry::Pair::intra(f1.clone(), f2.clone()),
                        None,
                        "fingerprint ranking".to_string(),
                    );
                }
            }
            return Some(group);
        }
        None
    }

    fn describe(&self, key: &(String, String)) -> Option<telemetry::Pair> {
        Some(telemetry::Pair::intra(key.0.clone(), key.1.clone()))
    }

    fn observe(&mut self, _key: &(String, String), scored: &ScoredCandidate) {
        self.report.attempts += 1;
        // A score the memo supplied ran no alignment.
        let Some(pair) = &scored.pair else {
            return;
        };
        let alignment = &pair.alignment;
        self.report.align_time += pair.align_time;
        self.report.codegen_time += pair.codegen_time;
        self.report.peak_matrix_bytes = self.report.peak_matrix_bytes.max(alignment.matrix_bytes);
        self.report.peak_full_matrix_bytes = self
            .report
            .peak_full_matrix_bytes
            .max(alignment.full_matrix_bytes);
        self.report.total_cells = self.report.total_cells.saturating_add(alignment.cells);
        self.report.align_trimmed_entries += alignment.trimmed as u64;
    }

    fn commit(
        &mut self,
        (name, candidate): (String, String),
        scored: ScoredCandidate,
    ) -> CommitOutcome<MergeRecord> {
        let ScoredCandidate { profit, pair } = scored;
        let pair = match pair {
            Some(pair) => pair,
            // The memo supplied the score: merge the pair again for the body
            // to commit (merging is deterministic, so it is the body the
            // score was computed from).
            None => {
                let merged = self
                    .module
                    .function(&name)
                    .zip(self.module.function(&candidate))
                    .and_then(|(f1, f2)| self.merge_pair(f1, f2));
                let Some(pair) = merged else {
                    return CommitOutcome::Skipped;
                };
                pair
            }
        };
        let record = if self.config.check_semantics {
            // Trial-commit on a copy and interrogate it with the interpreter;
            // only adopt the copy when both original entry points still
            // behave identically.
            let _span = telemetry::span_with("intra.oracle", || format!("{name} vs {candidate}"));
            let mut trial = self.module.clone();
            let record = commit_merge(
                &mut trial,
                &name,
                &candidate,
                pair,
                profit,
                self.merger.target(),
            );
            telemetry::faultinject::trip("oracle.check");
            let verdict = [name.as_str(), candidate.as_str()]
                .iter()
                .try_for_each(|f| {
                    ssa_interp::differential_check_with_fuel(
                        self.module,
                        &trial,
                        f,
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
                    self.report.semantic_rejections += 1;
                    return CommitOutcome::OracleRejected;
                }
                Ok(()) => {}
            }
            *self.module = trial;
            record
        } else {
            commit_merge(
                self.module,
                &name,
                &candidate,
                pair,
                profit,
                self.merger.target(),
            )
        };
        self.unavailable.insert(name);
        self.unavailable.insert(candidate);
        self.unavailable.insert(record.merged_name.clone());
        if let Some(monitor) = &mut self.paranoid {
            monitor.check_module(self.module);
        }
        CommitOutcome::Committed(record)
    }
}

/// Runs whole-module function merging with the given technique, as a thin
/// adapter over the unified planner engine ([`crate::plan`]).
pub fn merge_module(
    module: &mut Module,
    merger: &dyn FunctionMerger,
    config: &DriverConfig,
) -> ModuleMergeReport {
    run_pass(module, merger, config, None).0
}

/// [`merge_module`] with SalSSA, for a run that merges the same functions
/// more than once (the cross-module fixpoint) and keeps the pair scores it
/// has computed in `memo`. A pair of bodies `memo` holds a score for is not
/// merged again: the score counts in [`PlanStats::memo_hits`], and only a
/// commit of that pair merges it again, for its body. `memo` must hold
/// scores computed with `merger`'s options.
///
/// The pass only reads `memo`. The scores it computes come back in a memo
/// of their own, for the caller to [`ScoreMemo::absorb`] once no pass reads
/// `memo`. Passes running at once thus never see each other's new scores,
/// so which pass merges a pair, and keeps its body, never depends on their
/// timing, and neither does any count. Decisions, commits and the merged
/// module are those of [`merge_module`].
pub fn merge_module_with_memo(
    module: &mut Module,
    merger: &SalSsaMerger,
    config: &DriverConfig,
    memo: &ScoreMemo,
) -> (ModuleMergeReport, ScoreMemo) {
    run_pass(module, merger, config, Some(memo))
}

/// One intra-module pass, with or without a run's memo; returns the report
/// and the scores the pass added (none without a memo).
fn run_pass(
    module: &mut Module,
    merger: &dyn FunctionMerger,
    config: &DriverConfig,
    memo: Option<&ScoreMemo>,
) -> (ModuleMergeReport, ScoreMemo) {
    let mut report = ModuleMergeReport {
        technique: merger.name().to_string(),
        threshold: config.threshold,
        ..ModuleMergeReport::default()
    };
    let (key_hits, key_misses) = structural_key_counters();
    merger.preprocess_module(module);
    // The baseline is captured *after* preprocessing so paranoid deltas are
    // attributable to merge commits, not to the technique's own lowering.
    let paranoid = config
        .paranoid
        .then(|| analysis::ParanoidMonitor::for_module(module));

    let rank_span = telemetry::span_with("intra.rank", || module.name.clone());
    let ranking = Ranking::build(module);
    let order = ranking.names_by_size_desc();
    drop(rank_span);
    let mut source = IntraSource {
        module,
        merger,
        config,
        ranking,
        order,
        cursor: 0,
        unavailable: HashSet::new(),
        report: &mut report,
        paranoid,
        alignments: Mutex::new(AlignTally::default()),
        memo: memo.map(|seen| PassMemo {
            seen,
            fresh: ScoreMemo::new(),
        }),
        memo_hits: AtomicUsize::new(0),
    };
    let (committed, mut stats) = run_plan(&mut source);
    stats.memo_hits = source.memo_hits.into_inner();
    let paranoid = source.paranoid.take();
    let fresh = source
        .memo
        .take()
        .map(|memo| memo.fresh)
        .unwrap_or_default();
    let alignments = source
        .alignments
        .into_inner()
        .expect("no thread panics while counting an alignment");
    report.set_alignments(&alignments);
    report.committed = committed;
    report.planner = stats;

    merger.postprocess_module(module);
    if let Some(mut monitor) = paranoid {
        // One final check after postprocessing (thunk clean-up runs there).
        monitor.check_module(module);
        report.paranoid = true;
        report.paranoid_checks = monitor.checks();
        report.paranoid_stats = monitor.stats();
        report.paranoid_delta = monitor.into_delta();
    }
    let (hits, misses) = structural_key_counters();
    report.cache_hits = hits.saturating_sub(key_hits);
    report.cache_misses = misses.saturating_sub(key_misses);
    (report, fresh)
}

/// Modelled byte profit of replacing `f1` and `f2` by the merged function plus
/// two thunks. Public so alternative drivers (and the equivalence test
/// suite's reference implementation) share the exact cost model.
pub fn estimate_profit(
    module: &Module,
    f1: &str,
    f2: &str,
    pair: &PairMerge,
    target: Target,
) -> i64 {
    let size_f1 = function_size_bytes(module.function(f1).unwrap(), target) as i64;
    let size_f2 = function_size_bytes(module.function(f2).unwrap(), target) as i64;
    let merged = function_size_bytes(&pair.merged, target) as i64;
    let thunk1 = function_size_bytes(
        &build_thunk(
            module.function(f1).unwrap(),
            &pair.merged,
            &pair.param_f1,
            false,
        ),
        target,
    ) as i64;
    let thunk2 = function_size_bytes(
        &build_thunk(
            module.function(f2).unwrap(),
            &pair.merged,
            &pair.param_f2,
            true,
        ),
        target,
    ) as i64;
    size_f1 + size_f2 - merged - thunk1 - thunk2
}

/// Replaces `f1` and `f2` in the module by the merged function and two thunks.
fn commit_merge(
    module: &mut Module,
    f1: &str,
    f2: &str,
    pair: PairMerge,
    profit: i64,
    _target: Target,
) -> MergeRecord {
    let original_f1 = module.remove_function(f1).expect("f1 must exist");
    let original_f2 = module.remove_function(f2).expect("f2 must exist");
    let merged_name = pair.merged.name.clone();
    let sizes = (
        original_f1.num_insts(),
        original_f2.num_insts(),
        pair.merged.num_insts(),
    );
    let thunk1 = build_thunk(&original_f1, &pair.merged, &pair.param_f1, false);
    let thunk2 = build_thunk(&original_f2, &pair.merged, &pair.param_f2, true);
    let coalesced_pairs = pair.repair.coalesced_pairs;
    module.add_function(pair.merged);
    module.add_function(thunk1);
    module.add_function(thunk2);
    MergeRecord {
        f1: f1.to_string(),
        f2: f2.to_string(),
        merged_name,
        profit_bytes: profit,
        sizes,
        coalesced_pairs,
    }
}

/// Builds a thunk with the signature of `original` that tail-calls the merged
/// function with the appropriate function identifier and argument mapping.
pub fn build_thunk(
    original: &Function,
    merged: &Function,
    param_map: &[u32],
    fid: bool,
) -> Function {
    let mut thunk = Function::new(
        original.name.clone(),
        original.params.clone(),
        original.ret_ty,
    );
    thunk.linkage = original.linkage;
    thunk.param_names = original.param_names.clone();
    let entry = thunk.add_block("entry");
    // Build the merged call's argument list: fid, then each merged parameter
    // filled from the original arguments (or undef when the slot belongs only
    // to the other function).
    let mut args: Vec<Value> = Vec::with_capacity(merged.params.len());
    args.push(Value::bool(fid));
    for (slot, ty) in merged.params.iter().enumerate().skip(1) {
        let from_original = param_map
            .iter()
            .position(|m| *m as usize == slot)
            .map(|orig_index| Value::Arg(orig_index as u32));
        args.push(from_original.unwrap_or(Value::undef(*ty)));
    }
    let call = thunk.append_inst(
        entry,
        InstKind::Call {
            callee: merged.name.clone(),
            args,
        },
        merged.ret_ty,
    );
    thunk.set_inst_name(call, "result");
    let ret_value = if original.ret_ty == Type::Void {
        None
    } else {
        Some(Value::Inst(call))
    };
    thunk.append_inst(entry, InstKind::Ret { value: ret_value }, Type::Void);
    thunk
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_module;
    use ssa_ir::verifier::verify_module;

    /// A module with two near-clone functions (the dominant source of savings
    /// in the paper's SPEC results, e.g. C++ template instantiations) plus an
    /// unrelated function.
    fn clone_heavy_module() -> Module {
        let template = |name: &str, k1: i32, k2: i32| {
            format!(
                r#"
define i32 @{name}(i32 %n) {{
L1:
  %x0 = call i32 @setup(i32 %n)
  %x0b = add i32 %x0, %n
  %x1 = call i32 @start(i32 %x0b)
  %x1b = xor i32 %x1, %n
  %x2 = icmp slt i32 %x1b, {k1}
  br i1 %x2, label %L2, label %L3
L2:
  %x3 = call i32 @body(i32 %x1)
  %x3b = add i32 %x3, {k2}
  br label %L4
L3:
  %x4 = call i32 @other(i32 %x1)
  %x4b = mul i32 %x4, {k2}
  br label %L4
L4:
  %x5 = phi i32 [ %x3b, %L2 ], [ %x4b, %L3 ]
  %x6 = call i32 @end(i32 %x5)
  ret i32 %x6
}}
"#
            )
        };
        let text = format!(
            "{}\n{}\ndefine double @noise(double %x) {{\nentry:\n  %a = fmul double %x, 2.0\n  %b = fadd double %a, 1.0\n  ret double %b\n}}",
            template("alpha", 0, 3),
            template("beta", 1, 7)
        );
        parse_module(&text).unwrap()
    }

    /// A "gray zone" function for the pre-filter: four adds then four muls
    /// (or the reverse), all chained so nothing is dead. Two opposite-order
    /// copies share their whole class histogram (the cheap bound barely
    /// clears the margin) but align on only one of the two runs, so the
    /// sharpening score DP proves the pair hopeless.
    fn gray_fun(name: &str, adds_first: bool) -> Function {
        let (first, second) = if adds_first {
            ("add", "mul")
        } else {
            ("mul", "add")
        };
        let mut body = String::new();
        let mut prev = "%x".to_string();
        for i in 0..8 {
            let op = if i < 4 { first } else { second };
            body.push_str(&format!("  %v{i} = {op} i32 {prev}, {}\n", i + 2));
            prev = format!("%v{i}");
        }
        ssa_ir::parse_function(&format!(
            "define i32 @{name}(i32 %x) {{\nentry:\n{body}  ret i32 {prev}\n}}"
        ))
        .unwrap()
    }

    #[test]
    fn prefilter_rejects_gray_pairs_without_changing_commits() {
        let mut with = clone_heavy_module();
        with.add_function(gray_fun("gray1", true));
        with.add_function(gray_fun("gray2", false));
        let mut without = with.clone();
        let merger = SalSsaMerger::default();
        let config = DriverConfig::with_threshold(2);
        let on = merge_module(&mut with, &merger, &config);
        let off = merge_module(&mut without, &merger, &config.with_prefilter(false));
        // The filter is admissible: the committed records are identical, the
        // filter only skips scoring work (attempts may therefore differ).
        assert_eq!(on.committed, off.committed);
        assert!(on.num_merges() >= 1);
        assert!(on.planner.prefilter_checked > 0);
        assert!(on.planner.prefilter_rejected > 0, "{:?}", on.planner);
        assert_eq!(off.planner.prefilter_rejected, 0);
        assert!(on.attempts < off.attempts);
        // The gray pair's sharpening DP runs the score-only tier during
        // planning. (Band counters stay 0 here: these functions are shorter
        // than the slack-8 corridor, so the aligner takes the exact tier
        // directly — banding on sequences this small would be pure overhead.)
        assert!(on.align_score_only_runs > 0);
        assert!(verify_module(&with).is_empty());
    }

    #[test]
    fn driver_merges_the_similar_pair_and_keeps_module_valid() {
        let mut module = clone_heavy_module();
        let merger = SalSsaMerger::default();
        let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(2));
        assert_eq!(report.num_merges(), 1);
        assert!(report.attempts >= 1);
        let record = &report.committed[0];
        assert!(record.profit_bytes > 0);
        // alpha and beta still exist (as thunks), plus the merged function.
        assert!(module.function("alpha").is_some());
        assert!(module.function("beta").is_some());
        assert!(module.function(&record.merged_name).is_some());
        assert!(verify_module(&module).is_empty());
    }

    #[test]
    fn thunks_are_tiny() {
        let mut module = clone_heavy_module();
        let merger = SalSsaMerger::default();
        merge_module(&mut module, &merger, &DriverConfig::with_threshold(2));
        let thunk = module.function("alpha").unwrap();
        assert!(thunk.num_insts() <= 2);
        assert!(matches!(
            thunk.inst(thunk.block(thunk.entry()).insts[0]).kind,
            InstKind::Call { .. }
        ));
    }

    #[test]
    fn unrelated_functions_are_not_merged() {
        let mut module = parse_module(
            r#"
define i32 @ints(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 3
  %c = call i32 @sink(i32 %b)
  ret i32 %c
}

define double @floats(double %x) {
entry:
  %a = fadd double %x, 1.0
  %b = fmul double %a, 3.0
  %c = call double @fsink(double %b)
  ret double %c
}
"#,
        )
        .unwrap();
        let merger = SalSsaMerger::default();
        let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(5));
        assert_eq!(report.num_merges(), 0);
        assert_eq!(module.num_functions(), 2);
    }

    #[test]
    fn threshold_zero_disables_merging() {
        let mut module = clone_heavy_module();
        let merger = SalSsaMerger::default();
        let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(0));
        assert_eq!(report.attempts, 0);
        assert_eq!(report.align_full_runs, 0);
        assert_eq!(report.num_merges(), 0);
    }

    #[test]
    fn report_accumulates_alignment_instrumentation() {
        let mut module = clone_heavy_module();
        let merger = SalSsaMerger::default();
        let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(2));
        assert!(report.total_cells > 0);
        assert!(report.peak_full_matrix_bytes > 0);
        // alpha and beta differ only in constants, which mergeability ignores:
        // the whole pair is resolved by trimming, so the linear-space engine
        // never holds a DP row — peak live bytes undercut the full matrix.
        assert!(report.align_trimmed_entries > 0);
        assert!(report.peak_matrix_bytes < report.peak_full_matrix_bytes);
        assert!(report.align_full_runs > 0);
        assert_eq!(report.technique, "salssa");
    }

    /// Wraps the SalSSA merger and keeps the alignment stats of every pair
    /// it is asked to merge, refused or not.
    #[derive(Default)]
    struct RecordingMerger {
        inner: SalSsaMerger,
        seen: std::sync::Mutex<Vec<fm_align::AlignmentStats>>,
    }

    impl FunctionMerger for RecordingMerger {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn merge_pair(
            &self,
            f1: &Function,
            f2: &Function,
            merged_name: &str,
        ) -> Result<PairMerge, Refused> {
            let merged = self.inner.merge_pair(f1, f2, merged_name);
            let stats = merged
                .as_ref()
                .map_or_else(|r| r.alignment, |p| p.alignment);
            self.seen.lock().unwrap().push(stats);
            merged
        }
        fn target(&self) -> Target {
            self.inner.target()
        }
    }

    #[test]
    fn no_alignment_holds_a_full_score_matrix() {
        // The acceptance criterion of the linear-space engine: scoring must
        // only use the rolling/divide-and-conquer tiers, so no alignment
        // ever holds as many live DP bytes as the full score matrix would
        // take.
        let merger = RecordingMerger::default();
        let mut module = clone_heavy_module();
        let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(2));
        assert!(report.num_merges() > 0);
        let seen = merger.seen.into_inner().unwrap();
        assert_eq!(seen.len() as u64, report.align_full_runs);
        for stats in &seen {
            assert!(
                stats.matrix_bytes < stats.full_matrix_bytes,
                "an alignment held a full score matrix: {stats:?}"
            );
        }
    }

    #[test]
    fn refused_pairs_still_count_their_alignment() {
        // Same body, different return types: the pair aligns, then code
        // generation refuses it. Neither side ever becomes an attempt, but
        // both orientations were aligned, so the report counts both runs.
        // (The pre-filter would reject this small pair before aligning it.)
        let body = |ret: &str| {
            format!(
                "define {ret} @f_{ret}(i32 %x) {{\nentry:\n  %a = add i32 %x, 1\n  %b = mul i32 %a, 3\n  %c = xor i32 %b, %x\n  %r = zext i32 %c to {ret}\n  ret {ret} %r\n}}"
            )
        };
        let text = format!("{}\n{}", body("i64"), body("i16"));
        let config = DriverConfig::with_threshold(1).with_prefilter(false);
        let mut module = parse_module(&text).unwrap();
        let report = merge_module(&mut module, &SalSsaMerger::default(), &config);
        assert_eq!(report.attempts, 0);
        assert_eq!(report.num_merges(), 0);
        assert_eq!(report.planner.candidates, 2, "{:?}", report.planner);
        assert_eq!(report.align_full_runs, 2);
        assert_eq!(report.align_lengths.count(), 2);
        assert_eq!(report.align_class_table_misses, 2);
    }

    #[test]
    fn an_empty_memo_changes_nothing_and_collects_every_score() {
        let merger = SalSsaMerger::default();
        let config = DriverConfig::with_threshold(2);
        let mut plain = clone_heavy_module();
        let expected = merge_module(&mut plain, &merger, &config);
        let mut memoized = clone_heavy_module();
        let (report, scores) =
            merge_module_with_memo(&mut memoized, &merger, &config, &ScoreMemo::new());
        assert_eq!(report.committed, expected.committed);
        assert_eq!(
            ssa_ir::print_module(&memoized),
            ssa_ir::print_module(&plain)
        );
        let counts = |stats: &PlanStats| PlanStats {
            score_time: Duration::ZERO,
            commit_time: Duration::ZERO,
            ..*stats
        };
        assert_eq!(counts(&report.planner), counts(&expected.planner));
        assert_eq!(report.planner.memo_hits, 0);
        assert_eq!(report.attempts, expected.attempts);
        assert_eq!(report.align_full_runs, expected.align_full_runs);
        assert_eq!(report.total_cells, expected.total_cells);
        // Every scored pair is handed back, refused ones included.
        assert_eq!(scores.len(), report.planner.inline_scores);
    }

    #[test]
    fn a_remembered_pair_is_not_merged_again_until_it_commits() {
        let merger = SalSsaMerger::default();
        for config in [
            DriverConfig::with_threshold(2),
            DriverConfig::with_threshold(2).with_check_semantics(true),
        ] {
            let mut plain = clone_heavy_module();
            let expected = merge_module(&mut plain, &merger, &config);
            assert_eq!(expected.num_merges(), 1);

            let memo = ScoreMemo::new();
            let (_, scores) =
                merge_module_with_memo(&mut clone_heavy_module(), &merger, &config, &memo);
            memo.absorb(scores);
            let mut module = clone_heavy_module();
            let (report, scores) = merge_module_with_memo(&mut module, &merger, &config, &memo);
            // Every pair is remembered: none is scored by a merge, and the
            // winner is merged once more, for the body its commit adopts.
            assert_eq!(report.planner.memo_hits, report.planner.inline_scores);
            assert!(scores.is_empty());
            assert_eq!(report.committed, expected.committed);
            assert_eq!(ssa_ir::print_module(&module), ssa_ir::print_module(&plain));
            assert_eq!(report.attempts, expected.attempts);
            assert_eq!(report.align_full_runs, 1);
            assert_eq!(report.total_cells, 0);
        }
    }

    #[test]
    fn merging_shrinks_the_modelled_object_size() {
        let mut module = clone_heavy_module();
        let before = ssa_passes::module_size_bytes(&module, Target::X86Like);
        let merger = SalSsaMerger::default();
        merge_module(&mut module, &merger, &DriverConfig::with_threshold(2));
        let after = ssa_passes::module_size_bytes(&module, Target::X86Like);
        assert!(after < before, "{after} !< {before}");
    }

    #[test]
    fn semantic_oracle_keeps_sound_merges_and_counts_nothing() {
        let mut checked = clone_heavy_module();
        let merger = SalSsaMerger::default();
        let config = DriverConfig::with_threshold(2).with_check_semantics(true);
        let report = merge_module(&mut checked, &merger, &config);
        // SalSSA merges are sound, so the oracle must not reject anything and
        // the committed schedule must match an unchecked run exactly.
        assert_eq!(report.semantic_rejections, 0);
        let mut unchecked = clone_heavy_module();
        let baseline = merge_module(&mut unchecked, &merger, &DriverConfig::with_threshold(2));
        assert_eq!(report.committed, baseline.committed);
        assert_eq!(
            ssa_ir::print_module(&checked),
            ssa_ir::print_module(&unchecked)
        );
    }

    #[test]
    fn semantic_oracle_rejects_a_broken_merger() {
        /// A merger that produces verifier-clean but semantically wrong code:
        /// it "merges" two functions into a copy of the first, so the second
        /// entry point silently changes behavior.
        struct BrokenMerger;
        impl FunctionMerger for BrokenMerger {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn merge_pair(
                &self,
                f1: &Function,
                f2: &Function,
                merged_name: &str,
            ) -> Result<PairMerge, Refused> {
                let good = SalSsaMerger::default().merge_pair(f1, f2, merged_name)?;
                // Wreck the merged body: ignore f2 entirely by reusing f1 with
                // a compatible (fid-extended) signature.
                let mut wrong = f1.clone();
                wrong.set_name(merged_name);
                wrong.params.insert(0, Type::I1);
                wrong.param_names.insert(0, "fid".to_string());
                for inst in wrong.inst_ids().collect::<Vec<_>>() {
                    wrong.inst_mut(inst).kind.for_each_operand_mut(|v| {
                        if let Value::Arg(i) = v {
                            *v = Value::Arg(*i + 1);
                        }
                    });
                }
                Ok(PairMerge {
                    merged: wrong,
                    ..good
                })
            }
            fn target(&self) -> Target {
                Target::X86Like
            }
        }

        let merger = BrokenMerger;
        let mut unchecked = clone_heavy_module();
        let free = merge_module(&mut unchecked, &merger, &DriverConfig::with_threshold(2));
        assert!(free.num_merges() > 0, "broken merges must look profitable");

        let mut checked = clone_heavy_module();
        let config = DriverConfig::with_threshold(2).with_check_semantics(true);
        let report = merge_module(&mut checked, &merger, &config);
        assert_eq!(report.num_merges(), 0);
        assert!(report.semantic_rejections > 0);
        // The rejected module is untouched.
        assert_eq!(
            ssa_ir::print_module(&checked),
            ssa_ir::print_module(&clone_heavy_module())
        );
        assert!(report.to_string().contains("semantic oracle rejected"));
    }

    #[test]
    fn report_display_names_every_commit() {
        let mut module = clone_heavy_module();
        let merger = SalSsaMerger::default();
        let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(2));
        let rendered = report.to_string();
        assert!(rendered.contains("ModuleMergeReport"));
        assert!(rendered.contains("technique: salssa"));
        for record in &report.committed {
            assert!(rendered.contains(&record.merged_name));
        }
    }

    #[test]
    fn build_thunk_fills_unmapped_slots_with_undef() {
        let original =
            ssa_ir::parse_function("define i32 @orig(i32 %a) {\nentry:\n  ret i32 %a\n}").unwrap();
        let merged = ssa_ir::parse_function(
            "define i32 @m(i1 %fid, i32 %a, i64 %extra) {\nentry:\n  ret i32 %a\n}",
        )
        .unwrap();
        let thunk = build_thunk(&original, &merged, &[1], false);
        let call = thunk.block(thunk.entry()).insts[0];
        let InstKind::Call { args, .. } = &thunk.inst(call).kind else {
            panic!("expected call");
        };
        assert_eq!(args.len(), 3);
        assert_eq!(args[0], Value::bool(false));
        assert_eq!(args[1], Value::Arg(0));
        assert!(args[2].is_undef());
    }
}
