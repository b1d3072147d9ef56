//! The unified merge planner: one rank/score/commit engine shared by the
//! intra-module driver ([`crate::driver`]) and the cross-module pipeline (the
//! `xmerge` crate).
//!
//! Both drivers implement the paper's core loop — rank candidate pairs by
//! fingerprint similarity, score alignments, commit profitable merges in
//! profit order — on one schedule. A source may announce keys to score up
//! front ([`CandidateSource::speculative_keys`]); the engine scores them on
//! all cores in bounded batches (scoring is read-only on the IR). The
//! sequential commit loop then walks the source's groups, pre-filtering and
//! scoring each member nobody scored yet, once, and commits at most the best
//! positive-profit member of each group.
//!
//! This module owns that engine. A driver provides a [`CandidateSource`]:
//!
//! * **candidate discovery** — [`CandidateSource::speculative_keys`] and
//!   [`CandidateSource::next_group`]. The intra-module source announces
//!   nothing: it walks the fingerprint ranking's size-ordered function list,
//!   yielding each function's top-`t` candidates as one rival group, and the
//!   commit loop scores them as it reaches them (the paper's whole-module
//!   loop). The cross-module source announces every discovered pair and
//!   yields them one at a time in global profit order (sorted in
//!   [`CandidateSource::plan`] once the up-front scores are in).
//! * **scoring** — [`CandidateSource::score`], a pure read of the underlying
//!   modules, called from rayon workers for announced keys and inline for
//!   the rest.
//! * **hazard and commit hooks** — [`CandidateSource::hazard`] (e.g. the
//!   cross-module ODR/link rules) and [`CandidateSource::commit`] (module
//!   mutation, optionally guarded by the differential semantic oracle).
//!
//! The engine returns the committed records plus [`PlanStats`]: candidates
//! examined, up-front vs. inline scores, and phase timings — surfaced by
//! `salssa ... --json` for trajectory tracking.
//!
//! A run that drives the engine more than once over the same functions (the
//! cross-module fixpoint) lets its sources share a [`ScoreMemo`], so each
//! ordered pair of bodies is merged at most once per run.

mod memo;

pub use memo::{MemoScore, ScoreMemo};

use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use telemetry::{DecisionEvent, RejectReason};

/// Scores of the announced keys the merger did not refuse.
pub type ScoreCache<K, S> = HashMap<K, S>;

/// Statistics accumulated by one [`run_plan`] invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Candidate pairs the commit loop examined (scheduled candidates).
    pub candidates: usize,
    /// Announced pairs scored in parallel before the commit loop.
    pub speculative_scores: usize,
    /// Group members nobody scored up front, scored inline by the commit
    /// loop.
    pub inline_scores: usize,
    /// Fixpoint rounds driven over this engine (1 for a single-shot run;
    /// maintained by the fixpoint driver, not by [`run_plan`] itself).
    pub rounds: usize,
    /// Whole-program links performed for the differential oracle (maintained
    /// by sources whose oracle interrogates a *linked* view, like the
    /// cross-module pipeline, which links a before and an after program per
    /// oracle run; 0 when the oracle is off or needs no link).
    pub oracle_links: usize,
    /// Commit-loop candidates run through [`CandidateSource::prefilter`].
    pub prefilter_checked: usize,
    /// Candidates the admissible pre-filter proved unprofitable, skipped
    /// before any codegen-based scoring.
    pub prefilter_rejected: usize,
    /// Candidates lost to an isolated panic in scoring, hazard scanning, or
    /// commit — each degraded to a `rejected(internal_error)` decision
    /// instead of aborting the run.
    pub internal_errors: usize,
    /// Commits refused because the differential oracle exhausted its fuel
    /// budget before reaching a verdict.
    pub oracle_timeouts: usize,
    /// Scored pairs whose score came from the run's [`ScoreMemo`] instead of
    /// a merge (maintained by sources that share a memo, like the
    /// cross-module fixpoint; 0 without one). Each still counts as a
    /// speculative or inline score.
    pub memo_hits: usize,
    /// Wall-clock time of the up-front scoring phase.
    pub score_time: Duration,
    /// Wall-clock time of the commit loop (including inline scoring and
    /// oracle runs).
    pub commit_time: Duration,
}

impl PlanStats {
    /// Folds another run's statistics into this one (used by fixpoint
    /// drivers; `rounds` accumulate, times and counters add up).
    pub fn absorb(&mut self, other: &PlanStats) {
        self.candidates += other.candidates;
        self.speculative_scores += other.speculative_scores;
        self.inline_scores += other.inline_scores;
        self.rounds += other.rounds.max(1);
        self.oracle_links += other.oracle_links;
        self.prefilter_checked += other.prefilter_checked;
        self.prefilter_rejected += other.prefilter_rejected;
        self.internal_errors += other.internal_errors;
        self.oracle_timeouts += other.oracle_timeouts;
        self.memo_hits += other.memo_hits;
        self.score_time += other.score_time;
        self.commit_time += other.commit_time;
    }
}

/// What became of the winning candidate handed to [`CandidateSource::commit`].
#[derive(Debug)]
pub enum CommitOutcome<R> {
    /// The merge was applied; the record is collected by the engine.
    Committed(R),
    /// The differential oracle observed a divergence; nothing was mutated.
    /// The source is expected to count the rejection itself.
    OracleRejected,
    /// The differential oracle exhausted its fuel budget before reaching a
    /// verdict; the commit was conservatively refused and nothing was
    /// mutated. The engine counts the timeout.
    OracleTimeout,
    /// Committing would break linking, for the reason given; nothing was
    /// mutated. The source counts its own skips, as for
    /// [`CandidateSource::hazard`].
    Hazard(&'static str),
    /// The commit could not be applied (e.g. regeneration refused the pair);
    /// nothing was mutated and no endpoint was consumed.
    Skipped,
}

/// A driver-specific provider of candidate pairs, scores and commits. See the
/// module docs for the contract; `Sync` is required so the engine can score
/// announced keys from rayon workers.
pub trait CandidateSource: Sync {
    /// Identity of one candidate pair.
    type Key: Clone + Eq + Hash + Send + Sync;
    /// The outcome of scoring one pair: profit plus whatever instrumentation
    /// the driver's report wants.
    type Score: Send;
    /// One committed merge operation, as reported by the driver.
    type Record;

    /// Pairs to score on all cores before the commit loop starts, for a
    /// source whose schedule derives from their scores (see
    /// [`CandidateSource::plan`]). The default announces nothing, and the
    /// commit loop scores each group member when it reaches it.
    fn speculative_keys(&self) -> Vec<Self::Key> {
        Vec::new()
    }

    /// The placement-policy hook: the engine maps every candidate key through
    /// `place` before it is scored — both up front and in the commit loop —
    /// so a source can apply a placement decision (e.g. the
    /// cross-module host-selection policy re-orienting which side of a pair
    /// hosts the merged body) in exactly one spot without its discovery stage
    /// knowing about policies. Must be idempotent: keys coming back out of
    /// the schedule are placed again. The default is the identity.
    fn place(&self, key: Self::Key) -> Self::Key {
        key
    }

    /// Whether [`CandidateSource::prefilter`] is live for this source. When
    /// `false` the engine skips the hook entirely and the `prefilter.*`
    /// counters stay at zero — so a disabled filter reports no phantom
    /// checks. The default matches the default `prefilter`, which filters
    /// nothing.
    fn prefilter_enabled(&self) -> bool {
        false
    }

    /// Returns `true` when an admissible upper bound proves this pair cannot
    /// be profitably merged, so the engine skips scoring it. The engine
    /// checks each key once, before it scores it. Only consulted when
    /// [`CandidateSource::prefilter_enabled`] is `true`. Must be a pure read
    /// and must never reject a pair the driver could commit (the pre-filter
    /// changes how much work scoring does, never which merges happen). The
    /// default filters nothing.
    fn prefilter(&self, _key: &Self::Key) -> bool {
        false
    }

    /// Scores one pair without mutating anything; `None` means the merger
    /// refused it.
    fn score(&self, key: &Self::Key) -> Option<Self::Score>;

    /// The modelled byte profit of a scored pair.
    fn profit(score: &Self::Score) -> i64;

    /// Called once, after up-front scoring and before the commit loop, so
    /// the source can derive its commit schedule from the scores (the
    /// cross-module source sorts globally by profit here). The default does
    /// nothing.
    fn plan(&mut self, _cache: &ScoreCache<Self::Key, Self::Score>) {}

    /// The next group of rival candidates, or `None` when the schedule is
    /// exhausted. Within a group the engine commits (at most) the single most
    /// profitable pair; sources enforce their own availability rules here
    /// (consumed functions never reappear in a group).
    fn next_group(&mut self) -> Option<Vec<Self::Key>>;

    /// Observes every successfully scored candidate the commit loop examines
    /// (attempt accounting and instrumentation aggregation).
    fn observe(&mut self, key: &Self::Key, score: &Self::Score);

    /// Says why committing this winner would be unsafe (e.g. the
    /// cross-module ODR hazard rules), or `None` when it is safe. The source
    /// counts its own skips. The default accepts everything.
    fn hazard(&mut self, _key: &Self::Key, _score: &Self::Score) -> Option<&'static str> {
        None
    }

    /// Names the two functions a key refers to, for telemetry decision
    /// provenance. Sources that return `Some` get the full candidate
    /// lifecycle (scored / rejected / committed) emitted by the engine when
    /// the planning thread records decisions (`--decisions-out`, or an open
    /// [`telemetry::capture_decisions`]); the default opts out.
    fn describe(&self, _key: &Self::Key) -> Option<telemetry::Pair> {
        None
    }

    /// Applies the winning merge, mutating the underlying modules.
    fn commit(&mut self, key: Self::Key, score: Self::Score) -> CommitOutcome<Self::Record>;
}

/// Announced keys per parallel scoring batch. Each batch is a parallel map
/// joined before the next starts, which bounds how many scoring results are
/// in flight at once.
const SCORE_BATCH: usize = 128;

/// Runs `f` with panics isolated: a panic becomes `None` instead of
/// unwinding into the engine, so one poisoned candidate costs exactly one
/// pair. `AssertUnwindSafe` is sound here because every caller abandons the
/// captured state's logical transaction on `None` (sources mutate through a
/// trial-then-swap discipline, so a mid-commit panic leaves the module
/// unchanged).
fn isolate<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Scores one key behind the `plan.score` fault probe. `None` means the
/// scoring panicked, `Some(None)` that the merger refused the pair.
fn score_isolated<S: CandidateSource>(source: &S, key: &S::Key) -> Option<Option<S::Score>> {
    isolate(|| {
        telemetry::faultinject::trip("plan.score");
        source.score(key)
    })
}

/// Runs the pre-filter on one key, counting the check and any rejection.
fn prefiltered<S: CandidateSource>(source: &S, key: &S::Key, stats: &mut PlanStats) -> bool {
    if !source.prefilter_enabled() {
        return false;
    }
    stats.prefilter_checked += 1;
    if !source.prefilter(key) {
        return false;
    }
    stats.prefilter_rejected += 1;
    emit_decision(
        source,
        key,
        DecisionEvent::Rejected(RejectReason::Prefiltered),
        None,
        "admissible profit bound below the merge overhead",
    );
    true
}

/// Logs a pair the merger refused to merge.
fn refused<S: CandidateSource>(source: &S, key: &S::Key) {
    emit_decision(
        source,
        key,
        DecisionEvent::Rejected(RejectReason::Refused),
        None,
        "merger refused the pair",
    );
}

/// Counts a scoring panic as an internal error, with its decision.
fn scoring_panicked<S: CandidateSource>(source: &S, key: &S::Key, stats: &mut PlanStats) {
    stats.internal_errors += 1;
    emit_decision(
        source,
        key,
        DecisionEvent::Rejected(RejectReason::InternalError),
        None,
        "scoring panicked; the pair was isolated",
    );
}

/// Emits one decision-log entry for a candidate the engine is examining, if
/// decision logging is on and the source names its pairs.
fn emit_decision<S: CandidateSource>(
    source: &S,
    key: &S::Key,
    event: DecisionEvent,
    profit: Option<i64>,
    detail: &str,
) {
    if !telemetry::decisions_enabled() {
        return;
    }
    if let Some(pair) = source.describe(key) {
        telemetry::record_decision(event, pair, profit, detail.to_string());
    }
}

/// The scores of the announced keys, and the announced keys that were
/// pre-filtered, refused or whose scoring panicked.
type Announced<K, S> = (ScoreCache<K, S>, HashSet<K>);

/// Pre-filters the keys the source announces and scores the rest on all
/// cores, in batches. Each pre-filter rejection, refusal and panic is logged
/// and counted where it happens, and the commit loop skips those keys.
fn score_announced<S: CandidateSource>(
    source: &S,
    stats: &mut PlanStats,
) -> Announced<S::Key, S::Score> {
    let mut settled = HashSet::new();
    let keys: Vec<S::Key> = source
        .speculative_keys()
        .into_iter()
        .map(|key| source.place(key))
        .filter(|key| {
            let rejected = prefiltered(source, key, stats);
            if rejected {
                settled.insert(key.clone());
            }
            !rejected
        })
        .collect();
    stats.speculative_scores = keys.len();
    let mut cache = ScoreCache::with_capacity(keys.len());
    for batch in keys.chunks(SCORE_BATCH) {
        let _span = telemetry::span_with("plan.score.batch", || format!("{} pairs", batch.len()));
        let scored: Vec<Option<Option<S::Score>>> = batch
            .par_iter()
            .map(|key| score_isolated(source, key))
            .collect();
        for (key, scored) in batch.iter().zip(scored) {
            match scored {
                Some(Some(score)) => {
                    cache.insert(key.clone(), score);
                    continue;
                }
                Some(None) => refused(source, key),
                None => scoring_panicked(source, key, stats),
            }
            settled.insert(key.clone());
        }
    }
    (cache, settled)
}

/// Runs the engine to completion: the announced keys are pre-filtered and
/// scored on all cores, then the sequential profit-ordered commit loop walks
/// the source's groups. Every key is pre-filtered and scored at most once.
/// Returns the committed records in commit order plus the engine statistics.
pub fn run_plan<S: CandidateSource>(source: &mut S) -> (Vec<S::Record>, PlanStats) {
    let mut stats = PlanStats {
        rounds: 1,
        ..PlanStats::default()
    };

    // Phase timings come from telemetry spans: the report's `timing_ms`
    // fields and the exported trace derive from the same `Instant` pair, so
    // the two views cannot disagree.
    let score_span = telemetry::timed_span("plan.score");
    let (mut cache, settled) = score_announced(source, &mut stats);
    stats.score_time = score_span.stop();

    source.plan(&cache);

    let commit_span = telemetry::timed_span("plan.commit");
    let mut records = Vec::new();
    while let Some(group) = source.next_group() {
        let mut best: Option<(i64, S::Key, S::Score)> = None;
        // Profitable group members that lost to the group winner, kept only
        // while decision logging is on (they are reported as superseded).
        let mut runners: Vec<(S::Key, i64)> = Vec::new();
        let log_decisions = telemetry::decisions_enabled();
        for key in group {
            let key = source.place(key);
            let scored = match cache.remove(&key) {
                Some(cached) => Some(Some(cached)),
                None => {
                    if settled.contains(&key) || prefiltered(source, &key, &mut stats) {
                        continue;
                    }
                    stats.inline_scores += 1;
                    score_isolated(source, &key)
                }
            };
            stats.candidates += 1;
            let Some(scored) = scored else {
                scoring_panicked(source, &key, &mut stats);
                continue;
            };
            let Some(score) = scored else {
                refused(source, &key);
                continue;
            };
            source.observe(&key, &score);
            let profit = S::profit(&score);
            emit_decision(source, &key, DecisionEvent::Scored, Some(profit), "");
            if profit <= 0 {
                emit_decision(
                    source,
                    &key,
                    DecisionEvent::Rejected(RejectReason::Unprofitable),
                    Some(profit),
                    "",
                );
            } else if log_decisions {
                runners.push((key.clone(), profit));
            }
            let improves = best
                .as_ref()
                .map(|(best_profit, _, _)| profit > *best_profit)
                .unwrap_or(true);
            if improves && profit > 0 {
                best = Some((profit, key, score));
            }
        }
        if let Some((profit, key, score)) = best {
            for (runner, runner_profit) in &runners {
                if *runner != key {
                    emit_decision(
                        source,
                        runner,
                        DecisionEvent::Rejected(RejectReason::Superseded),
                        Some(*runner_profit),
                        "lost to the group winner",
                    );
                }
            }
            match isolate(|| source.hazard(&key, &score)) {
                Some(None) => {}
                Some(Some(why)) => {
                    emit_decision(
                        source,
                        &key,
                        DecisionEvent::Rejected(RejectReason::Hazard),
                        Some(profit),
                        why,
                    );
                    continue;
                }
                None => {
                    stats.internal_errors += 1;
                    emit_decision(
                        source,
                        &key,
                        DecisionEvent::Rejected(RejectReason::InternalError),
                        Some(profit),
                        "hazard scan panicked; the pair was isolated",
                    );
                    continue;
                }
            }
            // The key is consumed by `commit`; name the pair first (only
            // when the log is on — describing builds strings).
            let described = if log_decisions {
                source.describe(&key)
            } else {
                None
            };
            let outcome = isolate(|| {
                telemetry::faultinject::trip("plan.commit");
                source.commit(key, score)
            });
            let (event, detail) = match outcome {
                Some(CommitOutcome::Committed(record)) => {
                    records.push(record);
                    (DecisionEvent::Committed, "")
                }
                Some(CommitOutcome::OracleRejected) => (
                    DecisionEvent::Rejected(RejectReason::Oracle),
                    "differential oracle observed a divergence",
                ),
                Some(CommitOutcome::OracleTimeout) => {
                    stats.oracle_timeouts += 1;
                    (
                        DecisionEvent::Rejected(RejectReason::OracleTimeout),
                        "differential oracle exhausted its fuel budget",
                    )
                }
                Some(CommitOutcome::Hazard(detail)) => {
                    (DecisionEvent::Rejected(RejectReason::Hazard), detail)
                }
                Some(CommitOutcome::Skipped) => (
                    DecisionEvent::Rejected(RejectReason::Refused),
                    "commit-time regeneration refused the pair",
                ),
                None => {
                    stats.internal_errors += 1;
                    (
                        DecisionEvent::Rejected(RejectReason::InternalError),
                        "commit panicked; the pair was isolated",
                    )
                }
            };
            if let Some(pair) = described {
                telemetry::record_decision(event, pair, Some(profit), detail.to_string());
            }
        }
    }
    stats.commit_time = commit_span.stop();
    (records, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A toy source over abstract "functions" 0..n with fixed pairwise
    /// profits: groups are (host, [host+1..n]) in order, a commit consumes
    /// both endpoints.
    struct ToySource {
        n: usize,
        /// Announce every pair for up-front scoring (the cross-module
        /// pattern) instead of leaving them to the commit loop.
        announce: bool,
        profit: fn(usize, usize) -> i64,
        cursor: usize,
        consumed: HashSet<usize>,
        observed: usize,
        hazard_on: Option<(usize, usize)>,
        hazards: usize,
        /// Placement policy under test: `from -> to` key rewrite.
        place_swap: Option<((usize, usize), (usize, usize))>,
        /// Pairs the admissible pre-filter (under test) rejects.
        prefilter_on: HashSet<(usize, usize)>,
        /// Pair whose scoring panics (isolation under test).
        panic_score_on: Option<(usize, usize)>,
        /// Pair whose commit panics (isolation under test).
        panic_commit_on: Option<(usize, usize)>,
        /// Pair whose commit reports an oracle fuel timeout.
        timeout_on: Option<(usize, usize)>,
    }

    impl ToySource {
        fn new(n: usize, profit: fn(usize, usize) -> i64) -> ToySource {
            ToySource {
                n,
                announce: false,
                profit,
                cursor: 0,
                consumed: HashSet::new(),
                observed: 0,
                hazard_on: None,
                hazards: 0,
                place_swap: None,
                prefilter_on: HashSet::new(),
                panic_score_on: None,
                panic_commit_on: None,
                timeout_on: None,
            }
        }
    }

    impl CandidateSource for ToySource {
        type Key = (usize, usize);
        type Score = i64;
        type Record = (usize, usize, i64);

        fn speculative_keys(&self) -> Vec<(usize, usize)> {
            if !self.announce {
                return Vec::new();
            }
            (0..self.n)
                .flat_map(|a| (a + 1..self.n).map(move |b| (a, b)))
                .collect()
        }

        fn place(&self, key: (usize, usize)) -> (usize, usize) {
            match self.place_swap {
                Some((from, to)) if key == from => to,
                _ => key,
            }
        }

        fn prefilter_enabled(&self) -> bool {
            true
        }

        fn prefilter(&self, key: &(usize, usize)) -> bool {
            self.prefilter_on.contains(key)
        }

        fn score(&self, key: &(usize, usize)) -> Option<i64> {
            if self.panic_score_on == Some(*key) {
                panic!("score exploded on {key:?}");
            }
            let p = (self.profit)(key.0, key.1);
            (p != i64::MIN).then_some(p)
        }

        fn profit(score: &i64) -> i64 {
            *score
        }

        fn next_group(&mut self) -> Option<Vec<(usize, usize)>> {
            while self.cursor < self.n {
                let host = self.cursor;
                self.cursor += 1;
                if self.consumed.contains(&host) {
                    continue;
                }
                let group: Vec<(usize, usize)> = (host + 1..self.n)
                    .filter(|b| !self.consumed.contains(b))
                    .map(|b| (host, b))
                    .collect();
                return Some(group);
            }
            None
        }

        fn observe(&mut self, _key: &(usize, usize), _score: &i64) {
            self.observed += 1;
        }

        fn hazard(&mut self, key: &(usize, usize), _score: &i64) -> Option<&'static str> {
            if self.hazard_on == Some(*key) {
                self.hazards += 1;
                return Some("toy hazard");
            }
            None
        }

        fn commit(
            &mut self,
            key: (usize, usize),
            score: i64,
        ) -> CommitOutcome<(usize, usize, i64)> {
            if self.panic_commit_on == Some(key) {
                panic!("commit exploded on {key:?}");
            }
            if self.timeout_on == Some(key) {
                return CommitOutcome::OracleTimeout;
            }
            self.consumed.insert(key.0);
            self.consumed.insert(key.1);
            CommitOutcome::Committed((key.0, key.1, score))
        }
    }

    fn toy_profit(a: usize, b: usize) -> i64 {
        match (a, b) {
            (0, 2) => 10,
            (0, 1) => 5,
            (1, 3) => 7,
            _ => -1,
        }
    }

    #[test]
    fn hazard_hook_blocks_the_winner_without_consuming_it() {
        let mut source = ToySource::new(4, toy_profit);
        source.hazard_on = Some((0, 2));
        let (records, _) = run_plan(&mut source);
        // (0,2) is vetoed; 0's group picks nothing else... (0,1) has profit 5
        // but loses to the vetoed 10 inside the group — the engine commits at
        // most the single best of each group, so host 0 commits nothing and
        // (1,3) still goes through.
        assert_eq!(records, vec![(1, 3, 7)]);
        assert_eq!(source.hazards, 1);
    }

    #[test]
    fn place_hook_rewrites_keys_in_both_scoring_phases() {
        // The policy re-places the 10-profit pair (0,2) as (2,0), which the
        // profit table rejects — so the engine must commit (0,1) instead, and
        // the up-front scores must be keyed by *placed* keys (no inline
        // re-score in the commit loop).
        let mut source = ToySource::new(4, toy_profit);
        source.announce = true;
        source.place_swap = Some(((0, 2), (2, 0)));
        let (records, stats) = run_plan(&mut source);
        assert_eq!(records, vec![(0, 1, 5)]);
        assert_eq!(stats.speculative_scores, 6);
        assert_eq!(
            stats.inline_scores, 0,
            "placed keys must hit the up-front scores"
        );
    }

    #[test]
    fn prefiltered_pairs_are_never_scored() {
        let mut source = ToySource::new(4, toy_profit);
        // Reject the unprofitable tail pairs; the winners must survive.
        source.prefilter_on = [(0, 3), (2, 3)].into_iter().collect();
        let (records, stats) = run_plan(&mut source);
        assert_eq!(records, vec![(0, 2, 10), (1, 3, 7)]);
        // Only commit-group members are checked: host 0's three pairs and
        // (1, 3). (2, 3) never reaches a group, host 2 being consumed before
        // its group forms.
        assert_eq!(stats.prefilter_checked, 4);
        assert_eq!(stats.prefilter_rejected, 1);
        assert_eq!(stats.inline_scores, 3);
        assert_eq!(source.observed, 3);
        assert_eq!(stats.candidates, 3);
    }

    #[test]
    fn announced_pairs_are_prefiltered_and_scored_once() {
        let mut source = ToySource::new(4, toy_profit);
        source.announce = true;
        source.prefilter_on = [(0, 3), (2, 3)].into_iter().collect();
        let (records, stats) = run_plan(&mut source);
        assert_eq!(records, vec![(0, 2, 10), (1, 3, 7)]);
        // Each announced pair is checked once, up front: the commit loop
        // neither re-checks the scored pairs nor the rejected (0, 3).
        assert_eq!(stats.prefilter_checked, 6);
        assert_eq!(stats.prefilter_rejected, 2);
        assert_eq!(stats.speculative_scores, 4);
        assert_eq!(stats.inline_scores, 0);
        assert_eq!(stats.candidates, 3);
    }

    #[test]
    fn panics_are_isolated_to_one_pair() {
        // (0, 2) — the best pair — panics during scoring. The run must
        // complete, count one internal error, and still commit the rest.
        let mut source = ToySource::new(4, toy_profit);
        source.panic_score_on = Some((0, 2));
        let (records, stats) = run_plan(&mut source);
        // With (0, 2) gone, host 0's group winner is (0, 1); (1, 3) then
        // loses its endpoint, leaving (2, 3) — unprofitable. One commit.
        assert_eq!(records, vec![(0, 1, 5)]);
        assert_eq!(stats.internal_errors, 1);

        // A commit-time panic instead loses only the winner: (0, 2)'s
        // endpoints stay live but its group is spent, so (1, 3) still lands.
        let mut source = ToySource::new(4, toy_profit);
        source.panic_commit_on = Some((0, 2));
        let (records, stats) = run_plan(&mut source);
        assert_eq!(records, vec![(1, 3, 7)]);
        assert_eq!(stats.internal_errors, 1);
    }

    #[test]
    fn an_up_front_scoring_panic_counts_though_no_group_reaches_it() {
        // (2, 3) is scored up front but never reaches a group: both of its
        // endpoints are consumed first. Its panic still costs one pair.
        let mut source = ToySource::new(4, toy_profit);
        source.announce = true;
        source.panic_score_on = Some((2, 3));
        let (records, stats) = run_plan(&mut source);
        assert_eq!(records, vec![(0, 2, 10), (1, 3, 7)]);
        assert_eq!(stats.speculative_scores, 6);
        assert_eq!(stats.internal_errors, 1);
    }

    #[test]
    fn oracle_timeout_is_counted_not_committed() {
        let mut source = ToySource::new(4, toy_profit);
        source.timeout_on = Some((0, 2));
        let (records, stats) = run_plan(&mut source);
        assert_eq!(records, vec![(1, 3, 7)]);
        assert_eq!(stats.oracle_timeouts, 1);
        assert_eq!(stats.internal_errors, 0);
    }

    #[test]
    fn absorb_accumulates_rounds_and_counters() {
        let mut total = PlanStats::default();
        let mut one = PlanStats {
            rounds: 1,
            candidates: 3,
            speculative_scores: 2,
            memo_hits: 1,
            ..PlanStats::default()
        };
        total.absorb(&one);
        one.candidates = 5;
        total.absorb(&one);
        assert_eq!(total.rounds, 2);
        assert_eq!(total.candidates, 8);
        assert_eq!(total.speculative_scores, 4);
        assert_eq!(total.memo_hits, 2);
    }
}
