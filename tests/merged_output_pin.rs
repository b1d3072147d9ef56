//! Byte-identity pin of merged output, and the exact gate on pipeline work.
//!
//! The planner-equivalence suite compares the driver with a reference loop
//! that shares its pair-merging machinery, so a change that alters merged
//! code in both the same way passes it. This suite compares the printed
//! merged IR of three fixed inputs, and the reports' commit and pairs-scored
//! counts, with constants captured from a known-good build. A pass rewrite
//! that is meant to change only the cost of the pipeline (never its output)
//! must leave every output constant here as it is; a change that is meant to
//! alter merged code recaptures them from the `actual` values the failure
//! message prints.
//!
//! The corpus pins also pin the work their run did: DP cells (of every
//! traceback run, commit re-alignments included), traceback and score-only
//! alignment runs, and pre-filter checks and rejections. The
//! schedule, not the core count, decides which pairs are scored, so these
//! counts repeat exactly for a seed and, unlike wall time, can be gated
//! exactly. A change that means to alter the work recaptures them the same
//! way. Counts that scoring workers can race on (class-table builds,
//! structural-key lookups) are not pinned.
//!
//! The fixpoint pin also pins the run's decision log, sequence numbers
//! included, which the interleaved intra passes write from several threads.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use salssa::{merge_module, merge_pair, DriverConfig, MergeOptions, SalSsaMerger};
use ssa_ir::{print_function, print_module, Module};
use std::sync::{Mutex, MutexGuard};
use workloads::{generate_function, make_clone, CorpusSpec, Divergence, FunctionSpec, PerfTier};
use xmerge::{xmerge_corpus, FixpointConfig, HostPolicy, XMergeConfig};

/// Runs the tests of this file one at a time: the fixpoint pin turns the
/// process-wide decision log on, and a run beside it would write into it.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// FNV-1a, 64-bit: a std-only, platform-independent hash of printed IR.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn hash_modules(modules: &[Module]) -> u64 {
    let mut hash = FNV_OFFSET;
    for module in modules {
        fnv1a(&mut hash, print_module(module).as_bytes());
    }
    hash
}

/// `(output hash, commits, pairs scored)` of one pinned input.
type Pin = (u64, usize, usize);

fn assert_pin(what: &str, actual: Pin, expected: Pin) {
    assert_eq!(
        actual, expected,
        "{what}: merged output changed (actual = {actual:#x?}, expected = {expected:#x?})"
    );
}

/// `(DP cells, traceback runs, score-only runs, pre-filter checks, pre-filter
/// rejections)` of one pinned run.
type Work = (u64, u64, u64, usize, usize);

fn assert_work(what: &str, actual: Work, expected: Work) {
    assert_eq!(
        actual, expected,
        "{what}: pipeline work changed (actual = {actual:?}, expected = {expected:?})"
    );
}

#[test]
fn perf_tier_s_xmerge_output_is_pinned() {
    let _serial = serial();
    let mut modules = PerfTier::S.spec().generate();
    let report = xmerge_corpus(&mut modules, &XMergeConfig::new());
    let actual = (
        hash_modules(&modules),
        report.num_commits() + report.num_intra_merges(),
        report.planner.speculative_scores + report.planner.inline_scores,
    );
    assert_pin(
        "PerfTier::S xmerge",
        actual,
        (0x11de_6b46_e1e7_d461, 24, 131),
    );
    let work = (
        report.align_cells,
        report.align_full_runs,
        report.align_score_only_runs,
        report.planner.prefilter_checked,
        report.planner.prefilter_rejected,
    );
    // Three pairs repeat an ODR-duplicated body another module's copy of
    // which was scored first; the memo scores each of them once. The cells
    // are those of all 148 traceback runs, the commits' re-alignments
    // included (the scoring alignments alone come to 179,251).
    assert_work("PerfTier::S xmerge", work, (186_963, 148, 54, 131, 0));
    assert_eq!(report.planner.memo_hits, 3, "PerfTier::S xmerge memo hits");
}

#[test]
fn spec2006_quarter_scale_intra_output_is_pinned() {
    let _serial = serial();
    // The `salssa merge` defaults.
    let merger = SalSsaMerger::default();
    let config = DriverConfig::default();
    let mut modules = Vec::new();
    let (mut commits, mut pairs) = (0, 0);
    let mut work: Work = (0, 0, 0, 0, 0);
    for spec in workloads::scale(workloads::spec2006(), 0.25) {
        let mut module = spec.generate();
        let report = merge_module(&mut module, &merger, &config);
        commits += report.committed.len();
        pairs += report.planner.speculative_scores + report.planner.inline_scores;
        work.0 += report.total_cells;
        work.1 += report.align_full_runs;
        work.2 += report.align_score_only_runs;
        work.3 += report.planner.prefilter_checked;
        work.4 += report.planner.prefilter_rejected;
        modules.push(module);
    }
    let actual = (hash_modules(&modules), commits, pairs);
    assert_pin(
        "spec2006 x0.25 intra",
        actual,
        (0x8159_c21b_cb66_fc59, 20, 170),
    );
    assert_work("spec2006 x0.25 intra", work, (2_454_220, 170, 18, 170, 0));
}

#[test]
fn thousand_instruction_pair_output_is_pinned() {
    let _serial = serial();
    let mut rng = SmallRng::seed_from_u64(1000);
    let spec = FunctionSpec {
        name: "pin_base".to_string(),
        size: 1000,
        ..FunctionSpec::default()
    };
    let base = generate_function(&spec, &mut rng);
    let clone = make_clone(
        &base,
        "pin_clone",
        Divergence::medium(),
        &mut rng,
        &spec.callees,
    );
    let merge = merge_pair(&base, &clone, &MergeOptions::default(), "pin_merged")
        .expect("the clone pair must merge");
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, print_function(&merge.merged).as_bytes());
    // One pair, one merge: the count slots carry the merged size and the
    // phis SSA repair inserted instead.
    let actual = (hash, merge.merged_size(), merge.repair.phis_inserted);
    assert_pin(
        "1000-instruction pair",
        actual,
        (0x7a29_28b8_5bec_9bd9, 1322, 84),
    );
}

/// Runs `xmerge_corpus` with the decision log on. Returns the report, the
/// output and work counts, and the FNV-1a hash of the log's JSONL, numbered
/// from 0 as in a `salssa xmerge --decisions-out` process.
fn logged_xmerge(
    modules: &mut [Module],
    config: &XMergeConfig,
) -> (xmerge::CorpusMergeReport, Pin, Work, u64) {
    let _ = telemetry::take_decisions();
    telemetry::set_decisions(true);
    let report = xmerge_corpus(modules, config);
    telemetry::set_decisions(false);
    let mut decisions = telemetry::take_decisions();
    let first = decisions.first().map_or(0, |d| d.seq);
    for decision in &mut decisions {
        decision.seq -= first;
    }
    let mut log_hash = FNV_OFFSET;
    fnv1a(
        &mut log_hash,
        telemetry::decisions::to_jsonl(&decisions).as_bytes(),
    );
    let pin = (
        hash_modules(modules),
        report.num_commits() + report.num_intra_merges(),
        report.planner.speculative_scores + report.planner.inline_scores,
    );
    let work = (
        report.align_cells,
        report.align_full_runs,
        report.align_score_only_runs,
        report.planner.prefilter_checked,
        report.planner.prefilter_rejected,
    );
    (report, pin, work, log_hash)
}

/// The benchmark's fixpoint configuration (`salssa xmerge --fixpoint
/// --check-semantics --oracle-fuel 100000 --host-policy callgraph`) on a
/// small call-heavy corpus: three rounds, oracle timeouts that later rounds
/// score again, and interleaved intra passes on every module.
#[test]
fn call_heavy_fixpoint_output_and_decisions_are_pinned() {
    let _serial = serial();
    let mut modules = CorpusSpec {
        seed: 21,
        ..CorpusSpec::call_heavy()
    }
    .generate();
    let fuel = Some(100_000);
    let intra = DriverConfig::default()
        .with_check_semantics(true)
        .with_oracle_fuel(fuel);
    let config = XMergeConfig::new()
        .with_check_semantics(true)
        .with_oracle_fuel(fuel)
        .with_host_policy(HostPolicy::CallGraph)
        .with_fixpoint(FixpointConfig {
            intra: Some(intra),
            ..FixpointConfig::default()
        });
    let (report, pin, work, log_hash) = logged_xmerge(&mut modules, &config);
    assert_pin("call-heavy fixpoint", pin, (0x171a_68fc_87c4_06c2, 16, 126));
    assert_eq!(
        log_hash, 0x4f30_3990_a973_be5c,
        "call-heavy fixpoint: the decision log changed (actual = {log_hash:#x})"
    );
    // Cells of all 113 traceback runs, commit re-alignments included (the
    // scoring alignments alone come to 246,477).
    assert_work("call-heavy fixpoint", work, (264_978, 113, 33, 166, 40));
    assert_eq!(
        report.planner.memo_hits, 28,
        "call-heavy fixpoint memo hits"
    );
}

/// A fixpoint run whose intra passes commit: the 19 spec2006 ×0.1 modules
/// as one corpus under `salssa xmerge --fixpoint`. No pair crosses modules;
/// each round's passes run side by side and commit, and the next round's
/// passes meet the pairs the last ones left.
#[test]
fn spec2006_fixpoint_intra_commits_and_decisions_are_pinned() {
    let _serial = serial();
    let mut modules: Vec<Module> = workloads::scale(workloads::spec2006(), 0.1)
        .iter()
        .map(|spec| spec.generate())
        .collect();
    let config = XMergeConfig::new().with_fixpoint(FixpointConfig::default());
    let (report, pin, work, log_hash) = logged_xmerge(&mut modules, &config);
    assert_pin(
        "spec2006 x0.1 fixpoint",
        pin,
        (0xb11a_c3ce_a3fc_69cf, 7, 290),
    );
    assert_eq!(
        log_hash, 0xc835_e178_bb6b_1610,
        "spec2006 x0.1 fixpoint: the decision log changed (actual = {log_hash:#x})"
    );
    // The parent of the score memo merged all 290 pairs: (4_670_218, 290,
    // 8, 290, 0). Rounds 2 and 3 meet 127 pairs again.
    assert_work("spec2006 x0.1 fixpoint", work, (2_645_052, 163, 8, 290, 0));
    assert_eq!(
        report.planner.memo_hits, 127,
        "spec2006 x0.1 fixpoint memo hits"
    );
}
