//! Machine-readable reports.
//!
//! Hand-rolled JSON emission (the build environment vendors no serde): the
//! `salssa report --json` and `salssa xmerge --json` outputs feed the
//! BENCH_*.json trajectory tracking, so the schema here is append-only —
//! add fields, never rename them.

use crate::pipeline::CorpusMergeReport;
use fm_align::AlignTally;
use salssa::{ModuleMergeReport, PlanStats};
use std::time::Duration;
use telemetry::{json_escape, Histogram};

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1000.0)
}

fn pct(before: usize, after: usize) -> String {
    format!(
        "{:.2}",
        100.0 * before.saturating_sub(after) as f64 / before.max(1) as f64
    )
}

/// Serializes the planner-engine statistics shared by both report schemas.
/// `oracle_carried` and `hazard_reuse` are retired counters, emitted as
/// constant zeros because the schema is append-only. `memo_hits` is 0 in
/// the `merge` schema: a single-module merge keeps no score memo.
fn planner_json(stats: &PlanStats) -> String {
    format!(
        r#"{{"candidates":{},"speculative_scores":{},"inline_scores":{},"rounds":{},"score_ms":{},"commit_ms":{},"oracle_links":{},"oracle_carried":0,"hazard_reuse":0,"internal_errors":{},"oracle_timeouts":{},"memo_hits":{}}}"#,
        stats.candidates,
        stats.speculative_scores,
        stats.inline_scores,
        stats.rounds,
        ms(stats.score_time),
        ms(stats.commit_time),
        stats.oracle_links,
        stats.internal_errors,
        stats.oracle_timeouts,
        stats.memo_hits
    )
}

/// Serializes the `recovery` block shared by both report schemas: how much
/// graceful degradation the error-recovering frontend had to apply while
/// loading the input(s). All-zero on clean inputs.
fn recovery_json(functions_skipped: usize, modules_recovered: usize) -> String {
    format!(
        r#"{{"functions_skipped":{functions_skipped},"modules_recovered":{modules_recovered}}}"#
    )
}

/// Serializes the `alignment` stats block shared by both report schemas:
/// live vs. modelled-full-matrix peaks, cells, trim savings, tier counts and
/// the banding counters of the linear-space alignment engine. The nested
/// `band` object is append-only like the rest of the schema.
#[allow(clippy::too_many_arguments)]
fn alignment_json(
    peak_live: u64,
    peak_full: u64,
    cells: u64,
    trimmed: u64,
    score_only: u64,
    full: u64,
    band_runs: u64,
    band_saturations: u64,
) -> String {
    format!(
        r#"{{"peak_live_bytes":{peak_live},"peak_full_matrix_bytes":{peak_full},"cells":{cells},"trimmed_entries":{trimmed},"score_only_runs":{score_only},"full_runs":{full},"band":{{"runs":{band_runs},"saturations":{band_saturations}}}}}"#
    )
}

/// Serializes the `prefilter` block shared by both report schemas: how many
/// candidate pairs the admissible profit pre-filter examined and how many it
/// proved unprofitable before codegen-based scoring.
fn prefilter_json(stats: &PlanStats) -> String {
    format!(
        r#"{{"checked":{},"rejected":{}}}"#,
        stats.prefilter_checked, stats.prefilter_rejected
    )
}

/// The counters of the `telemetry` block, in the block's (name) order: the
/// run's own report values under the metric names the block has always
/// carried. Every `align_*`, planner and commit count is the run's own; the
/// structural-key pair is a delta of process-wide counters.
/// `fm_align.full_matrix_runs` is always 0: no merge path runs the quadratic
/// reference tier.
fn telemetry_counters(
    alignments: &AlignTally,
    trimmed_entries: u64,
    planner: &PlanStats,
    commits: u64,
    structural_keys: (u64, u64),
) -> [(&'static str, u64); 15] {
    [
        ("fm_align.band.runs", alignments.band_runs),
        ("fm_align.band.saturations", alignments.band_saturations),
        ("fm_align.class_table.hits", alignments.class_table_hits),
        ("fm_align.class_table.misses", alignments.class_table_misses),
        ("fm_align.full_matrix_runs", 0),
        ("fm_align.full_runs", alignments.full_runs),
        ("fm_align.score_only_runs", alignments.score_only_runs),
        ("fm_align.trimmed_entries", trimmed_entries),
        ("plan.commits", commits),
        ("plan.internal_errors", planner.internal_errors as u64),
        ("plan.oracle.timeouts", planner.oracle_timeouts as u64),
        ("plan.prefilter.checked", planner.prefilter_checked as u64),
        ("plan.prefilter.rejected", planner.prefilter_rejected as u64),
        ("ssa_ir.structural_key.hits", structural_keys.0),
        ("ssa_ir.structural_key.misses", structural_keys.1),
    ]
}

/// The `telemetry` counters of a corpus run (see [`corpus_report_json`]).
fn corpus_telemetry_counters(report: &CorpusMergeReport) -> [(&'static str, u64); 15] {
    telemetry_counters(
        &report.alignments(),
        report.align_trimmed_entries,
        &report.planner,
        (report.num_commits() + report.num_intra_merges()) as u64,
        (report.cache_hits, report.cache_misses),
    )
}

/// Serializes the `telemetry` block shared by both report schemas: the
/// counters of [`telemetry_counters`], no gauges, and the distributions of
/// aligned sequence lengths and committed profits. The shape and names are
/// append-only.
fn telemetry_json(
    counters: &[(&str, u64)],
    align_lengths: &Histogram,
    commit_profits: &Histogram,
) -> String {
    let counters: Vec<String> = counters
        .iter()
        .map(|(name, value)| format!(r#""{name}":{value}"#))
        .collect();
    format!(
        r#"{{"counters":{{{}}},"gauges":{{}},"histograms":{{"fm_align.alignment_length":{},"plan.commit_profit":{}}}}}"#,
        counters.join(","),
        align_lengths.to_json(),
        commit_profits.to_json()
    )
}

/// The distribution of committed profits (bytes saved per commit).
fn profits(records: impl Iterator<Item = i64>) -> Histogram {
    records.map(|p| p.max(0) as u64).collect()
}

/// Serializes the `resources` block shared by both report schemas: a
/// point-in-time snapshot of the counting allocator (live/peak heap bytes,
/// allocation counts — all zero while tracking is off) and the process RSS
/// readings from `/proc` (`null` on platforms without procfs). Append-only.
fn resources_json() -> String {
    let snap = telemetry::alloc_snapshot();
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    format!(
        r#"{{"alloc_tracking":{},"current_alloc_bytes":{},"peak_alloc_bytes":{},"total_alloc_bytes":{},"allocs":{},"deallocs":{},"vm_hwm_bytes":{},"vm_rss_bytes":{}}}"#,
        snap.tracking,
        snap.current_bytes,
        snap.peak_bytes,
        snap.total_alloc_bytes,
        snap.allocs,
        snap.deallocs,
        opt(telemetry::peak_rss_bytes()),
        opt(telemetry::current_rss_bytes())
    )
}

/// Serializes the `diagnostics` block shared by both report schemas:
/// paranoid-mode verdicts (delta diagnostics by severity and code) plus the
/// analysis engine's cache statistics.
fn diagnostics_json(
    paranoid: bool,
    checks: usize,
    delta: &[analysis::Diagnostic],
    stats: &analysis::AnalysisStats,
) -> String {
    let (errors, warnings, lints) = analysis::count_severities(delta);
    let by_code: Vec<String> = analysis::count_by_code(delta)
        .iter()
        .map(|(code, n)| format!(r#""{code}":{n}"#))
        .collect();
    let delta_objs: Vec<String> = delta.iter().map(analysis::Diagnostic::json).collect();
    format!(
        r#"{{"paranoid":{},"checks":{},"delta_count":{},"errors":{},"warnings":{},"lints":{},"by_code":{{{}}},"delta":[{}],"cache_hits":{},"cache_misses":{},"cache_hit_rate":{:.4},"analysis_ms":{}}}"#,
        paranoid,
        checks,
        delta.len(),
        errors,
        warnings,
        lints,
        by_code.join(","),
        delta_objs.join(","),
        stats.cache_hits,
        stats.cache_misses,
        stats.hit_rate(),
        ms(stats.elapsed)
    )
}

/// Serializes one intra-module [`ModuleMergeReport`] plus the surrounding
/// size measurements (the `salssa report` / `salssa merge --json` schema).
///
/// Schema note: the legacy top-level `peak_matrix_bytes` key keeps its
/// historical meaning — the footprint of the *full* score matrix (what the
/// engine used to allocate, and what trajectory tracking has recorded so
/// far) — so existing consumers keep comparing like with like. The actual
/// live footprint of the linear-space engine lives in the `alignment` block
/// as `peak_live_bytes`, next to `peak_full_matrix_bytes`.
pub fn merge_report_json(
    input: &str,
    report: &ModuleMergeReport,
    functions: (usize, usize),
    bytes: (usize, usize),
) -> String {
    let committed: Vec<String> = report
        .committed
        .iter()
        .map(|r| {
            format!(
                r#"{{"f1":"{}","f2":"{}","merged":"{}","profit_bytes":{},"coalesced_phi_pairs":{}}}"#,
                json_escape(&r.f1),
                json_escape(&r.f2),
                json_escape(&r.merged_name),
                r.profit_bytes,
                r.coalesced_pairs
            )
        })
        .collect();
    format!(
        r#"{{"kind":"merge","module":"{}","technique":"{}","threshold":{},"attempts":{},"merges":{},"semantic_rejections":{},"functions_before":{},"functions_after":{},"size_before_bytes":{},"size_after_bytes":{},"reduction_percent":{},"total_profit_bytes":{},"align_ms":{},"codegen_ms":{},"peak_matrix_bytes":{},"dp_cells":{},"committed":[{}],"planner":{},"alignment":{},"prefilter":{},"diagnostics":{},"telemetry":{},"resources":{},"recovery":{}}}"#,
        json_escape(input),
        json_escape(&report.technique),
        report.threshold,
        report.attempts,
        report.num_merges(),
        report.semantic_rejections,
        functions.0,
        functions.1,
        bytes.0,
        bytes.1,
        pct(bytes.0, bytes.1),
        report.total_profit_bytes(),
        ms(report.align_time),
        ms(report.codegen_time),
        report.peak_full_matrix_bytes,
        report.total_cells,
        committed.join(","),
        planner_json(&report.planner),
        alignment_json(
            report.peak_matrix_bytes,
            report.peak_full_matrix_bytes,
            report.total_cells,
            report.align_trimmed_entries,
            report.align_score_only_runs,
            report.align_full_runs,
            report.align_band_runs,
            report.align_band_saturations,
        ),
        prefilter_json(&report.planner),
        diagnostics_json(
            report.paranoid,
            report.paranoid_checks,
            &report.paranoid_delta,
            &report.paranoid_stats,
        ),
        telemetry_json(
            &telemetry_counters(
                &report.alignments(),
                report.align_trimmed_entries,
                &report.planner,
                report.num_merges() as u64,
                (report.cache_hits, report.cache_misses),
            ),
            &report.align_lengths,
            &profits(report.committed.iter().map(|r| r.profit_bytes)),
        ),
        resources_json(),
        recovery_json(report.functions_skipped, report.modules_recovered)
    )
}

/// Serializes a whole-corpus [`CorpusMergeReport`] (the `salssa xmerge
/// --json` schema).
pub fn corpus_report_json(report: &CorpusMergeReport) -> String {
    let committed: Vec<String> = report
        .committed
        .iter()
        .map(|r| {
            format!(
                r#"{{"host_module":"{}","donor_module":"{}","f1":"{}","f2":"{}","merged":"{}","profit_bytes":{},"odr_dedup":{},"forced_edges":{},"saved_edges":{}}}"#,
                json_escape(&r.host_module),
                json_escape(&r.donor_module),
                json_escape(&r.f1),
                json_escape(&r.f2),
                json_escape(&r.merged_name),
                r.profit_bytes,
                r.odr_dedup,
                r.forced_edges,
                r.saved_edges
            )
        })
        .collect();
    let per_module: Vec<String> = report
        .per_module
        .iter()
        .map(|m| {
            format!(
                r#"{{"name":"{}","functions_before":{},"functions_after":{},"bytes_before":{},"bytes_after":{},"reduction_percent":{}}}"#,
                json_escape(&m.name),
                m.functions.0,
                m.functions.1,
                m.bytes.0,
                m.bytes.1,
                pct(m.bytes.0, m.bytes.1)
            )
        })
        .collect();
    let round_commits: Vec<String> = report.round_commits.iter().map(usize::to_string).collect();
    let intra: Vec<String> = report
        .intra_committed
        .iter()
        .map(|(module, r)| {
            format!(
                r#"{{"module":"{}","f1":"{}","f2":"{}","merged":"{}","profit_bytes":{}}}"#,
                json_escape(module),
                json_escape(&r.f1),
                json_escape(&r.f2),
                json_escape(&r.merged_name),
                r.profit_bytes
            )
        })
        .collect();
    let region_counts: Vec<String> = report.region_counts.iter().map(usize::to_string).collect();
    format!(
        r#"{{"kind":"xmerge","modules":{},"functions":{},"candidates":{},"attempts":{},"commits":{},"merges":{},"odr_dedups":{},"hazard_skips":{},"semantic_rejections":{},"size_before_bytes":{},"size_after_bytes":{},"reduction_percent":{},"total_profit_bytes":{},"timing_ms":{{"index":{},"discover":{},"score":{},"commit":{},"callgraph":{}}},"committed":[{}],"per_module":[{}],"planner":{},"fixpoint_rounds":{},"round_commits":[{}],"intra_merges":{},"intra_committed":[{}],"structural_cache":{{"hits":{},"misses":{},"hit_rate":{:.4}}},"index_reuse":{{"reused":{},"refreshed":{}}},"host_policy":"{}","cross_module_call_edges_forced":{},"cross_module_call_edges_saved":{},"region_counts":[{}],"call_index_reuse":{{"reused":{},"refreshed":{}}},"alignment":{},"prefilter":{},"diagnostics":{},"telemetry":{},"resources":{},"recovery":{}}}"#,
        report.modules,
        report.functions,
        report.candidates,
        report.attempts,
        report.num_commits(),
        report.num_merges(),
        report.num_commits() - report.num_merges(),
        report.hazard_skips,
        report.semantic_rejections,
        report.size_before,
        report.size_after,
        pct(report.size_before, report.size_after),
        report.total_profit_bytes(),
        ms(report.index_time),
        ms(report.discover_time),
        ms(report.score_time),
        ms(report.commit_time),
        ms(report.callgraph_time),
        committed.join(","),
        per_module.join(","),
        planner_json(&report.planner),
        report.rounds,
        round_commits.join(","),
        report.num_intra_merges(),
        intra.join(","),
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate(),
        report.index_reuse.reused,
        report.index_reuse.refreshed,
        report.host_policy,
        report.forced_cross_edges,
        report.saved_cross_edges,
        region_counts.join(","),
        report.call_index_reuse.reused,
        report.call_index_reuse.refreshed,
        alignment_json(
            report.align_peak_live_bytes,
            report.align_peak_full_matrix_bytes,
            report.align_cells,
            report.align_trimmed_entries,
            report.align_score_only_runs,
            report.align_full_runs,
            report.align_band_runs,
            report.align_band_saturations,
        ),
        prefilter_json(&report.planner),
        diagnostics_json(
            report.paranoid,
            report.paranoid_checks,
            &report.paranoid_delta,
            &report.paranoid_stats,
        ),
        telemetry_json(
            &corpus_telemetry_counters(report),
            &report.align_lengths,
            &profits(
                report
                    .committed
                    .iter()
                    .map(|r| r.profit_bytes)
                    .chain(report.intra_committed.iter().map(|(_, r)| r.profit_bytes)),
            ),
        ),
        resources_json(),
        recovery_json(report.functions_skipped, report.modules_recovered)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_json_is_well_formed_enough_to_eyeball() {
        let report = CorpusMergeReport {
            modules: 2,
            functions: 5,
            ..Default::default()
        };
        let json = corpus_report_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""kind":"xmerge""#));
        assert!(json.contains(r#""modules":2"#));
        assert!(json.contains(r#""committed":[]"#));
        assert!(json.contains(r#""band":{"runs":0,"saturations":0}"#));
        assert!(json.contains(r#""prefilter":{"checked":0,"rejected":0}"#));
        assert!(json.contains(r#""diagnostics":{"paranoid":false,"checks":0,"delta_count":0"#));
        assert!(json.contains(r#""telemetry":{"counters":{"fm_align.band.runs":0,"#));
        assert!(json.contains(r#""plan.internal_errors":0,"plan.oracle.timeouts":0,"#));
        assert!(
            json.contains(r#""gauges":{},"histograms":{"fm_align.alignment_length":{"count":0,"#)
        );
        assert!(json.contains(r#""recovery":{"functions_skipped":0,"modules_recovered":0}"#));
        assert!(json.contains(r#""internal_errors":0,"oracle_timeouts":0,"memo_hits":0}"#));
        // Retired counters stay in the append-only schema as constant zeros.
        assert!(json.contains(r#""oracle_carried":0,"hazard_reuse":0"#));
    }

    #[test]
    fn diagnostics_block_carries_delta_and_counts() {
        let delta = vec![analysis::Diagnostic::new(
            analysis::codes::THUNK_SHAPE,
            "m1",
            "f",
            "bad thunk",
        )];
        let stats = analysis::AnalysisStats {
            cache_hits: 3,
            cache_misses: 1,
            ..Default::default()
        };
        let json = diagnostics_json(true, 7, &delta, &stats);
        assert!(json.contains(r#""paranoid":true,"checks":7,"delta_count":1,"errors":1"#));
        assert!(json.contains(r#""by_code":{"E020":1}"#));
        assert!(json.contains(r#""code":"E020""#));
        assert!(json.contains(r#""cache_hit_rate":0.7500"#));
    }
}
