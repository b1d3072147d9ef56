//! `salssa perf` — the standardized performance-regression harness.
//!
//! Generates a pinned corpus tier ([`workloads::PerfTier`]: fixed seed and
//! shape, cleaned like `gen-corpus --clean`) in-process, runs the
//! cross-module pipeline with allocation tracking on, and appends one
//! machine-readable JSON object line to `BENCH_xmerge.json`: wall time,
//! allocator peak, `VmHWM`, commit counts, and the counters of the report's
//! `telemetry` block (alignment tiers, banding, pre-filter, class-table and
//! structural-cache hits). Every entry embeds the corpus manifest, so it is
//! exactly reproducible.
//!
//! With `--baseline <file>` the run becomes a gate: wall time must stay
//! within a generous multiplicative band of the baseline (CI machines vary;
//! the band is soft in the sense of wide, not advisory), the allocator peak
//! must stay under a *hard* ceiling, and the commit count must match exactly
//! (the pipeline is deterministic). Any violation exits nonzero.
//! `--update-baseline` rewrites the baseline from this run instead.

use crate::{emit, xmerge_config, Cli};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;
use telemetry::jsonv::{parse_json, JsonValue};

/// Default multiplicative wall-time band written into fresh baselines. Wide
/// on purpose: the gate is meant to catch order-of-magnitude regressions
/// (accidental O(n²), lost caching), not scheduler noise across CI runners.
const DEFAULT_WALL_TOLERANCE: f64 = 20.0;

/// Headroom factor applied to the measured allocator peak when writing a
/// baseline ceiling. Scoring batches run one after another, but each batch
/// scores one pair per core at a time, so the peak grows with the core count
/// (more trial merges live at once); the ceiling must hold on machines with
/// more cores than the one that wrote it.
const PEAK_CEILING_HEADROOM: f64 = 2.5;

pub(crate) fn run_perf(cli: &Cli) -> ExitCode {
    let spec = cli.tier.spec();
    let mut base_modules = spec.generate();
    // Mirror `gen-corpus --clean`: the paper merges already-optimized IR, so
    // the measured pipeline carries no cleanup slack.
    for module in &mut base_modules {
        for function in module.functions_mut() {
            ssa_passes::cleanup_function(function);
        }
    }
    let functions: usize = base_modules.iter().map(ssa_ir::Module::num_functions).sum();
    let config = xmerge_config(cli);
    telemetry::set_alloc_tracking(true);

    let runs = cli.runs.max(1);
    let mut walls: Vec<f64> = Vec::with_capacity(runs);
    let mut peak_alloc_bytes = 0u64;
    let mut last: Option<(xmerge::CorpusMergeReport, telemetry::AllocSnapshot)> = None;
    for _ in 0..runs {
        let mut modules = base_modules.clone();
        // Re-arm both high-water marks so each run measures its own peak.
        // (VmHWM reset needs a writable /proc/self/clear_refs; where it is
        // denied, VmHWM stays monotone across runs — still a valid bound.)
        telemetry::reset_alloc_peak();
        telemetry::reset_peak_rss();
        let start = Instant::now();
        let report = xmerge::xmerge_corpus(&mut modules, &config);
        walls.push(start.elapsed().as_secs_f64());
        let snap = telemetry::alloc_snapshot();
        peak_alloc_bytes = peak_alloc_bytes.max(snap.peak_bytes);
        last = Some((report, snap));
    }
    let (report, snap) = last.expect("runs >= 1");
    // The gate compares the fastest run: it is the closest observable to the
    // workload's intrinsic cost, with the least scheduler noise.
    let wall_seconds = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let vm_hwm = telemetry::peak_rss_bytes();
    let vm_rss = telemetry::current_rss_bytes();

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let walls_json: Vec<String> = walls.iter().map(|w| format!("{w:.6}")).collect();
    // The counters of the report's `telemetry` block. Every run is
    // deterministic, so the last one's report speaks for all.
    let counters_json: Vec<String> = xmerge::corpus_telemetry_counters(&report)
        .iter()
        .map(|(name, value)| format!(r#""{name}":{value}"#))
        .collect();
    let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
    let entry = format!(
        concat!(
            r#"{{"kind":"perf","schema":1,"unix_time":{},"tier":"{}","manifest":{},"#,
            r#""runs":{},"wall_seconds":{:.6},"wall_seconds_all":[{}],"#,
            r#""modules":{},"functions":{},"candidates":{},"commits":{},"merges":{},"odr_dedups":{},"#,
            r#""size_before_bytes":{},"size_after_bytes":{},"#,
            r#""peak_alloc_bytes":{},"current_alloc_bytes":{},"total_alloc_bytes":{},"#,
            r#""allocs":{},"deallocs":{},"vm_hwm_bytes":{},"vm_rss_bytes":{},"#,
            r#""structural_cache_hit_rate":{:.4},"counters":{{{}}}}}"#
        ),
        unix_time,
        cli.tier.name(),
        spec.manifest_json(),
        runs,
        wall_seconds,
        walls_json.join(","),
        report.modules,
        functions,
        report.candidates,
        report.num_commits(),
        report.num_merges(),
        report.num_commits() - report.num_merges(),
        report.size_before,
        report.size_after,
        peak_alloc_bytes,
        snap.current_bytes,
        snap.total_alloc_bytes,
        snap.allocs,
        snap.deallocs,
        opt(vm_hwm),
        opt(vm_rss),
        report.cache_hit_rate(),
        counters_json.join(",")
    );

    let bench_path = cli.bench_out.as_deref().unwrap_or("BENCH_xmerge.json");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(bench_path)
        .and_then(|mut f| writeln!(f, "{entry}"));
    if let Err(e) = appended {
        eprintln!("error: cannot append to {bench_path}: {e}");
        return ExitCode::FAILURE;
    }

    let human = emit(|out| {
        writeln!(
            out,
            "perf {}: {} modules / {} functions, {} commits ({} merges), fastest of {} run(s): {:.3}s",
            cli.tier.name(),
            report.modules,
            functions,
            report.num_commits(),
            report.num_merges(),
            runs,
            wall_seconds
        )?;
        writeln!(
            out,
            "resources: peak alloc {} ({} allocations), VmHWM {}",
            human_bytes(peak_alloc_bytes),
            snap.allocs,
            vm_hwm.map_or_else(|| "n/a".to_string(), human_bytes)
        )?;
        writeln!(out, "bench entry appended to {bench_path}")?;
        Ok(())
    });
    if human != ExitCode::SUCCESS {
        return human;
    }

    match &cli.baseline {
        Some(path) if cli.update_baseline => {
            let baseline = format!(
                concat!(
                    r#"{{"kind":"perf-baseline","tier":"{}","wall_seconds":{:.6},"#,
                    r#""wall_tolerance":{},"peak_alloc_bytes_ceiling":{},"commits":{}}}"#,
                    "\n"
                ),
                cli.tier.name(),
                wall_seconds,
                DEFAULT_WALL_TOLERANCE,
                (peak_alloc_bytes as f64 * PEAK_CEILING_HEADROOM) as u64,
                report.num_commits()
            );
            if let Err(e) = std::fs::write(path, baseline) {
                eprintln!("error: cannot write baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("baseline updated: {path}");
            ExitCode::SUCCESS
        }
        Some(path) => gate(
            path,
            cli.tier.name(),
            wall_seconds,
            peak_alloc_bytes,
            report.num_commits(),
        ),
        None => ExitCode::SUCCESS,
    }
}

/// Compares one measured run against a checked-in baseline. Every violation
/// is reported (not just the first) before the nonzero exit.
fn gate(
    path: &str,
    tier: &str,
    wall_seconds: f64,
    peak_alloc_bytes: u64,
    commits: usize,
) -> ExitCode {
    let baseline = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_json(&text).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: cannot read baseline {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let field = |key: &str| baseline.get(key).and_then(JsonValue::as_f64);
    let Some(base_wall) = field("wall_seconds") else {
        eprintln!("error: baseline {path} has no wall_seconds");
        return ExitCode::from(2);
    };
    let tolerance = field("wall_tolerance").unwrap_or(DEFAULT_WALL_TOLERANCE);
    let mut failures: Vec<String> = Vec::new();
    if let Some(base_tier) = baseline.get("tier").and_then(JsonValue::as_str) {
        if base_tier != tier {
            failures.push(format!(
                "tier mismatch: baseline is {base_tier}, this run is {tier}"
            ));
        }
    }
    let wall_limit = base_wall * tolerance;
    if wall_seconds > wall_limit {
        failures.push(format!(
            "wall time {wall_seconds:.3}s exceeds {wall_limit:.3}s \
             (baseline {base_wall:.3}s x tolerance {tolerance})"
        ));
    }
    if let Some(ceiling) = baseline
        .get("peak_alloc_bytes_ceiling")
        .and_then(JsonValue::as_u64)
    {
        if peak_alloc_bytes > ceiling {
            failures.push(format!(
                "allocator peak {peak_alloc_bytes} bytes exceeds the hard ceiling {ceiling}"
            ));
        }
    }
    if let Some(base_commits) = baseline.get("commits").and_then(JsonValue::as_u64) {
        if commits as u64 != base_commits {
            failures.push(format!(
                "commit count {commits} differs from baseline {base_commits} \
                 (the pipeline is deterministic; this is a behavior change)"
            ));
        }
    }
    if failures.is_empty() {
        println!("perf gate passed against {path}");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("perf gate FAILED: {f}");
        }
        ExitCode::FAILURE
    }
}

fn human_bytes(b: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    if b >= MIB {
        format!("{:.2}MiB", b as f64 / MIB as f64)
    } else if b >= KIB {
        format!("{:.1}KiB", b as f64 / KIB as f64)
    } else {
        format!("{b}B")
    }
}
