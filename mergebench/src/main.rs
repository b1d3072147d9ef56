//! `mergebench`: the repository's end-to-end benchmark of function merging.
//!
//! ```text
//! mergebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The workload's `.ll` text is generated from the seed and kept in memory.
//! Fresh child processes, one after another for `--seconds`, each receive
//! the text on stdin, load it the way `salssa` does (`setup_s`), merge it
//! once through the public entry point with the CLI's defaults (`merge_s`,
//! `peak_rss_mb`), then load it a few more times (`setup_s` again); the
//! medians over the processes (for `setup_s`, over all their loads) are
//! reported, with allocation tracking and tracing off. An untimed merge of
//! the same text in this process is checked with the `ssa_interp`
//! interpreter against the unmerged input, which yields
//! `size_reduction_pct`, `runtime_ratio` and `failed_pct`.
//!
//! `--trace 1` is a separate run for the per-layer numbers: a few measuring
//! processes give the reference `merge_s`, then the workload's traffic is
//! replayed through each layer's public function with benchmark-side spans
//! and allocation tracking on (see `replay.rs`). The replay gives self times
//! and allocations; counts come from the program's own reports.
//!
//! Human-readable lines come first, then a `mergebench-detail` line with the
//! manifest, the program's own counts and every sample; the last line of
//! standard output is the result object.

mod check;
mod replay;
mod spans;
mod workload;

use check::CheckReport;
use replay::ReplayCounts;
use spans::{LayerTotals, Tracer};
use ssa_ir::{print_module, Module};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{load, Counts, Inputs, Merged, Workload};

const USAGE: &str =
    "usage: mergebench --workload <xmerge-m|intra-spec2006|xmerge-fixpoint-oracle> [--seed N] [--seconds S] [--trace 0|1]";

/// Measuring processes per run at the least, whatever `--seconds` says.
const MIN_PROCESSES: usize = 3;
/// Loads each measuring process times: the first before its merge, like one
/// `salssa` invocation, the others after the merge and the peak RSS reading.
/// One load is short (40–180 ms) and its time varied by about 30% between
/// processes and, nearly as much (correlation 0.3), between the loads of one
/// process, so `setup_s` is the median over every load of every process.
const LOADS_PER_PROCESS: usize = 5;
/// Internal flag of the measuring child processes.
const CHILD_FLAG: &str = "--measure-stdin";
/// Share of `--seconds` the traced run spends on its untraced reference.
const TRACED_REFERENCE_SHARE: f64 = 0.25;
/// Counts the traced replay of `xmerge-m` must reproduce exactly, as
/// (replay name, program name): its single round is the program's traffic,
/// so a difference means the replay no longer follows the program.
const REPLAY_MUST_MATCH: [(&str, &str); 3] = [
    ("discover.candidates", "candidates"),
    ("prefilter.rejected", "prefilter.rejected"),
    ("plan.pairs_scored", "pairs_scored"),
];
const MIB: f64 = 1024.0 * 1024.0;
const MB: f64 = 1e6;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| workload.default_seed()),
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let is_child = args.first().is_some_and(|a| a == CHILD_FLAG);
    if is_child {
        args.remove(0);
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if is_child {
        child(args.workload)
    } else if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One compile measured in a fresh child process.
struct Sample {
    /// Every load of the process, the first one first.
    setup_s: Vec<f64>,
    merge_s: f64,
    /// `VmHWM` over the load and merge, in MiB.
    peak_rss_mb: f64,
    fingerprint: u64,
    counts: String,
}

/// The child processes' samples, plus an untimed merge of the same inputs
/// in this process, whose output is checked and whose counts every child
/// must reproduce.
struct Measured {
    samples: Vec<Sample>,
    output: Vec<Module>,
    merged: Merged,
    deterministic: bool,
}

impl Measured {
    fn metric(&self, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
        self.samples.iter().map(f).collect()
    }

    fn loads(&self) -> Vec<f64> {
        self.samples
            .iter()
            .flat_map(|s| s.setup_s.iter().copied())
            .collect()
    }
}

/// Merges `inputs` once here (untimed), then measures compiles in fresh
/// child processes, one after another, until `seconds` have passed (at
/// least [`MIN_PROCESSES`]). Much of the host's noise is set per process:
/// ten back-to-back processes merging the same text gave medians from 0.72
/// to 0.88 s, so one long process measures one draw of that state, while a
/// median over many processes does not depend on it.
fn measure(workload: Workload, inputs: &Inputs, seconds: f64) -> Result<Measured, String> {
    let mut output = load(&inputs.texts)?;
    let merged = workload.merge_logged(&mut output);
    let reference = (output_fingerprint(&output), merged.counts.to_json());
    let framed = frame(inputs);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PROCESSES || start.elapsed() < budget {
        samples.push(run_child(workload, &framed)?);
    }
    let deterministic = samples
        .iter()
        .all(|s| s.fingerprint == reference.0 && s.counts == reference.1);
    Ok(Measured {
        samples,
        output,
        merged,
        deterministic,
    })
}

/// The inputs as the child reads them on stdin: per module its name, the
/// byte length of its text, and the text.
fn frame(inputs: &Inputs) -> Vec<u8> {
    let mut out = Vec::with_capacity(inputs.bytes() + 64 * inputs.texts.len());
    for (name, text) in &inputs.texts {
        out.extend_from_slice(format!("{name}\n{}\n", text.len()).as_bytes());
        out.extend_from_slice(text.as_bytes());
    }
    out
}

/// Splits the framed inputs into `(module name, .ll text)` slices of `data`.
fn unframe(mut data: &str) -> Result<Vec<(&str, &str)>, String> {
    let mut texts = Vec::new();
    while !data.is_empty() {
        let mut fields = data.splitn(3, '\n');
        let (Some(name), Some(len), Some(rest)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err("truncated input frame".to_string());
        };
        let len: usize = len.parse().map_err(|e| format!("bad frame length: {e}"))?;
        let text = rest.get(..len).ok_or("truncated module text")?;
        texts.push((name, text));
        data = &rest[len..];
    }
    Ok(texts)
}

fn run_child(workload: Workload, framed: &[u8]) -> Result<Sample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args([CHILD_FLAG, "--workload", workload.name()])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a measuring process: {e}"))?;
    let written = child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(framed);
    let out = child
        .wait_with_output()
        .map_err(|e| format!("measuring process: {e}"))?;
    written.map_err(|e| format!("cannot send the inputs: {e}"))?;
    if !out.status.success() {
        return Err(format!("measuring process failed: {}", out.status));
    }
    let line = String::from_utf8_lossy(&out.stdout);
    let f: Vec<&str> = line.trim_end().splitn(5, '\t').collect();
    let unreadable = || format!("unreadable measurement: {line}");
    let number = |i: usize| -> Result<f64, String> {
        f.get(i).and_then(|v| v.parse().ok()).ok_or_else(unreadable)
    };
    let loads: Result<Vec<f64>, _> = f[0].split(',').map(str::parse).collect();
    Ok(Sample {
        setup_s: loads.map_err(|_| unreadable())?,
        merge_s: number(1)?,
        peak_rss_mb: number(2)?,
        fingerprint: f
            .get(3)
            .and_then(|v| v.parse().ok())
            .ok_or_else(unreadable)?,
        counts: f.get(4).ok_or_else(unreadable)?.to_string(),
    })
}

/// The child side: read the framed inputs from stdin, then time one load
/// and one merge, like one `salssa` invocation, then the further loads of
/// [`LOADS_PER_PROCESS`], and print a tab-separated line: the loads (comma
/// separated), merge, peak RSS, output fingerprint, counts. The peak is
/// re-armed with one copy of the text in memory, as `salssa` holds it, and
/// read before the further loads.
fn child(workload: Workload) -> Result<String, String> {
    let mut data = String::new();
    std::io::stdin()
        .read_to_string(&mut data)
        .map_err(|e| format!("cannot read the inputs: {e}"))?;
    let texts = unframe(&data)?;
    telemetry::reset_peak_rss();
    let t0 = Instant::now();
    let mut modules = load(&texts)?;
    let t1 = Instant::now();
    let merged = workload.merge(&mut modules);
    let t2 = Instant::now();
    let rss = telemetry::peak_rss_bytes().unwrap_or(0) as f64 / MIB;
    let mut loads = vec![(t1 - t0).as_secs_f64().to_string()];
    for _ in 1..LOADS_PER_PROCESS {
        let t = Instant::now();
        let reloaded = load(&texts)?;
        loads.push(t.elapsed().as_secs_f64().to_string());
        drop(reloaded);
    }
    Ok(format!(
        "{}\t{}\t{rss}\t{}\t{}",
        loads.join(","),
        (t2 - t1).as_secs_f64(),
        output_fingerprint(&modules),
        merged.counts.to_json()
    ))
}

fn output_fingerprint(modules: &[Module]) -> u64 {
    modules
        .iter()
        .fold(0u64, |acc, m| acc.rotate_left(5) ^ m.content_hash())
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile (linear interpolation).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        if v.is_empty() {
            return f64::NAN;
        }
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn floats(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| num(*x)).collect();
    format!("[{}]", v.join(","))
}

/// The result object: `correct`, `attempted`, `failed` and the metrics, in
/// the order given. `consistent` is false when repeated merges disagreed or
/// the replay drifted from the program.
fn result_line<N: std::fmt::Display>(
    check: &CheckReport,
    consistent: bool,
    metrics: &[(N, f64, &str)],
) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        check.failed == 0 && consistent,
        check.attempted,
        check.failed,
        fields.join(",")
    )
}

fn check_output(workload: Workload, inputs: &Inputs, m: &Measured) -> Result<CheckReport, String> {
    let input = load(&inputs.texts)?;
    let report = check::check(&input, &m.output, workload.is_corpus());
    for example in &report.examples {
        eprintln!("check failure: {example}");
    }
    if !m.deterministic {
        eprintln!("check failure: merges of the same input produced different output or counts");
    }
    Ok(report)
}

fn header(args: &Args, inputs: &Inputs, m: &Measured) {
    println!(
        "mergebench {} seed {}: {} modules, {:.2} MB of .ll text, {} measuring processes, {} worker threads",
        args.workload.name(),
        args.seed,
        inputs.texts.len(),
        inputs.bytes() as f64 / MB,
        m.samples.len(),
        worker_threads()
    );
}

fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn timed(args: &Args) -> Result<String, String> {
    let inputs = args.workload.generate(args.seed);
    let m = measure(args.workload, &inputs, args.seconds)?;
    let check = check_output(args.workload, &inputs, &m)?;
    header(args, &inputs, &m);
    let (setup_s, merge_s) = (m.loads(), m.metric(|s| s.merge_s));
    let peak_rss_mb = m.metric(|s| s.peak_rss_mb);
    let metrics = [
        ("setup_s", median(&setup_s), "s"),
        ("merge_s", median(&merge_s), "s"),
        ("peak_rss_mb", median(&peak_rss_mb), "MiB"),
        ("size_reduction_pct", check.size_reduction_pct(), "%"),
        ("runtime_ratio", check.runtime_ratio(), "ratio"),
    ];
    let spread = |samples: &[f64]| {
        let (q1, _, q3) = quartiles(samples);
        format!("(median of {}; q1 {q1:.4}, q3 {q3:.4})", samples.len())
    };
    for (name, value, unit) in metrics {
        let note = match name {
            "setup_s" => spread(&setup_s),
            "merge_s" => spread(&merge_s),
            "peak_rss_mb" => spread(&peak_rss_mb),
            _ => String::new(),
        };
        println!("  {name:<20} {value:>12.4} {unit:<6} {note}");
    }
    println!(
        "  {:<20} {:>12.4} {:<6} ({} of {} checks failed)",
        "failed_pct",
        check.failed_pct(),
        "%",
        check.failed,
        check.attempted
    );
    println!(
        "mergebench-detail {{\"workload\":\"{}\",\"seed\":{},\"trace\":0,\"manifest\":{},\"counts\":{},\"failed_pct\":{},\"steps\":[{},{}],\"both_failed\":{},\"deterministic\":{},\"samples\":{{\"setup_s\":{},\"merge_s\":{},\"peak_rss_mb\":{}}}}}",
        args.workload.name(),
        args.seed,
        inputs.manifest,
        m.merged.counts.to_json(),
        num(check.failed_pct()),
        check.steps_before,
        check.steps_after,
        check.both_failed,
        m.deterministic,
        floats(&setup_s),
        floats(&merge_s),
        floats(&peak_rss_mb)
    );
    Ok(result_line(&check, m.deterministic, &metrics))
}

fn traced(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let inputs = workload.generate(args.seed);
    let m = measure(workload, &inputs, args.seconds * TRACED_REFERENCE_SHARE)?;
    let check = check_output(workload, &inputs, &m)?;
    let output: Vec<(String, String)> = m
        .output
        .iter()
        .map(|m| (m.name.clone(), print_module(m)))
        .collect();

    // The same replay untraced first: the baseline of the tracing overhead.
    let reparsed = load(&output)?;
    let t = Instant::now();
    replay::replay(
        workload,
        &inputs,
        &reparsed,
        &m.merged,
        &mut Tracer::disabled(),
    );
    let untraced_s = t.elapsed().as_secs_f64();

    let run_id = format!(
        "{}-seed{}-pid{}",
        workload.name(),
        args.seed,
        std::process::id()
    );
    let mut tracer = Tracer::new(run_id.clone());
    let reparsed = load(&output)?;
    telemetry::set_alloc_tracking(true);
    let t = Instant::now();
    let replayed = replay::replay(workload, &inputs, &reparsed, &m.merged, &mut tracer);
    let traced_s = t.elapsed().as_secs_f64();
    telemetry::set_alloc_tracking(false);
    let drift = replay_drift(workload, &replayed, &m.merged.counts);
    for line in &drift {
        eprintln!("check failure: {line}");
    }

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let trace_path = format!("{dir}/trace-{run_id}.json");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&trace_path, tracer.to_chrome_json()))
        .map_err(|e| format!("cannot write {trace_path}: {e}"))?;

    let layers = tracer.fold();
    let merge_s = median(&m.metric(|s| s.merge_s));
    let trace = (
        tracer.layer_seconds_under("merge", &["pair"]) / (merge_s * worker_threads() as f64),
        100.0 * (traced_s - untraced_s) / untraced_s,
    );
    let metrics = layer_metrics(&layers, &replayed, &m.merged.counts, trace);

    header(args, &inputs, &m);
    println!(
        "  untraced merge_s {merge_s:.4} s (median of {}); replay {untraced_s:.4} s untraced, {traced_s:.4} s traced; spans in {trace_path}",
        m.samples.len()
    );
    println!(
        "  {:<14} {:>10} {:>8} {:>11} {:>10}",
        "layer", "self_s", "calls", "allocs", "alloc_MB"
    );
    for (name, l) in &layers {
        println!(
            "  {name:<14} {:>10.4} {:>8} {:>11} {:>10.2}",
            l.self_s,
            l.calls,
            l.self_allocs,
            l.self_alloc_bytes as f64 / MB
        );
    }
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>14.4} {unit}");
    }
    let replayed: Vec<String> = replayed
        .0
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
        .collect();
    println!(
        "mergebench-detail {{\"workload\":\"{}\",\"seed\":{},\"trace\":1,\"manifest\":{},\"counts\":{},\"replayed\":{{{}}},\"failed_pct\":{},\"deterministic\":{},\"replay_matches\":{}}}",
        workload.name(),
        args.seed,
        inputs.manifest,
        m.merged.counts.to_json(),
        replayed.join(","),
        num(check.failed_pct()),
        m.deterministic,
        drift.is_empty()
    );
    let consistent = m.deterministic && drift.is_empty();
    Ok(result_line(&check, consistent, &metrics))
}

/// On `xmerge-m`, each count of [`REPLAY_MUST_MATCH`] on which the replay
/// and the program disagree; the other workloads' replays leave out rounds
/// or commit-time work by design.
fn replay_drift(workload: Workload, replayed: &ReplayCounts, program: &Counts) -> Vec<String> {
    if workload != Workload::XmergeM {
        return Vec::new();
    }
    REPLAY_MUST_MATCH
        .iter()
        .filter(|(r, p)| replayed.get(r) != program.get(p) as f64)
        .map(|(r, p)| {
            format!(
                "the replay's {r} is {} but the program's {p} is {}",
                replayed.get(r),
                program.get(p)
            )
        })
        .collect()
}

/// The per-layer metrics of a traced run: self times and allocations from
/// the spans, every count the program's reports carry from `program`, and
/// from the replay only the counts they lack (input bytes, skipped
/// functions, codegen and SSA-repair output). `trace` holds the coverage
/// and overhead.
fn layer_metrics(
    layers: &BTreeMap<&str, LayerTotals>,
    replayed: &ReplayCounts,
    program: &Counts,
    trace: (f64, f64),
) -> Vec<(String, f64, &'static str)> {
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let r = |name: &str| replayed.get(name);
    let p = |name: &str| program.get(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push((name.to_string(), value, unit));
    let allocs = |put: &mut dyn FnMut(&str, f64, &'static str), stage: &str| {
        put(
            &format!("{stage}.allocs"),
            layer(stage).self_allocs as f64,
            "count",
        );
        put(
            &format!("{stage}.alloc_mb"),
            layer(stage).self_alloc_bytes as f64 / MB,
            "MB",
        );
    };
    let parser_s = layer("parser").self_s;
    put("parser.self_s", parser_s, "s");
    put(
        "parser.mb_per_s",
        ratio(r("parser.bytes") / MB, parser_s),
        "MB/s",
    );
    put(
        "parser.functions_skipped",
        r("parser.functions_skipped"),
        "count",
    );
    allocs(&mut put, "parser");
    put("verifier.self_s", layer("verifier").self_s, "s");
    put("index.self_s", layer("index").self_s, "s");
    put("index.modules_resummarized", p("index.refreshed"), "count");
    put("index.modules_reused", p("index.reused"), "count");
    put("discover.self_s", layer("discover").self_s, "s");
    put("discover.candidates", p("candidates"), "count");
    put("callgraph.self_s", layer("callgraph").self_s, "s");
    put("prefilter.self_s", layer("prefilter").self_s, "s");
    let (checked, rejected) = (p("prefilter.checked"), p("prefilter.rejected"));
    put("prefilter.checked", checked, "count");
    put("prefilter.rejected", rejected, "count");
    let reject_ratio = ratio(rejected, checked);
    put("prefilter.reject_ratio", reject_ratio, "ratio");
    put("align.self_s", layer("align").self_s, "s");
    put("align.cells", p("align.cells"), "count");
    put("align.full_runs", p("align.full_runs"), "count");
    put("align.score_only_runs", p("align.score_only_runs"), "count");
    let (band_runs, band_saturations) = (p("align.band_runs"), p("align.band_saturations"));
    put("align.band_runs", band_runs, "count");
    put("align.band_saturations", band_saturations, "count");
    put(
        "align.band_waste_ratio",
        ratio(band_saturations, band_runs),
        "ratio",
    );
    put("align.peak_live_bytes", p("align.peak_live_bytes"), "bytes");
    put("codegen.self_s", layer("codegen").self_s, "s");
    put("codegen.insts_out", r("codegen.insts_out"), "count");
    allocs(&mut put, "codegen");
    put("simplify_cfg.self_s", layer("simplify_cfg").self_s, "s");
    allocs(&mut put, "simplify_cfg");
    put("ssa_repair.self_s", layer("ssa_repair").self_s, "s");
    put(
        "ssa_repair.phis_inserted",
        r("ssa_repair.phis_inserted"),
        "count",
    );
    put(
        "ssa_repair.coalesced_pairs",
        r("ssa_repair.coalesced_pairs"),
        "count",
    );
    allocs(&mut put, "ssa_repair");
    put("cleanup.self_s", layer("cleanup").self_s, "s");
    allocs(&mut put, "cleanup");
    let (pairs, commits) = (p("pairs_scored"), p("commits"));
    put("plan.pairs_scored", pairs, "count");
    put("plan.commits", commits, "count");
    put("plan.commit_ratio", ratio(commits, pairs), "ratio");
    put("plan.hazard_skips", p("hazard_skips"), "count");
    put("plan.internal_errors", p("internal_errors"), "count");
    let (hits, misses) = (p("structural_cache.hits"), p("structural_cache.misses"));
    put(
        "plan.structural_cache_hit_rate",
        ratio(hits, hits + misses),
        "ratio",
    );
    put("linker.self_s", layer("linker").self_s, "s");
    put("oracle.self_s", layer("oracle").self_s, "s");
    put("oracle.checks", p("oracle.checks"), "count");
    put("oracle.rejections", p("semantic_rejections"), "count");
    put("oracle.timeouts", p("oracle_timeouts"), "count");
    put("trace.coverage", trace.0, "ratio");
    put("trace.overhead_pct", trace.1, "%");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unframe_reads_back_what_frame_wrote() {
        let inputs = Inputs {
            texts: vec![
                ("a".to_string(), "define i32 @f() {\n}\n".to_string()),
                ("b".to_string(), String::new()),
            ],
            manifest: String::new(),
        };
        let framed = String::from_utf8(frame(&inputs)).unwrap();
        assert_eq!(
            unframe(&framed).unwrap(),
            vec![("a", "define i32 @f() {\n}\n"), ("b", "")]
        );
        assert!(unframe("a\n10\nshort").is_err());
    }

    #[test]
    fn replay_drift_is_checked_on_xmerge_m() {
        let program = Counts(BTreeMap::from([
            ("candidates", 972),
            ("prefilter.rejected", 13),
            ("pairs_scored", 959),
        ]));
        let mut replayed = ReplayCounts(BTreeMap::from([
            ("discover.candidates", 972.0),
            ("prefilter.rejected", 13.0),
            ("plan.pairs_scored", 959.0),
        ]));
        assert!(replay_drift(Workload::XmergeM, &replayed, &program).is_empty());
        replayed.0.insert("plan.pairs_scored", 958.0);
        assert_eq!(
            replay_drift(Workload::XmergeM, &replayed, &program).len(),
            1
        );
        assert!(replay_drift(Workload::IntraSpec2006, &replayed, &program).is_empty());
    }
}
