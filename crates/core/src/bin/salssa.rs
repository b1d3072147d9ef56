//! `salssa` — function merging from the command line.
//!
//! Subcommands:
//!
//! - `merge <input.ll>` — whole-module merging of one module (the default
//!   when the first argument is a file): parse → merge-module (SalSSA,
//!   parallel candidate scoring by default) → verify → report.
//! - `xmerge <dir>` — cross-module merging over a corpus: sharded candidate
//!   discovery over the index, speculative parallel scoring, profit-ordered
//!   commits with donor-side thunks (`--out-dir` writes merged modules;
//!   `--host-policy callgraph` places merged bodies by call-graph locality).
//! - `callgraph <dir>` — build and summarize the whole-program call graph
//!   (direct-call edges, SCCs, locality, regions).
//! - `report <dir|files...>` — per-module merge statistics, `--json` for the
//!   machine-readable schema.
//! - `lint <dir|files...>` — static analysis without merging: verifier wrap,
//!   merge-shape invariants, and whole-program consistency checks, with
//!   stable diagnostic codes (`--deny` escalates, `--json` for machines).
//! - `explain <dir> <fn-a> <fn-b>` — run the cross-module pipeline once and
//!   print the decisions it recorded for one candidate pair (why it did or
//!   did not merge).
//! - `profile <trace.json>` — fold a previously written Chrome trace into a
//!   flamegraph-style self/total time + bytes rollup per span.
//! - `fuzz` — adversarial-input smoke mode: generate corpora in-process,
//!   corrupt them (byte flips, truncations, line edits), and drive the full
//!   parse → index → xmerge pipeline over the wreckage, proving zero process
//!   aborts and that recovery on/off is bit-identical on the clean subset.
//!
//! Robustness: inputs are loaded through the error-recovering frontend by
//! default — an unparseable function is skipped with an `E000` warning on
//! stderr (and counted in the reports' `recovery` block) while the rest of
//! the module proceeds. `--no-recovery` restores strict all-or-nothing
//! parsing; `--deny-recovery` keeps recovery on but fails the run when
//! anything had to be skipped; `--oracle-fuel` bounds each semantic-oracle
//! execution, turning runaway interpretation into `rejected(oracle_timeout)`.
//!
//! Observability (merge/xmerge/lint): `--trace-out <file>` writes a Chrome
//! Trace Event Format JSON of the run's internal spans (load it in Perfetto)
//! and turns on allocation tracking, so every span's end event carries its
//! thread's allocation delta; `--profile` additionally prints the rollup
//! after the run; `--decisions-out <file>` writes the candidate-pair
//! decision log as JSONL. The `--json` reports carry the run's own counters
//! and histograms in their `telemetry` block.
//!
//! ```text
//! cargo run --release --bin salssa -- examples/clone_heavy.ll
//! cargo run --release --bin salssa -- lint corpus/ --deny warnings --json
//! cargo run --release --bin salssa -- xmerge corpus/ --check-semantics --paranoid
//! cargo run --release --bin salssa -- xmerge corpus/ --host-policy callgraph
//! cargo run --release --bin salssa -- callgraph corpus/
//! cargo run --release --bin salssa -- report --json corpus/
//! ```

use callgraph::{CallGraph, CorpusCallIndex};
use salssa::{merge_module, DriverConfig, MergeOptions, SalSsaMerger};
use ssa_ir::verifier::verify_module;
use ssa_ir::{parse_module, print_module, Module};
use ssa_passes::codesize::Target;
use ssa_passes::module_size_bytes;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xmerge::{corpus_report_json, merge_report_json, HostPolicy, XMergeConfig};

const USAGE: &str = "\
usage: salssa [command] [options] <inputs>

Function merging by sequence alignment on SSA form (SalSSA, Rocha et al.,
PLDI 2020), intra-module and across a multi-module corpus.

commands:
  merge <input.ll>       merge similar functions within one module (default
                         when the first argument is a file)
  xmerge <dir>           cross-module merging over all .ll files in <dir>
  callgraph <dir>        build and summarize the whole-program call graph
  report <dir|files...>  run per-module merging and report statistics
  lint <dir|files...>    statically analyze modules without merging: verifier
                         wrap, merge-shape invariants, and whole-program
                         declaration/ODR consistency, with stable codes
  explain <dir> <a> <b>  run xmerge once and print the decisions it recorded
                         for the pair of functions <a>, <b> (each 'name' or
                         'module:name'): why the pair did or did not merge
  profile <trace.json>   fold a Chrome trace written by --trace-out into a
                         self/total time + bytes rollup per span
  fuzz                   adversarial-input smoke mode: generate corpora
                         in-process, corrupt them (byte flips, truncations,
                         line deletes/duplicates), and run the full parse ->
                         index -> xmerge pipeline over the wreckage; fails if
                         anything aborts or if recovery on/off diverges on
                         the clean subset (see --iters, --seed)

options:
  -t, --threshold <N>    exploration threshold: ranked candidates tried per
                         function (default 1; xmerge default 3)
      --min-size <N>     skip functions smaller than N instructions (default 3)
      --check-semantics  differentially test every commit with the reference
                         interpreter and reject mismatches
      --oracle-fuel <N>  cap each semantic-oracle execution at N interpreter
                         steps: a run that exhausts the budget becomes a
                         rejected(oracle_timeout) decision instead of a
                         verdict (default 1000000, the interpreter's own
                         step limit)
      --no-recovery      strict frontend: any parse error fails the whole
                         module instead of skipping the broken function
      --deny-recovery    keep the error-recovering frontend on but exit
                         non-zero if any function had to be skipped
      --fixpoint         xmerge: iterate to a fixpoint — merged hosts re-enter
                         the candidate pool, interleaved with per-module intra
                         merging — until a round commits nothing
      --max-rounds <N>   xmerge: fixpoint round cap (default 4)
      --host-policy <p>  xmerge: how merged bodies are placed — 'size' (the
                         larger function hosts, default) or 'callgraph' (the
                         less-coupled member donates, minimizing call edges
                         forced cross-module)
      --paranoid         merge/xmerge: re-run the static analyzer after every
                         committed merge and report diagnostics the run
                         introduced (observational; commits are unchanged)
      --deny <c>         lint: fail on the given code, or on every warning
                         with --deny warnings (errors always fail); repeatable
      --only <code>      lint: report only the given code; repeatable
      --no-phi-coalescing  disable phi-node coalescing (SalSSA-NoPC ablation)
      --band <N>         alignment band slack: score candidate pairs in a
                         certified diagonal corridor of half-width
                         |m-n| + N, falling back to the exact tier when the
                         corridor saturates (default 8; results are always
                         byte-identical to unbanded alignment)
      --no-band          disable banded alignment (always run the exact tier)
      --no-prefilter     disable the admissible profit pre-filter that
                         rejects provably unprofitable candidate pairs
                         before codegen-based scoring (committed merges are
                         identical either way; this only costs time)
      --target <x86|thumb> code-size model for profitability (default x86)
      --trace-out <file>   write a Chrome Trace Event Format JSON of the run's
                         internal spans (open it in Perfetto / chrome://tracing);
                         also enables allocation tracking so span end events
                         carry alloc_bytes / peak_delta
      --profile          print a self/total time + bytes rollup of the run's
                         spans after the normal output (implies tracing and
                         allocation tracking)
      --decisions-out <file>  write the candidate-pair decision log (discovered,
                         scored, rejected+reason, committed) as JSONL
      --iters <N>        fuzz: corpora to generate and corrupt (default 16)
      --seed <N>         fuzz: base seed for corpus generation and mutation
                         (default 0; every failure reproduces from its seed)
      --json             emit machine-readable JSON instead of the report
      --out-dir <dir>    xmerge: write the merged modules here
      --print-module     print the merged module IR after the report
  -h, --help             show this help
";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Merge,
    XMerge,
    CallGraph,
    Report,
    Lint,
    Explain,
    Profile,
    Fuzz,
}

struct Cli {
    command: Command,
    inputs: Vec<String>,
    config: DriverConfig,
    options: MergeOptions,
    threshold_set: bool,
    print_module: bool,
    json: bool,
    out_dir: Option<String>,
    fixpoint: bool,
    max_rounds: usize,
    host_policy: HostPolicy,
    deny: Vec<String>,
    only: Vec<String>,
    trace_out: Option<String>,
    decisions_out: Option<String>,
    profile: bool,
    recovery: bool,
    deny_recovery: bool,
    fuzz_iters: usize,
    fuzz_seed: u64,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut command: Option<Command> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut config = DriverConfig::default();
    let mut options = MergeOptions::default();
    let mut threshold_set = false;
    let mut print_module = false;
    let mut json = false;
    let mut out_dir: Option<String> = None;
    let mut fixpoint = false;
    let mut max_rounds = 4usize;
    let mut host_policy = HostPolicy::default();
    let mut deny: Vec<String> = Vec::new();
    let mut only: Vec<String> = Vec::new();
    let mut trace_out: Option<String> = None;
    let mut decisions_out: Option<String> = None;
    let mut profile = false;
    let mut recovery = true;
    let mut deny_recovery = false;
    let mut fuzz_iters = 16usize;
    let mut fuzz_seed = 0u64;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_for = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "-t" | "--threshold" => {
                config.threshold = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad {arg}: {e}"))?;
                threshold_set = true;
            }
            "--min-size" => {
                config.min_function_size = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad {arg}: {e}"))?;
            }
            "--check-semantics" => config.check_semantics = true,
            "--oracle-fuel" => {
                config.oracle_fuel = Some(
                    value_for(arg)?
                        .parse()
                        .map_err(|e| format!("bad {arg}: {e}"))?,
                );
            }
            "--no-recovery" => recovery = false,
            "--deny-recovery" => deny_recovery = true,
            "--iters" => {
                fuzz_iters = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad {arg}: {e}"))?;
            }
            "--seed" => {
                fuzz_seed = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad {arg}: {e}"))?;
            }
            "--fixpoint" => fixpoint = true,
            "--max-rounds" => {
                max_rounds = value_for(arg)?
                    .parse()
                    .map_err(|e| format!("bad {arg}: {e}"))?;
            }
            "--host-policy" => host_policy = value_for(arg)?.parse()?,
            "--paranoid" => config.paranoid = true,
            "--deny" => deny.push(value_for(arg)?),
            "--only" => only.push(value_for(arg)?),
            "--no-phi-coalescing" => options.phi_coalescing = false,
            "--band" => {
                options.band = Some(
                    value_for(arg)?
                        .parse()
                        .map_err(|e| format!("bad {arg}: {e}"))?,
                );
            }
            "--no-band" => options.band = None,
            "--no-prefilter" => config.prefilter = false,
            "--target" => {
                options.target = match value_for(arg)?.as_str() {
                    "x86" => Target::X86Like,
                    "thumb" => Target::ThumbLike,
                    other => return Err(format!("unknown target '{other}' (x86|thumb)")),
                };
            }
            "--trace-out" => trace_out = Some(value_for(arg)?),
            "--decisions-out" => decisions_out = Some(value_for(arg)?),
            "--profile" => profile = true,
            "--json" => json = true,
            "--out-dir" => out_dir = Some(value_for(arg)?),
            "--print-module" => print_module = true,
            "-h" | "--help" => return Err(String::new()),
            "merge" | "xmerge" | "callgraph" | "report" | "lint" | "explain" | "profile"
            | "fuzz"
                if command.is_none() && inputs.is_empty() =>
            {
                command = Some(match arg.as_str() {
                    "merge" => Command::Merge,
                    "xmerge" => Command::XMerge,
                    "callgraph" => Command::CallGraph,
                    "lint" => Command::Lint,
                    "explain" => Command::Explain,
                    "profile" => Command::Profile,
                    "fuzz" => Command::Fuzz,
                    _ => Command::Report,
                });
            }
            other if other.starts_with('-') => return Err(format!("unknown option '{other}'")),
            other => inputs.push(other.to_string()),
        }
    }

    let command = command.unwrap_or(Command::Merge);
    // `fuzz` generates its corpora in-process — it is the one command that
    // takes no input.
    if inputs.is_empty() && command != Command::Fuzz {
        return Err("no input given".to_string());
    }
    if command == Command::Fuzz && !inputs.is_empty() {
        return Err(
            "fuzz takes no inputs (corpora are generated; see --iters, --seed)".to_string(),
        );
    }
    if command == Command::Explain && inputs.len() != 3 {
        return Err(
            "explain takes a corpus and two function specs: explain <dir> <a> <b>".to_string(),
        );
    }
    if command == Command::Profile && inputs.len() != 1 {
        return Err("profile takes exactly one trace file: profile <trace.json>".to_string());
    }
    if !matches!(command, Command::Report | Command::Lint | Command::Explain) && inputs.len() > 1 {
        return Err("more than one input given".to_string());
    }
    Ok(Cli {
        command,
        inputs,
        config,
        options,
        threshold_set,
        print_module,
        json,
        out_dir,
        fixpoint,
        max_rounds,
        host_policy,
        deny,
        only,
        trace_out,
        decisions_out,
        profile,
        recovery,
        deny_recovery,
        fuzz_iters,
        fuzz_seed,
    })
}

/// Frontend-recovery accounting for one load: run-wide totals plus a
/// per-module breakdown (keyed by module name) for per-module reports.
#[derive(Default)]
struct RecoveryStats {
    functions_skipped: usize,
    modules_recovered: usize,
    per_module: std::collections::HashMap<String, usize>,
}

impl RecoveryStats {
    fn record(&mut self, module_name: &str, skipped: usize) {
        if skipped > 0 {
            self.functions_skipped += skipped;
            self.modules_recovered += 1;
            self.per_module.insert(module_name.to_string(), skipped);
        }
    }

    fn skipped_in(&self, module_name: &str) -> usize {
        self.per_module.get(module_name).copied().unwrap_or(0)
    }
}

/// Fails the run when `--deny-recovery` is set and the frontend had to skip
/// anything; call after loading, before doing any work.
fn deny_recovery_gate(cli: &Cli, stats: &RecoveryStats) -> Option<ExitCode> {
    if cli.deny_recovery && stats.functions_skipped > 0 {
        eprintln!(
            "error: --deny-recovery: {} unparseable functions skipped across {} modules",
            stats.functions_skipped, stats.modules_recovered
        );
        return Some(ExitCode::FAILURE);
    }
    None
}

/// The `.ll` files one input names: the file itself, or the `.ll` files of a
/// directory sorted by name for determinism.
fn input_files(input: &str) -> Result<Vec<PathBuf>, String> {
    let p = Path::new(input);
    if p.is_file() {
        return Ok(vec![p.to_path_buf()]);
    }
    if !p.is_dir() {
        return Err(format!("{input}: no such file or directory"));
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(p)
        .map_err(|e| format!("{input}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|f| f.extension().is_some_and(|ext| ext == "ll"))
        .collect();
    files.sort();
    Ok(files)
}

/// Loads every parseable `.ll` module of a directory (see [`input_files`];
/// module names are the file stems) or the single file at `path`.
/// Unparseable files in a directory are reported to stderr and skipped — a
/// corpus with zero parseable modules is an empty result, not an error.
fn load_corpus(
    path: &str,
    recovery: bool,
    stats: &mut RecoveryStats,
) -> Result<Vec<Module>, String> {
    if Path::new(path).is_file() {
        return Ok(vec![load_module(path, recovery, stats)?]);
    }
    let mut modules = Vec::new();
    for file in input_files(path)? {
        match load_module(&file.to_string_lossy(), recovery, stats) {
            Ok(module) => modules.push(module),
            Err(e) => eprintln!("warning: skipping {e}"),
        }
    }
    Ok(modules)
}

/// Loads one module. With `recovery` on (the default), parsing goes through
/// the staged error-recovering frontend: each unparseable function becomes
/// an `E000` warning on stderr (with file/line/function provenance) and a
/// [`RecoveryStats`] entry while the rest of the module loads normally.
/// Verification failures still fail the whole module — recovery degrades
/// what the parser accepts, never what the merger operates on.
fn load_module(path: &str, recovery: bool, stats: &mut RecoveryStats) -> Result<Module, String> {
    let _span = telemetry::span_with("parse.module", || path.to_string());
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let name = Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string());
    let mut module = if recovery {
        let recovered = ssa_ir::parse_module_recovering(&text);
        for skip in &recovered.skipped {
            let what = if skip.name.is_empty() {
                "skipped unparseable text".to_string()
            } else {
                format!("skipped function @{}", skip.name)
            };
            eprintln!(
                "warning: {path}:{}: [{}] {what}: {}",
                skip.line,
                analysis::codes::PARSE,
                skip.message
            );
        }
        stats.record(&name, recovered.skipped.len());
        recovered.module
    } else {
        parse_module(&text).map_err(|e| format!("{path}: parse error: {e}"))?
    };
    let errors = verify_module(&module);
    if !errors.is_empty() {
        return Err(format!("{path}: invalid module: {:?}", errors[0]));
    }
    module.name = name;
    Ok(module)
}

/// Writes to stdout, treating a broken pipe (e.g. piping into `head`) as a
/// quiet success.
fn emit(body: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) -> ExitCode {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    match body(&mut out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: writing output failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Arm telemetry before any work happens (including corpus loading, so
    // parse spans land in the trace). Tracing implies allocation tracking:
    // every span's end event then carries its thread's allocation delta.
    // `profile <trace.json>` itself reads a finished trace, so it records
    // nothing.
    let live_profile = cli.profile && cli.command != Command::Profile;
    if cli.trace_out.is_some() || live_profile {
        telemetry::set_tracing(true);
        telemetry::set_alloc_tracking(true);
    }
    if cli.decisions_out.is_some() {
        telemetry::set_decisions(true);
    }
    let code = match cli.command {
        Command::Merge => run_merge(&cli),
        Command::XMerge => run_xmerge(&cli),
        Command::CallGraph => run_callgraph(&cli),
        Command::Report => run_report(&cli),
        Command::Lint => run_lint(&cli),
        Command::Explain => run_explain(&cli),
        Command::Profile => run_profile(&cli),
        Command::Fuzz => run_fuzz(&cli),
    };
    // The trace is drained exactly once; the file export and the rollup
    // print both read the same drain.
    if cli.trace_out.is_some() || live_profile {
        let trace = telemetry::take_trace();
        if let Some(path) = &cli.trace_out {
            if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
                eprintln!("error: cannot write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if live_profile {
            print!(
                "\nprofile:\n{}",
                telemetry::Profile::from_trace(&trace).render()
            );
        }
    }
    if let Some(path) = &cli.decisions_out {
        let decisions = telemetry::take_decisions();
        if let Err(e) = std::fs::write(path, telemetry::decisions::to_jsonl(&decisions)) {
            eprintln!("error: cannot write decision log {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

fn run_merge(cli: &Cli) -> ExitCode {
    let input = &cli.inputs[0];
    let mut recovery = RecoveryStats::default();
    let mut module = match load_module(input, cli.recovery, &mut recovery) {
        Ok(module) => module,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = deny_recovery_gate(cli, &recovery) {
        return code;
    }

    let size_before = module_size_bytes(&module, cli.options.target);
    let functions_before = module.num_functions();
    let merger = SalSsaMerger::new(cli.options);
    let mut report = merge_module(&mut module, &merger, &cli.config);
    report.functions_skipped = recovery.functions_skipped;
    report.modules_recovered = recovery.modules_recovered;

    let errors = verify_module(&module);
    if !errors.is_empty() {
        eprintln!("error: merged module FAILED verification:");
        for err in errors.iter().take(10) {
            eprintln!("  {err:?}");
        }
        return ExitCode::FAILURE;
    }

    let size_after = module_size_bytes(&module, cli.options.target);
    let saved = size_before.saturating_sub(size_after);
    emit(|out| {
        if cli.json {
            writeln!(
                out,
                "{}",
                merge_report_json(
                    input,
                    &report,
                    (functions_before, module.num_functions()),
                    (size_before, size_after),
                )
            )?;
        } else {
            writeln!(
                out,
                "{}: {} functions, {} bytes modelled (threshold {})",
                input, functions_before, size_before, cli.config.threshold
            )?;
            writeln!(out, "{report}")?;
            writeln!(
                out,
                "module: {} -> {} functions, {} -> {} bytes ({:.1}% reduction), verification clean",
                functions_before,
                module.num_functions(),
                size_before,
                size_after,
                100.0 * saved as f64 / size_before.max(1) as f64
            )?;
        }
        if cli.print_module {
            writeln!(out, "\n{}", print_module(&module))?;
        }
        Ok(())
    })
}

/// The cross-module pipeline configuration a `Cli` asks for — shared by
/// `xmerge` and `explain` so an explanation runs with the run's exact knobs.
fn xmerge_config(cli: &Cli) -> XMergeConfig {
    let mut config = XMergeConfig::new()
        .with_check_semantics(cli.config.check_semantics)
        .with_host_policy(cli.host_policy)
        .with_paranoid(cli.config.paranoid)
        .with_prefilter(cli.config.prefilter)
        .with_oracle_fuel(cli.config.oracle_fuel);
    config.options = cli.options;
    config.discovery.min_function_size = cli.config.min_function_size;
    if cli.threshold_set {
        config.discovery.max_candidates_per_fn = cli.config.threshold;
    }
    if cli.fixpoint {
        config.fixpoint = Some(xmerge::FixpointConfig {
            max_rounds: cli.max_rounds,
            // The pipeline's own shared monitor covers interleaved intra
            // commits; a per-module monitor inside merge_module would check
            // the same mutations twice.
            intra: Some(cli.config.with_paranoid(false)),
        });
    }
    config
}

fn run_xmerge(cli: &Cli) -> ExitCode {
    let input = &cli.inputs[0];
    let mut recovery = RecoveryStats::default();
    let mut modules = match load_corpus(input, cli.recovery, &mut recovery) {
        Ok(modules) => modules,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(code) = deny_recovery_gate(cli, &recovery) {
        return code;
    }
    if modules.is_empty() {
        return emit(|out| writeln!(out, "{input}: 0 modules (0 functions); nothing to merge"));
    }
    let config = xmerge_config(cli);
    let mut report = xmerge::xmerge_corpus(&mut modules, &config);
    report.functions_skipped = recovery.functions_skipped;
    report.modules_recovered = recovery.modules_recovered;

    for module in &modules {
        let errors = verify_module(module);
        if !errors.is_empty() {
            eprintln!(
                "error: module {} FAILED verification after merging:",
                module.name
            );
            for err in errors.iter().take(10) {
                eprintln!("  {err:?}");
            }
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &cli.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
        for module in &modules {
            let path = format!("{}/{}.ll", dir.trim_end_matches('/'), module.name);
            if let Err(e) = std::fs::write(&path, print_module(module)) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    emit(|out| {
        if cli.json {
            writeln!(out, "{}", corpus_report_json(&report))?;
        } else {
            writeln!(
                out,
                "{input}: {} modules, {} functions",
                report.modules, report.functions
            )?;
            writeln!(out, "{report}")?;
            writeln!(out, "all {} modules pass verification", report.modules)?;
        }
        if cli.print_module {
            for module in &modules {
                writeln!(out, "\n{}", print_module(module))?;
            }
        }
        Ok(())
    })
}

fn run_explain(cli: &Cli) -> ExitCode {
    let (input, spec_a, spec_b) = (&cli.inputs[0], &cli.inputs[1], &cli.inputs[2]);
    let mut modules = match load_corpus(input, cli.recovery, &mut RecoveryStats::default()) {
        Ok(modules) => modules,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if modules.is_empty() {
        eprintln!("error: {input}: 0 modules (0 functions); nothing to explain");
        return ExitCode::from(2);
    }
    let config = xmerge_config(cli);
    match xmerge::explain_pair(&mut modules, &config, spec_a, spec_b) {
        Ok(explanation) => emit(|out| {
            writeln!(out, "{spec_a} vs {spec_b}:")?;
            writeln!(out, "{explanation}")?;
            Ok(())
        }),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_callgraph(cli: &Cli) -> ExitCode {
    let input = &cli.inputs[0];
    let modules = match load_corpus(input, cli.recovery, &mut RecoveryStats::default()) {
        Ok(modules) => modules,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if modules.is_empty() {
        return emit(|out| writeln!(out, "{input}: 0 modules (0 functions); nothing to analyze"));
    }
    let index = CorpusCallIndex::build(&modules);
    let graph = CallGraph::resolve(&index);
    let condensation = graph.condensation();
    let recursive_components = condensation
        .components
        .iter()
        .filter(|c| c.len() > 1)
        .count();
    let locality = graph.locality();
    let cross_sites: u64 = locality.iter().map(|l| u64::from(l.cross_callees)).sum();
    let mut links = graph.cross_module_links();
    links.extend(graph.shared_definition_links());
    let regions = callgraph::module_regions(modules.len(), links);
    emit(|out| {
        if cli.json {
            // Append-only schema, like the merge/xmerge reports.
            writeln!(
                out,
                r#"{{"kind":"callgraph","input":"{}","modules":{},"functions":{},"call_edges":{},"resolved_sites":{},"cross_module_sites":{},"external_sites":{},"scc_components":{},"recursive_components":{},"condensation_edges":{},"regions":{}}}"#,
                telemetry::json_escape(input),
                graph.modules.len(),
                graph.num_nodes(),
                graph.num_edges(),
                graph.num_resolved_sites(),
                cross_sites,
                graph.num_external_sites(),
                condensation.components.len(),
                recursive_components,
                condensation.edges.len(),
                regions.len()
            )?;
        } else {
            writeln!(
                out,
                "{input}: {} modules, {} functions, {} call edges ({} static sites resolved, {} cross-module, {} external)",
                graph.modules.len(),
                graph.num_nodes(),
                graph.num_edges(),
                graph.num_resolved_sites(),
                cross_sites,
                graph.num_external_sites()
            )?;
            writeln!(
                out,
                "sccs: {} components ({} with recursion), {} condensation edges; regions: {}",
                condensation.components.len(),
                recursive_components,
                condensation.edges.len(),
                regions.len()
            )?;
        }
        Ok(())
    })
}

fn run_lint(cli: &Cli) -> ExitCode {
    // Validate the code filters up front: a typo'd code silently matching
    // nothing would read as a clean run.
    let mut deny_set = analysis::DenySet::default();
    for d in &cli.deny {
        if d == "warnings" {
            deny_set.warnings = true;
        } else if analysis::severity_of(d).is_some() {
            deny_set.codes.insert(d.clone());
        } else {
            eprintln!("error: --deny {d}: unknown code (see the code table in README)");
            return ExitCode::from(2);
        }
    }
    for code in &cli.only {
        if analysis::severity_of(code).is_none() {
            eprintln!("error: --only {code}: unknown code");
            return ExitCode::from(2);
        }
    }

    // Parse WITHOUT the loader's verify step — the analyzer wraps the
    // verifier itself, so broken modules become diagnostics, not load errors.
    // The error-recovering frontend does the same for parse errors: each
    // skipped function is one E000 diagnostic with function/line provenance,
    // and the rest of the module is still analyzed.
    let mut diagnostics: Vec<analysis::Diagnostic> = Vec::new();
    let mut modules: Vec<Module> = Vec::new();
    for input in &cli.inputs {
        let files = match input_files(input) {
            Ok(files) => files,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        for file in files {
            let stem = file
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| file.to_string_lossy().into_owned());
            match std::fs::read_to_string(&file) {
                Ok(text) => {
                    let recovered = ssa_ir::parse_module_recovering(&text);
                    for skip in &recovered.skipped {
                        diagnostics.push(analysis::Diagnostic::new(
                            analysis::codes::PARSE,
                            &stem,
                            &skip.name,
                            format!("parse error at line {}: {}", skip.line, skip.message),
                        ));
                    }
                    let mut module = recovered.module;
                    module.name = stem;
                    modules.push(module);
                }
                Err(e) => {
                    diagnostics.push(analysis::Diagnostic::new(
                        analysis::codes::PARSE,
                        stem,
                        "",
                        format!("cannot read file: {e}"),
                    ));
                }
            }
        }
    }

    let engine = analysis::AnalysisEngine::new();
    let report = engine.analyze_program(&modules);
    diagnostics.extend(report.diagnostics);
    diagnostics.sort_by(|a, b| {
        (&a.module, &a.function, a.code, &a.message).cmp(&(
            &b.module,
            &b.function,
            b.code,
            &b.message,
        ))
    });
    if !cli.only.is_empty() {
        diagnostics.retain(|d| cli.only.iter().any(|code| code == d.code));
    }
    let denied = diagnostics.iter().filter(|d| deny_set.rejects(d)).count();
    let (errors, warnings, lints) = analysis::count_severities(&diagnostics);

    let printed = emit(|out| {
        if cli.json {
            let by_code: Vec<String> = analysis::count_by_code(&diagnostics)
                .iter()
                .map(|(code, n)| format!(r#""{code}":{n}"#))
                .collect();
            let objs: Vec<String> = diagnostics.iter().map(analysis::Diagnostic::json).collect();
            writeln!(
                out,
                r#"{{"kind":"lint","modules":{},"functions":{},"errors":{},"warnings":{},"lints":{},"denied":{},"by_code":{{{}}},"diagnostics":[{}],"cache_hits":{},"cache_misses":{},"analysis_ms":{:.3}}}"#,
                report.stats.modules,
                report.stats.functions,
                errors,
                warnings,
                lints,
                denied,
                by_code.join(","),
                objs.join(","),
                report.stats.cache_hits,
                report.stats.cache_misses,
                report.stats.elapsed.as_secs_f64() * 1000.0
            )?;
        } else {
            for d in &diagnostics {
                writeln!(out, "{d}")?;
            }
            writeln!(
                out,
                "{} modules, {} functions: {} errors, {} warnings, {} lints ({} denied)",
                report.stats.modules, report.stats.functions, errors, warnings, lints, denied
            )?;
        }
        Ok(())
    });
    if denied > 0 {
        return ExitCode::FAILURE;
    }
    printed
}

/// One fuzz iteration's corpus: a small generated corpus, printed to text so
/// it can be corrupted the way on-disk inputs get corrupted.
fn fuzz_corpus_texts(seed: u64) -> Vec<(String, String)> {
    let spec = workloads::CorpusSpec {
        name: format!("fuzz{seed}"),
        num_modules: 4,
        functions_per_module: 4,
        size_range: (8, 24),
        seed,
        ..Default::default()
    };
    spec.generate()
        .into_iter()
        .map(|m| (m.name.clone(), print_module(&m)))
        .collect()
}

/// Parses `text` through the recovering frontend and keeps the module only
/// if it verifies — the same policy [`load_module`] applies to files on
/// disk. Returns the module (if usable) and the number of skipped functions.
fn fuzz_load(name: &str, text: &str) -> (Option<Module>, usize) {
    let recovered = ssa_ir::parse_module_recovering(text);
    let skipped = recovered.skipped.len();
    let mut module = recovered.module;
    module.name = name.to_string();
    if verify_module(&module).is_empty() {
        (Some(module), skipped)
    } else {
        (None, skipped)
    }
}

/// Adversarial-input smoke mode: generate corpora, corrupt them with
/// [`workloads::mutate_text`], and drive the full parse → index → xmerge
/// pipeline over the wreckage. Fails when anything unwinds out of the
/// pipeline, or when recovery on/off diverges on the clean (uncorrupted)
/// subset — recovery must be observationally pure on inputs that never
/// needed it.
fn run_fuzz(cli: &Cli) -> ExitCode {
    // The pipeline's own panic isolation handles per-candidate failures; the
    // fuzzer additionally absorbs anything that escapes, counting it as an
    // abort. Silence the default hook so absorbed panics don't spray
    // backtraces over the summary — the abort count is the signal.
    let prior_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut aborts = 0usize;
    let mut functions_skipped = 0usize;
    let mut modules_dropped = 0usize;
    let mut runs_completed = 0usize;
    let mut divergences = 0usize;
    for iter in 0..cli.fuzz_iters {
        let seed = cli.fuzz_seed.wrapping_add(iter as u64);
        let texts = fuzz_corpus_texts(seed);

        // Clean subset: recovery on a well-formed corpus must be invisible —
        // same modules, same commits — as the strict parse.
        let clean = std::panic::catch_unwind(|| {
            let mut strict: Vec<Module> = Vec::new();
            let mut recovering: Vec<Module> = Vec::new();
            for (name, text) in &texts {
                let mut m = parse_module(text).expect("generated corpus must parse strictly");
                m.name = name.clone();
                strict.push(m);
                let (m, skipped) = fuzz_load(name, text);
                assert_eq!(skipped, 0, "recovery found phantom errors in clean input");
                recovering.push(m.expect("clean module must verify"));
            }
            let config = XMergeConfig::new();
            let ra = xmerge::xmerge_corpus(&mut strict, &config);
            let rb = xmerge::xmerge_corpus(&mut recovering, &config);
            let print_all =
                |ms: &[Module]| ms.iter().map(print_module).collect::<Vec<_>>().join("\n");
            ra.num_commits() == rb.num_commits() && print_all(&strict) == print_all(&recovering)
        });
        match clean {
            Ok(true) => {}
            Ok(false) => divergences += 1,
            Err(_) => aborts += 1,
        }

        // Corrupted corpus: every module text gets one seeded mutation, and
        // the whole load → xmerge pipeline must degrade, not die.
        let outcome = std::panic::catch_unwind(|| {
            let mut modules: Vec<Module> = Vec::new();
            let mut skipped_total = 0usize;
            let mut dropped = 0usize;
            for (i, (name, text)) in texts.iter().enumerate() {
                let (mutated, _) = workloads::mutate_text(text, seed ^ (i as u64) << 32);
                let (module, skipped) = fuzz_load(name, &mutated);
                skipped_total += skipped;
                match module {
                    Some(m) => modules.push(m),
                    None => dropped += 1,
                }
            }
            if !modules.is_empty() {
                let config = XMergeConfig::new();
                let report = xmerge::xmerge_corpus(&mut modules, &config);
                for module in &modules {
                    assert!(
                        verify_module(module).is_empty(),
                        "xmerge broke verification on a recovered module"
                    );
                }
                drop(report);
            }
            (skipped_total, dropped)
        });
        match outcome {
            Ok((skipped, dropped)) => {
                functions_skipped += skipped;
                modules_dropped += dropped;
                runs_completed += 1;
            }
            Err(_) => aborts += 1,
        }
    }
    std::panic::set_hook(prior_hook);
    let failed = aborts > 0 || divergences > 0;
    let printed = emit(|out| {
        if cli.json {
            writeln!(
                out,
                r#"{{"kind":"fuzz","iterations":{},"runs_completed":{},"functions_skipped":{},"modules_dropped":{},"clean_subset_divergences":{},"aborts":{}}}"#,
                cli.fuzz_iters,
                runs_completed,
                functions_skipped,
                modules_dropped,
                divergences,
                aborts
            )?;
        } else {
            writeln!(
                out,
                "fuzz: {} iterations (seed base {}): {} corrupted runs completed, {} functions skipped by recovery, {} modules dropped at verification, {} clean-subset divergences, {} aborts",
                cli.fuzz_iters,
                cli.fuzz_seed,
                runs_completed,
                functions_skipped,
                modules_dropped,
                divergences,
                aborts
            )?;
            writeln!(
                out,
                "{}",
                if failed {
                    "FAILED: the pipeline must degrade gracefully, never abort or diverge"
                } else {
                    "pipeline degraded gracefully on every corrupted input"
                }
            )?;
        }
        Ok(())
    });
    if failed {
        return ExitCode::FAILURE;
    }
    printed
}

fn run_profile(cli: &Cli) -> ExitCode {
    let input = &cli.inputs[0];
    let text = match std::fs::read_to_string(input) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: {input}: {e}");
            return ExitCode::from(2);
        }
    };
    match telemetry::Profile::from_chrome_json(&text) {
        Ok(profile) => emit(|out| write!(out, "{}", profile.render())),
        Err(e) => {
            eprintln!("error: {input}: not a readable Chrome trace: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_report(cli: &Cli) -> ExitCode {
    let mut recovery = RecoveryStats::default();
    let mut modules: Vec<Module> = Vec::new();
    for input in &cli.inputs {
        match load_corpus(input, cli.recovery, &mut recovery) {
            Ok(found) => modules.extend(found),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(code) = deny_recovery_gate(cli, &recovery) {
        return code;
    }
    if modules.is_empty() {
        return emit(|out| writeln!(out, "0 modules (0 functions); nothing to report"));
    }
    let merger = SalSsaMerger::new(cli.options);
    let mut entries: Vec<String> = Vec::new();
    let mut failed = false;
    for module in &mut modules {
        let name = module.name.clone();
        let functions_before = module.num_functions();
        let size_before = module_size_bytes(module, cli.options.target);
        let mut report = merge_module(module, &merger, &cli.config);
        report.functions_skipped = recovery.skipped_in(&name);
        report.modules_recovered = usize::from(report.functions_skipped > 0);
        if !verify_module(module).is_empty() {
            eprintln!("error: module {name} FAILED verification after merging");
            failed = true;
            continue;
        }
        let size_after = module_size_bytes(module, cli.options.target);
        if cli.json {
            entries.push(merge_report_json(
                &name,
                &report,
                (functions_before, module.num_functions()),
                (size_before, size_after),
            ));
        } else {
            entries.push(format!(
                "{name}: {} merges, {} -> {} bytes ({:.1}% reduction), {} semantic rejections",
                report.num_merges(),
                size_before,
                size_after,
                100.0 * size_before.saturating_sub(size_after) as f64 / size_before.max(1) as f64,
                report.semantic_rejections
            ));
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    emit(|out| {
        if cli.json {
            writeln!(out, "[{}]", entries.join(","))?;
        } else {
            for line in &entries {
                writeln!(out, "{line}")?;
            }
            writeln!(out, "{} modules reported", entries.len())?;
        }
        Ok(())
    })
}
