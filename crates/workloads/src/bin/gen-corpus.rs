//! `gen-corpus` — write a deterministic multi-module corpus to a directory.
//!
//! The generated corpus is the input of the cross-module pipeline:
//!
//! ```text
//! cargo run -p workloads --bin gen-corpus -- --modules 8 --out-dir corpus/
//! cargo run --release --bin salssa -- xmerge corpus/
//! ```
//!
//! One `.ll` file is written per module (`<name>_m<i>.ll`); clone families
//! are scattered across modules and a few functions are duplicated verbatim
//! into two modules (the ODR/inline case), so the corpus genuinely exercises
//! cross-module discovery, merging and deduplication.
//!
//! A bad, missing or unknown flag prints `error: <what>` and the usage text
//! on stderr and exits with status 2.

use ssa_ir::print_module;
use std::process::ExitCode;
use workloads::{CorpusSpec, Divergence, PerfTier};

const USAGE: &str = "\
usage: gen-corpus --out-dir <dir> [options]

Writes a deterministic multi-module corpus to <dir>: one .ll file per module
plus a manifest.json of every generation parameter.

options:
      --out-dir <dir>        directory to write the corpus to (required)
      --tier <S|M|L>         start from a pinned tier; later flags override
                             single parameters
      --seed <N>             generation seed
      --modules <N>          number of modules
      --functions <N>        functions per module
      --min-size <N>         smallest function size, in IR instructions
      --max-size <N>         largest function size, in IR instructions
      --clone-fraction <F>   fraction of functions in cross-module clone
                             families
      --family-span <N>      modules each clone family spans
      --divergence <d>       how far clones drift: low, medium or high
      --odr-duplicates <N>   functions duplicated verbatim into two modules
      --intra-call-sites <N> static calls of each module's driver function
      --call-heavy           the call-heavy corpus's driver call count
      --name <name>          corpus name; module i is named <name>_m<i>
      --clean                clean up every function before writing it
";

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// Parses the flags into the corpus spec, the output directory and the
/// `--clean` switch.
fn parse_args(args: &[String]) -> Result<(CorpusSpec, String, bool), String> {
    let mut spec = CorpusSpec::default();
    let mut out_dir: Option<String> = None;
    let mut clean = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            // --tier replaces the whole spec; later flags can still override
            // individual parameters.
            "--tier" => {
                let t = value(arg)?;
                spec = PerfTier::parse(t)
                    .ok_or_else(|| format!("unknown tier '{t}' (S|M|L)"))?
                    .spec();
            }
            "--seed" => spec.seed = parse_num(arg, value(arg)?)?,
            "--modules" => spec.num_modules = parse_num(arg, value(arg)?)?,
            "--functions" => spec.functions_per_module = parse_num(arg, value(arg)?)?,
            "--clone-fraction" => spec.cross_clone_fraction = parse_num(arg, value(arg)?)?,
            "--family-span" => spec.family_span = parse_num(arg, value(arg)?)?,
            "--odr-duplicates" => spec.odr_duplicates = parse_num(arg, value(arg)?)?,
            "--call-heavy" => spec.intra_call_sites = CorpusSpec::call_heavy().intra_call_sites,
            "--intra-call-sites" => spec.intra_call_sites = parse_num(arg, value(arg)?)?,
            "--divergence" => {
                spec.divergence = match value(arg)? {
                    "low" => Divergence::low(),
                    "medium" => Divergence::medium(),
                    "high" => Divergence::high(),
                    other => return Err(format!("unknown divergence '{other}' (low|medium|high)")),
                };
            }
            "--name" => spec.name = value(arg)?.to_string(),
            "--min-size" => spec.size_range.0 = parse_num(arg, value(arg)?)?,
            "--max-size" => spec.size_range.1 = parse_num(arg, value(arg)?)?,
            "--out-dir" => out_dir = Some(value(arg)?.to_string()),
            "--clean" => clean = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let out_dir = out_dir.ok_or("--out-dir <dir> is required")?;
    Ok((spec, out_dir, clean))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, out_dir, clean) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut modules = spec.generate();
    if clean {
        // Model already-optimized input IR (the paper merges after -O2):
        // fold constant branches and strip dead code from every function so
        // the corpus carries no cleanup slack into the merge pipeline.
        for module in &mut modules {
            for function in module.functions_mut() {
                ssa_passes::cleanup_function(function);
            }
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    for module in &modules {
        let errors = ssa_ir::verifier::verify_module(module);
        assert!(
            errors.is_empty(),
            "generated module {} is invalid: {errors:?}",
            module.name
        );
        let path = format!("{}/{}.ll", out_dir.trim_end_matches('/'), module.name);
        if let Err(e) = std::fs::write(&path, print_module(module)) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let functions: usize = modules.iter().map(ssa_ir::Module::num_functions).sum();
    // The manifest echoes every generation parameter (seed included), so a
    // corpus — and any BENCH_xmerge.json entry measured on it — is exactly
    // reproducible. The corpus loader only reads `.ll` files, so the
    // manifest rides along inertly.
    let manifest = format!(
        "{{\"spec\":{},\"clean\":{},\"modules\":{},\"functions\":{}}}\n",
        spec.manifest_json(),
        clean,
        modules.len(),
        functions
    );
    let manifest_path = format!("{}/manifest.json", out_dir.trim_end_matches('/'));
    if let Err(e) = std::fs::write(&manifest_path, manifest) {
        eprintln!("error: cannot write {manifest_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {} modules ({functions} functions) to {out_dir}",
        modules.len()
    );
    ExitCode::SUCCESS
}
