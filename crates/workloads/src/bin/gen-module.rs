//! `gen-module` — print a deterministic synthetic SSA module to stdout.
//!
//! Used to (re)generate the `.ll` inputs shipped under `examples/`, e.g.:
//!
//! ```text
//! cargo run -p workloads --bin gen-module -- --seed 7 --functions 24 \
//!     --clone-fraction 0.6 --name clone_heavy > examples/clone_heavy.ll
//! ```
//!
//! A bad, missing or unknown flag prints `error: <what>` and the usage text
//! on stderr and exits with status 2.

use ssa_ir::print_module;
use std::process::ExitCode;
use workloads::{BenchmarkSpec, Divergence};

const USAGE: &str = "\
usage: gen-module [options] > <module.ll>

Prints a deterministic synthetic module with clone families to stdout.

options:
      --seed <N>             generation seed (default 7)
      --functions <N>        number of functions (default 24)
      --min-size <N>         smallest function size, in IR instructions
                             (default 12)
      --max-size <N>         largest function size, in IR instructions
                             (default 40)
      --clone-fraction <F>   fraction of functions in clone families
                             (default 0.6)
      --family-size <N>      typical clone-family size (default 3)
      --name <name>          module name (default clone_heavy)
      --demote               register-demote every function (reg2mem)
";

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// Parses the flags into the module spec and the `--demote` switch.
fn parse_args(args: &[String]) -> Result<(BenchmarkSpec, bool), String> {
    let mut spec = BenchmarkSpec {
        name: "clone_heavy".to_string(),
        num_functions: 24,
        size_range: (12, 40),
        clone_fraction: 0.6,
        family_size: 3,
        divergence: Divergence::medium(),
        seed: 7,
    };
    let mut demote = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--seed" => spec.seed = parse_num(arg, value(arg)?)?,
            "--functions" => spec.num_functions = parse_num(arg, value(arg)?)?,
            "--clone-fraction" => spec.clone_fraction = parse_num(arg, value(arg)?)?,
            "--family-size" => spec.family_size = parse_num(arg, value(arg)?)?,
            "--name" => spec.name = value(arg)?.to_string(),
            "--min-size" => spec.size_range.0 = parse_num(arg, value(arg)?)?,
            "--max-size" => spec.size_range.1 = parse_num(arg, value(arg)?)?,
            // Register-demote every function (reg2mem), producing the
            // FMSA-shaped long-sequence inputs of the Figure 22/23
            // experiments without needing the FMSA driver.
            "--demote" => demote = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok((spec, demote))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (spec, demote) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut module = spec.generate();
    if demote {
        for function in module.functions_mut() {
            ssa_passes::reg2mem::demote_function(function);
        }
    }
    let errors = ssa_ir::verifier::verify_module(&module);
    assert!(errors.is_empty(), "generated module is invalid: {errors:?}");
    print!("{}", print_module(&module));
    ExitCode::SUCCESS
}
