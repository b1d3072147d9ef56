//! The output check: merged modules must verify, and every original symbol
//! must behave the same before and after merging when run by the
//! independent `ssa_interp` interpreter on fixed input vectors.

use ssa_interp::{ExecOutcome, InterpError, Interpreter};
use ssa_ir::verifier::verify_module;
use ssa_ir::{link_modules, Module};
use ssa_passes::{cleanup_module, module_size_bytes, Target};

/// The fixed inputs of every execution: `[x, x + 1, x + 2]` for each `x`,
/// the argument vectors of the paper-figure runtime experiment.
const INPUTS: [i64; 3] = [3, 17, 64];

/// What the check found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckReport {
    /// Executions compared plus output modules verified.
    pub attempted: u64,
    /// Executions whose return value, external-call trace or error differed,
    /// plus output modules that failed verification.
    pub failed: u64,
    /// Interpreter steps over executions that completed on both sides.
    pub steps_before: u64,
    pub steps_after: u64,
    /// Executions that failed the same way on both sides (most often the
    /// interpreter's step limit: a loop that never ends under the model of
    /// external calls).
    pub both_failed: u64,
    /// Modelled size (X86-like) of the cleaned input and cleaned output.
    pub size_before: u64,
    pub size_after: u64,
    /// First few failures, for the log.
    pub examples: Vec<String>,
}

impl CheckReport {
    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn runtime_ratio(&self) -> f64 {
        self.steps_after as f64 / self.steps_before.max(1) as f64
    }

    pub fn size_reduction_pct(&self) -> f64 {
        100.0 * (self.size_before as f64 - self.size_after as f64) / self.size_before.max(1) as f64
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }

    /// Runs every function `before` defines in both programs and compares.
    fn compare_programs(&mut self, before: &Module, after: &Module) {
        for function in before.functions() {
            for x in INPUTS {
                let args = [x, x + 1, x + 2];
                let ra = Interpreter::new(before).run(&function.name, &args);
                let rb = Interpreter::new(after).run(&function.name, &args);
                self.attempted += 1;
                if let Err(why) = same_behaviour(&ra, &rb) {
                    self.fail(format!("@{}{args:?}: {why}", function.name));
                } else if let (Ok(a), Ok(b)) = (&ra, &rb) {
                    self.steps_before += a.steps;
                    self.steps_after += b.steps;
                } else {
                    self.both_failed += 1;
                }
            }
        }
    }
}

/// The oracle's notion of equivalence: equal errors, or equal return values
/// and equal external-call traces.
fn same_behaviour(
    a: &Result<ExecOutcome, InterpError>,
    b: &Result<ExecOutcome, InterpError>,
) -> Result<(), String> {
    match (a, b) {
        (Err(ea), Err(eb)) if ea == eb => Ok(()),
        (Ok(a), Ok(b)) => {
            let (ra, rb) = (a.ret.map(|v| v.as_int()), b.ret.map(|v| v.as_int()));
            if ra != rb {
                Err(format!("returns {ra:?} vs {rb:?}"))
            } else if a.external_calls != b.external_calls {
                Err("external call traces differ".to_string())
            } else {
                Ok(())
            }
        }
        (a, b) => Err(format!(
            "outcomes differ: {:?} vs {:?}",
            a.as_ref().err(),
            b.as_ref().err()
        )),
    }
}

/// Checks `output` against `input`. Corpus workloads compare the two linked
/// whole programs (a donor's thunk calls into its host module); per-module
/// workloads compare module by module.
pub fn check(input: &[Module], output: &[Module], corpus: bool) -> CheckReport {
    let mut report = CheckReport::default();
    for module in output {
        report.attempted += 1;
        if let Some(error) = verify_module(module).first() {
            report.fail(format!(
                "{}: merged module fails verification: {error:?}",
                module.name
            ));
        }
    }
    let size = |modules: &[Module]| -> u64 {
        modules
            .iter()
            .map(|m| {
                let mut m = m.clone();
                cleanup_module(&mut m);
                module_size_bytes(&m, Target::X86Like) as u64
            })
            .sum()
    };
    report.size_before = size(input);
    report.size_after = size(output);
    if corpus {
        match (link_modules(input, "before"), link_modules(output, "after")) {
            (Ok(before), Ok(after)) => report.compare_programs(&before, &after),
            (Err(e), _) | (_, Err(e)) => report.fail(format!("linking failed: {e:?}")),
        }
    } else {
        for (before, after) in input.iter().zip(output) {
            report.compare_programs(before, after);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_module;

    const ORIGINAL: &str = "define i32 @f(i32 %x, i32 %y) {\nentry:\n  %a = add i32 %x, %y\n  %b = call i32 @ext(i32 %a)\n  ret i32 %b\n}\n\ndefine i32 @g(i32 %x, i32 %y) {\nentry:\n  %a = mul i32 %x, %y\n  ret i32 %a\n}\n";

    fn module(text: &str, name: &str) -> Module {
        let mut m = parse_module(text).expect("test module parses");
        m.name = name.to_string();
        m
    }

    #[test]
    fn faithful_output_passes() {
        let input = vec![module(ORIGINAL, "m")];
        let report = check(&input, &input.clone(), false);
        assert_eq!(report.failed, 0);
        assert_eq!(report.attempted, 1 + 2 * INPUTS.len() as u64);
        assert_eq!(report.runtime_ratio(), 1.0);
        assert_eq!(report.size_reduction_pct(), 0.0);
    }

    #[test]
    fn wrong_merged_module_is_reported() {
        let input = vec![module(ORIGINAL, "m")];
        // @g now adds where it multiplied: a miscompiled merge.
        let wrong = vec![module(&ORIGINAL.replace("mul i32", "add i32"), "m")];
        for corpus in [false, true] {
            let report = check(&input, &wrong, corpus);
            assert_eq!(report.failed, INPUTS.len() as u64, "{corpus}");
            assert!(report.failed_pct() > 0.0);
        }
    }

    #[test]
    fn a_miscompiled_merge_of_a_real_corpus_is_reported() {
        let input = workloads::CorpusSpec::default().generate();
        let mut output = input.clone();
        let report = xmerge::xmerge_corpus(&mut output, &xmerge::XMergeConfig::new());
        assert!(report.num_merges() > 0);
        assert_eq!(check(&input, &output, true).failed, 0);
        // Swap in a wrong host module: the first `add` of its merged body
        // becomes a `sub`.
        let host = output
            .iter_mut()
            .find(|m| m.functions().iter().any(|f| f.name.starts_with("merged.")))
            .expect("a module hosts a merged function");
        let text = ssa_ir::print_module(host);
        let body = text.find("@merged.").expect("merged body is printed");
        let add = body + text[body..].find(" = add ").expect("merged body adds");
        let wrong = format!("{} = sub {}", &text[..add], &text[add + " = add ".len()..]);
        *host = module(&wrong, &host.name);
        let report = check(&input, &output, true);
        assert!(report.failed_pct() > 0.0, "{report:?}");
    }

    #[test]
    fn output_failing_verification_counts_as_failure() {
        let input = vec![module(ORIGINAL, "m")];
        let mut broken = input.clone();
        let f = broken[0].function_mut("g").expect("@g exists");
        let entry = f.entry();
        f.clear_terminator(entry);
        let report = check(&input, &broken, false);
        assert!(report.failed >= 1);
    }
}
