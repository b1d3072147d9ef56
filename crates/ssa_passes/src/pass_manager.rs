//! A minimal pass manager with per-pass timing, modelling the "rest of the
//! compilation pipeline" that the paper's compile-time figure (Figure 24)
//! normalizes against.

use crate::simplify_cfg::{self, SimplifyStats};
use crate::{constant_fold, dce, phi_dedup};
use ssa_ir::{Function, Module};
use std::time::{Duration, Instant};

/// Timing record of one pass over one function.
#[derive(Debug, Clone, PartialEq)]
pub struct PassTiming {
    /// Name of the pass.
    pub pass: &'static str,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Aggregated timings of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Per-pass accumulated timings.
    pub timings: Vec<PassTiming>,
    /// Number of functions processed.
    pub functions: usize,
}

impl PipelineReport {
    /// Total wall-clock time of the pipeline.
    pub fn total(&self) -> Duration {
        self.timings.iter().map(|t| t.elapsed).sum()
    }

    fn add(&mut self, pass: &'static str, elapsed: Duration) {
        if let Some(t) = self.timings.iter_mut().find(|t| t.pass == pass) {
            t.elapsed += elapsed;
        } else {
            self.timings.push(PassTiming { pass, elapsed });
        }
    }
}

/// Runs the standard clean-up pipeline on one function: CFG simplification,
/// constant folding, phi simplification and dead-code elimination, iterated
/// twice (mirroring `-Os`-style clean-up after function merging).
///
/// A sweep in which no pass changed anything leaves the function as it found
/// it, so the next sweep would change nothing either and is skipped.
pub fn cleanup_function(function: &mut Function) {
    for _ in 0..2 {
        let simplified = simplify_cfg::simplify(function);
        let folded = constant_fold::fold_constants(function);
        let phis = phi_dedup::simplify_phis(function);
        let dead = dce::eliminate_dead_code(function);
        if simplified == SimplifyStats::default() && folded + phis + dead == 0 {
            return;
        }
    }
}

/// Runs the clean-up pipeline on every function of a module, returning timing
/// information (used by the compile-time experiments).
pub fn cleanup_module(module: &mut Module) -> PipelineReport {
    let mut report = PipelineReport {
        functions: module.num_functions(),
        ..PipelineReport::default()
    };
    for function in module.functions_mut() {
        // The sweeps of `cleanup_function`, timed pass by pass.
        for _ in 0..2 {
            let t = Instant::now();
            let simplified = simplify_cfg::simplify(function);
            report.add("simplify-cfg", t.elapsed());

            let t = Instant::now();
            let folded = constant_fold::fold_constants(function);
            report.add("constant-fold", t.elapsed());

            let t = Instant::now();
            let phis = phi_dedup::simplify_phis(function);
            report.add("phi-simplify", t.elapsed());

            let t = Instant::now();
            let dead = dce::eliminate_dead_code(function);
            report.add("dce", t.elapsed());

            if simplified == SimplifyStats::default() && folded + phis + dead == 0 {
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_module;
    use ssa_ir::verifier::assert_valid;

    #[test]
    fn cleanup_shrinks_messy_function() {
        let text = r#"
define i32 @messy(i32 %x) {
entry:
  %dead = mul i32 %x, 7
  br label %fwd
fwd:
  br label %work
work:
  %a = add i32 %x, 0
  %b = add i32 %a, 2
  br i1 true, label %good, label %bad
good:
  ret i32 %b
bad:
  ret i32 0
}
"#;
        let mut m = parse_module(text).unwrap();
        let before = m.total_insts();
        let report = cleanup_module(&mut m);
        assert_eq!(report.functions, 1);
        assert!(m.total_insts() < before);
        for f in m.functions() {
            assert_valid(f);
        }
        assert!(!report.timings.is_empty());
        assert!(report.total() >= Duration::ZERO);
    }

    #[test]
    fn cleanup_preserves_already_clean_code() {
        let text = "define i32 @clean(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}";
        let mut m = parse_module(text).unwrap();
        cleanup_module(&mut m);
        assert_eq!(m.total_insts(), 2);
    }
}
