//! # `fmsa` — the baseline: Function Merging by Sequence Alignment (CGO 2019)
//!
//! FMSA is the state of the art that SalSSA improves upon and the comparison
//! baseline of every figure in the paper. Its defining property is that its
//! code generator cannot handle phi-nodes, so it must run **register
//! demotion** (`reg2mem`) over every function before it can even attempt a
//! merge (Figure 1 of the paper). That preprocessing
//!
//! * inflates the sequences to align (≈75% on average, Figure 5), which
//!   quadratically inflates alignment time and memory (Figures 22–24), and
//! * introduces stack traffic that frequently cannot be re-promoted after
//!   merging — merged stores whose target address becomes a `select` block
//!   register promotion — leaving bloated, often unprofitable merged functions
//!   (the paper's motivating example).
//!
//! ## Modelling note (documented in DESIGN.md)
//!
//! The original FMSA emits merged code directly from the aligned sequence.
//! This reproduction reuses the CFG-driven generator of the [`salssa`] crate
//! on the *register-demoted* inputs, which contain no phi-nodes — the case in
//! which the two generators coincide. All observable differences between the
//! techniques studied by the paper (demotion bloat, failed re-promotion,
//! quadratic alignment cost, the preprocessing residue) are preserved because
//! they stem from the demotion itself, not from the emission order. Phi-node
//! coalescing is disabled, as FMSA has no equivalent.

use salssa::{FunctionMerger, MergeOptions, PairMerge, Refused};
use ssa_ir::{Function, Module};
use ssa_passes::codesize::Target;
use ssa_passes::{mem2reg, reg2mem};

/// The FMSA baseline merger.
#[derive(Debug, Clone)]
pub struct FmsaMerger {
    /// Code-size target for the profitability model.
    pub target: Target,
    /// Whether the module-wide preprocessing (register demotion of every
    /// function) is applied. Disabling it isolates the "FMSA Residue" effect
    /// measured in Figure 18.
    pub preprocess: bool,
}

impl Default for FmsaMerger {
    fn default() -> Self {
        FmsaMerger {
            target: Target::X86Like,
            preprocess: true,
        }
    }
}

impl FmsaMerger {
    /// Creates an FMSA merger for the given code-size target.
    pub fn new(target: Target) -> FmsaMerger {
        FmsaMerger {
            target,
            ..FmsaMerger::default()
        }
    }

    /// The code-generator options FMSA effectively runs with: no phi-node
    /// coalescing (there are no phi-nodes after demotion), but the same
    /// operand reordering and xor-branch tricks, which FMSA also performs.
    pub fn options(&self) -> MergeOptions {
        MergeOptions {
            phi_coalescing: false,
            target: self.target,
            ..MergeOptions::default()
        }
    }
}

impl FunctionMerger for FmsaMerger {
    fn name(&self) -> &'static str {
        "fmsa"
    }

    /// FMSA must demote every function before merging — this is the source of
    /// the "FMSA Residue" of Figure 18: all functions are touched even when no
    /// merge is ever committed.
    fn preprocess_module(&self, module: &mut Module) {
        if !self.preprocess {
            return;
        }
        for function in module.functions_mut() {
            reg2mem::demote_function(function);
        }
    }

    /// Later stages of the real compilation pipeline re-promote what they can;
    /// modelling them keeps unmerged functions close to their original size
    /// (the residue is small, as the paper reports for SPEC).
    fn postprocess_module(&self, module: &mut Module) {
        if !self.preprocess {
            return;
        }
        for function in module.functions_mut() {
            mem2reg::promote_function(function);
            ssa_passes::cleanup_function(function);
        }
    }

    /// Merges a pair of (already demoted) functions and attempts to promote
    /// the stack slots of the merged function back to registers. Slots whose
    /// address was merged into a `select` cannot be promoted — the effect at
    /// the core of the paper's motivating example.
    fn merge_pair(
        &self,
        f1: &Function,
        f2: &Function,
        merged_name: &str,
    ) -> Result<PairMerge, Refused> {
        let mut pair =
            salssa::merge_pair_with_distance(f1, f2, &self.options(), merged_name, None)?;
        mem2reg::promote_function(&mut pair.merged);
        ssa_passes::cleanup_function(&mut pair.merged);
        if !ssa_ir::verifier::verify_function(&pair.merged).is_empty() {
            return Err(Refused {
                alignment: pair.alignment,
                align_time: pair.align_time,
                codegen_time: pair.codegen_time,
            });
        }
        Ok(pair)
    }

    fn target(&self) -> Target {
        self.target
    }
}

/// Demotes a clone of the function, as FMSA's preprocessing would, and returns
/// it together with the growth statistics (used by the Figure 5 experiment).
pub fn demoted_clone(function: &Function) -> (Function, reg2mem::Reg2MemStats) {
    let mut clone = function.clone();
    let stats = reg2mem::demote_function(&mut clone);
    (clone, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use salssa::{merge_module, DriverConfig, SalSsaMerger};
    use ssa_ir::parse_module;
    use ssa_ir::verifier::verify_module;
    use ssa_passes::module_size_bytes;

    fn near_clone_module() -> Module {
        let template = |name: &str, k1: i32, k2: i32| {
            format!(
                r#"
define i32 @{name}(i32 %n) {{
L1:
  %x0 = call i32 @setup(i32 %n)
  %x0b = add i32 %x0, %n
  %x1 = call i32 @start(i32 %x0b)
  %x1b = xor i32 %x1, %n
  %x2 = icmp slt i32 %x1b, {k1}
  br i1 %x2, label %L2, label %L3
L2:
  %x3 = call i32 @body(i32 %x1)
  %x3b = add i32 %x3, {k2}
  br label %L4
L3:
  %x4 = call i32 @other(i32 %x1)
  %x4b = mul i32 %x4, {k2}
  br label %L4
L4:
  %x5 = phi i32 [ %x3b, %L2 ], [ %x4b, %L3 ]
  %x6 = call i32 @end(i32 %x5)
  ret i32 %x6
}}
"#
            )
        };
        let text = format!("{}\n{}", template("alpha", 0, 3), template("beta", 1, 7));
        parse_module(&text).unwrap()
    }

    #[test]
    fn fmsa_preprocessing_demotes_every_function() {
        let mut module = near_clone_module();
        let before = module.total_insts();
        FmsaMerger::default().preprocess_module(&mut module);
        assert!(module.total_insts() > before);
        for f in module.functions() {
            for b in f.block_ids() {
                assert!(f.block(b).phis.is_empty());
            }
        }
        assert!(verify_module(&module).is_empty());
    }

    #[test]
    fn fmsa_merges_demoted_functions_and_module_stays_valid() {
        let mut module = near_clone_module();
        let merger = FmsaMerger::default();
        let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(1));
        assert!(verify_module(&module).is_empty());
        assert_eq!(report.technique, "fmsa");
        assert!(report.attempts >= 1);
    }

    #[test]
    fn fmsa_aligns_longer_sequences_than_salssa() {
        let mut fmsa_module = near_clone_module();
        let mut salssa_module = near_clone_module();
        let fmsa_report = merge_module(
            &mut fmsa_module,
            &FmsaMerger::default(),
            &DriverConfig::with_threshold(1),
        );
        let salssa_report = merge_module(
            &mut salssa_module,
            &SalSsaMerger::default(),
            &DriverConfig::with_threshold(1),
        );
        assert!(
            fmsa_report.total_cells > salssa_report.total_cells,
            "demotion must lengthen the aligned sequences ({} !> {})",
            fmsa_report.total_cells,
            salssa_report.total_cells
        );
        // The modelled full-matrix footprint (the Figure 22 baseline) must
        // show the quadratic demotion penalty. The *live* footprint of the
        // linear-space engine stays small on both sides — near-clones are
        // resolved mostly by trimming — so it is compared as <=, not <.
        assert!(fmsa_report.peak_full_matrix_bytes > salssa_report.peak_full_matrix_bytes);
        assert!(fmsa_report.peak_matrix_bytes <= fmsa_report.peak_full_matrix_bytes);
        assert!(salssa_report.peak_matrix_bytes <= salssa_report.peak_full_matrix_bytes);
    }

    #[test]
    fn salssa_reduces_size_at_least_as_much_as_fmsa() {
        let mut fmsa_module = near_clone_module();
        let mut salssa_module = near_clone_module();
        let baseline = module_size_bytes(&near_clone_module(), Target::X86Like);
        merge_module(
            &mut fmsa_module,
            &FmsaMerger::default(),
            &DriverConfig::with_threshold(1),
        );
        merge_module(
            &mut salssa_module,
            &SalSsaMerger::default(),
            &DriverConfig::with_threshold(1),
        );
        let fmsa_size = module_size_bytes(&fmsa_module, Target::X86Like);
        let salssa_size = module_size_bytes(&salssa_module, Target::X86Like);
        assert!(
            salssa_size <= fmsa_size,
            "salssa {salssa_size} vs fmsa {fmsa_size}"
        );
        assert!(salssa_size < baseline);
    }

    #[test]
    fn demoted_clone_reports_growth() {
        let module = near_clone_module();
        let (clone, stats) = demoted_clone(module.function("alpha").unwrap());
        assert!(stats.growth() > 1.0);
        assert_eq!(clone.num_insts(), stats.insts_after);
        // The original is untouched.
        assert_eq!(
            module.function("alpha").unwrap().num_insts(),
            stats.insts_before
        );
    }

    #[test]
    fn residue_mode_touches_functions_even_without_merges() {
        // A module with nothing mergeable: preprocessing still rewrites every
        // function (the FMSA Residue), post-processing restores most of it.
        let mut module = parse_module(
            r#"
define i32 @only(i32 %x) {
entry:
  %c = icmp sgt i32 %x, 0
  br i1 %c, label %a, label %b
a:
  br label %j
b:
  br label %j
j:
  %p = phi i32 [ 1, %a ], [ 2, %b ]
  ret i32 %p
}
"#,
        )
        .unwrap();
        let before = module.total_insts();
        let merger = FmsaMerger::default();
        let report = merge_module(&mut module, &merger, &DriverConfig::with_threshold(1));
        assert_eq!(report.num_merges(), 0);
        assert!(verify_module(&module).is_empty());
        // After post-processing the residue is small (within a couple of
        // instructions of the original).
        let after = module.total_insts();
        assert!(
            after <= before + 2,
            "residue too large: {before} -> {after}"
        );
    }
}
