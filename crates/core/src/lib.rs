//! # `salssa` — Effective Function Merging in the SSA Form
//!
//! A from-scratch Rust implementation of **SalSSA** (Rocha, Petoumenos, Wang,
//! Cole, Leather — PLDI 2020): function merging by sequence alignment with
//! full support for the SSA form, i.e. without the register demotion that the
//! previous state of the art (FMSA) depends on.
//!
//! The pipeline for one pair of functions is:
//!
//! 1. linearization and Needleman–Wunsch alignment ([`fm_align`]),
//! 2. CFG-driven code generation with the function-identifier parameter
//!    (`%fid`), operand `select`s, label selection, operand reordering, the
//!    xor-branch trick and landing blocks ([`codegen`]),
//! 3. SSA repair with **phi-node coalescing** ([`ssa_repair`]),
//! 4. clean-up ([`ssa_passes`]) and verification.
//!
//! Whole-module merging with fingerprint-based candidate ranking, the
//! profitability cost model, exploration thresholds and thunk creation lives
//! in [`driver`], over the merge planner of [`plan`]. The `salssa`
//! binary (`cargo run --bin salssa -- <file.ll>`) runs the whole
//! parse → merge → verify → report pipeline over a module on disk.
//!
//! ## Example
//!
//! ```rust
//! use salssa::{merge_pair, MergeOptions};
//! use ssa_ir::parse_function;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f1 = parse_function(
//!     "define i32 @f1(i32 %x) {\nentry:\n  %r = call i32 @work(i32 %x)\n  %s = add i32 %r, 1\n  ret i32 %s\n}",
//! )?;
//! let f2 = parse_function(
//!     "define i32 @f2(i32 %x) {\nentry:\n  %r = call i32 @work(i32 %x)\n  %s = add i32 %r, 2\n  ret i32 %s\n}",
//! )?;
//! let merged = merge_pair(&f1, &f2, &MergeOptions::default(), "merged").expect("mergeable");
//! assert!(merged.merged_size() < f1.num_insts() + f2.num_insts());
//! # Ok(())
//! # }
//! ```

pub mod codegen;
pub mod driver;
pub mod merge;
pub mod options;
pub mod plan;
pub mod ssa_repair;

pub use codegen::{CodegenMaps, Side, FID};
pub use driver::{
    build_thunk, estimate_profit, merge_module, merge_module_with_memo, DriverConfig, DriverMode,
    FunctionMerger, MergeRecord, ModuleMergeReport, PassWork, SalSsaMerger, SEMANTIC_SAMPLES,
    SEMANTIC_SEED,
};
pub use merge::{merge_pair, merge_pair_with_distance, PairMerge, Refused};
pub use options::MergeOptions;
pub use plan::{run_plan, CandidateSource, CommitOutcome, PlanStats, ScoreCache};
pub use ssa_repair::{repair, RepairStats};
