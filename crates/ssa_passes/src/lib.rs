//! # `ssa_passes` — analyses and transformations over [`ssa_ir`]
//!
//! The pass library needed by the function-merging reproduction:
//!
//! * [`reg2mem`] — register demotion (the preprocessing FMSA depends on),
//! * [`mem2reg`] — register promotion / standard SSA construction
//!   (Cytron et al.), reused by SalSSA's SSA-repair stage,
//! * [`simplify_cfg`], [`constant_fold`], [`dce`], [`phi_dedup`] — the
//!   post-merge "Simplification" clean-up stage,
//! * [`codesize`] — the object-size model used in place of a machine back end,
//! * [`pass_manager`] — a timed clean-up pipeline used by the compile-time
//!   experiments.
//!
//! ## Example
//!
//! ```rust
//! use ssa_ir::parse_function;
//! use ssa_passes::{mem2reg, reg2mem};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut f = parse_function(
//!     "define i32 @f(i32 %x) {\nentry:\n  %c = icmp sgt i32 %x, 0\n  br i1 %c, label %a, label %b\na:\n  br label %j\nb:\n  br label %j\nj:\n  %p = phi i32 [ 1, %a ], [ 2, %b ]\n  ret i32 %p\n}",
//! )?;
//! let grown = reg2mem::demote_function(&mut f);
//! assert!(grown.growth() > 1.0);
//! let promoted = mem2reg::promote_function(&mut f);
//! assert!(promoted.promoted > 0);
//! # Ok(())
//! # }
//! ```

pub mod codesize;
pub mod constant_fold;
pub mod dce;
pub mod mem2reg;
pub mod pass_manager;
pub mod phi_dedup;
pub mod reg2mem;
pub mod simplify_cfg;
mod subst;

pub use codesize::{function_size_bytes, module_size_bytes, reduction_percent, Target};
pub use mem2reg::{promote_function, Mem2RegStats};
pub use pass_manager::{cleanup_function, cleanup_module, PipelineReport};
pub use reg2mem::{demote_function, Reg2MemStats};
pub use simplify_cfg::simplify;
