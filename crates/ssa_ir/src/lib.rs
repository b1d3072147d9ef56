//! # `ssa_ir` — a compact SSA intermediate representation
//!
//! This crate is the substrate of the reproduction of *Effective Function
//! Merging in the SSA Form* (Rocha et al., PLDI 2020). It provides everything
//! the merging algorithms need from an LLVM-like IR:
//!
//! * a first-order [`Type`] system and [`Value`]s (constants, arguments,
//!   instruction results),
//! * [`InstKind`]s covering arithmetic, comparisons, selects, calls/invokes
//!   with landing pads, memory operations, casts, phi-nodes and terminators,
//! * mutable [`Function`]s made of basic blocks, plus [`Module`]s,
//! * a [`builder::FunctionBuilder`], a textual [`printer`] and [`parser`],
//! * a dominator analysis, [`dominators::DomTree`],
//! * a [`verifier`] that checks structural, type and SSA dominance rules,
//! * and a [`linker`] for symbol renaming, cross-module function import with
//!   ODR-style deduplication, and whole-program linking.
//!
//! ## Example
//!
//! ```rust
//! use ssa_ir::{parse_function, print_function, verifier};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let f = parse_function(
//!     "define i32 @double(i32 %x) {\nentry:\n  %r = add i32 %x, %x\n  ret i32 %r\n}",
//! )?;
//! assert!(verifier::verify_function(&f).is_empty());
//! println!("{}", print_function(&f));
//! # Ok(())
//! # }
//! ```

pub mod builder;
mod cfg_memo;
pub mod dominators;
pub mod function;
pub mod ids;
pub mod instruction;
pub mod linker;
pub mod module;
pub mod parser;
pub mod printer;
pub mod types;
pub mod value;
pub mod verifier;

pub use builder::FunctionBuilder;
pub use dominators::DomTree;
pub use function::{structural_key_counters, BlockData, Function, Linkage};
pub use ids::{Arena, BlockId, EntityId, InstId};
pub use instruction::{BinOp, CastKind, ICmpPred, InstData, InstKind};
pub use linker::{
    callees_of, import_function, link_modules, link_modules_with_renames, localized_symbol,
    rename_symbol, sanitize_symbol, structurally_equal, ImportOutcome, LinkError, LinkRenames,
};
pub use module::{FuncDecl, Module};
pub use parser::{
    parse_function, parse_module, parse_module_recovering, ParseError, RecoveredModule,
    SkippedFunction,
};
pub use printer::{print_function, print_module, Namer};
pub use types::Type;
pub use value::{Constant, Value};
