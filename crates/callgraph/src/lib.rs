//! # `callgraph` — the whole-program call-graph subsystem
//!
//! The merge pipeline's profitability model counts instruction savings, but
//! *where* a merged body lives decides how many call sites become
//! cross-module thunk hops. This crate supplies the missing analysis layer:
//!
//! * [`index`] — an incrementally rebuildable, in-memory **call-site
//!   index**: per-module summaries of every defined function's static call
//!   sites, keyed by [`ssa_ir::Module::content_hash`] exactly like the
//!   `xmerge` summary index, so fixpoint rounds only re-scan modules a commit
//!   touched;
//! * [`graph`] — the **resolved call graph**: direct-call edges with
//!   per-edge static call-site counts under linker-style symbol resolution
//!   (own module first, then the first externally visible definition;
//!   internal symbols never captured across modules), Tarjan **SCC
//!   condensation**, and per-function [`Locality`] summaries whose
//!   [`Locality::coupling`] is the placement cost the cross-module
//!   host-selection policy minimizes;
//! * [`regions`] — **module region partitioning**: connected components over
//!   cross-module call edges, shared external definitions and candidate
//!   pairs, splitting the corpus into independent sub-programs.
//!
//! ## Example
//!
//! ```rust
//! use callgraph::{CallGraph, CorpusCallIndex};
//! use ssa_ir::parse_module;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = parse_module(
//!     "define i32 @f(i32 %x) {\nentry:\n  %a = call i32 @g(i32 %x)\n  %b = call i32 @g(i32 %a)\n  ret i32 %b\n}\n\ndefine i32 @g(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}",
//! )?;
//! m.name = "m".to_string();
//! let graph = CallGraph::resolve(&CorpusCallIndex::build(&[m]));
//! assert_eq!(graph.num_edges(), 1);
//! assert_eq!(graph.edges[0].count, 2);
//! let g = graph.node_id(0, "g").unwrap();
//! assert_eq!(graph.locality()[g].intra_callers, 2);
//! # Ok(())
//! # }
//! ```

pub mod graph;
pub mod index;
pub mod regions;

pub use graph::{CallEdge, CallGraph, CallNode, Condensation, Locality};
pub use index::{CallIndexReuse, CorpusCallIndex, FunctionCalls, ModuleCalls};
pub use regions::module_regions;
