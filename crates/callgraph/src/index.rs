//! The call-site index: per-module summaries of who calls what.
//!
//! Scanning instructions is the expensive part of call-graph construction, so
//! it is split off into a per-module summary keyed by
//! [`ssa_ir::Module::content_hash`] — the same in-memory incremental-rebuild
//! discipline as the `xmerge` summary index. A fixpoint round re-summarizes
//! only the modules a commit touched; symbol resolution (which depends on
//! *other* modules) is redone cheaply from the summaries by
//! [`crate::CallGraph::resolve`].

use rayon::prelude::*;
use ssa_ir::{Linkage, Module};

/// The static call sites of one defined function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionCalls {
    /// Symbol name of the caller.
    pub name: String,
    /// Linkage of the caller (resolution needs to know which definitions are
    /// externally visible).
    pub linkage: Linkage,
    /// `(callee symbol, static call-site count)`, sorted by callee name.
    pub callees: Vec<(String, u32)>,
}

/// The call-site summary of one module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleCalls {
    /// Module name.
    pub module: String,
    /// Content hash of the module the summary was computed from
    /// ([`Module::content_hash`]); zero disables reuse.
    pub content_hash: u64,
    /// One entry per defined function, in module order.
    pub functions: Vec<FunctionCalls>,
}

impl ModuleCalls {
    /// Summarizes every function of `module`.
    pub fn build(module: &Module) -> ModuleCalls {
        ModuleCalls::build_hashed(module, module.content_hash())
    }

    /// [`ModuleCalls::build`] for a module whose content hash the caller has
    /// already computed (hashing reads every function's structural key).
    fn build_hashed(module: &Module, content_hash: u64) -> ModuleCalls {
        ModuleCalls {
            module: module.name.clone(),
            content_hash,
            functions: module
                .functions()
                .iter()
                .map(|f| {
                    let mut callees: Vec<(String, u32)> = f.callee_counts().into_iter().collect();
                    callees.sort_unstable();
                    FunctionCalls {
                        name: f.name.clone(),
                        linkage: f.linkage,
                        callees,
                    }
                })
                .collect(),
        }
    }
}

/// How much of an incremental rebuild was served from a prior index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallIndexReuse {
    /// Modules whose summaries were copied from the prior index unchanged.
    pub reused: usize,
    /// Modules that were (re-)scanned.
    pub refreshed: usize,
}

impl CallIndexReuse {
    /// Folds another rebuild's reuse statistics into this one.
    pub fn absorb(&mut self, other: CallIndexReuse) {
        self.reused += other.reused;
        self.refreshed += other.refreshed;
    }
}

/// The whole-corpus call-site index: per-module summaries in corpus order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorpusCallIndex {
    /// One summary per module.
    pub modules: Vec<ModuleCalls>,
}

impl CorpusCallIndex {
    /// Builds the index of a whole corpus, scanning modules in parallel.
    pub fn build(modules: &[Module]) -> CorpusCallIndex {
        CorpusCallIndex::build_incremental(modules, None).0
    }

    /// Builds the index, reusing `prior` summaries for every module whose
    /// content hash is unchanged (matched by module name). Only changed or
    /// unknown modules are re-scanned — in parallel.
    pub fn build_incremental(
        modules: &[Module],
        prior: Option<&CorpusCallIndex>,
    ) -> (CorpusCallIndex, CallIndexReuse) {
        let prior_by_name: std::collections::HashMap<&str, &ModuleCalls> = prior
            .map(|p| p.modules.iter().map(|m| (m.module.as_str(), m)).collect())
            .unwrap_or_default();
        let per_module: Vec<(bool, ModuleCalls)> = modules
            .par_iter()
            .map(|m| {
                let hash = m.content_hash();
                if let Some(prev) = prior_by_name.get(m.name.as_str()) {
                    if prev.content_hash == hash && hash != 0 {
                        return (true, (*prev).clone());
                    }
                }
                (false, ModuleCalls::build_hashed(m, hash))
            })
            .collect();
        let mut reuse = CallIndexReuse::default();
        let mut index = CorpusCallIndex::default();
        for (reused, mc) in per_module {
            if reused {
                reuse.reused += 1;
            } else {
                reuse.refreshed += 1;
            }
            index.modules.push(mc);
        }
        (index, reuse)
    }

    /// Number of summarized functions across the corpus.
    pub fn num_functions(&self) -> usize {
        self.modules.iter().map(|m| m.functions.len()).sum()
    }

    /// Total static call sites across the corpus.
    pub fn num_call_sites(&self) -> u64 {
        self.modules
            .iter()
            .flat_map(|m| &m.functions)
            .flat_map(|f| &f.callees)
            .map(|(_, count)| u64::from(*count))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_module;

    fn corpus() -> Vec<Module> {
        let mut a = parse_module(
            "define i32 @main_a(i32 %x) {\nentry:\n  %r = call i32 @shared(i32 %x)\n  %s = call i32 @shared(i32 %r)\n  ret i32 %s\n}\n\ndefine internal i32 @shared(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}",
        )
        .unwrap();
        a.name = "a".to_string();
        let mut b = parse_module(
            "define i32 @main_b(i32 %x) {\nentry:\n  %r = call i32 @ext(i32 %x)\n  ret i32 %r\n}",
        )
        .unwrap();
        b.name = "b".to_string();
        vec![a, b]
    }

    #[test]
    fn summaries_count_static_sites_and_carry_linkage() {
        let index = CorpusCallIndex::build(&corpus());
        assert_eq!(index.modules.len(), 2);
        assert_eq!(index.num_functions(), 3);
        assert_eq!(index.num_call_sites(), 3);
        let main_a = &index.modules[0].functions[0];
        assert_eq!(main_a.callees, vec![("shared".to_string(), 2)]);
        assert_eq!(index.modules[0].functions[1].linkage, Linkage::Internal);
    }

    #[test]
    fn incremental_rebuild_reuses_unchanged_modules() {
        let mut modules = corpus();
        let (full, reuse) = CorpusCallIndex::build_incremental(&modules, None);
        assert_eq!(
            reuse,
            CallIndexReuse {
                reused: 0,
                refreshed: 2
            }
        );
        let (again, reuse) = CorpusCallIndex::build_incremental(&modules, Some(&full));
        assert_eq!(
            reuse,
            CallIndexReuse {
                reused: 2,
                refreshed: 0
            }
        );
        assert_eq!(again, full);
        // Function reordering is reuse-safe: the content hash is
        // order-independent, and static call counts do not depend on order.
        modules[0].functions_mut().reverse();
        let (reordered, reuse) = CorpusCallIndex::build_incremental(&modules, Some(&full));
        assert_eq!(reuse.reused, 2, "reordering must not invalidate the cache");
        assert_eq!(reordered, full, "reused summaries keep their prior order");
        // A genuine content change re-scans exactly the touched module.
        let f = modules[1].function_mut("main_b").unwrap();
        f.set_name("main_b2");
        let (_, reuse) = CorpusCallIndex::build_incremental(&modules, Some(&full));
        assert_eq!(
            reuse,
            CallIndexReuse {
                reused: 1,
                refreshed: 1
            }
        );
    }
}
