//! The cross-module summary index.
//!
//! A [`FunctionSummary`] is everything candidate discovery needs to know about
//! a function without holding its body: the opcode-frequency fingerprint the
//! intra-module ranking already uses, a MinHash signature over opcode
//! shingles for locality-sensitive bucketing, and size metadata. Summaries are
//! built per module ([`ModuleIndex`]) — cheap, parallel, no cross-module state
//! — and merged into a [`CorpusIndex`] that spans the whole program, the
//! ThinLTO-style split between per-TU summarization and whole-program
//! decisions. The index lives in memory only: between fixpoint rounds
//! [`CorpusIndex::build_incremental`] reuses the summaries of every module
//! whose content hash is unchanged.

use fm_align::{Fingerprint, MinHash};
use rayon::prelude::*;
use ssa_ir::{Function, Module};

/// Everything discovery needs to know about one function, body not included.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSummary {
    /// Name of the module that defines the function.
    pub module: String,
    /// Symbol name.
    pub name: String,
    /// Size in IR instructions.
    pub num_insts: usize,
    /// Length of the linearized sequence (labels + instructions).
    pub seq_len: usize,
    /// Opcode-frequency fingerprint (the intra-module ranking vector).
    pub opcode_counts: Vec<u32>,
    /// MinHash signature over opcode shingles.
    pub minhash: MinHash,
}

impl FunctionSummary {
    /// Summarizes one function of `module_name`.
    pub fn of(module_name: &str, function: &Function, num_hashes: usize) -> FunctionSummary {
        let fp = Fingerprint::of(function);
        FunctionSummary {
            module: module_name.to_string(),
            name: fp.name,
            num_insts: fp.num_insts,
            seq_len: fp.seq_len,
            opcode_counts: fp.opcode_counts,
            minhash: MinHash::of(function, num_hashes),
        }
    }

    /// Manhattan distance between the opcode fingerprints; the candidate
    /// ranking metric (smaller = more similar).
    pub fn distance(&self, other: &FunctionSummary) -> u64 {
        self.opcode_counts
            .iter()
            .zip(&other.opcode_counts)
            .map(|(a, b)| u64::from(a.abs_diff(*b)))
            .sum()
    }
}

/// The summary index of one module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleIndex {
    /// Module name.
    pub module: String,
    /// Content hash of the module the summaries were computed from
    /// ([`Module::content_hash`]); the incremental rebuild skips modules
    /// whose hash is unchanged. Zero never matches, forcing a re-summarize.
    pub content_hash: u64,
    /// One summary per defined function, in module order.
    pub entries: Vec<FunctionSummary>,
}

impl ModuleIndex {
    /// Summarizes every function of `module`.
    pub fn build(module: &Module, num_hashes: usize) -> ModuleIndex {
        ModuleIndex {
            module: module.name.clone(),
            content_hash: module.content_hash(),
            entries: module
                .functions()
                .iter()
                .map(|f| FunctionSummary::of(&module.name, f, num_hashes))
                .collect(),
        }
    }
}

/// How much of an incremental index rebuild was served from a prior index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexReuse {
    /// Modules whose summaries were copied from the prior index unchanged.
    pub reused: usize,
    /// Modules that were (re-)summarized because their content hash changed
    /// or the prior index did not know them.
    pub refreshed: usize,
}

/// The mergeable whole-corpus index: per-module indices concatenated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusIndex {
    /// Signature width every entry was built with.
    pub num_hashes: usize,
    /// All function summaries, grouped by module in insertion order.
    pub entries: Vec<FunctionSummary>,
    /// Module names in insertion order.
    pub modules: Vec<String>,
    /// Per-module content hashes, parallel to `modules`.
    pub module_hashes: Vec<u64>,
}

impl CorpusIndex {
    /// An empty index expecting `num_hashes`-component signatures.
    pub fn new(num_hashes: usize) -> CorpusIndex {
        CorpusIndex {
            num_hashes,
            entries: Vec::new(),
            modules: Vec::new(),
            module_hashes: Vec::new(),
        }
    }

    /// Builds the index of a whole corpus, summarizing modules in parallel.
    pub fn build(modules: &[Module], num_hashes: usize) -> CorpusIndex {
        CorpusIndex::build_incremental(modules, num_hashes, None).0
    }

    /// Builds the index of a corpus, reusing `prior` summaries for every
    /// module whose content hash is unchanged (matched by module name). Only
    /// changed or unknown modules are re-summarized — in parallel. With
    /// `prior = None` this is a full build.
    pub fn build_incremental(
        modules: &[Module],
        num_hashes: usize,
        prior: Option<&CorpusIndex>,
    ) -> (CorpusIndex, IndexReuse) {
        // Prior per-module summaries by name (last one wins on duplicate
        // names; callers uniquify module names before indexing).
        let mut prior_modules: std::collections::HashMap<&str, ModuleIndex> =
            std::collections::HashMap::new();
        if let Some(prior) = prior.filter(|p| p.num_hashes == num_hashes) {
            let mut cursor = 0usize;
            for (name, hash) in prior.modules.iter().zip(&prior.module_hashes) {
                let mut entries = Vec::new();
                while let Some(e) = prior.entries.get(cursor).filter(|e| &e.module == name) {
                    entries.push(e.clone());
                    cursor += 1;
                }
                prior_modules.insert(
                    name,
                    ModuleIndex {
                        module: name.clone(),
                        content_hash: *hash,
                        entries,
                    },
                );
            }
        }
        let mut reuse = IndexReuse::default();
        let per_module: Vec<(bool, ModuleIndex)> = modules
            .par_iter()
            .map(|m| {
                let hash = m.content_hash();
                if let Some(prev) = prior_modules.get(m.name.as_str()) {
                    if prev.content_hash == hash && hash != 0 {
                        return (true, prev.clone());
                    }
                }
                (false, ModuleIndex::build(m, num_hashes))
            })
            .collect();
        let mut index = CorpusIndex::new(num_hashes);
        for (reused, mi) in per_module {
            if reused {
                reuse.reused += 1;
            } else {
                reuse.refreshed += 1;
            }
            index.add(mi);
        }
        (index, reuse)
    }

    /// Merges one module's index into the corpus index.
    pub fn add(&mut self, module: ModuleIndex) {
        self.modules.push(module.module);
        self.module_hashes.push(module.content_hash);
        self.entries.extend(module.entries);
    }

    /// Number of indexed modules.
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Number of indexed functions.
    pub fn num_functions(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_ir::parse_module;

    fn corpus() -> Vec<Module> {
        let mut a = parse_module(
            r#"
define i32 @alpha(i32 %x) {
entry:
  %a = add i32 %x, 1
  %b = mul i32 %a, 2
  %c = call i32 @helper(i32 %b)
  ret i32 %c
}
"#,
        )
        .unwrap();
        a.name = "mod_a".to_string();
        let mut b = parse_module(
            r#"
define i32 @beta(i32 %x) {
entry:
  %a = add i32 %x, 5
  %b = mul i32 %a, 3
  %c = call i32 @helper(i32 %b)
  ret i32 %c
}

define double @noise(double %x) {
entry:
  %a = fmul double %x, 2.0
  ret double %a
}
"#,
        )
        .unwrap();
        b.name = "mod_b".to_string();
        vec![a, b]
    }

    #[test]
    fn corpus_index_spans_all_modules() {
        let modules = corpus();
        let index = CorpusIndex::build(&modules, MinHash::DEFAULT_HASHES);
        assert_eq!(index.num_modules(), 2);
        assert_eq!(index.num_functions(), 3);
        assert_eq!(index.entries[0].module, "mod_a");
        let alpha = &index.entries[0];
        let beta = index.entries.iter().find(|e| e.name == "beta").unwrap();
        let noise = index.entries.iter().find(|e| e.name == "noise").unwrap();
        assert!(alpha.distance(beta) < alpha.distance(noise));
    }

    #[test]
    fn incremental_add_matches_batch_build() {
        let modules = corpus();
        let batch = CorpusIndex::build(&modules, 16);
        let mut incremental = CorpusIndex::new(16);
        for m in &modules {
            incremental.add(ModuleIndex::build(m, 16));
        }
        assert_eq!(batch, incremental);
    }

    #[test]
    fn incremental_build_reuses_unchanged_modules() {
        let mut modules = corpus();
        let (full, reuse) = CorpusIndex::build_incremental(&modules, 16, None);
        assert_eq!(
            reuse,
            IndexReuse {
                reused: 0,
                refreshed: 2
            }
        );
        // Unchanged corpus: everything is reused and the index is identical.
        let (again, reuse) = CorpusIndex::build_incremental(&modules, 16, Some(&full));
        assert_eq!(
            reuse,
            IndexReuse {
                reused: 2,
                refreshed: 0
            }
        );
        assert_eq!(again, full);
        // Mutate one module: only it re-summarizes, and the result matches a
        // full rebuild bit for bit.
        let f = modules[1].function_mut("beta").unwrap();
        let inst = f.inst_ids().next().unwrap();
        f.set_inst_name(inst, "touched");
        let (updated, reuse) = CorpusIndex::build_incremental(&modules, 16, Some(&full));
        assert_eq!(
            reuse,
            IndexReuse {
                reused: 1,
                refreshed: 1
            }
        );
        assert_eq!(updated, CorpusIndex::build(&modules, 16));
        // A different signature width invalidates the whole prior index.
        let (_, reuse) = CorpusIndex::build_incremental(&modules, 8, Some(&updated));
        assert_eq!(
            reuse,
            IndexReuse {
                reused: 0,
                refreshed: 2
            }
        );
        // An empty module hashes to 0, which never counts as reused.
        let empty = [Module::new("empty")];
        let (prior, _) = CorpusIndex::build_incremental(&empty, 16, None);
        let (_, reuse) = CorpusIndex::build_incremental(&empty, 16, Some(&prior));
        assert_eq!(
            reuse,
            IndexReuse {
                reused: 0,
                refreshed: 1
            }
        );
    }
}
