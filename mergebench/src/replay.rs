//! The traced run's layer replay: the workload's traffic driven through each
//! layer's public function, one call per span, on one thread.
//!
//! Corpus workloads replay the cross-module round on the input corpus
//! (index, discovery, call graph, pre-filter, and the pair pipeline on every
//! candidate that survives it). The fixpoint workload adds one incremental
//! round on the merged corpus, the intra-module pass on every merged module,
//! and the oracle's traffic: the linked (host, donor) before-programs of each
//! commit and a budgeted differential check of the input symbols of every
//! commit and of every pair the oracle refused as a timeout. The
//! intra-module workload replays the intra-module merge driver's
//! speculative pairs per module. Commits themselves are not replayed.
//!
//! The replay gives self times and allocations. Every count the program's
//! reports carry is taken from them instead; the few counts the replay
//! keeps are those the reports lack and those it is checked by.

use crate::spans::Tracer;
use crate::workload::{intra_config, Inputs, Merged, Workload};
use callgraph::{CallGraph, CorpusCallIndex};
use fm_align::{align_banded, linearize, prefilter_rejects, Band, Ranking};
use salssa::options::DEFAULT_BAND_SLACK;
use salssa::{DriverConfig, MergeOptions, SEMANTIC_SAMPLES, SEMANTIC_SEED};
use ssa_ir::verifier::{verify_function, verify_module};
use ssa_ir::{link_modules, structurally_equal, Function, Linkage, Module};
use std::collections::{BTreeMap, BTreeSet};
use std::iter::once;
use xmerge::{discover, CorpusIndex, XMergeConfig};

/// Counts gathered while replaying, by per-layer metric name.
#[derive(Debug, Default)]
pub struct ReplayCounts(pub BTreeMap<&'static str, f64>);

impl ReplayCounts {
    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

struct Replay<'t> {
    t: &'t mut Tracer,
    c: ReplayCounts,
}

/// Replays `workload` on `inputs` under two root spans: `load` (parser and
/// verifier) and `merge` (every layer the merge runs). `output` holds the
/// modules of an untraced merge of the same inputs, freshly parsed so that
/// no analysis an earlier replay cached on a function is reused, and
/// `merged` what that merge committed and refused.
pub fn replay(
    workload: Workload,
    inputs: &Inputs,
    output: &[Module],
    merged: &Merged,
    tracer: &mut Tracer,
) -> ReplayCounts {
    let mut r = Replay {
        t: tracer,
        c: ReplayCounts::default(),
    };
    r.t.enter("load");
    let modules = r.load(inputs);
    r.t.exit();
    r.t.enter("merge");
    match workload {
        Workload::IntraSpec2006 => {
            for module in &modules {
                r.intra_module(module, &intra_config());
            }
        }
        Workload::XmergeM | Workload::XmergeFixpointOracle => {
            let config = workload.xmerge_config();
            let first = r.corpus_round(&modules, &config, None);
            if let Some(fixpoint) = config.fixpoint {
                r.corpus_round(output, &config, Some(&first));
                if let Some(intra) = &fixpoint.intra {
                    for module in output {
                        r.intra_module(module, intra);
                    }
                }
                r.oracle(&modules, output, merged, config.oracle_fuel);
            }
        }
    }
    r.t.exit();
    r.c
}

impl Replay<'_> {
    fn load(&mut self, inputs: &Inputs) -> Vec<Module> {
        self.c.add("parser.bytes", inputs.bytes() as f64);
        let mut modules = Vec::with_capacity(inputs.texts.len());
        for (name, text) in &inputs.texts {
            let recovered = self
                .t
                .span("parser", || ssa_ir::parse_module_recovering(text));
            self.c
                .add("parser.functions_skipped", recovered.skipped.len() as f64);
            let mut module = recovered.module;
            module.name = name.clone();
            let errors = self.t.span("verifier", || verify_module(&module));
            assert!(
                errors.is_empty(),
                "{name}: generated module fails verification"
            );
            modules.push(module);
        }
        modules
    }

    /// One cross-module round: index, discovery, call graph, then the
    /// pre-filter and the pair pipeline on every candidate (placed by size,
    /// as discovery orients it).
    fn corpus_round(
        &mut self,
        modules: &[Module],
        config: &XMergeConfig,
        prior: Option<&(CorpusIndex, CorpusCallIndex)>,
    ) -> (CorpusIndex, CorpusCallIndex) {
        let (index, _) = self.t.span("index", || {
            CorpusIndex::build_incremental(modules, config.num_hashes, prior.map(|p| &p.0))
        });
        let candidates = self
            .t
            .span("discover", || discover(&index, &config.discovery));
        self.c.add("discover.candidates", candidates.len() as f64);
        let calls = self.t.span("callgraph", || {
            let (calls, _) = CorpusCallIndex::build_incremental(modules, prior.map(|p| &p.1));
            let graph = CallGraph::resolve(&calls);
            std::hint::black_box((graph.locality(), graph.condensation()));
            calls
        });
        let owner: Vec<usize> = modules
            .iter()
            .enumerate()
            .flat_map(|(mi, m)| std::iter::repeat_n(mi, m.num_functions()))
            .collect();
        for pair in &candidates {
            let (ea, eb) = (&index.entries[pair.a], &index.entries[pair.b]);
            let (Some(f1), Some(f2)) = (
                modules[owner[pair.a]].function(&ea.name),
                modules[owner[pair.b]].function(&eb.name),
            ) else {
                continue;
            };
            let band = config
                .options
                .band
                .map(|slack| Band::from_hint(slack, Some(pair.distance)));
            if config.prefilter && self.prefilter(f1, f2, &config.options, band) {
                continue;
            }
            self.c.add("plan.pairs_scored", 1.0);
            let odr_dedup =
                f1.name == f2.name && f1.linkage == Linkage::External && structurally_equal(f1, f2);
            if !odr_dedup {
                self.merge_pair(f1, f2, &config.options, "merged.xm.trial", band);
            }
        }
        (index, calls)
    }

    /// The intra-module driver's speculative traffic: each function's
    /// top-`threshold + slack` ranked peers, largest function first.
    fn intra_module(&mut self, module: &Module, config: &DriverConfig) {
        let options = MergeOptions::default();
        let keys = self.t.span("rank", || {
            let ranking = Ranking::build(module);
            let slack = config.threshold.max(1);
            let viable = |name: &str| {
                module
                    .function(name)
                    .is_some_and(|f| f.num_insts() >= config.min_function_size)
            };
            let mut keys = Vec::new();
            for name in ranking.names_by_size_desc() {
                if !viable(&name) {
                    continue;
                }
                for candidate in ranking.candidates(&name, config.threshold + slack, &[]) {
                    if viable(&candidate) {
                        keys.push((name.clone(), candidate));
                    }
                }
            }
            keys
        });
        for (n1, n2) in keys {
            let (Some(f1), Some(f2)) = (module.function(&n1), module.function(&n2)) else {
                continue;
            };
            let prefilter_band = Some(Band::new(DEFAULT_BAND_SLACK));
            if config.prefilter && self.prefilter(f1, f2, &options, prefilter_band) {
                continue;
            }
            self.c.add("plan.pairs_scored", 1.0);
            let band = options.band.map(|slack| Band::from_hint(slack, None));
            self.merge_pair(f1, f2, &options, &format!("merged.{n1}.{n2}"), band);
        }
    }

    fn prefilter(
        &mut self,
        f1: &Function,
        f2: &Function,
        options: &MergeOptions,
        band: Option<Band>,
    ) -> bool {
        let rejected = self.t.span("prefilter", || {
            prefilter_rejects(f1, f2, options.target, band)
        });
        if rejected {
            self.c.add("prefilter.rejected", 1.0);
        }
        rejected
    }

    /// The pair pipeline of `salssa::merge_pair_with_distance`, one span per
    /// stage.
    fn merge_pair(
        &mut self,
        f1: &Function,
        f2: &Function,
        options: &MergeOptions,
        merged_name: &str,
        band: Option<Band>,
    ) {
        self.t.enter("pair");
        let alignment = self.t.span("align", || {
            let (seq1, seq2) = (linearize(f1), linearize(f2));
            align_banded(f1, &seq1, f2, &seq2, band)
        });
        let generated = self.t.span("codegen", || {
            salssa::codegen::generate(f1, f2, &alignment, options, merged_name)
        });
        if let Some((mut merged, maps)) = generated {
            self.c.add("codegen.insts_out", merged.num_insts() as f64);
            self.t
                .span("simplify_cfg", || ssa_passes::simplify(&mut merged));
            let repair = self.t.span("ssa_repair", || {
                salssa::repair(&mut merged, &maps, options.phi_coalescing)
            });
            self.c
                .add("ssa_repair.phis_inserted", repair.phis_inserted as f64);
            self.c
                .add("ssa_repair.coalesced_pairs", repair.coalesced_pairs as f64);
            self.t.span("cleanup", || {
                ssa_passes::cleanup_function(&mut merged);
                if options.phi_coalescing {
                    ssa_passes::phi_dedup::absorb_undef_compatible_phis(&mut merged);
                    ssa_passes::cleanup_function(&mut merged);
                }
            });
            let errors = self.t.span("verifier", || verify_function(&merged));
            std::hint::black_box(errors);
        }
        self.t.exit();
    }

    /// The oracle's traffic: the pipeline links each commit's (host, donor)
    /// before-program, then runs the pair's input symbols on sampled inputs
    /// under the workload's step budget, stopping at the first failure. The
    /// checks here compare whole linked programs, so thunks that call into a
    /// third module's merged body resolve the same way on both sides. Pairs
    /// the oracle refused as timeouts are checked against the final output,
    /// where the symbol that never ends exhausts the budget again.
    fn oracle(&mut self, input: &[Module], output: &[Module], merged: &Merged, fuel: Option<u64>) {
        let by_name = |modules: &[Module], name: &str| modules.iter().position(|m| m.name == name);
        let pairs: BTreeSet<(usize, usize)> = merged
            .commits
            .iter()
            .filter(|c| c.modules.0 != c.modules.1)
            .filter_map(|c| Some((by_name(input, &c.modules.0)?, by_name(input, &c.modules.1)?)))
            .collect();
        for (host, donor) in pairs {
            let linked = self.t.span("linker", || {
                link_modules([&input[host], &input[donor]], "pair.before")
            });
            std::hint::black_box(linked.is_ok());
        }
        let before = self.t.span("linker", || link_modules(input, "before"));
        let after = self.t.span("linker", || link_modules(output, "after"));
        let (Ok(before), Ok(after)) = (before, after) else {
            return;
        };
        let checked = merged.commits.iter().map(|c| &c.symbols);
        for (f1, f2) in checked.chain(&merged.timeouts) {
            // An intra-module commit of a later round may merge a body an
            // earlier commit created: not an input symbol.
            let mut symbols = once(f1)
                .chain(once(f2))
                .filter(|s| before.function(s).is_some());
            let verdict = self.t.span("oracle", || {
                symbols.try_for_each(|symbol| {
                    ssa_interp::differential_check_with_fuel(
                        &before,
                        &after,
                        symbol,
                        SEMANTIC_SAMPLES,
                        SEMANTIC_SEED,
                        fuel,
                    )
                })
            });
            std::hint::black_box(verdict.is_ok());
        }
    }
}
