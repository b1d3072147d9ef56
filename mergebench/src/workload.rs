//! The benchmark's workloads: seeded input generation, the load path the
//! `salssa` CLI uses, and the merge entry point with the CLI's defaults.

use salssa::{merge_module, DriverConfig, DriverMode, ModuleMergeReport, SalSsaMerger};
use ssa_ir::verifier::verify_module;
use ssa_ir::{print_module, Module};
use std::collections::BTreeMap;
use telemetry::{DecisionEvent, RejectReason};
use workloads::{BenchmarkSpec, CorpusSpec, PerfTier};
use xmerge::{CorpusMergeReport, FixpointConfig, HostPolicy, XMergeConfig};

/// One benchmark workload. Why each exists is recorded in `README.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The pinned `PerfTier::M` corpus under `salssa xmerge` defaults.
    XmergeM,
    /// The 19 SPEC CPU2006-shaped modules, each merged by `salssa merge`.
    IntraSpec2006,
    /// A call-heavy corpus under `--fixpoint --check-semantics
    /// --host-policy callgraph --oracle-fuel 100000`: the only workload that
    /// runs the oracle.
    XmergeFixpointOracle,
}

/// Shape of the call-heavy corpus: modules × functions per module.
const CALL_HEAVY_SHAPE: (usize, usize) = (48, 12);
/// Seed of the call-heavy corpus when `--seed` is not given.
const CALL_HEAVY_SEED: u64 = 21;
/// Step budget of each oracle execution (`--oracle-fuel`). Without one, a
/// function whose loop never ends under the interpreter's model of external
/// calls runs to the interpreter's 1M-step limit on all 8 sampled inputs and
/// on both sides, and the few such functions a seed happens to draw decided
/// the oracle's cost: `merge_s` ranged from 1.2 to 4.6 s across seeds. With
/// the budget such a check stops at the first exhausted input and the commit
/// is refused as an `oracle_timeout`; terminating functions of these corpora
/// take a few hundred steps, far below it.
const ORACLE_FUEL: u64 = 100_000;
/// Offset between the suite seeds of consecutive workload seeds: larger than
/// the suite's 19 own seeds, so two workload seeds never share a module.
const SPEC2006_SEED_STRIDE: u64 = 100;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::XmergeM,
        Workload::IntraSpec2006,
        Workload::XmergeFixpointOracle,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::XmergeM => "xmerge-m",
            Workload::IntraSpec2006 => "intra-spec2006",
            Workload::XmergeFixpointOracle => "xmerge-fixpoint-oracle",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The pinned seed: the M tier's own seed, offset 0 (the suite's own
    /// per-benchmark seeds), and a fixed seed for the call-heavy corpus.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::XmergeM => PerfTier::M.spec().seed,
            Workload::IntraSpec2006 => 0,
            Workload::XmergeFixpointOracle => CALL_HEAVY_SEED,
        }
    }

    /// Does the merge run corpus-wide (cross-module) rather than per module?
    pub fn is_corpus(self) -> bool {
        self != Workload::IntraSpec2006
    }

    /// Generates the workload's inputs for `seed`: each module cleaned like
    /// `gen-corpus --clean` and printed to `.ll` text, plus the generator
    /// manifest. The same seed always yields the same text.
    pub fn generate(self, seed: u64) -> Inputs {
        let (modules, manifest) = match self {
            Workload::XmergeM => {
                let spec = CorpusSpec {
                    seed,
                    ..PerfTier::M.spec()
                };
                (spec.generate(), spec.manifest_json())
            }
            Workload::XmergeFixpointOracle => {
                let spec = CorpusSpec {
                    name: "callheavy".to_string(),
                    num_modules: CALL_HEAVY_SHAPE.0,
                    functions_per_module: CALL_HEAVY_SHAPE.1,
                    seed,
                    ..CorpusSpec::call_heavy()
                };
                (spec.generate(), spec.manifest_json())
            }
            Workload::IntraSpec2006 => {
                let specs: Vec<BenchmarkSpec> = workloads::spec2006()
                    .into_iter()
                    .map(|mut s| {
                        s.seed = s.seed.wrapping_add(seed.wrapping_mul(SPEC2006_SEED_STRIDE));
                        s
                    })
                    .collect();
                let manifest = spec_manifest(&specs, seed);
                (
                    specs.iter().map(BenchmarkSpec::generate).collect(),
                    manifest,
                )
            }
        };
        let texts = modules
            .into_iter()
            .map(|mut module| {
                for function in module.functions_mut() {
                    ssa_passes::cleanup_function(function);
                }
                (module.name.clone(), print_module(&module))
            })
            .collect();
        Inputs { texts, manifest }
    }

    /// Merges the loaded modules through the public entry point with the
    /// CLI's defaults, returning the counts of the program's own reports and
    /// the committed merges.
    pub fn merge(self, modules: &mut [Module]) -> Merged {
        match self {
            Workload::XmergeM | Workload::XmergeFixpointOracle => {
                let report = xmerge::xmerge_corpus(modules, &self.xmerge_config());
                let cross = report.committed.iter().map(|r| Commit {
                    modules: (r.host_module.clone(), r.donor_module.clone()),
                    symbols: (r.f1.clone(), r.f2.clone()),
                });
                let intra = report.intra_committed.iter().map(|(m, r)| Commit {
                    modules: (m.clone(), m.clone()),
                    symbols: (r.f1.clone(), r.f2.clone()),
                });
                let mut counts = Counts::of_corpus(&report);
                let verdicts = counts.get("commits")
                    + counts.get("semantic_rejections")
                    + counts.get("oracle_timeouts");
                let checked = self.xmerge_config().check_semantics;
                counts.set("oracle.checks", if checked { verdicts } else { 0 });
                Merged {
                    counts,
                    commits: cross.chain(intra).collect(),
                    timeouts: Vec::new(),
                }
            }
            Workload::IntraSpec2006 => {
                let merger = SalSsaMerger::default();
                let config = intra_config();
                let (hits0, misses0) = ssa_ir::structural_key_counters();
                let reports: Vec<ModuleMergeReport> = modules
                    .iter_mut()
                    .map(|m| merge_module(m, &merger, &config))
                    .collect();
                let (hits1, misses1) = ssa_ir::structural_key_counters();
                let mut counts = Counts::of_modules(&reports);
                counts.set("structural_cache.hits", hits1.saturating_sub(hits0));
                counts.set("structural_cache.misses", misses1.saturating_sub(misses0));
                let commits = modules
                    .iter()
                    .zip(&reports)
                    .flat_map(|(m, r)| {
                        r.committed.iter().map(|c| Commit {
                            modules: (m.name.clone(), m.name.clone()),
                            symbols: (c.f1.clone(), c.f2.clone()),
                        })
                    })
                    .collect();
                Merged {
                    counts,
                    commits,
                    timeouts: Vec::new(),
                }
            }
        }
    }

    /// [`Workload::merge`] with the planner's decision log on, so that the
    /// pairs the oracle refused as timeouts are known; the timed merges
    /// keep the log off.
    pub fn merge_logged(self, modules: &mut [Module]) -> Merged {
        telemetry::take_decisions();
        telemetry::set_decisions(true);
        let mut merged = self.merge(modules);
        telemetry::set_decisions(false);
        let timeout = DecisionEvent::Rejected(RejectReason::OracleTimeout);
        merged.timeouts = telemetry::take_decisions()
            .into_iter()
            .filter(|d| d.event == timeout)
            .map(|d| (d.pair.func_a, d.pair.func_b))
            .collect();
        merged
    }

    /// The `salssa xmerge` configuration of the corpus workloads, built the
    /// way the CLI builds it from its flags.
    pub fn xmerge_config(self) -> XMergeConfig {
        match self {
            Workload::XmergeFixpointOracle => {
                let fuel = Some(ORACLE_FUEL);
                let intra = intra_config()
                    .with_check_semantics(true)
                    .with_oracle_fuel(fuel);
                XMergeConfig::new()
                    .with_check_semantics(true)
                    .with_oracle_fuel(fuel)
                    .with_host_policy(HostPolicy::CallGraph)
                    .with_fixpoint(FixpointConfig {
                        intra: Some(intra),
                        ..FixpointConfig::default()
                    })
            }
            _ => XMergeConfig::new(),
        }
    }
}

/// The `salssa merge` driver defaults.
pub fn intra_config() -> DriverConfig {
    DriverConfig::default().with_mode(DriverMode::Parallel)
}

fn spec_manifest(specs: &[BenchmarkSpec], seed: u64) -> String {
    let entries: Vec<String> = specs
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "{{\"name\":\"{}\",\"num_functions\":{},\"size_range\":[{},{}],",
                    "\"clone_fraction\":{},\"family_size\":{},",
                    "\"divergence\":{{\"constant_mutation\":{},\"operand_swap\":{},",
                    "\"opcode_mutation\":{},\"callee_mutation\":{}}},\"seed\":{}}}"
                ),
                s.name,
                s.num_functions,
                s.size_range.0,
                s.size_range.1,
                s.clone_fraction,
                s.family_size,
                s.divergence.constant_mutation,
                s.divergence.operand_swap,
                s.divergence.opcode_mutation,
                s.divergence.callee_mutation,
                s.seed
            )
        })
        .collect();
    format!(
        "{{\"suite\":\"spec2006\",\"seed_offset\":{seed},\"benchmarks\":[{}]}}",
        entries.join(",")
    )
}

/// A workload's generated inputs: `(module name, .ll text)` pairs.
pub struct Inputs {
    pub texts: Vec<(String, String)>,
    pub manifest: String,
}

impl Inputs {
    pub fn bytes(&self) -> usize {
        self.texts.iter().map(|(_, text)| text.len()).sum()
    }
}

/// Loads every `(module name, .ll text)` pair the way `salssa` loads a
/// file: the error-recovering parser, then `verify_module`; the module is
/// named after its file stem.
pub fn load<N: AsRef<str>, T: AsRef<str>>(texts: &[(N, T)]) -> Result<Vec<Module>, String> {
    let mut modules = Vec::with_capacity(texts.len());
    for (name, text) in texts {
        let name = name.as_ref();
        let mut module = ssa_ir::parse_module_recovering(text.as_ref()).module;
        if let Some(error) = verify_module(&module).first() {
            return Err(format!("{name}: invalid module: {error:?}"));
        }
        module.name = name.to_string();
        modules.push(module);
    }
    Ok(modules)
}

/// One committed merge: the modules that hosted and donated it (the same
/// module for an intra-module merge) and its two input symbols.
#[derive(Debug, Clone)]
pub struct Commit {
    pub modules: (String, String),
    pub symbols: (String, String),
}

/// What one merge of the workload produced, besides the merged modules.
pub struct Merged {
    pub counts: Counts,
    pub commits: Vec<Commit>,
    /// The symbol pairs whose commit the oracle refused as a timeout, in
    /// order; filled by [`Workload::merge_logged`] only.
    pub timeouts: Vec<(String, String)>,
}

/// Named counts from the program's public reports. Every one of them must
/// repeat exactly between runs with the same seed. `oracle.checks` is the
/// number of oracle verdicts (commits, semantic rejections and timeouts
/// while the oracle gates commits), each over one or both symbols.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(pub BTreeMap<&'static str, u64>);

impl Counts {
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    fn set(&mut self, name: &'static str, value: u64) {
        self.0.insert(name, value);
    }

    fn of_corpus(r: &CorpusMergeReport) -> Counts {
        let p = &r.planner;
        let mut c = Counts::default();
        c.set("candidates", r.candidates as u64);
        c.set(
            "pairs_scored",
            (p.speculative_scores + p.inline_scores) as u64,
        );
        c.set("prefilter.checked", p.prefilter_checked as u64);
        c.set("prefilter.rejected", p.prefilter_rejected as u64);
        c.set("align.cells", r.align_cells);
        c.set("align.full_runs", r.align_full_runs);
        c.set("align.score_only_runs", r.align_score_only_runs);
        c.set("align.band_runs", r.align_band_runs);
        c.set("align.band_saturations", r.align_band_saturations);
        c.set("align.peak_live_bytes", r.align_peak_live_bytes);
        c.set("commits", (r.num_commits() + r.num_intra_merges()) as u64);
        c.set("hazard_skips", r.hazard_skips as u64);
        c.set("semantic_rejections", r.semantic_rejections as u64);
        c.set("oracle_timeouts", p.oracle_timeouts as u64);
        c.set("internal_errors", p.internal_errors as u64);
        c.set("index.reused", r.index_reuse.reused as u64);
        c.set("index.refreshed", r.index_reuse.refreshed as u64);
        c.set("call_index.reused", r.call_index_reuse.reused as u64);
        c.set("call_index.refreshed", r.call_index_reuse.refreshed as u64);
        c.set("structural_cache.hits", r.cache_hits);
        c.set("structural_cache.misses", r.cache_misses);
        c.set("rounds", r.rounds as u64);
        c
    }

    fn of_modules(reports: &[ModuleMergeReport]) -> Counts {
        let sum = |f: &dyn Fn(&ModuleMergeReport) -> u64| reports.iter().map(f).sum::<u64>();
        let mut c = Counts::default();
        // Ranked, not discovered: `xmerge::discover` does not run here.
        c.set("planner.candidates", sum(&|r| r.planner.candidates as u64));
        c.set(
            "pairs_scored",
            sum(&|r| (r.planner.speculative_scores + r.planner.inline_scores) as u64),
        );
        c.set(
            "prefilter.checked",
            sum(&|r| r.planner.prefilter_checked as u64),
        );
        c.set(
            "prefilter.rejected",
            sum(&|r| r.planner.prefilter_rejected as u64),
        );
        c.set("align.cells", sum(&|r| r.total_cells));
        c.set("align.full_runs", sum(&|r| r.align_full_runs));
        c.set("align.score_only_runs", sum(&|r| r.align_score_only_runs));
        c.set("align.band_runs", sum(&|r| r.align_band_runs));
        c.set("align.band_saturations", sum(&|r| r.align_band_saturations));
        c.set(
            "align.peak_live_bytes",
            reports
                .iter()
                .map(|r| r.peak_matrix_bytes)
                .max()
                .unwrap_or(0),
        );
        c.set("commits", sum(&|r| r.committed.len() as u64));
        c.set("hazard_skips", 0);
        c.set(
            "semantic_rejections",
            sum(&|r| r.semantic_rejections as u64),
        );
        c.set(
            "oracle_timeouts",
            sum(&|r| r.planner.oracle_timeouts as u64),
        );
        c.set(
            "internal_errors",
            sum(&|r| r.planner.internal_errors as u64),
        );
        c
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", fields.join(","))
    }
}
