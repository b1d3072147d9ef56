//! Multi-module corpus generation for the cross-module merging scenario.
//!
//! A corpus models a ThinLTO-style program split into translation units:
//! clone families whose members are *scattered across modules* (the
//! cross-module merging opportunity — think a C++ template instantiated in
//! several TUs), verbatim ODR duplicates (the same inline function emitted
//! into multiple TUs), and per-module unrelated functions as noise. Every
//! function name is unique corpus-wide except the intentional ODR
//! duplicates, which are bit-identical by construction.

use crate::clone_family::{make_clone, Divergence};
use crate::genfn::{generate_function, FunctionSpec};
use crate::suite::sanitize;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ssa_ir::{FunctionBuilder, Module, Type, Value};

/// Description of one synthetic multi-module corpus.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Corpus name; module `i` is named `<name>_m<i>`.
    pub name: String,
    /// Number of modules (translation units).
    pub num_modules: usize,
    /// Functions per module.
    pub functions_per_module: usize,
    /// Approximate size range of a function, in IR instructions.
    pub size_range: (usize, usize),
    /// Fraction of all functions that belong to a cross-module clone family.
    pub cross_clone_fraction: f64,
    /// Modules spanned by each clone family (clamped to `num_modules`).
    pub family_span: usize,
    /// How much family members diverge from their common ancestor.
    pub divergence: Divergence,
    /// Number of functions duplicated verbatim (same name, same body) into
    /// two modules each — the ODR/inline-function case.
    pub odr_duplicates: usize,
    /// Call-heavy corpora: when nonzero, every module additionally gets one
    /// *driver* function making this many static calls to randomly chosen
    /// same-module functions. Clone-family members then carry asymmetric
    /// intra-module caller counts across modules — the locality signal the
    /// call-graph host-selection policy exploits (0 = off, the default).
    pub intra_call_sites: usize,
    /// Extra noise functions appended round-robin across modules *after*
    /// every module has reached its quota — lets a corpus hit an exact
    /// corpus-wide function total that isn't a multiple of `num_modules`
    /// (the perf tiers pin such totals).
    pub extra_functions: usize,
    /// Seed making the corpus reproducible.
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            name: "corpus".to_string(),
            num_modules: 8,
            functions_per_module: 6,
            size_range: (16, 48),
            cross_clone_fraction: 0.5,
            family_span: 3,
            divergence: Divergence::low(),
            odr_duplicates: 2,
            intra_call_sites: 0,
            extra_functions: 0,
            seed: 7,
        }
    }
}

impl CorpusSpec {
    /// A call-heavy variant of the default corpus: per-module driver
    /// functions give clone-family members asymmetric intra-module coupling,
    /// so host placement genuinely matters.
    pub fn call_heavy() -> CorpusSpec {
        CorpusSpec {
            intra_call_sites: 12,
            ..CorpusSpec::default()
        }
    }

    /// Serialize every generation parameter as one JSON object, so a corpus
    /// (and any `BENCH_xmerge.json` entry derived from it) is exactly
    /// reproducible from its manifest alone.
    pub fn manifest_json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"num_modules\":{},\"functions_per_module\":{},",
                "\"size_range\":[{},{}],\"cross_clone_fraction\":{},\"family_span\":{},",
                "\"divergence\":{{\"constant_mutation\":{},\"operand_swap\":{},",
                "\"opcode_mutation\":{},\"callee_mutation\":{}}},",
                "\"odr_duplicates\":{},\"intra_call_sites\":{},\"extra_functions\":{},",
                "\"seed\":{}}}"
            ),
            sanitize(&self.name),
            self.num_modules,
            self.functions_per_module,
            self.size_range.0,
            self.size_range.1,
            self.cross_clone_fraction,
            self.family_span,
            self.divergence.constant_mutation,
            self.divergence.operand_swap,
            self.divergence.opcode_mutation,
            self.divergence.callee_mutation,
            self.odr_duplicates,
            self.intra_call_sites,
            self.extra_functions,
            self.seed
        )
    }
}

/// The standardized corpus sizes (`gen-corpus --tier`): fixed seeds and
/// shapes, so two runs on the same commit always measure the same work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfTier {
    /// Small — fast enough for tier-1 tests; `tests/merged_output_pin.rs`
    /// pins its merged output and the work that produced it.
    S,
    /// Medium — 48 modules / 779 functions; the corpus of the benchmark's
    /// `xmerge-m` workload.
    M,
    /// Large — stress tier for local investigations.
    L,
}

impl PerfTier {
    pub fn parse(s: &str) -> Option<PerfTier> {
        match s {
            "S" | "s" => Some(PerfTier::S),
            "M" | "m" => Some(PerfTier::M),
            "L" | "l" => Some(PerfTier::L),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            PerfTier::S => "S",
            PerfTier::M => "M",
            PerfTier::L => "L",
        }
    }

    /// The tier's pinned corpus shape. Totals are exact:
    /// S = 16×8 = 128, M = 48×16+11 = 779, L = 96×24 = 2304 functions.
    pub fn spec(&self) -> CorpusSpec {
        match self {
            PerfTier::S => CorpusSpec {
                name: "perf_s".to_string(),
                num_modules: 16,
                functions_per_module: 8,
                seed: 11,
                ..CorpusSpec::default()
            },
            PerfTier::M => CorpusSpec {
                name: "perf_m".to_string(),
                num_modules: 48,
                functions_per_module: 16,
                extra_functions: 11,
                seed: 13,
                ..CorpusSpec::default()
            },
            PerfTier::L => CorpusSpec {
                name: "perf_l".to_string(),
                num_modules: 96,
                functions_per_module: 24,
                seed: 17,
                ..CorpusSpec::default()
            },
        }
    }
}

impl CorpusSpec {
    /// Generates the corpus: `num_modules` verifier-clean modules.
    pub fn generate(&self) -> Vec<Module> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let num_modules = self.num_modules.max(1);
        let mut modules: Vec<Module> = (0..num_modules)
            .map(|i| Module::new(format!("{}_m{i}", sanitize(&self.name))))
            .collect();
        let callees: Vec<String> = (0..6)
            .map(|i| format!("lib_{}_{i}", sanitize(&self.name)))
            .collect();

        let total = num_modules * self.functions_per_module;
        let clone_budget = ((total as f64) * self.cross_clone_fraction) as usize;
        let span = self.family_span.clamp(1, num_modules);

        // Cross-module clone families: each family's members land in `span`
        // consecutive modules (wrapping), one member per module.
        let mut created = 0usize;
        let mut family = 0usize;
        let mut counts = vec![0usize; num_modules];
        while created + 1 < clone_budget {
            let members = span.min(clone_budget - created).max(2);
            let size = rng.gen_range(self.size_range.0..=self.size_range.1);
            let start = rng.gen_range(0..num_modules);
            let base_spec = FunctionSpec {
                name: format!("{}_fam{}_m0", sanitize(&self.name), family),
                size,
                num_params: rng.gen_range(1..4),
                callees: callees.clone(),
                ..FunctionSpec::default()
            };
            let base = generate_function(&base_spec, &mut rng);
            for member in 1..members {
                let clone = make_clone(
                    &base,
                    &format!("{}_fam{}_m{}", sanitize(&self.name), family, member),
                    self.divergence,
                    &mut rng,
                    &callees,
                );
                let target = (start + member) % num_modules;
                modules[target].add_function(clone);
                counts[target] += 1;
            }
            modules[start].add_function(base);
            counts[start] += 1;
            created += members;
            family += 1;
        }

        // Verbatim ODR duplicates: the same function emitted into two modules.
        if num_modules >= 2 {
            for d in 0..self.odr_duplicates {
                let size = rng.gen_range(self.size_range.0..=self.size_range.1);
                let spec = FunctionSpec {
                    name: format!("{}_odr{d}", sanitize(&self.name)),
                    size,
                    num_params: rng.gen_range(1..4),
                    callees: callees.clone(),
                    ..FunctionSpec::default()
                };
                let f = generate_function(&spec, &mut rng);
                let first = rng.gen_range(0..num_modules);
                let second = (first + 1 + rng.gen_range(0..num_modules - 1)) % num_modules;
                modules[first].add_function(f.clone());
                modules[second].add_function(f);
                counts[first] += 1;
                counts[second] += 1;
            }
        }

        // Unrelated per-module noise fills every module to its quota.
        for (mi, module) in modules.iter_mut().enumerate() {
            let mut n = 0usize;
            while counts[mi] < self.functions_per_module {
                let size = rng.gen_range(self.size_range.0..=self.size_range.1);
                let spec = FunctionSpec {
                    name: format!("{}_m{mi}_fn{n}", sanitize(&self.name)),
                    size,
                    num_params: rng.gen_range(1..4),
                    callees: callees.clone(),
                    branch_density: rng.gen_range(0.1..0.5),
                    loop_density: rng.gen_range(0.0..0.3),
                };
                module.add_function(generate_function(&spec, &mut rng));
                counts[mi] += 1;
                n += 1;
            }
        }

        // Ragged fill: extra noise functions beyond the uniform quota,
        // round-robin so module sizes stay balanced.
        for j in 0..self.extra_functions {
            let mi = j % num_modules;
            let size = rng.gen_range(self.size_range.0..=self.size_range.1);
            let spec = FunctionSpec {
                name: format!("{}_x{j}", sanitize(&self.name)),
                size,
                num_params: rng.gen_range(1..4),
                callees: callees.clone(),
                branch_density: rng.gen_range(0.1..0.5),
                loop_density: rng.gen_range(0.0..0.3),
            };
            modules[mi].add_function(generate_function(&spec, &mut rng));
        }

        // Call-heavy corpora: one driver per module calls same-module
        // functions with random multiplicity. The driver chains each call's
        // result into the next so every site is live.
        if self.intra_call_sites > 0 {
            for (mi, module) in modules.iter_mut().enumerate() {
                let targets: Vec<(String, usize)> = module
                    .functions()
                    .iter()
                    .map(|f| (f.name.clone(), f.params.len()))
                    .collect();
                if targets.is_empty() {
                    continue;
                }
                let mut b = FunctionBuilder::new(
                    format!("{}_m{mi}_driver", sanitize(&self.name)),
                    vec![Type::I32],
                    Type::I32,
                );
                let entry = b.create_block("entry");
                b.switch_to(entry);
                let mut acc = Value::Arg(0);
                for _ in 0..self.intra_call_sites {
                    let (callee, num_params) = &targets[rng.gen_range(0..targets.len())];
                    acc = b.call(callee.clone(), vec![acc; *num_params], Type::I32);
                }
                b.ret(Some(acc));
                module.add_function(b.finish());
            }
        }
        modules
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn corpus_is_deterministic_and_valid() {
        let spec = CorpusSpec::default();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), 8);
        for (ma, mb) in a.iter().zip(&b) {
            assert_eq!(ssa_ir::print_module(ma), ssa_ir::print_module(mb));
            assert!(ssa_ir::verifier::verify_module(ma).is_empty());
            assert_eq!(ma.num_functions(), spec.functions_per_module);
        }
    }

    #[test]
    fn families_span_multiple_modules() {
        let spec = CorpusSpec::default();
        let modules = spec.generate();
        // Members of family 0 must live in more than one module.
        let mut home: HashMap<String, Vec<String>> = HashMap::new();
        for m in &modules {
            for f in m.functions() {
                if let Some((fam, _)) = f.name.split_once("_m").filter(|(p, _)| p.contains("fam")) {
                    home.entry(fam.to_string())
                        .or_default()
                        .push(m.name.clone());
                }
            }
        }
        assert!(!home.is_empty());
        assert!(
            home.values().any(|mods| {
                let mut unique = mods.clone();
                unique.sort();
                unique.dedup();
                unique.len() > 1
            }),
            "some clone family must span multiple modules: {home:?}"
        );
    }

    #[test]
    fn odr_duplicates_are_verbatim_copies() {
        let spec = CorpusSpec {
            odr_duplicates: 2,
            ..CorpusSpec::default()
        };
        let modules = spec.generate();
        for d in 0..2 {
            let name = format!("corpus_odr{d}");
            let copies: Vec<_> = modules.iter().filter_map(|m| m.function(&name)).collect();
            assert_eq!(
                copies.len(),
                2,
                "@{name} must be defined in exactly two modules"
            );
            assert!(ssa_ir::structurally_equal(copies[0], copies[1]));
        }
    }

    #[test]
    fn names_are_unique_outside_odr_duplicates() {
        let spec = CorpusSpec::default();
        let modules = spec.generate();
        let mut seen: HashMap<String, usize> = HashMap::new();
        for m in &modules {
            for f in m.functions() {
                *seen.entry(f.name.clone()).or_insert(0) += 1;
            }
        }
        for (name, count) in seen {
            let limit = if name.contains("_odr") { 2 } else { 1 };
            assert!(count <= limit, "@{name} defined {count} times");
        }
    }

    #[test]
    fn call_heavy_corpora_add_verifier_clean_drivers_with_asymmetric_coupling() {
        let spec = CorpusSpec::call_heavy();
        let modules = spec.generate();
        let mut total_driver_calls = 0usize;
        for (mi, m) in modules.iter().enumerate() {
            assert!(ssa_ir::verifier::verify_module(m).is_empty());
            let driver = m
                .function(&format!("corpus_m{mi}_driver"))
                .expect("every module gets a driver");
            let calls: u32 = driver.callee_counts().values().sum();
            assert_eq!(calls as usize, spec.intra_call_sites);
            // Drivers only call same-module functions.
            for callee in driver.callee_counts().keys() {
                assert!(m.function(callee).is_some(), "@{callee} not in module");
            }
            total_driver_calls += calls as usize;
        }
        assert_eq!(total_driver_calls, modules.len() * spec.intra_call_sites);
        // At least one clone family must end up with *different* intra-module
        // caller counts across its members — the host policy's signal.
        let mut fam_callers: HashMap<String, Vec<u32>> = HashMap::new();
        for m in &modules {
            let driver_counts = m
                .functions()
                .iter()
                .find(|f| f.name.ends_with("_driver"))
                .map(ssa_ir::Function::callee_counts)
                .unwrap_or_default();
            for f in m.functions() {
                if f.name.contains("_fam") {
                    fam_callers
                        .entry(f.name.split("_m").next().unwrap_or("").to_string())
                        .or_default()
                        .push(driver_counts.get(&f.name).copied().unwrap_or(0));
                }
            }
        }
        assert!(
            fam_callers
                .values()
                .any(|counts| counts.iter().min() != counts.iter().max()),
            "some family must have asymmetric caller counts: {fam_callers:?}"
        );
        // Determinism.
        let again = spec.generate();
        for (a, b) in modules.iter().zip(&again) {
            assert_eq!(ssa_ir::print_module(a), ssa_ir::print_module(b));
        }
    }

    #[test]
    fn perf_tiers_pin_exact_function_totals() {
        for (tier, modules_expected, functions_expected) in [
            (PerfTier::S, 16, 128),
            (PerfTier::M, 48, 779),
            (PerfTier::L, 96, 2304),
        ] {
            let spec = tier.spec();
            let modules = spec.generate();
            let total: usize = modules.iter().map(ssa_ir::Module::num_functions).sum();
            assert_eq!(modules.len(), modules_expected, "tier {}", tier.name());
            assert_eq!(total, functions_expected, "tier {}", tier.name());
            // Regenerating from the manifest parameters alone is bit-identical.
            let again = spec.generate();
            for (a, b) in modules.iter().zip(&again) {
                assert_eq!(ssa_ir::print_module(a), ssa_ir::print_module(b));
            }
        }
        assert_eq!(PerfTier::parse("m"), Some(PerfTier::M));
        assert_eq!(PerfTier::parse("xl"), None);
    }

    #[test]
    fn manifest_json_echoes_every_generation_parameter() {
        let spec = PerfTier::M.spec();
        let manifest = spec.manifest_json();
        for needle in [
            "\"name\":\"perf_m\"",
            "\"num_modules\":48",
            "\"functions_per_module\":16",
            "\"extra_functions\":11",
            "\"seed\":13",
            "\"divergence\":{",
        ] {
            assert!(manifest.contains(needle), "{needle} missing in {manifest}");
        }
    }

    #[test]
    fn degenerate_corpora_still_generate() {
        let spec = CorpusSpec {
            num_modules: 1,
            functions_per_module: 2,
            cross_clone_fraction: 1.0,
            odr_duplicates: 3,
            ..CorpusSpec::default()
        };
        let modules = spec.generate();
        assert_eq!(modules.len(), 1);
        assert_eq!(modules[0].num_functions(), 2);
    }
}
