//! `salssa explain`: replay discovery and scoring for one candidate pair and
//! print the verdict chain.
//!
//! The pipeline's decision log (`--decisions-out`) records what happened to
//! every pair during a real run; `explain` answers the complementary
//! question — *why* — for a single pair, by re-running the stages that judge
//! it in isolation: LSH discovery, speculative scoring, and the ODR hazard
//! scan. Each stage appends an [`ExplainStep`] and the chain ends in a
//! verdict. The replay uses exactly the production entry points
//! ([`crate::index::CorpusIndex::build_incremental`], [`crate::discover()`],
//! the pipeline's scorer and hazard scan), so the answer cannot drift from
//! what the pipeline itself would do.
//!
//! The one stage that cannot be replayed here is the differential oracle: it
//! runs at commit time against the mutated modules, which only exist inside a
//! real pipeline run. The verdict says so explicitly when
//! `--check-semantics` would apply.

use crate::discover::discover;
use crate::index::CorpusIndex;
use crate::pipeline::{
    has_odr_hazard, score_cross, uniquify_module_names, ScoredCross, XMergeConfig,
};
use ssa_ir::{Linkage, Module};
use std::collections::HashMap;
use std::fmt;

/// One stage of the replay: what was checked and what came out.
#[derive(Debug, Clone)]
pub struct ExplainStep {
    /// Stage name (`resolve`, `discovery`, `scoring`, `hazard`, `oracle`).
    pub stage: &'static str,
    /// Human-readable outcome of the stage.
    pub detail: String,
}

/// The full verdict chain for one pair.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Stages in the order the pipeline applies them.
    pub steps: Vec<ExplainStep>,
    /// Final disposition: would-commit, or the first rejection.
    pub verdict: String,
}

impl Explanation {
    fn push(&mut self, stage: &'static str, detail: String) {
        self.steps.push(ExplainStep { stage, detail });
    }
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            writeln!(f, "  {:<10} {}", step.stage, step.detail)?;
        }
        write!(f, "  {:<10} {}", "verdict", self.verdict)
    }
}

/// A function reference resolved from a `module:name`-or-bare-name spec.
struct Resolved {
    module: usize,
    name: String,
}

fn resolve_spec(modules: &[Module], spec: &str) -> Result<Resolved, String> {
    if let Some((module_part, fn_part)) = spec.split_once(':') {
        let mi = modules
            .iter()
            .position(|m| m.name == module_part)
            .ok_or_else(|| format!("no module named `{module_part}` in the corpus"))?;
        if modules[mi].function(fn_part).is_none() {
            return Err(format!(
                "module `{module_part}` does not define `{fn_part}`"
            ));
        }
        return Ok(Resolved {
            module: mi,
            name: fn_part.to_string(),
        });
    }
    let mut sites: Vec<usize> = Vec::new();
    for (mi, m) in modules.iter().enumerate() {
        if m.function(spec).is_some() {
            sites.push(mi);
        }
    }
    match sites.len() {
        0 => Err(format!("no function named `{spec}` in the corpus")),
        1 => Ok(Resolved {
            module: sites[0],
            name: spec.to_string(),
        }),
        _ => Err(format!(
            "`{spec}` is defined in {} modules ({}); qualify it as module:function",
            sites.len(),
            sites
                .iter()
                .map(|&mi| modules[mi].name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn describe_score(modules: &[Module], s: &ScoredCross) -> String {
    let (host_size, donor_size, merged_size) = s.sizes;
    if s.odr_dedup {
        format!(
            "ODR dedup: `{}` is structurally identical in {} and {}; dropping the donor copy saves {} bytes",
            s.f1, modules[s.host].name, modules[s.donor].name, s.profit
        )
    } else {
        format!(
            "profit {} bytes (host {host_size} B + donor {donor_size} B vs merged \
             {merged_size} B plus two thunks); host={}, donor={}",
            s.profit, modules[s.host].name, modules[s.donor].name
        )
    }
}

/// Replays discovery, scoring, and the hazard scan for the pair named by
/// `spec_a` / `spec_b` (each `function` or `module:function`) and returns the
/// verdict chain.
///
/// Module names are uniquified exactly as [`crate::xmerge_corpus`] does, so
/// specs should use the post-uniquification names when the corpus has
/// duplicate module names (rare; the loader derives names from file stems).
pub fn explain_pair(
    modules: &mut [Module],
    config: &XMergeConfig,
    spec_a: &str,
    spec_b: &str,
) -> Result<Explanation, String> {
    uniquify_module_names(modules);
    let a = resolve_spec(modules, spec_a)?;
    let b = resolve_spec(modules, spec_b)?;
    if a.module == b.module && a.name == b.name {
        return Err("both specs name the same function".to_string());
    }

    let mut ex = Explanation {
        steps: Vec::new(),
        verdict: String::new(),
    };
    ex.push(
        "resolve",
        format!(
            "a = {}:{}, b = {}:{}",
            modules[a.module].name, a.name, modules[b.module].name, b.name
        ),
    );

    if a.module == b.module {
        ex.push(
            "discovery",
            "both functions live in the same module: this is an intra-module pair; \
             cross-module discovery never considers it (the intra driver's \
             fingerprint ranking does)"
                .to_string(),
        );
        ex.verdict = "out of scope for the cross-module pipeline; run `salssa merge` \
                      on the module to see the intra-module outcome"
            .to_string();
        return Ok(ex);
    }

    // Stage 1: LSH discovery, exactly as round 1 of the pipeline runs it
    // (including the pipeline's zero-means-default signature width).
    let num_hashes = if config.num_hashes == 0 {
        fm_align::MinHash::DEFAULT_HASHES
    } else {
        config.num_hashes
    };
    let (index, _reuse) = CorpusIndex::build_incremental(modules, num_hashes, None);
    let candidates = discover(&index, &config.discovery);
    let entry_matches = |ei: usize, r: &Resolved| {
        let e = &index.entries[ei];
        e.module == modules[r.module].name && e.name == r.name
    };
    let found = candidates.iter().find(|c| {
        (entry_matches(c.a, &a) && entry_matches(c.b, &b))
            || (entry_matches(c.a, &b) && entry_matches(c.b, &a))
    });
    // Score in discovery's orientation when found (entry `a` hosts), else in
    // the orientation the user gave.
    let (host, donor) = match found {
        Some(c) => {
            ex.push(
                "discovery",
                format!(
                    "discovered by LSH: fingerprint distance {}, estimated similarity {:.3}",
                    c.distance, c.similarity
                ),
            );
            if entry_matches(c.a, &a) {
                (&a, &b)
            } else {
                (&b, &a)
            }
        }
        None => {
            let min = config.discovery.min_function_size;
            let mut why: Vec<String> = Vec::new();
            for r in [&a, &b] {
                let n = modules[r.module].function(&r.name).unwrap().num_insts();
                if n < min {
                    why.push(format!(
                        "{} has {n} instructions, below the discovery floor of {min}",
                        r.name
                    ));
                }
            }
            if why.is_empty() {
                why.push(
                    "no LSH band collided (the opcode-shingle signatures are too \
                     dissimilar), or the pair ranked below max_candidates_per_fn"
                        .to_string(),
                );
            }
            ex.push("discovery", format!("NOT discovered: {}", why.join("; ")));
            (&a, &b)
        }
    };

    // The discovery-time distance sizes alignment bands downstream (cost
    // only, never the verdict's value).
    let distance = found.map(|c| c.distance);

    // Stage 2: the admissible pre-filter, exactly as the planner applies it
    // before any speculative trial merge.
    let f1 = modules[host.module].function(&host.name).unwrap();
    let f2 = modules[donor.module].function(&donor.name).unwrap();
    if config.prefilter {
        let band = config
            .options
            .band
            .map(|slack| fm_align::Band::from_hint(slack, distance));
        if fm_align::prefilter_rejects(f1, f2, config.options.target, band) {
            ex.push(
                "prefilter",
                "the class-histogram profit upper bound cannot clear the merge \
                 overhead (no alignment, however good, makes this pair \
                 profitable), so the planner skips scoring it"
                    .to_string(),
            );
            ex.verdict = "rejected: admissible pre-filter (provably unprofitable)".to_string();
            return Ok(ex);
        }
        ex.push(
            "prefilter",
            "passed: the profit upper bound clears the merge overhead".to_string(),
        );
    }

    // Stage 3: speculative scoring — the same trial merge the planner
    // batches, with the discovery distance sizing the alignment band.
    let scored = score_cross(host.module, donor.module, f1, f2, &config.options, distance);
    let s = match scored {
        Ok(s) => {
            ex.push("scoring", describe_score(modules, &s));
            if s.profit <= 0 {
                ex.verdict = format!(
                    "rejected: unprofitable (profit {} bytes ≤ 0); the planner \
                     never schedules it",
                    s.profit
                );
                return Ok(ex);
            }
            s
        }
        Err(_) => {
            ex.push(
                "scoring",
                "the merger refused the pair (no aligned merge could be built)".to_string(),
            );
            ex.verdict = "rejected: refused by the merger".to_string();
            return Ok(ex);
        }
    };

    // Stage 4: the ODR hazard scan, over the same def-site map the pipeline
    // builds.
    let mut def_sites: HashMap<String, Vec<(usize, Linkage)>> = HashMap::new();
    for (mi, m) in modules.iter().enumerate() {
        for f in m.functions() {
            def_sites
                .entry(f.name.clone())
                .or_default()
                .push((mi, f.linkage));
        }
    }
    if has_odr_hazard(modules, &def_sites, &s) {
        ex.push(
            "hazard",
            "ODR hazard: a symbol this commit rewires (the pair itself, or one \
             of the donor body's module-internal callees) is defined differently \
             elsewhere in the corpus with external linkage"
                .to_string(),
        );
        ex.verdict = "rejected: whole-program ODR hazard".to_string();
        return Ok(ex);
    }
    ex.push(
        "hazard",
        "no ODR hazard: the commit is link-safe".to_string(),
    );

    if config.check_semantics {
        ex.push(
            "oracle",
            "the differential oracle runs at commit time against the mutated \
             host+donor pair; it cannot be replayed in isolation"
                .to_string(),
        );
    }
    ex.verdict = format!(
        "would commit for {} bytes, subject to profit-ordered scheduling \
         against competing pairs{}",
        s.profit,
        if config.check_semantics {
            " and the commit-time differential oracle"
        } else {
            ""
        }
    );
    if found.is_none() {
        ex.verdict = format!(
            "scoring alone accepts it ({} bytes), but discovery never surfaces \
             the pair — the pipeline would not see it",
            s.profit
        );
    }
    Ok(ex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::XMergeConfig;
    use workloads::{BenchmarkSpec, Divergence};

    fn corpus() -> Vec<Module> {
        // One shared seed: every module holds the same function bodies, so
        // cross-module clone pairs are guaranteed to exist and be discovered.
        (0..3u64)
            .map(|i| {
                let mut m = BenchmarkSpec {
                    name: "explain.m".to_string(),
                    num_functions: 8,
                    size_range: (15, 50),
                    clone_fraction: 0.7,
                    family_size: 4,
                    divergence: Divergence::low(),
                    seed: 90,
                }
                .generate();
                m.name = format!("m{i}");
                m
            })
            .collect()
    }

    #[test]
    fn resolve_rejects_unknown_and_ambiguous() {
        let mut modules = corpus();
        let config = XMergeConfig::default();
        let err = explain_pair(&mut modules, &config, "no_such_fn", "also_missing")
            .expect_err("unknown function must not resolve");
        assert!(err.contains("no function named"), "got: {err}");
        let err = explain_pair(&mut modules, &config, "m0:no_such_fn", "m1:f0")
            .expect_err("unknown qualified function must not resolve");
        assert!(err.contains("does not define"), "got: {err}");
    }

    #[test]
    fn explains_a_discovered_pair_end_to_end() {
        let mut modules = corpus();
        let config = XMergeConfig::default();
        // Same generator seed family across modules guarantees similar
        // functions exist; find one discovered pair via the real pipeline
        // machinery and explain it.
        let (index, _) =
            CorpusIndex::build_incremental(&modules, fm_align::MinHash::DEFAULT_HASHES, None);
        let candidates = discover(&index, &config.discovery);
        assert!(!candidates.is_empty(), "corpus must yield candidates");
        let c = &candidates[0];
        let (ea, eb) = (&index.entries[c.a], &index.entries[c.b]);
        let spec_a = format!("{}:{}", ea.module, ea.name);
        let spec_b = format!("{}:{}", eb.module, eb.name);
        let ex = explain_pair(&mut modules, &config, &spec_a, &spec_b).expect("explain runs");
        assert!(ex
            .steps
            .iter()
            .any(|s| s.stage == "discovery" && s.detail.contains("discovered by LSH")));
        assert!(!ex.verdict.is_empty());
        let rendered = ex.to_string();
        assert!(rendered.contains("verdict"), "rendered:\n{rendered}");
    }

    #[test]
    fn same_module_pair_is_out_of_scope() {
        let mut modules = corpus();
        let config = XMergeConfig::default();
        let names: Vec<String> = modules[0]
            .functions()
            .iter()
            .take(2)
            .map(|f| f.name.clone())
            .collect();
        let ex = explain_pair(
            &mut modules,
            &config,
            &format!("m0:{}", names[0]),
            &format!("m0:{}", names[1]),
        )
        .expect("same-module explain runs");
        assert!(ex.verdict.contains("intra") || ex.verdict.contains("out of scope"));
    }
}
