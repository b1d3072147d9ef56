//! `salssa explain`: why one candidate pair did or did not merge.
//!
//! Whether a pair merges depends on everything the run schedules before it:
//! commits go in profit order and retire the functions they use, later
//! fixpoint rounds meet merged bodies, and the differential oracle judges a
//! commit against the modules as they are by then. So `explain` runs the
//! pipeline once, with the caller's configuration, and reads the pair's
//! events out of that run's own decision log
//! ([`telemetry::capture_decisions`], which leaves the process-wide log
//! off). Each event of the pair, in either orientation and from every round,
//! becomes an [`ExplainStep`], and the last one is the verdict: the planner
//! is the only code that decides a pair's fate, and explain repeats what it
//! recorded.

use crate::pipeline::{uniquify_module_names, xmerge_corpus, XMergeConfig};
use ssa_ir::Module;
use std::fmt;
use telemetry::{Decision, DecisionEvent};

/// One recorded event of the pair.
#[derive(Debug, Clone)]
pub struct ExplainStep {
    /// The stage that recorded it: `discovery`, `scoring`, `rejected` or
    /// `commit`.
    pub stage: &'static str,
    /// What the event recorded; every event after discovery also names the
    /// pair's host and donor modules as the pipeline placed them.
    pub detail: String,
}

/// The verdict chain for one pair.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The pair's events in log order; one `discovery` step instead when no
    /// round discovered the pair or both functions live in one module.
    pub steps: Vec<ExplainStep>,
    /// The outcome of the last event, with its reason.
    pub verdict: String,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for step in &self.steps {
            writeln!(f, "  {:<10} {}", step.stage, step.detail)?;
        }
        write!(f, "  {:<10} {}", "verdict", self.verdict)
    }
}

/// A function reference resolved from a `module:name`-or-bare-name spec,
/// with its size when it was resolved.
struct Resolved {
    module: usize,
    name: String,
    insts: usize,
}

/// Resolves a spec in `modules`; `Ok(None)` when no module (or not the
/// named one) defines the function.
fn resolve_spec(modules: &[Module], spec: &str) -> Result<Option<Resolved>, String> {
    let resolved = |module: usize, name: &str| {
        modules[module].function(name).map(|f| Resolved {
            module,
            name: name.to_string(),
            insts: f.num_insts(),
        })
    };
    if let Some((module_part, fn_part)) = spec.split_once(':') {
        let mi = modules
            .iter()
            .position(|m| m.name == module_part)
            .ok_or_else(|| format!("no module named `{module_part}` in the corpus"))?;
        return Ok(resolved(mi, fn_part));
    }
    let sites: Vec<usize> = (0..modules.len())
        .filter(|&mi| modules[mi].function(spec).is_some())
        .collect();
    match sites.len() {
        0 | 1 => Ok(sites.first().and_then(|&mi| resolved(mi, spec))),
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

/// The error for a spec that resolves neither in the corpus nor in the
/// run's output.
fn missing(spec: &str) -> String {
    match spec.split_once(':') {
        Some((module, name)) => format!("module `{module}` does not define `{name}`"),
        None => format!("no function named `{spec}` in the corpus"),
    }
}

/// For two functions of one module: an error when they are the same
/// function, else the out-of-scope verdict (intra-module decisions carry no
/// module names, so the cross-module log cannot tell this pair's story).
fn same_module(a: &Resolved, b: &Resolved) -> Result<Option<Explanation>, String> {
    if a.module != b.module {
        return Ok(None);
    }
    if a.name == b.name {
        return Err("both specs name the same function".to_string());
    }
    Ok(Some(Explanation {
        steps: vec![ExplainStep {
            stage: "discovery",
            detail: "both functions live in the same module: this is an intra-module pair; \
                     cross-module discovery never considers it (the intra driver's \
                     fingerprint ranking does)"
                .to_string(),
        }],
        verdict: "out of scope for the cross-module pipeline; run `salssa merge` \
                  on the module to see the intra-module outcome"
            .to_string(),
    }))
}

/// The explanation of a pair no round discovered, naming the discovery
/// floor when a side is below it.
fn undiscovered(config: &XMergeConfig, sides: [&Resolved; 2]) -> Explanation {
    let min = config.discovery.min_function_size;
    let mut why: Vec<String> = sides
        .iter()
        .filter(|r| r.insts < min)
        .map(|r| {
            format!(
                "{} has {} instructions, below the discovery floor of {min}",
                r.name, r.insts
            )
        })
        .collect();
    if why.is_empty() {
        why.push(
            "no LSH band collided (the opcode-shingle signatures are too \
             dissimilar), or the pair ranked below max_candidates_per_fn"
                .to_string(),
        );
    }
    Explanation {
        steps: vec![ExplainStep {
            stage: "discovery",
            detail: format!("NOT discovered: {}", why.join("; ")),
        }],
        verdict: "not a candidate: no round of the run discovered the pair".to_string(),
    }
}

/// What an event recorded beyond its kind: the reason of a rejection, the
/// detail and the profit (`superseded: an endpoint was consumed by an
/// earlier commit, profit 146 bytes`).
fn particulars(d: &Decision) -> String {
    let mut parts: Vec<String> = Vec::new();
    if let DecisionEvent::Rejected(reason) = d.event {
        parts.push(reason.as_str().to_string());
    }
    if !d.detail.is_empty() {
        parts.push(d.detail.clone());
    }
    let mut out = parts.join(": ");
    if let Some(profit) = d.profit {
        out += &format!(
            "{}profit {profit} bytes",
            if out.is_empty() { "" } else { ", " }
        );
    }
    out
}

/// One event as a step. Discovery orients a pair by size; every later event
/// names it as placed, host first.
fn step(d: &Decision) -> ExplainStep {
    let stage = match d.event {
        DecisionEvent::Discovered => {
            return ExplainStep {
                stage: "discovery",
                detail: format!("discovered by LSH: {}", d.detail),
            };
        }
        DecisionEvent::Scored => "scoring",
        DecisionEvent::Rejected(_) => "rejected",
        DecisionEvent::Committed => "commit",
    };
    ExplainStep {
        stage,
        detail: format!(
            "{}; host={}, donor={}",
            particulars(d),
            d.pair.module_a,
            d.pair.module_b
        ),
    }
}

/// Explains the pair named by `spec_a` / `spec_b` (each `function` or
/// `module:function`): runs [`xmerge_corpus`] once over `modules` with
/// `config`, leaving them as the run does, and returns the pair's recorded
/// decisions as the verdict chain. Two functions of one module are answered
/// without a run.
///
/// Module names are uniquified exactly as [`xmerge_corpus`] does, so
/// specs should use the post-uniquification names when the corpus has
/// duplicate module names (rare; the loader derives names from file stems).
/// A function the corpus does not define resolves in the run's output, so a
/// `merged.xm.*` body that a later round merged again can be named.
pub fn explain_pair(
    modules: &mut [Module],
    config: &XMergeConfig,
    spec_a: &str,
    spec_b: &str,
) -> Result<Explanation, String> {
    uniquify_module_names(modules);
    let input = [
        resolve_spec(modules, spec_a)?,
        resolve_spec(modules, spec_b)?,
    ];
    if let [Some(a), Some(b)] = &input {
        if let Some(ex) = same_module(a, b)? {
            return Ok(ex);
        }
    }
    let (_, log) = telemetry::capture_decisions(|| xmerge_corpus(modules, config));
    let modules: &[Module] = modules;
    let after_run = |resolved: Option<Resolved>, spec: &str| -> Result<Resolved, String> {
        match resolved {
            Some(r) => Ok(r),
            None => resolve_spec(modules, spec)?.ok_or_else(|| missing(spec)),
        }
    };
    let [a, b] = input;
    let (a, b) = (after_run(a, spec_a)?, after_run(b, spec_b)?);
    if let Some(ex) = same_module(&a, &b)? {
        return Ok(ex);
    }
    let sides = [
        (modules[a.module].name.as_str(), a.name.as_str()),
        (modules[b.module].name.as_str(), b.name.as_str()),
    ];
    let events: Vec<Decision> = log
        .into_vec()
        .into_iter()
        .filter(|d| {
            let named = [
                (d.pair.module_a.as_str(), d.pair.func_a.as_str()),
                (d.pair.module_b.as_str(), d.pair.func_b.as_str()),
            ];
            named == sides || [named[1], named[0]] == sides
        })
        .collect();
    let Some(last) = events.last() else {
        return Ok(undiscovered(config, [&a, &b]));
    };
    Ok(Explanation {
        steps: events.iter().map(step).collect(),
        verdict: format!("{} ({})", last.event.as_str(), particulars(last)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discover::discover;
    use crate::index::CorpusIndex;
    use crate::pipeline::{xmerge_corpus, FixpointConfig, HostPolicy, XMergeConfig};
    use salssa::DriverConfig;
    use ssa_ir::parse_module;
    use std::collections::{BTreeMap, HashMap};
    use telemetry::RejectReason;
    use workloads::{BenchmarkSpec, CorpusSpec, Divergence};

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

    /// Under the call-graph policy most commits of the call-heavy corpus
    /// flip the size rule's orientation; explain must place every committed
    /// pair as the pipeline did, whichever order the specs name it in.
    #[test]
    fn explain_names_the_pipelines_host_under_the_call_graph_policy() {
        let corpus = CorpusSpec::call_heavy().generate();
        let config = XMergeConfig::new().with_host_policy(HostPolicy::CallGraph);
        let report = xmerge_corpus(&mut corpus.clone(), &config);
        assert!(report.num_commits() > 0);
        let explain = |config: &XMergeConfig, a: &str, b: &str| {
            explain_pair(&mut corpus.clone(), config, a, b)
                .expect("explain runs")
                .to_string()
        };
        let mut flipped = 0;
        for r in &report.committed {
            let host = format!("{}:{}", r.host_module, r.f1);
            let donor = format!("{}:{}", r.donor_module, r.f2);
            let placed = format!("host={}, donor={}", r.host_module, r.donor_module);
            for (a, b) in [(&host, &donor), (&donor, &host)] {
                let rendered = explain(&config, a, b);
                assert!(rendered.contains(&placed), "{a} vs {b}:\n{rendered}");
            }
            flipped += usize::from(!explain(&XMergeConfig::new(), &host, &donor).contains(&placed));
        }
        assert!(flipped > 0, "the size rule places every commit alike");
    }

    /// A module of one function per `(name, return type)`, all with the
    /// same body.
    fn module(name: &str, functions: &[(&str, &str)], extra: &str) -> Module {
        let text: Vec<String> = functions
            .iter()
            .map(|(f, ret)| {
                format!(
                    "define {ret} @{f}(i32 %x) {{\nentry:\n  %a = add i32 %x, 1\n  %b = mul i32 %a, 3\n  %c = call i32 @h(i32 %b)\n  %d = xor i32 %c, %x\n  %e = call i32 @h(i32 %d)\n  %g = sub i32 %e, %a\n  %r = zext i32 %g to {ret}\n  ret {ret} %r\n}}"
                )
            })
            .collect();
        let mut m = parse_module(&format!("{}\n{extra}", text.join("\n"))).unwrap();
        m.name = name.to_string();
        m
    }

    /// The events of a run that name both sides, in either orientation.
    fn events_of(log: &[Decision], a: (&str, &str), b: (&str, &str)) -> Vec<Decision> {
        log.iter()
            .filter(|d| {
                let x = (d.pair.module_a.as_str(), d.pair.func_a.as_str());
                let y = (d.pair.module_b.as_str(), d.pair.func_b.as_str());
                (x, y) == (a, b) || (x, y) == (b, a)
            })
            .cloned()
            .collect()
    }

    #[test]
    fn explain_never_turns_the_process_wide_log_on() {
        let mut corpus = vec![
            module("a", &[("f", "i32")], ""),
            module("b", &[("g", "i32")], ""),
        ];
        let ex =
            explain_pair(&mut corpus, &XMergeConfig::new(), "a:f", "b:g").expect("explain runs");
        assert!(ex.verdict.starts_with("committed"), "{ex}");
        assert!(!telemetry::decisions_enabled());
        assert!(telemetry::take_decisions().is_empty());
    }

    /// The benchmark's fixpoint configuration on the call-heavy corpus of
    /// seed 21: for one pair of each final outcome, and one pair with a side
    /// an earlier round made, explain's steps are the pair's recorded events
    /// in log order and its verdict is the last one.
    #[test]
    fn explain_steps_are_the_runs_recorded_events() {
        let corpus = CorpusSpec {
            seed: 21,
            ..CorpusSpec::call_heavy()
        }
        .generate();
        let fuel = Some(100_000);
        let config = XMergeConfig::new()
            .with_check_semantics(true)
            .with_oracle_fuel(fuel)
            .with_host_policy(HostPolicy::CallGraph)
            .with_fixpoint(FixpointConfig {
                intra: Some(
                    DriverConfig::default()
                        .with_check_semantics(true)
                        .with_oracle_fuel(fuel),
                ),
                ..FixpointConfig::default()
            });
        let (_, log) = telemetry::capture_decisions(|| xmerge_corpus(&mut corpus.clone(), &config));
        let log = log.into_vec();

        // Each cross pair's last event, keyed by its sides in sorted order.
        let mut last: BTreeMap<[(String, String); 2], Decision> = BTreeMap::new();
        for d in log.iter().filter(|d| !d.pair.module_a.is_empty()) {
            let mut sides = [
                (d.pair.module_a.clone(), d.pair.func_a.clone()),
                (d.pair.module_b.clone(), d.pair.func_b.clone()),
            ];
            sides.sort();
            last.insert(sides, d.clone());
        }
        let outcome = |d: &Decision| match d.event {
            DecisionEvent::Rejected(reason) => reason.as_str(),
            event => event.as_str(),
        };
        let mut outcomes: HashMap<&str, usize> = HashMap::new();
        for d in last.values() {
            *outcomes.entry(outcome(d)).or_default() += 1;
        }
        let expected = [
            ("unprofitable", 21),
            ("committed", 16),
            ("superseded", 15),
            ("prefiltered", 12),
            ("oracle_timeout", 2),
        ];
        assert_eq!(outcomes, expected.into_iter().collect(), "final outcomes");
        let made =
            |sides: &[(String, String); 2]| sides.iter().any(|(_, f)| f.starts_with("merged.xm."));
        assert_eq!(last.keys().filter(|sides| made(sides)).count(), 12);

        let mut picked: Vec<&[(String, String); 2]> = expected
            .iter()
            .map(|(wanted, _)| last.iter().find(|(_, d)| outcome(d) == *wanted).unwrap().0)
            .collect();
        picked.push(last.keys().find(|sides| made(sides)).unwrap());
        for sides in picked {
            let [(ma, fa), (mb, fb)] = sides;
            let events = events_of(&log, (ma, fa), (mb, fb));
            let ex = explain_pair(
                &mut corpus.clone(),
                &config,
                &format!("{ma}:{fa}"),
                &format!("{mb}:{fb}"),
            )
            .expect("explain runs");
            assert_eq!(
                ex.steps.len(),
                events.len(),
                "{ma}:{fa} vs {mb}:{fb}:\n{ex}"
            );
            for (step, d) in ex.steps.iter().zip(&events) {
                let stage = match d.event {
                    DecisionEvent::Discovered => "discovery",
                    DecisionEvent::Scored => "scoring",
                    DecisionEvent::Rejected(_) => "rejected",
                    DecisionEvent::Committed => "commit",
                };
                assert_eq!(step.stage, stage, "{ex}");
                assert!(step.detail.contains(&d.detail), "{ex}");
                if let Some(profit) = d.profit {
                    assert!(step.detail.contains(&format!("profit {profit} bytes")));
                }
                if d.event != DecisionEvent::Discovered {
                    let placed = format!("host={}, donor={}", d.pair.module_a, d.pair.module_b);
                    assert!(step.detail.contains(&placed), "{ex}");
                }
            }
            let d = events.last().unwrap();
            assert!(ex.verdict.contains(outcome(d)), "{ex}");
            assert!(ex.verdict.contains(&d.detail), "{ex}");
        }
    }

    /// An announced pair the merger refuses (same body, different return
    /// types) is logged as refused, and explained so.
    #[test]
    fn a_refused_pair_is_logged_and_explained_as_refused() {
        let corpus = vec![
            module("a", &[("f", "i64")], ""),
            module("b", &[("g", "i16")], ""),
        ];
        let config = XMergeConfig::new().with_prefilter(false);
        let (report, log) =
            telemetry::capture_decisions(|| xmerge_corpus(&mut corpus.clone(), &config));
        assert_eq!(report.num_commits(), 0);
        let events = events_of(&log.into_vec(), ("a", "f"), ("b", "g"));
        let kinds: Vec<DecisionEvent> = events.iter().map(|d| d.event).collect();
        assert_eq!(
            kinds,
            [
                DecisionEvent::Discovered,
                DecisionEvent::Rejected(RejectReason::Refused)
            ]
        );
        let ex = explain_pair(&mut corpus.clone(), &config, "a:f", "b:g").expect("explain runs");
        assert_eq!(ex.steps.len(), 2, "{ex}");
        assert!(ex.verdict.starts_with("rejected (refused: "), "{ex}");
    }

    /// A vetoed commit is logged and explained as a hazard, with its reason.
    /// Under `--check-semantics`, a host and donor that each define an
    /// unrelated external `@x` differently cannot be linked; a third module
    /// exporting its own `@f` makes rewiring the host's `@f` an ODR conflict.
    #[test]
    fn hazards_are_logged_and_explained_with_their_reason() {
        let one =
            |name: &str, k: i32| format!("define i32 @{name}() {{\nentry:\n  ret i32 {k}\n}}");
        let linked = vec![
            module("a", &[("f", "i32")], &one("x", 1)),
            module("b", &[("g", "i32")], &one("x", 2)),
        ];
        let rival = vec![
            module("a", &[("f", "i32")], ""),
            module("b", &[("g", "i32")], ""),
            module("c", &[], &one("f", 3)),
        ];
        for (corpus, config, why) in [
            (
                &linked,
                XMergeConfig::new().with_check_semantics(true),
                "link conflict",
            ),
            (&rival, XMergeConfig::new(), "ODR conflict"),
        ] {
            let (report, log) =
                telemetry::capture_decisions(|| xmerge_corpus(&mut corpus.clone(), &config));
            assert_eq!(report.num_commits(), 0);
            assert_eq!(report.hazard_skips, 1);
            let events = events_of(&log.into_vec(), ("a", "f"), ("b", "g"));
            let last = events.last().expect("the pair is logged");
            assert_eq!(last.event, DecisionEvent::Rejected(RejectReason::Hazard));
            assert!(last.detail.starts_with(why), "{last:?}");
            let ex = explain_pair(&mut corpus.clone(), &config, "a:f", "g").expect("explain runs");
            let verdict = format!("rejected (hazard: {why}");
            assert!(ex.verdict.starts_with(&verdict), "{ex}");
        }
        // The one-instruction `@x` copies are below the discovery floor.
        let config = XMergeConfig::new();
        let ex = explain_pair(&mut linked.clone(), &config, "a:x", "b:x").expect("explain runs");
        assert!(
            ex.steps[0].detail.contains("below the discovery floor"),
            "{ex}"
        );
        assert!(ex.verdict.starts_with("not a candidate"), "{ex}");
    }
}
