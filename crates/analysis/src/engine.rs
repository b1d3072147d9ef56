//! The analysis engine: pass scheduling, verdict caching and reporting.
//!
//! Per-function verdicts are cached by the function's [structural
//! key](ssa_ir::Function::structural_key) (plus whether its name lies in the
//! reserved `merged.` namespace, the one name-derived fact the passes
//! consult); per-module verdicts by [`Module::content_hash`]. Cached entries
//! are stored provenance-free and re-homed to the requesting module and
//! function on retrieval, so structurally identical functions — clone
//! families, ODR duplicates — are analyzed once per process. The planner's
//! paranoid mode leans on this: re-linting a corpus after a commit only pays
//! for the functions the commit actually changed.

use crate::diag::{Diagnostic, Severity};
use crate::passes;
use rayon::prelude::*;
use ssa_ir::Module;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counters and timing of one engine call (or a whole paranoid run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Modules analyzed.
    pub modules: usize,
    /// Function definitions analyzed (cached or not).
    pub functions: usize,
    /// Verdicts served from the function- or module-level cache.
    pub cache_hits: u64,
    /// Verdicts computed by running passes.
    pub cache_misses: u64,
    /// Wall-clock time spent inside the engine.
    pub elapsed: Duration,
}

impl AnalysisStats {
    /// Folds another call's statistics into this one.
    pub fn absorb(&mut self, other: AnalysisStats) {
        self.modules += other.modules;
        self.functions += other.functions;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.elapsed += other.elapsed;
    }

    /// Cache hit rate in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The result of one analysis call: diagnostics in deterministic order plus
/// the engine statistics for the call.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All diagnostics, sorted by (module, function, code, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Cache and timing statistics of this call.
    pub stats: AnalysisStats,
}

impl AnalysisReport {
    /// Diagnostic counts per severity: `(errors, warnings, lints)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        count_severities(&self.diagnostics)
    }

    /// The fingerprint set of the report's diagnostics (paranoid baselines).
    pub fn fingerprints(&self) -> HashSet<String> {
        self.diagnostics
            .iter()
            .map(Diagnostic::fingerprint)
            .collect()
    }
}

/// Diagnostic counts per severity: `(errors, warnings, lints)`.
pub fn count_severities(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Error => counts.0 += 1,
            Severity::Warning => counts.1 += 1,
            Severity::Lint => counts.2 += 1,
        }
    }
    counts
}

/// Diagnostic counts per code, in code order.
pub fn count_by_code(diags: &[Diagnostic]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for d in diags {
        *counts.entry(d.code).or_insert(0) += 1;
    }
    counts
}

/// Cache key of a function verdict: the structural key plus the one
/// name-derived fact the passes consult (membership in the `merged.`
/// namespace, which switches the discriminator and dead-parameter rules).
type FnKey = (bool, Arc<str>);

/// The whole-program analysis engine. Cheap to create; share one across a
/// planner run to let verdicts accumulate.
#[derive(Debug, Default)]
pub struct AnalysisEngine {
    fn_cache: Mutex<HashMap<FnKey, Arc<Vec<Diagnostic>>>>,
    full_cache: Mutex<HashMap<u64, Arc<Vec<Diagnostic>>>>,
    prog_cache: Mutex<HashMap<u64, Arc<Vec<Diagnostic>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnalysisEngine {
    /// Creates an engine with empty caches.
    pub fn new() -> AnalysisEngine {
        AnalysisEngine::default()
    }

    /// `(hits, misses)` accumulated over the engine's lifetime.
    pub fn cache_counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Function-scope verdicts for one function, re-homed to `module_name`.
    fn function_diags(&self, f: &ssa_ir::Function, module_name: &str) -> Vec<Diagnostic> {
        let key: FnKey = (passes::is_merged_name(&f.name), f.structural_key());
        let cached = self.fn_cache.lock().unwrap().get(&key).cloned();
        let verdict = match cached {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let v = Arc::new(passes::check_function(f));
                self.fn_cache.lock().unwrap().insert(key, v.clone());
                v
            }
        };
        verdict
            .iter()
            .map(|d| {
                let mut d = d.clone();
                d.module = module_name.to_string();
                d.function = f.name.clone();
                d
            })
            .collect()
    }

    /// Module-scope verdicts, re-homed to the module's name. Computed
    /// afresh and counted as a miss: the only caller asks on a miss of the
    /// content-hash cache that holds them with the module's other verdicts.
    fn module_diags(&self, m: &Module) -> Vec<Diagnostic> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        passes::check_module(m)
            .into_iter()
            .map(|mut d| {
                d.module = m.name.clone();
                d
            })
            .collect()
    }

    /// Every function- and module-scope verdict of one module, cached as a
    /// block by [`Module::content_hash`]. A hit skips the per-function walk
    /// (and its per-function lock traffic) entirely; function provenance is
    /// baked into the cached block because function names are part of the
    /// content hash, so only the module field needs re-homing.
    fn module_report_diags(&self, m: &Module, key: u64) -> Vec<Diagnostic> {
        let cached = self.full_cache.lock().unwrap().get(&key).cloned();
        if let Some(v) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v
                .iter()
                .map(|d| {
                    let mut d = d.clone();
                    d.module = m.name.clone();
                    d
                })
                .collect();
        }
        let mut per_fn: Vec<Vec<Diagnostic>> = m
            .functions()
            .par_iter()
            .map(|f| self.function_diags(f, &m.name))
            .collect();
        per_fn.push(self.module_diags(m));
        let flat: Vec<Diagnostic> = per_fn.into_iter().flatten().collect();
        self.full_cache
            .lock()
            .unwrap()
            .insert(key, Arc::new(flat.clone()));
        flat
    }

    /// Program-scope verdicts (cached by the fold of every module's name and
    /// content hash). Program diagnostics already carry their provenance, so
    /// cached verdicts are returned verbatim.
    fn program_diags(&self, modules: &[Module], content_hashes: &[u64]) -> Vec<Diagnostic> {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for (m, h) in modules.iter().zip(content_hashes) {
            m.name.hash(&mut hasher);
            h.hash(&mut hasher);
        }
        let key = hasher.finish();
        let cached = self.prog_cache.lock().unwrap().get(&key).cloned();
        let verdict = match cached {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let v = Arc::new(passes::check_program(modules));
                self.prog_cache.lock().unwrap().insert(key, v.clone());
                v
            }
        };
        verdict.as_ref().clone()
    }

    /// Analyzes one module: function-scope passes over every definition (in
    /// parallel) plus the module-scope passes. Program-scope passes need a
    /// corpus and do not run here.
    pub fn analyze_module(&self, m: &Module) -> AnalysisReport {
        let start = Instant::now();
        let before = self.cache_counters();
        let diagnostics = self.module_report_diags(m, m.content_hash());
        self.finish(diagnostics, 1, m.num_functions(), before, start)
    }

    /// Analyzes a whole corpus: every module (in parallel) plus the
    /// program-scope passes under linker resolution.
    pub fn analyze_program(&self, modules: &[Module]) -> AnalysisReport {
        let _span =
            telemetry::span_with("analysis.program", || format!("{} modules", modules.len()));
        let start = Instant::now();
        let before = self.cache_counters();
        // One content-hash sweep per call, shared by the per-module block
        // cache and the program-verdict cache key.
        let per_module: Vec<(u64, Vec<Diagnostic>)> = modules
            .par_iter()
            .map(|m| {
                let key = m.content_hash();
                (key, self.module_report_diags(m, key))
            })
            .collect();
        let hashes: Vec<u64> = per_module.iter().map(|(h, _)| *h).collect();
        let mut diagnostics: Vec<Diagnostic> =
            per_module.into_iter().flat_map(|(_, d)| d).collect();
        diagnostics.extend(self.program_diags(modules, &hashes));
        let functions = modules.iter().map(Module::num_functions).sum();
        self.finish(diagnostics, modules.len(), functions, before, start)
    }

    fn finish(
        &self,
        mut diagnostics: Vec<Diagnostic>,
        modules: usize,
        functions: usize,
        before: (u64, u64),
        start: Instant,
    ) -> AnalysisReport {
        diagnostics.sort_by(|a, b| {
            (&a.module, &a.function, a.code, &a.message).cmp(&(
                &b.module,
                &b.function,
                b.code,
                &b.message,
            ))
        });
        let after = self.cache_counters();
        AnalysisReport {
            diagnostics,
            stats: AnalysisStats {
                modules,
                functions,
                cache_hits: after.0 - before.0,
                cache_misses: after.1 - before.1,
                elapsed: start.elapsed(),
            },
        }
    }
}

/// Per-commit delta verification for the planners' paranoid mode.
///
/// A monitor captures the diagnostic fingerprint set of the input as a
/// baseline, then re-analyzes after every committed merge. Diagnostics whose
/// fingerprint is not in the baseline are *delta* diagnostics — regressions
/// the commit introduced. Each new fingerprint is absorbed into the baseline
/// after being reported, so a regression is counted once, not once per
/// subsequent check. The monitor only observes: it never influences commit
/// decisions, which is what makes `--paranoid` runs bit-identical to plain
/// runs.
#[derive(Debug)]
pub struct ParanoidMonitor {
    engine: AnalysisEngine,
    baseline: HashSet<String>,
    delta: Vec<Diagnostic>,
    checks: usize,
    stats: AnalysisStats,
}

impl ParanoidMonitor {
    /// Captures the baseline of a single module (intra-module planner).
    pub fn for_module(m: &Module) -> ParanoidMonitor {
        let engine = AnalysisEngine::new();
        let report = engine.analyze_module(m);
        ParanoidMonitor::from_baseline(engine, report)
    }

    /// Captures the baseline of a whole corpus (cross-module pipeline).
    pub fn for_corpus(modules: &[Module]) -> ParanoidMonitor {
        let engine = AnalysisEngine::new();
        let report = engine.analyze_program(modules);
        ParanoidMonitor::from_baseline(engine, report)
    }

    fn from_baseline(engine: AnalysisEngine, report: AnalysisReport) -> ParanoidMonitor {
        ParanoidMonitor {
            engine,
            baseline: report.fingerprints(),
            delta: Vec::new(),
            checks: 0,
            stats: report.stats,
        }
    }

    /// Re-analyzes one module after a commit, recording new diagnostics.
    /// Returns how many the commit introduced.
    pub fn check_module(&mut self, m: &Module) -> usize {
        let _span = telemetry::span_with("paranoid.check_module", || m.name.clone());
        let report = self.engine.analyze_module(m);
        self.absorb(report)
    }

    /// Re-analyzes the whole corpus (including the program-scope passes),
    /// recording new diagnostics. Returns how many were introduced.
    pub fn check_corpus(&mut self, modules: &[Module]) -> usize {
        let _span = telemetry::span_with("paranoid.check_corpus", || {
            format!("{} modules", modules.len())
        });
        let report = self.engine.analyze_program(modules);
        self.absorb(report)
    }

    fn absorb(&mut self, report: AnalysisReport) -> usize {
        self.checks += 1;
        self.stats.absorb(report.stats);
        let mut new = 0;
        for d in report.diagnostics {
            if self.baseline.insert(d.fingerprint()) {
                self.delta.push(d);
                new += 1;
            }
        }
        new
    }

    /// Diagnostics introduced since the baseline, in discovery order.
    pub fn delta(&self) -> &[Diagnostic] {
        &self.delta
    }

    /// Consumes the monitor, yielding the delta diagnostics.
    pub fn into_delta(self) -> Vec<Diagnostic> {
        self.delta
    }

    /// Number of post-commit checks performed (baseline excluded).
    pub fn checks(&self) -> usize {
        self.checks
    }

    /// Aggregate engine statistics over the baseline and every check.
    pub fn stats(&self) -> AnalysisStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::codes;
    use ssa_ir::parse_module;

    fn module(name: &str, text: &str) -> Module {
        let mut m = parse_module(text).expect("test IR parses");
        m.name = name.to_string();
        m
    }

    const DEAD_PARAM_FN: &str = "define i32 @f(i32 %x, i32 %unused) {\nentry:\n  ret i32 %x\n}";

    #[test]
    fn verdicts_are_cached_and_rehomed() {
        let engine = AnalysisEngine::new();
        let m1 = module("m1", DEAD_PARAM_FN);
        // Same content under another module and function name: structurally
        // identical, so the second analysis is served from the cache but
        // re-homed to the new provenance.
        let m2 = module("m2", &DEAD_PARAM_FN.replace("@f", "@g"));
        let r1 = engine.analyze_module(&m1);
        assert_eq!(r1.counts(), (0, 0, 1));
        assert_eq!(
            (
                r1.diagnostics[0].module.as_str(),
                r1.diagnostics[0].function.as_str()
            ),
            ("m1", "f")
        );
        assert!(r1.stats.cache_misses > 0);
        let r2 = engine.analyze_module(&m2);
        assert_eq!(r2.counts(), (0, 0, 1));
        assert_eq!(
            (
                r2.diagnostics[0].module.as_str(),
                r2.diagnostics[0].function.as_str()
            ),
            ("m2", "g")
        );
        assert_eq!(
            r2.stats.cache_misses, 1,
            "only the module verdict is recomputed"
        );
        assert_eq!(
            r2.stats.cache_hits, 1,
            "the function verdict is a cache hit"
        );
        // Re-analyzing the identical module is a pure cache hit.
        let r3 = engine.analyze_module(&m1);
        assert_eq!(r3.stats.cache_misses, 0);
        assert_eq!(r3.stats.hit_rate(), 1.0);
    }

    /// A warm engine re-analyzing an unchanged corpus computes nothing: one
    /// module-block hit per module plus the program verdict, and the same
    /// diagnostics.
    #[test]
    fn warm_program_analysis_computes_nothing() {
        let corpus = workloads::CorpusSpec {
            seed: 22,
            ..workloads::CorpusSpec::default()
        }
        .generate();
        let engine = AnalysisEngine::new();
        let cold = engine.analyze_program(&corpus);
        assert!(cold.stats.cache_misses > 0, "{:?}", cold.stats);
        let warm = engine.analyze_program(&corpus);
        assert_eq!(warm.stats.cache_misses, 0, "{:?}", warm.stats);
        assert_eq!(warm.stats.cache_hits, corpus.len() as u64 + 1);
        assert_eq!(warm.diagnostics, cold.diagnostics);
    }

    #[test]
    fn merged_namespace_is_part_of_the_cache_key() {
        // Identical bodies, one under the merged namespace: the verdicts
        // differ (discriminator rules), so they must not share a cache slot.
        let engine = AnalysisEngine::new();
        let plain = module(
            "m",
            "define i32 @f(i1 %c, i32 %x) {\nentry:\n  %z = zext i1 %c to i32\n  %r = add i32 %z, %x\n  ret i32 %r\n}",
        );
        let merged = module(
            "m",
            "define i32 @merged.a.b(i1 %c, i32 %x) {\nentry:\n  %z = zext i1 %c to i32\n  %r = add i32 %z, %x\n  ret i32 %r\n}",
        );
        assert!(engine.analyze_module(&plain).diagnostics.is_empty());
        let r = engine.analyze_module(&merged);
        assert_eq!(r.counts().0, 1);
        assert_eq!(r.diagnostics[0].code, codes::DISCRIMINATOR);
    }

    #[test]
    fn analyze_program_includes_program_scope() {
        let engine = AnalysisEngine::new();
        let body = "define i32 @dup(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}";
        let report = engine.analyze_program(&[module("m1", body), module("m2", body)]);
        assert_eq!(
            report
                .diagnostics
                .iter()
                .map(|d| d.code)
                .collect::<Vec<_>>(),
            vec![codes::DUPLICATE_DEFINITION]
        );
        assert_eq!(report.stats.modules, 2);
        assert_eq!(report.stats.functions, 2);
    }

    #[test]
    fn paranoid_monitor_reports_only_the_delta() {
        // The baseline already contains a dead parameter; only the
        // regression introduced afterwards shows up as delta, and only once.
        let mut m = module("m", DEAD_PARAM_FN);
        let mut monitor = ParanoidMonitor::for_module(&m);
        assert_eq!(monitor.check_module(&m), 0, "unchanged module: no delta");
        let f = parse_module("define i32 @merged.x.y(i32 %fid, i32 %x) {\nentry:\n  ret i32 %x\n}")
            .unwrap()
            .functions()[0]
            .clone();
        m.add_function(f);
        assert_eq!(monitor.check_module(&m), 1, "the bad merged fn is new");
        assert_eq!(monitor.check_module(&m), 0, "absorbed into the baseline");
        assert_eq!(monitor.delta().len(), 1);
        assert_eq!(monitor.delta()[0].code, codes::DISCRIMINATOR);
        assert_eq!(monitor.checks(), 3);
        assert!(monitor.stats().cache_hits > 0);
    }
}
