//! Runs made together in one process report exactly what they report alone.
//!
//! Four runs start together behind a barrier: two cross-module runs over
//! S-tier corpora and two intra-module runs over SPEC CPU2006-shaped
//! modules. Every alignment, planner and pre-filter count in a report, and
//! every counter and histogram of its `telemetry` block, must be the same
//! as in the report of the same run made alone. Only the structural-key
//! cache counts are exempt: that cache is process-wide, so its deltas
//! include the other runs' lookups.

use salssa::{merge_module, DriverConfig, SalSsaMerger};
use ssa_ir::Module;
use std::sync::Barrier;
use std::thread;
use telemetry::jsonv::{parse_json, JsonValue};
use workloads::PerfTier;
use xmerge::{corpus_report_json, merge_report_json, xmerge_corpus, XMergeConfig};

/// One merge run, rendered as its JSON report.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// `xmerge_corpus` over the S-tier corpus generated from this seed.
    Corpus(u64),
    /// `merge_module` over the `workloads::spec2006()` module at this index.
    Module(usize),
}

fn cleaned(mut modules: Vec<Module>) -> Vec<Module> {
    for module in &mut modules {
        for function in module.functions_mut() {
            ssa_passes::cleanup_function(function);
        }
    }
    modules
}

impl Run {
    /// Builds the input, waits at `start`, merges, and renders the report.
    fn execute(self, start: &Barrier) -> String {
        match self {
            Run::Corpus(seed) => {
                let mut spec = PerfTier::S.spec();
                spec.seed = seed;
                let mut modules = cleaned(spec.generate());
                start.wait();
                corpus_report_json(&xmerge_corpus(&mut modules, &XMergeConfig::new()))
            }
            Run::Module(index) => {
                let spec = &workloads::spec2006()[index];
                let mut module = cleaned(vec![spec.generate()]).remove(0);
                let config = DriverConfig::default();
                start.wait();
                let report = merge_module(&mut module, &SalSsaMerger::default(), &config);
                merge_report_json(&spec.name, &report, (0, 0), (0, 0))
            }
        }
    }
}

/// `value` without the object members named in `drop`.
fn without(value: &JsonValue, drop: &[&str]) -> JsonValue {
    match value {
        JsonValue::Obj(members) => JsonValue::Obj(
            members
                .iter()
                .filter(|(name, _)| !drop.contains(&name.as_str()))
                .map(|(name, v)| (name.clone(), v.clone()))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The blocks of a report that must belong to its own run: `alignment`,
/// `prefilter`, `planner` without its wall times, and `telemetry` without
/// the structural-key counters.
fn own_counts(json: &str) -> Vec<(&'static str, JsonValue)> {
    let report = parse_json(json).expect("reports are valid JSON");
    let block = |name: &str| report.get(name).cloned().unwrap_or(JsonValue::Null);
    let telemetry = block("telemetry");
    let counters = telemetry
        .get("counters")
        .cloned()
        .unwrap_or(JsonValue::Null);
    let structural = ["ssa_ir.structural_key.hits", "ssa_ir.structural_key.misses"];
    vec![
        ("alignment", block("alignment")),
        ("prefilter", block("prefilter")),
        (
            "planner",
            without(&block("planner"), &["score_ms", "commit_ms"]),
        ),
        ("telemetry.counters", without(&counters, &structural)),
        (
            "telemetry.histograms",
            telemetry
                .get("histograms")
                .cloned()
                .unwrap_or(JsonValue::Null),
        ),
    ]
}

#[test]
fn concurrent_runs_report_what_they_report_alone() {
    let runs = [
        Run::Corpus(11),
        Run::Corpus(12),
        Run::Module(5),
        Run::Module(10),
    ];
    let start = Barrier::new(runs.len());
    let together: Vec<String> = thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|run| scope.spawn(|| run.execute(&start)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("a run panicked"))
            .collect()
    });
    for (run, together) in runs.iter().zip(&together) {
        let alone = own_counts(&run.execute(&Barrier::new(1)));
        let together = own_counts(together);
        let full_runs = alone[0].1.get("full_runs").and_then(JsonValue::as_u64);
        assert!(full_runs > Some(0), "{run:?} aligned nothing");
        for ((block, alone), (_, together)) in alone.iter().zip(&together) {
            assert_eq!(
                together, alone,
                "{run:?}: the {block} block of the concurrent run differs from the run alone"
            );
        }
    }
}
