//! Memory guard for the cross-module differential oracle: the programs each
//! oracle run links are dropped when the run ends, so running the oracle on
//! every commit adds little to the pipeline's heap high-water mark.
//!
//! The allocator counters are process-wide, so this file holds exactly one
//! test and runs in its own process.

use workloads::CorpusSpec;
use xmerge::{xmerge_corpus, HostPolicy, XMergeConfig};

/// Runs one cross-module round over a fresh call-heavy corpus and returns the
/// heap growth from the start of the run to its peak, in bytes, together with
/// the oracle links the run performed.
fn peak_growth(check_semantics: bool) -> (u64, usize) {
    let mut corpus = CorpusSpec {
        num_modules: 16,
        functions_per_module: 12,
        seed: 21,
        ..CorpusSpec::call_heavy()
    }
    .generate();
    let config = XMergeConfig::new()
        .with_host_policy(HostPolicy::CallGraph)
        .with_check_semantics(check_semantics)
        .with_oracle_fuel(Some(100_000));
    telemetry::reset_alloc_peak();
    let start = telemetry::alloc_snapshot().current_bytes;
    let report = xmerge_corpus(&mut corpus, &config);
    let growth = telemetry::alloc_peak_bytes().saturating_sub(start);
    (growth, report.planner.oracle_links)
}

#[test]
fn oracle_links_do_not_outlive_their_run() {
    telemetry::set_alloc_tracking(true);
    let (without, no_links) = peak_growth(false);
    let (with, links) = peak_growth(true);
    telemetry::set_alloc_tracking(false);
    assert_eq!(no_links, 0);
    assert!(links > 0, "the oracle never ran");
    assert!(
        with <= 2 * without,
        "the oracle raised the heap peak from {without} to {with} bytes \
         ({:.2}x; at most 2x allowed)",
        with as f64 / without.max(1) as f64
    );
}
