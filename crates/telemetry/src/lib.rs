//! Telemetry for the SalSSA pipeline: spans, histograms, and decision
//! provenance.
//!
//! Independent facilities share one design rule — **observational
//! purity**: enabling any of them must not change what the pipeline computes,
//! only what it records about the computation. Equivalence tests in
//! `tests/telemetry_suite.rs` enforce that merge records are bit-identical
//! with telemetry on and off.
//!
//! * [`span`](mod@span) — thread-aware begin/end spans with nesting,
//!   buffered per thread (rayon-safe: the hot path touches only the current
//!   thread's own buffer) and exported as Chrome Trace Event Format JSON for
//!   Perfetto. When tracing is disabled a span costs one relaxed atomic load.
//! * [`histogram`] — a plain power-of-two-bucket [`Histogram`] that reports
//!   own and add up. There is no process-wide metrics registry: every count
//!   a report prints is summed from what the run's own calls return, so
//!   concurrent runs cannot leak into each other's reports.
//! * [`decisions`] — the candidate-pair lifecycle (discovered → scored →
//!   rejected(reason) → committed) as an ordered event log, exported as
//!   JSONL. A capture records its own thread's decisions without the
//!   process-wide switch; `salssa explain` reads one run's log that way.
//! * [`alloc`] — the **resource layer**: a counting `#[global_allocator]`
//!   wrapper (installed below, process-wide) tracking current/peak heap
//!   bytes and allocation counts, plus `VmHWM`/`VmRSS` readers. When
//!   tracking is on, every span's end event carries the allocation delta of
//!   its thread and its contribution to the process peak.
//! * [`profile`] — folds a drained trace (or a Chrome trace JSON file) into
//!   a flamegraph-style self/total time + bytes rollup per phase, with call
//!   counts and p50/p95/p99 latencies.
//! * [`jsonv`] — a dependency-free JSON value parser (the build vendors no
//!   serde) used to read traces and JSON reports back in.
//! * [`faultinject`] — env-keyed fault probes (`SALSSA_FAULT=site[:N],…`)
//!   at parse/score/commit/oracle sites, for proving that a single-pair
//!   failure degrades to a recorded rejection instead of an abort.

pub mod alloc;
pub mod decisions;
pub mod faultinject;
pub mod histogram;
pub mod jsonv;
pub mod profile;
pub mod span;

/// The process-wide allocator: a counting wrapper over the system allocator.
/// One relaxed atomic load per operation while tracking is off — the same
/// "disabled means free" discipline as spans.
#[global_allocator]
static GLOBAL_ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

pub use alloc::{
    alloc_peak_bytes, alloc_snapshot, alloc_tracking_enabled, current_rss_bytes, peak_rss_bytes,
    reset_alloc_peak, reset_peak_rss, set_alloc_tracking, thread_alloc_bytes, thread_dealloc_bytes,
    AllocSnapshot,
};
pub use decisions::{
    append_decisions, capture_decisions, decisions_enabled, record_decision, record_decision_with,
    set_decisions, take_decisions, CapturedDecisions, Decision, DecisionEvent, Pair, RejectReason,
};
pub use faultinject::{arm as arm_fault, disarm_all as disarm_faults, should_fail, trip};
pub use histogram::Histogram;
pub use profile::{Profile, ProfileNode};
pub use span::{
    json_escape, set_tracing, span, span_with, take_trace, timed_span, tracing_enabled, AllocDelta,
    Trace,
};
