//! Candidate-pair decision provenance.
//!
//! Every candidate pair the planner examines moves through a lifecycle —
//! discovered → scored(profit) → rejected(reason) | committed — and each
//! transition is recorded here as one [`Decision`]. The log is ordered by a
//! global sequence number, exported as JSONL via `--decisions-out`, and
//! replayed for a single pair by `salssa explain`.
//!
//! Recording is observationally pure: every emission site reads planner
//! state, never writes it, so the committed records are bit-identical with
//! the log on or off. When disabled, [`record_decision`] is one relaxed
//! atomic load.
//!
//! Work that runs on several threads at once can still log in a fixed order:
//! [`capture_decisions`] keeps what one thread records in a buffer of its
//! own, and [`append_decisions`] later adds such buffers to the log, in the
//! order the caller chooses, numbering them as they go in.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::span::json_escape;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

fn log() -> &'static Mutex<Vec<Decision>> {
    static LOG: OnceLock<Mutex<Vec<Decision>>> = OnceLock::new();
    LOG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Is decision logging on? One relaxed load.
#[inline]
pub fn decisions_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn decision logging on or off.
pub fn set_decisions(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The two functions a decision is about. Module names are empty for
/// intra-module pairs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Pair {
    pub module_a: String,
    pub func_a: String,
    pub module_b: String,
    pub func_b: String,
}

impl Pair {
    pub fn intra(func_a: impl Into<String>, func_b: impl Into<String>) -> Self {
        Pair {
            module_a: String::new(),
            func_a: func_a.into(),
            module_b: String::new(),
            func_b: func_b.into(),
        }
    }

    pub fn cross(
        module_a: impl Into<String>,
        func_a: impl Into<String>,
        module_b: impl Into<String>,
        func_b: impl Into<String>,
    ) -> Self {
        Pair {
            module_a: module_a.into(),
            func_a: func_a.into(),
            module_b: module_b.into(),
            func_b: func_b.into(),
        }
    }
}

/// Lifecycle stage a pair just reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionEvent {
    Discovered,
    Scored,
    Rejected(RejectReason),
    Committed,
}

/// Why a pair fell out of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Call-graph or ODR hazard scan vetoed the commit.
    Hazard,
    /// The differential semantic oracle observed a divergence.
    Oracle,
    /// Estimated profit was ≤ 0 by commit time.
    Unprofitable,
    /// An endpoint was consumed by an earlier, more profitable commit.
    Superseded,
    /// The merger itself declined to produce a candidate (alignment refused).
    Refused,
    /// The admissible pre-filter proved the pair cannot be profitable before
    /// any codegen-based scoring ran.
    Prefiltered,
    /// Scoring, hazard scanning, or commit panicked; the panic was isolated
    /// and only this pair was lost.
    InternalError,
    /// The differential semantic oracle exhausted its fuel budget before
    /// reaching a verdict; the commit was conservatively refused.
    OracleTimeout,
}

impl RejectReason {
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::Hazard => "hazard",
            RejectReason::Oracle => "oracle",
            RejectReason::Unprofitable => "unprofitable",
            RejectReason::Superseded => "superseded",
            RejectReason::Refused => "refused",
            RejectReason::Prefiltered => "prefiltered",
            RejectReason::InternalError => "internal_error",
            RejectReason::OracleTimeout => "oracle_timeout",
        }
    }
}

impl DecisionEvent {
    pub fn as_str(&self) -> &'static str {
        match self {
            DecisionEvent::Discovered => "discovered",
            DecisionEvent::Scored => "scored",
            DecisionEvent::Rejected(_) => "rejected",
            DecisionEvent::Committed => "committed",
        }
    }
}

/// One decision-log entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    pub seq: u64,
    pub event: DecisionEvent,
    pub pair: Pair,
    pub profit: Option<i64>,
    /// Free-form context: hazard kind, oracle sample count, distance, …
    pub detail: String,
}

impl Decision {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"event\":\"{}\"",
            self.seq,
            self.event.as_str()
        );
        if let DecisionEvent::Rejected(reason) = self.event {
            out.push_str(&format!(",\"reason\":\"{}\"", reason.as_str()));
        }
        out.push_str(&format!(
            ",\"module_a\":\"{}\",\"func_a\":\"{}\",\"module_b\":\"{}\",\"func_b\":\"{}\"",
            json_escape(&self.pair.module_a),
            json_escape(&self.pair.func_a),
            json_escape(&self.pair.module_b),
            json_escape(&self.pair.func_b)
        ));
        if let Some(profit) = self.profit {
            out.push_str(&format!(",\"profit\":{profit}"));
        }
        if !self.detail.is_empty() {
            out.push_str(&format!(",\"detail\":\"{}\"", json_escape(&self.detail)));
        }
        out.push('}');
        out
    }
}

thread_local! {
    /// This thread's open capture, if any (see [`capture_decisions`]).
    static CAPTURE: RefCell<Option<Vec<Decision>>> = const { RefCell::new(None) };
}

/// Adds one decision to this thread's open capture or, when none is open,
/// numbers it and appends it to the log.
fn push(decision: Decision) {
    let Some(mut decision) = CAPTURE.with(|capture| match capture.borrow_mut().as_mut() {
        Some(buffer) => {
            buffer.push(decision);
            None
        }
        None => Some(decision),
    }) else {
        return;
    };
    let mut log = log().lock().unwrap();
    decision.seq = SEQ.fetch_add(1, Ordering::Relaxed);
    log.push(decision);
}

/// Append one decision to the log. No-op (one atomic load) when disabled.
/// Prefer [`record_decision_with`] when building the pair is not free.
#[inline]
pub fn record_decision(event: DecisionEvent, pair: Pair, profit: Option<i64>, detail: String) {
    if !decisions_enabled() {
        return;
    }
    push(Decision {
        seq: 0,
        event,
        pair,
        profit,
        detail,
    });
}

/// Like [`record_decision`], but the pair/profit/detail are built lazily so
/// that disabled logging does not pay for `String` clones.
#[inline]
pub fn record_decision_with(
    event: DecisionEvent,
    build: impl FnOnce() -> (Pair, Option<i64>, String),
) {
    if !decisions_enabled() {
        return;
    }
    let (pair, profit, detail) = build();
    record_decision(event, pair, profit, detail);
}

/// Decisions one thread recorded inside [`capture_decisions`]: kept out of
/// the log, and not numbered, until [`append_decisions`] adds them.
#[derive(Debug)]
pub struct CapturedDecisions(Vec<Decision>);

/// Runs `f` with every decision this thread records kept in a buffer of its
/// own instead of the log, and returns `f`'s result with that buffer. A
/// capture opened inside another one hands its decisions back to its own
/// caller; decisions recorded on other threads are not captured.
pub fn capture_decisions<T>(f: impl FnOnce() -> T) -> (T, CapturedDecisions) {
    /// Puts the enclosing capture back, also when `f` unwinds.
    struct Restore(Option<Vec<Decision>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let outer = self.0.take();
            CAPTURE.with(|capture| *capture.borrow_mut() = outer);
        }
    }
    let restore = Restore(CAPTURE.with(|capture| capture.replace(Some(Vec::new()))));
    let out = f();
    let captured = CAPTURE.with(|capture| capture.borrow_mut().take());
    drop(restore);
    (out, CapturedDecisions(captured.unwrap_or_default()))
}

/// Adds captured decisions to the log in their recorded order, numbering
/// each as it goes in (into this thread's open capture instead, if one is
/// open).
pub fn append_decisions(captured: CapturedDecisions) {
    for decision in captured.0 {
        push(decision);
    }
}

/// Drain the decision log (ordered by sequence number).
pub fn take_decisions() -> Vec<Decision> {
    let mut decisions = std::mem::take(&mut *log().lock().unwrap());
    decisions.sort_by_key(|d| d.seq);
    decisions
}

/// Render a decision list as JSON Lines (one object per line).
pub fn to_jsonl(decisions: &[Decision]) -> String {
    let mut out = String::new();
    for d in decisions {
        out.push_str(&d.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_logging_records_nothing() {
        let _l = lock();
        set_decisions(false);
        let _ = take_decisions();
        record_decision(
            DecisionEvent::Discovered,
            Pair::intra("a", "b"),
            None,
            String::new(),
        );
        record_decision_with(DecisionEvent::Committed, || panic!("must not run"));
        assert!(take_decisions().is_empty());
    }

    #[test]
    fn lifecycle_round_trips_through_jsonl() {
        let _l = lock();
        set_decisions(true);
        let _ = take_decisions();
        record_decision(
            DecisionEvent::Discovered,
            Pair::cross("m1", "f", "m2", "g"),
            None,
            "distance=2".to_string(),
        );
        record_decision(
            DecisionEvent::Scored,
            Pair::cross("m1", "f", "m2", "g"),
            Some(42),
            String::new(),
        );
        record_decision(
            DecisionEvent::Rejected(RejectReason::Hazard),
            Pair::cross("m1", "f", "m2", "g"),
            Some(42),
            "odr".to_string(),
        );
        set_decisions(false);
        let decisions = take_decisions();
        assert_eq!(decisions.len(), 3);
        assert!(decisions.windows(2).all(|w| w[0].seq < w[1].seq));
        let jsonl = to_jsonl(&decisions);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"event\":\"discovered\""),
            "{}",
            lines[0]
        );
        assert!(lines[1].contains("\"profit\":42"), "{}", lines[1]);
        assert!(
            lines[2].contains("\"reason\":\"hazard\"") && lines[2].contains("\"detail\":\"odr\""),
            "{}",
            lines[2]
        );
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn captured_decisions_enter_the_log_when_appended_in_append_order() {
        let _l = lock();
        set_decisions(true);
        let _ = take_decisions();
        let record = |func: &str| {
            record_decision(
                DecisionEvent::Discovered,
                Pair::intra(func, "x"),
                None,
                String::new(),
            )
        };
        record("before");
        let ((), first) = capture_decisions(|| {
            record("a1");
            record("a2");
        });
        let ((), second) = capture_decisions(|| record("b1"));
        // Another thread's records are not captured by this one.
        let (other, captured_here) = capture_decisions(|| {
            std::thread::scope(|scope| scope.spawn(|| record("elsewhere")).join().unwrap());
            take_decisions()
        });
        let funcs = |decisions: &[Decision]| -> Vec<String> {
            decisions.iter().map(|d| d.pair.func_a.clone()).collect()
        };
        assert_eq!(funcs(&other), ["before", "elsewhere"]);
        assert!(take_decisions().is_empty(), "captures stay out of the log");
        append_decisions(captured_here);
        assert!(take_decisions().is_empty(), "nothing was captured here");

        // Appended second first: the log numbers them in append order.
        append_decisions(second);
        append_decisions(first);
        record("after");
        set_decisions(false);
        let decisions = take_decisions();
        assert_eq!(funcs(&decisions), ["b1", "a1", "a2", "after"]);
        assert!(decisions.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert!(decisions[0].seq > other[1].seq);
    }

    #[test]
    fn a_capture_is_closed_when_its_closure_panics() {
        let _l = lock();
        set_decisions(true);
        let _ = take_decisions();
        let unwound = std::panic::catch_unwind(|| {
            capture_decisions(|| {
                record_decision(
                    DecisionEvent::Discovered,
                    Pair::intra("lost", "x"),
                    None,
                    String::new(),
                );
                panic!("the captured work failed");
            })
        });
        assert!(unwound.is_err());
        record_decision(
            DecisionEvent::Discovered,
            Pair::intra("kept", "x"),
            None,
            String::new(),
        );
        set_decisions(false);
        let decisions = take_decisions();
        assert_eq!(decisions.len(), 1);
        assert_eq!(decisions[0].pair.func_a, "kept");
    }

    #[test]
    fn prefiltered_rejections_carry_their_reason() {
        let _l = lock();
        set_decisions(true);
        let _ = take_decisions();
        record_decision(
            DecisionEvent::Rejected(RejectReason::Prefiltered),
            Pair::intra("f", "g"),
            None,
            "shared=12 margin=20".to_string(),
        );
        set_decisions(false);
        let decisions = take_decisions();
        assert_eq!(decisions.len(), 1);
        let json = decisions[0].to_json();
        assert!(json.contains("\"reason\":\"prefiltered\""), "{json}");
        assert_eq!(RejectReason::Prefiltered.as_str(), "prefiltered");
    }
}
