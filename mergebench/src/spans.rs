//! Benchmark-side spans for the traced run: name, start, end, parent and run
//! id per call into a layer, kept in memory, written out at exit and folded
//! into self time (and self allocations) per layer.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation count and bytes at entry, then (after exit) the deltas.
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Per-layer totals folded from the spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub calls: u64,
    pub self_s: f64,
    pub self_allocs: u64,
    pub self_alloc_bytes: u64,
}

pub struct Tracer {
    /// `None` for a tracer that records nothing: the untraced replay the
    /// tracing overhead is measured against.
    run_id: Option<String>,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            run_id: Some(run_id),
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            run_id: None,
            ..Tracer::new(String::new())
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it stays the parent of later spans until closed.
    pub fn enter(&mut self, name: &'static str) {
        if self.run_id.is_none() {
            return;
        }
        let alloc = telemetry::alloc_snapshot();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: alloc.allocs,
            alloc_bytes: alloc.total_alloc_bytes,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if self.run_id.is_none() {
            return;
        }
        let id = self.stack.pop().expect("exit matches an enter");
        let end = self.now_ns();
        let alloc = telemetry::alloc_snapshot();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.allocs = alloc.allocs.saturating_sub(span.allocs);
        span.alloc_bytes = alloc.total_alloc_bytes.saturating_sub(span.alloc_bytes);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Each span's own time, allocations and bytes: its figures minus
    /// those of its direct children.
    fn own(&self) -> Vec<(u64, u64, u64)> {
        let mut own: Vec<(u64, u64, u64)> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns, s.allocs, s.alloc_bytes))
            .collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                let o = &mut own[p];
                o.0 = o.0.saturating_sub(span.end_ns - span.start_ns);
                o.1 = o.1.saturating_sub(span.allocs);
                o.2 = o.2.saturating_sub(span.alloc_bytes);
            }
        }
        own
    }

    /// Self time and self allocations per span name.
    pub fn fold(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut totals: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, (ns, allocs, bytes)) in self.spans.iter().zip(self.own()) {
            let t = totals.entry(span.name).or_default();
            t.calls += 1;
            t.self_s += ns as f64 * 1e-9;
            t.self_allocs += allocs;
            t.self_alloc_bytes += bytes;
        }
        totals
    }

    /// Self time of every span below the root span named `root`, except
    /// spans named in `glue` (benchmark-side bookkeeping, not layer work).
    pub fn layer_seconds_under(&self, root: &str, glue: &[&str]) -> f64 {
        let root_of = |mut id: usize| {
            while let Some(p) = self.spans[id].parent {
                id = p;
            }
            id
        };
        self.spans
            .iter()
            .zip(self.own())
            .enumerate()
            .filter(|(id, (s, _))| {
                s.parent.is_some()
                    && !glue.contains(&s.name)
                    && self.spans[root_of(*id)].name == root
            })
            .map(|(_, (_, (ns, _, _)))| ns as f64 * 1e-9)
            .sum()
    }

    /// The spans as a Chrome trace (complete events), one run per `pid`.
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    concat!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":\"{}\",\"tid\":0,",
                        "\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},",
                        "\"allocs\":{},\"alloc_bytes\":{}}}}}"
                    ),
                    s.name,
                    self.run_id.as_deref().unwrap_or_default(),
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.allocs,
                    s.alloc_bytes
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new("test".into());
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.exit();
        let totals = t.fold();
        assert_eq!(totals["outer"].calls, 1);
        assert!(totals["inner"].self_s >= 0.02);
        assert!(totals["outer"].self_s < totals["inner"].self_s);
        assert_eq!(t.layer_seconds_under("outer", &[]), totals["inner"].self_s);
        assert_eq!(t.layer_seconds_under("other", &[]), 0.0);
    }
}
