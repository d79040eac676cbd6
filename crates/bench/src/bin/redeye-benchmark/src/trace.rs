//! Spans recorded in memory around the benchmark's calls into the
//! simulator, written out at exit as Chrome trace-event JSON (Perfetto and
//! `chrome://tracing` open it; no dependency needed).
//!
//! Every call site times itself through [`Tracer::begin`]/[`Tracer::end`]
//! whether or not tracing is on, so the untraced run measures with the
//! same clock reads; only the span bookkeeping is skipped.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// An open span: its start time and, when tracing, its record index.
#[must_use = "an open span must be passed to Tracer::end"]
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed span durations in milliseconds.
    pub total_ms: f64,
    /// Summed durations minus the time their direct children cover.
    pub self_ms: f64,
}

/// The span recorder. Spans nest: each one's parent is the span open when
/// it began.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl Tracer {
    /// A recorder that keeps spans only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops keeping spans; call only with no span open.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span named `name`.
    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let idx = self.on.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns_since_origin(start),
                end_ns: 0,
                parent: self.open.last().copied(),
            });
            self.open.push(idx);
            idx
        });
        Open { start, idx }
    }

    /// Closes `span` and returns its duration in milliseconds.
    pub fn end(&mut self, span: Open) -> f64 {
        let end = Instant::now();
        if let Some(idx) = span.idx {
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
            self.spans[idx].end_ns = self.ns_since_origin(end);
        }
        end.duration_since(span.start).as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in milliseconds.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let span = self.begin(name);
        let out = f();
        (out, self.end(span))
    }

    /// Totals and self time per span name, sorted by name.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ms += ms(dur);
            t.self_ms += ms(dur.saturating_sub(child));
        }
        out
    }

    /// The trace as Chrome trace-event JSON ("complete" events, µs).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name: String = s
                .name
                .chars()
                .flat_map(|c| match c {
                    '"' | '\\' => vec!['\\', c],
                    c if c.is_control() => vec![' '],
                    c => vec![c],
                })
                .collect();
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"redeye\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let ((), inner_ms) = t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        let outer_ms = t.end(outer);
        let totals = t.totals();
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.count, i.count), (1, 1));
        assert!((o.total_ms - outer_ms).abs() < 0.01 && (i.total_ms - inner_ms).abs() < 0.01);
        assert!((o.self_ms - (o.total_ms - i.total_ms)).abs() < 1e-6);
        assert!(o.self_ms >= 4.0 && i.self_ms == i.total_ms);
        let json: serde_json::Value = serde_json::from_str(&t.chrome_json()).expect("valid JSON");
        assert_eq!(json["traceEvents"][1]["name"], "inner");
    }

    #[test]
    fn untraced_recorder_keeps_nothing_but_still_times() {
        let mut t = Tracer::new(false);
        let ((), ms) = t.time("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(ms >= 2.0);
        assert!(t.totals().is_empty());
    }
}
