//! Host-time spans recorded by the benchmark around its calls into each
//! layer, kept in memory and written once at the end of a traced run.
//!
//! A span carries a name, start, end, the span that caused it, and an id
//! shared by every span of one tree batch or one service pass. Counts read
//! at the same boundary ride on the span as arguments. A layer's self time
//! is its span's duration minus the time its child spans cover.

use eirene_telemetry::{chrome_trace_with_spans, JsonValue};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Batch or pass id shared by the spans of one unit of work.
    pub id: u64,
    pub parent: SpanId,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts read at the span's boundary.
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled, every call is a no-op that allocates nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that started at `start`.
    pub fn open(&mut self, name: &'static str, id: u64, parent: SpanId, start: Instant) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            args: Vec::new(),
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span at `end` with the counts read at its boundary.
    pub fn close(&mut self, span: SpanId, end: Instant, args: &[(&'static str, f64)]) {
        if let Some(i) = span {
            let end_ns = self.ns(end);
            let s = &mut self.spans[i];
            s.end_ns = end_ns;
            s.args.extend_from_slice(args);
        }
    }

    /// Records a finished span in one call.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
        args: &[(&'static str, f64)],
    ) {
        let span = self.open(name, id, parent, start);
        self.close(span, end, args);
    }

    /// Self time per span name, in nanoseconds, with the span count.
    pub fn self_ns(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.span_self_ns()) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    /// Trace Event Format document: the telemetry crate's chrome-trace
    /// writer with one complete ("X") event per span on pid 2, so it opens
    /// beside the simulator's own traces in chrome://tracing or Perfetto.
    pub fn to_chrome_trace(&self) -> JsonValue {
        let mut doc = chrome_trace_with_spans(&[], &[]);
        let self_ns = self.span_self_ns();
        if let JsonValue::Obj(fields) = &mut doc {
            if let Some((_, JsonValue::Arr(events))) =
                fields.iter_mut().find(|(k, _)| k == "traceEvents")
            {
                for (i, s) in self.spans.iter().enumerate() {
                    let mut args = vec![
                        ("id", JsonValue::from(s.id)),
                        ("span", JsonValue::from(i)),
                        ("parent", s.parent.map_or(JsonValue::Null, JsonValue::from)),
                        ("self_us", JsonValue::from(self_ns[i] as f64 / 1e3)),
                    ];
                    args.extend(s.args.iter().map(|&(k, v)| (k, JsonValue::from(v))));
                    events.push(JsonValue::obj(vec![
                        ("name", JsonValue::from(s.name)),
                        ("ph", JsonValue::from("X")),
                        ("ts", JsonValue::from(s.start_ns as f64 / 1e3)),
                        ("dur", JsonValue::from(s.dur_ns() as f64 / 1e3)),
                        ("pid", JsonValue::from(2u64)),
                        ("tid", JsonValue::from(0u64)),
                        ("args", JsonValue::obj(args)),
                    ]));
                }
            }
        }
        doc
    }

    fn span_self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                self_ns[p] = self_ns[p].saturating_sub(s.dur_ns());
            }
        }
        self_ns
    }

    /// Writes the trace document to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_chrome_trace().to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let t0 = t.origin;
        let ms = |n| t0 + Duration::from_millis(n);
        let batch = t.open("batch", 0, None, ms(0));
        t.record("plan", 0, batch, ms(1), ms(3), &[]);
        t.record("run_planned", 0, batch, ms(3), ms(9), &[("issued", 5.0)]);
        t.close(batch, ms(10), &[]);
        let s = t.self_ns();
        assert_eq!(s["batch"], (2_000_000, 1));
        assert_eq!(s["plan"], (2_000_000, 1));
        assert_eq!(s["run_planned"], (6_000_000, 1));
        // Self times tile the root span.
        assert_eq!(s.values().map(|v| v.0).sum::<u64>(), 10_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        let s = t.open("batch", 0, None, now);
        assert_eq!(s, None);
        t.record("plan", 0, s, now, now, &[]);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn chrome_trace_carries_every_span_with_parent_and_counts() {
        let mut t = Tracer::new(true);
        let t0 = t.origin;
        let root = t.open("pass", 3, None, t0);
        t.record(
            "shutdown",
            3,
            root,
            t0,
            t0 + Duration::from_micros(5),
            &[("epochs", 2.0)],
        );
        t.close(root, t0 + Duration::from_micros(8), &[]);
        let doc = JsonValue::parse(&t.to_chrome_trace().to_json()).unwrap();
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(child.get("ph").and_then(|v| v.as_str()), Some("X"));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(args.get("id").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(args.get("epochs").and_then(|v| v.as_f64()), Some(2.0));
        let root_self = events[0]
            .get("args")
            .and_then(|a| a.get("self_us"))
            .and_then(|v| v.as_f64());
        assert_eq!(root_self, Some(3.0));
    }
}
