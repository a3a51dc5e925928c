//! In-memory spans around the calls the benchmark makes into each
//! layer, written out as a Chrome trace (`chrome://tracing`, Perfetto)
//! when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! run's identifier. Spans are recorded only in the traced run; in the
//! untraced run every method returns at once.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans beyond this many are counted, not kept, so a long run cannot
/// grow the trace without bound.
const MAX_SPANS: usize = 200_000;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    tid: u32,
    args: Vec<(&'static str, f64)>,
}

/// The span store of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer for run `run_id`; records nothing unless `enabled`.
    pub fn new(enabled: bool, run_id: String) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span on thread lane `tid`.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        tid: u32,
        args: &[(&'static str, f64)],
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            tid,
            args: args.to_vec(),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Opens a span that encloses spans recorded before
    /// [`Tracer::close`] is called with its id.
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        self.span(name, start, start, parent, 0, &[])
    }

    /// Closes a span opened by [`Tracer::open`] at `end`.
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            let end = self.ns(end);
            self.spans[id].end_ns = end;
        }
    }

    /// Adds an argument to a recorded span.
    pub fn annotate(&mut self, id: Option<SpanId>, key: &'static str, value: f64) {
        if let Some(id) = id {
            self.spans[id].args.push((key, value));
        }
    }

    /// Records child spans of `parent` laid end to end from `start`, one
    /// per `(name, duration ns)`: the layer times of one call, placed in
    /// the order the layer runs them.
    pub fn sequence(
        &mut self,
        parent: Option<SpanId>,
        start: Instant,
        tid: u32,
        parts: &[(&'static str, u64)],
    ) {
        let mut at = start;
        for &(name, ns) in parts {
            let end = at + std::time::Duration::from_nanos(ns);
            self.span(name, at, end, parent, tid, &[]);
            at = end;
        }
    }

    /// Checks that every child span lies inside its parent; returns the
    /// number that do not.
    pub fn nesting_violations(&self) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.parent.is_some_and(|p| {
                    let parent = &self.spans[p];
                    s.start_ns < parent.start_ns || s.end_ns > parent.end_ns
                })
            })
            .count()
    }

    /// Spans kept.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as a Chrome trace to `path`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 160 + 256);
        out.push_str("{\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"psm-perfbench\"}}",
        );
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"run\":\"{}\"",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.run_id,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            for (k, v) in &s.args {
                let _ = write!(out, ",\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"run\":\"{}\",\"spans\":{},\"dropped\":{}}}}}",
            self.run_id,
            self.spans.len(),
            self.dropped
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_outside_their_parent_are_counted() {
        let mut t = Tracer::new(true, "test".into());
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(10);
        let parent = t.span("cycle", t0, t1, None, 0, &[]);
        t.sequence(parent, t0, 0, &[("select", 4_000), ("act", 5_000)]);
        assert_eq!(t.nesting_violations(), 0);
        t.sequence(parent, t0, 0, &[("match", 11_000)]);
        assert_eq!(t.nesting_violations(), 1);
        assert!(Tracer::new(false, "off".into())
            .span("x", t0, t1, None, 0, &[])
            .is_none());
    }
}
