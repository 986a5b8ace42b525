//! The benchmark's own span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer (a source push, a crash, a
//! probe) can be wrapped in a span: name, start, end, parent and the id of
//! the event it belongs to. Spans stay in memory while the run measures
//! and are written out as one JSON array when it ends. A disabled recorder
//! costs one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, usable as a parent.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Event id (`trial << 32 | event index`) or `u64::MAX` when the span
    /// belongs to no single event.
    pub event: u64,
    pub parent: Option<SpanId>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Marks spans that belong to no single event.
pub const NO_EVENT: u64 = u64::MAX;

/// In-memory span store; `enabled == false` records nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        let cap = if enabled { 1 << 16 } else { 0 };
        Spans { enabled, origin: Instant::now(), spans: Vec::with_capacity(cap) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds since the recorder was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Converts an instant taken elsewhere to the recorder's time base.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span; returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        event: u64,
        parent: Option<SpanId>,
        start_us: f64,
        end_us: f64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span { name, event, parent, start_us, end_us });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that ends at [`Spans::close`]; children may name it as
    /// their parent meanwhile.
    pub fn open(
        &mut self,
        name: &'static str,
        event: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        let now = self.now_us();
        self.record(name, event, parent, now, now)
    }

    /// Ends a span opened with [`Spans::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(i) = id {
            self.spans[i].end_us = self.now_us();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        event: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = self.now_us();
        let out = f();
        let end = self.now_us();
        self.record(name, event, parent, start, end);
        out
    }

    /// Durations (µs) of every span with the given name.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_us).collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as a JSON array of
    /// `{"id","name","event","parent","start_us","end_us"}` objects.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let event = if s.event == NO_EVENT { "null".to_string() } else { s.event.to_string() };
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"event\":{event},\"parent\":{parent},\
                 \"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.start_us, s.end_us
            );
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("x", 1, None, || 7), 7);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn json_links_parents() {
        let mut s = Spans::new(true);
        let root = s.open("trial", NO_EVENT, None);
        s.record("gen.push", 5, root, 1.0, 2.0);
        s.close(root);
        let json = s.to_json();
        assert!(json.contains("\"name\":\"gen.push\",\"event\":5,\"parent\":0"));
        assert_eq!(s.durations_us("gen.push"), vec![1.0]);
        assert!(s.durations_us("trial")[0] >= 0.0);
    }
}
