//! The benchmark's own spans: per-request client `encode`/`wait`/`decode`
//! under a `request` root, and one span per serial replay of a layer's
//! public call. Kept in a bounded in-memory ring and written out once,
//! when the run ends.

use serde::{Map, Number, Value};
use std::collections::VecDeque;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Request (or replay) identifier shared by related spans.
    pub trace: u64,
    /// Ring-wide index of this span.
    pub id: u64,
    /// Span name.
    pub name: &'static str,
    /// Index of the causing span, if any.
    pub parent: Option<u64>,
    /// Start, ns after the ring's origin.
    pub start_ns: u64,
    /// End, ns after the ring's origin.
    pub end_ns: u64,
}

/// A bounded ring of spans; the oldest fall off once it is full.
#[derive(Debug)]
pub struct SpanRing {
    origin: Instant,
    capacity: usize,
    next_id: u64,
    spans: VecDeque<SpanRecord>,
}

impl SpanRing {
    /// An empty ring holding at most `capacity` spans.
    #[must_use]
    pub fn new(origin: Instant, capacity: usize) -> SpanRing {
        SpanRing {
            origin,
            capacity,
            next_id: 0,
            spans: VecDeque::with_capacity(capacity.min(1 << 16)),
        }
    }

    /// Records a span and returns its id.
    pub fn span(
        &mut self,
        trace: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> Option<u64> {
        if self.capacity == 0 {
            return None;
        }
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
        }
        let id = self.next_id;
        self.next_id += 1;
        let offset = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push_back(SpanRecord {
            trace,
            id,
            name,
            parent,
            start_ns: offset(start),
            end_ns: offset(end),
        });
        Some(id)
    }

    /// The spans held, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter()
    }

    /// The ring as a JSON array of span objects.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let num = |v: f64| Value::Number(Number::from_f64(v));
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut o = Map::new();
                    o.insert("trace".into(), Value::String(format!("{:016x}", s.trace)));
                    o.insert("id".into(), num(s.id as f64));
                    o.insert("name".into(), Value::String(s.name.to_owned()));
                    o.insert(
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| num(p as f64)),
                    );
                    o.insert("start_ns".into(), num(s.start_ns as f64));
                    o.insert("end_ns".into(), num(s.end_ns as f64));
                    Value::Object(o)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn ring_keeps_the_newest_spans_with_parents() {
        let origin = Instant::now();
        let at = |us| origin + Duration::from_micros(us);
        let mut ring = SpanRing::new(origin, 3);
        let root = ring.span(7, "request", None, at(0), at(10));
        ring.span(7, "encode", root, at(0), at(2));
        ring.span(7, "wait", root, at(2), at(9));
        ring.span(7, "decode", root, at(9), at(10));
        let names: Vec<&str> = ring.spans().map(|s| s.name).collect();
        assert_eq!(names, ["encode", "wait", "decode"], "oldest fell off");
        assert!(ring.spans().all(|s| s.parent == Some(0)));
        let wait = ring.spans().nth(1).expect("wait span");
        assert_eq!((wait.start_ns, wait.end_ns), (2_000, 9_000));
        let json = serde_json::to_string(&ring.to_json()).expect("json");
        assert!(json.contains("\"name\":\"decode\""));
        assert_eq!(
            SpanRing::new(origin, 0).span(1, "x", None, at(0), at(1)),
            None
        );
    }
}
