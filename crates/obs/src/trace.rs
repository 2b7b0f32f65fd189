//! Request-scoped distributed tracing: deterministic trace ids, span
//! trees, and a bounded ring of sampled trace records.
//!
//! A front-end mints a [`TraceId`] per request (SplitMix64 over a
//! per-server seed plus a request counter — deterministic, no `rand`
//! dependency) and decides *head sampling* there: one in every
//! `sample_every` requests gets a [`TraceCollector`] attached. The
//! collector rides inside the request through admission, batch
//! formation, the executor, and (under `pic-cluster`) across the
//! shard fan-out, accumulating [`SpanRecord`]s. At completion the
//! front-end calls [`Tracer::finish`]: head-sampled traces are always
//! kept, and *any* traced request that exceeded the slow-request
//! threshold is kept too, so tail latency exemplars survive even at
//! low sampling rates.
//!
//! Kept traces land in a bounded [`TraceStore`] ring and are served
//! as JSON span trees (`GET /v1/traces`, `GET /v1/traces/<id>`): each
//! span carries its stage label, wall time, modeled energy, queue
//! depth at entry, owning node, and free-form annotations (retries,
//! batching decisions).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

use crate::expose::push_json_str;

/// SplitMix64: the standard 64-bit finalizer-style mixer. Good
/// avalanche from sequential inputs, which is exactly the trace-id
/// use case (seed + counter).
#[must_use]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 64-bit request trace identifier, rendered as 16 lowercase hex
/// digits in APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Deterministically derives the id for request `n` on a server
    /// with the given `seed`. Distinct seeds give disjoint-looking
    /// sequences; the same (seed, n) always yields the same id.
    #[must_use]
    pub fn mint(seed: u64, n: u64) -> TraceId {
        TraceId(splitmix64(
            seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ))
    }

    /// 16-digit lowercase hex form used in URLs and JSON.
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the hex form back; `None` on malformed input.
    #[must_use]
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// One span in a trace tree. Times are nanoseconds since the trace's
/// root opened, so a tree is self-contained and clock-free.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Stage label (`"request"`, `"admit"`, `"queue"`, `"service"`,
    /// `"coordinator"`, `"shard"`, ...).
    pub label: &'static str,
    /// Index of the parent span within the trace; `None` for the root.
    pub parent: Option<u32>,
    /// Open time, ns since the root span opened.
    pub start_ns: u64,
    /// Close time, ns since the root span opened.
    pub end_ns: u64,
    /// Modeled energy attributed to this span, joules.
    pub energy_j: f64,
    /// Queue depth observed when the span opened, if meaningful.
    pub queue_depth: Option<u64>,
    /// Cluster node that executed this span, if any.
    pub node: Option<u64>,
    /// Free-form annotation (retry/failover notes, batching info).
    pub annotation: Option<String>,
}

impl SpanRecord {
    /// Span wall time in nanoseconds (0 if the span never closed).
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The per-request trace context carried inside a request: the shared
/// collector plus the span index new child spans should parent under.
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// Shared span collector for the whole request.
    pub collector: Arc<TraceCollector>,
    /// Parent span index for spans opened from this context.
    pub parent: Option<u32>,
}

impl TraceContext {
    /// A context rooted at the collector's root span.
    #[must_use]
    pub fn new(collector: Arc<TraceCollector>) -> TraceContext {
        TraceContext {
            collector,
            parent: Some(0),
        }
    }

    /// The same collector re-parented under `parent` — used when a
    /// coordinator hands a shard sub-request its own child span.
    #[must_use]
    pub fn child(&self, parent: u32) -> TraceContext {
        TraceContext {
            collector: Arc::clone(&self.collector),
            parent: Some(parent),
        }
    }
}

/// Accumulates the spans of one traced request. Cheap to share
/// (`Arc`), internally synchronised with a single short-held mutex —
/// only *sampled* requests ever allocate one, so the unsampled
/// fast path carries just an `Option` check.
#[derive(Debug)]
pub struct TraceCollector {
    id: TraceId,
    head_sampled: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceCollector {
    /// Opens a collector whose root span (`"request"`, index 0)
    /// starts now.
    #[must_use]
    pub fn start(id: TraceId, head_sampled: bool) -> Arc<TraceCollector> {
        let root = SpanRecord {
            label: "request",
            parent: None,
            start_ns: 0,
            end_ns: 0,
            energy_j: 0.0,
            queue_depth: None,
            node: None,
            annotation: None,
        };
        Arc::new(TraceCollector {
            id,
            head_sampled,
            epoch: Instant::now(),
            spans: Mutex::new(vec![root]),
        })
    }

    /// This trace's id.
    #[must_use]
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Whether this trace was head-sampled (vs. minted only for
    /// potential slow-request capture).
    #[must_use]
    pub fn head_sampled(&self) -> bool {
        self.head_sampled
    }

    /// Nanoseconds from the root open to `at` (0 if `at` predates it).
    #[must_use]
    pub fn offset_ns(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64)
    }

    /// Opens a span now; returns its index for [`TraceCollector::end`].
    pub fn begin(&self, label: &'static str, parent: Option<u32>) -> Option<u32> {
        let start_ns = self.offset_ns(Instant::now());
        Some(self.push(SpanRecord {
            label,
            parent: parent.or(Some(0)),
            start_ns,
            end_ns: start_ns,
            energy_j: 0.0,
            queue_depth: None,
            node: None,
            annotation: None,
        }))
    }

    /// Closes the span opened by [`TraceCollector::begin`] now.
    pub fn end(&self, idx: Option<u32>) {
        let Some(idx) = idx else { return };
        let end_ns = self.offset_ns(Instant::now());
        let mut spans = self.spans.lock().unwrap();
        if let Some(span) = spans.get_mut(idx as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Records a span covering `[start, end]` measured on the caller's
    /// own clock — for stages that are timed anyway and only reported
    /// to the trace afterwards.
    pub fn span_between(
        &self,
        label: &'static str,
        parent: Option<u32>,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        let start_ns = self.offset_ns(start);
        let end_ns = self.offset_ns(end).max(start_ns);
        Some(self.push(SpanRecord {
            label,
            parent: parent.or(Some(0)),
            start_ns,
            end_ns,
            energy_j: 0.0,
            queue_depth: None,
            node: None,
            annotation: None,
        }))
    }

    /// Records a span from raw offsets — for *modeled* sub-stages
    /// (write/compute/digitize) partitioned out of a measured parent.
    pub fn span_offsets(
        &self,
        label: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u32> {
        Some(self.push(SpanRecord {
            label,
            parent: parent.or(Some(0)),
            start_ns,
            end_ns: end_ns.max(start_ns),
            energy_j: 0.0,
            queue_depth: None,
            node: None,
            annotation: None,
        }))
    }

    fn push(&self, span: SpanRecord) -> u32 {
        let mut spans = self.spans.lock().unwrap();
        let idx = spans.len() as u32;
        spans.push(span);
        idx
    }

    /// Sets the queue depth observed at a span's entry.
    pub fn set_queue_depth(&self, idx: Option<u32>, depth: u64) {
        self.update(idx, |s| s.queue_depth = Some(depth));
    }

    /// Sets the cluster node a span executed on.
    pub fn set_node(&self, idx: Option<u32>, node: u64) {
        self.update(idx, |s| s.node = Some(node));
    }

    /// Adds modeled energy to a span.
    pub fn add_energy_j(&self, idx: Option<u32>, energy_j: f64) {
        self.update(idx, |s| s.energy_j += energy_j);
    }

    /// Appends a free-form annotation to a span (joined with `"; "`).
    pub fn annotate(&self, idx: Option<u32>, note: &str) {
        self.update(idx, |s| match &mut s.annotation {
            Some(existing) => {
                existing.push_str("; ");
                existing.push_str(note);
            }
            None => s.annotation = Some(note.to_string()),
        });
    }

    fn update(&self, idx: Option<u32>, f: impl FnOnce(&mut SpanRecord)) {
        let Some(idx) = idx else { return };
        let mut spans = self.spans.lock().unwrap();
        if let Some(span) = spans.get_mut(idx as usize) {
            f(span);
        }
    }

    /// Seals the trace: closes the root span at `wall_ns` and returns
    /// the immutable record.
    #[must_use]
    pub fn finish(&self, wall_ns: u64) -> TraceRecord {
        let mut spans = self.spans.lock().unwrap().clone();
        if let Some(root) = spans.first_mut() {
            root.end_ns = wall_ns;
        }
        TraceRecord {
            id: self.id,
            head_sampled: self.head_sampled,
            wall_ns,
            unix_s: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0.0, |d| d.as_secs_f64()),
            spans,
        }
    }
}

/// An immutable, completed trace: the root wall time plus the flat
/// span array (tree encoded by parent indices).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace id.
    pub id: TraceId,
    /// Whether the trace was head-sampled.
    pub head_sampled: bool,
    /// End-to-end wall time of the request, nanoseconds.
    pub wall_ns: u64,
    /// Capture time, seconds since the Unix epoch.
    pub unix_s: f64,
    /// All spans; index 0 is the root.
    pub spans: Vec<SpanRecord>,
}

impl TraceRecord {
    /// Self time of span `idx`: its wall time minus the wall time of
    /// its direct children, clamped at 0.
    #[must_use]
    pub fn self_ns(&self, idx: usize) -> u64 {
        let child_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx as u32))
            .map(SpanRecord::wall_ns)
            .sum();
        self.spans[idx].wall_ns().saturating_sub(child_ns)
    }

    /// Sum of all spans' self times. For a tree of sequential
    /// (non-overlapping) children this telescopes to the root wall
    /// time exactly; clamping makes pathological overlap show up as a
    /// deficit instead of cancelling out.
    #[must_use]
    pub fn self_time_sum_ns(&self) -> u64 {
        (0..self.spans.len()).map(|i| self.self_ns(i)).sum()
    }

    /// One-line summary object for `GET /v1/traces`.
    #[must_use]
    pub fn summary_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"id\":");
        push_json_str(&mut out, &self.id.to_hex());
        out.push_str(&format!(
            ",\"unix_s\":{:.3},\"wall_ms\":{:.3},\"spans\":{},\"head_sampled\":{}}}",
            self.unix_s,
            self.wall_ns as f64 / 1e6,
            self.spans.len(),
            self.head_sampled
        ));
        out
    }

    /// Full span-tree JSON for `GET /v1/traces/<id>`: a flat `spans`
    /// array where each entry names its parent index.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 128);
        out.push_str("{\"id\":");
        push_json_str(&mut out, &self.id.to_hex());
        out.push_str(&format!(
            ",\"unix_s\":{:.3},\"wall_ns\":{},\"head_sampled\":{},\"self_time_sum_ns\":{},\"spans\":[",
            self.unix_s,
            self.wall_ns,
            self.head_sampled,
            self.self_time_sum_ns()
        ));
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"i\":{i},\"parent\":"));
            match span.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"stage\":");
            push_json_str(&mut out, span.label);
            out.push_str(&format!(
                ",\"start_ns\":{},\"wall_ns\":{},\"self_ns\":{},\"energy_j\":{:e}",
                span.start_ns,
                span.wall_ns(),
                self.self_ns(i),
                span.energy_j
            ));
            match span.queue_depth {
                Some(d) => out.push_str(&format!(",\"queue_depth\":{d}")),
                None => out.push_str(",\"queue_depth\":null"),
            }
            match span.node {
                Some(n) => out.push_str(&format!(",\"node\":{n}")),
                None => out.push_str(",\"node\":null"),
            }
            out.push_str(",\"note\":");
            match &span.annotation {
                Some(note) => push_json_str(&mut out, note),
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Bounded ring of recent [`TraceRecord`]s. Writers claim a slot via
/// an atomic cursor so concurrent pushes never contend on the same
/// slot; each slot is an independently locked cell, held only for the
/// `Arc` swap.
#[derive(Debug)]
pub struct TraceStore {
    slots: Vec<Mutex<Option<Arc<TraceRecord>>>>,
    cursor: AtomicU64,
}

impl TraceStore {
    /// A store keeping the last `capacity` traces (rounded up to 1).
    #[must_use]
    pub fn new(capacity: usize) -> TraceStore {
        let capacity = capacity.max(1);
        TraceStore {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Ring capacity in traces.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total traces ever stored (including overwritten ones).
    #[must_use]
    pub fn stored(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Inserts a trace, overwriting the oldest once full.
    pub fn push(&self, record: Arc<TraceRecord>) {
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        *slot.lock().unwrap() = Some(record);
    }

    /// Looks a trace up by id.
    #[must_use]
    pub fn get(&self, id: TraceId) -> Option<Arc<TraceRecord>> {
        self.slots.iter().find_map(|slot| {
            let guard = slot.lock().unwrap();
            guard.as_ref().filter(|r| r.id == id).cloned()
        })
    }

    /// The most recent `n` traces, newest first.
    #[must_use]
    pub fn recent(&self, n: usize) -> Vec<Arc<TraceRecord>> {
        let len = self.slots.len() as u64;
        let cursor = self.cursor.load(Ordering::Relaxed);
        let mut out = Vec::new();
        let mut seq = cursor;
        while seq > 0 && out.len() < n && cursor - seq < len {
            seq -= 1;
            let slot = &self.slots[(seq % len) as usize];
            if let Some(record) = slot.lock().unwrap().as_ref() {
                out.push(Arc::clone(record));
            }
        }
        out
    }

    /// JSON array of summaries for the most recent `n` traces.
    #[must_use]
    pub fn summaries_json(&self, n: usize) -> String {
        let mut out = String::from("{\"traces\":[");
        for (i, record) in self.recent(n).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&record.summary_json());
        }
        out.push_str(&format!("],\"stored\":{}}}", self.stored()));
        out
    }
}

/// Front-end tracer: owns the id seed, request counter, sampling
/// policy, and the [`TraceStore`] ring.
#[derive(Debug)]
pub struct Tracer {
    seed: u64,
    counter: AtomicU64,
    sample_every: u64,
    slow_capture: bool,
    store: TraceStore,
}

impl Tracer {
    /// A tracer head-sampling one in `sample_every` requests
    /// (0 disables head sampling) into a ring of `capacity` traces.
    /// When `slow_capture` is set, *every* request is traced so slow
    /// outliers can be kept at finish; otherwise only head-sampled
    /// requests pay for a collector.
    #[must_use]
    pub fn new(seed: u64, sample_every: u64, capacity: usize, slow_capture: bool) -> Tracer {
        Tracer {
            seed,
            counter: AtomicU64::new(0),
            sample_every,
            slow_capture,
            store: TraceStore::new(capacity),
        }
    }

    /// Total requests seen (sampled or not).
    #[must_use]
    pub fn minted(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// The backing trace ring.
    #[must_use]
    pub fn store(&self) -> &TraceStore {
        &self.store
    }

    /// Called once per request: advances the counter and returns a
    /// collector when this request should be traced (head-sampled, or
    /// slow-capture is armed). Returns `None` — no allocation — for
    /// unsampled requests.
    pub fn mint(&self) -> Option<Arc<TraceCollector>> {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let head = self.sample_every > 0 && n.is_multiple_of(self.sample_every);
        if !head && !self.slow_capture {
            return None;
        }
        Some(TraceCollector::start(TraceId::mint(self.seed, n), head))
    }

    /// Called at request completion: keeps the trace if it was
    /// head-sampled or exceeded the slow threshold. Returns whether
    /// it was stored.
    pub fn finish(
        &self,
        collector: &TraceCollector,
        wall: Duration,
        slow: Option<Duration>,
    ) -> bool {
        let keep = collector.head_sampled || slow.is_some_and(|t| wall > t);
        if keep {
            self.store
                .push(Arc::new(collector.finish(wall.as_nanos() as u64)));
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = TraceId::mint(42, 0);
        let b = TraceId::mint(42, 0);
        assert_eq!(a, b);
        assert_ne!(TraceId::mint(42, 1), a);
        assert_ne!(TraceId::mint(43, 0), a);
        // Sequential counters avalanche into well-spread ids.
        let ids: std::collections::HashSet<u64> =
            (0..1000).map(|n| TraceId::mint(7, n).0).collect();
        assert_eq!(ids.len(), 1000);
    }

    #[test]
    fn hex_round_trips() {
        let id = TraceId::mint(9, 123);
        assert_eq!(id.to_hex().len(), 16);
        assert_eq!(TraceId::parse_hex(&id.to_hex()), Some(id));
        assert_eq!(TraceId::parse_hex(""), None);
        assert_eq!(TraceId::parse_hex("zz"), None);
        assert_eq!(TraceId::parse_hex("00000000000000000"), None);
        assert_eq!(TraceId::parse_hex("ff"), Some(TraceId(255)));
    }

    #[test]
    fn head_sampling_follows_the_rate() {
        let tracer = Tracer::new(1, 4, 16, false);
        let sampled: Vec<bool> = (0..8).map(|_| tracer.mint().is_some()).collect();
        assert_eq!(
            sampled,
            vec![true, false, false, false, true, false, false, false]
        );
        assert_eq!(tracer.minted(), 8);
    }

    #[test]
    fn slow_capture_mints_every_request_but_keeps_only_outliers() {
        let tracer = Tracer::new(1, 0, 16, true);
        let c = tracer.mint().expect("slow-capture arms every request");
        assert!(!c.head_sampled());
        // Fast request: dropped.
        assert!(!tracer.finish(
            &c,
            Duration::from_millis(1),
            Some(Duration::from_millis(10))
        ));
        assert_eq!(tracer.store().stored(), 0);
        // Slow request: kept.
        let c = tracer.mint().unwrap();
        assert!(tracer.finish(
            &c,
            Duration::from_millis(20),
            Some(Duration::from_millis(10))
        ));
        assert_eq!(tracer.store().stored(), 1);
    }

    #[test]
    fn span_tree_nests_and_self_times_telescope() {
        let c = TraceCollector::start(TraceId::mint(0, 0), true);
        let admit = c.span_offsets("admit", Some(0), 0, 100);
        let queue = c.span_offsets("queue", Some(0), 100, 400);
        c.set_queue_depth(queue, 7);
        let service = c.span_offsets("service", Some(0), 400, 1000);
        c.add_energy_j(service, 1.5e-6);
        c.annotate(service, "device 3");
        c.annotate(service, "batched_with 4");
        let _write = c.span_offsets("write", service, 400, 600);
        let _compute = c.span_offsets("compute", service, 600, 900);
        assert_eq!(admit, Some(1));
        let record = c.finish(1000);
        // Root self = 1000 - (100+300+600) = 0; service self = 600-500.
        assert_eq!(record.self_ns(0), 0);
        assert_eq!(record.self_ns(3), 100);
        // Telescoping: sum of self times == root wall for a
        // sequential tree.
        assert_eq!(record.self_time_sum_ns(), 1000);
        let json = record.to_json();
        assert!(json.contains("\"stage\":\"service\""));
        assert!(json.contains("\"queue_depth\":7"));
        assert!(json.contains("\"note\":\"device 3; batched_with 4\""));
        assert!(json.contains("\"self_time_sum_ns\":1000"));
    }

    #[test]
    fn pre_epoch_instants_clamp_to_zero() {
        let before = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let c = TraceCollector::start(TraceId::mint(0, 1), true);
        let span = c.span_between("admit", Some(0), before, Instant::now());
        let record = c.finish(10);
        assert_eq!(record.spans[span.unwrap() as usize].start_ns, 0);
    }

    #[test]
    fn store_ring_overwrites_oldest_and_finds_by_id() {
        let store = TraceStore::new(2);
        for n in 0..3u64 {
            let c = TraceCollector::start(TraceId::mint(5, n), true);
            store.push(Arc::new(c.finish(n + 1)));
        }
        assert_eq!(store.stored(), 3);
        assert!(store.get(TraceId::mint(5, 0)).is_none());
        assert!(store.get(TraceId::mint(5, 1)).is_some());
        assert!(store.get(TraceId::mint(5, 2)).is_some());
        let recent = store.recent(8);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].id, TraceId::mint(5, 2));
        let json = store.summaries_json(8);
        assert!(json.contains("\"stored\":3"));
        assert!(json.contains(&TraceId::mint(5, 2).to_hex()));
    }
}
