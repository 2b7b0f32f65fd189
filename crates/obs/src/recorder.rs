//! Lock-free ring-buffer flight recorder for post-mortem debugging.
//!
//! Keeps the last `capacity` structured events (admission reorders,
//! residency hits/misses, deadline expiries, queue-full rejections,
//! worker stalls) in a fixed ring of seqlock-published slots. Writers
//! never block and never allocate: a writer claims a global sequence
//! number, marks the slot odd (in flight), stores the payload, then
//! publishes it even. Readers ([`FlightRecorder::dump`]) skip slots
//! caught mid-write and slots overwritten during the read, so a dump
//! is always a consistent (if slightly lossy under heavy write
//! pressure) view of the recent past.
//!
//! An *incident* latch ([`FlightRecorder::trip_incident`]) lets the
//! first observer of a failure (e.g. the first deadline miss) win a
//! compare-and-swap and dump the ring exactly once, capturing the
//! events that led up to it.
//!
//! Under `obs-off`, [`FlightRecorder::record`] compiles to a no-op.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// What happened. Payload meaning of `a`/`b` is per-kind (see variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum EventKind {
    /// Admission policy picked a non-head queue: `a` = chosen matrix
    /// id, `b` = requests in the formed batch.
    AdmissionReorder = 1,
    /// Batch found its weights resident: `a` = matrix id, `b` = device id.
    ResidencyHit = 2,
    /// Batch had to stream weights in: `a` = matrix id, `b` = device id.
    ResidencyMiss = 3,
    /// Request expired before compute: `a` = matrix id, `b` = lateness
    /// in nanoseconds past the deadline.
    DeadlineExpired = 4,
    /// Intake queue was full at submit: `a` = matrix id, `b` = 0.
    QueueFullRejected = 5,
    /// A worker waited idle for work: `a` = worker id, `b` = stall
    /// duration in nanoseconds.
    WorkerStall = 6,
    /// The network front-end shed a request under weighted fair
    /// admission: `a` = client id hash, `b` = the client's in-flight
    /// count at the shed.
    ClientShed = 7,
    /// The network front-end rejected a connection at the acceptor
    /// (connection cap reached): `a` = live connections, `b` = 0.
    ConnOverload = 8,
    /// A cluster node was marked lost: `a` = node id, `b` = shards it
    /// was the last live replica of (re-placed on survivors).
    NodeLost = 9,
    /// A shard was re-placed after a node loss: `a` = parent matrix
    /// id, `b` = the surviving node it now lives on.
    Reshard = 10,
    /// An in-flight shard call on a lost node was retried against the
    /// new placement: `a` = parent matrix id, `b` = the node retried
    /// against.
    ShardRetry = 11,
}

impl EventKind {
    /// Stable lower-snake label used in dumps.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::AdmissionReorder => "admission_reorder",
            EventKind::ResidencyHit => "residency_hit",
            EventKind::ResidencyMiss => "residency_miss",
            EventKind::DeadlineExpired => "deadline_expired",
            EventKind::QueueFullRejected => "queue_full_rejected",
            EventKind::WorkerStall => "worker_stall",
            EventKind::ClientShed => "client_shed",
            EventKind::ConnOverload => "conn_overload",
            EventKind::NodeLost => "node_lost",
            EventKind::Reshard => "reshard",
            EventKind::ShardRetry => "shard_retry",
        }
    }

    fn from_code(code: u64) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::AdmissionReorder,
            2 => EventKind::ResidencyHit,
            3 => EventKind::ResidencyMiss,
            4 => EventKind::DeadlineExpired,
            5 => EventKind::QueueFullRejected,
            6 => EventKind::WorkerStall,
            7 => EventKind::ClientShed,
            8 => EventKind::ConnOverload,
            9 => EventKind::NodeLost,
            10 => EventKind::Reshard,
            11 => EventKind::ShardRetry,
            _ => return None,
        })
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (total events recorded before this one).
    pub seq: u64,
    /// Nanoseconds since the recorder was created.
    pub t_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (per-kind meaning, see [`EventKind`]).
    pub a: u64,
    /// Second payload word (per-kind meaning, see [`EventKind`]).
    pub b: u64,
}

/// One ring slot. `state` encodes publication: `0` = never written,
/// odd = write in flight for seq `(state-1)/2`, even = published seq
/// `state/2 - 1`.
#[derive(Debug)]
struct Slot {
    state: AtomicU64,
    t_ns: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: AtomicU64::new(0),
            t_ns: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Fixed-capacity lock-free ring of recent [`Event`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Slot>,
    cursor: AtomicU64,
    incident: AtomicBool,
    origin: Instant,
}

/// Default ring capacity: enough for several seconds of serving events
/// at demo rates while staying a few tens of KiB.
pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(DEFAULT_RECORDER_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (rounded up to 1).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            cursor: AtomicU64::new(0),
            incident: AtomicBool::new(false),
            origin: Instant::now(),
        }
    }

    /// Ring capacity in events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (including ones already overwritten).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        if cfg!(feature = "obs-off") {
            return 0;
        }
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events no longer retrievable from a dump: everything recorded
    /// beyond the ring's last `capacity` events has been overwritten.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }

    /// Records an event. Lock-free, allocation-free; no-op under
    /// `obs-off`.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        if cfg!(feature = "obs-off") {
            return;
        }
        let t_ns = self.origin.elapsed().as_nanos() as u64;
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        // Mark in flight (odd), publish payload, then mark published
        // (even). A reader that observes the odd state, or a state that
        // changed across its field reads, discards the slot.
        slot.state.store(seq * 2 + 1, Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.state.store((seq + 1) * 2, Ordering::Release);
    }

    /// Latches the incident flag; `true` exactly once, for the first
    /// caller. Lets "dump on first deadline miss" fire a single time.
    pub fn trip_incident(&self) -> bool {
        !self.incident.swap(true, Ordering::AcqRel)
    }

    /// Whether the incident latch has fired.
    #[must_use]
    pub fn incident_tripped(&self) -> bool {
        self.incident.load(Ordering::Acquire)
    }

    /// A consistent copy of the ring's published events, oldest first.
    /// Slots caught mid-write or overwritten during the read are
    /// skipped.
    #[must_use]
    pub fn dump(&self) -> Vec<Event> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let before = slot.state.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or write in flight
            }
            let event = Event {
                seq: before / 2 - 1,
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                kind: match EventKind::from_code(slot.kind.load(Ordering::Relaxed)) {
                    Some(kind) => kind,
                    None => continue,
                },
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            if slot.state.load(Ordering::Acquire) != before {
                continue; // overwritten while we were reading
            }
            events.push(event);
        }
        events.sort_unstable_by_key(|e| e.seq);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled() -> bool {
        !cfg!(feature = "obs-off")
    }

    #[test]
    fn records_and_dumps_in_sequence_order() {
        let rec = FlightRecorder::new(8);
        rec.record(EventKind::ResidencyMiss, 7, 0);
        rec.record(EventKind::ResidencyHit, 7, 0);
        rec.record(EventKind::AdmissionReorder, 3, 4);
        if !compiled() {
            assert!(rec.dump().is_empty());
            return;
        }
        let events = rec.dump();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::ResidencyMiss);
        assert_eq!(events[2].kind, EventKind::AdmissionReorder);
        assert_eq!(events[2].a, 3);
        assert_eq!(events[2].b, 4);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(EventKind::WorkerStall, i, 0);
        }
        if !compiled() {
            return;
        }
        let events = rec.dump();
        assert_eq!(events.len(), 4);
        let ids: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(ids, vec![6, 7, 8, 9]);
        assert_eq!(rec.recorded(), 10);
    }

    #[test]
    fn incident_latch_fires_exactly_once_across_threads() {
        let rec = FlightRecorder::new(4);
        assert!(!rec.incident_tripped());
        let winners: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| usize::from(rec.trip_incident())))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(winners, 1);
        assert!(rec.incident_tripped());
        assert!(!rec.trip_incident());
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_dump() {
        if !compiled() {
            return;
        }
        let rec = FlightRecorder::new(64);
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        // Payload invariant: b == a + 1, checked below.
                        rec.record(EventKind::ResidencyHit, w * 10_000 + i, w * 10_000 + i + 1);
                    }
                });
            }
            let rec = &rec;
            scope.spawn(move || {
                for _ in 0..200 {
                    for e in rec.dump() {
                        assert_eq!(e.b, e.a + 1, "torn slot read: {e:?}");
                        assert_eq!(e.kind, EventKind::ResidencyHit);
                    }
                }
            });
        });
        assert_eq!(rec.recorded(), 20_000);
    }

    #[test]
    fn torture_one_writer_four_readers_over_a_million_events() {
        // Satellite stress: one writer streams 1M events through a
        // small ring while four seqlock readers dump continuously.
        // Every surfaced event must honour the payload invariant
        // (no torn reads) and every dump must be strictly monotone in
        // seq with consistent timestamps.
        if !compiled() {
            return;
        }
        const EVENTS: u64 = 1_000_000;
        const MASK: u64 = 0xA5A5_5A5A_DEAD_BEEF;
        let rec = FlightRecorder::new(1024);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let rec = &rec;
            let done = &done;
            scope.spawn(move || {
                for i in 0..EVENTS {
                    rec.record(EventKind::WorkerStall, i, i ^ MASK);
                }
                done.store(true, Ordering::Release);
            });
            for _ in 0..4 {
                scope.spawn(move || {
                    let mut dumps = 0u64;
                    while !done.load(Ordering::Acquire) || dumps == 0 {
                        let events = rec.dump();
                        for e in &events {
                            assert_eq!(e.b, e.a ^ MASK, "torn slot read: {e:?}");
                            assert_eq!(e.seq, e.a, "seq/payload mismatch: {e:?}");
                        }
                        assert!(
                            events.windows(2).all(|w| w[0].seq < w[1].seq),
                            "dump not strictly monotone in seq"
                        );
                        assert!(
                            events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
                            "timestamps regressed within a dump"
                        );
                        dumps += 1;
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), EVENTS);
        assert_eq!(rec.dropped(), EVENTS - 1024);
        let final_dump = rec.dump();
        assert!(!final_dump.is_empty());
        assert!(final_dump.iter().all(|e| e.seq >= EVENTS - 1024));
    }

    #[test]
    fn dropped_counts_only_overwritten_events() {
        let rec = FlightRecorder::new(4);
        for i in 0..3u64 {
            rec.record(EventKind::WorkerStall, i, 0);
        }
        assert_eq!(rec.dropped(), 0);
        for i in 0..7u64 {
            rec.record(EventKind::WorkerStall, i, 0);
        }
        if compiled() {
            assert_eq!(rec.recorded(), 10);
            assert_eq!(rec.dropped(), 6);
        } else {
            assert_eq!(rec.dropped(), 0);
        }
    }

    #[test]
    fn event_kind_labels_round_trip() {
        for code in 1..=11u64 {
            let kind = EventKind::from_code(code).expect("valid code");
            assert_eq!(kind as u64, code);
            assert!(!kind.label().is_empty());
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(99), None);
    }
}
