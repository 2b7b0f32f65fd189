//! Residency-aware admission: indexed pending queues and pluggable
//! dispatch-order policies.
//!
//! Pending work lives in a [`PendingQueues`] structure indexed by matrix
//! id — batch formation is an O(batch) pop from one group's deque, never
//! a scan of the whole backlog — and an [`AdmissionPolicy`] trait
//! decides *which* group a free worker takes next:
//!
//! * [`Fifo`] — strict arrival order (the pre-policy behaviour, kept as
//!   the comparison baseline);
//! * [`ResidencyAware`] — reorders groups within per-request deadline
//!   slack to lengthen same-matrix runs on devices that already hold
//!   the tile, with a hard starvation bound (no group waits more than
//!   `max_delay` past its arrival-order turn);
//! * [`EarliestDeadlineFirst`] — classic EDF over each group's earliest
//!   pending deadline.
//!
//! Every policy sees the same [`GroupView`] summaries (sorted oldest
//! head first) and the same [`DispatchContext`] (which matrices idle
//! devices hold, and the pulling worker's previous matrix), so policies
//! stay interchangeable and the per-request *results* are identical by
//! construction — only order, latency, and tile-write energy differ.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// What the pending index needs to know about a queued item.
pub trait PendingItem {
    /// The id of the (pre-tiled) matrix the item runs against.
    fn matrix_id(&self) -> u64;
    /// The item's absolute deadline, if it carries one.
    fn deadline(&self) -> Option<Instant>;
    /// When the item entered the runtime.
    fn submitted_at(&self) -> Instant;
}

/// One same-matrix pending group: items in arrival order plus a
/// monotone min-deque over their deadlines (sliding-window minimum), so
/// the group's earliest deadline is O(1) to read and O(1) amortised to
/// maintain across pushes and front pops.
#[derive(Debug)]
struct Group<T> {
    items: VecDeque<(u64, T)>,
    /// `(seq, deadline)` pairs with strictly increasing deadline; the
    /// front is the earliest deadline among current items.
    deadline_min: VecDeque<(u64, Instant)>,
}

impl<T: PendingItem> Group<T> {
    fn new() -> Self {
        Group {
            items: VecDeque::new(),
            deadline_min: VecDeque::new(),
        }
    }

    fn push(&mut self, seq: u64, item: T) {
        if let Some(d) = item.deadline() {
            while self.deadline_min.back().is_some_and(|&(_, back)| back >= d) {
                self.deadline_min.pop_back();
            }
            self.deadline_min.push_back((seq, d));
        }
        self.items.push_back((seq, item));
    }

    fn pop(&mut self) -> Option<T> {
        let (seq, item) = self.items.pop_front()?;
        if self
            .deadline_min
            .front()
            .is_some_and(|&(front_seq, _)| front_seq <= seq)
        {
            self.deadline_min.pop_front();
        }
        Some(item)
    }
}

/// Pending submissions indexed by matrix id.
///
/// Push is O(1) amortised; [`PendingQueues::take`] of a batch is
/// O(batch); [`PendingQueues::views`] is O(groups · log groups) — a
/// function of how many *distinct matrices* are pending, not how many
/// requests.
#[derive(Debug)]
pub struct PendingQueues<T> {
    groups: HashMap<u64, Group<T>>,
    next_seq: u64,
    len: usize,
}

impl<T: PendingItem> Default for PendingQueues<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: PendingItem> PendingQueues<T> {
    /// An empty index.
    #[must_use]
    pub fn new() -> Self {
        PendingQueues {
            groups: HashMap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// Total pending items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Distinct matrices with pending items.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Items pending in `matrix_id`'s group (0 for an unknown matrix).
    #[must_use]
    pub(crate) fn group_len(&self, matrix_id: u64) -> usize {
        self.groups.get(&matrix_id).map_or(0, |g| g.items.len())
    }

    /// Appends an item to its matrix's group (assigning the next global
    /// arrival sequence number).
    pub fn push(&mut self, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.groups
            .entry(item.matrix_id())
            .or_insert_with(Group::new)
            .push(seq, item);
        self.len += 1;
    }

    /// Per-group summaries sorted by the arrival order of each group's
    /// oldest item — `views()[0]` is always the group whose turn it is
    /// under strict FIFO.
    #[must_use]
    pub fn views(&self) -> Vec<GroupView> {
        let mut views: Vec<GroupView> = self
            .groups
            .iter()
            .map(|(&matrix_id, g)| {
                let &(head_seq, ref head) = g.items.front().expect("groups are never empty");
                GroupView {
                    matrix_id,
                    head_seq,
                    len: g.items.len(),
                    oldest_submitted_at: head.submitted_at(),
                    earliest_deadline: g.deadline_min.front().map(|&(_, d)| d),
                }
            })
            .collect();
        views.sort_by_key(|v| v.head_seq);
        views
    }

    /// Pops up to `max` items from the front of `matrix_id`'s group, in
    /// arrival order. Returns an empty vec for an unknown matrix.
    pub fn take(&mut self, matrix_id: u64, max: usize) -> Vec<T> {
        let Some(group) = self.groups.get_mut(&matrix_id) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(max.min(group.items.len()));
        while out.len() < max {
            match group.pop() {
                Some(item) => out.push(item),
                None => break,
            }
        }
        if group.items.is_empty() {
            self.groups.remove(&matrix_id);
        }
        self.len -= out.len();
        out
    }
}

/// A policy's summary of one pending same-matrix group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupView {
    /// The group's matrix id.
    pub matrix_id: u64,
    /// Global arrival sequence of the group's oldest item (lower =
    /// earlier turn).
    pub head_seq: u64,
    /// Items pending in the group.
    pub len: usize,
    /// When the group's oldest item was submitted.
    pub oldest_submitted_at: Instant,
    /// Earliest deadline among the group's items, if any carry one.
    pub earliest_deadline: Option<Instant>,
}

/// Scheduler state a policy may consult when picking the next group.
#[derive(Debug)]
pub struct DispatchContext<'a> {
    /// Matrices whose tile an idle device holds (the device pool's
    /// residency index).
    pub resident: &'a [u64],
    /// Matrix of the pulling worker's previous batch, if any.
    pub last_dispatched: Option<u64>,
}

impl DispatchContext<'_> {
    /// Whether `matrix_id`'s tile is warm: an idle device holds it.
    #[must_use]
    pub fn is_warm(&self, matrix_id: u64) -> bool {
        self.resident.contains(&matrix_id)
    }
}

/// Decides which pending group a free worker serves next.
///
/// `views` is non-empty and sorted oldest head first; the return value
/// indexes into it. Policies may keep internal state (`&mut self`) —
/// e.g. the [`ResidencyAware`] starvation clock.
pub trait AdmissionPolicy: Send {
    /// The policy's stable label (used in metrics and benchmark JSON).
    fn name(&self) -> &'static str;

    /// Picks the index of the group to dispatch next.
    fn select(&mut self, views: &[GroupView], ctx: &DispatchContext<'_>, now: Instant) -> usize;
}

/// Strict arrival order — the baseline every other policy is measured
/// against.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl AdmissionPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(&mut self, _views: &[GroupView], _ctx: &DispatchContext<'_>, _now: Instant) -> usize {
        0
    }
}

/// Classic earliest-deadline-first over each group's earliest pending
/// deadline; groups without deadlines rank after all deadlined groups,
/// in arrival order. (Deadline-free groups can therefore wait under
/// sustained deadline pressure — that is EDF's contract; use
/// [`ResidencyAware`] when fairness matters.)
#[derive(Debug, Default, Clone, Copy)]
pub struct EarliestDeadlineFirst;

impl AdmissionPolicy for EarliestDeadlineFirst {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn select(&mut self, views: &[GroupView], _ctx: &DispatchContext<'_>, now: Instant) -> usize {
        views
            .iter()
            .enumerate()
            .min_by_key(|(_, v)| match v.earliest_deadline {
                // `None < Some` for Options, so rank explicitly: all
                // deadlined groups (by deadline) before deadline-free
                // ones (by arrival).
                Some(d) => (0u8, d, v.head_seq),
                None => (1u8, now, v.head_seq),
            })
            .map_or(0, |(i, _)| i)
    }
}

/// Reorders pending groups — within deadline slack — to lengthen
/// same-matrix runs on devices that already hold the tile.
///
/// Selection order:
///
/// 1. **Starvation bound**: if the arrival-order front group has been
///    the front for longer than `max_delay`, it dispatches now. A group
///    is therefore delayed at most `max_delay` past its strict-FIFO
///    turn, whatever the traffic looks like.
/// 2. **Deadline urgency**: any group whose earliest deadline is within
///    `max_delay` of `now` is at risk (a skipped group can wait up to
///    `max_delay`); the most urgent such group dispatches.
/// 3. **Run lengthening**: if the pulling worker's previous matrix still
///    has pending work and an idle device holds its tile, keep the run
///    going — every extra batch in the run is a write-free pass.
/// 4. **Warm start**: otherwise the oldest group whose tile an idle
///    device holds.
/// 5. Otherwise strict FIFO.
#[derive(Debug)]
pub struct ResidencyAware {
    max_delay: Duration,
    /// `(head_seq, since)` of the group observed at the arrival-order
    /// front — the starvation clock. Reset whenever the front changes.
    front_watch: Option<(u64, Instant)>,
}

impl ResidencyAware {
    /// A policy that reorders within `max_delay` of slack.
    #[must_use]
    pub fn new(max_delay: Duration) -> Self {
        ResidencyAware {
            max_delay,
            front_watch: None,
        }
    }

    /// The configured starvation bound.
    #[must_use]
    pub fn max_delay(&self) -> Duration {
        self.max_delay
    }
}

impl AdmissionPolicy for ResidencyAware {
    fn name(&self) -> &'static str {
        "residency"
    }

    fn select(&mut self, views: &[GroupView], ctx: &DispatchContext<'_>, now: Instant) -> usize {
        let front = &views[0];
        // Advance the starvation clock: it measures how long this group
        // has been the arrival-order front (its "turn"), not how long it
        // has existed — under load every request queues; only being
        // *passed over* counts as starvation.
        let since = match self.front_watch {
            Some((seq, since)) if seq == front.head_seq => since,
            _ => {
                self.front_watch = Some((front.head_seq, now));
                now
            }
        };
        if now.duration_since(since) >= self.max_delay {
            return 0;
        }

        // Deadline urgency: a group we skip can wait up to `max_delay`,
        // so anything due within that horizon must not be skipped.
        let horizon = now + self.max_delay;
        if let Some((i, _)) = views
            .iter()
            .enumerate()
            .filter(|(_, v)| v.earliest_deadline.is_some_and(|d| d <= horizon))
            .min_by_key(|(_, v)| (v.earliest_deadline, v.head_seq))
        {
            return i;
        }

        // Run lengthening: same matrix as the worker's previous batch.
        if let Some(last) = ctx.last_dispatched {
            if ctx.is_warm(last) {
                if let Some(i) = views.iter().position(|v| v.matrix_id == last) {
                    return i;
                }
            }
        }

        // Warm start: oldest group whose tile an idle device holds.
        views
            .iter()
            .position(|v| ctx.is_warm(v.matrix_id))
            .unwrap_or(0)
    }
}

/// Which [`AdmissionPolicy`] a [`Runtime`](crate::Runtime) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicyKind {
    /// Strict arrival order (baseline).
    Fifo,
    /// Residency-aware reordering within deadline slack.
    ResidencyAware,
    /// Earliest deadline first.
    EarliestDeadlineFirst,
}

impl AdmissionPolicyKind {
    /// All kinds, in baseline-first order (handy for comparison sweeps).
    pub const ALL: [AdmissionPolicyKind; 3] = [
        AdmissionPolicyKind::Fifo,
        AdmissionPolicyKind::ResidencyAware,
        AdmissionPolicyKind::EarliestDeadlineFirst,
    ];

    /// The kind's stable label (matches the policy's
    /// [`AdmissionPolicy::name`]).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicyKind::Fifo => "fifo",
            AdmissionPolicyKind::ResidencyAware => "residency",
            AdmissionPolicyKind::EarliestDeadlineFirst => "edf",
        }
    }

    /// Parses a label as produced by [`AdmissionPolicyKind::label`].
    #[must_use]
    pub fn parse(label: &str) -> Option<Self> {
        match label {
            "fifo" => Some(AdmissionPolicyKind::Fifo),
            "residency" => Some(AdmissionPolicyKind::ResidencyAware),
            "edf" => Some(AdmissionPolicyKind::EarliestDeadlineFirst),
            _ => None,
        }
    }

    /// Instantiates the policy. `max_delay` bounds [`ResidencyAware`]'s
    /// reordering; the other policies ignore it.
    #[must_use]
    pub fn build(&self, max_delay: Duration) -> Box<dyn AdmissionPolicy> {
        match self {
            AdmissionPolicyKind::Fifo => Box::new(Fifo),
            AdmissionPolicyKind::ResidencyAware => Box::new(ResidencyAware::new(max_delay)),
            AdmissionPolicyKind::EarliestDeadlineFirst => Box::new(EarliestDeadlineFirst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bare test item.
    #[derive(Debug, Clone)]
    struct Item {
        matrix: u64,
        deadline: Option<Instant>,
        at: Instant,
    }

    impl PendingItem for Item {
        fn matrix_id(&self) -> u64 {
            self.matrix
        }
        fn deadline(&self) -> Option<Instant> {
            self.deadline
        }
        fn submitted_at(&self) -> Instant {
            self.at
        }
    }

    fn item(matrix: u64) -> Item {
        Item {
            matrix,
            deadline: None,
            at: Instant::now(),
        }
    }

    fn with_deadline(matrix: u64, d: Instant) -> Item {
        Item {
            matrix,
            deadline: Some(d),
            at: Instant::now(),
        }
    }

    #[test]
    fn pending_queues_index_and_take_in_arrival_order() {
        let mut q = PendingQueues::new();
        for m in [7u64, 3, 7, 7, 3, 9] {
            q.push(item(m));
        }
        assert_eq!((q.len(), q.group_count()), (6, 3));
        let views = q.views();
        assert_eq!(
            views.iter().map(|v| v.matrix_id).collect::<Vec<_>>(),
            vec![7, 3, 9],
            "views sort by oldest head"
        );
        assert_eq!(views[0].len, 3);
        let batch = q.take(7, 2);
        assert_eq!(batch.len(), 2);
        assert_eq!((q.len(), q.group_count()), (4, 3));
        // Taking the rest removes the group entirely.
        assert_eq!(q.take(7, 10).len(), 1);
        assert_eq!(q.group_count(), 2);
        assert!(q.take(7, 1).is_empty(), "drained group yields nothing");
        assert_eq!(q.views()[0].matrix_id, 3, "next-oldest head leads");
    }

    #[test]
    fn earliest_deadline_tracks_pushes_and_pops() {
        let now = Instant::now();
        let mut q = PendingQueues::new();
        q.push(with_deadline(1, now + Duration::from_secs(9)));
        q.push(with_deadline(1, now + Duration::from_secs(2)));
        q.push(with_deadline(1, now + Duration::from_secs(5)));
        assert_eq!(
            q.views()[0].earliest_deadline,
            Some(now + Duration::from_secs(2))
        );
        // Popping the 9 s head keeps the 2 s minimum; popping the 2 s
        // item advances the minimum to 5 s.
        let _ = q.take(1, 1);
        assert_eq!(
            q.views()[0].earliest_deadline,
            Some(now + Duration::from_secs(2))
        );
        let _ = q.take(1, 1);
        assert_eq!(
            q.views()[0].earliest_deadline,
            Some(now + Duration::from_secs(5))
        );
    }

    #[test]
    fn fifo_always_picks_the_front() {
        let mut q = PendingQueues::new();
        q.push(item(1));
        q.push(item(2));
        let ctx = DispatchContext {
            resident: &[2],
            last_dispatched: Some(2),
        };
        assert_eq!(Fifo.select(&q.views(), &ctx, Instant::now()), 0);
    }

    #[test]
    fn edf_orders_by_deadline_then_arrival() {
        let now = Instant::now();
        let mut q = PendingQueues::new();
        q.push(item(1)); // no deadline
        q.push(with_deadline(2, now + Duration::from_secs(9)));
        q.push(with_deadline(3, now + Duration::from_secs(1)));
        let ctx = DispatchContext {
            resident: &[],
            last_dispatched: None,
        };
        let views = q.views();
        let picked = EarliestDeadlineFirst.select(&views, &ctx, now);
        assert_eq!(views[picked].matrix_id, 3, "tightest deadline first");
    }

    #[test]
    fn residency_lengthens_runs_and_respects_the_starvation_bound() {
        let now = Instant::now();
        let mut q = PendingQueues::new();
        q.push(item(1));
        q.push(item(2));
        let ctx = DispatchContext {
            resident: &[2],
            last_dispatched: Some(2),
        };
        let mut policy = ResidencyAware::new(Duration::from_millis(100));
        let views = q.views();
        // Warm matrix 2 jumps the queue while matrix 1 is within bound…
        assert_eq!(views[policy.select(&views, &ctx, now)].matrix_id, 2);
        // …but once matrix 1 has been the front past max_delay, it wins.
        let later = now + Duration::from_millis(150);
        assert_eq!(views[policy.select(&views, &ctx, later)].matrix_id, 1);
    }

    #[test]
    fn residency_serves_urgent_deadlines_before_warm_matrices() {
        let now = Instant::now();
        let mut q = PendingQueues::new();
        q.push(item(1));
        q.push(with_deadline(3, now + Duration::from_millis(50)));
        q.push(item(2));
        let ctx = DispatchContext {
            resident: &[2],
            last_dispatched: Some(2),
        };
        let mut policy = ResidencyAware::new(Duration::from_millis(100));
        let views = q.views();
        let picked = policy.select(&views, &ctx, now);
        assert_eq!(
            views[picked].matrix_id, 3,
            "urgent deadline outranks warmth"
        );
    }

    #[test]
    fn kind_round_trips_labels_and_builds() {
        for kind in AdmissionPolicyKind::ALL {
            assert_eq!(AdmissionPolicyKind::parse(kind.label()), Some(kind));
            let policy = kind.build(Duration::from_millis(10));
            assert_eq!(policy.name(), kind.label());
        }
        assert_eq!(AdmissionPolicyKind::parse("nope"), None);
    }
}
