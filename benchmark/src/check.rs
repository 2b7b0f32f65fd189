//! The correctness gate. A run whose outputs are wrong reports nothing:
//! every request must be answered exactly once, every pre-expired one
//! with the typed deadline error, and sampled replies must be
//! bit-identical to a solo executor.

use crate::client::{digest, CheckItem};
use crate::workload::{ModelSet, RequestStream};
use pic_runtime::TileExecutor;
use pic_tensor::TensorCoreConfig;
use std::collections::BTreeMap;

/// Outcome counts over every request a workload sent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Answered 200.
    pub ok: u64,
    /// Pre-expired requests answered with the typed deadline error.
    pub expired_as_expected: u64,
    /// Every other typed error, by status and kind.
    pub errors: BTreeMap<String, u64>,
    /// Requests no reply ever arrived for.
    pub lost: u64,
    /// Pre-expired requests sent.
    pub pre_expired_sent: u64,
    /// Pre-expired requests answered any other way.
    pub pre_expired_misanswered: u64,
}

impl Tally {
    /// Folds in one request's outcome: its status (0 when no reply
    /// came) and, for an error, its kind.
    pub fn add(&mut self, status: u16, kind: &str, pre_expired: bool) {
        self.attempted += 1;
        if pre_expired {
            self.pre_expired_sent += 1;
        }
        match status {
            0 => self.lost += 1,
            504 if pre_expired && kind == "deadline_expired" => self.expired_as_expected += 1,
            status => {
                if pre_expired {
                    self.pre_expired_misanswered += 1;
                }
                if status == 200 {
                    self.ok += 1;
                } else {
                    *self.errors.entry(format!("{status} {kind}")).or_default() += 1;
                }
            }
        }
    }

    /// Adds another tally's counts into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.expired_as_expected += other.expired_as_expected;
        for (k, v) in &other.errors {
            *self.errors.entry(k.clone()).or_default() += v;
        }
        self.lost += other.lost;
        self.pre_expired_sent += other.pre_expired_sent;
        self.pre_expired_misanswered += other.pre_expired_misanswered;
    }

    /// Requests that did not end as a 200 or an expected 504.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok - self.expired_as_expected
    }

    /// Typed errors of any kind, expected ones included.
    #[must_use]
    pub fn typed_errors(&self) -> u64 {
        self.expired_as_expected + self.errors.values().sum::<u64>()
    }
}

/// Conservation: each of the `sent` requests is accounted for by exactly
/// one OK or typed error, none is lost, and the backend completed as
/// many requests as the client received OKs for.
///
/// # Errors
///
/// Describes the first broken balance.
pub fn conservation(t: &Tally, sent: u64, backend_completed: Option<u64>) -> Result<(), String> {
    if t.lost > 0 {
        return Err(format!("{} requests never got a reply", t.lost));
    }
    if sent != t.attempted {
        return Err(format!(
            "{sent} requests sent but {} outcomes recorded",
            t.attempted
        ));
    }
    if t.attempted != t.ok + t.typed_errors() {
        return Err(format!(
            "attempted {} != ok {} + typed errors {}",
            t.attempted,
            t.ok,
            t.typed_errors()
        ));
    }
    if let Some(completed) = backend_completed {
        if completed != t.ok {
            return Err(format!(
                "the backend completed {completed} requests but the client received {} OKs",
                t.ok
            ));
        }
    }
    Ok(())
}

/// Every pre-expired request came back as the typed deadline error.
///
/// # Errors
///
/// How many did not.
pub fn pre_expired(t: &Tally) -> Result<(), String> {
    if t.pre_expired_misanswered > 0 || t.expired_as_expected != t.pre_expired_sent {
        return Err(format!(
            "{} of {} pre-expired requests were not answered with a typed 504",
            t.pre_expired_sent - t.expired_as_expected,
            t.pre_expired_sent
        ));
    }
    Ok(())
}

/// Recomputes every checked reply on a solo executor from its
/// regenerated inputs and compares digests bit for bit.
///
/// # Errors
///
/// The first reply that differs.
pub fn bit_identity(models: &ModelSet, seed: u64, checks: &[CheckItem]) -> Result<usize, String> {
    let mut solo = TileExecutor::new(TensorCoreConfig::paper(), 0);
    let mut by_lane: BTreeMap<u64, Vec<&CheckItem>> = BTreeMap::new();
    for c in checks {
        by_lane.entry(c.lane).or_default().push(c);
    }
    for (lane, mut items) in by_lane {
        items.sort_by_key(|c| c.seq);
        let mut stream = RequestStream::new(models, seed, lane);
        let mut req = stream.next_request();
        for item in items {
            while req.seq < item.seq {
                req = stream.next_request();
            }
            if req.model != item.model {
                return Err(format!(
                    "lane {lane} request {}: regenerated model {} but m{} was sent",
                    item.seq, req.model, item.model
                ));
            }
            let (outputs, _) = solo
                .execute(&models.matrices[req.model], &req.inputs)
                .map_err(|e| format!("solo executor rejected a served request: {e}"))?;
            if digest(&outputs) != item.digest {
                return Err(format!(
                    "lane {lane} request {} (m{}): reply differs from the solo executor",
                    item.seq, item.model
                ));
            }
        }
    }
    Ok(checks.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Kind;

    fn healthy() -> Tally {
        let mut t = Tally::default();
        for i in 0..100 {
            if i == 16 {
                t.add(504, "deadline_expired", true);
            } else {
                t.add(200, "", false);
            }
        }
        t
    }

    #[test]
    fn a_healthy_tally_conserves() {
        let t = healthy();
        assert_eq!((t.attempted, t.ok, t.failed()), (100, 99, 0));
        assert_eq!(conservation(&t, 100, Some(99)), Ok(()));
        assert_eq!(pre_expired(&t), Ok(()));
    }

    #[test]
    fn tallies_merge_by_adding_counts() {
        let mut a = healthy();
        a.add(429, "shed_overloaded", false);
        let mut b = healthy();
        b.merge(&a);
        assert_eq!((b.attempted, b.ok, b.failed()), (201, 198, 1));
        assert_eq!(b.errors.get("429 shed_overloaded"), Some(&1));
    }

    #[test]
    fn a_dropped_reply_breaks_conservation() {
        let t = healthy();
        assert!(
            conservation(&t, 101, Some(99)).is_err(),
            "one reply missing"
        );
        let mut lost = healthy();
        lost.add(0, "lost", false);
        assert!(conservation(&lost, 101, Some(99)).is_err());
        assert!(
            conservation(&t, 100, Some(98)).is_err(),
            "backend disagrees"
        );
    }

    #[test]
    fn a_served_pre_expired_request_fails_the_deadline_check() {
        let mut t = healthy();
        t.add(200, "", true);
        assert!(pre_expired(&t).is_err());
        assert_eq!(t.failed(), 0, "it still counts as an OK reply");
    }

    #[test]
    fn shed_requests_count_as_failed_typed_errors() {
        let mut t = healthy();
        t.add(429, "shed_overloaded", false);
        assert_eq!(t.failed(), 1);
        assert_eq!(conservation(&t, 101, Some(99)), Ok(()));
        assert_eq!(t.errors.get("429 shed_overloaded"), Some(&1));
    }

    #[test]
    fn bit_identity_accepts_true_replies_and_rejects_a_flipped_bit() {
        let models = ModelSet::generate(Kind::ServeCold, 42);
        let mut stream = RequestStream::new(&models, 42, 5);
        let mut exec = TileExecutor::new(TensorCoreConfig::paper(), 3);
        let mut checks = Vec::new();
        for _ in 0..3 {
            let req = stream.next_request();
            let (mut outputs, _) = exec
                .execute(&models.matrices[req.model], &req.inputs)
                .expect("valid");
            if checks.len() == 2 {
                outputs[0][0].code_sum ^= 1;
            }
            checks.push(CheckItem {
                lane: 5,
                seq: req.seq,
                model: req.model,
                digest: digest(&outputs),
            });
        }
        assert_eq!(bit_identity(&models, 42, &checks[..2]), Ok(2));
        let err = bit_identity(&models, 42, &checks).expect_err("flipped bit");
        assert!(err.contains("differs"), "{err}");
    }
}
