//! Correctness accounting. Every check counts what it attempted and
//! what failed; the sum is the run's `failed_ratio`
//! (`failed ÷ attempted`), which is 0 at a correct commit.

use fsmon_events::StandardEvent;
use std::hash::{Hash, Hasher};

/// Running totals plus one line per failed check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Events, replays and queries checked.
    pub attempted: u64,
    /// Of those: missing + duplicated + mismatched + failed.
    pub failed: u64,
    /// What failed, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Record one check over `attempted` items of which `failed`
    /// failed.
    pub fn add(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.notes
                .push(format!("{what}: {failed} of {attempted} failed"));
        }
    }

    /// Record a condition that must hold.
    pub fn require(&mut self, what: &str, ok: bool) {
        self.add(what, 1, u64::from(!ok));
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Identity of a delivered event for multiset comparison: shard, id,
/// kind and path. Size/owner are excluded — the collector stats the
/// file at collection time, so they differ between a live delivery and
/// nothing else compared here.
pub fn event_key(shard: usize, ev: &StandardEvent) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    (shard, ev.id, ev.kind.wire_tag(), &ev.path).hash(&mut h);
    h.finish()
}

/// Delivered ids of one shard against the dense range `1..=expected`:
/// `(missing, duplicated_or_out_of_range)`.
pub fn check_dense(ids: &[u64], expected: u64) -> (u64, u64) {
    let mut seen = vec![false; expected as usize];
    let mut extra = 0u64;
    for &id in ids {
        match id.checked_sub(1).and_then(|i| seen.get_mut(i as usize)) {
            Some(slot) if !*slot => *slot = true,
            _ => extra += 1,
        }
    }
    let missing = seen.iter().filter(|s| !**s).count() as u64;
    (missing, extra)
}

/// Multiset difference of two key lists (both are sorted in place):
/// `(in expected but not delivered, delivered but not expected)`. A
/// mismatched event (right id, wrong path) shows up once on each side.
pub fn diff_multisets(expected: &mut [u64], got: &mut [u64]) -> (u64, u64) {
    expected.sort_unstable();
    got.sort_unstable();
    let (mut i, mut j) = (0, 0);
    let (mut missing, mut extra) = (0u64, 0u64);
    while i < expected.len() && j < got.len() {
        match expected[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                missing += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                extra += 1;
                j += 1;
            }
        }
    }
    missing += (expected.len() - i) as u64;
    extra += (got.len() - j) as u64;
    (missing, extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmon_events::EventKind;

    fn ev(id: u64, kind: EventKind, path: &str) -> StandardEvent {
        let mut e = StandardEvent::new(kind, "/mnt/lustre", path);
        e.id = id;
        e
    }

    fn keys(events: &[StandardEvent]) -> Vec<u64> {
        events.iter().map(|e| event_key(0, e)).collect()
    }

    #[test]
    fn clean_delivery_has_ratio_zero() {
        let stream: Vec<_> = (1..=100)
            .map(|i| ev(i, EventKind::Create, &format!("/f{i}")))
            .collect();
        let mut tally = Tally::default();
        let ids: Vec<u64> = stream.iter().map(|e| e.id).collect();
        let (missing, extra) = check_dense(&ids, 100);
        tally.add("dense", 100, missing + extra);
        let (missing, extra) = diff_multisets(&mut keys(&stream), &mut keys(&stream));
        tally.add("multiset", 100, missing + extra);
        assert_eq!(tally.failed_ratio(), 0.0);
        assert!(tally.notes.is_empty());
    }

    #[test]
    fn missing_duplicate_and_mismatch_are_each_counted() {
        let expected: Vec<_> = (1..=10)
            .map(|i| ev(i, EventKind::Create, &format!("/f{i}")))
            .collect();
        // Delivered: id 3 missing, id 5 twice, id 7 with the wrong path.
        let mut delivered: Vec<_> = expected.iter().filter(|e| e.id != 3).cloned().collect();
        delivered.push(ev(5, EventKind::Create, "/f5"));
        delivered.iter_mut().find(|e| e.id == 7).unwrap().path = "/wrong".to_string();

        let ids: Vec<u64> = delivered.iter().map(|e| e.id).collect();
        assert_eq!(check_dense(&ids, 10), (1, 1), "one missing, one duplicate");

        let (missing, extra) = diff_multisets(&mut keys(&expected), &mut keys(&delivered));
        // Missing: id 3 and the true id 7. Extra: the second id 5 and
        // the wrong-path id 7.
        assert_eq!((missing, extra), (2, 2));

        let mut tally = Tally::default();
        tally.add("multiset", 10, missing + extra);
        tally.require("decode_errors == 0", true);
        assert_eq!(tally.attempted, 11);
        assert_eq!(tally.failed, 4);
        assert!((tally.failed_ratio() - 4.0 / 11.0).abs() < 1e-12);
        assert_eq!(tally.notes.len(), 1);
    }

    #[test]
    fn out_of_range_ids_and_kind_changes_count() {
        assert_eq!(check_dense(&[0, 1, 2, 11], 3), (1, 2));
        let a = ev(1, EventKind::Create, "/f");
        let b = ev(1, EventKind::Delete, "/f");
        assert_ne!(event_key(0, &a), event_key(0, &b));
        assert_ne!(
            event_key(0, &a),
            event_key(1, &a),
            "shards keep separate id spaces"
        );
    }
}
