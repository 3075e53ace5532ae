//! The per-MDT Changelog.
//!
//! Mirrors Lustre's semantics: records accumulate in the MDT until every
//! *registered changelog user* has cleared them (`lfs changelog_clear`).
//! The paper's collectors "purge the Changelogs … a pointer is maintained
//! to the most recently processed event tuple and all previous events are
//! cleared" (§IV Processing) — that is exactly [`Changelog::clear`].

use crate::record::ChangelogRecord;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A registered changelog consumer (Lustre's `cl1`, `cl2`, … users).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChangelogUser(pub u32);

/// Counters describing changelog health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChangelogStats {
    /// Total records ever appended.
    pub appended: u64,
    /// Records dropped because the ring exceeded its capacity before any
    /// user cleared them (models an overburdened changelog).
    pub overflowed: u64,
    /// Records currently retained.
    pub retained: usize,
    /// Highest record index assigned so far (0 if none).
    pub last_index: u64,
    /// Appends that found a reader blocked in [`Changelog::wait`] and
    /// woke it. An append with no waiter signals nothing.
    pub wakeups: u64,
}

#[derive(Debug)]
struct Inner {
    records: VecDeque<ChangelogRecord>,
    next_index: u64,
    /// Per-user cleared watermark: records with `index <= watermark` have
    /// been consumed by that user.
    users: Vec<(ChangelogUser, u64)>,
    next_user: u32,
    /// Readers currently blocked in [`Changelog::wait`].
    waiters: usize,
    stats: ChangelogStats,
}

/// A single MDT's changelog.
#[derive(Debug)]
pub struct Changelog {
    mdt_index: u16,
    capacity: usize,
    inner: Mutex<Inner>,
    /// Signalled by `append` when a reader is blocked in `wait`.
    appended: Condvar,
}

impl Changelog {
    /// Create a changelog for MDT `mdt_index` retaining at most
    /// `capacity` records (0 = unbounded).
    pub fn new(mdt_index: u16, capacity: usize) -> Changelog {
        Changelog {
            mdt_index,
            capacity,
            inner: Mutex::new(Inner {
                records: VecDeque::new(),
                next_index: 1,
                users: Vec::new(),
                next_user: 1,
                waiters: 0,
                stats: ChangelogStats::default(),
            }),
            appended: Condvar::new(),
        }
    }

    /// Every update leaves `Inner` valid at every step, so a holder
    /// that panicked does not take the changelog down with it.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The MDT this changelog belongs to.
    pub fn mdt_index(&self) -> u16 {
        self.mdt_index
    }

    /// Register a changelog user; records are retained until every
    /// registered user clears them. A new user can read all *retained*
    /// history (its watermark starts just below the oldest retained
    /// record) but does not resurrect records already freed.
    pub fn register_user(&self) -> ChangelogUser {
        let mut inner = self.lock();
        let user = ChangelogUser(inner.next_user);
        inner.next_user += 1;
        let watermark = match inner.records.front() {
            Some(first) => first.index - 1,
            None => inner.next_index - 1,
        };
        inner.users.push((user, watermark));
        user
    }

    /// Deregister a user; its watermark no longer pins records.
    pub fn deregister_user(&self, user: ChangelogUser) {
        let mut inner = self.lock();
        inner.users.retain(|(u, _)| *u != user);
        Self::gc(&mut inner, self.capacity);
    }

    /// Append a record body (the namespace fills in everything except the
    /// index, which the changelog assigns). Returns the assigned index.
    pub fn append(&self, mut record: ChangelogRecord) -> u64 {
        let mut inner = self.lock();
        let idx = inner.next_index;
        inner.next_index += 1;
        record.index = idx;
        record.mdt_index = self.mdt_index;
        inner.records.push_back(record);
        inner.stats.appended += 1;
        inner.stats.last_index = idx;
        Self::gc(&mut inner, self.capacity);
        inner.stats.retained = inner.records.len();
        // Waiters register under this mutex, so the count is exact: a
        // changelog nobody follows (a backlog being generated) pays no
        // futex call per record.
        let wake = inner.waiters > 0;
        if wake {
            inner.stats.wakeups += 1;
        }
        drop(inner);
        if wake {
            self.appended.notify_all();
        }
        idx
    }

    /// Block until a record with index greater than `since` exists, or
    /// `timeout` elapses; returns whether one exists. This is the
    /// blocking read of the real facility (`CHANGELOG_FLAG_FOLLOW`, the
    /// `poll(2)`-able `/dev/changelog-*` device). The predicate is
    /// checked under the changelog mutex `append` holds, so a record
    /// appended between a reader's empty [`read`](Changelog::read) and
    /// this call is never slept through.
    pub fn wait(&self, since: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            if inner.next_index - 1 > since {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            inner.waiters += 1;
            inner = self
                .appended
                .wait_timeout(inner, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            inner.waiters -= 1;
        }
    }

    /// Read up to `max` records with index strictly greater than `since`.
    ///
    /// This is the collector's batch read (Algorithm 1 line 2: "events =
    /// read events from mdt Changelog").
    pub fn read(&self, since: u64, max: usize) -> Vec<ChangelogRecord> {
        let inner = self.lock();
        // Records are index-ordered; binary search for the first > since.
        let start = inner.records.partition_point(|r| r.index <= since);
        inner
            .records
            .iter()
            .skip(start)
            .take(max)
            .cloned()
            .collect()
    }

    /// Clear records up to and including `up_to` on behalf of `user`
    /// (Lustre `changelog_clear`). Records are freed once *every*
    /// registered user has cleared them.
    pub fn clear(&self, user: ChangelogUser, up_to: u64) {
        let mut inner = self.lock();
        if let Some(entry) = inner.users.iter_mut().find(|(u, _)| *u == user) {
            entry.1 = entry.1.max(up_to);
        }
        Self::gc(&mut inner, self.capacity);
        inner.stats.retained = inner.records.len();
    }

    /// Current health counters.
    pub fn stats(&self) -> ChangelogStats {
        let inner = self.lock();
        let mut stats = inner.stats;
        stats.retained = inner.records.len();
        stats
    }

    /// Number of records currently pending for `user` (appended but not
    /// yet cleared by it).
    pub fn backlog(&self, user: ChangelogUser) -> u64 {
        let inner = self.lock();
        let watermark = inner
            .users
            .iter()
            .find(|(u, _)| *u == user)
            .map(|(_, w)| *w)
            .unwrap_or(0);
        (inner.next_index - 1).saturating_sub(watermark)
    }

    fn gc(inner: &mut Inner, capacity: usize) {
        // Free records every user has cleared.
        if !inner.users.is_empty() {
            let min_cleared = inner.users.iter().map(|(_, w)| *w).min().unwrap_or(0);
            while inner
                .records
                .front()
                .is_some_and(|r| r.index <= min_cleared)
            {
                inner.records.pop_front();
            }
        }
        // Enforce the retention cap: oldest uncleared records are
        // overwritten, as on a space-constrained MDT.
        if capacity > 0 {
            while inner.records.len() > capacity {
                inner.records.pop_front();
                inner.stats.overflowed += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fid::Fid;
    use fsmon_events::changelog::ChangelogKind;

    fn rec(name: &str) -> ChangelogRecord {
        ChangelogRecord {
            index: 0,
            kind: ChangelogKind::Creat,
            time_ns: 0,
            flags: 0,
            target_fid: Fid::new(1, 1, 0),
            parent_fid: Fid::ROOT,
            target_name: name.into(),
            rename: None,
            rename_target_name: None,
            mdt_index: 0,
        }
    }

    #[test]
    fn append_assigns_dense_indexes() {
        let log = Changelog::new(0, 0);
        assert_eq!(log.append(rec("a")), 1);
        assert_eq!(log.append(rec("b")), 2);
        assert_eq!(log.append(rec("c")), 3);
    }

    #[test]
    fn read_since_filters_and_limits() {
        let log = Changelog::new(0, 0);
        for i in 0..10 {
            log.append(rec(&format!("f{i}")));
        }
        let batch = log.read(3, 4);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch[0].index, 4);
        assert_eq!(batch[3].index, 7);
        assert!(log.read(10, 100).is_empty());
    }

    #[test]
    fn clear_frees_only_when_all_users_cleared() {
        let log = Changelog::new(0, 0);
        let u1 = log.register_user();
        let u2 = log.register_user();
        for i in 0..5 {
            log.append(rec(&format!("f{i}")));
        }
        log.clear(u1, 5);
        assert_eq!(log.stats().retained, 5, "u2 still pins records");
        log.clear(u2, 3);
        assert_eq!(log.stats().retained, 2);
        log.clear(u2, 5);
        assert_eq!(log.stats().retained, 0);
    }

    #[test]
    fn late_user_reads_retained_history_but_not_freed_records() {
        let log = Changelog::new(0, 0);
        let u1 = log.register_user();
        log.append(rec("a"));
        log.append(rec("b"));
        log.clear(u1, 2); // frees both (u1 is the only user)
        log.append(rec("c"));
        // u2 registers while record 3 is retained: it can read it, but
        // not the freed records 1–2.
        let u2 = log.register_user();
        assert_eq!(log.backlog(u2), 1);
        assert_eq!(log.read(0, 10).len(), 1);
        // Both users must clear before record 3 is freed.
        log.clear(u1, 3);
        assert_eq!(log.stats().retained, 1);
        log.clear(u2, 3);
        assert_eq!(log.stats().retained, 0);
    }

    #[test]
    fn capacity_overflow_drops_oldest() {
        let log = Changelog::new(0, 3);
        let u = log.register_user();
        for i in 0..5 {
            log.append(rec(&format!("f{i}")));
        }
        let stats = log.stats();
        assert_eq!(stats.retained, 3);
        assert_eq!(stats.overflowed, 2);
        // The oldest surviving record is index 3.
        let batch = log.read(0, 10);
        assert_eq!(batch[0].index, 3);
        let _ = u;
    }

    #[test]
    fn backlog_tracks_uncleared() {
        let log = Changelog::new(0, 0);
        let u = log.register_user();
        for _ in 0..7 {
            log.append(rec("x"));
        }
        assert_eq!(log.backlog(u), 7);
        log.clear(u, 4);
        assert_eq!(log.backlog(u), 3);
    }

    #[test]
    fn deregister_unpins() {
        let log = Changelog::new(0, 0);
        let u1 = log.register_user();
        let u2 = log.register_user();
        log.append(rec("a"));
        log.clear(u1, 1);
        assert_eq!(log.stats().retained, 1);
        log.deregister_user(u2);
        assert_eq!(log.stats().retained, 0);
    }

    #[test]
    fn wait_returns_at_once_when_a_newer_record_exists() {
        let log = Changelog::new(0, 0);
        log.append(rec("a"));
        log.append(rec("b"));
        // An hour-long budget: only the predicate can end these waits.
        assert!(log.wait(0, Duration::from_secs(3600)));
        assert!(log.wait(1, Duration::from_secs(3600)));
        assert_eq!(log.stats().wakeups, 0, "nobody was blocked");
    }

    #[test]
    fn wait_times_out_on_an_empty_log() {
        let log = Changelog::new(0, 0);
        assert!(!log.wait(0, Duration::from_millis(5)));
        log.append(rec("a"));
        assert!(!log.wait(1, Duration::ZERO), "nothing past the cursor");
    }

    #[test]
    fn append_wakes_a_blocked_reader_and_only_a_blocked_reader() {
        use std::sync::Arc;
        let log = Arc::new(Changelog::new(0, 0));
        // No reader is blocked: appends signal nothing.
        for _ in 0..100 {
            log.append(rec("quiet"));
        }
        assert_eq!(log.stats().wakeups, 0);
        let reader = {
            let log = log.clone();
            std::thread::spawn(move || log.wait(100, Duration::from_secs(3600)))
        };
        // Append only once the reader is registered, so the wake-up is
        // the one thing that can end its wait.
        while log.lock().waiters == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        log.append(rec("loud"));
        assert!(reader.join().unwrap());
        assert_eq!(log.stats().wakeups, 1);
        log.append(rec("quiet again"));
        assert_eq!(log.stats().wakeups, 1);
    }

    #[test]
    fn concurrent_append_and_read() {
        use std::sync::Arc;
        let log = Arc::new(Changelog::new(0, 0));
        let user = log.register_user();
        let writer = {
            let log = log.clone();
            std::thread::spawn(move || {
                for i in 0..2000 {
                    log.append(rec(&format!("f{i}")));
                }
            })
        };
        let mut seen = 0u64;
        while seen < 2000 {
            let batch = log.read(seen, 128);
            if let Some(last) = batch.last() {
                // Indexes must be dense and ordered.
                for (k, r) in batch.iter().enumerate() {
                    assert_eq!(r.index, seen + 1 + k as u64);
                }
                seen = last.index;
                log.clear(user, seen);
            }
        }
        writer.join().unwrap();
        assert_eq!(log.stats().appended, 2000);
        assert_eq!(log.stats().retained, 0);
    }
}
