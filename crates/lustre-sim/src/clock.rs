//! Simulated time and operation-cost modelling.
//!
//! Two complementary mechanisms:
//!
//! * [`SimClock`] — a shared, monotonically advancing nanosecond counter
//!   used to timestamp changelog records deterministically. Each
//!   metadata operation advances it by that operation's modelled
//!   latency, so record timestamps reflect the testbed's event
//!   *generation* rate (Table V).
//! * [`CostModel`] — the real-time cost of expensive tools, chiefly
//!   `fid2path`. When a cost is `spin`, the caller busy-waits for the
//!   configured wall-clock duration, so throughput measurements on this
//!   host experience the same economics the paper measured (cache hit =
//!   skip the spin).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A shared simulated clock, safe to advance from many threads.
#[derive(Debug)]
pub struct SimClock {
    now_ns: AtomicU64,
}

impl SimClock {
    /// A clock starting at `epoch_ns`.
    pub fn new(epoch_ns: u64) -> SimClock {
        SimClock {
            now_ns: AtomicU64::new(epoch_ns),
        }
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advance by `delta_ns` and return the *new* time. Each caller gets
    /// a distinct timestamp even under contention, which keeps changelog
    /// record timestamps strictly ordered per MDT.
    pub fn advance(&self, delta_ns: u64) -> u64 {
        self.now_ns.fetch_add(delta_ns.max(1), Ordering::Relaxed) + delta_ns.max(1)
    }
}

impl Default for SimClock {
    fn default() -> Self {
        // An arbitrary fixed epoch: 2019-03-08 22:27:47 UTC — the
        // datestamp of the paper's Table I sample records.
        SimClock::new(1_552_084_067_000_000_000)
    }
}

/// How an expensive operation charges its cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Free: no wall-clock cost (unit tests).
    Free,
    /// Busy-wait for this many nanoseconds of wall-clock time.
    ///
    /// A spin (not a sleep) because modelled costs are in the tens of
    /// microseconds, far below reliable OS sleep granularity. Models
    /// work the charging thread's *own node* performs.
    SpinNs(u64),
    /// Wait for this many nanoseconds of wall-clock time, blocking.
    ///
    /// Models blocking on a *remote* service (an RPC, an external
    /// tool doing I/O): the charging thread consumes no CPU, so
    /// concurrent charges overlap even on a single host core — the
    /// way concurrent `fid2path` RPCs overlap on the MDS in a real
    /// deployment. Costs below the OS sleep granularity
    /// ([`SLEEP_GRANULARITY_NS`]) fall back to the spin-yield wait so
    /// timer slack cannot inflate them severalfold.
    WaitNs(u64),
}

/// Below this, `thread::sleep` overshoot (default Linux timer slack is
/// 50µs) would dominate the modelled cost, so [`CostModel::WaitNs`]
/// spins instead of sleeping.
pub const SLEEP_GRANULARITY_NS: u64 = 100_000;

impl CostModel {
    /// Pay the cost.
    ///
    /// The wait *yields* while more than a few microseconds remain:
    /// on a machine with fewer cores than the paper's testbed had
    /// nodes, a client charging its op latency must not starve the
    /// collector/aggregator threads that would have run on other
    /// nodes. The final stretch busy-spins for sub-microsecond
    /// precision.
    pub fn charge(self) {
        match self {
            CostModel::Free => {}
            CostModel::SpinNs(ns) => spin_wait(ns),
            CostModel::WaitNs(ns) => {
                if ns >= SLEEP_GRANULARITY_NS {
                    std::thread::sleep(Duration::from_nanos(ns));
                } else {
                    spin_wait(ns);
                }
            }
        }
    }

    /// The modelled cost in nanoseconds.
    pub fn ns(self) -> u64 {
        match self {
            CostModel::Free => 0,
            CostModel::SpinNs(ns) | CostModel::WaitNs(ns) => ns,
        }
    }

    /// Scale the cost by a rational factor (used to derive per-testbed
    /// profiles from a reference cost).
    #[must_use]
    pub fn scaled(self, num: u64, den: u64) -> CostModel {
        match self {
            CostModel::Free => CostModel::Free,
            CostModel::SpinNs(ns) => CostModel::SpinNs(ns * num / den.max(1)),
            CostModel::WaitNs(ns) => CostModel::WaitNs(ns * num / den.max(1)),
        }
    }
}

/// Spin-yield until `ns` nanoseconds of wall clock have passed.
fn spin_wait(ns: u64) {
    let deadline = Instant::now() + Duration::from_nanos(ns);
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        if deadline - now > Duration::from_micros(5) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Render a simulated timestamp the way `lfs changelog` does:
/// `HH:MM:SS.nnnnnnnnn` plus a `YYYY.MM.DD` datestamp (Table I).
pub fn render_timestamp(ns: u64) -> (String, String) {
    let secs = ns / 1_000_000_000;
    let nanos = ns % 1_000_000_000;
    let (y, mo, d, h, mi, s) = civil_from_unix(secs as i64);
    (
        format!("{h:02}:{mi:02}:{s:02}.{nanos:09}"),
        format!("{y:04}.{mo:02}.{d:02}"),
    )
}

/// Convert Unix seconds to civil UTC date-time (Howard Hinnant's
/// days-from-civil algorithm, inverted).
fn civil_from_unix(secs: i64) -> (i64, u32, u32, u32, u32, u32) {
    let days = secs.div_euclid(86_400);
    let rem = secs.rem_euclid(86_400);
    let h = (rem / 3600) as u32;
    let mi = ((rem % 3600) / 60) as u32;
    let s = (rem % 60) as u32;

    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = if mo <= 2 { y + 1 } else { y };
    (y, mo, d, h, mi, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let c = SimClock::new(0);
        let a = c.advance(10);
        let b = c.advance(10);
        assert!(b > a);
        assert_eq!(c.now_ns(), 20);
    }

    #[test]
    fn zero_delta_still_produces_distinct_timestamps() {
        let c = SimClock::new(0);
        let a = c.advance(0);
        let b = c.advance(0);
        assert_ne!(a, b);
    }

    #[test]
    fn clock_is_thread_safe() {
        let c = std::sync::Arc::new(SimClock::new(0));
        let mut handles = vec![];
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                let mut stamps = Vec::with_capacity(1000);
                for _ in 0..1000 {
                    stamps.push(c.advance(1));
                }
                stamps
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "timestamps must be unique");
        assert_eq!(c.now_ns(), 4000);
    }

    #[test]
    fn spin_cost_takes_wall_time() {
        let start = Instant::now();
        CostModel::SpinNs(2_000_000).charge(); // 2ms
        assert!(start.elapsed() >= Duration::from_millis(2));
    }

    #[test]
    fn free_cost_is_free() {
        let start = Instant::now();
        for _ in 0..1000 {
            CostModel::Free.charge();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn scaling() {
        assert_eq!(
            CostModel::SpinNs(1000).scaled(3, 2),
            CostModel::SpinNs(1500)
        );
        assert_eq!(CostModel::Free.scaled(3, 2), CostModel::Free);
        assert_eq!(CostModel::SpinNs(100).ns(), 100);
        assert_eq!(
            CostModel::WaitNs(1000).scaled(3, 2),
            CostModel::WaitNs(1500)
        );
        assert_eq!(CostModel::WaitNs(100).ns(), 100);
    }

    #[test]
    fn wait_cost_takes_wall_time() {
        let start = Instant::now();
        CostModel::WaitNs(2_000_000).charge(); // 2ms: sleeps
        assert!(start.elapsed() >= Duration::from_millis(2));
        // 20µs: below granularity, spins. Best of a few: being
        // descheduled mid-spin (tests run in parallel) only ever adds.
        let paid = (0..5)
            .map(|_| {
                let start = Instant::now();
                CostModel::WaitNs(20_000).charge();
                start.elapsed()
            })
            .min()
            .expect("five samples");
        assert!(paid >= Duration::from_micros(20));
        // A sleep here would overshoot by the ~50µs timer slack; the
        // spin fallback keeps the overshoot small (bound is generous
        // for scheduling noise, but far below millisecond sleeps).
        assert!(paid < Duration::from_millis(1), "{paid:?}");
    }

    #[test]
    fn concurrent_waits_overlap() {
        // Four threads each waiting 5ms must finish together (the
        // point of WaitNs: blocked waiters burn no CPU), far sooner
        // than four serialized waits even on a single core.
        let start = Instant::now();
        let handles: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(|| CostModel::WaitNs(5_000_000).charge()))
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(15), "{elapsed:?}");
    }

    #[test]
    fn timestamp_rendering_matches_table1_epoch() {
        // Default epoch is 2019-03-08 22:27:47 UTC (Table I).
        let clock = SimClock::default();
        let (time, date) = render_timestamp(clock.now_ns());
        assert_eq!(date, "2019.03.08");
        assert!(time.starts_with("22:27:47."), "{time}");
    }

    #[test]
    fn civil_conversion_known_dates() {
        assert_eq!(civil_from_unix(0), (1970, 1, 1, 0, 0, 0));
        // 2000-02-29 (leap year) 12:34:56 UTC = 951827696
        assert_eq!(civil_from_unix(951_827_696), (2000, 2, 29, 12, 34, 56));
    }
}
