//! An arrival signal several SUB sockets can share.
//!
//! A SUB socket's own queue can block one reader on one socket. A
//! consumer that reads K sockets (one per aggregator shard) needs to
//! sleep until *any* of them has a message, so the sockets bump one
//! shared [`ArrivalSignal`] after they enqueue and the consumer waits
//! on that.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[derive(Default)]
struct State {
    /// Arrivals so far.
    epoch: u64,
    /// Threads blocked in [`ArrivalSignal::wait_past`].
    waiters: usize,
}

/// A count of arrivals that a reader can sleep on.
///
/// The reader's loop is: read [`epoch`](ArrivalSignal::epoch), sweep
/// its sockets without blocking, and if they were all empty,
/// [`wait_past`](ArrivalSignal::wait_past) the epoch it read. A message
/// enqueued after the sweep looked at its socket has bumped the count
/// past that epoch, so the wait returns at once instead of sleeping
/// through it.
#[derive(Default)]
pub struct ArrivalSignal {
    state: Mutex<State>,
    arrived: Condvar,
}

impl ArrivalSignal {
    /// A signal that has seen no arrival.
    pub fn new() -> ArrivalSignal {
        ArrivalSignal::default()
    }

    /// Both fields are plain counters, valid after any panic.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arrivals so far.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Count one arrival. Wakes the readers blocked in
    /// [`wait_past`](ArrivalSignal::wait_past); with none blocked this
    /// is an uncontended lock and no system call.
    pub fn bump(&self) {
        let mut state = self.lock();
        state.epoch += 1;
        let wake = state.waiters > 0;
        drop(state);
        if wake {
            self.arrived.notify_all();
        }
    }

    /// Block until the arrival count exceeds `seen` or `timeout`
    /// elapses; returns whether it does.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if state.epoch > seen {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            state.waiters += 1;
            state = self
                .arrived
                .wait_timeout(state, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            state.waiters -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn an_arrival_after_the_epoch_was_read_ends_the_wait_at_once() {
        let signal = ArrivalSignal::new();
        let seen = signal.epoch();
        signal.bump();
        // An hour-long budget: only the count can end this wait.
        assert!(signal.wait_past(seen, Duration::from_secs(3600)));
        assert!(!signal.wait_past(signal.epoch(), Duration::from_millis(2)));
    }

    #[test]
    fn bump_wakes_a_blocked_reader() {
        let signal = Arc::new(ArrivalSignal::new());
        let reader = {
            let signal = signal.clone();
            std::thread::spawn(move || signal.wait_past(0, Duration::from_secs(3600)))
        };
        while signal.lock().waiters == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        signal.bump();
        assert!(reader.join().unwrap());
    }
}
