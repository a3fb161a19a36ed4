//! [`TimerWheel`] — deadline bookkeeping for the progression engine.
//!
//! The reliability layer needs retransmit timeouts and the API surface
//! needs deadline-bounded waits, but the stack is poll-driven: nothing
//! blocks per timer. This wheel is the poll-side half of that design —
//! callers [`schedule`](TimerWheel::schedule) a deadline with an
//! attached value, every progression pass asks
//! [`pop_due`](TimerWheel::pop_due) for the values whose deadline has
//! passed, and acts on them inline. Cancellation is O(log n) by
//! [`TimerId`]; the wheel never invokes callbacks, so no foreign code
//! runs under its lock.
//!
//! Time is a caller-supplied monotonic nanosecond count: `nm-core`
//! passes its drivers' clock, real or virtual, and unit tests pass
//! plain numbers, so the wheel itself reads no clock and is fully
//! deterministic.
//!
//! # Locking
//!
//! One spinlock classed `progress.timers` (see `docs/CONCURRENCY.md`).
//! It is a leaf lock: the wheel calls nothing while holding it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use nm_metrics::trace_event;
use nm_sync::SpinLock;

/// Handle to one scheduled deadline (for cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(u64);

struct WheelState<T> {
    /// Deadline-ordered entries, keyed (deadline, id) so equal deadlines
    /// coexist and fire in schedule order.
    entries: BTreeMap<(u64, u64), T>,
    next_id: u64,
}

/// A deadline → value map polled by the progression engine.
pub struct TimerWheel<T> {
    state: SpinLock<WheelState<T>>,
    /// Advisory entry count, maintained outside the lock so `len` /
    /// `is_empty` never acquire it (they are called from contexts that
    /// already hold other locks).
    pending: AtomicUsize,
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            state: SpinLock::with_class(
                "progress.timers",
                WheelState {
                    entries: BTreeMap::new(),
                    next_id: 1,
                },
            ),
            pending: AtomicUsize::new(0),
        }
    }

    /// Schedules `value` to come due at `deadline_ns`.
    pub fn schedule(&self, deadline_ns: u64, value: T) -> TimerId {
        let mut st = self.state.lock();
        let id = st.next_id;
        st.next_id += 1;
        st.entries.insert((deadline_ns, id), value);
        drop(st);
        // relaxed: advisory count; the map under the lock is the source
        // of truth.
        self.pending.fetch_add(1, Ordering::Relaxed);
        TimerId(id)
    }

    /// Cancels a scheduled deadline; returns its value if it had not yet
    /// been popped.
    pub fn cancel(&self, id: TimerId) -> Option<T> {
        let mut st = self.state.lock();
        let key = st.entries.keys().find(|(_, eid)| *eid == id.0).copied()?;
        let value = st.entries.remove(&key);
        drop(st);
        if value.is_some() {
            // relaxed: advisory count; the map under the lock is the
            // source of truth.
            self.pending.fetch_sub(1, Ordering::Relaxed);
        }
        value
    }

    /// Removes and returns every value whose deadline is `<= now_ns`,
    /// earliest first.
    pub fn pop_due(&self, now_ns: u64) -> Vec<T> {
        let mut st = self.state.lock();
        // Nothing due is the common answer (an armed deadline is polled
        // every progression pass until it fires): give it without
        // `split_off`, which allocates a node even when it moves
        // nothing.
        if st
            .entries
            .first_key_value()
            .is_none_or(|(&(deadline, _), _)| deadline > now_ns)
        {
            return Vec::new();
        }
        // split_off keeps entries strictly after `now`; u64::MAX as the
        // id bound makes the cut inclusive of deadlines equal to `now`.
        let later = st.entries.split_off(&(now_ns, u64::MAX));
        let due = std::mem::replace(&mut st.entries, later);
        drop(st);
        let fired: Vec<T> = due.into_values().collect();
        if !fired.is_empty() {
            // relaxed: advisory count; the map under the lock is the
            // source of truth.
            self.pending.fetch_sub(fired.len(), Ordering::Relaxed);
            trace_event!(TimerFire, fired.len(), self.len());
        }
        fired
    }

    /// Earliest scheduled deadline, if any (for idle-sleep sizing).
    pub fn next_deadline(&self) -> Option<u64> {
        self.state
            .lock()
            .entries
            .keys()
            .next()
            .map(|(deadline, _)| *deadline)
    }

    /// Number of pending deadlines (advisory snapshot; lock-free).
    pub fn len(&self) -> usize {
        // relaxed: advisory snapshot only; no ordering with map contents.
        self.pending.load(Ordering::Relaxed)
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_deadline_order() {
        let w = TimerWheel::new();
        w.schedule(30, "c");
        w.schedule(10, "a");
        w.schedule(20, "b");
        assert_eq!(w.next_deadline(), Some(10));
        assert_eq!(w.pop_due(25), vec!["a", "b"]);
        assert_eq!(w.pop_due(25), Vec::<&str>::new());
        assert_eq!(w.pop_due(30), vec!["c"], "deadline is inclusive");
        assert!(w.is_empty());
    }

    #[test]
    fn equal_deadlines_fire_in_schedule_order() {
        let w = TimerWheel::new();
        w.schedule(5, 1u32);
        w.schedule(5, 2u32);
        w.schedule(5, 3u32);
        assert_eq!(w.pop_due(5), vec![1, 2, 3]);
    }

    #[test]
    fn cancel_removes_exactly_one() {
        let w = TimerWheel::new();
        let a = w.schedule(10, "a");
        let _b = w.schedule(10, "b");
        assert_eq!(w.cancel(a), Some("a"));
        assert_eq!(w.cancel(a), None, "cancel is one-shot");
        assert_eq!(w.pop_due(10), vec!["b"]);
    }

    #[test]
    fn cancel_after_pop_is_none() {
        let w = TimerWheel::new();
        let a = w.schedule(1, ());
        assert_eq!(w.pop_due(1).len(), 1);
        assert_eq!(w.cancel(a), None);
    }

    #[test]
    fn next_deadline_tracks_the_minimum() {
        let w = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        let early = w.schedule(7, ());
        w.schedule(9, ());
        assert_eq!(w.next_deadline(), Some(7));
        w.cancel(early);
        assert_eq!(w.next_deadline(), Some(9));
    }

    #[test]
    fn concurrent_schedule_and_pop_lose_nothing() {
        use std::sync::Arc;
        let w = Arc::new(TimerWheel::new());
        let producers: Vec<_> = (0..4)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..1_000u64 {
                        w.schedule(i, t * 1_000 + i);
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut got = w.pop_due(u64::MAX);
        got.sort_unstable();
        let mut expect: Vec<u64> = (0..4)
            .flat_map(|t| (0..1_000).map(move |i| t * 1_000 + i))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}
