//! One-shot completion flags.
//!
//! Every communication request in `nm-core` (send, receive, rendezvous
//! handshake) completes through a [`CompletionFlag`]. The flag is where the
//! waiting-strategy study of §3.3 becomes concrete: `wait` takes a
//! [`WaitStrategy`] and an optional poll callback so that a busy waiter can
//! drive network progression itself, while a passive waiter blocks and lets
//! the progression engine signal it.

use crate::sync_shim::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use crate::sync_shim::{Condvar, Mutex};

use crate::WaitStrategy;

/// `state` bits. `SET`: the flag was signalled. `WAITING`: a thread has
/// parked, or is about to park, on `cond` since the last `reset`.
const SET: u32 = 1;
const WAITING: u32 = 2;

/// A one-shot event flag with strategy-driven waiting.
///
/// Can be [`reset`](CompletionFlag::reset) for reuse so a pingpong loop
/// does not allocate a fresh flag per iteration.
///
/// Signalling a flag nobody sleeps on is one atomic RMW: the mutex and the
/// condvar are touched only once a blocking waiter has announced itself
/// with the `WAITING` bit. A waiter sets that bit with `fetch_or` while
/// holding the mutex, a signaller sets `SET` with `fetch_or`; both RMW the
/// one atomic, so either the signaller sees `WAITING` (and notifies after
/// taking the mutex, which the waiter gives up only inside `cond.wait`)
/// or the waiter sees `SET` and never parks. No wake-up can be lost.
pub struct CompletionFlag {
    state: AtomicU32,
    lock: Mutex<()>,
    cond: Condvar,
}

impl CompletionFlag {
    /// Creates a flag in the pending state.
    pub fn new() -> Self {
        CompletionFlag {
            state: AtomicU32::new(0),
            lock: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    /// `true` once [`signal`](CompletionFlag::signal) has been called.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.state.load(Ordering::Acquire) & SET != 0
    }

    /// Sets the flag and wakes all waiters.
    ///
    /// Establishes a happens-before edge: everything written before
    /// `signal` is visible to a thread that observed `is_set()`. With no
    /// blocked waiter this takes no lock and makes no `notify` call.
    pub fn signal(&self) {
        let prev = self.state.fetch_or(SET, Ordering::AcqRel);
        nm_metrics::trace_event!(FlagSignal);
        if prev & WAITING != 0 {
            // A waiter set `WAITING` under the mutex and holds it until
            // `cond.wait` releases it, so once we hold the mutex it is
            // parked (or gone) and this notify reaches it.
            let _g = self.lock.lock();
            self.cond.notify_all();
        }
    }

    /// Returns the flag to the pending state, clearing `WAITING` too.
    ///
    /// Only sound once all waiters of the previous completion have
    /// returned; `nm-core` reuses flags strictly iteration-by-iteration.
    pub fn reset(&self) {
        self.state.store(0, Ordering::Release);
    }

    /// Waits for the flag with the given strategy.
    pub fn wait(&self, strategy: WaitStrategy) {
        self.wait_with_poll(strategy, || {});
    }

    /// Waits for the flag, calling `poll` on every spin iteration.
    ///
    /// With [`WaitStrategy::Busy`] this is the paper's classic busy wait:
    /// the calling thread polls the network (via `poll`) until the request
    /// completes, checking the flag after every poll and one
    /// `spin_loop` — no backoff, so a completion signalled by another
    /// core is seen within one pause of landing (an exponential backoff
    /// to 64 pauses could notice it a microsecond late). With [`WaitStrategy::FixedSpin`] the thread polls for the
    /// window and then blocks; with [`WaitStrategy::Passive`] it blocks
    /// immediately and `poll` is never called.
    pub fn wait_with_poll(&self, strategy: WaitStrategy, mut poll: impl FnMut()) {
        if self.is_set() {
            return;
        }
        match strategy.spin_budget() {
            None => loop {
                poll();
                if self.is_set() {
                    nm_metrics::trace_event!(WaitSpun, 0u64);
                    return;
                }
                std::hint::spin_loop();
            },
            Some(budget) if !budget.is_zero() => {
                let deadline = Instant::now() + budget;
                loop {
                    poll();
                    if self.is_set() {
                        nm_metrics::trace_event!(WaitSpun, 1u64);
                        return;
                    }
                    std::hint::spin_loop();
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                nm_metrics::trace_event!(WaitBlocked, 1u64);
                self.block();
            }
            _ => {
                nm_metrics::trace_event!(WaitBlocked, 2u64);
                self.block();
            }
        }
    }

    /// Waits with a deadline; `true` if the flag was set in time.
    ///
    /// Spin-phase polling still runs for busy/fixed-spin strategies.
    pub fn wait_timeout(&self, strategy: WaitStrategy, timeout: Duration) -> bool {
        if self.is_set() {
            return true;
        }
        let deadline = Instant::now() + timeout;
        match strategy.spin_budget() {
            None => {
                while !self.is_set() {
                    if Instant::now() >= deadline {
                        return self.is_set();
                    }
                    std::hint::spin_loop();
                }
                true
            }
            Some(budget) => {
                let spin_deadline = Instant::now() + budget;
                while Instant::now() < spin_deadline {
                    if self.is_set() {
                        return true;
                    }
                    std::hint::spin_loop();
                }
                self.block_until(deadline)
            }
        }
    }

    /// Announces a blocking waiter: sets `WAITING` with the mutex held
    /// and reports whether that same RMW found the flag already `SET`.
    /// A signal's `fetch_or` is ordered before or after this one; if
    /// after, it sees `WAITING` and notifies under the mutex.
    fn announce_waiter(&self) -> bool {
        self.state.fetch_or(WAITING, Ordering::AcqRel) & SET != 0
    }

    fn block(&self) {
        let mut guard = self.lock.lock();
        if self.announce_waiter() {
            return;
        }
        nm_metrics::trace_event!(ThreadBlock);
        while !self.is_set() {
            self.cond.wait(&mut guard);
        }
        nm_metrics::trace_event!(ThreadWake);
    }

    fn block_until(&self, deadline: Instant) -> bool {
        let mut guard = self.lock.lock();
        if self.announce_waiter() {
            return true;
        }
        nm_metrics::trace_event!(ThreadBlock);
        while !self.is_set() {
            if self.cond.wait_until(&mut guard, deadline).timed_out() {
                return self.is_set();
            }
        }
        nm_metrics::trace_event!(ThreadWake);
        true
    }
}

impl Default for CompletionFlag {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CompletionFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompletionFlag")
            .field("set", &self.is_set())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn signal_then_wait_returns_immediately() {
        let f = CompletionFlag::new();
        f.signal();
        f.wait(WaitStrategy::Passive);
        f.wait(WaitStrategy::Busy);
        assert!(f.is_set());
    }

    #[test]
    fn signal_without_a_waiter_takes_no_lock() {
        // Another thread holds the flag's mutex for up to 10 s. A signal
        // nobody sleeps on must not queue behind it: it returns, and the
        // flag reads set, while the mutex is still held.
        let f = Arc::new(CompletionFlag::new());
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let f2 = Arc::clone(&f);
        let holder = thread::spawn(move || {
            let _g = f2.lock.lock();
            held_tx.send(()).unwrap();
            done_rx.recv_timeout(Duration::from_secs(10)).is_ok()
        });
        held_rx.recv().unwrap();
        f.signal();
        assert!(f.is_set());
        let _ = done_tx.send(());
        assert!(
            holder.join().unwrap(),
            "signal waited for the mutex although no thread was parked"
        );
        // A waiter arriving afterwards returns at once.
        f.wait(WaitStrategy::Passive);
    }

    #[test]
    fn passive_wait_blocks_until_signal() {
        let f = Arc::new(CompletionFlag::new());
        let f2 = Arc::clone(&f);
        let h = thread::spawn(move || {
            f2.wait(WaitStrategy::Passive);
            99
        });
        thread::sleep(Duration::from_millis(30));
        assert!(!f.is_set());
        f.signal();
        assert_eq!(h.join().unwrap(), 99);
    }

    #[test]
    fn busy_wait_polls() {
        let f = Arc::new(CompletionFlag::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let (f2, p2) = (Arc::clone(&f), Arc::clone(&polls));
        let h = thread::spawn(move || {
            f2.wait_with_poll(WaitStrategy::Busy, || {
                p2.fetch_add(1, Ordering::Relaxed);
            });
        });
        thread::sleep(Duration::from_millis(20));
        f.signal();
        h.join().unwrap();
        assert!(polls.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn poll_callback_may_itself_signal() {
        // Models busy waiting in nm-core: the waiter's own polling completes
        // the request it is waiting on.
        let f = Arc::new(CompletionFlag::new());
        let f2 = Arc::clone(&f);
        let mut count = 0;
        f.wait_with_poll(WaitStrategy::Busy, move || {
            count += 1;
            if count == 10 {
                f2.signal();
            }
        });
        assert!(f.is_set());
    }

    #[test]
    fn fixed_spin_blocks_after_window() {
        let f = Arc::new(CompletionFlag::new());
        let f2 = Arc::clone(&f);
        let h = thread::spawn(move || {
            f2.wait(WaitStrategy::FixedSpin(Duration::from_micros(100)));
        });
        thread::sleep(Duration::from_millis(80));
        f.signal();
        h.join().unwrap();
    }

    #[test]
    fn wait_timeout_expires() {
        let f = CompletionFlag::new();
        assert!(!f.wait_timeout(WaitStrategy::Passive, Duration::from_millis(20)));
        assert!(!f.wait_timeout(
            WaitStrategy::FixedSpin(Duration::from_micros(10)),
            Duration::from_millis(20)
        ));
        f.signal();
        assert!(f.wait_timeout(WaitStrategy::Passive, Duration::from_millis(1)));
    }

    #[test]
    fn busy_wait_timeout_expires() {
        let f = CompletionFlag::new();
        let t0 = Instant::now();
        assert!(!f.wait_timeout(WaitStrategy::Busy, Duration::from_millis(10)));
        assert!(t0.elapsed() >= Duration::from_millis(9));
    }

    #[test]
    fn reset_allows_reuse() {
        let f = Arc::new(CompletionFlag::new());
        for _ in 0..3 {
            let f2 = Arc::clone(&f);
            let h = thread::spawn(move || f2.wait(WaitStrategy::Passive));
            thread::sleep(Duration::from_millis(10));
            f.signal();
            h.join().unwrap();
            f.reset();
            assert!(!f.is_set());
        }
    }

    #[test]
    fn many_waiters_all_wake() {
        let f = Arc::new(CompletionFlag::new());
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let f = Arc::clone(&f);
                thread::spawn(move || {
                    let strat = if i % 2 == 0 {
                        WaitStrategy::Passive
                    } else {
                        WaitStrategy::fixed_spin_default()
                    };
                    f.wait(strat);
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(30));
        f.signal();
        for h in handles {
            h.join().unwrap();
        }
    }
}
