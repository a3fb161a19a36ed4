//! Counting semaphore with strategy-driven acquisition.
//!
//! The paper's passive waiting (§3.3) blocks threads on semaphores whose
//! blocking path has been instrumented so the progression engine keeps
//! polling the network while the thread sleeps. This semaphore exposes the
//! hook the engine needs: [`Semaphore::acquire_with_poll`] takes a
//! [`WaitStrategy`] and a poll callback that runs during the spin phase.

use std::time::{Duration, Instant};

use crate::sync_shim::{Condvar, Mutex};

use crate::{Backoff, WaitStrategy};

/// A counting semaphore.
///
/// The permit count lives under a mutex and blocking uses a condition
/// variable — the blocking path is exactly where the ~750 ns context switch
/// of Fig 7 comes from. The spin phases of [`WaitStrategy::Busy`] and
/// [`WaitStrategy::FixedSpin`] avoid that path whenever the permit arrives
/// within the spin window, and a release with no acquirer blocked makes no
/// `notify` call (no futex wake).
pub struct Semaphore {
    state: Mutex<State>,
    cond: Condvar,
}

/// What the semaphore's mutex guards.
struct State {
    permits: isize,
    /// Acquirers parked (or about to park) on `cond`.
    blocked: usize,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: isize) -> Self {
        Semaphore {
            state: Mutex::new(State {
                permits,
                blocked: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> isize {
        self.state.lock().permits
    }

    /// Releases one permit, waking a blocked acquirer if any.
    pub fn release(&self) {
        self.release_n(1);
    }

    /// Releases `n` permits at once.
    pub fn release_n(&self, n: usize) {
        let mut state = self.state.lock();
        state.permits += n as isize;
        // Notify while holding the lock, and only if someone is blocked:
        // an acquirer counts itself in `blocked` under this lock before it
        // waits, so one between its predicate check and `wait` is counted
        // and cannot miss this wakeup.
        if state.blocked == 0 {
            return;
        }
        if n == 1 {
            self.cond.notify_one();
        } else {
            self.cond.notify_all();
        }
    }

    /// Attempts to take one permit without blocking.
    pub fn try_acquire(&self) -> bool {
        let mut state = self.state.lock();
        if state.permits > 0 {
            state.permits -= 1;
            true
        } else {
            false
        }
    }

    /// Blocks until a permit is available (pure passive wait).
    pub fn acquire(&self) {
        self.acquire_with(WaitStrategy::Passive);
    }

    /// Acquires one permit using the given waiting strategy.
    pub fn acquire_with(&self, strategy: WaitStrategy) {
        self.acquire_with_poll(strategy, || {});
    }

    /// Acquires one permit, invoking `poll` on every spin iteration.
    ///
    /// `poll` is the integration point for the progression engine: a busy
    /// or fixed-spin waiter drives network progression itself while it
    /// spins; a passive waiter relies on someone else (the engine's
    /// progression thread or scheduler hooks) to poll and [`release`].
    ///
    /// [`release`]: Semaphore::release
    pub fn acquire_with_poll(&self, strategy: WaitStrategy, mut poll: impl FnMut()) {
        match strategy.spin_budget() {
            // Busy: spin forever, never block.
            None => {
                let mut backoff = Backoff::new();
                loop {
                    if self.try_acquire() {
                        return;
                    }
                    poll();
                    backoff.spin();
                }
            }
            // Fixed spin: poll until the window expires, then block.
            Some(budget) if !budget.is_zero() => {
                let deadline = Instant::now() + budget;
                loop {
                    if self.try_acquire() {
                        return;
                    }
                    poll();
                    std::hint::spin_loop();
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                self.acquire_blocking();
            }
            // Passive: block immediately.
            _ => self.acquire_blocking(),
        }
    }

    /// Acquires with a timeout; `true` on success.
    pub fn acquire_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock();
        if state.permits <= 0 {
            state.blocked += 1;
            while state.permits <= 0 {
                // A permit that arrives exactly as we time out is still
                // taken: a timeout counts only if no permit is there.
                if self.cond.wait_until(&mut state, deadline).timed_out() && state.permits <= 0 {
                    state.blocked -= 1;
                    return false;
                }
            }
            state.blocked -= 1;
        }
        state.permits -= 1;
        true
    }

    fn acquire_blocking(&self) {
        let mut state = self.state.lock();
        if state.permits <= 0 {
            // The ThreadBlock→ThreadWake span around an actual condvar
            // sleep is the paper's ~750 ns blocking context switch.
            nm_metrics::trace_event!(ThreadBlock);
            state.blocked += 1;
            while state.permits <= 0 {
                self.cond.wait(&mut state);
            }
            state.blocked -= 1;
            nm_metrics::trace_event!(ThreadWake);
        }
        state.permits -= 1;
    }
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Semaphore")
            .field("available", &self.available())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn try_acquire_respects_count() {
        let s = Semaphore::new(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    fn release_wakes_passive_acquirer() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || {
            s2.acquire_with(WaitStrategy::Passive);
            7
        });
        thread::sleep(Duration::from_millis(50));
        s.release();
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn one_release_unblocks_exactly_one_of_two_waiters() {
        // Regression guard for the classic "global predicate" bug: with two
        // queued waiters, one release must let exactly one through.
        let s = Arc::new(Semaphore::new(0));
        let done = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                let done = Arc::clone(&done);
                thread::spawn(move || {
                    s.acquire();
                    done.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        thread::sleep(Duration::from_millis(50));
        s.release();
        thread::sleep(Duration::from_millis(100));
        assert_eq!(done.load(Ordering::SeqCst), 1);
        s.release();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn fixed_spin_acquires_without_blocking_when_fast() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || {
            // Released almost immediately; a 50 ms window means the waiter
            // stays in its spin phase.
            s2.acquire_with(WaitStrategy::FixedSpin(Duration::from_millis(50)));
        });
        thread::sleep(Duration::from_millis(2));
        s.release();
        h.join().unwrap();
    }

    #[test]
    fn fixed_spin_falls_back_to_blocking() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || {
            s2.acquire_with(WaitStrategy::FixedSpin(Duration::from_micros(50)));
        });
        // Release long after the spin window expired.
        thread::sleep(Duration::from_millis(100));
        s.release();
        h.join().unwrap();
    }

    #[test]
    fn busy_acquire_invokes_poll_callback() {
        let s = Arc::new(Semaphore::new(0));
        let polls = Arc::new(AtomicUsize::new(0));
        let (s2, p2) = (Arc::clone(&s), Arc::clone(&polls));
        let h = thread::spawn(move || {
            s2.acquire_with_poll(WaitStrategy::Busy, || {
                p2.fetch_add(1, Ordering::Relaxed);
            });
        });
        thread::sleep(Duration::from_millis(20));
        s.release();
        h.join().unwrap();
        assert!(polls.load(Ordering::Relaxed) > 0, "poll callback never ran");
    }

    #[test]
    fn acquire_timeout_expires() {
        let s = Semaphore::new(0);
        let t0 = Instant::now();
        assert!(!s.acquire_timeout(Duration::from_millis(30)));
        assert!(t0.elapsed() >= Duration::from_millis(25));
        // The failed wait must not corrupt the permit count.
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    fn acquire_timeout_succeeds_when_released() {
        let s = Arc::new(Semaphore::new(0));
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || s2.acquire_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        s.release();
        assert!(h.join().unwrap());
    }

    #[test]
    fn release_n_wakes_multiple_waiters() {
        let s = Arc::new(Semaphore::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let s = Arc::clone(&s);
                thread::spawn(move || s.acquire())
            })
            .collect();
        thread::sleep(Duration::from_millis(50));
        s.release_n(3);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn many_producers_many_consumers() {
        const N: usize = 2000;
        let s = Arc::new(Semaphore::new(0));
        let consumed = Arc::new(AtomicUsize::new(0));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                let consumed = Arc::clone(&consumed);
                thread::spawn(move || {
                    for _ in 0..N / 4 {
                        s.acquire();
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                thread::spawn(move || {
                    for _ in 0..N / 4 {
                        s.release();
                    }
                })
            })
            .collect();
        for h in producers.into_iter().chain(consumers) {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(Ordering::Relaxed), N);
        assert_eq!(s.available(), 0);
    }
}
