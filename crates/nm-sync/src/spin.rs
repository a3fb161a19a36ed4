//! Test-and-test-and-set spinlocks.
//!
//! The paper keeps the critical sections of the communication library to "a
//! few microseconds at most" and therefore protects them with spinlocks
//! rather than blocking mutexes (§3.1): if the lock is taken, the acquiring
//! thread waits actively, avoiding a context switch that would cost more
//! than the whole critical section.

use crate::sync_shim::atomic::{AtomicBool, Ordering};
use std::cell::UnsafeCell;
use std::fmt;
use std::ops::{Deref, DerefMut};

use crate::Backoff;
use nm_metrics::LockStats;

/// Reads of a held lock word, one pause apart, before a contended
/// acquire falls back to [`Backoff::snooze`]: about 2 µs at ≈ 17 ns per
/// pause, the "few microseconds at most" the paper allows a section.
const FLAT_SPIN_READS: u32 = 128;

/// A raw spinlock: just the lock word, no protected data.
///
/// `nm-core` uses raw spinlocks to guard data structures whose ownership
/// pattern does not fit the `Mutex<T>` model (e.g. the per-list locks of the
/// fine-grain mode, where the lists live in a layer-owned arena and the lock
/// taken depends on the configured [locking mode]).
///
/// [locking mode]: ../nm_core/enum.LockingMode.html
pub struct RawSpin {
    locked: AtomicBool,
    stats: LockStats,
    /// Lock-order class for `lockcheck` (None = untracked).
    class: Option<&'static str>,
    /// `true` for multi-instance classes: many distinct locks share the
    /// class name, so same-class nesting is legitimate (see
    /// [`crate::lockcheck::acquired_shared`]).
    shared_class: bool,
}

impl RawSpin {
    /// Creates an unlocked raw spinlock.
    pub const fn new() -> Self {
        RawSpin {
            locked: AtomicBool::new(false),
            stats: LockStats::new(),
            class: None,
            shared_class: false,
        }
    }

    /// Creates an unlocked raw spinlock tagged with a lock-order class.
    ///
    /// With the `lockcheck` feature enabled, every acquisition is recorded
    /// in the global lock-order graph under this class and validated
    /// against inversions (see [`crate::lockcheck`]). Without the feature
    /// the class is inert.
    pub const fn with_class(class: &'static str) -> Self {
        RawSpin {
            locked: AtomicBool::new(false),
            stats: LockStats::new(),
            class: Some(class),
            shared_class: false,
        }
    }

    /// Like [`RawSpin::with_class`], but the class is *shared* by many
    /// distinct lock instances (e.g. the `core.*.overflow` pools for gate
    /// indices beyond the static class tables): holding two locks of the
    /// class at once is allowed, while ordering against other classes is
    /// still validated.
    pub const fn with_shared_class(class: &'static str) -> Self {
        RawSpin {
            locked: AtomicBool::new(false),
            stats: LockStats::new(),
            class: Some(class),
            shared_class: true,
        }
    }

    /// The lock-order class, if one was assigned.
    pub fn class(&self) -> Option<&'static str> {
        self.class
    }

    /// Stable id for trace events: the lock word's address.
    #[inline]
    fn lock_id(&self) -> usize {
        &self.locked as *const _ as usize
    }

    /// Acquires the lock, spinning while contended: flat at first, then
    /// with exponential backoff and yields.
    #[inline]
    pub fn lock(&self) {
        // Fast path: a single CAS, matching the cost model of the paper's
        // "each acquire/release cycle costs 70 ns".
        // relaxed: CAS failure publishes nothing; we retry or spin.
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            self.stats.record_acquire(false);
            self.note_acquired();
            nm_metrics::trace_event!(LockAcquire, self.lock_id(), 0u64);
            return;
        }
        self.lock_contended();
    }

    /// Reports the acquisition to the lock-order validator (no-op unless
    /// the `lockcheck` feature is on and this lock has a class).
    #[inline]
    fn note_acquired(&self) {
        if let Some(class) = self.class {
            if self.shared_class {
                crate::lockcheck::acquired_shared(class);
            } else {
                crate::lockcheck::acquired(class);
            }
        }
    }

    #[inline]
    fn note_released(&self) {
        if let Some(class) = self.class {
            crate::lockcheck::released(class);
        }
    }

    #[cold]
    fn lock_contended(&self) {
        // Timestamping only happens here, on the contended slow path; the
        // fast path above stays a bare CAS plus counter bump.
        let start = std::time::Instant::now();
        let mut reads = 0;
        let mut backoff = Backoff::new();
        loop {
            // Test-and-test-and-set: spin on a plain load so that waiting
            // cores only hit their local cache line until it is invalidated.
            // The first `FLAT_SPIN_READS` reads are one pause apart, so a
            // release after a short section is seen within one pause;
            // after that `snooze` keeps this an active wait but backs off
            // and then yields to the OS, so a preempted lock holder can
            // run (essential on machines with fewer cores than threads).
            // relaxed: speculative peek; the CAS below is the Acquire.
            while self.locked.load(Ordering::Relaxed) {
                if reads < FLAT_SPIN_READS {
                    reads += 1;
                    std::hint::spin_loop();
                } else {
                    backoff.snooze();
                }
            }
            // relaxed: CAS failure publishes nothing; we go back to spinning.
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                crate::stats::lock_wait_hist().record(start.elapsed().as_nanos() as u64);
                self.stats.record_acquire(true);
                self.note_acquired();
                nm_metrics::trace_event!(LockAcquire, self.lock_id(), 1u64);
                return;
            }
        }
    }

    /// Attempts to acquire the lock without spinning.
    #[inline]
    pub fn try_lock(&self) -> bool {
        // relaxed: CAS failure publishes nothing; caller just gets `false`.
        let ok = self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok();
        if ok {
            self.stats.record_acquire(false);
            self.note_acquired();
            nm_metrics::trace_event!(LockAcquire, self.lock_id(), 0u64);
        }
        ok
    }

    /// Releases the lock.
    ///
    /// Callers must hold the lock; releasing an unheld `RawSpin` is a logic
    /// error (it is detected and panics in debug builds).
    #[inline]
    pub fn unlock(&self) {
        debug_assert!(
            // relaxed: diagnostic only; the caller already holds the lock.
            self.locked.load(Ordering::Relaxed),
            "RawSpin::unlock called on an unlocked lock"
        );
        self.note_released();
        nm_metrics::trace_event!(LockRelease, self.lock_id());
        self.locked.store(false, Ordering::Release);
    }

    /// `true` if the lock is currently held by some thread.
    #[inline]
    pub fn is_locked(&self) -> bool {
        // relaxed: advisory snapshot; callers must not infer ownership.
        self.locked.load(Ordering::Relaxed)
    }

    /// Acquisition/contention counters for this lock.
    pub fn stats(&self) -> &LockStats {
        &self.stats
    }

    /// Runs `f` with the lock held.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce() -> R) -> R {
        self.lock();
        // Any panic in `f` leaves the lock held; since RawSpin guards
        // library-internal invariants that are broken mid-panic anyway,
        // we deliberately do not implement unlock-on-unwind here. The
        // typed `SpinLock` below does, via its RAII guard.
        let r = f();
        self.unlock();
        r
    }
}

impl Default for RawSpin {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for RawSpin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RawSpin")
            .field("locked", &self.is_locked())
            .finish()
    }
}

/// A test-and-test-and-set spinlock protecting a value of type `T`.
///
/// Equivalent in role to the "library-wide lock" of the paper's coarse-grain
/// mode (Fig 2): very cheap to take when uncontended, fully serializing when
/// several threads communicate.
pub struct SpinLock<T: ?Sized> {
    raw: RawSpin,
    value: UnsafeCell<T>,
}

// SAFETY: SpinLock provides mutual exclusion; T must be Send for the lock
// to be shared (same bounds as std::sync::Mutex).
unsafe impl<T: ?Sized + Send> Send for SpinLock<T> {}
// SAFETY: as above — guarded access only, so &SpinLock is shareable.
unsafe impl<T: ?Sized + Send> Sync for SpinLock<T> {}

impl<T> SpinLock<T> {
    /// Creates a new spinlock protecting `value`.
    pub const fn new(value: T) -> Self {
        SpinLock {
            raw: RawSpin::new(),
            value: UnsafeCell::new(value),
        }
    }

    /// Creates a new spinlock tagged with a lock-order class for the
    /// `lockcheck` validator (see [`RawSpin::with_class`]).
    pub const fn with_class(class: &'static str, value: T) -> Self {
        SpinLock {
            raw: RawSpin::with_class(class),
            value: UnsafeCell::new(value),
        }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.value.into_inner()
    }
}

impl<T: ?Sized> SpinLock<T> {
    /// Acquires the lock, returning an RAII guard.
    #[inline]
    pub fn lock(&self) -> SpinGuard<'_, T> {
        self.raw.lock();
        SpinGuard { lock: self }
    }

    /// Attempts to acquire the lock without spinning.
    #[inline]
    pub fn try_lock(&self) -> Option<SpinGuard<'_, T>> {
        if self.raw.try_lock() {
            Some(SpinGuard { lock: self })
        } else {
            None
        }
    }

    /// `true` if the lock is currently held.
    pub fn is_locked(&self) -> bool {
        self.raw.is_locked()
    }

    /// Acquisition/contention counters for this lock.
    pub fn stats(&self) -> &LockStats {
        self.raw.stats()
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.value.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for SpinLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("SpinLock").field("value", &&*g).finish(),
            None => f.write_str("SpinLock { <locked> }"),
        }
    }
}

impl<T: Default> Default for SpinLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

/// RAII guard for [`SpinLock`]; releases the lock on drop.
pub struct SpinGuard<'a, T: ?Sized> {
    lock: &'a SpinLock<T>,
}

impl<T: ?Sized> Deref for SpinGuard<'_, T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: the guard proves the lock is held by this thread.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard proves exclusive access.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T: ?Sized> Drop for SpinGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        self.lock.raw.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn uncontended_lock_unlock() {
        let l = SpinLock::new(41);
        {
            let mut g = l.lock();
            *g += 1;
        }
        assert_eq!(*l.lock(), 42);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let l = SpinLock::new(());
        let g = l.lock();
        assert!(l.try_lock().is_none());
        drop(g);
        assert!(l.try_lock().is_some());
    }

    #[test]
    fn counter_under_contention() {
        const THREADS: usize = 8;
        const ITERS: usize = 10_000;
        let l = Arc::new(SpinLock::new(0u64));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let l = Arc::clone(&l);
                thread::spawn(move || {
                    for _ in 0..ITERS {
                        *l.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*l.lock(), (THREADS * ITERS) as u64);
    }

    #[test]
    fn raw_spin_with_runs_closure_exclusively() {
        let raw = Arc::new(RawSpin::new());
        let shared = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let raw = Arc::clone(&raw);
                let shared = Arc::clone(&shared);
                thread::spawn(move || {
                    for _ in 0..1000 {
                        raw.with(|| {
                            // Non-atomic-looking read-modify-write made of two
                            // atomic ops; only mutual exclusion keeps it exact.
                            let v = shared.load(Ordering::Relaxed);
                            shared.store(v + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn stats_count_acquisitions() {
        let l = SpinLock::new(());
        for _ in 0..5 {
            drop(l.lock());
        }
        assert_eq!(l.stats().acquisitions(), 5);
    }

    #[test]
    fn guard_releases_on_panic() {
        let l = Arc::new(SpinLock::new(0));
        let l2 = Arc::clone(&l);
        let res = thread::spawn(move || {
            let _g = l2.lock();
            panic!("poisoned on purpose");
        })
        .join();
        assert!(res.is_err());
        // The guard's Drop ran during unwinding, so the lock is free again.
        assert!(!l.is_locked());
        assert_eq!(*l.lock(), 0);
    }

    #[test]
    fn into_inner_returns_value() {
        let l = SpinLock::new(String::from("payload"));
        assert_eq!(l.into_inner(), "payload");
    }
}
