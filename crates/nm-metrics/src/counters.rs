//! Counters and lock statistics — the stack-wide single counters
//! surface.
//!
//! The paper decomposes thread-support overheads into per-primitive
//! constants (70 ns per lock acquire/release cycle, 750 ns per context
//! switch, …). These counters let the calibration harness attribute
//! costs: how many lock operations sit on the critical path of one
//! pingpong iteration, and how often they were contended.
//!
//! [`Counter`] and [`LockStats`] live here so the always-on metrics
//! layer owns the one registry every layer shares; every crate imports
//! them from `nm_metrics`. Unlike the ring-buffer tracer, nothing in
//! this file is behind a cargo feature: the global lock aggregates are
//! maintained unconditionally. Every [`Counter`] is striped over
//! cache-line-padded lanes, so threads that share nothing else (two
//! flows on two gates bumping the same `CoreStats`) do not bounce a
//! counter's line between them.
//!
//! All increments are `Relaxed` single atomic adds (module-wide
//! discipline: these are monotonic statistics, never synchronization).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{stripe_index, STRIPES};

/// Acquisition/contention counters attached to every lock in the stack.
///
/// All increments are `Relaxed` single atomic adds; on x86-64 this costs on
/// the order of a nanosecond and does not perturb the measured constants at
/// the precision the paper reports.
#[derive(Debug, Default)]
pub struct LockStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

impl LockStats {
    /// Creates zeroed counters.
    pub const fn new() -> Self {
        LockStats {
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Records one successful acquisition; `contended` when the fast path
    /// failed and the acquirer had to spin.
    ///
    /// Also feeds the registry's stack-wide `sync.lock.acquisitions` /
    /// `sync.lock.contended` aggregates (always on), so
    /// cross-layer lock totals have one source of truth.
    #[inline]
    pub fn record_acquire(&self, contended: bool) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if contended {
            self.contended.fetch_add(1, Ordering::Relaxed);
        }
        let (acq, cont) = global_lock_counters();
        acq.incr();
        if contended {
            cont.incr();
        }
    }

    /// Total successful acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Acquisitions that found the lock held and had to spin.
    pub fn contentions(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Fraction of acquisitions that were contended, in `[0, 1]`.
    pub fn contention_ratio(&self) -> f64 {
        let acq = self.acquisitions();
        if acq == 0 {
            0.0
        } else {
            self.contentions() as f64 / acq as f64
        }
    }

    /// Resets both counters to zero.
    pub fn reset(&self) {
        self.acquisitions.store(0, Ordering::Relaxed);
        self.contended.store(0, Ordering::Relaxed);
    }
}

/// One cache line of a striped metric (padded to 64 bytes so the lanes
/// of one [`Counter`] or gauge never share a line).
#[derive(Debug)]
#[repr(align(64))]
pub(crate) struct Lane<A>(pub(crate) A);

/// A general-purpose relaxed event counter, striped across
/// cache-line-padded lanes.
///
/// Each thread adds to its own lane (round-robin assignment, cached
/// thread-locally — the histograms' stripe index) and readers sum, so
/// threads that share nothing else do not bounce a counter's cache line
/// between them. An increment is still one relaxed atomic add.
#[derive(Debug)]
pub struct Counter {
    lanes: [Lane<AtomicU64>; STRIPES],
}

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        // A `const` item is the MSRV-compatible way to repeat a
        // non-`Copy` initializer; every array element is a fresh atomic.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Lane<AtomicU64> = Lane(AtomicU64::new(0));
        Counter {
            lanes: [ZERO; STRIPES],
        }
    }

    /// Adds one (to the calling thread's lane).
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` (to the calling thread's lane).
    #[inline]
    pub fn add(&self, n: u64) {
        self.lanes[stripe_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over all lanes.
    pub fn get(&self) -> u64 {
        self.lanes.iter().map(|l| l.0.load(Ordering::Relaxed)).sum()
    }

    /// Resets every lane to zero, returning the previous sum.
    pub fn take(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.0.swap(0, Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// The global named-counter registry.
///
/// Counters are created on first use and live for the process; lookups
/// take a mutex, so call sites should cache the returned [`Arc`] (hot
/// paths never look up by name per operation).
#[derive(Debug, Default)]
pub struct CounterRegistry {
    entries: Mutex<Vec<(&'static str, Arc<Counter>)>>,
}

impl CounterRegistry {
    /// Returns the counter named `name`, creating it if needed.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        let mut entries = self.entries.lock().unwrap();
        if let Some((_, c)) = entries.iter().find(|(n, _)| *n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        entries.push((name, Arc::clone(&c)));
        c
    }

    /// Snapshot of every registered counter, sorted by name.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<_> = {
            let entries = self.entries.lock().unwrap();
            entries.iter().map(|(n, c)| (*n, c.get())).collect()
        };
        out.sort_unstable_by_key(|(n, _)| *n);
        out
    }

    /// Resets every registered counter to zero.
    pub fn reset_all(&self) {
        let entries = self.entries.lock().unwrap();
        for (_, c) in entries.iter() {
            c.take();
        }
    }
}

/// The process-wide counter registry — the counters half of
/// [`crate::metrics`].
pub fn registry() -> &'static CounterRegistry {
    crate::metrics().counters()
}

/// Stack-wide lock aggregates, registered once in [`registry`].
fn global_lock_counters() -> &'static (Arc<Counter>, Arc<Counter>) {
    static GLOBAL: OnceLock<(Arc<Counter>, Arc<Counter>)> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        (
            registry().counter("sync.lock.acquisitions"),
            registry().counter("sync.lock.contended"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_stats_accumulate() {
        let s = LockStats::new();
        s.record_acquire(false);
        s.record_acquire(true);
        s.record_acquire(true);
        assert_eq!(s.acquisitions(), 3);
        assert_eq!(s.contentions(), 2);
        assert!((s.contention_ratio() - 2.0 / 3.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.acquisitions(), 0);
        assert_eq!(s.contention_ratio(), 0.0);
    }

    #[test]
    fn counter_take_swaps_to_zero() {
        let c = Counter::new();
        c.incr();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_sums_exactly_under_four_writers() {
        let c = Arc::new(Counter::new());
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (c, start) = (Arc::clone(&c), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..10_000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        c.add(5);
        assert_eq!(c.get(), 40_005);
        assert_eq!(c.take(), 40_005);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_new_is_const_and_lanes_do_not_share_a_line() {
        static C: Counter = Counter::new();
        C.incr();
        assert_eq!(C.get(), 1);
        assert_eq!(std::mem::size_of::<Counter>(), 64 * STRIPES);
        assert_eq!(std::mem::align_of::<Counter>(), 64);
    }

    #[test]
    fn registry_dedupes_by_name() {
        let a = registry().counter("test.registry.dedup");
        let b = registry().counter("test.registry.dedup");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(3);
        let snap = registry().snapshot();
        let entry = snap.iter().find(|(n, _)| *n == "test.registry.dedup");
        assert_eq!(entry, Some(&("test.registry.dedup", 3)));
    }

    #[test]
    fn lock_stats_feed_global_aggregates_always_on() {
        let acq = registry().counter("sync.lock.acquisitions");
        let before = acq.get();
        LockStats::new().record_acquire(true);
        assert!(acq.get() > before);
        // The benchmark reads both aggregates from the snapshot by name.
        let snap = registry().snapshot();
        for name in ["sync.lock.acquisitions", "sync.lock.contended"] {
            assert!(snap.iter().any(|(n, _)| *n == name), "{name} not listed");
        }
    }
}
