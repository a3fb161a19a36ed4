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
//! them from `nm_metrics`. Unlike the ring-buffer tracer, nothing in this file is behind a
//! cargo feature: the global lock aggregates are maintained
//! unconditionally, through sharded counters so concurrent lock traffic
//! does not bounce one shared cache line.
//!
//! All increments are `Relaxed` single atomic adds (module-wide
//! discipline: these are monotonic statistics, never synchronization).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// `sync.lock.contended` aggregates (always on, sharded), so
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

/// A general-purpose relaxed event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A counter sharded across cache-line-padded lanes.
///
/// Same contract as [`Counter`], but concurrent writers on different
/// cores do not contend on one cache line: each thread adds to its own
/// lane (round-robin assignment, cached thread-locally by the histogram
/// module's stripe index) and readers sum. Use for process-global
/// aggregates that every thread bumps on hot paths; plain [`Counter`]
/// is fine for per-instance statistics.
#[derive(Debug)]
pub struct ShardedCounter {
    lanes: [Lane; crate::hist::STRIPES],
}

/// One cache line worth of counter (pad to 64 bytes so lanes of the
/// same [`ShardedCounter`] never share a line).
#[derive(Debug, Default)]
#[repr(align(64))]
struct Lane(AtomicU64);

impl ShardedCounter {
    /// Creates a zeroed sharded counter.
    pub fn new() -> Self {
        ShardedCounter {
            lanes: Default::default(),
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
        self.lanes[crate::hist::stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over all lanes.
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

impl Default for ShardedCounter {
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
    sharded: Mutex<Vec<(&'static str, Arc<ShardedCounter>)>>,
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

    /// Returns the sharded counter named `name`, creating it if needed.
    /// Sharded and plain counters share the namespace of
    /// [`CounterRegistry::snapshot`] but not storage: don't register the
    /// same name as both.
    pub fn sharded_counter(&self, name: &'static str) -> Arc<ShardedCounter> {
        let mut entries = self.sharded.lock().unwrap();
        if let Some((_, c)) = entries.iter().find(|(n, _)| *n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(ShardedCounter::new());
        entries.push((name, Arc::clone(&c)));
        c
    }

    /// Snapshot of every registered counter (plain and sharded), sorted
    /// by name.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<_> = {
            let entries = self.entries.lock().unwrap();
            entries.iter().map(|(n, c)| (*n, c.get())).collect()
        };
        {
            let sharded = self.sharded.lock().unwrap();
            out.extend(sharded.iter().map(|(n, c)| (*n, c.get())));
        }
        out.sort_unstable_by_key(|(n, _)| *n);
        out
    }

    /// Resets every registered counter to zero.
    pub fn reset_all(&self) {
        let entries = self.entries.lock().unwrap();
        for (_, c) in entries.iter() {
            c.take();
        }
        drop(entries);
        let sharded = self.sharded.lock().unwrap();
        for (_, c) in sharded.iter() {
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
fn global_lock_counters() -> &'static (Arc<ShardedCounter>, Arc<ShardedCounter>) {
    static GLOBAL: OnceLock<(Arc<ShardedCounter>, Arc<ShardedCounter>)> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        (
            registry().sharded_counter("sync.lock.acquisitions"),
            registry().sharded_counter("sync.lock.contended"),
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
    fn sharded_counter_sums_lanes() {
        use std::sync::Arc as StdArc;
        let c = StdArc::new(ShardedCounter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = StdArc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        c.add(5);
        assert_eq!(c.get(), 4005);
        assert_eq!(c.take(), 4005);
        assert_eq!(c.get(), 0);
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
    fn sharded_registry_dedupes_and_snapshots() {
        let a = registry().sharded_counter("test.registry.sharded");
        let b = registry().sharded_counter("test.registry.sharded");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(7);
        let snap = registry().snapshot();
        let entry = snap.iter().find(|(n, _)| *n == "test.registry.sharded");
        assert_eq!(entry, Some(&("test.registry.sharded", 7)));
    }

    #[test]
    fn lock_stats_feed_global_aggregates_always_on() {
        let acq = registry().sharded_counter("sync.lock.acquisitions");
        let before = acq.get();
        LockStats::new().record_acquire(true);
        assert!(acq.get() > before);
    }
}
