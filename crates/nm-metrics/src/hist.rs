//! Log-linear latency histograms (HDR-style), always compiled in.
//!
//! The paper's fixed-spin vs. passive-wait verdict rests on *tail*
//! latency, not means (Figs 5–7): a mean cannot distinguish "every wait
//! pays 750 ns" from "1 % of waits pay 75 µs". These histograms give
//! every layer a p50/p99/p999 view cheap enough to leave on in
//! production.
//!
//! ## Layout
//!
//! Values are bucketed log-linearly: 64 linear sub-buckets per
//! power-of-two segment (so the relative bucket width is at most 1/64 ≈
//! 1.6 %), with the first 128 values tracked exactly. 29 segments cover
//! `0 ..= 2^34 - 1` nanoseconds (≈ 17 s); anything larger saturates
//! into the top bucket. The layout is fixed at compile time so shards
//! merge by plain element-wise addition.
//!
//! ## Concurrency
//!
//! A histogram is a set of [`STRIPES`] independent shards of relaxed
//! `AtomicU64` buckets. A thread picks its shard once (round-robin at
//! first use, cached in a thread-local) and only ever adds to that
//! shard, so concurrent recorders on different cores do not bounce a
//! shared cache line. [`Histogram::snapshot`] merges the shards by
//! summing. The record path is: one branch-free bucket-index
//! computation plus **one relaxed `fetch_add`** — no locks, no
//! allocation, measured at well under 25 ns (see
//! `benches/metrics_overhead.rs` in `nm-bench` and the benchmark's
//! `metrics.hist_record_ns` probe).
//!
//! ## Timers
//!
//! A clock read costs more than a record (≈ 30 ns for `Instant::now`
//! on a 2-CPU x86-64 VM), so a [`Histogram::timer`] — two clock reads
//! plus one record — is the expensive way in. A per-message operation
//! uses [`Histogram::sampled_timer`] instead: it reads the clock on one
//! call in [`SAMPLE_EVERY`] per stripe and records that sample with
//! weight [`SAMPLE_EVERY`], so `count()` still estimates the number of
//! calls and the quantiles are those of the sampled calls. The other
//! calls advance the stripe's tick (a relaxed load and store, no RMW)
//! and read no clock. The tick sits on the stripe's own cache line, and
//! each histogram has its own, so two operations timed alternately on
//! one thread are each sampled one call in 64.
//!
//! All atomics in this file are monotonic statistics counters; `Relaxed`
//! is the module-wide discipline (no ordering is ever inferred from
//! them).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Sub-bucket resolution: 2^6 = 64 linear buckets per power-of-two
/// segment.
const SUB_BITS: u32 = 6;
/// Linear sub-buckets per segment.
const SUB: usize = 1 << SUB_BITS;
/// Values below `2 * SUB` (128) land in exact single-value buckets.
const LINEAR: u64 = 2 * SUB as u64;
/// Log-linear segments above the linear range.
const SEGMENTS: usize = 27;
/// Total buckets: the linear range plus 64 per segment.
pub const BUCKETS: usize = (SEGMENTS + 2) * SUB;
/// Largest value that does not saturate into the top bucket.
pub const MAX_TRACKABLE: u64 = (1 << (SUB_BITS as usize + 1 + SEGMENTS)) - 1;

/// Independent recorder shards (power of two; threads are assigned
/// round-robin).
pub const STRIPES: usize = 8;

/// A [`Histogram::sampled_timer`] reads the clock on one call in this
/// many per stripe, and records the sample with this weight.
pub const SAMPLE_EVERY: u64 = 64;

/// Maps a value to its bucket index. Total order preserving, saturating
/// at [`BUCKETS`]` - 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let seg = (msb - SUB_BITS) as usize;
    let sub = ((v >> (msb - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    ((seg + 1) * SUB + sub).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `idx` (the value [`quantile`] style
/// estimators report).
///
/// [`quantile`]: HistogramSnapshot::quantile
#[inline]
pub fn bucket_bound(idx: usize) -> u64 {
    debug_assert!(idx < BUCKETS);
    if (idx as u64) < LINEAR {
        return idx as u64;
    }
    let seg = (idx / SUB - 1) as u32;
    let sub = (idx % SUB) as u64;
    ((SUB as u64 + sub + 1) << seg) - 1
}

/// Inclusive lower bound of bucket `idx`.
#[inline]
pub fn bucket_floor(idx: usize) -> u64 {
    debug_assert!(idx < BUCKETS);
    if (idx as u64) < LINEAR {
        return idx as u64;
    }
    let seg = (idx / SUB - 1) as u32;
    let sub = (idx % SUB) as u64;
    (SUB as u64 + sub) << seg
}

/// Round-robin shard assignment, cached per thread (shared with the
/// [`crate::Counter`] and [`crate::Gauge`] lanes).
#[inline]
pub(crate) fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|c| {
        let cached = c.get();
        if cached != usize::MAX {
            return cached;
        }
        // relaxed: round-robin ticket; only uniqueness-ish matters.
        let idx = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
        c.set(idx);
        idx
    })
}

/// One shard: a flat array of relaxed counters, and the sampled
/// timer's tick on a cache line of its own.
#[repr(align(64))]
struct Stripe {
    /// Sampled-timer calls made through this stripe.
    tick: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Stripe {
    fn new() -> Stripe {
        Stripe {
            tick: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn add(&self, value: u64, weight: u64) {
        self.buckets[bucket_index(value)].fetch_add(weight, Ordering::Relaxed);
    }
}

/// A lock-free, always-on log-linear histogram (see module docs).
pub struct Histogram {
    stripes: Box<[Stripe]>,
}

impl Histogram {
    /// Creates an empty histogram (allocates `STRIPES * BUCKETS`
    /// counters; create once and cache, never per-operation).
    pub fn new() -> Histogram {
        Histogram {
            stripes: (0..STRIPES).map(|_| Stripe::new()).collect(),
        }
    }

    /// Records one value. One relaxed `fetch_add`; zero allocation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.stripes[stripe_index()].add(value, 1);
    }

    /// Starts a timer that records elapsed nanoseconds into this
    /// histogram when dropped. Two clock reads and one record per call.
    #[inline]
    pub fn timer(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Starts a timer that reads the clock on one call in
    /// [`SAMPLE_EVERY`] made through this thread's stripe, starting with
    /// the stripe's first, and records that call with weight
    /// [`SAMPLE_EVERY`]; every other call reads no clock and records
    /// nothing.
    #[inline]
    pub fn sampled_timer(&self) -> SampledTimer<'_> {
        let stripe = &self.stripes[stripe_index()];
        // A plain load and store, not an RMW: two threads sharing the
        // stripe may both read one tick, which only moves a sample.
        let tick = stripe.tick.load(Ordering::Relaxed);
        stripe.tick.store(tick.wrapping_add(1), Ordering::Relaxed);
        SampledTimer {
            stripe,
            start: tick.is_multiple_of(SAMPLE_EVERY).then(Instant::now),
        }
    }

    /// Merges all shards into an owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for stripe in self.stripes.iter() {
            for (acc, b) in buckets.iter_mut().zip(stripe.buckets.iter()) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        HistogramSnapshot::from_buckets(buckets)
    }

    /// Resets every bucket to zero. Concurrent recorders may leave a few
    /// counts behind; intended for bench harness epochs, not hot paths.
    pub fn reset(&self) {
        for stripe in self.stripes.iter() {
            for b in stripe.buckets.iter() {
                b.store(0, Ordering::Relaxed);
            }
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("p50", &s.quantile(0.5))
            .field("p99", &s.quantile(0.99))
            .finish()
    }
}

/// Records elapsed wall-clock nanoseconds into a [`Histogram`] on drop.
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl HistTimer<'_> {
    /// Nanoseconds elapsed so far.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

impl Drop for HistTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        self.hist.record(self.elapsed_ns());
    }
}

/// A [`Histogram::sampled_timer`]: on a sampled call, records elapsed
/// wall-clock nanoseconds with weight [`SAMPLE_EVERY`] on drop.
pub struct SampledTimer<'a> {
    stripe: &'a Stripe,
    /// `None` on the calls that are not sampled.
    start: Option<Instant>,
}

impl Drop for SampledTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.stripe.add(ns, SAMPLE_EVERY);
        }
    }
}

/// An owned, mergeable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
}

impl HistogramSnapshot {
    /// Builds a snapshot from a dense bucket vector (len [`BUCKETS`]).
    pub fn from_buckets(buckets: Vec<u64>) -> HistogramSnapshot {
        assert_eq!(buckets.len(), BUCKETS, "bucket layout mismatch");
        let count = buckets.iter().sum();
        HistogramSnapshot { buckets, count }
    }

    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Element-wise merge (shards and snapshots merge associatively and
    /// commutatively: plain vector addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Nearest-rank quantile estimate, `q` in `[0, 1]`. Returns the
    /// inclusive upper bound of the bucket holding the rank — i.e. an
    /// overestimate by at most one bucket width (≤ 1/64 relative).
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(idx);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    pub fn max(&self) -> u64 {
        match self.buckets.iter().rposition(|&c| c > 0) {
            Some(idx) => bucket_bound(idx),
            None => 0,
        }
    }

    /// Lower bound of the lowest non-empty bucket (0 when empty).
    pub fn min(&self) -> u64 {
        match self.buckets.iter().position(|&c| c > 0) {
            Some(idx) => bucket_floor(idx),
            None => 0,
        }
    }

    /// Approximate sum of recorded values (bucket midpoints).
    pub fn sum_approx(&self) -> f64 {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| {
                let mid = (bucket_floor(idx) as f64 + bucket_bound(idx) as f64) / 2.0;
                mid * c as f64
            })
            .sum()
    }

    /// Approximate mean (0.0 when empty).
    pub fn mean_approx(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_approx() / self.count as f64
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, in
    /// ascending order — the sparse form exports render.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_bound(idx), c))
            .collect()
    }

    /// Count in the saturated top bucket (values above [`MAX_TRACKABLE`]
    /// land here).
    pub fn saturated(&self) -> u64 {
        self.buckets[BUCKETS - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_range_is_exact() {
        for v in 0..LINEAR {
            let idx = bucket_index(v);
            assert_eq!(idx as u64, v);
            assert_eq!(bucket_floor(idx), v);
            assert_eq!(bucket_bound(idx), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_ordered() {
        // Every value maps into a bucket whose [floor, bound] contains it,
        // and bucket indices are monotone in the value.
        let mut prev_idx = 0;
        let mut v = 0u64;
        while v < 1 << 20 {
            let idx = bucket_index(v);
            assert!(idx >= prev_idx, "index not monotone at {v}");
            assert!(bucket_floor(idx) <= v && v <= bucket_bound(idx));
            prev_idx = idx;
            v += 1 + v / 97; // dense at the bottom, sparse higher up
        }
        // Bucket edges meet exactly: bound(i) + 1 == floor(i + 1).
        for idx in 0..BUCKETS - 1 {
            assert_eq!(bucket_bound(idx) + 1, bucket_floor(idx + 1), "at {idx}");
        }
    }

    #[test]
    fn relative_width_is_bounded() {
        for idx in LINEAR as usize..BUCKETS - 1 {
            let lo = bucket_floor(idx);
            let hi = bucket_bound(idx);
            let width = hi - lo + 1;
            assert!(
                width as f64 / lo as f64 <= 1.0 / 64.0 + 1e-9,
                "bucket {idx} too wide: [{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn saturation_at_top_bucket() {
        let h = Histogram::new();
        h.record(MAX_TRACKABLE);
        h.record(MAX_TRACKABLE + 1);
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 3);
        assert_eq!(s.saturated(), 3);
        assert_eq!(s.quantile(1.0), bucket_bound(BUCKETS - 1));
        assert_eq!(s.max(), bucket_bound(BUCKETS - 1));
    }

    #[test]
    fn quantiles_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 1000);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        // Estimates overshoot by at most one bucket width (≤ 1/64).
        assert!((500..=508).contains(&p50), "p50 = {p50}");
        assert!((990..=1007).contains(&p99), "p99 = {p99}");
        assert_eq!(s.quantile(0.0), 1);
        assert!(s.min() <= 1 && s.max() >= 1000);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.mean_approx(), 0.0);
        assert!(s.nonzero().is_empty());
    }

    #[test]
    fn timer_records_once() {
        let h = Histogram::new();
        {
            let _t = h.timer();
        }
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn sampled_timer_fires_on_one_call_in_64() {
        let h = Histogram::new();
        for call in 0..10 * SAMPLE_EVERY {
            drop(h.sampled_timer());
            // Calls 0, 64, 128, ... are the sampled ones.
            let samples = call / SAMPLE_EVERY + 1;
            assert_eq!(h.snapshot().count(), samples * SAMPLE_EVERY, "call {call}");
        }
    }

    #[test]
    fn sampled_timers_alternating_on_one_thread_are_both_sampled() {
        let (a, b) = (Histogram::new(), Histogram::new());
        for _ in 0..4 * SAMPLE_EVERY {
            drop(a.sampled_timer());
            drop(b.sampled_timer());
        }
        assert_eq!(a.snapshot().count(), 4 * SAMPLE_EVERY);
        assert_eq!(b.snapshot().count(), 4 * SAMPLE_EVERY);
    }

    #[test]
    fn a_sample_adds_its_weight_to_one_bucket() {
        let h = Histogram::new();
        drop(h.sampled_timer());
        let buckets = h.snapshot().nonzero();
        assert_eq!(buckets.len(), 1, "{buckets:?}");
        assert_eq!(buckets[0].1, SAMPLE_EVERY);
    }

    #[test]
    fn a_stripe_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Stripe>(), 64);
        assert_eq!(std::mem::align_of::<Stripe>(), 64);
    }

    #[test]
    fn reset_zeroes() {
        let h = Histogram::new();
        h.record(7);
        h.reset();
        assert_eq!(h.snapshot().count(), 0);
    }

    #[test]
    fn concurrent_recorders_lose_nothing() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 100);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }
}
