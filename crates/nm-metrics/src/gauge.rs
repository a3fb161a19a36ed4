//! Instantaneous-value gauges.
//!
//! A gauge mirrors a quantity layers `set`/`add`/`sub` as it changes:
//! tasklet queue depth, offload backlog, progress-engine empty-poll
//! streak, bytes in flight on a wire. Like everything in this crate it
//! is always compiled in and every update is one relaxed atomic op
//! (module-wide discipline: advisory statistics, never synchronization).
//!
//! Like a [`crate::Counter`], a gauge is striped over cache-line-padded
//! lanes: `add`/`sub` touch the calling thread's lane and `get` sums, so
//! two threads moving the same depth gauge for unrelated queues do not
//! bounce a line. `set` and `record_max` work on lane 0, the *base*
//! lane: a gauge driven by them reads back exactly what was stored.

use std::sync::atomic::{AtomicI64, Ordering};

use crate::counters::Lane;
use crate::hist::{stripe_index, STRIPES};

/// An instantaneous value, updated with relaxed atomic ops.
#[derive(Debug)]
pub struct Gauge {
    lanes: [Lane<AtomicI64>; STRIPES],
}

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        // See `Counter::new` for the `const` item.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Lane<AtomicI64> = Lane(AtomicI64::new(0));
        Gauge {
            lanes: [ZERO; STRIPES],
        }
    }

    /// Overwrites the value: the base lane takes `v` and every other
    /// lane that holds a residue of earlier `add`/`sub` calls is zeroed.
    /// Not atomic against a concurrent `add`/`sub` (which of the two
    /// lands last was never defined); a gauge that is only ever `set`
    /// writes one line.
    #[inline]
    pub fn set(&self, v: i64) {
        self.lanes[0].0.store(v, Ordering::Relaxed);
        for lane in &self.lanes[1..] {
            if lane.0.load(Ordering::Relaxed) != 0 {
                lane.0.store(0, Ordering::Relaxed);
            }
        }
    }

    /// Adds `n` (to the calling thread's lane).
    #[inline]
    pub fn add(&self, n: i64) {
        self.lanes[stripe_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (from the calling thread's lane; a lane may go
    /// negative when another thread did the matching `add`).
    #[inline]
    pub fn sub(&self, n: i64) {
        self.lanes[stripe_index()].0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the base lane to `v` if `v` is larger (high-watermark
    /// gauges; such a gauge is never also moved by `add`/`sub`).
    #[inline]
    pub fn record_max(&self, v: i64) {
        self.lanes[0].0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value: the sum over all lanes.
    pub fn get(&self) -> i64 {
        self.lanes.iter().map(|l| l.0.load(Ordering::Relaxed)).sum()
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn set_add_sub() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.sub(20);
        assert_eq!(g.get(), -8, "gauges may go negative transiently");
        g.set(4);
        assert_eq!(g.get(), 4, "set overwrites what add/sub left behind");
    }

    #[test]
    fn record_max_is_a_high_watermark() {
        let g = Gauge::new();
        g.record_max(4);
        g.record_max(2);
        assert_eq!(g.get(), 4);
        g.record_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn add_and_sub_from_four_threads_sum_exactly() {
        static G: Gauge = Gauge::new();
        let start = Arc::new(Barrier::new(4));
        let threads: Vec<_> = (0..4i64)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    // Even threads add what odd threads take away, plus
                    // their own index once: the adds and the matching
                    // subs land in different lanes.
                    for _ in 0..10_000 {
                        if t % 2 == 0 {
                            G.add(3);
                        } else {
                            G.sub(3);
                        }
                    }
                    G.add(t);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(G.get(), 1 + 2 + 3);
    }
}
