//! The process-wide metrics registry and snapshots.
//!
//! One registry ([`metrics`]) owns every named counter, gauge and
//! histogram in the stack. Lookups take a mutex and are cold-path only:
//! call sites resolve their handles once (typically in a
//! `OnceLock`) and then record through the lock-free handle. A
//! [`MetricsSnapshot`] is a cheap, consistent-enough copy (each metric
//! is read atomically; the set is not globally atomic, which is fine
//! for statistics) that renders to OpenMetrics text or JSON (see
//! [`crate::export`]).

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::counters::CounterRegistry;
use crate::gauge::Gauge;
use crate::hist::{Histogram, HistogramSnapshot};

/// Counter values captured at a snapshot, for rate derivation.
type RateWindow = (Instant, Vec<(&'static str, u64)>);

/// The stack-wide metrics registry; obtain it via [`metrics`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: CounterRegistry,
    gauges: Mutex<Vec<(&'static str, Arc<Gauge>)>>,
    hists: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
    /// Counter values at the previous snapshot, for rate derivation.
    window: Mutex<Option<RateWindow>>,
}

impl MetricsRegistry {
    /// The named-counter sub-registry (also reachable as
    /// [`crate::counters::registry`], the historical path).
    pub fn counters(&self) -> &CounterRegistry {
        &self.counters
    }

    /// Returns the counter named `name`, creating it if needed.
    pub fn counter(&self, name: &'static str) -> Arc<crate::counters::Counter> {
        self.counters.counter(name)
    }

    /// Returns the gauge named `name`, creating it if needed.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        let mut gauges = self.gauges.lock().unwrap();
        if let Some((_, g)) = gauges.iter().find(|(n, _)| *n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        gauges.push((name, Arc::clone(&g)));
        g
    }

    /// Returns the histogram named `name`, creating it if needed.
    /// Histograms allocate their bucket arrays on creation — resolve
    /// once and cache the handle, never look up per operation.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        let mut hists = self.hists.lock().unwrap();
        if let Some((_, h)) = hists.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        hists.push((name, Arc::clone(&h)));
        h
    }

    /// Takes a snapshot of every registered metric, sorted by name.
    ///
    /// Counter rates (`<name>.per_sec`) are derived from the wall-clock
    /// window since the previous `snapshot` call; the first snapshot of
    /// a process reports no rates.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let now = Instant::now();
        let counters = self.counters.snapshot();

        let rates = {
            let mut window = self.window.lock().unwrap();
            let rates = match window.as_ref() {
                Some((at, prev)) => {
                    let dt = now.duration_since(*at).as_secs_f64();
                    if dt > 0.0 {
                        counters
                            .iter()
                            .map(|(name, cur)| {
                                let before = prev
                                    .iter()
                                    .find(|(n, _)| n == name)
                                    .map(|(_, v)| *v)
                                    .unwrap_or(0);
                                (name.to_string(), cur.saturating_sub(before) as f64 / dt)
                            })
                            .collect()
                    } else {
                        Vec::new()
                    }
                }
                None => Vec::new(),
            };
            *window = Some((now, counters.clone()));
            rates
        };

        let mut gauges: Vec<(String, i64)> = {
            let g = self.gauges.lock().unwrap();
            g.iter().map(|(n, g)| (n.to_string(), g.get())).collect()
        };
        gauges.sort_by(|a, b| a.0.cmp(&b.0));

        let mut hists: Vec<(String, HistogramSnapshot)> = {
            let h = self.hists.lock().unwrap();
            h.iter()
                .map(|(n, h)| (n.to_string(), h.snapshot()))
                .collect()
        };
        hists.sort_by(|a, b| a.0.cmp(&b.0));

        MetricsSnapshot {
            counters: counters
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            rates,
            gauges,
            hists,
        }
    }

    /// Resets every counter and histogram to zero (gauges keep their
    /// instantaneous value) and forgets the rate window. Bench-harness
    /// epochs only; racing recorders may leave a few counts behind.
    pub fn reset(&self) {
        self.counters.reset_all();
        let hists = self.hists.lock().unwrap();
        for (_, h) in hists.iter() {
            h.reset();
        }
        drop(hists);
        *self.window.lock().unwrap() = None;
    }
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, events/second)` over the window since the previous
    /// snapshot; empty on the first snapshot.
    pub rates: Vec<(String, f64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every histogram.
    pub hists: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram snapshot by name.
    pub fn hist(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// The process-wide registry.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_dedupe_by_name() {
        let g1 = metrics().gauge("test.reg.gauge");
        let g2 = metrics().gauge("test.reg.gauge");
        assert!(Arc::ptr_eq(&g1, &g2));
        let h1 = metrics().histogram("test.reg.hist");
        let h2 = metrics().histogram("test.reg.hist");
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    fn snapshot_carries_all_kinds() {
        metrics().counter("test.reg.ctr").add(2);
        metrics().gauge("test.reg.g2").set(-7);
        metrics().histogram("test.reg.h2").record(99);
        let s = metrics().snapshot();
        assert_eq!(s.counter("test.reg.ctr"), Some(2));
        assert_eq!(s.gauge("test.reg.g2"), Some(-7));
        assert!(s.hist("test.reg.h2").unwrap().count() >= 1);
        assert!(s.counter("test.reg.nope").is_none());
    }

    #[test]
    fn rates_appear_from_second_snapshot() {
        // Other tests in this binary snapshot the same global registry
        // concurrently and may steal the rate window; retry until one
        // window cleanly brackets our increment.
        let c = metrics().counter("test.reg.rate");
        for _ in 0..100 {
            let _ = metrics().snapshot();
            c.add(100);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let s = metrics().snapshot();
            let rate = s
                .rates
                .iter()
                .find(|(n, _)| n == "test.reg.rate")
                .map(|(_, r)| *r);
            if rate.is_some_and(|r| r > 0.0) {
                return;
            }
        }
        panic!("rate never derived over 100 attempts");
    }
}
