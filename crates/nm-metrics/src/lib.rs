//! # nm-metrics — observability for the nomad stack
//!
//! The paper's whole argument rests on measured distributions and on
//! per-mechanism constants: fixed-spin vs. passive waiting is decided by
//! tail latency under contention (Figs 5–7), engine placement (Fig 8)
//! by sustained poll rate and idle gaps, and Table 1 by instrumenting
//! the stack. This crate is the one tool for all of it, in one build:
//!
//! * **Metrics, always on** — latency histograms, counters and gauges
//!   every layer keeps hot in production, with an OpenMetrics/JSON
//!   snapshot API on top.
//! * **Tracing, while a recording is live** — [`trace::record`] turns
//!   every [`trace_event!`] in the process on; off, a trace point is one
//!   relaxed load and a not-taken branch.
//! * **Per-message spans** — [`spans`] stitches the `Span*` events of a
//!   drained trace into per-message timelines with a critical-path
//!   [`spans::Breakdown`].
//! * **The flight recorder** — [`flight`] dumps the recent span
//!   timelines and a metrics snapshot when a request fails.
//!
//! ## Cost budget
//!
//! One relaxed atomic add — or one log-linear histogram record, which
//! is one bucket-index computation plus one relaxed add — per
//! operation. No locks, no allocation on the record path
//! (`benches/metrics_overhead.rs` in `nm-bench` measures it; the gate
//! is ≤ 25 ns). A timer adds two clock reads to its record; a
//! per-message operation takes a sampled timer, which reads the clock
//! on one call in [`SAMPLE_EVERY`].
//!
//! ## Surfaces
//!
//! * [`Histogram`] — lock-free log-linear latency histogram (64
//!   sub-buckets per power-of-two, ≤ 1.6 % relative bucket width),
//!   per-thread shards merged on [`Histogram::snapshot`].
//! * [`Counter`] / [`LockStats`] — the counters surface, shared by
//!   every layer; a counter is striped over cache-line-padded lanes.
//! * [`Gauge`] — instantaneous values: queue depths, backlogs, streaks;
//!   `add`/`sub` stripe like a counter.
//! * [`metrics`] — the process-wide registry;
//!   [`MetricsRegistry::snapshot`] → [`export::to_openmetrics`] /
//!   [`export::to_json`]. [`metric_handles!`] declares cached handles
//!   into it.
//! * [`clock::anchor`] — the process's one real-time anchor, shared
//!   with `nm_fabric::ClockSource::real()` and trace timestamps.
//!
//! See `docs/OBSERVABILITY.md` for the metric catalogue, the event
//! list and the recording model.

#![warn(missing_docs)]

pub mod clock;
pub mod counters;
mod events;
pub mod export;
pub mod flight;
mod gauge;
mod hist;
mod registry;
mod report;
mod ring;
mod span;
pub mod spans;
pub mod trace;

pub use counters::{Counter, CounterRegistry, LockStats};
pub use gauge::Gauge;
pub use hist::{
    bucket_bound, bucket_floor, bucket_index, HistTimer, Histogram, HistogramSnapshot,
    SampledTimer, BUCKETS, MAX_TRACKABLE, SAMPLE_EVERY, STRIPES,
};
pub use registry::{metrics, MetricsRegistry, MetricsSnapshot};

#[cfg(test)]
mod tests {
    use crate::trace::{self, EventId};
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests of this binary that start a recording or
    /// assert that none is live: the switch is process-wide.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn emit_reaches_this_threads_ring() {
        let _serial = serial();
        let me = std::thread::current().name().unwrap_or("?").to_string();
        let rec = trace::record();
        crate::trace_event!(PacketTx, 123, 4);
        crate::trace_event!(PacketRx, 5);
        assert!(trace::enabled());
        let trace = rec.finish();
        let mine = trace
            .threads
            .iter()
            .find(|t| t.name == me)
            .expect("ring registered");
        let tx: Vec<_> = mine
            .events
            .iter()
            .filter(|e| e.id == EventId::PacketTx && e.a == 123)
            .collect();
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].b, 4);
    }
}

#[cfg(test)]
mod notrace_tests {
    use crate::trace;

    #[test]
    fn disabled_form_records_nothing() {
        let _serial = crate::tests::serial();
        assert!(!trace::enabled());
        crate::trace_event!(PacketTx, 1, 2);
        assert!(trace::take_trace().is_empty());
    }
}
