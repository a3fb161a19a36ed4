//! # nm-metrics — always-on metrics for the nomad stack
//!
//! The paper's whole argument rests on *measured distributions*, not
//! means: fixed-spin vs. passive waiting is decided by tail latency
//! under contention (Figs 5–7), and engine placement (Fig 8) by
//! sustained poll rate and idle gaps. `nm-trace` (the event tracer) is
//! the deep, offline instrument behind a cargo feature; this crate is
//! the cheap, **unconditionally compiled** one: latency histograms,
//! counters and gauges every layer keeps hot in production, with an
//! OpenMetrics/JSON snapshot API on top.
//!
//! ## Cost budget
//!
//! One relaxed atomic add — or one log-linear histogram record, which
//! is one bucket-index computation plus one relaxed add — per
//! operation. No locks, no allocation, no cargo feature on the record
//! path (`benches/metrics_overhead.rs` in `nm-bench` measures it;
//! the gate is ≤ 25 ns). A timer adds two clock reads to its record; a
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
//!   [`export::to_json`].
//!
//! See `docs/METRICS.md` for the metric name catalogue and how this
//! layer differs from `nm-trace`'s recordings.

#![warn(missing_docs)]

pub mod counters;
pub mod export;
mod gauge;
mod hist;
mod registry;

pub use counters::{Counter, CounterRegistry, LockStats};
pub use gauge::Gauge;
pub use hist::{
    bucket_bound, bucket_floor, bucket_index, HistTimer, Histogram, HistogramSnapshot,
    SampledTimer, BUCKETS, MAX_TRACKABLE, SAMPLE_EVERY, STRIPES,
};
pub use registry::{metrics, MetricsRegistry, MetricsSnapshot};
