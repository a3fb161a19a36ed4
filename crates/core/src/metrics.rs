//! Always-on latency histograms and health metrics for the core API.
//!
//! Each public operation records its wall-clock duration into a global
//! log-linear histogram (`core.send_ns`, `core.recv_ns`,
//! `core.wait_ns`) owned by [`nm_metrics::metrics`]. The handles are
//! resolved once through a `OnceLock`. `isend` and `irecv` run once per
//! message, so they take a sampled timer: one call in
//! [`nm_metrics::SAMPLE_EVERY`] pays two timestamps and one relaxed
//! atomic add, recorded with that weight, and the others pay a relaxed
//! load and store of the stripe's tick. `wait` and completion handlers
//! time every call — see the no-alloc and record-cost tests in
//! `nm-metrics`, and `tests/sampled_timers.rs` here.
//!
//! Matching-state depth gauges (`core.posted_depth`,
//! `core.unexpected_depth`) track the library-wide number of posted
//! receives and unexpected messages held in the per-gate hash bins —
//! one relaxed add/sub per queue mutation. `core.lockclass_overflow`
//! counts locks built past the fixed lock-order class tables (they fall
//! back to a shared per-family `*.overflow` lockcheck class, losing
//! per-index precision); a non-zero value means the tables in
//! `core::locking` need growing.

use std::sync::{Arc, OnceLock};

use nm_metrics::{Counter, Gauge, Histogram};

macro_rules! global_hist {
    ($fn_name:ident, $metric:literal, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name() -> &'static Arc<Histogram> {
            static H: OnceLock<Arc<Histogram>> = OnceLock::new();
            H.get_or_init(|| nm_metrics::metrics().histogram($metric))
        }
    };
}

macro_rules! global_counter {
    ($fn_name:ident, $metric:literal, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name() -> &'static Arc<Counter> {
            static C: OnceLock<Arc<Counter>> = OnceLock::new();
            C.get_or_init(|| nm_metrics::metrics().counter($metric))
        }
    };
}

macro_rules! global_gauge {
    ($fn_name:ident, $metric:literal, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name() -> &'static Arc<Gauge> {
            static G: OnceLock<Arc<Gauge>> = OnceLock::new();
            G.get_or_init(|| nm_metrics::metrics().gauge($metric))
        }
    };
}

global_hist!(
    send_hist,
    "core.send_ns",
    "Latency of `CommCore::isend` (post to return, ns; one call in 64, weight 64)."
);
global_hist!(
    recv_hist,
    "core.recv_ns",
    "Latency of `CommCore::irecv`/`irecv_any` (post to return, ns; one call in 64, weight 64)."
);
global_hist!(
    wait_hist,
    "core.wait_ns",
    "Latency of `CommCore::wait` (call to completion, ns)."
);
global_counter!(
    lockclass_overflow,
    "core.lockclass_overflow",
    "Locks created beyond the fixed lock-order class tables (demoted to a shared overflow class)."
);
global_gauge!(
    posted_depth,
    "core.posted_depth",
    "Posted receives currently waiting in the per-gate matching bins."
);
global_gauge!(
    unexpected_depth,
    "core.unexpected_depth",
    "Unexpected messages currently buffered in the per-gate matching bins."
);
global_gauge!(
    cq_depth,
    "core.cq_depth",
    "Completion events currently queued across all completion queues."
);
global_hist!(
    handler_hist,
    "core.handler_ns",
    "Latency of fire-and-forget completion handlers (delivery-context run time, ns)."
);
global_counter!(
    cancelled,
    "core.requests.cancelled",
    "Requests finished by `Request::cancel` before completing."
);
