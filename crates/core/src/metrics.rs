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

nm_metrics::metric_handles! {
    /// Latency of `CommCore::isend` (post to return, ns; one call in 64,
    /// weight 64).
    pub fn send_hist() -> Histogram = histogram("core.send_ns");
    /// Latency of `CommCore::irecv`/`irecv_any` (post to return, ns; one
    /// call in 64, weight 64).
    pub fn recv_hist() -> Histogram = histogram("core.recv_ns");
    /// Latency of `CommCore::wait` (call to completion, ns).
    pub fn wait_hist() -> Histogram = histogram("core.wait_ns");
    /// Locks created beyond the fixed lock-order class tables (demoted to
    /// a shared overflow class).
    pub fn lockclass_overflow() -> Counter = counter("core.lockclass_overflow");
    /// Posted receives currently waiting in the per-gate matching bins.
    pub fn posted_depth() -> Gauge = gauge("core.posted_depth");
    /// Unexpected messages currently buffered in the per-gate matching
    /// bins.
    pub fn unexpected_depth() -> Gauge = gauge("core.unexpected_depth");
    /// Completion events currently queued across all completion queues.
    pub fn cq_depth() -> Gauge = gauge("core.cq_depth");
    /// Latency of fire-and-forget completion handlers (delivery-context
    /// run time, ns).
    pub fn handler_hist() -> Histogram = histogram("core.handler_ns");
    /// Requests finished by `Request::cancel` before completing.
    pub fn cancelled() -> Counter = counter("core.requests.cancelled");
}
