//! Lock instrumentation fed by the contended acquisition paths.

nm_metrics::metric_handles! {
    /// Stack-wide histogram of contended lock wait times, in nanoseconds.
    ///
    /// Fed by every [`crate::RawSpin`]/[`crate::SpinLock`] acquisition that
    /// missed its fast-path CAS and by every [`crate::TicketLock`]
    /// acquisition that found an earlier ticket still being served. The
    /// uncontended fast path never touches it (and pays no timestamp),
    /// matching the paper's cost model where an uncontended acquire/release
    /// cycle is a single CAS pair.
    pub fn lock_wait_hist() -> Histogram = histogram("sync.lock.wait_ns");
}
