//! Lock instrumentation fed by the contended acquisition paths.

use std::sync::{Arc, OnceLock};

/// Stack-wide histogram of contended lock wait times, in nanoseconds.
///
/// Fed by every [`crate::RawSpin`]/[`crate::SpinLock`] acquisition that
/// missed its fast-path CAS and by every [`crate::TicketLock`]
/// acquisition that found an earlier ticket still being served. The
/// uncontended fast path never touches it (and pays no timestamp),
/// matching the paper's cost model where an uncontended acquire/release
/// cycle is a single CAS pair.
pub fn lock_wait_hist() -> &'static Arc<nm_metrics::Histogram> {
    static H: OnceLock<Arc<nm_metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| nm_metrics::metrics().histogram("sync.lock.wait_ns"))
}
