//! Deltas of `nm-metrics` registry counters, looked up by name.
//!
//! Every count the benchmark reports about the library comes from here,
//! not from a struct field of the library: a PR that drops or renames a
//! counter makes the dependent metric read `None`, it does not break the
//! benchmark's build.

use nm_metrics::{metrics, MetricsSnapshot};

/// The counters the per-layer metrics are derived from.
pub const LOCK_ACQUISITIONS: &str = "sync.lock.acquisitions";
pub const LOCK_CONTENDED: &str = "sync.lock.contended";
pub const FABRIC_TX_PACKETS: &str = "fabric.tx_packets";
pub const FABRIC_TX_BYTES: &str = "fabric.tx_bytes";
pub const PROGRESS_POLLS: &str = "progress.polls";
pub const PROGRESS_PROGRESSIONS: &str = "progress.progressions";

/// A point-in-time copy of the registry.
pub struct RegistrySnapshot(MetricsSnapshot);

impl RegistrySnapshot {
    /// Copies the registry now. Allocates; call outside timed regions.
    pub fn take() -> Self {
        RegistrySnapshot(metrics().snapshot())
    }

    /// `self - earlier` for the counter `name`; `None` when the registry
    /// does not have it (any more). Counters register on first use, so
    /// one that is missing from `earlier` only had not counted yet.
    pub fn delta(&self, earlier: &RegistrySnapshot, name: &str) -> Option<u64> {
        Some(self.0.counter(name)? - earlier.0.counter(name).unwrap_or(0))
    }
}
