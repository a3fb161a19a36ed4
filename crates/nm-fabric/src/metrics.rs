//! Always-on traffic metrics for the simulated fabric.
//!
//! Global aggregates over every NIC endpoint, cached handles into
//! [`nm_metrics::metrics`]. The packet/byte counters yield wire rates on
//! snapshot (`fabric.tx_bytes.per_sec` is the injected bandwidth); the
//! in-flight gauge is the stack-wide wire occupancy — bytes injected but
//! not yet delivered, summed over all links. Per-context occupancy is
//! queryable directly through [`crate::SimNic::inflight_bytes_vci`].

nm_metrics::metric_handles! {
    /// Packets injected into any wire.
    pub fn tx_packets() -> Counter = counter("fabric.tx_packets");
    /// Payload bytes injected into any wire.
    pub fn tx_bytes() -> Counter = counter("fabric.tx_bytes");
    /// Packets delivered by any NIC endpoint.
    pub fn rx_packets() -> Counter = counter("fabric.rx_packets");
    /// Payload bytes delivered by any NIC endpoint.
    pub fn rx_bytes() -> Counter = counter("fabric.rx_bytes");
    /// Bytes currently in flight (injected, not yet delivered) across all
    /// wires.
    pub fn inflight_bytes() -> Gauge = gauge("fabric.inflight_bytes");

    /// Packets dropped by chaos fault injection.
    pub fn chaos_lost() -> Counter = counter("fabric.chaos.lost");
    /// Extra packet copies delivered by chaos fault injection.
    pub fn chaos_duplicated() -> Counter = counter("fabric.chaos.duplicated");
    /// Packets byte-corrupted by chaos fault injection.
    pub fn chaos_corrupted() -> Counter = counter("fabric.chaos.corrupted");
    /// Packets held back (jitter) by chaos fault injection.
    pub fn chaos_delayed() -> Counter = counter("fabric.chaos.delayed");
    /// Transient NIC stall windows opened by chaos fault injection.
    pub fn chaos_stalls() -> Counter = counter("fabric.chaos.stalls");
    /// Packets released out of arrival order by chaos fault injection.
    pub fn chaos_reordered() -> Counter = counter("fabric.chaos.reordered");

    /// Packets injected through a multi-VCI NIC context.
    pub fn vci_tx_packets() -> Counter = counter("fabric.vci.tx_packets");
    /// Packets delivered through a multi-VCI NIC context.
    pub fn vci_rx_packets() -> Counter = counter("fabric.vci.rx_packets");
    /// Bytes currently in flight on multi-VCI NIC contexts. Single-context
    /// NICs account only to `fabric.inflight_bytes`; per-VCI occupancy is
    /// queryable directly through [`crate::SimNic::inflight_bytes_vci`].
    pub fn vci_inflight_bytes() -> Gauge = gauge("fabric.vci.inflight_bytes");
}
