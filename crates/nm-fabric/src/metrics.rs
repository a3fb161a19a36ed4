//! Always-on traffic metrics for the simulated fabric.
//!
//! Global aggregates over every NIC endpoint, cached handles into
//! [`nm_metrics::metrics`]. The packet/byte counters yield wire rates on
//! snapshot (`fabric.tx_bytes.per_sec` is the injected bandwidth); the
//! in-flight gauge is the stack-wide wire occupancy — bytes injected but
//! not yet delivered, summed over all links. Per-context occupancy is
//! queryable directly through [`crate::SimNic::inflight_bytes_vci`].

use std::sync::{Arc, OnceLock};

use nm_metrics::{Counter, Gauge};

macro_rules! global_counter {
    ($fn_name:ident, $metric:literal, $doc:literal) => {
        #[doc = $doc]
        pub fn $fn_name() -> &'static Arc<Counter> {
            static C: OnceLock<Arc<Counter>> = OnceLock::new();
            C.get_or_init(|| nm_metrics::metrics().counter($metric))
        }
    };
}

global_counter!(
    tx_packets,
    "fabric.tx_packets",
    "Packets injected into any wire."
);
global_counter!(
    tx_bytes,
    "fabric.tx_bytes",
    "Payload bytes injected into any wire."
);
global_counter!(
    rx_packets,
    "fabric.rx_packets",
    "Packets delivered by any NIC endpoint."
);
global_counter!(
    rx_bytes,
    "fabric.rx_bytes",
    "Payload bytes delivered by any NIC endpoint."
);

global_counter!(
    chaos_lost,
    "fabric.chaos.lost",
    "Packets dropped by chaos fault injection."
);
global_counter!(
    chaos_duplicated,
    "fabric.chaos.duplicated",
    "Extra packet copies delivered by chaos fault injection."
);
global_counter!(
    chaos_corrupted,
    "fabric.chaos.corrupted",
    "Packets byte-corrupted by chaos fault injection."
);
global_counter!(
    chaos_delayed,
    "fabric.chaos.delayed",
    "Packets held back (jitter) by chaos fault injection."
);
global_counter!(
    chaos_stalls,
    "fabric.chaos.stalls",
    "Transient NIC stall windows opened by chaos fault injection."
);
global_counter!(
    chaos_reordered,
    "fabric.chaos.reordered",
    "Packets released out of arrival order by chaos fault injection."
);

global_counter!(
    vci_tx_packets,
    "fabric.vci.tx_packets",
    "Packets injected through a multi-VCI NIC context."
);
global_counter!(
    vci_rx_packets,
    "fabric.vci.rx_packets",
    "Packets delivered through a multi-VCI NIC context."
);

/// Bytes currently in flight (injected, not yet delivered) across all
/// wires.
pub fn inflight_bytes() -> &'static Arc<Gauge> {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| nm_metrics::metrics().gauge("fabric.inflight_bytes"))
}

/// Bytes currently in flight on multi-VCI NIC contexts. Single-context
/// NICs account only to `fabric.inflight_bytes`; per-VCI occupancy is
/// queryable directly through [`crate::SimNic::inflight_bytes_vci`].
pub fn vci_inflight_bytes() -> &'static Arc<Gauge> {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| nm_metrics::metrics().gauge("fabric.vci.inflight_bytes"))
}
