//! What the benchmark declares: metric names, units, directions and
//! bounds. `BENCHMARK.json` at the repository root says the same; a
//! test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the library would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may get worse
    /// before it counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload emits all of them; see README.md for what each means
/// on each workload.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("half_rtt_p50_ns.single", "ns", Better::Lower, 0.25),
    e2e("half_rtt_p50_ns.coarse", "ns", Better::Lower, 0.25),
    e2e("half_rtt_p50_ns.fine", "ns", Better::Lower, 0.25),
    e2e("half_rtt_p99_ns.fine", "ns", Better::Lower, 0.25),
    e2e("msgs_per_s.single", "msg/s", Better::Higher, 0.25),
    e2e("msgs_per_s.coarse", "msg/s", Better::Higher, 0.25),
    e2e("msgs_per_s.fine", "msg/s", Better::Higher, 0.25),
    e2e("goodput_MBps.single", "MB/s", Better::Higher, 0.25),
    e2e("goodput_MBps.coarse", "MB/s", Better::Higher, 0.25),
    e2e("goodput_MBps.fine", "MB/s", Better::Higher, 0.25),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of one layer, measured in the traced run only.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    better: Better,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
    }
}

use Better::{Higher, Lower};

/// The first 18 are micro-probes (the same on every workload); the rest
/// come from the traced workload itself. README.md has, for each, the
/// end-to-end metric and workload it should move and where it should
/// not.
pub const PER_LAYER: [PerLayer; 36] = [
    layer("nm-sync", "sync.spin_cycle_ns", "ns", Lower),
    layer("nm-sync", "sync.spin_handoff_ns", "ns", Lower),
    layer("nm-sync", "sync.flag_handoff_ns", "ns", Lower),
    layer("nm-fabric", "fabric.simnic_post_poll_ns", "ns", Lower),
    layer("nm-fabric", "fabric.loopback_post_poll_ns", "ns", Lower),
    layer("nm-fabric", "fabric.chaos_passthrough_ns", "ns", Lower),
    layer("nm-core::wire", "wire.encode_packet_ns.8B", "ns", Lower),
    layer("nm-core::wire", "wire.decode_packet_ns.8B", "ns", Lower),
    layer("nm-core::wire", "wire.encode_frame_ns.16KiB", "ns", Lower),
    layer("nm-core::wire", "wire.decode_frame_ns.16KiB", "ns", Lower),
    layer("nm-core::wire", "wire.crc32_MBps", "MB/s", Higher),
    layer(
        "nm-core::strategy",
        "strategy.next_packet_ns.aggregate",
        "ns",
        Lower,
    ),
    layer(
        "nm-core::strategy",
        "strategy.next_packet_ns.fifo",
        "ns",
        Lower,
    ),
    layer(
        "nm-core",
        "core.rel_tx_amplification.lossless",
        "ratio",
        Lower,
    ),
    layer("nm-core", "core.rel_tx_amplification.lossy", "ratio", Lower),
    layer(
        "nm-progress",
        "progress.engine_poll_overhead_ns",
        "ns",
        Lower,
    ),
    layer("nm-mpi", "mpi.facade_overhead_ns", "ns", Lower),
    layer("nm-metrics", "metrics.hist_record_ns", "ns", Lower),
    layer("nm-fabric", "fabric.packets_per_msg", "count", Lower),
    layer(
        "nm-fabric",
        "fabric.wire_bytes_per_payload_byte",
        "ratio",
        Lower,
    ),
    layer("nm-core", "core.isend_ns", "ns", Lower),
    layer("nm-core", "core.irecv_ns", "ns", Lower),
    layer("nm-core", "core.take_data_ns", "ns", Lower),
    layer("nm-core", "core.progress_hit_ns", "ns", Lower),
    layer("nm-core", "core.progress_idle_ns", "ns", Lower),
    layer("nm-core", "core.passes_per_msg", "count", Lower),
    layer("nm-core", "core.idle_pass_ratio", "ratio", Lower),
    layer("nm-core", "core.lock_acq_per_msg", "count", Lower),
    layer("nm-core", "core.lock_contended_ratio", "ratio", Lower),
    layer("nm-core", "core.allocs_per_msg", "count", Lower),
    layer(
        "nm-core",
        "core.alloc_bytes_per_payload_byte",
        "ratio",
        Lower,
    ),
    layer("nm-core", "core.unexpected_ratio", "ratio", Lower),
    layer("nm-progress", "progress.polls_per_msg", "count", Lower),
    layer("nm-progress", "progress.useful_poll_ratio", "ratio", Higher),
    layer("benchmark", "trace.overhead_pct", "%", Lower),
    layer("benchmark", "budget.attributed_pct", "%", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let names: BTreeSet<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
