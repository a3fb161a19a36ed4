//! Deterministic critical-path breakdown of one message's latency.
//!
//! The observability tentpole's demo experiment: a virtual-clock model
//! of one eager message prices every lifecycle stage from [`SimCosts`]
//! and the Myri-10G wire model, emits the same `Span*` events the real
//! stack emits, and runs them through the *production* assembler
//! ([`nm_metrics::spans::assemble`] + [`nm_metrics::spans::Breakdown`]).
//! The numbers are exactly reproducible on any host, so
//! `breakdown/<mode>/<component>` records gate in `BENCH_FIGURES.json`,
//! and by construction of the assembler the five components sum exactly
//! to the end-to-end total.
//!
//! Modes mirror the paper's locking comparison:
//!
//! * `singlethread` — no locks anywhere on the path.
//! * `coarse` — one library-wide lock; the peer's busy-polling holds it,
//!   so every leg pays a contended cycle on top of its own.
//! * `fine` — per-shard locks (collect / driver / rx); each leg pays one
//!   uncontended cycle on the shard it touches.
//! * `fine-loss` — `fine` plus one lost frame: the retransmit backoff
//!   appears as a separate component instead of polluting "wire".

use nm_fabric::WireModel;
use nm_metrics::spans::{assemble, Breakdown};
use nm_metrics::trace::{EventId, ThreadTrace, Trace, TraceEvent};
use nm_sim::SimCosts;

/// The modeled locking modes, in report order.
pub const MODES: [&str; 4] = ["singlethread", "coarse", "fine", "fine-loss"];

/// Payload of the modeled message (a small eager send).
pub const PAYLOAD_BYTES: usize = 64;

/// Retransmit timeout of the `fine-loss` mode, in progression-pass
/// periods (poll pass + idle gap) — the backoff a lost frame sits out
/// before the reliability layer re-injects it.
const RETX_PASSES: u64 = 8;

/// Per-leg lock overhead of a mode: (submit, transmit, delivery).
fn lock_overhead_ns(costs: &SimCosts, mode: &str) -> (u64, u64, u64) {
    let c = costs.lock_cycle_ns;
    match mode {
        "singlethread" => (0, 0, 0),
        // The library-wide lock is also the wait loop's lock: each leg
        // pays its own cycle plus one contended cycle spent waiting for
        // the peer's poll pass to release it (the paper's Fig 3 gap).
        "coarse" => (2 * c, 2 * c, 2 * c),
        // Sharded locks: collect shard, driver section, rx shard — one
        // uncontended cycle each.
        "fine" | "fine-loss" => (c, c, c),
        other => panic!("unknown breakdown mode: {other}"),
    }
}

/// Synthesizes the span-event trace of one eager message under `mode`
/// on a virtual clock starting at 1 ns. Span 1 is the send, span 2 the
/// matched receive; the receive side's events carry the sender's span
/// exactly like the real wire-header join.
pub fn mode_trace(costs: SimCosts, mode: &str) -> Trace {
    let (l_submit, l_tx, l_rx) = lock_overhead_ns(&costs, mode);
    let wire = WireModel::myri_10g();
    let half_submit = costs.submit_ns / 2;
    let send: u64 = 1;
    let recv: u64 = 2;

    let mut events = Vec::new();
    let mut push = |ts: u64, id: EventId, a: u64, b: u64| {
        events.push(TraceEvent { ts, id, a, b });
    };

    // Submit: API entry, collect-queue insertion.
    let t0 = 1;
    push(t0, EventId::SpanSubmit, send, 0);
    let m1 = t0 + l_submit + half_submit + costs.enqueue_ns;
    push(m1, EventId::SpanCollect, send, 1);
    // Transmit: optimization pass arranges the packet, driver injects.
    let m2 = m1 + l_tx + half_submit;
    push(m2, EventId::SpanWireTx, send, 0);
    // Eager sends complete locally on injection.
    push(m2 + costs.enqueue_ns, EventId::SpanComplete, send, 0);
    // Reliability: in fine-loss the first copy is lost; the retransmit
    // timer re-injects after its backoff.
    let last_tx = if mode == "fine-loss" {
        let retx = m2 + RETX_PASSES * (costs.poll_pass_ns + costs.idle_poll_gap_ns);
        push(retx, EventId::SpanRetx, send, 1);
        retx
    } else {
        m2
    };
    // Wire: serialization + propagation, then the receiver's poll loop
    // has to come around (half a pass on average; modeled as one pass).
    let serialize = (PAYLOAD_BYTES as f64 * wire.ns_per_byte) as u64;
    let m4 = last_tx + wire.per_packet_ns + serialize + wire.latency_ns + costs.poll_pass_ns;
    push(m4, EventId::SpanWireRx, send, 1);
    // Delivery: matching scan, rx-shard crossing, completion hand-off.
    let deliver = m4 + costs.match_scan_ns + l_rx;
    push(deliver, EventId::SpanDeliver, send, recv);
    push(deliver + costs.enqueue_ns, EventId::SpanComplete, recv, 0);

    Trace {
        threads: vec![ThreadTrace {
            thread: 0,
            name: format!("breakdown-{mode}"),
            dropped: 0,
            events,
        }],
    }
}

/// The critical-path decomposition of `mode`'s modeled message, via the
/// production assembler.
pub fn mode_breakdown(costs: SimCosts, mode: &str) -> Breakdown {
    let timelines = assemble(&mode_trace(costs, mode));
    let all = Breakdown::all(&timelines);
    assert_eq!(all.len(), 1, "the model emits exactly one send span");
    all[0].1
}

/// `(mode, breakdown)` for every mode, in [`MODES`] order.
pub fn all_breakdowns(costs: SimCosts) -> Vec<(&'static str, Breakdown)> {
    MODES
        .iter()
        .map(|&m| (m, mode_breakdown(costs, m)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_sum_exactly_for_every_mode() {
        for (mode, b) in all_breakdowns(SimCosts::paper()) {
            let sum: u64 = b.components().iter().map(|(_, v)| v).sum();
            assert_eq!(sum, b.total_ns, "mode {mode}");
            assert!(b.total_ns > 0, "mode {mode}");
        }
    }

    #[test]
    fn locking_modes_order_as_the_paper_says() {
        let costs = SimCosts::paper();
        let single = mode_breakdown(costs, "singlethread").total_ns;
        let fine = mode_breakdown(costs, "fine").total_ns;
        let coarse = mode_breakdown(costs, "coarse").total_ns;
        assert!(single < fine, "no locking beats fine-grain");
        assert!(fine < coarse, "fine-grain beats coarse-grain");
    }

    #[test]
    fn loss_shows_up_as_retransmit_not_wire() {
        let costs = SimCosts::paper();
        let fine = mode_breakdown(costs, "fine");
        let loss = mode_breakdown(costs, "fine-loss");
        assert_eq!(fine.retransmit_ns, 0);
        assert!(loss.retransmit_ns > 0);
        assert_eq!(fine.wire_ns, loss.wire_ns, "wire cost is loss-independent");
        assert_eq!(fine.submit_ns, loss.submit_ns);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = mode_breakdown(SimCosts::paper(), "coarse");
        let b = mode_breakdown(SimCosts::paper(), "coarse");
        assert_eq!(a, b);
    }
}
