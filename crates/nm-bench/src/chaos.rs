//! Chaos sweep on the real library: goodput and p99 delivery latency of
//! a reliable `nm-core` pair against the fraction of data frames the
//! wire loses, coarse vs fine locking.
//!
//! Two cores with [`ReliabilityConfig::enabled`] share one Myri-10G rail
//! on a virtual clock. The receiver's driver is a [`ChaosDriver`] that
//! loses `loss_pm` ‰ of what arrives, i.e. data frames only: the sender
//! receives nothing but acks, and they arrive clean. One thread co-polls
//! both cores and time moves only when this harness advances it:
//!
//! * each core's step (its API calls plus one progression pass) costs
//!   [`SimCosts::poll_pass_ns`] plus [`SimCosts::lock_cycle_ns`] per lock
//!   the step acquired ([`LockPolicy::total_acquisitions`]), which is
//!   what separates coarse from fine;
//! * a round in which neither core handled an event jumps the clock to
//!   the next inbound delivery on either wire; with nothing in flight
//!   (a lost frame waiting out its retransmit timeout) the two steps'
//!   own charges are what move it.
//!
//! The sender keeps [`IN_FLIGHT`] messages submitted but not yet
//! received. Goodput is payload bytes over the virtual time the last
//! receive completed at; the p99 is over per-message latencies from
//! `isend` to the completion of its receive, which complete in order.
//!
//! [`LockPolicy::total_acquisitions`]: nm_core::LockPolicy::total_acquisitions

use std::sync::Arc;

use bytes::Bytes;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, LockingMode, ReliabilityConfig};
use nm_fabric::{ChaosDriver, ClockSource, Driver, FaultPlan, SimNic, SimNicDriver, WireModel};
use nm_sim::SimCosts;

use crate::Series;

/// Messages per run.
pub const MSGS: usize = 400;
/// Payload bytes per message.
pub const SIZE: usize = 1024;
/// Messages the sender keeps submitted but not yet received.
pub const IN_FLIGHT: usize = 16;
/// Virtual time after which a run is declared stuck.
const GIVE_UP_NS: u64 = 10_000_000_000;

const G: GateId = GateId(0);

/// The locking modes the sweep compares, in report order.
pub const MODES: [LockingMode; 2] = [LockingMode::Coarse, LockingMode::Fine];

/// Frame-loss rates (per-mille) swept: 0 % – 10 %.
pub fn loss_points() -> Vec<u32> {
    vec![0, 10, 20, 50, 100]
}

/// Per-point fault seed: a fixed constant xor the loss rate, so every
/// point draws its own reproducible pattern and both modes face the
/// same wire.
pub fn seed(loss_pm: u32) -> u64 {
    0xC7A0_5EED ^ u64::from(loss_pm)
}

/// Outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRun {
    /// Payload MB/s over the virtual completion time.
    pub goodput_mbps: f64,
    /// 99th percentile `isend` → receive-completion latency, µs.
    pub p99_us: f64,
    /// Frames the sender retransmitted.
    pub retransmits: u64,
    /// Message indices, in the order their receives completed.
    pub delivered: Vec<u64>,
}

/// One core's step: its API calls (`api`) and one progression pass,
/// charged on `clock`. Returns the events the pass handled.
fn step(core: &CommCore, clock: &ClockSource, costs: &SimCosts, api: impl FnOnce()) -> usize {
    let locks = core.lock_policy().total_acquisitions();
    api();
    let events = core.progress();
    let locks = core.lock_policy().total_acquisitions() - locks;
    clock.advance(costs.poll_pass_ns + costs.lock_cycle_ns * locks);
    events
}

/// Streams [`MSGS`] messages from one core to the other over a wire that
/// loses `loss_pm` ‰ of the data frames, drawn from `seed`.
pub fn run_once(costs: SimCosts, mode: LockingMode, loss_pm: u32, seed: u64) -> ChaosRun {
    let clock = ClockSource::manual();
    let (na, nb) = SimNic::pair("rail0", WireModel::myri_10g(), clock.clone());
    let plan = FaultPlan::new(seed).loss(f64::from(loss_pm) / 1000.0);
    let da: Arc<dyn Driver> = Arc::new(SimNicDriver::new(na, true));
    let db: Arc<dyn Driver> = Arc::new(ChaosDriver::new(SimNicDriver::new(nb, true), plan));
    let config = CoreConfig::default()
        .locking(mode)
        .reliability(ReliabilityConfig::enabled());
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::clone(&da)])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::clone(&db)])
        .build();

    // Same tag throughout: receives match in posting order, so receive
    // `i` completing with payload `i` is in-order, exactly-once delivery.
    let recvs: Vec<_> = (0..MSGS).map(|_| b.irecv(G, 0).expect("irecv")).collect();
    let mut sent_at = Vec::with_capacity(MSGS);
    let mut lats = Vec::with_capacity(MSGS);
    let mut delivered = Vec::with_capacity(MSGS);
    while delivered.len() < MSGS {
        let now = clock.now_ns();
        assert!(
            now < GIVE_UP_NS,
            "chaos run stuck at {} of {MSGS}",
            delivered.len()
        );
        let submit = (delivered.len() + IN_FLIGHT).min(MSGS) - sent_at.len();
        let mut events = step(&a, &clock, &costs, || {
            for _ in 0..submit {
                let mut payload = vec![0xA5; SIZE];
                payload[..8].copy_from_slice(&(sent_at.len() as u64).to_le_bytes());
                a.isend(G, 0, Bytes::from(payload)).expect("isend");
                sent_at.push(now);
            }
        });
        events += step(&b, &clock, &costs, || {});
        while let Some(r) = recvs.get(delivered.len()).filter(|r| r.is_complete()) {
            let data = r.take_data().expect("completed recv carries data");
            delivered.push(u64::from_le_bytes(data[..8].try_into().expect("8 bytes")));
            lats.push(clock.now_ns() - sent_at[lats.len()]);
        }
        if events == 0 && submit == 0 {
            let next = [&da, &db]
                .iter()
                .filter_map(|d| d.next_event_ns_vci(0))
                .min();
            if let Some(t) = next {
                clock.advance_to(t);
            }
        }
    }
    let done_ns = clock.now_ns();
    lats.sort_unstable();
    let p99_ns = lats[(lats.len() * 99).div_ceil(100) - 1];
    ChaosRun {
        goodput_mbps: (MSGS * SIZE) as f64 * 1e3 / done_ns as f64,
        p99_us: p99_ns as f64 / 1e3,
        retransmits: a.stats().retransmits.get(),
        delivered,
    }
}

/// The sweep: one `(goodput, p99)` series pair per locking mode, x the
/// loss rate in per-mille.
pub fn loss_sweep(costs: SimCosts, loss_pm: &[u32]) -> (Vec<Series>, Vec<Series>) {
    let mut goodput = Vec::new();
    let mut p99 = Vec::new();
    for mode in MODES {
        let runs: Vec<(usize, ChaosRun)> = loss_pm
            .iter()
            .map(|&pm| (pm as usize, run_once(costs, mode, pm, seed(pm))))
            .collect();
        let label = format!("{} locking", mode.label());
        goodput.push(Series {
            label: label.clone(),
            points: runs.iter().map(|(pm, r)| (*pm, r.goodput_mbps)).collect(),
        });
        p99.push(Series {
            label,
            points: runs.iter().map(|(pm, r)| (*pm, r.p99_us)).collect(),
        });
    }
    (goodput, p99)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(mode: LockingMode, pm: u32) -> ChaosRun {
        run_once(SimCosts::paper(), mode, pm, seed(pm))
    }

    #[test]
    fn runs_are_deterministic() {
        assert_eq!(run(LockingMode::Fine, 20), run(LockingMode::Fine, 20));
    }

    #[test]
    fn every_message_arrives_once_and_in_order() {
        let in_order: Vec<u64> = (0..MSGS as u64).collect();
        for mode in MODES {
            for pm in loss_points() {
                assert_eq!(run(mode, pm).delivered, in_order, "{mode:?} at {pm}‰");
            }
        }
    }

    #[test]
    fn only_a_lossy_wire_provokes_retransmits() {
        for mode in MODES {
            for pm in loss_points() {
                let r = run(mode, pm).retransmits;
                assert_eq!(r > 0, pm > 0, "{mode:?} at {pm}‰: {r} retransmits");
            }
        }
    }

    #[test]
    fn loss_costs_goodput() {
        for mode in MODES {
            let (g0, g100) = (run(mode, 0).goodput_mbps, run(mode, 100).goodput_mbps);
            assert!(
                g100 < g0,
                "{mode:?}: 10 % loss {g100} MB/s, lossless {g0} MB/s"
            );
        }
    }
}
