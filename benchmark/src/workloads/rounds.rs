//! `stream_eager`, `bulk_rdv` and `lossy_stream`: one-way rounds of
//! `window` messages on each of `flows` gates, one thread posting and
//! co-polling until the round has drained.

use std::sync::Arc;

use bytes::Bytes;

use nm_core::{CommCore, CoreConfig, GateId, ReliabilityConfig, Request};
use nm_fabric::{
    ChaosDriver, ClockSource, Driver, FaultPlan, LoopbackDriver, SimNic, SimNicDriver, WireModel,
};

use super::{copoll, ideal_pair, pair_over, run_alone, Flow, RepOutput, RepParams, Stall, TAG};
use crate::payload::{Checker, Failures, Pool};
use crate::trace::{now_ns, Probe, SpanKind};

/// Shape of a round.
#[derive(Debug, Clone, Copy)]
struct Shape {
    flows: usize,
    window: usize,
    payload_len: usize,
    pool_len: usize,
    /// Odd flows post their receives only after the round's sends are
    /// injected and the receiver has drained the wire, so their
    /// messages take the unexpected-message path.
    odd_flows_post_late: bool,
    warm_up_units: u64,
}

/// One thread's rounds from core `a` to core `b`. A timed unit is
/// `ROUNDS` rounds back to back and carries `MSGS` messages
/// (`ROUNDS * flows * window`), both fixed per workload.
struct Rounds<'a, const MSGS: u64, const ROUNDS: u64> {
    a: &'a CommCore,
    b: &'a CommCore,
    shape: Shape,
    pools: &'a [Pool],
    checkers: Vec<Checker<'a>>,
    sent: u64,
    /// Next round's payloads, flow-major.
    staged: Vec<Bytes>,
    sends: Vec<Request>,
    /// This round's receives and deliveries, flow-major.
    recvs: Vec<Vec<Request>>,
    delivered: Vec<Vec<Option<Bytes>>>,
}

impl<'a, const MSGS: u64, const ROUNDS: u64> Rounds<'a, MSGS, ROUNDS> {
    fn new(a: &'a CommCore, b: &'a CommCore, shape: Shape, pools: &'a [Pool]) -> Self {
        assert_eq!(MSGS as usize, ROUNDS as usize * shape.flows * shape.window);
        assert_eq!(pools.len(), shape.flows);
        let mut rounds = Rounds {
            a,
            b,
            shape,
            pools,
            checkers: pools.iter().map(Checker::new).collect(),
            sent: 0,
            staged: Vec::with_capacity(MSGS as usize),
            sends: Vec::with_capacity(MSGS as usize),
            recvs: (0..shape.flows)
                .map(|_| Vec::with_capacity(shape.window))
                .collect(),
            delivered: (0..shape.flows)
                .map(|_| Vec::with_capacity(ROUNDS as usize * shape.window))
                .collect(),
        };
        rounds.stage();
        rounds
    }

    /// Stages the payloads of the next unit: round-major, then flow-major.
    fn stage(&mut self) {
        for _ in 0..ROUNDS {
            for pool in self.pools {
                for w in 0..self.shape.window as u64 {
                    self.staged.push(pool.get(self.sent + w));
                }
            }
            self.sent += self.shape.window as u64;
        }
    }

    #[inline]
    fn post_recvs<P: Probe>(&mut self, p: &mut P, flow: usize) -> Result<(), Stall> {
        for _ in 0..self.shape.window {
            let b = self.b;
            let r = p
                .call(SpanKind::Irecv, || b.irecv(GateId(flow), TAG))
                .map_err(|_| Stall)?;
            if P::ON {
                p.posted_recv(r.is_complete());
            }
            self.recvs[flow].push(r);
        }
        Ok(())
    }

    /// One round: post, co-poll until it has drained, take the data.
    #[inline]
    fn round<P: Probe>(&mut self, p: &mut P) -> Result<(), Stall> {
        let (a, b, shape) = (self.a, self.b, self.shape);
        let late = |flow: usize| shape.odd_flows_post_late && flow % 2 == 1;
        self.sends.clear();
        self.recvs.iter_mut().for_each(Vec::clear);
        for flow in (0..shape.flows).filter(|&f| !late(f)) {
            self.post_recvs(p, flow)?;
        }
        let per_round = shape.flows * shape.window;
        for (i, payload) in self.staged.drain(..per_round).enumerate() {
            let gate = GateId(i / shape.window);
            let s = p
                .call(SpanKind::Isend, || a.isend(gate, TAG, payload))
                .map_err(|_| Stall)?;
            self.sends.push(s);
        }
        if shape.odd_flows_post_late {
            while p.progress(SpanKind::ProgressB, || b.progress()) > 0 {}
            for flow in (0..shape.flows).filter(|&f| late(f)) {
                self.post_recvs(p, flow)?;
            }
        }
        // Requests complete roughly in posting order: remember how far
        // the scan got instead of rescanning every pass.
        let (sends, recvs) = (&self.sends, &self.recvs);
        let progress = std::cell::Cell::new((0usize, 0usize, 0usize));
        copoll(p, a, b, || {
            let (mut s, mut flow, mut r) = progress.get();
            while s < sends.len() && sends[s].is_complete() {
                s += 1;
            }
            while flow < recvs.len() {
                while r < recvs[flow].len() && recvs[flow][r].is_complete() {
                    r += 1;
                }
                if r < recvs[flow].len() {
                    break;
                }
                (flow, r) = (flow + 1, 0);
            }
            progress.set((s, flow, r));
            s == sends.len() && flow == recvs.len()
        })?;
        for (flow, recvs) in self.recvs.iter().enumerate() {
            for r in recvs {
                let data = p.call(SpanKind::TakeData, || r.take_data());
                self.delivered[flow].push(data);
            }
        }
        Ok(())
    }
}

impl<const MSGS: u64, const ROUNDS: u64> Flow for Rounds<'_, MSGS, ROUNDS> {
    const MSGS_PER_UNIT: u64 = MSGS;
    const LEGS: u64 = ROUNDS;

    #[inline]
    fn unit<P: Probe>(&mut self, p: &mut P) -> Result<(), Stall> {
        for _ in 0..ROUNDS {
            self.round(p)?;
        }
        Ok(())
    }

    fn settle(&mut self) {
        for (checker, delivered) in self.checkers.iter_mut().zip(&mut self.delivered) {
            // A stalled unit delivered fewer payloads than were due.
            let due = ROUNDS as usize * self.shape.window;
            let mut got = delivered.drain(..);
            for _ in 0..due {
                checker.check(got.next().flatten().as_deref());
            }
        }
        self.staged.clear();
        self.stage();
    }

    fn failures(&self) -> Failures {
        self.checkers
            .iter()
            .fold(Failures::default(), |acc, c| acc.merged(c.failures))
    }
}

fn run<P: Probe, const MSGS: u64, const ROUNDS: u64>(
    params: &RepParams,
    t_start: u64,
    shape: Shape,
    a: &CommCore,
    b: &CommCore,
) -> RepOutput {
    let pools: Vec<Pool> = (0..shape.flows as u64)
        .map(|flow| Pool::new(params.seed, flow, shape.payload_len, shape.pool_len))
        .collect();
    let mut flow = Rounds::<MSGS, ROUNDS>::new(a, b, shape, &pools);
    run_alone::<_, P>(
        params,
        t_start,
        &mut flow,
        shape.warm_up_units,
        shape.payload_len,
        a,
        b,
    )
}

/// `stream_eager`: 4 flows on 4 gates, window 32 x 8 B per flow per
/// round; half the messages arrive before their receive is posted.
pub fn stream_eager<P: Probe>(params: &RepParams) -> RepOutput {
    let t_start = now_ns();
    let shape = Shape {
        flows: 4,
        window: 32,
        payload_len: 8,
        pool_len: 4096,
        odd_flows_post_late: true,
        warm_up_units: 8,
    };
    let config = CoreConfig::default().locking(params.mode.locking());
    let (a, b) = ideal_pair(config, shape.flows);
    run::<P, 128, 1>(params, t_start, shape, &a, &b)
}

/// `bulk_rdv`: 1 MiB messages, one in flight. The default eager
/// threshold and chunk size (16 KiB) make it a rendezvous of 64 chunks.
pub fn bulk_rdv<P: Probe>(params: &RepParams) -> RepOutput {
    let t_start = now_ns();
    let shape = Shape {
        flows: 1,
        window: 1,
        payload_len: 1 << 20,
        pool_len: 8,
        odd_flows_post_late: false,
        // 16 messages = 1024 data chunks.
        warm_up_units: 16,
    };
    let config = CoreConfig::default().locking(params.mode.locking());
    let (a, b) = ideal_pair(config, 1);
    run::<P, 1, 1>(params, t_start, shape, &a, &b)
}

/// The wire under a [`windowed_stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamWire {
    /// `LoopbackDriver::pair(256)`, as `lossy_stream` uses.
    Loopback,
    /// An ideal `SimNic` rail, which feeds the `fabric.*` counters.
    SimNic,
}

const LOSSY_SHAPE: Shape = Shape {
    flows: 1,
    window: 32,
    payload_len: 1024,
    pool_len: 4096,
    odd_flows_post_late: false,
    // 4 units = 32 rounds = 1024 messages.
    warm_up_units: 4,
};

/// 1 KiB eager messages, window 32, one gate whose wire is wrapped both
/// ways in a `ChaosDriver` dropping each packet with probability `loss`.
/// `lossy_stream` is this with reliability on over loopback at 2 % loss;
/// the `core.rel_tx_amplification` probes reuse it over a `SimNic`.
pub fn windowed_stream<P: Probe>(
    params: &RepParams,
    wire: StreamWire,
    reliable: bool,
    loss: f64,
) -> RepOutput {
    let t_start = now_ns();
    let plan =
        |side: u64| FaultPlan::new(params.seed.wrapping_mul(2).wrapping_add(side)).loss(loss);
    let (da, db): (Arc<dyn Driver>, Arc<dyn Driver>) = match wire {
        StreamWire::Loopback => {
            let (la, lb) = LoopbackDriver::pair(256);
            (
                Arc::new(ChaosDriver::new(la, plan(0))),
                Arc::new(ChaosDriver::new(lb, plan(1))),
            )
        }
        StreamWire::SimNic => {
            let (na, nb) = SimNic::pair("rail0", WireModel::ideal(), ClockSource::real());
            (
                Arc::new(ChaosDriver::new(SimNicDriver::new(na, true), plan(0))),
                Arc::new(ChaosDriver::new(SimNicDriver::new(nb, true), plan(1))),
            )
        }
    };
    let mut config = CoreConfig::default().locking(params.mode.locking());
    if reliable {
        config = config.reliability(ReliabilityConfig::enabled());
    }
    let (a, b) = pair_over(config, da, db);
    run::<P, 256, 8>(params, t_start, LOSSY_SHAPE, &a, &b)
}

/// `lossy_stream`: the only workload where the reliability layer runs.
pub fn lossy_stream<P: Probe>(params: &RepParams) -> RepOutput {
    windowed_stream::<P>(params, StreamWire::Loopback, true, 0.02)
}
