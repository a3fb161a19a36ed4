//! `pingpong_eager` and `concurrent_flows`: 8-byte round trips at the
//! `nm-core` level, co-polled by the thread that posted them.

use std::sync::Barrier;

use bytes::Bytes;

use nm_core::{CommCore, CoreConfig, GateId};

use super::{
    assemble, copoll, drive, ideal_pair, pin, run_alone, sample_buffer, warm_up, CountsStart, Flow,
    Mode, RepOutput, RepParams, Stall, TAG,
};
use crate::payload::{Checker, Failures, Pool};
use crate::trace::{now_ns, Probe, SpanKind};

const PAYLOAD_LEN: usize = 8;
const POOL_LEN: usize = 4096;
const WARM_UP_UNITS: u64 = 1000;

/// One flow of round trips on one gate of a core pair: `a` sends,
/// `b` echoes what it received, `a` checks what came back.
pub struct PingPong<'a> {
    a: &'a CommCore,
    b: &'a CommCore,
    gate: GateId,
    pool: &'a Pool,
    checker: Checker<'a>,
    sent: u64,
    staged: Option<Bytes>,
    back: Option<Bytes>,
}

impl<'a> PingPong<'a> {
    pub fn new(a: &'a CommCore, b: &'a CommCore, gate: GateId, pool: &'a Pool) -> Self {
        PingPong {
            a,
            b,
            gate,
            pool,
            checker: Checker::new(pool),
            sent: 1,
            staged: Some(pool.get(0)),
            back: None,
        }
    }

    /// One leg: `to` posts the receive, `from` sends, both are
    /// co-polled until both requests complete, the data is taken.
    #[inline]
    fn leg<P: Probe>(
        &self,
        p: &mut P,
        from: &CommCore,
        to: &CommCore,
        data: Bytes,
    ) -> Result<Bytes, Stall> {
        let gate = self.gate;
        let r = p
            .call(SpanKind::Irecv, || to.irecv(gate, TAG))
            .map_err(|_| Stall)?;
        if P::ON {
            p.posted_recv(r.is_complete());
        }
        let s = p
            .call(SpanKind::Isend, || from.isend(gate, TAG, data))
            .map_err(|_| Stall)?;
        copoll(p, self.a, self.b, || r.is_complete() && s.is_complete())?;
        p.call(SpanKind::TakeData, || r.take_data()).ok_or(Stall)
    }
}

impl Flow for PingPong<'_> {
    const MSGS_PER_UNIT: u64 = 2;
    const LEGS: u64 = 2;

    #[inline]
    fn unit<P: Probe>(&mut self, p: &mut P) -> Result<(), Stall> {
        let payload = self.staged.take().ok_or(Stall)?;
        let there = self.leg(p, self.a, self.b, payload)?;
        self.back = Some(self.leg(p, self.b, self.a, there)?);
        Ok(())
    }

    fn settle(&mut self) {
        // The echo is the very buffer `b` received, so one comparison
        // of what came back verifies both legs.
        self.checker.check(self.back.take().as_deref());
        self.staged = Some(self.pool.get(self.sent));
        self.sent += 1;
    }

    fn failures(&self) -> Failures {
        self.checker.failures
    }
}

/// Two flows driven alternately by one thread: the sequential baseline
/// of `concurrent_flows`.
struct Alternating<'a> {
    flows: [PingPong<'a>; 2],
    turn: usize,
}

impl Flow for Alternating<'_> {
    const MSGS_PER_UNIT: u64 = 2;
    const LEGS: u64 = 2;

    #[inline]
    fn unit<P: Probe>(&mut self, p: &mut P) -> Result<(), Stall> {
        self.flows[self.turn].unit(p)
    }

    fn settle(&mut self) {
        self.flows[self.turn].settle();
        self.turn ^= 1;
    }

    fn failures(&self) -> Failures {
        self.flows[0].failures().merged(self.flows[1].failures())
    }
}

/// `pingpong_eager`: one gate, one thread, window of one.
pub fn pingpong_eager<P: Probe>(params: &RepParams) -> RepOutput {
    let t_start = now_ns();
    let config = CoreConfig::default().locking(params.mode.locking());
    let (a, b) = ideal_pair(config, 1);
    let pool = Pool::new(params.seed, 0, PAYLOAD_LEN, POOL_LEN);
    let mut flow = PingPong::new(&a, &b, GateId(0), &pool);
    run_alone::<_, P>(
        params,
        t_start,
        &mut flow,
        WARM_UP_UNITS,
        PAYLOAD_LEN,
        &a,
        &b,
    )
}

/// `concurrent_flows`: one shared pair of cores with two gates. In the
/// coarse and fine modes two threads each run the `pingpong_eager` loop
/// on a gate of their own, both calling `progress` on the shared cores.
/// Single mode admits one thread only, so there one thread alternates
/// between the two gates: the baseline the two-thread rates compare to.
pub fn concurrent_flows<P: Probe>(params: &RepParams) -> RepOutput {
    let t_start = now_ns();
    let config = CoreConfig::default().locking(params.mode.locking());
    let (a, b) = ideal_pair(config, 2);
    let pools = [0, 1].map(|flow| Pool::new(params.seed, flow, PAYLOAD_LEN, POOL_LEN));
    let flow = |t: usize| PingPong::new(&a, &b, GateId(t), &pools[t]);

    if params.mode == Mode::Single {
        let mut both = Alternating {
            flows: [flow(0), flow(1)],
            turn: 0,
        };
        let warm_up_units = 2 * WARM_UP_UNITS;
        return run_alone::<_, P>(
            params,
            t_start,
            &mut both,
            warm_up_units,
            PAYLOAD_LEN,
            &a,
            &b,
        );
    }

    // Workers warm up, meet the main thread at `warm` so it can read the
    // counters, and start their timed loops together at `go`.
    let (warm, go) = (Barrier::new(3), Barrier::new(3));
    let (driven, setup_ns, counts) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let (warm, go, flow) = (&warm, &go, &flow);
                scope.spawn(move || {
                    pin(t);
                    let mut flow = flow(t);
                    let mut probe = P::with_capacity(params.span_capacity / 2);
                    let samples = sample_buffer(params.duration);
                    warm_up(&mut flow, WARM_UP_UNITS);
                    warm.wait();
                    go.wait();
                    let driven = drive(&mut flow, &mut probe, params.duration, samples);
                    (driven, probe, flow.failures())
                })
            })
            .collect();
        warm.wait();
        let counts = CountsStart::take();
        let setup_ns = now_ns() - t_start;
        go.wait();
        let driven: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("a flow thread panicked"))
            .collect();
        (driven, setup_ns, counts.finish(&[&a, &b]))
    });
    let failures = driven
        .iter()
        .fold(Failures::default(), |acc, (_, _, f)| acc.merged(*f));
    let driven = driven.into_iter().map(|(d, p, _)| (d, p)).collect();
    assemble::<PingPong, P>(
        params,
        setup_ns,
        PAYLOAD_LEN,
        driven,
        failures,
        counts,
        &a,
        &b,
    )
}
