//! `bg_pingpong`: 8-byte round trips through the `nm-mpi` facade while
//! a progression thread on the second CPU makes all the progress.

use std::sync::Arc;

use nm_core::CommCore;
use nm_fabric::WireModel;
use nm_mpi::{Endpoint, World, WorldBuilder};
use nm_progress::{IdlePolicy, PollSource, ProgressEngine, ProgressionThread};
use nm_sync::WaitStrategy;

use super::{copoll, run_alone, Flow, Mode, RepOutput, RepParams, Stall, TAG};
use crate::payload::{Checker, Failures, Pool};
use crate::trace::{now_ns, Probe, SpanKind};

const PAYLOAD_LEN: usize = 8;
const POOL_LEN: usize = 4096;
const WARM_UP_UNITS: u64 = 1000;

/// How the application thread waits for its requests.
enum Wait {
    /// Never polls: spins on the request flags while the progression
    /// thread drives both ranks' cores.
    FlagOnly,
    /// Polls both ranks' cores itself (no progression thread).
    CoPoll(Arc<CommCore>, Arc<CommCore>),
}

/// Round trips between the two ranks of a world, through `Endpoint`.
struct FacadePingPong<'a> {
    to_b: Endpoint,
    to_a: Endpoint,
    wait: Wait,
    pool: &'a Pool,
    checker: Checker<'a>,
    sent: u64,
    back: Option<bytes::Bytes>,
}

impl<'a> FacadePingPong<'a> {
    fn new(world: &World, wait: Wait, pool: &'a Pool) -> Self {
        let (rank0, rank1) = world.comm_pair();
        FacadePingPong {
            to_b: rank0.sole_peer().expect("two-rank world"),
            to_a: rank1.sole_peer().expect("two-rank world"),
            wait,
            pool,
            checker: Checker::new(pool),
            sent: 0,
            back: None,
        }
    }

    #[inline]
    fn leg<P: Probe>(
        &self,
        p: &mut P,
        from: &Endpoint,
        to: &Endpoint,
        data: &[u8],
    ) -> Result<bytes::Bytes, Stall> {
        let r = p
            .call(SpanKind::Irecv, || to.irecv(TAG))
            .map_err(|_| Stall)?;
        if P::ON {
            p.posted_recv(r.is_complete());
        }
        let s = p
            .call(SpanKind::Isend, || from.isend(TAG, data))
            .map_err(|_| Stall)?;
        match &self.wait {
            Wait::FlagOnly => p.call(SpanKind::WaitFlag, || {
                r.wait_flag_only(WaitStrategy::Busy);
                s.wait_flag_only(WaitStrategy::Busy);
            }),
            Wait::CoPoll(a, b) => copoll(p, a, b, || r.is_complete() && s.is_complete())?,
        }
        p.call(SpanKind::TakeData, || r.take_data()).ok_or(Stall)
    }
}

impl Flow for FacadePingPong<'_> {
    const MSGS_PER_UNIT: u64 = 2;
    const LEGS: u64 = 2;

    #[inline]
    fn unit<P: Probe>(&mut self, p: &mut P) -> Result<(), Stall> {
        // The facade takes `&[u8]` and copies, as an MPI send does.
        let payload = self.pool.get(self.sent);
        let there = self.leg(p, &self.to_b, &self.to_a, &payload)?;
        self.back = Some(self.leg(p, &self.to_a, &self.to_b, &there)?);
        Ok(())
    }

    fn settle(&mut self) {
        self.checker.check(self.back.take().as_deref());
        self.sent += 1;
    }

    fn failures(&self) -> Failures {
        self.checker.failures
    }
}

fn world(mode: Mode) -> World {
    WorldBuilder::new(mode.thread_level())
        .rails(vec![WireModel::ideal()])
        .wait(WaitStrategy::Busy)
        .build(2)
        .expect("a two-rank world over one ideal rail is a valid configuration")
}

fn run<P: Probe>(params: &RepParams, background: bool) -> RepOutput {
    let t_start = now_ns();
    let world = world(params.mode);
    let (a, b) = (world.core(0), world.core(1));
    let _progression = background.then(|| {
        let engine = Arc::new(ProgressEngine::new());
        engine.register(Arc::clone(&a) as Arc<dyn PollSource>);
        engine.register(Arc::clone(&b) as Arc<dyn PollSource>);
        ProgressionThread::spawn(engine, Some(1), IdlePolicy::Spin)
    });
    let wait = if background {
        Wait::FlagOnly
    } else {
        Wait::CoPoll(Arc::clone(&a), Arc::clone(&b))
    };
    let pool = Pool::new(params.seed, 0, PAYLOAD_LEN, POOL_LEN);
    let mut flow = FacadePingPong::new(&world, wait, &pool);
    let mut out = run_alone::<_, P>(
        params,
        t_start,
        &mut flow,
        WARM_UP_UNITS,
        PAYLOAD_LEN,
        &a,
        &b,
    );
    out.threads = 1 + usize::from(background);
    // Dropping `_progression` here stops and joins the thread.
    out
}

/// `bg_pingpong`. In the coarse (`Serialized`) and fine (`Multiple`)
/// levels the application thread never polls: it waits on the request
/// flags while a spinning `ProgressionThread` on CPU 1 drives both
/// ranks' cores through one `ProgressEngine`. `Single` admits no second
/// thread, so there the application thread polls both cores itself:
/// the no-background-progress baseline through the same facade.
pub fn bg_pingpong<P: Probe>(params: &RepParams) -> RepOutput {
    run::<P>(params, params.mode != Mode::Single)
}

/// The facade round trip co-polled by its caller in any mode; with the
/// core-level `pingpong_eager` it prices the facade itself.
pub fn copolled_facade_pingpong<P: Probe>(params: &RepParams) -> RepOutput {
    run::<P>(params, false)
}
