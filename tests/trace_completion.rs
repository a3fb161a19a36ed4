//! Completion-delivery tracing under the deterministic clock: N
//! concurrent async operations (plus one queue-completion and one
//! handler-completion receive) must produce *exact* counts of the
//! completion-surface events — `CompletionDeliver`, `CqPush`/`CqPop`,
//! `HandlerRun`, `WakerRegister`/`WakerWake`.
//!
//! The async batch is driven by the deterministic `block_on_with`
//! executor: poll rounds alternate with explicit `progress()` calls, so
//! the number of register/re-register rounds is fixed by construction,
//! not by scheduling.
//!
//! Single test on purpose: the recording is process-wide, and a sibling
//! test running beside it would perturb the counts.

use bytes::Bytes;

use nomad::core::{Completion, CompletionQueue, GateId};
use nomad::fabric::{ClockSource, WireModel};
use nomad::metrics::trace::{self, EventId};
use nomad::mpi::exec::{block_on_with, join_all};
use nomad::mpi::{ThreadLevel, World, WorldBuilder};
use nomad::sync::WaitStrategy;

const OPS: u64 = 16;

#[test]
fn async_batch_has_exact_completion_event_counts() {
    let clock = ClockSource::manual();
    let ClockSource::Manual(ns) = clock.clone() else {
        unreachable!("a manual clock")
    };
    let config = WorldBuilder::new(ThreadLevel::Multiple)
        .clock(clock)
        .rails(vec![WireModel::ideal()]);
    let world = World::with_config(2, config);
    let (a, b) = world.comm_pair();
    let (to_b, to_a) = (a.sole_peer().unwrap(), b.sole_peer().unwrap());

    let rec = trace::record_virtual(ns);

    // --- queue + handler completions through the core API -------------
    let cq = CompletionQueue::new();
    let rq = b
        .core()
        .irecv_with(GateId(0), 100, Completion::queue(&cq))
        .expect("irecv (queue)");
    let handler_ran = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let hr = std::sync::Arc::clone(&handler_ran);
    let rh = b
        .core()
        .irecv_with(
            GateId(0),
            101,
            Completion::handler(move |ev| {
                hr.store(ev.id(), std::sync::atomic::Ordering::Release);
            }),
        )
        .expect("irecv (handler)");
    for tag in [100u64, 101] {
        a.core()
            .isend(GateId(0), tag, Bytes::from_static(b"x"))
            .expect("isend");
    }
    a.core().progress();
    b.core().progress();
    let ev = cq.wait(WaitStrategy::Busy);
    assert_eq!(ev.id(), rq.id());
    assert!(rh.is_complete());
    assert_eq!(
        handler_ran.load(std::sync::atomic::Ordering::Acquire),
        rh.id()
    );

    // --- N concurrent async ops over the endpoint facade --------------
    let recvs: Vec<_> = (0..OPS).map(|i| to_a.recv_async(i)).collect();
    let sends: Vec<_> = (0..OPS)
        .map(|i| to_b.send_async(i, b"async payload"))
        .collect();
    let (got, sent) = block_on_with(
        async { (join_all(recvs).await, join_all(sends).await) },
        || {
            a.core().progress();
            b.core().progress();
        },
    );
    assert_eq!(got.len() as u64, OPS);
    for r in got {
        assert_eq!(&r.expect("recv")[..], b"async payload");
    }
    for s in sent {
        s.expect("send");
    }

    assert!(trace::enabled());
    let trace = rec.finish();
    assert_eq!(trace.dropped(), 0, "ring wrapped mid-test");

    // Every completed request delivers exactly once: 2 plain-flag sends,
    // 1 queue recv, 1 handler recv, and 2*OPS waker-path async ops.
    assert_eq!(trace.count(EventId::CompletionDeliver), 2 * OPS + 4);
    assert_eq!(trace.count(EventId::CqPush), 1);
    assert_eq!(trace.count(EventId::CqPop), 1);
    assert_eq!(trace.count(EventId::HandlerRun), 1);

    let merged = trace.merged();
    // Delivery paths: b = 0 flag, 1 queue, 2 handler, 3 waker.
    let path = |p: u64| {
        merged
            .iter()
            .filter(|e| e.id == EventId::CompletionDeliver && e.b == p)
            .count() as u64
    };
    assert_eq!(path(0), 2);
    assert_eq!(path(1), 1);
    assert_eq!(path(2), 1);
    assert_eq!(path(3), 2 * OPS);

    // Every async op wakes exactly once at delivery. Eager sends over
    // the ideal wire complete inside `send_async` itself — before the
    // future is first polled — so their wakes find no registration
    // (b = 0) and the futures never register. Receives are pending at
    // the first poll round, register once, and the progress hook then
    // delivers them into an armed waker (b = 1); the second round
    // observes completion. The lockstep executor fixes these counts.
    assert_eq!(trace.count(EventId::WakerWake), 2 * OPS);
    assert_eq!(trace.count(EventId::WakerRegister), OPS);
    let wakes = |found: u64| {
        merged
            .iter()
            .filter(|e| e.id == EventId::WakerWake && e.b == found)
            .count() as u64
    };
    assert_eq!(wakes(1), OPS, "every posted recv woke its armed waker");
    assert_eq!(wakes(0), OPS, "eager sends completed before registration");

    // Deterministic clock: no wall time leaked into any record.
    assert!(merged.iter().all(|e| e.ts == 0), "real clock leaked in");
}
