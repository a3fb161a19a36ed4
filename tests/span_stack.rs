//! Span-propagation regression gate: message-lifecycle spans must ride
//! the existing synchronization, not add their own.
//!
//! The same lockstep pingpong as `trace_integration.rs`, but pinning
//! the *lock* counts next to the *span* counts: if threading span ids
//! through submit → collect → wire → delivery → completion ever grows
//! a new lock acquisition on the fast path, the `LockAcquire` count
//! here moves and the test fails. Span emissions themselves are
//! lock-free ring writes; the async waker's span rides the waker
//! table's existing shard-lock acquisition.
//!
//! Single test on purpose: the recording is process-wide, and a sibling
//! test running beside it would perturb the counts.

use std::collections::BTreeSet;
use std::sync::Arc;

use nomad::fabric::{ClockSource, WireModel};
use nomad::metrics::spans::{assemble, Breakdown};
use nomad::metrics::trace::{self, EventId};
use nomad::mpi::{ThreadLevel, World, WorldBuilder};
use nomad::sync::Semaphore;

const PINGPONGS: u64 = 16;

/// `LockAcquire` count of this exact workload as the lock path alone
/// determines it. Spans must not move it.
///
/// 624 when span propagation landed; re-pinned to 368 when idle passes
/// became read-only (length hints in front of the collect queue and the
/// lane transfer lists, a lock-free empty check in front of the NIC
/// stash): 8 lock cycles fewer per message over 32 messages, none of
/// them span-related.
/// Re-pinned to 288 when a request's outcome stopped living in spinlock
/// cells: 80 fewer, the tag and data cells of all 32 receives (64) and
/// the data cell of the 16 echoed payloads taken (16); the pinger never
/// takes its echoes' payloads.
/// Re-pinned to 224 when a lane got its doorbell: 64 fewer, two `Driver`
/// sections per message over 32 messages — the sender's pass no longer
/// enters its lane to find nothing inbound, and the receiver's pass no
/// longer enters it again to find no second packet.
/// `crates/core/tests/lock_budget.rs` pins the same path per lock family.
const BASELINE_LOCK_ACQUIRES: u64 = 224;

#[test]
fn span_propagation_adds_no_lock_acquisitions() {
    let config = WorldBuilder::new(ThreadLevel::Multiple)
        .clock(ClockSource::manual())
        .rails(vec![WireModel::ideal()]);
    let world = World::with_config(2, config);
    let (a, b) = world.comm_pair();
    let (to_b, to_a) = (a.sole_peer().unwrap(), b.sole_peer().unwrap());

    let sent = Arc::new(Semaphore::new(0));
    let echoed = Arc::new(Semaphore::new(0));
    let (sent2, echoed2) = (Arc::clone(&sent), Arc::clone(&echoed));

    let rec = trace::record();
    let echo = std::thread::spawn(move || {
        for i in 0..PINGPONGS {
            let r = to_a.irecv(i).expect("echo irecv");
            sent2.acquire();
            b.core().progress();
            assert!(r.is_complete(), "ping {i} not delivered");
            let msg = r.take_data().expect("ping payload");
            let s = to_a.isend_bytes(i, msg).expect("echo isend");
            b.core().progress();
            assert!(s.is_complete(), "echo {i} not injected");
            echoed2.release();
        }
    });
    for i in 0..PINGPONGS {
        let r = to_b.irecv(i).expect("irecv");
        let s = to_b.isend(i, b"span payload").expect("isend");
        a.core().progress();
        assert!(s.is_complete(), "eager send completes on injection");
        sent.release();
        echoed.acquire();
        a.core().progress();
        assert!(r.is_complete(), "echo {i} not delivered");
    }
    echo.join().unwrap();
    let trace = rec.finish();
    assert_eq!(trace.dropped(), 0, "ring wrapped mid-test");

    // The locking gate: span propagation is piggybacked on existing
    // critical sections, so the lock counts equal the pre-span baseline.
    assert_eq!(trace.count(EventId::LockAcquire), BASELINE_LOCK_ACQUIRES);
    assert_eq!(trace.count(EventId::LockRelease), BASELINE_LOCK_ACQUIRES);

    // Exact span choreography: n messages, each with a send span and a
    // matched-receive span.
    let n = 2 * PINGPONGS;
    assert_eq!(trace.count(EventId::SpanSubmit), 2 * n, "send + recv");
    assert_eq!(trace.count(EventId::SpanCollect), n);
    assert_eq!(trace.count(EventId::SpanWireTx), n);
    assert_eq!(trace.count(EventId::SpanWireRx), n);
    assert_eq!(trace.count(EventId::SpanDeliver), n);
    assert_eq!(trace.count(EventId::SpanComplete), 2 * n);
    assert_eq!(trace.count(EventId::SpanRetx), 0, "ideal wire, no loss");
    assert_eq!(trace.count(EventId::SpanWake), 0, "no async waiters");

    // Every submitted span id is distinct and nonzero, and every
    // delivery joins a wire span to a live receive span.
    let merged = trace.merged();
    let submitted: BTreeSet<u64> = merged
        .iter()
        .filter(|e| e.id == EventId::SpanSubmit)
        .map(|e| e.a)
        .collect();
    assert_eq!(submitted.len() as u64, 2 * n, "span ids must be unique");
    assert!(!submitted.contains(&0), "span 0 means 'no span'");
    for e in merged.iter().filter(|e| e.id == EventId::SpanDeliver) {
        assert!(submitted.contains(&e.a), "unknown sender span {}", e.a);
        assert!(submitted.contains(&e.b), "unknown receive span {}", e.b);
        assert_ne!(e.a, e.b, "send and receive spans are distinct");
    }

    // The assembler stitches each message end to end: every send-origin
    // timeline joined a peer, and its critical-path components telescope
    // exactly to the end-to-end total.
    let timelines = assemble(&trace);
    let breakdowns = Breakdown::all(&timelines);
    assert_eq!(breakdowns.len() as u64, n, "one breakdown per message");
    for (span, bd) in &breakdowns {
        let sum: u64 = bd.components().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, bd.total_ns, "span {span} components must telescope");
    }
    let joined = timelines.iter().filter(|t| t.peer.is_some()).count();
    assert!(
        joined as u64 >= n,
        "every send span must join its receive span (got {joined})"
    );
}
