//! Stack-wide tracing under the deterministic simulator: a traced
//! two-thread pingpong over a virtual-clock world must produce *exact*
//! event counts — the schema is precise enough to audit, not just to
//! eyeball.
//!
//! The two threads advance in lockstep (semaphore handshake, one
//! explicit `progress()` per step) rather than busy-waiting: free
//! spinning emits an unbounded number of poll events, which both wraps
//! the rings and makes counts scheduling-dependent.
//!
//! Single test on purpose: the recording is process-wide, and a sibling
//! test running beside it would perturb the counts.

use std::sync::Arc;

use nomad::fabric::{ClockSource, WireModel};
use nomad::metrics::trace::{self, EventId, TraceReport};
use nomad::mpi::{ThreadLevel, World, WorldBuilder};
use nomad::sync::Semaphore;

const PINGPONGS: u64 = 32;

#[test]
fn traced_sim_pingpong_has_exact_event_counts() {
    // Manual clock + ideal wire: everything is deliverable at t = 0, so
    // the pingpong runs to completion without advancing time, and the
    // recording stamps events with the fabric's virtual time.
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

    let sent = Arc::new(Semaphore::new(0)); // ping is on the wire
    let echoed = Arc::new(Semaphore::new(0)); // echo is on the wire
    let (sent2, echoed2) = (Arc::clone(&sent), Arc::clone(&echoed));

    let rec = trace::record_virtual(ns);
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
        let s = to_b.isend(i, b"traced payload").expect("isend");
        a.core().progress();
        assert!(s.is_complete(), "eager send completes on injection");
        sent.release();
        echoed.acquire();
        a.core().progress();
        assert!(r.is_complete(), "echo {i} not delivered");
        assert_eq!(&r.take_data().expect("echo payload")[..], b"traced payload");
    }
    echo.join().unwrap();
    assert!(trace::enabled());
    let trace = rec.finish();
    assert!(!trace::enabled());
    assert_eq!(trace.dropped(), 0, "ring wrapped mid-test");

    // One message per direction per iteration; strict alternation means
    // exactly one packet per message and no WouldBlock retries.
    let n = 2 * PINGPONGS;
    assert_eq!(trace.count(EventId::SubmitBegin), n);
    assert_eq!(trace.count(EventId::SubmitEnd), n);
    assert_eq!(trace.count(EventId::RecvPosted), n);
    assert_eq!(trace.count(EventId::QueueDepth), n);
    assert_eq!(trace.count(EventId::TransmitBegin), n);
    assert_eq!(trace.count(EventId::TransmitEnd), n);
    assert_eq!(trace.count(EventId::PacketTx), n);
    assert_eq!(trace.count(EventId::PacketRx), n);
    assert_eq!(trace.count(EventId::DispatchBegin), n);
    assert_eq!(trace.count(EventId::DispatchEnd), n);
    // Each side calls `progress()` exactly twice per iteration.
    assert_eq!(trace.count(EventId::ProgressPass), 2 * n);
    // Every transmit was accepted on the first post (b = 1).
    let merged = trace.merged();
    assert!(merged
        .iter()
        .filter(|e| e.id == EventId::TransmitEnd)
        .all(|e| e.b == 1));

    // The trace clock is the world's virtual clock: time never advanced,
    // so every record sits at t = 0 — bit-reproducible by construction.
    assert!(merged.iter().all(|e| e.ts == 0), "real clock leaked in");

    // The report sees the same story: submit spans pair up exactly.
    let spans = TraceReport::span_durations(&trace, EventId::SubmitBegin, EventId::SubmitEnd);
    assert_eq!(spans.len(), n as usize);
    assert!(spans.iter().all(|&d| d == 0));
    let report = TraceReport::from_trace(&trace);
    assert_eq!(report.count(EventId::SubmitBegin), n);
    let folded = report.folded();
    assert!(folded.contains("nomad;core;submit"));
    assert!(folded.contains("nomad;events;ProgressPass"));
}
