//! Chaos accounting parity: every [`ChaosStats`] counter must equal the
//! number of matching `Fault*` trace events from the same seeded run —
//! the always-on stats and the trace ring tell one story, fault by
//! fault.
//!
//! Single test on purpose: the recording is process-wide, and a sibling
//! test running beside it would perturb the counts.

use bytes::Bytes;
use nm_fabric::{ChaosDriver, Driver, FaultPlan, LoopbackDriver, PostError};
use nm_trace::EventId;

/// Polls until the driver stays empty (delayed packets age out).
fn drain<D: Driver>(d: &D) -> usize {
    let mut n = 0;
    let mut idle = 0;
    while idle < 64 {
        match d.poll_vci(0) {
            Some(_) => {
                n += 1;
                idle = 0;
            }
            None => idle += 1,
        }
    }
    n
}

#[test]
fn chaos_stats_match_fault_trace_event_counts() {
    let rec = nm_trace::record();

    // Receive-side faults: loss, duplication, corruption, delay.
    let (tx, rx) = LoopbackDriver::pair(512);
    let rx = ChaosDriver::new(
        rx,
        FaultPlan::new(0xC0FFEE)
            .loss(0.15)
            .duplicate(0.15)
            .corrupt(0.15)
            .delay(0.15, 3),
    );
    for i in 0..200u8 {
        tx.post_vci(0, Bytes::copy_from_slice(&[i])).unwrap();
    }
    drain(&rx);
    let rx_stats = rx.stats();

    // Transmit-side stalls: a window opens every 4 accepted posts.
    let (stx, srx) = LoopbackDriver::pair(64);
    let stx = ChaosDriver::new(stx, FaultPlan::new(2).stall(4, 2));
    let mut posted = 0u8;
    let mut attempts = 0;
    while posted < 16 {
        attempts += 1;
        assert!(attempts < 256, "stall windows never close");
        match stx.post_vci(0, Bytes::copy_from_slice(&[posted])) {
            Ok(()) => posted += 1,
            Err(PostError::WouldBlock) => continue,
        }
    }
    drain(&srx);
    let stall_stats = stx.stats();

    // Reordering, alone so the shuffle is the only fault.
    let (rtx, rrx) = LoopbackDriver::pair(64);
    let rrx = ChaosDriver::new(rrx, FaultPlan::reorder_only(4, 7));
    for i in 0..32u8 {
        rtx.post_vci(0, Bytes::copy_from_slice(&[i])).unwrap();
    }
    drain(&rrx);
    let reorder_stats = rrx.stats();

    // Every stat kind was actually exercised...
    assert!(rx_stats.lost > 0, "loss plan injected nothing");
    assert!(rx_stats.duplicated > 0, "duplicate plan injected nothing");
    assert!(rx_stats.corrupted > 0, "corrupt plan injected nothing");
    assert!(rx_stats.delayed > 0, "delay plan injected nothing");
    assert!(stall_stats.stalls > 0, "stall plan injected nothing");
    assert!(reorder_stats.reordered > 0, "reorder plan injected nothing");

    // ...and each counter agrees with the trace, event for event.
    let trace = rec.finish();
    assert_eq!(trace.dropped(), 0, "ring wrapped mid-test");
    let total = |s: &nm_fabric::ChaosStats| {
        [
            (EventId::FaultLoss, s.lost),
            (EventId::FaultDup, s.duplicated),
            (EventId::FaultCorrupt, s.corrupted),
            (EventId::FaultDelay, s.delayed),
            (EventId::FaultStall, s.stalls),
            (EventId::FaultReorder, s.reordered),
        ]
    };
    let mut expected = [0u64; 6];
    for stats in [&rx_stats, &stall_stats, &reorder_stats] {
        for (slot, (_, n)) in expected.iter_mut().zip(total(stats)) {
            *slot += n;
        }
    }
    for ((id, _), want) in total(&rx_stats).into_iter().zip(expected) {
        assert_eq!(trace.count(id), want, "{id:?} drifted from ChaosStats");
    }
}
