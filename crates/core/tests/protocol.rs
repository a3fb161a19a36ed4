//! End-to-end protocol tests of the communication core over loopback and
//! simulated-NIC drivers.

use std::sync::Arc;

use bytes::Bytes;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, LockingMode, StrategyKind};
use nm_fabric::{
    ChaosDriver, ClockSource, Driver, Fabric, FaultPlan, LoopbackDriver, SimNic, SimNicDriver,
    WireModel,
};
use nm_sync::WaitStrategy;

const G: GateId = GateId(0);

/// Builds two connected single-rail cores over loopback drivers.
fn loopback_pair(config: CoreConfig) -> (Arc<CommCore>, Arc<CommCore>) {
    let (da, db) = LoopbackDriver::pair(64);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    (a, b)
}

/// Builds two connected cores over real-time simulated NICs.
fn simnic_pair(config: CoreConfig, model: WireModel) -> (Arc<CommCore>, Arc<CommCore>) {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[model], true);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();
    (a, b)
}

#[test]
fn eager_roundtrip_all_locking_modes() {
    for mode in LockingMode::ALL {
        let (a, b) = loopback_pair(CoreConfig::default().locking(mode));
        let payload = Bytes::from_static(b"eager message");
        let send = a.isend(G, 42, payload.clone()).unwrap();
        let recv = b.irecv(G, 42).unwrap();
        b.wait(&recv, WaitStrategy::Busy).unwrap();
        a.wait(&send, WaitStrategy::Busy).unwrap();
        assert_eq!(recv.take_data().unwrap(), payload, "mode {mode:?}");
        assert_eq!(a.stats().eager_sent.get(), 1);
        assert_eq!(a.stats().rdv_started.get(), 0);
    }
}

#[test]
fn blocking_send_recv_helpers() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let t = std::thread::spawn(move || b.recv(G, 7, WaitStrategy::Busy).unwrap());
    a.send(G, 7, Bytes::from_static(b"blocking"), WaitStrategy::Busy)
        .unwrap();
    assert_eq!(t.join().unwrap(), Bytes::from_static(b"blocking"));
}

#[test]
fn unexpected_message_is_buffered() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let send = a.isend(G, 5, Bytes::from_static(b"early")).unwrap();
    a.wait(&send, WaitStrategy::Busy).unwrap();
    // Drive the receiver before any recv is posted: message becomes
    // unexpected.
    while b.progress() > 0 {}
    assert_eq!(b.stats().unexpected_msgs.get(), 1);
    let recv = b.irecv(G, 5).unwrap();
    assert!(recv.is_complete(), "matched from the unexpected queue");
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"early"));
}

#[test]
fn tag_matching_is_selective_and_fifo() {
    let (a, b) = loopback_pair(CoreConfig::default());
    // Two tags interleaved, two messages each.
    for (tag, text) in [(1u64, "a1"), (2, "b1"), (1, "a2"), (2, "b2")] {
        let s = a.isend(G, tag, Bytes::from(text.to_string())).unwrap();
        a.wait(&s, WaitStrategy::Busy).unwrap();
    }
    let r2a = b.irecv(G, 2).unwrap();
    b.wait(&r2a, WaitStrategy::Busy).unwrap();
    assert_eq!(&r2a.take_data().unwrap()[..], b"b1");
    let r1a = b.irecv(G, 1).unwrap();
    b.wait(&r1a, WaitStrategy::Busy).unwrap();
    assert_eq!(&r1a.take_data().unwrap()[..], b"a1");
    let r1b = b.irecv(G, 1).unwrap();
    b.wait(&r1b, WaitStrategy::Busy).unwrap();
    assert_eq!(&r1b.take_data().unwrap()[..], b"a2");
    let r2b = b.irecv(G, 2).unwrap();
    b.wait(&r2b, WaitStrategy::Busy).unwrap();
    assert_eq!(&r2b.take_data().unwrap()[..], b"b2");
}

#[test]
fn rendezvous_large_message_roundtrip() {
    let config = CoreConfig::default().eager_threshold(1024).rdv_chunk(4096);
    let (a, b) = loopback_pair(config);
    let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
    let payload = Bytes::from(payload);

    let recv = b.irecv(G, 9).unwrap();
    let send = a.isend(G, 9, payload.clone()).unwrap();
    // Both sides must progress: A needs B's CTS, B needs A's data.
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);
    assert_eq!(a.stats().rdv_started.get(), 1);
    assert_eq!(b.stats().rdv_accepted.get(), 1);
    // 100 KB in 4 KB chunks: at least 25 data packets.
    assert!(a.stats().packets_tx.get() >= 25);
}

#[test]
fn rendezvous_rts_before_recv_posted() {
    let config = CoreConfig::default().eager_threshold(64);
    let (a, b) = loopback_pair(config);
    let payload = Bytes::from(vec![7u8; 10_000]);
    let send = a.isend(G, 3, payload.clone()).unwrap();
    // B sees the RTS with no posted recv: it must park it.
    while b.progress() > 0 {}
    assert!(!send.is_complete(), "no CTS yet");
    // Posting the recv triggers the CTS and the data flows.
    let recv = b.irecv(G, 3).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);
}

#[test]
fn multirail_distributes_rendezvous_chunks() {
    let fabric = Fabric::real_time();
    let models = [WireModel::ideal(), WireModel::ideal()];
    let (pa, pb) = fabric.pair(&models, true);
    let config = CoreConfig::default().eager_threshold(512).rdv_chunk(1024);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();

    let payload = Bytes::from(vec![0xCD; 64 * 1024]);
    let recv = b.irecv(G, 1).unwrap();
    let send = a.isend(G, 1, payload.clone()).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);
    // Both rails must have carried data packets.
    let c0 = pa.sim_drivers()[0].counters().tx_packets.get();
    let c1 = pa.sim_drivers()[1].counters().tx_packets.get();
    assert!(c0 > 5 && c1 > 5, "rails unbalanced: {c0} vs {c1}");
}

#[test]
fn aggregation_coalesces_small_messages() {
    // A depth-1 loopback driver: the first packet occupies the NIC until
    // the receiver drains it, so subsequent sends pile up in the collect
    // queue and the aggregate strategy packs them into one packet.
    let (da, db) = LoopbackDriver::pair(1);
    let config = CoreConfig::default().strategy(StrategyKind::Aggregate);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    let sends: Vec<_> = (0..10)
        .map(|i| {
            a.isend(G, 100 + i, Bytes::from(format!("msg-{i}")))
                .unwrap()
        })
        .collect();
    let recvs: Vec<_> = (0..10).map(|i| b.irecv(G, 100 + i).unwrap()).collect();
    for (i, r) in recvs.iter().enumerate() {
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
        assert_eq!(r.take_data().unwrap(), Bytes::from(format!("msg-{i}")));
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }
    assert!(
        a.stats().aggregated_packets.get() >= 1,
        "no aggregation happened (packets_tx = {})",
        a.stats().packets_tx.get()
    );
    assert!(
        a.stats().packets_tx.get() < 10,
        "aggregation should reduce packet count"
    );
}

#[test]
fn fifo_strategy_never_aggregates() {
    let (da, db) = LoopbackDriver::pair(1);
    let config = CoreConfig::default().strategy(StrategyKind::Fifo);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let sends: Vec<_> = (0..5)
        .map(|i| a.isend(G, i, Bytes::from_static(b"x")).unwrap())
        .collect();
    let recvs: Vec<_> = (0..5).map(|i| b.irecv(G, i).unwrap()).collect();
    for r in &recvs {
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }
    assert_eq!(a.stats().aggregated_packets.get(), 0);
    assert_eq!(a.stats().packets_tx.get(), 5);
}

#[test]
fn pingpong_over_simulated_myrinet() {
    let (a, b) = simnic_pair(CoreConfig::default(), WireModel::myri_10g());
    let b2 = Arc::clone(&b);
    let echo = std::thread::spawn(move || {
        for _ in 0..10 {
            let data = b2.recv(G, 0, WaitStrategy::Busy).unwrap();
            b2.send(G, 0, data, WaitStrategy::Busy).unwrap();
        }
    });
    let payload = Bytes::from(vec![1u8; 256]);
    for _ in 0..10 {
        a.send(G, 0, payload.clone(), WaitStrategy::Busy).unwrap();
        let back = a.recv(G, 0, WaitStrategy::Busy).unwrap();
        assert_eq!(back, payload);
    }
    echo.join().unwrap();
}

#[test]
fn concurrent_threads_fine_grain() {
    concurrent_threads(LockingMode::Fine);
}

#[test]
fn concurrent_threads_coarse_grain() {
    concurrent_threads(LockingMode::Coarse);
}

fn concurrent_threads(mode: LockingMode) {
    // Two threads per side, each with its own tag, all sharing the cores:
    // MPI_THREAD_MULTIPLE-style usage.
    let (a, b) = loopback_pair(CoreConfig::default().locking(mode));
    const PER_THREAD: usize = 50;
    let mut senders = Vec::new();
    for t in 0..2u64 {
        let a = Arc::clone(&a);
        senders.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                let payload = Bytes::from(format!("t{t}-m{i}"));
                a.send(G, t, payload, WaitStrategy::Busy).unwrap();
            }
        }));
    }
    let mut receivers = Vec::new();
    for t in 0..2u64 {
        let b = Arc::clone(&b);
        receivers.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                let data = b.recv(G, t, WaitStrategy::Busy).unwrap();
                assert_eq!(&data[..], format!("t{t}-m{i}").as_bytes());
            }
        }));
    }
    for h in senders.into_iter().chain(receivers) {
        h.join().unwrap();
    }
}

#[test]
fn single_thread_mode_panics_on_second_thread() {
    let (a, _b) = loopback_pair(CoreConfig::default().locking(LockingMode::SingleThread));
    a.progress(); // claim ownership on this thread
    let a2 = Arc::clone(&a);
    let res = std::thread::spawn(move || {
        let _ = a2.progress();
    })
    .join();
    assert!(res.is_err(), "second thread must be rejected");
}

#[test]
fn invalid_gate_is_reported() {
    let (a, _b) = loopback_pair(CoreConfig::default());
    let err = a.isend(GateId(9), 0, Bytes::new()).unwrap_err();
    assert_eq!(err, nm_core::CommError::InvalidGate(9));
    let err = a.irecv(GateId(9), 0).unwrap_err();
    assert_eq!(err, nm_core::CommError::InvalidGate(9));
}

#[test]
fn passive_wait_with_progression_thread() {
    use nm_progress::{IdlePolicy, ProgressEngine, ProgressionThread};

    let (a, b) = loopback_pair(CoreConfig::default());
    let engine = Arc::new(ProgressEngine::new());
    engine.register(Arc::clone(&a) as _);
    engine.register(Arc::clone(&b) as _);
    let pt = ProgressionThread::spawn(Arc::clone(&engine), None, IdlePolicy::Yield);

    let recv = b.irecv(G, 1).unwrap();
    let send = a.isend(G, 1, Bytes::from_static(b"async")).unwrap();
    // Purely passive waits: only the progression thread moves data.
    recv.wait_flag_only(WaitStrategy::Passive);
    send.wait_flag_only(WaitStrategy::Passive);
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"async"));
    pt.stop();
}

#[test]
fn virtual_clock_pingpong() {
    // Deterministic pingpong on a manual clock: latency accounted by hand.
    let clock = ClockSource::manual();
    let (na, nb) = SimNic::pair("vt", WireModel::myri_10g(), clock.clone());
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![
            Arc::new(SimNicDriver::new(na, true)) as Arc<dyn Driver>
        ])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![
            Arc::new(SimNicDriver::new(nb, true)) as Arc<dyn Driver>
        ])
        .build();

    let send = a.isend(G, 0, Bytes::from_static(b"tick")).unwrap();
    let recv = b.irecv(G, 0).unwrap();
    a.progress();
    assert!(send.is_complete(), "eager send completes on injection");
    b.progress();
    assert!(!recv.is_complete(), "nothing deliverable at t=0");
    clock.advance(10_000); // > latency + tx time
    b.progress();
    assert!(recv.is_complete());
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"tick"));
}

#[test]
fn message_stream_many_sizes() {
    let config = CoreConfig::default().eager_threshold(1024);
    let (a, b) = loopback_pair(config);
    let sizes = [0usize, 1, 13, 1024, 1025, 5000, 40_000];
    for (i, &n) in sizes.iter().enumerate() {
        let payload = Bytes::from((0..n).map(|j| (j % 256) as u8).collect::<Vec<u8>>());
        let send = a.isend(G, i as u64, payload.clone()).unwrap();
        let recv = b.irecv(G, i as u64).unwrap();
        while !recv.is_complete() || !send.is_complete() {
            a.progress();
            b.progress();
        }
        assert_eq!(recv.take_data().unwrap(), payload, "size {n}");
    }
}

#[test]
fn ordered_delivery_over_reordering_transport() {
    // A transport that shuffles packets within a 4-deep window; the
    // receiver's resequencer must restore send order across both
    // protocols, which share one per-gate sequence space.
    const THRESHOLD: usize = 256;
    const SIZES: [usize; 5] = [THRESHOLD - 1, THRESHOLD + 1, 3, THRESHOLD, 4 * THRESHOLD];
    const N: usize = 32;
    let (da, db) = LoopbackDriver::pair(128);
    let db = Arc::new(ChaosDriver::new(db, FaultPlan::reorder_only(4, 0xBADC0FFE)));
    let config = CoreConfig::default().eager_threshold(THRESHOLD);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::clone(&db) as Arc<dyn Driver>])
        .build();

    let payload = |i: usize| Bytes::from(vec![i as u8; SIZES[i % SIZES.len()]]);
    let mut sends = Vec::new();
    for i in 0..N {
        sends.push(a.isend(G, 9, payload(i)).unwrap());
        // One packet per message (no aggregation), so the transport can
        // reorder eager packets and RTS packets against each other.
        a.progress();
    }
    for i in 0..N {
        let r = b.irecv(G, 9).unwrap();
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
        assert_eq!(
            r.take_data().unwrap(),
            payload(i),
            "message {i} out of order"
        );
    }
    a.wait_all(&sends, WaitStrategy::Busy).unwrap();
    assert!(db.stats().reordered > 0, "the transport reordered nothing");
    assert!(b.stats().rdv_accepted.get() > 0 && b.stats().dup_dropped.get() == 0);
}

#[test]
fn wait_all_and_test_apis() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let recvs: Vec<_> = (0..4).map(|i| b.irecv(G, i).unwrap()).collect();
    let sends: Vec<_> = (0..4)
        .map(|i| a.isend(G, i, Bytes::from(vec![i as u8])).unwrap())
        .collect();
    a.wait_all(&sends, WaitStrategy::Busy).unwrap();
    // Drive b until everything tests complete.
    for r in &recvs {
        while !b.test(r) {
            a.progress();
        }
    }
    for (i, r) in recvs.iter().enumerate() {
        assert_eq!(r.take_data().unwrap(), Bytes::from(vec![i as u8]));
    }
}

#[test]
fn wildcard_recv_matches_any_tag_in_order() {
    let (a, b) = loopback_pair(CoreConfig::default());
    for (tag, text) in [(5u64, "first"), (9, "second"), (1, "third")] {
        let s = a.isend(G, tag, Bytes::from(text.to_string())).unwrap();
        a.wait(&s, WaitStrategy::Busy).unwrap();
    }
    // Wildcard receives drain in arrival (send) order, reporting tags.
    let expected = [(5u64, "first"), (9, "second"), (1, "third")];
    for (tag, text) in expected {
        let r = b.irecv_any(G).unwrap();
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
        assert_eq!(r.matched_tag(), Some(tag));
        assert_eq!(r.take_data().unwrap(), Bytes::from(text.to_string()));
    }
}

#[test]
fn wildcard_posted_before_arrival() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let r = b.irecv_any(G).unwrap();
    assert_eq!(r.matched_tag(), None, "no tag before completion");
    let s = a.isend(G, 77, Bytes::from_static(b"wild")).unwrap();
    a.wait(&s, WaitStrategy::Busy).unwrap();
    while !r.is_complete() {
        b.progress();
        a.progress();
    }
    assert_eq!(r.matched_tag(), Some(77));
    assert_eq!(r.take_data().unwrap(), Bytes::from_static(b"wild"));
}

#[test]
fn wildcard_matches_rendezvous_rts() {
    let config = CoreConfig::default().eager_threshold(64);
    let (a, b) = loopback_pair(config);
    let payload = Bytes::from(vec![3u8; 50_000]);
    let s = a.isend(G, 4, payload.clone()).unwrap();
    // Let the RTS land unexpected, then post a wildcard receive.
    while b.progress() > 0 {}
    let r = b.irecv_any(G).unwrap();
    while !r.is_complete() || !s.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(r.matched_tag(), Some(4));
    assert_eq!(r.take_data().unwrap(), payload);
}

#[test]
fn exact_recv_reports_matched_tag_too() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let s = a.isend(G, 13, Bytes::from_static(b"x")).unwrap();
    a.wait(&s, WaitStrategy::Busy).unwrap();
    let r = b.irecv(G, 13).unwrap();
    b.wait(&r, WaitStrategy::Busy).unwrap();
    assert_eq!(r.matched_tag(), Some(13));
}

#[test]
fn corrupt_packets_are_counted_and_skipped() {
    // Inject garbage directly into the wire of an unreliable core: it
    // trusts its wire and computes no checksum, so each garbage frame is
    // one wire error, and the receiver keeps functioning.
    let (da, db) = LoopbackDriver::pair(64);
    let da = Arc::new(da);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::clone(&da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    for garbage in [
        // Not a bare frame: flag bits a bare frame never carries.
        &b"\xFF\xFF garbage that is not a packet"[..],
        // A bare frame around a garbage packet: fails protocol decode.
        &b"\x00\xFF\xFF not a packet either"[..],
        // Nothing at all.
        &b""[..],
    ] {
        da.post_vci(0, Bytes::copy_from_slice(garbage)).unwrap();
    }
    while b.progress() > 0 {}
    assert_eq!(b.stats().wire_errors.get(), 3);
    assert_eq!(b.stats().corrupt_dropped.get(), 0, "no checksum involved");

    // The stack still works after the corrupt packet.
    let s = a.isend(G, 1, Bytes::from_static(b"still alive")).unwrap();
    let r = b.irecv(G, 1).unwrap();
    while !r.is_complete() {
        a.progress();
        b.progress();
    }
    a.wait(&s, WaitStrategy::Busy).unwrap();
    assert_eq!(r.take_data().unwrap(), Bytes::from_static(b"still alive"));
}

#[test]
fn duplicate_cts_is_ignored() {
    use nm_core::wire::{encode_bare_frame, Entry};
    // A CTS for an unknown rendezvous id must be dropped and counted,
    // not crash the sender-side state machine.
    let (da, db) = LoopbackDriver::pair(64);
    let db = Arc::new(db);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let _b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::clone(&db) as Arc<dyn Driver>])
        .build();
    // Send a spurious CTS from b's side of the wire toward a.
    db.post_vci(0, encode_bare_frame(0, &[Entry::Cts { tag: 1, seq: 99 }]))
        .unwrap();
    while a.progress() > 0 {}
    assert_eq!(a.stats().wire_errors.get(), 1);
}

#[test]
fn pending_counts_track_lifecycle() {
    let (a, b) = loopback_pair(CoreConfig::default().eager_threshold(64));
    assert_eq!(a.pending(), nm_core::PendingCounts::default());

    // A posted receive shows up on b.
    let r = b.irecv(G, 1).unwrap();
    assert_eq!(b.pending().posted_recvs, 1);

    // A rendezvous send waits for its CTS on a.
    let s = a.isend(G, 1, Bytes::from(vec![9u8; 10_000])).unwrap();
    assert_eq!(a.pending().rdv_awaiting_cts, 1);

    while !r.is_complete() || !s.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(a.pending(), nm_core::PendingCounts::default());
    assert_eq!(b.pending(), nm_core::PendingCounts::default());
}

#[test]
fn flush_local_drains_send_queues() {
    // A depth-limited driver keeps packets queued locally; flush_local
    // pushes what it can and reports quiescence exactly when the local
    // queues empty (the receiver must drain the wire meanwhile).
    let (da, db) = LoopbackDriver::pair(2);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    for i in 0..6 {
        let _ = a.isend(G, i, Bytes::from_static(b"queued")).unwrap();
    }
    assert!(
        a.pending().collect_items > 0,
        "wire too small for the burst"
    );
    let drainer = std::thread::spawn(move || {
        for i in 0..6 {
            let r = b.irecv(G, i).unwrap();
            b.wait(&r, WaitStrategy::Busy).unwrap();
        }
    });
    a.flush_local();
    assert_eq!(a.pending().collect_items, 0);
    assert_eq!(a.pending().xfer_items, 0);
    drainer.join().unwrap();
}

#[test]
fn progress_shard_alone_drains_the_collect_queue_one_lane() {
    shard_passes_deliver_queued_sends(1);
}

#[test]
fn progress_shard_alone_drains_the_collect_queue_two_lanes() {
    shard_passes_deliver_queued_sends(2);
}

/// Four 8 B sends per lane over `lanes` rails of `LoopbackDriver::pair(1)`
/// (a ring that holds two frames): half leave at `isend`, the rest wait
/// in the collect queue. Cores driven only by `progress_shard(s, lanes)`
/// on every shard must run the optimization layer too, or those sends
/// never leave.
fn shard_passes_deliver_queued_sends(lanes: usize) {
    let (mut ra, mut rb) = (Vec::new(), Vec::new());
    for _ in 0..lanes {
        let (da, db) = LoopbackDriver::pair(1);
        ra.push(Arc::new(da) as Arc<dyn Driver>);
        rb.push(Arc::new(db) as Arc<dyn Driver>);
    }
    let a = CoreBuilder::new(CoreConfig::default()).add_gate(ra).build();
    let b = CoreBuilder::new(CoreConfig::default()).add_gate(rb).build();
    let payload = |t: u64| Bytes::from(vec![t as u8; 8]);
    let msgs = 4 * lanes as u64;
    let recvs: Vec<_> = (0..msgs).map(|t| b.irecv(G, t).unwrap()).collect();
    let sends: Vec<_> = (0..msgs)
        .map(|t| a.isend(G, t, payload(t)).unwrap())
        .collect();
    let mut passes = 0;
    while recvs.iter().chain(&sends).any(|r| !r.is_complete()) {
        for shard in 0..lanes {
            a.progress_shard(shard, lanes);
            b.progress_shard(shard, lanes);
        }
        passes += 1;
        assert!(
            passes <= 1_000,
            "{lanes} lane(s): sends stranded after {passes} passes: a {:?}",
            a.pending()
        );
    }
    for (t, r) in recvs.iter().enumerate() {
        assert_eq!(r.take_data().unwrap(), payload(t as u64));
    }
    assert_eq!(a.pending(), nm_core::PendingCounts::default());
    assert_eq!(b.pending(), nm_core::PendingCounts::default());
}

#[test]
fn length_hints_strand_nothing_fine_grain() {
    length_hints_strand_nothing(LockingMode::Fine);
}

#[test]
fn length_hints_strand_nothing_coarse_grain() {
    length_hints_strand_nothing(LockingMode::Coarse);
}

/// A driver whose "NIC idle" hint is always stale: `can_post_vci` says
/// yes, `post_vci` says what the ring says. `can_post_vci` is documented
/// as a racy hint, so this is within contract, and it turns every post
/// on a full ring into a `WouldBlock` and a `push_front` requeue.
struct StaleIdle(LoopbackDriver);

impl Driver for StaleIdle {
    fn caps(&self) -> &nm_fabric::DriverCaps {
        self.0.caps()
    }
    fn can_post_vci(&self, _vci: usize) -> bool {
        true
    }
    fn post_vci(&self, vci: usize, data: Bytes) -> Result<(), nm_fabric::PostError> {
        self.0.post_vci(vci, data)
    }
    fn poll_vci(&self, vci: usize) -> Option<Bytes> {
        self.0.poll_vci(vci)
    }
}

/// A pass that reads a zero length hint skips the collect queue and the
/// transfer lists without their sections. Here everything that can leave
/// an item behind a hint happens at once: a two-slot ring behind a
/// driver that always claims to be idle, so most posts are refused and
/// requeued with `push_front`; two threads running passes on both cores
/// while a third submits; rendezvous chunks waiting in a transfer list
/// between eager bursts. Every request must complete from passes alone,
/// and at quiesce every queue is empty — `pending()` also checks, in
/// debug builds, that each hint equals its list's length.
fn length_hints_strand_nothing(mode: LockingMode) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use std::time::{Duration, Instant};

    const EAGER: u64 = 240;
    const RDV_EVERY: u64 = 75;
    const RDV_TAG: u64 = 1 << 32;

    let (da, db) = LoopbackDriver::pair(1);
    let config = CoreConfig::default().locking(mode);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(StaleIdle(da)) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(StaleIdle(db)) as Arc<dyn Driver>])
        .build();

    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(3));
    let pollers: Vec<_> = (0..2)
        .map(|_| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            let (stop, start) = (Arc::clone(&stop), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                while !stop.load(Ordering::Acquire) {
                    a.progress();
                    b.progress();
                }
            })
        })
        .collect();

    let small = |i: u64| Bytes::from(i.to_le_bytes().to_vec());
    let big = Bytes::from(
        (0..200_000u32)
            .map(|i| (i % 241) as u8)
            .collect::<Vec<u8>>(),
    );
    let mut sends = Vec::new();
    let mut recvs = Vec::new();
    start.wait();
    for i in 0..EAGER {
        // Every other receive is posted after its send: both matching
        // paths run, and the CTS of a late-matched RTS is queued from
        // `irecv` rather than from a pass.
        let early = i % 2 == 0;
        if early {
            recvs.push((b.irecv(G, i).unwrap(), small(i)));
        }
        sends.push(a.isend(G, i, small(i)).unwrap());
        if !early {
            recvs.push((b.irecv(G, i).unwrap(), small(i)));
        }
        if i % RDV_EVERY == 0 {
            let tag = RDV_TAG + i;
            if early {
                recvs.push((b.irecv(G, tag).unwrap(), big.clone()));
            }
            sends.push(a.isend(G, tag, big.clone()).unwrap());
            // An echo the other way shares b's collect queue with the
            // CTS and a's lane with the chunks.
            recvs.push((a.irecv(G, i).unwrap(), small(i)));
            sends.push(b.isend(G, i, small(i)).unwrap());
            if !early {
                recvs.push((b.irecv(G, tag).unwrap(), big.clone()));
            }
        }
    }

    let deadline = Instant::now() + Duration::from_secs(120);
    let all_done = |sends: &[nm_core::Request], recvs: &[(nm_core::Request, Bytes)]| {
        sends.iter().all(|r| r.is_complete()) && recvs.iter().all(|(r, _)| r.is_complete())
    };
    while !all_done(&sends, &recvs) {
        assert!(
            Instant::now() < deadline,
            "stranded under {mode:?}: a {:?}, b {:?}",
            a.pending(),
            b.pending()
        );
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Release);
    for p in pollers {
        p.join().unwrap();
    }
    for (recv, expected) in &recvs {
        assert_eq!(recv.take_data().as_ref(), Some(expected));
    }
    assert_eq!(a.progress() + b.progress(), 0, "quiet after the last pass");
    assert_eq!(a.pending(), nm_core::PendingCounts::default());
    assert_eq!(b.pending(), nm_core::PendingCounts::default());
}

/// A progression thread makes all the progress while the caller only
/// waits on request flags: 10⁵ 8 B messages arrive in order, in coarse
/// and in fine mode, over a `SimNic` and over a loopback pair. The
/// engine skips a lane whose doorbell is silent and a coarse pass that
/// looks idle without taking the lock, so a doorbell rung by the
/// caller's post and missed by the engine would leave a flag unset and
/// fail the bounded wait.
#[test]
fn progression_thread_loses_no_doorbell() {
    use nm_progress::{IdlePolicy, PollSource, ProgressEngine, ProgressionThread};
    use std::time::Duration;

    const MSGS: u64 = 100_000;
    const WINDOW: u64 = 8;
    const PATIENCE: Duration = Duration::from_secs(30);
    for mode in [LockingMode::Coarse, LockingMode::Fine] {
        let config = CoreConfig::default().locking(mode);
        let pairs = [
            ("simnic", simnic_pair(config.clone(), WireModel::ideal())),
            ("loopback", loopback_pair(config)),
        ];
        for (wire, (a, b)) in pairs {
            let engine = Arc::new(ProgressEngine::new());
            engine.register(Arc::clone(&a) as Arc<dyn PollSource>);
            engine.register(Arc::clone(&b) as Arc<dyn PollSource>);
            let progression = ProgressionThread::spawn(engine, None, IdlePolicy::Yield);
            let mut next = 0u64;
            while next < MSGS {
                let recvs: Vec<_> = (0..WINDOW).map(|_| b.irecv(G, 5).unwrap()).collect();
                let sends: Vec<_> = (next..next + WINDOW)
                    .map(|i| a.isend(G, 5, Bytes::copy_from_slice(&i.to_le_bytes())))
                    .collect::<Result<_, _>>()
                    .unwrap();
                for r in &recvs {
                    assert!(
                        r.flag().wait_timeout(WaitStrategy::Busy, PATIENCE),
                        "{mode:?} over {wire}: message {next} never arrived"
                    );
                    let got = r.take_data().unwrap();
                    assert_eq!(got[..], next.to_le_bytes(), "{mode:?} over {wire}");
                    next += 1;
                }
                for s in &sends {
                    assert!(s.flag().wait_timeout(WaitStrategy::Busy, PATIENCE));
                }
            }
            progression.stop();
            assert_eq!(a.pending(), nm_core::PendingCounts::default());
            assert_eq!(b.pending(), nm_core::PendingCounts::default());
        }
    }
}
