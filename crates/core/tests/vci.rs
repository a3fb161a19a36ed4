//! End-to-end tests of the multi-VCI transfer layer: per-(rail, VCI)
//! lane selection, striping under backpressure, the frame format a lane
//! puts on the wire, the racy `can_post` hint, `flush_xfer` requeue
//! ordering, and per-lane failover.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use nm_core::wire::{decode_bare_frame, decode_packet, Entry};
use nm_core::{
    CommCore, CoreBuilder, CoreConfig, GateId, LockingMode, ReliabilityConfig, StrategyKind,
};
use nm_fabric::{Driver, DriverCaps, Fabric, LoopbackDriver, PostError, WireModel};
use nm_sync::WaitStrategy;

const G: GateId = GateId(0);

/// Builds two connected cores over one rail of `n_vcis` contexts.
fn vci_pair(config: CoreConfig, model: WireModel, n_vcis: usize) -> (Arc<CommCore>, Arc<CommCore>) {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair_vcis(&[model], true, n_vcis);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();
    (a, b)
}

#[test]
fn multi_vci_eager_and_rendezvous_roundtrip() {
    for mode in [LockingMode::Fine, LockingMode::Coarse] {
        let config = CoreConfig::default().locking(mode).eager_threshold(1024);
        let (a, b) = vci_pair(config, WireModel::ideal(), 4);
        let sizes = [0usize, 1, 64, 1024, 1025, 40_000];
        for (i, &n) in sizes.iter().enumerate() {
            let payload = Bytes::from((0..n).map(|j| (j % 256) as u8).collect::<Vec<u8>>());
            let send = a.isend(G, i as u64, payload.clone()).unwrap();
            let recv = b.irecv(G, i as u64).unwrap();
            while !recv.is_complete() || !send.is_complete() {
                a.progress();
                b.progress();
            }
            assert_eq!(recv.take_data().unwrap(), payload, "size {n} mode {mode:?}");
        }
    }
}

#[test]
fn one_vci_fabric_behaves_like_plain_pair() {
    // `pair` is `pair_vcis(.., 1)`: the same workload must produce the
    // same packet counts — lane indices collapse to rail indices.
    let run = |n_vcis: usize| {
        let config = CoreConfig::default()
            .strategy(StrategyKind::Fifo)
            .eager_threshold(512)
            .rdv_chunk(1024);
        let (a, b) = vci_pair(config, WireModel::ideal(), n_vcis);
        let payload = Bytes::from(vec![0xA5u8; 16 * 1024]);
        let recv = b.irecv(G, 1).unwrap();
        let send = a.isend(G, 1, payload.clone()).unwrap();
        while !recv.is_complete() || !send.is_complete() {
            a.progress();
            b.progress();
        }
        assert_eq!(recv.take_data().unwrap(), payload);
        a.stats().packets_tx.get()
    };
    assert_eq!(run(1), run(1), "single-VCI runs must be reproducible");
}

#[test]
fn eager_spills_across_vci_contexts_under_backpressure() {
    // A depth-1 tx ring per context: each eager send fills the lane the
    // optimization layer picked, so the next send must spill onto the
    // next context — all four end up carrying traffic.
    let model = WireModel {
        tx_depth: 1,
        ..WireModel::ideal()
    };
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair_vcis(&[model], true, 4);
    let a = CoreBuilder::new(CoreConfig::default().strategy(StrategyKind::Fifo))
        .add_gate(pa.drivers())
        .build();
    for t in 0..4u64 {
        let s = a.isend(G, t, Bytes::from(vec![t as u8; 32])).unwrap();
        assert!(s.is_complete(), "eager completes on post");
    }
    let nic = pb.sim_drivers()[0].nic();
    for v in 0..4 {
        assert!(nic.has_inbound_vci(v), "context {v} carried no packet");
        assert!(pb.drivers()[0].poll_vci(v).is_some(), "context {v} empty");
    }
}

/// A driver whose `can_post_vci` hint is *always* stale-true: the inner
/// depth-1 loopback refuses the post whenever it is full, which is the
/// worst case of the racy hint a multi-queue driver can present. Every
/// successful post is recorded for wire-order inspection.
struct LyingDriver {
    caps: DriverCaps,
    inner: LoopbackDriver,
    log: Arc<Mutex<Vec<Bytes>>>,
}

impl LyingDriver {
    fn new(inner: LoopbackDriver, log: Arc<Mutex<Vec<Bytes>>>) -> Self {
        LyingDriver {
            caps: DriverCaps {
                name: "lying".to_string(),
                mtu: usize::MAX,
                thread_safe: true,
                may_corrupt: false,
            },
            inner,
            log,
        }
    }
}

impl Driver for LyingDriver {
    fn caps(&self) -> &DriverCaps {
        &self.caps
    }
    fn can_post_vci(&self, _vci: usize) -> bool {
        true // the hint every flusher sees, no matter the ring state
    }
    fn post_vci(&self, vci: usize, data: Bytes) -> Result<(), PostError> {
        self.inner.post_vci(vci, data.clone())?;
        self.log.lock().unwrap().push(data);
        Ok(())
    }
    fn poll_vci(&self, vci: usize) -> Option<Bytes> {
        self.inner.poll_vci(vci)
    }
}

#[test]
fn an_eager_frame_is_bare_unless_the_lane_is_reliable() {
    // An 8 B eager message leaves as entry header 21 + packet header 2 +
    // payload 8, behind a 1-byte bare header or a 13-byte sealed one; no
    // recording is live, so no span word rides along. The ring holds the
    // one frame, so the driver's stale hint never matters here.
    let reliable = CoreConfig::default().reliability(ReliabilityConfig::enabled());
    for (config, frame_len) in [(CoreConfig::default(), 32), (reliable, 44)] {
        let log = Arc::new(Mutex::new(Vec::new()));
        let (da, db) = LoopbackDriver::pair(64);
        let a = CoreBuilder::new(config.clone())
            .add_gate(vec![
                Arc::new(LyingDriver::new(da, Arc::clone(&log))) as Arc<dyn Driver>
            ])
            .build();
        let b = CoreBuilder::new(config)
            .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
            .build();
        let payload = Bytes::from(vec![0xA5u8; 8]);
        let send = a.isend(G, 1, payload.clone()).unwrap();
        let recv = b.irecv(G, 1).unwrap();
        while !recv.is_complete() || !send.is_complete() {
            a.progress();
            b.progress();
        }
        assert_eq!(recv.take_data().unwrap(), payload);
        let lens: Vec<usize> = log.lock().unwrap().iter().map(Bytes::len).collect();
        assert_eq!(lens, [frame_len]);
    }
}

#[test]
fn stale_can_post_hint_cannot_strand_xfer_items() {
    // With `can_post` permanently lying, every flush pass pops an item,
    // fails the post and restores it. The transfer must still complete:
    // each progression pass re-flushes the queue, so items drain as the
    // receiver frees ring slots.
    let log = Arc::new(Mutex::new(Vec::new()));
    let (da, db) = LoopbackDriver::pair(1);
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .eager_threshold(64)
        .rdv_chunk(128);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![
            Arc::new(LyingDriver::new(da, Arc::clone(&log))) as Arc<dyn Driver>
        ])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    let payload = Bytes::from((0..2048u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let recv = b.irecv(G, 3).unwrap();
    let send = a.isend(G, 3, payload.clone()).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);
    assert_eq!(a.pending().xfer_items, 0, "items stranded in a lane queue");
}

#[test]
fn flush_xfer_requeue_preserves_chunk_order_under_contention() {
    // The push-front regression test: a depth-1 ring behind a lying
    // `can_post` forces the pop → failed-post → restore path on nearly
    // every chunk. The restore must go to the *front* of the queue, so
    // the chunks still hit the wire in offset order.
    let log = Arc::new(Mutex::new(Vec::new()));
    let (da, db) = LoopbackDriver::pair(1);
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .eager_threshold(64)
        .rdv_chunk(128);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![
            Arc::new(LyingDriver::new(da, Arc::clone(&log))) as Arc<dyn Driver>
        ])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    let payload = Bytes::from(vec![7u8; 16 * 128]); // 16 rendezvous chunks
    let recv = b.irecv(G, 9).unwrap();
    let send = a.isend(G, 9, payload.clone()).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);

    let offsets: Vec<u32> = log
        .lock()
        .unwrap()
        .iter()
        .flat_map(|frame| {
            let f = decode_bare_frame(frame.clone()).expect("recorded frame decodes");
            decode_packet(f.payload).expect("recorded packet decodes")
        })
        .filter_map(|e| match e {
            Entry::Data { offset, .. } => Some(offset),
            _ => None,
        })
        .collect();
    assert_eq!(offsets.len(), 16, "every chunk crossed the wire once");
    assert!(
        offsets.windows(2).all(|w| w[0] < w[1]),
        "chunks posted out of order: {offsets:?}"
    );
}

/// A two-context driver whose VCI 0 silently discards everything posted
/// to it (accepts the frame, never delivers), while VCI 1 works — the
/// single-dead-context scenario a physical rail death cannot produce.
struct HalfDeadDriver {
    caps: DriverCaps,
    vcis: [LoopbackDriver; 2],
    blackhole_zero: bool,
}

impl HalfDeadDriver {
    fn pair(blackhole_a_zero: bool) -> (HalfDeadDriver, HalfDeadDriver) {
        let (a0, b0) = LoopbackDriver::pair(256);
        let (a1, b1) = LoopbackDriver::pair(256);
        let caps = || DriverCaps {
            name: "halfdead".to_string(),
            mtu: usize::MAX,
            thread_safe: true,
            may_corrupt: false,
        };
        (
            HalfDeadDriver {
                caps: caps(),
                vcis: [a0, a1],
                blackhole_zero: blackhole_a_zero,
            },
            HalfDeadDriver {
                caps: caps(),
                vcis: [b0, b1],
                blackhole_zero: false,
            },
        )
    }
}

impl Driver for HalfDeadDriver {
    fn caps(&self) -> &DriverCaps {
        &self.caps
    }
    fn num_vcis(&self) -> usize {
        2
    }
    fn can_post_vci(&self, vci: usize) -> bool {
        self.vcis[vci].can_post_vci(0)
    }
    fn post_vci(&self, vci: usize, data: Bytes) -> Result<(), PostError> {
        if vci == 0 && self.blackhole_zero {
            return Ok(()); // accepted, never delivered
        }
        self.vcis[vci].post_vci(0, data)
    }
    fn poll_vci(&self, vci: usize) -> Option<Bytes> {
        self.vcis[vci].poll_vci(0)
    }
}

#[test]
fn lane_failover_moves_traffic_to_live_vci_of_same_rail() {
    // VCI 0 of the only rail black-holes its tx direction. Retransmit
    // exhaustion must kill that *lane* only: the unacked window migrates
    // to VCI 1, every message is delivered in order, and the gate stays
    // reachable — one dead context is not a dead rail.
    let (da, db) = HalfDeadDriver::pair(true);
    let rel = ReliabilityConfig {
        rto_base_ns: 5_000,
        rto_max_ns: 50_000,
        max_retries: 2,
        rail_dead_threshold: 1,
        ..ReliabilityConfig::enabled()
    };
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(rel);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    const N: u64 = 50;
    let sends: Vec<_> = (0..N)
        .map(|i| {
            a.isend(G, 7, Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap()
        })
        .collect();
    let recvs: Vec<_> = (0..N).map(|_| b.irecv(G, 7).unwrap()).collect();
    for (i, r) in recvs.iter().enumerate() {
        while !r.is_complete() {
            a.progress();
            b.progress();
        }
        assert_eq!(
            r.take_data().unwrap().as_ref(),
            (i as u64).to_le_bytes(),
            "message {i} lost or reordered across the lane failover"
        );
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }
    assert_eq!(
        a.stats().rails_failed.get(),
        1,
        "exactly the black-holed lane must be declared dead"
    );
    // The rail itself survives through its live context: new traffic
    // still flows (a fully dead rail would fail this with
    // PeerUnreachable).
    let send = a.isend(G, 8, Bytes::from_static(b"still here")).unwrap();
    let recv = b.irecv(G, 8).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"still here"));
    // Nothing lingers on the dead lane.
    for _ in 0..2_000 {
        a.progress();
        b.progress();
    }
    assert_eq!(a.pending().unacked_frames, 0, "frames left on a dead lane");
}

#[test]
fn progress_shard_drives_disjoint_lanes_to_completion() {
    // Sharded progression (one shard per would-be VCI thread) must be
    // enough to complete traffic: every lane belongs to exactly one
    // shard, and every shard pass also feeds the collect queue to idle
    // lanes.
    let config = CoreConfig::default().eager_threshold(256);
    let (a, b) = vci_pair(config, WireModel::ideal(), 4);
    let recvs: Vec<_> = (0..8u64).map(|t| b.irecv(G, t).unwrap()).collect();
    let sends: Vec<_> = (0..8u64)
        .map(|t| {
            let size = if t % 2 == 0 { 64 } else { 8 * 1024 };
            a.isend(G, t, Bytes::from(vec![t as u8; size])).unwrap()
        })
        .collect();
    while recvs.iter().chain(sends.iter()).any(|r| !r.is_complete()) {
        for shard in 0..4 {
            a.progress_shard(shard, 4);
            b.progress_shard(shard, 4);
        }
    }
    for (t, r) in recvs.iter().enumerate() {
        let size = if t % 2 == 0 { 64 } else { 8 * 1024 };
        assert_eq!(r.take_data().unwrap(), Bytes::from(vec![t as u8; size]));
    }
}
