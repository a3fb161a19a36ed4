//! End-to-end tests of the reliability layer over the chaos fabric:
//! exactly-once in-order delivery across loss / duplication / corruption
//! / reordering, retransmit timeouts, gap-report (fast) retransmits, rail
//! failover, deadlines and cancellation hygiene.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;

use nm_core::wire::{
    decode_frame, decode_packet, encode_frame, encode_packet, Entry, FRAME_RELIABLE,
};
use nm_core::{
    CommCore, CommError, CoreBuilder, CoreConfig, GateId, LockingMode, ReliabilityConfig,
    StrategyKind,
};
use nm_fabric::{ChaosDriver, Driver, DriverCaps, FaultPlan, LoopbackDriver, PostError, WireFrame};
use nm_sync::WaitStrategy;

const G: GateId = GateId(0);

/// Fast-retransmit knobs so lossy tests converge in milliseconds.
fn fast_reliability() -> ReliabilityConfig {
    ReliabilityConfig {
        rto_base_ns: 50_000,   // 50 µs
        rto_max_ns: 2_000_000, // 2 ms cap
        ..ReliabilityConfig::enabled()
    }
}

/// Two connected single-rail cores whose wires both run under `plan`.
fn chaos_pair(config: CoreConfig, plan: FaultPlan) -> (Arc<CommCore>, Arc<CommCore>) {
    let (da, db) = LoopbackDriver::pair(256);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![
            Arc::new(ChaosDriver::new(da, plan.clone())) as Arc<dyn Driver>
        ])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(ChaosDriver::new(db, plan)) as Arc<dyn Driver>])
        .build();
    (a, b)
}

/// Streams `n` tagged messages a→b and asserts exactly-once in-order
/// delivery by payload content; returns when both sides are drained.
fn stream_and_verify(a: &Arc<CommCore>, b: &Arc<CommCore>, n: u64) {
    stream_within(a, b, n, usize::MAX);
}

/// [`stream_and_verify`] that must finish within `max_passes` co-polled
/// progression passes: a bound on passes, not on time, so a recovery
/// that waits for a clock fails it however fast the host is.
fn stream_within(a: &Arc<CommCore>, b: &Arc<CommCore>, n: u64, max_passes: usize) {
    let sends: Vec<_> = (0..n)
        .map(|i| {
            a.isend(G, 7, Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap()
        })
        .collect();
    let recvs: Vec<_> = (0..n).map(|_| b.irecv(G, 7).unwrap()).collect();
    let mut passes = 0;
    for (i, r) in recvs.iter().enumerate() {
        while !r.is_complete() {
            a.progress();
            b.progress();
            passes += 1;
            assert!(
                passes <= max_passes,
                "message {i} of {n} not delivered after {max_passes} passes"
            );
        }
        let got = r.take_data().unwrap();
        assert_eq!(
            got.as_ref(),
            (i as u64).to_le_bytes(),
            "message {i} delivered out of order, duplicated or lost"
        );
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }
}

#[test]
fn reliable_eager_over_lossy_wire_all_locking_modes() {
    for mode in LockingMode::ALL {
        let plan = FaultPlan::new(0xC0FFEE).loss(0.05);
        let config = CoreConfig::default()
            .locking(mode)
            .strategy(StrategyKind::Fifo)
            .reliability(fast_reliability());
        let (a, b) = chaos_pair(config, plan);
        stream_and_verify(&a, &b, 200);
        assert!(
            a.stats().retransmits.get() > 0,
            "5% loss over 200 frames must trigger retransmits (mode {mode:?})"
        );
    }
}

#[test]
fn reliable_rendezvous_over_lossy_wire() {
    let plan = FaultPlan::new(42).loss(0.03);
    let config = CoreConfig::default()
        .eager_threshold(1024)
        .reliability(fast_reliability());
    let (a, b) = chaos_pair(config, plan);
    let payload: Vec<u8> = (0..64 * 1024u32).map(|i| (i * 31 + 7) as u8).collect();
    let send = a.isend(G, 9, Bytes::from(payload.clone())).unwrap();
    let recv = b.irecv(G, 9).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), Bytes::from(payload));
    assert!(a.stats().rdv_started.get() >= 1);
}

#[test]
fn duplicates_and_corruption_are_filtered() {
    let plan = FaultPlan::new(7).duplicate(0.10).corrupt(0.05);
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(fast_reliability());
    let (a, b) = chaos_pair(config, plan);
    stream_and_verify(&a, &b, 300);
    let dup = a.stats().dup_dropped.get() + b.stats().dup_dropped.get();
    let bad = a.stats().corrupt_dropped.get() + b.stats().corrupt_dropped.get();
    assert!(
        dup > 0,
        "10% duplication over 300 frames must hit the filter"
    );
    assert!(
        bad > 0,
        "5% corruption over 300 frames must hit the checksum"
    );
}

#[test]
fn a_flipped_byte_fails_the_checksum_and_is_never_decoded() {
    // A sealed frame with one byte flipped, injected on b's wire before
    // any traffic: were it decoded, its wseq 0 would take the place of
    // a's first frame. It is dropped on the checksum, and a's message
    // is still delivered.
    let (da, db) = LoopbackDriver::pair(64);
    let da = Arc::new(da);
    let config = CoreConfig::default().reliability(fast_reliability());
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::clone(&da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let impostor = Entry::Eager {
        tag: 1,
        seq: 0,
        data: Bytes::from_static(b"impostor"),
    };
    let packet = encode_packet(&[impostor]);
    let mut flipped = encode_frame(0, 0, FRAME_RELIABLE, 0, &packet).to_vec();
    let last = flipped.len() - 1;
    flipped[last] ^= 0xFF;
    da.post_frame_vci(0, Bytes::from(flipped).into()).unwrap();
    while b.progress() > 0 {}
    assert_eq!(b.stats().corrupt_dropped.get(), 1);
    assert_eq!(b.stats().wire_errors.get(), 0);
    assert_eq!(b.stats().unexpected_msgs.get(), 0, "the frame was decoded");

    let send = a.isend(G, 1, Bytes::from_static(b"genuine")).unwrap();
    let recv = b.irecv(G, 1).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"genuine"));
}

#[test]
fn a_frame_beyond_the_receive_window_is_dropped_not_buffered() {
    // Sealed, CRC-valid frames whose `wseq` lies a window or more ahead
    // of what b expects, injected on b's wire before any traffic. No
    // sender within the window posts them, so each counts a wire error
    // and none is held: buffered, a peer could grow b's memory without
    // bound. a's own stream is still delivered.
    let (da, db) = LoopbackDriver::pair(64);
    let da = Arc::new(da);
    let config = CoreConfig::default().reliability(fast_reliability());
    let window = config.reliability.window as u32;
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::clone(&da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let far_ahead = [window, window + 1, 1 << 30, u32::MAX / 2];
    for wseq in far_ahead {
        let packet = encode_packet(&[Entry::Eager {
            tag: 7,
            seq: wseq,
            data: Bytes::from_static(b"ahead"),
        }]);
        let frame = encode_frame(wseq, 0, FRAME_RELIABLE, 0, &packet);
        da.post_frame_vci(0, frame.into()).unwrap();
    }
    while b.progress() > 0 {}
    assert_eq!(b.stats().wire_errors.get(), far_ahead.len() as u64);
    assert_eq!(b.stats().ooo_buffered.get(), 0, "a frame was buffered");
    assert_eq!(b.stats().acks_tx.get(), 0, "a dropped frame was acked");

    stream_and_verify(&a, &b, 2 * window as u64);
    assert_eq!(b.stats().wire_errors.get(), far_ahead.len() as u64);
}

#[test]
#[should_panic(expected = "enable reliability")]
fn an_unreliable_core_refuses_a_wire_that_may_corrupt() {
    let (da, _db) = LoopbackDriver::pair(64);
    let corrupting = ChaosDriver::new(da, FaultPlan::new(1).corrupt(0.01));
    let _ = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(corrupting) as Arc<dyn Driver>])
        .build();
}

#[test]
fn a_reliable_core_accepts_a_wire_that_may_corrupt() {
    let (da, _db) = LoopbackDriver::pair(64);
    let corrupting = ChaosDriver::new(da, FaultPlan::new(1).corrupt(0.01));
    assert!(corrupting.caps().may_corrupt);
    let core = CoreBuilder::new(CoreConfig::default().reliability(ReliabilityConfig::enabled()))
        .add_gate(vec![Arc::new(corrupting) as Arc<dyn Driver>])
        .build();
    assert_eq!(core.num_gates(), 1);
}

#[test]
fn reordering_is_resequenced_by_the_window() {
    let plan = FaultPlan::new(99).reorder(4);
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(fast_reliability());
    let (a, b) = chaos_pair(config, plan);
    stream_and_verify(&a, &b, 300);
    assert!(
        b.stats().ooo_buffered.get() > 0,
        "depth-4 reordering must exercise the out-of-order buffer"
    );
}

#[test]
fn soak_three_seeds_no_loss_dup_or_reorder_reaches_app() {
    // The acceptance soak: heavy combined faults, three seeds, and the
    // application still sees every message exactly once, in order, with
    // nothing left behind in any queue.
    for seed in [1u64, 0xBEEF, 0x5EED_5EED] {
        let plan = FaultPlan::new(seed)
            .loss(0.02)
            .duplicate(0.02)
            .corrupt(0.01)
            .delay(0.02, 3)
            .reorder(3);
        let config = CoreConfig::default()
            .strategy(StrategyKind::Fifo)
            .reliability(fast_reliability());
        let (a, b) = chaos_pair(config, plan);
        stream_and_verify(&a, &b, 2_500);
        // Drain in-flight acks/retransmits, then nothing may linger.
        for _ in 0..2_000 {
            a.progress();
            b.progress();
        }
        let pa = a.pending();
        let pb = b.pending();
        assert_eq!(pa.posted_recvs, 0, "seed {seed:#x}");
        assert_eq!(pb.posted_recvs, 0, "seed {seed:#x}");
        assert_eq!(
            pa.unacked_frames, 0,
            "seed {seed:#x}: leaked unacked frames"
        );
        assert_eq!(
            pb.unacked_frames, 0,
            "seed {seed:#x}: leaked unacked frames"
        );
    }
}

#[test]
fn failover_moves_unacked_traffic_to_surviving_rail() {
    // Rail 0 of the a→b direction drops everything; rail 1 is clean.
    // The sender must declare rail 0 dead and re-frame its unacked
    // window on rail 1 without losing a message.
    let (da0, db0) = LoopbackDriver::pair(256);
    let (da1, db1) = LoopbackDriver::pair(256);
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
        .add_gate(vec![
            Arc::new(da0) as Arc<dyn Driver>,
            Arc::new(da1) as Arc<dyn Driver>,
        ])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![
            Arc::new(ChaosDriver::new(db0, FaultPlan::new(3).loss(1.0))) as Arc<dyn Driver>,
            Arc::new(db1) as Arc<dyn Driver>,
        ])
        .build();
    stream_and_verify(&a, &b, 100);
    assert_eq!(
        a.stats().rails_failed.get(),
        1,
        "the black-holed rail must be declared dead exactly once"
    );
}

/// What a [`TapDriver`] does to data frames by wire sequence number.
#[derive(Default)]
struct Script {
    /// Dropped (accepted, never delivered) the first time each is seen.
    drop_once: Vec<u32>,
    dropped: Vec<u32>,
    /// Attempts to post a dropped `wseq` again that are still to be
    /// refused with `WouldBlock`.
    refuse_resends: usize,
    /// `(wseq, n)`: that frame is held back on first sight and delivered
    /// after exactly `n` later data frames have passed it.
    hold: Option<(u32, usize)>,
    held: Option<(Bytes, usize)>,
}

/// Records every frame the "NIC" accepted, and loses, delays or refuses
/// frames on script: by post index (`swallow`) or by `wseq` (`script`).
struct TapDriver {
    caps: DriverCaps,
    inner: LoopbackDriver,
    log: Arc<Mutex<Vec<Bytes>>>,
    swallow: std::ops::Range<usize>,
    script: Mutex<Script>,
    posted: AtomicUsize,
}

impl TapDriver {
    fn new(
        inner: LoopbackDriver,
        swallow: std::ops::Range<usize>,
    ) -> (Self, Arc<Mutex<Vec<Bytes>>>) {
        let (mut tap, log) = TapDriver::scripted(inner, Script::default());
        tap.swallow = swallow;
        (tap, log)
    }

    fn scripted(inner: LoopbackDriver, script: Script) -> (Self, Arc<Mutex<Vec<Bytes>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let tap = TapDriver {
            caps: inner.caps().clone(),
            inner,
            log: Arc::clone(&log),
            swallow: 0..0,
            script: Mutex::new(script),
            posted: AtomicUsize::new(0),
        };
        (tap, log)
    }

    /// Runs one post through the script: `Err` refuses it, `Ok(false)`
    /// accepts it without delivering it (lost, or held back for later).
    fn run_script(&self, vci: usize, data: &Bytes) -> Result<bool, PostError> {
        let frame = decode_frame(data.clone()).expect("posted frame passes its checksum");
        if frame.ack_only() {
            return Ok(true);
        }
        let mut script = self.script.lock().unwrap();
        match script.held.take() {
            Some((held, 0)) => self.inner.post_frame_vci(vci, held.into())?,
            Some((held, n)) => script.held = Some((held, n - 1)),
            None => {}
        }
        if let Some((_, n)) = script.hold.take_if(|(wseq, _)| *wseq == frame.wseq) {
            script.held = Some((data.clone(), n));
            return Ok(false);
        }
        if let Some(i) = script.drop_once.iter().position(|&w| w == frame.wseq) {
            script.drop_once.swap_remove(i);
            script.dropped.push(frame.wseq);
            return Ok(false);
        }
        if script.refuse_resends > 0 && script.dropped.contains(&frame.wseq) {
            script.refuse_resends -= 1;
            return Err(PostError::WouldBlock);
        }
        Ok(true)
    }
}

impl Driver for TapDriver {
    fn caps(&self) -> &DriverCaps {
        &self.caps
    }
    fn can_post_vci(&self, vci: usize) -> bool {
        self.inner.can_post_vci(vci)
    }
    fn post_frame_vci(&self, vci: usize, frame: WireFrame) -> Result<(), PostError> {
        let (data, None) = frame.into_parts() else {
            panic!("a reliable lane posts one-part frames");
        };
        let deliver = self.run_script(vci, &data)?;
        // relaxed: a post counter, publishes nothing.
        let nth = self.posted.fetch_add(1, Ordering::Relaxed);
        if deliver && !self.swallow.contains(&nth) {
            self.inner.post_frame_vci(vci, data.clone().into())?;
        }
        self.log.lock().unwrap().push(data);
        Ok(())
    }
    fn poll_vci(&self, vci: usize) -> Option<WireFrame> {
        self.inner.poll_vci(vci)
    }
}

/// The data frames in `log` as (wseq, entries); every recorded frame
/// must pass its checksum.
fn data_frames(log: &Mutex<Vec<Bytes>>) -> Vec<(u32, Vec<Entry>)> {
    log.lock()
        .unwrap()
        .iter()
        .map(|raw| decode_frame(raw.clone()).expect("posted frame passes its checksum"))
        .filter(|f| !f.ack_only())
        .map(|f| (f.wseq, decode_packet(f.payload).expect("packet decodes")))
        .collect()
}

#[test]
fn retransmitted_and_failed_over_frames_carry_the_entries_first_sent() {
    // The retransmit window holds entries and re-encodes them; whatever
    // leaves on a retry or on a surviving rail must decode to exactly
    // what the first transmission carried.
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .eager_threshold(64)
        .rdv_chunk(256)
        .reliability(fast_reliability());

    // Retransmit: the first frame a posts is swallowed once.
    let (da, db) = LoopbackDriver::pair(256);
    let (tap, log) = TapDriver::new(da, 0..1);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(tap) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    stream_and_verify(&a, &b, 4);
    assert!(a.stats().retransmits.get() >= 1);
    let frames = data_frames(&log);
    let (first_wseq, first) = &frames[0];
    let retry = frames[1..]
        .iter()
        .find(|(wseq, _)| wseq == first_wseq)
        .expect("the swallowed frame was retransmitted under its wseq");
    assert_eq!(&retry.1, first);

    // Failover: rail 0 lets the RTS through and swallows everything
    // after it, rail 1 is clean. The 1 KiB rendezvous stripes its DATA
    // chunks (slices of the caller's buffer) over both rails, so rail
    // 0's window dies holding payload-carrying entries.
    let (da0, db0) = LoopbackDriver::pair(256);
    let (da1, db1) = LoopbackDriver::pair(256);
    let config = config.reliability(ReliabilityConfig {
        max_retries: 2,
        rail_dead_threshold: 1,
        ..fast_reliability()
    });
    let (tap0, log0) = TapDriver::new(da0, 1..usize::MAX);
    let (tap1, log1) = TapDriver::new(da1, 0..0);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![
            Arc::new(tap0) as Arc<dyn Driver>,
            Arc::new(tap1) as Arc<dyn Driver>,
        ])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![
            Arc::new(db0) as Arc<dyn Driver>,
            Arc::new(db1) as Arc<dyn Driver>,
        ])
        .build();
    let payload = Bytes::from((0..1024u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let recv = b.irecv(G, 5).unwrap();
    let send = a.isend(G, 5, payload.clone()).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);
    assert_eq!(a.stats().rails_failed.get(), 1);
    let survivors = data_frames(&log1);
    // wseq 0 is the RTS, which got through and was acknowledged.
    let stranded: Vec<_> = data_frames(&log0)
        .into_iter()
        .filter(|(wseq, _)| *wseq != 0)
        .collect();
    for (wseq, entries) in &stranded {
        assert!(
            survivors.iter().any(|(_, e)| e == entries),
            "rail 0 frame {wseq} never reappeared intact on rail 1"
        );
    }
    assert!(
        stranded
            .iter()
            .any(|(_, e)| matches!(e[0], Entry::Data { .. })),
        "the failover must have covered a payload-carrying frame"
    );
}

/// Retransmit timers of a minute: within a test, only a gap report can
/// repair a loss.
fn gap_report_only() -> CoreConfig {
    let rel = ReliabilityConfig {
        rto_base_ns: 60_000_000_000,
        rto_max_ns: 60_000_000_000,
        ..ReliabilityConfig::enabled()
    };
    CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(rel)
}

/// A script that only drops `wseqs`, each on first sight.
fn drop_once(wseqs: &[u32]) -> Script {
    Script {
        drop_once: wseqs.to_vec(),
        ..Script::default()
    }
}

/// Two cores over a clean loopback wire, `a`'s end under `script`. With
/// `dup_acks` every frame `a` polls (the acks of a one-way stream)
/// arrives twice.
fn scripted_pair(
    config: CoreConfig,
    script: Script,
    dup_acks: bool,
) -> (Arc<CommCore>, Arc<CommCore>, Arc<Mutex<Vec<Bytes>>>) {
    let (da, db) = LoopbackDriver::pair(256);
    let (tap, log) = TapDriver::scripted(da, script);
    let da: Arc<dyn Driver> = if dup_acks {
        Arc::new(ChaosDriver::new(tap, FaultPlan::new(1).duplicate(1.0)))
    } else {
        Arc::new(tap)
    };
    let a = CoreBuilder::new(config.clone()).add_gate(vec![da]).build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    (a, b, log)
}

/// How many times each `wseq` in `wseqs` was posted as a data frame.
fn times_posted(log: &Mutex<Vec<Bytes>>, wseqs: &[u32]) -> Vec<usize> {
    let frames = data_frames(log);
    wseqs
        .iter()
        .map(|w| frames.iter().filter(|(wseq, _)| wseq == w).count())
        .collect()
}

#[test]
fn a_refused_retransmit_costs_no_retry() {
    // Frame 0 is lost and the NIC then refuses its next ten resends. A
    // resend that never left must not count as a retry: with two
    // retries per frame and one exhaustion per lane, counting refusals
    // would declare a healthy lane dead without sending anything.
    let rel = ReliabilityConfig {
        max_retries: 2,
        rail_dead_threshold: 1,
        ..fast_reliability()
    };
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(rel);
    let script = Script {
        refuse_resends: 10,
        ..drop_once(&[0])
    };
    let (a, b, log) = scripted_pair(config, script, false);
    let send = a.isend(G, 7, Bytes::from_static(b"once")).unwrap();
    let recv = b.irecv(G, 7).unwrap();
    while !recv.is_complete() {
        a.progress();
        b.progress();
        assert_eq!(
            a.stats().rails_failed.get(),
            0,
            "refused resends were counted as retries and killed the lane"
        );
    }
    a.wait(&send, WaitStrategy::Busy).unwrap();
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"once"));
    // The tap logs what it accepted: the first transmission plus every
    // retransmit that actually left.
    let on_the_wire = data_frames(&log).len() as u64;
    assert_eq!(a.stats().retransmits.get(), on_the_wire - 1);
    assert_eq!(a.stats().fast_retransmits.get(), 0);
}

#[test]
fn a_gap_report_resends_the_hole_without_the_timer() {
    // Fifo strategy, fresh cores: message i rides the frame with wseq i.
    // Frame 2 of 8 is lost; b's next ack says "expecting 2, holding 5",
    // and a resends 2 on the spot.
    let (a, b, log) = scripted_pair(gap_report_only(), drop_once(&[2]), false);
    stream_within(&a, &b, 8, 16);
    assert_eq!(a.stats().fast_retransmits.get(), 1);
    assert_eq!(a.stats().retransmits.get(), 1, "exactly one resend");
    assert_eq!(times_posted(&log, &[2]), [2]);
    assert_eq!(data_frames(&log).len(), 9, "nothing else was resent");
    a.progress(); // the ack of the last pass
    assert_eq!(a.pending().unacked_frames, 0);
}

#[test]
fn each_hole_of_a_window_costs_one_round_trip() {
    // Frames 1 and 5 of 12 are lost: the ack provoked by the arrival of
    // the first resend reports the second hole.
    let (a, b, log) = scripted_pair(gap_report_only(), drop_once(&[1, 5]), false);
    stream_within(&a, &b, 12, 16);
    assert_eq!(a.stats().fast_retransmits.get(), 2);
    assert_eq!(a.stats().retransmits.get(), 2, "the timer never fired");
    assert_eq!(times_posted(&log, &[1, 5]), [2, 2]);
}

#[test]
fn a_repeated_gap_report_resends_nothing_more() {
    // Every ack reaches a twice: the second copy of a report names a
    // head that was already resent for it.
    let (a, b, log) = scripted_pair(gap_report_only(), drop_once(&[1, 5]), true);
    stream_within(&a, &b, 12, 16);
    assert_eq!(a.stats().fast_retransmits.get(), 2);
    assert_eq!(a.stats().retransmits.get(), 2);
    assert_eq!(times_posted(&log, &[1, 5]), [2, 2]);
    assert_eq!(b.stats().dup_dropped.get(), 0, "b saw no spurious resend");
}

#[test]
fn a_lost_tail_still_waits_for_the_timer() {
    // The last frame of a burst has nothing behind it, so no report can
    // name it: recovery is the retransmit timer's, as before.
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(fast_reliability());
    let rto = Duration::from_nanos(config.reliability.rto_base_ns);
    let (a, b, log) = scripted_pair(config, drop_once(&[7]), false);
    let start = std::time::Instant::now();
    stream_and_verify(&a, &b, 8);
    assert!(
        start.elapsed() >= rto,
        "frame 7 came back before its timer could have fired"
    );
    assert_eq!(a.stats().fast_retransmits.get(), 0);
    assert!(a.stats().retransmits.get() >= 1);
    assert!(times_posted(&log, &[7])[0] >= 2);
}

#[test]
fn a_piggybacked_ack_does_not_cancel_the_gap_report() {
    // Frames 0 and 4 are lost and frame 1 is a rendezvous RTS. When the
    // resend of 0 releases 0..=3, b answers the RTS from inside that
    // very pass: the CTS is a data frame and carries the cumulative ack
    // (4) — but not the count of frames b still holds behind hole 4.
    // The lane must go on owing that report, or hole 4 waits a minute.
    // The DATA chunk that answers the CTS (frame 10) is lost as well, so
    // that nothing b receives later can provoke the report by accident.
    let config = gap_report_only().eager_threshold(64);
    let (a, b, log) = scripted_pair(config, drop_once(&[0, 4, 10]), false);
    let eager = |i: u8| Bytes::from(vec![i; 8]);
    let big = Bytes::from(vec![0xA5u8; 256]);
    let mut sends = vec![a.isend(G, 7, eager(0)).unwrap()];
    sends.push(a.isend(G, 7, big.clone()).unwrap());
    sends.extend((2..10).map(|i| a.isend(G, 7, eager(i)).unwrap()));
    let mut recvs: Vec<_> = (0..10).map(|_| b.irecv(G, 7).unwrap()).collect();
    let drive = |until: &dyn Fn() -> bool| {
        for _ in 0..16 {
            if until() {
                return;
            }
            a.progress();
            b.progress();
        }
        panic!("a hole waited for the one-minute timer");
    };
    drive(&|| recvs[2..].iter().all(|r| r.is_complete()));
    assert_eq!(a.stats().fast_retransmits.get(), 2);
    assert_eq!(times_posted(&log, &[0, 4, 10]), [2, 2, 1]);
    // Three more frames put the lost chunk behind a reportable gap.
    sends.extend((10..13).map(|i| a.isend(G, 7, eager(i)).unwrap()));
    recvs.extend((10..13).map(|_| b.irecv(G, 7).unwrap()));
    drive(&|| recvs.iter().chain(&sends).all(|r| r.is_complete()));
    for (i, r) in recvs.iter().enumerate() {
        let want = if i == 1 { big.clone() } else { eager(i as u8) };
        assert_eq!(r.take_data().unwrap(), want, "message {i}");
    }
    assert_eq!(a.stats().retransmits.get(), 3, "the timer never fired");
}

#[test]
fn fewer_than_three_frames_behind_a_hole_provoke_no_resend() {
    // Frame 2 is late, not lost: it is passed by two frames, then by
    // three. One message per pass, so b acks (and reports) after every
    // frame. Two behind the hole is below the threshold; three provokes
    // a resend that was not needed, which b drops as a duplicate.
    for (passed_by, resends) in [(2, 0), (3, 1)] {
        let script = Script {
            hold: Some((2, passed_by)),
            ..Script::default()
        };
        let (a, b, _log) = scripted_pair(gap_report_only(), script, false);
        let recvs: Vec<_> = (0..8).map(|_| b.irecv(G, 7).unwrap()).collect();
        for i in 0..8u64 {
            a.isend(G, 7, Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap();
            b.progress();
            a.progress();
        }
        b.progress();
        for (i, r) in recvs.iter().enumerate() {
            let got = r.take_data().expect("delivered: frame 2 was only late");
            assert_eq!(got.as_ref(), (i as u64).to_le_bytes());
        }
        let ctx = format!("passed by {passed_by}");
        assert_eq!(a.stats().fast_retransmits.get(), resends, "{ctx}");
        assert_eq!(a.stats().retransmits.get(), resends, "{ctx}");
        assert_eq!(b.stats().dup_dropped.get(), resends, "{ctx}");
    }
}

#[test]
fn reordering_resolved_within_a_pass_is_never_reported() {
    // An ack describes the end of a poll pass, not each arrival. The
    // depth-2 shuffle holds one frame back while any number pass it,
    // but a burst that fits one pass (16 polls) is back in order by the
    // time the ack goes out: no report, no resend. (Streamed without
    // pauses the same wire does leave three or more frames behind a
    // late one at a pass boundary now and then; that costs a duplicate,
    // as in the test above.)
    for seed in [3u64, 0xBEEF, 0x5EED_5EED] {
        let (a, b) = chaos_pair(gap_report_only(), FaultPlan::reorder_only(2, seed));
        for _ in 0..50 {
            stream_within(&a, &b, 10, 4);
        }
        assert!(b.stats().ooo_buffered.get() > 0, "seed {seed:#x}");
        assert_eq!(a.stats().fast_retransmits.get(), 0, "seed {seed:#x}");
        assert_eq!(a.stats().retransmits.get(), 0, "seed {seed:#x}");
    }
}

#[test]
fn pingpong_bursts_under_loss_recover_by_gap_report() {
    // Two-way traffic: each side's data frames piggyback the cumulative
    // ack for the other's, so bare acks are the exception, yet holes
    // are still reported and repaired without the timer.
    let plan = FaultPlan::new(0xACED).loss(0.05);
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(fast_reliability());
    let (a, b) = chaos_pair(config, plan);
    const BURST: u64 = 8;
    for round in 0..100u64 {
        for (from, to) in [(&a, &b), (&b, &a)] {
            let sends: Vec<_> = (0..BURST)
                .map(|i| {
                    let payload = (round * BURST + i).to_le_bytes().to_vec();
                    from.isend(G, 7, Bytes::from(payload)).unwrap()
                })
                .collect();
            let recvs: Vec<_> = (0..BURST).map(|_| to.irecv(G, 7).unwrap()).collect();
            for (i, r) in recvs.iter().enumerate() {
                while !r.is_complete() {
                    a.progress();
                    b.progress();
                }
                let want = (round * BURST + i as u64).to_le_bytes();
                assert_eq!(r.take_data().unwrap().as_ref(), want, "round {round}");
            }
            for s in &sends {
                from.wait(s, WaitStrategy::Busy).unwrap();
            }
        }
    }
    let fast = a.stats().fast_retransmits.get() + b.stats().fast_retransmits.get();
    assert!(
        fast > 0,
        "5% loss over 1600 frames must open reportable gaps"
    );
}

#[test]
fn most_losses_of_a_long_stream_are_repaired_by_gap_report() {
    // 2 % loss both ways and a 50 ms timer: what the timer still has to
    // repair (a lost resend, a lost report with nothing behind it, the
    // tail) is the small remainder.
    for seed in [1u64, 0xBEEF, 0x5EED_5EED] {
        let rel = ReliabilityConfig {
            rto_base_ns: 50_000_000,
            rto_max_ns: 50_000_000,
            ..ReliabilityConfig::enabled()
        };
        let config = CoreConfig::default()
            .strategy(StrategyKind::Fifo)
            .reliability(rel);
        let (a, b) = chaos_pair(config, FaultPlan::new(seed).loss(0.02));
        stream_and_verify(&a, &b, 4096);
        let (all, fast) = (
            a.stats().retransmits.get(),
            a.stats().fast_retransmits.get(),
        );
        assert!(all > 0, "seed {seed:#x}: 2% of 4096 frames must be lost");
        assert!(
            fast * 5 >= all * 4,
            "seed {seed:#x}: only {fast} of {all} retransmits were fast"
        );
    }
}

#[test]
fn a_lane_is_resent_by_the_shard_that_polls_it() {
    // Two rails, so two lanes: lane 0 belongs to shard 0 of 2, lane 1 to
    // shard 1. A 1 KiB rendezvous stripes its four chunks over both; the
    // first chunk on lane 1 (its wseq 0) is lost, with nothing behind it
    // to report. Once the chunks are out the sender runs shard 1's passes
    // only: the lane's own upkeep must see the deadline pass and resend.
    let rel = ReliabilityConfig {
        rto_base_ns: 200_000_000,
        rto_max_ns: 200_000_000,
        ..ReliabilityConfig::enabled()
    };
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .eager_threshold(64)
        .rdv_chunk(256)
        .reliability(rel);
    let (da0, db0) = LoopbackDriver::pair(256);
    let (da1, db1) = LoopbackDriver::pair(256);
    let (tap1, log1) = TapDriver::scripted(da1, drop_once(&[0]));
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![
            Arc::new(da0) as Arc<dyn Driver>,
            Arc::new(tap1) as Arc<dyn Driver>,
        ])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![
            Arc::new(db0) as Arc<dyn Driver>,
            Arc::new(db1) as Arc<dyn Driver>,
        ])
        .build();
    let payload = Bytes::from((0..1024u32).map(|i| (i % 253) as u8).collect::<Vec<u8>>());
    let recv = b.irecv(G, 3).unwrap();
    let send = a.isend(G, 3, payload.clone()).unwrap();
    while !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert!(!recv.is_complete(), "the lost chunk is still missing");
    let start = std::time::Instant::now();
    while !recv.is_complete() {
        a.progress_shard(1, 2);
        b.progress();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "shard 1 never resent its lane's lost frame"
        );
    }
    assert_eq!(recv.take_data().unwrap(), payload);
    assert_eq!(a.stats().retransmits.get(), 1);
    assert_eq!(times_posted(&log1, &[0]), [2]);
}

#[test]
fn all_rails_dead_fails_requests_with_peer_unreachable() {
    let plan = FaultPlan::new(11).loss(1.0);
    let rel = ReliabilityConfig {
        rto_base_ns: 5_000,
        rto_max_ns: 50_000,
        max_retries: 2,
        rail_dead_threshold: 1,
        ..ReliabilityConfig::enabled()
    };
    let (da, db) = LoopbackDriver::pair(256);
    let a = CoreBuilder::new(CoreConfig::default().reliability(rel.clone()))
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let _b = CoreBuilder::new(CoreConfig::default().reliability(rel))
        .add_gate(vec![Arc::new(ChaosDriver::new(db, plan)) as Arc<dyn Driver>])
        .build();
    // Eager sends complete locally once the frame is in the retransmit
    // buffer — the *transport* then discovers the peer is gone.
    let send = a.isend(G, 1, Bytes::from_static(b"into the void")).unwrap();
    a.wait(&send, WaitStrategy::Busy).unwrap();
    let start = std::time::Instant::now();
    while a.stats().rails_failed.get() == 0 {
        a.progress();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "black-holed rail never exhausted its retries"
        );
    }
    assert_eq!(a.stats().rails_failed.get(), 1);
    // Once the peer is gone, new posts fail fast instead of queueing.
    assert_eq!(
        a.isend(G, 2, Bytes::from_static(b"more")).unwrap_err(),
        CommError::PeerUnreachable
    );
    // The dead gate holds no undeliverable frames.
    assert_eq!(a.pending().unacked_frames, 0);
}

#[test]
fn wait_deadline_times_out_and_reaps_the_posting() {
    let (da, db) = LoopbackDriver::pair(16);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let _b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let recv = a.irecv(G, 1).unwrap();
    assert_eq!(a.pending().posted_recvs, 1);
    let err = a
        .wait_deadline(&recv, WaitStrategy::Busy, Duration::from_millis(5))
        .unwrap_err();
    assert_eq!(err, CommError::Timeout);
    assert!(recv.is_complete());
    // The timed-out posting is pruned like a cancelled one.
    assert_eq!(a.pending().posted_recvs, 0);
}

#[test]
fn wait_deadline_returns_ok_when_completion_wins() {
    let (da, db) = LoopbackDriver::pair(16);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let send = b.isend(G, 1, Bytes::from_static(b"on time")).unwrap();
    b.wait(&send, WaitStrategy::Busy).unwrap();
    let recv = a.irecv(G, 1).unwrap();
    a.wait_deadline(&recv, WaitStrategy::Busy, Duration::from_secs(10))
        .unwrap();
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"on time"));
}

#[test]
fn expire_after_fires_from_the_progress_loop() {
    let (da, db) = LoopbackDriver::pair(16);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let _b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let recv = a.irecv(G, 1).unwrap();
    a.expire_after(&recv, Duration::from_millis(2));
    let start = std::time::Instant::now();
    while !recv.is_complete() {
        a.progress();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "armed deadline never fired"
        );
    }
    assert_eq!(recv.take_error(), Some(CommError::Timeout));
}

#[test]
fn cancelled_receives_do_not_leak_postings() {
    let (a, b) = {
        let (da, db) = LoopbackDriver::pair(16);
        let a = CoreBuilder::new(CoreConfig::default())
            .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
            .build();
        let b = CoreBuilder::new(CoreConfig::default())
            .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
            .build();
        (a, b)
    };
    let recvs: Vec<_> = (0..8).map(|_| a.irecv(G, 1).unwrap()).collect();
    let wild = a.irecv_any(G).unwrap();
    assert_eq!(a.pending().posted_recvs, 9);
    for r in &recvs {
        assert!(r.cancel());
    }
    assert!(wild.cancel());
    assert_eq!(
        a.pending().posted_recvs,
        0,
        "cancelled postings must be reaped"
    );
    // A message sent to a cancelled tag becomes unexpected, not lost.
    let s = b.isend(G, 1, Bytes::from_static(b"late")).unwrap();
    b.wait(&s, WaitStrategy::Busy).unwrap();
    while a.progress() > 0 {}
    assert_eq!(a.stats().unexpected_msgs.get(), 1);
    let fresh = a.irecv(G, 1).unwrap();
    assert!(fresh.is_complete());
    assert_eq!(fresh.take_data().unwrap(), Bytes::from_static(b"late"));
}

#[test]
fn cancellations_under_chaos_leak_nothing() {
    // Cancel every other receive mid-stream under combined faults; the
    // survivors still get their payloads in order and the queues drain
    // to empty (the soak's leak check).
    let plan = FaultPlan::new(0xDEAD).loss(0.02).duplicate(0.02).reorder(2);
    let config = CoreConfig::default()
        .strategy(StrategyKind::Fifo)
        .reliability(fast_reliability());
    let (a, b) = chaos_pair(config, plan);
    let n = 400u64;
    // Tag per message so cancelling a receive detaches exactly one
    // message (which then parks as unexpected).
    let sends: Vec<_> = (0..n)
        .map(|i| {
            a.isend(G, i, Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap()
        })
        .collect();
    let recvs: Vec<_> = (0..n).map(|i| b.irecv(G, i).unwrap()).collect();
    for (i, r) in recvs.iter().enumerate() {
        if i % 2 == 0 {
            r.cancel();
        }
    }
    for (i, r) in recvs.iter().enumerate() {
        if i % 2 == 0 {
            continue;
        }
        while !r.is_complete() {
            a.progress();
            b.progress();
        }
        assert_eq!(r.take_data().unwrap().as_ref(), (i as u64).to_le_bytes());
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }
    for _ in 0..2_000 {
        a.progress();
        b.progress();
    }
    let pb = b.pending();
    assert_eq!(pb.posted_recvs, 0, "cancelled receives leaked postings");
    assert_eq!(pb.unacked_frames, 0);
    assert_eq!(a.pending().unacked_frames, 0);
    // The cancelled halves arrived as unexpected messages.
    assert_eq!(b.stats().unexpected_msgs.get(), n / 2);
}
