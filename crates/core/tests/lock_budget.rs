//! Lock budget of the data path, per progression pass and per message.
//!
//! Lock acquisitions repeat exactly on any host, so what a pass and a
//! message may take is pinned here as counts, next to `alloc_budget.rs`:
//! an idle pass takes no lock at all (the length hints answer for the
//! collect queue and the transfer lists, each lane's doorbell for its
//! NIC context), and neither does an idle progression-engine pass over
//! idle cores, in fine or in coarse mode; an 8 B eager message costs
//! seven lock cycles end to end in fine mode, and the three locking
//! modes differ by lock cycles in the order the paper's Fig 3 draws
//! them.
//! On a reliable core a pass takes one `Driver` section per lane, the
//! lane's upkeep, and still nothing outside the policy. A lane's
//! transfer list, reliability window and NIC context share that one
//! section, so the rendezvous and reliable paths are pinned per family
//! too.
//!
//! Per-family counts come from `CommCore::lock_policy()`; "every lock in
//! the process" is the registry's `sync.lock.acquisitions`, which also
//! sees the NIC stash. A request's outcome takes no lock: it is published
//! through the request's state word and flag.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, LockingMode, ReliabilityConfig};
use nm_fabric::{Driver, Fabric, LoopbackDriver, WireModel};
use nm_progress::{PollSource, ProgressEngine};

const G: GateId = GateId(0);

type Rails = Vec<Arc<dyn Driver>>;

fn core_over(mode: LockingMode, gates: Vec<Rails>) -> Arc<CommCore> {
    gates
        .into_iter()
        .fold(
            CoreBuilder::new(CoreConfig::default().locking(mode)),
            CoreBuilder::add_gate,
        )
        .build()
}

/// Acquisitions per lock family of one core's policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Families {
    global: u64,
    collect_tx: u64,
    collect_rx: u64,
    driver: u64,
}

impl Families {
    fn of(core: &CommCore, lanes: usize) -> Families {
        let p = core.lock_policy();
        let over = |n: usize, f: &dyn Fn(usize) -> u64| (0..n).map(f).sum::<u64>();
        let gates = p.num_gates();
        let counts = Families {
            global: p.global_stats().acquisitions(),
            collect_tx: over(gates, &|g| p.collect_tx_stats(g).acquisitions()),
            collect_rx: over(gates, &|g| p.collect_rx_stats(g).acquisitions()),
            driver: over(lanes, &|i| p.driver_stats(i).acquisitions()),
        };
        assert_eq!(
            counts.total(),
            p.total_acquisitions(),
            "a lane was left out"
        );
        counts
    }

    fn total(&self) -> u64 {
        self.global + self.collect_tx + self.collect_rx + self.driver
    }

    /// `f` applied family by family.
    fn zip(&self, other: &Families, f: impl Fn(u64, u64) -> u64) -> Families {
        Families {
            global: f(self.global, other.global),
            collect_tx: f(self.collect_tx, other.collect_tx),
            collect_rx: f(self.collect_rx, other.collect_rx),
            driver: f(self.driver, other.driver),
        }
    }

    fn since(&self, earlier: &Families) -> Families {
        self.zip(earlier, |now, then| now - then)
    }
}

/// Every lock acquisition in the process so far.
fn process_locks() -> u64 {
    nm_metrics::metrics()
        .counters()
        .counter("sync.lock.acquisitions")
        .get()
}

/// One message a → b the way the benchmark's `pingpong_eager` moves it:
/// post, one pass on each side per round, take the payload.
fn deliver(a: &CommCore, b: &CommCore, payload: &Bytes) {
    let recv = b.irecv(G, 1).unwrap();
    let send = a.isend(G, 1, payload.clone()).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().as_ref(), Some(payload));
}

/// (policy acquisitions of the sender, of the receiver, every lock in
/// the process) per message for `msgs` messages a → b over one lane,
/// after eight warm-up messages. Exact: nothing here depends on timing.
fn message_cost(
    a: &CommCore,
    b: &CommCore,
    payload: &Bytes,
    msgs: u64,
) -> (Families, Families, u64) {
    for _ in 0..8 {
        deliver(a, b, payload);
    }
    let (a0, b0, all0) = (Families::of(a, 1), Families::of(b, 1), process_locks());
    for _ in 0..msgs {
        deliver(a, b, payload);
    }
    let per_msg = |n: u64| {
        assert_eq!(n % msgs, 0, "{n} locks over {msgs} messages");
        n / msgs
    };
    let each = |f: Families| f.zip(&f, |n, _| per_msg(n));
    (
        each(Families::of(a, 1).since(&a0)),
        each(Families::of(b, 1).since(&b0)),
        per_msg(process_locks() - all0),
    )
}

/// [`message_cost`] of an 8 B eager message over an ideal `SimNic` pair.
fn eager_message_cost(mode: LockingMode) -> (Families, Families, u64) {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let a = core_over(mode, vec![pa.drivers()]);
    let b = core_over(mode, vec![pb.drivers()]);
    message_cost(&a, &b, &Bytes::from(vec![0xA5u8; 8]), 100)
}

/// Held by every test here: the process-wide lock counter is global, so
/// two tests running concurrently would bleed into each other's
/// measured regions.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn data_path_lock_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // An idle fine-grain pass: two gates, each a two-context SimNic rail
    // plus a loopback rail, six lanes in all. Traffic first, so every
    // queue has been non-empty once and is empty again.
    let fabric = Fabric::real_time();
    let mut rails = (Vec::new(), Vec::new());
    for _ in 0..2 {
        let (pa, pb) = fabric.pair_vcis(&[WireModel::ideal()], true, 2);
        let (la, lb) = LoopbackDriver::pair(8);
        let (mut ra, mut rb) = (pa.drivers(), pb.drivers());
        ra.push(Arc::new(la));
        rb.push(Arc::new(lb));
        rails.0.push(ra);
        rails.1.push(rb);
    }
    const LANES: usize = 6;
    let a = core_over(LockingMode::Fine, rails.0);
    let b = core_over(LockingMode::Fine, rails.1);
    let big = Bytes::from(vec![7u8; 256 << 10]);
    for payload in [Bytes::from_static(b"8 bytes."), big] {
        for gate in [GateId(0), GateId(1)] {
            let recv = b.irecv(gate, 1).unwrap();
            let send = a.isend(gate, 1, payload.clone()).unwrap();
            while !recv.is_complete() || !send.is_complete() {
                a.progress();
                b.progress();
            }
        }
    }
    assert_eq!(a.progress() + b.progress(), 0, "the pair is quiet");
    const PASSES: u64 = 10;
    let (before, all_before) = (Families::of(&a, LANES), process_locks());
    for _ in 0..PASSES {
        assert_eq!(a.progress(), 0);
    }
    let idle = Families::of(&a, LANES).since(&before);
    assert_eq!(
        idle,
        Families::default(),
        "an idle pass rings each lane's doorbell and enters no section"
    );
    assert_eq!(
        process_locks() - all_before,
        0,
        "no lock outside the policy either (NIC stash, timers)"
    );

    // One 8 B eager message, fine-grain. Sender: the submit and the
    // strategy's pop under CollectTx, the post under Driver. Receiver:
    // the post and the match under CollectRx, the poll that finds the
    // packet under Driver. The polls that found nothing — the sender's
    // own and the receiver's second — are spared by the doorbell.
    // Outside the policy: the NIC stash once, and nothing for the
    // requests (their outcome cells take no lock).
    let (tx_side, rx_side, fine) = eager_message_cost(LockingMode::Fine);
    assert_eq!(
        tx_side,
        Families {
            collect_tx: 2,
            driver: 1,
            ..Families::default()
        }
    );
    assert_eq!(
        rx_side,
        Families {
            collect_rx: 2,
            driver: 1,
            ..Families::default()
        }
    );
    assert_eq!(fine, tx_side.total() + rx_side.total() + 1);

    // Coarse: one library-wide cycle per call that has work (isend takes
    // two: submit, then transmit); the sender's pass, which finds
    // nothing, sees so before the lock. Single: no policy lock at all.
    // The order below is what the benchmark's quick suite requires of
    // every workload.
    let (tx_side, rx_side, coarse) = eager_message_cost(LockingMode::Coarse);
    assert_eq!((tx_side.total(), tx_side.global), (2, 2));
    assert_eq!((rx_side.total(), rx_side.global), (2, 2));
    let (tx_side, rx_side, single) = eager_message_cost(LockingMode::SingleThread);
    assert_eq!(tx_side.total() + rx_side.total(), 0);
    assert_eq!(
        (single, coarse, fine),
        (1, 5, 7),
        "lock acquisitions per 8 B eager message (1, 6, 9 before the \
         doorbell; 12 in fine mode with locked request cells, 20 before the \
         hints)"
    );
}

/// What a progression thread's pass costs when there is nothing to do
/// (the paper's §4 engine, ROADMAP item 4): over two idle cores, in fine
/// and in coarse mode, it enters no section and takes no lock anywhere
/// in the process — not the engine's source list (the cache holds it),
/// not the library-wide lock (coarse mode sees the pass is idle before
/// taking it), not a lane's `Driver` section (the doorbell is silent).
#[test]
fn idle_engine_pass_takes_no_lock() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for mode in [LockingMode::Fine, LockingMode::Coarse] {
        let fabric = Fabric::real_time();
        let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
        let a = core_over(mode, vec![pa.drivers()]);
        let b = core_over(mode, vec![pb.drivers()]);
        let payload = Bytes::from_static(b"8 bytes.");
        deliver(&a, &b, &payload);
        deliver(&b, &a, &payload);
        let engine = ProgressEngine::new();
        engine.register(Arc::clone(&a) as Arc<dyn PollSource>);
        engine.register(Arc::clone(&b) as Arc<dyn PollSource>);
        let mut sources = engine.source_cache();
        // The engine, through its cache, is what delivers this one.
        let recv = b.irecv(G, 1).unwrap();
        a.isend(G, 1, payload.clone()).unwrap();
        while !recv.is_complete() {
            engine.poll_cached(&mut sources);
        }
        assert_eq!(engine.poll_cached(&mut sources), 0, "the pair is quiet");
        const PASSES: u64 = 10;
        let (a0, b0, all0) = (Families::of(&a, 1), Families::of(&b, 1), process_locks());
        let polls = engine.total_polls();
        for _ in 0..PASSES {
            assert_eq!(engine.poll_cached(&mut sources), 0);
        }
        assert_eq!(engine.total_polls() - polls, PASSES);
        assert_eq!(
            Families::of(&a, 1).since(&a0),
            Families::default(),
            "{mode:?}"
        );
        assert_eq!(
            Families::of(&b, 1).since(&b0),
            Families::default(),
            "{mode:?}"
        );
        assert_eq!(
            process_locks() - all0,
            0,
            "{mode:?}: a lock outside the policy"
        );
    }
}

#[test]
fn reliable_pass_lock_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A reliable fine-grain core over a two-context rail, frames in
    // flight and a one-minute timer: the peer never polls, so nothing is
    // acknowledged and nothing is due.
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair_vcis(&[WireModel::ideal()], true, 2);
    const LANES: usize = 2;
    let rel = ReliabilityConfig {
        rto_base_ns: 60_000_000_000,
        rto_max_ns: 60_000_000_000,
        ..ReliabilityConfig::enabled()
    };
    let config = CoreConfig::default()
        .locking(LockingMode::Fine)
        .reliability(rel);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let _b = CoreBuilder::new(config).add_gate(pb.drivers()).build();
    for tag in 0..4 {
        let send = a.isend(G, tag, Bytes::from_static(b"8 bytes.")).unwrap();
        assert!(send.is_complete());
    }
    assert_eq!(a.pending().unacked_frames, 4);
    const PASSES: u64 = 10;
    let (before, all_before) = (Families::of(&a, LANES), process_locks());
    for _ in 0..PASSES {
        assert_eq!(a.progress(), 0);
    }
    let pass = Families::of(&a, LANES).since(&before);
    assert_eq!(
        pass,
        Families {
            driver: PASSES * LANES as u64,
            ..Families::default()
        },
        "a reliable pass runs each lane's upkeep once; a silent doorbell \
         spares the poll"
    );
    assert_eq!(
        process_locks() - all_before,
        pass.total(),
        "no lock outside the policy: no retransmit timer"
    );
}

/// A 1 MiB rendezvous in fine mode over an ideal `SimNic` pair, one
/// lane, per side. Each of the 64 chunks takes the sender's lane
/// section twice, once to be queued and once to be popped, encoded and
/// posted; one more section finds the list empty, and 2 carry the RTS
/// and the poll of the CTS. The receiver polls each chunk and the RTS
/// in one section each and posts the CTS in one. Before the doorbell a
/// poll that found nothing took a section too: 7 RTS and poll sections
/// on the sender (136 in all) and 67 on the receiver. When the transfer
/// list had its own `Vci` lock the sender took 129 `Vci` (the queueing
/// and the pops) + 71 `Driver` (the posts and the polls) sections per
/// message.
#[test]
fn rendezvous_lock_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let a = core_over(LockingMode::Fine, vec![pa.drivers()]);
    let b = core_over(LockingMode::Fine, vec![pb.drivers()]);
    let (tx_side, rx_side, _) = message_cost(&a, &b, &Bytes::from(vec![3u8; 1 << 20]), 4);
    assert_eq!(
        tx_side,
        Families {
            collect_tx: 4,
            collect_rx: 1,
            driver: 64 + 65 + 2,
            ..Families::default()
        }
    );
    assert_eq!(
        rx_side,
        Families {
            collect_tx: 2,
            collect_rx: 66,
            driver: 66,
            ..Families::default()
        }
    );
}

/// A lossless reliable 1 KiB message in fine mode over a loopback pair,
/// per side. Every lane section is one of: a post that sequences the
/// frame in the window and injects it, a poll with the window pass of
/// what it found, or a pass's upkeep that sends the owed ack. Before the
/// doorbell a poll that found nothing took a section too (4 on the
/// sender, 3 on the receiver). When the window had its own `Retrans`
/// lock this took 3 `Retrans` + 3 `Driver` sections on the sender and
/// 2 + 3 on the receiver, the post and the ack each nesting `Driver`
/// inside `Retrans`.
#[test]
fn reliable_message_lock_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A one-minute timer: no retransmit can fire mid-measurement.
    let rel = ReliabilityConfig {
        rto_base_ns: 60_000_000_000,
        rto_max_ns: 60_000_000_000,
        ..ReliabilityConfig::enabled()
    };
    let config = CoreConfig::default()
        .locking(LockingMode::Fine)
        .reliability(rel);
    let (da, db) = LoopbackDriver::pair(256);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let (tx_side, rx_side, _) = message_cost(&a, &b, &Bytes::from(vec![9u8; 1024]), 100);
    assert_eq!(
        tx_side,
        Families {
            collect_tx: 2,
            driver: 3,
            ..Families::default()
        }
    );
    assert_eq!(
        rx_side,
        Families {
            collect_rx: 2,
            driver: 2,
            ..Families::default()
        }
    );
}
