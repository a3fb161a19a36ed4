//! Lock budget of the data path, per progression pass and per message.
//!
//! Lock acquisitions repeat exactly on any host, so what a pass and a
//! message may take is pinned here as counts, next to `alloc_budget.rs`:
//! an idle fine-grain pass takes one `Driver` section per lane and
//! nothing else (the length hints answer for the collect queue and the
//! transfer lists, the NIC answers without its stash lock), an 8 B eager
//! message costs a dozen lock cycles end to end, and the three locking
//! modes differ by lock cycles in the order the paper's Fig 3 draws them.
//! On a reliable core a pass adds one `Retrans` section per lane, the
//! lane's upkeep, and still nothing outside the policy.
//!
//! Per-family counts come from `CommCore::lock_policy()`; "every lock in
//! the process" is the registry's `sync.lock.acquisitions`, which also
//! sees the request cells and the NIC stash.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, LockingMode, ReliabilityConfig};
use nm_fabric::{Driver, Fabric, LoopbackDriver, WireModel};

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
    vci: u64,
    retrans: u64,
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
            vci: over(lanes, &|i| p.vci_stats(i).acquisitions()),
            retrans: over(lanes, &|i| p.retrans_stats(i).acquisitions()),
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
        self.global + self.collect_tx + self.collect_rx + self.vci + self.retrans + self.driver
    }

    /// `f` applied family by family.
    fn zip(&self, other: &Families, f: impl Fn(u64, u64) -> u64) -> Families {
        Families {
            global: f(self.global, other.global),
            collect_tx: f(self.collect_tx, other.collect_tx),
            collect_rx: f(self.collect_rx, other.collect_rx),
            vci: f(self.vci, other.vci),
            retrans: f(self.retrans, other.retrans),
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
/// the process) for one 8 B eager message over an ideal `SimNic` pair,
/// averaged over `MSGS` warmed-up messages. Exact: nothing here depends
/// on timing.
fn eager_message_cost(mode: LockingMode) -> (Families, Families, u64) {
    const MSGS: u64 = 100;
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let a = core_over(mode, vec![pa.drivers()]);
    let b = core_over(mode, vec![pb.drivers()]);
    let small = Bytes::from(vec![0xA5u8; 8]);
    for _ in 0..8 {
        deliver(&a, &b, &small);
    }
    let (a0, b0, all0) = (Families::of(&a, 1), Families::of(&b, 1), process_locks());
    for _ in 0..MSGS {
        deliver(&a, &b, &small);
    }
    let per_msg = |n: u64| {
        assert_eq!(n % MSGS, 0, "{n} locks over {MSGS} messages");
        n / MSGS
    };
    let each = |f: Families| f.zip(&f, |n, _| per_msg(n));
    (
        each(Families::of(&a, 1).since(&a0)),
        each(Families::of(&b, 1).since(&b0)),
        per_msg(process_locks() - all0),
    )
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
        Families {
            driver: PASSES * LANES as u64,
            ..Families::default()
        },
        "an idle pass takes its lanes' Driver sections and nothing else"
    );
    assert_eq!(
        process_locks() - all_before,
        idle.driver,
        "no lock outside the policy either (NIC stash, timers)"
    );

    // One 8 B eager message, fine-grain. Sender: the submit and the
    // strategy's pop under CollectTx, the post and its own idle poll
    // under Driver. Receiver: the post and the match under CollectRx,
    // the poll that finds the packet and the poll that finds no second
    // one under Driver. Outside the policy: the NIC stash once, the
    // receive request's tag, data and take_data cells.
    let (tx_side, rx_side, fine) = eager_message_cost(LockingMode::Fine);
    assert_eq!(
        tx_side,
        Families {
            collect_tx: 2,
            driver: 2,
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
    assert_eq!(fine, tx_side.total() + rx_side.total() + 4);

    // Coarse: one library-wide cycle per call (isend takes two: submit,
    // then transmit). Single: no policy lock at all. The order below is
    // what the benchmark's quick suite requires of every workload.
    let (tx_side, rx_side, coarse) = eager_message_cost(LockingMode::Coarse);
    assert_eq!((tx_side.total(), tx_side.global), (3, 3));
    assert_eq!((rx_side.total(), rx_side.global), (2, 2));
    let (tx_side, rx_side, single) = eager_message_cost(LockingMode::SingleThread);
    assert_eq!(tx_side.total() + rx_side.total(), 0);
    assert_eq!(
        (single, coarse, fine),
        (4, 9, 12),
        "lock acquisitions per 8 B eager message (20 in fine mode before the hints)"
    );
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
            retrans: PASSES * LANES as u64,
            driver: PASSES * LANES as u64,
            ..Families::default()
        },
        "a reliable pass polls each lane and runs its upkeep, once"
    );
    assert_eq!(
        process_locks() - all_before,
        pass.total(),
        "no lock outside the policy: no retransmit timer"
    );
}
