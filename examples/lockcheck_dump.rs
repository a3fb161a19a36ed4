//! Exercises the stack under the runtime lock-order checker and prints
//! the observed class-edge graph as JSON on stdout.
//!
//! ```sh
//! cargo run --release --features lockcheck --example lockcheck_dump
//! ```
//!
//! `cargo xtask analyze-locks` runs this to cross-check the static
//! may-hold-while-acquiring graph against reality: every edge printed
//! here must be predicted statically (else the analyzer has a soundness
//! bug), and static edges missing here are ranked coverage gaps. The
//! workload deliberately covers both lock-heavy modes (coarse and fine),
//! both protocols (eager and rendezvous), busy waits (progression under
//! the API guard) and the progression-engine source registry.

use std::sync::Arc;

use nomad::core::{
    CommCore, Completion, CompletionQueue, CoreBuilder, CoreConfig, GateId, LockingMode,
    ReliabilityConfig,
};
use nomad::fabric::{ChaosDriver, Driver, Fabric, FaultPlan, LoopbackDriver, WireModel};
use nomad::progress::{ProgressEngine, WakerTable};
use nomad::sync::WaitStrategy;

const G: GateId = GateId(0);

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

/// Eager + rendezvous round trips with busy waits (progression runs
/// under the API guard, so completions happen with it held in coarse
/// mode — that is the edge the cross-check cares most about).
fn workload(mode: LockingMode) {
    let config = CoreConfig::default().locking(mode);
    let eager_max = config.eager_threshold;
    let (a, b) = loopback_pair(config);

    for size in [64usize, eager_max * 4] {
        let payload = bytes::Bytes::from(vec![0xabu8; size]);
        let recv = b.irecv(G, 7).expect("irecv");
        let send = a.isend(G, 7, payload).expect("isend");
        // Drive both sides: loopback needs the peer to make progress too.
        while !recv.is_complete() || !send.is_complete() {
            a.progress();
            b.progress();
        }
        b.wait(&recv, WaitStrategy::Busy).unwrap();
        a.wait(&send, WaitStrategy::Busy).unwrap();
    }

    // Completion objects: delivery runs inside progression — under the
    // API guard in coarse mode, under the collect locks in fine mode —
    // so these are the `* -> core.cq` / `* -> progress.wakers` edges.
    let cq = CompletionQueue::new();
    let table = Arc::new(WakerTable::new());
    let recv = b
        .irecv_with(G, 9, Completion::queue(&cq))
        .expect("irecv (queue)");
    let send = a
        .isend_with(
            G,
            9,
            bytes::Bytes::from_static(b"cq"),
            Completion::handler(|_ev| {}),
        )
        .expect("isend (handler)");
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(cq.wait(WaitStrategy::Busy).id(), recv.id());

    struct Noop;
    impl std::task::Wake for Noop {
        fn wake(self: Arc<Self>) {}
    }
    let noop = std::task::Waker::from(Arc::new(Noop));
    let recv = b
        .irecv_with(G, 11, Completion::waker(&table))
        .expect("irecv (waker)");
    assert!(table.register(recv.id(), &noop));
    let send = a
        .isend(G, 11, bytes::Bytes::from_static(b"wk"))
        .expect("isend");
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    a.wait(&send, WaitStrategy::Busy).unwrap();

    // Progression-engine registry: poll sources through the engine the
    // way the MPI layer drives background progression.
    let engine = ProgressEngine::new();
    let a2 = Arc::clone(&a);
    let id = engine.register(Arc::new(move || {
        a2.progress();
        nomad::progress::PollOutcome::Idle
    }));
    engine.poll_all();
    engine.unregister(id);
}

/// Reliability protocol over a lossy wire: retransmits from each lane's
/// upkeep in the progress loop (in the lane's `core.driver` section,
/// nesting nothing), request
/// deadlines on the timer wheel and deadline/cancel pruning — the
/// fault-handling edges the static graph predicts.
fn reliability_workload(mode: LockingMode) {
    let rel = ReliabilityConfig {
        rto_base_ns: 20_000,
        rto_max_ns: 500_000,
        ..ReliabilityConfig::enabled()
    };
    let config = CoreConfig::default().locking(mode).reliability(rel);
    let plan = FaultPlan::new(0x10CC).loss(0.05).duplicate(0.03).reorder(2);
    let (da, db) = LoopbackDriver::pair(256);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![
            Arc::new(ChaosDriver::new(da, plan.clone())) as Arc<dyn Driver>
        ])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(ChaosDriver::new(db, plan)) as Arc<dyn Driver>])
        .build();

    // Enough traffic that the 5% loss reliably exercises retransmits.
    let sends: Vec<_> = (0..64u64)
        .map(|i| {
            a.isend(G, 5, bytes::Bytes::from(i.to_le_bytes().to_vec()))
                .unwrap()
        })
        .collect();
    let recvs: Vec<_> = (0..64).map(|_| b.irecv(G, 5).unwrap()).collect();
    for r in &recvs {
        while !r.is_complete() {
            a.progress();
            b.progress();
        }
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }

    // Deadline expiry (a bounded wait, and a deadline the progress loop
    // pops off the timer wheel) and cancellation pruning under the same
    // mode.
    let doomed = b.irecv(G, 99).unwrap();
    let _ = b.wait_deadline(
        &doomed,
        WaitStrategy::Busy,
        std::time::Duration::from_millis(1),
    );
    let armed = b.irecv(G, 97).unwrap();
    b.expire_after(&armed, std::time::Duration::from_millis(1));
    while !armed.is_complete() {
        b.progress();
    }
    let cancelled = b.irecv(G, 98).unwrap();
    cancelled.cancel();
    assert_eq!(b.pending().posted_recvs, 0);
}

/// Multi-VCI transfer layer: concurrent eager flows plus one striped
/// rendezvous over per-(rail, VCI) lanes — covers each lane's
/// `core.driver` section around its transfer list, and the sharded
/// per-VCI progression entry points.
fn vci_workload(mode: LockingMode) {
    let config = CoreConfig::default().locking(mode);
    let fabric = Fabric::real_time();
    // Two rails × two VCIs = four lanes per gate.
    let (pa, pb) = fabric.pair_vcis(&[WireModel::ideal(), WireModel::ideal()], true, 2);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();
    let eager_max = a.config().eager_threshold;

    let recvs: Vec<_> = (0..4u64).map(|t| b.irecv(G, t).unwrap()).collect();
    let sends: Vec<_> = (0..4u64)
        .map(|t| {
            // Tag 0 rides the rendezvous path (chunks striped round-robin
            // across all four lanes); the rest are eager.
            let size = if t == 0 { eager_max * 8 } else { 64 };
            a.isend(G, t, bytes::Bytes::from(vec![t as u8; size]))
                .unwrap()
        })
        .collect();
    while recvs.iter().chain(sends.iter()).any(|r| !r.is_complete()) {
        // Drive each lane shard separately — the dedicated per-VCI
        // progression-thread path — plus a full pass.
        for shard in 0..4 {
            a.progress_shard(shard, 4);
            b.progress_shard(shard, 4);
        }
        a.progress();
        b.progress();
    }

    // The per-shard poll source through the engine registry.
    let engine = ProgressEngine::new();
    let id = engine.register(Arc::new(a.vci_poll_source(0, 4)));
    engine.poll_all();
    engine.unregister(id);
}

fn main() {
    workload(LockingMode::Coarse);
    workload(LockingMode::Fine);
    reliability_workload(LockingMode::Coarse);
    reliability_workload(LockingMode::Fine);
    vci_workload(LockingMode::Coarse);
    vci_workload(LockingMode::Fine);
    println!("{}", nomad::sync::lockcheck::dump_graph_json());
}
