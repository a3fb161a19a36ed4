//! Fine mode holds at most one `LockPolicy` lock at a time (feature
//! `lockcheck`).
//!
//! A lane's transfer list, reliability window and NIC context share its
//! one `core.driver.N` section, and the collect shards are entered and
//! left before it, so no policy lock is ever taken while another is
//! held. The runtime checker records every class-to-class edge it sees;
//! after a workload that runs every lane path (a reliable stream under
//! loss and duplication, a rendezvous striped over two VCIs with and
//! without reliability, and a lane killed by retry exhaustion whose
//! window fails over) the graph must hold no edge between two policy
//! classes. `core.cq` is not a policy lock: coarse-mode completion
//! delivery takes it under the API lock.
//!
//! One test in its own binary: the lockcheck graph is process-global.

#![cfg(feature = "lockcheck")]

use std::sync::Arc;

use bytes::Bytes;

use nm_core::{
    CommCore, Completion, CompletionQueue, CoreBuilder, CoreConfig, GateId, LockingMode,
    ReliabilityConfig,
};
use nm_fabric::{ChaosDriver, Driver, Fabric, FaultPlan, LoopbackDriver, WireModel};

const G: GateId = GateId(0);

fn fine(rel: ReliabilityConfig) -> CoreConfig {
    CoreConfig::default()
        .locking(LockingMode::Fine)
        .reliability(rel)
}

fn pair(
    config: CoreConfig,
    a: Vec<Arc<dyn Driver>>,
    b: Vec<Arc<dyn Driver>>,
) -> [Arc<CommCore>; 2] {
    [
        CoreBuilder::new(config.clone()).add_gate(a).build(),
        CoreBuilder::new(config).add_gate(b).build(),
    ]
}

/// Sends `payloads` a → b in order and co-polls until every one has
/// arrived intact, in order.
fn stream(a: &CommCore, b: &CommCore, payloads: &[Bytes]) {
    let sends: Vec<_> = payloads
        .iter()
        .map(|p| a.isend(G, 7, p.clone()).unwrap())
        .collect();
    let recvs: Vec<_> = payloads.iter().map(|_| b.irecv(G, 7).unwrap()).collect();
    while recvs.iter().chain(&sends).any(|r| !r.is_complete()) {
        a.progress();
        b.progress();
    }
    for (r, p) in recvs.iter().zip(payloads) {
        assert_eq!(r.take_data().as_ref(), Some(p));
    }
}

fn small_messages(n: u64) -> Vec<Bytes> {
    (0..n)
        .map(|i| Bytes::from(i.to_le_bytes().to_vec()))
        .collect()
}

/// A reliable stream whose wire loses and duplicates frames: window
/// passes, gap reports, resends and acks.
fn reliable_lossy_stream() {
    let rel = ReliabilityConfig {
        rto_base_ns: 50_000,
        rto_max_ns: 2_000_000,
        ..ReliabilityConfig::enabled()
    };
    let plan = FaultPlan::new(0x22).loss(0.05).duplicate(0.05);
    let (da, db) = LoopbackDriver::pair(256);
    let [a, b] = pair(
        fine(rel),
        vec![Arc::new(ChaosDriver::new(da, plan.clone()))],
        vec![Arc::new(ChaosDriver::new(db, plan))],
    );
    stream(&a, &b, &small_messages(300));
    assert!(a.stats().retransmits.get() > 0, "the loss must be repaired");
    assert!(
        b.stats().dup_dropped.get() > 0,
        "the duplicates must be dropped"
    );
}

/// A 256 KiB rendezvous whose chunks are striped over a rail's two VCI
/// lanes: chunks queued, flushed and posted under each lane's section.
fn striped_rendezvous(rel: ReliabilityConfig) {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair_vcis(&[WireModel::ideal()], true, 2);
    let [a, b] = pair(fine(rel), pa.drivers(), pb.drivers());
    stream(&a, &b, &[Bytes::from(vec![0x5Au8; 256 << 10])]);
    assert_eq!(a.stats().rdv_started.get(), 1);
}

/// Rail 0 of the a → b direction drops every frame: its lane exhausts
/// its retries, dies, and its window and list move to rail 1.
fn lane_killed_by_retry_exhaustion() {
    let rel = ReliabilityConfig {
        rto_base_ns: 5_000,
        rto_max_ns: 50_000,
        max_retries: 2,
        rail_dead_threshold: 1,
        ..ReliabilityConfig::enabled()
    };
    let (da0, db0) = LoopbackDriver::pair(256);
    let (da1, db1) = LoopbackDriver::pair(256);
    let black_hole = ChaosDriver::new(db0, FaultPlan::new(3).loss(1.0));
    let [a, b] = pair(
        fine(rel),
        vec![Arc::new(da0), Arc::new(da1)],
        vec![Arc::new(black_hole), Arc::new(db1)],
    );
    stream(&a, &b, &small_messages(100));
    assert_eq!(a.stats().rails_failed.get(), 1, "one lane must die");
}

/// A coarse-mode receive delivered to a completion queue takes
/// `core.cq` under the API lock: the edge that shows the checker
/// records and the parser reads. Fine mode delivers it after the
/// section is released.
fn coarse_queued_completion() {
    let (da, db) = LoopbackDriver::pair(8);
    let [a, b] = pair(
        CoreConfig::default().locking(LockingMode::Coarse),
        vec![Arc::new(da)],
        vec![Arc::new(db)],
    );
    let cq = CompletionQueue::new();
    let recv = b.irecv_with(G, 1, Completion::queue(&cq)).unwrap();
    let send = a.isend(G, 1, Bytes::from_static(b"cq")).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(cq.poll().map(|c| c.id()), Some(recv.id()));
}

/// `(from, to)` of every edge in a `dump_graph_json` document.
fn edges(json: &str) -> Vec<(String, String)> {
    let quoted_after = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(key)? + key.len()..];
        let start = rest.find('"')? + 1;
        let len = rest[start..].find('"')?;
        Some(rest[start..start + len].to_string())
    };
    json.lines()
        .filter_map(|l| Some((quoted_after(l, "\"from\":")?, quoted_after(l, "\"to\":")?)))
        .collect()
}

/// A class of the `LockPolicy`: the API lock, a collect shard or a lane.
fn is_policy_class(class: &str) -> bool {
    class.starts_with("core.") && class != "core.cq"
}

#[test]
fn fine_mode_never_nests_policy_locks() {
    reliable_lossy_stream();
    striped_rendezvous(ReliabilityConfig::default());
    striped_rendezvous(ReliabilityConfig::enabled());
    lane_killed_by_retry_exhaustion();
    coarse_queued_completion();

    let graph = nm_sync::lockcheck::dump_graph_json();
    let all = edges(&graph);
    assert!(
        all.contains(&("core.api-global".into(), "core.cq".into())),
        "the checker records, and the parser reads, the completion edge: {graph}"
    );
    let nested: Vec<_> = all
        .into_iter()
        .filter(|(from, to)| is_policy_class(from) && is_policy_class(to))
        .collect();
    assert!(
        nested.is_empty(),
        "fine mode nested policy locks: {nested:?}\n{graph}"
    );
}
