//! Cross-crate integration: progression engine + core + fabric working
//! as one stack.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use nomad::core::{CoreBuilder, CoreConfig, GateId, LockingMode};
use nomad::fabric::{ClockSource, Fabric, WireModel};
use nomad::mpi::{ThreadLevel, World, WorldBuilder};
use nomad::progress::{IdlePolicy, OffloadMode, ProgressEngine, ProgressionThread, TaskletEngine};
use nomad::sync::WaitStrategy;

/// Passive waits driven purely by a progression thread that parks
/// between passes: the configuration the paper runs from MARCEL's idle
/// and timer hooks, end to end.
#[test]
fn scheduler_hooks_drive_passive_communication() {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::myri_10g()], true);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(pb.drivers())
        .build();

    let engine = Arc::new(ProgressEngine::new());
    engine.register(Arc::clone(&a) as _);
    engine.register(Arc::clone(&b) as _);

    // Only the progression thread polls; it sleeps 200 µs after every
    // pass that finds nothing.
    let pt = ProgressionThread::spawn(engine, None, IdlePolicy::Park(Duration::from_micros(200)));

    let recv = b.irecv(GateId(0), 1).expect("irecv");
    let send = a
        .isend(GateId(0), 1, Bytes::from_static(b"via a parked thread"))
        .expect("isend");
    // Purely passive: neither waiter polls anything itself.
    recv.wait_flag_only(WaitStrategy::Passive);
    send.wait_flag_only(WaitStrategy::Passive);
    assert_eq!(
        recv.take_data().unwrap(),
        Bytes::from_static(b"via a parked thread")
    );
    pt.stop();
}

/// The full §4.2 configuration: submissions deferred through a tasklet
/// engine while a progression thread keeps the stack moving.
#[test]
fn tasklet_offload_end_to_end() {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let tasklets = Arc::new(TaskletEngine::new(1, None));
    let a = CoreBuilder::new(
        CoreConfig::default()
            .locking(LockingMode::Fine)
            .offload(OffloadMode::Tasklet)
            .tasklet_engine(Arc::clone(&tasklets)),
    )
    .add_gate(pa.drivers())
    .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(pb.drivers())
        .build();

    let engine = Arc::new(ProgressEngine::new());
    engine.register(Arc::clone(&a) as _);
    engine.register(Arc::clone(&b) as _);
    let pt = ProgressionThread::spawn(Arc::clone(&engine), None, IdlePolicy::Yield);

    for i in 0..20u64 {
        let recv = b.irecv(GateId(0), i).expect("irecv");
        let send = a
            .isend(GateId(0), i, Bytes::from(format!("tasklet {i}")))
            .expect("isend");
        recv.wait_flag_only(WaitStrategy::Passive);
        send.wait_flag_only(WaitStrategy::Passive);
        assert_eq!(
            recv.take_data().unwrap(),
            Bytes::from(format!("tasklet {i}"))
        );
    }
    assert!(
        a.offloader().deferred_count() >= 20,
        "submissions not deferred"
    );
    pt.stop();
}

/// Idle-core offload: the progression thread drains the deferred
/// submission queue (no tasklets).
#[test]
fn idle_core_offload_end_to_end() {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let a = CoreBuilder::new(
        CoreConfig::default()
            .locking(LockingMode::Fine)
            .offload(OffloadMode::IdleCore),
    )
    .add_gate(pa.drivers())
    .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(pb.drivers())
        .build();

    let engine = Arc::new(ProgressEngine::new());
    engine.register(Arc::clone(a.offloader()) as _); // drains submissions
    engine.register(Arc::clone(&a) as _);
    engine.register(Arc::clone(&b) as _);
    let pt = ProgressionThread::spawn(Arc::clone(&engine), None, IdlePolicy::Yield);

    let recv = b.irecv(GateId(0), 0).expect("irecv");
    let send = a
        .isend(GateId(0), 0, Bytes::from_static(b"deferred"))
        .expect("isend");
    recv.wait_flag_only(WaitStrategy::Passive);
    send.wait_flag_only(WaitStrategy::Passive);
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"deferred"));
    assert_eq!(a.offloader().deferred_count(), 1);
    pt.stop();
}

/// Virtual-clock world: deterministic delivery timing through the MPI
/// facade.
#[test]
fn virtual_clock_world() {
    let clock = ClockSource::manual();
    let config = WorldBuilder::new(ThreadLevel::Multiple).clock(clock.clone());
    let world = World::with_config(2, config);
    let (a, b) = world.comm_pair();
    let (to_b, to_a) = (a.sole_peer().unwrap(), b.sole_peer().unwrap());

    let send = to_b.isend(7, b"timed").expect("isend");
    a.core().progress();
    assert!(send.is_complete(), "eager send completes on injection");
    let recv = to_a.irecv(7).expect("irecv");
    b.core().progress();
    assert!(!recv.is_complete(), "nothing deliverable at t = 0");
    clock.advance(10_000_000);
    b.core().progress();
    assert!(recv.is_complete());
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"timed"));
}

/// Multirail world: a large message over two rails through the facade.
#[test]
fn multirail_world_rendezvous() {
    let config = WorldBuilder::new(ThreadLevel::Multiple)
        .rails(vec![WireModel::ideal(), WireModel::ideal()]);
    let world = World::with_config(2, config);
    let (a, b) = world.comm_pair();
    let big = vec![0xEEu8; 256 * 1024];
    let expected = big.clone();
    let echo = std::thread::spawn(move || b.sole_peer().unwrap().recv(0).expect("recv"));
    a.sole_peer().unwrap().send(0, &big).expect("send");
    assert_eq!(echo.join().unwrap(), expected);
    // Both rails carried packets.
    let ports = world.ports(0, 1).expect("ports");
    for (i, d) in ports.sim_drivers().iter().enumerate() {
        assert!(
            d.counters().tx_packets.get() > 0,
            "rail {i} carried nothing"
        );
    }
}

/// The simulator's figure experiments run end to end (smoke).
#[test]
fn sim_experiments_smoke() {
    use nomad::sim::{experiments, SimCosts};
    let series = experiments::fig3_locking_latency(SimCosts::paper(), &[4, 64]);
    assert_eq!(series.len(), 3);
    for s in &series {
        assert_eq!(s.points.len(), 2);
        assert!(s.points.iter().all(|&(_, us)| us > 0.0));
    }
}

/// Calibration integrates with the simulator.
#[test]
fn calibrated_sim_runs() {
    use nomad::bench::calibrate;
    use nomad::sim::experiments;
    let cal = calibrate::calibrate();
    let costs = cal.to_sim_costs();
    let series = experiments::fig9_offload_tasklets(costs, &[2048]);
    assert_eq!(series.len(), 3);
}
