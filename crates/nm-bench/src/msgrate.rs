//! Real-mode multi-gate message-rate benchmark.
//!
//! The throughput companion to the latency pingpongs: `flows` endpoint
//! pairs, each flow owning its *own gate* on both cores, stream small
//! eager messages as fast as the stack admits them. With per-gate collect
//! locks the flows touch disjoint sections and the aggregate rate scales
//! with the number of driving threads; with a node-wide lock they
//! serialize (the Zambre-style endpoints argument, applied to the collect
//! layer).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use bytes::Bytes;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, LockingMode};
use nm_fabric::{Fabric, WireModel};
use nm_sync::WaitStrategy;

/// Message-rate benchmark configuration.
#[derive(Clone)]
pub struct MsgrateOpts {
    /// Locking mode under test.
    pub locking: LockingMode,
    /// Wire model of every flow's rail.
    pub wire: WireModel,
    /// Waiting strategy of senders and receivers.
    pub wait: WaitStrategy,
    /// Concurrent single-gate flows (one sender + one receiver thread
    /// each).
    pub flows: usize,
    /// VCI contexts per flow's NIC (1 = the classic shared-ring NIC;
    /// the transfer layer stripes over `vcis` independent tx/rx rings).
    pub vcis: usize,
    /// Payload size in bytes (should stay under the eager threshold).
    pub size: usize,
    /// In-flight messages posted per flow per round.
    pub window: usize,
    /// Measured rounds.
    pub rounds: usize,
}

impl Default for MsgrateOpts {
    fn default() -> Self {
        MsgrateOpts {
            locking: LockingMode::Fine,
            wire: WireModel::myri_10g(),
            wait: WaitStrategy::Busy,
            flows: 4,
            vcis: 1,
            size: 8,
            window: 32,
            rounds: 50,
        }
    }
}

/// Builds a pair of cores with one connected gate per flow: gate `i` of
/// the sender core is wired to gate `i` of the receiver core.
fn build_multi_gate(opts: &MsgrateOpts) -> (Arc<CommCore>, Arc<CommCore>) {
    let fabric = Fabric::real_time();
    let config = CoreConfig::default().locking(opts.locking);
    let mut builder_a = CoreBuilder::new(config.clone());
    let mut builder_b = CoreBuilder::new(config);
    for _ in 0..opts.flows {
        let (pa, pb) = fabric.pair_vcis(&[opts.wire], true, opts.vcis);
        builder_a = builder_a.add_gate(pa.drivers());
        builder_b = builder_b.add_gate(pb.drivers());
    }
    (builder_a.build(), builder_b.build())
}

/// Aggregate message rate (million messages/s) with one sender and one
/// receiver thread per flow, all running concurrently.
///
/// This is the configuration the sharding targets: on a multicore host
/// the per-gate collect locks let the flows proceed without contending.
/// Timings include thread scheduling noise, so treat the result as a
/// scaling indicator rather than a stable regression baseline.
pub fn msgrate_threaded(opts: &MsgrateOpts) -> f64 {
    assert!(
        opts.locking.thread_safe(),
        "threaded msgrate requires a thread-safe locking mode"
    );
    let (a, b) = build_multi_gate(opts);
    let (flows, size, window, rounds, wait) =
        (opts.flows, opts.size, opts.window, opts.rounds, opts.wait);
    let barrier = Arc::new(Barrier::new(2 * flows + 1));

    let mut handles = Vec::new();
    for t in 0..flows {
        let b = Arc::clone(&b);
        let bar = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            bar.wait();
            for _ in 0..rounds {
                let reqs: Vec<_> = (0..window)
                    .map(|_| b.irecv(GateId(t), t as u64).expect("irecv"))
                    .collect();
                for r in reqs {
                    b.wait(&r, wait).unwrap();
                    let _ = r.take_data().expect("payload");
                }
            }
        }));
    }
    for t in 0..flows {
        let a = Arc::clone(&a);
        let bar = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let payload = Bytes::from(vec![t as u8; size]);
            bar.wait();
            for _ in 0..rounds {
                let reqs: Vec<_> = (0..window)
                    .map(|_| {
                        a.isend(GateId(t), t as u64, payload.clone())
                            .expect("isend")
                    })
                    .collect();
                for s in reqs {
                    a.wait(&s, wait).unwrap();
                }
            }
        }));
    }

    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("msgrate worker");
    }
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    (flows * rounds * window) as f64 / elapsed_ns as f64 * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(locking: LockingMode, flows: usize) -> MsgrateOpts {
        MsgrateOpts {
            locking,
            wire: WireModel::ideal(),
            flows,
            window: 8,
            rounds: 3,
            ..MsgrateOpts::default()
        }
    }

    #[test]
    fn threaded_runs_fine_grain_multi_flow() {
        let rate = msgrate_threaded(&quick(LockingMode::Fine, 2));
        assert!(rate > 0.0, "rate {rate}");
    }

    #[test]
    fn multi_vci_flows_deliver() {
        let opts = MsgrateOpts {
            vcis: 2,
            ..quick(LockingMode::Fine, 2)
        };
        assert!(msgrate_threaded(&opts) > 0.0);
    }

    #[test]
    #[should_panic(expected = "thread-safe locking")]
    fn threaded_rejects_single_thread_mode() {
        let _ = msgrate_threaded(&quick(LockingMode::SingleThread, 2));
    }
}
