//! Figure 9 — impact of tasklets on deferred message submission.
//!
//! Measures the *submission path* of each offload mode on the real stack:
//! `isend` with inline submission runs the strategy and doorbell on the
//! caller; idle-core mode pays one queue push; tasklet mode pays the
//! scheduling state machine and runner wakeup. The full overlap pingpong
//! (with the 10 µs compute phase) is exercised at a reduced iteration
//! count.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nm_core::{CoreBuilder, CoreConfig, GateId, LockingMode};
use nm_fabric::{Driver, LoopbackDriver, WireModel};
use nm_progress::{OffloadMode, TaskletEngine};

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

/// Benchmarks the `isend` submission path per offload mode: what the
/// application thread pays before it can start computing.
fn submission_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_submission_path");
    for mode in OffloadMode::ALL {
        let (da, db) = LoopbackDriver::pair(1024);
        let mut config = CoreConfig::default()
            .locking(LockingMode::Fine)
            .offload(mode);
        let mut _tasklets = None;
        if mode == OffloadMode::Tasklet {
            let engine = Arc::new(TaskletEngine::new(1, None));
            config = config.tasklet_engine(Arc::clone(&engine));
            _tasklets = Some(engine);
        }
        let a = CoreBuilder::new(config)
            .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
            .build();
        let b = CoreBuilder::new(CoreConfig::default())
            .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
            .build();

        let payload = Bytes::from(vec![0u8; 2048]);
        g.bench_function(
            BenchmarkId::new("isend_to_delivery", mode.label()),
            |bench| {
                bench.iter(|| {
                    // One message end to end: the deferred-submission path
                    // (queue push, tasklet state machine + runner wakeup)
                    // rides the measured interval.
                    let r = b.irecv(GateId(0), 0).expect("irecv");
                    let s = a.isend(GateId(0), 0, payload.clone()).expect("isend");
                    while !r.is_complete() {
                        // The measuring thread doubles as the idle core for
                        // IdleCore mode; tasklet mode is drained by its
                        // runner thread.
                        a.drain_offload();
                        a.progress();
                        b.progress();
                    }
                    criterion::black_box((s, r.take_data()))
                });
            },
        );
    }
    g.finish();
}

/// The full overlap pingpong at one size per mode (reduced iterations).
fn overlap_pingpong(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_overlap_pingpong");
    g.sample_size(10);
    for mode in OffloadMode::ALL {
        g.bench_function(BenchmarkId::new("overlap_8K", mode.label()), |bench| {
            bench.iter_custom(|iters| {
                let opts = nm_bench::overlap::OverlapOpts {
                    offload: mode,
                    wire: WireModel::ideal(),
                    compute: Duration::from_micros(10),
                    iters: iters.clamp(1, 30) as usize,
                    warmup: 1,
                };
                let stats = nm_bench::overlap::overlap_latency(&opts, 8192);
                // Total time represented by the measured iterations,
                // normalized back to the requested count.
                Duration::from_nanos((stats.mean_ns() * iters as f64) as u64)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = submission_path, overlap_pingpong
}
criterion_main!(benches);
