//! Figure 6 — impact of PIOMan on latency.
//!
//! Same co-polled pingpong as Fig 3, but the polling goes through the
//! progression engine's registry (list + lock per pass); the delta vs the
//! direct curves is the paper's ~200 ns.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nm_bench::pingpong::{bench_sizes, build_ideal_pair, co_polled_roundtrip};
use nm_core::{CommCore, GateId, LockingMode};
use nm_progress::ProgressEngine;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

/// Co-polled roundtrip where all progression goes through `engine`.
fn engine_roundtrip(
    a: &Arc<CommCore>,
    b: &Arc<CommCore>,
    engine: &Arc<ProgressEngine>,
    payload: &Bytes,
) {
    let _send = a.isend(GateId(0), 0, payload.clone()).expect("isend");
    let recv_b = b.irecv(GateId(0), 0).expect("irecv");
    while !recv_b.is_complete() {
        engine.poll_all();
    }
    let data = recv_b.take_data().expect("payload");
    let _echo = b.isend(GateId(0), 0, data).expect("echo");
    let recv_a = a.irecv(GateId(0), 0).expect("irecv");
    while !recv_a.is_complete() {
        engine.poll_all();
    }
    let _ = recv_a.take_data();
}

fn fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_pioman_overhead");
    for mode in [LockingMode::Coarse, LockingMode::Fine] {
        // Through the engine.
        let (a, b) = build_ideal_pair(mode);
        let engine = Arc::new(ProgressEngine::new());
        engine.register(Arc::clone(&a) as _);
        engine.register(Arc::clone(&b) as _);
        for size in bench_sizes() {
            let payload = Bytes::from(vec![0u8; size]);
            g.bench_with_input(
                BenchmarkId::new(format!("pioman-{}", mode.label()), size),
                &size,
                |bench, _| bench.iter(|| engine_roundtrip(&a, &b, &engine, &payload)),
            );
        }
        // Direct polling reference.
        let (a2, b2) = build_ideal_pair(mode);
        for size in bench_sizes() {
            let payload = Bytes::from(vec![0u8; size]);
            g.bench_with_input(
                BenchmarkId::new(format!("direct-{}", mode.label()), size),
                &size,
                |bench, _| bench.iter(|| co_polled_roundtrip(&a2, &b2, &payload)),
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = fig6
}
criterion_main!(benches);
