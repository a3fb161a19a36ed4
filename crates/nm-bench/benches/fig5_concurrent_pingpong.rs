//! Figure 5 — two threads perform pingpongs concurrently.
//!
//! Real threads over a zero-latency wire; coarse locking serializes the
//! two flows while fine-grain locking lets them proceed in parallel.
//! Iteration counts are kept small: on a single-CPU host every handoff
//! costs a scheduler preemption.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nm_bench::pingpong::build_ideal_pair;
use nm_core::{GateId, LockingMode};
use nm_sync::WaitStrategy;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

/// Runs `rounds` roundtrips on each of two concurrent flows; returns the
/// elapsed wall time (both flows included).
fn concurrent_rounds(mode: LockingMode, size: usize, rounds: u64) -> Duration {
    let (a, b) = build_ideal_pair(mode);
    let mut echoes = Vec::new();
    for tag in 0..2u64 {
        let b = Arc::clone(&b);
        echoes.push(std::thread::spawn(move || {
            for _ in 0..rounds {
                let r = b.irecv(GateId(0), tag).expect("irecv");
                b.wait(&r, WaitStrategy::Busy).unwrap();
                let data = r.take_data().expect("payload");
                let s = b.isend(GateId(0), tag, data).expect("isend");
                b.wait(&s, WaitStrategy::Busy).unwrap();
            }
        }));
    }
    let t0 = Instant::now();
    let mut pingers = Vec::new();
    for tag in 0..2u64 {
        let a = Arc::clone(&a);
        pingers.push(std::thread::spawn(move || {
            let payload = Bytes::from(vec![tag as u8; size]);
            for _ in 0..rounds {
                let s = a.isend(GateId(0), tag, payload.clone()).expect("isend");
                a.wait(&s, WaitStrategy::Busy).unwrap();
                let r = a.irecv(GateId(0), tag).expect("irecv");
                a.wait(&r, WaitStrategy::Busy).unwrap();
            }
        }));
    }
    for h in pingers {
        h.join().expect("pinger");
    }
    let elapsed = t0.elapsed();
    for h in echoes {
        h.join().expect("echo");
    }
    elapsed
}

fn fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5_concurrent_pingpong");
    for mode in [LockingMode::Fine, LockingMode::Coarse] {
        g.bench_with_input(
            BenchmarkId::new(mode.label(), 256),
            &256usize,
            |bench, &size| {
                bench.iter_custom(|iters| {
                    let rounds = iters.clamp(1, 50);
                    let reps = iters.div_ceil(rounds);
                    let mut total = Duration::ZERO;
                    for _ in 0..reps {
                        total += concurrent_rounds(mode, size, rounds);
                    }
                    // Normalize to the requested iteration count.
                    total.mul_f64(iters as f64 / (rounds * reps) as f64)
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = fig5
}
criterion_main!(benches);
