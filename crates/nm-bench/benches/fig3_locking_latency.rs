//! Figure 3 — impact of locking on latency.
//!
//! Co-polled pingpong over an ideal wire: measured time is the real
//! software path of one roundtrip, so the deltas between locking modes
//! are the paper's constants (coarse ≈ +140 ns, fine ≈ +230 ns per
//! one-way on their testbed).

use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nm_bench::pingpong::{bench_sizes, build_ideal_pair, co_polled_roundtrip};
use nm_core::LockingMode;

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

fn fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_locking_latency");
    for mode in LockingMode::ALL {
        let (a, b) = build_ideal_pair(mode);
        for size in bench_sizes() {
            let payload = Bytes::from(vec![0u8; size]);
            g.bench_with_input(BenchmarkId::new(mode.label(), size), &size, |bench, _| {
                bench.iter(|| co_polled_roundtrip(&a, &b, &payload));
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = fig3
}
criterion_main!(benches);
