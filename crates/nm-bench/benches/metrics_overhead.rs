//! Cost of the always-on metrics layer (`nm-metrics`).
//!
//! The layer's contract is one relaxed atomic add — or one log-linear
//! histogram record — per operation, ≤ 25 ns on the reference host in
//! release mode (docs/METRICS.md). A timer adds two clock reads to its
//! record, a sampled timer one sample per 64 calls; both are priced
//! here. These benches measure each record
//! primitive through a pre-resolved handle (the cold registry lookup is
//! benched separately so its cost is visible, not hidden in the hot
//! numbers), plus the end-to-end snapshot/render path.

use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

fn record_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_record");
    let hist = nm_metrics::metrics().histogram("bench.overhead.hist");
    hist.record(0); // warm this thread's stripe
    let mut v = 0u64;
    g.bench_function("histogram_record", |b| {
        b.iter(|| {
            // Vary the value so the bucket computation spans the linear
            // and log-linear ranges rather than hitting one hot bucket.
            v = v.wrapping_add(977);
            hist.record(black_box(v % 65_536));
        })
    });
    let counter = nm_metrics::metrics().counter("bench.overhead.counter");
    g.bench_function("counter_incr", |b| b.iter(|| counter.incr()));
    let gauge = nm_metrics::metrics().gauge("bench.overhead.gauge");
    g.bench_function("gauge_set", |b| {
        b.iter(|| {
            v = v.wrapping_add(1);
            gauge.set(black_box(v as i64));
        })
    });
    let timer_hist = nm_metrics::metrics().histogram("bench.overhead.timer");
    g.bench_function("hist_timer_drop", |b| {
        b.iter(|| {
            let _t = timer_hist.timer();
        })
    });
    // The per-message timer of `isend`/`irecv`: the mean over 64 calls
    // of one clock-reading sample and 63 tick updates.
    let sampled_hist = nm_metrics::metrics().histogram("bench.overhead.sampled_timer");
    g.bench_function("hist_sampled_timer_drop", |b| {
        b.iter(|| {
            let _t = sampled_hist.sampled_timer();
        })
    });
    g.finish();
}

fn cold_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("metrics_cold");
    // Repeated lookup of an existing metric: the cost callers pay if
    // they *don't* cache the handle (why the `global_hist!` pattern
    // caches it in a OnceLock).
    g.bench_function("registry_lookup", |b| {
        b.iter(|| nm_metrics::metrics().histogram(black_box("bench.overhead.hist")))
    });
    let hist = nm_metrics::metrics().histogram("bench.overhead.snapshot");
    for i in 0..10_000u64 {
        hist.record(i);
    }
    g.bench_function("histogram_snapshot", |b| b.iter(|| hist.snapshot()));
    g.bench_function("openmetrics_render", |b| {
        b.iter(|| nm_metrics::export::to_openmetrics(&nm_metrics::metrics().snapshot()))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = record_path, cold_paths
}
criterion_main!(benches);
