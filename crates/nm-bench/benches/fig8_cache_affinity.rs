//! Figure 8 — impact of cache affinity on a quad-core chip.
//!
//! Real mode needs ≥ 2 bindable cores: the application thread is bound to
//! core 0 and a progression thread to each representative core; the
//! measured quantity is the completion-handoff latency (flag written by
//! the poller, observed by the app). On hosts without enough cores the
//! bench falls back to measuring the deterministic simulator's figure
//! generation (still exercising the code path end to end).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nm_sim::{experiments as sim, SimCosts};
use nm_sync::{CompletionFlag, WaitStrategy};
use nm_topo::{affinity, Topology};

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

/// `hops` flag handoffs between a thread on `core_a` and one on `core_b`.
fn cross_core_hops(core_a: usize, core_b: usize, hops: u64) -> Duration {
    let ping = Arc::new(CompletionFlag::new());
    let pong = Arc::new(CompletionFlag::new());
    let stop = Arc::new(AtomicBool::new(false));
    let (p2, q2, s2) = (Arc::clone(&ping), Arc::clone(&pong), Arc::clone(&stop));
    let peer = std::thread::spawn(move || {
        let _ = affinity::bind_current_thread(core_b);
        while !s2.load(Ordering::Acquire) {
            if p2.wait_timeout(WaitStrategy::Busy, Duration::from_millis(10)) {
                p2.reset();
                q2.signal();
            }
        }
    });
    let _ = affinity::bind_current_thread(core_a);
    let t0 = Instant::now();
    for _ in 0..hops {
        ping.signal();
        pong.wait(WaitStrategy::Busy);
        pong.reset();
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Release);
    peer.join().expect("peer");
    elapsed
}

fn fig8(c: &mut Criterion) {
    let host = Topology::discover();
    let mut g = c.benchmark_group("fig8_cache_affinity");

    if affinity::is_supported() && host.num_cores() >= 2 {
        // Real cross-core handoff per distance class available on this
        // host.
        for (dist, core) in host.representative_cores(0) {
            g.bench_with_input(
                BenchmarkId::new("real_handoff", format!("{dist:?}-cpu{core}")),
                &core,
                |b, &core| {
                    b.iter_custom(|iters| {
                        let hops = iters.clamp(1, 5_000);
                        let reps = iters.div_ceil(hops);
                        let mut total = Duration::ZERO;
                        for _ in 0..reps {
                            total += cross_core_hops(0, core, hops);
                        }
                        total.mul_f64(iters as f64 / (hops * reps) as f64)
                    })
                },
            );
        }
    }

    // Deterministic simulator per placement (always available).
    let topo = Topology::xeon_x5460();
    // One representative placement is enough for the sim timing; the
    // series itself contains every placement.
    if let Some((dist, core)) = topo.representative_cores(0).into_iter().next() {
        g.bench_with_input(
            BenchmarkId::new("sim_pingpong", format!("{dist:?}-cpu{core}")),
            &core,
            |b, &_core| {
                b.iter(|| {
                    let s = sim::fig8_cache_affinity(SimCosts::paper(), &topo, &[64]);
                    criterion::black_box(s)
                })
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = fig8
}
criterion_main!(benches);
