//! Figure 7 — impact of semaphores on latency.
//!
//! Measures the wake-up path of each waiting strategy on a real
//! completion flag: a producer thread signals, the consumer waits with
//! busy / passive / fixed-spin strategies. Passive pays the context
//! switch the paper measures at ~750 ns; fixed spin avoids it whenever
//! the event lands within the window.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use nm_sync::{CompletionFlag, Semaphore, WaitStrategy};

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

/// `hops` handoffs through a flag pair with the given waiting strategy;
/// returns total elapsed time.
fn flag_hops(strategy: WaitStrategy, hops: u64) -> Duration {
    let ping = Arc::new(CompletionFlag::new());
    let pong = Arc::new(CompletionFlag::new());
    let (p2, q2) = (Arc::clone(&ping), Arc::clone(&pong));
    let peer = std::thread::spawn(move || {
        for _ in 0..hops {
            p2.wait(strategy);
            p2.reset();
            q2.signal();
        }
    });
    let t0 = Instant::now();
    for _ in 0..hops {
        ping.signal();
        pong.wait(strategy);
        pong.reset();
    }
    let elapsed = t0.elapsed();
    peer.join().expect("peer");
    elapsed
}

fn waiting_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_waiting_strategies");
    for (name, strategy) in [
        ("active", WaitStrategy::Busy),
        ("passive", WaitStrategy::Passive),
        ("fixed_spin_5us", WaitStrategy::fixed_spin_default()),
    ] {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let hops = iters.clamp(1, 2_000);
                let reps = iters.div_ceil(hops);
                let mut total = Duration::ZERO;
                for _ in 0..reps {
                    total += flag_hops(strategy, hops);
                }
                total.mul_f64(iters as f64 / (hops * reps) as f64)
            })
        });
    }
    g.finish();
}

fn semaphore_strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_semaphore_acquire");
    for (name, strategy) in [
        ("passive", WaitStrategy::Passive),
        ("fixed_spin_5us", WaitStrategy::fixed_spin_default()),
    ] {
        g.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let hops = iters.clamp(1, 2_000);
                let reps = iters.div_ceil(hops);
                let mut total = Duration::ZERO;
                for _ in 0..reps {
                    let ping = Arc::new(Semaphore::new(0));
                    let pong = Arc::new(Semaphore::new(0));
                    let (p2, q2) = (Arc::clone(&ping), Arc::clone(&pong));
                    let peer = std::thread::spawn(move || {
                        for _ in 0..hops {
                            p2.acquire_with(strategy);
                            q2.release();
                        }
                    });
                    let t0 = Instant::now();
                    for _ in 0..hops {
                        ping.release();
                        pong.acquire_with(strategy);
                    }
                    total += t0.elapsed();
                    peer.join().expect("peer");
                }
                total.mul_f64(iters as f64 / (hops * reps) as f64)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = waiting_strategies, semaphore_strategies
}
criterion_main!(benches);
