//! "Table 1": microbenchmarks of the primitives whose costs the paper
//! quotes in-text — lock acquire/release cycles (70 ns), the progression
//! engine's pass (200 ns), blocking context switches (750 ns) — plus
//! ablations (ticket lock, OS mutex, tasklet scheduling).

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};

use nm_progress::{PollOutcome, ProgressEngine, Tasklet, TaskletEngine};
use nm_sync::{CompletionFlag, Semaphore, SpinLock, TicketLock, WaitStrategy};

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

fn lock_cycles(c: &mut Criterion) {
    let mut g = c.benchmark_group("lock_cycle");
    let spin = SpinLock::new(0u64);
    g.bench_function("spinlock", |b| {
        b.iter(|| {
            *spin.lock() += 1;
        })
    });
    let ticket = TicketLock::new(0u64);
    g.bench_function("ticket_lock", |b| {
        b.iter(|| {
            *ticket.lock() += 1;
        })
    });
    let mutex = parking_lot::Mutex::new(0u64);
    g.bench_function("parking_lot_mutex", |b| {
        b.iter(|| {
            *mutex.lock() += 1;
        })
    });
    let std_mutex = std::sync::Mutex::new(0u64);
    g.bench_function("std_mutex", |b| {
        b.iter(|| {
            *std_mutex.lock().unwrap() += 1;
        })
    });
    g.finish();
}

fn engine_pass(c: &mut Criterion) {
    let mut g = c.benchmark_group("pioman_pass");
    let engine = ProgressEngine::new();
    engine.register(Arc::new(|| PollOutcome::Idle));
    g.bench_function("engine_one_idle_source", |b| b.iter(|| engine.poll_all()));
    let engine8 = ProgressEngine::new();
    for _ in 0..8 {
        engine8.register(Arc::new(|| PollOutcome::Idle));
    }
    g.bench_function("engine_eight_idle_sources", |b| {
        b.iter(|| engine8.poll_all())
    });
    g.finish();
}

fn flag_ops(c: &mut Criterion) {
    let mut g = c.benchmark_group("completion_flag");
    let flag = CompletionFlag::new();
    g.bench_function("signal_wait_reset", |b| {
        b.iter(|| {
            flag.signal();
            flag.wait(WaitStrategy::Busy);
            flag.reset();
        })
    });
    g.finish();
}

fn context_switch(c: &mut Criterion) {
    let mut g = c.benchmark_group("context_switch");
    g.bench_function("semaphore_hop", |b| {
        b.iter_custom(|iters| {
            let hops = iters.max(1);
            let ping = Arc::new(Semaphore::new(0));
            let pong = Arc::new(Semaphore::new(0));
            let (p2, q2) = (Arc::clone(&ping), Arc::clone(&pong));
            let peer = std::thread::spawn(move || {
                for _ in 0..hops {
                    p2.acquire();
                    q2.release();
                }
            });
            let t0 = Instant::now();
            for _ in 0..hops {
                ping.release();
                pong.acquire();
            }
            let elapsed = t0.elapsed();
            peer.join().unwrap();
            // Two switches per hop; report one.
            elapsed / 2
        })
    });
    g.finish();
}

fn tasklet_schedule(c: &mut Criterion) {
    let mut g = c.benchmark_group("offload");
    g.bench_function("tasklet_schedule_to_done", |b| {
        let engine = TaskletEngine::new(1, None);
        let flag = Arc::new(CompletionFlag::new());
        let f2 = Arc::clone(&flag);
        let t = Tasklet::new("bench", move || f2.signal());
        b.iter(|| {
            flag.reset();
            engine.schedule(&t);
            flag.wait(WaitStrategy::Busy);
        });
    });
    g.bench_function("idle_queue_push_drain", |b| {
        let off = nm_progress::Offloader::idle_core();
        b.iter(|| {
            off.submit(|| {});
            off.drain()
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = lock_cycles, engine_pass, flag_ops, context_switch, tasklet_schedule
}
criterion_main!(benches);
