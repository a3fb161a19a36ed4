//! Ablation of the optimization layer's scheduling strategies.
//!
//! DESIGN.md calls out the aggregation strategy as a design choice to
//! ablate: under bursty many-small-message traffic, coalescing entries
//! into shared packets (NewMadeleine's trademark optimization) reduces
//! per-packet overheads; control-first reordering additionally keeps
//! rendezvous handshakes off the queueing critical path.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nm_core::{CoreBuilder, CoreConfig, GateId, LockingMode, StrategyKind};
use nm_fabric::{Driver, LoopbackDriver};

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .configure_from_args()
}

/// Sends a burst of `n` small messages and drives them to delivery.
fn burst(strategy: StrategyKind, n: usize) {
    // Depth-1 driver: bursts pile up in the collect queue, giving the
    // strategy something to arrange.
    let (da, db) = LoopbackDriver::pair(1);
    let config = CoreConfig::default()
        .locking(LockingMode::Fine)
        .strategy(strategy);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    let payload =
        Bytes::from_static(b"burst-payload-64-bytes.........................................");
    let recvs: Vec<_> = (0..n)
        .map(|i| b.irecv(GateId(0), i as u64).expect("irecv"))
        .collect();
    let sends: Vec<_> = (0..n)
        .map(|i| {
            a.isend(GateId(0), i as u64, payload.clone())
                .expect("isend")
        })
        .collect();
    while recvs.iter().any(|r| !r.is_complete()) {
        a.progress();
        b.progress();
    }
    for s in sends {
        assert!(s.is_complete());
    }
    for r in recvs {
        let _ = r.take_data();
    }
}

fn strategies(c: &mut Criterion) {
    let mut g = c.benchmark_group("strategy_ablation");
    for strategy in [
        StrategyKind::Fifo,
        StrategyKind::Aggregate,
        StrategyKind::ControlFirst,
    ] {
        for n in [8usize, 64] {
            g.bench_with_input(
                BenchmarkId::new(format!("{strategy:?}"), n),
                &n,
                |bench, &n| bench.iter(|| burst(strategy, n)),
            );
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = strategies
}
criterion_main!(benches);
