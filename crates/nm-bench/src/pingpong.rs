//! Real-mode pingpong runner (Figs 3 and 6).

use std::sync::Arc;

use bytes::Bytes;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, LockingMode};
use nm_fabric::{Driver, Fabric, LoopbackDriver, WireModel};
use nm_progress::ProgressEngine;
use nm_sim::experiments::Series;
use nm_sync::WaitStrategy;

use crate::stats::LatencyStats;

/// Pingpong configuration.
#[derive(Clone)]
pub struct PingpongOpts {
    /// Locking mode under test.
    pub locking: LockingMode,
    /// Wire model of the single rail.
    pub wire: WireModel,
    /// Waiting strategy of both endpoints.
    pub wait: WaitStrategy,
    /// Route waiting-side polling through a [`ProgressEngine`] (Fig 6).
    pub via_engine: bool,
    /// Measured iterations per size.
    pub iters: usize,
    /// Warmup iterations per size.
    pub warmup: usize,
}

impl Default for PingpongOpts {
    fn default() -> Self {
        PingpongOpts {
            locking: LockingMode::Fine,
            wire: WireModel::myri_10g(),
            wait: WaitStrategy::Busy,
            via_engine: false,
            iters: 100,
            warmup: 10,
        }
    }
}

/// Builds a connected pair of cores over one rail of `opts.wire`.
pub fn build_pair(opts: &PingpongOpts) -> (Arc<CommCore>, Arc<CommCore>) {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[opts.wire], true);
    let config = CoreConfig::default().locking(opts.locking);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();
    (a, b)
}

/// Waits for `req`, polling either the core directly or through an
/// engine (the Fig 6 variant).
fn wait_via(
    core: &Arc<CommCore>,
    engine: Option<&Arc<ProgressEngine>>,
    req: &nm_core::Request,
    wait: WaitStrategy,
) {
    match engine {
        None => core.wait(req, wait).unwrap(),
        Some(engine) => {
            // Polling goes through the engine's registry: its list
            // management and locking ride the critical path.
            let engine = Arc::clone(engine);
            req.flag().wait_with_poll(wait, move || {
                engine.poll_all();
            });
        }
    }
}

/// Measures one-way latency for one message size; returns stats over the
/// measured iterations.
pub fn pingpong_latency(opts: &PingpongOpts, size: usize) -> LatencyStats {
    let (a, b) = build_pair(opts);
    let engine_a = opts.via_engine.then(|| {
        let e = Arc::new(ProgressEngine::new());
        e.register(Arc::clone(&a) as _);
        e
    });
    let engine_b = opts.via_engine.then(|| {
        let e = Arc::new(ProgressEngine::new());
        e.register(Arc::clone(&b) as _);
        e
    });

    let total = opts.warmup + opts.iters;
    let wait = opts.wait;
    let b2 = Arc::clone(&b);
    let echo = std::thread::spawn(move || {
        for _ in 0..total {
            let r = b2.irecv(GateId(0), 0).expect("irecv");
            wait_via(&b2, engine_b.as_ref(), &r, wait);
            let data = r.take_data().expect("payload");
            let s = b2.isend(GateId(0), 0, data).expect("isend");
            wait_via(&b2, engine_b.as_ref(), &s, wait);
        }
    });

    let payload = Bytes::from(vec![0x42u8; size]);
    let mut samples = Vec::with_capacity(opts.iters);
    for i in 0..total {
        let t0 = std::time::Instant::now();
        let s = a.isend(GateId(0), 0, payload.clone()).expect("isend");
        wait_via(&a, engine_a.as_ref(), &s, wait);
        let r = a.irecv(GateId(0), 0).expect("irecv");
        wait_via(&a, engine_a.as_ref(), &r, wait);
        let rtt = t0.elapsed();
        if i >= opts.warmup {
            samples.push(rtt.as_nanos() as u64 / 2); // one-way
        }
    }
    echo.join().expect("echo thread");
    LatencyStats::from_ns(samples)
}

/// Builds two connected cores over zero-latency loopback drivers, so
/// that measured time is pure software overhead.
pub fn build_ideal_pair(locking: LockingMode) -> (Arc<CommCore>, Arc<CommCore>) {
    let (da, db) = LoopbackDriver::pair(64);
    let config = CoreConfig::default().locking(locking);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    (a, b)
}

/// One co-polled roundtrip: A sends to B, B echoes, the calling thread
/// polls both cores throughout.
///
/// The threaded [`pingpong_latency`] needs two busy-waiting threads; on
/// a host with fewer cores than threads its timings are dominated by
/// preemption. Here a roundtrip measures the real software path (locks,
/// strategy, wire format, matching) without any thread scheduling noise
/// — the baseline the figure benches use. Panics if the roundtrip does
/// not finish within a progress-pass budget (broken protocol rather
/// than hang).
pub fn co_polled_roundtrip(a: &Arc<CommCore>, b: &Arc<CommCore>, payload: &Bytes) {
    const MAX_PASSES: usize = 1_000_000;
    let send = a.isend(GateId(0), 0, payload.clone()).expect("isend");
    let recv_b = b.irecv(GateId(0), 0).expect("irecv");
    let mut passes = 0;
    while !recv_b.is_complete() {
        a.progress();
        b.progress();
        passes += 1;
        assert!(passes < MAX_PASSES, "ping never arrived");
    }
    let data = recv_b.take_data().expect("payload");
    let echo = b.isend(GateId(0), 0, data).expect("echo isend");
    let recv_a = a.irecv(GateId(0), 0).expect("irecv");
    while !recv_a.is_complete() {
        b.progress();
        a.progress();
        passes += 1;
        assert!(passes < MAX_PASSES, "pong never arrived");
    }
    // Local completions follow from the progression above.
    debug_assert!(send.is_complete());
    debug_assert!(echo.is_complete());
    let _ = recv_a.take_data();
}

/// The small-message sizes the figure benches sweep.
pub fn bench_sizes() -> [usize; 3] {
    [4, 256, 2048]
}

/// Produces one [`Series`] (median one-way latency per size).
pub fn pingpong_series(opts: &PingpongOpts, label: &str, sizes: &[usize]) -> Series {
    Series {
        label: label.to_string(),
        points: sizes
            .iter()
            .map(|&s| (s, pingpong_latency(opts, s).median_us()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(locking: LockingMode, via_engine: bool) -> PingpongOpts {
        PingpongOpts {
            locking,
            wire: WireModel::ideal(),
            via_engine,
            iters: 10,
            warmup: 2,
            ..PingpongOpts::default()
        }
    }

    #[test]
    fn runs_for_every_locking_mode() {
        for locking in [LockingMode::Coarse, LockingMode::Fine] {
            let stats = pingpong_latency(&quick(locking, false), 64);
            assert_eq!(stats.count(), 10);
            assert!(stats.min_ns() > 0);
        }
    }

    #[test]
    fn runs_through_the_engine() {
        let stats = pingpong_latency(&quick(LockingMode::Fine, true), 64);
        assert_eq!(stats.count(), 10);
    }

    #[test]
    fn series_has_one_point_per_size() {
        let s = pingpong_series(&quick(LockingMode::Fine, false), "t", &[1, 64]);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].0, 1);
        assert!(s.points.iter().all(|&(_, us)| us > 0.0));
    }

    #[test]
    fn co_polled_roundtrip_all_modes() {
        for mode in LockingMode::ALL {
            let (a, b) = build_ideal_pair(mode);
            let payload = Bytes::from_static(b"co-polled");
            for _ in 0..10 {
                co_polled_roundtrip(&a, &b, &payload);
            }
            assert_eq!(a.stats().sends_posted.get(), 10);
            assert_eq!(b.stats().recvs_posted.get(), 10);
        }
    }

    #[test]
    fn co_polled_over_wire_pair() {
        let (a, b) = build_pair(&quick(LockingMode::Fine, false));
        // Eager, then rendezvous (above the default eager threshold).
        for size in [2048, 64 * 1024] {
            co_polled_roundtrip(&a, &b, &Bytes::from(vec![7u8; size]));
        }
    }

    #[test]
    fn wire_latency_is_a_hard_floor() {
        // A 200 µs wire bounds the one-way latency from below regardless
        // of host scheduling noise: even the fastest sample must pay two
        // wire traversals per round trip.
        let slow = PingpongOpts {
            wire: WireModel {
                latency_ns: 200_000,
                ..WireModel::ideal()
            },
            iters: 3,
            warmup: 1,
            ..PingpongOpts::default()
        };
        let t_slow = pingpong_latency(&slow, 8).min_ns();
        assert!(t_slow >= 190_000, "one-way min {t_slow} ns beat the wire");
    }
}
