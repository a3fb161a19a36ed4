//! Micro-probes: the price of one call into each layer, measured on
//! public functions in isolation. They are the same for every workload;
//! the budget table sets them beside the spans of `pingpong_eager` to
//! show how much of each call they explain.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use nm_core::wire::{crc32, decode_frame, decode_packet, encode_frame, encode_packet, Entry};
use nm_core::{CoreConfig, LockingMode, SendItem, SendItemKind, StrategyKind};
use nm_fabric::{
    ChaosDriver, ClockSource, Driver, FaultPlan, LoopbackDriver, SimNic, SimNicDriver, WireModel,
};
use nm_metrics::Histogram;
use nm_progress::{PollSource, ProgressEngine};
use nm_sync::{CompletionFlag, SpinLock, WaitStrategy};

use crate::stats::{median, percentiles};
use crate::trace::{now_ns, NoTrace};
use crate::workloads::{
    copolled_facade_pingpong, ideal_pair, pin, windowed_stream, Mode, RepParams, StreamWire,
    Workload,
};

/// How long the probes may take: `Full` for a traced run of record,
/// `Quick` for `--quick` and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    Full,
    Quick,
}

impl Effort {
    fn scale(self, n: u64) -> u64 {
        match self {
            Effort::Full => n,
            Effort::Quick => (n / 20).max(64),
        }
    }

    fn rep(self) -> Duration {
        match self {
            Effort::Full => Duration::from_millis(250),
            Effort::Quick => Duration::from_millis(20),
        }
    }
}

/// Batches a probe takes the median of.
const BATCHES: usize = 9;

/// Nanoseconds per call of `op` over one batch of `calls`.
fn batch_ns(calls: u64, mut op: impl FnMut(u64)) -> f64 {
    let t0 = now_ns();
    for i in 0..calls {
        op(i);
    }
    (now_ns() - t0) as f64 / calls as f64
}

/// Nanoseconds per call of `op`: median over the batches.
fn ns_per_call(calls: u64, mut op: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES).map(|_| batch_ns(calls, &mut op)).collect();
    median(&batches)
}

fn spin_cycle(effort: Effort) -> f64 {
    let lock = SpinLock::new(0u64);
    ns_per_call(effort.scale(50_000), |i| {
        *black_box(&lock).lock() += i;
    })
}

/// Two threads take turns on one lock; the time per turn is the cost of
/// moving a contended lock (and its data) to the other CPU.
fn spin_handoff(effort: Effort) -> f64 {
    let turns = effort.scale(40_000);
    let lock = SpinLock::new(0u64);
    let take_turns = |me: u64| loop {
        let mut turn = lock.lock();
        if *turn >= turns {
            return;
        }
        if *turn % 2 == me {
            *turn += 1;
        }
    };
    std::thread::scope(|scope| {
        let other = scope.spawn(|| {
            pin(1);
            take_turns(1);
        });
        let t0 = now_ns();
        take_turns(0);
        other.join().expect("hand-off thread panicked");
        (now_ns() - t0) as f64 / turns as f64
    })
}

/// `signal` on CPU 1 until a busy waiter on CPU 0 sees it: half of a
/// flag ping-pong between the two CPUs.
fn flag_handoff(effort: Effort) -> f64 {
    let rounds = effort.scale(100_000);
    let (ping, pong) = (CompletionFlag::new(), CompletionFlag::new());
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            pin(1);
            for _ in 0..rounds {
                ping.wait(WaitStrategy::Busy);
                ping.reset();
                pong.signal();
            }
        });
        let t0 = now_ns();
        for _ in 0..rounds {
            ping.signal();
            pong.wait(WaitStrategy::Busy);
            pong.reset();
        }
        let elapsed = now_ns() - t0;
        echo.join().expect("flag echo thread panicked");
        elapsed as f64 / (2 * rounds) as f64
    })
}

/// One 64-byte packet posted on one end and polled on the other.
fn post_poll(effort: Effort, tx: &dyn Driver, rx: &dyn Driver) -> f64 {
    let packet = Bytes::from(vec![0xA5u8; 64]);
    ns_per_call(effort.scale(50_000), |_| {
        let posted = tx.post_vci(0, packet.clone());
        debug_assert!(posted.is_ok());
        black_box(rx.poll_vci(0));
    })
}

fn simnic_post_poll(effort: Effort) -> f64 {
    let (na, nb) = SimNic::pair("probe", WireModel::ideal(), ClockSource::real());
    let (tx, rx) = (SimNicDriver::new(na, true), SimNicDriver::new(nb, true));
    post_poll(effort, &tx, &rx)
}

fn loopback_post_poll(effort: Effort) -> f64 {
    let (tx, rx) = LoopbackDriver::pair(64);
    post_poll(effort, &tx, &rx)
}

fn chaos_post_poll(effort: Effort) -> f64 {
    let (tx, rx) = LoopbackDriver::pair(64);
    let rx = ChaosDriver::new(rx, FaultPlan::new(1));
    post_poll(effort, &tx, &rx)
}

fn eager_entry() -> Entry {
    Entry::Eager {
        tag: 7,
        seq: 1,
        data: Bytes::from_static(b"8 bytes!"),
    }
}

fn strategy_per_item(effort: Effort, kind: StrategyKind) -> f64 {
    const DEPTH: u64 = 32;
    let strategy = kind.build();
    let payload = Bytes::from_static(b"8 bytes!");
    let budget = CoreConfig::default().max_aggregation;
    let (mut timed, mut items) = (0u64, 0u64);
    for _ in 0..effort.scale(20_000) {
        let mut queue: VecDeque<SendItem> = (0..DEPTH as u32)
            .map(|seq| SendItem {
                tag: 7,
                seq,
                kind: SendItemKind::Eager(payload.clone()),
                req: None,
                span: 0,
            })
            .collect();
        let t0 = now_ns();
        while let Some(packet) = strategy.next_packet(&mut queue, budget) {
            black_box(packet);
        }
        timed += now_ns() - t0;
        items += DEPTH;
    }
    timed as f64 / items as f64
}

/// `ProgressEngine::poll_all` over one idle core minus the idle
/// `progress` call it ends up making.
fn engine_poll_overhead(effort: Effort) -> f64 {
    let (a, _b) = ideal_pair(CoreConfig::default().locking(LockingMode::Fine), 1);
    let calls = effort.scale(50_000);
    let engine = ProgressEngine::new();
    engine.register(Arc::clone(&a) as Arc<dyn PollSource>);
    // The difference of two ~150 ns calls: pair the batches, so that
    // drift of the host hits both sides of each difference alike.
    let differences: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let direct = batch_ns(calls, |_| {
                black_box(a.progress());
            });
            let through = batch_ns(calls, |_| {
                black_box(engine.poll_all());
            });
            through - direct
        })
        .collect();
    median(&differences)
}

fn rep_p50(mut out: crate::workloads::RepOutput) -> f64 {
    percentiles(&mut out.samples).p50 as f64
}

/// Co-polled 8-byte round trips through `Endpoint` minus the same
/// through `CommCore`, fine mode, per one-way message.
fn facade_overhead(effort: Effort, seed: u64) -> f64 {
    let params = RepParams {
        mode: Mode::Fine,
        seed,
        duration: effort.rep() / 2,
        span_capacity: 0,
    };
    // Paired, like the engine probe: three differences, their median.
    let differences: Vec<f64> = (0..3)
        .map(|_| {
            let facade = rep_p50(copolled_facade_pingpong::<NoTrace>(&params));
            let core = rep_p50(Workload::PingpongEager.run_rep::<NoTrace>(&params));
            facade - core
        })
        .collect();
    median(&differences)
}

/// Packets handed to the fabric per delivered message with reliability
/// on, at loss 0 and at loss 0.02, over the same with reliability off.
fn rel_tx_amplification(effort: Effort, seed: u64) -> (Option<f64>, Option<f64>) {
    let params = RepParams {
        mode: Mode::Fine,
        seed,
        duration: effort.rep(),
        span_capacity: 0,
    };
    let packets_per_msg = |reliable, loss| {
        let out = windowed_stream::<NoTrace>(&params, StreamWire::SimNic, reliable, loss);
        Some(out.counts.fabric_tx_packets? as f64 / out.msgs.max(1) as f64)
    };
    let base = packets_per_msg(false, 0.0);
    let ratio = |with: Option<f64>| Some(with? / base?);
    (
        ratio(packets_per_msg(true, 0.0)),
        ratio(packets_per_msg(true, 0.02)),
    )
}

/// Runs every probe. Names are the per-layer metric names.
pub fn run_all(effort: Effort, seed: u64) -> Vec<(&'static str, Option<f64>)> {
    let calls = effort.scale(50_000);
    let packet = encode_packet(&[eager_entry()]);
    let chunk = vec![0x5Au8; 16 * 1024];
    let frame = encode_frame(0, 0, 0, 0, &chunk);
    let hist = Histogram::new();
    let loopback = loopback_post_poll(effort);
    let crc_ns = ns_per_call(effort.scale(400), |_| {
        black_box(crc32(black_box(&chunk)));
    });
    let (rel_lossless, rel_lossy) = rel_tx_amplification(effort, seed);
    vec![
        ("sync.spin_cycle_ns", Some(spin_cycle(effort))),
        ("sync.spin_handoff_ns", Some(spin_handoff(effort))),
        ("sync.flag_handoff_ns", Some(flag_handoff(effort))),
        ("fabric.simnic_post_poll_ns", Some(simnic_post_poll(effort))),
        ("fabric.loopback_post_poll_ns", Some(loopback)),
        (
            "fabric.chaos_passthrough_ns",
            Some(chaos_post_poll(effort) - loopback),
        ),
        (
            "wire.encode_packet_ns.8B",
            Some(ns_per_call(calls, |_| {
                black_box(encode_packet(black_box(&[eager_entry()])));
            })),
        ),
        (
            "wire.decode_packet_ns.8B",
            Some(ns_per_call(calls, |_| {
                black_box(decode_packet(packet.clone())).ok();
            })),
        ),
        (
            "wire.encode_frame_ns.16KiB",
            Some(ns_per_call(effort.scale(400), |_| {
                black_box(encode_frame(0, 0, 0, 0, black_box(&chunk)));
            })),
        ),
        (
            "wire.decode_frame_ns.16KiB",
            Some(ns_per_call(effort.scale(400), |_| {
                black_box(decode_frame(frame.clone())).ok();
            })),
        ),
        ("wire.crc32_MBps", Some(chunk.len() as f64 * 1e3 / crc_ns)),
        (
            "strategy.next_packet_ns.aggregate",
            Some(strategy_per_item(effort, StrategyKind::Aggregate)),
        ),
        (
            "strategy.next_packet_ns.fifo",
            Some(strategy_per_item(effort, StrategyKind::Fifo)),
        ),
        ("core.rel_tx_amplification.lossless", rel_lossless),
        ("core.rel_tx_amplification.lossy", rel_lossy),
        (
            "progress.engine_poll_overhead_ns",
            Some(engine_poll_overhead(effort)),
        ),
        (
            "mpi.facade_overhead_ns",
            Some(facade_overhead(effort, seed)),
        ),
        (
            "metrics.hist_record_ns",
            Some(ns_per_call(calls, |i| {
                black_box(&hist).record(i & 0xFFFF);
            })),
        ),
    ]
}
