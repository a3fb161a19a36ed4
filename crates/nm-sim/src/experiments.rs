//! Deterministic models of the paper's experiments, one per figure.
//!
//! Each function builds a [`Vm`], spawns the experiment's threads (nodes,
//! progression threads, tasklet runners), runs it, and returns one
//! [`Series`] per curve of the figure. The models mirror the *lock
//! sequence* of the real `nm-core` implementation:
//!
//! * **send path** — coarse: one global-lock cycle per `isend` call;
//!   fine: one collect-lock cycle (submit) + one driver-lock cycle
//!   (transmit); no-locking: none.
//! * **poll pass** — coarse: one global-lock cycle; fine: one driver-lock
//!   cycle, plus a collect-lock cycle on successful dispatch.
//!
//! Latencies are reported as the paper plots them: half the measured
//! round-trip time, in microseconds.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use nm_fabric::WireModel;
use nm_topo::{Distance, Topology};

use crate::{ChanId, EventId, LockId, SimCosts, ThreadCtx, Vm};

/// Message sizes of Figs 3, 5, 6 and 7: 1 B – 2 KB, powers of two.
pub fn small_sizes() -> Vec<usize> {
    (0..=11).map(|p| 1usize << p).collect()
}

/// Message sizes of Fig 9: 2 KB – 32 KB.
pub fn fig9_sizes() -> Vec<usize> {
    (11..=15).map(|p| 1usize << p).collect()
}

/// One curve of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's).
    pub label: String,
    /// `(message size in bytes, one-way latency in µs)` points.
    pub points: Vec<(usize, f64)>,
}

/// The locking modes as the sim models them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Fig 3 "no locking".
    NoLock,
    /// Fig 2/3 coarse grain.
    Coarse,
    /// Fig 4/3 fine grain.
    Fine,
}

impl Mode {
    /// Paper legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::NoLock => "no locking",
            Mode::Coarse => "coarse-grain locking",
            Mode::Fine => "fine-grain locking",
        }
    }
}

/// The per-node locks of the model.
#[derive(Clone, Copy)]
struct NodeLocks {
    global: LockId,
    collect: LockId,
    driver: LockId,
}

fn node_locks(vm: &mut Vm) -> NodeLocks {
    NodeLocks {
        global: vm.lock(),
        collect: vm.lock(),
        driver: vm.lock(),
    }
}

/// Models one `isend` (submit + transmit) under `mode`.
fn model_isend(ctx: &mut ThreadCtx, mode: Mode, locks: NodeLocks, chan: ChanId, size: usize) {
    let c = *ctx.costs();
    let half = c.submit_ns / 2;
    match mode {
        Mode::NoLock => {
            ctx.advance(c.submit_ns);
            ctx.chan_send(chan, size);
        }
        Mode::Coarse => {
            // The paper's coarse send path takes the library-wide lock
            // twice: "once for submitting the message to the collect
            // layer, once to transmit it through the network" — the
            // 2 x 70 ns = 140 ns of Fig 3.
            ctx.lock(locks.global);
            ctx.advance(half);
            ctx.unlock(locks.global);
            ctx.lock(locks.global);
            ctx.advance(c.submit_ns - half);
            ctx.chan_send(chan, size);
            ctx.unlock(locks.global);
        }
        Mode::Fine => {
            // Submit to the collect layer, then transmit via the driver.
            ctx.lock(locks.collect);
            ctx.advance(half);
            ctx.unlock(locks.collect);
            ctx.lock(locks.driver);
            ctx.advance(c.submit_ns - half);
            ctx.chan_send(chan, size);
            ctx.unlock(locks.driver);
        }
    }
}

/// One empty poll pass's cost (the waiting loop's period) for `mode`.
///
/// The application's own wait in coarse mode holds the library lock, so
/// its passes are bare polls; fine mode pays the driver lock every pass.
fn pass_period(c: &SimCosts, mode: Mode, via_pioman: bool, held: bool) -> u64 {
    let lockwork = match mode {
        Mode::NoLock => 0,
        Mode::Coarse if held => 0,
        Mode::Coarse => c.lock_cycle_ns,
        Mode::Fine => c.lock_cycle_ns,
    };
    let pioman = if via_pioman { c.pioman_pass_ns / 4 } else { 0 };
    (c.poll_pass_ns + lockwork + pioman).max(1)
}

/// Blocks until the next packet lands, then aligns to the poll-pass grid:
/// a busy poller would have discovered the packet on its next pass
/// boundary after delivery. O(1) in simulator events.
fn recv_aligned(ctx: &mut ThreadCtx, chan: ChanId, period: u64) -> usize {
    let start = ctx.now();
    let size = ctx.chan_recv_wait(chan);
    let elapsed = ctx.now() - start;
    let target = (elapsed.div_ceil(period)).max(1) * period;
    ctx.advance(target - elapsed);
    size
}

/// Charges the successful detection pass (decode + dispatch) costs.
fn charge_detection(
    ctx: &mut ThreadCtx,
    mode: Mode,
    locks: NodeLocks,
    via_pioman: bool,
    held: bool,
) {
    let c = *ctx.costs();
    match mode {
        Mode::NoLock => ctx.advance(c.poll_pass_ns),
        Mode::Coarse if held => ctx.advance(c.poll_pass_ns),
        Mode::Coarse => ctx.with_lock(locks.global, c.poll_pass_ns),
        Mode::Fine => {
            // Driver poll, then dispatch against the collect-layer lists.
            ctx.with_lock(locks.driver, c.poll_pass_ns);
            ctx.with_lock(locks.collect, c.poll_pass_ns);
        }
    }
    if via_pioman {
        // Completion travels through the engine's request lists (Fig 6's
        // "management of PIOMan internal lists as well as locking").
        ctx.advance(c.pioman_pass_ns);
    }
}

/// Models the application's own busy wait (`MPI_Wait` with active
/// waiting). In coarse mode the library-wide lock is held across the
/// whole wait — the wait loop runs *inside* the library (Fig 2), which is
/// exactly why two concurrent pingpongs serialize in Fig 5. Background
/// agents must use [`model_agent_recv`] instead.
fn model_recv_busy(
    ctx: &mut ThreadCtx,
    mode: Mode,
    locks: NodeLocks,
    chan: ChanId,
    via_pioman: bool,
) -> usize {
    let c = *ctx.costs();
    if mode == Mode::Coarse {
        ctx.lock(locks.global);
    }
    let period = pass_period(&c, mode, via_pioman, true);
    let size = recv_aligned(ctx, chan, period);
    charge_detection(ctx, mode, locks, via_pioman, true);
    if mode == Mode::Coarse {
        ctx.unlock(locks.global);
    }
    size
}

/// A background agent's receive loop: per-pass locking (never holds the
/// coarse lock across the wait, unlike an application's own busy wait).
fn model_agent_recv(
    ctx: &mut ThreadCtx,
    mode: Mode,
    locks: NodeLocks,
    chan: ChanId,
    via_pioman: bool,
) -> usize {
    let c = *ctx.costs();
    let period = pass_period(&c, mode, via_pioman, false);
    let size = recv_aligned(ctx, chan, period);
    charge_detection(ctx, mode, locks, via_pioman, false);
    size
}

const WARMUP: usize = 8;
const ITERS: usize = 48;

/// Result collector shared between sim threads and the harness.
type Samples = Arc<Mutex<Vec<f64>>>;

fn mean_us(samples: &Samples) -> f64 {
    let s = samples.lock();
    s.iter().sum::<f64>() / s.len() as f64
}

/// One pingpong (Figs 3 and 6): returns the mean one-way latency (µs).
fn pingpong_once(costs: SimCosts, mode: Mode, size: usize, via_pioman: bool) -> f64 {
    let mut vm = Vm::new(costs, Topology::xeon_x5460());
    let locks_a = node_locks(&mut vm);
    let locks_b = node_locks(&mut vm);
    let ab = vm.chan(WireModel::myri_10g());
    let ba = vm.chan(WireModel::myri_10g());
    let samples: Samples = Arc::new(Mutex::new(Vec::new()));

    let s2 = Arc::clone(&samples);
    vm.spawn(0, move |ctx| {
        for i in 0..WARMUP + ITERS {
            let t0 = ctx.now();
            ctx.advance(1); // loop overhead: the gap between library calls
            model_isend(ctx, mode, locks_a, ab, size);
            model_recv_busy(ctx, mode, locks_a, ba, via_pioman);
            if i >= WARMUP {
                s2.lock().push((ctx.now() - t0) as f64 / 2_000.0);
            }
        }
    });
    vm.spawn(1, move |ctx| {
        for _ in 0..WARMUP + ITERS {
            ctx.advance(1);
            let got = model_recv_busy(ctx, mode, locks_b, ab, via_pioman);
            model_isend(ctx, mode, locks_b, ba, got);
        }
    });
    vm.run();
    mean_us(&samples)
}

/// **Fig 3** — impact of locking on latency: pingpong under the three
/// locking modes.
pub fn fig3_locking_latency(costs: SimCosts, sizes: &[usize]) -> Vec<Series> {
    [Mode::Coarse, Mode::Fine, Mode::NoLock]
        .iter()
        .map(|&mode| Series {
            label: mode.label().to_string(),
            points: sizes
                .iter()
                .map(|&s| (s, pingpong_once(costs, mode, s, false)))
                .collect(),
        })
        .collect()
}

/// Two concurrent pingpongs (Fig 5): returns the two threads' mean
/// one-way latencies.
fn concurrent_pingpong_once(costs: SimCosts, mode: Mode, size: usize) -> [f64; 2] {
    let mut vm = Vm::new(costs, Topology::xeon_x5460());
    let locks_a = node_locks(&mut vm);
    let locks_b = node_locks(&mut vm);
    // Two independent pingpong flows; each direction's two logical
    // channels share one physical NIC wire (Fig 5's "more intensive use
    // of the NIC").
    let ab0 = vm.chan(WireModel::myri_10g());
    let ab1 = vm.chan_sharing_wire(WireModel::myri_10g(), ab0);
    let ba0 = vm.chan(WireModel::myri_10g());
    let ba1 = vm.chan_sharing_wire(WireModel::myri_10g(), ba0);
    let flows = [(ab0, ba0), (ab1, ba1)];

    let mut per_thread = Vec::new();
    for (t, &(ab, ba)) in flows.iter().enumerate() {
        let samples: Samples = Arc::new(Mutex::new(Vec::new()));
        per_thread.push(Arc::clone(&samples));
        vm.spawn(t, move |ctx| {
            for i in 0..WARMUP + ITERS {
                let t0 = ctx.now();
                ctx.advance(1); // loop overhead: the gap between library calls
                model_isend(ctx, mode, locks_a, ab, size);
                model_recv_busy(ctx, mode, locks_a, ba, false);
                if i >= WARMUP {
                    samples.lock().push((ctx.now() - t0) as f64 / 2_000.0);
                }
            }
        });
    }
    for (t, &(ab, ba)) in flows.iter().enumerate() {
        vm.spawn(2 + t, move |ctx| {
            for _ in 0..WARMUP + ITERS {
                ctx.advance(1);
                let got = model_recv_busy(ctx, mode, locks_b, ab, false);
                model_isend(ctx, mode, locks_b, ba, got);
            }
        });
    }
    vm.run();
    [mean_us(&per_thread[0]), mean_us(&per_thread[1])]
}

/// **Fig 5** — two threads perform pingpongs concurrently, coarse vs fine,
/// against the single-thread reference.
pub fn fig5_concurrent_pingpong(costs: SimCosts, sizes: &[usize]) -> Vec<Series> {
    let mut series = vec![Series {
        label: "1 thread".into(),
        points: sizes
            .iter()
            .map(|&s| (s, pingpong_once(costs, Mode::Fine, s, false)))
            .collect(),
    }];
    for mode in [Mode::Fine, Mode::Coarse] {
        let results: Vec<(usize, [f64; 2])> = sizes
            .iter()
            .map(|&s| (s, concurrent_pingpong_once(costs, mode, s)))
            .collect();
        for t in 0..2 {
            series.push(Series {
                label: format!("{} (thread {})", mode.label(), t + 1),
                points: results.iter().map(|&(s, r)| (s, r[t])).collect(),
            });
        }
    }
    series
}

/// **Fig 6** — impact of PIOMan on latency: polling through the engine
/// registry vs direct polling, both locking modes.
pub fn fig6_pioman_overhead(costs: SimCosts, sizes: &[usize]) -> Vec<Series> {
    let mut series = Vec::new();
    for (via, tag) in [(true, "PIOMan "), (false, "")] {
        for mode in [Mode::Coarse, Mode::Fine] {
            series.push(Series {
                label: format!("{tag}{}", mode.label()),
                points: sizes
                    .iter()
                    .map(|&s| (s, pingpong_once(costs, mode, s, via)))
                    .collect(),
            });
        }
    }
    series
}

/// Waiting strategies of Fig 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitKind {
    /// Busy waiting (the app polls).
    Active,
    /// Semaphore blocking (a progression agent polls and signals).
    Passive,
    /// Fixed spin: poll for the window, then block.
    FixedSpin(u64),
}

impl WaitKind {
    fn label(&self) -> String {
        match self {
            WaitKind::Active => "active waiting".into(),
            WaitKind::Passive => "passive waiting".into(),
            WaitKind::FixedSpin(ns) => format!("fixed spin {} µs", ns / 1000),
        }
    }
}

/// Pingpong with an explicit waiting strategy (Fig 7): per-node
/// progression agents poll and signal; the app blocks, spins, or both.
fn waiting_pingpong_once(costs: SimCosts, mode: Mode, size: usize, wait: WaitKind) -> f64 {
    if wait == WaitKind::Active {
        return pingpong_once(costs, mode, size, false);
    }
    let mut vm = Vm::new(costs, Topology::xeon_x5460());
    let locks_a = node_locks(&mut vm);
    let locks_b = node_locks(&mut vm);
    let ab = vm.chan(WireModel::myri_10g());
    let ba = vm.chan(WireModel::myri_10g());
    let (ev_a, ev_b) = (vm.event(), vm.event());
    let samples: Samples = Arc::new(Mutex::new(Vec::new()));

    let wait_on = move |ctx: &mut ThreadCtx, ev: EventId| match wait {
        WaitKind::Active => unreachable!(),
        WaitKind::Passive => ctx.event_wait_blocking(ev),
        WaitKind::FixedSpin(window) => {
            let pass = ctx.costs().poll_pass_ns;
            ctx.event_fixed_spin_wait(ev, window, pass)
        }
    };

    // Node A application (core 0) + progression agent (same core 0: the
    // scheduler polls on the blocked thread's own CPU, as in §3.3).
    let s2 = Arc::clone(&samples);
    vm.spawn(0, move |ctx| {
        for i in 0..WARMUP + ITERS {
            let t0 = ctx.now();
            model_isend(ctx, mode, locks_a, ab, size);
            wait_on(ctx, ev_a);
            ctx.event_reset(ev_a);
            if i >= WARMUP {
                s2.lock().push((ctx.now() - t0) as f64 / 2_000.0);
            }
        }
    });
    vm.spawn(0, move |ctx| {
        for _ in 0..WARMUP + ITERS {
            model_agent_recv(ctx, mode, locks_a, ba, false);
            ctx.event_signal(ev_a);
        }
    });
    // Node B: application blocks, agent polls, app echoes.
    vm.spawn(0, move |ctx| {
        for _ in 0..WARMUP + ITERS {
            wait_on(ctx, ev_b);
            ctx.event_reset(ev_b);
            model_isend(ctx, mode, locks_b, ba, size);
        }
    });
    vm.spawn(0, move |ctx| {
        for _ in 0..WARMUP + ITERS {
            model_agent_recv(ctx, mode, locks_b, ab, false);
            ctx.event_signal(ev_b);
        }
    });
    vm.run();
    mean_us(&samples)
}

/// **Fig 7** — impact of semaphores on latency: passive vs active waiting
/// under both locking modes.
pub fn fig7_waiting_strategies(costs: SimCosts, sizes: &[usize]) -> Vec<Series> {
    let mut series = Vec::new();
    for wait in [WaitKind::Passive, WaitKind::Active] {
        for mode in [Mode::Coarse, Mode::Fine] {
            series.push(Series {
                label: format!("{} ({})", wait.label(), mode.label()),
                points: sizes
                    .iter()
                    .map(|&s| (s, waiting_pingpong_once(costs, mode, s, wait)))
                    .collect(),
            });
        }
    }
    series
}

/// Extension of Fig 7: sweep the fixed-spin window (ablation of the 5 µs
/// suggestion).
pub fn fig7_fixed_spin_sweep(costs: SimCosts, size: usize, windows_ns: &[u64]) -> Series {
    Series {
        label: format!("fixed-spin sweep at {size} B"),
        points: windows_ns
            .iter()
            .map(|&w| {
                (
                    w as usize,
                    waiting_pingpong_once(costs, Mode::Fine, size, WaitKind::FixedSpin(w)),
                )
            })
            .collect(),
    }
}

/// Pingpong with polling deferred to `poll_core` (Fig 8). The application
/// thread is bound to core 0; a progression thread on `poll_core` polls
/// the NIC and the app spins on the completion flag, paying the
/// cache-distance penalty.
fn affinity_pingpong_once(costs: SimCosts, topo: &Topology, size: usize, poll_core: usize) -> f64 {
    if poll_core == 0 {
        // Polling on the application's own core = the app polls directly.
        return pingpong_once(costs, Mode::Fine, size, false);
    }
    let mut vm = Vm::new(costs, topo.clone());
    let locks_a = node_locks(&mut vm);
    let locks_b = node_locks(&mut vm);
    let ab = vm.chan(WireModel::myri_10g());
    let ba = vm.chan(WireModel::myri_10g());
    let (ev_a, ev_b) = (vm.event(), vm.event());
    let samples: Samples = Arc::new(Mutex::new(Vec::new()));

    // Both nodes run the same configuration (the paper deploys the same
    // build on both ends): app on core 0, poller on `poll_core`.
    let s2 = Arc::clone(&samples);
    vm.spawn(0, move |ctx| {
        let pass = ctx.costs().poll_pass_ns;
        for i in 0..WARMUP + ITERS {
            let t0 = ctx.now();
            model_isend(ctx, Mode::Fine, locks_a, ab, size);
            // Spin on the completion flag the poller will set: no context
            // switch, but the flag and payload live in the poller's cache.
            ctx.event_busy_wait(ev_a, pass);
            ctx.event_reset(ev_a);
            if i >= WARMUP {
                s2.lock().push((ctx.now() - t0) as f64 / 2_000.0);
            }
        }
    });
    vm.spawn(poll_core, move |ctx| {
        for _ in 0..WARMUP + ITERS {
            model_agent_recv(ctx, Mode::Fine, locks_a, ba, false);
            ctx.event_signal(ev_a);
        }
    });
    // Node B: echo with the same deferred-polling placement.
    vm.spawn(0, move |ctx| {
        let pass = ctx.costs().poll_pass_ns;
        for _ in 0..WARMUP + ITERS {
            ctx.event_busy_wait(ev_b, pass);
            ctx.event_reset(ev_b);
            model_isend(ctx, Mode::Fine, locks_b, ba, size);
        }
    });
    vm.spawn(poll_core, move |ctx| {
        for _ in 0..WARMUP + ITERS {
            model_agent_recv(ctx, Mode::Fine, locks_b, ab, false);
            ctx.event_signal(ev_b);
        }
    });
    vm.run();
    mean_us(&samples)
}

/// **Fig 8** — impact of cache affinity: polling placed on each distance
/// class of `topo` relative to the application's core 0.
pub fn fig8_cache_affinity(costs: SimCosts, topo: &Topology, sizes: &[usize]) -> Vec<Series> {
    topo.representative_cores(0)
        .into_iter()
        .map(|(dist, core)| Series {
            label: format!(
                "polling on cpu {core} ({})",
                match dist {
                    Distance::SameCore => "same core",
                    Distance::SharedCache => "shared cache",
                    Distance::SamePackage => "no shared cache",
                    Distance::CrossPackage => "other chip",
                }
            ),
            points: sizes
                .iter()
                .map(|&s| (s, affinity_pingpong_once(costs, topo, s, core)))
                .collect(),
        })
        .collect()
}

/// The offload modes of Fig 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadKind {
    /// Inline submission (the reference curve).
    Reference,
    /// Deferred to an idle core, no tasklet.
    IdleCore,
    /// Deferred via a tasklet.
    Tasklet,
}

impl OffloadKind {
    fn label(&self) -> &'static str {
        match self {
            OffloadKind::Reference => "Reference",
            OffloadKind::IdleCore => "Offloading without tasklets",
            OffloadKind::Tasklet => "Offloading using tasklets",
        }
    }
}

/// Overlap pingpong of Fig 9: non-blocking send, 10 µs of computation,
/// then wait — with the submission executed inline, by an idle core, or
/// by a tasklet.
fn offload_pingpong_once(costs: SimCosts, size: usize, kind: OffloadKind) -> f64 {
    const COMPUTE_NS: u64 = 10_000;
    let mut vm = Vm::new(costs, Topology::xeon_x5460());
    let locks_a = node_locks(&mut vm);
    let locks_b = node_locks(&mut vm);
    let ab = vm.chan(WireModel::myri_10g());
    let ba = vm.chan(WireModel::myri_10g());
    let work = vm.event();
    let work_b_ev = vm.event();
    let samples: Samples = Arc::new(Mutex::new(Vec::new()));

    let s2 = Arc::clone(&samples);
    vm.spawn(0, move |ctx| {
        for i in 0..WARMUP + ITERS {
            let t0 = ctx.now();
            match kind {
                OffloadKind::Reference => model_isend(ctx, Mode::Fine, locks_a, ab, size),
                OffloadKind::IdleCore | OffloadKind::Tasklet => {
                    // Enqueue the submission and let core 1 pick it up.
                    let c = ctx.costs().enqueue_ns;
                    ctx.advance(c);
                    ctx.event_signal(work);
                }
            }
            ctx.advance(COMPUTE_NS); // overlapped computation
            model_recv_busy(ctx, Mode::Fine, locks_a, ba, false);
            if i >= WARMUP {
                s2.lock().push((ctx.now() - t0) as f64 / 2_000.0);
            }
        }
    });
    if kind != OffloadKind::Reference {
        vm.spawn(1, move |ctx| {
            let gap = ctx.costs().idle_poll_gap_ns;
            for _ in 0..WARMUP + ITERS {
                // The idle core discovers the deferred submission on its
                // next pass...
                ctx.event_busy_wait(work, gap);
                ctx.event_reset(work);
                if kind == OffloadKind::Tasklet {
                    // ...and the tasklet machinery adds its state machine,
                    // pending list and wakeup costs.
                    let t = ctx.costs().tasklet_schedule_ns;
                    ctx.advance(t);
                    let sw = ctx.costs().ctx_switch_ns;
                    ctx.advance(sw);
                }
                model_isend(ctx, Mode::Fine, locks_a, ab, size);
            }
        });
    }
    // Node B mirrors A: the echo's submission takes the same path.
    let work_b = work_b_ev;
    vm.spawn(0, move |ctx| {
        for _ in 0..WARMUP + ITERS {
            let got = model_recv_busy(ctx, Mode::Fine, locks_b, ab, false);
            match kind {
                OffloadKind::Reference => model_isend(ctx, Mode::Fine, locks_b, ba, got),
                OffloadKind::IdleCore | OffloadKind::Tasklet => {
                    let c = ctx.costs().enqueue_ns;
                    ctx.advance(c);
                    ctx.event_signal(work_b);
                }
            }
        }
    });
    if kind != OffloadKind::Reference {
        vm.spawn(1, move |ctx| {
            let gap = ctx.costs().idle_poll_gap_ns;
            for _ in 0..WARMUP + ITERS {
                ctx.event_busy_wait(work_b, gap);
                ctx.event_reset(work_b);
                if kind == OffloadKind::Tasklet {
                    let t = ctx.costs().tasklet_schedule_ns;
                    ctx.advance(t);
                    let sw = ctx.costs().ctx_switch_ns;
                    ctx.advance(sw);
                }
                model_isend(ctx, Mode::Fine, locks_b, ba, size);
            }
        });
    }
    vm.run();
    mean_us(&samples)
}

/// **Fig 9** — impact of tasklets on deferred message submission.
pub fn fig9_offload_tasklets(costs: SimCosts, sizes: &[usize]) -> Vec<Series> {
    [
        OffloadKind::IdleCore,
        OffloadKind::Tasklet,
        OffloadKind::Reference,
    ]
    .iter()
    .map(|&kind| Series {
        label: kind.label().to_string(),
        points: sizes
            .iter()
            .map(|&s| (s, offload_pingpong_once(costs, s, kind)))
            .collect(),
    })
    .collect()
}

/// §4.1's claim: idle cores can manage rendezvous handshakes in the
/// background, overlapping the transfer of large messages with
/// computation.
///
/// The application posts a rendezvous send (RTS only), computes for
/// `compute_ns`, then waits. Without background progression the CTS sits
/// unhandled until the wait begins, serializing compute and transfer;
/// with a progression agent on another core the data flows during the
/// compute phase.
fn rdv_overlap_once(costs: SimCosts, size: usize, with_progression: bool) -> f64 {
    const COMPUTE_NS: u64 = 30_000;
    let chunk = 16 * 1024;
    let mut vm = Vm::new(costs, Topology::xeon_x5460());
    let locks_a = node_locks(&mut vm);
    let locks_b = node_locks(&mut vm);
    let ab = vm.chan(WireModel::myri_10g());
    let ba = vm.chan(WireModel::myri_10g());
    let work = vm.event();
    let samples: Samples = Arc::new(Mutex::new(Vec::new()));

    // Node A application: RTS, compute, then wait for B's ACK that the
    // whole message landed. Iterations do not pipeline: the ACK closes
    // each one, so the sample is the true makespan of compute + transfer.
    let s2 = Arc::clone(&samples);
    vm.spawn(0, move |ctx| {
        for i in 0..WARMUP + ITERS {
            let t0 = ctx.now();
            // Post the RTS (a small control message).
            model_isend(ctx, Mode::Fine, locks_a, ab, 0);
            if with_progression {
                ctx.event_signal(work);
            }
            ctx.advance(COMPUTE_NS);
            if !with_progression {
                // No idle core: the application handles the CTS only now,
                // serializing the transfer behind the compute.
                model_recv_busy(ctx, Mode::Fine, locks_a, ba, false); // CTS
                let mut sent = 0;
                while sent < size {
                    let n = chunk.min(size - sent);
                    model_isend(ctx, Mode::Fine, locks_a, ab, n);
                    sent += n;
                }
            }
            // B's ACK (size 0) confirms full delivery.
            model_recv_busy(ctx, Mode::Fine, locks_a, ba, false);
            if i >= WARMUP {
                s2.lock().push((ctx.now() - t0) as f64 / 1_000.0);
            }
        }
    });
    if with_progression {
        // The idle core: handles the CTS and drives the data transfer
        // while the application computes.
        vm.spawn(1, move |ctx| {
            let gap = ctx.costs().idle_poll_gap_ns;
            for _ in 0..WARMUP + ITERS {
                ctx.event_busy_wait(work, gap);
                ctx.event_reset(work);
                model_agent_recv(ctx, Mode::Fine, locks_a, ba, false); // CTS
                let mut sent = 0;
                while sent < size {
                    let n = chunk.min(size - sent);
                    model_isend(ctx, Mode::Fine, locks_a, ab, n);
                    sent += n;
                }
            }
        });
    }
    // Node B: replies CTS to each RTS, absorbs the data, then ACKs.
    vm.spawn(0, move |ctx| {
        for _ in 0..WARMUP + ITERS {
            model_recv_busy(ctx, Mode::Fine, locks_b, ab, false); // RTS
            model_isend(ctx, Mode::Fine, locks_b, ba, 0); // CTS
            let mut got = 0;
            while got < size {
                got += model_recv_busy(ctx, Mode::Fine, locks_b, ab, false);
            }
            model_isend(ctx, Mode::Fine, locks_b, ba, 0); // ACK
        }
    });
    vm.run();
    mean_us(&samples)
}

/// §4.1 — rendezvous overlap: total time of (RTS + 30 µs compute + wait)
/// for large messages, with and without an idle core progressing the
/// handshake in the background.
pub fn rdv_overlap(costs: SimCosts, sizes: &[usize]) -> Vec<Series> {
    [
        (false, "application-driven"),
        (true, "idle-core progression"),
    ]
    .iter()
    .map(|&(with, label)| Series {
        label: label.to_string(),
        points: sizes
            .iter()
            .map(|&s| (s, rdv_overlap_once(costs, s, with)))
            .collect(),
    })
    .collect()
}

/// Streaming bandwidth (the paper's §3.1 claim that locking overhead
/// "does not impact bandwidth"): the sender pushes `count` back-to-back
/// messages; achieved bandwidth is bytes over the time the last one
/// lands.
fn bandwidth_once(costs: SimCosts, mode: Mode, size: usize, count: usize) -> f64 {
    let mut vm = Vm::new(costs, Topology::xeon_x5460());
    let locks_a = node_locks(&mut vm);
    let locks_b = node_locks(&mut vm);
    let ab = vm.chan(WireModel::myri_10g());
    let done_at = Arc::new(Mutex::new(0u64));

    vm.spawn(0, move |ctx| {
        for _ in 0..count {
            model_isend(ctx, mode, locks_a, ab, size);
        }
    });
    let d2 = Arc::clone(&done_at);
    vm.spawn(1, move |ctx| {
        for _ in 0..count {
            model_recv_busy(ctx, mode, locks_b, ab, false);
        }
        *d2.lock() = ctx.now();
    });
    vm.run();
    let elapsed_ns = *done_at.lock();
    (count * size) as f64 / (elapsed_ns as f64 / 1e9) / 1e6 // MB/s
}

/// Bandwidth vs message size per locking mode (MB/s on the y axis).
///
/// At large sizes the wire dominates and all three modes converge — the
/// constant lock overheads vanish into the transmission time, exactly as
/// the paper observes.
pub fn bandwidth_by_mode(costs: SimCosts, sizes: &[usize]) -> Vec<Series> {
    [Mode::NoLock, Mode::Coarse, Mode::Fine]
        .iter()
        .map(|&mode| Series {
            label: mode.label().to_string(),
            points: sizes
                .iter()
                .map(|&s| (s, bandwidth_once(costs, mode, s, 64)))
                .collect(),
        })
        .collect()
}

/// Collect-lock layouts compared by the message-rate experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectLayout {
    /// The pre-sharding stack: one collect lock per node with every
    /// gate's tx and rx lists behind it, matched by linear scans whose
    /// length grows with the number of in-flight flows.
    Global,
    /// Per-gate collect locks with hashed O(1) matching bins: a flow
    /// only ever touches (and scans) its own gate's state.
    PerGate,
}

impl CollectLayout {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            CollectLayout::Global => "global collect lock",
            CollectLayout::PerGate => "per-gate collect locks",
        }
    }
}

/// The per-flow locks and wire of the message-rate model. `collect_*`
/// may alias one node-wide lock ([`CollectLayout::Global`]); the driver
/// locks are per-gate in both layouts (drivers were already sharded).
#[derive(Clone, Copy)]
struct FlowLocks {
    collect_a: LockId,
    driver_a: LockId,
    collect_b: LockId,
    driver_b: LockId,
    chan: ChanId,
}

const RATE_MSGS: usize = 256;
const RATE_SIZE: usize = 8;

/// Aggregate small-message rate (million messages/s) of `n_flows`
/// concurrent single-gate streams, node A → node B, fine-grain locking.
///
/// Each sender thread drives its own gate back-to-back; each receiver
/// thread drains its gate. Under [`CollectLayout::Global`] every
/// submission and every dispatch serializes on the node-wide collect
/// lock *and* pays a matching scan over all `n_flows` in-flight lists;
/// under [`CollectLayout::PerGate`] the flows touch disjoint locks and
/// O(1) bins, so the only shared resource left is the wire.
fn msgrate_once(costs: SimCosts, n_flows: usize, layout: CollectLayout) -> f64 {
    let topo = Topology::dual_xeon_x5460();
    let cores = topo.num_cores();
    let mut vm = Vm::new(costs, topo);
    // Node-wide collect locks for the Global layout.
    let node_a = vm.lock();
    let node_b = vm.lock();
    let flows: Vec<FlowLocks> = (0..n_flows)
        .map(|_| {
            let (collect_a, collect_b) = match layout {
                CollectLayout::Global => (node_a, node_b),
                CollectLayout::PerGate => (vm.lock(), vm.lock()),
            };
            FlowLocks {
                collect_a,
                driver_a: vm.lock(),
                collect_b,
                driver_b: vm.lock(),
                chan: vm.chan(WireModel::myri_10g()),
            }
        })
        .collect();
    // Entries a matching scan walks: the shared lists hold every flow's
    // in-flight state; a per-gate bin holds only its own.
    let scan = match layout {
        CollectLayout::Global => n_flows as u64,
        CollectLayout::PerGate => 1,
    };
    let finished_at = Arc::new(Mutex::new(0u64));

    for (i, &f) in flows.iter().enumerate() {
        // Sender: submit to the collect layer (lock + scan), transmit
        // via the gate's driver — the fine-grain send path of Fig 4.
        vm.spawn(i % cores, move |ctx| {
            let c = *ctx.costs();
            let half = c.submit_ns / 2;
            for _ in 0..RATE_MSGS {
                ctx.advance(1); // loop overhead between library calls
                ctx.lock(f.collect_a);
                ctx.advance(half + scan * c.match_scan_ns);
                ctx.unlock(f.collect_a);
                ctx.lock(f.driver_a);
                ctx.advance(c.submit_ns - half);
                ctx.chan_send(f.chan, RATE_SIZE);
                ctx.unlock(f.driver_a);
            }
        });
        // Receiver: driver poll, then dispatch against the collect-layer
        // lists (lock + scan) — the fine-grain detection path.
        let done = Arc::clone(&finished_at);
        vm.spawn((i + n_flows) % cores, move |ctx| {
            let c = *ctx.costs();
            let period = pass_period(&c, Mode::Fine, false, false);
            for _ in 0..RATE_MSGS {
                recv_aligned(ctx, f.chan, period);
                ctx.with_lock(f.driver_b, c.poll_pass_ns);
                ctx.with_lock(f.collect_b, c.poll_pass_ns + scan * c.match_scan_ns);
            }
            let mut d = done.lock();
            *d = (*d).max(ctx.now());
        });
    }
    vm.run();
    let elapsed_ns = *finished_at.lock();
    (n_flows * RATE_MSGS) as f64 / elapsed_ns as f64 * 1e3 // Mmsg/s
}

/// Message-rate scaling: aggregate rate vs number of concurrent flows,
/// per-gate collect locks against the seed's single collect lock. The
/// multi-endpoint analogue of Fig 5 — instead of latency under two
/// threads, throughput as threads-driving-their-own-gates scale up.
pub fn msgrate_scaling(costs: SimCosts, flows: &[usize]) -> Vec<Series> {
    [CollectLayout::PerGate, CollectLayout::Global]
        .iter()
        .map(|&layout| Series {
            label: layout.label().to_string(),
            points: flows
                .iter()
                .map(|&n| (n, msgrate_once(costs, n, layout)))
                .collect(),
        })
        .collect()
}

/// The locks of one flow in the VCI message-rate model: per-gate
/// collect bins (always sharded here — the collect layer was fixed by
/// the experiment above) plus the driver locks of the VCI context the
/// flow is pinned to, which alias across flows sharing a context.
#[derive(Clone, Copy)]
struct VciFlowLocks {
    collect_a: LockId,
    collect_b: LockId,
    /// Tx-ring lock of the flow's VCI context (shared by its sharers).
    driver_a: LockId,
    /// Completion-ring lock of the same context on the receive side.
    driver_b: LockId,
    chan: ChanId,
    /// Flows multiplexed onto this context (1 when `n_vcis >= n_flows`).
    sharers: u64,
}

/// Aggregate small-message rate of `n_flows` concurrent streams when
/// the NIC exposes `n_vcis` independent VCI contexts, fine-grain
/// locking with per-gate collect bins throughout.
///
/// Flow `i` is pinned to context `i % n_vcis`. Flows sharing a context
/// serialize on its tx-ring lock, and — the dominant cost, and Zambre
/// et al.'s case for dedicated communication contexts — on its shared
/// completion queue: every receive-side poll walks the completions of
/// all flows multiplexed onto the context (`poll_pass + (sharers-1) ·
/// match_scan` under the context's driver lock). With `n_vcis >=
/// n_flows` each flow owns its context outright and the transfer layer
/// adds no shared lock at all, so `msgrate_vci_once(c, 1, 1)` is
/// bit-identical to `msgrate_once(c, 1, PerGate)`.
fn msgrate_vci_once(costs: SimCosts, n_flows: usize, n_vcis: usize) -> f64 {
    let topo = Topology::dual_xeon_x5460();
    let cores = topo.num_cores();
    let mut vm = Vm::new(costs, topo);
    // One (tx-ring, completion-ring) lock pair per VCI context.
    let contexts: Vec<(LockId, LockId)> = (0..n_vcis).map(|_| (vm.lock(), vm.lock())).collect();
    let flows: Vec<VciFlowLocks> = (0..n_flows)
        .map(|i| {
            let v = i % n_vcis;
            VciFlowLocks {
                collect_a: vm.lock(),
                collect_b: vm.lock(),
                driver_a: contexts[v].0,
                driver_b: contexts[v].1,
                chan: vm.chan(WireModel::myri_10g()),
                sharers: ((n_flows - 1 - v) / n_vcis + 1) as u64,
            }
        })
        .collect();
    let finished_at = Arc::new(Mutex::new(0u64));

    for (i, &f) in flows.iter().enumerate() {
        // Sender: per-gate collect bin (O(1) scan), then the context's
        // tx ring — shared with the flow's sharers when VCIs are scarce.
        vm.spawn(i % cores, move |ctx| {
            let c = *ctx.costs();
            let half = c.submit_ns / 2;
            for _ in 0..RATE_MSGS {
                ctx.advance(1); // loop overhead between library calls
                ctx.lock(f.collect_a);
                ctx.advance(half + c.match_scan_ns);
                ctx.unlock(f.collect_a);
                ctx.lock(f.driver_a);
                ctx.advance(c.submit_ns - half);
                ctx.chan_send(f.chan, RATE_SIZE);
                ctx.unlock(f.driver_a);
            }
        });
        // Receiver: poll the context's completion ring (scanning the
        // other sharers' completions too), then dispatch into the
        // flow's own per-gate bin.
        let done = Arc::clone(&finished_at);
        vm.spawn((i + n_flows) % cores, move |ctx| {
            let c = *ctx.costs();
            let period = pass_period(&c, Mode::Fine, false, false);
            for _ in 0..RATE_MSGS {
                recv_aligned(ctx, f.chan, period);
                ctx.with_lock(
                    f.driver_b,
                    c.poll_pass_ns + (f.sharers - 1) * c.match_scan_ns,
                );
                ctx.with_lock(f.collect_b, c.poll_pass_ns + c.match_scan_ns);
            }
            let mut d = done.lock();
            *d = (*d).max(ctx.now());
        });
    }
    vm.run();
    let elapsed_ns = *finished_at.lock();
    (n_flows * RATE_MSGS) as f64 / elapsed_ns as f64 * 1e3 // Mmsg/s
}

/// Message-rate scaling across VCI counts: aggregate rate vs number of
/// concurrent flows, one series per number of NIC contexts. The flows ×
/// VCIs axis of the multi-VCI transfer layer — with one context the
/// seed's shared-driver serialization returns through the back door;
/// with `vcis >= flows` every flow owns its tx/rx rings and scaling is
/// bounded only by cores and the wire.
pub fn msgrate_vci_scaling(costs: SimCosts, flows: &[usize], vcis: &[usize]) -> Vec<Series> {
    vcis.iter()
        .map(|&v| Series {
            label: format!("{v} VCI{}", if v == 1 { "" } else { "s" }),
            points: flows
                .iter()
                .map(|&n| (n, msgrate_vci_once(costs, n, v)))
                .collect(),
        })
        .collect()
}

/// Completion-delivery paths compared by the completion-object
/// experiment (`cq_completion_scaling`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionPath {
    /// Every completion is pushed into one shared completion queue
    /// (one classed-lock cycle per push) and two drainer threads pop
    /// and run the server's per-request work — the `CompletionQueue`
    /// facade: 2 cores multiplex every outstanding request.
    Queue,
    /// Every request has a dedicated busy-wait on its completion flag:
    /// two wait threads each own half the requests and spin them down
    /// in completion order — the classic `wait(Busy)` path.
    WaitThreads,
}

impl CompletionPath {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            CompletionPath::Queue => "completion queue (2 drainers)",
            CompletionPath::WaitThreads => "dedicated wait threads",
        }
    }
}

/// Aggregate completion rate (million completions/s) of `n` outstanding
/// requests completed by one progression context and consumed on two
/// cores, either through a shared completion queue or through
/// per-request busy waits.
///
/// The producer models the receive-side completion pipeline of the fine
/// mode: driver poll, collect-layer dispatch, request-state publication,
/// then delivery — a semaphore release in both paths, plus one
/// completion-queue lock cycle in the [`CompletionPath::Queue`] variant
/// (`core.cq` in the real stack). Consumers pay the producer's
/// cache-line penalty plus the server's per-request work (modelled as
/// two context switches' worth — a request handler, not a no-op), which
/// is what amortizes the queue's shared lock: the drain side is the
/// bottleneck, and both variants drain on exactly two cores. The
/// consumer cores sit at equal cache distance from the producer so the
/// comparison isolates delivery cost — a shared queue additionally
/// load-balances across *unequal* cores, which would flatter it here.
fn completion_drain_once(costs: SimCosts, n: usize, path: CompletionPath) -> f64 {
    let topo = Topology::dual_xeon_x5460();
    let mut vm = Vm::new(costs, topo);
    // Virtual time scales with `n`; keep the runaway guard ahead of it.
    vm.deadline_ns(200_000 + n as u64 * 100_000);
    let driver = vm.lock();
    let collect = vm.lock();
    let handle_ns = 2 * costs.ctx_switch_ns;

    match path {
        CompletionPath::Queue => {
            let cq = vm.lock();
            // Completed-request ids in flight between producer and
            // drainers; mutated only under the simulated `cq` lock (or
            // emptiness-peeked, which is race-free: the machine runs
            // one thread at a time).
            let fifo: Arc<Mutex<(VecDeque<usize>, usize)>> =
                Arc::new(Mutex::new((VecDeque::new(), 0)));
            let q = Arc::clone(&fifo);
            vm.spawn(0, move |ctx| {
                let c = *ctx.costs();
                for i in 0..n {
                    ctx.with_lock(driver, c.poll_pass_ns);
                    ctx.with_lock(collect, c.poll_pass_ns + c.match_scan_ns);
                    ctx.advance(c.enqueue_ns); // publish request state
                    ctx.advance(c.lock_cycle_ns); // doorbell release
                    ctx.lock(cq);
                    q.lock().0.push_back(i);
                    ctx.unlock(cq);
                }
            });
            for core in [2usize, 3] {
                let q = Arc::clone(&fifo);
                vm.spawn(core, move |ctx| {
                    let c = *ctx.costs();
                    loop {
                        // Peek before locking (the real `poll` fails on
                        // the semaphore first): an empty queue must not
                        // hammer the cq lock and starve the producer.
                        if q.lock().0.is_empty() {
                            if q.lock().1 == n {
                                break;
                            }
                            ctx.advance(c.poll_pass_ns);
                            continue;
                        }
                        ctx.lock(cq);
                        let got = {
                            let mut g = q.lock();
                            match g.0.pop_front() {
                                Some(i) => {
                                    g.1 += 1;
                                    Some(i)
                                }
                                None => None,
                            }
                        };
                        ctx.unlock(cq);
                        if got.is_some() {
                            ctx.charge_cache_penalty(0);
                            ctx.advance(handle_ns);
                        }
                    }
                });
            }
        }
        CompletionPath::WaitThreads => {
            let events: Vec<EventId> = (0..n).map(|_| vm.event()).collect();
            let evs = Arc::new(events);
            let signal = Arc::clone(&evs);
            vm.spawn(0, move |ctx| {
                let c = *ctx.costs();
                for &e in signal.iter() {
                    ctx.with_lock(driver, c.poll_pass_ns);
                    ctx.with_lock(collect, c.poll_pass_ns + c.match_scan_ns);
                    ctx.advance(c.enqueue_ns); // publish request state
                    ctx.advance(c.lock_cycle_ns); // flag semaphore release
                    ctx.event_signal(e);
                }
            });
            for (w, core) in [2usize, 3].into_iter().enumerate() {
                let evs = Arc::clone(&evs);
                vm.spawn(core, move |ctx| {
                    let c = *ctx.costs();
                    for &e in evs.iter().skip(w).step_by(2) {
                        ctx.event_busy_wait(e, c.poll_pass_ns);
                        ctx.advance(handle_ns);
                    }
                });
            }
        }
    }
    let elapsed_ns = vm.run().elapsed_ns;
    n as f64 / elapsed_ns as f64 * 1e3 // Mmsg/s
}

/// Completion-queue scaling: aggregate completion rate vs outstanding
/// requests, a 2-core completion-queue drain against dedicated
/// busy-wait threads. The headline point: at 10k+ outstanding requests
/// two drainer cores sustain the rate of the dedicated-thread wait path
/// to within 10% — the classed `core.cq` lock cycle is amortized by the
/// per-request work it delivers.
pub fn cq_completion_scaling(costs: SimCosts, outstanding: &[usize]) -> Vec<Series> {
    [CompletionPath::Queue, CompletionPath::WaitThreads]
        .iter()
        .map(|&path| Series {
            label: path.label().to_string(),
            points: outstanding
                .iter()
                .map(|&n| (n, completion_drain_once(costs, n, path)))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> SimCosts {
        SimCosts::paper()
    }

    /// Mean constant offset (µs) between two series across all sizes.
    fn offset(a: &Series, b: &Series) -> f64 {
        assert_eq!(a.points.len(), b.points.len());
        a.points
            .iter()
            .zip(&b.points)
            .map(|(&(_, la), &(_, lb))| la - lb)
            .sum::<f64>()
            / a.points.len() as f64
    }

    fn spread(a: &Series, b: &Series) -> f64 {
        let diffs: Vec<f64> = a
            .points
            .iter()
            .zip(&b.points)
            .map(|(&(_, la), &(_, lb))| la - lb)
            .collect();
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        diffs
            .iter()
            .map(|d| (d - mean).abs())
            .fold(0.0f64, f64::max)
    }

    #[test]
    fn fig3_overheads_are_constant_and_ordered() {
        let sizes = small_sizes();
        let series = fig3_locking_latency(costs(), &sizes);
        let coarse = &series[0];
        let fine = &series[1];
        let none = &series[2];
        let d_coarse = offset(coarse, none);
        let d_fine = offset(fine, none);
        // Paper: coarse ≈ +140 ns, fine ≈ +230 ns, both size-independent.
        assert!(
            d_coarse > 0.05 && d_coarse < 0.4,
            "coarse Δ = {d_coarse} µs"
        );
        assert!(d_fine > d_coarse, "fine must cost more than coarse");
        assert!(d_fine < 0.6, "fine Δ = {d_fine} µs");
        assert!(spread(coarse, none) < 0.15, "coarse overhead not constant");
        assert!(spread(fine, none) < 0.15, "fine overhead not constant");
    }

    #[test]
    fn fig3_small_message_latency_is_myrinet_like() {
        let series = fig3_locking_latency(costs(), &[4]);
        for s in &series {
            let lat = s.points[0].1;
            // Paper Fig 3: ~2–4 µs at small sizes on Myri-10G.
            assert!((1.5..5.0).contains(&lat), "{}: {lat} µs", s.label);
        }
    }

    #[test]
    fn fig5_coarse_serializes_to_about_double() {
        let sizes = [4usize, 64, 1024];
        let series = fig5_concurrent_pingpong(costs(), &sizes);
        let single = &series[0];
        let fine_t1 = &series[1];
        let coarse_t1 = &series[3];
        for i in 0..sizes.len() {
            let s1 = single.points[i].1;
            let c = coarse_t1.points[i].1;
            let f = fine_t1.points[i].1;
            assert!(
                c > 1.5 * s1,
                "coarse concurrent ({c}) should approach 2× single ({s1})"
            );
            assert!(f < c, "fine ({f}) must beat coarse ({c}) under concurrency");
            assert!(f >= s1 * 0.95, "fine concurrent can't beat single-thread");
        }
    }

    #[test]
    fn fig6_pioman_adds_constant_overhead() {
        let sizes = small_sizes();
        let series = fig6_pioman_overhead(costs(), &sizes);
        // Order: PIOMan coarse, PIOMan fine, coarse, fine.
        let d_coarse = offset(&series[0], &series[2]);
        let d_fine = offset(&series[1], &series[3]);
        // Paper: ~200 ns = 0.2 µs.
        assert!((0.1..0.4).contains(&d_coarse), "Δ = {d_coarse} µs");
        assert!((0.1..0.4).contains(&d_fine), "Δ = {d_fine} µs");
    }

    #[test]
    fn fig7_passive_costs_a_context_switch() {
        let sizes = [4usize, 256, 2048];
        let series = fig7_waiting_strategies(costs(), &sizes);
        // Order: passive coarse, passive fine, active coarse, active fine.
        let d = offset(&series[0], &series[2]);
        // Paper: ~750 ns per one-way.
        assert!((0.4..1.2).contains(&d), "passive Δ = {d} µs");
    }

    #[test]
    fn fig7_fixed_spin_avoids_switch_when_event_is_fast() {
        // With a window larger than the wire latency the event always
        // lands inside the spin phase: latency ≈ active waiting.
        let active = waiting_pingpong_once(costs(), Mode::Fine, 4, WaitKind::Active);
        let spin = waiting_pingpong_once(costs(), Mode::Fine, 4, WaitKind::FixedSpin(50_000));
        let passive = waiting_pingpong_once(costs(), Mode::Fine, 4, WaitKind::Passive);
        assert!(
            spin < passive,
            "fixed spin ({spin}) must beat passive ({passive})"
        );
        assert!(spin < active + 0.3, "fixed spin ≈ active ({active})");
    }

    #[test]
    fn fig8_monotone_in_cache_distance() {
        let topo = Topology::xeon_x5460();
        let sizes = [4usize, 1024];
        let series = fig8_cache_affinity(costs(), &topo, &sizes);
        assert_eq!(series.len(), 3, "quad-core: same, shared, no-shared");
        for i in 0..sizes.len() {
            let same = series[0].points[i].1;
            let shared = series[1].points[i].1;
            let far = series[2].points[i].1;
            assert!(same < shared, "shared-cache poll must cost more");
            assert!(shared < far, "cross-die poll must cost more");
            // Paper: +400 ns and +1.2 µs.
            assert!(
                (0.2..0.8).contains(&(shared - same)),
                "Δ = {}",
                shared - same
            );
            assert!((0.8..2.0).contains(&(far - same)), "Δ = {}", far - same);
        }
    }

    #[test]
    fn fig8_dual_socket_has_four_classes() {
        let topo = Topology::dual_xeon_x5460();
        let series = fig8_cache_affinity(costs(), &topo, &[64]);
        assert_eq!(series.len(), 4);
        let lats: Vec<f64> = series.iter().map(|s| s.points[0].1).collect();
        assert!(
            lats.windows(2).all(|w| w[0] < w[1]),
            "not monotone: {lats:?}"
        );
        // Cross-package ≈ +3.1 µs.
        let d = lats[3] - lats[0];
        assert!((2.0..4.5).contains(&d), "cross-package Δ = {d} µs");
    }

    #[test]
    fn fig9_tasklets_cost_more_than_direct_offload() {
        let sizes = [2048usize, 8192, 32768];
        let series = fig9_offload_tasklets(costs(), &sizes);
        let (idle, tasklet, reference) = (&series[0], &series[1], &series[2]);
        let d_idle = offset(idle, reference);
        let d_tasklet = offset(tasklet, reference);
        // Paper: ~400 ns without tasklets, ~2 µs with.
        assert!((0.1..1.0).contains(&d_idle), "idle-core Δ = {d_idle} µs");
        assert!(
            (1.0..3.5).contains(&d_tasklet),
            "tasklet Δ = {d_tasklet} µs"
        );
        assert!(d_tasklet > d_idle + 0.5, "tasklets must cost visibly more");
    }

    #[test]
    fn rdv_overlap_hides_transfer_behind_compute() {
        let sizes = [64 * 1024usize, 256 * 1024];
        let series = rdv_overlap(costs(), &sizes);
        let (app, idle) = (&series[0], &series[1]);
        for (i, &size) in sizes.iter().enumerate() {
            let (a, b) = (app.points[i].1, idle.points[i].1);
            // Background progression hides (most of) the 30 µs compute
            // window behind the transfer, at every size.
            let saved = a - b;
            assert!(
                saved > 20.0,
                "only {saved} µs hidden at {size} B ({b} vs {a})",
            );
        }
    }

    #[test]
    fn bandwidth_converges_at_large_sizes() {
        let series = bandwidth_by_mode(costs(), &[64, 32 * 1024]);
        // Small messages: locking reduces the achievable message rate.
        let small: Vec<f64> = series.iter().map(|s| s.points[0].1).collect();
        assert!(small[0] > small[1], "no-lock must beat coarse at 64 B");
        assert!(small[1] > small[2], "coarse must beat fine at 64 B");
        // Large messages: the wire dominates; modes agree within 1 %.
        let large: Vec<f64> = series.iter().map(|s| s.points[1].1).collect();
        let spread = (large[0] - large[2]).abs() / large[0];
        assert!(spread < 0.01, "bandwidth diverged by {spread:.3} at 32 KB");
        // And the absolute value approaches the modelled 1.25 GB/s wire.
        assert!(large[0] > 1_000.0, "32 KB bandwidth {} MB/s", large[0]);
    }

    #[test]
    fn msgrate_sharded_collect_doubles_aggregate_rate() {
        let series = msgrate_scaling(costs(), &[1, 4]);
        let (sharded, global) = (&series[0], &series[1]);
        // One flow: the layouts are indistinguishable — no contention,
        // and the shared list holds a single flow's entries.
        assert_eq!(sharded.points[0].1, global.points[0].1);
        let s1 = sharded.points[0].1;
        let (s4, g4) = (sharded.points[1].1, global.points[1].1);
        // The acceptance bar: 4 independent flows on per-gate locks beat
        // the seed's single collect lock by at least 2×.
        assert!(s4 >= 2.0 * g4, "sharded {s4} vs global {g4} Mmsg/s");
        // Sharded flows share nothing but the (idle) wire: near-linear.
        assert!(s4 > 3.5 * s1, "sharded 4-flow rate {s4} vs 1-flow {s1}");
        // The global lock saturates: adding flows can't scale the rate.
        assert!(g4 < 2.0 * s1, "global 4-flow rate {g4} vs 1-flow {s1}");
    }

    #[test]
    fn msgrate_vci_matches_per_gate_baseline_at_one_flow() {
        // One flow on one context shares nothing — the model collapses
        // to the per-gate msgrate path, bit for bit.
        let vci = msgrate_vci_once(costs(), 1, 1);
        let base = msgrate_once(costs(), 1, CollectLayout::PerGate);
        assert_eq!(vci.to_bits(), base.to_bits(), "vci {vci} vs base {base}");
    }

    #[test]
    fn msgrate_vci_dedicated_contexts_beat_shared_driver() {
        // The acceptance bar: 16 flows on 16 dedicated contexts sustain
        // at least 12× the aggregate rate of 16 flows funneled through
        // one shared tx/completion ring.
        let shared = msgrate_vci_once(costs(), 16, 1);
        let dedicated = msgrate_vci_once(costs(), 16, 16);
        assert!(
            dedicated >= 12.0 * shared,
            "dedicated {dedicated} vs shared {shared} Mmsg/s ({}×)",
            dedicated / shared
        );
        // And context counts in between land in between: monotone.
        let four = msgrate_vci_once(costs(), 16, 4);
        assert!(four > shared && four < dedicated, "4-VCI rate {four}");
    }

    #[test]
    fn msgrate_is_deterministic() {
        let a = msgrate_once(costs(), 4, CollectLayout::Global);
        let b = msgrate_once(costs(), 4, CollectLayout::Global);
        assert_eq!(a, b, "virtual-time runs must be bit-identical");
    }

    #[test]
    fn experiments_are_deterministic() {
        let a = pingpong_once(costs(), Mode::Fine, 256, false);
        let b = pingpong_once(costs(), Mode::Fine, 256, false);
        assert_eq!(a, b, "virtual-time runs must be bit-identical");
        let c = concurrent_pingpong_once(costs(), Mode::Coarse, 64);
        let d = concurrent_pingpong_once(costs(), Mode::Coarse, 64);
        assert_eq!(c, d);
    }

    #[test]
    fn cq_drain_is_deterministic() {
        let a = completion_drain_once(costs(), 512, CompletionPath::Queue);
        let b = completion_drain_once(costs(), 512, CompletionPath::Queue);
        assert_eq!(a, b, "virtual-time runs must be bit-identical");
        let c = completion_drain_once(costs(), 512, CompletionPath::WaitThreads);
        let d = completion_drain_once(costs(), 512, CompletionPath::WaitThreads);
        assert_eq!(c, d);
    }

    /// The tentpole's acceptance bar: a completion queue drained by two
    /// cores sustains 10k+ outstanding requests at a rate within 10% of
    /// the dedicated-thread `wait` path.
    #[test]
    fn cq_two_drainers_match_dedicated_waits_at_10k_outstanding() {
        let n = 10_240;
        let cq = completion_drain_once(costs(), n, CompletionPath::Queue);
        let wait = completion_drain_once(costs(), n, CompletionPath::WaitThreads);
        assert!(
            cq >= 0.9 * wait,
            "cq rate {cq} Mmsg/s fell >10% below wait rate {wait} Mmsg/s"
        );
        assert!(
            cq <= 1.1 * wait,
            "cq rate {cq} Mmsg/s is >10% above wait rate {wait} Mmsg/s — model drifted"
        );
    }
}
