//! The six workloads and what they share: locking modes, the timed
//! loop, co-polling, and the counts taken around a timed region.
//!
//! Every workload is a closed loop — a caller waits for its own
//! completions before it posts again — over in-process `nm-fabric`
//! wires with `WireModel::ideal()` on the real clock, so every
//! nanosecond measured is software.

use std::sync::Arc;
use std::time::Duration;

use nm_core::{CommCore, CoreBuilder, CoreConfig, LockingMode, PendingCounts};
use nm_fabric::{Driver, Fabric, WireModel};
use nm_mpi::ThreadLevel;

use crate::alloc_count::{self, AllocSnapshot};
use crate::payload::Failures;
use crate::registry::{self, RegistrySnapshot};
use crate::trace::{now_ns, Probe, Recorder, SpanKind};

mod facade;
mod pingpong;
mod rounds;

/// Tag every workload's messages carry.
pub const TAG: u64 = 7;

/// The library's three thread-safety modes (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Mode {
    Single,
    Coarse,
    Fine,
}

impl Mode {
    pub const ALL: [Mode; 3] = [Mode::Single, Mode::Coarse, Mode::Fine];

    pub fn label(self) -> &'static str {
        match self {
            Mode::Single => "single",
            Mode::Coarse => "coarse",
            Mode::Fine => "fine",
        }
    }

    pub fn locking(self) -> LockingMode {
        match self {
            Mode::Single => LockingMode::SingleThread,
            Mode::Coarse => LockingMode::Coarse,
            Mode::Fine => LockingMode::Fine,
        }
    }

    /// The `nm-mpi` thread level that maps onto this locking mode.
    pub fn thread_level(self) -> ThreadLevel {
        match self {
            Mode::Single => ThreadLevel::Single,
            Mode::Coarse => ThreadLevel::Serialized,
            Mode::Fine => ThreadLevel::Multiple,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    PingpongEager,
    StreamEager,
    BulkRdv,
    LossyStream,
    ConcurrentFlows,
    BgPingpong,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PingpongEager,
        Workload::StreamEager,
        Workload::BulkRdv,
        Workload::LossyStream,
        Workload::ConcurrentFlows,
        Workload::BgPingpong,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongEager => "pingpong_eager",
            Workload::StreamEager => "stream_eager",
            Workload::BulkRdv => "bulk_rdv",
            Workload::LossyStream => "lossy_stream",
            Workload::ConcurrentFlows => "concurrent_flows",
            Workload::BgPingpong => "bg_pingpong",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one timed unit (= one root span, one latency sample) is.
    pub fn unit_label(self) -> &'static str {
        match self {
            Workload::PingpongEager | Workload::ConcurrentFlows | Workload::BgPingpong => {
                "round trip (2 one-way messages)"
            }
            Workload::StreamEager => "round (4 flows x 32 messages, one way)",
            Workload::BulkRdv => "message (1 MiB, one way)",
            Workload::LossyStream => "round (32 messages, one way)",
        }
    }

    /// Share of receives that must take the unexpected-message path.
    pub fn expected_unexpected_ratio(self) -> f64 {
        match self {
            Workload::StreamEager => 0.5,
            _ => 0.0,
        }
    }

    /// Runs one repetition: builds a fresh world, warms it up, times
    /// units for `params.duration`, verifies every delivery, tears down.
    pub fn run_rep<P: Probe>(self, params: &RepParams) -> RepOutput {
        match self {
            Workload::PingpongEager => pingpong::pingpong_eager::<P>(params),
            Workload::ConcurrentFlows => pingpong::concurrent_flows::<P>(params),
            Workload::StreamEager => rounds::stream_eager::<P>(params),
            Workload::BulkRdv => rounds::bulk_rdv::<P>(params),
            Workload::LossyStream => rounds::lossy_stream::<P>(params),
            Workload::BgPingpong => facade::bg_pingpong::<P>(params),
        }
    }
}

pub use facade::copolled_facade_pingpong;
pub use rounds::{windowed_stream, StreamWire};

/// Inputs of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct RepParams {
    pub mode: Mode,
    pub seed: u64,
    pub duration: Duration,
    /// Span buffer size per driving thread (traced runs).
    pub span_capacity: usize,
}

/// Deltas over one timed region. Registry counts are `None` when the
/// registry has no counter of that name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub alloc: AllocSnapshot,
    pub lock_acquisitions: Option<u64>,
    pub lock_contended: Option<u64>,
    pub fabric_tx_packets: Option<u64>,
    pub fabric_tx_bytes: Option<u64>,
    pub progress_polls: Option<u64>,
    pub progress_progressions: Option<u64>,
    /// Acquisitions of the cores' own `LockPolicy` locks, whole
    /// repetition. Must be 0 in single mode.
    pub policy_lock_acquisitions: u64,
}

/// What one repetition measured.
pub struct RepOutput {
    pub mode: Mode,
    /// Repetition start to first timed unit: fabric, cores or world,
    /// threads, payload pools, warm-up.
    pub setup_ns: u64,
    /// One latency sample per timed unit: unit time / one-way legs.
    pub samples: Vec<u64>,
    /// One-way messages delivered inside timed units, and how many of
    /// them one unit carries.
    pub msgs: u64,
    pub msgs_per_unit: u64,
    /// Delivery rate inside timed units (see [`Driven::msgs_per_s`]),
    /// summed over threads.
    pub msgs_per_s: f64,
    pub payload_len: usize,
    pub threads: usize,
    /// Messages attempted (timed units only) and how many deliveries
    /// failed: error, stall, wrong payload, wrong order, or work still
    /// pending in a core at quiesce.
    pub attempted: u64,
    pub failures: Failures,
    pub pending_at_quiesce: u64,
    pub counts: Counts,
    pub recorders: Vec<Recorder>,
}

impl RepOutput {
    pub fn failed(&self) -> u64 {
        self.failures.total() + self.pending_at_quiesce
    }

    pub fn payload_bytes(&self) -> u64 {
        self.msgs * self.payload_len as u64
    }
}

/// An operation returned an error or never completed.
#[derive(Debug)]
pub struct Stall;

/// One driving thread's closed loop.
pub trait Flow {
    /// One-way messages per unit, and how many of them lie one after
    /// the other on the unit's critical path.
    const MSGS_PER_UNIT: u64;
    const LEGS: u64;
    /// One timed unit: post, wait for completion, take the data.
    fn unit<P: Probe>(&mut self, probe: &mut P) -> Result<(), Stall>;
    /// Untimed: verify what the unit delivered, stage the next payloads.
    fn settle(&mut self);
    fn failures(&self) -> Failures;
}

/// What [`drive`] measured on one thread.
pub struct Driven {
    pub samples: Vec<u64>,
    /// Messages per second inside each slice of the timed region.
    pub slice_rates: Vec<f64>,
    pub timed_ns: u64,
    pub units: u64,
    pub attempted_units: u64,
}

impl Driven {
    pub fn msgs<F: Flow>(&self) -> u64 {
        self.units * F::MSGS_PER_UNIT
    }

    /// The thread's delivery rate: the median over the slices of the
    /// timed region, so that a burst of interference from the host
    /// (one slow slice) does not move it. Falls back to the overall
    /// rate when no slice completed.
    pub fn msgs_per_s<F: Flow>(&self) -> f64 {
        if !self.slice_rates.is_empty() {
            crate::stats::median(&self.slice_rates)
        } else if self.timed_ns > 0 {
            self.msgs::<F>() as f64 * 1e9 / self.timed_ns as f64
        } else {
            0.0
        }
    }
}

/// Runs `units` untimed units (warm-up).
pub fn warm_up<F: Flow>(flow: &mut F, units: u64) {
    for _ in 0..units {
        let stalled = flow.unit(&mut crate::trace::NoTrace).is_err();
        flow.settle();
        if stalled {
            break;
        }
    }
}

/// Slices a repetition's timed region is cut into for its rate.
const SLICES: u64 = 16;

/// Buffers [`drive`] fills; allocate them during set-up so the timed
/// region allocates nothing of the harness's own.
pub struct Buffers {
    samples: Vec<u64>,
    slice_rates: Vec<f64>,
}

/// Room for one sample per unit (a unit takes at least a microsecond)
/// and one rate per slice.
pub fn sample_buffer(duration: Duration) -> Buffers {
    Buffers {
        samples: Vec::with_capacity((duration.as_micros() as usize).clamp(1024, 8 << 20)),
        slice_rates: Vec::with_capacity(2 * SLICES as usize),
    }
}

/// The timed loop: units back to back until `duration` has passed.
/// Only the time inside units counts; verification runs between them.
pub fn drive<F: Flow, P: Probe>(
    flow: &mut F,
    probe: &mut P,
    duration: Duration,
    buffers: Buffers,
) -> Driven {
    let Buffers {
        mut samples,
        mut slice_rates,
    } = buffers;
    let deadline = now_ns() + duration.as_nanos() as u64;
    let slice_ns = (duration.as_nanos() as u64 / SLICES).max(1);
    let (mut timed_ns, mut units, mut attempted_units) = (0, 0, 0);
    let (mut slice_time, mut slice_units) = (0u64, 0u64);
    loop {
        probe.begin_unit();
        let t0 = now_ns();
        let outcome = flow.unit(probe);
        let t1 = now_ns();
        probe.end_unit(t0, t1);
        flow.settle();
        attempted_units += 1;
        if outcome.is_err() {
            // A stalled flow cannot post again; its miss is already
            // counted by the checker.
            break;
        }
        units += 1;
        timed_ns += t1 - t0;
        slice_time += t1 - t0;
        slice_units += 1;
        if slice_time >= slice_ns && slice_rates.len() < slice_rates.capacity() {
            slice_rates.push((slice_units * F::MSGS_PER_UNIT) as f64 * 1e9 / slice_time as f64);
            (slice_time, slice_units) = (0, 0);
        }
        if samples.len() < samples.capacity() {
            samples.push((t1 - t0) / F::LEGS);
        }
        if t1 >= deadline {
            break;
        }
    }
    Driven {
        samples,
        slice_rates,
        timed_ns,
        units,
        attempted_units,
    }
}

/// Folds what each driving thread measured into the repetition's output
/// and runs the quiesce check on the pair of cores.
#[allow(clippy::too_many_arguments)]
pub fn assemble<F: Flow, P: Probe>(
    params: &RepParams,
    setup_ns: u64,
    payload_len: usize,
    driven: Vec<(Driven, P)>,
    failures: Failures,
    counts: Counts,
    a: &CommCore,
    b: &CommCore,
) -> RepOutput {
    let threads = driven.len();
    let mut samples = Vec::new();
    let (mut msgs, mut attempted, mut msgs_per_s) = (0, 0, 0.0);
    let mut recorders = Vec::new();
    for (d, probe) in driven {
        msgs += d.msgs::<F>();
        attempted += d.attempted_units * F::MSGS_PER_UNIT;
        msgs_per_s += d.msgs_per_s::<F>();
        if samples.is_empty() {
            samples = d.samples;
        } else {
            samples.extend_from_slice(&d.samples);
        }
        recorders.extend(probe.into_recorder());
    }
    RepOutput {
        mode: params.mode,
        setup_ns,
        samples,
        msgs,
        msgs_per_unit: F::MSGS_PER_UNIT,
        msgs_per_s,
        payload_len,
        threads,
        attempted,
        failures,
        pending_at_quiesce: pending_at_quiesce(a, b),
        counts,
        recorders,
    }
}

/// A one-thread repetition once its world and flow exist: warm-up,
/// counters, the timed loop, the quiesce check.
pub fn run_alone<F: Flow, P: Probe>(
    params: &RepParams,
    t_start: u64,
    flow: &mut F,
    warm_up_units: u64,
    payload_len: usize,
    a: &CommCore,
    b: &CommCore,
) -> RepOutput {
    let mut probe = P::with_capacity(params.span_capacity);
    let buffers = sample_buffer(params.duration);
    warm_up(flow, warm_up_units);
    let counts = CountsStart::take();
    let setup_ns = now_ns() - t_start;
    let driven = drive(flow, &mut probe, params.duration, buffers);
    let counts = counts.finish(&[a, b]);
    let failures = flow.failures();
    assemble::<F, P>(
        params,
        setup_ns,
        payload_len,
        vec![(driven, probe)],
        failures,
        counts,
        a,
        b,
    )
}

/// Progress passes without a completion after which a wait gives up.
/// A pass takes tens of nanoseconds at least, so this is seconds.
const MAX_PASSES_PER_WAIT: u64 = 50_000_000;

/// Co-polls both cores of a pair from the calling thread until `done`.
#[inline]
pub fn copoll<P: Probe>(
    probe: &mut P,
    a: &CommCore,
    b: &CommCore,
    done: impl Fn() -> bool,
) -> Result<(), Stall> {
    let mut passes = 0;
    while !done() {
        probe.progress(SpanKind::ProgressA, || a.progress());
        probe.progress(SpanKind::ProgressB, || b.progress());
        passes += 1;
        if passes > MAX_PASSES_PER_WAIT {
            return Err(Stall);
        }
    }
    Ok(())
}

/// Two cores joined by `gates` gates, each gate one ideal rail of its own.
pub fn ideal_pair(config: CoreConfig, gates: usize) -> (Arc<CommCore>, Arc<CommCore>) {
    let fabric = Fabric::real_time();
    let (mut a, mut b) = (CoreBuilder::new(config.clone()), CoreBuilder::new(config));
    for _ in 0..gates {
        let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
        a = a.add_gate(pa.drivers());
        b = b.add_gate(pb.drivers());
    }
    (a.build(), b.build())
}

/// Two cores joined by one gate over the given driver pair.
pub fn pair_over(
    config: CoreConfig,
    da: Arc<dyn Driver>,
    db: Arc<dyn Driver>,
) -> (Arc<CommCore>, Arc<CommCore>) {
    (
        CoreBuilder::new(config.clone()).add_gate(vec![da]).build(),
        CoreBuilder::new(config).add_gate(vec![db]).build(),
    )
}

/// Best-effort pin of the calling thread (thread `i` runs on CPU `i`).
pub fn pin(cpu: usize) {
    let _ = nm_topo::affinity::bind_current_thread(cpu);
}

/// Counter readings at the start of a timed region.
pub struct CountsStart {
    registry: RegistrySnapshot,
    alloc: AllocSnapshot,
}

impl CountsStart {
    pub fn take() -> Self {
        CountsStart {
            registry: RegistrySnapshot::take(),
            alloc: alloc_count::snapshot(),
        }
    }

    /// Closes the region. `cores` are the cores whose policy locks are
    /// read for the single-mode self-check.
    pub fn finish(self, cores: &[&CommCore]) -> Counts {
        let alloc = alloc_count::snapshot().since(self.alloc);
        let end = RegistrySnapshot::take();
        let delta = |name| end.delta(&self.registry, name);
        Counts {
            alloc,
            lock_acquisitions: delta(registry::LOCK_ACQUISITIONS),
            lock_contended: delta(registry::LOCK_CONTENDED),
            fabric_tx_packets: delta(registry::FABRIC_TX_PACKETS),
            fabric_tx_bytes: delta(registry::FABRIC_TX_BYTES),
            progress_polls: delta(registry::PROGRESS_POLLS),
            progress_progressions: delta(registry::PROGRESS_PROGRESSIONS),
            policy_lock_acquisitions: cores
                .iter()
                .map(|c| c.lock_policy().total_acquisitions())
                .sum(),
        }
    }
}

/// Lets in-flight acknowledgements drain, then counts the cores that
/// still hold work: every queue of both cores must be empty.
pub fn pending_at_quiesce(a: &CommCore, b: &CommCore) -> u64 {
    let idle = PendingCounts::default();
    let deadline = now_ns() + 200_000_000;
    loop {
        a.progress();
        b.progress();
        let (pa, pb) = (a.pending(), b.pending());
        if (pa == idle && pb == idle) || now_ns() > deadline {
            return u64::from(pa != idle) + u64::from(pb != idle);
        }
    }
}
