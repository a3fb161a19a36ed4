//! The communication core: its builder, the progression pass, the waits
//! and the queue-depth snapshot.
//!
//! Data path (paper Fig 1), one module per layer:
//!
//! ```text
//!  application ── isend/irecv ──▶ collect layer (collect.rs: per-gate
//!                                     │   submit lists, matching)
//!                                     │   when a NIC is idle
//!                                     ▼
//!                             optimization layer (strategy.rs:
//!                             aggregation, control-first reordering)
//!                                     │   arranged packet
//!                                     ▼
//!                             transfer layer (transfer.rs: one Lane
//!                             per (rail, VCI); reliability.rs is a
//!                             reliable lane's window)
//!                                     │
//!                                     ▼
//!                                NIC drivers (per-VCI polling)
//! ```
//!
//! Small messages travel eagerly inside one packet; large ones use a
//! rendezvous (RTS → CTS → chunked DATA, chunks distributed round-robin
//! across the live lanes — the multirail optimization, extended to the
//! VCI contexts each rail's driver exposes). Every lane owns its own
//! transfer queue, reliability window, and driver context, so flows
//! pinned to different lanes never share a transfer-layer lock.

use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;

use nm_fabric::ClockSource;
use nm_progress::{OffloadMode, Offloader, PollOutcome, PollSource, TimerWheel};
use nm_sync::WaitStrategy;

use crate::config::CoreConfig;
use crate::error::CommError;
use crate::gate::{Gate, GateId};
use crate::locking::{LockPolicy, LockingMode, SectionKind};
use crate::request::Request;
use crate::stats::CoreStats;
use crate::strategy::Strategy;
use crate::transfer::Lane;
use crate::wire::{ENTRY_HEADER, FRAME_HEADER, FRAME_SPAN_BYTES, PACKET_HEADER};

/// Builder for a [`CommCore`]: configure, add gates, build.
pub struct CoreBuilder {
    config: CoreConfig,
    gates: Vec<Vec<Arc<dyn nm_fabric::Driver>>>,
}

impl CoreBuilder {
    /// Starts a builder with the given configuration.
    pub fn new(config: CoreConfig) -> Self {
        CoreBuilder {
            config,
            gates: Vec::new(),
        }
    }

    /// Adds a gate (peer connection) with one driver per rail. Gate ids
    /// are assigned in call order, starting at 0.
    pub fn add_gate(mut self, drivers: Vec<Arc<dyn nm_fabric::Driver>>) -> Self {
        assert!(!drivers.is_empty(), "a gate needs at least one rail");
        self.gates.push(drivers);
        self
    }

    /// Builds the core.
    ///
    /// # Panics
    /// Panics on inconsistent configuration: no gates, an eager threshold
    /// that cannot fit any rail's MTU, a deferred offload mode combined
    /// with single-thread locking, tasklet offload without an engine,
    /// reliability off over a driver that may corrupt frames (only the
    /// reliability layer checks integrity), or rails on clocks that do
    /// not share their time.
    pub fn build(self) -> Arc<CommCore> {
        assert!(!self.gates.is_empty(), "at least one gate required");
        if self.config.offload != OffloadMode::Inline {
            assert!(
                self.config.locking.thread_safe(),
                "deferred offload runs on another thread; single-thread locking cannot be used"
            );
        }
        let offloader = Arc::new(Offloader::for_mode(
            self.config.offload,
            self.config.tasklet_engine.clone(),
        ));

        // The one place reliability is configured: each lane is built
        // with or without its window, and nothing below asks again.
        let reliable = self.config.reliability.enabled;
        // The core's one clock is its wire's: every deadline it arms is
        // read from the clock of the first rail of the first gate.
        let clock = self.gates[0][0].clock();
        let mut gates = Vec::with_capacity(self.gates.len());
        let mut lanes = 0;
        for (id, drivers) in self.gates.into_iter().enumerate() {
            if let Some(d) = drivers.iter().find(|d| d.caps().may_corrupt) {
                assert!(
                    reliable,
                    "driver {} of gate {} may corrupt frames, which an unreliable core \
                     cannot detect: enable reliability (ReliabilityConfig::enabled())",
                    d.caps().name,
                    id
                );
            }
            if let Some(d) = drivers.iter().find(|d| !d.clock().shares(&clock)) {
                panic!(
                    "driver {} of gate {} runs on a different clock from the first rail",
                    d.caps().name,
                    id
                );
            }
            let gate = Gate::new(GateId(id), drivers, lanes, reliable);
            // FRAME_SPAN_BYTES is reserved whether or not a recording
            // is live, so packing decisions are identical across
            // recorded and unrecorded runs.
            let needed = self.config.eager_threshold
                + ENTRY_HEADER
                + PACKET_HEADER
                + FRAME_HEADER
                + FRAME_SPAN_BYTES;
            assert!(
                gate.mtu >= needed,
                "eager threshold {} does not fit rail MTU {} of gate {}",
                self.config.eager_threshold,
                gate.mtu,
                id
            );
            lanes += gate.lanes.len();
            gates.push(gate);
        }
        // One lock per (rail, VCI) lane.
        let policy = LockPolicy::new(self.config.locking, gates.len(), lanes);
        let strategy = self.config.strategy.build();

        Arc::new_cyclic(|weak| CommCore {
            config: self.config,
            policy,
            gates,
            strategy,
            offloader,
            stats: CoreStats::default(),
            timers: TimerWheel::new(),
            clock,
            self_weak: weak.clone(),
        })
    }
}

/// The NewMadeleine-style communication core.
///
/// All methods take `&self` and are safe for concurrent callers under the
/// `Coarse` and `Fine` locking modes; `SingleThread` mode enforces its
/// single-caller restriction at runtime.
pub struct CommCore {
    pub(crate) config: CoreConfig,
    pub(crate) policy: LockPolicy,
    gates: Vec<Gate>,
    pub(crate) strategy: Box<dyn Strategy>,
    pub(crate) offloader: Arc<Offloader>,
    pub(crate) stats: CoreStats,
    /// Request deadlines armed by [`CommCore::expire_after`], checked
    /// each progression pass (the wheel never blocks a thread).
    timers: TimerWheel<Request>,
    /// The drivers' clock: the only source of time for deadlines.
    pub(crate) clock: ClockSource,
    pub(crate) self_weak: Weak<CommCore>,
}

impl CommCore {
    /// The active configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Event counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The lock policy (lock statistics for calibration benches).
    pub fn lock_policy(&self) -> &LockPolicy {
        &self.policy
    }

    /// The submission offloader. In `IdleCore` mode, register this (or the
    /// core itself plus periodic [`CommCore::drain_offload`] calls) with a
    /// progression engine so deferred submissions execute.
    pub fn offloader(&self) -> &Arc<Offloader> {
        &self.offloader
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// One progression pass: polls every lane of every gate, dispatches
    /// inbound packets, and pumps outbound queues. Returns the number of
    /// wire events handled. The same pass as `progress_shard(0, 1)`.
    pub fn progress(&self) -> usize {
        self.progress_shard(0, 1)
    }

    /// One progression pass restricted to a lane shard: polls (and runs
    /// the reliability upkeep of) only the lanes whose index in the lock
    /// policy satisfies `index % num_shards == shard`, then offers each
    /// gate's collect queue to its idle lanes. Dedicated progression
    /// threads each drive their own set of VCI contexts this way without
    /// contending on the same driver sections; each lane's retransmit
    /// clock is read by the shard that polls it.
    ///
    /// In coarse mode a pass that would find nothing is told apart
    /// before the library-wide lock is taken (see `CommCore::quiet`):
    /// it returns 0 without entering any section.
    pub fn progress_shard(&self, shard: usize, num_shards: usize) -> usize {
        assert!(num_shards > 0 && shard < num_shards, "shard out of range");
        if self.policy.mode() == LockingMode::Coarse && self.quiet(shard, num_shards) {
            // What `pass` counts for a pass that finds nothing.
            self.stats.progress_passes.incr();
            nm_metrics::trace_event!(ProgressPass, 0usize);
            return 0;
        }
        let api = self.policy.enter_api();
        let events = self.pass(shard, num_shards);
        drop(api);
        events
    }

    /// `true` when a pass over `shard` would find nothing to do, read
    /// without a lock: every part of [`CommCore::pass`] would take its
    /// early return. No deadline is armed (`service_timers`), every lane
    /// of the shard is [`Lane::poll_idle`] (`poll_lane`; a reliable lane
    /// never is, its upkeep reads the clock for due retransmits), and
    /// every gate is [`Gate::pump_idle`] (`pump_gate`). The hints and
    /// doorbells are the ones the fine-grain pass skips on, with the same
    /// argument that nothing is stranded (DESIGN.md, "An idle pass takes
    /// no lock").
    fn quiet(&self, shard: usize, num_shards: usize) -> bool {
        self.timers.is_empty()
            && self.gates.iter().all(|g| {
                g.pump_idle()
                    && g.lanes
                        .iter()
                        .filter(|lane| lane.in_shard(shard, num_shards))
                        .all(Lane::poll_idle)
            })
    }

    /// The progression pass itself; the caller holds the API guard.
    fn pass(&self, shard: usize, num_shards: usize) -> usize {
        self.stats.progress_passes.incr();
        let mut events = self.service_timers();
        for g in &self.gates {
            for lane in &g.lanes {
                if lane.in_shard(shard, num_shards) {
                    events += self.poll_lane(g, lane);
                }
            }
            events += self.pump_gate(g);
        }
        nm_metrics::trace_event!(ProgressPass, events);
        events
    }

    /// A [`PollSource`] driving one lane shard (see
    /// [`CommCore::progress_shard`]); register one per shard with a
    /// progression engine so each VCI gets its own poller.
    pub fn vci_poll_source(&self, shard: usize, num_shards: usize) -> VciPollSource {
        assert!(num_shards > 0 && shard < num_shards, "shard out of range");
        VciPollSource {
            core: self.self_weak.upgrade().expect("core still alive"),
            shard,
            num_shards,
            name: format!("nm-core.shard.{shard}"),
        }
    }

    /// Fails every request whose deadline has passed with
    /// [`CommError::Timeout`] (unless it completed first).
    fn service_timers(&self) -> usize {
        if self.timers.is_empty() {
            return 0;
        }
        let due = self.timers.pop_due(self.clock.now_ns());
        due.into_iter().filter(Request::expire).count()
    }

    /// Runs deferred (offloaded) submissions on the calling thread.
    ///
    /// Intended for the progression engine / idle cores; calling it from
    /// the application thread is correct but defeats the offload.
    pub fn drain_offload(&self) -> usize {
        self.offloader.drain()
    }

    /// Waits for a request, polling this core during spin phases.
    ///
    /// The spin phase runs *inside* the library: in coarse mode the
    /// library-wide lock is held while polling makes progress (Fig 2) —
    /// which is why two busy-waiting threads serialize in the paper's
    /// Fig 5 — and released before any blocking, per the paper's
    /// deadlock-avoidance rule. The same rule extends to *idle* spin
    /// passes: a pass that handles zero events yields the guard before
    /// spinning on, because the thread whose submission would unblock
    /// this wait may itself be stuck behind the coarse lock (two
    /// cross-waiting busy spinners on two cores otherwise deadlock).
    /// With [`WaitStrategy::Passive`] the caller never polls: a
    /// progression thread must be driving
    /// [`CommCore::progress`].
    ///
    /// Returns the operation's outcome: `Err` consumes the completion
    /// error (substrate failure, protocol violation) exactly as
    /// [`Request::take_error`] would — the two layers (`nm-core`,
    /// `nm-mpi`) share one error story.
    pub fn wait(&self, req: &Request, strategy: WaitStrategy) -> Result<(), CommError> {
        self.wait_until(req, strategy, None)
    }

    /// Like [`CommCore::wait`], bounded by `timeout`.
    ///
    /// If the deadline passes first the request is *finished* with
    /// [`CommError::Timeout`] (so its posting is reaped like a cancelled
    /// request and nothing leaks), and `Err(Timeout)` is returned. A
    /// completion racing the deadline keeps its outcome — the finish
    /// transition is a single CAS, exactly one side wins. The timeout is
    /// measured on the core's clock (its drivers'); a park that runs out
    /// of spin sleeps what is left of it in wall-clock time.
    pub fn wait_deadline(
        &self,
        req: &Request,
        strategy: WaitStrategy,
        timeout: Duration,
    ) -> Result<(), CommError> {
        self.wait_until(req, strategy, Some(self.deadline_after(timeout)))
    }

    /// The instant `timeout` from now on the core's clock, in ns.
    fn deadline_after(&self, timeout: Duration) -> u64 {
        let ns = timeout.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.clock.now_ns().saturating_add(ns)
    }

    /// The one spin/park loop behind [`CommCore::wait`] (no deadline)
    /// and [`CommCore::wait_deadline`].
    fn wait_until(
        &self,
        req: &Request,
        strategy: WaitStrategy,
        deadline: Option<u64>,
    ) -> Result<(), CommError> {
        let _t = crate::metrics::wait_hist().timer();
        // `Some(end)`: poll under the API guard until complete or `end`
        // (`None` = no end). Busy spins to the deadline, a fixed spin for
        // its budget capped by the deadline, Passive not at all.
        let spin_until = match strategy.spin_budget() {
            None => Some(deadline),
            Some(budget) if budget.is_zero() => None,
            Some(budget) => {
                let end = self.deadline_after(budget);
                Some(Some(deadline.map_or(end, |d| d.min(end))))
            }
        };
        if let Some(end) = spin_until {
            let mut api = self.policy.enter_api();
            while !req.is_complete() && end.is_none_or(|end| self.clock.now_ns() < end) {
                if self.pass(0, 1) == 0 {
                    // Idle pass: completion now depends on another
                    // thread acting — and in coarse mode that thread
                    // may be stuck behind this very guard (two
                    // cross-waiting spinners deadlock: each holds its
                    // core's lock while the reply it spins on cannot
                    // be submitted). Yield the guard between idle
                    // passes; while work flows the holder keeps it,
                    // preserving the paper's Fig 5 serialization.
                    drop(api);
                    std::hint::spin_loop();
                    api = self.policy.enter_api();
                }
            }
            drop(api);
        }
        // Park: a fixed spin that ran out, or Passive from the start,
        // blocks for whatever is left.
        if strategy.may_block() && !req.is_complete() {
            match deadline {
                None => req.flag().wait(WaitStrategy::Passive),
                Some(d) => {
                    let left = Duration::from_nanos(d.saturating_sub(self.clock.now_ns()));
                    req.flag().wait_timeout(WaitStrategy::Passive, left);
                }
            }
        }
        if deadline.is_some() && !req.is_complete() {
            req.expire();
        }
        match req.take_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Arms a deadline: unless `req` completes within `timeout`, a
    /// progression pass finishes it with [`CommError::Timeout`] and
    /// delivers through its completion object (queue, handler, or async
    /// waker) — no thread waits on the clock. This is what gives the
    /// async facade its deadline-bounded operations. The deadline is
    /// read from the core's clock, so on a virtual-time wire it passes
    /// only when that clock is advanced.
    pub fn expire_after(&self, req: &Request, timeout: Duration) {
        self.timers
            .schedule(self.deadline_after(timeout), req.clone());
    }

    /// Snapshot of the queue depths across all layers (diagnostics).
    ///
    /// Taking the snapshot also reaps posted receives whose request was
    /// cancelled, so the reported `posted_recvs` never counts dead
    /// entries.
    pub fn pending(&self) -> PendingCounts {
        let api = self.policy.enter_api();
        let mut counts = PendingCounts::default();
        for g in &self.gates {
            let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
            g.with_tx(&s, |tx| {
                counts.collect_items += tx.queue.len();
                counts.rdv_awaiting_cts += tx.rdv_out.len();
            });
            drop(s);
            let s = self.policy.enter(SectionKind::CollectRx(g.id.0));
            g.rx.with(&s, |rx| {
                rx.prune_cancelled();
                counts.posted_recvs += rx.posted_len();
                counts.unexpected += rx.unexpected_len();
                counts.pending_rts += rx.pending_rts_len();
                counts.rdv_reassembling += rx.rdv_in_len();
                counts.eager_out_of_order += rx.ooo_len();
            });
            drop(s);
            for lane in &g.lanes {
                let s = self.policy.enter(SectionKind::Driver(lane.id));
                lane.with_xfer(&s, |q| counts.xfer_items += q.len());
                if let Some(cell) = &lane.rel {
                    cell.with(&s, |rel| counts.unacked_frames += rel.unacked.len());
                }
                drop(s);
            }
        }
        drop(api);
        counts
    }

    /// Drives progression until a full pass makes no progress and every
    /// internal send queue is empty. Returns the number of passes run.
    ///
    /// Inbound completion still depends on the peer; this flushes the
    /// *local* side (collect + transfer lists drained into the NICs).
    pub fn flush_local(&self) -> usize {
        let mut passes = 0;
        loop {
            let events = self.progress();
            passes += 1;
            let p = self.pending();
            if events == 0 && p.collect_items == 0 && p.xfer_items == 0 {
                return passes;
            }
        }
    }

    /// Waits for every request in `reqs`.
    ///
    /// Every request is waited to completion even on failure; the first
    /// error encountered (in `reqs` order) is returned.
    pub fn wait_all(&self, reqs: &[Request], strategy: WaitStrategy) -> Result<(), CommError> {
        let mut first_err = None;
        for r in reqs {
            if let Err(e) = self.wait(r, strategy) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Non-blocking completion test (`MPI_Test`): one progression pass,
    /// then reports whether the request has completed.
    pub fn test(&self, req: &Request) -> bool {
        if req.is_complete() {
            return true;
        }
        self.progress();
        req.is_complete()
    }

    /// Blocking send: `isend` + wait.
    pub fn send(
        &self,
        gate: GateId,
        tag: u64,
        data: Bytes,
        strategy: WaitStrategy,
    ) -> Result<(), CommError> {
        let req = self.isend(gate, tag, data)?;
        self.wait(&req, strategy)
    }

    /// Blocking receive: `irecv` + wait; returns the payload.
    pub fn recv(&self, gate: GateId, tag: u64, strategy: WaitStrategy) -> Result<Bytes, CommError> {
        let req = self.irecv(gate, tag)?;
        self.wait(&req, strategy)?;
        Ok(req.take_data().expect("completed recv carries data"))
    }

    pub(crate) fn gate(&self, gate: GateId) -> Result<&Gate, CommError> {
        self.gates.get(gate.0).ok_or(CommError::InvalidGate(gate.0))
    }
}

/// Queue depths across the library's layers (see [`CommCore::pending`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PendingCounts {
    /// Send items waiting in collect-layer queues.
    pub collect_items: usize,
    /// Packets (as entries, not yet encoded) waiting in transfer-layer
    /// lists.
    pub xfer_items: usize,
    /// Outbound rendezvous waiting for their CTS.
    pub rdv_awaiting_cts: usize,
    /// Posted receives not yet matched.
    pub posted_recvs: usize,
    /// Unexpected (early) eager messages buffered.
    pub unexpected: usize,
    /// RTS received with no matching receive yet.
    pub pending_rts: usize,
    /// Inbound rendezvous reassemblies in progress.
    pub rdv_reassembling: usize,
    /// Eager messages parked by the resequencer.
    pub eager_out_of_order: usize,
    /// Frames sitting in retransmit windows awaiting acknowledgement
    /// (always 0 with reliability disabled).
    pub unacked_frames: usize,
}

impl PollSource for CommCore {
    fn poll(&self) -> PollOutcome {
        if self.progress() > 0 {
            PollOutcome::Progressed
        } else {
            PollOutcome::Idle
        }
    }
    fn name(&self) -> &str {
        "nm-core"
    }
}

/// A [`PollSource`] restricted to one lane shard of a core (see
/// [`CommCore::progress_shard`]): it keeps the core alive and polls
/// only its shard's VCI contexts each pass.
pub struct VciPollSource {
    core: Arc<CommCore>,
    shard: usize,
    num_shards: usize,
    name: String,
}

impl PollSource for VciPollSource {
    fn poll(&self) -> PollOutcome {
        if self.core.progress_shard(self.shard, self.num_shards) > 0 {
            PollOutcome::Progressed
        } else {
            PollOutcome::Idle
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for CommCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommCore")
            .field("gates", &self.gates.len())
            .field("locking", &self.config.locking)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}
