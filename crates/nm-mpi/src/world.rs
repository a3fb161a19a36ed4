//! World construction: ranks wired through the simulated fabric.

use std::sync::Arc;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, LockingMode};
use nm_fabric::{ClockSource, Fabric, NodePorts, WireModel};
use nm_progress::OffloadMode;
use nm_sync::WaitStrategy;

use crate::comm::Comm;

/// MPI thread-support levels (`MPI_THREAD_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThreadLevel {
    /// Only one thread exists.
    Single,
    /// Multiple threads, but only the main one communicates.
    Funneled,
    /// Multiple threads communicate, never concurrently.
    Serialized,
    /// Any thread communicates at any time (the paper's focus).
    Multiple,
}

impl ThreadLevel {
    /// The locking mode implementing this level.
    pub fn locking(&self) -> LockingMode {
        match self {
            ThreadLevel::Single => LockingMode::SingleThread,
            // One caller at a time: the cheap library-wide lock suffices.
            ThreadLevel::Funneled | ThreadLevel::Serialized => LockingMode::Coarse,
            ThreadLevel::Multiple => LockingMode::Fine,
        }
    }
}

/// An incoherent [`WorldBuilder`] configuration, caught by
/// [`WorldBuilder::validate`] before any core is built.
///
/// These used to surface as panics deep inside `CoreBuilder::build` (or
/// as hangs at the first blocking wait); the builder now rejects them up
/// front with a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// No rail models configured: ranks would have no wires between them.
    NoRails,
    /// `ThreadLevel::Single` with a waiting strategy that can block: with
    /// no locks and no concurrent progression thread, a blocked waiter
    /// can never be signalled.
    SingleThreadBlockingWait(WaitStrategy),
    /// A submission offload mode with a non-thread-safe locking mode:
    /// offloaded work runs on another thread.
    OffloadNeedsThreadSafety(OffloadMode, LockingMode),
    /// `OffloadMode::Tasklet` without a tasklet engine to run the work.
    TaskletOffloadWithoutEngine,
    /// The eager threshold plus protocol headers exceeds a rail's MTU, so
    /// a maximal eager message could never be encoded into one packet.
    EagerExceedsMtu {
        /// Configured eager threshold (payload bytes).
        eager_threshold: usize,
        /// Per-message, per-packet and per-frame header bytes reserved.
        headers: usize,
        /// Smallest MTU across the configured rails.
        min_mtu: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoRails => write!(f, "world has no rails"),
            ConfigError::SingleThreadBlockingWait(w) => write!(
                f,
                "ThreadLevel::Single cannot use blocking wait strategy {w:?}: \
                 nothing would ever wake the waiter"
            ),
            ConfigError::OffloadNeedsThreadSafety(o, l) => write!(
                f,
                "offload mode {o:?} runs submission on another thread and \
                 needs a thread-safe locking mode, got {l:?}"
            ),
            ConfigError::TaskletOffloadWithoutEngine => {
                write!(f, "OffloadMode::Tasklet requires a tasklet engine")
            }
            ConfigError::EagerExceedsMtu {
                eager_threshold,
                headers,
                min_mtu,
            } => write!(
                f,
                "eager threshold {eager_threshold} + {headers} header bytes \
                 exceeds the smallest rail MTU {min_mtu}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`World`] construction parameters.
///
/// Validated as a whole by [`WorldBuilder::validate`] /
/// [`World::try_with_config`]: incoherent combinations (blocking waits at
/// `ThreadLevel::Single`, offload without thread safety, eager messages
/// that cannot fit a rail MTU) are rejected with a typed
/// [`ConfigError`] instead of panicking mid-construction.
#[derive(Clone)]
pub struct WorldBuilder {
    /// Thread level (determines the locking mode).
    pub level: ThreadLevel,
    /// One wire model per rail between each pair of ranks.
    pub rails: Vec<WireModel>,
    /// Base core configuration (locking is overridden by `level`).
    pub core: CoreConfig,
    /// Whether drivers are thread-safe (MX-style drivers are not).
    pub thread_safe_drivers: bool,
    /// Default waiting strategy of the communicators.
    pub wait: WaitStrategy,
    /// Clock the fabric stamps packets with.
    pub clock: ClockSource,
}

impl WorldBuilder {
    /// A world at `level` over one Myri-10G rail on real time, busy waits.
    pub fn new(level: ThreadLevel) -> Self {
        WorldBuilder {
            level,
            rails: vec![WireModel::myri_10g()],
            core: CoreConfig::default(),
            thread_safe_drivers: true,
            wait: WaitStrategy::Busy,
            clock: ClockSource::real(),
        }
    }

    /// Replaces the rail models.
    pub fn rails(mut self, rails: Vec<WireModel>) -> Self {
        self.rails = rails;
        self
    }

    /// Replaces the base core configuration.
    pub fn core(mut self, core: CoreConfig) -> Self {
        self.core = core;
        self
    }

    /// Sets the communicators' default waiting strategy.
    pub fn wait(mut self, wait: WaitStrategy) -> Self {
        self.wait = wait;
        self
    }

    /// Sets the fabric clock source.
    pub fn clock(mut self, clock: ClockSource) -> Self {
        self.clock = clock;
        self
    }

    /// Sets driver thread safety (MX-style drivers are not thread-safe).
    pub fn thread_safe_drivers(mut self, safe: bool) -> Self {
        self.thread_safe_drivers = safe;
        self
    }

    /// Checks the configuration as a whole for coherence.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.rails.is_empty() {
            return Err(ConfigError::NoRails);
        }
        if self.level == ThreadLevel::Single && self.wait.may_block() {
            return Err(ConfigError::SingleThreadBlockingWait(self.wait));
        }
        let locking = self.level.locking();
        if self.core.offload != OffloadMode::Inline && !locking.thread_safe() {
            return Err(ConfigError::OffloadNeedsThreadSafety(
                self.core.offload,
                locking,
            ));
        }
        if self.core.offload == OffloadMode::Tasklet && self.core.tasklet_engine.is_none() {
            return Err(ConfigError::TaskletOffloadWithoutEngine);
        }
        // The sum `CoreBuilder::build` asserts: the sealed frame header
        // and the span word are reserved on every lane.
        let headers = nm_core::wire::ENTRY_HEADER
            + nm_core::wire::PACKET_HEADER
            + nm_core::wire::FRAME_HEADER
            + nm_core::wire::FRAME_SPAN_BYTES;
        let min_mtu = self
            .rails
            .iter()
            .map(|r| r.mtu)
            .min()
            .expect("rails checked non-empty above");
        if self.core.eager_threshold + headers > min_mtu {
            return Err(ConfigError::EagerExceedsMtu {
                eager_threshold: self.core.eager_threshold,
                headers,
                min_mtu,
            });
        }
        Ok(())
    }

    /// Validates, then builds a world of `n` ranks.
    pub fn build(self, n: usize) -> Result<World, ConfigError> {
        World::try_with_config(n, self)
    }
}

/// An in-process world of communicating ranks.
pub struct World {
    comms: Vec<Comm>,
    /// `ports[i][j]`: the fabric ports rank `i` uses toward rank `j`.
    ports: Vec<Vec<Option<NodePorts>>>,
    clock: ClockSource,
}

impl World {
    /// A two-rank world with defaults (one Myri-10G rail, busy waits).
    pub fn pair(level: ThreadLevel) -> Self {
        Self::with_config(2, WorldBuilder::new(level))
    }

    /// A fully connected world of `n` ranks with defaults.
    pub fn clique(n: usize, level: ThreadLevel) -> Self {
        Self::with_config(n, WorldBuilder::new(level))
    }

    /// A world of `n` ranks with explicit configuration; panics on an
    /// invalid configuration (see [`World::try_with_config`]).
    pub fn with_config(n: usize, config: WorldBuilder) -> Self {
        match Self::try_with_config(n, config) {
            Ok(w) => w,
            Err(e) => panic!("invalid world configuration: {e}"),
        }
    }

    /// A world of `n` ranks with explicit, validated configuration.
    pub fn try_with_config(n: usize, config: WorldBuilder) -> Result<Self, ConfigError> {
        assert!(n >= 2, "a world needs at least two ranks");
        config.validate()?;

        // Route the tracer's clock through the fabric's: manual (sim)
        // clocks make traces bit-deterministic, real clocks stay real.
        if let ClockSource::Manual(ns) = &config.clock {
            nm_trace::install_virtual_clock(Arc::clone(ns));
        } else {
            nm_trace::install_real_clock();
        }

        let fabric = Fabric::new(config.clock.clone());
        let ports = fabric.clique(n, &config.rails, config.thread_safe_drivers);

        let mut comms = Vec::with_capacity(n);
        #[allow(clippy::needless_range_loop)] // rank/peer double-index the matrix
        for rank in 0..n {
            let mut builder = CoreBuilder::new(config.core.clone().locking(config.level.locking()));
            // Gate g of rank r reaches peer (g < r ? g : g + 1): dense gate
            // ids with the self-entry skipped.
            let mut peers = Vec::new();
            for peer in 0..n {
                if peer == rank {
                    continue;
                }
                let port = ports[rank][peer]
                    .as_ref()
                    .expect("clique is fully connected");
                builder = builder.add_gate(port.drivers());
                peers.push(peer);
            }
            let core = builder.build();
            comms.push(Comm::new(rank, core, peers, config.wait));
        }
        Ok(World {
            comms,
            ports,
            clock: config.clock,
        })
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.comms.len()
    }

    /// The communicator of `rank` (cloneable, thread-safe per its level).
    pub fn comm(&self, rank: usize) -> Comm {
        self.comms[rank].clone()
    }

    /// Convenience for two-rank worlds: both communicators.
    pub fn comm_pair(&self) -> (Comm, Comm) {
        assert_eq!(self.size(), 2, "comm_pair needs a two-rank world");
        (self.comm(0), self.comm(1))
    }

    /// The underlying core of `rank` (for progression-engine wiring).
    pub fn core(&self, rank: usize) -> Arc<CommCore> {
        self.comms[rank].core().clone()
    }

    /// Fabric ports from `rank` toward `peer` (driver counters for
    /// benches); `None` on the diagonal.
    pub fn ports(&self, rank: usize, peer: usize) -> Option<&NodePorts> {
        self.ports[rank][peer].as_ref()
    }

    /// The fabric clock.
    pub fn clock(&self) -> &ClockSource {
        &self.clock
    }

    /// Gate id rank `from` uses to reach `to`.
    pub fn gate_for(&self, from: usize, to: usize) -> GateId {
        assert_ne!(from, to, "no self gate");
        GateId(if to < from { to } else { to - 1 })
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World").field("size", &self.size()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_levels_map_to_locking() {
        assert_eq!(ThreadLevel::Single.locking(), LockingMode::SingleThread);
        assert_eq!(ThreadLevel::Funneled.locking(), LockingMode::Coarse);
        assert_eq!(ThreadLevel::Serialized.locking(), LockingMode::Coarse);
        assert_eq!(ThreadLevel::Multiple.locking(), LockingMode::Fine);
    }

    #[test]
    fn gate_numbering_skips_self() {
        let w = World::clique(3, ThreadLevel::Multiple);
        assert_eq!(w.gate_for(0, 1), GateId(0));
        assert_eq!(w.gate_for(0, 2), GateId(1));
        assert_eq!(w.gate_for(1, 0), GateId(0));
        assert_eq!(w.gate_for(1, 2), GateId(1));
        assert_eq!(w.gate_for(2, 0), GateId(0));
        assert_eq!(w.gate_for(2, 1), GateId(1));
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn singleton_world_rejected() {
        let _ = World::clique(1, ThreadLevel::Multiple);
    }

    #[test]
    fn default_config_validates() {
        for level in [
            ThreadLevel::Single,
            ThreadLevel::Funneled,
            ThreadLevel::Serialized,
            ThreadLevel::Multiple,
        ] {
            assert_eq!(WorldBuilder::new(level).validate(), Ok(()));
        }
    }

    #[test]
    fn no_rails_rejected() {
        let b = WorldBuilder::new(ThreadLevel::Multiple).rails(vec![]);
        assert_eq!(b.validate(), Err(ConfigError::NoRails));
        assert!(World::try_with_config(2, b).is_err());
    }

    #[test]
    fn single_thread_blocking_wait_rejected() {
        let b = WorldBuilder::new(ThreadLevel::Single).wait(WaitStrategy::Passive);
        assert_eq!(
            b.validate(),
            Err(ConfigError::SingleThreadBlockingWait(WaitStrategy::Passive))
        );
        // Busy waits at Single stay valid.
        assert_eq!(WorldBuilder::new(ThreadLevel::Single).validate(), Ok(()));
    }

    #[test]
    fn offload_without_thread_safety_rejected() {
        let b = WorldBuilder::new(ThreadLevel::Single)
            .core(CoreConfig::default().offload(OffloadMode::IdleCore));
        assert_eq!(
            b.validate(),
            Err(ConfigError::OffloadNeedsThreadSafety(
                OffloadMode::IdleCore,
                LockingMode::SingleThread
            ))
        );
    }

    #[test]
    fn tasklet_offload_without_engine_rejected() {
        let b = WorldBuilder::new(ThreadLevel::Multiple)
            .core(CoreConfig::default().offload(OffloadMode::Tasklet));
        assert_eq!(b.validate(), Err(ConfigError::TaskletOffloadWithoutEngine));
    }

    #[test]
    fn eager_threshold_must_fit_mtu() {
        let rail = WireModel::myri_10g();
        let mtu = rail.mtu;
        let b = WorldBuilder::new(ThreadLevel::Multiple)
            .rails(vec![rail])
            .core(CoreConfig::default().eager_threshold(mtu));
        match b.validate() {
            Err(ConfigError::EagerExceedsMtu { min_mtu, .. }) => assert_eq!(min_mtu, mtu),
            other => panic!("expected EagerExceedsMtu, got {other:?}"),
        }
    }

    #[test]
    fn eager_threshold_boundary_matches_the_core_builder() {
        // 44 header bytes: entry 21, packet 2, sealed frame 13, span 8.
        // The largest threshold that validates must also build; one more
        // is a typed error, not a panic inside `CoreBuilder::build`.
        let mtu = WireModel::myri_10g().mtu;
        let with = |eager| {
            WorldBuilder::new(ThreadLevel::Multiple)
                .core(CoreConfig::default().eager_threshold(eager))
                .build(2)
        };
        assert!(with(mtu - 44).is_ok());
        match with(mtu - 43) {
            Err(ConfigError::EagerExceedsMtu { headers, .. }) => assert_eq!(headers, 44),
            other => panic!("expected EagerExceedsMtu, got {:?}", other.err()),
        }
    }

    #[test]
    fn invalid_config_panics_with_typed_message() {
        let b = WorldBuilder::new(ThreadLevel::Single).wait(WaitStrategy::Passive);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| World::with_config(2, b)))
                .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("invalid world configuration"), "{msg}");
    }
}
