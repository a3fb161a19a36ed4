//! Core configuration.

use std::sync::Arc;

use nm_progress::{OffloadMode, TaskletEngine};

use crate::locking::LockingMode;
use crate::strategy::StrategyKind;

/// Configuration of a communication core.
#[derive(Clone)]
pub struct CoreConfig {
    /// Thread-safety scheme (§3.1–3.2).
    pub locking: LockingMode,
    /// Messages up to this size go eagerly in one packet; larger ones use
    /// the rendezvous protocol (RTS/CTS + chunked data).
    pub eager_threshold: usize,
    /// Scheduling strategy of the optimization layer.
    pub strategy: StrategyKind,
    /// Payload budget for one aggregated packet (entry headers included).
    pub max_aggregation: usize,
    /// Where submission work runs (§4.2 / Fig 9).
    pub offload: OffloadMode,
    /// Tasklet engine for [`OffloadMode::Tasklet`].
    pub tasklet_engine: Option<Arc<TaskletEngine>>,
    /// Preferred rendezvous chunk size (clamped to the rail MTU).
    pub rdv_chunk: usize,
    /// End-to-end reliability protocol (ack/retransmit over lossy wires).
    pub reliability: ReliabilityConfig,
}

/// Knobs of the end-to-end reliability protocol.
///
/// Disabled by default: the simulated fabric is lossless, and an
/// unreliable lane sends bare frames with no checksum (a core without
/// reliability refuses a driver whose `DriverCaps::may_corrupt` is set).
/// With `enabled` the core seals every frame with a CRC-32, sequences it
/// per rail, acknowledges cumulatively (a bare ack
/// also reports how many frames sit behind the first hole), suppresses
/// duplicates, retransmits a hole at once when the peer reports three or
/// more frames behind it and otherwise on timeout with exponential
/// backoff, and fails over to surviving rails when one exhausts its
/// retries.
///
/// The timeout is measured, not set: each lane keeps RFC 6298's
/// smoothed round trip and variation from its acks (one sample per ack
/// that advances the window, taken from the newest frame it covers,
/// never from a resent one), and times a loss out after
/// `srtt + 4·rttvar`, clamped to `[rto_base_ns, rto_max_ns]`, doubling
/// per retry up to `rto_max_ns`. Before the first sample the timeout is
/// `rto_base_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Run the ack/retransmit protocol over sealed (CRC-checked) frames.
    pub enabled: bool,
    /// Maximum unacknowledged frames in flight per rail.
    pub window: usize,
    /// Retransmit timeout, in nanoseconds, before a lane has measured a
    /// round trip, and the floor of the measured one. Setting it beyond
    /// reach (with `rto_max_ns`) keeps the timer out of a test.
    pub rto_base_ns: u64,
    /// Retransmit timeout ceiling (backoff doubles up to this).
    pub rto_max_ns: u64,
    /// Retransmits of one frame before the rail counts an exhaustion.
    pub max_retries: u32,
    /// Consecutive exhaustions that mark a rail dead (failover).
    pub rail_dead_threshold: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            enabled: false,
            window: 64,
            rto_base_ns: 20_000,    // 20 µs floor
            rto_max_ns: 50_000_000, // 50 ms cap
            max_retries: 8,
            rail_dead_threshold: 3,
        }
    }
}

impl ReliabilityConfig {
    /// An enabled configuration with the default knobs.
    pub fn enabled() -> Self {
        ReliabilityConfig {
            enabled: true,
            ..ReliabilityConfig::default()
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            locking: LockingMode::Fine,
            eager_threshold: 16 * 1024,
            strategy: StrategyKind::Aggregate,
            max_aggregation: 16 * 1024,
            offload: OffloadMode::Inline,
            tasklet_engine: None,
            rdv_chunk: 16 * 1024,
            reliability: ReliabilityConfig::default(),
        }
    }
}

impl CoreConfig {
    /// Sets the locking mode.
    pub fn locking(mut self, mode: LockingMode) -> Self {
        self.locking = mode;
        self
    }

    /// Sets the eager/rendezvous threshold.
    pub fn eager_threshold(mut self, bytes: usize) -> Self {
        self.eager_threshold = bytes;
        self
    }

    /// Sets the scheduling strategy.
    pub fn strategy(mut self, strategy: StrategyKind) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the offload mode (tasklet mode also needs
    /// [`CoreConfig::tasklet_engine`]).
    pub fn offload(mut self, mode: OffloadMode) -> Self {
        self.offload = mode;
        self
    }

    /// Provides the tasklet engine for [`OffloadMode::Tasklet`].
    pub fn tasklet_engine(mut self, engine: Arc<TaskletEngine>) -> Self {
        self.tasklet_engine = Some(engine);
        self
    }

    /// Sets the rendezvous chunk size.
    pub fn rdv_chunk(mut self, bytes: usize) -> Self {
        self.rdv_chunk = bytes;
        self
    }

    /// Configures the end-to-end reliability protocol.
    pub fn reliability(mut self, r: ReliabilityConfig) -> Self {
        self.reliability = r;
        self
    }
}

impl std::fmt::Debug for CoreConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreConfig")
            .field("locking", &self.locking)
            .field("eager_threshold", &self.eager_threshold)
            .field("strategy", &self.strategy)
            .field("offload", &self.offload)
            .field("reliability", &self.reliability.enabled)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_setters() {
        let c = CoreConfig::default()
            .locking(LockingMode::Coarse)
            .eager_threshold(1024)
            .strategy(StrategyKind::Fifo)
            .offload(OffloadMode::IdleCore)
            .rdv_chunk(4096);
        assert_eq!(c.locking, LockingMode::Coarse);
        assert_eq!(c.eager_threshold, 1024);
        assert_eq!(c.strategy, StrategyKind::Fifo);
        assert_eq!(c.offload, OffloadMode::IdleCore);
        assert_eq!(c.rdv_chunk, 4096);
    }

    #[test]
    fn defaults_are_paper_like() {
        let c = CoreConfig::default();
        assert_eq!(c.locking, LockingMode::Fine);
        assert!(c.eager_threshold <= 32 * 1024, "must fit the MX MTU");
    }

    #[test]
    fn reliability_defaults_off_and_enable_helper() {
        let c = CoreConfig::default();
        assert!(!c.reliability.enabled, "lossless fabric needs no acks");
        let r = ReliabilityConfig::enabled();
        assert!(r.enabled);
        assert!(r.window > 0);
        assert!(r.rto_base_ns > 0 && r.rto_base_ns <= r.rto_max_ns);
        assert!(r.max_retries > 0 && r.rail_dead_threshold > 0);
        let c = CoreConfig::default().reliability(r.clone());
        assert_eq!(c.reliability, r);
    }
}
