//! Figure regeneration for the nomad stack: the `figures` binary, one
//! criterion bench per table/figure of the paper (`benches/`), and the
//! harness library both share. The gate for real-stack performance is
//! the stand-alone `benchmark/` package, not this crate.
//!
//! Two measurement modes regenerate the paper's figures:
//!
//! * **Real mode** (this crate) — drives the *actual* library (`nm-core`
//!   over `nm-fabric` NICs) with real threads and real locks and measures
//!   wall-clock latencies. Meaningful on multicore hosts; on a single-CPU
//!   box the busy-wait pingpongs still run correctly but timings are
//!   dominated by preemption.
//! * **Sim mode** (`nm-sim`) — the deterministic virtual-time twin.
//!
//! [`calibrate`] measures the host's primitive costs (lock cycle, context
//! switch, engine pass) so the simulator can be fed host-calibrated
//! constants and cross-checked against real-mode results, and to
//! reproduce the paper's in-text constants ("Table 1").

#![warn(missing_docs)]

pub mod breakdown;
pub mod calibrate;
pub mod compute_loss;
pub mod concurrent;
pub mod fromtrace;
pub mod msgrate;
pub mod overlap;
pub mod pingpong;
pub mod report;
pub mod stats;
pub mod table;

pub use nm_sim::experiments::Series;
