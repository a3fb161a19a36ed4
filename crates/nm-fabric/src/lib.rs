//! Simulated high-performance network fabric.
//!
//! The paper's testbed is a pair of quad-core Xeon nodes linked by Myri-10G
//! and ConnectX InfiniBand NICs. We have neither, so this crate provides an
//! in-process stand-in that preserves what the experiments actually
//! exercise: a **polling** completion model, an **"NIC idle"** notion that
//! drives the optimization layer, bounded injection queues, calibrated
//! **wire latency and bandwidth**, and (like Myrinet MX) drivers that may
//! declare themselves *not* thread-safe, forcing the library to serialize
//! access to them.
//!
//! * [`ClockSource`] — real (monotonic) or manual (virtual) time; the
//!   discrete-event simulator drives the manual variant.
//! * [`MpmcRing`] — a bounded lock-free MPMC ring (Vyukov queue). Wires
//!   must be internally thread-safe even when the *library* runs in its
//!   "no locking" mode, because the two endpoints always live on
//!   different threads.
//! * [`WireModel`] — latency / bandwidth / per-packet-overhead presets:
//!   [`WireModel::myri_10g`], [`WireModel::connectx_ddr`],
//!   [`WireModel::gige_tcp`], [`WireModel::ideal`].
//! * [`SimNic`] — one endpoint of a point-to-point link.
//! * [`Driver`] — the interface the transfer layer of `nm-core` programs
//!   against, with [`SimNicDriver`] and [`LoopbackDriver`] implementations.
//! * [`Fabric`] — builder for two-node and clique worlds with one or more
//!   rails.

#![warn(missing_docs)]

pub mod chaos;
mod clock;
mod driver;
mod fabric;
pub mod metrics;
mod model;
mod mpmc;
mod nic;

pub use chaos::{ChaosDriver, ChaosStats, FaultKind, FaultPlan};
pub use clock::ClockSource;
pub use driver::{Driver, DriverCaps, LoopbackDriver, PostError, SimNicDriver};
pub use fabric::{Fabric, NodePorts};
pub use model::WireModel;
pub use mpmc::MpmcRing;
pub use nic::{NicCounters, SimNic};
