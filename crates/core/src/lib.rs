//! The NewMadeleine-style communication library — the paper's primary
//! study object.
//!
//! `nm-core` is a 3-layer, NIC-driven communication library (paper Fig 1):
//! the application submits messages to the **collect layer** (per-gate
//! lists); whenever a NIC becomes idle, the **optimization layer** computes
//! the best packet arrangement (aggregation, control-first reordering) and
//! hands it to the **transfer layer**, which programs the drivers and
//! polls for completions.
//!
//! The thread-safety study of §3 maps onto [`LockingMode`]:
//!
//! * [`LockingMode::SingleThread`] — no locks, single caller enforced.
//! * [`LockingMode::Coarse`] — one library-wide spinlock per call (Fig 2).
//! * [`LockingMode::Fine`] — one lock per shared list (Fig 4).
//!
//! Waiting (§3.3) is driven by [`nm_sync::WaitStrategy`]; background
//! progression and submission offloading (§4) plug in through
//! `nm-progress` ([`CommCore`] implements
//! [`PollSource`](nm_progress::PollSource), and its
//! [`offloader`](CommCore::offloader) can defer submissions to idle cores
//! or tasklets).
//!
//! ```
//! use nm_core::{CoreBuilder, CoreConfig, GateId, LockingMode};
//! use nm_fabric::LoopbackDriver;
//! use nm_sync::WaitStrategy;
//! use std::sync::Arc;
//!
//! let (da, db) = LoopbackDriver::pair(64);
//! let a = CoreBuilder::new(CoreConfig::default().locking(LockingMode::Fine))
//!     .add_gate(vec![Arc::new(da)])
//!     .build();
//! let b = CoreBuilder::new(CoreConfig::default())
//!     .add_gate(vec![Arc::new(db)])
//!     .build();
//!
//! let send = a.isend(GateId(0), 1, bytes::Bytes::from_static(b"hi")).unwrap();
//! let recv = b.irecv(GateId(0), 1).unwrap();
//! b.wait(&recv, WaitStrategy::Busy).unwrap();
//! a.wait(&send, WaitStrategy::Busy).unwrap();
//! assert_eq!(recv.take_data().unwrap(), bytes::Bytes::from_static(b"hi"));
//! ```
//!
//! Completion does not have to block a thread: each operation can pick a
//! [`Completion`] object at post time ([`CommCore::isend_with`] /
//! [`CommCore::irecv_with`]) — today's flag, a shared
//! [`CompletionQueue`] drained by a few cores, a fire-and-forget
//! handler, or an async waker. See `docs/COMPLETION.md` for the full
//! model and the handler reentrancy rules.

#![warn(missing_docs)]

mod collect;
mod comm;
mod completion;
mod config;
mod error;
mod gate;
mod locking;
#[cfg(test)]
mod matching_proptest;
pub mod metrics;
mod reliability;
mod request;
mod stats;
mod strategy;
mod transfer;
pub mod wire;

pub use comm::{CommCore, CoreBuilder, PendingCounts, VciPollSource};
pub use completion::{Completion, CompletionEvent, CompletionHandler, CompletionQueue};
pub use config::{CoreConfig, ReliabilityConfig};
pub use error::CommError;
pub use gate::GateId;
pub use locking::{LockPolicy, LockingMode, Protected, Section, SectionKind};
pub use request::{Request, RequestKind};
pub use stats::CoreStats;
pub use strategy::{
    AggregateStrategy, ControlFirstStrategy, FifoStrategy, SendItem, SendItemKind, Strategy,
    StrategyKind,
};
