//! PIOMan-style I/O progression engine.
//!
//! The paper's PIOMAN "handles polling in behalf of the communication
//! library and works closely with the thread scheduler. It is able to
//! perform polling inside MARCEL hooks (when a core is idle, on context
//! switch, on timer interrupts) or within tasklets in order to exploit any
//! core of the machine."
//!
//! This crate reproduces that inventory except the MARCEL hooks: the
//! caller's own wait and a progression thread do their work (DESIGN.md,
//! MARCEL row).
//!
//! * [`ProgressEngine`] — a registry of [`PollSource`]s. Going through the
//!   engine (instead of polling the driver directly) costs the lock + list
//!   management the paper measures at ~200 ns (Fig 6).
//! * [`ProgressionThread`] — a dedicated polling thread, optionally bound
//!   to a chosen core; Fig 8's "polling on CPU n" placements. It keeps a
//!   [`SourceCache`] of the engine's list and re-takes the list lock only
//!   when the list's generation moves.
//! * [`Tasklet`] / [`TaskletEngine`] — Linux-softirq-style deferred work
//!   with the serialization guarantees (never concurrent with itself,
//!   re-schedulable while running) whose "complex locking" the paper blames
//!   for the 2 µs offload overhead (Fig 9).
//! * [`Offloader`] — the three submission paths of Fig 9: inline,
//!   idle-core (drained by the progression engine), and tasklet.
//! * [`wait_on`] — strategy-driven waiting that composes a completion flag
//!   with engine polling (busy waiters poll the engine themselves; passive
//!   waiters rely on a progression thread).
//! * [`WakerTable`] — request-id-keyed waker registry behind the async
//!   facade: futures park their [`std::task::Waker`] here and completion
//!   delivery wakes exactly the right task, so no thread blocks per
//!   operation.
//! * [`TimerWheel`] — deadline bookkeeping polled by progression passes;
//!   drives the reliability layer's retransmit timeouts and the API's
//!   deadline-bounded waits without any per-timer thread.

#![warn(missing_docs)]

mod engine;
pub mod metrics;
mod offload;
mod progression_thread;
mod tasklet;
mod timer;
mod wait;
mod waker_table;

pub use engine::{PollOutcome, PollSource, ProgressEngine, SourceCache, SourceId};
pub use offload::{OffloadMode, Offloader};
pub use progression_thread::{IdlePolicy, ProgressionThread};
pub use tasklet::{Tasklet, TaskletEngine};
pub use timer::{TimerId, TimerWheel};
pub use wait::wait_on;
pub use waker_table::WakerTable;
