//! Synchronization primitives for the nomad communication stack.
//!
//! This crate provides the low-level building blocks that the paper's
//! thread-safety study is about:
//!
//! * [`SpinLock`] / [`RawSpin`] — test-and-test-and-set spinlocks with
//!   exponential backoff. The paper (§3.1) uses spinlocks for the very short
//!   critical sections of the communication library ("for such very short
//!   critical sections, spinlocks are more efficient than plain mutex").
//! * [`TicketLock`] — a fair FIFO spinlock, used for ablation benches.
//! * [`Semaphore`] — a counting semaphore built on a mutex + condition
//!   variable, the blocking primitive behind *passive waiting* (§3.3).
//! * [`WaitStrategy`] — busy waiting, passive waiting, and the *fixed spin*
//!   hybrid of Karlin et al. that spins for a bounded duration before
//!   blocking (§3.3).
//! * [`CompletionFlag`] — a one-shot event with strategy-driven waiting;
//!   every communication request in `nm-core` completes through one of
//!   these.
//! * [`Backoff`] — bounded exponential backoff for contended spin loops.
//! * [`stats`] — the contended-wait histogram; per-lock
//!   acquisition/contention counters are `nm_metrics::LockStats`, which
//!   the calibration benches read to reproduce the paper's in-text
//!   constants (70 ns per lock cycle, etc.).
//!
//! Memory-ordering discipline follows *Rust Atomics and Locks* (Bos):
//! acquire on lock, release on unlock, and mutex-protected condition
//! variables for blocking paths. The full discipline — lock hierarchy,
//! ordering rules, and how to model-check changes — is documented in
//! `docs/CONCURRENCY.md` at the repository root.
//!
//! # Model checking
//!
//! Every primitive sources its atomics and blocking types from
//! [`sync_shim`], which compiles to plain `std`/`parking_lot` re-exports
//! normally and to the vendored `nm-loom` model checker under
//! `RUSTFLAGS="--cfg loom"`. `cargo test -p nm-sync --test loom` with
//! that cfg explores randomized thread interleavings and verifies the
//! declared memory orderings symbolically.

#![warn(missing_docs)]

mod backoff;
mod flag;
pub mod lockcheck;
mod sem;
mod spin;
pub mod stats;
pub mod sync_shim;
mod ticket;
mod wait;
mod waker;

pub use backoff::Backoff;
pub use flag::CompletionFlag;
pub use sem::Semaphore;
pub use spin::{RawSpin, SpinGuard, SpinLock};
pub use ticket::{TicketGuard, TicketLock};
pub use wait::WaitStrategy;
pub use waker::WakerCell;

pub use crossbeam_utils::CachePadded;
