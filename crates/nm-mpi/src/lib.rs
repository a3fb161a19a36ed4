//! Mad-MPI: a thin MPI-flavoured façade over `nm-core`.
//!
//! NewMadeleine "implements both a specific API and a MPI interface called
//! Mad-MPI". This crate is that second interface: ranks, communicators,
//! tags, and the MPI thread levels, mapped onto the core's locking modes:
//!
//! | MPI thread level | [`LockingMode`](nm_core::LockingMode) |
//! |------------------|-----------------|
//! | `Single`         | `SingleThread` (no locks, one thread enforced) |
//! | `Funneled` / `Serialized` | `Coarse` (one caller at a time anyway) |
//! | `Multiple`       | `Fine` (concurrent flows in parallel) |
//!
//! Worlds are in-process: every rank is a communication core connected to
//! its peers through the simulated fabric. Point-to-point operations go
//! through per-peer [`Endpoint`]s (see [`Comm::peer`]):
//!
//! ```
//! use nm_mpi::{World, ThreadLevel};
//!
//! let world = World::pair(ThreadLevel::Multiple);
//! let (a, b) = world.comm_pair();
//! let to_b = a.sole_peer().unwrap();
//! let to_a = b.sole_peer().unwrap();
//! let echo = std::thread::spawn(move || {
//!     let m = to_a.recv(1).unwrap();
//!     to_a.send(1, &m).unwrap();
//! });
//! to_b.send(1, b"ping").unwrap();
//! assert_eq!(to_b.recv(1).unwrap(), b"ping");
//! echo.join().unwrap();
//! ```
//!
//! Beyond blocking and `isend`/`irecv`+`wait`, endpoints expose an async
//! facade — [`Endpoint::send_async`]/[`Endpoint::recv_async`] return
//! futures whose wakers register with the progress engine, and [`exec`]
//! provides minimal block-on executors — so one thread can multiplex
//! thousands of outstanding operations (see `docs/COMPLETION.md`).

#![warn(missing_docs)]
#![deny(deprecated)]

mod coll;
mod comm;
pub mod exec;
mod future;
mod world;

pub use comm::{Comm, Endpoint, MpiError};
pub use future::{RecvFuture, SendFuture};
pub use world::{ConfigError, ThreadLevel, World, WorldBuilder};
