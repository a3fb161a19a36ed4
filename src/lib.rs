//! # nomad — a thread-aware communication stack
//!
//! `nomad` is a Rust reproduction of the system studied in *An analysis of
//! the impact of multi-threading on communication performance* (Trahay,
//! Brunet, Denis — CAC/IPDPS 2009): a NewMadeleine-style communication
//! library with selectable thread-safety strategies, a PIOMan-style I/O
//! progression engine, a Marcel-style two-level scheduler with progression
//! hooks, and simulated high-performance NICs standing in for Myrinet MX /
//! ConnectX InfiniBand hardware.
//!
//! The crates are re-exported here under short names:
//!
//! * [`sync`] — spinlocks, semaphores, wait strategies, completion flags.
//! * [`topo`] — machine topology and thread affinity.
//! * [`fabric`] — simulated NICs, wire models, polling drivers.
//! * [`sched`] — two-level task scheduler with progression hooks.
//! * [`progress`] — poll registry, tasklets, submission offload.
//! * [`core`] — the 3-layer communication library itself.
//! * [`mpi`] — a Mad-MPI-style façade (communicators, tags, thread levels).
//! * [`sim`] — discrete-event deterministic twin.
//! * [`bench`](mod@bench) — the one bench crate: harness library, `figures` binary
//!   and criterion benches that regenerate the paper's figures.
//! * [`metrics`] — observability: always-on latency histograms, gauges,
//!   rate counters and the one counters registry with OpenMetrics/JSON
//!   export; event tracing while a `metrics::trace::record()` recording
//!   is live; per-message span timelines and the failure flight recorder
//!   (see `docs/OBSERVABILITY.md`).
//!
//! ## Quickstart
//!
//! ```
//! use nomad::mpi::{World, ThreadLevel};
//! use nomad::sync::WaitStrategy;
//!
//! // Two in-process "nodes" connected by a simulated Myri-10G rail.
//! let world = World::pair(ThreadLevel::Multiple);
//! let (a, b) = world.comm_pair();
//! // Point-to-point operations live on per-peer endpoints.
//! let (to_b, to_a) = (a.sole_peer().unwrap(), b.sole_peer().unwrap());
//!
//! let echo = std::thread::spawn(move || {
//!     let msg = to_a.recv(0).expect("recv");
//!     to_a.send(0, &msg).expect("send");
//! });
//!
//! to_b.send(0, b"hello network").expect("send");
//! let reply = to_b.recv(0).expect("recv");
//! assert_eq!(&reply[..], b"hello network");
//! echo.join().unwrap();
//! ```

pub use nm_bench as bench;
pub use nm_core as core;
pub use nm_fabric as fabric;
pub use nm_metrics as metrics;
pub use nm_mpi as mpi;
pub use nm_progress as progress;
pub use nm_sched as sched;
pub use nm_sim as sim;
pub use nm_sync as sync;
pub use nm_topo as topo;
