//! Communicators and endpoints: the per-rank API handles.
//!
//! Point-to-point operations follow the "scalable communication
//! endpoints" shape: [`Comm::peer`] returns an [`Endpoint`] bound to
//! one peer rank, and all operations live there — blocking
//! (`send`/`recv`), non-blocking (`isend`/`irecv` + [`Endpoint::wait`]),
//! and async ([`Endpoint::send_async`]/[`Endpoint::recv_async`], which
//! return futures whose wakers register with the progress engine; see
//! `docs/COMPLETION.md`). The former tagless/addressed shim sets
//! (`comm.send`, `comm.send_to`, ...) are gone; the crate compiles with
//! `#![deny(deprecated)]`.
//!
//! ```
//! use nm_mpi::{World, ThreadLevel};
//!
//! let world = World::pair(ThreadLevel::Multiple);
//! let (a, b) = world.comm_pair();
//! let to_b = a.peer(1).unwrap();      // or a.sole_peer() in a pair
//! let from_a = b.peer(0).unwrap();
//! let echo = std::thread::spawn(move || {
//!     let m = from_a.recv(1).unwrap();
//!     from_a.send(1, &m).unwrap();
//! });
//! to_b.send(1, b"ping").unwrap();
//! assert_eq!(to_b.recv(1).unwrap(), b"ping");
//! echo.join().unwrap();
//! ```
//!
//! [`Comm::wait`]/[`Comm::wait_all`] surface request errors as
//! `Result<(), MpiError>`, forwarding `nm-core`'s own fallible waits —
//! the two layers share one error story via `From<CommError>`.

use std::sync::Arc;

use bytes::Bytes;

use nm_core::{CommCore, CommError, Completion, GateId, Request};
use nm_progress::WakerTable;
use nm_sync::WaitStrategy;

use crate::future::{RecvFuture, SendFuture};

nm_metrics::metric_handles! {
    /// Latency of facade-level blocking waits ([`Endpoint::wait`] /
    /// [`Comm::wait`], ns) — the application-visible wait cost, one layer
    /// above `core.wait_ns`.
    fn mpi_wait_hist() -> Histogram = histogram("mpi.wait_ns");
}

/// Errors surfaced by the MPI façade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// Underlying communication error.
    Comm(CommError),
    /// Rank outside the world, or self-addressed message.
    InvalidRank(usize),
}

impl std::fmt::Display for MpiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiError::Comm(e) => write!(f, "{e}"),
            MpiError::InvalidRank(r) => write!(f, "invalid rank {r}"),
        }
    }
}

impl std::error::Error for MpiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpiError::Comm(e) => Some(e),
            MpiError::InvalidRank(_) => None,
        }
    }
}

impl From<CommError> for MpiError {
    fn from(e: CommError) -> Self {
        MpiError::Comm(e)
    }
}

/// A rank's handle into the world.
///
/// Cloneable; clones share the rank's communication core. Thread safety
/// follows the world's [`ThreadLevel`](crate::ThreadLevel). Point-to-point
/// operations live on [`Endpoint`] (see [`Comm::peer`]); `Comm` keeps
/// the world-level surface: collectives, [`barrier`](Comm::barrier),
/// [`wait`](Comm::wait).
#[derive(Clone)]
pub struct Comm {
    rank: usize,
    core: Arc<CommCore>,
    /// `peers[gate] = rank` mapping (dense, self skipped).
    peers: Vec<usize>,
    wait: WaitStrategy,
    /// Waker table shared by every async operation of this rank; clones
    /// of the communicator (and its endpoints) deliver into the same
    /// table.
    wakers: Arc<WakerTable>,
}

/// One rank's communication channel toward a single peer.
///
/// Obtained from [`Comm::peer`] (or [`Comm::sole_peer`] in two-rank
/// worlds); cheap to create and to clone, and usable from any thread the
/// world's [`ThreadLevel`](crate::ThreadLevel) allows. Holding an
/// `Endpoint` amortizes the peer→gate lookup across operations.
#[derive(Clone)]
pub struct Endpoint {
    rank: usize,
    peer: usize,
    gate: GateId,
    core: Arc<CommCore>,
    wait: WaitStrategy,
    wakers: Arc<WakerTable>,
}

impl Endpoint {
    /// The local rank this endpoint belongs to.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The remote rank this endpoint reaches.
    pub fn peer(&self) -> usize {
        self.peer
    }

    /// The gate id this endpoint maps to on the local core.
    pub fn gate(&self) -> GateId {
        self.gate
    }

    /// The waiting strategy used by this endpoint's blocking operations.
    pub fn wait_strategy(&self) -> WaitStrategy {
        self.wait
    }

    /// Returns a clone using a different waiting strategy.
    pub fn with_wait_strategy(&self, wait: WaitStrategy) -> Endpoint {
        let mut e = self.clone();
        e.wait = wait;
        e
    }

    /// Blocking send.
    pub fn send(&self, tag: u64, data: &[u8]) -> Result<(), MpiError> {
        self.core
            .send(self.gate, tag, Bytes::copy_from_slice(data), self.wait)?;
        Ok(())
    }

    /// Blocking receive.
    pub fn recv(&self, tag: u64) -> Result<Vec<u8>, MpiError> {
        Ok(self.core.recv(self.gate, tag, self.wait)?.to_vec())
    }

    /// Non-blocking send.
    pub fn isend(&self, tag: u64, data: &[u8]) -> Result<Request, MpiError> {
        self.isend_bytes(tag, Bytes::copy_from_slice(data))
    }

    /// Non-blocking zero-copy send.
    pub fn isend_bytes(&self, tag: u64, data: Bytes) -> Result<Request, MpiError> {
        Ok(self.core.isend(self.gate, tag, data)?)
    }

    /// Non-blocking receive.
    pub fn irecv(&self, tag: u64) -> Result<Request, MpiError> {
        Ok(self.core.irecv(self.gate, tag)?)
    }

    /// Non-blocking wildcard receive (`MPI_ANY_TAG`): matches the
    /// earliest message of any tag; see [`Request::matched_tag`].
    pub fn irecv_any(&self) -> Result<Request, MpiError> {
        Ok(self.core.irecv_any(self.gate)?)
    }

    /// Blocking wildcard receive: returns `(tag, payload)`.
    pub fn recv_any(&self) -> Result<(u64, Vec<u8>), MpiError> {
        let req = self.irecv_any()?;
        self.wait(&req)?;
        let tag = req.matched_tag().expect("completed recv has a tag");
        Ok((
            tag,
            req.take_data().expect("completed recv has data").to_vec(),
        ))
    }

    /// Combined send+receive with this peer (classic pingpong body).
    pub fn sendrecv(&self, tag: u64, data: &[u8]) -> Result<Vec<u8>, MpiError> {
        let recv = self.irecv(tag)?;
        let send = self.isend(tag, data)?;
        self.wait(&send)?;
        self.wait(&recv)?;
        Ok(recv
            .take_data()
            .expect("completed recv carries data")
            .to_vec())
    }

    /// Waits for a request with this endpoint's strategy, surfacing any
    /// request error.
    pub fn wait(&self, req: &Request) -> Result<(), MpiError> {
        let _t = mpi_wait_hist().timer();
        self.core.wait(req, self.wait)?;
        Ok(())
    }

    /// Like [`Endpoint::wait`], bounded by `timeout`: if the deadline
    /// passes first the request finishes with
    /// [`CommError::Timeout`](nm_core::CommError::Timeout) (its posting
    /// is reaped, nothing leaks) and `Err` is returned.
    pub fn wait_deadline(
        &self,
        req: &Request,
        timeout: std::time::Duration,
    ) -> Result<(), MpiError> {
        let _t = mpi_wait_hist().timer();
        self.core.wait_deadline(req, self.wait, timeout)?;
        Ok(())
    }

    /// Blocking receive bounded by `timeout`.
    pub fn recv_timeout(
        &self,
        tag: u64,
        timeout: std::time::Duration,
    ) -> Result<Vec<u8>, MpiError> {
        let req = self.irecv(tag)?;
        self.wait_deadline(&req, timeout)?;
        Ok(req.take_data().expect("completed recv has data").to_vec())
    }

    // ---- async facade --------------------------------------------------

    /// Async send: posts immediately, resolves when the message is
    /// injected. The returned future's waker registers with the progress
    /// engine's waker table and is woken on completion delivery — no
    /// thread blocks per operation, so one executor can multiplex
    /// thousands of outstanding operations.
    ///
    /// Something must drive progression while the future is pending: a
    /// [`ProgressionThread`](nm_progress::ProgressionThread), scheduler
    /// hooks, or an executor poll hook such as
    /// [`exec::block_on_with`](crate::exec::block_on_with).
    pub fn send_async(&self, tag: u64, data: &[u8]) -> SendFuture {
        self.send_async_bytes(tag, Bytes::copy_from_slice(data))
    }

    /// Zero-copy [`Endpoint::send_async`].
    pub fn send_async_bytes(&self, tag: u64, data: Bytes) -> SendFuture {
        match self
            .core
            .isend_with(self.gate, tag, data, Completion::waker(&self.wakers))
        {
            Ok(req) => SendFuture::pending(req, Arc::clone(&self.wakers)),
            Err(e) => SendFuture::failed(e.into()),
        }
    }

    /// Async receive: resolves to the payload once a matching message
    /// arrives. Zero-copy (`Bytes`); see [`Endpoint::send_async`] for
    /// the progression requirement.
    pub fn recv_async(&self, tag: u64) -> RecvFuture {
        match self
            .core
            .irecv_with(self.gate, tag, Completion::waker(&self.wakers))
        {
            Ok(req) => RecvFuture::pending(req, Arc::clone(&self.wakers)),
            Err(e) => RecvFuture::failed(e.into()),
        }
    }

    /// [`Endpoint::recv_async`] with a deadline: unless a matching
    /// message arrives within `timeout`, a progression pass finishes the
    /// request with [`CommError::Timeout`](nm_core::CommError::Timeout)
    /// and the future resolves to `Err` — no thread watches the clock.
    pub fn recv_async_deadline(&self, tag: u64, timeout: std::time::Duration) -> RecvFuture {
        match self
            .core
            .irecv_with(self.gate, tag, Completion::waker(&self.wakers))
        {
            Ok(req) => {
                self.core.expire_after(&req, timeout);
                RecvFuture::pending(req, Arc::clone(&self.wakers))
            }
            Err(e) => RecvFuture::failed(e.into()),
        }
    }

    /// The waker table async operations of this endpoint deliver into
    /// (diagnostics: its `len()` is the number of parked futures).
    pub fn waker_table(&self) -> &Arc<WakerTable> {
        &self.wakers
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("rank", &self.rank)
            .field("peer", &self.peer)
            .field("gate", &self.gate)
            .finish()
    }
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        core: Arc<CommCore>,
        peers: Vec<usize>,
        wait: WaitStrategy,
    ) -> Self {
        Comm {
            rank,
            core,
            peers,
            wait,
            wakers: Arc::new(WakerTable::new()),
        }
    }

    /// This communicator's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.peers.len() + 1
    }

    /// The underlying communication core.
    pub fn core(&self) -> &Arc<CommCore> {
        &self.core
    }

    /// The default waiting strategy.
    pub fn wait_strategy(&self) -> WaitStrategy {
        self.wait
    }

    /// Returns a clone using a different default waiting strategy.
    pub fn with_wait_strategy(&self, wait: WaitStrategy) -> Comm {
        let mut c = self.clone();
        c.wait = wait;
        c
    }

    fn gate(&self, peer: usize) -> Result<GateId, MpiError> {
        if peer == self.rank {
            return Err(MpiError::InvalidRank(peer));
        }
        self.peers
            .iter()
            .position(|&p| p == peer)
            .map(GateId)
            .ok_or(MpiError::InvalidRank(peer))
    }

    // ---- endpoints -----------------------------------------------------

    /// The endpoint toward rank `peer`.
    ///
    /// Fails with [`MpiError::InvalidRank`] for self or out-of-world
    /// ranks. The endpoint inherits this communicator's waiting strategy.
    pub fn peer(&self, peer: usize) -> Result<Endpoint, MpiError> {
        Ok(Endpoint {
            rank: self.rank,
            peer,
            gate: self.gate(peer)?,
            core: Arc::clone(&self.core),
            wait: self.wait,
            wakers: Arc::clone(&self.wakers),
        })
    }

    /// The endpoint toward the only peer of a two-rank world.
    pub fn sole_peer(&self) -> Result<Endpoint, MpiError> {
        if self.peers.len() == 1 {
            self.peer(self.peers[0])
        } else {
            Err(MpiError::InvalidRank(usize::MAX))
        }
    }

    /// Endpoints toward every peer rank, in rank order.
    pub fn peers(&self) -> Vec<Endpoint> {
        self.peers
            .iter()
            .map(|&p| self.peer(p).expect("peer table entries are valid"))
            .collect()
    }

    // ---- waiting -------------------------------------------------------

    /// Waits for a request with this communicator's strategy, surfacing
    /// any request error.
    pub fn wait(&self, req: &Request) -> Result<(), MpiError> {
        let _t = mpi_wait_hist().timer();
        self.core.wait(req, self.wait)?;
        Ok(())
    }

    /// Like [`Comm::wait`], bounded by `timeout` (see
    /// [`Endpoint::wait_deadline`]).
    pub fn wait_deadline(
        &self,
        req: &Request,
        timeout: std::time::Duration,
    ) -> Result<(), MpiError> {
        let _t = mpi_wait_hist().timer();
        self.core.wait_deadline(req, self.wait, timeout)?;
        Ok(())
    }

    /// Waits for all requests; reports the first error after every
    /// request has completed (no request is left unwaited).
    pub fn wait_all(&self, reqs: &[Request]) -> Result<(), MpiError> {
        let mut first_err = None;
        for r in reqs {
            if let Err(e) = self.wait(r) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    // ---- collectives helpers -------------------------------------------

    /// A simple linear barrier rooted at rank 0 (uses the reserved
    /// internal tag space).
    pub fn barrier(&self) -> Result<(), MpiError> {
        const BARRIER_TAG: u64 = u64::MAX; // reserved
        let n = self.size();
        if n == 1 {
            return Ok(());
        }
        if self.rank == 0 {
            for peer in 1..n {
                self.peer(peer)?.recv(BARRIER_TAG)?;
            }
            for peer in 1..n {
                self.peer(peer)?.send(BARRIER_TAG, b"")?;
            }
        } else {
            let root = self.peer(0)?;
            root.send(BARRIER_TAG, b"")?;
            root.recv(BARRIER_TAG)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Comm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Comm")
            .field("rank", &self.rank)
            .field("size", &self.size())
            .finish()
    }
}
