//! Completion objects: *what happens* when a request finishes.
//!
//! The paper's waiting taxonomy (§3.3 busy/passive/fixed-spin) assumes a
//! thread blocks per operation. Completion objects decouple the two, the
//! way LCI makes queues/handlers/futures first-class: every `isend`/
//! `irecv` picks a [`Completion`] at post time and the library delivers
//! the finished request through it, in O(1), at the exact point it
//! signals the request's `CompletionFlag` today:
//!
//! * [`Completion::Flag`] — today's behaviour: signal the flag, wake
//!   whoever called `wait`. The default; zero overhead over the old API.
//! * [`Completion::Queue`] — push a [`CompletionEvent`] onto a shared
//!   [`CompletionQueue`]; any number of drainer threads `poll()`/`wait()`
//!   it. One queue serves unbounded outstanding operations.
//! * [`Completion::Handler`] — run a fire-and-forget closure from the
//!   delivery context, under the re-entrancy rules of
//!   [`CompletionHandler`].
//! * [`Completion::Waker`] — wake the async future awaiting this request
//!   via the progress engine's [`WakerTable`]; the `nm-mpi` facade's
//!   `send_async`/`recv_async` use this.
//!
//! In every case the request's flag is signalled **before** the object
//! is invoked, so `Request::is_complete`/`take_data` observed from a
//! queue drainer, handler, or woken future always see the terminal
//! state.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use nm_metrics::trace_event;
use nm_progress::WakerTable;
use nm_sync::{Semaphore, SpinLock, WaitStrategy};

use crate::metrics;
use crate::request::{Request, RequestKind};

/// A delivered completion: the finished request plus status accessors.
#[derive(Debug, Clone)]
pub struct CompletionEvent {
    req: Request,
}

impl CompletionEvent {
    pub(crate) fn new(req: Request) -> Self {
        CompletionEvent { req }
    }

    /// The completed request's id (the key async wakers use).
    pub fn id(&self) -> u64 {
        self.req.id()
    }

    /// Send or receive.
    pub fn kind(&self) -> RequestKind {
        self.req.kind()
    }

    /// The tag a completed receive matched (`None` for sends).
    pub fn tag(&self) -> Option<u64> {
        self.req.matched_tag()
    }

    /// The completed request (always `is_complete()` here).
    pub fn request(&self) -> &Request {
        &self.req
    }

    /// Consumes the event, returning the request (e.g. to `take_data`).
    pub fn into_request(self) -> Request {
        self.req
    }
}

/// A fire-and-forget completion callback.
///
/// # Re-entrancy rules
///
/// Handlers run in the *delivery context*: inside `progress()`/`wait()`
/// of whichever thread advanced the library, with the core API lock
/// held. Therefore a handler must not:
///
/// * call back into the communication API (`isend`, `irecv`, `wait`,
///   `progress` — deadlock on the API lock under coarse locking);
/// * block (`flag.wait(..)`, `std::thread::park`, semaphore acquires —
///   nothing can make progress until the handler returns; `cargo xtask
///   lint-concurrency` rejects blocking waits inside handler closures);
/// * run long: its latency is charged to the delivering thread and
///   recorded in the `core.handler_ns` histogram.
///
/// A handler that needs to post follow-up communication should push into
/// a [`CompletionQueue`] (or any user queue) and let a non-delivery
/// thread do the posting.
pub type CompletionHandler = Arc<dyn Fn(&CompletionEvent) + Send + Sync>;

/// How a request's completion is delivered, chosen per operation at
/// `isend_with`/`irecv_with` time. In every case the request's flag is
/// signalled before the object is invoked, so a queue drainer, a
/// handler or a woken future always sees the terminal state.
#[derive(Clone, Default)]
pub enum Completion {
    /// Signal the request's `CompletionFlag` only (the classic API).
    #[default]
    Flag,
    /// Push a [`CompletionEvent`] onto this queue.
    Queue(Arc<CompletionQueue>),
    /// Invoke this handler from the delivery context.
    Handler(CompletionHandler),
    /// Wake the async waiter registered for this request id.
    Waker(Arc<WakerTable>),
}

impl Completion {
    /// A queue completion (clones the `Arc`).
    pub fn queue(cq: &Arc<CompletionQueue>) -> Self {
        Completion::Queue(Arc::clone(cq))
    }

    /// A handler completion from a closure.
    pub fn handler<F>(f: F) -> Self
    where
        F: Fn(&CompletionEvent) + Send + Sync + 'static,
    {
        Completion::Handler(Arc::new(f))
    }

    /// A waker completion delivering through `table`.
    pub fn waker(table: &Arc<WakerTable>) -> Self {
        Completion::Waker(Arc::clone(table))
    }
}

impl fmt::Debug for Completion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Completion::Flag => f.write_str("Flag"),
            Completion::Queue(_) => f.write_str("Queue(..)"),
            Completion::Handler(_) => f.write_str("Handler(..)"),
            Completion::Waker(_) => f.write_str("Waker(..)"),
        }
    }
}

/// An MPMC completion queue: the library pushes finished requests, any
/// number of drainer threads `poll()`/`wait()` them out. One queue can
/// carry every outstanding operation of a server — completion stops
/// costing one blocked thread per request.
///
/// # Queue locking
///
/// The queue is a `VecDeque` under a spinlock classed `core.cq`, with
/// a semaphore carrying the permit count. Push and pop are O(1) few-instruction critical sections —
/// the shape the paper prefers spinlocks for — and, unlike an ad-hoc
/// lock-free ring, the lock participates in `lockcheck` and
/// `cargo xtask analyze-locks`, which is what keeps the delivery path
/// (`core.api-global → core.cq`) deadlock-checked. Permits are the
/// source of truth: a permit is released only *after* the event is
/// queued, so an acquired permit always finds an item.
pub struct CompletionQueue {
    /// FIFO of delivered events, spinlock-classed `core.cq`.
    cq_items: SpinLock<VecDeque<CompletionEvent>>,
    /// Permit per queued event; released strictly after the push.
    sem: Semaphore,
    /// Cached depth for `len()` (and the `core.cq_depth` gauge).
    depth: AtomicUsize,
}

impl CompletionQueue {
    /// Creates an empty queue, ready to be shared across operations and
    /// drainer threads.
    pub fn new() -> Arc<Self> {
        Arc::new(CompletionQueue {
            cq_items: SpinLock::with_class("core.cq", VecDeque::new()),
            sem: Semaphore::new(0),
            depth: AtomicUsize::new(0),
        })
    }

    /// Delivery: enqueue `ev` and publish one permit.
    pub(crate) fn push(&self, ev: CompletionEvent) {
        let id = ev.id();
        let after;
        {
            let mut fifo = self.cq_items.lock();
            fifo.push_back(ev);
            after = fifo.len();
        }
        // relaxed: depth is an advisory snapshot (len/gauge); the permit
        // count is the synchronizing source of truth.
        self.depth.fetch_add(1, Ordering::Relaxed);
        metrics::cq_depth().add(1);
        trace_event!(CqPush, id, after as u64);
        self.sem.release();
    }

    /// Removes one event; callers must hold a permit.
    fn pop(&self) -> CompletionEvent {
        let (ev, after) = {
            let mut fifo = self.cq_items.lock();
            let ev = fifo
                .pop_front()
                .expect("completion queue permit without a queued event");
            (ev, fifo.len())
        };
        // relaxed: advisory snapshot; see push.
        self.depth.fetch_sub(1, Ordering::Relaxed);
        metrics::cq_depth().sub(1);
        trace_event!(CqPop, ev.id(), after as u64);
        ev
    }

    /// Takes one completion if any is ready, without waiting.
    pub fn poll(&self) -> Option<CompletionEvent> {
        if self.sem.try_acquire() {
            Some(self.pop())
        } else {
            None
        }
    }

    /// Takes one completion, waiting with `strategy` until one arrives.
    ///
    /// Something else must drive the library (a progression thread or
    /// another thread in `progress`) — the queue
    /// itself polls nothing. Use [`CompletionQueue::wait_with_poll`]
    /// from a thread that should drive progression while it spins.
    pub fn wait(&self, strategy: WaitStrategy) -> CompletionEvent {
        self.sem.acquire_with(strategy);
        self.pop()
    }

    /// Like [`CompletionQueue::wait`], invoking `poll` on every spin
    /// iteration (the progression hook for busy/fixed-spin drainers).
    pub fn wait_with_poll(&self, strategy: WaitStrategy, poll: impl FnMut()) -> CompletionEvent {
        self.sem.acquire_with_poll(strategy, poll);
        self.pop()
    }

    /// Takes one completion, waiting passively at most `timeout`; `None`
    /// if nothing arrived in time. The deadline-bounded drainer loop:
    /// a server thread can wake periodically to check for shutdown
    /// without a sentinel event.
    pub fn wait_timeout(&self, timeout: std::time::Duration) -> Option<CompletionEvent> {
        if self.sem.acquire_timeout(timeout) {
            Some(self.pop())
        } else {
            None
        }
    }

    /// Events currently queued (advisory; racy by nature).
    pub fn len(&self) -> usize {
        // relaxed: advisory snapshot; see push.
        self.depth.load(Ordering::Relaxed)
    }

    /// `true` when no event is queued (advisory; racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for CompletionQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompletionQueue")
            .field("depth", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    fn completed_send(completion: Completion) -> Request {
        let r = Request::new_with(RequestKind::Send, completion);
        r.complete();
        r
    }

    #[test]
    fn queue_fifo_poll_and_depth() {
        let cq = CompletionQueue::new();
        assert!(cq.is_empty());
        assert!(cq.poll().is_none());
        let a = completed_send(Completion::queue(&cq));
        let b = completed_send(Completion::queue(&cq));
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.poll().unwrap().id(), a.id());
        assert_eq!(cq.poll().unwrap().id(), b.id());
        assert!(cq.poll().is_none());
        assert!(cq.is_empty());
    }

    #[test]
    fn queue_wait_blocks_until_delivery() {
        let cq = CompletionQueue::new();
        let r = Request::new_with(RequestKind::Send, Completion::queue(&cq));
        let cq2 = Arc::clone(&cq);
        let h = std::thread::spawn(move || cq2.wait(WaitStrategy::Passive).id());
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.complete();
        assert_eq!(h.join().unwrap(), r.id());
    }

    #[test]
    fn event_exposes_terminal_state() {
        let cq = CompletionQueue::new();
        let r = Request::new_with(RequestKind::Recv, Completion::queue(&cq));
        r.complete_with_tagged_data(9, bytes::Bytes::from_static(b"hi"));
        let ev = cq.poll().unwrap();
        assert_eq!(ev.kind(), RequestKind::Recv);
        assert_eq!(ev.tag(), Some(9));
        assert!(ev.request().is_complete());
        assert_eq!(
            ev.into_request().take_data(),
            Some(bytes::Bytes::from_static(b"hi"))
        );
    }

    #[test]
    fn queue_wait_timeout_expires_and_recovers() {
        let cq = CompletionQueue::new();
        assert!(
            cq.wait_timeout(std::time::Duration::from_millis(10))
                .is_none(),
            "empty queue must time out"
        );
        // A timed-out wait leaves the queue consistent for later events.
        let r = completed_send(Completion::queue(&cq));
        let ev = cq
            .wait_timeout(std::time::Duration::from_secs(5))
            .expect("queued event must be returned");
        assert_eq!(ev.id(), r.id());
        assert!(cq.is_empty());
    }

    #[test]
    fn handler_runs_at_completion() {
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let r = Request::new_with(
            RequestKind::Send,
            Completion::handler(move |ev| {
                assert!(ev.request().is_complete(), "flag set before handler");
                seen2.fetch_add(1, Ordering::SeqCst);
            }),
        );
        assert_eq!(seen.load(Ordering::SeqCst), 0);
        r.complete();
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn flag_completion_delivers_nowhere() {
        let r = completed_send(Completion::Flag);
        assert!(r.is_complete());
    }
}
