//! Communication requests: the handles `isend`/`irecv` return.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use nm_metrics::trace_event;
use nm_sync::{CompletionFlag, WaitStrategy};

use crate::completion::{Completion, CompletionEvent};
use crate::error::CommError;
use crate::metrics;

/// Next unallocated request id; process-global so completion-queue
/// events and the async waker table can key on it across communicators.
/// Threads draw ids from it a block at a time (see [`next_id`]).
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Ids a thread takes from [`NEXT_ID`] at once.
const ID_BLOCK: u64 = 1024;

/// Allocates a request id: unique for the life of the process, never 0,
/// never reused. Each thread hands out a private block of [`ID_BLOCK`]
/// consecutive ids and returns to the shared counter only when the block
/// is spent, so two threads posting on disjoint gates do not bounce the
/// counter's line on every request. Ids are therefore unique but not
/// ordered across threads; nothing keys on their order.
fn next_id() -> u64 {
    use std::cell::Cell;
    thread_local! {
        /// `(next, end)` of this thread's block; empty at first use.
        static BLOCK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    BLOCK.with(|block| {
        let (mut next, mut end) = block.get();
        if next == end {
            // relaxed: a unique-id counter; only uniqueness matters,
            // nothing is ordered against the increment.
            next = NEXT_ID.fetch_add(ID_BLOCK, Ordering::Relaxed);
            end = next + ID_BLOCK;
        }
        block.set((next + 1, end));
        next
    })
}

/// Send or receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Posted by `isend`.
    Send,
    /// Posted by `irecv`.
    Recv,
}

/// `Inner::state` bits. `FINISHED`: one of complete / fail / cancel /
/// expire won the transition out of the live state. `PUBLISHED`: that
/// winner has written the outcome cells. `DATA_TAKEN` / `ERROR_TAKEN`:
/// the payload / error has been moved out.
const FINISHED: u8 = 1;
const PUBLISHED: u8 = 2;
const DATA_TAKEN: u8 = 4;
const ERROR_TAKEN: u8 = 8;

/// The outcome cells (`data`, `matched_tag`, `error`) take no lock. Their
/// protocol, which every `unsafe` block below relies on:
///
/// 1. Only the thread whose `try_finish` CAS set `FINISHED` writes them,
///    and it writes them before it sets `PUBLISHED` with a `Release`
///    store, and before it signals the flag.
/// 2. Nobody reads them before observing `PUBLISHED` with an `Acquire`
///    load, so a reader sees the writer's values and no write follows.
/// 3. `data` and `error` are moved out only by the one caller whose
///    `fetch_or` set `DATA_TAKEN` / `ERROR_TAKEN`; `matched_tag` is only
///    read.
///
/// `PUBLISHED` is the request's own bit rather than the flag's `SET`
/// because `flag()` hands the flag out: a caller may `signal` it, but
/// cannot publish the cells.
#[derive(Debug)]
struct Inner {
    /// Unique id (assigned at post time, never reused).
    id: u64,
    /// Observability span id (0 when no recording is live). Threaded
    /// through the collect shards, wire frames, and waker table so every
    /// event of this message joins one timeline.
    span: u64,
    kind: RequestKind,
    /// Where completion is delivered (flag / queue / handler / waker).
    completion: Completion,
    /// Finish arbiter and outcome publication (the bits above): exactly
    /// one of complete / fail / cancel wins the transition out of the live
    /// state, so completion is delivered once even when cancellation
    /// races delivery.
    state: AtomicU8,
    flag: CompletionFlag,
    /// Received payload (recv requests).
    data: UnsafeCell<Option<Bytes>>,
    /// Tag of the matched message (for wildcard receives).
    matched_tag: UnsafeCell<Option<u64>>,
    /// Failure, if any.
    error: UnsafeCell<Option<CommError>>,
}

// SAFETY: the outcome cells are the only non-`Sync` fields; the protocol
// above gives every access to them a single writer ordered before every
// reader, and each move out a single claimant.
unsafe impl Sync for Inner {}

/// A non-blocking communication request (`nm_isend`/`nm_irecv` handle).
///
/// Cheap to clone (it is an `Arc`); the library keeps a clone until the
/// operation completes.
#[derive(Debug, Clone)]
pub struct Request {
    inner: Arc<Inner>,
}

impl Request {
    /// Flag-completion request (the pre-completion-object constructor;
    /// production posts go through [`Request::new_with`]).
    #[cfg(test)]
    pub(crate) fn new(kind: RequestKind) -> Self {
        Request::new_with(kind, Completion::Flag)
    }

    pub(crate) fn new_with(kind: RequestKind, completion: Completion) -> Self {
        Request {
            inner: Arc::new(Inner {
                id: next_id(),
                span: nm_metrics::trace::next_span_id(),
                kind,
                completion,
                state: AtomicU8::new(0),
                flag: CompletionFlag::new(),
                data: UnsafeCell::new(None),
                matched_tag: UnsafeCell::new(None),
                error: UnsafeCell::new(None),
            }),
        }
    }

    /// The request's unique id (completion-queue events and async wakers
    /// key on it).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The request's observability span id (0 = no recording was live).
    pub fn span(&self) -> u64 {
        self.inner.span
    }

    /// Send or receive.
    pub fn kind(&self) -> RequestKind {
        self.inner.kind
    }

    /// `true` once the operation has completed (successfully or not).
    pub fn is_complete(&self) -> bool {
        self.inner.flag.is_set()
    }

    /// The completion flag (for engine-level waiting).
    pub fn flag(&self) -> &CompletionFlag {
        &self.inner.flag
    }

    /// Claims the live→finished transition. Exactly one caller over the
    /// request's lifetime gets `true`; that caller (and only it) must
    /// [`publish`](Self::publish) the outcome, then deliver.
    fn try_finish(&self) -> bool {
        self.inner
            .state
            .compare_exchange(0, FINISHED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Writes the outcome, publishes it and signals the flag. Only the
    /// caller that won [`try_finish`](Self::try_finish) calls this, once.
    fn publish(&self, tag: Option<u64>, data: Option<Bytes>, error: Option<CommError>) {
        // SAFETY: protocol rule 1 — this thread won the finish CAS, so it
        // is the only writer, and no reader looks before `PUBLISHED`.
        unsafe {
            *self.inner.matched_tag.get() = tag;
            *self.inner.data.get() = data;
            *self.inner.error.get() = error;
        }
        // Nothing but the finish CAS has touched `state` yet: the taken
        // bits are set only after `PUBLISHED` is seen.
        self.inner
            .state
            .store(FINISHED | PUBLISHED, Ordering::Release);
        self.inner.flag.signal();
    }

    /// `true` once the outcome cells may be read (protocol rule 2).
    fn published(&self) -> bool {
        self.inner.state.load(Ordering::Acquire) & PUBLISHED != 0
    }

    /// Claims the one move out of the cell behind `taken` (protocol rule
    /// 3): `true` for exactly one caller, and only once published.
    fn claim(&self, taken: u8) -> bool {
        self.published() && self.inner.state.fetch_or(taken, Ordering::AcqRel) & taken == 0
    }

    /// Marks the request complete (send side / data-less completion).
    /// No-op if the request already finished (e.g. was cancelled).
    pub(crate) fn complete(&self) {
        if !self.try_finish() {
            return;
        }
        self.publish(None, None, None);
        self.deliver();
    }

    /// Completes a receive with its payload.
    #[cfg(test)]
    pub(crate) fn complete_with_data(&self, data: Bytes) {
        debug_assert_eq!(self.inner.kind, RequestKind::Recv);
        if !self.try_finish() {
            return;
        }
        self.publish(None, Some(data), None);
        self.deliver();
    }

    /// Completes a receive with its payload and the tag it matched
    /// (wildcard receives). No-op if the request already finished.
    pub(crate) fn complete_with_tagged_data(&self, tag: u64, data: Bytes) {
        debug_assert_eq!(self.inner.kind, RequestKind::Recv);
        if !self.try_finish() {
            return;
        }
        self.publish(Some(tag), Some(data), None);
        self.deliver();
    }

    /// Routes the completion through this request's [`Completion`]
    /// object. Runs in the delivery context (the thread that advanced
    /// the library, typically with the core API lock held), strictly
    /// *after* the flag is signalled so every observer of the event sees
    /// the terminal state.
    fn deliver(&self) {
        if self.inner.span != 0 {
            let path: u64 = match &self.inner.completion {
                Completion::Flag => 0,
                Completion::Queue(_) => 1,
                Completion::Handler(_) => 2,
                Completion::Waker(_) => 3,
            };
            trace_event!(SpanComplete, self.inner.span, path);
        }
        match &self.inner.completion {
            Completion::Flag => {
                trace_event!(CompletionDeliver, self.inner.id, 0u64);
            }
            Completion::Queue(cq) => {
                trace_event!(CompletionDeliver, self.inner.id, 1u64);
                cq.push(CompletionEvent::new(self.clone()));
            }
            Completion::Handler(h) => {
                trace_event!(CompletionDeliver, self.inner.id, 2u64);
                trace_event!(HandlerRun, self.inner.id);
                let _timer = metrics::handler_hist().timer();
                let ev = CompletionEvent::new(self.clone());
                h(&ev);
            }
            Completion::Waker(table) => {
                trace_event!(CompletionDeliver, self.inner.id, 3u64);
                table.wake(self.inner.id);
            }
        }
    }

    /// The tag a completed receive matched (`MPI_Status.tag`).
    ///
    /// `None` until completion (and for send requests).
    pub fn matched_tag(&self) -> Option<u64> {
        if !self.published() {
            return None;
        }
        // SAFETY: protocol rule 2 — published, and nobody writes the tag
        // after publication.
        unsafe { *self.inner.matched_tag.get() }
    }

    /// Finishes the request with [`CommError::Timeout`] — the deadline
    /// side of `wait_deadline`/`expire_after`. Returns `true` if this
    /// call won the finish transition; `false` if the operation
    /// completed (or was cancelled) first, in which case that outcome
    /// stands.
    pub(crate) fn expire(&self) -> bool {
        if !self.try_finish() {
            return false;
        }
        self.publish(None, None, Some(CommError::Timeout));
        self.deliver();
        nm_metrics::flight::record_failure("timeout", self.inner.id, self.inner.span);
        true
    }

    /// Completes the request with an error. No-op if already finished.
    pub(crate) fn fail(&self, error: CommError) {
        if !self.try_finish() {
            return;
        }
        let reason = match error {
            CommError::Timeout => Some("timeout"),
            CommError::PeerUnreachable => Some("peer-unreachable"),
            _ => None,
        };
        self.publish(None, None, Some(error));
        self.deliver();
        if let Some(reason) = reason {
            nm_metrics::flight::record_failure(reason, self.inner.id, self.inner.span);
        }
    }

    /// Cancels the request if it has not already completed.
    ///
    /// Returns `true` if this call won the race and the request finished
    /// with [`CommError::Cancelled`]; `false` if the operation had
    /// already completed (or was cancelled/failed) — its original
    /// outcome stands. The finish transition is a single CAS, so a
    /// cancel racing completion delivery resolves to exactly one of the
    /// two outcomes and completion is delivered exactly once either way.
    ///
    /// Cancelling only detaches the *request*: a cancelled receive's
    /// posting is reaped by the core's pruning (the message, if it ever
    /// arrives, is treated as unexpected); a cancelled send whose
    /// packet was already injected may still be delivered to the peer.
    pub fn cancel(&self) -> bool {
        if !self.try_finish() {
            return false;
        }
        trace_event!(RequestCancel, self.inner.id);
        metrics::cancelled().incr();
        self.publish(None, None, Some(CommError::Cancelled));
        self.deliver();
        true
    }

    /// Busy-waits on the raw flag without polling anything.
    ///
    /// Only correct when some other agent (progression thread, scheduler
    /// hooks, another thread's polling) is driving the library; prefer
    /// waiting through the core / progression engine.
    pub fn wait_flag_only(&self, strategy: WaitStrategy) {
        self.inner.flag.wait(strategy);
    }

    /// Takes the completion error, if the operation failed.
    ///
    /// Returns `None` for incomplete or successful requests, or when the
    /// error was already taken.
    pub fn take_error(&self) -> Option<CommError> {
        if !self.claim(ERROR_TAKEN) {
            return None;
        }
        // SAFETY: protocol rule 3 — this call holds the one claim on the
        // error, which was published before the claim succeeded.
        unsafe { (*self.inner.error.get()).take() }
    }

    /// Takes the received payload.
    ///
    /// Returns `None` for send requests, incomplete requests, or when the
    /// payload was already taken.
    pub fn take_data(&self) -> Option<Bytes> {
        if !self.claim(DATA_TAKEN) {
            return None;
        }
        // SAFETY: protocol rule 3 — this call holds the one claim on the
        // payload, which was published before the claim succeeded.
        unsafe { (*self.inner.data.get()).take() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_completion() {
        let r = Request::new(RequestKind::Send);
        assert!(!r.is_complete());
        r.complete();
        assert!(r.is_complete());
        assert_eq!(r.take_data(), None);
        assert_eq!(r.take_error(), None);
    }

    #[test]
    fn recv_completion_carries_data() {
        let r = Request::new(RequestKind::Recv);
        assert_eq!(r.take_data(), None, "no data before completion");
        r.complete_with_data(Bytes::from_static(b"payload"));
        assert!(r.is_complete());
        assert_eq!(r.take_data(), Some(Bytes::from_static(b"payload")));
        assert_eq!(r.take_data(), None, "data taken once");
    }

    #[test]
    fn failure_carries_error() {
        let r = Request::new(RequestKind::Send);
        r.fail(CommError::MessageTooLarge { len: 1 });
        assert!(r.is_complete());
        assert_eq!(r.take_error(), Some(CommError::MessageTooLarge { len: 1 }));
    }

    #[test]
    fn clones_share_state() {
        let r = Request::new(RequestKind::Recv);
        let r2 = r.clone();
        r.complete_with_data(Bytes::from_static(b"x"));
        assert!(r2.is_complete());
        assert_eq!(r2.take_data(), Some(Bytes::from_static(b"x")));
    }

    #[test]
    fn cancel_before_completion_wins() {
        let r = Request::new(RequestKind::Recv);
        assert!(r.cancel());
        assert!(r.is_complete());
        assert_eq!(r.take_error(), Some(CommError::Cancelled));
        assert_eq!(r.take_data(), None);
    }

    #[test]
    fn cancel_after_completion_is_a_noop() {
        let r = Request::new(RequestKind::Recv);
        r.complete_with_data(Bytes::from_static(b"won"));
        assert!(!r.cancel(), "completed request cannot be cancelled");
        assert_eq!(r.take_error(), None);
        assert_eq!(r.take_data(), Some(Bytes::from_static(b"won")));
    }

    #[test]
    fn completion_after_cancel_is_a_noop() {
        let r = Request::new(RequestKind::Recv);
        assert!(r.cancel());
        r.complete_with_data(Bytes::from_static(b"late"));
        assert_eq!(r.take_data(), None, "late data must be discarded");
        assert_eq!(r.take_error(), Some(CommError::Cancelled));
    }

    #[test]
    fn cancel_is_idempotent() {
        let r = Request::new(RequestKind::Send);
        assert!(r.cancel());
        assert!(!r.cancel());
    }

    /// Rounds of the racing tests below (miri interprets them slowly).
    const RACE_ROUNDS: usize = if cfg!(miri) { 20 } else { 1000 };

    #[test]
    fn racing_take_data_hands_the_payload_to_exactly_one_clone() {
        let payload = Bytes::from_static(b"exactly once");
        for _ in 0..RACE_ROUNDS {
            let r = Request::new(RequestKind::Recv);
            let takers: Vec<_> = (0..2)
                .map(|_| {
                    let r = r.clone();
                    std::thread::spawn(move || loop {
                        let done = r.is_complete();
                        if let Some(data) = r.take_data() {
                            return Some(data);
                        }
                        if done {
                            return None;
                        }
                        std::thread::yield_now();
                    })
                })
                .collect();
            r.complete_with_tagged_data(3, payload.clone());
            let got: Vec<Bytes> = takers
                .into_iter()
                .filter_map(|t| t.join().unwrap())
                .collect();
            assert_eq!(got, vec![payload.clone()], "one clone gets the payload");
            assert_eq!(r.take_data(), None);
            assert_eq!(r.matched_tag(), Some(3));
        }
    }

    #[test]
    fn racing_cancel_and_tagged_completion_agree_on_the_winner() {
        let payload = Bytes::from_static(b"late or not");
        for _ in 0..RACE_ROUNDS {
            let r = Request::new(RequestKind::Recv);
            let rc = r.clone();
            let canceller = std::thread::spawn(move || {
                let cancelled = rc.cancel();
                while !rc.is_complete() {
                    std::thread::yield_now();
                }
                (cancelled, rc.take_error(), rc.take_data(), rc.matched_tag())
            });
            r.complete_with_tagged_data(9, payload.clone());
            let (cancelled, err, data, tag) = canceller.join().unwrap();
            if cancelled {
                assert_eq!((err, data, tag), (Some(CommError::Cancelled), None, None));
            } else {
                assert_eq!((err, data, tag), (None, Some(payload.clone()), Some(9)));
            }
            assert_eq!((r.take_error(), r.take_data()), (None, None), "taken once");
        }
    }

    #[test]
    fn racing_cancel_and_complete_resolve_to_one_outcome() {
        for _ in 0..200 {
            let r = Request::new(RequestKind::Send);
            let rc = r.clone();
            let canceller = std::thread::spawn(move || rc.cancel());
            r.complete();
            let cancelled = canceller.join().unwrap();
            assert!(r.is_complete());
            let err = r.take_error();
            if cancelled {
                assert_eq!(err, Some(CommError::Cancelled));
            } else {
                assert_eq!(err, None);
            }
        }
    }

    #[test]
    fn cross_thread_wait() {
        let r = Request::new(RequestKind::Send);
        let r2 = r.clone();
        let h = std::thread::spawn(move || {
            r2.wait_flag_only(WaitStrategy::Passive);
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        r.complete();
        assert!(h.join().unwrap());
    }
}
