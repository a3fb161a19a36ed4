//! Minimal executors for the async facade — enough to drive
//! [`SendFuture`](crate::SendFuture)/[`RecvFuture`](crate::RecvFuture)
//! without an async runtime dependency.
//!
//! * [`block_on`] — parks the calling thread between polls; correct when
//!   something else drives progression (a
//!   [`ProgressionThread`](nm_progress::ProgressionThread), another
//!   rank's busy wait).
//! * [`block_on_with`] — never parks: calls a poll hook (typically
//!   `|| { core.progress(); }`) between polls. This is the
//!   deterministic, self-driving variant used by the stack tests.
//! * [`join_all`] — awaits a batch of futures; with thousands of
//!   outstanding operations this is the "server multiplexing 10k+
//!   requests on a couple of cores" shape from the completion-object
//!   experiment (`nm-sim`'s `cq_completion_scaling`).

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Wakes [`block_on`]'s parked thread.
struct ThreadWaker {
    thread: Thread,
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        // Set the token before unparking: the parked side re-checks it,
        // so a wake between its check and its park is never lost
        // (unpark also grants a park permit, covering the tail race).
        self.notified.store(true, Ordering::SeqCst);
        self.thread.unpark();
    }
}

/// Runs `fut` to completion, parking this thread while it is pending.
///
/// Progression must come from elsewhere — a pending future never polls
/// the library, and a parked thread cannot. Pair with a
/// [`ProgressionThread`](nm_progress::ProgressionThread) or use
/// [`block_on_with`] to self-drive.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let state = Arc::new(ThreadWaker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&state));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => {
                while !state.notified.swap(false, Ordering::SeqCst) {
                    std::thread::park();
                }
            }
        }
    }
}

/// A waker that does nothing: [`block_on_with`] re-polls unconditionally
/// after its hook, so wake-ups carry no information for it.
struct NoopWaker;

impl Wake for NoopWaker {
    fn wake(self: Arc<Self>) {}
}

/// Runs `fut` to completion, invoking `hook` every time it is pending.
///
/// The hook is where progression happens (e.g.
/// `|| { core.progress(); }`), making the executor self-driving and —
/// on a deterministic substrate — bit-reproducible: no parking, no
/// timing dependence.
pub fn block_on_with<F: Future>(fut: F, mut hook: impl FnMut()) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    let waker = Waker::from(Arc::new(NoopWaker));
    let mut cx = Context::from_waker(&waker);
    loop {
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(out) => return out,
            Poll::Pending => hook(),
        }
    }
}

/// Future combining a batch of futures; resolves to their outputs in
/// input order once all are complete.
///
/// Polls only still-pending members on each wake (completed outputs are
/// stored), so N outstanding operations cost O(pending) per poll.
pub struct JoinAll<F: Future + Unpin> {
    futs: Vec<Option<F>>,
    outs: Vec<Option<F::Output>>,
}

// Members are boxed behind Vecs and never pinned through; the combinator
// is freely movable even when outputs are not Unpin.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

/// Awaits every future in `futs`; see [`JoinAll`].
pub fn join_all<F: Future + Unpin>(futs: Vec<F>) -> JoinAll<F> {
    let n = futs.len();
    JoinAll {
        futs: futs.into_iter().map(Some).collect(),
        outs: (0..n).map(|_| None).collect(),
    }
}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut pending = 0;
        for (slot, out) in this.futs.iter_mut().zip(this.outs.iter_mut()) {
            if let Some(f) = slot {
                match Pin::new(f).poll(cx) {
                    Poll::Ready(v) => {
                        *out = Some(v);
                        *slot = None;
                    }
                    Poll::Pending => pending += 1,
                }
            }
        }
        if pending > 0 {
            return Poll::Pending;
        }
        Poll::Ready(
            this.outs
                .iter_mut()
                .map(|o| o.take().expect("all members resolved"))
                .collect(),
        )
    }
}
