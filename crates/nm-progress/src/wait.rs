//! Strategy-driven waiting composed with engine polling.

use std::sync::Arc;

use nm_sync::{CompletionFlag, WaitStrategy};

use crate::ProgressEngine;

/// Waits for `flag` with `strategy`, polling `engine` during any spin
/// phase.
///
/// This is the paper's `MPI_Wait` decomposition (§3.3):
///
/// * [`WaitStrategy::Busy`] — the calling thread polls the engine in a
///   tight loop until the flag is signalled (by its own polling or by
///   someone else's).
/// * [`WaitStrategy::Passive`] — the thread blocks immediately; the
///   progression thread must keep polling and signal the
///   flag, at the cost of a context switch on wakeup.
/// * [`WaitStrategy::FixedSpin`] — poll for the window, then block; the
///   context switch is avoided iff the event lands within the window.
pub fn wait_on(flag: &CompletionFlag, strategy: WaitStrategy, engine: &Arc<ProgressEngine>) {
    let engine = Arc::clone(engine);
    flag.wait_with_poll(strategy, move || {
        engine.poll_all();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IdlePolicy, PollOutcome, ProgressionThread};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A source that signals a flag after N polls — a stand-in for a
    /// network request completing.
    fn delayed_source(flag: Arc<CompletionFlag>, after: usize) -> Arc<dyn crate::PollSource> {
        let count = AtomicUsize::new(0);
        Arc::new(move || {
            if count.fetch_add(1, Ordering::SeqCst) + 1 == after {
                flag.signal();
                PollOutcome::Progressed
            } else {
                PollOutcome::Idle
            }
        })
    }

    #[test]
    fn busy_wait_drives_its_own_completion() {
        let engine = Arc::new(ProgressEngine::new());
        let flag = Arc::new(CompletionFlag::new());
        engine.register(delayed_source(Arc::clone(&flag), 100));
        // No progression thread: only the waiter's own polling can
        // complete the request.
        wait_on(&flag, WaitStrategy::Busy, &engine);
        assert!(flag.is_set());
    }

    #[test]
    fn passive_wait_needs_a_progression_thread() {
        let engine = Arc::new(ProgressEngine::new());
        let flag = Arc::new(CompletionFlag::new());
        engine.register(delayed_source(Arc::clone(&flag), 50));
        let pt = ProgressionThread::spawn(Arc::clone(&engine), None, IdlePolicy::Yield);
        wait_on(&flag, WaitStrategy::Passive, &engine);
        assert!(flag.is_set());
        pt.stop();
    }

    #[test]
    fn fixed_spin_completes_in_spin_phase_when_fast() {
        let engine = Arc::new(ProgressEngine::new());
        let flag = Arc::new(CompletionFlag::new());
        engine.register(delayed_source(Arc::clone(&flag), 3));
        // 3 polls complete well within a generous window; no progression
        // thread exists, so finishing proves the spin phase polled.
        wait_on(
            &flag,
            WaitStrategy::FixedSpin(Duration::from_secs(5)),
            &engine,
        );
        assert!(flag.is_set());
    }

    #[test]
    fn fixed_spin_falls_back_to_blocking() {
        let engine = Arc::new(ProgressEngine::new());
        let flag = Arc::new(CompletionFlag::new());
        // Source only completes after far more polls than a 10 µs window
        // allows; the progression thread finishes the job while we block.
        engine.register(delayed_source(Arc::clone(&flag), 10_000));
        let pt = ProgressionThread::spawn(Arc::clone(&engine), None, IdlePolicy::Yield);
        wait_on(
            &flag,
            WaitStrategy::FixedSpin(Duration::from_micros(10)),
            &engine,
        );
        assert!(flag.is_set());
        pt.stop();
    }
}
