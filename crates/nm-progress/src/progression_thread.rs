//! Dedicated progression (polling) thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::ProgressEngine;

/// What the progression thread does when a polling pass finds nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdlePolicy {
    /// Keep spinning: lowest reaction latency, burns a core — the paper's
    /// "dedicating one core to communication" (§3.3 measures up to 25 %
    /// compute loss on a quad-core from exactly this).
    Spin,
    /// Yield to the OS between passes: near-spin latency when the machine
    /// is otherwise idle, cooperative when it is not.
    Yield,
    /// Sleep between passes: cheapest, highest reaction latency.
    Park(Duration),
}

/// A thread that repeatedly polls a [`ProgressEngine`], optionally bound
/// to a specific core.
///
/// It polls through a [`SourceCache`](crate::SourceCache) of the engine
/// ([`ProgressEngine::poll_cached`]): a pass takes the engine's list lock
/// only after the list changed, so a pass over idle sources that take no
/// lock takes none either.
///
/// Binding is how Fig 8 places "polling on CPU 0/1/2/3": the application
/// thread is pinned on core 0 and the progression thread on the core under
/// study. The cross-core penalty then comes from real cache traffic (on
/// multicore hosts) or from the simulator's cost model.
pub struct ProgressionThread {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    core: Option<usize>,
}

impl ProgressionThread {
    /// Spawns a progression thread polling `engine`.
    ///
    /// `core` requests a binding (best-effort: binding errors are ignored
    /// so the stack works on restricted cpusets).
    pub fn spawn(engine: Arc<ProgressEngine>, core: Option<usize>, policy: IdlePolicy) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name(match core {
                Some(c) => format!("nm-progress-cpu{c}"),
                None => "nm-progress".into(),
            })
            .spawn(move || {
                if let Some(c) = core {
                    let _ = nm_topo::affinity::bind_current_thread(c);
                }
                let mut sources = engine.source_cache();
                while !stop2.load(Ordering::Acquire) {
                    let progressed = engine.poll_cached(&mut sources);
                    if progressed == 0 {
                        match policy {
                            IdlePolicy::Spin => std::hint::spin_loop(),
                            IdlePolicy::Yield => std::thread::yield_now(),
                            IdlePolicy::Park(d) => {
                                std::thread::sleep(d);
                                nm_trace::trace_event!(ProgressionWake);
                            }
                        }
                    }
                }
            })
            .expect("failed to spawn progression thread");
        ProgressionThread {
            stop,
            handle: Some(handle),
            core,
        }
    }

    /// The core this thread was asked to run on.
    pub fn core(&self) -> Option<usize> {
        self.core
    }

    /// Stops and joins the thread.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ProgressionThread {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for ProgressionThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressionThread")
            .field("core", &self.core)
            .field("running", &self.handle.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PollOutcome;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn polls_until_stopped() {
        let engine = Arc::new(ProgressEngine::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&polls);
        engine.register(Arc::new(move || {
            p2.fetch_add(1, Ordering::Relaxed);
            PollOutcome::Idle
        }));
        let pt = ProgressionThread::spawn(engine, None, IdlePolicy::Yield);
        std::thread::sleep(Duration::from_millis(30));
        pt.stop();
        let n = polls.load(Ordering::Relaxed);
        assert!(n > 0, "progression thread never polled");
        // After stop, no further polls.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(polls.load(Ordering::Relaxed), n);
    }

    #[test]
    fn park_policy_still_makes_progress() {
        let engine = Arc::new(ProgressEngine::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&polls);
        engine.register(Arc::new(move || {
            p2.fetch_add(1, Ordering::Relaxed);
            PollOutcome::Idle
        }));
        let pt = ProgressionThread::spawn(engine, None, IdlePolicy::Park(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(50));
        pt.stop();
        assert!(polls.load(Ordering::Relaxed) >= 5);
    }

    #[test]
    fn drop_stops_the_thread() {
        let engine = Arc::new(ProgressEngine::new());
        {
            let _pt = ProgressionThread::spawn(engine, None, IdlePolicy::Yield);
        } // drop must join without hanging
    }

    #[test]
    fn binding_request_is_best_effort() {
        let engine = Arc::new(ProgressEngine::new());
        // Core 0 exists everywhere this test runs; binding may still fail
        // in a restricted cpuset and must not crash.
        let pt = ProgressionThread::spawn(engine, Some(0), IdlePolicy::Yield);
        assert_eq!(pt.core(), Some(0));
        pt.stop();
    }
}
