//! Submission offloading (§4.2 / Fig 9).
//!
//! Submitting a message to the network is CPU work (strategy evaluation,
//! header building, driver doorbell). The paper studies three places to
//! run it:
//!
//! * **Inline** — the application thread does it inside `isend` (the
//!   reference curve of Fig 9).
//! * **Idle core, no tasklet** — the submission is queued and the
//!   progression engine (running on an idle core) picks it up on its next
//!   pass: one lock-free queue push, ~400 ns.
//! * **Tasklet** — the submission is queued and a tasklet is scheduled to
//!   drain the queue; the tasklet state machine and wakeup add ~2 µs.

use std::sync::Arc;

use crossbeam_queue::SegQueue;

use crate::{PollOutcome, PollSource, Tasklet, TaskletEngine};

type Job = Box<dyn FnOnce() + Send>;

/// Where deferred submissions execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OffloadMode {
    /// Run the submission on the calling thread.
    Inline,
    /// Queue it; the progression engine drains on an idle core.
    IdleCore,
    /// Queue it and schedule a tasklet to drain.
    Tasklet,
}

impl OffloadMode {
    /// All modes, in Fig 9's order.
    pub const ALL: [OffloadMode; 3] = [
        OffloadMode::Inline,
        OffloadMode::IdleCore,
        OffloadMode::Tasklet,
    ];

    /// Label used in bench output.
    pub fn label(&self) -> &'static str {
        match self {
            OffloadMode::Inline => "reference",
            OffloadMode::IdleCore => "offload-no-tasklet",
            OffloadMode::Tasklet => "offload-tasklet",
        }
    }
}

/// Routes submission jobs according to an [`OffloadMode`].
pub struct Offloader {
    mode: OffloadMode,
    queue: Arc<SegQueue<Job>>,
    tasklet: Option<(Arc<TaskletEngine>, Arc<Tasklet>)>,
    deferred: nm_metrics::Counter,
}

impl Offloader {
    /// An inline (pass-through) offloader.
    pub fn inline_mode() -> Self {
        Offloader {
            mode: OffloadMode::Inline,
            queue: Arc::new(SegQueue::new()),
            tasklet: None,
            deferred: nm_metrics::Counter::new(),
        }
    }

    /// An idle-core offloader. Register the result as a poll source (or
    /// call [`Offloader::drain`] from a progression thread) so queued jobs
    /// actually run.
    pub fn idle_core() -> Self {
        Offloader {
            mode: OffloadMode::IdleCore,
            queue: Arc::new(SegQueue::new()),
            tasklet: None,
            deferred: nm_metrics::Counter::new(),
        }
    }

    /// A tasklet offloader draining through `engine`.
    pub fn tasklet(engine: Arc<TaskletEngine>) -> Self {
        let queue: Arc<SegQueue<Job>> = Arc::new(SegQueue::new());
        let q2 = Arc::clone(&queue);
        let tasklet = Tasklet::new("offload-drain", move || {
            while let Some(job) = q2.pop() {
                job();
            }
        });
        Offloader {
            mode: OffloadMode::Tasklet,
            queue,
            tasklet: Some((engine, tasklet)),
            deferred: nm_metrics::Counter::new(),
        }
    }

    /// Builds the offloader for `mode` (tasklet mode needs an engine).
    pub fn for_mode(mode: OffloadMode, tasklet_engine: Option<Arc<TaskletEngine>>) -> Self {
        match mode {
            OffloadMode::Inline => Self::inline_mode(),
            OffloadMode::IdleCore => Self::idle_core(),
            OffloadMode::Tasklet => Self::tasklet(
                tasklet_engine.expect("tasklet offload mode requires a TaskletEngine"),
            ),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> OffloadMode {
        self.mode
    }

    /// Number of jobs that took the deferred path.
    pub fn deferred_count(&self) -> u64 {
        self.deferred.get()
    }

    /// Submits a job according to the mode.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        match self.mode {
            OffloadMode::Inline => job(),
            OffloadMode::IdleCore => {
                self.queue.push(Box::new(job));
                self.deferred.incr();
                crate::metrics::offload_backlog().add(1);
                nm_trace::trace_event!(OffloadSubmit, self.mode as usize);
            }
            OffloadMode::Tasklet => {
                self.queue.push(Box::new(job));
                self.deferred.incr();
                crate::metrics::offload_backlog().add(1);
                nm_trace::trace_event!(OffloadSubmit, self.mode as usize);
                let (engine, tasklet) = self
                    .tasklet
                    .as_ref()
                    .expect("tasklet mode always has an engine");
                engine.schedule(tasklet);
            }
        }
    }

    /// Runs all queued jobs on the calling thread; returns how many ran.
    ///
    /// In idle-core mode this is called by the progression engine; in
    /// tasklet mode the tasklet body does it (draining here too is benign
    /// and only races the tasklet for individual jobs).
    pub fn drain(&self) -> usize {
        let mut ran = 0;
        while let Some(job) = self.queue.pop() {
            crate::metrics::offload_backlog().sub(1);
            // Matched FIFO against OffloadSubmit: the gap is the offload
            // hop (Fig 9's 400 ns idle-core / ~3.1 µs tasklet placement).
            nm_trace::trace_event!(OffloadRun, self.mode as usize);
            job();
            ran += 1;
        }
        ran
    }

    /// Pending (not yet executed) deferred jobs.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

impl PollSource for Offloader {
    fn poll(&self) -> PollOutcome {
        if self.drain() > 0 {
            PollOutcome::Progressed
        } else {
            PollOutcome::Idle
        }
    }
    fn name(&self) -> &str {
        "offloader"
    }
}

impl std::fmt::Debug for Offloader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Offloader")
            .field("mode", &self.mode)
            .field("pending", &self.pending())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn inline_runs_immediately() {
        let off = Offloader::inline_mode();
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        off.submit(move || {
            r2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(off.deferred_count(), 0);
    }

    #[test]
    fn idle_core_defers_until_drained() {
        let off = Offloader::idle_core();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..5 {
            let r = Arc::clone(&ran);
            off.submit(move || {
                r.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(ran.load(Ordering::SeqCst), 0, "must not run inline");
        assert_eq!(off.pending(), 5);
        assert_eq!(off.drain(), 5);
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        assert_eq!(off.deferred_count(), 5);
    }

    #[test]
    fn idle_core_drains_via_progress_engine() {
        let engine = Arc::new(crate::ProgressEngine::new());
        let off = Arc::new(Offloader::idle_core());
        engine.register(Arc::clone(&off) as _);
        let ran = Arc::new(AtomicUsize::new(0));
        let r2 = Arc::clone(&ran);
        off.submit(move || {
            r2.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(engine.poll_all(), 1);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(engine.poll_all(), 0, "queue now empty");
    }

    #[test]
    fn tasklet_mode_runs_on_runner_thread() {
        let tle = Arc::new(TaskletEngine::new(1, None));
        let off = Offloader::tasklet(Arc::clone(&tle));
        let ran = Arc::new(AtomicUsize::new(0));
        let main_thread = std::thread::current().id();
        let r2 = Arc::clone(&ran);
        off.submit(move || {
            assert_ne!(std::thread::current().id(), main_thread);
            r2.fetch_add(1, Ordering::SeqCst);
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while ran.load(Ordering::SeqCst) == 0 {
            assert!(std::time::Instant::now() < deadline, "job never ran");
            std::thread::yield_now();
        }
        match Arc::try_unwrap(tle) {
            Ok(e) => e.shutdown(),
            Err(_) => { /* offloader still holds it; dropped with test */ }
        }
    }

    #[test]
    fn for_mode_builds_all_variants() {
        assert_eq!(
            Offloader::for_mode(OffloadMode::Inline, None).mode(),
            OffloadMode::Inline
        );
        assert_eq!(
            Offloader::for_mode(OffloadMode::IdleCore, None).mode(),
            OffloadMode::IdleCore
        );
        let tle = Arc::new(TaskletEngine::new(1, None));
        assert_eq!(
            Offloader::for_mode(OffloadMode::Tasklet, Some(tle)).mode(),
            OffloadMode::Tasklet
        );
    }

    #[test]
    #[should_panic(expected = "requires a TaskletEngine")]
    fn tasklet_mode_without_engine_panics() {
        let _ = Offloader::for_mode(OffloadMode::Tasklet, None);
    }

    #[test]
    fn labels_match_fig9_series() {
        assert_eq!(OffloadMode::Inline.label(), "reference");
        assert_eq!(OffloadMode::IdleCore.label(), "offload-no-tasklet");
        assert_eq!(OffloadMode::Tasklet.label(), "offload-tasklet");
    }
}
