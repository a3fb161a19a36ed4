//! Linux-softirq-style tasklets.
//!
//! The paper's earlier PIOMan "relied extensively on tasklets to offload
//! communication processing" and Fig 9 shows why that was reconsidered:
//! the tasklet machinery — per-CPU pending lists, a scheduling state
//! machine that guarantees a tasklet never runs on two CPUs at once, and
//! the cross-CPU locking to hand tasklets around — costs ~2 µs per
//! deferred submission, versus ~400 ns for letting an idle core pick the
//! work up directly.
//!
//! We reproduce the Linux semantics (Wilcox, *I'll Do It Later*):
//!
//! * A scheduled tasklet runs **exactly once** per schedule, **never
//!   concurrently with itself**.
//! * Scheduling an already-scheduled tasklet is a no-op.
//! * Scheduling a *running* tasklet makes it run again after it finishes.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam_queue::SegQueue;
use parking_lot::{Condvar, Mutex};

const IDLE: u32 = 0;
const SCHEDULED: u32 = 1;
const RUNNING: u32 = 2;
const RERUN: u32 = 3;

/// A deferred work item with softirq-style serialization guarantees.
pub struct Tasklet {
    name: String,
    state: AtomicU32,
    func: Box<dyn Fn() + Send + Sync>,
    runs: nm_metrics::Counter,
}

impl Tasklet {
    /// Creates a tasklet around `func`.
    pub fn new(name: impl Into<String>, func: impl Fn() + Send + Sync + 'static) -> Arc<Self> {
        Arc::new(Tasklet {
            name: name.into(),
            state: AtomicU32::new(IDLE),
            func: Box::new(func),
            runs: nm_metrics::Counter::new(),
        })
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of completed executions.
    pub fn runs(&self) -> u64 {
        self.runs.get()
    }

    /// `true` if currently queued or running.
    pub fn is_pending(&self) -> bool {
        self.state.load(Ordering::Acquire) != IDLE
    }
}

/// The tasklet execution engine: runner threads draining a pending queue.
///
/// The scheduling path deliberately mirrors the kernel's: state CAS, queue
/// push under the queue's own synchronization, then a wakeup of the runner
/// — three synchronization points before the work even starts, which is
/// where the measured overhead comes from.
pub struct TaskletEngine {
    shared: Arc<Shared>,
    runners: Vec<JoinHandle<()>>,
}

struct Shared {
    pending: SegQueue<Arc<Tasklet>>,
    shutdown: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl TaskletEngine {
    /// Starts `runners` runner threads, optionally bound to `cores`
    /// (length must match when provided).
    pub fn new(runners: usize, cores: Option<Vec<usize>>) -> Self {
        assert!(runners > 0, "at least one tasklet runner required");
        if let Some(c) = &cores {
            assert_eq!(c.len(), runners, "cores length must equal runner count");
        }
        let shared = Arc::new(Shared {
            pending: SegQueue::new(),
            shutdown: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        });
        let handles = (0..runners)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let core = cores.as_ref().map(|c| c[i]);
                std::thread::Builder::new()
                    .name(format!("nm-tasklet-{i}"))
                    .spawn(move || runner_loop(shared, core))
                    .expect("failed to spawn tasklet runner")
            })
            .collect();
        TaskletEngine {
            shared,
            runners: handles,
        }
    }

    /// Schedules a tasklet for execution.
    ///
    /// No-op if it is already scheduled; if it is currently running it
    /// will be re-run once after the current execution finishes.
    pub fn schedule(&self, tasklet: &Arc<Tasklet>) {
        // relaxed: initial guess for the state CAS loop; the AcqRel CAS
        // below is the synchronizing operation.
        let mut cur = tasklet.state.load(Ordering::Relaxed);
        loop {
            let (next, enqueue) = match cur {
                IDLE => (SCHEDULED, true),
                SCHEDULED | RERUN => return, // already queued / re-queued
                RUNNING => (RERUN, false),
                _ => unreachable!("invalid tasklet state {cur}"),
            };
            match tasklet.state.compare_exchange_weak(
                cur,
                next,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    if enqueue {
                        nm_metrics::trace_event!(TaskletSched, Arc::as_ptr(tasklet) as usize);
                        self.shared.pending.push(Arc::clone(tasklet));
                        crate::metrics::tasklet_depth().add(1);
                        let _g = self.shared.lock.lock();
                        self.shared.cv.notify_one();
                    }
                    return;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Stops and joins all runners. Pending tasklets are dropped.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.lock.lock();
            self.shared.cv.notify_all();
        }
        for r in self.runners {
            let _ = r.join();
        }
    }
}

fn runner_loop(shared: Arc<Shared>, core: Option<usize>) {
    if let Some(c) = core {
        let _ = nm_topo::affinity::bind_current_thread(c);
    }
    loop {
        if let Some(tasklet) = shared.pending.pop() {
            crate::metrics::tasklet_depth().sub(1);
            run_one(&shared, tasklet);
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let mut g = shared.lock.lock();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if shared.pending.is_empty() {
            shared
                .cv
                .wait_for(&mut g, std::time::Duration::from_millis(1));
        }
    }
}

fn run_one(shared: &Arc<Shared>, tasklet: Arc<Tasklet>) {
    // SCHEDULED -> RUNNING. The queue holds at most one reference per
    // schedule, so no other runner can execute this tasklet concurrently.
    let prev = tasklet.state.swap(RUNNING, Ordering::AcqRel);
    debug_assert_eq!(prev, SCHEDULED, "tasklet dequeued in state {prev}");
    // The TaskletSched→TaskletRun gap is the SCHED→RUN hand-off cost.
    nm_metrics::trace_event!(TaskletRun, Arc::as_ptr(&tasklet) as usize);
    (tasklet.func)();
    tasklet.runs.incr();
    // RUNNING -> IDLE, unless someone requested a re-run meanwhile.
    match tasklet
        .state
        .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
    {
        Ok(_) => {}
        Err(state) => {
            debug_assert_eq!(state, RERUN);
            tasklet.state.store(SCHEDULED, Ordering::Release);
            shared.pending.push(tasklet);
            crate::metrics::tasklet_depth().add(1);
            let _g = shared.lock.lock();
            shared.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn wait_until(cond: impl Fn() -> bool, ms: u64) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_millis(ms);
        while std::time::Instant::now() < deadline {
            if cond() {
                return true;
            }
            std::thread::yield_now();
        }
        cond()
    }

    #[test]
    fn scheduled_tasklet_runs_once() {
        let engine = TaskletEngine::new(1, None);
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let t = Tasklet::new("t", move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        engine.schedule(&t);
        assert!(wait_until(|| count.load(Ordering::SeqCst) == 1, 1000));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.load(Ordering::SeqCst), 1, "ran more than once");
        assert_eq!(t.runs(), 1);
        engine.shutdown();
    }

    #[test]
    fn double_schedule_coalesces() {
        let engine = TaskletEngine::new(1, None);
        let gate = Arc::new(nm_sync::Semaphore::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let (g2, c2) = (Arc::clone(&gate), Arc::clone(&count));
        // A first tasklet occupies the single runner so the second stays
        // queued while we schedule it again.
        let blocker = Tasklet::new("blocker", move || g2.acquire());
        let t = Tasklet::new("t", move || {
            c2.fetch_add(1, Ordering::SeqCst);
        });
        engine.schedule(&blocker);
        engine.schedule(&t);
        engine.schedule(&t); // coalesced
        engine.schedule(&t); // coalesced
        gate.release();
        assert!(wait_until(|| count.load(Ordering::SeqCst) == 1, 1000));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.load(Ordering::SeqCst), 1);
        engine.shutdown();
    }

    #[test]
    fn schedule_while_running_reruns() {
        let engine = TaskletEngine::new(1, None);
        let entered = Arc::new(nm_sync::Semaphore::new(0));
        let release = Arc::new(nm_sync::Semaphore::new(0));
        let count = Arc::new(AtomicUsize::new(0));
        let (e2, r2, c2) = (
            Arc::clone(&entered),
            Arc::clone(&release),
            Arc::clone(&count),
        );
        let t = Tasklet::new("t", move || {
            let n = c2.fetch_add(1, Ordering::SeqCst);
            if n == 0 {
                e2.release(); // signal: first run started
                r2.acquire(); // hold the runner inside the tasklet
            }
        });
        engine.schedule(&t);
        entered.acquire();
        engine.schedule(&t); // while running: must re-run afterwards
        release.release();
        assert!(wait_until(|| count.load(Ordering::SeqCst) == 2, 1000));
        engine.shutdown();
    }

    #[test]
    fn never_concurrent_with_itself() {
        let engine = TaskletEngine::new(4, None);
        let inside = Arc::new(AtomicUsize::new(0));
        let max_inside = Arc::new(AtomicUsize::new(0));
        let (i2, m2) = (Arc::clone(&inside), Arc::clone(&max_inside));
        let t = Tasklet::new("t", move || {
            let now = i2.fetch_add(1, Ordering::SeqCst) + 1;
            m2.fetch_max(now, Ordering::SeqCst);
            std::thread::yield_now();
            i2.fetch_sub(1, Ordering::SeqCst);
        });
        for _ in 0..200 {
            engine.schedule(&t);
            std::thread::yield_now();
        }
        assert!(wait_until(|| !t.is_pending(), 2000));
        assert_eq!(
            max_inside.load(Ordering::SeqCst),
            1,
            "tasklet ran concurrently"
        );
        engine.shutdown();
    }

    #[test]
    fn distinct_tasklets_run_in_parallel_engine() {
        let engine = TaskletEngine::new(2, None);
        let count = Arc::new(AtomicUsize::new(0));
        let tasklets: Vec<_> = (0..10)
            .map(|i| {
                let c = Arc::clone(&count);
                Tasklet::new(format!("t{i}"), move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in &tasklets {
            engine.schedule(t);
        }
        assert!(wait_until(|| count.load(Ordering::SeqCst) == 10, 1000));
        engine.shutdown();
    }

    #[test]
    #[should_panic(expected = "cores length")]
    fn mismatched_cores_rejected() {
        let _ = TaskletEngine::new(2, Some(vec![0]));
    }
}
