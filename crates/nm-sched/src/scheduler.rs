//! The worker pool: global injector + per-worker stealing deques.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_deque::{Injector, Stealer, Worker as Deque};
use parking_lot::{Condvar, Mutex};

use nm_metrics::Counter;

use crate::handle::TaskHandle;
use crate::hooks::{HookEvent, HookRegistry};

/// Per-worker execution counters.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: Counter,
    /// Tasks it stole from a sibling's deque.
    pub stolen: Counter,
}

type Task = Box<dyn FnOnce(&WorkerCtx) + Send + 'static>;

/// Scheduler construction parameters.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// Optional per-worker core binding (length must equal `workers`).
    pub bind_cores: Option<Vec<usize>>,
    /// Period of the timer hook; `None` disables the timer thread.
    pub timer_interval: Option<Duration>,
    /// How long an idle worker sleeps before re-firing its idle hook.
    ///
    /// Idle hooks fire once per wakeup, so this bounds the progression
    /// latency contributed by a sleeping pool.
    pub idle_park: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            bind_cores: None,
            timer_interval: None,
            idle_park: Duration::from_micros(100),
        }
    }
}

impl SchedulerConfig {
    /// Sets the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Binds worker `i` to `cores[i]`.
    pub fn bind_cores(mut self, cores: Vec<usize>) -> Self {
        self.bind_cores = Some(cores);
        self
    }

    /// Enables the timer hook at the given period.
    pub fn timer_interval(mut self, period: Duration) -> Self {
        self.timer_interval = Some(period);
        self
    }
}

/// Per-worker context passed to every task.
pub struct WorkerCtx {
    /// Index of the worker executing the task.
    pub worker: usize,
    inner: Arc<Inner>,
}

impl WorkerCtx {
    /// Cooperative yield: fires the context-switch hooks (where PIOMan
    /// polls the network in the paper) without descheduling the task.
    pub fn yield_now(&self) {
        nm_metrics::trace_event!(CtxSwitch, self.worker);
        self.inner.hooks.fire(HookEvent::Yield {
            worker: self.worker,
        });
    }

    /// Spawns a subtask onto the pool.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.inner.spawn_task(Box::new(move |_ctx| f()));
    }
}

struct Inner {
    injector: Injector<Task>,
    stealers: Vec<Stealer<Task>>,
    /// Per-worker execution counters.
    worker_stats: Vec<WorkerStats>,
    hooks: HookRegistry,
    shutdown: AtomicBool,
    /// Sleeping workers wait here; spawns notify it.
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    idle_park: Duration,
}

impl Inner {
    fn spawn_task(&self, task: Task) {
        self.injector.push(task);
        let _g = self.idle_lock.lock();
        self.idle_cv.notify_one();
    }
}

/// A two-level scheduler: a global injector feeding per-worker
/// work-stealing deques, with progression hooks on idle/yield/timer.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    timer: Option<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts the worker pool.
    pub fn new(config: SchedulerConfig) -> Self {
        assert!(config.workers > 0, "at least one worker required");
        if let Some(cores) = &config.bind_cores {
            assert_eq!(
                cores.len(),
                config.workers,
                "bind_cores length must equal worker count"
            );
        }

        let deques: Vec<Deque<Task>> = (0..config.workers).map(|_| Deque::new_fifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let inner = Arc::new(Inner {
            injector: Injector::new(),
            stealers,
            worker_stats: (0..config.workers)
                .map(|_| WorkerStats::default())
                .collect(),
            hooks: HookRegistry::new(),
            shutdown: AtomicBool::new(false),
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            idle_park: config.idle_park,
        });

        let workers = deques
            .into_iter()
            .enumerate()
            .map(|(i, deque)| {
                let inner = Arc::clone(&inner);
                let core = config.bind_cores.as_ref().map(|c| c[i]);
                std::thread::Builder::new()
                    .name(format!("nm-sched-{i}"))
                    .spawn(move || worker_loop(i, deque, inner, core))
                    .expect("failed to spawn scheduler worker")
            })
            .collect();

        let timer = config.timer_interval.map(|period| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("nm-sched-timer".into())
                .spawn(move || {
                    while !inner.shutdown.load(Ordering::Acquire) {
                        std::thread::sleep(period);
                        if inner.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        inner.hooks.fire(HookEvent::Timer);
                    }
                })
                .expect("failed to spawn scheduler timer")
        });

        Scheduler {
            inner,
            workers,
            timer,
        }
    }

    /// Registers a progression hook (fires on idle, yield and timer
    /// events). This is how the I/O manager attaches itself.
    pub fn add_hook(&self, hook: impl Fn(HookEvent) + Send + Sync + 'static) {
        self.inner.hooks.add(hook);
    }

    /// Spawns a fire-and-forget task.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.inner.spawn_task(Box::new(move |_ctx| f()));
    }

    /// Spawns a task that receives its [`WorkerCtx`] (for yields and
    /// subtask spawning).
    pub fn spawn_ctx(&self, f: impl FnOnce(&WorkerCtx) + Send + 'static) {
        self.inner.spawn_task(Box::new(f));
    }

    /// Spawns a task and returns a handle to its result.
    pub fn spawn_with_handle<T: Send + 'static>(
        &self,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        let (handle, slot) = TaskHandle::new();
        self.inner.spawn_task(Box::new(move |_ctx| {
            slot.complete(f());
        }));
        handle
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Execution counters of worker `i`.
    pub fn worker_stats(&self, i: usize) -> &WorkerStats {
        &self.inner.worker_stats[i]
    }

    /// Total tasks executed across all workers.
    pub fn total_executed(&self) -> u64 {
        self.inner
            .worker_stats
            .iter()
            .map(|w| w.executed.get())
            .sum()
    }

    /// Stops all workers after the queues drain of currently stolen tasks,
    /// and joins them. Pending never-started tasks are dropped.
    pub fn shutdown(self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _g = self.inner.idle_lock.lock();
            self.inner.idle_cv.notify_all();
        }
        for w in self.workers {
            let _ = w.join();
        }
        if let Some(t) = self.timer {
            let _ = t.join();
        }
    }
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .field("timer", &self.timer.is_some())
            .finish()
    }
}

fn worker_loop(index: usize, local: Deque<Task>, inner: Arc<Inner>, core: Option<usize>) {
    if let Some(core) = core {
        // Binding failures (e.g. restricted cpuset) are not fatal: the
        // scheduler still works, placement just becomes best-effort.
        let _ = nm_topo::affinity::bind_current_thread(core);
    }
    let ctx = WorkerCtx {
        worker: index,
        inner: Arc::clone(&inner),
    };
    loop {
        if let Some(task) = find_task(index, &local, &inner) {
            inner.worker_stats[index].executed.incr();
            task(&ctx);
            // Task boundary = context switch point.
            nm_metrics::trace_event!(CtxSwitch, index);
            inner.hooks.fire(HookEvent::Yield { worker: index });
            continue;
        }
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Nothing runnable: this is the "idle core" the paper exploits.
        nm_metrics::trace_event!(IdleHook, index);
        inner.hooks.fire(HookEvent::Idle { worker: index });
        let mut g = inner.idle_lock.lock();
        // Re-check under the lock to avoid sleeping through a wakeup.
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        if inner.injector.is_empty() {
            inner.idle_cv.wait_for(&mut g, inner.idle_park);
        }
    }
}

fn find_task(index: usize, local: &Deque<Task>, inner: &Inner) -> Option<Task> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    // Refill from the global injector, then steal from siblings.
    loop {
        match inner.injector.steal_batch_and_pop(local) {
            crossbeam_deque::Steal::Success(t) => return Some(t),
            crossbeam_deque::Steal::Retry => continue,
            crossbeam_deque::Steal::Empty => break,
        }
    }
    for (i, stealer) in inner.stealers.iter().enumerate() {
        if i == index {
            continue;
        }
        loop {
            match stealer.steal() {
                crossbeam_deque::Steal::Success(t) => {
                    inner.worker_stats[index].stolen.incr();
                    return Some(t);
                }
                crossbeam_deque::Steal::Retry => continue,
                crossbeam_deque::Steal::Empty => break,
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_spawned_tasks() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(2));
        let count = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..100)
            .map(|_| {
                let c = Arc::clone(&count);
                sched.spawn_with_handle(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(count.load(Ordering::Relaxed), 100);
        sched.shutdown();
    }

    #[test]
    fn handle_returns_value() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(1));
        let h = sched.spawn_with_handle(|| "result".to_string());
        assert_eq!(h.join(), "result");
        sched.shutdown();
    }

    #[test]
    fn try_join_before_and_after() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(1));
        let gate = Arc::new(nm_sync::Semaphore::new(0));
        let g2 = Arc::clone(&gate);
        let h = sched.spawn_with_handle(move || {
            g2.acquire();
            5
        });
        let h = match h.try_join() {
            Ok(_) => panic!("task cannot be done: it is gated"),
            Err(h) => h,
        };
        gate.release();
        assert_eq!(h.join(), 5);
        sched.shutdown();
    }

    #[test]
    fn idle_hooks_fire_when_pool_is_idle() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(1));
        let idles = Arc::new(AtomicUsize::new(0));
        let i2 = Arc::clone(&idles);
        sched.add_hook(move |ev| {
            if matches!(ev, HookEvent::Idle { .. }) {
                i2.fetch_add(1, Ordering::Relaxed);
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(idles.load(Ordering::Relaxed) > 0, "no idle hook fired");
        sched.shutdown();
    }

    #[test]
    fn yield_hooks_fire_at_task_boundaries_and_explicit_yields() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(1));
        let yields = Arc::new(AtomicUsize::new(0));
        let y2 = Arc::clone(&yields);
        sched.add_hook(move |ev| {
            if matches!(ev, HookEvent::Yield { .. }) {
                y2.fetch_add(1, Ordering::Relaxed);
            }
        });
        let done = Arc::new(nm_sync::CompletionFlag::new());
        let d2 = Arc::clone(&done);
        sched.spawn_ctx(move |ctx| {
            ctx.yield_now();
            ctx.yield_now();
            d2.signal();
        });
        done.wait(nm_sync::WaitStrategy::Passive);
        // Give the post-task boundary hook a moment.
        std::thread::sleep(Duration::from_millis(10));
        assert!(
            yields.load(Ordering::Relaxed) >= 3,
            "expected 2 explicit + 1 boundary yields, got {}",
            yields.load(Ordering::Relaxed)
        );
        sched.shutdown();
    }

    #[test]
    fn timer_hook_fires_periodically() {
        let sched = Scheduler::new(
            SchedulerConfig::default()
                .workers(1)
                .timer_interval(Duration::from_millis(5)),
        );
        let ticks = Arc::new(AtomicUsize::new(0));
        let t2 = Arc::clone(&ticks);
        sched.add_hook(move |ev| {
            if ev == HookEvent::Timer {
                t2.fetch_add(1, Ordering::Relaxed);
            }
        });
        std::thread::sleep(Duration::from_millis(100));
        let n = ticks.load(Ordering::Relaxed);
        assert!(n >= 3, "timer fired only {n} times in 100 ms");
        sched.shutdown();
    }

    #[test]
    fn subtask_spawning_from_within_task() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(2));
        let count = Arc::new(AtomicUsize::new(0));
        let done = Arc::new(nm_sync::Semaphore::new(0));
        let (c2, d2) = (Arc::clone(&count), Arc::clone(&done));
        sched.spawn_ctx(move |ctx| {
            for _ in 0..10 {
                let c = Arc::clone(&c2);
                let d = Arc::clone(&d2);
                ctx.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                    d.release();
                });
            }
        });
        for _ in 0..10 {
            done.acquire();
        }
        assert_eq!(count.load(Ordering::Relaxed), 10);
        sched.shutdown();
    }

    #[test]
    fn work_distributes_across_workers() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(4));
        let seen = Arc::new(parking_lot::Mutex::new(std::collections::HashSet::new()));
        let done = Arc::new(nm_sync::Semaphore::new(0));
        for _ in 0..64 {
            let (s2, d2) = (Arc::clone(&seen), Arc::clone(&done));
            sched.spawn_ctx(move |ctx| {
                s2.lock().insert(ctx.worker);
                // A little work so other workers get a chance to steal.
                std::thread::sleep(Duration::from_micros(200));
                d2.release();
            });
        }
        for _ in 0..64 {
            done.acquire();
        }
        // On a single-CPU host all tasks may still land on one worker;
        // just assert nothing panicked and at least one worker ran.
        assert!(!seen.lock().is_empty());
        sched.shutdown();
    }

    #[test]
    fn worker_stats_count_executions() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(2));
        let handles: Vec<_> = (0..20).map(|_| sched.spawn_with_handle(|| ())).collect();
        for h in handles {
            h.join();
        }
        assert_eq!(sched.total_executed(), 20);
        let per_worker: u64 = (0..2).map(|i| sched.worker_stats(i).executed.get()).sum();
        assert_eq!(per_worker, 20);
        sched.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_with_busy_tasks() {
        let sched = Scheduler::new(SchedulerConfig::default().workers(2));
        for _ in 0..8 {
            sched.spawn(|| std::thread::sleep(Duration::from_millis(5)));
        }
        sched.shutdown(); // must not hang
    }

    #[test]
    #[should_panic(expected = "bind_cores length")]
    fn mismatched_bind_cores_rejected() {
        let _ = Scheduler::new(SchedulerConfig::default().workers(2).bind_cores(vec![0]));
    }
}
