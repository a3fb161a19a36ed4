//! The model-checking runtime: a token-passing scheduler over real OS
//! threads plus vector-clock happens-before tracking.
//!
//! # How it works
//!
//! Exactly one model thread runs at any time (it "holds the token"). Every
//! instrumented operation — atomic access, cell access, mutex/condvar
//! call — is a *schedule point*: the runtime may hand the token to another
//! runnable thread, chosen by a seeded RNG. One execution is one schedule;
//! [`crate::model`] runs many executions with different seeds.
//!
//! Because execution is serialized, the program's loads always observe the
//! latest store — real weak-memory reorderings are not executed. Instead,
//! the declared memory orderings are checked *symbolically* with vector
//! clocks:
//!
//! * a `Release` store publishes the writer's clock to the location,
//! * an `Acquire` load joins the location's clock into the reader,
//! * a `Relaxed` store publishes nothing (and breaks the release chain),
//! * RMW operations extend the existing release sequence,
//! * fences go through a global fence clock.
//!
//! Shimmed [`crate::cell::UnsafeCell`] accesses are then checked against
//! the clocks: a read must happen-after the last write, a write must
//! happen-after every earlier read and write. A violation means the
//! *declared orderings* do not forbid a data race — exactly the bug class
//! that weakening an ordering (e.g. `Release` → `Relaxed` in an unlock)
//! introduces — and the runtime panics with a diagnostic. This catches
//! such bugs on *any* schedule, without needing the racy interleaving to
//! physically occur.
//!
//! Deadlocks (every thread blocked) and runaway executions (op budget
//! exhausted) are also reported.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering as StdOrd};
use std::sync::{
    Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard, PoisonError,
};

pub use std::sync::atomic::Ordering;

/// Force a token handoff after this many consecutive ops by one thread —
/// guarantees progress for peers even if the RNG never preempts (a thread
/// spinning on a lock would otherwise starve the lock holder forever).
const FORCE_SWITCH_AFTER: u32 = 24;

/// Preempt with probability 1/PREEMPT_ONE_IN at every schedule point.
const PREEMPT_ONE_IN: u64 = 3;

/// Spurious `compare_exchange_weak` failure probability (1 in N).
const SPURIOUS_ONE_IN: u64 = 8;

/// Per-execution operation budget; exceeding it means a livelock (or a
/// test far too big to model-check).
const OP_BUDGET: u64 = 400_000;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Execution>, usize)>> = const { RefCell::new(None) };
}

/// The executing model context of the calling thread, if it is a model
/// thread inside [`crate::model`]. `None` means "fallback mode": shim
/// types behave like their std counterparts.
pub(crate) fn current() -> Option<(Arc<Execution>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(exec: Arc<Execution>, tid: usize) {
    CURRENT.with(|c| *c.borrow_mut() = Some((exec, tid)));
}

pub(crate) fn clear_current() {
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Global location-id allocator. Shim types carry a lazily-assigned id so
/// their constructors stay `const fn`; ids are process-global and each
/// execution keeps its own per-id state.
static NEXT_LOC: AtomicUsize = AtomicUsize::new(1);

/// Resolves (allocating on first use) the location id stored in `meta`.
pub(crate) fn loc_id(meta: &AtomicUsize) -> usize {
    let v = meta.load(StdOrd::Relaxed);
    if v != 0 {
        return v;
    }
    let n = NEXT_LOC.fetch_add(1, StdOrd::Relaxed);
    match meta.compare_exchange(0, n, StdOrd::Relaxed, StdOrd::Relaxed) {
        Ok(_) => n,
        Err(e) => e,
    }
}

/// A vector clock: `vc[tid]` = how far of thread `tid`'s history this
/// clock has observed.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, tid: usize) -> u64 {
        self.0.get(tid).copied().unwrap_or(0)
    }

    fn tick(&mut self, tid: usize) {
        if self.0.len() <= tid {
            self.0.resize(tid + 1, 0);
        }
        self.0[tid] += 1;
    }

    fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }

    fn clear(&mut self) {
        self.0.clear();
    }

    /// `true` if the event `(tid, epoch)` happens-before this clock.
    fn covers(&self, tid: usize, epoch: u64) -> bool {
        self.get(tid) >= epoch
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockedOn {
    Mutex(usize),
    Condvar {
        cv: usize,
        timed: bool,
    },
    Join(usize),
    /// Main thread waiting for every spawned thread to finish.
    JoinAll,
}

#[derive(Debug)]
enum Status {
    Runnable,
    Blocked(BlockedOn),
    Finished,
}

struct ThreadState {
    status: Status,
    vc: VClock,
    consecutive: u32,
    /// Set when a timed condvar wait was woken by "timeout" rather than a
    /// notification; consumed by the waiting thread on resume.
    woke_by_timeout: bool,
    final_vc: VClock,
}

impl ThreadState {
    fn new(vc: VClock) -> Self {
        ThreadState {
            status: Status::Runnable,
            vc,
            consecutive: 0,
            woke_by_timeout: false,
            final_vc: VClock::default(),
        }
    }
}

#[derive(Default)]
struct AtomicMeta {
    /// The release clock carried by the location's current value.
    msg_clock: VClock,
}

#[derive(Default)]
struct CellMeta {
    last_write: Option<(usize, u64)>,
    /// Read epochs per thread since the last write.
    reads: Vec<(usize, u64)>,
}

#[derive(Default)]
struct MutexMeta {
    owner: Option<usize>,
    msg_clock: VClock,
}

struct ExecState {
    threads: Vec<ThreadState>,
    current: usize,
    rng: u64,
    atomics: HashMap<usize, AtomicMeta>,
    cells: HashMap<usize, CellMeta>,
    mutexes: HashMap<usize, MutexMeta>,
    /// Condvar id -> waiting tids, in wait order.
    cv_waiters: HashMap<usize, Vec<usize>>,
    fence_clock: VClock,
    ops: u64,
    failure: Option<String>,
}

impl ExecState {
    fn rand(&mut self) -> u64 {
        // splitmix64.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn rand_one_in(&mut self, n: u64) -> bool {
        self.rand().is_multiple_of(n)
    }

    fn runnable_other(&mut self, me: usize) -> Option<usize> {
        let candidates: Vec<usize> = self
            .threads
            .iter()
            .enumerate()
            .filter(|(tid, t)| *tid != me && matches!(t.status, Status::Runnable))
            .map(|(tid, _)| tid)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            let i = (self.rand() % candidates.len() as u64) as usize;
            Some(candidates[i])
        }
    }

    /// A thread blocked in a *timed* condvar wait, if any (deadlock escape
    /// hatch: timed waits may always "time out").
    fn timed_waiter(&self) -> Option<usize> {
        self.threads.iter().position(|t| {
            matches!(
                t.status,
                Status::Blocked(BlockedOn::Condvar { timed: true, .. })
            )
        })
    }

    /// One line per thread with its status, for a deadlock report.
    fn thread_dump(&self) -> String {
        let lines: Vec<String> = self
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| format!("thread {i}: {:?}", t.status))
            .collect();
        lines.join("\n  ")
    }

    fn wake_timed(&mut self, tid: usize) {
        if let Status::Blocked(BlockedOn::Condvar { cv, .. }) = self.threads[tid].status {
            if let Some(ws) = self.cv_waiters.get_mut(&cv) {
                ws.retain(|&w| w != tid);
            }
        }
        self.threads[tid].status = Status::Runnable;
        self.threads[tid].woke_by_timeout = true;
    }
}

pub(crate) struct Execution {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

impl Execution {
    pub(crate) fn new(seed: u64) -> Arc<Self> {
        let exec = Execution {
            state: StdMutex::new(ExecState {
                threads: vec![ThreadState::new({
                    let mut vc = VClock::default();
                    vc.tick(0);
                    vc
                })],
                current: 0,
                rng: seed ^ 0x5bf0_3635_dcf8_2196,
                atomics: HashMap::new(),
                cells: HashMap::new(),
                mutexes: HashMap::new(),
                cv_waiters: HashMap::new(),
                fence_clock: VClock::default(),
                ops: 0,
                failure: None,
            }),
            cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        };
        Arc::new(exec)
    }

    fn lock(&self) -> StdGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `msg` as the execution's failure and panics (unless already
    /// unwinding). All sleeping threads are woken so they can unwind too.
    fn fail(&self, st: StdGuard<'_, ExecState>, msg: String) -> ! {
        let mut st = st;
        if st.failure.is_none() {
            st.failure = Some(msg.clone());
        }
        drop(st);
        self.cv.notify_all();
        panic!("nm-loom: {msg}");
    }

    fn check_failure(&self, st: &ExecState) -> Option<String> {
        st.failure.clone()
    }

    /// The heart of the scheduler: called before every instrumented op.
    /// May hand the token to another thread and block until it returns.
    pub(crate) fn schedule_point(&self, tid: usize) {
        if std::thread::panicking() {
            // Drop-path operations during unwinding must not panic again
            // (that would abort). Skip scheduling; effects still apply.
            return;
        }
        let mut st = self.lock();
        if let Some(msg) = self.check_failure(&st) {
            drop(st);
            panic!("nm-loom: aborting thread {tid}: {msg}");
        }
        st.ops += 1;
        if st.ops > OP_BUDGET {
            let msg = format!(
                "op budget ({OP_BUDGET}) exceeded — livelock, or a test too \
                 large to model-check"
            );
            self.fail(st, msg);
        }
        st.threads[tid].vc.tick(tid);
        st.threads[tid].consecutive += 1;
        let force = st.threads[tid].consecutive >= FORCE_SWITCH_AFTER;
        if force || st.rand_one_in(PREEMPT_ONE_IN) {
            st.threads[tid].consecutive = 0;
            if let Some(next) = st.runnable_other(tid) {
                st.current = next;
                drop(st);
                self.cv.notify_all();
                self.wait_for_turn(tid);
            }
        }
    }

    /// Blocks until the scheduler hands this thread the token.
    pub(crate) fn wait_for_turn(&self, tid: usize) {
        let mut st = self.lock();
        loop {
            if let Some(msg) = self.check_failure(&st) {
                drop(st);
                if !std::thread::panicking() {
                    panic!("nm-loom: aborting thread {tid}: {msg}");
                }
                return;
            }
            if st.current == tid && matches!(st.threads[tid].status, Status::Runnable) {
                return;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks the current thread on `on` and hands the token elsewhere.
    /// Returns once another thread has made this one runnable again (and
    /// the scheduler has picked it).
    fn block_current(&self, tid: usize, on: BlockedOn) {
        let mut st = self.lock();
        st.threads[tid].status = Status::Blocked(on);
        st.threads[tid].consecutive = 0;
        match st.runnable_other(tid) {
            Some(next) => st.current = next,
            None => {
                if let Some(w) = st.timed_waiter() {
                    st.wake_timed(w);
                    st.current = w;
                    if w == tid {
                        // We are the only escape hatch: resume immediately.
                        drop(st);
                        return;
                    }
                } else {
                    let msg = format!("deadlock — every thread is blocked\n  {}", st.thread_dump());
                    self.fail(st, msg);
                }
            }
        }
        drop(st);
        self.cv.notify_all();
        self.wait_for_turn(tid);
    }

    // ----- atomics -----
    //
    // The `*_effects` functions deliberately do NOT contain a schedule
    // point: callers schedule first, then perform the real value operation
    // and the clock effects back-to-back while still holding the token, so
    // the two are atomic with respect to the model.

    pub(crate) fn atomic_load_effects(&self, tid: usize, loc: usize, ord: Ordering) {
        let mut st = self.lock();
        if is_acquire(ord) {
            let clock = st.atomics.entry(loc).or_default().msg_clock.clone();
            st.threads[tid].vc.join(&clock);
            if matches!(ord, Ordering::SeqCst) {
                let fc = st.fence_clock.clone();
                st.threads[tid].vc.join(&fc);
            }
        }
    }

    pub(crate) fn atomic_store_effects(&self, tid: usize, loc: usize, ord: Ordering) {
        let mut st = self.lock();
        let vc = st.threads[tid].vc.clone();
        if matches!(ord, Ordering::SeqCst) {
            st.fence_clock.join(&vc);
        }
        let meta = st.atomics.entry(loc).or_default();
        if is_release(ord) {
            meta.msg_clock = vc;
        } else {
            // A relaxed store begins a new value with no release history —
            // this is what breaks the unlock chain when `Release` is
            // weakened to `Relaxed`.
            meta.msg_clock.clear();
        }
    }

    /// Effects of a successful read-modify-write with ordering `ord`.
    /// An RMW always reads-from the previous value, so a release RMW
    /// *extends* the existing release sequence (join, not overwrite), and
    /// even a relaxed RMW preserves it.
    pub(crate) fn atomic_rmw_effects(&self, tid: usize, loc: usize, ord: Ordering) {
        let mut st = self.lock();
        let prev = st.atomics.entry(loc).or_default().msg_clock.clone();
        if is_acquire(ord) {
            st.threads[tid].vc.join(&prev);
            if matches!(ord, Ordering::SeqCst) {
                let fc = st.fence_clock.clone();
                st.threads[tid].vc.join(&fc);
            }
        }
        if is_release(ord) {
            let vc = st.threads[tid].vc.clone();
            if matches!(ord, Ordering::SeqCst) {
                st.fence_clock.join(&vc);
            }
            st.atomics.entry(loc).or_default().msg_clock.join(&vc);
        }
    }

    /// Whether a `compare_exchange_weak` should fail spuriously this time.
    pub(crate) fn spurious_failure(&self) -> bool {
        let mut st = self.lock();
        st.rand_one_in(SPURIOUS_ONE_IN)
    }

    pub(crate) fn fence(&self, tid: usize, ord: Ordering) {
        self.schedule_point(tid);
        let mut st = self.lock();
        if is_acquire(ord) {
            let fc = st.fence_clock.clone();
            st.threads[tid].vc.join(&fc);
        }
        if is_release(ord) {
            let vc = st.threads[tid].vc.clone();
            st.fence_clock.join(&vc);
        }
    }

    // ----- cells (data-race detection) -----

    pub(crate) fn cell_read(&self, tid: usize, loc: usize) {
        self.schedule_point(tid);
        let mut st = self.lock();
        let me = st.threads[tid].vc.clone();
        let meta = st.cells.entry(loc).or_default();
        if let Some((wt, we)) = meta.last_write {
            if wt != tid && !me.covers(wt, we) {
                let msg = format!(
                    "data race on UnsafeCell (loc {loc}): thread {tid} reads a value \
                     written by thread {wt} without a happens-before edge \
                     (missing acquire/release synchronization)"
                );
                self.fail(st, msg);
            }
        }
        let epoch = me.get(tid);
        match meta.reads.iter_mut().find(|(t, _)| *t == tid) {
            Some(r) => r.1 = epoch,
            None => meta.reads.push((tid, epoch)),
        }
    }

    pub(crate) fn cell_write(&self, tid: usize, loc: usize) {
        self.schedule_point(tid);
        let mut st = self.lock();
        let me = st.threads[tid].vc.clone();
        let meta = st.cells.entry(loc).or_default();
        if let Some((wt, we)) = meta.last_write {
            if wt != tid && !me.covers(wt, we) {
                let msg = format!(
                    "data race on UnsafeCell (loc {loc}): thread {tid} overwrites a \
                     value written by thread {wt} without a happens-before edge"
                );
                self.fail(st, msg);
            }
        }
        if let Some(&(rt, re)) = meta
            .reads
            .iter()
            .find(|(rt, re)| *rt != tid && !me.covers(*rt, *re))
        {
            let _ = re;
            let msg = format!(
                "data race on UnsafeCell (loc {loc}): thread {tid} writes while a \
                 read by thread {rt} is unordered with it"
            );
            self.fail(st, msg);
        }
        let epoch = me.get(tid);
        meta.last_write = Some((tid, epoch));
        meta.reads.clear();
    }

    // ----- mutex / condvar -----

    pub(crate) fn mutex_lock(&self, tid: usize, id: usize) {
        loop {
            self.schedule_point(tid);
            let mut st = self.lock();
            let m = st.mutexes.entry(id).or_default();
            if m.owner.is_none() {
                m.owner = Some(tid);
                let clock = m.msg_clock.clone();
                st.threads[tid].vc.join(&clock);
                return;
            }
            drop(st);
            self.block_current(tid, BlockedOn::Mutex(id));
        }
    }

    pub(crate) fn mutex_try_lock(&self, tid: usize, id: usize) -> bool {
        self.schedule_point(tid);
        let mut st = self.lock();
        let m = st.mutexes.entry(id).or_default();
        if m.owner.is_none() {
            m.owner = Some(tid);
            let clock = m.msg_clock.clone();
            st.threads[tid].vc.join(&clock);
            true
        } else {
            false
        }
    }

    pub(crate) fn mutex_unlock(&self, tid: usize, id: usize) {
        // Called from guard Drop — must never panic (see schedule_point).
        let mut st = self.lock();
        if st.mutexes.entry(id).or_default().owner != Some(tid) {
            // The guard is being dropped mid-condvar-wait (the wait
            // already released the mutex) or while unwinding after a
            // model failure — nothing to release.
            return;
        }
        st.threads[tid].vc.tick(tid);
        let vc = st.threads[tid].vc.clone();
        let m = st.mutexes.entry(id).or_default();
        m.owner = None;
        m.msg_clock.join(&vc);
        // Wake every waiter; they re-compete for the lock.
        for t in st.threads.iter_mut() {
            if matches!(t.status, Status::Blocked(BlockedOn::Mutex(m)) if m == id) {
                t.status = Status::Runnable;
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Condvar wait: atomically release the mutex and sleep; on wake,
    /// reacquire. Returns `true` if the wake was a (modeled) timeout.
    pub(crate) fn condvar_wait(&self, tid: usize, cv: usize, mutex: usize, timed: bool) -> bool {
        self.schedule_point(tid);
        // A timed wait may simply time out before anything happens — model
        // that branch with a scheduler coin flip.
        if timed {
            let mut st = self.lock();
            if st.rand_one_in(4) {
                return true;
            }
        }
        {
            let mut st = self.lock();
            st.cv_waiters.entry(cv).or_default().push(tid);
            st.threads[tid].woke_by_timeout = false;
            // Release the mutex exactly as mutex_unlock does.
            let vc = st.threads[tid].vc.clone();
            let m = st.mutexes.entry(mutex).or_default();
            debug_assert_eq!(m.owner, Some(tid), "condvar wait without the mutex");
            m.owner = None;
            m.msg_clock.join(&vc);
            for t in st.threads.iter_mut() {
                if matches!(t.status, Status::Blocked(BlockedOn::Mutex(mm)) if mm == mutex) {
                    t.status = Status::Runnable;
                }
            }
            drop(st);
            self.cv.notify_all();
        }
        self.block_current(tid, BlockedOn::Condvar { cv, timed });
        let timed_out = {
            let mut st = self.lock();
            std::mem::take(&mut st.threads[tid].woke_by_timeout)
        };
        self.mutex_lock(tid, mutex);
        timed_out
    }

    pub(crate) fn condvar_notify(&self, tid: usize, cv: usize, all: bool) {
        self.schedule_point(tid);
        let mut st = self.lock();
        let Some(waiters) = st.cv_waiters.get_mut(&cv) else {
            return;
        };
        let woken: Vec<usize> = if all {
            std::mem::take(waiters)
        } else if waiters.is_empty() {
            Vec::new()
        } else {
            vec![waiters.remove(0)]
        };
        for w in woken {
            st.threads[w].status = Status::Runnable;
            st.threads[w].woke_by_timeout = false;
        }
        drop(st);
        self.cv.notify_all();
    }

    // ----- threads -----

    /// Registers a new model thread whose clock inherits the parent's.
    pub(crate) fn register_thread(&self, parent: usize) -> usize {
        let mut st = self.lock();
        st.threads[parent].vc.tick(parent);
        let mut vc = st.threads[parent].vc.clone();
        let tid = st.threads.len();
        vc.tick(tid);
        st.threads.push(ThreadState::new(vc));
        tid
    }

    pub(crate) fn store_handle(&self, h: std::thread::JoinHandle<()>) {
        self.handles
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(h);
    }

    pub(crate) fn take_handles(&self) -> Vec<std::thread::JoinHandle<()>> {
        std::mem::take(&mut self.handles.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Marks `tid` finished, records a failure if it panicked, wakes its
    /// joiners and hands the token onward. Never panics.
    pub(crate) fn finish_thread(&self, tid: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.threads[tid].vc.tick(tid);
        st.threads[tid].final_vc = st.threads[tid].vc.clone();
        st.threads[tid].status = Status::Finished;
        if let Some(msg) = panic_msg {
            if st.failure.is_none() {
                st.failure = Some(format!("thread {tid} panicked: {msg}"));
            }
        }
        // Wake joiners of this thread.
        for t in st.threads.iter_mut() {
            if matches!(t.status, Status::Blocked(BlockedOn::Join(j)) if j == tid) {
                t.status = Status::Runnable;
            }
        }
        // Wake the main thread if it waits for all and all are done.
        let all_done = st
            .threads
            .iter()
            .enumerate()
            .all(|(i, t)| i == 0 || matches!(t.status, Status::Finished));
        if all_done {
            if let Status::Blocked(BlockedOn::JoinAll) = st.threads[0].status {
                st.threads[0].status = Status::Runnable;
            }
        }
        if st.current == tid {
            if let Some(next) = st.runnable_other(tid) {
                st.current = next;
            } else if let Some(w) = st.timed_waiter() {
                st.wake_timed(w);
                st.current = w;
            } else if st.failure.is_none()
                && st
                    .threads
                    .iter()
                    .any(|t| matches!(t.status, Status::Blocked(_)))
            {
                // The last runnable thread exited and left others parked:
                // a lost wakeup. Record it (this path must not panic); the
                // parked threads see the failure and abort.
                st.failure = Some(format!(
                    "deadlock — thread {tid} exited and every other thread is blocked\n  {}",
                    st.thread_dump()
                ));
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// Joins `target`: blocks until it finishes, then inherits its clock.
    pub(crate) fn join_thread(&self, tid: usize, target: usize) {
        self.schedule_point(tid);
        loop {
            let st = self.lock();
            if matches!(st.threads[target].status, Status::Finished) {
                let mut st = st;
                let fvc = st.threads[target].final_vc.clone();
                st.threads[tid].vc.join(&fvc);
                return;
            }
            drop(st);
            self.block_current(tid, BlockedOn::Join(target));
        }
    }

    /// Main-thread epilogue: keep the scheduler running until every
    /// spawned thread has finished (tests normally join explicitly; this
    /// covers detached threads and panics-after-spawn).
    pub(crate) fn drain(&self, tid: usize) {
        loop {
            let st = self.lock();
            if let Some(msg) = self.check_failure(&st) {
                drop(st);
                panic!("nm-loom: {msg}");
            }
            let all_done = st
                .threads
                .iter()
                .enumerate()
                .all(|(i, t)| i == tid || matches!(t.status, Status::Finished));
            if all_done {
                return;
            }
            drop(st);
            self.block_current(tid, BlockedOn::JoinAll);
        }
    }

    pub(crate) fn failure(&self) -> Option<String> {
        self.lock().failure.clone()
    }

    pub(crate) fn set_failure(&self, msg: String) {
        let mut st = self.lock();
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        drop(st);
        self.cv.notify_all();
    }
}
