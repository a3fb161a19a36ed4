//! The poll-source registry.

use std::sync::Arc;

use nm_metrics::Counter;
use nm_sync::sync_shim::atomic::{AtomicU64, Ordering};
use nm_sync::{CachePadded, SpinLock};

/// Result of one polling pass over a source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollOutcome {
    /// The pass completed at least one event.
    Progressed,
    /// Nothing to do.
    Idle,
}

/// Something the engine polls: typically a communication core's
/// "make everything progress one step" entry point, or an [`Offloader`]
/// draining deferred submissions.
///
/// [`Offloader`]: crate::Offloader
pub trait PollSource: Send + Sync {
    /// Runs one polling pass.
    fn poll(&self) -> PollOutcome;
    /// Diagnostic name.
    fn name(&self) -> &str {
        "anonymous"
    }
}

impl<F: Fn() -> PollOutcome + Send + Sync> PollSource for F {
    fn poll(&self) -> PollOutcome {
        self()
    }
    fn name(&self) -> &str {
        "closure"
    }
}

/// Opaque registration id, used to unregister.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceId(u64);

type SourceList = Arc<Vec<(SourceId, Arc<dyn PollSource>)>>;

/// A poller's own copy of an engine's source list, for
/// [`ProgressEngine::poll_cached`]: the list as of a generation of the
/// engine. It is made by [`ProgressEngine::source_cache`] and serves that
/// engine only; `poll_cached` debug-asserts so.
pub struct SourceCache {
    /// Address of the engine that made the cache.
    engine: usize,
    generation: u64,
    sources: SourceList,
}

/// The progression engine: a locked list of poll sources.
///
/// `poll_all` snapshots the list under a spinlock and polls outside it, so
/// sources may re-enter the engine (e.g. an offloaded submission that
/// triggers more polling). The snapshot is an `Arc` clone — no allocation
/// on the hot path. The lock acquisition plus list traversal is precisely
/// the "management of PIOMan internal lists as well as locking" overhead
/// the paper measures in Fig 6.
///
/// A poller that runs pass after pass — a [`ProgressionThread`] — keeps
/// its snapshot in a [`SourceCache`] instead and takes the lock only when
/// the list's generation has moved since: every change of the list bumps
/// the generation under the lock, so a pass that reads an unchanged
/// generation holds the current list and takes no lock at all.
///
/// [`ProgressionThread`]: crate::ProgressionThread
pub struct ProgressEngine {
    sources: SpinLock<SourceList>,
    /// How many times `sources` has been replaced; bumped under its lock,
    /// on a line of its own so that the pollers reading it share it with
    /// nothing that is written per pass.
    generation: CachePadded<AtomicU64>,
    next_id: AtomicU64,
    polls: Counter,
    progressions: Counter,
    /// Consecutive poll passes (on this engine) with zero progress.
    empty_streak: AtomicU64,
}

impl ProgressEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        ProgressEngine {
            sources: SpinLock::with_class("progress.sources", Arc::new(Vec::new())),
            generation: CachePadded::new(AtomicU64::new(0)),
            next_id: AtomicU64::new(0),
            polls: Counter::new(),
            progressions: Counter::new(),
            empty_streak: AtomicU64::new(0),
        }
    }

    /// Registers a source; it is polled on every subsequent pass.
    pub fn register(&self, source: Arc<dyn PollSource>) -> SourceId {
        // relaxed: unique-id allocation; the list update below is what
        // publishes the source (under its spinlock).
        let id = SourceId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut guard = self.sources.lock();
        let mut next = (**guard).clone();
        next.push((id, source));
        *guard = Arc::new(next);
        self.bump_generation();
        id
    }

    /// Marks the list replaced. The caller holds the `sources` lock.
    fn bump_generation(&self) {
        // relaxed: the generation only tells a cache when to take the
        // lock; the list itself is read under it, whose acquire orders it.
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes a source. Unknown ids are ignored (unregistering twice is
    /// benign).
    ///
    /// A pass already in flight may still poll the source. So may a
    /// poller holding a [`SourceCache`], until its first pass that reads
    /// the new generation; until then its cache also keeps the source
    /// alive.
    pub fn unregister(&self, id: SourceId) {
        let mut guard = self.sources.lock();
        if guard.iter().any(|(sid, _)| *sid == id) {
            let next: Vec<_> = guard
                .iter()
                .filter(|(sid, _)| *sid != id)
                .cloned()
                .collect();
            *guard = Arc::new(next);
            self.bump_generation();
        }
    }

    /// Polls every registered source once; returns how many progressed.
    pub fn poll_all(&self) -> usize {
        // The lock is held only to clone the snapshot pointer: ~the cost
        // of one uncontended spinlock cycle plus an Arc refcount bump.
        let snapshot = Arc::clone(&*self.sources.lock());
        self.poll_list(&snapshot)
    }

    /// An empty cache of this engine's list, for
    /// [`ProgressEngine::poll_cached`]; its first pass fills it unless the
    /// engine has never had a source. The cache knows the engine by
    /// address, so the engine must stay where it is while the cache is in
    /// use (engines are shared behind an `Arc`).
    pub fn source_cache(&self) -> SourceCache {
        SourceCache {
            engine: self.address(),
            generation: 0,
            sources: Arc::new(Vec::new()),
        }
    }

    fn address(&self) -> usize {
        self as *const Self as usize
    }

    /// [`ProgressEngine::poll_all`] over `cache`, refreshed first if the
    /// list changed since it was taken. A pass over an unchanged list
    /// takes no lock; a source registered or removed is seen on a later
    /// pass, the first one that reads the new generation.
    pub fn poll_cached(&self, cache: &mut SourceCache) -> usize {
        debug_assert_eq!(
            cache.engine,
            self.address(),
            "a SourceCache serves the engine that made it"
        );
        // relaxed: see `bump_generation`; a stale read defers the refresh
        // to a later pass, and the lock below orders the list.
        if self.generation.load(Ordering::Relaxed) != cache.generation {
            let guard = self.sources.lock();
            cache.sources = Arc::clone(&guard);
            // relaxed: read under the lock its bumps are made under, so
            // it is the generation of the list just taken.
            cache.generation = self.generation.load(Ordering::Relaxed);
        }
        self.poll_list(&cache.sources)
    }

    /// Polls every source of `list` once; returns how many progressed.
    fn poll_list(&self, list: &[(SourceId, Arc<dyn PollSource>)]) -> usize {
        self.polls.incr();
        crate::metrics::polls_counter().incr();
        // The begin→end span is the paper's ~200 ns "PIOMan pass".
        nm_metrics::trace_event!(PollPassBegin);
        let mut progressed = 0;
        for (_, source) in list {
            if source.poll() == PollOutcome::Progressed {
                progressed += 1;
            }
        }
        if progressed > 0 {
            self.progressions.add(progressed as u64);
            crate::metrics::progressions_counter().add(progressed as u64);
            // relaxed: health diagnostics; passes may interleave freely.
            self.empty_streak.store(0, Ordering::Relaxed);
            crate::metrics::empty_poll_streak().set(0);
        } else {
            // relaxed: as above — an approximate streak under concurrent
            // pollers is acceptable for a health gauge.
            let streak = self.empty_streak.fetch_add(1, Ordering::Relaxed) + 1;
            crate::metrics::empty_poll_streak().set(streak as i64);
            crate::metrics::empty_poll_streak_max().record_max(streak as i64);
        }
        nm_metrics::trace_event!(PollPassEnd, progressed);
        progressed
    }

    /// Number of registered sources.
    pub fn num_sources(&self) -> usize {
        self.sources.lock().len()
    }

    /// Total polling passes performed.
    pub fn total_polls(&self) -> u64 {
        self.polls.get()
    }

    /// Total source passes that reported progress.
    pub fn total_progressions(&self) -> u64 {
        self.progressions.get()
    }

    /// Attaches this engine to a scheduler: every idle, yield and timer
    /// event triggers a polling pass — the paper's MARCEL hooks.
    pub fn attach(self: &Arc<Self>, scheduler: &nm_sched::Scheduler) {
        let engine = Arc::clone(self);
        scheduler.add_hook(move |_event| {
            engine.poll_all();
        });
    }
}

impl Default for ProgressEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ProgressEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressEngine")
            .field("sources", &self.num_sources())
            .field("polls", &self.total_polls())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct CountingSource {
        calls: AtomicUsize,
        progress_until: usize,
    }

    impl PollSource for CountingSource {
        fn poll(&self) -> PollOutcome {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.progress_until {
                PollOutcome::Progressed
            } else {
                PollOutcome::Idle
            }
        }
        fn name(&self) -> &str {
            "counting"
        }
    }

    #[test]
    fn polls_all_registered_sources() {
        let engine = ProgressEngine::new();
        let a = Arc::new(CountingSource {
            calls: AtomicUsize::new(0),
            progress_until: 1,
        });
        let b = Arc::new(CountingSource {
            calls: AtomicUsize::new(0),
            progress_until: 0,
        });
        engine.register(Arc::clone(&a) as _);
        engine.register(Arc::clone(&b) as _);
        assert_eq!(engine.poll_all(), 1); // only `a` progresses
        assert_eq!(engine.poll_all(), 0);
        assert_eq!(a.calls.load(Ordering::SeqCst), 2);
        assert_eq!(b.calls.load(Ordering::SeqCst), 2);
        assert_eq!(engine.total_polls(), 2);
        assert_eq!(engine.total_progressions(), 1);
    }

    #[test]
    fn unregister_stops_polling() {
        let engine = ProgressEngine::new();
        let a = Arc::new(CountingSource {
            calls: AtomicUsize::new(0),
            progress_until: usize::MAX,
        });
        let id = engine.register(Arc::clone(&a) as _);
        engine.poll_all();
        engine.unregister(id);
        engine.unregister(id); // double unregister is benign
        engine.poll_all();
        assert_eq!(a.calls.load(Ordering::SeqCst), 1);
        assert_eq!(engine.num_sources(), 0);
    }

    #[test]
    fn cached_polls_lock_only_after_the_list_changes() {
        let engine = ProgressEngine::new();
        let locks = || engine.sources.stats().acquisitions();
        let mut cache = engine.source_cache();
        let before = locks();
        assert_eq!(engine.poll_cached(&mut cache), 0, "fresh cache, empty list");
        assert_eq!(locks(), before, "generation 0 is the empty list");
        let a = Arc::new(CountingSource {
            calls: AtomicUsize::new(0),
            progress_until: usize::MAX,
        });
        let id = engine.register(Arc::clone(&a) as _);
        let before = locks();
        assert_eq!(engine.poll_cached(&mut cache), 1, "registration seen");
        assert_eq!(locks(), before + 1, "one refresh");
        for _ in 0..10 {
            assert_eq!(engine.poll_cached(&mut cache), 1);
        }
        assert_eq!(locks(), before + 1, "unchanged list: no lock");
        engine.unregister(id);
        assert_eq!(engine.poll_cached(&mut cache), 0, "removal seen");
        assert_eq!(a.calls.load(Ordering::SeqCst), 11);
        assert_eq!(engine.total_polls(), 13);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "serves the engine that made it")]
    fn a_cache_serves_only_its_engine() {
        let (a, b) = (ProgressEngine::new(), ProgressEngine::new());
        let mut cache = a.source_cache();
        b.poll_cached(&mut cache);
    }

    #[test]
    fn closure_sources_work() {
        let engine = ProgressEngine::new();
        engine.register(Arc::new(|| PollOutcome::Idle));
        assert_eq!(engine.poll_all(), 0);
    }

    #[test]
    fn source_may_reenter_engine() {
        // A source that registers another source while being polled.
        struct Reentrant {
            engine: Arc<ProgressEngine>,
            fired: AtomicUsize,
        }
        impl PollSource for Reentrant {
            fn poll(&self) -> PollOutcome {
                if self.fired.fetch_add(1, Ordering::SeqCst) == 0 {
                    self.engine.register(Arc::new(|| PollOutcome::Idle));
                }
                PollOutcome::Idle
            }
        }
        let engine = Arc::new(ProgressEngine::new());
        engine.register(Arc::new(Reentrant {
            engine: Arc::clone(&engine),
            fired: AtomicUsize::new(0),
        }));
        engine.poll_all(); // must not deadlock
        assert_eq!(engine.num_sources(), 2);
    }

    #[test]
    fn concurrent_register_unregister_poll() {
        use std::sync::atomic::AtomicBool;
        let engine = Arc::new(ProgressEngine::new());
        let stop = Arc::new(AtomicBool::new(false));
        let pollers: Vec<_> = (0..2)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        engine.poll_all();
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            let id = engine.register(Arc::new(|| PollOutcome::Progressed));
            engine.unregister(id);
        }
        stop.store(true, Ordering::Release);
        for p in pollers {
            p.join().unwrap();
        }
        assert_eq!(engine.num_sources(), 0);
    }

    #[test]
    fn attach_polls_from_scheduler_hooks() {
        let engine = Arc::new(ProgressEngine::new());
        let polled = Arc::new(AtomicUsize::new(0));
        let p2 = Arc::clone(&polled);
        engine.register(Arc::new(move || {
            p2.fetch_add(1, Ordering::Relaxed);
            PollOutcome::Idle
        }));
        let sched = nm_sched::Scheduler::new(nm_sched::SchedulerConfig::default().workers(1));
        engine.attach(&sched);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            polled.load(Ordering::Relaxed) > 0,
            "idle hooks never polled the engine"
        );
        sched.shutdown();
    }
}
