//! Thread-safety policy: the paper's three locking schemes.
//!
//! All `unsafe` interior-mutability access in `nm-core` is centralized
//! here. Shared library state lives in [`Protected<T>`] cells; every access
//! goes through a [`Section`] guard obtained from the [`LockPolicy`].
//!
//! Two guard levels exist, mirroring the paper's two designs:
//!
//! * [`LockPolicy::enter_api`] — taken once at every library entry point
//!   (`isend`, `irecv`, `progress`). In **coarse** mode (Fig 2) this is
//!   *the* library-wide spinlock: held for the whole call, released before
//!   any blocking. In the other modes it is free.
//! * [`LockPolicy::enter`] — taken around one logical critical section
//!   (gate *g*'s send state, gate *g*'s matching state, or lane *i*:
//!   its transfer list, reliability window and NIC context). In
//!   **fine** mode (Fig 4) this takes the section's own
//!   spinlock; in **coarse** mode it is free (the API guard already
//!   serializes); in **single-thread** mode it only checks the calling
//!   thread.
//!
//! | logical section  | `SingleThread` | `Coarse` (Fig 2) | `Fine` (Fig 4) |
//! |------------------|----------------|------------------|----------------|
//! | API entry        | thread check   | global spinlock  | nothing        |
//! | gate *g* tx      | nothing        | nothing (covered)| collect-tx spinlock *g* |
//! | gate *g* rx      | nothing        | nothing (covered)| collect-rx spinlock *g* |
//! | lane *i*         | nothing        | nothing (covered)| driver spinlock *i* |
//!
//! The collect layer is **sharded per gate**: each gate owns an
//! independent tx lock (submit queue, rendezvous-out table) and rx lock
//! (matching state). N threads driving N distinct peers in fine-grain
//! mode therefore contend on nothing — only flows targeting the *same*
//! gate serialize, which is the scalable-endpoints design of Zambre et
//! al. rather than the original library-wide collect lock.
//!
//! `SingleThread` reproduces the "no locking" curve of Fig 3: it takes no
//! lock at all and enforces at runtime that a single thread ever enters
//! the library (first caller wins; any other thread panics).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

use nm_sync::RawSpin;

/// The paper's locking schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LockingMode {
    /// No locks; library restricted to one thread (Fig 3 "no locking").
    SingleThread,
    /// One library-wide spinlock (§3.1, Fig 2), held per library call:
    /// ~2 lock cycles on a pingpong critical path ⇒ the paper's 140 ns.
    Coarse,
    /// Separate locks per shared list (§3.2, Fig 4): one tx and one rx
    /// lock per gate, one per driver. More lock operations on the path ⇒
    /// 230 ns, but unrelated communication flows proceed in parallel.
    #[default]
    Fine,
}

impl LockingMode {
    /// All modes in Fig 3 order.
    pub const ALL: [LockingMode; 3] = [
        LockingMode::SingleThread,
        LockingMode::Coarse,
        LockingMode::Fine,
    ];

    /// Label used in bench output (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        match self {
            LockingMode::SingleThread => "no-locking",
            LockingMode::Coarse => "coarse-grain",
            LockingMode::Fine => "fine-grain",
        }
    }

    /// `true` if this mode is safe for multi-threaded callers.
    pub fn thread_safe(&self) -> bool {
        !matches!(self, LockingMode::SingleThread)
    }
}

/// Process-unique id of the calling thread (stable for the thread's life).
pub(crate) fn thread_id() -> u64 {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static ID: Cell<u64> = const { Cell::new(0) };
    }
    ID.with(|id| {
        let mut v = id.get();
        if v == 0 {
            // relaxed: unique-id allocation; only atomicity matters.
            v = NEXT.fetch_add(1, Ordering::Relaxed);
            id.set(v);
        }
        v
    })
}

/// Which logical critical section a guard covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// The whole library (API-entry guard).
    Global,
    /// Gate `g`'s send-side state (submit queue, rendezvous-out table).
    CollectTx(usize),
    /// Gate `g`'s receive-side matching state (posted/unexpected/RTS bins).
    CollectRx(usize),
    /// Lane `i` of the transfer layer, one (rail, VCI) pair: its
    /// transfer list, its reliability window and its NIC context. The
    /// paper's per-driver lock (Fig 4).
    Driver(usize),
}

/// Generates a fixed table of per-index lock-order class names
/// (lockdep-style subclasses). Class names must be `&'static str`, so the
/// tables are finite; see [`LockPolicy::new`] for the overflow policy.
macro_rules! lock_class_table {
    ($prefix:literal; $($i:tt),+ $(,)?) => {
        [$(concat!($prefix, ".", stringify!($i))),+]
    };
}

/// Per-index lock-order classes for driver locks.
pub const DRIVER_LOCK_CLASSES: [&str; 16] =
    lock_class_table!("core.driver"; 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);

/// Per-gate lock-order classes for the send-side collect shards.
pub const COLLECT_TX_LOCK_CLASSES: [&str; 16] =
    lock_class_table!("core.collect.tx"; 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);

/// Per-gate lock-order classes for the receive-side collect shards.
pub const COLLECT_RX_LOCK_CLASSES: [&str; 16] =
    lock_class_table!("core.collect.rx"; 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);

/// Builds one classed spinlock per index; indices beyond the class table
/// fall back to the family's *shared* overflow class and bump the
/// `core.lockclass_overflow` warn counter so the precision drop is
/// observable in metrics instead of silent (see
/// `lockclass_overflow_is_counted_not_silent`). Shared classes allow
/// same-class nesting (several overflowed locks may legitimately be held
/// at once) but still participate in cross-class cycle detection.
fn classed_spins(
    n: usize,
    table: &'static [&'static str],
    overflow_class: &'static str,
) -> Box<[RawSpin]> {
    (0..n)
        .map(|i| match table.get(i) {
            Some(class) => RawSpin::with_class(class),
            None => {
                crate::metrics::lockclass_overflow().incr();
                RawSpin::with_shared_class(overflow_class)
            }
        })
        .collect()
}

/// Owned aggregate of acquisition counters over a set of locks.
///
/// The per-gate sharding means there is no longer *one* collect lock to
/// point at; [`LockPolicy::collect_stats`] sums the shards into this
/// snapshot, which mirrors the `LockStats` accessor surface.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    acquisitions: u64,
    contentions: u64,
}

impl LockStatsSnapshot {
    /// Total acquisitions across the aggregated locks.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Acquisitions that found a lock held.
    pub fn contentions(&self) -> u64 {
        self.contentions
    }

    /// Fraction of acquisitions that contended (0.0 when idle).
    pub fn contention_ratio(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.contentions as f64 / self.acquisitions as f64
        }
    }

    fn absorb(&mut self, s: &nm_metrics::LockStats) {
        self.acquisitions += s.acquisitions();
        self.contentions += s.contentions();
    }
}

/// Lock-placement policy for one communication core.
pub struct LockPolicy {
    mode: LockingMode,
    /// Coarse mode: the library-wide lock.
    global: RawSpin,
    /// Fine mode: per-gate send-side collect locks (index = gate index).
    collect_tx: Box<[RawSpin]>,
    /// Fine mode: per-gate receive-side collect locks (index = gate index).
    collect_rx: Box<[RawSpin]>,
    /// Fine mode: one lock per (rail, VCI) lane (index = global lane
    /// index).
    drivers: Box<[RawSpin]>,
    /// SingleThread mode: the one thread allowed in (0 = not yet claimed).
    owner: AtomicU64,
}

impl LockPolicy {
    /// Builds a policy for `num_gates` collect-layer shards and
    /// `num_lanes` lanes (every (rail, VCI) pair is one lane; a
    /// single-VCI world has exactly one lane per driver).
    ///
    /// The locks carry lock-order classes for `nm-sync`'s `lockcheck`
    /// feature; the documented hierarchy is `core.api-global` →
    /// `core.collect.{tx,rx}.G` → `core.driver.N` (outermost to
    /// innermost), and any acquisition inverting it panics with both
    /// stacks when validation is compiled in. Driver and collect locks
    /// get one class *per index* — several distinct lanes' locks may be
    /// held at once, which a shared class would misreport as a
    /// recursive acquisition. This mirrors lockdep
    /// subclasses. Indices beyond the class tables fall back to one
    /// *shared* class per family (`core.collect.tx.overflow`, ...): less
    /// precise — all overflowed locks of a family are ordered as one
    /// node — but still part of the cycle-detection graph, and each such
    /// lock increments the `core.lockclass_overflow` metrics counter so
    /// the precision drop is visible.
    pub fn new(mode: LockingMode, num_gates: usize, num_lanes: usize) -> Self {
        LockPolicy {
            mode,
            global: RawSpin::with_class("core.api-global"),
            collect_tx: classed_spins(
                num_gates,
                &COLLECT_TX_LOCK_CLASSES,
                "core.collect.tx.overflow",
            ),
            collect_rx: classed_spins(
                num_gates,
                &COLLECT_RX_LOCK_CLASSES,
                "core.collect.rx.overflow",
            ),
            drivers: classed_spins(num_lanes, &DRIVER_LOCK_CLASSES, "core.driver.overflow"),
            owner: AtomicU64::new(0),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> LockingMode {
        self.mode
    }

    /// Number of collect-layer shards (one tx + one rx lock per gate).
    pub fn num_gates(&self) -> usize {
        self.collect_tx.len()
    }

    /// Enters the library: the once-per-call guard.
    ///
    /// Must be released (dropped) before blocking, exactly as the paper's
    /// coarse mode releases the mutex "before entering a blocking section
    /// in order to avoid deadlocks".
    #[inline]
    pub fn enter_api(&self) -> Section<'_> {
        match self.mode {
            LockingMode::SingleThread => {
                self.check_single_thread();
                Section {
                    lock: None,
                    kind: SectionKind::Global,
                }
            }
            LockingMode::Coarse => {
                self.global.lock();
                Section {
                    lock: Some(&self.global),
                    kind: SectionKind::Global,
                }
            }
            LockingMode::Fine => Section {
                lock: None,
                kind: SectionKind::Global,
            },
        }
    }

    /// Enters a logical critical section.
    ///
    /// In coarse mode the caller must already hold the API guard (checked
    /// in debug builds). Inner sections must not be nested with each other.
    #[inline]
    pub fn enter(&self, kind: SectionKind) -> Section<'_> {
        debug_assert_ne!(
            kind,
            SectionKind::Global,
            "use enter_api for the global section"
        );
        match self.mode {
            LockingMode::SingleThread => Section { lock: None, kind },
            LockingMode::Coarse => {
                debug_assert!(
                    self.global.is_locked(),
                    "coarse mode: inner section entered without the API guard"
                );
                Section { lock: None, kind }
            }
            LockingMode::Fine => {
                let lock = match kind {
                    SectionKind::CollectTx(g) => &self.collect_tx[g],
                    SectionKind::CollectRx(g) => &self.collect_rx[g],
                    SectionKind::Driver(i) => &self.drivers[i],
                    SectionKind::Global => unreachable!(),
                };
                lock.lock();
                Section {
                    lock: Some(lock),
                    kind,
                }
            }
        }
    }

    #[inline]
    fn check_single_thread(&self) {
        let me = thread_id();
        // relaxed: the owner id is an identity check, not a data
        // publication; SingleThread mode has no cross-thread data to order.
        let owner = self.owner.load(Ordering::Relaxed);
        if owner == me {
            return;
        }
        // relaxed: claiming ownership races only with other claimants; the
        // winner publishes nothing beyond its own id.
        if owner == 0
            && self
                .owner
                .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            return;
        }
        panic!(
            "LockingMode::SingleThread: the library was entered from a second thread; \
             use Coarse or Fine locking for multi-threaded access"
        );
    }

    /// Lock statistics of the coarse/global lock.
    pub fn global_stats(&self) -> &nm_metrics::LockStats {
        self.global.stats()
    }

    /// Aggregated statistics over every per-gate collect lock (tx + rx).
    pub fn collect_stats(&self) -> LockStatsSnapshot {
        let mut snap = LockStatsSnapshot::default();
        for l in self.collect_tx.iter().chain(self.collect_rx.iter()) {
            snap.absorb(l.stats());
        }
        snap
    }

    /// Statistics of gate `g`'s send-side collect lock.
    pub fn collect_tx_stats(&self, g: usize) -> &nm_metrics::LockStats {
        self.collect_tx[g].stats()
    }

    /// Statistics of gate `g`'s receive-side collect lock.
    pub fn collect_rx_stats(&self, g: usize) -> &nm_metrics::LockStats {
        self.collect_rx[g].stats()
    }

    /// Statistics of lane `i`'s driver lock.
    pub fn driver_stats(&self, i: usize) -> &nm_metrics::LockStats {
        self.drivers[i].stats()
    }

    /// Total lock acquisitions across all locks of this policy.
    pub fn total_acquisitions(&self) -> u64 {
        self.global.stats().acquisitions()
            + self.collect_stats().acquisitions()
            + self
                .drivers
                .iter()
                .map(|d| d.stats().acquisitions())
                .sum::<u64>()
    }
}

impl std::fmt::Debug for LockPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockPolicy")
            .field("mode", &self.mode)
            .field("gates", &self.collect_tx.len())
            .field("drivers", &self.drivers.len())
            .finish()
    }
}

/// RAII guard for a logical critical section.
pub struct Section<'a> {
    lock: Option<&'a RawSpin>,
    kind: SectionKind,
}

impl Section<'_> {
    /// The logical section this guard covers.
    pub fn kind(&self) -> SectionKind {
        self.kind
    }

    /// Whether this guard covers `kind`: it is that section, or the
    /// global/API guard, which covers everything.
    pub(crate) fn covers(&self, kind: SectionKind) -> bool {
        self.kind == kind || self.kind == SectionKind::Global
    }
}

impl Drop for Section<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some(lock) = self.lock {
            lock.unlock();
        }
    }
}

/// A shared-state cell whose access is governed by a [`LockPolicy`].
///
/// Holding the *matching* [`Section`] guard is the access contract: in
/// debug builds [`Protected::with`] asserts the guard covers this cell
/// (exact kind match, or the global/API guard which covers everything).
///
/// Lock-order validation comes for free: the section guards are backed by
/// the [`LockPolicy`]'s classed [`RawSpin`]s, so with the `lockcheck`
/// feature every `Protected` access in the gate, lane and layer modules feeds the
/// global ordering graph and inversions panic with both stacks.
pub struct Protected<T> {
    kind: SectionKind,
    cell: UnsafeCell<T>,
}

// SAFETY: access is serialized by the section guards handed out by the
// LockPolicy (or by the single-thread runtime check in SingleThread mode).
unsafe impl<T: Send> Send for Protected<T> {}
// SAFETY: as above — the section guard protocol provides mutual exclusion.
unsafe impl<T: Send> Sync for Protected<T> {}

impl<T> Protected<T> {
    /// Creates a cell belonging to the given logical section.
    pub fn new(kind: SectionKind, value: T) -> Self {
        Protected {
            kind,
            cell: UnsafeCell::new(value),
        }
    }

    /// Accesses the cell under a section guard.
    #[inline]
    pub fn with<R>(&self, section: &Section<'_>, f: impl FnOnce(&mut T) -> R) -> R {
        debug_assert!(
            section.covers(self.kind),
            "Protected cell {:?} accessed under the wrong section guard {:?}",
            self.kind,
            section.kind()
        );
        // SAFETY: the guard proves the policy's serialization discipline
        // for this section (lock held, coarse API lock held, or
        // single-thread checked).
        f(unsafe { &mut *self.cell.get() })
    }
}

impl<T> std::fmt::Debug for Protected<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Protected")
            .field("kind", &self.kind)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn labels_match_paper() {
        assert_eq!(LockingMode::SingleThread.label(), "no-locking");
        assert_eq!(LockingMode::Coarse.label(), "coarse-grain");
        assert_eq!(LockingMode::Fine.label(), "fine-grain");
    }

    #[test]
    fn class_tables_are_generated_per_index() {
        assert_eq!(DRIVER_LOCK_CLASSES[0], "core.driver.0");
        assert_eq!(DRIVER_LOCK_CLASSES[15], "core.driver.15");
        assert_eq!(COLLECT_TX_LOCK_CLASSES[3], "core.collect.tx.3");
        assert_eq!(COLLECT_RX_LOCK_CLASSES[3], "core.collect.rx.3");
        // tx and rx shards of the same gate must be distinct classes.
        for (tx, rx) in COLLECT_TX_LOCK_CLASSES
            .iter()
            .zip(COLLECT_RX_LOCK_CLASSES.iter())
        {
            assert_ne!(tx, rx);
        }
    }

    #[test]
    fn coarse_locks_once_per_api_call() {
        let p = LockPolicy::new(LockingMode::Coarse, 1, 2);
        {
            let api = p.enter_api();
            let _c = p.enter(SectionKind::CollectRx(0));
            let _d = p.enter(SectionKind::Driver(1));
            drop(api); // sections carry no locks of their own
        }
        assert_eq!(p.global_stats().acquisitions(), 1);
        assert_eq!(p.collect_stats().acquisitions(), 0);
        assert_eq!(p.total_acquisitions(), 1);
    }

    #[test]
    fn fine_uses_separate_locks_and_free_api() {
        let p = LockPolicy::new(LockingMode::Fine, 1, 2);
        let _api = p.enter_api();
        // Distinct sections may be held simultaneously in fine mode.
        let g1 = p.enter(SectionKind::CollectRx(0));
        let g2 = p.enter(SectionKind::Driver(0));
        let g3 = p.enter(SectionKind::Driver(1));
        drop((g1, g2, g3));
        assert_eq!(p.global_stats().acquisitions(), 0);
        assert_eq!(p.collect_stats().acquisitions(), 1);
        assert_eq!(p.collect_rx_stats(0).acquisitions(), 1);
        assert_eq!(p.collect_tx_stats(0).acquisitions(), 0);
        assert_eq!(p.total_acquisitions(), 3);
    }

    #[test]
    fn collect_shards_are_independent_per_gate() {
        let p = LockPolicy::new(LockingMode::Fine, 4, 1);
        // Different gates' shards, and one gate's tx vs rx, may all be
        // held at once: they are distinct locks.
        let a = p.enter(SectionKind::CollectTx(0));
        let b = p.enter(SectionKind::CollectRx(0));
        let c = p.enter(SectionKind::CollectTx(3));
        let d = p.enter(SectionKind::CollectRx(3));
        drop((a, b, c, d));
        assert_eq!(p.collect_tx_stats(0).acquisitions(), 1);
        assert_eq!(p.collect_rx_stats(0).acquisitions(), 1);
        assert_eq!(p.collect_tx_stats(3).acquisitions(), 1);
        assert_eq!(p.collect_rx_stats(3).acquisitions(), 1);
        assert_eq!(p.collect_tx_stats(1).acquisitions(), 0);
        assert_eq!(p.collect_stats().acquisitions(), 4);
    }

    #[test]
    fn collect_stats_aggregates_contention() {
        let p = Arc::new(LockPolicy::new(LockingMode::Fine, 2, 1));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let p = Arc::clone(&p);
                thread::spawn(move || {
                    for _ in 0..1_000 {
                        let _g = p.enter(SectionKind::CollectTx(t % 2));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = p.collect_stats();
        assert_eq!(snap.acquisitions(), 4_000);
        assert_eq!(
            snap.contentions(),
            p.collect_tx_stats(0).contentions() + p.collect_tx_stats(1).contentions()
        );
        assert!(snap.contention_ratio() <= 1.0);
    }

    #[test]
    fn vci_sections_are_independent_locks() {
        let p = LockPolicy::new(LockingMode::Fine, 1, 4);
        // Two (rail, VCI) lanes may be held at once: distinct locks.
        let a = p.enter(SectionKind::Driver(0));
        let b = p.enter(SectionKind::Driver(3));
        drop((b, a));
        assert_eq!(p.driver_stats(0).acquisitions(), 1);
        assert_eq!(p.driver_stats(3).acquisitions(), 1);
        assert_eq!(p.driver_stats(1).acquisitions(), 0);
        assert_eq!(p.total_acquisitions(), 2);
    }

    #[test]
    fn lockclass_overflow_is_counted_not_silent() {
        let counter = crate::metrics::lockclass_overflow();
        let before = counter.get();
        // 20 gates and 20 lanes exceed the 16-entry class tables by 4
        // each: 4 tx + 4 rx + 4 driver locks fall back to the shared
        // overflow classes.
        let p = LockPolicy::new(LockingMode::Fine, 20, 20);
        assert_eq!(counter.get() - before, 12);
        // Overflowed locks still function, under the per-family shared
        // class (cycle detection coverage is exercised in
        // tests/lockclass_overflow.rs under the lockcheck feature).
        let g = p.enter(SectionKind::CollectTx(19));
        drop(g);
        let d = p.enter(SectionKind::Driver(19));
        drop(d);
        assert_eq!(p.collect_tx_stats(19).acquisitions(), 1);
    }

    #[test]
    fn in_table_lock_counts_no_overflow() {
        let counter = crate::metrics::lockclass_overflow();
        let before = counter.get();
        let _p = LockPolicy::new(LockingMode::Fine, 16, 16);
        assert_eq!(counter.get(), before);
    }

    #[test]
    fn single_thread_takes_no_lock() {
        let p = LockPolicy::new(LockingMode::SingleThread, 1, 1);
        let _api = p.enter_api();
        let _g = p.enter(SectionKind::CollectTx(0));
        let _g2 = p.enter(SectionKind::Driver(0));
        assert_eq!(p.total_acquisitions(), 0);
    }

    #[test]
    fn single_thread_rejects_second_thread() {
        let p = Arc::new(LockPolicy::new(LockingMode::SingleThread, 1, 1));
        let _g = p.enter_api();
        let p2 = Arc::clone(&p);
        let res = thread::spawn(move || {
            let _ = p2.enter_api();
        })
        .join();
        assert!(res.is_err(), "second thread must panic");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "without the API guard")]
    fn coarse_inner_section_requires_api_guard() {
        let p = LockPolicy::new(LockingMode::Coarse, 1, 1);
        let _ = p.enter(SectionKind::CollectRx(0));
    }

    #[test]
    fn protected_cell_round_trip() {
        let p = LockPolicy::new(LockingMode::Fine, 1, 1);
        let cell = Protected::new(SectionKind::CollectRx(0), vec![1, 2]);
        let g = p.enter(SectionKind::CollectRx(0));
        cell.with(&g, |v| v.push(3));
        assert_eq!(cell.with(&g, |v| v.clone()), vec![1, 2, 3]);
    }

    #[test]
    fn global_guard_covers_any_cell() {
        let p = LockPolicy::new(LockingMode::Coarse, 1, 1);
        let cell = Protected::new(SectionKind::Driver(0), 7u32);
        let api = p.enter_api();
        assert_eq!(cell.with(&api, |v| *v), 7);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wrong section guard")]
    fn wrong_guard_caught_in_debug() {
        let p = LockPolicy::new(LockingMode::Fine, 1, 1);
        let cell = Protected::new(SectionKind::CollectRx(0), 0u32);
        let g = p.enter(SectionKind::Driver(0));
        cell.with(&g, |v| *v += 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wrong section guard")]
    fn tx_guard_does_not_cover_rx_cell() {
        let p = LockPolicy::new(LockingMode::Fine, 1, 1);
        let cell = Protected::new(SectionKind::CollectRx(0), 0u32);
        let g = p.enter(SectionKind::CollectTx(0));
        cell.with(&g, |v| *v += 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "wrong section guard")]
    fn other_gates_guard_does_not_cover_cell() {
        let p = LockPolicy::new(LockingMode::Fine, 2, 1);
        let cell = Protected::new(SectionKind::CollectRx(0), 0u32);
        let g = p.enter(SectionKind::CollectRx(1));
        cell.with(&g, |v| *v += 1);
    }

    #[test]
    fn concurrent_fine_grain_counters_stay_exact() {
        let p = Arc::new(LockPolicy::new(LockingMode::Fine, 1, 1));
        let cell = Arc::new(Protected::new(SectionKind::CollectRx(0), 0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (p, c) = (Arc::clone(&p), Arc::clone(&cell));
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        let g = p.enter(SectionKind::CollectRx(0));
                        c.with(&g, |v| *v += 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let g = p.enter(SectionKind::CollectRx(0));
        assert_eq!(cell.with(&g, |v| *v), 40_000);
    }

    #[test]
    fn concurrent_coarse_grain_counters_stay_exact() {
        let p = Arc::new(LockPolicy::new(LockingMode::Coarse, 1, 1));
        let cell = Arc::new(Protected::new(SectionKind::CollectRx(0), 0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (p, c) = (Arc::clone(&p), Arc::clone(&cell));
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        let api = p.enter_api();
                        c.with(&api, |v| *v += 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let api = p.enter_api();
        assert_eq!(cell.with(&api, |v| *v), 40_000);
    }

    #[test]
    fn thread_ids_are_distinct_and_stable() {
        let a = thread_id();
        assert_eq!(a, thread_id());
        let b = thread::spawn(thread_id).join().unwrap();
        assert_ne!(a, b);
    }
}
