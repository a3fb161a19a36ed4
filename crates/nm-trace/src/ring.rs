//! Lock-free per-thread event rings (the FxT idea: fixed-size records,
//! one ring per thread, drained after the run).
//!
//! Recording is a run-time state: trace points write only while a
//! [`Recording`] from [`record`] is live. Off, a trace point is one
//! relaxed load of the live count and a not-taken branch; no clock is
//! read and no ring is allocated.
//!
//! Each thread owns one ring; a write is a handful of `Relaxed` stores
//! plus one `Release` cursor bump — no locks, no allocation, no
//! cross-thread traffic on the hot path. Rings overwrite their oldest
//! slot when full and count total writes, so the drain reports exactly
//! how many events were dropped. Rings are registered globally (and
//! kept alive by an `Arc` even after their thread exits) so
//! [`take_trace`] can collect every thread's events post-run.
//!
//! Draining while writers are still emitting is safe (all slot access
//! is atomic) but a wrapping writer can tear a slot being read; drain
//! after the traced workload quiesces for exact counts.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::events::EventId;

/// One decoded trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp from [`crate::now_ns`] (real or virtual nanoseconds).
    pub ts: u64,
    /// What happened.
    pub id: EventId,
    /// First argument (meaning per [`EventId`] docs).
    pub a: u64,
    /// Second argument.
    pub b: u64,
}

/// The drained events of one thread, in emission order.
#[derive(Debug, Clone, Default)]
pub struct ThreadTrace {
    /// Registration index of the thread's ring (stable, dense).
    pub thread: u64,
    /// The thread's name at ring creation (test harness threads are
    /// named after their test).
    pub name: String,
    /// Events overwritten because the ring wrapped.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A full drain: one [`ThreadTrace`] per ring, in registration order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-thread traces.
    pub threads: Vec<ThreadTrace>,
}

impl Trace {
    /// All events across threads, sorted by timestamp (ties keep
    /// per-thread order).
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self
            .threads
            .iter()
            .flat_map(|t| t.events.iter().copied())
            .collect();
        all.sort_by_key(|e| e.ts);
        all
    }

    /// Total retained events.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// True if no events were retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events dropped to ring wraparound.
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// How many retained events have this id.
    pub fn count(&self, id: EventId) -> u64 {
        self.threads
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|e| e.id == id)
            .count() as u64
    }
}

/// Default ring capacity (events per thread).
const DEFAULT_CAP: usize = 1 << 16;

struct Slot {
    ts: AtomicU64,
    id: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            ts: AtomicU64::new(0),
            id: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

pub(super) struct ThreadRing {
    index: u64,
    name: String,
    cap: usize,
    /// Total events ever written; slot = head % cap.
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl ThreadRing {
    pub(super) fn new(index: u64, name: String, cap: usize) -> ThreadRing {
        let cap = cap.max(1);
        ThreadRing {
            index,
            name,
            cap,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::empty()).collect(),
        }
    }

    /// Writer side: only the owning thread calls this.
    #[inline]
    pub(super) fn write(&self, ts: u64, id: EventId, a: u64, b: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) % self.cap];
        slot.ts.store(ts, Ordering::Relaxed);
        slot.id.store(id as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        // Release: a drain that Acquire-loads the cursor sees the
        // slot stores above.
        self.head.store(head + 1, Ordering::Release);
    }

    pub(super) fn drain(&self, reset: bool) -> ThreadTrace {
        let head = self.head.load(Ordering::Acquire);
        let retained = (head as usize).min(self.cap);
        let mut events = Vec::with_capacity(retained);
        for i in (head as usize - retained)..head as usize {
            let slot = &self.slots[i % self.cap];
            let raw = slot.id.load(Ordering::Relaxed);
            // Id 0 is unused: a zero here means the slot was never
            // written (only possible mid-write teardown races).
            if let Some(id) = EventId::from_raw(raw) {
                events.push(TraceEvent {
                    ts: slot.ts.load(Ordering::Relaxed),
                    id,
                    a: slot.a.load(Ordering::Relaxed),
                    b: slot.b.load(Ordering::Relaxed),
                });
            }
        }
        if reset {
            self.head.store(0, Ordering::Release);
        }
        ThreadTrace {
            thread: self.index,
            name: self.name.clone(),
            dropped: head - retained as u64,
            events,
        }
    }
}

static RING_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_CAP);
static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

/// The registered rings. A panic elsewhere cannot leave the list half
/// updated (a push or a drain either happened or did not), so a
/// poisoned lock is taken as is.
fn registry() -> MutexGuard<'static, Vec<Arc<ThreadRing>>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static RING: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

fn with_ring(f: impl FnOnce(&ThreadRing)) {
    RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let mut registry = registry();
            let ring = Arc::new(ThreadRing::new(
                registry.len() as u64,
                std::thread::current().name().unwrap_or("?").to_string(),
                RING_CAP.load(Ordering::Relaxed),
            ));
            registry.push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

/// How many [`Recording`]s are live. Alone on its cache line: every
/// trace point in the stack loads it, and only [`record`] and
/// [`Recording::finish`]/drop write it.
#[repr(align(128))]
struct Live(AtomicUsize);

static LIVE: Live = Live(AtomicUsize::new(0));

/// True while a [`Recording`] is live: trace points write only then.
#[inline(always)]
pub fn enabled() -> bool {
    // relaxed: a trace point racing a start or stop may record or skip
    // an event at the edge of the recording; the events themselves are
    // published by the ring cursor, and `record`/`finish` order against
    // each other through the registry lock.
    LIVE.0.load(Ordering::Relaxed) != 0
}

/// Records one event in the calling thread's ring while a recording is
/// live; otherwise does nothing.
///
/// Out of line and cold: `trace_event!` calls it only after its own
/// [`enabled`] check, so a trace point that is off costs one load and a
/// branch, and the clock read and ring write stay off the hot path.
#[cold]
#[inline(never)]
pub fn emit(id: EventId, a: u64, b: u64) {
    if enabled() {
        let ts = crate::clock::now_ns();
        with_ring(|ring| ring.write(ts, id, a, b));
    }
}

/// Sets the capacity (in events) used for rings created after this
/// call; existing rings keep their size.
pub fn set_ring_capacity(cap: usize) {
    RING_CAP.store(cap.max(1), Ordering::Relaxed);
}

fn collect(registry: &[Arc<ThreadRing>], reset: bool) -> Trace {
    Trace {
        threads: registry.iter().map(|r| r.drain(reset)).collect(),
    }
}

/// A live recording: from [`record`] until [`Recording::finish`] or
/// drop, every trace point in the process writes to its thread's ring.
///
/// Recordings share one set of rings. A second recording started while
/// one is live sees the first one's events, and finishing either drains
/// them all; tests that record side by side filter the [`Trace`] to
/// their own threads.
#[must_use = "trace points record only while the Recording is held"]
#[derive(Debug)]
pub struct Recording(());

/// Starts recording. The first live recording starts from empty rings.
pub fn record() -> Recording {
    let registry = registry();
    if LIVE.0.fetch_add(1, Ordering::Relaxed) == 0 {
        collect(&registry, true);
    }
    Recording(())
}

impl Recording {
    /// Stops this recording and drains every thread's ring.
    pub fn finish(self) -> Trace {
        let registry = registry();
        drop(self);
        collect(&registry, true)
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        LIVE.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Drains every thread's ring, resetting them for the next run.
pub fn take_trace() -> Trace {
    collect(&registry(), true)
}

/// Copies every thread's ring without resetting.
pub fn snapshot_trace() -> Trace {
    collect(&registry(), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_overwriting_oldest() {
        let ring = ThreadRing::new(0, "test".into(), 8);
        for i in 0..13u64 {
            ring.write(i, EventId::LockAcquire, i, 0);
        }
        let t = ring.drain(false);
        assert_eq!(t.dropped, 5);
        assert_eq!(t.events.len(), 8);
        // Oldest retained is write #5; order is preserved.
        let args: Vec<u64> = t.events.iter().map(|e| e.a).collect();
        assert_eq!(args, (5..13).collect::<Vec<u64>>());
    }

    #[test]
    fn drain_reset_restarts_ring() {
        let ring = ThreadRing::new(0, "test".into(), 4);
        ring.write(1, EventId::PacketTx, 64, 0);
        let t = ring.drain(true);
        assert_eq!(t.events.len(), 1);
        let t = ring.drain(false);
        assert_eq!(t.events.len(), 0);
        assert_eq!(t.dropped, 0);
    }

    /// Regression: the `head == cap` boundary is the classic
    /// off-by-one spot (a `<=`/`<` slip either drops a live event or
    /// reports `dropped: u64::MAX`). Exactly `cap` writes must
    /// retain all `cap` events with zero drops; one more write must
    /// drop exactly the oldest.
    #[test]
    fn exact_capacity_boundary() {
        for (writes, want_dropped) in [(7u64, 0u64), (8, 0), (9, 1)] {
            let ring = ThreadRing::new(0, "test".into(), 8);
            for i in 0..writes {
                ring.write(i, EventId::LockAcquire, i, 0);
            }
            let t = ring.drain(false);
            assert_eq!(t.dropped, want_dropped, "writes={writes}");
            assert_eq!(t.events.len() as u64, writes - want_dropped);
            let args: Vec<u64> = t.events.iter().map(|e| e.a).collect();
            assert_eq!(args, (want_dropped..writes).collect::<Vec<u64>>());
        }
    }

    /// Regression: drain-with-reset at exactly `head == cap` must
    /// leave the ring genuinely empty — a stale `head` here would
    /// make the next drain report `cap` phantom events.
    #[test]
    fn reset_at_exact_capacity_boundary() {
        let ring = ThreadRing::new(0, "test".into(), 4);
        for i in 0..4u64 {
            ring.write(i, EventId::LockAcquire, i, 0);
        }
        let t = ring.drain(true);
        assert_eq!((t.events.len(), t.dropped), (4, 0));
        let t = ring.drain(false);
        assert_eq!((t.events.len(), t.dropped), (0, 0));
        // The ring is reusable after reset: writes land in slot 0.
        ring.write(9, EventId::PacketTx, 9, 0);
        let t = ring.drain(false);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].a, 9);
    }

    /// A reader draining while the writer wraps over the seam may
    /// observe torn slots, but must never panic, return an invalid
    /// id, or report inconsistent counts (module docs promise
    /// "safe, inexact" for concurrent drains).
    #[test]
    fn torn_reader_at_wrap_seam_is_safe() {
        let ring = Arc::new(ThreadRing::new(0, "test".into(), 4));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writer = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Tiny ring: nearly every write crosses the seam.
                    ring.write(i, EventId::PacketTx, i, i);
                    i += 1;
                }
                i
            })
        };
        let mut prev_dropped = 0u64;
        for _ in 0..200 {
            let t = ring.drain(false);
            assert!(t.events.len() <= 4);
            // head only grows between non-reset drains, so the
            // dropped count must be monotonic; a torn cursor read
            // would break this.
            assert!(t.dropped >= prev_dropped);
            prev_dropped = t.dropped;
            for e in &t.events {
                assert_eq!(e.id, EventId::PacketTx);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let total = writer.join().unwrap();
        // Quiesced drain is exact again: counts reconcile.
        let t = ring.drain(false);
        assert_eq!(t.dropped + t.events.len() as u64, total);
    }

    #[test]
    fn capacity_one_keeps_last_event() {
        let ring = ThreadRing::new(0, "test".into(), 1);
        for i in 0..3u64 {
            ring.write(i, EventId::PacketRx, i, 0);
        }
        let t = ring.drain(false);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].a, 2);
    }
}
