//! [`WakerTable`] — request-id-keyed waker registry for async completion.
//!
//! The async facade in `nm-mpi` hands out futures instead of blocking
//! threads. When such a future polls `Pending`, it parks its
//! [`std::task::Waker`] here under the request id; when the progress
//! engine delivers the request's completion it calls [`WakerTable::wake`]
//! and the executor re-polls exactly the right task. This is the
//! "millions of outstanding operations on a few cores" shape: one table
//! entry per in-flight async op, zero blocked threads.
//!
//! # Race protocol
//!
//! A completion can land *between* a future's completion check and its
//! waker store. The table inherits [`WakerCell`]'s one-shot protocol and
//! layers the register-then-recheck rule on top:
//!
//! 1. Completion delivery publishes the terminal state (the request's
//!    `CompletionFlag` is signalled) **before** calling `wake`.
//! 2. A future checks completion, then [`WakerTable::register`]s, then
//!    **re-checks** completion before returning `Pending`.
//!
//! If delivery ran before the register, either `register` returns
//! `false` (the cell was already woken) or the re-check observes the
//! signalled flag — both ways the future completes without waiting on a
//! wake-up that already happened.
//!
//! # Locking
//!
//! Entries are sharded by request id over spinlocks classed
//! `progress.wakers` (see `docs/CONCURRENCY.md`). Delivery runs with
//! core's API lock held, so the shard critical sections are kept O(1)
//! and the foreign waker — arbitrary executor code — is always invoked
//! *outside* the shard lock.

use std::collections::HashMap;
use std::sync::Arc;
use std::task::Waker;

use nm_metrics::trace_event;
use nm_sync::{SpinLock, WakerCell};

/// Shard count; ids are distributed by low bits. Power of two.
const SHARDS: usize = 8;

/// One table entry: the waiting future's cell plus the observability
/// span of the awaited request (0 = none), recorded at registration so
/// the wake-up can be attributed to the message's timeline.
#[derive(Default)]
struct Slot {
    cell: Arc<WakerCell>,
    span: u64,
}

/// A sharded map from request id to the [`WakerCell`] of the future
/// awaiting that request. See the module docs for the race protocol.
pub struct WakerTable {
    shards: Vec<SpinLock<HashMap<u64, Slot>>>,
}

impl WakerTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        let mut shards = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            let waker_shard = SpinLock::with_class("progress.wakers", HashMap::new());
            shards.push(waker_shard);
        }
        WakerTable { shards }
    }

    fn shard_for(&self, id: u64) -> &SpinLock<HashMap<u64, Slot>> {
        &self.shards[(id as usize) & (SHARDS - 1)]
    }

    /// Registers `waker` for request `id`, replacing any previous
    /// registration for the same id.
    ///
    /// Returns `false` if the request's completion was already delivered
    /// ([`WakerTable::wake`] ran first): the waker is not stored and the
    /// caller must treat the operation as complete instead of returning
    /// `Pending`.
    pub fn register(&self, id: u64, waker: &Waker) -> bool {
        self.register_spanned(id, 0, waker)
    }

    /// [`WakerTable::register`] carrying the request's observability
    /// span, so the eventual [`WakerTable::wake`] emits a `SpanWake`
    /// on the message's timeline. Same shard lock, same single
    /// acquisition — the span rides in the existing entry.
    pub fn register_spanned(&self, id: u64, span: u64, waker: &Waker) -> bool {
        let cell = {
            let waker_shard = self.shard_for(id);
            let mut map = waker_shard.lock();
            let slot = map.entry(id).or_default();
            slot.span = span;
            Arc::clone(&slot.cell)
        };
        // The actual store runs outside the shard lock: `Waker::clone`
        // is foreign (executor) code.
        let armed = cell.register(waker);
        if armed {
            trace_event!(WakerRegister, id);
        } else {
            // Lost the race with delivery; drop the dead entry so the
            // table does not leak woken cells.
            self.unregister(id);
        }
        armed
    }

    /// Wakes the waker registered for `id`, if any, and removes the
    /// entry. Called by completion delivery *after* the request's
    /// terminal state is published.
    ///
    /// Returns `true` if an entry existed. `false` means the future has
    /// not registered yet; its mandatory post-registration re-check of
    /// the completion state covers that window.
    pub fn wake(&self, id: u64) -> bool {
        let slot = {
            let waker_shard = self.shard_for(id);
            let mut map = waker_shard.lock();
            map.remove(&id)
        };
        let found = slot.is_some();
        if let Some(slot) = slot {
            if slot.span != 0 {
                trace_event!(SpanWake, slot.span);
            }
            // Outside the shard lock: wakes run arbitrary executor code.
            slot.cell.wake();
        }
        trace_event!(WakerWake, id, u64::from(found));
        found
    }

    /// Removes any registration for `id` without waking it. Futures call
    /// this on completion and on drop so abandoned waits do not leak.
    pub fn unregister(&self, id: u64) {
        let waker_shard = self.shard_for(id);
        let mut map = waker_shard.lock();
        map.remove(&id);
    }

    /// Number of currently registered waiters (sums all shards).
    pub fn len(&self) -> usize {
        let mut total = 0;
        for waker_shard in &self.shards {
            total += waker_shard.lock().len();
        }
        total
    }

    /// `true` when no waiter is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for WakerTable {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WakerTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WakerTable")
            .field("registered", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::Wake;

    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWaker>, Waker) {
        let inner = Arc::new(CountingWaker(AtomicUsize::new(0)));
        (Arc::clone(&inner), Waker::from(Arc::clone(&inner)))
    }

    #[test]
    fn wake_reaches_the_registered_id_only() {
        let table = WakerTable::new();
        let (count7, waker7) = counting_waker();
        let (count9, waker9) = counting_waker();
        assert!(table.register(7, &waker7));
        assert!(table.register(9, &waker9));
        assert_eq!(table.len(), 2);
        assert!(table.wake(7));
        assert_eq!(count7.0.load(Ordering::SeqCst), 1);
        assert_eq!(count9.0.load(Ordering::SeqCst), 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn wake_without_registration_reports_missing() {
        let table = WakerTable::new();
        assert!(!table.wake(42));
        // A later registration for the same id starts a fresh cell (the
        // woken one was never inserted), so the future must rely on its
        // completion re-check, not on this table, for that window.
        let (_count, waker) = counting_waker();
        assert!(table.register(42, &waker));
        assert!(table.wake(42));
    }

    #[test]
    fn unregister_prevents_the_wake() {
        let table = WakerTable::new();
        let (count, waker) = counting_waker();
        assert!(table.register(3, &waker));
        table.unregister(3);
        assert!(table.is_empty());
        assert!(!table.wake(3));
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn register_after_wake_on_live_cell_is_refused() {
        // Reproduce the delivery-wins interleaving at the cell level:
        // the cell is woken between the map insert and the store.
        let table = WakerTable::new();
        let (count, waker) = counting_waker();
        assert!(table.register(5, &waker));
        assert!(table.wake(5));
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        // Entry is gone; a new register works independently.
        let (count2, waker2) = counting_waker();
        assert!(table.register(5, &waker2));
        table.unregister(5);
        assert_eq!(count2.0.load(Ordering::SeqCst), 0);
    }
}
