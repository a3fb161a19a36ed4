//! Model-checked interleaving tests for the nm-sync primitives.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p nm-sync --test loom
//! ```
//!
//! Each test body runs under `loom::model`, which explores many seeded
//! thread schedules and symbolically checks the declared memory orderings
//! with vector clocks (see `compat/nm-loom`). The `UnsafeCell` payloads
//! attached next to the locks are what turns an ordering bug into a test
//! failure: if a weakened ordering (say `Release` → `Relaxed` in
//! `RawSpin::unlock`) no longer orders the cell accesses, the model
//! reports a data race on *every* schedule.

#![cfg(loom)]

use std::sync::Arc;

use nm_sync::sync_shim::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use nm_sync::sync_shim::{cell::UnsafeCell, thread};
use nm_sync::{CompletionFlag, RawSpin, Semaphore, SpinLock, TicketLock, WaitStrategy};

/// A spinlock guarding a checked cell — the workhorse harness. Mutual
/// exclusion *and* the release/acquire edge of unlock/lock are both
/// verified through the cell's race detector.
struct SpinCounter {
    lock: RawSpin,
    value: UnsafeCell<u64>,
}

// SAFETY: `value` is only accessed while `lock` is held; the loom model
// verifies exactly this claim on every explored schedule.
unsafe impl Sync for SpinCounter {}

#[test]
fn raw_spin_guards_data_across_threads() {
    loom::model(|| {
        let shared = Arc::new(SpinCounter {
            lock: RawSpin::new(),
            value: UnsafeCell::new(0),
        });
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&shared);
                thread::spawn(move || {
                    for _ in 0..2 {
                        s.lock.lock();
                        s.value.with_mut(|p| {
                            // SAFETY: exclusive by the spinlock; checked
                            // by the model.
                            unsafe { *p += 1 }
                        });
                        s.lock.unlock();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        shared.lock.lock();
        shared.value.with(|p| {
            // SAFETY: lock held.
            assert_eq!(unsafe { *p }, 4);
        });
        shared.lock.unlock();
    });
}

#[test]
fn raw_spin_try_lock_never_double_enters() {
    loom::model(|| {
        let shared = Arc::new(SpinCounter {
            lock: RawSpin::new(),
            value: UnsafeCell::new(0),
        });
        let s = Arc::clone(&shared);
        let h = thread::spawn(move || {
            if s.lock.try_lock() {
                s.value.with_mut(|p| {
                    // SAFETY: try_lock succeeded → exclusive.
                    unsafe { *p += 1 }
                });
                s.lock.unlock();
            }
        });
        if shared.lock.try_lock() {
            shared.value.with_mut(|p| {
                // SAFETY: try_lock succeeded → exclusive.
                unsafe { *p += 1 }
            });
            shared.lock.unlock();
        }
        h.join().unwrap();
    });
}

#[test]
fn spin_lock_counter_is_consistent() {
    loom::model(|| {
        let counter = Arc::new(SpinLock::new(0u32));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&counter);
                thread::spawn(move || {
                    for _ in 0..2 {
                        *c.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 4);
    });
}

struct TicketCounter {
    lock: TicketLock<()>,
    value: UnsafeCell<u64>,
}

// SAFETY: `value` is only accessed under `lock`; verified by the model.
unsafe impl Sync for TicketCounter {}

#[test]
fn ticket_lock_orders_critical_sections() {
    loom::model(|| {
        let shared = Arc::new(TicketCounter {
            lock: TicketLock::new(()),
            value: UnsafeCell::new(0),
        });
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&shared);
                thread::spawn(move || {
                    let _g = s.lock.lock();
                    s.value.with_mut(|p| {
                        // SAFETY: exclusive by the ticket lock.
                        unsafe { *p += 1 }
                    });
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let _g = shared.lock.lock();
        shared.value.with(|p| {
            // SAFETY: lock held.
            assert_eq!(unsafe { *p }, 2);
        });
    });
}

/// The request-completion handoff: a producer writes the "result", then
/// signals the flag; the consumer waits and reads. The flag's
/// release-store / acquire-load pair is the only thing ordering the cell
/// accesses, so the model validates precisely the protocol every nm-core
/// request relies on.
struct Handoff {
    flag: CompletionFlag,
    result: UnsafeCell<u64>,
}

// SAFETY: `result` is written before `signal()` and read only after the
// wait returns; the flag provides the happens-before edge (model-checked).
unsafe impl Sync for Handoff {}

fn completion_flag_publishes_result(strategy: WaitStrategy) {
    loom::model(move || {
        let shared = Arc::new(Handoff {
            flag: CompletionFlag::new(),
            result: UnsafeCell::new(0),
        });
        let s = Arc::clone(&shared);
        let h = thread::spawn(move || {
            s.result.with_mut(|p| {
                // SAFETY: the consumer cannot read until `signal`.
                unsafe { *p = 99 }
            });
            s.flag.signal();
        });
        shared.flag.wait(strategy);
        shared.result.with(|p| {
            // SAFETY: wait returned → signal's release edge observed.
            assert_eq!(unsafe { *p }, 99);
        });
        h.join().unwrap();
    });
}

#[test]
fn completion_flag_busy_wait_handoff() {
    completion_flag_publishes_result(WaitStrategy::Busy);
}

#[test]
fn completion_flag_passive_wait_handoff() {
    completion_flag_publishes_result(WaitStrategy::Passive);
}

#[test]
fn completion_flag_signal_before_wait_is_not_lost() {
    loom::model(|| {
        let flag = Arc::new(CompletionFlag::new());
        let f = Arc::clone(&flag);
        let h = thread::spawn(move || {
            f.signal();
        });
        // Whatever the interleaving — signal before, during, or after the
        // wait entry — the waiter must come back.
        flag.wait(WaitStrategy::Passive);
        assert!(flag.is_set());
        h.join().unwrap();
    });
}

/// `signal` racing a timed passive wait. The waiter sets `WAITING` under
/// the flag's mutex and may time out (the model explores both branches);
/// the signaller takes the mutex and notifies only if it saw `WAITING`.
/// On every interleaving a `true` return sees the signaller's write, and
/// a waiter that was notified does not sleep on.
#[test]
fn completion_flag_signal_vs_passive_wait_timeout() {
    loom::model(|| {
        let shared = Arc::new(Handoff {
            flag: CompletionFlag::new(),
            result: UnsafeCell::new(0),
        });
        let s = Arc::clone(&shared);
        let h = thread::spawn(move || {
            s.result.with_mut(|p| {
                // SAFETY: read only after the flag is observed set.
                unsafe { *p = 7 }
            });
            s.flag.signal();
        });
        let in_time = shared
            .flag
            .wait_timeout(WaitStrategy::Passive, std::time::Duration::from_millis(1));
        if in_time {
            shared.result.with(|p| {
                // SAFETY: wait_timeout returned true → signal's release
                // edge observed.
                assert_eq!(unsafe { *p }, 7);
            });
        }
        h.join().unwrap();
        assert!(shared.flag.is_set());
        // A wait after the signal returns at once, whatever the timed
        // wait left in the state word.
        shared.flag.wait(WaitStrategy::Passive);
    });
}

/// The per-gate rx handoff of nm-core's sharded collect layer: the app
/// thread posts a receive under its gate's *own* rx lock; the progress
/// engine matches and writes the result under the same lock, then
/// completes the request **after** releasing it (completions run outside
/// the section in `collect.rs`), so the completion flag's release edge is
/// what publishes the delivered payload to the unlocked reader.
struct GateRx {
    lock: RawSpin,
    state: UnsafeCell<RxCell>,
    flag: CompletionFlag,
}

#[derive(Default)]
struct RxCell {
    posted: bool,
    unexpected: Option<u64>,
    delivered: Option<u64>,
}

// SAFETY: `posted`/`unexpected` are only accessed while `lock` is held;
// `delivered` is written under the lock and read by the app thread only
// after `flag.wait` returns (signal's release edge, model-checked).
unsafe impl Sync for GateRx {}

impl GateRx {
    fn new() -> Self {
        GateRx {
            lock: RawSpin::new(),
            state: UnsafeCell::new(RxCell::default()),
            flag: CompletionFlag::new(),
        }
    }

    /// App side: match an early message or post and wait.
    fn recv(&self) -> u64 {
        self.lock.lock();
        let early = self.state.with_mut(|p| {
            // SAFETY: rx lock held.
            unsafe { (*p).unexpected.take() }
        });
        if let Some(v) = early {
            self.lock.unlock();
            return v;
        }
        self.state.with_mut(|p| {
            // SAFETY: rx lock held.
            unsafe { (*p).posted = true }
        });
        self.lock.unlock();
        self.flag.wait(WaitStrategy::Passive);
        self.state.with(|p| {
            // SAFETY: wait returned → the deliverer's writes (made before
            // its release-signal) are visible; it never writes again.
            unsafe { (*p).delivered.expect("signalled without delivery") }
        })
    }

    /// Progress side: deliver to the posted receive or buffer unexpected.
    fn deliver(&self, v: u64) {
        self.lock.lock();
        let matched = self.state.with_mut(|p| {
            // SAFETY: rx lock held.
            unsafe {
                if (*p).posted {
                    (*p).delivered = Some(v);
                    true
                } else {
                    (*p).unexpected = Some(v);
                    false
                }
            }
        });
        self.lock.unlock();
        // Completion outside the section, as in CommCore::dispatch.
        if matched {
            self.flag.signal();
        }
    }
}

#[test]
fn per_gate_rx_lock_handoff_between_app_and_progress() {
    loom::model(|| {
        // Two gates with independent rx shards: each app thread talks to
        // its own gate, the progress thread walks both (as a progression
        // pass does), and no interleaving may race or lose a message.
        let gates = Arc::new([GateRx::new(), GateRx::new()]);
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let g = Arc::clone(&gates);
                thread::spawn(move || g[i].recv())
            })
            .collect();
        for (i, g) in gates.iter().enumerate() {
            g.deliver(10 + i as u64);
        }
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), 10 + i as u64);
        }
    });
}

/// A waker that counts its invocations through a loom atomic, so the
/// model sees the wake as an event it can order.
struct CountingWaker(Arc<nm_sync::sync_shim::atomic::AtomicUsize>);

impl std::task::Wake for CountingWaker {
    fn wake(self: std::sync::Arc<Self>) {
        self.0
            .fetch_add(1, nm_sync::sync_shim::atomic::Ordering::Release);
    }
}

/// The completion-delivery vs waker-registration race of the async
/// facade. Delivery signals the request's completion flag *before*
/// waking (`Request::deliver` in nm-core); a polling future checks the
/// flag, registers its waker, then re-checks (`poll_state` in nm-mpi).
/// The model proves that on every interleaving the future either
/// observes completion directly (returns Ready) or its waker fires — a
/// future parked forever on a completed request is impossible.
#[test]
fn waker_register_vs_completion_delivery_never_loses_the_wake() {
    use nm_sync::sync_shim::atomic::{AtomicUsize, Ordering};
    use nm_sync::WakerCell;

    loom::model(|| {
        let cell = Arc::new(WakerCell::new());
        let flag = Arc::new(CompletionFlag::new());
        let woken = Arc::new(AtomicUsize::new(0));

        let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
        let deliver = thread::spawn(move || {
            // The delivery order `request.rs` guarantees: terminal state
            // first, then the wakeup.
            f.signal();
            c.wake();
        });

        // One poll, exactly as the future's register-then-recheck path.
        let waker = std::task::Waker::from(std::sync::Arc::new(CountingWaker(Arc::clone(&woken))));
        let pending = if flag.is_set() {
            false
        } else if !cell.register(&waker) {
            // Delivery already ran; completion is observable.
            assert!(flag.is_set(), "refused registration before completion");
            false
        } else {
            // Registered; Pending only if completion still not visible.
            !flag.is_set()
        };
        deliver.join().unwrap();
        if pending {
            assert_eq!(
                woken.load(Ordering::Acquire),
                1,
                "future returned Pending but its waker never fired"
            );
        }
    });
}

#[test]
fn semaphore_handoff_transfers_permit() {
    loom::model(|| {
        let sem = Arc::new(Semaphore::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (s, st) = (Arc::clone(&sem), Arc::clone(&stop));
        let h = thread::spawn(move || {
            st.store(true, Ordering::Relaxed);
            s.release();
        });
        sem.acquire_with(WaitStrategy::Passive);
        // The permit was released exactly once and we consumed it.
        assert!(!sem.try_acquire());
        assert!(stop.load(Ordering::Relaxed));
        h.join().unwrap();
    });
}

#[test]
fn semaphore_two_consumers_two_permits() {
    loom::model(|| {
        let sem = Arc::new(Semaphore::new(0));
        let s = Arc::clone(&sem);
        let consumer = thread::spawn(move || {
            s.acquire_with(WaitStrategy::Passive);
        });
        let s2 = Arc::clone(&sem);
        let producer = thread::spawn(move || {
            s2.release_n(2);
        });
        sem.acquire_with(WaitStrategy::Passive);
        producer.join().unwrap();
        consumer.join().unwrap();
        assert_eq!(sem.available(), 0);
    });
}

/// The outcome protocol of `nm-core::Request`. One state word carries
/// the finish arbiter and the publication: complete and cancel both call
/// `try_finish` (one `compare_exchange(0, FINISHED, AcqRel, Acquire)`);
/// only the winner writes the outcome cell, stores `FINISHED | PUBLISHED`
/// with `Release`, and signals the completion flag. A reader touches the
/// cell only after an `Acquire` load saw `PUBLISHED`, and moves the value
/// out only if its `fetch_or(TAKEN)` was the first. No lock guards the
/// cell: the models below prove that on every interleaving exactly one
/// outcome is recorded, delivery runs exactly once, every reader sees the
/// winner's write, and exactly one reader gets the value.
struct RequestModel {
    state: AtomicU32,
    flag: CompletionFlag,
    outcome: UnsafeCell<Option<&'static str>>,
    delivered: AtomicUsize,
}

const FINISHED: u32 = 1;
const PUBLISHED: u32 = 2;
const TAKEN: u32 = 4;

// `outcome` is written only by the one `try_finish` CAS winner, before
// its `Release` publication; it is read only after an `Acquire` load of
// `PUBLISHED`, and moved out only by the `fetch_or` that set `TAKEN`.
// SAFETY: the protocol above, model-checked on every schedule.
unsafe impl Sync for RequestModel {}

impl RequestModel {
    fn new() -> Self {
        RequestModel {
            state: AtomicU32::new(0),
            flag: CompletionFlag::new(),
            outcome: UnsafeCell::new(None),
            delivered: AtomicUsize::new(0),
        }
    }

    /// `Request::try_finish` verbatim: the single finish arbiter.
    fn try_finish(&self) -> bool {
        self.state
            .compare_exchange(0, FINISHED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// `Request::publish`, then delivery.
    fn finish_with(&self, outcome: &'static str) {
        self.outcome.with_mut(|p| {
            // SAFETY: finish CAS won → sole writer, before publication.
            unsafe { *p = Some(outcome) }
        });
        self.state.store(FINISHED | PUBLISHED, Ordering::Release);
        self.flag.signal();
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    fn complete(&self, outcome: &'static str) {
        if self.try_finish() {
            self.finish_with(outcome);
        }
    }

    fn cancel(&self) -> bool {
        if !self.try_finish() {
            return false;
        }
        self.finish_with("cancelled");
        true
    }

    /// `Request::take_data`: claim once published, then move out.
    fn take(&self) -> Option<&'static str> {
        let published = self.state.load(Ordering::Acquire) & PUBLISHED != 0;
        if !published || self.state.fetch_or(TAKEN, Ordering::AcqRel) & TAKEN != 0 {
            return None;
        }
        self.outcome.with_mut(|p| {
            // SAFETY: published (the writer's stores are visible) and
            // this call holds the one claim.
            unsafe { (*p).take() }
        })
    }
}

#[test]
fn cancel_vs_completion_race_resolves_to_exactly_one_outcome() {
    loom::model(|| {
        let op = Arc::new(RequestModel::new());
        let o = Arc::clone(&op);
        let completer = thread::spawn(move || o.complete("completed"));
        let cancelled = op.cancel();
        op.flag.wait(WaitStrategy::Passive);
        let outcome = op.take().expect("flag signalled without an outcome");
        completer.join().unwrap();
        if cancelled {
            assert_eq!(outcome, "cancelled", "cancel won the CAS");
        } else {
            assert_eq!(outcome, "completed", "completion won the CAS");
        }
        assert_eq!(
            op.delivered.load(Ordering::Relaxed),
            1,
            "completion must be delivered exactly once"
        );
    });
}

#[test]
fn request_outcome_is_taken_by_exactly_one_reader() {
    loom::model(|| {
        let op = Arc::new(RequestModel::new());
        // Two clones of the request: each tries once while the finisher
        // may still be writing, then once more after the flag.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let o = Arc::clone(&op);
                thread::spawn(move || {
                    let early = o.take();
                    if early.is_some() {
                        return early;
                    }
                    o.flag.wait(WaitStrategy::Passive);
                    o.take()
                })
            })
            .collect();
        op.complete("payload");
        let got: Vec<_> = readers
            .into_iter()
            .filter_map(|r| r.join().unwrap())
            .collect();
        assert_eq!(got, vec!["payload"], "exactly one reader gets the value");
        assert_eq!(op.take(), None, "taken once");
    });
}

/// The length-hint protocol of nm-core's collect queue and transfer
/// lists (`Gate::with_tx` / `Gate::tx_len_hint`): the list lives under
/// its section's lock; its length is republished, under that lock, to an
/// atomic a progression pass reads *instead of* taking the lock. A pass
/// that reads zero skips the list. What keeps a skipped item from being
/// stranded is not the hint's ordering (both sides are `Relaxed`) but
/// the pusher: it pumps after it pushes, and reads at least its own
/// publication.
struct HintedList {
    lock: RawSpin,
    items: UnsafeCell<Vec<u64>>,
    len: AtomicUsize,
}

// SAFETY: `items` is only accessed while `lock` is held; model-checked.
unsafe impl Sync for HintedList {}

impl HintedList {
    fn new() -> Self {
        HintedList {
            lock: RawSpin::new(),
            items: UnsafeCell::new(Vec::new()),
            len: AtomicUsize::new(0),
        }
    }

    /// `Gate::with_tx`: run `f` on the list under its lock, republish
    /// the length before releasing.
    fn with<R>(&self, f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
        self.lock.lock();
        let (out, len) = self.items.with_mut(|p| {
            // SAFETY: lock held.
            let items = unsafe { &mut *p };
            let out = f(items);
            (out, items.len())
        });
        if self.len.load(Ordering::Relaxed) != len {
            self.len.store(len, Ordering::Relaxed);
        }
        self.lock.unlock();
        out
    }

    /// `pump_gate` / `flush_xfer`: skip on a zero hint, else lock and pop.
    fn pump(&self) -> Option<u64> {
        if self.len.load(Ordering::Relaxed) == 0 {
            return None;
        }
        self.with(|items| items.pop())
    }
}

/// One attempt to post a popped item. The first attempt of the run
/// finds the NIC full (`WouldBlock`) and puts the item back, as
/// `pump_gate` and `flush_xfer` do; any later one delivers it.
fn try_post(list: &HintedList, attempts: &AtomicUsize, delivered: &AtomicUsize, v: u64) {
    if attempts.fetch_add(1, Ordering::Relaxed) == 0 {
        list.with(|items| items.push(v));
    } else {
        delivered.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn length_hint_skip_strands_nothing() {
    loom::model(|| {
        let list = Arc::new(HintedList::new());
        let attempts = Arc::new(AtomicUsize::new(0));
        let delivered = Arc::new(AtomicUsize::new(0));
        let (l, a, d) = (
            Arc::clone(&list),
            Arc::clone(&attempts),
            Arc::clone(&delivered),
        );
        // The pusher: push under the lock, then pump (isend, dispatch's
        // CTS and start_rdv_data all have this shape).
        let pusher = thread::spawn(move || {
            l.with(|items| items.push(7));
            if let Some(v) = l.pump() {
                try_post(&l, &a, &d, v);
            }
        });
        // Another thread's progression passes, racing the push.
        for _ in 0..2 {
            if let Some(v) = list.pump() {
                try_post(&list, &attempts, &delivered, v);
            }
        }
        pusher.join().unwrap();
        // "The next pass": a requeued item still shows in the hint.
        while let Some(v) = list.pump() {
            try_post(&list, &attempts, &delivered, v);
        }
        assert_eq!(delivered.load(Ordering::Relaxed), 1, "delivered once");
        assert_eq!(list.len.load(Ordering::Relaxed), 0);
        assert!(list.with(|items| items.is_empty()));
    });
}
