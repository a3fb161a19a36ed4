//! Model-checked tests of the progression thread: its completion
//! handoff, lane failover, and the source-list generation protocol of
//! `ProgressEngine::poll_cached`.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p nm-progress --test loom
//! ```
//!
//! The progression engine's core protocol (see `src/engine.rs`) is: a
//! dedicated thread polls the fabric, writes a request's result, marks it
//! complete via `CompletionFlag::signal`, and keeps looping until a stop
//! flag is raised; meanwhile an application thread blocks on the request's
//! flag and reads the result after waking. This test replays exactly that
//! protocol on the model-checked primitives, so the handoff's
//! happens-before edge (release store in `signal`, acquire load in the
//! wait) and the shutdown sequencing are both explored across schedules.

#![cfg(loom)]

use std::sync::Arc;

use nm_progress::{PollOutcome, PollSource, ProgressEngine};
use nm_sync::sync_shim::atomic::{AtomicBool, Ordering};
use nm_sync::sync_shim::{cell::UnsafeCell, thread, Mutex};
use nm_sync::{CompletionFlag, WaitStrategy};

/// A pending receive: the progression thread fills `payload`, then
/// signals `done`.
struct Request {
    done: CompletionFlag,
    payload: UnsafeCell<u64>,
}

// SAFETY: `payload` is written only by the progression thread before
// `done.signal()` and read only after the waiter observes the flag; the
// model checks that this protocol really orders the accesses.
unsafe impl Sync for Request {}

struct EngineState {
    request: Request,
    stop: AtomicBool,
}

fn progression_thread(state: &EngineState) {
    // Poll loop: complete outstanding work, then keep polling until the
    // owner asks us to stop — mirroring `ProgressionEngine::run`.
    let mut completed = false;
    loop {
        if !completed {
            state.request.payload.with_mut(|p| {
                // SAFETY: only the progression thread writes, and only
                // before signalling completion.
                unsafe { *p = 0xfeed }
            });
            state.request.done.signal();
            completed = true;
        }
        if state.stop.load(Ordering::Acquire) {
            break;
        }
        thread::yield_now();
    }
}

#[test]
fn progression_thread_completion_handoff() {
    loom::model(|| {
        let state = Arc::new(EngineState {
            request: Request {
                done: CompletionFlag::new(),
                payload: UnsafeCell::new(0),
            },
            stop: AtomicBool::new(false),
        });
        let engine = Arc::clone(&state);
        let h = thread::spawn(move || progression_thread(&engine));

        // Application thread: block on the request, then read the result.
        state.request.done.wait(WaitStrategy::Passive);
        state.request.payload.with(|p| {
            // SAFETY: the completed flag's acquire edge orders this read
            // after the progression thread's write.
            assert_eq!(unsafe { *p }, 0xfeed);
        });

        // Shutdown: release-store so the progression thread's final reads
        // happen-before the join.
        state.stop.store(true, Ordering::Release);
        h.join().unwrap();
    });
}

/// One transfer-layer lane of the model: an xfer queue and the racy
/// liveness hint, exactly the pair nm-core's `Lane` keeps per (rail, VCI).
struct Lane {
    queue: Mutex<Vec<u32>>,
    dead: AtomicBool,
}

impl Lane {
    fn new() -> Self {
        Lane {
            queue: Mutex::new(Vec::new()),
            dead: AtomicBool::new(false),
        }
    }
}

/// `restripe`: drain the dead lane's queue, then re-push onto a lane
/// that is live *in a snapshot taken after the drain* — the order the
/// real failover relies on.
fn restripe(lanes: &[Lane; 2], from: usize) {
    let stranded: Vec<u32> = lanes[from].queue.lock().drain(..).collect();
    if stranded.is_empty() {
        return;
    }
    let live = (0..2)
        .find(|&l| !lanes[l].dead.load(Ordering::Relaxed))
        .expect("model keeps lane 1 alive");
    lanes[live].queue.lock().extend(stranded);
}

/// Model-checked replay of the VCI lane-selection vs. retransmit-failover
/// race in the core transfer layer.
///
/// The submit path (`pick_idle_lane`) reads the per-lane `dead` hint with
/// relaxed ordering and *then* pushes onto the chosen lane's xfer queue,
/// so a failover (`kill_lane` → `restripe`) can drain the lane
/// between the check and the push and leave the new item stranded on a
/// dead lane. The real code does not close that window with a lock — it
/// guarantees instead that every progression pass re-runs `flush_xfer`,
/// which migrates dead lanes' queues again. The model explores every
/// interleaving of submitter and killer and asserts the recovery
/// invariant: after one such pass, nothing is lost and nothing sits on a
/// dead lane.
#[test]
fn vci_failover_rescues_items_striped_onto_a_dying_lane() {
    loom::model(|| {
        let lanes = Arc::new([Lane::new(), Lane::new()]);

        // Submitter: pick_idle_lane's racy hint read, then the push.
        let submit = {
            let lanes = Arc::clone(&lanes);
            thread::spawn(move || {
                let lane = if !lanes[0].dead.load(Ordering::Relaxed) {
                    0
                } else {
                    1
                };
                lanes[lane].queue.lock().push(0xdead_beef);
            })
        };

        // Killer: the kill_lane transition — mark dead, then migrate.
        let kill = {
            let lanes = Arc::clone(&lanes);
            thread::spawn(move || {
                lanes[0].dead.store(true, Ordering::Relaxed);
                restripe(&lanes, 0);
            })
        };

        submit.join().unwrap();
        kill.join().unwrap();

        // One progression pass: flush_xfer restripes every dead lane.
        for lane in 0..2 {
            if lanes[lane].dead.load(Ordering::Relaxed) {
                restripe(&lanes, lane);
            }
        }

        // Nothing lost, and no item left on a dead lane.
        let on_dead = lanes[0].queue.lock().len();
        let on_live = lanes[1].queue.lock().len();
        assert_eq!(on_dead, 0, "item stranded on the dead lane");
        assert_eq!(on_live, 1, "item lost in migration");
    });
}

#[test]
fn progression_thread_stop_before_wait_still_completes() {
    loom::model(|| {
        let state = Arc::new(EngineState {
            request: Request {
                done: CompletionFlag::new(),
                payload: UnsafeCell::new(0),
            },
            stop: AtomicBool::new(false),
        });
        let engine = Arc::clone(&state);
        let h = thread::spawn(move || progression_thread(&engine));

        // Raise stop immediately; the engine must still have completed
        // the in-flight request before exiting (completion precedes the
        // stop check in the loop).
        state.stop.store(true, Ordering::Release);
        h.join().unwrap();
        assert!(state.request.done.is_set());
        state.request.payload.with(|p| {
            // SAFETY: join provides the happens-before edge here.
            assert_eq!(unsafe { *p }, 0xfeed);
        });
    });
}

/// A source that checks, when polled, that it sees what was written
/// into it before it was registered, and then says it was polled.
struct Probe {
    armed: UnsafeCell<u64>,
    polled: AtomicBool,
}

// SAFETY: `armed` is written once, before the probe is registered, and
// only read by polls; the model checks that registration orders the
// write before every such read.
unsafe impl Sync for Probe {}

impl PollSource for Probe {
    fn poll(&self) -> PollOutcome {
        self.armed.with(|p| {
            // SAFETY: see the `Sync` impl.
            assert_eq!(unsafe { *p }, 7, "polled before it was armed");
        });
        self.polled.store(true, Ordering::Release);
        PollOutcome::Progressed
    }
}

/// The real `ProgressEngine` driven the way a `ProgressionThread` drives
/// it — pass after pass through a `SourceCache`, taking the list lock
/// only when the list's generation has moved — while the application
/// thread registers a source. The source must be polled on a later pass
/// (the application thread waits for it, so a cache that never notices
/// the new generation exhausts the op budget), and that poll must see
/// everything written before `register` (the list lock's edge, checked
/// on the probe's cell).
#[test]
fn source_registered_while_polling_is_polled_later() {
    loom::model(|| {
        let engine = Arc::new(ProgressEngine::new());
        let stop = Arc::new(AtomicBool::new(false));
        let poller = {
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut sources = engine.source_cache();
                while !stop.load(Ordering::Acquire) {
                    engine.poll_cached(&mut sources);
                    thread::yield_now();
                }
            })
        };
        let probe = Arc::new(Probe {
            armed: UnsafeCell::new(0),
            polled: AtomicBool::new(false),
        });
        probe.armed.with_mut(|p| {
            // SAFETY: not registered yet, so nothing else can reach it.
            unsafe { *p = 7 }
        });
        engine.register(Arc::clone(&probe) as Arc<dyn PollSource>);
        while !probe.polled.load(Ordering::Acquire) {
            thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        poller.join().unwrap();
    });
}
