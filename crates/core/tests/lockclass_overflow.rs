//! Regression tests for the lock-class overflow path (feature
//! `lockcheck`): gate/driver indices beyond the 16-entry
//! `COLLECT_{TX,RX}_LOCK_CLASSES` / `DRIVER_LOCK_CLASSES` tables must
//! (a) increment the `core.lockclass_overflow` counter and (b) still
//! participate in lockcheck cycle detection, under the per-family shared
//! `*.overflow` class rather than dropping out of the graph entirely.
//!
//! The lockcheck ordering graph is process-global, so the tests in this
//! file coordinate on which edge directions they establish: only
//! `overflow_lock_participates_in_cycle_detection` records edges, and it
//! keeps both directions inside one test body.

#![cfg(feature = "lockcheck")]

use nm_core::{LockPolicy, LockingMode, SectionKind};
use nm_sync::lockcheck;
use std::sync::Mutex;

/// Gates/drivers one past the 16-entry class tables.
const OVERFLOWING: usize = 17;

/// The overflow counter and the lockcheck graph are process-global; the
/// test harness runs tests on concurrent threads, so serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn overflow_increments_counter_and_keeps_a_class() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let counter = nm_core::metrics::lockclass_overflow();
    let before = counter.get();
    let p = LockPolicy::new(LockingMode::Fine, OVERFLOWING, OVERFLOWING);
    // One tx + one rx + one driver lock past the tables.
    assert_eq!(counter.get() - before, 3);

    // The overflowed lock is not untracked: lockcheck sees it under the
    // family's shared overflow class.
    let g = p.enter(SectionKind::CollectTx(16));
    assert_eq!(lockcheck::held_classes(), ["core.collect.tx.overflow"]);
    drop(g);
    assert!(lockcheck::held_classes().is_empty());

    let d = p.enter(SectionKind::Driver(16));
    assert_eq!(lockcheck::held_classes(), ["core.driver.overflow"]);
    drop(d);
}

#[test]
fn two_overflow_locks_of_one_family_may_nest() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // 18 gates → gates 16 and 17 both map to "core.collect.rx.overflow".
    // Holding both at once is legitimate (they are distinct locks) and
    // must not be misreported as a recursive acquisition.
    let p = LockPolicy::new(LockingMode::Fine, 18, 1);
    let a = p.enter(SectionKind::CollectRx(16));
    let b = p.enter(SectionKind::CollectRx(17));
    assert_eq!(
        lockcheck::held_classes(),
        ["core.collect.rx.overflow", "core.collect.rx.overflow"]
    );
    drop((a, b));
}

#[test]
fn overflow_lock_participates_in_cycle_detection() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let p = std::sync::Arc::new(LockPolicy::new(LockingMode::Fine, OVERFLOWING, OVERFLOWING));

    // Establish the order overflow-tx → driver.2 (both from gate/driver
    // indices this test owns, to stay independent of other tests).
    {
        let tx = p.enter(SectionKind::CollectTx(16));
        let d = p.enter(SectionKind::Driver(2));
        drop((d, tx));
    }

    // The reverse order must now panic with a lock-order cycle — proving
    // the overflowed lock is a real node in the graph, not invisible.
    let p2 = std::sync::Arc::clone(&p);
    let res = std::thread::spawn(move || {
        let d = p2.enter(SectionKind::Driver(2));
        let tx = p2.enter(SectionKind::CollectTx(16));
        drop((tx, d));
    })
    .join();
    let err = res.expect_err("inverted overflow-lock order must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(
        msg.contains("lock-order cycle"),
        "expected a lock-order cycle panic, got: {msg}"
    );
    assert!(
        msg.contains("core.collect.tx.overflow"),
        "cycle report must name the overflow class: {msg}"
    );
}
