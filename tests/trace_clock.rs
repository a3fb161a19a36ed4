//! One clock: a recording stamps its events on the clock it was started
//! with, and the real clock is the fabric's. Building a `World` leaves
//! the recording's clock alone, and a real-time event falls between two
//! `ClockSource::real()` readings taken around it.
//!
//! The recording is process-wide, so the tests here take one lock.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use nomad::fabric::ClockSource;
use nomad::metrics::trace::{self, EventId};
use nomad::mpi::{ThreadLevel, World};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn a_real_clock_world_leaves_a_virtual_recording_on_its_clock() {
    let _serial = serial();
    let ns = Arc::new(AtomicU64::new(7_000));
    let rec = trace::record_virtual(Arc::clone(&ns));

    let world = World::pair(ThreadLevel::Multiple);
    assert!(!world.clock().is_manual());
    let (a, b) = world.comm_pair();
    let (to_b, to_a) = (a.sole_peer().unwrap(), b.sole_peer().unwrap());
    let r = to_a.irecv(1).expect("irecv");
    let s = to_b.isend(1, b"on virtual time").expect("isend");
    while !r.is_complete() || !s.is_complete() {
        a.core().progress();
        b.core().progress();
    }

    let events = rec.finish().merged();
    assert!(events.iter().any(|e| e.id == EventId::SpanDeliver));
    assert!(events.iter().all(|e| e.ts == 7_000), "real time leaked in");
}

#[test]
fn a_real_time_event_lies_between_two_fabric_clock_reads() {
    let _serial = serial();
    let clock = ClockSource::real();
    // The anchor is taken by now; a second epoch taken at the first
    // event would put the event before `before`.
    std::thread::sleep(Duration::from_millis(5));
    let before = clock.now_ns();
    let rec = trace::record();
    trace::emit(EventId::PacketTx, 1, 0);
    let after = ClockSource::real().now_ns();
    let trace = rec.finish();

    let me = std::thread::current().name().unwrap_or("?").to_string();
    let mine = trace.threads.iter().find(|t| t.name == me).unwrap();
    let ts = mine.events.iter().find(|e| e.a == 1).unwrap().ts;
    assert!(before <= ts && ts <= after, "{before} <= {ts} <= {after}");
}
