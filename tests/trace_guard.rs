//! Tracing is a recording started at run time, in the one build there
//! is: off until `record()`, on while the `Recording` lives, off again
//! after `finish()`. Off, a trace point records nothing, registers no
//! ring and allocates no span id, so an eager frame leaves bare.
//!
//! The recording switch is process-wide, so every test here takes one
//! lock: the tests that assert nothing was recorded never overlap the
//! one that records.

use std::sync::{Arc, Mutex, MutexGuard};

use bytes::Bytes;

use nomad::core::wire::{decode_bare_frame, FRAME_SPAN_BYTES};
use nomad::core::{CommCore, CoreBuilder, CoreConfig, GateId};
use nomad::fabric::{Driver, DriverCaps, LoopbackDriver, PostError, WireFrame};
use nomad::metrics::trace::{self, EventId};
use nomad::mpi::{ThreadLevel, World};

const G: GateId = GateId(0);

/// Round trips of the recorded phase, as in `span_stack.rs`.
const PINGPONGS: u64 = 16;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A loopback driver that keeps a copy of every frame it posts.
struct Tap {
    inner: LoopbackDriver,
    posted: Arc<Mutex<Vec<WireFrame>>>,
}

impl Driver for Tap {
    fn caps(&self) -> &DriverCaps {
        self.inner.caps()
    }
    fn can_post_vci(&self, vci: usize) -> bool {
        self.inner.can_post_vci(vci)
    }
    fn post_frame_vci(&self, vci: usize, frame: WireFrame) -> Result<(), PostError> {
        self.inner.post_frame_vci(vci, frame.clone())?;
        self.posted.lock().unwrap().push(frame);
        Ok(())
    }
    fn poll_vci(&self, vci: usize) -> Option<WireFrame> {
        self.inner.poll_vci(vci)
    }
    fn has_inbound_vci(&self, vci: usize) -> bool {
        self.inner.has_inbound_vci(vci)
    }
}

/// Two cores over one loopback rail; the taps log what each side posts.
fn tapped_pair(posted: &Arc<Mutex<Vec<WireFrame>>>) -> (Arc<CommCore>, Arc<CommCore>) {
    let (da, db) = LoopbackDriver::pair(64);
    let tap = |inner| {
        Arc::new(Tap {
            inner,
            posted: Arc::clone(posted),
        }) as Arc<dyn Driver>
    };
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![tap(da)])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![tap(db)])
        .build();
    (a, b)
}

/// `n` lockstep 8 B round trips, co-polled on this thread. Each receive
/// is posted before its message leaves, so every message is matched on
/// arrival.
fn pingpong(a: &CommCore, b: &CommCore, n: u64) {
    let payload = Bytes::from(vec![0xA5u8; 8]);
    for i in 0..n {
        for (from, to) in [(a, b), (b, a)] {
            let recv = to.irecv(G, i).unwrap();
            let send = from.isend(G, i, payload.clone()).unwrap();
            while !recv.is_complete() || !send.is_complete() {
                from.progress();
                to.progress();
            }
            assert_eq!(recv.take_data().unwrap(), payload);
        }
    }
}

/// Frame length and span word of every frame posted since the last call.
fn frames(posted: &Mutex<Vec<WireFrame>>) -> Vec<(usize, u64)> {
    std::mem::take(&mut *posted.lock().unwrap())
        .into_iter()
        .map(|f| (f.len(), decode_bare_frame(f.into_parts().0).unwrap().span))
        .collect()
}

#[test]
fn recording_is_switched_on_and_off_at_run_time() {
    let _serial = serial();
    let posted = Arc::new(Mutex::new(Vec::new()));
    let (a, b) = tapped_pair(&posted);

    // Off: no thread has a ring, span ids are 0, and an 8 B eager
    // message leaves in a bare 32 B frame with no span word.
    assert!(!trace::enabled());
    pingpong(&a, &b, PINGPONGS);
    assert!(
        trace::snapshot_trace().threads.is_empty(),
        "no ring registered"
    );
    assert_eq!(trace::next_span_id(), 0);
    let off = frames(&posted);
    assert_eq!(off.len() as u64, 2 * PINGPONGS);
    assert!(off.iter().all(|&frame| frame == (32, 0)));

    // On: the same binary records `span_stack.rs`'s span choreography,
    // and every frame carries its message's span id.
    let rec = trace::record();
    assert!(trace::enabled());
    pingpong(&a, &b, PINGPONGS);
    let trace = rec.finish();
    let n = 2 * PINGPONGS;
    assert_eq!(trace.dropped(), 0, "ring wrapped mid-test");
    assert_eq!(trace.count(EventId::SpanSubmit), 2 * n, "send + recv");
    assert_eq!(trace.count(EventId::SpanCollect), n);
    assert_eq!(trace.count(EventId::SpanWireTx), n);
    assert_eq!(trace.count(EventId::SpanWireRx), n);
    assert_eq!(trace.count(EventId::SpanDeliver), n);
    assert_eq!(trace.count(EventId::SpanComplete), 2 * n);
    assert_eq!(trace.count(EventId::SpanRetx), 0);
    assert_eq!(trace.count(EventId::SpanWake), 0);
    let on = frames(&posted);
    assert_eq!(on.len() as u64, n);
    assert!(on
        .iter()
        .all(|&(len, span)| span != 0 && len == 32 + FRAME_SPAN_BYTES));

    // Off again: the rings stay empty and frames are bare once more.
    assert!(!trace::enabled());
    pingpong(&a, &b, PINGPONGS);
    assert!(
        trace::take_trace().is_empty(),
        "nothing recorded after finish"
    );
    assert!(frames(&posted).iter().all(|&frame| frame == (32, 0)));
}

#[test]
fn disabled_tracing_records_nothing() {
    let _serial = serial();
    assert!(!trace::enabled());

    // A real co-polled pingpong exercises every instrumented layer
    // (sync, core, progress, fabric)...
    let world = World::pair(ThreadLevel::Multiple);
    let (a, b) = world.comm_pair();
    let (to_b, to_a) = (a.sole_peer().unwrap(), b.sole_peer().unwrap());
    let echo = std::thread::spawn(move || {
        for i in 0..64u64 {
            let msg = to_a.recv(i).expect("echo recv");
            to_a.send(i, &msg).expect("echo send");
        }
    });
    for i in 0..64u64 {
        to_b.send(i, b"untraced").expect("send");
        to_b.recv(i).expect("recv");
    }
    echo.join().unwrap();

    // ...and none of it left a record.
    assert!(trace::take_trace().is_empty());
    assert!(trace::snapshot_trace().is_empty());
}

#[test]
fn disabled_tracing_allocates_no_span_ids() {
    let _serial = serial();
    // Span ids exist only to label trace events; with no recording live,
    // allocation short-circuits to 0 ("no span"), the wire header
    // carries no span bytes, and requests stay span-free.
    let world = World::pair(ThreadLevel::Multiple);
    let (a, b) = world.comm_pair();
    let (to_b, to_a) = (a.sole_peer().unwrap(), b.sole_peer().unwrap());
    let r = to_a.irecv(9).expect("irecv");
    let s = to_b.isend(9, b"spanless").expect("isend");
    assert_eq!(s.span(), 0, "send request must carry no span");
    assert_eq!(r.span(), 0, "recv request must carry no span");
    while !r.is_complete() {
        a.core().progress();
        b.core().progress();
    }
    assert!(trace::take_trace().is_empty());
}

#[test]
fn disabled_emit_is_a_no_op() {
    let _serial = serial();
    // Off, `emit` is a load and a branch: a million calls register no
    // ring for this thread and retain nothing.
    let me = std::thread::current().name().unwrap_or("?").to_string();
    for i in 0..1_000_000u64 {
        trace::emit(trace::EventId::LockAcquire, i, 0);
    }
    let t = trace::take_trace();
    assert!(t.is_empty());
    assert_eq!(t.dropped(), 0);
    assert!(
        t.threads.iter().all(|ring| ring.name != me),
        "no ring should even be registered"
    );
}
