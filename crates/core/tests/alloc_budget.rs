//! Allocation budget of the data path, per message and per payload byte.
//!
//! A counting wrapper around the system allocator runs as this test
//! binary's global allocator and counts the test thread's allocations.
//! Allocation counts repeat exactly on any host, so the hot-path diet is
//! gated here rather than on a clock: an eager message costs exactly
//! eight allocations and a fixed number of bytes (nine and 1032 B while
//! each posted receive allocated a fresh tag bin; an emptied bin is now
//! kept as the gate's spare), a 1 KiB one on a reliable lane exactly
//! ten, a rendezvous allocates each payload byte once, in the buffer it
//! is reassembled in (its chunks leave as slices of the caller's
//! buffer, behind a head of their own), nothing is encoded before it
//! can be posted, and a peer's entry count cannot size an allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{BufMut, Bytes, BytesMut};

use nm_core::wire::{decode_packet, WireError};
use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, ReliabilityConfig};
use nm_fabric::{Driver, Fabric, LoopbackDriver, WireModel};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's own thread, which drives both cores. Only its
    /// allocations count: the harness's main thread wakes and allocates
    /// on its own schedule, which on a loaded host lands inside a
    /// measured region (4 allocations in 9000).
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation of `size` bytes if this thread is counted.
fn count(size: usize) {
    if COUNTED.with(Cell::get) {
        // relaxed: diagnostic counters, read by the one test thread.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: pure pass-through to the System allocator; the counters are a
// relaxed side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarding the caller's layout contract unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwarding the caller's layout contract unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's layout contract unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwarding the caller's layout contract unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarding the caller's layout contract unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// (allocations, bytes allocated) so far.
fn allocated() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// (allocations, bytes allocated) by `f`.
fn measure(f: impl FnOnce()) -> (u64, u64) {
    let (a0, b0) = allocated();
    f();
    let (a1, b1) = allocated();
    (a1 - a0, b1 - b0)
}

const G: GateId = GateId(0);
const MIB: usize = 1 << 20;

type Rails = Vec<Arc<dyn Driver>>;

fn pair_over(a: Rails, b: Rails) -> (Arc<CommCore>, Arc<CommCore>) {
    pair_with(CoreConfig::default(), a, b)
}

fn pair_with(config: CoreConfig, a: Rails, b: Rails) -> (Arc<CommCore>, Arc<CommCore>) {
    (
        CoreBuilder::new(config.clone()).add_gate(a).build(),
        CoreBuilder::new(config).add_gate(b).build(),
    )
}

/// One message a → b, co-polled to completion, payload checked.
fn deliver(a: &CommCore, b: &CommCore, payload: &Bytes) {
    let recv = b.irecv(G, 1).unwrap();
    let send = a.isend(G, 1, payload.clone()).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().as_ref(), Some(payload));
}

// One test function on purpose: the counters are global, so a second
// #[test] running concurrently would bleed into the measured regions.
#[test]
fn data_path_allocation_budget() {
    COUNTED.with(|c| c.set(true));
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let (a, b) = pair_over(pa.drivers(), pb.drivers());

    // Eager: 8 B messages over an ideal pair, queues and maps warmed.
    let small = Bytes::from(vec![0xA5u8; 8]);
    for _ in 0..64 {
        deliver(&a, &b, &small);
    }
    const EAGER_MSGS: u64 = 1000;
    let (allocs, bytes) = measure(|| {
        for _ in 0..EAGER_MSGS {
            deliver(&a, &b, &small);
        }
    });
    assert_eq!(
        allocs,
        8 * EAGER_MSGS,
        "allocations per 8 B eager message (budget exactly 8)"
    );
    // Exact, so that a regrown `Request` (two per message) shows here.
    // No recording is live, so the frame carries no span word.
    assert_eq!(
        bytes,
        904 * EAGER_MSGS,
        "bytes allocated per 8 B eager message (budget exactly 904)"
    );

    // Reliable: 1 KiB eager messages over a lossless pair with the
    // protocol on and its timers out of reach, so no resend joins the
    // count. Its frame and its ack add to the eager path's allocations;
    // a frame released in order allocates nothing for the release (11
    // while the window returned a fresh list per frame).
    let reliable = CoreConfig::default().reliability(ReliabilityConfig {
        rto_base_ns: 60_000_000_000,
        rto_max_ns: 60_000_000_000,
        ..ReliabilityConfig::enabled()
    });
    let (pa, pb) = fabric.pair(&[WireModel::ideal()], true);
    let (ra, rb) = pair_with(reliable, pa.drivers(), pb.drivers());
    let kib = Bytes::from((0..1024).map(|i| i as u8).collect::<Vec<u8>>());
    for _ in 0..64 {
        deliver(&ra, &rb, &kib);
    }
    let (allocs, _) = measure(|| {
        for _ in 0..EAGER_MSGS {
            deliver(&ra, &rb, &kib);
        }
    });
    assert_eq!(
        allocs,
        10 * EAGER_MSGS,
        "allocations per reliable 1 KiB eager message (budget exactly 10)"
    );
    drop((ra, rb));

    // Rendezvous: every payload byte is allocated once, in the
    // reassembly buffer; each of the 64 chunks adds a frame head and the
    // box holding its two parts.
    let big = Bytes::from((0..MIB).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    for _ in 0..2 {
        deliver(&a, &b, &big);
    }
    const RDV_MSGS: u64 = 4;
    let (allocs, bytes) = measure(|| {
        for _ in 0..RDV_MSGS {
            deliver(&a, &b, &big);
        }
    });
    let per_byte = bytes as f64 / (RDV_MSGS * MIB as u64) as f64;
    assert!(
        per_byte <= 1.05,
        "{per_byte:.3} bytes allocated per payload byte of a 1 MiB rendezvous (budget 1.05)"
    );
    // Exact: 286 while each chunk was copied into a one-part frame of
    // its own, and one more per chunk for the box of a two-part frame.
    assert_eq!(
        allocs,
        350 * RDV_MSGS,
        "allocations per 1 MiB rendezvous message (budget exactly 350)"
    );

    // Encode at post time: behind a shallow ring (depth 1 rounds up to
    // two slots) the CTS finds room for two chunks. The other 62 wait as
    // entries (slices of `big`), not as a second encoded MiB.
    let (da, db) = LoopbackDriver::pair(1);
    let (a, b) = pair_over(vec![Arc::new(da)], vec![Arc::new(db)]);
    let recv = b.irecv(G, 1).unwrap();
    let send = a.isend(G, 1, big.clone()).unwrap();
    b.progress(); // RTS in, CTS out
    assert_eq!(a.pending().rdv_awaiting_cts, 1);
    let (_, on_cts) = measure(|| {
        a.progress();
    });
    let queued = a.pending();
    assert_eq!(queued.rdv_awaiting_cts, 0, "that pass handled the CTS");
    assert_eq!(queued.xfer_items, 62, "two chunks posted, the rest queued");
    assert!(
        on_cts < 64 << 10,
        "sender allocated {on_cts} B between the CTS and the first chunk leaving the wire"
    );
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data(), Some(big));

    // A peer's entry count must not size an allocation.
    let mut liar = BytesMut::new();
    liar.put_u16(u16::MAX);
    let liar = liar.freeze();
    let (_, reserved) = measure(|| {
        assert_eq!(decode_packet(liar), Err(WireError::Truncated));
    });
    assert!(
        reserved < 1024,
        "a 2-byte packet claiming 65 535 entries reserved {reserved} B"
    );
}
