//! The record path must be allocation-free.
//!
//! A counting wrapper around the system allocator runs as this test
//! binary's global allocator; once metric handles are resolved, a burst
//! of `record`/`sampled_timer`/`incr`/`set` calls (including the first
//! call from a fresh thread, which assigns its stripe) must not allocate
//! at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the counter is a
// relaxed side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: diagnostic counter, read only after threads join.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarding the caller's layout contract unchanged.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwarding the caller's layout contract unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's layout contract unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

// One test function on purpose: the allocation counter is global, so a
// second #[test] running concurrently would bleed its setup allocations
// into the measured region.
#[test]
fn record_path_does_not_allocate() {
    // Resolve handles first: registry lookups and histogram creation
    // allocate by design (cold path).
    let hist = nm_metrics::metrics().histogram("test.noalloc.hist");
    let timed = nm_metrics::metrics().histogram("test.noalloc.sampled");
    let ctr = nm_metrics::metrics().counter("test.noalloc.ctr");
    let gauge = nm_metrics::metrics().gauge("test.noalloc.gauge");
    let stats = nm_metrics::LockStats::new();

    // Warm this thread's stripe assignment (a thread-local Cell; its
    // first use must not allocate either, but warm it anyway so the
    // measured region is purely the record fast path). The first
    // record_acquire also lazily registers the global lock-aggregate
    // counters — a one-time cold-path allocation by design.
    hist.record(0);
    stats.record_acquire(false);

    // The counter is process-wide, so an unrelated runtime thread can
    // drop a stray allocation into the measured window. Retry a few
    // times: a real record-path allocation repeats on every attempt
    // (and would count in the hundreds of thousands, not single digits).
    let mut measured = u64::MAX;
    for _ in 0..5 {
        let before = allocs();
        for i in 0..100_000u64 {
            hist.record(i % 4096);
            drop(timed.sampled_timer());
            ctr.incr();
            ctr.add(2);
            gauge.set(i as i64);
            gauge.add(1);
            stats.record_acquire(i % 7 == 0);
        }
        measured = allocs() - before;
        if measured == 0 {
            break;
        }
    }
    assert_eq!(measured, 0, "record path allocated {measured} times");
    // The sampled timer did run: its samples, with their weight, count
    // every call.
    assert!(timed.snapshot().count() >= 100_000);

    // A fresh thread's very first record assigns its stripe through a
    // const-initialized thread-local Cell — still no allocation.
    let hist = nm_metrics::metrics().histogram("test.noalloc.fresh");
    let h = std::thread::Builder::new()
        .name("noalloc-fresh".into())
        .spawn(move || {
            let before = allocs();
            for i in 0..1_000u64 {
                drop(hist.sampled_timer());
                hist.record(i);
            }
            allocs() - before
        })
        .expect("spawn");
    let delta = h.join().expect("join");
    assert_eq!(delta, 0, "fresh-thread record path allocated {delta} times");
}
