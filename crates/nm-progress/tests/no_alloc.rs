//! Asking a timer wheel for due entries when none is due must be free.
//!
//! A core with a request deadline armed asks the wheel on every
//! progression pass until it fires; almost every answer is "nothing
//! yet". A counting wrapper around the system allocator runs
//! as this test binary's global allocator and pins that answer at zero
//! allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nm_progress::TimerWheel;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the System allocator; the counter is a
// relaxed side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // relaxed: diagnostic counter, read on the thread that allocates.
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
// second #[test] running concurrently would bleed its allocations into
// the measured region.
#[test]
fn pop_due_with_nothing_due_does_not_allocate() {
    let w = TimerWheel::new();
    w.schedule(300, "c");
    w.schedule(100, "a");
    w.schedule(200, "b");
    w.schedule(200, "b2");

    // The counter is process-wide, so an unrelated runtime thread can
    // drop a stray allocation into the measured window. Retry a few
    // times: an allocation on this path repeats on every call.
    let mut measured = u64::MAX;
    for _ in 0..5 {
        let before = allocs();
        for now in 0..1_000u64 {
            assert!(w.pop_due(now % 100).is_empty());
        }
        measured = allocs() - before;
        if measured == 0 {
            break;
        }
    }
    assert_eq!(measured, 0, "1000 not-due pops allocated {measured} times");
    assert_eq!(w.len(), 4, "a not-due pop removes nothing");

    // Due entries still come out earliest first, equal deadlines in
    // schedule order, and the advisory count stays exact.
    assert_eq!(w.pop_due(200), vec!["a", "b", "b2"]);
    assert_eq!(w.len(), 1);
    assert!(w.pop_due(299).is_empty());
    assert_eq!(w.pop_due(300), vec!["c"]);
    assert!(w.is_empty());

    // An empty wheel is the other free answer.
    let before = allocs();
    assert!(w.pop_due(u64::MAX).is_empty());
    assert_eq!(allocs() - before, 0);
}
