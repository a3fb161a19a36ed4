//! Counting global allocator.
//!
//! `core.allocs_per_msg` and `core.alloc_bytes_per_payload_byte` are
//! deltas of these counters over a timed region. Counting is off unless
//! a traced run turns it on, so untraced (end-to-end) runs pay one
//! relaxed load per allocation and nothing else. Counts are kept in
//! cache-line-padded shards, one per thread up to [`SHARDS`], so two
//! allocating threads do not bounce a line between the CPUs — the
//! progression thread of `bg_pingpong` is spawned by the library and
//! could not hand back a thread-local count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

const SHARDS: usize = 8;

#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-repeat initialiser
const EMPTY: Shard = Shard {
    allocs: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};
static COUNTS: [Shard; SHARDS] = [EMPTY; SHARDS];
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or registers a dtor.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The allocator installed by this crate: `System` plus counters.
pub struct CountingAlloc;

#[inline]
fn record(size: usize) {
    // relaxed: statistics only, nothing is published through them.
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let shard = MY_SHARD.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
        }
        s.get()
    });
    COUNTS[shard].allocs.fetch_add(1, Ordering::Relaxed);
    COUNTS[shard]
        .bytes
        .fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow is one more trip to the allocator for `new_size` bytes.
        record(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested since counting was enabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Turns counting on or off (traced runs only).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Sum over all shards.
pub fn snapshot() -> AllocSnapshot {
    COUNTS
        .iter()
        .fold(AllocSnapshot::default(), |acc, s| AllocSnapshot {
            allocs: acc.allocs + s.allocs.load(Ordering::Relaxed),
            bytes: acc.bytes + s.bytes.load(Ordering::Relaxed),
        })
}
