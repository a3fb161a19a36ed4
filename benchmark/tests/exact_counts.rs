//! The two counting helpers count exactly.
//!
//! One test function on purpose: the counters are process-wide, and a
//! second test running beside this one would allocate and lock too.

use std::hint::black_box;

use nm_sync::SpinLock;
use nomad_benchmark::alloc_count;
use nomad_benchmark::registry::{RegistrySnapshot, LOCK_ACQUISITIONS, LOCK_CONTENDED};

#[test]
fn allocator_and_registry_deltas_are_exact() {
    // Off: nothing is counted.
    let before = alloc_count::snapshot();
    black_box(Vec::<u8>::with_capacity(64));
    assert_eq!(alloc_count::snapshot(), before);

    // On: one allocation of one byte is one allocation of one byte.
    alloc_count::set_enabled(true);
    let before = alloc_count::snapshot();
    let v = black_box(Vec::<u8>::with_capacity(1));
    let one = alloc_count::snapshot().since(before);
    assert_eq!((one.allocs, one.bytes), (1, 1));
    drop(v);
    assert_eq!(
        alloc_count::snapshot().since(before).allocs,
        1,
        "freeing is not allocating"
    );

    // A grow counts as one more trip to the allocator, for the new size.
    let mut v = black_box(Vec::<u8>::with_capacity(8));
    let before = alloc_count::snapshot();
    v.reserve_exact(100);
    let grown = alloc_count::snapshot().since(before);
    assert_eq!((grown.allocs, grown.bytes), (1, 100));
    alloc_count::set_enabled(false);

    // A known number of uncontended lock cycles is that many
    // acquisitions in the registry, and no contended one.
    let lock = SpinLock::new(0u64);
    *lock.lock() += 1; // registers the counters
    let before = RegistrySnapshot::take();
    for _ in 0..1234 {
        *black_box(&lock).lock() += 1;
    }
    let after = RegistrySnapshot::take();
    assert_eq!(after.delta(&before, LOCK_ACQUISITIONS), Some(1234));
    assert_eq!(after.delta(&before, LOCK_CONTENDED), Some(0));
    assert_eq!(*lock.lock(), 1235);

    // A name the registry does not have reads as absent, not as zero.
    assert_eq!(after.delta(&before, "no.such.counter"), None);
}
