//! The process's one real-time anchor.
//!
//! Every real-clock reading in the stack is nanoseconds since this
//! instant: `nm_fabric::ClockSource::real()` takes its base from here,
//! and a [`crate::trace::record`] recording stamps its events with it,
//! so a trace timestamp and a fabric deadline compare directly. A
//! recording on virtual time ([`crate::trace::record_virtual`]) stamps
//! with the fabric's manual counter instead.

use std::sync::OnceLock;
use std::time::Instant;

/// The real-time anchor, taken on first use and shared by the whole
/// process.
pub fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

#[cfg(test)]
mod tests {
    use crate::trace::{self, EventId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A recording on virtual time stamps each event with the counter's
    /// value at emission.
    #[test]
    fn virtual_clock_tracks_counter() {
        let _serial = crate::tests::serial();
        let me = std::thread::current().name().unwrap_or("?").to_string();
        let ns = Arc::new(AtomicU64::new(41));
        let rec = trace::record_virtual(Arc::clone(&ns));
        trace::emit(EventId::PacketTx, 1, 0);
        ns.store(1000, Ordering::Relaxed);
        trace::emit(EventId::PacketTx, 2, 0);
        let trace = rec.finish();
        let mine = trace.threads.iter().find(|t| t.name == me).unwrap();
        let stamps: Vec<u64> = mine.events.iter().map(|e| e.ts).collect();
        assert_eq!(stamps, [41, 1000]);
    }
}
