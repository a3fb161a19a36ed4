//! # nm-trace — low-overhead tracing & metrics for the nomad stack
//!
//! The paper's in-text constants (70 ns lock cycle, ~200 ns PIOMan
//! pass, 750 ns context switch, 400 ns–3.1 µs offload placement) were
//! obtained by instrumenting the stack, not by end-to-end timing. This
//! crate is that instrument: an FxT-style tracer writing fixed-size
//! records lock-free into per-thread ring buffers.
//!
//! ## Usage
//!
//! Layers emit through the [`trace_event!`] macro with a registered
//! [`EventId`]; the events are kept only while a [`Recording`] is live:
//!
//! ```
//! nm_trace::trace_event!(ProgressPass, 1); // not recording: dropped
//! let rec = nm_trace::record();
//! nm_trace::trace_event!(LockAcquire, 0xdead_beef_u64, 1);
//! nm_trace::trace_event!(ProgressPass, 3);
//! let trace = rec.finish();
//! assert_eq!(trace.count(nm_trace::EventId::ProgressPass), 1);
//! ```
//!
//! [`TraceReport`] digests a [`Trace`] into per-mechanism histograms and
//! flamegraph-folded text. `figures table1 --from-trace` derives the
//! paper's Table 1 constants from these events.
//!
//! ## Recording
//!
//! One build serves traced and untraced runs. With no recording live,
//! a `trace_event!` is one relaxed load and a not-taken branch: its
//! arguments are not evaluated, no clock is read, no ring is allocated,
//! and [`next_span_id`] returns 0, so frames carry no span word.
//! [`record`] turns every trace point in the process on;
//! [`Recording::finish`] turns them off and drains the rings.
//!
//! ## Timestamps
//!
//! Real runs use a monotonic clock; sim runs install the fabric's
//! manual virtual clock ([`install_virtual_clock`]) so traces are
//! bit-deterministic across hosts.

#![warn(missing_docs)]

mod clock;
mod events;
mod report;
mod ring;
mod span;

pub use clock::{install_real_clock, install_virtual_clock, now_ns};
pub use events::{EventId, EventInfo};
pub use report::{SpanStats, TraceReport};
pub use ring::{
    emit, enabled, record, set_ring_capacity, snapshot_trace, take_trace, Recording, ThreadTrace,
    Trace, TraceEvent,
};
pub use span::next_span_id;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests of this binary that start a recording or
    /// assert that none is live: the switch is process-wide.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn emit_reaches_this_threads_ring() {
        let _serial = serial();
        let me = std::thread::current().name().unwrap_or("?").to_string();
        let rec = record();
        trace_event!(PacketTx, 123, 4);
        trace_event!(PacketRx, 5);
        assert!(enabled());
        let trace = rec.finish();
        let mine = trace
            .threads
            .iter()
            .find(|t| t.name == me)
            .expect("ring registered");
        let tx: Vec<_> = mine
            .events
            .iter()
            .filter(|e| e.id == EventId::PacketTx && e.a == 123)
            .collect();
        assert_eq!(tx.len(), 1);
        assert_eq!(tx[0].b, 4);
    }
}

#[cfg(test)]
mod notrace_tests {
    use super::*;

    #[test]
    fn disabled_form_records_nothing() {
        let _serial = tests::serial();
        assert!(!enabled());
        trace_event!(PacketTx, 1, 2);
        assert!(take_trace().is_empty());
    }
}
