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
//! [`EventId`]:
//!
//! ```
//! nm_trace::trace_event!(LockAcquire, 0xdead_beef_u64, 1);
//! nm_trace::trace_event!(ProgressPass, 3);
//! ```
//!
//! After the run, [`take_trace`] drains every thread's ring and
//! [`TraceReport`] digests it into per-mechanism histograms and
//! flamegraph-folded text. `figures table1 --from-trace` derives the
//! paper's Table 1 constants from these events.
//!
//! ## Feature gating
//!
//! Everything is behind this crate's `trace` cargo feature. When it is
//! disabled (the default), [`emit`] is an empty `#[inline(always)]`
//! function: every `trace_event!` site in the stack compiles to
//! nothing, no ring is ever allocated, and [`take_trace`] returns an
//! empty [`Trace`]. Downstream crates re-expose the flag as their own
//! `trace` feature (pure forwarding — call sites carry no `cfg`).
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
    emit, enabled, reset, set_ring_capacity, snapshot_trace, take_trace, ThreadTrace, Trace,
    TraceEvent,
};
pub use span::next_span_id;

#[cfg(all(test, feature = "trace"))]
mod trace_tests {
    use super::*;

    #[test]
    fn emit_reaches_this_threads_ring() {
        // Test threads are named after the test; filter to our own ring
        // so concurrent tests in this binary don't interfere.
        let me = std::thread::current().name().unwrap_or("?").to_string();
        trace_event!(PacketTx, 123, 4);
        trace_event!(PacketRx, 5);
        let trace = snapshot_trace();
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

    #[test]
    fn enabled_reports_feature() {
        assert!(enabled());
    }
}

#[cfg(all(test, not(feature = "trace")))]
mod notrace_tests {
    use super::*;

    #[test]
    fn disabled_form_records_nothing() {
        assert!(!enabled());
        trace_event!(PacketTx, 1, 2);
        assert!(take_trace().is_empty());
    }
}
