//! Event tracing: fixed-size records in lock-free per-thread rings.
//!
//! The paper's in-text constants (70 ns lock cycle, ~200 ns PIOMan
//! pass, 750 ns context switch, 400 ns–3.1 µs offload placement) were
//! obtained by instrumenting the stack, not by end-to-end timing. This
//! module is that instrument: an FxT-style tracer writing fixed-size
//! records lock-free into per-thread ring buffers.
//!
//! ## Usage
//!
//! Layers emit through the [`trace_event!`](crate::trace_event) macro
//! with a registered [`EventId`]; the events are kept only while a
//! [`Recording`] is live:
//!
//! ```
//! use nm_metrics::trace::{self, EventId};
//! nm_metrics::trace_event!(ProgressPass, 1); // not recording: dropped
//! let rec = trace::record();
//! nm_metrics::trace_event!(LockAcquire, 0xdead_beef_u64, 1);
//! nm_metrics::trace_event!(ProgressPass, 3);
//! let trace = rec.finish();
//! assert_eq!(trace.count(EventId::ProgressPass), 1);
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
//! [`record`] stamps events in nanoseconds since the process's real-time
//! anchor ([`crate::clock::anchor`]), the base of
//! `nm_fabric::ClockSource::real()`. A simulated run records with
//! [`record_virtual`], passing its manual clock's counter, so the trace
//! shares the fabric's virtual time and is bit-identical across hosts.

pub use crate::events::EventId;
pub use crate::report::{SpanStats, TraceReport};
pub use crate::ring::{
    emit, enabled, record, record_virtual, set_ring_capacity, snapshot_trace, take_trace,
    Recording, ThreadTrace, Trace, TraceEvent,
};
pub use crate::span::next_span_id;
