//! # nm-obs — per-message causal observability
//!
//! `nm-trace` answers "what did each *mechanism* cost in aggregate";
//! this crate answers "where did *this message's* microseconds go".
//! Every `isend_with`/`irecv_with` allocates a span id
//! ([`nm_trace::next_span_id`]) that the core threads through the
//! request, the collect shards, the transfer layer, the reliability
//! wire header, and the async waker path, emitting `Span*` events along
//! the way. This crate assembles those events offline:
//!
//! * [`spans`] — groups the `Span*` events of a drained
//!   [`nm_trace::Trace`] into per-message [`spans::SpanTimeline`]s and
//!   computes a [`spans::Breakdown`]: a critical-path decomposition
//!   (collect-entry vs. queued-in-collect vs. retransmit vs. on-wire
//!   vs. completion-delivery) whose components sum exactly to the
//!   end-to-end latency.
//! * [`flight`] — an always-on flight recorder: when a request fails
//!   with `Timeout`/`PeerUnreachable` or a rail is declared dead, a
//!   bounded JSON snapshot of the most recent span timelines plus a
//!   full metrics snapshot is captured, so chaos-run failures are
//!   self-diagnosing. See `docs/OBSERVABILITY.md`.
//!
//! Everything here is read-side: the crate takes no locks on the
//! communication fast path and works (metrics-only) when no
//! `nm_trace::record()` recording is live.

#![warn(missing_docs)]

pub mod flight;
pub mod spans;

pub use flight::{last_dump, record_failure, take_last_dump};
pub use spans::{assemble, Breakdown, SpanEvent, SpanTimeline};
