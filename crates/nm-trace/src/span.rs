//! Message span ids: the causal key tying one message's events
//! together across threads, rails, and retransmissions.
//!
//! A span id is allocated once per `isend_with`/`irecv_with` (via
//! [`next_span_id`]), stored on the request, threaded through the
//! collect shards and transfer layer, and carried in the reliability
//! wire header so receive-side and retransmit events on the *other*
//! rank join the same span. The `Span*` events in [`crate::EventId`]
//! all carry the span id in `a`; `nm-obs` stitches them into
//! per-message timelines offline.
//!
//! Span id `0` is reserved and means "no span": control-only frames
//! (pure acks), requests created while no recording is live, and
//! pre-span trace data all use 0, and every emission site skips the
//! event when the span is 0. Off a recording, [`next_span_id`] is the
//! same single load as a trace point, so the request field, struct
//! plumbing, and wire flag stay dormant.

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// A fresh nonzero span id while a recording is live (one relaxed
/// `fetch_add`), 0 ("no span") otherwise.
#[inline]
pub fn next_span_id() -> u64 {
    if !crate::enabled() {
        return 0;
    }
    // relaxed: a unique-id counter; only uniqueness matters, nothing
    // is ordered against the increment.
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ids_are_nonzero_and_distinct() {
        let _serial = crate::tests::serial();
        let rec = crate::record();
        let a = next_span_id();
        let b = next_span_id();
        rec.finish();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }
}

#[cfg(test)]
mod notrace_tests {
    use super::*;

    #[test]
    fn disabled_form_is_zero() {
        let _serial = crate::tests::serial();
        assert_eq!(next_span_id(), 0);
        assert_eq!(next_span_id(), 0);
    }
}
