//! The failure flight recorder.
//!
//! When a request fails with `Timeout`/`PeerUnreachable` or a rail is
//! declared dead, the core calls [`record_failure`]. The recorder
//! snapshots (without draining) every thread's trace ring, assembles
//! the most recent span timelines, takes a full metrics snapshot, and
//! renders one JSON dump — a bounded black box of what the stack was
//! doing when it failed. The latest dump is kept in a process-global
//! slot ([`last_dump`]/[`take_last_dump`]); set `NOMAD_FLIGHT_DIR` to
//! also persist each dump as `flight-<n>.json` (capped at
//! [`MAX_DUMP_FILES`] files so a retry storm cannot fill a disk).
//!
//! The recorder is always on: it costs nothing until a failure happens
//! (no locks, no allocation on the fast path), and with no recording
//! live the dump still carries the metrics snapshot — the span section
//! is just empty.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::spans::{assemble, Breakdown, SpanTimeline};

/// Most recent span timelines kept in a dump (newest by last event).
pub const MAX_TIMELINES: usize = 64;
/// Most `flight-<n>.json` files ever written per process.
pub const MAX_DUMP_FILES: u64 = 16;

/// Latest dump (JSON). A plain std mutex: only touched on the failure
/// path, far from any communication lock.
static LAST: Mutex<Option<String>> = Mutex::new(None);
/// Dump sequence number (names the `NOMAD_FLIGHT_DIR` files).
static SEQ: AtomicU64 = AtomicU64::new(0);

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn breakdown_json(b: &Breakdown) -> String {
    let comps: Vec<String> = b
        .components()
        .iter()
        .map(|(name, v)| format!("\"{name}_ns\": {v}"))
        .collect();
    format!("{{{}, \"total_ns\": {}}}", comps.join(", "), b.total_ns)
}

fn timeline_json(tl: &SpanTimeline, peer: Option<&SpanTimeline>) -> String {
    let base = tl.to_json();
    let bd = Breakdown::of(tl, peer)
        .map(|b| breakdown_json(&b))
        .unwrap_or_else(|| "null".to_string());
    // Splice the breakdown into the timeline object.
    format!("{}, \"breakdown\": {}}}", &base[..base.len() - 1], bd)
}

/// Renders a flight dump from the given timelines (most recent
/// [`MAX_TIMELINES`] kept) plus a fresh metrics snapshot.
fn render_dump(
    reason: &str,
    request_id: u64,
    span: u64,
    mut timelines: Vec<SpanTimeline>,
) -> String {
    // Keep the newest timelines: sort by each timeline's last event
    // timestamp, truncate, then restore span order for determinism.
    timelines.sort_by_key(|t| t.events.last().map(|e| e.ts).unwrap_or(0));
    if timelines.len() > MAX_TIMELINES {
        let cut = timelines.len() - MAX_TIMELINES;
        timelines.drain(..cut);
    }
    timelines.sort_by_key(|t| t.span);
    let by_span: std::collections::BTreeMap<u64, SpanTimeline> =
        timelines.iter().map(|t| (t.span, t.clone())).collect();
    let items: Vec<String> = timelines
        .iter()
        .map(|t| timeline_json(t, t.peer.and_then(|p| by_span.get(&p))))
        .collect();
    let metrics = nm_metrics::export::to_json(&nm_metrics::metrics().snapshot());
    format!(
        "{{\n\"reason\": {},\n\"request_id\": {},\n\"span\": {},\n\"timelines\": [\n{}\n],\n\"metrics\": {}}}\n",
        json_str(reason),
        request_id,
        span,
        items.join(",\n"),
        metrics
    )
}

/// Records a failure dump: snapshot the rings, assemble recent span
/// timelines, attach a metrics snapshot, store (and optionally write)
/// the JSON.
///
/// `request_id`/`span` identify the failing request when the trigger
/// was a request-level error (0/0 for rail-level triggers).
pub fn record_failure(reason: &str, request_id: u64, span: u64) {
    let trace = nm_trace::snapshot_trace();
    let timelines = assemble(&trace);
    let dump = render_dump(reason, request_id, span, timelines);
    if let Ok(dir) = std::env::var("NOMAD_FLIGHT_DIR") {
        if !dir.is_empty() {
            // relaxed: a file-name sequence counter; only uniqueness
            // matters, nothing is ordered against the increment.
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            if n < MAX_DUMP_FILES {
                let path = std::path::Path::new(&dir).join(format!("flight-{n}.json"));
                // Best-effort: a failed write must not mask the
                // communication error being recorded.
                let _ = std::fs::write(path, &dump);
            }
        }
    }
    *LAST.lock().unwrap_or_else(|e| e.into_inner()) = Some(dump);
}

/// The most recent flight dump, if any failure was recorded.
pub fn last_dump() -> Option<String> {
    LAST.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Takes (and clears) the most recent flight dump.
pub fn take_last_dump() -> Option<String> {
    LAST.lock().unwrap_or_else(|e| e.into_inner()).take()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SpanEvent;
    use nm_trace::EventId;

    fn tl(span: u64, events: Vec<(u64, EventId, u64)>) -> SpanTimeline {
        SpanTimeline {
            span,
            peer: None,
            events: events
                .into_iter()
                .map(|(ts, id, arg)| SpanEvent { ts, id, arg })
                .collect(),
        }
    }

    #[test]
    fn dump_contains_reason_timelines_and_metrics() {
        let dump = render_dump(
            "timeout",
            42,
            7,
            vec![tl(
                7,
                vec![(1, EventId::SpanSubmit, 0), (9, EventId::SpanComplete, 0)],
            )],
        );
        assert!(dump.contains("\"reason\": \"timeout\""));
        assert!(dump.contains("\"request_id\": 42"));
        assert!(dump.contains("\"span\": 7"));
        assert!(dump.contains("\"event\": \"SpanSubmit\""));
        assert!(dump.contains("\"breakdown\": {\"submit_ns\""));
        assert!(dump.contains("\"counters\""), "metrics snapshot attached");
    }

    #[test]
    fn dump_is_bounded() {
        let many: Vec<SpanTimeline> = (1..=(MAX_TIMELINES as u64 + 40))
            .map(|s| tl(s, vec![(s, EventId::SpanSubmit, 0)]))
            .collect();
        let dump = render_dump("rail-dead", 0, 0, many);
        // The oldest 40 spans (lowest timestamps) must have been cut.
        assert!(!dump.contains("\"span\": 1,"));
        assert!(!dump.contains("\"span\": 40,"));
        assert!(dump.contains("\"span\": 41,"));
        assert!(dump.contains(&format!("\"span\": {},", MAX_TIMELINES + 40)));
    }

    #[test]
    fn record_and_take_round_trip() {
        record_failure("unit-test", 1, 0);
        let dump = last_dump().expect("dump stored");
        assert!(dump.contains("\"reason\": \"unit-test\""));
        assert!(take_last_dump().is_some());
        // Taken: the slot may have been refilled by a concurrent test,
        // but taking twice in isolation clears it; just exercise the
        // call.
        let _ = take_last_dump();
    }
}
