//! The span assembler: ring events → per-message timelines →
//! critical-path latency attribution.
//!
//! The `Span*` events all carry the message's span id in `a` (the
//! receive side emits `SpanWireRx`/`SpanDeliver` with the *sender's*
//! span id read from the frame header, which is what joins the two
//! ranks' rings into one timeline). [`assemble`] groups a drained
//! [`Trace`] by span id; [`Breakdown::of`] reduces one timeline to the
//! paper-style decomposition. Milestones are clamped to be
//! monotonically non-decreasing, so the five components always sum
//! *exactly* to the end-to-end total — attribution never invents or
//! loses a nanosecond to rounding.

use std::collections::BTreeMap;

use crate::trace::{EventId, Trace};

/// One span-tagged event in a message's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Timestamp (the clock domain of the emitting rank's recording).
    pub ts: u64,
    /// Which lifecycle step ([`EventId::SpanSubmit`]..=[`EventId::SpanWake`]).
    pub id: EventId,
    /// The event's `b` argument (gate, depth, wire seq, path — per the
    /// schema docs).
    pub arg: u64,
}

/// All events of one message, across threads, rails and retransmits.
#[derive(Debug, Clone, Default)]
pub struct SpanTimeline {
    /// The span id allocated at submit time.
    pub span: u64,
    /// The peer span this one joined via `SpanDeliver` (a send span's
    /// matched receive span, and vice versa).
    pub peer: Option<u64>,
    /// Events in timestamp order (ties keep ring order).
    pub events: Vec<SpanEvent>,
}

impl SpanTimeline {
    /// Timestamp of the first occurrence of `id`, if any.
    pub fn first(&self, id: EventId) -> Option<u64> {
        self.events.iter().find(|e| e.id == id).map(|e| e.ts)
    }

    /// Timestamp of the last occurrence of `id`, if any.
    pub fn last(&self, id: EventId) -> Option<u64> {
        self.events.iter().rev().find(|e| e.id == id).map(|e| e.ts)
    }

    /// Number of occurrences of `id`.
    pub fn count(&self, id: EventId) -> u64 {
        self.events.iter().filter(|e| e.id == id).count() as u64
    }

    /// Renders the timeline as a JSON object (flight-recorder format).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"span\": {}, \"peer\": ", self.span);
        match self.peer {
            Some(p) => out.push_str(&p.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(", \"events\": [");
        let items: Vec<String> = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{{\"ts\": {}, \"event\": \"{}\", \"arg\": {}}}",
                    e.ts,
                    e.id.name(),
                    e.arg
                )
            })
            .collect();
        out.push_str(&items.join(", "));
        out.push_str("]}");
        out
    }
}

/// Is `id` one of the span-lifecycle events this crate assembles?
fn is_span_event(id: EventId) -> bool {
    matches!(
        id,
        EventId::SpanSubmit
            | EventId::SpanCollect
            | EventId::SpanWireTx
            | EventId::SpanWireRx
            | EventId::SpanRetx
            | EventId::SpanDeliver
            | EventId::SpanComplete
            | EventId::SpanWake
    )
}

/// Groups a drained trace's `Span*` events into per-message timelines,
/// sorted by span id.
///
/// `SpanDeliver` carries two spans (`a` = sender, `b` = local receive);
/// it is recorded on **both** timelines and sets their `peer` links.
/// Events with span 0 ("no span") are ignored.
pub fn assemble(trace: &Trace) -> Vec<SpanTimeline> {
    fn entry(map: &mut BTreeMap<u64, SpanTimeline>, span: u64) -> &mut SpanTimeline {
        map.entry(span).or_insert_with(|| SpanTimeline {
            span,
            ..SpanTimeline::default()
        })
    }
    let mut map: BTreeMap<u64, SpanTimeline> = BTreeMap::new();
    for e in trace.merged() {
        if !is_span_event(e.id) || e.a == 0 {
            continue;
        }
        let ev = SpanEvent {
            ts: e.ts,
            id: e.id,
            arg: e.b,
        };
        entry(&mut map, e.a).events.push(ev);
        if e.id == EventId::SpanDeliver && e.b != 0 && e.b != e.a {
            // Join: record the delivery on the receive span too and
            // link the pair.
            let recv = entry(&mut map, e.b);
            recv.events.push(SpanEvent {
                ts: e.ts,
                id: e.id,
                arg: e.a,
            });
            recv.peer = Some(e.a);
            entry(&mut map, e.a).peer = Some(e.b);
        }
    }
    map.into_values().collect()
}

/// Critical-path decomposition of one message, in nanoseconds.
///
/// Components are consecutive differences of clamped milestones, so
/// `submit + collect + retransmit + wire + delivery == total` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Submit → first collect-queue entry: API entry, lock waits,
    /// eager copy.
    pub submit_ns: u64,
    /// Collect entry → first wire injection: time queued in the
    /// collect layer waiting for the transfer layer.
    pub collect_ns: u64,
    /// First injection → last (re)injection: zero unless the
    /// reliability layer retransmitted.
    pub retransmit_ns: u64,
    /// Last injection → receive-side arrival: on-wire (plus receiver
    /// poll latency).
    pub wire_ns: u64,
    /// Arrival → final completion delivery (match, copy, flag/queue/
    /// handler/waker hand-off).
    pub delivery_ns: u64,
    /// End-to-end: submit → final completion. Always the exact sum of
    /// the five components.
    pub total_ns: u64,
}

impl Breakdown {
    /// The component names and values, in timeline order.
    pub fn components(&self) -> [(&'static str, u64); 5] {
        [
            ("submit", self.submit_ns),
            ("collect", self.collect_ns),
            ("retransmit", self.retransmit_ns),
            ("wire", self.wire_ns),
            ("delivery", self.delivery_ns),
        ]
    }

    /// Decomposes one (send-origin) timeline. `peer`, when the
    /// timeline joined a receive span, supplies the final completion
    /// timestamp (the receiver's delivery is the true end of the
    /// message).
    ///
    /// Returns `None` without a `SpanSubmit` or any completion-ish
    /// event to bound the span.
    pub fn of(tl: &SpanTimeline, peer: Option<&SpanTimeline>) -> Option<Breakdown> {
        let submit = tl.first(EventId::SpanSubmit)?;
        let end = peer
            .and_then(|p| p.last(EventId::SpanComplete))
            .or_else(|| tl.last(EventId::SpanComplete))
            .or_else(|| tl.last(EventId::SpanDeliver))?;
        // Clamp each milestone to never run backwards (a missing stage
        // inherits its predecessor and contributes 0), so components
        // are non-negative and telescope to `end - submit`.
        let m0 = submit;
        let m1 = tl.first(EventId::SpanCollect).unwrap_or(m0).max(m0);
        let m2 = tl.first(EventId::SpanWireTx).unwrap_or(m1).max(m1);
        let m3 = tl
            .last(EventId::SpanRetx)
            .into_iter()
            .chain(tl.last(EventId::SpanWireTx))
            .max()
            .unwrap_or(m2)
            .max(m2);
        let m4 = tl
            .first(EventId::SpanWireRx)
            .unwrap_or(m3)
            .clamp(m3, end.max(m3));
        let m5 = end.max(m4);
        Some(Breakdown {
            submit_ns: m1 - m0,
            collect_ns: m2 - m1,
            retransmit_ns: m3 - m2,
            wire_ns: m4 - m3,
            delivery_ns: m5 - m4,
            total_ns: m5 - m0,
        })
    }

    /// Decomposes every timeline of `timelines` that looks like a send
    /// origin (has both a `SpanSubmit` and a `SpanWireTx`), resolving
    /// `peer` links. Returns `(span, breakdown)` pairs in span order.
    pub fn all(timelines: &[SpanTimeline]) -> Vec<(u64, Breakdown)> {
        let by_span: BTreeMap<u64, &SpanTimeline> = timelines.iter().map(|t| (t.span, t)).collect();
        timelines
            .iter()
            .filter(|t| {
                t.first(EventId::SpanSubmit).is_some() && t.first(EventId::SpanWireTx).is_some()
            })
            .filter_map(|t| {
                let peer = t.peer.and_then(|p| by_span.get(&p).copied());
                Breakdown::of(t, peer).map(|b| (t.span, b))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ThreadTrace, TraceEvent};

    fn trace_of(events: Vec<TraceEvent>) -> Trace {
        Trace {
            threads: vec![ThreadTrace {
                thread: 0,
                name: "t".into(),
                dropped: 0,
                events,
            }],
        }
    }

    fn ev(ts: u64, id: EventId, a: u64, b: u64) -> TraceEvent {
        TraceEvent { ts, id, a, b }
    }

    #[test]
    fn assemble_groups_by_span_and_ignores_zero() {
        let t = trace_of(vec![
            ev(10, EventId::SpanSubmit, 1, 0),
            ev(11, EventId::SpanSubmit, 2, 0),
            ev(12, EventId::SpanWireTx, 1, 5),
            ev(13, EventId::SpanCollect, 0, 9), // span 0: dropped
            ev(14, EventId::LockAcquire, 1, 0), // not a span event
        ]);
        let tls = assemble(&t);
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[0].span, 1);
        assert_eq!(tls[0].events.len(), 2);
        assert_eq!(tls[1].span, 2);
        assert_eq!(tls[1].events.len(), 1);
    }

    #[test]
    fn deliver_joins_both_spans() {
        let t = trace_of(vec![
            ev(10, EventId::SpanSubmit, 1, 0),
            ev(20, EventId::SpanDeliver, 1, 7),
        ]);
        let tls = assemble(&t);
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[0].peer, Some(7));
        assert_eq!(tls[1].span, 7);
        assert_eq!(tls[1].peer, Some(1));
        assert_eq!(tls[1].count(EventId::SpanDeliver), 1);
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let t = trace_of(vec![
            ev(100, EventId::SpanSubmit, 1, 0),
            ev(130, EventId::SpanCollect, 1, 1),
            ev(200, EventId::SpanWireTx, 1, 0),
            ev(900, EventId::SpanRetx, 1, 0),
            ev(1500, EventId::SpanWireRx, 1, 0),
            ev(1600, EventId::SpanDeliver, 1, 9),
            ev(1650, EventId::SpanComplete, 9, 0),
            ev(1700, EventId::SpanComplete, 1, 0),
        ]);
        let tls = assemble(&t);
        let all = Breakdown::all(&tls);
        assert_eq!(all.len(), 1);
        let (span, b) = all[0];
        assert_eq!(span, 1);
        assert_eq!(b.submit_ns, 30);
        assert_eq!(b.collect_ns, 70);
        assert_eq!(b.retransmit_ns, 700);
        assert_eq!(b.wire_ns, 600);
        // Peer (recv span 9) completes at 1650: that is the message end.
        assert_eq!(b.delivery_ns, 150);
        assert_eq!(b.total_ns, 1550);
        let sum: u64 = b.components().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, b.total_ns);
    }

    #[test]
    fn missing_stages_contribute_zero() {
        // Eager self-completing send with no rx visibility: only
        // submit / collect / tx / complete.
        let t = trace_of(vec![
            ev(5, EventId::SpanSubmit, 3, 0),
            ev(9, EventId::SpanCollect, 3, 1),
            ev(20, EventId::SpanWireTx, 3, 0),
            ev(21, EventId::SpanComplete, 3, 0),
        ]);
        let tls = assemble(&t);
        let b = Breakdown::of(&tls[0], None).unwrap();
        assert_eq!(b.retransmit_ns, 0);
        assert_eq!(b.wire_ns, 0);
        assert_eq!(b.total_ns, 16);
        let sum: u64 = b.components().iter().map(|(_, v)| v).sum();
        assert_eq!(sum, b.total_ns);
    }

    #[test]
    fn timeline_json_shape() {
        let t = trace_of(vec![
            ev(1, EventId::SpanSubmit, 4, 2),
            ev(2, EventId::SpanWireTx, 4, 8),
        ]);
        let tls = assemble(&t);
        let json = tls[0].to_json();
        assert!(json.contains("\"span\": 4"));
        assert!(json.contains("\"event\": \"SpanSubmit\""));
        assert!(json.contains("\"event\": \"SpanWireTx\""));
        assert!(json.contains("\"arg\": 8"));
        assert!(json.contains("\"peer\": null"));
    }
}
