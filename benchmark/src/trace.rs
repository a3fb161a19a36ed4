//! Spans recorded from the benchmark's own files, around its calls into
//! the library.
//!
//! The timed loops are generic over [`Probe`]. Untraced runs use
//! [`NoTrace`], whose methods compile to the bare call, so end-to-end
//! numbers carry no tracing cost. Traced runs use [`Recorder`]: one
//! root span per timed unit (a round trip, a round, a message) and one
//! child span per library call inside it, pushed into a buffer that is
//! allocated and touched before the timed region and written out when
//! the run ends. A layer's self time is its span minus its children;
//! the root's self time is the harness's own work (loop control, clock
//! reads, request bookkeeping).

use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::{quantile_sorted, Percentiles};

/// Nanoseconds on the process-wide monotonic clock (`std::time::Instant`).
#[inline]
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span wraps. `ProgressA`/`ProgressB` are `progress()` on the
/// sending and the receiving core of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SpanKind {
    Unit,
    Irecv,
    Isend,
    ProgressA,
    ProgressB,
    TakeData,
    WaitFlag,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Unit => "unit",
            SpanKind::Irecv => "irecv",
            SpanKind::Isend => "isend",
            SpanKind::ProgressA => "progress(a)",
            SpanKind::ProgressB => "progress(b)",
            SpanKind::TakeData => "take_data",
            SpanKind::WaitFlag => "wait_flag",
        }
    }

    fn is_progress(self) -> bool {
        matches!(self, SpanKind::ProgressA | SpanKind::ProgressB)
    }
}

/// One recorded span. `unit` is the identifier every span of one timed
/// unit shares; `parent` is the index of the span that caused this one.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub unit: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Wire events a `progress` call reported (0 = idle pass).
    pub events: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

/// The hooks a timed loop calls. See the module docs.
pub trait Probe: Send + Sized {
    const ON: bool;
    fn with_capacity(spans: usize) -> Self;
    /// Opens the root span of the next unit.
    fn begin_unit(&mut self);
    /// Closes it with the harness's own timestamps.
    fn end_unit(&mut self, start_ns: u64, end_ns: u64);
    /// Wraps one library call.
    fn call<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R;
    /// Wraps one `progress` call and keeps its event count.
    fn progress(&mut self, kind: SpanKind, f: impl FnOnce() -> usize) -> usize;
    /// Notes a receive the harness just posted. One that is complete
    /// when `irecv` returns matched a message that had arrived first,
    /// i.e. took the unexpected-message path.
    fn posted_recv(&mut self, complete_at_post: bool);
    fn into_recorder(self) -> Option<Recorder>;
}

/// The untraced probe: every hook is the bare call.
pub struct NoTrace;

impl Probe for NoTrace {
    const ON: bool = false;
    fn with_capacity(_: usize) -> Self {
        NoTrace
    }
    #[inline(always)]
    fn begin_unit(&mut self) {}
    #[inline(always)]
    fn end_unit(&mut self, _: u64, _: u64) {}
    #[inline(always)]
    fn call<R>(&mut self, _: SpanKind, f: impl FnOnce() -> R) -> R {
        f()
    }
    #[inline(always)]
    fn progress(&mut self, _: SpanKind, f: impl FnOnce() -> usize) -> usize {
        f()
    }
    #[inline(always)]
    fn posted_recv(&mut self, _: bool) {}
    fn into_recorder(self) -> Option<Recorder> {
        None
    }
}

/// The traced probe: a pre-allocated span buffer.
pub struct Recorder {
    spans: Vec<Span>,
    root: u32,
    unit: u32,
    /// Spans not recorded because the buffer was full.
    pub dropped: u64,
    pub recvs_posted: u64,
    pub recvs_unexpected: u64,
}

impl Recorder {
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[inline]
    fn push(&mut self, span: Span) {
        if self.spans.len() < self.spans.capacity() {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

impl Probe for Recorder {
    const ON: bool = true;

    fn with_capacity(spans: usize) -> Self {
        let filler = Span {
            kind: SpanKind::Unit,
            unit: 0,
            parent: NO_PARENT,
            start_ns: 0,
            end_ns: 0,
            events: 0,
        };
        // Fill once so every page is mapped before the timed region.
        let mut buf = vec![filler; spans];
        buf.clear();
        Recorder {
            spans: buf,
            root: NO_PARENT,
            unit: 0,
            dropped: 0,
            recvs_posted: 0,
            recvs_unexpected: 0,
        }
    }

    #[inline]
    fn begin_unit(&mut self) {
        self.root = if self.spans.len() < self.spans.capacity() {
            self.spans.len() as u32
        } else {
            NO_PARENT
        };
        self.push(Span {
            kind: SpanKind::Unit,
            unit: self.unit,
            parent: NO_PARENT,
            start_ns: 0,
            end_ns: 0,
            events: 0,
        });
    }

    #[inline]
    fn end_unit(&mut self, start_ns: u64, end_ns: u64) {
        if let Some(root) = self.spans.get_mut(self.root as usize) {
            root.start_ns = start_ns;
            root.end_ns = end_ns;
        }
        self.unit += 1;
    }

    #[inline]
    fn call<R>(&mut self, kind: SpanKind, f: impl FnOnce() -> R) -> R {
        let start_ns = now_ns();
        let r = f();
        let end_ns = now_ns();
        self.push(Span {
            kind,
            unit: self.unit,
            parent: self.root,
            start_ns,
            end_ns,
            events: 0,
        });
        r
    }

    #[inline]
    fn progress(&mut self, kind: SpanKind, f: impl FnOnce() -> usize) -> usize {
        let start_ns = now_ns();
        let events = f();
        let end_ns = now_ns();
        self.push(Span {
            kind,
            unit: self.unit,
            parent: self.root,
            start_ns,
            end_ns,
            events: events.min(u32::MAX as usize) as u32,
        });
        events
    }

    #[inline]
    fn posted_recv(&mut self, complete_at_post: bool) {
        self.recvs_posted += 1;
        self.recvs_unexpected += u64::from(complete_at_post);
    }

    fn into_recorder(self) -> Option<Recorder> {
        Some(self)
    }
}

/// Calls of one kind inside the traced units.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallStats {
    pub calls: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
}

/// What the spans of one traced repetition add up to.
#[derive(Debug, Clone, Default)]
pub struct SpanSummary {
    /// Complete units (root recorded with all its children).
    pub units: u64,
    pub unit: Percentiles,
    pub unit_total_ns: u64,
    pub irecv: CallStats,
    pub isend: CallStats,
    pub take_data: CallStats,
    pub wait_flag: CallStats,
    pub progress_hit: CallStats,
    pub progress_idle: CallStats,
    /// p50 over units of root time minus the children's: harness self time.
    pub harness_self_p50_ns: u64,
    pub children_total_ns: u64,
}

impl SpanSummary {
    /// Share of the units' time spent inside library-call spans.
    pub fn attributed_pct(&self) -> f64 {
        if self.unit_total_ns == 0 {
            return 0.0;
        }
        100.0 * self.children_total_ns as f64 / self.unit_total_ns as f64
    }

    pub fn progress_calls(&self) -> u64 {
        self.progress_hit.calls + self.progress_idle.calls
    }
}

/// Folds the recorders of one repetition (one per driving thread).
pub fn summarize(recorders: &[Recorder]) -> SpanSummary {
    #[derive(Default)]
    struct Acc(Vec<u64>);
    impl Acc {
        fn stats(mut self) -> CallStats {
            self.0.sort_unstable();
            CallStats {
                calls: self.0.len() as u64,
                total_ns: self.0.iter().sum(),
                p50_ns: quantile_sorted(&self.0, 0.5),
            }
        }
    }
    let (mut irecv, mut isend, mut take, mut wait) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let (mut hit, mut idle) = (Acc::default(), Acc::default());
    let mut unit_ns = Vec::new();
    let mut self_ns = Vec::new();
    let mut children_total = 0u64;

    for rec in recorders {
        let spans = rec.spans();
        let mut i = 0;
        while i < spans.len() {
            let root = spans[i];
            debug_assert_eq!(root.kind, SpanKind::Unit);
            let mut j = i + 1;
            while j < spans.len() && spans[j].kind != SpanKind::Unit {
                j += 1;
            }
            // A root the buffer filled up under has no end time and an
            // incomplete set of children: leave it out.
            if root.end_ns > 0 && (rec.dropped == 0 || j < spans.len()) {
                let mut children = 0u64;
                for s in &spans[i + 1..j] {
                    let d = s.end_ns - s.start_ns;
                    children += d;
                    match s.kind {
                        SpanKind::Irecv => irecv.0.push(d),
                        SpanKind::Isend => isend.0.push(d),
                        SpanKind::TakeData => take.0.push(d),
                        SpanKind::WaitFlag => wait.0.push(d),
                        k if k.is_progress() && s.events > 0 => hit.0.push(d),
                        _ => idle.0.push(d),
                    }
                }
                let total = root.end_ns - root.start_ns;
                unit_ns.push(total);
                self_ns.push(total.saturating_sub(children));
                children_total += children;
            }
            i = j;
        }
    }
    self_ns.sort_unstable();
    let unit_total_ns = unit_ns.iter().sum();
    SpanSummary {
        units: unit_ns.len() as u64,
        unit: crate::stats::percentiles(&mut unit_ns),
        unit_total_ns,
        irecv: irecv.stats(),
        isend: isend.stats(),
        take_data: take.stats(),
        wait_flag: wait.stats(),
        progress_hit: hit.stats(),
        progress_idle: idle.stats(),
        harness_self_p50_ns: quantile_sorted(&self_ns, 0.5),
        children_total_ns: children_total,
    }
}

/// Spans written per mode; the rest are counted, not written, so a
/// trace file stays a few megabytes.
pub const SPANS_WRITTEN_PER_MODE: usize = 20_000;

/// Renders the first spans of one repetition as a JSON object.
pub fn spans_json(recorders: &[Recorder]) -> String {
    use std::fmt::Write;
    let recorded: usize = recorders.iter().map(|r| r.spans().len()).sum();
    let dropped: u64 = recorders.iter().map(|r| r.dropped).sum();
    let mut out = String::new();
    let mut written = 0;
    let mut body = String::new();
    for (thread, rec) in recorders.iter().enumerate() {
        let take = (SPANS_WRITTEN_PER_MODE / recorders.len()).min(rec.spans().len());
        for (id, s) in rec.spans()[..take].iter().enumerate() {
            if written > 0 {
                body.push(',');
            }
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            write!(
                body,
                "\n    {{\"thread\":{thread},\"id\":{id},\"parent\":{parent},\"unit\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"events\":{}}}",
                s.unit,
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                s.events
            )
            .expect("writing to a String");
            written += 1;
        }
    }
    write!(
        out,
        "{{\"spans_recorded\":{recorded},\"spans_dropped\":{dropped},\
         \"spans_written\":{written},\"spans\":[{body}\n  ]}}"
    )
    .expect("writing to a String");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_root_minus_children() {
        let mut r = Recorder::with_capacity(16);
        r.begin_unit();
        r.push(Span {
            kind: SpanKind::Isend,
            unit: 0,
            parent: 0,
            start_ns: 110,
            end_ns: 140,
            events: 0,
        });
        r.push(Span {
            kind: SpanKind::ProgressB,
            unit: 0,
            parent: 0,
            start_ns: 150,
            end_ns: 170,
            events: 1,
        });
        r.push(Span {
            kind: SpanKind::ProgressA,
            unit: 0,
            parent: 0,
            start_ns: 170,
            end_ns: 175,
            events: 0,
        });
        r.end_unit(100, 200);
        let s = summarize(&[r]);
        assert_eq!(s.units, 1);
        assert_eq!(s.unit.p50, 100);
        assert_eq!(s.isend.p50_ns, 30);
        assert_eq!(s.progress_hit.calls, 1);
        assert_eq!(s.progress_idle.p50_ns, 5);
        assert_eq!(s.harness_self_p50_ns, 100 - 30 - 20 - 5);
        assert!((s.attributed_pct() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn full_buffer_drops_and_skips_the_cut_unit() {
        let mut r = Recorder::with_capacity(4);
        for _ in 0..2 {
            r.begin_unit();
            r.call(SpanKind::Isend, || ());
            r.call(SpanKind::Irecv, || ());
            let t = now_ns();
            r.end_unit(t.saturating_sub(10).max(1), t.max(2));
        }
        assert!(r.dropped > 0);
        assert_eq!(r.spans().len(), 4);
        assert_eq!(summarize(&[r]).units, 1);
    }
}
