//! Running a workload for the record: the untraced repetitions behind
//! the end-to-end metrics, and the traced run behind the per-layer ones.

use std::time::Duration;

use crate::alloc_count;
use crate::probes::{self, Effort};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentiles};
use crate::trace::{spans_json, summarize, NoTrace, Recorder, SpanSummary};
use crate::workloads::{Counts, Mode, RepOutput, RepParams, Workload};

/// Repetitions per (workload, mode). The reported value is that of the
/// **best** repetition (lowest latency, highest rate), not the median:
/// the 2-CPU host this runs on goes through phases, minutes long, in
/// which something else takes a hardware thread and a repetition reads
/// up to 40 % slower. Interference only ever slows a repetition down,
/// and even a bad phase leaves quiet seconds, so the best of six
/// one-second repetitions stayed within ~5 % (one thread) and ~15 %
/// (two threads) through phases that moved the median by 40 %. Each
/// repetition's own value is still a median (p50, median slice rate).
/// `setup_s` stays the median over all set-ups.
pub const REPS: usize = 6;

fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Spans one traced repetition may record (32 bytes each).
const SPAN_CAPACITY: usize = 4 << 20;

/// One reported value. `None`: the registry counter it needs is gone.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
}

/// A repetition's inputs differ from the next one's, so that the
/// reported value does not hinge on one loss pattern.
fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed.wrapping_add((rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What the repetitions of one mode measured.
#[derive(Debug, Clone, Default)]
pub struct ModeRuns {
    pub p50_ns: Vec<f64>,
    pub p99_ns: Vec<f64>,
    pub msgs_per_s: Vec<f64>,
    /// Samples behind each repetition's percentiles.
    pub samples: Vec<usize>,
    pub threads: usize,
}

/// The end-to-end result of one workload.
#[derive(Debug, Clone)]
pub struct EndToEndRun {
    pub workload: Workload,
    pub seed: u64,
    /// All of [`END_TO_END`], in that order.
    pub metrics: Vec<Metric>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub modes: [ModeRuns; 3],
    pub setup_samples: usize,
}

impl EndToEndRun {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name)?.value
    }
}

/// Runs `reps` untraced repetitions of `rep` per mode, the modes
/// interleaved (single, coarse, fine, single, ...) so that drift of the
/// host hits all three alike.
pub fn run_end_to_end(workload: Workload, seed: u64, rep: Duration, reps: usize) -> EndToEndRun {
    let mut modes: [ModeRuns; 3] = Default::default();
    let mut setup_s = Vec::new();
    let (mut ops_attempted, mut ops_failed) = (0, 0);
    let mut payload_len = 0;
    for r in 0..reps {
        for (m, mode) in Mode::ALL.into_iter().enumerate() {
            let mut out = workload.run_rep::<NoTrace>(&RepParams {
                mode,
                seed: rep_seed(seed, r),
                duration: rep,
                span_capacity: 0,
            });
            let p = percentiles(&mut out.samples);
            modes[m].p50_ns.push(p.p50 as f64);
            modes[m].p99_ns.push(p.p99 as f64);
            modes[m].msgs_per_s.push(out.msgs_per_s);
            modes[m].samples.push(p.count);
            modes[m].threads = out.threads;
            setup_s.push(out.setup_ns as f64 / 1e9);
            ops_attempted += out.attempted;
            ops_failed += out.failed();
            payload_len = out.payload_len;
        }
    }
    // `<what>.<mode>`; `setup_s` alone has no mode.
    let value = |name: &str| -> f64 {
        let (what, label) = name.rsplit_once('.').unwrap_or((name, ""));
        let runs = Mode::ALL
            .iter()
            .position(|m| m.label() == label)
            .map(|m| &modes[m]);
        match (what, runs) {
            ("setup_s", _) => median(&setup_s),
            ("half_rtt_p50_ns", Some(runs)) => lowest(&runs.p50_ns),
            ("half_rtt_p99_ns", Some(runs)) => lowest(&runs.p99_ns),
            ("msgs_per_s", Some(runs)) => highest(&runs.msgs_per_s),
            ("goodput_MBps", Some(runs)) => highest(&runs.msgs_per_s) * payload_len as f64 / 1e6,
            _ => panic!("{name}: an end-to-end metric nobody computes"),
        }
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: Some(value(m.name)),
        })
        .collect();
    EndToEndRun {
        workload,
        seed,
        metrics,
        ops_attempted,
        ops_failed,
        setup_samples: setup_s.len(),
        modes,
    }
}

/// One traced repetition.
pub struct ModeTrace {
    pub mode: Mode,
    pub spans: SpanSummary,
    pub counts: Counts,
    pub msgs: u64,
    pub msgs_per_unit: u64,
    pub payload_bytes: u64,
    pub recvs_posted: u64,
    pub recvs_unexpected: u64,
    pub spans_dropped: u64,
    pub threads: usize,
    /// p50 of the repetition's latency samples, as an untraced run reads it.
    pub sample_p50_ns: f64,
    /// The first spans, rendered; the span buffers themselves are
    /// dropped with the repetition (they are ~100 MB each).
    spans_json: String,
}

impl ModeTrace {
    fn new(mut out: RepOutput) -> Self {
        ModeTrace {
            sample_p50_ns: percentiles(&mut out.samples).p50 as f64,
            mode: out.mode,
            spans: summarize(&out.recorders),
            counts: out.counts,
            msgs: out.msgs,
            msgs_per_unit: out.msgs_per_unit,
            payload_bytes: out.payload_bytes(),
            recvs_posted: out.recorders.iter().map(|r| r.recvs_posted).sum(),
            recvs_unexpected: out.recorders.iter().map(|r| r.recvs_unexpected).sum(),
            spans_dropped: out.recorders.iter().map(|r| r.dropped).sum(),
            threads: out.threads,
            spans_json: spans_json(&out.recorders),
        }
    }

    pub fn unexpected_ratio(&self) -> f64 {
        ratio(self.recvs_unexpected as f64, self.recvs_posted as f64)
    }

    /// Messages inside the units the span summary covers.
    fn traced_msgs(&self) -> f64 {
        (self.spans.units * self.msgs_per_unit) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced result of one workload.
pub struct TracedRun {
    pub workload: Workload,
    pub seed: u64,
    pub modes: Vec<ModeTrace>,
    /// p50 of an untraced fine-mode repetition of the same length, the
    /// reference for `trace.overhead_pct`.
    pub untraced_fine_p50_ns: f64,
    pub probes: Vec<(&'static str, Option<f64>)>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// Ways in which the workload did not do what its description says.
    pub self_check: Vec<String>,
}

/// Reruns `workload` with spans on, one repetition of `rep` per mode,
/// plus one untraced repetition and the micro-probes.
pub fn run_traced(workload: Workload, seed: u64, rep: Duration, effort: Effort) -> TracedRun {
    let probes = probes::run_all(effort, seed);
    let (mut ops_attempted, mut ops_failed) = (0, 0);
    let mut self_check = Vec::new();
    let mut modes = Vec::new();
    let capacity = match effort {
        Effort::Full => SPAN_CAPACITY,
        Effort::Quick => SPAN_CAPACITY / 16,
    };
    for mode in Mode::ALL {
        let params = RepParams {
            mode,
            seed,
            duration: rep,
            span_capacity: capacity,
        };
        alloc_count::set_enabled(true);
        let out = workload.run_rep::<Recorder>(&params);
        alloc_count::set_enabled(false);
        ops_attempted += out.attempted;
        ops_failed += out.failed();
        let trace = ModeTrace::new(out);
        if trace.unexpected_ratio() != workload.expected_unexpected_ratio() {
            self_check.push(format!(
                "{}: {} of {} receives took the unexpected path, expected a share of {}",
                mode.label(),
                trace.recvs_unexpected,
                trace.recvs_posted,
                workload.expected_unexpected_ratio()
            ));
        }
        if mode == Mode::Single && trace.counts.policy_lock_acquisitions != 0 {
            self_check.push(format!(
                "single: the cores' lock policy took {} locks, expected none",
                trace.counts.policy_lock_acquisitions
            ));
        }
        modes.push(trace);
    }
    let mut reference = workload.run_rep::<NoTrace>(&RepParams {
        mode: Mode::Fine,
        seed,
        duration: rep,
        span_capacity: 0,
    });
    ops_attempted += reference.attempted;
    ops_failed += reference.failed();
    let mut run = TracedRun {
        workload,
        seed,
        modes,
        untraced_fine_p50_ns: percentiles(&mut reference.samples).p50 as f64,
        probes,
        ops_attempted,
        ops_failed,
        self_check,
    };
    // The budget ROADMAP asks for: the rows must account for the traced
    // round trip to within 10 %.
    if workload == Workload::PingpongEager {
        for mode in Mode::ALL {
            let budget = run.budget(mode);
            let gap = (budget.rows_sum_ns() - budget.unit_p50_ns).abs();
            if gap > 0.10 * budget.unit_p50_ns {
                run.self_check.push(format!(
                    "{}: budget rows sum to {:.0} ns, traced round trip is {:.0} ns",
                    mode.label(),
                    budget.rows_sum_ns(),
                    budget.unit_p50_ns
                ));
            }
        }
    }
    run
}

/// One row of the budget table: a kind of call inside a traced unit.
#[derive(Debug, Clone)]
pub struct BudgetRow {
    pub what: &'static str,
    pub p50_ns: f64,
    pub per_unit: f64,
}

impl BudgetRow {
    pub fn ns_per_unit(&self) -> f64 {
        self.p50_ns * self.per_unit
    }
}

/// Where a traced unit's time goes.
#[derive(Debug, Clone)]
pub struct Budget {
    pub mode: Mode,
    pub rows: Vec<BudgetRow>,
    pub unit_p50_ns: f64,
}

impl Budget {
    pub fn rows_sum_ns(&self) -> f64 {
        self.rows.iter().map(BudgetRow::ns_per_unit).sum()
    }
}

impl TracedRun {
    pub fn mode(&self, mode: Mode) -> &ModeTrace {
        self.modes
            .iter()
            .find(|m| m.mode == mode)
            .expect("every mode is traced")
    }

    fn probe(&self, name: &str) -> Option<f64> {
        self.probes.iter().find(|(n, _)| *n == name)?.1
    }

    /// p50 per call times calls per unit, for every kind of call, and
    /// the harness's own time: the rows must add up to the traced unit.
    pub fn budget(&self, mode: Mode) -> Budget {
        let s = &self.mode(mode).spans;
        let units = s.units.max(1) as f64;
        let row = |what, c: crate::trace::CallStats| BudgetRow {
            what,
            p50_ns: c.p50_ns as f64,
            per_unit: c.calls as f64 / units,
        };
        let mut rows = vec![
            row("irecv", s.irecv),
            row("isend", s.isend),
            row("progress_hit", s.progress_hit),
            row("progress_idle", s.progress_idle),
            row("take_data", s.take_data),
        ];
        if s.wait_flag.calls > 0 {
            rows.push(row("wait_flag", s.wait_flag));
        }
        rows.push(BudgetRow {
            what: "harness self",
            p50_ns: s.harness_self_p50_ns as f64,
            per_unit: 1.0,
        });
        Budget {
            mode,
            rows,
            unit_p50_ns: s.unit.p50 as f64,
        }
    }

    /// All of [`PER_LAYER`], in that order, as read in `mode`.
    pub fn per_layer(&self, mode: Mode) -> Vec<Metric> {
        let t = self.mode(mode);
        let s = &t.spans;
        let (msgs, traced_msgs) = (t.msgs as f64, t.traced_msgs());
        let per_msg = |count: Option<u64>| Some(ratio(count? as f64, msgs));
        let (traced, untraced) = (
            self.mode(Mode::Fine).sample_p50_ns,
            self.untraced_fine_p50_ns,
        );
        let value = |name: &str| -> Option<f64> {
            Some(match name {
                "fabric.packets_per_msg" => return per_msg(t.counts.fabric_tx_packets),
                "fabric.wire_bytes_per_payload_byte" => {
                    ratio(t.counts.fabric_tx_bytes? as f64, t.payload_bytes as f64)
                }
                "core.isend_ns" => s.isend.p50_ns as f64,
                "core.irecv_ns" => s.irecv.p50_ns as f64,
                "core.take_data_ns" => s.take_data.p50_ns as f64,
                "core.progress_hit_ns" => s.progress_hit.p50_ns as f64,
                "core.progress_idle_ns" => s.progress_idle.p50_ns as f64,
                "core.passes_per_msg" => ratio(s.progress_calls() as f64, traced_msgs),
                "core.idle_pass_ratio" => {
                    ratio(s.progress_idle.calls as f64, s.progress_calls() as f64)
                }
                "core.lock_acq_per_msg" => return per_msg(t.counts.lock_acquisitions),
                "core.lock_contended_ratio" => ratio(
                    t.counts.lock_contended? as f64,
                    t.counts.lock_acquisitions? as f64,
                ),
                "core.allocs_per_msg" => ratio(t.counts.alloc.allocs as f64, msgs),
                "core.alloc_bytes_per_payload_byte" => {
                    ratio(t.counts.alloc.bytes as f64, t.payload_bytes as f64)
                }
                "core.unexpected_ratio" => t.unexpected_ratio(),
                "progress.polls_per_msg" => return per_msg(t.counts.progress_polls),
                "progress.useful_poll_ratio" => match t.counts.progress_polls? {
                    0 => 0.0,
                    polls => t.counts.progress_progressions? as f64 / polls as f64,
                },
                "trace.overhead_pct" => 100.0 * ratio(traced - untraced, untraced),
                "budget.attributed_pct" => s.attributed_pct(),
                probe => return self.probe(probe),
            })
        };
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                unit: m.unit,
                value: value(m.name),
            })
            .collect()
    }

    /// The span file: the first spans of each mode and their summary.
    pub fn spans_file(&self) -> String {
        let modes: Vec<String> = self
            .modes
            .iter()
            .map(|m| format!("  \"{}\": {}", m.mode.label(), m.spans_json))
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"unit\": \"{}\",\n  \
             \"clock\": \"std::time::Instant, nanoseconds since process start\",\n{}\n}}\n",
            self.workload.name(),
            self.seed,
            self.workload.unit_label(),
            modes.join(",\n")
        )
    }
}
