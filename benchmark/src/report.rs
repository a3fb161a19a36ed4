//! What the benchmark prints: tables for people, one JSON line for the
//! driver, the record `check` writes.

use std::fmt::Write;

use crate::spec::{self, Better, END_TO_END, PER_LAYER};
use crate::suite::{EndToEndRun, Metric, TracedRun};
use crate::workloads::{Mode, Workload};

/// Said at the top of every report.
pub const PREAMBLE: &str = "\
All traffic crosses in-process nm-fabric wires with WireModel::ideal() (zero modelled
latency) on the real clock (std::time::Instant): every nanosecond below is software.
Closed loop: a caller posts again only after its own completions.";

/// CPUs the process may use. Read once, before `main` pins its thread:
/// afterwards the calling thread's own mask would say 1.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

fn number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    let magnitude = v.abs();
    if magnitude != 0.0 && magnitude < 0.01 {
        format!("{v:.6}")
    } else if magnitude < 100.0 {
        format!("{v:.4}")
    } else {
        format!("{v:.1}")
    }
}

fn shown(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_string(), number)
}

/// The end-to-end table of one workload.
pub fn end_to_end_table(run: &EndToEndRun) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== {} (seed {}, nproc {}) ==",
        run.workload.name(),
        run.seed,
        nproc()
    );
    let _ = writeln!(
        out,
        "   one latency sample = one {}",
        run.workload.unit_label()
    );
    let _ = writeln!(
        out,
        "   {:<26} {:>14} {:<6} {:>6}",
        "metric", "value", "unit", "bound"
    );
    for (m, spec) in run.metrics.iter().zip(&END_TO_END) {
        let _ = writeln!(
            out,
            "   {:<26} {:>14} {:<6} {:>5.0}%",
            m.name,
            shown(m.value),
            m.unit,
            spec.bound * 100.0
        );
    }
    for (mode, runs) in Mode::ALL.iter().zip(&run.modes) {
        let _ = writeln!(
            out,
            "   {:<7} threads {}  repetitions {}  samples per percentile {}",
            mode.label(),
            runs.threads,
            runs.samples.len(),
            runs.samples.iter().min().copied().unwrap_or(0)
        );
        let per_rep = |values: &[f64]| {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.0}")).collect();
            shown.join(" ")
        };
        let _ = writeln!(
            out,
            "           p50 ns per repetition: {}",
            per_rep(&runs.p50_ns)
        );
        let _ = writeln!(
            out,
            "           p99 ns per repetition: {}",
            per_rep(&runs.p99_ns)
        );
        let _ = writeln!(
            out,
            "           msg/s per repetition:  {}",
            per_rep(&runs.msgs_per_s)
        );
    }
    let _ = writeln!(
        out,
        "   latencies and rates: best repetition; setup_s: median of {} set-ups; ops_attempted {}  ops_failed {}",
        run.setup_samples, run.ops_attempted, run.ops_failed
    );
    out
}

/// The per-layer table of one traced workload, one column per mode.
pub fn per_layer_table(run: &TracedRun) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== {} traced (seed {}, nproc {}) ==",
        run.workload.name(),
        run.seed,
        nproc()
    );
    let columns: Vec<Vec<Metric>> = Mode::ALL.iter().map(|&m| run.per_layer(m)).collect();
    let _ = writeln!(
        out,
        "   {:<18} {:<36} {:<6} {:>12} {:>12} {:>12}",
        "layer", "metric", "unit", "single", "coarse", "fine"
    );
    for (i, (m, spec)) in columns[0].iter().zip(&PER_LAYER).enumerate() {
        let _ = writeln!(
            out,
            "   {:<18} {:<36} {:<6} {:>12} {:>12} {:>12}",
            spec.layer,
            m.name,
            m.unit,
            shown(columns[0][i].value),
            shown(columns[1][i].value),
            shown(columns[2][i].value)
        );
    }
    for t in &run.modes {
        let _ = writeln!(
            out,
            "   {:<7} threads {}  units traced {}  spans dropped {}  traced p50 {} ns",
            t.mode.label(),
            t.threads,
            t.spans.units,
            t.spans_dropped,
            number(t.sample_p50_ns)
        );
    }
    let _ = writeln!(
        out,
        "   untraced fine p50 {} ns; ops_attempted {}  ops_failed {}",
        number(run.untraced_fine_p50_ns),
        run.ops_attempted,
        run.ops_failed
    );
    for problem in &run.self_check {
        let _ = writeln!(out, "   SELF-CHECK FAILED: {problem}");
    }
    out
}

/// The budget of one traced unit, beside the micro-probe prices.
pub fn budget_table(run: &TracedRun) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== budget of one {} unit: {} ==",
        run.workload.name(),
        run.workload.unit_label()
    );
    for mode in Mode::ALL {
        let budget = run.budget(mode);
        let _ = writeln!(
            out,
            "   {} mode: traced unit p50 {} ns",
            mode.label(),
            number(budget.unit_p50_ns)
        );
        let _ = writeln!(
            out,
            "     {:<14} {:>10} {:>9} {:>11} {:>7}",
            "row", "p50/call", "x calls", "= ns/unit", "share"
        );
        for row in &budget.rows {
            let _ = writeln!(
                out,
                "     {:<14} {:>10} {:>9} {:>11} {:>6.1}%",
                row.what,
                number(row.p50_ns),
                number(row.per_unit),
                number(row.ns_per_unit()),
                100.0 * row.ns_per_unit() / budget.unit_p50_ns.max(1.0)
            );
        }
        let sum = budget.rows_sum_ns();
        let _ = writeln!(
            out,
            "     {:<14} {:>10} {:>9} {:>11} {:>6.1}%  (must be within 10 % of the unit)",
            "sum",
            "",
            "",
            number(sum),
            100.0 * sum / budget.unit_p50_ns.max(1.0)
        );
        let layer = run.per_layer(mode);
        let get = |name: &str| {
            layer
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value)
                .unwrap_or(0.0)
        };
        let msgs = run.mode(mode).msgs_per_unit as f64;
        let _ = writeln!(out, "     explained by micro-probe prices, per unit:");
        let lines = [
            (
                "lock cycles",
                get("sync.spin_cycle_ns") * get("core.lock_acq_per_msg") * msgs,
                "sync.spin_cycle_ns x core.lock_acq_per_msg",
            ),
            (
                "wire post+poll",
                get("fabric.simnic_post_poll_ns") * get("fabric.packets_per_msg") * msgs,
                "fabric.simnic_post_poll_ns x fabric.packets_per_msg",
            ),
            (
                "packet codec",
                (get("wire.encode_packet_ns.8B") + get("wire.decode_packet_ns.8B")) * msgs,
                "wire.encode_packet_ns.8B + wire.decode_packet_ns.8B",
            ),
            (
                "latency hists",
                get("metrics.hist_record_ns") * 2.0 * msgs,
                "metrics.hist_record_ns x 2 (isend, irecv)",
            ),
        ];
        let mut explained = 0.0;
        for (what, ns, how) in lines {
            explained += ns;
            let _ = writeln!(
                out,
                "     {:<14} {:>10} ns  {how}, x {msgs} messages",
                what,
                number(ns)
            );
        }
        let _ = writeln!(
            out,
            "     {:<14} {:>10} ns  = {:.1}% of the unit; the rest is not priced yet",
            "explained",
            number(explained),
            100.0 * explained / budget.unit_p50_ns.max(1.0)
        );
    }
    out
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // The driver wants a number; a counter the registry lost
            // reads 0 there and `null` in the tables.
            let v = m.value.filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The driver's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        json_metrics(metrics)
    )
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative: better).
pub fn worsening(spec: &spec::EndToEnd, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match spec.better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Two runs of the suite side by side. Returns the table, the JSON
/// record, and whether every metric held its bound both ways.
pub fn check_report(first: &[EndToEndRun], second: &[EndToEndRun]) -> (String, String, bool) {
    let mut table = String::new();
    let mut records = Vec::new();
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        let _ = writeln!(table, "\n== {} ==", a.workload.name());
        let _ = writeln!(
            table,
            "   {:<26} {:<6} {:>14} {:>14} {:>8} {:>6}",
            "metric", "unit", "first", "second", "diff", "bound"
        );
        let mut fields = Vec::new();
        for spec in &END_TO_END {
            let (x, y) = (
                a.value(spec.name).unwrap_or(0.0),
                b.value(spec.name).unwrap_or(0.0),
            );
            // Either run may be the reference of a later comparison.
            let spread = worsening(spec, x, y).abs().max(worsening(spec, y, x).abs());
            let held = spread <= spec.bound;
            ok &= held;
            let _ = writeln!(
                table,
                "   {:<26} {:<6} {:>14} {:>14} {:>7.2}% {:>5.0}%{}",
                spec.name,
                spec.unit,
                number(x),
                number(y),
                100.0 * spread,
                100.0 * spec.bound,
                if held { "" } else { "  EXCEEDS BOUND" }
            );
            fields.push(format!(
                "      \"{}\": {{\"unit\": \"{}\", \"first\": {x}, \"second\": {y}, \
                 \"spread\": {spread:.4}, \"bound\": {}}}",
                spec.name, spec.unit, spec.bound
            ));
        }
        for run in [a, b] {
            ok &= run.ops_failed == 0;
        }
        let samples: Vec<String> = Mode::ALL
            .iter()
            .zip(&a.modes)
            .map(|(mode, runs)| {
                format!(
                    "\"{}\": {}",
                    mode.label(),
                    runs.samples.iter().min().copied().unwrap_or(0)
                )
            })
            .collect();
        records.push(format!(
            "    \"{}\": {{\n      \"seeds\": [{}, {}],\n      \"ops_attempted\": [{}, {}],\n      \
             \"ops_failed\": [{}, {}],\n      \"samples_per_percentile\": {{{}}},\n{}\n    }}",
            a.workload.name(),
            a.seed,
            b.seed,
            a.ops_attempted,
            b.ops_attempted,
            a.ops_failed,
            b.ops_failed,
            samples.join(", "),
            fields.join(",\n")
        ));
    }
    let record = format!(
        "{{\n  \"what\": \"two untraced runs of the suite on the same code, from `check --record`\",\n  \
         \"nproc\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        nproc(),
        records.join(",\n")
    );
    (table, record, ok)
}

/// Every workload name, for usage messages.
pub fn workload_names() -> String {
    Workload::ALL.map(Workload::name).join(", ")
}
