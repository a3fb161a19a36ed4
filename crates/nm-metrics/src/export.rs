//! Snapshot rendering: OpenMetrics text and structured JSON.
//!
//! Both renderers work on a [`MetricsSnapshot`] — take one with
//! [`crate::metrics`]`().snapshot()` and serve/write the result. Metric
//! names use the stack's dotted form (`core.send_ns`); OpenMetrics
//! output mangles them to `nomad_core_send_ns` per the exposition
//! format's `[a-zA-Z0-9_]` charset.

use crate::hist::HistogramSnapshot;
use crate::registry::MetricsSnapshot;

/// `core.send_ns` → `nomad_core_send_ns`.
fn om_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("nomad_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats an `f64` for both exports: finite, shortest round-trip form.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn om_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let n = om_name(name);
    out.push_str(&format!("# TYPE {n} histogram\n"));
    let mut cumulative = 0u64;
    for (le, count) in h.nonzero() {
        cumulative += count;
        out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
    }
    out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
    out.push_str(&format!("{n}_sum {}\n", fmt_f64(h.sum_approx())));
    out.push_str(&format!("{n}_count {}\n", h.count()));
}

/// Renders a snapshot as OpenMetrics exposition text (counters,
/// gauges, histograms with sparse cumulative buckets, derived
/// `*_per_sec` rate gauges), terminated by `# EOF`.
pub fn to_openmetrics(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &s.counters {
        let n = om_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n}_total {v}\n"));
    }
    for (name, r) in &s.rates {
        let n = format!("{}_per_sec", om_name(name));
        out.push_str(&format!("# TYPE {n} gauge\n{n} {}\n", fmt_f64(*r)));
    }
    for (name, v) in &s.gauges {
        let n = om_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in &s.hists {
        om_histogram(&mut out, name, h);
    }
    out.push_str("# EOF\n");
    out
}

/// Renders `s` as a JSON string literal, quotes included: the one
/// escaper for metric names, flight-dump reasons and bench records.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a snapshot as structured JSON:
///
/// ```json
/// {
///   "counters": {"core.sends": 12},
///   "rates_per_sec": {"core.sends": 240.0},
///   "gauges": {"progress.offload_backlog": 0},
///   "histograms": {
///     "core.send_ns": {"count": 12, "p50": 410, "p90": 520,
///                       "p99": 1023, "p999": 1023, "min": 380,
///                       "max": 1023, "mean": 455.2}
///   }
/// }
/// ```
pub fn to_json(s: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let items: Vec<String> = s
        .counters
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_str(n)))
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("},\n  \"rates_per_sec\": {");
    let items: Vec<String> = s
        .rates
        .iter()
        .map(|(n, r)| format!("{}: {}", json_str(n), fmt_f64(*r)))
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("},\n  \"gauges\": {");
    let items: Vec<String> = s
        .gauges
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_str(n)))
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("},\n  \"histograms\": {\n");
    let items: Vec<String> = s
        .hists
        .iter()
        .map(|(n, h)| {
            format!(
                "    {}: {{\"count\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \
                 \"p999\": {}, \"min\": {}, \"max\": {}, \"mean\": {}}}",
                json_str(n),
                h.count(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.quantile(0.99),
                h.quantile(0.999),
                h.min(),
                h.max(),
                fmt_f64(h.mean_approx()),
            )
        })
        .collect();
    out.push_str(&items.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample_snapshot() -> MetricsSnapshot {
        let h = Histogram::new();
        for v in [10, 20, 30, 1000, 5000] {
            h.record(v);
        }
        MetricsSnapshot {
            counters: vec![("core.sends".into(), 12)],
            rates: vec![("core.sends".into(), 240.5)],
            gauges: vec![("progress.offload_backlog".into(), 3)],
            hists: vec![("core.send_ns".into(), h.snapshot())],
        }
    }

    #[test]
    fn openmetrics_shape() {
        let text = to_openmetrics(&sample_snapshot());
        assert!(text.contains("# TYPE nomad_core_sends counter"));
        assert!(text.contains("nomad_core_sends_total 12"));
        assert!(text.contains("nomad_core_sends_per_sec 240.5"));
        assert!(text.contains("nomad_progress_offload_backlog 3"));
        assert!(text.contains("# TYPE nomad_core_send_ns histogram"));
        assert!(text.contains("nomad_core_send_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("nomad_core_send_ns_count 5"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn openmetrics_buckets_are_cumulative() {
        let text = to_openmetrics(&sample_snapshot());
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("nomad_core_send_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 5);
    }

    #[test]
    fn json_shape() {
        let text = to_json(&sample_snapshot());
        assert!(text.contains("\"core.sends\": 12"));
        assert!(text.contains("\"rates_per_sec\""));
        assert!(text.contains("\"progress.offload_backlog\": 3"));
        assert!(text.contains("\"count\": 5"));
        assert!(text.contains("\"p50\""));
        // Name mangling never happens in JSON.
        assert!(text.contains("core.send_ns"));
    }

    #[test]
    fn json_escapes_special_chars() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
