//! Machine-readable benchmark report (`BENCH_FIGURES.json`).
//!
//! The `figures bench --json` subcommand renders its virtual-clock
//! results (the `nm-sim` models and the real-library chaos sweep) as a
//! flat list of records and writes them to the repo root, where
//! `cargo xtask bench-check` compares a fresh run against the committed
//! baseline (docs/REPRODUCING.md describes the refresh procedure). The
//! schema is deliberately tiny so the dep-free parser in `xtask` stays
//! tiny too:
//!
//! ```json
//! {
//!   "schema": 1,
//!   "records": [
//!     {"name": "fig3/coarse locking/size=4", "unit": "us",
//!      "value": 5.4, "p50": null, "p99": null, "kind": "sim"}
//!   ]
//! }
//! ```
//!
//! Every record is a deterministic virtual-clock result, compared
//! exactly; schema 1 keeps the constant `p50`/`p99`/`kind` keys so the
//! committed baseline stays byte-identical.

use std::io::Write as _;
use std::path::Path;

use nm_metrics::export::json_str;

/// One benchmark result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Hierarchical metric name, `/`-separated (e.g. `fig3/<label>/size=64`).
    pub name: String,
    /// Unit of `value` (`us`, `ns`, `MB/s`, ...).
    pub unit: String,
    /// The headline value (median for latency records).
    pub value: f64,
}

impl BenchRecord {
    /// A deterministic simulator record.
    pub fn sim(name: impl Into<String>, unit: &str, value: f64) -> Self {
        BenchRecord {
            name: name.into(),
            unit: unit.to_string(),
            value,
        }
    }
}

/// Formats an `f64` so `str::parse::<f64>` round-trips it exactly
/// (Rust's `{:?}` prints the shortest representation that does).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        // JSON has no Inf/NaN; a benchmark producing one is a bug we
        // want visible in the diff, not a parse error.
        "null".to_string()
    }
}

/// Renders records as the `BENCH_FIGURES.json` document.
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": {}, \"unit\": {}, \"value\": {}, \"p50\": null, \"p99\": null, \"kind\": \"sim\"}}{}\n",
            json_str(&r.name),
            json_str(&r.unit),
            fmt_f64(r.value),
            if i + 1 < records.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes records to `path` as JSON.
pub fn write_json(path: &Path, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_and_roundtrip() {
        let records = vec![
            BenchRecord::sim("fig3/coarse/size=4", "us", 5.4),
            BenchRecord::sim("fig3/fine/size=4", "us", 2.25),
        ];
        let json = to_json(&records);
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"name\": \"fig3/coarse/size=4\""));
        assert!(json.contains("\"kind\": \"sim\""));
        assert!(json.contains("\"value\": 2.25"));
        assert!(json.contains("\"p50\": null"));
        // Exactly one comma-separated record pair.
        assert_eq!(json.matches("{\"name\"").count(), 2);
    }

    #[test]
    fn f64_formatting_roundtrips() {
        for v in [0.0, 1.5, 0.1 + 0.2, 123456.789, 1e-9, f64::MAX] {
            let s = fmt_f64(v);
            assert_eq!(s.parse::<f64>().unwrap(), v, "{s}");
        }
        assert_eq!(fmt_f64(f64::NAN), "null");
    }

    #[test]
    fn write_then_read_back() {
        let dir = std::env::temp_dir();
        let path = dir.join("nm_bench_report_test.json");
        let records = vec![BenchRecord::sim("a/b", "us", 1.0)];
        write_json(&path, &records).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, to_json(&records));
        let _ = std::fs::remove_file(&path);
    }
}
