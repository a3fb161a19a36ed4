//! `cargo xtask bench-check` — benchmark-regression gate for the
//! virtual-clock figures.
//!
//! Reruns `figures bench --json` into a temp directory and compares the
//! fresh `BENCH_FIGURES.json` against the baseline committed at the repo
//! root. Every record is computed on a virtual clock, so it must match
//! the baseline **exactly**. The `chaos/*` records run the real
//! `nm-core` reliability layer on that clock; the rest come from the
//! `nm-sim` models. Any drift means a model or the library changed, and
//! the baseline must be consciously refreshed (see docs/REPRODUCING.md).
//! Wall-clock numbers of the real stack are gated by the stand-alone
//! `benchmark/` package (`benchmark/README.md`).
//!
//! xtask is dependency-free; the JSON reader lives in [`crate::json`]
//! and covers the subset the bench schema uses.

use crate::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode};

/// The benchmark report file, relative to the repo root.
const BENCH_FILE: &str = "BENCH_FIGURES.json";

pub fn run(root: &Path, args: &[String]) -> ExitCode {
    if let Some(other) = args.first() {
        eprintln!("bench-check: unknown flag {other}");
        return ExitCode::FAILURE;
    }

    let fresh_dir = std::env::temp_dir().join(format!("nm-bench-check-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&fresh_dir) {
        eprintln!("bench-check: cannot create {}: {e}", fresh_dir.display());
        return ExitCode::FAILURE;
    }

    eprintln!(
        "bench-check: running fresh benchmarks into {}",
        fresh_dir.display()
    );
    let mut cmd = Command::new("cargo");
    cmd.current_dir(root)
        .args([
            "run",
            "--release",
            "-q",
            "-p",
            "nm-bench",
            "--bin",
            "figures",
            "--",
        ])
        .args(["bench", "--json", "--out"])
        .arg(&fresh_dir);
    match cmd.status() {
        Ok(s) if s.success() => {}
        Ok(s) => {
            eprintln!("bench-check: figures bench failed with {s}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("bench-check: failed to spawn cargo: {e}");
            return ExitCode::FAILURE;
        }
    }

    let failures = match (
        load_records(&root.join(BENCH_FILE)),
        load_records(&fresh_dir.join(BENCH_FILE)),
    ) {
        (Err(e), _) => vec![format!("baseline unreadable: {e}")],
        (_, Err(e)) => vec![format!("fresh run unreadable: {e}")],
        (Ok(baseline), Ok(fresh)) => {
            eprintln!(
                "bench-check: {BENCH_FILE}: {} baseline records compared",
                baseline.len()
            );
            compare(&baseline, &fresh)
        }
    };
    let _ = std::fs::remove_dir_all(&fresh_dir);

    if failures.is_empty() {
        eprintln!("bench-check: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("bench-check: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  {BENCH_FILE}: {f}");
        }
        eprintln!(
            "bench-check: if the change is intentional, refresh the baseline\n  \
             (cargo run --release -p nm-bench --bin figures -- bench --json)\n  \
             and commit the new {BENCH_FILE} — see docs/REPRODUCING.md."
        );
        ExitCode::FAILURE
    }
}

/// Parses the report into record name → headline value.
fn load_records(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let body = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    parse_records(&body)
}

fn parse_records(body: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(body)?;
    let Json::Object(top) = doc else {
        return Err("top level is not an object".into());
    };
    match top.get("schema") {
        Some(Json::Number(n)) if *n == 1.0 => {}
        other => return Err(format!("unsupported schema field: {other:?}")),
    }
    let Some(Json::Array(records)) = top.get("records") else {
        return Err("missing records array".into());
    };
    let mut out = BTreeMap::new();
    for r in records {
        let Json::Object(r) = r else {
            return Err("record is not an object".into());
        };
        let name = match r.get("name") {
            Some(Json::String(s)) => s.clone(),
            _ => return Err("record missing string name".into()),
        };
        let value = match r.get("value") {
            Some(Json::Number(n)) => *n,
            _ => return Err(format!("record {name} missing numeric value")),
        };
        match r.get("kind") {
            Some(Json::String(s)) if s == "sim" => {}
            _ => return Err(format!("record {name} has bad kind")),
        }
        if out.insert(name.clone(), value).is_some() {
            return Err(format!("duplicate record name {name}"));
        }
    }
    Ok(out)
}

/// Compares fresh records against the baseline; returns human-readable
/// failure messages (empty = pass).
fn compare(baseline: &BTreeMap<String, f64>, fresh: &BTreeMap<String, f64>) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, base) in baseline {
        match fresh.get(name) {
            None => failures.push(format!("record {name} missing from fresh run")),
            // Deterministic virtual-clock result: exact match.
            Some(new) if new != base => failures.push(format!(
                "sim record {name} drifted: baseline {base} != fresh {new}"
            )),
            Some(_) => {}
        }
    }
    for name in fresh.keys() {
        if !baseline.contains_key(name) {
            failures.push(format!(
                "record {name} is new (not in baseline) — refresh the committed {BENCH_FILE}"
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": 1,
  "records": [
    {"name": "fig3/fine locking/size=4", "unit": "us", "value": 5.4, "p50": null, "p99": null, "kind": "sim"},
    {"name": "fig3/coarse locking/size=4", "unit": "us", "value": 5.31, "p50": null, "p99": null, "kind": "sim"}
  ]
}
"#;

    #[test]
    fn parses_the_bench_schema() {
        let records = parse_records(SAMPLE).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records["fig3/fine locking/size=4"], 5.4);
        assert!(parse_records(&SAMPLE.replace("\"sim\"}", "\"real\"}")).is_err());
    }

    #[test]
    fn wrong_schema_version_rejected() {
        assert!(parse_records("{\"schema\": 2, \"records\": []}").is_err());
    }

    #[test]
    fn identical_runs_pass() {
        let base = parse_records(SAMPLE).unwrap();
        assert!(compare(&base, &base).is_empty());
    }

    #[test]
    fn perturbed_sim_record_fails_exact_compare() {
        let base = parse_records(SAMPLE).unwrap();
        let mut fresh = base.clone();
        // Even a tiny drift in a deterministic result must fail.
        *fresh.get_mut("fig3/fine locking/size=4").unwrap() = 5.400001;
        let failures = compare(&base, &fresh);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("sim record"), "{failures:?}");
    }

    #[test]
    fn missing_and_new_records_fail() {
        let base = parse_records(SAMPLE).unwrap();
        let mut fresh = base.clone();
        fresh.remove("fig3/fine locking/size=4");
        fresh.insert("fig3/brand-new".to_string(), 1.0);
        let failures = compare(&base, &fresh);
        assert_eq!(failures.len(), 2, "{failures:?}");
    }
}
