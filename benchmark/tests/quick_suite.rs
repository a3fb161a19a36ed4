//! All six workloads in quick mode, untraced and traced, and what they
//! emit against what `BENCHMARK.json` declares.
//!
//! One test function: the workloads pin threads and read process-wide
//! counters, so they run one after the other.

use std::collections::BTreeSet;
use std::time::Duration;

use nomad_benchmark::probes::Effort;
use nomad_benchmark::spec::{END_TO_END, PER_LAYER};
use nomad_benchmark::suite::{run_end_to_end, run_traced};
use nomad_benchmark::workloads::{Mode, Workload};

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Items of the array under the top-level key `key`, as raw text.
fn items<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no key {key:?}"));
    let open = start + json[start..].find('[').expect("the key holds an array");
    let close = open + json[open..].find(']').expect("the array ends");
    json[open + 1..close]
        .split('}')
        .filter(|item| item.contains('{'))
        .collect()
}

/// The string value of `field` in one item.
fn field<'a>(item: &'a str, field: &str) -> &'a str {
    let at = item
        .find(&format!("\"{field}\""))
        .unwrap_or_else(|| panic!("no {field:?} in {item:?}"));
    let rest = &item[at + field.len() + 2..];
    let open = rest.find('"').expect("a string value") + 1;
    let close = open + rest[open..].find('"').expect("the string ends");
    &rest[open..close]
}

fn names(json: &str, key: &str) -> BTreeSet<String> {
    items(json, key)
        .into_iter()
        .map(|item| field(item, "name").to_string())
        .collect()
}

#[test]
fn quick_suite_emits_exactly_what_benchmark_json_declares() {
    let json = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repo root");
    let rep = Duration::from_millis(50);

    let declared_workloads = names(&json, "workloads");
    let run_workloads: BTreeSet<String> =
        Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared_workloads, run_workloads);

    // Units, directions and bounds in the file are the ones in spec.rs.
    for item in items(&json, "end_to_end") {
        let spec = END_TO_END
            .iter()
            .find(|m| m.name == field(item, "name"))
            .unwrap_or_else(|| panic!("undeclared end-to-end metric in {item}"));
        assert_eq!(field(item, "unit"), spec.unit, "{}", spec.name);
        assert_eq!(field(item, "better"), spec.better.label(), "{}", spec.name);
        assert!(
            item.contains(&format!("\"bound\": {}", spec.bound)),
            "bound of {} differs from spec.rs: {item}",
            spec.name
        );
    }
    for item in items(&json, "per_layer") {
        let spec = PER_LAYER
            .iter()
            .find(|m| m.name == field(item, "name"))
            .unwrap_or_else(|| panic!("undeclared per-layer metric in {item}"));
        assert_eq!(field(item, "unit"), spec.unit, "{}", spec.name);
        assert_eq!(field(item, "better"), spec.better.label(), "{}", spec.name);
    }

    let declared_e2e = names(&json, "end_to_end");
    let declared_layers = names(&json, "per_layer");
    for workload in Workload::ALL {
        let run = run_end_to_end(workload, 3, rep, 2);
        assert_eq!(run.ops_failed, 0, "{}", workload.name());
        assert!(run.ops_attempted > 0);
        let emitted: BTreeSet<String> = run.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(emitted, declared_e2e, "{}", workload.name());
        for m in &run.metrics {
            let v = m.value.expect("end-to-end metrics are always measured");
            assert!(
                v.is_finite() && v > 0.0,
                "{} {} = {v}",
                workload.name(),
                m.name
            );
        }

        let traced = run_traced(workload, 3, rep, Effort::Quick);
        assert_eq!(traced.ops_failed, 0, "{}", workload.name());
        let layers = traced.per_layer(Mode::Fine);
        let emitted: BTreeSet<String> = layers.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(emitted, declared_layers, "{}", workload.name());
        for m in &layers {
            assert!(
                m.value.is_some_and(f64::is_finite),
                "{} {}",
                workload.name(),
                m.name
            );
        }

        // The workloads do what their descriptions say.
        let value = |mode, name: &str| {
            traced
                .per_layer(mode)
                .into_iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value)
                .expect("a per-layer metric")
        };
        for mode in Mode::ALL {
            assert_eq!(
                value(mode, "core.unexpected_ratio"),
                workload.expected_unexpected_ratio(),
                "{} {}",
                workload.name(),
                mode.label()
            );
        }
        assert_eq!(traced.mode(Mode::Single).counts.policy_lock_acquisitions, 0);
        assert!(traced.mode(Mode::Fine).counts.policy_lock_acquisitions > 0);
        assert!(
            value(Mode::Single, "core.lock_acq_per_msg")
                < value(Mode::Coarse, "core.lock_acq_per_msg")
                && value(Mode::Coarse, "core.lock_acq_per_msg")
                    < value(Mode::Fine, "core.lock_acq_per_msg"),
            "{}: the modes must differ by lock cycles",
            workload.name()
        );
        assert!(
            !traced
                .self_check
                .iter()
                .any(|p| p.contains("unexpected") || p.contains("lock policy")),
            "{:?}",
            traced.self_check
        );
        assert!(traced.spans_file().contains("\"spans\":["));
    }
}
