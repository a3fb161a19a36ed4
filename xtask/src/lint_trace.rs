//! `cargo xtask lint-trace`: keeps the event list, the metric
//! declarations and `docs/OBSERVABILITY.md` from drifting apart.
//!
//! Two rules:
//!
//! 1. **Every registered event is emitted (or schema-only by design).**
//!    A variant of the `events!` list in `crates/nm-metrics/src/events.rs`
//!    with no `trace_event!`/`emit(` site anywhere is dead schema: either
//!    instrument it or retire it. Variants exercised only through
//!    `EventId::Name` expressions (tests, replay scripts like `nm-bench`'s
//!    `fromtrace`) count as used. An *unregistered* name needs no rule:
//!    `trace_event!` expands to a path into `EventId`, so it does not
//!    compile.
//! 2. **The metric catalogue and the metric registrations agree.** Every
//!    dotted metric name registered in the workspace (the
//!    `histogram("x")` / `counter("x")` / `gauge("x")` lookups, which
//!    `metric_handles!` items spell too) must appear backticked in the
//!    catalogue, and every name the catalogue lists must still be
//!    registered somewhere. `test.` and `bench.` names are scaffolding
//!    and exempt.
//!
//! The scan is textual, like `lint-concurrency`: it runs in milliseconds
//! and the `trace_event!(Identifier` shape is unambiguous in this
//! codebase.

use crate::findings::{Finding, OutputOpts, Severity};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

/// Where the event list lives, relative to the workspace root.
const EVENTS_RS: &str = "crates/nm-metrics/src/events.rs";

/// The observability doc holding the metric catalogue, relative to the
/// workspace root.
const METRICS_MD: &str = "docs/OBSERVABILITY.md";

/// `true` for the dotted-name shape metrics use (`core.send_ns`):
/// lowercase/digit/underscore segments joined by at least one dot.
fn is_metric_name(s: &str) -> bool {
    s.contains('.')
        && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
        && !s.split('.').any(str::is_empty)
}

/// Extracts every backticked dotted name from the metric catalogue.
fn doc_metric_names(md: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for chunk in md.split('`').skip(1).step_by(2) {
        if is_metric_name(chunk) {
            out.insert(chunk.to_string());
        }
    }
    out
}

/// Scans one file for metric registrations, recording
/// `name -> (file, line)` for the first site of each name: every
/// `histogram("x")`/`counter("x")`/`gauge("x")` lookup, which is also
/// how `metric_handles!` items name theirs.
fn scan_metrics(rel: &str, text: &str, names: &mut BTreeMap<String, (String, usize)>) {
    const CALLS: [&str; 3] = ["histogram(\"", "counter(\"", "gauge(\""];
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or_default();
        for call in CALLS {
            let mut rest = line;
            while let Some(pos) = rest.find(call) {
                let after = &rest[pos + call.len()..];
                if let Some(name) = after.split('"').next() {
                    if is_metric_name(name)
                        && !name.starts_with("test.")
                        && !name.starts_with("bench.")
                    {
                        names
                            .entry(name.to_string())
                            .or_insert_with(|| (rel.to_string(), idx + 1));
                    }
                }
                rest = after;
            }
        }
    }
}

/// Rule 2: the catalogue and the registrations must match exactly.
fn check_metrics(doc: &BTreeSet<String>, code: &BTreeMap<String, (String, usize)>) -> Vec<Finding> {
    let mut problems = Vec::new();
    for (name, (file, line)) in code {
        if !doc.contains(name) {
            problems.push(Finding::new(
                "metric-undocumented",
                Severity::Error,
                file.clone(),
                *line,
                format!("metric `{name}` is registered here but missing from {METRICS_MD}"),
            ));
        }
    }
    for name in doc {
        if !code.contains_key(name) {
            problems.push(Finding::new(
                "metric-dead-doc",
                Severity::Error,
                METRICS_MD,
                0,
                format!(
                    "{METRICS_MD} lists `{name}` but nothing in the workspace \
                     registers it — update the catalogue or restore the metric"
                ),
            ));
        }
    }
    problems
}

/// Extracts the registered variant names from the `events!` list the
/// `EventId` enum is generated from.
fn registered_variants(events_src: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_list = false;
    for line in events_src.lines() {
        let t = line.trim();
        if t == "events! {" {
            in_list = true;
        } else if in_list && t == "}" {
            break;
        } else if in_list {
            // Rows look like `LockAcquire = 1, "nm-sync", "a=lock id";`.
            if let Some((name, rest)) = t.split_once(" = ") {
                let raw = rest.split(',').next().unwrap_or_default();
                if raw.parse::<u16>().is_ok()
                    && name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    && name.chars().all(|c| c.is_ascii_alphanumeric())
                {
                    out.insert(name.to_string());
                }
            }
        }
    }
    out
}

/// Scans one file for `trace_event!(Name` sites and `EventId::Name`
/// references, recording names into the respective maps.
fn scan_file(
    rel: &str,
    text: &str,
    sites: &mut Vec<(String, usize, String)>,
    referenced: &mut BTreeSet<String>,
) {
    for (idx, line) in text.lines().enumerate() {
        // Comments (incl. rustdoc) may spell the macro shape as prose.
        let line = line.split("//").next().unwrap_or_default();
        let mut rest = line;
        while let Some(pos) = rest.find("trace_event!(") {
            let after = &rest[pos + "trace_event!(".len()..];
            let name: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                sites.push((rel.to_string(), idx + 1, name));
            }
            rest = after;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("EventId::") {
            let after = &rest[pos + "EventId::".len()..];
            let name: String = after
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                referenced.insert(name);
            }
            rest = after;
        }
    }
}

fn check(
    registered: &BTreeSet<String>,
    sites: &[(String, usize, String)],
    referenced: &BTreeSet<String>,
) -> Vec<Finding> {
    // An event is used by a macro site or a direct `EventId::` reference
    // (which covers emit() calls and replay scripts).
    let emitted: BTreeSet<&str> = sites.iter().map(|(_, _, name)| name.as_str()).collect();
    registered
        .iter()
        .filter(|name| !emitted.contains(name.as_str()) && !referenced.contains(*name))
        .map(|name| {
            Finding::new(
                "trace-dead-event",
                Severity::Error,
                EVENTS_RS,
                0,
                format!(
                    "EventId::{name} is registered but never \
                     emitted or referenced anywhere — instrument it or retire it"
                ),
            )
        })
        .collect()
}

pub fn run(root: &Path, args: &[String]) -> ExitCode {
    let (opts, rest) = match OutputOpts::parse(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint-trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(a) = rest.first() {
        eprintln!("lint-trace: unknown flag {a}");
        return ExitCode::FAILURE;
    }
    let events_path = root.join(EVENTS_RS);
    let Ok(events_src) = std::fs::read_to_string(&events_path) else {
        eprintln!("lint-trace: cannot read {}", events_path.display());
        return ExitCode::FAILURE;
    };
    let registered = registered_variants(&events_src);
    if registered.is_empty() {
        eprintln!("lint-trace: no EventId variants parsed from {EVENTS_RS}");
        return ExitCode::FAILURE;
    }

    let mut files = Vec::new();
    super::collect_rs_files(root, &mut files);
    files.sort();

    let metrics_path = root.join(METRICS_MD);
    let Ok(metrics_md) = std::fs::read_to_string(&metrics_path) else {
        eprintln!("lint-trace: cannot read {}", metrics_path.display());
        return ExitCode::FAILURE;
    };
    let doc_metrics = doc_metric_names(&metrics_md);

    let mut sites = Vec::new();
    let mut referenced = BTreeSet::new();
    let mut code_metrics = BTreeMap::new();
    let mut checked = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        // The lint's own source spells the patterns it greps for.
        if rel.starts_with("xtask/") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        checked += 1;
        scan_file(&rel, &text, &mut sites, &mut referenced);
        scan_metrics(&rel, &text, &mut code_metrics);
    }

    let mut problems = check(&registered, &sites, &referenced);
    problems.extend(check_metrics(&doc_metrics, &code_metrics));
    if !opts.emit("lint-trace", &problems) {
        return ExitCode::FAILURE;
    }
    if problems.is_empty() {
        if !opts.json {
            println!(
                "lint-trace: OK ({} registered events, {} trace_event! sites, \
                 {checked} files)",
                registered.len(),
                sites.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("{p}");
        }
        eprintln!(
            "\nlint-trace: {} problem(s). The event list in {EVENTS_RS} and \
             the catalogue in {METRICS_MD} are the sources of truth.",
            problems.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAKE_EVENTS: &str = r#"
macro_rules! events {
    ($($name:ident = $raw:literal, $layer:literal, $args:literal;)*) => {};
}

events! {
    // ---- layer ----
    /// Docs do not count.
    LockAcquire = 1, "nm-sync", "a=lock id";
    LockRelease = 2, "nm-sync", "a=lock id";
    PacketTx = 64, "nm-fabric", "a=bytes";
}
"#;

    fn registered() -> BTreeSet<String> {
        registered_variants(FAKE_EVENTS)
    }

    #[test]
    fn parses_variants_from_enum_block() {
        let r = registered();
        assert_eq!(
            r.iter().map(String::as_str).collect::<Vec<_>>(),
            ["LockAcquire", "LockRelease", "PacketTx"]
        );
    }

    #[test]
    fn finds_macro_sites_and_references() {
        let src = r#"
            trace_event!(LockAcquire, id, 1);
            trace_event!(PacketTx, len); trace_event!(LockRelease, id);
            let x = EventId::LockAcquire;
        "#;
        let mut sites = Vec::new();
        let mut refs = BTreeSet::new();
        scan_file("a.rs", src, &mut sites, &mut refs);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[1].2, "PacketTx");
        assert!(refs.contains("LockAcquire"));
    }

    #[test]
    fn unemitted_variant_is_a_problem_unless_referenced() {
        let sites = vec![
            ("a.rs".into(), 1, "LockAcquire".into()),
            ("b.rs".into(), 2, "LockRelease".into()),
        ];
        let problems = check(&registered(), &sites, &BTreeSet::new());
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].rule, "trace-dead-event");
        assert!(problems[0].message.contains("PacketTx"));

        let mut refs = BTreeSet::new();
        refs.insert("PacketTx".to_string());
        assert!(check(&registered(), &sites, &refs).is_empty());
    }

    #[test]
    fn doc_names_come_from_backticks_with_the_dotted_shape() {
        let md = "| `core.send_ns` | stuff |\nprose `nm-metrics` and `CommCore::isend`\n\
                  `fabric.tx_bytes`, `fabric.tx_packets` share a row";
        let names = doc_metric_names(md);
        assert_eq!(
            names.iter().map(String::as_str).collect::<Vec<_>>(),
            ["core.send_ns", "fabric.tx_bytes", "fabric.tx_packets"]
        );
    }

    #[test]
    fn metric_scan_sees_calls_and_global_macros() {
        let src = r#"
            let h = nm_metrics::metrics().histogram("core.send_ns");
            nm_metrics::metric_handles! {
                /// Polling passes ("rate" in polls/sec).
                pub fn polls_counter() -> Counter = counter("progress.polls");
                fn streak() -> Gauge = gauge("test.streak");
            }
            metrics().gauge("test.reg.gauge");
        "#;
        let mut names = BTreeMap::new();
        scan_metrics("m.rs", src, &mut names);
        assert_eq!(
            names.keys().map(String::as_str).collect::<Vec<_>>(),
            ["core.send_ns", "progress.polls"],
            "test.* names are scaffolding and exempt"
        );
        assert_eq!(names["progress.polls"], ("m.rs".to_string(), 5));
    }

    #[test]
    fn metric_drift_is_reported_both_ways() {
        let mut code = BTreeMap::new();
        code.insert("core.new_ns".to_string(), ("m.rs".to_string(), 7));
        let mut doc = BTreeSet::new();
        doc.insert("core.gone_ns".to_string());
        let problems = check_metrics(&doc, &code);
        assert_eq!(problems.len(), 2);
        assert_eq!(problems[0].rule, "metric-undocumented");
        assert!(problems[0].message.contains("core.new_ns"));
        assert_eq!(problems[1].rule, "metric-dead-doc");
        assert!(problems[1].message.contains("core.gone_ns"));

        doc.insert("core.new_ns".to_string());
        doc.remove("core.gone_ns");
        assert!(check_metrics(&doc, &code).is_empty());
    }

    #[test]
    fn the_real_workspace_passes() {
        let root = super::super::workspace_root();
        assert_eq!(run(&root, &[]), ExitCode::SUCCESS);
    }
}
