//! The benchmark stays off the library surface ROADMAP plans to delete,
//! so that a PR removing it does not have to edit the benchmark (a PR
//! that claims a gain may not). Counts come from the `nm-metrics`
//! registry by name instead.

use std::path::Path;

/// What `src/` must not mention, and why.
const BANNED: [(&str, &str); 9] = [
    (
        "CoreStats",
        "per-core counter struct; read the registry by name",
    ),
    ("ordered_eager", "config knob no experiment distinguishes"),
    ("ReorderDriver", "deprecated, superseded by ChaosDriver"),
    ("nm_bench", "to be merged or deleted"),
    (
        "nm_sim",
        "the cost model; this benchmark runs the real stack",
    ),
    (".post(", "un-suffixed Driver alias; use post_vci"),
    (".poll(", "un-suffixed Driver alias; use poll_vci"),
    (".can_post(", "un-suffixed Driver alias; use can_post_vci"),
    (
        ".next_event_ns(",
        "un-suffixed Driver alias; use next_event_ns_vci",
    ),
];

fn scan(dir: &Path, hits: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).expect("src is readable") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            scan(&path, hits);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("a source file is UTF-8");
            for (n, line) in text.lines().enumerate() {
                for (token, why) in BANNED {
                    if line.contains(token) {
                        hits.push(format!("{}:{}: `{token}` ({why})", path.display(), n + 1));
                    }
                }
            }
        }
    }
}

#[test]
fn src_uses_no_deletion_candidate() {
    let mut hits = Vec::new();
    scan(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
        &mut hits,
    );
    assert!(hits.is_empty(), "{}", hits.join("\n"));
}
