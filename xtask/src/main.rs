//! Repo automation tasks, invoked as `cargo xtask <command>`.
//!
//! Four commands, all exiting non-zero on any violation so they can
//! gate CI:
//!
//! * `lint-concurrency` — concurrency rules that rustc/clippy cannot
//!   express (see `docs/CONCURRENCY.md`).
//! * `lint-trace` — every event of the `EventId` list must be emitted
//!   somewhere, and the metric catalogue must match the registered
//!   metric names (see `docs/OBSERVABILITY.md`).
//! * `bench-check` — reruns `figures bench --json` and compares the
//!   fresh results against the committed `BENCH_FIGURES.json` baseline
//!   (see `docs/REPRODUCING.md`).
//! * `analyze-locks` — whole-program static lock-order analysis:
//!   extracts every classed acquisition site, builds a conservative
//!   may-hold-while-acquiring graph, reports potential deadlock cycles,
//!   cross-checks against the runtime lockcheck graph and keeps the
//!   generated hierarchy section of `docs/CONCURRENCY.md` honest.
//!
//! The static passes share one machine-readable output schema
//! (`--json` / `--out <path>`, see `findings.rs`) for CI artifacts.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod analyze_locks;
mod bench_check;
mod findings;
mod json;
mod lint_concurrency;
mod lint_trace;
mod lockgraph;
mod rslex;

fn workspace_root() -> PathBuf {
    // xtask always runs via `cargo xtask ...`, whose cwd-independent anchor
    // is this crate's manifest dir: <root>/xtask.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .expect("xtask crate must live inside the workspace")
        .to_path_buf()
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next();
    let rest: Vec<String> = args.collect();
    match cmd.as_deref() {
        Some("lint-concurrency") => lint_concurrency::run(&workspace_root(), &rest),
        Some("lint-trace") => lint_trace::run(&workspace_root(), &rest),
        Some("bench-check") => bench_check::run(&workspace_root(), &rest),
        Some("analyze-locks") => analyze_locks::run(&workspace_root(), &rest),
        Some(other) => {
            eprintln!("unknown xtask command: {other}");
            print_usage();
            ExitCode::FAILURE
        }
        None => {
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: cargo xtask <command>\n\n\
         commands:\n  \
         lint-concurrency   check memory-ordering justifications, hot-path\n                     \
         primitive bans and SAFETY comment coverage\n                     \
         (--json / --out <path> for the shared finding schema)\n  \
         lint-trace         check that every registered event is emitted and\n                     \
         that the metric catalogue matches the registrations\n                     \
         (--json / --out <path>)\n  \
         bench-check        rerun `figures bench --json` and compare against\n                     \
         the committed BENCH_FIGURES.json baseline\n  \
         analyze-locks      static lock-order analysis over the workspace:\n                     \
         cycle detection, runtime lockcheck cross-check and\n                     \
         docs/CONCURRENCY.md hierarchy drift check\n                     \
         (--json / --out <path> / --static-only /\n                     \
         --runtime-graph <path> / --write-docs / --fixture <dir>)"
    );
}

/// Recursively collects `.rs` files under `dir`, skipping `target/` and
/// `benchmark/`: the benchmark of record is a stand-alone package outside
/// the workspace, so none of the lints applies to it.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "benchmark" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_the_benchmark_package_and_the_workspace_lints_clean() {
        let root = workspace_root();
        let mut files = Vec::new();
        collect_rs_files(&root, &mut files);
        assert!(files.iter().any(|p| p.starts_with(root.join("crates"))));
        assert!(!files.iter().any(|p| p.starts_with(root.join("benchmark"))));
        let (_, violations) = lint_concurrency::lint_tree(&root);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
