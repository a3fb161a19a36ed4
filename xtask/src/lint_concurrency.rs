//! `cargo xtask lint-concurrency`: source-text lints for concurrency rules
//! the compiler cannot enforce.
//!
//! Four rules (details and rationale in `docs/CONCURRENCY.md`):
//!
//! 1. **Relaxed needs a reason.** Every `Ordering::Relaxed` in non-test
//!    code must carry a `relaxed:` justification comment on the same line
//!    or within the six preceding lines (multi-line `compare_exchange`
//!    calls push the argument down), unless the file is on the allow-list
//!    below (files whose module docs establish a blanket discipline, e.g.
//!    statistics counters) or under `compat/`.
//! 2. **No ad-hoc primitives on hot paths.** `std::sync::Mutex`,
//!    `RwLock`, `Condvar`, `Barrier` and bare `std::thread::spawn` are
//!    banned in the hot-path crates (`nm-sync`, `nm-fabric`,
//!    `nm-progress`, `nm-core`, `nm-sched`) outside test code: locks must
//!    go through `nm-sync`/`parking_lot` (so lockcheck sees them) and
//!    threads through the crates' own spawn wrappers, which set names and
//!    affinity. Use-list imports (`use std::sync::{Arc, Barrier}`) are
//!    caught too. The rare legitimate exception carries a
//!    `// std-sync: <why>` comment within three lines (e.g. lockcheck's
//!    own graph guard, which must not itself be a classed lock).
//! 3. **`unsafe` needs `// SAFETY:`.** Every line containing an `unsafe`
//!    keyword must have a `SAFETY:` comment (or a `# Safety` rustdoc
//!    section, the convention for `unsafe fn`) on the same line or within
//!    the three preceding lines. (Clippy's `undocumented_unsafe_blocks`
//!    covers blocks; this also catches `unsafe fn`/`unsafe impl` and does
//!    not need a full compile.)
//! 4. **No blocking in completion handlers.** Completion handlers run in
//!    the progress context (see `core::completion`'s reentrancy rules):
//!    a handler that blocks stalls progression for the whole node, and a
//!    handler that waits on a completion deadlocks — the completion it
//!    waits for is delivered by the thread it is running on. Closures
//!    passed to `Completion::handler(..)` must not contain `.wait(`,
//!    `thread::park`, semaphore `acquire_*` calls or `block_on`. This
//!    rule applies to test code too (a deadlock in a test hangs CI just
//!    as hard); the rare false positive (e.g. a non-blocking method that
//!    happens to be named `wait`) carries a `// handler-ok: <why>`
//!    comment within three lines.
//!
//! An allow-list file or hot-path crate that names nothing on disk is an
//! error too (`stale-lint-path`): a renamed or moved entry would otherwise
//! silently exempt, or check, nothing.
//!
//! The lint is text-based on purpose: it runs in under a second with no
//! compilation, and the patterns involved are unambiguous in this codebase.
//! String literals could in principle fool it; don't put `unsafe` in one.

use crate::findings::{Finding, OutputOpts, Severity};
use std::path::Path;
use std::process::ExitCode;

/// Files allowed to use `Ordering::Relaxed` without per-site justification.
/// Keep this list short and justified:
const RELAXED_ALLOW_LIST: &[&str] = &[
    // Monotonic statistics: the metrics layer's counters, gauges and
    // histogram buckets are all independent monotonic (or
    // last-writer-wins) cells read only by snapshots that tolerate
    // tearing; each module's docs state this once.
    "crates/nm-metrics/src/counters.rs",
    "crates/nm-metrics/src/gauge.rs",
    "crates/nm-metrics/src/hist.rs",
    // Per-thread trace rings: module docs state the Relaxed-stores +
    // Release-cursor publication protocol once for the whole file.
    "crates/nm-metrics/src/ring.rs",
];

/// Path prefixes exempt from the Relaxed rule. `compat/` holds vendored
/// stand-ins for external crates (parking_lot, crossbeam, the loom-lite
/// model checker): they *implement* the primitives the rule protects, and
/// keeping their text close to upstream matters more than our annotations.
/// The SAFETY rule still applies to them.
const RELAXED_EXEMPT_PREFIXES: &[&str] = &["compat/"];

/// Crates where the banned `std::sync` primitives / bare `thread::spawn`
/// are not allowed in non-test code.
const HOT_PATH_CRATES: &[&str] = &[
    "crates/nm-sync",
    "crates/nm-fabric",
    "crates/nm-progress",
    "crates/core",
    "crates/nm-sched",
];

/// How many lines above an occurrence a justification comment may sit.
const COMMENT_LOOKBACK: usize = 3;

/// Lookback for the Relaxed rule: rustfmt splits `compare_exchange`
/// calls across up to six lines, putting the `Ordering::Relaxed` argument
/// well below the comment that precedes the statement.
const RELAXED_LOOKBACK: usize = 6;

/// The `std::sync` primitives banned on hot paths (rule 2). Everything
/// here has an `nm-sync` or `parking_lot` replacement that lockcheck and
/// the loom suite can see.
const BANNED_STD_SYNC: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier"];

pub fn run(root: &Path, args: &[String]) -> ExitCode {
    let (opts, rest) = match OutputOpts::parse(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint-concurrency: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(a) = rest.first() {
        eprintln!("lint-concurrency: unknown flag {a}");
        return ExitCode::FAILURE;
    }

    let (checked, violations) = lint_tree(root);
    if !opts.emit("lint-concurrency", &violations) {
        return ExitCode::FAILURE;
    }
    if violations.is_empty() {
        if !opts.json {
            println!(
                "lint-concurrency: OK ({checked} files; relaxed justifications, \
                 hot-path primitives, SAFETY coverage, handler blocking)"
            );
        }
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!(
            "\nlint-concurrency: {} violation(s) in {checked} files. \
             See docs/CONCURRENCY.md for the rules.",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

/// Lints every `.rs` file under `root`; returns the number of files
/// checked and the violations found.
pub fn lint_tree(root: &Path) -> (usize, Vec<Finding>) {
    let mut files = Vec::new();
    super::collect_rs_files(root, &mut files);
    files.sort();

    let mut violations = Vec::new();
    let mut checked = 0usize;
    for path in &files {
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        checked += 1;
        lint_file(&rel, &text, &mut violations);
    }
    violations.extend(stale_paths(root, RELAXED_ALLOW_LIST, HOT_PATH_CRATES));
    (checked, violations)
}

/// Allow-list files and hot-path crates that do not exist under `root`.
fn stale_paths(root: &Path, allow_list: &[&str], hot_path_crates: &[&str]) -> Vec<Finding> {
    let missing_files = allow_list.iter().filter(|f| !root.join(f).is_file());
    let missing_crates = hot_path_crates
        .iter()
        .filter(|c| !root.join(c).join("src").is_dir());
    missing_files
        .map(|f| (f, "RELAXED_ALLOW_LIST file"))
        .chain(missing_crates.map(|c| (c, "HOT_PATH_CRATES crate")))
        .map(|(path, what)| {
            Finding::new(
                "stale-lint-path",
                Severity::Error,
                "xtask/src/lint_concurrency.rs",
                0,
                format!("{what} `{path}` does not exist: it checks nothing — move or remove it"),
            )
        })
        .collect()
}

/// Call patterns that install a completion handler; the closure argument
/// runs in the progress context (rule 4).
const HANDLER_INSTALLERS: &[&str] = &["Completion::handler(", "Completion::Handler("];

/// Blocking calls banned inside a completion handler (rule 4).
const BANNED_IN_HANDLER: &[&str] = &[
    ".wait(",
    ".wait_all(",
    "thread::park",
    ".acquire_blocking(",
    ".acquire_with(",
    "block_on(",
];

fn lint_file(rel: &str, text: &str, out: &mut Vec<Finding>) {
    // Skip the lint's own source (rule names would trip the patterns).
    if rel.starts_with("xtask/") {
        return;
    }
    let lines: Vec<&str> = text.lines().collect();
    let test_start = test_code_start(&lines);
    let in_tests_dir = rel.contains("/tests/") || rel.contains("/benches/");

    let relaxed_allowed = RELAXED_ALLOW_LIST.contains(&rel)
        || RELAXED_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p));
    let hot_path = HOT_PATH_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("{c}/src/")) || rel == format!("{c}/src/lib.rs"));

    // Tracks whether we are inside a multi-line `use std::sync::{ ... }`
    // item (rustfmt splits long use-lists).
    let mut in_std_sync_list = false;

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let code = strip_line_comment(line);
        let is_test_code = in_tests_dir || idx >= test_start;

        // Rule 1: Ordering::Relaxed needs a `relaxed:` justification.
        // Test code is exempt: the rule protects production hot paths.
        if !relaxed_allowed
            && !is_test_code
            && code.contains("Relaxed")
            && (code.contains("Ordering::Relaxed") || code.contains("::Relaxed"))
            && !has_marker_within(&lines, idx, "relaxed:", RELAXED_LOOKBACK)
        {
            out.push(Finding::new(
                "relaxed-needs-reason",
                Severity::Error,
                rel,
                lineno,
                "Ordering::Relaxed without a `// relaxed: <why>` \
                 justification within 6 lines",
            ));
        }

        // Rule 2: hot-path crates must not use the banned std::sync
        // primitives / bare spawn outside test code. A `// std-sync:`
        // justification within 3 lines waives the primitive ban.
        let std_sync_hits = banned_std_sync(code, &mut in_std_sync_list);
        if hot_path && !is_test_code {
            if !has_marker(&lines, idx, "std-sync:") {
                for prim in std_sync_hits {
                    let rule = if prim == "Mutex" {
                        "hot-path-std-mutex"
                    } else {
                        "hot-path-std-sync-primitive"
                    };
                    out.push(Finding::new(
                        rule,
                        Severity::Error,
                        rel,
                        lineno,
                        format!(
                            "std::sync::{prim} in a hot-path crate; use \
                             nm-sync primitives or parking_lot so lockcheck \
                             and loom see it (or justify with `// std-sync: <why>`)"
                        ),
                    ));
                }
            }
            if (code.contains("thread::spawn(") || code.contains("std::thread::spawn("))
                && !code.contains("Builder")
            {
                out.push(Finding::new(
                    "hot-path-bare-spawn",
                    Severity::Error,
                    rel,
                    lineno,
                    "bare thread::spawn in a hot-path crate; use \
                     std::thread::Builder (named threads) or the \
                     crate's spawn wrapper",
                ));
            }
        }

        // Rule 3: unsafe needs SAFETY. `# Safety` doc sections (the
        // rustdoc convention for `unsafe fn`) count too.
        if mentions_unsafe(code)
            && !has_marker(&lines, idx, "SAFETY:")
            && !has_marker(&lines, idx, "# Safety")
        {
            out.push(Finding::new(
                "unsafe-needs-safety-comment",
                Severity::Error,
                rel,
                lineno,
                "`unsafe` without a `// SAFETY:` comment within 3 lines",
            ));
        }
    }

    // Rule 4 needs multi-line region tracking; separate pass. It applies
    // to test code too: a handler that blocks deadlocks tests as well.
    lint_handler_regions(rel, &lines, out);
}

/// Rule 4: scans the argument region of each `Completion::handler(..)`
/// call — from its opening paren to the matching close, tracked by paren
/// depth on comment-stripped text — for blocking calls. String literals
/// containing parens could skew the region; the codebase has none in
/// handler arguments.
fn lint_handler_regions(rel: &str, lines: &[&str], out: &mut Vec<Finding>) {
    let mut start = 0usize;
    while start < lines.len() {
        let first = strip_line_comment(lines[start]);
        let Some(open) = HANDLER_INSTALLERS
            .iter()
            .find_map(|p| first.find(p).map(|i| i + p.len()))
        else {
            start += 1;
            continue;
        };
        let mut depth = 1i32;
        let mut line = start;
        let mut from = open;
        while line < lines.len() && depth > 0 {
            let code = strip_line_comment(lines[line]);
            let tail = code.get(from..).unwrap_or("");
            // Byte offset where the handler argument region closes on
            // this line (end of line while the call is still open).
            let mut end = tail.len();
            for (off, c) in tail.char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = off;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let region = &tail[..end];
            if let Some(call) = BANNED_IN_HANDLER.iter().find(|p| region.contains(*p)) {
                if !has_marker(lines, line, "handler-ok:") {
                    out.push(Finding::new(
                        "blocking-wait-in-handler",
                        Severity::Error,
                        rel,
                        line + 1,
                        format!(
                            "`{}` inside a completion handler: handlers run in \
                             the progress context and must not block (see the \
                             reentrancy rules in core::completion; waive a \
                             false positive with `// handler-ok: <why>`)",
                            call.trim_matches(|c: char| c == '.' || c == '('),
                        ),
                    ));
                }
            }
            from = 0;
            line += 1;
        }
        start += 1;
    }
}

/// Banned `std::sync` primitives mentioned on this (comment-stripped)
/// line, either via a qualified path (`std::sync::RwLock`,
/// `sync::Mutex<...>`) or inside a `use std::sync::{ ... }` list —
/// including lists rustfmt split across lines, tracked via
/// `in_std_sync_list`.
fn banned_std_sync(code: &str, in_std_sync_list: &mut bool) -> Vec<&'static str> {
    // The portion of this line that sits inside a std::sync use-list.
    let list_region = if *in_std_sync_list {
        let end = code.find('}').unwrap_or(code.len());
        if end < code.len() {
            *in_std_sync_list = false;
        }
        Some(&code[..end])
    } else if let Some(pos) = code.find("std::sync::{") {
        let after = &code[pos + "std::sync::{".len()..];
        let end = after.find('}').unwrap_or(after.len());
        if end == after.len() {
            *in_std_sync_list = true;
        }
        Some(&after[..end])
    } else {
        None
    };

    let mut hits = Vec::new();
    for prim in BANNED_STD_SYNC {
        let direct = code.contains(&format!("std::sync::{prim}"));
        // `sync::Mutex<u32>`-style partially-qualified generics; Condvar
        // and Barrier are not generic, so only the path form exists.
        let qualified = matches!(*prim, "Mutex" | "RwLock")
            && code.contains(&format!("sync::{prim}<"))
            && !code.contains(&format!("sync_shim::{prim}<"));
        let listed = list_region.is_some_and(|r| {
            r.split(|c: char| !c.is_alphanumeric() && c != '_')
                .any(|ident| ident == *prim)
        });
        if direct || qualified || listed {
            hits.push(*prim);
        }
    }
    hits
}

/// Index of the first line of trailing test code (`#[cfg(test)]` or
/// `mod tests`), or `usize::MAX` if none. Heuristic: everything after the
/// first test marker is treated as test code — in this codebase test
/// modules sit at the end of each file.
fn test_code_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| {
            let t = l.trim_start();
            t.starts_with("#[cfg(test)]") || t.starts_with("mod tests")
        })
        .unwrap_or(usize::MAX)
}

/// Strips a trailing `//` comment so commented-out code is not linted.
/// Comment markers inside string literals would confuse this; the codebase
/// has none on the linted patterns.
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// True if `marker` appears on this line or within [`COMMENT_LOOKBACK`]
/// preceding lines (typically inside a comment).
fn has_marker(lines: &[&str], idx: usize, marker: &str) -> bool {
    has_marker_within(lines, idx, marker, COMMENT_LOOKBACK)
}

fn has_marker_within(lines: &[&str], idx: usize, marker: &str, lookback: usize) -> bool {
    let lo = idx.saturating_sub(lookback);
    lines[lo..=idx].iter().any(|l| l.contains(marker))
}

/// True if the (comment-stripped) line uses the `unsafe` keyword — as a
/// block, fn, impl or trait — excluding negative mentions like
/// `unsafe_op_in_unsafe_fn` or `forbid(unsafe_code)`.
fn mentions_unsafe(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("unsafe") {
        let before_ok = rest[..pos]
            .chars()
            .next_back()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        let after = &rest[pos + "unsafe".len()..];
        let after_ok = after
            .chars()
            .next()
            .is_none_or(|c| !c.is_alphanumeric() && c != '_');
        // `unsafe` as a lint name appears in attributes like
        // `deny(unsafe_op_in_unsafe_fn)` / `forbid(unsafe_code)`; those are
        // caught by before/after_ok except bare `(unsafe)` forms, which the
        // codebase does not use.
        if before_ok && after_ok && !code.contains("unsafe_code") {
            return true;
        }
        rest = &rest[pos + "unsafe".len()..];
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, text: &str) -> Vec<String> {
        let mut v = Vec::new();
        lint_file(rel, text, &mut v);
        v.iter().map(|x| x.rule.to_string()).collect()
    }

    #[test]
    fn missing_allow_list_and_hot_path_entries_are_errors() {
        let root = crate::workspace_root();
        let stale = stale_paths(
            &root,
            &["crates/nm-metrics/src/ring.rs", "crates/gone/src/ring.rs"],
            &["crates/core", "crates/gone"],
        );
        let messages: Vec<&str> = stale.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(stale.len(), 2, "{messages:?}");
        assert!(stale.iter().all(|f| f.rule == "stale-lint-path"));
        assert!(messages[0].contains("`crates/gone/src/ring.rs`"));
        assert!(messages[1].contains("`crates/gone`"));
        assert!(stale_paths(&root, RELAXED_ALLOW_LIST, HOT_PATH_CRATES).is_empty());
    }

    #[test]
    fn relaxed_without_reason_flagged() {
        let src = "fn f(a: &std::sync::atomic::AtomicU32) {\n    a.load(Ordering::Relaxed);\n}\n";
        assert_eq!(
            lint_str("crates/nm-sync/src/x.rs", src),
            vec!["relaxed-needs-reason"]
        );
    }

    #[test]
    fn relaxed_with_reason_ok() {
        let src = "// relaxed: monotonic counter, only read for stats\nlet v = a.load(Ordering::Relaxed);\n";
        assert!(lint_str("crates/nm-sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn std_mutex_flagged_in_hot_path_only() {
        let src =
            "use std::sync::Mutex;\nstatic M: std::sync::Mutex<u32> = std::sync::Mutex::new(0);\n";
        assert!(lint_str("crates/nm-sync/src/x.rs", src)
            .iter()
            .all(|r| r == "hot-path-std-mutex"));
        assert!(lint_str("crates/nm-bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_code_exempt_from_hot_path_rules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| ()); }\n}\n";
        assert!(lint_str("crates/nm-sync/src/x.rs", src).is_empty());
    }

    #[test]
    fn rwlock_condvar_barrier_flagged_in_hot_path_only() {
        for src in [
            "use std::sync::RwLock;\n",
            "static C: std::sync::Condvar = std::sync::Condvar::new();\n",
            "fn f(b: &std::sync::Barrier) { b.wait(); }\n",
            "fn f() -> sync::RwLock<u32> { todo!() }\n",
        ] {
            assert_eq!(
                lint_str("crates/nm-progress/src/x.rs", src),
                vec!["hot-path-std-sync-primitive"],
                "source: {src}"
            );
            assert!(lint_str("crates/nm-bench/src/x.rs", src).is_empty());
        }
    }

    #[test]
    fn use_list_form_is_caught() {
        // The form that historically dodged the lint: banned primitives
        // hiding inside a brace list.
        let src = "use std::sync::{Arc, Barrier};\n";
        assert_eq!(
            lint_str("crates/core/src/x.rs", src),
            vec!["hot-path-std-sync-primitive"]
        );
        let src = "use std::sync::{Arc, Mutex, OnceLock};\n";
        assert_eq!(
            lint_str("crates/core/src/x.rs", src),
            vec!["hot-path-std-mutex"]
        );
        // Benign list members do not trip the rule, nor do other crates'
        // look-alike paths (sync_shim, parking_lot, loom).
        assert!(lint_str("crates/core/src/x.rs", "use std::sync::{Arc, OnceLock};\n").is_empty());
        assert!(lint_str(
            "crates/nm-sync/src/x.rs",
            "pub use loom::sync::{Condvar, Mutex};\nuse crate::sync_shim::{Condvar, Mutex};\n"
        )
        .is_empty());
    }

    #[test]
    fn multi_line_use_list_is_caught() {
        let src = "use std::sync::{\n    Arc,\n    Condvar,\n    OnceLock,\n};\nfn after() { let Barrier = 1; }\n";
        let rules = lint_str("crates/nm-fabric/src/x.rs", src);
        // Condvar inside the split list is flagged; the `Barrier` ident
        // after the list closed is not (state must reset on `}`).
        assert_eq!(rules, vec!["hot-path-std-sync-primitive"]);
    }

    #[test]
    fn std_sync_marker_waives_primitive_ban() {
        let src = "// std-sync: diagnostic-only guard, must not recurse into lockcheck\n\
                   use std::sync::{Mutex, OnceLock};\n";
        assert!(lint_str("crates/nm-sync/src/x.rs", src).is_empty());
        // The waiver does not extend to bare spawn.
        let src = "// std-sync: justified lock\nfn f() { std::thread::spawn(|| ()); }\n";
        assert_eq!(
            lint_str("crates/nm-sync/src/x.rs", src),
            vec!["hot-path-bare-spawn"]
        );
    }

    #[test]
    fn unsafe_without_safety_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(
            lint_str("crates/core/src/x.rs", src),
            vec!["unsafe-needs-safety-comment"]
        );
        let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}\n";
        assert!(lint_str("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn lint_attributes_not_flagged_as_unsafe() {
        let src = "#![deny(unsafe_op_in_unsafe_fn)]\n#![forbid(unsafe_code)]\n";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn blocking_wait_in_handler_flagged() {
        let src = "fn f() {\n\
                   let c = Completion::handler(move |ev| {\n\
                   \x20   flag.wait(WaitStrategy::Busy);\n\
                   });\n\
                   }\n";
        assert_eq!(
            lint_str("crates/nm-bench/src/x.rs", src),
            vec!["blocking-wait-in-handler"]
        );
        let src = "let c = Completion::handler(|_| { std::thread::park(); });\n";
        assert_eq!(
            lint_str("crates/nm-bench/src/x.rs", src),
            vec!["blocking-wait-in-handler"]
        );
        let src = "let c = Completion::handler(|_| { sem.acquire_blocking(); });\n";
        assert_eq!(
            lint_str("crates/nm-bench/src/x.rs", src),
            vec!["blocking-wait-in-handler"]
        );
    }

    #[test]
    fn handler_rule_applies_to_test_code_too() {
        let src = "#[cfg(test)]\nmod tests {\n\
                   fn t() { let c = Completion::handler(|_| { q.wait(s); }); }\n\
                   }\n";
        assert_eq!(
            lint_str("crates/core/src/x.rs", src),
            vec!["blocking-wait-in-handler"]
        );
    }

    #[test]
    fn blocking_calls_outside_handler_region_ok() {
        // The wait happens after the handler argument closed.
        let src = "let c = Completion::handler(|_| done());\n\
                   core.wait(&req, WaitStrategy::Busy).unwrap();\n";
        assert!(lint_str("crates/nm-bench/src/x.rs", src).is_empty());
        // Non-handler code full of waits is rule 4's no-op case.
        let src = "fn f() { core.wait(&req, s).unwrap(); }\n";
        assert!(lint_str("crates/nm-bench/src/x.rs", src).is_empty());
    }

    #[test]
    fn handler_ok_marker_waives_handler_rule() {
        let src = "let c = Completion::handler(|ev| {\n\
                   \x20   // handler-ok: Stats::wait is a nonblocking counter read\n\
                   \x20   stats.wait(ev.id());\n\
                   });\n";
        assert!(lint_str("crates/nm-bench/src/x.rs", src).is_empty());
    }
}
