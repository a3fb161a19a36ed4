//! Runtime lock-order validation ("lockdep-lite").
//!
//! With the `lockcheck` feature enabled, every acquisition of a lock that
//! carries a *class* name records an ordering edge `held-class →
//! acquired-class` in a global graph, and every acquisition is checked
//! against that graph: if taking the lock would close a cycle (an AB/BA
//! inversion, or a longer one), the process panics immediately with
//! **both** conflicting acquisition stacks — the one being taken now and
//! the one that established the reverse order earlier. Deadlocks are thus
//! caught the first time the two code paths ever run, not the one time in
//! a million they actually interleave.
//!
//! Classes are static strings (e.g. `"core.collect"`, `"core.driver"`);
//! ordering is tracked per *class*, like Linux's lockdep, so one
//! validated run covers every instance. Acquiring two locks of the same
//! class at once is reported as a recursive acquisition — no class in the
//! nomad stack legitimately nests with itself (the section discipline in
//! `nm-core::locking` forbids it). The exception is *shared* classes
//! ([`acquired_shared`]): many distinct locks deliberately share one
//! class name (e.g. the `core.*.overflow` classes covering gate indices
//! beyond the static class tables), so same-class nesting is allowed for
//! them while cross-class ordering is still validated.
//!
//! [`dump_graph_json`] exports the edges observed so far, which is how
//! `cargo xtask analyze-locks` cross-checks its static
//! may-hold-while-acquiring graph against runtime evidence.
//!
//! Without the feature every function here is an empty `#[inline]` stub,
//! so the hot path costs nothing in normal builds. Enable it for tests
//! and debugging:
//!
//! ```sh
//! cargo test -p nm-sync -p nm-core -p nm-progress --features lockcheck
//! ```
//!
//! Backtraces honour `RUST_BACKTRACE=1`; without it the panic still
//! reports both held-lock stacks, just without source frames.

/// Records that the current thread acquired a lock of `class`, after
/// validating the acquisition against the global lock-order graph.
///
/// # Panics
///
/// Panics (feature `lockcheck` only) if the acquisition closes an
/// ordering cycle or recursively takes an already-held class.
#[inline]
pub fn acquired(class: &'static str) {
    #[cfg(feature = "lockcheck")]
    imp::acquire(class, false);
    #[cfg(not(feature = "lockcheck"))]
    let _ = class;
}

/// Like [`acquired`], but for *shared* (multi-instance) classes: many
/// distinct locks share the class name, so holding two of them at once is
/// legitimate and is not reported as a recursive acquisition. Ordering
/// against *other* classes is validated exactly as for [`acquired`].
///
/// Used for the lock-class overflow pools in `nm-core::locking`, where
/// every gate index beyond the static class table maps to one per-family
/// class (`core.collect.tx.overflow`, ...).
///
/// # Panics
///
/// Panics (feature `lockcheck` only) if the acquisition closes an
/// ordering cycle against a different class.
#[inline]
pub fn acquired_shared(class: &'static str) {
    #[cfg(feature = "lockcheck")]
    imp::acquire(class, true);
    #[cfg(not(feature = "lockcheck"))]
    let _ = class;
}

/// Records that the current thread released a lock of `class`.
#[inline]
pub fn released(class: &'static str) {
    #[cfg(feature = "lockcheck")]
    imp::released(class);
    #[cfg(not(feature = "lockcheck"))]
    let _ = class;
}

/// `true` when lock-order validation is compiled in.
#[inline]
pub fn enabled() -> bool {
    cfg!(feature = "lockcheck")
}

/// The lock classes the current thread holds, outermost first. Empty
/// without the feature; useful in tests and diagnostics.
pub fn held_classes() -> Vec<&'static str> {
    #[cfg(feature = "lockcheck")]
    {
        imp::held_classes()
    }
    #[cfg(not(feature = "lockcheck"))]
    {
        Vec::new()
    }
}

/// Serializes every ordering edge observed so far as a JSON document:
///
/// ```json
/// {"schema": 1, "enabled": true,
///  "edges": [{"from": "core.api-global", "to": "core.cq",
///             "held": ["core.api-global"]}]}
/// ```
///
/// `held` is the full held stack (outermost first) when the edge was
/// first recorded. Edges are sorted by `(from, to)` so the output is
/// deterministic for a given workload. Backtraces are not included —
/// consumers (`cargo xtask analyze-locks --runtime-graph`) only diff the
/// edge set. Without the `lockcheck` feature the document is
/// `{"schema": 1, "enabled": false, "edges": []}`.
pub fn dump_graph_json() -> String {
    #[cfg(feature = "lockcheck")]
    {
        imp::dump_graph_json()
    }
    #[cfg(not(feature = "lockcheck"))]
    {
        "{\"schema\": 1, \"enabled\": false, \"edges\": []}\n".to_string()
    }
}

#[cfg(feature = "lockcheck")]
mod imp {
    use std::backtrace::Backtrace;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    // std-sync: the graph guard is lockcheck's own infrastructure — it
    // must not itself be a classed lock (it would recurse into the
    // checker), and PoisonError unwrapping keeps panics propagating.
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Where an ordering edge was first established.
    struct EdgeOrigin {
        /// The full held stack at the time (outermost first).
        held: Vec<&'static str>,
        backtrace: String,
    }

    #[derive(Default)]
    struct Graph {
        /// `edges[a][b]` exists ⇔ some thread acquired class `b` while
        /// holding class `a` (i.e. the validated order is `a` before `b`).
        edges: HashMap<&'static str, HashMap<&'static str, EdgeOrigin>>,
    }

    impl Graph {
        /// A path `from →* to` through recorded edges, if one exists.
        fn path(&self, from: &'static str, to: &'static str) -> Option<Vec<&'static str>> {
            let mut stack = vec![(from, vec![from])];
            let mut seen: HashSet<&'static str> = HashSet::new();
            while let Some((node, path)) = stack.pop() {
                if node == to {
                    return Some(path);
                }
                if !seen.insert(node) {
                    continue;
                }
                if let Some(next) = self.edges.get(node) {
                    for &n in next.keys() {
                        let mut p = path.clone();
                        p.push(n);
                        stack.push((n, p));
                    }
                }
            }
            None
        }
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    thread_local! {
        /// Lock classes held by this thread, outermost first.
        static HELD: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn held_classes() -> Vec<&'static str> {
        HELD.with(|h| h.borrow().clone())
    }

    pub(super) fn acquire(class: &'static str, shared: bool) {
        let held = held_classes();
        if !shared && held.contains(&class) {
            panic!(
                "lockcheck: recursive acquisition of lock class {class:?}\n\
                 held stack (outermost first): {held:?}\n\
                 acquisition backtrace:\n{}",
                Backtrace::capture()
            );
        }
        if held.iter().any(|&h| h != class) {
            let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
            for &h in &held {
                // Shared classes may legitimately nest with themselves;
                // a self-edge would be reported as a one-node cycle.
                if h == class {
                    continue;
                }
                // A known, already-validated edge needs no re-check.
                if g.edges.get(h).is_some_and(|m| m.contains_key(class)) {
                    continue;
                }
                // Adding h → class closes a cycle iff class →* h already.
                if let Some(path) = g.path(class, h) {
                    let origin = g
                        .edges
                        .get(path[0])
                        .and_then(|m| m.get(path[1]))
                        .expect("path edge must exist");
                    let msg = format!(
                        "lockcheck: lock-order cycle detected\n\
                         \n\
                         this thread acquires {class:?} while holding {held:?}\n\
                         acquisition backtrace:\n{bt_now}\n\
                         \n\
                         but the opposite order {path:?} was established earlier:\n\
                         {first:?} was held (stack {origin_held:?}) when {second:?} was acquired at:\n\
                         {bt_then}\n\
                         \n\
                         one of the two paths must reorder its locks",
                        bt_now = Backtrace::capture(),
                        path = path,
                        first = path[0],
                        second = path[1],
                        origin_held = origin.held,
                        bt_then = origin.backtrace,
                    );
                    drop(g);
                    panic!("{msg}");
                }
                g.edges.entry(h).or_default().insert(
                    class,
                    EdgeOrigin {
                        held: held.clone(),
                        backtrace: Backtrace::capture().to_string(),
                    },
                );
            }
        }
        HELD.with(|h| h.borrow_mut().push(class));
    }

    pub(super) fn released(class: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|&c| c == class) {
                held.remove(pos);
            }
        });
    }

    pub(super) fn dump_graph_json() -> String {
        let g = graph().lock().unwrap_or_else(PoisonError::into_inner);
        let mut edges: Vec<(&'static str, &'static str, &Vec<&'static str>)> = Vec::new();
        for (&from, tos) in &g.edges {
            for (&to, origin) in tos {
                edges.push((from, to, &origin.held));
            }
        }
        edges.sort();
        let mut out = String::from("{\"schema\": 1, \"enabled\": true, \"edges\": [");
        for (i, (from, to, held)) in edges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Class names are plain &'static str literals; {:?} gives
            // JSON-compatible quoting for them.
            out.push_str(&format!(
                "\n  {{\"from\": {from:?}, \"to\": {to:?}, \"held\": ["
            ));
            for (j, h) in held.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{h:?}"));
            }
            out.push_str("]}");
        }
        out.push_str("\n]}\n");
        out
    }
}
