//! `cargo xtask analyze-locks`: whole-program static lock-order analysis.
//!
//! The runtime `lockcheck` feature (nm-sync) validates lock ordering on
//! the paths tests actually execute; this pass covers the paths they
//! don't. It lexes every production source file ([`crate::rslex`] — no
//! external parser dependencies), extracts every classed acquisition
//! site, simulates guard scopes, and builds a conservative, call-graph-
//! aware *may-hold-while-acquiring* graph over lock **families**
//! ([`crate::lockgraph`]). It then reports:
//!
//! * **cycles** (potential deadlocks) with both acquisition stacks,
//! * **soundness diffs** — runtime-observed edges the static pass missed
//!   (a bug in this analyzer, hard CI failure),
//! * **coverage gaps** — statically-possible edges never exercised at
//!   runtime (ranked; informational), and
//! * **docs drift** — the generated hierarchy section of
//!   `docs/CONCURRENCY.md` must match the current graph.
//!
//! ## What counts as an acquisition
//!
//! * `*.enter_api()` — the API-entry guard, class `core.api-global`.
//! * `*.enter(SectionKind::X(..))` — policy sections; the variant maps to
//!   the family (`CollectTx` → `core.collect.tx`, ...). The mapping
//!   mirrors `LockPolicy::new`; drift is caught by the runtime
//!   cross-check.
//! * `recv.field.lock()` where `field` was bound to a class by a
//!   `with_class("...")` initializer anywhere in the tree (e.g.
//!   `cq_items: SpinLock::with_class("core.cq", ..)` makes every
//!   `.cq_items.lock()` an acquisition of `core.cq`).
//!
//! A `let g = <pure receiver chain>.lock();`-shaped statement binds a
//! guard that stays held until `drop(g)` or scope exit; any other
//! acquisition (`*x.lock() = v`, `f(&*x.lock())`) is a statement
//! temporary: it records edges against the currently-held set but is
//! never itself held across a call.
//!
//! ## Deliberate approximations
//!
//! * Calls resolve by name (method receiver types are unknown without
//!   type inference): `self.f()` prefers the same impl block, `T::f()`
//!   prefers `impl T`, everything else matches any function named `f`.
//!   Over-approximation only creates extra (info-level) edges.
//! * A bare `f(..)` whose `f` is bound by `let` in the enclosing body is
//!   a local closure call, not a workspace function: it is not resolved
//!   (the closure's body is scanned in place, where it is written).
//! * The `_vci` method calls of `dyn Driver` (`.poll_vci()`,
//!   `.post_vci()`, `.can_post_vci()`, …) are assumed leaf: they are NIC
//!   operations whose implementations take no classed locks. Their
//!   names are distinct from `PollSource::poll`, which re-enters the
//!   whole library and is resolved like any other call. The runtime
//!   cross-check guards this assumption: if a NIC ever takes a classed
//!   lock under a held one, the observed edge fails the soundness diff.
//! * `tests/`, `benches/`, `examples/`, `#[cfg(test)]` items and the
//!   lock-primitive internals (`nm-sync/src`, `core/src/locking.rs`) are
//!   excluded; the analysis models policy guards at their call sites.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::findings::{Finding, OutputOpts, Severity};
use crate::lockgraph::{
    self, cross_check, family_of, parse_runtime_graph, EdgeWitness, FamilyInfo, Site, StaticGraph,
};
use crate::rslex::{lex, Tok, TokKind};

/// Method names assumed to acquire nothing (see the module docs).
const ASSUMED_LEAF: &[&str] = &[
    "poll_vci",
    "post_vci",
    "can_post_vci",
    "next_event_ns_vci",
    "num_vcis",
];

/// `SectionKind` variant → lock family (mirrors `LockPolicy::new`).
const SECTION_FAMILIES: &[(&str, &str)] = &[
    ("Global", "core.api-global"),
    ("CollectTx", "core.collect.tx"),
    ("CollectRx", "core.collect.rx"),
    ("Driver", "core.driver"),
];

const API_FAMILY: &str = "core.api-global";

/// Identifiers that look like calls but are control flow.
const NOT_CALLS: &[&str] = &["if", "while", "for", "match", "return", "loop", "in", "as"];

// ---------------------------------------------------------------------------
// Extraction data model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Held {
    family: String,
    line: usize,
}

#[derive(Debug)]
struct Acq {
    family: String,
    line: usize,
    held: Vec<Held>,
}

#[derive(Debug, PartialEq)]
enum CallKind {
    /// `self.f(..)` — exactly `self` as the receiver.
    SelfMethod,
    /// `recv.f(..)` — any other method call.
    Method,
    /// `T::f(..)`.
    TypePath(String),
    /// `f(..)`.
    Free,
}

#[derive(Debug)]
struct CallSite {
    name: String,
    kind: CallKind,
    line: usize,
    held: Vec<Held>,
}

#[derive(Debug)]
struct FnInfo {
    /// `Type::name` or bare `name`.
    qualified: String,
    name: String,
    impl_type: Option<String>,
    file: String,
    acqs: Vec<Acq>,
    calls: Vec<CallSite>,
}

#[derive(Debug, Default)]
struct Analysis {
    fns: Vec<FnInfo>,
    families: BTreeMap<String, FamilyInfo>,
    /// Field/binding name → concrete class (from `with_class` inits).
    bindings: BTreeMap<String, String>,
    warnings: Vec<Finding>,
    files_scanned: usize,
}

// ---------------------------------------------------------------------------
// Token utilities
// ---------------------------------------------------------------------------

/// Index of the punct matching the opener at `open` (`(`/`)`, `[`/`]`,
/// `{`/`}`); `toks.len()` if unbalanced.
fn matching(toks: &[Tok], open: usize, oc: char, cc: char) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is(oc) {
            depth += 1;
        } else if t.is(cc) {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len()
}

/// Removes `#[cfg(test)]`-gated items (functions, impls, and `mod x { .. }`
/// blocks) from the token stream; returns the surviving tokens plus the
/// names of `#[cfg(test)] mod x;` out-of-line module declarations so their
/// files can be skipped too.
fn strip_cfg_test(toks: &[Tok]) -> (Vec<Tok>, Vec<String>) {
    let mut out = Vec::with_capacity(toks.len());
    let mut test_mods = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is('#') && toks.get(i + 1).is_some_and(|t| t.is('[')) {
            let close = matching(toks, i + 1, '[', ']');
            let content = &toks[i + 2..close.min(toks.len())];
            let is_test_cfg = content.first().and_then(Tok::ident) == Some("cfg")
                && content.iter().any(|t| t.ident() == Some("test"));
            if is_test_cfg {
                // Skip any further attributes, then the whole item.
                let mut j = close + 1;
                while j < toks.len()
                    && toks[j].is('#')
                    && toks.get(j + 1).is_some_and(|t| t.is('['))
                {
                    j = matching(toks, j + 1, '[', ']') + 1;
                }
                let item_start = j;
                while j < toks.len() {
                    if toks[j].is(';') {
                        // Declaration form: `mod name;` (or use/static).
                        if toks[item_start].ident() == Some("mod") {
                            if let Some(name) = toks.get(item_start + 1).and_then(Tok::ident) {
                                test_mods.push(name.to_string());
                            }
                        }
                        j += 1;
                        break;
                    }
                    if toks[j].is('{') {
                        j = matching(toks, j, '{', '}') + 1;
                        break;
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
            // Not test-gated: keep the attribute tokens verbatim.
            out.extend_from_slice(&toks[i..=close.min(toks.len() - 1)]);
            i = close + 1;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    (out, test_mods)
}

// ---------------------------------------------------------------------------
// Class-definition scan
// ---------------------------------------------------------------------------

/// Records lock-class definitions: `with_class("lit")` /
/// `with_shared_class("lit")` (plus the binding they initialize),
/// `classed_spins(.., "family.overflow")` and `lock_class_table!("prefix"; ..)`.
fn scan_defs(
    toks: &[Tok],
    families: &mut BTreeMap<String, FamilyInfo>,
    bindings: &mut BTreeMap<String, String>,
) {
    for i in 0..toks.len() {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        match name {
            "with_class" | "with_shared_class" => {
                if !toks.get(i + 1).is_some_and(|t| t.is('(')) {
                    continue;
                }
                let Some(TokKind::Str(class)) = toks.get(i + 2).map(|t| &t.kind) else {
                    continue; // e.g. the constructor definition itself
                };
                record_class(families, class);
                // Binding: `field: Type::with_class("..")` or
                // `let name = Type::with_class("..")`.
                let mut p = i;
                if p >= 3
                    && toks[p - 1].is(':')
                    && toks[p - 2].is(':')
                    && toks[p - 3].ident().is_some()
                {
                    p -= 3; // skip the `Type::` path segment
                }
                // Field init (`name: ...with_class`) and let binding
                // (`name = ...with_class`) record the same mapping.
                let is_field = p >= 2 && toks[p - 1].is(':') && !toks[p - 2].is(':');
                let is_let = p >= 2 && toks[p - 1].is('=');
                if is_field || is_let {
                    if let Some(name) = toks[p - 2].ident() {
                        bindings.insert(name.to_string(), class.clone());
                    }
                }
            }
            "classed_spins" => {
                if !toks.get(i + 1).is_some_and(|t| t.is('(')) {
                    continue;
                }
                let close = matching(toks, i + 1, '(', ')');
                for t in &toks[i + 2..close.min(toks.len())] {
                    if let TokKind::Str(s) = &t.kind {
                        record_class(families, s);
                        families.entry(family_of(s)).or_default().indexed = true;
                    }
                }
            }
            "lock_class_table" => {
                let bang = toks.get(i + 1).is_some_and(|t| t.is('!'));
                if let (true, Some(TokKind::Str(prefix))) = (bang, toks.get(i + 3).map(|t| &t.kind))
                {
                    families.entry(prefix.clone()).or_default().indexed = true;
                }
            }
            _ => {}
        }
    }
}

fn record_class(families: &mut BTreeMap<String, FamilyInfo>, class: &str) {
    let fam = family_of(class);
    let info = families.entry(fam.clone()).or_default();
    if class == fam {
        info.classes.insert(class.to_string());
    } else if class.ends_with(".overflow") {
        info.overflow = true;
    } else {
        info.indexed = true;
    }
}

// ---------------------------------------------------------------------------
// Function-body scan
// ---------------------------------------------------------------------------

struct HeldEntry {
    binding: String,
    family: String,
    line: usize,
    depth: usize,
}

struct CurFn {
    info: FnInfo,
    body_depth: usize,
    held: Vec<HeldEntry>,
    /// Names bound by `let` in this body. `name(..)` on one of them
    /// calls a local closure or fn value, never a workspace function.
    locals: BTreeSet<String>,
}

/// Walks one file's (test-stripped) tokens, collecting per-function
/// acquisition and call sites with their held-lock context.
fn scan_fns(
    rel: &str,
    toks: &[Tok],
    bindings: &BTreeMap<String, String>,
    fns: &mut Vec<FnInfo>,
    warnings: &mut Vec<Finding>,
) {
    let mut depth = 0usize;
    let mut impl_stack: Vec<(usize, String)> = Vec::new();
    let mut pending_impl: Option<String> = None;
    let mut pending_fn: Option<String> = None;
    let mut cur: Option<CurFn> = None;

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is('{') {
            depth += 1;
            if let Some(ty) = pending_impl.take() {
                impl_stack.push((depth, ty));
            } else if let Some(name) = pending_fn.take() {
                if cur.is_none() {
                    let impl_type = impl_stack.last().map(|(_, t)| t.clone());
                    let qualified = match &impl_type {
                        Some(t) => format!("{t}::{name}"),
                        None => name.clone(),
                    };
                    cur = Some(CurFn {
                        info: FnInfo {
                            qualified,
                            name,
                            impl_type,
                            file: rel.to_string(),
                            acqs: Vec::new(),
                            calls: Vec::new(),
                        },
                        body_depth: depth,
                        held: Vec::new(),
                        locals: BTreeSet::new(),
                    });
                }
            }
            i += 1;
            continue;
        }
        if t.is('}') {
            depth = depth.saturating_sub(1);
            if let Some(c) = &mut cur {
                c.held.retain(|h| h.depth <= depth);
                if depth < c.body_depth {
                    let done = cur.take().unwrap();
                    fns.push(done.info);
                }
            }
            if impl_stack.last().is_some_and(|(d, _)| depth < *d) {
                impl_stack.pop();
            }
            i += 1;
            continue;
        }
        if t.is(';') {
            // A `;` before any `{` cancels a pending signature (trait
            // method declaration) or impl-less item.
            pending_fn = None;
            i += 1;
            continue;
        }
        let Some(name) = t.ident() else {
            i += 1;
            continue;
        };
        match name {
            "impl" if cur.is_none() => {
                pending_impl = parse_impl_type(toks, i);
                i += 1;
                continue;
            }
            "fn" => {
                if cur.is_none() {
                    pending_fn = toks.get(i + 1).and_then(Tok::ident).map(String::from);
                }
                i += 2;
                continue;
            }
            _ => {}
        }
        let Some(c) = &mut cur else {
            i += 1;
            continue;
        };
        if name == "let" {
            let bound = match toks.get(i + 1).and_then(Tok::ident) {
                Some("mut") => toks.get(i + 2).and_then(Tok::ident),
                other => other,
            };
            if let Some(bound) = bound {
                c.locals.insert(bound.to_string());
            }
            i += 1;
            continue;
        }
        let is_call_shape = toks.get(i + 1).is_some_and(|t| t.is('('));
        if !is_call_shape {
            i += 1;
            continue;
        }
        let line = t.line;
        let prev_dot = i >= 1 && toks[i - 1].is('.');
        // Acquisition patterns first — they must not double as calls.
        if name == "enter_api" && prev_dot {
            handle_acquisition(c, toks, i, API_FAMILY.to_string(), line, depth);
            i += 1;
            continue;
        }
        if name == "enter" && prev_dot {
            // Expect `.enter(SectionKind::Variant ...)`.
            let fam = if toks.get(i + 2).and_then(Tok::ident) == Some("SectionKind")
                && toks.get(i + 3).is_some_and(|t| t.is(':'))
            {
                toks.get(i + 5)
                    .and_then(Tok::ident)
                    .and_then(|v| SECTION_FAMILIES.iter().find(|(k, _)| *k == v))
                    .map(|(_, f)| f.to_string())
            } else {
                None
            };
            match fam {
                Some(fam) => handle_acquisition(c, toks, i, fam, line, depth),
                None => warnings.push(Finding::new(
                    "lock-unresolved-section",
                    Severity::Warning,
                    rel,
                    line,
                    "`.enter(..)` with a non-literal SectionKind — the static \
                     analysis cannot classify this acquisition"
                        .to_string(),
                )),
            }
            i += 1;
            continue;
        }
        if name == "lock" && prev_dot && i >= 2 {
            if let Some(field) = toks[i - 2].ident() {
                if let Some(class) = bindings.get(field) {
                    handle_acquisition(c, toks, i, family_of(class), line, depth);
                    i += 1;
                    continue;
                }
            }
            i += 1;
            continue;
        }
        if name == "drop" && !prev_dot {
            if let (Some(var), true) = (
                toks.get(i + 2).and_then(Tok::ident),
                toks.get(i + 3).is_some_and(|t| t.is(')')),
            ) {
                if let Some(pos) = c.held.iter().rposition(|h| h.binding == var) {
                    c.held.remove(pos);
                }
            }
            i += 1;
            continue;
        }
        // Ordinary call site.
        if NOT_CALLS.contains(&name) || (i >= 1 && toks[i - 1].ident() == Some("fn")) {
            i += 1;
            continue;
        }
        let kind = if prev_dot {
            if i >= 2
                && toks[i - 2].ident() == Some("self")
                && !(i >= 3 && (toks[i - 3].is('.') || toks[i - 3].is(':')))
            {
                CallKind::SelfMethod
            } else {
                CallKind::Method
            }
        } else if i >= 3
            && toks[i - 1].is(':')
            && toks[i - 2].is(':')
            && toks[i - 3].ident().is_some()
        {
            CallKind::TypePath(toks[i - 3].ident().unwrap().to_string())
        } else if c.locals.contains(name) {
            // A let-bound closure: its body was scanned in place, and
            // its name must not resolve to a same-named workspace fn.
            i += 1;
            continue;
        } else {
            CallKind::Free
        };
        c.info.calls.push(CallSite {
            name: name.to_string(),
            kind,
            line,
            held: snapshot(&c.held),
        });
        i += 1;
    }
    if let Some(done) = cur.take() {
        fns.push(done.info); // unbalanced braces: salvage what we have
    }
}

fn snapshot(held: &[HeldEntry]) -> Vec<Held> {
    held.iter()
        .map(|h| Held {
            family: h.family.clone(),
            line: h.line,
        })
        .collect()
}

/// Records an acquisition at token `i` (the method name) and, when the
/// statement is a `let guard = <pure receiver chain>.m(..);`, pushes the
/// guard onto the held stack.
fn handle_acquisition(
    c: &mut CurFn,
    toks: &[Tok],
    i: usize,
    family: String,
    line: usize,
    depth: usize,
) {
    c.info.acqs.push(Acq {
        family: family.clone(),
        line,
        held: snapshot(&c.held),
    });
    // Walk back over the receiver chain: (`.` Ident)* to the root ident.
    let mut root = i;
    while root >= 2 && toks[root - 1].is('.') && toks[root - 2].ident().is_some() {
        root -= 2;
    }
    // `let [mut] name = chain.m(..);` — guard binding.
    if root < 2 || !toks[root - 1].is('=') {
        return;
    }
    let Some(binding) = toks[root - 2].ident() else {
        return;
    };
    let let_pos = if root >= 3 && toks[root - 3].ident() == Some("mut") {
        root.checked_sub(4)
    } else {
        root.checked_sub(3)
    };
    if let_pos.and_then(|p| toks.get(p)).and_then(Tok::ident) != Some("let") {
        return;
    }
    // The guard must be the whole RHS: `...m(args);` with `;` right after.
    let close = matching(toks, i + 1, '(', ')');
    if !toks.get(close + 1).is_some_and(|t| t.is(';')) {
        return;
    }
    // Shadowing at the same depth replaces the old guard.
    c.held
        .retain(|h| !(h.binding == binding && h.depth >= depth));
    c.held.push(HeldEntry {
        binding: binding.to_string(),
        family,
        line,
        depth,
    });
}

/// Extracts the Self type of an `impl` block header starting at `i`.
fn parse_impl_type(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut after_for: Option<usize> = None;
    while j < toks.len() && !toks[j].is('{') && !toks[j].is(';') {
        if toks[j].is('<') {
            angle += 1;
        } else if toks[j].is('>') && !(j >= 1 && toks[j - 1].is('-')) {
            angle -= 1;
        } else if angle == 0 && toks[j].ident() == Some("for") {
            after_for = Some(j + 1);
        } else if angle == 0 && toks[j].ident() == Some("where") {
            break;
        }
        j += 1;
    }
    let start = after_for.unwrap_or(i + 1);
    // Read a path, return its last segment before `<`, `{` or `where`.
    let mut last = None;
    let mut k = start;
    let mut angle = 0i32;
    while k < toks.len() && !toks[k].is('{') {
        match &toks[k].kind {
            TokKind::Ident(s) if angle == 0 => {
                if s == "where" || s == "for" {
                    break;
                }
                last = Some(s.clone());
            }
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct(':') | TokKind::Punct('&') => {}
            _ if angle == 0 => break,
            _ => {}
        }
        k += 1;
    }
    last
}

// ---------------------------------------------------------------------------
// Graph construction (transitive fixpoint)
// ---------------------------------------------------------------------------

/// How a function came to (transitively) acquire a family.
#[derive(Debug, Clone)]
enum Prov {
    Direct { line: usize },
    Via { callee: usize, call_line: usize },
}

fn resolve(
    call: &CallSite,
    caller: &FnInfo,
    by_name: &BTreeMap<&str, Vec<usize>>,
    typed: &BTreeMap<(String, String), Vec<usize>>,
    known_types: &BTreeSet<&str>,
) -> Vec<usize> {
    let named = || by_name.get(call.name.as_str()).cloned().unwrap_or_default();
    match &call.kind {
        CallKind::SelfMethod => match &caller.impl_type {
            Some(t) => typed
                .get(&(t.clone(), call.name.clone()))
                .cloned()
                .unwrap_or_else(named),
            None => named(),
        },
        CallKind::TypePath(t) => {
            let t = if t == "Self" {
                match &caller.impl_type {
                    Some(own) => own.as_str(),
                    None => return named(),
                }
            } else {
                t.as_str()
            };
            if let Some(v) = typed.get(&(t.to_string(), call.name.clone())) {
                return v.clone();
            }
            // `Type::f` with an Uppercase type we never saw an impl for is
            // an external constructor (`Arc::new`, `Vec::with_capacity`):
            // resolving those by bare name would conflate them with every
            // local `fn new`. Lowercase segments are module paths
            // (`module::helper()`) whose target is a local free fn.
            if t.starts_with(|c: char| c.is_ascii_uppercase()) && !known_types.contains(t) {
                Vec::new()
            } else {
                named()
            }
        }
        CallKind::Method => {
            if ASSUMED_LEAF.contains(&call.name.as_str()) {
                Vec::new()
            } else {
                named()
            }
        }
        CallKind::Free => named(),
    }
}

/// Computes per-function transitive acquire sets and assembles the
/// family-level static graph with witnesses.
fn build_graph(analysis: &Analysis) -> StaticGraph {
    let fns = &analysis.fns;
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut typed: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut known_types: BTreeSet<&str> = BTreeSet::new();
    for (idx, f) in fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(idx);
        if let Some(t) = &f.impl_type {
            known_types.insert(t.as_str());
            typed
                .entry((t.clone(), f.name.clone()))
                .or_default()
                .push(idx);
        }
    }

    // Acquire sets: family → provenance, first insertion wins.
    let mut acq_sets: Vec<BTreeMap<String, Prov>> = fns
        .iter()
        .map(|f| {
            let mut m = BTreeMap::new();
            for a in &f.acqs {
                m.entry(a.family.clone())
                    .or_insert(Prov::Direct { line: a.line });
            }
            m
        })
        .collect();
    loop {
        let mut changed = false;
        for idx in 0..fns.len() {
            for call in &fns[idx].calls {
                for callee in resolve(call, &fns[idx], &by_name, &typed, &known_types) {
                    if callee == idx {
                        continue;
                    }
                    let fams: Vec<String> = acq_sets[callee].keys().cloned().collect();
                    for fam in fams {
                        if let std::collections::btree_map::Entry::Vacant(e) =
                            acq_sets[idx].entry(fam)
                        {
                            e.insert(Prov::Via {
                                callee,
                                call_line: call.line,
                            });
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Witness chain: follow provenance links down to the direct site.
    let trace = |start: usize, family: &str| -> (Site, Vec<String>) {
        let mut chain = Vec::new();
        let mut cur = start;
        for _ in 0..64 {
            match &acq_sets[cur].get(family) {
                Some(Prov::Direct { line }) => {
                    return (
                        Site {
                            file: fns[cur].file.clone(),
                            line: *line,
                            func: fns[cur].qualified.clone(),
                        },
                        chain,
                    );
                }
                Some(Prov::Via { callee, call_line }) => {
                    chain.push(format!(
                        "{} ({}:{})",
                        fns[*callee].qualified, fns[cur].file, call_line
                    ));
                    cur = *callee;
                }
                None => break,
            }
        }
        (
            Site {
                file: fns[start].file.clone(),
                line: 0,
                func: fns[start].qualified.clone(),
            },
            chain,
        )
    };

    let mut graph = StaticGraph::new();
    for (idx, f) in fns.iter().enumerate() {
        for a in &f.acqs {
            for h in &a.held {
                graph.add_edge(
                    h.family.clone(),
                    a.family.clone(),
                    EdgeWitness {
                        held_site: Site {
                            file: f.file.clone(),
                            line: h.line,
                            func: f.qualified.clone(),
                        },
                        acquire_site: Site {
                            file: f.file.clone(),
                            line: a.line,
                            func: f.qualified.clone(),
                        },
                        chain: Vec::new(),
                    },
                );
            }
        }
        for call in &f.calls {
            if call.held.is_empty() {
                continue;
            }
            for callee in resolve(call, f, &by_name, &typed, &known_types) {
                if callee == idx {
                    continue;
                }
                let fams: Vec<String> = acq_sets[callee].keys().cloned().collect();
                for fam in fams {
                    let (site, mut chain) = trace(callee, &fam);
                    chain.insert(
                        0,
                        format!("{} ({}:{})", fns[callee].qualified, f.file, call.line),
                    );
                    for h in &call.held {
                        graph.add_edge(
                            h.family.clone(),
                            fam.clone(),
                            EdgeWitness {
                                held_site: Site {
                                    file: f.file.clone(),
                                    line: h.line,
                                    func: f.qualified.clone(),
                                },
                                acquire_site: site.clone(),
                                chain: chain.clone(),
                            },
                        );
                    }
                }
            }
        }
    }
    graph
}

// ---------------------------------------------------------------------------
// Source collection
// ---------------------------------------------------------------------------

/// `true` for paths outside the production scan set.
fn excluded(rel: &str) -> bool {
    let top_level = ["xtask/", "compat/", "tests/", "examples/", "benches/"];
    top_level.iter().any(|p| rel.starts_with(p))
        || ["/tests/", "/examples/", "/benches/"]
            .iter()
            .any(|p| rel.contains(p))
}

/// Files whose acquisitions are lock-primitive internals the analysis
/// models at call sites instead (still scanned for class definitions).
fn defs_only(rel: &str) -> bool {
    rel.starts_with("crates/nm-sync/src/") || rel == "crates/core/src/locking.rs"
}

/// Runs the full extraction over in-memory `(relative path, source)`
/// pairs (the disk walk and the unit tests share this entry point).
fn analyze_sources(files: &[(String, String)]) -> Analysis {
    let mut lexed: Vec<(String, Vec<Tok>)> = Vec::new();
    let mut test_mod_files: BTreeSet<String> = BTreeSet::new();
    for (rel, src) in files {
        let (toks, test_mods) = strip_cfg_test(&lex(src));
        let dir = match rel.rfind('/') {
            Some(p) => &rel[..p + 1],
            None => "",
        };
        for m in test_mods {
            test_mod_files.insert(format!("{dir}{m}.rs"));
            test_mod_files.insert(format!("{dir}{m}/mod.rs"));
        }
        lexed.push((rel.clone(), toks));
    }
    let mut analysis = Analysis::default();
    for (rel, toks) in &lexed {
        if test_mod_files.contains(rel) {
            continue;
        }
        analysis.files_scanned += 1;
        scan_defs(toks, &mut analysis.families, &mut analysis.bindings);
    }
    for (rel, toks) in &lexed {
        if test_mod_files.contains(rel) || defs_only(rel) {
            continue;
        }
        scan_fns(
            rel,
            toks,
            &analysis.bindings,
            &mut analysis.fns,
            &mut analysis.warnings,
        );
    }
    analysis
}

fn load_tree(scan_root: &Path, root: &Path, fixture: bool) -> Vec<(String, String)> {
    let mut files = Vec::new();
    super::collect_rs_files(scan_root, &mut files);
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if !fixture && excluded(&rel) {
            continue;
        }
        if let Ok(text) = std::fs::read_to_string(&path) {
            out.push((rel, text));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Runtime cross-check + docs
// ---------------------------------------------------------------------------

/// Obtains the runtime lockcheck graph: from `--runtime-graph <path>` when
/// given, else by running the `lockcheck_dump` example with the feature on.
fn obtain_runtime_graph(
    root: &Path,
    path: Option<&Path>,
) -> Result<lockgraph::RuntimeGraph, String> {
    let doc = match path {
        Some(p) => std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read runtime graph {}: {e}", p.display()))?,
        None => {
            let out = std::process::Command::new("cargo")
                .args([
                    "run",
                    "--release",
                    "--features",
                    "lockcheck",
                    "--example",
                    "lockcheck_dump",
                ])
                .current_dir(root)
                .output()
                .map_err(|e| format!("failed to spawn cargo run: {e}"))?;
            if !out.status.success() {
                let err = String::from_utf8_lossy(&out.stderr);
                let tail: Vec<&str> = err.lines().rev().take(12).collect();
                let tail: Vec<&str> = tail.into_iter().rev().collect();
                return Err(format!(
                    "lockcheck_dump example failed ({}):\n{}",
                    out.status,
                    tail.join("\n")
                ));
            }
            String::from_utf8_lossy(&out.stdout).into_owned()
        }
    };
    parse_runtime_graph(&doc)
}

const CONCURRENCY_MD: &str = "docs/CONCURRENCY.md";

/// Checks (or rewrites, with `write`) the generated hierarchy section.
fn docs_check(root: &Path, rendered: &str, write: bool) -> Option<Finding> {
    let path = root.join(CONCURRENCY_MD);
    let Ok(doc) = std::fs::read_to_string(&path) else {
        return Some(Finding::new(
            "lock-docs-drift",
            Severity::Error,
            CONCURRENCY_MD,
            0,
            "cannot read docs/CONCURRENCY.md".to_string(),
        ));
    };
    let (Some(b), Some(e)) = (doc.find(lockgraph::DOC_BEGIN), doc.find(lockgraph::DOC_END)) else {
        return Some(Finding::new(
            "lock-docs-drift",
            Severity::Error,
            CONCURRENCY_MD,
            0,
            format!(
                "missing generated-section markers `{}` / `{}` — run \
                 `cargo xtask analyze-locks --write-docs`",
                lockgraph::DOC_BEGIN,
                lockgraph::DOC_END
            ),
        ));
    };
    let inner_start = b + lockgraph::DOC_BEGIN.len();
    if e < inner_start {
        return Some(Finding::new(
            "lock-docs-drift",
            Severity::Error,
            CONCURRENCY_MD,
            0,
            "generated-section markers are out of order".to_string(),
        ));
    }
    let current = &doc[inner_start..e];
    let wanted = format!("\n{rendered}");
    if current == wanted {
        return None;
    }
    if write {
        let new_doc = format!("{}{}{}", &doc[..inner_start], wanted, &doc[e..]);
        if let Err(err) = std::fs::write(&path, new_doc) {
            return Some(Finding::new(
                "lock-docs-drift",
                Severity::Error,
                CONCURRENCY_MD,
                0,
                format!("failed to write docs/CONCURRENCY.md: {err}"),
            ));
        }
        return None;
    }
    Some(Finding::new(
        "lock-docs-drift",
        Severity::Error,
        CONCURRENCY_MD,
        0,
        "the generated lock-hierarchy section is stale — run \
         `cargo xtask analyze-locks --write-docs` and commit the result"
            .to_string(),
    ))
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

struct Flags {
    opts: OutputOpts,
    static_only: bool,
    write_docs: bool,
    runtime_graph: Option<PathBuf>,
    fixture: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let (opts, rest) = OutputOpts::parse(args)?;
    let mut flags = Flags {
        opts,
        static_only: false,
        write_docs: false,
        runtime_graph: None,
        fixture: None,
    };
    let mut it = rest.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--static-only" => flags.static_only = true,
            "--write-docs" => flags.write_docs = true,
            "--runtime-graph" => {
                let p = it.next().ok_or("--runtime-graph needs a path")?;
                flags.runtime_graph = Some(PathBuf::from(p));
            }
            "--fixture" => {
                let p = it.next().ok_or("--fixture needs a directory")?;
                flags.fixture = Some(PathBuf::from(p));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(flags)
}

pub fn run(root: &Path, args: &[String]) -> ExitCode {
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("analyze-locks: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fixture_mode = flags.fixture.is_some();
    let scan_root = match &flags.fixture {
        Some(d) if d.is_absolute() => d.clone(),
        Some(d) => root.join(d),
        None => root.to_path_buf(),
    };
    let sources = load_tree(
        &scan_root,
        if fixture_mode { &scan_root } else { root },
        fixture_mode,
    );
    let analysis = analyze_sources(&sources);
    let graph = build_graph(&analysis);

    let mut findings: Vec<Finding> = Vec::new();
    if analysis.families.is_empty() {
        findings.push(Finding::new(
            "lock-no-classes",
            Severity::Error,
            "",
            0,
            "no lock-class definitions found — the scan is broken or the \
             tree has no classed locks"
                .to_string(),
        ));
    }
    for cycle in graph.cycles() {
        let mut msg = format!(
            "potential lock-order cycle: {} -> {}",
            cycle.join(" -> "),
            cycle[0]
        );
        let mut anchor: Option<Site> = None;
        for k in 0..cycle.len() {
            let from = &cycle[k];
            let to = &cycle[(k + 1) % cycle.len()];
            if let Some(w) = graph.edges.get(&(from.clone(), to.clone())) {
                msg.push_str(&format!("\n  stack {}: {}", k + 1, w.render(from, to)));
                anchor.get_or_insert_with(|| w.acquire_site.clone());
            }
        }
        let anchor = anchor.unwrap_or(Site {
            file: String::new(),
            line: 0,
            func: String::new(),
        });
        findings.push(Finding::new(
            "lock-cycle",
            Severity::Error,
            anchor.file,
            anchor.line,
            msg,
        ));
    }
    for (fam, w) in graph.self_edges() {
        findings.push(Finding::new(
            "lock-same-family-nesting",
            Severity::Warning,
            w.acquire_site.file.clone(),
            w.acquire_site.line,
            format!(
                "two `{fam}` instances may nest ({}); instance ordering is \
                 not statically checkable — ensure a consistent index order",
                w.render(fam, fam)
            ),
        ));
    }
    findings.extend(analysis.warnings.iter().cloned());

    // Runtime cross-check and docs only apply to the real workspace.
    if !fixture_mode {
        let rendered = lockgraph::render_hierarchy(&graph, &analysis.families);
        if let Some(f) = docs_check(root, &rendered, flags.write_docs) {
            findings.push(f);
        }
        if !flags.static_only {
            match obtain_runtime_graph(root, flags.runtime_graph.as_deref()) {
                Ok(rt) if !rt.enabled => findings.push(Finding::new(
                    "lock-runtime-disabled",
                    Severity::Error,
                    "",
                    0,
                    "runtime graph was produced without the lockcheck feature \
                     — rebuild the dump with --features lockcheck"
                        .to_string(),
                )),
                Ok(rt) => {
                    let cc = cross_check(&graph.edge_set(), &rt.family_edges());
                    for (from, to) in &cc.soundness {
                        findings.push(Finding::new(
                            "lock-soundness",
                            Severity::Error,
                            "",
                            0,
                            format!(
                                "runtime lockcheck observed `{from}` held while \
                                 acquiring `{to}`, but the static analysis did not \
                                 predict this edge — fix the analyzer's extraction \
                                 (or its leaf assumptions) before trusting its \
                                 cycle report"
                            ),
                        ));
                    }
                    for (rank, (from, to)) in cc.unexercised.iter().enumerate() {
                        findings.push(Finding::new(
                            "lock-coverage-gap",
                            Severity::Info,
                            "",
                            0,
                            format!(
                                "(rank {}) statically possible but never exercised \
                                 at runtime: `{from}` -> `{to}` — mode-exclusive \
                                 edges are expected here; otherwise add a lockcheck \
                                 workload that nests these",
                                rank + 1
                            ),
                        ));
                    }
                }
                Err(e) => findings.push(Finding::new(
                    "lock-runtime-dump-failed",
                    Severity::Error,
                    "",
                    0,
                    e,
                )),
            }
        }
    }

    if !flags.opts.emit("analyze-locks", &findings) {
        return ExitCode::FAILURE;
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    if !flags.opts.json {
        println!(
            "analyze-locks: {} files, {} fns, {} lock families, {} edges, \
             {} cycle(s), {} finding(s) ({errors} error(s))",
            analysis.files_scanned,
            analysis.fns.len(),
            analysis.families.len(),
            graph.edges.len(),
            graph.cycles().len(),
            findings.len(),
        );
        for f in &findings {
            println!("{f}");
        }
    }
    if errors > 0 {
        eprintln!("\nanalyze-locks: {errors} error(s) — see docs/CONCURRENCY.md");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> (Analysis, StaticGraph) {
        let files = vec![("crates/x/src/lib.rs".to_string(), src.to_string())];
        let a = analyze_sources(&files);
        let g = build_graph(&a);
        (a, g)
    }

    const DEFS: &str = r#"
        struct S {
            outer: SpinLock<u32>,
            inner: SpinLock<u32>,
        }
        impl S {
            fn new() -> Self {
                S {
                    outer: SpinLock::with_class("t.outer", 0),
                    inner: SpinLock::with_class("t.inner", 0),
                }
            }
        }
    "#;

    #[test]
    fn class_defs_and_bindings_are_collected() {
        let (a, _) = analyze(DEFS);
        assert_eq!(a.bindings.get("outer").unwrap(), "t.outer");
        assert_eq!(a.bindings.get("inner").unwrap(), "t.inner");
        assert!(a.families.contains_key("t.outer"));
        // classed_spins + lock_class_table register families too.
        let (a, _) = analyze(
            r#"
            const T: [&str; 2] = lock_class_table!("fam.x"; 0, 1);
            fn mk() { let _ = classed_spins(4, &T, "fam.x.overflow"); }
            "#,
        );
        let fx = a.families.get("fam.x").unwrap();
        assert!(fx.indexed && fx.overflow);
    }

    #[test]
    fn guard_scope_creates_edges_and_drop_releases() {
        let src = format!(
            "{DEFS}
            impl S {{
                fn nested(&self) {{
                    let g = self.outer.lock();
                    let h = self.inner.lock();
                    drop(h);
                    drop(g);
                }}
                fn sequential(&self) {{
                    let g = self.outer.lock();
                    drop(g);
                    let h = self.inner.lock();
                    drop(h);
                }}
                fn scoped(&self) {{
                    {{ let g = self.outer.lock(); }}
                    let h = self.inner.lock();
                }}
            }}"
        );
        let (_, g) = analyze(&src);
        assert!(g.edges.contains_key(&("t.outer".into(), "t.inner".into())));
        // Sequential and block-scoped acquisitions create no reverse edge.
        assert!(!g.edges.contains_key(&("t.inner".into(), "t.outer".into())));
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn statement_temporaries_are_not_held() {
        let src = format!(
            "{DEFS}
            impl S {{
                fn temp(&self) {{
                    *self.outer.lock() = 1;
                    let v = *self.inner.lock() + 1;
                    let _ = v;
                }}
            }}"
        );
        let (a, g) = analyze(&src);
        // Both acquisitions recorded, no held context, no edges.
        let f = a.fns.iter().find(|f| f.name == "temp").unwrap();
        assert_eq!(f.acqs.len(), 2);
        assert!(f.acqs.iter().all(|acq| acq.held.is_empty()));
        assert!(g.edges.is_empty());
    }

    #[test]
    fn call_chains_propagate_acquisitions_with_witness() {
        let src = format!(
            "{DEFS}
            impl S {{
                fn top(&self) {{
                    let g = self.outer.lock();
                    self.middle();
                }}
                fn middle(&self) {{
                    self.bottom();
                }}
                fn bottom(&self) {{
                    let h = self.inner.lock();
                }}
            }}"
        );
        let (_, g) = analyze(&src);
        let w = g
            .edges
            .get(&("t.outer".into(), "t.inner".into()))
            .expect("transitive edge");
        assert_eq!(w.acquire_site.func, "S::bottom");
        assert_eq!(w.chain.len(), 2, "{:?}", w.chain);
        assert!(w.chain[0].starts_with("S::middle"));
    }

    #[test]
    fn ab_ba_cycle_is_detected() {
        let src = format!(
            "{DEFS}
            impl S {{
                fn ab(&self) {{
                    let g = self.outer.lock();
                    let h = self.inner.lock();
                }}
                fn ba(&self) {{
                    let h = self.inner.lock();
                    let g = self.outer.lock();
                }}
            }}"
        );
        let (_, g) = analyze(&src);
        assert_eq!(g.cycles(), vec![vec!["t.inner", "t.outer"]]);
    }

    #[test]
    fn assumed_leaf_methods_create_no_edges() {
        let src = format!(
            "{DEFS}
            impl Nic for S {{
                fn poll_vci(&self, vci: usize) {{
                    let h = self.inner.lock();
                }}
            }}
            impl S {{
                fn drive(&self, d: &D) {{
                    let g = self.outer.lock();
                    d.poll_vci(0);
                    d.can_post_vci(0);
                }}
            }}"
        );
        let (_, g) = analyze(&src);
        assert!(
            !g.edges.contains_key(&("t.outer".into(), "t.inner".into())),
            "leaf-assumed .poll_vci() must not pull in a same-named impl"
        );
    }

    #[test]
    fn let_bound_closures_do_not_resolve_to_workspace_fns() {
        // `build` is a local closure here and `Builder::build` elsewhere:
        // calling the closure under `outer` must not inherit what the
        // same-named method acquires.
        let src = format!(
            "{DEFS}
            impl Builder {{
                fn build(&self, s: &S) {{
                    let h = s.inner.lock();
                }}
            }}
            impl S {{
                fn post(&self) {{
                    let build = |n: u32| n + 1;
                    let mut seal = move |n: u32| n ^ 1;
                    let g = self.outer.lock();
                    let frame = seal(build(7));
                }}
                fn direct(&self, b: &Builder) {{
                    let g = self.outer.lock();
                    build(b);
                }}
            }}"
        );
        let (a, g) = analyze(&src);
        let post = a.fns.iter().find(|f| f.name == "post").unwrap();
        assert!(post.calls.is_empty(), "{:?}", post.calls);
        // A bare call of a name that is *not* let-bound still resolves.
        let w = g
            .edges
            .get(&("t.outer".into(), "t.inner".into()))
            .expect("free call resolves by name");
        assert_eq!(w.held_site.func, "S::direct");
    }

    #[test]
    fn section_kinds_map_to_families() {
        let src = r#"
            impl Core {
                fn op(&self) {
                    let api = self.policy.enter_api();
                    let s = self.policy.enter(SectionKind::CollectTx(gate.0));
                    drop(s);
                    let s = self.policy.enter(SectionKind::Driver(i));
                }
            }
        "#;
        let (_, g) = analyze(src);
        assert!(g
            .edges
            .contains_key(&("core.api-global".into(), "core.collect.tx".into())));
        assert!(g
            .edges
            .contains_key(&("core.api-global".into(), "core.driver".into())));
        // tx was dropped before the driver section: no tx -> driver edge.
        assert!(!g
            .edges
            .contains_key(&("core.collect.tx".into(), "core.driver".into())));
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = format!(
            "{DEFS}
            #[cfg(test)]
            mod tests {{
                fn bad(&self) {{
                    let h = self.inner.lock();
                    let g = self.outer.lock();
                }}
            }}
            #[cfg(test)]
            fn also_bad(s: &S) {{
                let h = s.inner.lock();
                let g = s.outer.lock();
            }}"
        );
        let (a, g) = analyze(&src);
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert!(a
            .fns
            .iter()
            .all(|f| f.name != "bad" && f.name != "also_bad"));
    }

    #[test]
    fn test_mod_declarations_exclude_their_files() {
        let files = vec![
            (
                "crates/x/src/lib.rs".to_string(),
                "#[cfg(test)]\nmod proptests;\n".to_string(),
            ),
            (
                "crates/x/src/proptests.rs".to_string(),
                DEFS.to_string() + "impl S { fn f(&self) { let g = self.outer.lock(); let h = self.inner.lock(); } }",
            ),
        ];
        let a = analyze_sources(&files);
        let g = build_graph(&a);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn the_real_workspace_passes_static_only() {
        let root = super::super::workspace_root();
        assert_eq!(
            run(&root, &["--static-only".to_string()]),
            ExitCode::SUCCESS,
            "static lock-order analysis must be clean on the committed tree"
        );
    }

    #[test]
    fn the_fixture_cycle_is_found_with_both_stacks() {
        let root = super::super::workspace_root();
        let dir = root.join("tests/fixtures/seeded_deadlock");
        let sources = load_tree(&dir, &dir, true);
        assert!(!sources.is_empty(), "fixture crate missing");
        let a = analyze_sources(&sources);
        let g = build_graph(&a);
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].contains(&"fixture.publish".to_string()));
        assert!(cycles[0].contains(&"fixture.reclaim".to_string()));
        // Both witnesses exist, one of them through a call chain.
        let ab = g
            .edges
            .get(&("fixture.publish".into(), "fixture.reclaim".into()))
            .unwrap();
        let ba = g
            .edges
            .get(&("fixture.reclaim".into(), "fixture.publish".into()))
            .unwrap();
        assert!(!ab.chain.is_empty() || !ba.chain.is_empty());
        // And the CLI exits non-zero on it.
        let args = vec![
            "--fixture".to_string(),
            "tests/fixtures/seeded_deadlock".to_string(),
            "--json".to_string(),
        ];
        assert_eq!(run(&root, &args), ExitCode::FAILURE);
    }
}
