//! The project-specific rule set `cbnet-lint` enforces.
//!
//! | rule | contract it pins |
//! |------|------------------|
//! | `hot-path-alloc` | `*_into` kernels, `*_scratch_floats` sizers and `ForwardPlan` methods stay allocation-free |
//! | `panic-in-lib` | no `unwrap`/`expect`/`panic!`-family in library crates (tests/bins/shims exempt) |
//! | `shim-drift` | every path imported from a shimmed crate exists in `crates/shims/*` |
//! | `conformance-coverage` | every public `*_into` kernel in `crates/tensor` is pinned by the conformance suites |
//! | `into-doc-contract` | every `pub fn *_into` documents its output/scratch ownership |
//! | `unsafe-audit` | `unsafe` stays inside the sanctioned modules, and every use carries a `// SAFETY:` comment (or `# Safety` rustdoc) |
//! | `obs-doc` | every recording fn of the observability layer documents its allocation behaviour |
//! | `bad-allow` | `lint:allow` escape hatches are well-formed (rule exists, reason given) |
//!
//! Any violation can be suppressed per line with
//! `// lint:allow(<rule>, reason = "...")` on the offending line or the
//! line directly above it. `bad-allow` itself cannot be suppressed.

use std::collections::{HashMap, HashSet};

use crate::lexer::{CleanSource, Tok, TokKind};
use crate::structure::{FileStructure, FnSpan, SHIMMED_CRATES};

/// Rule names, in report order. `bad-allow` guards the escape hatch itself.
pub const RULES: [&str; 8] = [
    "hot-path-alloc",
    "panic-in-lib",
    "shim-drift",
    "conformance-coverage",
    "into-doc-contract",
    "unsafe-audit",
    "obs-doc",
    "bad-allow",
];

/// One rule violation (suppression is resolved by the caller).
#[derive(Debug, Clone)]
pub struct RawViolation {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

/// One analyzed file, ready for rule passes.
#[derive(Debug)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Cleaned source, allow directives, docs.
    pub clean: CleanSource,
    /// Token stream of the cleaned source.
    pub toks: Vec<Tok>,
    /// Structural analysis of the token stream.
    pub structure: FileStructure,
}

impl FileCtx {
    /// Library source of a workspace crate (not a test, bench, example or
    /// binary entry point).
    fn is_lib_src(&self) -> bool {
        let r = &self.rel;
        let in_src = r.starts_with("src/") || (r.starts_with("crates/") && r.contains("/src/"));
        in_src && !r.contains("/src/bin/") && !r.ends_with("/main.rs")
    }

    /// Inside the offline dependency shims.
    fn is_shim(&self) -> bool {
        self.rel.starts_with("crates/shims/")
    }
}

/// Run every rule over the analyzed files.
pub fn run_rules(files: &[FileCtx]) -> Vec<RawViolation> {
    let mut out = Vec::new();
    for f in files {
        hot_path_alloc(f, &mut out);
        panic_in_lib(f, &mut out);
        into_doc_contract(f, &mut out);
        unsafe_audit(f, &mut out);
        obs_doc(f, &mut out);
        bad_allow(f, &mut out);
    }
    shim_drift(files, &mut out);
    conformance_coverage(files, &mut out);
    out
}

/// Impl blocks whose methods run on a steady-state hot path: the planned
/// inference loop (`ForwardPlan`), the f16 weight twin a dense layer
/// re-derives inside its planned forward (`F16Twin::refresh`), and the
/// flat-index simulator — the heap sift/push/pop, the intrusive queue
/// swizzles, the arena accessors, monomorphized discipline dispatch, and
/// the `FleetSim` event loop itself.
const HOT_IMPLS: [&str; 8] = [
    "ForwardPlan",
    "F16Twin",
    "EventHeap",
    "RequestArena",
    "IndexQueue",
    "Chain",
    "Discipline",
    "FleetSim",
];

/// Methods of hot impls that are *allowed* to allocate: constructors and
/// kind-resolvers (cold, once per simulation/plan) and report assembly
/// (cold, after the loop drains).
const HOT_EXEMPT_FNS: [&str; 6] = [
    "new",
    "with_capacity",
    "with_backend",
    "with_probe",
    "from_kind",
    "report",
];

/// Functions on a steady-state hot path: `*_into` kernels, the scratch
/// sizers they rely on, and every method of a [`HOT_IMPLS`] impl except the
/// allocating constructors/finalizers in [`HOT_EXEMPT_FNS`]. Note `reset`
/// is *not* exempt — run-to-run reuse must stay allocation-free.
fn is_hot_fn(f: &FnSpan) -> bool {
    f.name.ends_with("_into")
        || f.name.ends_with("_scratch_floats")
        || (f
            .parent_impl
            .as_deref()
            .is_some_and(|p| HOT_IMPLS.contains(&p))
            && !HOT_EXEMPT_FNS.contains(&f.name.as_str()))
}

const ALLOC_METHODS: [&str; 5] = ["clone", "collect", "to_vec", "to_string", "to_owned"];

fn hot_path_alloc(f: &FileCtx, out: &mut Vec<RawViolation>) {
    if !f.is_lib_src() {
        return;
    }
    let toks = &f.toks;
    for span in f.structure.fns.iter().filter(|s| is_hot_fn(s)) {
        let Some((open, close)) = span.body else {
            continue;
        };
        let mut report = |line: usize, what: &str| {
            out.push(RawViolation {
                rule: "hot-path-alloc",
                file: f.rel.clone(),
                line,
                message: format!(
                    "`{what}` allocates inside hot-path fn `{}` — use the plan's buffers/scratch",
                    span.name
                ),
            });
        };
        let mut i = open;
        while i <= close {
            let t = &toks[i];
            if t.kind == TokKind::Ident {
                let next = toks.get(i + 1);
                let is_macro = next.is_some_and(|n| n.is_punct('!'));
                let is_path = next.is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'));
                let path_target = if is_path {
                    toks.get(i + 3).map(|n| n.text.as_str())
                } else {
                    None
                };
                match t.text.as_str() {
                    "vec" | "format" if is_macro => report(t.line, &format!("{}!", t.text)),
                    "Vec" | "String" | "Box" if matches!(path_target, Some("new" | "from")) => {
                        report(t.line, &format!("{}::{}", t.text, toks[i + 3].text));
                    }
                    // Any `T::with_capacity(...)` call, caught at the method
                    // name so every collection type is covered.
                    "with_capacity" if next.is_some_and(|n| n.is_punct('(')) => {
                        report(t.line, "with_capacity");
                    }
                    m if ALLOC_METHODS.contains(&m)
                        && i > open
                        && toks[i - 1].is_punct('.')
                        && next.is_some_and(|n| n.is_punct('(') || n.is_punct(':')) =>
                    {
                        report(t.line, &format!(".{m}()"));
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

fn panic_in_lib(f: &FileCtx, out: &mut Vec<RawViolation>) {
    if !f.is_lib_src() || f.is_shim() {
        return;
    }
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || f.structure.in_test_code(i) {
            continue;
        }
        let next = toks.get(i + 1);
        let what = match t.text.as_str() {
            m if PANIC_MACROS.contains(&m) && next.is_some_and(|n| n.is_punct('!')) => {
                format!("{m}!")
            }
            "unwrap" | "expect"
                if i > 0 && toks[i - 1].is_punct('.') && next.is_some_and(|n| n.is_punct('(')) =>
            {
                format!(".{}()", t.text)
            }
            _ => continue,
        };
        out.push(RawViolation {
            rule: "panic-in-lib",
            file: f.rel.clone(),
            line: t.line,
            message: format!(
                "`{what}` in library code — return a Result, or document the invariant with lint:allow"
            ),
        });
    }
}

/// Keywords whose presence in a `*_into` doc block indicates the
/// output/scratch ownership contract is stated.
const DOC_KEYWORDS: [&str; 8] = [
    "out", "output", "scratch", "written", "overwrit", "in place", "in-place", "dst",
];

/// The contiguous rustdoc block above the item at `fn_line`, skipping
/// attributes and blank lines between the docs and the signature.
fn doc_block_above(f: &FileCtx, clean_lines: &[&str], fn_line: usize) -> String {
    let mut doc = String::new();
    let mut l = fn_line;
    while l > 1 {
        l -= 1;
        if let Some(text) = f.clean.docs.get(&l) {
            doc.push_str(text);
            doc.push(' ');
            continue;
        }
        let content = clean_lines.get(l - 1).map_or("", |s| s.trim());
        let attr_like = content.is_empty()
            || content.starts_with('#')
            || content.ends_with(']')
            || content.ends_with('(');
        if !attr_like {
            break;
        }
    }
    doc
}

fn into_doc_contract(f: &FileCtx, out: &mut Vec<RawViolation>) {
    if !f.is_lib_src() || f.is_shim() {
        return;
    }
    let clean_lines: Vec<&str> = f.clean.clean.lines().collect();
    for span in &f.structure.fns {
        if !span.is_pub || !span.name.ends_with("_into") {
            continue;
        }
        let doc = doc_block_above(f, &clean_lines, span.line);
        let doc_lower = doc.to_lowercase();
        let message = if doc.trim().is_empty() {
            format!(
                "`pub fn {}` has no rustdoc — document who owns the output and scratch buffers",
                span.name
            )
        } else if !DOC_KEYWORDS.iter().any(|k| doc_lower.contains(k)) {
            format!(
                "rustdoc for `pub fn {}` does not state its output/scratch ownership",
                span.name
            )
        } else {
            continue;
        };
        out.push(RawViolation {
            rule: "into-doc-contract",
            file: f.rel.clone(),
            line: span.line,
            message,
        });
    }
}

/// The only library sources allowed to contain `unsafe` at all: the
/// explicit-SIMD kernel island in `crates/tensor` (gated by a module-scoped
/// `#![allow(unsafe_code)]` under the crate's `#![deny(unsafe_code)]`), the
/// counting global allocator in `testkit` (forwarding the `GlobalAlloc`
/// contract to `System`), and the zero-copy byte↔f32 reinterpretation
/// island in `tensorstore` (alignment-checked slice casts behind the same
/// module-scoped gate). Growing this list is a deliberate, reviewed act.
const UNSAFE_SANCTIONED: [&str; 3] = [
    "crates/tensor/src/backend/simd.rs",
    "crates/tensorstore/src/view.rs",
    "crates/testkit/src/lib.rs",
];

/// True when line `line` carries a `SAFETY:` justification — on the line
/// itself or walking up through blank lines, attributes and rustdoc (a doc
/// line mentioning "safety", e.g. a `# Safety` section, also counts).
fn has_safety_justification(f: &FileCtx, clean_lines: &[&str], line: usize) -> bool {
    if f.clean.safety_lines.contains(&line) {
        return true;
    }
    let mut l = line;
    while l > 1 {
        l -= 1;
        if f.clean.safety_lines.contains(&l) {
            return true;
        }
        if let Some(doc) = f.clean.docs.get(&l) {
            if doc.to_lowercase().contains("safety") {
                return true;
            }
            continue; // doc line without the section header: keep walking
        }
        let content = clean_lines.get(l - 1).map_or("", |s| s.trim());
        let attr_like = content.is_empty()
            || content.starts_with('#')
            || content.ends_with(']')
            || content.ends_with('(');
        if !attr_like {
            return false;
        }
    }
    false
}

fn unsafe_audit(f: &FileCtx, out: &mut Vec<RawViolation>) {
    if !f.is_lib_src() {
        return;
    }
    let sanctioned = UNSAFE_SANCTIONED.contains(&f.rel.as_str());
    let clean_lines: Vec<&str> = f.clean.clean.lines().collect();
    let toks = &f.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || f.structure.in_test_code(i) {
            continue;
        }
        // `#[allow(unsafe_code)]` / `#![allow(unsafe_code)]` re-opens the
        // gate the workspace closes with `deny`/`forbid` — only the
        // sanctioned modules may do that.
        if t.text == "allow"
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("unsafe_code"))
            && !sanctioned
        {
            out.push(RawViolation {
                rule: "unsafe-audit",
                file: f.rel.clone(),
                line: t.line,
                message: "`allow(unsafe_code)` outside the sanctioned unsafe modules — \
                          keep the crate safe or extend the sanctioned list deliberately"
                    .into(),
            });
        }
        if t.text != "unsafe" {
            continue;
        }
        if !sanctioned {
            out.push(RawViolation {
                rule: "unsafe-audit",
                file: f.rel.clone(),
                line: t.line,
                message: "`unsafe` outside the sanctioned modules \
                          (crates/tensor/src/backend/simd.rs, \
                          crates/tensorstore/src/view.rs, crates/testkit/src/lib.rs)"
                    .into(),
            });
        } else if !has_safety_justification(f, &clean_lines, t.line) {
            out.push(RawViolation {
                rule: "unsafe-audit",
                file: f.rel.clone(),
                line: t.line,
                message: "`unsafe` without a `// SAFETY:` comment (or `# Safety` rustdoc) \
                          on the same line or directly above"
                    .into(),
            });
        }
    }
}

/// The observability recording surface: ring/metric writers by name
/// (`record`, `observe`, `inc`, `gauge_set`) plus the `on_*` callback
/// convention (`SimObserver`, `PlanProbe`).
fn is_recording_fn(f: &FnSpan) -> bool {
    matches!(f.name.as_str(), "record" | "observe" | "inc" | "gauge_set")
        || f.name.starts_with("on_")
}

/// The sources that make up the observability layer's recording API.
fn is_obs_source(rel: &str) -> bool {
    rel.starts_with("crates/obs/src/") || rel == "crates/edgesim/src/observe.rs"
}

/// Recording functions sit on simulator/inference hot paths, so callers
/// must be able to read their allocation contract off the signature: every
/// recording fn in the observability layer needs rustdoc that mentions
/// allocation behaviour ("allocation-free", "does not allocate",
/// "allocates the ...", ...). Trait declarations count too — that is where
/// implementors read the contract.
fn obs_doc(f: &FileCtx, out: &mut Vec<RawViolation>) {
    if !is_obs_source(&f.rel) || !f.is_lib_src() {
        return;
    }
    let clean_lines: Vec<&str> = f.clean.clean.lines().collect();
    for span in f.structure.fns.iter().filter(|s| is_recording_fn(s)) {
        let doc = doc_block_above(f, &clean_lines, span.line);
        let message = if doc.trim().is_empty() {
            format!(
                "recording fn `{}` has no rustdoc — state its allocation behaviour \
                 (it is called from hot paths)",
                span.name
            )
        } else if !doc.to_lowercase().contains("alloc") {
            format!(
                "rustdoc for recording fn `{}` does not state its allocation behaviour",
                span.name
            )
        } else {
            continue;
        };
        out.push(RawViolation {
            rule: "obs-doc",
            file: f.rel.clone(),
            line: span.line,
            message,
        });
    }
}

fn bad_allow(f: &FileCtx, out: &mut Vec<RawViolation>) {
    for (line, problem) in &f.clean.bad_allows {
        out.push(RawViolation {
            rule: "bad-allow",
            file: f.rel.clone(),
            line: *line,
            message: format!("malformed lint:allow: {problem}"),
        });
    }
    for allow in &f.clean.allows {
        if !RULES.contains(&allow.rule.as_str()) {
            out.push(RawViolation {
                rule: "bad-allow",
                file: f.rel.clone(),
                line: allow.line,
                message: format!("lint:allow names unknown rule `{}`", allow.rule),
            });
        }
    }
}

/// Names defined by one shim crate: public items, all `fn`s (trait impls
/// aren't `pub` but are addressable through their trait), `macro_rules`
/// macros, re-export leaves and `as` aliases.
fn shim_index(files: &[FileCtx]) -> HashMap<&'static str, HashSet<String>> {
    let mut index: HashMap<&'static str, HashSet<String>> = HashMap::new();
    for name in SHIMMED_CRATES {
        index.insert(name, HashSet::new());
    }
    for f in files {
        let Some(rest) = f.rel.strip_prefix("crates/shims/") else {
            continue;
        };
        let Some(crate_name) = SHIMMED_CRATES
            .iter()
            .find(|c| rest.starts_with(&format!("{c}/")))
        else {
            continue;
        };
        let Some(names) = index.get_mut(*crate_name) else {
            continue;
        };
        let toks = &f.toks;
        const ITEM_KINDS: [&str; 9] = [
            "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
        ];
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            match t.text.as_str() {
                // `pub <kind> Name` (visibility qualifiers like `pub(crate)`
                // sit between, as do `unsafe`/`const` markers).
                "pub" => {
                    let mut j = i + 1;
                    while toks.get(j).is_some_and(|n| {
                        n.is_punct('(')
                            || n.is_punct(')')
                            || n.is_ident("crate")
                            || n.is_ident("super")
                            || n.is_ident("in")
                            || n.is_ident("unsafe")
                            || n.is_ident("const")
                            || n.is_ident("async")
                            || n.is_ident("extern")
                    }) {
                        j += 1;
                    }
                    if toks.get(j).is_some_and(|n| {
                        n.kind == TokKind::Ident && ITEM_KINDS.contains(&n.text.as_str())
                    }) {
                        if let Some(name_tok) = toks.get(j + 1) {
                            if name_tok.kind == TokKind::Ident {
                                names.insert(name_tok.text.clone());
                            }
                        }
                    }
                }
                // Any fn (trait methods, trait impls).
                "fn" => {
                    if let Some(name_tok) = toks.get(i + 1) {
                        if name_tok.kind == TokKind::Ident {
                            names.insert(name_tok.text.clone());
                        }
                    }
                }
                "macro_rules" if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) => {
                    if let Some(name_tok) = toks.get(i + 2) {
                        names.insert(name_tok.text.clone());
                    }
                }
                // `X as Y` aliases.
                "as" => {
                    if let Some(name_tok) = toks.get(i + 1) {
                        if name_tok.kind == TokKind::Ident {
                            names.insert(name_tok.text.clone());
                        }
                    }
                }
                _ => {}
            }
        }
        // Re-export leaves (`pub use self::strategy::Strategy;`).
        for path in &f.structure.use_paths {
            if let Some(leaf) = path.segments.last() {
                if leaf != "*" {
                    names.insert(leaf.clone());
                }
            }
        }
    }
    index
}

/// Path segments that aren't item names.
const PATH_KEYWORDS: [&str; 4] = ["self", "crate", "super", "*"];

fn shim_drift(files: &[FileCtx], out: &mut Vec<RawViolation>) {
    let index = shim_index(files);
    let mut seen: HashSet<(String, usize, String)> = HashSet::new();
    for f in files {
        if f.is_shim() {
            continue;
        }
        for path in &f.structure.use_paths {
            let Some(first) = path.segments.first() else {
                continue;
            };
            let Some(names) = index.get(first.as_str()) else {
                continue;
            };
            // Check each segment after the crate name. Once a type-like
            // (capitalized) segment is found, later segments are associated
            // items resolved through traits — skip them.
            let mut saw_type = false;
            for seg in &path.segments[1..] {
                if saw_type || PATH_KEYWORDS.contains(&seg.as_str()) {
                    continue;
                }
                if seg.chars().next().is_some_and(char::is_uppercase) {
                    saw_type = true;
                }
                if !names.contains(seg) && seen.insert((f.rel.clone(), path.line, seg.clone())) {
                    out.push(RawViolation {
                        rule: "shim-drift",
                        file: f.rel.clone(),
                        line: path.line,
                        message: format!(
                            "`{}::{seg}` is not defined by the `{first}` shim (crates/shims/{first}) — \
                             the shim API has drifted",
                            path.segments[..path.segments.len() - 1].join("::"),
                        ),
                    });
                }
            }
        }
    }
}

/// The files that pin `_into` kernels to their references: bit-identical to
/// the allocating path (plan + proptest suites) and scalar-vs-SIMD to the
/// documented tolerance (backend suite).
const CONFORMANCE_SUITES: [&str; 3] = [
    "tests/plan_conformance.rs",
    "crates/tensor/tests/proptest_into_kernels.rs",
    "crates/tensor/tests/backend_conformance.rs",
];

fn conformance_coverage(files: &[FileCtx], out: &mut Vec<RawViolation>) {
    let mut referenced: HashSet<&str> = HashSet::new();
    for f in files {
        if CONFORMANCE_SUITES.contains(&f.rel.as_str()) {
            for t in &f.toks {
                if t.kind == TokKind::Ident {
                    referenced.insert(t.text.as_str());
                }
            }
        }
    }
    for f in files {
        if !f.rel.starts_with("crates/tensor/src/") {
            continue;
        }
        for span in &f.structure.fns {
            if span.is_pub
                && span.name.ends_with("_into")
                && !referenced.contains(span.name.as_str())
            {
                out.push(RawViolation {
                    rule: "conformance-coverage",
                    file: f.rel.clone(),
                    line: span.line,
                    message: format!(
                        "public kernel `{}` is not referenced by any conformance suite ({}) — new kernels must land pinned",
                        span.name,
                        CONFORMANCE_SUITES.join(", ")
                    ),
                });
            }
        }
    }
}
