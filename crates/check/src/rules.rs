//! The three protocol-safety rules clippy cannot state, run over one
//! file's token stream.
//!
//! | Rule | Guards against |
//! |------|----------------|
//! | L3 `guard_across_io` | a lock guard bound live across a `write`/`flush`/`sync` call in the same block |
//! | L6 `ring_hot_loop` | `Instant::now()` / allocation constructors inside the per-frame ring hot functions |
//! | L7 `atomic_ordering` | `Ordering::Relaxed` or a fence without a `// ordering:` comment arguing why it is sound; an atomic constructed outside the allow-listed files |
//!
//! All rules skip test scope (`#[cfg(test)]` items and `#[test]` fns) and
//! honor `// lint: allow(<rule>): reason` suppressions on the violating
//! line or the line directly above.

use std::fmt;

use crate::lexer::{lex, Comment, Tok, TokKind};

/// A rule identifier. L1, L2, L4 and L5 are clippy lints (see the crate
/// docs), so the ids here keep the gaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No lock guard bound across a blocking write/flush/sync call.
    L3,
    /// No `Instant::now()` or allocation constructors in the per-frame
    /// ring hot functions.
    L6,
    /// Every `Ordering::Relaxed` and every fence carries a
    /// `// ordering:` comment (pure-counter modules excepted), and only
    /// allow-listed files construct atomics.
    L7,
}

impl Rule {
    /// Every rule, in order.
    pub const ALL: [Rule; 3] = [Rule::L3, Rule::L6, Rule::L7];

    /// The rule's short id (`"L3"`) and long name; `lint: allow(...)`
    /// comments accept either.
    pub fn names(self) -> (&'static str, &'static str) {
        match self {
            Rule::L3 => ("L3", "guard_across_io"),
            Rule::L6 => ("L6", "ring_hot_loop"),
            Rule::L7 => ("L7", "atomic_ordering"),
        }
    }

    /// Parses a rule id or name (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim().to_ascii_lowercase();
        Rule::ALL
            .into_iter()
            .find(|r| s == r.names().0.to_ascii_lowercase() || s == r.names().1)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.names().0)
    }
}

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub what: String,
}

impl Violation {
    fn new(rule: Rule, file: &str, line: u32, what: String) -> Violation {
        Violation {
            rule,
            file: file.to_string(),
            line,
            what,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.what
        )
    }
}

/// Lints one file; `file` is the workspace-relative path used in reports.
pub fn check_file(file: &str, src: &str) -> Vec<Violation> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let test = test_mask(toks);
    let allows = allow_lines(&lexed.comments);
    let mut out = Vec::new();
    rule_l3(file, toks, &mut out);
    rule_l6(file, toks, &mut out);
    rule_l7(file, toks, &lexed.comments, &mut out);
    out.retain(|v| {
        let tested = tok_in_test(toks, &test, v.line);
        let allowed = allows
            .iter()
            .any(|(line, rule)| *rule == v.rule && (*line == v.line || *line + 1 == v.line));
        !tested && !allowed
    });
    out.sort_by_key(|v| (v.line, v.rule));
    out
}

/// Is any token on `line` inside test scope? (Violations carry lines, not
/// token indices; a line is test scope if its tokens are.)
fn tok_in_test(toks: &[Tok<'_>], mask: &[bool], line: u32) -> bool {
    toks.iter()
        .zip(mask)
        .any(|(t, in_test)| t.line == line && *in_test)
}

/// Marks every token covered by a `#[cfg(test)]`/`#[test]` item.
fn test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if !(toks[i].is('#') && toks.get(i + 1).is_some_and(|t| t.is('['))) {
            i += 1;
            continue;
        }
        // One or more attributes: remember whether any is test-flavored.
        let mut any_test = false;
        let mut j = i;
        while toks.get(j).is_some_and(|t| t.is('#')) && toks.get(j + 1).is_some_and(|t| t.is('[')) {
            let close = match matching(toks, j + 1, '[', ']') {
                Some(c) => c,
                None => return mask,
            };
            any_test |= toks[j + 1..close].iter().any(|t| t.is_ident("test"));
            j = close + 1;
        }
        if !any_test {
            i = j;
            continue;
        }
        // The attributed item, from its attributes through its body's
        // closing `}`, is test scope; a braceless item has no scope.
        let Some((_, close)) = item_body(toks, j) else {
            i = j;
            continue;
        };
        for m in mask.iter_mut().take(close + 1).skip(i) {
            *m = true;
        }
        i = close + 1;
    }
    mask
}

/// The `{`…`}` body of the item whose signature starts at `start`: the
/// first `{` outside parens, brackets and generics, and its match (or the
/// last token, for a truncated file). `None` when a `;` ends the item
/// first (a braceless item or a trait method declaration).
fn item_body(toks: &[Tok<'_>], start: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(start) {
        if t.is('(') || t.is('[') || t.is('<') {
            depth += 1;
        } else if t.is(')') || t.is(']') || t.is('>') {
            depth -= 1;
        } else if depth <= 0 && t.is('{') {
            return Some((k, matching(toks, k, '{', '}').unwrap_or(toks.len() - 1)));
        } else if depth <= 0 && t.is(';') {
            return None;
        }
    }
    None
}

/// Index of the token closing the bracket opened at `open`.
fn matching(toks: &[Tok<'_>], open: usize, open_c: char, close_c: char) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is(open_c) {
            depth += 1;
        } else if t.is(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Extracts `lint: allow(<rule>)` suppressions: (comment line, rule).
/// A suppression covers its own line and the line directly below.
fn allow_lines(comments: &[Comment]) -> Vec<(u32, Rule)> {
    let mut out = Vec::new();
    for c in comments {
        let Some(pos) = c.text.find("lint: allow(") else {
            continue;
        };
        let rest = &c.text[pos + "lint: allow(".len()..];
        let Some(end) = rest.find(')') else { continue };
        for name in rest[..end].split(',') {
            if let Some(rule) = Rule::parse(name) {
                out.push((c.end_line, rule));
            }
        }
    }
    out
}

/// Blocking calls a lock guard must not be bound across.
const BLOCKING_CALLS: [&str; 6] = [
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "fsync",
    "write_message",
];

fn rule_l3(file: &str, toks: &[Tok<'_>], out: &mut Vec<Violation>) {
    // Live guards: (name, brace depth of its binding, line).
    let mut guards: Vec<(&str, i32, u32)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is('{') {
            depth += 1;
        } else if t.is('}') {
            depth -= 1;
            guards.retain(|g| g.1 <= depth);
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is(')'))
        {
            let name = toks[i + 2].text;
            guards.retain(|g| g.0 != name);
        } else if t.is_ident("let") {
            // `let [mut] NAME = ...;` — a guard if the initializer calls
            // `.lock()` before the statement's `;` at this depth.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let Some(name_tok) = toks.get(j).filter(|n| n.kind == TokKind::Ident) else {
                i += 1;
                continue;
            };
            let mut k = j;
            let mut stmt_depth = 0i32;
            let mut is_guard = false;
            while let Some(st) = toks.get(k) {
                if st.is('{') || st.is('(') || st.is('[') {
                    stmt_depth += 1;
                } else if st.is('}') || st.is(')') || st.is(']') {
                    stmt_depth -= 1;
                } else if st.is(';') && stmt_depth == 0 {
                    break;
                } else if st.is_ident("lock")
                    && k >= 1
                    && toks[k - 1].is('.')
                    && toks.get(k + 1).is_some_and(|n| n.is('('))
                {
                    is_guard = true;
                }
                k += 1;
            }
            if is_guard {
                guards.push((name_tok.text, depth, name_tok.line));
            }
            i = k;
            continue;
        } else if t.kind == TokKind::Ident
            && BLOCKING_CALLS.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is('('))
        {
            if let Some((name, _, line)) = guards.last() {
                out.push(Violation::new(
                    Rule::L3,
                    file,
                    t.line,
                    format!(
                        "blocking call `{}` with lock guard `{}` (bound line {}) still live; \
                         drop the guard or narrow its block",
                        t.text, name, line
                    ),
                ));
            }
        }
        i += 1;
    }
}

// The per-frame ring hot functions: every ring frame (and with small
// values, every committed write) passes through these on the data path,
// so a stray `Instant::now()` syscall or heap allocation here is a
// throughput regression, not a style nit. The metrics helpers
// (`hts_metrics::now_nanos`, the `counter!`-family macros) are designed
// alloc-free and are not in the flagged construct set. Every name must
// name a function of the protocol crates (`missing_hot_functions`).
/// The line of `HOT_FUNCTIONS`, where a violation of
/// [`missing_hot_functions`] points.
const HOT_FUNCTIONS_LINE: u32 = line!() + 1;
const HOT_FUNCTIONS: [&str; 11] = [
    // The lane core's claim of a link's next batch and its batch
    // selection, which both runtimes pull ring batches through, and the
    // scheduler beneath them.
    "claim",
    "next_batch",
    "drain_frames",
    "next_frame",
    "next_object_frame",
    // The runtimes' ring pumps (the reactor's and the simulator's).
    "pump",
    // The zero-copy decode: a per-call allocation here is exactly what
    // zero-copy framing exists to avoid.
    "decode_shared",
    // The reactor's per-wakeup path: every readiness event (so every
    // frame, reply, and reconnect) flows through these.
    "poll_ready",
    "dispatch_event",
    "resume_write",
    // The session's per-reply path (it was a helper thread's loop): every
    // reply a client receives is read, matched and completed here.
    "drain_replies",
];

/// `Type::new()` constructors that heap-allocate.
const ALLOC_TYPES: [&str; 4] = ["Vec", "VecDeque", "String", "Box"];
/// Macros that heap-allocate.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];
/// Allocating methods/associated fns flagged by bare name, called
/// directly or through a turbofish (`collect::<Vec<_>>()`).
const ALLOC_CALLS: [&str; 3] = ["to_vec", "with_capacity", "collect"];

/// The token after the name at `k`, past its turbofish if it has one.
fn after_turbofish<'t>(toks: &'t [Tok<'_>], k: usize) -> Option<&'t Tok<'t>> {
    let is = |d: usize, c: char| toks.get(k + d).is_some_and(|t| t.is(c));
    if is(1, ':') && is(2, ':') && is(3, '<') {
        return toks.get(matching(toks, k + 3, '<', '>')? + 1);
    }
    toks.get(k + 1)
}

/// The type and function names of a `Type::function(` call at `k`.
fn assoc_call<'a>(toks: &[Tok<'a>], k: usize) -> Option<(&'a str, &'a str)> {
    match toks.get(k..k + 5)? {
        [ty, c1, c2, f, open]
            if ty.kind == TokKind::Ident
                && c1.is(':')
                && c2.is(':')
                && f.kind == TokKind::Ident
                && open.is('(') =>
        {
            Some((ty.text, f.text))
        }
        _ => None,
    }
}

/// The L6 ring hot functions that `src` defines outside test scope.
pub fn hot_functions_in(src: &str) -> Vec<&'static str> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let test = test_mask(toks);
    (0..toks.len().saturating_sub(1))
        .filter(|&i| toks[i].is_ident("fn") && !test[i])
        .filter_map(|i| HOT_FUNCTIONS.into_iter().find(|h| *h == toks[i + 1].text))
        .collect()
}

/// An L6 violation for every ring hot function name that is not in
/// `defined` (the names [`hot_functions_in`] found across the protocol
/// crates): a hot function renamed or deleted would otherwise leave L6
/// silently guarding nothing.
pub fn missing_hot_functions(defined: &[&str]) -> Vec<Violation> {
    HOT_FUNCTIONS
        .into_iter()
        .filter(|name| !defined.contains(name))
        .map(|name| {
            let what = format!(
                "ring hot function `{name}` is defined in no protocol crate, so L6 checks \
                 nothing under that name; point HOT_FUNCTIONS at its new name or drop it"
            );
            Violation::new(Rule::L6, file!(), HOT_FUNCTIONS_LINE, what)
        })
        .collect()
}

fn rule_l6(file: &str, toks: &[Tok<'_>], out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i < toks.len() {
        let hot = toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .is_some_and(|t| HOT_FUNCTIONS.contains(&t.text));
        let Some((open, close)) = hot.then(|| item_body(toks, i + 2)).flatten() else {
            i += 1;
            continue;
        };
        let fn_name = toks[i + 1].text;
        for (k, t) in toks.iter().enumerate().take(close).skip(open + 1) {
            if t.kind != TokKind::Ident {
                continue;
            }
            let shown = match assoc_call(toks, k) {
                // A clock read (a syscall without the vDSO) per frame.
                Some(("Instant", "now")) => "Instant::now()".to_string(),
                // `Vec::new()` / `String::new()` / ...: an allocation.
                Some((ty, "new")) if ALLOC_TYPES.contains(&ty) => format!("{ty}::new"),
                _ if ALLOC_MACROS.contains(&t.text)
                    && toks.get(k + 1).is_some_and(|n| n.is('!')) =>
                {
                    format!("{}!", t.text)
                }
                _ if ALLOC_CALLS.contains(&t.text)
                    && after_turbofish(toks, k).is_some_and(|n| n.is('(')) =>
                {
                    t.text.to_string()
                }
                _ => continue,
            };
            let what = format!(
                "`{shown}` in ring hot function `{fn_name}` runs once per frame; hoist it out \
                 or reuse a caller-provided buffer (hts_metrics::now_nanos is free when \
                 metrics are off)"
            );
            out.push(Violation::new(Rule::L6, file, t.line, what));
        }
        i = close + 1;
    }
}

/// Pure-counter modules where `Relaxed` is the designed default: every
/// atomic there is an independent statistic (no cross-variable ordering
/// to argue), so a justification per counter bump would be noise, not
/// signal. Fences are still flagged even here.
const L7_COUNTER_FILES: [&str; 2] = ["crates/metrics/src/lib.rs", "crates/metrics/src/hist.rs"];

/// The only protocol files that may construct an atomic: the metrics
/// primitives above, and the reactor's shutdown flag (set once, read by
/// pollers that an eventfd also wakes, so only eventual visibility
/// matters). An atomic anywhere else is a new concurrent protocol, which
/// must be argued for with an explicit edit to this list.
const L7_ATOMIC_FILES: [&str; 3] = [
    "crates/metrics/src/lib.rs",
    "crates/metrics/src/hist.rs",
    "crates/net/src/reactor.rs",
];

fn rule_l7(file: &str, toks: &[Tok<'_>], comments: &[Comment], out: &mut Vec<Violation>) {
    let counter_file = L7_COUNTER_FILES.contains(&file);
    let atomic_file = L7_ATOMIC_FILES.contains(&file);
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        // `use ... Ordering::Relaxed;` names an ordering without using
        // one — skip import statements wholesale.
        if t.is_ident("use") {
            while i < toks.len() && !toks[i].is(';') {
                i += 1;
            }
            continue;
        }
        // `Ordering::Relaxed` / `atomic::Ordering::Relaxed` — anything
        // path-qualified. Relaxed gives *no* inter-thread ordering, so
        // each site must say why none is needed.
        let relaxed = t.is_ident("Relaxed") && i >= 2 && toks[i - 1].is(':') && toks[i - 2].is(':');
        // `fence(..)` / `compiler_fence(..)`: ordering decoupled from
        // any one access is the easiest kind to break by refactoring.
        let fence = (t.is_ident("fence") || t.is_ident("compiler_fence"))
            && toks.get(i + 1).is_some_and(|n| n.is('('));
        // `AtomicU64::new(..)` and the like.
        let atomic_ctor =
            assoc_call(toks, i).is_some_and(|(ty, f)| ty.starts_with("Atomic") && f == "new");
        if atomic_ctor && !atomic_file {
            out.push(Violation::new(
                Rule::L7,
                file,
                t.line,
                format!(
                    "`{}::new` outside the files allowed to construct atomics; use a \
                     lock, or argue for adding this file to L7_ATOMIC_FILES",
                    t.text
                ),
            ));
        }
        if (relaxed && !counter_file) || fence {
            let justified = comments.iter().any(|c| {
                c.text.contains("ordering:") && c.end_line <= t.line && c.end_line + 2 >= t.line
            });
            if !justified {
                let what = format!(
                    "`{}` without a `// ordering:` comment saying why it is sound, or what \
                     it pairs with",
                    t.text
                );
                out.push(Violation::new(Rule::L7, file, t.line, what));
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str) -> Vec<(Rule, u32)> {
        check_file("x.rs", src)
            .into_iter()
            .map(|v| (v.rule, v.line))
            .collect()
    }

    #[test]
    fn test_scope_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    \
                   fn t() { x.load(Ordering::Relaxed); }\n}\n\
                   fn f() { y.load(Ordering::Relaxed); }\n";
        assert_eq!(rules_of(src), vec![(Rule::L7, 6)]);
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src = "fn pump() {\n    // lint: allow(ring_hot_loop): one buffer per wake\n    \
                   let a = Vec::new();\n    let b = Vec::new();\n}\n";
        assert_eq!(rules_of(src), vec![(Rule::L6, 4)]);
    }

    #[test]
    fn l3_flags_guard_across_flush_but_not_after_block() {
        let src = "fn f() {\n    {\n        let mut q = shared.lock();\n        \
                   stream.flush();\n    }\n    stream.flush();\n}\n";
        assert_eq!(rules_of(src), vec![(Rule::L3, 4)]);
    }

    #[test]
    fn l3_respects_explicit_drop() {
        let src = "fn f() {\n    let q = m.lock();\n    drop(q);\n    stream.write_all(b);\n}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn l6_flags_clocks_and_allocs_in_hot_functions_only() {
        let src = "fn claim() {\n    let d = Instant::now();\n    let mut b = Vec::new();\n    \
                   let s = format!(\"x\");\n    let v = slice.to_vec();\n    \
                   let ids: Vec<u32> = keys.collect();\n    \
                   let ids = keys.collect::<Vec<Vec<u32>>>();\n    let n = keys.count();\n}\n\
                   fn cold_path() {\n    let d = Instant::now();\n    let b = keys.collect();\n}\n";
        let lines: Vec<(Rule, u32)> = (2..=7).map(|line| (Rule::L6, line)).collect();
        assert_eq!(rules_of(src), lines);
    }

    #[test]
    fn l6_flags_hot_function_names_no_crate_defines() {
        let src = "fn claim() {}\nfn cold() {}\n#[cfg(test)]\nmod t { fn pump() {} }\n";
        assert_eq!(hot_functions_in(src), ["claim"]);
        assert!(missing_hot_functions(&HOT_FUNCTIONS).is_empty());
        let defined: Vec<&str> = HOT_FUNCTIONS.into_iter().filter(|h| *h != "pump").collect();
        let missing = missing_hot_functions(&defined);
        assert_eq!(missing.len(), 1, "{missing:?}");
        assert_eq!(missing[0].rule, Rule::L6);
        assert!(missing[0].what.contains("`pump`"), "{missing:?}");
        assert_eq!(missing[0].file, "crates/check/src/rules.rs");
        let listed = include_str!("rules.rs")
            .lines()
            .nth(HOT_FUNCTIONS_LINE as usize - 1);
        assert!(listed.is_some_and(|l| l.starts_with("const HOT_FUNCTIONS:")));
    }

    #[test]
    fn l6_permits_metrics_helpers_and_nonallocating_code() {
        let src = "fn next_frame() {\n    let t0 = hts_metrics::now_nanos();\n    \
                   hts_metrics::histogram!(\"hts_x\").record(t0);\n    q.pop_front();\n}\n";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn l7_requires_ordering_justification() {
        let bad = "fn f() {\n    x.load(Ordering::Relaxed);\n    fence(Ordering::SeqCst);\n}\n";
        assert_eq!(rules_of(bad), vec![(Rule::L7, 2), (Rule::L7, 3)]);
        let good = "fn f() {\n    // ordering: a pure counter, read only for stats\n    \
                    x.load(Ordering::Relaxed);\n    \
                    fence(Ordering::Release); // ordering: pairs with the Acquire in g\n}\n";
        assert!(rules_of(good).is_empty());
    }

    #[test]
    fn l7_leaves_non_relaxed_orderings_alone() {
        let src = "fn f() { x.store(1, Ordering::Release); y.load(Ordering::Acquire); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn l7_skips_imports_and_counter_files() {
        let src =
            "use std::sync::atomic::Ordering::Relaxed;\nfn f() { x.load(Ordering::Relaxed); }\n";
        // The import never fires; the use site does — except in the
        // whitelisted pure-counter modules.
        assert_eq!(rules_of(src), vec![(Rule::L7, 2)]);
        assert!(check_file("crates/metrics/src/lib.rs", src).is_empty());
        // Fences need a justification even in counter files.
        let fenced = "fn f() { fence(Ordering::SeqCst); }";
        assert_eq!(check_file("crates/metrics/src/hist.rs", fenced).len(), 1);
    }

    #[test]
    fn l7_flags_atomics_outside_the_allow_list() {
        let src = "static F: AtomicBool = AtomicBool::new(false);\n\
                   #[cfg(test)]\nmod t { fn g() { let _ = AtomicU32::new(1); } }\n";
        assert_eq!(rules_of(src), vec![(Rule::L7, 1)]);
    }

    #[test]
    fn l7_allows_atomics_in_listed_files() {
        let src = "static F: AtomicBool = AtomicBool::new(false);\n";
        assert!(check_file("crates/net/src/reactor.rs", src).is_empty());
        assert!(check_file("crates/metrics/src/hist.rs", src).is_empty());
    }
}
