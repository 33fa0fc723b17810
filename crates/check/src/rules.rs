//! The seven protocol-safety rules, run over one file's token stream.
//!
//! | Rule | Guards against |
//! |------|----------------|
//! | L1 `no_panic` | `unwrap`/`expect`/`panic!`/`assert!`-family in non-test protocol code — errors must propagate |
//! | L2 `no_sleep` | `thread::sleep` on event-loop / writer / client-attempt paths |
//! | L3 `guard_across_io` | a lock guard bound live across a `write`/`flush`/`sync` call in the same block |
//! | L4 `message_catch_all` | `_ =>` catch-alls in a `match` dispatching [`Message`] wire variants |
//! | L5 `unsafe_safety` | an `unsafe` block without a `// SAFETY:` comment |
//! | L6 `ring_hot_loop` | `Instant::now()` / allocation constructors inside the per-frame ring hot functions |
//! | L7 `atomic_ordering` | `Ordering::Relaxed` or a fence without a `// ordering:` comment arguing why it is sound |
//!
//! All rules skip test scope (`#[cfg(test)]` items and `#[test]` fns) and
//! honor `// lint: allow(<rule>): reason` suppressions on the violating
//! line or the line directly above.

use std::fmt;

use crate::lexer::{lex, Comment, Tok, TokKind};

/// A rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// No `unwrap`/`expect`/`panic!`/`assert!` in non-test protocol code.
    L1,
    /// No `thread::sleep` in non-test protocol code.
    L2,
    /// No lock guard bound across a blocking write/flush/sync call.
    L3,
    /// No `_ =>` catch-all in a `match` over [`Message`] variants.
    L4,
    /// Every `unsafe` block carries a `// SAFETY:` comment.
    L5,
    /// No `Instant::now()` or allocation constructors in the per-frame
    /// ring hot functions.
    L6,
    /// Every `Ordering::Relaxed` and every fence carries a
    /// `// ordering:` comment (pure-counter modules excepted).
    L7,
}

impl Rule {
    /// Every rule, in order.
    pub const ALL: [Rule; 7] = [
        Rule::L1,
        Rule::L2,
        Rule::L3,
        Rule::L4,
        Rule::L5,
        Rule::L6,
        Rule::L7,
    ];

    /// The rule's short id (`"L1"`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::L1 => "L1",
            Rule::L2 => "L2",
            Rule::L3 => "L3",
            Rule::L4 => "L4",
            Rule::L5 => "L5",
            Rule::L6 => "L6",
            Rule::L7 => "L7",
        }
    }

    /// The rule's long name, accepted in `lint: allow(...)` comments
    /// alongside the short id.
    pub fn name(self) -> &'static str {
        match self {
            Rule::L1 => "panic",
            Rule::L2 => "sleep",
            Rule::L3 => "guard_across_io",
            Rule::L4 => "message_catch_all",
            Rule::L5 => "unsafe_safety",
            Rule::L6 => "ring_hot_loop",
            Rule::L7 => "atomic_ordering",
        }
    }

    /// Parses a rule id or name (case-insensitive).
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim().to_ascii_lowercase();
        Rule::ALL
            .into_iter()
            .find(|r| s == r.id().to_ascii_lowercase() || s == r.name())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
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
    rule_l1(file, toks, &mut out);
    rule_l2(file, toks, &mut out);
    rule_l3(file, toks, &mut out);
    rule_l4(file, toks, &mut out);
    rule_l5(file, toks, &lexed.comments, &mut out);
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
pub(crate) fn test_mask(toks: &[Tok<'_>]) -> Vec<bool> {
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
        // The attributed item: everything to its opening `{` (or a `;`
        // for braceless items) and through the matching `}` is test scope.
        let mut k = j;
        let mut depth_paren = 0i32;
        let mut open = None;
        while let Some(t) = toks.get(k) {
            if t.is('(') || t.is('[') || t.is('<') {
                depth_paren += 1;
            } else if t.is(')') || t.is(']') || t.is('>') {
                depth_paren -= 1;
            } else if depth_paren <= 0 && t.is('{') {
                open = Some(k);
                break;
            } else if depth_paren <= 0 && t.is(';') {
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            i = j;
            continue;
        };
        let close = matching(toks, open, '{', '}').unwrap_or(toks.len() - 1);
        for m in mask.iter_mut().take(close + 1).skip(i) {
            *m = true;
        }
        i = close + 1;
    }
    mask
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

/// Method names that panic instead of propagating.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Macros that panic (the `assert!` family included; `debug_assert!` is
/// exempt — it compiles out of release builds).
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

fn rule_l1(file: &str, toks: &[Tok<'_>], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| toks.get(p));
        let next = toks.get(i + 1);
        let is_method_call = PANIC_METHODS.contains(&t.text)
            && prev.is_some_and(|p| p.is('.'))
            && next.is_some_and(|n| n.is('('));
        let is_macro = PANIC_MACROS.contains(&t.text) && next.is_some_and(|n| n.is('!'));
        if is_method_call {
            out.push(Violation {
                rule: Rule::L1,
                file: file.to_string(),
                line: t.line,
                what: format!(".{}() panics; propagate the error instead", t.text),
            });
        } else if is_macro {
            out.push(Violation {
                rule: Rule::L1,
                file: file.to_string(),
                line: t.line,
                what: format!("{}! panics; propagate the error instead", t.text),
            });
        }
    }
}

fn rule_l2(file: &str, toks: &[Tok<'_>], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("sleep") {
            continue;
        }
        // `thread::sleep`, `std::thread::sleep`.
        let qualified = i >= 2
            && toks[i - 1].is(':')
            && toks.get(i.wrapping_sub(2)).is_some_and(|t| t.is(':'))
            && toks
                .get(i.wrapping_sub(3))
                .is_some_and(|t| t.is_ident("thread"));
        if qualified {
            out.push(Violation {
                rule: Rule::L2,
                file: file.to_string(),
                line: t.line,
                what: "thread::sleep stalls this thread; use a condvar/deadline wait".to_string(),
            });
        }
    }
}

/// Blocking calls a lock guard must not be bound across.
const BLOCKING_CALLS: [&str; 7] = [
    "write_all",
    "flush",
    "sync_all",
    "sync_data",
    "fsync",
    "write_message_with",
    "write_ring_frames",
];

fn rule_l3(file: &str, toks: &[Tok<'_>], out: &mut Vec<Violation>) {
    struct Guard {
        name: String,
        depth: i32,
        line: u32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is('{') {
            depth += 1;
        } else if t.is('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|n| n.is('('))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|n| n.is(')'))
        {
            let name = toks[i + 2].text;
            guards.retain(|g| g.name != name);
        } else if t.is_ident("let") {
            // `let [mut] NAME = ...;` — a guard if the initializer calls
            // `.lock()` / `.read()` / `.write()` on something named like a
            // lock, before the statement's `;` at this depth.
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
                guards.push(Guard {
                    name: name_tok.text.to_string(),
                    depth,
                    line: name_tok.line,
                });
            }
            i = k;
            continue;
        } else if t.kind == TokKind::Ident
            && BLOCKING_CALLS.contains(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is('('))
        {
            if let Some(g) = guards.last() {
                out.push(Violation {
                    rule: Rule::L3,
                    file: file.to_string(),
                    line: t.line,
                    what: format!(
                        "blocking call `{}` with lock guard `{}` (bound line {}) still live; \
                         drop the guard or narrow its block",
                        t.text, g.name, g.line
                    ),
                });
            }
        }
        i += 1;
    }
}

fn rule_l4(file: &str, toks: &[Tok<'_>], out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("match") {
            i += 1;
            continue;
        }
        // The match body: first `{` past the scrutinee at bracket depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut body_open = None;
        while let Some(t) = toks.get(j) {
            if t.is('(') || t.is('[') {
                depth += 1;
            } else if t.is(')') || t.is(']') {
                depth -= 1;
            } else if depth == 0 && t.is('{') {
                body_open = Some(j);
                break;
            } else if depth == 0 && (t.is(';') || t.is_ident("match")) {
                break; // malformed/nested start; bail on this `match`
            }
            j += 1;
        }
        let Some(open) = body_open else {
            i += 1;
            continue;
        };
        let Some(close) = matching(toks, open, '{', '}') else {
            i += 1;
            continue;
        };
        // Split the body into arms: pattern tokens run to the `=>` at
        // depth 0 (inside the body), the arm body to the `,` at depth 0
        // or through a braced block.
        let mut arms: Vec<(usize, usize)> = Vec::new(); // pattern [start, end) -> `=>`
        let mut k = open + 1;
        while k < close {
            let pat_start = k;
            let mut depth = 0i32;
            let mut arrow = None;
            while k < close {
                let t = &toks[k];
                if t.is('(') || t.is('[') || t.is('{') {
                    depth += 1;
                } else if t.is(')') || t.is(']') || t.is('}') {
                    depth -= 1;
                } else if depth == 0 && t.is('=') && toks.get(k + 1).is_some_and(|n| n.is('>')) {
                    arrow = Some(k);
                    break;
                }
                k += 1;
            }
            let Some(arrow) = arrow else { break };
            arms.push((pat_start, arrow));
            // Skip the arm body.
            k = arrow + 2;
            if toks.get(k).is_some_and(|t| t.is('{')) {
                k = matching(toks, k, '{', '}').map_or(close, |c| c + 1);
            } else {
                let mut depth = 0i32;
                while k < close {
                    let t = &toks[k];
                    if t.is('(') || t.is('[') || t.is('{') {
                        depth += 1;
                    } else if t.is(')') || t.is(']') || t.is('}') {
                        depth -= 1;
                    } else if depth == 0 && t.is(',') {
                        k += 1;
                        break;
                    }
                    k += 1;
                }
            }
            if toks.get(k).is_some_and(|t| t.is(',')) {
                k += 1;
            }
        }
        // A `Message` match: any arm pattern names a `Message::` variant.
        let is_message_match = arms.iter().any(|&(s, e)| {
            toks[s..e]
                .windows(3)
                .any(|w| w[0].is_ident("Message") && w[1].is(':') && w[2].is(':'))
        });
        if is_message_match {
            for &(s, e) in &arms {
                let pat: Vec<&Tok<'_>> = toks[s..e].iter().collect();
                let bare_underscore = pat.len() == 1 && pat[0].is_ident("_");
                // `Ok(_)`/`Some(_)` hide a wrapped Message; `Err(_)`
                // wraps an error and stays legal.
                let wrapped_underscore = pat.len() == 4
                    && (pat[0].is_ident("Ok") || pat[0].is_ident("Some"))
                    && pat[1].is('(')
                    && pat[2].is_ident("_")
                    && pat[3].is(')');
                if bare_underscore || wrapped_underscore {
                    out.push(Violation {
                        rule: Rule::L4,
                        file: file.to_string(),
                        line: toks[s].line,
                        what: "catch-all arm in a `Message` match; dispatch every wire \
                               variant by name"
                            .to_string(),
                    });
                }
            }
        }
        i = open + 1; // nested matches inside the body are scanned too
    }
}

fn rule_l5(file: &str, toks: &[Tok<'_>], comments: &[Comment], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        // Only `unsafe { ... }` blocks; `unsafe fn`/`unsafe impl` carry
        // their obligations in their docs.
        if !toks.get(i + 1).is_some_and(|n| n.is('{')) {
            continue;
        }
        let covered = comments.iter().any(|c| {
            c.text.contains("SAFETY:") && c.end_line <= t.line && c.end_line + 2 >= t.line
        });
        if !covered {
            out.push(Violation {
                rule: Rule::L5,
                file: file.to_string(),
                line: t.line,
                what: "unsafe block without a `// SAFETY:` comment justifying it".to_string(),
            });
        }
    }
}

/// The per-frame ring hot functions: every ring frame (and with small
/// values, every committed write) passes through these on the data path,
/// so a stray `Instant::now()` syscall or heap allocation here is a
/// throughput regression, not a style nit. The metrics helpers
/// (`hts_metrics::now_nanos`, the `counter!`-family macros) are designed
/// alloc-free and are not in the flagged construct set.
const HOT_FUNCTIONS: [&str; 11] = [
    "drain_batch",
    "next_frame",
    "drain_frames",
    "drain_frames_with",
    "next_object_frame",
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
/// Allocating methods/associated fns flagged by bare name.
const ALLOC_CALLS: [&str; 2] = ["to_vec", "with_capacity"];

fn rule_l6(file: &str, toks: &[Tok<'_>], out: &mut Vec<Violation>) {
    let mut i = 0usize;
    while i < toks.len() {
        let hot = toks[i].is_ident("fn")
            && toks
                .get(i + 1)
                .is_some_and(|t| HOT_FUNCTIONS.contains(&t.text));
        if !hot {
            i += 1;
            continue;
        }
        // The body: first `{` at bracket depth 0 past the signature.
        let mut j = i + 2;
        let mut depth = 0i32;
        let mut open = None;
        while let Some(t) = toks.get(j) {
            if t.is('(') || t.is('[') || t.is('<') {
                depth += 1;
            } else if t.is(')') || t.is(']') || t.is('>') {
                depth -= 1;
            } else if depth <= 0 && t.is('{') {
                open = Some(j);
                break;
            } else if depth <= 0 && t.is(';') {
                break; // trait method declaration: no body
            }
            j += 1;
        }
        let Some(open) = open else {
            i += 2;
            continue;
        };
        let close = matching(toks, open, '{', '}').unwrap_or(toks.len() - 1);
        let fn_name = toks[i + 1].text;
        for k in open + 1..close {
            let t = &toks[k];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next = toks.get(k + 1);
            // `Instant::now()` — a syscall per frame.
            if t.is_ident("now")
                && k >= 3
                && toks[k - 1].is(':')
                && toks[k - 2].is(':')
                && toks[k - 3].is_ident("Instant")
                && next.is_some_and(|n| n.is('('))
            {
                out.push(Violation {
                    rule: Rule::L6,
                    file: file.to_string(),
                    line: t.line,
                    what: format!(
                        "Instant::now() in ring hot function `{fn_name}`; hoist it out of the \
                         per-frame path (or use hts_metrics::now_nanos, which is free when \
                         metrics are off)"
                    ),
                });
                continue;
            }
            // `Vec::new()` / `String::new()` / ... — a heap allocation
            // per frame.
            let alloc_new = t.is_ident("new")
                && k >= 3
                && toks[k - 1].is(':')
                && toks[k - 2].is(':')
                && ALLOC_TYPES.contains(&toks[k - 3].text)
                && next.is_some_and(|n| n.is('('));
            let alloc_macro = ALLOC_MACROS.contains(&t.text) && next.is_some_and(|n| n.is('!'));
            let alloc_call = ALLOC_CALLS.contains(&t.text) && next.is_some_and(|n| n.is('('));
            if alloc_new || alloc_macro || alloc_call {
                let shown = if alloc_macro {
                    format!("{}!", t.text)
                } else if alloc_new {
                    format!("{}::new", toks[k - 3].text)
                } else {
                    t.text.to_string()
                };
                out.push(Violation {
                    rule: Rule::L6,
                    file: file.to_string(),
                    line: t.line,
                    what: format!(
                        "`{shown}` allocates in ring hot function `{fn_name}`; reuse a \
                         caller-provided buffer instead"
                    ),
                });
            }
        }
        i = close + 1;
    }
}

/// Pure-counter modules where `Relaxed` is the designed default: every
/// atomic there is an independent statistic (no cross-variable ordering
/// to argue), so a justification per counter bump would be noise, not
/// signal. Fences are still flagged even here.
const L7_COUNTER_FILES: [&str; 2] = ["crates/metrics/src/lib.rs", "crates/metrics/src/hist.rs"];

fn rule_l7(file: &str, toks: &[Tok<'_>], comments: &[Comment], out: &mut Vec<Violation>) {
    let counter_file = L7_COUNTER_FILES.contains(&file);
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
        if (relaxed && !counter_file) || fence {
            let justified = comments.iter().any(|c| {
                c.text.contains("ordering:") && c.end_line <= t.line && c.end_line + 2 >= t.line
            });
            if !justified {
                let what = if fence {
                    format!(
                        "`{}` without a `// ordering:` comment; state what it pairs with",
                        t.text
                    )
                } else {
                    "`Ordering::Relaxed` without a `// ordering:` comment arguing why \
                     no ordering is needed"
                        .to_string()
                };
                out.push(Violation {
                    rule: Rule::L7,
                    file: file.to_string(),
                    line: t.line,
                    what,
                });
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
    fn l1_flags_panics_and_unwraps() {
        let src = "fn f() {\n    let x = y.unwrap();\n    panic!(\"no\");\n}\n";
        assert_eq!(rules_of(src), vec![(Rule::L1, 2), (Rule::L1, 3)]);
    }

    #[test]
    fn l1_skips_unwrap_or_variants() {
        let src = "fn f() { let x = y.unwrap_or(0); let z = y.unwrap_or_else(|| 1); }";
        assert!(rules_of(src).is_empty());
    }

    #[test]
    fn test_scope_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\n\
                   fn f() { y.unwrap(); }\n";
        assert_eq!(rules_of(src), vec![(Rule::L1, 6)]);
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let src = "fn f() {\n    // lint: allow(sleep): startup backoff\n    \
                   thread::sleep(d);\n    thread::sleep(d);\n}\n";
        assert_eq!(rules_of(src), vec![(Rule::L2, 4)]);
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
    fn l4_flags_catch_all_in_message_match_only() {
        let src = "fn f(m: M) {\n    match m {\n        Message::Ring(f) => a(),\n        \
                   _ => b(),\n    }\n    match n {\n        Other::X => c(),\n        _ => d(),\n    }\n}\n";
        assert_eq!(rules_of(src), vec![(Rule::L4, 4)]);
    }

    #[test]
    fn l4_flags_wrapped_catch_all() {
        let src = "fn f(m: R) {\n    match m {\n        Ok(Message::Ring(f)) => a(),\n        \
                   Ok(_) => b(),\n        Err(e) => c(e),\n    }\n}\n";
        assert_eq!(rules_of(src), vec![(Rule::L4, 4)]);
    }

    #[test]
    fn l6_flags_clocks_and_allocs_in_hot_functions_only() {
        let src =
            "fn drain_batch() {\n    let d = Instant::now();\n    let mut b = Vec::new();\n    \
                   let s = format!(\"x\");\n    let v = slice.to_vec();\n}\n\
                   fn cold_path() {\n    let d = Instant::now();\n    let b = Vec::new();\n}\n";
        assert_eq!(
            rules_of(src),
            vec![(Rule::L6, 2), (Rule::L6, 3), (Rule::L6, 4), (Rule::L6, 5)]
        );
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
    fn l5_requires_safety_comment() {
        let bad = "fn f() {\n    unsafe { g(); }\n}\n";
        assert_eq!(rules_of(bad), vec![(Rule::L5, 2)]);
        let good = "fn f() {\n    // SAFETY: g has no preconditions here\n    unsafe { g(); }\n}\n";
        assert!(rules_of(good).is_empty());
    }
}
