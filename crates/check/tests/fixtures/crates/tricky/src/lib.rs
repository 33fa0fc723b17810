// Lexer-adversarial fixture: would-be violations hidden inside raw
// strings, nested block comments and raw identifiers must NOT count,
// while the one real violation AFTER all of them must still be found on
// the right line. NEVER compiled — the linter lexes it as text. Exact
// counts and line numbers are asserted by tests/linter.rs.

pub fn pump() {
    let a = r#"Vec::new() format!("no") x.load(Ordering::Relaxed) fence(o)"#;
    let b = r##"nested "#" hashes: vec![Instant::now()]"##;
    let c = "escaped quote \" then s.to_vec() \" done";
    let d = b"byte format!(\"s\") AtomicU8::new(0)";
    let _ = (a, b, c, d);
}

/* a nested /* block comment holding Vec::new() and
   Ordering::Relaxed and /* deeper: fence(o) */ more */
   still one single comment */

pub fn r#match(x: Option<u32>) -> Option<u32> {
    // A raw identifier must stay one token: split as `r`, `#`, `match`
    // it would derail brace tracking and invent keywords.
    let r#unsafe = x;
    r#unsafe
}

pub fn multi_line_strings_keep_lines_honest() -> (&'static str, &'static str) {
    let a = "first
        second";
    let b = "continued \
        tail";
    (a, b)
}

pub fn the_real_violation(x: &AtomicU32) -> u32 {
    x.load(Ordering::Relaxed) // line 35: the file’s single L7 — found despite the above
}
