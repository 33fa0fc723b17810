//! End-to-end linter tests over the known-bad fixture tree, plus a
//! self-check that the real workspace has no violations.

use std::path::{Path, PathBuf};

use hts_check::{check_workspace, Rule, Violation};

/// Root of the fixture tree (`fixtures/crates/bad/src/lib.rs`).
fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn fixture_violations() -> Vec<Violation> {
    check_workspace(&fixtures_root(), &["bad"]).expect("fixture tree exists")
}

fn count(violations: &[Violation], rule: Rule) -> usize {
    violations.iter().filter(|v| v.rule == rule).count()
}

#[test]
fn fixture_counts_are_exact() {
    let v = fixture_violations();
    assert_eq!(count(&v, Rule::L3), 1, "L3 sites: {v:?}");
    assert_eq!(count(&v, Rule::L6), 2, "L6 sites: {v:?}");
    assert_eq!(count(&v, Rule::L7), 3, "L7 sites: {v:?}");
    assert_eq!(v.len(), 6);
}

#[test]
fn violations_carry_file_and_line() {
    let v = fixture_violations();
    let lines: Vec<(Rule, u32)> = v.iter().map(|v| (v.rule, v.line)).collect();
    // Every site, pinned to the fixture's commented lines.
    assert_eq!(
        lines,
        [
            (Rule::L3, 14),
            (Rule::L6, 32),
            (Rule::L6, 33),
            (Rule::L7, 46),
            (Rule::L7, 49),
            (Rule::L7, 53)
        ]
    );
    for violation in &v {
        assert_eq!(violation.file, "crates/bad/src/lib.rs");
        let shown = violation.to_string();
        assert!(
            shown.starts_with("crates/bad/src/lib.rs:"),
            "display leads with file:line: {shown}"
        );
    }
}

#[test]
fn test_scope_and_allow_comments_are_exempt() {
    let v = fixture_violations();
    // The `#[cfg(test)]` module builds an atomic, loads it `Relaxed` and
    // flushes under a guard on lines > 62; the allow-comment-covered
    // `format!` sits on line 35. None may appear.
    assert!(
        v.iter().all(|v| v.line < 62),
        "test-scope code leaked into the report: {v:?}"
    );
    assert!(
        !v.iter().any(|v| (34..=36).contains(&v.line)),
        "allow-comment suppression failed: {v:?}"
    );
}

/// The lexer-adversarial fixture: violations spelled out inside raw
/// strings (hash-matched), nested block comments, escaped quotes and
/// byte strings never count, even inside a hot function; raw
/// identifiers (`r#match`) neither invent keywords nor derail brace
/// tracking; and multi-line strings (escaped newlines included) keep
/// later line numbers honest — the file's one real violation is found,
/// on exactly its line.
#[test]
fn tricky_lexing_neither_hides_nor_invents_violations() {
    let v = check_workspace(&fixtures_root(), &["tricky"]).expect("fixture tree exists");
    assert_eq!(v.len(), 1, "exactly one real violation: {v:?}");
    assert_eq!(v[0].rule, Rule::L7);
    assert_eq!(v[0].file, "crates/tricky/src/lib.rs");
    assert_eq!(v[0].line, 35, "line drift through the literals: {v:?}");
}

/// The real workspace has no violations — the same check CI's lint step
/// runs, kept honest from the test suite.
#[test]
fn workspace_has_no_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/check sits two levels below the workspace root")
        .to_path_buf();
    let violations = check_workspace(&root, &hts_check::PROTOCOL_CRATES).expect("workspace lints");
    assert!(
        violations.is_empty(),
        "lint violations (fix them or add `// lint: allow(<rule>): reason`): {violations:#?}"
    );
}
