//! `hts-check`: the protocol-safety rules of the hts workspace that
//! clippy cannot state.
//!
//! The protocol crates (`crates/{types,core,net,wal,sim,metrics}`) are
//! held to seven rules. Four are clippy lints, denied in each protocol
//! crate's `lib.rs` (non-test builds) and in the workspace's
//! `[workspace.lints.clippy]` table:
//!
//! * **L1 `no_panic`** — `clippy::{unwrap_used, expect_used, panic,
//!   unreachable, todo, unimplemented}`, plus `clippy::disallowed_macros`
//!   for the `assert!` family listed in `clippy.toml`;
//! * **L2 `no_sleep`** — `clippy::disallowed_methods` for
//!   `std::thread::sleep`;
//! * **L4 `message_catch_all`** — `clippy::wildcard_enum_match_arm`,
//!   which covers every enum, not only `Message`;
//! * **L5 `unsafe_safety`** — `clippy::undocumented_unsafe_blocks`, in
//!   every crate of the workspace.
//!
//! An exemption from any of them is an `#[expect(lint, reason = "…")]`
//! (`clippy::allow_attributes` and `allow_attributes_without_reason` are
//! denied), and an `expect` fails once its site is fixed.
//!
//! This crate is a dependency-free, token-level linter for the other
//! three — L3 `guard_across_io`, L6 `ring_hot_loop` and L7
//! `atomic_ordering` (see [`rules`]) — which need to know which calls
//! block, which functions are hot and which files may hold atomics.
//! A justified exception carries `// lint: allow(<rule>): reason` on its
//! line or the line above. Any other violation fails the run:
//! `cargo run -p hts-check`.

pub mod lexer;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{check_file, Rule, Violation};

/// The protocol crates the workspace lint covers. `metrics` is included
/// because its primitives sit on the data path of every other crate.
pub const PROTOCOL_CRATES: [&str; 6] = ["types", "core", "net", "wal", "sim", "metrics"];

/// Lints `crates/<crate>/src/**/*.rs` under `root` for each named crate.
/// When `crates` covers every one of [`PROTOCOL_CRATES`], an L6 ring hot
/// function that none of them defines is a violation too
/// ([`rules::missing_hot_functions`]).
///
/// Returns violations sorted by file, then line. Paths in the result are
/// `root`-relative with `/` separators (stable across platforms).
///
/// # Errors
///
/// Propagates I/O errors from walking or reading sources; a named crate
/// without a `src/` directory is an error (a silently skipped crate would
/// make an empty report look clean).
pub fn check_workspace(root: &Path, crates: &[&str]) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    let mut hot = Vec::new();
    for krate in crates {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("crate source dir not found: {}", src.display()),
            ));
        }
        let mut files = Vec::new();
        collect_rs(&src, &mut files)?;
        files.sort();
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = fs::read_to_string(&path)?;
            violations.extend(check_file(&rel, &text));
            hot.extend(rules::hot_functions_in(&text));
        }
    }
    if PROTOCOL_CRATES.iter().all(|c| crates.contains(c)) {
        violations.extend(rules::missing_hot_functions(&hot));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_crate_is_an_error_not_a_clean_report() {
        let err = check_workspace(Path::new("/nonexistent"), &["nope"]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
