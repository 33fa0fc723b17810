//! The `mc-models.toml` model-coverage manifest.
//!
//! Rule L7's second half: a `Relaxed` justification comment argues one
//! access site, but an atomic *protocol* (a seqlock, a ring handshake)
//! is only trustworthy if its interleavings have been explored. So every
//! protocol-crate file constructing an atomic (`Atomic*::new` outside
//! test scope) must either name the `hts-mc` model file that exercises
//! it, or carry an explicit exemption with a reason:
//!
//! ```toml
//! version = 1
//!
//! [models]
//! "crates/metrics/src/flight.rs" = "crates/mc/tests/models.rs"
//!
//! [exempt]
//! "crates/types/src/sync.rs" = "NEXT_ID is a pure id allocator"
//! ```
//!
//! The check is two-sided: an unmanifested atomic is a violation, and so
//! is a stale entry (a file that no longer constructs atomics, a model
//! file that does not exist or never references `hts_mc`). Violations
//! report as [`Rule::L7`] and ratchet through `lint-baseline.toml` like
//! any other — though the intended steady state is zero.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{lex, TokKind};
use crate::rules::{test_mask, Rule, Violation};

/// The manifest's well-known filename at the workspace root.
pub const MANIFEST_FILE: &str = "mc-models.toml";

/// Parsed `mc-models.toml`: file → model path, file → exemption reason.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Protocol files with atomics → the hts-mc model file covering them.
    pub models: BTreeMap<String, String>,
    /// Protocol files with atomics excused from modeling, with a reason.
    pub exempt: BTreeMap<String, String>,
}

impl Manifest {
    /// Parses the manifest file format (the same minimal TOML subset as
    /// the lint baseline: `version`, `[section]`, `"key" = "value"`).
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut out = Manifest::default();
        let mut section: Option<bool> = None; // true = [models]
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(match name {
                    "models" => true,
                    "exempt" => false,
                    other => return Err(format!("line {}: unknown section [{other}]", idx + 1)),
                });
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", idx + 1))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim().trim_matches('"').to_string();
            if key == "version" {
                if value != "1" {
                    return Err(format!("unsupported manifest version {value}"));
                }
                continue;
            }
            let models =
                section.ok_or_else(|| format!("line {}: entry before any section", idx + 1))?;
            let dup = if models {
                out.models.insert(key.clone(), value).is_some()
            } else {
                out.exempt.insert(key.clone(), value).is_some()
            };
            if dup {
                return Err(format!("line {}: duplicate entry for {key:?}", idx + 1));
            }
        }
        Ok(out)
    }
}

/// Lines (1-based) of non-test `Atomic*::new(` constructor calls in `src`.
pub fn atomic_ctor_lines(src: &str) -> Vec<u32> {
    let lexed = lex(src);
    let toks = &lexed.toks;
    let mask = test_mask(toks);
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let ctor = t.kind == TokKind::Ident
            && t.text.starts_with("Atomic")
            && toks.get(i + 1).is_some_and(|n| n.is(':'))
            && toks.get(i + 2).is_some_and(|n| n.is(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("new"))
            && toks.get(i + 4).is_some_and(|n| n.is('('));
        if ctor && !mask[i] {
            out.push(t.line);
        }
    }
    out
}

/// What a named model file looks like on disk: absent, or present with /
/// without a reference to `hts_mc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFile {
    /// No such file.
    Missing,
    /// Exists but never mentions `hts_mc` — not a model of anything.
    NotAModel,
    /// Exists and references `hts_mc`.
    Model,
}

/// Diffs the manifest against the observed atomic-constructor sites.
///
/// `atomic_files` maps each workspace-relative file to its non-test
/// `Atomic*::new` lines; `look` resolves a manifest model path to what
/// is actually on disk (injected so the logic is testable in memory).
pub fn coverage_violations(
    manifest: &Manifest,
    atomic_files: &BTreeMap<String, Vec<u32>>,
    look: impl Fn(&str) -> ModelFile,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut push = |file: &str, line: u32, what: String| {
        out.push(Violation {
            rule: Rule::L7,
            file: file.to_string(),
            line,
            what,
        });
    };
    for (file, lines) in atomic_files {
        let modeled = manifest.models.contains_key(file);
        let exempted = manifest.exempt.contains_key(file);
        let line = lines.first().copied().unwrap_or(1);
        match (modeled, exempted) {
            (false, false) => push(
                file,
                line,
                format!(
                    "atomic constructor without an hts-mc model; add \"{file}\" to \
                     [models] in {MANIFEST_FILE} (or [exempt] with a reason)"
                ),
            ),
            (true, true) => push(
                file,
                line,
                format!("\"{file}\" is in both [models] and [exempt] of {MANIFEST_FILE}"),
            ),
            _ => {}
        }
    }
    for (file, model) in &manifest.models {
        if !atomic_files.contains_key(file) {
            push(
                MANIFEST_FILE,
                1,
                format!("stale [models] entry: {file} constructs no atomics (remove it)"),
            );
            continue;
        }
        match look(model) {
            ModelFile::Missing => push(
                MANIFEST_FILE,
                1,
                format!("model file {model} (for {file}) does not exist"),
            ),
            ModelFile::NotAModel => push(
                MANIFEST_FILE,
                1,
                format!("model file {model} (for {file}) never references hts_mc"),
            ),
            ModelFile::Model => {}
        }
    }
    for (file, reason) in &manifest.exempt {
        if !atomic_files.contains_key(file) {
            push(
                MANIFEST_FILE,
                1,
                format!("stale [exempt] entry: {file} constructs no atomics (remove it)"),
            );
        } else if reason.is_empty() {
            push(
                MANIFEST_FILE,
                1,
                format!("[exempt] entry for {file} needs a reason, not an empty string"),
            );
        }
    }
    out
}

/// The I/O wrapper [`crate::check_workspace`] calls: reads and parses
/// `<root>/mc-models.toml` (absent ⇒ empty manifest, so every atomic
/// site reports as unmanifested) and resolves model paths under `root`.
///
/// # Errors
///
/// A present-but-malformed manifest is an error, not a clean pass.
pub fn check_coverage(
    root: &Path,
    atomic_files: &BTreeMap<String, Vec<u32>>,
) -> io::Result<Vec<Violation>> {
    let path = root.join(MANIFEST_FILE);
    let manifest = match fs::read_to_string(&path) {
        Ok(text) => Manifest::parse(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("corrupt {}: {e}", path.display()),
            )
        })?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Manifest::default(),
        Err(e) => return Err(e),
    };
    Ok(coverage_violations(
        &manifest,
        atomic_files,
        |model| match fs::read_to_string(root.join(model)) {
            Ok(text) => {
                if text.contains("hts_mc") {
                    ModelFile::Model
                } else {
                    ModelFile::NotAModel
                }
            }
            Err(_) => ModelFile::Missing,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sites(entries: &[(&str, u32)]) -> BTreeMap<String, Vec<u32>> {
        let mut out: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        for (file, line) in entries {
            out.entry(file.to_string()).or_default().push(*line);
        }
        out
    }

    #[test]
    fn finds_nontest_atomic_ctors_only() {
        let src = "struct S { n: AtomicU64 }\n\
                   fn f() -> S { S { n: AtomicU64::new(0) } }\n\
                   #[cfg(test)]\nmod t { fn g() { let _ = AtomicU32::new(1); } }\n";
        assert_eq!(atomic_ctor_lines(src), vec![2]);
    }

    #[test]
    fn manifest_roundtrip_and_rejects() {
        let m = Manifest::parse(
            "version = 1\n\n[models]\n\"a.rs\" = \"m.rs\"\n\n[exempt]\n\"b.rs\" = \"why\"\n",
        )
        .unwrap();
        assert_eq!(m.models["a.rs"], "m.rs");
        assert_eq!(m.exempt["b.rs"], "why");
        assert!(Manifest::parse("version = 2\n").is_err());
        assert!(Manifest::parse("[nope]\n").is_err());
        assert!(Manifest::parse("\"a.rs\" = \"m.rs\"\n").is_err()); // before section
        assert!(Manifest::parse("[models]\n\"a\" = \"m\"\n\"a\" = \"m\"\n").is_err());
    }

    #[test]
    fn unmanifested_atomics_and_stale_entries_report() {
        let m = Manifest::parse("[models]\n\"gone.rs\" = \"m.rs\"\n\"covered.rs\" = \"m.rs\"\n")
            .unwrap();
        let vs = coverage_violations(&m, &sites(&[("covered.rs", 3), ("naked.rs", 7)]), |_| {
            ModelFile::Model
        });
        let whats: Vec<&str> = vs.iter().map(|v| v.what.as_str()).collect();
        assert_eq!(vs.len(), 2, "{whats:?}");
        assert!(whats[0].contains("naked.rs"), "{whats:?}");
        assert_eq!(vs[0].line, 7);
        assert!(
            whats[1].contains("stale [models] entry: gone.rs"),
            "{whats:?}"
        );
    }

    #[test]
    fn model_files_must_exist_and_mention_hts_mc() {
        let m = Manifest::parse("[models]\n\"a.rs\" = \"missing.rs\"\n\"b.rs\" = \"plain.rs\"\n")
            .unwrap();
        let vs = coverage_violations(&m, &sites(&[("a.rs", 1), ("b.rs", 1)]), |model| {
            if model == "plain.rs" {
                ModelFile::NotAModel
            } else {
                ModelFile::Missing
            }
        });
        assert_eq!(vs.len(), 2);
        assert!(vs[0].what.contains("does not exist"));
        assert!(vs[1].what.contains("never references hts_mc"));
    }

    #[test]
    fn exemptions_cover_but_need_substance() {
        let m =
            Manifest::parse("[exempt]\n\"a.rs\" = \"an id counter\"\n\"b.rs\" = \"\"\n").unwrap();
        let vs = coverage_violations(&m, &sites(&[("a.rs", 1), ("b.rs", 1)]), |_| {
            ModelFile::Model
        });
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("needs a reason"));
    }

    #[test]
    fn double_entry_is_a_violation() {
        let m =
            Manifest::parse("[models]\n\"a.rs\" = \"m.rs\"\n[exempt]\n\"a.rs\" = \"r\"\n").unwrap();
        let vs = coverage_violations(&m, &sites(&[("a.rs", 4)]), |_| ModelFile::Model);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].what.contains("both [models] and [exempt]"));
    }
}
