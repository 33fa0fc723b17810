//! EXPERIMENTS.md's metric catalog names exactly the metrics the code
//! records: every `counter!`/`gauge!`/`histogram!` name under
//! `crates/*/src` is in the catalog table, and every `hts_*` name in the
//! table is recorded somewhere. The doc example's `hts_doc_*` and the
//! unit tests' `hts_test_*` names are not operator metrics.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const MACROS: [&str; 3] = ["counter!(", "gauge!(", "histogram!("];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The string literal each metric macro call in `src` names.
fn recorded_names(src: &str, names: &mut BTreeSet<String>) {
    for mac in MACROS {
        for (at, _) in src.match_indices(mac) {
            let rest = src[at + mac.len()..].trim_start();
            let Some(lit) = rest.strip_prefix('"') else {
                continue; // `$name` in the macro definitions
            };
            let name = &lit[..lit.find('"').expect("closed literal")];
            if !name.starts_with("hts_doc_") && !name.starts_with("hts_test_") {
                names.insert(name.to_string());
            }
        }
    }
}

/// The backticked `hts_*` names in the rows of the catalog table.
fn catalog_names(experiments: &str) -> BTreeSet<String> {
    let mut lines = experiments
        .lines()
        .skip_while(|l| !l.starts_with("| prefix | metrics |"));
    assert!(
        lines.next().is_some(),
        "EXPERIMENTS.md has no metric catalog table"
    );
    lines
        .take_while(|l| l.starts_with('|'))
        .flat_map(|l| l.split('`').skip(1).step_by(2))
        .filter(|name| name.starts_with("hts_"))
        .map(str::to_string)
        .collect()
}

#[test]
fn metric_catalog_matches_the_recording_sites() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut recorded = BTreeSet::new();
    for file in &files {
        recorded_names(&fs::read_to_string(file).expect("readable"), &mut recorded);
    }
    let experiments = fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let catalog = catalog_names(&experiments);

    assert!(!recorded.is_empty(), "found no recording sites");
    let uncatalogued: Vec<_> = recorded.difference(&catalog).collect();
    let unrecorded: Vec<_> = catalog.difference(&recorded).collect();
    assert!(
        uncatalogued.is_empty() && unrecorded.is_empty(),
        "recorded but not in EXPERIMENTS.md's catalog: {uncatalogued:?}; \
         in the catalog but recorded nowhere: {unrecorded:?}"
    );
}
