//! The `hts-check` CLI: lint the protocol crates, print every violation.
//!
//! ```text
//! hts-check [--root DIR] [--crates a,b,c]
//! ```
//!
//! Exit codes: 0 clean, 1 violations, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use hts_check::{check_workspace, Rule, PROTOCOL_CRATES};

const USAGE: &str = "usage: hts-check [--root DIR] [--crates a,b,c]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut crates: Vec<String> = PROTOCOL_CRATES.iter().map(|s| s.to_string()).collect();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--root", Some(dir)) => root = PathBuf::from(dir),
            ("--crates", Some(list)) => {
                crates = list.split(',').map(|s| s.trim().to_string()).collect()
            }
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let crates: Vec<&str> = crates.iter().map(String::as_str).collect();
    let violations = match check_workspace(&root, &crates) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("hts-check: {e}");
            return ExitCode::from(2);
        }
    };
    for rule in Rule::ALL {
        let have = violations.iter().filter(|v| v.rule == rule).count();
        println!("hts-check: {rule} ({}): {have} site(s)", rule.names().1);
    }
    if violations.is_empty() {
        println!("hts-check: OK — no violations");
        return ExitCode::SUCCESS;
    }
    for v in &violations {
        eprintln!("  {v}");
    }
    eprintln!(
        "hts-check: {} violation(s); fix them or, for a justified exception, add \
         `// lint: allow(<rule>): reason`",
        violations.len()
    );
    ExitCode::from(1)
}
