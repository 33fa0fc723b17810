//! The simulator figures are deterministic, so their output is pinned
//! byte for byte: `analytical`, `fig3` and `fig4` must print exactly
//! what `tests/golden/` holds. A change that moves a figure on purpose
//! regenerates the file in the same diff, e.g.
//! `cargo run --release -p hts-bench --bin fig3 > crates/bench/tests/golden/fig3.txt`,
//! and says why. Debug and release builds print the same bytes.

use std::process::Command;

fn assert_prints_golden(exe: &str, golden: &str) {
    let out = Command::new(exe).output().expect("figure binary runs");
    assert!(out.status.success(), "{exe} failed: {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("figure output is UTF-8");
    if stdout == golden {
        return;
    }
    let first_diff = stdout
        .lines()
        .zip(golden.lines())
        .position(|(got, want)| got != want)
        .unwrap_or_else(|| stdout.lines().count().min(golden.lines().count()));
    panic!(
        "{exe} differs from its golden file from line {}:\n  got:  {:?}\n  want: {:?}",
        first_diff + 1,
        stdout.lines().nth(first_diff),
        golden.lines().nth(first_diff),
    );
}

#[test]
fn analytical_matches_golden() {
    assert_prints_golden(
        env!("CARGO_BIN_EXE_analytical"),
        include_str!("golden/analytical.txt"),
    );
}

#[test]
fn fig3_matches_golden() {
    assert_prints_golden(env!("CARGO_BIN_EXE_fig3"), include_str!("golden/fig3.txt"));
}

#[test]
fn fig4_matches_golden() {
    assert_prints_golden(env!("CARGO_BIN_EXE_fig4"), include_str!("golden/fig4.txt"));
}
