// Known-bad fixture for the hts-check linter. NEVER compiled — the
// linter lexes it as text. Exact per-rule counts and line numbers are
// asserted by tests/linter.rs: keep edits in sync with it.

use std::sync::atomic::{fence, AtomicU32, Ordering};

// --- L3: guard live across a blocking write ------------------------

pub fn l3_guard_across_write(
    m: &std::sync::Mutex<Vec<u8>>,
    w: &mut impl std::io::Write,
) -> std::io::Result<()> {
    let guard = m.lock().unwrap_or_else(|p| p.into_inner());
    w.write_all(&guard)?; // line 14: L3 (guard still live)
    Ok(())
}

pub fn l3_guard_dropped(
    m: &std::sync::Mutex<Vec<u8>>,
    w: &mut impl std::io::Write,
) -> std::io::Result<()> {
    let guard = m.lock().unwrap_or_else(|p| p.into_inner());
    let data = guard.clone();
    drop(guard); // released before the write: clean
    w.write_all(&data)?;
    Ok(())
}

// --- L6: a clock and allocations in a ring hot function ------------

pub fn pump(out: &mut Vec<u8>) {
    let start = std::time::Instant::now(); // line 32: L6
    let scratch: Vec<u8> = Vec::new(); // line 33: L6
    // lint: allow(ring_hot_loop): fixture-sanctioned allocation
    let label = format!("{start:?}"); // covered by the allow comment above
    out.extend_from_slice(label.as_bytes());
    out.extend_from_slice(&scratch);
}

pub fn cold_path() -> Vec<u8> {
    Vec::new() // not a hot function: clean
}

// --- L7: unargued orderings and unlisted atomics -------------------

pub static HITS: AtomicU32 = AtomicU32::new(0); // line 46: L7

pub fn l7_relaxed(x: &AtomicU32) -> u32 {
    x.load(Ordering::Relaxed) // line 49: L7
}

pub fn l7_fence() {
    fence(Ordering::SeqCst); // line 53: L7
}

pub fn l7_argued(x: &AtomicU32) -> u32 {
    // ordering: a lone statistic, read only for display
    x.load(Ordering::Relaxed)
}

// --- test scope: everything below is exempt ------------------------

#[cfg(test)]
mod tests {
    #[test]
    fn atomics_and_guards_are_fine_in_tests() {
        let x = std::sync::atomic::AtomicU32::new(1);
        x.load(std::sync::atomic::Ordering::Relaxed);
        let guard = M.lock();
        out.flush();
    }
}
