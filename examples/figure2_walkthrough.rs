//! The paper's **Figure 2** illustration run, executed step by step on the
//! deterministic protocol servers (one register each), narrating each
//! panel:
//!
//! 1. a write `W(v2)` starts at s1 and its `pre_write` circulates; a read
//!    at s3 (which forwarded the pre-write) must wait, while s5 still
//!    answers `v1` immediately;
//! 2. the pre-write completes its turn, s1 starts the `write` phase; s3's
//!    reader unblocks with `v2` as the commit passes; now s5 must wait;
//! 3. the commit finishes its turn: s1 acknowledges the writer, everyone
//!    answers `v2`.
//!
//! (The paper numbers servers s1..s5; indices 0..4 here.)
//!
//! ```text
//! cargo run --example figure2_walkthrough
//! ```

use hts::core::{Action, Config, MultiObjectServer};
use hts::types::{ClientId, ObjectId, RequestId, RingFrame, ServerId, Value};

/// The register every server stores.
const X: ObjectId = ObjectId::SINGLE;

struct Ring {
    servers: Vec<MultiObjectServer>,
}

impl Ring {
    fn new(n: u16) -> Ring {
        Ring {
            servers: (0..n)
                .map(|i| MultiObjectServer::new(ServerId(i), n, Config::default()))
                .collect(),
        }
    }

    /// Moves one frame from `from` to its successor, narrating it.
    fn hop(&mut self, from: u16) -> Vec<(u16, Action)> {
        let successor = self.servers[usize::from(from)]
            .successor()
            .expect("ring of five");
        let Some(frame) = self.servers[usize::from(from)].next_frame() else {
            return Vec::new();
        };
        println!(
            "    s{} → s{}: {}",
            from + 1,
            successor.0 + 1,
            describe(&frame)
        );
        self.servers[successor.index()]
            .on_frame(frame)
            .into_iter()
            .map(|a| (successor.0, a))
            .collect()
    }
}

fn describe(frame: &RingFrame) -> String {
    let mut parts = Vec::new();
    if let Some(pw) = &frame.pre_write {
        parts.push(format!("pre_write(v2) {}", pw.tag));
    }
    if let Some(w) = &frame.write {
        parts.push(format!("write(v2) {}", w.tag));
    }
    parts.join(" + ")
}

fn main() {
    let mut ring = Ring::new(5);

    println!("panel 1 ─ W(v2) reaches s1; pre_write(v2) starts its turn");
    ring.servers[0].on_client_write(X, ClientId(0), RequestId(1), Value::from_static(b"v2"));
    for hop in 0..3 {
        ring.hop(hop);
    }
    // s3 (index 2) forwarded the pre-write: its reader must wait.
    let blocked = ring.servers[2].on_client_read(X, ClientId(10), RequestId(100));
    assert!(blocked.is_empty());
    println!("    s3: read received → must WAIT (pre_write(v2) pending)");
    // s5 (index 4) has not seen it: replies v1 (here: the initial value).
    let replies = ring.servers[4].on_client_read(X, ClientId(11), RequestId(101));
    let value1 = match &replies[0] {
        Action::ReadReply { value, .. } => value.clone(),
        other => unreachable!("unexpected action {other:?}"),
    };
    println!(
        "    s5: read received → replies immediately with v1 ({:?})",
        String::from_utf8_lossy(value1.as_bytes())
    );

    println!("panel 2 ─ pre_write(v2) returns to s1; write(v2) starts its turn");
    ring.hop(3); // s4 forwards pre_write
    ring.hop(4); // s5 forwards pre_write back to s1
    let unblocked = [ring.hop(0), ring.hop(1)].concat(); // write(v2) reaches s2, s3
    for (server, action) in unblocked {
        if let Action::ReadReply { value, .. } = action {
            println!(
                "    s{}: blocked read UNBLOCKS with v2 ({:?})",
                server + 1,
                String::from_utf8_lossy(value.as_bytes())
            );
        }
    }

    println!("panel 3 ─ write(v2) completes its turn; s1 acks the writer");
    let mut acked = false;
    for hop in [2u16, 3, 4] {
        for (server, action) in ring.hop(hop) {
            if let Action::WriteAck { .. } = action {
                println!("    s{}: own write(v2) returned → W(v2): ok", server + 1);
                acked = true;
            }
        }
    }
    assert!(acked, "the write must complete");
    let replies = ring.servers[4].on_client_read(X, ClientId(11), RequestId(102));
    if let Action::ReadReply { value, .. } = &replies[0] {
        println!(
            "    s5: new read replies v2 ({:?}) — everyone converged",
            String::from_utf8_lossy(value.as_bytes())
        );
    }
    println!("done: the run matches the paper's Figure 2 exactly.");
}
