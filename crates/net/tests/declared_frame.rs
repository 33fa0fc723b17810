//! A frame's declared length costs the server memory only as its bytes
//! arrive. Its own test binary, so no other test's allocations move the
//! process's resident set while it is measured.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use hts_core::Config;
use hts_net::{Server, ServerConfig};
use hts_types::{codec::Hello, ClientId, ServerId};

/// This process's resident set in KiB (`VmRSS` in `/proc/self/status`).
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS")
}

#[test]
fn a_declared_frame_that_never_arrives_costs_no_resident_memory() {
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("reserve");
    let server = Server::spawn(ServerConfig {
        id: ServerId(0),
        addrs: vec![addr],
        config: Config::default(),
        wal_dir: None,
    })
    .expect("spawn");

    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.write_all(&Hello::Client(ClientId(1)).encode())
        .expect("hello");
    std::thread::sleep(Duration::from_millis(100));
    let before = rss_kib();

    // A 60 MiB frame header (under the 64 MiB cap), then silence.
    let declared: u32 = 60 << 20;
    raw.write_all(&declared.to_be_bytes()).expect("header");
    std::thread::sleep(Duration::from_millis(300));
    let grown = rss_kib().saturating_sub(before);
    assert!(
        grown < 8 << 10,
        "declaring a 60 MiB frame grew the resident set by {grown} KiB"
    );
    drop(raw);
    drop(server);
}
