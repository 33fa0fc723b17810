//! Smoke test for the workspace wiring itself: every facade module
//! resolves to its `hts-*` crate and re-exports its headline types, and
//! the smallest possible real deployment — a one-server ring over TCP —
//! round-trips a write and a read.
//!
//! This test exists to fail loudly if a future refactor breaks a
//! manifest, a facade re-export, or a crate's `pub use` surface, before
//! anything subtler gets a chance to.

use std::time::Duration;

use hts::net::{Client, Cluster};
use hts::types::Value;

/// Every facade module is wired to its crate: name one load-bearing item
/// from each of the six runtime crates so a dropped re-export is a
/// compile error here.
#[test]
fn facade_reexports_resolve() {
    // hts::types
    let tag = hts::types::Tag::new(1, hts::types::ServerId(0));
    assert!(tag > hts::types::Tag::ZERO);
    // hts::core
    let config = hts::core::Config::default();
    let _server = hts::core::MultiObjectServer::new(hts::types::ServerId(0), 1, config);
    // hts::sim
    let sim = hts::sim::PacketSim::<hts::types::Message>::new(7);
    assert_eq!(sim.now(), hts::sim::Nanos::ZERO);
    // hts::lincheck
    let history = hts::lincheck::History::new();
    assert_eq!(
        hts::lincheck::check_exhaustive(&history),
        hts::lincheck::Outcome::Linearizable
    );
    // hts::baselines
    let _abd = hts::baselines::abd::AbdServer::new(hts::sim::NetworkId(0));
    // hts::net — exercised for real below; here just name the types.
    let _launch: fn(u16) -> std::io::Result<Cluster> = Cluster::launch;
}

/// The minimal end-to-end deployment: one server, one client, one write,
/// one read, over real TCP.
#[test]
fn single_server_ring_roundtrips_over_tcp() {
    let cluster = Cluster::launch(1).expect("launch single-server ring");
    assert_eq!(cluster.alive(), 1);

    let mut client = Client::connect(1, cluster.addrs()).expect("connect");
    client.set_timeout(Duration::from_millis(500));

    client
        .write(Value::from_static(b"smoke"))
        .expect("write over TCP");
    assert_eq!(
        client.read().expect("read over TCP"),
        Value::from_static(b"smoke")
    );
    cluster.shutdown();
}
