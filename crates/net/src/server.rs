//! The TCP server: deployment description and WAL recovery for the ring
//! lanes.
//!
//! A server hosts [`Config::lanes`](hts_core::Config) **parallel ring
//! lanes**: objects are partitioned across lanes by the shared
//! [`LaneMap`](hts_core::LaneMap) placement, and each lane is one
//! epoll-driven thread ([`crate::reactor`]) that owns its lane core
//! ([`hts_core::LaneCore`]), its outbound link to the successor (a
//! separate TCP connection, tagged by a lane-aware handshake), its
//! inbound ring stream, the client sockets routed to it and — with
//! persistent durability — its own WAL directory. One node therefore
//! scales across cores instead of funneling every object through a
//! single event loop; `lanes = 1` (the default) is the paper's single
//! ring.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use hts_core::Config;
use hts_types::ServerId;
use hts_wal::{recover, Recovery, Wal, WalOptions};

use crate::reactor::ReactorHandle;

/// Static deployment description handed to every [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// This server's id.
    pub id: ServerId,
    /// Listen addresses of **all** servers, indexed by [`ServerId`].
    pub addrs: Vec<SocketAddr>,
    /// Protocol options. `config.lanes` ring lanes are spawned; every
    /// server of a cluster must agree on the lane count.
    pub config: Config,
    /// Write-ahead-log directory. With a persistent
    /// [`Config::durability`](hts_core::Config), committed writes are
    /// logged here before client acks go out, and a server whose
    /// directory already holds a log boots in **restart** mode: it
    /// restores its registers from its log segments, announces its
    /// rejoin around the ring, resyncs from its new predecessor and only
    /// then serves — converting the paper's crash-stop model into
    /// crash-recovery. Every lane logs into its own `lane-<k>`
    /// subdirectory, `lanes = 1` included, and is recovered
    /// independently on restart.
    pub wal_dir: Option<PathBuf>,
}

/// A running storage server.
///
/// See the [crate docs](crate) for the runtime's shape; create whole local
/// clusters with [`Cluster`](crate::Cluster).
pub struct Server {
    reactor: ReactorHandle,
    addr: SocketAddr,
}

/// Validates a cluster address map: non-empty, small enough to index by
/// [`ServerId`], and holding an entry for `member`, so a bad deployment
/// description surfaces as an [`io::ErrorKind::InvalidInput`] error
/// instead of a panic.
pub(crate) fn validate_addrs(addrs: &[SocketAddr], member: ServerId) -> io::Result<()> {
    if addrs.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "need at least one server address",
        ));
    }
    if addrs.len() > usize::from(u16::MAX) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} servers exceed the u16 ServerId space", addrs.len()),
        ));
    }
    if member.index() >= addrs.len() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{member} outside the {}-server address map", addrs.len()),
        ));
    }
    Ok(())
}

/// The WAL directory of one lane: `base/lane-<k>`.
pub(crate) fn lane_wal_dir(base: &Path, lane: u16) -> PathBuf {
    base.join(format!("lane-{lane}"))
}

/// Recovers (or creates) every lane's WAL ahead of serving: `None`
/// entries mean that lane keeps no log (volatile durability or no
/// `wal_dir`).
pub(crate) fn recover_lanes(config: &ServerConfig) -> io::Result<Vec<Option<(Wal, Recovery)>>> {
    let lanes = config.config.lanes.max(1);
    let base = config
        .wal_dir
        .as_deref()
        .filter(|_| config.config.durability.is_persistent());
    (0..lanes)
        .map(|lane| {
            let Some(base) = base else { return Ok(None) };
            let dir = lane_wal_dir(base, lane);
            let recovery = recover(&dir)?;
            Ok(Some((Wal::open(&dir, WalOptions::default())?, recovery)))
        })
        .collect()
}

/// RAII increment of the `hts_net_threads` gauge: every server-side
/// thread holds one for its lifetime, so the gauge reads the node's
/// live thread count (`lanes`) at any instant.
pub(crate) struct ThreadTally;

impl ThreadTally {
    pub(crate) fn new() -> ThreadTally {
        hts_metrics::gauge!("hts_net_threads").add(1);
        ThreadTally
    }
}

impl Drop for ThreadTally {
    fn drop(&mut self) {
        hts_metrics::gauge!("hts_net_threads").sub(1);
    }
}

impl Server {
    /// Binds `config.addrs[config.id]` and spawns the server: one epoll
    /// thread per ring lane, lane 0 also accepting connections. With a
    /// WAL directory and persistent durability, first recovers each
    /// lane's existing log — a non-empty directory makes this a
    /// **restart**: every lane rejoins its ring and resyncs before
    /// serving.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] if `config.addrs` is
    /// empty or has no entry for `config.id` (before any log is
    /// touched), the bind error if the listen address is unavailable,
    /// the I/O error if log recovery / creation fails, or the error of
    /// creating a lane's poller.
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        validate_addrs(&config.addrs, config.id)?;
        let (reactor, addr) = crate::reactor::spawn(config)?;
        Ok(Server { reactor, addr })
    }

    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server (crashing it, from the cluster's point of view),
    /// joining its threads. Every lane closes and deregisters its
    /// sockets before it exits, so the listen port is immediately
    /// rebindable.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Joined, not just signalled: drop-then-rebind must be
        // deterministic, and the eventfd wake makes the join prompt.
        self.reactor.stop();
    }
}

/// Records a crash verdict against `peer` (counter + flight event), and
/// — when `HTS_FLIGHT_DUMP` is set in the environment — dumps the flight
/// recorder to stderr so the events leading up to the verdict survive
/// for post-mortem. Env-gated because verdicts are *routine* in the
/// kill/restart tests; an unconditional dump would bury their output.
pub(crate) fn note_crash_verdict(me: ServerId, lane: u16, peer: ServerId) {
    hts_metrics::counter!("hts_net_crash_verdicts_total").inc();
    hts_metrics::flight::record(
        hts_metrics::flight::KIND_CRASH_VERDICT,
        u64::from(peer.0),
        u64::from(me.0),
        u64::from(lane),
    );
    if std::env::var_os("HTS_FLIGHT_DUMP").is_some() {
        hts_metrics::flight::dump_to_stderr("crash verdict");
    }
}

/// Everything one lane's event loop needs to know about its place in the
/// deployment.
pub(crate) struct LaneConfig {
    pub(crate) lane: u16,
    pub(crate) id: ServerId,
    pub(crate) addrs: Vec<SocketAddr>,
    pub(crate) config: Config,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_wal_dirs_always_nest() {
        let base = Path::new("/tmp/wal");
        assert_eq!(lane_wal_dir(base, 0), PathBuf::from("/tmp/wal/lane-0"));
        assert_eq!(lane_wal_dir(base, 3), PathBuf::from("/tmp/wal/lane-3"));
    }
}
