//! In-process cluster harness for tests and examples.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;

use hts_core::{Config, Durability};
use hts_types::ServerId;

use crate::server::{Server, ServerConfig};

/// A local cluster of `n` servers on ephemeral localhost ports.
///
/// [`launch`](Cluster::launch) gives the paper's crash-**stop** model: a
/// [`crash`](Cluster::crash)ed server is gone for good.
/// [`launch_durable`](Cluster::launch_durable) gives crash-**recovery**:
/// every server logs committed writes to a WAL directory, and
/// [`restart`](Cluster::restart) boots a crashed server back up from its
/// log — it rejoins the ring, resyncs and serves again. Every server
/// runs [`Config::lanes`](hts_core::Config) parallel ring lanes; each
/// lane logs into its own `lane-<k>` subdirectory of the server's WAL
/// directory and is recovered — replayed, rejoined, resynced —
/// independently on restart.
///
/// See the [crate docs](crate) for an example.
pub struct Cluster {
    servers: Vec<Option<Server>>,
    addrs: Vec<SocketAddr>,
    config: Config,
    wal_base: Option<PathBuf>,
}

impl Cluster {
    /// Boots `n` servers with the paper-faithful [`Config`].
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn launch(n: u16) -> io::Result<Cluster> {
        Cluster::launch_with(n, Config::default())
    }

    /// Boots `n` servers with an explicit protocol configuration.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn launch_with(n: u16, config: Config) -> io::Result<Cluster> {
        Cluster::launch_inner(n, config, None)
    }

    /// Boots `n` durable servers, each logging to
    /// `<wal_base>/server-<id>` with [`Durability::SyncAlways`], whatever
    /// `config.durability` says (a "durable cluster" with no persistence
    /// would be a contradiction). Pre-existing logs are recovered, so
    /// launching over a previous cluster's directory restores its data.
    ///
    /// # Errors
    ///
    /// Propagates bind and log-recovery failures.
    pub fn launch_durable(
        n: u16,
        mut config: Config,
        wal_base: impl Into<PathBuf>,
    ) -> io::Result<Cluster> {
        config.durability = Durability::SyncAlways;
        Cluster::launch_inner(n, config, Some(wal_base.into()))
    }

    fn launch_inner(n: u16, config: Config, wal_base: Option<PathBuf>) -> io::Result<Cluster> {
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a cluster needs at least one server",
            ));
        }
        // Reserve ephemeral ports first so every server knows the full map.
        let mut addrs = Vec::with_capacity(usize::from(n));
        {
            let mut holders = Vec::new();
            for _ in 0..n {
                let holder = TcpListener::bind("127.0.0.1:0")?;
                addrs.push(holder.local_addr()?);
                holders.push(holder);
            }
            // Holders drop here; the brief race with other processes is
            // acceptable for tests/examples.
        }
        let mut cluster = Cluster {
            servers: (0..n).map(|_| None).collect(),
            addrs,
            config,
            wal_base,
        };
        for i in 0..n {
            cluster.servers[usize::from(i)] = Some(cluster.spawn_one(ServerId(i))?);
        }
        Ok(cluster)
    }

    fn spawn_one(&self, id: ServerId) -> io::Result<Server> {
        Server::spawn(ServerConfig {
            id,
            addrs: self.addrs.clone(),
            config: self.config.clone(),
            wal_dir: self.wal_dir(id),
        })
    }

    /// The servers' addresses, indexed by [`ServerId`].
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.addrs.clone()
    }

    /// The WAL directory of server `s` (durable clusters only).
    pub fn wal_dir(&self, s: ServerId) -> Option<PathBuf> {
        self.wal_base
            .as_ref()
            .map(|base| base.join(format!("server-{}", s.0)))
    }

    /// Crashes one server (kills its event loop and every connection;
    /// its WAL directory, if any, survives for a [`restart`](Cluster::restart)).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::NotFound`] if `s` is out of range or already
    /// crashed.
    pub fn crash(&mut self, s: ServerId) -> io::Result<()> {
        match self.servers.get_mut(s.index()).and_then(Option::take) {
            Some(server) => {
                server.shutdown();
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("{s} is not a running server of this cluster"),
            )),
        }
    }

    /// Restarts a crashed server of a durable cluster from its WAL
    /// directory: it replays its log segments, rebinds its address,
    /// announces its rejoin around the ring and resyncs before serving.
    ///
    /// # Errors
    ///
    /// Propagates rebind and log-recovery failures;
    /// [`io::ErrorKind::InvalidInput`] if the cluster is not durable, and
    /// [`io::ErrorKind::AlreadyExists`] if `s` is still running.
    pub fn restart(&mut self, s: ServerId) -> io::Result<()> {
        if self.wal_base.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "restart requires a durable cluster (launch_durable)",
            ));
        }
        if self.servers.get(s.index()).is_none_or(Option::is_some) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{s} is still running; crash it first"),
            ));
        }
        self.servers[s.index()] = Some(self.spawn_one(s)?);
        Ok(())
    }

    /// Fetches server `s`'s live metrics registry (Prometheus-style text
    /// exposition) over a throwaway [`Client`](crate::Client) connection.
    /// The caller's client id space is untouched: the probe uses the
    /// reserved id `u32::MAX`.
    ///
    /// # Errors
    ///
    /// Connect/timeout errors against that server — including when it is
    /// currently crashed.
    pub fn stats(&self, s: ServerId) -> io::Result<String> {
        let mut probe = crate::Client::connect_preferring(u32::MAX, self.addrs(), s)?;
        probe.stats(s)
    }

    /// Number of servers still running.
    pub fn alive(&self) -> usize {
        self.servers.iter().flatten().count()
    }

    /// Stops every remaining server.
    pub fn shutdown(mut self) {
        for server in self.servers.iter_mut() {
            if let Some(s) = server.take() {
                s.shutdown();
            }
        }
    }
}
