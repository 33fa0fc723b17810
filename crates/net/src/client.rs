//! The sequential TCP client: a [`Session`] with a window of one.

use std::io;
use std::net::SocketAddr;
use std::time::Duration;

use hts_types::{ObjectId, ServerId, Value};

use crate::session::require_read_value;
use crate::Session;

/// A synchronous client of a TCP `hts` cluster: one operation in flight,
/// a reply timeout, and retry against the next server when the contacted
/// one is silent or its connection breaks — the paper's client (§3).
///
/// It is a [`Session`] whose window admits one operation, so it shares
/// the session's event loop, retry budget and failure handling, and like
/// a session it costs no thread: every call runs on the caller's thread.
///
/// See the [crate docs](crate) for an example.
pub struct Client {
    session: Session,
}

impl Client {
    /// Connects lazily to a cluster at `addrs` (indexed by [`ServerId`]).
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::InvalidInput`] for an empty or oversized
    /// address map, or the error of creating the client's poller.
    /// Connections themselves are opened on first use, so unreachable
    /// servers surface from the operations, not from here.
    pub fn connect(id: u32, addrs: Vec<SocketAddr>) -> io::Result<Client> {
        Client::connect_preferring(id, addrs, ServerId(0))
    }

    /// Connects lazily, preferring `preferred` as the first server to
    /// contact (useful for pinning load, and for tests that must observe
    /// one specific server — e.g. a freshly restarted one).
    ///
    /// # Errors
    ///
    /// As [`Client::connect`], plus [`io::ErrorKind::InvalidInput`] when
    /// `preferred` is outside the address map.
    pub fn connect_preferring(
        id: u32,
        addrs: Vec<SocketAddr>,
        preferred: ServerId,
    ) -> io::Result<Client> {
        Ok(Client {
            session: Session::connect_preferring(id, addrs, preferred, 1)?,
        })
    }

    /// Sets the per-attempt reply timeout (default 500 ms).
    pub fn set_timeout(&mut self, timeout: Duration) {
        self.session.set_timeout(timeout);
    }

    /// The alive-map the client routes by (test/diagnostic hook): entry
    /// `s` is `false` while server `s` is suspected crashed. Suspicions
    /// recover on successful reconnects and periodic re-probes.
    pub fn believed_alive(&self) -> &[bool] {
        self.session.believed_alive()
    }

    /// Writes `value` to the register, blocking until acknowledged.
    ///
    /// # Errors
    ///
    /// Fails only when every server is unreachable for a full retry cycle.
    pub fn write(&mut self, value: Value) -> io::Result<()> {
        self.write_to(ObjectId::SINGLE, value)
    }

    /// Writes `value` into register `object` (multi-register stores).
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn write_to(&mut self, object: ObjectId, value: Value) -> io::Result<()> {
        let request = self.session.begin_write_to(object, value)?;
        self.session.wait(request).map(|_| ())
    }

    /// Reads the register, blocking until a server answers.
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn read(&mut self) -> io::Result<Value> {
        self.read_from(ObjectId::SINGLE)
    }

    /// Reads register `object`.
    ///
    /// # Errors
    ///
    /// As [`Client::write`].
    pub fn read_from(&mut self, object: ObjectId) -> io::Result<Value> {
        let request = self.session.begin_read_from(object)?;
        self.session.wait(request).and_then(require_read_value)
    }

    /// Fetches `server`'s live metrics registry as Prometheus-style text
    /// exposition (the server-side [`hts_metrics::render`]).
    ///
    /// Stats deliberately bypass the retry rotation: the caller asks ONE
    /// server for ITS process-wide registry — a different server
    /// answering would silently report the wrong process. The exchange
    /// still runs under the ordinary per-attempt timeout and tolerates
    /// stale op replies arriving on the shared connection.
    ///
    /// # Errors
    ///
    /// Connect, send and timeout errors against that specific server. A
    /// connection found dead is dropped, so the next call reconnects.
    pub fn stats(&mut self, server: ServerId) -> io::Result<String> {
        self.session.stats(server)
    }
}
