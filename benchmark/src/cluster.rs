//! The system under test: n = 3 servers, one lane each, every one in its
//! own child process (`benchmark serve …`, this same binary re-executed),
//! so `/proc/<child>` separates server cost from the load generator's.
//!
//! Hygiene: a child is killed and reaped when its guard drops — on a
//! normal return, an error or a panic's unwind — and exits by itself when
//! its stdin closes, which is what it sees if the parent dies without
//! unwinding (Ctrl-C, SIGKILL). WAL directories live under a per-run
//! temp dir that is removed when its guard drops.

use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};

use hts_core::{Config, Durability};
use hts_net::{Server, ServerConfig};
use hts_types::ServerId;

/// Servers in the ring.
pub const SERVERS: u16 = 3;

/// The line a child prints once `Server::spawn` returned.
const READY: &str = "ready";
/// The line a child prints when its listen address was taken between
/// the parent's bind-and-release and its own bind.
const ADDR_IN_USE: &str = "addr-in-use";

/// Entry point of `benchmark serve`: runs one server until stdin closes.
pub fn serve(args: &[String]) -> Result<(), String> {
    let mut id = None;
    let mut addrs = Vec::new();
    let mut wal_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("serve: {flag} needs a value"));
        match flag.as_str() {
            "--id" => id = Some(value()?.parse::<u16>().map_err(|e| e.to_string())?),
            "--addrs" => {
                for addr in value()?.split(',') {
                    addrs.push(addr.parse::<SocketAddr>().map_err(|e| e.to_string())?);
                }
            }
            "--wal-dir" => wal_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("serve: unknown flag {other}")),
        }
    }
    let id = id.ok_or("serve: --id is required")?;
    let durability = if wal_dir.is_some() {
        Durability::SyncAlways
    } else {
        Durability::Volatile
    };
    let server = match Server::spawn(ServerConfig {
        id: ServerId(id),
        addrs,
        config: Config {
            durability,
            ..Config::default()
        },
        wal_dir,
    }) {
        Ok(server) => server,
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            println!("{ADDR_IN_USE}");
            return Err(format!("serve: {e}"));
        }
        Err(e) => return Err(format!("serve: {e}")),
    };
    println!("{READY}");
    // Serve until the parent closes our stdin (or dies).
    let _ = io::stdin().lock().read_to_end(&mut Vec::new());
    server.shutdown();
    Ok(())
}

/// One server child. Dropping it kills and reaps the process.
struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
}

impl ServerProc {
    /// Closes the child's stdin and waits for it to stop on its own.
    fn stop(mut self) {
        drop(self.stdin.take());
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_server(id: u16, addrs: &[SocketAddr], wal_dir: Option<&Path>) -> io::Result<ServerProc> {
    let exe = std::env::current_exe()?;
    let list: Vec<String> = addrs.iter().map(SocketAddr::to_string).collect();
    let mut cmd = Command::new(exe);
    cmd.arg("serve")
        .args(["--id", &id.to_string(), "--addrs", &list.join(",")])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(dir) = wal_dir {
        cmd.arg("--wal-dir").arg(dir);
    }
    let mut child = cmd.spawn()?;
    let stdin = child.stdin.take();
    let stdout = child.stdout.take();
    // From here the guard owns the child: an early return reaps it.
    let proc = ServerProc { child, stdin };
    let mut line = String::new();
    if let Some(stdout) = stdout {
        BufReader::new(stdout).read_line(&mut line)?;
    }
    match line.trim() {
        READY => Ok(proc),
        ADDR_IN_USE => Err(io::ErrorKind::AddrInUse.into()),
        other => Err(io::Error::other(format!(
            "server {id} did not come up (said {other:?})"
        ))),
    }
}

/// Reserves `n` loopback ports by bind-and-release.
fn reserve_ports(n: u16) -> io::Result<Vec<SocketAddr>> {
    let holders: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    holders.iter().map(TcpListener::local_addr).collect()
}

/// A running 3-server ring of child processes.
pub struct Cluster {
    addrs: Vec<SocketAddr>,
    servers: Vec<Option<ServerProc>>,
    wal_base: Option<PathBuf>,
}

impl Cluster {
    /// Boots the ring; with `wal_base`, server `i` logs (and on a
    /// respawn recovers) under `<wal_base>/server-<i>` with
    /// `Durability::SyncAlways`. A port lost to another process between
    /// release and bind costs a retry with fresh ports.
    pub fn launch(wal_base: Option<&Path>) -> io::Result<Cluster> {
        let mut last = None;
        for _ in 0..5 {
            let mut cluster = Cluster {
                addrs: reserve_ports(SERVERS)?,
                servers: (0..SERVERS).map(|_| None).collect(),
                wal_base: wal_base.map(Path::to_path_buf),
            };
            // Highest id first: each server's ring successor is then
            // already listening, except the first one's, which pays the
            // runtime's one fixed connect back-off.
            match (0..SERVERS).rev().try_for_each(|i| cluster.start(i)) {
                Ok(()) => return Ok(cluster),
                Err(e) if e.kind() == io::ErrorKind::AddrInUse => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("could not reserve ports")))
    }

    /// Starts server `i` on its address and WAL directory (again, after a
    /// [`kill`](Self::kill): it then recovers from the log it left).
    pub fn start(&mut self, i: u16) -> io::Result<()> {
        let wal_dir = self
            .wal_base
            .as_ref()
            .map(|b| b.join(format!("server-{i}")));
        self.servers[usize::from(i)] = Some(spawn_server(i, &self.addrs, wal_dir.as_deref())?);
        Ok(())
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.addrs.clone()
    }

    /// Process ids of the servers currently running, by server id.
    pub fn pids(&self) -> Vec<Option<u32>> {
        self.servers
            .iter()
            .map(|s| s.as_ref().map(|p| p.child.id()))
            .collect()
    }

    /// SIGKILLs server `i` and reaps it. Its WAL directory stays.
    pub fn kill(&mut self, i: u16) {
        self.servers[usize::from(i)] = None;
    }

    /// Stops every server by closing its stdin and waits for each.
    pub fn shutdown(mut self) {
        for server in self.servers.drain(..).flatten() {
            server.stop();
        }
    }
}

/// A directory removed, with everything in it, when the guard drops.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates a fresh directory next to the running executable — inside
    /// the build's target directory, so a run writes nothing outside its
    /// checkout.
    pub fn new() -> io::Result<TempDir> {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join("hts-benchmark-tmp").join(format!(
            "run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
