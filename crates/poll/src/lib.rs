//! Minimal zero-dependency readiness layer for the hts TCP runtime.
//!
//! Three pieces, all free of crates.io dependencies:
//!
//! 1. **Poller** — a Linux `epoll` wrapper over direct `extern "C"`
//!    syscall bindings (`epoll_create1` / `epoll_ctl` / `epoll_wait`,
//!    no libc crate). Sockets register under a caller-chosen [`Token`];
//!    [`Poller::wait`] retries `EINTR` internally so callers only see
//!    real readiness. A [`Waker`] (an `eventfd`) lets other threads
//!    kick a sleeping reactor.
//! 2. **Nonblocking connect** — [`connect_nonblocking`] builds the
//!    `sockaddr` by hand, issues a `SOCK_NONBLOCK` `connect(2)`, and
//!    hands back a std [`TcpStream`]; the caller waits for `EPOLLOUT`
//!    and checks `take_error()` (`SO_ERROR`) to learn the verdict.
//! 3. **Partial I/O** — [`read_nb`] (one nonblocking read with `EINTR`,
//!    `WouldBlock` and EOF folded into a [`ReadStatus`]) and
//!    [`WriteBuf`] (coalesced writes that survive
//!    `WouldBlock`/`EINTR`/partial progress).
//!
//! On non-Linux targets the partial-I/O helpers still compile and the
//! syscall-backed types report `Unsupported`, which `hts-net` surfaces
//! from `Server::spawn` and `Session::connect`.

use std::io::{self, Read, Write};

/// Identifies a registered file descriptor in [`Poller::wait`] results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// What readiness to watch for. Level-triggered by default; [`edge`]
/// opts a registration into `EPOLLET`.
///
/// [`edge`]: Interest::edge
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    read: bool,
    write: bool,
    edge: bool,
}

impl Interest {
    /// Watch for readable (level-triggered).
    pub const READABLE: Interest = Interest {
        read: true,
        write: false,
        edge: false,
    };
    /// Watch for writable (level-triggered).
    pub const WRITABLE: Interest = Interest {
        read: false,
        write: true,
        edge: false,
    };
    /// Watch for both (level-triggered).
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
        edge: false,
    };

    /// The same interest, edge-triggered (`EPOLLET`).
    pub fn edge(self) -> Interest {
        Interest { edge: true, ..self }
    }
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    token: u64,
    mask: u32,
}

impl Event {
    /// The token the fd registered under.
    pub fn token(&self) -> Token {
        Token(self.token)
    }

    /// Readable (includes peer half-close, which reads as EOF).
    pub fn readable(&self) -> bool {
        self.mask & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLRDHUP | sys::EPOLLERR) != 0
    }

    /// Writable (includes error — a failed nonblocking connect reports
    /// `EPOLLERR|EPOLLOUT`, and the caller learns why via `SO_ERROR`).
    pub fn writable(&self) -> bool {
        self.mask & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0
    }

    /// Error or hangup: the fd needs attention even without I/O.
    pub fn is_error(&self) -> bool {
        self.mask & (sys::EPOLLERR | sys::EPOLLHUP) != 0
    }
}

/// Reusable buffer of readiness events for [`Poller::wait`].
pub struct Events {
    raw: Vec<sys::EpollEvent>,
    len: usize,
}

impl Events {
    /// A buffer that accepts up to `capacity` events per wait.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            raw: vec![sys::EpollEvent::default(); capacity.max(1)],
            len: 0,
        }
    }

    /// Events reported by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.raw[..self.len].iter().map(|e| Event {
            token: e.data,
            mask: e.events,
        })
    }

    /// Number of events reported by the last wait.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the last wait reported nothing (timeout).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(target_os = "linux")]
mod sys {
    //! Direct syscall bindings. std already links the platform C
    //! library, so these resolve against it without the libc crate.
    #![allow(unsafe_code)]

    use std::io;

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EFD_CLOEXEC: i32 = 0o2000000;
    const EFD_NONBLOCK: i32 = 0o4000;

    pub const SOCK_STREAM: i32 = 1;
    pub const SOCK_NONBLOCK: i32 = 0o4000;
    pub const SOCK_CLOEXEC: i32 = 0o2000000;
    pub const AF_INET: u16 = 2;
    pub const AF_INET6: u16 = 10;
    pub const EINPROGRESS: i32 = 115;
    pub const EINTR: i32 = 4;

    /// Kernel ABI for `struct epoll_event`; packed on x86-64 only,
    /// matching the kernel's per-arch layout.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy, Default)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn close(fd: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn connect(fd: i32, addr: *const u8, len: u32) -> i32;
    }

    pub fn sys_epoll_create() -> io::Result<i32> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // checked and turned into the errno it set.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn sys_epoll_ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let mut ev = EpollEvent { events, data };
        // SAFETY: `ev` is a live stack value matching the kernel ABI
        // struct; the kernel copies it before the call returns.
        let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn sys_epoll_wait(epfd: i32, buf: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        // SAFETY: `buf` is a live, writable slice and `maxevents` is its
        // exact length, so the kernel never writes out of bounds.
        let rc = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(rc as usize)
    }

    pub fn sys_eventfd() -> io::Result<i32> {
        // SAFETY: eventfd takes no pointers; negative return checked.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn sys_close(fd: i32) {
        // SAFETY: the caller owns `fd` and never uses it again; close
        // on an already-bad fd is harmless (EBADF ignored).
        unsafe {
            close(fd);
        }
    }

    pub fn sys_write_u64(fd: i32, v: u64) -> io::Result<()> {
        let bytes = v.to_ne_bytes();
        // SAFETY: pointer and length describe the live 8-byte array.
        let rc = unsafe { write(fd, bytes.as_ptr(), bytes.len()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn sys_read_u64(fd: i32) -> io::Result<u64> {
        let mut bytes = [0u8; 8];
        // SAFETY: pointer and length describe the live 8-byte array;
        // the kernel writes at most `len` bytes.
        let rc = unsafe { read(fd, bytes.as_mut_ptr(), bytes.len()) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(u64::from_ne_bytes(bytes))
    }

    pub fn sys_socket(domain: u16) -> io::Result<i32> {
        // SAFETY: socket takes no pointers; negative return checked.
        let fd = unsafe { socket(domain as i32, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(fd)
    }

    pub fn sys_connect(fd: i32, addr: &[u8]) -> io::Result<()> {
        // SAFETY: `addr` is a live byte view of a properly laid-out
        // sockaddr_in/sockaddr_in6 and `len` is its exact size.
        let rc = unsafe { connect(fd, addr.as_ptr(), addr.len() as u32) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
mod poller {
    #![allow(unsafe_code)]

    use super::sys;
    use super::{Events, Interest, Token};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::os::fd::{FromRawFd, RawFd};
    use std::time::{Duration, Instant};

    fn interest_mask(interest: Interest) -> u32 {
        let mut mask = sys::EPOLLRDHUP;
        if interest.read {
            mask |= sys::EPOLLIN;
        }
        if interest.write {
            mask |= sys::EPOLLOUT;
        }
        if interest.edge {
            mask |= sys::EPOLLET;
        }
        mask
    }

    /// An epoll instance. Registrations are keyed by [`Token`]; the
    /// poller never owns the registered fds (callers close them after
    /// [`Poller::deregister`]).
    pub struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        /// A fresh epoll instance (`EPOLL_CLOEXEC`).
        ///
        /// # Errors
        ///
        /// The `epoll_create1` errno (fd exhaustion, mainly).
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                epfd: sys::sys_epoll_create()?,
            })
        }

        /// Starts watching `fd` under `token`.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` errno (`EEXIST` if already registered).
        pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            sys::sys_epoll_ctl(
                self.epfd,
                sys::EPOLL_CTL_ADD,
                fd,
                interest_mask(interest),
                token.0,
            )
        }

        /// Changes what an already-registered `fd` is watched for.
        ///
        /// # Errors
        ///
        /// The `epoll_ctl` errno (`ENOENT` if not registered).
        pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
            sys::sys_epoll_ctl(
                self.epfd,
                sys::EPOLL_CTL_MOD,
                fd,
                interest_mask(interest),
                token.0,
            )
        }

        /// Stops watching `fd`. Harmless if it was never registered (a
        /// close may already have dropped it from the interest list).
        pub fn deregister(&self, fd: RawFd) {
            let _ = sys::sys_epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
        }

        /// Blocks until readiness or `timeout` (None = forever),
        /// filling `events`. `EINTR` is retried internally with the
        /// remaining timeout, so a return with zero events really is a
        /// timeout.
        ///
        /// # Errors
        ///
        /// Any `epoll_wait` errno except `EINTR`.
        pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
            let deadline = timeout.map(|t| Instant::now() + t);
            loop {
                let timeout_ms = match deadline {
                    None => -1,
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        // Round up so a nonzero remainder never spins.
                        left.as_millis().min(i32::MAX as u128) as i32
                            + i32::from(left.subsec_nanos() % 1_000_000 != 0)
                    }
                };
                match sys::sys_epoll_wait(self.epfd, &mut events.raw, timeout_ms) {
                    Ok(n) => {
                        events.len = n;
                        return Ok(n);
                    }
                    Err(e) if e.raw_os_error() == Some(sys::EINTR) => {
                        if let Some(d) = deadline {
                            if Instant::now() >= d {
                                events.len = 0;
                                return Ok(0);
                            }
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            sys::sys_close(self.epfd);
        }
    }

    /// Cross-thread kick for a sleeping [`Poller`]: an `eventfd`
    /// registered level-triggered readable under a caller-chosen token.
    pub struct Waker {
        fd: RawFd,
    }

    impl Waker {
        /// Creates the eventfd and registers it with `poller`.
        ///
        /// # Errors
        ///
        /// `eventfd` or `epoll_ctl` errno.
        pub fn new(poller: &Poller, token: Token) -> io::Result<Waker> {
            let fd = sys::sys_eventfd()?;
            if let Err(e) = poller.register(fd, token, Interest::READABLE) {
                sys::sys_close(fd);
                return Err(e);
            }
            Ok(Waker { fd })
        }

        /// Makes the poller's next (or current) wait return with this
        /// waker's token. Cheap and safe from any thread.
        pub fn wake(&self) {
            let _ = sys::sys_write_u64(self.fd, 1);
        }

        /// Clears the pending wakeups; call when the waker's token
        /// fires so level-triggered epoll stops reporting it.
        pub fn drain(&self) {
            let _ = sys::sys_read_u64(self.fd);
        }
    }

    impl Drop for Waker {
        fn drop(&mut self) {
            sys::sys_close(self.fd);
        }
    }

    /// Starts a nonblocking TCP connect. Returns the stream plus
    /// whether the connect already completed; when it has not, register
    /// the stream for write readiness and check `take_error()`
    /// (`SO_ERROR`) once `EPOLLOUT`/`EPOLLERR` fires.
    ///
    /// # Errors
    ///
    /// Immediate failures only (`ENETUNREACH` etc.); a refused
    /// connection usually surfaces later through `take_error`.
    pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<(TcpStream, bool)> {
        let (domain, raw) = encode_sockaddr(addr);
        let fd = sys::sys_socket(domain)?;
        let pending = match sys::sys_connect(fd, &raw) {
            Ok(()) => false,
            Err(e) if e.raw_os_error() == Some(sys::EINPROGRESS) => true,
            Err(e) => {
                sys::sys_close(fd);
                return Err(e);
            }
        };
        // SAFETY: `fd` is a freshly created socket we exclusively own;
        // from_raw_fd transfers that ownership to the TcpStream.
        let stream = unsafe { TcpStream::from_raw_fd(fd) };
        Ok((stream, !pending))
    }

    /// Lays out a kernel-ABI `sockaddr_in`/`sockaddr_in6` by hand.
    fn encode_sockaddr(addr: SocketAddr) -> (u16, Vec<u8>) {
        match addr {
            SocketAddr::V4(v4) => {
                let mut raw = Vec::with_capacity(16);
                raw.extend_from_slice(&sys::AF_INET.to_ne_bytes());
                raw.extend_from_slice(&v4.port().to_be_bytes());
                raw.extend_from_slice(&v4.ip().octets());
                raw.extend_from_slice(&[0u8; 8]);
                (sys::AF_INET, raw)
            }
            SocketAddr::V6(v6) => {
                let mut raw = Vec::with_capacity(28);
                raw.extend_from_slice(&sys::AF_INET6.to_ne_bytes());
                raw.extend_from_slice(&v6.port().to_be_bytes());
                raw.extend_from_slice(&v6.flowinfo().to_be_bytes());
                raw.extend_from_slice(&v6.ip().octets());
                raw.extend_from_slice(&v6.scope_id().to_ne_bytes());
                (sys::AF_INET6, raw)
            }
        }
    }
}

#[cfg(target_os = "linux")]
pub use poller::{connect_nonblocking, Poller, Waker};

#[cfg(not(target_os = "linux"))]
mod poller_stub {
    //! Non-Linux stand-ins: everything reports `Unsupported`, so the
    //! workspace still compiles there and the net layer fails with a
    //! clear error at runtime.
    use super::{Events, Interest, Token};
    use std::io;
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "hts-poll readiness layer requires Linux epoll",
        ))
    }

    /// Unsupported on this target; see the Linux build for semantics.
    pub struct Poller {}

    impl Poller {
        /// Always `Unsupported` off Linux.
        ///
        /// # Errors
        ///
        /// Always.
        pub fn new() -> io::Result<Poller> {
            unsupported()
        }

        /// Unreachable (no `Poller` can exist off Linux).
        ///
        /// # Errors
        ///
        /// Always.
        pub fn register(&self, _fd: i32, _token: Token, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no `Poller` can exist off Linux).
        ///
        /// # Errors
        ///
        /// Always.
        pub fn reregister(&self, _fd: i32, _token: Token, _interest: Interest) -> io::Result<()> {
            unsupported()
        }

        /// Unreachable (no `Poller` can exist off Linux).
        pub fn deregister(&self, _fd: i32) {}

        /// Unreachable (no `Poller` can exist off Linux).
        ///
        /// # Errors
        ///
        /// Always.
        pub fn wait(&self, _events: &mut Events, _timeout: Option<Duration>) -> io::Result<usize> {
            unsupported()
        }
    }

    /// Unsupported on this target; see the Linux build for semantics.
    pub struct Waker {}

    impl Waker {
        /// Always `Unsupported` off Linux.
        ///
        /// # Errors
        ///
        /// Always.
        pub fn new(_poller: &Poller, _token: Token) -> io::Result<Waker> {
            unsupported()
        }

        /// Unreachable (no `Waker` can exist off Linux).
        pub fn wake(&self) {}

        /// Unreachable (no `Waker` can exist off Linux).
        pub fn drain(&self) {}
    }

    /// Always `Unsupported` off Linux.
    ///
    /// # Errors
    ///
    /// Always.
    pub fn connect_nonblocking(_addr: SocketAddr) -> io::Result<(TcpStream, bool)> {
        unsupported()
    }
}

#[cfg(not(target_os = "linux"))]
pub use poller_stub::{connect_nonblocking, Poller, Waker};

/// Outcome of one nonblocking read attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadStatus {
    /// `n > 0` bytes landed in the buffer.
    Data(usize),
    /// The socket has nothing right now; wait for readiness.
    WouldBlock,
    /// Clean EOF: the peer closed.
    Eof,
}

/// One nonblocking read with the retry boilerplate folded in: `EINTR`
/// retries, `WouldBlock` and EOF become values instead of errors.
///
/// # Errors
///
/// Real socket errors only.
pub fn read_nb<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<ReadStatus> {
    loop {
        match reader.read(buf) {
            Ok(0) => return Ok(ReadStatus::Eof),
            Ok(n) => return Ok(ReadStatus::Data(n)),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadStatus::WouldBlock),
            Err(e) => return Err(e),
        }
    }
}

/// Coalescing write buffer that survives partial writes: bytes queue
/// via [`push`], [`flush`] pushes as much as the socket accepts and
/// remembers its position across `WouldBlock`, retrying `EINTR`
/// internally.
///
/// [`push`]: WriteBuf::push
/// [`flush`]: WriteBuf::flush
#[derive(Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl WriteBuf {
    /// An empty buffer.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Whether everything pushed has been flushed.
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes still waiting for the socket.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Queues bytes behind whatever is still unflushed, first
    /// compacting the already-written prefix so the buffer never grows
    /// past the unflushed tail plus the new bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(self.buf.len() - self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Drops all pending bytes (connection abandoned).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.pos = 0;
    }

    /// Writes as much as the socket accepts. `Ok(true)` means fully
    /// drained; `Ok(false)` means the socket pushed back (`WouldBlock`)
    /// and the caller should wait for write readiness. `EINTR` retries
    /// internally; partial writes advance the position.
    ///
    /// # Errors
    ///
    /// Real socket errors, plus `WriteZero` if the socket claims to
    /// accept zero bytes.
    pub fn flush<W: Write>(&mut self, writer: &mut W) -> io::Result<bool> {
        while self.pos < self.buf.len() {
            match writer.write(&self.buf[self.pos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that doles out a script of results one call at a time.
    struct Script {
        steps: std::collections::VecDeque<ScriptStep>,
    }

    enum ScriptStep {
        WouldBlock,
        Interrupt,
        Accept(usize),
    }

    impl Script {
        fn new(steps: Vec<ScriptStep>) -> Script {
            Script {
                steps: steps.into(),
            }
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            match self.steps.pop_front() {
                Some(ScriptStep::Accept(n)) => Ok(n.min(buf.len())),
                Some(ScriptStep::WouldBlock) => Err(io::ErrorKind::WouldBlock.into()),
                Some(ScriptStep::Interrupt) => Err(io::ErrorKind::Interrupted.into()),
                None => unreachable!("write past the end of the script"),
            }
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_resumes_partial_writes_across_wouldblock() {
        let mut wb = WriteBuf::new();
        wb.push(b"abcdefgh");
        let mut sink = Script::new(vec![
            ScriptStep::Accept(3),
            ScriptStep::Interrupt,
            ScriptStep::WouldBlock,
        ]);
        assert!(!wb.flush(&mut sink).unwrap());
        assert_eq!(wb.pending(), 5);

        // More bytes arrive while blocked; the drained prefix compacts.
        wb.push(b"ij");
        let mut sink = Script::new(vec![ScriptStep::Accept(4), ScriptStep::Accept(64)]);
        assert!(wb.flush(&mut sink).unwrap());
        assert!(wb.is_empty());
        assert_eq!(wb.pending(), 0);
    }

    #[test]
    fn write_buf_surfaces_write_zero() {
        let mut wb = WriteBuf::new();
        wb.push(b"x");
        let mut sink = Script::new(vec![ScriptStep::Accept(0)]);
        assert_eq!(
            wb.flush(&mut sink).unwrap_err().kind(),
            io::ErrorKind::WriteZero
        );
    }

    #[cfg(target_os = "linux")]
    mod linux {
        use super::super::*;
        use std::net::{TcpListener, TcpStream};

        #[test]
        fn poller_reports_readability_and_waker_wakes() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let poller = Poller::new().unwrap();
            let waker = Waker::new(&poller, Token(0)).unwrap();

            let mut client = TcpStream::connect(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            server.set_nonblocking(true).unwrap();
            poller
                .register(
                    std::os::fd::AsRawFd::as_raw_fd(&server),
                    Token(7),
                    Interest::READABLE,
                )
                .unwrap();

            // Nothing readable yet: a short wait times out.
            let mut events = Events::with_capacity(8);
            poller
                .wait(&mut events, Some(std::time::Duration::from_millis(10)))
                .unwrap();
            assert!(events.is_empty());

            client.write_all(b"ping").unwrap();
            poller
                .wait(&mut events, Some(std::time::Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token() == Token(7) && e.readable()));

            // The waker fires its own token from another thread.
            waker.wake();
            poller
                .wait(&mut events, Some(std::time::Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token() == Token(0)));
            waker.drain();
        }

        #[test]
        fn nonblocking_connect_completes_via_writability() {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let poller = Poller::new().unwrap();

            let (stream, done) = connect_nonblocking(addr).unwrap();
            if !done {
                poller
                    .register(
                        std::os::fd::AsRawFd::as_raw_fd(&stream),
                        Token(1),
                        Interest::WRITABLE,
                    )
                    .unwrap();
                let mut events = Events::with_capacity(8);
                poller
                    .wait(&mut events, Some(std::time::Duration::from_secs(5)))
                    .unwrap();
                assert!(events.iter().any(|e| e.token() == Token(1) && e.writable()));
            }
            assert!(stream.take_error().unwrap().is_none());
            let _ = listener.accept().unwrap();
        }

        #[test]
        fn eintr_during_epoll_wait_is_retried() {
            // epoll_wait is on the kernel's never-restarted list, so any
            // delivered signal surfaces as EINTR; the Poller must absorb
            // it and keep waiting out the timeout.
            #![allow(unsafe_code)]
            extern "C" {
                fn signal(signum: i32, handler: usize) -> usize;
                fn kill(pid: i32, sig: i32) -> i32;
                fn getpid() -> i32;
            }
            extern "C" fn noop(_: i32) {}
            const SIGUSR1: i32 = 10;
            // SAFETY: installs a no-op handler for SIGUSR1; the handler
            // is async-signal-safe (it does nothing).
            unsafe {
                signal(SIGUSR1, noop as *const () as usize);
            }
            // SAFETY: getpid takes no arguments and cannot fail.
            let pid = unsafe { getpid() };

            let poller = Poller::new().unwrap();
            let waker = std::sync::Arc::new(Waker::new(&poller, Token(0)).unwrap());
            let kicker = std::thread::spawn(move || {
                for _ in 0..20 {
                    // SAFETY: signals our own live process with a
                    // handled, no-op signal.
                    unsafe {
                        kill(pid, SIGUSR1);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });

            // A wait longer than the signal barrage: it must neither
            // error out with EINTR nor return spuriously early.
            let mut events = Events::with_capacity(4);
            let start = std::time::Instant::now();
            poller
                .wait(&mut events, Some(std::time::Duration::from_millis(60)))
                .unwrap();
            assert!(events.is_empty());
            assert!(start.elapsed() >= std::time::Duration::from_millis(55));
            kicker.join().unwrap();
            drop(waker);
        }
    }
}
