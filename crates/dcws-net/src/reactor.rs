//! The event-driven front end: a readiness-based reactor that owns every
//! client-facing connection.
//!
//! The paper's §5.1 front end is one blocking acceptor feeding a fixed
//! pool of blocking workers, which caps *concurrent* client connections
//! at roughly the worker count: a keep-alive client parked between
//! requests pins a whole thread. `connpress` showed per-connection setup
//! is the dominant fixed cost of small transfers, so the scaling move is
//! to hold idle connections cheaply and spend threads only on work that
//! actually blocks. This module does that with a hand-rolled readiness
//! loop — no async runtime (the workspace's vendored-deps constraint
//! forbids tokio), just nonblocking sockets and the kernel's readiness
//! API behind a tiny FFI shim:
//!
//! * **[`Poller`]** — `epoll_create1`/`epoll_ctl`/`epoll_wait` on Linux,
//!   with a portable `poll(2)` backend (`Poller::with_poll_backend`,
//!   the default off Linux) so macOS dev builds compile and the
//!   fallback stays tested;
//! * **`Reactor`** *(crate-private, spawned by
//!   [`DcwsServer`](crate::DcwsServer))* — one thread that accepts
//!   nonblockingly, resumes each ready connection's incremental
//!   [`MsgBuf`](crate::MsgBuf) parse mid-head, answers common-case GETs
//!   inline via `ReadPath::try_serve` with nonblocking zero-copy
//!   `writev(2)` writes,
//!   and hands engine-locked work (misses, mutations, `/dcws/*`,
//!   inter-server verbs) to the worker pool, demoted to a bounded
//!   **spillover**: workers compute the response and post it back
//!   through a completion list plus a waker pipe, never touching the
//!   client socket.
//!
//! Backpressure is explicit and two-runged, consistent with the
//! fresh→stale→503 degradation ladder (docs/RESILIENCE.md):
//!
//! 1. **accept-pause** — past `NetConfig::max_reactor_conns` registered
//!    connections the listener is deregistered from the poller (counted
//!    in `reactor.accept_pauses`) and re-armed once the count drops
//!    below 90 % of the limit; the kernel backlog, then SYN queue,
//!    absorb the burst;
//! 2. **spillover 503** — when the bounded spillover queue (the paper's
//!    L_sq) is full, the reactor answers `503` + `Retry-After` inline
//!    and keeps the connection alive, exactly the §5.2 graceful drop.
//!
//! The engine-lock discipline extends into the loop: the reactor thread
//! **never takes the engine lock** (even `/dcws/status` spills over),
//! and every loop turn debug-asserts
//! [`assert_engine_unlocked`] so a
//! callback that leaked a guard into the loop panics in debug builds
//! rather than stalling ten thousand connections behind a mutex.
//!
//! Shutdown drains at request boundaries: connections idle at a
//! boundary close immediately, in-flight spillover
//! responses are written with `Connection: close`, and the loop exits
//! once drained (or after a bounded deadline).

use crate::conn::READ_TIMEOUT;
use crate::lock::assert_engine_unlocked;
use crate::server::{Shared, SpillJob, RETRY_AFTER_SECS};
use dcws_core::Json;
use dcws_http::{Method, Response, StreamBody, STREAM_CHUNK};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// FFI shim: the raw readiness syscalls.
//
// The workspace vendors all dependencies, so there is no `libc` crate to
// lean on; `std` already links the platform libc, and these five
// foreign declarations are the entire surface the reactor needs.
// ---------------------------------------------------------------------

mod sys {
    use std::os::raw::{c_int, c_short};

    /// `struct epoll_event` — packed on x86-64 (the kernel ABI), natural
    /// layout elsewhere, mirroring glibc's `__EPOLL_PACKED`.
    #[cfg(target_os = "linux")]
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[cfg(target_os = "linux")]
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_ADD: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_DEL: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const EPOLL_CTL_MOD: c_int = 3;
    #[cfg(target_os = "linux")]
    pub const EPOLLIN: u32 = 0x001;
    #[cfg(target_os = "linux")]
    pub const EPOLLOUT: u32 = 0x004;
    #[cfg(target_os = "linux")]
    pub const EPOLLERR: u32 = 0x008;
    #[cfg(target_os = "linux")]
    pub const EPOLLHUP: u32 = 0x010;

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }

    /// `struct pollfd` — identical layout on every POSIX platform.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    /// `nfds_t` is `unsigned long` on Linux, `unsigned int` on the BSDs
    /// (including macOS).
    #[cfg(target_os = "linux")]
    pub type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NfdsT = std::os::raw::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// `struct rlimit`; `rlim_t` is 64-bit on every supported target.
    #[repr(C)]
    pub struct Rlimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    #[cfg(target_os = "linux")]
    pub const RLIMIT_NOFILE: c_int = 7;
    #[cfg(not(target_os = "linux"))]
    pub const RLIMIT_NOFILE: c_int = 8;

    extern "C" {
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
    }

    /// `struct iovec` — identical layout on every POSIX platform.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct IoVec {
        pub base: *const u8,
        pub len: usize,
    }

    extern "C" {
        /// Gather-write: one syscall drains head + body segments without
        /// ever concatenating them in user space.
        pub fn writev(fd: c_int, iov: *const IoVec, iovcnt: c_int) -> isize;
    }

    // Socket-level FFI for SO_REUSEPORT listener sharding. Only Linux
    // gets the real thing (every other platform takes the hand-off
    // fallback), so the constants below are the Linux ABI values.
    #[cfg(target_os = "linux")]
    pub const AF_INET: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const SOCK_STREAM: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const SOCK_CLOEXEC: c_int = 0o2000000;
    #[cfg(target_os = "linux")]
    pub const SOL_SOCKET: c_int = 1;
    #[cfg(target_os = "linux")]
    pub const SO_REUSEADDR: c_int = 2;
    #[cfg(target_os = "linux")]
    pub const SO_REUSEPORT: c_int = 15;

    /// `struct sockaddr_in` (Linux): port and address in network order.
    #[cfg(target_os = "linux")]
    #[repr(C)]
    pub struct SockAddrIn {
        pub family: u16,
        pub port: u16,
        pub addr: u32,
        pub zero: [u8; 8],
    }

    #[cfg(target_os = "linux")]
    extern "C" {
        pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_int,
            len: u32,
        ) -> c_int;
        pub fn bind(fd: c_int, addr: *const SockAddrIn, len: u32) -> c_int;
        pub fn listen(fd: c_int, backlog: c_int) -> c_int;
    }
}

/// Try to raise the process's open-file soft limit to at least `want`
/// descriptors (hard limit too, where privilege allows) and return the
/// soft limit actually in effect afterwards. Ten thousand keep-alive
/// clients need ten thousand fds; the default 1024 soft limit would cap
/// a c10k run at c1k, so `c10kpress` calls this before opening anything.
pub fn raise_nofile_limit(want: u64) -> u64 {
    unsafe {
        let mut lim = sys::Rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        if sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        if lim.rlim_cur >= want {
            return lim.rlim_cur;
        }
        // First try within the current hard limit, then (root only)
        // above it; keep whichever attempt sticks.
        let attempt = sys::Rlimit {
            rlim_cur: want.min(lim.rlim_max),
            rlim_max: lim.rlim_max,
        };
        let _ = sys::setrlimit(sys::RLIMIT_NOFILE, &attempt);
        if want > lim.rlim_max {
            let raise = sys::Rlimit {
                rlim_cur: want,
                rlim_max: want,
            };
            let _ = sys::setrlimit(sys::RLIMIT_NOFILE, &raise);
        }
        if sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) != 0 {
            return 0;
        }
        lim.rlim_cur
    }
}

/// Bind a listener at `addr` with `SO_REUSEPORT` set, so several shards
/// can share one port and the kernel spreads incoming connections across
/// their accept queues (hashed on the 4-tuple). Linux-only — the option
/// must be set *before* bind, which `std`'s `TcpListener` offers no hook
/// for, hence the raw FFI. IPv4 only; anything else reports
/// `Unsupported` and the caller falls back to single-listener hand-off.
#[cfg(target_os = "linux")]
pub(crate) fn bind_reuseport(addr: std::net::SocketAddr) -> io::Result<TcpListener> {
    use std::os::unix::io::FromRawFd;
    let std::net::SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "SO_REUSEPORT sharding is IPv4-only",
        ));
    };
    unsafe {
        let fd = sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        // Close the raw fd on any early error below.
        struct Guard(RawFd, bool);
        impl Drop for Guard {
            fn drop(&mut self) {
                if self.1 {
                    unsafe { sys::close(self.0) };
                }
            }
        }
        let mut guard = Guard(fd, true);
        let one: std::os::raw::c_int = 1;
        let optlen = std::mem::size_of_val(&one) as u32;
        for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
            if sys::setsockopt(fd, sys::SOL_SOCKET, opt, &one, optlen) != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        let sa = sys::SockAddrIn {
            family: sys::AF_INET as u16,
            port: v4.port().to_be(),
            addr: u32::from(*v4.ip()).to_be(),
            zero: [0; 8],
        };
        if sys::bind(fd, &sa, std::mem::size_of::<sys::SockAddrIn>() as u32) != 0 {
            return Err(io::Error::last_os_error());
        }
        if sys::listen(fd, 1024) != 0 {
            return Err(io::Error::last_os_error());
        }
        guard.1 = false;
        Ok(TcpListener::from_raw_fd(fd))
    }
}

#[cfg(not(target_os = "linux"))]
pub(crate) fn bind_reuseport(_addr: std::net::SocketAddr) -> io::Result<TcpListener> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "SO_REUSEPORT sharding requires Linux; using accept hand-off",
    ))
}

// ---------------------------------------------------------------------
// Poller: one uniform readiness API over epoll (Linux) or poll (POSIX).
// ---------------------------------------------------------------------

/// One readiness event: `token` is whatever the caller registered.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration token (the reactor packs a slab index +
    /// generation in here; the listener and waker use reserved values).
    pub token: u64,
    /// The descriptor is readable (or has pending accepts / EOF).
    pub readable: bool,
    /// The descriptor is writable.
    pub writable: bool,
    /// Error or hangup — always delivered, even if neither interest was
    /// registered (both epoll and poll report these unconditionally).
    pub hangup: bool,
}

#[cfg(target_os = "linux")]
struct EpollBackend {
    epfd: RawFd,
    scratch: Vec<sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollBackend {
    fn new() -> io::Result<EpollBackend> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollBackend {
            epfd,
            scratch: vec![sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(
        &mut self,
        op: i32,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: interest_bits(readable, writable),
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let ms = timeout.map_or(-1, |t| t.as_millis().min(i32::MAX as u128) as i32);
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.scratch.as_mut_ptr(),
                self.scratch.len() as i32,
                ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            // A signal interrupting the wait is a zero-event wake.
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for i in 0..n as usize {
            let ev = self.scratch[i];
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(n as usize)
    }
}

#[cfg(target_os = "linux")]
fn interest_bits(readable: bool, writable: bool) -> u32 {
    let mut bits = 0;
    if readable {
        bits |= sys::EPOLLIN;
    }
    if writable {
        bits |= sys::EPOLLOUT;
    }
    bits
}

#[cfg(target_os = "linux")]
impl Drop for EpollBackend {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
        }
    }
}

/// The portable backend: registrations live in a vec, each `wait`
/// rebuilds the `pollfd` array. O(n) per wake where epoll is O(ready) —
/// fine for dev builds and small tests, which is all it serves.
struct PollBackend {
    entries: Vec<(RawFd, u64, bool, bool)>,
    scratch: Vec<sys::PollFd>,
}

impl PollBackend {
    fn new() -> PollBackend {
        PollBackend {
            entries: Vec::new(),
            scratch: Vec::new(),
        }
    }

    fn find(&self, fd: RawFd) -> Option<usize> {
        self.entries.iter().position(|e| e.0 == fd)
    }

    fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        self.scratch.clear();
        for &(fd, _, readable, writable) in &self.entries {
            let mut events = 0;
            if readable {
                events |= sys::POLLIN;
            }
            if writable {
                events |= sys::POLLOUT;
            }
            self.scratch.push(sys::PollFd {
                fd,
                events,
                revents: 0,
            });
        }
        let ms = timeout.map_or(-1, |t| t.as_millis().min(i32::MAX as u128) as i32);
        let n = unsafe {
            sys::poll(
                self.scratch.as_mut_ptr(),
                self.scratch.len() as sys::NfdsT,
                ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        let mut pushed = 0;
        for (i, pfd) in self.scratch.iter().enumerate() {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            out.push(Event {
                token: self.entries[i].1,
                readable: r & sys::POLLIN != 0,
                writable: r & sys::POLLOUT != 0,
                hangup: r & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
            });
            pushed += 1;
        }
        Ok(pushed)
    }
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll(EpollBackend),
    Poll(PollBackend),
}

/// Readiness multiplexer: register descriptors with a `u64` token and an
/// (readable, writable) interest, then [`Poller::wait`] for batches of
/// [`Event`]s. Level-triggered on both backends.
pub struct Poller {
    backend: Backend,
}

impl Poller {
    /// The platform's best backend: epoll on Linux, `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        #[cfg(target_os = "linux")]
        {
            Ok(Poller {
                backend: Backend::Epoll(EpollBackend::new()?),
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            Self::with_poll_backend()
        }
    }

    /// The portable `poll(2)` backend, selectable on any platform — this
    /// is how Linux CI keeps the macOS fallback path compiled *and*
    /// behaviorally tested rather than bit-rotting behind a cfg.
    pub fn with_poll_backend() -> io::Result<Poller> {
        Ok(Poller {
            backend: Backend::Poll(PollBackend::new()),
        })
    }

    /// Name of the active backend (surfaced in `/dcws/status`).
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(_) => "epoll",
            Backend::Poll(_) => "poll",
        }
    }

    /// Start watching `fd` under `token`.
    pub fn register(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.ctl(sys::EPOLL_CTL_ADD, fd, token, readable, writable),
            Backend::Poll(b) => {
                if b.find(fd).is_some() {
                    return Err(io::Error::new(
                        io::ErrorKind::AlreadyExists,
                        "fd already registered",
                    ));
                }
                b.entries.push((fd, token, readable, writable));
                Ok(())
            }
        }
    }

    /// Change the interest set (and token) of a registered `fd`.
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.ctl(sys::EPOLL_CTL_MOD, fd, token, readable, writable),
            Backend::Poll(b) => {
                let i = b
                    .find(fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
                b.entries[i] = (fd, token, readable, writable);
                Ok(())
            }
        }
    }

    /// Stop watching `fd`. Must be called while the descriptor is still
    /// open (epoll requires a live fd for `EPOLL_CTL_DEL`).
    pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.ctl(sys::EPOLL_CTL_DEL, fd, 0, false, false),
            Backend::Poll(b) => {
                let i = b
                    .find(fd)
                    .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
                b.entries.swap_remove(i);
                Ok(())
            }
        }
    }

    /// Append ready events to `out` (which is *not* cleared), waiting up
    /// to `timeout` (`None` = forever). Returns how many were appended;
    /// `0` on timeout or signal interruption.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll(b) => b.wait(out, timeout),
            Backend::Poll(b) => b.wait(out, timeout),
        }
    }
}

// ---------------------------------------------------------------------
// Reactor statistics (the `reactor` section of /dcws/status).
// ---------------------------------------------------------------------

/// Lock-free counters the reactor maintains (the `reactor` section of
/// `/dcws/status`).
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Currently registered client connections (gauge).
    pub registered: AtomicU64,
    /// High-water mark of `registered`.
    pub peak: AtomicU64,
    /// Connections accepted since start.
    pub accepted: AtomicU64,
    /// Accept-loop errors (excluding WouldBlock).
    pub accept_errors: AtomicU64,
    /// Times the listener was paused for hitting `max_reactor_conns`.
    pub accept_pauses: AtomicU64,
    /// Requests answered inline on the reactor thread (read-path hits).
    pub inline_served: AtomicU64,
    /// Requests handed to the spillover worker pool.
    pub spillover_jobs: AtomicU64,
    /// Requests answered `503 Retry-After` because the spillover queue
    /// was full.
    pub spillover_rejected: AtomicU64,
    /// `epoll_wait`/`poll` returns that delivered at least one event.
    pub batches: AtomicU64,
    /// Sum of ready-batch sizes (mean = `batch_events / batches`).
    pub batch_events: AtomicU64,
    /// Largest single ready batch.
    pub batch_max: AtomicU64,
    /// Keep-alive connections closed by the idle sweep (parked past the
    /// configured keep-alive TTL, at a request boundary).
    pub idle_closed: AtomicU64,
    /// Connections closed mid-message by the sweep (slow-loris guard:
    /// a partial head/body older than [`READ_TIMEOUT`]).
    pub timeout_closed: AtomicU64,
    /// `writev(2)` syscalls issued by the vectored flush path.
    pub writev_calls: AtomicU64,
    /// Total iovec segments across those calls (mean segments per call =
    /// `writev_segments / writev_calls`).
    pub writev_segments: AtomicU64,
    /// Response bodies queued as a shared `Arc` segment — no memcpy; the
    /// refcount holds the bytes until the kernel has taken them all.
    pub bodies_zero_copy: AtomicU64,
    /// Response bodies memcpy'd into the out-buffer. No serve path
    /// copies a buffered body, so this audit counter must read zero;
    /// `corepress` gates on it and perfbench reports it.
    pub body_copies: AtomicU64,
}

impl ReactorStats {
    fn note_conn_open(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
        let now = self.registered.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn note_conn_close(&self) {
        self.registered.fetch_sub(1, Ordering::Relaxed);
    }

    fn note_batch(&self, n: usize) {
        if n == 0 {
            return;
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batch_events.fetch_add(n as u64, Ordering::Relaxed);
        self.batch_max.fetch_max(n as u64, Ordering::Relaxed);
    }

    /// The `reactor` status section. `backend` names the poller in use;
    /// ratios are derived here so dashboards don't have to.
    pub fn to_json(&self, backend: &str, queue_depth: usize, queue_cap: usize) -> Json {
        let inline = self.inline_served.load(Ordering::Relaxed);
        let spilled = self.spillover_jobs.load(Ordering::Relaxed);
        let total = inline + spilled;
        let batches = self.batches.load(Ordering::Relaxed);
        let events = self.batch_events.load(Ordering::Relaxed);
        Json::obj(vec![
            ("backend", Json::from(backend)),
            (
                "registered_conns",
                Json::from(self.registered.load(Ordering::Relaxed)),
            ),
            ("peak_conns", Json::from(self.peak.load(Ordering::Relaxed))),
            (
                "accepted",
                Json::from(self.accepted.load(Ordering::Relaxed)),
            ),
            (
                "accept_errors",
                Json::from(self.accept_errors.load(Ordering::Relaxed)),
            ),
            (
                "accept_pauses",
                Json::from(self.accept_pauses.load(Ordering::Relaxed)),
            ),
            ("inline_served", Json::from(inline)),
            (
                "inline_ratio",
                Json::from(if total > 0 {
                    inline as f64 / total as f64
                } else {
                    0.0
                }),
            ),
            (
                "spillover",
                Json::obj(vec![
                    ("jobs", Json::from(spilled)),
                    (
                        "rejected_503",
                        Json::from(self.spillover_rejected.load(Ordering::Relaxed)),
                    ),
                    ("queue_depth", Json::from(queue_depth)),
                    ("queue_capacity", Json::from(queue_cap)),
                ]),
            ),
            (
                "ready_batches",
                Json::obj(vec![
                    ("count", Json::from(batches)),
                    (
                        "mean",
                        Json::from(if batches > 0 {
                            events as f64 / batches as f64
                        } else {
                            0.0
                        }),
                    ),
                    ("max", Json::from(self.batch_max.load(Ordering::Relaxed))),
                ]),
            ),
            (
                "closed",
                Json::obj(vec![
                    (
                        "keepalive_idle",
                        Json::from(self.idle_closed.load(Ordering::Relaxed)),
                    ),
                    (
                        "read_timeout",
                        Json::from(self.timeout_closed.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
            (
                "writes",
                Json::obj(vec![
                    (
                        "writev_calls",
                        Json::from(self.writev_calls.load(Ordering::Relaxed)),
                    ),
                    (
                        "writev_segments",
                        Json::from(self.writev_segments.load(Ordering::Relaxed)),
                    ),
                    (
                        "bodies_zero_copy",
                        Json::from(self.bodies_zero_copy.load(Ordering::Relaxed)),
                    ),
                    (
                        "body_copies",
                        Json::from(self.body_copies.load(Ordering::Relaxed)),
                    ),
                ]),
            ),
        ])
    }

    /// Compact per-shard breakdown appended to the aggregate `reactor`
    /// status section as the `shards` array.
    pub fn shard_json(&self, shard: usize) -> Json {
        Json::obj(vec![
            ("shard", Json::from(shard as u64)),
            (
                "registered_conns",
                Json::from(self.registered.load(Ordering::Relaxed)),
            ),
            ("peak_conns", Json::from(self.peak.load(Ordering::Relaxed))),
            (
                "accepted",
                Json::from(self.accepted.load(Ordering::Relaxed)),
            ),
            (
                "inline_served",
                Json::from(self.inline_served.load(Ordering::Relaxed)),
            ),
            (
                "spillover_jobs",
                Json::from(self.spillover_jobs.load(Ordering::Relaxed)),
            ),
            (
                "writev_calls",
                Json::from(self.writev_calls.load(Ordering::Relaxed)),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Spillover bridge: workers → reactor completions.
// ---------------------------------------------------------------------

/// A finished spillover job travelling back to the reactor.
pub(crate) struct Completion {
    pub token: u64,
    pub method: Method,
    pub keep_alive: bool,
    pub started: Instant,
    pub resp: Response,
    /// Present for large-object serves: the chunked entity producer.
    /// The reactor parks it on the connection as resumable write-state
    /// and refills the output buffer as the socket drains.
    pub stream: Option<StreamBody>,
}

/// Shared between the spillover workers and one reactor shard: completed
/// responses plus the waker that kicks that shard's event loop awake to
/// write them. Also how `DcwsServer::stop` wakes the loops for shutdown,
/// and — under the single-listener hand-off fallback — how shard 0
/// forwards accepted connections to its peers.
pub(crate) struct SpillBridge {
    completions: Mutex<Vec<Completion>>,
    /// Accepted connections handed to this shard by the distributor
    /// (shard 0) when `SO_REUSEPORT` is unavailable. The streams travel
    /// in-process; the waker pipe only signals their arrival.
    handoffs: Mutex<Vec<TcpStream>>,
    /// Write half of the waker pipe (nonblocking; a full pipe means a
    /// wake is already pending, so `WouldBlock` is success).
    waker_tx: UnixStream,
}

impl SpillBridge {
    pub(crate) fn push(&self, c: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(c);
        self.wake();
    }

    fn push_handoff(&self, stream: TcpStream) {
        self.handoffs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(stream);
        self.wake();
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.waker_tx).write(&[1u8]);
    }

    fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn drain_handoffs(&self) -> Vec<TcpStream> {
        std::mem::take(&mut *self.handoffs.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

// ---------------------------------------------------------------------
// Zero-copy output queue.
// ---------------------------------------------------------------------

/// Cap on iovec segments gathered per `writev`: a head + body pair plus
/// a few pipelined successors; IOV_MAX (1024) is never approached.
const MAX_IOVECS: usize = 8;

/// One pending output segment: either bytes the connection owns (heads,
/// error pages, streamed-entity refills) or a shared entity body whose
/// `Arc` refcount pins the cached allocation until the kernel has taken
/// every byte — the serve itself never copies it.
enum Seg {
    Owned(Vec<u8>),
    Shared(dcws_http::Body),
}

impl Seg {
    fn bytes(&self) -> &[u8] {
        match self {
            Seg::Owned(v) => v,
            Seg::Shared(b) => b,
        }
    }
}

/// A connection's pending output: a queue of segments flushed with
/// `writev(2)`, with `offset` marking the already-written prefix of the
/// front segment (partial-write resumption).
#[derive(Default)]
struct OutQueue {
    segs: std::collections::VecDeque<Seg>,
    offset: usize,
    pending: usize,
}

impl OutQueue {
    fn push_owned(&mut self, v: Vec<u8>) {
        if v.is_empty() {
            return;
        }
        self.pending += v.len();
        self.segs.push_back(Seg::Owned(v));
    }

    fn push_shared(&mut self, b: dcws_http::Body) {
        if b.is_empty() {
            return;
        }
        self.pending += b.len();
        self.segs.push_back(Seg::Shared(b));
    }

    fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Fill `iov` with the next unwritten slices (front segment starts
    /// at `offset`); returns how many entries were filled.
    fn gather(&self, iov: &mut [sys::IoVec]) -> usize {
        let mut n = 0;
        for (i, seg) in self.segs.iter().take(iov.len()).enumerate() {
            let b = seg.bytes();
            let b = if i == 0 { &b[self.offset..] } else { b };
            iov[n] = sys::IoVec {
                base: b.as_ptr(),
                len: b.len(),
            };
            n += 1;
        }
        n
    }

    /// Consume `n` written bytes from the front, dropping (and for
    /// `Shared` segments, releasing the `Arc` of) fully-flushed segments.
    fn advance(&mut self, mut n: usize) {
        debug_assert!(n <= self.pending, "advance past pending output");
        self.pending -= n;
        while n > 0 {
            let front_left = self.segs[0].bytes().len() - self.offset;
            if n >= front_left {
                n -= front_left;
                self.offset = 0;
                self.segs.pop_front();
            } else {
                self.offset += n;
                n = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------
// The reactor itself.
// ---------------------------------------------------------------------

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// How often the loop wakes with no events to run the timeout sweep and
/// re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(250);

/// How often the O(conns) timeout sweep actually runs.
const SWEEP_EVERY: Duration = Duration::from_millis(1000);

/// After shutdown is noticed, connections still awaiting spillover
/// results get this long before being force-closed.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Per-connection cap on bytes read per readiness event, so one
/// firehosing client cannot starve the rest of a ready batch
/// (level-triggered polling re-delivers the residue immediately).
const MAX_READ_PER_EVENT: usize = 256 * 1024;

/// Per-connection cap on streamed-entity bytes refilled per flush, so a
/// single Sequoia-class transfer cannot monopolize the event loop
/// (writable interest stays armed while the stream is parked, so the
/// next readiness turn resumes it).
const MAX_WRITE_PER_EVENT: usize = 256 * 1024;

struct ClientConn {
    stream: TcpStream,
    gen: u32,
    mb: crate::conn::MsgBuf,
    /// Pending response segments not yet taken by the kernel, flushed
    /// with `writev` (heads owned, bodies shared zero-copy).
    out: OutQueue,
    /// In-progress streamed entity: refilled into `out` chunk by chunk
    /// as the socket drains, so a 2.8 MB serve never occupies more than
    /// one chunk of reactor memory. While present, reads are paused and
    /// pipelined requests stay buffered — responses keep request order.
    stream_body: Option<StreamBody>,
    /// A spillover job is in flight; reads are paused (interest drops to
    /// hangup-only, giving natural TCP backpressure) and further
    /// pipelined requests stay buffered until the response returns.
    awaiting_spill: bool,
    /// Close once `out` drains (Connection: close, errors, shutdown).
    close_after_flush: bool,
    /// Interest currently registered with the poller.
    reg_readable: bool,
    reg_writable: bool,
    last_activity: Instant,
}

/// Per-shard knobs for [`Reactor::new`], computed once in `spawn_with`.
pub(crate) struct ShardConfig {
    /// This shard's index in `[0, n_shards)`.
    pub shard: usize,
    /// Total reactor shards the server runs.
    pub n_shards: usize,
    /// This shard's registered-connection ceiling. Under `SO_REUSEPORT`
    /// each shard gets an equal slice of `max_reactor_conns`; under
    /// hand-off the distributor caps on the aggregate gauge instead.
    pub max_conns: usize,
    pub keepalive_idle: Duration,
    pub force_poll_backend: bool,
}

pub(crate) struct Reactor {
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
    poller: Poller,
    listener: Option<TcpListener>,
    waker_rx: UnixStream,
    bridge: Arc<SpillBridge>,
    /// Every shard's bridge, indexed by shard id. Non-empty only on the
    /// hand-off distributor (shard 0 without `SO_REUSEPORT`), which
    /// round-robins accepted connections across them.
    peers: Vec<Arc<SpillBridge>>,
    /// This shard's own stat counters; every bump also lands on the
    /// aggregate `shared.reactor` so existing gauges stay whole-server.
    stats: Arc<ReactorStats>,
    shard: usize,
    n_shards: usize,
    /// Round-robin cursor for hand-off distribution.
    rr: usize,
    conns: Vec<Option<ClientConn>>,
    free: Vec<usize>,
    live: usize,
    next_gen: u32,
    max_conns: usize,
    keepalive_idle: Duration,
    accept_paused: bool,
    events: Vec<Event>,
    last_sweep: Instant,
    draining: Option<Instant>,
}

/// Build the waker pair: `rx` lives in the shard's poller, `tx` inside
/// the [`SpillBridge`] handed to workers and `stop()`.
pub(crate) fn spill_bridge() -> io::Result<(Arc<SpillBridge>, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((
        Arc::new(SpillBridge {
            completions: Mutex::new(Vec::new()),
            handoffs: Mutex::new(Vec::new()),
            waker_tx: tx,
        }),
        rx,
    ))
}

impl Reactor {
    #[allow(clippy::too_many_arguments)] // crate-private constructor with one call site
    pub(crate) fn new(
        shared: Arc<Shared>,
        shutdown: Arc<AtomicBool>,
        cfg: ShardConfig,
        listener: Option<TcpListener>,
        bridge: Arc<SpillBridge>,
        peers: Vec<Arc<SpillBridge>>,
        waker_rx: UnixStream,
    ) -> io::Result<Reactor> {
        let mut poller = if cfg.force_poll_backend {
            Poller::with_poll_backend()?
        } else {
            Poller::new()?
        };
        if let Some(listener) = &listener {
            listener.set_nonblocking(true)?;
            poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
        }
        poller.register(waker_rx.as_raw_fd(), WAKER_TOKEN, true, false)?;
        let stats = shared.shard_stats[cfg.shard].clone();
        Ok(Reactor {
            shared,
            shutdown,
            poller,
            listener,
            waker_rx,
            bridge,
            peers,
            stats,
            shard: cfg.shard,
            n_shards: cfg.n_shards.max(1),
            rr: 0,
            conns: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_gen: 1,
            max_conns: cfg.max_conns.max(1),
            keepalive_idle: cfg.keepalive_idle,
            accept_paused: false,
            events: Vec::new(),
            last_sweep: Instant::now(),
            draining: None,
        })
    }

    /// True on the shard that owns the lone listener and forwards
    /// accepted connections to its peers (`SO_REUSEPORT` unavailable).
    fn distributes(&self) -> bool {
        self.n_shards > 1 && !self.peers.is_empty()
    }

    pub(crate) fn backend_name(&self) -> &'static str {
        self.poller.backend_name()
    }

    /// Apply a counter update to both this shard's stats and the
    /// whole-server aggregate, so existing gauges (and tests) keep their
    /// meaning while `/dcws/status` gains the per-shard breakdown.
    fn bump(&self, f: impl Fn(&ReactorStats)) {
        f(&self.shared.reactor);
        f(&self.stats);
    }

    /// The event loop. Returns when shutdown has drained (or timed out).
    pub(crate) fn run(&mut self) {
        while !self.poll_once(TICK) {}
        // Whatever remains gets a hard close so fds don't linger.
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
    }

    /// One loop turn: wait for readiness, dispatch, run completions and
    /// the timeout sweep. Returns `true` when the loop should exit.
    ///
    /// Every turn asserts the engine lock is not held: the reactor must
    /// stay lock-free or one engine critical section would head-of-line
    /// block every registered connection (regression-tested in this
    /// module — an engine-locked callback in the loop panics in debug
    /// builds).
    pub(crate) fn poll_once(&mut self, timeout: Duration) -> bool {
        assert_engine_unlocked("reactor event loop");
        self.events.clear();
        let n = self
            .poller
            .wait(&mut self.events, Some(timeout))
            .unwrap_or_default();
        self.bump(|s| s.note_batch(n));
        let events = std::mem::take(&mut self.events);
        for ev in &events {
            match ev.token {
                LISTENER_TOKEN => self.accept_burst(),
                WAKER_TOKEN => self.drain_waker(),
                token => self.handle_conn_event(token, ev.readable, ev.writable, ev.hangup),
            }
        }
        self.events = events;
        // Hand-off adoption and completions can land while we were
        // dispatching; drain both unconditionally (cheap when empty).
        self.adopt_handoffs();
        self.run_completions();
        if self.last_sweep.elapsed() >= SWEEP_EVERY {
            self.sweep_timeouts();
            self.last_sweep = Instant::now();
        }
        // A paused distributor must notice peers draining conns it never
        // sees close; re-check occupancy every turn while paused.
        if self.accept_paused {
            self.maybe_resume_accept();
        }
        if self.shutdown.load(Ordering::Relaxed) {
            return self.drive_shutdown();
        }
        false
    }

    // -- accept path ---------------------------------------------------

    /// Registered-connection occupancy the accept cap applies to: this
    /// shard's own slab with a per-shard listener, the whole-server
    /// aggregate when this shard distributes accepts to its peers.
    fn occupancy(&self) -> usize {
        if self.distributes() {
            self.shared.reactor.registered.load(Ordering::Relaxed) as usize
        } else {
            self.live
        }
    }

    fn accept_burst(&mut self) {
        loop {
            if self.occupancy() >= self.max_conns {
                self.pause_accept();
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if self.distributes() {
                        // Hand-off fallback: spread accepted connections
                        // round-robin; peers adopt them on their next
                        // waker wake.
                        let target = self.rr % self.n_shards;
                        self.rr = self.rr.wrapping_add(1);
                        if target != self.shard {
                            self.peers[target].push_handoff(stream);
                            continue;
                        }
                    }
                    self.register_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.bump(|s| {
                        s.accept_errors.fetch_add(1, Ordering::Relaxed);
                    });
                    return;
                }
            }
        }
    }

    /// Register connections a distributing peer handed to this shard.
    fn adopt_handoffs(&mut self) {
        if self.n_shards == 1 {
            return;
        }
        for stream in self.bridge.drain_handoffs() {
            if self.draining.is_some() {
                // Mid-shutdown adoptions close immediately — the drain
                // already passed its request-boundary sweep.
                drop(stream);
                continue;
            }
            self.register_conn(stream);
        }
    }

    fn pause_accept(&mut self) {
        if self.accept_paused {
            return;
        }
        if let Some(listener) = &self.listener {
            let _ = self.poller.deregister(listener.as_raw_fd());
            self.accept_paused = true;
            self.bump(|s| {
                s.accept_pauses.fetch_add(1, Ordering::Relaxed);
            });
        }
    }

    fn maybe_resume_accept(&mut self) {
        if !self.accept_paused || self.draining.is_some() {
            return;
        }
        // Re-arm below 90% of the cap so the listener doesn't flap
        // on/off around the boundary.
        if self.occupancy() < self.max_conns - self.max_conns / 10 {
            if let Some(listener) = &self.listener {
                if self
                    .poller
                    .register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)
                    .is_ok()
                {
                    self.accept_paused = false;
                }
            }
        }
    }

    fn register_conn(&mut self, stream: TcpStream) {
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1).max(1);
        let conn = ClientConn {
            stream,
            gen,
            mb: crate::conn::MsgBuf::new(),
            out: OutQueue::default(),
            stream_body: None,
            awaiting_spill: false,
            close_after_flush: false,
            reg_readable: true,
            reg_writable: false,
            last_activity: Instant::now(),
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.conns[i] = Some(conn);
                i
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let token = pack_token(idx, gen);
        let fd = self.conns[idx].as_ref().unwrap().stream.as_raw_fd();
        if self.poller.register(fd, token, true, false).is_err() {
            self.conns[idx] = None;
            self.free.push(idx);
            return;
        }
        self.live += 1;
        self.bump(ReactorStats::note_conn_open);
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        drop(conn);
        self.free.push(idx);
        self.live -= 1;
        self.bump(ReactorStats::note_conn_close);
        self.maybe_resume_accept();
    }

    // -- per-connection I/O --------------------------------------------

    fn conn_at(&mut self, token: u64) -> Option<usize> {
        let (idx, gen) = unpack_token(token);
        match self.conns.get(idx) {
            Some(Some(c)) if c.gen == gen => Some(idx),
            _ => None,
        }
    }

    fn handle_conn_event(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        let Some(idx) = self.conn_at(token) else {
            return;
        };
        if writable && !self.flush(idx) {
            return;
        }
        if readable && !self.fill(idx) {
            return;
        }
        if hangup && !readable && !writable {
            // Pure error/hangup with nothing to read: the kernel says
            // this connection is done.
            self.close_conn(idx);
            return;
        }
        self.update_interest(idx);
    }

    /// Read until WouldBlock (bounded), then serve every complete
    /// request. Returns `false` if the connection was closed.
    fn fill(&mut self, idx: usize) -> bool {
        let mut read_bytes = 0usize;
        loop {
            let conn = self.conns[idx].as_mut().unwrap();
            if conn.awaiting_spill || conn.close_after_flush || conn.stream_body.is_some() {
                // Paused: leave bytes in the kernel buffer (TCP
                // backpressure) until the spill completes or the
                // in-progress streamed response finishes.
                return true;
            }
            match conn.mb.fill_from(&mut conn.stream) {
                Ok(0) => {
                    // EOF. Anything buffered mid-message is an aborted
                    // request; either way the conversation is over once
                    // pending output drains.
                    if !conn.out.is_empty() {
                        conn.close_after_flush = true;
                        return true;
                    }
                    self.close_conn(idx);
                    return false;
                }
                Ok(n) => {
                    conn.last_activity = Instant::now();
                    read_bytes += n;
                    if !self.process_buffered(idx) {
                        return false;
                    }
                    if read_bytes >= MAX_READ_PER_EVENT {
                        // Fairness cap: level-triggered readiness will
                        // re-deliver this connection next turn.
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return false;
                }
            }
        }
    }

    /// Serve every complete request sitting in the buffer. Returns
    /// `false` if the connection was closed.
    fn process_buffered(&mut self, idx: usize) -> bool {
        loop {
            let conn = self.conns[idx].as_mut().unwrap();
            if conn.awaiting_spill || conn.close_after_flush || conn.stream_body.is_some() {
                return true;
            }
            match conn.mb.try_extract_request() {
                Ok(Some(req)) => {
                    if !self.handle_request(idx, req) {
                        return false;
                    }
                }
                Ok(None) => return true,
                Err(_) => {
                    // Unparseable request: answer 400 and close once
                    // written (framing is unrecoverable).
                    let resp = Response::new(dcws_http::StatusCode::BadRequest);
                    let conn = self.conns[idx].as_mut().unwrap();
                    conn.out.push_owned(resp.to_bytes_for(false));
                    conn.close_after_flush = true;
                    return self.flush(idx);
                }
            }
        }
    }

    /// Route one parsed request: inline read-path serve, or spillover.
    /// Returns `false` if the connection was closed.
    fn handle_request(&mut self, idx: usize, req: dcws_http::Request) -> bool {
        let started = Instant::now();
        let closing = self.shutdown.load(Ordering::Relaxed);
        let keep_alive = !closing
            && req.version == dcws_http::Version::Http11
            && !req
                .headers
                .get("Connection")
                .is_some_and(|c| c.eq_ignore_ascii_case("close"));
        let method = req.method;
        // Fast path: prebuilt route, warm co-op copy, or ready 301 —
        // answered on this thread with zero locks and zero body copies.
        // Everything else (misses, non-GET, inter-server verbs,
        // /dcws/*) needs the engine and spills to the worker pool; the
        // reactor thread itself never takes the engine lock.
        if let Some(resp) = self.shared.read.try_serve(&req, self.shared.now_ms()) {
            self.bump(|s| {
                s.inline_served.fetch_add(1, Ordering::Relaxed);
            });
            return self.queue_response(idx, resp, None, method, keep_alive, started);
        }
        let token = pack_token(idx, self.conns[idx].as_ref().unwrap().gen);
        let job = SpillJob {
            token,
            shard: self.shard,
            req,
            keep_alive,
            started,
        };
        match self.shared.queue.try_push(job) {
            Ok(()) => {
                self.bump(|s| {
                    s.spillover_jobs.fetch_add(1, Ordering::Relaxed);
                });
                let conn = self.conns[idx].as_mut().unwrap();
                conn.awaiting_spill = true;
                true
            }
            Err(_) => {
                // Spillover full: the explicit 503 + Retry-After rung of
                // the backpressure ladder. The connection stays alive —
                // this is a graceful drop, not a slammed socket.
                self.bump(|s| {
                    s.spillover_rejected.fetch_add(1, Ordering::Relaxed);
                });
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
                let resp = Response::service_unavailable(RETRY_AFTER_SECS);
                self.queue_response(idx, resp, None, method, keep_alive, started)
            }
        }
    }

    /// Serialize `resp` onto the connection's output buffer and flush as
    /// far as the socket allows. A streamed entity (`stream`) parks on
    /// the connection and is refilled chunk by chunk as the socket
    /// drains. Returns `false` if the connection was closed.
    fn queue_response(
        &mut self,
        idx: usize,
        mut resp: Response,
        stream: Option<StreamBody>,
        method: Method,
        keep_alive: bool,
        started: Instant,
    ) -> bool {
        let closing = self.shutdown.load(Ordering::Relaxed);
        if closing {
            // Shutdown must break keep-alive at a request boundary, or
            // parked clients (and peers' pooled connections) would
            // never let the reactor drain.
            resp = resp.with_header("Connection", "close");
        }
        let head_only = method == Method::Head;
        let with_body = !head_only && !resp.status.bodyless() && !resp.body.is_empty();
        let streamed = stream.is_some();
        let conn = self.conns[idx].as_mut().unwrap();
        match stream {
            Some(body) if !head_only && !resp.status.bodyless() => {
                // Head now, entity incrementally: the first chunk leaves
                // on this flush, the rest as the socket drains.
                conn.out.push_owned(resp.head_bytes());
                conn.stream_body = Some(body);
            }
            // Buffered entity: head as an owned segment, body as a
            // shared one — the serve is an `Arc` refcount bump, and the
            // bytes leave user space exactly once, via `writev`. (HEAD
            // and bodyless statuses queue the head alone.)
            _ => {
                conn.out.push_owned(resp.head_bytes());
                if with_body {
                    conn.out.push_shared(resp.body.clone());
                }
            }
        }
        if !keep_alive || closing {
            conn.close_after_flush = true;
        }
        if with_body && !streamed {
            self.bump(|s| {
                s.bodies_zero_copy.fetch_add(1, Ordering::Relaxed);
            });
        }
        self.shared.metrics.service_time.record(started.elapsed());
        if !self.flush(idx) {
            return false;
        }
        if self.conns[idx].is_some() {
            self.update_interest(idx);
        }
        self.conns[idx].is_some()
    }

    /// Write pending output until done or WouldBlock, refilling from any
    /// parked streamed entity (bounded per call, so one large transfer
    /// cannot monopolize the loop). Returns `false` if the connection
    /// was closed.
    ///
    /// The write syscall is `writev(2)` over the segment queue: head and
    /// body leave in one gather, a partial write advances the queue's
    /// front offset, and the next writable event resumes mid-segment.
    fn flush(&mut self, idx: usize) -> bool {
        let mut refilled = 0usize;
        let mut stream_finished = false;
        loop {
            // Drain the segment queue.
            loop {
                let conn = self.conns[idx].as_mut().unwrap();
                if conn.out.is_empty() {
                    break;
                }
                let mut iov = [sys::IoVec {
                    base: std::ptr::null(),
                    len: 0,
                }; MAX_IOVECS];
                let cnt = conn.out.gather(&mut iov);
                let fd = conn.stream.as_raw_fd();
                // SAFETY: each iovec points into a segment owned by
                // `conn.out`, which is not touched until `advance` below.
                let n = unsafe { sys::writev(fd, iov.as_ptr(), cnt as std::os::raw::c_int) };
                if n > 0 {
                    conn.out.advance(n as usize);
                    conn.last_activity = Instant::now();
                    self.bump(|s| {
                        s.writev_calls.fetch_add(1, Ordering::Relaxed);
                        s.writev_segments.fetch_add(cnt as u64, Ordering::Relaxed);
                    });
                } else if n == 0 {
                    self.close_conn(idx);
                    return false;
                } else {
                    let err = io::Error::last_os_error();
                    match err.kind() {
                        io::ErrorKind::WouldBlock => return true,
                        io::ErrorKind::Interrupted => continue,
                        _ => {
                            self.close_conn(idx);
                            return false;
                        }
                    }
                }
            }
            let conn = self.conns[idx].as_mut().unwrap();
            if let Some(body) = conn.stream_body.as_mut() {
                if refilled >= MAX_WRITE_PER_EVENT {
                    // Fairness cap: writable interest stays armed (the
                    // stream is still parked), so level-triggered
                    // readiness resumes this transfer next turn.
                    return true;
                }
                // Batch chunks up to the per-event budget into one owned
                // segment, so the writev above covers the whole refill
                // instead of one 64 KiB piece each.
                let mut batch = Vec::new();
                let mut chunk = vec![0u8; STREAM_CHUNK];
                loop {
                    match body.read_chunk(&mut chunk) {
                        Ok(0) => {
                            conn.stream_body = None;
                            stream_finished = true;
                            break;
                        }
                        Ok(n) => {
                            refilled += n;
                            batch.extend_from_slice(&chunk[..n]);
                            if refilled >= MAX_WRITE_PER_EVENT {
                                break;
                            }
                        }
                        Err(_) => {
                            // The Content-Length framing is already on
                            // the wire; a dry source is unrecoverable.
                            self.close_conn(idx);
                            return false;
                        }
                    }
                }
                let conn = self.conns[idx].as_mut().unwrap();
                conn.out.push_owned(batch);
                if !conn.out.is_empty() {
                    continue;
                }
            }
            if self.conns[idx].as_ref().unwrap().close_after_flush {
                self.close_conn(idx);
                return false;
            }
            break;
        }
        if stream_finished {
            // Reads were paused while the entity streamed; pipelined
            // requests may already sit parsed in the buffer — serve
            // them now (a readable event won't fire for them).
            return self.process_buffered(idx);
        }
        true
    }

    /// Reconcile the poller's interest set with the connection's state:
    /// readable unless paused for spillover/stream/close, writable while
    /// output (buffered or streamed) is pending.
    fn update_interest(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        let want_read =
            !conn.awaiting_spill && !conn.close_after_flush && conn.stream_body.is_none();
        let want_write = !conn.out.is_empty() || conn.stream_body.is_some();
        if want_read == conn.reg_readable && want_write == conn.reg_writable {
            return;
        }
        let token = pack_token(idx, conn.gen);
        let fd = conn.stream.as_raw_fd();
        conn.reg_readable = want_read;
        conn.reg_writable = want_write;
        if self
            .poller
            .modify(fd, token, want_read, want_write)
            .is_err()
        {
            self.close_conn(idx);
        }
    }

    // -- spillover completions -----------------------------------------

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut sink) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: fully drained
            }
        }
    }

    fn run_completions(&mut self) {
        let done = self.bridge.drain();
        for c in done {
            let Some(idx) = self.conn_at(c.token) else {
                // The connection died while its job was in flight; the
                // generation check keeps the response from landing on a
                // recycled slot.
                continue;
            };
            self.conns[idx].as_mut().unwrap().awaiting_spill = false;
            if !self.queue_response(idx, c.resp, c.stream, c.method, c.keep_alive, c.started) {
                continue;
            }
            // Reads were paused while the job ran; pipelined requests
            // may already be buffered — serve them now.
            if self.process_buffered(idx) && self.conns[idx].is_some() {
                self.update_interest(idx);
            }
        }
    }

    // -- timeouts and shutdown -----------------------------------------

    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            if conn.awaiting_spill {
                continue; // the worker owns the clock here
            }
            let idle = now.duration_since(conn.last_activity);
            if conn.mb.mid_message() || !conn.out.is_empty() || conn.stream_body.is_some() {
                // Mid-request (slow loris) or mid-response (dead
                // reader): same budget a blocking worker's socket
                // timeout would have enforced.
                if idle >= READ_TIMEOUT {
                    self.bump(|s| {
                        s.timeout_closed.fetch_add(1, Ordering::Relaxed);
                    });
                    self.close_conn(idx);
                }
            } else if idle >= self.keepalive_idle {
                // Parked at a request boundary past the keep-alive TTL.
                self.bump(|s| {
                    s.idle_closed.fetch_add(1, Ordering::Relaxed);
                });
                self.close_conn(idx);
            }
        }
    }

    /// Progress the drain; returns `true` once the loop should exit.
    fn drive_shutdown(&mut self) -> bool {
        if self.draining.is_none() {
            self.draining = Some(Instant::now());
            // Stop accepting for good.
            if !self.accept_paused {
                if let Some(l) = &self.listener {
                    let _ = self.poller.deregister(l.as_raw_fd());
                }
            }
            self.listener = None;
            // Request-boundary drain: anything idle closes now;
            // anything mid-exchange finishes its current response
            // (queue_response adds `Connection: close` under shutdown).
            for idx in 0..self.conns.len() {
                let Some(conn) = self.conns[idx].as_ref() else {
                    continue;
                };
                if !conn.awaiting_spill && conn.out.is_empty() {
                    self.close_conn(idx);
                }
            }
        }
        if self.live == 0 {
            return true;
        }
        if self.draining.is_some_and(|t| t.elapsed() >= DRAIN_DEADLINE) {
            for idx in 0..self.conns.len() {
                self.close_conn(idx);
            }
            return true;
        }
        false
    }
}

fn pack_token(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn unpack_token(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::NetConfig;
    use dcws_core::{MemStore, ServerConfig, ServerEngine};
    use dcws_graph::ServerId;

    fn test_engine() -> ServerEngine {
        ServerEngine::new(
            ServerId::new("127.0.0.1:1"),
            ServerConfig::paper_defaults(),
            Box::new(MemStore::new()),
        )
    }

    fn shard_cfg(shard: usize, n_shards: usize) -> ShardConfig {
        ShardConfig {
            shard,
            n_shards,
            max_conns: 1024,
            keepalive_idle: Duration::from_secs(60),
            force_poll_backend: false,
        }
    }

    fn test_reactor() -> (Arc<Shared>, Reactor) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut net = NetConfig::new(Duration::from_millis(1000));
        net.reactor_shards = 1;
        let shared = Shared::build(test_engine(), &net, addr);
        let (bridge, waker_rx) = spill_bridge().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let reactor = Reactor::new(
            shared.clone(),
            shutdown,
            shard_cfg(0, 1),
            Some(listener),
            bridge,
            Vec::new(),
            waker_rx,
        )
        .unwrap();
        (shared, reactor)
    }

    /// The event loop's lock discipline is load-bearing: a callback that
    /// leaves the engine locked would head-of-line block every
    /// registered connection, so the loop checkpoint must catch it
    /// before the next wait. (Regression test for the in-loop
    /// `assert_engine_unlocked`.)
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "engine lock held across socket I/O")]
    fn engine_locked_loop_turn_panics_in_debug() {
        let (shared, mut reactor) = test_reactor();
        let _guard = shared.engine.lock(); // a leaked in-loop lock
        reactor.poll_once(Duration::from_millis(0));
    }

    /// Both backends deliver readable/writable events for a socket pair.
    #[test]
    fn poller_backends_deliver_events() {
        let make: [fn() -> io::Result<Poller>; 2] = [Poller::new, Poller::with_poll_backend];
        for poller_fn in make {
            let mut poller = poller_fn().unwrap();
            let (mut a, b) = UnixStream::pair().unwrap();
            b.set_nonblocking(true).unwrap();
            poller.register(b.as_raw_fd(), 7, true, true).unwrap();
            let mut events = Vec::new();
            // Fresh socket: writable, not readable.
            poller
                .wait(&mut events, Some(Duration::from_millis(100)))
                .unwrap();
            assert!(events
                .iter()
                .any(|e| e.token == 7 && e.writable && !e.readable));
            // After peer writes: readable too.
            a.write_all(b"x").unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 7 && e.readable));
            // Read-only interest after modify.
            poller.modify(b.as_raw_fd(), 7, true, false).unwrap();
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(events.iter().all(|e| !e.writable));
            // Hangup is delivered even with empty interest.
            poller.modify(b.as_raw_fd(), 7, false, false).unwrap();
            drop(a);
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_millis(1000)))
                .unwrap();
            assert!(
                events.iter().any(|e| e.token == 7 && e.hangup),
                "hangup must be delivered without registered interest"
            );
            poller.deregister(b.as_raw_fd()).unwrap();
        }
    }

    #[test]
    fn token_packing_round_trips() {
        // The reserved tokens correspond to slab indices ≥ 2^32 − 2,
        // which `max_reactor_conns` keeps unreachable; any realistic
        // (idx, gen) must round-trip and stay clear of them.
        for (idx, gen) in [(0usize, 1u32), (42, 7), (1_000_000, u32::MAX)] {
            let t = pack_token(idx, gen);
            assert_eq!(unpack_token(t), (idx, gen));
            assert_ne!(t, LISTENER_TOKEN);
            assert_ne!(t, WAKER_TOKEN);
        }
    }

    /// `OutQueue` bookkeeping across partial writes: `gather` must slice
    /// the front segment at `offset`, and `advance` must release
    /// fully-flushed segments while preserving byte accounting.
    #[test]
    fn out_queue_partial_write_resumption() {
        let mut q = OutQueue::default();
        q.push_owned(b"HEAD".to_vec());
        q.push_shared(dcws_http::Body::from(b"BODYBODY".to_vec()));
        q.push_owned(Vec::new()); // empty segments are skipped
        assert_eq!(q.pending, 12);

        let mut iov = [sys::IoVec {
            base: std::ptr::null(),
            len: 0,
        }; MAX_IOVECS];
        assert_eq!(q.gather(&mut iov), 2);
        assert_eq!(iov[0].len, 4);
        assert_eq!(iov[1].len, 8);

        // Kernel took the head plus two body bytes.
        q.advance(6);
        assert_eq!(q.pending, 6);
        let n = q.gather(&mut iov);
        assert_eq!(n, 1);
        assert_eq!(iov[0].len, 6);
        let resumed = unsafe { std::slice::from_raw_parts(iov[0].base, iov[0].len) };
        assert_eq!(resumed, b"DYBODY");

        // Drain the rest: queue empty, offset reset, no segments held
        // (a fully-flushed `Shared` segment releases its `Arc` here).
        q.advance(6);
        assert!(q.is_empty());
        assert_eq!(q.gather(&mut iov), 0);
        assert!(q.segs.is_empty(), "flushed segments must be released");
    }

    /// A completion carrying shard A's token posted to shard B's bridge
    /// must be dropped by B's generation/slot check — never written to
    /// an unrelated connection, never resurrecting a vacant slot.
    #[test]
    fn cross_shard_completion_never_resurrects() {
        let listener_a = TcpListener::bind("127.0.0.1:0").unwrap();
        let listener_b = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr_a = listener_a.local_addr().unwrap();
        let mut net = NetConfig::new(Duration::from_millis(1000));
        net.reactor_shards = 2;
        let shared = Shared::build(test_engine(), &net, addr_a);
        let shutdown = Arc::new(AtomicBool::new(false));
        let (bridge_a, waker_a) = spill_bridge().unwrap();
        let (bridge_b, waker_b) = spill_bridge().unwrap();
        let mut shard_a = Reactor::new(
            shared.clone(),
            shutdown.clone(),
            shard_cfg(0, 2),
            Some(listener_a),
            bridge_a,
            Vec::new(),
            waker_a,
        )
        .unwrap();
        let mut shard_b = Reactor::new(
            shared.clone(),
            shutdown,
            shard_cfg(1, 2),
            Some(listener_b),
            bridge_b.clone(),
            Vec::new(),
            waker_b,
        )
        .unwrap();

        // A client lands on shard A and gets a slab slot + token there.
        let client = TcpStream::connect(addr_a).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while shard_a.live == 0 && Instant::now() < deadline {
            shard_a.poll_once(Duration::from_millis(10));
        }
        assert_eq!(shard_a.live, 1, "shard A must have accepted the client");
        let (idx, conn) = shard_a
            .conns
            .iter()
            .enumerate()
            .find_map(|(i, c)| c.as_ref().map(|c| (i, c)))
            .unwrap();
        let token = pack_token(idx, conn.gen);

        // Misroute a completion for that token to shard B.
        bridge_b.push(Completion {
            token,
            method: Method::Get,
            keep_alive: true,
            started: Instant::now(),
            resp: Response::ok(b"misrouted".to_vec(), "text/plain"),
            stream: None,
        });
        shard_b.poll_once(Duration::from_millis(10));
        assert_eq!(shard_b.live, 0, "shard B must not materialize a conn");
        assert!(
            shard_b.conns.iter().all(|c| c.is_none()),
            "no slot on shard B may be resurrected by a foreign token"
        );

        // The response must not have leaked onto shard A's client either.
        shard_a.poll_once(Duration::from_millis(10));
        client
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut buf = [0u8; 64];
        use std::io::Read as _;
        match (&client).read(&mut buf) {
            Ok(n) => panic!("client unexpectedly received {n} bytes"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "expected read timeout, got {e:?}"
            ),
        }
    }

    /// A streamed entity whose source runs dry before `Content-Length`
    /// bytes: the head is already committed, so the reactor must close
    /// the connection (never park it waiting for bytes that will not
    /// come), and the client must see EOF short of the framed length.
    #[test]
    fn dry_stream_source_closes_connection_short_of_content_length() {
        const CLAIMED: usize = 4096;
        const ACTUAL: usize = 100;
        let (_shared, mut reactor) = test_reactor();
        let addr = reactor.listener.as_ref().unwrap().local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(2);
        while reactor.live == 0 && Instant::now() < deadline {
            reactor.poll_once(Duration::from_millis(10));
        }
        assert_eq!(reactor.live, 1, "reactor must have accepted the client");
        let idx = reactor.conns.iter().position(Option::is_some).unwrap();

        let mut resp = Response::ok(Vec::new(), "application/octet-stream");
        resp.headers
            .set("Content-Length", CLAIMED.to_string())
            .unwrap();
        let short = std::io::Cursor::new(vec![0x5au8; ACTUAL]);
        let body = StreamBody::new(Box::new(short), CLAIMED as u64);
        let alive =
            reactor.queue_response(idx, resp, Some(body), Method::Get, true, Instant::now());
        assert!(!alive, "a dry source must close the connection");
        assert_eq!(reactor.live, 0, "the slot must be released, not parked");
        assert!(reactor.conns[idx].is_none());

        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut wire = Vec::new();
        client.read_to_end(&mut wire).expect("EOF, not a timeout");
        let head_end = wire
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head was written before the source ran dry")
            + 4;
        let head = String::from_utf8_lossy(&wire[..head_end]);
        assert!(
            head.contains(&format!("Content-Length: {CLAIMED}")),
            "{head}"
        );
        assert!(
            wire.len() - head_end < CLAIMED,
            "client must see EOF short of Content-Length"
        );
    }

    #[test]
    fn nofile_limit_reports_something() {
        // Must not panic and must report a sane limit on any platform.
        let lim = raise_nofile_limit(1024);
        assert!(lim >= 256, "soft fd limit {lim} suspiciously low");
    }
}
