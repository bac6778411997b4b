//! The open-loop load generator's connection driver.
//!
//! One generator thread owns a few keep-alive connections and pipelines
//! requests on them: a request leaves when it is due, whether or not
//! earlier responses have come back, so a slow server cannot slow the
//! offered load (no coordinated omission). Responses return in request
//! order per connection (HTTP/1.1 pipelining) and are framed with the
//! servers' own `MsgBuf`. The thread sleeps in `ppoll(2)`, whose
//! timeout has nanosecond resolution, until the next request is due or
//! a socket is ready.

use dcws_http::{Method, Response};
use dcws_net::MsgBuf;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// The run's monotonic time base; every timestamp is ns since it.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock started.
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// A request to put on the wire.
#[derive(Debug)]
pub struct Outgoing {
    /// Index into the driver's connection list.
    pub conn: usize,
    /// The request's wire bytes.
    pub wire: Vec<u8>,
    /// The source's handle for the reply.
    pub token: usize,
    /// Request method (frames the response).
    pub method: Method,
}

/// A response handed back to the source.
#[derive(Debug)]
pub struct Reply {
    /// The token of the request it answers.
    pub token: usize,
    /// The parsed response.
    pub resp: Response,
    /// When the request was handed to the connection.
    pub sent_ns: u64,
    /// When the first byte of this response arrived.
    pub first_ns: u64,
    /// When its last byte arrived.
    pub done_ns: u64,
}

/// A workload's request stream, driven by [`drive`].
pub trait Source {
    /// When the next scheduled request is due, if any remain.
    fn next_due(&self) -> Option<u64>;
    /// Outgoing every request due at or before `now` into `out`; returns
    /// how many were found due (the generator backlog at this instant).
    fn take_due(&mut self, now: u64, out: &mut Vec<Outgoing>) -> usize;
    /// A response arrived; follow-up requests (redirect hops, the next
    /// step of a session) go into `out`.
    fn on_reply(&mut self, reply: Reply, out: &mut Vec<Outgoing>);
    /// The request behind `token` failed at the connection level
    /// (reset, malformed response, or still unanswered at the deadline).
    fn on_error(&mut self, token: usize, now: u64, out: &mut Vec<Outgoing>);
}

/// Generator-side health over one [`drive`] call.
#[derive(Debug, Default, Clone, Copy)]
pub struct DriveStats {
    /// Most requests found due at one wake-up.
    pub backlog_max: usize,
}

struct Inflight {
    token: usize,
    method: Method,
    sent_ns: u64,
    first_ns: Option<u64>,
}

struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    mb: MsgBuf,
    out: Vec<u8>,
    out_pos: usize,
    inflight: VecDeque<Inflight>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            mb: MsgBuf::new(),
            out: Vec::new(),
            out_pos: 0,
            inflight: VecDeque::new(),
        }
    }

    fn ensure_open(&mut self) -> io::Result<()> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            self.stream = Some(s);
            self.mb.reset();
        }
        Ok(())
    }

    /// Write as much of the out-buffer as the socket takes now.
    fn flush(&mut self) -> io::Result<()> {
        let Some(s) = self.stream.as_mut() else {
            return Ok(());
        };
        while self.out_pos < self.out.len() {
            match s.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(())
    }

    /// Drop the socket and hand back every request still on it.
    fn fail(&mut self) -> Vec<usize> {
        self.stream = None;
        self.mb.reset();
        self.out.clear();
        self.out_pos = 0;
        self.inflight.drain(..).map(|f| f.token).collect()
    }
}

/// Drive `src` over connections to `addrs` until nothing is scheduled
/// and nothing is in flight, or until `deadline_ns`, when whatever is
/// still unanswered fails.
pub fn drive(
    addrs: &[SocketAddr],
    clock: &Clock,
    src: &mut dyn Source,
    deadline_ns: u64,
) -> DriveStats {
    let mut conns: Vec<Conn> = addrs.iter().map(|&a| Conn::new(a)).collect();
    let mut stats = DriveStats::default();
    let mut outgoing: Vec<Outgoing> = Vec::new();
    let mut failed: Vec<usize> = Vec::new();
    loop {
        let now = clock.now();
        stats.backlog_max = stats.backlog_max.max(src.take_due(now, &mut outgoing));
        // Enqueue, flush and read until no follow-up is produced.
        loop {
            for is in outgoing.drain(..) {
                let c = &mut conns[is.conn];
                if c.ensure_open().is_err() {
                    failed.push(is.token);
                    continue;
                }
                c.out.extend_from_slice(&is.wire);
                c.inflight.push_back(Inflight {
                    token: is.token,
                    method: is.method,
                    sent_ns: clock.now(),
                    first_ns: None,
                });
            }
            for c in conns.iter_mut() {
                if c.flush().is_err() {
                    failed.extend(c.fail());
                }
                if c.stream.is_some() && read_replies(c, clock, src, &mut outgoing).is_err() {
                    failed.extend(c.fail());
                }
            }
            let now = clock.now();
            for token in failed.drain(..) {
                src.on_error(token, now, &mut outgoing);
            }
            if outgoing.is_empty() {
                break;
            }
        }
        let now = clock.now();
        let in_flight = conns.iter().any(|c| !c.inflight.is_empty());
        let next = src.next_due();
        if next.is_none() && !in_flight {
            break;
        }
        if now >= deadline_ns {
            for c in conns.iter_mut() {
                failed.extend(c.fail());
            }
            for token in failed.drain(..) {
                src.on_error(token, now, &mut outgoing);
            }
            break;
        }
        // Sleep until the next due request (at most 5 ms, so the
        // deadline is noticed) or until a socket is ready.
        let mut wait = next
            .map_or(5_000_000, |d| d.saturating_sub(now))
            .min(5_000_000);
        wait = wait.min(deadline_ns - now);
        if wait > 0 {
            wait_ready(&conns, wait);
        }
    }
    stats
}

/// Bytes read from one connection before the driver goes back to
/// issuing due requests: a multi-megabyte body must not hold up the
/// schedule while it streams in.
const READ_BUDGET: usize = 256 * 1024;

/// Read what the socket has (up to [`READ_BUDGET`]) and hand complete
/// responses to `src`.
fn read_replies(
    c: &mut Conn,
    clock: &Clock,
    src: &mut dyn Source,
    out: &mut Vec<Outgoing>,
) -> io::Result<()> {
    let mut budget = READ_BUDGET;
    loop {
        if budget == 0 {
            return Ok(());
        }
        let stream = c.stream.as_mut().expect("open connection");
        match c.mb.fill_from(stream) {
            Ok(0) => {
                return Err(io::Error::from(io::ErrorKind::UnexpectedEof));
            }
            Ok(n) => budget = budget.saturating_sub(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
        let now = clock.now();
        loop {
            let Some(head) = c.inflight.front_mut() else {
                if c.mb.buffered() > 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unsolicited bytes",
                    ));
                }
                break;
            };
            if head.first_ns.is_none() && c.mb.buffered() > 0 {
                head.first_ns = Some(now);
            }
            match c.mb.try_extract_response(head.method)? {
                Some(resp) => {
                    let f = c.inflight.pop_front().expect("head exists");
                    src.on_reply(
                        Reply {
                            token: f.token,
                            resp,
                            sent_ns: f.sent_ns,
                            first_ns: f.first_ns.unwrap_or(now),
                            done_ns: now,
                        },
                        out,
                    );
                }
                None => break,
            }
        }
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

#[cfg(target_os = "linux")]
fn wait_ready(conns: &[Conn], wait_ns: u64) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    let mut fds: Vec<PollFd> = conns
        .iter()
        .filter_map(|c| {
            c.stream.as_ref().map(|s| PollFd {
                fd: s.as_raw_fd(),
                events: POLLIN | if c.out_pos < c.out.len() { POLLOUT } else { 0 },
                revents: 0,
            })
        })
        .collect();
    let ts = Timespec {
        tv_sec: (wait_ns / 1_000_000_000) as i64,
        tv_nsec: (wait_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a live, correctly laid out pollfd array of the
    // given length; the timespec outlives the call; a null sigmask
    // leaves the signal mask unchanged.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

#[cfg(not(target_os = "linux"))]
fn wait_ready(_conns: &[Conn], wait_ns: u64) {
    let _ = (POLLIN, POLLOUT, std::mem::size_of::<PollFd>());
    std::thread::sleep(std::time::Duration::from_nanos(wait_ns.min(200_000)));
}
