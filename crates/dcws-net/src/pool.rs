//! Persistent inter-server connection pool with keep-alive reuse.
//!
//! DCWS's cooperation traffic — lazy pulls, T_val
//! revalidations (§4.3–§4.5) — is many small HTTP exchanges between a
//! stable set of peers. Paying a TCP handshake plus slow-start for each
//! one makes the paper's "migration is cheap" premise needlessly
//! expensive, so [`Transport`](crate::Transport) checks connections out
//! of a per-peer [`ConnPool`] instead of dialing:
//!
//! * **LIFO reuse** — the most recently parked stream is handed out
//!   first, keeping its socket buffers and congestion window warm;
//! * **bounded** — at most `max_per_peer` idle streams are retained per
//!   peer; surplus check-ins are simply closed;
//! * **idle TTL with lazy reaping** — a stream parked longer than
//!   `idle_ttl` is closed at the next checkout that walks past it (no
//!   background reaper thread);
//! * **ping exemption** — artificial pinger transfers never check out
//!   (or check in) pooled streams, so §4.5 dead-peer detection measures
//!   a real connection attempt, not the health of a warm socket.
//!
//! Each pooled stream carries its own [`MsgBuf`], so the per-connection
//! scratch buffer and any pipelined over-read survive across the calls
//! that reuse the stream. Counters and a bounded event ring feed the
//! `transport.pool` section of `/dcws/status`.

use crate::conn::MsgBuf;
use dcws_graph::ServerId;
use std::collections::HashMap;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Most recent pool events retained for `/dcws/status`.
const EVENT_RING: usize = 64;

/// Sizing and lifetime knobs for a [`ConnPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Idle streams retained per peer; `0` disables pooling entirely
    /// (every call dials a fresh connection — the pre-pool behaviour,
    /// kept as a knob for benchmarking and bisection).
    pub max_per_peer: usize,
    /// How long a parked stream stays eligible for reuse.
    pub idle_ttl: Duration,
}

impl Default for PoolConfig {
    /// Defaults: 4 idle streams per peer, 30 s idle TTL — enough to
    /// cover a validation interval without hoarding sockets.
    fn default() -> PoolConfig {
        PoolConfig {
            max_per_peer: 4,
            idle_ttl: Duration::from_secs(30),
        }
    }
}

/// A checked-out connection: the stream plus its per-connection read
/// buffer, and whether it came from the pool (vs a fresh dial).
#[derive(Debug)]
pub struct PooledConn {
    /// The underlying socket.
    pub stream: TcpStream,
    /// Per-connection scratch buffer (reused across exchanges, carries
    /// pipelined over-read between them).
    pub buf: MsgBuf,
    /// `true` when this stream already served at least one exchange
    /// (checked out of the pool rather than freshly dialed).
    pub reused: bool,
}

/// One parked stream.
#[derive(Debug)]
struct Idle {
    conn: PooledConn,
    since: Instant,
}

/// Why a stream was closed instead of (re)parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evict {
    /// Sat idle past the TTL.
    IdleTtl,
    /// The response carried `Connection: close` (or was HTTP/1.0).
    PeerClose,
    /// The exchange failed (I/O error, integrity failure, injected
    /// mid-response drop) — the stream's framing state is unknown.
    Error,
}

impl Evict {
    fn as_str(&self) -> &'static str {
        match self {
            Evict::IdleTtl => "evict_ttl",
            Evict::PeerClose => "evict_close",
            Evict::Error => "evict_error",
        }
    }
}

/// One entry of the pool's bounded event ring.
#[derive(Debug, Clone)]
pub struct PoolEvent {
    /// Milliseconds since the pool was created.
    pub at_ms: u64,
    /// Peer the event concerns (`host:port`).
    pub peer: String,
    /// Event kind: `dial`, `hit`, `evict_ttl`, `evict_close`,
    /// `evict_error`, `discard_full`, or `stale_retry`.
    pub kind: &'static str,
}

/// Monotonic pool counters, for `/dcws/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Checkouts satisfied by a parked stream.
    pub hits: u64,
    /// Fresh connections dialed (misses + stale-reuse redials).
    pub dials: u64,
    /// Streams closed because they idled past the TTL.
    pub evicted_idle: u64,
    /// Streams closed because the peer asked (`Connection: close`).
    pub evicted_close: u64,
    /// Streams closed after a failed exchange.
    pub evicted_error: u64,
    /// Check-ins dropped because the per-peer cap was reached.
    pub discarded_full: u64,
    /// Streams successfully parked for reuse.
    pub checkins: u64,
}

impl PoolSnapshot {
    /// Fraction of checkouts served warm: `hits / (hits + dials)`;
    /// zero before any checkout.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.hits + self.dials;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total evictions of every kind.
    pub fn evictions(&self) -> u64 {
        self.evicted_idle + self.evicted_close + self.evicted_error
    }
}

#[derive(Debug, Default)]
struct PoolCounters {
    hits: AtomicU64,
    dials: AtomicU64,
    evicted_idle: AtomicU64,
    evicted_close: AtomicU64,
    evicted_error: AtomicU64,
    discarded_full: AtomicU64,
    checkins: AtomicU64,
}

/// A bounded per-peer pool of persistent keep-alive connections. All
/// methods take `&self`; one instance is shared by every worker and the
/// pinger thread of a server.
#[derive(Debug)]
pub struct ConnPool {
    cfg: PoolConfig,
    idle: Mutex<HashMap<String, Vec<Idle>>>,
    counters: PoolCounters,
    events: Mutex<Vec<PoolEvent>>,
    epoch: Instant,
}

impl ConnPool {
    /// An empty pool with the given knobs.
    pub fn new(cfg: PoolConfig) -> ConnPool {
        ConnPool {
            cfg,
            idle: Mutex::new(HashMap::new()),
            counters: PoolCounters::default(),
            events: Mutex::new(Vec::new()),
            epoch: Instant::now(),
        }
    }

    /// The pool's sizing knobs.
    pub fn config(&self) -> &PoolConfig {
        &self.cfg
    }

    /// Whether pooling is enabled at all (`max_per_peer > 0`).
    pub fn enabled(&self) -> bool {
        self.cfg.max_per_peer > 0
    }

    fn note(&self, peer: &str, kind: &'static str) {
        let mut events = self.events.lock().unwrap_or_else(|e| e.into_inner());
        if events.len() >= EVENT_RING {
            events.remove(0);
        }
        events.push(PoolEvent {
            at_ms: self.epoch.elapsed().as_millis() as u64,
            peer: peer.to_string(),
            kind,
        });
    }

    /// Check a connection out for `peer`: the freshest unexpired parked
    /// stream if any (LIFO), else a fresh dial. Expired streams walked
    /// past on the way are reaped here — there is no background thread.
    pub fn checkout(&self, peer: &ServerId, read_timeout: Duration) -> io::Result<PooledConn> {
        if self.enabled() {
            let reaped;
            let got = {
                let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
                let stack = idle.entry(peer.as_str().to_string()).or_default();
                let before = stack.len();
                stack.retain(|i| i.since.elapsed() < self.cfg.idle_ttl);
                reaped = before - stack.len();
                stack.pop()
            };
            if reaped > 0 {
                self.counters
                    .evicted_idle
                    .fetch_add(reaped as u64, Ordering::Relaxed);
                self.note(peer.as_str(), Evict::IdleTtl.as_str());
            }
            if let Some(parked) = got {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.note(peer.as_str(), "hit");
                let conn = parked.conn;
                conn.stream.set_read_timeout(Some(read_timeout))?;
                return Ok(conn);
            }
        }
        self.dial(peer, read_timeout)
    }

    /// Dial a fresh connection to `peer`, bypassing the idle stack (the
    /// checkout miss path, and the stale-reuse retry path).
    pub fn dial(&self, peer: &ServerId, read_timeout: Duration) -> io::Result<PooledConn> {
        let (host, port) = peer.host_port();
        let stream = TcpStream::connect((host, port))?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        self.note(peer.as_str(), "dial");
        Ok(PooledConn {
            stream,
            buf: MsgBuf::new(),
            reused: false,
        })
    }

    /// Park `conn` for reuse by later calls to `peer`. Dropped (closed)
    /// instead when pooling is disabled or the per-peer cap is reached.
    pub fn checkin(&self, peer: &ServerId, mut conn: PooledConn) {
        if !self.enabled() {
            return;
        }
        let mut idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let stack = idle.entry(peer.as_str().to_string()).or_default();
        if stack.len() >= self.cfg.max_per_peer {
            drop(idle);
            self.counters.discarded_full.fetch_add(1, Ordering::Relaxed);
            self.note(peer.as_str(), "discard_full");
            return;
        }
        conn.reused = true;
        stack.push(Idle {
            conn,
            since: Instant::now(),
        });
        self.counters.checkins.fetch_add(1, Ordering::Relaxed);
    }

    /// Record that `conn` was closed instead of parked, and why. The
    /// connection is consumed (dropped — which closes the socket).
    pub fn evict(&self, peer: &ServerId, conn: PooledConn, why: Evict) {
        drop(conn);
        let counter = match why {
            Evict::IdleTtl => &self.counters.evicted_idle,
            Evict::PeerClose => &self.counters.evicted_close,
            Evict::Error => &self.counters.evicted_error,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.note(peer.as_str(), why.as_str());
    }

    /// Record a stale-reuse retry (a reused stream died before any
    /// response byte and the call redialed) in the event ring.
    pub fn note_stale_retry(&self, peer: &ServerId) {
        self.note(peer.as_str(), "stale_retry");
    }

    /// Idle (parked) stream count per peer, unexpired entries only;
    /// peers with nothing parked are omitted.
    pub fn idle_per_peer(&self) -> Vec<(String, usize)> {
        let idle = self.idle.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<(String, usize)> = idle
            .iter()
            .filter_map(|(peer, stack)| {
                let live = stack
                    .iter()
                    .filter(|i| i.since.elapsed() < self.cfg.idle_ttl)
                    .count();
                (live > 0).then(|| (peer.clone(), live))
            })
            .collect();
        out.sort();
        out
    }

    /// Total parked streams (unexpired).
    pub fn idle_total(&self) -> usize {
        self.idle_per_peer().iter().map(|(_, n)| n).sum()
    }

    /// Counter snapshot.
    pub fn snapshot(&self) -> PoolSnapshot {
        let c = &self.counters;
        PoolSnapshot {
            hits: c.hits.load(Ordering::Relaxed),
            dials: c.dials.load(Ordering::Relaxed),
            evicted_idle: c.evicted_idle.load(Ordering::Relaxed),
            evicted_close: c.evicted_close.load(Ordering::Relaxed),
            evicted_error: c.evicted_error.load(Ordering::Relaxed),
            discarded_full: c.discarded_full.load(Ordering::Relaxed),
            checkins: c.checkins.load(Ordering::Relaxed),
        }
    }

    /// The most recent pool events, oldest first (bounded ring).
    pub fn recent_events(&self) -> Vec<PoolEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A listener that accepts and holds connections open.
    fn sink_server() -> (ServerId, TcpListener) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        (
            ServerId::new(format!("127.0.0.1:{}", addr.port())),
            listener,
        )
    }

    fn accept_and_park(listener: TcpListener, n: usize) -> std::thread::JoinHandle<Vec<TcpStream>> {
        std::thread::spawn(move || (0..n).map(|_| listener.accept().unwrap().0).collect())
    }

    #[test]
    fn checkout_dials_then_reuses_lifo() {
        let (peer, listener) = sink_server();
        let keeper = accept_and_park(listener, 2);
        let pool = ConnPool::new(PoolConfig::default());
        let a = pool.checkout(&peer, READ_TO).unwrap();
        let b = pool.checkout(&peer, READ_TO).unwrap();
        assert!(!a.reused && !b.reused);
        let b_addr = b.stream.local_addr().unwrap();
        pool.checkin(&peer, a);
        pool.checkin(&peer, b);
        assert_eq!(pool.idle_total(), 2);
        // LIFO: the last parked stream (b) comes back first.
        let c = pool.checkout(&peer, READ_TO).unwrap();
        assert!(c.reused);
        assert_eq!(c.stream.local_addr().unwrap(), b_addr);
        let snap = pool.snapshot();
        assert_eq!((snap.dials, snap.hits), (2, 1));
        assert!(snap.reuse_ratio() > 0.3 && snap.reuse_ratio() < 0.4);
        drop(keeper.join().unwrap());
    }

    #[test]
    fn per_peer_cap_discards_surplus() {
        let (peer, listener) = sink_server();
        let keeper = accept_and_park(listener, 3);
        let pool = ConnPool::new(PoolConfig {
            max_per_peer: 2,
            idle_ttl: Duration::from_secs(30),
        });
        let conns: Vec<_> = (0..3)
            .map(|_| pool.checkout(&peer, READ_TO).unwrap())
            .collect();
        for c in conns {
            pool.checkin(&peer, c);
        }
        assert_eq!(pool.idle_total(), 2);
        assert_eq!(pool.snapshot().discarded_full, 1);
        drop(keeper.join().unwrap());
    }

    #[test]
    fn idle_ttl_reaps_lazily() {
        let (peer, listener) = sink_server();
        let keeper = accept_and_park(listener, 2);
        let pool = ConnPool::new(PoolConfig {
            max_per_peer: 4,
            idle_ttl: Duration::from_millis(30),
        });
        let a = pool.checkout(&peer, READ_TO).unwrap();
        pool.checkin(&peer, a);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(pool.idle_total(), 0, "expired entries are not reported");
        // The expired stream is reaped on the next checkout, which dials.
        let b = pool.checkout(&peer, READ_TO).unwrap();
        assert!(!b.reused);
        let snap = pool.snapshot();
        assert_eq!((snap.dials, snap.hits, snap.evicted_idle), (2, 0, 1));
        drop(keeper.join().unwrap());
    }

    #[test]
    fn disabled_pool_never_parks() {
        let (peer, listener) = sink_server();
        let keeper = accept_and_park(listener, 2);
        let pool = ConnPool::new(PoolConfig {
            max_per_peer: 0,
            idle_ttl: Duration::from_secs(30),
        });
        assert!(!pool.enabled());
        let a = pool.checkout(&peer, READ_TO).unwrap();
        pool.checkin(&peer, a);
        assert_eq!(pool.idle_total(), 0);
        let b = pool.checkout(&peer, READ_TO).unwrap();
        assert!(!b.reused);
        assert_eq!(pool.snapshot().dials, 2);
        drop(keeper.join().unwrap());
    }

    #[test]
    fn events_ring_is_bounded() {
        let (peer, listener) = sink_server();
        drop(listener);
        let pool = ConnPool::new(PoolConfig::default());
        for _ in 0..(EVENT_RING + 20) {
            pool.note(peer.as_str(), "hit");
        }
        let events = pool.recent_events();
        assert_eq!(events.len(), EVENT_RING);
        assert!(events.iter().all(|e| e.kind == "hit"));
    }

    /// Writes on a checked-out stream actually reach the peer (sanity:
    /// the pool hands back live sockets, not clones).
    #[test]
    fn pooled_stream_is_live() {
        let (peer, listener) = sink_server();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut byte = [0u8; 1];
            std::io::Read::read_exact(&mut s, &mut byte).unwrap();
            byte[0]
        });
        let pool = ConnPool::new(PoolConfig::default());
        let mut a = pool.checkout(&peer, READ_TO).unwrap();
        a.stream.write_all(&[0x42]).unwrap();
        assert_eq!(echo.join().unwrap(), 0x42);
    }

    const READ_TO: Duration = Duration::from_secs(2);
}
