//! The read-mostly serve path — lock-shedding for the common case.
//!
//! The paper's §5.1 architecture shares the LDG/GLT between worker
//! threads and the statistics module through one lock; faithfully
//! reproduced, that lock serializes *every* request. [`ReadPath`] is the
//! escape hatch: a snapshot of exactly the state the common case needs —
//! GET of a local, non-dirty, non-migrated document, or a warm co-op
//! copy — readable by any number of worker threads concurrently, while
//! everything rare (migration, regeneration, pulls, validations,
//! tick) still goes through the exclusive [`ServerEngine`](crate::ServerEngine) lock.
//!
//! Three pieces:
//!
//! * a **sharded serve table** (`RwLock` per shard) mapping home-document
//!   paths to prebuilt routes: a [`Body`]-backed document entry or a
//!   ready-made `301` response. The table is *primed* by the engine's
//!   exclusive serve path on first serve and *invalidated* by every
//!   mutation (publish, dirty settlement, migrate/revoke — including the
//!   link-sources those dirty). Readers therefore see either the current
//!   route or a vacancy, never a stale body;
//! * the shared co-op [`DocCache`] (internally sharded already), so warm
//!   co-op hits need no engine lock either;
//! * **mailboxes** for the write-side effects a serve produces: per-doc
//!   hit counts (LDG accounting), piggybacked [`LoadReport`]s (GLT
//!   merges), and connection/byte totals (the CPS/BPS window). The engine
//!   drains all three at [`tick`](crate::ServerEngine::tick), so read-path
//!   requests update migration statistics and the GLT within one tick
//!   without ever taking the write lock themselves.
//!
//! Bodies are [`Body`] (`Arc<[u8]>`): a read-path hit clones a refcount,
//! never the document bytes.

use crate::engine::coop_cache_key;
use crate::naming::decode_migrate_path;
use dcws_cache::DocCache;
use dcws_graph::ServerId;
use dcws_http::{
    http_date, is_reserved_path, parse_http_date, Body, LoadReport, Method, Request, Response,
    PIGGYBACK_HEADER,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// Serve-table shard count (power of two). Mirrors the co-op cache's
/// default sharding: enough to keep a worker pool off shared lines.
const N_SHARDS: usize = 8;

/// Fixed per-route bookkeeping charge against the table budget.
const ROUTE_OVERHEAD: u64 = 64;

/// Deferred-report mailbox bound. Gossip is lossy by design; overflow
/// drops the report (counted) rather than growing without bound.
const REPORT_MAILBOX_CAP: usize = 256;

/// One primed route in the serve table.
enum ServeRoute {
    /// A home-resident document ready to serve: shared body, media type,
    /// modification time, and the `Last-Modified` string prerendered so
    /// the hot path does no date formatting.
    Doc {
        /// Shared document bytes.
        body: Body,
        /// MIME type.
        content_type: String,
        /// Modification time (engine ms) for `If-Modified-Since`.
        modified_ms: u64,
        /// Prerendered RFC 1123 form of `modified_ms`.
        last_modified: String,
    },
    /// A migrated document: the prebuilt `301` to its co-op. Cloning the
    /// response clones the notice body by refcount.
    Moved(Response),
}

impl ServeRoute {
    /// Budget cost of this route under `path`.
    fn cost(&self, path: &str) -> u64 {
        let inner = match self {
            ServeRoute::Doc {
                body,
                content_type,
                last_modified,
                ..
            } => body.len() + content_type.len() + last_modified.len(),
            ServeRoute::Moved(resp) => resp.body.len() + 128,
        };
        path.len() as u64 + inner as u64 + ROUTE_OVERHEAD
    }
}

/// One shard of the hit mailbox: `path -> (hits, bytes)`.
type HitShard = Mutex<HashMap<String, (u64, u64)>>;

/// One serve-table shard: routes plus their resident cost.
#[derive(Default)]
struct TableShard {
    map: HashMap<String, ServeRoute>,
    bytes: u64,
}

/// Monotonic counters for work done on the read path; folded into
/// [`EngineStats`](crate::EngineStats) by `ServerEngine::stats()` so the
/// totals stay whole no matter which path served a request.
#[derive(Default)]
struct ReadCounters {
    requests: AtomicU64,
    served_home: AtomicU64,
    served_coop: AtomicU64,
    redirects: AtomicU64,
    conditional_not_modified: AtomicU64,
    bytes_sent: AtomicU64,
    stale_serves: AtomicU64,
    fallbacks: AtomicU64,
    shard_clears: AtomicU64,
    reports_deferred: AtomicU64,
    reports_dropped: AtomicU64,
}

/// Snapshot of the read path's counters and table occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadPathStats {
    /// Requests fully served on the read path (no engine lock).
    pub requests: u64,
    /// 200s for home-resident documents.
    pub served_home: u64,
    /// 200s for co-op-held copies.
    pub served_coop: u64,
    /// 301s from prebuilt moved routes.
    pub redirects: u64,
    /// Conditional GETs answered 304.
    pub conditional_not_modified: u64,
    /// Body bytes sent in read-path 200s.
    pub bytes_sent: u64,
    /// 200s served from a stale-marked co-op copy (failed T_val).
    pub stale_serves: u64,
    /// Requests the read path declined (engine lock taken instead).
    pub fallbacks: u64,
    /// Serve-table shards cleared wholesale on budget overflow.
    pub shard_clears: u64,
    /// Piggybacked load reports deferred to the tick mailbox.
    pub reports_deferred: u64,
    /// Load reports dropped because the mailbox was full.
    pub reports_dropped: u64,
    /// Routes currently resident in the serve table.
    pub table_entries: u64,
    /// Budget cost of resident routes.
    pub table_bytes: u64,
}

/// The concurrent read-mostly serve path (see module docs).
///
/// One `ReadPath` is created by each [`ServerEngine`](crate::ServerEngine)
/// and shared (via `Arc`) with the transport's worker threads; all methods
/// take `&self`.
pub struct ReadPath {
    id: ServerId,
    table: Box<[RwLock<TableShard>]>,
    table_budget: AtomicU64,
    coop_cache: std::sync::Arc<DocCache>,
    /// Per-shard home-document hit tallies: `path -> (hits, bytes)`.
    hits: Box<[HitShard]>,
    /// Deferred GLT merges from piggybacked request headers.
    reports: Mutex<Vec<LoadReport>>,
    /// Load reports this server currently advertises (self first),
    /// refreshed by the engine every tick; attached to read-path
    /// responses and transport-built pull requests.
    published: RwLock<Vec<LoadReport>>,
    /// Connection/byte totals awaiting the engine's rate window.
    traffic_conns: AtomicU64,
    traffic_bytes: AtomicU64,
    counters: ReadCounters,
}

/// FNV-1a, as used for cache sharding.
fn fnv1a(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl ReadPath {
    /// Build a read path for server `id` sharing `coop_cache`, with a
    /// serve-table byte budget of `table_budget`.
    pub(crate) fn new(
        id: ServerId,
        coop_cache: std::sync::Arc<DocCache>,
        table_budget: u64,
    ) -> ReadPath {
        ReadPath {
            id,
            table: (0..N_SHARDS)
                .map(|_| RwLock::new(TableShard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            table_budget: AtomicU64::new(table_budget),
            coop_cache,
            hits: (0..N_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            reports: Mutex::new(Vec::new()),
            published: RwLock::new(Vec::new()),
            traffic_conns: AtomicU64::new(0),
            traffic_bytes: AtomicU64::new(0),
            counters: ReadCounters::default(),
        }
    }

    /// This server's identity.
    pub fn id(&self) -> &ServerId {
        &self.id
    }

    fn shard_idx(&self, path: &str) -> usize {
        (fnv1a(path) & (N_SHARDS as u64 - 1)) as usize
    }

    /// Try to serve `req` without the engine lock. `None` means the
    /// request needs the exclusive path (anything inter-server, any miss,
    /// any non-GET/HEAD) — hand it to `ServerEngine::handle_request`.
    pub fn try_serve(&self, req: &Request, _now_ms: u64) -> Option<Response> {
        if req.method != Method::Get && req.method != Method::Head {
            return self.fallback();
        }
        // Inter-server extension headers force the exclusive path —
        // except pure piggyback, whose GLT merge we defer to tick.
        let mut has_load = false;
        for (name, _) in req.headers.iter() {
            if name.len() >= 7 && name[..7].eq_ignore_ascii_case("x-dcws-") {
                if name.eq_ignore_ascii_case(PIGGYBACK_HEADER) {
                    has_load = true;
                } else {
                    return self.fallback();
                }
            }
        }
        let Ok(url) = req.url() else {
            return self.fallback();
        };
        let path = url.path();
        if is_reserved_path(path) {
            // The transport answers /dcws/* itself; never a fallback.
            return None;
        }
        let resp = match decode_migrate_path(path) {
            Err(_) => return self.fallback(),
            Ok(Some(t)) if t.home != self.id => self.serve_coop_hit(&t.home, &t.path, req),
            Ok(Some(t)) => self.serve_table(&t.path, req),
            Ok(None) => self.serve_table(path, req),
        };
        let Some(resp) = resp else {
            return self.fallback();
        };
        // Client GETs may carry a byte range; 304s pass through untouched
        // (If-Modified-Since wins). Bodies here are buffered snapshots —
        // large objects never enter the table (cost > shard budget) and
        // take the engine's streamed path instead.
        let mut resp = dcws_http::apply_range(req, resp);
        if has_load {
            self.defer_reports(req);
            for r in self.published_reports() {
                r.attach(&mut resp.headers);
            }
        }
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        Some(resp)
    }

    /// Count a declined request and return `None`.
    fn fallback(&self) -> Option<Response> {
        self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// A warm co-op copy, straight from the shared cache.
    fn serve_coop_hit(&self, home: &ServerId, path: &str, req: &Request) -> Option<Response> {
        let key = coop_cache_key(home, path);
        // Peek first so a miss/negative doesn't skew the cache counters:
        // the engine fallback will run its own counted lookup.
        let peeked = self.coop_cache.peek(&key)?;
        if peeked.negative {
            return None;
        }
        // The counted, LRU-promoting lookup.
        let doc = self.coop_cache.get(&key)?;
        if doc.negative {
            return None;
        }
        let last_modified = http_date(doc.modified_ms);
        if let Some(since) = req
            .headers
            .get("If-Modified-Since")
            .and_then(parse_http_date)
        {
            // HTTP dates have second granularity; compare at that grain.
            if doc.modified_ms / 1000 * 1000 <= since {
                self.counters
                    .conditional_not_modified
                    .fetch_add(1, Ordering::Relaxed);
                self.record_traffic(0);
                return Some(Response::not_modified().with_header("Last-Modified", &last_modified));
            }
        }
        self.counters.served_coop.fetch_add(1, Ordering::Relaxed);
        if doc.stale {
            // Freshness unverified (failed T_val): still served, counted.
            self.counters.stale_serves.fetch_add(1, Ordering::Relaxed);
        }
        self.counters
            .bytes_sent
            .fetch_add(doc.bytes.len() as u64, Ordering::Relaxed);
        self.record_traffic(doc.bytes.len() as u64);
        Some(
            Response::ok(doc.bytes, &doc.content_type).with_header("Last-Modified", &last_modified),
        )
    }

    /// A primed home-document route from the serve table.
    fn serve_table(&self, path: &str, req: &Request) -> Option<Response> {
        let shard = self.table[self.shard_idx(path)]
            .read()
            .unwrap_or_else(|e| e.into_inner());
        match shard.map.get(path)? {
            ServeRoute::Moved(resp) => {
                self.counters.redirects.fetch_add(1, Ordering::Relaxed);
                self.record_traffic(resp.body.len() as u64);
                Some(resp.clone())
            }
            ServeRoute::Doc {
                body,
                content_type,
                modified_ms,
                last_modified,
            } => {
                if let Some(since) = req
                    .headers
                    .get("If-Modified-Since")
                    .and_then(parse_http_date)
                {
                    if modified_ms / 1000 * 1000 <= since {
                        self.counters
                            .conditional_not_modified
                            .fetch_add(1, Ordering::Relaxed);
                        self.note_hit(path, 0);
                        self.record_traffic(0);
                        return Some(
                            Response::not_modified().with_header("Last-Modified", last_modified),
                        );
                    }
                }
                self.counters.served_home.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_sent
                    .fetch_add(body.len() as u64, Ordering::Relaxed);
                self.note_hit(path, body.len() as u64);
                self.record_traffic(body.len() as u64);
                Some(
                    Response::ok(body.clone(), content_type)
                        .with_header("Last-Modified", last_modified),
                )
            }
        }
    }

    /// Build the lazy pull request for `path` without the engine lock:
    /// identity headers plus the published load-report snapshot (what
    /// `ServerEngine::attach_reports` would have said as of last tick).
    pub fn make_pull_request(&self, path: &str) -> Request {
        let mut req = Request::get(path)
            .with_header("X-DCWS-Pull", "1")
            .with_header("X-DCWS-Coop", self.id.as_str());
        for r in self.published_reports() {
            r.attach(&mut req.headers);
        }
        req
    }

    // ---- write-side hooks (called by the engine, under its lock) ----

    /// Prime a document route.
    pub(crate) fn install_doc(&self, path: &str, body: Body, content_type: &str, modified_ms: u64) {
        self.install(
            path,
            ServeRoute::Doc {
                body,
                content_type: content_type.to_string(),
                modified_ms,
                last_modified: http_date(modified_ms),
            },
        );
    }

    /// Prime a moved (301) route.
    pub(crate) fn install_moved(&self, path: &str, resp: Response) {
        self.install(path, ServeRoute::Moved(resp));
    }

    fn install(&self, path: &str, route: ServeRoute) {
        let per_shard = self.table_budget.load(Ordering::Relaxed) / self.table.len() as u64;
        let cost = route.cost(path);
        if cost > per_shard {
            return;
        }
        let mut shard = self.table[self.shard_idx(path)]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(old) = shard.map.remove(path) {
            shard.bytes = shard.bytes.saturating_sub(old.cost(path));
        }
        if shard.bytes + cost > per_shard {
            // Snapshot cache, not a store: clearing the shard is always
            // safe (the exclusive path re-primes on demand) and keeps the
            // structure allocation-bounded without LRU bookkeeping.
            shard.map.clear();
            shard.bytes = 0;
            self.counters.shard_clears.fetch_add(1, Ordering::Relaxed);
        }
        shard.map.insert(path.to_string(), route);
        shard.bytes += cost;
    }

    /// Drop the route for `path`, if primed. Every mutation that changes
    /// what `path` (or a document linking to it) serves must call this.
    pub(crate) fn invalidate(&self, path: &str) {
        let mut shard = self.table[self.shard_idx(path)]
            .write()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(old) = shard.map.remove(path) {
            shard.bytes = shard.bytes.saturating_sub(old.cost(path));
        }
    }

    /// Re-budget the serve table; over-budget shards are cleared.
    pub(crate) fn set_table_budget(&self, budget: u64) {
        self.table_budget.store(budget, Ordering::Relaxed);
        let per_shard = budget / self.table.len() as u64;
        for shard in self.table.iter() {
            let mut s = shard.write().unwrap_or_else(|e| e.into_inner());
            if s.bytes > per_shard {
                s.map.clear();
                s.bytes = 0;
                self.counters.shard_clears.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Replace the published load-report snapshot (engine, every tick).
    pub(crate) fn publish_reports(&self, reports: Vec<LoadReport>) {
        *self.published.write().unwrap_or_else(|e| e.into_inner()) = reports;
    }

    /// The currently published load reports (self first).
    pub fn published_reports(&self) -> Vec<LoadReport> {
        self.published
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    // ---- mailboxes ----

    fn note_hit(&self, path: &str, bytes: u64) {
        let mut hits = self.hits[self.shard_idx(path)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let e = hits.entry(path.to_string()).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes;
    }

    fn record_traffic(&self, bytes: u64) {
        self.traffic_conns.fetch_add(1, Ordering::Relaxed);
        self.traffic_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    fn defer_reports(&self, req: &Request) {
        for r in LoadReport::extract_all(&req.headers) {
            if r.server == self.id.as_str() {
                continue;
            }
            let mut mb = self.reports.lock().unwrap_or_else(|e| e.into_inner());
            if mb.len() >= REPORT_MAILBOX_CAP {
                self.counters
                    .reports_dropped
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                mb.push(r);
                self.counters
                    .reports_deferred
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Take all deferred load reports (engine drain, every tick).
    pub(crate) fn take_reports(&self) -> Vec<LoadReport> {
        std::mem::take(&mut *self.reports.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Take all batched hit tallies: `(path, hits, bytes)`.
    pub(crate) fn take_hits(&self) -> Vec<(String, u64, u64)> {
        let mut out = Vec::new();
        for shard in self.hits.iter() {
            let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
            out.extend(map.drain().map(|(k, (n, b))| (k, n, b)));
        }
        out
    }

    /// Take the accumulated `(connections, bytes)` totals.
    pub(crate) fn take_traffic(&self) -> (u64, u64) {
        (
            self.traffic_conns.swap(0, Ordering::Relaxed),
            self.traffic_bytes.swap(0, Ordering::Relaxed),
        )
    }

    /// Counter + occupancy snapshot.
    pub fn snapshot(&self) -> ReadPathStats {
        let c = &self.counters;
        let (mut entries, mut bytes) = (0u64, 0u64);
        for shard in self.table.iter() {
            let s = shard.read().unwrap_or_else(|e| e.into_inner());
            entries += s.map.len() as u64;
            bytes += s.bytes;
        }
        ReadPathStats {
            requests: c.requests.load(Ordering::Relaxed),
            served_home: c.served_home.load(Ordering::Relaxed),
            served_coop: c.served_coop.load(Ordering::Relaxed),
            redirects: c.redirects.load(Ordering::Relaxed),
            conditional_not_modified: c.conditional_not_modified.load(Ordering::Relaxed),
            bytes_sent: c.bytes_sent.load(Ordering::Relaxed),
            stale_serves: c.stale_serves.load(Ordering::Relaxed),
            fallbacks: c.fallbacks.load(Ordering::Relaxed),
            shard_clears: c.shard_clears.load(Ordering::Relaxed),
            reports_deferred: c.reports_deferred.load(Ordering::Relaxed),
            reports_dropped: c.reports_dropped.load(Ordering::Relaxed),
            table_entries: entries,
            table_bytes: bytes,
        }
    }
}
