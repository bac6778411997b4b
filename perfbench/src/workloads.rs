//! The three live workloads: their corpora and servers, their seeded
//! request streams, and the per-request output checks.
//!
//! * `warm_get` — one server, MAPUG, every document warmed into the
//!   `ReadPath` serve table; Zipf GETs pipelined on two connections.
//! * `cluster_rw` — home + co-op, LOD, a seeded quarter of the non-entry
//!   documents migrated before the servers start; Algorithm-2 sessions
//!   beside a thread of author updates.
//! * `sequoia_pull` — home + co-op, a slice of the Sequoia rasters, half
//!   migrated, so every co-op serve is a streamed inter-server pull; a
//!   seeded share of requests carries `Range`.

use crate::check::{self, check_bytes, check_links, check_version, home_path, resolved_links};
use crate::client::{Clock, Outgoing, Reply, Source};
use crate::cluster::{self, Cluster, Corpus};
use crate::live::{get_wire, Fetch, LadderSpec, Status, StepPlan, StepSource, Workload};
use crate::rng::{poisson_arrivals, shuffled, Rng, Zipf};
use dcws_graph::ServerId;
use dcws_http::{Method, Request, Response, StatusCode, Url};
use dcws_net::MsgBuf;
use dcws_workloads::{Dataset, PageKind};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Redirects followed per request before it counts as failed.
const MAX_HOPS: u8 = 4;

/// RNG stream salts, one per consumer of the seed.
const SALT_ARRIVALS: u64 = 1;
const SALT_URLS: u64 = 2;
const SALT_SESSIONS: u64 = 3;
const SALT_UPDATES: u64 = 4;
const SALT_MIGRATIONS: u64 = 5;
const SALT_RANGES: u64 = 6;

/// Rasters kept from the Sequoia corpus (of its 130).
pub const SEQUOIA_IMAGES: usize = 48;
/// Share of `sequoia_pull` requests that carry a `Range`.
const SEQUOIA_RANGE_SHARE: f64 = 0.25;
/// Largest `Range` span drawn, bytes.
const SEQUOIA_RANGE_MAX: u64 = 256 * 1024;
/// Share of LOD's non-entry documents migrated at `cluster_rw` set-up.
const LOD_MIGRATED_SHARE: f64 = 0.25;
/// Algorithm 2 walk length: `random(1..MAX_STEPS)` pages per session.
const MAX_STEPS: u64 = 10;
/// Author updates per second on `cluster_rw`.
pub const UPDATES_PER_S: f64 = 5.0;

/// How the workload's servers are reached and which node a URL names.
#[derive(Clone)]
pub struct Topology {
    /// Node addresses, home first.
    pub addrs: Vec<SocketAddr>,
    /// Connections per node per generator thread.
    pub lanes: usize,
}

impl Topology {
    fn of(c: &Cluster, lanes: usize) -> Topology {
        Topology {
            addrs: c.addrs(),
            lanes,
        }
    }

    /// The node a URL points at (relative URLs stay on `from`).
    pub fn node_of(&self, url: &Url, from: usize) -> Option<usize> {
        match url.host() {
            None => Some(from),
            Some(h) => self
                .addrs
                .iter()
                .position(|a| a.port() == url.port() && (h == "127.0.0.1" || h == "localhost")),
        }
    }

    /// The absolute URL of `path` on `node`.
    pub fn url(&self, node: usize, path: &str) -> Url {
        Url::absolute("127.0.0.1", self.addrs[node].port(), path.to_string()).expect("valid path")
    }

    /// Every connection a generator thread opens: `lanes` per node.
    pub fn conns(&self) -> Vec<SocketAddr> {
        self.addrs
            .iter()
            .flat_map(|&a| std::iter::repeat_n(a, self.lanes))
            .collect()
    }
}

/// Follow a 301: the next `(node, path)`, or `None` when it is unusable.
fn redirect_target(
    topo: &Topology,
    resp: &Response,
    from: usize,
    cur: &str,
) -> Option<(usize, String)> {
    let loc = resp.headers.get("Location")?;
    let url = topo.url(from, cur).join(loc).ok()?;
    Some((topo.node_of(&url, from)?, url.path().to_string()))
}

/// What a final response must be.
enum Expect<'a> {
    /// `200` with exactly these bytes.
    Full(&'a [u8]),
    /// `206` with this inclusive slice of these bytes.
    Range(&'a [u8], u64, u64),
}

/// Why a final response did not count as correct.
#[derive(Debug)]
enum Fail {
    /// Refused or overloaded (5xx): a failure, not a wrong answer.
    Failed(String),
    /// An answer that is wrong: bad status, body or version.
    Wrong(String),
}

fn status_fail(what: &str, got: StatusCode, want: StatusCode) -> Fail {
    let msg = format!("{what}: status {} (expected {})", got.code(), want.code());
    if got.code() >= 500 {
        Fail::Failed(msg)
    } else {
        Fail::Wrong(msg)
    }
}

fn check_final(what: &str, resp: &Response, expect: Expect<'_>) -> Result<(), Fail> {
    let (want_status, body) = match expect {
        Expect::Full(b) => (StatusCode::Ok, b),
        Expect::Range(b, s, e) => (StatusCode::PartialContent, &b[s as usize..=e as usize]),
    };
    if resp.status != want_status {
        return Err(status_fail(what, resp.status, want_status));
    }
    check_bytes(what, body, &resp.body).map_err(Fail::Wrong)
}

/// Record a final outcome on `f`.
fn settle(f: &mut Fetch, r: &Reply, verdict: Result<(), Fail>, wrong: &mut Vec<String>) {
    f.first = r.first_ns;
    f.done = r.done_ns;
    f.status = match verdict {
        Ok(()) => Status::Ok,
        Err(Fail::Failed(msg)) => {
            eprintln!("request failed: {msg}");
            Status::Failed
        }
        Err(Fail::Wrong(msg)) => {
            if wrong.len() < 8 {
                wrong.push(msg);
            }
            Status::Wrong
        }
    };
}

/// Handle a 301 on `f`: push the hop span and return the next hop.
fn hop(
    f: &mut Fetch,
    token: usize,
    r: &Reply,
    topo: &Topology,
    lane: usize,
    traced: bool,
) -> Option<Outgoing> {
    let (node, path) = f.cur.take()?;
    if traced {
        f.hop_spans.push((node, r.sent_ns, r.done_ns));
    }
    f.hops += 1;
    if f.hops > MAX_HOPS {
        return None;
    }
    let (next, next_path) = redirect_target(topo, &r.resp, node as usize, &path)?;
    let wire = get_wire(&next_path, f.range);
    f.cur = Some((next as u8, next_path));
    Some(Outgoing {
        conn: next * topo.lanes + lane,
        wire,
        token,
        method: Method::Get,
    })
}

/// Independent open-loop GETs with byte-exact expected bodies
/// (`warm_get`, `sequoia_pull`).
pub struct OpenSource {
    fetches: Vec<Fetch>,
    next: usize,
    corpus: Arc<Corpus>,
    topo: Arc<Topology>,
    traced: bool,
    wrong: Vec<String>,
}

impl OpenSource {
    fn new(
        fetches: Vec<Fetch>,
        corpus: Arc<Corpus>,
        topo: Arc<Topology>,
        traced: bool,
    ) -> OpenSource {
        OpenSource {
            fetches,
            next: 0,
            corpus,
            topo,
            traced,
            wrong: Vec::new(),
        }
    }
}

impl Source for OpenSource {
    fn next_due(&self) -> Option<u64> {
        self.fetches.get(self.next).map(|f| f.due)
    }

    fn take_due(&mut self, now: u64, out: &mut Vec<Outgoing>) -> usize {
        let mut n = 0;
        while let Some(f) = self.fetches.get_mut(self.next) {
            if f.due > now {
                break;
            }
            f.left = now;
            let (node, path) = f.cur.as_ref().expect("fresh fetch");
            out.push(Outgoing {
                conn: *node as usize * self.topo.lanes + self.next % self.topo.lanes,
                wire: get_wire(path, f.range),
                token: self.next,
                method: Method::Get,
            });
            self.next += 1;
            n += 1;
        }
        n
    }

    fn on_reply(&mut self, r: Reply, out: &mut Vec<Outgoing>) {
        let f = &mut self.fetches[r.token];
        if r.resp.status.is_redirect() {
            match hop(
                f,
                r.token,
                &r,
                &self.topo,
                r.token % self.topo.lanes,
                self.traced,
            ) {
                Some(is) => out.push(is),
                None => {
                    f.status = Status::Failed;
                    f.done = r.done_ns;
                }
            }
            return;
        }
        let bytes = &self.corpus.bytes[f.doc as usize];
        let expect = match f.range {
            Some((s, e)) => Expect::Range(bytes, s, e),
            None => Expect::Full(bytes),
        };
        let name = &self.corpus.dataset.docs[f.doc as usize].name;
        let verdict = check_final(name, &r.resp, expect);
        settle(f, &r, verdict, &mut self.wrong);
    }

    fn on_error(&mut self, token: usize, now: u64, _out: &mut Vec<Outgoing>) {
        let f = &mut self.fetches[token];
        f.status = Status::Failed;
        f.done = now;
    }
}

impl StepSource for OpenSource {
    fn finish(self: Box<Self>) -> (Vec<Fetch>, Vec<String>) {
        (self.fetches, self.wrong)
    }
}

/// Blocking GETs for set-up and warm-up, on one keep-alive connection
/// per node, following redirects.
struct SetupClient<'a> {
    topo: &'a Topology,
    conns: Vec<Option<(TcpStream, MsgBuf)>>,
}

impl<'a> SetupClient<'a> {
    fn new(topo: &'a Topology) -> SetupClient<'a> {
        SetupClient {
            topo,
            conns: topo.addrs.iter().map(|_| None).collect(),
        }
    }

    /// GET `path` from `node`; the final response, its node and path.
    fn get(&mut self, node: usize, path: &str) -> std::io::Result<(Response, usize, String)> {
        let (mut node, mut path) = (node, path.to_string());
        for _ in 0..=MAX_HOPS {
            if self.conns[node].is_none() {
                let s = TcpStream::connect(self.topo.addrs[node])?;
                s.set_nodelay(true)?;
                self.conns[node] = Some((s, MsgBuf::new()));
            }
            let (s, mb) = self.conns[node].as_mut().expect("connected above");
            s.write_all(&get_wire(&path, None))?;
            let resp = loop {
                if let Some(r) = mb.try_extract_response(Method::Get)? {
                    break r;
                }
                if mb.fill_from(s)? == 0 {
                    return Err(std::io::Error::other("closed mid-response"));
                }
            };
            if !resp.status.is_redirect() {
                return Ok((resp, node, path));
            }
            (node, path) = redirect_target(self.topo, &resp, node, &path)
                .ok_or_else(|| std::io::Error::other("bad redirect"))?;
        }
        Err(std::io::Error::other("redirect loop"))
    }
}

/// What one set-up measured, besides its wall time.
#[derive(Debug, Default, Clone)]
pub struct SetupTimes {
    /// Dataset generation, s.
    pub generate_s: f64,
    /// Materialization, s.
    pub materialize_s: f64,
    /// Per-call `ServerEngine::publish` durations, s.
    pub publish_s: Vec<f64>,
}

// ---------------------------------------------------------------- warm_get

/// `warm_get`: Zipf GETs of the MAPUG corpus on one warmed server.
pub struct WarmGet {
    /// The running server.
    pub cluster: Cluster,
    /// Its corpus.
    pub corpus: Arc<Corpus>,
    topo: Arc<Topology>,
    zipf: Zipf,
    /// Zipf rank → document.
    popularity: Vec<usize>,
    seed: u64,
}

impl WarmGet {
    /// Generate, publish, spawn and warm every document into the serve table.
    pub fn setup(seed: u64) -> (WarmGet, SetupTimes) {
        let corpus = Corpus::build(Dataset::mapug, seed, None);
        let ids = cluster::reserve_ids(1);
        let mut e = cluster::engine(&ids[0].0, &[]);
        let publish_s = cluster::publish_all(&mut e, &corpus);
        let c = Cluster::spawn(vec![(e, ids[0].0.clone(), ids[0].1)]);
        let topo = Arc::new(Topology::of(&c, 2));
        let mut client = SetupClient::new(&topo);
        for (i, d) in corpus.dataset.docs.iter().enumerate() {
            let (resp, _, _) = client.get(0, &d.name).expect("warm-up GET");
            check_final(&d.name, &resp, Expect::Full(&corpus.bytes[i])).expect("warm-up body");
        }
        let n = corpus.dataset.docs.len();
        let times = SetupTimes {
            generate_s: corpus.generate_s,
            materialize_s: corpus.materialize_s,
            publish_s,
        };
        let w = WarmGet {
            cluster: c,
            topo,
            zipf: Zipf::new(n, 1.0),
            popularity: shuffled(&mut Rng::stream(seed, SALT_URLS), n),
            corpus: Arc::new(corpus),
            seed,
        };
        (w, times)
    }
}

impl Workload for WarmGet {
    fn setup(seed: u64) -> (Self, SetupTimes) {
        WarmGet::setup(seed)
    }

    fn ladder() -> LadderSpec {
        LadderSpec {
            rates: vec![5_000.0, 15_000.0, 30_000.0],
            lo: 0,
            hi: 1,
            limit_ms: 100.0,
            max_lag_ms: 50.0,
            fail_budget: 0.0,
        }
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn into_cluster(self) -> Cluster {
        self.cluster
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn conns(&self) -> Vec<SocketAddr> {
        self.topo.conns()
    }

    fn source(&self, step: &StepPlan, start_ns: u64, traced: bool) -> Box<dyn StepSource> {
        let salt = (step.idx as u64 + 1) << 8;
        let arrivals = poisson_arrivals(
            &mut Rng::stream(self.seed, SALT_ARRIVALS ^ salt),
            step.rate,
            start_ns,
            step.len_ns,
        );
        let mut urls = Rng::stream(self.seed, SALT_URLS ^ salt);
        let docs: Vec<usize> = arrivals
            .iter()
            .map(|_| self.popularity[self.zipf.sample(&mut urls)])
            .collect();
        let fetches = arrivals
            .iter()
            .zip(docs)
            .map(|(&due, d)| Fetch::new(due, d, 0, self.corpus.dataset.docs[d].name.clone()))
            .collect();
        Box::new(OpenSource::new(
            fetches,
            self.corpus.clone(),
            self.topo.clone(),
            traced,
        ))
    }

    fn drain_ns(&self) -> u64 {
        3_000_000_000
    }
}

// ------------------------------------------------------------ sequoia_pull

/// `sequoia_pull`: large images, half served by co-op pulls.
pub struct SequoiaPull {
    /// Home and co-op.
    pub cluster: Cluster,
    /// Its corpus (index page + rasters).
    pub corpus: Arc<Corpus>,
    topo: Arc<Topology>,
    /// Per raster (corpus index 1..): the `(node, path)` the served
    /// index page links it at.
    links: Vec<(usize, String)>,
    /// Corpus indices of the migrated rasters.
    pub migrated: Vec<usize>,
    seed: u64,
}

/// The Sequoia corpus cut to its index page and first `n` rasters.
fn sequoia_slice(seed: u64, n: usize) -> Dataset {
    let mut docs = Dataset::sequoia(seed).docs;
    docs.truncate(n + 1);
    docs[0].anchors.truncate(n);
    Dataset::new("sequoia", docs)
}

/// Half the rasters, one from each pair of neighbours in size order
/// (the seed picks which), so the migrated half carries half the bytes
/// whatever the seed and the co-op's share of the work stays put.
fn half_by_size(corpus: &Corpus, seed: u64) -> Vec<usize> {
    let mut by_size: Vec<usize> = (1..corpus.dataset.docs.len()).collect();
    by_size.sort_by_key(|&i| corpus.bytes[i].len());
    let mut rng = Rng::stream(seed, SALT_MIGRATIONS);
    by_size
        .chunks(2)
        .filter(|p| p.len() == 2)
        .map(|p| p[rng.below(2) as usize])
        .collect()
}

impl SequoiaPull {
    /// Generate, publish on the home, migrate half the rasters, spawn,
    /// and learn each raster's URL from the served index page.
    pub fn setup(seed: u64) -> (SequoiaPull, SetupTimes) {
        let corpus = Corpus::build(|s| sequoia_slice(s, SEQUOIA_IMAGES), seed, None);
        let ids = cluster::reserve_ids(2);
        let (home_id, coop_id) = (ids[0].0.clone(), ids[1].0.clone());
        let mut home = cluster::engine(&home_id, std::slice::from_ref(&coop_id));
        let coop = cluster::engine(&coop_id, std::slice::from_ref(&home_id));
        let publish_s = cluster::publish_all(&mut home, &corpus);
        let mut migrated = half_by_size(&corpus, seed);
        migrated.sort_unstable();
        let names: Vec<&str> = migrated
            .iter()
            .map(|&i| corpus.dataset.docs[i].name.as_str())
            .collect();
        home.restore_migrations(&cluster::migration_lines(&names, &coop_id), 0);
        let c = Cluster::spawn(vec![(home, home_id, ids[0].1), (coop, coop_id, ids[1].1)]);
        let topo = Arc::new(Topology::of(&c, 2));
        let mut client = SetupClient::new(&topo);
        let (index, node, path) = client.get(0, "/index.html").expect("index GET");
        let base = topo.url(node, &path);
        let html = String::from_utf8_lossy(&index.body).into_owned();
        let found = resolved_links(&base, &html);
        let want: Vec<&str> = corpus.dataset.docs[0].all_links().collect();
        check_links("/index.html", &found, &want).expect("index links");
        let links: Vec<(usize, String)> = found
            .iter()
            .map(|(u, _)| {
                (
                    topo.node_of(u, node).expect("known node"),
                    u.path().to_string(),
                )
            })
            .collect();
        for (k, (n, p)) in links.iter().enumerate() {
            let (resp, _, _) = client.get(*n, p).expect("warm-up GET");
            check_final(p, &resp, Expect::Full(&corpus.bytes[k + 1])).expect("warm-up body");
        }
        let times = SetupTimes {
            generate_s: corpus.generate_s,
            materialize_s: corpus.materialize_s,
            publish_s,
        };
        let w = SequoiaPull {
            cluster: c,
            corpus: Arc::new(corpus),
            topo,
            links,
            migrated,
            seed,
        };
        (w, times)
    }
}

impl Workload for SequoiaPull {
    fn setup(seed: u64) -> (Self, SetupTimes) {
        SequoiaPull::setup(seed)
    }

    fn ladder() -> LadderSpec {
        LadderSpec {
            rates: vec![40.0, 70.0, 100.0],
            lo: 0,
            hi: 1,
            limit_ms: 250.0,
            max_lag_ms: 100.0,
            // Concurrent co-op requests for one unadmitted raster share a
            // single staged pull; the losers get a 500 (see README).
            fail_budget: 0.05,
        }
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn into_cluster(self) -> Cluster {
        self.cluster
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn migrated(&self) -> &[usize] {
        &self.migrated
    }

    fn conns(&self) -> Vec<SocketAddr> {
        self.topo.conns()
    }

    fn source(&self, step: &StepPlan, start_ns: u64, traced: bool) -> Box<dyn StepSource> {
        let salt = (step.idx as u64 + 1) << 8;
        let arrivals = poisson_arrivals(
            &mut Rng::stream(self.seed, SALT_ARRIVALS ^ salt),
            step.rate,
            start_ns,
            step.len_ns,
        );
        let mut urls = Rng::stream(self.seed, SALT_URLS ^ salt);
        let mut ranges = Rng::stream(self.seed, SALT_RANGES ^ salt);
        let plan: Vec<(usize, Option<(u64, u64)>)> = arrivals
            .iter()
            .map(|_| {
                let k = urls.below(self.links.len() as u64) as usize;
                let len = self.corpus.bytes[k + 1].len() as u64;
                let range = (ranges.unit() < SEQUOIA_RANGE_SHARE).then(|| {
                    let span = 1 + ranges.below(SEQUOIA_RANGE_MAX);
                    let s = ranges.below(len - span);
                    (s, s + span - 1)
                });
                (k, range)
            })
            .collect();
        let fetches = arrivals
            .iter()
            .zip(plan)
            .map(|(&due, (k, range))| {
                let (node, path) = &self.links[k];
                let mut f = Fetch::new(due, k + 1, *node, path.clone());
                f.range = range;
                f
            })
            .collect();
        Box::new(OpenSource::new(
            fetches,
            self.corpus.clone(),
            self.topo.clone(),
            traced,
        ))
    }

    fn drain_ns(&self) -> u64 {
        5_000_000_000
    }
}

// -------------------------------------------------------------- cluster_rw

/// Page versions on `cluster_rw`: what the author thread has started
/// and completed, for the version-token check.
pub struct Versions {
    started: Vec<AtomicU64>,
    completed: Vec<AtomicU64>,
    /// Per page: `(completed at ns, version)`, ascending.
    history: Mutex<Vec<Vec<(u64, u64)>>>,
}

impl Versions {
    fn new(n: usize) -> Versions {
        Versions {
            started: (0..n).map(|_| AtomicU64::new(0)).collect(),
            completed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            history: Mutex::new(vec![Vec::new(); n]),
        }
    }

    /// The newest version of `doc` whose publish completed by `t_ns`.
    fn completed_by(&self, doc: usize, t_ns: u64) -> u64 {
        let h = self.history.lock().expect("history");
        h[doc]
            .iter()
            .rev()
            .find(|(t, _)| *t <= t_ns)
            .map_or(0, |&(_, v)| v)
    }
}

/// What the author thread measured.
#[derive(Debug, Default)]
pub struct AuthorLog {
    /// Updates published.
    pub updates: u64,
    /// Engine-lock acquisition waits, µs.
    pub lock_wait_us: Vec<f64>,
    /// `ServerEngine::publish` durations, µs.
    pub publish_us: Vec<f64>,
}

/// `cluster_rw`: Algorithm-2 sessions on LOD beside author updates.
pub struct ClusterRw {
    /// Home and co-op.
    pub cluster: Cluster,
    /// LOD with version-stamped pages.
    pub corpus: Arc<Corpus>,
    topo: Arc<Topology>,
    versions: Arc<Versions>,
    /// Pages the author thread republishes: the entry page and every
    /// page left at home.
    updatable: Vec<usize>,
    /// Corpus indices of the migrated documents.
    pub migrated: Vec<usize>,
    /// The co-op validation interval T_val, ns: a co-op copy may be this
    /// much older than the home's.
    t_val_ns: u64,
    seed: u64,
}

impl ClusterRw {
    /// Generate LOD, publish on the home, migrate a seeded quarter of the
    /// non-entry documents, spawn both servers and warm every document.
    pub fn setup(seed: u64) -> (ClusterRw, SetupTimes) {
        let corpus = Corpus::build(Dataset::lod, seed, Some(check::stamp_version));
        let ids = cluster::reserve_ids(2);
        let (home_id, coop_id) = (ids[0].0.clone(), ids[1].0.clone());
        let mut home = cluster::engine(&home_id, std::slice::from_ref(&coop_id));
        let coop = cluster::engine(&coop_id, std::slice::from_ref(&home_id));
        let t_val_ns = home.config().validation_interval_ms * 1_000_000;
        let publish_s = cluster::publish_all(&mut home, &corpus);
        let docs = &corpus.dataset.docs;
        let candidates: Vec<usize> = (0..docs.len()).filter(|&i| !docs[i].entry_point).collect();
        let order = shuffled(&mut Rng::stream(seed, SALT_MIGRATIONS), candidates.len());
        let k = (candidates.len() as f64 * LOD_MIGRATED_SHARE) as usize;
        let mut migrated: Vec<usize> = order[..k].iter().map(|&j| candidates[j]).collect();
        migrated.sort_unstable();
        let names: Vec<&str> = migrated.iter().map(|&i| docs[i].name.as_str()).collect();
        home.restore_migrations(&cluster::migration_lines(&names, &coop_id), 0);
        let updatable: Vec<usize> = (0..docs.len())
            .filter(|i| docs[*i].kind == PageKind::Html && migrated.binary_search(i).is_err())
            .collect();
        let c = Cluster::spawn(vec![(home, home_id, ids[0].1), (coop, coop_id, ids[1].1)]);
        let topo = Arc::new(Topology::of(&c, 2));
        let mut client = SetupClient::new(&topo);
        for (i, d) in docs.iter().enumerate() {
            let (resp, node, path) = client.get(0, &d.name).expect("warm-up GET");
            if d.kind == PageKind::Html {
                check_version(&d.name, &resp.body, 0, 0).expect("warm-up version");
                let html = String::from_utf8_lossy(&resp.body).into_owned();
                let want: Vec<&str> = d.all_links().collect();
                check_links(
                    &d.name,
                    &resolved_links(&topo.url(node, &path), &html),
                    &want,
                )
                .expect("warm-up links");
            } else {
                check_final(&d.name, &resp, Expect::Full(&corpus.bytes[i])).expect("warm-up body");
            }
        }
        let times = SetupTimes {
            generate_s: corpus.generate_s,
            materialize_s: corpus.materialize_s,
            publish_s,
        };
        let n = docs.len();
        let w = ClusterRw {
            cluster: c,
            corpus: Arc::new(corpus),
            topo,
            versions: Arc::new(Versions::new(n)),
            updatable,
            migrated,
            t_val_ns,
            seed,
        };
        (w, times)
    }

    /// Republish seeded pages at [`UPDATES_PER_S`] until `stop`, through
    /// the home's engine lock, as an author would.
    pub fn author(&self, clock: &Clock, stop: &AtomicBool) -> AuthorLog {
        let mut rng = Rng::stream(self.seed, SALT_UPDATES);
        let mut log = AuthorLog::default();
        let gap = Duration::from_secs_f64(1.0 / UPDATES_PER_S);
        let home = &self.cluster.nodes[0].server;
        while !stop.load(Ordering::Relaxed) {
            std::thread::sleep(gap);
            let p = self.updatable[rng.below(self.updatable.len() as u64) as usize];
            let spec = &self.corpus.dataset.docs[p];
            let v = self.versions.started[p].load(Ordering::Relaxed) + 1;
            self.versions.started[p].store(v, Ordering::SeqCst);
            let bytes = check::stamp_version(&dcws_workloads::materialize::materialize(spec), v);
            let t0 = Instant::now();
            let mut engine = home.engine().lock();
            log.lock_wait_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t1 = Instant::now();
            engine.publish(
                &spec.name,
                bytes,
                dcws_graph::DocKind::Html,
                spec.entry_point,
            );
            log.publish_us.push(t1.elapsed().as_secs_f64() * 1e6);
            drop(engine);
            self.versions.history.lock().expect("history")[p].push((clock.now(), v));
            self.versions.completed[p].store(v, Ordering::SeqCst);
            log.updates += 1;
        }
        log
    }
}

impl Workload for ClusterRw {
    fn setup(seed: u64) -> (Self, SetupTimes) {
        ClusterRw::setup(seed)
    }

    fn ladder() -> LadderSpec {
        LadderSpec {
            rates: vec![100.0, 250.0, 500.0],
            lo: 0,
            hi: 1,
            limit_ms: 100.0,
            max_lag_ms: 50.0,
            fail_budget: 0.0,
        }
    }

    fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn into_cluster(self) -> Cluster {
        self.cluster
    }

    fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    fn migrated(&self) -> &[usize] {
        &self.migrated
    }

    fn background(&self, clock: &Clock, stop: &AtomicBool) -> Option<AuthorLog> {
        Some(self.author(clock, stop))
    }

    fn conns(&self) -> Vec<SocketAddr> {
        self.topo.conns()
    }

    fn source(&self, step: &StepPlan, start_ns: u64, traced: bool) -> Box<dyn StepSource> {
        let salt = (step.idx as u64 + 1) << 8;
        let arrivals = poisson_arrivals(
            &mut Rng::stream(self.seed, SALT_ARRIVALS ^ salt),
            step.rate,
            start_ns,
            step.len_ns,
        );
        let sessions = session_draws(self.seed, salt, &arrivals);
        Box::new(SessionSource {
            sessions,
            next: 0,
            fetches: Vec::new(),
            owner: Vec::new(),
            w: self.shared(),
            traced,
            wrong: Vec::new(),
        })
    }

    fn drain_ns(&self) -> u64 {
        5_000_000_000
    }
}

impl ClusterRw {
    fn shared(&self) -> SessionShared {
        SessionShared {
            corpus: self.corpus.clone(),
            topo: self.topo.clone(),
            versions: self.versions.clone(),
            t_val_ns: self.t_val_ns,
        }
    }
}

/// What every session source reads.
struct SessionShared {
    corpus: Arc<Corpus>,
    topo: Arc<Topology>,
    versions: Arc<Versions>,
    t_val_ns: u64,
}

/// One Algorithm-2 client session: an entry page, its embedded images,
/// then a link chosen from the page just served, `steps_left` times.
struct Session {
    due: u64,
    rng: Rng,
    steps_left: u64,
    images_left: usize,
    /// The page to fetch once the current page's images are in.
    next_page: Option<(usize, String)>,
}

/// One session per arrival, each with its own walk length and link
/// draws, all derived from `seed`.
fn session_draws(seed: u64, salt: u64, arrivals: &[u64]) -> Vec<Session> {
    let mut draws = Rng::stream(seed, SALT_SESSIONS ^ salt);
    arrivals
        .iter()
        .map(|&due| {
            let mut rng = Rng::stream(draws.next_u64(), SALT_SESSIONS);
            Session {
                due,
                steps_left: 1 + rng.below(MAX_STEPS),
                rng,
                images_left: 0,
                next_page: None,
            }
        })
        .collect()
}

/// Sessions arriving open-loop; each walks closed-loop.
struct SessionSource {
    sessions: Vec<Session>,
    next: usize,
    fetches: Vec<Fetch>,
    /// Session of each fetch.
    owner: Vec<usize>,
    w: SessionShared,
    traced: bool,
    wrong: Vec<String>,
}

impl SessionSource {
    /// Start a fetch of `(node, path)` for session `s`, due `now`.
    fn start(&mut self, s: usize, node: usize, path: String, now: u64, out: &mut Vec<Outgoing>) {
        let name = home_path(&self.w.topo.url(node, &path));
        let Some(doc) = name.and_then(|n| self.w.corpus.index.get(&n).copied()) else {
            if self.wrong.len() < 8 {
                self.wrong
                    .push(format!("{path}: link to a document outside the corpus"));
            }
            let mut f = Fetch::new(now, 0, node, path);
            f.status = Status::Wrong;
            self.fetches.push(f);
            self.owner.push(s);
            return;
        };
        let mut f = Fetch::new(now, doc, node, path.clone());
        f.left = now;
        f.min_version = self.w.versions.completed[doc].load(Ordering::SeqCst);
        let token = self.fetches.len();
        self.fetches.push(f);
        self.owner.push(s);
        out.push(Outgoing {
            conn: node * self.w.topo.lanes + s % self.w.topo.lanes,
            wire: get_wire(&path, None),
            token,
            method: Method::Get,
        });
    }

    /// A fetch of session `s` ended (any outcome): move the walk on.
    fn advance(
        &mut self,
        s: usize,
        was_page: bool,
        page_ok: bool,
        now: u64,
        out: &mut Vec<Outgoing>,
    ) {
        let sess = &mut self.sessions[s];
        if was_page && !page_ok {
            sess.next_page = None;
            sess.images_left = 0;
            return;
        }
        if !was_page {
            sess.images_left = sess.images_left.saturating_sub(1);
        }
        if sess.images_left == 0 {
            if let Some((node, path)) = sess.next_page.take() {
                self.start(s, node, path, now, out);
            }
        }
    }

    /// Check a served page, then queue its images and choose the next link.
    fn on_page(
        &mut self,
        token: usize,
        r: &Reply,
        node: usize,
        path: &str,
        out: &mut Vec<Outgoing>,
    ) -> Result<(), Fail> {
        if r.resp.status != StatusCode::Ok {
            return Err(status_fail(path, r.resp.status, StatusCode::Ok));
        }
        let f = &self.fetches[token];
        let doc = f.doc as usize;
        let spec = &self.w.corpus.dataset.docs[doc];
        // A co-op copy may lag the home by one validation interval.
        let min = if node == 0 {
            f.min_version
        } else {
            self.w
                .versions
                .completed_by(doc, f.left.saturating_sub(self.w.t_val_ns))
        };
        let max = self.w.versions.started[doc].load(Ordering::SeqCst);
        check_version(&spec.name, &r.resp.body, min, max).map_err(Fail::Wrong)?;
        let html = String::from_utf8_lossy(&r.resp.body);
        let links = resolved_links(&self.w.topo.url(node, path), &html);
        let want: Vec<&str> = spec.all_links().collect();
        check_links(&spec.name, &links, &want).map_err(Fail::Wrong)?;
        let s = self.owner[token];
        let mut images = Vec::new();
        let mut anchors = Vec::new();
        for (u, kind) in &links {
            let target = (
                self.w
                    .topo
                    .node_of(u, node)
                    .ok_or_else(|| Fail::Wrong(format!("{u:?}: unknown host")))?,
                u.path().to_string(),
            );
            match kind {
                dcws_html::LinkKind::Embedded => images.push(target),
                dcws_html::LinkKind::Hyperlink => anchors.push(target),
            }
        }
        let sess = &mut self.sessions[s];
        sess.steps_left = sess.steps_left.saturating_sub(1);
        sess.next_page = if sess.steps_left > 0 && !anchors.is_empty() {
            Some(anchors.swap_remove(sess.rng.below(anchors.len() as u64) as usize))
        } else {
            None
        };
        sess.images_left = images.len();
        for (n, p) in images {
            self.start(s, n, p, r.done_ns, out);
        }
        Ok(())
    }
}

impl Source for SessionSource {
    fn next_due(&self) -> Option<u64> {
        self.sessions.get(self.next).map(|s| s.due)
    }

    fn take_due(&mut self, now: u64, out: &mut Vec<Outgoing>) -> usize {
        let mut n = 0;
        while self.next < self.sessions.len() && self.sessions[self.next].due <= now {
            let s = self.next;
            self.next += 1;
            let due = self.sessions[s].due;
            self.start(s, 0, "/index.html".to_string(), due, out);
            let f = self.fetches.last_mut().expect("just started");
            f.left = now;
            n += 1;
        }
        n
    }

    fn on_reply(&mut self, r: Reply, out: &mut Vec<Outgoing>) {
        let token = r.token;
        let lane = self.owner[token] % self.w.topo.lanes;
        if r.resp.status.is_redirect() {
            let f = &mut self.fetches[token];
            match hop(f, token, &r, &self.w.topo, lane, self.traced) {
                Some(is) => out.push(is),
                None => {
                    f.status = Status::Failed;
                    f.done = r.done_ns;
                    let (s, page) = (self.owner[token], self.is_page(token));
                    self.advance(s, page, false, r.done_ns, out);
                }
            }
            return;
        }
        let (node, path) = self.fetches[token].cur.clone().expect("in flight");
        let page = self.is_page(token);
        let verdict = if page {
            self.on_page(token, &r, node as usize, &path, out)
        } else {
            let doc = self.fetches[token].doc as usize;
            check_final(&path, &r.resp, Expect::Full(&self.w.corpus.bytes[doc]))
        };
        let ok = verdict.is_ok();
        settle(&mut self.fetches[token], &r, verdict, &mut self.wrong);
        let s = self.owner[token];
        self.advance(s, page, ok, r.done_ns, out);
    }

    fn on_error(&mut self, token: usize, now: u64, out: &mut Vec<Outgoing>) {
        let f = &mut self.fetches[token];
        f.status = Status::Failed;
        f.done = now;
        let (s, page) = (self.owner[token], self.is_page(token));
        self.advance(s, page, false, now, out);
    }
}

impl SessionSource {
    fn is_page(&self, token: usize) -> bool {
        self.w.corpus.dataset.docs[self.fetches[token].doc as usize].kind == PageKind::Html
    }
}

impl StepSource for SessionSource {
    fn finish(self: Box<Self>) -> (Vec<Fetch>, Vec<String>) {
        (self.fetches, self.wrong)
    }
}

/// A fresh engine built from the same inputs as a live node: the
/// replica the traced run replays engine calls on.
pub fn replica_engine(
    id: &ServerId,
    peers: &[ServerId],
    corpus: Option<&Corpus>,
    migrated: &[usize],
    coop: Option<&ServerId>,
) -> dcws_core::ServerEngine {
    let mut e = cluster::engine(id, peers);
    if let Some(c) = corpus {
        cluster::publish_all(&mut e, c);
        if let Some(coop) = coop {
            let names: Vec<&str> = migrated
                .iter()
                .map(|&i| c.dataset.docs[i].name.as_str())
                .collect();
            e.restore_migrations(&cluster::migration_lines(&names, coop), 0);
        }
    }
    e
}

/// A request as the reactor would parse it.
pub fn request_of(path: &str, range: Option<(u64, u64)>) -> Request {
    dcws_http::parse_request(&get_wire(path, range))
        .expect("well-formed request")
        .expect("complete request")
        .message
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walks(seed: u64) -> Vec<(u64, u64, Vec<u64>)> {
        let arrivals = poisson_arrivals(
            &mut Rng::stream(seed, SALT_ARRIVALS),
            200.0,
            0,
            1_000_000_000,
        );
        session_draws(seed, 1 << 8, &arrivals)
            .into_iter()
            .map(|mut s| {
                (
                    s.due,
                    s.steps_left,
                    (0..4).map(|_| s.rng.below(30)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn session_draws_are_identical_for_one_seed_and_differ_for_another() {
        let a = walks(11);
        assert_eq!(a, walks(11));
        assert_ne!(a, walks(12));
        assert!(a
            .iter()
            .all(|(_, steps, _)| (1..=MAX_STEPS).contains(steps)));
        // Sessions draw independently of each other.
        assert_ne!(a[0].2, a[1].2);
    }

    #[test]
    fn sequoia_slice_keeps_index_and_first_rasters() {
        let d = sequoia_slice(3, 5);
        assert_eq!(d.docs.len(), 6);
        assert_eq!(d.docs[0].anchors.len(), 5);
        assert_eq!(d.check_links(), None);
        assert!(d.docs[1..]
            .iter()
            .all(|x| (1_000_000..2_800_000).contains(&x.size)));
    }
}
