//! The simulated cluster: servers with CPU/NIC/backlog models, Algorithm-2
//! clients, and the event loop that binds them.
//!
//! Every server hosts a real [`ServerEngine`] — the same code that runs on
//! TCP in `dcws-net` — so migrations, hyperlink rewrites, redirects,
//! piggybacked gossip, pulls, validations, and pings all actually happen;
//! only wire time and CPU time are modeled.
//!
//! # Scale-out structure
//!
//! Per-server and per-client state live in flat `Vec` slabs addressed by
//! index; the hot routing path parses the simulator's `s<idx>` host
//! naming directly instead of building `ServerId` keys, so steady-state
//! event handling performs no per-event map allocation (the run loop
//! carries a debug-build micro-assert, armed by `tests/alloc_probe.rs`).
//! The few id-keyed structures left — pull parking, the DNS resolver's
//! peer list — are either cold-path or deterministic-ordered (`BTreeMap`),
//! which is what makes crash schedules replay byte-identically.

use crate::config::{NetModel, SimConfig};
use crate::event::{Delivery, Event, EventQueue, Origin, Purpose, SimTime};
use crate::metrics::{Counters, LatencyHist, Sample, SimResult};
use dcws_baselines::{CentralRouter, RoundRobinDns, Strategy};
use dcws_core::{EventRecord, MemStore, Outcome, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_http::{Request, Response, StatusCode, Url};
use dcws_workloads::{materialize::materialize, PageKind};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Synthetic `from` index for connection-level failures.
const FROM_NONE: usize = usize::MAX;

/// Estimated header bytes per response on the wire (request + response
/// heads + TCP setup/teardown packets).
const WIRE_OVERHEAD_BYTES: usize = 300;

struct ServerSt {
    engine: ServerEngine,
    /// Socket queue of backlogged requests (L_sq limit applies).
    queue: VecDeque<(Request, Origin)>,
    busy: bool,
    /// The response being serviced, shipped at `ServiceDone`.
    in_service: Option<(Response, Origin)>,
    nic_free_at: SimTime,
    /// Requests parked awaiting a lazy pull, by (home index, path).
    /// Ordered so crash-time drains replay deterministically.
    parked: BTreeMap<(usize, String), Vec<(Request, Origin)>>,
    crashed: bool,
    /// 503s issued by the front end.
    drops: u64,
}

#[derive(Debug, Clone)]
enum CacheEntry {
    Html {
        anchors: Vec<String>,
        embeds: Vec<String>,
    },
    Other,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    NewSession,
    IssueDoc,
    AwaitDoc,
    Images,
    NextStep,
}

struct PendingFetch {
    url: Url,
    redirects_left: u32,
    /// When the first request of this fetch left the client, for
    /// end-to-end response-time accounting (redirect hops and lazy-pull
    /// waits included).
    issued_at: SimTime,
}

struct ClientSt {
    rng: StdRng,
    state: CState,
    cache: HashMap<String, CacheEntry>,
    steps_left: u32,
    current_url: Option<Url>,
    current_anchors: Vec<String>,
    pending_doc: Option<(u64, PendingFetch)>,
    /// Outstanding image fetches (≤ `helpers` entries); a flat vec beats
    /// a map at this size and keeps the hot path allocation-light.
    images_pending: Vec<(u64, PendingFetch)>,
    images_queue: VecDeque<String>,
    next_token: u64,
    backoff_pow: u32,
}

impl ClientSt {
    /// The in-flight image fetch for `token`, if any.
    fn image_mut(&mut self, token: u64) -> Option<&mut PendingFetch> {
        self.images_pending
            .iter_mut()
            .find(|(t, _)| *t == token)
            .map(|(_, p)| p)
    }

    /// Remove and return the in-flight image fetch for `token`.
    fn image_take(&mut self, token: u64) -> Option<PendingFetch> {
        let pos = self.images_pending.iter().position(|(t, _)| *t == token)?;
        Some(self.images_pending.remove(pos).1)
    }
}

/// The simulated cluster. Construct with [`SimCluster::new`], then call
/// [`SimCluster::run`] (or use the [`crate::run_sim`] convenience).
pub struct SimCluster {
    cfg: SimConfig,
    queue: EventQueue,
    now: SimTime,
    servers: Vec<ServerSt>,
    clients: Vec<ClientSt>,
    /// Cold-path id→index map (peer lookups, DNS results). The hot client
    /// route parses `s<idx>` hosts directly and never touches this.
    id_to_idx: HashMap<ServerId, usize>,
    /// Index→id slab, for restarts and control-plane targets.
    server_ids: Vec<ServerId>,
    /// The effective per-server engine config (strategy adjustments
    /// applied), kept for cold restarts.
    server_config: ServerConfig,
    entry_urls: Vec<Url>,
    dns: Option<RoundRobinDns>,
    router: Option<CentralRouter>,
    /// Router pseudo-server CPU/queue state.
    router_queue: VecDeque<(Request, Origin)>,
    router_busy: bool,
    switch_free_at: SimTime,
    /// Active flows under [`NetModel::SharedBandwidth`].
    switch_flows: u64,
    switch_peak_flows: u64,
    counters: Counters,
    samples: Vec<Sample>,
    last_counters: Counters,
    last_server_served: Vec<u64>,
    /// Scheduled crashes (ms, server index) from the config.
    crashes: Vec<(u64, usize)>,
    /// Scheduled cold restarts (ms, server index); see
    /// [`SimCluster::with_restart_schedule`].
    restarts: Vec<(u64, usize)>,
    /// Memoized client-side parse results keyed by (final URL, body hash):
    /// clients re-fetch the same served bytes constantly, and parsing is a
    /// pure function of them. Entries are invalidated naturally because a
    /// regenerated document hashes differently.
    parse_cache: HashMap<(String, u64), (Vec<String>, Vec<String>)>,
    /// Access log accumulated when `record_trace` is set.
    trace_out: Vec<crate::trace::TraceEvent>,
    /// Engine events drained from every server at each sample point
    /// (so the bounded per-engine ring never overflows between samples),
    /// tagged with the server index.
    engine_events: Vec<(usize, EventRecord)>,
    /// Outstanding open-loop replay fetches: token -> (client, redirects left).
    replay_pending: HashMap<u64, (usize, u32)>,
    replay_next_token: u64,
    /// Sum of end-to-end fetch latencies (200-completed only), µs.
    latency_us_sum: u64,
    /// Number of latencies in `latency_us_sum`.
    latency_n: u64,
    /// Log₂-bucketed end-to-end latency distribution (200-completed only).
    latency: LatencyHist,
    /// Events handled by the run loop.
    events: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Index used for the router pseudo-server in events.
fn router_idx(n_servers: usize) -> usize {
    n_servers
}

impl SimCluster {
    /// Build a cluster per `cfg`: create engines, distribute the dataset
    /// (server 0 is the home under DCWS; full replication otherwise),
    /// and register peers.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_crashes(cfg, Vec::new())
    }

    /// [`SimCluster::new`] driven by the same seeded fault vocabulary as
    /// the real transport: every [`Blackout`](dcws_net::Blackout) in
    /// `plan` whose peer names a simulated server (`"s2:80"` or bare
    /// `"2"`; the `"*"` wildcard is ignored) becomes a crash at its
    /// `from_ms`. The simulator models fail-stop servers, so blackouts
    /// do not heal at `until_ms` — use the real-TCP chaos suite for
    /// partition-heal scenarios.
    pub fn with_fault_plan(cfg: SimConfig, plan: &dcws_net::FaultPlan) -> Self {
        let n = cfg.n_servers;
        let mut crashes: Vec<(u64, usize)> = plan
            .blackouts
            .iter()
            .filter_map(|b| {
                let idx = (0..n).find(|i| {
                    b.peer == format!("s{i}:80")
                        || b.peer == format!("s{i}")
                        || b.peer == format!("{i}")
                })?;
                Some((b.from_ms, idx))
            })
            .collect();
        crashes.sort_unstable();
        // Fail-stop: only the first blackout per server matters.
        let mut seen = std::collections::HashSet::new();
        crashes.retain(|&(_, idx)| seen.insert(idx));
        Self::with_crashes(cfg, crashes)
    }

    /// [`SimCluster::new`] plus scheduled server crashes `(t_ms, server)`
    /// for the fault-tolerance experiments.
    pub fn with_crashes(cfg: SimConfig, crashes: Vec<(u64, usize)>) -> Self {
        assert!(cfg.n_servers >= 1, "need at least one server");
        assert!(cfg.n_clients >= 1, "need at least one client");
        let ids: Vec<ServerId> = (0..cfg.n_servers)
            .map(|i| ServerId::new(format!("s{i}:80")))
            .collect();
        // Replicated baselines must not run DCWS migrations on top.
        let mut server_config = cfg.server_config.clone();
        if cfg.strategy.replicated() {
            server_config.min_cps_to_migrate = f64::INFINITY;
        }
        let mut servers: Vec<ServerSt> = ids
            .iter()
            .map(|id| ServerSt {
                engine: ServerEngine::new(
                    id.clone(),
                    server_config.clone(),
                    Box::new(MemStore::new()),
                ),
                queue: VecDeque::new(),
                busy: false,
                in_service: None,
                nic_free_at: 0,
                parked: BTreeMap::new(),
                crashed: false,
                drops: 0,
            })
            .collect();

        // Register the peer group on every engine.
        for srv in &mut servers {
            for id in &ids {
                srv.engine.add_peer(id.clone());
            }
        }

        // Distribute the dataset.
        let replicated = cfg.strategy.replicated();
        let targets: Vec<usize> = if replicated {
            (0..servers.len()).collect()
        } else {
            vec![0]
        };
        for &t in &targets {
            for doc in &cfg.dataset.docs {
                let kind = match doc.kind {
                    PageKind::Html => DocKind::Html,
                    PageKind::Image => DocKind::Image,
                };
                servers[t]
                    .engine
                    .publish(&doc.name, materialize(doc), kind, doc.entry_point);
            }
        }

        let id_to_idx: HashMap<ServerId, usize> = ids
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, id)| (id, i))
            .collect();

        // Entry-point URLs always name the home server (server 0); for
        // replicated strategies routing overrides the host anyway.
        let (h, p) = ids[0].host_port();
        let entry_urls: Vec<Url> = cfg
            .dataset
            .entry_points()
            .iter()
            .map(|d| Url::absolute(h, p, d.name.clone()).expect("dataset names are valid paths"))
            .collect();
        assert!(!entry_urls.is_empty(), "dataset has no entry points");

        let dns = match cfg.strategy {
            Strategy::RoundRobinDns { ttl_ms } => Some(RoundRobinDns::new(ids.clone(), ttl_ms)),
            _ => None,
        };
        let router = match cfg.strategy {
            Strategy::CentralRouter { forward_cpu_us } => {
                Some(CentralRouter::new(ids.clone(), forward_cpu_us))
            }
            _ => None,
        };

        if let Some(starts) = &cfg.client_starts {
            assert_eq!(starts.len(), cfg.n_clients, "client_starts length");
        }
        if let Some(stops) = &cfg.client_stops {
            assert_eq!(stops.len(), cfg.n_clients, "client_stops length");
        }
        if let Some(h) = &cfg.hot_entry {
            assert!((0.0..=1.0).contains(&h.prob), "hot_entry.prob in [0,1]");
        }

        // Each client draws from its own named stream off the master seed,
        // so adding clients (or scenario draws) never perturbs existing ones.
        let clients: Vec<ClientSt> = (0..cfg.n_clients)
            .map(|i| ClientSt {
                rng: crate::seed::stream(cfg.seed, "client", i as u64),
                state: CState::NewSession,
                cache: HashMap::new(),
                steps_left: 0,
                current_url: None,
                current_anchors: Vec::new(),
                pending_doc: None,
                images_pending: Vec::new(),
                images_queue: VecDeque::new(),
                next_token: 0,
                backoff_pow: 0,
            })
            .collect();

        let n = servers.len();
        // Steady state keeps roughly a few events in flight per client plus
        // one tick per server; presizing keeps heap growth out of the loop.
        let queue_cap = (cfg.n_clients * 8 + n * 2 + 64).next_power_of_two();
        SimCluster {
            cfg,
            queue: EventQueue::with_capacity(queue_cap),
            now: 0,
            servers,
            clients,
            id_to_idx,
            server_ids: ids,
            server_config,
            entry_urls,
            dns,
            router,
            router_queue: VecDeque::new(),
            router_busy: false,
            switch_free_at: 0,
            switch_flows: 0,
            switch_peak_flows: 0,
            counters: Counters::default(),
            samples: Vec::new(),
            last_counters: Counters::default(),
            last_server_served: vec![0; n],
            crashes,
            restarts: Vec::new(),
            parse_cache: HashMap::new(),
            trace_out: Vec::new(),
            engine_events: Vec::new(),
            replay_pending: HashMap::new(),
            replay_next_token: 0,
            latency_us_sum: 0,
            latency_n: 0,
            latency: LatencyHist::default(),
            events: 0,
        }
    }

    /// Schedule cold restarts `(t_ms, server)`: a crashed server comes back
    /// with a fresh engine and an empty store (plus the dataset it would
    /// hold on a cold deploy: the originals on the home, a full copy under
    /// replicated strategies). Restarting a live server is a no-op, so pair
    /// each entry with an earlier crash.
    pub fn with_restart_schedule(mut self, restarts: Vec<(u64, usize)>) -> Self {
        self.restarts = restarts;
        self
    }

    /// Run to completion and reduce the metrics.
    pub fn run(mut self) -> SimResult {
        self.run_loop();
        self.collect()
    }

    /// Run to completion, then audit quiesced ownership (documents lost,
    /// multiply owned, GLT staleness) across the surviving servers. The
    /// scenario invariant tests use this; `run` skips the audit walk.
    pub fn run_audited(mut self) -> (SimResult, OwnershipAudit) {
        self.run_loop();
        let result = self.collect();
        let audit = self.quiesce_audit();
        (result, audit)
    }

    fn run_loop(&mut self) {
        let duration_us = self.cfg.duration_ms * 1_000;
        // Prime the schedule: ticks, samples, staggered client starts,
        // crashes, restarts.
        for s in 0..self.servers.len() {
            self.queue.push(
                self.cfg.tick_interval_ms * 1_000,
                Event::ServerTick { server: s },
            );
        }
        self.queue
            .push(self.cfg.sample_interval_ms * 1_000, Event::Sample);
        if let Some(trace) = self.cfg.replay.clone() {
            // Open-loop replay: requests fire at their recorded times;
            // Algorithm-2 clients stay idle.
            for (idx, ev) in trace.events.iter().enumerate() {
                self.queue
                    .push(ev.t_ms * 1_000 + 1, Event::ReplayFire { idx });
            }
        } else if let Some(starts) = self.cfg.client_starts.clone() {
            // Scenario-shaped arrivals: each client wakes at its own time.
            for (c, &t_ms) in starts.iter().enumerate() {
                self.queue
                    .push((t_ms * 1_000).max(1), Event::ClientWake { client: c });
            }
        } else {
            for c in 0..self.clients.len() {
                // Spread session starts over the first second.
                let jitter = (c as u64 * 1_000_000 / self.clients.len() as u64).max(1);
                self.queue.push(jitter, Event::ClientWake { client: c });
            }
        }
        for &(t_ms, s) in &self.restarts {
            self.queue
                .push((t_ms * 1_000).max(1), Event::ServerRestart { server: s });
        }
        let mut crashes = std::mem::take(&mut self.crashes);
        crashes.sort();
        let mut crash_iter = crashes.into_iter().peekable();

        loop {
            // The queue pop itself must never allocate: it is the one
            // operation every single event pays for. The probe harness
            // (tests/alloc_probe.rs) arms this assert.
            #[cfg(debug_assertions)]
            let allocs_before = crate::alloc::allocations();
            let popped = self.queue.pop();
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                crate::alloc::allocations(),
                allocs_before,
                "event-queue pop must not allocate"
            );
            let Some((t, ev)) = popped else { break };
            // Apply any crash whose time has come before this event.
            while let Some(&(ct_ms, cs)) = crash_iter.peek() {
                if ct_ms * 1_000 <= t {
                    self.crash_server(cs);
                    crash_iter.next();
                } else {
                    break;
                }
            }
            if t > duration_us {
                break;
            }
            self.now = t;
            self.events += 1;
            self.handle(ev);
        }
    }

    fn crash_server(&mut self, s: usize) {
        let srv = &mut self.servers[s];
        srv.crashed = true;
        srv.busy = false;
        srv.in_service = None;
        // Connections die: every queued requester sees a failure.
        let dead: Vec<(Request, Origin)> = srv.queue.drain(..).collect();
        // BTreeMap: drains in key order, so the failure deliveries replay
        // identically run to run.
        let parked: Vec<(Request, Origin)> = std::mem::take(&mut srv.parked)
            .into_values()
            .flatten()
            .collect();
        for (_, origin) in dead.into_iter().chain(parked) {
            self.queue.push(
                self.now + 1,
                Event::Deliver {
                    origin,
                    delivery: Delivery::Failed,
                    from: FROM_NONE,
                },
            );
        }
    }

    fn collect(&mut self) -> SimResult {
        let mut regenerations = 0;
        let mut migrations = 0;
        let mut revocations = 0;
        let mut cache = dcws_cache::CacheStats::default();
        for (i, s) in self.servers.iter_mut().enumerate() {
            let st = s.engine.stats();
            regenerations += st.regenerations;
            migrations += st.migrations;
            revocations += st.revocations;
            cache = cache
                .merged(&s.engine.regen_cache().stats())
                .merged(&s.engine.coop_cache().stats());
            let tail: Vec<(usize, EventRecord)> = s
                .engine
                .drain_events()
                .into_iter()
                .map(|r| (i, r))
                .collect();
            self.engine_events.extend(tail);
        }
        // Causal order across the cluster: engine time, then server, then
        // each engine's own sequence number.
        self.engine_events
            .sort_by_key(|(srv, r)| (r.t_ms, *srv, r.seq));
        SimResult {
            samples: std::mem::take(&mut self.samples),
            totals: self.counters,
            regenerations,
            migrations,
            revocations,
            cache,
            mean_response_ms: if self.latency_n == 0 {
                0.0
            } else {
                self.latency_us_sum as f64 / self.latency_n as f64 / 1_000.0
            },
            latency: self.latency.clone(),
            events: self.events,
            switch_peak_flows: self.switch_peak_flows,
            duration_ms: self.cfg.duration_ms,
            trace: if self.cfg.record_trace {
                Some(crate::trace::Trace::new(std::mem::take(
                    &mut self.trace_out,
                )))
            } else {
                None
            },
            engine_events: std::mem::take(&mut self.engine_events),
        }
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::RequestArrive {
                server,
                req,
                origin,
            } => self.request_arrive(server, req, origin),
            Event::ServiceDone { server } => self.service_done(server),
            Event::Deliver {
                origin,
                delivery,
                from,
            } => self.deliver(origin, delivery, from),
            Event::ServerTick { server } => self.server_tick(server),
            Event::ClientWake { client } => self.client_wake(client),
            Event::Sample => self.sample(),
            Event::ReplayFire { idx } => self.replay_fire(idx),
            Event::SwitchRelease => {
                self.switch_flows = self.switch_flows.saturating_sub(1);
            }
            Event::ServerRestart { server } => self.restart_server(server),
        }
    }

    /// Cold-restart a crashed server: fresh engine, empty store, the full
    /// peer group re-registered, plus the dataset a cold deploy would hold.
    /// Everything it had migrated or cached before the crash is gone — the
    /// group must re-converge, which is exactly what the rolling-restart
    /// scenario measures.
    fn restart_server(&mut self, s: usize) {
        if !self.servers[s].crashed {
            return;
        }
        let mut engine = ServerEngine::new(
            self.server_ids[s].clone(),
            self.server_config.clone(),
            Box::new(MemStore::new()),
        );
        for id in &self.server_ids {
            engine.add_peer(id.clone());
        }
        if s == 0 || self.cfg.strategy.replicated() {
            for doc in &self.cfg.dataset.docs {
                let kind = match doc.kind {
                    PageKind::Html => DocKind::Html,
                    PageKind::Image => DocKind::Image,
                };
                engine.publish(&doc.name, materialize(doc), kind, doc.entry_point);
            }
        }
        let srv = &mut self.servers[s];
        // Preserve the dead engine's event tail before replacing it.
        let tail: Vec<(usize, EventRecord)> = srv
            .engine
            .drain_events()
            .into_iter()
            .map(|r| (s, r))
            .collect();
        self.engine_events.extend(tail);
        let srv = &mut self.servers[s];
        srv.engine = engine;
        srv.queue.clear();
        srv.busy = false;
        srv.in_service = None;
        srv.nic_free_at = self.now;
        srv.parked.clear();
        srv.crashed = false;
        // The fresh engine's served counter restarts at zero; realign the
        // per-sample CPS baseline or the next sample underflows.
        self.last_server_served[s] = 0;
        self.queue.push(
            self.now + self.cfg.tick_interval_ms * 1_000,
            Event::ServerTick { server: s },
        );
    }

    // ---------------------------------------------------------------- servers

    fn request_arrive(&mut self, server: usize, req: Request, origin: Origin) {
        // Router pseudo-server.
        if self.router.is_some() && server == router_idx(self.servers.len()) {
            self.router_queue.push_back((req, origin));
            if !self.router_busy {
                self.router_start();
            }
            return;
        }
        let latency = self.cfg.cost.latency_us;
        let srv = &mut self.servers[server];
        if srv.crashed {
            self.queue.push(
                self.now + latency,
                Event::Deliver {
                    origin,
                    delivery: Delivery::Failed,
                    from: FROM_NONE,
                },
            );
            return;
        }
        if srv.queue.len() >= srv.engine.config().socket_queue_len {
            // Graceful 503 from the front end (§5.2).
            srv.drops += 1;
            let resp = Response::service_unavailable(1);
            self.queue.push(
                self.now + latency + self.cfg.cost.drop_cpu_us,
                Event::Deliver {
                    origin,
                    delivery: Delivery::Response(resp),
                    from: server,
                },
            );
            return;
        }
        srv.queue.push_back((req, origin));
        if !srv.busy {
            self.start_service(server);
        }
    }

    fn start_service(&mut self, server: usize) {
        let now_ms = self.now / 1_000;
        let cost = self.cfg.cost.clone();
        let srv = &mut self.servers[server];
        let Some((req, origin)) = srv.queue.pop_front() else {
            return;
        };
        let regen_before = srv.engine.stats().regenerations;
        let outcome = srv.engine.handle_request(&req, now_ms);
        let regens = srv.engine.stats().regenerations - regen_before;
        match outcome {
            Outcome::Response(_) | Outcome::Stream { .. } => {
                // The discrete-event model charges CPU per byte either
                // way, so streamed outcomes collapse to buffered here.
                let resp = outcome
                    .into_response()
                    .expect("response/stream outcome drains to a response");
                let service = cost.service_us(resp.body.len()) + regens * cost.regen_cpu_us;
                srv.in_service = Some((resp, origin));
                srv.busy = true;
                self.queue
                    .push(self.now + service, Event::ServiceDone { server });
            }
            Outcome::FetchNeeded { home, path } => {
                // Park the request; first parker triggers the pull, later
                // ones coalesce onto it (the simulator's analogue of the
                // transport singleflight).
                let home_idx = self.id_to_idx.get(&home).copied();
                let key = (home_idx.unwrap_or(FROM_NONE), path.clone());
                let first = !srv.parked.contains_key(&key);
                if !first {
                    srv.engine.coop_cache().record_coalesced_wait();
                }
                srv.parked.entry(key).or_default().push((req, origin));
                srv.busy = true;
                self.queue
                    .push(self.now + cost.conn_cpu_us, Event::ServiceDone { server });
                if first {
                    let pull = srv.engine.make_pull_request(&path, now_ms);
                    let ev = Event::RequestArrive {
                        server: home_idx.unwrap_or(FROM_NONE),
                        req: pull,
                        origin: Origin::Server {
                            id: server,
                            purpose: Purpose::Pull {
                                home: home.clone(),
                                path,
                            },
                        },
                    };
                    match home_idx {
                        Some(_) => self.queue.push(self.now + cost.latency_us, ev),
                        None => {
                            // Unknown home: immediate failure.
                            if let Event::RequestArrive { origin, .. } = ev {
                                self.queue.push(
                                    self.now + 1,
                                    Event::Deliver {
                                        origin,
                                        delivery: Delivery::Failed,
                                        from: FROM_NONE,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    fn service_done(&mut self, server: usize) {
        // Router pseudo-server: forwarding slot freed.
        if self.router.is_some() && server == router_idx(self.servers.len()) {
            self.router_busy = false;
            if !self.router_queue.is_empty() {
                self.router_start();
            }
            return;
        }
        let cost = self.cfg.cost.clone();
        let srv = &mut self.servers[server];
        if srv.crashed {
            return;
        }
        srv.busy = false;
        if let Some((resp, origin)) = srv.in_service.take() {
            // Transmission: serialize on the server NIC, then the switch.
            let bytes = resp.body.len() + WIRE_OVERHEAD_BYTES;
            let tx_start = self.now.max(srv.nic_free_at);
            let tx_end = tx_start + cost.tx_us(bytes);
            srv.nic_free_at = tx_end;
            let sw_end = match self.cfg.net_model {
                NetModel::ConstantBandwidth => {
                    // One aggregate pipe: transfers serialize at full rate.
                    let e = tx_end.max(self.switch_free_at) + cost.switch_us(bytes);
                    self.switch_free_at = e;
                    e
                }
                NetModel::SharedBandwidth => {
                    // Fair share, snapshotted at admission: with k flows in
                    // flight this one runs at capacity/k for its whole
                    // transfer. SwitchRelease returns the share.
                    self.switch_flows += 1;
                    self.switch_peak_flows = self.switch_peak_flows.max(self.switch_flows);
                    let e = tx_end + cost.switch_us(bytes) * self.switch_flows;
                    self.queue.push(e, Event::SwitchRelease);
                    e
                }
            };
            self.queue.push(
                sw_end + cost.latency_us,
                Event::Deliver {
                    origin,
                    delivery: Delivery::Response(resp),
                    from: server,
                },
            );
        }
        if !self.servers[server].queue.is_empty() {
            self.start_service(server);
        }
    }

    fn server_tick(&mut self, server: usize) {
        let now_ms = self.now / 1_000;
        let latency = self.cfg.cost.latency_us;
        if !self.servers[server].crashed {
            let out = self.servers[server].engine.tick(now_ms);
            for (peer, req) in out.pings {
                if let Some(&idx) = self.id_to_idx.get(&peer) {
                    self.queue.push(
                        self.now + latency,
                        Event::RequestArrive {
                            server: idx,
                            req,
                            origin: Origin::Server {
                                id: server,
                                purpose: Purpose::Ping { peer },
                            },
                        },
                    );
                }
            }
            for (home, req) in out.validations {
                if let Some(&idx) = self.id_to_idx.get(&home) {
                    let path = req.target.clone();
                    self.queue.push(
                        self.now + latency,
                        Event::RequestArrive {
                            server: idx,
                            req,
                            origin: Origin::Server {
                                id: server,
                                purpose: Purpose::Validate { home, path },
                            },
                        },
                    );
                }
            }
            self.queue.push(
                self.now + self.cfg.tick_interval_ms * 1_000,
                Event::ServerTick { server },
            );
        }
    }

    fn router_start(&mut self) {
        let Some(router) = self.router.as_mut() else {
            return;
        };
        let Some((req, origin)) = self.router_queue.pop_front() else {
            return;
        };
        let backend = router.forward();
        let cpu = router.forward_cpu_us;
        let idx = self.id_to_idx[&backend];
        // Forwarding consumes router CPU; the backend sees the request
        // after that plus a hop.
        self.queue.push(
            self.now + cpu + self.cfg.cost.latency_us,
            Event::RequestArrive {
                server: idx,
                req,
                origin,
            },
        );
        // Model the router CPU as serial: next forward after `cpu`.
        self.router_busy = true;
        let n = self.servers.len();
        self.queue.push(
            self.now + cpu,
            Event::ServiceDone {
                server: router_idx(n),
            },
        );
    }

    // --------------------------------------------------------------- delivery

    fn deliver(&mut self, origin: Origin, delivery: Delivery, from: usize) {
        match origin {
            Origin::Client { id, token } if self.cfg.replay.is_some() => {
                self.replay_deliver(id, token, delivery)
            }
            Origin::Client { id, token } => self.client_deliver(id, token, delivery, from),
            Origin::Server { id, purpose } => self.server_deliver(id, purpose, delivery),
        }
    }

    // ----------------------------------------------------------------- replay

    /// Fire one recorded access-log request (open loop).
    fn replay_fire(&mut self, idx: usize) {
        let ev = self
            .cfg
            .replay
            .as_ref()
            .expect("replay_fire only scheduled in replay mode")
            .events[idx]
            .clone();
        let Ok(url) = Url::parse(&ev.url) else { return };
        let client = ev.client % self.clients.len();
        let token = self.replay_next_token;
        self.replay_next_token += 1;
        self.replay_pending
            .insert(token, (client, self.cfg.client.max_redirects));
        self.send_client_request(client, &url, token);
    }

    /// Digest a response to a replayed request: count it, follow 301s,
    /// never retry (open loop).
    fn replay_deliver(&mut self, _client: usize, token: u64, delivery: Delivery) {
        let Some((client, redirects_left)) = self.replay_pending.remove(&token) else {
            return;
        };
        let resp = match delivery {
            Delivery::Failed => {
                self.counters.failures += 1;
                return;
            }
            Delivery::Response(r) => r,
        };
        match resp.status {
            StatusCode::Ok => {
                self.counters.completed += 1;
                self.counters.bytes += resp.body.len() as u64;
            }
            StatusCode::ServiceUnavailable => {
                self.counters.drops += 1;
            }
            StatusCode::MovedPermanently => {
                self.counters.redirects += 1;
                if redirects_left > 0 {
                    if let Some(loc) = resp.location() {
                        if loc.is_absolute() {
                            self.replay_pending
                                .insert(token, (client, redirects_left - 1));
                            self.send_client_request(client, &loc, token);
                        }
                    }
                }
            }
            _ => {
                self.counters.failures += 1;
            }
        }
    }

    fn server_deliver(&mut self, server: usize, purpose: Purpose, delivery: Delivery) {
        if self.servers[server].crashed {
            return;
        }
        let now_ms = self.now / 1_000;
        match purpose {
            Purpose::Pull { home, path } => {
                let home_idx = self.id_to_idx.get(&home).copied().unwrap_or(FROM_NONE);
                let key = (home_idx, path.clone());
                let parked = self.servers[server].parked.remove(&key).unwrap_or_default();
                let ok = match &delivery {
                    Delivery::Response(resp) if resp.status == StatusCode::Ok => self.servers
                        [server]
                        .engine
                        .store_pulled(&home, &path, resp, now_ms),
                    _ => false,
                };
                if ok {
                    // Requeue the parked requests at the head of the line.
                    let srv = &mut self.servers[server];
                    for item in parked.into_iter().rev() {
                        srv.queue.push_front(item);
                    }
                    if !srv.busy {
                        self.start_service(server);
                    }
                } else {
                    // Home declined or is unreachable: learn from a
                    // redirect answer, then relay to the waiters.
                    let resp = match delivery {
                        Delivery::Response(r) => r,
                        Delivery::Failed => Response::service_unavailable(1),
                    };
                    self.servers[server]
                        .engine
                        .pull_rejected(&home, &path, &resp, now_ms);
                    for (_, origin) in parked {
                        self.queue.push(
                            self.now + 1,
                            Event::Deliver {
                                origin,
                                delivery: Delivery::Response(resp.clone()),
                                from: server,
                            },
                        );
                    }
                }
            }
            Purpose::Validate { home, path } => match delivery {
                Delivery::Response(resp) => {
                    self.servers[server]
                        .engine
                        .handle_validation_response(&home, &path, &resp, now_ms);
                }
                // Home unreachable: the copy is served stale rather than
                // discarded (graceful degradation, docs/RESILIENCE.md).
                Delivery::Failed => {
                    self.servers[server]
                        .engine
                        .validation_failed(&home, &path, now_ms);
                }
            },
            Purpose::Ping { peer } => match delivery {
                // ANY response proves the peer is alive — a 503 means
                // overloaded, not dead. Only connection failure counts
                // against it.
                Delivery::Response(resp) => {
                    self.servers[server]
                        .engine
                        .ping_result(&peer, true, Some(&resp.headers));
                }
                Delivery::Failed => {
                    self.servers[server].engine.ping_result(&peer, false, None);
                }
            },
        }
    }

    // ---------------------------------------------------------------- clients

    /// Resolve a simulator host name (`s<idx>`, port 80) to a server slab
    /// index without building a `ServerId` — this sits on every client
    /// request, and is what keeps routing allocation-free.
    fn host_to_idx(&self, host: &str, port: u16) -> Option<usize> {
        if port != 80 {
            return None;
        }
        let idx: usize = host.strip_prefix('s')?.parse().ok()?;
        (idx < self.servers.len()).then_some(idx)
    }

    /// Route a client request for `url` to a server index per strategy.
    fn route(&mut self, client: usize, url: &Url) -> Option<usize> {
        match &self.cfg.strategy {
            Strategy::Dcws => {
                let host = url.host()?;
                self.host_to_idx(host, url.port())
            }
            Strategy::Single => Some(0),
            Strategy::RoundRobinDns { .. } => {
                let dns = self.dns.as_mut().expect("dns strategy has resolver");
                let sid = dns.resolve(client, self.now / 1_000);
                self.id_to_idx.get(&sid).copied()
            }
            Strategy::CentralRouter { .. } => Some(router_idx(self.servers.len())),
        }
    }

    fn send_client_request(&mut self, client: usize, url: &Url, token: u64) {
        if self.cfg.record_trace {
            self.trace_out.push(crate::trace::TraceEvent {
                t_ms: self.now / 1_000,
                client,
                url: url.to_string(),
            });
        }
        let Some(target) = self.route(client, url) else {
            // Unroutable (e.g. absolute link to a host outside the group):
            // synthesize a failure.
            self.queue.push(
                self.now + 1,
                Event::Deliver {
                    origin: Origin::Client { id: client, token },
                    delivery: Delivery::Failed,
                    from: FROM_NONE,
                },
            );
            return;
        };
        let req = Request::get(url.path());
        self.queue.push(
            self.now + self.cfg.cost.latency_us,
            Event::RequestArrive {
                server: target,
                req,
                origin: Origin::Client { id: client, token },
            },
        );
    }

    /// Exponential back-off with +-25 % client-specific jitter; without
    /// jitter the whole client population retries in synchronized waves
    /// and the cluster oscillates between overload and idleness.
    fn backoff_us(&mut self, client: usize, pow: u32) -> SimTime {
        let base = 1_000_000u64 << pow.min(self.cfg.client.max_backoff_pow);
        let jitter = self.clients[client].rng.gen_range(0..=base / 2);
        base * 3 / 4 + jitter
    }

    fn client_wake(&mut self, client: usize) {
        match self.clients[client].state {
            CState::NewSession => {
                if let Some(stops) = &self.cfg.client_stops {
                    // Retired client: the session that would start now never
                    // does (diurnal ramp-down). No further wakes.
                    if self.now / 1_000 >= stops[client] {
                        return;
                    }
                }
                let hot = match &self.cfg.hot_entry {
                    Some(h) if self.now / 1_000 >= h.from_ms && h.entry < self.entry_urls.len() => {
                        Some(h.clone())
                    }
                    _ => None,
                };
                let c = &mut self.clients[client];
                c.cache.clear();
                c.steps_left = c.rng.gen_range(1..=self.cfg.client.max_steps);
                let e = match hot {
                    Some(h) if c.rng.gen_bool(h.prob) => h.entry,
                    _ => c.rng.gen_range(0..self.entry_urls.len()),
                };
                c.current_url = Some(self.entry_urls[e].clone());
                c.current_anchors.clear();
                c.state = CState::IssueDoc;
                self.client_issue_doc(client);
            }
            CState::IssueDoc => self.client_issue_doc(client),
            CState::Images => self.client_launch_images(client),
            CState::NextStep => self.client_next_step(client),
            CState::AwaitDoc => {} // spurious wake; response will drive us
        }
    }

    fn client_issue_doc(&mut self, client: usize) {
        let c = &mut self.clients[client];
        let url = c.current_url.clone().expect("IssueDoc has a current URL");
        let key = url.to_string();
        if self.cfg.client.cache_enabled {
            if let Some(CacheEntry::Html { anchors, embeds }) = c.cache.get(&key).cloned() {
                // Cache hit: no request; straight to the image phase
                // (embeds were cached along with the page in this session).
                c.current_anchors = anchors;
                c.images_queue = embeds
                    .into_iter()
                    .filter(|e| !c.cache.contains_key(e))
                    .collect();
                c.state = CState::Images;
                let overhead = self.cfg.cost.client_overhead_us;
                self.queue
                    .push(self.now + overhead, Event::ClientWake { client });
                return;
            }
        }
        let token = c.next_token;
        c.next_token += 1;
        c.pending_doc = Some((
            token,
            PendingFetch {
                url: url.clone(),
                redirects_left: self.cfg.client.max_redirects,
                issued_at: self.now,
            },
        ));
        c.state = CState::AwaitDoc;
        self.send_client_request(client, &url, token);
    }

    fn client_launch_images(&mut self, client: usize) {
        let helpers = self.cfg.client.helpers;
        loop {
            let c = &mut self.clients[client];
            if c.images_pending.len() >= helpers {
                break;
            }
            let Some(next) = c.images_queue.pop_front() else {
                break;
            };
            if self.cfg.client.cache_enabled && c.cache.contains_key(&next) {
                continue;
            }
            let Ok(url) = Url::parse(&next) else { continue };
            let token = c.next_token;
            c.next_token += 1;
            c.images_pending.push((
                token,
                PendingFetch {
                    url: url.clone(),
                    redirects_left: self.cfg.client.max_redirects,
                    issued_at: self.now,
                },
            ));
            self.send_client_request(client, &url, token);
        }
        let c = &mut self.clients[client];
        if c.images_pending.is_empty() && c.images_queue.is_empty() {
            c.state = CState::NextStep;
            let overhead = self.cfg.cost.client_overhead_us;
            self.queue
                .push(self.now + overhead, Event::ClientWake { client });
        }
    }

    fn client_next_step(&mut self, client: usize) {
        // Client processing plus (optional) user think time before the
        // next navigation.
        let think = self.cfg.client.think_time_ms;
        let c = &mut self.clients[client];
        c.steps_left = c.steps_left.saturating_sub(1);
        let overhead = self.cfg.cost.client_overhead_us
            + if think > 0 {
                c.rng.gen_range(0..=2 * think) * 1_000
            } else {
                0
            };
        if c.steps_left == 0 || c.current_anchors.is_empty() {
            // Session over (walk length reached, or dead end).
            self.counters.sessions += 1;
            c.state = CState::NewSession;
            self.queue
                .push(self.now + overhead, Event::ClientWake { client });
            return;
        }
        let pick = c.rng.gen_range(0..c.current_anchors.len());
        let next = c.current_anchors[pick].clone();
        match Url::parse(&next) {
            Ok(u) => {
                c.current_url = Some(u);
                c.state = CState::IssueDoc;
                self.queue
                    .push(self.now + overhead, Event::ClientWake { client });
            }
            Err(_) => {
                // Unparseable link: end the session.
                self.counters.sessions += 1;
                c.state = CState::NewSession;
                self.queue
                    .push(self.now + overhead, Event::ClientWake { client });
            }
        }
    }

    fn client_deliver(&mut self, client: usize, token: u64, delivery: Delivery, _from: usize) {
        let is_doc = self.clients[client]
            .pending_doc
            .as_ref()
            .is_some_and(|(t, _)| *t == token);
        if is_doc {
            self.client_doc_response(client, token, delivery);
        } else if self.clients[client]
            .images_pending
            .iter()
            .any(|(t, _)| *t == token)
        {
            self.client_image_response(client, token, delivery);
        }
        // else: stale token (e.g. response after a crash reset) — drop.
    }

    fn client_doc_response(&mut self, client: usize, token: u64, delivery: Delivery) {
        let overhead = self.cfg.cost.client_overhead_us;
        let resp = match delivery {
            Delivery::Failed => {
                // Connection refused (crashed server): a real user gives up
                // on the link and re-enters through the front door, rather
                // than hammering a dead host. 503s, by contrast, get the
                // paper's exponential back-off retry.
                self.counters.failures += 1;
                let c = &mut self.clients[client];
                c.pending_doc = None;
                let pow = c.backoff_pow;
                c.backoff_pow = (c.backoff_pow + 1).min(self.cfg.client.max_backoff_pow);
                c.state = CState::NewSession;
                let delay = self.backoff_us(client, pow);
                self.queue
                    .push(self.now + delay, Event::ClientWake { client });
                return;
            }
            Delivery::Response(r) => r,
        };
        match resp.status {
            StatusCode::ServiceUnavailable => {
                self.counters.drops += 1;
                self.client_backoff_retry(client);
            }
            StatusCode::MovedPermanently => {
                self.counters.redirects += 1;
                if std::env::var("DCWS_TRACE_REDIR").is_ok() {
                    eprintln!(
                        "REDIR t={} client={} loc={:?}",
                        self.now / 1000,
                        client,
                        resp.headers.get("Location")
                    );
                }
                let c = &mut self.clients[client];
                let (_, pending) = c.pending_doc.as_mut().expect("doc response has pending");
                if pending.redirects_left == 0 {
                    // Redirect storm: give up on this step.
                    c.pending_doc = None;
                    c.state = CState::NextStep;
                    self.queue
                        .push(self.now + overhead, Event::ClientWake { client });
                    return;
                }
                pending.redirects_left -= 1;
                match resp.location() {
                    Some(loc) if loc.is_absolute() => {
                        pending.url = loc.clone();
                        let url = loc;
                        self.send_client_request(client, &url, token);
                    }
                    _ => {
                        self.clients[client].pending_doc = None;
                        self.clients[client].state = CState::NextStep;
                        self.queue
                            .push(self.now + overhead, Event::ClientWake { client });
                    }
                }
            }
            StatusCode::Ok => {
                self.counters.completed += 1;
                self.counters.bytes += resp.body.len() as u64;
                let c = &mut self.clients[client];
                c.backoff_pow = 0;
                let (_, pending) = c.pending_doc.take().expect("doc response has pending");
                let delta = self.now.saturating_sub(pending.issued_at);
                self.latency_us_sum += delta;
                self.latency_n += 1;
                self.latency.record_us(delta);
                let final_url = pending.url;
                let requested = c.current_url.clone().map(|u| u.to_string());
                let is_html = resp
                    .headers
                    .get("Content-Type")
                    .is_some_and(|ct| ct.starts_with("text/html"));
                if is_html {
                    let key = (final_url.to_string(), fnv1a(&resp.body));
                    let (anchors, embeds) = match self.parse_cache.get(&key) {
                        Some((a, e)) => (a.clone(), e.clone()),
                        None => {
                            let html = String::from_utf8_lossy(&resp.body);
                            let mut anchors = Vec::new();
                            let mut embeds = Vec::new();
                            for l in dcws_html::extract_links(&html) {
                                let Ok(abs) = final_url.join(&l.url) else {
                                    continue;
                                };
                                let s = abs.to_string();
                                match l.kind {
                                    dcws_html::LinkKind::Hyperlink => anchors.push(s),
                                    dcws_html::LinkKind::Embedded => embeds.push(s),
                                }
                            }
                            embeds.sort();
                            embeds.dedup();
                            self.parse_cache
                                .insert(key, (anchors.clone(), embeds.clone()));
                            (anchors, embeds)
                        }
                    };
                    let c = &mut self.clients[client];
                    let entry = CacheEntry::Html {
                        anchors: anchors.clone(),
                        embeds: embeds.clone(),
                    };
                    c.cache.insert(final_url.to_string(), entry.clone());
                    if let Some(req_key) = requested {
                        c.cache.insert(req_key, entry);
                    }
                    c.current_anchors = anchors;
                    let cache_enabled = self.cfg.client.cache_enabled;
                    c.images_queue = embeds
                        .into_iter()
                        .filter(|e| !cache_enabled || !c.cache.contains_key(e))
                        .collect();
                    c.state = CState::Images;
                    self.client_launch_images(client);
                } else {
                    // Opaque document (an image reached by hyperlink, the
                    // Sequoia pattern): dead end for the walk.
                    c.cache.insert(final_url.to_string(), CacheEntry::Other);
                    if let Some(req_key) = requested {
                        c.cache.insert(req_key, CacheEntry::Other);
                    }
                    c.current_anchors = Vec::new();
                    c.state = CState::NextStep;
                    self.queue
                        .push(self.now + overhead, Event::ClientWake { client });
                }
            }
            _ => {
                // 404/500 etc.: count as failure, end the step.
                self.counters.failures += 1;
                let c = &mut self.clients[client];
                c.pending_doc = None;
                c.state = CState::NextStep;
                self.queue
                    .push(self.now + overhead, Event::ClientWake { client });
            }
        }
    }

    fn client_backoff_retry(&mut self, client: usize) {
        // §5.2: "a client thread sleeps for a second at the first drop,
        // two at the second, four at the third, and so forth" — then
        // retries the same request.
        let c = &mut self.clients[client];
        c.pending_doc = None;
        let pow = c.backoff_pow;
        c.backoff_pow += 1;
        c.state = CState::IssueDoc;
        let delay = self.backoff_us(client, pow);
        self.queue
            .push(self.now + delay, Event::ClientWake { client });
    }

    fn client_image_response(&mut self, client: usize, token: u64, delivery: Delivery) {
        let resp = match delivery {
            Delivery::Failed => {
                // Connection refused: skip this image entirely.
                self.counters.failures += 1;
                let _ = self.clients[client].image_take(token);
                self.client_launch_images(client);
                return;
            }
            Delivery::Response(r) => r,
        };
        match resp.status {
            StatusCode::ServiceUnavailable => {
                self.counters.drops += 1;
                self.client_image_retry(client, token);
            }
            StatusCode::MovedPermanently => {
                self.counters.redirects += 1;
                if std::env::var("DCWS_TRACE_REDIR").is_ok() {
                    let from = self.clients[client]
                        .image_mut(token)
                        .map(|p| p.url.to_string());
                    eprintln!(
                        "IMG-REDIR t={} client={} from={:?} loc={:?}",
                        self.now / 1_000_000,
                        client,
                        from,
                        resp.headers.get("Location")
                    );
                }
                let c = &mut self.clients[client];
                let pending = c.image_mut(token).expect("image pending");
                if pending.redirects_left == 0 {
                    let _ = c.image_take(token);
                    self.client_launch_images(client);
                    return;
                }
                pending.redirects_left -= 1;
                match resp.location() {
                    Some(loc) if loc.is_absolute() => {
                        pending.url = loc.clone();
                        self.send_client_request(client, &loc, token);
                    }
                    _ => {
                        let _ = c.image_take(token);
                        self.client_launch_images(client);
                    }
                }
            }
            StatusCode::Ok => {
                self.counters.completed += 1;
                self.counters.bytes += resp.body.len() as u64;
                let c = &mut self.clients[client];
                c.backoff_pow = 0;
                if let Some(p) = c.image_take(token) {
                    let delta = self.now.saturating_sub(p.issued_at);
                    self.latency_us_sum += delta;
                    self.latency_n += 1;
                    self.latency.record_us(delta);
                    let c = &mut self.clients[client];
                    c.cache.insert(p.url.to_string(), CacheEntry::Other);
                }
                self.client_launch_images(client);
            }
            _ => {
                self.counters.failures += 1;
                let _ = self.clients[client].image_take(token);
                self.client_launch_images(client);
            }
        }
    }

    fn client_image_retry(&mut self, client: usize, token: u64) {
        // Push the image back on the queue; the helper slot frees up and a
        // back-off wake relaunches if nothing else is in flight.
        let c = &mut self.clients[client];
        if let Some(p) = c.image_take(token) {
            c.images_queue.push_back(p.url.to_string());
        }
        let pow = c.backoff_pow;
        c.backoff_pow += 1;
        if c.images_pending.is_empty() {
            let delay = self.backoff_us(client, pow);
            self.queue
                .push(self.now + delay, Event::ClientWake { client });
        }
    }

    // ---------------------------------------------------------------- metrics

    fn sample(&mut self) {
        let dt_s = self.cfg.sample_interval_ms as f64 / 1000.0;
        let d = Counters {
            completed: self.counters.completed - self.last_counters.completed,
            bytes: self.counters.bytes - self.last_counters.bytes,
            drops: self.counters.drops - self.last_counters.drops,
            redirects: self.counters.redirects - self.last_counters.redirects,
            failures: self.counters.failures - self.last_counters.failures,
            sessions: self.counters.sessions - self.last_counters.sessions,
        };
        self.last_counters = self.counters;
        let mut per_server_cps = Vec::with_capacity(self.servers.len());
        let mut migrations_total = 0;
        for (i, s) in self.servers.iter_mut().enumerate() {
            let served = s.engine.stats().served_total();
            per_server_cps.push((served - self.last_server_served[i]) as f64 / dt_s);
            self.last_server_served[i] = served;
            migrations_total += s.engine.stats().migrations;
            // Drain the bounded per-engine ring every sample so long runs
            // never overflow it between observations.
            self.engine_events
                .extend(s.engine.drain_events().into_iter().map(|r| (i, r)));
        }
        self.samples.push(Sample {
            t_ms: self.now / 1_000,
            cps: d.completed as f64 / dt_s,
            bps: d.bytes as f64 / dt_s,
            drops_per_sec: d.drops as f64 / dt_s,
            redirects_per_sec: d.redirects as f64 / dt_s,
            migrations_total,
            per_server_cps,
        });
        self.queue.push(
            self.now + self.cfg.sample_interval_ms * 1_000,
            Event::Sample,
        );
    }

    /// Total front-end 503 drops across servers (test/diagnostic access).
    pub fn total_server_drops(&self) -> u64 {
        self.servers.iter().map(|s| s.drops).sum()
    }

    // ------------------------------------------------------------------ audit

    /// Post-run ownership audit (the chaos-suite invariants, evaluated
    /// in-process). Probes mutate engine stats, so this runs only after
    /// [`SimCluster::collect`] has reduced the metrics.
    fn quiesce_audit(&mut self) -> OwnershipAudit {
        let now_ms = self.now / 1_000;
        let n = self.servers.len();
        let names: Vec<String> = self
            .cfg
            .dataset
            .docs
            .iter()
            .map(|d| d.name.clone())
            .collect();
        let mut lost = Vec::new();
        let mut multi_owner = Vec::new();
        // Replicated strategies have no ownership protocol to audit: every
        // server holds a full copy by construction.
        if !self.cfg.strategy.replicated() {
            for name in &names {
                // Single owner: exactly one live LDG claims the name (the
                // plain URL is always answered — directly or via 301 — by
                // the one server whose LDG holds it).
                let claimants = (0..n)
                    .filter(|&i| {
                        !self.servers[i].crashed && self.servers[i].engine.ldg().contains(name)
                    })
                    .count();
                if claimants > 1 {
                    multi_owner.push(name.clone());
                }
                if !self.doc_reachable(name, now_ms) {
                    lost.push(name.clone());
                }
            }
        }
        // GLT convergence: no live server considers another live server
        // stale once the pinger has had a few periods to re-hear everyone.
        let window_ms = 6 * self
            .server_config
            .pinger_interval_ms
            .max(self.server_config.stat_interval_ms);
        let live: Vec<bool> = self.servers.iter().map(|s| !s.crashed).collect();
        let mut glt_stale = Vec::new();
        for i in 0..n {
            if !live[i] {
                continue;
            }
            let has_stale_live_peer = self.servers[i]
                .engine
                .glt()
                .stale_peers(now_ms, window_ms)
                .into_iter()
                .any(|p| self.id_to_idx.get(&p).is_some_and(|&j| live[j]));
            if has_stale_live_peer {
                glt_stale.push(i);
            }
        }
        OwnershipAudit {
            docs: names.len(),
            lost,
            multi_owner,
            glt_stale,
        }
    }

    /// Follow the 301 chain for `name` from its home (server 0); true if a
    /// live server answers 200, or a lazy-pull `FetchNeeded` whose home is
    /// alive (the copy is one pull away — not lost).
    fn doc_reachable(&mut self, name: &str, now_ms: u64) -> bool {
        let mut target = 0usize;
        let mut path = name.to_string();
        for _ in 0..8 {
            if self.servers[target].crashed {
                return false;
            }
            let req = Request::get(&path);
            match self.servers[target].engine.handle_request(&req, now_ms) {
                Outcome::FetchNeeded { home, .. } => {
                    return self
                        .id_to_idx
                        .get(&home)
                        .is_some_and(|&h| !self.servers[h].crashed);
                }
                out => {
                    let Some(resp) = out.into_response() else {
                        return false;
                    };
                    match resp.status {
                        StatusCode::Ok => return true,
                        StatusCode::MovedPermanently => {
                            let Some(loc) = resp.location() else {
                                return false;
                            };
                            let Some(idx) =
                                loc.host().and_then(|h| self.host_to_idx(h, loc.port()))
                            else {
                                return false;
                            };
                            target = idx;
                            path = loc.path().to_string();
                        }
                        _ => return false,
                    }
                }
            }
        }
        false
    }
}

/// What [`SimCluster::run_audited`] found at quiesce: the chaos-suite
/// invariants (no document lost, a single owner per name) plus GLT
/// convergence, checked across the surviving servers.
#[derive(Debug, Clone)]
pub struct OwnershipAudit {
    /// Documents in the dataset.
    pub docs: usize,
    /// Names no live server can produce (200 or recoverable pull) within a
    /// bounded redirect chain from the home.
    pub lost: Vec<String>,
    /// Names claimed by more than one live server's LDG.
    pub multi_owner: Vec<String>,
    /// Live servers whose GLT still lists another *live* server as stale.
    pub glt_stale: Vec<usize>,
}

impl OwnershipAudit {
    /// All invariants hold.
    pub fn clean(&self) -> bool {
        self.lost.is_empty() && self.multi_owner.is_empty() && self.glt_stale.is_empty()
    }
}

/// Run one simulation to completion.
pub fn run_sim(cfg: SimConfig) -> SimResult {
    SimCluster::new(cfg).run()
}
