//! Lock-contention sweep for the real TCP server: throughput vs worker
//! threads on a read-mostly workload.
//!
//! Before this harness existed, every request funnelled through one
//! `Mutex<ServerEngine>`, so adding workers bought nothing (~1×).
//! With the concurrent read path, the common-case GET never takes the
//! engine lock; workers only serialize on the rare cold miss, whose lazy
//! pull performs its network round-trip *outside* the lock. This binary
//! measures the difference as a scaling curve.
//!
//! # Workload
//!
//! One DCWS server under test (the co-op) faces a **stub home server**
//! that answers pulls after an artificial latency — the stand-in for a
//! loaded or distant home. Clients issue one-connection-per-request GETs
//! (the paper's CPS model) for `~migrate` URLs:
//!
//! * a fixed **hot set**, warm in the co-op cache after the first touch —
//!   these are read-path hits the reactor answers inline, zero-copy, no
//!   engine lock;
//! * one in `cold_every` requests targets a **fresh cold path**, forcing
//!   a lazy pull that spills to the worker pool and parks its worker for
//!   the stub's latency.
//!
//! With one worker cold pulls queue behind each other; with eight they
//! overlap, while hits keep flowing on the event loop either way. The achievable overlap is
//! bounded by the lock design, not the host's core count, which is what
//! makes this a contention benchmark rather than a CPU benchmark — the
//! paper's §5.1 rationale for a multithreaded server.
//!
//! Outputs: `bench_results/lockpress.csv`, `bench_results/BENCH_lockpress.json`,
//! and per-point queue-wait percentiles on stdout. Honors
//! `DCWS_BENCH_QUICK=1` / `--quick` (2 workers max, short runs).

use dcws_bench::{fmt_thousands, write_csv};
use dcws_core::{Json, MemStore, ServerConfig, ServerEngine};
use dcws_graph::ServerId;
use dcws_http::{Request, Response, StatusCode};
use dcws_net::client::fetch_from_timeout;
use dcws_net::DcwsServer;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything one sweep point needs to know.
struct Params {
    workers: Vec<usize>,
    n_clients: usize,
    duration: Duration,
    warmup: Duration,
    hot_docs: usize,
    doc_bytes: usize,
    /// One request in this many targets a never-seen path (a cold pull).
    cold_every: u64,
    /// Stub home's artificial service latency per pull.
    home_latency: Duration,
}

fn quick_mode() -> bool {
    dcws_bench::quick() || std::env::args().any(|a| a == "--quick")
}

fn params() -> Params {
    if quick_mode() {
        Params {
            workers: vec![1, 2],
            n_clients: 8,
            duration: Duration::from_millis(700),
            warmup: Duration::from_millis(150),
            hot_docs: 32,
            doc_bytes: 4096,
            cold_every: 16,
            home_latency: Duration::from_millis(8),
        }
    } else {
        Params {
            workers: vec![1, 2, 4, 8],
            n_clients: 16,
            duration: Duration::from_millis(3000),
            warmup: Duration::from_millis(400),
            hot_docs: 64,
            doc_bytes: 4096,
            cold_every: 16,
            home_latency: Duration::from_millis(10),
        }
    }
}

/// A minimal home-server stand-in: answers every GET with a fixed-size
/// HTML body after `latency` — long enough to represent a pull from a
/// busy or distant home. One thread per connection; pulls are rare.
struct StubHome {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    pulls: Arc<AtomicU64>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl StubHome {
    fn spawn(latency: Duration, doc_bytes: usize) -> StubHome {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub home");
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let pulls = Arc::new(AtomicU64::new(0));
        let stop2 = stop.clone();
        let pulls2 = pulls.clone();
        let accept_thread = std::thread::Builder::new()
            .name("stub-home".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(mut s) = stream else { continue };
                    pulls2.fetch_add(1, Ordering::Relaxed);
                    std::thread::spawn(move || {
                        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                        // Read until the blank line ending the request head;
                        // pulls carry no body.
                        let mut buf = Vec::new();
                        let mut chunk = [0u8; 1024];
                        while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                            match s.read(&mut chunk) {
                                Ok(0) | Err(_) => return,
                                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                            }
                        }
                        std::thread::sleep(latency);
                        let body = format!(
                            "<html><body>{}</body></html>",
                            "x".repeat(doc_bytes.saturating_sub(26))
                        );
                        let resp = Response::ok(body, "text/html")
                            .with_header("X-DCWS-Version", "1")
                            .to_bytes();
                        let _ = s.write_all(&resp);
                    });
                }
            })
            .expect("spawn stub home");
        StubHome {
            addr,
            stop,
            pulls,
            accept_thread: Some(accept_thread),
        }
    }

    fn server_id(&self) -> ServerId {
        ServerId::new(format!("{}:{}", self.addr.ip(), self.addr.port()))
    }

    fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// xorshift64* — deterministic per-thread path selection without any
/// external RNG dependency.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// The ~migrate URL path for `doc_path` homed at the stub.
fn migrate_path(home: &ServerId, doc_path: &str) -> String {
    let (host, port) = home.host_port();
    format!("/~migrate/{host}/{port}{doc_path}")
}

struct PointResult {
    workers: usize,
    ok: u64,
    errors: u64,
    drops: u64,
    cps: f64,
    queue_wait_p50_us: u64,
    queue_wait_p99_us: u64,
    read_requests: u64,
    read_fallbacks: u64,
    pulls: u64,
}

/// Run one sweep point: a fresh server with `n_workers`, hammered by
/// `p.n_clients` connection-per-request clients for `p.duration`.
fn run_point(p: &Params, n_workers: usize) -> PointResult {
    let stub = StubHome::spawn(p.home_latency, p.doc_bytes);
    let home_id = stub.server_id();

    let cfg = ServerConfig {
        n_workers,
        socket_queue_len: 512,
        ..ServerConfig::paper_defaults()
    };
    let engine = ServerEngine::new(
        ServerId::new("coop.lockpress:0"),
        cfg,
        Box::new(MemStore::new()),
    );
    // The default reactor: hot GETs are answered inline on the event
    // loop, while each cold miss spills to the worker pool this sweep
    // varies and parks its worker for the stub's latency. The curve thus
    // measures how many concurrent cold pulls the pool overlaps.
    let server =
        DcwsServer::spawn(engine, "127.0.0.1:0", Duration::from_millis(100)).expect("spawn server");
    let server_id = server.server_id();

    let hot_paths: Vec<String> = (0..p.hot_docs)
        .map(|i| migrate_path(&home_id, &format!("/hot/{i}.html")))
        .collect();

    // Warm the hot set: first touch pulls from the stub, after which
    // every hot GET is a read-path cache hit.
    for path in &hot_paths {
        let resp = fetch_from_timeout(&server_id, &Request::get(path), Duration::from_secs(5))
            .expect("warmup fetch");
        assert_eq!(resp.status, StatusCode::Ok, "warmup of {path} failed");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let ok = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let cold_seq = Arc::new(AtomicU64::new(0));

    let mut clients = Vec::new();
    for c in 0..p.n_clients {
        let stop = stop.clone();
        let ok = ok.clone();
        let errors = errors.clone();
        let cold_seq = cold_seq.clone();
        let server_id = server_id.clone();
        let home_id = home_id.clone();
        let hot_paths = hot_paths.clone();
        let cold_every = p.cold_every;
        clients.push(
            std::thread::Builder::new()
                .name(format!("lockpress-client-{c}"))
                .spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64 ^ ((c as u64 + 1) << 32);
                    while !stop.load(Ordering::Relaxed) {
                        let r = xorshift(&mut rng);
                        let path = if r.is_multiple_of(cold_every) {
                            let seq = cold_seq.fetch_add(1, Ordering::Relaxed);
                            migrate_path(&home_id, &format!("/cold/{seq}.html"))
                        } else {
                            hot_paths[(r as usize / 64) % hot_paths.len()].clone()
                        };
                        match fetch_from_timeout(
                            &server_id,
                            &Request::get(&path),
                            Duration::from_secs(10),
                        ) {
                            Ok(resp) if resp.status == StatusCode::Ok => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) | Err(_) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
                .expect("spawn client"),
        );
    }

    // Let the pool settle, then count only the steady-state window.
    std::thread::sleep(p.warmup);
    let ok0 = ok.load(Ordering::Relaxed);
    let err0 = errors.load(Ordering::Relaxed);
    let t0 = Instant::now();
    std::thread::sleep(p.duration);
    let elapsed = t0.elapsed();
    let ok_n = ok.load(Ordering::Relaxed) - ok0;
    let err_n = errors.load(Ordering::Relaxed) - err0;
    stop.store(true, Ordering::Relaxed);
    for t in clients {
        let _ = t.join();
    }

    let qw = server.metrics().queue_wait.snapshot();
    let read = server.read_path().snapshot();
    let drops = server.dropped_connections();
    let pulls = stub.pulls.load(Ordering::Relaxed);
    server.shutdown();
    stub.shutdown();

    PointResult {
        workers: n_workers,
        ok: ok_n,
        errors: err_n,
        drops,
        cps: ok_n as f64 / elapsed.as_secs_f64(),
        queue_wait_p50_us: qw.percentile(50.0).as_micros() as u64,
        queue_wait_p99_us: qw.percentile(99.0).as_micros() as u64,
        read_requests: read.requests,
        read_fallbacks: read.fallbacks,
        pulls,
    }
}

fn main() {
    let p = params();
    println!(
        "Lock-contention sweep: {} clients, {} hot docs x {}B, 1/{} cold, home latency {:?}{}",
        p.n_clients,
        p.hot_docs,
        p.doc_bytes,
        p.cold_every,
        p.home_latency,
        if quick_mode() { " [quick]" } else { "" }
    );
    println!(
        "{:>7} {:>10} {:>8} {:>6} {:>7} {:>10} {:>10} {:>12} {:>10}",
        "workers",
        "cps",
        "ok",
        "err",
        "pulls",
        "qw_p50_us",
        "qw_p99_us",
        "read_served",
        "fallbacks"
    );

    let mut results = Vec::new();
    for &w in &p.workers {
        let r = run_point(&p, w);
        println!(
            "{:>7} {:>10} {:>8} {:>6} {:>7} {:>10} {:>10} {:>12} {:>10}",
            r.workers,
            fmt_thousands(r.cps),
            r.ok,
            r.errors,
            r.pulls,
            r.queue_wait_p50_us,
            r.queue_wait_p99_us,
            r.read_requests,
            r.read_fallbacks
        );
        results.push(r);
    }

    let base = results.first().expect("at least one point");
    let best = results.last().expect("at least one point");
    let speedup = if base.cps > 0.0 {
        best.cps / base.cps
    } else {
        0.0
    };
    println!(
        "\nscaling: {} workers -> {} workers = {speedup:.2}x throughput",
        base.workers, best.workers
    );

    let mut csv = vec![vec![
        "workers".into(),
        "cps".into(),
        "ok".into(),
        "errors".into(),
        "drops".into(),
        "pulls".into(),
        "queue_wait_p50_us".into(),
        "queue_wait_p99_us".into(),
        "read_path_served".into(),
        "read_path_fallbacks".into(),
    ]];
    for r in &results {
        csv.push(vec![
            r.workers.to_string(),
            format!("{:.1}", r.cps),
            r.ok.to_string(),
            r.errors.to_string(),
            r.drops.to_string(),
            r.pulls.to_string(),
            r.queue_wait_p50_us.to_string(),
            r.queue_wait_p99_us.to_string(),
            r.read_requests.to_string(),
            r.read_fallbacks.to_string(),
        ]);
    }
    write_csv("lockpress", &csv);

    let json = Json::obj(vec![
        ("bench", Json::from("lockpress")),
        ("quick", Json::from(quick_mode())),
        (
            "host_parallelism",
            Json::from(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(0),
            ),
        ),
        (
            "params",
            Json::obj(vec![
                ("n_clients", Json::from(p.n_clients as u64)),
                ("duration_ms", Json::from(p.duration.as_millis() as u64)),
                ("hot_docs", Json::from(p.hot_docs as u64)),
                ("doc_bytes", Json::from(p.doc_bytes as u64)),
                ("cold_every", Json::from(p.cold_every)),
                (
                    "home_latency_ms",
                    Json::from(p.home_latency.as_millis() as u64),
                ),
            ]),
        ),
        (
            "points",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("workers", Json::from(r.workers as u64)),
                            ("cps", Json::from(r.cps)),
                            ("ok", Json::from(r.ok)),
                            ("errors", Json::from(r.errors)),
                            ("drops", Json::from(r.drops)),
                            ("pulls", Json::from(r.pulls)),
                            ("queue_wait_p50_us", Json::from(r.queue_wait_p50_us)),
                            ("queue_wait_p99_us", Json::from(r.queue_wait_p99_us)),
                            ("read_path_served", Json::from(r.read_requests)),
                            ("read_path_fallbacks", Json::from(r.read_fallbacks)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("speedup_max_vs_1", Json::from(speedup)),
        ("pass_3x", Json::from(best.workers >= 8 && speedup >= 3.0)),
    ]);
    let path = dcws_bench::results_dir().join("BENCH_lockpress.json");
    match std::fs::write(&path, json.to_string()) {
        Ok(()) => println!("[json written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}
