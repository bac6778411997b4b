//! In-process DCWS servers and their corpora, built the way the
//! workspace's own benches build them: `DcwsServer::spawn_with` over
//! `ServerConfig::paper_defaults()` engines with the default `NetConfig`.

use dcws_core::{MemStore, ServerConfig, ServerEngine};
use dcws_graph::{DocKind, ServerId};
use dcws_net::{DcwsServer, NetConfig};
use dcws_workloads::materialize::materialize;
use dcws_workloads::{Dataset, PageKind};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How often each server's pinger thread drives the engine's timers.
const CONTROL_INTERVAL: Duration = Duration::from_secs(1);

/// Rewrites a materialized HTML page for a version (see `check::stamp_version`).
pub type Stamp = fn(&[u8], u64) -> Vec<u8>;

/// A generated corpus and its materialized bytes.
pub struct Corpus {
    /// The dataset spec (names, kinds, links).
    pub dataset: Dataset,
    /// Materialized bytes, parallel to `dataset.docs`. HTML pages of
    /// workloads with author updates carry a version token.
    pub bytes: Vec<Vec<u8>>,
    /// Document index by name.
    pub index: HashMap<String, usize>,
    /// Seconds spent generating the dataset spec.
    pub generate_s: f64,
    /// Seconds spent materializing its bytes.
    pub materialize_s: f64,
}

impl Corpus {
    /// Generate `make(seed)` and materialize every document; `stamp`
    /// rewrites each HTML page before it is stored (version tokens).
    pub fn build(make: impl Fn(u64) -> Dataset, seed: u64, stamp: Option<Stamp>) -> Corpus {
        let t0 = Instant::now();
        let dataset = make(seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let bytes: Vec<Vec<u8>> = dataset
            .docs
            .iter()
            .map(|d| {
                let raw = materialize(d);
                match (d.kind, stamp) {
                    (PageKind::Html, Some(f)) => f(&raw, 0),
                    _ => raw,
                }
            })
            .collect();
        let materialize_s = t1.elapsed().as_secs_f64();
        let index = dataset
            .docs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), i))
            .collect();
        Corpus {
            dataset,
            bytes,
            index,
            generate_s,
            materialize_s,
        }
    }

    /// The graph-level kind of document `i`.
    pub fn kind(&self, i: usize) -> DocKind {
        match self.dataset.docs[i].kind {
            PageKind::Html => DocKind::Html,
            PageKind::Image => DocKind::Image,
        }
    }
}

/// Loopback identities for `n` servers: ephemeral ports reserved by
/// binding and releasing them, so each engine knows its own address.
pub fn reserve_ids(n: usize) -> Vec<(ServerId, SocketAddr)> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| {
            let a = l.local_addr().expect("local addr");
            (ServerId::new(format!("127.0.0.1:{}", a.port())), a)
        })
        .collect()
}

/// A fresh Table-1 engine for `id`, peered with `peers`.
pub fn engine(id: &ServerId, peers: &[ServerId]) -> ServerEngine {
    let mut e = ServerEngine::new(
        id.clone(),
        ServerConfig::paper_defaults(),
        Box::new(MemStore::new()),
    );
    for p in peers {
        e.add_peer(p.clone());
    }
    e
}

/// Publish the whole corpus on `e`; returns each call's duration (s).
pub fn publish_all(e: &mut ServerEngine, corpus: &Corpus) -> Vec<f64> {
    corpus
        .dataset
        .docs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let t = Instant::now();
            e.publish(
                &d.name,
                corpus.bytes[i].clone(),
                corpus.kind(i),
                d.entry_point,
            );
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// `doc<TAB>coop` lines placing `docs` on `coop`, in the format
/// `ServerEngine::restore_migrations` reads.
pub fn migration_lines(docs: &[&str], coop: &ServerId) -> String {
    docs.iter().map(|d| format!("{d}\t{coop}\n")).collect()
}

/// One running server.
pub struct Node {
    /// The running server.
    pub server: DcwsServer,
    /// Its group identity.
    pub id: ServerId,
    /// Its address.
    pub addr: SocketAddr,
}

/// The servers of one workload; `nodes[0]` is the home.
pub struct Cluster {
    /// Home first, then co-ops.
    pub nodes: Vec<Node>,
}

impl Cluster {
    /// Spawn each engine on its reserved address.
    pub fn spawn(engines: Vec<(ServerEngine, ServerId, SocketAddr)>) -> Cluster {
        let nodes = engines
            .into_iter()
            .map(|(e, id, addr)| Node {
                server: DcwsServer::spawn_with(
                    e,
                    &addr.to_string(),
                    NetConfig::new(CONTROL_INTERVAL),
                )
                .expect("spawn server"),
                id,
                addr,
            })
            .collect();
        Cluster { nodes }
    }

    /// Addresses, in node order.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|n| n.addr).collect()
    }

    /// Stop every server and wait for its threads. Nodes stop in
    /// parallel: each waits up to a control interval for its pinger.
    pub fn shutdown(self) {
        std::thread::scope(|s| {
            for n in self.nodes {
                s.spawn(move || n.server.shutdown());
            }
        });
    }
}
