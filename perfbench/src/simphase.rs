//! The simulator phase of the traced `cluster_rw` run: `dcws-sim`'s
//! DCWS strategy with migrations on, LOD on 64 servers at Figure 6's
//! client-to-server ratio (368 clients per 16 servers), control-plane
//! timers accelerated 20× as in `fig6`. It runs twice from one seed:
//! the digests must match and the quiesce audit must be clean.

use crate::stats::median;
use dcws_sim::{SimCluster, SimConfig};
use dcws_workloads::Dataset;
use std::time::Instant;

/// Servers in the simulated group.
const SERVERS: usize = 64;
/// Figure 6's clients per server (368 clients on 16 servers).
const CLIENTS_PER_SERVER: usize = 23;
/// Simulated run length, ms: long enough for several accelerated
/// migration rounds, short enough to run twice in a few seconds.
const DURATION_MS: u64 = 10_000;

/// What the two runs measured.
pub struct SimPhase {
    /// Events processed per run (pinned by the digest).
    pub events: u64,
    /// Median events per wall second over the two runs.
    pub events_per_s: f64,
    /// Events per completed session.
    pub events_per_session: f64,
    /// Migrations, regenerations and client-observed 503 drops.
    pub migrations: u64,
    /// Regenerations across servers.
    pub regenerations: u64,
    /// 503 drops seen by simulated clients.
    pub drops: u64,
    /// Median cluster set-up time (corpus + 64 engines), s.
    pub setup_s: f64,
    /// The digest both runs produced.
    pub digest: String,
}

/// Run the phase; `Err` names the failed check.
pub fn run(seed: u64) -> Result<SimPhase, String> {
    let mut digests = Vec::new();
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..2 {
        let t0 = Instant::now();
        let mut cfg = SimConfig::paper(Dataset::lod(seed), SERVERS, SERVERS * CLIENTS_PER_SERVER)
            .accelerate(20);
        cfg.duration_ms = DURATION_MS;
        cfg.seed = seed;
        let cluster = SimCluster::new(cfg);
        setups.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let (result, audit) = cluster.run_audited();
        let wall = t1.elapsed().as_secs_f64();
        if !audit.clean() {
            return Err(format!(
                "sim audit: {} lost, {} multiply owned, {} stale GLT rows",
                audit.lost.len(),
                audit.multi_owner.len(),
                audit.glt_stale.len()
            ));
        }
        rates.push(result.events as f64 / wall);
        digests.push(result.digest());
        last = Some(result);
    }
    if digests[0] != digests[1] {
        return Err(format!(
            "sim digests differ for one seed: {} vs {}",
            digests[0], digests[1]
        ));
    }
    let r = last.expect("two runs");
    Ok(SimPhase {
        events: r.events,
        events_per_s: median(&rates).expect("two runs"),
        events_per_session: r.events as f64 / r.totals.sessions.max(1) as f64,
        migrations: r.migrations,
        regenerations: r.regenerations,
        drops: r.totals.drops,
        setup_s: median(&setups).expect("two runs"),
        digest: digests.swap_remove(0),
    })
}
