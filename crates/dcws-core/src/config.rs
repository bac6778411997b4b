//! Server configuration — Table 1 of the paper plus the knobs the paper
//! leaves implicit (overload detection, piggyback fan-out) and the
//! extensions we implement for ablations (naive selection, hot-spot
//! replication).

use dcws_graph::BalanceMetric;

/// Hot-spot replication (the paper's future-work extension, §6): allow an
/// extremely popular document to be replicated to several co-op servers,
/// with rewrites spreading sources across the replica set.
#[derive(Debug, Clone, PartialEq)]
pub struct HotReplication {
    /// A document is "hot" when it drew more than this fraction of the
    /// server's window hits.
    pub hot_fraction: f64,
    /// Maximum replicas per document (including the first co-op).
    pub max_replicas: usize,
}

impl Default for HotReplication {
    fn default() -> Self {
        HotReplication {
            hot_fraction: 0.25,
            max_replicas: 4,
        }
    }
}

/// All tunables of a DCWS server. Field names follow the paper's notation
/// where one exists.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Number of worker threads, N_wk.
    pub n_workers: usize,
    /// Socket queue length for backlogged requests, L_sq; beyond this the
    /// connection is dropped gracefully with a 503.
    pub socket_queue_len: usize,
    /// Statistics re-calculation interval, T_st (ms). Also the minimum
    /// spacing between two migrations *from* this home server ("a maximum
    /// of one file per 10 seconds").
    pub stat_interval_ms: u64,
    /// Pinger thread activation interval, T_pi (ms): peers silent longer
    /// than this get an artificial transfer.
    pub pinger_interval_ms: u64,
    /// Co-op document validation interval, T_val (ms): migrated copies are
    /// re-requested this often for consistency.
    pub validation_interval_ms: u64,
    /// Home re-migration interval, T_home (ms): a migration may be
    /// abandoned and redone no sooner than this.
    pub remigration_interval_ms: u64,
    /// Minimum time between migrations **to** the same co-op server,
    /// T_coop (ms): lets the co-op recalculate its load before accepting
    /// more.
    pub coop_migration_interval_ms: u64,
    /// Which measurement drives balancing decisions (§5.3: CPS for small
    /// files, BPS for Sequoia-sized files).
    pub balance_metric: BalanceMetric,
    /// Algorithm 1 threshold T: minimum window hits to justify migration.
    pub selection_threshold: u64,
    /// Overload test: migrate when our metric exceeds the least-loaded
    /// peer's by this ratio.
    pub overload_ratio: f64,
    /// Don't bother migrating below this CPS — an idle server is balanced
    /// by definition.
    pub min_cps_to_migrate: f64,
    /// Consecutive failed pings before a peer is declared dead and its
    /// documents recalled.
    pub ping_failure_limit: u32,
    /// Maximum GLT entries piggybacked per message (own entry always
    /// included).
    pub piggyback_max: usize,
    /// Ablation: replace Algorithm 1 with naive hottest-first selection
    /// (ignores steps 4–5's link-structure cost minimization).
    pub naive_selection: bool,
    /// Future-work extension: replicate hot documents to several co-ops.
    pub hot_replication: Option<HotReplication>,
    /// How many structured engine events to retain in the in-memory ring
    /// buffer (see `dcws_core::events`). `0` disables retention; events
    /// are still counted but never stored.
    pub event_log_capacity: usize,
    /// Total byte budget shared by the two document caches (regenerated
    /// home bodies and pulled co-op copies, half each). `u64::MAX`
    /// disables eviction; the paper's testbed never filled memory, so
    /// the default is generous rather than unbounded.
    pub cache_budget_bytes: u64,
    /// Bodies at or above this size are served by the streaming path
    /// (chunked reads straight from the [`DocStore`](crate::DocStore),
    /// bypassing the regen cache and serve table) instead of being
    /// buffered whole. `0` disables streaming. The default keeps every
    /// LOD document buffered and streams only Sequoia-class objects.
    pub stream_threshold_bytes: u64,
    /// Cache admission rule: an object costing more than this fraction
    /// of one cache shard's budget is never admitted to the LRU (served
    /// pass-through instead), so a single Sequoia image cannot evict a
    /// shard's whole small-document working set. `1.0` admits anything
    /// that fits a shard — the pre-streaming behaviour.
    pub cache_admit_fraction: f64,
}

impl ServerConfig {
    /// The exact parameter values of Table 1.
    pub fn paper_defaults() -> Self {
        ServerConfig {
            n_workers: 12,
            socket_queue_len: 100,
            stat_interval_ms: 10_000,
            pinger_interval_ms: 20_000,
            validation_interval_ms: 120_000,
            remigration_interval_ms: 300_000,
            coop_migration_interval_ms: 60_000,
            balance_metric: BalanceMetric::Cps,
            selection_threshold: 10,
            overload_ratio: 1.5,
            min_cps_to_migrate: 1.0,
            ping_failure_limit: 3,
            piggyback_max: 8,
            naive_selection: false,
            hot_replication: None,
            event_log_capacity: 512,
            cache_budget_bytes: 64 * 1024 * 1024,
            stream_threshold_bytes: 256 * 1024,
            cache_admit_fraction: 0.25,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_1() {
        let c = ServerConfig::paper_defaults();
        assert_eq!(c.n_workers, 12);
        assert_eq!(c.socket_queue_len, 100);
        assert_eq!(c.stat_interval_ms, 10_000);
        assert_eq!(c.pinger_interval_ms, 20_000);
        assert_eq!(c.validation_interval_ms, 120_000);
        assert_eq!(c.remigration_interval_ms, 300_000);
        assert_eq!(c.coop_migration_interval_ms, 60_000);
        assert_eq!(c.balance_metric, BalanceMetric::Cps);
        assert!(c.hot_replication.is_none());
        assert_eq!(c.cache_budget_bytes, 64 * 1024 * 1024);
        assert_eq!(c.stream_threshold_bytes, 256 * 1024);
        assert!((c.cache_admit_fraction - 0.25).abs() < 1e-12);
    }

    #[test]
    fn default_is_paper_defaults() {
        assert_eq!(ServerConfig::default(), ServerConfig::paper_defaults());
    }

    #[test]
    fn hot_replication_defaults_sane() {
        let h = HotReplication::default();
        assert!(h.hot_fraction > 0.0 && h.hot_fraction < 1.0);
        assert!(h.max_replicas >= 2);
    }
}
