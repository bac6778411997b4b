//! Ablations: DCWS vs the related-work baselines (§2), and the design
//! choices DESIGN.md calls out — CPS vs BPS as the balancing metric,
//! Algorithm 1 vs naive hottest-first selection, and hot-spot
//! replication.

use dcws_baselines::Strategy;
use dcws_bench::{fmt_thousands, scaled, write_csv};
use dcws_core::HotReplication;
use dcws_graph::BalanceMetric;
use dcws_sim::{run_sim, SimConfig, SimResult};
use dcws_workloads::Dataset;

fn base(dataset: &str, n_servers: usize, n_clients: usize) -> SimConfig {
    let mut cfg = SimConfig::paper(
        Dataset::by_name(dataset, 1).expect("known"),
        n_servers,
        n_clients,
    )
    .accelerate(20);
    cfg.duration_ms = scaled(420_000, 90_000);
    cfg.sample_interval_ms = 10_000;
    cfg
}

fn report(label: &str, r: &SimResult, csv: &mut Vec<Vec<String>>) {
    dcws_bench::dump_status(&format!("ablation_{label}"), r);
    println!(
        "{label:<28} cps={:>7} bps={:>11} drops/s={:>5.0} redirects={:>7} migr={:<4} imb={:.2}",
        fmt_thousands(r.steady_cps()),
        fmt_thousands(r.steady_bps()),
        r.steady_drop_rate(),
        r.totals.redirects,
        r.migrations,
        r.final_load_imbalance()
    );
    csv.push(vec![
        label.into(),
        format!("{:.1}", r.steady_cps()),
        format!("{:.1}", r.steady_bps()),
        format!("{:.1}", r.steady_drop_rate()),
        r.totals.redirects.to_string(),
        r.migrations.to_string(),
        format!("{:.3}", r.final_load_imbalance()),
    ]);
}

fn main() {
    let mut csv = vec![vec![
        "config".into(),
        "cps".into(),
        "bps".into(),
        "drops_per_sec".into(),
        "redirects".into(),
        "migrations".into(),
        "imbalance".into(),
    ]];

    println!("== strategies (LOD, 8 servers, 300 clients) ==");
    for strategy in [
        Strategy::Dcws,
        Strategy::RoundRobinDns { ttl_ms: 30_000 },
        Strategy::CentralRouter {
            forward_cpu_us: 150,
        },
        Strategy::Single,
    ] {
        let mut cfg = base("lod", 8, scaled(300, 48) as usize);
        let label = format!("strategy:{}", strategy.label());
        cfg.strategy = strategy;
        report(&label, &run_sim(cfg), &mut csv);
    }
    println!("(rr-dns and router replicate every document to every server — the");
    println!(" shared-filesystem assumption DCWS exists to avoid; DCWS moves data only)");

    println!("\n== balancing metric (Sequoia, 4 servers: large files favor BPS, §5.3) ==");
    for metric in [BalanceMetric::Cps, BalanceMetric::Bps] {
        let mut cfg = base("sequoia", 4, scaled(64, 24) as usize);
        cfg.server_config.balance_metric = metric;
        report(&format!("metric:{metric:?}"), &run_sim(cfg), &mut csv);
    }

    println!("\n== selection policy (MAPUG, 8 servers) ==");
    for naive in [false, true] {
        let mut cfg = base("mapug", 8, scaled(300, 48) as usize);
        cfg.server_config.naive_selection = naive;
        report(
            if naive {
                "selection:hottest-first"
            } else {
                "selection:algorithm-1"
            },
            &run_sim(cfg),
            &mut csv,
        );
    }
    println!("(Algorithm 1's steps 4-5 minimize cross-server rewrite traffic; the naive");
    println!(" policy migrates hot hub documents and pays for it in regenerations)");

    println!("\n== hot-spot replication extension (SBLog, 8 servers, §6 future work) ==");
    for repl in [false, true] {
        let mut cfg = base("sblog", 8, scaled(300, 48) as usize);
        if repl {
            cfg.server_config.hot_replication = Some(HotReplication {
                hot_fraction: 0.15,
                max_replicas: 4,
            });
        }
        report(
            if repl {
                "replication:on"
            } else {
                "replication:off"
            },
            &run_sim(cfg),
            &mut csv,
        );
    }

    write_csv("ablation", &csv);
}
