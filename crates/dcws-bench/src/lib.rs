//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every table and figure of the paper's evaluation (§5) has a binary in
//! `src/bin/` that regenerates it:
//!
//! | Binary | Reproduces |
//! |--------|-----------|
//! | `table1` | Table 1 — server parameter settings |
//! | `fig6` | Fig 6(a)/(b) — BPS & CPS vs concurrent clients, LOD |
//! | `fig7` | Fig 7(a)/(b) — peak BPS & CPS vs #servers, four datasets |
//! | `fig8` | Fig 8 — CPS/BPS vs time from a cold start (exponential warm-up) |
//! | `table2` | Table 2 — timer tuning trade-offs |
//! | `overhead` | §5.3 parse/reconstruction overhead measurements |
//! | `ablation` | DCWS vs baselines, plus design-choice ablations |
//! | `cachepress` | cache budget vs hit ratio / response time sweep |
//! | `lockpress` | throughput vs worker threads (engine-lock contention) |
//! | `connpress` | pooled keep-alive vs connect-per-request transport sweep |
//! | `c10kpress` | concurrent keep-alive clients held by the reactor front end |
//! | `scalepress` | simulator scale-out proof: 1,000+ servers, 10⁶+ sessions, determinism at scale |
//! | `scenarios` | seeded scenario suite (flash crowd, diurnal, restarts, co-op failures) + invariant audits |
//!
//! Binaries honor `DCWS_BENCH_QUICK=1` for a fast smoke pass (fewer
//! points, shorter runs) and write machine-readable CSV next to their
//! stdout tables into `bench_results/`.
//!
//! Passing `--status-dump` (or setting `DCWS_STATUS_DUMP=1`) additionally
//! writes each run's merged engine event trace —
//! `t_ms,server,seq,kind,detail`, see
//! [`SimResult::save_event_trace`](dcws_sim::SimResult::save_event_trace)
//! — as `<tag>.events.csv` next to the figure CSVs, and prints a per-kind
//! event census so a reader can correlate migrations, revocations, and
//! dead-peer recalls with the performance curves.

#![warn(missing_docs)]

pub mod chart;

pub use chart::ascii_chart;

use std::io::Write;
use std::path::PathBuf;

/// Whether the quick smoke mode is requested.
pub fn quick() -> bool {
    std::env::var("DCWS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// `base` scaled down in quick mode.
pub fn scaled(base: u64, quick_value: u64) -> u64 {
    if quick() {
        quick_value
    } else {
        base
    }
}

/// Where CSV output lands (created on demand).
pub fn results_dir() -> PathBuf {
    let d =
        PathBuf::from(std::env::var("DCWS_BENCH_OUT").unwrap_or_else(|_| "bench_results".into()));
    let _ = std::fs::create_dir_all(&d);
    d
}

/// Write `rows` (first row = header) as `name.csv` in [`results_dir`].
pub fn write_csv(name: &str, rows: &[Vec<String>]) {
    let path = results_dir().join(format!("{name}.csv"));
    let Ok(mut f) = std::fs::File::create(&path) else {
        eprintln!("warning: cannot write {}", path.display());
        return;
    };
    for row in rows {
        let _ = writeln!(f, "{}", row.join(","));
    }
    println!("\n[csv written to {}]", path.display());
}

/// Whether `--status-dump` was passed on the command line (or
/// `DCWS_STATUS_DUMP=1` set): also write engine event traces.
pub fn status_dump() -> bool {
    std::env::args().any(|a| a == "--status-dump")
        || std::env::var("DCWS_STATUS_DUMP")
            .map(|v| v == "1")
            .unwrap_or(false)
}

/// When [`status_dump`] is on, write `result`'s merged engine event
/// trace as `<tag>.events.csv` in [`results_dir`] and print a per-kind
/// event census. A no-op otherwise, so call sites can stay unconditional.
pub fn dump_status(tag: &str, result: &dcws_sim::SimResult) {
    if !status_dump() {
        return;
    }
    // Tags come from run labels ("strategy:rr-dns", "T_val x0.25"); keep
    // filenames portable.
    let safe: String = tag
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = results_dir().join(format!("{safe}.events.csv"));
    if let Err(e) = result.save_event_trace(&path) {
        eprintln!("warning: cannot write {}: {e}", path.display());
        return;
    }
    let mut by_kind: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for (_, rec) in &result.engine_events {
        *by_kind.entry(rec.event.kind()).or_insert(0) += 1;
    }
    let census = if by_kind.is_empty() {
        "no events".to_string()
    } else {
        by_kind
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "  [{tag}: {} events -> {} | {census}]",
        result.engine_events.len(),
        path.display()
    );
}

/// Format a number with thousands separators for table output.
pub fn fmt_thousands(x: f64) -> String {
    let n = x.round() as i64;
    let s = n.abs().to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    if n < 0 {
        format!("-{out}")
    } else {
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thousands_formatting() {
        assert_eq!(fmt_thousands(0.0), "0");
        assert_eq!(fmt_thousands(999.0), "999");
        assert_eq!(fmt_thousands(1000.0), "1,000");
        assert_eq!(fmt_thousands(15150.4), "15,150");
        assert_eq!(fmt_thousands(1234567.0), "1,234,567");
        assert_eq!(fmt_thousands(-1234.0), "-1,234");
    }

    #[test]
    fn scaled_respects_quick() {
        // Not quick by default in tests.
        if !quick() {
            assert_eq!(scaled(100, 5), 100);
        }
    }
}
