//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <warm_get|cluster_rw|sequoia_pull> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each live workload sets up its in-process servers three times
//! (reporting the median set-up time), then drives a fixed ladder of
//! offered rates open-loop. `--trace 0` prints the end-to-end metrics
//! measured client-side; `--trace 1` runs an untraced and a traced half
//! and prints the per-layer breakdown plus the tracing overhead. The
//! last line of standard output is the result object; the lines before
//! it are the run's provenance and its full report (every metric with
//! its unit and sample count). Any output-check failure exits nonzero.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod check;
mod client;
mod cluster;
mod cpu;
mod live;
mod pin;
mod report;
mod rng;
mod simphase;
mod stats;
mod trace;
mod workloads;

use report::{Metric, Report};

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds < 4.0 {
        return Err("--seconds must be at least 4".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::new(&args);
    let outcome = match args.workload.as_str() {
        "warm_get" | "cluster_rw" | "sequoia_pull" => trace::run_live(&args, &mut rep),
        other => Err(format!(
            "unknown workload {other:?} (warm_get, cluster_rw, sequoia_pull)"
        )),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    rep.push(Metric::new("peak_rss_mb", "MB", report::peak_rss_mb(), 1));
    let ok = rep.finish();
    if !ok {
        std::process::exit(1);
    }
}
