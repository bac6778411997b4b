//! Run output: provenance, the full report, and the one-line result.
//!
//! Standard output carries three JSON lines: `{"provenance": …}`,
//! `{"report": …}` (every metric measured, with unit, sample count and
//! per-step detail) and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}` holding exactly the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`) named in `BENCHMARK.json`.

use crate::Args;
use std::fmt::Write as _;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("rate_at_slo", "1/s"),
    ("cpu_us_per_req", "us"),
];

/// The per-layer metrics every traced run reports, with units. A layer
/// a workload does not exercise reports zero (see the README's table).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.reactor.inline_ratio", "ratio"),
    ("net.reactor.ready_batch_mean", "count"),
    ("net.reactor.spill_per_req", "ratio"),
    ("net.reactor.spill_rejected_503", "count"),
    ("net.self_us", "us"),
    ("net.writes.writev_per_resp", "ratio"),
    ("net.writes.segments_per_writev", "ratio"),
    ("net.writes.body_copies", "count"),
    ("net.transport.call_us.p50", "us"),
    ("net.transport.call_us.p99", "us"),
    ("net.pool.reuse_ratio", "ratio"),
    ("net.transport.retries", "count"),
    ("net.pull_flights.coalesced", "count"),
    ("net.queue_wait_p50_us", "us"),
    ("net.service_time_p99_us", "us"),
    ("http.parse_request_us", "us"),
    ("http.head_bytes_us", "us"),
    ("http.piggyback_us", "us"),
    ("core.readpath.try_serve_us", "us"),
    ("core.readpath.hit_ratio", "ratio"),
    ("core.engine.lock_wait_us", "us"),
    ("core.engine.handle_us", "us"),
    ("core.engine.publish_us", "us"),
    ("core.engine.tick_us", "us"),
    ("core.regenerations_per_kreq", "count"),
    ("core.redirects_per_doc", "ratio"),
    ("core.stream.read_mb_s", "MB/s"),
    ("cache.regen.hit_ratio", "ratio"),
    ("cache.coop.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.admission_rejects", "count"),
    ("html.rewrite_links_us", "us"),
    ("html.extract_links_us", "us"),
    ("graph.select_for_migration_us", "us"),
    ("graph.glt_update_us", "us"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.events_per_session", "ratio"),
    ("sim.migrations", "count"),
    ("sim.regenerations", "count"),
    ("sim.drops", "count"),
    ("workloads.generate_s", "s"),
    ("workloads.materialize_s", "s"),
    ("gen.lag_p99_ms", "ms"),
    ("gen.backlog_max", "count"),
    ("overhead.rate_at_slo", "1/s"),
    ("overhead.cpu_us_per_req", "us"),
    ("overhead.p50_ms.lo", "ms"),
    ("overhead.p50_ms.hi", "ms"),
    ("overhead.ttfb_p50_ms.hi", "ms"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json` (or a report-only name).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The value, as measured.
    pub value: f64,
    /// Samples behind it (requests, calls, runs).
    pub samples: usize,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &str, value: f64, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// Everything a run reports.
pub struct Report {
    trace: bool,
    provenance: String,
    metrics: Vec<Metric>,
    /// Free-form JSON fragments (`"key": value`) for the report line.
    details: Vec<String>,
    /// Requests attempted over the scored steps.
    pub attempted: u64,
    /// Of those, failed (refused, reset, 503, timed out, wrong body).
    pub failed: u64,
    /// Output-check failures; any one makes the run incorrect.
    pub wrong: Vec<String>,
}

impl Report {
    /// A report for this invocation, with its provenance.
    pub fn new(args: &Args) -> Report {
        let argv: Vec<String> = std::env::args().map(|a| json_str(&a)).collect();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let provenance = format!(
            "{{\"git_rev\": {}, \"nproc\": {nproc}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"workload\": {}, \"argv\": [{}]}}",
            json_str(&git_rev()),
            args.seed,
            args.seconds,
            args.trace,
            json_str(&args.workload),
            argv.join(", ")
        );
        Report {
            trace: args.trace,
            provenance,
            metrics: Vec::new(),
            details: Vec::new(),
            attempted: 0,
            failed: 0,
            wrong: Vec::new(),
        }
    }

    /// Record a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Record a detail for the report line (`value` is JSON).
    pub fn detail(&mut self, key: &str, value: String) {
        self.details.push(format!("{}: {value}", json_str(key)));
    }

    /// Print the three output lines; returns whether the run was correct.
    pub fn finish(self) -> bool {
        let wanted = if self.trace { PER_LAYER } else { END_TO_END };
        let mut missing = Vec::new();
        let mut result = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) => {
                    let _ = write!(
                        result,
                        "{}{}: {{\"value\": {}, \"unit\": {}}}",
                        if i > 0 { ", " } else { "" },
                        json_str(name),
                        json_num(m.value),
                        json_str(unit)
                    );
                }
                None => missing.push(*name),
            }
        }
        let mut wrong = self.wrong;
        if !missing.is_empty() {
            wrong.push(format!("metrics not measured: {missing:?}"));
        }
        let correct = wrong.is_empty();
        let all: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(&m.unit),
                    m.samples
                )
            })
            .collect();
        let wrong_json: Vec<String> = wrong.iter().map(|w| json_str(w)).collect();
        println!("{{\"provenance\": {}}}", self.provenance);
        println!(
            "{{\"report\": {{\"metrics\": {{{}}}, \"check_failures\": [{}]{}{}}}}}",
            all.join(", "),
            wrong_json.join(", "),
            if self.details.is_empty() { "" } else { ", " },
            self.details.join(", ")
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{result}}}}}",
            self.attempted.max(1),
            self.failed
        );
        for w in &wrong {
            eprintln!("CHECK FAILED: {w}");
        }
        correct
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of the measurement (non-finite
/// values, which JSON cannot carry, become `null`).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// a source tree that is not a git checkout reports so.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcws_core::Json;

    /// The metric lists printed here are exactly those `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let spec = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid BENCHMARK.json");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    #[test]
    fn json_helpers_escape_and_keep_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.1234567891), "0.1234567891");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
