//! The open-loop ladder shared by the live workloads: per-request
//! records, one ladder step's run across generator threads, and the
//! step's exact client-side statistics.

use crate::client::{drive, Clock, Source};
use crate::cluster::{Cluster, Corpus};
use crate::stats::{median, percentile, sort, Pct};
use crate::workloads::{AuthorLog, SetupTimes};
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;

/// How a logical request (all its 301 hops) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not answered yet.
    Pending,
    /// A correct final response.
    Ok,
    /// Refused, reset, timed out, or a status other than the one expected.
    Failed,
    /// A final response whose body failed the output check.
    Wrong,
}

/// One client request, from its due time to its final response.
#[derive(Debug, Clone)]
pub struct Fetch {
    /// When the schedule says it leaves (ns on the run clock).
    pub due: u64,
    /// When the generator handed it to a connection.
    pub left: u64,
    /// First byte of the final response.
    pub first: u64,
    /// Last byte of the final response.
    pub done: u64,
    /// Corpus index of the document asked for.
    pub doc: u32,
    /// 301 hops followed.
    pub hops: u8,
    /// Outcome.
    pub status: Status,
    /// Requested byte range, inclusive.
    pub range: Option<(u64, u64)>,
    /// Oldest acceptable page version (workloads with author updates).
    pub min_version: u64,
    /// The (node, path) the next hop goes to while in flight.
    pub cur: Option<(u8, String)>,
    /// Traced runs: one child span per 301 hop, `(node, sent, done)`.
    pub hop_spans: Vec<(u8, u64, u64)>,
}

impl Fetch {
    /// A request for `doc` at `server`, due at `due`.
    pub fn new(due: u64, doc: usize, server: usize, path: String) -> Fetch {
        Fetch {
            due,
            left: 0,
            first: 0,
            done: 0,
            doc: doc as u32,
            hops: 0,
            status: Status::Pending,
            range: None,
            min_version: 0,
            cur: Some((server as u8, path)),
            hop_spans: Vec::new(),
        }
    }
}

/// The wire form of a GET for `path`, with an optional inclusive range.
pub fn get_wire(path: &str, range: Option<(u64, u64)>) -> Vec<u8> {
    let mut s = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n");
    if let Some((a, b)) = range {
        s.push_str(&format!("Range: bytes={a}-{b}\r\n"));
    }
    s.push_str("\r\n");
    s.into_bytes()
}

/// A [`Source`] for one ladder step.
pub trait StepSource: Source + Send {
    /// The thread's request records and any output-check failures.
    fn finish(self: Box<Self>) -> (Vec<Fetch>, Vec<String>);
}

/// One ladder step: an offered rate held for a fixed time.
#[derive(Debug, Clone, Copy)]
pub struct StepPlan {
    /// Ladder index.
    pub idx: usize,
    /// Offered rate (requests/s, or sessions/s on `cluster_rw`).
    pub rate: f64,
    /// How long arrivals are generated, ns.
    pub len_ns: u64,
}

/// A workload's frozen ladder.
pub struct LadderSpec {
    /// Offered rates, ascending (requests/s; sessions/s on `cluster_rw`).
    pub rates: Vec<f64>,
    /// The step reported as `*.lo`.
    pub lo: usize,
    /// The step reported as `*.hi`.
    pub hi: usize,
    /// The p90 latency limit a rate must meet, ms.
    pub limit_ms: f64,
    /// A step whose requests left more than this late (p99) is invalid:
    /// the generator, not the server, fell behind.
    pub max_lag_ms: f64,
    /// Share of a step's requests that may fail while it still meets
    /// the SLO.
    pub fail_budget: f64,
}

impl LadderSpec {
    /// A step is scored: valid (the generator kept up) and within the
    /// latency limit and the failure budget, with no growing queue.
    pub fn passes(&self, st: &StepStats) -> bool {
        st.generator_valid(self.max_lag_ms) && st.meets(self.limit_ms, self.fail_budget)
    }
}

/// A live workload: its servers, its frozen ladder and its request
/// stream. One generator thread drives each run (a second, on
/// `cluster_rw`, makes author updates).
pub trait Workload: Sync {
    /// Build corpus and servers and warm them.
    fn setup(seed: u64) -> (Self, SetupTimes)
    where
        Self: Sized;
    /// The frozen ladder.
    fn ladder() -> LadderSpec
    where
        Self: Sized;
    /// Its servers.
    fn cluster(&self) -> &Cluster;
    /// Hand back the servers for shutdown.
    fn into_cluster(self) -> Cluster
    where
        Self: Sized;
    /// Its corpus.
    fn corpus(&self) -> &Corpus;
    /// Corpus indices migrated at set-up.
    fn migrated(&self) -> &[usize] {
        &[]
    }
    /// Load that runs beside the ladder (author updates), until `stop`.
    fn background(&self, _clock: &Clock, _stop: &AtomicBool) -> Option<AuthorLog> {
        None
    }
    /// The connections the generator opens, by index.
    fn conns(&self) -> Vec<SocketAddr>;
    /// The request source for `step`, with arrivals from `start_ns`.
    fn source(&self, step: &StepPlan, start_ns: u64, traced: bool) -> Box<dyn StepSource>;
    /// How long to wait for stragglers after the last arrival.
    fn drain_ns(&self) -> u64;
}

/// Everything one step produced.
pub struct StepRun {
    /// Every request record.
    pub fetches: Vec<Fetch>,
    /// Output-check failures.
    pub wrong: Vec<String>,
    /// Largest generator backlog.
    pub backlog_max: usize,
}

/// Run one step on the calling thread.
pub fn run_step(w: &dyn Workload, clock: &Clock, plan: StepPlan, traced: bool) -> StepRun {
    let start = clock.now() + 2_000_000;
    let deadline = start + plan.len_ns + w.drain_ns();
    let mut src = w.source(&plan, start, traced);
    let ds = drive(&w.conns(), clock, &mut *src, deadline);
    let (fetches, wrong) = src.finish();
    StepRun {
        fetches,
        wrong,
        backlog_max: ds.backlog_max,
    }
}

/// A step's exact client-side statistics.
#[derive(Debug, Clone)]
pub struct StepStats {
    /// Ladder index.
    pub idx: usize,
    /// Offered rate.
    pub rate: f64,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests failed, wrong bodies included.
    pub failed: usize,
    /// Of `failed`, wrong bodies.
    pub wrong: usize,
    /// Latency from due time to the final response's last byte, ms
    /// (median over the rate's runs; see [`over_runs`]).
    pub p50: Pct,
    /// 99th percentile of the same.
    pub p99: Pct,
    /// 90th percentile of the same: the SLO's percentile.
    pub p90: Pct,
    /// Time to the final response's first byte, from due time, ms.
    pub ttfb_p50: Pct,
    /// 99th percentile of the same.
    pub ttfb_p99: Pct,
    /// Median latency of requests due in the last quarter of each of the
    /// rate's runs, ms: a queue that keeps growing shows here first.
    pub tail_p50_ms: f64,
    /// How late requests left relative to their due time, p99, ms.
    pub lag_p99_ms: f64,
    /// Largest generator backlog.
    pub backlog_max: usize,
    /// 301 hops per completed request.
    pub hops_per_req: f64,
}

/// A percentile of one rate over its runs: the median of each run's
/// exact percentile, so a run hit by a burst of host noise does not set
/// it; when a run has too few samples for that percentile, the exact
/// percentile of all runs' samples pooled.
fn over_runs(per_run: &[Vec<f64>], q: f64) -> Pct {
    let samples = per_run.iter().map(Vec::len).sum();
    let each: Option<Vec<f64>> = per_run.iter().map(|r| percentile(r, q).value).collect();
    let value = match each {
        Some(v) if !v.is_empty() => median(&v),
        _ => {
            let mut pooled: Vec<f64> = per_run.concat();
            sort(&mut pooled);
            percentile(&pooled, q).value
        }
    };
    Pct { value, samples }
}

impl StepStats {
    /// Reduce the records of one ladder rate over its runs.
    pub fn of(idx: usize, rate: f64, runs: &[StepRun]) -> StepStats {
        let ms = |ns: u64| ns as f64 / 1e6;
        let (mut lat, mut ttfb, mut tail, mut lag) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut attempted, mut failed, mut wrong, mut hops, mut ok, mut backlog_max) =
            (0, 0, 0, 0u64, 0usize, 0);
        for run in runs {
            let f = &run.fetches;
            let start = f.iter().map(|x| x.due).min().unwrap_or(0);
            let end = f.iter().map(|x| x.due).max().unwrap_or(0);
            let tail_from = start + (end - start) * 3 / 4;
            let (mut run_lat, mut run_ttfb) = (Vec::new(), Vec::new());
            for x in f {
                attempted += 1;
                if x.left > 0 {
                    lag.push(ms(x.left.saturating_sub(x.due)));
                }
                match x.status {
                    Status::Ok => {
                        ok += 1;
                        hops += x.hops as u64;
                        let l = ms(x.done.saturating_sub(x.due));
                        run_lat.push(l);
                        run_ttfb.push(ms(x.first.saturating_sub(x.due)));
                        if x.due >= tail_from {
                            tail.push(l);
                        }
                    }
                    Status::Wrong => {
                        wrong += 1;
                        failed += 1;
                    }
                    Status::Failed | Status::Pending => failed += 1,
                }
            }
            sort(&mut run_lat);
            sort(&mut run_ttfb);
            lat.push(run_lat);
            ttfb.push(run_ttfb);
            backlog_max = backlog_max.max(run.backlog_max);
        }
        sort(&mut tail);
        sort(&mut lag);
        StepStats {
            idx,
            rate,
            attempted,
            failed,
            wrong,
            p50: over_runs(&lat, 0.50),
            p99: over_runs(&lat, 0.99),
            p90: over_runs(&lat, 0.90),
            ttfb_p50: over_runs(&ttfb, 0.50),
            ttfb_p99: over_runs(&ttfb, 0.99),
            tail_p50_ms: percentile(&tail, 0.5).value.unwrap_or(f64::INFINITY),
            lag_p99_ms: percentile(&lag, 0.99)
                .value
                .or(lag.last().copied())
                .unwrap_or(0.0),
            backlog_max,
            hops_per_req: if ok == 0 {
                0.0
            } else {
                hops as f64 / ok as f64
            },
        }
    }

    /// The generator kept up: requests left within `max_lag_ms` of due.
    pub fn generator_valid(&self, max_lag_ms: f64) -> bool {
        self.lag_p99_ms <= max_lag_ms
    }

    /// The step meets the latency limit with failures within `budget`
    /// (a share of attempts) and no growing queue. An unreportable p90
    /// (too few samples) does not pass.
    pub fn meets(&self, limit_ms: f64, budget: f64) -> bool {
        self.failed as f64 <= budget * self.attempted as f64
            && self.p90.value.is_some_and(|p| p <= limit_ms)
            && self.tail_p50_ms <= limit_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_noisy_run_does_not_set_the_rate_percentile() {
        let quiet: Vec<f64> = (0..2000).map(|i| 1.0 + i as f64 / 2000.0).collect();
        let noisy: Vec<f64> = quiet.iter().map(|x| x * 50.0).collect();
        let p = over_runs(&[quiet.clone(), noisy, quiet.clone()], 0.99);
        assert_eq!(p.samples, 6000);
        assert_eq!(p.value, percentile(&quiet, 0.99).value);
        // Runs too small for a p99 each fall back to the pooled samples.
        let small: Vec<Vec<f64>> = quiet.chunks(500).map(<[f64]>::to_vec).collect();
        assert_eq!(
            over_runs(&small, 0.99).value,
            percentile(&quiet, 0.99).value
        );
    }
}
