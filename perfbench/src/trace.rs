//! One live workload, end to end: set-up, the rate ladder, the
//! end-to-end metrics, and — in a traced run — the per-layer breakdown.
//!
//! A traced run first repeats the untraced ladder, then runs it again
//! traced: root spans per request (a child span per 301 hop), a
//! `DcwsServer::status_json()` snapshot of every node at the start and
//! end of every step, and a live engine-lock wait sampler. After the
//! load it replays a seeded sample of the recorded requests through the
//! layers' public functions in reactor order — `parse_request`,
//! `ReadPath::try_serve`, `EngineLock::lock` + `handle_request` on a
//! replica engine, `Transport::call` + `store_pulled` against the still
//! running home, `Response::head_bytes` — each call a child span of the
//! request's root. The traced-minus-untraced difference of each
//! end-to-end metric is reported as tracing overhead.

use crate::client::Clock;
use crate::cluster::Cluster;
use crate::cpu;
use crate::live::{
    get_wire, run_step, Fetch, LadderSpec, Status, StepPlan, StepRun, StepStats, Workload,
};
use crate::pin::Split;
use crate::report::{Metric, Report};
use crate::rng::{shuffled, Rng};
use crate::stats::{median, percentile, self_time, sort, Pct};
use crate::workloads::{
    replica_engine, request_of, AuthorLog, ClusterRw, SequoiaPull, SetupTimes, WarmGet,
};
use crate::{simphase, Args};
use dcws_core::{Json, Outcome};
use dcws_graph::{GlobalLoadTable, LoadInfo, ServerId};
use dcws_http::{Headers, LoadReport};
use dcws_net::{EngineLock, OpClass, RetryPolicy, Transport};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Unscored warm-up at the ladder's first rate before the first step.
const WARMUP_S: f64 = 1.0;
/// Rounds over the ladder; each round runs every rate once, ascending.
const ROUNDS: usize = 6;
/// Recorded requests replayed through the layers in a traced run.
const REPLAYS: usize = 200;
/// Engine-lock wait sampling period in a traced run.
const LOCK_SAMPLE_EVERY: Duration = Duration::from_millis(2);

/// Run the named live workload into `rep`.
pub fn run_live(args: &Args, rep: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "warm_get" => run_workload::<WarmGet>(args, rep),
        "cluster_rw" => run_workload::<ClusterRw>(args, rep),
        "sequoia_pull" => run_workload::<SequoiaPull>(args, rep),
        other => Err(format!("not a live workload: {other}")),
    }
}

fn run_workload<W: Workload>(args: &Args, rep: &mut Report) -> Result<(), String> {
    let split = Split::new();
    rep.detail(
        "cpus",
        split.as_ref().map_or("null".into(), Split::describe),
    );
    let mut setup_s = Vec::new();
    let mut times = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        if let Some(s) = &split {
            s.enter_server();
        }
        let t0 = Instant::now();
        let (w, t) = W::setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        times.push(t);
        if k + 1 < SETUPS {
            w.into_cluster().shutdown();
        } else {
            live = Some(w);
        }
    }
    let w = live.expect("last set-up kept");
    if let Some(s) = &split {
        s.enter_client();
    }
    rep.push(Metric::new(
        "setup_s",
        "s",
        median(&setup_s).expect("set-ups ran"),
        SETUPS,
    ));
    let spec = W::ladder();
    rep.detail(
        "ladder",
        format!(
            "{{\"rates\": {:?}, \"lo\": {}, \"hi\": {}, \"limit_p90_ms\": {}, \"max_lag_p99_ms\": {}, \"fail_budget\": {}}}",
            spec.rates, spec.lo, spec.hi, spec.limit_ms, spec.max_lag_ms, spec.fail_budget
        ),
    );
    let clock = Clock::start();
    let untraced = pass(&w, &spec, args.seconds, false, &clock);
    let e2e = end_to_end(&untraced, &spec);
    for m in &e2e.metrics {
        rep.push(m.clone());
    }
    rep.wrong.extend(e2e.problems);
    rep.wrong.extend(untraced.wrong.iter().cloned());
    rep.attempted += untraced.attempted;
    rep.failed += untraced.failed;
    rep.detail("steps", steps_json(&untraced.steps));
    if args.trace {
        let traced = pass(&w, &spec, args.seconds, true, &clock);
        let e2e_t = end_to_end(&traced, &spec);
        rep.wrong.extend(traced.wrong.iter().cloned());
        rep.attempted += traced.attempted;
        rep.failed += traced.failed;
        rep.detail("traced_steps", steps_json(&traced.steps));
        for m in &e2e_t.metrics {
            if let Some(base) = e2e.metrics.iter().find(|b| b.name == m.name) {
                if !matches!(m.name.as_str(), "ok_ratio" | "setup_s") {
                    rep.push(Metric::new(
                        &format!("overhead.{}", m.name),
                        &m.unit,
                        m.value - base.value,
                        m.samples,
                    ));
                }
            }
        }
        layers(&traced, &times, rep);
        replay(&w, &traced, args.seed, rep);
        // The simulator runs only beside the paper's own protocol; other
        // workloads report its metrics as zero.
        let sim = if args.workload == "cluster_rw" {
            simphase::run(args.seed).map_err(|e| rep.wrong.push(e)).ok()
        } else {
            None
        };
        let sim_values = sim.as_ref().map_or([0.0; 6], |s| {
            [
                s.events as f64,
                s.events_per_s,
                s.events_per_session,
                s.migrations as f64,
                s.regenerations as f64,
                s.drops as f64,
            ]
        });
        let sim_names = crate::report::PER_LAYER
            .iter()
            .filter(|(n, _)| n.starts_with("sim."));
        for ((name, unit), v) in sim_names.zip(sim_values) {
            rep.push(Metric::new(name, unit, v, usize::from(sim.is_some()) * 2));
        }
        if let Some(s) = sim {
            rep.detail(
                "sim",
                format!(
                    "{{\"digest\": {}, \"setup_s\": {}}}",
                    crate::report::json_str(&s.digest),
                    s.setup_s
                ),
            );
        }
    }
    w.into_cluster().shutdown();
    Ok(())
}

/// One pass over the ladder.
struct Pass {
    steps: Vec<StepStats>,
    /// The last `hi` run's records (traced passes only).
    hi_run: Option<StepRun>,
    /// Per run, per node: status at the run's start and end (traced).
    snaps: Vec<Vec<(Json, Json)>>,
    author: Option<AuthorLog>,
    /// Live engine-lock waits on the home, µs (traced).
    lock_waits_us: Vec<f64>,
    /// Cache admission rejects across nodes at pass start and end.
    admission: (u64, u64),
    wrong: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Processor time the servers used over the ladder (the process's
    /// minus the client threads'), s.
    server_cpu_s: f64,
    /// Requests sent over the ladder, every rate.
    requests: u64,
}

fn admission_rejects(c: &Cluster) -> u64 {
    c.nodes
        .iter()
        .map(|n| {
            let e = n.server.engine().lock();
            e.coop_cache().stats().admission_rejects + e.regen_cache().stats().admission_rejects
        })
        .sum()
}

fn pass<W: Workload>(w: &W, spec: &LadderSpec, seconds: f64, traced: bool, clock: &Clock) -> Pass {
    let n = spec.rates.len();
    let step_ns = ((seconds - WARMUP_S) / (n * ROUNDS) as f64 * 1e9) as u64;
    let stop = AtomicBool::new(false);
    let cluster = w.cluster();
    let admission_start = admission_rejects(cluster);
    let mut out = Pass {
        steps: Vec::new(),
        hi_run: None,
        snaps: Vec::new(),
        author: None,
        lock_waits_us: Vec::new(),
        admission: (admission_start, 0),
        wrong: Vec::new(),
        attempted: 0,
        failed: 0,
        server_cpu_s: 0.0,
        requests: 0,
    };
    std::thread::scope(|s| {
        let bg = s.spawn(|| {
            let t0 = cpu::thread_s();
            (w.background(clock, &stop), cpu::thread_s() - t0)
        });
        let sampler = traced.then(|| {
            s.spawn(|| {
                let t0 = cpu::thread_s();
                let mut waits = Vec::new();
                let home = &cluster.nodes[0].server;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(LOCK_SAMPLE_EVERY);
                    let t0 = Instant::now();
                    drop(home.engine().lock());
                    waits.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                (waits, cpu::thread_s() - t0)
            })
        });
        let warm = run_step(
            w,
            clock,
            StepPlan {
                idx: n,
                rate: spec.rates[spec.lo],
                len_ns: (WARMUP_S * 1e9) as u64,
            },
            false,
        );
        out.wrong.extend(warm.wrong);
        let (proc0, gen0) = (cpu::process_s(), cpu::thread_s());
        // Rates interleave round by round, so a burst of host noise
        // lands on every rate's samples alike instead of on one step.
        let mut runs: Vec<Vec<StepRun>> = (0..n).map(|_| Vec::new()).collect();
        let runs = &mut runs;
        for round in 0..ROUNDS {
            for (i, &rate) in spec.rates.iter().enumerate() {
                let before: Vec<Json> = if traced {
                    cluster
                        .nodes
                        .iter()
                        .map(|n| n.server.status_json())
                        .collect()
                } else {
                    Vec::new()
                };
                let plan = StepPlan {
                    idx: round * n + i,
                    rate,
                    len_ns: step_ns,
                };
                let run = run_step(w, clock, plan, traced);
                if traced {
                    let after = cluster.nodes.iter().map(|n| n.server.status_json());
                    out.snaps.push(before.into_iter().zip(after).collect());
                }
                out.wrong.extend(run.wrong.iter().cloned());
                runs[i].push(run);
            }
        }
        out.requests = runs.iter().flatten().map(|r| r.fetches.len() as u64).sum();
        for (i, level) in runs.iter_mut().enumerate() {
            let st = StepStats::of(i, spec.rates[i], level);
            if i == spec.lo || i == spec.hi {
                out.attempted += st.attempted as u64;
                out.failed += st.failed as u64;
            }
            if i == spec.hi && traced {
                out.hi_run = level.pop();
            }
            out.steps.push(st);
        }
        let gen = cpu::thread_s() - gen0;
        stop.store(true, Ordering::Relaxed);
        let (author, author_cpu) = bg.join().expect("background thread");
        out.author = author;
        let mut client = gen + author_cpu;
        if let Some(h) = sampler {
            let (waits, sampler_cpu) = h.join().expect("lock sampler");
            out.lock_waits_us = waits;
            client += sampler_cpu;
        }
        out.server_cpu_s = cpu::process_s() - proc0 - client;
    });
    out.admission.1 = admission_rejects(cluster);
    out
}

/// The end-to-end metrics of one pass, plus anything that kept one
/// from being measured.
struct EndToEnd {
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

fn end_to_end(p: &Pass, spec: &LadderSpec) -> EndToEnd {
    let mut metrics = Vec::new();
    let mut problems = Vec::new();
    let ok = 1.0 - p.failed as f64 / p.attempted.max(1) as f64;
    metrics.push(Metric::new("ok_ratio", "ratio", ok, p.attempted as usize));
    let mut rate = 0.0;
    for st in &p.steps {
        if !spec.passes(st) {
            break;
        }
        rate = st.rate;
    }
    metrics.push(Metric::new(
        "cpu_us_per_req",
        "us",
        p.server_cpu_s * 1e6 / p.requests.max(1) as f64,
        p.requests as usize,
    ));
    let scored: usize = p.steps.iter().map(|s| s.attempted).sum();
    metrics.push(Metric::new("rate_at_slo", "1/s", rate, scored));
    // The p50s are gated metrics and must be measured; the p99s are
    // reported with their sample counts whenever enough samples exist.
    let mut pct = |name: &str, step: usize, required: bool, f: fn(&StepStats) -> Pct| match p
        .steps
        .get(step)
        .map(f)
    {
        Some(Pct {
            value: Some(v),
            samples,
        }) => metrics.push(Metric::new(name, "ms", v, samples)),
        Some(Pct { samples, .. }) if required => problems.push(format!(
            "{name}: {samples} samples leave fewer than ten beyond the percentile"
        )),
        None if required => problems.push(format!("{name}: step {step} did not run")),
        _ => {}
    };
    pct("p50_ms.lo", spec.lo, true, |s| s.p50);
    pct("p50_ms.hi", spec.hi, true, |s| s.p50);
    pct("ttfb_p50_ms.hi", spec.hi, true, |s| s.ttfb_p50);
    pct("p99_ms.lo", spec.lo, false, |s| s.p99);
    pct("p99_ms.hi", spec.hi, false, |s| s.p99);
    pct("ttfb_p99_ms.hi", spec.hi, false, |s| s.ttfb_p99);
    EndToEnd { metrics, problems }
}

fn pct_json(p: Pct) -> String {
    format!(
        "{{\"ms\": {}, \"samples\": {}}}",
        p.value.map_or("null".into(), |v| v.to_string()),
        p.samples
    )
}

fn steps_json(steps: &[StepStats]) -> String {
    let items: Vec<String> = steps
        .iter()
        .map(|s| {
            format!(
                "{{\"step\": {}, \"rate\": {}, \"attempted\": {}, \"failed\": {}, \"wrong\": {}, \"fail_ratio\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"ttfb_p50\": {}, \"ttfb_p99\": {}, \"tail_p50_ms\": {}, \"gen_lag_p99_ms\": {}, \"gen_backlog_max\": {}, \"hops_per_req\": {}}}",
                s.idx,
                s.rate,
                s.attempted,
                s.failed,
                s.wrong,
                s.failed as f64 / s.attempted.max(1) as f64,
                pct_json(s.p50),
                pct_json(s.p90),
                pct_json(s.p99),
                pct_json(s.ttfb_p50),
                pct_json(s.ttfb_p99),
                crate::report::json_num(s.tail_p50_ms),
                s.lag_p99_ms,
                s.backlog_max,
                s.hops_per_req
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

/// `a.b.c` inside a status document, as a number (0 when absent).
fn num(j: &Json, path: &str) -> f64 {
    let mut cur = j;
    for key in path.split('.') {
        match cur.get(key) {
            Some(v) => cur = v,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

/// Sum over nodes of `path`'s change across the traced pass.
fn delta(p: &Pass, path: &str) -> f64 {
    let (Some(first), Some(last)) = (p.snaps.first(), p.snaps.last()) else {
        return 0.0;
    };
    first
        .iter()
        .zip(last)
        .map(|((start, _), (_, end))| num(end, path) - num(start, path))
        .sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Per-layer counts from the status snapshots, and the set-up layers.
fn layers(p: &Pass, times: &[SetupTimes], rep: &mut Report) {
    let inline = delta(p, "reactor.inline_served");
    let spill = delta(p, "reactor.spillover.jobs");
    let served = inline + spill;
    let batch_events: f64 = {
        let (Some(first), Some(last)) = (p.snaps.first(), p.snaps.last()) else {
            unreachable!("traced pass has steps")
        };
        let events =
            |j: &Json| num(j, "reactor.ready_batches.mean") * num(j, "reactor.ready_batches.count");
        first
            .iter()
            .zip(last)
            .map(|((s, _), (_, e))| events(e) - events(s))
            .sum()
    };
    let batches = delta(p, "reactor.ready_batches.count");
    let writev = delta(p, "reactor.writes.writev_calls");
    let n = served as usize;
    let m = |name: &str, unit: &str, v: f64, samples: usize| Metric::new(name, unit, v, samples);
    rep.push(m(
        "net.reactor.inline_ratio",
        "ratio",
        ratio(inline, served),
        n,
    ));
    rep.push(m(
        "net.reactor.ready_batch_mean",
        "count",
        ratio(batch_events, batches),
        batches as usize,
    ));
    rep.push(m(
        "net.reactor.spill_per_req",
        "ratio",
        ratio(spill, served),
        n,
    ));
    rep.push(m(
        "net.reactor.spill_rejected_503",
        "count",
        delta(p, "reactor.spillover.rejected_503"),
        n,
    ));
    rep.push(m(
        "net.writes.writev_per_resp",
        "ratio",
        ratio(writev, served),
        n,
    ));
    rep.push(m(
        "net.writes.segments_per_writev",
        "ratio",
        ratio(delta(p, "reactor.writes.writev_segments"), writev),
        writev as usize,
    ));
    rep.push(m(
        "net.writes.body_copies",
        "count",
        delta(p, "reactor.writes.body_copies"),
        n,
    ));
    let hits = delta(p, "transport.pool.hits");
    rep.push(m(
        "net.pool.reuse_ratio",
        "ratio",
        ratio(hits, hits + delta(p, "transport.pool.dials")),
        (hits + delta(p, "transport.pool.dials")) as usize,
    ));
    rep.push(m(
        "net.transport.retries",
        "count",
        delta(p, "transport.retries.retried"),
        1,
    ));
    rep.push(m(
        "net.pull_flights.coalesced",
        "count",
        delta(p, "transport.pull_flights.coalesced"),
        1,
    ));
    let end = p.snaps.last().expect("traced pass has steps");
    let worst = |path: &str| end.iter().map(|(_, e)| num(e, path)).fold(0.0, f64::max);
    rep.push(m(
        "net.queue_wait_p50_us",
        "us",
        worst("transport.queue_wait.p50_us"),
        worst("transport.queue_wait.count") as usize,
    ));
    rep.push(m(
        "net.service_time_p99_us",
        "us",
        worst("transport.service_time.p99_us"),
        worst("transport.service_time.count") as usize,
    ));
    let rp = delta(p, "read_path.requests");
    rep.push(m(
        "core.readpath.hit_ratio",
        "ratio",
        ratio(rp, rp + delta(p, "read_path.fallbacks")),
        (rp + delta(p, "read_path.fallbacks")) as usize,
    ));
    let requests = delta(p, "stats.requests");
    let docs = delta(p, "stats.served_home") + delta(p, "stats.served_coop");
    rep.push(m(
        "core.regenerations_per_kreq",
        "count",
        ratio(delta(p, "stats.regenerations"), requests / 1000.0),
        requests as usize,
    ));
    rep.push(m(
        "core.redirects_per_doc",
        "ratio",
        ratio(delta(p, "stats.redirects"), docs),
        docs as usize,
    ));
    let cache_ratio = |kind: &str| {
        let h = delta(p, &format!("cache.{kind}.hits"));
        let mi = delta(p, &format!("cache.{kind}.misses"));
        (ratio(h, h + mi), (h + mi) as usize)
    };
    let (r, rn) = cache_ratio("regen");
    rep.push(m("cache.regen.hit_ratio", "ratio", r, rn));
    let (c, cn) = cache_ratio("coop");
    rep.push(m("cache.coop.hit_ratio", "ratio", c, cn));
    rep.push(m(
        "cache.evictions",
        "count",
        delta(p, "cache.evictions"),
        1,
    ));
    rep.push(m(
        "cache.admission_rejects",
        "count",
        (p.admission.1 - p.admission.0) as f64,
        1,
    ));

    let mut waits = p.lock_waits_us.clone();
    let mut publish: Vec<f64> = times
        .iter()
        .flat_map(|t| t.publish_s.iter().map(|s| s * 1e6))
        .collect();
    if let Some(a) = &p.author {
        waits.extend(a.lock_wait_us.iter().copied());
        if !a.publish_us.is_empty() {
            publish = a.publish_us.clone();
        }
        rep.detail("author_updates", a.updates.to_string());
    }
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    rep.push(m(
        "core.engine.lock_wait_us",
        "us",
        mean(&waits),
        waits.len(),
    ));
    rep.push(m(
        "core.engine.publish_us",
        "us",
        median(&publish).unwrap_or(0.0),
        publish.len(),
    ));
    let gen: Vec<f64> = times.iter().map(|t| t.generate_s).collect();
    let mat: Vec<f64> = times.iter().map(|t| t.materialize_s).collect();
    rep.push(m(
        "workloads.generate_s",
        "s",
        median(&gen).unwrap_or(0.0),
        gen.len(),
    ));
    rep.push(m(
        "workloads.materialize_s",
        "s",
        median(&mat).unwrap_or(0.0),
        mat.len(),
    ));
    let lag = p.steps.iter().map(|s| s.lag_p99_ms).fold(0.0, f64::max);
    let backlog = p.steps.iter().map(|s| s.backlog_max).max().unwrap_or(0);
    rep.push(m("gen.lag_p99_ms", "ms", lag, p.steps.len()));
    rep.push(m("gen.backlog_max", "count", backlog as f64, p.steps.len()));
}

/// Per-call durations of one replayed layer function, µs.
#[derive(Default)]
struct Calls(Vec<f64>);

impl Calls {
    /// Time `f`, record it, and lay its span at `*cursor` on the
    /// request's virtual timeline.
    fn time<T>(
        &mut self,
        cursor: &mut u64,
        spans: &mut Vec<(u64, u64)>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.0.push(ns as f64 / 1e3);
        spans.push((*cursor, *cursor + ns));
        *cursor += ns;
        out
    }

    fn median(&self) -> f64 {
        median(&self.0).unwrap_or(0.0)
    }
}

/// Replay a seeded sample of the `hi` step's requests through the layers.
fn replay<W: Workload>(w: &W, p: &Pass, seed: u64, rep: &mut Report) {
    let cluster = w.cluster();
    let corpus = w.corpus();
    let ids: Vec<ServerId> = cluster.nodes.iter().map(|n| n.id.clone()).collect();
    let replicas: Vec<EngineLock> = ids
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let peers: Vec<ServerId> = ids.iter().filter(|p| *p != id).cloned().collect();
            let home_inputs = (i == 0).then_some(corpus);
            EngineLock::new(replica_engine(
                id,
                &peers,
                home_inputs,
                w.migrated(),
                ids.get(1),
            ))
        })
        .collect();
    let transport = Transport::new(RetryPolicy::default_inter_server(), None);
    let reports: Vec<LoadReport> = (0..8)
        .map(|i| LoadReport {
            server: format!("127.0.0.1:{}", 9000 + i),
            cps: 10.0 * i as f64,
            bps: 1e5 * i as f64,
            ts_ms: 1_000 + i,
        })
        .collect();
    let migrated_urls: std::collections::HashMap<String, String> = match ids.get(1) {
        Some(coop) => w
            .migrated()
            .iter()
            .filter_map(|&i| {
                let name = &corpus.dataset.docs[i].name;
                dcws_core::migrate_url(coop, &ids[0], name)
                    .ok()
                    .map(|u| (name.clone(), u.to_string()))
            })
            .collect(),
        None => Default::default(),
    };

    let ok: Vec<&Fetch> = p.hi_run.as_ref().map_or(Vec::new(), |r| {
        r.fetches
            .iter()
            .filter(|f| f.status == Status::Ok && f.cur.is_some())
            .collect()
    });
    let order = shuffled(&mut Rng::stream(seed, 7), ok.len());
    let [mut parse, mut try_serve, mut lock, mut handle, mut call, mut store, mut head, mut piggy, mut extract, mut rewrite] =
        std::array::from_fn::<Calls, 10, _>(|_| Calls::default());
    let (mut hits, mut tried) = (0usize, 0usize);
    let (mut stream_bytes, mut stream_s) = (0u64, 0.0f64);
    let mut self_us = Vec::new();
    let mut now_ms = 1_000u64;
    for &k in order.iter().take(REPLAYS) {
        let f = ok[k];
        let (node, path) = f.cur.clone().expect("final hop recorded");
        let node = node as usize;
        let root = (f.due, f.done);
        let mut cursor = f.hop_spans.last().map_or(f.left, |h| h.2);
        let mut spans: Vec<(u64, u64)> = f.hop_spans.iter().map(|h| (h.1, h.2)).collect();
        now_ms += 1;
        let wire = get_wire(&path, f.range);
        let req = parse.time(&mut cursor, &mut spans, || {
            dcws_http::parse_request(&wire)
                .ok()
                .flatten()
                .map(|p| p.message)
        });
        let req = req.unwrap_or_else(|| request_of(&path, f.range));
        tried += 1;
        let live = &cluster.nodes[node].server;
        let fast = try_serve.time(&mut cursor, &mut spans, || {
            live.read_path().try_serve(&req, now_ms)
        });
        let resp = match fast {
            Some(r) => {
                hits += 1;
                Some(r)
            }
            None => {
                let mut engine = lock.time(&mut cursor, &mut spans, || replicas[node].lock());
                let mut out = handle.time(&mut cursor, &mut spans, || {
                    engine.handle_request(&req, now_ms)
                });
                if let Outcome::FetchNeeded { home, path: doc } = &out {
                    let (home, doc) = (home.clone(), doc.clone());
                    let pull = engine.make_pull_request(&doc, now_ms);
                    drop(engine);
                    let got = call.time(&mut cursor, &mut spans, || {
                        transport.call(&home, &pull, OpClass::Pull)
                    });
                    engine = replicas[node].lock();
                    if let Ok(resp) = got {
                        store.time(&mut cursor, &mut spans, || {
                            engine.store_pulled(&home, &doc, &resp, now_ms)
                        });
                    }
                    out = handle.time(&mut cursor, &mut spans, || {
                        engine.handle_request(&req, now_ms)
                    });
                }
                drop(engine);
                let streamed = matches!(out, Outcome::Stream { .. });
                let t0 = Instant::now();
                let r = out.into_response();
                if streamed {
                    stream_s += t0.elapsed().as_secs_f64();
                    stream_bytes += r.as_ref().map_or(0, |r| r.body.len() as u64);
                }
                r
            }
        };
        if let Some(resp) = resp {
            head.time(&mut cursor, &mut spans, || resp.head_bytes());
            piggy.time(&mut cursor, &mut spans, || {
                let mut h = Headers::new();
                for r in &reports {
                    r.attach(&mut h);
                }
                LoadReport::extract_all(&h).len()
            });
            if resp
                .headers
                .get("Content-Type")
                .is_some_and(|t| t.starts_with("text/html"))
            {
                let html = String::from_utf8_lossy(&resp.body).into_owned();
                extract.time(&mut cursor, &mut spans, || {
                    dcws_html::extract_links(&html).len()
                });
                rewrite.time(&mut cursor, &mut spans, || {
                    dcws_html::rewrite_links(&html, |u| migrated_urls.get(u).cloned()).1
                });
            }
        }
        self_us.push(self_time(root, &spans) as f64 / 1e3);
    }
    let m = |name: &str, c: &Calls| Metric::new(name, "us", c.median(), c.0.len());
    rep.push(m("http.parse_request_us", &parse));
    rep.push(m("core.readpath.try_serve_us", &try_serve));
    rep.push(m("core.engine.handle_us", &handle));
    rep.push(m("http.head_bytes_us", &head));
    rep.push(m("http.piggyback_us", &piggy));
    rep.push(m("html.extract_links_us", &extract));
    rep.push(m("html.rewrite_links_us", &rewrite));
    rep.push(Metric::new(
        "net.self_us",
        "us",
        median(&self_us).unwrap_or(0.0),
        self_us.len(),
    ));
    let mut calls = call.0.clone();
    sort(&mut calls);
    let or_max = |p: Pct| p.value.or(calls.last().copied()).unwrap_or(0.0);
    rep.push(Metric::new(
        "net.transport.call_us.p50",
        "us",
        or_max(percentile(&calls, 0.5)),
        calls.len(),
    ));
    rep.push(Metric::new(
        "net.transport.call_us.p99",
        "us",
        or_max(percentile(&calls, 0.99)),
        calls.len(),
    ));
    rep.push(Metric::new(
        "core.stream.read_mb_s",
        "MB/s",
        if stream_s > 0.0 {
            stream_bytes as f64 / 1e6 / stream_s
        } else {
            0.0
        },
        stream_bytes as usize,
    ));
    rep.detail(
        "replay",
        format!(
            "{{\"requests\": {tried}, \"readpath_hits\": {hits}, \"lock_us\": {}, \"store_pulled_us\": {}}}",
            lock.median(),
            store.median()
        ),
    );

    // Control plane on the home replica, now holding the replayed hits.
    let mut tick = Calls::default();
    let mut select = Calls::default();
    let (mut c, mut s) = (0u64, Vec::new());
    {
        let mut home = replicas[0].lock();
        for k in 0..20 {
            tick.time(&mut c, &mut s, || home.tick(now_ms + 500 * k));
        }
        let threshold = home.config().selection_threshold;
        for _ in 0..50 {
            select.time(&mut c, &mut s, || {
                dcws_graph::select_for_migration(home.ldg(), threshold)
            });
        }
    }
    rep.push(m("core.engine.tick_us", &tick));
    rep.push(m("graph.select_for_migration_us", &select));
    let mut glt = GlobalLoadTable::new(ids[0].clone());
    let peers: Vec<ServerId> = (0..64)
        .map(|i| ServerId::new(format!("10.0.0.{i}:80")))
        .collect();
    for p in &peers {
        glt.add_peer(p.clone());
    }
    let mut update = Calls::default();
    for k in 0..2_000u64 {
        let peer = peers[(k % 64) as usize].clone();
        let info = LoadInfo {
            cps: k as f64,
            bps: 1e3 * k as f64,
            ts_ms: k,
        };
        update.time(&mut c, &mut s, || glt.update(peer, info));
    }
    rep.push(m("graph.glt_update_us", &update));
}
