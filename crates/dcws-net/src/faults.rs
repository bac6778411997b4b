//! Deterministic fault injection for the real transport.
//!
//! Chaos testing a real TCP cluster is only useful if a failing run can
//! be replayed. A [`FaultPlan`] is therefore a *pure function* of a
//! seed: the decision for the `seq`-th inter-server operation depends
//! only on `(seed, seq)` (plus the peer and clock for blackout
//! windows), never on wall-clock randomness — the same seed always
//! yields the identical fault schedule, which the crate's proptests
//! pin down. A [`FaultInjector`] binds a plan to a running server: it
//! allocates sequence numbers, tracks per-document first-attempt
//! faults, evaluates blackout windows against its own epoch, and
//! counts everything it injects for `/dcws/status`.
//!
//! The fault taxonomy (see `docs/RESILIENCE.md`):
//!
//! * **refusal** — the connection attempt fails immediately;
//! * **drop mid-response** — the request is delivered but the
//!   connection dies before the response body completes;
//! * **garble** — the response body arrives with a flipped byte
//!   (caught by the `X-DCWS-Body-FNV` integrity check);
//! * **added latency** — the operation is delayed by a seeded number
//!   of milliseconds;
//! * **blackout** — every operation to (or from) a peer fails during a
//!   time window, modelling a crash or a network partition.
//!
//! The same vocabulary drives the discrete-event simulator
//! (`SimCluster::with_fault_plan`), so a schedule exercised over real
//! sockets can be replayed under the simulator and vice versa.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64-style avalanche: uncorrelated 64-bit stream from
/// `(seed, n)`, the determinism workhorse for fault draws and jitter.
pub(crate) fn mix(seed: u64, n: u64) -> u64 {
    let mut z = seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to the unit interval `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Which fault to apply to a first-k-attempts target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstFaultKind {
    /// Refuse the connection outright.
    Refuse,
    /// Deliver the request, then kill the connection mid-response.
    Drop,
}

/// A peer-scoped outage window, relative to the injector's epoch.
/// `peer == "*"` matches every peer (a full partition of this side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blackout {
    /// Peer identity (`host:port`), or `"*"` for all peers.
    pub peer: String,
    /// Window start, milliseconds since the injector's epoch.
    pub from_ms: u64,
    /// Window end (exclusive), milliseconds since the epoch.
    pub until_ms: u64,
}

impl Blackout {
    fn covers(&self, peer: &str, at_ms: u64) -> bool {
        (self.peer == "*" || self.peer == peer) && at_ms >= self.from_ms && at_ms < self.until_ms
    }
}

/// The fault to apply to one inter-server operation. Produced by
/// [`FaultPlan::decide`]; the default is "no fault".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Decision {
    /// Fail the connection attempt immediately.
    pub refuse: bool,
    /// Deliver the request, then fail before the response body
    /// completes (indistinguishable from a peer dying mid-write).
    pub drop_mid_response: bool,
    /// Corrupt one byte of the response body.
    pub garble: bool,
    /// Added latency before the operation, in milliseconds (0 = none).
    pub delay_ms: u64,
}

impl Decision {
    /// `true` when no fault at all is applied.
    pub fn is_clean(&self) -> bool {
        *self == Decision::default()
    }
}

/// A seeded, reproducible schedule of transport faults.
///
/// Probabilities are per-operation; draws for the `seq`-th operation
/// depend only on `(seed, seq)`, so two runs with the same seed and
/// the same operation order see the same faults.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed all per-operation draws derive from.
    pub seed: u64,
    /// Probability a connection attempt is refused.
    pub refuse: f64,
    /// Probability a response is cut off mid-body.
    pub drop_mid_response: f64,
    /// Probability a response body is garbled in flight.
    pub garble: f64,
    /// Probability an operation gets added latency.
    pub delay: f64,
    /// Added-latency range `[lo, hi)` in milliseconds.
    pub delay_range_ms: (u64, u64),
    /// Deterministically fault the first `n` attempts of every distinct
    /// `(peer, path)` operation — the "every first pull drops" schedule.
    pub fail_first_attempts: u32,
    /// Which fault the first-attempt rule injects.
    pub fail_first_kind: FirstFaultKind,
    /// Scheduled peer outage windows.
    pub blackouts: Vec<Blackout>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults; compose with the
    /// `with_*` builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            refuse: 0.0,
            drop_mid_response: 0.0,
            garble: 0.0,
            delay: 0.0,
            delay_range_ms: (0, 0),
            fail_first_attempts: 0,
            fail_first_kind: FirstFaultKind::Drop,
            blackouts: Vec::new(),
        }
    }

    /// Set the connection-refusal probability.
    pub fn with_refuse(mut self, p: f64) -> FaultPlan {
        self.refuse = p;
        self
    }

    /// Set the mid-response drop probability.
    pub fn with_drop(mut self, p: f64) -> FaultPlan {
        self.drop_mid_response = p;
        self
    }

    /// Set the body-garble probability.
    pub fn with_garble(mut self, p: f64) -> FaultPlan {
        self.garble = p;
        self
    }

    /// Set the added-latency probability and range.
    pub fn with_delay(mut self, p: f64, range_ms: (u64, u64)) -> FaultPlan {
        self.delay = p;
        self.delay_range_ms = range_ms;
        self
    }

    /// Fault the first `attempts` tries of every distinct `(peer, path)`
    /// operation with `kind`.
    pub fn with_fail_first(mut self, attempts: u32, kind: FirstFaultKind) -> FaultPlan {
        self.fail_first_attempts = attempts;
        self.fail_first_kind = kind;
        self
    }

    /// Add a peer outage window (milliseconds since injector epoch).
    pub fn with_blackout(mut self, peer: &str, from_ms: u64, until_ms: u64) -> FaultPlan {
        self.blackouts.push(Blackout {
            peer: peer.to_string(),
            from_ms,
            until_ms,
        });
        self
    }

    /// The fault for operation number `seq` against `peer` at `at_ms`
    /// (milliseconds since the injector's epoch). Pure: random draws
    /// depend only on `(seed, seq)`; `peer`/`at_ms` matter only for
    /// blackout windows.
    pub fn decide(&self, seq: u64, peer: &str, at_ms: u64) -> Decision {
        let mut d = Decision::default();
        if self.blackouts.iter().any(|b| b.covers(peer, at_ms)) {
            d.refuse = true;
            return d;
        }
        let h = mix(self.seed, seq);
        if unit(mix(h, 1)) < self.refuse {
            d.refuse = true;
            return d;
        }
        if unit(mix(h, 2)) < self.drop_mid_response {
            d.drop_mid_response = true;
        }
        if unit(mix(h, 3)) < self.garble {
            d.garble = true;
        }
        if unit(mix(h, 4)) < self.delay {
            let (lo, hi) = self.delay_range_ms;
            let span = hi.saturating_sub(lo).max(1);
            d.delay_ms = lo + mix(h, 5) % span;
        }
        d
    }
}

/// Counts of faults actually injected, for `/dcws/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSnapshot {
    /// Operations evaluated against the plan.
    pub decisions: u64,
    /// Connections refused (probability, first-attempt, or blackout).
    pub refusals: u64,
    /// Responses cut off mid-body.
    pub drops: u64,
    /// Response bodies garbled.
    pub garbles: u64,
    /// Operations delayed.
    pub delays: u64,
}

impl FaultSnapshot {
    /// Total faults injected (a delayed-and-dropped operation counts
    /// each effect once).
    pub fn injected(&self) -> u64 {
        self.refusals + self.drops + self.garbles + self.delays
    }
}

/// A [`FaultPlan`] bound to a running server: allocates operation
/// sequence numbers, applies first-attempt rules per `(peer, path)`,
/// evaluates blackout windows against its creation instant, and counts
/// what it injects. All methods take `&self`.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    epoch: Instant,
    seq: AtomicU64,
    first_counts: Mutex<HashMap<String, u32>>,
    dynamic: Mutex<Vec<Blackout>>,
    decisions: AtomicU64,
    refusals: AtomicU64,
    drops: AtomicU64,
    garbles: AtomicU64,
    delays: AtomicU64,
}

impl FaultInjector {
    /// Bind `plan` to a fresh epoch (blackout windows count from now).
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            first_counts: Mutex::new(HashMap::new()),
            dynamic: Mutex::new(Vec::new()),
            decisions: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            garbles: AtomicU64::new(0),
            delays: AtomicU64::new(0),
        }
    }

    /// The plan this injector applies.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Milliseconds since this injector's epoch.
    pub fn elapsed_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Start a blackout of `peer` (or `"*"`) lasting `dur` from now —
    /// the runtime lever chaos tests use to partition a live cluster at
    /// a point they control.
    pub fn blackout_now(&self, peer: &str, dur: Duration) {
        let from_ms = self.elapsed_ms();
        self.dynamic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Blackout {
                peer: peer.to_string(),
                from_ms,
                until_ms: from_ms + dur.as_millis() as u64,
            });
    }

    /// End every blackout (scheduled and dynamic) of `peer` — the
    /// partition-heal lever.
    pub fn heal(&self, peer: &str) {
        let now = self.elapsed_ms();
        let clip = |b: &mut Blackout| {
            if (b.peer == "*" || b.peer == peer) && b.until_ms > now {
                b.until_ms = now;
            }
        };
        self.dynamic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter_mut()
            .for_each(clip);
        // Scheduled blackouts are part of the immutable plan; dynamic
        // state overrides them via this shadow list.
        let mut shadow = self.plan.blackouts.clone();
        shadow.iter_mut().for_each(clip);
        let mut dynamic = self.dynamic.lock().unwrap_or_else(|e| e.into_inner());
        for b in shadow {
            if !dynamic.contains(&b) {
                dynamic.push(b);
            }
        }
    }

    fn dynamic_covers(&self, peer: &str, at_ms: u64) -> Option<bool> {
        let dynamic = self.dynamic.lock().unwrap_or_else(|e| e.into_inner());
        if dynamic.is_empty() {
            return None;
        }
        // A clipped shadow copy of a scheduled blackout overrides it:
        // the latest matching window wins.
        let mut verdict = None;
        for b in dynamic.iter() {
            if b.peer == "*" || b.peer == peer {
                verdict = Some(b.covers(peer, at_ms));
            }
        }
        verdict
    }

    /// The fault for the next outbound operation to `peer` for `path`.
    pub fn outbound(&self, peer: &str, path: &str) -> Decision {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let at_ms = self.elapsed_ms();
        let mut d = self.plan.decide(seq, peer, at_ms);
        if let Some(covered) = self.dynamic_covers(peer, at_ms) {
            // Dynamic windows override the plan's blackout verdict but
            // not its probabilistic draws.
            if covered {
                d = Decision {
                    refuse: true,
                    ..Decision::default()
                };
            } else if d.refuse && self.plan.blackouts.iter().any(|b| b.covers(peer, at_ms)) {
                d.refuse = false;
            }
        }
        if self.plan.fail_first_attempts > 0 && !d.refuse {
            let key = format!("{peer} {path}");
            let mut counts = self.first_counts.lock().unwrap_or_else(|e| e.into_inner());
            let c = counts.entry(key).or_insert(0);
            if *c < self.plan.fail_first_attempts {
                *c += 1;
                match self.plan.fail_first_kind {
                    FirstFaultKind::Refuse => d.refuse = true,
                    FirstFaultKind::Drop => d.drop_mid_response = true,
                }
            }
        }
        self.count(&d);
        d
    }

    fn count(&self, d: &Decision) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if d.refuse {
            self.refusals.fetch_add(1, Ordering::Relaxed);
        }
        if d.drop_mid_response {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
        if d.garble {
            self.garbles.fetch_add(1, Ordering::Relaxed);
        }
        if d.delay_ms > 0 {
            self.delays.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Injection counters so far.
    pub fn snapshot(&self) -> FaultSnapshot {
        FaultSnapshot {
            decisions: self.decisions.load(Ordering::Relaxed),
            refusals: self.refusals.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            garbles: self.garbles.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::new(42)
            .with_refuse(0.2)
            .with_drop(0.3)
            .with_garble(0.1)
            .with_delay(0.5, (1, 20));
        let a: Vec<Decision> = (0..200).map(|i| plan.decide(i, "p:80", 0)).collect();
        let b: Vec<Decision> = (0..200).map(|i| plan.decide(i, "p:80", 7777)).collect();
        assert_eq!(a, b, "draws must not depend on the clock");
        let clean = a.iter().filter(|d| d.is_clean()).count();
        assert!(clean > 0 && clean < 200, "probabilities should mix");
    }

    #[test]
    fn different_seed_different_schedule() {
        let p1 = FaultPlan::new(1).with_drop(0.5);
        let p2 = FaultPlan::new(2).with_drop(0.5);
        let a: Vec<Decision> = (0..100).map(|i| p1.decide(i, "p:80", 0)).collect();
        let b: Vec<Decision> = (0..100).map(|i| p2.decide(i, "p:80", 0)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn blackout_window_refuses_matching_peer_only() {
        let plan = FaultPlan::new(0).with_blackout("dead:80", 100, 200);
        assert!(!plan.decide(0, "dead:80", 99).refuse);
        assert!(plan.decide(1, "dead:80", 100).refuse);
        assert!(plan.decide(2, "dead:80", 199).refuse);
        assert!(!plan.decide(3, "dead:80", 200).refuse);
        assert!(!plan.decide(4, "alive:80", 150).refuse);
        let wildcard = FaultPlan::new(0).with_blackout("*", 0, 50);
        assert!(wildcard.decide(0, "anyone:80", 10).refuse);
    }

    #[test]
    fn fail_first_faults_exactly_n_attempts_per_key() {
        let inj = FaultInjector::new(FaultPlan::new(9).with_fail_first(2, FirstFaultKind::Drop));
        assert!(inj.outbound("h:80", "/a").drop_mid_response);
        assert!(inj.outbound("h:80", "/a").drop_mid_response);
        assert!(inj.outbound("h:80", "/a").is_clean());
        // Distinct key gets its own budget.
        assert!(inj.outbound("h:80", "/b").drop_mid_response);
        let snap = inj.snapshot();
        assert_eq!(snap.drops, 3);
        assert_eq!(snap.decisions, 4);
    }

    #[test]
    fn blackout_now_and_heal_toggle_refusal() {
        let inj = FaultInjector::new(FaultPlan::new(0));
        assert!(inj.outbound("p:80", "/x").is_clean());
        inj.blackout_now("p:80", Duration::from_secs(3600));
        assert!(inj.outbound("p:80", "/x").refuse);
        assert!(inj.outbound("q:80", "/x").is_clean());
        inj.heal("p:80");
        assert!(inj.outbound("p:80", "/x").is_clean());
    }

    #[test]
    fn heal_overrides_scheduled_blackout() {
        let inj = FaultInjector::new(FaultPlan::new(0).with_blackout("p:80", 0, u64::MAX));
        assert!(inj.outbound("p:80", "/x").refuse);
        inj.heal("p:80");
        assert!(inj.outbound("p:80", "/x").is_clean());
    }

    #[test]
    fn outbound_respects_dynamic_wildcard_blackout() {
        let inj = FaultInjector::new(FaultPlan::new(0));
        assert!(inj.outbound("p:80", "/x").is_clean());
        inj.blackout_now("*", Duration::from_secs(3600));
        assert!(inj.outbound("p:80", "/x").refuse);
        inj.heal("*");
        assert!(inj.outbound("p:80", "/x").is_clean());
    }
}
