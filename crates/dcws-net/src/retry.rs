//! Retry policy for inter-server I/O: per-attempt timeout, capped
//! exponential backoff with seeded jitter, and an overall deadline.
//!
//! The policy is deliberately *pure*: [`RetryPolicy::backoff`] and
//! [`RetryPolicy::schedule`] compute the exact sleep sequence from the
//! policy fields and a salt, so the proptests can pin the invariants
//! (attempt count ≤ cap, total sleep ≤ deadline, every pause ≤ the
//! backoff cap) without touching a socket, and a chaos run's timing is
//! reproducible from its seeds. The transport ([`crate::Transport`])
//! executes the same schedule with real sleeps — always *outside* the
//! engine lock (see `docs/PERFORMANCE.md`).

use crate::faults::mix;
use std::time::Duration;

/// How inter-server calls are retried. All fields public: tests and
/// deployments compose their own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum connection/request attempts (≥ 1).
    pub max_attempts: u32,
    /// Connect + read timeout for each individual attempt.
    pub attempt_timeout: Duration,
    /// Backoff before the second attempt; doubles per retry.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff pause.
    pub backoff_cap: Duration,
    /// Overall budget: no backoff pause may start (or push the total
    /// sleep) past this, whatever `max_attempts` says.
    pub deadline: Duration,
    /// Seed for backoff jitter; combined with a per-call salt so
    /// concurrent retries to one peer do not stampede in lockstep.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// Default policy for pulls and validations: 3 attempts,
    /// 5 s per attempt, 50 ms base backoff capped at 2 s, 12 s total.
    pub fn default_inter_server() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            attempt_timeout: Duration::from_secs(5),
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            deadline: Duration::from_secs(12),
            jitter_seed: 0x5eed,
        }
    }

    /// A single attempt with `timeout`, no retries — the pinger's
    /// policy, so a dead peer fails fast and feeds the §4.5 failure
    /// counter instead of being masked by retries.
    pub fn single(timeout: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            attempt_timeout: timeout,
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            deadline: timeout,
            jitter_seed: 0,
        }
    }

    /// The pause before attempt number `attempt` (0-based; attempt 0
    /// has no pause): `base * 2^(attempt-1)` capped at `backoff_cap`,
    /// jittered into the upper half `[exp/2, exp]` of that value.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let base_us = self.backoff_base.as_micros() as u64;
        let cap_us = self.backoff_cap.as_micros() as u64;
        let exp_us = base_us
            .checked_shl(attempt - 1)
            .unwrap_or(u64::MAX)
            .min(cap_us);
        if exp_us == 0 {
            return Duration::ZERO;
        }
        let half = exp_us / 2;
        let jitter = mix(self.jitter_seed ^ salt, u64::from(attempt)) % (exp_us - half + 1);
        Duration::from_micros(half + jitter)
    }

    /// The full sleep sequence a call with this policy and `salt` may
    /// perform: one entry per retry (so `max_attempts - 1` at most),
    /// truncated where the cumulative sleep would cross the deadline.
    pub fn schedule(&self, salt: u64) -> Vec<Duration> {
        let mut out = Vec::new();
        let mut total = Duration::ZERO;
        for attempt in 1..self.max_attempts {
            let pause = self.backoff(attempt, salt);
            if total + pause > self.deadline {
                break;
            }
            total += pause;
            out.push(pause);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            attempt_timeout: Duration::from_secs(1),
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_millis(400),
            deadline: Duration::from_secs(60),
            jitter_seed: 7,
        };
        for attempt in 1..10 {
            let exp = Duration::from_millis((100u64 << (attempt - 1)).min(400));
            let b = p.backoff(attempt, 0);
            assert!(b <= exp, "attempt {attempt}: {b:?} > {exp:?}");
            assert!(b >= exp / 2, "attempt {attempt}: {b:?} < {:?}", exp / 2);
        }
        assert_eq!(p.backoff(0, 0), Duration::ZERO);
    }

    #[test]
    fn schedule_respects_deadline_and_attempts() {
        let p = RetryPolicy {
            max_attempts: 50,
            attempt_timeout: Duration::from_millis(10),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(10),
            deadline: Duration::from_millis(35),
            jitter_seed: 1,
        };
        let sched = p.schedule(99);
        assert!(sched.len() <= 49);
        let total: Duration = sched.iter().sum();
        assert!(total <= p.deadline);
        // 10ms pauses (jitter in [5,10]) against a 35ms budget: some
        // retries happen, not all 49.
        assert!(!sched.is_empty() && sched.len() < 49);
    }

    #[test]
    fn schedule_is_deterministic_per_salt() {
        let p = RetryPolicy::default_inter_server();
        assert_eq!(p.schedule(5), p.schedule(5));
        assert_ne!(p.schedule(5), p.schedule(6));
    }

    #[test]
    fn single_never_retries() {
        let p = RetryPolicy::single(Duration::from_secs(2));
        assert_eq!(p.max_attempts, 1);
        assert!(p.schedule(0).is_empty());
    }
}
