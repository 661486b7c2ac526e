//! Bounded retry with exponential backoff and deterministic jitter.
//!
//! Both the streaming client and the relay upstream fetch recover from
//! lost requests the same way: wait out a request timeout, then re-issue
//! with exponentially growing, jittered spacing, giving up after a bounded
//! number of attempts. The jitter is *derived*, not drawn — a splitmix64
//! hash of a per-session salt and the attempt number — so recovery
//! schedules are a pure function of the simulation seed and every chaos
//! drill replays byte for byte.

use lod_obs::splitmix64;
use serde::{Deserialize, Serialize};

/// When and how often to retry an unanswered request.
///
/// All times are in simulation ticks (100 ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Silence tolerated before a request is presumed lost.
    pub request_timeout: u64,
    /// Backoff before the first retry; doubles every attempt.
    pub base_backoff: u64,
    /// Backoff ceiling.
    pub max_backoff: u64,
    /// Retries before the session is abandoned.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// A client-grade policy: 1 s timeout, 250 ms → 2 s backoff, 10
    /// retries. Tuned so a couple of seconds of access-link outage is
    /// survivable well inside a lecture's preroll.
    pub fn client() -> Self {
        Self {
            request_timeout: 10_000_000,
            base_backoff: 2_500_000,
            max_backoff: 20_000_000,
            max_retries: 10,
        }
    }

    /// A relay-upstream policy: 2 s timeout (the pre-resilience fetch
    /// re-issue interval), 1 s → 8 s backoff, 8 retries.
    pub fn relay_upstream() -> Self {
        Self {
            request_timeout: 20_000_000,
            base_backoff: 10_000_000,
            max_backoff: 80_000_000,
            max_retries: 8,
        }
    }

    /// Exponential backoff for retry number `attempt` (1-based), without
    /// jitter: `base · 2^(attempt−1)`, capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        self.base_backoff
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff)
    }

    /// Ticks to wait after detecting silence before retry `attempt`
    /// (1-based) fires: backoff plus up to 25 % deterministic jitter
    /// derived from `salt` (e.g. a node id mixed with the run seed).
    pub fn retry_delay(&self, attempt: u32, salt: u64) -> u64 {
        let backoff = self.backoff(attempt);
        let jitter_span = backoff / 4 + 1;
        let jitter = splitmix64(salt ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        backoff + jitter % jitter_span
    }

    /// Whether retry number `attempt` (1-based) is still allowed.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt <= self.max_retries
    }
}

/// When a [`CircuitBreaker`] trips and how long it stays open.
///
/// All times are in simulation ticks (100 ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BreakerPolicy {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Ticks the breaker stays open before letting one probe through.
    pub open_ticks: u64,
}

impl BreakerPolicy {
    /// The relay-upstream preset: trip after 4 consecutive fetch
    /// failures, hold off for 5 s, then probe. The threshold sits above
    /// what a transient uplink flap accrues under
    /// [`RetryPolicy::relay_upstream`], so only a dead or saturated
    /// origin trips it.
    pub fn upstream() -> Self {
        Self {
            failure_threshold: 4,
            open_ticks: 50_000_000,
        }
    }
}

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; failures are being counted.
    Closed,
    /// Requests are refused until the deadline passes.
    Open {
        /// Tick at which the next probe may go out.
        until: u64,
    },
    /// One probe is in flight; its outcome decides open vs. closed.
    HalfOpen,
}

/// A closed/open/half-open circuit breaker wrapped around a retried
/// request path.
///
/// Retries recover from *lost* requests; a breaker recognises a *dead*
/// upstream. After `failure_threshold` consecutive failures the breaker
/// opens and [`CircuitBreaker::allows`] refuses every request for
/// `open_ticks` — the caller serves from whatever it has cached
/// (stale-while-unavailable) instead of burning retry budget against a
/// black hole. The first request after the deadline is the half-open
/// probe: success closes the breaker, failure re-opens it for another
/// full window. Purely time-driven, so seeded runs replay byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: BreakerState,
    failures: u32,
}

impl CircuitBreaker {
    /// A closed breaker governed by `policy`.
    pub fn new(policy: BreakerPolicy) -> Self {
        assert!(
            policy.failure_threshold > 0,
            "breaker failure_threshold must be positive"
        );
        assert!(policy.open_ticks > 0, "breaker open_ticks must be positive");
        Self {
            policy,
            state: BreakerState::Closed,
            failures: 0,
        }
    }

    /// Whether a request may go out at `now`. An open breaker whose
    /// window has elapsed transitions to half-open and admits exactly one
    /// probe; further calls are refused until the probe resolves.
    pub fn allows(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open { .. } | BreakerState::HalfOpen => false,
        }
    }

    /// Record a failed (or timed-out) request. Returns `true` when this
    /// failure tripped the breaker open (closed → open or a failed
    /// half-open probe re-opening).
    pub fn record_failure(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open {
                    until: now + self.policy.open_ticks,
                };
                true
            }
            BreakerState::Closed => {
                self.failures += 1;
                if self.failures >= self.policy.failure_threshold {
                    self.state = BreakerState::Open {
                        until: now + self.policy.open_ticks,
                    };
                    true
                } else {
                    false
                }
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// Record a successful response: the upstream is alive, close the
    /// breaker and forget accumulated failures.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.failures = 0;
    }

    /// Current state (for metrics and tests).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether requests are currently being refused.
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }

    /// Forces the breaker to the brink of a half-open probe at `now`:
    /// the very next [`CircuitBreaker::allows`] admits exactly one
    /// request. Used on origin failover — whatever the breaker concluded
    /// about the *dead* origin says nothing about the freshly promoted
    /// standby, so the uplink re-opens with a clean probe instead of
    /// either waiting out a stale window or trusting blindly.
    pub fn force_probe(&mut self, now: u64) {
        self.state = BreakerState::Open { until: now };
        self.failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy {
            request_timeout: 100,
            base_backoff: 10,
            max_backoff: 45,
            max_retries: 5,
        };
        assert_eq!(p.backoff(1), 10);
        assert_eq!(p.backoff(2), 20);
        assert_eq!(p.backoff(3), 40);
        assert_eq!(p.backoff(4), 45, "capped");
        assert_eq!(p.backoff(64), 45, "huge attempts do not overflow");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::client();
        for attempt in 1..=10 {
            let d1 = p.retry_delay(attempt, 42);
            let d2 = p.retry_delay(attempt, 42);
            assert_eq!(d1, d2, "same salt, same delay");
            let base = p.backoff(attempt);
            assert!(d1 >= base && d1 <= base + base / 4 + 1);
        }
        // Different salts decorrelate (at least one attempt differs).
        assert!((1..=10).any(|a| p.retry_delay(a, 1) != p.retry_delay(a, 2)));
    }

    #[test]
    fn allows_is_inclusive_of_max() {
        let p = RetryPolicy {
            max_retries: 3,
            ..RetryPolicy::client()
        };
        assert!(p.allows(1) && p.allows(3));
        assert!(!p.allows(4));
    }

    #[test]
    fn breaker_opens_after_threshold_and_refuses() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 3,
            open_ticks: 100,
        });
        assert!(b.allows(0));
        assert!(!b.record_failure(10));
        assert!(!b.record_failure(20));
        assert!(b.record_failure(30), "third failure trips the breaker");
        assert!(b.is_open());
        assert!(!b.allows(40), "open breaker refuses");
        assert!(!b.allows(129), "still inside the window");
    }

    #[test]
    fn half_open_probe_success_closes() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            open_ticks: 100,
        });
        assert!(b.record_failure(0));
        assert!(b.allows(100), "deadline passed: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allows(101), "only one probe while half-open");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allows(102));
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            open_ticks: 100,
        });
        b.record_failure(0);
        assert!(b.allows(100));
        assert!(b.record_failure(150), "failed probe re-opens");
        assert_eq!(b.state(), BreakerState::Open { until: 250 });
        assert!(!b.allows(200));
        assert!(b.allows(250), "next window, next probe");
    }

    #[test]
    fn success_resets_the_failure_count() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 2,
            open_ticks: 100,
        });
        b.record_failure(0);
        b.record_success();
        assert!(!b.record_failure(10), "count restarted after success");
        assert!(!b.is_open());
    }

    #[test]
    fn force_probe_admits_exactly_one_immediately() {
        let mut b = CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 1,
            open_ticks: 1_000_000,
        });
        // Tripped against the old origin, deep inside its open window.
        assert!(b.record_failure(0));
        assert!(!b.allows(10));
        // Failover: the next request probes the promoted standby at once.
        b.force_probe(10);
        assert!(b.allows(10), "probe admitted immediately");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allows(11), "one probe at a time");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    #[should_panic(expected = "failure_threshold must be positive")]
    fn breaker_rejects_zero_threshold() {
        CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 0,
            open_ticks: 100,
        });
    }
}
