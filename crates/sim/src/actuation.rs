//! Fault-tolerant actuation of VM control operations.
//!
//! The controller does not *apply* placements — it issues boot, suspend,
//! resume, and migrate operations to a virtualization layer that can be
//! slow, fail outright, or time out (§3.1's sensing loop exists because
//! actual state drifts from desired state). This module models that
//! layer: each [`PlacementAction`](dynaplace_model::delta::PlacementAction)
//! becomes an operation with a latency draw, a deterministic
//! per-(app, node, attempt) failure probability, and an optional timeout.
//! Failed and timed-out operations leave the actual placement unchanged
//! while the controller's desired placement says otherwise; the engine's
//! reconciliation loop retries with capped exponential backoff and
//! quarantines repeatedly failing (app, node) pairs so the next
//! optimization routes around them.
//!
//! Everything here is a pure function of the configuration seed and the
//! (app, node, attempt) triple — two runs of the same scenario are
//! bit-identical, and with the default configuration (zero failure rate,
//! zero jitter, no timeout) every operation succeeds with exactly the
//! [`VmCostModel`] latency, so the machinery is exactly-off by default.

use std::collections::BTreeMap;

use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::units::{Memory, SimDuration, SimTime};

use crate::costs::{VmCostModel, VmOperation};

/// Configuration of the fallible actuation layer.
///
/// The defaults model a perfect virtualization layer: no failures, no
/// latency jitter, no timeout — byte-identical behavior to a simulator
/// without an actuation layer at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuationConfig {
    /// Probability that an issued operation fails, drawn deterministically
    /// per (app, node, attempt). `0.0` disables failures. Values must be
    /// `< 1.0` or retries never converge.
    pub failure_rate: f64,
    /// Relative latency inflation: each operation's latency is the cost
    /// model's value times a deterministic factor in
    /// `[1, 1 + latency_jitter]`. `0.0` disables jitter.
    pub latency_jitter: f64,
    /// Operations whose (jittered) latency exceeds this are reported as
    /// timed out: the placement change does not happen and the operation
    /// is retried like a failure.
    pub timeout: Option<SimDuration>,
    /// Operations issued at or after this instant never fail or time out
    /// — the "failures stop" switch that makes convergence provable in
    /// tests and scripted scenarios.
    pub fail_until: Option<SimTime>,
    /// Seed for the deterministic failure/jitter draws.
    pub seed: u64,
    /// First retry delay after a failed operation (beyond its latency).
    pub base_backoff: SimDuration,
    /// Multiplier applied to the backoff per consecutive failure.
    pub backoff_factor: f64,
    /// Upper bound on the per-retry backoff delay.
    pub max_backoff: SimDuration,
    /// Consecutive failures of one (app, node) pair before it is
    /// quarantined. `0` disables quarantining.
    pub quarantine_after: u32,
    /// How long a quarantined pair is barred from placement.
    pub quarantine: SimDuration,
    /// Consecutive control cycles with unreconciled actions before the
    /// controller falls back to a non-disruptive `fill_only` pass for one
    /// cycle. `0` disables the fallback.
    pub fallback_after: u32,
}

impl Default for ActuationConfig {
    fn default() -> Self {
        Self {
            failure_rate: 0.0,
            latency_jitter: 0.0,
            timeout: None,
            fail_until: None,
            seed: 0,
            base_backoff: SimDuration::from_secs(5.0),
            backoff_factor: 2.0,
            max_backoff: SimDuration::from_secs(300.0),
            quarantine_after: 3,
            quarantine: SimDuration::from_secs(900.0),
            fallback_after: 2,
        }
    }
}

/// How one issued operation resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpOutcome {
    /// The operation completed after the given latency; the placement
    /// change took effect (progress frozen for the duration).
    Applied(SimDuration),
    /// The operation failed after the given latency; the actual placement
    /// is unchanged.
    Failed(SimDuration),
    /// The operation exceeded the timeout and was abandoned at the
    /// timeout instant; the actual placement is unchanged.
    TimedOut(SimDuration),
}

impl OpOutcome {
    /// Whether the placement change took effect.
    pub fn applied(&self) -> bool {
        matches!(self, OpOutcome::Applied(_))
    }

    /// Stable lowercase name, used by the decision trace.
    pub fn name(&self) -> &'static str {
        match self {
            OpOutcome::Applied(_) => "applied",
            OpOutcome::Failed(_) => "failed",
            OpOutcome::TimedOut(_) => "timed_out",
        }
    }

    /// Wall-clock time the operation occupied the instance.
    pub fn latency(&self) -> SimDuration {
        match *self {
            OpOutcome::Applied(l) | OpOutcome::Failed(l) | OpOutcome::TimedOut(l) => l,
        }
    }
}

/// Identity of one operation attempt: the key of every deterministic
/// failure and jitter draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpAttempt {
    /// Application being moved.
    pub app: AppId,
    /// Node the operation touches (the target node for migrations).
    pub node: NodeId,
    /// 1-based consecutive attempt number for this (app, node) pair.
    pub attempt: u32,
}

impl ActuationConfig {
    /// Whether any operation issued at `now` can fail or time out.
    pub fn failures_active(&self, now: SimTime) -> bool {
        (self.failure_rate > 0.0 || self.timeout.is_some())
            && self.fail_until.map_or(true, |until| now < until)
    }

    /// Resolves one issued operation: latency draw, timeout check,
    /// failure draw — a pure function of `(seed, app, node, attempt, op)`.
    pub fn resolve(
        &self,
        costs: &VmCostModel,
        op: VmOperation,
        footprint: Memory,
        at: OpAttempt,
        now: SimTime,
    ) -> OpOutcome {
        let OpAttempt { app, node, attempt } = at;
        let base = costs.latency(op, footprint);
        let latency = if self.latency_jitter > 0.0 {
            let u = unit(mix(
                self.seed,
                &[1, key(app, node), u64::from(attempt), tag(op)],
            ));
            base * (1.0 + self.latency_jitter * u)
        } else {
            base
        };
        if !self.failures_active(now) {
            return OpOutcome::Applied(latency);
        }
        if let Some(timeout) = self.timeout {
            if latency > timeout {
                return OpOutcome::TimedOut(timeout);
            }
        }
        if self.failure_rate > 0.0 {
            let u = unit(mix(
                self.seed,
                &[2, key(app, node), u64::from(attempt), tag(op)],
            ));
            if u < self.failure_rate {
                return OpOutcome::Failed(latency);
            }
        }
        OpOutcome::Applied(latency)
    }

    /// Retry delay after the `attempt`-th consecutive failure (1-based):
    /// capped exponential backoff.
    pub fn backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(63);
        let secs = self.base_backoff.as_secs() * self.backoff_factor.powi(exp as i32);
        SimDuration::from_secs(secs.min(self.max_backoff.as_secs()))
    }
}

/// What [`ActuationState::record_failure`] decided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureDisposition {
    /// When the pair may be retried (failure detection + backoff, and the
    /// quarantine expiry when one was imposed).
    pub retry_at: SimTime,
    /// Whether this failure pushed the pair into (a fresh) quarantine.
    pub quarantined: bool,
}

/// Per-(app, node) bookkeeping of the reconciliation loop: consecutive
/// failure counts, backoff gates, and quarantine expiries. All maps are
/// ordered, so iteration (and therefore the whole engine) stays
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct ActuationState {
    attempts: BTreeMap<(AppId, NodeId), u32>,
    retry_at: BTreeMap<(AppId, NodeId), SimTime>,
    quarantined_until: BTreeMap<(AppId, NodeId), SimTime>,
}

impl ActuationState {
    /// Creates an empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether operations on `(app, node)` are currently gated (backoff
    /// in progress or quarantine active).
    pub fn is_blocked(&self, app: AppId, node: NodeId, now: SimTime) -> bool {
        let k = (app, node);
        self.retry_at.get(&k).is_some_and(|&t| now < t)
            || self.quarantined_until.get(&k).is_some_and(|&t| now < t)
    }

    /// The attempt number the next operation on `(app, node)` gets
    /// (1-based; resets on success).
    pub fn next_attempt(&self, app: AppId, node: NodeId) -> u32 {
        self.attempts.get(&(app, node)).copied().unwrap_or(0) + 1
    }

    /// Records a successful operation: the pair's failure episode ends.
    pub fn record_success(&mut self, app: AppId, node: NodeId) {
        let k = (app, node);
        self.attempts.remove(&k);
        self.retry_at.remove(&k);
        self.quarantined_until.remove(&k);
    }

    /// Records a failed (or timed-out) operation that was *detected* at
    /// `detected` (issue time + latency): advances the consecutive
    /// failure count, arms the backoff gate, and quarantines the pair
    /// when the count reaches a multiple of `config.quarantine_after`.
    pub fn record_failure(
        &mut self,
        config: &ActuationConfig,
        app: AppId,
        node: NodeId,
        detected: SimTime,
    ) -> FailureDisposition {
        let k = (app, node);
        let attempts = self.attempts.entry(k).or_insert(0);
        *attempts += 1;
        let mut retry_at = detected + config.backoff(*attempts);
        let quarantined = config.quarantine_after > 0 && *attempts % config.quarantine_after == 0;
        if quarantined {
            let until = detected + config.quarantine;
            self.quarantined_until.insert(k, until);
            retry_at = retry_at.max(until);
        }
        self.retry_at.insert(k, retry_at);
        FailureDisposition {
            retry_at,
            quarantined,
        }
    }

    /// The (app, node) pairs under active quarantine at `now`, in
    /// deterministic order — fed into
    /// [`PlacementProblem::forbidden`](dynaplace_apc::problem::PlacementProblem)
    /// so the optimizer routes around them.
    pub fn quarantined_pairs(&self, now: SimTime) -> Vec<(AppId, NodeId)> {
        self.quarantined_until
            .iter()
            .filter(|&(_, &until)| now < until)
            .map(|(&k, _)| k)
            .collect()
    }

    /// Drops bookkeeping for an application that left the system.
    pub fn forget_app(&mut self, app: AppId) {
        self.attempts.retain(|&(a, _), _| a != app);
        self.retry_at.retain(|&(a, _), _| a != app);
        self.quarantined_until.retain(|&(a, _), _| a != app);
    }
}

/// splitmix64 finalizer — the standard 64-bit avalanche mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

/// Uniform draw in `[0, 1)` from a mixed hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn key(app: AppId, node: NodeId) -> u64 {
    ((app.index() as u64) << 32) | node.index() as u64
}

fn tag(op: VmOperation) -> u64 {
    match op {
        VmOperation::Boot => 1,
        VmOperation::Suspend => 2,
        VmOperation::Resume => 3,
        VmOperation::Migrate => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(i: u32) -> AppId {
        AppId::new(i)
    }
    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn default_config_never_fails_and_charges_exact_latency() {
        let config = ActuationConfig::default();
        let costs = VmCostModel::default();
        let footprint = Memory::from_mb(1_000.0);
        for op in [
            VmOperation::Boot,
            VmOperation::Suspend,
            VmOperation::Resume,
            VmOperation::Migrate,
        ] {
            for attempt in 1..5 {
                let outcome = config.resolve(
                    &costs,
                    op,
                    footprint,
                    OpAttempt {
                        app: app(3),
                        node: node(1),
                        attempt,
                    },
                    SimTime::ZERO,
                );
                assert_eq!(outcome, OpOutcome::Applied(costs.latency(op, footprint)));
            }
        }
    }

    #[test]
    fn draws_are_pure_functions_of_the_triple() {
        let config = ActuationConfig {
            failure_rate: 0.5,
            latency_jitter: 0.3,
            seed: 42,
            ..Default::default()
        };
        let costs = VmCostModel::default();
        let fp = Memory::from_mb(800.0);
        for attempt in 1..20 {
            let a = config.resolve(
                &costs,
                VmOperation::Resume,
                fp,
                OpAttempt {
                    app: app(1),
                    node: node(2),
                    attempt,
                },
                SimTime::ZERO,
            );
            let b = config.resolve(
                &costs,
                VmOperation::Resume,
                fp,
                OpAttempt {
                    app: app(1),
                    node: node(2),
                    attempt,
                },
                SimTime::ZERO,
            );
            assert_eq!(a, b, "attempt {attempt} must be deterministic");
        }
    }

    #[test]
    fn failure_rate_roughly_matches_draws() {
        let config = ActuationConfig {
            failure_rate: 0.3,
            seed: 7,
            ..Default::default()
        };
        let costs = VmCostModel::free();
        let failures = (0..1_000)
            .filter(|&i| {
                !config
                    .resolve(
                        &costs,
                        VmOperation::Boot,
                        Memory::ZERO,
                        OpAttempt {
                            app: app(i),
                            node: node(0),
                            attempt: 1,
                        },
                        SimTime::ZERO,
                    )
                    .applied()
            })
            .count();
        assert!(
            (200..400).contains(&failures),
            "≈30% of 1000 draws should fail, got {failures}"
        );
    }

    #[test]
    fn fail_until_stops_failures() {
        let config = ActuationConfig {
            failure_rate: 1.0 - 1e-12,
            fail_until: Some(SimTime::from_secs(100.0)),
            ..Default::default()
        };
        let costs = VmCostModel::free();
        let before = config.resolve(
            &costs,
            VmOperation::Boot,
            Memory::ZERO,
            OpAttempt {
                app: app(0),
                node: node(0),
                attempt: 1,
            },
            SimTime::from_secs(50.0),
        );
        let after = config.resolve(
            &costs,
            VmOperation::Boot,
            Memory::ZERO,
            OpAttempt {
                app: app(0),
                node: node(0),
                attempt: 1,
            },
            SimTime::from_secs(100.0),
        );
        assert!(!before.applied());
        assert!(after.applied());
    }

    #[test]
    fn timeout_reports_timed_out_at_the_timeout_instant() {
        let config = ActuationConfig {
            timeout: Some(SimDuration::from_secs(10.0)),
            ..Default::default()
        };
        let costs = VmCostModel::default();
        // A 1000 MB suspend takes 35.3 s > 10 s timeout.
        let outcome = config.resolve(
            &costs,
            VmOperation::Suspend,
            Memory::from_mb(1_000.0),
            OpAttempt {
                app: app(0),
                node: node(0),
                attempt: 1,
            },
            SimTime::ZERO,
        );
        assert_eq!(outcome, OpOutcome::TimedOut(SimDuration::from_secs(10.0)));
        // A boot (3.6 s) fits within the timeout.
        let ok = config.resolve(
            &costs,
            VmOperation::Boot,
            Memory::from_mb(1_000.0),
            OpAttempt {
                app: app(0),
                node: node(0),
                attempt: 1,
            },
            SimTime::ZERO,
        );
        assert!(ok.applied());
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let config = ActuationConfig {
            base_backoff: SimDuration::from_secs(5.0),
            backoff_factor: 2.0,
            max_backoff: SimDuration::from_secs(30.0),
            ..Default::default()
        };
        assert_eq!(config.backoff(1), SimDuration::from_secs(5.0));
        assert_eq!(config.backoff(2), SimDuration::from_secs(10.0));
        assert_eq!(config.backoff(3), SimDuration::from_secs(20.0));
        assert_eq!(config.backoff(4), SimDuration::from_secs(30.0));
        assert_eq!(config.backoff(40), SimDuration::from_secs(30.0));
    }

    #[test]
    fn quarantine_after_consecutive_failures_and_reset_on_success() {
        let config = ActuationConfig {
            quarantine_after: 3,
            quarantine: SimDuration::from_secs(100.0),
            ..Default::default()
        };
        let mut state = ActuationState::new();
        let t = SimTime::from_secs(10.0);
        let d1 = state.record_failure(&config, app(0), node(0), t);
        let d2 = state.record_failure(&config, app(0), node(0), t);
        assert!(!d1.quarantined && !d2.quarantined);
        let d3 = state.record_failure(&config, app(0), node(0), t);
        assert!(d3.quarantined);
        assert_eq!(d3.retry_at, t + config.quarantine);
        assert_eq!(state.quarantined_pairs(t), vec![(app(0), node(0))]);
        // Quarantine expires by time…
        assert!(state.quarantined_pairs(t + config.quarantine).is_empty());
        // …and success clears the whole episode.
        state.record_success(app(0), node(0));
        assert_eq!(state.next_attempt(app(0), node(0)), 1);
        assert!(!state.is_blocked(app(0), node(0), t));
    }

    #[test]
    fn blocked_while_backoff_pending() {
        let config = ActuationConfig::default();
        let mut state = ActuationState::new();
        let t = SimTime::from_secs(0.0);
        let d = state.record_failure(&config, app(1), node(2), t);
        assert!(state.is_blocked(app(1), node(2), t));
        assert!(!state.is_blocked(app(1), node(2), d.retry_at));
        assert!(!state.is_blocked(app(2), node(2), t), "other pairs free");
    }
}
