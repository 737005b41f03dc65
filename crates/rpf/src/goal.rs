//! SLA goals and the linear RPFs the paper derives from them.
//!
//! - Transactional applications carry a response-time goal τ and
//!   `u(t) = (τ − t)/τ` (eq. 1).
//! - Batch jobs carry a completion-time goal τ and desired start time
//!   τ_start, with `u(t_c) = (τ − t_c)/(τ − τ_start)` (eq. 2).

use dynaplace_model::units::{SimDuration, SimTime};

use crate::value::Rp;

/// Completion-time goal of a batch job (eq. 2).
///
/// ```
/// use dynaplace_model::units::{SimDuration, SimTime};
/// use dynaplace_rpf::goal::CompletionGoal;
/// use dynaplace_rpf::value::Rp;
///
/// // Submitted at t=1 s, goal t=17 s (relative goal 16 s).
/// let goal = CompletionGoal::new(SimTime::from_secs(1.0), SimTime::from_secs(17.0));
/// // Completing at t=6 s achieves (17-6)/16 = 0.6875.
/// assert!(goal
///     .performance_at(SimTime::from_secs(6.0))
///     .approx_eq(Rp::new(0.6875), 1e-9));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletionGoal {
    desired_start: SimTime,
    deadline: SimTime,
}

impl CompletionGoal {
    /// Creates a completion goal with desired start `τ_start` and
    /// completion deadline `τ`.
    ///
    /// # Panics
    ///
    /// Panics if the deadline is not strictly after the desired start.
    pub fn new(desired_start: SimTime, deadline: SimTime) -> Self {
        assert!(
            deadline > desired_start,
            "completion deadline must be after the desired start"
        );
        Self {
            desired_start,
            deadline,
        }
    }

    /// Builds a goal from a desired start and the paper's *relative goal
    /// factor*: `relative goal = factor × best execution time`, so the
    /// deadline is `τ_start + factor × t_best`.
    ///
    /// # Panics
    ///
    /// Panics if `factor × best_execution` is not strictly positive.
    pub fn from_goal_factor(
        desired_start: SimTime,
        best_execution: SimDuration,
        factor: f64,
    ) -> Self {
        let relative = SimDuration::from_secs(best_execution.as_secs() * factor);
        assert!(relative.is_positive(), "relative goal must be positive");
        Self::new(desired_start, desired_start + relative)
    }

    /// The desired start time `τ_start`.
    #[inline]
    pub fn desired_start(&self) -> SimTime {
        self.desired_start
    }

    /// The completion deadline `τ`.
    #[inline]
    pub fn deadline(&self) -> SimTime {
        self.deadline
    }

    /// The relative goal `τ − τ_start`.
    #[inline]
    pub fn relative_goal(&self) -> SimDuration {
        self.deadline - self.desired_start
    }

    /// Relative performance of completing at `completion` (eq. 2).
    ///
    /// Healthy values (raw `u ≥ RP_FLOOR`) are returned exactly as the
    /// historical clamped arithmetic produced them; raw values below the
    /// floor are squash-compressed into the sub-floor band so hopeless
    /// completions stay strictly ordered by lateness (DESIGN.md §6).
    pub fn performance_at(&self, completion: SimTime) -> Rp {
        let num = (self.deadline - completion).as_secs();
        let raw = num / self.relative_goal().as_secs();
        if raw >= crate::value::RP_FLOOR {
            Rp::new(raw)
        } else {
            Rp::banded_from_lateness(crate::value::RP_FLOOR - raw)
        }
    }

    /// Inverse of eq. 2: the completion time that yields relative
    /// performance `u`, `t(u) = τ − u·(τ − τ_start)` (the paper's `t_m(u)`
    /// in §4.2). Sub-floor band values decompress to their raw lateness
    /// first, so this inverts [`CompletionGoal::performance_at`] across
    /// the whole range (`Rp::MIN` maps to an infinitely late completion).
    pub fn completion_for(&self, u: Rp) -> SimTime {
        self.deadline - SimDuration::from_secs(u.effective() * self.relative_goal().as_secs())
    }

    /// Signed distance to the deadline for a completion time: positive
    /// when early, negative when late (the y axis of the paper's Fig. 5).
    pub fn distance_to_deadline(&self, completion: SimTime) -> SimDuration {
        self.deadline - completion
    }
}

/// Response-time goal of a transactional application (eq. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResponseTimeGoal {
    goal: SimDuration,
}

impl ResponseTimeGoal {
    /// Creates a response-time goal of `goal` (the paper's τ).
    ///
    /// # Panics
    ///
    /// Panics if the goal is not strictly positive.
    pub fn new(goal: SimDuration) -> Self {
        assert!(goal.is_positive(), "response time goal must be positive");
        Self { goal }
    }

    /// The goal τ.
    #[inline]
    pub fn goal(&self) -> SimDuration {
        self.goal
    }

    /// Relative performance of an observed response time (eq. 1):
    /// `u = (τ − t)/τ`, clamped at the healthy floor.
    ///
    /// Transactional scoring deliberately does not use the sub-floor
    /// band: requests are memoryless (there is no lateness to drain), and
    /// deep overload must score exactly [`Rp::FLOOR`] so it stays
    /// consistent with the router's no-capacity outcome.
    pub fn performance_at(&self, response_time: SimDuration) -> Rp {
        let raw = (self.goal - response_time).as_secs() / self.goal.as_secs();
        Rp::new(raw.max(crate::value::RP_FLOOR))
    }

    /// Inverse of eq. 1: the response time that yields `u`,
    /// `t(u) = τ·(1 − u)`.
    pub fn response_for(&self, u: Rp) -> SimDuration {
        SimDuration::from_secs(self.goal.as_secs() * (1.0 - u.value()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }
    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn completion_goal_round_trip() {
        let g = CompletionGoal::new(t(0.0), t(20.0));
        assert_eq!(g.relative_goal(), d(20.0));
        // Completing at t=4 (J1 alone at full speed in §4.3): u = 0.8.
        assert!(g.performance_at(t(4.0)).approx_eq(Rp::new(0.8), 1e-12));
        assert_eq!(g.completion_for(Rp::new(0.8)), t(4.0));
        // Exactly on goal.
        assert_eq!(g.performance_at(t(20.0)), Rp::GOAL);
        // Late by 20% of the relative goal.
        assert!(g.performance_at(t(24.0)).approx_eq(Rp::new(-0.2), 1e-12));
    }

    #[test]
    fn goal_factor_matches_experiment_one() {
        // 17,600 s at max speed, factor 2.7 → relative goal 47,520 s.
        let g = CompletionGoal::from_goal_factor(t(100.0), d(17_600.0), 2.7);
        assert!((g.relative_goal().as_secs() - 47_520.0).abs() < 1e-9);
        // Max achievable RP when started immediately ≈ 0.63 (paper §5.1).
        let u = g.performance_at(t(100.0 + 17_600.0));
        assert!((u.value() - 0.6296).abs() < 1e-3);
    }

    #[test]
    fn distance_to_deadline_sign() {
        let g = CompletionGoal::new(t(0.0), t(10.0));
        assert_eq!(g.distance_to_deadline(t(8.0)), d(2.0));
        assert_eq!(g.distance_to_deadline(t(12.0)), d(-2.0));
    }

    #[test]
    #[should_panic(expected = "deadline must be after")]
    fn inverted_goal_rejected() {
        let _ = CompletionGoal::new(t(5.0), t(5.0));
    }

    #[test]
    fn response_goal_round_trip() {
        let g = ResponseTimeGoal::new(d(0.1));
        assert_eq!(g.performance_at(d(0.1)), Rp::GOAL);
        assert!(g.performance_at(d(0.05)).approx_eq(Rp::new(0.5), 1e-12));
        assert!(g.performance_at(d(0.2)).approx_eq(Rp::new(-1.0), 1e-12));
        assert!((g.response_for(Rp::new(0.5)).as_secs() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn response_goal_floor_clamps() {
        let g = ResponseTimeGoal::new(d(0.01));
        // Absurdly slow response clamps at the healthy floor (never the
        // sub-floor band): txn scoring is memoryless.
        assert_eq!(g.performance_at(d(1e9)), Rp::FLOOR);
    }

    #[test]
    fn completion_goal_bands_below_floor() {
        let g = CompletionGoal::new(t(0.0), t(10.0));
        // raw u = (10 − completion)/10; floor crossed at completion 110 s.
        assert_eq!(g.performance_at(t(110.0)), Rp::FLOOR);
        let a = g.performance_at(t(120.0));
        let b = g.performance_at(t(200.0));
        assert!(a.is_sub_floor() && b.is_sub_floor());
        // Later completion → strictly lower banded utility.
        assert!(Rp::FLOOR > a && a > b && b > Rp::MIN);
        // completion_for inverts the band.
        for c in [120.0, 200.0, 5_000.0] {
            let u = g.performance_at(t(c));
            assert!(
                (g.completion_for(u).as_secs() - c).abs() <= 1e-6 * c,
                "completion {c} round-tripped to {}",
                g.completion_for(u).as_secs()
            );
        }
        assert_eq!(g.completion_for(Rp::MIN).as_secs(), f64::INFINITY);
    }
}
