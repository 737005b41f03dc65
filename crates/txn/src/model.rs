//! Queueing performance model for transactional applications (§3.3).
//!
//! The paper leverages the request router's performance model (Pacifici
//! et al.) to estimate response time as a function of allocated CPU
//! speed, then scores it against the response-time goal with
//! `u = (τ − t)/τ` (eq. 1). The router model itself is not published in
//! the paper; we substitute an M/M/1 processor-sharing model with a
//! response-time floor, which reproduces the two properties the paper
//! relies on (see DESIGN.md §2):
//!
//! - response time decreases monotonically with allocated CPU, and
//! - there is a maximum achievable relative performance — beyond a
//!   saturation allocation, extra CPU no longer reduces response time
//!   (the paper's Experiment Three: `u_max ≈ 0.66` at ≈130,000 MHz).
//!
//! With per-request demand `d` (megacycles), arrival rate `λ` (req/s) and
//! aggregate allocation `ω` (MHz), the service rate is `μ = ω/d` and
//!
//! ```text
//! t(ω) = max(t_floor, 1 / (μ − λ)) = max(t_floor, d / (ω − λ·d))
//! ```

use dynaplace_model::units::{CpuSpeed, SimDuration};
use dynaplace_rpf::goal::ResponseTimeGoal;
use dynaplace_rpf::model::PerformanceModel;
use dynaplace_rpf::value::Rp;

/// Workload parameters of one transactional application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnWorkload {
    /// Request arrival rate λ, in requests per second.
    pub arrival_rate: f64,
    /// Average CPU demand of one request `d`, in megacycles.
    pub demand_per_request: f64,
    /// Response-time floor `t_floor`: the response time that remains even
    /// with unlimited CPU (minimum service plus network time).
    pub floor: SimDuration,
}

impl TxnWorkload {
    /// Creates a workload description.
    ///
    /// # Panics
    ///
    /// Panics if the arrival rate is negative, the per-request demand is
    /// not strictly positive, or the floor is not strictly positive.
    pub fn new(arrival_rate: f64, demand_per_request: f64, floor: SimDuration) -> Self {
        assert!(arrival_rate >= 0.0, "arrival rate must be non-negative");
        assert!(
            demand_per_request > 0.0,
            "per-request demand must be positive"
        );
        assert!(floor.is_positive(), "response-time floor must be positive");
        Self {
            arrival_rate,
            demand_per_request,
            floor,
        }
    }

    /// The CPU speed consumed just to keep up with arrivals (`λ·d`): below
    /// this allocation the queue grows without bound.
    pub fn saturation_load(&self) -> CpuSpeed {
        CpuSpeed::from_mhz(self.arrival_rate * self.demand_per_request)
    }

    /// Modeled mean response time under aggregate allocation `omega`.
    /// Returns `None` when the allocation cannot keep up with arrivals
    /// (`ω ≤ λ·d`), i.e. the system is overloaded.
    pub fn response_time(&self, omega: CpuSpeed) -> Option<SimDuration> {
        let headroom = omega.as_mhz() - self.saturation_load().as_mhz();
        if headroom <= 0.0 {
            return None;
        }
        let queueing = self.demand_per_request / headroom;
        Some(SimDuration::from_secs(queueing.max(self.floor.as_secs())))
    }

    /// The allocation at which the response time reaches the floor:
    /// `λ·d + d/t_floor`. More CPU than this is wasted on this workload.
    pub fn saturation_allocation(&self) -> CpuSpeed {
        CpuSpeed::from_mhz(
            self.arrival_rate * self.demand_per_request
                + self.demand_per_request / self.floor.as_secs(),
        )
    }
}

/// The complete performance model of a transactional application: its
/// workload plus its response-time goal. Implements [`PerformanceModel`],
/// so the placement controller can query it directly.
///
/// ```
/// use dynaplace_model::units::{CpuSpeed, SimDuration};
/// use dynaplace_rpf::goal::ResponseTimeGoal;
/// use dynaplace_rpf::model::PerformanceModel;
/// use dynaplace_txn::model::{TxnPerformanceModel, TxnWorkload};
///
/// // Experiment Three's transactional application (see DESIGN.md):
/// // λ·d = 100,000 MHz, floor chosen so u_max ≈ 0.66 at ≈130,000 MHz.
/// let workload = TxnWorkload::new(1_000.0, 100.0, SimDuration::from_secs(100.0 / 30_000.0));
/// let goal = ResponseTimeGoal::new(SimDuration::from_secs(100.0 / 30_000.0 / 0.34));
/// let model = TxnPerformanceModel::new(workload, goal);
/// let u_max = model.max_performance();
/// assert!((u_max.value() - 0.66).abs() < 0.01);
/// let at_saturation = model.max_useful_demand();
/// assert!((at_saturation.as_mhz() - 130_000.0).abs() < 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnPerformanceModel {
    workload: TxnWorkload,
    goal: ResponseTimeGoal,
}

impl TxnPerformanceModel {
    /// Combines a workload description with a response-time goal.
    pub fn new(workload: TxnWorkload, goal: ResponseTimeGoal) -> Self {
        Self { workload, goal }
    }

    /// The workload parameters.
    pub fn workload(&self) -> TxnWorkload {
        self.workload
    }

    /// The response-time goal.
    pub fn goal(&self) -> ResponseTimeGoal {
        self.goal
    }

    /// Relative performance for an *observed* response time (used by the
    /// simulator to report actual, rather than modeled, performance).
    pub fn performance_of_response(&self, response: SimDuration) -> Rp {
        self.goal.performance_at(response)
    }
}

impl PerformanceModel for TxnPerformanceModel {
    fn performance(&self, omega: CpuSpeed) -> Rp {
        // Overload scores exactly the healthy floor, never the sub-floor
        // band: txn requests are memoryless, so there is no accumulated
        // lateness to drain, and `ResponseTimeGoal::performance_at`
        // clamps at the floor for the same reason.
        match self.workload.response_time(omega) {
            Some(t) => self.goal.performance_at(t),
            None => Rp::FLOOR,
        }
    }

    fn demand(&self, u: Rp) -> CpuSpeed {
        let u = u.min(self.max_performance());
        // The RP floor is a plateau: every allocation from zero up to the
        // overload-exit point scores Rp::FLOOR, so the *cheapest*
        // allocation achieving the floor — or any sub-floor band target —
        // is zero (the leftmost point of the plateau, consistent with
        // SampledRpf's inverse).
        if u <= Rp::FLOOR {
            return CpuSpeed::ZERO;
        }
        let target = self.goal.response_for(u);
        if target <= self.workload.floor {
            return self.workload.saturation_allocation();
        }
        // Invert t = d/(ω − λd): ω = λd + d/t.
        CpuSpeed::from_mhz(
            self.workload.saturation_load().as_mhz()
                + self.workload.demand_per_request / target.as_secs(),
        )
    }

    fn max_performance(&self) -> Rp {
        self.goal.performance_at(self.workload.floor)
    }

    fn max_useful_demand(&self) -> CpuSpeed {
        self.workload.saturation_allocation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mhz(x: f64) -> CpuSpeed {
        CpuSpeed::from_mhz(x)
    }
    fn secs(x: f64) -> SimDuration {
        SimDuration::from_secs(x)
    }

    fn model() -> TxnPerformanceModel {
        // λ = 100 req/s, d = 10 Mcycles → λd = 1,000 MHz.
        // floor = 5 ms; goal = 20 ms.
        TxnPerformanceModel::new(
            TxnWorkload::new(100.0, 10.0, secs(0.005)),
            ResponseTimeGoal::new(secs(0.020)),
        )
    }

    #[test]
    fn response_time_decreases_with_cpu() {
        let w = model().workload();
        let t1 = w.response_time(mhz(1_500.0)).unwrap();
        let t2 = w.response_time(mhz(2_500.0)).unwrap();
        assert!(t2 < t1);
        // 10/(1500-1000) = 20 ms.
        assert!(t1.approx_eq(secs(0.02), 1e-12));
    }

    #[test]
    fn overload_returns_none() {
        let w = model().workload();
        assert!(w.response_time(mhz(1_000.0)).is_none());
        assert!(w.response_time(mhz(500.0)).is_none());
        assert!(w.response_time(CpuSpeed::ZERO).is_none());
    }

    #[test]
    fn floor_caps_response_time() {
        let w = model().workload();
        // Far beyond saturation the floor dominates.
        assert_eq!(w.response_time(mhz(1e9)).unwrap(), secs(0.005));
        // Saturation allocation: 1000 + 10/0.005 = 3,000 MHz.
        assert!(w.saturation_allocation().approx_eq(mhz(3_000.0), 1e-9));
    }

    #[test]
    fn performance_matches_goal_arithmetic() {
        let m = model();
        // At 1,500 MHz, t = 20 ms = goal → u = 0.
        assert!(m.performance(mhz(1_500.0)).approx_eq(Rp::GOAL, 1e-9));
        // At the floor, u = (20-5)/20 = 0.75 = u_max.
        assert!(m.max_performance().approx_eq(Rp::new(0.75), 1e-9));
        assert!(m.performance(mhz(1e6)).approx_eq(Rp::new(0.75), 1e-9));
        // Overloaded → the healthy floor, never the sub-floor band.
        assert_eq!(m.performance(mhz(900.0)), Rp::FLOOR);
    }

    #[test]
    fn demand_inverts_performance() {
        let m = model();
        for u in [-2.0, -0.5, 0.0, 0.3, 0.6, 0.74] {
            let omega = m.demand(Rp::new(u));
            let back = m.performance(omega);
            assert!(
                back.approx_eq(Rp::new(u), 1e-9),
                "demand/performance round trip failed at u={u}: {back}"
            );
        }
    }

    #[test]
    fn demand_saturates_at_max_performance() {
        let m = model();
        assert!(m
            .demand(Rp::new(0.9))
            .approx_eq(m.max_useful_demand(), 1e-9));
        assert!(m.demand(Rp::MAX).approx_eq(mhz(3_000.0), 1e-9));
    }

    #[test]
    fn performance_is_monotone() {
        let m = model();
        let mut prev = Rp::MIN;
        for omega in [0.0, 500.0, 1_000.5, 1_001.0, 1_200.0, 2_000.0, 5_000.0, 1e6] {
            let u = m.performance(mhz(omega));
            assert!(u >= prev, "performance dropped at {omega} MHz");
            prev = u;
        }
    }

    #[test]
    fn zero_arrival_rate_is_always_at_floor() {
        let w = TxnWorkload::new(0.0, 10.0, secs(0.005));
        // With no arrivals the "queueing" term is pure service time d/ω:
        // slow at a tiny allocation, floored once ω ≥ d/t_floor.
        assert_eq!(w.response_time(mhz(1.0)).unwrap(), secs(10.0));
        assert_eq!(w.response_time(mhz(10_000.0)).unwrap(), secs(0.005));
        assert_eq!(w.saturation_load(), CpuSpeed::ZERO);
    }

    #[test]
    #[should_panic(expected = "per-request demand must be positive")]
    fn zero_demand_rejected() {
        let _ = TxnWorkload::new(1.0, 0.0, secs(0.005));
    }
}
