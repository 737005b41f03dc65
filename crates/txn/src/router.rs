//! The request router: entry-point load balancing across the instances of
//! a clustered transactional application (§3.1).
//!
//! The router distributes arriving requests across application instances
//! in proportion to the CPU speed each instance was allocated, models
//! per-instance response times, and applies overload protection by
//! admitting at most a configurable utilization per instance (requests
//! beyond that are queued/shed at the gateway rather than melting the
//! server, after Pacifici et al.).

use dynaplace_model::units::{CpuSpeed, SimDuration};

use crate::model::TxnWorkload;

/// Default per-instance utilization cap for overload protection.
pub const DEFAULT_MAX_UTILIZATION: f64 = 0.99;

/// Load and modeled behaviour of one application instance after routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceLoad {
    /// Request rate admitted to this instance (req/s).
    pub admitted_rate: f64,
    /// Offered rate before overload protection (req/s).
    pub offered_rate: f64,
    /// CPU utilization of the instance's allocation in `[0, 1]`.
    pub utilization: f64,
    /// Modeled mean response time for requests served by this instance.
    pub response_time: SimDuration,
}

/// Result of routing one application's traffic over its instances.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingOutcome {
    /// Per-instance loads, in the order the allocations were given.
    pub instances: Vec<InstanceLoad>,
    /// Request rate admitted across all instances (req/s).
    pub admitted_rate: f64,
    /// Request rate shed (or gateway-queued) by overload protection.
    pub shed_rate: f64,
    /// Admission-weighted mean response time, `None` when nothing was
    /// admitted (no instances or zero allocation).
    pub mean_response: Option<SimDuration>,
}

impl RoutingOutcome {
    /// Whether overload protection engaged.
    pub fn is_overloaded(&self) -> bool {
        self.shed_rate > 1e-12
    }
}

/// Weighted-balancing request router for one transactional application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRouter {
    max_utilization: f64,
}

impl Default for RequestRouter {
    fn default() -> Self {
        Self::new(DEFAULT_MAX_UTILIZATION)
    }
}

impl RequestRouter {
    /// Creates a router with the given per-instance utilization cap.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < max_utilization < 1`.
    pub fn new(max_utilization: f64) -> Self {
        assert!(
            max_utilization > 0.0 && max_utilization < 1.0,
            "utilization cap must be in (0, 1)"
        );
        Self { max_utilization }
    }

    /// The configured utilization cap.
    pub fn max_utilization(&self) -> f64 {
        self.max_utilization
    }

    /// Routes `workload` over instances with the given CPU allocations.
    ///
    /// Traffic is offered proportionally to allocation; each instance
    /// admits at most `max_utilization × ω_i / d` requests per second,
    /// and the rest is shed at the gateway. Instances with zero
    /// allocation receive no traffic.
    pub fn route(&self, workload: &TxnWorkload, allocations: &[CpuSpeed]) -> RoutingOutcome {
        let total: f64 = allocations.iter().map(|w| w.as_mhz()).sum();
        let lambda = workload.arrival_rate;
        let d = workload.demand_per_request;
        let floor = workload.floor;

        if total <= 0.0 || allocations.is_empty() {
            return RoutingOutcome {
                instances: allocations
                    .iter()
                    .map(|_| InstanceLoad {
                        admitted_rate: 0.0,
                        offered_rate: 0.0,
                        utilization: 0.0,
                        response_time: floor,
                    })
                    .collect(),
                admitted_rate: 0.0,
                shed_rate: lambda,
                mean_response: None,
            };
        }

        // Admission control is per instance; the response time model is a
        // single processor-sharing pool over the aggregate allocation
        // (Pacifici et al.'s cluster model, and the same function the
        // placement controller inverts): t = max(floor, d / headroom).
        let mut admitted_total = 0.0;
        let mut per_instance: Vec<(f64, f64, f64)> = Vec::with_capacity(allocations.len());
        for &omega in allocations {
            let share = omega.as_mhz() / total;
            let offered = lambda * share;
            let capacity_rate = self.max_utilization * omega.as_mhz() / d;
            let admitted = offered.min(capacity_rate);
            let utilization = if omega.as_mhz() > 0.0 {
                admitted * d / omega.as_mhz()
            } else {
                0.0
            };
            admitted_total += admitted;
            per_instance.push((offered, admitted, utilization));
        }

        let pool_headroom = total - admitted_total * d;
        let pool_response = if admitted_total <= 0.0 {
            floor
        } else if pool_headroom > 0.0 {
            SimDuration::from_secs((d / pool_headroom).max(floor.as_secs()))
        } else {
            // At the admission cap the residual headroom is at least
            // (1 − max_utilization)·total by construction; guard anyway.
            SimDuration::from_secs(
                (d / ((1.0 - self.max_utilization) * total)).max(floor.as_secs()),
            )
        };

        let instances: Vec<InstanceLoad> = per_instance
            .into_iter()
            .map(|(offered, admitted, utilization)| InstanceLoad {
                admitted_rate: admitted,
                offered_rate: offered,
                utilization,
                response_time: pool_response,
            })
            .collect();

        let mean_response = if admitted_total > 0.0 {
            Some(pool_response)
        } else {
            None
        };

        RoutingOutcome {
            instances,
            admitted_rate: admitted_total,
            shed_rate: (lambda - admitted_total).max(0.0),
            mean_response,
        }
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

    fn workload() -> TxnWorkload {
        // λ = 100 req/s, d = 10 Mcycles, floor 1 ms.
        TxnWorkload::new(100.0, 10.0, secs(0.001))
    }

    #[test]
    fn proportional_distribution() {
        let router = RequestRouter::default();
        let out = router.route(&workload(), &[mhz(2_000.0), mhz(1_000.0)]);
        assert!((out.instances[0].offered_rate - 66.666).abs() < 0.01);
        assert!((out.instances[1].offered_rate - 33.333).abs() < 0.01);
        assert!(!out.is_overloaded());
        assert!((out.admitted_rate - 100.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_instances_have_equal_response() {
        let router = RequestRouter::default();
        let out = router.route(&workload(), &[mhz(1_500.0), mhz(1_500.0)]);
        let t0 = out.instances[0].response_time;
        let t1 = out.instances[1].response_time;
        assert!(t0.approx_eq(t1, 1e-12));
        // Pooled model: headroom = 3,000 − 100·10 = 2,000 → t = 5 ms,
        // identical to a single instance with the same total allocation.
        assert!(t0.approx_eq(secs(0.005), 1e-9));
        assert!(out.mean_response.unwrap().approx_eq(secs(0.005), 1e-9));
        let single = router.route(&workload(), &[mhz(3_000.0)]);
        assert!(single
            .mean_response
            .unwrap()
            .approx_eq(out.mean_response.unwrap(), 1e-12));
    }

    #[test]
    fn overload_protection_sheds() {
        let router = RequestRouter::new(0.9);
        // Capacity rate = 0.9 * 500 / 10 = 45 req/s < offered 100.
        let out = router.route(&workload(), &[mhz(500.0)]);
        assert!(out.is_overloaded());
        assert!((out.admitted_rate - 45.0).abs() < 1e-9);
        assert!((out.shed_rate - 55.0).abs() < 1e-9);
        assert!((out.instances[0].utilization - 0.9).abs() < 1e-9);
        // Response stays finite thanks to the admission cap.
        assert!(out.instances[0].response_time.as_secs().is_finite());
    }

    #[test]
    fn zero_allocation_sheds_everything() {
        let router = RequestRouter::default();
        let out = router.route(&workload(), &[CpuSpeed::ZERO, CpuSpeed::ZERO]);
        assert_eq!(out.admitted_rate, 0.0);
        assert!((out.shed_rate - 100.0).abs() < 1e-12);
        assert_eq!(out.mean_response, None);
    }

    #[test]
    fn no_instances() {
        let router = RequestRouter::default();
        let out = router.route(&workload(), &[]);
        assert!(out.instances.is_empty());
        assert_eq!(out.mean_response, None);
        assert!((out.shed_rate - 100.0).abs() < 1e-12);
    }

    #[test]
    fn zero_allocation_instance_gets_no_traffic() {
        let router = RequestRouter::default();
        let out = router.route(&workload(), &[mhz(3_000.0), CpuSpeed::ZERO]);
        assert_eq!(out.instances[1].offered_rate, 0.0);
        assert_eq!(out.instances[1].admitted_rate, 0.0);
        assert!((out.admitted_rate - 100.0).abs() < 1e-9);
    }

    #[test]
    fn floor_applies_at_high_allocation() {
        let router = RequestRouter::default();
        let out = router.route(&workload(), &[mhz(1e9)]);
        assert!(out.mean_response.unwrap().approx_eq(secs(0.001), 1e-12));
    }

    #[test]
    #[should_panic(expected = "utilization cap must be in (0, 1)")]
    fn bad_utilization_cap_rejected() {
        let _ = RequestRouter::new(1.0);
    }
}
