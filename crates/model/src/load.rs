//! The load distribution matrix `L` (§3.2): how much CPU speed each
//! application consumes on each node.

use std::collections::BTreeMap;

use crate::cluster::{AppSet, Cluster};
use crate::error::ModelError;
use crate::ids::{AppId, NodeId};
use crate::placement::Placement;
use crate::units::CpuSpeed;

/// Tolerance used when validating CPU totals against capacities, to absorb
/// floating-point accumulation error.
pub const CPU_TOLERANCE_MHZ: f64 = 1e-6;

/// Sparse matrix of CPU allocations: cell `(m, n)` is the CPU speed
/// consumed by all instances of application `m` on node `n`.
///
/// ```
/// use dynaplace_model::load::LoadDistribution;
/// use dynaplace_model::ids::{AppId, NodeId};
/// use dynaplace_model::units::CpuSpeed;
///
/// let mut l = LoadDistribution::new();
/// l.set(AppId::new(0), NodeId::new(1), CpuSpeed::from_mhz(500.0));
/// assert_eq!(l.app_total(AppId::new(0)), CpuSpeed::from_mhz(500.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadDistribution {
    cells: BTreeMap<(AppId, NodeId), CpuSpeed>,
}

impl LoadDistribution {
    /// Creates an empty load distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// CPU speed consumed by `app` on `node` (zero if unset).
    pub fn get(&self, app: AppId, node: NodeId) -> CpuSpeed {
        self.cells
            .get(&(app, node))
            .copied()
            .unwrap_or(CpuSpeed::ZERO)
    }

    /// Sets the CPU speed consumed by `app` on `node`. Setting zero clears
    /// the cell.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is negative.
    pub fn set(&mut self, app: AppId, node: NodeId, speed: CpuSpeed) {
        assert!(speed.as_mhz() >= 0.0, "cpu allocation must be non-negative");
        if speed.is_zero() {
            self.cells.remove(&(app, node));
        } else {
            self.cells.insert((app, node), speed);
        }
    }

    /// Adds to the CPU speed consumed by `app` on `node`.
    pub fn add(&mut self, app: AppId, node: NodeId, speed: CpuSpeed) {
        let current = self.get(app, node);
        self.set(app, node, current + speed);
    }

    /// Removes every allocation of `app`.
    pub fn evict(&mut self, app: AppId) {
        let keys: Vec<_> = self
            .cells
            .range((app, NodeId::new(0))..=(app, NodeId::new(u32::MAX)))
            .map(|(&k, _)| k)
            .collect();
        for k in keys {
            self.cells.remove(&k);
        }
    }

    /// Total CPU allocated to `app` across all nodes (the paper's
    /// `ω_m = Σ_n L_{m,n}`).
    pub fn app_total(&self, app: AppId) -> CpuSpeed {
        self.cells
            .range((app, NodeId::new(0))..=(app, NodeId::new(u32::MAX)))
            .map(|(_, &s)| s)
            .sum()
    }

    /// Total CPU consumed on `node` across all applications.
    ///
    /// This scans all cells; callers on hot paths should maintain their own
    /// per-node totals.
    pub fn node_total(&self, node: NodeId) -> CpuSpeed {
        self.cells
            .iter()
            .filter(|(&(_, n), _)| n == node)
            .map(|(_, &s)| s)
            .sum()
    }

    /// Per-node allocations of `app`.
    pub fn allocations_of(&self, app: AppId) -> impl Iterator<Item = (NodeId, CpuSpeed)> + '_ {
        self.cells
            .range((app, NodeId::new(0))..=(app, NodeId::new(u32::MAX)))
            .map(|(&(_, node), &s)| (node, s))
    }

    /// Iterates over all non-zero cells.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, NodeId, CpuSpeed)> + '_ {
        self.cells.iter().map(|(&(app, node), &s)| (app, node, s))
    }

    /// Total CPU allocated across the whole cluster.
    pub fn total(&self) -> CpuSpeed {
        self.cells.values().copied().sum()
    }

    /// Number of non-zero cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no CPU is allocated.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Validates the load distribution against a placement and the cluster:
    /// load only where instances exist, per-cell speed within the
    /// instances' aggregate speed bounds, and node totals within capacity.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint in deterministic order.
    pub fn validate(
        &self,
        placement: &Placement,
        cluster: &Cluster,
        apps: &AppSet,
    ) -> Result<(), ModelError> {
        for (app, node, speed) in self.iter() {
            let count = placement.count(app, node);
            if count == 0 {
                return Err(ModelError::LoadWithoutInstance { app, node });
            }
            let spec = apps.get(app)?;
            let lo = spec.min_instance_speed() * f64::from(count);
            let hi = spec.max_instance_speed() * f64::from(count);
            if speed.as_mhz() < lo.as_mhz() - CPU_TOLERANCE_MHZ
                || speed.as_mhz() > hi.as_mhz() + CPU_TOLERANCE_MHZ
            {
                return Err(ModelError::SpeedOutOfBounds { app, node });
            }
        }
        for node in cluster.node_ids() {
            let total = self.node_total(node);
            if total.as_mhz() > cluster.node(node)?.cpu_capacity().as_mhz() + CPU_TOLERANCE_MHZ {
                return Err(ModelError::CpuExceeded { node });
            }
        }
        Ok(())
    }
}

impl FromIterator<(AppId, NodeId, CpuSpeed)> for LoadDistribution {
    fn from_iter<I: IntoIterator<Item = (AppId, NodeId, CpuSpeed)>>(iter: I) -> Self {
        let mut l = LoadDistribution::new();
        for (app, node, speed) in iter {
            if !speed.is_zero() {
                l.set(app, node, speed);
            }
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::ApplicationSpec;
    use crate::node::NodeSpec;
    use crate::units::Memory;

    fn app(i: u32) -> AppId {
        AppId::new(i)
    }
    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn small_world() -> (Cluster, AppSet, Placement) {
        let mut cluster = Cluster::new();
        cluster.add_node(
            NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        apps.add(ApplicationSpec::batch(
            Memory::from_mb(750.0),
            CpuSpeed::from_mhz(500.0),
        ));
        let mut p = Placement::new();
        p.place(app(0), node(0));
        (cluster, apps, p)
    }

    #[test]
    fn set_get_totals() {
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(300.0));
        l.set(app(0), node(1), CpuSpeed::from_mhz(200.0));
        l.set(app(1), node(0), CpuSpeed::from_mhz(100.0));
        assert_eq!(l.app_total(app(0)), CpuSpeed::from_mhz(500.0));
        assert_eq!(l.node_total(node(0)), CpuSpeed::from_mhz(400.0));
        assert_eq!(l.total(), CpuSpeed::from_mhz(600.0));
        assert_eq!(l.allocations_of(app(0)).count(), 2);
    }

    #[test]
    fn set_zero_clears_cell() {
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(100.0));
        l.set(app(0), node(0), CpuSpeed::ZERO);
        assert!(l.is_empty());
    }

    #[test]
    fn add_accumulates() {
        let mut l = LoadDistribution::new();
        l.add(app(0), node(0), CpuSpeed::from_mhz(100.0));
        l.add(app(0), node(0), CpuSpeed::from_mhz(50.0));
        assert_eq!(l.get(app(0), node(0)), CpuSpeed::from_mhz(150.0));
    }

    #[test]
    fn evict_clears_app() {
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(100.0));
        l.set(app(0), node(1), CpuSpeed::from_mhz(100.0));
        l.set(app(1), node(0), CpuSpeed::from_mhz(100.0));
        l.evict(app(0));
        assert_eq!(l.app_total(app(0)), CpuSpeed::ZERO);
        assert_eq!(l.app_total(app(1)), CpuSpeed::from_mhz(100.0));
    }

    #[test]
    fn validate_accepts_consistent_load() {
        let (cluster, apps, p) = small_world();
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(400.0));
        l.validate(&p, &cluster, &apps).unwrap();
    }

    #[test]
    fn validate_rejects_load_without_instance() {
        let (cluster, apps, _) = small_world();
        let empty = Placement::new();
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(100.0));
        assert_eq!(
            l.validate(&empty, &cluster, &apps),
            Err(ModelError::LoadWithoutInstance {
                app: app(0),
                node: node(0)
            })
        );
    }

    #[test]
    fn validate_rejects_over_speed() {
        let (cluster, apps, p) = small_world();
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(501.0)); // max is 500
        assert_eq!(
            l.validate(&p, &cluster, &apps),
            Err(ModelError::SpeedOutOfBounds {
                app: app(0),
                node: node(0)
            })
        );
    }

    #[test]
    fn validate_rejects_under_min_speed() {
        let mut cluster = Cluster::new();
        cluster.add_node(
            NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        apps.add(
            ApplicationSpec::batch(Memory::from_mb(10.0), CpuSpeed::from_mhz(500.0))
                .with_min_instance_speed(CpuSpeed::from_mhz(100.0)),
        );
        let mut p = Placement::new();
        p.place(app(0), node(0));
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(50.0));
        assert_eq!(
            l.validate(&p, &cluster, &apps),
            Err(ModelError::SpeedOutOfBounds {
                app: app(0),
                node: node(0)
            })
        );
    }

    #[test]
    fn validate_rejects_node_overload() {
        let (cluster, mut apps, mut p) = small_world();
        let big = apps.add(ApplicationSpec::batch(
            Memory::from_mb(10.0),
            CpuSpeed::from_mhz(900.0),
        ));
        p.place(big, node(0));
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(500.0));
        l.set(big, node(0), CpuSpeed::from_mhz(600.0)); // 1100 > 1000
        assert_eq!(
            l.validate(&p, &cluster, &apps),
            Err(ModelError::CpuExceeded { node: node(0) })
        );
    }

    #[test]
    #[should_panic(expected = "cpu allocation must be non-negative")]
    fn negative_allocation_rejected() {
        let mut l = LoadDistribution::new();
        l.set(app(0), node(0), CpuSpeed::from_mhz(-1.0));
    }
}
