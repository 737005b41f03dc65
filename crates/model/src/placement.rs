//! The placement matrix `P` (§3.2): how many instances of each application
//! run on each node.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use crate::app::ApplicationSpec;
use crate::cluster::{AppSet, Cluster};
use crate::delta::{diff_placements, PlacementAction};
use crate::error::ModelError;
use crate::ids::{AppId, NodeId};
use crate::resources::Resources;
use crate::units::Memory;

/// Sparse matrix of instance counts: cell `(m, n)` is the number of
/// instances of application `m` running on node `n`.
///
/// Backed by a vector of cells sorted by `(app, node)`, so iteration
/// order is deterministic, which keeps the whole control loop
/// reproducible run-to-run, and a copy is one allocation: the optimizer
/// clones the incumbent for every candidate it builds.
///
/// ```
/// use dynaplace_model::placement::Placement;
/// use dynaplace_model::ids::{AppId, NodeId};
///
/// let mut p = Placement::new();
/// p.place(AppId::new(0), NodeId::new(2));
/// assert_eq!(p.count(AppId::new(0), NodeId::new(2)), 1);
/// assert_eq!(p.total_instances(AppId::new(0)), 1);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Placement {
    /// `((app, node), count)`, strictly ascending by `(app, node)`, every
    /// count positive.
    cells: Vec<((AppId, NodeId), u32)>,
}

impl fmt::Debug for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Placement")
            .field("cells", &CellsDebug(&self.cells))
            .finish()
    }
}

/// Prints the cells as the map they stand for.
struct CellsDebug<'a>(&'a [((AppId, NodeId), u32)]);

impl fmt::Debug for CellsDebug<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(cell, count)| (cell, count)))
            .finish()
    }
}

impl Placement {
    /// Creates an empty placement.
    pub fn new() -> Self {
        Self::default()
    }

    /// The position of cell `(app, node)`, or where it would be inserted.
    fn find(&self, app: AppId, node: NodeId) -> Result<usize, usize> {
        self.cells
            .binary_search_by_key(&(app, node), |&(cell, _)| cell)
    }

    /// The positions of `app`'s cells.
    fn app_range(&self, app: AppId) -> Range<usize> {
        let start = self.cells.partition_point(|&((a, _), _)| a < app);
        let end = start + self.cells[start..].partition_point(|&((a, _), _)| a == app);
        start..end
    }

    /// Number of instances of `app` on `node`.
    pub fn count(&self, app: AppId, node: NodeId) -> u32 {
        self.find(app, node).map_or(0, |i| self.cells[i].1)
    }

    /// Adds one instance of `app` on `node` without checking constraints.
    ///
    /// Prefer [`Placement::checked_place`] unless the caller has already
    /// validated the move.
    pub fn place(&mut self, app: AppId, node: NodeId) {
        match self.find(app, node) {
            Ok(i) => self.cells[i].1 += 1,
            Err(i) => self.cells.insert(i, ((app, node), 1)),
        }
    }

    /// Adds one instance after validating every placement constraint:
    /// [`Placement::check_place`] followed by [`Placement::place`].
    ///
    /// # Errors
    ///
    /// Returns the error [`Placement::check_place`] reports; on error the
    /// placement is unchanged.
    pub fn checked_place(
        &mut self,
        app: AppId,
        node: NodeId,
        cluster: &Cluster,
        apps: &AppSet,
    ) -> Result<(), ModelError> {
        self.check_place(app, node, cluster, apps)?;
        self.place(app, node);
        Ok(())
    }

    /// Checks, without changing the placement, whether one more instance
    /// of `app` may start on `node`: registration, pinning, instance
    /// limit, anti-affinity, and every rigid resource capacity (memory
    /// first, then the cluster's extra dimensions).
    ///
    /// # Errors
    ///
    /// Returns the specific [`ModelError`] describing the violated
    /// constraint. Rigid dimension 0 reports
    /// [`ModelError::MemoryExceeded`], further dimensions
    /// [`ModelError::ResourceExceeded`].
    pub fn check_place(
        &self,
        app: AppId,
        node: NodeId,
        cluster: &Cluster,
        apps: &AppSet,
    ) -> Result<(), ModelError> {
        let spec = apps.get(app)?;
        let node_spec = cluster.node(node)?;
        if !spec.allows_node(node) {
            return Err(ModelError::PinningViolated { app, node });
        }
        if self.total_instances(app) >= spec.max_instances() {
            return Err(ModelError::MaxInstancesExceeded { app });
        }
        for (other, _count) in self.apps_on(node) {
            if other == app {
                continue;
            }
            let other_spec = apps.get(other)?;
            if !spec.may_share_node_with(other_spec) {
                return Err(ModelError::AntiAffinityViolated { app, other, node });
            }
        }
        let used = self.rigid_used(node, apps)?;
        match used.first_overflow(spec.rigid_per_instance(), node_spec.rigid_capacity()) {
            Some(dim) => Err(Self::rigid_error(node, dim)),
            None => Ok(()),
        }
    }

    /// Maps an exceeded rigid dimension to its error variant (memory
    /// keeps its dedicated variant for backwards compatibility).
    fn rigid_error(node: NodeId, dim: usize) -> ModelError {
        if dim == crate::resources::ResourceDims::MEMORY {
            ModelError::MemoryExceeded { node }
        } else {
            ModelError::ResourceExceeded { node, dim }
        }
    }

    /// Removes one instance of `app` from `node`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InstanceNotPlaced`] if no instance is there.
    pub fn remove(&mut self, app: AppId, node: NodeId) -> Result<(), ModelError> {
        match self.find(app, node) {
            Ok(i) if self.cells[i].1 > 1 => {
                self.cells[i].1 -= 1;
                Ok(())
            }
            Ok(i) => {
                self.cells.remove(i);
                Ok(())
            }
            Err(_) => Err(ModelError::InstanceNotPlaced { app, node }),
        }
    }

    /// Removes every instance of `app` from every node, returning how many
    /// instances were removed.
    pub fn evict(&mut self, app: AppId) -> u32 {
        let range = self.app_range(app);
        self.cells.drain(range).map(|(_, count)| count).sum()
    }

    /// Iterates over the nodes hosting `app`, with instance counts.
    pub fn instances_of(&self, app: AppId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.cells[self.app_range(app)]
            .iter()
            .map(|&((_, node), count)| (node, count))
    }

    /// Iterates over the applications on `node`, in ascending [`AppId`]
    /// order, with instance counts.
    ///
    /// This scans all cells. Callers on hot paths should keep their own
    /// per-node index, as the placement optimizer's node loop does: it
    /// builds a node→residents index once per adopted candidate instead
    /// of calling this for every node.
    pub fn apps_on(&self, node: NodeId) -> impl Iterator<Item = (AppId, u32)> + '_ {
        self.cells
            .iter()
            .filter(move |&&((_, n), _)| n == node)
            .map(|&((app, _), count)| (app, count))
    }

    /// Total number of instances of `app` across all nodes.
    pub fn total_instances(&self, app: AppId) -> u32 {
        self.instances_of(app).map(|(_, c)| c).sum()
    }

    /// Whether `app` has at least one instance placed.
    pub fn is_placed(&self, app: AppId) -> bool {
        self.instances_of(app).next().is_some()
    }

    /// For single-instance applications: the node hosting the instance,
    /// if placed. Returns the first node in id order for multi-instance
    /// applications.
    pub fn single_node_of(&self, app: AppId) -> Option<NodeId> {
        self.instances_of(app).next().map(|(node, _)| node)
    }

    /// Memory consumed on `node` by all placed instances (rigid
    /// dimension 0).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownApp`] if a placed application is not
    /// registered in `apps`.
    pub fn memory_used(&self, node: NodeId, apps: &AppSet) -> Result<Memory, ModelError> {
        Ok(self.rigid_used(node, apps)?.memory())
    }

    /// Rigid resources consumed on `node` by all placed instances, per
    /// dimension. Accumulates in ascending [`AppId`] order with exactly
    /// the `used += demand × count` arithmetic of the memory-only model,
    /// so dimension 0 is bit-identical to the historical `memory_used`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownApp`] if a placed application is not
    /// registered in `apps`.
    pub fn rigid_used(&self, node: NodeId, apps: &AppSet) -> Result<Resources, ModelError> {
        let mut used = Resources::zero();
        for (app, count) in self.apps_on(node) {
            used.add_scaled(apps.get(app)?.rigid_per_instance(), f64::from(count));
        }
        Ok(used)
    }

    /// Iterates over all non-empty cells `((app, node), count)`.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, NodeId, u32)> + '_ {
        self.cells
            .iter()
            .map(|&((app, node), count)| (app, node, count))
    }

    /// Total number of placed instances.
    pub fn total_placed(&self) -> u32 {
        self.cells.iter().map(|&(_, count)| count).sum()
    }

    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Validates the whole placement against every constraint.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint in deterministic order.
    pub fn validate(&self, cluster: &Cluster, apps: &AppSet) -> Result<(), ModelError> {
        // Per-app checks.
        let mut totals: BTreeMap<AppId, u32> = BTreeMap::new();
        for (app, node, count) in self.iter() {
            let spec = apps.get(app)?;
            cluster.node(node)?;
            if !spec.allows_node(node) {
                return Err(ModelError::PinningViolated { app, node });
            }
            *totals.entry(app).or_insert(0) += count;
        }
        for (app, total) in totals {
            if total > apps.get(app)?.max_instances() {
                return Err(ModelError::MaxInstancesExceeded { app });
            }
        }
        // Per-node checks.
        for node in cluster.node_ids() {
            let used = self.rigid_used(node, apps)?;
            if let Some(dim) = used.first_exceeding(cluster.node(node)?.rigid_capacity()) {
                return Err(Self::rigid_error(node, dim));
            }
            let residents: Vec<(AppId, &ApplicationSpec)> = self
                .apps_on(node)
                .map(|(app, _)| apps.get(app).map(|s| (app, s)))
                .collect::<Result<_, _>>()?;
            for (i, (app_a, spec_a)) in residents.iter().enumerate() {
                for (app_b, spec_b) in residents.iter().skip(i + 1) {
                    if !spec_a.may_share_node_with(spec_b) {
                        return Err(ModelError::AntiAffinityViolated {
                            app: *app_a,
                            other: *app_b,
                            node,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Computes the control actions that transform `self` into `target`.
    ///
    /// Single-instance moves are reported as migrations; surplus removals
    /// and additions become stops and starts. See [`PlacementAction`].
    pub fn diff(&self, target: &Placement) -> Vec<PlacementAction> {
        diff_placements(self, target)
    }
}

/// Zero counts are skipped, and a later count for a cell replaces an
/// earlier one.
impl FromIterator<(AppId, NodeId, u32)> for Placement {
    fn from_iter<I: IntoIterator<Item = (AppId, NodeId, u32)>>(iter: I) -> Self {
        let mut cells: Vec<((AppId, NodeId), u32)> = iter
            .into_iter()
            .filter(|&(_, _, count)| count > 0)
            .map(|(app, node, count)| ((app, node), count))
            .collect();
        // A stable sort keeps each cell's counts in input order; the last
        // one is kept.
        cells.sort_by_key(|&(cell, _)| cell);
        cells.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        Self { cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AntiAffinityGroup;
    use crate::node::NodeSpec;
    use crate::units::{CpuSpeed, Memory};

    fn setup() -> (Cluster, AppSet, AppId, AppId) {
        let mut cluster = Cluster::new();
        for _ in 0..2 {
            cluster.add_node(
                NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(2_000.0)).unwrap(),
            );
        }
        let mut apps = AppSet::new();
        let j1 = apps.add(ApplicationSpec::batch(
            Memory::from_mb(750.0),
            CpuSpeed::from_mhz(1_000.0),
        ));
        let j2 = apps.add(ApplicationSpec::batch(
            Memory::from_mb(750.0),
            CpuSpeed::from_mhz(500.0),
        ));
        (cluster, apps, j1, j2)
    }

    #[test]
    fn collected_cells_sort_and_print_like_a_map() {
        let (a, b) = (AppId::new(0), AppId::new(1));
        let (n0, n1) = (NodeId::new(0), NodeId::new(1));
        // Out of order, a zero count and a repeated cell: zeros are
        // skipped and the last count for a cell wins.
        let p: Placement = [(b, n0, 2), (a, n1, 1), (b, n0, 3), (a, n0, 0)]
            .into_iter()
            .collect();
        assert_eq!(p.iter().collect::<Vec<_>>(), vec![(a, n1, 1), (b, n0, 3)]);
        let map: BTreeMap<(AppId, NodeId), u32> = [((a, n1), 1), ((b, n0), 3)].into();
        assert_eq!(format!("{p:?}"), format!("Placement {{ cells: {map:?} }}"));
        let mut q = p.clone();
        q.place(a, n0);
        assert_eq!(
            q.instances_of(a).collect::<Vec<_>>(),
            vec![(n0, 1), (n1, 1)]
        );
        assert_eq!(q.evict(b), 3);
        assert_eq!(q.total_placed(), 2);
    }

    #[test]
    fn place_count_remove_round_trip() {
        let (_, _, j1, _) = setup();
        let n = NodeId::new(0);
        let mut p = Placement::new();
        assert_eq!(p.count(j1, n), 0);
        p.place(j1, n);
        assert_eq!(p.count(j1, n), 1);
        assert!(p.is_placed(j1));
        assert_eq!(p.single_node_of(j1), Some(n));
        p.remove(j1, n).unwrap();
        assert!(!p.is_placed(j1));
        assert!(p.remove(j1, n).is_err());
    }

    #[test]
    fn memory_constraint_enforced() {
        let (cluster, apps, j1, j2) = setup();
        let n = NodeId::new(0);
        let mut p = Placement::new();
        p.checked_place(j1, n, &cluster, &apps).unwrap();
        p.checked_place(j2, n, &cluster, &apps).unwrap();
        // Third 750 MB instance would need 2250 MB > 2000 MB.
        let mut apps2 = apps.clone();
        let j3 = apps2.add(ApplicationSpec::batch(
            Memory::from_mb(750.0),
            CpuSpeed::from_mhz(500.0),
        ));
        assert_eq!(
            p.checked_place(j3, n, &cluster, &apps2),
            Err(ModelError::MemoryExceeded { node: n })
        );
    }

    #[test]
    fn max_instances_enforced() {
        let (cluster, apps, j1, _) = setup();
        let mut p = Placement::new();
        p.checked_place(j1, NodeId::new(0), &cluster, &apps)
            .unwrap();
        assert_eq!(
            p.checked_place(j1, NodeId::new(1), &cluster, &apps),
            Err(ModelError::MaxInstancesExceeded { app: j1 })
        );
    }

    #[test]
    fn pinning_enforced() {
        let (cluster, mut apps, _, _) = setup();
        let pinned = apps.add(
            ApplicationSpec::batch(Memory::from_mb(100.0), CpuSpeed::from_mhz(100.0))
                .with_allowed_nodes([NodeId::new(1)]),
        );
        let mut p = Placement::new();
        assert_eq!(
            p.checked_place(pinned, NodeId::new(0), &cluster, &apps),
            Err(ModelError::PinningViolated {
                app: pinned,
                node: NodeId::new(0)
            })
        );
        p.checked_place(pinned, NodeId::new(1), &cluster, &apps)
            .unwrap();
    }

    #[test]
    fn anti_affinity_enforced() {
        let (cluster, mut apps, _, _) = setup();
        let g = AntiAffinityGroup(1);
        let a = apps.add(
            ApplicationSpec::batch(Memory::from_mb(10.0), CpuSpeed::from_mhz(10.0))
                .with_anti_affinity(g),
        );
        let b = apps.add(
            ApplicationSpec::batch(Memory::from_mb(10.0), CpuSpeed::from_mhz(10.0))
                .with_anti_affinity(g),
        );
        let n = NodeId::new(0);
        let mut p = Placement::new();
        p.checked_place(a, n, &cluster, &apps).unwrap();
        assert_eq!(
            p.checked_place(b, n, &cluster, &apps),
            Err(ModelError::AntiAffinityViolated {
                app: b,
                other: a,
                node: n
            })
        );
        p.checked_place(b, NodeId::new(1), &cluster, &apps).unwrap();
        p.validate(&cluster, &apps).unwrap();
    }

    #[test]
    fn validate_catches_manual_violations() {
        let (cluster, apps, j1, j2) = setup();
        let n = NodeId::new(0);
        let mut p = Placement::new();
        p.place(j1, n);
        p.place(j2, n);
        p.place(j2, NodeId::new(1)); // j2 is single-instance: 2 > 1
        assert_eq!(
            p.validate(&cluster, &apps),
            Err(ModelError::MaxInstancesExceeded { app: j2 })
        );
    }

    #[test]
    fn evict_removes_all_instances() {
        let (_, mut apps, _, _) = setup();
        let web = apps.add(ApplicationSpec::transactional(
            Memory::from_mb(10.0),
            CpuSpeed::from_mhz(100.0),
            4,
        ));
        let mut p = Placement::new();
        p.place(web, NodeId::new(0));
        p.place(web, NodeId::new(0));
        p.place(web, NodeId::new(1));
        assert_eq!(p.total_instances(web), 3);
        assert_eq!(p.evict(web), 3);
        assert!(!p.is_placed(web));
    }

    #[test]
    fn memory_used_sums_per_instance_demand() {
        let (_, apps, j1, j2) = setup();
        let n = NodeId::new(0);
        let mut p = Placement::new();
        p.place(j1, n);
        p.place(j2, n);
        assert_eq!(p.memory_used(n, &apps).unwrap(), Memory::from_mb(1_500.0));
        assert_eq!(p.memory_used(NodeId::new(1), &apps).unwrap(), Memory::ZERO);
    }

    #[test]
    fn extra_rigid_dimension_enforced() {
        use crate::resources::{ResourceDims, Resources};
        // Two nodes, both with ample memory; only n1 has license slots.
        let mut cluster =
            Cluster::new().with_dims(ResourceDims::with_extra(["license_slots"]).unwrap());
        let n0 = cluster.add_node(
            NodeSpec::try_with_resources(
                CpuSpeed::from_mhz(1_000.0),
                Resources::new(vec![4_000.0]),
            )
            .unwrap(),
        );
        let n1 = cluster.add_node(
            NodeSpec::try_with_resources(
                CpuSpeed::from_mhz(1_000.0),
                Resources::new(vec![4_000.0, 1.0]),
            )
            .unwrap(),
        );
        let mut apps = AppSet::new();
        let licensed = apps.add(
            ApplicationSpec::batch(Memory::from_mb(100.0), CpuSpeed::from_mhz(500.0))
                .with_extra_rigid_demand([1.0]),
        );
        let mut p = Placement::new();
        // n0 supplies zero license slots: rejected per-dimension, with
        // the dimension index in the error.
        assert_eq!(
            p.checked_place(licensed, n0, &cluster, &apps),
            Err(ModelError::ResourceExceeded { node: n0, dim: 1 })
        );
        p.checked_place(licensed, n1, &cluster, &apps).unwrap();
        p.validate(&cluster, &apps).unwrap();
        assert_eq!(p.rigid_used(n1, &apps).unwrap().values(), &[100.0, 1.0]);
        // A second licensed tenant exhausts the slot pool on n1.
        let mut apps2 = apps.clone();
        let second = apps2.add(
            ApplicationSpec::batch(Memory::from_mb(100.0), CpuSpeed::from_mhz(500.0))
                .with_extra_rigid_demand([1.0]),
        );
        assert_eq!(
            p.checked_place(second, n1, &cluster, &apps2),
            Err(ModelError::ResourceExceeded { node: n1, dim: 1 })
        );
        // validate() catches a manually forced violation the same way.
        p.place(second, n1);
        assert_eq!(
            p.validate(&cluster, &apps2),
            Err(ModelError::ResourceExceeded { node: n1, dim: 1 })
        );
    }

    #[test]
    fn check_place_and_checked_place_agree_on_every_error() {
        use crate::resources::{ResourceDims, Resources};
        // n0 has one license slot, n1 none; both have 1 GB of memory.
        let mut cluster =
            Cluster::new().with_dims(ResourceDims::with_extra(["license_slots"]).unwrap());
        let n0 = cluster.add_node(
            NodeSpec::try_with_resources(
                CpuSpeed::from_mhz(1_000.0),
                Resources::new(vec![1_000.0, 1.0]),
            )
            .unwrap(),
        );
        let n1 = cluster.add_node(
            NodeSpec::try_with_resources(
                CpuSpeed::from_mhz(1_000.0),
                Resources::new(vec![1_000.0]),
            )
            .unwrap(),
        );
        let batch =
            |mb: f64| ApplicationSpec::batch(Memory::from_mb(mb), CpuSpeed::from_mhz(100.0));
        let g = AntiAffinityGroup(7);
        let mut apps = AppSet::new();
        let big = apps.add(batch(800.0));
        let small = apps.add(batch(300.0));
        let pinned = apps.add(batch(10.0).with_allowed_nodes([n1]));
        let guard_a = apps.add(batch(10.0).with_anti_affinity(g));
        let guard_b = apps.add(batch(10.0).with_anti_affinity(g));
        let licensed = apps.add(batch(10.0).with_extra_rigid_demand([1.0]));
        let mut p = Placement::new();
        p.place(big, n0);
        p.place(guard_a, n0);

        let cases = [
            (
                AppId::new(99),
                n0,
                Err(ModelError::UnknownApp(AppId::new(99))),
            ),
            (
                small,
                NodeId::new(9),
                Err(ModelError::UnknownNode(NodeId::new(9))),
            ),
            (
                pinned,
                n0,
                Err(ModelError::PinningViolated {
                    app: pinned,
                    node: n0,
                }),
            ),
            (big, n1, Err(ModelError::MaxInstancesExceeded { app: big })),
            (
                guard_b,
                n0,
                Err(ModelError::AntiAffinityViolated {
                    app: guard_b,
                    other: guard_a,
                    node: n0,
                }),
            ),
            // 800 + 10 + 300 MB > 1000 MB.
            (small, n0, Err(ModelError::MemoryExceeded { node: n0 })),
            // n1 supplies no license slots.
            (
                licensed,
                n1,
                Err(ModelError::ResourceExceeded { node: n1, dim: 1 }),
            ),
            (small, n1, Ok(())),
        ];
        for (app, node, expected) in cases {
            let before = p.clone();
            assert_eq!(p.check_place(app, node, &cluster, &apps), expected);
            assert_eq!(p, before, "check_place never changes the placement");
            let mut placed = p.clone();
            assert_eq!(placed.checked_place(app, node, &cluster, &apps), expected);
            if expected.is_ok() {
                assert_eq!(placed.count(app, node), before.count(app, node) + 1);
                assert_eq!(placed.total_placed(), before.total_placed() + 1);
            } else {
                assert_eq!(placed, before, "a rejected checked_place changes nothing");
            }
        }
    }

    #[test]
    fn from_iterator_skips_zero_counts() {
        let p: Placement = [
            (AppId::new(0), NodeId::new(0), 2),
            (AppId::new(1), NodeId::new(0), 0),
        ]
        .into_iter()
        .collect();
        assert_eq!(p.total_placed(), 2);
        assert_eq!(p.len(), 1);
    }
}
