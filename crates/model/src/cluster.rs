//! Registries of nodes and applications.

use crate::app::ApplicationSpec;
use crate::error::ModelError;
use crate::ids::{AppId, NodeId};
use crate::node::NodeSpec;
use crate::resources::{ResourceDims, Resources};
use crate::units::{CpuSpeed, Memory};

/// The set of physical machines under management.
///
/// Nodes receive dense [`NodeId`]s in registration order.
///
/// ```
/// use dynaplace_model::cluster::Cluster;
/// use dynaplace_model::node::NodeSpec;
/// use dynaplace_model::units::{CpuSpeed, Memory};
///
/// let mut cluster = Cluster::new();
/// for _ in 0..25 {
///     cluster.add_node(
///         NodeSpec::try_new(CpuSpeed::from_mhz(15_600.0), Memory::from_mb(16_384.0)).unwrap(),
///     );
/// }
/// assert_eq!(cluster.len(), 25);
/// assert_eq!(cluster.total_cpu(), CpuSpeed::from_mhz(390_000.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cluster {
    nodes: Vec<NodeSpec>,
    /// The rigid dimension registry every node's (and tenant
    /// application's) resource vector is interpreted against. Memory-only
    /// by default, matching the paper.
    dims: ResourceDims,
}

impl Cluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cluster of `count` identical nodes.
    pub fn homogeneous(count: usize, spec: NodeSpec) -> Self {
        Self {
            nodes: vec![spec; count],
            dims: ResourceDims::default(),
        }
    }

    /// Declares the rigid dimension registry of this cluster (memory-only
    /// by default). Node and application resource vectors are interpreted
    /// against it; vectors shorter than the registry are zero-extended.
    #[must_use]
    pub fn with_dims(mut self, dims: ResourceDims) -> Self {
        self.dims = dims;
        self
    }

    /// Replaces the rigid dimension registry in place.
    pub fn set_dims(&mut self, dims: ResourceDims) {
        self.dims = dims;
    }

    /// The rigid dimension registry.
    #[inline]
    pub fn dims(&self) -> &ResourceDims {
        &self.dims
    }

    /// Aggregate rigid capacity of the cluster, per dimension.
    pub fn total_rigid(&self) -> Resources {
        let mut total = Resources::new(vec![0.0; self.dims.len()]);
        for node in &self.nodes {
            total.add_scaled(node.rigid_capacity(), 1.0);
        }
        total
    }

    /// Registers a node and returns its id.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(spec);
        id
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownNode`] if the id is not registered.
    pub fn node(&self, id: NodeId) -> Result<&NodeSpec, ModelError> {
        self.nodes
            .get(id.index())
            .ok_or(ModelError::UnknownNode(id))
    }

    /// Returns whether the node id is registered.
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over `(id, spec)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeSpec)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::new(i as u32), n))
    }

    /// All node ids in order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId::new(i as u32))
    }

    /// Aggregate CPU capacity of the cluster.
    pub fn total_cpu(&self) -> CpuSpeed {
        self.nodes.iter().map(NodeSpec::cpu_capacity).sum()
    }

    /// Aggregate memory capacity of the cluster.
    pub fn total_memory(&self) -> Memory {
        self.nodes.iter().map(NodeSpec::memory_capacity).sum()
    }
}

/// The set of applications known to the placement controller.
///
/// Applications receive dense [`AppId`]s in registration order. In
/// lock-step simulations completed jobs stay registered (their ids
/// remain valid in historical records) but are excluded from placement
/// by the caller. Constant-memory streaming runs instead [`retire`]
/// finished applications, freeing their slots for reuse; [`add`] hands
/// out the smallest free id first so the id space stays dense no matter
/// how many applications pass through over a run's lifetime.
///
/// [`retire`]: AppSet::retire
/// [`add`]: AppSet::add
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AppSet {
    apps: Vec<Option<ApplicationSpec>>,
    /// Vacant slot indices (retired ids), kept sorted so reuse is
    /// deterministic: the smallest free id is always handed out first.
    free: std::collections::BTreeSet<u32>,
    live: usize,
}

impl AppSet {
    /// Creates an empty application set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The id the next [`AppSet::add`] call will hand out.
    pub fn peek_next_id(&self) -> AppId {
        match self.free.iter().next() {
            Some(&slot) => AppId::new(slot),
            None => AppId::new(self.apps.len() as u32),
        }
    }

    /// Registers an application and returns its id (the smallest free
    /// slot, or a fresh one at the end).
    pub fn add(&mut self, spec: ApplicationSpec) -> AppId {
        match self.free.pop_first() {
            Some(slot) => {
                self.apps[slot as usize] = Some(spec);
                self.live += 1;
                AppId::new(slot)
            }
            None => {
                let id = AppId::new(self.apps.len() as u32);
                self.apps.push(Some(spec));
                self.live += 1;
                id
            }
        }
    }

    /// Registers an application under a caller-chosen id, growing the
    /// slot table as needed. Replaces any previous occupant.
    pub fn insert_at(&mut self, id: AppId, spec: ApplicationSpec) {
        let idx = id.index();
        if idx >= self.apps.len() {
            for vacant in self.apps.len()..idx {
                self.free.insert(vacant as u32);
            }
            self.apps.resize_with(idx + 1, || None);
        }
        if self.apps[idx].replace(spec).is_none() {
            self.live += 1;
        }
        self.free.remove(&(idx as u32));
    }

    /// Reserves ids `0..count` for later [`AppSet::insert_at`] calls:
    /// grows the slot table without marking the empty slots free, so
    /// [`AppSet::add`] / [`AppSet::peek_next_id`] skip past them. Lets a
    /// workload source pre-assign a block of ids while the engine keeps
    /// assigning fresh ids above the block.
    pub fn reserve(&mut self, count: u32) {
        if count as usize > self.apps.len() {
            self.apps.resize_with(count as usize, || None);
        }
    }

    /// Unregisters an application, freeing its id for reuse by a later
    /// [`AppSet::add`]. Returns the removed spec, or `None` if the id
    /// was not registered.
    pub fn retire(&mut self, id: AppId) -> Option<ApplicationSpec> {
        let slot = self.apps.get_mut(id.index())?;
        let spec = slot.take()?;
        self.live -= 1;
        self.free.insert(id.index() as u32);
        Some(spec)
    }

    /// Looks up an application.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownApp`] if the id is not registered.
    pub fn get(&self, id: AppId) -> Result<&ApplicationSpec, ModelError> {
        self.apps
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(ModelError::UnknownApp(id))
    }

    /// Returns whether the application id is registered.
    pub fn contains(&self, id: AppId) -> bool {
        matches!(self.apps.get(id.index()), Some(Some(_)))
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no applications are registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterates over `(id, spec)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &ApplicationSpec)> {
        self.apps
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|a| (AppId::new(i as u32), a)))
    }

    /// All application ids in order.
    pub fn app_ids(&self) -> impl Iterator<Item = AppId> + '_ {
        self.iter().map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> NodeSpec {
        NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(2_000.0)).unwrap()
    }

    #[test]
    fn dense_ids_in_registration_order() {
        let mut cluster = Cluster::new();
        let a = cluster.add_node(node());
        let b = cluster.add_node(node());
        assert_eq!(a, NodeId::new(0));
        assert_eq!(b, NodeId::new(1));
        assert!(cluster.contains(b));
        assert!(!cluster.contains(NodeId::new(2)));
        assert!(cluster.node(NodeId::new(2)).is_err());
    }

    #[test]
    fn homogeneous_builds_identical_nodes() {
        let cluster = Cluster::homogeneous(4, node());
        assert_eq!(cluster.len(), 4);
        assert_eq!(cluster.total_cpu(), CpuSpeed::from_mhz(4_000.0));
        assert_eq!(cluster.total_memory(), Memory::from_mb(8_000.0));
        assert_eq!(cluster.node_ids().count(), 4);
    }

    #[test]
    fn empty_cluster() {
        let cluster = Cluster::new();
        assert!(cluster.is_empty());
        assert_eq!(cluster.total_cpu(), CpuSpeed::ZERO);
        assert!(cluster.dims().is_memory_only());
    }

    #[test]
    fn dims_registry_and_rigid_totals() {
        use crate::resources::{ResourceDims, Resources};
        let mut cluster = Cluster::new()
            .with_dims(ResourceDims::with_extra(["disk_mb", "license_slots"]).unwrap());
        cluster.add_node(
            NodeSpec::try_with_resources(
                CpuSpeed::from_mhz(1_000.0),
                Resources::new(vec![2_000.0, 500.0, 2.0]),
            )
            .unwrap(),
        );
        cluster.add_node(node()); // memory-only node: zero extra capacity
        assert_eq!(cluster.dims().len(), 3);
        assert_eq!(cluster.total_rigid().values(), &[4_000.0, 500.0, 2.0]);
        assert_eq!(cluster.total_memory(), Memory::from_mb(4_000.0));
    }

    #[test]
    fn app_set_round_trips() {
        let mut apps = AppSet::new();
        let id = apps.add(ApplicationSpec::batch(
            Memory::from_mb(750.0),
            CpuSpeed::from_mhz(500.0),
        ));
        assert_eq!(id, AppId::new(0));
        assert_eq!(
            apps.get(id).unwrap().memory_per_instance(),
            Memory::from_mb(750.0)
        );
        assert!(apps.get(AppId::new(1)).is_err());
        assert_eq!(apps.iter().count(), 1);
        assert!(!apps.is_empty());
    }

    fn batch_app(mb: f64) -> ApplicationSpec {
        ApplicationSpec::batch(Memory::from_mb(mb), CpuSpeed::from_mhz(500.0))
    }

    #[test]
    fn retire_frees_smallest_id_first() {
        let mut apps = AppSet::new();
        let a = apps.add(batch_app(100.0));
        let b = apps.add(batch_app(200.0));
        let c = apps.add(batch_app(300.0));
        assert_eq!(apps.peek_next_id(), AppId::new(3));
        assert!(apps.retire(c).is_some());
        assert!(apps.retire(a).is_some());
        assert_eq!(apps.len(), 1);
        assert!(!apps.contains(a));
        assert!(apps.get(a).is_err());
        assert!(apps.contains(b));
        // Smallest free slot (0) is reused before slot 2.
        assert_eq!(apps.peek_next_id(), AppId::new(0));
        assert_eq!(apps.add(batch_app(400.0)), AppId::new(0));
        assert_eq!(apps.peek_next_id(), AppId::new(2));
        assert_eq!(apps.add(batch_app(500.0)), AppId::new(2));
        assert_eq!(apps.peek_next_id(), AppId::new(3));
        // Retiring an unknown id is a no-op.
        assert!(apps.retire(AppId::new(9)).is_none());
        let ids: Vec<AppId> = apps.app_ids().collect();
        assert_eq!(ids, vec![AppId::new(0), AppId::new(1), AppId::new(2)]);
    }

    #[test]
    fn insert_at_grows_and_tracks_vacancies() {
        let mut apps = AppSet::new();
        apps.insert_at(AppId::new(2), batch_app(100.0));
        assert_eq!(apps.len(), 1);
        assert!(apps.contains(AppId::new(2)));
        assert!(!apps.contains(AppId::new(0)));
        // The skipped slots are free and handed out smallest-first.
        assert_eq!(apps.peek_next_id(), AppId::new(0));
        assert_eq!(apps.add(batch_app(200.0)), AppId::new(0));
        assert_eq!(apps.add(batch_app(300.0)), AppId::new(1));
        assert_eq!(apps.add(batch_app(400.0)), AppId::new(3));
        // Replacing an occupied slot keeps the count stable.
        apps.insert_at(AppId::new(2), batch_app(900.0));
        assert_eq!(apps.len(), 4);
    }

    #[test]
    fn reserve_keeps_fresh_ids_above_the_block() {
        let mut apps = AppSet::new();
        apps.reserve(3);
        // Reserved slots are empty but not free: fresh ids start above.
        assert_eq!(apps.len(), 0);
        assert_eq!(apps.peek_next_id(), AppId::new(3));
        assert_eq!(apps.add(batch_app(100.0)), AppId::new(3));
        // The reserved block is still available for explicit placement,
        // and retiring a reserved id returns it to the free pool.
        apps.insert_at(AppId::new(1), batch_app(200.0));
        assert_eq!(apps.len(), 2);
        apps.retire(AppId::new(1));
        assert_eq!(apps.peek_next_id(), AppId::new(1));
    }
}
