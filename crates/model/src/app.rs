//! Application descriptors: the placement-relevant facts about a workload.
//!
//! Both transactional web applications and long-running batch jobs are
//! "applications" to the placement controller (§3.2). This module captures
//! only what placement needs: memory footprint, instance-count limits,
//! per-instance speed bounds, and placement constraints. Workload-specific
//! performance models live in the `dynaplace-txn` and `dynaplace-batch`
//! crates.

use std::collections::BTreeSet;
use std::fmt;

use crate::ids::NodeId;
use crate::resources::Resources;
use crate::units::{CpuSpeed, Memory};

/// The broad class of a workload, which determines which performance model
/// drives its relative performance function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Interactive request/response workload with a response-time goal.
    Transactional,
    /// Long-running job with a completion-time goal.
    Batch,
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadKind::Transactional => f.write_str("transactional"),
            WorkloadKind::Batch => f.write_str("batch"),
        }
    }
}

/// Anti-affinity group label: two applications carrying the same group may
/// never share a node (a form of the paper's "collocation constraints").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AntiAffinityGroup(pub u32);

impl Ord for AntiAffinityGroup {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for AntiAffinityGroup {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Static placement-relevant description of one application.
///
/// Built with [`ApplicationSpec::transactional`] or
/// [`ApplicationSpec::batch`] and refined with the `with_*` methods:
///
/// ```
/// use dynaplace_model::app::ApplicationSpec;
/// use dynaplace_model::units::{CpuSpeed, Memory};
///
/// let spec = ApplicationSpec::batch(Memory::from_mb(4_320.0), CpuSpeed::from_mhz(3_900.0))
///     .with_name("portfolio-analysis");
/// assert_eq!(spec.max_instances(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ApplicationSpec {
    name: Option<String>,
    kind: WorkloadKind,
    /// Load-independent demand: the rigid resources consumed by each
    /// started instance (dimension 0 = memory MB, further dimensions per
    /// the deployment's [`ResourceDims`](crate::resources::ResourceDims)).
    rigid_per_instance: Resources,
    /// Maximum number of concurrently running instances.
    max_instances: u32,
    /// Lowest speed an instance may run at whenever it runs.
    min_instance_speed: CpuSpeed,
    /// Highest speed a single instance can consume.
    max_instance_speed: CpuSpeed,
    /// If set, instances may only be placed on these nodes (pinning).
    allowed_nodes: Option<BTreeSet<NodeId>>,
    /// If set, this application refuses to share a node with any other
    /// application in the same group.
    anti_affinity: Option<AntiAffinityGroup>,
}

impl ApplicationSpec {
    /// Creates a transactional application that can be replicated on up to
    /// `max_instances` nodes, each instance able to consume up to
    /// `max_instance_speed`.
    ///
    /// # Panics
    ///
    /// Panics if `max_instances` is zero or any magnitude is negative.
    pub fn transactional(
        memory_per_instance: Memory,
        max_instance_speed: CpuSpeed,
        max_instances: u32,
    ) -> Self {
        assert!(max_instances > 0, "max_instances must be positive");
        Self::validate_magnitudes(memory_per_instance, CpuSpeed::ZERO, max_instance_speed);
        Self {
            name: None,
            kind: WorkloadKind::Transactional,
            rigid_per_instance: Resources::memory_only(memory_per_instance),
            max_instances,
            min_instance_speed: CpuSpeed::ZERO,
            max_instance_speed,
            allowed_nodes: None,
            anti_affinity: None,
        }
    }

    /// Creates a batch job: exactly one instance, able to run at up to
    /// `max_speed`.
    ///
    /// # Panics
    ///
    /// Panics if any magnitude is negative.
    pub fn batch(memory_per_instance: Memory, max_speed: CpuSpeed) -> Self {
        Self::batch_parallel(memory_per_instance, max_speed, 1)
    }

    /// Creates a *malleable parallel* batch job: up to `tasks` concurrent
    /// task instances, each pinning `memory_per_task` and running at up
    /// to `per_task_speed`; the job's progress rate is the sum of its
    /// placed tasks' speeds. (The paper lists parallel jobs as future
    /// work; see DESIGN.md.)
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is zero or any magnitude is negative.
    pub fn batch_parallel(memory_per_task: Memory, per_task_speed: CpuSpeed, tasks: u32) -> Self {
        assert!(tasks > 0, "tasks must be positive");
        Self::validate_magnitudes(memory_per_task, CpuSpeed::ZERO, per_task_speed);
        Self {
            name: None,
            kind: WorkloadKind::Batch,
            rigid_per_instance: Resources::memory_only(memory_per_task),
            max_instances: tasks,
            min_instance_speed: CpuSpeed::ZERO,
            max_instance_speed: per_task_speed,
            allowed_nodes: None,
            anti_affinity: None,
        }
    }

    fn validate_magnitudes(memory: Memory, min_speed: CpuSpeed, max_speed: CpuSpeed) {
        assert!(memory.as_mb() >= 0.0, "memory demand must be non-negative");
        assert!(
            min_speed.as_mhz() >= 0.0 && max_speed.as_mhz() >= 0.0,
            "speeds must be non-negative"
        );
        assert!(
            min_speed <= max_speed,
            "min instance speed must not exceed max instance speed"
        );
    }

    /// Attaches a human-readable name (used only in diagnostics).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the minimum speed an instance must receive whenever it runs
    /// (the paper's `ω_min`).
    ///
    /// # Panics
    ///
    /// Panics if `min_speed` exceeds the maximum instance speed.
    #[must_use]
    pub fn with_min_instance_speed(mut self, min_speed: CpuSpeed) -> Self {
        Self::validate_magnitudes(
            self.rigid_per_instance.memory(),
            min_speed,
            self.max_instance_speed,
        );
        self.min_instance_speed = min_speed;
        self
    }

    /// Declares per-instance demand in rigid dimensions beyond memory
    /// (`extra[0]` is dimension 1 of the deployment's
    /// [`ResourceDims`](crate::resources::ResourceDims), and so on). The
    /// memory demand set by the constructor is preserved.
    ///
    /// # Panics
    ///
    /// Panics if any demand is negative or non-finite.
    #[must_use]
    pub fn with_extra_rigid_demand(mut self, extra: impl IntoIterator<Item = f64>) -> Self {
        let mut values = vec![self.rigid_per_instance.memory().as_mb()];
        values.extend(extra);
        let rigid = Resources::new(values);
        assert!(
            rigid.first_negative().is_none() && rigid.all_finite(),
            "rigid demands must be non-negative and finite"
        );
        self.rigid_per_instance = rigid;
        self
    }

    /// Restricts placement to the given nodes (application pinning).
    #[must_use]
    pub fn with_allowed_nodes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.allowed_nodes = Some(nodes.into_iter().collect());
        self
    }

    /// Declares the application a member of an anti-affinity group.
    #[must_use]
    pub fn with_anti_affinity(mut self, group: AntiAffinityGroup) -> Self {
        self.anti_affinity = Some(group);
        self
    }

    /// The diagnostic name, if one was set.
    #[inline]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The workload class of this application.
    #[inline]
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Memory consumed by each started instance (the paper's
    /// load-independent demand; rigid dimension 0).
    #[inline]
    pub fn memory_per_instance(&self) -> Memory {
        self.rigid_per_instance.memory()
    }

    /// The full rigid per-instance demand vector.
    #[inline]
    pub fn rigid_per_instance(&self) -> &Resources {
        &self.rigid_per_instance
    }

    /// Maximum number of concurrently running instances.
    #[inline]
    pub fn max_instances(&self) -> u32 {
        self.max_instances
    }

    /// Lowest speed an instance may run at whenever it runs.
    #[inline]
    pub fn min_instance_speed(&self) -> CpuSpeed {
        self.min_instance_speed
    }

    /// Highest speed a single instance can consume.
    #[inline]
    pub fn max_instance_speed(&self) -> CpuSpeed {
        self.max_instance_speed
    }

    /// Nodes this application is pinned to, if restricted.
    #[inline]
    pub fn allowed_nodes(&self) -> Option<&BTreeSet<NodeId>> {
        self.allowed_nodes.as_ref()
    }

    /// Returns whether this application may be placed on `node`.
    #[inline]
    pub fn allows_node(&self, node: NodeId) -> bool {
        self.allowed_nodes
            .as_ref()
            .map_or(true, |set| set.contains(&node))
    }

    /// The anti-affinity group, if any.
    #[inline]
    pub fn anti_affinity(&self) -> Option<AntiAffinityGroup> {
        self.anti_affinity
    }

    /// Returns whether this application may share a node with `other`.
    pub fn may_share_node_with(&self, other: &ApplicationSpec) -> bool {
        match (self.anti_affinity, other.anti_affinity) {
            (Some(a), Some(b)) => a != b,
            _ => true,
        }
    }
}

impl fmt::Display for ApplicationSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = self.name.as_deref().unwrap_or("app");
        write!(
            f,
            "{name} ({}, mem {}, ≤{} inst, speed {}..{})",
            self.kind,
            self.rigid_per_instance.memory(),
            self.max_instances,
            self.min_instance_speed,
            self.max_instance_speed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_is_single_instance() {
        let spec = ApplicationSpec::batch(Memory::from_mb(750.0), CpuSpeed::from_mhz(500.0));
        assert_eq!(spec.kind(), WorkloadKind::Batch);
        assert_eq!(spec.max_instances(), 1);
        assert_eq!(spec.max_instance_speed(), CpuSpeed::from_mhz(500.0));
    }

    #[test]
    fn transactional_replicates() {
        let spec = ApplicationSpec::transactional(
            Memory::from_mb(2_000.0),
            CpuSpeed::from_mhz(15_600.0),
            25,
        );
        assert_eq!(spec.kind(), WorkloadKind::Transactional);
        assert_eq!(spec.max_instances(), 25);
    }

    #[test]
    fn pinning_restricts_nodes() {
        let spec = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(1.0))
            .with_allowed_nodes([NodeId::new(1), NodeId::new(3)]);
        assert!(spec.allows_node(NodeId::new(1)));
        assert!(!spec.allows_node(NodeId::new(0)));
    }

    #[test]
    fn unpinned_allows_everything() {
        let spec = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(1.0));
        assert!(spec.allows_node(NodeId::new(42)));
    }

    #[test]
    fn anti_affinity_blocks_same_group_only() {
        let g = AntiAffinityGroup(7);
        let a = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(1.0)).with_anti_affinity(g);
        let b = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(1.0)).with_anti_affinity(g);
        let c = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(1.0))
            .with_anti_affinity(AntiAffinityGroup(8));
        let free = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(1.0));
        assert!(!a.may_share_node_with(&b));
        assert!(a.may_share_node_with(&c));
        assert!(a.may_share_node_with(&free));
        assert!(free.may_share_node_with(&b));
    }

    #[test]
    fn min_speed_validated() {
        let spec = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(500.0))
            .with_min_instance_speed(CpuSpeed::from_mhz(100.0));
        assert_eq!(spec.min_instance_speed(), CpuSpeed::from_mhz(100.0));
    }

    #[test]
    #[should_panic(expected = "min instance speed must not exceed max")]
    fn min_speed_above_max_rejected() {
        let _ = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(500.0))
            .with_min_instance_speed(CpuSpeed::from_mhz(501.0));
    }

    #[test]
    #[should_panic(expected = "max_instances must be positive")]
    fn zero_instances_rejected() {
        let _ = ApplicationSpec::transactional(Memory::ZERO, CpuSpeed::from_mhz(1.0), 0);
    }

    #[test]
    fn extra_rigid_demand_preserves_memory() {
        let spec = ApplicationSpec::batch(Memory::from_mb(750.0), CpuSpeed::from_mhz(500.0))
            .with_extra_rigid_demand([40.0, 1.0]);
        assert_eq!(spec.memory_per_instance(), Memory::from_mb(750.0));
        assert_eq!(spec.rigid_per_instance().get(1), 40.0);
        assert_eq!(spec.rigid_per_instance().get(2), 1.0);
        assert_eq!(spec.rigid_per_instance().get(3), 0.0);
    }

    #[test]
    fn default_rigid_demand_is_memory_only() {
        let spec = ApplicationSpec::batch(Memory::from_mb(10.0), CpuSpeed::from_mhz(1.0));
        assert_eq!(spec.rigid_per_instance().len(), 1);
    }

    #[test]
    #[should_panic(expected = "rigid demands must be non-negative")]
    fn negative_extra_rigid_demand_rejected() {
        let _ = ApplicationSpec::batch(Memory::ZERO, CpuSpeed::from_mhz(1.0))
            .with_extra_rigid_demand([-1.0]);
    }
}
