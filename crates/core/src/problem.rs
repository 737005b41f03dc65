//! The input to one control cycle of the placement controller.

use std::collections::{BTreeMap, BTreeSet};

use dynaplace_batch::hypothetical::JobSnapshot;
use dynaplace_model::cluster::{AppSet, Cluster};
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::placement::Placement;
use dynaplace_model::resources::{ResourceDims, Resources};
use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime};
use dynaplace_txn::model::TxnPerformanceModel;

/// The workload-specific performance model of one live application.
#[derive(Debug, Clone)]
pub enum WorkloadModel {
    /// A transactional application scored by the queueing model (§3.3).
    Transactional(TxnPerformanceModel),
    /// A batch job scored through the hypothetical relative performance
    /// of the whole batch workload (§4.2).
    Batch(JobSnapshot),
}

impl WorkloadModel {
    /// Whether this is a batch job.
    pub fn is_batch(&self) -> bool {
        matches!(self, WorkloadModel::Batch(_))
    }

    /// The batch snapshot, if this is a batch job.
    pub fn as_batch(&self) -> Option<&JobSnapshot> {
        match self {
            WorkloadModel::Batch(snap) => Some(snap),
            WorkloadModel::Transactional(_) => None,
        }
    }

    /// The transactional model, if this is a transactional application.
    pub fn as_transactional(&self) -> Option<&TxnPerformanceModel> {
        match self {
            WorkloadModel::Transactional(m) => Some(m),
            WorkloadModel::Batch(_) => None,
        }
    }
}

/// A structural defect in a [`PlacementProblem`], reported by the
/// validating constructor and the `try_` accessors instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemError {
    /// The application is not live this cycle (absent from `workloads`).
    UnknownApp {
        /// The offending application.
        app: AppId,
    },
    /// The application is referenced (by `workloads` or the current
    /// placement) but missing from the [`AppSet`] registry.
    UnregisteredApp {
        /// The offending application.
        app: AppId,
    },
    /// The current placement hosts an instance on a node the cluster
    /// does not contain.
    UnknownNode {
        /// The application whose instance dangles.
        app: AppId,
        /// The unknown node.
        node: NodeId,
    },
    /// A node or application declares more rigid resource dimensions
    /// than the cluster's [`ResourceDims`] registry — its vector cannot
    /// be interpreted. (Vectors *shorter* than the registry are fine:
    /// they zero-extend.)
    DimensionMismatch {
        /// The offending node, when a node's capacity vector is at fault.
        node: Option<NodeId>,
        /// The offending application, when a demand vector is at fault.
        app: Option<AppId>,
        /// Dimensions the cluster registry declares.
        expected: usize,
        /// Dimensions the offender's vector carries.
        found: usize,
    },
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::UnknownApp { app } => {
                write!(f, "application {app} is not live this cycle")
            }
            ProblemError::UnregisteredApp { app } => {
                write!(f, "application {app} is not registered in the AppSet")
            }
            ProblemError::UnknownNode { app, node } => {
                write!(f, "application {app} is placed on unknown node {node}")
            }
            ProblemError::DimensionMismatch {
                node,
                app,
                expected,
                found,
            } => {
                let offender: &dyn std::fmt::Display = match (node, app) {
                    (Some(n), _) => n,
                    (_, Some(a)) => a,
                    _ => &"unknown offender",
                };
                write!(
                    f,
                    "{offender} declares {found} rigid dimensions but the cluster registry has {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ProblemError {}

/// Everything the placement controller needs for one control cycle:
/// the cluster, the registry of application specs, the live applications
/// with their performance models, the current placement, and the cycle
/// timing.
///
/// Applications present in `apps` but absent from `workloads` (e.g.
/// completed jobs) are ignored. The current placement may still hold
/// instances of such non-live applications — they are treated as
/// to-be-stopped — but every placed application must be registered and
/// every hosting node must exist; [`PlacementProblem::new`] checks both
/// up front.
#[derive(Debug, Clone)]
pub struct PlacementProblem<'a> {
    /// The set of physical machines.
    pub cluster: &'a Cluster,
    /// Static application specs (memory, instance limits, constraints).
    pub apps: &'a AppSet,
    /// Per-application performance models; the key set defines which
    /// applications are live this cycle.
    pub workloads: BTreeMap<AppId, WorkloadModel>,
    /// The placement currently in effect.
    pub current: &'a Placement,
    /// The instant the cycle starts at.
    pub now: SimTime,
    /// The control cycle length `T`.
    pub cycle: SimDuration,
    /// (app, node) pairs the optimizer must not place instances on this
    /// cycle — the actuation layer's quarantine list (pairs whose VM
    /// operations failed repeatedly). Instances already running on a
    /// forbidden pair are left alone; only *new* starts are routed
    /// around. Empty in the common case.
    pub forbidden: BTreeSet<(AppId, NodeId)>,
}

impl<'a> PlacementProblem<'a> {
    /// Builds a problem after validating its cross-references:
    /// every live application (key of `workloads`) must be registered in
    /// `apps`, and every instance of `current` must reference a
    /// registered application on a node `cluster` contains. Instances of
    /// registered but non-live applications are permitted — the
    /// optimizer treats them as to-be-stopped.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cluster: &'a Cluster,
        apps: &'a AppSet,
        workloads: BTreeMap<AppId, WorkloadModel>,
        current: &'a Placement,
        now: SimTime,
        cycle: SimDuration,
        forbidden: BTreeSet<(AppId, NodeId)>,
    ) -> Result<Self, ProblemError> {
        let dims = cluster.dims().len();
        for (node, spec) in cluster.iter() {
            let found = spec.rigid_capacity().len();
            if found > dims {
                return Err(ProblemError::DimensionMismatch {
                    node: Some(node),
                    app: None,
                    expected: dims,
                    found,
                });
            }
        }
        let check_app_dims = |app: AppId| -> Result<(), ProblemError> {
            let Ok(spec) = apps.get(app) else {
                return Err(ProblemError::UnregisteredApp { app });
            };
            let found = spec.rigid_per_instance().len();
            if found > dims {
                return Err(ProblemError::DimensionMismatch {
                    node: None,
                    app: Some(app),
                    expected: dims,
                    found,
                });
            }
            Ok(())
        };
        for &app in workloads.keys() {
            if !apps.contains(app) {
                return Err(ProblemError::UnregisteredApp { app });
            }
            check_app_dims(app)?;
        }
        for (app, node, count) in current.iter() {
            if count == 0 {
                continue;
            }
            if !apps.contains(app) {
                return Err(ProblemError::UnregisteredApp { app });
            }
            if !cluster.contains(node) {
                return Err(ProblemError::UnknownNode { app, node });
            }
            check_app_dims(app)?;
        }
        Ok(Self {
            cluster,
            apps,
            workloads,
            current,
            now,
            cycle,
            forbidden,
        })
    }

    /// Live application ids, in id order.
    pub fn live_apps(&self) -> impl Iterator<Item = AppId> + '_ {
        self.workloads.keys().copied()
    }

    /// Number of live applications.
    pub fn live_count(&self) -> usize {
        self.workloads.len()
    }

    /// The memory one instance of `app` pins right now (the job's current
    /// stage for batch, the static spec otherwise).
    pub fn try_effective_memory(&self, app: AppId) -> Result<Memory, ProblemError> {
        match self
            .workloads
            .get(&app)
            .ok_or(ProblemError::UnknownApp { app })?
        {
            WorkloadModel::Batch(snap) => Ok(snap
                .profile()
                .stage_at(snap.consumed())
                .map(|(s, _)| s.memory())
                .unwrap_or(Memory::ZERO)),
            WorkloadModel::Transactional(_) => Ok(self
                .apps
                .get(app)
                .map_err(|_| ProblemError::UnregisteredApp { app })?
                .memory_per_instance()),
        }
    }

    /// The cluster's rigid-dimension registry (dimension 0 is always
    /// memory).
    pub fn rigid_dims(&self) -> &ResourceDims {
        self.cluster.dims()
    }

    /// The full rigid demand vector one instance of `app` pins right now:
    /// dimension 0 is the effective memory (the job's current stage for
    /// batch, the static spec otherwise) and every extra dimension comes
    /// from the static spec — extra demands do not vary by stage.
    pub fn try_effective_rigid(&self, app: AppId) -> Result<Resources, ProblemError> {
        let spec = self
            .apps
            .get(app)
            .map_err(|_| ProblemError::UnregisteredApp { app })?;
        match self
            .workloads
            .get(&app)
            .ok_or(ProblemError::UnknownApp { app })?
        {
            WorkloadModel::Batch(snap) => {
                let memory = snap
                    .profile()
                    .stage_at(snap.consumed())
                    .map(|(s, _)| s.memory())
                    .unwrap_or(Memory::ZERO);
                let mut values = spec.rigid_per_instance().values().to_vec();
                values[0] = memory.as_mb();
                Ok(Resources::new(values))
            }
            WorkloadModel::Transactional(_) => Ok(spec.rigid_per_instance().clone()),
        }
    }

    /// Per-instance speed bounds of `app` right now: the job's current
    /// stage bounds for batch, `[0, spec max]` for transactional.
    pub fn try_effective_speed_bounds(
        &self,
        app: AppId,
    ) -> Result<(CpuSpeed, CpuSpeed), ProblemError> {
        match self
            .workloads
            .get(&app)
            .ok_or(ProblemError::UnknownApp { app })?
        {
            WorkloadModel::Batch(snap) => Ok((snap.min_speed(), snap.max_speed())),
            WorkloadModel::Transactional(_) => {
                let spec = self
                    .apps
                    .get(app)
                    .map_err(|_| ProblemError::UnregisteredApp { app })?;
                Ok((CpuSpeed::ZERO, spec.max_instance_speed()))
            }
        }
    }

    /// Whether `app` may be placed on `node` per its static constraints
    /// (pinning; anti-affinity is checked against a concrete placement)
    /// and this cycle's quarantine list.
    pub fn allows_node(&self, app: AppId, node: NodeId) -> bool {
        if self.forbidden.contains(&(app, node)) {
            return false;
        }
        self.apps
            .get(app)
            .map(|s| s.allows_node(node))
            .unwrap_or(false)
    }
}
