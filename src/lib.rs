//! # dynaplace
//!
//! Dynamic application placement for mixed transactional and batch
//! workloads — a full Rust reproduction of *Carrera, Steinder, Whalley,
//! Torres, Ayguadé: "Enabling Resource Sharing between Transactional and
//! Batch Workloads Using Dynamic Application Placement" (Middleware
//! 2008)*.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`model`] | `dynaplace-model` | typed units, cluster, placement & load matrices |
//! | [`solver`] | `dynaplace-solver` | max-flow, bisection, piecewise-linear, least squares |
//! | [`rpf`] | `dynaplace-rpf` | relative performance functions and the max-min objective |
//! | [`txn`] | `dynaplace-txn` | queueing model, request router, work profiler |
//! | [`batch`] | `dynaplace-batch` | job model, hypothetical RPF, FCFS/EDF baselines |
//! | [`apc`] | `dynaplace-apc` | the placement controller (the paper's contribution) |
//! | [`sim`] | `dynaplace-sim` | discrete-event simulator and experiment scenarios |
//! | [`trace`] | `dynaplace-trace` | decision-provenance tracing (events, sinks, levels) |
//!
//! # Quick taste
//!
//! Place one queued job on an idle node:
//!
//! ```
//! use std::collections::BTreeMap;
//! use std::sync::Arc;
//! use dynaplace::prelude::*;
//!
//! let mut cluster = Cluster::new();
//! let node = cluster.add_node(NodeSpec::try_new(
//!     CpuSpeed::from_mhz(1_000.0),
//!     Memory::from_mb(2_000.0),
//! ).expect("valid node capacities"));
//! let mut apps = AppSet::new();
//! let job = apps.add(ApplicationSpec::batch(
//!     Memory::from_mb(750.0),
//!     CpuSpeed::from_mhz(1_000.0),
//! ));
//! let mut workloads = BTreeMap::new();
//! workloads.insert(
//!     job,
//!     WorkloadModel::Batch(JobSnapshot::new(
//!         job,
//!         CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(20.0)),
//!         Arc::new(JobProfile::single_stage(
//!             Work::from_mcycles(4_000.0),
//!             CpuSpeed::from_mhz(1_000.0),
//!             Memory::from_mb(750.0),
//!         )),
//!         Work::ZERO,
//!         SimDuration::from_secs(1.0),
//!     )),
//! );
//! let current = Placement::new();
//! let problem = PlacementProblem::new(
//!     &cluster,
//!     &apps,
//!     workloads,
//!     &current,
//!     SimTime::ZERO,
//!     SimDuration::from_secs(1.0),
//!     Default::default(),
//! )
//! .expect("well-formed problem");
//! let outcome = place(&problem, &ApcConfig::default());
//! assert_eq!(outcome.placement.count(job, node), 1);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dynaplace_apc as apc;
pub use dynaplace_batch as batch;
pub use dynaplace_model as model;
pub use dynaplace_rpf as rpf;
pub use dynaplace_sim as sim;
pub use dynaplace_solver as solver;
pub use dynaplace_trace as trace;
pub use dynaplace_txn as txn;

/// One blessed import for controller users.
///
/// Every public type needed to pose a placement problem and read the
/// answer, under exactly one path. Deep module paths
/// (`dynaplace::apc::optimizer::...`) keep working, but new code should
/// start with `use dynaplace::prelude::*;`.
pub mod prelude {
    pub use dynaplace_apc::{
        fill_only, fill_only_traced, place, place_traced, score_placement, ApcConfig,
        ApcConfigBuilder, ConfigError, Objective, OptimizerStats, PlacementOutcome,
        PlacementProblem, PlacementScore, ProblemError, ScoringMode, ShardingPolicy, WorkloadModel,
    };
    pub use dynaplace_apc::{
        policy_handles, policy_names, register_policy, resolve_policy, ApcPolicy, PlacementPolicy,
        PolicyClass, PolicyHandle,
    };
    pub use dynaplace_batch::hypothetical::JobSnapshot;
    pub use dynaplace_batch::job::{JobProfile, JobSpec, JobStage};
    pub use dynaplace_model::prelude::*;
    pub use dynaplace_rpf::goal::CompletionGoal;
    pub use dynaplace_sim::costs::VmCostModel;
    pub use dynaplace_sim::engine::{SimConfig, Simulation};
    pub use dynaplace_sim::spec::{ScenarioSpec, ShardingSpec};
    pub use dynaplace_trace::{JsonlSink, NoopSink, TraceEvent, TraceLevel, TraceSink};
    pub use dynaplace_txn::model::TxnPerformanceModel;
}
