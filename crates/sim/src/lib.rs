//! Discrete-event cluster simulator for mixed transactional and batch
//! workloads.
//!
//! Reproduces the evaluation environment of the paper's §5: a
//! virtualized cluster whose placement is driven by any
//! [`dynaplace_apc::PlacementPolicy`] — the Application Placement
//! Controller, the reservation baselines (FCFS, EDF, static partition),
//! or a policy resolved from the registry by name — with VM control
//! operations (boot, suspend, resume, migrate) charged at the latencies
//! the paper measured.
//!
//! - [`engine::Simulation`] — the event-driven simulator;
//! - [`costs::VmCostModel`] — the §5 cost model;
//! - [`actuation`] — the fallible actuation layer (failure/backoff/quarantine);
//! - [`observe`] — the imperfect-telemetry observation layer
//!   (heartbeats, node-health hysteresis, demand estimation);
//! - [`scenario`] — builders for the §4.3 example and Experiments 1–3;
//! - [`metrics::RunMetrics`] — everything the paper's figures plot.
//!
//! # Example
//!
//! ```
//! use dynaplace_sim::engine::SimConfig;
//! use dynaplace_sim::scenario::{paper_example, ExampleScenario};
//! use dynaplace_sim::costs::VmCostModel;
//! use dynaplace_apc::optimizer::ApcConfig;
//! use dynaplace_apc::PolicyHandle;
//! use dynaplace_model::units::SimDuration;
//!
//! let config = SimConfig {
//!     cycle: SimDuration::from_secs(1.0),
//!     horizon: Some(SimDuration::from_secs(60.0)),
//!     costs: VmCostModel::free(),
//!     scheduler: PolicyHandle::apc_with(ApcConfig::paper_narrative(), false),
//!     batch_nodes: None,
//!     static_txn_nodes: None,
//!     noise: dynaplace_sim::engine::EstimationNoise::NONE,
//!     profile_from_history: false,
//!     node_failures: Vec::new(),
//!     estimate_txn_demand: false,
//!     record_placements: false,
//!     actuation: dynaplace_sim::actuation::ActuationConfig::default(),
//!     observation: dynaplace_sim::observe::ObservationConfig::default(),
//!     trace: dynaplace_trace::TraceConfig::default(),
//!     retention: dynaplace_sim::engine::MetricsRetention::Full,
//! };
//! let metrics = paper_example(ExampleScenario::S2, config).run();
//! assert_eq!(metrics.completions.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actuation;
pub mod costs;
pub mod engine;
pub mod events;
pub mod metrics;
pub mod observe;
pub mod scenario;
pub mod source;
pub mod spec;

pub use actuation::{ActuationConfig, ActuationState, OpOutcome};
pub use costs::{VmCostModel, VmOperation};
pub use engine::{MetricsRetention, NodeOutage, SimConfig, Simulation};
pub use metrics::{
    ActuationCounters, ChangeCounters, CompletionRecord, CycleSample, ObservationCounters,
    RunMetrics,
};
pub use observe::{DegradedMode, NodeHealth, ObservationConfig, ObservationState};
pub use scenario::{
    experiment_one, experiment_three, experiment_two, paper_example, ExampleScenario, SharingConfig,
};
pub use source::{
    ArrivalProcess, GenerativeSource, GoalSubmission, JobSubmission, JobTemplate, MergedSource,
    ScenarioSource, Submission, TxnSubmission, WorkloadSource,
};
pub use spec::{ScenarioError, ScenarioSpec, TraceSpec};

pub use dynaplace_trace::{JsonlSink, NoopSink, TraceConfig, TraceEvent, TraceLevel, TraceSink};
