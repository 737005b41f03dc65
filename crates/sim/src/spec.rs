//! Declarative scenario specifications: build a [`Simulation`] from a
//! serializable description instead of code, so experiments can be
//! defined in JSON files and run by the `simulate` harness binary.

use std::borrow::Cow;
use std::collections::BTreeMap;

use dynaplace_json::{json_enum, json_object, FromJson, Json, JsonError, ToJson};

use dynaplace_model::cluster::Cluster;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::node::NodeSpec;
use dynaplace_model::resources::{ResourceDims, Resources};
use dynaplace_model::units::{CpuSpeed, SimDuration, SimTime};

use dynaplace_txn::workload::{ConstantRate, SinusoidPattern, StepPattern};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynaplace_trace::{TraceConfig, TraceLevel};

use dynaplace_apc::policy::registry as policy_registry;
use dynaplace_apc::{PolicyClass, PolicyHandle};

use crate::actuation::ActuationConfig;
use crate::costs::VmCostModel;
use crate::engine::{NodeOutage, SimConfig, Simulation};
use crate::observe::{DegradedMode, ObservationConfig};
use crate::source::{
    ArrivalProcess, GenerativeSource, GoalSubmission, JobSubmission, JobTemplate, MergedSource,
    ScenarioSource, Submission, TxnSubmission, WorkloadSource,
};

/// A group of identical nodes.
#[derive(Debug, Clone)]
pub struct NodeGroupSpec {
    /// How many nodes in this group.
    pub count: usize,
    /// Optional group name (diagnostics and duplicate detection).
    pub name: Option<String>,
    /// CPU capacity per node, MHz.
    pub cpu_mhz: f64,
    /// Memory per node, MB.
    pub memory_mb: f64,
    /// Capacity per node in each *extra* rigid dimension, keyed by the
    /// dimension names [`ScenarioSpec::resources`] declares. Undeclared
    /// names are a load-time error; declared dimensions missing here
    /// default to zero capacity. On the wire the block also accepts
    /// `cpu_mhz` / `memory_mb` entries, which canonicalize to the
    /// dedicated fields above.
    pub resources: BTreeMap<String, f64>,
}

/// How job arrival times are generated.
#[derive(Debug, Clone)]
pub enum ArrivalSpec {
    /// Exponential inter-arrival times with the given mean (seconds).
    Exponential {
        /// Mean inter-arrival time in seconds.
        mean_secs: f64,
    },
    /// Fixed inter-arrival spacing (seconds).
    Periodic {
        /// Spacing in seconds.
        every_secs: f64,
    },
    /// Explicit submission instants (seconds); `count` is ignored beyond
    /// the listed times.
    At(Vec<f64>),
}

/// How a job's deadline is derived.
#[derive(Debug, Clone)]
pub enum GoalSpec {
    /// Deadline = arrival + factor × best execution time (the paper's
    /// relative goal factor).
    Factor(f64),
    /// Deadline = arrival + this many seconds.
    RelativeSecs(f64),
}

/// A group of identical batch jobs.
#[derive(Debug, Clone)]
pub struct JobGroupSpec {
    /// Number of jobs submitted.
    pub count: usize,
    /// Optional group name (diagnostics and duplicate detection; shares
    /// a namespace with [`TxnSpec::name`]).
    pub name: Option<String>,
    /// Total work per job, megacycles.
    pub work_mcycles: f64,
    /// Maximum speed per task, MHz.
    pub max_speed_mhz: f64,
    /// Memory per task, MB.
    pub memory_mb: f64,
    /// Deadline derivation.
    pub goal: GoalSpec,
    /// Arrival process for this group.
    pub arrivals: ArrivalSpec,
    /// Parallel tasks per job (1 = ordinary job).
    pub tasks: u32,
    /// Optional job class tag (for on-the-fly profile estimation).
    pub class: Option<String>,
    /// Per-task demand in each *extra* rigid dimension (beyond memory),
    /// keyed by declared dimension name; missing dimensions demand zero.
    /// The wire block also accepts a `memory_mb` entry, canonicalized to
    /// the dedicated field.
    pub resources: BTreeMap<String, f64>,
}

/// A transactional application.
#[derive(Debug, Clone)]
pub struct TxnSpec {
    /// Optional application name (diagnostics and duplicate detection;
    /// shares a namespace with [`JobGroupSpec::name`]).
    pub name: Option<String>,
    /// Arrival rate, requests per second. A single value means constant;
    /// multiple (time, rate) steps describe a piecewise-constant curve.
    pub rate: RateSpec,
    /// Per-request CPU demand, megacycles.
    pub demand_mcycles: f64,
    /// Response-time floor, seconds.
    pub floor_secs: f64,
    /// Response-time goal, seconds.
    pub goal_secs: f64,
    /// Memory per instance, MB.
    pub memory_mb: f64,
    /// Maximum instances (usually the node count).
    pub max_instances: u32,
    /// Per-instance demand in each *extra* rigid dimension (beyond
    /// memory), keyed by declared dimension name; missing dimensions
    /// demand zero. The wire block also accepts a `memory_mb` entry,
    /// canonicalized to the dedicated field.
    pub resources: BTreeMap<String, f64>,
}

/// Constant or stepped arrival rate.
#[derive(Debug, Clone)]
pub enum RateSpec {
    /// Constant rate.
    Constant(f64),
    /// `(start_secs, rate)` steps, strictly increasing starts.
    Steps(Vec<(f64, f64)>),
}

/// The optional `"workload"` block: generative streaming workload on
/// top of (or instead of) the classic `jobs`/`txns` lists. Streams are
/// drawn lazily by a [`crate::source::GenerativeSource`], so a scenario
/// can describe day-long traces with hundreds of thousands of jobs
/// without ever materializing them.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSpec {
    /// Generated batch job streams.
    pub batch_streams: Vec<BatchStreamSpec>,
    /// Generated transactional applications (registered at time zero).
    pub txn_streams: Vec<TxnStreamSpec>,
}

/// One generated batch stream: an arrival process plus the job template
/// every arrival instantiates.
#[derive(Debug, Clone)]
pub struct BatchStreamSpec {
    /// Optional stream name (diagnostics and duplicate detection; shares
    /// the application namespace with jobs and txns).
    pub name: Option<String>,
    /// The arrival process.
    pub process: ProcessSpec,
    /// Number of jobs to generate; `None` = unbounded, in which case the
    /// scenario must set `horizon_secs` to bound the stream.
    pub count: Option<u64>,
    /// Total work per job, megacycles.
    pub work_mcycles: f64,
    /// Maximum speed per task, MHz.
    pub max_speed_mhz: f64,
    /// Memory per task, MB.
    pub memory_mb: f64,
    /// Deadline derivation.
    pub goal: GoalSpec,
    /// Parallel tasks per job (1 = ordinary job).
    pub tasks: u32,
    /// Optional job class tag.
    pub class: Option<String>,
    /// Per-task demand in each *extra* rigid dimension (beyond memory).
    pub resources: BTreeMap<String, f64>,
}

/// The stochastic arrival process of a generated batch stream.
#[derive(Debug, Clone)]
pub enum ProcessSpec {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Arrival rate, jobs per second.
        rate_per_sec: f64,
    },
    /// Cyclic Markov-modulated Poisson process: `(rate_per_sec,
    /// mean_dwell_secs)` states visited in order with exponential
    /// dwells. Two states give the classic on/off burst model.
    Mmpp {
        /// The states, visited cyclically.
        states: Vec<(f64, f64)>,
    },
    /// Diurnal curve: rate `base + amplitude·sin(2π·t/period)`, floored
    /// at zero (86 400 s period = one day).
    Diurnal {
        /// Mean rate, jobs per second.
        base_rate_per_sec: f64,
        /// Peak deviation from the mean, jobs per second.
        amplitude: f64,
        /// Period, seconds.
        period_secs: f64,
    },
    /// Flash crowds: a baseline rate with a `multiplier`× spike of
    /// `duration_secs` starting every `every_secs`.
    FlashCrowd {
        /// Baseline rate, jobs per second.
        base_rate_per_sec: f64,
        /// Rate multiplier during a spike.
        multiplier: f64,
        /// Spike spacing, seconds.
        every_secs: f64,
        /// Spike length, seconds.
        duration_secs: f64,
    },
}

impl ProcessSpec {
    fn to_process(&self) -> ArrivalProcess {
        match self {
            ProcessSpec::Poisson { rate_per_sec } => ArrivalProcess::Poisson {
                rate_per_sec: *rate_per_sec,
            },
            ProcessSpec::Mmpp { states } => ArrivalProcess::Mmpp {
                states: states.clone(),
            },
            ProcessSpec::Diurnal {
                base_rate_per_sec,
                amplitude,
                period_secs,
            } => ArrivalProcess::Diurnal {
                base_rate_per_sec: *base_rate_per_sec,
                amplitude: *amplitude,
                period_secs: *period_secs,
            },
            ProcessSpec::FlashCrowd {
                base_rate_per_sec,
                multiplier,
                every_secs,
                duration_secs,
            } => ArrivalProcess::FlashCrowd {
                base_rate_per_sec: *base_rate_per_sec,
                multiplier: *multiplier,
                every_secs: *every_secs,
                duration_secs: *duration_secs,
            },
        }
    }
}

/// One generated transactional application.
#[derive(Debug, Clone)]
pub struct TxnStreamSpec {
    /// Optional name (shares the application namespace with jobs and
    /// txns).
    pub name: Option<String>,
    /// The request-rate curve.
    pub curve: TxnCurveSpec,
    /// Per-request CPU demand, megacycles.
    pub demand_mcycles: f64,
    /// Response-time floor, seconds.
    pub floor_secs: f64,
    /// Response-time goal, seconds.
    pub goal_secs: f64,
    /// Memory per instance, MB.
    pub memory_mb: f64,
    /// Maximum instances.
    pub max_instances: u32,
    /// Per-instance demand in each *extra* rigid dimension.
    pub resources: BTreeMap<String, f64>,
}

/// The request-rate curve of a generated transactional application.
#[derive(Debug, Clone)]
pub enum TxnCurveSpec {
    /// Constant request rate.
    Constant {
        /// Requests per second.
        rate_per_sec: f64,
    },
    /// Diurnal rate `base + amplitude·sin(2π·t/period)`, floored at
    /// zero.
    Diurnal {
        /// Mean rate, requests per second.
        base_rate_per_sec: f64,
        /// Peak deviation from the mean, requests per second.
        amplitude_per_sec: f64,
        /// Period, seconds.
        period_secs: f64,
    },
    /// An open-loop user population: `users` users each issuing one
    /// request per `think_time_secs`, i.e. an offered rate of
    /// `users / think_time_secs` independent of response times.
    Population {
        /// Number of users.
        users: f64,
        /// Mean think time between requests, seconds.
        think_time_secs: f64,
    },
}

impl TxnCurveSpec {
    fn to_pattern(&self) -> Box<dyn dynaplace_txn::workload::ArrivalPattern + Send> {
        match self {
            TxnCurveSpec::Constant { rate_per_sec } => Box::new(ConstantRate(*rate_per_sec)),
            TxnCurveSpec::Diurnal {
                base_rate_per_sec,
                amplitude_per_sec,
                period_secs,
            } => Box::new(SinusoidPattern {
                base: *base_rate_per_sec,
                amplitude: *amplitude_per_sec,
                period_secs: *period_secs,
            }),
            TxnCurveSpec::Population {
                users,
                think_time_secs,
            } => Box::new(ConstantRate(users / think_time_secs)),
        }
    }
}

/// One scripted node outage. The wire format is a 2- or 3-element array:
/// `[offset_secs, node]` is a permanent failure (the historical form),
/// `[offset_secs, node, duration_secs]` a transient one that recovers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailureSpec {
    /// Offset of the failure from the start of the run, seconds.
    pub at_secs: f64,
    /// Index of the failing node.
    pub node: u32,
    /// Outage length in seconds; `None` means permanent.
    pub duration_secs: Option<f64>,
}

impl NodeFailureSpec {
    fn to_outage(self) -> NodeOutage {
        NodeOutage {
            at: SimDuration::from_secs(self.at_secs),
            node: NodeId::new(self.node),
            duration: self.duration_secs.map(SimDuration::from_secs),
        }
    }
}

/// The fallible actuation layer, in scenario-file units. Every field
/// defaults to the exactly-off [`ActuationConfig::default`], so scenarios
/// written before this block existed behave bit-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActuationSpec {
    /// Per-operation failure probability, `[0, 1)`.
    pub failure_rate: f64,
    /// Relative latency inflation factor bound.
    pub latency_jitter: f64,
    /// Operation timeout, seconds.
    pub timeout_secs: Option<f64>,
    /// Operations issued at or after this instant never fail.
    pub fail_until_secs: Option<f64>,
    /// Seed for the failure/jitter draws.
    pub seed: u64,
    /// First retry delay, seconds.
    pub base_backoff_secs: f64,
    /// Backoff multiplier per consecutive failure.
    pub backoff_factor: f64,
    /// Backoff cap, seconds.
    pub max_backoff_secs: f64,
    /// Consecutive failures before an (app, node) pair is quarantined.
    pub quarantine_after: u32,
    /// Quarantine length, seconds.
    pub quarantine_secs: f64,
    /// Stalled control cycles before the `fill_only` fallback.
    pub fallback_after: u32,
}

impl Default for ActuationSpec {
    fn default() -> Self {
        let c = ActuationConfig::default();
        Self {
            failure_rate: c.failure_rate,
            latency_jitter: c.latency_jitter,
            timeout_secs: c.timeout.map(|d| d.as_secs()),
            fail_until_secs: c.fail_until.map(|t| t.as_secs()),
            seed: c.seed,
            base_backoff_secs: c.base_backoff.as_secs(),
            backoff_factor: c.backoff_factor,
            max_backoff_secs: c.max_backoff.as_secs(),
            quarantine_after: c.quarantine_after,
            quarantine_secs: c.quarantine.as_secs(),
            fallback_after: c.fallback_after,
        }
    }
}

impl ActuationSpec {
    fn to_config(self) -> ActuationConfig {
        ActuationConfig {
            failure_rate: self.failure_rate,
            latency_jitter: self.latency_jitter,
            timeout: self.timeout_secs.map(SimDuration::from_secs),
            fail_until: self.fail_until_secs.map(SimTime::from_secs),
            seed: self.seed,
            base_backoff: SimDuration::from_secs(self.base_backoff_secs),
            backoff_factor: self.backoff_factor,
            max_backoff: SimDuration::from_secs(self.max_backoff_secs),
            quarantine_after: self.quarantine_after,
            quarantine: SimDuration::from_secs(self.quarantine_secs),
            fallback_after: self.fallback_after,
        }
    }
}

/// The imperfect-telemetry observation layer, in scenario-file units.
/// Absent means perfect telemetry — the engine skips the layer entirely
/// and runs bit-identically to a simulator without one (APC only, like
/// `sharding`).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationSpec {
    /// Per-source/per-cycle report loss probability, `[0, 1)`.
    pub heartbeat_loss: f64,
    /// Maximum app-report delivery lag, control cycles.
    pub max_staleness_cycles: u32,
    /// Relative multiplicative noise bound on demand values, `[0, 1)`.
    pub noise: f64,
    /// Transport faults stop at this instant; `None` = whole run.
    pub loss_until_secs: Option<f64>,
    /// Seed for the loss/staleness/noise draws.
    pub seed: u64,
    /// Consecutive misses before Healthy → Suspect; at least 1.
    pub suspect_after: u32,
    /// Consecutive misses before Suspect → Dead; `> suspect_after`.
    pub dead_after: u32,
    /// Consecutive delivered heartbeats before reinstatement; at
    /// least 1.
    pub reinstate_after: u32,
    /// EWMA smoothing factor for txn demand, `(0, 1]`; `1.0` = off.
    pub ewma_alpha: f64,
    /// Safety-margin inflation on presented txn demand; `>= 0`.
    pub headroom: f64,
    /// Degrade when the snapshot is older than this many cycles;
    /// `0` disables the budget.
    pub staleness_budget_cycles: u32,
    /// Budget-breach behavior: `"hold"` or `"fill_only"`.
    pub degraded_mode: String,
}

impl Default for ObservationSpec {
    fn default() -> Self {
        let c = ObservationConfig::default();
        Self {
            heartbeat_loss: c.heartbeat_loss,
            max_staleness_cycles: c.max_staleness_cycles,
            noise: c.noise,
            loss_until_secs: c.loss_until.map(|t| t.as_secs()),
            seed: c.seed,
            suspect_after: c.suspect_after,
            dead_after: c.dead_after,
            reinstate_after: c.reinstate_after,
            ewma_alpha: c.ewma_alpha,
            headroom: c.headroom,
            staleness_budget_cycles: c.staleness_budget_cycles,
            degraded_mode: c.degraded_mode.name().to_string(),
        }
    }
}

impl ObservationSpec {
    /// The engine-side [`ObservationConfig`] this block denotes. An
    /// unrecognized `degraded_mode` (already rejected by `validate`)
    /// falls back to `Hold`.
    pub fn to_config(&self) -> ObservationConfig {
        ObservationConfig {
            heartbeat_loss: self.heartbeat_loss,
            max_staleness_cycles: self.max_staleness_cycles,
            noise: self.noise,
            loss_until: self.loss_until_secs.map(SimTime::from_secs),
            seed: self.seed,
            suspect_after: self.suspect_after,
            dead_after: self.dead_after,
            reinstate_after: self.reinstate_after,
            ewma_alpha: self.ewma_alpha,
            headroom: self.headroom,
            staleness_budget_cycles: self.staleness_budget_cycles,
            // `validate` has already rejected unknown names.
            degraded_mode: DegradedMode::from_name(&self.degraded_mode)
                .unwrap_or(DegradedMode::Hold),
        }
    }
}

/// Decision-provenance tracing (see `dynaplace-trace`), in scenario-file
/// form. Absent, or present without a `path`, means tracing is off and
/// the run is bit-identical to an untraced one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// JSONL output path; `None` disables tracing entirely.
    pub path: Option<String>,
    /// Verbosity: `"decisions"` (the default) or `"verbose"`.
    pub level: String,
}

impl Default for TraceSpec {
    fn default() -> Self {
        Self {
            path: None,
            level: TraceLevel::Decisions.name().to_string(),
        }
    }
}

impl TraceSpec {
    fn to_config(&self) -> TraceConfig {
        TraceConfig {
            path: self.path.clone(),
            // `validate` has already rejected unknown names.
            level: TraceLevel::from_name(&self.level).unwrap_or(TraceLevel::Decisions),
        }
    }
}

/// Cell-sharded placement (APC only), in scenario-file form. Absent
/// means the classic single-cell search — bit-identical to every
/// scenario written before sharding existed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingSpec {
    /// Nodes per cell (see `dynaplace_apc::ShardingPolicy::cell_size`).
    pub cell_size: usize,
    /// Maximum cross-cell rebalance moves per cycle; `0` disables the
    /// rebalancer.
    pub rebalance_moves: usize,
    /// Minimum global satisfaction gain a rebalance move must clear.
    pub rebalance_threshold: f64,
}

fn default_rebalance_moves() -> usize {
    dynaplace_apc::ShardingPolicy::default().rebalance_moves
}

fn default_rebalance_threshold() -> f64 {
    dynaplace_apc::ShardingPolicy::default().rebalance_threshold
}

impl ShardingSpec {
    /// A spec with the given cell size and default rebalancing.
    pub fn new(cell_size: usize) -> Self {
        ShardingSpec {
            cell_size,
            rebalance_moves: default_rebalance_moves(),
            rebalance_threshold: default_rebalance_threshold(),
        }
    }

    fn to_policy(&self) -> dynaplace_apc::ShardingPolicy {
        dynaplace_apc::ShardingPolicy {
            cell_size: self.cell_size,
            rebalance_moves: self.rebalance_moves,
            rebalance_threshold: self.rebalance_threshold,
        }
    }
}

/// A structurally invalid scenario, detected at load time instead of as
/// a mid-run panic (or, worse, a silent no-op).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The `nodes` list is empty.
    NoNodes,
    /// `node_failures[failure_index]` names a node the cluster does not
    /// have. Historically this was silently ignored.
    NodeFailureOutOfRange {
        /// Index into `node_failures`.
        failure_index: usize,
        /// The out-of-range node index.
        node: u32,
        /// Number of nodes the cluster actually has.
        nodes: usize,
    },
    /// `actuation.failure_rate` is outside `[0, 1)` (at 1.0 retries can
    /// never converge).
    FailureRateOutOfRange {
        /// The offending rate.
        rate: f64,
    },
    /// `scheduler` names no policy in the registry.
    UnknownPolicy {
        /// The unresolvable name.
        name: String,
        /// The closest registered name or alias, when one is plausibly
        /// a typo away.
        suggestion: Option<String>,
    },
    /// `jobs[group_index]` asks for parallel tasks under a baseline
    /// scheduler, which only models single-instance jobs.
    ParallelJobsNeedApc {
        /// Index into `jobs`.
        group_index: usize,
    },
    /// `trace.level` is not a known trace verbosity name.
    UnknownTraceLevel {
        /// The unrecognized name.
        level: String,
    },
    /// The `sharding` block is structurally invalid or used with a
    /// baseline scheduler (only APC shards).
    InvalidSharding {
        /// What is wrong with it.
        message: String,
    },
    /// The `observation` block is structurally invalid or used with a
    /// baseline scheduler (only the APC control loop reads the observed
    /// snapshot).
    InvalidObservation {
        /// What is wrong with it.
        message: String,
    },
    /// A numeric field that feeds simulated time is NaN or infinite.
    /// Letting these through used to panic deep inside the baseline
    /// schedulers' comparison sorts instead of failing at load time.
    NonFiniteNumber {
        /// Dotted path of the offending field, e.g. `jobs[0].arrivals.at[2]`.
        field: String,
        /// The non-finite value.
        value: f64,
    },
    /// Two named entries of the same kind share a name. Jobs and txns
    /// share one application namespace; node groups have their own.
    DuplicateName {
        /// Which list: `nodes` or `applications`.
        kind: &'static str,
        /// The repeated name.
        name: String,
    },
    /// The top-level `resources` registry is malformed (an empty name, a
    /// duplicate, or a restatement of the implicit `memory_mb`).
    InvalidResources {
        /// What is wrong with it.
        message: String,
    },
    /// A `resources` block names a dimension the top-level `resources`
    /// list does not declare — almost always a typo that would otherwise
    /// silently demand (or supply) nothing.
    UnknownResource {
        /// Dotted path of the offending block, e.g. `nodes[1].resources`.
        field: String,
        /// The undeclared dimension name.
        name: String,
    },
    /// A numeric field that must be strictly positive is zero or
    /// negative: a zero control cycle would never advance time, a
    /// zero-work job has no best execution time to derive a deadline
    /// from, and a zero-task job silently degrades to an ordinary one.
    NonPositiveNumber {
        /// Dotted path of the offending field, e.g. `cycle_secs`.
        field: String,
        /// The non-positive value.
        value: f64,
    },
    /// A capacity, demand, rate, or delay is negative. Negative node
    /// capacities used to panic inside `build` instead of failing at
    /// load time; negative backoffs and arrival instants would move
    /// simulated time backwards.
    NegativeNumber {
        /// Dotted path of the offending field, e.g. `nodes[0].memory_mb`.
        field: String,
        /// The negative value.
        value: f64,
    },
    /// The node groups sum to more nodes than the `u32` id space (and
    /// the sharded cell partitioner) can index.
    TooManyNodes {
        /// The declared total node count.
        nodes: usize,
    },
    /// The `workload` block is structurally invalid: a degenerate
    /// arrival process, a parallel stream under a baseline scheduler, or
    /// an unbounded stream in a scenario without `horizon_secs` (such a
    /// run would generate arrivals forever).
    InvalidWorkload {
        /// What is wrong with it.
        message: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoNodes => write!(
                f,
                "scenario needs at least one node (a non-empty nodes list with a positive \
                 total count)"
            ),
            ScenarioError::NodeFailureOutOfRange {
                failure_index,
                node,
                nodes,
            } => write!(
                f,
                "node_failures[{failure_index}] names node {node}, but the cluster has only \
                 {nodes} nodes (indices 0..{nodes})"
            ),
            ScenarioError::FailureRateOutOfRange { rate } => {
                write!(f, "actuation.failure_rate must be in [0, 1), got {rate}")
            }
            ScenarioError::UnknownPolicy { name, suggestion } => {
                write!(f, "unknown scheduler policy {name:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s:?}?)")?;
                }
                write!(
                    f,
                    "; registered policies: {}",
                    policy_registry::policy_names().join(", ")
                )
            }
            ScenarioError::ParallelJobsNeedApc { group_index } => write!(
                f,
                "jobs[{group_index}] uses parallel tasks, which only the apc scheduler supports"
            ),
            ScenarioError::UnknownTraceLevel { level } => {
                write!(f, "trace.level must be decisions|verbose, got {level:?}")
            }
            ScenarioError::InvalidSharding { message } => {
                write!(f, "sharding: {message}")
            }
            ScenarioError::InvalidObservation { message } => {
                write!(f, "observation: {message}")
            }
            ScenarioError::NonFiniteNumber { field, value } => {
                write!(f, "{field} must be finite, got {value}")
            }
            ScenarioError::DuplicateName { kind, name } => {
                write!(f, "{kind} contain the name {name:?} more than once")
            }
            ScenarioError::InvalidResources { message } => {
                write!(f, "resources: {message}")
            }
            ScenarioError::UnknownResource { field, name } => {
                write!(
                    f,
                    "{field} names {name:?}, which the scenario's resources list does not declare"
                )
            }
            ScenarioError::NonPositiveNumber { field, value } => {
                write!(f, "{field} must be > 0, got {value}")
            }
            ScenarioError::NegativeNumber { field, value } => {
                write!(f, "{field} must be >= 0, got {value}")
            }
            ScenarioError::TooManyNodes { nodes } => {
                write!(
                    f,
                    "scenario declares {nodes} nodes, more than the u32 node-id space can index"
                )
            }
            ScenarioError::InvalidWorkload { message } => {
                write!(f, "invalid workload block: {message}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A complete, self-contained scenario.
///
/// ```
/// use dynaplace_sim::spec::*;
///
/// let json = r#"{
///   "seed": 7,
///   "scheduler": "apc",
///   "cycle_secs": 60.0,
///   "nodes": [{ "count": 2, "cpu_mhz": 2000.0, "memory_mb": 4000.0 }],
///   "jobs": [{
///     "count": 3, "work_mcycles": 30000.0, "max_speed_mhz": 1000.0,
///     "memory_mb": 1000.0, "goal": { "factor": 3.0 },
///     "arrivals": { "periodic": { "every_secs": 10.0 } }
///   }],
///   "txns": []
/// }"#;
/// let spec = ScenarioSpec::from_json_str(json).unwrap();
/// let metrics = spec.build().run();
/// assert_eq!(metrics.completions.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// RNG seed for stochastic arrival processes.
    pub seed: u64,
    /// The scheduler: a policy name (or alias) resolved against the
    /// [`dynaplace_apc::PolicyRegistry`] — `"apc"`, `"fcfs"`, `"edf"`,
    /// `"static-partition"`, `"vector-bin-packing"`, `"yield-max"`,
    /// `"dfrs"`, or any policy registered at runtime. Unknown names are
    /// a validate-time [`ScenarioError::UnknownPolicy`].
    pub scheduler: String,
    /// Control cycle length, seconds.
    pub cycle_secs: f64,
    /// Optional hard stop, seconds.
    pub horizon_secs: Option<f64>,
    /// Disable the paper's VM operation costs.
    pub free_vm_costs: bool,
    /// Extra rigid resource dimensions, in registry order. `memory_mb`
    /// is always implicit (dimension 0) and must not be restated here.
    /// An empty list is the classic memory-only model, bit-identical to
    /// scenarios written before this field existed.
    pub resources: Vec<String>,
    /// Node groups.
    pub nodes: Vec<NodeGroupSpec>,
    /// Batch job groups.
    pub jobs: Vec<JobGroupSpec>,
    /// Transactional applications.
    pub txns: Vec<TxnSpec>,
    /// Generative streaming workload (see [`WorkloadSpec`]); absent =
    /// the classic fully materialized model, bit-identical to scenarios
    /// written before this block existed.
    pub workload: Option<WorkloadSpec>,
    /// Scripted node failures (see [`NodeFailureSpec`] for the wire
    /// format). Node indices are validated against the cluster size at
    /// load time.
    pub node_failures: Vec<NodeFailureSpec>,
    /// The fallible actuation layer; defaults to exactly-off.
    pub actuation: ActuationSpec,
    /// Optional wall-clock budget for each optimization run, seconds
    /// (APC only). Makes the chosen placement depend on machine speed —
    /// leave unset for reproducible runs.
    pub deadline_secs: Option<f64>,
    /// Cell-sharded placement (APC only); absent = classic single-cell.
    pub sharding: Option<ShardingSpec>,
    /// The imperfect-telemetry observation layer (APC only); absent =
    /// perfect telemetry, bit-identical to scenarios written before the
    /// layer existed.
    pub observation: Option<ObservationSpec>,
    /// Decision-provenance tracing; defaults to off.
    pub trace: TraceSpec,
}

impl ScenarioSpec {
    /// Total number of nodes across all groups.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().map(|g| g.count).sum()
    }

    /// Total number of *classic* batch jobs the scenario will submit:
    /// each group spawns [`JobGroupSpec::count`] instances, except
    /// explicit [`ArrivalSpec::At`] groups, which spawn one per listed
    /// instant. Generated streams are excluded (the classic id layout
    /// depends on this count) — see
    /// [`ScenarioSpec::generated_job_cap`] for their contribution.
    pub fn job_count(&self) -> usize {
        self.jobs
            .iter()
            .map(|g| match &g.arrivals {
                ArrivalSpec::At(times) => times.len(),
                _ => g.count,
            })
            .sum()
    }

    /// Total count cap across generated batch streams. Exact for
    /// horizon-free scenarios (where validation forces every stream to
    /// carry a cap); an upper bound when a horizon can cut a stream
    /// short; zero contribution from uncapped streams.
    pub fn generated_job_cap(&self) -> usize {
        self.workload
            .as_ref()
            .map(|w| {
                w.batch_streams
                    .iter()
                    .map(|s| s.count.unwrap_or(0) as usize)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Checks the scenario's structural consistency: at least one node
    /// (an all-`count: 0` fleet is as empty as no `nodes` list at all),
    /// a node total the `u32` id space can index, every scripted node
    /// failure inside the cluster, a convergent actuation failure rate,
    /// parallel jobs only under APC, a known trace level, finite values
    /// everywhere a number feeds simulated time (NaN arrivals or
    /// deadlines used to surface as panics inside the baseline
    /// schedulers' sorts), and sign constraints on every quantity with
    /// one (negative node capacities used to panic inside `build`; a
    /// zero `cycle_secs` would spin the control loop without advancing
    /// time).
    ///
    /// # Errors
    ///
    /// Returns the first violation in field order.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let policy = self.resolve_scheduler()?;
        let is_apc = policy.class() == PolicyClass::Apc;
        let nodes = self.node_count();
        if nodes == 0 {
            return Err(ScenarioError::NoNodes);
        }
        if nodes > u32::MAX as usize {
            return Err(ScenarioError::TooManyNodes { nodes });
        }
        for (failure_index, failure) in self.node_failures.iter().enumerate() {
            if failure.node as usize >= nodes {
                return Err(ScenarioError::NodeFailureOutOfRange {
                    failure_index,
                    node: failure.node,
                    nodes,
                });
            }
        }
        if !(0.0..1.0).contains(&self.actuation.failure_rate) {
            return Err(ScenarioError::FailureRateOutOfRange {
                rate: self.actuation.failure_rate,
            });
        }
        if !is_apc {
            for (group_index, group) in self.jobs.iter().enumerate() {
                if group.tasks > 1 {
                    return Err(ScenarioError::ParallelJobsNeedApc { group_index });
                }
            }
        }
        if TraceLevel::from_name(&self.trace.level).is_none() {
            return Err(ScenarioError::UnknownTraceLevel {
                level: self.trace.level.clone(),
            });
        }
        if let Some(sharding) = &self.sharding {
            if !is_apc {
                return Err(ScenarioError::InvalidSharding {
                    message: "only the apc scheduler supports sharding".to_string(),
                });
            }
            if sharding.cell_size == 0 {
                return Err(ScenarioError::InvalidSharding {
                    message: "cell_size must be at least 1".to_string(),
                });
            }
            if !sharding.rebalance_threshold.is_finite() || sharding.rebalance_threshold < 0.0 {
                return Err(ScenarioError::InvalidSharding {
                    message: format!(
                        "rebalance_threshold must be finite and >= 0, got {}",
                        sharding.rebalance_threshold
                    ),
                });
            }
        }
        self.validate_observation(is_apc)?;
        self.validate_workload(is_apc)?;
        self.validate_names()?;
        self.validate_resources()?;
        self.validate_finite()?;
        self.validate_signs()
    }

    /// Rejects degenerate `workload` blocks: arrival processes that can
    /// never produce (or never stop producing) arrivals, unbounded
    /// streams without a horizon to cut them, parallel streams under a
    /// baseline scheduler, and the usual finiteness / sign constraints
    /// on every generator parameter.
    fn validate_workload(&self, is_apc: bool) -> Result<(), ScenarioError> {
        let Some(workload) = &self.workload else {
            return Ok(());
        };
        let bad = |message: String| Err(ScenarioError::InvalidWorkload { message });
        let finite_positive = |field: &str, value: f64| {
            if value.is_finite() && value > 0.0 {
                Ok(())
            } else {
                bad(format!("{field} must be finite and > 0, got {value}"))
            }
        };
        let finite_non_negative = |field: &str, value: f64| {
            if value.is_finite() && value >= 0.0 {
                Ok(())
            } else {
                bad(format!("{field} must be finite and >= 0, got {value}"))
            }
        };
        let check_resources = |field: &str, block: &BTreeMap<String, f64>| {
            for (name, &value) in block {
                if !self.resources.contains(name) {
                    return Err(ScenarioError::UnknownResource {
                        field: field.to_string(),
                        name: name.clone(),
                    });
                }
                finite_non_negative(&format!("{field}.{name}"), value)?;
            }
            Ok(())
        };
        for (i, stream) in workload.batch_streams.iter().enumerate() {
            let at = |leaf: &str| format!("workload.batch_streams[{i}].{leaf}");
            if stream.tasks == 0 {
                return bad(format!("{} must be at least 1", at("tasks")));
            }
            if stream.tasks > 1 && !is_apc {
                return bad(format!(
                    "{} asks for parallel tasks under a baseline scheduler",
                    at("tasks")
                ));
            }
            if stream.count.is_none() && self.horizon_secs.is_none() {
                return bad(format!(
                    "workload.batch_streams[{i}] is unbounded (no count) in a scenario \
                     without horizon_secs"
                ));
            }
            finite_positive(&at("work_mcycles"), stream.work_mcycles)?;
            finite_positive(&at("max_speed_mhz"), stream.max_speed_mhz)?;
            finite_non_negative(&at("memory_mb"), stream.memory_mb)?;
            match stream.goal {
                GoalSpec::Factor(f) => finite_positive(&at("goal.factor"), f)?,
                GoalSpec::RelativeSecs(s) => finite_positive(&at("goal.relative_secs"), s)?,
            }
            match &stream.process {
                ProcessSpec::Poisson { rate_per_sec } => {
                    finite_positive(&at("process.poisson.rate_per_sec"), *rate_per_sec)?;
                }
                ProcessSpec::Mmpp { states } => {
                    if states.is_empty() {
                        return bad(format!(
                            "{} must have at least one state",
                            at("process.mmpp")
                        ));
                    }
                    let mut any_positive = false;
                    for (j, &(rate, dwell)) in states.iter().enumerate() {
                        let leaf = format!("process.mmpp.states[{j}]");
                        finite_non_negative(&at(&format!("{leaf}.rate")), rate)?;
                        finite_positive(&at(&format!("{leaf}.mean_dwell_secs")), dwell)?;
                        any_positive |= rate > 0.0;
                    }
                    if !any_positive {
                        return bad(format!(
                            "{} has no state with a positive rate, so the stream \
                             never produces an arrival",
                            at("process.mmpp")
                        ));
                    }
                }
                ProcessSpec::Diurnal {
                    base_rate_per_sec,
                    amplitude,
                    period_secs,
                } => {
                    finite_positive(&at("process.diurnal.base_rate_per_sec"), *base_rate_per_sec)?;
                    if !amplitude.is_finite() {
                        return bad(format!(
                            "{} must be finite, got {amplitude}",
                            at("process.diurnal.amplitude")
                        ));
                    }
                    finite_positive(&at("process.diurnal.period_secs"), *period_secs)?;
                }
                ProcessSpec::FlashCrowd {
                    base_rate_per_sec,
                    multiplier,
                    every_secs,
                    duration_secs,
                } => {
                    finite_positive(
                        &at("process.flash_crowd.base_rate_per_sec"),
                        *base_rate_per_sec,
                    )?;
                    finite_positive(&at("process.flash_crowd.multiplier"), *multiplier)?;
                    finite_positive(&at("process.flash_crowd.every_secs"), *every_secs)?;
                    finite_non_negative(&at("process.flash_crowd.duration_secs"), *duration_secs)?;
                }
            }
            check_resources(
                &format!("workload.batch_streams[{i}].resources"),
                &stream.resources,
            )?;
        }
        for (i, stream) in workload.txn_streams.iter().enumerate() {
            let at = |leaf: &str| format!("workload.txn_streams[{i}].{leaf}");
            if stream.max_instances == 0 {
                return bad(format!("{} must be at least 1", at("max_instances")));
            }
            finite_positive(&at("demand_mcycles"), stream.demand_mcycles)?;
            finite_non_negative(&at("floor_secs"), stream.floor_secs)?;
            finite_positive(&at("goal_secs"), stream.goal_secs)?;
            finite_non_negative(&at("memory_mb"), stream.memory_mb)?;
            match &stream.curve {
                TxnCurveSpec::Constant { rate_per_sec } => {
                    finite_non_negative(&at("curve.constant.rate_per_sec"), *rate_per_sec)?;
                }
                TxnCurveSpec::Diurnal {
                    base_rate_per_sec,
                    amplitude_per_sec,
                    period_secs,
                } => {
                    finite_non_negative(
                        &at("curve.diurnal.base_rate_per_sec"),
                        *base_rate_per_sec,
                    )?;
                    if !amplitude_per_sec.is_finite() {
                        return bad(format!(
                            "{} must be finite, got {amplitude_per_sec}",
                            at("curve.diurnal.amplitude_per_sec")
                        ));
                    }
                    finite_positive(&at("curve.diurnal.period_secs"), *period_secs)?;
                }
                TxnCurveSpec::Population {
                    users,
                    think_time_secs,
                } => {
                    finite_non_negative(&at("curve.population.users"), *users)?;
                    finite_positive(&at("curve.population.think_time_secs"), *think_time_secs)?;
                }
            }
            check_resources(
                &format!("workload.txn_streams[{i}].resources"),
                &stream.resources,
            )?;
        }
        Ok(())
    }

    /// Rejects degenerate observation-layer parameters: probabilities
    /// that can never recover (a loss rate of 1.0 means telemetry is
    /// permanently dark), thresholds that break the state machine's
    /// ordering (`dead_after <= suspect_after` would skip Suspect), and
    /// a smoothing factor of zero (the estimate would never track
    /// demand at all).
    fn validate_observation(&self, is_apc: bool) -> Result<(), ScenarioError> {
        let Some(o) = &self.observation else {
            return Ok(());
        };
        let bad = |message: String| Err(ScenarioError::InvalidObservation { message });
        if !is_apc {
            return bad("only the apc scheduler supports an observation layer".to_string());
        }
        if !(0.0..1.0).contains(&o.heartbeat_loss) {
            return bad(format!(
                "heartbeat_loss must be in [0, 1), got {}",
                o.heartbeat_loss
            ));
        }
        if !o.noise.is_finite() || !(0.0..1.0).contains(&o.noise) {
            return bad(format!("noise must be in [0, 1), got {}", o.noise));
        }
        if !o.ewma_alpha.is_finite() || o.ewma_alpha <= 0.0 || o.ewma_alpha > 1.0 {
            return bad(format!(
                "ewma_alpha must be in (0, 1], got {}",
                o.ewma_alpha
            ));
        }
        if !o.headroom.is_finite() || o.headroom < 0.0 {
            return bad(format!(
                "headroom must be finite and >= 0, got {}",
                o.headroom
            ));
        }
        if o.suspect_after == 0 {
            return bad("suspect_after must be at least 1".to_string());
        }
        if o.dead_after <= o.suspect_after {
            return bad(format!(
                "dead_after ({}) must exceed suspect_after ({})",
                o.dead_after, o.suspect_after
            ));
        }
        if o.reinstate_after == 0 {
            return bad("reinstate_after must be at least 1".to_string());
        }
        if let Some(until) = o.loss_until_secs {
            if !until.is_finite() || until < 0.0 {
                return bad(format!(
                    "loss_until_secs must be finite and >= 0, got {until}"
                ));
            }
        }
        if DegradedMode::from_name(&o.degraded_mode).is_none() {
            return bad(format!(
                "degraded_mode must be hold|fill_only, got {:?}",
                o.degraded_mode
            ));
        }
        Ok(())
    }

    /// Rejects repeated names: node groups among themselves, and jobs +
    /// txns across their shared application namespace. A repeated name
    /// is almost always a copy-paste slip that would otherwise make
    /// per-name diagnostics ambiguous.
    fn validate_names(&self) -> Result<(), ScenarioError> {
        fn first_duplicate<'a>(
            kind: &'static str,
            names: impl Iterator<Item = &'a String>,
        ) -> Result<(), ScenarioError> {
            let mut seen = std::collections::BTreeSet::new();
            for name in names {
                if !seen.insert(name.as_str()) {
                    return Err(ScenarioError::DuplicateName {
                        kind,
                        name: name.clone(),
                    });
                }
            }
            Ok(())
        }
        first_duplicate("nodes", self.nodes.iter().filter_map(|g| g.name.as_ref()))?;
        first_duplicate(
            "applications",
            self.jobs
                .iter()
                .filter_map(|g| g.name.as_ref())
                .chain(self.txns.iter().filter_map(|t| t.name.as_ref()))
                .chain(self.workload.iter().flat_map(|w| {
                    w.batch_streams
                        .iter()
                        .filter_map(|s| s.name.as_ref())
                        .chain(w.txn_streams.iter().filter_map(|s| s.name.as_ref()))
                })),
        )
    }

    /// Checks the resource registry constructs and that every per-group
    /// `resources` block only references declared dimensions.
    fn validate_resources(&self) -> Result<(), ScenarioError> {
        if let Err(e) = ResourceDims::with_extra(self.resources.iter().cloned()) {
            return Err(ScenarioError::InvalidResources {
                message: e.to_string(),
            });
        }
        let declared = |name: &String| self.resources.contains(name);
        let check = |field: String, block: &BTreeMap<String, f64>| {
            for name in block.keys() {
                if !declared(name) {
                    return Err(ScenarioError::UnknownResource {
                        field,
                        name: name.clone(),
                    });
                }
            }
            Ok(())
        };
        for (i, group) in self.nodes.iter().enumerate() {
            check(format!("nodes[{i}].resources"), &group.resources)?;
        }
        for (i, group) in self.jobs.iter().enumerate() {
            check(format!("jobs[{i}].resources"), &group.resources)?;
        }
        for (i, txn) in self.txns.iter().enumerate() {
            check(format!("txns[{i}].resources"), &txn.resources)?;
        }
        Ok(())
    }

    /// The finiteness half of [`ScenarioSpec::validate`]: every number
    /// that ends up on a simulated timeline must be finite.
    fn validate_finite(&self) -> Result<(), ScenarioError> {
        fn finite(field: String, value: f64) -> Result<(), ScenarioError> {
            if value.is_finite() {
                Ok(())
            } else {
                Err(ScenarioError::NonFiniteNumber { field, value })
            }
        }
        finite("cycle_secs".to_string(), self.cycle_secs)?;
        if let Some(h) = self.horizon_secs {
            finite("horizon_secs".to_string(), h)?;
        }
        if let Some(d) = self.deadline_secs {
            // A NaN deadline used to panic inside Duration::from_secs_f64
            // mid-build.
            finite("deadline_secs".to_string(), d)?;
        }
        for (i, group) in self.nodes.iter().enumerate() {
            finite(format!("nodes[{i}].cpu_mhz"), group.cpu_mhz)?;
            finite(format!("nodes[{i}].memory_mb"), group.memory_mb)?;
            for (name, &value) in &group.resources {
                finite(format!("nodes[{i}].resources.{name}"), value)?;
            }
        }
        for (i, group) in self.jobs.iter().enumerate() {
            for (name, &value) in &group.resources {
                finite(format!("jobs[{i}].resources.{name}"), value)?;
            }
        }
        for (i, txn) in self.txns.iter().enumerate() {
            for (name, &value) in &txn.resources {
                finite(format!("txns[{i}].resources.{name}"), value)?;
            }
        }
        for (i, group) in self.jobs.iter().enumerate() {
            finite(format!("jobs[{i}].work_mcycles"), group.work_mcycles)?;
            finite(format!("jobs[{i}].max_speed_mhz"), group.max_speed_mhz)?;
            finite(format!("jobs[{i}].memory_mb"), group.memory_mb)?;
            match group.goal {
                GoalSpec::Factor(f) => finite(format!("jobs[{i}].goal.factor"), f)?,
                GoalSpec::RelativeSecs(s) => {
                    finite(format!("jobs[{i}].goal.relative_secs"), s)?;
                }
            }
            match &group.arrivals {
                ArrivalSpec::Exponential { mean_secs } => {
                    finite(
                        format!("jobs[{i}].arrivals.exponential.mean_secs"),
                        *mean_secs,
                    )?;
                }
                ArrivalSpec::Periodic { every_secs } => {
                    finite(
                        format!("jobs[{i}].arrivals.periodic.every_secs"),
                        *every_secs,
                    )?;
                }
                ArrivalSpec::At(times) => {
                    for (j, &t) in times.iter().enumerate() {
                        finite(format!("jobs[{i}].arrivals.at[{j}]"), t)?;
                    }
                }
            }
        }
        for (i, txn) in self.txns.iter().enumerate() {
            finite(format!("txns[{i}].demand_mcycles"), txn.demand_mcycles)?;
            finite(format!("txns[{i}].memory_mb"), txn.memory_mb)?;
            finite(format!("txns[{i}].floor_secs"), txn.floor_secs)?;
            finite(format!("txns[{i}].goal_secs"), txn.goal_secs)?;
            match &txn.rate {
                RateSpec::Constant(r) => finite(format!("txns[{i}].rate"), *r)?,
                RateSpec::Steps(steps) => {
                    for (j, &(t, r)) in steps.iter().enumerate() {
                        finite(format!("txns[{i}].rate[{j}].start_secs"), t)?;
                        finite(format!("txns[{i}].rate[{j}].rate"), r)?;
                    }
                }
            }
        }
        for (i, failure) in self.node_failures.iter().enumerate() {
            finite(format!("node_failures[{i}].at_secs"), failure.at_secs)?;
            if let Some(d) = failure.duration_secs {
                finite(format!("node_failures[{i}].duration_secs"), d)?;
            }
        }
        let a = &self.actuation;
        finite("actuation.latency_jitter".to_string(), a.latency_jitter)?;
        if let Some(t) = a.timeout_secs {
            finite("actuation.timeout_secs".to_string(), t)?;
        }
        if let Some(t) = a.fail_until_secs {
            finite("actuation.fail_until_secs".to_string(), t)?;
        }
        finite(
            "actuation.base_backoff_secs".to_string(),
            a.base_backoff_secs,
        )?;
        finite("actuation.backoff_factor".to_string(), a.backoff_factor)?;
        finite("actuation.max_backoff_secs".to_string(), a.max_backoff_secs)?;
        finite("actuation.quarantine_secs".to_string(), a.quarantine_secs)?;
        Ok(())
    }

    /// The sign half of [`ScenarioSpec::validate`]: strictly positive
    /// where zero is meaningless (`cycle_secs`, per-job work and speed,
    /// per-request demand, response-time goals, task and instance
    /// counts), non-negative everywhere else a negative value would
    /// either panic mid-build (node capacities) or move simulated time
    /// backwards (arrival instants, backoffs, outage offsets).
    fn validate_signs(&self) -> Result<(), ScenarioError> {
        fn positive(field: String, value: f64) -> Result<(), ScenarioError> {
            if value > 0.0 {
                Ok(())
            } else {
                Err(ScenarioError::NonPositiveNumber { field, value })
            }
        }
        fn non_negative(field: String, value: f64) -> Result<(), ScenarioError> {
            if value >= 0.0 {
                Ok(())
            } else {
                Err(ScenarioError::NegativeNumber { field, value })
            }
        }
        positive("cycle_secs".to_string(), self.cycle_secs)?;
        if let Some(h) = self.horizon_secs {
            non_negative("horizon_secs".to_string(), h)?;
        }
        if let Some(d) = self.deadline_secs {
            positive("deadline_secs".to_string(), d)?;
        }
        for (i, group) in self.nodes.iter().enumerate() {
            non_negative(format!("nodes[{i}].cpu_mhz"), group.cpu_mhz)?;
            non_negative(format!("nodes[{i}].memory_mb"), group.memory_mb)?;
            for (name, &value) in &group.resources {
                non_negative(format!("nodes[{i}].resources.{name}"), value)?;
            }
        }
        for (i, group) in self.jobs.iter().enumerate() {
            if group.tasks == 0 {
                return Err(ScenarioError::NonPositiveNumber {
                    field: format!("jobs[{i}].tasks"),
                    value: 0.0,
                });
            }
            positive(format!("jobs[{i}].work_mcycles"), group.work_mcycles)?;
            positive(format!("jobs[{i}].max_speed_mhz"), group.max_speed_mhz)?;
            non_negative(format!("jobs[{i}].memory_mb"), group.memory_mb)?;
            if let GoalSpec::Factor(factor) = group.goal {
                positive(format!("jobs[{i}].goal.factor"), factor)?;
            }
            match &group.arrivals {
                ArrivalSpec::Exponential { mean_secs } => {
                    positive(
                        format!("jobs[{i}].arrivals.exponential.mean_secs"),
                        *mean_secs,
                    )?;
                }
                ArrivalSpec::Periodic { every_secs } => {
                    non_negative(
                        format!("jobs[{i}].arrivals.periodic.every_secs"),
                        *every_secs,
                    )?;
                }
                ArrivalSpec::At(times) => {
                    for (j, &t) in times.iter().enumerate() {
                        non_negative(format!("jobs[{i}].arrivals.at[{j}]"), t)?;
                    }
                }
            }
            for (name, &value) in &group.resources {
                non_negative(format!("jobs[{i}].resources.{name}"), value)?;
            }
        }
        for (i, txn) in self.txns.iter().enumerate() {
            if txn.max_instances == 0 {
                return Err(ScenarioError::NonPositiveNumber {
                    field: format!("txns[{i}].max_instances"),
                    value: 0.0,
                });
            }
            positive(format!("txns[{i}].demand_mcycles"), txn.demand_mcycles)?;
            non_negative(format!("txns[{i}].floor_secs"), txn.floor_secs)?;
            positive(format!("txns[{i}].goal_secs"), txn.goal_secs)?;
            non_negative(format!("txns[{i}].memory_mb"), txn.memory_mb)?;
            match &txn.rate {
                RateSpec::Constant(rate) => non_negative(format!("txns[{i}].rate"), *rate)?,
                RateSpec::Steps(steps) => {
                    for (j, &(start, rate)) in steps.iter().enumerate() {
                        non_negative(format!("txns[{i}].rate[{j}].start_secs"), start)?;
                        non_negative(format!("txns[{i}].rate[{j}].rate"), rate)?;
                    }
                }
            }
            for (name, &value) in &txn.resources {
                non_negative(format!("txns[{i}].resources.{name}"), value)?;
            }
        }
        for (i, failure) in self.node_failures.iter().enumerate() {
            non_negative(format!("node_failures[{i}].at_secs"), failure.at_secs)?;
            if let Some(d) = failure.duration_secs {
                non_negative(format!("node_failures[{i}].duration_secs"), d)?;
            }
        }
        let a = &self.actuation;
        non_negative("actuation.latency_jitter".to_string(), a.latency_jitter)?;
        if let Some(t) = a.timeout_secs {
            positive("actuation.timeout_secs".to_string(), t)?;
        }
        if let Some(t) = a.fail_until_secs {
            non_negative("actuation.fail_until_secs".to_string(), t)?;
        }
        non_negative(
            "actuation.base_backoff_secs".to_string(),
            a.base_backoff_secs,
        )?;
        non_negative("actuation.backoff_factor".to_string(), a.backoff_factor)?;
        non_negative("actuation.max_backoff_secs".to_string(), a.max_backoff_secs)?;
        non_negative("actuation.quarantine_secs".to_string(), a.quarantine_secs)?;
        Ok(())
    }

    /// Resolves [`ScenarioSpec::scheduler`] against the global policy
    /// registry.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownPolicy`] (with a did-you-mean suggestion
    /// where one is plausible) when the name matches no registered
    /// policy or alias.
    pub fn resolve_scheduler(&self) -> Result<PolicyHandle, ScenarioError> {
        policy_registry::resolve(&self.scheduler).ok_or_else(|| ScenarioError::UnknownPolicy {
            name: self.scheduler.clone(),
            suggestion: policy_registry::suggest(&self.scheduler),
        })
    }

    /// Materializes the scenario into a ready-to-run [`Simulation`].
    ///
    /// # Panics
    ///
    /// Panics on inconsistent specifications with a message naming the
    /// offending field; use [`ScenarioSpec::build_checked`] to handle the
    /// error instead.
    pub fn build(&self) -> Simulation {
        self.build_checked()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Validates and materializes the scenario.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found by
    /// [`ScenarioSpec::validate`].
    pub fn build_checked(&self) -> Result<Simulation, ScenarioError> {
        self.validate()?;
        let mut sim = self.empty_simulation();
        // Lock-step mode: drain the source streaming mode attaches, so
        // every submission is registered up front through the same
        // admission path, in the same order, under the same ids.
        sim.admit_all(self.workload_source());
        Ok(sim)
    }

    /// Materializes the scenario in streaming mode: submissions are
    /// admitted lazily from a [`WorkloadSource`] just before they
    /// arrive, instead of all being registered up front. Proven
    /// bit-equal to [`ScenarioSpec::build`] for every scenario (the
    /// `streaming_vs_lockstep` differential family); combine with
    /// [`crate::engine::MetricsRetention::Aggregate`] for constant-memory
    /// runs over unbounded generated traces.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent specifications; use
    /// [`ScenarioSpec::build_streaming_checked`] to handle the error
    /// instead.
    pub fn build_streaming(&self) -> Simulation {
        self.build_streaming_checked()
            .unwrap_or_else(|e| panic!("invalid scenario: {e}"))
    }

    /// Validates and materializes the scenario in streaming mode (see
    /// [`ScenarioSpec::build_streaming`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`ScenarioError`] found by
    /// [`ScenarioSpec::validate`].
    pub fn build_streaming_checked(&self) -> Result<Simulation, ScenarioError> {
        self.validate()?;
        let mut sim = self.empty_simulation();
        sim.attach_source(Box::new(self.workload_source()));
        Ok(sim)
    }

    /// Every submission of the scenario as one time-ordered source: the
    /// classic submissions merged with the generated streams. Both build
    /// modes admit from it — streaming lazily, lock-step up front.
    fn workload_source(&self) -> MergedSource {
        let (mut classic, reserved) = self.classic_submissions();
        // Stable sort: same-instant submissions keep declaration order,
        // and the zero-time txn registrations move ahead of every job —
        // the order the event queue fires them in.
        classic.sort_by(|a, b| a.time().as_secs().total_cmp(&b.time().as_secs()));
        let mut merged = MergedSource::new();
        merged.push(Box::new(ScenarioSource::from_parts(classic, reserved)));
        if self.workload.is_some() {
            merged.push(Box::new(self.generative_source()));
        }
        merged
    }

    /// Materializes every submission the `workload` block generates, in
    /// admission order — the order both build modes assign their
    /// application ids in (time order: zero-time txn registrations
    /// first, then batch jobs by arrival). Intended for
    /// oracles and tests that re-derive per-app expectations from the
    /// spec alone; streaming runs themselves never materialize this
    /// list.
    pub fn generated_submissions(&self) -> Vec<Submission> {
        let mut source = self.generative_source();
        let mut out = Vec::new();
        while let Some(submission) = source.next() {
            out.push(submission);
        }
        out
    }

    /// The classic (`jobs`/`txns`) submissions with their pre-assigned
    /// application ids, in declaration order (all jobs, then all txns —
    /// the id layout every lock-step build has always produced), plus
    /// the size of the id block they reserve.
    fn classic_submissions(&self) -> (Vec<Submission>, u32) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut submissions = Vec::new();
        let mut next = 0u32;
        for group in &self.jobs {
            let extra = self.extra_rigid(&group.resources);
            for arrival in arrival_times(&mut rng, &group.arrivals, group.count) {
                submissions.push(Submission::Job(JobSubmission {
                    id: Some(AppId::new(next)),
                    arrival,
                    work_mcycles: group.work_mcycles,
                    max_speed_mhz: group.max_speed_mhz,
                    memory_mb: group.memory_mb,
                    goal: goal_submission(&group.goal),
                    tasks: group.tasks,
                    class: group.class.clone(),
                    extra_rigid: extra.clone(),
                }));
                next += 1;
            }
        }
        for txn in &self.txns {
            let pattern: Box<dyn dynaplace_txn::workload::ArrivalPattern + Send> = match &txn.rate {
                RateSpec::Constant(rate) => Box::new(ConstantRate(*rate)),
                RateSpec::Steps(steps) => Box::new(StepPattern::new(
                    steps
                        .iter()
                        .map(|&(t, r)| (SimTime::from_secs(t), r))
                        .collect(),
                )),
            };
            submissions.push(Submission::Txn(TxnSubmission {
                id: Some(AppId::new(next)),
                memory_mb: txn.memory_mb,
                max_instances: txn.max_instances,
                demand_mcycles: txn.demand_mcycles,
                floor_secs: txn.floor_secs,
                goal_secs: txn.goal_secs,
                pattern,
                extra_rigid: self.extra_rigid(&txn.resources),
            }));
            next += 1;
        }
        (submissions, next)
    }

    /// The generative source described by the `workload` block (empty
    /// when the scenario has none). Each stream draws from its own RNG
    /// seeded from `(seed, stream index)`, independent of the classic
    /// arrival RNG — so adding a workload block never perturbs the
    /// classic jobs.
    fn generative_source(&self) -> GenerativeSource {
        let mut source = GenerativeSource::new();
        let Some(workload) = &self.workload else {
            return source;
        };
        for txn in &workload.txn_streams {
            source.push_txn(TxnSubmission {
                id: None,
                memory_mb: txn.memory_mb,
                max_instances: txn.max_instances,
                demand_mcycles: txn.demand_mcycles,
                floor_secs: txn.floor_secs,
                goal_secs: txn.goal_secs,
                pattern: txn.curve.to_pattern(),
                extra_rigid: self.extra_rigid(&txn.resources),
            });
        }
        let horizon = self.horizon_secs.map(SimTime::from_secs);
        for (index, stream) in workload.batch_streams.iter().enumerate() {
            source.push_batch(
                stream.process.to_process(),
                JobTemplate {
                    work_mcycles: stream.work_mcycles,
                    max_speed_mhz: stream.max_speed_mhz,
                    memory_mb: stream.memory_mb,
                    goal: goal_submission(&stream.goal),
                    tasks: stream.tasks,
                    class: stream.class.clone(),
                    extra_rigid: self.extra_rigid(&stream.resources),
                },
                GenerativeSource::stream_seed(self.seed, index),
                stream.count,
                horizon,
            );
        }
        source
    }

    /// An empty [`Simulation`] over the scenario's cluster and
    /// configuration, ready for submissions — the part of `build` shared
    /// by the lock-step and streaming modes.
    fn empty_simulation(&self) -> Simulation {
        let mut cluster = Cluster::new();
        if !self.resources.is_empty() {
            cluster.set_dims(
                ResourceDims::with_extra(self.resources.iter().cloned())
                    .expect("validate() accepted the resource registry"),
            );
        }
        for group in &self.nodes {
            // Memory-only groups keep the scalar constructor's exact
            // vector shape; declared dimensions missing from the block
            // contribute zero capacity.
            let mut rigid = vec![group.memory_mb];
            rigid.extend(
                self.resources
                    .iter()
                    .map(|name| group.resources.get(name).copied().unwrap_or(0.0)),
            );
            let mut spec = NodeSpec::try_with_resources(
                CpuSpeed::from_mhz(group.cpu_mhz),
                Resources::new(rigid),
            )
            .expect("valid node capacities");
            if let Some(name) = &group.name {
                spec = spec.with_name(name.clone());
            }
            for _ in 0..group.count {
                cluster.add_node(spec.clone());
            }
        }
        let config = SimConfig {
            cycle: SimDuration::from_secs(self.cycle_secs),
            horizon: self.horizon_secs.map(SimDuration::from_secs),
            costs: if self.free_vm_costs {
                VmCostModel::free()
            } else {
                VmCostModel::default()
            },
            scheduler: {
                let policy = self
                    .resolve_scheduler()
                    .expect("validate() resolved the scheduler");
                if policy.class() == PolicyClass::Apc {
                    let apc = dynaplace_apc::optimizer::ApcConfig::builder()
                        .deadline(self.deadline_secs.map(std::time::Duration::from_secs_f64))
                        .sharding(self.sharding.as_ref().map(ShardingSpec::to_policy))
                        .build()
                        .expect("validated scenario yields a valid APC config");
                    policy.with_apc_config(apc).unwrap_or(policy)
                } else {
                    policy
                }
            },
            node_failures: self.node_failures.iter().map(|f| f.to_outage()).collect(),
            actuation: self.actuation.to_config(),
            observation: self
                .observation
                .as_ref()
                .map(ObservationSpec::to_config)
                .unwrap_or_default(),
            trace: self.trace.to_config(),
            ..SimConfig::apc_default()
        };
        Simulation::new(cluster, config)
    }

    /// A group's extra-rigid demand vector in registry order; empty when
    /// the scenario declares no extra dimensions, so memory-only specs
    /// take the exact legacy code path.
    fn extra_rigid(&self, block: &BTreeMap<String, f64>) -> Vec<f64> {
        if self.resources.is_empty() {
            return Vec::new();
        }
        self.resources
            .iter()
            .map(|name| block.get(name).copied().unwrap_or(0.0))
            .collect()
    }
}

impl ScenarioSpec {
    /// Parses a scenario from its JSON text and validates it, so a bad
    /// file fails at load time rather than silently misbehaving mid-run.
    pub fn from_json_str(text: &str) -> Result<Self, JsonError> {
        let spec = Self::from_json(&Json::parse(text)?)?;
        spec.validate()
            .map_err(|e| JsonError::new(format!("invalid scenario: {e}")))?;
        Ok(spec)
    }

    /// Renders the scenario as pretty-printed JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

// JSON wire format: the one the checked-in scenario files use. Each
// named-field object is one `json_object!` table (keys, read defaults and
// omission rules) and each tagged enum one `json_enum!` table (a single
// snake_case key); optional blocks and extras are omitted when unused so
// older scenarios render byte-identically. Only the untagged
// constant-or-steps rate and the node-failure arrays are hand-written.

/// Canonicalizes legacy scalars out of a group's `resources` block, in
/// front of the group's field table. A scalar may sit at the top level
/// (the historical layout) or inside `resources`; the top level wins
/// when both are present, and the block entry is consumed either way so
/// only true extras remain in the map. A group with no such block entry
/// is borrowed unchanged.
fn canonical_scalars<'a>(v: &'a Json, keys: &[&str]) -> Cow<'a, Json> {
    let (Json::Obj(fields), Some(Json::Obj(block))) = (v, v.get("resources")) else {
        return Cow::Borrowed(v);
    };
    if !block.iter().any(|(key, _)| keys.contains(&key.as_str())) {
        return Cow::Borrowed(v);
    }
    let mut fields: Vec<(String, Json)> = fields
        .iter()
        .filter(|(key, _)| key != "resources")
        .cloned()
        .collect();
    let mut extras = Vec::new();
    for (key, value) in block {
        if !keys.contains(&key.as_str()) {
            extras.push((key.clone(), value.clone()));
        } else if v.get(key).is_none() {
            fields.push((key.clone(), value.clone()));
        }
    }
    fields.push(("resources".to_string(), Json::Obj(extras)));
    Cow::Owned(Json::Obj(fields))
}

fn node_scalars(v: &Json) -> Cow<'_, Json> {
    canonical_scalars(v, &["cpu_mhz", "memory_mb"])
}

fn app_scalars(v: &Json) -> Cow<'_, Json> {
    canonical_scalars(v, &["memory_mb"])
}

json_object!(NodeGroupSpec, read_via = node_scalars {
    count,
    name: default omit_if none,
    cpu_mhz,
    memory_mb,
    resources: default omit_if empty,
});

json_object!(JobGroupSpec, read_via = app_scalars {
    count,
    name: default omit_if none,
    work_mcycles,
    max_speed_mhz,
    memory_mb,
    goal,
    arrivals,
    tasks: default(1),
    class: default,
    resources: default omit_if empty,
});

json_object!(TxnSpec, read_via = app_scalars {
    name: default omit_if none,
    rate,
    demand_mcycles,
    floor_secs,
    goal_secs,
    memory_mb,
    max_instances,
    resources: default omit_if empty,
});

json_object!(WorkloadSpec {
    batch_streams: default,
    txn_streams: default,
});

json_object!(BatchStreamSpec {
    name: default omit_if none,
    process,
    count: default,
    work_mcycles,
    max_speed_mhz,
    memory_mb,
    goal,
    tasks: default(1),
    class: default,
    resources: default omit_if empty,
});

json_object!(TxnStreamSpec {
    name: default omit_if none,
    curve,
    demand_mcycles,
    floor_secs,
    goal_secs,
    memory_mb,
    max_instances,
    resources: default omit_if empty,
});

json_object!(ActuationSpec: Default {
    failure_rate,
    latency_jitter,
    timeout_secs,
    fail_until_secs,
    seed,
    base_backoff_secs,
    backoff_factor,
    max_backoff_secs,
    quarantine_after,
    quarantine_secs,
    fallback_after,
});

json_object!(ObservationSpec: Default {
    heartbeat_loss,
    max_staleness_cycles,
    noise,
    loss_until_secs,
    seed,
    suspect_after,
    dead_after,
    reinstate_after,
    ewma_alpha,
    headroom,
    staleness_budget_cycles,
    degraded_mode,
});

json_object!(TraceSpec: Default { path, level });

json_object!(ShardingSpec {
    cell_size,
    rebalance_moves: default(default_rebalance_moves()),
    rebalance_threshold: default(default_rebalance_threshold()),
});

json_object!(ScenarioSpec {
    seed: default,
    scheduler,
    cycle_secs,
    horizon_secs: default,
    free_vm_costs: default,
    resources: default omit_if empty,
    nodes,
    jobs,
    txns,
    workload: default omit_if none,
    node_failures: default,
    actuation: default,
    deadline_secs: default,
    sharding: default,
    observation: default omit_if none,
    trace: default,
});

json_enum!(ArrivalSpec {
    Exponential = "exponential" { mean_secs },
    Periodic = "periodic" { every_secs },
    At = "at" (Vec<f64>),
});

json_enum!(GoalSpec {
    Factor = "factor" (f64),
    RelativeSecs = "relative_secs" (f64),
});

json_enum!(ProcessSpec {
    Poisson = "poisson" { rate_per_sec },
    Mmpp = "mmpp" { states },
    Diurnal = "diurnal" { base_rate_per_sec, amplitude, period_secs },
    FlashCrowd = "flash_crowd" { base_rate_per_sec, multiplier, every_secs, duration_secs },
});

json_enum!(TxnCurveSpec {
    Constant = "constant" { rate_per_sec },
    Diurnal = "diurnal" { base_rate_per_sec, amplitude_per_sec, period_secs },
    Population = "population" { users, think_time_secs },
});

impl ToJson for NodeFailureSpec {
    fn to_json(&self) -> Json {
        let mut parts = vec![self.at_secs.to_json(), f64::from(self.node).to_json()];
        if let Some(duration) = self.duration_secs {
            parts.push(duration.to_json());
        }
        Json::Arr(parts)
    }
}

impl FromJson for NodeFailureSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let Json::Arr(parts) = v else {
            return Err(JsonError::new(
                "node failure must be [offset_secs, node] or [offset_secs, node, duration_secs]",
            ));
        };
        if parts.len() != 2 && parts.len() != 3 {
            return Err(JsonError::new(format!(
                "node failure must have 2 or 3 elements, got {}",
                parts.len()
            )));
        }
        Ok(NodeFailureSpec {
            at_secs: f64::from_json(&parts[0])?,
            node: u32::from_json(&parts[1])?,
            duration_secs: parts.get(2).map(f64::from_json).transpose()?,
        })
    }
}

impl ToJson for RateSpec {
    fn to_json(&self) -> Json {
        match self {
            RateSpec::Constant(rate) => rate.to_json(),
            RateSpec::Steps(steps) => steps.to_json(),
        }
    }
}

impl FromJson for RateSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Num(rate) => Ok(RateSpec::Constant(*rate)),
            Json::Arr(_) => Ok(RateSpec::Steps(Vec::from_json(v)?)),
            _ => Err(JsonError::new(
                "rate must be a number or a list of (secs, rate) steps",
            )),
        }
    }
}

/// Converts a scenario goal into its submission form.
fn goal_submission(goal: &GoalSpec) -> GoalSubmission {
    match goal {
        GoalSpec::Factor(f) => GoalSubmission::Factor(*f),
        GoalSpec::RelativeSecs(s) => GoalSubmission::RelativeSecs(*s),
    }
}

fn arrival_times(rng: &mut StdRng, spec: &ArrivalSpec, count: usize) -> Vec<SimTime> {
    match spec {
        ArrivalSpec::Exponential { mean_secs } => {
            let mut t = SimTime::ZERO;
            (0..count)
                .map(|_| {
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    t += SimDuration::from_secs(-mean_secs * u.ln());
                    t
                })
                .collect()
        }
        ArrivalSpec::Periodic { every_secs } => (0..count)
            .map(|i| SimTime::from_secs(i as f64 * every_secs))
            .collect(),
        ArrivalSpec::At(times) => times.iter().map(|&t| SimTime::from_secs(t)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(scheduler: &str) -> ScenarioSpec {
        ScenarioSpec {
            seed: 1,
            scheduler: scheduler.to_string(),
            cycle_secs: 10.0,
            horizon_secs: Some(10_000.0),
            free_vm_costs: true,
            resources: vec![],
            nodes: vec![NodeGroupSpec {
                count: 2,
                name: None,
                cpu_mhz: 2_000.0,
                memory_mb: 4_000.0,
                resources: BTreeMap::new(),
            }],
            jobs: vec![JobGroupSpec {
                count: 4,
                name: None,
                work_mcycles: 20_000.0,
                max_speed_mhz: 1_000.0,
                memory_mb: 1_000.0,
                goal: GoalSpec::Factor(4.0),
                arrivals: ArrivalSpec::Periodic { every_secs: 15.0 },
                tasks: 1,
                class: None,
                resources: BTreeMap::new(),
            }],
            txns: vec![],
            workload: None,
            node_failures: vec![],
            actuation: ActuationSpec::default(),
            deadline_secs: None,
            sharding: None,
            observation: None,
            trace: TraceSpec::default(),
        }
    }

    #[test]
    fn builds_and_runs_every_scheduler() {
        for scheduler in ["apc", "fcfs", "edf"] {
            let metrics = minimal(scheduler).build().run();
            assert_eq!(metrics.completions.len(), 4, "{scheduler:?}");
        }
    }

    #[test]
    fn unknown_policy_is_a_typed_error_with_a_suggestion() {
        let spec = minimal("apx");
        match spec.build_checked() {
            Err(ScenarioError::UnknownPolicy { name, suggestion }) => {
                assert_eq!(name, "apx");
                assert_eq!(suggestion.as_deref(), Some("apc"));
            }
            Err(other) => panic!("expected UnknownPolicy, got {other:?}"),
            Ok(_) => panic!("expected UnknownPolicy, got a simulation"),
        }
        let msg = spec.validate().unwrap_err().to_string();
        assert!(msg.contains("did you mean \"apc\"?"), "{msg}");
        assert!(msg.contains("registered policies"), "{msg}");
    }

    #[test]
    fn aliases_resolve_in_scenarios() {
        // The registry's alias layer works end to end from a spec.
        let metrics = minimal("VBP").build().run();
        assert_eq!(metrics.completions.len(), 4);
    }

    #[test]
    fn round_trips_through_json() {
        let spec = minimal("apc");
        let json = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&json).unwrap();
        let a = spec.build().run();
        let b = back.build().run();
        assert_eq!(a.completions.len(), b.completions.len());
        for (x, y) in a.completions.iter().zip(&b.completions) {
            assert_eq!(x.completion, y.completion);
        }
    }

    #[test]
    fn explicit_arrivals_and_relative_goals() {
        let mut spec = minimal("apc");
        spec.jobs[0].arrivals = ArrivalSpec::At(vec![0.0, 5.0, 7.5]);
        spec.jobs[0].count = 3;
        spec.jobs[0].goal = GoalSpec::RelativeSecs(500.0);
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 3);
        assert!(metrics.completions.iter().all(|c| c.met_deadline));
    }

    #[test]
    fn parallel_group_under_apc() {
        let mut spec = minimal("apc");
        spec.jobs[0].tasks = 2;
        spec.jobs[0].count = 2;
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 2);
    }

    #[test]
    fn out_of_range_node_failure_is_a_typed_error() {
        let mut spec = minimal("apc");
        spec.node_failures = vec![NodeFailureSpec {
            at_secs: 30.0,
            node: 7, // cluster has 2 nodes
            duration_secs: None,
        }];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::NodeFailureOutOfRange {
                failure_index: 0,
                node: 7,
                nodes: 2,
            })
        );
        let err = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap_err();
        assert!(err.message.contains("node_failures[0]"), "{}", err.message);
    }

    #[test]
    fn failure_rate_of_one_is_rejected() {
        let mut spec = minimal("apc");
        spec.actuation.failure_rate = 1.0;
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::FailureRateOutOfRange { rate: 1.0 })
        );
    }

    #[test]
    fn parallel_jobs_under_baseline_rejected_at_load_time() {
        let mut spec = minimal("fcfs");
        spec.jobs[0].tasks = 2;
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::ParallelJobsNeedApc { group_index: 0 })
        );
    }

    #[test]
    fn sharding_block_round_trips_and_validates() {
        let mut spec = minimal("apc");
        spec.sharding = Some(ShardingSpec::new(1));
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.sharding, spec.sharding);

        // Omitted rebalance fields fall back to the policy defaults.
        let json = r#"{
            "scheduler": "apc", "cycle_secs": 10.0,
            "nodes": [{ "count": 2, "cpu_mhz": 2000.0, "memory_mb": 4000.0 }],
            "jobs": [], "txns": [],
            "sharding": { "cell_size": 8 }
        }"#;
        let parsed = ScenarioSpec::from_json_str(json).unwrap();
        assert_eq!(parsed.sharding, Some(ShardingSpec::new(8)));

        // Degenerate blocks and baseline schedulers are load-time errors.
        spec.sharding = Some(ShardingSpec::new(0));
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::InvalidSharding { .. })
        ));
        let mut baseline = minimal("fcfs");
        baseline.sharding = Some(ShardingSpec::new(1));
        assert!(matches!(
            baseline.validate(),
            Err(ScenarioError::InvalidSharding { .. })
        ));
        let mut nan = minimal("apc");
        nan.sharding = Some(ShardingSpec {
            cell_size: 1,
            rebalance_moves: 2,
            rebalance_threshold: f64::NAN,
        });
        assert!(matches!(
            nan.validate(),
            Err(ScenarioError::InvalidSharding { .. })
        ));
    }

    #[test]
    fn sharded_scenario_builds_and_completes_jobs() {
        let mut spec = minimal("apc");
        spec.sharding = Some(ShardingSpec::new(1));
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 4);
    }

    #[test]
    fn node_failure_wire_formats_round_trip() {
        let permanent = NodeFailureSpec {
            at_secs: 30.0,
            node: 1,
            duration_secs: None,
        };
        let transient = NodeFailureSpec {
            at_secs: 30.0,
            node: 1,
            duration_secs: Some(600.0),
        };
        assert_eq!(permanent.to_json(), Json::parse("[30.0, 1]").unwrap());
        assert_eq!(
            transient.to_json(),
            Json::parse("[30.0, 1, 600.0]").unwrap()
        );
        for spec in [permanent, transient] {
            let back = NodeFailureSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
        // The historical 2-element tuples still parse.
        let legacy = Json::parse("[[45.5, 0]]").unwrap();
        let parsed = Vec::<NodeFailureSpec>::from_json(&legacy).unwrap();
        assert_eq!(parsed[0].at_secs, 45.5);
        assert_eq!(parsed[0].duration_secs, None);
    }

    /// Decodes `text` as a `T`, which must fail with an error
    /// containing `needle`.
    fn rejects<T: FromJson + std::fmt::Debug>(text: &str, needle: &str) {
        let err = T::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.message.contains(needle), "{text}: {}", err.message);
    }

    #[test]
    fn tagged_object_with_several_keys_is_rejected() {
        // Used to decode as `Factor(2.0)`: the probe order picked a key.
        rejects::<GoalSpec>(
            r#"{"factor": 2.0, "relative_secs": 600.0}"#,
            r#"exactly one key of factor|relative_secs, got {"factor":2.0,"relative_secs":600.0}"#,
        );
        // Used to decode as `Poisson`, whatever the document's order.
        rejects::<ProcessSpec>(
            r#"{"diurnal": {"base_rate_per_sec": 1.0, "amplitude": 0.5, "period_secs": 60.0},
                "poisson": {"rate_per_sec": 1.0}}"#,
            "exactly one key of poisson|mmpp|diurnal|flash_crowd, got {\"diurnal\":{",
        );
    }

    #[test]
    fn tagged_object_with_no_key_or_an_unknown_key_is_rejected() {
        rejects::<ArrivalSpec>(
            "{}",
            "expected an object with exactly one key of exponential|periodic|at, got {}",
        );
        rejects::<TxnCurveSpec>(
            "[]",
            "exactly one key of constant|diurnal|population, got []",
        );
        rejects::<ProcessSpec>(
            r#"{"weibull": {"shape": 2.0}}"#,
            "unknown name \"weibull\", expected one of poisson|mmpp|diurnal|flash_crowd",
        );
        // A field error names the variant and the field.
        rejects::<ArrivalSpec>(
            r#"{"periodic": {"every": 15.0}}"#,
            "periodic: missing field 'every_secs'",
        );
    }

    #[test]
    fn actuation_block_defaults_to_exactly_off() {
        // A scenario without an actuation block gets the exactly-off
        // default, and the default round-trips unchanged.
        let spec = minimal("apc");
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.actuation, ActuationSpec::default());
        assert_eq!(back.deadline_secs, None);
        // A partial block inherits every other default.
        let partial = Json::parse(r#"{ "failure_rate": 0.25 }"#).unwrap();
        let parsed = ActuationSpec::from_json(&partial).unwrap();
        assert_eq!(parsed.failure_rate, 0.25);
        assert_eq!(
            parsed.backoff_factor,
            ActuationSpec::default().backoff_factor
        );
    }

    #[test]
    fn trace_block_defaults_to_off_and_round_trips() {
        // No trace block: off, and the default round-trips unchanged.
        let spec = minimal("apc");
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.trace, TraceSpec::default());
        assert_eq!(back.trace.path, None);
        // A partial block inherits the decisions default level.
        let partial = Json::parse(r#"{ "path": "out.jsonl" }"#).unwrap();
        let parsed = TraceSpec::from_json(&partial).unwrap();
        assert_eq!(parsed.path.as_deref(), Some("out.jsonl"));
        assert_eq!(parsed.level, "decisions");
    }

    #[test]
    fn unknown_trace_level_is_a_typed_error() {
        let mut spec = minimal("apc");
        spec.trace.level = "chatty".to_string();
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::UnknownTraceLevel {
                level: "chatty".to_string(),
            })
        );
        let err = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap_err();
        assert!(err.message.contains("trace.level"), "{}", err.message);
    }

    #[test]
    fn non_finite_times_are_rejected_at_load_time() {
        // A NaN explicit arrival used to reach the FCFS/EDF sort and
        // panic mid-run; now it is a typed load-time error.
        let mut spec = minimal("fcfs");
        spec.jobs[0].arrivals = ArrivalSpec::At(vec![0.0, f64::NAN]);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, value })
                if field == "jobs[0].arrivals.at[1]" && value.is_nan()
        ));

        let mut spec = minimal("edf");
        spec.jobs[0].goal = GoalSpec::RelativeSecs(f64::INFINITY);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, .. })
                if field == "jobs[0].goal.relative_secs"
        ));

        let mut spec = minimal("apc");
        spec.cycle_secs = f64::NAN;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, .. }) if field == "cycle_secs"
        ));
    }

    #[test]
    fn transient_failure_recovers_and_jobs_complete() {
        let mut spec = minimal("apc");
        spec.free_vm_costs = false;
        spec.node_failures = vec![NodeFailureSpec {
            at_secs: 40.0,
            node: 0,
            duration_secs: Some(200.0),
        }];
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 4);
    }

    #[test]
    fn txn_steps_pattern() {
        let mut spec = minimal("apc");
        spec.txns = vec![TxnSpec {
            name: None,
            rate: RateSpec::Steps(vec![(0.0, 10.0), (100.0, 50.0)]),
            demand_mcycles: 10.0,
            floor_secs: 0.005,
            goal_secs: 0.05,
            memory_mb: 500.0,
            max_instances: 2,
            resources: BTreeMap::new(),
        }];
        let metrics = spec.build().run();
        assert!(metrics.samples.iter().any(|s| s.txn_rp.is_some()));
    }

    #[test]
    fn duplicate_names_are_typed_errors() {
        // Node groups sharing a name.
        let mut spec = minimal("apc");
        spec.nodes[0].name = Some("rack".to_string());
        spec.nodes.push(spec.nodes[0].clone());
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::DuplicateName {
                kind: "nodes",
                name: "rack".to_string(),
            })
        );

        // A job and a txn collide in the shared application namespace.
        let mut spec = minimal("apc");
        spec.jobs[0].name = Some("web".to_string());
        spec.txns = vec![TxnSpec {
            name: Some("web".to_string()),
            rate: RateSpec::Constant(5.0),
            demand_mcycles: 10.0,
            floor_secs: 0.005,
            goal_secs: 0.05,
            memory_mb: 500.0,
            max_instances: 2,
            resources: BTreeMap::new(),
        }];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::DuplicateName {
                kind: "applications",
                name: "web".to_string(),
            })
        );

        // Distinct names (and the all-anonymous default) stay valid.
        spec.txns[0].name = Some("db".to_string());
        assert_eq!(spec.validate(), Ok(()));
        assert_eq!(minimal("apc").validate(), Ok(()));
    }

    #[test]
    fn undeclared_resource_is_a_typed_error() {
        let mut spec = minimal("apc");
        spec.jobs[0].resources.insert("disk_mb".to_string(), 100.0);
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::UnknownResource {
                field: "jobs[0].resources".to_string(),
                name: "disk_mb".to_string(),
            })
        );
        // Declaring the dimension fixes it; nodes default to zero
        // capacity for it, which is still structurally valid.
        spec.resources = vec!["disk_mb".to_string()];
        assert_eq!(spec.validate(), Ok(()));
        // Restating the implicit memory dimension is rejected.
        spec.resources = vec!["disk_mb".to_string(), "memory_mb".to_string()];
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::InvalidResources { .. })
        ));
    }

    #[test]
    fn multi_resource_scenario_builds_runs_and_round_trips() {
        let mut spec = minimal("apc");
        spec.resources = vec!["disk_mb".to_string(), "net_mbps".to_string()];
        spec.nodes[0].resources = BTreeMap::from([
            ("disk_mb".to_string(), 10_000.0),
            ("net_mbps".to_string(), 1_000.0),
        ]);
        spec.jobs[0]
            .resources
            .insert("disk_mb".to_string(), 2_000.0);
        spec.txns = vec![TxnSpec {
            name: Some("frontend".to_string()),
            rate: RateSpec::Constant(20.0),
            demand_mcycles: 10.0,
            floor_secs: 0.005,
            goal_secs: 0.05,
            memory_mb: 500.0,
            max_instances: 2,
            resources: BTreeMap::from([("net_mbps".to_string(), 200.0)]),
        }];
        let metrics = spec.build().run();
        assert_eq!(metrics.completions.len(), 4);
        // Per-dimension utilization is sampled for the extra dimensions.
        assert!(metrics
            .samples
            .iter()
            .any(|s| s.rigid_utilization.iter().any(|r| r.dim == "disk_mb")));
        let back = ScenarioSpec::from_json_str(&spec.to_json_string()).unwrap();
        assert_eq!(back.resources, spec.resources);
        assert_eq!(back.nodes[0].resources, spec.nodes[0].resources);
        assert_eq!(back.txns[0].resources, spec.txns[0].resources);
    }

    #[test]
    fn zero_node_fleet_is_rejected_like_an_empty_one() {
        // `nodes: [{count: 0, ...}]` parses fine but builds an empty
        // cluster; it must fail exactly like a missing nodes list.
        let mut spec = minimal("apc");
        spec.nodes[0].count = 0;
        assert_eq!(spec.validate(), Err(ScenarioError::NoNodes));
        spec.nodes.clear();
        assert_eq!(spec.validate(), Err(ScenarioError::NoNodes));
    }

    #[test]
    fn node_total_beyond_u32_id_space_is_rejected() {
        let mut spec = minimal("apc");
        spec.nodes[0].count = u32::MAX as usize;
        spec.nodes.push(NodeGroupSpec {
            count: 2,
            name: None,
            cpu_mhz: 1_000.0,
            memory_mb: 1_000.0,
            resources: BTreeMap::new(),
        });
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::TooManyNodes {
                nodes: u32::MAX as usize + 2,
            })
        );
    }

    #[test]
    fn zero_cycle_secs_is_rejected() {
        // A zero control cycle would re-arm forever without advancing
        // simulated time.
        let mut spec = minimal("apc");
        spec.cycle_secs = 0.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. }) if field == "cycle_secs"
        ));
    }

    #[test]
    fn negative_node_capacity_is_a_typed_error_not_a_build_panic() {
        // Negative capacities used to reach NodeSpec::try_with_resources
        // and panic via its expect() inside build().
        let mut spec = minimal("apc");
        spec.nodes[0].memory_mb = -1.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NegativeNumber { ref field, value })
                if field == "nodes[0].memory_mb" && value == -1.0
        ));
        assert!(spec.build_checked().is_err());
    }

    #[test]
    fn empty_registry_with_resource_blocks_is_rejected() {
        // With no top-level `resources` list, any per-group block is
        // necessarily undeclared: the demand would silently bind to
        // nothing.
        let mut spec = minimal("apc");
        assert!(spec.resources.is_empty());
        spec.nodes[0]
            .resources
            .insert("gpu_ram_mb".to_string(), 8_000.0);
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::UnknownResource {
                field: "nodes[0].resources".to_string(),
                name: "gpu_ram_mb".to_string(),
            })
        );
    }

    #[test]
    fn zero_tasks_and_zero_max_instances_are_rejected() {
        // `tasks: 0` used to silently degrade to an ordinary job.
        let mut spec = minimal("apc");
        spec.jobs[0].tasks = 0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. }) if field == "jobs[0].tasks"
        ));

        // A txn capped at zero instances can never be placed at all.
        let mut spec = minimal("apc");
        spec.txns = vec![TxnSpec {
            name: None,
            rate: RateSpec::Constant(5.0),
            demand_mcycles: 10.0,
            floor_secs: 0.005,
            goal_secs: 0.05,
            memory_mb: 500.0,
            max_instances: 0,
            resources: BTreeMap::new(),
        }];
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. })
                if field == "txns[0].max_instances"
        ));
    }

    #[test]
    fn degenerate_arrival_processes_are_rejected() {
        // A non-positive exponential mean draws negative inter-arrival
        // gaps: simulated time would run backwards.
        let mut spec = minimal("apc");
        spec.jobs[0].arrivals = ArrivalSpec::Exponential { mean_secs: 0.0 };
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. })
                if field == "jobs[0].arrivals.exponential.mean_secs"
        ));
        spec.jobs[0].arrivals = ArrivalSpec::At(vec![10.0, -5.0]);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NegativeNumber { ref field, .. })
                if field == "jobs[0].arrivals.at[1]"
        ));
        // An all-at-once burst (zero periodic spacing) stays legal.
        spec.jobs[0].arrivals = ArrivalSpec::Periodic { every_secs: 0.0 };
        assert_eq!(spec.validate(), Ok(()));
    }

    #[test]
    fn degenerate_optimizer_deadline_is_rejected() {
        // Duration::from_secs_f64 panics on negatives and NaN; both now
        // fail at load time instead.
        let mut spec = minimal("apc");
        spec.deadline_secs = Some(-0.5);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. }) if field == "deadline_secs"
        ));
        spec.deadline_secs = Some(f64::NAN);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, .. }) if field == "deadline_secs"
        ));
    }

    #[test]
    fn degenerate_actuation_timings_are_rejected() {
        let mut spec = minimal("apc");
        spec.actuation.base_backoff_secs = -1.0;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NegativeNumber { ref field, .. })
                if field == "actuation.base_backoff_secs"
        ));
        let mut spec = minimal("apc");
        spec.actuation.timeout_secs = Some(0.0);
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonPositiveNumber { ref field, .. })
                if field == "actuation.timeout_secs"
        ));
        let mut spec = minimal("apc");
        spec.actuation.quarantine_secs = f64::INFINITY;
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::NonFiniteNumber { ref field, .. })
                if field == "actuation.quarantine_secs"
        ));
    }

    #[test]
    fn partial_observation_block_fills_defaults_and_activates() {
        let json = r#"{
            "scheduler": "apc", "cycle_secs": 10.0, "horizon_secs": 500.0,
            "nodes": [{ "count": 2, "cpu_mhz": 2000.0, "memory_mb": 4000.0 }],
            "jobs": [], "txns": [],
            "observation": { "heartbeat_loss": 0.2, "seed": 9 }
        }"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        let o = spec.observation.as_ref().unwrap();
        assert_eq!(o.heartbeat_loss, 0.2);
        assert_eq!(o.seed, 9);
        // Unstated knobs take the exactly-off defaults.
        assert_eq!(o.suspect_after, ObservationConfig::default().suspect_after);
        assert_eq!(o.dead_after, ObservationConfig::default().dead_after);
        assert_eq!(o.ewma_alpha, 1.0);
        assert_eq!(o.degraded_mode, "hold");
        assert!(o.to_config().is_active());
        // No block at all renders without the key, keeping legacy
        // scenario files byte-stable, and builds an inactive config.
        let legacy = minimal("apc");
        assert!(!legacy.to_json_string().contains("observation"));
        assert!(!ObservationConfig::default().is_active());
    }

    #[test]
    fn observation_round_trips_through_json() {
        let mut spec = minimal("apc");
        spec.observation = Some(ObservationSpec {
            heartbeat_loss: 0.3,
            max_staleness_cycles: 2,
            noise: 0.1,
            loss_until_secs: Some(400.0),
            seed: 11,
            suspect_after: 2,
            dead_after: 5,
            reinstate_after: 3,
            ewma_alpha: 0.5,
            headroom: 0.1,
            staleness_budget_cycles: 1,
            degraded_mode: "fill_only".to_string(),
        });
        let text = spec.to_json_string();
        let back = ScenarioSpec::from_json_str(&text).unwrap();
        assert_eq!(back.observation, spec.observation);
    }

    #[test]
    fn degenerate_observation_blocks_are_rejected() {
        type Mutation = fn(&mut ObservationSpec);
        let cases: &[(&str, Mutation)] = &[
            ("heartbeat_loss", |o| o.heartbeat_loss = 1.0),
            ("heartbeat_loss", |o| o.heartbeat_loss = -0.1),
            ("noise", |o| o.noise = 1.5),
            ("noise", |o| o.noise = f64::NAN),
            ("ewma_alpha", |o| o.ewma_alpha = 0.0),
            ("ewma_alpha", |o| o.ewma_alpha = 1.5),
            ("headroom", |o| o.headroom = -0.5),
            ("suspect_after", |o| o.suspect_after = 0),
            ("dead_after", |o| o.dead_after = 2),
            ("reinstate_after", |o| o.reinstate_after = 0),
            ("loss_until_secs", |o| o.loss_until_secs = Some(-1.0)),
            ("degraded_mode", |o| o.degraded_mode = "panic".to_string()),
        ];
        for (what, mutate) in cases {
            let mut spec = minimal("apc");
            let mut o = ObservationSpec::default();
            mutate(&mut o);
            spec.observation = Some(o);
            assert!(
                matches!(
                    spec.validate(),
                    Err(ScenarioError::InvalidObservation { .. })
                ),
                "{what} should be rejected"
            );
        }
        // And the layer is APC-only, like sharding.
        let mut spec = minimal("fcfs");
        spec.observation = Some(ObservationSpec::default());
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::InvalidObservation { ref message })
                if message.contains("apc")
        ));
    }

    #[test]
    fn legacy_scalars_canonicalize_out_of_the_resources_block() {
        // cpu_mhz / memory_mb may live inside the resources block; they
        // hoist to the dedicated fields and leave only true extras.
        let json = r#"{
            "scheduler": "apc", "cycle_secs": 10.0, "horizon_secs": 500.0,
            "resources": ["disk_mb"],
            "nodes": [{ "count": 2,
                        "resources": { "cpu_mhz": 2000.0, "memory_mb": 4000.0,
                                       "disk_mb": 8000.0 } }],
            "jobs": [], "txns": []
        }"#;
        let spec = ScenarioSpec::from_json_str(json).unwrap();
        assert_eq!(spec.nodes[0].cpu_mhz, 2_000.0);
        assert_eq!(spec.nodes[0].memory_mb, 4_000.0);
        assert_eq!(
            spec.nodes[0].resources,
            BTreeMap::from([("disk_mb".to_string(), 8_000.0)])
        );
        // The top level wins over the block, whose entry is consumed
        // either way; jobs and txns canonicalize memory_mb only.
        let group = |json: &str| JobGroupSpec::from_json(&Json::parse(json).unwrap());
        let job = group(
            r#"{ "count": 1, "work_mcycles": 1.0, "max_speed_mhz": 1.0,
                 "memory_mb": 64.0, "goal": { "factor": 2.0 },
                 "arrivals": { "at": [0.0] },
                 "resources": { "memory_mb": 1.0, "disk_mb": 5.0 } }"#,
        )
        .unwrap();
        assert_eq!(job.memory_mb, 64.0);
        assert_eq!(
            job.resources,
            BTreeMap::from([("disk_mb".to_string(), 5.0)])
        );
        let txn = TxnSpec::from_json(
            &Json::parse(
                r#"{ "rate": 1.0, "demand_mcycles": 1.0, "floor_secs": 0.1,
                     "goal_secs": 1.0, "max_instances": 1,
                     "resources": { "memory_mb": 32.0, "cpu_mhz": 7.0 } }"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(txn.memory_mb, 32.0);
        assert_eq!(
            txn.resources,
            BTreeMap::from([("cpu_mhz".to_string(), 7.0)])
        );
        let err = NodeGroupSpec::from_json(
            &Json::parse(r#"{ "count": 1, "resources": { "memory_mb": 1.0 } }"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(err.message, "missing field 'cpu_mhz'");
        // Memory-only scenarios render without any resources fields, so
        // checked-in legacy files and goldens stay byte-stable.
        let legacy = minimal("apc");
        let text = legacy.to_json_string();
        assert!(!text.contains("resources"), "{text}");
    }
}
