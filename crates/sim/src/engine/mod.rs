//! The discrete-event cluster simulator.
//!
//! Reproduces the evaluation vehicle of §5: a virtualized cluster on
//! which batch jobs and transactional applications are placed by a
//! pluggable [`dynaplace_apc::PlacementPolicy`] — the paper's placement
//! controller (APC), one of the reservation baselines (FCFS, EDF,
//! static partition), or any policy from the registry — with VM control
//! operations charged according to the measured cost model.
//!
//! The simulation is event-driven and fully deterministic: job arrivals,
//! projected job completions, and periodic control cycles are the only
//! event sources, and all state lives in ordered maps.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dynaplace_apc::optimizer::{ApcConfig, PlacementOutcome};
use dynaplace_apc::policy::baselines::{EdfPolicy, FcfsPolicy};
use dynaplace_apc::policy::{PolicyClass, PolicyHandle};
use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_batch::class_profiler::JobClassProfiler;
use dynaplace_batch::hypothetical::{HypotheticalRpf, JobSnapshot};
use dynaplace_batch::job::{JobProfile, JobSpec};
use dynaplace_batch::state::{JobState, JobStatus};
use dynaplace_model::app::ApplicationSpec;
use dynaplace_model::cluster::{AppSet, Cluster};
use dynaplace_model::delta::PlacementAction;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::load::LoadDistribution;
use dynaplace_model::placement::Placement;
use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime, Work};
use dynaplace_rpf::goal::{CompletionGoal, ResponseTimeGoal};
use dynaplace_rpf::value::Rp;
use dynaplace_trace::{JsonlSink, NoopSink, Phase, TraceConfig, TraceEvent, TraceLevel, TraceSink};
use dynaplace_txn::model::{TxnPerformanceModel, TxnWorkload};
use dynaplace_txn::router::RequestRouter;
use dynaplace_txn::workload::ArrivalPattern;

use crate::actuation::{ActuationConfig, ActuationState, OpAttempt, OpOutcome};
use crate::costs::{VmCostModel, VmOperation};
use crate::events::{EventKind, EventQueue};
use crate::metrics::{CompletionRecord, CycleSample, RunMetrics, StarvationReport};
use crate::observe::{
    DegradedMode, HealthTransition, JobView, ObservationConfig, ObservationState, TxnView,
};
use crate::source::{GoalSubmission, JobSubmission, Submission, TxnSubmission, WorkloadSource};

/// A config-derived buffering trace sink paired with the path it is
/// flushed to at end of run.
type FileSink = (Arc<JsonlSink>, String);

/// Work remaining below this is considered complete (floating point
/// slack, in megacycles).
const COMPLETION_EPS: f64 = 1e-6;

mod config;
mod cycle;
mod progress;
mod reconcile;
mod sample;
mod telemetry;

pub use config::{EstimationNoise, MetricsRetention, NodeOutage, SimConfig};

#[derive(Debug)]
struct Job {
    spec: JobSpec,
    profile: Arc<dynaplace_batch::job::JobProfile>,
    state: JobState,
    node: Option<NodeId>,
    allocation: CpuSpeed,
    /// Progress is frozen until this instant (VM operation in flight).
    transition_until: SimTime,
    /// Invalidates stale completion events.
    generation: u64,
    arrived: bool,
    ever_started: bool,
    /// Concurrent task instances (1 for ordinary jobs).
    parallelism: u32,
}

impl Job {
    fn is_live(&self) -> bool {
        self.arrived && self.state.status().is_live()
    }

    fn is_running(&self) -> bool {
        self.arrived && self.state.status() == JobStatus::Running
    }
}

/// A managed transactional application.
struct TxnApp {
    demand_per_request: f64,
    floor: SimDuration,
    goal: ResponseTimeGoal,
    pattern: Box<dyn ArrivalPattern + Send>,
    router: RequestRouter,
    /// Online per-request demand estimator (work profiler, §3.1).
    profiler: dynaplace_txn::profiler::WorkProfiler,
    /// Observation counter driving the deterministic measurement error.
    observations: u64,
}

impl std::fmt::Debug for TxnApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnApp")
            .field("demand_per_request", &self.demand_per_request)
            .field("floor", &self.floor)
            .finish_non_exhaustive()
    }
}

/// The simulator.
///
/// Build with [`Simulation::new`], register workloads with
/// [`Simulation::add_job`] / [`Simulation::add_txn`], then call
/// [`Simulation::run`].
#[derive(Debug)]
pub struct Simulation {
    cluster: Cluster,
    apps: AppSet,
    config: SimConfig,
    jobs: BTreeMap<AppId, Job>,
    txns: BTreeMap<AppId, TxnApp>,
    /// The *actual* placement: what the (fallible) actuation layer has
    /// really applied to the cluster.
    placement: Placement,
    load: LoadDistribution,
    /// The *desired* placement: the controller's latest decision. Equal
    /// to `placement` whenever every operation actuated; the
    /// reconciliation loop works off the diff when they diverge.
    desired: Placement,
    /// The load distribution the controller intended for `desired`.
    desired_load: LoadDistribution,
    /// Backoff / quarantine bookkeeping of the actuation layer.
    actuation: ActuationState,
    /// Consecutive control cycles that started with unreconciled actions
    /// (drives the `fill_only` fallback).
    stalled_cycles: u32,
    /// Fingerprint of the progress-relevant state at the end of the last
    /// control cycle, for the starvation breaker. `None` whenever the
    /// last cycle was disqualified (work pending, events queued, jobs
    /// progressing).
    stall_fingerprint: Option<u64>,
    /// Consecutive control cycles whose fingerprint matched
    /// `stall_fingerprint` (drives the starvation breaker).
    no_progress_cycles: u32,
    now: SimTime,
    last_advance: SimTime,
    events: EventQueue,
    /// The lazily drained workload source (streaming mode); `None` when
    /// every submission was registered up front (lock-step mode).
    source: Option<Box<dyn WorkloadSource>>,
    metrics: RunMetrics,
    live_jobs: usize,
    class_profiler: JobClassProfiler,
    /// The cluster as the schedulers see it while a node is failed:
    /// `cluster` with the failed nodes zeroed. `None` while no node is
    /// failed, so building a simulation copies no node; read it through
    /// [`Simulation::effective_cluster`].
    failed_cluster: Option<Cluster>,
    failed_nodes: std::collections::BTreeSet<NodeId>,
    /// The imperfect-telemetry observation layer: node-health beliefs,
    /// report caches, estimator state, and the per-cycle views the
    /// controller reads instead of the truth. Inert when
    /// [`SimConfig::observation`] is the default.
    observation: ObservationState,
    /// The cluster as the *controller believes* it: the effective cluster
    /// with believed-dead nodes zeroed. `None` while the believed-dead
    /// set is empty, so the inactive path borrows the effective cluster
    /// with zero overhead.
    observed_cluster: Option<Cluster>,
    /// Whether the last observation cycle breached the staleness budget
    /// with [`DegradedMode::Hold`]: between-cycle advice passes also
    /// hold while set.
    degraded_hold: bool,
    /// Decision-provenance sink shared with the optimizer; a [`NoopSink`]
    /// unless [`SimConfig::trace`] set a path or a test installed one via
    /// [`Simulation::set_trace_sink`].
    trace: Arc<dyn TraceSink>,
    /// The config-derived JSONL sink and its flush path, when tracing to
    /// a file.
    trace_file: Option<FileSink>,
    /// Control cycles started so far (the trace's cycle index).
    cycle_index: u64,
}

impl Simulation {
    /// Creates an empty simulation over `cluster`.
    pub fn new(cluster: Cluster, config: SimConfig) -> Self {
        let (trace, trace_file): (Arc<dyn TraceSink>, Option<FileSink>) = match &config.trace.path {
            Some(path) => {
                let sink = Arc::new(JsonlSink::new(config.trace.level));
                (
                    Arc::clone(&sink) as Arc<dyn TraceSink>,
                    Some((sink, path.clone())),
                )
            }
            None => (Arc::new(NoopSink), None),
        };
        Self {
            trace,
            trace_file,
            cycle_index: 0,
            failed_cluster: None,
            cluster,
            apps: AppSet::new(),
            config,
            jobs: BTreeMap::new(),
            txns: BTreeMap::new(),
            placement: Placement::new(),
            load: LoadDistribution::new(),
            desired: Placement::new(),
            desired_load: LoadDistribution::new(),
            actuation: ActuationState::new(),
            stalled_cycles: 0,
            stall_fingerprint: None,
            no_progress_cycles: 0,
            now: SimTime::ZERO,
            last_advance: SimTime::ZERO,
            events: EventQueue::new(),
            source: None,
            metrics: RunMetrics::default(),
            live_jobs: 0,
            class_profiler: JobClassProfiler::new(3),
            failed_nodes: std::collections::BTreeSet::new(),
            observation: ObservationState::new(),
            observed_cluster: None,
            degraded_hold: false,
        }
    }

    /// The cluster under simulation.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The cluster as the schedulers see it: the real one, with every
    /// failed node's capacity zeroed.
    fn effective_cluster(&self) -> &Cluster {
        self.failed_cluster.as_ref().unwrap_or(&self.cluster)
    }

    /// Enables (or disables) per-cycle placement recording after
    /// construction — scenario files have no switch for it, but the
    /// golden regression tests need the records.
    pub fn record_placements(&mut self, on: bool) {
        self.config.record_placements = on;
    }

    /// Installs a decision-provenance sink, replacing whatever
    /// [`SimConfig::trace`] configured. The caller keeps its own handle
    /// (e.g. an `Arc<JsonlSink>`) to inspect the buffered events; sinks
    /// installed this way are *not* flushed to [`SimConfig::trace`]'s
    /// path at end of run.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = sink;
        self.trace_file = None;
    }

    /// The APC optimizer configuration, when this simulation runs an
    /// APC-backed policy; `None` under the baselines.
    pub fn apc_config(&self) -> Option<&ApcConfig> {
        self.config.scheduler.apc_config()
    }

    /// Replaces the APC optimizer configuration after construction.
    /// Differential harnesses use this to rerun one scenario under
    /// varied scoring modes or sharding without a scenario-file
    /// switch for each knob.
    ///
    /// # Panics
    ///
    /// Panics when the simulation runs a baseline scheduler — there is
    /// no APC configuration to replace, and silently ignoring the call
    /// would make a differential run compare a scheduler to itself.
    pub fn set_apc_config(&mut self, apc: ApcConfig) {
        match self.config.scheduler.with_apc_config(apc) {
            Some(handle) => self.config.scheduler = handle,
            None => panic!(
                "set_apc_config on a baseline scheduler ({:?})",
                self.config.scheduler
            ),
        }
    }

    /// Submits a batch job described by `spec`; optionally pinned to a
    /// subset of nodes. Returns the application id assigned to it.
    ///
    /// The job's [`ApplicationSpec`] is derived from its profile: memory
    /// is the maximum over stages (conservative; the per-stage value
    /// drives CPU bounds at runtime), speed cap is the maximum stage
    /// speed.
    pub fn add_job(&mut self, build: impl FnOnce(AppId) -> JobSpec) -> AppId {
        self.insert_job(None, 1, build, None, &[])
    }

    /// Like [`Simulation::add_job`] with a node restriction.
    pub fn add_job_pinned(
        &mut self,
        build: impl FnOnce(AppId) -> JobSpec,
        allowed: Option<Vec<NodeId>>,
    ) -> AppId {
        self.insert_job(None, 1, build, allowed, &[])
    }

    /// Submits a *malleable parallel* job with up to `tasks` concurrent
    /// task instances, each pinning the profile's stage memory and
    /// running at up to the stage's maximum speed; the job progresses at
    /// the sum of its placed tasks' speeds. Only supported under the APC
    /// scheduler (the FCFS/EDF baselines model single-instance jobs).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is zero, or above one under a baseline
    /// scheduler.
    pub fn add_parallel_job(&mut self, tasks: u32, build: impl FnOnce(AppId) -> JobSpec) -> AppId {
        self.insert_job(None, tasks, build, None, &[])
    }

    /// Registers a batch job of up to `tasks` instances. `extra_rigid`
    /// is the per-instance demand in the cluster's extra rigid
    /// dimensions beyond memory, in registry order starting at
    /// dimension 1 (see [`Cluster::dims`]); it stays constant across job
    /// stages, while memory is the maximum over stages.
    fn insert_job(
        &mut self,
        id: Option<AppId>,
        tasks: u32,
        build: impl FnOnce(AppId) -> JobSpec,
        allowed: Option<Vec<NodeId>>,
        extra_rigid: &[f64],
    ) -> AppId {
        assert!(
            tasks == 1 || self.config.scheduler.class() == PolicyClass::Apc,
            "parallel jobs require the APC scheduler"
        );
        // Resolve the id first so the spec can reference it: the
        // caller's pre-assigned id (streamed replay), or the smallest
        // unreserved free slot.
        let provisional = id.unwrap_or_else(|| self.apps.peek_next_id());
        let spec = build(provisional);
        assert_eq!(spec.app(), provisional, "job spec must use the given id");
        let memory = spec
            .profile()
            .stages()
            .iter()
            .map(|s| s.memory())
            .fold(Memory::ZERO, Memory::max);
        let max_speed = spec
            .profile()
            .stages()
            .iter()
            .map(|s| s.max_speed())
            .fold(CpuSpeed::ZERO, CpuSpeed::max);
        let mut app_spec = ApplicationSpec::batch_parallel(memory, max_speed, tasks);
        if !extra_rigid.is_empty() {
            app_spec = app_spec.with_extra_rigid_demand(extra_rigid.iter().copied());
        }
        if let Some(nodes) = allowed {
            app_spec = app_spec.with_allowed_nodes(nodes);
        }
        let app = provisional;
        self.apps.insert_at(app, app_spec);
        let profile = Arc::new(spec.profile().clone());
        let arrival = spec.arrival();
        self.jobs.insert(
            app,
            Job {
                spec,
                profile,
                state: JobState::new(),
                node: None,
                allocation: CpuSpeed::ZERO,
                transition_until: SimTime::ZERO,
                generation: 0,
                arrived: false,
                ever_started: false,
                parallelism: tasks,
            },
        );
        self.events.push(arrival, EventKind::JobArrival(app));
        app
    }

    /// Registers a transactional application. `allowed` optionally pins
    /// its instances (used for static partitioning).
    #[allow(clippy::too_many_arguments)]
    pub fn add_txn(
        &mut self,
        memory_per_instance: Memory,
        max_instances: u32,
        demand_per_request: f64,
        floor: SimDuration,
        goal: ResponseTimeGoal,
        pattern: Box<dyn ArrivalPattern + Send>,
        allowed: Option<Vec<NodeId>>,
    ) -> AppId {
        self.insert_txn(
            None,
            &[],
            memory_per_instance,
            max_instances,
            demand_per_request,
            floor,
            goal,
            pattern,
            allowed,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_txn(
        &mut self,
        id: Option<AppId>,
        extra_rigid: &[f64],
        memory_per_instance: Memory,
        max_instances: u32,
        demand_per_request: f64,
        floor: SimDuration,
        goal: ResponseTimeGoal,
        pattern: Box<dyn ArrivalPattern + Send>,
        allowed: Option<Vec<NodeId>>,
    ) -> AppId {
        let mut spec = ApplicationSpec::transactional(
            memory_per_instance,
            CpuSpeed::from_mhz(f64::INFINITY),
            max_instances,
        );
        if !extra_rigid.is_empty() {
            spec = spec.with_extra_rigid_demand(extra_rigid.iter().copied());
        }
        if let Some(nodes) = allowed {
            spec = spec.with_allowed_nodes(nodes);
        }
        let app = id.unwrap_or_else(|| self.apps.peek_next_id());
        self.apps.insert_at(app, spec);
        self.txns.insert(
            app,
            TxnApp {
                demand_per_request,
                floor,
                goal,
                pattern,
                router: RequestRouter::default(),
                profiler: dynaplace_txn::profiler::WorkProfiler::new(1, 32),
                observations: 0,
            },
        );
        app
    }

    /// Attaches a streaming [`WorkloadSource`]: its submissions are
    /// admitted lazily just before their arrival instant instead of
    /// being registered up front, so memory stays bounded however long
    /// the stream runs. The source's pre-assigned id block is reserved
    /// immediately, keeping automatically assigned ids above it.
    pub fn attach_source(&mut self, source: Box<dyn WorkloadSource>) {
        self.apps.reserve(source.reserved_ids());
        self.source = Some(source);
    }

    /// Admits every submission of `source` up front (lock-step mode),
    /// after reserving its pre-assigned id block as
    /// [`Simulation::attach_source`] does, so automatically assigned ids
    /// match a streaming run of the same source.
    pub(crate) fn admit_all(&mut self, mut source: impl WorkloadSource) {
        self.apps.reserve(source.reserved_ids());
        while let Some(submission) = source.next() {
            self.admit(submission);
        }
    }

    /// Overrides the completion-record retention policy after
    /// construction (see [`MetricsRetention`]).
    pub fn set_retention(&mut self, retention: MetricsRetention) {
        self.config.retention = retention;
    }

    /// Admits one streamed submission. This is the single construction
    /// path shared by lock-step builds and streaming injection, so both
    /// modes register bit-identical applications under identical ids.
    pub(crate) fn admit(&mut self, submission: Submission) {
        match submission {
            Submission::Job(job) => self.admit_job(job),
            Submission::Txn(txn) => self.admit_txn(txn),
        }
    }

    fn admit_job(&mut self, sub: JobSubmission) {
        let JobSubmission {
            id,
            arrival,
            work_mcycles,
            max_speed_mhz,
            memory_mb,
            goal,
            tasks,
            class,
            extra_rigid,
        } = sub;
        let build = move |app| {
            let profile = JobProfile::single_stage(
                Work::from_mcycles(work_mcycles),
                CpuSpeed::from_mhz(max_speed_mhz),
                Memory::from_mb(memory_mb),
            );
            let goal = match goal {
                // Parallel jobs: the "best execution time" the factor
                // multiplies is the parallel one.
                GoalSubmission::Factor(f) => CompletionGoal::from_goal_factor(
                    arrival,
                    profile.min_execution_time() / f64::from(tasks),
                    f,
                ),
                GoalSubmission::RelativeSecs(secs) => {
                    CompletionGoal::new(arrival, arrival + SimDuration::from_secs(secs))
                }
            };
            let mut spec = JobSpec::new(app, profile, arrival, goal);
            if let Some(class) = class {
                spec = spec.with_class(class);
            }
            spec
        };
        self.insert_job(id, tasks, build, None, &extra_rigid);
    }

    fn admit_txn(&mut self, sub: TxnSubmission) {
        self.insert_txn(
            sub.id,
            &sub.extra_rigid,
            Memory::from_mb(sub.memory_mb),
            sub.max_instances,
            sub.demand_mcycles,
            SimDuration::from_secs(sub.floor_secs),
            ResponseTimeGoal::new(SimDuration::from_secs(sub.goal_secs)),
            sub.pattern,
            None,
        );
    }

    /// Runs the simulation to completion (or the horizon) and returns
    /// the recorded metrics.
    pub fn run(mut self) -> RunMetrics {
        // First control cycle fires immediately (places any jobs that
        // arrived at t = 0 and the transactional applications).
        self.events.push(SimTime::ZERO, EventKind::ControlCycle);
        if let Some(h) = self.config.horizon {
            self.events.push(SimTime::ZERO + h, EventKind::Horizon);
        }
        for outage in self.config.node_failures.clone() {
            self.events.push(
                SimTime::ZERO + outage.at,
                EventKind::NodeFailure(outage.node),
            );
            if let Some(duration) = outage.duration {
                self.events.push(
                    SimTime::ZERO + outage.at + duration,
                    EventKind::NodeRecovery(outage.node),
                );
            }
        }
        self.live_jobs = 0;

        while let Some((time, kind)) = self.next_event() {
            self.now = time;
            match kind {
                EventKind::Horizon => break,
                EventKind::JobArrival(app) => self.on_arrival(app),
                EventKind::JobCompletion { app, generation } => self.on_completion(app, generation),
                EventKind::NodeFailure(node) => self.on_node_failure(node),
                EventKind::NodeRecovery(node) => self.on_node_recovery(node),
                EventKind::ActuationRetry => self.on_actuation_retry(),
                EventKind::ControlCycle => {
                    self.on_cycle();
                    // Keep cycling while work remains (or a horizon will
                    // cut us off) — unless the starvation breaker proves
                    // the remaining work can never progress.
                    let pending_arrivals = self.jobs.values().any(|j| !j.arrived)
                        || self.source.as_mut().is_some_and(|s| s.peek().is_some());
                    if (self.live_jobs > 0
                        || pending_arrivals
                        || (self.config.horizon.is_some() && !self.txns.is_empty()))
                        && !self.starvation_detected(pending_arrivals)
                    {
                        self.events
                            .push(self.now + self.config.cycle, EventKind::ControlCycle);
                    }
                }
            }
        }
        if let Some((sink, path)) = &self.trace_file {
            if let Err(e) = sink.write_to(path) {
                eprintln!("warning: failed to write trace to {path}: {e}");
            }
        }
        self.metrics
    }

    /// Pops the next event, first admitting every sourced submission due
    /// at or before it (streaming mode). Admitted arrivals enter the
    /// queue in the arrival class, which orders ahead of every other
    /// same-instant event — exactly where a lock-step run, which queues
    /// all arrivals before anything else, would have fired them.
    fn next_event(&mut self) -> Option<(SimTime, EventKind)> {
        if let Some(mut source) = self.source.take() {
            loop {
                let due = match (source.peek(), self.events.peek_time()) {
                    (Some(s), Some(q)) => s <= q,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                if !due {
                    break;
                }
                let submission = source.next().expect("peek promised a submission");
                self.admit(submission);
            }
            self.source = Some(source);
        }
        self.events.pop()
    }

    /// The starvation breaker: a **should-never-fire diagnostic** that
    /// proves an unbounded run is in a zero-progress livelock and
    /// terminates it with the survivors recorded as starved, instead of
    /// scheduling control cycles forever.
    ///
    /// Historically this was a live containment shim: a job whose
    /// deadline was so hopelessly blown that its relative performance
    /// sat flat at the clamp floor whatever it received could be starved
    /// forever by a saturated transactional application, and the breaker
    /// was the only way such a run terminated. The sub-floor utility
    /// band ([`dynaplace_rpf::SUB_FLOOR_BAND`]) removed the root cause:
    /// hopeless jobs now carry strictly decreasing utility, so the
    /// optimizer's max-min objective drains them instead of stalling.
    /// The breaker remains solely as a tripwire for regressions in that
    /// guarantee — a firing is a bug in the controller, not an expected
    /// workload outcome, and `tests/repro/starved_floor_job.json` pins
    /// the canonical ex-livelock as a must-drain acceptance test.
    ///
    /// Called after a control cycle, before the next one is pushed — so
    /// an empty event queue proves the simulation is waiting on nothing
    /// but future control cycles (no completions, arrivals, failures,
    /// recoveries, or actuation retries are coming). In that state the
    /// progress-relevant world is fingerprinted and consecutive
    /// identical cycles counted against [`config::STALL_LIMIT`]. Any
    /// disqualifying condition (or horizon-bounded runs, which terminate
    /// on their own and must stay bit-identical) resets the counter.
    fn starvation_detected(&mut self, pending_arrivals: bool) -> bool {
        let armed = self.config.horizon.is_none()
            && self.live_jobs > 0
            && !pending_arrivals
            && self.events.is_empty();
        if !armed {
            self.stall_fingerprint = None;
            self.no_progress_cycles = 0;
            return false;
        }
        let fp = self.progress_fingerprint();
        if self.stall_fingerprint == Some(fp) {
            self.no_progress_cycles += 1;
        } else {
            self.stall_fingerprint = Some(fp);
            self.no_progress_cycles = 0;
        }
        if self.no_progress_cycles < config::STALL_LIMIT {
            return false;
        }
        let apps: Vec<AppId> = self
            .jobs
            .iter()
            .filter(|(_, job)| job.is_live())
            .map(|(&app, _)| app)
            .collect();
        self.trace.record(&TraceEvent::StarvationBreak {
            time: self.now.as_secs(),
            cycles: u64::from(self.no_progress_cycles),
            apps: apps.clone(),
        });
        self.metrics.starvation = Some(StarvationReport {
            time: self.now,
            apps,
        });
        true
    }

    /// FNV-1a fingerprint of everything a control cycle can change that
    /// bears on job progress: both placements, per-job scheduling state
    /// and consumed work, the actuation stall counter, and the failed
    /// node set.
    ///
    /// Deliberately *excluded*: the transactional work profiler's
    /// observation counters, which advance every cycle — including them
    /// would make every fingerprint unique and the breaker would never
    /// fire. That slow-moving controller state may legitimately flip a
    /// decision after many outwardly identical cycles is exactly why
    /// [`config::STALL_LIMIT`] is generous rather than 2. The
    /// telemetry layer's health counters are excluded for the same
    /// reason: under permanent heartbeat loss they flap forever, and
    /// fingerprinting them would let a genuinely starved run cycle
    /// unbounded. Health flaps that *matter* change the placement (a
    /// believed death evicts residents), which is fingerprinted.
    fn progress_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.live_jobs as u64);
        mix(u64::from(self.stalled_cycles));
        // `Job::generation` is deliberately excluded: it is an
        // event-invalidation counter that advances every cycle whether or
        // not anything changed.
        for (app, job) in &self.jobs {
            mix(app.index() as u64);
            mix(u64::from(job.arrived) | u64::from(job.is_running()) << 1);
            mix(job.state.consumed().as_mcycles().to_bits());
            mix(job.allocation.as_mhz().to_bits());
            mix(match job.node {
                Some(n) => n.index() as u64,
                None => u64::MAX,
            });
            mix(job.transition_until.as_secs().to_bits());
        }
        for placement in [&self.placement, &self.desired] {
            for (app, node, count) in placement.iter() {
                mix(app.index() as u64);
                mix(node.index() as u64);
                mix(u64::from(count));
            }
        }
        for node in &self.failed_nodes {
            mix(node.index() as u64);
        }
        h
    }
}
