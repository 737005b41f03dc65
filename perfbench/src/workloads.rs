//! The benchmark's workloads, each buildable plain (no instruments) or
//! with the [`crate::probe`] instruments installed through the program's
//! public API.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dynaplace_apc::optimizer::ApcConfig;
use dynaplace_apc::policy::{registry, PolicyHandle};
use dynaplace_apc::ShardingPolicy;
use dynaplace_model::cluster::Cluster;
use dynaplace_model::node::NodeSpec;
use dynaplace_model::units::{CpuSpeed, Memory, SimTime};
use dynaplace_sim::engine::{MetricsRetention, SimConfig, Simulation};
use dynaplace_sim::scenario::{experiment_three, SharingConfig};
use dynaplace_sim::source::{
    ArrivalProcess, GenerativeSource, GoalSubmission, JobTemplate, MergedSource, ScenarioSource,
    WorkloadSource,
};
use dynaplace_sim::spec::{GoalSpec, ProcessSpec, ScenarioSpec};

use crate::kernels::Pass;
use crate::probe::{CountingSink, Probe, TimedPolicy, TimedSource};

/// Which instruments a build installs.
#[derive(Debug, Clone)]
pub enum Mode {
    /// None: the program exactly as a user runs it.
    Plain,
    /// The timing policy wrapper only (end-to-end runs).
    Timed(Arc<Probe>),
    /// Policy wrapper, timed source and counting trace sink (per-layer
    /// runs).
    Traced(Arc<Probe>),
}

impl Mode {
    fn policy(&self, inner: PolicyHandle) -> PolicyHandle {
        match self {
            Mode::Plain => inner,
            Mode::Timed(probe) | Mode::Traced(probe) => TimedPolicy::wrap(inner, Arc::clone(probe)),
        }
    }

    fn source(&self, inner: Box<dyn WorkloadSource>) -> Box<dyn WorkloadSource> {
        match self {
            Mode::Traced(probe) => TimedSource::wrap(inner, Arc::clone(probe)),
            _ => inner,
        }
    }

    fn finish(&self, sim: &mut Simulation) {
        if let Mode::Traced(probe) = self {
            sim.set_trace_sink(CountingSink::shared(Arc::clone(probe)));
        }
    }
}

/// Independent Experiment Three simulations in one `exp3_sharing` run.
const EXP3_SIMS: u64 = 3;
/// Batch jobs in each `exp3_sharing` simulation, their mean
/// inter-arrival time, and that of the last quarter (Figure 6's
/// settings).
const EXP3_JOBS: usize = 200;
const EXP3_INTER_ARRIVAL_SECS: f64 = 180.0;
const EXP3_TAIL_INTER_ARRIVAL_SECS: f64 = 900.0;
/// Control cycles `exp3_sharing` simulates: the ramp and the contention
/// plateau, stopping before the queue drains, so that most cycles are
/// contended ones.
const EXP3_HORIZON_CYCLES: f64 = 60.0;
/// Nodes in `stream_250`.
const STREAM_NODES: usize = 250;
/// Poisson arrival rate of `stream_250`, jobs per second. Each job
/// runs 10 s (6,000 Mcycles at 600 MHz), so about 40 stay live.
const STREAM_RATE: f64 = 4.0;
/// Jobs submitted in one `stream_250` run.
const STREAM_JOBS: u64 = 200;
/// Control cycle of `stream_250`, seconds: the paper's 600 s, so the
/// 50-s stream runs between two cycles and advice places every job.
const STREAM_CYCLE_SECS: f64 = 600.0;
/// Jobs in the `firehose_2node` diurnal day.
const FIREHOSE_JOBS: u64 = 100_000;
/// Nodes in `sharded_1000`.
const SHARDED_NODES: usize = 1_000;
/// Nodes per cell in `sharded_1000`.
const SHARDED_CELL: usize = 64;
/// Exp-1 jobs per node in `sharded_1000`.
const SHARDED_JOBS_PER_NODE: u64 = 3;
/// Control cycles over which `sharded_1000`'s jobs arrive.
const SHARDED_ARRIVAL_CYCLES: f64 = 3.0;
/// Control cycles `sharded_1000` simulates: the arrival burst and the
/// first wave of completions.
const SHARDED_HORIZON_CYCLES: f64 = 36.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Exp3Sharing,
    Stream250,
    Firehose2Node,
    Sharded1000,
}

/// A built simulation, with the number of jobs it will submit.
pub struct Built {
    pub sim: Simulation,
    pub jobs: u64,
    /// Whether a horizon ends the run before every job completes.
    pub horizon_bounded: bool,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Exp3Sharing,
        Workload::Stream250,
        Workload::Firehose2Node,
        Workload::Sharded1000,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Exp3Sharing => "exp3_sharing",
            Workload::Stream250 => "stream_250",
            Workload::Firehose2Node => "firehose_2node",
            Workload::Sharded1000 => "sharded_1000",
        }
    }

    pub fn by_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulations one run of `seed` covers: several independent
    /// ones where a single simulation's figures depend too much on its
    /// random draws.
    pub fn sub_seeds(self, seed: u64) -> Vec<u64> {
        let count = match self {
            Workload::Exp3Sharing => EXP3_SIMS,
            _ => 1,
        };
        (0..count)
            .map(|k| seed.wrapping_mul(1_000).wrapping_add(k))
            .collect()
    }

    /// The pass the engine makes no live call of on this workload, with
    /// the workload's policy to replay it on the other pass's captured
    /// problems: advice on `sharded_1000`, which runs without it, and
    /// `place` on `stream_250`, whose cycles fall before and after the
    /// stream.
    pub fn replayed(self) -> Option<(Pass, PolicyHandle)> {
        match self {
            Workload::Sharded1000 => Some((
                Pass::Advice,
                PolicyHandle::apc_with(sharded_config(), false),
            )),
            Workload::Stream250 => Some((Pass::Place, builtin_apc())),
            _ => None,
        }
    }

    /// Builds the workload for `seed` with `mode`'s instruments, through
    /// the path a user takes: the scenario loader where the workload has
    /// a scenario form, the public builders otherwise.
    pub fn build(self, seed: u64, mode: &Mode) -> Built {
        let mut built = match self {
            Workload::Exp3Sharing => exp3(seed, mode),
            Workload::Stream250 => streaming(seed, mode, &stream_shape()),
            Workload::Firehose2Node => streaming(seed, mode, &firehose_shape()),
            Workload::Sharded1000 => sharded(seed, mode),
        };
        mode.finish(&mut built.sim);
        built
    }
}

/// Experiment Three's dynamic sharing configuration: the Exp-1 batch
/// stream plus the constant transactional application on the Exp-1
/// cluster, APC with between-cycle advice, up to a horizon inside the
/// contention plateau. The whole build is the submission draw and
/// admission, so it is timed as the source layer.
fn exp3(seed: u64, mode: &Mode) -> Built {
    let config = SimConfig {
        scheduler: mode.policy(PolicyHandle::apc_with(ApcConfig::default(), true)),
        horizon: Some(SimConfig::apc_default().cycle * EXP3_HORIZON_CYCLES),
        ..SimConfig::apc_default()
    };
    let started = Instant::now();
    let sim = experiment_three(
        seed,
        EXP3_JOBS,
        EXP3_INTER_ARRIVAL_SECS,
        EXP3_TAIL_INTER_ARRIVAL_SECS,
        SharingConfig::Dynamic,
        config,
    );
    if let Mode::Traced(probe) = mode {
        // The job draw and every admission, plus the transactional one.
        probe.note_source(started.elapsed().as_secs_f64(), EXP3_JOBS as u64 + 1);
    }
    Built {
        sim,
        jobs: EXP3_JOBS as u64,
        horizon_bounded: true,
    }
}

/// A generated single-stream workload on a homogeneous cluster, run in
/// streaming mode with aggregate retention. The scenario JSON is its one
/// description; the traced build reads the stream back from the parsed
/// scenario.
struct StreamShape {
    nodes: usize,
    cpu_mhz: f64,
    memory_mb: f64,
    cycle_secs: f64,
    /// The arrival process in scenario JSON.
    process: String,
    jobs: u64,
    work_mcycles: f64,
    max_speed_mhz: f64,
    job_memory_mb: f64,
    goal_factor: f64,
}

fn stream_shape() -> StreamShape {
    StreamShape {
        nodes: STREAM_NODES,
        cpu_mhz: 6_000.0,
        memory_mb: 8_192.0,
        cycle_secs: STREAM_CYCLE_SECS,
        process: format!("{{\"poisson\": {{\"rate_per_sec\": {STREAM_RATE:?}}}}}"),
        jobs: STREAM_JOBS,
        work_mcycles: 6_000.0,
        max_speed_mhz: 600.0,
        job_memory_mb: 256.0,
        goal_factor: 20.0,
    }
}

/// The 100k-job diurnal day of `tests/perf/streaming_memory_guard.json`.
fn firehose_shape() -> StreamShape {
    StreamShape {
        nodes: 2,
        cpu_mhz: 6_000.0,
        memory_mb: 8_192.0,
        cycle_secs: 120.0,
        process: "{\"diurnal\": {\"base_rate_per_sec\": 1.3, \"amplitude\": 1.0, \
                  \"period_secs\": 86400.0}}"
            .to_string(),
        jobs: FIREHOSE_JOBS,
        work_mcycles: 600.0,
        max_speed_mhz: 600.0,
        job_memory_mb: 256.0,
        goal_factor: 20.0,
    }
}

impl StreamShape {
    fn scenario_json(&self, seed: u64) -> String {
        format!(
            r#"{{
  "seed": {seed},
  "scheduler": "apc",
  "cycle_secs": {cycle:?},
  "free_vm_costs": true,
  "nodes": [{{ "count": {nodes}, "cpu_mhz": {cpu:?}, "memory_mb": {mem:?} }}],
  "jobs": [],
  "txns": [],
  "workload": {{
    "batch_streams": [{{
      "process": {process},
      "count": {jobs},
      "work_mcycles": {work:?},
      "max_speed_mhz": {speed:?},
      "memory_mb": {job_mem:?},
      "goal": {{ "factor": {factor:?} }}
    }}],
    "txn_streams": []
  }}
}}"#,
            cycle = self.cycle_secs,
            nodes = self.nodes,
            cpu = self.cpu_mhz,
            mem = self.memory_mb,
            process = self.process,
            jobs = self.jobs,
            work = self.work_mcycles,
            speed = self.max_speed_mhz,
            job_mem = self.job_memory_mb,
            factor = self.goal_factor,
        )
    }
}

fn node(cpu_mhz: f64, memory_mb: f64) -> NodeSpec {
    NodeSpec::try_new(CpuSpeed::from_mhz(cpu_mhz), Memory::from_mb(memory_mb))
        .expect("benchmark node capacities are valid")
}

/// The registry's own `"apc"` policy, resolved before the benchmark
/// first shadows that name.
fn builtin_apc() -> PolicyHandle {
    static BUILTIN: OnceLock<PolicyHandle> = OnceLock::new();
    BUILTIN
        .get_or_init(|| registry::resolve("apc").expect("apc is a builtin policy"))
        .clone()
}

/// Every build goes through the scenario loader, the path a user runs.
/// The scenario resolves `"apc"` through the policy registry, so the
/// mode's policy (the builtin itself, or the timer around it) is
/// registered under that name first. A traced build then swaps in the
/// same merged source, built from the parsed scenario, inside the timed
/// source: the loader's own source cannot be reached once attached. The
/// digest check against the plain build proves the two agree.
fn streaming(seed: u64, mode: &Mode, shape: &StreamShape) -> Built {
    let spec = ScenarioSpec::from_json_str(&shape.scenario_json(seed))
        .expect("the benchmark's scenarios are valid");
    registry::register_policy(mode.policy(builtin_apc()));
    let mut sim = spec
        .build_streaming_checked()
        .expect("the benchmark's scenarios build");
    sim.set_retention(MetricsRetention::Aggregate);
    if let Mode::Traced(_) = mode {
        sim.attach_source(mode.source(Box::new(scenario_source(&spec))));
    }
    Built {
        sim,
        jobs: shape.jobs,
        horizon_bounded: false,
    }
}

/// The source `build_streaming_checked` attaches for a scenario with no
/// classic jobs or transactions: an empty scenario source merged with
/// the generated batch streams.
fn scenario_source(spec: &ScenarioSpec) -> MergedSource {
    assert!(
        spec.jobs.is_empty() && spec.txns.is_empty(),
        "the benchmark's streaming scenarios are generated only"
    );
    let mut generated = GenerativeSource::new();
    let streams = spec.workload.as_ref().map_or(&[][..], |w| &w.batch_streams);
    for (index, stream) in streams.iter().enumerate() {
        assert!(
            stream.resources.is_empty(),
            "the benchmark's streams use memory only"
        );
        generated.push_batch(
            arrival_process(&stream.process),
            JobTemplate {
                work_mcycles: stream.work_mcycles,
                max_speed_mhz: stream.max_speed_mhz,
                memory_mb: stream.memory_mb,
                goal: match stream.goal {
                    GoalSpec::Factor(f) => GoalSubmission::Factor(f),
                    GoalSpec::RelativeSecs(s) => GoalSubmission::RelativeSecs(s),
                },
                tasks: stream.tasks,
                class: stream.class.clone(),
                extra_rigid: Vec::new(),
            },
            GenerativeSource::stream_seed(spec.seed, index),
            stream.count,
            spec.horizon_secs.map(SimTime::from_secs),
        );
    }
    let mut merged = MergedSource::new();
    merged.push(Box::new(ScenarioSource::from_parts(Vec::new(), 0)));
    merged.push(Box::new(generated));
    merged
}

fn arrival_process(spec: &ProcessSpec) -> ArrivalProcess {
    match spec {
        ProcessSpec::Poisson { rate_per_sec } => ArrivalProcess::Poisson {
            rate_per_sec: *rate_per_sec,
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
        other => panic!("the benchmark's streams are Poisson or diurnal, not {other:?}"),
    }
}

fn sharded_config() -> ApcConfig {
    ApcConfig::builder()
        .sharding(Some(ShardingPolicy::new(SHARDED_CELL)))
        .build()
        .expect("valid sharded configuration")
}

/// 1,000 Exp-1 nodes under cell-sharded APC without between-cycle
/// advice; three Exp-1 jobs per node arrive over the first cycles, and
/// the run stops at a horizon once the first wave has completed. The
/// sharded configuration goes in through `set_apc_config`, the path
/// scenario builds use to thread sharding into a policy.
fn sharded(seed: u64, mode: &Mode) -> Built {
    let cycle = SimConfig::apc_default().cycle;
    let config = SimConfig {
        scheduler: mode.policy(PolicyHandle::apc_with(ApcConfig::default(), false)),
        horizon: Some(cycle * SHARDED_HORIZON_CYCLES),
        ..SimConfig::apc_default()
    };
    let cycle = cycle.as_secs();
    let cluster = Cluster::homogeneous(SHARDED_NODES, node(4.0 * 3_900.0, 16_384.0));
    let mut sim = Simulation::new(cluster, config);
    sim.set_apc_config(sharded_config());
    let jobs = SHARDED_NODES as u64 * SHARDED_JOBS_PER_NODE;
    let mut source = GenerativeSource::new();
    source.push_batch(
        ArrivalProcess::Poisson {
            rate_per_sec: jobs as f64 / (SHARDED_ARRIVAL_CYCLES * cycle),
        },
        JobTemplate {
            work_mcycles: 68_640_000.0,
            max_speed_mhz: 3_900.0,
            memory_mb: 4_320.0,
            goal: GoalSubmission::Factor(2.7),
            tasks: 1,
            class: None,
            extra_rigid: Vec::new(),
        },
        GenerativeSource::stream_seed(seed, 0),
        Some(jobs),
        None,
    );
    sim.attach_source(mode.source(Box::new(source)));
    Built {
        sim,
        jobs,
        horizon_bounded: true,
    }
}
