//! Simulator configuration: scheduler selection, cycle timing,
//! injected node outages, and estimation noise.

use super::*;

/// One scripted node outage: the node's capacity drops to zero at
/// `at`, instances on it are evicted (jobs suspended, losing no
/// completed work), and — when `duration` is set — the node recovers
/// with full capacity `duration` later, after which the scheduler may
/// place work on it again through the normal optimizer path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeOutage {
    /// Offset of the failure from the start of the run.
    pub at: SimDuration,
    /// The failing node.
    pub node: NodeId,
    /// Outage length; `None` means the node never comes back.
    pub duration: Option<SimDuration>,
}

impl NodeOutage {
    /// A permanent failure (the pre-transient behavior).
    pub fn permanent(at: SimDuration, node: NodeId) -> Self {
        Self {
            at,
            node,
            duration: None,
        }
    }

    /// A transient failure: the node recovers `duration` after failing.
    pub fn transient(at: SimDuration, node: NodeId, duration: SimDuration) -> Self {
        Self {
            at,
            node,
            duration: Some(duration),
        }
    }
}

impl From<(SimDuration, NodeId)> for NodeOutage {
    fn from((at, node): (SimDuration, NodeId)) -> Self {
        Self::permanent(at, node)
    }
}

/// What the engine keeps of per-job completion history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MetricsRetention {
    /// Keep a [`CompletionRecord`] per job (the classic behavior; memory
    /// grows with the number of jobs submitted).
    #[default]
    Full,
    /// Fold completions into [`RunMetrics::totals`] and retire finished
    /// jobs entirely — their map entries are dropped and their
    /// application ids recycled, so memory stays bounded by the number
    /// of *concurrently live* jobs. Only meaningful for streaming runs;
    /// per-cycle samples are still kept (they grow with run length, not
    /// job count).
    Aggregate,
}

/// Simulation-wide configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Control cycle length `T` (also the metric sampling period).
    pub cycle: SimDuration,
    /// Hard stop; when `None` the simulation runs until every job has
    /// completed.
    pub horizon: Option<SimDuration>,
    /// VM operation cost model.
    pub costs: VmCostModel,
    /// The decision maker: any [`dynaplace_apc::PlacementPolicy`] behind
    /// a shared handle — resolve one by name via
    /// [`dynaplace_apc::resolve_policy`], or wrap a custom policy with
    /// [`PolicyHandle::new`].
    pub scheduler: PolicyHandle,
    /// Nodes batch jobs may use under the baseline schedulers; `None`
    /// means all nodes. (The APC path uses per-application pinning
    /// instead.)
    pub batch_nodes: Option<Vec<NodeId>>,
    /// When set, transactional applications are not managed by the
    /// scheduler: each receives a fixed allocation equal to
    /// `min(its saturation allocation, the capacity of these nodes)` —
    /// the paper's static partitioning baseline (Experiment Three).
    pub static_txn_nodes: Option<Vec<NodeId>>,
    /// Estimation errors injected into what the *controller* sees (the
    /// simulated truth is unaffected). Models imperfect job workload
    /// profilers and CPU-demand estimators (§3.1).
    pub noise: EstimationNoise,
    /// On-the-fly profile generation (the paper's future work): when
    /// set, jobs tagged with a class whose history has at least three
    /// completions are presented to the controller with the *estimated*
    /// class-mean work instead of their true profile.
    pub profile_from_history: bool,
    /// Scripted node failures (permanent or transient): at each offset
    /// from the start of the run, the node's capacity drops to zero,
    /// instances on it are evicted (jobs suspended, losing no completed
    /// work), and the scheduler re-places the survivors; transient
    /// outages recover after their duration.
    pub node_failures: Vec<NodeOutage>,
    /// Close the work-profiler loop (§3.1): instead of the configured
    /// per-request demand, the controller uses an online regression
    /// estimate from (throughput, CPU-used) observations taken each
    /// control cycle — with a small deterministic measurement error so
    /// the estimator actually works for its living.
    pub estimate_txn_demand: bool,
    /// Record the full placement at every cycle sample (golden-file
    /// regression tests diff consecutive records). Off by default: the
    /// records grow linearly with run length × cluster occupancy.
    pub record_placements: bool,
    /// The fallible actuation layer (VM operation failure rate, latency
    /// jitter, timeout, backoff/quarantine policy). The default models a
    /// perfect layer: every operation succeeds with exactly the cost
    /// model's latency, bit-identical to a simulator without actuation.
    pub actuation: ActuationConfig,
    /// The imperfect-telemetry observation layer (heartbeat loss,
    /// report staleness, demand noise, node-health hysteresis, demand
    /// estimation, staleness-budget degraded modes). The default models
    /// perfect telemetry: the engine skips the layer entirely and runs
    /// are bit-identical to a simulator without an observation layer.
    pub observation: ObservationConfig,
    /// Decision-provenance tracing. With `path` unset (the default) the
    /// engine installs a no-op sink and the run is bit-identical to an
    /// untraced build; with a path, every controller decision is buffered
    /// as a JSONL event stream and flushed there at end of run.
    pub trace: TraceConfig,
    /// Completion-history retention. [`MetricsRetention::Full`] (the
    /// default) keeps every per-job record; [`MetricsRetention::Aggregate`]
    /// folds completions into running totals and retires finished jobs so
    /// long streaming runs hold memory proportional to concurrency, not
    /// job count.
    pub retention: MetricsRetention,
}

/// Starvation breaker (unbounded runs only): after this many
/// consecutive control cycles in which live jobs exist, nothing else is
/// pending, and the system state is provably identical to the previous
/// cycle, the run is declared starved — the surviving jobs are recorded
/// in [`RunMetrics::starvation`] and the simulation terminates instead
/// of cycling forever. Since the sub-floor utility band made
/// hopeless-job starvation impossible by construction, this is a
/// should-never-fire diagnostic: a trip indicates a controller
/// regression, not a legitimate workload outcome. The limit is
/// generous, because slow-moving controller state (e.g. the online
/// demand profiler accumulating observations) may legitimately take
/// many identical-looking cycles before a decision flips.
pub(super) const STALL_LIMIT: u32 = 64;

/// Relative estimation errors presented to the placement controller.
///
/// Each job gets a deterministic bias in `[-job_work, +job_work]`
/// (derived from its id), applied to the *remaining work* the controller
/// sees; the transactional arrival rate is scaled by `1 + txn_rate`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EstimationNoise {
    /// Maximum relative error on each job's remaining work (0.2 = ±20%).
    pub job_work: f64,
    /// Relative error on transactional arrival rates (may be negative).
    pub txn_rate: f64,
}

impl EstimationNoise {
    /// No estimation error (the default).
    pub const NONE: Self = Self {
        job_work: 0.0,
        txn_rate: 0.0,
    };

    /// Deterministic per-job bias factor in `[1 - job_work, 1 + job_work]`.
    pub(super) fn work_factor(&self, app: AppId) -> f64 {
        if self.job_work == 0.0 {
            return 1.0;
        }
        // Knuth multiplicative hash → uniform-ish in [-1, 1].
        let h = (app.index() as u64).wrapping_mul(2_654_435_761) % 10_000;
        let unit = (h as f64) / 5_000.0 - 1.0;
        1.0 + self.job_work * unit
    }
}

impl SimConfig {
    /// A configuration with the paper's defaults: 600 s control cycle,
    /// measured VM costs, APC scheduling with between-cycle advice.
    pub fn apc_default() -> Self {
        Self {
            cycle: SimDuration::from_secs(600.0),
            horizon: None,
            costs: VmCostModel::default(),
            scheduler: PolicyHandle::apc_with(ApcConfig::default(), true),
            batch_nodes: None,
            static_txn_nodes: None,
            noise: EstimationNoise::NONE,
            profile_from_history: false,
            node_failures: Vec::new(),
            estimate_txn_demand: false,
            record_placements: false,
            actuation: ActuationConfig::default(),
            observation: ObservationConfig::default(),
            trace: TraceConfig::default(),
            retention: MetricsRetention::Full,
        }
    }

    /// Same timing/costs but FCFS scheduling.
    pub fn fcfs_default() -> Self {
        Self {
            scheduler: PolicyHandle::new(FcfsPolicy),
            ..Self::apc_default()
        }
    }

    /// Same timing/costs but EDF scheduling.
    pub fn edf_default() -> Self {
        Self {
            scheduler: PolicyHandle::new(EdfPolicy),
            ..Self::apc_default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_factor_is_deterministic_and_bounded() {
        let noise = EstimationNoise {
            job_work: 0.3,
            txn_rate: 0.0,
        };
        for i in 0..100 {
            let app = AppId::new(i);
            let f1 = noise.work_factor(app);
            let f2 = noise.work_factor(app);
            assert_eq!(f1, f2, "factor must be a pure function of the id");
            assert!((0.7..=1.3).contains(&f1), "factor {f1} out of bounds");
        }
    }

    #[test]
    fn zero_noise_is_exactly_one() {
        let noise = EstimationNoise::NONE;
        for i in 0..10 {
            assert_eq!(noise.work_factor(AppId::new(i)), 1.0);
        }
    }

    #[test]
    fn noise_factors_spread_across_ids() {
        // Not all jobs share the same bias (the hash spreads them).
        let noise = EstimationNoise {
            job_work: 0.5,
            txn_rate: 0.0,
        };
        let factors: std::collections::BTreeSet<u64> = (0..50)
            .map(|i| (noise.work_factor(AppId::new(i)) * 1e6) as u64)
            .collect();
        assert!(
            factors.len() > 25,
            "biases should be diverse: {}",
            factors.len()
        );
    }

    #[test]
    fn config_constructors_pick_schedulers() {
        assert_eq!(SimConfig::apc_default().scheduler.name(), "apc");
        assert!(SimConfig::apc_default().scheduler.advises_between_cycles());
        assert_eq!(SimConfig::fcfs_default().scheduler.name(), "fcfs");
        assert_eq!(SimConfig::edf_default().scheduler.name(), "edf");
        assert_eq!(
            SimConfig::fcfs_default().scheduler.class(),
            PolicyClass::Baseline
        );
    }
}
