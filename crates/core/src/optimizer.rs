//! The placement optimizer: the paper's three-nested-loop heuristic
//! (§3.2, after Carrera et al. NOMS 2008).
//!
//! Each control cycle the optimizer walks the cluster:
//!
//! - **outer loop** over nodes;
//! - **intermediate loop** over the instances placed on the node,
//!   removing them one by one (most-satisfied applications first), which
//!   generates a set of base configurations;
//! - **inner loop** over applications in *lowest relative performance
//!   first* order, greedily starting new instances on the node as rigid
//!   capacities (memory, plus any extra declared dimensions) and
//!   constraints permit.
//!
//! Every candidate is scored with [`crate::evaluate::score_placement`]
//! (max-min load distribution + one-cycle-ahead batch evaluation) and
//! adopted greedily when it improves the satisfaction vector under the
//! extended max-min order. Placement changes are rationed: candidates
//! that only *start* instances need a small improvement
//! ([`ApcConfig::start_threshold`]), while candidates that stop, suspend,
//! or migrate running instances must clear a larger bar
//! ([`ApcConfig::disruption_threshold`]) — this realizes the paper's
//! "minimize placement changes" heuristic.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynaplace_model::app::ApplicationSpec;
use dynaplace_model::delta::PlacementAction;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::placement::Placement;
use dynaplace_model::resources::Resources;
use dynaplace_rpf::satisfaction::SatisfactionVector;
use dynaplace_rpf::value::Rp;
use dynaplace_trace::{CacheCounters, NoopSink, OptimizeMode, TraceEvent, TraceLevel, TraceSink};

use crate::cache::ScoreCache;
use crate::evaluate::{score_placement, score_placement_cached, PlacementScore};
use crate::problem::PlacementProblem;
use crate::shard::ShardingPolicy;

/// The optimization objective.
///
/// The paper argues (§2, §3.2) for an *extended max-min* criterion —
/// maximize the least-satisfied application first — explicitly to
/// prevent starvation, in contrast to total-utility maximizers such as
/// Wang et al. \[17\]. Both objectives are provided so the claim can be
/// tested (see `tests/objective_comparison.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Lexicographic max-min over relative performance (the paper).
    #[default]
    LexicographicMaxMin,
    /// Maximize the sum of relative performance (utility-style). Can
    /// starve applications whose performance is expensive to improve.
    TotalPerformance,
}

/// How candidate placements are scored during the search.
///
/// Both modes return bit-identical results — the incremental memos store
/// the exact values the from-scratch path computes (see [`crate::cache`])
/// — which the differential suite in `crates/core/tests/differential.rs`
/// asserts on randomized problems. `FromScratch` is kept as the oracle
/// and as the seed-behavior baseline for benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoringMode {
    /// Score every candidate from scratch (the original behavior).
    FromScratch,
    /// Memoize scoring work in a per-call [`ScoreCache`].
    #[default]
    Incremental,
}

/// Tunables of the placement optimizer.
///
/// The struct is `#[non_exhaustive]`: construct it through
/// [`ApcConfig::builder`] (validated) or start from
/// [`ApcConfig::default`] and assign the fields you need. Struct
/// literals from outside the crate no longer compile, which is what
/// lets new fields (such as [`ApcConfig::sharding`]) arrive without
/// breaking downstream code.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ApcConfig {
    /// The optimization objective.
    pub objective: Objective,
    /// Tolerance when comparing satisfaction vectors element-wise.
    pub epsilon: f64,
    /// Minimum lexicographic gain to adopt a candidate whose only actions
    /// are instance starts.
    pub start_threshold: f64,
    /// Minimum lexicographic gain to adopt a candidate that stops,
    /// suspends, or migrates a running instance.
    pub disruption_threshold: f64,
    /// Maximum number of improvement sweeps over all nodes.
    pub max_sweeps: usize,
    /// Maximum number of applications tried by the inner fill loop per
    /// candidate.
    pub max_fill_candidates: usize,
    /// Candidate scoring strategy (bit-identical either way).
    pub scoring: ScoringMode,
    /// Optional wall-clock budget for one optimization run. The search
    /// checks it at node-loop granularity and returns the best placement
    /// found so far when it elapses, flagging the outcome as
    /// [`PlacementOutcome::timed_out`] — a slow optimization can never
    /// stall the control cycle. `None` (the default) searches to
    /// convergence. Note: a deadline makes the *chosen placement* depend
    /// on wall-clock speed; keep it `None` for reproducible runs.
    pub deadline: Option<std::time::Duration>,
    /// Cell-sharded placement for large clusters (see [`crate::shard`]).
    /// `None` (the default) runs the classic single-cell optimization —
    /// bit-identical to every release before sharding existed. `Some`
    /// partitions the cluster into cells of
    /// [`ShardingPolicy::cell_size`] nodes, places each cell
    /// independently, one cell after another, and rebalances the
    /// worst-satisfied applications across cells.
    pub sharding: Option<ShardingPolicy>,
}

impl Default for ApcConfig {
    fn default() -> Self {
        Self {
            objective: Objective::default(),
            epsilon: 1e-6,
            start_threshold: 1e-3,
            disruption_threshold: 0.02,
            max_sweeps: 8,
            max_fill_candidates: 64,
            scoring: ScoringMode::default(),
            deadline: None,
            sharding: None,
        }
    }
}

/// A rejected [`ApcConfigBuilder`] field combination.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `epsilon` must be a finite, strictly positive tolerance.
    InvalidEpsilon(f64),
    /// A threshold must be finite and non-negative (NaN thresholds make
    /// every comparison vacuous and silently disable change rationing).
    InvalidThreshold {
        /// Which threshold was rejected.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// `max_sweeps` of zero would return the incumbent unexamined.
    ZeroSweeps,
    /// A sharding cell must hold at least one node.
    ZeroCellSize,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::InvalidEpsilon(v) => {
                write!(f, "epsilon must be finite and > 0, got {v}")
            }
            ConfigError::InvalidThreshold { name, value } => {
                write!(f, "{name} must be finite and >= 0, got {value}")
            }
            ConfigError::ZeroSweeps => write!(f, "max_sweeps must be at least 1"),
            ConfigError::ZeroCellSize => write!(f, "sharding cell_size must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`ApcConfig`] — the blessed construction path
/// now that the struct is `#[non_exhaustive]`. Unset fields keep their
/// [`ApcConfig::default`] values; [`build`](Self::build) rejects
/// non-finite or non-positive tolerances, zero sweeps, and degenerate
/// sharding policies.
#[derive(Debug, Clone)]
pub struct ApcConfigBuilder {
    config: ApcConfig,
}

impl ApcConfigBuilder {
    /// The optimization objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.config.objective = objective;
        self
    }

    /// Tolerance when comparing satisfaction vectors element-wise.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.config.epsilon = epsilon;
        self
    }

    /// Minimum gain to adopt a start-only candidate.
    pub fn start_threshold(mut self, threshold: f64) -> Self {
        self.config.start_threshold = threshold;
        self
    }

    /// Minimum gain to adopt a disruptive candidate.
    pub fn disruption_threshold(mut self, threshold: f64) -> Self {
        self.config.disruption_threshold = threshold;
        self
    }

    /// Maximum improvement sweeps over all nodes.
    pub fn max_sweeps(mut self, sweeps: usize) -> Self {
        self.config.max_sweeps = sweeps;
        self
    }

    /// Maximum applications tried by the inner fill loop per candidate.
    pub fn max_fill_candidates(mut self, candidates: usize) -> Self {
        self.config.max_fill_candidates = candidates;
        self
    }

    /// Candidate scoring strategy.
    pub fn scoring(mut self, scoring: ScoringMode) -> Self {
        self.config.scoring = scoring;
        self
    }

    /// Optional wall-clock budget for one optimization run.
    pub fn deadline(mut self, deadline: Option<std::time::Duration>) -> Self {
        self.config.deadline = deadline;
        self
    }

    /// Cell-sharded placement policy (`None` = classic single-cell).
    pub fn sharding(mut self, sharding: Option<ShardingPolicy>) -> Self {
        self.config.sharding = sharding;
        self
    }

    /// Validates the assembled configuration.
    pub fn build(self) -> Result<ApcConfig, ConfigError> {
        let c = &self.config;
        if !c.epsilon.is_finite() || c.epsilon <= 0.0 {
            return Err(ConfigError::InvalidEpsilon(c.epsilon));
        }
        for (name, value) in [
            ("start_threshold", c.start_threshold),
            ("disruption_threshold", c.disruption_threshold),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::InvalidThreshold { name, value });
            }
        }
        if c.max_sweeps == 0 {
            return Err(ConfigError::ZeroSweeps);
        }
        if let Some(sharding) = &c.sharding {
            if sharding.cell_size == 0 {
                return Err(ConfigError::ZeroCellSize);
            }
            if !sharding.rebalance_threshold.is_finite() || sharding.rebalance_threshold < 0.0 {
                return Err(ConfigError::InvalidThreshold {
                    name: "rebalance_threshold",
                    value: sharding.rebalance_threshold,
                });
            }
        }
        Ok(self.config)
    }
}

impl ApcConfig {
    /// Starts a validating [`ApcConfigBuilder`] from the defaults.
    pub fn builder() -> ApcConfigBuilder {
        ApcConfigBuilder {
            config: Self::default(),
        }
    }

    /// A configuration that reproduces the paper's §4.3 narrative
    /// exactly: the coarser ≈0.01 tie tolerance is applied to starts as
    /// well, so a start that gains less than 0.01 is skipped in favour of
    /// "no placement changes" (scenario S1 keeps J1 alone in cycle 2).
    pub fn paper_narrative() -> Self {
        Self::builder()
            .start_threshold(0.01)
            .build()
            .expect("narrative configuration is valid")
    }
}

/// Scores one placement under the configured [`ScoringMode`].
fn score_one(
    problem: &PlacementProblem<'_>,
    config: &ApcConfig,
    cache: &ScoreCache,
    placement: &Placement,
) -> Option<Arc<PlacementScore>> {
    match config.scoring {
        ScoringMode::FromScratch => score_placement(problem, placement).map(Arc::new),
        ScoringMode::Incremental => score_placement_cached(problem, placement, cache),
    }
}

/// Compares two satisfaction vectors under the configured objective:
/// `Greater` means `a` is the better system state.
pub(crate) fn objective_cmp(
    config: &ApcConfig,
    a: &dynaplace_rpf::satisfaction::SatisfactionVector,
    b: &dynaplace_rpf::satisfaction::SatisfactionVector,
    tolerance: f64,
) -> std::cmp::Ordering {
    match config.objective {
        Objective::LexicographicMaxMin => a.compare(b, tolerance),
        Objective::TotalPerformance => {
            let sum = |v: &dynaplace_rpf::satisfaction::SatisfactionVector| -> f64 {
                v.entries().iter().map(|(_, u)| u.value()).sum()
            };
            let (sa, sb) = (sum(a), sum(b));
            // The tolerance scales with the vector length so a per-app
            // threshold keeps comparable meaning across objectives.
            let tol = tolerance * a.entries().len().max(1) as f64;
            if (sa - sb).abs() <= tol {
                std::cmp::Ordering::Equal
            } else if sa > sb {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Less
            }
        }
    }
}

/// Counters describing one optimizer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptimizerStats {
    /// Candidate placements scored (each includes a load distribution
    /// and a batch evaluation).
    pub evaluations: usize,
    /// Improvement sweeps performed.
    pub sweeps: usize,
    /// Candidates adopted.
    pub adoptions: usize,
}

/// The outcome of one control cycle's optimization.
#[derive(Debug, Clone)]
pub struct PlacementOutcome {
    /// The chosen placement.
    pub placement: Placement,
    /// Its max-min fair load distribution.
    pub score: PlacementScore,
    /// Control actions transforming the problem's current placement into
    /// the chosen one.
    pub actions: Vec<PlacementAction>,
    /// Search statistics.
    pub stats: OptimizerStats,
    /// Whether the wall-clock [`ApcConfig::deadline`] elapsed before the
    /// search converged; the placement is the best found so far (always
    /// feasible — at worst the incumbent).
    pub timed_out: bool,
}

impl PlacementOutcome {
    /// The number of *disruptive* actions (stops and migrations) — the
    /// quantity the paper's Fig. 4 counts. Starts are not disruptions.
    pub fn disruptions(&self) -> usize {
        self.actions
            .iter()
            .filter(|a| !matches!(a, PlacementAction::Start { .. }))
            .count()
    }
}

/// Runs the full three-nested-loop optimization for one control cycle.
/// With [`ApcConfig::sharding`] set, the cluster is partitioned into
/// cells that are placed independently and rebalanced (see
/// [`crate::shard`]); with `None` this is the classic whole-cluster
/// search.
///
/// # Panics
///
/// Panics if the problem's current placement is infeasible under its own
/// minimum speeds (the simulator never produces such a state).
pub fn place(problem: &PlacementProblem<'_>, config: &ApcConfig) -> PlacementOutcome {
    place_traced(problem, config, &NoopSink)
}

/// Arrival-time advice: like [`place`], but only *starts* instances —
/// never disturbs running ones. The job scheduler calls this between
/// control cycles when a job arrives and idle capacity may exist (§3.1:
/// the scheduler uses the controller as an advisor on where and when a
/// job should be executed).
pub fn fill_only(problem: &PlacementProblem<'_>, config: &ApcConfig) -> PlacementOutcome {
    fill_only_traced(problem, config, &NoopSink)
}

/// [`place`] with decision-provenance tracing: every node-loop visit,
/// candidate verdict, cache counter, and deadline truncation is recorded
/// into `sink`. With [`NoopSink`] this is exactly [`place`] — sites gate
/// on [`TraceSink::wants`] before building events, so the chosen
/// placement and every score bit are identical.
pub fn place_traced(
    problem: &PlacementProblem<'_>,
    config: &ApcConfig,
    sink: &dyn TraceSink,
) -> PlacementOutcome {
    match &config.sharding {
        Some(policy) => crate::shard::place_sharded(problem, config, policy, true, sink),
        None => optimize(problem, config, true, sink),
    }
}

/// [`fill_only`] with decision-provenance tracing (see [`place_traced`]).
pub fn fill_only_traced(
    problem: &PlacementProblem<'_>,
    config: &ApcConfig,
    sink: &dyn TraceSink,
) -> PlacementOutcome {
    match &config.sharding {
        Some(policy) => crate::shard::place_sharded(problem, config, policy, false, sink),
        None => optimize(problem, config, false, sink),
    }
}

/// The relative-performance delta that justifies preferring `a` over `b`
/// under the configured objective: for lexicographic max-min, the first
/// ascending-sorted element pair differing by more than `tolerance`
/// (mirroring [`SatisfactionVector::compare`]); for total performance,
/// the sum difference. Only computed when a sink wants the event.
pub(crate) fn justifying_delta(
    config: &ApcConfig,
    a: &SatisfactionVector,
    b: &SatisfactionVector,
    tolerance: f64,
) -> f64 {
    match config.objective {
        Objective::LexicographicMaxMin => a
            .entries()
            .iter()
            .zip(b.entries())
            .find(|((_, x), (_, y))| {
                x.cmp_with_tolerance(*y, tolerance) != std::cmp::Ordering::Equal
            })
            .map(|((_, x), (_, y))| x.value() - y.value())
            .unwrap_or(0.0),
        Objective::TotalPerformance => {
            let sum = |v: &SatisfactionVector| -> f64 {
                v.entries().iter().map(|(_, u)| u.value()).sum()
            };
            sum(a) - sum(b)
        }
    }
}

/// Restricts one optimization run to a subset of the cluster and of the
/// applications — the mechanism the cell-sharded layer (and its global
/// residual/rebalance passes) reuses the whole three-loop search
/// through. The default scope (`None`/`None`) is the classic
/// whole-problem search, bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SearchScope<'s> {
    /// Nodes the outer loop (and transactional expansion) may visit;
    /// `None` = every cluster node in id order.
    pub nodes: Option<&'s [NodeId]>,
    /// Applications whose instances may be started or removed; `None` =
    /// all live applications. Out-of-scope applications still contribute
    /// to every score — they are frozen, not invisible.
    pub movable: Option<&'s std::collections::BTreeSet<AppId>>,
}

impl SearchScope<'_> {
    fn allows_move(&self, app: AppId) -> bool {
        self.movable.map_or(true, |m| m.contains(&app))
    }
}

fn optimize(
    problem: &PlacementProblem<'_>,
    config: &ApcConfig,
    allow_removals: bool,
    sink: &dyn TraceSink,
) -> PlacementOutcome {
    optimize_scoped(
        problem,
        config,
        allow_removals,
        sink,
        SearchScope::default(),
    )
}

pub(crate) fn optimize_scoped(
    problem: &PlacementProblem<'_>,
    config: &ApcConfig,
    allow_removals: bool,
    sink: &dyn TraceSink,
    scope: SearchScope<'_>,
) -> PlacementOutcome {
    let mut stats = OptimizerStats::default();
    let now = problem.now.as_secs();
    let nodes: Vec<NodeId> = match scope.nodes {
        Some(subset) => subset.to_vec(),
        None => problem.cluster.node_ids().collect(),
    };
    if sink.wants(TraceLevel::Decisions) {
        sink.record(&TraceEvent::OptimizeStart {
            time: now,
            mode: if allow_removals {
                OptimizeMode::Place
            } else {
                OptimizeMode::FillOnly
            },
            apps: problem.workloads.len(),
            nodes: nodes.len(),
        });
    }
    // Memos live exactly as long as the problem they are valid for.
    let cache = ScoreCache::new();
    // Anytime contract: the clock starts before any scoring happens, and
    // the loops below poll it at node granularity.
    let started = config
        .deadline
        .map(|budget| (std::time::Instant::now(), budget));
    let deadline_hit = || started.is_some_and(|(at, budget)| at.elapsed() >= budget);
    let mut timed_out = false;

    // Restrict the starting placement to live applications.
    let mut current: Placement = problem
        .current
        .iter()
        .filter(|(app, _, _)| problem.workloads.contains_key(app))
        .collect();

    let mut best = match score_one(problem, config, &cache, &current) {
        Some(score) => score,
        None => {
            // The in-effect placement became infeasible (e.g. a stage
            // change raised minimum speeds): restart from an empty
            // placement, which is always feasible.
            current = Placement::new();
            score_one(problem, config, &cache, &current)
                .expect("the empty placement is always feasible")
        }
    };
    stats.evaluations += 1;

    // Demand-driven expansion of transactional clusters: a web
    // application whose placed capacity is below its maximum useful
    // demand gains nothing from a *single* extra instance while it is
    // still overloaded (its relative performance sits flat at the floor
    // until enough nodes are aggregated), so greedy hill climbing alone
    // would never grow it. Following the paper's demand question ("how
    // much additional CPU must be allocated to reach a target
    // performance"), instances are added while capacity lags demand, as
    // long as the rest of the system is not hurt.
    timed_out |= expand_transactional(
        problem,
        config,
        &cache,
        &mut current,
        &mut best,
        &mut stats,
        started,
        sink,
        &nodes,
        scope,
    );

    // Fill order, open applications, and the node→residents index only
    // change when a candidate is adopted, so they are rebuilt then, not
    // on every node visit.
    let mut incumbent = Incumbent::new(problem, config, &current, &best, scope);

    'sweeps: for sweep in 0..config.max_sweeps {
        stats.sweeps += 1;
        let mut improved_any = false;

        for &node in &nodes {
            if deadline_hit() {
                timed_out = true;
                if sink.wants(TraceLevel::Decisions) {
                    sink.record(&TraceEvent::DeadlineTruncated {
                        time: now,
                        sweep: sweep as u64,
                        evaluations: stats.evaluations as u64,
                    });
                }
                break 'sweeps;
            }
            // Most-satisfied-first removal order for this node's
            // residents. A fill-only pass removes nothing, so it needs the
            // order only to report the resident count to a verbose sink.
            let verbose = sink.wants(TraceLevel::Verbose);
            let residents = if allow_removals || verbose {
                removal_order(&best, incumbent.residents_on(node), scope)
            } else {
                Vec::new()
            };
            let max_removals = if allow_removals { residents.len() } else { 0 };
            if verbose {
                sink.record(&TraceEvent::NodeEnter {
                    time: now,
                    sweep: sweep as u64,
                    node,
                    residents: residents.len(),
                });
            }

            // Intermediate loop: build every candidate for this node
            // first (k instances removed, then greedily refilled), …
            // Most nodes of a fill-only pass build none, so the vector
            // allocates on its first push.
            let mut candidates: Vec<Placement> = Vec::new();
            for k in 0..=max_removals {
                // With nothing removed, the fill changes the placement
                // only if some open application fits the node as it
                // stands; otherwise the candidate would equal `current`
                // and be discarded unscored below, so skip the clone.
                if k == 0 && !incumbent.fill_starts_on(problem, node) {
                    continue;
                }
                let mut candidate = current.clone();
                for &app in &residents[..k] {
                    candidate
                        .remove(app, node)
                        .expect("resident instance exists");
                }
                fill_node(
                    problem,
                    &mut candidate,
                    node,
                    &residents[..k],
                    incumbent.residents_on(node),
                    &incumbent.fill_order,
                    config,
                );
                if candidate == current {
                    continue;
                }
                candidates.push(candidate);
            }
            // … then score and fold them in generation (k) order.
            let scored_count = candidates.len();

            // (candidate, score, disruptive action count)
            let mut node_best: Option<(Placement, Arc<PlacementScore>, usize)> = None;
            for candidate in candidates {
                let Some(score) = score_one(problem, config, &cache, &candidate) else {
                    continue;
                };
                stats.evaluations += 1;
                let diff = current.diff(&candidate);
                let disruptions = diff
                    .iter()
                    .filter(|a| !matches!(a, PlacementAction::Start { .. }))
                    .count();
                let threshold = if disruptions == 0 {
                    config.start_threshold
                } else {
                    config.disruption_threshold
                };
                let ordering =
                    objective_cmp(config, &score.satisfaction, &best.satisfaction, threshold);
                // No special case for hopelessly late jobs: the sub-floor
                // band keeps their utility strictly decreasing in
                // lateness, so a candidate that starts (or speeds up) a
                // hopeless job improves the objective by an honest,
                // tolerance-visible margin — band values compare by
                // decompressed lateness, where one cycle of progress is
                // worth `cycle / relative_goal`, the same scale healthy
                // jobs move at. (An objective-equal "rescues starving
                // jobs" tie-break used to live here to contain the flat
                // clamp's indifference.)
                if ordering != std::cmp::Ordering::Greater {
                    if verbose {
                        sink.record(&TraceEvent::CandidateRejected {
                            time: now,
                            sweep: sweep as u64,
                            node,
                            delta: justifying_delta(
                                config,
                                &score.satisfaction,
                                &best.satisfaction,
                                config.epsilon,
                            ),
                            disruptions,
                            threshold,
                        });
                    }
                    continue;
                }
                // Among adoptable candidates, prefer the better score —
                // but a candidate with *more* disruptions must beat the
                // incumbent by the disruption threshold, not merely by
                // epsilon ("minimize placement changes").
                let is_better = match &node_best {
                    None => true,
                    Some((_, s, best_disruptions)) => {
                        let bar = if disruptions > *best_disruptions {
                            config.disruption_threshold
                        } else {
                            config.epsilon
                        };
                        objective_cmp(config, &score.satisfaction, &s.satisfaction, bar)
                            == std::cmp::Ordering::Greater
                    }
                };
                if is_better {
                    node_best = Some((candidate, score, disruptions));
                } else if verbose {
                    // Adoptable, but displaced by an earlier candidate
                    // for this node.
                    sink.record(&TraceEvent::CandidateRejected {
                        time: now,
                        sweep: sweep as u64,
                        node,
                        delta: justifying_delta(
                            config,
                            &score.satisfaction,
                            &best.satisfaction,
                            config.epsilon,
                        ),
                        disruptions,
                        threshold,
                    });
                }
            }

            let adopted = node_best.is_some();
            if let Some((candidate, score, disruptions)) = node_best {
                if sink.wants(TraceLevel::Decisions) {
                    sink.record(&TraceEvent::CandidateAccepted {
                        time: now,
                        sweep: sweep as u64,
                        node,
                        delta: justifying_delta(
                            config,
                            &score.satisfaction,
                            &best.satisfaction,
                            config.epsilon,
                        ),
                        disruptions,
                        threshold: if disruptions == 0 {
                            config.start_threshold
                        } else {
                            config.disruption_threshold
                        },
                    });
                }
                current = candidate;
                best = score;
                incumbent = Incumbent::new(problem, config, &current, &best, scope);
                stats.adoptions += 1;
                improved_any = true;
            }
            if verbose {
                sink.record(&TraceEvent::NodeExit {
                    time: now,
                    sweep: sweep as u64,
                    node,
                    candidates: scored_count,
                    adopted,
                });
            }
        }

        if !improved_any {
            break;
        }
    }

    if sink.wants(TraceLevel::Decisions) {
        let s = cache.stats();
        sink.record(&TraceEvent::CachePassStats {
            time: now,
            counters: CacheCounters {
                score_hits: s.score_hits,
                score_misses: s.score_misses,
                demand_hits: s.demand_hits,
                demand_misses: s.demand_misses,
                batch_hits: s.batch_hits,
                batch_misses: s.batch_misses,
                column_hits: s.column_hits,
                column_misses: s.column_misses,
            },
        });
        sink.record(&TraceEvent::OptimizeEnd {
            time: now,
            evaluations: stats.evaluations as u64,
            sweeps: stats.sweeps as u64,
            adoptions: stats.adoptions as u64,
            timed_out,
        });
    }

    let actions = problem.current.diff(&current);
    PlacementOutcome {
        placement: current,
        score: Arc::try_unwrap(best).unwrap_or_else(|shared| (*shared).clone()),
        actions,
        stats,
        timed_out,
    }
}

/// Grows every transactional application's cluster while its placed
/// capacity is below its maximum useful demand, one instance at a time on
/// the node with the most free memory, stopping as soon as an addition
/// would make the satisfaction vector strictly worse. Feasibility is
/// judged across every rigid dimension (via `check_place`); the
/// ranking key stays free *memory* so memory-only problems pick the
/// same node the pre-vector optimizer picked.
///
/// Returns whether the wall-clock deadline elapsed mid-expansion.
#[allow(clippy::too_many_arguments)]
fn expand_transactional(
    problem: &PlacementProblem<'_>,
    config: &ApcConfig,
    cache: &ScoreCache,
    current: &mut Placement,
    best: &mut Arc<PlacementScore>,
    stats: &mut OptimizerStats,
    started: Option<(std::time::Instant, std::time::Duration)>,
    sink: &dyn TraceSink,
    nodes: &[NodeId],
    scope: SearchScope<'_>,
) -> bool {
    use crate::problem::WorkloadModel;
    use std::cmp::Ordering;

    let txn_apps: Vec<AppId> = problem
        .workloads
        .iter()
        .filter(|(_, m)| matches!(m, WorkloadModel::Transactional(_)))
        .map(|(&app, _)| app)
        .filter(|&app| scope.allows_move(app))
        .collect();

    for app in txn_apps {
        let useful = match &problem.workloads[&app] {
            WorkloadModel::Transactional(m) => {
                dynaplace_rpf::model::PerformanceModel::max_useful_demand(m).as_mhz()
            }
            WorkloadModel::Batch(_) => unreachable!("filtered to transactional"),
        };
        let spec = problem.apps.get(app).expect("live app is registered");
        loop {
            if started.is_some_and(|(at, budget)| at.elapsed() >= budget) {
                if sink.wants(TraceLevel::Decisions) {
                    // Truncated before the first sweep even started.
                    sink.record(&TraceEvent::DeadlineTruncated {
                        time: problem.now.as_secs(),
                        sweep: 0,
                        evaluations: stats.evaluations as u64,
                    });
                }
                return true;
            }
            // Placed capacity, with per-node cells capped by node CPU.
            let placed_capacity: f64 = current
                .instances_of(app)
                .map(|(node, count)| {
                    let node_cap = problem
                        .cluster
                        .node(node)
                        .expect("known node")
                        .cpu_capacity()
                        .as_mhz();
                    (spec.max_instance_speed().as_mhz() * f64::from(count)).min(node_cap)
                })
                .sum();
            if placed_capacity >= useful - 1e-6 {
                break;
            }
            // Candidate node: most free memory, deterministic tie-break.
            let mut target: Option<(NodeId, f64)> = None;
            for &node in nodes {
                if !problem.allows_node(app, node) {
                    continue; // pinned away or quarantined
                }
                if current
                    .check_place(app, node, problem.cluster, problem.apps)
                    .is_err()
                {
                    continue;
                }
                let used = current
                    .memory_used(node, problem.apps)
                    .expect("apps registered")
                    .as_mb();
                let free = problem
                    .cluster
                    .node(node)
                    .expect("known node")
                    .memory_capacity()
                    .as_mb()
                    - used;
                if target.map_or(true, |(_, best_free)| free > best_free) {
                    target = Some((node, free));
                }
            }
            let Some((node, _)) = target else { break };
            let mut candidate = current.clone();
            candidate.place(app, node); // admitted by `check_place` above
            let Some(score) = score_one(problem, config, cache, &candidate) else {
                break;
            };
            stats.evaluations += 1;
            if objective_cmp(
                config,
                &score.satisfaction,
                &best.satisfaction,
                config.epsilon,
            ) == Ordering::Less
            {
                break; // expansion would hurt someone else
            }
            if sink.wants(TraceLevel::Decisions) {
                sink.record(&TraceEvent::TxnExpanded {
                    time: problem.now.as_secs(),
                    app,
                    node,
                    delta: justifying_delta(
                        config,
                        &score.satisfaction,
                        &best.satisfaction,
                        config.epsilon,
                    ),
                });
            }
            *current = candidate;
            *best = score;
            stats.adoptions += 1;
        }
    }
    false
}

/// What the node loop reads from the incumbent (`current` and its score),
/// rebuilt when a candidate is adopted rather than on every node visit.
struct Incumbent<'p> {
    /// Lowest relative performance first fill order, from the incumbent
    /// score (queued and struggling applications first). Out-of-scope
    /// applications are frozen in place, never refilled.
    fill_order: Vec<AppId>,
    /// The applications a fill that removes nothing may start: those
    /// among the first [`ApcConfig::max_fill_candidates`] of `fill_order`
    /// that are registered and still below their instance limit.
    open: Vec<(AppId, &'p ApplicationSpec)>,
    /// Each node's instances, ascending `AppId` (the order
    /// [`Placement::apps_on`] yields), without scanning the placement.
    residents: BTreeMap<NodeId, Vec<(AppId, u32)>>,
}

impl<'p> Incumbent<'p> {
    fn new(
        problem: &PlacementProblem<'p>,
        config: &ApcConfig,
        current: &Placement,
        best: &PlacementScore,
        scope: SearchScope<'_>,
    ) -> Self {
        let fill_order = best
            .satisfaction
            .entries()
            .iter()
            .map(|&(app, _)| app)
            .filter(|&app| scope.allows_move(app))
            .collect();
        Self::from_fill_order(problem, config, current, fill_order)
    }

    fn from_fill_order(
        problem: &PlacementProblem<'p>,
        config: &ApcConfig,
        current: &Placement,
        fill_order: Vec<AppId>,
    ) -> Self {
        let open = fill_order
            .iter()
            .take(config.max_fill_candidates)
            .filter_map(|&app| {
                let spec = problem.apps.get(app).ok()?;
                (current.total_instances(app) < spec.max_instances()).then_some((app, spec))
            })
            .collect();
        let mut residents: BTreeMap<NodeId, Vec<(AppId, u32)>> = BTreeMap::new();
        // Cells iterate in (app, node) order, so each node's list comes
        // out in ascending AppId order.
        for (app, node, count) in current.iter() {
            residents.entry(node).or_default().push((app, count));
        }
        Self {
            fill_order,
            open,
            residents,
        }
    }

    fn residents_on(&self, node: NodeId) -> &[(AppId, u32)] {
        self.residents.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Whether [`fill_node`] with nothing removed would start an instance
    /// on `node`. It starts one exactly when some open application is
    /// admitted beside the node's residents as they stand: nothing
    /// changes on the node before the first start, and every open
    /// application is tried.
    fn fill_starts_on(&self, problem: &PlacementProblem<'_>, node: NodeId) -> bool {
        let Ok(node_spec) = problem.cluster.node(node) else {
            return false;
        };
        let residents = self.residents_on(node);
        self.open.iter().any(|&(app, spec)| {
            admits(
                problem,
                app,
                spec,
                node,
                node_spec.rigid_capacity(),
                residents,
            )
        })
    }
}

/// The instances among `residents` (one node's, ascending `AppId`), one
/// entry per instance, ordered so that the most satisfied applications
/// are removed first (they can best afford the disruption).
/// Out-of-scope applications are never removal candidates.
fn removal_order(
    best: &PlacementScore,
    residents: &[(AppId, u32)],
    scope: SearchScope<'_>,
) -> Vec<AppId> {
    let mut perf: Vec<(AppId, Rp)> = Vec::new();
    for &(app, count) in residents {
        if !scope.allows_move(app) {
            continue;
        }
        let u = best
            .satisfaction
            .entries()
            .iter()
            .find(|(a, _)| *a == app)
            .map(|&(_, u)| u)
            .unwrap_or(Rp::GOAL);
        for _ in 0..count {
            perf.push((app, u));
        }
    }
    perf.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    perf.into_iter().map(|(app, _)| app).collect()
}

/// Whether one more instance of `app` may start on `node` beside
/// `residents` (the node's instances, ascending `AppId`): pinning, the
/// quarantine list, anti-affinity, and every rigid dimension. The
/// instance limit is left to the caller. This is the one admission
/// predicate both [`fill_node`] and [`Incumbent::fill_starts_on`] apply.
///
/// It replicates [`Placement::check_place`] without its scans of every
/// placement cell: the same predicates, and each rigid dimension's usage
/// accumulates over residents in the ascending-`AppId` order
/// [`Placement::rigid_used`] uses, so every accept/reject decision
/// (including any floating-point boundary case) is identical. With a
/// memory-only registry the dimension loop degenerates to the single
/// scalar accumulation of the pre-vector optimizer, bit for bit.
fn admits(
    problem: &PlacementProblem<'_>,
    app: AppId,
    spec: &ApplicationSpec,
    node: NodeId,
    node_rigid: &Resources,
    residents: &[(AppId, u32)],
) -> bool {
    if !spec.allows_node(node) || problem.forbidden.contains(&(app, node)) {
        return false;
    }
    for &(other, _) in residents {
        match problem.apps.get(other) {
            Ok(other_spec) if other == app || spec.may_share_node_with(other_spec) => {}
            _ => return false,
        }
    }
    // Dimension 0 = memory; `dims` is 1 in the paper's model.
    let dims = problem.cluster.dims().len().max(node_rigid.len());
    let demand = spec.rigid_per_instance();
    !(0..dims).any(|d| {
        let used = residents.iter().fold(0.0, |used, &(other, count)| {
            let per_instance = problem.apps.get(other).expect("checked above");
            used + per_instance.rigid_per_instance().get(d) * f64::from(count)
        });
        used + demand.get(d) > node_rigid.get(d)
    })
}

/// The inner loop: greedily starts instances on `node` in lowest relative
/// performance first order, as constraints permit. Applications removed
/// by the current candidate's intermediate loop (`removed`, already taken
/// off `candidate`) are not re-added. `residents` are the node's
/// instances before those removals, ascending `AppId`; the fill keeps
/// its own copy up to date as it starts instances, and checks each start
/// with [`admits`].
fn fill_node(
    problem: &PlacementProblem<'_>,
    candidate: &mut Placement,
    node: NodeId,
    removed: &[AppId],
    residents: &[(AppId, u32)],
    fill_order: &[AppId],
    config: &ApcConfig,
) {
    let Ok(node_spec) = problem.cluster.node(node) else {
        return;
    };
    let mut residents = residents.to_vec();
    for app in removed {
        let i = residents
            .binary_search_by_key(app, |&(a, _)| a)
            .expect("removed instance was resident");
        residents[i].1 -= 1;
        if residents[i].1 == 0 {
            residents.remove(i);
        }
    }
    let mut tried = 0;
    for &app in fill_order {
        if tried >= config.max_fill_candidates {
            break;
        }
        if removed.contains(&app) {
            continue;
        }
        tried += 1;
        // Try to add one instance of `app` on `node`.
        let Ok(spec) = problem.apps.get(app) else {
            continue;
        };
        if candidate.total_instances(app) >= spec.max_instances()
            || !admits(
                problem,
                app,
                spec,
                node,
                node_spec.rigid_capacity(),
                &residents,
            )
        {
            continue;
        }
        candidate.place(app, node);
        match residents.binary_search_by_key(&app, |&(a, _)| a) {
            Ok(i) => residents[i].1 += 1,
            Err(i) => residents.insert(i, (app, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use dynaplace_model::prelude::*;
    use proptest::prelude::*;

    use super::*;

    /// One application: memory (MB), license slots per instance, node it
    /// is pinned to, anti-affinity group, instance limit (1 = batch job),
    /// and the nodes its instances are started on, in order.
    type AppParams = (f64, u32, Option<u32>, Option<u32>, u32, Vec<u32>);

    /// Nodes as (memory MB, license slots), apps, forbidden
    /// (app, node) index pairs, a fill-order sort key per app, and
    /// `max_fill_candidates`.
    type WorldParams = (
        Vec<(f64, u32)>,
        Vec<AppParams>,
        Vec<(u32, u32)>,
        Vec<u32>,
        usize,
    );

    struct World {
        cluster: Cluster,
        apps: AppSet,
        current: Placement,
        forbidden: BTreeSet<(AppId, NodeId)>,
        fill_order: Vec<AppId>,
        config: ApcConfig,
    }

    impl World {
        fn problem(&self) -> PlacementProblem<'_> {
            PlacementProblem {
                cluster: &self.cluster,
                apps: &self.apps,
                workloads: BTreeMap::new(),
                current: &self.current,
                now: SimTime::ZERO,
                cycle: SimDuration::from_secs(60.0),
                forbidden: self.forbidden.clone(),
            }
        }

        fn incumbent(&self) -> Incumbent<'_> {
            Incumbent::from_fill_order(
                &self.problem(),
                &self.config,
                &self.current,
                self.fill_order.clone(),
            )
        }
    }

    fn arb_world() -> impl Strategy<Value = WorldParams> {
        let node = (300.0..3_000.0f64, 0u32..3);
        let app = (
            50.0..1_200.0f64,
            0u32..2,
            proptest::option::of(0u32..8),
            proptest::option::of(0u32..2),
            1u32..4,
            proptest::collection::vec(0u32..8, 0..4),
        );
        (
            proptest::collection::vec(node, 1..8),
            proptest::collection::vec(app, 1..12),
            proptest::collection::vec((0u32..12, 0u32..8), 0..4),
            proptest::collection::vec(0u32..1_000, 12),
            1usize..8,
        )
    }

    /// Builds a valid world: every instance of `current` is started with
    /// `checked_place`, so stacked nodes, anti-affinity neighbours, and
    /// applications at their instance limit all occur.
    fn build((nodes, app_params, forbidden, keys, max_fill): WorldParams) -> World {
        let mut cluster =
            Cluster::new().with_dims(ResourceDims::with_extra(["license_slots"]).unwrap());
        for &(memory, slots) in &nodes {
            cluster.add_node(
                NodeSpec::try_with_resources(
                    CpuSpeed::from_mhz(1_000.0),
                    Resources::new(vec![memory, f64::from(slots)]),
                )
                .unwrap(),
            );
        }
        let node = |i: u32| NodeId::new(i % nodes.len() as u32);
        let mut apps = AppSet::new();
        let mut current = Placement::new();
        for (memory, slots, pinned, group, max_instances, starts) in &app_params {
            let mut spec = if *max_instances == 1 {
                ApplicationSpec::batch(Memory::from_mb(*memory), CpuSpeed::from_mhz(500.0))
            } else {
                ApplicationSpec::transactional(
                    Memory::from_mb(*memory),
                    CpuSpeed::from_mhz(500.0),
                    *max_instances,
                )
            };
            if *slots > 0 {
                spec = spec.with_extra_rigid_demand([f64::from(*slots)]);
            }
            if let Some(n) = pinned {
                spec = spec.with_allowed_nodes([node(*n)]);
            }
            if let Some(g) = group {
                spec = spec.with_anti_affinity(AntiAffinityGroup(*g));
            }
            let app = apps.add(spec);
            for &n in starts {
                let _ = current.checked_place(app, node(n), &cluster, &apps);
            }
        }
        let app_count = app_params.len() as u32;
        let forbidden = forbidden
            .iter()
            .map(|&(a, n)| (AppId::new(a % app_count), node(n)))
            .collect();
        let mut fill_order: Vec<AppId> = (0..app_count).map(AppId::new).collect();
        fill_order.sort_by_key(|app| (keys[app.index()], *app));
        World {
            cluster,
            apps,
            current,
            forbidden,
            fill_order,
            config: ApcConfig::builder()
                .max_fill_candidates(max_fill)
                .build()
                .unwrap(),
        }
    }

    /// The fill as `Placement::check_place` defines it, scanning the
    /// placement for every check: the reference [`fill_node`] must match.
    fn reference_fill(world: &World, candidate: &mut Placement, node: NodeId, removed: &[AppId]) {
        let mut tried = 0;
        for &app in &world.fill_order {
            if tried >= world.config.max_fill_candidates {
                break;
            }
            if removed.contains(&app) {
                continue;
            }
            tried += 1;
            if world.forbidden.contains(&(app, node)) {
                continue;
            }
            let _ = candidate.checked_place(app, node, &world.cluster, &world.apps);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The skip reports "nothing fits" on a node exactly when a fill
        /// that removes nothing leaves the placement unchanged.
        #[test]
        fn fill_starts_on_matches_fill_node(params in arb_world()) {
            let world = build(params);
            let problem = world.problem();
            let incumbent = world.incumbent();
            for node in world.cluster.node_ids() {
                let mut candidate = world.current.clone();
                fill_node(
                    &problem,
                    &mut candidate,
                    node,
                    &[],
                    incumbent.residents_on(node),
                    &incumbent.fill_order,
                    &world.config,
                );
                prop_assert_eq!(
                    incumbent.fill_starts_on(&problem, node),
                    candidate != world.current,
                    "node {}", node
                );
            }
        }

        /// With any number of the node's instances removed first, the
        /// indexed fill starts exactly the instances `checked_place`
        /// admits, in the same order.
        #[test]
        fn fill_node_matches_checked_place(params in arb_world()) {
            let world = build(params);
            let problem = world.problem();
            let incumbent = world.incumbent();
            for node in world.cluster.node_ids() {
                let on_node: Vec<AppId> = incumbent
                    .residents_on(node)
                    .iter()
                    .flat_map(|&(app, count)| std::iter::repeat(app).take(count as usize))
                    .collect();
                for k in 0..=on_node.len() {
                    let removed = &on_node[..k];
                    let mut base = world.current.clone();
                    for &app in removed {
                        base.remove(app, node).unwrap();
                    }
                    let mut indexed = base.clone();
                    fill_node(
                        &problem,
                        &mut indexed,
                        node,
                        removed,
                        incumbent.residents_on(node),
                        &incumbent.fill_order,
                        &world.config,
                    );
                    let mut reference = base;
                    reference_fill(&world, &mut reference, node, removed);
                    prop_assert_eq!(indexed, reference, "node {} k {}", node, k);
                }
            }
        }
    }
}
