//! Cell-sharded placement for thousand-node clusters.
//!
//! The paper's three-nested-loop heuristic (§4.3) walks every node and
//! every candidate application, which stops scaling a few hundred nodes
//! in even with the score cache. This module brings the classic
//! partition-then-place scale-out to the controller: the cluster is
//! deterministically split into *cells* of [`ShardingPolicy::cell_size`]
//! nodes, live applications are distributed across cells by a
//! deterministic greedy pack on estimated demand vs. cell capacity, each
//! cell is solved independently with the existing three-loop search
//! (one cell after another, each with its own score cache), and a
//! cross-cell rebalancer then tries moving the worst-satisfied
//! applications from saturated cells into slack ones.
//!
//! Applications that cannot be confined to one cell — pinning
//! constraints spanning cells, current instances straddling cells, or
//! estimated demand larger than any cell — are *escalated* into a small
//! global residual pass that runs over the whole cluster but may only
//! move the escalated applications; everything else is frozen in place
//! and still contributes to every score.
//!
//! # Determinism contract
//!
//! Cell partitioning, per-cell assignment, per-cell results, and the
//! merged placement are bit-identical across runs: cells are
//! contiguous id-ordered chunks, the greedy pack sorts by (demand
//! desc, id asc) with `total_cmp`, cells are solved by the
//! deterministic scoped search and merged in cell order, and the
//! rebalancer adopts moves by the same `objective_cmp` the optimizer
//! uses. With one cell (``cell_size >= cluster``) the pipeline reduces
//! to exactly the classic whole-cluster search — same placement, score,
//! actions, and stats, bit for bit — which
//! `crates/core/tests/shard_differential.rs` enforces via `to_bits`.

use std::collections::{BTreeMap, BTreeSet};

use dynaplace_model::cluster::Cluster;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::node::NodeSpec;
use dynaplace_model::placement::Placement;
use dynaplace_model::resources::Resources;
use dynaplace_model::units::CpuSpeed;
use dynaplace_rpf::model::PerformanceModel;
use dynaplace_trace::{EscalationReason, TraceEvent, TraceLevel, TraceSink};

use crate::evaluate::{score_placement, PlacementScore};
use crate::optimizer::{
    justifying_delta, objective_cmp, optimize_scoped, ApcConfig, OptimizerStats, PlacementOutcome,
    SearchScope,
};
use crate::problem::{PlacementProblem, WorkloadModel};

/// How the cluster is sharded into cells. Attach it to a configuration
/// via [`ApcConfig::builder`]; `None` keeps the classic single-cell
/// search.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardingPolicy {
    /// Nodes per cell. The cluster is split into contiguous id-ordered
    /// chunks of this size (the last cell may be smaller). A cell size
    /// of at least the cluster size yields one cell and reduces to the
    /// classic search bit for bit.
    pub cell_size: usize,
    /// Maximum cross-cell rebalance moves attempted per cycle after the
    /// cells settle; `0` disables the rebalancer.
    pub rebalance_moves: usize,
    /// Minimum global satisfaction gain (under the configured objective)
    /// a rebalance move must clear to be adopted — the cross-cell
    /// counterpart of [`ApcConfig::disruption_threshold`].
    pub rebalance_threshold: f64,
}

impl Default for ShardingPolicy {
    fn default() -> Self {
        ShardingPolicy {
            cell_size: 64,
            rebalance_moves: 4,
            rebalance_threshold: 0.02,
        }
    }
}

impl ShardingPolicy {
    /// A policy with the given cell size and default rebalancing.
    pub fn new(cell_size: usize) -> Self {
        ShardingPolicy {
            cell_size,
            ..Self::default()
        }
    }
}

/// Splits the cluster into contiguous id-ordered cells of at most
/// `cell_size` nodes. Deterministic by construction.
fn partition_cells(cluster: &Cluster, cell_size: usize) -> Vec<Vec<NodeId>> {
    let ids: Vec<NodeId> = cluster.node_ids().collect();
    if ids.is_empty() {
        return Vec::new();
    }
    // The builder rejects a zero cell size; treat it as one cell if a
    // hand-rolled config sneaks one through.
    let size = cell_size.max(1);
    ids.chunks(size).map(<[NodeId]>::to_vec).collect()
}

/// Where every live application goes: into exactly one cell, or into the
/// escalated set solved by the global residual pass.
struct CellAssignment {
    /// Cell index of each cell-confined live application.
    cell_of: BTreeMap<AppId, usize>,
    /// Escalated applications and why they could not be confined.
    escalated: BTreeMap<AppId, EscalationReason>,
}

/// Estimated steady-state footprint of one live application:
/// `(cpu_mhz, rigid demand vector)`. Transactional demand is the
/// saturation demand of the queueing model over however many instances
/// that takes; batch demand assumes every task runs at full speed. The
/// rigid vector scales the per-instance effective demand (dimension 0 =
/// memory MB) by the instance estimate.
fn app_footprint(
    problem: &PlacementProblem<'_>,
    app: AppId,
    model: &WorkloadModel,
) -> (f64, Resources) {
    let rigid_per = problem
        .try_effective_rigid(app)
        .unwrap_or_else(|_| Resources::zero());
    let max_instances = problem
        .apps
        .get(app)
        .map(|s| s.max_instances())
        .unwrap_or(1) as f64;
    match model {
        WorkloadModel::Batch(snap) => {
            let cpu = snap.max_speed().as_mhz() * max_instances;
            let mut rigid = Resources::zero();
            rigid.add_scaled(&rigid_per, max_instances);
            (cpu, rigid)
        }
        WorkloadModel::Transactional(m) => {
            let demand = m.max_useful_demand().as_mhz();
            let per_speed = problem
                .apps
                .get(app)
                .map(|s| s.max_instance_speed().as_mhz())
                .unwrap_or(0.0);
            let instances = if per_speed > 0.0 && demand.is_finite() {
                (demand / per_speed).ceil().clamp(1.0, max_instances)
            } else {
                1.0
            };
            let mut rigid = Resources::zero();
            rigid.add_scaled(&rigid_per, instances);
            (demand, rigid)
        }
    }
}

/// Distributes every live application across the cells, escalating the
/// ones that cannot be confined to a single cell. Deterministic: apps
/// are visited in id order, the greedy pack sorts by (demand desc, id
/// asc) with `total_cmp`, and capacity ties break toward the lowest cell
/// index.
fn assign_apps(problem: &PlacementProblem<'_>, cells: &[Vec<NodeId>]) -> CellAssignment {
    let mut cell_index: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut cell_cpu = vec![0.0f64; cells.len()];
    let mut cell_rigid = vec![Resources::zero(); cells.len()];
    for (i, cell) in cells.iter().enumerate() {
        for &node in cell {
            cell_index.insert(node, i);
            if let Ok(spec) = problem.cluster.node(node) {
                cell_cpu[i] += spec.cpu_capacity().as_mhz();
                cell_rigid[i].add_scaled(spec.rigid_capacity(), 1.0);
            }
        }
    }
    let max_cell_cpu = cell_cpu.iter().copied().fold(0.0f64, f64::max);
    let max_cell_rigid = cell_rigid
        .iter()
        .fold(Resources::zero(), |acc, r| acc.max(r));

    let mut assigned_cpu = vec![0.0f64; cells.len()];
    let mut cell_of: BTreeMap<AppId, usize> = BTreeMap::new();
    let mut escalated: BTreeMap<AppId, EscalationReason> = BTreeMap::new();
    let mut deferred: Vec<(AppId, f64)> = Vec::new();

    for (&app, model) in &problem.workloads {
        let (cpu, rigid) = app_footprint(problem, app, model);

        // Sticky: an app already running in exactly one cell stays
        // there; instances straddling cells escalate.
        let placed_cells: BTreeSet<usize> = problem
            .current
            .instances_of(app)
            .filter(|&(_, count)| count > 0)
            .filter_map(|(node, _)| cell_index.get(&node).copied())
            .collect();
        if placed_cells.len() > 1 {
            escalated.insert(app, EscalationReason::MultiCellPlacement);
            continue;
        }
        if let Some(&cell) = placed_cells.iter().next() {
            cell_of.insert(app, cell);
            assigned_cpu[cell] += cpu;
            continue;
        }

        // Pinned: allowed nodes inside one cell confine the app there;
        // pins spanning cells escalate. A pin that intersects no cell
        // can never be placed anyway and falls through to the pack.
        if let Some(allowed) = problem.apps.get(app).ok().and_then(|s| s.allowed_nodes()) {
            let pin_cells: BTreeSet<usize> = allowed
                .iter()
                .filter_map(|node| cell_index.get(node).copied())
                .collect();
            if pin_cells.len() > 1 {
                escalated.insert(app, EscalationReason::CrossCellPin);
                continue;
            }
            if let Some(&cell) = pin_cells.iter().next() {
                cell_of.insert(app, cell);
                assigned_cpu[cell] += cpu;
                continue;
            }
        }

        // Oversized: estimated footprint beyond any single cell in any
        // rigid dimension. Only meaningful with more than one cell — a
        // single cell is the whole cluster, and escalating there would
        // break the single-cell equivalence contract.
        if cells.len() > 1
            && (cpu > max_cell_cpu || rigid.first_exceeding(&max_cell_rigid).is_some())
        {
            escalated.insert(app, EscalationReason::Oversized);
            continue;
        }

        deferred.push((app, cpu));
    }

    // Greedy pack: biggest demand first into the cell with the most
    // remaining CPU slack.
    deferred.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (app, cpu) in deferred {
        let mut best = (0usize, f64::NEG_INFINITY);
        for (cell, (&capacity, &used)) in cell_cpu.iter().zip(&assigned_cpu).enumerate() {
            let slack = capacity - used;
            if slack > best.1 {
                best = (cell, slack);
            }
        }
        cell_of.insert(app, best.0);
        assigned_cpu[best.0] += cpu;
    }

    CellAssignment { cell_of, escalated }
}

/// A cluster with the escalated applications' instances carved out of
/// each node's capacity, plus extra forbidden pairs keeping cell apps
/// off nodes an escalated anti-affine resident occupies. Cell
/// subproblems see this view so they cannot double-book the capacity the
/// residual pass' frozen instances pin.
fn reserve_escalated(
    problem: &PlacementProblem<'_>,
    escalated_placement: &Placement,
    escalated: &BTreeSet<AppId>,
) -> (Cluster, BTreeSet<(AppId, NodeId)>) {
    let mut cpu_reserved: BTreeMap<NodeId, f64> = BTreeMap::new();
    let mut rigid_reserved: BTreeMap<NodeId, Resources> = BTreeMap::new();
    for (app, node, count) in escalated_placement.iter() {
        if count == 0 {
            continue;
        }
        let rigid = problem
            .try_effective_rigid(app)
            .unwrap_or_else(|_| Resources::zero());
        let min_speed = problem
            .try_effective_speed_bounds(app)
            .map(|(min, _)| min.as_mhz())
            .unwrap_or(0.0);
        rigid_reserved
            .entry(node)
            .or_insert_with(Resources::zero)
            .add_scaled(&rigid, count as f64);
        *cpu_reserved.entry(node).or_insert(0.0) += min_speed * count as f64;
    }
    let zero = Resources::zero();
    let mut reduced = Cluster::new();
    for (node, spec) in problem.cluster.iter() {
        let cpu = spec.cpu_capacity().as_mhz() - cpu_reserved.get(&node).copied().unwrap_or(0.0);
        let rigid = spec
            .rigid_capacity()
            .saturating_sub(rigid_reserved.get(&node).unwrap_or(&zero));
        reduced.add_node(
            NodeSpec::try_with_resources(CpuSpeed::from_mhz(cpu.max(0.0)), rigid)
                .expect("valid node capacities"),
        );
    }
    reduced.set_dims(problem.cluster.dims().clone());
    let mut forbidden: BTreeSet<(AppId, NodeId)> = BTreeSet::new();
    for (escalated_app, node, count) in escalated_placement.iter() {
        if count == 0 {
            continue;
        }
        let Ok(escalated_spec) = problem.apps.get(escalated_app) else {
            continue;
        };
        if escalated_spec.anti_affinity().is_none() {
            continue;
        }
        for &app in problem.workloads.keys() {
            if escalated.contains(&app) {
                continue;
            }
            let Ok(spec) = problem.apps.get(app) else {
                continue;
            };
            if !spec.may_share_node_with(escalated_spec) {
                forbidden.insert((app, node));
            }
        }
    }
    (reduced, forbidden)
}

/// Sums a cell outcome's counters into the pass totals.
fn absorb_stats(stats: &mut OptimizerStats, timed_out: &mut bool, outcome: &PlacementOutcome) {
    stats.evaluations += outcome.stats.evaluations;
    stats.sweeps += outcome.stats.sweeps;
    stats.adoptions += outcome.stats.adoptions;
    *timed_out |= outcome.timed_out;
}

/// The cell-sharded counterpart of the classic whole-cluster search —
/// the path [`crate::optimizer::place`] takes when
/// [`ApcConfig::sharding`] is set. See the module docs for the pipeline
/// and the determinism contract.
pub(crate) fn place_sharded(
    problem: &PlacementProblem<'_>,
    config: &ApcConfig,
    policy: &ShardingPolicy,
    allow_removals: bool,
    sink: &dyn TraceSink,
) -> PlacementOutcome {
    let cells = partition_cells(problem.cluster, policy.cell_size);
    if cells.is_empty() {
        // An empty cluster has nothing to shard.
        return optimize_scoped(
            problem,
            config,
            allow_removals,
            sink,
            SearchScope::default(),
        );
    }
    let now = problem.now.as_secs();

    let CellAssignment {
        mut cell_of,
        escalated,
    } = assign_apps(problem, &cells);
    if sink.wants(TraceLevel::Decisions) {
        for (&app, &reason) in &escalated {
            sink.record(&TraceEvent::CellEscalated {
                time: now,
                app,
                reason,
            });
        }
    }
    let escalated: BTreeSet<AppId> = escalated.into_keys().collect();

    // Escalated apps' running instances are frozen during the cell
    // solves: their capacity is carved out of the cell view and
    // anti-affinity around them is enforced via extra forbidden pairs.
    let escalated_current: Placement = problem
        .current
        .iter()
        .filter(|(app, _, _)| escalated.contains(app))
        .collect();
    let reserved = if escalated_current.is_empty() {
        None
    } else {
        Some(reserve_escalated(problem, &escalated_current, &escalated))
    };
    let cell_cluster: &Cluster = reserved
        .as_ref()
        .map_or(problem.cluster, |(cluster, _)| cluster);
    let cell_forbidden: BTreeSet<(AppId, NodeId)> = match &reserved {
        None => problem.forbidden.clone(),
        Some((_, extra)) => problem.forbidden.union(extra).copied().collect(),
    };

    // Per-cell subproblems: each cell sees its own apps and its slice of
    // the current placement, over the capacity-adjusted cluster.
    let cell_currents: Vec<Placement> = (0..cells.len())
        .map(|i| {
            problem
                .current
                .iter()
                .filter(|(app, _, _)| cell_of.get(app) == Some(&i))
                .collect()
        })
        .collect();
    let cell_problems: Vec<PlacementProblem<'_>> = (0..cells.len())
        .map(|i| PlacementProblem {
            cluster: cell_cluster,
            apps: problem.apps,
            workloads: cell_of
                .iter()
                .filter(|(_, &cell)| cell == i)
                .map(|(&app, _)| (app, problem.workloads[&app].clone()))
                .collect(),
            current: &cell_currents[i],
            now: problem.now,
            cycle: problem.cycle,
            forbidden: cell_forbidden.clone(),
        })
        .collect();

    // Solve the cells in cell order, each cell's events bracketed by
    // its enter/exit in the parent trace.
    let decisions = sink.wants(TraceLevel::Decisions);
    let mut outcomes: Vec<PlacementOutcome> = Vec::with_capacity(cells.len());
    for (i, (nodes, cell_problem)) in cells.iter().zip(&cell_problems).enumerate() {
        if decisions {
            sink.record(&TraceEvent::CellEnter {
                time: now,
                cell: i as u64,
                nodes: nodes.len(),
                apps: cell_problem.workloads.len(),
            });
        }
        let outcome = optimize_scoped(
            cell_problem,
            config,
            allow_removals,
            sink,
            SearchScope {
                nodes: Some(nodes),
                movable: None,
            },
        );
        if decisions {
            sink.record(&TraceEvent::CellExit {
                time: now,
                cell: i as u64,
                evaluations: outcome.stats.evaluations as u64,
                adoptions: outcome.stats.adoptions as u64,
                timed_out: outcome.timed_out,
            });
        }
        outcomes.push(outcome);
    }

    let mut stats = OptimizerStats::default();
    let mut timed_out = false;
    for outcome in &outcomes {
        absorb_stats(&mut stats, &mut timed_out, outcome);
    }

    // One cell and nothing escalated: the cell search *was* the classic
    // whole-cluster search — return its outcome verbatim (actions are
    // re-diffed against the unfiltered current placement, exactly as the
    // classic path does).
    if cells.len() == 1 && escalated.is_empty() {
        let mut outcomes = outcomes;
        let outcome = outcomes.pop().expect("one cell was solved");
        let actions = problem.current.diff(&outcome.placement);
        return PlacementOutcome {
            placement: outcome.placement,
            score: outcome.score,
            actions,
            stats,
            timed_out,
        };
    }

    let mut cell_placements: Vec<Placement> = outcomes.into_iter().map(|o| o.placement).collect();
    let mut merged: Placement = cell_placements
        .iter()
        .flat_map(Placement::iter)
        .chain(escalated_current.iter())
        .collect();

    // The global residual pass places the escalated apps over the whole
    // cluster; cell apps are frozen but still score. Without escalations
    // a single full-problem scoring of the merge suffices.
    let mut score: PlacementScore;
    if escalated.is_empty() {
        stats.evaluations += 1;
        match score_placement(problem, &merged) {
            Some(s) => score = s,
            None => {
                // The merge is infeasible under global minimum speeds (a
                // cell promised capacity another cell's routes need).
                // Fall back to the classic search rather than return an
                // unscorable placement.
                return optimize_scoped(
                    problem,
                    config,
                    allow_removals,
                    sink,
                    SearchScope::default(),
                );
            }
        }
    } else {
        let residual_problem = PlacementProblem {
            cluster: problem.cluster,
            apps: problem.apps,
            workloads: problem.workloads.clone(),
            current: &merged,
            now: problem.now,
            cycle: problem.cycle,
            forbidden: problem.forbidden.clone(),
        };
        let residual = optimize_scoped(
            &residual_problem,
            config,
            allow_removals,
            sink,
            SearchScope {
                nodes: None,
                movable: Some(&escalated),
            },
        );
        absorb_stats(&mut stats, &mut timed_out, &residual);
        merged = residual.placement;
        score = residual.score;
    }

    // Cross-cell rebalance: move the globally worst-satisfied cell apps
    // from saturated cells into the slackest cell, adopting a move only
    // when the *global* score improves past the rebalance threshold.
    if cells.len() > 1 && allow_removals && policy.rebalance_moves > 0 && !timed_out {
        rebalance(
            problem,
            config,
            policy,
            &cells,
            &mut cell_of,
            &mut cell_placements,
            &escalated,
            &mut merged,
            &mut score,
            &mut stats,
            sink,
            now,
        );
    }

    let actions = problem.current.diff(&merged);
    PlacementOutcome {
        placement: merged,
        score,
        actions,
        stats,
        timed_out,
    }
}

/// One cycle's cross-cell rebalancing (see [`place_sharded`]). Each
/// attempt re-solves the slackest cell's subproblem with the mover added
/// and adopts the move iff the merged global score beats the incumbent
/// by more than [`ShardingPolicy::rebalance_threshold`].
#[allow(clippy::too_many_arguments)]
fn rebalance(
    problem: &PlacementProblem<'_>,
    config: &ApcConfig,
    policy: &ShardingPolicy,
    cells: &[Vec<NodeId>],
    cell_of: &mut BTreeMap<AppId, usize>,
    cell_placements: &mut [Placement],
    escalated: &BTreeSet<AppId>,
    merged: &mut Placement,
    score: &mut PlacementScore,
    stats: &mut OptimizerStats,
    sink: &dyn TraceSink,
    now: f64,
) {
    // Escalated instances may have moved in the residual pass; recompute
    // the reserved-capacity view around their final positions.
    let escalated_now: Placement = merged
        .iter()
        .filter(|(app, _, _)| escalated.contains(app))
        .collect();
    let reserved = if escalated_now.is_empty() {
        None
    } else {
        Some(reserve_escalated(problem, &escalated_now, escalated))
    };
    let cluster: &Cluster = reserved
        .as_ref()
        .map_or(problem.cluster, |(cluster, _)| cluster);
    let forbidden: BTreeSet<(AppId, NodeId)> = match &reserved {
        None => problem.forbidden.clone(),
        Some((_, extra)) => problem.forbidden.union(extra).copied().collect(),
    };

    let mut tried: BTreeSet<AppId> = BTreeSet::new();
    for _ in 0..policy.rebalance_moves {
        // Per-cell worst satisfaction; a cell with no scored apps (e.g.
        // an empty cell) has infinite headroom.
        let mut cell_worst = vec![f64::INFINITY; cells.len()];
        for &(app, u) in score.satisfaction.entries() {
            if let Some(&cell) = cell_of.get(&app) {
                if u.value() < cell_worst[cell] {
                    cell_worst[cell] = u.value();
                }
            }
        }

        // Mover: the globally worst-satisfied cell-confined app not yet
        // tried. Pinned apps cannot leave their cell.
        let mut candidate: Option<(AppId, usize)> = None;
        for &(app, _) in score.satisfaction.entries() {
            if tried.contains(&app) {
                continue;
            }
            let Some(&from) = cell_of.get(&app) else {
                continue;
            };
            let pinned = problem
                .apps
                .get(app)
                .ok()
                .is_some_and(|s| s.allowed_nodes().is_some());
            if pinned {
                continue;
            }
            candidate = Some((app, from));
            break;
        }
        let Some((app, from_cell)) = candidate else {
            break;
        };

        // Target: the slackest other cell. If even that one has no more
        // headroom than the mover's own cell, no move can help.
        let mut target: Option<(usize, f64)> = None;
        for (cell, &worst) in cell_worst.iter().enumerate() {
            if cell == from_cell {
                continue;
            }
            if target.map_or(true, |(_, best)| worst > best) {
                target = Some((cell, worst));
            }
        }
        let Some((to_cell, to_worst)) = target else {
            break;
        };
        if to_worst <= cell_worst[from_cell] {
            break;
        }
        tried.insert(app);

        // Re-solve the target cell with the mover added.
        let workloads: BTreeMap<AppId, WorkloadModel> = cell_of
            .iter()
            .filter(|(_, &cell)| cell == to_cell)
            .map(|(&a, _)| a)
            .chain(std::iter::once(app))
            .map(|a| (a, problem.workloads[&a].clone()))
            .collect();
        let trial_problem = PlacementProblem {
            cluster,
            apps: problem.apps,
            workloads,
            current: &cell_placements[to_cell],
            now: problem.now,
            cycle: problem.cycle,
            forbidden: forbidden.clone(),
        };
        let sub = optimize_scoped(
            &trial_problem,
            config,
            true,
            &dynaplace_trace::NoopSink,
            SearchScope {
                nodes: Some(&cells[to_cell]),
                movable: None,
            },
        );
        stats.evaluations += sub.stats.evaluations;
        stats.sweeps += sub.stats.sweeps;

        // Judge the move by the merged *global* score.
        let trial_merged: Placement = merged
            .iter()
            .filter(|&(a, _, _)| a != app && cell_of.get(&a) != Some(&to_cell))
            .chain(sub.placement.iter())
            .collect();
        stats.evaluations += 1;
        let Some(trial_score) = score_placement(problem, &trial_merged) else {
            continue;
        };
        let adopted = objective_cmp(
            config,
            &trial_score.satisfaction,
            &score.satisfaction,
            policy.rebalance_threshold,
        ) == std::cmp::Ordering::Greater;
        if sink.wants(TraceLevel::Decisions) {
            sink.record(&TraceEvent::RebalanceMove {
                time: now,
                app,
                from_cell: from_cell as u64,
                to_cell: to_cell as u64,
                delta: justifying_delta(
                    config,
                    &trial_score.satisfaction,
                    &score.satisfaction,
                    config.epsilon,
                ),
                adopted,
            });
        }
        if adopted {
            stats.adoptions += 1;
            cell_placements[from_cell].evict(app);
            cell_placements[to_cell] = sub.placement;
            cell_of.insert(app, to_cell);
            *merged = trial_merged;
            *score = trial_score;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaplace_batch::hypothetical::JobSnapshot;
    use dynaplace_batch::job::JobProfile;
    use dynaplace_model::app::ApplicationSpec;
    use dynaplace_model::cluster::AppSet;
    use dynaplace_model::units::{Memory, SimDuration, SimTime, Work};
    use dynaplace_rpf::goal::CompletionGoal;
    use std::sync::Arc;

    fn node() -> NodeSpec {
        NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(4_000.0))
            .expect("valid node capacities")
    }

    fn batch_model(app: AppId, work: f64) -> WorkloadModel {
        WorkloadModel::Batch(JobSnapshot::new(
            app,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(600.0)),
            Arc::new(JobProfile::single_stage(
                Work::from_mcycles(work),
                CpuSpeed::from_mhz(500.0),
                Memory::from_mb(1_000.0),
            )),
            Work::ZERO,
            SimDuration::from_secs(30.0),
        ))
    }

    struct World {
        cluster: Cluster,
        apps: AppSet,
        current: Placement,
        workloads: BTreeMap<AppId, WorkloadModel>,
    }

    impl World {
        fn new(nodes: usize) -> Self {
            World {
                cluster: Cluster::homogeneous(nodes, node()),
                apps: AppSet::new(),
                current: Placement::new(),
                workloads: BTreeMap::new(),
            }
        }

        fn add_batch(&mut self, work: f64) -> AppId {
            let app = self.apps.add(ApplicationSpec::batch(
                Memory::from_mb(1_000.0),
                CpuSpeed::from_mhz(500.0),
            ));
            self.workloads.insert(app, batch_model(app, work));
            app
        }

        fn problem(&self) -> PlacementProblem<'_> {
            PlacementProblem {
                cluster: &self.cluster,
                apps: &self.apps,
                workloads: self.workloads.clone(),
                current: &self.current,
                now: SimTime::ZERO,
                cycle: SimDuration::from_secs(30.0),
                forbidden: BTreeSet::new(),
            }
        }
    }

    #[test]
    fn partition_is_contiguous_and_exhaustive() {
        let cluster = Cluster::homogeneous(10, node());
        let cells = partition_cells(&cluster, 4);
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[0].len(), 4);
        assert_eq!(cells[1].len(), 4);
        assert_eq!(cells[2].len(), 2);
        let flat: Vec<NodeId> = cells.iter().flatten().copied().collect();
        let all: Vec<NodeId> = cluster.node_ids().collect();
        assert_eq!(flat, all, "cells cover the cluster in id order");

        assert_eq!(partition_cells(&cluster, 100).len(), 1);
        assert!(partition_cells(&Cluster::new(), 4).is_empty());
        // Degenerate cell size is clamped, not a panic or an empty set.
        assert_eq!(partition_cells(&cluster, 0).len(), 10);
    }

    #[test]
    fn sticky_apps_keep_their_cell_and_straddlers_escalate() {
        let mut world = World::new(8);
        let resident = world.add_batch(10_000.0);
        let straddler = world.add_batch(10_000.0);
        // resident sits inside cell 1 (nodes 4..8); straddler spans both.
        world.current.place(resident, NodeId::new(5));
        world.current.place(straddler, NodeId::new(0));
        world.current.place(straddler, NodeId::new(7));
        let problem = world.problem();
        let cells = partition_cells(&world.cluster, 4);
        let assignment = assign_apps(&problem, &cells);
        assert_eq!(assignment.cell_of.get(&resident), Some(&1));
        assert_eq!(
            assignment.escalated.get(&straddler),
            Some(&EscalationReason::MultiCellPlacement)
        );
    }

    #[test]
    fn cross_cell_pins_escalate_and_single_cell_pins_confine() {
        let mut world = World::new(8);
        let confined = world.apps.add(
            ApplicationSpec::batch(Memory::from_mb(1_000.0), CpuSpeed::from_mhz(500.0))
                .with_allowed_nodes([NodeId::new(1), NodeId::new(2)]),
        );
        world
            .workloads
            .insert(confined, batch_model(confined, 10_000.0));
        let spanning = world.apps.add(
            ApplicationSpec::batch(Memory::from_mb(1_000.0), CpuSpeed::from_mhz(500.0))
                .with_allowed_nodes([NodeId::new(1), NodeId::new(6)]),
        );
        world
            .workloads
            .insert(spanning, batch_model(spanning, 10_000.0));
        let problem = world.problem();
        let cells = partition_cells(&world.cluster, 4);
        let assignment = assign_apps(&problem, &cells);
        assert_eq!(assignment.cell_of.get(&confined), Some(&0));
        assert_eq!(
            assignment.escalated.get(&spanning),
            Some(&EscalationReason::CrossCellPin)
        );
    }

    #[test]
    fn oversized_apps_escalate_only_with_multiple_cells() {
        let mut world = World::new(8);
        // 12 tasks × 500 MHz = 6000 MHz demand > any 4-node (4000 MHz)
        // cell.
        let huge = world.apps.add(ApplicationSpec::batch_parallel(
            Memory::from_mb(100.0),
            CpuSpeed::from_mhz(500.0),
            12,
        ));
        world.workloads.insert(huge, batch_model(huge, 100_000.0));
        let problem = world.problem();

        let cells = partition_cells(&world.cluster, 4);
        let assignment = assign_apps(&problem, &cells);
        assert_eq!(
            assignment.escalated.get(&huge),
            Some(&EscalationReason::Oversized)
        );

        // With one cell (the whole cluster) nothing may escalate — that
        // is the single-cell equivalence contract.
        let one_cell = partition_cells(&world.cluster, 8);
        let assignment = assign_apps(&problem, &one_cell);
        assert!(assignment.escalated.is_empty());
        assert_eq!(assignment.cell_of.get(&huge), Some(&0));
    }

    #[test]
    fn greedy_pack_balances_demand_deterministically() {
        let mut world = World::new(8);
        let a = world.add_batch(50_000.0);
        let b = world.add_batch(50_000.0);
        let c = world.add_batch(50_000.0);
        let d = world.add_batch(50_000.0);
        let problem = world.problem();
        let cells = partition_cells(&world.cluster, 4);
        let first = assign_apps(&problem, &cells);
        let second = assign_apps(&problem, &cells);
        assert_eq!(first.cell_of, second.cell_of, "assignment is deterministic");
        // Equal demands alternate between the two equal cells.
        assert_eq!(first.cell_of.get(&a), Some(&0));
        assert_eq!(first.cell_of.get(&b), Some(&1));
        assert_eq!(first.cell_of.get(&c), Some(&0));
        assert_eq!(first.cell_of.get(&d), Some(&1));
    }

    #[test]
    fn reserved_capacity_subtracts_escalated_residents() {
        let mut world = World::new(4);
        let resident = world.add_batch(10_000.0);
        world.current.place(resident, NodeId::new(1));
        let problem = world.problem();
        let escalated: BTreeSet<AppId> = [resident].into();
        let frozen: Placement = problem.current.iter().collect();
        let (reduced, forbidden) = reserve_escalated(&problem, &frozen, &escalated);
        assert_eq!(reduced.len(), 4);
        // Node 1 loses the resident's 1000 MB stage memory; CPU is only
        // reduced by the minimum speed, which is zero here.
        let spec = reduced.node(NodeId::new(1)).unwrap();
        assert_eq!(spec.memory_capacity().as_mb(), 3_000.0);
        assert_eq!(spec.cpu_capacity().as_mhz(), 1_000.0);
        let untouched = reduced.node(NodeId::new(0)).unwrap();
        assert_eq!(untouched.memory_capacity().as_mb(), 4_000.0);
        // No anti-affinity groups: no extra forbidden pairs.
        assert!(forbidden.is_empty());
    }

    #[test]
    fn sharding_policy_defaults_are_sane() {
        let policy = ShardingPolicy::default();
        assert_eq!(policy.cell_size, 64);
        assert!(policy.rebalance_moves > 0);
        assert!(policy.rebalance_threshold > 0.0);
        assert_eq!(ShardingPolicy::new(16).cell_size, 16);
        assert_eq!(
            ShardingPolicy::new(16).rebalance_threshold,
            policy.rebalance_threshold
        );
    }
}
