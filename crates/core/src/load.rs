//! Max-min fair load distribution: given a fixed placement, decide how
//! much CPU every application receives on every node.
//!
//! This is the controller's answer to "what is the best `L` for this
//! `P`?" (§3.2). The distribution implements lexicographic max-min over
//! relative performance by progressive water-filling:
//!
//! 1. Bisect the highest uniform performance level `u` such that every
//!    placed application's CPU demand at `u` can be routed onto the nodes
//!    hosting its instances (respecting per-instance speed caps and node
//!    capacities). When not even the healthy floor fits and a hopeless
//!    (sub-floor) job is placed, the bisection continues into the
//!    sub-floor band, where hopeless demand scales down by lateness.
//! 2. Applications that cannot individually improve beyond `u` —
//!    saturated at their maximum achievable performance or blocked by a
//!    saturated node — are *fixed* at their demand.
//! 3. Repeat with the remaining applications until everything is fixed.
//!
//! Routability is checked with a max-flow when applications span several
//! nodes, and with plain per-node sums otherwise.

use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::load::LoadDistribution;
use dynaplace_model::placement::Placement;
use dynaplace_model::units::{CpuSpeed, SimDuration, Work};
use dynaplace_rpf::model::PerformanceModel;
use dynaplace_rpf::value::{Rp, RP_FLOOR, RP_MIN};
use dynaplace_solver::bisect::bisect_max;
use dynaplace_solver::maxflow::FlowNetwork;

use crate::cache::ScoreCache;
use crate::problem::{PlacementProblem, WorkloadModel};

/// Absolute feasibility slack in MHz.
const FEAS_EPS: f64 = 1e-6;
/// Bisection resolution on the uniform performance level.
const U_TOL: f64 = 1e-5;
/// Probe step when testing whether an application can individually rise.
const PROBE_DU: f64 = 1e-3;

#[derive(Debug, Clone)]
struct PlacedApp<'a> {
    app: AppId,
    /// The app's workload model, borrowed once at construction so the
    /// per-demand hot paths skip the `workloads` map lookup.
    model: &'a WorkloadModel,
    /// Per-node routing capacity: `count × max_instance_speed`.
    cells: Vec<(NodeId, f64)>,
    /// Σ of `cells` capacities.
    cap_total: f64,
    /// Floor the app must receive while placed (`count × min_speed`).
    min_total: f64,
    /// Final allocation once the app stops floating.
    fixed: Option<f64>,
    /// For batch jobs: the snapshot *as placed* — a job placed by this
    /// candidate starts progressing immediately, so its demand curve must
    /// not carry the queued-state start delay.
    placed_snapshot: Option<dynaplace_batch::hypothetical::JobSnapshot>,
}

impl PlacedApp<'_> {
    fn single_node(&self) -> Option<NodeId> {
        if self.cells.len() == 1 {
            Some(self.cells[0].0)
        } else {
            None
        }
    }
}

/// Computes the max-min fair load distribution for `placement`.
///
/// Returns `None` when the placement is infeasible: the minimum speeds of
/// the placed instances alone cannot be routed within node capacities.
/// Queued (unplaced) applications receive no allocation and do not appear
/// in the result.
pub fn distribute(
    problem: &PlacementProblem<'_>,
    placement: &Placement,
) -> Option<LoadDistribution> {
    distribute_with(problem, placement, None)
}

/// [`distribute`] with an optional raw-demand memo. Passing a cache
/// changes nothing about the result — the memo stores the exact values
/// the direct computation produces (see [`crate::cache`]); `distribute`
/// itself stays the from-scratch oracle.
pub(crate) fn distribute_with(
    problem: &PlacementProblem<'_>,
    placement: &Placement,
    cache: Option<&ScoreCache>,
) -> Option<LoadDistribution> {
    let mut apps: Vec<PlacedApp<'_>> = Vec::new();
    // Both `workloads` and the placement's cells iterate in ascending
    // `AppId` order (cells additionally node-ascending within an app —
    // the order `instances_of` yields), so one merge-join pass replaces a
    // per-application range query.
    let mut cell_iter = placement.iter().peekable();
    for (&app, model) in problem.workloads.iter() {
        // Same bounds `try_effective_speed_bounds` computes, from the model
        // reference already in hand.
        let (min, max) = match model {
            WorkloadModel::Batch(snap) => (snap.min_speed(), snap.max_speed()),
            WorkloadModel::Transactional(_) => {
                let spec = problem.apps.get(app).expect("live app is registered");
                (CpuSpeed::ZERO, spec.max_instance_speed())
            }
        };
        // An instance can never consume more than its node's capacity, so
        // per-node routing cells are capped by the node CPU: this keeps
        // demand clamps finite for applications with unbounded instance
        // speeds (an overloaded app sheds, it does not demand the moon).
        while cell_iter.peek().is_some_and(|&(a, _, _)| a < app) {
            cell_iter.next();
        }
        let mut counted: u32 = 0;
        let mut cells: Vec<(NodeId, f64)> = Vec::new();
        while let Some(&(a, node, count)) = cell_iter.peek() {
            if a != app {
                break;
            }
            cell_iter.next();
            let node_cap = problem
                .cluster
                .node(node)
                .expect("placed on a known node")
                .cpu_capacity()
                .as_mhz();
            counted += count;
            cells.push((node, (max.as_mhz() * f64::from(count)).min(node_cap)));
        }
        if cells.is_empty() {
            continue;
        }
        let cap_total = cells.iter().map(|(_, c)| c).sum();
        let placed_snapshot = model
            .as_batch()
            .map(|snap| snap.advanced(Work::ZERO, SimDuration::ZERO));
        apps.push(PlacedApp {
            app,
            model,
            cells,
            cap_total,
            min_total: min.as_mhz() * f64::from(counted),
            fixed: None,
            placed_snapshot,
        });
    }

    // Dense per-node capacities (NodeIds are dense indices): cloning the
    // residual vector per routability probe is a memcpy, not a tree walk.
    let capacities: Vec<f64> = problem
        .cluster
        .iter()
        .map(|(_, spec)| spec.cpu_capacity().as_mhz())
        .collect();

    let demand_at = |pa: &PlacedApp<'_>, u: f64| -> f64 {
        // The raw demand depends only on the workload model, `now`, and
        // `u` — not on the candidate placement — so it is safe to memo
        // across candidates; the placement-dependent clamp is not.
        let raw = match cache {
            Some(c) => c.raw_demand(pa.app, u.to_bits(), || raw_demand(problem, pa, u)),
            None => raw_demand(problem, pa, u),
        };
        raw.clamp(pa.min_total, pa.cap_total)
    };

    // Demand vector at level `u`: fixed apps keep their allocation.
    let effective = |apps: &[PlacedApp<'_>], u: f64| -> Vec<f64> {
        apps.iter()
            .map(|pa| pa.fixed.unwrap_or_else(|| demand_at(pa, u)))
            .collect()
    };

    // Progressive filling: each round fixes at least one application.
    loop {
        if apps.iter().all(|pa| pa.fixed.is_some()) {
            break;
        }
        // Phase 1: the healthy range `[RP_FLOOR, 1]`, exactly as before
        // the sub-floor band existed (same endpoints, so the bisection's
        // midpoint sequence — and every healthy run's bits — are
        // unchanged).
        let healthy = bisect_max(RP_FLOOR, 1.0, U_TOL, |u| {
            routable(&apps, &effective(&apps, u), &capacities)
        });
        let result = match healthy {
            Some(r) => r,
            // Phase 2: not even the floor fits. When a floating hopeless
            // job is present that is expected — its flat-out bid can
            // exceed capacity — and the fair level lives in the sub-floor
            // band, where each hopeless job's demand scales down by
            // lateness (worst-off drained first). Without a hopeless job
            // this is a genuinely infeasible placement and must keep
            // propagating as `None`.
            None => {
                let hopeless_floating = apps.iter().any(|pa| {
                    pa.fixed.is_none()
                        && pa
                            .placed_snapshot
                            .as_ref()
                            .is_some_and(|s| s.u_max(problem.now).is_sub_floor())
                });
                if !hopeless_floating {
                    return None;
                }
                bisect_max(RP_MIN, RP_FLOOR, U_TOL, |u| {
                    routable(&apps, &effective(&apps, u), &capacities)
                })?
            }
        };
        let u_star = result.accepted;
        let base = effective(&apps, u_star);

        if result.rejected.is_none() {
            // Everything fits even at u = 1: fix all floats at their
            // u = 1 demand (their saturation level).
            for (pa, d) in apps.iter_mut().zip(&base) {
                if pa.fixed.is_none() {
                    pa.fixed = Some(*d);
                }
            }
            break;
        }

        // Find which floating applications are stuck at u*. The demand
        // vector with app `i` probed is `base` with element `i` replaced
        // (all other entries are the same fixed-or-`demand_at(u*)` values
        // `base` holds), so patch a copy in place instead of recomputing
        // every demand per probe.
        let mut newly_fixed = Vec::new();
        let mut probed = base.clone();
        for i in 0..apps.len() {
            if apps[i].fixed.is_some() {
                continue;
            }
            let probe = demand_at(&apps[i], (u_star + PROBE_DU).min(1.0));
            let saturated = probe <= base[i] + FEAS_EPS;
            let blocked = saturated || {
                probed[i] = probe;
                let fits = routable(&apps, &probed, &capacities);
                probed[i] = base[i];
                !fits
            };
            if blocked {
                newly_fixed.push((i, base[i]));
            }
        }
        if newly_fixed.is_empty() {
            // Numerical corner: nobody is provably blocked; fix everyone
            // at the achieved level to terminate.
            for (pa, d) in apps.iter_mut().zip(&base) {
                if pa.fixed.is_none() {
                    pa.fixed = Some(*d);
                }
            }
            break;
        }
        for (i, d) in newly_fixed {
            apps[i].fixed = Some(d);
        }
    }

    let mut load = extract_distribution(&apps, &capacities)?;
    residual_fill(problem, &apps, &capacities, &mut load, cache);
    Some(load)
}

/// Raw (unclamped) workload demand of `pa` at performance level `u`.
///
/// Batch demand is `demand_for` across the *whole* `Rp` range, including
/// the sub-floor band: a hopeless job bids flat-out at every healthy
/// level and scales down by lateness at banded levels, so the
/// water-filling itself drains the worst-off jobs first. (Historically
/// hopeless jobs had their demand zeroed here to contain the flat-clamp
/// starvation livelock; the sub-floor band made that shim redundant and
/// it was removed.)
fn raw_demand(problem: &PlacementProblem<'_>, pa: &PlacedApp<'_>, u: f64) -> f64 {
    match (pa.model, &pa.placed_snapshot) {
        (_, Some(snap)) => snap.demand_for(problem.now, Rp::new(u)).as_mhz(),
        (WorkloadModel::Transactional(m), None) => m.demand(Rp::new(u)).as_mhz(),
        (WorkloadModel::Batch(snap), None) => snap.demand_for(problem.now, Rp::new(u)).as_mhz(),
    }
}

/// Hands leftover node capacity to applications that can still absorb it
/// (up to their per-cell caps and their maximum useful demand). This is
/// what lets a transactional application stuck at the RP floor — its
/// performance cannot improve this cycle, so the water-filler gives it
/// nothing — still consume the capacity nobody else wants: best-effort
/// service instead of idle CPUs.
fn residual_fill(
    problem: &PlacementProblem<'_>,
    apps: &[PlacedApp<'_>],
    capacities: &[f64],
    load: &mut dynaplace_model::load::LoadDistribution,
    cache: Option<&ScoreCache>,
) {
    let mut residual: Vec<f64> = capacities.to_vec();
    for (_, node, speed) in load.iter() {
        residual[node.index()] -= speed.as_mhz();
    }
    for pa in apps {
        let raw_appetite = || match (pa.model, &pa.placed_snapshot) {
            (WorkloadModel::Transactional(m), _) => m.max_useful_demand().as_mhz(),
            (_, Some(snap)) => snap.demand_for(problem.now, Rp::MAX).as_mhz(),
            (WorkloadModel::Batch(snap), None) => snap.demand_for(problem.now, Rp::MAX).as_mhz(),
        };
        // Batch appetite is the raw demand at Rp::MAX — same function the
        // water-filler memoizes (Rp::new clamps, so Rp::new(MAX) == MAX);
        // the transactional arm is a different function, kept uncached.
        let appetite_total = match (cache, pa.placed_snapshot.is_some()) {
            (Some(c), true) => c.raw_demand(pa.app, Rp::MAX.value().to_bits(), raw_appetite),
            _ => raw_appetite(),
        }
        .min(pa.cap_total);
        let mut appetite = appetite_total - load.app_total(pa.app).as_mhz();
        if appetite <= FEAS_EPS {
            continue;
        }
        for &(node, cell_cap) in &pa.cells {
            if appetite <= FEAS_EPS {
                break;
            }
            let r = &mut residual[node.index()];
            let current = load.get(pa.app, node).as_mhz();
            let take = appetite.min(cell_cap - current).min((*r).max(0.0));
            if take > FEAS_EPS {
                load.set(pa.app, node, CpuSpeed::from_mhz(current + take));
                *r -= take;
                appetite -= take;
            }
        }
    }
}

/// Checks whether the demand vector can be routed: single-node demands
/// are charged directly to their node; multi-node applications go through
/// a max-flow over their candidate nodes.
fn routable(apps: &[PlacedApp<'_>], demands: &[f64], capacities: &[f64]) -> bool {
    let mut residual: Vec<f64> = capacities.to_vec();
    let mut multi: Vec<(&PlacedApp<'_>, f64)> = Vec::new();
    for (pa, &demand) in apps.iter().zip(demands) {
        if demand > pa.cap_total + FEAS_EPS {
            return false;
        }
        match pa.single_node() {
            Some(node) => {
                let r = &mut residual[node.index()];
                *r -= demand;
                if *r < -FEAS_EPS {
                    return false;
                }
            }
            None => multi.push((pa, demand)),
        }
    }
    route_multi(&multi, &mut residual)
}

fn route_multi(multi: &[(&PlacedApp<'_>, f64)], residual: &mut [f64]) -> bool {
    if multi.is_empty() {
        return true;
    }
    if multi.len() == 1 {
        // Greedy suffices for a single multi-node application.
        let (pa, demand) = multi[0];
        let mut need = demand;
        for &(node, cap) in &pa.cells {
            let r = &mut residual[node.index()];
            let take = need.min(cap).min((*r).max(0.0));
            *r -= take;
            need -= take;
            if need <= FEAS_EPS {
                return true;
            }
        }
        return need <= FEAS_EPS;
    }
    // General case: bipartite max-flow.
    let nodes = residual.len();
    let s = 0;
    let t = 1 + multi.len() + nodes;
    let mut net = FlowNetwork::new(t + 1);
    let mut total_demand = 0.0;
    for (i, (pa, demand)) in multi.iter().enumerate() {
        net.add_edge(s, 1 + i, *demand);
        total_demand += demand;
        for &(node, cap) in &pa.cells {
            net.add_edge(1 + i, 1 + multi.len() + node.index(), cap);
        }
    }
    for (j, r) in residual.iter().enumerate() {
        net.add_edge(1 + multi.len() + j, t, r.max(0.0));
    }
    net.max_flow(s, t) >= total_demand - FEAS_EPS * (1.0 + multi.len() as f64)
}

/// Turns final per-app allocations into a per-cell [`LoadDistribution`].
fn extract_distribution(apps: &[PlacedApp<'_>], capacities: &[f64]) -> Option<LoadDistribution> {
    let mut residual: Vec<f64> = capacities.to_vec();
    let mut load = LoadDistribution::new();

    // Single-node apps first (their placement is forced).
    let mut multi: Vec<(&PlacedApp<'_>, f64)> = Vec::new();
    for pa in apps {
        let total = pa.fixed.unwrap_or(0.0);
        if total <= 0.0 {
            continue;
        }
        match pa.single_node() {
            Some(node) => {
                let r = &mut residual[node.index()];
                *r -= total;
                if *r < -1e-3 {
                    return None; // should not happen: demands were feasible
                }
                load.set(pa.app, node, CpuSpeed::from_mhz(total));
            }
            None => multi.push((pa, total)),
        }
    }

    match multi.len() {
        0 => {}
        1 => {
            let (pa, demand) = multi[0];
            let mut need = demand;
            for &(node, cap) in &pa.cells {
                let r = &mut residual[node.index()];
                let take = need.min(cap).min((*r).max(0.0));
                if take > 0.0 {
                    *r -= take;
                    need -= take;
                    load.set(pa.app, node, CpuSpeed::from_mhz(take));
                }
                if need <= FEAS_EPS {
                    break;
                }
            }
            if need > 1e-3 {
                return None;
            }
        }
        _ => {
            let nodes = residual.len();
            let s = 0;
            let t = 1 + multi.len() + nodes;
            let mut net = FlowNetwork::new(t + 1);
            let mut handles = Vec::new();
            let mut total_demand = 0.0;
            for (i, (pa, demand)) in multi.iter().enumerate() {
                net.add_edge(s, 1 + i, *demand);
                total_demand += demand;
                for &(node, cap) in &pa.cells {
                    let h = net.add_edge(1 + i, 1 + multi.len() + node.index(), cap);
                    handles.push((pa.app, node, h));
                }
            }
            for (j, r) in residual.iter().enumerate() {
                net.add_edge(1 + multi.len() + j, t, r.max(0.0));
            }
            let flow = net.max_flow(s, t);
            if flow < total_demand - 1e-3 {
                return None;
            }
            for (app, node, h) in handles {
                let f = net.flow_on(h);
                if f > FEAS_EPS {
                    load.set(app, node, CpuSpeed::from_mhz(f));
                }
            }
        }
    }
    Some(load)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use dynaplace_batch::hypothetical::JobSnapshot;
    use dynaplace_batch::job::JobProfile;
    use dynaplace_model::app::ApplicationSpec;
    use dynaplace_model::cluster::{AppSet, Cluster};
    use dynaplace_model::node::NodeSpec;
    use dynaplace_model::units::{Memory, SimDuration, SimTime, Work};
    use dynaplace_rpf::goal::{CompletionGoal, ResponseTimeGoal};
    use dynaplace_txn::model::{TxnPerformanceModel, TxnWorkload};

    fn mhz(x: f64) -> CpuSpeed {
        CpuSpeed::from_mhz(x)
    }

    struct World {
        cluster: Cluster,
        apps: AppSet,
        workloads: BTreeMap<AppId, WorkloadModel>,
        placement: Placement,
    }

    impl World {
        fn problem(&self) -> PlacementProblem<'_> {
            PlacementProblem {
                cluster: &self.cluster,
                apps: &self.apps,
                workloads: self.workloads.clone(),
                current: &self.placement,
                now: SimTime::ZERO,
                cycle: SimDuration::from_secs(1.0),
                forbidden: Default::default(),
            }
        }
    }

    fn batch_snapshot_with_speed(
        app: AppId,
        work: f64,
        max_speed: f64,
        deadline: f64,
    ) -> JobSnapshot {
        batch_snapshot(app, work, max_speed, deadline)
    }

    fn batch_snapshot(app: AppId, work: f64, max_speed: f64, deadline: f64) -> JobSnapshot {
        JobSnapshot::new(
            app,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(deadline)),
            Arc::new(JobProfile::single_stage(
                Work::from_mcycles(work),
                mhz(max_speed),
                Memory::from_mb(750.0),
            )),
            Work::ZERO,
            SimDuration::ZERO,
        )
    }

    /// Two identical jobs on one 1000 MHz node: each gets 500 MHz.
    #[test]
    fn equal_jobs_split_evenly() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let a = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let b = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let mut placement = Placement::new();
        placement.place(a, n0);
        placement.place(b, n0);
        let mut workloads = BTreeMap::new();
        workloads.insert(
            a,
            WorkloadModel::Batch(batch_snapshot(a, 4_000.0, 1_000.0, 20.0)),
        );
        workloads.insert(
            b,
            WorkloadModel::Batch(batch_snapshot(b, 4_000.0, 1_000.0, 20.0)),
        );
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        let load = distribute(&world.problem(), &world.placement).unwrap();
        assert!(load.get(a, n0).approx_eq(mhz(500.0), 1.0));
        assert!(load.get(b, n0).approx_eq(mhz(500.0), 1.0));
    }

    /// A saturated job frees capacity for the other (progressive fill).
    #[test]
    fn saturated_app_leaves_rest_to_others() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        // `slow` can only consume 200 MHz; `fast` can take 1000.
        let slow = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(200.0)));
        let fast = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let mut placement = Placement::new();
        placement.place(slow, n0);
        placement.place(fast, n0);
        let mut workloads = BTreeMap::new();
        workloads.insert(
            slow,
            WorkloadModel::Batch(batch_snapshot(slow, 800.0, 200.0, 20.0)),
        );
        workloads.insert(
            fast,
            WorkloadModel::Batch(batch_snapshot(fast, 4_000.0, 1_000.0, 20.0)),
        );
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        let load = distribute(&world.problem(), &world.placement).unwrap();
        // Max-min equalizes u, not speed: both jobs need completion at
        // t(u) with 20·(1−u) seconds available, so demands are in
        // proportion to remaining work (800 : 4000) and the uniform level
        // is u* = 0.76 → 166.7 and 833.3 MHz.
        assert!(load.get(slow, n0).approx_eq(mhz(166.67), 2.0));
        assert!(load.get(fast, n0).approx_eq(mhz(833.33), 2.0));
    }

    /// When one job saturates below the fair level, the surplus flows to
    /// the other (true progressive filling).
    #[test]
    fn surplus_flows_past_saturated_app() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let tiny = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(100.0)));
        let big = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let mut placement = Placement::new();
        placement.place(tiny, n0);
        placement.place(big, n0);
        let mut workloads = BTreeMap::new();
        // tiny: 100 Mc at ≤100 MHz, loose goal → saturates early.
        workloads.insert(
            tiny,
            WorkloadModel::Batch(batch_snapshot_with_speed(tiny, 100.0, 100.0, 50.0)),
        );
        // big: wants the node; tight goal.
        workloads.insert(
            big,
            WorkloadModel::Batch(batch_snapshot_with_speed(big, 9_000.0, 1_000.0, 10.0)),
        );
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        let load = distribute(&world.problem(), &world.placement).unwrap();
        // tiny can use at most 100 MHz; big takes at least the rest that
        // its demand asks for (it needs 900 MHz to finish by t=10).
        assert!(load.get(tiny, n0) <= mhz(100.0) + mhz(0.1));
        assert!(load.get(big, n0) >= mhz(890.0));
    }

    /// Two hopeless jobs with different latenesses get strictly ordered
    /// utility and CPU from the sub-floor band: the worse-off job (the
    /// one that would finish later) bids more at every banded level, so
    /// the phase-2 water-filling gives it strictly more CPU, and the
    /// hypothetical function at the resulting aggregate scores the two
    /// strictly apart — never a shared flat clamp. (Under the old
    /// flat-clamp shims both demands were zeroed and the placement was
    /// indifferent between them.)
    #[test]
    fn hopeless_jobs_get_ordered_cpu_and_utility() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let late = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let later = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let mut placement = Placement::new();
        placement.place(late, n0);
        placement.place(later, n0);
        // 40,000 Mc at ≤1,000 MHz → 40 s minimum, against deadlines of
        // 3 s and 1 s: raw u_max = −12.3 and −39, both sub-floor, and the
        // flat-out bids (1,000 MHz each) cannot both fit the node.
        let snap_late = batch_snapshot(late, 40_000.0, 1_000.0, 3.0);
        let snap_later = batch_snapshot(later, 40_000.0, 1_000.0, 1.0);
        let now = SimTime::ZERO;
        assert!(snap_late.u_max(now).is_sub_floor());
        assert!(snap_later.u_max(now).is_sub_floor());
        assert!(snap_late.u_max(now) > snap_later.u_max(now));
        let mut workloads = BTreeMap::new();
        workloads.insert(late, WorkloadModel::Batch(snap_late.clone()));
        workloads.insert(later, WorkloadModel::Batch(snap_later.clone()));
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        let load = distribute(&world.problem(), &world.placement).unwrap();
        let cpu_late = load.get(late, n0);
        let cpu_later = load.get(later, n0);
        // The whole node is used draining them...
        assert!(
            (cpu_late + cpu_later).approx_eq(mhz(1_000.0), 1.0),
            "{cpu_late} + {cpu_later}"
        );
        // ...and the worse-off job gets strictly more of it (3× here:
        // demands at a common banded level scale inversely with the
        // deadline-proportional time left).
        assert!(
            cpu_later > cpu_late + mhz(100.0),
            "later job must outdraw: {cpu_later} vs {cpu_late}"
        );
        // Utility at the drained aggregate stays strictly ordered too.
        let hypo =
            dynaplace_batch::hypothetical::HypotheticalRpf::new(now, &[snap_late, snap_later]);
        let ps = hypo.performances(cpu_late + cpu_later);
        assert!(ps[0].1.is_sub_floor() && ps[1].1.is_sub_floor());
        assert!(
            ps[0].1 > ps[1].1,
            "utilities must order by lateness: {} vs {}",
            ps[0].1,
            ps[1].1
        );
    }

    /// A transactional app spanning two nodes absorbs the capacity its
    /// queueing model asks for, across nodes.
    #[test]
    fn transactional_spans_nodes() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(4_000.0))
                .expect("valid node capacities"),
        );
        let n1 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(4_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let web = apps.add(ApplicationSpec::transactional(
            Memory::from_mb(500.0),
            mhz(1_000.0),
            2,
        ));
        let job = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let mut placement = Placement::new();
        placement.place(web, n0);
        placement.place(web, n1);
        placement.place(job, n0);
        // Web workload: λ·d = 600 MHz; floor makes saturation 1,400 MHz.
        let model = TxnPerformanceModel::new(
            TxnWorkload::new(60.0, 10.0, SimDuration::from_secs(0.0125)),
            ResponseTimeGoal::new(SimDuration::from_secs(0.05)),
        );
        let mut workloads = BTreeMap::new();
        workloads.insert(web, WorkloadModel::Transactional(model));
        workloads.insert(
            job,
            WorkloadModel::Batch(batch_snapshot(job, 8_000.0, 1_000.0, 40.0)),
        );
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        let load = distribute(&world.problem(), &world.placement).unwrap();
        let web_total = load.app_total(web);
        let job_total = load.app_total(job);
        // Totals never exceed cluster capacity and respect node caps.
        assert!(web_total + job_total <= mhz(2_000.0) + mhz(1.0));
        assert!(load.node_total(n0) <= mhz(1_000.0) + mhz(1.0));
        assert!(load.node_total(n1) <= mhz(1_000.0) + mhz(1.0));
        // The web app gets at least its saturation load (600 MHz) since
        // 2,000 MHz total is plenty for both workloads here.
        assert!(web_total >= mhz(600.0));
        // The job should receive substantial capacity too.
        assert!(job_total > mhz(400.0));
    }

    /// Minimum speeds that cannot fit make the placement infeasible.
    #[test]
    fn infeasible_min_speeds_return_none() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(500.0), Memory::from_mb(4_000.0)).expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let a = apps.add(
            ApplicationSpec::batch(Memory::from_mb(100.0), mhz(400.0))
                .with_min_instance_speed(mhz(400.0)),
        );
        let b = apps.add(
            ApplicationSpec::batch(Memory::from_mb(100.0), mhz(400.0))
                .with_min_instance_speed(mhz(400.0)),
        );
        let mut placement = Placement::new();
        placement.place(a, n0);
        placement.place(b, n0);
        let profile = Arc::new(JobProfile::new(vec![dynaplace_batch::job::JobStage::new(
            Work::from_mcycles(1_000.0),
            mhz(400.0),
            mhz(400.0),
            Memory::from_mb(100.0),
        )]));
        let snap = |app| {
            JobSnapshot::new(
                app,
                CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(100.0)),
                Arc::clone(&profile),
                Work::ZERO,
                SimDuration::ZERO,
            )
        };
        let mut workloads = BTreeMap::new();
        workloads.insert(a, WorkloadModel::Batch(snap(a)));
        workloads.insert(b, WorkloadModel::Batch(snap(b)));
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        assert!(distribute(&world.problem(), &world.placement).is_none());
    }

    /// Unplaced applications receive nothing.
    #[test]
    fn unplaced_apps_get_zero() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let placed = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let queued = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(1_000.0)));
        let mut placement = Placement::new();
        placement.place(placed, n0);
        let mut workloads = BTreeMap::new();
        workloads.insert(
            placed,
            WorkloadModel::Batch(batch_snapshot(placed, 4_000.0, 1_000.0, 20.0)),
        );
        workloads.insert(
            queued,
            WorkloadModel::Batch(batch_snapshot(queued, 4_000.0, 1_000.0, 20.0)),
        );
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        let load = distribute(&world.problem(), &world.placement).unwrap();
        assert_eq!(load.app_total(queued), CpuSpeed::ZERO);
        assert!(load.app_total(placed) > mhz(900.0));
    }

    /// The distribution always validates against the model invariants.
    #[test]
    fn distribution_validates() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(2_000.0))
                .expect("valid node capacities"),
        );
        let n1 = cluster.add_node(
            NodeSpec::try_new(mhz(800.0), Memory::from_mb(2_000.0)).expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let a = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(600.0)));
        let b = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(900.0)));
        let c = apps.add(ApplicationSpec::batch(Memory::from_mb(750.0), mhz(500.0)));
        let mut placement = Placement::new();
        placement.place(a, n0);
        placement.place(b, n0);
        placement.place(c, n1);
        let mut workloads = BTreeMap::new();
        workloads.insert(
            a,
            WorkloadModel::Batch(batch_snapshot(a, 3_000.0, 600.0, 30.0)),
        );
        workloads.insert(
            b,
            WorkloadModel::Batch(batch_snapshot(b, 5_000.0, 900.0, 15.0)),
        );
        workloads.insert(
            c,
            WorkloadModel::Batch(batch_snapshot(c, 2_000.0, 500.0, 25.0)),
        );
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        let load = distribute(&world.problem(), &world.placement).unwrap();
        load.validate(&world.placement, &world.cluster, &world.apps)
            .expect("distribution must satisfy model invariants");
    }

    /// Two multi-node transactional apps force the max-flow path.
    #[test]
    fn two_multi_node_apps_use_flow() {
        let mut cluster = Cluster::new();
        let n0 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(4_000.0))
                .expect("valid node capacities"),
        );
        let n1 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(4_000.0))
                .expect("valid node capacities"),
        );
        let n2 = cluster.add_node(
            NodeSpec::try_new(mhz(1_000.0), Memory::from_mb(4_000.0))
                .expect("valid node capacities"),
        );
        let mut apps = AppSet::new();
        let web1 = apps.add(ApplicationSpec::transactional(
            Memory::from_mb(100.0),
            mhz(1_000.0),
            3,
        ));
        let web2 = apps.add(ApplicationSpec::transactional(
            Memory::from_mb(100.0),
            mhz(1_000.0),
            3,
        ));
        let mut placement = Placement::new();
        placement.place(web1, n0);
        placement.place(web1, n1);
        placement.place(web2, n1);
        placement.place(web2, n2);
        let model = |rate: f64| {
            TxnPerformanceModel::new(
                TxnWorkload::new(rate, 10.0, SimDuration::from_secs(0.01)),
                ResponseTimeGoal::new(SimDuration::from_secs(0.05)),
            )
        };
        let mut workloads = BTreeMap::new();
        workloads.insert(web1, WorkloadModel::Transactional(model(80.0)));
        workloads.insert(web2, WorkloadModel::Transactional(model(80.0)));
        let world = World {
            cluster,
            apps,
            workloads,
            placement,
        };
        let load = distribute(&world.problem(), &world.placement).unwrap();
        // Saturation allocation per app: 80·10 + 10/0.01 = 1,800 MHz; the
        // cluster region each can reach is 2,000 MHz shared. Both should
        // end up equal by symmetry and within capacity.
        let t1 = load.app_total(web1);
        let t2 = load.app_total(web2);
        assert!(t1.approx_eq(t2, 5.0), "{t1} vs {t2}");
        for n in [n0, n1, n2] {
            assert!(load.node_total(n) <= mhz(1_000.0) + mhz(0.01));
        }
        load.validate(&world.placement, &world.cluster, &world.apps)
            .unwrap();
    }
}
