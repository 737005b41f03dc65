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
//! nodes, and with plain per-node sums otherwise. Only the nodes that
//! host a placed instance take part, so the cost of a level follows the
//! placement, not the cluster.

use dynaplace_batch::hypothetical::DemandCurve;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::load::LoadDistribution;
use dynaplace_model::placement::Placement;
use dynaplace_model::units::{CpuSpeed, SimDuration, Work};
use dynaplace_rpf::model::PerformanceModel;
use dynaplace_rpf::value::{Rp, RP_FLOOR, RP_MIN};
use dynaplace_solver::bisect::bisect_max;
use dynaplace_solver::maxflow::{EdgeHandle, FlowNetwork};
use dynaplace_txn::model::TxnPerformanceModel;

use crate::cache::{DemandRow, ScoreCache};
use crate::problem::{PlacementProblem, WorkloadModel};

/// Absolute feasibility slack in MHz.
const FEAS_EPS: f64 = 1e-6;
/// Bisection resolution on the uniform performance level.
const U_TOL: f64 = 1e-5;
/// Probe step when testing whether an application can individually rise.
const PROBE_DU: f64 = 1e-3;

/// How a placed application's CPU demand responds to the level `u`.
#[derive(Debug, Clone, Copy)]
enum Demand<'a> {
    /// A batch job's demand curve, taken from its snapshot *as placed*:
    /// a job placed by this candidate starts progressing immediately, so
    /// its curve must not carry the queued-state start delay.
    Batch(DemandCurve),
    /// A transactional application's queueing model.
    Transactional(&'a TxnPerformanceModel),
}

#[derive(Debug, Clone)]
struct PlacedApp<'a> {
    app: AppId,
    /// Position in `problem.workloads`: the app's slot in a demand-memo
    /// row.
    slot: usize,
    demand: Demand<'a>,
    /// Floor the app must receive while placed (`count × min_speed`).
    min_total: f64,
    /// Final allocation once the app stops floating.
    fixed: Option<f64>,
}

impl PlacedApp<'_> {
    /// Raw (unclamped) workload demand at performance level `u`.
    ///
    /// Batch demand is the demand curve across the *whole* `Rp` range,
    /// including the sub-floor band: a hopeless job bids flat-out at
    /// every healthy level and scales down by lateness at banded levels,
    /// so the water-filling itself drains the worst-off jobs first.
    /// (Historically hopeless jobs had their demand zeroed here to
    /// contain the flat-clamp starvation livelock; the sub-floor band
    /// made that shim redundant and it was removed.)
    fn raw_demand(&self, u: f64) -> f64 {
        match self.demand {
            Demand::Batch(curve) => curve.at(Rp::new(u)).as_mhz(),
            Demand::Transactional(m) => m.demand(Rp::new(u)).as_mhz(),
        }
    }

    /// Demand at level `u` clamped to what the placement can carry. The
    /// raw demand depends only on the workload model, `now`, and `u` —
    /// not on the candidate placement — so it is read through the memo
    /// `row` when one is given; the placement-dependent clamp is not.
    fn demand_at(&self, u: f64, route: &Route, row: Option<&mut DemandRow<'_>>) -> f64 {
        let raw = match row {
            Some(row) => row.get_or_insert_with(self.slot, || self.raw_demand(u)),
            None => self.raw_demand(u),
        };
        raw.clamp(self.min_total, route.cap_total)
    }

    /// Whether this is a floating batch job whose best achievable
    /// performance lies in the sub-floor band.
    fn floating_hopeless(&self) -> bool {
        self.fixed.is_none()
            && matches!(self.demand, Demand::Batch(curve) if curve.u_max().is_sub_floor())
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
    let mut routes: Vec<Route> = Vec::new();
    let mut hosts: Vec<NodeId> = Vec::new();
    // Both `workloads` and the placement's cells iterate in ascending
    // `AppId` order (cells additionally node-ascending within an app —
    // the order `instances_of` yields), so one merge-join pass replaces a
    // per-application range query.
    let mut cell_iter = placement.iter().peekable();
    for (slot, (&app, model)) in problem.workloads.iter().enumerate() {
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
        // Cells hold the node index until the host list is complete.
        let mut cells: Vec<(usize, f64)> = Vec::new();
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
            cells.push((
                node.index(),
                (max.as_mhz() * f64::from(count)).min(node_cap),
            ));
            hosts.push(node);
        }
        if cells.is_empty() {
            continue;
        }
        let cap_total = cells.iter().map(|(_, c)| c).sum();
        let demand = match model {
            WorkloadModel::Batch(snap) => Demand::Batch(
                snap.advanced(Work::ZERO, SimDuration::ZERO)
                    .demand_curve(problem.now),
            ),
            WorkloadModel::Transactional(m) => Demand::Transactional(m),
        };
        apps.push(PlacedApp {
            app,
            slot,
            demand,
            min_total: min.as_mhz() * f64::from(counted),
            fixed: None,
        });
        routes.push(Route { cells, cap_total });
    }
    hosts.sort_unstable();
    hosts.dedup();
    for route in &mut routes {
        for cell in &mut route.cells {
            cell.0 = hosts
                .binary_search_by_key(&cell.0, |node| node.index())
                .expect("every cell's node is a host");
        }
    }
    let capacities: Vec<f64> = hosts
        .iter()
        .map(|&node| {
            problem
                .cluster
                .node(node)
                .expect("placed on a known node")
                .cpu_capacity()
                .as_mhz()
        })
        .collect();
    let mut router = Router::new(routes, hosts, capacities);

    // Demand vector at level `u`, written into `out`: fixed apps keep
    // their allocation. One memo row serves the whole level.
    let slots = problem.workloads.len();
    let demand_row = |u: f64| cache.map(|c| c.demand_row(u.to_bits(), slots));
    let effective = |apps: &[PlacedApp<'_>], routes: &[Route], u: f64, out: &mut Vec<f64>| {
        out.clear();
        let mut row = demand_row(u);
        for (pa, route) in apps.iter().zip(routes) {
            out.push(
                pa.fixed
                    .unwrap_or_else(|| pa.demand_at(u, route, row.as_mut())),
            );
        }
    };
    // Reused by every bisection step; after a bisection it holds `base`.
    let mut demands: Vec<f64> = Vec::with_capacity(apps.len());

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
            effective(&apps, &router.routes, u, &mut demands);
            router.routable(&demands)
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
                if !apps.iter().any(PlacedApp::floating_hopeless) {
                    return None;
                }
                bisect_max(RP_MIN, RP_FLOOR, U_TOL, |u| {
                    effective(&apps, &router.routes, u, &mut demands);
                    router.routable(&demands)
                })?
            }
        };
        let u_star = result.accepted;
        effective(&apps, &router.routes, u_star, &mut demands);
        let base = &mut demands;

        if result.rejected.is_none() {
            // Everything fits even at u = 1: fix all floats at their
            // u = 1 demand (their saturation level).
            for (pa, d) in apps.iter_mut().zip(base.iter()) {
                if pa.fixed.is_none() {
                    pa.fixed = Some(*d);
                }
            }
            break;
        }

        // Find which floating applications are stuck at u*. The demand
        // vector with app `i` probed is `base` with element `i` replaced
        // (all other entries are the same fixed-or-demand-at-u* values
        // `base` holds), so the router patches `base` in place instead of
        // recomputing every demand per probe.
        let mut newly_fixed = Vec::new();
        let u_probe = (u_star + PROBE_DU).min(1.0);
        let mut row = demand_row(u_probe);
        for i in 0..apps.len() {
            if apps[i].fixed.is_some() {
                continue;
            }
            let probe = apps[i].demand_at(u_probe, &router.routes[i], row.as_mut());
            let saturated = probe <= base[i] + FEAS_EPS;
            let blocked = saturated || !router.fits_raised(base, i, probe);
            if blocked {
                newly_fixed.push((i, base[i]));
            }
        }
        drop(row);
        if newly_fixed.is_empty() {
            // Numerical corner: nobody is provably blocked; fix everyone
            // at the achieved level to terminate.
            for (pa, d) in apps.iter_mut().zip(base.iter()) {
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

    let mut load = router.extract(&apps)?;
    residual_fill(&apps, &mut router, &mut load, demand_row(Rp::MAX.value()));
    Some(load)
}

/// Hands leftover node capacity to applications that can still absorb it
/// (up to their per-cell caps and their maximum useful demand). This is
/// what lets a transactional application stuck at the RP floor — its
/// performance cannot improve this cycle, so the water-filler gives it
/// nothing — still consume the capacity nobody else wants: best-effort
/// service instead of idle CPUs.
///
/// `row` is the demand memo's row at `Rp::MAX`, when memoizing.
fn residual_fill(
    apps: &[PlacedApp<'_>],
    router: &mut Router,
    load: &mut LoadDistribution,
    mut row: Option<DemandRow<'_>>,
) {
    let Router {
        routes,
        hosts,
        capacities,
        residual,
        ..
    } = router;
    residual.copy_from_slice(capacities);
    for (_, node, speed) in load.iter() {
        let host = hosts
            .binary_search(&node)
            .expect("load is only routed onto hosts");
        residual[host] -= speed.as_mhz();
    }
    // Batch appetite is the raw demand at Rp::MAX — the same function
    // the water-filler memoizes (Rp::new clamps, so Rp::new(MAX) ==
    // MAX); the transactional arm is a different function, kept
    // uncached.
    for (pa, route) in apps.iter().zip(routes.iter()) {
        let appetite_total = match (pa.demand, row.as_mut()) {
            (Demand::Transactional(m), _) => m.max_useful_demand().as_mhz(),
            (Demand::Batch(curve), None) => curve.at(Rp::MAX).as_mhz(),
            (Demand::Batch(curve), Some(row)) => {
                row.get_or_insert_with(pa.slot, || curve.at(Rp::MAX).as_mhz())
            }
        }
        .min(route.cap_total);
        let mut appetite = appetite_total - load.app_total(pa.app).as_mhz();
        if appetite <= FEAS_EPS {
            continue;
        }
        for &(host, cell_cap) in &route.cells {
            if appetite <= FEAS_EPS {
                break;
            }
            let node = hosts[host];
            let r = &mut residual[host];
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

/// Where one placed application's CPU can go.
#[derive(Debug, Clone)]
struct Route {
    /// Per-host routing capacity, `(host index, count ×
    /// max_instance_speed capped by the node CPU)`, host-ascending.
    cells: Vec<(usize, f64)>,
    /// Σ of `cells` capacities.
    cap_total: f64,
}

impl Route {
    fn single_host(&self) -> Option<usize> {
        if self.cells.len() == 1 {
            Some(self.cells[0].0)
        } else {
            None
        }
    }
}

/// Routability of demand vectors (one entry per route) over the nodes
/// hosting a placed instance — the *hosts*, indexed in ascending
/// `NodeId` order. The scratch buffers are reused across calls, so a
/// check allocates nothing unless two or more applications span nodes
/// (then it builds the max-flow network over the hosts).
#[derive(Debug)]
struct Router {
    routes: Vec<Route>,
    /// The hosts, ascending; a cell's host index points here.
    hosts: Vec<NodeId>,
    /// CPU capacity per host.
    capacities: Vec<f64>,
    /// Scratch: per-host residual capacity.
    residual: Vec<f64>,
    /// Scratch: `(route index, demand)` of the multi-node applications.
    multi: Vec<(usize, f64)>,
    /// Whether every route has a single host, which keeps a raised
    /// probe node-local (see [`Router::fits_raised`]).
    all_single: bool,
    /// Route indices on each host, in route order; built by the first
    /// node-local probe.
    by_host: Option<Vec<Vec<usize>>>,
}

impl Router {
    fn new(routes: Vec<Route>, hosts: Vec<NodeId>, capacities: Vec<f64>) -> Self {
        let all_single = routes.iter().all(|r| r.cells.len() == 1);
        Self {
            residual: vec![0.0; capacities.len()],
            multi: Vec::new(),
            all_single,
            by_host: None,
            routes,
            hosts,
            capacities,
        }
    }

    /// Checks whether `demands` can be routed: single-node demands are
    /// charged directly to their node; multi-node applications go
    /// through a max-flow over their candidate nodes.
    fn routable(&mut self, demands: &[f64]) -> bool {
        self.residual.copy_from_slice(&self.capacities);
        self.multi.clear();
        for (i, (route, &demand)) in self.routes.iter().zip(demands).enumerate() {
            if demand > route.cap_total + FEAS_EPS {
                return false;
            }
            match route.single_host() {
                Some(host) => {
                    let r = &mut self.residual[host];
                    *r -= demand;
                    if *r < -FEAS_EPS {
                        return false;
                    }
                }
                None => self.multi.push((i, demand)),
            }
        }
        route_multi(&self.routes, &self.multi, &mut self.residual)
    }

    /// Whether `base` — a demand vector known to be routable — stays
    /// routable with entry `i` raised to `probe`.
    ///
    /// When every application is single-node, raising `i` changes only
    /// the sums on `i`'s node: every other node sees the same
    /// subtractions that already passed for `base`. So the verdict is
    /// `i`'s own cap check plus a replay of that node's subtractions, in
    /// application order, exactly as [`Router::routable`] performs them.
    /// Otherwise the whole patched vector goes through `routable`;
    /// `base` is restored before returning.
    fn fits_raised(&mut self, base: &mut [f64], i: usize, probe: f64) -> bool {
        if !self.all_single {
            let kept = base[i];
            base[i] = probe;
            let fits = self.routable(base);
            base[i] = kept;
            return fits;
        }
        let route = &self.routes[i];
        if probe > route.cap_total + FEAS_EPS {
            return false;
        }
        let host = route.cells[0].0;
        let routes = &self.routes;
        let hosts = self.hosts.len();
        let by_host = self.by_host.get_or_insert_with(|| {
            let mut by_host = vec![Vec::new(); hosts];
            for (j, route) in routes.iter().enumerate() {
                by_host[route.cells[0].0].push(j);
            }
            by_host
        });
        let mut r = self.capacities[host];
        for &j in &by_host[host] {
            r -= if j == i { probe } else { base[j] };
            if r < -FEAS_EPS {
                return false;
            }
        }
        true
    }

    /// Turns final per-app allocations into a per-cell
    /// [`LoadDistribution`].
    fn extract(&mut self, apps: &[PlacedApp<'_>]) -> Option<LoadDistribution> {
        let residual = &mut self.residual;
        residual.copy_from_slice(&self.capacities);
        let mut load = LoadDistribution::new();

        // Single-node apps first (their placement is forced).
        let mut multi: Vec<(usize, f64)> = Vec::new();
        for (i, (pa, route)) in apps.iter().zip(&self.routes).enumerate() {
            let total = pa.fixed.unwrap_or(0.0);
            if total <= 0.0 {
                continue;
            }
            match route.single_host() {
                Some(host) => {
                    let r = &mut residual[host];
                    *r -= total;
                    if *r < -1e-3 {
                        return None; // should not happen: demands were feasible
                    }
                    load.set(pa.app, self.hosts[host], CpuSpeed::from_mhz(total));
                }
                None => multi.push((i, total)),
            }
        }

        match multi.len() {
            0 => {}
            1 => {
                let (i, demand) = multi[0];
                let mut need = demand;
                for &(host, cap) in &self.routes[i].cells {
                    let r = &mut residual[host];
                    let take = need.min(cap).min((*r).max(0.0));
                    if take > 0.0 {
                        *r -= take;
                        need -= take;
                        load.set(apps[i].app, self.hosts[host], CpuSpeed::from_mhz(take));
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
                let mut handles = Vec::new();
                let (mut net, total_demand, t) =
                    flow_network(&self.routes, &multi, residual, |i, host, h| {
                        handles.push((i, host, h));
                    });
                if net.max_flow(0, t) < total_demand - 1e-3 {
                    return None;
                }
                for (i, host, h) in handles {
                    let f = net.flow_on(h);
                    if f > FEAS_EPS {
                        load.set(apps[i].app, self.hosts[host], CpuSpeed::from_mhz(f));
                    }
                }
            }
        }
        Some(load)
    }
}

fn route_multi(routes: &[Route], multi: &[(usize, f64)], residual: &mut [f64]) -> bool {
    if multi.is_empty() {
        return true;
    }
    if multi.len() == 1 {
        // Greedy suffices for a single multi-node application.
        let (i, demand) = multi[0];
        let mut need = demand;
        for &(host, cap) in &routes[i].cells {
            let r = &mut residual[host];
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
    let (mut net, total_demand, t) = flow_network(routes, multi, residual, |_, _, _| {});
    net.max_flow(0, t) >= total_demand - FEAS_EPS * (1.0 + multi.len() as f64)
}

/// The bipartite routing network for the multi-node applications in
/// `multi` (`(route index, demand)`): source 0, vertex `1 + k` for the
/// `k`-th of them, then one vertex per host, then the sink. Edges go in
/// application by application (source edge, then one per cell, reported
/// to `on_cell` as `(route index, host index, handle)`), then host to
/// sink with the host's residual capacity. Returns the network, the
/// total demand and the sink.
fn flow_network(
    routes: &[Route],
    multi: &[(usize, f64)],
    residual: &[f64],
    mut on_cell: impl FnMut(usize, usize, EdgeHandle),
) -> (FlowNetwork, f64, usize) {
    let host_base = 1 + multi.len();
    let t = host_base + residual.len();
    let mut net = FlowNetwork::new(t + 1);
    let mut total_demand = 0.0;
    for (k, &(i, demand)) in multi.iter().enumerate() {
        net.add_edge(0, 1 + k, demand);
        total_demand += demand;
        for &(host, cap) in &routes[i].cells {
            on_cell(i, host, net.add_edge(1 + k, host_base + host, cap));
        }
    }
    for (host, r) in residual.iter().enumerate() {
        net.add_edge(host_base + host, t, r.max(0.0));
    }
    (net, total_demand, t)
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
    use proptest::prelude::*;

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

    /// A router over hosts `0..capacities.len()`.
    fn router(capacities: &[f64], routes: Vec<Route>) -> Router {
        let hosts = (0..capacities.len() as u32).map(NodeId::new).collect();
        Router::new(routes, hosts, capacities.to_vec())
    }

    proptest! {
        /// With every application on one node, a raised probe replayed on
        /// the probed app's node alone gives the same verdict as routing
        /// the whole patched vector, and leaves `base` as it was. Probes
        /// land at random, exactly on the node's slack, just inside, on
        /// and just outside the feasibility slack, and past the app's
        /// cap. Zero-capacity (failed) nodes make the boundary exact.
        #[test]
        fn node_local_probe_matches_full_routability(
            capacities in proptest::collection::vec(
                prop_oneof![100.0..2_000.0f64, Just(0.0)],
                1..6,
            ),
            apps in proptest::collection::vec(
                (0usize..6, 10.0..1_500.0f64, 0.0..1.0f64, 0u8..6, 0.0..2.0f64),
                1..12,
            ),
        ) {
            let hosts = capacities.len();
            let routes: Vec<Route> = apps
                .iter()
                .map(|&(pick, cap, ..)| Route { cells: vec![(pick % hosts, cap)], cap_total: cap })
                .collect();
            // A routable base: each app asks a share of its cap, scaled
            // down on any node it would overfill.
            let mut base: Vec<f64> = apps
                .iter()
                .map(|&(_, cap, share, ..)| cap * share)
                .collect();
            let mut load = vec![0.0; hosts];
            for (route, d) in routes.iter().zip(&base) {
                load[route.cells[0].0] += d;
            }
            for (route, d) in routes.iter().zip(base.iter_mut()) {
                let h = route.cells[0].0;
                if load[h] > capacities[h] {
                    *d *= 0.999 * capacities[h] / load[h];
                }
            }
            let mut router = router(&capacities, routes);
            prop_assume!(router.routable(&base));
            let kept = base.clone();
            for (i, &(_, cap, _, kind, factor)) in apps.iter().enumerate() {
                let h = router.routes[i].cells[0].0;
                let others: f64 = (0..apps.len())
                    .filter(|&j| j != i && router.routes[j].cells[0].0 == h)
                    .map(|j| base[j])
                    .sum();
                let slack = capacities[h] - others;
                let probe = match kind {
                    0 => base[i] + factor * cap,
                    1 => slack,
                    2 => slack + 0.5 * FEAS_EPS,
                    3 => slack + FEAS_EPS,
                    4 => slack + 2.0 * FEAS_EPS,
                    _ => cap + factor * FEAS_EPS,
                };
                let mut patched = base.clone();
                patched[i] = probe;
                let full = router.routable(&patched);
                prop_assert_eq!(router.fits_raised(&mut base, i, probe), full);
                prop_assert_eq!(&base, &kept);
            }
        }
    }

    /// With an application spanning two nodes, a raised probe must go
    /// through the full routing: replaying the probed app's node alone
    /// would miss that the multi-node app loses its share there.
    #[test]
    fn raised_probe_with_a_multi_node_app_routes_everything() {
        let single = Route {
            cells: vec![(0, 1_000.0)],
            cap_total: 1_000.0,
        };
        let spanning = Route {
            cells: vec![(0, 1_000.0), (1, 500.0)],
            cap_total: 1_500.0,
        };
        let mut router = router(&[1_000.0, 1_000.0], vec![single, spanning]);
        let mut base = vec![400.0, 1_000.0];
        assert!(router.routable(&base));
        // Node 0 alone still fits 550 MHz for the single-node app, but
        // the spanning app can then reach only 450 + 500 < 1,000 MHz.
        assert!(!router.fits_raised(&mut base, 0, 550.0));
        assert!(router.fits_raised(&mut base, 0, 500.0));
        assert!(
            router.by_host.is_none(),
            "must not take the node-local path"
        );
        assert_eq!(base, vec![400.0, 1_000.0]);
    }
}
