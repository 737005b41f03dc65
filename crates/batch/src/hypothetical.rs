//! Hypothetical relative performance for long-running jobs (§4.2) — the
//! paper's original contribution.
//!
//! At each control cycle the placement controller must predict, for every
//! job in the system (running *or* queued), the relative performance the
//! job will eventually achieve under a candidate placement. Job
//! completion times are coupled — finishing one job early frees capacity
//! for the queue — so predictions are made against a *fluid* model of the
//! whole batch workload:
//!
//! 1. Sample target performance levels `u₁ < u₂ < … < u_R`.
//! 2. For each job `m` and level `u_i`, compute the average speed
//!    `W[i][m]` the job needs from now until its goal-compatible
//!    completion time to achieve `u_i`, capping at the job's maximum
//!    achievable performance `u_max_m` (eqs. 3–5). `V[i][m]` records the
//!    (possibly capped) performance.
//! 3. Given an aggregate batch allocation `ω_g`, locate the bracketing
//!    rows `Σ_m W[k][m] ≤ ω_g ≤ Σ_m W[k+1][m]` (eq. 6) and linearly
//!    interpolate each job's predicted performance between `V[k][m]` and
//!    `V[k+1][m]`.
//!
//! Candidate placements are evaluated one cycle ahead
//! ([`evaluate_batch_placement`]): each job's progress is advanced by its
//! candidate allocation for one control cycle, then the hypothetical
//! function at `t_now + T` is read at the candidate's aggregate batch
//! allocation.

use std::sync::Arc;

use dynaplace_model::ids::AppId;
use dynaplace_model::units::{CpuSpeed, SimDuration, SimTime, Work};
use dynaplace_rpf::goal::CompletionGoal;
use dynaplace_rpf::value::{Rp, RP_FLOOR};

use crate::job::JobProfile;

/// The default sampling grid of target relative performance values
/// (`u₁ … u_R`), denser near the top where placement decisions
/// discriminate. The bottom sample stands in for the paper's `u₁ = −∞`.
pub fn default_grid() -> Vec<f64> {
    let mut grid = vec![
        RP_FLOOR, -7.0, -5.0, -4.0, -3.0, -2.5, -2.0, -1.6, -1.3, -1.0, -0.8, -0.6, -0.5, -0.4,
        -0.3, -0.2, -0.1,
    ];
    let mut u = 0.0;
    while u <= 1.0 + 1e-9 {
        grid.push(u);
        u += 0.05;
    }
    grid
}

/// A point-in-time view of one job, sufficient to compute its share of
/// the hypothetical relative performance function.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    app: AppId,
    goal: CompletionGoal,
    profile: Arc<JobProfile>,
    consumed: Work,
    earliest_start_delay: SimDuration,
    /// Number of parallel tasks that can execute concurrently (1 for
    /// ordinary jobs): the aggregate top speed is `parallelism ×` the
    /// stage maximum.
    parallelism: u32,
}

impl JobSnapshot {
    /// Creates a snapshot.
    ///
    /// `earliest_start_delay` is zero for jobs that can make progress
    /// immediately (running, or evaluated at a future cycle boundary) and
    /// one control cycle for queued jobs that cannot start before the
    /// next placement decision.
    pub fn new(
        app: AppId,
        goal: CompletionGoal,
        profile: Arc<JobProfile>,
        consumed: Work,
        earliest_start_delay: SimDuration,
    ) -> Self {
        Self {
            app,
            goal,
            profile,
            consumed,
            earliest_start_delay,
            parallelism: 1,
        }
    }

    /// Declares the job a malleable parallel job with up to `tasks`
    /// concurrent task instances (the paper's future-work extension).
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is zero.
    #[must_use]
    pub fn with_parallelism(mut self, tasks: u32) -> Self {
        assert!(tasks > 0, "tasks must be positive");
        self.parallelism = tasks;
        self
    }

    /// Number of tasks that may run concurrently.
    #[inline]
    pub fn parallelism(&self) -> u32 {
        self.parallelism
    }

    /// The job's application id.
    #[inline]
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The job's completion goal.
    #[inline]
    pub fn goal(&self) -> CompletionGoal {
        self.goal
    }

    /// The job's profile.
    #[inline]
    pub fn profile(&self) -> &Arc<JobProfile> {
        &self.profile
    }

    /// Work consumed so far (`α*`).
    #[inline]
    pub fn consumed(&self) -> Work {
        self.consumed
    }

    /// Remaining work.
    pub fn remaining_work(&self) -> Work {
        self.profile.remaining_work(self.consumed)
    }

    /// Whether all work is done (within a megacycle-scale floating point
    /// tolerance: totals are 1e6–1e8 megacycles, so 1e-6 is negligible).
    pub fn is_done(&self) -> bool {
        self.remaining_work().as_mcycles() <= 1e-6
    }

    /// Maximum speed of the stage currently in progress (zero when done).
    pub fn max_speed(&self) -> CpuSpeed {
        self.profile
            .stage_at(self.consumed)
            .map_or(CpuSpeed::ZERO, |(s, _)| s.max_speed())
    }

    /// Minimum speed of the stage currently in progress (zero when done).
    pub fn min_speed(&self) -> CpuSpeed {
        self.profile
            .stage_at(self.consumed)
            .map_or(CpuSpeed::ZERO, |(s, _)| s.min_speed())
    }

    /// Earliest possible completion time as seen from `now`: start after
    /// the snapshot's start delay and run every remaining stage at its
    /// maximum speed.
    pub fn earliest_completion(&self, now: SimTime) -> SimTime {
        // A parallel job's best case runs every task flat out; the fluid
        // model divides the serial minimum time by the task count.
        let serial = self.profile.remaining_min_time(self.consumed);
        now + self.earliest_start_delay + serial / f64::from(self.parallelism)
    }

    /// The highest achievable relative performance (`u_max_m`): the
    /// performance of completing at [`JobSnapshot::earliest_completion`].
    pub fn u_max(&self, now: SimTime) -> Rp {
        self.goal.performance_at(self.earliest_completion(now))
    }

    /// Average speed the job must sustain from `now` over its remaining
    /// lifetime to achieve `u` (eq. 3), with `u` capped at
    /// [`JobSnapshot::u_max`]. Returns zero for completed jobs.
    ///
    /// Callers asking for many levels at one `now` should take the
    /// [`JobSnapshot::demand_curve`] once and query it instead.
    pub fn demand_for(&self, now: SimTime, u: Rp) -> CpuSpeed {
        self.demand_curve(now).at(u)
    }

    /// The job's demand as a function of the target level, as seen at
    /// `now`: the terms of [`JobSnapshot::demand_for`] that do not depend
    /// on the level (remaining work, earliest completion, `u_max`),
    /// computed once.
    pub fn demand_curve(&self, now: SimTime) -> DemandCurve {
        let earliest = self.earliest_completion(now);
        DemandCurve {
            now,
            goal: self.goal,
            remaining: self.remaining_work(),
            u_max: self.goal.performance_at(earliest),
            earliest,
        }
    }

    /// A copy of this snapshot with `done` more work consumed and a new
    /// start delay (used when evaluating a placement one cycle ahead).
    #[must_use]
    pub fn advanced(&self, done: Work, earliest_start_delay: SimDuration) -> Self {
        Self {
            app: self.app,
            goal: self.goal,
            profile: Arc::clone(&self.profile),
            consumed: (self.consumed + done).min(self.profile.total_work()),
            earliest_start_delay,
            parallelism: self.parallelism,
        }
    }
}

/// [`JobSnapshot::demand_for`] at a fixed `now`, with every term that
/// does not depend on the target level hoisted out. [`DemandCurve::at`]
/// runs the same arithmetic on the same values, so it returns the same
/// bits as `demand_for` for every level.
#[derive(Debug, Clone, Copy)]
pub struct DemandCurve {
    now: SimTime,
    goal: CompletionGoal,
    remaining: Work,
    u_max: Rp,
    earliest: SimTime,
}

impl DemandCurve {
    /// The highest achievable relative performance, as
    /// [`JobSnapshot::u_max`] reports it at the curve's `now`.
    #[inline]
    pub fn u_max(&self) -> Rp {
        self.u_max
    }

    /// Average speed needed to achieve `u`, capped at
    /// [`DemandCurve::u_max`]; zero for a completed job.
    pub fn at(&self, u: Rp) -> CpuSpeed {
        if self.remaining.is_zero() {
            return CpuSpeed::ZERO;
        }
        let target = u.min(self.u_max);
        let completion = self.goal.completion_for(target);
        // For hopelessly late jobs a target's completion time can still
        // lie in the past (healthy targets) or round-trip slightly early
        // (banded `u_max`); no schedule can beat the earliest feasible
        // completion, so demand tops out at the run-flat-out average
        // speed.
        let available = completion.max(self.earliest) - self.now;
        debug_assert!(
            available.is_positive(),
            "live jobs always have positive remaining time"
        );
        self.remaining / available
    }
}

/// One job's column of the `W`/`V` matrices: the speed the job needs,
/// and the (capped) performance it reaches, at every grid level. A pure
/// function of `(now, job, grid)` — which is what makes columns safe to
/// memoize across candidate placements that give the job the same
/// allocation (see `dynaplace-apc`'s score cache).
#[derive(Debug, Clone)]
pub struct JobColumn {
    u_max: Rp,
    /// `w[i]`: speed needed to achieve `grid[i]` (MHz).
    w: Vec<f64>,
    /// `v[i]`: the (capped) performance at that row.
    v: Vec<f64>,
}

impl JobColumn {
    /// Samples `job`'s demand and capped performance at every grid
    /// level, as seen at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the job is already completed.
    pub fn build(now: SimTime, job: &JobSnapshot, grid: &[f64]) -> Self {
        assert!(!job.is_done(), "completed jobs must be excluded");
        let curve = job.demand_curve(now);
        let cap = curve.u_max();
        let mut w = Vec::with_capacity(grid.len());
        let mut v = Vec::with_capacity(grid.len());
        for (i, &u) in grid.iter().enumerate() {
            if i == 0 && cap.is_sub_floor() {
                // A hopeless job (u_max below the healthy floor) anchors
                // its bottom row at the band bottom: zero allocation means
                // it never completes (infinite lateness), so the lowest
                // segment interpolates lateness between `Rp::MIN` and the
                // banded `u_max` instead of collapsing onto a flat floor.
                w.push(0.0);
                v.push(Rp::MIN.value());
                continue;
            }
            let target = Rp::new(u).min(cap);
            w.push(curve.at(target).as_mhz());
            v.push(target.value());
        }
        Self { u_max: cap, w, v }
    }

    /// Number of grid rows sampled.
    pub fn rows(&self) -> usize {
        self.w.len()
    }
}

/// The sampled hypothetical relative performance function over a set of
/// jobs at a fixed instant: the `W` and `V` matrices of §4.2 and the
/// interpolation queries over them.
#[derive(Debug, Clone)]
pub struct HypotheticalRpf {
    now: SimTime,
    apps: Vec<AppId>,
    u_max: Vec<Rp>,
    /// `w[i][m]`: speed job `m` needs to achieve `grid[i]` (MHz).
    w: Vec<Vec<f64>>,
    /// `v[i][m]`: the (capped) performance at that row.
    v: Vec<Vec<f64>>,
    /// `Σ_m w[i][m]` per row — non-decreasing in `i`.
    row_sums: Vec<f64>,
}

impl HypotheticalRpf {
    /// Builds the sampled function for `jobs` as seen at `now`, using the
    /// [`default_grid`].
    ///
    /// Completed jobs must be excluded by the caller.
    pub fn new(now: SimTime, jobs: &[JobSnapshot]) -> Self {
        Self::with_grid(now, jobs, &default_grid())
    }

    /// Builds the sampled function with a custom grid of target
    /// performance values.
    ///
    /// # Panics
    ///
    /// Panics if the grid has fewer than two points or is not strictly
    /// increasing, or if any job is already completed.
    pub fn with_grid(now: SimTime, jobs: &[JobSnapshot], grid: &[f64]) -> Self {
        assert!(grid.len() >= 2, "grid needs at least two sampling points");
        assert!(
            grid.windows(2).all(|w| w[0] < w[1]),
            "grid must be strictly increasing"
        );
        let columns: Vec<(AppId, Arc<JobColumn>)> = jobs
            .iter()
            .map(|j| (j.app(), Arc::new(JobColumn::build(now, j, grid))))
            .collect();
        Self::from_columns(now, &columns, grid.len())
    }

    /// Assembles the sampled function from per-job columns (each built by
    /// [`JobColumn::build`] against the same `now` and a grid of `rows`
    /// points). Values and summation order are identical to
    /// [`HypotheticalRpf::with_grid`] on the corresponding jobs, so a mix
    /// of freshly built and memoized columns reproduces the from-scratch
    /// result bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if any column was sampled on a different number of rows.
    pub fn from_columns(now: SimTime, columns: &[(AppId, Arc<JobColumn>)], rows: usize) -> Self {
        let apps: Vec<AppId> = columns.iter().map(|(app, _)| *app).collect();
        let u_max: Vec<Rp> = columns.iter().map(|(_, c)| c.u_max).collect();
        for (_, c) in columns {
            assert_eq!(c.rows(), rows, "columns must share the sampling grid");
        }
        let mut w = Vec::with_capacity(rows);
        let mut v = Vec::with_capacity(rows);
        let mut row_sums = Vec::with_capacity(rows);
        for i in 0..rows {
            let mut w_row = Vec::with_capacity(columns.len());
            let mut v_row = Vec::with_capacity(columns.len());
            let mut sum = 0.0;
            for (_, col) in columns {
                let demand = col.w[i];
                sum += demand;
                w_row.push(demand);
                v_row.push(col.v[i]);
            }
            w.push(w_row);
            v.push(v_row);
            row_sums.push(sum);
        }
        Self {
            now,
            apps,
            u_max,
            w,
            v,
            row_sums,
        }
    }

    /// The instant the function was sampled at.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of jobs covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether no jobs are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// The jobs covered, in column order.
    #[inline]
    pub fn apps(&self) -> &[AppId] {
        &self.apps
    }

    /// Per-job maximum achievable performance.
    #[inline]
    pub fn u_max_values(&self) -> &[Rp] {
        &self.u_max
    }

    /// The aggregate speed all jobs together need so that every job
    /// achieves performance `min(u, u_max_m)` — the continuous analogue
    /// of a `W` row sum, used by the load distributor's water-filling.
    pub fn aggregate_demand_at(&self, u: Rp, jobs: &[JobSnapshot]) -> CpuSpeed {
        jobs.iter().map(|j| j.demand_for(self.now, u)).sum()
    }

    /// Predicts each job's relative performance when the batch workload
    /// as a whole receives `omega_g` (eq. 6 plus the interpolation of
    /// \[24\]): find rows with `Σ W[k] ≤ ω_g ≤ Σ W[k+1]` and interpolate
    /// each column between `V[k][m]` and `V[k+1][m]`.
    ///
    /// Below the bottom row every job sits at the sampling floor; at or
    /// above the top row every job achieves its `u_max`.
    pub fn performances(&self, omega_g: CpuSpeed) -> Vec<(AppId, Rp)> {
        let (k, theta) = self.bracket(omega_g);
        self.apps
            .iter()
            .enumerate()
            .map(|(m, &app)| {
                let u = self.v[k][m] + theta * (self.v[k + 1][m] - self.v[k][m]);
                (app, Rp::new(u))
            })
            .collect()
    }

    /// The hypothetical per-job CPU shares corresponding to `omega_g`
    /// (the `ω̂_m` interpolation between `W[k][m]` and `W[k+1][m]`).
    pub fn allocations(&self, omega_g: CpuSpeed) -> Vec<(AppId, CpuSpeed)> {
        let (k, theta) = self.bracket(omega_g);
        self.apps
            .iter()
            .enumerate()
            .map(|(m, &app)| {
                let w = self.w[k][m] + theta * (self.w[k + 1][m] - self.w[k][m]);
                (app, CpuSpeed::from_mhz(w))
            })
            .collect()
    }

    /// Mean predicted performance at aggregate allocation `omega_g` (the
    /// quantity plotted in the paper's Fig. 2 and Fig. 6).
    pub fn mean_performance(&self, omega_g: CpuSpeed) -> Option<Rp> {
        if self.apps.is_empty() {
            return None;
        }
        let ps = self.performances(omega_g);
        let sum: f64 = ps.iter().map(|(_, u)| u.value()).sum();
        Some(Rp::new(sum / ps.len() as f64))
    }

    /// The paper's *lowest relative performance first* policy: job ids
    /// ordered by predicted performance ascending (most at-risk first),
    /// ties broken by id for determinism. This is the order in which the
    /// placement algorithm considers jobs for (re)placement.
    pub fn priority_order(&self, omega_g: CpuSpeed) -> Vec<AppId> {
        let mut scored = self.performances(omega_g);
        scored.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        scored.into_iter().map(|(app, _)| app).collect()
    }

    /// Locates the bracketing rows for `omega_g`: returns `(k, θ)` with
    /// `θ ∈ [0, 1]` such that the interpolated row is `k + θ`.
    fn bracket(&self, omega_g: CpuSpeed) -> (usize, f64) {
        bracket_rows(&self.row_sums, omega_g)
    }
}

/// Locates the rows bracketing `omega_g` in non-decreasing per-row
/// demand sums and the interpolation weight between them (eq. 6).
fn bracket_rows(row_sums: &[f64], omega_g: CpuSpeed) -> (usize, f64) {
    let target = omega_g.as_mhz();
    let n = row_sums.len();
    debug_assert!(n >= 2);
    if target <= row_sums[0] {
        return (0, 0.0);
    }
    if target >= row_sums[n - 1] {
        return (n - 2, 1.0);
    }
    // First row with sum > target; its predecessor is the lower edge.
    let hi = row_sums.partition_point(|&s| s <= target);
    let k = hi - 1;
    let lo_sum = row_sums[k];
    let hi_sum = row_sums[hi];
    let theta = if hi_sum - lo_sum <= f64::EPSILON {
        0.0
    } else {
        (target - lo_sum) / (hi_sum - lo_sum)
    };
    (k, theta)
}

/// [`HypotheticalRpf::performances`] computed directly from per-job
/// columns, without materializing the `W`/`V` matrices. Row sums are
/// accumulated in the same job order and the same interpolation is
/// applied, so the result is bit-identical to building
/// [`HypotheticalRpf::from_columns`] and querying it — this is the
/// allocation-free path the memoizing scorer uses per candidate.
pub fn performances_from_columns(
    columns: &[(AppId, Arc<JobColumn>)],
    rows: usize,
    omega_g: CpuSpeed,
) -> Vec<(AppId, Rp)> {
    let mut row_sums = Vec::with_capacity(rows);
    for i in 0..rows {
        let mut sum = 0.0;
        for (_, col) in columns {
            debug_assert_eq!(col.rows(), rows, "columns must share the sampling grid");
            sum += col.w[i];
        }
        row_sums.push(sum);
    }
    let (k, theta) = bracket_rows(&row_sums, omega_g);
    columns
        .iter()
        .map(|(app, col)| {
            let u = col.v[k] + theta * (col.v[k + 1] - col.v[k]);
            (*app, Rp::new(u))
        })
        .collect()
}

/// Result of evaluating one candidate placement one control cycle ahead.
#[derive(Debug, Clone)]
pub struct BatchEvaluation {
    /// Predicted relative performance of every job, worst unsorted:
    /// hypothetical values for surviving jobs, actual values for jobs
    /// that complete within the cycle.
    pub performances: Vec<(AppId, Rp)>,
    /// Jobs predicted to complete within the cycle, with completion
    /// times.
    pub completions: Vec<(AppId, SimTime)>,
}

/// Evaluates a candidate placement's effect on the batch workload (§4.2,
/// "Evaluating placement decisions").
///
/// `jobs` pairs every live job's snapshot at `now` with the CPU speed the
/// candidate gives it over the next cycle (zero when unplaced). Progress
/// is advanced by `ω_m · T`; jobs that finish within the cycle contribute
/// their *actual* relative performance, and the remaining jobs are scored
/// by the hypothetical function at `now + T` with aggregate allocation
/// `ω_g = Σ_m ω_m`, assuming the batch workload keeps the same total
/// allocation in subsequent cycles.
pub fn evaluate_batch_placement(
    now: SimTime,
    cycle: SimDuration,
    jobs: &[(JobSnapshot, CpuSpeed)],
) -> BatchEvaluation {
    evaluate_batch_placement_with_grid(now, cycle, jobs, &default_grid())
}

/// [`evaluate_batch_placement`] with a custom sampling grid — exposed for
/// studying the sensitivity of placement quality to the grid resolution
/// (the paper only says `R` "is a small constant").
pub fn evaluate_batch_placement_with_grid(
    now: SimTime,
    cycle: SimDuration,
    jobs: &[(JobSnapshot, CpuSpeed)],
    grid: &[f64],
) -> BatchEvaluation {
    let horizon = now + cycle;
    evaluate_batch_placement_with_columns(now, cycle, jobs, grid, |survivor, _| {
        Arc::new(JobColumn::build(horizon, survivor, grid))
    })
}

/// [`evaluate_batch_placement_with_grid`] with caller-supplied survivor
/// columns: `column_for(survivor, omega)` returns the survivor's
/// [`JobColumn`] as sampled at `now + cycle` on `grid` — typically from a
/// memo keyed by `(survivor.app(), omega)`, since within one placement
/// problem the advanced snapshot is a pure function of the job and its
/// candidate allocation. Supplying exactly what [`JobColumn::build`]
/// would return yields a bit-identical [`BatchEvaluation`].
pub fn evaluate_batch_placement_with_columns<F>(
    now: SimTime,
    cycle: SimDuration,
    jobs: &[(JobSnapshot, CpuSpeed)],
    grid: &[f64],
    mut column_for: F,
) -> BatchEvaluation
where
    F: FnMut(&JobSnapshot, CpuSpeed) -> Arc<JobColumn>,
{
    let mut performances = Vec::with_capacity(jobs.len());
    let mut completions = Vec::new();
    let mut survivors: Vec<(AppId, Arc<JobColumn>)> = Vec::with_capacity(jobs.len());
    let omega_g: CpuSpeed = jobs.iter().map(|(_, w)| *w).sum();

    for (snapshot, omega) in jobs {
        let remaining = snapshot.remaining_work();
        if snapshot.is_done() {
            // Already done (e.g. the caller races a completion event):
            // completes "now" with the corresponding performance.
            performances.push((snapshot.app(), snapshot.goal().performance_at(now)));
            completions.push((snapshot.app(), now));
            continue;
        }
        let progress = *omega * cycle;
        if progress.as_mcycles() >= remaining.as_mcycles() - 1e-6 && omega.as_mhz() > 0.0 {
            // Completes within the cycle: actual performance is known.
            let finish = now + remaining / *omega;
            performances.push((snapshot.app(), snapshot.goal().performance_at(finish)));
            completions.push((snapshot.app(), finish));
        } else {
            // Still live at the cycle boundary; can be (re)placed there.
            let survivor = snapshot.advanced(progress, SimDuration::ZERO);
            survivors.push((survivor.app(), column_for(&survivor, *omega)));
        }
    }

    if !survivors.is_empty() {
        performances.extend(performances_from_columns(&survivors, grid.len(), omega_g));
    }

    BatchEvaluation {
        performances,
        completions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaplace_model::units::Memory;

    fn mhz(x: f64) -> CpuSpeed {
        CpuSpeed::from_mhz(x)
    }
    fn t(x: f64) -> SimTime {
        SimTime::from_secs(x)
    }
    fn secs(x: f64) -> SimDuration {
        SimDuration::from_secs(x)
    }

    /// Builds the §4.3 example jobs. `j2_factor` is 4 in scenario S1 and
    /// 3 in scenario S2.
    fn example_jobs(j2_factor: f64) -> (JobSnapshot, JobSnapshot, JobSnapshot) {
        let j1 = JobSnapshot::new(
            AppId::new(0),
            CompletionGoal::new(t(0.0), t(20.0)),
            Arc::new(JobProfile::single_stage(
                Work::from_mcycles(4_000.0),
                mhz(1_000.0),
                Memory::from_mb(750.0),
            )),
            Work::ZERO,
            SimDuration::ZERO,
        );
        let j2 = JobSnapshot::new(
            AppId::new(1),
            CompletionGoal::new(t(1.0), t(1.0 + j2_factor * 4.0)),
            Arc::new(JobProfile::single_stage(
                Work::from_mcycles(2_000.0),
                mhz(500.0),
                Memory::from_mb(750.0),
            )),
            Work::ZERO,
            SimDuration::ZERO,
        );
        let j3 = JobSnapshot::new(
            AppId::new(2),
            CompletionGoal::new(t(2.0), t(10.0)),
            Arc::new(JobProfile::single_stage(
                Work::from_mcycles(4_000.0),
                mhz(500.0),
                Memory::from_mb(750.0),
            )),
            Work::ZERO,
            SimDuration::ZERO,
        );
        (j1, j2, j3)
    }

    #[test]
    fn u_max_reflects_earliest_completion() {
        let (j1, _, _) = example_jobs(4.0);
        // Started at t=0 at full speed: completes at 4; u = (20-4)/20 = 0.8.
        assert!(j1.u_max(t(0.0)).approx_eq(Rp::new(0.8), 1e-9));
        // Seen from t=1 with no progress: completes at 5; u = 0.75.
        assert!(j1.u_max(t(1.0)).approx_eq(Rp::new(0.75), 1e-9));
    }

    #[test]
    fn u_max_accounts_for_start_delay() {
        let (_, j2, _) = example_jobs(4.0);
        // Unplaced at t=1 with a 1 s cycle: earliest completion t=6,
        // u_max = (17-6)/16 = 0.6875 (the paper's "≈0.65" in S1).
        let delayed = j2.advanced(Work::ZERO, secs(1.0));
        assert!(delayed.u_max(t(1.0)).approx_eq(Rp::new(0.6875), 1e-9));
        // Scenario S2 (goal 13): (13-6)/12 = 0.5833 (paper's "≈0.6").
        let (_, j2s2, _) = example_jobs(3.0);
        let delayed = j2s2.advanced(Work::ZERO, secs(1.0));
        assert!(delayed.u_max(t(1.0)).approx_eq(Rp::new(0.5833333), 1e-6));
    }

    #[test]
    fn demand_matches_equation_three() {
        let (j1, _, _) = example_jobs(4.0);
        // To achieve u=0.5, complete at t(u) = 20 - 0.5*20 = 10; from t=0
        // that is 4000 Mcycles / 10 s = 400 MHz.
        assert!(j1
            .demand_for(t(0.0), Rp::new(0.5))
            .approx_eq(mhz(400.0), 1e-9));
        // Demand is capped at u_max: asking for 0.99 yields the speed for
        // u_max=0.8, i.e. 4000/4 = 1000 MHz.
        assert!(j1
            .demand_for(t(0.0), Rp::new(0.99))
            .approx_eq(mhz(1_000.0), 1e-9));
    }

    #[test]
    fn demand_is_monotone_in_u() {
        let (j1, _, _) = example_jobs(4.0);
        let mut prev = CpuSpeed::ZERO;
        for u in [-5.0, -1.0, -0.5, 0.0, 0.3, 0.6, 0.8, 1.0] {
            let d = j1.demand_for(t(0.0), Rp::new(u));
            assert!(d >= prev, "demand decreased at u={u}");
            prev = d;
        }
    }

    #[test]
    fn paper_cycle2_scenario1_placements_tie() {
        // §4.3, S1, cycle 2 (now t=1, T=1 s): J1 has run 1 cycle at
        // 1000 MHz. P1 = both at 500 MHz, P2 = J1 alone at 1000 MHz.
        // The paper reports both yield u ≈ 0.7 for J1 and J2.
        let (j1, j2, _) = example_jobs(4.0);
        let j1 = j1.advanced(Work::from_mcycles(1_000.0), SimDuration::ZERO);

        let p1 = evaluate_batch_placement(
            t(1.0),
            secs(1.0),
            &[(j1.clone(), mhz(500.0)), (j2.clone(), mhz(500.0))],
        );
        for &(_, u) in &p1.performances {
            assert!(
                u.approx_eq(Rp::new(0.7), 0.03),
                "P1 performance {u} should be ≈0.7"
            );
        }

        let p2 = evaluate_batch_placement(
            t(1.0),
            secs(1.0),
            &[(j1, mhz(1_000.0)), (j2, CpuSpeed::ZERO)],
        );
        for &(_, u) in &p2.performances {
            assert!(
                u.approx_eq(Rp::new(0.7), 0.03),
                "P2 performance {u} should be ≈0.7"
            );
        }
    }

    #[test]
    fn paper_cycle2_scenario2_prefers_sharing() {
        // §4.3, S2: J2's goal tightens to 13. P1 (share) yields
        // (0.65, 0.65); P2 (J1 alone) yields (≈0.6, 0.7). The max-min
        // objective must prefer P1.
        let (j1, j2, _) = example_jobs(3.0);
        let j1 = j1.advanced(Work::from_mcycles(1_000.0), SimDuration::ZERO);

        let p1 = evaluate_batch_placement(
            t(1.0),
            secs(1.0),
            &[(j1.clone(), mhz(500.0)), (j2.clone(), mhz(500.0))],
        );
        let p2 = evaluate_batch_placement(
            t(1.0),
            secs(1.0),
            &[(j1, mhz(1_000.0)), (j2, CpuSpeed::ZERO)],
        );

        let min_u = |e: &BatchEvaluation| e.performances.iter().map(|&(_, u)| u).min().unwrap();
        let p1_min = min_u(&p1);
        let p2_min = min_u(&p2);
        assert!(
            p1_min.approx_eq(Rp::new(0.65), 0.03),
            "P1 min {p1_min} should be ≈0.65"
        );
        assert!(
            p2_min.approx_eq(Rp::new(0.6), 0.04),
            "P2 min {p2_min} should be ≈0.6"
        );
        assert!(p1_min > p2_min, "sharing must win in S2");
    }

    #[test]
    fn completion_within_cycle_reports_actual_performance() {
        let (j1, _, _) = example_jobs(4.0);
        // 3000 already done; 1000 left at 1000 MHz finishes in 1 s.
        let j1 = j1.advanced(Work::from_mcycles(3_000.0), SimDuration::ZERO);
        let eval = evaluate_batch_placement(t(3.0), secs(2.0), &[(j1, mhz(1_000.0))]);
        assert_eq!(eval.completions.len(), 1);
        let (_, finish) = eval.completions[0];
        assert_eq!(finish, t(4.0));
        let (_, u) = eval.performances[0];
        assert!(u.approx_eq(Rp::new(0.8), 1e-9)); // (20-4)/20
    }

    #[test]
    fn rows_and_interpolation_are_monotone() {
        let (j1, j2, j3) = example_jobs(4.0);
        let jobs = vec![j1, j2, j3];
        let hypo = HypotheticalRpf::new(t(2.0), &jobs);
        // Feeding more aggregate CPU never lowers anyone's prediction.
        let mut prev: Option<Vec<Rp>> = None;
        for omega in [0.0, 200.0, 500.0, 1_000.0, 1_500.0, 2_000.0, 5_000.0] {
            let us: Vec<Rp> = hypo
                .performances(mhz(omega))
                .into_iter()
                .map(|(_, u)| u)
                .collect();
            if let Some(p) = prev {
                for (a, b) in p.iter().zip(&us) {
                    assert!(b >= a, "performance dropped when ω_g grew");
                }
            }
            prev = Some(us);
        }
    }

    #[test]
    fn saturated_allocation_yields_u_max() {
        let (j1, j2, _) = example_jobs(4.0);
        let jobs = vec![j1.clone(), j2.clone()];
        let hypo = HypotheticalRpf::new(t(0.0), &jobs);
        let ps = hypo.performances(mhz(1e9));
        for ((_, u), expect) in ps.iter().zip([j1.u_max(t(0.0)), j2.u_max(t(0.0))]) {
            assert!(u.approx_eq(expect, 1e-6));
        }
    }

    #[test]
    fn zero_allocation_hits_floor_row() {
        // A healthy job's bottom row is the flat sampling floor, exactly
        // as before the sub-floor band existed.
        let (j1, _, _) = example_jobs(4.0);
        let hypo = HypotheticalRpf::new(t(0.0), std::slice::from_ref(&j1));
        let ps = hypo.performances(CpuSpeed::ZERO);
        assert_eq!(ps[0].1, Rp::FLOOR);
        // A hopeless job's bottom row is the band bottom instead: zero
        // allocation means infinite lateness.
        let hypo = HypotheticalRpf::new(t(300.0), &[j1]);
        let ps = hypo.performances(CpuSpeed::ZERO);
        assert_eq!(ps[0].1, Rp::MIN);
    }

    #[test]
    fn hopeless_bottom_row_interpolates_lateness() {
        // j1 viewed from t=300 is hopeless: earliest completion t=304,
        // raw u = (20−304)/20 = −14.2, well below the floor.
        let (j1, _, _) = example_jobs(4.0);
        let now = t(300.0);
        let cap = j1.u_max(now);
        assert!(cap.is_sub_floor() && cap > Rp::MIN);
        let hypo = HypotheticalRpf::new(now, &[j1]);
        // The lowest segment is no longer flat: partial allocations land
        // strictly between the band bottom and the banded u_max.
        let zero = hypo.performances(CpuSpeed::ZERO)[0].1;
        let half = hypo.performances(mhz(500.0))[0].1;
        let full = hypo.performances(mhz(1_000.0))[0].1;
        assert_eq!(zero, Rp::MIN);
        assert!(zero < half && half < full, "{zero} {half} {full}");
        assert!(half.is_sub_floor() && full.is_sub_floor());
        assert!(full.approx_eq(cap, 1e-9));
    }

    #[test]
    fn hopeless_jobs_order_by_lateness() {
        // Two hopeless jobs with different latenesses must get strictly
        // ordered utility, never a shared flat clamp.
        let (j1, _, j3) = example_jobs(4.0);
        let now = t(300.0);
        let (u1, u3) = (j1.u_max(now), j3.u_max(now));
        assert!(u1.is_sub_floor() && u3.is_sub_floor());
        // j3's goal is tighter, so it is strictly later.
        assert!(u1 > u3);
        let hypo = HypotheticalRpf::new(now, &[j1, j3]);
        let ps = hypo.performances(mhz(1e9));
        assert!(ps[0].1 > ps[1].1, "latenesses must stay ordered");
        assert!(ps[0].1.sub_floor_lateness().unwrap() < ps[1].1.sub_floor_lateness().unwrap());
    }

    #[test]
    fn allocations_sum_to_omega_between_rows() {
        let (j1, j2, j3) = example_jobs(4.0);
        let jobs = vec![j1, j2, j3];
        let hypo = HypotheticalRpf::new(t(2.0), &jobs);
        for omega in [300.0, 700.0, 1_200.0] {
            let total: f64 = hypo
                .allocations(mhz(omega))
                .iter()
                .map(|(_, w)| w.as_mhz())
                .sum();
            // Interpolated shares reconstruct the aggregate (within the
            // bracketing rows' span).
            assert!(
                (total - omega).abs() < 1e-6,
                "shares {total} != omega {omega}"
            );
        }
    }

    #[test]
    fn mean_performance_empty_is_none() {
        let hypo = HypotheticalRpf::new(t(0.0), &[]);
        assert!(hypo.mean_performance(mhz(100.0)).is_none());
        assert!(hypo.is_empty());
    }
}
