//! Replay: work timed after a run on placement problems captured during
//! it (`place` and `fill_only` problems alike).
//!
//! Each captured problem is replayed through
//! [`dynaplace_apc::load::distribute`] (water-filling),
//! [`dynaplace_apc::evaluate::score_placement`] (one candidate scored
//! from scratch), and [`HypotheticalRpf::new`] / `performances` (the
//! hypothetical relative performance of the batch jobs), each on the
//! placement the optimizer chose for that problem.
//!
//! Where the engine makes no call of a pass on a live state, a
//! [`Replayer`] times that pass on the problems the other pass was
//! given: `fill_only` on the `place` problems of a workload without
//! between-cycle advice, `place` on the advice problems of a workload
//! whose cycles see an empty cluster.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use dynaplace_apc::optimizer::PlacementOutcome;
use dynaplace_apc::policy::PolicyHandle;
use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_batch::hypothetical::{HypotheticalRpf, JobSnapshot};
use dynaplace_model::cluster::{AppSet, Cluster};
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::placement::Placement;
use dynaplace_model::units::{CpuSpeed, SimDuration, SimTime};
use dynaplace_trace::NoopSink;

/// The optimizer entry point a problem was posed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// `place`, the control-cycle pass.
    Place,
    /// `fill_only`, between-cycle advice.
    Advice,
}

/// An owned copy of one optimizer problem and the placement chosen for
/// it.
#[derive(Debug)]
pub struct Captured {
    pass: Pass,
    cluster: Cluster,
    apps: AppSet,
    workloads: BTreeMap<AppId, WorkloadModel>,
    current: Placement,
    now: SimTime,
    cycle: SimDuration,
    forbidden: BTreeSet<(AppId, NodeId)>,
    chosen: Placement,
}

impl Captured {
    pub fn new(pass: Pass, problem: &PlacementProblem<'_>, outcome: &PlacementOutcome) -> Self {
        Captured {
            pass,
            cluster: problem.cluster.clone(),
            apps: problem.apps.clone(),
            workloads: problem.workloads.clone(),
            current: problem.current.clone(),
            now: problem.now,
            cycle: problem.cycle,
            forbidden: problem.forbidden.clone(),
            chosen: outcome.placement.clone(),
        }
    }

    pub fn problem(&self) -> PlacementProblem<'_> {
        PlacementProblem {
            cluster: &self.cluster,
            apps: &self.apps,
            workloads: self.workloads.clone(),
            current: &self.current,
            now: self.now,
            cycle: self.cycle,
            forbidden: self.forbidden.clone(),
        }
    }

    fn batch_jobs(&self) -> Vec<JobSnapshot> {
        self.workloads
            .values()
            .filter_map(WorkloadModel::as_batch)
            .cloned()
            .collect()
    }
}

/// Mean host microseconds per kernel call over the captured problems.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelTimes {
    pub problems: usize,
    pub distribute_us: f64,
    pub score_us: f64,
    pub hypothetical_build_us: f64,
    pub hypothetical_query_us: f64,
}

/// Repeats `f` until at least `MIN_SECS` have passed (and at least
/// `MIN_CALLS` calls), returning `(seconds, calls)`.
fn repeat(mut f: impl FnMut()) -> (f64, u64) {
    const MIN_SECS: f64 = 0.002;
    const MIN_CALLS: u64 = 3;
    let started = Instant::now();
    let mut calls = 0;
    loop {
        f();
        calls += 1;
        let secs = started.elapsed().as_secs_f64();
        if calls >= MIN_CALLS && secs >= MIN_SECS {
            return (secs, calls);
        }
    }
}

#[derive(Default)]
struct Acc {
    secs: f64,
    calls: u64,
}

impl Acc {
    fn add(&mut self, (secs, calls): (f64, u64)) {
        self.secs += secs;
        self.calls += calls;
    }

    fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            1e6 * self.secs / self.calls as f64
        }
    }
}

/// Times every kernel on every captured problem that has batch jobs.
pub fn replay(captured: &[Captured]) -> KernelTimes {
    let (mut distribute, mut score, mut build, mut query) = (
        Acc::default(),
        Acc::default(),
        Acc::default(),
        Acc::default(),
    );
    let mut problems = 0;
    for cap in captured {
        let jobs = cap.batch_jobs();
        if jobs.is_empty() {
            continue;
        }
        problems += 1;
        let problem = cap.problem();
        let chosen = &cap.chosen;
        distribute.add(repeat(|| {
            black_box(dynaplace_apc::load::distribute(
                black_box(&problem),
                black_box(chosen),
            ));
        }));
        score.add(repeat(|| {
            black_box(dynaplace_apc::evaluate::score_placement(
                black_box(&problem),
                black_box(chosen),
            ));
        }));
        // The batch share of the chosen placement's load is the total
        // the hypothetical function divides among the jobs.
        let load = dynaplace_apc::load::distribute(&problem, chosen)
            .expect("the placement `place` chose is feasible");
        let omega = jobs
            .iter()
            .map(|job| load.app_total(job.app()))
            .fold(CpuSpeed::ZERO, |a, b| a + b);
        build.add(repeat(|| {
            black_box(HypotheticalRpf::new(black_box(cap.now), black_box(&jobs)));
        }));
        let rpf = HypotheticalRpf::new(cap.now, &jobs);
        query.add(repeat(|| {
            black_box(rpf.performances(black_box(omega)));
        }));
    }
    KernelTimes {
        problems,
        distribute_us: distribute.us_per_call(),
        score_us: score.us_per_call(),
        hypothetical_build_us: build.us_per_call(),
        hypothetical_query_us: query.us_per_call(),
    }
}

/// Replays one optimizer pass on captured problems, one sweep over them
/// at a time. The benchmark sweeps between the simulation runs of a
/// measurement, so that each problem's median covers the host's state
/// over the whole run rather than one moment of it.
pub struct Replayer {
    policy: PolicyHandle,
    pass: Pass,
    problems: Vec<Captured>,
    /// Host seconds of each problem's calls.
    secs: Vec<Vec<f64>>,
}

impl Replayer {
    /// Replays `policy`'s entry point `pass` on problems that were posed
    /// to the other pass.
    pub fn new(policy: PolicyHandle, pass: Pass) -> Self {
        Replayer {
            policy,
            pass,
            problems: Vec::new(),
            secs: Vec::new(),
        }
    }

    pub fn pass(&self) -> Pass {
        self.pass
    }

    /// Keeps the problems of `captured` posed to the other pass.
    pub fn add(&mut self, captured: Vec<Captured>) {
        for cap in captured {
            if cap.pass != self.pass {
                self.problems.push(cap);
                self.secs.push(Vec::new());
            }
        }
    }

    fn call(&mut self, i: usize) {
        let problem = self.problems[i].problem();
        let started = Instant::now();
        black_box(match self.pass {
            Pass::Place => self.policy.place(black_box(&problem), &NoopSink),
            Pass::Advice => self.policy.fill_only(black_box(&problem), &NoopSink),
        });
        self.secs[i].push(started.elapsed().as_secs_f64());
    }

    /// Times one call on every problem.
    pub fn sweep(&mut self) {
        for i in 0..self.problems.len() {
            self.call(i);
        }
    }

    /// Times further calls until every problem has `calls` of them.
    pub fn top_up(&mut self, calls: usize) {
        for i in 0..self.problems.len() {
            while self.secs[i].len() < calls {
                self.call(i);
            }
        }
    }

    /// The median host seconds of each problem's calls.
    pub fn medians(&self) -> Vec<f64> {
        self.secs
            .iter()
            .map(|s| crate::measure::median(s))
            .collect()
    }
}
