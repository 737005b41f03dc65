//! Behavioural tests of the discrete-event engine across schedulers.

#![deny(deprecated)]

use dynaplace_apc::optimizer::ApcConfig;
use dynaplace_apc::PolicyHandle;
use dynaplace_batch::job::{JobProfile, JobSpec};
use dynaplace_model::cluster::Cluster;
use dynaplace_model::node::NodeSpec;
use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime, Work};
use dynaplace_rpf::goal::CompletionGoal;
use dynaplace_sim::costs::VmCostModel;
use dynaplace_sim::engine::{MetricsRetention, SimConfig, Simulation};
use dynaplace_sim::scenario::{experiment_one, experiment_two, paper_example, ExampleScenario};

fn mhz(x: f64) -> CpuSpeed {
    CpuSpeed::from_mhz(x)
}
fn mb(x: f64) -> Memory {
    Memory::from_mb(x)
}
fn t(x: f64) -> SimTime {
    SimTime::from_secs(x)
}
fn secs(x: f64) -> SimDuration {
    SimDuration::from_secs(x)
}

fn one_node_cluster() -> Cluster {
    let mut c = Cluster::new();
    c.add_node(NodeSpec::try_new(mhz(1_000.0), mb(2_000.0)).expect("valid node capacities"));
    c
}

fn config(kind: PolicyHandle) -> SimConfig {
    SimConfig {
        cycle: secs(1.0),
        horizon: Some(secs(500.0)),
        costs: VmCostModel::free(),
        scheduler: kind,
        batch_nodes: None,
        static_txn_nodes: None,
        noise: dynaplace_sim::engine::EstimationNoise::NONE,
        profile_from_history: false,
        node_failures: Vec::new(),
        estimate_txn_demand: false,
        record_placements: false,
        actuation: Default::default(),
        observation: Default::default(),
        trace: Default::default(),
        retention: MetricsRetention::Full,
    }
}

fn apc() -> PolicyHandle {
    PolicyHandle::apc_with(ApcConfig::default(), true)
}

fn fcfs() -> PolicyHandle {
    dynaplace_apc::resolve_policy("fcfs").expect("fcfs is builtin")
}

fn edf() -> PolicyHandle {
    dynaplace_apc::resolve_policy("edf").expect("edf is builtin")
}

fn simple_job(
    sim: &mut Simulation,
    work: f64,
    max_speed: f64,
    memory: f64,
    arrival: f64,
    deadline: f64,
) -> dynaplace_model::ids::AppId {
    sim.add_job(|app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(Work::from_mcycles(work), mhz(max_speed), mb(memory)),
            t(arrival),
            CompletionGoal::new(t(arrival), t(deadline)),
        )
    })
}

/// A single job completes exactly when its work divided by its speed
/// says it should (work conservation).
#[test]
fn single_job_completes_on_schedule() {
    for kind in [apc(), fcfs(), edf()] {
        let mut sim = Simulation::new(one_node_cluster(), config(kind));
        let app = simple_job(&mut sim, 4_000.0, 1_000.0, 750.0, 0.0, 100.0);
        let m = sim.run();
        assert_eq!(m.completions.len(), 1);
        let c = &m.completions[0];
        assert_eq!(c.app, app);
        // Placed at t=0 (first cycle / arrival), runs at 1,000 MHz → 4 s.
        assert!(
            (c.completion.as_secs() - 4.0).abs() < 0.01,
            "completed at {}",
            c.completion
        );
        assert!(c.met_deadline);
    }
}

/// Boot latency delays progress: with the paper's 3.6 s boot the same
/// job finishes 3.6 s later.
#[test]
fn boot_cost_delays_completion() {
    let mut cfg = config(apc());
    cfg.costs = VmCostModel::default();
    let mut sim = Simulation::new(one_node_cluster(), cfg);
    simple_job(&mut sim, 4_000.0, 1_000.0, 750.0, 0.0, 100.0);
    let m = sim.run();
    let c = &m.completions[0];
    assert!(
        (c.completion.as_secs() - 7.6).abs() < 0.01,
        "completed at {}",
        c.completion
    );
}

/// FCFS never suspends or migrates, ever.
#[test]
fn fcfs_makes_no_changes() {
    let mut sim = Simulation::new(one_node_cluster(), config(fcfs()));
    for i in 0..6 {
        simple_job(&mut sim, 2_000.0, 500.0, 750.0, i as f64 * 0.5, 500.0);
    }
    let m = sim.run();
    assert_eq!(m.completions.len(), 6);
    assert_eq!(m.changes.suspends, 0);
    assert_eq!(m.changes.migrations, 0);
    assert_eq!(m.changes.resumes, 0);
    assert_eq!(m.changes.starts, 6);
}

/// EDF preempts a late-deadline job when an urgent one arrives, then
/// resumes it.
#[test]
fn edf_preempts_and_resumes() {
    let mut sim = Simulation::new(one_node_cluster(), config(edf()));
    // Two long jobs with late deadlines fill the node (memory).
    simple_job(&mut sim, 50_000.0, 500.0, 750.0, 0.0, 400.0);
    simple_job(&mut sim, 50_000.0, 500.0, 750.0, 0.0, 400.0);
    // An urgent job arrives later.
    simple_job(&mut sim, 5_000.0, 500.0, 750.0, 10.0, 30.0);
    let m = sim.run();
    assert_eq!(m.completions.len(), 3);
    assert!(m.changes.suspends >= 1, "EDF must preempt");
    assert!(m.changes.resumes >= 1, "EDF must resume the victim");
    // The urgent job met its goal.
    let urgent = m
        .completions
        .iter()
        .find(|c| (c.deadline.as_secs() - 30.0).abs() < 1e-9)
        .unwrap();
    assert!(
        urgent.met_deadline,
        "urgent job finished at {}",
        urgent.completion
    );
}

/// Work is conserved: total allocated CPU-time ≥ total job work for all
/// completed jobs (equality when no idling happens mid-cycle).
#[test]
fn work_conservation() {
    let kinds = [apc(), fcfs(), edf()];
    for kind in kinds {
        let mut sim = Simulation::new(one_node_cluster(), config(kind));
        let total_work = 3.0 * 2_000.0;
        for i in 0..3 {
            simple_job(&mut sim, 2_000.0, 500.0, 750.0, i as f64, 400.0);
        }
        let m = sim.run();
        assert_eq!(m.completions.len(), 3);
        // Every job completed: completion times are consistent with each
        // job doing all its work.
        let makespan = m
            .completions
            .iter()
            .map(|c| c.completion.as_secs())
            .fold(0.0, f64::max);
        // 6,000 Mcycles through a 1,000 MHz node takes ≥ 6 s.
        assert!(makespan >= total_work / 1_000.0 - 1e-6);
    }
}

/// The same seed gives identical runs (determinism).
#[test]
fn runs_are_deterministic() {
    let run = |_: u32| {
        let sim = experiment_two(11, 30, 100.0, config(apc()));
        sim.run()
    };
    let a = run(0);
    let b = run(1);
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.app, y.app);
        assert_eq!(x.completion, y.completion);
        assert_eq!(x.rp, y.rp);
    }
    assert_eq!(a.changes, b.changes);
}

/// Suspended jobs make no progress while suspended.
#[test]
fn suspension_freezes_progress() {
    let mut sim = Simulation::new(one_node_cluster(), config(edf()));
    // Long job, preempted by a stream of urgent jobs.
    let victim = simple_job(&mut sim, 100_000.0, 1_000.0, 1_500.0, 0.0, 5_000.0);
    for i in 0..3 {
        simple_job(
            &mut sim,
            5_000.0,
            1_000.0,
            1_500.0,
            20.0 + 10.0 * i as f64,
            60.0 + 10.0 * i as f64,
        );
    }
    let m = sim.run();
    // All jobs complete eventually; the victim's completion reflects the
    // time lost while suspended (it cannot be earlier than work/speed +
    // the time the urgent jobs held the node).
    let v = m.completions.iter().find(|c| c.app == victim).unwrap();
    assert!(v.completion.as_secs() >= 100.0 + 15.0 - 1.0);
}

/// The §4.3 scenarios: S2 completes J2 strictly earlier than S1 does
/// (the tighter goal makes the controller start it earlier).
#[test]
fn example_s2_starts_j2_earlier_than_s1_under_narrative_config() {
    let narrative = || SimConfig {
        cycle: secs(1.0),
        horizon: Some(secs(100.0)),
        costs: VmCostModel::free(),
        scheduler: PolicyHandle::apc_with(ApcConfig::paper_narrative(), false),
        batch_nodes: None,
        static_txn_nodes: None,
        noise: dynaplace_sim::engine::EstimationNoise::NONE,
        profile_from_history: false,
        node_failures: Vec::new(),
        estimate_txn_demand: false,
        record_placements: false,
        actuation: Default::default(),
        observation: Default::default(),
        trace: Default::default(),
        retention: MetricsRetention::Full,
    };
    let s1 = paper_example(ExampleScenario::S1, narrative()).run();
    let s2 = paper_example(ExampleScenario::S2, narrative()).run();
    let j2_completion = |m: &dynaplace_sim::RunMetrics| {
        m.completions
            .iter()
            .find(|c| c.app.index() == 1)
            .map(|c| c.completion.as_secs())
            .unwrap()
    };
    assert!(
        j2_completion(&s2) < j2_completion(&s1),
        "S2 must start J2 earlier: {} vs {}",
        j2_completion(&s2),
        j2_completion(&s1)
    );
    // All jobs complete in both scenarios.
    assert_eq!(s1.completions.len(), 3);
    assert_eq!(s2.completions.len(), 3);
}

/// Experiment One (scaled down): no suspends or migrations, plateau at
/// u ≈ 0.63.
#[test]
fn experiment_one_scaled_properties() {
    let sim = experiment_one(
        5,
        40,
        260.0,
        SimConfig {
            horizon: None,
            ..SimConfig::apc_default()
        },
    );
    let m = sim.run();
    assert_eq!(m.completions.len(), 40);
    assert_eq!(m.changes.suspends, 0, "identical jobs: no suspends");
    assert_eq!(m.changes.migrations, 0, "identical jobs: no migrations");
    assert_eq!(m.deadline_met_ratio(), Some(1.0));
    // The plateau value 1 − 17,600/47,520 ≈ 0.6296 appears in samples.
    let plateau = m
        .samples
        .iter()
        .filter_map(|s| s.batch_hypothetical_rp)
        .map(|r| r.value())
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        (plateau - 0.6296).abs() < 0.01,
        "plateau should be ≈0.63, got {plateau}"
    );
}
