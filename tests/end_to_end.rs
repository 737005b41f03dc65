//! Cross-crate integration tests: scaled-down versions of the paper's
//! experiments asserting the qualitative shapes the figures show.

#![deny(deprecated)]

use dynaplace::apc::optimizer::ApcConfig;
use dynaplace::apc::PolicyHandle;
use dynaplace::model::units::SimDuration;
use dynaplace::sim::costs::VmCostModel;
use dynaplace::sim::engine::{MetricsRetention, SimConfig};
use dynaplace::sim::scenario::{
    experiment_one, experiment_three, experiment_two, paper_example, ExampleScenario, SharingConfig,
};

/// Scaled Experiment One: the plateau sits at 1 − 17,600/47,520 ≈ 0.63,
/// every deadline is met, and no job is ever suspended or migrated.
#[test]
fn experiment_one_shape() {
    let metrics = experiment_one(42, 60, 260.0, SimConfig::apc_default()).run();
    assert_eq!(metrics.completions.len(), 60);
    assert_eq!(metrics.deadline_met_ratio(), Some(1.0));
    assert_eq!(metrics.changes.suspends, 0);
    assert_eq!(metrics.changes.migrations, 0);
    let plateau = metrics
        .samples
        .iter()
        .filter_map(|s| s.batch_hypothetical_rp)
        .map(|u| u.value())
        .fold(f64::NEG_INFINITY, f64::max);
    assert!((plateau - 0.6296).abs() < 0.01, "plateau {plateau}");
    // Actual completion performance is predicted by the hypothetical:
    // every completion's u is below the plateau and above the worst dip.
    let dip = metrics
        .samples
        .iter()
        .filter_map(|s| s.batch_hypothetical_rp)
        .map(|u| u.value())
        .fold(f64::INFINITY, f64::min);
    for c in &metrics.completions {
        assert!(c.rp.value() <= plateau + 0.02);
        assert!(
            c.rp.value() >= dip - 0.05,
            "completion {} vs dip {dip}",
            c.rp
        );
    }
}

/// Scaled Experiment Two at heavy load: FCFS collapses, EDF and APC stay
/// close, EDF churns the most, FCFS never changes placements.
#[test]
fn experiment_two_shape_heavy_load() {
    let fcfs = experiment_two(7, 150, 50.0, SimConfig::fcfs_default()).run();
    let edf = experiment_two(7, 150, 50.0, SimConfig::edf_default()).run();
    let apc = experiment_two(7, 150, 50.0, SimConfig::apc_default()).run();

    let met = |m: &dynaplace::sim::RunMetrics| m.deadline_met_ratio().unwrap_or(0.0);
    assert!(met(&fcfs) < met(&edf), "EDF must beat FCFS under load");
    assert!(met(&fcfs) < met(&apc), "APC must beat FCFS under load");
    assert!(
        (met(&edf) - met(&apc)).abs() < 0.3,
        "EDF and APC stay comparable: {} vs {}",
        met(&edf),
        met(&apc)
    );
    assert_eq!(fcfs.changes.disruptive_total(), 0);
    assert!(
        edf.changes.disruptive_total() > apc.changes.disruptive_total(),
        "EDF churns more than APC: {} vs {}",
        edf.changes.disruptive_total(),
        apc.changes.disruptive_total()
    );
}

/// Scaled Experiment Two at light load: everyone meets everything.
#[test]
fn experiment_two_shape_light_load() {
    for config in [
        SimConfig::fcfs_default(),
        SimConfig::edf_default(),
        SimConfig::apc_default(),
    ] {
        let metrics = experiment_two(7, 60, 400.0, config).run();
        assert!(
            metrics.deadline_met_ratio().unwrap_or(0.0) > 0.95,
            "underloaded systems meet essentially all deadlines"
        );
    }
}

/// Scaled Experiment Three: dynamic sharing equalizes the two workloads'
/// relative performance under contention, and the transactional
/// allocation is drawn down then restored.
#[test]
fn experiment_three_dynamic_equalizes() {
    let mut config = SimConfig::apc_default();
    config.horizon = Some(SimDuration::from_secs(45_000.0));
    let metrics = experiment_three(42, 40, 180.0, 900.0, SharingConfig::Dynamic, config).run();

    // At some loaded sample the gap between TX and LR performance closes.
    let min_gap = metrics
        .samples
        .iter()
        .filter_map(|s| match (s.txn_rp, s.batch_hypothetical_rp) {
            (Some(t), Some(b)) if s.running_jobs > 10 => Some((t.value() - b.value()).abs()),
            _ => None,
        })
        .fold(f64::INFINITY, f64::min);
    assert!(min_gap < 0.05, "equalization gap {min_gap}");

    // TX allocation peaks at its saturation (≈130,000 MHz) and dips
    // under pressure.
    let tx_max = metrics
        .samples
        .iter()
        .map(|s| s.txn_allocation.as_mhz())
        .fold(f64::NEG_INFINITY, f64::max);
    let tx_min_loaded = metrics
        .samples
        .iter()
        .filter(|s| s.running_jobs > 10)
        .map(|s| s.txn_allocation.as_mhz())
        .fold(f64::INFINITY, f64::min);
    assert!((tx_max - 130_000.0).abs() < 2_000.0, "tx_max {tx_max}");
    assert!(tx_min_loaded < tx_max - 1_000.0);
}

/// Scaled Experiment Three: the static 9-node partition pegs the
/// transactional workload at its maximum while jobs see less capacity.
#[test]
fn experiment_three_static_partitions() {
    let mut config = SimConfig::fcfs_default();
    config.horizon = Some(SimDuration::from_secs(45_000.0));
    let tx9 = experiment_three(
        42,
        40,
        180.0,
        900.0,
        SharingConfig::StaticTx9,
        config.clone(),
    )
    .run();
    for s in &tx9.samples {
        let u = s.txn_rp.expect("txn present").value();
        assert!((u - 0.66).abs() < 0.01, "TX9 pegged at 0.66, got {u}");
        assert!((s.txn_allocation.as_mhz() - 130_000.0).abs() < 1.0);
    }
    let tx6 = experiment_three(42, 40, 180.0, 900.0, SharingConfig::StaticTx6, config).run();
    for s in &tx6.samples {
        // 6 nodes = 93,600 MHz < saturation: worse response time, lower u.
        assert!((s.txn_allocation.as_mhz() - 93_600.0).abs() < 1.0);
        let u = s.txn_rp.expect("txn present").value();
        assert!(u < 0.66 - 0.01, "TX6 must sit below the maximum, got {u}");
    }
}

/// The §4.3 example under the paper-narrative configuration: all jobs
/// complete, and in S2 the tighter goal makes J2 finish earlier.
#[test]
fn paper_example_scenarios() {
    let config = || SimConfig {
        cycle: SimDuration::from_secs(1.0),
        horizon: Some(SimDuration::from_secs(100.0)),
        costs: VmCostModel::free(),
        scheduler: PolicyHandle::apc_with(ApcConfig::paper_narrative(), false),
        batch_nodes: None,
        static_txn_nodes: None,
        noise: dynaplace::sim::engine::EstimationNoise::NONE,
        profile_from_history: false,
        node_failures: Vec::new(),
        estimate_txn_demand: false,
        record_placements: false,
        actuation: Default::default(),
        observation: Default::default(),
        trace: Default::default(),
        retention: MetricsRetention::Full,
    };
    let s1 = paper_example(ExampleScenario::S1, config()).run();
    let s2 = paper_example(ExampleScenario::S2, config()).run();
    assert_eq!(s1.completions.len(), 3);
    assert_eq!(s2.completions.len(), 3);
    let j2 = |m: &dynaplace::sim::RunMetrics| {
        m.completions
            .iter()
            .find(|c| c.app.index() == 1)
            .unwrap()
            .completion
            .as_secs()
    };
    assert!(
        j2(&s2) < j2(&s1),
        "S2 starts J2 earlier: {} vs {}",
        j2(&s2),
        j2(&s1)
    );
}

/// Every controller outcome — across batch-only, mixed, and
/// memory-tight worlds, via both entry points — satisfies the shared
/// [`PlacementInvariants`] checker (the same one the differential and
/// failure-injection suites use).
#[test]
fn controller_outcomes_satisfy_shared_invariants() {
    use dynaplace::apc::optimizer::{fill_only, place};
    use dynaplace_testutil::fixtures::{JobParams, ProblemFixture, ProblemParams, TxnParams};
    use dynaplace_testutil::PlacementInvariants;

    let job = |work: f64, speed: f64, mem: f64, placed: Option<u32>| JobParams {
        work,
        max_speed: speed,
        memory: mem,
        goal_factor: 2.0,
        progress: 0.0,
        placed_on: placed,
    };
    let worlds = [
        // Batch-only, under-committed: everything should start.
        ProblemParams {
            nodes: vec![(2_000.0, 4_000.0), (2_000.0, 4_000.0)],
            jobs: vec![job(50_000.0, 800.0, 1_000.0, None); 3],
            txn: None,
        },
        // Mixed with a transactional tier competing for CPU.
        ProblemParams {
            nodes: vec![(3_000.0, 8_000.0), (1_500.0, 4_000.0), (1_500.0, 4_000.0)],
            jobs: vec![
                job(80_000.0, 1_200.0, 1_500.0, Some(0)),
                job(40_000.0, 600.0, 900.0, None),
                job(120_000.0, 1_000.0, 1_200.0, Some(1)),
            ],
            txn: Some(TxnParams {
                rate: 40.0,
                demand: 30.0,
                memory: 1_000.0,
            }),
        },
        // Memory-tight: not everything fits; whatever is placed must
        // still respect capacity.
        ProblemParams {
            nodes: vec![(2_000.0, 2_000.0)],
            jobs: vec![job(60_000.0, 700.0, 1_500.0, None); 4],
            txn: None,
        },
    ];
    for (i, params) in worlds.iter().enumerate() {
        let fixture = ProblemFixture::build(params);
        let problem = fixture.problem();
        let config = ApcConfig::default();
        let placed = place(&problem, &config);
        PlacementInvariants::assert_outcome(&problem, &placed);
        let filled = fill_only(&problem, &config);
        PlacementInvariants::assert_outcome(&problem, &filled);
        assert!(
            placed.placement.total_placed() > 0,
            "world {i}: controller placed nothing"
        );
    }
}

/// Determinism across the whole stack: same seed, same everything.
#[test]
fn full_stack_determinism() {
    let run = || {
        experiment_three(
            9,
            25,
            200.0,
            600.0,
            SharingConfig::Dynamic,
            SimConfig {
                horizon: Some(SimDuration::from_secs(30_000.0)),
                ..SimConfig::apc_default()
            },
        )
        .run()
    };
    let a = run();
    let b = run();
    assert_eq!(a.completions.len(), b.completions.len());
    for (x, y) in a.completions.iter().zip(&b.completions) {
        assert_eq!(x.app, y.app);
        assert_eq!(x.completion, y.completion);
    }
    assert_eq!(a.changes, b.changes);
    for (sa, sb) in a.samples.iter().zip(&b.samples) {
        assert_eq!(sa.txn_allocation, sb.txn_allocation);
        assert_eq!(sa.batch_allocation, sb.batch_allocation);
    }
}
