//! Scenario builders for the paper's evaluation (§4.3 and §5).
//!
//! Every scenario returns a fully configured [`Simulation`]; the bench
//! harness and the examples only choose which scenario and which
//! scheduler to run.

use dynaplace_batch::job::{JobProfile, JobSpec};
use dynaplace_model::cluster::Cluster;
use dynaplace_model::ids::NodeId;
use dynaplace_model::node::NodeSpec;
use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime};
use dynaplace_rpf::goal::{CompletionGoal, ResponseTimeGoal};
use dynaplace_txn::workload::ConstantRate;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engine::{SimConfig, Simulation};

/// The §4.3 example's two scenarios, differing in J2's goal factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExampleScenario {
    /// J2 has relative goal factor 4 (deadline t = 17).
    S1,
    /// J2 has relative goal factor 3 (deadline t = 13).
    S2,
}

/// Builds the §4.3 worked example (Table 1): one node with a 1,000 MHz
/// CPU and 2,000 MB of memory; jobs J1 (4,000 Mc @ ≤1,000 MHz, goal 20),
/// J2 (2,000 Mc @ ≤500 MHz, goal 17 or 13), J3 (4,000 Mc @ ≤500 MHz,
/// goal 10), arriving at t = 0, 1, 2; control cycle T = 1 s; VM costs
/// disabled for clarity, matching the paper's idealized arithmetic.
pub fn paper_example(scenario: ExampleScenario, config: SimConfig) -> Simulation {
    let mut cluster = Cluster::new();
    cluster.add_node(
        NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(2_000.0))
            .expect("valid node capacities")
            .with_name("node"),
    );
    let mut sim = Simulation::new(cluster, config);
    let mem = Memory::from_mb(750.0);
    let j2_deadline = match scenario {
        ExampleScenario::S1 => 17.0,
        ExampleScenario::S2 => 13.0,
    };
    // J1: factor 5 over a 4 s best run.
    sim.add_job(|app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                dynaplace_model::units::Work::from_mcycles(4_000.0),
                CpuSpeed::from_mhz(1_000.0),
                mem,
            ),
            SimTime::ZERO,
            CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(20.0)),
        )
    });
    sim.add_job(|app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                dynaplace_model::units::Work::from_mcycles(2_000.0),
                CpuSpeed::from_mhz(500.0),
                mem,
            ),
            SimTime::from_secs(1.0),
            CompletionGoal::new(SimTime::from_secs(1.0), SimTime::from_secs(j2_deadline)),
        )
    });
    sim.add_job(|app| {
        JobSpec::new(
            app,
            JobProfile::single_stage(
                dynaplace_model::units::Work::from_mcycles(4_000.0),
                CpuSpeed::from_mhz(500.0),
                mem,
            ),
            SimTime::from_secs(2.0),
            CompletionGoal::new(SimTime::from_secs(2.0), SimTime::from_secs(10.0)),
        )
    });
    sim
}

/// The Experiment One cluster: 25 nodes, each with four 3.9 GHz
/// processors (15,600 MHz) and 16 GB (16,384 MB).
pub fn experiment_one_cluster() -> Cluster {
    Cluster::homogeneous(
        25,
        NodeSpec::try_new(CpuSpeed::from_mhz(4.0 * 3_900.0), Memory::from_mb(16_384.0))
            .expect("valid node capacities"),
    )
}

/// The Experiment One job (Table 2): 68,640,000 Mcycles at ≤3,900 MHz
/// (17,600 s best), 4,320 MB, relative goal factor 2.7 (47,520 s).
pub fn experiment_one_job(app: dynaplace_model::ids::AppId, arrival: SimTime) -> JobSpec {
    JobSpec::with_goal_factor(
        app,
        JobProfile::single_stage(
            dynaplace_model::units::Work::from_mcycles(68_640_000.0),
            CpuSpeed::from_mhz(3_900.0),
            Memory::from_mb(4_320.0),
        ),
        arrival,
        2.7,
    )
}

/// Draws exponential inter-arrival times with the given mean.
fn exponential_arrivals(
    rng: &mut StdRng,
    count: usize,
    mean_secs: f64,
    start: SimTime,
) -> Vec<SimTime> {
    let mut t = start;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen::<f64>().max(1e-12);
            t += SimDuration::from_secs(-mean_secs * u.ln());
            t
        })
        .collect()
}

/// Builds Experiment One (§5.1): `count` identical jobs (Table 2)
/// submitted with exponential inter-arrival times (mean
/// `inter_arrival_secs`, the paper uses 260 s and 800 jobs) to the
/// 25-node cluster, scheduled per `config` (the paper uses APC with a
/// 600 s control cycle).
pub fn experiment_one(
    seed: u64,
    count: usize,
    inter_arrival_secs: f64,
    config: SimConfig,
) -> Simulation {
    let mut sim = Simulation::new(experiment_one_cluster(), config);
    let mut rng = StdRng::seed_from_u64(seed);
    for arrival in exponential_arrivals(&mut rng, count, inter_arrival_secs, SimTime::ZERO) {
        sim.add_job(|app| experiment_one_job(app, arrival));
    }
    sim
}

/// One of Experiment Two's three job shapes (§5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobShape {
    /// Best-case execution time in seconds.
    pub min_exec_secs: f64,
    /// Maximum execution speed in MHz.
    pub max_speed_mhz: f64,
    /// Selection probability.
    pub probability: f64,
}

/// The §5.2 job mix: (9,000 s @ 3,900 MHz, 10%), (17,600 s @ 1,560 MHz,
/// 40%), (600 s @ 2,340 MHz, 50%).
pub const EXPERIMENT_TWO_SHAPES: [JobShape; 3] = [
    JobShape {
        min_exec_secs: 9_000.0,
        max_speed_mhz: 3_900.0,
        probability: 0.10,
    },
    JobShape {
        min_exec_secs: 17_600.0,
        max_speed_mhz: 1_560.0,
        probability: 0.40,
    },
    JobShape {
        min_exec_secs: 600.0,
        max_speed_mhz: 2_340.0,
        probability: 0.50,
    },
];

/// The §5.2 goal factors: 1.3 (10%), 2.5 (30%), 4.0 (60%).
pub const EXPERIMENT_TWO_FACTORS: [(f64, f64); 3] = [(1.3, 0.10), (2.5, 0.30), (4.0, 0.60)];

fn pick<'a, T>(rng: &mut StdRng, options: impl IntoIterator<Item = (&'a T, f64)>) -> &'a T {
    let options: Vec<(&T, f64)> = options.into_iter().collect();
    let total: f64 = options.iter().map(|(_, p)| p).sum();
    let mut x: f64 = rng.gen::<f64>() * total;
    for (item, p) in &options {
        x -= p;
        if x <= 0.0 {
            return item;
        }
    }
    options.last().expect("non-empty options").0
}

/// Builds Experiment Two (§5.2): `count` jobs with randomly mixed shapes
/// and goal factors, exponential inter-arrival times with mean
/// `inter_arrival_secs` (the paper sweeps 400 → 50 s), on the 25-node
/// cluster. All jobs use the Experiment One memory footprint (4,320 MB).
pub fn experiment_two(
    seed: u64,
    count: usize,
    inter_arrival_secs: f64,
    config: SimConfig,
) -> Simulation {
    let mut sim = Simulation::new(experiment_one_cluster(), config);
    let mut rng = StdRng::seed_from_u64(seed);
    let arrivals = exponential_arrivals(&mut rng, count, inter_arrival_secs, SimTime::ZERO);
    for arrival in arrivals {
        let shape = *pick(
            &mut rng,
            EXPERIMENT_TWO_SHAPES.iter().map(|s| (s, s.probability)),
        );
        let factor = *pick(
            &mut rng,
            EXPERIMENT_TWO_FACTORS.iter().map(|(f, p)| (f, *p)),
        );
        let work = shape.min_exec_secs * shape.max_speed_mhz;
        sim.add_job(move |app| {
            JobSpec::with_goal_factor(
                app,
                JobProfile::single_stage(
                    dynaplace_model::units::Work::from_mcycles(work),
                    CpuSpeed::from_mhz(shape.max_speed_mhz),
                    Memory::from_mb(4_320.0),
                ),
                arrival,
                factor,
            )
        });
    }
    sim
}

/// The three system configurations of Experiment Three (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingConfig {
    /// APC with dynamic resource sharing across all 25 nodes.
    Dynamic,
    /// Static partition: 9 nodes for the transactional workload (enough
    /// to fully satisfy it), 16 for batch under FCFS.
    StaticTx9,
    /// Static partition: 6 nodes transactional, 19 batch under FCFS.
    StaticTx6,
}

/// Parameters of Experiment Three's constant transactional workload,
/// calibrated to the paper's anchor points (see DESIGN.md §2):
///
/// - maximum achievable relative performance ≈ 0.66, reached at a
///   saturation allocation of ≈ 130,000 MHz (< 9 nodes), and
/// - on a 6-node partition (93,600 MHz) the workload still functions but
///   sits well below the maximum (u ≈ 0.45, "consistently lower" per
///   §5.3).
///
/// That pins λ·d = 34,700 MHz and d/t_floor = 95,300 MHz, with the goal
/// τ = t_floor / 0.34.
pub fn experiment_three_txn() -> (f64, f64, SimDuration, ResponseTimeGoal) {
    let rate = 200.0; // req/s
    let demand = 173.5; // Mcycles/request → λ·d = 34,700 MHz
    let floor = SimDuration::from_secs(demand / 95_300.0);
    let goal = ResponseTimeGoal::new(SimDuration::from_secs(floor.as_secs() / 0.34));
    (rate, demand, floor, goal)
}

/// Builds Experiment Three (§5.3): the Experiment One batch workload
/// plus one constant transactional application whose single instance per
/// node is small enough (1,024 MB) to collocate with three jobs.
///
/// `jobs` and `inter_arrival_secs` control the batch load (the paper
/// uses the Experiment One workload with queuing); `tail_inter_arrival`
/// applies to the last quarter of jobs (the paper slows submissions at
/// the end so the queue drains).
pub fn experiment_three(
    seed: u64,
    jobs: usize,
    inter_arrival_secs: f64,
    tail_inter_arrival: f64,
    sharing: SharingConfig,
    mut config: SimConfig,
) -> Simulation {
    let cluster = experiment_one_cluster();
    let all_nodes: Vec<NodeId> = cluster.node_ids().collect();
    let (txn_nodes, batch_nodes): (Vec<NodeId>, Vec<NodeId>) = match sharing {
        SharingConfig::Dynamic => (all_nodes.clone(), all_nodes.clone()),
        SharingConfig::StaticTx9 => (all_nodes[..9].to_vec(), all_nodes[9..].to_vec()),
        SharingConfig::StaticTx6 => (all_nodes[..6].to_vec(), all_nodes[6..].to_vec()),
    };
    if sharing != SharingConfig::Dynamic {
        config.batch_nodes = Some(batch_nodes.clone());
        config.static_txn_nodes = Some(txn_nodes.clone());
    }

    let mut sim = Simulation::new(cluster, config);
    let (rate, demand, floor, goal) = experiment_three_txn();
    sim.add_txn(
        Memory::from_mb(1_024.0),
        25,
        demand,
        floor,
        goal,
        Box::new(ConstantRate(rate)),
        match sharing {
            SharingConfig::Dynamic => None,
            _ => Some(txn_nodes),
        },
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let head = jobs - jobs / 4;
    let mut arrivals = exponential_arrivals(&mut rng, head, inter_arrival_secs, SimTime::ZERO);
    let last = arrivals.last().copied().unwrap_or(SimTime::ZERO);
    arrivals.extend(exponential_arrivals(
        &mut rng,
        jobs - head,
        tail_inter_arrival,
        last,
    ));
    for arrival in arrivals {
        let pinned = match sharing {
            SharingConfig::Dynamic => None,
            _ => Some(batch_nodes.clone()),
        };
        sim.add_job_pinned(|app| experiment_one_job(app, arrival), pinned);
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::VmCostModel;
    use crate::engine::MetricsRetention;
    use dynaplace_apc::optimizer::ApcConfig;
    use dynaplace_apc::PolicyHandle;

    fn tiny_apc_config() -> SimConfig {
        SimConfig {
            cycle: SimDuration::from_secs(1.0),
            horizon: Some(SimDuration::from_secs(100.0)),
            costs: VmCostModel::free(),
            scheduler: PolicyHandle::apc_with(ApcConfig::paper_narrative(), false),
            batch_nodes: None,
            static_txn_nodes: None,
            noise: crate::engine::EstimationNoise::NONE,
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

    #[test]
    fn example_scenarios_complete_all_jobs() {
        for scenario in [ExampleScenario::S1, ExampleScenario::S2] {
            let sim = paper_example(scenario, tiny_apc_config());
            let metrics = sim.run();
            assert_eq!(metrics.completions.len(), 3, "{scenario:?}");
        }
    }

    #[test]
    fn experiment_builders_are_deterministic() {
        let a = experiment_one(7, 10, 260.0, tiny_apc_config());
        let b = experiment_one(7, 10, 260.0, tiny_apc_config());
        // Same seed → same arrival schedule → same completions.
        let ma = a.run();
        let mb = b.run();
        assert_eq!(ma.completions.len(), mb.completions.len());
        for (x, y) in ma.completions.iter().zip(&mb.completions) {
            assert_eq!(x.app, y.app);
            assert_eq!(x.completion, y.completion);
        }
    }

    #[test]
    fn experiment_two_mixes_shapes() {
        let sim = experiment_two(3, 40, 50.0, tiny_apc_config());
        // Jobs registered: 40.
        assert_eq!(sim.cluster().len(), 25);
    }

    #[test]
    fn pick_respects_support() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let shape = pick(
                &mut rng,
                EXPERIMENT_TWO_SHAPES.iter().map(|s| (s, s.probability)),
            );
            assert!(EXPERIMENT_TWO_SHAPES.iter().any(|s| s == shape));
        }
    }
}
