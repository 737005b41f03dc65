//! The paper's §4.3 worked example, end to end through the simulator.
//!
//! Three jobs share a single 1 GHz / 2 GB node under a 1-second control
//! cycle. Two scenarios differ only in J2's completion-time goal (17 s
//! vs. 13 s); the tighter goal flips the controller's cycle-2 decision
//! from "keep J1 running alone" to "share the node with J2".
//!
//! Run with: `cargo run --release --example paper_example`

use dynaplace::prelude::*;
use dynaplace::sim::scenario::{paper_example, ExampleScenario};

fn main() {
    for scenario in [ExampleScenario::S1, ExampleScenario::S2] {
        let config = SimConfig {
            cycle: SimDuration::from_secs(1.0),
            horizon: Some(SimDuration::from_secs(60.0)),
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
            retention: dynaplace::sim::engine::MetricsRetention::Full,
        };
        let metrics = paper_example(scenario, config).run();
        println!("=== Scenario {scenario:?} ===");
        for c in &metrics.completions {
            println!(
                "  J{} completed at t={:>5.1}s (deadline {:>4.1}s, distance {:+.1}s, u={:+.3}, {})",
                c.app.index() + 1,
                c.completion.as_secs(),
                c.deadline.as_secs(),
                c.distance.as_secs(),
                c.rp.value(),
                if c.met_deadline { "met" } else { "MISSED" },
            );
        }
        println!(
            "  placement changes: {} suspends, {} resumes, {} migrations\n",
            metrics.changes.suspends, metrics.changes.resumes, metrics.changes.migrations
        );
    }
    println!("For the cycle-by-cycle trace matching the paper's Figure 1, run:");
    println!("  cargo run --release -p dynaplace-bench --bin fig1");
}
