//! Differential and property suite for the cell-sharded placement path.
//!
//! The contract under test, from strongest to weakest claim:
//!
//! 1. **Single-cell equivalence** — sharding with `cell_size` at least
//!    the cluster size degenerates to the classic whole-cluster search,
//!    *bit-for-bit*: same placement, same actions, same stats, every
//!    `f64` compared through `to_bits`.
//! 2. **Determinism** — multi-cell sharded placement is bit-identical
//!    across repeated runs.
//! 3. **Safety** — sharded outcomes always satisfy the shared placement
//!    invariants and never occupy a forbidden (quarantined) pair, no
//!    matter how the cells fall.
//! 4. **Edge cases** — cells with no applications are harmless, and an
//!    application too large for any cell escalates to the global
//!    residual problem instead of livelocking the greedy pack.

#![deny(deprecated)]

use std::collections::BTreeSet;

use dynaplace_apc::optimizer::{fill_only, place, ApcConfig, PlacementOutcome, ScoringMode};
use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_apc::ShardingPolicy;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_testutil::fixtures::{arb_problem, arb_problem_sized, ProblemFixture};
use dynaplace_testutil::PlacementInvariants;
use proptest::prelude::*;

fn unsharded(scoring: ScoringMode) -> ApcConfig {
    ApcConfig::builder()
        .scoring(scoring)
        .build()
        .expect("valid unsharded config")
}

fn sharded(scoring: ScoringMode, cell_size: usize) -> ApcConfig {
    ApcConfig::builder()
        .scoring(scoring)
        .sharding(Some(ShardingPolicy::new(cell_size)))
        .build()
        .expect("valid sharded config")
}

/// Bit-exact equality of two scores (load distribution + satisfaction).
fn assert_scores_identical(
    a: &dynaplace_apc::PlacementScore,
    b: &dynaplace_apc::PlacementScore,
    what: &str,
) {
    let cells = |s: &dynaplace_apc::PlacementScore| -> Vec<(u32, u32, u64)> {
        s.load
            .iter()
            .map(|(app, node, speed)| {
                (
                    app.index() as u32,
                    node.index() as u32,
                    speed.as_mhz().to_bits(),
                )
            })
            .collect()
    };
    assert_eq!(cells(a), cells(b), "{what}: load distributions differ");
    let sat = |s: &dynaplace_apc::PlacementScore| -> Vec<(u32, u64)> {
        s.satisfaction
            .entries()
            .iter()
            .map(|&(app, u)| (app.index() as u32, u.value().to_bits()))
            .collect()
    };
    assert_eq!(sat(a), sat(b), "{what}: satisfaction vectors differ");
}

/// Bit-exact equality of two optimizer outcomes.
fn assert_outcomes_identical(a: &PlacementOutcome, b: &PlacementOutcome, what: &str) {
    assert_eq!(a.placement, b.placement, "{what}: placements differ");
    assert_eq!(a.actions, b.actions, "{what}: action lists differ");
    assert_eq!(a.stats, b.stats, "{what}: search stats differ");
    assert_scores_identical(&a.score, &b.score, what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Claim 1 (the acceptance criterion): a cell at least as large as
    /// the cluster means one cell, no escalation, no rebalancing — and
    /// the sharded entry points must reproduce the classic search
    /// exactly, for both `place` and `fill_only`, in both scoring modes.
    #[test]
    fn single_cell_sharding_matches_unsharded(params in arb_problem()) {
        let fixture = ProblemFixture::build(&params);
        let problem = fixture.problem();
        for scoring in [ScoringMode::FromScratch, ScoringMode::Incremental] {
            let classic = place(&problem, &unsharded(scoring));
            // Both "cell exactly covers the cluster" and "cell larger
            // than the cluster" must hit the degenerate path.
            for cell_size in [params.nodes.len(), 1_024] {
                let cfg = sharded(scoring, cell_size);
                let shard = place(&problem, &cfg);
                assert_outcomes_identical(
                    &classic,
                    &shard,
                    &format!("place, {scoring:?}, cell_size {cell_size}"),
                );
                let classic_fill = fill_only(&problem, &unsharded(scoring));
                let shard_fill = fill_only(&problem, &cfg);
                assert_outcomes_identical(
                    &classic_fill,
                    &shard_fill,
                    &format!("fill_only, {scoring:?}, cell_size {cell_size}"),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Claim 2: on genuinely multi-cell problems, the sharded result is
    /// bit-identical across repeats.
    #[test]
    fn sharded_place_is_deterministic(
        params in arb_problem_sized(5..9, 4..10),
    ) {
        let fixture = ProblemFixture::build(&params);
        let problem = fixture.problem();
        let baseline = place(&problem, &sharded(ScoringMode::Incremental, 2));
        let repeat = place(&problem, &sharded(ScoringMode::Incremental, 2));
        assert_outcomes_identical(&baseline, &repeat, "repeat");
    }

    /// Claim 3: whatever the cells decide, the merged placement obeys
    /// the shared invariants (capacity, registration, load routability).
    #[test]
    fn sharded_placement_upholds_invariants(
        params in arb_problem_sized(4..9, 3..10),
        cell_size in 1usize..4,
    ) {
        let fixture = ProblemFixture::build(&params);
        let problem = fixture.problem();
        let outcome = place(&problem, &sharded(ScoringMode::Incremental, cell_size));
        PlacementInvariants::assert_outcome(&problem, &outcome);
        let filled = fill_only(&problem, &sharded(ScoringMode::Incremental, cell_size));
        PlacementInvariants::assert_outcome(&problem, &filled);
    }

    /// Claim 3, quarantine half: pairs forbidden at problem-build time
    /// (the actuator's quarantine list) stay empty in the sharded
    /// placement — across cell solves, escalation, and rebalancing.
    #[test]
    fn sharded_placement_honors_forbidden_pairs(
        params in arb_problem_sized(4..9, 3..10),
        cell_size in 1usize..4,
    ) {
        let fixture = ProblemFixture::build(&params);
        // Forbid each app on one node it does not currently occupy.
        let nodes = params.nodes.len() as u32;
        let forbidden: BTreeSet<(AppId, NodeId)> = fixture
            .workloads
            .keys()
            .map(|&app| (app, NodeId::new(app.index() as u32 % nodes)))
            .filter(|&(app, node)| fixture.current.count(app, node) == 0)
            .collect();
        let problem = PlacementProblem::new(
            &fixture.cluster,
            &fixture.apps,
            fixture.workloads.clone(),
            &fixture.current,
            fixture.now,
            fixture.cycle,
            forbidden.clone(),
        )
        .expect("fixture problems are well-formed");
        let outcome = place(&problem, &sharded(ScoringMode::Incremental, cell_size));
        PlacementInvariants::assert_outcome(&problem, &outcome);
        for &(app, node) in &forbidden {
            prop_assert_eq!(
                outcome.placement.count(app, node),
                0,
                "forbidden pair ({:?}, {:?}) occupied",
                app,
                node
            );
        }
    }
}

/// Cells with no applications assigned must be inert: the solve
/// completes, the invariants hold, and every job still lands somewhere.
#[test]
fn empty_cells_are_harmless() {
    use dynaplace_testutil::fixtures::{JobParams, ProblemParams};
    // Eight nodes, two jobs pinned to node 0: with cell_size 2 the
    // greedy pack fills the first cells and the rest stay empty.
    let params = ProblemParams {
        nodes: vec![(2_000.0, 4_000.0); 8],
        jobs: (0..2)
            .map(|i| JobParams {
                work: 50_000.0,
                max_speed: 1_000.0,
                memory: 1_000.0,
                goal_factor: 2.0,
                progress: 0.0,
                placed_on: Some(i),
            })
            .collect(),
        txn: None,
    };
    let fixture = ProblemFixture::build(&params);
    let problem = fixture.problem();
    let outcome = place(&problem, &sharded(ScoringMode::Incremental, 2));
    PlacementInvariants::assert_outcome(&problem, &outcome);
    for app in fixture.workloads.keys() {
        assert!(
            outcome.placement.is_placed(*app),
            "{app:?} unplaced despite ample capacity"
        );
    }
}

/// An application whose demand exceeds any single cell escalates to the
/// global residual problem — and the solve terminates with the app
/// spread across cells, rather than thrashing the greedy pack.
#[test]
fn oversized_app_escalates_instead_of_livelocking() {
    use dynaplace_model::prelude::*;
    use dynaplace_rpf::goal::ResponseTimeGoal;
    use dynaplace_txn::model::{TxnPerformanceModel, TxnWorkload};

    let cluster = Cluster::homogeneous(
        4,
        NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(4_000.0))
            .expect("valid node capacities"),
    );
    let mut apps = AppSet::new();
    // Up to 4 instances, and enough demand to need roughly 3 nodes of
    // CPU: far larger than any 1-node cell.
    let web = apps.add(ApplicationSpec::transactional(
        Memory::from_mb(1_000.0),
        CpuSpeed::from_mhz(f64::INFINITY),
        4,
    ));
    let mut workloads = std::collections::BTreeMap::new();
    workloads.insert(
        web,
        WorkloadModel::Transactional(TxnPerformanceModel::new(
            TxnWorkload::new(300.0, 10.0, SimDuration::from_secs(0.004)),
            ResponseTimeGoal::new(SimDuration::from_secs(0.05)),
        )),
    );
    let current = Placement::new();
    let problem = PlacementProblem::new(
        &cluster,
        &apps,
        workloads,
        &current,
        SimTime::ZERO,
        SimDuration::from_secs(60.0),
        BTreeSet::new(),
    )
    .expect("well-formed problem");
    let outcome = place(&problem, &sharded(ScoringMode::Incremental, 1));
    PlacementInvariants::assert_outcome(&problem, &outcome);
    assert!(
        outcome.placement.total_instances(web) >= 2,
        "oversized app should span cells via escalation, got {:?}",
        outcome.placement
    );
}
