//! Differential harness: the fast scoring paths are *proven equivalent*
//! to the seed behavior, not assumed.
//!
//! Two claims, each checked bit-for-bit on randomized problems:
//!
//! 1. `score_placement_cached` == `score_placement` (the from-scratch
//!    oracle), including on repeated queries through a warm cache;
//! 2. `place`/`fill_only` under [`ScoringMode::Incremental`] ==
//!    [`ScoringMode::FromScratch`] — same placement, same actions, same
//!    load distribution, same satisfaction vector, same search stats.
//!
//! "Bit-for-bit" is literal: every `f64` (allocations, relative
//! performances) is compared through `to_bits`, so even a last-ulp
//! divergence fails the suite.
//!
//! The vendored deterministic proptest derives its seed from the test
//! name, so failures reproduce without a `proptest-regressions` file
//! (none is ever written); `PROPTEST_CASES` scales the case count.

#![deny(deprecated)]

use dynaplace_apc::optimizer::{fill_only, place, ApcConfig, PlacementOutcome, ScoringMode};
use dynaplace_apc::{score_placement, score_placement_cached, ScoreCache};
use dynaplace_model::ids::NodeId;
use dynaplace_model::placement::Placement;
use dynaplace_testutil::fixtures::{arb_problem, ProblemFixture, ProblemParams};
use dynaplace_testutil::PlacementInvariants;
use proptest::prelude::*;

fn config(scoring: ScoringMode) -> ApcConfig {
    ApcConfig::builder()
        .scoring(scoring)
        .build()
        .expect("valid differential config")
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

/// A deterministic bag of extra candidate placements around the
/// incumbent, to exercise the cache on more than what `place` visits.
fn perturbations(fixture: &ProblemFixture) -> Vec<Placement> {
    let mut out = vec![fixture.current.clone(), Placement::new()];
    let nodes: Vec<NodeId> = fixture.cluster.node_ids().collect();
    for (i, &app) in fixture
        .workloads
        .keys()
        .collect::<Vec<_>>()
        .iter()
        .enumerate()
    {
        let mut p = fixture.current.clone();
        let node = nodes[i % nodes.len()];
        let _ = p.checked_place(*app, node, &fixture.cluster, &fixture.apps);
        out.push(p);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Claim 2 (and the headline acceptance criterion): on ≥256
    /// randomized problems, incremental scoring reproduces the
    /// from-scratch oracle exactly, for both entry points, and the
    /// result satisfies the shared placement invariants.
    #[test]
    fn incremental_place_matches_from_scratch_oracle(params in arb_problem()) {
        let fixture = ProblemFixture::build(&params);
        let problem = fixture.problem();
        let oracle = place(&problem, &config(ScoringMode::FromScratch));
        let incremental = place(&problem, &config(ScoringMode::Incremental));
        assert_outcomes_identical(&oracle, &incremental, "place");
        PlacementInvariants::assert_outcome(&problem, &incremental);

        let oracle_fill = fill_only(&problem, &config(ScoringMode::FromScratch));
        let incremental_fill = fill_only(&problem, &config(ScoringMode::Incremental));
        assert_outcomes_identical(&oracle_fill, &incremental_fill, "fill_only");
        PlacementInvariants::assert_outcome(&problem, &incremental_fill);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Claim 1: direct differential test of the scoring entry points on
    /// a bag of candidate placements, through a cold and then warm cache.
    #[test]
    fn cached_scoring_matches_oracle_cold_and_warm(params in arb_problem()) {
        let fixture = ProblemFixture::build(&params);
        let problem = fixture.problem();
        let cache = ScoreCache::new();
        let candidates = perturbations(&fixture);
        for round in 0..2 {
            for (i, candidate) in candidates.iter().enumerate() {
                let oracle = score_placement(&problem, candidate);
                let cached = score_placement_cached(&problem, candidate, &cache);
                match (&oracle, &cached) {
                    (None, None) => {}
                    (Some(a), Some(b)) => assert_scores_identical(
                        a,
                        b,
                        &format!("candidate {i}, round {round}"),
                    ),
                    _ => panic!(
                        "candidate {i}, round {round}: feasibility disagrees \
                         (oracle {:?}, cached {:?})",
                        oracle.is_some(),
                        cached.is_some()
                    ),
                }
            }
        }
        // The second round must have been answered from the memo.
        let stats = cache.stats();
        prop_assert!(
            stats.score_hits >= candidates.len() as u64,
            "warm round should hit the whole-placement memo: {stats:?}"
        );
    }

    /// Determinism: repeated runs of the same configuration are
    /// bit-identical (the sim and the tests may rely on this).
    #[test]
    fn place_is_deterministic_across_repeats(params in arb_problem()) {
        let fixture = ProblemFixture::build(&params);
        let problem = fixture.problem();
        for cfg in [
            config(ScoringMode::FromScratch),
            config(ScoringMode::Incremental),
        ] {
            let first = place(&problem, &cfg);
            let second = place(&problem, &cfg);
            assert_outcomes_identical(&first, &second, &format!("{:?}", cfg.scoring));
        }
    }
}

/// The memo layers must actually engage on a realistic multi-sweep
/// search — a differential suite over caches that never hit would be
/// vacuous.
#[test]
fn cache_layers_hit_on_a_busy_problem() {
    let params = ProblemParams {
        nodes: vec![(2_000.0, 6_000.0), (1_500.0, 4_000.0), (3_000.0, 8_000.0)],
        jobs: (0..6)
            .map(|i| dynaplace_testutil::fixtures::JobParams {
                work: 40_000.0 + 10_000.0 * i as f64,
                max_speed: 800.0 + 100.0 * i as f64,
                memory: 900.0,
                goal_factor: 1.5 + 0.3 * i as f64,
                progress: 0.1 * i as f64,
                placed_on: if i % 2 == 0 { Some(i as u32) } else { None },
            })
            .collect(),
        txn: None,
    };
    let fixture = ProblemFixture::build(&params);
    let problem = fixture.problem();
    let cache = ScoreCache::new();
    // Drive the cached scorer the way the optimizer does, twice.
    for _ in 0..2 {
        for candidate in perturbations(&fixture) {
            let _ = score_placement_cached(&problem, &candidate, &cache);
        }
    }
    let stats = cache.stats();
    assert!(
        stats.score_hits > 0,
        "whole-placement memo never hit: {stats:?}"
    );
    assert!(
        stats.demand_hits > 0,
        "raw-demand memo never hit: {stats:?}"
    );
    assert!(
        stats.column_hits > 0,
        "job-column memo never hit: {stats:?}"
    );
}
