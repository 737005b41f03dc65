//! Differential suite for the N-dimensional resource generalization.
//!
//! The refactor contract: CPU water-filling and memory accounting are
//! untouched, and extra rigid dimensions only ever *remove* candidate
//! placements. Concretely:
//!
//! 1. **Slack-dimension bit-identity** — declaring extra rigid
//!    dimensions with ample capacity (so none of them binds) leaves
//!    `place`/`fill_only` bit-for-bit identical to the memory-only
//!    problem: same placement, same actions, same stats, every `f64`
//!    compared through `to_bits`. This holds classic and sharded, cached
//!    (incremental) and oracle (from-scratch) — which also proves that
//!    memory-only problems execute the exact pre-refactor decision
//!    procedure, since a memory-only registry is the degenerate case of
//!    the same per-dimension loops.
//! 2. **Cached == oracle under extra dimensions** — `ScoreCache` keys
//!    and memo layers stay sound when rigid vectors are longer than 1.
//! 3. **Binding-dimension sanity** — a dimension that memory would not
//!    enforce (license slots) visibly changes the decision, and the
//!    outcome still satisfies the shared per-dimension invariants.
//!
//! The vendored deterministic proptest derives its seed from the test
//! name, so failures reproduce without a regressions file.

#![deny(deprecated)]

use std::sync::Arc;

use dynaplace_apc::optimizer::{fill_only, place, ApcConfig, PlacementOutcome, ScoringMode};
use dynaplace_apc::{score_placement, score_placement_cached, ScoreCache, ShardingPolicy};
use dynaplace_batch::hypothetical::JobSnapshot;
use dynaplace_batch::job::JobProfile;
use dynaplace_model::prelude::*;
use dynaplace_model::resources::{ResourceDims, Resources};
use dynaplace_rpf::goal::CompletionGoal;
use dynaplace_testutil::fixtures::{arb_problem, ProblemFixture, ProblemParams};
use dynaplace_testutil::PlacementInvariants;
use proptest::prelude::*;

/// The extra rigid dimensions every slack world declares.
const SLACK_DIMS: [&str; 3] = ["disk_mb", "net_mbps", "license_slots"];

/// Ample per-node capacity: no slack dimension can ever bind.
const SLACK_CAPACITY: f64 = 1e12;

fn config(scoring: ScoringMode) -> ApcConfig {
    ApcConfig::builder()
        .scoring(scoring)
        .build()
        .expect("valid differential config")
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

/// Rebuilds the memory-only fixture's world with the three slack
/// dimensions declared: every node gets ample capacity in each, every
/// app a small (index-varied, sometimes zero) demand. App ids, workload
/// models, and the incumbent placement are reproduced exactly, so any
/// decision difference is attributable to the extra dimensions alone.
fn with_slack_dims(params: &ProblemParams, base: &ProblemFixture) -> ProblemFixture {
    let mut cluster = Cluster::new();
    cluster.set_dims(
        ResourceDims::with_extra(SLACK_DIMS.iter().map(|s| s.to_string()))
            .expect("distinct slack dimension names"),
    );
    for &(cpu, mem) in &params.nodes {
        let mut rigid = vec![mem];
        rigid.extend(SLACK_DIMS.iter().map(|_| SLACK_CAPACITY));
        cluster.add_node(
            NodeSpec::try_with_resources(CpuSpeed::from_mhz(cpu), Resources::new(rigid))
                .expect("valid slack node capacities"),
        );
    }
    let mut apps = AppSet::new();
    for (i, jp) in params.jobs.iter().enumerate() {
        // Index-varied small demands; every third app demands nothing,
        // exercising the zero-extension path alongside explicit extras.
        let spec =
            ApplicationSpec::batch(Memory::from_mb(jp.memory), CpuSpeed::from_mhz(jp.max_speed));
        let spec = if i % 3 == 0 {
            spec
        } else {
            spec.with_extra_rigid_demand([i as f64, 0.5 * i as f64, 1.0])
        };
        apps.add(spec);
    }
    if let Some(tp) = &params.txn {
        apps.add(
            ApplicationSpec::transactional(
                Memory::from_mb(tp.memory),
                CpuSpeed::from_mhz(f64::INFINITY),
                params.nodes.len() as u32,
            )
            .with_extra_rigid_demand([2.0, 3.0, 1.0]),
        );
    }
    let mut current = Placement::new();
    for (app, node, count) in base.current.iter() {
        for _ in 0..count {
            current.place(app, node);
        }
    }
    ProblemFixture {
        cluster,
        apps,
        workloads: base.workloads.clone(),
        current,
        now: base.now,
        cycle: base.cycle,
    }
}

/// A deterministic bag of extra candidate placements around the
/// incumbent, mirroring the cache differential suite.
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Claim 1: non-binding extra dimensions are decision-invisible,
    /// bit-for-bit, across every entry point and scoring mode.
    #[test]
    fn slack_dimensions_leave_decisions_bit_identical(params in arb_problem()) {
        let base = ProblemFixture::build(&params);
        let slack = with_slack_dims(&params, &base);
        let memory_only = base.problem();
        let multi = slack.problem();
        for scoring in [ScoringMode::FromScratch, ScoringMode::Incremental] {
            let a = place(&memory_only, &config(scoring));
            let b = place(&multi, &config(scoring));
            assert_outcomes_identical(&a, &b, &format!("place, {scoring:?}"));
            PlacementInvariants::assert_outcome(&multi, &b);

            let fa = fill_only(&memory_only, &config(scoring));
            let fb = fill_only(&multi, &config(scoring));
            assert_outcomes_identical(&fa, &fb, &format!("fill_only, {scoring:?}"));
            PlacementInvariants::assert_outcome(&multi, &fb);
        }
        // Sharded single-cell and multi-cell paths agree too.
        for cell_size in [1, params.nodes.len(), 1_024] {
            let cfg = sharded(ScoringMode::Incremental, cell_size);
            let a = place(&memory_only, &cfg);
            let b = place(&multi, &cfg);
            assert_outcomes_identical(&a, &b, &format!("sharded place, cell {cell_size}"));
            PlacementInvariants::assert_outcome(&multi, &b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Claim 2: the cache layers answer multi-dimensional problems
    /// exactly as the from-scratch oracle does, cold and warm.
    #[test]
    fn cached_scoring_matches_oracle_with_extra_dims(params in arb_problem()) {
        let base = ProblemFixture::build(&params);
        let slack = with_slack_dims(&params, &base);
        let problem = slack.problem();
        let cache = ScoreCache::new();
        let candidates = perturbations(&slack);
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
    }

    /// Determinism holds with extra dimensions in play.
    #[test]
    fn multi_dim_place_is_deterministic(params in arb_problem()) {
        let base = ProblemFixture::build(&params);
        let slack = with_slack_dims(&params, &base);
        let problem = slack.problem();
        for cfg in [
            config(ScoringMode::Incremental),
            sharded(ScoringMode::Incremental, 2),
        ] {
            let first = place(&problem, &cfg);
            let second = place(&problem, &cfg);
            assert_outcomes_identical(&first, &second, "repeat");
        }
    }
}

/// Claim 3: a `license_slots` dimension the nodes can only satisfy once
/// forces a split that memory alone would never have forced — and the
/// split outcome passes the per-dimension invariants.
#[test]
fn binding_license_dimension_forces_a_split() {
    let now = SimTime::from_secs(1_000.0);
    let cycle = SimDuration::from_secs(60.0);

    // Node 0 is far faster and has memory for both jobs; node 1 is slow.
    // Memory alone therefore co-locates both jobs on node 0.
    let build_world = |licensed: bool| -> ProblemFixture {
        let mut cluster = Cluster::new();
        if licensed {
            cluster.set_dims(
                ResourceDims::with_extra(["license_slots".to_string()])
                    .expect("one extra dimension"),
            );
        }
        let node = |cpu: f64, slots: f64| {
            let rigid = if licensed {
                Resources::new(vec![8_000.0, slots])
            } else {
                Resources::new(vec![8_000.0])
            };
            NodeSpec::try_with_resources(CpuSpeed::from_mhz(cpu), rigid)
                .expect("valid node capacities")
        };
        cluster.add_node(node(10_000.0, 1.0));
        cluster.add_node(node(2_000.0, 1.0));

        let mut apps = AppSet::new();
        let mut workloads = std::collections::BTreeMap::new();
        for _ in 0..2 {
            let mut spec =
                ApplicationSpec::batch(Memory::from_mb(1_000.0), CpuSpeed::from_mhz(1_500.0));
            if licensed {
                spec = spec.with_extra_rigid_demand([1.0]);
            }
            let app = apps.add(spec);
            let profile = Arc::new(JobProfile::single_stage(
                Work::from_mcycles(200_000.0),
                CpuSpeed::from_mhz(1_500.0),
                Memory::from_mb(1_000.0),
            ));
            let goal = CompletionGoal::from_goal_factor(now, profile.min_execution_time(), 1.5);
            workloads.insert(
                app,
                dynaplace_apc::problem::WorkloadModel::Batch(JobSnapshot::new(
                    app,
                    goal,
                    profile,
                    Work::ZERO,
                    cycle,
                )),
            );
        }
        ProblemFixture {
            cluster,
            apps,
            workloads,
            current: Placement::new(),
            now,
            cycle,
        }
    };

    let memory_only = build_world(false);
    let licensed = build_world(true);
    let fast = NodeId::new(0);

    let baseline = place(&memory_only.problem(), &config(ScoringMode::Incremental));
    let apps: Vec<AppId> = memory_only.workloads.keys().copied().collect();
    for &app in &apps {
        assert_eq!(
            baseline.placement.single_node_of(app),
            Some(fast),
            "memory alone should co-locate both jobs on the fast node"
        );
    }

    let problem = licensed.problem();
    let constrained = place(&problem, &config(ScoringMode::Incremental));
    PlacementInvariants::assert_outcome(&problem, &constrained);
    let hosts: Vec<Option<NodeId>> = apps
        .iter()
        .map(|&app| constrained.placement.single_node_of(app))
        .collect();
    assert!(
        hosts.iter().all(Option::is_some),
        "both jobs must still be placed: {hosts:?}"
    );
    assert_ne!(
        hosts[0], hosts[1],
        "one license slot per node must force the jobs apart"
    );
}
