//! Scenario fuzzing: random valid `ScenarioSpec`s driven through full
//! simulations under three oracle families (DESIGN.md §14):
//!
//! - **Invariant**: whole-run properties re-derived from the spec alone
//!   (capacity, instance bounds, completion accounting, starvation,
//!   convergence) on the widest generator profile.
//! - **Differential**: run pairs whose contracts promise bit-equal
//!   metrics — sharded(cell ≥ cluster) vs. classic, cached vs. oracle
//!   scoring, traced vs. noop, JSON-round-tripped
//!   vs. original, zero-fault observation vs. no observation layer —
//!   compared field-by-field via `to_bits`.
//! - **Metamorphic**: transformations that must not change decisions
//!   (adding a slack rigid dimension) or outcomes (permuting app
//!   declaration order under a deterministic profile).
//!
//! Failures shrink structurally and persist a minimized ready-to-bless
//! JSON spec (see `tests/repro/README.md`). The per-property case
//! counts below total 80+ generated scenarios in the tier-1 fast path;
//! `PROPTEST_CASES=1024` turns the same file into the CI stress sweep.

#![deny(deprecated)]

use std::sync::Arc;

use dynaplace::apc::optimizer::ScoringMode;
use dynaplace::model::placement::Placement;
use dynaplace::sim::metrics::RunMetrics;
use dynaplace::sim::spec::{ObservationSpec, ScenarioSpec, ShardingSpec};
use dynaplace::trace::{JsonlSink, TraceEvent, TraceLevel, TraceSink};
use dynaplace_json::{FromJson, Json};
use dynaplace_testutil::gen::{self, GenProfile};
use dynaplace_testutil::oracle::{self, DiffOptions};
use proptest::prelude::*;
use proptest::TestRng;

/// Differential oracle body: run the spec twice (baseline and variant)
/// and demand bit-equality.
fn assert_equivalent(
    property: &str,
    spec: &ScenarioSpec,
    opts: DiffOptions,
    variant: impl Fn(&ScenarioSpec) -> RunMetrics + std::panic::RefUnwindSafe,
) -> TestCaseResult {
    gen::check_scenario(property, spec, |s| {
        let base = oracle::run_spec(s);
        let other = variant(s);
        match oracle::first_divergence(&base, &other, opts) {
            None => Ok(()),
            Some(msg) => Err(msg),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant family, widest profile: every generated spec passes
    /// `validate()` by construction, builds, runs to completion, and
    /// satisfies every whole-run invariant its contract implies.
    #[test]
    fn generated_scenarios_pass_whole_run_invariants(
        spec in gen::scenarios(GenProfile::full()),
    ) {
        prop_assert_eq!(spec.validate(), Ok(()), "generator emitted an invalid spec");
        gen::check_scenario("whole_run_invariants", &spec, |s| {
            oracle::check_run_message(s, &oracle::run_spec(s))
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sharded placement with one cell covering the whole cluster is
    /// bit-equal to classic placement.
    #[test]
    fn sharded_single_cell_equals_classic(spec in gen::scenarios(GenProfile::quick())) {
        let nodes = spec.node_count();
        assert_equivalent("sharded_vs_classic", &spec, DiffOptions::default(), |s| {
            let mut sharded = s.clone();
            sharded.sharding = Some(ShardingSpec::new(nodes));
            oracle::run_spec(&sharded)
        })?;
    }

    /// Incremental (cached) scoring is bit-equal to from-scratch
    /// (oracle) scoring over whole runs.
    #[test]
    fn cached_scoring_equals_oracle_scoring(spec in gen::scenarios(GenProfile::quick())) {
        assert_equivalent("cached_vs_oracle_scoring", &spec, DiffOptions::default(), |s| {
            oracle::run_spec_with(s, |sim| {
                let mut cfg = sim.apc_config().expect("quick profile is APC-only").clone();
                cfg.scoring = ScoringMode::FromScratch;
                sim.set_apc_config(cfg);
            })
        })?;
    }

    /// A verbose trace sink observes without perturbing: traced runs
    /// are bit-equal to untraced ones.
    #[test]
    fn traced_run_equals_noop(spec in gen::scenarios(GenProfile::quick())) {
        assert_equivalent("traced_vs_noop", &spec, DiffOptions::default(), |s| {
            oracle::run_spec_with(s, |sim| {
                let sink = Arc::new(JsonlSink::new(TraceLevel::Verbose));
                sim.set_trace_sink(sink as Arc<dyn TraceSink>);
            })
        })?;
    }

    /// Bit-equivalence contract of the sub-floor utility band: on runs
    /// where no recorded relative performance ever crosses the healthy
    /// floor, the band is provably inert — every engine variant
    /// (classic/sharded × cached/oracle scoring) produces bit-identical
    /// metrics, exactly as before the band existed. Runs that do cross
    /// the floor engage the band and are covered by the invariant
    /// family and the pinned starved-floor repro instead.
    #[test]
    fn no_subfloor_implies_bit_identical(spec in gen::scenarios(GenProfile::quick())) {
        gen::check_scenario("no_subfloor_bit_identical", &spec, |s| {
            let base = oracle::run_spec(s);
            if crosses_floor(&base) {
                return Ok(());
            }
            let nodes = s.node_count();
            let sharded_spec = {
                let mut v = s.clone();
                v.sharding = Some(ShardingSpec::new(nodes));
                v
            };
            let oracle_scoring = |sim: &mut dynaplace::sim::engine::Simulation| {
                let mut cfg = sim.apc_config().expect("quick profile is APC-only").clone();
                cfg.scoring = ScoringMode::FromScratch;
                sim.set_apc_config(cfg);
            };
            let variants: [(&str, RunMetrics); 3] = [
                ("sharded+cached", oracle::run_spec(&sharded_spec)),
                ("classic+oracle", oracle::run_spec_with(s, oracle_scoring)),
                (
                    "sharded+oracle",
                    oracle::run_spec_with(&sharded_spec, oracle_scoring),
                ),
            ];
            for (name, metrics) in &variants {
                if let Some(msg) =
                    oracle::first_divergence(&base, metrics, DiffOptions::default())
                {
                    return Err(format!("{name} diverged from classic+cached: {msg}"));
                }
            }
            Ok(())
        })?;
    }

    /// A spec that survives a JSON round trip (including non-ASCII and
    /// astral-plane names, the PR 5 surrogate-pair regression) runs
    /// bit-identically to the original.
    #[test]
    fn json_round_trip_preserves_runs(spec in gen::scenarios(GenProfile::full())) {
        assert_equivalent("json_round_trip", &spec, DiffOptions::default(), |s| {
            let text = s.to_json_string();
            let back = ScenarioSpec::from_json_str(&text)
                .unwrap_or_else(|e| panic!("round trip failed to parse: {e}"));
            assert_eq!(back.validate(), Ok(()), "round trip broke validity");
            oracle::run_spec(&back)
        })?;
    }

    /// An *active* observation layer with nothing lossy, noisy, or stale
    /// (non-default seed flips it on; every fault knob stays zero) runs
    /// the full telemetry code path — draws, health machine, views —
    /// yet is bit-equal to no observation layer at all. This is the
    /// exactly-off contract's sharp edge: perfect telemetry must be
    /// indistinguishable from unmodeled telemetry.
    #[test]
    fn zero_fault_observation_equals_disabled(spec in gen::scenarios(GenProfile::quick())) {
        assert_equivalent("zero_fault_observation", &spec, DiffOptions::default(), |s| {
            let mut observed = s.clone();
            observed.observation = Some(ObservationSpec {
                seed: s.seed ^ 0x0B5E,
                ..Default::default()
            });
            assert_eq!(
                observed.validate(),
                Ok(()),
                "zero-fault observation block must stay valid"
            );
            let config = observed.observation.as_ref().expect("just set").to_config();
            assert!(
                config.is_active(),
                "a non-default seed must activate the observation layer"
            );
            oracle::run_spec(&observed)
        })?;
    }

    /// Metamorphic: declaring an extra rigid dimension nothing demands
    /// never changes any decision (only the utilization samples gain an
    /// all-zero entry).
    #[test]
    fn slack_rigid_dimension_never_changes_decisions(
        // `quick` rather than `deterministic`: the relation is bitwise
        // (same seed, same decisions), so multi-node fleets, failures,
        // and stochastic arrivals all strengthen it rather than
        // confound it. APC-only, since only APC accepts extra dims.
        spec in gen::scenarios(GenProfile::quick()),
    ) {
        let opts = DiffOptions { ignore_rigid_utilization: true };
        assert_equivalent("slack_dim_metamorphic", &spec, opts, |s| {
            let mut widened = s.clone();
            widened.resources.push("slack_probe".to_string());
            for group in &mut widened.nodes {
                group.resources.insert("slack_probe".to_string(), 1e9);
            }
            assert_eq!(widened.validate(), Ok(()), "widened spec must stay valid");
            oracle::run_spec(&widened)
        })?;
    }

    /// Metamorphic: under a deterministic profile (no RNG-consuming
    /// arrivals, no chaos), permuting the declaration order of job
    /// groups and txns relabels app ids but never changes outcomes —
    /// the multiset of completion records matches to numeric tolerance
    /// (permutation reorders float accumulation inside the allocator,
    /// so bit-equality is promised only by the differential family) and
    /// the change counters are identical.
    #[test]
    fn app_declaration_order_never_changes_outcomes(
        spec in gen::scenarios(GenProfile::deterministic()),
    ) {
        gen::check_scenario("app_order_metamorphic", &spec, |s| {
            let base = oracle::run_spec(s);
            let mut reordered = s.clone();
            reordered.jobs.reverse();
            reordered.txns.reverse();
            let other = oracle::run_spec(&reordered);
            compare_completion_multisets(&base, &other)?;
            let met = |m: &RunMetrics| m.completions.iter().filter(|c| c.met_deadline).count();
            if met(&base) != met(&other) {
                return Err(format!(
                    "deadline hits changed under declaration reorder: {} vs {}",
                    met(&base),
                    met(&other)
                ));
            }
            if base.changes != other.changes {
                return Err(format!(
                    "change counters changed under declaration reorder: {:?} vs {:?}",
                    base.changes, other.changes
                ));
            }
            Ok(())
        })?;
    }
}

/// Whether any recorded relative performance in the run sits below the
/// healthy floor, i.e. inside the sub-floor utility band.
fn crosses_floor(m: &RunMetrics) -> bool {
    let sub = |u: dynaplace::rpf::Rp| u.value() < dynaplace::rpf::RP_FLOOR;
    m.completions.iter().any(|c| sub(c.rp))
        || m.samples
            .iter()
            .any(|s| s.batch_hypothetical_rp.is_some_and(sub) || s.txn_rp.is_some_and(sub))
}

/// Guarantees a spec exercises the generative streaming path: roughly
/// half the full-profile draws carry a `workload` block already; the
/// rest get a small deterministic one (a bounded Poisson batch stream
/// plus an open-loop txn curve) whose demands fit the generator's
/// placeability floor (node memory is always ≥ 2000 MB).
fn force_workload(mut spec: ScenarioSpec) -> ScenarioSpec {
    use dynaplace::sim::spec::{
        BatchStreamSpec, GoalSpec, ProcessSpec, TxnCurveSpec, TxnStreamSpec, WorkloadSpec,
    };
    if spec.workload.is_none() {
        spec.workload = Some(WorkloadSpec {
            batch_streams: vec![BatchStreamSpec {
                name: Some("forced-stream".to_string()),
                process: ProcessSpec::Poisson { rate_per_sec: 0.25 },
                count: Some(3),
                work_mcycles: 3_000.0,
                max_speed_mhz: 600.0,
                memory_mb: 128.0,
                goal: GoalSpec::Factor(6.0),
                tasks: 1,
                class: None,
                resources: Default::default(),
            }],
            txn_streams: vec![TxnStreamSpec {
                name: Some("forced-curve".to_string()),
                curve: TxnCurveSpec::Population {
                    users: 50.0,
                    think_time_secs: 5.0,
                },
                demand_mcycles: 10.0,
                floor_secs: 0.002,
                goal_secs: 0.125,
                memory_mb: 128.0,
                max_instances: 1,
                resources: Default::default(),
            }],
        });
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole's lock-step compatibility contract: materializing a
    /// scenario up front (`build`) and streaming it through a
    /// `WorkloadSource` (`build_streaming`) — classic lists replayed,
    /// `workload` blocks drawn generatively — produce bit-identical
    /// runs under full metrics retention, for every float in every
    /// sample, completion, and placement record. (Aggregate retention
    /// is deliberately outside the contract: it recycles application
    /// ids, which legitimately shifts documented ascending-id
    /// tie-breaks; tests/memory_guard.rs pins its semantic-equality
    /// contract instead.)
    #[test]
    fn streaming_equals_lockstep(spec in gen::scenarios(GenProfile::full())) {
        let spec = force_workload(spec);
        prop_assert_eq!(spec.validate(), Ok(()), "forced workload block must stay valid");
        assert_equivalent("streaming_vs_lockstep", &spec, DiffOptions::default(), |s| {
            let mut sim = s
                .build_streaming_checked()
                .unwrap_or_else(|e| panic!("streaming build must accept a valid spec: {e}"));
            sim.record_placements(true);
            sim.run()
        })?;
    }
}

/// Full-width profile restricted to APC (the only scheduler that
/// accepts an `observation` block), for the telemetry fuzz families.
fn apc_full() -> GenProfile {
    GenProfile {
        schedulers: vec!["apc".to_string()],
        ..GenProfile::full()
    }
}

/// Guarantees a spec exercises the observation layer: roughly half the
/// `apc_full` draws carry a generated block already; the rest get a
/// deterministic flapping-telemetry window that provably closes
/// (`loss_until`), so the convergence oracle still applies.
fn force_observation(mut spec: ScenarioSpec) -> ScenarioSpec {
    if spec.observation.is_none() {
        spec.observation = Some(ObservationSpec {
            heartbeat_loss: 0.375,
            max_staleness_cycles: 1,
            noise: 0.125,
            loss_until_secs: Some(25.0 * spec.cycle_secs),
            seed: spec.seed ^ 0xFA11,
            ..Default::default()
        });
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Convergence under recovering telemetry: every spec runs with a
    /// bounded flapping-telemetry window, and the whole-run oracle
    /// demands that once the window closes the health machine settles
    /// and desired == actual within the grace window — every
    /// false-positive death must fully reconcile. The oracle also
    /// enforces the health machine's arithmetic: hysteresis floors on
    /// missed heartbeats, and deaths/reinstatements never exceeding
    /// suspect transitions.
    #[test]
    fn recovering_telemetry_reconverges(spec in gen::scenarios(apc_full())) {
        let spec = force_observation(spec);
        prop_assert_eq!(spec.validate(), Ok(()), "forced observation block must stay valid");
        gen::check_scenario("telemetry_reconvergence", &spec, |s| {
            oracle::check_run_message(s, &oracle::run_spec(s))
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Telemetry-safety invariant, checked event-by-event against the
    /// verbose decision trace: the health machine never suspects a node
    /// with fewer than `suspect_after` consecutive missed heartbeats,
    /// never declares one dead with fewer than `dead_after`, and every
    /// `heartbeat_missed` event's own consecutive count is consistent
    /// with the miss/delivery history the trace implies.
    #[test]
    fn deaths_require_consecutive_misses(spec in gen::scenarios(apc_full())) {
        let spec = force_observation(spec);
        let obs = spec.observation.clone().expect("observation forced on");
        gen::check_scenario("death_needs_consecutive_misses", &spec, |s| {
            let sink = Arc::new(JsonlSink::new(TraceLevel::Verbose));
            oracle::run_spec_with(s, |sim| {
                sim.set_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
            });
            check_health_trace(&sink.lines(), obs.suspect_after, obs.dead_after)
        })?;
    }
}

/// Replays a verbose trace through a shadow copy of the per-node miss
/// counter and rejects any health transition the configured hysteresis
/// does not license.
fn check_health_trace(lines: &[String], suspect_after: u32, dead_after: u32) -> Result<(), String> {
    let mut consecutive: std::collections::BTreeMap<usize, u64> = Default::default();
    for line in lines {
        let v = Json::parse(line).map_err(|e| format!("unparseable trace line: {e}\n{line}"))?;
        let event = TraceEvent::from_json(&v)
            .map_err(|e| format!("undecodable trace event: {e}\n{line}"))?;
        match event {
            TraceEvent::HeartbeatMissed {
                node,
                consecutive: c,
                ..
            } => {
                let prev = consecutive.get(&node.index()).copied().unwrap_or(0);
                // A delivered heartbeat (never traced) resets the count,
                // so each miss either restarts at 1 or extends the run.
                if c != 1 && c != prev + 1 {
                    return Err(format!(
                        "node{} reports {c} consecutive misses after a run of {prev}",
                        node.index()
                    ));
                }
                consecutive.insert(node.index(), c);
            }
            TraceEvent::NodeSuspected { node, misses, .. } => {
                let seen = consecutive.get(&node.index()).copied().unwrap_or(0);
                if misses < u64::from(suspect_after) || misses != seen {
                    return Err(format!(
                        "node{} suspected at {misses} misses (threshold {suspect_after}, \
                         trace shows {seen})",
                        node.index()
                    ));
                }
            }
            TraceEvent::NodeDeclaredDead { node, misses, .. } => {
                let seen = consecutive.get(&node.index()).copied().unwrap_or(0);
                if misses < u64::from(dead_after) || misses != seen {
                    return Err(format!(
                        "node{} declared dead at {misses} misses (threshold {dead_after}, \
                         trace shows {seen})",
                        node.index()
                    ));
                }
            }
            TraceEvent::NodeReinstated { node, .. } => {
                consecutive.insert(node.index(), 0);
            }
            _ => {}
        }
    }
    Ok(())
}

/// `a` and `b` agree to relative numeric tolerance. The bound is loose
/// (1e-3) on purpose: the optimizer's greedy passes visit apps in id
/// order, so relabeling perturbs allocation splits at the ~1e-5 level
/// even when every decision is identical. Structural outcomes
/// (counts, deadline hits, change counters) are compared exactly.
fn close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-3 * a.abs().max(b.abs()).max(1.0)
}

/// App-id-free completion fingerprint: every float field of every
/// completion record, sorted so relabeled runs align.
fn completion_multiset(m: &RunMetrics) -> Vec<[f64; 6]> {
    let mut records: Vec<[f64; 6]> = m
        .completions
        .iter()
        .map(|c| {
            [
                c.arrival.as_secs(),
                c.completion.as_secs(),
                c.deadline.as_secs(),
                c.distance.as_secs(),
                c.rp.value(),
                c.goal_factor,
            ]
        })
        .collect();
    records.sort_unstable_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    records
}

/// Compares two runs' completion multisets field-by-field to relative
/// tolerance. Arrival times are deterministic and must match exactly;
/// the derived fields may carry permutation-induced accumulation noise.
fn compare_completion_multisets(base: &RunMetrics, other: &RunMetrics) -> Result<(), String> {
    let (a, b) = (completion_multiset(base), completion_multiset(other));
    if a.len() != b.len() {
        return Err(format!(
            "completion count changed under declaration reorder: {} vs {}",
            a.len(),
            b.len()
        ));
    }
    const FIELDS: [&str; 6] = [
        "arrival",
        "completion",
        "deadline",
        "distance",
        "rp",
        "goal_factor",
    ];
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        if ra[0].to_bits() != rb[0].to_bits() {
            return Err(format!(
                "completion {i}: arrival changed under declaration reorder: {} vs {}",
                ra[0], rb[0]
            ));
        }
        for f in 1..6 {
            if !close(ra[f], rb[f]) {
                return Err(format!(
                    "completion {i}: {} changed under declaration reorder: {} vs {}",
                    FIELDS[f], ra[f], rb[f]
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Known-bug demonstrations: seeded mutations the harness must catch,
// shrink, and persist (the acceptance gate for the whole facility).
// ---------------------------------------------------------------------

fn repro_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/repro")
}

/// Seeds a "reconcile leak": every recorded placement also keeps the
/// previous cycle's instances, as if suspend operations reported
/// success without ever taking effect. This is the class of bug the
/// actuation rollback in `reconcile.rs` exists to prevent.
fn leak_previous_cycle(metrics: &mut RunMetrics) {
    let mut prev: Option<Placement> = None;
    for record in &mut metrics.placements {
        let clean = record.placement.clone();
        if let Some(ghost) = &prev {
            for (app, node, count) in ghost.iter() {
                for _ in 0..count {
                    record.placement.place(app, node);
                }
            }
        }
        prev = Some(clean);
    }
}

/// The harness catches the seeded reconcile leak, shrinks the failing
/// spec to the checked-in minimized repro, and the report names the
/// violated invariant.
#[test]
fn seeded_reconcile_leak_is_caught_and_shrunk() {
    let leaky = |s: &ScenarioSpec| -> Result<(), String> {
        let mut metrics = oracle::run_spec(s);
        leak_previous_cycle(&mut metrics);
        oracle::check_run_message(s, &metrics)
    };
    // Deterministic "random" spec: fixed seed sequence, first draw
    // whose run overlaps placements across cycles (so the leak bites) —
    // same spec forever for a given generator.
    let spec = (0u64..64)
        .map(|i| {
            let mut rng = TestRng::from_seed(0x0D15_EA5E ^ i.wrapping_mul(0x9E37_79B9));
            gen::gen_scenario(&mut rng, &GenProfile::full())
        })
        .find(|s| leaky(s).is_err())
        .expect("one of 64 deterministic draws must expose the seeded leak");
    let first = leaky(&spec).expect_err("the seeded leak must violate whole-run invariants");
    assert!(
        first.contains("over capacity") || first.contains("instances, max"),
        "the leak must surface as a capacity or instance-bound violation, got:\n{first}"
    );

    let minimized = gen::shrink_spec(&spec, |s| leaky(s).is_err());
    assert!(
        leaky(&minimized).is_err(),
        "shrinking must preserve the failure"
    );
    assert!(
        minimized.to_json_string().len() <= spec.to_json_string().len(),
        "shrinking must not grow the spec"
    );

    // The minimized spec is pinned under tests/repro/ — the shrinker is
    // deterministic, so any drift means generator or shrinker changes
    // that need a conscious re-bless (see tests/repro/README.md).
    let pinned = repro_dir().join("reconcile_leak.json");
    let mut rendered = minimized.to_json_string();
    rendered.push('\n');
    if std::env::var_os("UPDATE_REPRO").is_some() {
        std::fs::write(&pinned, &rendered).expect("write pinned repro");
    }
    let expected = std::fs::read_to_string(&pinned).unwrap_or_else(|e| {
        panic!(
            "missing pinned repro {} ({e}); run with UPDATE_REPRO=1",
            pinned.display()
        )
    });
    assert_eq!(
        rendered, expected,
        "minimized reconcile-leak spec drifted from the pinned repro; \
         rerun with UPDATE_REPRO=1 and review the diff"
    );
}

/// The checked-in surrogate-pair repro (astral-plane app name written
/// as a `😀` escape pair, the exact shape of the PR 5 parser
/// bug) parses, validates, survives a round trip, and runs clean.
#[test]
fn surrogate_pair_repro_round_trips_and_runs() {
    let path = repro_dir().join("surrogate_pair_name.json");
    let text = std::fs::read_to_string(&path).expect("checked-in repro spec");
    let spec = ScenarioSpec::from_json_str(&text).expect("surrogate-pair spec parses");
    let name = spec.jobs[0].name.as_deref().expect("job keeps its name");
    assert!(
        name.contains('\u{1F600}'),
        "surrogate pair must decode to the astral char, got {name:?}"
    );
    let back = ScenarioSpec::from_json_str(&spec.to_json_string()).expect("round trip parses");
    assert_eq!(
        back.jobs[0].name.as_deref(),
        Some(name),
        "round trip keeps the name"
    );
    assert_eq!(spec.validate(), Ok(()));
    oracle::check_run_message(&spec, &oracle::run_spec(&spec)).expect("repro runs clean");
}

/// The checked-in starved-floor-job repro: a transient outage blows the
/// jobs' deadlines so far past recovery that their raw relative
/// performance sits below the healthy floor whatever they receive,
/// while the transactional application's saturation demand could absorb
/// the whole node. Under the old flat clamp the objective was
/// indifferent to these jobs and the run livelocked until the engine's
/// starvation breaker cut it (this test pinned that behavior). With the
/// sub-floor utility band the jobs stay strictly ordered by lateness,
/// so the water-filling and candidate search drain them naturally: the
/// breaker must never fire, no starvation report may exist, and every
/// previously starved job must complete. This is the acceptance gate
/// for the band — the containment shims are deleted, not bypassed.
#[test]
fn starved_floor_job_repro_drains_without_breaker() {
    let path = repro_dir().join("starved_floor_job.json");
    let text = std::fs::read_to_string(&path).expect("checked-in repro spec");
    let spec = ScenarioSpec::from_json_str(&text).expect("starved repro parses");
    assert_eq!(spec.validate(), Ok(()));

    let sink = Arc::new(JsonlSink::new(TraceLevel::Decisions));
    let metrics = oracle::run_spec_with(&spec, |sim| {
        sim.set_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    });

    assert!(
        metrics.starvation.is_none(),
        "the stall breaker fired on the pinned repro: {:?}",
        metrics.starvation
    );
    assert!(
        !sink.to_jsonl().contains("\"ev\":\"starvation_break\""),
        "no starvation-break event may appear in the decision trace"
    );
    // Every spawned job (the previously starved ones included) now
    // completes.
    let completed: std::collections::BTreeSet<_> =
        metrics.completions.iter().map(|c| c.app.index()).collect();
    assert_eq!(
        completed.len(),
        spec.job_count(),
        "every previously starved job must complete, got completions {completed:?}"
    );
    oracle::check_run_message(&spec, &metrics).expect("drained run passes the invariant oracle");
}

/// An open finding, pinned under tests/repro/open/ (outside the corpus
/// the runner below and CI's strict replay walk): under the
/// vector-bin-packing baseline a constant transactional stream is routed
/// its whole saturation demand first, so the one batch job never gets
/// CPU on the single node and the starvation breaker ends the
/// horizon-free run. The breaker is thus not yet a never-firing path
/// for every policy, which is why the whole-run oracle still accepts a
/// starvation report that names the unfinished jobs. When a change
/// makes this run drain, this test fails: move the file into the corpus
/// and require `starvation.is_none()` in the oracle.
#[test]
fn open_baseline_starvation_repro_still_trips_the_breaker() {
    let path = repro_dir().join("open/baseline_txn_absorbs_node.json");
    let text = std::fs::read_to_string(&path).expect("checked-in repro spec");
    let spec = ScenarioSpec::from_json_str(&text).expect("open repro parses");
    assert_eq!(spec.validate(), Ok(()));
    let metrics = oracle::run_spec(&spec);
    let starved = metrics
        .starvation
        .as_ref()
        .expect("the breaker still fires on the open repro");
    assert_eq!(starved.apps.len(), 1, "the stream's one job starves");
    assert!(metrics.completions.is_empty());
    oracle::check_run_message(&spec, &metrics).expect("a reported starvation passes the oracle");
}

/// The actuation-retry cascade, pinned as
/// tests/repro/actuation_retry_cascade.json: the
/// `deaths_require_consecutive_misses` draw with spec seed 4141 (two
/// nodes, APC, a quarter of all operations failing). Each retry event
/// re-ran reconciliation, which rolled the same start back and queued
/// two more retries at the same instant, so the queue doubled every
/// `base_backoff` and the run never ended. With one retry per instant it
/// drains every job. It also pins the transactional rollback: at cycle 3
/// a failed suspend keeps a job on node 0 while a transactional instance
/// is added there, and only rolling that addition back keeps the node
/// within its memory (debug builds check it at every transition).
#[test]
fn actuation_retry_cascade_repro_drains() {
    let path = repro_dir().join("actuation_retry_cascade.json");
    let text = std::fs::read_to_string(&path).expect("checked-in repro spec");
    let spec = ScenarioSpec::from_json_str(&text).expect("repro parses");
    let metrics = oracle::run_spec(&spec);
    assert!(metrics.starvation.is_none());
    assert_eq!(metrics.completed_jobs(), 16);
    assert!(metrics.actuation.retry_events > 0, "the run retries");
    assert_eq!(metrics.actuation.invariant_skips, 0);
    oracle::check_run_message(&spec, &metrics).expect("the repro passes the oracle");
}

/// An open finding, pinned under tests/repro/open/: the
/// `json_round_trip_preserves_runs` draw with spec seed 11279
/// (`yield-max`, fallible actuation) ran the same retry cascade as
/// `actuation_retry_cascade.json`. With one retry per instant it ends,
/// and its retry work passes the oracle, but it ends in the starvation
/// breaker with no job completed: the zoo's transactional routing takes
/// the node first (ROADMAP, one reservation ledger). When a change makes
/// it drain, this test fails: move the file into the corpus.
#[test]
fn open_yield_max_retry_repro_still_trips_the_breaker() {
    let path = repro_dir().join("open/yield_max_retry_cascade.json");
    let text = std::fs::read_to_string(&path).expect("checked-in repro spec");
    let spec = ScenarioSpec::from_json_str(&text).expect("open repro parses");
    assert_eq!(spec.validate(), Ok(()));
    let metrics = oracle::run_spec(&spec);
    assert!(
        metrics.starvation.is_some(),
        "the breaker still fires on the open repro"
    );
    assert!(metrics.completions.is_empty());
    assert!(metrics.actuation.retry_events > 0, "the run retries");
    oracle::check_run_message(&spec, &metrics).expect("a reported starvation passes the oracle");
}

/// Every spec under tests/repro/ is a permanent regression scenario:
/// it parses, validates, and passes the whole-run invariant oracle.
#[test]
fn repro_corpus_passes_invariants() {
    let mut checked = 0;
    for entry in std::fs::read_dir(repro_dir()).expect("tests/repro exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable repro spec");
        let spec = ScenarioSpec::from_json_str(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        spec.validate()
            .unwrap_or_else(|e| panic!("{} does not validate: {e}", path.display()));
        oracle::check_run_message(&spec, &oracle::run_spec(&spec))
            .unwrap_or_else(|e| panic!("{} violates invariants:\n{e}", path.display()));
        checked += 1;
    }
    assert!(
        checked >= 2,
        "expected at least two pinned repro specs, found {checked}"
    );
}
