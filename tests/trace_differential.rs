//! Differential tests for the decision-provenance tracing contract:
//!
//! 1. tracing must be *inert* — a run with the default [`NoopSink`] and a
//!    run with a buffering [`JsonlSink`] produce bit-identical placements
//!    and metrics (tracing observes decisions, never influences them);
//! 2. trace *content* must be deterministic — two traced runs of the same
//!    scenario yield byte-identical deterministic JSONL;
//! 3. nodes the optimizer skips without building a candidate still show
//!    in a verbose trace: one `NodeEnter`/`NodeExit` pair per node per
//!    sweep.

#![deny(deprecated)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use std::sync::Mutex;

use dynaplace::apc::optimizer::{
    fill_only, fill_only_traced, place, place_traced, ApcConfig, PlacementOutcome,
};
use dynaplace::apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace::batch::hypothetical::JobSnapshot;
use dynaplace::batch::job::JobProfile;
use dynaplace::model::prelude::*;
use dynaplace::rpf::goal::CompletionGoal;
use dynaplace::sim::metrics::RunMetrics;
use dynaplace::sim::spec::ScenarioSpec;
use dynaplace::trace::{JsonlSink, TraceEvent, TraceLevel, TraceSink};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn mixed_workload() -> ScenarioSpec {
    let path = repo_root().join("scenarios/mixed_workload.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioSpec::from_json_str(&text).expect("valid scenario")
}

/// Strips the only legitimately nondeterministic quantity in a run's
/// metrics (host wall-clock compute times) so the rest can be compared
/// bit for bit.
fn deterministic_view(mut metrics: RunMetrics) -> RunMetrics {
    for sample in &mut metrics.samples {
        sample.placement_compute_secs = 0.0;
    }
    metrics
}

#[test]
fn traced_and_untraced_runs_are_bit_identical() {
    // Baseline: the default build path, which installs a NoopSink.
    let spec = mixed_workload();
    let mut baseline_sim = spec.build();
    baseline_sim.record_placements(true);
    let baseline = deterministic_view(baseline_sim.run());

    // Same scenario, but with a verbose buffering sink attached.
    let mut traced_sim = spec.build();
    traced_sim.record_placements(true);
    let sink = Arc::new(JsonlSink::new(TraceLevel::Verbose));
    traced_sim.set_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let traced = deterministic_view(traced_sim.run());

    assert!(!sink.is_empty(), "verbose trace of a real run is non-empty");
    assert_eq!(baseline.samples, traced.samples);
    assert_eq!(baseline.completions, traced.completions);
    assert_eq!(baseline.changes, traced.changes);
    assert_eq!(baseline.actuation, traced.actuation);
    assert_eq!(baseline.placements, traced.placements);
}

#[test]
fn trace_content_is_deterministic_across_runs() {
    let spec = mixed_workload();
    let run = || {
        let mut sim = spec.build();
        let sink = Arc::new(JsonlSink::new(TraceLevel::Decisions));
        sim.set_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        sim.run();
        sink.deterministic_jsonl()
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "deterministic trace must be byte-identical");
}

/// A small two-node, two-job problem with one job already running, so
/// the optimizer exercises removals, adoption, and rejection paths.
fn small_problem(
    cluster: &Cluster,
    apps: &AppSet,
    current: &Placement,
    jobs: &[(AppId, f64)],
) -> PlacementProblem<'static> {
    // Leaked allocations keep the lifetimes simple inside the test; the
    // process exits right after.
    let cluster: &'static Cluster = Box::leak(Box::new(cluster.clone()));
    let apps: &'static AppSet = Box::leak(Box::new(apps.clone()));
    let current: &'static Placement = Box::leak(Box::new(current.clone()));
    let mut workloads = BTreeMap::new();
    for &(app, work) in jobs {
        workloads.insert(
            app,
            WorkloadModel::Batch(JobSnapshot::new(
                app,
                CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(30.0)),
                std::sync::Arc::new(JobProfile::single_stage(
                    Work::from_mcycles(work),
                    CpuSpeed::from_mhz(1_000.0),
                    Memory::from_mb(700.0),
                )),
                Work::ZERO,
                SimDuration::from_secs(1.0),
            )),
        );
    }
    PlacementProblem {
        cluster,
        apps,
        workloads,
        current,
        now: SimTime::ZERO,
        cycle: SimDuration::from_secs(1.0),
        forbidden: Default::default(),
    }
}

#[test]
fn place_traced_returns_the_same_outcome_bits_as_place() {
    let mut cluster = Cluster::new();
    let n0 = cluster.add_node(
        NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(1_500.0))
            .expect("valid node capacities"),
    );
    cluster.add_node(
        NodeSpec::try_new(CpuSpeed::from_mhz(800.0), Memory::from_mb(1_500.0))
            .expect("valid node capacities"),
    );
    let mut apps = AppSet::new();
    let j1 = apps.add(ApplicationSpec::batch(
        Memory::from_mb(700.0),
        CpuSpeed::from_mhz(1_000.0),
    ));
    let j2 = apps.add(ApplicationSpec::batch(
        Memory::from_mb(700.0),
        CpuSpeed::from_mhz(1_000.0),
    ));
    let mut current = Placement::new();
    current.place(j1, n0);

    let problem = small_problem(&cluster, &apps, &current, &[(j1, 8_000.0), (j2, 20_000.0)]);
    let config = ApcConfig::default();

    let untraced = place(&problem, &config);
    let sink = JsonlSink::new(TraceLevel::Verbose);
    let traced = place_traced(&problem, &config, &sink);

    assert!(!sink.is_empty(), "a verbose optimizer trace is non-empty");
    // The Debug rendering prints every f64 in shortest-round-trip form,
    // so equal strings mean bit-identical outcomes.
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));
    assert_eq!(untraced.placement, traced.placement);
    assert_eq!(untraced.stats, traced.stats);
}

/// Keeps the node-loop events of a verbose trace as
/// `(entered, sweep, node)`.
#[derive(Debug, Default)]
struct NodeVisits(Mutex<Vec<(bool, u64, NodeId)>>);

impl TraceSink for NodeVisits {
    fn wants(&self, _level: TraceLevel) -> bool {
        true
    }

    fn record(&self, event: &TraceEvent) {
        let visit = match *event {
            TraceEvent::NodeEnter { sweep, node, .. } => (true, sweep, node),
            TraceEvent::NodeExit { sweep, node, .. } => (false, sweep, node),
            _ => return,
        };
        self.0.lock().expect("visit lock").push(visit);
    }
}

/// 240 nodes, all empty but the first two, which each hold two running
/// jobs and have no room for more; one job is queued. Most node visits
/// can start nothing: every node once the queued job is placed, and the
/// two full nodes before that.
fn large_stacked_problem() -> PlacementProblem<'static> {
    let mut cluster = Cluster::new();
    for _ in 0..240 {
        cluster.add_node(
            NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(1_500.0))
                .expect("valid node capacities"),
        );
    }
    let mut apps = AppSet::new();
    let mut current = Placement::new();
    let mut jobs = Vec::new();
    for i in 0..5u32 {
        let app = apps.add(ApplicationSpec::batch(
            Memory::from_mb(700.0),
            CpuSpeed::from_mhz(1_000.0),
        ));
        if i < 4 {
            current.place(app, NodeId::new(i / 2));
        }
        jobs.push((app, 10_000.0 + 2_000.0 * f64::from(i)));
    }
    small_problem(&cluster, &apps, &current, &jobs)
}

/// Runs one pass untraced and with a verbose trace, asserts both
/// outcomes are bit-identical, and that every sweep visits every node
/// exactly once as an adjacent enter/exit pair. Returns the outcome.
fn assert_traced_matches_untraced(
    untraced: PlacementOutcome,
    traced: impl FnOnce(&NodeVisits) -> PlacementOutcome,
    nodes: usize,
) -> PlacementOutcome {
    let sink = NodeVisits::default();
    let traced = traced(&sink);
    // The Debug rendering prints every f64 in shortest-round-trip form,
    // so equal strings mean bit-identical outcomes.
    assert_eq!(format!("{untraced:?}"), format!("{traced:?}"));

    let visits = sink.0.into_inner().expect("visit lock");
    assert_eq!(visits.len(), 2 * nodes * traced.stats.sweeps);
    for (i, pair) in visits.chunks(2).enumerate() {
        let sweep = (i / nodes) as u64;
        let node = NodeId::new((i % nodes) as u32);
        assert_eq!(pair, [(true, sweep, node), (false, sweep, node)]);
    }
    traced
}

#[test]
fn traced_equals_untraced_on_a_large_mostly_empty_cluster() {
    let problem = large_stacked_problem();
    let nodes = problem.cluster.len();
    let config = ApcConfig::default();
    let queued = AppId::new(4);

    let advice = assert_traced_matches_untraced(
        fill_only(&problem, &config),
        |sink| fill_only_traced(&problem, &config, sink),
        nodes,
    );
    assert!(
        advice.placement.is_placed(queued),
        "advice starts the queued job"
    );
    assert!(
        advice.stats.sweeps >= 2,
        "a sweep that adopts is followed by another"
    );

    let placed = assert_traced_matches_untraced(
        place(&problem, &config),
        |sink| place_traced(&problem, &config, sink),
        nodes,
    );
    assert!(
        placed.placement.is_placed(queued),
        "place starts the queued job"
    );
}
