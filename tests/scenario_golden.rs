//! Golden-file regression tests over the checked-in scenarios.
//!
//! Each scenario runs end to end with per-cycle placement recording on;
//! the per-cycle satisfaction samples and placement deltas are rendered
//! to a stable text form and compared line-by-line against
//! `tests/golden/<scenario>.txt`. Any behavioral drift in the
//! controller, the load distributor, or the simulator shows up as a
//! readable diff naming the first diverging cycle.
//!
//! Bless intentional changes with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test scenario_golden
//! ```
//!
//! Every run is checked against the whole-run invariants in
//! `dynaplace_testutil::oracle` before its rendering is compared — or
//! blessed. A golden is only as good as the run it pins, so a run that
//! violates the invariants can never be written back as the new
//! expectation, even under `UPDATE_GOLDEN=1`.

#![deny(deprecated)]

use std::fmt::Write as _;
use std::path::PathBuf;

use dynaplace::model::placement::Placement;
use dynaplace::sim::metrics::RunMetrics;
use dynaplace::sim::spec::ScenarioSpec;
use dynaplace_testutil::{oracle, render_placement_diff};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Renders the parts of a run the goldens pin down: one block per
/// control cycle (satisfaction sample + placement delta), then the
/// aggregate change counters.
fn render(metrics: &RunMetrics) -> String {
    assert_eq!(
        metrics.samples.len(),
        metrics.placements.len(),
        "recording must produce one placement per cycle sample"
    );
    let fmt_rp = |rp: Option<dynaplace::rpf::value::Rp>| match rp {
        Some(u) => format!("{:+.6}", u.value()),
        None => "n/a".into(),
    };
    let mut out = String::new();
    let mut previous = Placement::new();
    for (sample, record) in metrics.samples.iter().zip(&metrics.placements) {
        writeln!(
            out,
            "t={:.0}s batch_rp={} txn_rp={} batch={:.1}MHz txn={:.1}MHz running={} waiting={}",
            sample.time.as_secs(),
            fmt_rp(sample.batch_hypothetical_rp),
            fmt_rp(sample.txn_rp),
            sample.batch_allocation.as_mhz(),
            sample.txn_allocation.as_mhz(),
            sample.running_jobs,
            sample.waiting_jobs,
        )
        .unwrap();
        if sample.pending_actions > 0 {
            // Only flaky runs have unreconciled actions; keeping the line
            // conditional leaves pre-actuation goldens byte-identical.
            out.truncate(out.len() - 1);
            writeln!(out, " pending={}", sample.pending_actions).unwrap();
        }
        if !sample.rigid_utilization.is_empty() {
            // Only multi-dimension scenarios sample extra rigid dims;
            // memory-only goldens stay byte-identical.
            let dims: Vec<String> = sample
                .rigid_utilization
                .iter()
                .map(|r| format!("{}={:.0}/{:.0}", r.dim, r.used, r.capacity))
                .collect();
            writeln!(out, "  rigid: {}", dims.join(" ")).unwrap();
        }
        for line in render_placement_diff(&previous, &record.placement).lines() {
            writeln!(out, "  {line}").unwrap();
        }
        previous = record.placement.clone();
    }
    writeln!(
        out,
        "changes: starts={} suspends={} resumes={} migrations={}",
        metrics.changes.starts,
        metrics.changes.suspends,
        metrics.changes.resumes,
        metrics.changes.migrations,
    )
    .unwrap();
    if metrics.actuation != Default::default() {
        // Same reasoning: the actuation line only appears once a run
        // exercised the fallible layer.
        let a = &metrics.actuation;
        writeln!(
            out,
            "actuation: failed={} timed_out={} retries={} deferrals={} quarantines={} \
             fallbacks={} truncations={} skips={}",
            a.failed_ops,
            a.timed_out_ops,
            a.retries,
            a.deferrals,
            a.quarantines,
            a.fill_only_fallbacks,
            a.deadline_truncations,
            a.invariant_skips,
        )
        .unwrap();
    }
    if metrics.observation != Default::default() {
        // And again: the observation line only appears once a run
        // exercised the imperfect-telemetry layer.
        let o = &metrics.observation;
        writeln!(
            out,
            "observation: missed={} lost={} suspects={} deaths={} reinstatements={} \
             stale_holds={} fill_only={}",
            o.missed_heartbeats,
            o.lost_reports,
            o.suspects,
            o.deaths,
            o.reinstatements,
            o.stale_holds,
            o.fill_only_degrades,
        )
        .unwrap();
    }
    writeln!(out, "completions: {}", metrics.completions.len()).unwrap();
    out
}

/// Line-by-line comparison with a readable report: names the first
/// diverging line — and the cycle, app, and field it falls on — and
/// shows both versions with two lines of context.
fn assert_matches_golden(name: &str, actual: &str) {
    assert_matches_golden_file(&format!("{name}.txt"), name, actual);
}

/// Best-effort semantic location of the first diverging line: the cycle
/// block it falls under (nearest preceding `t=...` header), the app a
/// placement-diff line names (`aN@nM: x -> y`), and the first
/// `key=value` token whose value changed between the two versions.
fn locate_divergence(exp: &[&str], act: &[&str], first_diff: usize) -> String {
    let mut parts = Vec::new();
    if let Some(cycle) = exp
        .iter()
        .take(first_diff + 1)
        .rev()
        .find_map(|l| l.split_whitespace().next().filter(|t| t.starts_with("t=")))
    {
        parts.push(format!("cycle {cycle}"));
    }
    if let Some(line) = act.get(first_diff).or_else(|| exp.get(first_diff)) {
        if let Some(tok) = line.split_whitespace().find(|t| {
            t.starts_with('a') && t[1..].chars().next().is_some_and(|c| c.is_ascii_digit())
        }) {
            parts.push(format!("app {}", tok.trim_end_matches(':')));
        }
    }
    if let (Some(e), Some(a)) = (exp.get(first_diff), act.get(first_diff)) {
        if let Some(field) = e
            .split_whitespace()
            .zip(a.split_whitespace())
            .find(|(x, y)| x != y)
            .and_then(|(x, y)| {
                let (xk, _) = x.split_once('=')?;
                let (yk, _) = y.split_once('=')?;
                (xk == yk).then(|| xk.to_string())
            })
        {
            parts.push(format!("field {field}"));
        }
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!(" ({})", parts.join(", "))
    }
}

fn assert_matches_golden_file(filename: &str, name: &str, actual: &str) {
    let path = repo_root().join("tests/golden").join(filename);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let first_diff = exp
        .iter()
        .zip(&act)
        .position(|(e, a)| e != a)
        .unwrap_or(exp.len().min(act.len()));
    let lo = first_diff.saturating_sub(2);
    let mut report = format!(
        "{name} diverges from {} at line {}{} (expected {} lines, got {}):\n",
        path.display(),
        first_diff + 1,
        locate_divergence(&exp, &act, first_diff),
        exp.len(),
        act.len()
    );
    for i in lo..(first_diff + 3) {
        match (exp.get(i), act.get(i)) {
            (Some(e), Some(a)) if e == a => {
                let _ = writeln!(report, "   {:>5} | {e}", i + 1);
            }
            _ => {
                if let Some(e) = exp.get(i) {
                    let _ = writeln!(report, " - {:>5} | {e}", i + 1);
                }
                if let Some(a) = act.get(i) {
                    let _ = writeln!(report, " + {:>5} | {a}", i + 1);
                }
            }
        }
    }
    report.push_str("re-bless intentional changes with UPDATE_GOLDEN=1");
    panic!("{report}");
}

#[test]
fn divergence_locator_names_cycle_app_and_field() {
    let exp = vec![
        "t=0s batch_rp=+0.5 running=1 waiting=0",
        "  (no change)",
        "t=10s batch_rp=+0.5 running=1 waiting=0",
        "  a3@n1: 0 -> 1",
    ];
    let mut act = exp.clone();
    act[2] = "t=10s batch_rp=+0.25 running=1 waiting=0";
    assert_eq!(
        locate_divergence(&exp, &act, 2),
        " (cycle t=10s, field batch_rp)"
    );
    let mut act = exp.clone();
    act[3] = "  a3@n1: 0 -> 2";
    assert_eq!(
        locate_divergence(&exp, &act, 3),
        " (cycle t=10s, app a3@n1)"
    );
    // One side shorter than the other: the extra line still locates.
    assert_eq!(
        locate_divergence(&exp, &exp[..3], 3),
        " (cycle t=10s, app a3@n1)"
    );
}

fn load_scenario(name: &str) -> ScenarioSpec {
    let path = repo_root().join("scenarios").join(format!("{name}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ScenarioSpec::from_json_str(&text)
        .unwrap_or_else(|e| panic!("invalid scenario {}: {e}", path.display()))
}

/// Checks the run against the fuzz oracle's whole-run invariants. Under
/// `UPDATE_GOLDEN=1` this runs *before* any golden is written, so a
/// broken run can never be blessed as the new expectation.
fn check_invariants(name: &str, spec: &ScenarioSpec, metrics: &RunMetrics) {
    if let Err(msg) = oracle::check_run_message(spec, metrics) {
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            panic!("refusing to bless {name}: the run violates invariants:\n{msg}");
        }
        panic!("{name}: the run violates invariants:\n{msg}");
    }
}

fn run_scenario(name: &str) -> RunMetrics {
    let spec = load_scenario(name);
    let mut sim = spec.build();
    sim.record_placements(true);
    let metrics = sim.run();
    check_invariants(name, &spec, &metrics);
    metrics
}

#[test]
fn mixed_workload_matches_golden() {
    let metrics = run_scenario("mixed_workload");
    assert_matches_golden("mixed_workload", &render(&metrics));
}

/// Runs `name` with decision tracing on and pins its trace in
/// deterministic form (wall-clock fields stripped), line by line. Any
/// change to *why* the controller decides what it decides — not just
/// *what* it decides — shows up here as a readable diff.
fn assert_trace_matches_golden(name: &str) {
    use std::sync::Arc;

    use dynaplace::trace::{JsonlSink, TraceLevel, TraceSink};

    let spec = load_scenario(name);
    let mut sim = spec.build();
    sim.record_placements(true);
    let sink = Arc::new(JsonlSink::new(TraceLevel::Decisions));
    sim.set_trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
    let metrics = sim.run();
    let label = format!("{name} trace");
    check_invariants(&label, &spec, &metrics);
    assert_matches_golden_file(
        &format!("{name}.trace.jsonl"),
        &label,
        &sink.deterministic_jsonl(),
    );
}

#[test]
fn mixed_workload_trace_matches_golden() {
    assert_trace_matches_golden("mixed_workload");
}

/// The sharded trace pins the cell bracketing: each cell's search
/// events sit between its `cell_enter` and `cell_exit`, in cell order,
/// followed by the rebalancer's moves.
#[test]
fn sharded_cluster_trace_matches_golden() {
    assert_trace_matches_golden("sharded_cluster");
}

#[test]
fn node_failure_drill_matches_golden() {
    let metrics = run_scenario("node_failure_drill");
    assert_matches_golden("node_failure_drill", &render(&metrics));
}

#[test]
fn flaky_cluster_matches_golden() {
    let metrics = run_scenario("flaky_cluster");
    assert_matches_golden("flaky_cluster", &render(&metrics));
}

#[test]
fn sharded_cluster_matches_golden() {
    let metrics = run_scenario("sharded_cluster");
    assert_matches_golden("sharded_cluster", &render(&metrics));
}

#[test]
fn multi_resource_matches_golden() {
    let metrics = run_scenario("multi_resource");
    assert_matches_golden("multi_resource", &render(&metrics));
}

#[test]
fn noisy_telemetry_matches_golden() {
    let metrics = run_scenario("noisy_telemetry");
    assert_matches_golden("noisy_telemetry", &render(&metrics));
}

/// The imperfect-telemetry acceptance bar: the checked-in scenario must
/// actually flap (suspects, false-positive deaths, reinstatements, and
/// stale holds all occur), yet every job completes and the controller is
/// fully reconciled once the lossy-transport window closes and the
/// health machine's hysteresis has drained.
#[test]
fn noisy_telemetry_flaps_and_recovers() {
    let spec = load_scenario("noisy_telemetry");
    let obs_spec = spec
        .observation
        .clone()
        .expect("scenario ships an observation block");
    let metrics = run_scenario("noisy_telemetry");

    let o = &metrics.observation;
    assert!(
        o.suspects > 0 && o.deaths > 0 && o.reinstatements > 0 && o.stale_holds > 0,
        "the golden scenario must exercise the whole health machine: {o:?}"
    );
    assert_eq!(
        metrics.completions.len(),
        spec.jobs.iter().map(|g| g.count).sum::<usize>(),
        "every job completes despite flapping telemetry"
    );
    let hysteresis = f64::from(
        obs_spec.dead_after + obs_spec.reinstate_after + obs_spec.staleness_budget_cycles + 5,
    );
    let settled =
        obs_spec.loss_until_secs.expect("bounded loss window") + hysteresis * spec.cycle_secs;
    for s in &metrics.samples {
        if s.time.as_secs() >= settled {
            assert_eq!(
                s.pending_actions,
                0,
                "unreconciled actions at t={:.0}s after telemetry recovered",
                s.time.as_secs()
            );
        }
    }

    // The exactly-off contract, as `simulate --no-observation-faults`
    // applies it: stripping the block yields a clean perfect-telemetry
    // run whose counters never move.
    let mut perfect = spec.clone();
    perfect.observation = None;
    let clean = perfect.build().run();
    assert_eq!(clean.observation, Default::default());
    assert_eq!(clean.completions.len(), metrics.completions.len());
}

/// The multi-dimension acceptance bar: the `license_slots` dimension in
/// `multi_resource.json` must change a decision memory alone would not
/// force. Each licensed node carries one slot and each `cad` job demands
/// one, so the checked-in run may never co-locate two `cad` jobs; with
/// every `resources` block stripped (memory-only, the pre-refactor
/// model), the optimizer packs them onto the fast nodes.
#[test]
fn license_dimension_forces_a_spread_memory_would_not() {
    use std::collections::BTreeMap;

    use dynaplace::model::ids::NodeId;

    let spec = load_scenario("multi_resource");
    assert_eq!(
        spec.resources,
        ["disk_mb", "net_mbps", "license_slots"],
        "scenario must declare three extra rigid dimensions"
    );
    let mut memory_only = spec.clone();
    memory_only.resources.clear();
    memory_only
        .nodes
        .iter_mut()
        .for_each(|g| g.resources.clear());
    memory_only
        .jobs
        .iter_mut()
        .for_each(|g| g.resources.clear());
    memory_only
        .txns
        .iter_mut()
        .for_each(|t| t.resources.clear());

    // The four `cad` jobs are the first job group, so they hold the
    // first four dense application ids.
    let max_cad_per_node = |metrics: &RunMetrics| -> u32 {
        let mut max = 0;
        for record in &metrics.placements {
            let mut per_node: BTreeMap<NodeId, u32> = BTreeMap::new();
            for (app, node, count) in record.placement.iter() {
                if app.index() < 4 {
                    *per_node.entry(node).or_default() += count;
                }
            }
            max = max.max(per_node.values().copied().max().unwrap_or(0));
        }
        max
    };

    let run = |spec: &ScenarioSpec| -> RunMetrics {
        let mut sim = spec.build();
        sim.record_placements(true);
        sim.run()
    };
    let licensed = run(&spec);
    let unconstrained = run(&memory_only);
    assert_eq!(
        licensed.completions.len(),
        7,
        "all four cad and three render jobs must finish despite slot scarcity"
    );
    assert_eq!(
        max_cad_per_node(&licensed),
        1,
        "one license slot per node must forbid co-locating cad jobs"
    );
    assert!(
        max_cad_per_node(&unconstrained) >= 2,
        "without the license dimension, memory alone co-locates cad jobs"
    );
}

/// The sharding acceptance bar on quality: cell-scoped solving plus
/// cross-cell rebalancing may not cost satisfaction. The same scenario
/// runs once as checked in (sharded) and once with sharding stripped;
/// the sharded run must complete every job the whole-cluster run does
/// and keep the mean final relative performance within noise of it.
#[test]
fn sharded_cluster_satisfaction_no_worse_than_unsharded() {
    let spec = load_scenario("sharded_cluster");
    assert!(spec.sharding.is_some(), "scenario must ship sharded");
    let mut unsharded_spec = spec.clone();
    unsharded_spec.sharding = None;

    let mean_rp = |metrics: &RunMetrics| -> f64 {
        let total: f64 = metrics.completions.iter().map(|c| c.rp.value()).sum();
        total / metrics.completions.len() as f64
    };
    let sharded = spec.build().run();
    let unsharded = unsharded_spec.build().run();
    assert!(
        sharded.completions.len() >= unsharded.completions.len(),
        "sharding lost completions: {} vs {}",
        sharded.completions.len(),
        unsharded.completions.len()
    );
    let (s, u) = (mean_rp(&sharded), mean_rp(&unsharded));
    assert!(
        s >= u - 0.05,
        "sharded mean final satisfaction regressed: {s:.4} vs unsharded {u:.4}"
    );
}

/// Pins the scenario wire format byte for byte: every checked-in
/// scenario, repro and perf spec is parsed and printed back with
/// `to_json_string`, and the printout must match
/// `tests/golden/wire/<dir>/<name>.json`. The round-trip properties
/// cannot see a key renamed on both sides of the codec; this can.
#[test]
fn scenario_wire_format_matches_golden() {
    for dir in ["scenarios", "tests/repro", "tests/perf"] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(repo_root().join(dir))
            .unwrap_or_else(|e| panic!("cannot list {dir}: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "{dir} holds no scenario files");
        for path in files {
            let text = std::fs::read_to_string(&path).expect("readable scenario");
            let spec = ScenarioSpec::from_json_str(&text)
                .unwrap_or_else(|e| panic!("invalid scenario {}: {e}", path.display()));
            let file = path
                .file_name()
                .and_then(|f| f.to_str())
                .expect("utf-8 name");
            assert_matches_golden_file(
                &format!("wire/{dir}/{file}"),
                &format!("{dir}/{file} wire form"),
                &spec.to_json_string(),
            );
        }
    }
}

/// The pretty `RunMetrics` JSON of a run, with the one wall-clock field
/// (`placement_compute_secs`) zeroed so the printout is deterministic.
fn metrics_wire(mut metrics: RunMetrics) -> String {
    for sample in &mut metrics.samples {
        sample.placement_compute_secs = 0.0;
    }
    dynaplace_json::ToJson::to_json(&metrics).pretty()
}

/// Pins the `RunMetrics` artifact format byte for byte over runs chosen
/// so each conditionally written field appears both present and absent:
/// `rigid_utilization` (multi_resource only), `observation`
/// (noisy_telemetry only), `totals` (the aggregate-retention streaming
/// run only), `placements` (recorded on multi_resource only) and
/// `starvation` (always `null` here).
#[test]
fn metrics_wire_format_matches_golden() {
    use dynaplace::sim::MetricsRetention;

    let mut sim = load_scenario("multi_resource").build();
    sim.record_placements(true);
    let runs = [
        ("multi_resource", sim.run()),
        (
            "noisy_telemetry",
            load_scenario("noisy_telemetry").build().run(),
        ),
        ("diurnal_stream.aggregate", {
            let mut spec = load_scenario("diurnal_stream");
            // A shorter horizon keeps the golden small; the stream still
            // completes jobs before it.
            spec.horizon_secs = Some(7_200.0);
            let mut sim = spec.build_streaming();
            sim.set_retention(MetricsRetention::Aggregate);
            sim.run()
        }),
    ];
    for (name, metrics) in runs {
        assert_matches_golden_file(
            &format!("wire/metrics/{name}.json"),
            &format!("{name} metrics wire form"),
            &metrics_wire(metrics),
        );
    }
}

/// One event of every `TraceEvent` kind, as the decision trace writes
/// them (compact, one per line). The or-pattern match has no wildcard,
/// so a new kind fails to compile here until it joins the list.
fn one_event_per_kind() -> Vec<dynaplace::trace::TraceEvent> {
    use dynaplace::model::ids::{AppId, NodeId};
    use dynaplace::trace::{CacheCounters, EscalationReason, OptimizeMode, Phase, TraceEvent as E};

    let events = vec![
        E::CycleStart {
            time: 300.0,
            cycle: 1,
        },
        E::PhaseSpan {
            time: 300.0,
            cycle: 1,
            phase: Phase::Reconcile,
            wall_secs: 0.004217,
        },
        E::OptimizeStart {
            time: 300.0,
            mode: OptimizeMode::FillOnly,
            apps: 5,
            nodes: 4,
        },
        E::OptimizeEnd {
            time: 300.0,
            evaluations: 120,
            sweeps: 2,
            adoptions: 3,
            timed_out: true,
        },
        E::NodeEnter {
            time: 300.0,
            sweep: 0,
            node: NodeId::new(2),
            residents: 3,
        },
        E::NodeExit {
            time: 300.0,
            sweep: 0,
            node: NodeId::new(2),
            candidates: 7,
            adopted: false,
        },
        E::CandidateAccepted {
            time: 300.0,
            sweep: 1,
            node: NodeId::new(0),
            delta: 0.125,
            disruptions: 2,
            threshold: 0.02,
        },
        E::CandidateRejected {
            time: 300.0,
            sweep: 1,
            node: NodeId::new(0),
            delta: -1.0e-7,
            disruptions: 4,
            threshold: 0.001,
        },
        E::TxnExpanded {
            time: 300.0,
            app: AppId::new(1),
            node: NodeId::new(3),
            delta: 0.05,
        },
        E::CachePassStats {
            time: 300.0,
            counters: CacheCounters {
                score_hits: 1,
                score_misses: 2,
                demand_hits: 3,
                demand_misses: 4,
                batch_hits: 5,
                batch_misses: 6,
                column_hits: 7,
                column_misses: 8,
            },
        },
        E::DeadlineTruncated {
            time: 300.0,
            sweep: 1,
            evaluations: 55,
        },
        E::OpResolved {
            time: 310.5,
            cycle: 1,
            app: AppId::new(4),
            node: NodeId::new(0),
            op: "migrate",
            attempt: 3,
            outcome: "timed_out",
            latency_secs: 13.2,
        },
        E::OpDeferred {
            time: 310.5,
            cycle: 1,
            app: AppId::new(4),
            node: NodeId::new(0),
            reason: "backoff",
        },
        E::Quarantined {
            time: 310.5,
            cycle: 1,
            app: AppId::new(4),
            node: NodeId::new(0),
        },
        E::ReconcileDiff {
            time: 600.0,
            cycle: 2,
            pending: 3,
        },
        E::CellEnter {
            time: 300.0,
            cell: 2,
            nodes: 64,
            apps: 17,
        },
        E::CellExit {
            time: 300.0,
            cell: 2,
            evaluations: 400,
            adoptions: 6,
            timed_out: false,
        },
        E::CellEscalated {
            time: 300.0,
            app: AppId::new(9),
            reason: EscalationReason::MultiCellPlacement,
        },
        E::RebalanceMove {
            time: 300.0,
            app: AppId::new(5),
            from_cell: 0,
            to_cell: 3,
            delta: 0.04,
            adopted: true,
        },
        E::RigidUtilization {
            time: 300.0,
            cycle: 1,
            dim: "disk_mb".to_string(),
            used: 1_024.0,
            capacity: 4_096.5,
        },
        E::StarvationBreak {
            time: 4_200.0,
            cycles: 64,
            apps: vec![AppId::new(1), AppId::new(2)],
        },
        E::HeartbeatMissed {
            time: 300.0,
            cycle: 1,
            node: NodeId::new(2),
            consecutive: 3,
        },
        E::NodeSuspected {
            time: 300.0,
            cycle: 1,
            node: NodeId::new(2),
            misses: 2,
        },
        E::NodeDeclaredDead {
            time: 600.0,
            cycle: 2,
            node: NodeId::new(2),
            misses: 4,
        },
        E::NodeReinstated {
            time: 1_200.0,
            cycle: 4,
            node: NodeId::new(2),
        },
        E::StaleHold {
            time: 600.0,
            cycle: 2,
            age_cycles: 3,
            budget: 1,
            mode: "hold",
        },
        E::PolicyInvoked {
            time: 600.0,
            cycle: 1,
            policy: "vector-bin-packing".to_string(),
            class: "baseline".to_string(),
        },
        E::DemandEstimate {
            time: 300.0,
            cycle: 1,
            app: AppId::new(3),
            observed: 42.5,
            estimate: 51.0,
        },
    ];
    for event in &events {
        match event {
            E::CycleStart { .. }
            | E::PhaseSpan { .. }
            | E::OptimizeStart { .. }
            | E::OptimizeEnd { .. }
            | E::NodeEnter { .. }
            | E::NodeExit { .. }
            | E::CandidateAccepted { .. }
            | E::CandidateRejected { .. }
            | E::TxnExpanded { .. }
            | E::CachePassStats { .. }
            | E::DeadlineTruncated { .. }
            | E::OpResolved { .. }
            | E::OpDeferred { .. }
            | E::Quarantined { .. }
            | E::ReconcileDiff { .. }
            | E::CellEnter { .. }
            | E::CellExit { .. }
            | E::CellEscalated { .. }
            | E::RebalanceMove { .. }
            | E::RigidUtilization { .. }
            | E::StarvationBreak { .. }
            | E::HeartbeatMissed { .. }
            | E::NodeSuspected { .. }
            | E::NodeDeclaredDead { .. }
            | E::NodeReinstated { .. }
            | E::StaleHold { .. }
            | E::PolicyInvoked { .. }
            | E::DemandEstimate { .. } => {}
        }
    }
    events
}

/// Pins the decision-trace wire format byte for byte, one line per
/// event kind: `mixed_workload.trace.jsonl` only reaches the kinds that
/// scenario emits. Every line must also decode back to its event.
#[test]
fn trace_event_wire_format_matches_golden() {
    use dynaplace::trace::TraceEvent;
    use dynaplace_json::{FromJson, Json, ToJson};

    let events = one_event_per_kind();
    let kinds: std::collections::BTreeSet<&str> = events.iter().map(TraceEvent::kind).collect();
    assert_eq!(kinds.len(), 28, "one event per kind, each kind once");
    let mut wire = String::new();
    for event in &events {
        let line = event.to_json().compact();
        let back = TraceEvent::from_json(&Json::parse(&line).expect("a trace line is JSON"))
            .unwrap_or_else(|e| panic!("{line} does not decode: {e}"));
        assert_eq!(&back, event, "{line}");
        writeln!(wire, "{line}").unwrap();
    }
    assert_matches_golden_file("wire/trace_events.jsonl", "trace event wire form", &wire);
}

/// Pins the wire form of every variant of the four tagged scenario
/// enums (`arrivals`, `goal`, `process`, `curve`); the checked-in
/// scenarios reach only some of them. Every entry must decode back to
/// a value that prints the same.
#[test]
fn tagged_spec_wire_format_matches_golden() {
    use dynaplace::sim::spec::{ArrivalSpec, GoalSpec, ProcessSpec, TxnCurveSpec};
    use dynaplace_json::{FromJson, Json, ToJson};

    fn entries<T: ToJson + FromJson>(values: &[T]) -> Json {
        Json::Arr(
            values
                .iter()
                .map(|value| {
                    let json = value.to_json();
                    let back = T::from_json(&json)
                        .unwrap_or_else(|e| panic!("{} does not decode: {e}", json.compact()));
                    assert_eq!(back.to_json(), json);
                    json
                })
                .collect(),
        )
    }

    let doc = dynaplace_json::obj([
        (
            "arrivals",
            entries(&[
                ArrivalSpec::Exponential { mean_secs: 120.0 },
                ArrivalSpec::Periodic { every_secs: 15.5 },
                ArrivalSpec::At(vec![0.0, 30.0, 1_800.25]),
            ]),
        ),
        (
            "goal",
            entries(&[GoalSpec::Factor(2.5), GoalSpec::RelativeSecs(3_600.0)]),
        ),
        (
            "process",
            entries(&[
                ProcessSpec::Poisson { rate_per_sec: 0.05 },
                ProcessSpec::Mmpp {
                    states: vec![(0.2, 600.0), (0.01, 3_000.0)],
                },
                ProcessSpec::Diurnal {
                    base_rate_per_sec: 1.2,
                    amplitude: 0.8,
                    period_secs: 86_400.0,
                },
                ProcessSpec::FlashCrowd {
                    base_rate_per_sec: 0.1,
                    multiplier: 10.0,
                    every_secs: 7_200.0,
                    duration_secs: 300.0,
                },
            ]),
        ),
        (
            "curve",
            entries(&[
                TxnCurveSpec::Constant { rate_per_sec: 40.0 },
                TxnCurveSpec::Diurnal {
                    base_rate_per_sec: 50.0,
                    amplitude_per_sec: 25.0,
                    period_secs: 86_400.0,
                },
                TxnCurveSpec::Population {
                    users: 200.0,
                    think_time_secs: 5.0,
                },
            ]),
        ),
    ]);
    assert_matches_golden_file(
        "wire/tagged_specs.json",
        "tagged spec wire form",
        &doc.pretty(),
    );
}
