//! Criterion benches for the streaming control plane.
//!
//! `streaming_throughput` measures whole generated runs — lazy
//! submission draw, event-queue drain, aggregate retention — at two
//! cluster sizes, with the 1,000-node point as the headline: the scale
//! the event-driven refactor targets. The dominant per-event cost is
//! the between-cycle fill-only advice pass, so events/sec here is a
//! controller-in-the-loop number, not a bare queue microbenchmark.
//! Within that pass, water-filling (scoring the incumbent and the few
//! real candidates) dominates: the optimizer's node loop skips nodes
//! where no open application fits without cloning the placement.
//!
//! Besides the criterion table (stderr), the bench writes
//! `BENCH_streaming.json` at the workspace root — machine-readable
//! events/sec at 1,000 nodes — which CI uploads as a build artifact so
//! every PR carries the streaming-throughput trend. Set
//! `BENCH_STREAMING_OUT` to redirect the file.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynaplace_json::obj;
use dynaplace_sim::spec::{
    BatchStreamSpec, GoalSpec, NodeGroupSpec, ProcessSpec, ScenarioSpec, WorkloadSpec,
};
use dynaplace_sim::{MetricsRetention, RunMetrics};

/// A purely generative scenario: `jobs` Poisson arrivals over a
/// `nodes`-node homogeneous cluster, ending when the capped stream
/// drains and the last job completes.
fn streaming_spec(nodes: usize, jobs: u64) -> ScenarioSpec {
    let spec = ScenarioSpec {
        seed: 11,
        scheduler: "apc".to_string(),
        cycle_secs: 300.0,
        horizon_secs: None,
        free_vm_costs: true,
        resources: vec![],
        nodes: vec![NodeGroupSpec {
            count: nodes,
            name: None,
            cpu_mhz: 6_000.0,
            memory_mb: 8_192.0,
            resources: Default::default(),
        }],
        jobs: vec![],
        txns: vec![],
        workload: Some(WorkloadSpec {
            batch_streams: vec![BatchStreamSpec {
                name: None,
                process: ProcessSpec::Poisson { rate_per_sec: 10.0 },
                count: Some(jobs),
                work_mcycles: 6_000.0,
                max_speed_mhz: 600.0,
                memory_mb: 256.0,
                goal: GoalSpec::Factor(20.0),
                tasks: 1,
                class: None,
                resources: Default::default(),
            }],
            txn_streams: vec![],
        }),
        node_failures: vec![],
        actuation: Default::default(),
        deadline_secs: None,
        sharding: None,
        observation: None,
        trace: Default::default(),
    };
    assert_eq!(spec.validate(), Ok(()));
    spec
}

fn run_streaming(spec: &ScenarioSpec) -> RunMetrics {
    let mut sim = spec
        .build_streaming_checked()
        .expect("bench specs are valid");
    sim.set_retention(MetricsRetention::Aggregate);
    sim.run()
}

/// Events the engine drained in a run: one arrival and one completion
/// per job, plus one control-cycle event per recorded sample.
fn events_drained(metrics: &RunMetrics) -> u64 {
    2 * metrics.completed_jobs() as u64 + metrics.samples.len() as u64
}

fn bench_streaming_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_throughput");
    group.sample_size(3);
    for &(nodes, jobs) in &[(100usize, 200u64), (1_000, 100)] {
        let spec = streaming_spec(nodes, jobs);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nodes}nodes")),
            &spec,
            |b, spec| b.iter(|| run_streaming(spec)),
        );
    }
    group.finish();

    // The headline number, machine-readable: one timed 1,000-node run
    // reduced to events/sec and written as BENCH_streaming.json for the
    // CI artifact.
    let spec = streaming_spec(1_000, 100);
    let started = Instant::now();
    let metrics = run_streaming(&spec);
    let elapsed = started.elapsed().as_secs_f64();
    let events = events_drained(&metrics);
    let report = obj([
        (
            "bench",
            dynaplace_json::Json::Str("streaming_throughput".to_string()),
        ),
        ("nodes", dynaplace_json::Json::Num(1_000.0)),
        (
            "jobs",
            dynaplace_json::Json::Num(metrics.completed_jobs() as f64),
        ),
        (
            "cycles",
            dynaplace_json::Json::Num(metrics.samples.len() as f64),
        ),
        ("events", dynaplace_json::Json::Num(events as f64)),
        ("elapsed_secs", dynaplace_json::Json::Num(elapsed)),
        (
            "events_per_sec",
            dynaplace_json::Json::Num(events as f64 / elapsed.max(1e-9)),
        ),
    ]);
    let out = std::env::var_os("BENCH_STREAMING_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            // crates/bench -> crates -> workspace root.
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("bench crate lives two levels below the workspace root")
                .join("BENCH_streaming.json")
        });
    let mut text = report.pretty();
    text.push('\n');
    std::fs::write(&out, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", out.display()));
    eprintln!(
        "streaming_throughput: {:.0} events/sec at 1000 nodes -> {}",
        events as f64 / elapsed.max(1e-9),
        out.display()
    );
}

criterion_group!(benches, bench_streaming_throughput);
criterion_main!(benches);
