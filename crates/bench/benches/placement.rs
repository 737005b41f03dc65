//! Criterion benches for the placement controller's hot paths.
//!
//! The paper reports ≈1.5 s per control cycle for the Experiment One
//! system (25 nodes, hundreds of jobs) on a 3.2 GHz Xeon;
//! `placement_cycle` measures the same computation here.

use std::collections::BTreeMap;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dynaplace_apc::optimizer::{place, place_traced, ApcConfig, ScoringMode};
use dynaplace_apc::problem::{PlacementProblem, WorkloadModel};
use dynaplace_apc::ShardingPolicy;
use dynaplace_apc::{distribute, score_placement};
use dynaplace_batch::hypothetical::{HypotheticalRpf, JobSnapshot};
use dynaplace_batch::job::JobProfile;
use dynaplace_model::prelude::*;
use dynaplace_rpf::goal::CompletionGoal;
use dynaplace_sim::scenario::experiment_one_cluster;
use dynaplace_trace::{JsonlSink, NoopSink, TraceLevel};

struct World {
    cluster: Cluster,
    apps: AppSet,
    workloads: BTreeMap<AppId, WorkloadModel>,
    current: Placement,
}

/// Builds an Experiment One-like state: `jobs` identical jobs, the first
/// `running` of them already placed three-per-node.
fn exp1_world(jobs: usize, running: usize) -> World {
    let cluster = experiment_one_cluster();
    let mut apps = AppSet::new();
    let mut workloads = BTreeMap::new();
    let mut current = Placement::new();
    let profile = Arc::new(JobProfile::single_stage(
        Work::from_mcycles(68_640_000.0),
        CpuSpeed::from_mhz(3_900.0),
        Memory::from_mb(4_320.0),
    ));
    let cycle = SimDuration::from_secs(600.0);
    for i in 0..jobs {
        let app = apps.add(ApplicationSpec::batch(
            Memory::from_mb(4_320.0),
            CpuSpeed::from_mhz(3_900.0),
        ));
        let arrival = SimTime::from_secs(i as f64 * 260.0);
        let goal = CompletionGoal::from_goal_factor(arrival, profile.min_execution_time(), 2.7);
        let placed = i < running;
        // Stagger progress so jobs are not identical at decision time.
        let consumed = if placed {
            Work::from_mcycles(1_000_000.0 * (i % 17) as f64)
        } else {
            Work::ZERO
        };
        let snap = JobSnapshot::new(
            app,
            goal,
            Arc::clone(&profile),
            consumed,
            if placed { SimDuration::ZERO } else { cycle },
        );
        workloads.insert(app, WorkloadModel::Batch(snap));
        if placed {
            current.place(app, NodeId::new((i % 25) as u32));
        }
    }
    World {
        cluster,
        apps,
        workloads,
        current,
    }
}

/// Like [`exp1_world`] but on a cluster of `nodes` Experiment One-spec
/// nodes instead of the fixed 25, with load scaled to the cluster: three
/// jobs per node, two of them already running.
fn sized_world(nodes: usize) -> World {
    let cluster = Cluster::homogeneous(
        nodes,
        NodeSpec::try_new(CpuSpeed::from_mhz(4.0 * 3_900.0), Memory::from_mb(16_384.0))
            .expect("valid node capacities"),
    );
    let jobs = nodes * 3;
    let running = nodes * 2;
    let mut apps = AppSet::new();
    let mut workloads = BTreeMap::new();
    let mut current = Placement::new();
    let profile = Arc::new(JobProfile::single_stage(
        Work::from_mcycles(68_640_000.0),
        CpuSpeed::from_mhz(3_900.0),
        Memory::from_mb(4_320.0),
    ));
    let cycle = SimDuration::from_secs(600.0);
    for i in 0..jobs {
        let app = apps.add(ApplicationSpec::batch(
            Memory::from_mb(4_320.0),
            CpuSpeed::from_mhz(3_900.0),
        ));
        let arrival = SimTime::from_secs(i as f64 * 260.0);
        let goal = CompletionGoal::from_goal_factor(arrival, profile.min_execution_time(), 2.7);
        let placed = i < running;
        let consumed = if placed {
            Work::from_mcycles(1_000_000.0 * (i % 17) as f64)
        } else {
            Work::ZERO
        };
        let snap = JobSnapshot::new(
            app,
            goal,
            Arc::clone(&profile),
            consumed,
            if placed { SimDuration::ZERO } else { cycle },
        );
        workloads.insert(app, WorkloadModel::Batch(snap));
        if placed {
            current.place(app, NodeId::new((i % nodes) as u32));
        }
    }
    World {
        cluster,
        apps,
        workloads,
        current,
    }
}

fn problem(world: &World) -> PlacementProblem<'_> {
    PlacementProblem::new(
        &world.cluster,
        &world.apps,
        world.workloads.clone(),
        &world.current,
        SimTime::from_secs(100_000.0),
        SimDuration::from_secs(600.0),
        Default::default(),
    )
    .expect("bench worlds are well-formed")
}

fn bench_placement_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement_cycle");
    group.sample_size(20);
    for &(jobs, running) in &[(75usize, 75usize), (150, 75), (300, 75)] {
        let world = exp1_world(jobs, running);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{jobs}jobs")),
            &world,
            |b, world| {
                let config = ApcConfig::default();
                b.iter(|| place(&problem(world), &config));
            },
        );
    }
    group.finish();
}

fn bench_score_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("score_placement");
    for &jobs in &[75usize, 300] {
        let world = exp1_world(jobs, 75);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{jobs}jobs")),
            &world,
            |b, world| {
                let p = problem(world);
                b.iter(|| score_placement(&p, &world.current));
            },
        );
    }
    group.finish();
}

fn bench_load_distribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("load_distribution");
    for &jobs in &[75usize, 300] {
        let world = exp1_world(jobs, 75);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{jobs}jobs")),
            &world,
            |b, world| {
                let p = problem(world);
                b.iter(|| distribute(&p, &world.current));
            },
        );
    }
    group.finish();
}

fn bench_hypothetical(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypothetical_rpf");
    for &jobs in &[75usize, 300, 800] {
        let world = exp1_world(jobs, 75);
        let snaps: Vec<JobSnapshot> = world
            .workloads
            .values()
            .filter_map(|m| m.as_batch().cloned())
            .collect();
        let now = SimTime::from_secs(100_000.0);
        group.bench_with_input(
            BenchmarkId::new("build", format!("{jobs}jobs")),
            &snaps,
            |b, snaps| b.iter(|| HypotheticalRpf::new(now, snaps)),
        );
        let hypo = HypotheticalRpf::new(now, &snaps);
        group.bench_with_input(
            BenchmarkId::new("query", format!("{jobs}jobs")),
            &hypo,
            |b, hypo| b.iter(|| hypo.performances(CpuSpeed::from_mhz(250_000.0))),
        );
    }
    group.finish();
}

/// Ablation: the paper-narrative configuration (coarser start threshold)
/// against the default, on the same decision problem.
fn bench_config_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("config_ablation");
    group.sample_size(20);
    let world = exp1_world(150, 75);
    for (name, config) in [
        ("default", ApcConfig::default()),
        ("paper_narrative", ApcConfig::paper_narrative()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, config| {
            b.iter(|| place(&problem(&world), config));
        });
    }
    group.finish();
}

/// The headline comparison for the incremental-scoring work: the seed
/// serial path ([`ScoringMode::FromScratch`]) against memoized scoring
/// ([`ScoringMode::Incremental`]) on the full `place` cycle at three
/// cluster sizes. Single-threaded on purpose — the win measured here is
/// the cache, not parallelism.
fn bench_scoring_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("scoring_mode");
    group.sample_size(10);
    for &nodes in &[10usize, 50, 200] {
        let world = sized_world(nodes);
        for (name, scoring) in [
            ("from_scratch", ScoringMode::FromScratch),
            ("incremental", ScoringMode::Incremental),
        ] {
            let config = ApcConfig::builder()
                .scoring(scoring)
                .build()
                .expect("valid scoring-mode config");
            group.bench_with_input(
                BenchmarkId::new(name, format!("{nodes}nodes")),
                &world,
                |b, world| b.iter(|| place(&problem(world), &config)),
            );
        }
    }
    group.finish();
}

/// The headline comparison for the cell-sharding work: one whole-cluster
/// `place` cycle against the sharded solve at thousand-node scale. The
/// acceptance bar is a ≥4× per-cycle speedup at 1,000 nodes; 2,000 nodes
/// shows the scaling trend. The unsharded arm is capped at 1,000 nodes —
/// one classic cycle at 2,000 already takes minutes.
fn bench_sharded_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_scaling");
    group.sample_size(10);
    for &nodes in &[1_000usize, 2_000] {
        let world = sized_world(nodes);
        if nodes <= 1_000 {
            let config = ApcConfig::builder()
                .build()
                .expect("valid unsharded config");
            group.bench_with_input(
                BenchmarkId::new("unsharded", format!("{nodes}nodes")),
                &world,
                |b, world| b.iter(|| place(&problem(world), &config)),
            );
        }
        let config = ApcConfig::builder()
            .sharding(Some(ShardingPolicy::new(64)))
            .build()
            .expect("valid sharded config");
        group.bench_with_input(
            BenchmarkId::new("sharded_64", format!("{nodes}nodes")),
            &world,
            |b, world| b.iter(|| place(&problem(world), &config)),
        );
    }
    group.finish();
}

/// Cost of decision-provenance tracing on the full `place` cycle at 50
/// nodes. The contract is that the no-op sink is free (it is the default
/// everywhere) and that a buffering JSONL sink at `decisions` level
/// stays within 5% of it; `verbose` additionally records the per-node
/// loop and every rejected candidate, so it is allowed to cost more.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    let world = sized_world(50);
    let config = ApcConfig::default();
    group.bench_with_input(BenchmarkId::from_parameter("noop"), &world, |b, world| {
        b.iter(|| place_traced(&problem(world), &config, &NoopSink));
    });
    for (name, level) in [
        ("jsonl_decisions", TraceLevel::Decisions),
        ("jsonl_verbose", TraceLevel::Verbose),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &world, |b, world| {
            b.iter(|| {
                let sink = JsonlSink::new(level);
                place_traced(&problem(world), &config, &sink)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_placement_cycle,
    bench_scoring_mode,
    bench_sharded_scaling,
    bench_trace_overhead,
    bench_score_placement,
    bench_load_distribution,
    bench_hypothetical,
    bench_config_ablation
);
criterion_main!(benches);
