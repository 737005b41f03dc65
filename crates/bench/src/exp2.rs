//! Shared Experiment Two sweep (feeds Figs. 3, 4, and 5).
//!
//! The paper submits jobs until 800 complete, for eight inter-arrival
//! times (400 → 50 s) and three schedulers (FCFS, EDF, APC). The sweep
//! is embarrassingly parallel, so runs execute on a scoped thread pool,
//! one worker per (inter-arrival, scheduler) pair up to the machine's
//! parallelism. Results are cached as JSON under `results/` so the three
//! figure binaries don't re-simulate.

use std::sync::Mutex;

use dynaplace_json::{json_object, FromJson, Json};
use dynaplace_sim::engine::SimConfig;
use dynaplace_sim::metrics::RunMetrics;
use dynaplace_sim::scenario::experiment_two;

use crate::output::{results_dir, write_json};

/// The paper's eight inter-arrival times, in seconds.
pub const EXP2_INTER_ARRIVALS: [f64; 8] = [400.0, 350.0, 300.0, 250.0, 200.0, 150.0, 100.0, 50.0];

/// One completed Experiment Two run.
#[derive(Debug, Clone)]
pub struct Exp2Run {
    /// Scheduler name: `FCFS`, `EDF`, or `APC`.
    pub scheduler: String,
    /// Mean inter-arrival time in seconds.
    pub inter_arrival: f64,
    /// The full metrics of the run.
    pub metrics: RunMetrics,
}

json_object!(Exp2Run {
    scheduler,
    inter_arrival,
    metrics,
});

fn scheduler_configs() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("FCFS", SimConfig::fcfs_default()),
        ("EDF", SimConfig::edf_default()),
        ("APC", SimConfig::apc_default()),
    ]
}

/// Runs (or loads from cache) the full sweep: `jobs` jobs per run, all
/// eight inter-arrival times, all three schedulers.
///
/// Pass `jobs = 800` for the paper-scale sweep; smaller values are
/// useful for quick shape checks. The cache key includes `seed` and
/// `jobs`.
pub fn run_experiment_two_sweep(seed: u64, jobs: usize) -> Vec<Exp2Run> {
    let cache_name = format!("exp2_sweep_seed{seed}_jobs{jobs}");
    let cache_path = results_dir().join(format!("{cache_name}.json"));
    if let Ok(data) = std::fs::read_to_string(&cache_path) {
        if let Ok(runs) = Json::parse(&data).and_then(|v| Vec::<Exp2Run>::from_json(&v)) {
            eprintln!("loaded cached sweep from {}", cache_path.display());
            return runs;
        }
    }

    let mut work: Vec<(String, f64, SimConfig)> = Vec::new();
    for &ia in &EXP2_INTER_ARRIVALS {
        for (name, config) in scheduler_configs() {
            work.push((name.to_string(), ia, config));
        }
    }

    let results: Mutex<Vec<Exp2Run>> = Mutex::new(Vec::with_capacity(work.len()));
    let next: Mutex<usize> = Mutex::new(0);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(work.len());

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = {
                    let mut n = next.lock().expect("claim lock");
                    let i = *n;
                    *n += 1;
                    i
                };
                if index >= work.len() {
                    break;
                }
                let (name, ia, config) = &work[index];
                let started = std::time::Instant::now();
                let metrics = experiment_two(seed, jobs, *ia, config.clone()).run();
                eprintln!(
                    "  {name:<4} ia={ia:>5.0}s: {} completions, met {:.1}%, {} changes ({:.1?})",
                    metrics.completions.len(),
                    metrics.deadline_met_ratio().unwrap_or(0.0) * 100.0,
                    metrics.changes.disruptive_total(),
                    started.elapsed()
                );
                results.lock().expect("results lock").push(Exp2Run {
                    scheduler: name.clone(),
                    inter_arrival: *ia,
                    metrics,
                });
            });
        }
    });

    let mut runs = results.into_inner().expect("results lock");
    runs.sort_by(|a, b| {
        a.inter_arrival
            .total_cmp(&b.inter_arrival)
            .reverse()
            .then_with(|| a.scheduler.cmp(&b.scheduler))
    });
    write_json(&cache_name, &runs);
    runs
}

/// Looks up the run for a (scheduler, inter-arrival) pair.
pub fn find_run<'a>(runs: &'a [Exp2Run], scheduler: &str, ia: f64) -> &'a Exp2Run {
    runs.iter()
        .find(|r| r.scheduler == scheduler && (r.inter_arrival - ia).abs() < 1e-9)
        .unwrap_or_else(|| panic!("missing run {scheduler}@{ia}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The checked-in sweep cache must still decode: the sweep silently
    /// re-simulates (for hours at paper scale) when decoding fails, so a
    /// codec change that broke it would otherwise go unnoticed.
    #[test]
    fn checked_in_sweep_cache_decodes() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../results/exp2_sweep_seed42_jobs800.json");
        let text = std::fs::read_to_string(&path).expect("checked-in sweep cache");
        let runs = Vec::<Exp2Run>::from_json(&Json::parse(&text).expect("cache parses"))
            .expect("cache decodes as Vec<Exp2Run>");
        assert_eq!(
            runs.len(),
            EXP2_INTER_ARRIVALS.len() * scheduler_configs().len()
        );
        assert!(runs.iter().all(|r| r.metrics.completed_jobs() > 0));
    }
}
