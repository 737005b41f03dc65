//! Measurement: repeated instrumented runs of one workload, their output
//! checks, and the metrics reduced from them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dynaplace_sim::RunMetrics;
use dynaplace_trace::Phase;

use crate::kernels::{self, KernelTimes, Pass, Replayer};
use crate::outcome::{self, ratio, Outcomes};
use crate::probe::{phase_index, Probe, Tally};
use crate::workloads::{Mode, Workload};

/// Set-up samples per end-to-end run: builds are repeated until at
/// least this many exist and [`SETUP_SECS`] have passed. A build takes
/// from 0.1 to a few milliseconds, so one sample is mostly host noise;
/// the median of many is not.
const SETUPS: usize = 25;
const SETUP_SECS: f64 = 0.5;

/// What one measurement runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Busy-wait injected into every timed `fill_only` call.
    pub advice_delay: Duration,
}

/// Failure bookkeeping: operations attempted and failed, with messages.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Ledger {
    fn fail(&mut self, count: u64, message: String) {
        self.failed += count;
        self.messages.push(message);
    }

    /// Counts a run's jobs and control cycles as operations and applies
    /// the output checks to it.
    fn check_run(&mut self, label: &str, m: &RunMetrics, jobs: u64, horizon_bounded: bool) {
        self.attempted += jobs + m.samples.len() as u64;
        let undrained = jobs.saturating_sub(m.completed_jobs() as u64);
        for failure in outcome::check(m, jobs, horizon_bounded) {
            let count = if horizon_bounded { 1 } else { undrained.max(1) };
            self.fail(count, format!("{label}: {failure}"));
        }
    }

    /// The checks only an instrumented run has: no truncated pass, and
    /// the wrapper's view of each cycle agreeing with the engine's own
    /// sample.
    fn check_instrumented(&mut self, label: &str, m: &RunMetrics, t: &Tally) {
        let truncated = t.place.timed_out + t.advice.timed_out + t.ends_timed_out;
        if truncated > 0 {
            self.fail(
                truncated,
                format!("{label}: {truncated} optimizer passes timed out"),
            );
        }
        if t.place_secs.len() != m.samples.len() {
            self.fail(
                1,
                format!(
                    "{label}: {} place calls for {} control cycles",
                    t.place_secs.len(),
                    m.samples.len()
                ),
            );
        } else if let Some((i, (place, sample))) = t
            .place_secs
            .iter()
            .zip(&m.samples)
            .enumerate()
            .find(|(_, (place, sample))| **place > sample.placement_compute_secs)
        {
            self.fail(
                1,
                format!(
                    "{label}: cycle {i}: place took {place}s, longer than the {}s \
                     the engine measured around it",
                    sample.placement_compute_secs
                ),
            );
        }
    }
}

/// How one simulation run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Plain,
    /// The policy timer; `capture` keeps problems for replay.
    Timed {
        capture: bool,
    },
    Traced,
}

/// One simulation run, reduced to what the metrics need.
struct Rep {
    setup_s: f64,
    /// Source seconds spent inside the build.
    setup_source_s: f64,
    /// Host seconds of the run without the instruments' own work.
    run_s: f64,
    events: u64,
    tally: Tally,
}

/// Several runs added up: the simulations of one sub-seed set.
#[derive(Default)]
struct Round {
    setup_s: f64,
    setup_source_s: f64,
    run_s: f64,
    events: u64,
    tally: Tally,
}

impl Round {
    fn add(&mut self, rep: Rep) {
        self.setup_s += rep.setup_s;
        self.setup_source_s += rep.setup_source_s;
        self.run_s += rep.run_s;
        self.events += rep.events;
        self.tally.absorb(rep.tally);
    }

    fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

struct Runner {
    plan: Plan,
    seeds: Vec<u64>,
    /// Digest of each sub-seed's uninstrumented run, once made.
    references: Vec<Option<u64>>,
    /// Simulated outcomes of the uninstrumented runs.
    outcomes: Outcomes,
    ledger: Ledger,
}

impl Runner {
    /// Builds and runs sub-seed `k` once, checking the result. Plain runs
    /// set (and then re-check) the sub-seed's reference digest; every
    /// instrumented run must match it bit for bit.
    fn run(&mut self, k: usize, kind: Kind) -> Rep {
        let plan = self.plan;
        let seed = self.seeds[k];
        let capture = kind == Kind::Timed { capture: true };
        let probe = Probe::new(plan.advice_delay, capture);
        let mode = match kind {
            Kind::Plain => Mode::Plain,
            Kind::Timed { .. } => Mode::Timed(Arc::clone(&probe)),
            Kind::Traced => Mode::Traced(Arc::clone(&probe)),
        };
        let started = Instant::now();
        let built = plan.workload.build(seed, &mode);
        let setup_s = started.elapsed().as_secs_f64();
        let setup_source_s = probe.source_s();
        let (jobs, horizon_bounded) = (built.jobs, built.horizon_bounded);
        let started = Instant::now();
        let metrics = built.sim.run();
        let run_s = started.elapsed().as_secs_f64();
        let tally = probe.take();

        let label = format!("{} seed {seed} {kind:?}", plan.workload.name());
        self.ledger
            .check_run(&label, &metrics, jobs, horizon_bounded);
        let digest = outcome::digest(&metrics);
        match (kind, self.references[k]) {
            (Kind::Plain, None) => {
                self.references[k] = Some(digest);
                self.outcomes.add(&metrics);
            }
            (_, Some(reference)) if digest != reference => self.ledger.fail(
                1,
                format!(
                    "{label}: simulated outputs differ from the uninstrumented run \
                     ({digest:016x} vs {reference:016x})"
                ),
            ),
            (_, Some(_)) => {}
            (_, None) => unreachable!("an instrumented run before its reference"),
        }
        if kind != Kind::Plain {
            self.ledger.check_instrumented(&label, &metrics, &tally);
        }
        Rep {
            setup_s,
            setup_source_s,
            run_s: run_s - tally.instrument_s,
            events: outcome::events(&metrics),
            tally,
        }
    }

    fn sims(&self) -> usize {
        self.seeds.len()
    }

    /// One digest for the whole sub-seed set.
    fn digest(&self) -> u64 {
        self.references
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h: u64, d| {
                (h ^ d.unwrap_or(0)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }
}

/// An ordered list of `(name, value, unit)` metrics.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The result of one measurement.
#[derive(Debug)]
pub struct Measured {
    pub digest: u64,
    pub metrics: Metrics,
    pub ledger: Ledger,
}

/// Runs the plan for `plan.seconds`: one uninstrumented run of each of
/// the workload's sub-seeds, then rounds of instrumented runs over them,
/// each checked against its uninstrumented twin.
pub fn measure(plan: Plan) -> Measured {
    let seeds = plan.workload.sub_seeds(plan.seed);
    let mut runner = Runner {
        plan,
        references: vec![None; seeds.len()],
        seeds,
        outcomes: Outcomes::default(),
        ledger: Ledger::default(),
    };
    let metrics = if plan.trace {
        per_layer(&mut runner)
    } else {
        end_to_end(&mut runner)
    };
    Measured {
        digest: runner.digest(),
        metrics,
        ledger: runner.ledger,
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Percentile by linear interpolation between closest ranks.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Per-call latencies of `place` and `fill_only`, in milliseconds.
#[derive(Default)]
struct Latencies {
    place_ms: Vec<f64>,
    advice_ms: Vec<f64>,
}

fn millis(secs: &[f64]) -> impl Iterator<Item = f64> + '_ {
    secs.iter().map(|s| s * 1e3)
}

impl Latencies {
    fn add(&mut self, t: &Tally) {
        self.place_ms.extend(millis(&t.place_secs));
        self.advice_ms.extend(millis(&t.advice_secs));
    }

    /// A replayed pass's latencies stand in for the engine's own calls
    /// of it, which see no live state.
    fn take_replay(&mut self, replayer: Option<&Replayer>) {
        if let Some(replayer) = replayer {
            let ms = match replayer.pass() {
                Pass::Place => &mut self.place_ms,
                Pass::Advice => &mut self.advice_ms,
            };
            *ms = millis(&replayer.medians()).collect();
        }
    }

    /// Prints each distribution's sample count and how many samples lie
    /// beyond its 95th percentile (a tail is resolved with ten or more).
    fn describe(&self) {
        for (name, ms) in [("place", &self.place_ms), ("advice", &self.advice_ms)] {
            let p95 = percentile(ms, 0.95);
            let beyond = ms.iter().filter(|&&v| v > p95).count();
            let note = if beyond >= 10 {
                ""
            } else {
                " (tail unresolved)"
            };
            eprintln!(
                "  {name}: n={} p50={:.4}ms p95={p95:.4}ms, {beyond} beyond p95{note}",
                ms.len(),
                median(ms)
            );
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median time to build the workload's first simulation, uninstrumented.
fn setup_secs(plan: &Plan, seed: u64) -> f64 {
    let started = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < SETUPS || started.elapsed().as_secs_f64() < SETUP_SECS {
        let build_started = Instant::now();
        let built = plan.workload.build(seed, &Mode::Plain);
        setups.push(build_started.elapsed().as_secs_f64());
        drop(built);
    }
    median(&setups)
}

/// Calls each replayed problem gets at least.
const REPLAY_CALLS: usize = 5;

/// The workload's replayer, where the engine makes no live call of a
/// pass (see [`kernels::Replayer`]).
fn replayer(w: Workload) -> Option<Replayer> {
    w.replayed()
        .map(|(pass, policy)| Replayer::new(policy, pass))
}

fn end_to_end(runner: &mut Runner) -> Metrics {
    let plan = runner.plan;
    let started = Instant::now();
    for k in 0..runner.sims() {
        runner.run(k, Kind::Plain);
    }
    // The program's own peak, before the benchmark piles up samples.
    let peak_rss = peak_rss_mb();
    let setup = setup_secs(&plan, runner.seeds[0]);
    let mut events_per_s = Vec::new();
    let mut latencies = Latencies::default();
    let mut replayer = replayer(plan.workload);
    while events_per_s.is_empty() || started.elapsed().as_secs_f64() < plan.seconds {
        // The first round keeps problems to replay; a sweep follows each
        // run from then on.
        let capture = events_per_s.is_empty() && replayer.is_some();
        let mut round = Round::default();
        for k in 0..runner.sims() {
            let mut rep = runner.run(k, Kind::Timed { capture });
            if let Some(replayer) = &mut replayer {
                replayer.add(std::mem::take(&mut rep.tally.captured));
                replayer.sweep();
            }
            round.add(rep);
        }
        latencies.add(&round.tally);
        events_per_s.push(round.events as f64 / round.run_s);
    }
    if let Some(replayer) = &mut replayer {
        replayer.top_up(REPLAY_CALLS);
    }
    latencies.take_replay(replayer.as_ref());
    eprintln!(
        "{}: {} rounds of {} simulations in {:.1}s, events/s by round {:.1?}",
        plan.workload.name(),
        events_per_s.len(),
        runner.sims(),
        started.elapsed().as_secs_f64(),
        events_per_s
    );
    latencies.describe();
    let o = &runner.outcomes;
    let mut m = Metrics::default();
    m.push("events_per_s", median(&events_per_s), "1/s");
    m.push("cycle_ms_p50", median(&latencies.place_ms), "ms");
    m.push("advice_ms_p50", median(&latencies.advice_ms), "ms");
    m.push("setup_s", setup, "s");
    m.push("peak_rss_mb", peak_rss, "MB");
    m.push("deadline_met_frac", o.deadline_met_frac(), "frac");
    m.push("mean_completion_u", o.mean_completion_u(), "u");
    m.push("placement_ops", o.placement_ops as f64, "count");
    m
}

/// A traced round's time split into the engine's parts. The engine's
/// self time is the loop's wall time minus the source, `place` and
/// advice time inside it; its phase spans cover part of that.
struct Split {
    engine_self: f64,
    actuate: f64,
    sample: f64,
    /// The optimize span minus the `place` call: cycle problem
    /// construction.
    problem: f64,
    /// Engine self time no phase span covers: event loop, progress,
    /// advice-problem construction.
    unattributed: f64,
    /// All phase spans together.
    spans: f64,
}

impl Split {
    fn of(round: &Round) -> Self {
        let t = &round.tally;
        let source_in_run = t.source_s - round.setup_source_s;
        let engine_self = round.run_s - t.place.busy_s - t.advice.busy_s - source_in_run;
        let phase = |p: Phase| t.phase_s[phase_index(p)];
        let actuate = phase(Phase::Actuate) + phase(Phase::Reconcile);
        let sample = phase(Phase::Sample);
        let problem = phase(Phase::Optimize) - t.place.busy_s;
        Split {
            engine_self,
            actuate,
            sample,
            problem,
            unattributed: engine_self - actuate - sample - problem,
            spans: t.phase_s.iter().sum(),
        }
    }
}

impl Ledger {
    /// The timed layers must nest inside the loop without overlapping:
    /// the phase spans fit in the loop's wall time, the `place` calls in
    /// the optimize spans, and neither the engine's self time nor its
    /// unattributed part comes out negative.
    fn check_split(&mut self, label: &str, round: &Round, split: &Split) {
        let mut fail = |what: String| self.fail(1, format!("{label}: {what}"));
        if split.spans > round.run_s {
            fail(format!(
                "phase spans sum to {}s, more than the loop's {}s",
                split.spans, round.run_s
            ));
        }
        if split.problem < 0.0 {
            fail(format!(
                "place calls took {}s more than the optimize spans around them",
                -split.problem
            ));
        }
        if split.engine_self < 0.0 {
            fail(format!(
                "source, place and advice took {}s more than the loop",
                -split.engine_self
            ));
        }
        if split.unattributed < 0.0 {
            fail(format!(
                "layers and phase spans overlap by {}s",
                -split.unattributed
            ));
        }
    }
}

/// The per-layer metrics of one traced round.
fn layer_metrics(
    round: &Round,
    untraced_wall: f64,
    kernels: &KernelTimes,
    outcomes: &Outcomes,
) -> Metrics {
    let t = &round.tally;
    let split = Split::of(round);
    let engine_self = split.engine_self;
    let events = round.events as f64;
    let wall = round.wall_s();
    let advice = &t.advice;
    let c = &t.cache;
    let hit = |h: u64, miss: u64| ratio(h as f64, (h + miss) as f64);
    let mut m = Metrics::default();
    m.push("source.submissions", t.submissions as f64, "count");
    m.push("source.busy_s", t.source_s, "s");
    m.push("engine.events", events, "count");
    m.push("engine.self_s", engine_self, "s");
    m.push(
        "engine.us_per_event",
        ratio(1e6 * engine_self, events),
        "us",
    );
    m.push("engine.actuate_s", split.actuate, "s");
    m.push("engine.problem_s", split.problem, "s");
    m.push("engine.sample_s", split.sample, "s");
    m.push("engine.unattributed_s", split.unattributed, "s");
    m.push("place.calls", t.place.calls as f64, "count");
    m.push("place.busy_s", t.place.busy_s, "s");
    m.push("place.evaluations", t.place.evaluations as f64, "count");
    m.push("place.sweeps", t.place.sweeps as f64, "count");
    m.push("place.adoptions", t.place.adoptions as f64, "count");
    m.push(
        "place.adoption_ratio",
        ratio(t.place.adoptions as f64, t.place.evaluations as f64),
        "frac",
    );
    m.push(
        "place.us_per_evaluation",
        ratio(1e6 * t.place.busy_s, t.place.evaluations as f64),
        "us",
    );
    m.push(
        "place.timed_out",
        (t.place.timed_out + t.ends_timed_out) as f64,
        "count",
    );
    m.push("advice.calls", advice.calls as f64, "count");
    m.push("advice.busy_s", advice.busy_s, "s");
    m.push("advice.evaluations", advice.evaluations as f64, "count");
    m.push("advice.adoptions", advice.adoptions as f64, "count");
    m.push(
        "advice.us_per_call",
        ratio(1e6 * advice.busy_s, advice.calls as f64),
        "us",
    );
    m.push(
        "cache.score_hit_ratio",
        hit(c.score_hits, c.score_misses),
        "frac",
    );
    m.push(
        "cache.demand_hit_ratio",
        hit(c.demand_hits, c.demand_misses),
        "frac",
    );
    m.push(
        "cache.batch_hit_ratio",
        hit(c.batch_hits, c.batch_misses),
        "frac",
    );
    m.push(
        "cache.column_hit_ratio",
        hit(c.column_hits, c.column_misses),
        "frac",
    );
    m.push("cache.score_misses", c.score_misses as f64, "count");
    m.push("cache.column_misses", c.column_misses as f64, "count");
    m.push("load.distribute_us", kernels.distribute_us, "us");
    m.push("evaluate.score_us", kernels.score_us, "us");
    m.push("hypothetical.build_us", kernels.hypothetical_build_us, "us");
    m.push("hypothetical.query_us", kernels.hypothetical_query_us, "us");
    m.push("shard.cell_passes", t.cell_passes as f64, "count");
    m.push("shard.cell_evaluations", t.cell_evaluations as f64, "count");
    m.push("shard.escalations", t.escalations as f64, "count");
    m.push("shard.rebalance_moves", t.rebalance_moves as f64, "count");
    m.push("sim.batch_hypo_u_mean", outcomes.batch_hypo_u_mean(), "u");
    m.push("sim.txn_u_mean", outcomes.txn_u_mean(), "u");
    m.push(
        "sim.disruptive_changes",
        outcomes.disruptive_changes as f64,
        "count",
    );
    m.push("trace.overhead_frac", wall / untraced_wall - 1.0, "frac");
    m.push(
        "layers.sum_frac",
        (t.source_s + engine_self + t.place.busy_s + t.advice.busy_s) / wall,
        "frac",
    );
    m
}

fn per_layer(runner: &mut Runner) -> Metrics {
    let plan = runner.plan;
    let w = plan.workload;
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut latencies = Latencies::default();
    let mut traced: Vec<Round> = Vec::new();
    let mut captured = Vec::new();
    for k in 0..runner.sims() {
        runner.run(k, Kind::Plain);
    }
    while traced.is_empty() || started.elapsed().as_secs_f64() < plan.seconds {
        // Timed and traced twins back to back, so drift on the host hits
        // both. The first timed twin keeps problems for replay, outside
        // the traced rounds whose spans the metrics split.
        let capture = traced.is_empty();
        let (mut timed, mut tracing) = (Round::default(), Round::default());
        for k in 0..runner.sims() {
            timed.add(runner.run(k, Kind::Timed { capture }));
            tracing.add(runner.run(k, Kind::Traced));
        }
        untraced.push(timed.wall_s());
        latencies.add(&timed.tally);
        captured.append(&mut timed.tally.captured);
        traced.push(tracing);
    }
    let kernels = kernels::replay(&captured);
    let mut replayer = replayer(w);
    if let Some(replayer) = &mut replayer {
        replayer.add(captured);
        replayer.top_up(REPLAY_CALLS);
    }
    eprintln!(
        "{}: {} traced rounds of {} simulations in {:.1}s, {} captured problems replayed",
        w.name(),
        traced.len(),
        runner.sims(),
        started.elapsed().as_secs_f64(),
        kernels.problems
    );
    for (i, round) in traced.iter().enumerate() {
        let label = format!("{} seed {} traced round {i}", w.name(), plan.seed);
        runner.ledger.check_split(&label, round, &Split::of(round));
    }
    let untraced_wall = median(&untraced);
    let per_round: Vec<Metrics> = traced
        .iter()
        .map(|round| layer_metrics(round, untraced_wall, &kernels, &runner.outcomes))
        .collect();
    // Median of each metric across the traced rounds.
    let mut m = Metrics::default();
    for (i, &(name, _, unit)) in per_round[0].0.iter().enumerate() {
        let values: Vec<f64> = per_round.iter().map(|r| r.0[i].1).collect();
        m.push(name, median(&values), unit);
    }
    let (problems, ms) = replayer.as_ref().map_or((0, 0.0), |r| {
        let secs = r.medians();
        (secs.len(), 1e3 * median(&secs))
    });
    m.push("replay.problems", problems as f64, "count");
    m.push("replay.ms_p50", ms, "ms");
    latencies.take_replay(replayer.as_ref());
    // Latency tails, from the untraced twins.
    latencies.describe();
    m.push("place.ms_p95", percentile(&latencies.place_ms, 0.95), "ms");
    m.push(
        "place.latency_samples",
        latencies.place_ms.len() as f64,
        "count",
    );
    m.push(
        "advice.ms_p95",
        percentile(&latencies.advice_ms, 0.95),
        "ms",
    );
    m.push(
        "advice.latency_samples",
        latencies.advice_ms.len() as f64,
        "count",
    );
    m
}
