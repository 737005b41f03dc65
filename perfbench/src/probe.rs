//! Instruments that time the program's layers from outside, through
//! their public interfaces:
//!
//! - [`TimedPolicy`] forwards every [`PlacementPolicy`] call to the
//!   wrapped policy and times `place` (the control-cycle pass) and
//!   `fill_only` (between-cycle advice);
//! - [`TimedSource`] forwards a [`WorkloadSource`] and times its
//!   submission draws;
//! - [`CountingSink`] is a [`TraceSink`] that folds the program's own
//!   `PhaseSpan`, `OptimizeEnd`, `CachePassStats` and `Cell*` events into
//!   counters instead of buffering them.
//!
//! All three write into one shared [`Probe`].

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dynaplace_apc::optimizer::{ApcConfig, PlacementOutcome};
use dynaplace_apc::policy::{PlacementPolicy, PolicyClass, PolicyHandle};
use dynaplace_apc::problem::PlacementProblem;
use dynaplace_model::units::SimTime;
use dynaplace_sim::source::{Submission, WorkloadSource};
use dynaplace_trace::{CacheCounters, Phase, TraceEvent, TraceLevel, TraceSink};

use crate::kernels::{Captured, Pass};

/// Totals over the calls of one optimizer entry point.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassTotals {
    pub calls: u64,
    pub busy_s: f64,
    pub evaluations: u64,
    pub sweeps: u64,
    pub adoptions: u64,
    pub timed_out: u64,
}

impl PassTotals {
    fn add(&mut self, secs: f64, outcome: &PlacementOutcome) {
        self.calls += 1;
        self.busy_s += secs;
        self.evaluations += outcome.stats.evaluations as u64;
        self.sweeps += outcome.stats.sweeps as u64;
        self.adoptions += outcome.stats.adoptions as u64;
        self.timed_out += u64::from(outcome.timed_out);
    }

    fn absorb(&mut self, other: &PassTotals) {
        self.calls += other.calls;
        self.busy_s += other.busy_s;
        self.evaluations += other.evaluations;
        self.sweeps += other.sweeps;
        self.adoptions += other.adoptions;
        self.timed_out += other.timed_out;
    }
}

/// Everything the instruments observed during one simulation run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Host seconds of each engine `place` call, in call order.
    pub place_secs: Vec<f64>,
    /// Host seconds of each engine `fill_only` call, in call order.
    pub advice_secs: Vec<f64>,
    pub place: PassTotals,
    pub advice: PassTotals,
    /// Submissions the timed source yielded.
    pub submissions: u64,
    /// Host seconds spent inside the source's `peek`/`next`.
    pub source_s: f64,
    /// Summed `PhaseSpan::wall_secs`, indexed by [`phase_index`].
    pub phase_s: [f64; 4],
    /// Cache counters summed over `place` passes.
    pub cache: CacheCounters,
    /// `OptimizeEnd` events that reported a truncated pass.
    pub ends_timed_out: u64,
    pub cell_passes: u64,
    pub cell_evaluations: u64,
    pub escalations: u64,
    pub rebalance_moves: u64,
    /// Problems captured for kernel replay, with the placement the
    /// optimizer chose for each.
    pub captured: Vec<Captured>,
    /// Host seconds the instruments spent copying captured problems
    /// inside the run: not program work, so left out of the run's wall
    /// time. Only untraced runs capture, so no phase span holds it.
    pub instrument_s: f64,
    /// Whether a `place` call is running (cache counters are counted
    /// over `place` passes only).
    in_place: bool,
}

impl Tally {
    /// Adds another run's observations to these.
    pub fn absorb(&mut self, other: Tally) {
        self.place_secs.extend(other.place_secs);
        self.advice_secs.extend(other.advice_secs);
        self.place.absorb(&other.place);
        self.advice.absorb(&other.advice);
        self.submissions += other.submissions;
        self.source_s += other.source_s;
        for (sum, x) in self.phase_s.iter_mut().zip(other.phase_s) {
            *sum += x;
        }
        add_cache(&mut self.cache, &other.cache);
        self.ends_timed_out += other.ends_timed_out;
        self.cell_passes += other.cell_passes;
        self.cell_evaluations += other.cell_evaluations;
        self.escalations += other.escalations;
        self.rebalance_moves += other.rebalance_moves;
        self.captured.extend(other.captured);
        self.instrument_s += other.instrument_s;
    }
}

fn add_cache(sum: &mut CacheCounters, c: &CacheCounters) {
    sum.score_hits += c.score_hits;
    sum.score_misses += c.score_misses;
    sum.demand_hits += c.demand_hits;
    sum.demand_misses += c.demand_misses;
    sum.batch_hits += c.batch_hits;
    sum.batch_misses += c.batch_misses;
    sum.column_hits += c.column_hits;
    sum.column_misses += c.column_misses;
}

/// Index of a phase in [`Tally::phase_s`].
pub fn phase_index(phase: Phase) -> usize {
    match phase {
        Phase::Optimize => 0,
        Phase::Actuate => 1,
        Phase::Reconcile => 2,
        Phase::Sample => 3,
    }
}

/// The shared recorder behind the instruments.
#[derive(Debug, Default)]
pub struct Probe {
    tally: Mutex<Tally>,
    /// Busy-wait added inside every timed `fill_only` call (the
    /// attribution self-test's injected slowdown).
    advice_delay: Duration,
    /// Copy the problems of `place` and of `fill_only` calls at call
    /// indices 1, 2, 4, 8, … for kernel replay.
    capture: bool,
}

impl Probe {
    /// A probe that adds `advice_delay` to every timed `fill_only` and
    /// keeps problems for replay when `capture` is set.
    pub fn new(advice_delay: Duration, capture: bool) -> Arc<Self> {
        Arc::new(Probe {
            tally: Mutex::default(),
            advice_delay,
            capture,
        })
    }

    /// Keeps a copy of the `call`-th problem of a kind when capturing,
    /// booking the copy's time as instrument work.
    fn capture(
        &self,
        pass: Pass,
        call: u64,
        problem: &PlacementProblem<'_>,
        outcome: &PlacementOutcome,
    ) {
        if self.capture && call.is_power_of_two() {
            let started = Instant::now();
            let captured = Captured::new(pass, problem, outcome);
            let mut tally = self.lock();
            tally.captured.push(captured);
            tally.instrument_s += started.elapsed().as_secs_f64();
        }
    }

    fn lock(&self) -> MutexGuard<'_, Tally> {
        self.tally
            .lock()
            .expect("probe poisoned by a panicking run")
    }

    /// Records source work done outside a [`TimedSource`] (a build that
    /// draws and admits every submission up front).
    pub fn note_source(&self, secs: f64, submissions: u64) {
        let mut tally = self.lock();
        tally.source_s += secs;
        tally.submissions += submissions;
    }

    /// Source seconds recorded so far.
    pub fn source_s(&self) -> f64 {
        self.lock().source_s
    }

    /// Takes the accumulated tally, leaving an empty one.
    pub fn take(&self) -> Tally {
        std::mem::take(&mut *self.lock())
    }
}

/// A forwarding policy that times `place` and `fill_only`.
#[derive(Debug)]
pub struct TimedPolicy {
    inner: PolicyHandle,
    probe: Arc<Probe>,
}

impl TimedPolicy {
    pub fn wrap(inner: PolicyHandle, probe: Arc<Probe>) -> PolicyHandle {
        PolicyHandle::new(TimedPolicy { inner, probe })
    }
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn description(&self) -> &str {
        self.inner.description()
    }

    fn class(&self) -> PolicyClass {
        self.inner.class()
    }

    fn place(&self, problem: &PlacementProblem<'_>, sink: &dyn TraceSink) -> PlacementOutcome {
        self.probe.lock().in_place = true;
        let started = Instant::now();
        let outcome = self.inner.place(problem, sink);
        let secs = started.elapsed().as_secs_f64();
        let mut tally = self.probe.lock();
        tally.in_place = false;
        tally.place_secs.push(secs);
        tally.place.add(secs, &outcome);
        let call = tally.place.calls - 1;
        drop(tally);
        self.probe.capture(Pass::Place, call, problem, &outcome);
        outcome
    }

    /// Times `fill_only`, adding the injected delay inside the timing.
    fn fill_only(&self, problem: &PlacementProblem<'_>, sink: &dyn TraceSink) -> PlacementOutcome {
        let started = Instant::now();
        let outcome = self.inner.fill_only(problem, sink);
        if !self.probe.advice_delay.is_zero() {
            let until = started.elapsed() + self.probe.advice_delay;
            while started.elapsed() < until {
                std::hint::spin_loop();
            }
        }
        let secs = started.elapsed().as_secs_f64();
        let mut tally = self.probe.lock();
        tally.advice_secs.push(secs);
        tally.advice.add(secs, &outcome);
        let call = tally.advice.calls - 1;
        drop(tally);
        self.probe.capture(Pass::Advice, call, problem, &outcome);
        outcome
    }

    fn apc_config(&self) -> Option<&ApcConfig> {
        self.inner.apc_config()
    }

    fn advises_between_cycles(&self) -> bool {
        self.inner.advises_between_cycles()
    }

    /// Re-wraps the rebuilt policy, so builders that thread deadlines or
    /// sharding through here keep the timer.
    fn with_apc_config(&self, config: ApcConfig) -> Option<PolicyHandle> {
        self.inner
            .with_apc_config(config)
            .map(|inner| TimedPolicy::wrap(inner, Arc::clone(&self.probe)))
    }
}

/// A forwarding workload source that times submission draws.
#[derive(Debug)]
pub struct TimedSource {
    inner: Box<dyn WorkloadSource>,
    probe: Arc<Probe>,
}

impl TimedSource {
    pub fn wrap(inner: Box<dyn WorkloadSource>, probe: Arc<Probe>) -> Box<dyn WorkloadSource> {
        Box::new(TimedSource { inner, probe })
    }
}

impl WorkloadSource for TimedSource {
    fn peek(&mut self) -> Option<SimTime> {
        let started = Instant::now();
        let next = self.inner.peek();
        self.probe.lock().source_s += started.elapsed().as_secs_f64();
        next
    }

    fn next(&mut self) -> Option<Submission> {
        let started = Instant::now();
        let next = self.inner.next();
        let secs = started.elapsed().as_secs_f64();
        let mut tally = self.probe.lock();
        tally.source_s += secs;
        tally.submissions += u64::from(next.is_some());
        next
    }

    fn reserved_ids(&self) -> u32 {
        self.inner.reserved_ids()
    }
}

/// A trace sink that counts the program's decision-level events.
#[derive(Debug)]
pub struct CountingSink {
    probe: Arc<Probe>,
}

impl CountingSink {
    pub fn shared(probe: Arc<Probe>) -> Arc<dyn TraceSink> {
        Arc::new(CountingSink { probe })
    }
}

impl TraceSink for CountingSink {
    fn wants(&self, level: TraceLevel) -> bool {
        level == TraceLevel::Decisions
    }

    fn record(&self, event: &TraceEvent) {
        let mut tally = self.probe.lock();
        match event {
            TraceEvent::PhaseSpan {
                phase, wall_secs, ..
            } => tally.phase_s[phase_index(*phase)] += wall_secs,
            TraceEvent::OptimizeEnd { timed_out, .. } => {
                tally.ends_timed_out += u64::from(*timed_out);
            }
            TraceEvent::CachePassStats { counters, .. } if tally.in_place => {
                add_cache(&mut tally.cache, counters);
            }
            TraceEvent::CellExit { evaluations, .. } => {
                tally.cell_passes += 1;
                tally.cell_evaluations += evaluations;
            }
            TraceEvent::CellEscalated { .. } => tally.escalations += 1,
            TraceEvent::RebalanceMove { .. } => tally.rebalance_moves += 1,
            _ => {}
        }
    }
}
