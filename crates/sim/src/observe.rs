//! The imperfect-telemetry observation layer.
//!
//! The paper's controller acts on *measured* state: every node and
//! application reports through heartbeats, and the placement problem is
//! built from that observed snapshot, never from the simulated ground
//! truth. This module models the sensing path: per-source/per-cycle
//! deterministic (splitmix64) report loss, staleness, and multiplicative
//! noise on demand estimates; a node-health state machine
//! (Healthy → Suspect → Dead with confirmation thresholds and
//! flap-damping hysteresis); and an EWMA demand estimator with a
//! configurable safety-margin headroom.
//!
//! Everything here is a pure function of the configuration seed and the
//! (source, cycle) pair — two runs of the same scenario are
//! bit-identical. With the default configuration the layer is
//! **exactly off**: [`ObservationConfig::is_active`] is `false`, the
//! engine never consults the observed snapshot, and runs are
//! bit-identical to a simulator without an observation layer at all.
//! Even an *active* configuration whose fault knobs are all zero keeps
//! bit-identity, because fresh, noiseless, unsmoothed reports yield
//! [`JobView::Live`] / [`TxnView::Live`] views that tell the engine to
//! read the truth directly (important for between-cycle advice passes,
//! which build problems at instants where any cached value would
//! diverge from the live truth).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use dynaplace_json::json_enum;
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::units::SimTime;

/// What the engine does when the observed snapshot is older than the
/// staleness budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Hold all placement changes for the cycle: no optimization pass
    /// runs; reconciliation of already-desired state continues.
    Hold,
    /// Drop to a non-disruptive `fill_only` pass for the cycle.
    FillOnly,
}

json_enum!(DegradedMode {
    Hold = "hold",
    FillOnly = "fill_only",
});

/// Configuration of the observation layer.
///
/// The default models perfect telemetry: every heartbeat and report
/// arrives fresh and exact, the health machine never leaves Healthy,
/// the estimator passes demand through unsmoothed and uninflated — and
/// [`ObservationConfig::is_active`] is `false`, so the engine skips the
/// layer entirely and behaves bit-identically to the pre-observation
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservationConfig {
    /// Probability that one source's (node heartbeat or app report)
    /// transmission for one cycle is lost, drawn deterministically per
    /// (source, cycle). `0.0` disables loss. Must be `< 1.0` or
    /// telemetry never recovers.
    pub heartbeat_loss: f64,
    /// Maximum delivery lag of an app report, in control cycles: each
    /// delivered report carries data from `s` cycles ago with `s` drawn
    /// uniformly in `0..=max_staleness_cycles`. `0` means always fresh.
    pub max_staleness_cycles: u32,
    /// Relative multiplicative noise on delivered demand values: each
    /// report is scaled by a deterministic factor in
    /// `[1 - noise, 1 + noise]`. `0.0` disables noise.
    pub noise: f64,
    /// Faults (loss, staleness, noise) only affect transmissions at
    /// instants strictly before this; from then on telemetry is perfect
    /// — the "faults stop" switch that makes convergence provable.
    /// `None` means faults for the whole run.
    pub loss_until: Option<SimTime>,
    /// Seed for the deterministic loss/staleness/noise draws.
    pub seed: u64,
    /// Consecutive missed heartbeats before a Healthy node becomes
    /// Suspect (frozen for new placements, residents kept). Must be
    /// at least 1.
    pub suspect_after: u32,
    /// Consecutive missed heartbeats before a Suspect node is declared
    /// Dead (residents evicted, capacity zeroed in the controller's
    /// view). Must exceed `suspect_after`.
    pub dead_after: u32,
    /// Consecutive delivered heartbeats before a Suspect or Dead node
    /// is reinstated to Healthy (flap damping: a single heartbeat never
    /// reinstates). Must be at least 1.
    pub reinstate_after: u32,
    /// EWMA smoothing factor for transactional demand estimates:
    /// `estimate = alpha * observed + (1 - alpha) * previous`. `1.0`
    /// (the default) disables smoothing.
    pub ewma_alpha: f64,
    /// Safety-margin headroom: the presented transactional demand is
    /// the smoothed estimate times `1 + headroom`. `0.0` disables it.
    pub headroom: f64,
    /// Degrade when the observed snapshot is older than this many
    /// cycles (the maximum app-report age). `0` disables the budget.
    pub staleness_budget_cycles: u32,
    /// What to do on a budget breach.
    pub degraded_mode: DegradedMode,
}

impl Default for ObservationConfig {
    fn default() -> Self {
        Self {
            heartbeat_loss: 0.0,
            max_staleness_cycles: 0,
            noise: 0.0,
            loss_until: None,
            seed: 0,
            suspect_after: 2,
            dead_after: 4,
            reinstate_after: 2,
            ewma_alpha: 1.0,
            headroom: 0.0,
            staleness_budget_cycles: 0,
            degraded_mode: DegradedMode::Hold,
        }
    }
}

impl ObservationConfig {
    /// Whether the engine routes decisions through the observed
    /// snapshot at all. `false` for the default configuration: the
    /// exactly-off contract.
    pub fn is_active(&self) -> bool {
        *self != Self::default()
    }

    /// Whether transmissions at `now` can be lost, stale, or noisy.
    pub fn faults_active(&self, now: SimTime) -> bool {
        (self.heartbeat_loss > 0.0 || self.max_staleness_cycles > 0 || self.noise > 0.0)
            && self.loss_until.map_or(true, |until| now < until)
    }

    /// Whether `node`'s heartbeat for `cycle` is lost.
    pub fn heartbeat_missed(&self, node: NodeId, cycle: u64, now: SimTime) -> bool {
        self.faults_active(now)
            && self.heartbeat_loss > 0.0
            && unit(mix(self.seed, &[1, node.index() as u64, cycle])) < self.heartbeat_loss
    }

    /// Whether `app`'s state report for `cycle` is lost.
    pub fn report_lost(&self, app: AppId, cycle: u64, now: SimTime) -> bool {
        self.faults_active(now)
            && self.heartbeat_loss > 0.0
            && unit(mix(self.seed, &[2, app.index() as u64, cycle])) < self.heartbeat_loss
    }

    /// Delivery lag (in cycles) of `app`'s report for `cycle`.
    pub fn staleness(&self, app: AppId, cycle: u64, now: SimTime) -> u32 {
        if !self.faults_active(now) || self.max_staleness_cycles == 0 {
            return 0;
        }
        (mix(self.seed, &[3, app.index() as u64, cycle]) % u64::from(self.max_staleness_cycles + 1))
            as u32
    }

    /// Multiplicative noise factor on `app`'s delivered demand for
    /// `cycle`, in `[1 - noise, 1 + noise]`; exactly `1.0` when noise
    /// is disabled (or faults are over), preserving bit-identity.
    pub fn noise_factor(&self, app: AppId, cycle: u64, now: SimTime) -> f64 {
        if !self.faults_active(now) || self.noise == 0.0 {
            return 1.0;
        }
        let u = unit(mix(self.seed, &[4, app.index() as u64, cycle]));
        1.0 + self.noise * (2.0 * u - 1.0)
    }
}

/// Controller-side belief about one node's health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeHealth {
    /// Heartbeats arriving normally; fully schedulable.
    #[default]
    Healthy,
    /// Enough consecutive heartbeats missed to freeze the node for new
    /// placements; residents are kept.
    Suspect,
    /// Enough consecutive heartbeats missed to declare the node dead:
    /// residents evicted, capacity zeroed in the controller's view.
    Dead,
}

/// A health-state transition reported by [`ObservationState::observe_node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthTransition {
    /// Healthy → Suspect.
    Suspected,
    /// Suspect → Dead.
    Died,
    /// Suspect or Dead → Healthy (heartbeats resumed long enough).
    Reinstated,
}

/// Per-node counters of the health state machine.
#[derive(Debug, Clone, Copy, Default)]
struct HealthEntry {
    state: NodeHealth,
    /// Consecutive missed heartbeats (resets on any delivery).
    misses: u32,
    /// Consecutive delivered heartbeats while not Healthy (resets on
    /// any miss), driving reinstatement hysteresis.
    oks: u32,
}

impl HealthEntry {
    fn step(&mut self, miss: bool, cfg: &ObservationConfig) -> Option<HealthTransition> {
        if miss {
            self.oks = 0;
            self.misses = self.misses.saturating_add(1);
            match self.state {
                NodeHealth::Healthy if self.misses >= cfg.suspect_after => {
                    self.state = NodeHealth::Suspect;
                    Some(HealthTransition::Suspected)
                }
                NodeHealth::Suspect if self.misses >= cfg.dead_after => {
                    self.state = NodeHealth::Dead;
                    Some(HealthTransition::Died)
                }
                _ => None,
            }
        } else {
            self.misses = 0;
            if self.state == NodeHealth::Healthy {
                self.oks = 0;
                return None;
            }
            self.oks = self.oks.saturating_add(1);
            if self.oks >= cfg.reinstate_after {
                self.state = NodeHealth::Healthy;
                self.oks = 0;
                Some(HealthTransition::Reinstated)
            } else {
                None
            }
        }
    }
}

/// How the controller should read one batch job's progress this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobView {
    /// The report was fresh and exact: read the live truth directly
    /// (keeps bit-identity, including for between-cycle advice passes).
    Live,
    /// The report was stale or noisy: present this consumed work (in
    /// megacycles, from `age` cycles ago) with the profile scaled by
    /// `factor`.
    Snapshot {
        /// Observed consumed work, megacycles.
        consumed_mcycles: f64,
        /// Multiplicative noise on the job's total work.
        factor: f64,
    },
}

/// How the controller should read one transactional application's
/// arrival rate this cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TxnView {
    /// Fresh, exact, unsmoothed, uninflated: read the live arrival
    /// pattern directly.
    Live,
    /// Present this estimated rate (EWMA-smoothed, headroom-inflated).
    Estimate(f64),
}

/// One source reading: the view plus whether the transmission was lost
/// and how old the delivered data is (for the staleness budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading<V> {
    /// What the controller should see.
    pub view: V,
    /// Whether this cycle's transmission was lost (the cached previous
    /// report was reused).
    pub lost: bool,
    /// Age of the delivered data, in cycles.
    pub age: u32,
}

/// Cached last-delivered job report (reused when a transmission drops).
#[derive(Debug, Clone, Copy)]
struct JobReport {
    consumed_mcycles: f64,
    factor: f64,
    age: u32,
}

/// Per-app transactional estimator state.
#[derive(Debug, Clone, Copy)]
struct TxnEstimator {
    ewma: f64,
    age: u32,
}

/// All controller-side observation state for one run: node-health
/// beliefs, the believed-dead set, report caches, estimator state, and
/// the per-cycle views. All maps are ordered, so iteration (and
/// therefore the whole engine) stays deterministic.
#[derive(Debug, Default)]
pub struct ObservationState {
    health: BTreeMap<NodeId, HealthEntry>,
    /// Nodes the controller currently believes dead. The engine zeroes
    /// their capacity in its observed cluster; reinstatement removes
    /// them again.
    pub believed_dead: BTreeSet<NodeId>,
    /// Ring buffer of each job's true consumed work (megacycles), one
    /// entry per cycle, newest at the back — the staleness draw indexes
    /// backwards into it.
    job_truth: BTreeMap<AppId, VecDeque<f64>>,
    job_cache: BTreeMap<AppId, JobReport>,
    txn_state: BTreeMap<AppId, TxnEstimator>,
    job_views: BTreeMap<AppId, JobView>,
    txn_views: BTreeMap<AppId, TxnView>,
    /// Oldest app report delivered (or carried) this cycle.
    cycle_max_age: u32,
}

impl ObservationState {
    /// Creates an empty state (all nodes believed Healthy).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new observation cycle: clears the per-cycle views and
    /// the snapshot-age high-water mark.
    pub fn begin_cycle(&mut self) {
        self.job_views.clear();
        self.txn_views.clear();
        self.cycle_max_age = 0;
    }

    /// Feeds one node heartbeat (delivered or missed) into the health
    /// state machine. Returns any transition plus the node's current
    /// consecutive-miss count.
    pub fn observe_node(
        &mut self,
        cfg: &ObservationConfig,
        node: NodeId,
        miss: bool,
    ) -> (Option<HealthTransition>, u32) {
        let entry = self.health.entry(node).or_default();
        let transition = entry.step(miss, cfg);
        (transition, entry.misses)
    }

    /// The controller's current belief about `node` (Healthy when it
    /// has never been observed).
    pub fn node_state(&self, node: NodeId) -> NodeHealth {
        self.health.get(&node).map(|e| e.state).unwrap_or_default()
    }

    /// Nodes currently believed Suspect, in id order.
    pub fn suspect_nodes(&self) -> Vec<NodeId> {
        self.health
            .iter()
            .filter(|(_, e)| e.state == NodeHealth::Suspect)
            .map(|(&n, _)| n)
            .collect()
    }

    /// Processes one job's state report for `cycle`: records the true
    /// consumed work into the staleness ring, resolves the loss /
    /// staleness / noise draws, and produces the view the controller
    /// gets.
    pub fn observe_job(
        &mut self,
        cfg: &ObservationConfig,
        app: AppId,
        truth_consumed_mcycles: f64,
        cycle: u64,
        now: SimTime,
    ) -> Reading<JobView> {
        let depth = cfg.max_staleness_cycles as usize + 1;
        let ring = self.job_truth.entry(app).or_default();
        ring.push_back(truth_consumed_mcycles);
        while ring.len() > depth {
            ring.pop_front();
        }
        let reading = if cfg.report_lost(app, cycle, now) {
            match self.job_cache.get_mut(&app) {
                Some(cache) => {
                    // Reuse the last delivered report, one cycle older.
                    cache.age = cache.age.saturating_add(1);
                    Reading {
                        view: JobView::Snapshot {
                            consumed_mcycles: cache.consumed_mcycles,
                            factor: cache.factor,
                        },
                        lost: true,
                        age: cache.age,
                    }
                }
                // Nothing ever delivered: the controller bootstraps
                // from the live truth rather than inventing a zero.
                None => Reading {
                    view: JobView::Live,
                    lost: true,
                    age: 0,
                },
            }
        } else {
            let s = cfg.staleness(app, cycle, now).min(ring.len() as u32 - 1);
            let consumed = ring[ring.len() - 1 - s as usize];
            let factor = cfg.noise_factor(app, cycle, now);
            self.job_cache.insert(
                app,
                JobReport {
                    consumed_mcycles: consumed,
                    factor,
                    age: s,
                },
            );
            let view = if s == 0 && factor == 1.0 {
                JobView::Live
            } else {
                JobView::Snapshot {
                    consumed_mcycles: consumed,
                    factor,
                }
            };
            Reading {
                view,
                lost: false,
                age: s,
            }
        };
        self.job_views.insert(app, reading.view);
        self.cycle_max_age = self.cycle_max_age.max(reading.age);
        reading
    }

    /// Processes one transactional application's report for `cycle`.
    /// `rate_at_lag(s)` must return the true arrival rate `s` cycles
    /// ago (staleness is time-indexed for rates, so no history buffer
    /// is needed).
    pub fn observe_txn(
        &mut self,
        cfg: &ObservationConfig,
        app: AppId,
        cycle: u64,
        now: SimTime,
        mut rate_at_lag: impl FnMut(u32) -> f64,
    ) -> Reading<TxnView> {
        let reading = if cfg.report_lost(app, cycle, now) {
            match self.txn_state.get_mut(&app) {
                Some(est) => {
                    est.age = est.age.saturating_add(1);
                    Reading {
                        view: TxnView::Estimate(est.ewma * (1.0 + cfg.headroom)),
                        lost: true,
                        age: est.age,
                    }
                }
                None => Reading {
                    view: TxnView::Live,
                    lost: true,
                    age: 0,
                },
            }
        } else {
            let s = cfg.staleness(app, cycle, now);
            let delivered = rate_at_lag(s) * cfg.noise_factor(app, cycle, now);
            let est = match self.txn_state.get(&app) {
                Some(prev) => cfg.ewma_alpha * delivered + (1.0 - cfg.ewma_alpha) * prev.ewma,
                None => delivered,
            };
            self.txn_state
                .insert(app, TxnEstimator { ewma: est, age: s });
            let fresh_and_exact =
                s == 0 && cfg.noise == 0.0 && cfg.ewma_alpha == 1.0 && cfg.headroom == 0.0;
            let view = if fresh_and_exact {
                TxnView::Live
            } else {
                TxnView::Estimate(est * (1.0 + cfg.headroom))
            };
            Reading {
                view,
                lost: false,
                age: s,
            }
        };
        self.txn_views.insert(app, reading.view);
        self.cycle_max_age = self.cycle_max_age.max(reading.age);
        reading
    }

    /// The controller's view of `app`'s progress this cycle. `Live`
    /// for apps without a report (e.g. jobs that arrived between
    /// cycles): the bootstrap is the truth, never an invented zero.
    pub fn job_view(&self, app: AppId) -> JobView {
        self.job_views.get(&app).copied().unwrap_or(JobView::Live)
    }

    /// The controller's view of `app`'s arrival rate this cycle.
    pub fn txn_view(&self, app: AppId) -> TxnView {
        self.txn_views.get(&app).copied().unwrap_or(TxnView::Live)
    }

    /// Age of the oldest app report in this cycle's snapshot (node
    /// heartbeats are deliberately excluded: a believed-dead node would
    /// otherwise pin the snapshot stale forever).
    pub fn snapshot_age(&self) -> u32 {
        self.cycle_max_age
    }
}

// Deterministic draw helpers — same construction as the actuation
// layer's, so faults everywhere in the simulator share one idiom.

/// splitmix64 finalizer — the standard 64-bit avalanche mix.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(seed: u64, parts: &[u64]) -> u64 {
    let mut h = splitmix64(seed ^ 0xA076_1D64_78BD_642F);
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

/// Uniform draw in `[0, 1)` from a mixed hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }
    fn app(i: u32) -> AppId {
        AppId::new(i)
    }

    fn lossy(loss: f64) -> ObservationConfig {
        ObservationConfig {
            heartbeat_loss: loss,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    fn default_is_exactly_off_and_seed_activates() {
        assert!(!ObservationConfig::default().is_active());
        let cfg = ObservationConfig {
            seed: 7,
            ..Default::default()
        };
        assert!(cfg.is_active(), "any non-default field activates the layer");
        assert!(!cfg.faults_active(SimTime::ZERO), "zero knobs: no faults");
    }

    #[test]
    fn draws_are_pure_functions_of_source_and_cycle() {
        let cfg = ObservationConfig {
            heartbeat_loss: 0.4,
            max_staleness_cycles: 3,
            noise: 0.2,
            seed: 42,
            ..Default::default()
        };
        for cycle in 0..50 {
            let a = cfg.heartbeat_missed(node(1), cycle, SimTime::ZERO);
            let b = cfg.heartbeat_missed(node(1), cycle, SimTime::ZERO);
            assert_eq!(a, b);
            let s = cfg.staleness(app(2), cycle, SimTime::ZERO);
            assert_eq!(s, cfg.staleness(app(2), cycle, SimTime::ZERO));
            assert!(s <= 3);
            let f = cfg.noise_factor(app(2), cycle, SimTime::ZERO);
            assert_eq!(
                f.to_bits(),
                cfg.noise_factor(app(2), cycle, SimTime::ZERO).to_bits()
            );
            assert!((0.8..=1.2).contains(&f));
        }
    }

    #[test]
    fn loss_until_stops_all_faults() {
        let cfg = ObservationConfig {
            heartbeat_loss: 0.999,
            max_staleness_cycles: 4,
            noise: 0.5,
            loss_until: Some(SimTime::from_secs(100.0)),
            seed: 3,
            ..Default::default()
        };
        let after = SimTime::from_secs(100.0);
        for cycle in 0..100 {
            assert!(!cfg.heartbeat_missed(node(0), cycle, after));
            assert!(!cfg.report_lost(app(0), cycle, after));
            assert_eq!(cfg.staleness(app(0), cycle, after), 0);
            assert_eq!(cfg.noise_factor(app(0), cycle, after), 1.0);
        }
        // And at least some fault fires before the cutoff.
        assert!((0..100).any(|c| cfg.heartbeat_missed(node(0), c, SimTime::ZERO)));
    }

    #[test]
    fn health_machine_confirmation_thresholds() {
        let cfg = ObservationConfig {
            suspect_after: 2,
            dead_after: 4,
            reinstate_after: 2,
            ..Default::default()
        };
        let mut state = ObservationState::new();
        let n = node(0);
        assert_eq!(state.observe_node(&cfg, n, true), (None, 1));
        assert_eq!(
            state.observe_node(&cfg, n, true),
            (Some(HealthTransition::Suspected), 2)
        );
        assert_eq!(state.node_state(n), NodeHealth::Suspect);
        assert_eq!(state.suspect_nodes(), vec![n]);
        assert_eq!(state.observe_node(&cfg, n, true), (None, 3));
        assert_eq!(
            state.observe_node(&cfg, n, true),
            (Some(HealthTransition::Died), 4)
        );
        assert_eq!(state.node_state(n), NodeHealth::Dead);
    }

    #[test]
    fn dead_requires_consecutive_misses() {
        // The safety invariant: any delivered heartbeat resets the miss
        // count, so a node is never declared Dead with fewer than
        // `dead_after` *consecutive* misses.
        let cfg = ObservationConfig {
            suspect_after: 1,
            dead_after: 3,
            reinstate_after: 2,
            ..Default::default()
        };
        let mut state = ObservationState::new();
        let n = node(5);
        // Alternating miss/ok forever: never Dead.
        for _ in 0..50 {
            state.observe_node(&cfg, n, true);
            state.observe_node(&cfg, n, false);
            assert_ne!(state.node_state(n), NodeHealth::Dead);
        }
    }

    #[test]
    fn reinstatement_needs_hysteresis_and_damps_flaps() {
        let cfg = ObservationConfig {
            suspect_after: 1,
            dead_after: 2,
            reinstate_after: 3,
            ..Default::default()
        };
        let mut state = ObservationState::new();
        let n = node(1);
        state.observe_node(&cfg, n, true);
        state.observe_node(&cfg, n, true);
        assert_eq!(state.node_state(n), NodeHealth::Dead);
        // Two oks are not enough; a miss resets the streak.
        state.observe_node(&cfg, n, false);
        state.observe_node(&cfg, n, false);
        assert_eq!(state.node_state(n), NodeHealth::Dead);
        state.observe_node(&cfg, n, true);
        state.observe_node(&cfg, n, false);
        state.observe_node(&cfg, n, false);
        assert_eq!(state.node_state(n), NodeHealth::Dead);
        let (t, _) = state.observe_node(&cfg, n, false);
        assert_eq!(t, Some(HealthTransition::Reinstated));
        assert_eq!(state.node_state(n), NodeHealth::Healthy);
    }

    #[test]
    fn fresh_exact_reports_are_live_views() {
        // An active config whose fault knobs are all zero must produce
        // Live views — the bit-identity contract for the differential.
        let cfg = ObservationConfig {
            seed: 9,
            ..Default::default()
        };
        assert!(cfg.is_active());
        let mut state = ObservationState::new();
        state.begin_cycle();
        let jr = state.observe_job(&cfg, app(0), 123.0, 0, SimTime::ZERO);
        assert_eq!(jr.view, JobView::Live);
        assert!(!jr.lost);
        let tr = state.observe_txn(&cfg, app(1), 0, SimTime::ZERO, |_| 40.0);
        assert_eq!(tr.view, TxnView::Live);
        assert_eq!(state.snapshot_age(), 0);
    }

    #[test]
    fn stale_job_reports_read_backwards_and_loss_reuses_cache() {
        let cfg = ObservationConfig {
            max_staleness_cycles: 2,
            seed: 1,
            ..Default::default()
        };
        let mut state = ObservationState::new();
        let a = app(3);
        // Find a cycle where the staleness draw is non-zero.
        let mut consumed = 0.0;
        let mut saw_stale = false;
        for cycle in 0..40u64 {
            state.begin_cycle();
            consumed += 10.0;
            let r = state.observe_job(&cfg, a, consumed, cycle, SimTime::ZERO);
            let s = cfg.staleness(a, cycle, SimTime::ZERO);
            assert_eq!(r.age, s.min(cycle as u32));
            match r.view {
                JobView::Live => assert_eq!(r.age, 0),
                JobView::Snapshot {
                    consumed_mcycles, ..
                } => {
                    saw_stale = true;
                    // Stale consumed is conservative: never ahead of truth.
                    assert!(consumed_mcycles <= consumed);
                    assert_eq!(consumed_mcycles, consumed - 10.0 * f64::from(r.age));
                }
            }
        }
        assert!(saw_stale, "expected at least one stale draw in 40 cycles");
        // Heavy loss: the cached report is reused and ages.
        let cfg = ObservationConfig {
            heartbeat_loss: 0.999_999,
            seed: 2,
            ..Default::default()
        };
        let mut state = ObservationState::new();
        state.begin_cycle();
        let first = state.observe_job(&cfg, a, 5.0, 0, SimTime::ZERO);
        assert!(first.lost && first.view == JobView::Live, "bootstrap");
        state.begin_cycle();
        let second = state.observe_job(&cfg, a, 15.0, 1, SimTime::ZERO);
        // Still lost and still nothing cached: stays on live bootstrap.
        assert!(second.lost);
    }

    #[test]
    fn txn_estimator_smooths_and_inflates() {
        let cfg = ObservationConfig {
            ewma_alpha: 0.5,
            headroom: 0.1,
            seed: 1,
            ..Default::default()
        };
        let mut state = ObservationState::new();
        let a = app(0);
        state.begin_cycle();
        let r1 = state.observe_txn(&cfg, a, 0, SimTime::ZERO, |_| 100.0);
        assert_eq!(r1.view, TxnView::Estimate(100.0 * 1.1));
        state.begin_cycle();
        let r2 = state.observe_txn(&cfg, a, 1, SimTime::ZERO, |_| 200.0);
        // ewma = 0.5*200 + 0.5*100 = 150, inflated by 10%.
        assert_eq!(r2.view, TxnView::Estimate(150.0 * 1.1));
    }

    #[test]
    fn snapshot_age_tracks_oldest_report() {
        let cfg = ObservationConfig {
            heartbeat_loss: 0.999_999,
            seed: 4,
            ..Default::default()
        };
        let mut state = ObservationState::new();
        let a = app(0);
        // Deliver once with faults off, then lose everything.
        let quiet = ObservationConfig {
            seed: 4,
            ..Default::default()
        };
        state.begin_cycle();
        state.observe_job(&quiet, a, 1.0, 0, SimTime::ZERO);
        assert_eq!(state.snapshot_age(), 0);
        for cycle in 1..4u64 {
            state.begin_cycle();
            let r = state.observe_job(&cfg, a, 1.0 + cycle as f64, cycle, SimTime::ZERO);
            assert!(r.lost);
            assert_eq!(state.snapshot_age(), cycle as u32);
        }
    }

    #[test]
    fn loss_probability_roughly_matches_draws() {
        let cfg = lossy(0.3);
        let misses = (0..1_000)
            .filter(|&c| cfg.heartbeat_missed(node(0), c, SimTime::ZERO))
            .count();
        assert!(
            (200..400).contains(&misses),
            "≈30% of 1000 draws should miss, got {misses}"
        );
    }
}
