//! Decision-provenance tracing for the placement controller.
//!
//! The paper's evaluation (§5, Figs. 2–7) explains controller behavior
//! decision by decision: which jobs were suspended, why an instance was
//! evicted, how far the optimizer got before settling. This crate gives
//! the reproduction the same vocabulary as a structured event stream.
//! Every consequential decision in the optimizer, the engine loop, and
//! the actuation layer emits a typed [`TraceEvent`] into a [`TraceSink`].
//!
//! # Determinism contract
//!
//! Trace *content* is deterministic: events are keyed by sim time, cycle
//! index, and counters only — never wall-clock timestamps. The single
//! nondeterministic quantity (how long a phase took in host wall-clock
//! time) lives in the dedicated `wall_secs` field of
//! [`TraceEvent::PhaseSpan`], which [`strip_nondeterministic`] removes so
//! golden comparisons diff only the deterministic fields. Two runs of the
//! same scenario with the same seed and config produce byte-identical
//! deterministic traces.
//!
//! # Sinks
//!
//! * [`NoopSink`] — the default. Reports that it wants no level, so call
//!   sites skip event construction entirely; a run with the no-op sink is
//!   bit-identical to a build without tracing.
//! * [`JsonlSink`] — buffers each event as one compact JSON line,
//!   filtered by [`TraceLevel`]; flush with [`JsonlSink::write_to`] or
//!   inspect in-memory via [`JsonlSink::lines`].
//!
//! Call sites gate on [`TraceSink::wants`] before building an event, so
//! the cost of a disabled level is one virtual call and a branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use dynaplace_json::{json_enum, json_object, Json, ToJson};
use dynaplace_model::{AppId, NodeId};

/// How much detail a sink records.
///
/// Levels are ordered: a sink configured at [`TraceLevel::Verbose`] also
/// records everything at [`TraceLevel::Decisions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceLevel {
    /// Structural decisions only: cycle boundaries, optimizer pass
    /// summaries, accepted candidates, actuation outcomes. Bounded per
    /// cycle, suitable for golden files.
    Decisions,
    /// Everything, including per-node loop entry/exit and every rejected
    /// candidate. Unbounded per cycle; for interactive debugging.
    Verbose,
}

impl Ord for TraceLevel {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for TraceLevel {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

json_enum!(TraceLevel {
    Decisions = "decisions",
    Verbose = "verbose",
});

impl fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Trace settings carried by the simulation config and the scenario spec.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Where the engine flushes the JSONL stream at end of run; `None`
    /// leaves tracing off (the engine installs a [`NoopSink`]).
    pub path: Option<String>,
    /// Detail level for the file sink.
    pub level: TraceLevel,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            path: None,
            level: TraceLevel::Decisions,
        }
    }
}

/// Engine phase measured by a [`TraceEvent::PhaseSpan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The placement optimizer pass of a control cycle.
    Optimize,
    /// Turning the optimizer's actions into actuation operations.
    Actuate,
    /// Reconciling desired vs. actual placement after failed operations.
    Reconcile,
    /// Recording the per-cycle metrics sample.
    Sample,
}

json_enum!(Phase {
    Optimize = "optimize",
    Actuate = "actuate",
    Reconcile = "reconcile",
    Sample = "sample",
});

/// Which optimizer entry point produced a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizeMode {
    /// Full `place()` with removals allowed.
    Place,
    /// `fill_only()`: additions onto the current placement only.
    FillOnly,
}

json_enum!(OptimizeMode {
    Place = "place",
    FillOnly = "fill_only",
});

/// Why the cell-sharded placement layer pulled an application out of the
/// per-cell subproblems into the global residual pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EscalationReason {
    /// The app's pinning constraint spans nodes in more than one cell.
    CrossCellPin,
    /// The app's current instances already straddle more than one cell.
    MultiCellPlacement,
    /// The app's estimated demand exceeds the capacity of any one cell.
    Oversized,
}

json_enum!(EscalationReason {
    CrossCellPin = "cross_cell_pin",
    MultiCellPlacement = "multi_cell_placement",
    Oversized = "oversized",
});

/// Cache hit/miss counters for one optimizer pass, mirroring the four
/// memo layers of the score cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Whole-placement score memo hits.
    pub score_hits: u64,
    /// Whole-placement score memo misses.
    pub score_misses: u64,
    /// Raw batch demand memo hits.
    pub demand_hits: u64,
    /// Raw batch demand memo misses.
    pub demand_misses: u64,
    /// Batch one-cycle-ahead evaluation memo hits.
    pub batch_hits: u64,
    /// Batch one-cycle-ahead evaluation memo misses.
    pub batch_misses: u64,
    /// Per-job hypothetical column memo hits.
    pub column_hits: u64,
    /// Per-job hypothetical column memo misses.
    pub column_misses: u64,
}

json_object!(CacheCounters {
    score_hits,
    score_misses,
    demand_hits,
    demand_misses,
    batch_hits,
    batch_misses,
    column_hits,
    column_misses,
});

/// One recorded decision. Every variant carries the sim time (`time`,
/// seconds since the simulation origin) it was made at; engine-side
/// variants also carry the control-cycle index so a reader can group
/// optimizer events (which do not know the cycle) under the preceding
/// [`TraceEvent::CycleStart`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A control cycle began.
    CycleStart {
        /// Sim time of the cycle.
        time: f64,
        /// Zero-based control-cycle index.
        cycle: u64,
    },
    /// Wall-clock span of one engine phase. `wall_secs` is host
    /// wall-clock time — the explicitly nondeterministic field; all other
    /// fields are deterministic.
    PhaseSpan {
        /// Sim time of the cycle the phase ran in.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// Which phase was measured.
        phase: Phase,
        /// Host wall-clock duration of the phase, in seconds.
        wall_secs: f64,
    },
    /// An optimizer pass began.
    OptimizeStart {
        /// Sim time of the pass (`PlacementProblem::now`).
        time: f64,
        /// Entry point that produced the pass.
        mode: OptimizeMode,
        /// Applications visible to the optimizer.
        apps: usize,
        /// Nodes visible to the optimizer.
        nodes: usize,
    },
    /// An optimizer pass settled (or was truncated by the deadline).
    OptimizeEnd {
        /// Sim time of the pass.
        time: f64,
        /// Candidate placements scored.
        evaluations: u64,
        /// Full node sweeps performed.
        sweeps: u64,
        /// Candidates adopted.
        adoptions: u64,
        /// Whether the anytime deadline truncated the pass.
        timed_out: bool,
    },
    /// The node loop entered a node (verbose).
    NodeEnter {
        /// Sim time of the pass.
        time: f64,
        /// Zero-based sweep index.
        sweep: u64,
        /// Node being optimized.
        node: NodeId,
        /// Movable residents considered for removal on this node.
        residents: usize,
    },
    /// The node loop left a node (verbose).
    NodeExit {
        /// Sim time of the pass.
        time: f64,
        /// Zero-based sweep index.
        sweep: u64,
        /// Node that was optimized.
        node: NodeId,
        /// Candidate placements scored for this node.
        candidates: usize,
        /// Whether any candidate was adopted for this node.
        adopted: bool,
    },
    /// A candidate placement beat the incumbent and was adopted.
    CandidateAccepted {
        /// Sim time of the pass.
        time: f64,
        /// Zero-based sweep index.
        sweep: u64,
        /// Node whose reshuffle was adopted.
        node: NodeId,
        /// Relative-performance delta that justified adoption: the first
        /// satisfaction-vector element (lexicographic max-min order)
        /// differing from the incumbent by more than the configured
        /// epsilon, candidate minus incumbent.
        delta: f64,
        /// Placement changes (starts + stops + migrations) the candidate
        /// costs relative to the incumbent.
        disruptions: usize,
        /// Improvement threshold the delta had to clear (start or
        /// disruption threshold, whichever applied).
        threshold: f64,
    },
    /// A candidate placement was scored and rejected (verbose).
    CandidateRejected {
        /// Sim time of the pass.
        time: f64,
        /// Zero-based sweep index.
        sweep: u64,
        /// Node whose reshuffle was rejected.
        node: NodeId,
        /// Relative-performance delta vs. the incumbent (see
        /// [`TraceEvent::CandidateAccepted::delta`]); zero or negative
        /// deltas lose outright, small positive ones fail the threshold.
        delta: f64,
        /// Placement changes the candidate would have cost.
        disruptions: usize,
        /// Improvement threshold the delta failed to clear.
        threshold: f64,
    },
    /// The transactional expansion loop grew an app onto a node.
    TxnExpanded {
        /// Sim time of the pass.
        time: f64,
        /// Transactional application that gained an instance.
        app: AppId,
        /// Node the instance was added to.
        node: NodeId,
        /// Relative-performance delta that justified the expansion.
        delta: f64,
    },
    /// Cache hit/miss counters for one optimizer pass. Deterministic for
    /// a fixed config (counters depend on the scoring mode and thread
    /// count, both config, not on timing).
    CachePassStats {
        /// Sim time of the pass.
        time: f64,
        /// The four-layer hit/miss counters.
        counters: CacheCounters,
    },
    /// The anytime deadline truncated the optimizer mid-pass.
    DeadlineTruncated {
        /// Sim time of the pass.
        time: f64,
        /// Sweep index the truncation happened in.
        sweep: u64,
        /// Evaluations completed before truncation.
        evaluations: u64,
    },
    /// An actuation operation was resolved (issued and either applied,
    /// failed, or timed out). `attempt > 1` marks a retry.
    OpResolved {
        /// Sim time the operation resolved at.
        time: f64,
        /// Control-cycle index it was issued in.
        cycle: u64,
        /// Application being actuated.
        app: AppId,
        /// Node the operation targets.
        node: NodeId,
        /// Operation kind (`boot` / `suspend` / `resume` / `migrate`).
        op: &'static str,
        /// One-based attempt number for this (app, node) pair.
        attempt: u64,
        /// Outcome (`applied` / `failed` / `timed_out`).
        outcome: &'static str,
        /// Simulated operation latency in sim seconds (deterministic:
        /// drawn from the cost model, not measured).
        latency_secs: f64,
    },
    /// An operation was deferred by backoff (a retry delay or a
    /// quarantine) or a rollback feasibility check, leaving desired ≠
    /// actual for now.
    OpDeferred {
        /// Sim time of the deferral.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// Application whose operation was deferred.
        app: AppId,
        /// Node the deferred operation targets.
        node: NodeId,
        /// Why it was deferred (`backoff` / `rollback`).
        reason: &'static str,
    },
    /// An (app, node) pair crossed the failure threshold and was
    /// quarantined; `place()` routes around it via `forbidden`.
    Quarantined {
        /// Sim time of the quarantine decision.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// Application of the quarantined pair.
        app: AppId,
        /// Node of the quarantined pair.
        node: NodeId,
    },
    /// Desired and actual placement diverged; reconciliation re-issued
    /// this many operations.
    ReconcileDiff {
        /// Sim time of the reconciliation.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// Operations in the desired-vs-actual diff.
        pending: usize,
    },
    /// The sharded placement layer started solving one cell.
    CellEnter {
        /// Sim time of the pass.
        time: f64,
        /// Zero-based cell index.
        cell: u64,
        /// Nodes in the cell.
        nodes: usize,
        /// Live applications assigned to the cell.
        apps: usize,
    },
    /// The sharded placement layer finished one cell.
    CellExit {
        /// Sim time of the pass.
        time: f64,
        /// Zero-based cell index.
        cell: u64,
        /// Candidate placements scored inside the cell.
        evaluations: u64,
        /// Candidates adopted inside the cell.
        adoptions: u64,
        /// Whether the anytime deadline truncated the cell's pass.
        timed_out: bool,
    },
    /// An application was escalated out of the per-cell subproblems into
    /// the global residual pass.
    CellEscalated {
        /// Sim time of the pass.
        time: f64,
        /// The escalated application.
        app: AppId,
        /// Why it could not be confined to one cell.
        reason: EscalationReason,
    },
    /// The cross-cell rebalancer tried moving a worst-satisfied app from
    /// a saturated cell to a slack cell.
    RebalanceMove {
        /// Sim time of the pass.
        time: f64,
        /// The application the rebalancer tried to move.
        app: AppId,
        /// Cell the app was assigned to.
        from_cell: u64,
        /// Cell the rebalancer tried moving it into.
        to_cell: u64,
        /// Global satisfaction delta of the trial merge vs. the
        /// incumbent (see [`TraceEvent::CandidateAccepted::delta`]).
        delta: f64,
        /// Whether the move cleared the rebalance threshold and was
        /// adopted.
        adopted: bool,
    },
    /// Cluster-wide utilization of one rigid resource dimension at the
    /// end of a control cycle. Emitted once per *extra* dimension (the
    /// engine skips it for memory-only deployments, keeping legacy
    /// traces byte-identical).
    RigidUtilization {
        /// Sim time of the cycle.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// Registry name of the dimension (e.g. `disk_mb`).
        dim: String,
        /// Total demand pinned across the cluster, in the dimension's
        /// native unit.
        used: f64,
        /// Total capacity across the cluster.
        capacity: f64,
    },
    /// The engine's starvation breaker fired: live jobs existed but the
    /// system made provably zero progress for the configured number of
    /// consecutive control cycles with nothing else pending, so the run
    /// was terminated and the survivors recorded as starved.
    StarvationBreak {
        /// Sim time the stall was declared.
        time: f64,
        /// Consecutive provably-identical cycles observed.
        cycles: u64,
        /// The live, unfinished applications, in id order.
        apps: Vec<AppId>,
    },
    /// A node's heartbeat report was lost in the observation layer's
    /// lossy transport this control cycle.
    HeartbeatMissed {
        /// Sim time of the observation pass.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// Node whose heartbeat was lost.
        node: NodeId,
        /// Consecutive misses including this one.
        consecutive: u64,
    },
    /// The node-health state machine moved a node from Healthy to
    /// Suspect: new placements are routed around it but residents stay.
    NodeSuspected {
        /// Sim time of the transition.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// The suspected node.
        node: NodeId,
        /// Consecutive misses that crossed the suspect threshold.
        misses: u64,
    },
    /// The node-health state machine declared a node dead on telemetry
    /// evidence: its residents are evicted and its capacity leaves the
    /// controller's believed cluster. The simulated truth is untouched.
    NodeDeclaredDead {
        /// Sim time of the transition.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// The believed-dead node.
        node: NodeId,
        /// Consecutive misses that crossed the death threshold.
        misses: u64,
    },
    /// Heartbeats resumed for long enough that a Suspect or believed-dead
    /// node was reinstated into the controller's believed cluster.
    NodeReinstated {
        /// Sim time of the transition.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// The reinstated node.
        node: NodeId,
    },
    /// The snapshot's oldest report exceeded the staleness budget, so
    /// the controller degraded this cycle instead of acting on it.
    StaleHold {
        /// Sim time of the decision.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// Age of the oldest report in the snapshot, in cycles.
        age_cycles: u64,
        /// The configured staleness budget, in cycles.
        budget: u64,
        /// Degraded mode applied (`hold` / `fill_only`).
        mode: &'static str,
    },
    /// The engine handed this cycle's placement problem to a policy.
    /// Verbose-level: policy identity is config-static, so decision-level
    /// traces stay byte-identical to the pre-registry format.
    PolicyInvoked {
        /// Sim time of the cycle.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// Registry name of the invoked policy (e.g. `apc`, `fcfs`).
        policy: String,
        /// Policy class (`apc` / `baseline`).
        class: String,
    },
    /// The demand estimator produced a smoothed/inflated estimate that
    /// differs from the raw observed transactional rate.
    DemandEstimate {
        /// Sim time of the observation pass.
        time: f64,
        /// Control-cycle index.
        cycle: u64,
        /// The transactional application.
        app: AppId,
        /// True instantaneous arrival rate at observation time.
        observed: f64,
        /// The estimate the controller plans against.
        estimate: f64,
    },
}

// The engine's words for the `&'static str` fields of `TraceEvent`.
// Decoding interns a word back to the table's own literal, so an
// unknown word is an error.
const OPS: &[&str] = &["boot", "suspend", "resume", "migrate"];
const OUTCOMES: &[&str] = &["applied", "failed", "timed_out"];
const DEFERRALS: &[&str] = &["backoff", "rollback"];
const DEGRADED_MODES: &[&str] = &["hold", "fill_only"];

// The JSONL wire form: `ev` first, then the fields in table order, the
// nondeterministic `wall_secs` (phase spans only) last. A stripped line
// still decodes: a missing `wall_secs` reads as zero.
json_enum!(TraceEvent, tag = "ev", name = kind {
    CycleStart = "cycle_start" { time, cycle },
    PhaseSpan = "phase_span" { time, cycle, phase, wall_secs: default },
    OptimizeStart = "optimize_start" { time, mode, apps, nodes },
    OptimizeEnd = "optimize_end" { time, evaluations, sweeps, adoptions, timed_out },
    NodeEnter = "node_enter" { time, sweep, node, residents },
    NodeExit = "node_exit" { time, sweep, node, candidates, adopted },
    CandidateAccepted = "candidate_accepted" { time, sweep, node, delta, disruptions, threshold },
    CandidateRejected = "candidate_rejected" { time, sweep, node, delta, disruptions, threshold },
    TxnExpanded = "txn_expanded" { time, app, node, delta },
    CachePassStats = "cache_pass_stats" { time, counters: flatten },
    DeadlineTruncated = "deadline_truncated" { time, sweep, evaluations },
    OpResolved = "op_resolved" {
        time, cycle, app, node, op: one_of(OPS), attempt, outcome: one_of(OUTCOMES), latency_secs,
    },
    OpDeferred = "op_deferred" { time, cycle, app, node, reason: one_of(DEFERRALS) },
    Quarantined = "quarantined" { time, cycle, app, node },
    ReconcileDiff = "reconcile_diff" { time, cycle, pending },
    CellEnter = "cell_enter" { time, cell, nodes, apps },
    CellExit = "cell_exit" { time, cell, evaluations, adoptions, timed_out },
    CellEscalated = "cell_escalated" { time, app, reason },
    RebalanceMove = "rebalance_move" { time, app, from_cell, to_cell, delta, adopted },
    RigidUtilization = "rigid_utilization" { time, cycle, dim, used, capacity },
    StarvationBreak = "starvation_break" { time, cycles, apps },
    HeartbeatMissed = "heartbeat_missed" { time, cycle, node, consecutive },
    NodeSuspected = "node_suspected" { time, cycle, node, misses },
    NodeDeclaredDead = "node_declared_dead" { time, cycle, node, misses },
    NodeReinstated = "node_reinstated" { time, cycle, node },
    StaleHold = "stale_hold" { time, cycle, age_cycles, budget, mode: one_of(DEGRADED_MODES) },
    PolicyInvoked = "policy_invoked" { time, cycle, policy, class },
    DemandEstimate = "demand_estimate" { time, cycle, app, observed, estimate },
});

impl TraceEvent {
    /// The minimum sink level at which this event is recorded.
    pub fn level(&self) -> TraceLevel {
        match self {
            TraceEvent::NodeEnter { .. }
            | TraceEvent::NodeExit { .. }
            | TraceEvent::CandidateRejected { .. }
            | TraceEvent::HeartbeatMissed { .. }
            | TraceEvent::PolicyInvoked { .. }
            | TraceEvent::DemandEstimate { .. } => TraceLevel::Verbose,
            _ => TraceLevel::Decisions,
        }
    }

    /// One-line human narrative of the event, used by the `trace_dump`
    /// renderer.
    pub fn narrative(&self) -> String {
        match *self {
            TraceEvent::CycleStart { time, cycle } => {
                format!("cycle {cycle} at t={time}s")
            }
            TraceEvent::PhaseSpan {
                phase, wall_secs, ..
            } => {
                format!(
                    "  phase {} took {:.3}ms wall",
                    phase.name(),
                    wall_secs * 1e3
                )
            }
            TraceEvent::OptimizeStart {
                mode, apps, nodes, ..
            } => {
                format!(
                    "  optimizer ({}) over {apps} apps x {nodes} nodes",
                    mode.name()
                )
            }
            TraceEvent::OptimizeEnd {
                evaluations,
                sweeps,
                adoptions,
                timed_out,
                ..
            } => {
                let cut = if timed_out {
                    ", TRUNCATED by deadline"
                } else {
                    ""
                };
                format!(
                    "  optimizer settled: {evaluations} evaluations, {sweeps} sweeps, \
                     {adoptions} adoptions{cut}"
                )
            }
            TraceEvent::NodeEnter {
                sweep,
                node,
                residents,
                ..
            } => {
                format!(
                    "    sweep {sweep}: enter node{} ({residents} movable residents)",
                    node.index()
                )
            }
            TraceEvent::NodeExit {
                sweep,
                node,
                candidates,
                adopted,
                ..
            } => {
                let verdict = if adopted {
                    "adopted a reshuffle"
                } else {
                    "kept incumbent"
                };
                format!(
                    "    sweep {sweep}: leave node{} after {candidates} candidates, {verdict}",
                    node.index()
                )
            }
            TraceEvent::CandidateAccepted {
                sweep,
                node,
                delta,
                disruptions,
                threshold,
                ..
            } => {
                format!(
                    "    sweep {sweep}: ACCEPT reshuffle of node{} — satisfaction delta \
                     {delta:+.6} clears threshold {threshold} at {disruptions} disruptions",
                    node.index()
                )
            }
            TraceEvent::CandidateRejected {
                sweep,
                node,
                delta,
                disruptions,
                threshold,
                ..
            } => {
                format!(
                    "    sweep {sweep}: reject reshuffle of node{} — delta {delta:+.6} vs \
                     threshold {threshold} at {disruptions} disruptions",
                    node.index()
                )
            }
            TraceEvent::TxnExpanded {
                app, node, delta, ..
            } => {
                format!(
                    "    expand app{} onto node{} (satisfaction delta {delta:+.6})",
                    app.index(),
                    node.index()
                )
            }
            TraceEvent::CachePassStats { counters, .. } => {
                format!(
                    "  cache: score {}/{} demand {}/{} batch {}/{} columns {}/{} (hits/misses)",
                    counters.score_hits,
                    counters.score_misses,
                    counters.demand_hits,
                    counters.demand_misses,
                    counters.batch_hits,
                    counters.batch_misses,
                    counters.column_hits,
                    counters.column_misses
                )
            }
            TraceEvent::DeadlineTruncated {
                sweep, evaluations, ..
            } => {
                format!("  DEADLINE hit in sweep {sweep} after {evaluations} evaluations")
            }
            TraceEvent::OpResolved {
                app,
                node,
                op,
                attempt,
                outcome,
                latency_secs,
                ..
            } => {
                let retry = if attempt > 1 {
                    format!(" (attempt {attempt})")
                } else {
                    String::new()
                };
                format!(
                    "  op {op} app{} on node{}: {outcome}{retry}, {latency_secs}s sim latency",
                    app.index(),
                    node.index()
                )
            }
            TraceEvent::OpDeferred {
                app, node, reason, ..
            } => {
                format!(
                    "  op for app{} on node{} deferred ({reason})",
                    app.index(),
                    node.index()
                )
            }
            TraceEvent::Quarantined { app, node, .. } => {
                format!(
                    "  QUARANTINE app{} on node{} after repeated failures",
                    app.index(),
                    node.index()
                )
            }
            TraceEvent::ReconcileDiff { pending, .. } => {
                format!("  reconcile: desired vs actual differ by {pending} ops")
            }
            TraceEvent::CellEnter {
                cell, nodes, apps, ..
            } => {
                format!("  cell {cell}: solve {apps} apps over {nodes} nodes")
            }
            TraceEvent::CellExit {
                cell,
                evaluations,
                adoptions,
                timed_out,
                ..
            } => {
                let cut = if timed_out {
                    ", TRUNCATED by deadline"
                } else {
                    ""
                };
                format!(
                    "  cell {cell}: settled after {evaluations} evaluations, \
                     {adoptions} adoptions{cut}"
                )
            }
            TraceEvent::CellEscalated { app, reason, .. } => {
                format!(
                    "  ESCALATE app{} to the global residual ({})",
                    app.index(),
                    reason.name()
                )
            }
            TraceEvent::RebalanceMove {
                app,
                from_cell,
                to_cell,
                delta,
                adopted,
                ..
            } => {
                let verdict = if adopted { "ADOPT" } else { "reject" };
                format!(
                    "  rebalance: {verdict} moving app{} cell {from_cell} -> cell {to_cell} \
                     (satisfaction delta {delta:+.6})",
                    app.index()
                )
            }
            TraceEvent::RigidUtilization {
                ref dim,
                used,
                capacity,
                ..
            } => {
                let pct = if capacity > 0.0 {
                    used / capacity * 100.0
                } else {
                    0.0
                };
                format!("  rigid {dim}: {used:.1} of {capacity:.1} pinned ({pct:.1}%)")
            }
            TraceEvent::StarvationBreak {
                cycles, ref apps, ..
            } => {
                let ids: Vec<String> = apps.iter().map(|a| format!("app{}", a.index())).collect();
                format!(
                    "STARVATION BREAK after {cycles} identical cycles; starved: {}",
                    ids.join(", ")
                )
            }
            TraceEvent::HeartbeatMissed {
                node, consecutive, ..
            } => {
                format!(
                    "    heartbeat from node{} lost ({consecutive} consecutive)",
                    node.index()
                )
            }
            TraceEvent::NodeSuspected { node, misses, .. } => {
                format!(
                    "  SUSPECT node{} after {misses} missed heartbeats — frozen for new placements",
                    node.index()
                )
            }
            TraceEvent::NodeDeclaredDead { node, misses, .. } => {
                format!(
                    "  DECLARE node{} dead after {misses} missed heartbeats — evicting residents",
                    node.index()
                )
            }
            TraceEvent::NodeReinstated { node, .. } => {
                format!("  REINSTATE node{} — heartbeats recovered", node.index())
            }
            TraceEvent::StaleHold {
                age_cycles,
                budget,
                mode,
                ..
            } => {
                format!(
                    "  STALE snapshot ({age_cycles} cycles old, budget {budget}) — degrading to {mode}"
                )
            }
            TraceEvent::PolicyInvoked {
                ref policy,
                ref class,
                ..
            } => {
                format!("  policy {policy} ({class}) invoked")
            }
            TraceEvent::DemandEstimate {
                app,
                observed,
                estimate,
                ..
            } => {
                format!(
                    "    demand estimate for app{}: {estimate:.3} (true rate {observed:.3})",
                    app.index()
                )
            }
        }
    }
}

/// Receives trace events. Implementations must be cheap when disabled:
/// call sites check [`TraceSink::wants`] before building events, so a
/// sink that returns `false` costs one virtual call per decision site.
pub trait TraceSink: fmt::Debug {
    /// Whether events at `level` will be recorded. Call sites may skip
    /// event construction (including delta computation) when this is
    /// `false`.
    fn wants(&self, level: TraceLevel) -> bool;

    /// Records one event. Implementations filter by
    /// [`TraceEvent::level`] themselves, so unconditional callers are
    /// also correct.
    fn record(&self, event: &TraceEvent);
}

/// The default sink: wants nothing, records nothing. With this sink the
/// controller's behavior and outputs are bit-identical to an untraced
/// build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn wants(&self, _level: TraceLevel) -> bool {
        false
    }

    fn record(&self, _event: &TraceEvent) {}
}

/// Buffers events as compact JSON lines (one event per line), filtered
/// by a [`TraceLevel`].
///
/// The sink is internally synchronized so the engine can share it behind
/// an `Arc`; the optimizer only records from its coordinating thread, so
/// event order is deterministic.
#[derive(Debug)]
pub struct JsonlSink {
    level: TraceLevel,
    lines: Mutex<Vec<String>>,
}

impl JsonlSink {
    /// Creates an empty sink recording events up to `level`.
    pub fn new(level: TraceLevel) -> Self {
        JsonlSink {
            level,
            lines: Mutex::new(Vec::new()),
        }
    }

    /// The buffered lines, in record order.
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().expect("trace buffer poisoned").clone()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("trace buffer poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The full JSONL document (trailing newline included when
    /// non-empty).
    pub fn to_jsonl(&self) -> String {
        let lines = self.lines.lock().expect("trace buffer poisoned");
        let mut out = String::new();
        for line in lines.iter() {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// The JSONL document with nondeterministic fields stripped from
    /// every line — the golden-comparison form.
    pub fn deterministic_jsonl(&self) -> String {
        let lines = self.lines.lock().expect("trace buffer poisoned");
        let mut out = String::new();
        for line in lines.iter() {
            out.push_str(&strip_nondeterministic(line));
            out.push('\n');
        }
        out
    }

    /// Flushes the buffered document to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }
}

impl TraceSink for JsonlSink {
    fn wants(&self, level: TraceLevel) -> bool {
        level <= self.level
    }

    fn record(&self, event: &TraceEvent) {
        if !self.wants(event.level()) {
            return;
        }
        let line = event.to_json().compact();
        self.lines.lock().expect("trace buffer poisoned").push(line);
    }
}

/// Removes the nondeterministic fields (`wall_secs`) from one JSONL
/// line, returning the deterministic remainder in compact form. Lines
/// that fail to parse are returned unchanged.
pub fn strip_nondeterministic(line: &str) -> String {
    match Json::parse(line) {
        Ok(Json::Obj(fields)) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "wall_secs")
                .collect(),
        )
        .compact(),
        _ => line.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use dynaplace_json::FromJson;

    use super::*;

    fn span() -> TraceEvent {
        TraceEvent::PhaseSpan {
            time: 300.0,
            cycle: 1,
            phase: Phase::Optimize,
            wall_secs: 0.004217,
        }
    }

    #[test]
    fn levels_are_ordered_and_named() {
        assert!(TraceLevel::Decisions < TraceLevel::Verbose);
        assert_eq!(
            TraceLevel::from_name("decisions"),
            Some(TraceLevel::Decisions)
        );
        assert_eq!(TraceLevel::from_name("verbose"), Some(TraceLevel::Verbose));
        assert_eq!(TraceLevel::from_name("debug"), None);
        assert_eq!(TraceLevel::Verbose.name(), "verbose");
    }

    #[test]
    fn noop_sink_wants_nothing() {
        let sink = NoopSink;
        assert!(!sink.wants(TraceLevel::Decisions));
        assert!(!sink.wants(TraceLevel::Verbose));
        sink.record(&span()); // must not panic, must not observe anything
    }

    #[test]
    fn jsonl_sink_filters_by_level() {
        let sink = JsonlSink::new(TraceLevel::Decisions);
        sink.record(&TraceEvent::CycleStart {
            time: 0.0,
            cycle: 0,
        });
        sink.record(&TraceEvent::NodeEnter {
            time: 0.0,
            sweep: 0,
            node: NodeId::new(2),
            residents: 3,
        });
        assert_eq!(sink.len(), 1, "verbose event must be filtered");

        let verbose = JsonlSink::new(TraceLevel::Verbose);
        verbose.record(&TraceEvent::CycleStart {
            time: 0.0,
            cycle: 0,
        });
        verbose.record(&TraceEvent::NodeEnter {
            time: 0.0,
            sweep: 0,
            node: NodeId::new(2),
            residents: 3,
        });
        assert_eq!(verbose.len(), 2);
    }

    #[test]
    fn jsonl_lines_parse_and_tag_kind() {
        let sink = JsonlSink::new(TraceLevel::Verbose);
        sink.record(&TraceEvent::CandidateAccepted {
            time: 600.0,
            sweep: 0,
            node: NodeId::new(1),
            delta: 0.25,
            disruptions: 2,
            threshold: 0.02,
        });
        sink.record(&span());
        for line in sink.lines() {
            let v = Json::parse(&line).expect("every trace line is valid JSON");
            assert!(v.get("ev").and_then(Json::as_str).is_some());
            assert!(v.get("time").and_then(Json::as_f64).is_some());
        }
    }

    #[test]
    fn strip_removes_only_wall_clock() {
        let line = span().to_json().compact();
        let stripped = strip_nondeterministic(&line);
        assert!(line.contains("wall_secs"));
        assert!(!stripped.contains("wall_secs"));
        let v = Json::parse(&stripped).expect("stripped line still parses");
        assert_eq!(v.get("ev").and_then(Json::as_str), Some("phase_span"));
        assert_eq!(v.get("cycle").and_then(Json::as_f64), Some(1.0));

        // Lines without nondeterministic fields are unchanged.
        let plain = TraceEvent::CycleStart {
            time: 0.0,
            cycle: 0,
        }
        .to_json()
        .compact();
        assert_eq!(strip_nondeterministic(&plain), plain);
    }

    #[test]
    fn deterministic_jsonl_is_stable_across_wall_clock() {
        let a = JsonlSink::new(TraceLevel::Decisions);
        let b = JsonlSink::new(TraceLevel::Decisions);
        for (sink, wall) in [(&a, 0.001), (&b, 0.999)] {
            sink.record(&TraceEvent::CycleStart {
                time: 300.0,
                cycle: 1,
            });
            sink.record(&TraceEvent::PhaseSpan {
                time: 300.0,
                cycle: 1,
                phase: Phase::Sample,
                wall_secs: wall,
            });
        }
        assert_ne!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.deterministic_jsonl(), b.deterministic_jsonl());
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = [
            TraceEvent::CycleStart {
                time: 300.0,
                cycle: 1,
            },
            span(),
            TraceEvent::OptimizeStart {
                time: 300.0,
                mode: OptimizeMode::FillOnly,
                apps: 5,
                nodes: 4,
            },
            TraceEvent::OptimizeEnd {
                time: 300.0,
                evaluations: 120,
                sweeps: 2,
                adoptions: 3,
                timed_out: false,
            },
            TraceEvent::NodeEnter {
                time: 300.0,
                sweep: 0,
                node: NodeId::new(2),
                residents: 3,
            },
            TraceEvent::NodeExit {
                time: 300.0,
                sweep: 0,
                node: NodeId::new(2),
                candidates: 7,
                adopted: true,
            },
            TraceEvent::CandidateAccepted {
                time: 300.0,
                sweep: 1,
                node: NodeId::new(0),
                delta: 0.125,
                disruptions: 2,
                threshold: 0.02,
            },
            TraceEvent::CandidateRejected {
                time: 300.0,
                sweep: 1,
                node: NodeId::new(0),
                delta: 0.001,
                disruptions: 4,
                threshold: 0.02,
            },
            TraceEvent::TxnExpanded {
                time: 300.0,
                app: AppId::new(1),
                node: NodeId::new(3),
                delta: 0.05,
            },
            TraceEvent::CachePassStats {
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
            TraceEvent::DeadlineTruncated {
                time: 300.0,
                sweep: 1,
                evaluations: 55,
            },
            TraceEvent::OpResolved {
                time: 310.0,
                cycle: 1,
                app: AppId::new(4),
                node: NodeId::new(0),
                op: "migrate",
                attempt: 3,
                outcome: "timed_out",
                latency_secs: 13.2,
            },
            TraceEvent::OpDeferred {
                time: 310.0,
                cycle: 1,
                app: AppId::new(4),
                node: NodeId::new(0),
                reason: "rollback",
            },
            TraceEvent::Quarantined {
                time: 310.0,
                cycle: 1,
                app: AppId::new(4),
                node: NodeId::new(0),
            },
            TraceEvent::ReconcileDiff {
                time: 600.0,
                cycle: 2,
                pending: 3,
            },
            TraceEvent::CellEnter {
                time: 300.0,
                cell: 2,
                nodes: 64,
                apps: 17,
            },
            TraceEvent::CellExit {
                time: 300.0,
                cell: 2,
                evaluations: 400,
                adoptions: 6,
                timed_out: false,
            },
            TraceEvent::CellEscalated {
                time: 300.0,
                app: AppId::new(9),
                reason: EscalationReason::CrossCellPin,
            },
            TraceEvent::RebalanceMove {
                time: 300.0,
                app: AppId::new(5),
                from_cell: 0,
                to_cell: 3,
                delta: 0.04,
                adopted: true,
            },
            TraceEvent::RigidUtilization {
                time: 300.0,
                cycle: 1,
                dim: "disk_mb".to_string(),
                used: 1_024.0,
                capacity: 4_096.0,
            },
            TraceEvent::StarvationBreak {
                time: 4_200.0,
                cycles: 64,
                apps: vec![AppId::new(1), AppId::new(2)],
            },
            TraceEvent::HeartbeatMissed {
                time: 300.0,
                cycle: 1,
                node: NodeId::new(2),
                consecutive: 3,
            },
            TraceEvent::NodeSuspected {
                time: 300.0,
                cycle: 1,
                node: NodeId::new(2),
                misses: 2,
            },
            TraceEvent::NodeDeclaredDead {
                time: 600.0,
                cycle: 2,
                node: NodeId::new(2),
                misses: 4,
            },
            TraceEvent::NodeReinstated {
                time: 1_200.0,
                cycle: 4,
                node: NodeId::new(2),
            },
            TraceEvent::StaleHold {
                time: 600.0,
                cycle: 2,
                age_cycles: 3,
                budget: 1,
                mode: "fill_only",
            },
            TraceEvent::DemandEstimate {
                time: 300.0,
                cycle: 1,
                app: AppId::new(3),
                observed: 42.5,
                estimate: 51.0,
            },
            TraceEvent::PolicyInvoked {
                time: 600.0,
                cycle: 1,
                policy: "vector-bin-packing".to_string(),
                class: "baseline".to_string(),
            },
        ];
        for ev in events {
            let back = TraceEvent::from_json(&ev.to_json()).expect("round trip");
            assert_eq!(back, ev);
            // The stripped form still parses; only wall_secs is zeroed.
            let stripped = Json::parse(&strip_nondeterministic(&ev.to_json().compact())).unwrap();
            let back = TraceEvent::from_json(&stripped).expect("stripped round trip");
            if let TraceEvent::PhaseSpan { wall_secs, .. } = back {
                assert_eq!(wall_secs, 0.0);
            } else {
                assert_eq!(back, ev);
            }
        }
        // Unknown kinds and vocabulary are typed errors, not panics.
        let bad = Json::parse(r#"{"ev":"warp_core_breach","time":0.0}"#).unwrap();
        assert!(TraceEvent::from_json(&bad).is_err());
        let bad = Json::parse(
            r#"{"ev":"op_resolved","time":0.0,"cycle":0,"app":0,"node":0,
                "op":"defenestrate","attempt":1,"outcome":"applied","latency_secs":1.0}"#,
        )
        .unwrap();
        assert!(TraceEvent::from_json(&bad).is_err());
    }

    /// Decodes `line`, which must fail with an error naming each needle.
    fn rejects(line: &str, needles: &[&str]) {
        let err = TraceEvent::from_json(&Json::parse(line).unwrap()).unwrap_err();
        for needle in needles {
            assert!(err.message.contains(needle), "{line}: {}", err.message);
        }
    }

    #[test]
    fn fractional_integer_is_rejected_naming_the_field() {
        rejects(
            r#"{"ev":"cycle_start","time":0.0,"cycle":1.5}"#,
            &["cycle_start: field 'cycle'", "expected an integer, got 1.5"],
        );
    }

    #[test]
    fn negative_integer_is_rejected_naming_the_field() {
        rejects(
            r#"{"ev":"reconcile_diff","time":0.0,"cycle":1,"pending":-1}"#,
            &["field 'pending'", "-1 is out of range for usize"],
        );
    }

    #[test]
    fn integer_beyond_u64_is_rejected_naming_the_field() {
        // Used to saturate to u64::MAX.
        rejects(
            r#"{"ev":"cycle_start","time":0.0,"cycle":1e20}"#,
            &["field 'cycle'", "out of range for u64"],
        );
        rejects(
            r#"{"ev":"cell_enter","time":0.0,"cell":18446744073709551616,"nodes":1,"apps":1}"#,
            &["field 'cell'", "out of range for u64"],
        );
    }

    #[test]
    fn id_beyond_u32_is_rejected_naming_the_field() {
        rejects(
            r#"{"ev":"node_reinstated","time":0.0,"cycle":1,"node":4294967296}"#,
            &["field 'node'", "node id 4294967296 is out of range for u32"],
        );
        rejects(
            r#"{"ev":"starvation_break","time":0.0,"cycles":3,"apps":[1,4294967296]}"#,
            &["field 'apps'", "app id 4294967296 is out of range for u32"],
        );
    }

    #[test]
    fn non_number_is_rejected_naming_the_field() {
        rejects(
            r#"{"ev":"cycle_start","time":0.0,"cycle":"1"}"#,
            &["field 'cycle'", "expected a number"],
        );
        rejects(
            r#"{"ev":"txn_expanded","time":0.0,"app":null,"node":1,"delta":0.5}"#,
            &["field 'app'", "expected a number"],
        );
    }

    #[test]
    fn unknown_names_are_rejected_listing_the_known_ones() {
        rejects(
            r#"{"ev":"warp_core_breach","time":0.0}"#,
            &[
                "field 'ev'",
                "\"warp_core_breach\"",
                "cycle_start|phase_span|",
            ],
        );
        rejects(
            r#"{"ev":"op_deferred","time":0.0,"cycle":0,"app":0,"node":0,"reason":"quarantine"}"#,
            &["field 'reason'", "expected one of backoff|rollback"],
        );
        rejects(
            r#"{"ev":"phase_span","time":0.0,"cycle":0,"phase":"dream"}"#,
            &["field 'phase'", "optimize|actuate|reconcile|sample"],
        );
    }

    #[test]
    fn narratives_mention_the_actors() {
        let ev = TraceEvent::OpResolved {
            time: 900.0,
            cycle: 3,
            app: AppId::new(7),
            node: NodeId::new(2),
            op: "boot",
            attempt: 2,
            outcome: "applied",
            latency_secs: 45.0,
        };
        let text = ev.narrative();
        assert!(text.contains("app7"));
        assert!(text.contains("node2"));
        assert!(text.contains("attempt 2"));
        assert!(TraceEvent::CycleStart {
            time: 300.0,
            cycle: 1
        }
        .narrative()
        .contains("cycle 1"));
    }
}
