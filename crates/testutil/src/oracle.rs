//! Whole-run oracles over [`RunMetrics`] and a bitwise differential
//! comparator for runs whose contracts promise bit-equivalence.
//!
//! Three families (see DESIGN.md §14):
//!
//! - **Invariant** — [`check_run`]: per-dimension capacity never
//!   exceeded by the recorded actual placement, per-app instance bounds,
//!   monotone time and completion accounting, no *silent* starvation for
//!   horizon-free specs (every job completes or is named in the engine's
//!   starvation report), and desired/actual convergence once the
//!   actuation fault window plus backoff grace has passed.
//! - **Differential** — [`first_divergence`]: every float compared via
//!   `to_bits`, with `placement_compute_secs` (wall clock) always
//!   excluded; the message names the cycle, app, and field.
//! - **Metamorphic** — built by tests from the two pieces above, e.g.
//!   comparing a run against its slack-dimension-augmented twin with
//!   [`DiffOptions::ignore_rigid_utilization`].

use dynaplace_sim::metrics::{CompletionRecord, CycleSample, RunMetrics};
use dynaplace_sim::spec::{ActuationSpec, ArrivalSpec, ScenarioSpec};
use dynaplace_sim::{Simulation, Submission};

use crate::render_placement_diff;

/// Relative slack for capacity sums, mirroring
/// [`crate::PlacementInvariants`].
const CAP_EPS: f64 = 1e-6;

/// Builds and runs a spec with placement recording on, panicking on a
/// spec the generator should never have produced.
pub fn run_spec(spec: &ScenarioSpec) -> RunMetrics {
    run_spec_with(spec, |_| {})
}

/// Like [`run_spec`], but lets the caller tweak the simulation before
/// it runs (swap the APC config, attach a trace sink, ...).
pub fn run_spec_with(spec: &ScenarioSpec, tweak: impl FnOnce(&mut Simulation)) -> RunMetrics {
    let mut sim = spec
        .build_checked()
        .unwrap_or_else(|e| panic!("generated spec must be valid: {e}"));
    sim.record_placements(true);
    tweak(&mut sim);
    sim.run()
}

/// Per-app rigid demands and instance bounds, derived from the spec the
/// same way the scenario builder assigns app ids: job groups first in
/// declaration order (one app per arrival; `at` arrivals yield one app
/// per listed time), then txns, then every submission the generative
/// `workload` block produces, in admission order.
struct AppModel {
    label: String,
    /// Memory first, then the extra dims in registry order.
    rigid: Vec<f64>,
    max_instances: u32,
    /// Whether this app is a batch job (completes) rather than a
    /// transactional application (never does).
    is_job: bool,
}

fn app_models(spec: &ScenarioSpec) -> Vec<AppModel> {
    let mut apps = Vec::new();
    for (j, group) in spec.jobs.iter().enumerate() {
        let arrivals = match &group.arrivals {
            ArrivalSpec::At(times) => times.len(),
            _ => group.count,
        };
        let mut rigid = vec![group.memory_mb];
        for dim in &spec.resources {
            rigid.push(group.resources.get(dim).copied().unwrap_or(0.0));
        }
        for _ in 0..arrivals {
            apps.push(AppModel {
                label: format!("job group {j}"),
                rigid: rigid.clone(),
                max_instances: group.tasks,
                is_job: true,
            });
        }
    }
    for (t, txn) in spec.txns.iter().enumerate() {
        let mut rigid = vec![txn.memory_mb];
        for dim in &spec.resources {
            rigid.push(txn.resources.get(dim).copied().unwrap_or(0.0));
        }
        apps.push(AppModel {
            label: format!("txn {t}"),
            rigid,
            max_instances: txn.max_instances,
            is_job: false,
        });
    }
    // Generated apps take the ids above the classic block, in the
    // order lock-step admission (and streaming id assignment) drains
    // the generative source.
    for (g, submission) in spec.generated_submissions().into_iter().enumerate() {
        apps.push(match submission {
            Submission::Job(job) => AppModel {
                label: format!("generated job {g}"),
                rigid: std::iter::once(job.memory_mb)
                    .chain(job.extra_rigid.iter().copied())
                    .collect(),
                max_instances: job.tasks,
                is_job: true,
            },
            Submission::Txn(txn) => AppModel {
                label: format!("generated txn {g}"),
                rigid: std::iter::once(txn.memory_mb)
                    .chain(txn.extra_rigid.iter().copied())
                    .collect(),
                max_instances: txn.max_instances,
                is_job: false,
            },
        });
    }
    apps
}

/// Per-node capacities: memory first, then extra dims in registry
/// order, expanded per node in group declaration order.
fn node_capacities(spec: &ScenarioSpec) -> Vec<Vec<f64>> {
    let mut nodes = Vec::new();
    for group in &spec.nodes {
        let mut caps = vec![group.memory_mb];
        for dim in &spec.resources {
            caps.push(group.resources.get(dim).copied().unwrap_or(0.0));
        }
        for _ in 0..group.count {
            nodes.push(caps.clone());
        }
    }
    nodes
}

fn dim_name(spec: &ScenarioSpec, d: usize) -> &str {
    if d == 0 {
        "memory_mb"
    } else {
        &spec.resources[d - 1]
    }
}

/// Grace instant after which the reconciliation loop must have drained
/// every pending action: the actuation fault window end, plus full
/// quarantine and backoff decay, plus a few control cycles to flush.
/// With an observation layer, also past its transport-fault window plus
/// enough cycles for the health machine to reinstate every
/// false-positive death and for stale reports to age out. `None` when
/// either layer's faults are unbounded (no `fail_until` / `loss_until`).
fn convergence_grace(spec: &ScenarioSpec) -> Option<f64> {
    let actuation = if spec.actuation == ActuationSpec::default() {
        0.0
    } else {
        spec.actuation.fail_until_secs.map(|fail_until| {
            fail_until
                + spec.actuation.quarantine_secs
                + 4.0 * spec.actuation.max_backoff_secs
                + 5.0 * spec.cycle_secs
        })?
    };
    let observation = match &spec.observation {
        Some(o) if o.heartbeat_loss > 0.0 || o.max_staleness_cycles > 0 || o.noise > 0.0 => {
            let settle = f64::from(
                o.dead_after
                    + o.reinstate_after
                    + o.max_staleness_cycles
                    + o.staleness_budget_cycles
                    + 5,
            );
            o.loss_until_secs
                .map(|until| until + settle * spec.cycle_secs)?
        }
        // Estimator-only configs (smoothing, headroom) never destabilize
        // reconciliation: they change what is desired, not whether the
        // desired state is reachable.
        _ => 0.0,
    };
    Some(actuation.max(observation))
}

/// Bounded retry work: actuation retries grow with the run's length and
/// with the operations that failed, never multiply. The engine queues
/// at most one retry per instant (DESIGN.md §10), and a retry is queued
/// either at a failed or timed-out operation's backoff instant, or one
/// `base_backoff` after a transition that rolled a start back. Follow
/// the second kind back one `base_backoff` at a time and each chain
/// ends at an instant that is not a rollback retry: a failure's
/// retry, a control cycle, an arrival or completion, or a node failure
/// or recovery. Each such root heads at most one retry per
/// `base_backoff` up to the run's end, so
///
/// `retry_events ≤ F + (F + cycles + 2 · apps + 2 · outages) · (⌊end / base_backoff⌋ + 1)`
///
/// with `F = failed_ops + timed_out_ops`. `end` is the last recorded
/// instant plus one cycle, the longest backoff and a quarantine, which
/// covers retries that outlive the last control cycle. Duplicate
/// retries at one instant double at every backoff step and break this
/// within a few dozen steps.
fn retry_work_violation(spec: &ScenarioSpec, metrics: &RunMetrics, apps: usize) -> Option<String> {
    let a = &metrics.actuation;
    let failed = a.failed_ops + a.timed_out_ops;
    let roots = failed
        + metrics.samples.len() as u64
        + 2 * apps as u64
        + 2 * spec.node_failures.len() as u64;
    let last = metrics
        .samples
        .iter()
        .map(|s| s.time.as_secs())
        .chain(metrics.completions.iter().map(|c| c.completion.as_secs()))
        .chain(metrics.starvation.iter().map(|r| r.time.as_secs()))
        .chain(spec.horizon_secs)
        .fold(0.0, f64::max);
    let end =
        last + spec.cycle_secs + spec.actuation.max_backoff_secs + spec.actuation.quarantine_secs;
    // A zero backoff makes the step count infinite; `as` saturates it.
    let steps = ((end / spec.actuation.base_backoff_secs).floor() as u64).saturating_add(1);
    let bound = failed.saturating_add(roots.saturating_mul(steps));
    (a.retry_events > bound).then(|| {
        format!(
            "{} actuation-retry events exceed the bound {bound} ({failed} failed or timed-out \
             operations, {roots} chain roots, {steps} backoff steps to t={end}s)",
            a.retry_events
        )
    })
}

/// Checks every whole-run invariant the spec's contract implies.
/// Returns all violations (not just the first) so a fuzz failure
/// message shows the full shape of the breakage.
pub fn check_run(spec: &ScenarioSpec, metrics: &RunMetrics) -> Result<(), Vec<String>> {
    let apps = app_models(spec);
    let nodes = node_capacities(spec);
    let mut violations = Vec::new();

    // Time axis: strictly increasing cycle samples, one placement
    // record per sample when recording is on.
    for pair in metrics.samples.windows(2) {
        if pair[1].time <= pair[0].time {
            violations.push(format!(
                "cycle samples out of order: t={}s then t={}s",
                pair[0].time.as_secs(),
                pair[1].time.as_secs()
            ));
        }
    }
    if !metrics.placements.is_empty() && metrics.placements.len() != metrics.samples.len() {
        violations.push(format!(
            "{} placement records for {} cycle samples",
            metrics.placements.len(),
            metrics.samples.len()
        ));
    }

    // Actual placement: known ids, instance bounds, and per-dimension
    // capacity on every node at every recorded cycle. The engine
    // debug-asserts this internally; the oracle re-derives it from the
    // spec alone so a broken engine cannot vouch for itself.
    for (cycle, record) in metrics.placements.iter().enumerate() {
        let t = record.time.as_secs();
        let mut used = vec![vec![0.0f64; nodes.first().map_or(1, Vec::len)]; nodes.len()];
        let mut instances = vec![0u32; apps.len()];
        for (app, node, count) in record.placement.iter() {
            let (a, n) = (app.index(), node.index());
            if a >= apps.len() {
                violations.push(format!("cycle {cycle} (t={t}s): unknown app a{a} placed"));
                continue;
            }
            if n >= nodes.len() {
                violations.push(format!("cycle {cycle} (t={t}s): unknown node n{n} used"));
                continue;
            }
            instances[a] += count;
            for (d, demand) in apps[a].rigid.iter().enumerate() {
                used[n][d] += f64::from(count) * demand;
            }
        }
        for (a, &placed) in instances.iter().enumerate() {
            if placed > apps[a].max_instances {
                violations.push(format!(
                    "cycle {cycle} (t={t}s): app a{a} ({}) has {placed} instances, max {}",
                    apps[a].label, apps[a].max_instances
                ));
            }
        }
        for (n, node_used) in used.iter().enumerate() {
            for (d, &u) in node_used.iter().enumerate() {
                let cap = nodes[n][d];
                if u > cap * (1.0 + CAP_EPS) + CAP_EPS {
                    violations.push(format!(
                        "cycle {cycle} (t={t}s): node n{n} over capacity in {}: used {u}, capacity {cap}",
                        dim_name(spec, d)
                    ));
                }
            }
        }
    }

    // Completion accounting: nondecreasing completion times, each job
    // app completes at most once, txns never complete, distances are
    // consistent, and horizon-free runs starve no job.
    let mut completed = vec![0usize; apps.len()];
    for (i, c) in metrics.completions.iter().enumerate() {
        let a = c.app.index();
        if a >= apps.len() || !apps[a].is_job {
            violations.push(format!("completion {i}: app a{a} is not a batch job"));
            continue;
        }
        completed[a] += 1;
        if completed[a] > 1 {
            violations.push(format!("completion {i}: app a{a} completed more than once"));
        }
        if c.completion < c.arrival {
            violations.push(format!(
                "completion {i} (app a{a}): completes at {}s before arriving at {}s",
                c.completion.as_secs(),
                c.arrival.as_secs()
            ));
        }
        let distance = c.deadline.as_secs() - c.completion.as_secs();
        if (c.distance.as_secs() - distance).abs() > 1e-6 * distance.abs().max(1.0) {
            violations.push(format!(
                "completion {i} (app a{a}): distance {} != deadline - completion = {distance}",
                c.distance.as_secs()
            ));
        }
        if c.met_deadline != (c.completion <= c.deadline) {
            violations.push(format!(
                "completion {i} (app a{a}): met_deadline={} but completion {}s vs deadline {}s",
                c.met_deadline,
                c.completion.as_secs(),
                c.deadline.as_secs()
            ));
        }
    }
    for pair in metrics.completions.windows(2) {
        if pair[1].completion < pair[0].completion {
            violations.push(format!(
                "completions out of order: {}s then {}s",
                pair[0].completion.as_secs(),
                pair[1].completion.as_secs()
            ));
        }
    }
    // No silent starvation: in a horizon-free run every job either
    // completes or is explicitly named in the starvation report the
    // engine's breaker recorded when it proved the run livelocked.
    let starved: std::collections::BTreeSet<usize> = metrics
        .starvation
        .as_ref()
        .map(|s| s.apps.iter().map(|a| a.index()).collect())
        .unwrap_or_default();
    if spec.horizon_secs.is_none() {
        for (a, &n) in completed.iter().enumerate() {
            if apps[a].is_job && n == 0 && !starved.contains(&a) {
                violations.push(format!(
                    "silent starvation: job app a{a} neither completed nor was reported \
                     starved in a horizon-free run"
                ));
            }
        }
    }
    if let Some(report) = &metrics.starvation {
        if spec.horizon_secs.is_some() {
            violations.push("starvation breaker fired in a horizon-bounded run".into());
        }
        if report.apps.is_empty() {
            violations.push("starvation report names no apps".into());
        }
        for app in &report.apps {
            let a = app.index();
            if a >= apps.len() || !apps[a].is_job {
                violations.push(format!(
                    "starvation report names a{a}, which is not a batch job"
                ));
            } else if completed[a] > 0 {
                violations.push(format!("starvation report names a{a}, which completed"));
            }
        }
    }

    // Desired/actual convergence: with default (infallible) actuation
    // every sample is fully reconciled; with bounded faults, every
    // sample past the grace instant must be.
    if let Some(grace) = convergence_grace(spec) {
        for (cycle, sample) in metrics.samples.iter().enumerate() {
            if sample.time.as_secs() >= grace && sample.pending_actions != 0 {
                violations.push(format!(
                    "cycle {cycle} (t={}s): {} pending actions after the convergence grace \
                     instant ({grace}s)",
                    sample.time.as_secs(),
                    sample.pending_actions
                ));
            }
        }
    }

    if let Some(violation) = retry_work_violation(spec, metrics, apps.len()) {
        violations.push(violation);
    }

    // Observation-layer accounting. Without an `observation` block the
    // counters must stay untouched (exactly-off contract). With one,
    // the health machine's hysteresis implies hard arithmetic bounds:
    // every suspect episode consumed at least `suspect_after`
    // consecutive misses (episodes that ended in a believed death
    // consumed at least `dead_after`), episodes are disjoint in misses,
    // and deaths/reinstatements only ever happen to suspects. A lossless
    // config (`heartbeat_loss == 0`) can never miss anything at all —
    // truth node failures are not telemetry loss.
    let obs = &metrics.observation;
    match &spec.observation {
        None => {
            if *obs != Default::default() {
                violations.push(format!(
                    "observation counters moved without an observation block: {obs:?}"
                ));
            }
        }
        Some(o) => {
            if obs.deaths > obs.suspects {
                violations.push(format!(
                    "{} believed deaths but only {} suspect transitions",
                    obs.deaths, obs.suspects
                ));
            }
            if obs.reinstatements > obs.suspects {
                violations.push(format!(
                    "{} reinstatements but only {} suspect transitions",
                    obs.reinstatements, obs.suspects
                ));
            } else if obs.deaths <= obs.suspects {
                let floor = obs.deaths * u64::from(o.dead_after)
                    + (obs.suspects - obs.deaths) * u64::from(o.suspect_after);
                if obs.missed_heartbeats < floor {
                    violations.push(format!(
                        "{} missed heartbeats cannot explain {} suspects / {} deaths \
                         (hysteresis floor {floor})",
                        obs.missed_heartbeats, obs.suspects, obs.deaths
                    ));
                }
            }
            if o.heartbeat_loss == 0.0 && (obs.lost_total() != 0 || obs.suspects != 0) {
                violations.push(format!(
                    "lossless telemetry lost {} reports / suspected {} nodes",
                    obs.lost_total(),
                    obs.suspects
                ));
            }
            if o.max_staleness_cycles == 0 && (obs.stale_holds != 0 || obs.fill_only_degrades != 0)
            {
                violations.push(format!(
                    "never-stale telemetry degraded anyway: {} holds, {} fill-only cycles",
                    obs.stale_holds, obs.fill_only_degrades
                ));
            }
            if o.degraded_mode == "hold" && obs.fill_only_degrades != 0 {
                violations.push(format!(
                    "hold-mode run recorded {} fill-only degrades",
                    obs.fill_only_degrades
                ));
            }
            if o.degraded_mode == "fill_only" && obs.stale_holds != 0 {
                violations.push(format!(
                    "fill_only-mode run recorded {} stale holds",
                    obs.stale_holds
                ));
            }
        }
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// [`check_run`] folded into a single message, for use as a fuzz
/// oracle.
pub fn check_run_message(spec: &ScenarioSpec, metrics: &RunMetrics) -> Result<(), String> {
    check_run(spec, metrics).map_err(|violations| violations.join("\n"))
}

/// What [`first_divergence`] may ignore. The default ignores nothing
/// (beyond wall-clock compute time, which is never compared).
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Skip `rigid_utilization`: the slack-dimension metamorphic
    /// relation adds a dimension, which legitimately adds a sample
    /// entry without changing any decision.
    pub ignore_rigid_utilization: bool,
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

fn opt_bits(v: Option<f64>) -> Option<u64> {
    v.map(bits)
}

/// Returns the first place two runs differ, or `None` when they are
/// bit-identical (modulo `placement_compute_secs`, which is wall clock
/// and never comparable). All floats are compared via `to_bits`; the
/// message names the cycle, app, and field so a fuzz-scale failure is
/// actionable without re-running anything.
pub fn first_divergence(a: &RunMetrics, b: &RunMetrics, opts: DiffOptions) -> Option<String> {
    if a.samples.len() != b.samples.len() {
        return Some(format!(
            "run A has {} cycle samples, run B has {}",
            a.samples.len(),
            b.samples.len()
        ));
    }
    for (i, (sa, sb)) in a.samples.iter().zip(&b.samples).enumerate() {
        if let Some(msg) = sample_divergence(i, sa, sb, opts) {
            return Some(msg);
        }
    }
    if a.completions.len() != b.completions.len() {
        return Some(format!(
            "run A has {} completions, run B has {}",
            a.completions.len(),
            b.completions.len()
        ));
    }
    for (i, (ca, cb)) in a.completions.iter().zip(&b.completions).enumerate() {
        if let Some(msg) = completion_divergence(i, ca, cb) {
            return Some(msg);
        }
    }
    if a.changes != b.changes {
        return Some(format!(
            "change counters differ: {:?} vs {:?}",
            a.changes, b.changes
        ));
    }
    if a.actuation != b.actuation {
        return Some(format!(
            "actuation counters differ: {:?} vs {:?}",
            a.actuation, b.actuation
        ));
    }
    if a.observation != b.observation {
        return Some(format!(
            "observation counters differ: {:?} vs {:?}",
            a.observation, b.observation
        ));
    }
    if a.placements.len() != b.placements.len() {
        return Some(format!(
            "run A has {} placement records, run B has {}",
            a.placements.len(),
            b.placements.len()
        ));
    }
    let starvation_key = |m: &RunMetrics| {
        m.starvation
            .as_ref()
            .map(|s| (bits(s.time.as_secs()), s.apps.clone()))
    };
    if starvation_key(a) != starvation_key(b) {
        return Some(format!(
            "starvation reports differ: {:?} vs {:?}",
            a.starvation, b.starvation
        ));
    }
    for (i, (pa, pb)) in a.placements.iter().zip(&b.placements).enumerate() {
        if bits(pa.time.as_secs()) != bits(pb.time.as_secs()) {
            return Some(format!(
                "placement record {i}: time differs: {}s vs {}s",
                pa.time.as_secs(),
                pb.time.as_secs()
            ));
        }
        if pa.placement != pb.placement {
            return Some(format!(
                "cycle {i} (t={}s): placement differs:\n{}",
                pa.time.as_secs(),
                render_placement_diff(&pa.placement, &pb.placement)
            ));
        }
    }
    None
}

fn sample_divergence(
    i: usize,
    a: &CycleSample,
    b: &CycleSample,
    opts: DiffOptions,
) -> Option<String> {
    let t = a.time.as_secs();
    let diff = |field: &str, va: String, vb: String| {
        Some(format!("cycle {i} (t={t}s): {field} differs: {va} vs {vb}"))
    };
    if bits(t) != bits(b.time.as_secs()) {
        return diff("time", format!("{t}"), format!("{}", b.time.as_secs()));
    }
    let rp = |v: Option<dynaplace_rpf::value::Rp>| v.map(|r| r.value());
    if opt_bits(rp(a.batch_hypothetical_rp)) != opt_bits(rp(b.batch_hypothetical_rp)) {
        return diff(
            "batch_hypothetical_rp",
            format!("{:?}", rp(a.batch_hypothetical_rp)),
            format!("{:?}", rp(b.batch_hypothetical_rp)),
        );
    }
    if opt_bits(rp(a.txn_rp)) != opt_bits(rp(b.txn_rp)) {
        return diff(
            "txn_rp",
            format!("{:?}", rp(a.txn_rp)),
            format!("{:?}", rp(b.txn_rp)),
        );
    }
    if bits(a.batch_allocation.as_mhz()) != bits(b.batch_allocation.as_mhz()) {
        return diff(
            "batch_allocation",
            format!("{}MHz", a.batch_allocation.as_mhz()),
            format!("{}MHz", b.batch_allocation.as_mhz()),
        );
    }
    if bits(a.txn_allocation.as_mhz()) != bits(b.txn_allocation.as_mhz()) {
        return diff(
            "txn_allocation",
            format!("{}MHz", a.txn_allocation.as_mhz()),
            format!("{}MHz", b.txn_allocation.as_mhz()),
        );
    }
    if a.running_jobs != b.running_jobs {
        return diff(
            "running_jobs",
            a.running_jobs.to_string(),
            b.running_jobs.to_string(),
        );
    }
    if a.waiting_jobs != b.waiting_jobs {
        return diff(
            "waiting_jobs",
            a.waiting_jobs.to_string(),
            b.waiting_jobs.to_string(),
        );
    }
    // placement_compute_secs is wall clock: never compared.
    if a.pending_actions != b.pending_actions {
        return diff(
            "pending_actions",
            a.pending_actions.to_string(),
            b.pending_actions.to_string(),
        );
    }
    if !opts.ignore_rigid_utilization {
        if a.rigid_utilization.len() != b.rigid_utilization.len() {
            return diff(
                "rigid_utilization dimensions",
                a.rigid_utilization.len().to_string(),
                b.rigid_utilization.len().to_string(),
            );
        }
        for (ra, rb) in a.rigid_utilization.iter().zip(&b.rigid_utilization) {
            if ra.dim != rb.dim
                || bits(ra.used) != bits(rb.used)
                || bits(ra.capacity) != bits(rb.capacity)
            {
                return diff(
                    &format!("rigid_utilization[{}]", ra.dim),
                    format!("{}/{}", ra.used, ra.capacity),
                    format!("{}={}/{}", rb.dim, rb.used, rb.capacity),
                );
            }
        }
    }
    None
}

fn completion_divergence(i: usize, a: &CompletionRecord, b: &CompletionRecord) -> Option<String> {
    let diff = |field: &str, va: String, vb: String| {
        Some(format!(
            "completion {i} (app a{}): {field} differs: {va} vs {vb}",
            a.app.index()
        ))
    };
    if a.app != b.app {
        return Some(format!(
            "completion {i}: app differs: a{} vs a{}",
            a.app.index(),
            b.app.index()
        ));
    }
    let fields = [
        ("arrival", a.arrival.as_secs(), b.arrival.as_secs()),
        ("completion", a.completion.as_secs(), b.completion.as_secs()),
        ("deadline", a.deadline.as_secs(), b.deadline.as_secs()),
        ("distance", a.distance.as_secs(), b.distance.as_secs()),
        ("rp", a.rp.value(), b.rp.value()),
        ("goal_factor", a.goal_factor, b.goal_factor),
    ];
    for (name, va, vb) in fields {
        if bits(va) != bits(vb) {
            return diff(name, format!("{va}"), format!("{vb}"));
        }
    }
    if a.met_deadline != b.met_deadline {
        return diff(
            "met_deadline",
            a.met_deadline.to_string(),
            b.met_deadline.to_string(),
        );
    }
    None
}
