//! Desired/actual reconciliation and fault handling: the effective
//! (failure-masked) cluster, node outage events, actuation retries, and
//! the fallible placement transition with feasibility rollback.

use super::*;

impl Simulation {
    /// Rebuilds the scheduler-visible cluster from the real one with every
    /// currently failed node's capacity zeroed. Nothing is built while no
    /// node is failed: [`Simulation::effective_cluster`] then borrows the
    /// real cluster.
    pub(super) fn rebuild_effective(&mut self) {
        if self.failed_nodes.is_empty() {
            self.failed_cluster = None;
            self.rebuild_observed();
            return;
        }
        // Keep the real cluster's rigid dimension registry: a default
        // (memory-only) registry would make multi-dim node vectors
        // inconsistent and be rejected at problem build time.
        let mut rebuilt = Cluster::new().with_dims(self.cluster.dims().clone());
        for (id, spec) in self.cluster.iter() {
            if self.failed_nodes.contains(&id) {
                // Zero every capacity but keep the node's rigid vector
                // dimensionality: a memory-only stand-in would make the
                // cluster dimensionally inconsistent under a multi-dim
                // registry and be rejected at problem build time.
                let zeroed = dynaplace_model::resources::Resources::new(vec![
                    0.0;
                    spec.rigid_capacity()
                        .len()
                ]);
                rebuilt.add_node(
                    dynaplace_model::node::NodeSpec::try_with_resources(CpuSpeed::ZERO, zeroed)
                        .expect("valid node capacities")
                        .with_name(format!("{id} (failed)")),
                );
            } else {
                rebuilt.add_node(spec.clone());
            }
        }
        self.failed_cluster = Some(rebuilt);
        // The controller's believed cluster is derived from the
        // effective one, so it must track every failure/recovery.
        self.rebuild_observed();
    }

    /// Rebuilds the cluster as the *controller believes* it: the
    /// effective (truth-masked) cluster with every believed-dead node's
    /// capacity additionally zeroed. `None` while nothing is believed
    /// dead, so the hot inactive path borrows the effective cluster
    /// directly.
    pub(super) fn rebuild_observed(&mut self) {
        if self.observation.believed_dead.is_empty() {
            self.observed_cluster = None;
            return;
        }
        let mut rebuilt = Cluster::new().with_dims(self.effective_cluster().dims().clone());
        for (id, spec) in self.effective_cluster().iter() {
            if self.observation.believed_dead.contains(&id) {
                let zeroed = dynaplace_model::resources::Resources::new(vec![
                    0.0;
                    spec.rigid_capacity()
                        .len()
                ]);
                rebuilt.add_node(
                    dynaplace_model::node::NodeSpec::try_with_resources(CpuSpeed::ZERO, zeroed)
                        .expect("valid node capacities")
                        .with_name(format!("{id} (believed dead)")),
                );
            } else {
                rebuilt.add_node(spec.clone());
            }
        }
        self.observed_cluster = Some(rebuilt);
    }

    /// Evicts every resident of `node` from the actual placement and
    /// load (jobs suspend, keeping their completed work; transactional
    /// instances just vanish), purges the node from the controller's
    /// standing decision so reconciliation stops aiming at it, and
    /// reprojects job completions. Shared between true node failures
    /// and telemetry-declared (believed) deaths — the caller decides
    /// which cluster view to rebuild and whether the scheduler reacts
    /// immediately. Idempotent: evicting an already-empty node touches
    /// nothing and counts no skips.
    pub(super) fn evict_node_residents(&mut self, node: NodeId) {
        let victims: Vec<AppId> = self.placement.apps_on(node).map(|(app, _)| app).collect();
        for app in victims {
            while self.placement.count(app, node) > 0 {
                if self.placement.remove(app, node).is_err() {
                    self.metrics.actuation.invariant_skips += 1;
                    break;
                }
            }
            self.load.set(app, node, CpuSpeed::ZERO);
            if let Some(job) = self.jobs.get_mut(&app) {
                if job.is_running() && !self.placement.is_placed(app) {
                    job.state.suspend();
                    job.node = None;
                    self.metrics.changes.suspends += 1;
                }
                job.allocation = self.load.app_total(app);
            }
        }
        // The controller's standing decision can no longer mean the dead
        // node; purge it so a later recovery does not resurrect stale
        // placement intents.
        let stale: Vec<AppId> = self.desired.apps_on(node).map(|(app, _)| app).collect();
        for app in stale {
            while self.desired.count(app, node) > 0 {
                if self.desired.remove(app, node).is_err() {
                    self.metrics.actuation.invariant_skips += 1;
                    break;
                }
            }
            self.desired_load.set(app, node, CpuSpeed::ZERO);
        }
        let ids: Vec<AppId> = self.jobs.keys().copied().collect();
        for app in ids {
            self.reschedule_completion(app);
        }
    }

    pub(super) fn on_node_failure(&mut self, node: NodeId) {
        self.advance_progress();
        if !self.failed_nodes.insert(node) {
            return; // already failed
        }
        // Zero the node's capacity in the scheduler-visible cluster,
        // then evict everything on it.
        self.rebuild_effective();
        self.evict_node_residents(node);
        // Let the scheduler react immediately.
        self.between_cycle_advice();
    }

    pub(super) fn on_node_recovery(&mut self, node: NodeId) {
        self.advance_progress();
        if !self.failed_nodes.remove(&node) {
            return; // never failed (or recovered already)
        }
        self.rebuild_effective();
        // The capacity is back; suspended jobs resume through the normal
        // scheduling path (advice pass now, full optimization next cycle).
        self.between_cycle_advice();
    }

    pub(super) fn on_actuation_retry(&mut self) {
        self.retry_instants.remove(&self.now.as_secs().to_bits());
        self.metrics.actuation.retry_events += 1;
        self.advance_progress();
        self.reconcile();
    }

    /// Queues an actuation retry at `at` unless one is already queued for
    /// that instant. The retry's reconcile re-issues every operation still
    /// owed at `at`, so a second retry at the same instant would only
    /// repeat it — and, since every reconcile that fails or rolls back an
    /// operation schedules again, duplicates would multiply at every
    /// backoff step.
    pub(super) fn schedule_retry(&mut self, at: SimTime) {
        if self.retry_instants.insert(at.as_secs().to_bits()) {
            self.events.push(at, EventKind::ActuationRetry);
        }
    }

    /// Whether `app` still participates in placement (an unfinished job or
    /// a registered transactional application).
    pub(super) fn app_is_live(&self, app: AppId) -> bool {
        self.jobs
            .get(&app)
            .map(|j| j.is_live())
            .unwrap_or_else(|| self.txns.contains_key(&app))
    }

    /// The desired placement restricted to what is still actuatable: live
    /// applications on live nodes.
    pub(super) fn surviving_desired(&self) -> Placement {
        self.desired
            .iter()
            .filter(|&(app, node, _)| !self.failed_nodes.contains(&node) && self.app_is_live(app))
            .collect()
    }

    /// Size of the diff between the actual placement and the surviving
    /// desired placement: the operations reconciliation still owes. Always
    /// zero with infallible actuation.
    pub(super) fn pending_actions(&self) -> usize {
        self.placement.diff(&self.surviving_desired()).len()
    }

    /// Drives the actual placement toward the (surviving) desired one by
    /// re-issuing the missing operations through the actuation layer.
    /// Runs on every actuation-retry event; a no-op when nothing diverged.
    pub(super) fn reconcile(&mut self) {
        match self.config.scheduler.class() {
            PolicyClass::Apc => {
                let target = self.surviving_desired();
                let actions = self.placement.diff(&target);
                if actions.is_empty() {
                    return;
                }
                let traced = self.trace.wants(TraceLevel::Decisions);
                let cycle = self.cycle_index.saturating_sub(1);
                if traced {
                    self.trace.record(&TraceEvent::ReconcileDiff {
                        time: self.now.as_secs(),
                        cycle,
                        pending: actions.len(),
                    });
                }
                let mut load = LoadDistribution::new();
                for (app, node, _count) in target.iter() {
                    let v = self.desired_load.get(app, node);
                    if v.as_mhz() > 0.0 {
                        load.set(app, node, v);
                    }
                }
                let started = Instant::now();
                self.apply_transition(target, load, &actions);
                if traced {
                    self.trace.record(&TraceEvent::PhaseSpan {
                        time: self.now.as_secs(),
                        cycle,
                        phase: Phase::Reconcile,
                        wall_secs: started.elapsed().as_secs_f64(),
                    });
                }
            }
            PolicyClass::Baseline => self.run_baseline_policy(),
        }
    }

    /// Applies a new placement + load through the (possibly fallible)
    /// actuation layer: resolves each VM operation, counts the ones that
    /// actually applied, charges transition latencies, reverse-applies
    /// failed/deferred operations so the *actual* placement keeps the old
    /// state, and derives every job's lifecycle from its actual placement
    /// *membership* (which also covers malleable parallel jobs whose task
    /// count changes without the job stopping).
    ///
    /// With the default [`ActuationConfig`] every operation applies with
    /// exactly the cost model's latency and this reduces to the
    /// infallible transition: `placement = target`, `load` verbatim.
    pub(super) fn apply_transition(
        &mut self,
        target: Placement,
        load: LoadDistribution,
        actions: &[PlacementAction],
    ) {
        // The controller's decision is the *desired* state verbatim; the
        // rest of this function decides how much of it actually lands.
        self.desired = target.clone();
        self.desired_load = load.clone();

        let acfg = self.config.actuation;
        let costs = self.config.costs;
        let traced = self.trace.wants(TraceLevel::Decisions);
        let trace_cycle = self.cycle_index.saturating_sub(1);

        // Pass 1: resolve every action against the actuation layer, before
        // any job-state changes (the boot-vs-resume distinction needs the
        // old `ever_started`). Failed and backoff-deferred operations are
        // reverse-applied onto `achieved`.
        let mut achieved = target;
        let mut latency: BTreeMap<AppId, SimDuration> = BTreeMap::new();
        let mut kept: std::collections::BTreeSet<(AppId, NodeId)> = Default::default();
        let mut diverged = false;
        // Applied instance-adding actions, in order, for the feasibility
        // rollback below: (action, counted as resume).
        let mut applied_adds: Vec<(PlacementAction, bool)> = Vec::new();
        // Transactional instances reconfigure freely, without an
        // operation; the rollback falls back to their additions.
        let mut txn_adds: Vec<PlacementAction> = Vec::new();

        for action in actions {
            let app = action.app();
            let Some(job) = self.jobs.get(&app) else {
                if !matches!(action, PlacementAction::Stop { .. }) {
                    txn_adds.push(*action);
                }
                continue;
            };
            let footprint = job
                .state
                .current_memory(&job.profile)
                .unwrap_or(Memory::ZERO);
            let (op, op_node) = match *action {
                PlacementAction::Start { node, .. } => {
                    let op = if job.ever_started {
                        VmOperation::Resume
                    } else {
                        VmOperation::Boot
                    };
                    (op, node)
                }
                PlacementAction::Stop { node, .. } => (VmOperation::Suspend, node),
                PlacementAction::Migrate { to, .. } => (VmOperation::Migrate, to),
            };
            // Backoff / quarantine gate: the operation is not even issued
            // this round; a retry event is already scheduled.
            if self.actuation.is_blocked(app, op_node, self.now) {
                Self::reverse_apply(
                    &mut achieved,
                    action,
                    &mut kept,
                    &mut self.metrics.actuation,
                );
                self.metrics.actuation.deferrals += 1;
                if traced {
                    self.trace.record(&TraceEvent::OpDeferred {
                        time: self.now.as_secs(),
                        cycle: trace_cycle,
                        app,
                        node: op_node,
                        reason: "backoff",
                    });
                }
                diverged = true;
                continue;
            }
            let attempt = self.actuation.next_attempt(app, op_node);
            let outcome = acfg.resolve(
                &costs,
                op,
                footprint,
                OpAttempt {
                    app,
                    node: op_node,
                    attempt,
                },
                self.now,
            );
            if traced {
                self.trace.record(&TraceEvent::OpResolved {
                    time: self.now.as_secs(),
                    cycle: trace_cycle,
                    app,
                    node: op_node,
                    op: op.name(),
                    attempt: u64::from(attempt),
                    outcome: outcome.name(),
                    latency_secs: outcome.latency().as_secs(),
                });
            }
            if outcome.applied() {
                let lat = match op {
                    // Suspends overlap the cycle boundary for free, as in
                    // the infallible engine.
                    VmOperation::Suspend => SimDuration::ZERO,
                    _ => outcome.latency(),
                };
                match op {
                    VmOperation::Boot => self.metrics.changes.starts += 1,
                    VmOperation::Resume => self.metrics.changes.resumes += 1,
                    VmOperation::Suspend => self.metrics.changes.suspends += 1,
                    VmOperation::Migrate => self.metrics.changes.migrations += 1,
                }
                if attempt > 1 {
                    self.metrics.actuation.retries += 1;
                }
                self.actuation.record_success(app, op_node);
                if !matches!(op, VmOperation::Suspend) {
                    applied_adds.push((*action, matches!(op, VmOperation::Resume)));
                }
                let entry = latency.entry(app).or_insert(SimDuration::ZERO);
                *entry = entry.max(lat);
            } else {
                // The operation burned its latency but the placement is
                // unchanged; back off and retry via reconciliation.
                Self::reverse_apply(
                    &mut achieved,
                    action,
                    &mut kept,
                    &mut self.metrics.actuation,
                );
                diverged = true;
                match outcome {
                    OpOutcome::Failed(_) => self.metrics.actuation.failed_ops += 1,
                    OpOutcome::TimedOut(_) => self.metrics.actuation.timed_out_ops += 1,
                    OpOutcome::Applied(_) => unreachable!("handled above"),
                }
                let entry = latency.entry(app).or_insert(SimDuration::ZERO);
                *entry = entry.max(outcome.latency());
                let detected = self.now + outcome.latency();
                let disp = self.actuation.record_failure(&acfg, app, op_node, detected);
                if disp.quarantined {
                    self.metrics.actuation.quarantines += 1;
                    if traced {
                        self.trace.record(&TraceEvent::Quarantined {
                            time: self.now.as_secs(),
                            cycle: trace_cycle,
                            app,
                            node: op_node,
                        });
                    }
                }
                self.schedule_retry(disp.retry_at);
            }
        }

        // An instance kept alive by a failed stop can make its node
        // infeasible for adds that *did* apply (in a real cluster the
        // hypervisor would refuse them: not enough free memory, or an
        // anti-affinity conflict with the instance that was supposed to be
        // gone). Roll back the most recent applied add on the offending
        // node — a transactional addition when no operation added an
        // instance there — until the placement is consistent;
        // reconciliation re-issues the rolled-back additions once the node
        // drains.
        if !kept.is_empty() {
            while let Err(err) = achieved.validate(self.effective_cluster(), &self.apps) {
                use dynaplace_model::error::ModelError;
                let node = match err {
                    ModelError::MemoryExceeded { node } => node,
                    ModelError::ResourceExceeded { node, .. } => node,
                    ModelError::AntiAffinityViolated { node, .. } => node,
                    _ => {
                        self.metrics.actuation.invariant_skips += 1;
                        break;
                    }
                };
                let adds_to_node = |a: &PlacementAction| match *a {
                    PlacementAction::Start { node: n, .. } => n == node,
                    PlacementAction::Migrate { to, .. } => to == node,
                    PlacementAction::Stop { .. } => false,
                };
                let rolled =
                    if let Some(pos) = applied_adds.iter().rposition(|(a, _)| adds_to_node(a)) {
                        // An applied operation: it no longer counts as a
                        // change.
                        let (rolled, resumed) = applied_adds.remove(pos);
                        let changes = &mut self.metrics.changes;
                        match rolled {
                            PlacementAction::Start { .. } if resumed => changes.resumes -= 1,
                            PlacementAction::Start { .. } => changes.starts -= 1,
                            PlacementAction::Migrate { .. } => changes.migrations -= 1,
                            PlacementAction::Stop { .. } => {
                                unreachable!("stops never add instances")
                            }
                        }
                        rolled
                    } else if let Some(pos) = txn_adds.iter().rposition(adds_to_node) {
                        txn_adds.remove(pos)
                    } else {
                        self.metrics.actuation.invariant_skips += 1;
                        break;
                    };
                match rolled {
                    PlacementAction::Start { app, node } => {
                        if achieved.remove(app, node).is_err() {
                            self.metrics.actuation.invariant_skips += 1;
                        }
                    }
                    PlacementAction::Migrate { app, from, to } => {
                        if achieved.remove(app, to).is_err() {
                            self.metrics.actuation.invariant_skips += 1;
                        }
                        achieved.place(app, from);
                        kept.insert((app, from));
                    }
                    PlacementAction::Stop { .. } => unreachable!("stops never add instances"),
                }
                self.metrics.actuation.deferrals += 1;
                if traced {
                    self.trace.record(&TraceEvent::OpDeferred {
                        time: self.now.as_secs(),
                        cycle: trace_cycle,
                        app: rolled.app(),
                        node,
                        reason: "rollback",
                    });
                }
                self.schedule_retry(self.now + acfg.base_backoff);
                diverged = true;
            }
        }

        // Load: verbatim on the (common) fully-applied path — bit-identical
        // to the infallible engine — else the intended load restricted to
        // the cells that exist, plus the kept instances at their old
        // consumption clamped to what their node has left.
        let merged = if !diverged {
            load
        } else {
            let mut merged = LoadDistribution::new();
            for (app, node, count) in achieved.iter() {
                if kept.contains(&(app, node)) {
                    continue;
                }
                // The intended speed was computed for the *intended*
                // instance count; a partially-applied add (e.g. one of a
                // parallel job's tasks failing to start) leaves fewer, so
                // clamp to what the surviving instances may legally run.
                let mut v = load.get(app, node);
                if let Ok(spec) = self.apps.get(app) {
                    let max = spec.max_instance_speed().as_mhz() * f64::from(count);
                    if max.is_finite() {
                        v = v.min(CpuSpeed::from_mhz(max));
                    }
                }
                if v.as_mhz() > 0.0 {
                    merged.set(app, node, v);
                }
            }
            for &(app, node) in &kept {
                let count = achieved.count(app, node);
                if count == 0 {
                    continue;
                }
                let capacity = self
                    .effective_cluster()
                    .node(node)
                    .map(|n| n.cpu_capacity())
                    .unwrap_or(CpuSpeed::ZERO);
                let free = CpuSpeed::from_mhz(
                    (capacity.as_mhz() - merged.node_total(node).as_mhz()).max(0.0),
                );
                let mut v = self.load.get(app, node).min(free);
                if let Ok(spec) = self.apps.get(app) {
                    let max = spec.max_instance_speed().as_mhz() * f64::from(count);
                    if max.is_finite() {
                        v = v.min(CpuSpeed::from_mhz(max));
                    }
                }
                if v.as_mhz() > 0.0 {
                    merged.set(app, node, v);
                }
            }
            merged
        };

        // Pass 2: lifecycle from *actual* placement membership.
        let ids: Vec<AppId> = self.jobs.keys().copied().collect();
        for app in &ids {
            let placed = achieved.is_placed(*app);
            let Some(job) = self.jobs.get_mut(app) else {
                self.metrics.actuation.invariant_skips += 1;
                continue;
            };
            if !job.is_live() {
                continue;
            }
            match (job.state.status(), placed) {
                (JobStatus::NotStarted | JobStatus::Suspended, true) => {
                    job.ever_started = true;
                    job.state.start();
                }
                (JobStatus::Running | JobStatus::Paused, false) => {
                    job.state.suspend();
                }
                _ => {}
            }
            job.node = achieved.single_node_of(*app);
            if let Some(lat) = latency.get(app) {
                job.transition_until = self.now + *lat;
            }
        }

        self.placement = achieved;
        self.load = merged;
        #[cfg(debug_assertions)]
        {
            self.placement
                .validate(self.effective_cluster(), &self.apps)
                .expect("engine invariant: placement always valid");
            self.load
                .validate(&self.placement, self.effective_cluster(), &self.apps)
                .expect("engine invariant: load always valid");
        }
        for app in ids {
            let total = self.load.app_total(app);
            let Some(job) = self.jobs.get_mut(&app) else {
                self.metrics.actuation.invariant_skips += 1;
                continue;
            };
            job.allocation = total;
            self.reschedule_completion(app);
        }
    }
}
