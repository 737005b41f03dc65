//! The control cycle: problem construction, the periodic optimization
//! pass, between-cycle advice, and the baseline schedulers.

use super::*;

impl Simulation {
    /// Runs the between-event scheduling reaction: a start-only advice
    /// pass under APC (when enabled), a full reschedule under the
    /// baselines.
    pub(super) fn between_cycle_advice(&mut self) {
        let policy = self.config.scheduler.clone();
        match policy.class() {
            PolicyClass::Apc => {
                // While the last observation cycle breached the staleness
                // budget in Hold mode, between-cycle reactions hold too:
                // the controller's picture is too old to act on anywhere.
                if policy.advises_between_cycles() && !self.degraded_hold {
                    let sink = Arc::clone(&self.trace);
                    let outcome = {
                        let problem = self.build_problem();
                        policy.fill_only(&problem, &*sink)
                    };
                    self.apply_outcome(outcome);
                }
            }
            PolicyClass::Baseline => self.run_baseline_policy(),
        }
    }

    pub(super) fn on_cycle(&mut self) {
        self.advance_progress();
        let cycle = self.cycle_index;
        self.cycle_index += 1;
        let traced = self.trace.wants(TraceLevel::Decisions);
        if traced {
            self.trace.record(&TraceEvent::CycleStart {
                time: self.now.as_secs(),
                cycle,
            });
        }
        if self.config.estimate_txn_demand {
            self.observe_txn_demand();
        }
        let mut compute_secs = 0.0;
        let policy = self.config.scheduler.clone();
        if self.trace.wants(TraceLevel::Verbose) {
            self.trace.record(&TraceEvent::PolicyInvoked {
                time: self.now.as_secs(),
                cycle,
                policy: policy.name().to_owned(),
                class: policy.class().name().to_owned(),
            });
        }
        match policy.class() {
            PolicyClass::Apc => {
                // Observation first: heartbeats, health transitions, and
                // this cycle's report views — the placement pass below
                // reads the world through them.
                let degraded = self.observe_cycle(cycle);
                self.degraded_hold = matches!(degraded, Some(DegradedMode::Hold));
                // When several consecutive cycles started with desired ≠
                // actual, a full re-optimization would pile yet more
                // operations onto an actuation layer that is already
                // struggling; fall back to a non-disruptive fill pass for
                // one cycle and let reconciliation drain the backlog.
                if self.pending_actions() > 0 {
                    self.stalled_cycles += 1;
                } else {
                    self.stalled_cycles = 0;
                }
                if self.degraded_hold {
                    // The observed snapshot is over the staleness budget:
                    // hold all placement changes this cycle. Already-
                    // desired state keeps reconciling via retry events.
                    self.metrics.observation.stale_holds += 1;
                } else {
                    let degrade_fill = matches!(degraded, Some(DegradedMode::FillOnly));
                    let stalled_fallback = self.config.actuation.fallback_after > 0
                        && self.stalled_cycles >= self.config.actuation.fallback_after;
                    let fallback = stalled_fallback || degrade_fill;
                    let sink = Arc::clone(&self.trace);
                    let started = Instant::now();
                    let outcome = {
                        let problem = self.build_problem();
                        if fallback {
                            policy.fill_only(&problem, &*sink)
                        } else {
                            policy.place(&problem, &*sink)
                        }
                    };
                    compute_secs = started.elapsed().as_secs_f64();
                    if traced {
                        self.trace.record(&TraceEvent::PhaseSpan {
                            time: self.now.as_secs(),
                            cycle,
                            phase: Phase::Optimize,
                            wall_secs: compute_secs,
                        });
                    }
                    if degrade_fill {
                        self.metrics.observation.fill_only_degrades += 1;
                    }
                    if stalled_fallback {
                        self.metrics.actuation.fill_only_fallbacks += 1;
                        self.stalled_cycles = 0;
                    }
                    let actuate_started = Instant::now();
                    self.apply_outcome(outcome);
                    if traced {
                        self.trace.record(&TraceEvent::PhaseSpan {
                            time: self.now.as_secs(),
                            cycle,
                            phase: Phase::Actuate,
                            wall_secs: actuate_started.elapsed().as_secs_f64(),
                        });
                    }
                }
            }
            PolicyClass::Baseline => {
                // Baselines are event-driven; the cycle is only a metric
                // sampling tick. Still run the scheduler to pick up any
                // state change (idempotent when nothing changed).
                self.run_baseline_policy();
            }
        }
        let sample_started = Instant::now();
        self.record_sample(compute_secs);
        if traced {
            self.trace.record(&TraceEvent::PhaseSpan {
                time: self.now.as_secs(),
                cycle,
                phase: Phase::Sample,
                wall_secs: sample_started.elapsed().as_secs_f64(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Decision making
    // ------------------------------------------------------------------

    pub(super) fn build_problem(&self) -> PlacementProblem<'_> {
        let mut workloads = BTreeMap::new();
        for (&app, job) in &self.jobs {
            if !job.is_live() || job.state.remaining_work(&job.profile).as_mcycles() <= 1e-6 {
                // Jobs whose completion event is pending at this very
                // instant are no longer placement-relevant.
                continue;
            }
            let delay = if job.is_running() {
                SimDuration::ZERO
            } else {
                self.config.cycle
            };
            // The observation layer's view of this job: the live truth
            // under perfect (or inactive) telemetry, else the stale
            // consumed work and report-noise factor the controller
            // actually received this cycle.
            let (base_consumed, obs_factor) = match self.observation.job_view(app) {
                JobView::Live => (job.state.consumed(), 1.0),
                JobView::Snapshot {
                    consumed_mcycles,
                    factor,
                } => (Work::from_mcycles(consumed_mcycles), factor),
            };
            // The controller sees the (possibly misestimated) profile;
            // scaling consumed work by the same factor keeps the fraction
            // done consistent while the remaining work carries the error.
            let mut factor = self.config.noise.work_factor(app);
            let mut measured_consumed = false;
            if self.config.profile_from_history {
                if let Some(est) = job
                    .spec
                    .class()
                    .and_then(|c| self.class_profiler.estimate(c))
                {
                    // Present the class-mean total work. Consumed work is
                    // *measured* (not estimated), so scale the profile
                    // only: factor = estimate / truth, floored so the
                    // presented job is never already "done".
                    let truth = job.profile.total_work().as_mcycles();
                    let consumed = base_consumed.as_mcycles();
                    let est_total = est.mean_work().as_mcycles().max(consumed * 1.01 + 1.0);
                    factor = est_total / truth;
                    measured_consumed = true;
                }
            }
            // Telemetry noise applies on top of whatever estimator is in
            // play (exactly 1.0 when the layer is off or quiet, keeping
            // the product bit-identical).
            factor *= obs_factor;
            let (profile, consumed) = if factor == 1.0 {
                (Arc::clone(&job.profile), base_consumed)
            } else {
                let stages = job
                    .profile
                    .stages()
                    .iter()
                    .map(|s| {
                        dynaplace_batch::job::JobStage::new(
                            s.work() * factor,
                            s.max_speed(),
                            s.min_speed(),
                            s.memory(),
                        )
                    })
                    .collect();
                let consumed = if measured_consumed {
                    base_consumed
                } else {
                    base_consumed * factor
                };
                (
                    Arc::new(dynaplace_batch::job::JobProfile::new(stages)),
                    consumed,
                )
            };
            workloads.insert(
                app,
                WorkloadModel::Batch(
                    JobSnapshot::new(app, job.spec.goal(), profile, consumed, delay)
                        .with_parallelism(job.parallelism),
                ),
            );
        }
        for (&app, txn) in &self.txns {
            if self.config.static_txn_nodes.is_some() {
                continue; // statically partitioned: not managed
            }
            // The observation layer's view of this application's arrival
            // rate: the live pattern under perfect (or inactive)
            // telemetry, else the EWMA-smoothed, headroom-inflated
            // estimate built from the delivered reports.
            let observed_rate = match self.observation.txn_view(app) {
                TxnView::Live => txn.pattern.rate_at(self.now),
                TxnView::Estimate(estimate) => estimate,
            };
            let rate = observed_rate * (1.0 + self.config.noise.txn_rate);
            let demand = if self.config.estimate_txn_demand {
                txn.profiler
                    .estimate_single()
                    .ok()
                    .filter(|d| *d > 0.0)
                    .unwrap_or(txn.demand_per_request)
            } else {
                txn.demand_per_request
            };
            workloads.insert(
                app,
                WorkloadModel::Transactional(TxnPerformanceModel::new(
                    TxnWorkload::new(rate.max(0.0), demand, txn.floor),
                    txn.goal,
                )),
            );
        }
        // The controller plans over the cluster it *believes* in:
        // identical to the effective (truth-masked) cluster until
        // telemetry declares a node dead.
        let believed = self
            .observed_cluster
            .as_ref()
            .unwrap_or(self.effective_cluster());
        // Quarantined pairs from the actuation layer, plus a freeze on
        // every Suspect node: instances already there are left alone, but
        // no new starts are routed to a node whose heartbeats are
        // faltering.
        let mut forbidden: std::collections::BTreeSet<(AppId, NodeId)> = self
            .actuation
            .quarantined_pairs(self.now)
            .into_iter()
            .collect();
        for node in self.observation.suspect_nodes() {
            for &app in workloads.keys() {
                forbidden.insert((app, node));
            }
        }
        PlacementProblem::new(
            believed,
            &self.apps,
            workloads,
            &self.placement,
            self.now,
            self.config.cycle,
            forbidden,
        )
        .expect("engine state always yields a well-formed problem")
    }

    pub(super) fn apply_outcome(&mut self, outcome: PlacementOutcome) {
        if outcome.timed_out {
            self.metrics.actuation.deadline_truncations += 1;
        }
        let actions = outcome.actions.clone();
        self.apply_transition(outcome.placement, outcome.score.load, &actions);
    }

    /// Reverse-applies one control action onto `achieved`: the placement
    /// looks as if the action was never issued. Cells kept alive by a
    /// reverted stop (or migrate source) are recorded in `kept` so the
    /// load merge can restore their old consumption.
    pub(super) fn reverse_apply(
        achieved: &mut Placement,
        action: &PlacementAction,
        kept: &mut std::collections::BTreeSet<(AppId, NodeId)>,
        counters: &mut crate::metrics::ActuationCounters,
    ) {
        match *action {
            PlacementAction::Start { app, node } => {
                if achieved.remove(app, node).is_err() {
                    counters.invariant_skips += 1;
                }
            }
            PlacementAction::Stop { app, node } => {
                achieved.place(app, node);
                kept.insert((app, node));
            }
            PlacementAction::Migrate { app, from, to } => {
                if achieved.remove(app, to).is_err() {
                    counters.invariant_skips += 1;
                }
                achieved.place(app, from);
                kept.insert((app, from));
            }
        }
    }

    /// Runs a baseline-class policy over the full (event-driven)
    /// reschedule path: build a truth-view problem, let the policy place
    /// it, and actuate the diff against the current placement.
    pub(super) fn run_baseline_policy(&mut self) {
        let policy = self.config.scheduler.clone();
        let sink = Arc::clone(&self.trace);
        let masked = self.baseline_cluster();
        let outcome = {
            let cluster = masked.as_ref().unwrap_or(self.effective_cluster());
            let problem = self.build_baseline_problem(cluster);
            policy.place(&problem, &*sink)
        };
        self.apply_outcome(outcome);
    }

    /// The cluster a baseline policy schedules over: the effective
    /// (failure-masked) cluster with every node outside
    /// [`SimConfig::batch_nodes`] additionally zeroed. `None` when no
    /// restriction is configured, so the hot path borrows
    /// the effective cluster directly.
    pub(super) fn baseline_cluster(&self) -> Option<Cluster> {
        let allowed = self.config.batch_nodes.as_ref()?;
        let mut rebuilt = Cluster::new().with_dims(self.effective_cluster().dims().clone());
        for (id, spec) in self.effective_cluster().iter() {
            if allowed.contains(&id) {
                rebuilt.add_node(spec.clone());
            } else {
                // Zero every capacity but keep the rigid vector's
                // dimensionality, exactly like a failed node: the
                // baselines skip capacity-less nodes entirely.
                let zeroed = dynaplace_model::resources::Resources::new(vec![
                    0.0;
                    spec.rigid_capacity()
                        .len()
                ]);
                rebuilt.add_node(
                    dynaplace_model::node::NodeSpec::try_with_resources(CpuSpeed::ZERO, zeroed)
                        .expect("valid node capacities")
                        .with_name(format!("{id} (off-limits)")),
                );
            }
        }
        Some(rebuilt)
    }

    /// The placement problem a baseline policy sees: the simulated truth
    /// (no estimation noise, no observation layer, no class-profile
    /// estimates) over all live jobs and — unless statically partitioned
    /// away — the transactional applications. Matches the historical
    /// reservation-scheduler inputs: the controller-side estimators are
    /// an APC-path feature.
    pub(super) fn build_baseline_problem<'a>(
        &'a self,
        cluster: &'a Cluster,
    ) -> PlacementProblem<'a> {
        let mut workloads = BTreeMap::new();
        for (&app, job) in &self.jobs {
            if !job.is_live() {
                continue;
            }
            let delay = if job.is_running() {
                SimDuration::ZERO
            } else {
                self.config.cycle
            };
            workloads.insert(
                app,
                WorkloadModel::Batch(
                    JobSnapshot::new(
                        app,
                        job.spec.goal(),
                        Arc::clone(&job.profile),
                        job.state.consumed(),
                        delay,
                    )
                    .with_parallelism(job.parallelism),
                ),
            );
        }
        for (&app, txn) in &self.txns {
            if self.config.static_txn_nodes.is_some() {
                continue; // statically partitioned: not managed
            }
            let rate = txn.pattern.rate_at(self.now) * (1.0 + self.config.noise.txn_rate);
            let demand = if self.config.estimate_txn_demand {
                txn.profiler
                    .estimate_single()
                    .ok()
                    .filter(|d| *d > 0.0)
                    .unwrap_or(txn.demand_per_request)
            } else {
                txn.demand_per_request
            };
            workloads.insert(
                app,
                WorkloadModel::Transactional(TxnPerformanceModel::new(
                    TxnWorkload::new(rate.max(0.0), demand, txn.floor),
                    txn.goal,
                )),
            );
        }
        let forbidden: std::collections::BTreeSet<(AppId, NodeId)> = self
            .actuation
            .quarantined_pairs(self.now)
            .into_iter()
            .collect();
        PlacementProblem::new(
            cluster,
            &self.apps,
            workloads,
            &self.placement,
            self.now,
            self.config.cycle,
            forbidden,
        )
        .expect("engine state always yields a well-formed problem")
    }
}
