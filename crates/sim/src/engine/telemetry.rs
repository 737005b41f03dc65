//! The engine side of the observation layer: per-cycle heartbeat and
//! report processing, believed-death eviction and reinstatement, and
//! the staleness-budget degraded-mode decision.
//!
//! Entirely skipped when [`SimConfig::observation`] is the default —
//! the exactly-off contract: no draws, no state, no trace events, and
//! the control path is bit-identical to a simulator without telemetry
//! modeling.

use super::*;

impl Simulation {
    /// Runs one observation cycle: feeds every node's heartbeat through
    /// the health state machine (declaring believed deaths and
    /// reinstatements), resolves every application's state report into
    /// the view the controller reads this cycle, and checks the
    /// staleness budget. Returns the degraded mode to apply to this
    /// cycle's placement pass, if any.
    pub(super) fn observe_cycle(&mut self, cycle: u64) -> Option<DegradedMode> {
        let cfg = self.config.observation;
        if !cfg.is_active() {
            return None;
        }
        self.observation.begin_cycle();
        let verbose = self.trace.wants(TraceLevel::Verbose);
        let decisions = self.trace.wants(TraceLevel::Decisions);

        // 1. Node heartbeats drive the health state machine. Misses come
        // only from the lossy transport, never from true node failures: a
        // truly failed node's capacity is already zeroed in the effective
        // cluster, and keeping belief faults independent of truth faults
        // is what lets the zero-fault differential hold on scenarios that
        // script outages.
        let nodes: Vec<NodeId> = self.cluster.iter().map(|(id, _)| id).collect();
        let mut died = Vec::new();
        let mut reinstated = Vec::new();
        for node in nodes {
            let miss = cfg.heartbeat_missed(node, cycle, self.now);
            let (transition, misses) = self.observation.observe_node(&cfg, node, miss);
            if miss {
                self.metrics.observation.missed_heartbeats += 1;
                if verbose {
                    self.trace.record(&TraceEvent::HeartbeatMissed {
                        time: self.now.as_secs(),
                        cycle,
                        node,
                        consecutive: u64::from(misses),
                    });
                }
            }
            match transition {
                Some(HealthTransition::Suspected) => {
                    self.metrics.observation.suspects += 1;
                    if decisions {
                        self.trace.record(&TraceEvent::NodeSuspected {
                            time: self.now.as_secs(),
                            cycle,
                            node,
                            misses: u64::from(misses),
                        });
                    }
                }
                Some(HealthTransition::Died) => {
                    self.metrics.observation.deaths += 1;
                    if decisions {
                        self.trace.record(&TraceEvent::NodeDeclaredDead {
                            time: self.now.as_secs(),
                            cycle,
                            node,
                            misses: u64::from(misses),
                        });
                    }
                    died.push(node);
                }
                Some(HealthTransition::Reinstated) => {
                    self.metrics.observation.reinstatements += 1;
                    if decisions {
                        self.trace.record(&TraceEvent::NodeReinstated {
                            time: self.now.as_secs(),
                            cycle,
                            node,
                        });
                    }
                    reinstated.push(node);
                }
                None => {}
            }
        }
        for node in died {
            self.on_believed_death(node);
        }
        for node in reinstated {
            self.on_reinstatement(node);
        }

        // 2. Application state reports become this cycle's views.
        let job_apps: Vec<AppId> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.is_live())
            .map(|(&a, _)| a)
            .collect();
        for app in job_apps {
            let consumed = self.jobs[&app].state.consumed().as_mcycles();
            let reading = self
                .observation
                .observe_job(&cfg, app, consumed, cycle, self.now);
            if reading.lost {
                self.metrics.observation.lost_reports += 1;
            }
        }
        let now = self.now;
        let cycle_len = self.config.cycle;
        let txn_apps: Vec<AppId> = self.txns.keys().copied().collect();
        for app in txn_apps {
            let txn = &self.txns[&app];
            let pattern = &txn.pattern;
            let reading = self.observation.observe_txn(&cfg, app, cycle, now, |lag| {
                // Rates are time-indexed, so staleness is a clamped
                // look-back into the arrival pattern itself.
                let at = (now.as_secs() - cycle_len.as_secs() * f64::from(lag)).max(0.0);
                pattern.rate_at(SimTime::from_secs(at))
            });
            if reading.lost {
                self.metrics.observation.lost_reports += 1;
            }
            if verbose {
                if let TxnView::Estimate(estimate) = reading.view {
                    self.trace.record(&TraceEvent::DemandEstimate {
                        time: now.as_secs(),
                        cycle,
                        app,
                        observed: txn.pattern.rate_at(now),
                        estimate,
                    });
                }
            }
        }

        // 3. The staleness budget: when the oldest report in the snapshot
        // is over budget, the controller degrades rather than act on a
        // picture of the past.
        let age = self.observation.snapshot_age();
        if cfg.staleness_budget_cycles > 0 && age > cfg.staleness_budget_cycles {
            if decisions {
                self.trace.record(&TraceEvent::StaleHold {
                    time: self.now.as_secs(),
                    cycle,
                    age_cycles: u64::from(age),
                    budget: u64::from(cfg.staleness_budget_cycles),
                    mode: cfg.degraded_mode.name(),
                });
            }
            return Some(cfg.degraded_mode);
        }
        None
    }

    /// The controller declares `node` dead on telemetry evidence alone:
    /// its residents are evicted through the same path a true failure
    /// takes and its capacity is zeroed in the controller's believed
    /// cluster. The simulated truth (the effective cluster,
    /// `failed_nodes`) is untouched — when the death is a false
    /// positive, reinstatement plus the normal desired/actual machinery
    /// restore service.
    fn on_believed_death(&mut self, node: NodeId) {
        self.observation.believed_dead.insert(node);
        self.rebuild_observed();
        self.evict_node_residents(node);
    }

    /// Heartbeats resumed long enough: the node is believed healthy
    /// again, its capacity returns to the controller's view, and this
    /// cycle's optimization pass may place work on it.
    fn on_reinstatement(&mut self, node: NodeId) {
        self.observation.believed_dead.remove(&node);
        self.rebuild_observed();
    }
}
