//! Per-cycle metric sampling: relative-performance aggregates,
//! allocation totals, and per-dimension rigid utilization.

use super::*;

impl Simulation {
    // ------------------------------------------------------------------
    // Metrics
    // ------------------------------------------------------------------

    pub(super) fn record_sample(&mut self, placement_compute_secs: f64) {
        // Batch: mean hypothetical relative performance at the current
        // aggregate batch allocation.
        let mut snapshots = Vec::new();
        let mut batch_alloc = CpuSpeed::ZERO;
        let mut running = 0;
        let mut waiting = 0;
        for (&app, job) in &self.jobs {
            if !job.is_live() || job.state.remaining_work(&job.profile).as_mcycles() <= 1e-6 {
                continue;
            }
            if job.is_running() {
                running += 1;
            } else {
                waiting += 1;
            }
            batch_alloc += job.allocation;
            let delay = if job.is_running() {
                SimDuration::ZERO
            } else {
                self.config.cycle
            };
            snapshots.push(
                JobSnapshot::new(
                    app,
                    job.spec.goal(),
                    Arc::clone(&job.profile),
                    job.state.consumed(),
                    delay,
                )
                .with_parallelism(job.parallelism),
            );
        }
        let batch_rp = if snapshots.is_empty() {
            None
        } else {
            HypotheticalRpf::new(self.now, &snapshots).mean_performance(batch_alloc)
        };

        // Transactional: actual relative performance via the router.
        let (txn_rp, txn_alloc) = self.txn_sample();

        // Extra rigid dimensions (beyond memory): cluster-wide pinned
        // demand vs. scheduler-visible capacity. Memory-only deployments
        // skip this entirely, keeping metrics and traces byte-identical
        // to the scalar-memory engine.
        let dims = self.effective_cluster().dims();
        let mut rigid_utilization = Vec::new();
        if dims.len() > 1 {
            let mut used = vec![0.0; dims.len()];
            for (app, _node, count) in self.placement.iter() {
                if let Ok(spec) = self.apps.get(app) {
                    for (d, u) in used.iter_mut().enumerate().skip(1) {
                        *u += spec.rigid_per_instance().get(d) * count as f64;
                    }
                }
            }
            let mut capacity = vec![0.0; dims.len()];
            for (_, spec) in self.effective_cluster().iter() {
                for (d, c) in capacity.iter_mut().enumerate().skip(1) {
                    *c += spec.rigid_capacity().get(d);
                }
            }
            let cycle = self.cycle_index.saturating_sub(1);
            for d in 1..dims.len() {
                rigid_utilization.push(crate::metrics::RigidDimSample {
                    dim: dims.name(d).to_string(),
                    used: used[d],
                    capacity: capacity[d],
                });
                if self.trace.wants(TraceLevel::Decisions) {
                    self.trace.record(&TraceEvent::RigidUtilization {
                        time: self.now.as_secs(),
                        cycle,
                        dim: dims.name(d).to_string(),
                        used: used[d],
                        capacity: capacity[d],
                    });
                }
            }
        }

        self.metrics.samples.push(CycleSample {
            time: self.now,
            batch_hypothetical_rp: batch_rp,
            txn_rp,
            batch_allocation: batch_alloc,
            txn_allocation: txn_alloc,
            running_jobs: running,
            waiting_jobs: waiting,
            placement_compute_secs,
            pending_actions: self.pending_actions(),
            rigid_utilization,
        });
        if self.config.record_placements {
            self.metrics
                .placements
                .push(crate::metrics::PlacementRecord {
                    time: self.now,
                    placement: self.placement.clone(),
                });
        }
    }

    pub(super) fn txn_sample(&self) -> (Option<Rp>, CpuSpeed) {
        if self.txns.is_empty() {
            return (None, CpuSpeed::ZERO);
        }
        let mut total_alloc = CpuSpeed::ZERO;
        let mut rp_sum = 0.0;
        let mut rp_count = 0usize;
        for (&app, txn) in &self.txns {
            let rate = txn.pattern.rate_at(self.now);
            let workload = TxnWorkload::new(rate, txn.demand_per_request, txn.floor);
            let allocations: Vec<CpuSpeed> = match &self.config.static_txn_nodes {
                Some(nodes) => {
                    // Static partition: the app owns its nodes outright,
                    // consuming up to its saturation allocation.
                    let capacity: CpuSpeed = nodes
                        .iter()
                        .map(|&n| {
                            self.effective_cluster()
                                .node(n)
                                .expect("static txn node exists")
                                .cpu_capacity()
                        })
                        .sum();
                    let used = capacity.min(workload.saturation_allocation());
                    vec![used]
                }
                None => self
                    .placement
                    .instances_of(app)
                    .map(|(node, _)| self.load.get(app, node))
                    .collect(),
            };
            total_alloc += allocations.iter().copied().sum();
            let outcome = txn.router.route(&workload, &allocations);
            let rp = match outcome.mean_response {
                Some(t) if !outcome.is_overloaded() => txn.goal.performance_at(t),
                // Overload (or no capacity): report the healthy floor.
                // Txn flows are memoryless, so they never accrue the
                // lateness that would place them in the sub-floor band.
                _ => Rp::FLOOR,
            };
            rp_sum += rp.value();
            rp_count += 1;
        }
        let rp = if rp_count > 0 {
            Some(Rp::new(rp_sum / rp_count as f64))
        } else {
            None
        };
        (rp, total_alloc)
    }
}
