//! What a run's simulated outputs say: a bit-level digest for the
//! identity checks, the simulated-outcome metrics, and the output checks.

use dynaplace_sim::RunMetrics;

/// FNV-1a over the bit patterns of every simulated output, leaving out
/// only the wall-clock `placement_compute_secs`. Two runs with equal
/// digests are bit-identical in every compared field.
pub fn digest(m: &RunMetrics) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: u64| {
        for byte in x.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
    mix(m.samples.len() as u64);
    for s in &m.samples {
        mix(s.time.as_secs().to_bits());
        mix(opt(s.batch_hypothetical_rp.map(|u| u.value())));
        mix(opt(s.txn_rp.map(|u| u.value())));
        mix(s.batch_allocation.as_mhz().to_bits());
        mix(s.txn_allocation.as_mhz().to_bits());
        mix(s.running_jobs as u64);
        mix(s.waiting_jobs as u64);
        mix(s.pending_actions as u64);
        for r in &s.rigid_utilization {
            mix(r.used.to_bits());
            mix(r.capacity.to_bits());
        }
    }
    mix(m.completions.len() as u64);
    for c in &m.completions {
        mix(c.app.index() as u64);
        mix(c.arrival.as_secs().to_bits());
        mix(c.completion.as_secs().to_bits());
        mix(c.deadline.as_secs().to_bits());
        mix(c.distance.as_secs().to_bits());
        mix(c.rp.value().to_bits());
        mix(c.goal_factor.to_bits());
        mix(u64::from(c.met_deadline));
    }
    if let Some(t) = &m.totals {
        mix(t.count);
        mix(t.met_deadlines);
        mix(t.sum_rp.to_bits());
    }
    let ch = &m.changes;
    for x in [ch.starts, ch.suspends, ch.resumes, ch.migrations] {
        mix(x);
    }
    // Both counter blocks hold integers only; their debug form covers
    // every field.
    for byte in format!("{:?}{:?}", m.actuation, m.observation).bytes() {
        mix(u64::from(byte));
    }
    for p in &m.placements {
        mix(p.time.as_secs().to_bits());
        for (app, node, count) in p.placement.iter() {
            mix(app.index() as u64);
            mix(node.index() as u64);
            mix(u64::from(count));
        }
    }
    if let Some(s) = &m.starvation {
        mix(s.time.as_secs().to_bits());
        mix(s.apps.len() as u64);
    }
    h
}

/// Simulated outcomes pooled over one or more runs; deterministic per
/// seed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcomes {
    completed: u64,
    met: u64,
    sum_u: f64,
    hypo_sum: f64,
    hypo_cycles: u64,
    txn_sum: f64,
    txn_cycles: u64,
    /// Starts + suspends + resumes + migrations.
    pub placement_ops: u64,
    /// Suspends + resumes + migrations (the paper's Fig. 4 count).
    pub disruptive_changes: u64,
}

impl Outcomes {
    pub fn add(&mut self, m: &RunMetrics) {
        match &m.totals {
            Some(t) => {
                self.completed += t.count;
                self.met += t.met_deadlines;
                self.sum_u += t.sum_rp;
            }
            None => {
                for c in &m.completions {
                    self.completed += 1;
                    self.met += u64::from(c.met_deadline);
                    self.sum_u += c.rp.value();
                }
            }
        }
        for s in &m.samples {
            if let Some(u) = s.batch_hypothetical_rp {
                self.hypo_sum += u.value();
                self.hypo_cycles += 1;
            }
            if let Some(u) = s.txn_rp {
                self.txn_sum += u.value();
                self.txn_cycles += 1;
            }
        }
        let ch = &m.changes;
        self.placement_ops += ch.starts + ch.suspends + ch.resumes + ch.migrations;
        self.disruptive_changes += ch.suspends + ch.resumes + ch.migrations;
    }

    pub fn deadline_met_frac(&self) -> f64 {
        ratio(self.met as f64, self.completed as f64)
    }

    pub fn mean_completion_u(&self) -> f64 {
        ratio(self.sum_u, self.completed as f64)
    }

    /// Mean of the per-cycle mean hypothetical relative performance of
    /// the batch jobs.
    pub fn batch_hypo_u_mean(&self) -> f64 {
        ratio(self.hypo_sum, self.hypo_cycles as f64)
    }

    /// Mean per-cycle transactional relative performance; 0 when no
    /// transactional application ran.
    pub fn txn_u_mean(&self) -> f64 {
        ratio(self.txn_sum, self.txn_cycles as f64)
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Events the engine drained: one arrival and one completion per
/// completed job, plus one control cycle per sample.
pub fn events(m: &RunMetrics) -> u64 {
    2 * m.completed_jobs() as u64 + m.samples.len() as u64
}

/// The output checks every run must pass; returns the failures. A
/// horizon-free run must drain all `jobs`; a horizon-bounded one must
/// complete some.
pub fn check(m: &RunMetrics, jobs: u64, horizon_bounded: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let completed = m.completed_jobs() as u64;
    if horizon_bounded {
        if completed == 0 {
            failures.push("no job completed before the horizon".to_string());
        }
    } else if completed != jobs {
        failures.push(format!("run drained {completed} of {jobs} submitted jobs"));
    }
    if let Some(s) = &m.starvation {
        failures.push(format!(
            "starvation breaker fired at t={}s with {} live jobs",
            s.time.as_secs(),
            s.apps.len()
        ));
    }
    if m.actuation.deadline_truncations > 0 {
        failures.push(format!(
            "{} optimizer passes were truncated by the deadline",
            m.actuation.deadline_truncations
        ));
    }
    if m.actuation.unapplied_total() > 0 || m.actuation.invariant_skips > 0 {
        failures.push(format!("actuation reported failures: {:?}", m.actuation));
    }
    failures
}
