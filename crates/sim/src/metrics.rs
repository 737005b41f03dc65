//! Metric collection: everything the paper's figures plot.

use std::fmt;

use dynaplace_json::{json_object, obj, FromJson, Json, JsonError, ToJson};
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::placement::Placement;
use dynaplace_model::units::{CpuSpeed, SimDuration, SimTime};
use dynaplace_rpf::value::Rp;

/// One per-cycle sample of system state (the time axes of Figs. 2, 6, 7).
#[derive(Debug, Clone, PartialEq)]
pub struct CycleSample {
    /// Sample instant.
    pub time: SimTime,
    /// Mean hypothetical relative performance over live jobs, if any.
    pub batch_hypothetical_rp: Option<Rp>,
    /// Actual relative performance of the transactional workload (from
    /// the router's observed response time), if present.
    pub txn_rp: Option<Rp>,
    /// Total CPU allocated to batch jobs.
    pub batch_allocation: CpuSpeed,
    /// Total CPU allocated to transactional applications.
    pub txn_allocation: CpuSpeed,
    /// Jobs currently running.
    pub running_jobs: usize,
    /// Jobs waiting (queued or suspended).
    pub waiting_jobs: usize,
    /// Wall-clock seconds the placement computation took this cycle.
    pub placement_compute_secs: f64,
    /// Placement actions the reconciliation loop still owes: the size of
    /// the diff between the actual placement and the (live, surviving)
    /// desired placement at sample time. Always zero with infallible
    /// actuation.
    pub pending_actions: usize,
    /// Cluster-wide utilization of each *extra* rigid dimension (beyond
    /// memory) at sample time, in registry order. Empty for memory-only
    /// deployments, leaving legacy artifacts unchanged.
    pub rigid_utilization: Vec<RigidDimSample>,
}

/// Utilization of one extra rigid resource dimension in one
/// [`CycleSample`].
#[derive(Debug, Clone, PartialEq)]
pub struct RigidDimSample {
    /// Registry name of the dimension (e.g. `disk_mb`).
    pub dim: String,
    /// Total demand pinned across the cluster, in the dimension's native
    /// unit.
    pub used: f64,
    /// Total capacity across the scheduler-visible cluster.
    pub capacity: f64,
}

/// One completed job (the scatter points of Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct CompletionRecord {
    /// The job.
    pub app: AppId,
    /// Submission time.
    pub arrival: SimTime,
    /// Completion time.
    pub completion: SimTime,
    /// Completion deadline.
    pub deadline: SimTime,
    /// Signed distance to the deadline (positive = early).
    pub distance: SimDuration,
    /// Relative performance at completion (eq. 2).
    pub rp: Rp,
    /// The job's relative goal factor (deadline slack / best execution).
    pub goal_factor: f64,
    /// Whether the completion met the deadline.
    pub met_deadline: bool,
}

/// Counters of placement changes (Fig. 4 counts suspends + resumes +
/// migrations; starts of never-run jobs are not changes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChangeCounters {
    /// First-time starts (boots).
    pub starts: u64,
    /// Running or paused instances suspended off their node.
    pub suspends: u64,
    /// Suspended instances resumed onto a node.
    pub resumes: u64,
    /// Instances live-migrated between nodes.
    pub migrations: u64,
}

impl ChangeCounters {
    /// The paper's "number of placement changes": suspends + resumes +
    /// migrations.
    pub fn disruptive_total(&self) -> u64 {
        self.suspends + self.resumes + self.migrations
    }
}

/// Counters of the fault-tolerant actuation layer and its reconciliation
/// loop. All-zero whenever the actuation configuration is the default
/// (infallible) one.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ActuationCounters {
    /// Operations that failed outright (placement unchanged).
    pub failed_ops: u64,
    /// Operations abandoned at their timeout (placement unchanged).
    pub timed_out_ops: u64,
    /// Successful operations that were retries of earlier failures.
    pub retries: u64,
    /// Actions skipped because their (app, node) pair was inside a
    /// backoff window or quarantine when the action was issued.
    pub deferrals: u64,
    /// Times an (app, node) pair entered quarantine.
    pub quarantines: u64,
    /// Control cycles where the controller fell back to a non-disruptive
    /// `fill_only` pass because full placements kept failing to actuate.
    pub fill_only_fallbacks: u64,
    /// Optimizer runs cut short by the wall-clock deadline.
    pub deadline_truncations: u64,
    /// Scheduler-visible invariants that legitimately did not hold under
    /// fallible actuation and were skipped instead of panicking.
    pub invariant_skips: u64,
    /// Actuation-retry events processed (each one reconcile). At most
    /// one is queued per instant.
    pub retry_events: u64,
}

/// Like the JSON form, the debug form leaves `retry_events` out while it
/// is zero, so runs without actuation retries print (and hash) exactly
/// as they did before the counter existed.
impl fmt::Debug for ActuationCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("ActuationCounters");
        s.field("failed_ops", &self.failed_ops)
            .field("timed_out_ops", &self.timed_out_ops)
            .field("retries", &self.retries)
            .field("deferrals", &self.deferrals)
            .field("quarantines", &self.quarantines)
            .field("fill_only_fallbacks", &self.fill_only_fallbacks)
            .field("deadline_truncations", &self.deadline_truncations)
            .field("invariant_skips", &self.invariant_skips);
        if self.retry_events != 0 {
            s.field("retry_events", &self.retry_events);
        }
        s.finish()
    }
}

impl ActuationCounters {
    /// Total operations that did not take effect when issued.
    pub fn unapplied_total(&self) -> u64 {
        self.failed_ops + self.timed_out_ops + self.deferrals
    }
}

/// Counters of the imperfect-telemetry observation layer: heartbeat and
/// report transport faults, node-health transitions, and staleness-
/// budget degradations. All-zero whenever the observation configuration
/// is the default (perfect-telemetry) one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObservationCounters {
    /// Node heartbeats lost in transport.
    pub missed_heartbeats: u64,
    /// Application state reports lost in transport (the controller
    /// reused its cached previous report).
    pub lost_reports: u64,
    /// Healthy → Suspect transitions (node frozen for new placements).
    pub suspects: u64,
    /// Suspect → Dead transitions (residents evicted, capacity zeroed
    /// in the controller's believed cluster).
    pub deaths: u64,
    /// Suspect/Dead → Healthy transitions after heartbeats resumed.
    pub reinstatements: u64,
    /// Control cycles where placement changes were held because the
    /// observed snapshot was older than the staleness budget.
    pub stale_holds: u64,
    /// Control cycles dropped to a non-disruptive `fill_only` pass by
    /// the staleness budget (distinct from the actuation layer's
    /// `fill_only_fallbacks`).
    pub fill_only_degrades: u64,
}

impl ObservationCounters {
    /// Total transport losses (heartbeats + reports).
    pub fn lost_total(&self) -> u64 {
        self.missed_heartbeats + self.lost_reports
    }
}

/// The placement in effect at the end of one control cycle. Only
/// recorded when [`crate::engine::SimConfig::record_placements`] is set
/// (golden-file regression tests diff consecutive records).
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRecord {
    /// Sample instant (matches the [`CycleSample`] at the same time).
    pub time: SimTime,
    /// The full placement.
    pub placement: Placement,
}

/// The starvation breaker fired: live jobs existed but the system made
/// provably zero progress for a generous number of consecutive control
/// cycles with nothing else pending, so the run was
/// terminated instead of cycling forever. The canonical trigger is a
/// job whose deadline is so hopelessly blown that its relative
/// performance sits at the floor whatever it receives, on a cluster
/// whose capacity a transactional workload legitimately absorbs.
#[derive(Debug, Clone, PartialEq)]
pub struct StarvationReport {
    /// When the stall was declared (end of the last identical cycle).
    pub time: SimTime,
    /// The live, unfinished jobs at that instant, in id order.
    pub apps: Vec<AppId>,
}

/// Streaming (constant-memory) completion aggregates: the fold of every
/// [`CompletionRecord`] a run would otherwise have kept. Carried only by
/// runs with [`MetricsRetention::Aggregate`], where per-job records are
/// folded in at completion and dropped so memory stays O(live jobs)
/// instead of O(all jobs).
///
/// [`MetricsRetention::Aggregate`]: crate::engine::MetricsRetention
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompletionTotals {
    /// Jobs completed.
    pub count: u64,
    /// Completions that met their deadline.
    pub met_deadlines: u64,
    /// Sum of relative performance at completion (for the mean).
    pub sum_rp: f64,
}

impl CompletionTotals {
    /// Folds one completion into the totals.
    pub fn fold(&mut self, record: &CompletionRecord) {
        self.count += 1;
        if record.met_deadline {
            self.met_deadlines += 1;
        }
        self.sum_rp += record.rp.value();
    }
}

/// Everything recorded over one simulation run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-cycle samples in time order.
    pub samples: Vec<CycleSample>,
    /// Completion records in completion order. Empty under aggregate
    /// retention — see [`RunMetrics::totals`].
    pub completions: Vec<CompletionRecord>,
    /// Folded completion aggregates; `Some` only under aggregate
    /// retention, where `completions` stays empty.
    pub totals: Option<CompletionTotals>,
    /// Placement change counters.
    pub changes: ChangeCounters,
    /// Actuation-layer counters (failures, retries, quarantines).
    pub actuation: ActuationCounters,
    /// Observation-layer counters (transport faults, health
    /// transitions, staleness degradations).
    pub observation: ObservationCounters,
    /// Per-cycle placements; empty unless recording was enabled.
    pub placements: Vec<PlacementRecord>,
    /// Set when the run ended because the starvation breaker fired
    /// rather than because every job completed.
    pub starvation: Option<StarvationReport>,
}

impl RunMetrics {
    /// Number of jobs that completed, whichever retention mode recorded
    /// them (per-job records or folded totals).
    pub fn completed_jobs(&self) -> usize {
        match &self.totals {
            Some(t) => t.count as usize,
            None => self.completions.len(),
        }
    }

    /// Fraction of completed jobs that met their deadline, `None` when
    /// nothing completed.
    pub fn deadline_met_ratio(&self) -> Option<f64> {
        if let Some(t) = &self.totals {
            if t.count == 0 {
                return None;
            }
            return Some(t.met_deadlines as f64 / t.count as f64);
        }
        if self.completions.is_empty() {
            return None;
        }
        let met = self.completions.iter().filter(|c| c.met_deadline).count();
        Some(met as f64 / self.completions.len() as f64)
    }

    /// Completion records for jobs with (approximately) the given goal
    /// factor. The comparison is relative, so factors large enough that
    /// one ulp exceeds an absolute tolerance still match themselves
    /// after a JSON round trip.
    pub fn completions_with_factor(&self, factor: f64) -> impl Iterator<Item = &CompletionRecord> {
        self.completions.iter().filter(move |c| {
            let scale = c.goal_factor.abs().max(factor.abs()).max(1.0);
            (c.goal_factor - factor).abs() <= 1e-9 * scale
        })
    }

    /// Mean relative performance at completion.
    pub fn mean_completion_rp(&self) -> Option<Rp> {
        if let Some(t) = &self.totals {
            if t.count == 0 {
                return None;
            }
            return Some(Rp::new(t.sum_rp / t.count as f64));
        }
        if self.completions.is_empty() {
            return None;
        }
        let sum: f64 = self.completions.iter().map(|c| c.rp.value()).sum();
        Some(Rp::new(sum / self.completions.len() as f64))
    }

    /// Mean wall-clock placement compute time per cycle, in seconds,
    /// over *all* sampled cycles. Cycles fast enough to measure as
    /// exactly zero count toward the mean — dropping them (as an
    /// earlier version did) biased the estimate upward on clusters
    /// small enough that many cycles finish below timer resolution.
    /// `None` only when no cycle was sampled at all.
    pub fn mean_placement_compute_secs(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: f64 = self.samples.iter().map(|s| s.placement_compute_secs).sum();
        Some(sum / self.samples.len() as f64)
    }

    /// Number of sampled cycles whose placement computation measured as
    /// exactly zero seconds, i.e. finished below wall-clock timer
    /// resolution.
    pub fn sub_resolution_compute_cycles(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.placement_compute_secs == 0.0)
            .count()
    }
}

// JSON wire format of the `results/*.json` artifacts. Unit newtypes and
// ids render as plain numbers, absent optionals as `null`. Fields that
// older artifacts lack are defaulted on read; fields that only some runs
// carry are omitted when unused, so artifacts of runs without them stay
// byte-identical to older writers.

json_object!(CycleSample {
    time,
    batch_hypothetical_rp: default,
    txn_rp: default,
    batch_allocation,
    txn_allocation,
    running_jobs,
    waiting_jobs,
    placement_compute_secs,
    pending_actions: default,
    rigid_utilization: default omit_if empty,
});

json_object!(RigidDimSample {
    dim,
    used,
    capacity,
});

json_object!(CompletionRecord {
    app,
    arrival,
    completion,
    deadline,
    distance,
    rp,
    goal_factor,
    met_deadline,
});

json_object!(ChangeCounters {
    starts,
    suspends,
    resumes,
    migrations,
});

// `retry_events` is written only when non-zero, so the metrics of runs
// without actuation retries read exactly as before it existed.
json_object!(ActuationCounters {
    failed_ops: default,
    timed_out_ops: default,
    retries: default,
    deferrals: default,
    quarantines: default,
    fill_only_fallbacks: default,
    deadline_truncations: default,
    invariant_skips: default,
    retry_events: default omit_if default,
});

json_object!(ObservationCounters: Default {
    missed_heartbeats,
    lost_reports,
    suspects,
    deaths,
    reinstatements,
    stale_holds,
    fill_only_degrades,
});

json_object!(StarvationReport { time, apps });

json_object!(CompletionTotals {
    count,
    met_deadlines,
    sum_rp,
});

json_object!(RunMetrics {
    samples,
    completions,
    totals: default omit_if none,
    changes,
    actuation: default,
    observation: default omit_if default,
    placements: default,
    starvation: default,
});

/// `{"time": t, "instances": [[app, node, count], ...]}`: the placement
/// as triples, not a named-field object.
impl ToJson for PlacementRecord {
    fn to_json(&self) -> Json {
        let instances: Vec<Json> = self
            .placement
            .iter()
            .map(|(app, node, count)| {
                Json::Arr(vec![app.to_json(), node.to_json(), count.to_json()])
            })
            .collect();
        obj([
            ("time", self.time.to_json()),
            ("instances", Json::Arr(instances)),
        ])
    }
}

impl FromJson for PlacementRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let Some(Json::Arr(items)) = v.get("instances") else {
            return Err(JsonError::new("placement record missing instances"));
        };
        let mut placement = Placement::new();
        for item in items {
            let Some([app, node, count]) = item.as_arr() else {
                return Err(JsonError::new(
                    "placement instance must be [app, node, count]",
                ));
            };
            let (app, node) = (AppId::from_json(app)?, NodeId::from_json(node)?);
            for _ in 0..u32::from_json(count)? {
                placement.place(app, node);
            }
        }
        Ok(PlacementRecord {
            time: v.field("time")?,
            placement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(met: bool, factor: f64, rp: f64) -> CompletionRecord {
        CompletionRecord {
            app: AppId::new(0),
            arrival: SimTime::ZERO,
            completion: SimTime::from_secs(10.0),
            deadline: SimTime::from_secs(20.0),
            distance: SimDuration::from_secs(if met { 10.0 } else { -5.0 }),
            rp: Rp::new(rp),
            goal_factor: factor,
            met_deadline: met,
        }
    }

    #[test]
    fn deadline_ratio() {
        let mut m = RunMetrics::default();
        assert_eq!(m.deadline_met_ratio(), None);
        m.completions.push(completion(true, 1.3, 0.5));
        m.completions.push(completion(false, 2.5, -0.1));
        m.completions.push(completion(true, 1.3, 0.4));
        assert!((m.deadline_met_ratio().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn filter_by_factor() {
        let mut m = RunMetrics::default();
        m.completions.push(completion(true, 1.3, 0.5));
        m.completions.push(completion(true, 4.0, 0.5));
        assert_eq!(m.completions_with_factor(1.3).count(), 1);
        assert_eq!(m.completions_with_factor(4.0).count(), 1);
        assert_eq!(m.completions_with_factor(2.5).count(), 0);
    }

    #[test]
    fn filter_by_factor_is_relative_not_absolute() {
        // One ulp at 1e13 is ~2e-3 — far beyond the old absolute 1e-6
        // tolerance, so a record could fail to match its own factor.
        let big = 12_345_678_901_234.5_f64;
        let nudged = f64::from_bits(big.to_bits() + 1);
        let mut m = RunMetrics::default();
        m.completions.push(completion(true, nudged, 0.5));
        assert_eq!(m.completions_with_factor(big).count(), 1);
        // Genuinely different factors still do not match.
        assert_eq!(m.completions_with_factor(big * 1.5).count(), 0);
    }

    fn sample_with_compute(secs: f64) -> CycleSample {
        CycleSample {
            time: SimTime::ZERO,
            batch_hypothetical_rp: None,
            txn_rp: None,
            batch_allocation: CpuSpeed::ZERO,
            txn_allocation: CpuSpeed::ZERO,
            running_jobs: 0,
            waiting_jobs: 0,
            placement_compute_secs: secs,
            pending_actions: 0,
            rigid_utilization: Vec::new(),
        }
    }

    #[test]
    fn mean_compute_time_counts_sub_resolution_cycles() {
        let mut m = RunMetrics::default();
        assert_eq!(m.mean_placement_compute_secs(), None);
        // One cycle below timer resolution, one at 0.2 s. The old
        // implementation dropped the zero and reported 0.2.
        m.samples.push(sample_with_compute(0.0));
        m.samples.push(sample_with_compute(0.2));
        let mean = m.mean_placement_compute_secs().unwrap();
        assert!((mean - 0.1).abs() < 1e-12, "got {mean}");
        assert_eq!(m.sub_resolution_compute_cycles(), 1);
    }

    #[test]
    fn out_of_range_ids_fail_to_decode() {
        // u32::MAX + 2 used to truncate to app 1.
        let text = r#"{
            "app": 4294967297, "arrival": 0.0, "completion": 1.0,
            "deadline": 2.0, "distance": 1.0, "rp": 0.5,
            "goal_factor": 2.0, "met_deadline": true
        }"#;
        let err = CompletionRecord::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.message.contains("4294967297"), "{}", err.message);
        assert!(err.message.contains("out of range"), "{}", err.message);

        let text = r#"{ "time": 0.0, "instances": [[0, 4294967297, 1]] }"#;
        let err = PlacementRecord::from_json(&Json::parse(text).unwrap()).unwrap_err();
        assert!(err.message.contains("node id"), "{}", err.message);

        // In-range ids still decode.
        let text = r#"{ "time": 0.0, "instances": [[7, 3, 2]] }"#;
        let rec = PlacementRecord::from_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(rec.placement.count(AppId::new(7), NodeId::new(3)), 2);
    }

    #[test]
    fn large_goal_factor_survives_json_round_trip() {
        let mut m = RunMetrics::default();
        m.completions.push(completion(true, 9.87654321e12, 0.25));
        let text = m.to_json().pretty();
        let back = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.completions[0].goal_factor, 9.87654321e12);
        assert_eq!(back.completions_with_factor(9.87654321e12).count(), 1);
    }

    #[test]
    fn change_totals() {
        let c = ChangeCounters {
            starts: 10,
            suspends: 3,
            resumes: 2,
            migrations: 4,
        };
        assert_eq!(c.disruptive_total(), 9);
    }

    #[test]
    fn mean_rp() {
        let mut m = RunMetrics::default();
        m.completions.push(completion(true, 1.3, 0.2));
        m.completions.push(completion(true, 1.3, 0.6));
        assert!(m
            .mean_completion_rp()
            .unwrap()
            .approx_eq(Rp::new(0.4), 1e-12));
    }

    #[test]
    fn metrics_round_trip_through_json() {
        let mut m = RunMetrics::default();
        m.samples.push(CycleSample {
            time: SimTime::from_secs(60.0),
            batch_hypothetical_rp: Some(Rp::new(0.25)),
            txn_rp: None,
            batch_allocation: CpuSpeed::from_mhz(1_234.5),
            txn_allocation: CpuSpeed::from_mhz(0.0),
            running_jobs: 3,
            waiting_jobs: 1,
            placement_compute_secs: 0.0125,
            pending_actions: 2,
            rigid_utilization: vec![RigidDimSample {
                dim: "disk_mb".to_string(),
                used: 2_048.0,
                capacity: 8_192.0,
            }],
        });
        m.completions.push(completion(true, 2.5, 0.375));
        m.changes = ChangeCounters {
            starts: 4,
            suspends: 1,
            resumes: 1,
            migrations: 0,
        };
        m.actuation = ActuationCounters {
            failed_ops: 3,
            timed_out_ops: 1,
            retries: 2,
            deferrals: 5,
            quarantines: 1,
            fill_only_fallbacks: 1,
            deadline_truncations: 0,
            invariant_skips: 0,
            retry_events: 4,
        };
        m.observation = ObservationCounters {
            missed_heartbeats: 12,
            lost_reports: 7,
            suspects: 3,
            deaths: 1,
            reinstatements: 1,
            stale_holds: 2,
            fill_only_degrades: 1,
        };
        let text = m.to_json().pretty();
        let back = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.samples, m.samples);
        assert_eq!(back.completions, m.completions);
        assert_eq!(back.changes, m.changes);
        assert_eq!(back.actuation, m.actuation);
        assert_eq!(back.observation, m.observation);
        assert_eq!(back.observation.lost_total(), 19);
    }

    #[test]
    fn a_zero_retry_count_is_left_out_of_json_and_debug_forms() {
        let mut a = ActuationCounters {
            failed_ops: 1,
            ..Default::default()
        };
        assert_eq!(
            format!("{a:?}"),
            "ActuationCounters { failed_ops: 1, timed_out_ops: 0, retries: 0, deferrals: 0, \
             quarantines: 0, fill_only_fallbacks: 0, deadline_truncations: 0, invariant_skips: 0 }"
        );
        assert!(!a.to_json().compact().contains("retry_events"));
        a.retry_events = 2;
        assert!(format!("{a:?}").ends_with("invariant_skips: 0, retry_events: 2 }"));
        assert!(a.to_json().compact().contains("\"retry_events\":2.0"));
    }

    #[test]
    fn actuation_counters_absent_in_old_artifacts_default_to_zero() {
        let m = RunMetrics::default();
        let mut json = m.to_json();
        // Simulate a pre-actuation artifact by dropping the new fields.
        if let Json::Obj(fields) = &mut json {
            fields.retain(|(k, _)| k != "actuation");
        }
        let back = RunMetrics::from_json(&json).unwrap();
        assert_eq!(back.actuation, ActuationCounters::default());
        assert_eq!(back.actuation.unapplied_total(), 0);
    }

    #[test]
    fn observation_counters_absent_in_old_artifacts_default_to_zero() {
        // Perfect-telemetry runs omit the field entirely (byte-stable
        // artifacts), and artifacts written before the observation layer
        // never had it; both decode to all-zero counters.
        let m = RunMetrics::default();
        let text = m.to_json().pretty();
        assert!(
            !text.contains("observation"),
            "all-zero counters must not be emitted: {text}"
        );
        let back = RunMetrics::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.observation, ObservationCounters::default());
    }
}
