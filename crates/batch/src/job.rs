//! Batch job descriptions: resource usage profiles and SLA goals (§4.1).

use dynaplace_model::ids::AppId;
use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime, Work};
use dynaplace_rpf::goal::CompletionGoal;

/// One stage of a job's resource usage profile (§4.1): the work it
/// performs, the speed bounds it runs within, and the memory it pins.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStage {
    /// CPU cycles consumed in this stage (the paper's `α_k`).
    work: Work,
    /// Maximum speed the stage may run at (`ω_max_k`).
    max_speed: CpuSpeed,
    /// Minimum speed the stage must run at whenever it runs (`ω_min_k`).
    min_speed: CpuSpeed,
    /// Memory pinned while the stage runs (`γ_k`).
    memory: Memory,
}

impl JobStage {
    /// Creates a stage.
    ///
    /// # Panics
    ///
    /// Panics if `work` or `max_speed` is not strictly positive, or
    /// `min_speed > max_speed`.
    pub fn new(work: Work, max_speed: CpuSpeed, min_speed: CpuSpeed, memory: Memory) -> Self {
        assert!(work.as_mcycles() > 0.0, "stage work must be positive");
        assert!(max_speed.as_mhz() > 0.0, "stage max speed must be positive");
        assert!(
            min_speed <= max_speed,
            "stage min speed must not exceed max speed"
        );
        assert!(memory.as_mb() >= 0.0, "stage memory must be non-negative");
        Self {
            work,
            max_speed,
            min_speed,
            memory,
        }
    }

    /// CPU cycles this stage consumes.
    #[inline]
    pub fn work(&self) -> Work {
        self.work
    }

    /// Maximum execution speed.
    #[inline]
    pub fn max_speed(&self) -> CpuSpeed {
        self.max_speed
    }

    /// Minimum execution speed whenever running.
    #[inline]
    pub fn min_speed(&self) -> CpuSpeed {
        self.min_speed
    }

    /// Memory pinned while this stage runs.
    #[inline]
    pub fn memory(&self) -> Memory {
        self.memory
    }

    /// Time this stage takes at maximum speed.
    #[inline]
    pub fn min_duration(&self) -> SimDuration {
        self.work / self.max_speed
    }
}

/// A job's complete resource usage profile: an ordered sequence of stages
/// (§4.1). Estimated by the job workload profiler from historical runs in
/// the real system; supplied at submission time here.
///
/// ```
/// use dynaplace_batch::job::{JobProfile, JobStage};
/// use dynaplace_model::units::{CpuSpeed, Memory, Work};
///
/// // Experiment One's job: 68,640,000 Mcycles at up to 3,900 MHz.
/// let profile = JobProfile::single_stage(
///     Work::from_mcycles(68_640_000.0),
///     CpuSpeed::from_mhz(3_900.0),
///     Memory::from_mb(4_320.0),
/// );
/// assert_eq!(profile.min_execution_time().as_secs(), 17_600.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    stages: Vec<JobStage>,
}

impl JobProfile {
    /// Builds a profile from stages.
    ///
    /// # Panics
    ///
    /// Panics if no stages are given.
    pub fn new(stages: Vec<JobStage>) -> Self {
        assert!(!stages.is_empty(), "a job needs at least one stage");
        Self { stages }
    }

    /// The common case: one stage with no minimum speed.
    pub fn single_stage(work: Work, max_speed: CpuSpeed, memory: Memory) -> Self {
        Self::new(vec![JobStage::new(work, max_speed, CpuSpeed::ZERO, memory)])
    }

    /// The stages in execution order.
    #[inline]
    pub fn stages(&self) -> &[JobStage] {
        &self.stages
    }

    /// Total CPU cycles over all stages.
    pub fn total_work(&self) -> Work {
        self.stages.iter().map(JobStage::work).sum()
    }

    /// Execution time when every stage runs at its maximum speed (the
    /// paper's "minimum execution time", `t_best`).
    pub fn min_execution_time(&self) -> SimDuration {
        self.stages.iter().map(JobStage::min_duration).sum()
    }

    /// The stage in progress after `consumed` cycles of work, together
    /// with the work already consumed *within* that stage.
    ///
    /// Returns `None` when `consumed >= total_work` (the job is done).
    pub fn stage_at(&self, consumed: Work) -> Option<(&JobStage, Work)> {
        let mut seen = Work::ZERO;
        for stage in &self.stages {
            let end = seen + stage.work();
            if consumed.as_mcycles() < end.as_mcycles() {
                return Some((stage, consumed - seen));
            }
            seen = end;
        }
        None
    }

    /// Remaining work after `consumed` cycles.
    pub fn remaining_work(&self, consumed: Work) -> Work {
        self.total_work().saturating_sub(consumed)
    }

    /// Fastest possible time to finish the remaining work (each remaining
    /// stage at its own maximum speed).
    pub fn remaining_min_time(&self, consumed: Work) -> SimDuration {
        let mut seen = Work::ZERO;
        let mut remaining = SimDuration::ZERO;
        for stage in &self.stages {
            let end = seen + stage.work();
            if consumed.as_mcycles() < end.as_mcycles() {
                let left_in_stage = end - consumed.max(seen);
                remaining += left_in_stage / stage.max_speed();
            }
            seen = end;
        }
        remaining
    }
}

/// A submitted job: identity, profile, arrival time, and SLA goal.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    app: AppId,
    profile: JobProfile,
    arrival: SimTime,
    goal: CompletionGoal,
    class: Option<String>,
}

impl JobSpec {
    /// Creates a job submitted at `arrival` with the given completion
    /// goal.
    ///
    /// # Panics
    ///
    /// Panics if the goal's desired start precedes the arrival time
    /// (§4.1: `τ_start` is at or after submission).
    pub fn new(app: AppId, profile: JobProfile, arrival: SimTime, goal: CompletionGoal) -> Self {
        assert!(
            goal.desired_start() >= arrival,
            "desired start must not precede submission"
        );
        Self {
            app,
            profile,
            arrival,
            goal,
            class: None,
        }
    }

    /// Tags the job with a *class* name for on-the-fly profile
    /// estimation (see [`crate::class_profiler::JobClassProfiler`]).
    #[must_use]
    pub fn with_class(mut self, class: impl Into<String>) -> Self {
        self.class = Some(class.into());
        self
    }

    /// Creates a job whose goal is expressed with the paper's *relative
    /// goal factor*: deadline = arrival + factor × best execution time.
    pub fn with_goal_factor(
        app: AppId,
        profile: JobProfile,
        arrival: SimTime,
        factor: f64,
    ) -> Self {
        let goal = CompletionGoal::from_goal_factor(arrival, profile.min_execution_time(), factor);
        Self::new(app, profile, arrival, goal)
    }

    /// The application id under which the placement controller sees this
    /// job.
    #[inline]
    pub fn app(&self) -> AppId {
        self.app
    }

    /// The resource usage profile.
    #[inline]
    pub fn profile(&self) -> &JobProfile {
        &self.profile
    }

    /// Submission time.
    #[inline]
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// The completion-time goal.
    #[inline]
    pub fn goal(&self) -> CompletionGoal {
        self.goal
    }

    /// The job class, if tagged.
    #[inline]
    pub fn class(&self) -> Option<&str> {
        self.class.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc(x: f64) -> Work {
        Work::from_mcycles(x)
    }
    fn mhz(x: f64) -> CpuSpeed {
        CpuSpeed::from_mhz(x)
    }
    fn mb(x: f64) -> Memory {
        Memory::from_mb(x)
    }

    fn two_stage() -> JobProfile {
        JobProfile::new(vec![
            JobStage::new(mc(1_000.0), mhz(500.0), CpuSpeed::ZERO, mb(100.0)),
            JobStage::new(mc(3_000.0), mhz(1_000.0), mhz(200.0), mb(400.0)),
        ])
    }

    #[test]
    fn totals() {
        let p = two_stage();
        assert_eq!(p.total_work(), mc(4_000.0));
        // 1000/500 + 3000/1000 = 2 + 3 = 5s.
        assert_eq!(p.min_execution_time(), SimDuration::from_secs(5.0));
    }

    #[test]
    fn stage_lookup_tracks_progress() {
        let p = two_stage();
        let (s, within) = p.stage_at(Work::ZERO).unwrap();
        assert_eq!(s.max_speed(), mhz(500.0));
        assert_eq!(within, Work::ZERO);
        let (s, within) = p.stage_at(mc(999.0)).unwrap();
        assert_eq!(s.max_speed(), mhz(500.0));
        assert_eq!(within, mc(999.0));
        let (s, within) = p.stage_at(mc(1_000.0)).unwrap();
        assert_eq!(s.max_speed(), mhz(1_000.0));
        assert_eq!(within, Work::ZERO);
        assert!(p.stage_at(mc(4_000.0)).is_none());
    }

    #[test]
    fn remaining_quantities() {
        let p = two_stage();
        assert_eq!(p.remaining_work(mc(1_500.0)), mc(2_500.0));
        // 500 left of stage 1 at 500 MHz (1 s) + 3000 at 1000 MHz (3 s)...
        // wait: consumed 1500 = stage 1 done (1000) + 500 into stage 2.
        // Remaining = 2500 of stage 2 at 1000 MHz = 2.5 s.
        assert_eq!(
            p.remaining_min_time(mc(1_500.0)),
            SimDuration::from_secs(2.5)
        );
        // From the start: 2 + 3 = 5 s.
        assert_eq!(
            p.remaining_min_time(Work::ZERO),
            SimDuration::from_secs(5.0)
        );
        // Past the end: nothing left.
        assert_eq!(p.remaining_min_time(mc(9_999.0)), SimDuration::ZERO);
        assert_eq!(p.remaining_work(mc(9_999.0)), Work::ZERO);
    }

    #[test]
    fn partial_first_stage_remaining_time() {
        let p = two_stage();
        // Consumed 500: 500 left of stage 1 (1 s) + stage 2 (3 s) = 4 s.
        assert_eq!(p.remaining_min_time(mc(500.0)), SimDuration::from_secs(4.0));
    }

    #[test]
    fn goal_factor_spec() {
        let profile = JobProfile::single_stage(mc(4_000.0), mhz(1_000.0), mb(750.0));
        let spec = JobSpec::with_goal_factor(AppId::new(0), profile, SimTime::ZERO, 5.0);
        // §4.3 J1: min exec 4 s, factor 5 → relative goal 20 s.
        assert_eq!(spec.goal().relative_goal(), SimDuration::from_secs(20.0));
        assert_eq!(spec.goal().deadline(), SimTime::from_secs(20.0));
    }

    #[test]
    #[should_panic(expected = "desired start must not precede submission")]
    fn goal_before_arrival_rejected() {
        let profile = JobProfile::single_stage(mc(1.0), mhz(1.0), mb(1.0));
        let goal = CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(10.0));
        let _ = JobSpec::new(AppId::new(0), profile, SimTime::from_secs(5.0), goal);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_profile_rejected() {
        let _ = JobProfile::new(vec![]);
    }
}
