//! Runtime state of a job (§4.1): status and CPU time consumed so far.

use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime, Work};

use crate::job::JobProfile;

/// The lifecycle status of a job (§4.1 lists running, not-started,
/// suspended, and paused; completion is added for bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Submitted but never started.
    NotStarted,
    /// Currently executing on a node.
    Running,
    /// In memory on a node but receiving no CPU (cheap to continue).
    Paused,
    /// Serialized off its node (resuming costs a VM resume).
    Suspended,
    /// All work done.
    Completed,
}

impl JobStatus {
    /// Whether the job still has work to do.
    pub fn is_live(self) -> bool {
        self != JobStatus::Completed
    }

    /// Whether the job currently occupies memory on some node.
    pub fn occupies_node(self) -> bool {
        matches!(self, JobStatus::Running | JobStatus::Paused)
    }
}

/// Mutable runtime state of one job: how much work it has consumed (the
/// paper's `α*`), its status, and its completion time once finished.
#[derive(Debug, Clone, PartialEq)]
pub struct JobState {
    status: JobStatus,
    consumed: Work,
    completed_at: Option<SimTime>,
}

impl Default for JobState {
    fn default() -> Self {
        Self::new()
    }
}

impl JobState {
    /// A freshly submitted job: not started, no work consumed.
    pub fn new() -> Self {
        Self {
            status: JobStatus::NotStarted,
            consumed: Work::ZERO,
            completed_at: None,
        }
    }

    /// Current status.
    #[inline]
    pub fn status(&self) -> JobStatus {
        self.status
    }

    /// CPU time consumed thus far (`α*`).
    #[inline]
    pub fn consumed(&self) -> Work {
        self.consumed
    }

    /// Completion time, once completed.
    #[inline]
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed_at
    }

    /// Transitions to [`JobStatus::Running`].
    ///
    /// # Panics
    ///
    /// Panics if the job is already completed.
    pub fn start(&mut self) {
        assert!(self.status.is_live(), "cannot start a completed job");
        self.status = JobStatus::Running;
    }

    /// Transitions to [`JobStatus::Paused`] (stays in memory).
    ///
    /// # Panics
    ///
    /// Panics if the job is not running.
    pub fn pause(&mut self) {
        assert_eq!(self.status, JobStatus::Running, "only running jobs pause");
        self.status = JobStatus::Paused;
    }

    /// Transitions to [`JobStatus::Suspended`] (leaves its node).
    ///
    /// # Panics
    ///
    /// Panics if the job is completed or not started.
    pub fn suspend(&mut self) {
        assert!(
            matches!(self.status, JobStatus::Running | JobStatus::Paused),
            "only running or paused jobs suspend"
        );
        self.status = JobStatus::Suspended;
    }

    /// Records `amount` of work done against `profile`; returns `true`
    /// when the job just completed. `completed_at` must then be set by
    /// the caller via [`JobState::complete`] (which knows the exact time).
    pub fn advance(&mut self, profile: &JobProfile, amount: Work) -> bool {
        debug_assert!(amount.as_mcycles() >= 0.0);
        if self.status == JobStatus::Completed {
            return false;
        }
        let total = profile.total_work();
        self.consumed = (self.consumed + amount).min(total);
        self.consumed.as_mcycles() >= total.as_mcycles()
    }

    /// Marks the job completed at `time`.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    pub fn complete(&mut self, time: SimTime) {
        assert!(self.completed_at.is_none(), "job already completed");
        self.status = JobStatus::Completed;
        self.completed_at = Some(time);
    }

    /// Remaining work against `profile`.
    pub fn remaining_work(&self, profile: &JobProfile) -> Work {
        profile.remaining_work(self.consumed)
    }

    /// Fastest possible remaining execution time against `profile`.
    pub fn remaining_min_time(&self, profile: &JobProfile) -> SimDuration {
        profile.remaining_min_time(self.consumed)
    }

    /// Speed bounds of the stage currently in progress; `None` when done.
    pub fn current_speed_bounds(&self, profile: &JobProfile) -> Option<(CpuSpeed, CpuSpeed)> {
        profile
            .stage_at(self.consumed)
            .map(|(s, _)| (s.min_speed(), s.max_speed()))
    }

    /// Memory pinned by the stage currently in progress; `None` when
    /// done.
    pub fn current_memory(&self, profile: &JobProfile) -> Option<Memory> {
        profile.stage_at(self.consumed).map(|(s, _)| s.memory())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobStage;

    fn profile() -> JobProfile {
        JobProfile::new(vec![
            JobStage::new(
                Work::from_mcycles(1_000.0),
                CpuSpeed::from_mhz(500.0),
                CpuSpeed::ZERO,
                Memory::from_mb(100.0),
            ),
            JobStage::new(
                Work::from_mcycles(2_000.0),
                CpuSpeed::from_mhz(1_000.0),
                CpuSpeed::from_mhz(100.0),
                Memory::from_mb(300.0),
            ),
        ])
    }

    #[test]
    fn lifecycle_transitions() {
        let mut s = JobState::new();
        assert_eq!(s.status(), JobStatus::NotStarted);
        s.start();
        assert_eq!(s.status(), JobStatus::Running);
        s.pause();
        assert_eq!(s.status(), JobStatus::Paused);
        s.suspend();
        assert_eq!(s.status(), JobStatus::Suspended);
        s.start();
        assert_eq!(s.status(), JobStatus::Running);
        s.complete(SimTime::from_secs(10.0));
        assert_eq!(s.status(), JobStatus::Completed);
        assert_eq!(s.completed_at(), Some(SimTime::from_secs(10.0)));
    }

    #[test]
    fn status_predicates() {
        assert!(JobStatus::Running.is_live());
        assert!(JobStatus::Suspended.is_live());
        assert!(!JobStatus::Completed.is_live());
        assert!(JobStatus::Running.occupies_node());
        assert!(JobStatus::Paused.occupies_node());
        assert!(!JobStatus::Suspended.occupies_node());
        assert!(!JobStatus::NotStarted.occupies_node());
    }

    #[test]
    fn advance_tracks_progress_and_completion() {
        let p = profile();
        let mut s = JobState::new();
        s.start();
        assert!(!s.advance(&p, Work::from_mcycles(1_500.0)));
        assert_eq!(s.consumed(), Work::from_mcycles(1_500.0));
        assert_eq!(s.remaining_work(&p), Work::from_mcycles(1_500.0));
        assert!(s.advance(&p, Work::from_mcycles(1_500.0)));
        // Consumed clamps at total.
        assert!(s.advance(&p, Work::from_mcycles(99.0)) || s.consumed() == p.total_work());
        assert_eq!(s.consumed(), p.total_work());
    }

    #[test]
    fn stage_dependent_views() {
        let p = profile();
        let mut s = JobState::new();
        assert_eq!(
            s.current_speed_bounds(&p),
            Some((CpuSpeed::ZERO, CpuSpeed::from_mhz(500.0)))
        );
        assert_eq!(s.current_memory(&p), Some(Memory::from_mb(100.0)));
        s.start();
        s.advance(&p, Work::from_mcycles(1_200.0));
        assert_eq!(
            s.current_speed_bounds(&p),
            Some((CpuSpeed::from_mhz(100.0), CpuSpeed::from_mhz(1_000.0)))
        );
        assert_eq!(s.current_memory(&p), Some(Memory::from_mb(300.0)));
        s.advance(&p, Work::from_mcycles(5_000.0));
        assert_eq!(s.current_speed_bounds(&p), None);
        assert_eq!(s.current_memory(&p), None);
    }

    #[test]
    fn remaining_min_time_shrinks_with_progress() {
        let p = profile();
        let mut s = JobState::new();
        let t0 = s.remaining_min_time(&p);
        s.start();
        s.advance(&p, Work::from_mcycles(1_000.0));
        let t1 = s.remaining_min_time(&p);
        assert!(t1 < t0);
        assert_eq!(t1, SimDuration::from_secs(2.0));
    }

    #[test]
    #[should_panic(expected = "cannot start a completed job")]
    fn starting_completed_job_panics() {
        let mut s = JobState::new();
        s.start();
        s.complete(SimTime::ZERO);
        s.start();
    }

    #[test]
    #[should_panic(expected = "only running jobs pause")]
    fn pausing_not_started_panics() {
        let mut s = JobState::new();
        s.pause();
    }
}
