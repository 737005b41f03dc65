//! Batch (long-running) workload model: job profiles, runtime state, the
//! paper's *hypothetical relative performance* predictor, and the FCFS /
//! EDF baseline schedulers.
//!
//! The key idea (§4 of the paper) is that batch jobs cannot be scored in
//! isolation — finishing one job early lets queued jobs start earlier —
//! so at every control cycle the whole batch workload is scored together
//! by a fluid model: the [`hypothetical::HypotheticalRpf`]. Candidate
//! placements are evaluated one control cycle ahead with
//! [`hypothetical::evaluate_batch_placement`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dynaplace_batch::hypothetical::{HypotheticalRpf, JobSnapshot};
//! use dynaplace_batch::job::JobProfile;
//! use dynaplace_model::ids::AppId;
//! use dynaplace_model::units::*;
//! use dynaplace_rpf::goal::CompletionGoal;
//!
//! // One job: 4,000 Mcycles, ≤1,000 MHz, goal t=20 s.
//! let job = JobSnapshot::new(
//!     AppId::new(0),
//!     CompletionGoal::new(SimTime::ZERO, SimTime::from_secs(20.0)),
//!     Arc::new(JobProfile::single_stage(
//!         Work::from_mcycles(4_000.0),
//!         CpuSpeed::from_mhz(1_000.0),
//!         Memory::from_mb(750.0),
//!     )),
//!     Work::ZERO,
//!     SimDuration::ZERO,
//! );
//! let hypo = HypotheticalRpf::new(SimTime::ZERO, &[job]);
//! // Given 400 MHz it completes at t=10: u = (20-10)/20 = 0.5.
//! let us = hypo.performances(CpuSpeed::from_mhz(400.0));
//! assert!((us[0].1.value() - 0.5).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod class_profiler;
pub mod hypothetical;
pub mod job;
pub mod state;

pub use baselines::{edf_schedule, fcfs_schedule, BaselineJob, NodeCapacity};
pub use class_profiler::{ClassStats, JobClassProfiler};
pub use hypothetical::{
    default_grid, evaluate_batch_placement, evaluate_batch_placement_with_columns,
    evaluate_batch_placement_with_grid, BatchEvaluation, HypotheticalRpf, JobColumn, JobSnapshot,
    Survivor,
};
pub use job::{JobProfile, JobSpec, JobStage};
pub use state::{JobState, JobStatus};
