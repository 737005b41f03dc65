//! Property-based tests for the hypothetical relative performance model.

#![deny(deprecated)]

use std::sync::Arc;

use dynaplace_batch::hypothetical::{evaluate_batch_placement, HypotheticalRpf, JobSnapshot};
use dynaplace_batch::job::{JobProfile, JobStage};
use dynaplace_model::ids::AppId;
use dynaplace_model::units::{CpuSpeed, Memory, SimDuration, SimTime, Work};
use dynaplace_rpf::goal::CompletionGoal;
use dynaplace_rpf::value::Rp;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct JobParams {
    work: f64,
    max_speed: f64,
    goal_factor: f64,
    progress_frac: f64,
    delayed: bool,
}

fn arb_job() -> impl Strategy<Value = JobParams> {
    (
        100.0..1e6f64,
        50.0..5_000.0f64,
        1.05..6.0f64,
        0.0..0.95f64,
        any::<bool>(),
    )
        .prop_map(
            |(work, max_speed, goal_factor, progress_frac, delayed)| JobParams {
                work,
                max_speed,
                goal_factor,
                progress_frac,
                delayed,
            },
        )
}

fn snapshot(i: usize, p: &JobParams, now: SimTime, cycle: SimDuration) -> JobSnapshot {
    let profile = JobProfile::single_stage(
        Work::from_mcycles(p.work),
        CpuSpeed::from_mhz(p.max_speed),
        Memory::from_mb(1_000.0),
    );
    let best = profile.min_execution_time();
    let goal = CompletionGoal::from_goal_factor(now, best, p.goal_factor);
    JobSnapshot::new(
        AppId::new(i as u32),
        goal,
        Arc::new(profile),
        Work::from_mcycles(p.work * p.progress_frac),
        if p.delayed { cycle } else { SimDuration::ZERO },
    )
}

proptest! {
    /// Predicted performance never exceeds u_max and never drops below
    /// the sampling floor.
    #[test]
    fn predictions_within_bounds(
        jobs in proptest::collection::vec(arb_job(), 1..8),
        omega in 0.0..50_000.0f64,
    ) {
        let now = SimTime::from_secs(1_000.0);
        let cycle = SimDuration::from_secs(60.0);
        let snaps: Vec<JobSnapshot> = jobs
            .iter()
            .enumerate()
            .map(|(i, p)| snapshot(i, p, now, cycle))
            .collect();
        let hypo = HypotheticalRpf::new(now, &snaps);
        let ps = hypo.performances(CpuSpeed::from_mhz(omega));
        for ((_, u), snap) in ps.iter().zip(&snaps) {
            let u_max = snap.u_max(now);
            prop_assert!(*u <= u_max.max(Rp::FLOOR));
            // Healthy jobs never dip below the flat sampling floor;
            // hopeless jobs live in the sub-floor band above Rp::MIN.
            if u_max >= Rp::FLOOR {
                prop_assert!(u.value() >= dynaplace_rpf::RP_FLOOR - 1e-9);
            } else {
                prop_assert!(*u >= Rp::MIN);
            }
        }
    }

    /// More aggregate CPU never hurts any job's prediction.
    #[test]
    fn predictions_monotone_in_omega(
        jobs in proptest::collection::vec(arb_job(), 1..8),
        omega1 in 0.0..30_000.0f64,
        delta in 0.0..30_000.0f64,
    ) {
        let now = SimTime::from_secs(500.0);
        let cycle = SimDuration::from_secs(60.0);
        let snaps: Vec<JobSnapshot> = jobs
            .iter()
            .enumerate()
            .map(|(i, p)| snapshot(i, p, now, cycle))
            .collect();
        let hypo = HypotheticalRpf::new(now, &snaps);
        let lo = hypo.performances(CpuSpeed::from_mhz(omega1));
        let hi = hypo.performances(CpuSpeed::from_mhz(omega1 + delta));
        for ((_, a), (_, b)) in lo.iter().zip(&hi) {
            prop_assert!(b >= a, "prediction dropped when omega grew: {a} -> {b}");
        }
    }

    /// Per-job demand (eq. 3) is monotone in the target and capped so
    /// that the capped target is always reachable in positive time.
    #[test]
    fn demand_monotone_and_finite(job in arb_job(), u1 in -9.0..1.0f64, du in 0.0..2.0f64) {
        let now = SimTime::from_secs(10.0);
        let cycle = SimDuration::from_secs(30.0);
        let snap = snapshot(0, &job, now, cycle);
        let d1 = snap.demand_for(now, Rp::new(u1));
        let d2 = snap.demand_for(now, Rp::new((u1 + du).min(1.0)));
        prop_assert!(d1.as_mhz().is_finite() && d1.as_mhz() >= 0.0);
        prop_assert!(d2 >= d1);
    }

    /// Placement evaluation conserves jobs: every input job appears in
    /// the output exactly once.
    #[test]
    fn evaluation_covers_all_jobs(
        jobs in proptest::collection::vec(arb_job(), 1..8),
        allocs in proptest::collection::vec(0.0..3_000.0f64, 8),
    ) {
        let now = SimTime::from_secs(100.0);
        let cycle = SimDuration::from_secs(120.0);
        let input: Vec<(JobSnapshot, CpuSpeed)> = jobs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let snap = snapshot(i, p, now, cycle);
                let cap = snap.max_speed();
                (snap, CpuSpeed::from_mhz(allocs[i]).min(cap))
            })
            .collect();
        let eval = evaluate_batch_placement(now, cycle, &input);
        prop_assert_eq!(eval.performances.len(), jobs.len());
        let mut seen: Vec<u32> = eval
            .performances
            .iter()
            .map(|(app, _)| app.index() as u32)
            .collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..jobs.len() as u32).collect();
        prop_assert_eq!(seen, expect);
        // Completions are consistent: completion times within the cycle.
        for (_, finish) in &eval.completions {
            prop_assert!(*finish >= now && *finish <= now + cycle + SimDuration::from_secs(1e-6));
        }
    }

    /// Giving one job more CPU in a candidate placement never lowers its
    /// own predicted performance.
    #[test]
    fn own_allocation_helps_self(
        jobs in proptest::collection::vec(arb_job(), 2..6),
        extra in 10.0..2_000.0f64,
    ) {
        let now = SimTime::from_secs(100.0);
        let cycle = SimDuration::from_secs(60.0);
        let snaps: Vec<JobSnapshot> = jobs
            .iter()
            .enumerate()
            .map(|(i, p)| snapshot(i, p, now, cycle))
            .collect();
        let base: Vec<(JobSnapshot, CpuSpeed)> = snaps
            .iter()
            .map(|s| (s.clone(), CpuSpeed::ZERO))
            .collect();
        let mut boosted = base.clone();
        let cap = boosted[0].0.max_speed();
        boosted[0].1 = CpuSpeed::from_mhz(extra).min(cap);
        let u_base = evaluate_batch_placement(now, cycle, &base)
            .performances
            .iter()
            .find(|(a, _)| a.index() == 0)
            .map(|&(_, u)| u)
            .unwrap();
        let u_boost = evaluate_batch_placement(now, cycle, &boosted)
            .performances
            .iter()
            .find(|(a, _)| a.index() == 0)
            .map(|&(_, u)| u)
            .unwrap();
        prop_assert!(u_boost >= u_base, "own CPU hurt the job: {u_base} -> {u_boost}");
    }

    /// The LRPF priority order is sorted by predicted performance.
    #[test]
    fn priority_order_is_sorted(
        jobs in proptest::collection::vec(arb_job(), 1..8),
        omega in 0.0..20_000.0f64,
    ) {
        let now = SimTime::from_secs(50.0);
        let cycle = SimDuration::from_secs(60.0);
        let snaps: Vec<JobSnapshot> = jobs
            .iter()
            .enumerate()
            .map(|(i, p)| snapshot(i, p, now, cycle))
            .collect();
        let hypo = HypotheticalRpf::new(now, &snaps);
        let omega = CpuSpeed::from_mhz(omega);
        let order = hypo.priority_order(omega);
        let perf: std::collections::HashMap<_, _> =
            hypo.performances(omega).into_iter().collect();
        for pair in order.windows(2) {
            prop_assert!(perf[&pair[0]] <= perf[&pair[1]]);
        }
    }
}

/// [`JobSnapshot::demand_for`] as it was written before its
/// level-independent terms moved into [`JobSnapshot::demand_curve`]: the
/// reference the hoisted curve must reproduce bit for bit.
fn reference_demand(snap: &JobSnapshot, now: SimTime, u: Rp) -> CpuSpeed {
    let remaining = snap.remaining_work();
    if remaining.is_zero() {
        return CpuSpeed::ZERO;
    }
    let target = u.min(snap.u_max(now));
    let completion = snap.goal().completion_for(target);
    let available = completion.max(snap.earliest_completion(now)) - now;
    remaining / available
}

/// A job of one to three stages, each with its own speed range.
fn arb_stages() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    proptest::collection::vec((100.0..1e6f64, 50.0..5_000.0f64, 0.0..1.0f64), 1..4)
}

/// A level: anywhere in the healthy range, or a sub-floor band value.
fn arb_level() -> impl Strategy<Value = Rp> {
    prop_oneof![
        (-10.0..1.0f64).prop_map(Rp::new),
        (0.0..1e3f64).prop_map(Rp::banded_from_lateness),
        Just(Rp::MIN),
        Just(Rp::FLOOR),
        Just(Rp::MAX),
    ]
}

proptest! {
    /// The hoisted demand curve returns the pre-hoisting formula's bits
    /// for multi-stage and parallel jobs, finished jobs, hopeless
    /// (sub-floor) jobs, and every level including the sub-floor band.
    #[test]
    fn demand_curve_matches_demand_formula(
        stages in arb_stages(),
        tasks in 1u32..5,
        goal_factor in 1.05..6.0f64,
        progress in prop_oneof![0.0..1.0f64, Just(1.0)],
        delayed in any::<bool>(),
        elapsed in prop_oneof![0.0..100.0f64, 1e3..1e6f64],
        levels in proptest::collection::vec(arb_level(), 1..12),
    ) {
        let start = SimTime::from_secs(100.0);
        let profile = JobProfile::new(
            stages
                .iter()
                .map(|&(work, max, min_frac)| {
                    JobStage::new(
                        Work::from_mcycles(work),
                        CpuSpeed::from_mhz(max),
                        CpuSpeed::from_mhz(max * min_frac),
                        Memory::from_mb(500.0),
                    )
                })
                .collect(),
        );
        let goal = CompletionGoal::from_goal_factor(start, profile.min_execution_time(), goal_factor);
        let consumed = Work::from_mcycles(profile.total_work().as_mcycles() * progress);
        let snap = JobSnapshot::new(
            AppId::new(0),
            goal,
            Arc::new(profile),
            consumed,
            if delayed { SimDuration::from_secs(60.0) } else { SimDuration::ZERO },
        )
        .with_parallelism(tasks);
        // Far past the deadline the job is hopeless: its u_max is banded.
        let now = start + SimDuration::from_secs(elapsed);
        let curve = snap.demand_curve(now);
        prop_assert_eq!(curve.u_max(), snap.u_max(now));
        for u in levels {
            let expected = reference_demand(&snap, now, u);
            prop_assert_eq!(curve.at(u).as_mhz().to_bits(), expected.as_mhz().to_bits());
            prop_assert_eq!(snap.demand_for(now, u).as_mhz().to_bits(), expected.as_mhz().to_bits());
        }
    }
}
