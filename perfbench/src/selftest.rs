//! Attribution self-test: a slowdown injected through the benchmark's own
//! policy wrapper (a busy-wait added to every timed `fill_only` call, the
//! program untouched) must show up in the advice layer and nowhere else.
//!
//! 1. `stream_250`, traced: `advice.us_per_call` must rise by the
//!    injected delay (half its measured baseline), and `advice.busy_s`
//!    by the delay times the call count.
//! 2. `exp3_sharing`, end to end: `advice_ms_p50` must rise by the
//!    injected delay while `cycle_ms_p50` stays put.
//!
//! Each comparison runs interleaved pairs of measurements, alternating
//! which side goes first, and compares medians, so drift on the host
//! hits both sides alike. The slowdown is half the baseline: on a shared
//! two-vCPU host one measurement's advice latency moves by about 10 %
//! from run to run, too close to a 20 % injection for three pairs to
//! resolve reliably.

use std::time::Duration;

use crate::measure::{measure, median, Measured, Plan};
use crate::workloads::Workload;

/// Share of the baseline advice latency injected as the slowdown.
const SLOWDOWN: f64 = 0.5;
/// Interleaved baseline/slowed measurement pairs per comparison.
const PAIRS: usize = 3;
/// The measured rise must be within this share of the injected delay.
const RISE_TOLERANCE: f64 = 0.5;
/// Metrics predicted not to move may move by at most this share.
const STILL_TOLERANCE: f64 = 0.15;

/// A measurement's metrics, or `None` (reported) when a check failed.
fn run_checked(plan: Plan) -> Option<Measured> {
    let measured = measure(plan);
    if measured.ledger.messages.is_empty() {
        Some(measured)
    } else {
        for message in &measured.ledger.messages {
            eprintln!("CHECK FAILED: {message}");
        }
        None
    }
}

/// Baseline and slowed values of each named metric over interleaved
/// pairs, plus the median pairwise difference.
struct Paired {
    base: f64,
    slow: f64,
    rise: f64,
}

fn paired(base: Plan, slow: Plan, names: &[&str]) -> Option<Vec<Paired>> {
    let mut values = vec![(Vec::new(), Vec::new()); names.len()];
    for pair in 0..PAIRS {
        let (first, second) = if pair % 2 == 0 {
            (base, slow)
        } else {
            (slow, base)
        };
        let first = run_checked(first)?;
        let second = run_checked(second)?;
        let (b, s) = if pair % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        for (i, name) in names.iter().enumerate() {
            let get = |m: &Measured| m.metrics.get(name).expect("metric is reported");
            values[i].0.push(get(&b));
            values[i].1.push(get(&s));
        }
    }
    Some(
        values
            .into_iter()
            .map(|(b, s)| {
                let rises: Vec<f64> = b.iter().zip(&s).map(|(b, s)| s - b).collect();
                Paired {
                    base: median(&b),
                    slow: median(&s),
                    rise: median(&rises),
                }
            })
            .collect(),
    )
}

struct Verdicts(bool);

impl Verdicts {
    fn check(&mut self, ok: bool, what: String) {
        println!("{} {what}", if ok { "PASS" } else { "FAIL" });
        self.0 &= ok;
    }

    /// The paired rise must equal `delta` within [`RISE_TOLERANCE`].
    fn rose_by(&mut self, name: &str, p: &Paired, delta: f64) {
        self.check(
            (p.rise - delta).abs() <= RISE_TOLERANCE * delta,
            format!(
                "{name}: {:.4} -> {:.4}, rise {:.4} vs injected {delta:.4}",
                p.base, p.slow, p.rise
            ),
        );
    }

    fn stayed(&mut self, name: &str, p: &Paired) {
        let shift = p.slow / p.base - 1.0;
        self.check(
            shift.abs() <= STILL_TOLERANCE,
            format!(
                "{name}: {:.4} -> {:.4} ({:+.1} %)",
                p.base,
                p.slow,
                100.0 * shift
            ),
        );
    }
}

/// Runs the self-test; every measurement takes `seconds`.
pub fn run(seed: u64, seconds: f64) -> bool {
    let plan = |workload, trace, delay_us: f64| Plan {
        workload,
        seed,
        seconds,
        trace,
        advice_delay: Duration::from_secs_f64(delay_us * 1e-6),
    };
    let mut verdicts = Verdicts(true);

    let Some(probe) = run_checked(plan(Workload::Stream250, true, 0.0)) else {
        return false;
    };
    let per_call_us = probe.metrics.get("advice.us_per_call").expect("reported");
    let calls = probe.metrics.get("advice.calls").expect("reported");
    let delay_us = SLOWDOWN * per_call_us;
    let Some(stream) = paired(
        plan(Workload::Stream250, true, 0.0),
        plan(Workload::Stream250, true, delay_us),
        &["advice.us_per_call", "advice.busy_s"],
    ) else {
        return false;
    };
    verdicts.rose_by("stream_250 advice.us_per_call", &stream[0], delay_us);
    verdicts.rose_by(
        "stream_250 advice.busy_s",
        &stream[1],
        calls * delay_us * 1e-6,
    );

    let Some(probe) = run_checked(plan(Workload::Exp3Sharing, false, 0.0)) else {
        return false;
    };
    let delay_us = SLOWDOWN * probe.metrics.get("advice_ms_p50").expect("reported") * 1e3;
    let Some(exp3) = paired(
        plan(Workload::Exp3Sharing, false, 0.0),
        plan(Workload::Exp3Sharing, false, delay_us),
        &["advice_ms_p50", "cycle_ms_p50"],
    ) else {
        return false;
    };
    verdicts.rose_by("exp3_sharing advice_ms_p50", &exp3[0], delay_us * 1e-3);
    verdicts.stayed("exp3_sharing cycle_ms_p50", &exp3[1]);
    verdicts.0
}
