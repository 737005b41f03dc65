//! On-the-fly job profile estimation — the paper's second stated piece
//! of future work ("we also need to work on the on-the-fly generation of
//! job profiles").
//!
//! In the real system a job workload profiler derives resource usage
//! profiles from historical data (§4.1). This module provides that
//! history: completed jobs are recorded under a *job class* (e.g.
//! "nightly-etl", "risk-report"), and newly submitted jobs of a known
//! class can be given an estimated profile when the submitter has none.

use std::collections::BTreeMap;

use dynaplace_model::units::Work;

/// Streaming statistics of one job class (Welford's algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClassStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl ClassStats {
    /// Number of completed jobs recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean total work over recorded completions, in megacycles.
    pub fn mean_work(&self) -> Work {
        Work::from_mcycles(self.mean)
    }

    /// Sample standard deviation of total work, in megacycles (zero with
    /// fewer than two samples).
    pub fn stddev_mcycles(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    fn record(&mut self, work: f64) {
        self.count += 1;
        let delta = work - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (work - self.mean);
    }
}

/// Learns per-class total-work estimates from completed jobs.
///
/// ```
/// use dynaplace_batch::class_profiler::JobClassProfiler;
/// use dynaplace_model::units::Work;
///
/// let mut profiler = JobClassProfiler::new(3);
/// for w in [900.0, 1_000.0, 1_100.0] {
///     profiler.record_completion("etl", Work::from_mcycles(w));
/// }
/// let est = profiler.estimate("etl").expect("enough history");
/// assert_eq!(est.mean_work(), Work::from_mcycles(1_000.0));
/// assert!(profiler.estimate("unknown").is_none());
/// ```
#[derive(Debug, Clone)]
pub struct JobClassProfiler {
    min_samples: u64,
    classes: BTreeMap<String, ClassStats>,
}

impl JobClassProfiler {
    /// Creates a profiler that only reports estimates for classes with
    /// at least `min_samples` completions.
    ///
    /// # Panics
    ///
    /// Panics if `min_samples` is zero.
    pub fn new(min_samples: u64) -> Self {
        assert!(min_samples > 0, "min_samples must be positive");
        Self {
            min_samples,
            classes: BTreeMap::new(),
        }
    }

    /// Records the actual total work of a completed job of `class`.
    pub fn record_completion(&mut self, class: &str, total_work: Work) {
        self.classes
            .entry(class.to_string())
            .or_default()
            .record(total_work.as_mcycles());
    }

    /// The estimate for `class`, once enough completions are recorded.
    pub fn estimate(&self, class: &str) -> Option<&ClassStats> {
        self.classes
            .get(class)
            .filter(|s| s.count >= self.min_samples)
    }

    /// All classes with their statistics (including under-sampled ones).
    pub fn classes(&self) -> impl Iterator<Item = (&str, &ClassStats)> {
        self.classes.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_need_min_samples() {
        let mut p = JobClassProfiler::new(3);
        p.record_completion("a", Work::from_mcycles(100.0));
        p.record_completion("a", Work::from_mcycles(200.0));
        assert!(p.estimate("a").is_none());
        p.record_completion("a", Work::from_mcycles(300.0));
        let est = p.estimate("a").unwrap();
        assert_eq!(est.count(), 3);
        assert_eq!(est.mean_work(), Work::from_mcycles(200.0));
        assert!((est.stddev_mcycles() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn classes_are_independent() {
        let mut p = JobClassProfiler::new(1);
        p.record_completion("etl", Work::from_mcycles(10.0));
        p.record_completion("ml", Work::from_mcycles(1_000.0));
        assert_eq!(
            p.estimate("etl").unwrap().mean_work(),
            Work::from_mcycles(10.0)
        );
        assert_eq!(
            p.estimate("ml").unwrap().mean_work(),
            Work::from_mcycles(1_000.0)
        );
        assert_eq!(p.classes().count(), 2);
    }

    #[test]
    fn identical_jobs_have_zero_variance() {
        let mut p = JobClassProfiler::new(2);
        for _ in 0..10 {
            p.record_completion("same", Work::from_mcycles(42.0));
        }
        let est = p.estimate("same").unwrap();
        assert_eq!(est.mean_work(), Work::from_mcycles(42.0));
        assert_eq!(est.stddev_mcycles(), 0.0);
    }

    #[test]
    fn welford_matches_naive_variance() {
        let samples = [3.0, 7.0, 7.0, 19.0, 24.0, 1.5];
        let mut p = JobClassProfiler::new(1);
        for &s in &samples {
            p.record_completion("x", Work::from_mcycles(s));
        }
        let est = p.estimate("x").unwrap();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
        assert!((est.mean_work().as_mcycles() - mean).abs() < 1e-12);
        assert!((est.stddev_mcycles() - var.sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "min_samples must be positive")]
    fn zero_min_samples_rejected() {
        let _ = JobClassProfiler::new(0);
    }
}
