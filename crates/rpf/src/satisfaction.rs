//! The optimization objective: an ordered vector of per-application
//! relative performance, compared lexicographically.
//!
//! The paper's objective (§3.2) extends max-min fairness: first maximize
//! the lowest application's relative performance; once the lowest cannot
//! be improved, continue improving the next lowest, and so on. Sorting
//! each candidate's per-application performance ascending and comparing
//! the sorted vectors lexicographically realizes exactly that order.

use std::cmp::Ordering;

use dynaplace_model::ids::AppId;

use crate::value::Rp;

/// Default tolerance when comparing relative performance values.
pub const DEFAULT_EPSILON: f64 = 1e-6;

/// A snapshot of every application's relative performance under some
/// placement, sorted ascending (worst first).
///
/// ```
/// use dynaplace_model::ids::AppId;
/// use dynaplace_rpf::satisfaction::SatisfactionVector;
/// use dynaplace_rpf::value::Rp;
///
/// let a = SatisfactionVector::from_entries(vec![
///     (AppId::new(0), Rp::new(0.7)),
///     (AppId::new(1), Rp::new(0.6)),
/// ]);
/// let b = SatisfactionVector::from_entries(vec![
///     (AppId::new(0), Rp::new(0.65)),
///     (AppId::new(1), Rp::new(0.65)),
/// ]);
/// // b's worst application (0.65) beats a's worst (0.6).
/// assert!(b.dominates(&a, 1e-6));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SatisfactionVector {
    /// Entries sorted ascending by performance, ties broken by app id for
    /// determinism.
    entries: Vec<(AppId, Rp)>,
}

impl SatisfactionVector {
    /// Builds the vector from per-application performance values (any
    /// order; sorted internally).
    pub fn from_entries(mut entries: Vec<(AppId, Rp)>) -> Self {
        entries.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        Self { entries }
    }

    /// The sorted entries, worst first.
    pub fn entries(&self) -> &[(AppId, Rp)] {
        &self.entries
    }

    /// The worst-performing application and its performance, if any
    /// applications are present.
    pub fn worst(&self) -> Option<(AppId, Rp)> {
        self.entries.first().copied()
    }

    /// The best-performing application and its performance.
    pub fn best(&self) -> Option<(AppId, Rp)> {
        self.entries.last().copied()
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mean relative performance (a diagnostic, not the objective).
    pub fn mean(&self) -> Option<Rp> {
        if self.entries.is_empty() {
            return None;
        }
        let sum: f64 = self.entries.iter().map(|(_, u)| u.value()).sum();
        Some(Rp::new(sum / self.entries.len() as f64))
    }

    /// Lexicographic comparison of the ascending-sorted performance
    /// values, with per-element tolerance `epsilon`: elements closer than
    /// `epsilon` are treated as equal and the comparison moves on.
    ///
    /// Per-element comparison happens on the decompressed axis
    /// ([`Rp::cmp_with_tolerance`]): healthy-range pairs behave exactly
    /// as the historical absolute check, while sub-floor band pairs
    /// compare by lateness so `epsilon` does not erase band-scale deltas
    /// (which would make the objective indifferent to draining hopeless
    /// jobs — the starvation livelock this band exists to fix).
    ///
    /// `Greater` means `self` is the better system state under the
    /// paper's extended max-min objective.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors cover different numbers of applications;
    /// candidates in one optimization run always score the same
    /// application set.
    pub fn compare(&self, other: &Self, epsilon: f64) -> Ordering {
        assert_eq!(
            self.entries.len(),
            other.entries.len(),
            "satisfaction vectors must cover the same applications"
        );
        for ((_, a), (_, b)) in self.entries.iter().zip(&other.entries) {
            match a.cmp_with_tolerance(*b, epsilon) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Whether `self` strictly improves on `other` by more than
    /// `epsilon` somewhere before getting worse anywhere (i.e. the
    /// lexicographic comparison says `Greater`).
    pub fn dominates(&self, other: &Self, epsilon: f64) -> bool {
        self.compare(other, epsilon) == Ordering::Greater
    }
}

impl FromIterator<(AppId, Rp)> for SatisfactionVector {
    fn from_iter<I: IntoIterator<Item = (AppId, Rp)>>(iter: I) -> Self {
        Self::from_entries(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(values: &[f64]) -> SatisfactionVector {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (AppId::new(i as u32), Rp::new(v)))
            .collect()
    }

    #[test]
    fn sorted_worst_first() {
        let v = sv(&[0.5, -0.2, 0.9]);
        assert_eq!(v.worst().unwrap().1, Rp::new(-0.2));
        assert_eq!(v.best().unwrap().1, Rp::new(0.9));
        let us: Vec<f64> = v.entries().iter().map(|(_, u)| u.value()).collect();
        assert_eq!(us, vec![-0.2, 0.5, 0.9]);
    }

    #[test]
    fn maxmin_prefers_better_worst() {
        // The paper's S2 example: (0.65, 0.65) beats (0.6, 0.7).
        let p1 = sv(&[0.65, 0.65]);
        let p2 = sv(&[0.6, 0.7]);
        assert_eq!(p1.compare(&p2, DEFAULT_EPSILON), Ordering::Greater);
        assert!(p1.dominates(&p2, DEFAULT_EPSILON));
    }

    #[test]
    fn extended_criterion_breaks_ties_beyond_the_min() {
        // Same worst value: the second-worst decides.
        let a = sv(&[0.5, 0.9]);
        let b = sv(&[0.5, 0.6]);
        assert_eq!(a.compare(&b, DEFAULT_EPSILON), Ordering::Greater);
    }

    #[test]
    fn epsilon_absorbs_noise() {
        let a = sv(&[0.5000001, 0.7]);
        let b = sv(&[0.5, 0.7]);
        assert_eq!(a.compare(&b, 1e-3), Ordering::Equal);
        assert_eq!(a.compare(&b, 1e-9), Ordering::Greater);
    }

    #[test]
    fn equal_vectors_compare_equal() {
        let a = sv(&[0.1, 0.2, 0.3]);
        assert_eq!(a.compare(&a.clone(), DEFAULT_EPSILON), Ordering::Equal);
        assert!(!a.dominates(&a.clone(), DEFAULT_EPSILON));
    }

    #[test]
    fn sorting_makes_entry_order_irrelevant() {
        let a = SatisfactionVector::from_entries(vec![
            (AppId::new(1), Rp::new(0.9)),
            (AppId::new(0), Rp::new(0.1)),
        ]);
        let b = SatisfactionVector::from_entries(vec![
            (AppId::new(0), Rp::new(0.1)),
            (AppId::new(1), Rp::new(0.9)),
        ]);
        assert_eq!(a.compare(&b, DEFAULT_EPSILON), Ordering::Equal);
    }

    #[test]
    fn mean_is_diagnostic() {
        assert!(sv(&[0.0, 1.0])
            .mean()
            .unwrap()
            .approx_eq(Rp::new(0.5), 1e-12));
        assert_eq!(sv(&[]).mean(), None);
    }

    #[test]
    #[should_panic(expected = "same applications")]
    fn mismatched_lengths_panic() {
        let _ = sv(&[0.1]).compare(&sv(&[0.1, 0.2]), DEFAULT_EPSILON);
    }

    #[test]
    fn sub_floor_band_is_not_flat_to_the_objective() {
        // Two hopeless jobs, latenesses 1000 vs 1001 (raw-u units): the
        // stored encodings differ by far less than DEFAULT_EPSILON, but
        // the objective must still prefer the less-late state.
        let less_late = SatisfactionVector::from_entries(vec![(
            AppId::new(0),
            Rp::banded_from_lateness(1000.0),
        )]);
        let more_late = SatisfactionVector::from_entries(vec![(
            AppId::new(1),
            Rp::banded_from_lateness(1001.0),
        )]);
        let delta =
            (less_late.worst().unwrap().1.value() - more_late.worst().unwrap().1.value()).abs();
        assert!(delta < DEFAULT_EPSILON);
        assert_eq!(
            less_late.compare(&more_late, DEFAULT_EPSILON),
            Ordering::Greater
        );
    }
}
