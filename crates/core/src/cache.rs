//! Incremental candidate scoring: memoization that is exact by
//! construction.
//!
//! The three-nested-loop optimizer scores hundreds of candidate
//! placements per control cycle, and the intermediate loop regenerates
//! many of them verbatim across sweeps. Within one
//! [`crate::problem::PlacementProblem`] four quantities are pure
//! functions of inputs that never change during the search:
//!
//! 1. **The full score of a placement.** The problem (cluster, models,
//!    `now`, `cycle`) is fixed, so `score_placement` is a pure function
//!    of the placement alone. Keyed by the placement's sorted
//!    `(app, node, count)` triples.
//! 2. **Raw workload demand at a performance level.** Inside the
//!    water-filler, the *unclamped* demand of an application at level
//!    `u` depends only on its workload model (and `now`) — never on the
//!    candidate placement. The placement-dependent clamp to
//!    `[min_total, cap_total]` stays outside the memo. One row per
//!    level, keyed by `u.to_bits()` and indexed by the application's
//!    position in the problem's workloads; hits and misses still count
//!    one per `(app, u)` entry.
//! 3. **The one-cycle-ahead batch evaluation.** A pure function of the
//!    per-app CPU allocations. Keyed by the `(app, alloc.to_bits())`
//!    vector.
//! 4. **Per-job hypothetical columns.** Inside that evaluation, each
//!    surviving job's `W`/`V` column is sampled from its snapshot
//!    advanced by `alloc · cycle` — a pure function of `(app, alloc)`,
//!    since the underlying snapshot and the grid are fixed for the
//!    problem. Keyed by `(app, alloc.to_bits())`; this is the layer that
//!    pays off on *novel* candidates, because a candidate changes only
//!    a few jobs' allocations while every job's column is needed.
//!
//! Beside the memos, the cache derives each placed workload slot's
//! speed bounds and demand curve once per search (`slot_model`) and the
//! hypothetical sampling grid once (`grid`); neither is counted.
//!
//! Every memo stores the exact `f64`s the from-scratch computation
//! produced, so a cached score is bit-identical to an oracle
//! recomputation — the differential suite in
//! `crates/core/tests/differential.rs` proves this on randomized
//! problems.
//!
//! A cache is only valid for the problem it was populated against;
//! [`crate::optimizer::place`] builds a fresh one per call.

use std::cell::{Cell, OnceCell, RefCell, RefMut};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use dynaplace_batch::hypothetical::{default_grid, JobColumn};
use dynaplace_model::ids::AppId;
use dynaplace_model::placement::Placement;
use dynaplace_rpf::value::Rp;

use crate::evaluate::PlacementScore;
use crate::load::SlotModel;

/// A tiny multiplicative hasher for the memo keys. The keys are short
/// sequences of machine words with well-mixed low bits (ids and `f64`
/// bit patterns), the demand memo is probed once per bisection step and
/// the column memo once per surviving job per candidate — SipHash
/// overhead is measurable there, DoS resistance buys nothing.
#[derive(Default)]
struct MemoHasher(u64);

impl Hasher for MemoHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
}

type MemoMap<K, V> = HashMap<K, V, BuildHasherDefault<MemoHasher>>;

/// Key of the batch-evaluation memo: per-app `(id, alloc bit pattern)`.
type BatchKey = Vec<(u32, u64)>;

/// Canonical cache key of a placement: its `(app, node, count)` triples
/// in the placement's (sorted) iteration order.
pub type PlacementKey = Vec<(u32, u32, u32)>;

/// Hit/miss counters, one pair per memo layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Whole-placement score lookups that hit.
    pub score_hits: u64,
    /// Whole-placement score lookups that missed.
    pub score_misses: u64,
    /// Raw-demand lookups that hit.
    pub demand_hits: u64,
    /// Raw-demand lookups that missed.
    pub demand_misses: u64,
    /// Batch-evaluation lookups that hit.
    pub batch_hits: u64,
    /// Batch-evaluation lookups that missed.
    pub batch_misses: u64,
    /// Per-job hypothetical-column lookups that hit.
    pub column_hits: u64,
    /// Per-job hypothetical-column lookups that missed.
    pub column_misses: u64,
}

/// Memoization state for scoring candidate placements of **one**
/// [`crate::problem::PlacementProblem`].
///
/// Interior mutability keeps call sites shared-reference friendly (the
/// water-filler reads it from inside closures). The cache is `!Sync`:
/// it belongs to one search on one thread.
#[derive(Debug, Default)]
pub struct ScoreCache {
    scores: RefCell<MemoMap<PlacementKey, Option<Arc<PlacementScore>>>>,
    demands: RefCell<MemoMap<u64, Vec<Option<f64>>>>,
    batch_evals: RefCell<MemoMap<BatchKey, Vec<(AppId, Rp)>>>,
    columns: RefCell<MemoMap<(u32, u64), Arc<JobColumn>>>,
    slot_models: RefCell<Vec<Option<SlotModel>>>,
    grid: OnceCell<Vec<f64>>,
    score_hits: Cell<u64>,
    score_misses: Cell<u64>,
    demand_hits: Cell<u64>,
    demand_misses: Cell<u64>,
    batch_hits: Cell<u64>,
    batch_misses: Cell<u64>,
    column_hits: Cell<u64>,
    column_misses: Cell<u64>,
}

impl ScoreCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The canonical key of `placement`.
    pub fn placement_key(placement: &Placement) -> PlacementKey {
        placement
            .iter()
            .map(|(app, node, count)| (app.index() as u32, node.index() as u32, count))
            .collect()
    }

    /// Looks up a previously inserted whole-placement score. The outer
    /// `Option` is hit/miss; the inner one mirrors
    /// [`crate::evaluate::score_placement`]'s infeasibility result. Scores
    /// are shared via [`Arc`] so a hit never deep-copies the load
    /// distribution.
    pub fn lookup_score(&self, key: &PlacementKey) -> Option<Option<Arc<PlacementScore>>> {
        let hit = self.scores.borrow().get(key).cloned();
        match hit {
            Some(score) => {
                self.score_hits.set(self.score_hits.get() + 1);
                Some(score)
            }
            None => {
                self.score_misses.set(self.score_misses.get() + 1);
                None
            }
        }
    }

    /// Records the scoring result for `key`.
    pub fn insert_score(&self, key: PlacementKey, score: Option<Arc<PlacementScore>>) {
        self.scores.borrow_mut().insert(key, score);
    }

    /// The raw-demand row of performance level `u_bits` (an `f64` bit
    /// pattern), with one slot per application of the problem
    /// (`slots`). The row stays borrowed until the returned handle is
    /// dropped.
    pub(crate) fn demand_row(&self, u_bits: u64, slots: usize) -> DemandRow<'_> {
        DemandRow {
            slots: RefMut::map(self.demands.borrow_mut(), |rows| {
                rows.entry(u_bits)
                    .or_insert_with(|| vec![None; slots])
                    .as_mut_slice()
            }),
            hits: &self.demand_hits,
            misses: &self.demand_misses,
        }
    }

    /// The candidate-independent model of workload `slot` (of `slots`),
    /// derived on its first request. Not counted: it is derived once
    /// per slot, whatever the candidates.
    pub(crate) fn slot_model(
        &self,
        slot: usize,
        slots: usize,
        derive: impl FnOnce() -> SlotModel,
    ) -> SlotModel {
        let mut models = self.slot_models.borrow_mut();
        if models.len() < slots {
            models.resize(slots, None);
        }
        *models[slot].get_or_insert_with(derive)
    }

    /// The [`default_grid`], built on first use.
    pub(crate) fn grid(&self) -> &[f64] {
        self.grid.get_or_init(default_grid)
    }

    /// Appends to `out` the batch performances for a per-app allocation
    /// vector, computing and memoizing on miss.
    pub(crate) fn batch_eval(
        &self,
        key: BatchKey,
        compute: impl FnOnce() -> Vec<(AppId, Rp)>,
        out: &mut Vec<(AppId, Rp)>,
    ) {
        if let Some(perfs) = self.batch_evals.borrow().get(&key) {
            self.batch_hits.set(self.batch_hits.get() + 1);
            out.extend_from_slice(perfs);
            return;
        }
        self.batch_misses.set(self.batch_misses.get() + 1);
        let perfs = compute();
        out.extend_from_slice(&perfs);
        self.batch_evals.borrow_mut().insert(key, perfs);
    }

    /// Hypothetical column of `app`'s survivor snapshot under the
    /// allocation `omega_bits` (an `f64` bit pattern), building and
    /// memoizing on miss.
    pub(crate) fn job_column(
        &self,
        app: AppId,
        omega_bits: u64,
        build: impl FnOnce() -> Arc<JobColumn>,
    ) -> Arc<JobColumn> {
        let key = (app.index() as u32, omega_bits);
        if let Some(col) = self.columns.borrow().get(&key) {
            self.column_hits.set(self.column_hits.get() + 1);
            return Arc::clone(col);
        }
        self.column_misses.set(self.column_misses.get() + 1);
        let col = build();
        self.columns.borrow_mut().insert(key, Arc::clone(&col));
        col
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            score_hits: self.score_hits.get(),
            score_misses: self.score_misses.get(),
            demand_hits: self.demand_hits.get(),
            demand_misses: self.demand_misses.get(),
            batch_hits: self.batch_hits.get(),
            batch_misses: self.batch_misses.get(),
            column_hits: self.column_hits.get(),
            column_misses: self.column_misses.get(),
        }
    }
}

/// One level's row of the raw-demand memo (see [`ScoreCache::demand_row`]).
pub(crate) struct DemandRow<'c> {
    slots: RefMut<'c, [Option<f64>]>,
    hits: &'c Cell<u64>,
    misses: &'c Cell<u64>,
}

impl DemandRow<'_> {
    /// Raw (unclamped) demand of the application in `slot` at this
    /// row's level, computing and memoizing on miss.
    pub(crate) fn get_or_insert_with(&mut self, slot: usize, compute: impl FnOnce() -> f64) -> f64 {
        if let Some(d) = self.slots[slot] {
            self.hits.set(self.hits.get() + 1);
            return d;
        }
        self.misses.set(self.misses.get() + 1);
        let d = compute();
        self.slots[slot] = Some(d);
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaplace_model::ids::NodeId;

    #[test]
    fn placement_key_is_canonical() {
        let (a, b) = (AppId::new(3), AppId::new(1));
        let n = NodeId::new(0);
        let mut p1 = Placement::new();
        p1.place(a, n);
        p1.place(b, n);
        p1.place(b, n);
        // Same multiset of instances, different insertion order.
        let mut p2 = Placement::new();
        p2.place(b, n);
        p2.place(a, n);
        p2.place(b, n);
        assert_eq!(
            ScoreCache::placement_key(&p1),
            ScoreCache::placement_key(&p2)
        );
        assert_eq!(ScoreCache::placement_key(&p1), vec![(1, 0, 2), (3, 0, 1)]);
    }

    #[test]
    fn demand_memo_returns_exact_first_value_and_counts() {
        let cache = ScoreCache::new();
        let slot = 7;
        let bits = 0.5f64.to_bits();
        let first = cache
            .demand_row(bits, 8)
            .get_or_insert_with(slot, || 1234.5678);
        // A second computation is never invoked: the closure would panic.
        let second = cache
            .demand_row(bits, 8)
            .get_or_insert_with(slot, || unreachable!("memoized"));
        assert_eq!(first.to_bits(), second.to_bits());
        let stats = cache.stats();
        assert_eq!((stats.demand_hits, stats.demand_misses), (1, 1));
    }

    #[test]
    fn batch_memo_roundtrips() {
        let cache = ScoreCache::new();
        let key = vec![(0u32, 100.0f64.to_bits()), (1, 200.0f64.to_bits())];
        let out = vec![
            (AppId::new(0), Rp::new(0.25)),
            (AppId::new(1), Rp::new(-0.5)),
        ];
        let mut got = Vec::new();
        cache.batch_eval(key.clone(), || out.clone(), &mut got);
        assert_eq!(got, out);
        let mut again = Vec::new();
        cache.batch_eval(key, || unreachable!("memoized"), &mut again);
        assert_eq!(again, out);
    }
}
