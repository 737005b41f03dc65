//! The discrete-event queue.
//!
//! The control plane is driven by a typed [`SimEvent`] stream drained
//! from a deterministic priority queue. Ordering is by
//! `(time, class, seq)`:
//!
//! - `time` — earliest first (total order over finite `f64` seconds);
//! - `class` — at equal times, job arrivals fire before every other
//!   event kind. In lock-step runs this is a no-op (all arrivals are
//!   scheduled before the control-cycle chain starts, so their `seq`s
//!   are already globally smallest); in streaming runs it restores the
//!   same arrival-before-cycle semantics for arrivals injected lazily
//!   from a [`crate::source::WorkloadSource`];
//! - `seq` — the insertion sequence, a deterministic tie-break that
//!   makes same-instant, same-class events fire in scheduling order
//!   regardless of heap internals or run count.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::units::SimTime;

/// What happens at an event.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum SimEvent {
    /// A job is submitted (index into the scenario's job list).
    JobArrival(AppId),
    /// A running job is projected to finish. Stale completions are
    /// filtered with the generation counter: the event only fires if the
    /// job's allocation has not changed since it was scheduled.
    JobCompletion { app: AppId, generation: u64 },
    /// A periodic control cycle of the placement controller (also used
    /// as the metric sampling tick for the baseline schedulers).
    ControlCycle,
    /// A node fails: its capacity drops to zero and every instance on it
    /// is evicted. Permanent unless a matching [`SimEvent::NodeRecovery`]
    /// is scheduled.
    NodeFailure(NodeId),
    /// A transiently failed node recovers: its capacity is restored and
    /// the scheduler re-places work onto it through the normal optimizer
    /// path.
    NodeRecovery(NodeId),
    /// A failed actuation's backoff (or quarantine) window elapsed: run a
    /// reconciliation pass over the desired-vs-actual diff.
    ActuationRetry,
    /// End of the simulation horizon.
    Horizon,
}

/// Backwards-compatible alias for the pre-refactor name.
pub type EventKind = SimEvent;

impl SimEvent {
    /// The same-instant ordering class: arrivals (0) fire before all
    /// other event kinds (1) at an equal timestamp. See the module docs
    /// for why this preserves lock-step ordering bit-for-bit.
    fn class(&self) -> u8 {
        match self {
            SimEvent::JobArrival(_) => 0,
            _ => 1,
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    time: SimTime,
    class: u8,
    seq: u64,
    kind: SimEvent,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.class == other.class && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first, with the
        // event class and insertion sequence as deterministic
        // tie-breaks.
        other
            .time
            .as_secs()
            .total_cmp(&self.time.as_secs())
            .then_with(|| other.class.cmp(&self.class))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic earliest-first event queue.
///
/// Events at the same instant fire arrivals-first, then in insertion
/// order.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: SimEvent) {
        let seq = self.seq;
        self.seq += 1;
        let class = kind.class();
        self.heap.push(Entry {
            time,
            class,
            seq,
            kind,
        });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, SimEvent)> {
        self.heap.pop().map(|e| (e.time, e.kind))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(5.0), SimEvent::ControlCycle);
        q.push(t(1.0), SimEvent::Horizon);
        q.push(t(3.0), SimEvent::JobArrival(AppId::new(0)));
        assert_eq!(q.pop().unwrap().0, t(1.0));
        assert_eq!(q.pop().unwrap().0, t(3.0));
        assert_eq!(q.pop().unwrap().0, t(5.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_time_fires_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(t(2.0), SimEvent::JobArrival(AppId::new(1)));
        q.push(t(2.0), SimEvent::JobArrival(AppId::new(2)));
        q.push(t(2.0), SimEvent::ControlCycle);
        assert_eq!(q.pop().unwrap().1, SimEvent::JobArrival(AppId::new(1)));
        assert_eq!(q.pop().unwrap().1, SimEvent::JobArrival(AppId::new(2)));
        assert_eq!(q.pop().unwrap().1, SimEvent::ControlCycle);
    }

    #[test]
    fn same_time_arrivals_fire_before_other_classes() {
        // A late-scheduled arrival (high seq — as happens when a
        // streaming source injects it lazily) still fires before
        // same-instant non-arrival events.
        let mut q = EventQueue::new();
        q.push(t(7.0), SimEvent::ControlCycle);
        q.push(t(7.0), SimEvent::NodeFailure(NodeId::new(3)));
        q.push(t(7.0), SimEvent::JobArrival(AppId::new(9)));
        assert_eq!(q.pop().unwrap().1, SimEvent::JobArrival(AppId::new(9)));
        assert_eq!(q.pop().unwrap().1, SimEvent::ControlCycle);
        assert_eq!(q.pop().unwrap().1, SimEvent::NodeFailure(NodeId::new(3)));
    }

    #[test]
    fn same_timestamp_completion_and_failure_resolve_deterministically() {
        // Satellite: a completion and a node failure in the same
        // instant must resolve identically across runs via the
        // `(time, class, seq)` tie-break — insertion order wins within
        // a class, independent of heap internals.
        let drain = |flip: bool| -> Vec<SimEvent> {
            let mut q = EventQueue::new();
            // Unrelated padding at other times to shuffle heap shape.
            q.push(t(1.0), SimEvent::ControlCycle);
            q.push(t(9.0), SimEvent::Horizon);
            if flip {
                // Same scheduling order for the contested pair in both
                // runs; only the surrounding pushes differ.
                q.push(t(4.0), SimEvent::ActuationRetry);
            }
            q.push(
                t(5.0),
                SimEvent::JobCompletion {
                    app: AppId::new(2),
                    generation: 1,
                },
            );
            q.push(t(5.0), SimEvent::NodeFailure(NodeId::new(0)));
            if !flip {
                q.push(t(4.0), SimEvent::ActuationRetry);
            }
            let mut out = Vec::new();
            while let Some((_, kind)) = q.pop() {
                out.push(kind);
            }
            out
        };
        let a = drain(false);
        let b = drain(true);
        assert_eq!(a, b);
        // And the contested pair fired in insertion order.
        let at5: Vec<&SimEvent> = a
            .iter()
            .filter(|k| matches!(k, SimEvent::JobCompletion { .. } | SimEvent::NodeFailure(_)))
            .collect();
        assert_eq!(
            at5[0],
            &SimEvent::JobCompletion {
                app: AppId::new(2),
                generation: 1
            }
        );
        assert_eq!(at5[1], &SimEvent::NodeFailure(NodeId::new(0)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(t(4.0), SimEvent::Horizon);
        q.push(t(2.0), SimEvent::ControlCycle);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.len(), 2);
    }
}
