//! The decision trace's `&'static str` fields (`op`, `outcome`,
//! `reason`, `mode`) decode only words from fixed tables in the trace
//! crate. These tests tie those tables to the words the engine writes:
//! every word the engine can emit must round-trip through
//! `TraceEvent::from_json`.

use dynaplace_json::{FromJson, ToJson};
use dynaplace_model::ids::{AppId, NodeId};
use dynaplace_model::units::SimDuration;
use dynaplace_sim::{DegradedMode, OpOutcome, TraceEvent, VmOperation};

fn round_trips(event: TraceEvent) {
    let json = event.to_json();
    let back = TraceEvent::from_json(&json)
        .unwrap_or_else(|e| panic!("{} does not decode: {e}", json.compact()));
    assert_eq!(back, event);
}

fn resolved(op: &'static str, outcome: &'static str) -> TraceEvent {
    TraceEvent::OpResolved {
        time: 300.0,
        cycle: 1,
        app: AppId::new(0),
        node: NodeId::new(1),
        op,
        attempt: 1,
        outcome,
        latency_secs: 2.5,
    }
}

#[test]
fn every_vm_operation_decodes() {
    let ops = [
        VmOperation::Boot,
        VmOperation::Suspend,
        VmOperation::Resume,
        VmOperation::Migrate,
    ];
    for op in ops {
        // A new operation fails to compile here until it joins `ops`.
        match op {
            VmOperation::Boot
            | VmOperation::Suspend
            | VmOperation::Resume
            | VmOperation::Migrate => {}
        }
        round_trips(resolved(op.name(), "applied"));
    }
}

#[test]
fn every_op_outcome_decodes() {
    let latency = SimDuration::from_secs(1.0);
    let outcomes = [
        OpOutcome::Applied(latency),
        OpOutcome::Failed(latency),
        OpOutcome::TimedOut(latency),
    ];
    for outcome in outcomes {
        match outcome {
            OpOutcome::Applied(_) | OpOutcome::Failed(_) | OpOutcome::TimedOut(_) => {}
        }
        round_trips(resolved("boot", outcome.name()));
    }
}

#[test]
fn every_degraded_mode_decodes() {
    for mode in [DegradedMode::Hold, DegradedMode::FillOnly] {
        match mode {
            DegradedMode::Hold | DegradedMode::FillOnly => {}
        }
        round_trips(TraceEvent::StaleHold {
            time: 600.0,
            cycle: 2,
            age_cycles: 3,
            budget: 1,
            mode: mode.name(),
        });
    }
}

/// The deferral reasons are literals at their emit sites in the engine
/// sources, so they are read from there: a new literal must decode too.
#[test]
fn every_deferral_reason_the_engine_writes_decodes() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/src/engine");
    let mut reasons = Vec::new();
    for entry in std::fs::read_dir(dir).expect("engine sources") {
        let source = std::fs::read_to_string(entry.expect("directory entry").path())
            .expect("readable source");
        for (at, key) in source.match_indices("reason: \"") {
            let rest = &source[at + key.len()..];
            reasons.push(rest[..rest.find('"').expect("closing quote")].to_string());
        }
    }
    reasons.sort();
    reasons.dedup();
    assert_eq!(reasons, ["backoff", "rollback"]);
    for reason in reasons {
        round_trips(TraceEvent::OpDeferred {
            time: 310.0,
            cycle: 1,
            app: AppId::new(4),
            node: NodeId::new(0),
            reason: Box::leak(reason.into_boxed_str()),
        });
    }
}
