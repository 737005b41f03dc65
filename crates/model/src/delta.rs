//! Placement deltas: the control actions that transform one placement into
//! another.
//!
//! The simulator maps these abstract actions onto virtualization
//! mechanisms: starting a not-yet-booted VM costs a boot, stopping an
//! unfinished job is a suspend, re-starting a suspended job is a resume,
//! and a migration is a live migration (§5 cost model).

use std::fmt;

use crate::ids::{AppId, NodeId};
use crate::placement::Placement;

/// One abstract control action produced by diffing two placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum PlacementAction {
    /// Start a new instance of `app` on `node`.
    Start { app: AppId, node: NodeId },
    /// Stop an instance of `app` on `node`.
    Stop { app: AppId, node: NodeId },
    /// Move an instance of `app` from one node to another.
    Migrate {
        app: AppId,
        from: NodeId,
        to: NodeId,
    },
}

impl PlacementAction {
    /// The application the action concerns.
    pub fn app(&self) -> AppId {
        match *self {
            PlacementAction::Start { app, .. }
            | PlacementAction::Stop { app, .. }
            | PlacementAction::Migrate { app, .. } => app,
        }
    }
}

impl fmt::Display for PlacementAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PlacementAction::Start { app, node } => write!(f, "start {app} on {node}"),
            PlacementAction::Stop { app, node } => write!(f, "stop {app} on {node}"),
            PlacementAction::Migrate { app, from, to } => {
                write!(f, "migrate {app} from {from} to {to}")
            }
        }
    }
}

/// Computes the actions transforming `from` into `to`.
///
/// For each application, per-node count decreases are matched with count
/// increases (in deterministic node order) and reported as migrations; any
/// surplus becomes stops or starts. The result is minimal in the sense
/// that it never stops and starts on the same node, and it pairs as many
/// stop/start pairs into migrations as possible.
pub fn diff_placements(from: &Placement, to: &Placement) -> Vec<PlacementAction> {
    use std::collections::BTreeMap;

    // Collect per-app node deltas.
    let mut deltas: BTreeMap<AppId, BTreeMap<NodeId, i64>> = BTreeMap::new();
    for (app, node, count) in from.iter() {
        *deltas.entry(app).or_default().entry(node).or_insert(0) -= i64::from(count);
    }
    for (app, node, count) in to.iter() {
        *deltas.entry(app).or_default().entry(node).or_insert(0) += i64::from(count);
    }

    let mut actions = Vec::new();
    for (app, nodes) in deltas {
        let mut decreases: Vec<(NodeId, i64)> = Vec::new();
        let mut increases: Vec<(NodeId, i64)> = Vec::new();
        for (node, delta) in nodes {
            if delta < 0 {
                decreases.push((node, -delta));
            } else if delta > 0 {
                increases.push((node, delta));
            }
        }
        let mut di = 0;
        let mut ii = 0;
        while di < decreases.len() && ii < increases.len() {
            let (from_node, ref mut avail) = decreases[di];
            let (to_node, ref mut need) = increases[ii];
            let moved = (*avail).min(*need);
            for _ in 0..moved {
                actions.push(PlacementAction::Migrate {
                    app,
                    from: from_node,
                    to: to_node,
                });
            }
            *avail -= moved;
            *need -= moved;
            if decreases[di].1 == 0 {
                di += 1;
            }
            if increases[ii].1 == 0 {
                ii += 1;
            }
        }
        for &(node, count) in &decreases[di..] {
            for _ in 0..count {
                actions.push(PlacementAction::Stop { app, node });
            }
        }
        for &(node, count) in &increases[ii..] {
            for _ in 0..count {
                actions.push(PlacementAction::Start { app, node });
            }
        }
    }
    actions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(i: u32) -> AppId {
        AppId::new(i)
    }
    fn node(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn identical_placements_no_actions() {
        let p: Placement = [(app(0), node(0), 1)].into_iter().collect();
        assert!(p.diff(&p).is_empty());
    }

    #[test]
    fn pure_start_and_stop() {
        let empty = Placement::new();
        let p: Placement = [(app(0), node(0), 1)].into_iter().collect();
        assert_eq!(
            empty.diff(&p),
            vec![PlacementAction::Start {
                app: app(0),
                node: node(0)
            }]
        );
        assert_eq!(
            p.diff(&empty),
            vec![PlacementAction::Stop {
                app: app(0),
                node: node(0)
            }]
        );
    }

    #[test]
    fn move_becomes_migration() {
        let a: Placement = [(app(0), node(0), 1)].into_iter().collect();
        let b: Placement = [(app(0), node(1), 1)].into_iter().collect();
        assert_eq!(
            a.diff(&b),
            vec![PlacementAction::Migrate {
                app: app(0),
                from: node(0),
                to: node(1)
            }]
        );
    }

    #[test]
    fn multi_instance_partial_move() {
        // 3 instances on node0 -> 1 on node0, 2 on node1: two migrations.
        let a: Placement = [(app(0), node(0), 3)].into_iter().collect();
        let b: Placement = [(app(0), node(0), 1), (app(0), node(1), 2)]
            .into_iter()
            .collect();
        let actions = a.diff(&b);
        assert_eq!(actions.len(), 2);
        assert!(actions.iter().all(|act| matches!(
            act,
            PlacementAction::Migrate { from, to, .. } if *from == node(0) && *to == node(1)
        )));
    }

    #[test]
    fn scale_down_is_stops() {
        let a: Placement = [(app(0), node(0), 2), (app(0), node(1), 1)]
            .into_iter()
            .collect();
        let b: Placement = [(app(0), node(0), 1)].into_iter().collect();
        let actions = a.diff(&b);
        assert_eq!(actions.len(), 2);
        assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, PlacementAction::Stop { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn mixed_apps_are_independent() {
        let a: Placement = [(app(0), node(0), 1), (app(1), node(1), 1)]
            .into_iter()
            .collect();
        let b: Placement = [(app(0), node(1), 1), (app(1), node(1), 1)]
            .into_iter()
            .collect();
        let actions = a.diff(&b);
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].app(), app(0));
    }

    #[test]
    fn applying_diff_reaches_target() {
        // Apply actions to `a` and verify we arrive at `b`.
        let a: Placement = [
            (app(0), node(0), 2),
            (app(1), node(1), 1),
            (app(2), node(2), 1),
        ]
        .into_iter()
        .collect();
        let b: Placement = [
            (app(0), node(1), 2),
            (app(1), node(1), 1),
            (app(3), node(0), 1),
        ]
        .into_iter()
        .collect();
        let mut current = a.clone();
        for action in a.diff(&b) {
            match action {
                PlacementAction::Start { app, node } => current.place(app, node),
                PlacementAction::Stop { app, node } => current.remove(app, node).unwrap(),
                PlacementAction::Migrate { app, from, to } => {
                    current.remove(app, from).unwrap();
                    current.place(app, to);
                }
            }
        }
        assert_eq!(current, b);
    }

    #[test]
    fn display_is_informative() {
        let action = PlacementAction::Migrate {
            app: app(1),
            from: node(0),
            to: node(2),
        };
        assert_eq!(action.to_string(), "migrate app1 from node0 to node2");
    }
}
