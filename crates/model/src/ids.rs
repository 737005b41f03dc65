//! Identifier newtypes for nodes and applications.

use std::fmt;

use dynaplace_json::{FromJson, Json, JsonError, ToJson};

/// JSON form of an id: its dense index as a bare number. Decoding
/// rejects anything a `u32` cannot hold, naming the id kind.
macro_rules! json_id {
    ($name:ident, $kind:literal) => {
        impl ToJson for $name {
            fn to_json(&self) -> Json {
                self.0.to_json()
            }
        }

        impl FromJson for $name {
            fn from_json(v: &Json) -> dynaplace_json::Result<Self> {
                u32::from_json(v)
                    .map(Self)
                    .map_err(|e| JsonError::new(format!(concat!($kind, " id {}"), e.message)))
            }
        }
    };
}

/// Identifier of a physical machine ("node" in the paper's terminology).
///
/// Node ids are dense indices assigned by [`crate::cluster::Cluster`] in
/// registration order, which keeps every per-node table a plain `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

json_id!(NodeId, "node");

impl Ord for NodeId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for NodeId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl NodeId {
    /// Creates a node id from a dense index.
    #[inline]
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of an application.
///
/// Both transactional applications and batch jobs are "applications" from
/// the placement controller's point of view (§3.2 of the paper); the id
/// space is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AppId(u32);

json_id!(AppId, "app");

impl Ord for AppId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for AppId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl AppId {
    /// Creates an application id from a dense index.
    #[inline]
    pub fn new(index: u32) -> Self {
        Self(index)
    }

    /// The dense index of this application.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_and_order() {
        let a = NodeId::new(3);
        assert_eq!(a.index(), 3);
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(AppId::new(7).index(), 7);
        assert!(AppId::new(0) < AppId::new(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId::new(4).to_string(), "node4");
        assert_eq!(AppId::new(9).to_string(), "app9");
    }
}
