//! Physical machine descriptors.

use std::fmt;

use crate::resources::Resources;
use crate::units::{CpuSpeed, Memory};

/// A capacity passed to a [`NodeSpec`] constructor was invalid.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NodeSpecError {
    /// The CPU capacity is negative (or NaN).
    InvalidCpu {
        /// The offending capacity in MHz.
        mhz: f64,
    },
    /// A rigid capacity (memory or an extra dimension) is negative
    /// (or NaN).
    InvalidRigid {
        /// The offending dimension index (0 = memory).
        dim: usize,
        /// The offending capacity.
        value: f64,
    },
}

impl fmt::Display for NodeSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeSpecError::InvalidCpu { mhz } => {
                write!(f, "cpu capacity must be non-negative, got {mhz} MHz")
            }
            NodeSpecError::InvalidRigid { dim, value } => write!(
                f,
                "rigid capacity in dimension {dim} must be non-negative, got {value}"
            ),
        }
    }
}

impl std::error::Error for NodeSpecError {}

/// Static description of a physical machine: its CPU capacity (the sum of
/// all its cores' speeds, in MHz — the fluid dimension the optimizer
/// water-fills) and its rigid capacities (memory, plus any extra
/// dimensions the deployment's
/// [`ResourceDims`](crate::resources::ResourceDims) declares).
///
/// The paper's Experiment One uses nodes with four 3.9 GHz processors and
/// 16 GB of RAM:
///
/// ```
/// use dynaplace_model::node::NodeSpec;
/// use dynaplace_model::units::{CpuSpeed, Memory};
///
/// let node = NodeSpec::try_new(CpuSpeed::from_mhz(4.0 * 3_900.0), Memory::from_mb(16_384.0))
///     .unwrap();
/// assert_eq!(node.cpu_capacity(), CpuSpeed::from_mhz(15_600.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    name: Option<String>,
    cpu: CpuSpeed,
    rigid: Resources,
}

impl NodeSpec {
    /// Creates a node with the given total CPU speed and memory capacity,
    /// rejecting negative capacities with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`NodeSpecError::InvalidCpu`] or
    /// [`NodeSpecError::InvalidRigid`] when a capacity is negative or NaN.
    pub fn try_new(cpu: CpuSpeed, memory: Memory) -> Result<Self, NodeSpecError> {
        Self::try_with_resources(cpu, Resources::memory_only(memory))
    }

    /// Creates a node with the given CPU capacity and full rigid
    /// capacity vector (dimension 0 = memory MB).
    ///
    /// # Errors
    ///
    /// Returns [`NodeSpecError::InvalidCpu`] or
    /// [`NodeSpecError::InvalidRigid`] when a capacity is negative or NaN.
    pub fn try_with_resources(cpu: CpuSpeed, rigid: Resources) -> Result<Self, NodeSpecError> {
        if cpu.as_mhz() < 0.0 || cpu.as_mhz().is_nan() {
            return Err(NodeSpecError::InvalidCpu { mhz: cpu.as_mhz() });
        }
        if let Some((dim, value)) = rigid.first_negative() {
            return Err(NodeSpecError::InvalidRigid { dim, value });
        }
        if let Some(dim) = rigid.values().iter().position(|v| v.is_nan()) {
            return Err(NodeSpecError::InvalidRigid {
                dim,
                value: f64::NAN,
            });
        }
        Ok(Self {
            name: None,
            cpu,
            rigid,
        })
    }

    /// Attaches a human-readable name (used only in diagnostics).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Total CPU speed of the node.
    #[inline]
    pub fn cpu_capacity(&self) -> CpuSpeed {
        self.cpu
    }

    /// Total memory of the node (rigid dimension 0).
    #[inline]
    pub fn memory_capacity(&self) -> Memory {
        self.rigid.memory()
    }

    /// The full rigid capacity vector.
    #[inline]
    pub fn rigid_capacity(&self) -> &Resources {
        &self.rigid
    }

    /// The diagnostic name, if one was set.
    #[inline]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(n) => write!(f, "{n} ({}, {})", self.cpu, self.rigid.memory()),
            None => write!(f, "node ({}, {})", self.cpu, self.rigid.memory()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructs_and_reads_back() {
        let n = NodeSpec::try_new(CpuSpeed::from_mhz(1_000.0), Memory::from_mb(2_000.0))
            .unwrap()
            .with_name("example");
        assert_eq!(n.cpu_capacity(), CpuSpeed::from_mhz(1_000.0));
        assert_eq!(n.memory_capacity(), Memory::from_mb(2_000.0));
        assert_eq!(n.name(), Some("example"));
        assert!(n.to_string().contains("example"));
    }

    #[test]
    fn try_new_reports_typed_errors() {
        assert_eq!(
            NodeSpec::try_new(CpuSpeed::from_mhz(-1.0), Memory::ZERO),
            Err(NodeSpecError::InvalidCpu { mhz: -1.0 })
        );
        assert_eq!(
            NodeSpec::try_new(CpuSpeed::ZERO, Memory::from_mb(-5.0)),
            Err(NodeSpecError::InvalidRigid {
                dim: 0,
                value: -5.0
            })
        );
        assert!(NodeSpec::try_new(CpuSpeed::ZERO, Memory::ZERO).is_ok());
    }

    #[test]
    fn multi_dimensional_capacities_read_back() {
        let n = NodeSpec::try_with_resources(
            CpuSpeed::from_mhz(1_000.0),
            Resources::new(vec![2_000.0, 500.0, 2.0]),
        )
        .unwrap();
        assert_eq!(n.memory_capacity(), Memory::from_mb(2_000.0));
        assert_eq!(n.rigid_capacity().get(1), 500.0);
        assert_eq!(n.rigid_capacity().get(2), 2.0);
        assert_eq!(n.rigid_capacity().get(9), 0.0);
    }

    #[test]
    fn negative_extra_dimension_rejected() {
        let err = NodeSpec::try_with_resources(CpuSpeed::ZERO, Resources::new(vec![100.0, -1.0]))
            .unwrap_err();
        assert_eq!(
            err,
            NodeSpecError::InvalidRigid {
                dim: 1,
                value: -1.0
            }
        );
    }

    #[test]
    fn nan_rigid_capacity_rejected() {
        // (A NaN CpuSpeed cannot even be constructed — `from_mhz`
        // asserts finiteness — so only the raw rigid vector needs the
        // NaN guard here.)
        assert!(matches!(
            NodeSpec::try_with_resources(CpuSpeed::ZERO, Resources::new(vec![0.0, f64::NAN])),
            Err(NodeSpecError::InvalidRigid { dim: 1, .. })
        ));
    }
}
