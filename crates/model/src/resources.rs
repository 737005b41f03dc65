//! N-dimensional rigid resource vectors.
//!
//! The paper's placement model allocates one *fluid* resource — CPU,
//! water-filled by the optimizer — under one *rigid* capacity
//! constraint, memory. This module generalizes the rigid side to an
//! extensible ordered set of dimensions (memory plus scenario-declared
//! dimensions such as disk, network bandwidth, or license slots) while
//! leaving the fluid CPU dimension exactly as the paper defines it.
//!
//! Two types carry the generalization:
//!
//! - [`ResourceDims`]: the ordered registry of rigid dimension names.
//!   Dimension `0` is always memory ([`ResourceDims::MEMORY`]); further
//!   dimensions are declared per deployment (typically by the scenario
//!   file) and identified by name.
//! - [`Resources`]: a quantity vector aligned with a [`ResourceDims`].
//!   Vectors shorter than the registry are *zero-extended*: an
//!   application that never declared a `license_slots` demand simply
//!   demands `0.0` of it, and a node that never declared `disk_mb`
//!   supplies none.
//!
//! # Equivalence contract
//!
//! For the memory-only case (`ResourceDims::memory_only()`), every
//! capacity check performed through [`Resources`] executes the same
//! floating-point operations in the same order as the pre-vector code
//! that compared [`Memory`] values directly, so placements and scores
//! are bit-for-bit identical. The `resource_differential` suite in
//! `crates/core` enforces this with `f64::to_bits` comparisons.

use std::fmt;

use crate::units::Memory;

/// Error constructing a [`ResourceDims`] registry.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResourceError {
    /// A dimension name appears twice (or shadows the implicit memory
    /// dimension).
    DuplicateDimension(String),
    /// A dimension name is empty.
    EmptyDimensionName,
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::DuplicateDimension(name) => {
                write!(f, "duplicate resource dimension {name:?}")
            }
            ResourceError::EmptyDimensionName => f.write_str("resource dimension name is empty"),
        }
    }
}

impl std::error::Error for ResourceError {}

/// The ordered registry of rigid resource dimensions.
///
/// Dimension `0` is always memory (named `"memory_mb"`), matching the
/// paper's single rigid constraint; extra dimensions keep the order they
/// were declared in. Registries are equal iff their name lists are
/// equal, so two components agree on what a [`Resources`] vector means
/// exactly when their registries compare equal.
///
/// ```
/// use dynaplace_model::resources::ResourceDims;
///
/// let dims = ResourceDims::with_extra(["disk_mb", "license_slots"]).unwrap();
/// assert_eq!(dims.len(), 3);
/// assert_eq!(dims.name(ResourceDims::MEMORY), "memory_mb");
/// assert_eq!(dims.index_of("license_slots"), Some(2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceDims {
    names: Vec<String>,
}

impl ResourceDims {
    /// Index of the implicit memory dimension.
    pub const MEMORY: usize = 0;

    /// Name of the implicit memory dimension.
    pub const MEMORY_NAME: &'static str = "memory_mb";

    /// The paper's registry: memory is the only rigid dimension.
    pub fn memory_only() -> Self {
        Self {
            names: vec![Self::MEMORY_NAME.to_string()],
        }
    }

    /// A registry of memory plus the given extra dimensions, in order.
    ///
    /// # Errors
    ///
    /// Returns [`ResourceError::DuplicateDimension`] if a name repeats
    /// (or restates `"memory_mb"`), [`ResourceError::EmptyDimensionName`]
    /// if a name is empty.
    pub fn with_extra<I, S>(extra: I) -> Result<Self, ResourceError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut names = vec![Self::MEMORY_NAME.to_string()];
        for name in extra {
            let name = name.into();
            if name.is_empty() {
                return Err(ResourceError::EmptyDimensionName);
            }
            if names.contains(&name) {
                return Err(ResourceError::DuplicateDimension(name));
            }
            names.push(name);
        }
        Ok(Self { names })
    }

    /// Number of rigid dimensions (always ≥ 1).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the registry is empty. Never true — memory is implicit —
    /// but provided for the conventional `len`/`is_empty` pair.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Whether memory is the only dimension (the paper's model).
    pub fn is_memory_only(&self) -> bool {
        self.names.len() == 1
    }

    /// The name of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn name(&self, dim: usize) -> &str {
        &self.names[dim]
    }

    /// The index of the dimension named `name`, if declared.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Iterates over `(dim, name)` pairs in dimension order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (i, n.as_str()))
    }

    /// The extra dimension names beyond memory, in declaration order.
    pub fn extra(&self) -> &[String] {
        &self.names[1..]
    }
}

impl Default for ResourceDims {
    fn default() -> Self {
        Self::memory_only()
    }
}

impl fmt::Display for ResourceDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.names.join(", "))
    }
}

/// A rigid resource quantity vector.
///
/// Index `0` is memory in MB; further indices follow the deployment's
/// [`ResourceDims`]. Reads beyond the stored length yield `0.0`
/// (zero-extension), so memory-only specs participate in
/// multi-dimensional checks without conversion.
///
/// ```
/// use dynaplace_model::resources::Resources;
/// use dynaplace_model::units::Memory;
///
/// let demand = Resources::new(vec![512.0, 100.0]); // memory + one extra
/// assert_eq!(demand.memory(), Memory::from_mb(512.0));
/// assert_eq!(demand.get(1), 100.0);
/// assert_eq!(demand.get(7), 0.0); // zero-extended
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Resources {
    values: Vec<f64>,
}

impl Resources {
    /// A vector with every stored dimension zero (memory only).
    pub fn zero() -> Self {
        Self { values: vec![0.0] }
    }

    /// A memory-only vector — the paper's rigid demand.
    pub fn memory_only(memory: Memory) -> Self {
        Self {
            values: vec![memory.as_mb()],
        }
    }

    /// A vector from explicit per-dimension values (index 0 = memory MB).
    ///
    /// An empty vector is normalized to a single zero memory dimension.
    pub fn new(mut values: Vec<f64>) -> Self {
        if values.is_empty() {
            values.push(0.0);
        }
        Self { values }
    }

    /// The memory dimension as a typed quantity.
    pub fn memory(&self) -> Memory {
        Memory::from_mb(self.values[ResourceDims::MEMORY])
    }

    /// The quantity in dimension `dim`; `0.0` beyond the stored length.
    #[inline]
    pub fn get(&self, dim: usize) -> f64 {
        self.values.get(dim).copied().unwrap_or(0.0)
    }

    /// Number of stored dimensions (always ≥ 1).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no dimensions are stored. Never true after construction.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The stored per-dimension values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whether every stored quantity is non-negative; on failure, the
    /// first offending dimension.
    pub fn first_negative(&self) -> Option<(usize, f64)> {
        self.values
            .iter()
            .enumerate()
            .find(|(_, v)| **v < 0.0)
            .map(|(d, v)| (d, *v))
    }

    /// Whether every stored quantity is finite.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }

    /// Adds `count` instances' worth of `demand` to this accumulator,
    /// extending the stored length as needed. Dimension 0 performs
    /// exactly the `used += memory * count` accumulation of the
    /// memory-only model.
    pub fn add_scaled(&mut self, demand: &Resources, count: f64) {
        if demand.values.len() > self.values.len() {
            self.values.resize(demand.values.len(), 0.0);
        }
        for (d, v) in demand.values.iter().enumerate() {
            self.values[d] += v * count;
        }
    }

    /// Checks `self + demand` against `capacity` dimension by dimension
    /// (all three zero-extended), returning the first dimension that
    /// would overflow. Dimension 0 performs exactly the
    /// `used + demand > capacity` memory comparison of the memory-only
    /// model.
    pub fn first_overflow(&self, demand: &Resources, capacity: &Resources) -> Option<usize> {
        let dims = self
            .values
            .len()
            .max(demand.values.len())
            .max(capacity.values.len());
        (0..dims).find(|&d| self.get(d) + demand.get(d) > capacity.get(d))
    }

    /// Checks `self` against `capacity` dimension by dimension (both
    /// zero-extended), returning the first exceeded dimension.
    pub fn first_exceeding(&self, capacity: &Resources) -> Option<usize> {
        let dims = self.values.len().max(capacity.values.len());
        (0..dims).find(|&d| self.get(d) > capacity.get(d))
    }

    /// The element-wise remaining capacity `self − used`, clamped at
    /// zero, with `self`'s stored length.
    #[must_use]
    pub fn saturating_sub(&self, used: &Resources) -> Resources {
        Resources {
            values: self
                .values
                .iter()
                .enumerate()
                .map(|(d, v)| (v - used.get(d)).max(0.0))
                .collect(),
        }
    }

    /// The element-wise maximum of `self` and `other`, with the longer
    /// stored length.
    #[must_use]
    pub fn max(&self, other: &Resources) -> Resources {
        let dims = self.values.len().max(other.values.len());
        Resources {
            values: (0..dims).map(|d| self.get(d).max(other.get(d))).collect(),
        }
    }

    /// Iterates over stored `(dim, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values.iter().copied().enumerate()
    }
}

impl Default for Resources {
    fn default() -> Self {
        Self::zero()
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("[")?;
        for (d, v) in self.values.iter().enumerate() {
            if d > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str("]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_is_dimension_zero() {
        let dims = ResourceDims::memory_only();
        assert_eq!(dims.len(), 1);
        assert!(dims.is_memory_only());
        assert_eq!(dims.name(ResourceDims::MEMORY), "memory_mb");
        assert_eq!(dims.index_of("memory_mb"), Some(0));
        assert!(dims.extra().is_empty());
    }

    #[test]
    fn extra_dimensions_keep_declaration_order() {
        let dims = ResourceDims::with_extra(["disk_mb", "net_mbps", "license_slots"]).unwrap();
        assert_eq!(dims.len(), 4);
        assert!(!dims.is_memory_only());
        assert_eq!(dims.name(2), "net_mbps");
        assert_eq!(dims.index_of("license_slots"), Some(3));
        assert_eq!(dims.extra(), &["disk_mb", "net_mbps", "license_slots"]);
    }

    #[test]
    fn duplicate_and_empty_names_rejected() {
        assert_eq!(
            ResourceDims::with_extra(["disk_mb", "disk_mb"]),
            Err(ResourceError::DuplicateDimension("disk_mb".to_string()))
        );
        assert_eq!(
            ResourceDims::with_extra(["memory_mb"]),
            Err(ResourceError::DuplicateDimension("memory_mb".to_string()))
        );
        assert_eq!(
            ResourceDims::with_extra([""]),
            Err(ResourceError::EmptyDimensionName)
        );
    }

    #[test]
    fn zero_extension_reads_zero() {
        let r = Resources::memory_only(Memory::from_mb(100.0));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0), 100.0);
        assert_eq!(r.get(3), 0.0);
    }

    #[test]
    fn add_scaled_matches_memory_arithmetic() {
        // The vector accumulation must produce the exact bits of the
        // scalar `used += mem * count` sequence it replaces.
        let demands = [750.1, 333.33, 0.25];
        let counts = [2.0, 1.0, 3.0];
        let mut scalar = 0.0f64;
        let mut vector = Resources::new(vec![0.0]);
        for (m, c) in demands.iter().zip(counts.iter()) {
            scalar += m * c;
            vector.add_scaled(&Resources::new(vec![*m]), *c);
        }
        assert_eq!(scalar.to_bits(), vector.get(0).to_bits());
    }

    #[test]
    fn first_overflow_finds_binding_dimension() {
        let used = Resources::new(vec![500.0, 10.0]);
        let demand = Resources::new(vec![100.0, 0.0, 2.0]);
        let cap = Resources::new(vec![1_000.0, 10.0, 1.0]);
        // Memory fits (600 ≤ 1000), dim 1 fits exactly (10 ≤ 10), dim 2
        // overflows (2 > 1).
        assert_eq!(used.first_overflow(&demand, &cap), Some(2));
        let slack_cap = Resources::new(vec![1_000.0, 10.0, 2.0]);
        assert_eq!(used.first_overflow(&demand, &slack_cap), None);
    }

    #[test]
    fn saturating_sub_and_max() {
        let cap = Resources::new(vec![1_000.0, 50.0]);
        let used = Resources::new(vec![400.0, 80.0, 3.0]);
        let free = cap.saturating_sub(&used);
        assert_eq!(free.values(), &[600.0, 0.0]);
        let m = used.max(&cap);
        assert_eq!(m.values(), &[1_000.0, 80.0, 3.0]);
    }

    #[test]
    fn negativity_and_finiteness_checks() {
        assert_eq!(
            Resources::new(vec![1.0, -2.0]).first_negative(),
            Some((1, -2.0))
        );
        assert_eq!(Resources::new(vec![1.0, 2.0]).first_negative(), None);
        assert!(!Resources::new(vec![f64::NAN]).all_finite());
        assert!(Resources::new(vec![0.0, 5.0]).all_finite());
    }

    #[test]
    fn empty_vector_normalizes_to_zero_memory() {
        let r = Resources::new(Vec::new());
        assert_eq!(r.len(), 1);
        assert_eq!(r.memory(), Memory::ZERO);
    }
}
