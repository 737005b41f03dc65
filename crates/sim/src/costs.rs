//! The virtualization control cost model (§5).
//!
//! The paper measured a popular Intel virtualization product and found
//! simple linear relationships between a VM's memory footprint and the
//! latency of each control operation:
//!
//! ```text
//! suspend = footprint × 0.0353 s/MB
//! resume  = footprint × 0.0333 s/MB
//! migrate = footprint × 0.0132 s/MB
//! boot    = 3.6 s
//! ```
//!
//! While an operation is in flight the affected instance makes no
//! progress.

use dynaplace_model::units::{Memory, SimDuration};

/// The kind of virtualization control operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmOperation {
    /// Cold-start a new VM.
    Boot,
    /// Serialize a running VM off its node.
    Suspend,
    /// Bring a suspended VM back onto a node.
    Resume,
    /// Live-migrate a running VM between nodes.
    Migrate,
}

impl VmOperation {
    /// Stable lowercase name, used by the decision trace.
    pub fn name(self) -> &'static str {
        match self {
            VmOperation::Boot => "boot",
            VmOperation::Suspend => "suspend",
            VmOperation::Resume => "resume",
            VmOperation::Migrate => "migrate",
        }
    }
}

/// Linear cost model for VM control operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmCostModel {
    /// Seconds per MB of footprint for a suspend.
    pub suspend_secs_per_mb: f64,
    /// Seconds per MB of footprint for a resume.
    pub resume_secs_per_mb: f64,
    /// Seconds per MB of footprint for a migration.
    pub migrate_secs_per_mb: f64,
    /// Flat boot latency.
    pub boot: SimDuration,
}

impl Default for VmCostModel {
    /// The constants measured in the paper.
    fn default() -> Self {
        Self {
            suspend_secs_per_mb: 0.0353,
            resume_secs_per_mb: 0.0333,
            migrate_secs_per_mb: 0.0132,
            boot: SimDuration::from_secs(3.6),
        }
    }
}

impl VmCostModel {
    /// A cost model where every operation is free (used to isolate
    /// algorithmic effects, as the paper does in Experiment Two).
    pub fn free() -> Self {
        Self {
            suspend_secs_per_mb: 0.0,
            resume_secs_per_mb: 0.0,
            migrate_secs_per_mb: 0.0,
            boot: SimDuration::ZERO,
        }
    }

    /// Latency of `op` for a VM with the given memory footprint.
    pub fn latency(&self, op: VmOperation, footprint: Memory) -> SimDuration {
        let mb = footprint.as_mb();
        match op {
            VmOperation::Boot => self.boot,
            VmOperation::Suspend => SimDuration::from_secs(mb * self.suspend_secs_per_mb),
            VmOperation::Resume => SimDuration::from_secs(mb * self.resume_secs_per_mb),
            VmOperation::Migrate => SimDuration::from_secs(mb * self.migrate_secs_per_mb),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let m = VmCostModel::default();
        let footprint = Memory::from_mb(1_000.0);
        assert!((m.latency(VmOperation::Suspend, footprint).as_secs() - 35.3).abs() < 1e-9);
        assert!((m.latency(VmOperation::Resume, footprint).as_secs() - 33.3).abs() < 1e-9);
        assert!((m.latency(VmOperation::Migrate, footprint).as_secs() - 13.2).abs() < 1e-9);
        assert_eq!(m.latency(VmOperation::Boot, footprint).as_secs(), 3.6);
    }

    #[test]
    fn boot_is_footprint_independent() {
        let m = VmCostModel::default();
        assert_eq!(
            m.latency(VmOperation::Boot, Memory::ZERO),
            m.latency(VmOperation::Boot, Memory::from_mb(1e6)),
        );
    }

    #[test]
    fn free_model_is_free() {
        let m = VmCostModel::free();
        for op in [
            VmOperation::Boot,
            VmOperation::Suspend,
            VmOperation::Resume,
            VmOperation::Migrate,
        ] {
            assert_eq!(m.latency(op, Memory::from_mb(4_320.0)), SimDuration::ZERO);
        }
    }
}
