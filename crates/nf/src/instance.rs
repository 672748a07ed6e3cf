//! Running VNF instances: identity, NF type and hosting switch.

use crate::catalog::{NfType, VnfSpec};
use std::fmt;

/// Identifier of a VNF instance, unique within an orchestration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vnf{}", self.0)
    }
}

/// One running VNF instance — a VM on an APPLE host.
///
/// # Example
///
/// ```
/// use apple_nf::{InstanceId, NfType, VnfInstance};
///
/// let inst = VnfInstance::new(InstanceId(1), NfType::Firewall, 0);
/// assert_eq!(inst.spec().cores, 4);
/// assert_eq!(inst.host_switch(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct VnfInstance {
    id: InstanceId,
    nf: NfType,
    spec: VnfSpec,
    /// Switch index this instance's APPLE host hangs off.
    host_switch: usize,
}

impl VnfInstance {
    /// Creates an instance of `nf` attached to `host_switch`.
    pub fn new(id: InstanceId, nf: NfType, host_switch: usize) -> VnfInstance {
        VnfInstance {
            id,
            nf,
            spec: VnfSpec::of(nf),
            host_switch,
        }
    }

    /// Instance id.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// NF type.
    pub fn nf(&self) -> NfType {
        self.nf
    }

    /// Data-sheet for this instance's NF type.
    pub fn spec(&self) -> &VnfSpec {
        &self.spec
    }

    /// The switch whose APPLE host runs this instance.
    pub fn host_switch(&self) -> usize {
        self.host_switch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_instance_keeps_its_identity() {
        let i = VnfInstance::new(InstanceId(1), NfType::Nat, 3);
        assert_eq!(i.id(), InstanceId(1));
        assert_eq!(i.host_switch(), 3);
        assert_eq!(i.nf(), NfType::Nat);
        assert_eq!(i.spec().cores, VnfSpec::of(NfType::Nat).cores);
    }

    #[test]
    fn display_id() {
        assert_eq!(InstanceId(42).to_string(), "vnf42");
    }
}
