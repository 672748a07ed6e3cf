//! Physical switches and vSwitches with the Table III / §V-B semantics.

use crate::packet::{HostTag, Packet};
use crate::tcam::{Action, TcamRule, TcamTable};
use apple_nf::InstanceId;
use std::fmt;

/// What a physical switch decides to do with a packet after running its
/// APPLE table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchVerdict {
    /// Hand the packet to the APPLE host attached to this switch.
    ToHost,
    /// Continue with normal forwarding (next table = routing rules that
    /// APPLE never modifies).
    Forward,
    /// No rule matched — the table is mis-programmed.
    NoMatch,
}

/// A physical SDN switch: the APPLE flow table plus an attached-host flag.
///
/// The switch's pipeline follows Fig. 2: check host-ID tag; classify fresh
/// packets at their ingress switch; otherwise pass through to routing.
#[derive(Debug, Clone, Default)]
pub struct PhysicalSwitch {
    /// Switch index (matches `NodeId` in the topology).
    pub id: usize,
    /// The APPLE table (Table III layout). Routing lives in the "next
    /// table", which the walker models as path-following.
    pub apple_table: TcamTable,
    /// Whether an APPLE host (with a vSwitch) hangs off this switch.
    pub has_host: bool,
}

impl PhysicalSwitch {
    /// Creates a switch with an empty APPLE table.
    pub fn new(id: usize, has_host: bool) -> PhysicalSwitch {
        PhysicalSwitch {
            id,
            apple_table: TcamTable::new(),
            has_host,
        }
    }

    /// Runs the APPLE table on the packet, applying tag actions in place,
    /// and returns the forwarding verdict.
    pub fn process(&self, p: &mut Packet) -> SwitchVerdict {
        let Some(rule) = self.apple_table.lookup(p) else {
            return SwitchVerdict::NoMatch;
        };
        apply_actions(&rule.actions, p)
    }
}

/// Applies a matched APPLE rule's action list to a packet and returns the
/// forwarding verdict. Shared between the linear table scan
/// ([`PhysicalSwitch::process`]) and the compiled fast path
/// ([`crate::fastpath::CompiledProgram`]) so the two engines cannot drift
/// in action semantics: `ForwardToHost` decides the verdict and a later
/// `GotoNextTable` cannot override it, exactly as in Table III's pipeline.
pub fn apply_actions(actions: &[Action], p: &mut Packet) -> SwitchVerdict {
    let mut verdict = SwitchVerdict::Forward;
    let mut decided = false;
    for action in actions {
        match *action {
            Action::SetSubclassTag(t) => p.subclass_tag = Some(t),
            Action::SetHostTag(t) => p.host_tag = t,
            Action::ForwardToHost => {
                verdict = SwitchVerdict::ToHost;
                decided = true;
            }
            Action::GotoNextTable => {
                if !decided {
                    verdict = SwitchVerdict::Forward;
                }
            }
        }
    }
    verdict
}

/// Applies one matched vSwitch rule's tag writes to a packet and returns
/// its verdict. Shared between the linear first-match scan
/// ([`VSwitch::process`]) and the compiled fast path, for the same
/// anti-drift reason as [`apply_actions`].
pub fn apply_vswitch_rule(r: &VSwitchRule, p: &mut Packet) -> VSwitchVerdict {
    if let Some(t) = r.set_host_tag {
        p.host_tag = t;
    }
    if let Some(t) = r.set_subclass_tag {
        p.subclass_tag = Some(t);
    }
    r.verdict
}

/// Where a vSwitch sends a packet next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VSwitchVerdict {
    /// Deliver to a VNF instance on this host.
    ToVnf(InstanceId),
    /// Send back out to the physical network.
    ToNetwork,
    /// No rule matched.
    NoMatch,
}

/// Logical ingress port of a packet inside an APPLE host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VPort {
    /// Arrived from the physical network.
    Network,
    /// Arrived back from a VNF instance.
    FromVnf(InstanceId),
    /// Originated at a production VM in this host (untagged).
    ProductionVm,
}

/// A vSwitch rule: match on `<IncomePort, class, sub-class>` (§V-B).
///
/// Class membership is expressed through the packet-header `spec`; the
/// sub-class through the tag. `IncomePort` identifies which instances the
/// packet has already traversed.
#[derive(Debug, Clone, PartialEq)]
pub struct VSwitchRule {
    /// Required ingress port.
    pub in_port: VPort,
    /// Header match identifying the class.
    pub spec: crate::tcam::MatchSpec,
    /// Required sub-class tag (`None` = wildcard, for production-VM rules).
    pub subclass: Option<u16>,
    /// Tag writes applied on match (e.g. set next host ID on exit).
    pub set_host_tag: Option<HostTag>,
    /// Tag the sub-class (for packets originating at production VMs).
    pub set_subclass_tag: Option<u16>,
    /// Where the packet goes.
    pub verdict: VSwitchVerdict,
    /// Diagnostic label.
    pub label: String,
}

/// The Open vSwitch inside an APPLE host.
#[derive(Debug, Clone, Default)]
pub struct VSwitch {
    /// Switch this host hangs off.
    pub attached_to: usize,
    rules: Vec<VSwitchRule>,
}

impl VSwitch {
    /// Creates an empty vSwitch attached to physical switch `attached_to`.
    pub fn new(attached_to: usize) -> VSwitch {
        VSwitch {
            attached_to,
            rules: Vec::new(),
        }
    }

    /// Installs a rule (first-match-wins in installation order).
    pub fn install(&mut self, rule: VSwitchRule) {
        self.rules.push(rule);
    }

    /// Runs the vSwitch on a packet arriving at `port`, applying tag
    /// actions, and returns the verdict.
    pub fn process(&self, port: VPort, p: &mut Packet) -> VSwitchVerdict {
        for r in &self.rules {
            let port_ok = r.in_port == port;
            let subclass_ok = r.subclass.is_none_or(|s| p.subclass_tag == Some(s));
            if port_ok && subclass_ok && r.spec.matches(p) {
                return apply_vswitch_rule(r, p);
            }
        }
        VSwitchVerdict::NoMatch
    }

    /// Number of rules (vSwitch rules live in host memory, not TCAM, but
    /// the count is still useful in diagnostics).
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Iterates over the rules.
    pub fn iter(&self) -> std::slice::Iter<'_, VSwitchRule> {
        self.rules.iter()
    }

    /// Removes all rules matching the predicate; returns how many.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&VSwitchRule) -> bool) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| !pred(r));
        before - self.rules.len()
    }

    /// Atomically replaces the whole rule list. Update plans reprogram a
    /// vSwitch per barrier with the exact post-barrier rule order, since
    /// first-match-wins semantics make the order part of the program.
    pub fn replace_rules(&mut self, rules: Vec<VSwitchRule>) {
        self.rules = rules;
    }
}

impl fmt::Display for PhysicalSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "switch {} ({} APPLE rules{})",
            self.id,
            self.apple_table.entry_count(),
            if self.has_host { ", host attached" } else { "" }
        )
    }
}

/// Convenience constructors for the Table III rule kinds.
impl PhysicalSwitch {
    /// Installs the host-match rule: packets tagged for this switch's host
    /// are punted to it. (Row 1 of Table III.) Its priority sits above
    /// every classification band (classification priorities scale with
    /// transport specificity, see the rule generator).
    pub fn install_host_match(&mut self) {
        self.apple_table.install(TcamRule {
            priority: 10_000,
            spec: crate::tcam::MatchSpec::any().host_tag(HostTag::Host(self.id as u16)),
            actions: vec![Action::ForwardToHost],
            label: format!("host-match h{}", self.id),
        });
    }

    /// Installs the pass-by rule: anything else continues with normal
    /// forwarding. (Row 4 of Table III.)
    pub fn install_pass_by(&mut self) {
        self.apple_table.install(TcamRule {
            priority: 0,
            spec: crate::tcam::MatchSpec::any(),
            actions: vec![Action::GotoNextTable],
            label: crate::tcam::PASS_BY_LABEL.into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcam::MatchSpec;

    fn pkt() -> Packet {
        Packet::new(0x0a010101, 0x0a020202, 1000, 80, 6)
    }

    #[test]
    fn host_match_punts_to_host() {
        let mut sw = PhysicalSwitch::new(3, true);
        sw.install_host_match();
        sw.install_pass_by();
        let mut p = pkt();
        p.host_tag = HostTag::Host(3);
        assert_eq!(sw.process(&mut p), SwitchVerdict::ToHost);
        // Packets for other hosts pass by.
        let mut q = pkt();
        q.host_tag = HostTag::Host(7);
        assert_eq!(sw.process(&mut q), SwitchVerdict::Forward);
    }

    #[test]
    fn classification_tags_then_forwards() {
        let mut sw = PhysicalSwitch::new(0, false);
        // Row 3 of Table III: tag sub-class + next host, go to next table.
        sw.apple_table.install(TcamRule {
            priority: 200,
            spec: MatchSpec::any()
                .host_tag(HostTag::Empty)
                .src(0x0a010000, 16),
            actions: vec![
                Action::SetSubclassTag(4),
                Action::SetHostTag(HostTag::Host(5)),
                Action::GotoNextTable,
            ],
            label: "classify".into(),
        });
        sw.install_pass_by();
        let mut p = pkt();
        assert_eq!(sw.process(&mut p), SwitchVerdict::Forward);
        assert_eq!(p.subclass_tag, Some(4));
        assert_eq!(p.host_tag, HostTag::Host(5));
        // Already-tagged packets skip classification (host tag no longer
        // Empty).
        let mut q = pkt();
        q.host_tag = HostTag::Host(9);
        sw.process(&mut q);
        assert_eq!(q.subclass_tag, None);
    }

    #[test]
    fn no_match_reported() {
        let sw = PhysicalSwitch::new(0, false);
        let mut p = pkt();
        assert_eq!(sw.process(&mut p), SwitchVerdict::NoMatch);
    }

    #[test]
    fn vswitch_chains_instances() {
        let mut vs = VSwitch::new(2);
        let fw = InstanceId(1);
        let ids = InstanceId(2);
        vs.install(VSwitchRule {
            in_port: VPort::Network,
            spec: MatchSpec::any(),
            subclass: Some(1),
            set_host_tag: None,
            set_subclass_tag: None,
            verdict: VSwitchVerdict::ToVnf(fw),
            label: "net->fw".into(),
        });
        vs.install(VSwitchRule {
            in_port: VPort::FromVnf(fw),
            spec: MatchSpec::any(),
            subclass: Some(1),
            set_host_tag: None,
            set_subclass_tag: None,
            verdict: VSwitchVerdict::ToVnf(ids),
            label: "fw->ids".into(),
        });
        vs.install(VSwitchRule {
            in_port: VPort::FromVnf(ids),
            spec: MatchSpec::any(),
            subclass: Some(1),
            set_host_tag: Some(HostTag::Fin),
            set_subclass_tag: None,
            verdict: VSwitchVerdict::ToNetwork,
            label: "ids->out".into(),
        });
        let mut p = pkt();
        p.subclass_tag = Some(1);
        assert_eq!(
            vs.process(VPort::Network, &mut p),
            VSwitchVerdict::ToVnf(fw)
        );
        assert_eq!(
            vs.process(VPort::FromVnf(fw), &mut p),
            VSwitchVerdict::ToVnf(ids)
        );
        assert_eq!(
            vs.process(VPort::FromVnf(ids), &mut p),
            VSwitchVerdict::ToNetwork
        );
        assert_eq!(p.host_tag, HostTag::Fin);
    }

    #[test]
    fn vswitch_subclass_distinguishes() {
        let mut vs = VSwitch::new(0);
        vs.install(VSwitchRule {
            in_port: VPort::Network,
            spec: MatchSpec::any(),
            subclass: Some(1),
            set_host_tag: None,
            set_subclass_tag: None,
            verdict: VSwitchVerdict::ToVnf(InstanceId(10)),
            label: "s1".into(),
        });
        vs.install(VSwitchRule {
            in_port: VPort::Network,
            spec: MatchSpec::any(),
            subclass: Some(2),
            set_host_tag: None,
            set_subclass_tag: None,
            verdict: VSwitchVerdict::ToVnf(InstanceId(20)),
            label: "s2".into(),
        });
        let mut p = pkt();
        p.subclass_tag = Some(2);
        assert_eq!(
            vs.process(VPort::Network, &mut p),
            VSwitchVerdict::ToVnf(InstanceId(20))
        );
    }

    #[test]
    fn production_vm_packets_get_tagged() {
        // §V-B: packets from production-VM ports are untagged; the vSwitch
        // tags them on the way in.
        let mut vs = VSwitch::new(0);
        vs.install(VSwitchRule {
            in_port: VPort::ProductionVm,
            spec: MatchSpec::any().src(0x0a010000, 16),
            subclass: None,
            set_host_tag: Some(HostTag::Host(4)),
            set_subclass_tag: Some(9),
            verdict: VSwitchVerdict::ToNetwork,
            label: "vm-ingress".into(),
        });
        let mut p = pkt();
        assert_eq!(
            vs.process(VPort::ProductionVm, &mut p),
            VSwitchVerdict::ToNetwork
        );
        assert_eq!(p.subclass_tag, Some(9));
        assert_eq!(p.host_tag, HostTag::Host(4));
    }

    #[test]
    fn remove_where_works() {
        let mut vs = VSwitch::new(0);
        for i in 0..3 {
            vs.install(VSwitchRule {
                in_port: VPort::Network,
                spec: MatchSpec::any(),
                subclass: Some(i),
                set_host_tag: None,
                set_subclass_tag: None,
                verdict: VSwitchVerdict::ToNetwork,
                label: format!("r{i}"),
            });
        }
        assert_eq!(vs.remove_where(|r| r.subclass == Some(1)), 1);
        assert_eq!(vs.rule_count(), 2);
    }
}
