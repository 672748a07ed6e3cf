//! The packet-walk engine: replays one packet over its forwarding path and
//! records every VNF instance it traverses.
//!
//! The walker implements the interference-freedom contract literally: the
//! packet's switch-level trajectory is **exactly the forwarding path given
//! as input** — APPLE rules may only tag the packet and detour it through
//! APPLE hosts *attached to* switches already on the path, never change the
//! path itself. Property tests use the recorded instance sequence to verify
//! policy enforcement (the chain order) and the recorded switch sequence to
//! verify interference freedom.

use crate::packet::Packet;
use crate::switch::{PhysicalSwitch, SwitchVerdict, VPort, VSwitch, VSwitchVerdict};
use apple_nf::InstanceId;
use apple_topology::Path;
use std::collections::BTreeMap;
use std::fmt;

/// Errors a walk can hit — all of them mean the rule generator produced an
/// inconsistent data plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkError {
    /// A switch on the path has no APPLE table entry for the packet.
    NoRuleAtSwitch(usize),
    /// The packet was punted to a host on a switch without one.
    NoHostAtSwitch(usize),
    /// The vSwitch had no rule for the packet at the given port.
    VSwitchNoMatch(usize),
    /// The packet bounced between more instances than physically possible
    /// (per §V-B a packet never traverses the same instance twice).
    InstanceLoop(usize),
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalkError::NoRuleAtSwitch(s) => write!(f, "no APPLE rule matched at switch {s}"),
            WalkError::NoHostAtSwitch(s) => {
                write!(f, "packet punted to missing host at switch {s}")
            }
            WalkError::VSwitchNoMatch(s) => write!(f, "vSwitch at switch {s} had no matching rule"),
            WalkError::InstanceLoop(s) => write!(f, "instance loop inside host at switch {s}"),
        }
    }
}

impl std::error::Error for WalkError {}

/// The observable outcome of one packet walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkRecord {
    /// Switches visited, in order. Interference freedom ⇔ this equals the
    /// input path's node sequence.
    pub switches: Vec<usize>,
    /// VNF instances traversed, in order.
    pub instances: Vec<InstanceId>,
    /// APPLE hosts (by attached switch) whose vSwitch the walk consulted,
    /// in order. Both walk engines fill it, and their bitwise-equality
    /// checks compare it.
    pub hosts_visited: Vec<usize>,
    /// Final state of the packet (tags included).
    pub packet: Packet,
}

/// A packet-walk engine: anything that can replay one packet along a
/// forwarding path against a programmed data plane and produce the
/// observable [`WalkRecord`] (or a [`WalkError`]).
///
/// Two implementations exist and are kept **bitwise-identical** by the
/// differential fuzz battery (`tests/fuzz_walk.rs`):
///
/// * [`NetworkWalker`] — the reference linear scan: every switch lookup is
///   a first-match walk over the descending-priority rule list, every
///   vSwitch lookup a first-match walk in install order;
/// * [`crate::fastpath::CompiledProgram`] — the compiled fast path: LPM
///   tries and exact-match tag/port tables with rank-resolved tie-breaks
///   (DESIGN.md §12).
///
/// The conformance batteries and the replay engine in `apple_sim` are
/// generic over this trait, so either engine can back them.
pub trait WalkEngine {
    /// Walks `packet` along `path` and returns the full record.
    ///
    /// # Errors
    ///
    /// Any [`WalkError`] indicates an inconsistency between the installed
    /// rules and the path/packet.
    fn walk(&self, packet: Packet, path: &Path) -> Result<WalkRecord, WalkError>;
}

/// A data-plane snapshot: programmed switches plus host vSwitches.
#[derive(Debug, Clone, Default)]
pub struct NetworkWalker {
    switches: BTreeMap<usize, PhysicalSwitch>,
    hosts: BTreeMap<usize, VSwitch>,
    /// Instances that rewrite the source header (e.g. source NAT). When a
    /// packet leaves one of these, its source address moves into the NAT
    /// pool — which is why §X needs global sub-class tags: prefix-based
    /// classification downstream of the rewrite would no longer match.
    rewriters: std::collections::BTreeSet<InstanceId>,
}

/// The address pool rewriting instances map sources into (`11.0.0.0/8`,
/// disjoint from every class's `10.x.y.0/24` prefix).
pub const NAT_POOL_PREFIX: u32 = 0x0b00_0000;

impl NetworkWalker {
    /// Creates an empty walker.
    pub fn new() -> NetworkWalker {
        NetworkWalker::default()
    }

    /// Adds (or replaces) a programmed physical switch.
    pub fn add_switch(&mut self, sw: PhysicalSwitch) {
        self.switches.insert(sw.id, sw);
    }

    /// Adds (or replaces) the APPLE-host vSwitch attached to a switch.
    pub fn add_host(&mut self, vs: VSwitch) {
        self.hosts.insert(vs.attached_to, vs);
    }

    /// Registers an instance as a source-header rewriter (source NAT).
    /// Packets leaving it have their source address moved into
    /// [`NAT_POOL_PREFIX`].
    pub fn add_rewriter(&mut self, id: InstanceId) {
        self.rewriters.insert(id);
    }

    /// Whether an instance rewrites headers.
    pub fn is_rewriter(&self, id: InstanceId) -> bool {
        self.rewriters.contains(&id)
    }

    /// Shared access to a switch.
    pub fn switch(&self, id: usize) -> Option<&PhysicalSwitch> {
        self.switches.get(&id)
    }

    /// Walks `packet` along `path`, applying switch and vSwitch rules, and
    /// returns the full record.
    ///
    /// # Errors
    ///
    /// Any [`WalkError`] indicates an inconsistency between the installed
    /// rules and the path/packet.
    pub fn walk(&self, mut packet: Packet, path: &Path) -> Result<WalkRecord, WalkError> {
        let mut switches = Vec::with_capacity(path.len());
        let mut instances = Vec::new();
        let mut hosts_visited = Vec::new();
        for node in path.iter() {
            let sid = node.0;
            switches.push(sid);
            let Some(sw) = self.switches.get(&sid) else {
                return Err(WalkError::NoRuleAtSwitch(sid));
            };
            // A switch may punt to its host, get the packet back (with a
            // new host tag), and still forward it onward — run the APPLE
            // table until it stops punting at this switch.
            let mut punts = 0;
            loop {
                match sw.process(&mut packet) {
                    SwitchVerdict::Forward => break,
                    SwitchVerdict::NoMatch => return Err(WalkError::NoRuleAtSwitch(sid)),
                    SwitchVerdict::ToHost => {
                        punts += 1;
                        if punts > 2 {
                            return Err(WalkError::InstanceLoop(sid));
                        }
                        let Some(vs) = self.hosts.get(&sid) else {
                            return Err(WalkError::NoHostAtSwitch(sid));
                        };
                        hosts_visited.push(sid);
                        self.run_host(vs, &mut packet, &mut instances, sid)?;
                    }
                }
            }
        }
        Ok(WalkRecord {
            switches,
            instances,
            hosts_visited,
            packet,
        })
    }

    /// Runs a packet through an APPLE host until it exits to the network.
    fn run_host(
        &self,
        vs: &VSwitch,
        packet: &mut Packet,
        instances: &mut Vec<InstanceId>,
        sid: usize,
    ) -> Result<(), WalkError> {
        let mut port = VPort::Network;
        // A packet never traverses the same instance twice (§V-B), so the
        // instance count bounds the loop.
        let budget = vs.rule_count() + 2;
        for _ in 0..budget {
            match vs.process(port, packet) {
                VSwitchVerdict::ToVnf(i) => {
                    if instances.contains(&i) {
                        return Err(WalkError::InstanceLoop(sid));
                    }
                    instances.push(i);
                    if self.rewriters.contains(&i) {
                        // Source NAT: keep the low 16 bits for debuggability
                        // but leave every class prefix (10/8) behind.
                        packet.src_ip = NAT_POOL_PREFIX | (packet.src_ip & 0xffff);
                    }
                    port = VPort::FromVnf(i);
                }
                VSwitchVerdict::ToNetwork => return Ok(()),
                VSwitchVerdict::NoMatch => return Err(WalkError::VSwitchNoMatch(sid)),
            }
        }
        Err(WalkError::InstanceLoop(sid))
    }
}

impl WalkEngine for NetworkWalker {
    fn walk(&self, packet: Packet, path: &Path) -> Result<WalkRecord, WalkError> {
        NetworkWalker::walk(self, packet, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::HostTag;
    use crate::switch::VSwitchRule;
    use crate::tcam::{Action, MatchSpec, TcamRule};
    use apple_topology::NodeId;

    /// Builds the Fig. 3-style scenario: path s0 -> s1, host at s1 running
    /// a firewall; classification at ingress s0.
    fn two_switch_walker() -> NetworkWalker {
        let mut w = NetworkWalker::new();
        let mut s0 = PhysicalSwitch::new(0, false);
        s0.apple_table.install(TcamRule {
            priority: 200,
            spec: MatchSpec::any().host_tag(HostTag::Empty).src(0x0a000000, 8),
            actions: vec![
                Action::SetSubclassTag(1),
                Action::SetHostTag(HostTag::Host(1)),
                Action::GotoNextTable,
            ],
            label: "classify".into(),
        });
        s0.install_host_match();
        s0.install_pass_by();
        let mut s1 = PhysicalSwitch::new(1, true);
        s1.install_host_match();
        s1.install_pass_by();
        let mut vs = VSwitch::new(1);
        vs.install(VSwitchRule {
            in_port: VPort::Network,
            spec: MatchSpec::any(),
            subclass: Some(1),
            set_host_tag: None,
            set_subclass_tag: None,
            verdict: VSwitchVerdict::ToVnf(InstanceId(7)),
            label: "to-fw".into(),
        });
        vs.install(VSwitchRule {
            in_port: VPort::FromVnf(InstanceId(7)),
            spec: MatchSpec::any(),
            subclass: Some(1),
            set_host_tag: Some(HostTag::Fin),
            set_subclass_tag: None,
            verdict: VSwitchVerdict::ToNetwork,
            label: "fw-out".into(),
        });
        w.add_switch(s0);
        w.add_switch(s1);
        w.add_host(vs);
        w
    }

    fn path01() -> Path {
        Path::new(vec![NodeId(0), NodeId(1)]).unwrap()
    }

    #[test]
    fn walk_visits_instance_and_finishes() {
        let w = two_switch_walker();
        let p = Packet::new(0x0a010101, 0x0b000001, 1, 2, 6);
        let rec = w.walk(p, &path01()).unwrap();
        assert_eq!(rec.switches, vec![0, 1]);
        assert_eq!(rec.instances, vec![InstanceId(7)]);
        assert_eq!(rec.packet.host_tag, HostTag::Fin);
        assert_eq!(rec.packet.subclass_tag, Some(1));
    }

    #[test]
    fn interference_freedom_switch_sequence() {
        let w = two_switch_walker();
        let p = Packet::new(0x0a010101, 0x0b000001, 1, 2, 6);
        let path = path01();
        let rec = w.walk(p, &path).unwrap();
        let expect: Vec<usize> = path.iter().map(|n| n.0).collect();
        assert_eq!(rec.switches, expect);
    }

    #[test]
    fn unclassified_traffic_passes_by() {
        // Traffic outside 10/8 has no policy: passes through untouched.
        let w = two_switch_walker();
        let p = Packet::new(0x0b010101, 0x0c000001, 1, 2, 6);
        let rec = w.walk(p, &path01()).unwrap();
        assert!(rec.instances.is_empty());
        assert_eq!(rec.packet.host_tag, HostTag::Empty);
    }

    #[test]
    fn missing_host_is_error() {
        let mut w = two_switch_walker();
        // Remove the host: punt must fail loudly.
        w.hosts.clear();
        let p = Packet::new(0x0a010101, 0x0b000001, 1, 2, 6);
        assert_eq!(w.walk(p, &path01()), Err(WalkError::NoHostAtSwitch(1)));
    }

    #[test]
    fn missing_switch_rules_is_error() {
        let mut w = NetworkWalker::new();
        w.add_switch(PhysicalSwitch::new(0, false));
        let p = Packet::new(1, 2, 3, 4, 6);
        let path = Path::new(vec![NodeId(0)]).unwrap();
        assert_eq!(w.walk(p, &path), Err(WalkError::NoRuleAtSwitch(0)));
    }

    #[test]
    fn vswitch_no_match_is_error() {
        let mut w = two_switch_walker();
        // Break the vSwitch: wrong subclass in rules.
        let vs = w.hosts.get_mut(&1).unwrap();
        vs.remove_where(|_| true);
        let p = Packet::new(0x0a010101, 0x0b000001, 1, 2, 6);
        assert_eq!(w.walk(p, &path01()), Err(WalkError::VSwitchNoMatch(1)));
    }

    #[test]
    fn error_display() {
        assert!(WalkError::NoRuleAtSwitch(3)
            .to_string()
            .contains("switch 3"));
        assert!(WalkError::InstanceLoop(1).to_string().contains("loop"));
    }

    #[test]
    fn rewriter_moves_source_into_nat_pool() {
        let mut w = two_switch_walker();
        w.add_rewriter(InstanceId(7));
        assert!(w.is_rewriter(InstanceId(7)));
        let p = Packet::new(0x0a010101, 0x0b000001, 1, 2, 6);
        let rec = w.walk(p, &path01()).unwrap();
        assert_eq!(rec.packet.src_ip & 0xff00_0000, NAT_POOL_PREFIX);
        assert_eq!(rec.packet.src_ip & 0xffff, 0x0101);
    }

    #[test]
    fn rewrite_breaks_prefix_matching_downstream() {
        // The §X problem statement: if the vSwitch rules downstream of the
        // rewriter still match class prefixes, the packet strands. We build
        // a two-stage host where the second rule matches the 10/8 prefix —
        // after the NAT rewrite it cannot match.
        let mut w = two_switch_walker();
        // Turn the single-instance host into a two-stage chain whose second
        // hop matches on the (pre-rewrite) source prefix.
        let vs = w.hosts.get_mut(&1).unwrap();
        vs.remove_where(|r| r.label == "fw-out");
        vs.install(VSwitchRule {
            in_port: VPort::FromVnf(InstanceId(7)),
            spec: MatchSpec::any().src(0x0a000000, 8),
            subclass: Some(1),
            set_host_tag: Some(HostTag::Fin),
            set_subclass_tag: None,
            verdict: VSwitchVerdict::ToNetwork,
            label: "prefix-exit".into(),
        });
        w.add_rewriter(InstanceId(7));
        let p = Packet::new(0x0a010101, 0x0b000001, 1, 2, 6);
        assert_eq!(w.walk(p, &path01()), Err(WalkError::VSwitchNoMatch(1)));
    }
}
