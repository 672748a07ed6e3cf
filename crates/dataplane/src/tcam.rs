//! TCAM flow tables: priority-ordered wildcard rules with actions.
//!
//! TCAM is the expensive, power-hungry resource the tagging scheme exists
//! to save (design challenge 3 in §III). Tables here count their entries so
//! the Fig. 10 experiment can compare rule footprints with and without
//! tagging.

use crate::packet::{HostTag, Packet};
use std::fmt;

/// A ternary match over the packet fields APPLE uses.
///
/// `None` components are wildcards. IP fields match on a `(value, prefix
/// length)` pair, like OpenFlow's `nw_src/len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MatchSpec {
    /// Source prefix: `(address, prefix_len)`.
    pub src: Option<(u32, u8)>,
    /// Destination prefix: `(address, prefix_len)`.
    pub dst: Option<(u32, u8)>,
    /// Exact protocol.
    pub proto: Option<u8>,
    /// Exact destination port.
    pub dst_port: Option<u16>,
    /// Host-ID tag field (exact, including `Empty` / `Fin`).
    pub host_tag: Option<HostTag>,
    /// Sub-class tag (exact; `Some(None)` matches "untagged").
    pub subclass_tag: Option<Option<u16>>,
}

impl MatchSpec {
    /// The match-anything spec.
    pub fn any() -> MatchSpec {
        MatchSpec::default()
    }

    /// Builder: match a source prefix.
    pub fn src(mut self, addr: u32, len: u8) -> MatchSpec {
        assert!(len <= 32, "prefix length must be <= 32");
        self.src = Some((addr, len));
        self
    }

    /// Builder: match a destination prefix.
    pub fn dst(mut self, addr: u32, len: u8) -> MatchSpec {
        assert!(len <= 32, "prefix length must be <= 32");
        self.dst = Some((addr, len));
        self
    }

    /// Builder: match the host-ID tag.
    pub fn host_tag(mut self, t: HostTag) -> MatchSpec {
        self.host_tag = Some(t);
        self
    }

    /// Builder: match the sub-class tag (`None` = untagged packets).
    pub fn subclass_tag(mut self, t: Option<u16>) -> MatchSpec {
        self.subclass_tag = Some(t);
        self
    }

    /// Builder: match the protocol.
    pub fn proto(mut self, p: u8) -> MatchSpec {
        self.proto = Some(p);
        self
    }

    /// Builder: match the destination port.
    pub fn dst_port(mut self, p: u16) -> MatchSpec {
        self.dst_port = Some(p);
        self
    }

    /// Whether this spec matches a packet.
    pub fn matches(&self, p: &Packet) -> bool {
        fn prefix_match(ip: u32, pat: (u32, u8)) -> bool {
            let (addr, len) = pat;
            if len == 0 {
                return true;
            }
            let mask = if len >= 32 {
                u32::MAX
            } else {
                !(u32::MAX >> len)
            };
            (ip & mask) == (addr & mask)
        }
        self.src.is_none_or(|s| prefix_match(p.src_ip, s))
            && self.dst.is_none_or(|d| prefix_match(p.dst_ip, d))
            && self.proto.is_none_or(|pr| p.proto == pr)
            && self.dst_port.is_none_or(|dp| p.dst_port == dp)
            && self.host_tag.is_none_or(|t| p.host_tag == t)
            && self.subclass_tag.is_none_or(|t| p.subclass_tag == t)
    }
}

/// An action a matched rule applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Write the sub-class tag field.
    SetSubclassTag(u16),
    /// Write the host-ID tag field.
    SetHostTag(HostTag),
    /// Punt the packet to the APPLE host attached to this switch.
    ForwardToHost,
    /// Continue in the next flow table (i.e. normal forwarding — the
    /// rules of routing / traffic engineering, which APPLE never touches).
    GotoNextTable,
}

/// A single TCAM rule. Higher `priority` wins; ties resolve to the earlier
/// insertion (stable).
#[derive(Debug, Clone, PartialEq)]
pub struct TcamRule {
    /// Match priority.
    pub priority: u16,
    /// Ternary match.
    pub spec: MatchSpec,
    /// Actions applied in order on match.
    pub actions: Vec<Action>,
    /// Diagnostic label (e.g. "host-match", "classify c3/s1").
    pub label: String,
}

impl fmt::Display for TcamRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} p{} {:?}]", self.label, self.priority, self.actions)
    }
}

/// The label of the table-miss default rule. It is the "anything else
/// passes by" row of Table III and costs **no** TCAM slot: hardware
/// implements it as the table-miss action, so capacity accounting and the
/// Fig. 10 entry counts both exclude it.
pub const PASS_BY_LABEL: &str = "pass-by";

/// A priority-ordered TCAM flow table.
///
/// # Example
///
/// ```
/// use apple_dataplane::tcam::{Action, MatchSpec, TcamRule, TcamTable};
/// use apple_dataplane::packet::Packet;
///
/// let mut t = TcamTable::new();
/// t.install(TcamRule {
///     priority: 10,
///     spec: MatchSpec::any().src(0x0a010000, 16),
///     actions: vec![Action::GotoNextTable],
///     label: "example".into(),
/// });
/// let p = Packet::new(0x0a010203, 0, 0, 0, 6);
/// assert!(t.lookup(&p).is_some());
/// assert_eq!(t.entry_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TcamTable {
    rules: Vec<TcamRule>,
}

impl TcamTable {
    /// Creates an empty table.
    pub fn new() -> TcamTable {
        TcamTable::default()
    }

    /// Installs a rule, keeping the table sorted by descending priority
    /// (stable for equal priorities).
    pub fn install(&mut self, rule: TcamRule) {
        let pos = self.rules.partition_point(|r| r.priority >= rule.priority);
        self.rules.insert(pos, rule);
    }

    /// Removes all rules whose label matches the predicate; returns how
    /// many were removed.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&TcamRule) -> bool) -> usize {
        let before = self.rules.len();
        self.rules.retain(|r| !pred(r));
        before - self.rules.len()
    }

    /// First (highest-priority) rule matching the packet.
    pub fn lookup(&self, p: &Packet) -> Option<&TcamRule> {
        self.rules.iter().find(|r| r.spec.matches(p))
    }

    /// Number of TCAM entries — the Fig. 10 metric.
    pub fn entry_count(&self) -> usize {
        self.rules.len()
    }

    /// Iterates over the rules in priority order.
    pub fn iter(&self) -> std::slice::Iter<'_, TcamRule> {
        self.rules.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: u32) -> Packet {
        Packet::new(src, 0x0b000001, 1000, 80, 6)
    }

    #[test]
    fn prefix_matching() {
        let spec = MatchSpec::any().src(0x0a010100, 24);
        assert!(spec.matches(&pkt(0x0a010105)));
        assert!(!spec.matches(&pkt(0x0a010205)));
        // /25 split: lower vs upper half.
        let lower = MatchSpec::any().src(0x0a010100, 25);
        let upper = MatchSpec::any().src(0x0a010180, 25);
        assert!(lower.matches(&pkt(0x0a010110)));
        assert!(!lower.matches(&pkt(0x0a010190)));
        assert!(upper.matches(&pkt(0x0a010190)));
    }

    #[test]
    fn zero_length_prefix_is_wildcard() {
        let spec = MatchSpec::any().src(0xdeadbeef, 0);
        assert!(spec.matches(&pkt(0x01020304)));
    }

    #[test]
    fn tag_matching() {
        let spec = MatchSpec::any()
            .host_tag(HostTag::Host(2))
            .subclass_tag(Some(5));
        let mut p = pkt(1);
        assert!(!spec.matches(&p));
        p.host_tag = HostTag::Host(2);
        p.subclass_tag = Some(5);
        assert!(spec.matches(&p));
        // Matching "untagged" explicitly.
        let untag = MatchSpec::any().subclass_tag(None);
        assert!(!untag.matches(&p));
        p.subclass_tag = None;
        assert!(untag.matches(&p));
    }

    #[test]
    fn priority_order_wins() {
        let mut t = TcamTable::new();
        t.install(TcamRule {
            priority: 1,
            spec: MatchSpec::any(),
            actions: vec![Action::GotoNextTable],
            label: "low".into(),
        });
        t.install(TcamRule {
            priority: 9,
            spec: MatchSpec::any().src(0x0a000000, 8),
            actions: vec![Action::ForwardToHost],
            label: "high".into(),
        });
        assert_eq!(t.lookup(&pkt(0x0a010101)).unwrap().label, "high");
        assert_eq!(t.lookup(&pkt(0x0b010101)).unwrap().label, "low");
    }

    #[test]
    fn stable_for_equal_priorities() {
        let mut t = TcamTable::new();
        for name in ["first", "second"] {
            t.install(TcamRule {
                priority: 5,
                spec: MatchSpec::any(),
                actions: vec![Action::GotoNextTable],
                label: name.into(),
            });
        }
        assert_eq!(t.lookup(&pkt(1)).unwrap().label, "first");
    }

    #[test]
    fn remove_where_counts() {
        let mut t = TcamTable::new();
        for i in 0..4 {
            t.install(TcamRule {
                priority: i,
                spec: MatchSpec::any(),
                actions: vec![],
                label: format!("r{i}"),
            });
        }
        let removed = t.remove_where(|r| r.priority < 2);
        assert_eq!(removed, 2);
        assert_eq!(t.entry_count(), 2);
    }

    #[test]
    fn empty_table_no_match() {
        let t = TcamTable::new();
        assert!(t.lookup(&pkt(1)).is_none());
        assert_eq!(t.entry_count(), 0);
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn bad_prefix_len_panics() {
        let _ = MatchSpec::any().src(0, 40);
    }
}
