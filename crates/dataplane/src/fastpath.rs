//! The compiled per-switch lookup fast path (DESIGN.md §12).
//!
//! [`crate::walk::NetworkWalker`] answers every switch lookup with a linear
//! first-match scan over the descending-priority rule list, and every
//! vSwitch lookup with a first-match scan in install order — O(rules) per
//! hop. The paper's premise is the opposite: classification is a line-rate
//! TCAM operation and vSwitch steering an exact-match flow-table hit. This
//! module compiles a [`RuleProgram`] into immutable per-device lookup
//! structures that restore that asymptotic shape while staying
//! **bitwise-identical** to the linear scan:
//!
//! * **Per physical switch** ([`CompiledSwitch`]): rules are frozen in
//!   their canonical descending-priority order and each rule's index in
//!   that order becomes its *rank*. Rules are bucketed by their exact
//!   host-tag condition (`Empty` / `Fin` / `Host(h)`, plus a wildcard
//!   bucket for rules with no tag condition — Table III rows 2–4 vs
//!   row 1), and within each bucket a binary LPM trie over the source
//!   prefix narrows candidates to the rules whose `src` condition lies on
//!   the packet's bit path. Every candidate is re-verified with the full
//!   [`MatchSpec::matches`](crate::tcam::MatchSpec::matches) predicate and
//!   the **minimum rank** wins.
//! * **Per host vSwitch** ([`CompiledHost`]): rules are frozen in install
//!   order (rank = index) and keyed exactly on
//!   `(in_port, sub-class tag)` — the §V-B
//!   `<IncomePort, class, sub-class>` triple with the class predicate
//!   re-verified per candidate — plus a per-port bucket for
//!   wildcard-sub-class rules (production-VM ingress). Minimum rank wins.
//!
//! **Priority equivalence.** The linear scan returns the *first* matching
//! rule of the canonical order, i.e. the matching rule of minimum rank.
//! Any rule that matches a packet necessarily (a) has a host-tag condition
//! that is absent or equal to the packet's tag, so it lives in a consulted
//! bucket, and (b) has a source condition that is absent or a prefix of
//! the packet's source address, so its trie node lies on the walked bit
//! path. The candidate set therefore *contains every matching rule*;
//! re-verifying candidates and taking the minimum rank reproduces the
//! linear result exactly — including ties, which the canonical order has
//! already serialised. The same argument applies to the vSwitch keying:
//! a rule can only match packets arriving at its `in_port` whose
//! sub-class tag equals its condition (or any tag, for wildcard rules).
//!
//! **Incremental rebuild.** The five-phase update plans of
//! [`mod@crate::diff`] carry, per barrier, the exact post-barrier state of the
//! one device they touch. [`CompiledProgram::rebuild_delta`] therefore
//! patches the compiled form device-by-device — recompiling one switch's
//! trie or one host's key table — instead of recompiling the whole
//! program, which is what lets the online loop keep a hot fast path
//! across ≥100k-event timelines (see `apple_core::online`).

use crate::compiler::RuleProgram;
use crate::diff::UpdateBatch;
use crate::packet::{HostTag, Packet};
use crate::switch::{
    apply_actions, apply_vswitch_rule, SwitchVerdict, VPort, VSwitchRule, VSwitchVerdict,
};
use crate::tcam::TcamRule;
use crate::walk::{WalkEngine, WalkError, WalkRecord, NAT_POOL_PREFIX};
use apple_nf::InstanceId;
use apple_topology::Path;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Sentinel rank meaning "no candidate yet" / "no child".
const NONE: u32 = u32::MAX;

/// One node of the binary source-prefix trie: two child slots (bit 0 /
/// bit 1) and the ranks of the rules whose `src` condition ends exactly
/// here, in ascending rank order.
#[derive(Debug, Clone, PartialEq)]
struct TrieNode {
    child: [u32; 2],
    ranks: Vec<u32>,
}

impl TrieNode {
    fn empty() -> TrieNode {
        TrieNode {
            child: [NONE, NONE],
            ranks: Vec::new(),
        }
    }
}

/// A binary LPM trie over source-prefix conditions, arena-allocated (nodes
/// live in one `Vec`, children are indices) so lookups walk contiguous
/// memory. Rules with no `src` condition sit at the root (a /0 prefix).
#[derive(Debug, Clone, PartialEq)]
struct SrcTrie {
    nodes: Vec<TrieNode>,
}

impl SrcTrie {
    fn new() -> SrcTrie {
        SrcTrie {
            nodes: vec![TrieNode::empty()],
        }
    }

    /// Inserts `rank` at the node spelled by the first `len` bits of
    /// `addr`. Ranks inserted in ascending order stay sorted per node.
    fn insert(&mut self, addr: u32, len: u8, rank: u32) {
        debug_assert!(len <= 32, "prefix length must be <= 32");
        let mut node = 0usize;
        for bit_i in 0..len {
            let b = ((addr >> (31 - bit_i)) & 1) as usize;
            let next = self.nodes[node].child[b];
            let next = if next == NONE {
                let id = self.nodes.len() as u32;
                self.nodes.push(TrieNode::empty());
                self.nodes[node].child[b] = id;
                id
            } else {
                next
            };
            node = next as usize;
        }
        self.nodes[node].ranks.push(rank);
    }

    /// Walks the packet's source bits from the root, re-verifying every
    /// candidate rank against the full match predicate, and lowers `best`
    /// to the minimum matching rank found. Per-node ranks are ascending,
    /// so the first match in a node is that node's minimum and ranks at or
    /// above the current best prune the rest of the node.
    fn collect_best(&self, p: &Packet, rules: &[TcamRule], best: &mut u32) {
        let mut node = 0usize;
        let mut depth = 0u8;
        loop {
            for &r in &self.nodes[node].ranks {
                if r >= *best {
                    break;
                }
                if rules[r as usize].spec.matches(p) {
                    *best = r;
                    break;
                }
            }
            if depth >= 32 {
                return;
            }
            let b = ((p.src_ip >> (31 - depth)) & 1) as usize;
            let next = self.nodes[node].child[b];
            if next == NONE {
                return;
            }
            node = next as usize;
            depth += 1;
        }
    }
}

/// Encodes a host-tag *condition* as a bucket key: `Empty` and `Fin` get
/// the two reserved low values, `Host(h)` is offset past them.
fn tag_key(t: HostTag) -> u32 {
    match t {
        HostTag::Empty => 0,
        HostTag::Fin => 1,
        HostTag::Host(h) => 2 + u32::from(h),
    }
}

/// One physical switch's compiled APPLE table: the canonical rule list
/// (index = rank) plus host-tag buckets of source-prefix tries.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSwitch {
    id: usize,
    has_host: bool,
    rules: Vec<TcamRule>,
    /// Rules whose spec requires an exact host tag, bucketed by that tag.
    tagged: HashMap<u32, SrcTrie>,
    /// Rules with no host-tag condition (match any tag).
    wildcard: SrcTrie,
}

impl CompiledSwitch {
    /// Compiles one switch's canonical (descending-priority, stable) rule
    /// list. The slice order *is* the priority order — rank = index.
    pub fn build(id: usize, rules: &[TcamRule], has_host: bool) -> CompiledSwitch {
        let mut tagged: HashMap<u32, SrcTrie> = HashMap::new();
        let mut wildcard = SrcTrie::new();
        for (rank, r) in rules.iter().enumerate() {
            let (addr, len) = r.spec.src.unwrap_or((0, 0));
            let trie = match r.spec.host_tag {
                Some(t) => tagged.entry(tag_key(t)).or_insert_with(SrcTrie::new),
                None => &mut wildcard,
            };
            trie.insert(addr, len, rank as u32);
        }
        CompiledSwitch {
            id,
            has_host,
            rules: rules.to_vec(),
            tagged,
            wildcard,
        }
    }

    /// The highest-priority (minimum-rank) rule matching the packet —
    /// bitwise the rule the linear scan returns.
    pub fn lookup(&self, p: &Packet) -> Option<&TcamRule> {
        let mut best = NONE;
        if let Some(trie) = self.tagged.get(&tag_key(p.host_tag)) {
            trie.collect_best(p, &self.rules, &mut best);
        }
        self.wildcard.collect_best(p, &self.rules, &mut best);
        self.rules.get(best as usize)
    }

    /// Runs the compiled table on the packet, applying tag actions in
    /// place — the fast-path twin of
    /// [`crate::switch::PhysicalSwitch::process`].
    pub fn process(&self, p: &mut Packet) -> SwitchVerdict {
        match self.lookup(p) {
            Some(rule) => apply_actions(&rule.actions, p),
            None => SwitchVerdict::NoMatch,
        }
    }

    /// APPLE rules on this switch.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }
}

/// One host vSwitch's compiled steering table: the install-order rule list
/// (index = rank), exact `(in_port, sub-class)` buckets and per-port
/// wildcard-sub-class buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledHost {
    attached_to: usize,
    rules: Vec<VSwitchRule>,
    /// Ranks of rules with an exact sub-class condition, keyed on
    /// `(in_port, tag)`, ascending.
    exact: HashMap<(VPort, u16), Vec<u32>>,
    /// Ranks of wildcard-sub-class rules per port, ascending.
    wildcard: HashMap<VPort, Vec<u32>>,
}

impl CompiledHost {
    /// Compiles one host's install-order rule list (rank = index).
    pub fn build(attached_to: usize, rules: Vec<VSwitchRule>) -> CompiledHost {
        let mut exact: HashMap<(VPort, u16), Vec<u32>> = HashMap::new();
        let mut wildcard: HashMap<VPort, Vec<u32>> = HashMap::new();
        for (rank, r) in rules.iter().enumerate() {
            match r.subclass {
                Some(s) => exact.entry((r.in_port, s)).or_default().push(rank as u32),
                None => wildcard.entry(r.in_port).or_default().push(rank as u32),
            }
        }
        CompiledHost {
            attached_to,
            rules,
            exact,
            wildcard,
        }
    }

    /// Runs the compiled steering table on a packet arriving at `port` —
    /// the fast-path twin of [`crate::switch::VSwitch::process`]. A rule
    /// with an exact sub-class condition can only match packets carrying
    /// that tag, so the candidate set is the `(port, tag)` bucket plus the
    /// port's wildcard bucket; minimum rank wins.
    pub fn process(&self, port: VPort, p: &mut Packet) -> VSwitchVerdict {
        let mut best = NONE;
        if let Some(t) = p.subclass_tag {
            if let Some(ranks) = self.exact.get(&(port, t)) {
                for &r in ranks {
                    if self.rules[r as usize].spec.matches(p) {
                        best = r;
                        break;
                    }
                }
            }
        }
        if let Some(ranks) = self.wildcard.get(&port) {
            for &r in ranks {
                if r >= best {
                    break;
                }
                if self.rules[r as usize].spec.matches(p) {
                    best = r;
                    break;
                }
            }
        }
        match self.rules.get(best as usize) {
            Some(rule) => apply_vswitch_rule(rule, p),
            None => VSwitchVerdict::NoMatch,
        }
    }

    /// Steering rules on this host (the linear walker's loop budget is
    /// derived from this same count, so both engines bound host runs
    /// identically).
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }
}

/// A whole rule program compiled into per-device fast-path lookup
/// structures. Implements [`WalkEngine`] with verdicts bitwise-identical
/// to [`NetworkWalker`](crate::walk::NetworkWalker), and supports
/// per-barrier incremental patching via [`CompiledProgram::rebuild_delta`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompiledProgram {
    switches: BTreeMap<usize, CompiledSwitch>,
    hosts: BTreeMap<usize, CompiledHost>,
    rewriters: BTreeSet<InstanceId>,
}

impl CompiledProgram {
    /// Compiles every device of a [`RuleProgram`].
    pub fn new(prog: &RuleProgram) -> CompiledProgram {
        CompiledProgram {
            switches: prog
                .switches
                .iter()
                .map(|(&id, sr)| (id, CompiledSwitch::build(id, &sr.rules, sr.has_host)))
                .collect(),
            hosts: prog
                .hosts
                .iter()
                .map(|(&v, rules)| (v, CompiledHost::build(v, rules.clone())))
                .collect(),
            rewriters: prog.rewriters.clone(),
        }
    }

    /// Patches the compiled form with one barrier of an update plan.
    /// Each [`UpdateBatch`] carries the exact post-barrier state of the
    /// single device it touches, so the patch recompiles only that
    /// device's lookup structure — mirroring
    /// [`crate::diff::apply_batch_unchecked`] exactly: applying a plan's
    /// barriers here and to the underlying [`RuleProgram`] keeps
    /// `self == CompiledProgram::new(&patched)` at every barrier.
    pub fn rebuild_delta(&mut self, batch: &UpdateBatch) {
        match batch {
            UpdateBatch::Switch(b) => {
                if b.drop_switch {
                    self.switches.remove(&b.switch);
                } else {
                    self.switches.insert(
                        b.switch,
                        CompiledSwitch::build(b.switch, &b.after, b.has_host_after),
                    );
                }
            }
            UpdateBatch::Host(b) => {
                if b.drop_host {
                    self.hosts.remove(&b.host);
                } else {
                    self.hosts
                        .insert(b.host, CompiledHost::build(b.host, b.after.clone()));
                }
            }
            UpdateBatch::Rewriters { add, remove } => {
                for &i in add {
                    self.rewriters.insert(i);
                }
                for &i in remove {
                    self.rewriters.remove(&i);
                }
            }
        }
    }

    /// Compiled switches, in id order.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Compiled host vSwitches.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Shared access to one compiled switch.
    pub fn switch(&self, id: usize) -> Option<&CompiledSwitch> {
        self.switches.get(&id)
    }

    /// Shared access to one compiled host.
    pub fn host(&self, id: usize) -> Option<&CompiledHost> {
        self.hosts.get(&id)
    }

    /// Whether an instance rewrites headers.
    pub fn is_rewriter(&self, id: InstanceId) -> bool {
        self.rewriters.contains(&id)
    }

    /// Runs a packet through a compiled host until it exits to the
    /// network — the fast-path twin of the linear walker's host loop, with
    /// the identical `rule_count() + 2` budget and §V-B no-revisit check.
    fn run_host(
        &self,
        vs: &CompiledHost,
        packet: &mut Packet,
        instances: &mut Vec<InstanceId>,
        sid: usize,
    ) -> Result<(), WalkError> {
        let mut port = VPort::Network;
        let budget = vs.rule_count() + 2;
        for _ in 0..budget {
            match vs.process(port, packet) {
                VSwitchVerdict::ToVnf(i) => {
                    if instances.contains(&i) {
                        return Err(WalkError::InstanceLoop(sid));
                    }
                    instances.push(i);
                    if self.rewriters.contains(&i) {
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

impl WalkEngine for CompiledProgram {
    fn walk(&self, mut packet: Packet, path: &Path) -> Result<WalkRecord, WalkError> {
        let mut switches = Vec::with_capacity(path.len());
        let mut instances = Vec::new();
        let mut hosts_visited = Vec::new();
        for node in path.iter() {
            let sid = node.0;
            switches.push(sid);
            let Some(sw) = self.switches.get(&sid) else {
                return Err(WalkError::NoRuleAtSwitch(sid));
            };
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompilerSnapshot, SubclassSpec};
    use crate::diff::{apply_batch_unchecked, diff};
    use crate::tcam::{Action, MatchSpec};
    use crate::walk::NetworkWalker;
    use apple_nf::NfType;
    use apple_topology::NodeId;

    /// A three-switch line with one two-stage class, mirroring the sim
    /// crate's conformance fixture.
    fn line_snapshot(fw: u64, ids: u64) -> CompilerSnapshot {
        CompilerSnapshot {
            switches: vec![0, 1, 2],
            hosts: vec![1, 2],
            rewriters: Vec::new(),
            subclasses: vec![SubclassSpec {
                class: 0,
                class_name: "c0".into(),
                sub: 0,
                tag: 0,
                global: false,
                path: vec![0, 1, 2],
                src_prefix: (0x0a00_0000, 24),
                dst_prefix: (0x0a00_0100, 24),
                proto: Some(6),
                dst_ports: vec![80, 443],
                prefixes: vec![(0x0a00_0000, 25), (0x0a00_0080, 25)],
                stage_positions: vec![1, 2],
                stage_nfs: vec![NfType::Firewall, NfType::Ids],
                instances: vec![InstanceId(fw), InstanceId(ids)],
            }],
            compress: true,
        }
    }

    fn line_path() -> Path {
        Path::new(vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap()
    }

    /// A packet battery covering classified traffic, both prefix halves,
    /// wrong ports, pass-by traffic, pre-tagged and stale-tagged packets.
    fn battery() -> Vec<Packet> {
        let mut ps = vec![
            Packet::new(0x0a00_0001, 0x0a00_0109, 40_000, 80, 6),
            Packet::new(0x0a00_0081, 0x0a00_0109, 40_000, 443, 6),
            Packet::new(0x0a00_0001, 0x0a00_0109, 40_000, 22, 6),
            Packet::new(0x0a00_0001, 0x0a00_0109, 40_000, 80, 17),
            Packet::new(0xc0a8_0001, 0xc0a8_0002, 7, 7, 17),
            Packet::new(0x0b00_0001, 0x0a00_0109, 40_000, 80, 6),
        ];
        let mut tagged = Packet::new(0x0a00_0001, 0x0a00_0109, 40_000, 80, 6);
        tagged.host_tag = HostTag::Host(1);
        tagged.subclass_tag = Some(0);
        ps.push(tagged);
        let mut stale = Packet::new(0x0a00_0001, 0x0a00_0109, 40_000, 80, 6);
        stale.host_tag = HostTag::Host(9);
        stale.subclass_tag = Some(7);
        ps.push(stale);
        let mut fin = Packet::new(0x0a00_0001, 0x0a00_0109, 40_000, 80, 6);
        fin.host_tag = HostTag::Fin;
        ps.push(fin);
        ps
    }

    #[test]
    fn compiled_walks_match_linear_bitwise() {
        let prog = compile(&line_snapshot(0, 1));
        let linear = prog.walker();
        let fast = CompiledProgram::new(&prog);
        let path = line_path();
        for p in battery() {
            assert_eq!(
                WalkEngine::walk(&fast, p, &path),
                linear.walk(p, &path),
                "engines diverge on {p:?}"
            );
        }
    }

    #[test]
    fn compiled_lookup_returns_the_linear_rule() {
        let prog = compile(&line_snapshot(0, 1));
        let fast = CompiledProgram::new(&prog);
        let linear = prog.walker();
        for p in battery() {
            for &id in prog.switches.keys() {
                let got = fast.switch(id).unwrap().lookup(&p);
                let want = linear.switch(id).unwrap().apple_table.lookup(&p);
                assert_eq!(got, want, "switch {id} lookup diverges on {p:?}");
            }
        }
    }

    #[test]
    fn rank_breaks_priority_ties_like_the_stable_sort() {
        // Two same-priority rules whose specs both match: the linear scan
        // returns the first-installed one; the compiled lookup must too,
        // even though the second is more specific.
        let rules = vec![
            TcamRule {
                priority: 200,
                spec: MatchSpec::any().src(0x0a00_0000, 8),
                actions: vec![Action::SetSubclassTag(1), Action::GotoNextTable],
                label: "first".into(),
            },
            TcamRule {
                priority: 200,
                spec: MatchSpec::any().src(0x0a00_0000, 24),
                actions: vec![Action::SetSubclassTag(2), Action::GotoNextTable],
                label: "second".into(),
            },
        ];
        let cs = CompiledSwitch::build(0, &rules, false);
        let p = Packet::new(0x0a00_0001, 0, 0, 0, 6);
        assert_eq!(cs.lookup(&p).unwrap().label, "first");
    }

    #[test]
    fn longer_prefix_does_not_shadow_higher_rank() {
        // LPM tries usually prefer the longest prefix; ours must prefer
        // the minimum rank (= highest priority) instead.
        let rules = vec![
            TcamRule {
                priority: 3200,
                spec: MatchSpec::any().src(0x0a00_0000, 8),
                actions: vec![Action::GotoNextTable],
                label: "coarse-high".into(),
            },
            TcamRule {
                priority: 200,
                spec: MatchSpec::any().src(0x0a00_0100, 24),
                actions: vec![Action::GotoNextTable],
                label: "fine-low".into(),
            },
        ];
        let cs = CompiledSwitch::build(0, &rules, false);
        let p = Packet::new(0x0a00_0101, 0, 0, 0, 6);
        assert_eq!(cs.lookup(&p).unwrap().label, "coarse-high");
    }

    #[test]
    fn delta_patch_tracks_full_rebuild_at_every_barrier() {
        let pairs = [
            (line_snapshot(0, 1), line_snapshot(7, 1)),
            (line_snapshot(0, 1), line_snapshot(0, 9)),
            (
                line_snapshot(0, 1),
                CompilerSnapshot {
                    switches: vec![0, 1, 2],
                    ..CompilerSnapshot::default()
                },
            ),
            (
                CompilerSnapshot {
                    switches: vec![0, 1, 2],
                    ..CompilerSnapshot::default()
                },
                line_snapshot(2, 3),
            ),
        ];
        for (old, new) in pairs {
            let old_prog = compile(&old);
            let new_prog = compile(&new);
            let plan = diff(&old_prog, &new_prog);
            let mut patched = old_prog.clone();
            let mut fast = CompiledProgram::new(&old_prog);
            for batch in plan.batches() {
                apply_batch_unchecked(&mut patched, batch);
                fast.rebuild_delta(batch);
                assert_eq!(
                    fast,
                    CompiledProgram::new(&patched),
                    "delta patch diverges from full rebuild"
                );
            }
            assert_eq!(fast, CompiledProgram::new(&new_prog));
        }
    }

    #[test]
    fn rewriter_delta_and_nat_semantics_match_linear() {
        let mut snap = line_snapshot(0, 1);
        snap.rewriters = vec![InstanceId(0)];
        snap.subclasses[0].global = true;
        snap.subclasses[0].tag = 0x8000;
        let prog = compile(&snap);
        let fast = CompiledProgram::new(&prog);
        assert!(fast.is_rewriter(InstanceId(0)));
        let linear = prog.walker();
        let path = line_path();
        for p in battery() {
            assert_eq!(WalkEngine::walk(&fast, p, &path), linear.walk(p, &path));
        }
    }

    #[test]
    fn empty_program_errors_identically() {
        let fast = CompiledProgram::default();
        let linear = NetworkWalker::new();
        let p = Packet::new(1, 2, 3, 4, 6);
        let path = Path::new(vec![NodeId(0)]).unwrap();
        assert_eq!(WalkEngine::walk(&fast, p, &path), linear.walk(p, &path));
        assert_eq!(
            WalkEngine::walk(&fast, p, &path),
            Err(WalkError::NoRuleAtSwitch(0))
        );
    }

    #[test]
    fn trie_handles_full_length_prefixes() {
        let rules = vec![TcamRule {
            priority: 200,
            spec: MatchSpec::any().src(0x0a00_0001, 32),
            actions: vec![Action::GotoNextTable],
            label: "exact-host".into(),
        }];
        let cs = CompiledSwitch::build(0, &rules, false);
        let hit = Packet::new(0x0a00_0001, 0, 0, 0, 6);
        let miss = Packet::new(0x0a00_0002, 0, 0, 0, 6);
        assert!(cs.lookup(&hit).is_some());
        assert!(cs.lookup(&miss).is_none());
    }
}
