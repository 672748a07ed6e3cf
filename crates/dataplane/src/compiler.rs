//! Deterministic compiler from an orchestrator snapshot to the full
//! Table III rule program.
//!
//! The control plane describes *what* is deployed — classes, sub-class
//! prefix covers, per-stage instance assignment, hosts in use — as a
//! plain-data [`CompilerSnapshot`]. [`compile`] turns one snapshot into a
//! [`RuleProgram`]: the ingress tagging rules (Table III rows 2–3), the
//! per-switch host-match / pass-by pipeline (rows 1 and 4) and the
//! `<InPort, class, sub-class>` vSwitch steering rules of §V-B, in a
//! canonical order. The compiler is a pure function: the same snapshot
//! always produces the identical program, rule for rule, which is what
//! makes the incremental diff in [`mod@crate::diff`] sound.
//!
//! The snapshot types are intentionally decoupled from the control-plane
//! crates (this crate sits *below* them in the dependency graph): the
//! orchestration layer lowers its own state into a snapshot and everything
//! from here down is pure data.

use crate::packet::HostTag;
use crate::switch::{PhysicalSwitch, VPort, VSwitch, VSwitchRule, VSwitchVerdict};
use crate::tcam::{Action, MatchSpec, TcamRule, PASS_BY_LABEL};
use crate::walk::NetworkWalker;
use apple_nf::{InstanceId, NfType};
use apple_telemetry::{Recorder, RecorderExt};
use std::collections::{BTreeMap, BTreeSet};

/// One sub-class as the compiler sees it: the class predicate, the prefix
/// cover carved out for this sub-class, and where its chain stages run.
#[derive(Debug, Clone, PartialEq)]
pub struct SubclassSpec {
    /// Stable class key (orchestrator-assigned; only used for grouping and
    /// catch-all election, never for matching).
    pub class: u64,
    /// Class display name (e.g. `"c3"`), used verbatim in rule labels.
    pub class_name: String,
    /// Sub-class id, local to the class.
    pub sub: u16,
    /// The tag value written into packets (local id, or a globally-unique
    /// §X tag for rewriting chains).
    pub tag: u16,
    /// Whether `tag` is a §X global tag: the chain rewrites headers, so
    /// vSwitch rules must match on the tag alone.
    pub global: bool,
    /// The class's routing path as switch ids.
    pub path: Vec<usize>,
    /// Source prefix of the whole class.
    pub src_prefix: (u32, u8),
    /// Destination prefix of the whole class.
    pub dst_prefix: (u32, u8),
    /// Transport protocol predicate, if the class has one.
    pub proto: Option<u8>,
    /// Destination-port predicates (one TCAM variant each).
    pub dst_ports: Vec<u16>,
    /// Source-prefix cover owned by this sub-class (within `src_prefix`).
    pub prefixes: Vec<(u32, u8)>,
    /// Path position of each chain stage (non-decreasing).
    pub stage_positions: Vec<usize>,
    /// NF type of each chain stage (parallel to `stage_positions`); carried
    /// for conformance checking, not rule generation.
    pub stage_nfs: Vec<NfType>,
    /// Instance serving each chain stage (parallel to `stage_positions`).
    pub instances: Vec<InstanceId>,
}

impl SubclassSpec {
    /// Distinct path positions hosting at least one stage, in path order.
    pub fn host_positions(&self) -> Vec<usize> {
        let mut v = self.stage_positions.clone();
        v.dedup();
        v
    }

    /// Stage indices assigned to path position `pos`.
    pub fn stages_at(&self, pos: usize) -> Vec<usize> {
        self.stage_positions
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == pos)
            .map(|(j, _)| j)
            .collect()
    }

    /// The switch that classifies this sub-class: the head of its path.
    pub fn ingress(&self) -> usize {
        *self.path.first().expect("paths are non-empty")
    }

    /// Distinct switches whose host runs at least one stage, in path order.
    pub fn stage_hosts(&self) -> Vec<usize> {
        let mut v: Vec<usize> = Vec::new();
        for pos in self.host_positions() {
            if !v.contains(&self.path[pos]) {
                v.push(self.path[pos]);
            }
        }
        v
    }

    /// Priority bump for transport predicates: proto +1, ports +2.
    pub fn specificity(&self) -> u16 {
        u16::from(self.proto.is_some()) + 2 * u16::from(!self.dst_ports.is_empty())
    }
}

/// Everything the compiler needs about the deployed state, as plain data.
///
/// Snapshot order is the plan order: it decides catch-all election and the
/// canonical rule order, so producers must emit sub-classes in a stable
/// order (the control plane uses class-id order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CompilerSnapshot {
    /// All physical switches that get an APPLE table (the topology nodes).
    pub switches: Vec<usize>,
    /// Switches with an APPLE host attached (hosts in use).
    pub hosts: Vec<usize>,
    /// Instances that rewrite packet headers (§X source NAT).
    pub rewriters: Vec<InstanceId>,
    /// The deployed sub-classes, in plan order.
    pub subclasses: Vec<SubclassSpec>,
    /// Whether to compress classification with per-class catch-all rules.
    pub compress: bool,
}

/// The APPLE rules of one physical switch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwitchRules {
    /// The APPLE table, sorted by descending priority (stable).
    pub rules: Vec<TcamRule>,
    /// Whether an APPLE host hangs off this switch.
    pub has_host: bool,
}

impl SwitchRules {
    /// Billable TCAM slots (entries minus the free table-miss default).
    pub fn billable(&self) -> usize {
        self.rules
            .iter()
            .filter(|r| r.label != PASS_BY_LABEL)
            .count()
    }
}

/// A compiled rule program: the installable data-plane state, switch by
/// switch and host by host, in canonical order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RuleProgram {
    /// Per-switch APPLE tables.
    pub switches: BTreeMap<usize, SwitchRules>,
    /// Per-host vSwitch rules, in install (match-priority) order.
    pub hosts: BTreeMap<usize, Vec<VSwitchRule>>,
    /// Header-rewriting instances the walker must model.
    pub rewriters: BTreeSet<InstanceId>,
}

impl RuleProgram {
    /// Total rules across switches and hosts (the full-recompile cost in
    /// rule operations).
    pub fn rule_count(&self) -> usize {
        self.switches.values().map(|s| s.rules.len()).sum::<usize>()
            + self.hosts.values().map(Vec::len).sum::<usize>()
    }

    /// Total billable TCAM slots across all switches.
    pub fn billable_rules(&self) -> usize {
        self.switches.values().map(SwitchRules::billable).sum()
    }

    /// Billable TCAM slots per switch.
    pub fn billable_per_switch(&self) -> BTreeMap<usize, usize> {
        self.switches
            .iter()
            .map(|(&id, s)| (id, s.billable()))
            .collect()
    }

    /// Materialises the program as an executable [`NetworkWalker`].
    pub fn walker(&self) -> NetworkWalker {
        let mut w = NetworkWalker::new();
        for (&id, sr) in &self.switches {
            let mut sw = PhysicalSwitch::new(id, sr.has_host);
            for r in &sr.rules {
                // Rules are already in canonical priority order; install
                // preserves it (stable for equal priorities).
                sw.apple_table.install(r.clone());
            }
            w.add_switch(sw);
        }
        for (&v, rules) in &self.hosts {
            let mut vs = VSwitch::new(v);
            vs.replace_rules(rules.clone());
            w.add_host(vs);
        }
        for &i in &self.rewriters {
            w.add_rewriter(i);
        }
        w
    }
}

/// One transport-predicate variant: `(proto, dst_port)`, `None` = wildcard.
type Variant = (Option<u8>, Option<u16>);

fn predicate_variants(s: &SubclassSpec) -> Vec<Variant> {
    if s.dst_ports.is_empty() {
        vec![(s.proto, None)]
    } else {
        s.dst_ports.iter().map(|&p| (s.proto, Some(p))).collect()
    }
}

fn apply_variant(mut spec: MatchSpec, variant: Variant) -> MatchSpec {
    if let Some(p) = variant.0 {
        spec = spec.proto(p);
    }
    if let Some(port) = variant.1 {
        spec = spec.dst_port(port);
    }
    spec
}

/// Lowers one physical switch: the Table III pipeline scaffold (host-match
/// when `has_host`, pass-by always) plus the classification rules of
/// `ingress` — the sub-classes whose path starts at this switch, in plan
/// order.
///
/// Priorities: host-match 10 000, exact classification
/// `1000·specificity + 200`, catch-all `+150`, pass-by 0. Catch-all
/// election picks the first sub-class with a strict maximum of prefix
/// rules, kept only when it saves more than one rule. The election is per
/// class and a class's sub-classes share its path, so every candidate is
/// in `ingress`.
pub fn lower_switch<'a>(
    id: usize,
    has_host: bool,
    ingress: impl IntoIterator<Item = &'a SubclassSpec>,
    compress: bool,
) -> SwitchRules {
    let ingress: Vec<&SubclassSpec> = ingress.into_iter().collect();
    let mut sw = PhysicalSwitch::new(id, has_host);
    if has_host {
        sw.install_host_match();
    }
    sw.install_pass_by();

    // Catch-all election per class (plan order, strict maximum, > 1).
    let mut catch_all: BTreeMap<u64, u16> = BTreeMap::new();
    if compress {
        let mut best: BTreeMap<u64, (u16, usize)> = BTreeMap::new();
        for s in &ingress {
            let entry = best.entry(s.class).or_insert((s.sub, 0));
            if s.prefixes.len() > entry.1 {
                *entry = (s.sub, s.prefixes.len());
            }
        }
        for (class, (sid, count)) in best {
            if count > 1 {
                catch_all.insert(class, sid);
            }
        }
    }

    // Ingress classification rules (Table III rows 2 and 3).
    for s in ingress {
        debug_assert_eq!(s.ingress(), id, "sub-class lowered at a foreign ingress");
        let first_pos = s.host_positions().first().copied();
        // Specificity dominates the exact/catch-all split: a transport-
        // specific class's catch-all still beats a same-pair wildcard
        // class's exact rules.
        let specificity = s.specificity();
        let actions = match first_pos {
            Some(0) => vec![Action::SetSubclassTag(s.tag), Action::ForwardToHost],
            Some(i) => vec![
                Action::SetSubclassTag(s.tag),
                Action::SetHostTag(HostTag::Host(s.path[i] as u16)),
                Action::GotoNextTable,
            ],
            None => vec![
                Action::SetSubclassTag(s.tag),
                Action::SetHostTag(HostTag::Fin),
                Action::GotoNextTable,
            ],
        };
        if catch_all.get(&s.class) == Some(&s.sub) {
            for variant in predicate_variants(s) {
                let spec = apply_variant(
                    MatchSpec::any()
                        .host_tag(HostTag::Empty)
                        .src(s.src_prefix.0, s.src_prefix.1)
                        .dst(s.dst_prefix.0, s.dst_prefix.1),
                    variant,
                );
                sw.apple_table.install(TcamRule {
                    priority: 1_000 * specificity + 150,
                    spec,
                    actions: actions.clone(),
                    label: format!("classify {}/s{} (catch-all)", s.class_name, s.sub),
                });
            }
            continue;
        }
        for &(addr, len) in &s.prefixes {
            for variant in predicate_variants(s) {
                let spec = apply_variant(
                    MatchSpec::any()
                        .host_tag(HostTag::Empty)
                        .src(addr, len)
                        .dst(s.dst_prefix.0, s.dst_prefix.1),
                    variant,
                );
                sw.apple_table.install(TcamRule {
                    priority: 1_000 * specificity + 200,
                    spec,
                    actions: actions.clone(),
                    label: format!("classify {}/s{}", s.class_name, s.sub),
                });
            }
        }
    }
    SwitchRules {
        rules: sw.apple_table.iter().cloned().collect(),
        has_host,
    }
}

/// Lowers one host: the `<InPort, class, sub-class>` vSwitch steering
/// rules of `staged` — the sub-classes with a chain stage at this host, in
/// plan order — specific classes before wildcard siblings
/// (first-match-wins; stable sort by descending transport specificity).
pub fn lower_host<'a>(
    host: usize,
    staged: impl IntoIterator<Item = &'a SubclassSpec>,
) -> Vec<VSwitchRule> {
    let mut ordered: Vec<&SubclassSpec> = staged.into_iter().collect();
    ordered.sort_by_key(|s| std::cmp::Reverse(s.specificity()));
    let mut rules = Vec::new();
    for s in ordered {
        // Globally-tagged sub-classes match on the tag alone: their header
        // prefixes stop being valid once the rewriting NF has run (§X).
        let base_spec = if s.global {
            MatchSpec::any()
        } else {
            MatchSpec::any()
                .src(s.src_prefix.0, s.src_prefix.1)
                .dst(s.dst_prefix.0, s.dst_prefix.1)
        };
        let variants: Vec<Variant> = if s.global {
            vec![(None, None)]
        } else {
            predicate_variants(s)
        };
        let positions = s.host_positions();
        for (pi, &pos) in positions.iter().enumerate() {
            if s.path[pos] != host {
                continue;
            }
            let stages = s.stages_at(pos);
            let exit_tag = match positions.get(pi + 1) {
                Some(&next) => HostTag::Host(s.path[next] as u16),
                None => HostTag::Fin,
            };
            for &variant in &variants {
                let class_spec = apply_variant(base_spec, variant);
                let mut port = VPort::Network;
                for &j in &stages {
                    let inst = s.instances[j];
                    rules.push(VSwitchRule {
                        in_port: port,
                        spec: class_spec,
                        subclass: Some(s.tag),
                        set_host_tag: None,
                        set_subclass_tag: None,
                        verdict: VSwitchVerdict::ToVnf(inst),
                        label: format!("{}/s{} stage{j}", s.class_name, s.sub),
                    });
                    port = VPort::FromVnf(inst);
                }
                rules.push(VSwitchRule {
                    in_port: port,
                    spec: class_spec,
                    subclass: Some(s.tag),
                    set_host_tag: Some(exit_tag),
                    set_subclass_tag: None,
                    verdict: VSwitchVerdict::ToNetwork,
                    label: format!("{}/s{} exit@v{host}", s.class_name, s.sub),
                });
            }
        }
    }
    rules
}

/// Compiles a snapshot into the canonical rule program: [`lower_switch`]
/// over every switch and [`lower_host`] over every host in use (or hosting
/// a stage), each fed the sub-classes that touch it in plan order.
pub fn compile(snap: &CompilerSnapshot) -> RuleProgram {
    let host_set: BTreeSet<usize> = snap.hosts.iter().copied().collect();
    let mut by_ingress: BTreeMap<usize, Vec<&SubclassSpec>> = BTreeMap::new();
    let mut by_host: BTreeMap<usize, Vec<&SubclassSpec>> =
        host_set.iter().map(|&v| (v, Vec::new())).collect();
    for s in &snap.subclasses {
        by_ingress.entry(s.ingress()).or_default().push(s);
        for v in s.stage_hosts() {
            by_host.entry(v).or_default().push(s);
        }
    }
    let switch_ids: BTreeSet<usize> = snap.switches.iter().copied().collect();
    let switches: BTreeMap<usize, SwitchRules> = switch_ids
        .into_iter()
        .map(|id| {
            let ingress = by_ingress.remove(&id).unwrap_or_default();
            (
                id,
                lower_switch(id, host_set.contains(&id), ingress, snap.compress),
            )
        })
        .collect();
    assert!(
        by_ingress.is_empty(),
        "ingress switches {:?} are not in the snapshot",
        by_ingress.keys()
    );
    RuleProgram {
        switches,
        hosts: by_host
            .into_iter()
            .map(|(v, staged)| (v, lower_host(v, staged)))
            .collect(),
        rewriters: snap.rewriters.iter().copied().collect(),
    }
}

/// [`compile`] with a telemetry span (`dataplane.compile`) and a gauge of
/// the compiled program size.
pub fn compile_recorded(snap: &CompilerSnapshot, rec: &dyn Recorder) -> RuleProgram {
    let _span = rec.span("dataplane.compile");
    let prog = compile(snap);
    rec.counter("dataplane.rules_compiled", prog.rule_count() as u64);
    prog
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-switch line with one class (chain on the far host).
    fn tiny_snapshot() -> CompilerSnapshot {
        CompilerSnapshot {
            switches: vec![0, 1],
            hosts: vec![1],
            rewriters: Vec::new(),
            subclasses: vec![SubclassSpec {
                class: 0,
                class_name: "c0".into(),
                sub: 0,
                tag: 0,
                global: false,
                path: vec![0, 1],
                src_prefix: (0x0a00_0000, 24),
                dst_prefix: (0x0a00_0100, 24),
                proto: None,
                dst_ports: Vec::new(),
                prefixes: vec![(0x0a00_0000, 24)],
                stage_positions: vec![1],
                stage_nfs: vec![NfType::Firewall],
                instances: vec![InstanceId(0)],
            }],
            compress: true,
        }
    }

    #[test]
    fn compile_is_deterministic() {
        let snap = tiny_snapshot();
        assert_eq!(compile(&snap), compile(&snap));
    }

    #[test]
    fn tiny_program_walks_the_chain() {
        use crate::packet::Packet;
        use apple_topology::{NodeId, Path};

        let prog = compile(&tiny_snapshot());
        let w = prog.walker();
        let path = Path::new(vec![NodeId(0), NodeId(1)]).unwrap();
        let p = Packet::new(0x0a00_0001, 0x0a00_0101, 1000, 80, 6);
        let rec = w.walk(p, &path).expect("walk completes");
        assert_eq!(rec.instances, vec![InstanceId(0)]);
        assert_eq!(rec.packet.host_tag, HostTag::Fin);
        assert_eq!(rec.switches, vec![0, 1]);
    }

    #[test]
    fn catch_all_elected_only_with_multiple_prefixes() {
        let mut snap = tiny_snapshot();
        // One prefix → no catch-all, exact priority 200.
        let prog = compile(&snap);
        let labels: Vec<&str> = prog.switches[&0]
            .rules
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        assert!(labels.contains(&"classify c0/s0"));
        // Two prefixes → catch-all at priority 150 spanning the class /24.
        snap.subclasses[0].prefixes = vec![(0x0a00_0000, 25), (0x0a00_0080, 25)];
        let prog = compile(&snap);
        let rule = prog.switches[&0]
            .rules
            .iter()
            .find(|r| r.label.ends_with("(catch-all)"))
            .expect("catch-all elected");
        assert_eq!(rule.priority, 150);
    }

    #[test]
    fn global_subclasses_match_tag_only() {
        let mut snap = tiny_snapshot();
        snap.subclasses[0].global = true;
        snap.subclasses[0].tag = 0x8000;
        let prog = compile(&snap);
        let stage = &prog.hosts[&1][0];
        assert_eq!(stage.spec, MatchSpec::any());
        assert_eq!(stage.subclass, Some(0x8000));
    }

    #[test]
    fn billable_excludes_pass_by() {
        let prog = compile(&tiny_snapshot());
        // Switch 0: 1 classification rule. Switch 1: host-match only.
        assert_eq!(prog.billable_per_switch()[&0], 1);
        assert_eq!(prog.billable_per_switch()[&1], 1);
        // Each switch also carries the free pass-by default.
        assert_eq!(prog.switches[&0].rules.len(), 2);
    }
}
