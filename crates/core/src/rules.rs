//! The Rule Generator: turns a placement + sub-class plan into the concrete
//! data plane of §V-B — Table III TCAM programs on physical switches and
//! `<InPort, class, sub-class>` rules on host vSwitches — and accounts for
//! TCAM usage with and without the tagging scheme (Fig. 10).
//!
//! The generator launches instances, assigns sub-class stages to them and
//! lowers the result into a [`CompilerSnapshot`] ([`snapshot_of`]); the
//! rules themselves come from [`apple_dataplane::compiler::compile`], the
//! one Table III encoder.

use crate::classes::{ClassId, ClassSet, EquivalenceClass};
use crate::engine::Placement;
use crate::orchestrator::{OrchestratorError, ResourceOrchestrator};
use crate::subclass::SubclassPlan;
use apple_dataplane::compiler::{compile, CompilerSnapshot, RuleProgram, SubclassSpec};
use apple_nf::{InstanceId, NfType, VnfSpec};
use apple_topology::{NodeId, Topology};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from rule generation.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleGenError {
    /// Instance launch failed while realising the placement.
    Orchestration(OrchestratorError),
}

impl fmt::Display for RuleGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleGenError::Orchestration(e) => write!(f, "orchestration failed: {e}"),
        }
    }
}

impl std::error::Error for RuleGenError {}

impl From<OrchestratorError> for RuleGenError {
    fn from(e: OrchestratorError) -> Self {
        RuleGenError::Orchestration(e)
    }
}

/// Rule-generation options. It has no settable values: the generator
/// always pipelines the Table III tables (§V-B), gives the sub-classes of
/// header-rewriting chains global tags (§X), models the rewrite and
/// compresses classification. The type stays only because callers outside
/// this workspace pass it to [`generate_with`] and [`snapshot_of`]
/// (ROADMAP item 9(a)).
#[derive(Debug, Clone, Default)]
pub struct RuleGenConfig {}

/// Which VNF instance serves each (class, sub-class, chain stage).
#[derive(Debug, Clone, Default)]
pub struct InstanceAssignment {
    map: BTreeMap<(ClassId, u16, usize), InstanceId>,
    /// Offered load per instance in Mbps (sum of assigned sub-class rates).
    load: BTreeMap<InstanceId, f64>,
}

impl InstanceAssignment {
    /// Instance serving `(class, sub-class, stage)`.
    pub fn instance(&self, class: ClassId, sub: u16, stage: usize) -> Option<InstanceId> {
        self.map.get(&(class, sub, stage)).copied()
    }

    /// Offered load of an instance in Mbps.
    pub fn load_mbps(&self, id: InstanceId) -> f64 {
        self.load.get(&id).copied().unwrap_or(0.0)
    }

    /// All `(class, sub, stage) → instance` entries.
    pub fn entries(&self) -> impl Iterator<Item = (&(ClassId, u16, usize), &InstanceId)> {
        self.map.iter()
    }
}

/// TCAM accounting for Fig. 10.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TcamReport {
    /// Entries per switch with the tagging scheme.
    pub tagged_per_switch: BTreeMap<usize, usize>,
    /// Total entries with the tagging scheme.
    pub tagged_total: usize,
    /// Estimated total entries without tagging (per-hop header
    /// classification; replicated across ECMP siblings on multipath
    /// topologies).
    pub untagged_total: usize,
    /// Estimated total entries when the switch cannot pipeline and the
    /// APPLE table must be cross-producted with the routing table (§V-B).
    pub cross_product_total: usize,
}

impl TcamReport {
    /// The Fig. 10 metric: untagged / tagged.
    pub fn reduction_ratio(&self) -> f64 {
        if self.tagged_total == 0 {
            0.0
        } else {
            self.untagged_total as f64 / self.tagged_total as f64
        }
    }

    /// How much more TCAM the cross-product fallback needs than the
    /// pipelined layout.
    pub fn cross_product_penalty(&self) -> f64 {
        if self.tagged_total == 0 {
            0.0
        } else {
            self.cross_product_total as f64 / self.tagged_total as f64
        }
    }

    /// Estimated TCAM power draw in watts at `milliwatts_per_entry` —
    /// §III calls TCAM "a power-hungry and expensive resource"; published
    /// measurements put searched 36-bit entries around 10–15 mW each.
    pub fn power_watts(&self, milliwatts_per_entry: f64) -> f64 {
        self.tagged_total as f64 * milliwatts_per_entry / 1_000.0
    }

    /// Power the untagged deployment would draw at the same per-entry
    /// cost — the Fig. 10 savings expressed in watts.
    pub fn untagged_power_watts(&self, milliwatts_per_entry: f64) -> f64 {
        self.untagged_total as f64 * milliwatts_per_entry / 1_000.0
    }
}

/// The generated data plane: compiled rule program + assignment +
/// accounting.
#[derive(Debug, Clone)]
pub struct DataPlaneProgram {
    /// The compiled rules of every switch and host. Walk packets through
    /// [`RuleProgram::walker`] (the linear reference) or
    /// `CompiledProgram::new` (the fast path).
    pub rules: RuleProgram,
    /// Instance serving each sub-class stage.
    pub assignment: InstanceAssignment,
    /// TCAM accounting.
    pub tcam: TcamReport,
}

/// Estimated TCAM rule cost of steering one whole class through its chain
/// stages at the given on-path positions — the unit the online loop's
/// `online.rules_installed` counter and re-solve churn bound account in.
///
/// A class costs one classification rule per matched destination port (at
/// least one — port-less classes match on the wildcard pair predicate
/// alone) plus one steering rule per distinct on-path switch hosting a
/// stage (co-located consecutive stages share the switch's steering
/// entry, as the full generator's pipelined TCAM does).
pub fn online_rule_cost(class: &EquivalenceClass, stage_positions: &[usize]) -> usize {
    let classification = class.dst_ports.len().max(1);
    let mut hops: Vec<usize> = stage_positions.to_vec();
    hops.sort_unstable();
    hops.dedup();
    classification + hops.len()
}

/// Generates the data plane from classes, sub-classes and a placement.
///
/// The orchestrator is mutated: instances are launched according to the
/// placement's `q` counts.
///
/// # Errors
///
/// [`RuleGenError::Orchestration`] when instance launch fails.
pub fn generate(
    topo: &Topology,
    classes: &ClassSet,
    plan: &SubclassPlan,
    placement: &Placement,
    orch: &mut ResourceOrchestrator,
) -> Result<DataPlaneProgram, RuleGenError> {
    // 1. Launch instances per q.
    for (v, nf, count) in placement.q_entries() {
        for _ in 0..count {
            orch.launch(v, nf)?;
        }
    }
    // 2. Assign sub-class stages to instances (best-fit decreasing by
    //    load).
    let assignment = assign_instances(classes, plan, orch);

    // 3. Lower the deployed state through the data-plane compiler, the one
    //    Table III encoder. The pass-by rule is the table-miss default
    //    (costs no TCAM entry), so billing excludes it.
    let program = compile(&snapshot_of(
        topo,
        classes,
        plan,
        &assignment,
        orch,
        &RuleGenConfig::default(),
    )?);
    let tagged_per_switch = program.billable_per_switch();
    let tagged_total = tagged_per_switch.values().sum();
    let untagged_total = untagged_estimate(topo, classes, plan);
    // §V-B fallback: without pipelining, every APPLE entry is multiplied by
    // the routing table it must be cross-producted with, one rule per
    // destination switch.
    let routing_rules = topo.graph.node_count().saturating_sub(1).max(1);
    let cross_product_total: usize = tagged_per_switch
        .values()
        .map(|&billable| billable * routing_rules)
        .sum();
    Ok(DataPlaneProgram {
        rules: program,
        assignment,
        tcam: TcamReport {
            tagged_per_switch,
            tagged_total,
            untagged_total,
            cross_product_total,
        },
    })
}

/// [`generate`]; `config` is ignored. Kept only because callers outside
/// this workspace call it by name (ROADMAP item 9(a)).
///
/// # Errors
///
/// Same as [`generate`].
pub fn generate_with(
    topo: &Topology,
    classes: &ClassSet,
    plan: &SubclassPlan,
    placement: &Placement,
    orch: &mut ResourceOrchestrator,
    _config: &RuleGenConfig,
) -> Result<DataPlaneProgram, RuleGenError> {
    generate(topo, classes, plan, placement, orch)
}

/// Lowers the deployed state into a plain-data [`CompilerSnapshot`] for
/// the data-plane compiler; `config` is ignored.
///
/// `assignment` and `orch` must come from a prior [`generate`] run on the
/// same plan (the snapshot captures which instance serves each stage and
/// which hosts are in use). [`generate`] builds its own program as
/// [`compile`] of this snapshot, so transitions and the online loop that
/// compile later snapshots install deltas against the very rules the
/// generator produced.
///
/// # Errors
///
/// None: it is always `Ok`. The `Result` and `config` stay only because
/// callers outside this workspace use them (ROADMAP item 9(a)).
///
/// # Panics
///
/// When `assignment` does not cover every stage of every sub-class in the
/// plan (it always does for a matching [`generate`] output).
pub fn snapshot_of(
    topo: &Topology,
    classes: &ClassSet,
    plan: &SubclassPlan,
    assignment: &InstanceAssignment,
    orch: &ResourceOrchestrator,
    _config: &RuleGenConfig,
) -> Result<CompilerSnapshot, RuleGenError> {
    // §X: classes whose chain rewrites headers get globally-unique
    // sub-class tags (allocated from the top half of the tag space so they
    // never collide with per-class local ids), and the walker models the
    // rewrite at every instance of a rewriting NF.
    let mut global_tag: BTreeMap<(ClassId, u16), u16> = BTreeMap::new();
    let mut next: u16 = 0x8000;
    for s in plan.subclasses() {
        let class = classes
            .class(s.class)
            .expect("plan refers to known classes");
        let rewrites = class
            .chain
            .nfs()
            .iter()
            .any(|&nf| VnfSpec::of(nf).rewrites_headers());
        if rewrites {
            global_tag.insert((s.class, s.id), next);
            next = next
                .checked_add(1)
                .expect("fewer than 32k rewritten sub-classes");
        }
    }
    let mut rewriters: Vec<InstanceId> = Vec::new();
    for (&(class, _sub, stage), &inst) in assignment.entries() {
        let nf = classes
            .class(class)
            .expect("assignment refers to known classes")
            .chain
            .nfs()[stage];
        if VnfSpec::of(nf).rewrites_headers() {
            rewriters.push(inst);
        }
    }
    rewriters.sort_unstable();
    rewriters.dedup();
    let subclasses = plan
        .subclasses()
        .iter()
        .map(|s| {
            let class = classes
                .class(s.class)
                .expect("plan refers to known classes");
            let instances: Vec<InstanceId> = (0..s.stage_positions.len())
                .map(|j| {
                    assignment
                        .instance(s.class, s.id, j)
                        .expect("assignment covers every stage")
                })
                .collect();
            SubclassSpec {
                class: s.class.0 as u64,
                class_name: s.class.to_string(),
                sub: s.id,
                tag: global_tag.get(&(s.class, s.id)).copied().unwrap_or(s.id),
                global: global_tag.contains_key(&(s.class, s.id)),
                path: class.path.iter().map(|n| n.0).collect(),
                src_prefix: class.src_prefix,
                dst_prefix: class.dst_prefix,
                proto: class.proto,
                dst_ports: class.dst_ports.clone(),
                prefixes: s.prefixes.clone(),
                stage_positions: s.stage_positions.clone(),
                stage_nfs: class.chain.nfs().to_vec(),
                instances,
            }
        })
        .collect();
    Ok(CompilerSnapshot {
        switches: topo.graph.node_ids().map(|n| n.0).collect(),
        hosts: orch.hosts_in_use().into_iter().collect(),
        rewriters,
        subclasses,
        compress: true,
    })
}

/// Best-fit-decreasing assignment of sub-class stage loads to instances.
fn assign_instances(
    classes: &ClassSet,
    plan: &SubclassPlan,
    orch: &ResourceOrchestrator,
) -> InstanceAssignment {
    // Collect (load, class, sub, stage, switch, nf) jobs.
    struct Job {
        load: f64,
        class: ClassId,
        sub: u16,
        stage: usize,
        switch: usize,
        nf: NfType,
    }
    let mut jobs = Vec::new();
    for s in plan.subclasses() {
        let class = classes
            .class(s.class)
            .expect("plan refers to known classes");
        for (j, &pos) in s.stage_positions.iter().enumerate() {
            jobs.push(Job {
                load: class.rate_mbps * s.fraction(),
                class: s.class,
                sub: s.id,
                stage: j,
                switch: class.path.nodes()[pos].0,
                nf: class.chain.nfs()[j],
            });
        }
    }
    jobs.sort_by(|a, b| {
        b.load
            .partial_cmp(&a.load)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut asg = InstanceAssignment::default();
    for job in jobs {
        let cands = orch.instances_at(NodeId(job.switch), job.nf);
        let cap = VnfSpec::of(job.nf).capacity_mbps;
        // Best fit: the fullest instance that still fits; else least loaded.
        let mut best_fit: Option<(InstanceId, f64)> = None;
        let mut least: Option<(InstanceId, f64)> = None;
        for id in cands {
            let l = asg.load_mbps(id);
            if l + job.load <= cap + 1e-6 {
                match best_fit {
                    Some((_, bl)) if bl >= l => {}
                    _ => best_fit = Some((id, l)),
                }
            }
            match least {
                Some((_, ll)) if ll <= l => {}
                _ => least = Some((id, l)),
            }
        }
        let chosen = best_fit.or(least);
        if let Some((id, _)) = chosen {
            *asg.load.entry(id).or_insert(0.0) += job.load;
            asg.map.insert((job.class, job.sub, job.stage), id);
        }
        // A missing instance means the placement omitted q for a used
        // (switch, NF) — the engine's constraints prevent this; leave the
        // map entry absent so the walker surfaces it loudly.
    }
    asg
}

/// What makes two classes ECMP siblings: the same OD pair and the same
/// policy (chain and transport predicates) on different paths.
type SiblingKey<'a> = ((NodeId, NodeId), &'a [NfType], Option<u8>, &'a [u16]);

fn sibling_key(c: &EquivalenceClass) -> SiblingKey<'_> {
    (c.od_pair(), c.chain.nfs(), c.proto, &c.dst_ports)
}

/// ECMP sibling count per [`SiblingKey`]: how many paths of its OD pair
/// carry each policy's traffic.
fn ecmp_siblings(classes: &ClassSet) -> BTreeMap<SiblingKey<'_>, usize> {
    let mut siblings = BTreeMap::new();
    for c in classes {
        *siblings.entry(sibling_key(c)).or_insert(0) += 1;
    }
    siblings
}

/// TCAM cost without the tagging scheme.
///
/// Without host/sub-class tags a switch cannot tell whether a packet has
/// already been processed, so the sub-class classification rules must be
/// present at **every switch on the flow's path** (the "duplicated
/// classifications" §V-B avoids). On multipath topologies they are further
/// replicated across all ECMP sibling paths of the class, because the
/// hash-selected path is unknown to the controller — the Fig. 10 reason
/// UNIV1 benefits most.
fn untagged_estimate(topo: &Topology, classes: &ClassSet, plan: &SubclassPlan) -> usize {
    let siblings = ecmp_siblings(classes);
    // Per-class rule counts, with the same default-rule compression the
    // tagging scheme benefits from (fair comparison).
    let mut per_class: BTreeMap<ClassId, (usize, usize)> = BTreeMap::new(); // (total, max)
    for s in plan.subclasses() {
        let class = classes
            .class(s.class)
            .expect("plan refers to known classes");
        let variants = class.dst_ports.len().max(1);
        let rules = s.prefixes.len().max(1) * variants;
        let entry = per_class.entry(s.class).or_insert((0, 0));
        entry.0 += rules;
        entry.1 = entry.1.max(rules);
    }
    let mut total = 0usize;
    for (class_id, (rules_total, rules_max)) in per_class {
        let class = classes
            .class(class_id)
            .expect("plan refers to known classes");
        let rules = if rules_max > 1 {
            rules_total - rules_max + 1
        } else {
            rules_total
        };
        let hops = class.path.len();
        let replicas = if topo.multipath {
            siblings[&sibling_key(class)]
        } else {
            1
        };
        total += rules * hops * replicas;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::ClassConfig;
    use crate::engine::{EngineConfig, OptimizationEngine};
    use crate::subclass::SplitStrategy;
    use apple_dataplane::packet::{HostTag, Packet};
    use apple_topology::zoo;
    use apple_traffic::GravityModel;

    fn build(topo: &Topology, total_mbps: f64, max_classes: usize) -> (ClassSet, DataPlaneProgram) {
        let tm = GravityModel::new(total_mbps, 17).base_matrix(topo);
        let classes = ClassSet::build(
            topo,
            &tm,
            &ClassConfig {
                max_classes,
                ..Default::default()
            },
        );
        let prog = deploy(topo, &classes, |_| {});
        (classes, prog)
    }

    /// Plans and generates `classes` on `topo`, then recompiles the rules
    /// from the generator's snapshot after `edit` has changed it. Editing
    /// the snapshot is how the tests reach the rule shapes the generator
    /// itself never emits. The TCAM report stays the generator's.
    fn deploy(
        topo: &Topology,
        classes: &ClassSet,
        edit: impl FnOnce(&mut CompilerSnapshot),
    ) -> DataPlaneProgram {
        let mut orch = ResourceOrchestrator::with_uniform_hosts(topo, 64);
        let placement = OptimizationEngine::new(EngineConfig::default())
            .place(classes, &orch)
            .unwrap();
        let plan = SubclassPlan::derive(classes, &placement, SplitStrategy::PrefixSplit);
        let mut prog = generate(topo, classes, &plan, &placement, &mut orch).unwrap();
        let config = RuleGenConfig::default();
        let mut snapshot =
            snapshot_of(topo, classes, &plan, &prog.assignment, &orch, &config).unwrap();
        edit(&mut snapshot);
        prog.rules = compile(&snapshot);
        prog
    }

    /// A semantic oracle independent of how rules are lowered: a probe
    /// packet of every class, carrying the class's transport predicate,
    /// traverses exactly the class's path, meets its chain in order and
    /// leaves tagged `Fin`.
    #[test]
    fn every_class_walks_its_chain_in_order() {
        use crate::policy_spec::PolicySpec;
        use apple_topology::zoo::TopologyKind;

        let mut cases = Vec::new();
        for kind in TopologyKind::all() {
            let topo = kind.build();
            let tm = GravityModel::new(2_000.0, 17).base_matrix(&topo);
            let cfg = ClassConfig {
                max_classes: 12,
                ..Default::default()
            };
            for compress in [true, false] {
                let name = format!("{kind} compress={compress}");
                cases.push((
                    name,
                    topo.clone(),
                    ClassSet::build(&topo, &tm, &cfg),
                    compress,
                ));
            }
        }
        let topo = zoo::internet2();
        let tm = GravityModel::new(2_000.0, 17).base_matrix(&topo);
        let policies = ClassSet::build_with_policies(
            &topo,
            &tm,
            &PolicySpec::example(),
            &ClassConfig {
                max_classes: 40,
                ..Default::default()
            },
        );
        cases.push(("Internet2 policies".into(), topo, policies, true));

        for (name, topo, classes, compress) in cases {
            let prog = deploy(&topo, &classes, |s| s.compress = compress);
            let walker = prog.rules.walker();
            for class in &classes {
                // Port-less classes get a port no example policy matches.
                let port = class.dst_ports.first().copied().unwrap_or(9);
                let proto = class.proto.unwrap_or(6);
                let p = Packet::new(
                    class.src_prefix.0 | 1,
                    class.dst_prefix.0 | 1,
                    40_000,
                    port,
                    proto,
                );
                let rec = walker.walk(p, &class.path).unwrap();
                // Policy enforcement: NF sequence matches the chain.
                let nfs: Vec<NfType> = rec
                    .instances
                    .iter()
                    .map(|&id| {
                        // Look the NF up through the assignment's reverse map.
                        prog.assignment
                            .entries()
                            .find(|(_, &i)| i == id)
                            .map(|((c, _, j), _)| classes.class(*c).unwrap().chain.nfs()[*j])
                            .expect("walked instances come from the assignment")
                    })
                    .collect();
                assert_eq!(
                    nfs,
                    class.chain.nfs().to_vec(),
                    "{name}: chain mismatch for {} ({})",
                    class.id,
                    class.chain
                );
                // Interference freedom: the switch trajectory equals the path.
                let expect: Vec<usize> = class.path.iter().map(|n| n.0).collect();
                assert_eq!(rec.switches, expect, "{name}: {} strayed", class.id);
                // Completion: packet tagged Fin.
                assert_eq!(rec.packet.host_tag, HostTag::Fin, "{name}: {}", class.id);
            }
        }
    }

    #[test]
    fn tagging_reduces_tcam() {
        let topo = zoo::internet2();
        let (_, prog) = build(&topo, 2_000.0, 12);
        assert!(prog.tcam.tagged_total > 0);
        assert!(
            prog.tcam.reduction_ratio() > 1.0,
            "tagging must reduce TCAM: {:?}",
            prog.tcam
        );
    }

    /// Fig. 10 replicates a class's untagged rules over its ECMP siblings:
    /// one per equal-cost path of its OD pair, however many policies split
    /// the pair's traffic.
    #[test]
    fn ecmp_replicas_count_paths_not_policies() {
        use crate::policy_spec::PolicySpec;
        use apple_topology::ksp;
        let topo = zoo::univ1();
        let tm = GravityModel::new(2_000.0, 17).base_matrix(&topo);
        let cfg = ClassConfig::default();
        let synthetic = ClassSet::build(&topo, &tm, &cfg);
        let policies = ClassSet::build_with_policies(&topo, &tm, &PolicySpec::example(), &cfg);
        for classes in [synthetic, policies] {
            let siblings = ecmp_siblings(&classes);
            for class in &classes {
                let (src, dst) = class.od_pair();
                let paths = ksp::ecmp_paths(&topo.graph, src, dst, cfg.ecmp_limit).len();
                assert_eq!(siblings[&sibling_key(class)], paths, "{}", class.id);
            }
        }
    }

    #[test]
    fn univ1_reduction_larger_than_backbone() {
        let i2 = zoo::internet2();
        let (_, pi2) = build(&i2, 2_000.0, 12);
        let dc = zoo::univ1();
        let (_, pdc) = build(&dc, 2_000.0, 24);
        assert!(
            pdc.tcam.reduction_ratio() > pi2.tcam.reduction_ratio(),
            "UNIV1 {} <= Internet2 {}",
            pdc.tcam.reduction_ratio(),
            pi2.tcam.reduction_ratio()
        );
    }

    #[test]
    fn instance_loads_within_capacity() {
        let topo = zoo::internet2();
        let (_, prog) = build(&topo, 2_000.0, 12);
        let mut seen = std::collections::BTreeSet::new();
        for (_, &id) in prog.assignment.entries() {
            seen.insert(id);
        }
        for id in seen {
            let load = prog.assignment.load_mbps(id);
            // Capacity is at most 900 Mbps (the largest in Table IV); a 2 %
            // sliver of slack covers 1/256 sub-class quantisation plus
            // best-fit fragmentation.
            assert!(load <= 900.0 * 1.02, "instance {id} overloaded: {load}");
        }
    }

    /// Builds a deployment with a single NAT -> Firewall class so the §X
    /// header-rewrite machinery is exercised deterministically.
    fn nat_deployment(edit: impl FnOnce(&mut CompilerSnapshot)) -> (ClassSet, DataPlaneProgram) {
        use crate::classes::{ClassId, EquivalenceClass};
        use crate::policy::PolicyChain;
        use apple_topology::Path;
        use apple_traffic::Flow;
        let topo = zoo::line(3);
        let path = Path::new(vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap();
        let class = EquivalenceClass {
            id: ClassId(0),
            path,
            chain: PolicyChain::new(vec![NfType::Nat, NfType::Firewall]).unwrap(),
            rate_mbps: 200.0,
            src_prefix: (Flow::prefix_of(NodeId(0)), 24),
            dst_prefix: (Flow::prefix_of(NodeId(2)), 24),
            proto: None,
            dst_ports: Vec::new(),
        };
        let classes = ClassSet::from_classes(vec![class]);
        let prog = deploy(&topo, &classes, edit);
        (classes, prog)
    }

    #[test]
    fn rewriting_chain_completes_with_global_tags() {
        let (classes, prog) = nat_deployment(|_| {});
        let class = &classes.classes()[0];
        let p = Packet::new(class.src_prefix.0 | 1, class.dst_prefix.0 | 1, 1, 80, 6);
        let rec = prog.rules.walker().walk(p, &class.path).unwrap();
        assert_eq!(rec.instances.len(), 2, "chain incomplete");
        assert_eq!(rec.packet.host_tag, HostTag::Fin);
        // The NAT actually rewrote the source out of the class prefix.
        assert_ne!(rec.packet.src_ip & 0xffff_ff00, class.src_prefix.0);
        // And the sub-class tag is from the global space.
        assert!(rec.packet.subclass_tag.unwrap() >= 0x8000);
    }

    #[test]
    fn rewriting_chain_breaks_without_global_tags() {
        // The §X failure mode: with class-local tags every vSwitch rule
        // after the NAT still matches on the class's source prefix, which
        // the rewrite has just left — so even with both stages co-located,
        // the rule steering the packet on from the NAT at the first host
        // (switch 0) misses.
        use apple_dataplane::walk::WalkError;
        let (classes, prog) = nat_deployment(|snapshot| {
            for spec in &mut snapshot.subclasses {
                spec.tag = spec.sub;
                spec.global = false;
            }
        });
        let class = &classes.classes()[0];
        let p = Packet::new(class.src_prefix.0 | 1, class.dst_prefix.0 | 1, 1, 80, 6);
        assert_eq!(
            prog.rules.walker().walk(p, &class.path),
            Err(WalkError::VSwitchNoMatch(0))
        );
    }

    #[test]
    fn compression_shrinks_tables_without_changing_semantics() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(2_000.0, 17).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 12,
                ..Default::default()
            },
        );
        let build_with = |compress: bool| deploy(&topo, &classes, |s| s.compress = compress).rules;
        let on = build_with(true);
        let off = build_with(false);
        let billed = |rules: &RuleProgram| rules.billable_per_switch().values().sum::<usize>();
        assert!(
            billed(&on) <= billed(&off),
            "compression grew the table: {} vs {}",
            billed(&on),
            billed(&off)
        );
        // Semantics: identical walks either way.
        let (on, off) = (on.walker(), off.walker());
        for class in &classes {
            let p = Packet::new(class.src_prefix.0 | 200, class.dst_prefix.0 | 3, 5, 80, 6);
            let a = on.walk(p, &class.path).unwrap();
            let b = off.walk(p, &class.path).unwrap();
            assert_eq!(a.switches, b.switches);
            assert_eq!(a.packet.host_tag, HostTag::Fin);
            assert_eq!(b.packet.host_tag, HostTag::Fin);
        }
    }

    #[test]
    fn power_scales_with_entries() {
        let topo = zoo::internet2();
        let (_, prog) = build(&topo, 2_000.0, 12);
        let t = &prog.tcam;
        let p = t.power_watts(12.0);
        assert!((p - t.tagged_total as f64 * 0.012).abs() < 1e-12);
        assert!(t.untagged_power_watts(12.0) > p, "tagging must save power");
    }

    #[test]
    fn cross_product_accounting_multiplies() {
        let topo = zoo::internet2();
        let (_, prog) = build(&topo, 2_000.0, 12);
        let t = &prog.tcam;
        assert_eq!(
            t.cross_product_total,
            t.tagged_per_switch
                .values()
                .map(|b| b * (topo.graph.node_count() - 1))
                .sum::<usize>()
        );
        assert!(t.cross_product_penalty() > 1.0);
    }

    #[test]
    fn unpoliced_traffic_passes_untouched() {
        let topo = zoo::internet2();
        let (classes, prog) = build(&topo, 2_000.0, 12);
        // Source outside any class prefix.
        let path = &classes.classes()[0].path;
        let p = Packet::new(0xc0a80001, 0xc0a80002, 1, 2, 6);
        let rec = prog.rules.walker().walk(p, path).unwrap();
        assert!(rec.instances.is_empty());
    }
}
