//! Packet-level differential conformance battery for the incremental
//! data-plane rule compiler (DESIGN.md §10).
//!
//! Every case builds two [`CompilerSnapshot`]s of the same deployment —
//! before and after a structured mutation (instance churn, sub-class
//! departure, crash-driven online re-placement) — and runs
//! [`differential_conformance_with`]: replay a probe packet per sub-class
//! prefix at **every** intermediate barrier of the incremental update
//! plan, requiring each walk to be bitwise-old, bitwise-new, or a
//! chain-consistent mix, and the final patched program to equal the full
//! recompile rule-for-rule.
//!
//! Cases span seeds × three evaluation topologies (Internet2, GEANT,
//! UNIV1), both mutation directions (the diff is not symmetric: growth
//! exercises the additive phases, shrinkage the subtractive ones), and an
//! online crash/churn interleaving. One case holds the compiler's
//! operation-count claim (a single-sub-class churn on AS-3679 costs at
//! least 10x fewer rule ops than a reinstall). Pinned-seed regressions at
//! the bottom freeze exact report counts so a quiet change in barrier
//! structure shows up as a diff, not a silent pass.

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
use apple_nfv::core::online::{OnlineConfig, OrchestrationLoop};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::core::rules::{generate, snapshot_of, RuleGenConfig};
use apple_nfv::core::subclass::{SplitStrategy, SubclassPlan};
use apple_nfv::dataplane::compiler::{compile, CompilerSnapshot};
use apple_nfv::dataplane::diff::diff;
use apple_nfv::nf::InstanceId;
use apple_nfv::sim::{differential_conformance_with, ConformanceReport, WalkEngineConfig};
use apple_nfv::telemetry::NOOP;
use apple_nfv::topology::{zoo, NodeId, Topology};
use apple_nfv::traffic::arrivals::{ArrivalConfig, EventTimeline, FlowEventKind};
use apple_nfv::traffic::GravityModel;
use apple_rng::{Rng, SeedableRng, StdRng};

/// Base seed for this file; each case perturbs it by its index.
const SEED: u64 = 0xc04f_041a;

/// Plans a deployment offline and lowers it into a compiler snapshot.
fn offline_snapshot(topo: &Topology, tm_seed: u64, max_classes: usize) -> CompilerSnapshot {
    let tm = GravityModel::new(1_800.0, tm_seed).base_matrix(topo);
    let classes = ClassSet::build(
        topo,
        &tm,
        &ClassConfig {
            max_classes,
            ..Default::default()
        },
    );
    let mut orch = ResourceOrchestrator::with_uniform_hosts(topo, 64);
    let placement = OptimizationEngine::new(EngineConfig::default())
        .place(&classes, &orch)
        .expect("pinned conformance seeds are feasible");
    let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
    let prog = generate(topo, &classes, &plan, &placement, &mut orch)
        .expect("rule generation succeeds on a feasible placement");
    let config = RuleGenConfig::default();
    snapshot_of(topo, &classes, &plan, &prog.assignment, &orch, &config)
        .expect("snapshot lowering succeeds")
}

/// Instance churn: one chain stage of one sub-class re-served by a fresh
/// instance (same NF type — the stage keeps its `stage_nfs` entry).
fn churn_instance(snap: &CompilerSnapshot, rng: &mut StdRng) -> CompilerSnapshot {
    let mut out = snap.clone();
    let fresh = out
        .subclasses
        .iter()
        .flat_map(|s| s.instances.iter())
        .map(|i| i.0)
        .max()
        .map_or(0, |m| m + 1);
    // Rotate over sub-classes until one with a non-empty chain is found.
    let total = out.subclasses.len();
    let start = rng.gen_range(0..total);
    for off in 0..total {
        let s = &mut out.subclasses[(start + off) % total];
        if !s.instances.is_empty() {
            let j = rng.gen_range(0..s.instances.len());
            s.instances[j] = InstanceId(fresh);
            return out;
        }
    }
    panic!("deployment has no sub-class with instances to churn");
}

/// Sub-class departure: one sub-class's slice of traffic stops being
/// enforced (its classification, stage and exit rules must all unwind).
fn drop_subclass(snap: &CompilerSnapshot, rng: &mut StdRng) -> CompilerSnapshot {
    let mut out = snap.clone();
    let k = rng.gen_range(0..out.subclasses.len());
    out.subclasses.remove(k);
    out
}

/// A conformance report is internally consistent: every walk at every
/// barrier was classified exactly once.
fn assert_accounted(report: &ConformanceReport, ctx: &str) {
    assert_eq!(
        report.walks,
        report.old_exact + report.new_exact + report.mixed,
        "{ctx}: walk accounting leak"
    );
    assert_eq!(
        report.walks,
        report.barriers * report.probes,
        "{ctx}: barriers x probes mismatch"
    );
}

/// The tentpole battery: seeds × three topologies × two structured
/// mutations, both directions each.
#[test]
fn structured_mutations_conform_across_topologies() {
    for (t, topo) in [zoo::internet2(), zoo::geant(), zoo::univ1()]
        .iter()
        .enumerate()
    {
        for case in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(SEED ^ (0x10 * t as u64 + case));
            let base = offline_snapshot(topo, 300 + case, 8);
            let churned = churn_instance(&base, &mut rng);
            let shrunk = drop_subclass(&base, &mut rng);
            for (label, old, new) in [
                ("churn fwd", &base, &churned),
                ("churn rev", &churned, &base),
                ("drop fwd", &base, &shrunk),
                ("drop rev", &shrunk, &base),
            ] {
                let ctx = format!("topology {t} case {case} {label}");
                let report = differential_conformance_with(old, new, &WalkEngineConfig::default())
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_accounted(&report, &ctx);
                assert!(report.barriers > 0, "{ctx}: mutation produced no plan");
                assert!(report.new_exact > 0, "{ctx}: no probe reached new state");
            }
        }
    }
}

/// A no-op mutation diffs to an empty plan: zero barriers, nothing to
/// conform, and the identity report proves the battery is not vacuous.
#[test]
fn identity_snapshots_have_no_barriers() {
    let topo = zoo::internet2();
    let snap = offline_snapshot(&topo, 300, 8);
    let report = differential_conformance_with(&snap, &snap, &WalkEngineConfig::default())
        .expect("identity conforms");
    assert_eq!(report.barriers, 0);
    assert_eq!(report.walks, 0);
    assert!(report.probes > 0, "probe generation must not be empty");
}

/// Online crash/churn interleaving: stream a seeded timeline through the
/// loop, crash a live instance partway, and check conformance between
/// every pair of consecutive post-sync snapshots the loop served.
#[test]
fn online_crash_interleavings_conform() {
    let topo = zoo::internet2();
    let pairs: Vec<(NodeId, NodeId)> = (0..4)
        .flat_map(|s| (4..7).map(move |d| (NodeId(s), NodeId(d))))
        .collect();
    for case in 0..2u64 {
        let arrivals = ArrivalConfig {
            arrival_rate: 1.0,
            mean_duration_secs: 8.0,
            mean_rate_mbps: 10.0,
            seed: SEED ^ (0x100 + case),
        };
        let timeline = EventTimeline::generate(&pairs, &arrivals, 14.0);
        assert!(!timeline.is_empty(), "case {case}: no events");
        let cfg = OnlineConfig {
            class_cfg: ClassConfig::default(),
            resolve_every: 150,
            max_churn: 64,
            ..Default::default()
        };
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut looper = OrchestrationLoop::new(&topo, orch, cfg);
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x200 + case));
        // Crash a live instance at two interior points of the timeline.
        let crash_at: Vec<usize> = vec![timeline.len() / 3, 2 * timeline.len() / 3];
        let mut prev = looper.dataplane_snapshot().expect("always a snapshot");
        let mut synced = 0u64;
        for (n, event) in timeline.events().iter().enumerate() {
            let step = looper.step(event, &NOOP);
            if crash_at.contains(&n) {
                let live: Vec<InstanceId> =
                    looper.orchestrator().instances().map(|i| i.id()).collect();
                if !live.is_empty() {
                    let victim = live[rng.gen_range(0..live.len())];
                    looper.handle_instance_crash(victim, &NOOP);
                }
            }
            if step.dataplane_ops == 0 && !matches!(event.kind, FlowEventKind::Departure) {
                continue;
            }
            let next = looper.dataplane_snapshot().expect("always a snapshot");
            let ctx = format!("case {case} event {n}");
            let report = differential_conformance_with(&prev, &next, &WalkEngineConfig::default())
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_accounted(&report, &ctx);
            synced += report.barriers as u64;
            prev = next;
        }
        assert!(synced > 0, "case {case}: timeline never changed the rules");
        assert_eq!(
            looper.dataplane_program().billable_rules(),
            0,
            "case {case}: drained timeline left billable rules installed"
        );
    }
}

/// The incremental compiler's acceptance claim: re-serving one chain
/// stage of one sub-class on an AS-3679 deployment costs at least 10x
/// fewer rule operations than reinstalling the whole program.
#[test]
fn single_subclass_churn_on_as3679_beats_reinstall_tenfold() {
    let topo = zoo::as3679();
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x3679);
    let base = offline_snapshot(&topo, 300, 24);
    let after = compile(&churn_instance(&base, &mut rng));
    let plan = diff(&compile(&base), &after);
    let (churn_ops, full_ops) = (plan.op_count(), after.rule_count());
    assert!(churn_ops > 0, "churn produced no plan");
    assert!(
        full_ops >= 10 * churn_ops,
        "churn costs {churn_ops} ops against {full_ops} for a reinstall"
    );
}

/// The whole-program entry points are the all-devices case of the
/// per-device ones the online loop calls, on planned deployments of all
/// four topologies: every switch and host of `compile(snapshot)` is what
/// lowering that device alone from just the sub-classes that touch it
/// yields, and `diff` is what the scoped differ emits when handed only the
/// devices that differ and a target holding only those.
#[test]
fn per_device_lowering_and_scoped_diff_equal_the_whole_program() {
    use apple_nfv::dataplane::compiler::{lower_host, lower_switch, RuleProgram};
    use apple_nfv::dataplane::diff::{diff_scoped, DiffScope};

    let topologies = [zoo::internet2(), zoo::geant(), zoo::univ1(), zoo::as3679()];
    for (t, topo) in topologies.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x500 + t as u64));
        let base = offline_snapshot(topo, 300, 12);
        let prog = compile(&base);
        for (&id, rules) in &prog.switches {
            let ingress = base.subclasses.iter().filter(|s| s.ingress() == id);
            assert_eq!(
                &lower_switch(id, rules.has_host, ingress, base.compress),
                rules,
                "{:?}: switch {id}",
                topo.kind
            );
        }
        for (&v, rules) in &prog.hosts {
            let staged = base
                .subclasses
                .iter()
                .filter(|s| s.stage_hosts().contains(&v));
            assert_eq!(&lower_host(v, staged), rules, "{:?}: host {v}", topo.kind);
        }

        for (label, after) in [
            ("churn", churn_instance(&base, &mut rng)),
            ("drop", drop_subclass(&base, &mut rng)),
        ] {
            let after = compile(&after);
            for (old, new) in [(&prog, &after), (&after, &prog)] {
                let whole = diff(old, new);
                assert!(!whole.is_empty(), "{:?} {label}: no plan", topo.kind);
                // Only what differs, in the scope and in the target.
                let all = DiffScope::all(old, new);
                let scope = DiffScope {
                    switches: (all.switches.iter().copied())
                        .filter(|id| old.switches.get(id) != new.switches.get(id))
                        .collect(),
                    hosts: (all.hosts.iter().copied())
                        .filter(|v| old.hosts.get(v) != new.hosts.get(v))
                        .collect(),
                    rewriters: (old.rewriters.symmetric_difference(&new.rewriters).copied())
                        .collect(),
                };
                assert!(scope.switches.len() + scope.hosts.len() < all.switches.len());
                let target = RuleProgram {
                    switches: (new.switches.iter())
                        .filter(|(id, _)| scope.switches.contains(id))
                        .map(|(&id, rules)| (id, rules.clone()))
                        .collect(),
                    hosts: (new.hosts.iter())
                        .filter(|(v, _)| scope.hosts.contains(v))
                        .map(|(&v, rules)| (v, rules.clone()))
                        .collect(),
                    rewriters: new.rewriters.clone(),
                };
                assert_eq!(
                    diff_scoped(old, &target, &scope, &NOOP),
                    whole,
                    "{:?} {label}: scoped plan",
                    topo.kind
                );
            }
        }
    }
}

/// Pinned-seed regression: exact report counts for one frozen
/// Internet2 churn step. A change in probe generation, barrier phasing or
/// walk classification moves these numbers and must be reviewed, not
/// silently absorbed.
#[test]
fn pinned_seed_regression_counts() {
    let topo = zoo::internet2();
    let mut rng = StdRng::seed_from_u64(SEED);
    let base = offline_snapshot(&topo, 300, 8);
    let churned = churn_instance(&base, &mut rng);
    let fwd = differential_conformance_with(&base, &churned, &WalkEngineConfig::default())
        .expect("pinned churn conforms");
    let rev = differential_conformance_with(&churned, &base, &WalkEngineConfig::default())
        .expect("pinned reverse conforms");
    assert_accounted(&fwd, "pinned fwd");
    assert_accounted(&rev, "pinned rev");
    // Frozen by SEED and the tm seed: update deliberately when the
    // compiler's barrier structure or the planned placement changes.
    assert_eq!((fwd.barriers, fwd.probes), (rev.barriers, rev.probes));
    assert_eq!(fwd, rev, "churn conformance must be direction-symmetric");
    let snap = format!(
        "barriers={} probes={} walks={} old={} new={} mixed={}",
        fwd.barriers, fwd.probes, fwd.walks, fwd.old_exact, fwd.new_exact, fwd.mixed
    );
    assert_eq!(
        snap, "barriers=3 probes=23 walks=69 old=1 new=68 mixed=0",
        "pinned conformance counts moved"
    );
}
