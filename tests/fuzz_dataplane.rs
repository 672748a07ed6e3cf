//! Fuzz-style tests for the programmed data plane and the sub-class
//! coupling, driven by seeded `apple_rng` streams (see `tests/README.md`).
//!
//! * arbitrary packets (any header) walked along any class path terminate
//!   without error and without leaving the path,
//! * packets inside a class's prefix always complete that class's chain,
//! * hostile update plans are survivable: empty diffs bill nothing,
//!   delete-then-re-add of a sub-class round-trips bitwise, and TCAM
//!   capacity exhaustion mid-plan fails atomically at a barrier boundary
//!   with every original chain still enforced,
//! * the inverse-CDF coupling produces valid monotone sub-classes for
//!   *any* feasible fractional distribution, not just engine outputs,
//! * the online loop's O(delta) sync is the whole-program recompute: on a
//!   hostile schedule every sync commits, batch for batch, the plan a full
//!   compile and a whole-program diff emit, with the whole-state tag
//!   allocation and a fast-path mirror equal to a fresh compile.

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::rules::{snapshot_of, RuleGenConfig};
use apple_nfv::dataplane::compiler::{compile, CompilerSnapshot};
use apple_nfv::dataplane::diff::{diff, ApplyError};
use apple_nfv::dataplane::packet::{HostTag, Packet};
use apple_nfv::sim::{differential_conformance_with, WalkEngineConfig};
use apple_nfv::topology::zoo;
use apple_nfv::traffic::GravityModel;
use apple_rng::{Rng, RngCore, SeedableRng, StdRng};

/// Base seed for this file; each case perturbs it by its index.
const SEED: u64 = 0xda7a_91a6;

fn apple_internet2(seed: u64) -> Apple {
    let topo = zoo::internet2();
    let tm = GravityModel::new(1_800.0, seed).base_matrix(&topo);
    Apple::plan(
        &topo,
        &tm,
        &AppleConfig {
            classes: ClassConfig {
                max_classes: 10,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("internet2 planning is feasible")
}

#[test]
fn arbitrary_packets_never_break_the_data_plane() {
    // One deployment reused across cases (deterministic seed).
    let apple = apple_internet2(77);
    let walker = apple.program().rules.walker();
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ case);
        let src = rng.next_u64() as u32;
        let dst = rng.next_u64() as u32;
        let sport = rng.next_u64() as u16;
        let dport = rng.next_u64() as u16;
        // Bias towards the real TCP/UDP protocol numbers, but keep
        // arbitrary bytes in the mix.
        let proto = match rng.gen_range(0u32..3) {
            0 => 6u8,
            1 => 17u8,
            _ => rng.next_u64() as u8,
        };
        let class_idx = rng.gen_range(0usize..10);

        let class = &apple.classes().classes()[class_idx % apple.classes().len()];
        let p = Packet::new(src, dst, sport, dport, proto);
        let rec = walker
            .walk(p, &class.path)
            .unwrap_or_else(|e| panic!("case {case}: walk error: {e}"));
        // Interference freedom holds for *any* packet.
        let expect: Vec<usize> = class.path.iter().map(|n| n.0).collect();
        assert_eq!(rec.switches, expect, "case {case}");
        // Instances visited are never repeated (§V-B).
        let mut seen = std::collections::BTreeSet::new();
        for i in &rec.instances {
            assert!(seen.insert(*i), "case {case}: instance visited twice");
        }
    }
}

#[test]
fn in_prefix_packets_always_complete() {
    // Five deployments (tm seeds 100..105), each probed with random
    // in-prefix hosts across every class.
    for seed in 0..5u64 {
        let apple = apple_internet2(100 + seed);
        let walker = apple.program().rules.walker();
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x100 + seed));
        for _ in 0..10 {
            let host = rng.gen_range(1u32..255);
            let dhost = rng.gen_range(1u32..255);
            let class_idx = rng.gen_range(0usize..10);
            let class = &apple.classes().classes()[class_idx % apple.classes().len()];
            let p = Packet::new(
                class.src_prefix.0 | host,
                class.dst_prefix.0 | dhost,
                12_345,
                80,
                6,
            );
            let rec = walker
                .walk(p, &class.path)
                .unwrap_or_else(|e| panic!("seed {seed}: walk error: {e}"));
            assert_eq!(rec.packet.host_tag, HostTag::Fin);
            assert_eq!(rec.instances.len(), class.chain.len());
        }
    }
}

/// Lowers a planned Internet2 deployment into a compiler snapshot.
fn internet2_snapshot(seed: u64) -> CompilerSnapshot {
    let topo = zoo::internet2();
    let apple = apple_internet2(seed);
    snapshot_of(
        &topo,
        apple.classes(),
        apple.subclasses(),
        &apple.program().assignment,
        apple.orchestrator(),
        &RuleGenConfig::default(),
    )
    .expect("planned deployments lower cleanly")
}

/// Hostile plan input: the empty diff. `diff(p, p)` must emit no batches
/// and bill no operations, for real deployments and perturbed clones.
#[test]
fn empty_diffs_bill_nothing() {
    for seed in 0..4u64 {
        let snap = internet2_snapshot(200 + seed);
        let prog = compile(&snap);
        let plan = diff(&prog, &prog);
        assert!(plan.is_empty(), "seed {seed}: diff(p, p) emitted batches");
        assert_eq!(plan.op_count(), 0, "seed {seed}");
        assert_eq!(plan.stats().total(), 0, "seed {seed}");
        // A clone compiles to the identical program (compiler purity), so
        // the snapshot round-trip is also an empty diff.
        let again = compile(&snap.clone());
        assert!(diff(&prog, &again).is_empty(), "seed {seed}");
        // And the full conformance battery agrees: zero barriers.
        let report = differential_conformance_with(&snap, &snap, &WalkEngineConfig::default())
            .expect("identity conforms");
        assert_eq!(report.barriers, 0, "seed {seed}");
    }
}

/// Hostile plan input: delete a sub-class, then re-add the *same*
/// sub-class. Both steps must conform at every barrier and the program
/// must return bitwise to the original compile — no residue, no drift.
#[test]
fn delete_then_readd_roundtrips() {
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x300 + case));
        let full = internet2_snapshot(210 + case);
        let mut gone = full.clone();
        let dropped = gone
            .subclasses
            .remove(rng.gen_range(0..gone.subclasses.len()));
        let full_prog = compile(&full);
        let gone_prog = compile(&gone);

        // Delete leg.
        differential_conformance_with(&full, &gone, &WalkEngineConfig::default())
            .unwrap_or_else(|e| panic!("case {case} ({dropped:?} delete): {e}"));
        let mut prog = full_prog.clone();
        diff(&full_prog, &gone_prog).apply(&mut prog, None).unwrap();
        assert_eq!(prog, gone_prog, "case {case}: delete leg drifted");

        // Re-add leg: back to the exact original program, rule for rule.
        differential_conformance_with(&gone, &full, &WalkEngineConfig::default())
            .unwrap_or_else(|e| panic!("case {case} ({dropped:?} re-add): {e}"));
        diff(&gone_prog, &full_prog).apply(&mut prog, None).unwrap();
        assert_eq!(prog, full_prog, "case {case}: re-add leg left residue");
    }
}

/// Hostile plan input: TCAM capacity exhaustion mid-batch. The up-front
/// `check_capacity` must reject the plan, a capped `apply` must fail
/// atomically at a barrier boundary, and the stranded hybrid program must
/// still walk every original class chain-safely.
#[test]
fn tcam_exhaustion_mid_batch_is_atomic_and_chain_safe() {
    for case in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x400 + case));
        let base = internet2_snapshot(220 + case);
        // Grow the deployment: clone a sub-class under a fresh tag with a
        // disjoint prefix, so new classification rules must install on
        // every switch of its path.
        let mut grown = base.clone();
        let donor = rng.gen_range(0..grown.subclasses.len());
        let mut extra = grown.subclasses[donor].clone();
        let fresh_tag = grown.subclasses.iter().map(|s| s.tag).max().unwrap() + 1;
        extra.tag = fresh_tag;
        extra.class = u64::from(fresh_tag);
        extra.class_name = format!("c{fresh_tag}");
        extra.src_prefix = (0xc0a8_0000, 24);
        extra.prefixes = vec![(0xc0a8_0000, 24)];
        grown.subclasses.push(extra);

        let base_prog = compile(&base);
        let grown_prog = compile(&grown);
        let plan = diff(&base_prog, &grown_prog);
        assert!(plan.op_count() > 0, "case {case}: growth produced no plan");

        // Find the tightest capacity that admits the plan; one less must
        // exhaust mid-update.
        let enough = (1..10_000)
            .find(|&cap| plan.check_capacity(&base_prog, cap).is_ok())
            .expect("some capacity admits the plan");
        assert!(enough > 1, "case {case}: plan trivially fits capacity 1");
        let starved = enough - 1;
        assert!(
            plan.check_capacity(&base_prog, starved).is_err(),
            "case {case}: check_capacity admitted a starved plan"
        );

        let mut hybrid = base_prog.clone();
        let err = plan.apply(&mut hybrid, Some(starved)).unwrap_err();
        let ApplyError::TcamCapacity {
            needed, capacity, ..
        } = err;
        assert!(needed > capacity, "case {case}");
        assert_ne!(
            hybrid, grown_prog,
            "case {case}: starved apply claims completion"
        );

        // Atomic: the hybrid sits at a barrier boundary, so every original
        // class still walks its complete chain (interference-free).
        let walker = hybrid.walker();
        for s in &base.subclasses {
            let p = Packet::new(
                s.src_prefix.0 | 1,
                s.dst_prefix.0 | 1,
                40_000,
                s.dst_ports.first().copied().unwrap_or(80),
                s.proto.unwrap_or(6),
            );
            let path = apple_nfv::topology::Path::new(
                s.path
                    .iter()
                    .map(|&n| apple_nfv::topology::NodeId(n))
                    .collect(),
            )
            .expect("snapshot paths are valid");
            let rec = walker
                .walk(p, &path)
                .unwrap_or_else(|e| panic!("case {case}: hybrid stranded {}: {e}", s.class_name));
            if !rec.instances.is_empty() {
                assert_eq!(
                    rec.packet.host_tag,
                    HostTag::Fin,
                    "case {case}: {} chain incomplete in hybrid",
                    s.class_name
                );
                assert_eq!(
                    rec.instances.len(),
                    s.instances.len(),
                    "case {case}: {} skipped a stage in hybrid",
                    s.class_name
                );
            }
        }

        // With enough capacity the same plan completes exactly.
        let mut prog = base_prog.clone();
        plan.apply(&mut prog, Some(enough)).unwrap();
        assert_eq!(prog, grown_prog, "case {case}");
    }
}

#[test]
fn coupling_valid_for_arbitrary_monotone_distributions() {
    use apple_nfv::core::classes::{ClassId, EquivalenceClass};
    use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
    use apple_nfv::core::orchestrator::ResourceOrchestrator;
    use apple_nfv::core::policy::PolicyChain;
    use apple_nfv::core::subclass::{SplitStrategy, SubclassPlan};
    use apple_nfv::nf::NfType;
    use apple_nfv::topology::{NodeId, Path};
    use apple_nfv::traffic::Flow;

    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x200 + case));
        // Stage-0 weights over 2..5 path positions and a chain of 1..4 NFs.
        let plen = rng.gen_range(2usize..5);
        let clen = rng.gen_range(1usize..4);

        let topo = zoo::line(plen);
        let nodes: Vec<NodeId> = (0..plen).map(NodeId).collect();
        let chain_nfs: Vec<NfType> = NfType::all()[..clen].to_vec();
        let class = EquivalenceClass {
            id: ClassId(0),
            path: Path::new(nodes).unwrap(),
            chain: PolicyChain::new(chain_nfs).unwrap(),
            rate_mbps: 50.0,
            src_prefix: (Flow::prefix_of(NodeId(0)), 24),
            dst_prefix: (Flow::prefix_of(NodeId(plen - 1)), 24),
            proto: None,
            dst_ports: Vec::new(),
        };
        let classes = ClassSet::from_classes(vec![class]);
        // Solve for a real placement (the engine's d is one feasible
        // distribution), then derive and check the plan's invariants.
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let placement = OptimizationEngine::new(EngineConfig::default())
            .place(&classes, &orch)
            .unwrap_or_else(|e| panic!("case {case}: engine: {e}"));
        let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
        let total: f64 = plan.of_class(ClassId(0)).iter().map(|s| s.fraction()).sum();
        assert!((total - 1.0).abs() < 1e-9, "case {case}");
        for s in plan.subclasses() {
            assert!(
                s.stage_positions.windows(2).all(|w| w[0] <= w[1]),
                "case {case}"
            );
            assert!(!s.prefixes.is_empty(), "case {case}");
        }
    }
}

/// The loop's tag rule restated over whole snapshots: a class keeps its
/// tag while its decision stands; every other class, in snapshot order,
/// takes the lowest tag that no class carried before the sync. A live
/// class is its path (one class per pair and forwarding path).
fn expected_tags(before: &CompilerSnapshot, after: &CompilerSnapshot) -> Vec<u16> {
    use std::collections::{BTreeMap, BTreeSet};
    let old: BTreeMap<&[usize], _> = before
        .subclasses
        .iter()
        .map(|s| (s.path.as_slice(), s))
        .collect();
    let mut used: BTreeSet<u16> = before.subclasses.iter().map(|s| s.tag).collect();
    let kept: Vec<Option<u16>> = after
        .subclasses
        .iter()
        .map(|s| {
            old.get(s.path.as_slice())
                .filter(|o| o.stage_positions == s.stage_positions && o.instances == s.instances)
                .map(|o| o.tag)
        })
        .collect();
    kept.into_iter()
        .map(|tag| {
            tag.unwrap_or_else(|| {
                let fresh = (0u16..).find(|t| !used.contains(t)).expect("a free tag");
                used.insert(fresh);
                fresh
            })
        })
        .collect()
}

/// Incremental ≡ full, with real asserts so it holds in release builds:
/// the loop re-tags, re-lowers and diffs only what an event touched, and
/// at every sync the barriers it commits must be — batch for batch, since
/// barrier order is journalled — the plan a whole-program diff against a
/// full compile of the whole state emits; its tags must be the whole-state
/// allocation and its fast-path mirror a fresh compile of what is
/// installed. The schedule is hostile: heavy flows on small hosts (shed
/// and re-admit, re-rates that must re-place), jumbo classes, instance
/// crashes, a global re-solve every 50 events, and both the instant and
/// the paper-timed southbound channel.
#[test]
fn incremental_sync_equals_full_recompute_under_hostile_churn() {
    use apple_nfv::core::online::{OnlineConfig, OrchestrationLoop};
    use apple_nfv::core::orchestrator::ResourceOrchestrator;
    use apple_nfv::dataplane::southbound::SouthboundConfig;
    use apple_nfv::dataplane::CompiledProgram;
    use apple_nfv::sim::online::edge_pairs;
    use apple_nfv::telemetry::NOOP;
    use apple_nfv::traffic::arrivals::{ArrivalConfig, EventTimeline};

    let (mut syncs, mut skipped, mut shed, mut readmitted, mut crashes, mut resolves) =
        (0u32, 0u32, 0u32, 0u32, 0u32, 0u32);
    for (t, topo) in [zoo::internet2(), zoo::geant(), zoo::univ1()]
        .iter()
        .enumerate()
    {
        for case in 0..8u64 {
            let seed = SEED ^ (0x400 + 0x10 * t as u64 + case);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pairs = edge_pairs(topo);
            pairs.truncate(40);
            // Starved, tight and roomy hosts: the first two shed and
            // re-place under pressure, the third lets re-solves land.
            let (host_cores, mean_rate_mbps) =
                [(6, 300.0), (16, 120.0), (64, 40.0)][case as usize % 3];
            let arrivals = ArrivalConfig {
                arrival_rate: 0.4,
                mean_duration_secs: 3.0,
                mean_rate_mbps,
                seed,
            };
            let timeline = EventTimeline::generate(&pairs, &arrivals, 6.0);
            let orch = ResourceOrchestrator::with_uniform_hosts(topo, host_cores);
            let cfg = OnlineConfig {
                resolve_every: 50,
                seed,
                southbound: (case % 2 == 1).then(|| SouthboundConfig::paper(seed)),
                ..Default::default()
            };
            let mut looper = OrchestrationLoop::new(topo, orch, cfg);
            for (n, event) in timeline.events().iter().enumerate() {
                // One event is one sync, or two when an instance crash
                // (which syncs on its own) comes first.
                let crash = (rng.gen_range(0..40) == 0)
                    .then(|| looper.placer().loads().keys().next().copied())
                    .flatten();
                for crash in crash.into_iter().map(Some).chain([None]) {
                    // What is installed, as a snapshot.
                    let snapshot_before = looper.dataplane_snapshot().expect("always a snapshot");
                    let before = looper.dataplane_program().clone();
                    let shed_before = looper.shed_count();
                    match crash {
                        Some(id) => {
                            crashes += 1;
                            looper.handle_instance_crash(id, &NOOP);
                        }
                        None => {
                            let report = looper.step(event, &NOOP);
                            shed += report.shed;
                            resolves += u32::from(report.resolved || report.resolve_deferred);
                            readmitted += u32::from(looper.shed_count() < shed_before);
                        }
                    }
                    let at = format!("case {t}/{case}, event {n}, crash {crash:?}");
                    looper
                        .check_ledger()
                        .unwrap_or_else(|e| panic!("{at}: ledger: {e}"));
                    let committed = looper.committed().batches();
                    let snapshot = looper.dataplane_snapshot().expect("always a snapshot");
                    let full = compile(&snapshot);
                    assert_eq!(
                        committed,
                        diff(&before, &full).batches(),
                        "{at}: the loop's plan is not the whole-program diff"
                    );
                    assert_eq!(looper.dataplane_program(), &full, "{at}: program");
                    assert_eq!(
                        looper.dataplane_fastpath(),
                        &CompiledProgram::new(&full),
                        "{at}: fast-path mirror"
                    );
                    let tags: Vec<u16> = snapshot.subclasses.iter().map(|s| s.tag).collect();
                    assert_eq!(
                        tags,
                        expected_tags(&snapshot_before, &snapshot),
                        "{at}: tags"
                    );
                    syncs += 1;
                    skipped += u32::from(committed.is_empty());
                }
            }
        }
    }
    // The schedule must actually have been hostile.
    assert!(
        syncs > 2_000 && skipped > 0,
        "{syncs} syncs, {skipped} empty"
    );
    assert!(shed > 0 && readmitted > 0, "{shed} shed, {readmitted} back");
    assert!(
        crashes > 20 && resolves > 20,
        "{crashes} crashes, {resolves} re-solves"
    );
}
