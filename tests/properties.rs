//! Randomised (deterministically seeded) tests for the three Table I
//! guarantees, over generated topologies and traffic matrices. Seeding
//! follows the convention in `tests/README.md`.
//!
//! For every planned deployment:
//! 1. **Policy enforcement** — every class's representative packets
//!    traverse exactly the class's chain, in order;
//! 2. **Interference freedom** — the switch trajectory equals the routing
//!    path, always;
//! 3. **Isolation** — committed host resources are exactly the sum of
//!    per-instance requirement vectors (no sharing).
//!
//! Plus the Table III compiler soundness property: patching `compiled(a)`
//! with `diff(compiled(a), compiled(b))` equals `compiled(b)` rule for
//! rule, in both directions (DESIGN.md §10).

use apple_nfv::core::classes::ClassConfig;
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::engine::EngineError;
use apple_nfv::dataplane::packet::{HostTag, Packet};
use apple_nfv::topology::zoo;
use apple_nfv::traffic::GravityModel;
use apple_rng::{Rng, SeedableRng, StdRng};

/// Base seed for this file; each case perturbs it by its index.
const SEED: u64 = 0x7ab1_e001;

fn plan_random(
    nodes: usize,
    degree: f64,
    topo_seed: u64,
    tm_seed: u64,
    classes: usize,
) -> Result<Apple, EngineError> {
    let topo = zoo::random_connected(nodes, degree, topo_seed);
    let tm = GravityModel::new(1_500.0, tm_seed).base_matrix(&topo);
    Apple::plan(
        &topo,
        &tm,
        &AppleConfig {
            classes: ClassConfig {
                max_classes: classes,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn three_properties_hold_on_random_networks() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ case);
        let nodes = rng.gen_range(4usize..14);
        let degree = rng.gen_range(2.0..3.5);
        let topo_seed = rng.gen_range(0u64..1_000);
        let tm_seed = rng.gen_range(0u64..1_000);
        let host_octet = rng.gen_range(1u32..255);

        let apple = match plan_random(nodes, degree, topo_seed, tm_seed, 10) {
            Ok(a) => a,
            // Tiny random topologies can be genuinely infeasible; that is
            // not a property violation.
            Err(EngineError::Infeasible) => continue,
            Err(e) => panic!("case {case}: plan failed: {e}"),
        };
        let walker = apple.program().rules.walker();
        for class in apple.classes() {
            let p = Packet::new(
                class.src_prefix.0 | host_octet,
                class.dst_prefix.0 | 1,
                9_999,
                443,
                6,
            );
            let rec = walker
                .walk(p, &class.path)
                .unwrap_or_else(|e| panic!("case {case}: walk failed: {e}"));

            // 1. Policy enforcement.
            let nfs: Vec<_> = rec
                .instances
                .iter()
                .filter_map(|&id| apple.orchestrator().instance(id).map(|i| i.nf()))
                .collect();
            assert_eq!(
                &nfs[..],
                class.chain.nfs(),
                "case {case}: class {} chain violated",
                class.id
            );
            assert_eq!(rec.packet.host_tag, HostTag::Fin);

            // 2. Interference freedom.
            let expect: Vec<usize> = class.path.iter().map(|n| n.0).collect();
            assert_eq!(
                rec.switches, expect,
                "case {case}: path changed for {}",
                class.id
            );
        }

        // 3. Isolation.
        let committed: u32 = apple
            .orchestrator()
            .hosts()
            .values()
            .map(|h| h.used.cores)
            .sum();
        let per_instance: u32 = apple
            .orchestrator()
            .instances()
            .map(|i| i.spec().cores)
            .sum();
        assert_eq!(
            committed, per_instance,
            "case {case}: resource sharing detected"
        );
    }
}

#[test]
fn subclass_fractions_partition_every_class() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x100 + case));
        let topo_seed = rng.gen_range(0u64..500);
        let tm_seed = rng.gen_range(0u64..500);
        let apple = match plan_random(8, 2.5, topo_seed, tm_seed, 8) {
            Ok(a) => a,
            Err(_) => continue,
        };
        for class in apple.classes() {
            let subs = apple.subclasses().of_class(class.id);
            let total: f64 = subs.iter().map(|s| s.fraction()).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "case {case}: class {} covered {total}",
                class.id
            );
            // Prefix covers are disjoint inside the class /24.
            let mut covered = [false; 256];
            for s in &subs {
                for &(addr, len) in &s.prefixes {
                    let start = (addr & 0xff) as usize;
                    let count = 1usize << (32 - len);
                    #[allow(clippy::needless_range_loop)] // asserting per index
                    for u in start..start + count {
                        assert!(
                            !covered[u],
                            "case {case}: overlapping prefixes in {}",
                            class.id
                        );
                        covered[u] = true;
                    }
                }
            }
            assert!(
                covered.iter().all(|&b| b),
                "case {case}: class {} /24 not covered",
                class.id
            );
        }
    }
}

/// Table III compiler soundness: for any two deployments `a`, `b` of the
/// same topology, applying `diff(compiled(a), compiled(b))` to
/// `compiled(a)` yields `compiled(b)` **rule for rule** — the incremental
/// path can never drift from a full recompile.
#[test]
fn incremental_patch_equals_full_compile() {
    use apple_nfv::core::rules::{snapshot_of, RuleGenConfig};
    use apple_nfv::dataplane::compiler::compile;
    use apple_nfv::dataplane::diff::diff;

    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x300 + case));
        let nodes = rng.gen_range(5usize..12);
        let degree = rng.gen_range(2.0..3.5);
        let topo_seed = rng.gen_range(0u64..1_000);
        let tm_a = rng.gen_range(0u64..1_000);
        let tm_b = rng.gen_range(0u64..1_000);
        let topo = zoo::random_connected(nodes, degree, topo_seed);
        let snap = |tm_seed| match plan_random(nodes, degree, topo_seed, tm_seed, 10) {
            Ok(apple) => Some(
                snapshot_of(
                    &topo,
                    apple.classes(),
                    apple.subclasses(),
                    &apple.program().assignment,
                    apple.orchestrator(),
                    &RuleGenConfig::default(),
                )
                .expect("planned deployments lower cleanly"),
            ),
            // Tiny random topologies can be genuinely infeasible.
            Err(EngineError::Infeasible) => None,
            Err(e) => panic!("case {case}: plan failed: {e}"),
        };
        let (Some(a), Some(b)) = (snap(tm_a), snap(tm_b)) else {
            continue;
        };
        let pa = compile(&a);
        let pb = compile(&b);
        let mut patched = pa.clone();
        diff(&pa, &pb).apply(&mut patched, None).unwrap();
        assert_eq!(patched, pb, "case {case}: patch drifted from recompile");
        // And back: the reverse plan restores `a` exactly.
        diff(&pb, &pa).apply(&mut patched, None).unwrap();
        assert_eq!(patched, pa, "case {case}: reverse patch left residue");
    }
}

/// Walk-engine equivalence on *planned* programs: the compiled fast path
/// must walk every conformance probe of a real deployment to the same
/// record (or error) as the linear scan, and the delta-patched compiled
/// form of an `a → b` transition must equal compiling `b` from scratch.
/// The random-program version of this property lives in
/// `crates/dataplane/tests/fuzz_walk.rs`; this one pins it on programs
/// the actual control plane emits (DESIGN.md §12).
#[test]
fn walk_engines_agree_on_planned_programs() {
    use apple_nfv::core::rules::{snapshot_of, RuleGenConfig};
    use apple_nfv::dataplane::compiler::compile;
    use apple_nfv::dataplane::diff::diff;
    use apple_nfv::dataplane::fastpath::CompiledProgram;
    use apple_nfv::dataplane::walk::WalkEngine;
    use apple_nfv::sim::packet_replay::conformance_probes;

    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x600 + case));
        let nodes = rng.gen_range(5usize..12);
        let degree = rng.gen_range(2.0..3.5);
        let topo_seed = rng.gen_range(0u64..1_000);
        let tm_a = rng.gen_range(0u64..1_000);
        let tm_b = rng.gen_range(0u64..1_000);
        let topo = zoo::random_connected(nodes, degree, topo_seed);
        let snap = |tm_seed| match plan_random(nodes, degree, topo_seed, tm_seed, 10) {
            Ok(apple) => Some(
                snapshot_of(
                    &topo,
                    apple.classes(),
                    apple.subclasses(),
                    &apple.program().assignment,
                    apple.orchestrator(),
                    &RuleGenConfig::default(),
                )
                .expect("planned deployments lower cleanly"),
            ),
            Err(EngineError::Infeasible) => None,
            Err(e) => panic!("case {case}: plan failed: {e}"),
        };
        let (Some(a), Some(b)) = (snap(tm_a), snap(tm_b)) else {
            continue;
        };
        let pa = compile(&a);
        let pb = compile(&b);
        let walker = pa.walker();
        let fast = CompiledProgram::new(&pa);
        for probe in conformance_probes(&a, &b) {
            assert_eq!(
                walker.walk(probe.packet, &probe.path),
                fast.walk(probe.packet, &probe.path),
                "case {case}: engines diverged on {}",
                probe.label
            );
        }
        let mut patched = pa.clone();
        let mut fast = fast;
        for batch in diff(&pa, &pb).batches() {
            apple_nfv::dataplane::diff::apply_batch_unchecked(&mut patched, batch);
            fast.rebuild_delta(batch);
        }
        assert_eq!(
            fast,
            CompiledProgram::new(&pb),
            "case {case}: delta-patched fast path drifted from recompiling b"
        );
    }
}

#[test]
fn capacity_holds_after_rounding() {
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x200 + case));
        let topo_seed = rng.gen_range(0u64..500);
        let tm_seed = rng.gen_range(0u64..500);
        let apple = match plan_random(10, 2.5, topo_seed, tm_seed, 12) {
            Ok(a) => a,
            Err(_) => continue,
        };
        // No instance is assigned more than its Table IV capacity.
        let mut seen = std::collections::BTreeSet::new();
        for (_, &id) in apple.program().assignment.entries() {
            seen.insert(id);
        }
        for id in seen {
            let load = apple.program().assignment.load_mbps(id);
            let cap = apple
                .orchestrator()
                .instance(id)
                .expect("assigned instances exist")
                .spec()
                .capacity_mbps;
            // Sub-class fractions are quantised to 1/256 and packed
            // best-fit; fragmentation can overflow an instance by a sliver,
            // far inside the 15 % headroom below the overload threshold.
            assert!(
                load <= cap * 1.02,
                "case {case}: instance {id} loaded {load} > {cap}"
            );
        }
    }
}

/// Southbound ack-set exactness (DESIGN.md §13): for any random plan and
/// any reorder window, every [`CompletedBarrier`] the channel emits has
/// an `ack_order` that is a **permutation of exactly its op set** — no op
/// missing, none duplicated, no phantom index — even while hostile acks
/// are injected between ticks. Summed over the run, the channel acks
/// exactly `plan.op_count()` ops and the drained fabric equals the
/// synchronous apply.
#[test]
fn completed_barriers_ack_exactly_their_op_set() {
    use apple_nfv::core::rules::{snapshot_of, RuleGenConfig};
    use apple_nfv::dataplane::compiler::compile;
    use apple_nfv::dataplane::diff::{apply_batch_unchecked, diff};
    use apple_nfv::dataplane::southbound::{SouthboundChannel, SouthboundConfig, SouthboundEvent};

    for case in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x700 + case));
        let nodes = rng.gen_range(5usize..12);
        let degree = rng.gen_range(2.0..3.5);
        let topo_seed = rng.gen_range(0u64..1_000);
        let tm_a = rng.gen_range(0u64..1_000);
        let tm_b = rng.gen_range(0u64..1_000);
        let topo = zoo::random_connected(nodes, degree, topo_seed);
        let snap = |tm_seed| match plan_random(nodes, degree, topo_seed, tm_seed, 10) {
            Ok(apple) => Some(
                snapshot_of(
                    &topo,
                    apple.classes(),
                    apple.subclasses(),
                    &apple.program().assignment,
                    apple.orchestrator(),
                    &RuleGenConfig::default(),
                )
                .expect("planned deployments lower cleanly"),
            ),
            // Tiny random topologies can be genuinely infeasible.
            Err(EngineError::Infeasible) => None,
            Err(e) => panic!("case {case}: plan failed: {e}"),
        };
        let (Some(a), Some(b)) = (snap(tm_a), snap(tm_b)) else {
            continue;
        };
        let pa = compile(&a);
        let pb = compile(&b);
        let plan = diff(&pa, &pb);

        let mut cfg = SouthboundConfig::paper(SEED ^ (0x780 + case));
        cfg.reorder_window = rng.gen_range(0usize..9);
        let mut chan = SouthboundChannel::new(cfg);
        let ids = chan.submit_plan(&plan);
        let mut prog = pa.clone();
        let mut completed = 0usize;
        while !chan.is_idle() {
            // Hostile acks between ticks: random (barrier, op) pairs the
            // channel must classify without ever corrupting an ack set.
            for _ in 0..rng.gen_range(0usize..4) {
                let id = ids[rng.gen_range(0..ids.len().max(1))];
                let _ = chan.inject_ack(id, rng.gen_range(0usize..24));
            }
            for ev in chan
                .advance(rng.gen_range(1u64..160))
                .expect("fault-free southbound channel cannot fail")
            {
                if let SouthboundEvent::Barrier(done) = ev {
                    let mut acked = done.ack_order.clone();
                    acked.sort_unstable();
                    let want: Vec<usize> = (0..done.batch.op_count()).collect();
                    assert_eq!(
                        acked, want,
                        "case {case}: barrier {} ack set is not exactly its op set",
                        done.id
                    );
                    apply_batch_unchecked(&mut prog, &done.batch);
                    completed += 1;
                }
            }
        }
        assert_eq!(completed, plan.batches().len(), "case {case}");
        assert_eq!(prog, pb, "case {case}: drained fabric drifted");
        assert_eq!(
            chan.stats().acks,
            plan.op_count() as u64,
            "case {case}: ops must ack exactly once across the run"
        );
    }
}
