//! Fuzz battery for the asynchronous southbound channel (DESIGN.md §13),
//! driven by seeded `apple_rng` streams (see `tests/README.md`).
//!
//! Random update plans from real Internet2 deployments are pushed through
//! [`SouthboundChannel`] under hostile schedules — seeded per-op latency
//! and reordering, dropped acks (a fault injector rejecting install
//! attempts), duplicate acks, phantom acks, acks behind the barrier gate,
//! and acks after completion or after the channel has failed. Every run
//! must either drain the fabric **bitwise-equal** to the synchronous
//! `apply_unchecked` of the same plan, or fail with a typed
//! [`SouthboundError`] leaving the fabric at an exact **plan prefix** —
//! never a torn or phantom state.

use apple_nfv::core::classes::ClassConfig;
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::rules::{snapshot_of, RuleGenConfig};
use apple_nfv::dataplane::compiler::{compile, CompilerSnapshot, RuleProgram};
use apple_nfv::dataplane::diff::{apply_batch_unchecked, diff, UpdatePlan};
use apple_nfv::dataplane::southbound::{
    apply_plan_async, InjectedAck, SouthboundChannel, SouthboundConfig, SouthboundEvent,
};
use apple_nfv::faults::{FaultInjector, ScriptedInjector};
use apple_nfv::nf::InstanceId;
use apple_nfv::topology::zoo;
use apple_nfv::traffic::GravityModel;
use apple_rng::{Rng, SeedableRng, StdRng};

/// Base seed for this file; each case perturbs it by its index.
const SEED: u64 = 0x5007_b04d;

/// Lowers a planned Internet2 deployment into a compiler snapshot.
fn internet2_snapshot(seed: u64) -> CompilerSnapshot {
    let topo = zoo::internet2();
    let tm = GravityModel::new(1_800.0, seed).base_matrix(&topo);
    let apple = Apple::plan(
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
    .expect("internet2 planning is feasible");
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

/// A random churn of `snap`: 1–3 sub-classes re-served by fresh
/// instances, and (half the time) one sub-class dropped entirely.
fn perturb(snap: &CompilerSnapshot, rng: &mut StdRng) -> CompilerSnapshot {
    let mut out = snap.clone();
    let fresh = snap
        .subclasses
        .iter()
        .flat_map(|s| s.instances.iter())
        .map(|i| i.0)
        .max()
        .expect("snapshot has instances")
        + 1;
    for k in 0..rng.gen_range(1u64..4) {
        let si = rng.gen_range(0..out.subclasses.len());
        let stages = out.subclasses[si].instances.len();
        let stage = rng.gen_range(0..stages);
        out.subclasses[si].instances[stage] = InstanceId(fresh + k);
    }
    if rng.gen_bool(0.5) && out.subclasses.len() > 1 {
        let si = rng.gen_range(0..out.subclasses.len());
        out.subclasses.remove(si);
    }
    out
}

/// Every fabric state a plan can legally leave behind: the starting
/// program plus each successive barrier prefix.
fn prefix_states(start: &RuleProgram, plan: &UpdatePlan) -> Vec<RuleProgram> {
    let mut states = vec![start.clone()];
    let mut cur = start.clone();
    for batch in plan.batches() {
        apply_batch_unchecked(&mut cur, batch);
        states.push(cur.clone());
    }
    states
}

/// Fault-free channels must drain every random plan bitwise-equal to the
/// synchronous apply, completing exactly the plan's barriers.
#[test]
fn random_plans_drain_bitwise_equal_to_sync_apply() {
    for case in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ case);
        let old = internet2_snapshot(300 + case);
        let new = perturb(&old, &mut rng);
        let old_prog = compile(&old);
        let new_prog = compile(&new);
        let plan = diff(&old_prog, &new_prog);
        assert!(!plan.is_empty(), "case {case}: perturbation was a no-op");

        let mut cfg = SouthboundConfig::paper(SEED ^ (0x100 + case));
        cfg.reorder_window = rng.gen_range(0usize..9);
        let mut prog = old_prog.clone();
        let report = apply_plan_async(&mut prog, &plan, cfg)
            .unwrap_or_else(|e| panic!("case {case}: fault-free drive failed: {e}"));
        assert_eq!(prog, new_prog, "case {case}: async drain drifted");
        assert_eq!(
            report.barriers,
            plan.batches().len() as u64,
            "case {case}: barrier count mismatch"
        );
        assert_eq!(report.retries, 0, "case {case}: fault-free run retried");
    }
}

/// Dropped acks (a fault injector rejecting install attempts) must
/// either retry to a bitwise-equal drain or fail with a typed error
/// leaving the fabric at an exact plan prefix — and the failure must be
/// sticky, with late acks ignored.
#[test]
fn dropped_acks_converge_or_fail_typed_with_prefix_fabric() {
    let mut converged = 0usize;
    let mut failed = 0usize;
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x200 + case));
        let old = internet2_snapshot(320 + (case % 4));
        let new = perturb(&old, &mut rng);
        let old_prog = compile(&old);
        let new_prog = compile(&new);
        let plan = diff(&old_prog, &new_prog);
        let states = prefix_states(&old_prog, &plan);

        // Escalating drop rates: low ones retry through, high ones blow
        // the attempt or time budget.
        let drop_prob = [0.2, 0.5, 0.9, 0.97][case as usize % 4];
        let injector = ScriptedInjector::new(SEED ^ (0x280 + case), 0.0, 0.0, 0, drop_prob);
        let mut chan = SouthboundChannel::with_injector(
            SouthboundConfig::paper(SEED ^ (0x240 + case)),
            injector,
        );
        let ids = chan.submit_plan(&plan);
        let mut prog = old_prog.clone();
        match chan.drive(|done| apply_batch_unchecked(&mut prog, &done.batch)) {
            Ok(report) => {
                converged += 1;
                assert_eq!(prog, new_prog, "case {case}: lossy drain drifted");
                assert!(report.retries > 0 || drop_prob < 0.5, "case {case}");
            }
            Err(e) => {
                failed += 1;
                // Typed, sticky, and the fabric is an exact plan prefix.
                assert!(
                    chan.failure().is_some(),
                    "case {case}: error not recorded: {e}"
                );
                assert!(
                    states.contains(&prog),
                    "case {case}: failed fabric is not a plan prefix"
                );
                assert!(
                    chan.advance(3_600_000).is_err(),
                    "case {case}: failure must be sticky"
                );
                // Acks after the channel failed are dropped, not leaked.
                for &id in &ids {
                    assert_eq!(
                        chan.inject_ack(id, 0),
                        InjectedAck::Ignored,
                        "case {case}: post-failure ack not ignored"
                    );
                }
            }
        }
    }
    assert!(converged > 0, "no drop rate ever converged");
    assert!(failed > 0, "no drop rate ever exhausted the retry budget");
}

/// A hand-driven hostile ack schedule: early acks, duplicates, phantom
/// op indices, acks behind the barrier gate, and acks after completion.
/// The channel must classify each injection, ack every op exactly once,
/// and still drain bitwise-equal to the synchronous apply.
#[test]
fn hostile_ack_schedules_stay_idempotent_and_leak_free() {
    for case in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(SEED ^ (0x300 + case));
        let old = internet2_snapshot(340 + case);
        let new = perturb(&old, &mut rng);
        let old_prog = compile(&old);
        let new_prog = compile(&new);
        let plan = diff(&old_prog, &new_prog);

        let mut chan = SouthboundChannel::new(SouthboundConfig::paper(SEED ^ (0x340 + case)));
        let ids = chan.submit_plan(&plan);
        let ops: Vec<usize> = plan.batches().iter().map(|b| b.op_count()).collect();

        // Dispatch the front barrier (zero-op barriers drain through).
        let mut prog = old_prog.clone();
        let mut done = 0usize;
        for ev in chan.advance(0).expect("fault-free channel") {
            if let SouthboundEvent::Barrier(b) = ev {
                apply_batch_unchecked(&mut prog, &b.batch);
                done += 1;
            }
        }
        let front = done;
        assert!(front < ids.len(), "case {case}: plan drained at t=0");
        assert!(ops[front] > 0, "case {case}: dispatched front has no ops");

        // Early ack: legal. Duplicate of the same op: dropped.
        assert_eq!(
            chan.inject_ack(ids[front], 0),
            InjectedAck::Acked,
            "case {case}"
        );
        assert_eq!(
            chan.inject_ack(ids[front], 0),
            InjectedAck::Duplicate,
            "case {case}"
        );
        // Phantom op index: dropped.
        assert_eq!(
            chan.inject_ack(ids[front], 99_999),
            InjectedAck::Ignored,
            "case {case}"
        );
        // Behind the barrier gate: dropped.
        if front + 1 < ids.len() {
            assert_eq!(
                chan.inject_ack(ids[front + 1], 0),
                InjectedAck::Ignored,
                "case {case}: gated barrier accepted an ack"
            );
        }
        // Unknown barrier id: dropped.
        assert_eq!(
            chan.inject_ack(u64::MAX, 0),
            InjectedAck::Ignored,
            "case {case}"
        );

        // Drain the rest, sprinkling random hostile acks between ticks.
        while !chan.is_idle() {
            for _ in 0..rng.gen_range(0usize..4) {
                let id = ids[rng.gen_range(0..ids.len())];
                let op = rng.gen_range(0usize..32);
                let _ = chan.inject_ack(id, op);
            }
            for ev in chan
                .advance(rng.gen_range(1u64..160))
                .expect("fault-free channel")
            {
                if let SouthboundEvent::Barrier(b) = ev {
                    apply_batch_unchecked(&mut prog, &b.batch);
                    done += 1;
                }
            }
        }
        // Ack after completion: dropped.
        assert_eq!(
            chan.inject_ack(ids[front], 0),
            InjectedAck::Ignored,
            "case {case}: completed barrier accepted an ack"
        );

        assert_eq!(done, ids.len(), "case {case}: barrier count mismatch");
        assert_eq!(prog, new_prog, "case {case}: hostile drain drifted");
        let stats = chan.stats();
        assert_eq!(
            stats.acks,
            plan.op_count() as u64,
            "case {case}: ops must ack exactly once (leak or phantom)"
        );
        assert!(stats.duplicate_acks >= 1, "case {case}");
        assert!(stats.ignored_acks >= 3, "case {case}");
    }
}

/// Acks arriving while an op is mid-retry (the injector rejected earlier
/// attempts) complete it out from under the retry loop — the channel
/// treats the wire as authoritative.
#[test]
fn acks_during_retry_complete_the_op() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x400);
    let old = internet2_snapshot(360);
    let new = perturb(&old, &mut rng);
    let old_prog = compile(&old);
    let new_prog = compile(&new);
    let plan = diff(&old_prog, &new_prog);

    // Every install attempt fails: without injected acks this channel
    // would exhaust its retry budget, so a bitwise-clean drain proves the
    // injected acks were honoured.
    struct AlwaysDrop;
    impl FaultInjector for AlwaysDrop {
        fn rule_install_fails(&mut self, _switch: usize, _attempt: u32) -> bool {
            true
        }
    }
    let mut chan =
        SouthboundChannel::with_injector(SouthboundConfig::paper(SEED ^ 0x410), AlwaysDrop);
    let ids = chan.submit_plan(&plan);
    let ops: Vec<usize> = plan.batches().iter().map(|b| b.op_count()).collect();
    let mut prog = old_prog.clone();
    let mut done = vec![false; ids.len()];
    loop {
        // `advance(0)` dispatches the front barrier and surfaces any
        // completions without moving time, so no scheduled (and thus
        // doomed) install attempt ever fires.
        for ev in chan.advance(0).expect("acked channel cannot fail") {
            if let SouthboundEvent::Barrier(b) = ev {
                apply_batch_unchecked(&mut prog, &b.batch);
                let i = ids
                    .iter()
                    .position(|&id| id == b.id)
                    .expect("completed barrier was submitted");
                done[i] = true;
            }
        }
        if chan.is_idle() {
            break;
        }
        // Ack every op of the now-dispatched front barrier by hand.
        let front = done.iter().position(|&d| !d).expect("channel not idle");
        assert!(ops[front] > 0, "zero-op fronts complete inside advance");
        for op in 0..ops[front] {
            let got = chan.inject_ack(ids[front], op);
            assert_eq!(got, InjectedAck::Acked, "barrier {front} op {op}");
        }
    }
    assert_eq!(prog, new_prog, "hand-acked drain drifted");
    assert!(chan.failure().is_none(), "injected acks must avert failure");
}
