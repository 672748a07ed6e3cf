//! Seeded equivalence suite: the decomposed placement solve must be
//! observationally identical to the monolithic one (DESIGN.md §8).
//!
//! For every scenario the full pipeline runs twice — once with
//! `SolveMode::Monolithic`, once with `SolveMode::Decomposed` — and the
//! results are compared on three axes:
//!
//! * the **LP objective** of the final relaxation (within 1e-9),
//! * the **rounded placement**: every `(switch, NF, count)` entry,
//! * the **runtime invariants**: the bootstrapped Dynamic Handler state
//!   passes `verify_shares` (interference freedom + traffic accounting)
//!   in both modes.
//!
//! Thread counts 1, 2 and 8 are all exercised: the merge is deterministic
//! by block index, so worker scheduling must never show through.
//!
//! Scenarios are deliberately small (debug-mode LP solves).

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::engine::{EngineConfig, SolveMode};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::core::verify::verify_shares;
use apple_nfv::nf::NfType;
use apple_nfv::topology::{NodeId, Topology, TopologyKind};
use apple_nfv::traffic::GravityModel;

fn config(max_classes: usize, mode: SolveMode, threads: usize) -> AppleConfig {
    AppleConfig {
        classes: ClassConfig {
            max_classes,
            ..Default::default()
        },
        engine: EngineConfig {
            solve_mode: mode,
            threads,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Plans `topo` in the given mode and returns the comparison axes:
/// rounded placement entries, LP objective, instance count, and whether
/// the bootstrapped handler state verifies clean.
fn plan(
    topo: &Topology,
    load: f64,
    seed: u64,
    max_classes: usize,
    mode: SolveMode,
    threads: usize,
) -> (Vec<(NodeId, NfType, u32)>, f64, u32, bool) {
    let tm = GravityModel::new(load, seed).base_matrix(topo);
    let apple = Apple::plan(topo, &tm, &config(max_classes, mode, threads)).expect("plan");
    let handler = apple.dynamic_handler().expect("bootstrap");
    let entries: Vec<_> = apple.placement().q_entries().collect();
    let lp = apple.placement().lp_objective();
    let instances = apple.placement().total_instances();
    let (classes, _placement, _plan, _program, orch) = apple.into_parts();
    let clean = verify_shares(&classes, &handler, &orch, 1e-6).is_empty();
    (entries, lp, instances, clean)
}

fn assert_equivalent(topo: &Topology, load: f64, seed: u64, max_classes: usize, threads: usize) {
    let (q_m, lp_m, inst_m, clean_m) =
        plan(topo, load, seed, max_classes, SolveMode::Monolithic, 0);
    let (q_d, lp_d, inst_d, clean_d) = plan(
        topo,
        load,
        seed,
        max_classes,
        SolveMode::Decomposed,
        threads,
    );
    assert!(
        (lp_m - lp_d).abs() < 1e-9,
        "seed {seed} threads {threads}: LP objective diverged ({lp_m} vs {lp_d})"
    );
    assert_eq!(
        q_m, q_d,
        "seed {seed} threads {threads}: rounded placement diverged"
    );
    assert_eq!(inst_m, inst_d, "seed {seed} threads {threads}: instances");
    assert!(clean_m, "seed {seed}: monolithic plan failed verify_shares");
    assert!(
        clean_d,
        "seed {seed} threads {threads}: decomposed plan failed verify_shares"
    );
}

#[test]
fn internet2_equivalent_across_seeds() {
    let topo = TopologyKind::Internet2.build();
    for seed in [0, 7, 23] {
        assert_equivalent(&topo, 3_000.0, seed, 10, 1);
    }
}

#[test]
fn internet2_equivalent_across_thread_counts() {
    let topo = TopologyKind::Internet2.build();
    for threads in [1, 2, 8] {
        assert_equivalent(&topo, 3_000.0, 5, 10, threads);
    }
}

#[test]
fn synthetic_equivalent_across_seeds_and_threads() {
    let topo = TopologyKind::Synthetic.build();
    for (seed, threads) in [(0, 1), (1, 2), (2, 8)] {
        assert_equivalent(&topo, 1_000.0, seed, 8, threads);
    }
}

#[test]
fn univ1_equivalent_in_the_elephant_flow_regime() {
    // Per-class rates exceed instance capacity here, exercising the
    // repair-round path (extra_caps) in both modes.
    let topo = TopologyKind::Univ1.build();
    assert_equivalent(&topo, 9_000.0, 0, 8, 2);
}

#[test]
fn decomposed_handles_a_down_host_like_monolithic() {
    use apple_nfv::core::engine::OptimizationEngine;

    let topo = TopologyKind::Internet2.build();
    let tm = GravityModel::new(3_000.0, 11).base_matrix(&topo);
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes: 8,
            ..Default::default()
        },
    );
    let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let probe = OptimizationEngine::new(EngineConfig::default())
        .place(&classes, &orch)
        .expect("probe plan");
    let busy = probe.q_entries().next().expect("nonempty plan").0;
    orch.fail_host(busy).expect("host up");
    let mono = OptimizationEngine::new(EngineConfig::default())
        .place(&classes, &orch)
        .expect("mono plan");
    let dec = OptimizationEngine::new(EngineConfig {
        solve_mode: SolveMode::Decomposed,
        threads: 2,
        ..Default::default()
    })
    .place(&classes, &orch)
    .expect("decomposed plan");
    let q_m: Vec<_> = mono.q_entries().collect();
    let q_d: Vec<_> = dec.q_entries().collect();
    assert_eq!(q_m, q_d, "placement diverged with a host down");
    assert!(q_d.iter().all(|&(v, _, _)| v != busy), "used a down host");
}
