//! Seeded plan suite for the placement solve (DESIGN.md §8).
//!
//! Every placement runs one path: q-eliminated model, block-by-block
//! solve, lift. That it reaches the optimum of the full Eq. (1)–(8)
//! relaxation is checked at the LP by
//! `engine::tests::reduced_model_matches_full_relaxation`; this suite runs
//! the same scenarios through the whole pipeline and checks what a user of
//! the plan sees:
//!
//! * the **instance count** equals the pinned value (first pinned from the
//!   retired monolithic solve, which was bit-identical when it was
//!   deleted; Internet2 seed 5 re-pinned 12 → 10 when the consolidation
//!   descent gained its accept certificate and lost its budget, UNIV1
//!   26 → 27 when the q surcharge switched from the class rate crossing
//!   each switch to the number of classes crossing it),
//! * the **runtime invariants**: the bootstrapped Dynamic Handler state
//!   passes `verify_shares` (interference freedom + traffic accounting),
//! * a **down host** carries no instance.
//!
//! Scenarios are deliberately small (debug-mode LP solves).

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::core::verify::verify_shares;
use apple_nfv::topology::{Topology, TopologyKind};
use apple_nfv::traffic::GravityModel;

/// Plans `topo` and asserts the pinned instance count and a clean
/// `verify_shares` on the bootstrapped handler state.
fn assert_plan(topo: &Topology, load: f64, seed: u64, max_classes: usize, instances: u32) {
    let tm = GravityModel::new(load, seed).base_matrix(topo);
    let config = AppleConfig {
        classes: ClassConfig {
            max_classes,
            ..Default::default()
        },
        ..Default::default()
    };
    let apple = Apple::plan(topo, &tm, &config).expect("plan");
    let handler = apple.dynamic_handler().expect("bootstrap");
    assert_eq!(
        apple.placement().total_instances(),
        instances,
        "seed {seed}: instance count moved"
    );
    let (classes, _placement, _plan, _program, orch) = apple.into_parts();
    let violations = verify_shares(&classes, &handler, &orch, 1e-6);
    assert!(violations.is_empty(), "seed {seed}: {violations:?}");
}

#[test]
fn internet2_equivalent_across_seeds() {
    let topo = TopologyKind::Internet2.build();
    for (seed, instances) in [(0, 10), (7, 12), (23, 11), (5, 10)] {
        assert_plan(&topo, 3_000.0, seed, 10, instances);
    }
}

#[test]
fn synthetic_equivalent_across_seeds() {
    let topo = TopologyKind::Synthetic.build();
    for (seed, instances) in [(0, 6), (1, 6), (2, 5)] {
        assert_plan(&topo, 1_000.0, seed, 8, instances);
    }
}

#[test]
fn univ1_equivalent_in_the_elephant_flow_regime() {
    // Per-class rates exceed instance capacity here, exercising the
    // repair-round path (extra_caps).
    let topo = TopologyKind::Univ1.build();
    assert_plan(&topo, 9_000.0, 0, 8, 27);
}

#[test]
fn down_host_carries_no_instances() {
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
    let engine = OptimizationEngine::new(EngineConfig::default());
    let probe = engine.place(&classes, &orch).expect("probe plan");
    let busy = probe.q_entries().next().expect("nonempty plan").0;
    orch.fail_host(busy).expect("host up");
    let plan = engine
        .place(&classes, &orch)
        .expect("plan with a host down");
    assert!(
        plan.q_entries().all(|(v, _, _)| v != busy),
        "used a down host"
    );
    assert_eq!(plan.total_instances(), 12, "instance count moved");
}
