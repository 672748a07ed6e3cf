//! Formulation-validity sweep: `verify_placement` (the Eq. (2)–(8) oracle)
//! must accept the engine's output across every topology, workload style
//! and solver path this repository ships.

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::core::policy_spec::PolicySpec;
use apple_nfv::core::verify::verify_placement;
use apple_nfv::topology::{zoo, TopologyKind};
use apple_nfv::traffic::GravityModel;

fn assert_valid(classes: &ClassSet, topo: &apple_nfv::topology::Topology) {
    let orch = ResourceOrchestrator::with_uniform_hosts(topo, 64);
    let placement = OptimizationEngine::new(EngineConfig::default())
        .place(classes, &orch)
        .unwrap_or_else(|e| panic!("{}: {e}", topo.kind));
    let violations = verify_placement(classes, &placement, &orch, 1e-6);
    assert!(
        violations.is_empty(),
        "{}: {} violations, first: {}",
        topo.kind,
        violations.len(),
        violations[0]
    );
}

#[test]
fn all_topologies_solve_validly() {
    for kind in TopologyKind::all() {
        let topo = kind.build();
        let tm = GravityModel::new(1_500.0, 7).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 15,
                ..Default::default()
            },
        );
        assert_valid(&classes, &topo);
    }
}

#[test]
fn policy_driven_classes_solve_validly() {
    let topo = zoo::internet2();
    let tm = GravityModel::new(1_200.0, 8).base_matrix(&topo);
    let classes = ClassSet::build_with_policies(
        &topo,
        &tm,
        &PolicySpec::example(),
        &ClassConfig {
            max_classes: 30,
            ..Default::default()
        },
    );
    assert_valid(&classes, &topo);
}
