//! Integration tests for the paper's extension points implemented here:
//! §X header-rewriting NFs (global sub-class tags), §V-B cross-product
//! fallback accounting, §IV online placement, plus the serialisation
//! substrates.

use apple_nfv::core::classes::{ClassConfig, ClassSet, EquivalenceClass};
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::online::OnlinePlacer;
use apple_nfv::dataplane::packet::{HostTag, Packet};
use apple_nfv::dataplane::walk::NAT_POOL_PREFIX;
use apple_nfv::nf::VnfSpec;
use apple_nfv::topology::{Graph, TopologyKind};
use apple_nfv::traffic::GravityModel;

fn plan(kind: TopologyKind, seed: u64, classes: usize) -> Apple {
    let topo = kind.build();
    let tm = GravityModel::new(2_000.0, seed).base_matrix(&topo);
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
    .expect("planning succeeds at this scale")
}

#[test]
fn nat_classes_complete_chains_despite_rewrites() {
    // At full-deployment scale: every class whose chain includes NAT must
    // still complete — the global-tag machinery in action — and the packet
    // must demonstrably leave the class's source prefix.
    let apple = plan(TopologyKind::Geant, 61, 25);
    let mut nat_classes = 0;
    let walker = apple.program().rules.walker();
    for class in apple.classes() {
        let has_nat = class
            .chain
            .nfs()
            .iter()
            .any(|&nf| VnfSpec::of(nf).rewrites_headers());
        let p = Packet::new(class.src_prefix.0 | 4, class.dst_prefix.0 | 4, 7, 80, 6);
        let rec = walker
            .walk(p, &class.path)
            .unwrap_or_else(|e| panic!("{}: {e}", class.id));
        assert_eq!(rec.packet.host_tag, HostTag::Fin);
        if has_nat {
            nat_classes += 1;
            assert_eq!(
                rec.packet.src_ip & 0xff00_0000,
                NAT_POOL_PREFIX,
                "{}: NAT did not rewrite",
                class.id
            );
            assert!(
                rec.packet.subclass_tag.unwrap() >= 0x8000,
                "{}: expected a global tag",
                class.id
            );
        }
    }
    assert!(nat_classes > 0, "workload contained no NAT chains");
}

#[test]
fn cross_product_penalty_scales_with_topology_size() {
    let small = plan(TopologyKind::Internet2, 62, 15);
    let large = plan(TopologyKind::Geant, 62, 15);
    // Penalty ≈ routing-table size ≈ n − 1.
    assert!(
        (small.program().tcam.cross_product_penalty() - 11.0).abs() < 1e-9,
        "Internet2 penalty {}",
        small.program().tcam.cross_product_penalty()
    );
    assert!(
        (large.program().tcam.cross_product_penalty() - 22.0).abs() < 1e-9,
        "GEANT penalty {}",
        large.program().tcam.cross_product_penalty()
    );
}

#[test]
fn online_placer_extends_a_global_plan() {
    let mut apple = plan(TopologyKind::Internet2, 63, 12);
    let topo = TopologyKind::Internet2.build();
    let tm = GravityModel::new(2_000.0, 63).base_matrix(&topo);
    let all = ClassSet::build(&topo, &tm, &ClassConfig::default());
    let planned: std::collections::BTreeSet<_> = apple
        .classes()
        .iter()
        .map(EquivalenceClass::od_pair)
        .collect();
    let mut placer = OnlinePlacer::from_assignment(&apple.program().assignment);
    let mut placed = 0;
    let mut launched = 0;
    for class in all
        .iter()
        .filter(|c| !planned.contains(&c.od_pair()))
        .take(10)
    {
        let d = placer
            .place_class(class, apple.orchestrator_mut())
            .unwrap_or_else(|e| panic!("online placement failed: {e}"));
        // Order constraint holds.
        assert!(d.stage_positions.windows(2).all(|w| w[0] <= w[1]));
        // Instances really exist at the claimed switches.
        for (&inst, &pos) in d.stage_instances.iter().zip(&d.stage_positions) {
            let host = apple
                .orchestrator()
                .instance(inst)
                .expect("placed instances exist")
                .host_switch();
            assert_eq!(host, class.path.nodes()[pos].0);
        }
        placed += 1;
        launched += d.launched.len();
    }
    assert_eq!(placed, 10);
    // Reuse must do some of the work: fewer launches than stages placed.
    let stages: usize = all
        .iter()
        .filter(|c| !planned.contains(&c.od_pair()))
        .take(10)
        .map(|c| c.chain.len())
        .sum();
    assert!(launched < stages, "no reuse happened ({launched}/{stages})");
}

#[test]
fn engine_model_survives_lp_export() {
    // The engine's Eq. (1)-(8) integer model for the instance `apple
    // export-lp internet2 --classes 4` prints: every instance count `q` is
    // exported as an integer column, the file is complete, and the model's
    // LP relaxation solves.
    use apple_nfv::core::engine::OptimizationEngine;
    use apple_nfv::core::orchestrator::ResourceOrchestrator;
    use std::collections::BTreeSet;
    let topo = TopologyKind::Internet2.build();
    let tm = GravityModel::new(2_000.0, 0).base_matrix(&topo);
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes: 4,
            ..Default::default()
        },
    );
    let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let model = OptimizationEngine::default().ilp_model(&classes, &orch);
    let text = model.to_lp_format();
    let (body, general) = text
        .split_once("\nGeneral\n")
        .expect("integer q columns need a General section");
    let integers: BTreeSet<&str> = general.split_whitespace().collect();
    let q_columns: BTreeSet<&str> = body
        .split_whitespace()
        .filter(|t| t.starts_with("q_"))
        .collect();
    assert!(!q_columns.is_empty(), "no q column exported");
    for q in &q_columns {
        assert!(integers.contains(q), "{q} is not under General");
    }
    assert_eq!(text.lines().last(), Some("End"));
    let relaxed = model.solve_lp().expect("the LP relaxation solves");
    assert!(relaxed.objective() > 0.0, "4 classes need some instance");
}

#[test]
fn topologies_round_trip_and_export() {
    for kind in TopologyKind::all() {
        let topo = kind.build();
        let text = topo.graph.to_edge_list();
        let parsed =
            Graph::from_edge_list(&text).unwrap_or_else(|e| panic!("{kind}: parse failed: {e}"));
        assert_eq!(parsed.node_count(), topo.graph.node_count());
        assert_eq!(
            parsed.undirected_link_count(),
            topo.graph.undirected_link_count()
        );
        assert!(parsed.is_connected());
        let dot = topo.graph.to_dot();
        assert!(dot.contains("graph topology"));
    }
}
