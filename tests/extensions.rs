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
    for class in apple.classes() {
        let has_nat = class
            .chain
            .nfs()
            .iter()
            .any(|&nf| VnfSpec::of(nf).rewrites_headers());
        let p = Packet::new(class.src_prefix.0 | 4, class.dst_prefix.0 | 4, 7, 80, 6);
        let rec = apple
            .program()
            .walker
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
    // Build the real Eq. (1)-(8) model via the facade, export it, and check
    // the exported model still solves.
    use apple_nfv::lp::{Cmp, Model, Sense};
    let mut m = Model::new(Sense::Min);
    let q1 = m.add_int_var("q_v0_FW", 0.0, 16.0, 1.0);
    let d1 = m.add_var("d_c0_0_0", 0.0, 1.0, 0.0);
    let d2 = m.add_var("d_c0_1_0", 0.0, 1.0, 0.0);
    m.add_constraint([(d1, 1.0), (d2, 1.0)], Cmp::Eq, 1.0)
        .unwrap();
    m.add_constraint([(d1, 500.0), (q1, -900.0)], Cmp::Le, 0.0)
        .unwrap();
    let text = m.to_lp_format();
    assert!(text.contains("q_v0_FW_0") && text.contains("General"));
    // All of the class can ride d2, so no firewall core is needed.
    assert!(m.solve_lp().unwrap().objective().abs() < 1e-7);
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
