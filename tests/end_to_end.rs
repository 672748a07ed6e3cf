//! End-to-end integration: the full APPLE pipeline on every evaluation
//! topology, exercising each Fig. 1 component in sequence and checking the
//! cross-component contracts.

use apple_nfv::core::baselines::{ingress_per_class, TrafficSteering};
use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::dataplane::packet::{HostTag, Packet};
use apple_nfv::lp::BranchConfig;
use apple_nfv::nf::NfType;
use apple_nfv::topology::TopologyKind;
use apple_nfv::traffic::{GravityModel, SeriesConfig, TmSeries};

fn small_config() -> AppleConfig {
    AppleConfig {
        classes: ClassConfig {
            max_classes: 15,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn full_pipeline_on_all_four_topologies() {
    for kind in TopologyKind::all() {
        let topo = kind.build();
        let tm = GravityModel::new(1_500.0, 3).base_matrix(&topo);
        let apple = Apple::plan(&topo, &tm, &small_config())
            .unwrap_or_else(|e| panic!("{kind}: planning failed: {e}"));
        assert!(
            apple.placement().total_instances() > 0,
            "{kind}: no instances"
        );
        assert_eq!(
            apple.orchestrator().instance_count() as u32,
            apple.placement().total_instances(),
            "{kind}: orchestrator out of sync with placement"
        );
        // Every class is walkable and policy-complete.
        let walker = apple.program().rules.walker();
        for class in apple.classes() {
            let p = Packet::new(class.src_prefix.0 | 9, class.dst_prefix.0 | 9, 1, 80, 6);
            let rec = walker
                .walk(p, &class.path)
                .unwrap_or_else(|e| panic!("{kind}: walk failed for {}: {e}", class.id));
            assert_eq!(
                rec.packet.host_tag,
                HostTag::Fin,
                "{kind}: {} incomplete",
                class.id
            );
            assert_eq!(rec.instances.len(), class.chain.len());
        }
        // TCAM accounting is self-consistent.
        let tcam = &apple.program().tcam;
        assert_eq!(
            tcam.tagged_per_switch.values().sum::<usize>(),
            tcam.tagged_total,
            "{kind}: per-switch TCAM sums wrong"
        );
        assert!(tcam.reduction_ratio() > 1.0, "{kind}: tagging did not help");
    }
}

#[test]
fn engine_beats_both_baselines_where_the_paper_says() {
    let topo = TopologyKind::Internet2.build();
    let tm = GravityModel::new(2_000.0, 8).base_matrix(&topo);
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes: 25,
            ..Default::default()
        },
    );
    let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let placement = OptimizationEngine::new(EngineConfig::default())
        .place(&classes, &orch)
        .expect("feasible");
    let ingress = ingress_per_class(&classes);
    assert!(
        placement.total_cores() < ingress.total_cores(),
        "APPLE {} vs ingress {}",
        placement.total_cores(),
        ingress.total_cores()
    );
    // Steering interferes; APPLE does not (trivially — it never re-routes).
    let steering = TrafficSteering::with_central_sites(&topo);
    let (changed, extra_hops) = steering.interference(&topo, &classes);
    assert!(changed > 0.5);
    assert!(extra_hops > 0.0);
}

#[test]
fn exact_and_rounded_agree_on_small_instances() {
    let topo = TopologyKind::Internet2.build();
    let tm = GravityModel::new(800.0, 5).base_matrix(&topo);
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes: 5,
            ..Default::default()
        },
    );
    let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let rounded = OptimizationEngine::new(EngineConfig::default())
        .place(&classes, &orch)
        .expect("feasible");
    // The exact optimum: branch-and-bound over the Eq. (1)-(8) integer
    // model, summing its integer instance counts.
    let model = OptimizationEngine::default().ilp_model(&classes, &orch);
    let (sol, _) = model
        .solve_ilp(BranchConfig::default())
        .expect("integer feasible");
    let exact: u32 = model
        .integer_vars()
        .into_iter()
        .map(|q| (sol.value(q) - 1e-9).ceil().max(0.0) as u32)
        .sum();
    assert!(rounded.total_instances() >= exact);
    // The LP-guided rounding should land within a small absolute gap.
    assert!(
        rounded.total_instances() - exact <= 3,
        "rounding gap too large: {} vs {exact}",
        rounded.total_instances(),
    );
}

#[test]
fn replan_responds_to_scaled_traffic() {
    let topo = TopologyKind::Geant.build();
    let series = TmSeries::generate(&topo, &SeriesConfig::small(13));
    let mean = series.mean();
    let low = Apple::plan(&topo, &mean.scaled(0.5), &small_config()).expect("feasible");
    let high = Apple::plan(&topo, &mean.scaled(2.0), &small_config()).expect("feasible");
    assert!(
        high.placement().total_instances() >= low.placement().total_instances(),
        "more traffic cannot need fewer instances: {} vs {}",
        high.placement().total_instances(),
        low.placement().total_instances()
    );
}

#[test]
fn every_chain_nf_has_an_instance_on_path() {
    // The structural core of policy enforcement, checked directly on the
    // placement rather than via packet walks.
    let topo = TopologyKind::Univ1.build();
    let tm = GravityModel::new(2_000.0, 9).base_matrix(&topo);
    let apple = Apple::plan(&topo, &tm, &small_config()).expect("feasible");
    for class in apple.classes() {
        for &nf in class.chain.nfs() {
            let on_path: u32 = class.path.iter().map(|&v| apple.placement().q(v, nf)).sum();
            assert!(
                on_path > 0,
                "{}: no {} instance on path {}",
                class.id,
                nf,
                class.path
            );
        }
    }
    // And the placement only uses catalog NFs.
    for (_, nf, _) in apple.placement().q_entries() {
        assert!(NfType::all().contains(&nf));
    }
}
