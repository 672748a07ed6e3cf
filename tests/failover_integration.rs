//! Integration tests for fast failover (§VI) driven through the simulator:
//! the Fig. 12 loss ordering, roll-back hygiene, and the interference-
//! freedom guarantee *during* failover.

use apple_nfv::core::classes::{ClassConfig, ClassId};
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::orchestrator::ControlOps;
use apple_nfv::sim::replay::{replay, ReplayConfig};
use apple_nfv::telemetry::NOOP;
use apple_nfv::topology::{zoo, TopologyKind};
use apple_nfv::traffic::{GravityModel, SeriesConfig, TmSeries};
use std::collections::BTreeMap;

fn replay_cfg(fast_failover: bool) -> ReplayConfig {
    ReplayConfig {
        apple: AppleConfig {
            classes: ClassConfig {
                max_classes: 12,
                ..Default::default()
            },
            ..Default::default()
        },
        fast_failover,
        ..Default::default()
    }
}

fn bursty(topo: &apple_nfv::topology::Topology, seed: u64) -> TmSeries {
    TmSeries::generate(
        topo,
        &SeriesConfig {
            snapshots: 72,
            burst_pairs: 2,
            burst_scale: 8.0,
            ..SeriesConfig::paper(seed)
        },
    )
}

#[test]
fn failover_never_hurts_on_the_evaluation_trio() {
    for kind in TopologyKind::evaluation_trio() {
        let topo = kind.build();
        let series = bursty(&topo, 31);
        let with = replay(&topo, &series, &replay_cfg(true), &NOOP)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let without = replay(&topo, &series, &replay_cfg(false), &NOOP)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
        assert!(
            with.loss.mean() <= without.loss.mean() + 1e-9,
            "{kind}: failover worsened mean loss: {} vs {}",
            with.loss.mean(),
            without.loss.mean()
        );
    }
}

#[test]
fn helper_cores_bounded_and_released() {
    let topo = zoo::internet2();
    let series = bursty(&topo, 32);
    let out = replay(&topo, &series, &replay_cfg(true), &NOOP).expect("replay runs");
    // The §IX-E claim at our scale: bounded extra cores.
    assert!(
        out.peak_helper_cores <= 32,
        "helpers ballooned to {} cores",
        out.peak_helper_cores
    );
    // All helpers cancelled by the end of the run.
    assert_eq!(out.helper_cores.samples().last().unwrap().1, 0.0);
}

#[test]
fn failover_decisions_never_change_paths() {
    // Drive the Dynamic Handler directly and check that every share —
    // including helper shares created mid-failover — maps stages onto
    // switches of the class's original path, in non-decreasing order.
    let topo = zoo::internet2();
    let tm = GravityModel::new(2_000.0, 33).base_matrix(&topo);
    let mut apple = Apple::plan(
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
    .expect("feasible");
    let mut handler = apple.dynamic_handler().unwrap();
    let classes = apple.classes().clone();
    // Burst every class and notify for every instance in turn.
    let rates: BTreeMap<ClassId, f64> =
        classes.iter().map(|c| (c.id, c.rate_mbps * 10.0)).collect();
    let instances: Vec<_> = handler
        .shares()
        .iter()
        .flat_map(|s| s.instances.clone())
        .collect();
    for inst in instances {
        let _ = handler.handle_overload(
            inst,
            &rates,
            &classes,
            apple.orchestrator_mut(),
            &mut ControlOps::reliable(0),
            &NOOP,
        );
    }
    for share in handler.shares() {
        let class = classes.class(share.class).expect("share has a class");
        let mut last_pos = 0usize;
        for (j, &inst) in share.instances.iter().enumerate() {
            let host = apple
                .orchestrator()
                .instance(inst)
                .unwrap_or_else(|| panic!("missing instance {inst}"))
                .host_switch();
            let pos = class
                .path
                .index_of(apple_nfv::topology::NodeId(host))
                .unwrap_or_else(|| {
                    panic!(
                        "failover placed stage {j} of {} off-path (switch {host})",
                        share.class
                    )
                });
            assert!(pos >= last_pos, "stage order violated in {}", share.class);
            last_pos = pos;
        }
    }
    assert!(handler.fractions_consistent());
}

#[test]
fn roll_back_is_idempotent() {
    let topo = zoo::internet2();
    let tm = GravityModel::new(2_000.0, 34).base_matrix(&topo);
    let mut apple = Apple::plan(
        &topo,
        &tm,
        &AppleConfig {
            classes: ClassConfig {
                max_classes: 8,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .expect("feasible");
    let mut handler = apple.dynamic_handler().unwrap();
    let classes = apple.classes().clone();
    let rates: BTreeMap<ClassId, f64> =
        classes.iter().map(|c| (c.id, c.rate_mbps * 20.0)).collect();
    let victim = handler.shares()[0].instances[0];
    let _ = handler.handle_overload(
        victim,
        &rates,
        &classes,
        apple.orchestrator_mut(),
        &mut ControlOps::reliable(0),
        &NOOP,
    );
    let count_after_failover = apple.orchestrator().instance_count();
    handler.roll_back(apple.orchestrator_mut(), &NOOP);
    let baseline = apple.orchestrator().instance_count();
    assert!(baseline <= count_after_failover);
    // Second roll-back changes nothing.
    handler.roll_back(apple.orchestrator_mut(), &NOOP);
    assert_eq!(apple.orchestrator().instance_count(), baseline);
    assert!(handler.fractions_consistent());
    assert_eq!(handler.helper_cores(), 0);
}

#[test]
fn loss_probabilities_valid_across_topologies() {
    for kind in TopologyKind::evaluation_trio() {
        let topo = kind.build();
        let series = bursty(&topo, 35);
        let out = replay(&topo, &series, &replay_cfg(true), &NOOP).expect("replay runs");
        assert_eq!(out.loss.len(), series.len());
        for (_, v) in out.loss.samples() {
            assert!((0.0..=1.0).contains(v));
        }
    }
}
