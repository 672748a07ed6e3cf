//! Weekly re-optimisation with make-before-break transitions (§VI's
//! large-time-scale handling): plan per day from that day's mean traffic,
//! then transition between consecutive plans — booting new instances
//! before switching rules, tearing old ones down after — and report the
//! cost of each hand-over.
//!
//! Run with `cargo run --release --example weekly_reoptimization`.

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
use apple_nfv::core::orchestrator::{ControlOps, ResourceOrchestrator};
use apple_nfv::core::transition::{apply_transition, plan_transition};
use apple_nfv::core::verify::verify_placement;
use apple_nfv::nf::TimingModel;
use apple_nfv::telemetry::NOOP;
use apple_nfv::topology::zoo;
use apple_nfv::traffic::{SeriesConfig, TmSeries, TrafficMatrix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = zoo::geant();
    let series = TmSeries::generate(&topo, &SeriesConfig::paper(2_024));
    println!(
        "{}: one plan per day, staged transitions between them\n",
        topo.summary()
    );

    let engine = OptimizationEngine::new(EngineConfig::default());
    let class_cfg = ClassConfig {
        max_classes: 25,
        ..Default::default()
    };
    let base_classes = ClassSet::build(&topo, &series.mean(), &class_cfg);
    let mut timing = TimingModel::paper(7);
    let mut ops = ControlOps::reliable(7);

    let per_day = series.len() / 7;
    let mut previous = None;
    let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    println!(
        "{:<6}{:>10}{:>12}{:>10}{:>10}{:>10}{:>14}",
        "day", "instances", "cores", "keep", "launch", "retire", "hand-over"
    );
    for day in 0..7 {
        let snaps: Vec<TrafficMatrix> = (0..per_day)
            .map(|i| series.snapshot(day * per_day + i).clone())
            .collect();
        let day_mean = TrafficMatrix::mean_of(&snaps);
        let classes = base_classes.with_rates_from(&day_mean);
        let placement = engine.place(
            &classes,
            &ResourceOrchestrator::with_uniform_hosts(&topo, 64),
        )?;
        // Sanity: the plan satisfies Eq. (2)-(8).
        let violations = verify_placement(
            &classes,
            &placement,
            &ResourceOrchestrator::with_uniform_hosts(&topo, 64),
            1e-6,
        );
        assert!(
            violations.is_empty(),
            "day {day}: invalid plan: {violations:?}"
        );

        match previous {
            None => {
                // Day 0: cold start.
                for (v, nf, c) in placement.q_entries() {
                    for _ in 0..c {
                        orch.launch(v, nf)?;
                    }
                }
                println!(
                    "{:<6}{:>10}{:>12}{:>10}{:>10}{:>10}{:>14}",
                    day + 1,
                    placement.total_instances(),
                    placement.total_cores(),
                    "-",
                    placement.total_instances(),
                    "-",
                    "(cold start)"
                );
            }
            Some(prev) => {
                let plan = plan_transition(&prev, &placement, &mut timing);
                apply_transition(&plan, &mut orch, &mut ops, &NOOP)?;
                println!(
                    "{:<6}{:>10}{:>12}{:>10}{:>10}{:>10}{:>11.1} s",
                    day + 1,
                    placement.total_instances(),
                    placement.total_cores(),
                    plan.kept,
                    plan.launch_count(),
                    plan.teardown_count(),
                    plan.total_ms() as f64 / 1000.0
                );
            }
        }
        assert_eq!(orch.instance_count() as u32, placement.total_instances());
        previous = Some(placement);
    }
    println!("\nevery hand-over boots replacements before touching rules (make-before-break),");
    println!("so traffic never points at a VM that is still starting — the Fig. 7 failure mode.");
    Ok(())
}
