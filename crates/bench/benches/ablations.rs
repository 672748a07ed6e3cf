//! Ablation benches for the design choices DESIGN.md §5 calls out:
//!
//! * `lp_round_vs_exact` — the paper's LP-relax-and-round against exact
//!   branch-and-bound (time; the quality gap is asserted in tests),
//! * `aggregation` — optimisation time at per-flow-ish vs class
//!   granularity (§IV-A's scalability argument),
//! * `subclass_split` — consistent hashing vs prefix splitting
//!   (sub-class derivation cost; rule-count impact is printed by `fig10`).
//!
//! Telemetry snapshot: `target/telemetry/ablations.json`.

use apple_bench::harness::Bench;
use apple_core::classes::{ClassConfig, ClassSet};
use apple_core::engine::{EngineConfig, OptimizationEngine};
use apple_core::orchestrator::ResourceOrchestrator;
use apple_core::subclass::{SplitStrategy, SubclassPlan};
use apple_topology::zoo;
use apple_traffic::GravityModel;

fn small_problem(max_classes: usize) -> (ClassSet, ResourceOrchestrator) {
    let topo = zoo::internet2();
    let tm = GravityModel::new(1_500.0, 3).base_matrix(&topo);
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes,
            ..Default::default()
        },
    );
    let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    (classes, orch)
}

fn bench_lp_vs_exact(bench: &Bench) {
    let (classes, orch) = small_problem(6);
    for (label, exact) in [("lp_round", false), ("exact_bnb", true)] {
        let engine = OptimizationEngine::new(EngineConfig {
            exact,
            ..Default::default()
        });
        bench.iter(&format!("lp_round_vs_exact.{label}"), || {
            engine.place(&classes, &orch).expect("feasible")
        });
    }
}

fn bench_aggregation(bench: &Bench) {
    // More classes = finer granularity; §IV-A argues coarse classes keep
    // the optimisation input small.
    for classes_n in [10usize, 40, 132] {
        let (classes, orch) = small_problem(classes_n);
        let engine = OptimizationEngine::new(EngineConfig::default());
        bench.iter(&format!("aggregation_granularity.{classes_n}"), || {
            engine.place(&classes, &orch).expect("feasible")
        });
    }
}

fn bench_subclass_split(bench: &Bench) {
    let (classes, orch) = small_problem(20);
    let placement = OptimizationEngine::new(EngineConfig::default())
        .place(&classes, &orch)
        .expect("feasible");
    for (label, strategy) in [
        ("consistent_hash", SplitStrategy::ConsistentHash),
        ("prefix_split", SplitStrategy::PrefixSplit),
    ] {
        bench.iter(&format!("subclass_split.{label}"), || {
            SubclassPlan::derive(&classes, &placement, strategy)
        });
    }
}

fn bench_global_vs_online(bench: &Bench) {
    use apple_core::online::OnlinePlacer;
    let (classes, orch) = small_problem(20);
    // Global: one engine run over all classes.
    let engine = OptimizationEngine::new(EngineConfig::default());
    bench.iter("online_vs_global.global_batch", || {
        engine.place(&classes, &orch).expect("feasible")
    });
    // Online: stream the same classes one at a time.
    bench.iter("online_vs_global.online_stream", || {
        let mut placer = OnlinePlacer::new();
        let mut orch = orch.clone();
        for class in &classes {
            placer
                .place_class(class, &mut orch)
                .expect("online placement feasible");
        }
        orch.instance_count()
    });
}

fn main() {
    let bench = Bench::new("ablations");
    bench_lp_vs_exact(&bench);
    bench_aggregation(&bench);
    bench_subclass_split(&bench);
    bench_global_vs_online(&bench);
    bench.finish().expect("snapshot written");
}
