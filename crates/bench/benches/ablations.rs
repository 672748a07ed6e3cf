//! Ablation benches for the design choices DESIGN.md §5 calls out:
//!
//! * `aggregation_granularity` — optimisation time at per-flow-ish vs
//!   class granularity (§IV-A's scalability argument),
//! * `online_vs_global` — one global engine run against streaming the same
//!   classes through the online placer.
//!
//! Telemetry snapshot: `target/telemetry/ablations.json`.

use apple_bench::harness::Bench;
use apple_core::classes::{ClassConfig, ClassSet};
use apple_core::engine::{EngineConfig, OptimizationEngine};
use apple_core::orchestrator::ResourceOrchestrator;
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
    bench_aggregation(&bench);
    bench_global_vs_online(&bench);
    bench.finish().expect("snapshot written");
}
