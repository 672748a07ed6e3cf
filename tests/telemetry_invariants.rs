//! Regression tests for the telemetry substrate's *semantic* guarantees:
//! the numbers the recorder reports must agree with what the instrumented
//! code actually did. All runs use small fixed inputs (see
//! `tests/README.md` for the seeding convention).

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine};
use apple_nfv::core::orchestrator::ResourceOrchestrator;
use apple_nfv::sim::failover_lab::{detection_timeline, DetectorConfig};
use apple_nfv::telemetry::{MemoryRecorder, Recorder};
use apple_nfv::topology::zoo;
use apple_nfv::traffic::GravityModel;

/// Base seed for this file (see `tests/README.md`); single-case tests use
/// it directly.
const SEED: u64 = 0x07e1_e3e7;

/// A small fixed placement problem: Internet2, 10 classes.
fn small_problem() -> (ClassSet, ResourceOrchestrator) {
    let topo = zoo::internet2();
    let tm = GravityModel::new(2_500.0, SEED).base_matrix(&topo);
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes: 10,
            ..Default::default()
        },
    );
    let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    (classes, orch)
}

#[test]
fn rounding_gap_gauge_is_nonnegative_and_matches_placement() {
    let (classes, orch) = small_problem();
    let rec = MemoryRecorder::new();
    let engine = OptimizationEngine::new(EngineConfig::default());
    let placement = engine.place_recorded(&classes, &orch, &rec).unwrap();
    let snap = rec.snapshot();

    let gap = snap.gauge("engine.rounding_gap").expect("gap gauged");
    // Ceiling a fractional LP optimum can only add instances.
    assert!(gap >= -1e-9, "rounding gap {gap} must be >= 0");
    assert!(
        (gap - placement.rounding_gap()).abs() < 1e-9,
        "gauge {gap} disagrees with Placement::rounding_gap() {}",
        placement.rounding_gap()
    );
    assert_eq!(
        snap.gauge("engine.total_instances"),
        Some(f64::from(placement.total_instances()))
    );
}

#[test]
fn solve_phase_spans_sum_to_at_most_total_place_time() {
    let (classes, orch) = small_problem();
    let rec = MemoryRecorder::new();
    let engine = OptimizationEngine::new(EngineConfig::default());
    engine.place_recorded(&classes, &orch, &rec).unwrap();
    let snap = rec.snapshot();

    let total = snap
        .histogram("span.engine.place")
        .expect("total span recorded")
        .sum;
    let phases: f64 = ["build", "solve", "round", "consolidate"]
        .iter()
        .filter_map(|p| snap.histogram(&format!("span.engine.{p}")))
        .map(|h| h.sum)
        .sum();
    assert!(phases > 0.0, "no phase spans recorded");
    // The phases partition the interior of place(); allow a sliver of
    // timer slack for the non-span glue between them.
    assert!(
        phases <= total * 1.01 + 0.5,
        "phase spans sum to {phases} ms > total {total} ms"
    );
}

#[test]
fn pivot_counters_match_reported_solver_work() {
    let (classes, orch) = small_problem();
    let rec = MemoryRecorder::new();
    let engine = OptimizationEngine::new(EngineConfig::default());
    engine.place_recorded(&classes, &orch, &rec).unwrap();
    let snap = rec.snapshot();

    let pivots = snap.counter("lp.pivots").expect("pivots counted");
    let phase1 = snap.counter("lp.phase1_pivots").unwrap_or(0);
    let solves = snap.counter("lp.solves").expect("solves counted");
    assert!(pivots > 0, "a real LP needs pivots");
    assert!(
        phase1 <= pivots,
        "phase-1 pivots are a subset of all pivots"
    );
    assert!(solves >= 1);
    // Every solve contributed one sample to each per-phase histogram.
    assert_eq!(snap.histogram("lp.build_ms").unwrap().count, solves);
    assert_eq!(snap.histogram("lp.phase1_ms").unwrap().count, solves);
    assert_eq!(snap.histogram("lp.phase2_ms").unwrap().count, solves);
}

#[test]
fn forced_overload_records_detection_and_helper_events() {
    // The §VIII-E burst (1 -> 10 -> 1 Kpps) must trip the detector at
    // least once and boot at least one helper; the roll-back at burst end
    // must also be counted.
    let rec = MemoryRecorder::new();
    let cfg = DetectorConfig::paper();
    let tl = detection_timeline(&cfg, &rec);
    let snap = rec.snapshot();

    assert!(snap.counter("sim.overloads_detected").unwrap_or(0) >= 1);
    assert!(snap.counter("sim.helpers_booted").unwrap_or(0) >= 1);
    assert!(snap.counter("sim.rollbacks").unwrap_or(0) >= 1);
    // Detection latency: within two polls of the burst start.
    let lat = snap
        .histogram("sim.detection_latency_ms")
        .expect("latency observed");
    assert!(
        lat.max <= 2.0 * cfg.poll_ms as f64,
        "detection latency {} ms exceeds two polls",
        lat.max
    );
    // The recorded events must agree with the timeline itself.
    assert!(tl.iter().any(|p| p.overloaded));
    assert!(tl.iter().any(|p| p.helper_active));
}

#[test]
fn disabled_recorder_changes_no_results() {
    // The NOOP-instrumented path and the recorded path must compute the
    // same placement — telemetry is observation, not behaviour.
    let (classes, orch) = small_problem();
    let engine = OptimizationEngine::new(EngineConfig::default());
    let plain = engine.place(&classes, &orch).unwrap();
    let rec = MemoryRecorder::new();
    let recorded = engine.place_recorded(&classes, &orch, &rec).unwrap();
    assert_eq!(plain.total_instances(), recorded.total_instances());
    assert!((plain.lp_objective() - recorded.lp_objective()).abs() < 1e-9);
    assert!(rec.enabled());
}
