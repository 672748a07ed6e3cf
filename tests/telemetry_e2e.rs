//! End-to-end acceptance test for the telemetry substrate: plan a full
//! APPLE deployment on Internet2 (place → tag → program), force an
//! overload, run failover, and check that the JSON telemetry snapshot
//! carries per-phase engine timings, simplex pivot counts and failover
//! event counts — the numbers Table V / Fig. 9 are built from.

use apple_nfv::core::classes::{ClassConfig, ClassId};
use apple_nfv::core::controller::{Apple, AppleConfig};
use apple_nfv::core::orchestrator::ControlOps;
use apple_nfv::sim::replay::{replay, ReplayConfig};
use apple_nfv::telemetry::{MemoryRecorder, Snapshot, NOOP};
use apple_nfv::topology::zoo;
use apple_nfv::traffic::{GravityModel, SeriesConfig, TmSeries};
use std::collections::BTreeMap;

/// Base seed for this file (see `tests/README.md`).
const SEED: u64 = 0x0e2e_7e1e;

#[test]
fn full_pipeline_emits_a_complete_json_snapshot() {
    let rec = MemoryRecorder::new();

    // --- Place + tag: plan the deployment under the recorder. ---
    let topo = zoo::internet2();
    let tm = GravityModel::new(3_000.0, SEED).base_matrix(&topo);
    let cfg = AppleConfig {
        classes: ClassConfig {
            max_classes: 12,
            ..Default::default()
        },
        ..Default::default()
    };
    let apple = Apple::plan_recorded(&topo, &tm, &cfg, &rec).unwrap();
    assert!(apple.placement().total_instances() > 0);

    // --- Overload + failover: burst every class far past capacity of a
    // victim instance and notify the Dynamic Handler. ---
    let mut handler = apple.dynamic_handler().unwrap();
    let (classes, _placement, _plan, _program, mut orch) = apple.into_parts();
    let victim = handler.shares()[0].instances[0];
    let burst: BTreeMap<ClassId, f64> =
        classes.iter().map(|c| (c.id, c.rate_mbps * 40.0)).collect();
    let act = handler
        .handle_overload(
            victim,
            &burst,
            &classes,
            &mut orch,
            &mut ControlOps::reliable(SEED),
            &rec,
        )
        .unwrap();
    assert_ne!(
        act,
        apple_nfv::core::failover::FailoverAction::None,
        "a burst through a live instance must trigger failover"
    );
    handler.roll_back(&mut orch, &rec);

    // --- The snapshot: non-empty, JSON round-trippable, and carrying the
    // headline metrics of every subsystem. ---
    let snap = rec.snapshot();
    assert!(!snap.is_empty());

    // Per-phase engine timings.
    for phase in ["place", "build", "solve", "round"] {
        let name = format!("span.engine.{phase}");
        let h = snap
            .histogram(&name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(h.count >= 1, "{name} never sampled");
        assert!(h.sum >= 0.0);
    }

    // Simplex pivot counts.
    assert!(
        snap.counter("lp.pivots").unwrap_or(0) > 0,
        "no pivots counted"
    );
    assert!(snap.counter("lp.solves").unwrap_or(0) >= 1);

    // Failover event counts: exactly one notification was handled, so
    // exactly one outcome counter fired; the roll-back was counted too.
    let outcomes: u64 = [
        "failover.rebalanced",
        "failover.reassigned",
        "failover.helpers_spawned",
        "failover.held",
        "failover.noop",
    ]
    .iter()
    .filter_map(|n| snap.counter(n))
    .sum();
    assert_eq!(outcomes, 1, "one notification must yield one outcome");
    assert_eq!(snap.counter("failover.rollbacks"), Some(1));
    assert_eq!(snap.counter("span.failover.handle_overload.calls"), Some(1));

    // TCAM accounting from rule generation.
    assert!(snap.gauge("tcam.rules_installed").unwrap_or(0.0) > 0.0);
    assert!(snap.gauge("tcam.reduction_ratio").unwrap_or(0.0) >= 1.0);

    // JSON export is non-empty and parses back to the identical snapshot.
    let json = snap.to_json();
    assert!(json.contains("lp.pivots") && json.contains("span.engine.place"));
    let back = Snapshot::from_json(&json).expect("snapshot JSON parses");
    assert_eq!(back, snap);
}

#[test]
fn replay_telemetry_matches_the_replay_outcome() {
    // A bursty Internet2 replay trips failover, spawns helpers and rolls
    // back; its counters must agree with the outcome it returns, and
    // recording must not change what the replay computes.
    let topo = zoo::internet2();
    let series = TmSeries::generate(
        &topo,
        &SeriesConfig {
            snapshots: 72,
            burst_pairs: 2,
            burst_scale: 8.0,
            ..SeriesConfig::paper(SEED)
        },
    );
    let cfg = ReplayConfig {
        apple: AppleConfig {
            classes: ClassConfig {
                max_classes: 12,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    };
    let rec = MemoryRecorder::new();
    let recorded = replay(&topo, &series, &cfg, &rec).expect("replay runs");
    let quiet = replay(&topo, &series, &cfg, &NOOP).expect("replay runs");
    assert_eq!(recorded, quiet, "recording changed the replay");
    assert!(
        recorded.notifications > 0,
        "the bursts never tripped failover"
    );

    let snap = rec.snapshot();
    assert_eq!(
        snap.counter("sim.notifications").unwrap_or(0),
        recorded.notifications as u64
    );
    assert_eq!(
        snap.counter("failover.helpers_spawned").unwrap_or(0),
        recorded.helpers_spawned as u64
    );
    assert_eq!(
        snap.gauge("sim.peak_helper_cores"),
        Some(f64::from(recorded.peak_helper_cores))
    );
    assert!(snap.counter("failover.rollbacks").unwrap_or(0) >= 1);
}
