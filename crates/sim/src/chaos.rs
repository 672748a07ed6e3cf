//! Chaos harness: replay seeded fault schedules against a planned
//! deployment and check the runtime invariants after **every** event.
//!
//! Where [`crate::replay`] measures packet loss over a traffic series, this
//! module stress-tests the *control plane*: a [`FaultPlan`] derived from a
//! seed kills instances and hosts while an operation-level injector makes
//! boots and rule installs flaky, and after each event the live sub-class
//! state is verified with [`verify_shares`] — every stage on an existing,
//! correctly-typed instance on the class's own path in chain order
//! (interference freedom), and every class's traffic accounted for by live
//! shares plus the explicit shed ledger. The chaos integration test drives
//! hundreds of these schedules; the `apple chaos` CLI command runs one
//! batch and prints the report.

use apple_core::classes::{ClassId, ClassSet};
use apple_core::controller::{Apple, AppleConfig};
use apple_core::failover::DynamicHandler;
use apple_core::orchestrator::{ControlOps, ResourceOrchestrator};
use apple_core::verify::{verify_shares, ShareViolation};
use apple_faults::{FaultKind, FaultPlan, FaultPlanConfig};
use apple_nf::InstanceId;
use apple_telemetry::Recorder;
use apple_topology::{NodeId, Topology};
use apple_traffic::TrafficMatrix;
use std::collections::BTreeMap;

use crate::replay::ReplayError;

/// Outcome of one fault schedule run to completion.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Schedule events applied (including no-op recoveries).
    pub events_applied: usize,
    /// Countable faults injected (crashes + host failures).
    pub faults_injected: usize,
    /// Invariant violations found, with the tick they appeared at. A
    /// correct control plane keeps this empty for every seed.
    pub violations: Vec<(u64, ShareViolation)>,
    /// Ticks at which the handler was in degraded mode.
    pub degraded_ticks: usize,
    /// Highest total shed fraction observed at any point.
    pub max_shed: f64,
    /// Total shed fraction when the schedule ended.
    pub final_shed: f64,
    /// Whether the handler ended the schedule still degraded.
    pub final_degraded: bool,
}

impl ChaosReport {
    /// True when no invariant was ever violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs one fault schedule against live deployment state, verifying the
/// runtime invariants after every event. The caller owns (and keeps) the
/// mutated state; clone a pristine deployment per schedule to amortise
/// planning across many seeds.
pub fn run_schedule(
    classes: &ClassSet,
    orch: &mut ResourceOrchestrator,
    handler: &mut DynamicHandler,
    cfg: &FaultPlanConfig,
    rec: &dyn Recorder,
) -> ChaosReport {
    let plan = FaultPlan::generate(cfg);
    let mut ops = ControlOps::with_injector(cfg.seed, Box::new(plan.injector()));
    let rates: BTreeMap<ClassId, f64> = classes.iter().map(|c| (c.id, c.rate_mbps)).collect();
    let tol = 1e-6;
    let mut report = ChaosReport::default();

    let check = |tick: u64,
                 handler: &DynamicHandler,
                 orch: &ResourceOrchestrator,
                 report: &mut ChaosReport| {
        for v in verify_shares(classes, handler, orch, tol) {
            report.violations.push((tick, v));
        }
        report.max_shed = report.max_shed.max(handler.total_shed());
    };

    for tick in 0..=plan.last_tick() {
        for ev in plan.events_at(tick).copied().collect::<Vec<_>>() {
            report.events_applied += 1;
            report.faults_injected +=
                apply_fault(&ev.kind, &rates, classes, handler, orch, &mut ops, rec);
            check(tick, handler, orch, &mut report);
        }
        // Degraded mode retries restoration every tick (capacity may have
        // come back via host recovery or a replacement boot).
        if handler.is_degraded() {
            report.degraded_ticks += 1;
            let _ = handler.recover_degraded(&rates, classes, orch, &mut ops, rec);
            check(tick, handler, orch, &mut report);
        }
    }
    report.final_shed = handler.total_shed();
    report.final_degraded = handler.is_degraded();
    report
}

/// Applies one scheduled fault, resolving its selector against the
/// population alive right now. Returns 1 when a countable fault (crash or
/// host failure) was injected, 0 otherwise. Handler errors are counted
/// (`sim.failover_errors`), never propagated — surviving malformed events
/// is the point of the fault harness.
fn apply_fault(
    kind: &FaultKind,
    rates: &BTreeMap<ClassId, f64>,
    classes: &ClassSet,
    handler: &mut DynamicHandler,
    orch: &mut ResourceOrchestrator,
    ops: &mut ControlOps,
    rec: &dyn Recorder,
) -> usize {
    let dead: Vec<InstanceId> = match kind {
        FaultKind::InstanceCrash { victim } => {
            let alive: Vec<InstanceId> = orch.instances().map(|i| i.id()).collect();
            if alive.is_empty() {
                return 0;
            }
            vec![alive[(victim % alive.len() as u64) as usize]]
        }
        FaultKind::HostFailure { host } => {
            let up = hosts_where(orch, true);
            if up.is_empty() {
                return 0;
            }
            let sw = up[(host % up.len() as u64) as usize];
            orch.fail_host(NodeId(sw)).unwrap_or_default()
        }
        FaultKind::HostRecovery { host } => {
            let down = hosts_where(orch, false);
            if let Some(&sw) = down.get((host % down.len().max(1) as u64) as usize) {
                let _ = orch.restore_host(NodeId(sw));
            }
            return 0;
        }
    };
    rec.counter("sim.faults_injected", 1);
    for dead in dead {
        if handler
            .handle_instance_crash(dead, rates, classes, orch, ops, rec)
            .is_err()
        {
            rec.counter("sim.failover_errors", 1);
        }
    }
    1
}

/// Switches whose host is up (`up`) or down (`!up`), in switch order.
fn hosts_where(orch: &ResourceOrchestrator, up: bool) -> Vec<usize> {
    orch.hosts()
        .iter()
        .filter(|(_, h)| h.up == up)
        .map(|(s, _)| *s)
        .collect()
}

/// Plans a fresh deployment for `topo`/`tm` and runs one fault schedule
/// against it. (The `apple chaos` command plans once and calls
/// [`run_schedule`] per seed on a clone of the deployment.)
///
/// # Errors
///
/// [`ReplayError`] from planning or handler bootstrap.
pub fn run_chaos(
    topo: &Topology,
    tm: &TrafficMatrix,
    apple_cfg: &AppleConfig,
    fault_cfg: &FaultPlanConfig,
    rec: &dyn Recorder,
) -> Result<ChaosReport, ReplayError> {
    let apple = Apple::plan_recorded(topo, tm, apple_cfg, rec)?;
    let mut handler = apple.dynamic_handler()?;
    let (classes, _placement, _plan, _program, mut orch) = apple.into_parts();
    Ok(run_schedule(
        &classes,
        &mut orch,
        &mut handler,
        fault_cfg,
        rec,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_core::classes::ClassConfig;
    use apple_telemetry::NOOP;
    use apple_topology::zoo;
    use apple_traffic::GravityModel;

    fn small_cfg() -> AppleConfig {
        AppleConfig {
            classes: ClassConfig {
                max_classes: 10,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn chaos_schedule_stays_clean() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(3_000.0, 61).base_matrix(&topo);
        let report =
            run_chaos(&topo, &tm, &small_cfg(), &FaultPlanConfig::chaos(61), &NOOP).unwrap();
        assert!(report.faults_injected > 0, "schedule injected nothing");
        assert!(
            report.is_clean(),
            "invariant violations: {:?}",
            report.violations
        );
    }

    #[test]
    fn chaos_is_deterministic_per_seed() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(3_000.0, 61).base_matrix(&topo);
        let a = run_chaos(&topo, &tm, &small_cfg(), &FaultPlanConfig::chaos(7), &NOOP).unwrap();
        let b = run_chaos(&topo, &tm, &small_cfg(), &FaultPlanConfig::chaos(7), &NOOP).unwrap();
        assert_eq!(a.events_applied, b.events_applied);
        assert_eq!(a.faults_injected, b.faults_injected);
        assert_eq!(a.degraded_ticks, b.degraded_ticks);
        assert!((a.final_shed - b.final_shed).abs() < 1e-12);
    }

    #[test]
    fn quiet_schedule_changes_nothing() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(3_000.0, 61).base_matrix(&topo);
        let report =
            run_chaos(&topo, &tm, &small_cfg(), &FaultPlanConfig::quiet(5), &NOOP).unwrap();
        assert_eq!(report.events_applied, 0);
        assert_eq!(report.faults_injected, 0);
        assert!(report.is_clean());
        assert_eq!(report.final_shed, 0.0);
    }
}
