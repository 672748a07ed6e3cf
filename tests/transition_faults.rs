//! Regression battery for `apply_transition` under control-plane
//! faults: a transition that fails mid-flight must surface the partial
//! state it had built — instances booted before a failed rule install,
//! switches already re-ruled — as a typed rollback plan
//! ([`RollbackReport`] inside [`TransitionError`]), and the orchestrator
//! must be back at exactly the old population when the error returns.

use apple_nfv::core::classes::{ClassConfig, ClassSet};
use apple_nfv::core::engine::{EngineConfig, OptimizationEngine, Placement};
use apple_nfv::core::orchestrator::{ControlOps, ResourceOrchestrator};
use apple_nfv::core::transition::{
    apply_transition, plan_transition_from_live, TransitionError, TransitionPlan,
};
use apple_nfv::faults::{FailFirstN, FaultInjector};
use apple_nfv::nf::NfType;
use apple_nfv::telemetry::{MemoryRecorder, NOOP};
use apple_nfv::topology::zoo;
use apple_nfv::traffic::GravityModel;
use std::collections::BTreeMap;

/// Base seed for this file (see tests/README.md).
const SEED: u64 = 0x7a11_bac4;

/// Fails every boot attempt after the first `skip` have succeeded — lands
/// the failure mid-way through the launch phase so the rollback has fresh
/// instances to revert.
struct FailBootsAfter {
    skip: u32,
    seen: u32,
}

impl FaultInjector for FailBootsAfter {
    fn boot_fails(&mut self, _switch: usize, _attempt: u32) -> bool {
        self.seen += 1;
        self.seen > self.skip
    }
}

/// Fails every rule-install attempt at one specific switch — lands the
/// failure after earlier switches have already been re-ruled, so the
/// rollback must also revert installed programs.
struct FailRulesAt {
    switch: usize,
}

impl FaultInjector for FailRulesAt {
    fn rule_install_fails(&mut self, switch: usize, _attempt: u32) -> bool {
        switch == self.switch
    }
}

fn placement_for(load: f64, seed: u64, orch: &ResourceOrchestrator) -> (ClassSet, Placement) {
    let topo = zoo::internet2();
    let tm = GravityModel::new(load, seed).base_matrix(&topo);
    let classes = ClassSet::build(
        &topo,
        &tm,
        &ClassConfig {
            max_classes: 16,
            ..Default::default()
        },
    );
    let placement = OptimizationEngine::new(EngineConfig::default())
        .place(&classes, orch)
        .expect("internet2 placement");
    (classes, placement)
}

fn population(orch: &ResourceOrchestrator) -> BTreeMap<(usize, NfType), u32> {
    let mut pop = BTreeMap::new();
    for inst in orch.instances() {
        *pop.entry((inst.host_switch(), inst.nf())).or_insert(0) += 1;
    }
    pop
}

fn touched_switches(plan: &TransitionPlan) -> Vec<usize> {
    let mut switches: Vec<usize> = plan
        .launches
        .iter()
        .chain(plan.teardowns.iter())
        .map(|&(v, _, _)| v.0)
        .collect();
    switches.sort_unstable();
    switches.dedup();
    switches
}

/// Builds a live deployment at the small placement, plus the plan that
/// would migrate it to the large one. The plan must both launch and tear
/// down, or the fault scenarios below test nothing.
fn live_deployment() -> (ResourceOrchestrator, TransitionPlan, Placement) {
    let topo = zoo::internet2();
    let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
    let (_, small) = placement_for(2_000.0, SEED, &orch);
    let mut ops = ControlOps::reliable(SEED);
    let bootstrap = plan_transition_from_live(&orch, small.q_entries(), &mut ops.timing);
    apply_transition(&bootstrap, &mut orch, &mut ops, &NOOP).expect("bootstrap transition");
    let (_, large) = placement_for(
        6_000.0,
        SEED ^ 1,
        &ResourceOrchestrator::with_uniform_hosts(&topo, 64),
    );
    let plan = plan_transition_from_live(&orch, large.q_entries(), &mut ops.timing);
    assert!(
        !plan.launches.is_empty(),
        "migration plan launches nothing; pick different loads"
    );
    (orch, plan, large)
}

/// Boot failure mid-launch: the instances booted so far are the typed
/// rollback's `torn_down`, and the orchestrator is back at the old
/// population.
#[test]
fn boot_failure_reports_and_reverts_fresh_instances() {
    let (mut orch, plan, _) = live_deployment();
    let before = population(&orch);
    let total_launches: u32 = plan.launches.iter().map(|&(_, _, c)| c).sum();
    assert!(
        total_launches >= 2,
        "need at least 2 launches to fail midway"
    );

    let rec = MemoryRecorder::new();
    let mut ops =
        ControlOps::with_injector(SEED ^ 0x10, Box::new(FailBootsAfter { skip: 2, seen: 0 }));
    let err = apply_transition(&plan, &mut orch, &mut ops, &rec)
        .expect_err("boots fail after the first two");
    match &err {
        TransitionError::Boot { rollback, .. } => {
            assert_eq!(
                rollback.torn_down.len(),
                2,
                "exactly the two booted instances are reverted"
            );
            assert!(rollback.rules_reverted.is_empty(), "no rules were touched");
        }
        other => panic!("expected Boot error, got {other:?}"),
    }
    assert_eq!(err.rollback().torn_down.len(), 2);
    assert_eq!(population(&orch), before, "old placement must survive");
    assert_eq!(rec.snapshot().counter("transition.rollbacks"), Some(1));
    // The error formats with its rollback detail for operators.
    assert!(err.to_string().contains("rolled back 2 fresh instances"));
}

/// Rule-install failure after a fully successful boot phase — the classic
/// partial-failure window. Every fresh instance must come back down and
/// be listed in the rollback.
#[test]
fn rule_failure_after_boots_reverts_everything() {
    let (mut orch, plan, _) = live_deployment();
    let before = population(&orch);
    let total_launches: u32 = plan.launches.iter().map(|&(_, _, c)| c).sum();

    let mut ops = ControlOps::with_injector(SEED ^ 0x20, Box::new(FailFirstN::new(0, 10_000)));
    let err =
        apply_transition(&plan, &mut orch, &mut ops, &NOOP).expect_err("every rule install fails");
    match &err {
        TransitionError::RuleInstall { rollback, .. } => {
            assert_eq!(
                rollback.torn_down.len(),
                total_launches as usize,
                "all fresh instances must be reverted"
            );
            assert!(
                rollback.rules_reverted.is_empty(),
                "the very first install failed; nothing to revert"
            );
        }
        other => panic!("expected RuleInstall error, got {other:?}"),
    }
    assert_eq!(population(&orch), before, "old placement must survive");
}

/// Rule-install failure at a *later* switch: the earlier switches were
/// already re-ruled and must show up in `rules_reverted`.
#[test]
fn partial_rule_installs_are_reported_reverted() {
    let (mut orch, plan, _) = live_deployment();
    let before = population(&orch);
    let touched = touched_switches(&plan);
    assert!(touched.len() >= 2, "need >= 2 touched switches");
    let fail_at = touched[1];

    let mut ops = ControlOps::with_injector(SEED ^ 0x30, Box::new(FailRulesAt { switch: fail_at }));
    let err = apply_transition(&plan, &mut orch, &mut ops, &NOOP)
        .expect_err("second touched switch rejects its rules");
    match &err {
        TransitionError::RuleInstall {
            switch, rollback, ..
        } => {
            assert_eq!(switch.0, fail_at);
            assert_eq!(
                rollback
                    .rules_reverted
                    .iter()
                    .map(|v| v.0)
                    .collect::<Vec<_>>(),
                vec![touched[0]],
                "the already-installed switch must be reverted"
            );
            assert!(!rollback.torn_down.is_empty());
        }
        other => panic!("expected RuleInstall error, got {other:?}"),
    }
    assert_eq!(population(&orch), before, "old placement must survive");
}

/// Transient faults the retry budget absorbs must not fail the transition:
/// the report lists every launch, every touched switch's install, and the
/// orchestrator lands exactly on the new placement.
#[test]
fn retryable_faults_still_complete_the_transition() {
    let (mut orch, plan, target) = live_deployment();
    let touched = touched_switches(&plan);
    let total_launches: u32 = plan.launches.iter().map(|&(_, _, c)| c).sum();

    let mut ops = ControlOps::with_injector(SEED ^ 0x40, Box::new(FailFirstN::new(2, 2)));
    let report = apply_transition(&plan, &mut orch, &mut ops, &NOOP)
        .expect("two flaky boots and two flaky installs are retryable");
    assert_eq!(report.launched.len(), total_launches as usize);
    assert_eq!(report.rules_installed.len(), touched.len());
    assert!(report.boot_ms > 0);

    let mut want: BTreeMap<(usize, NfType), u32> = BTreeMap::new();
    for (v, nf, c) in target.q_entries() {
        want.insert((v.0, nf), c);
    }
    assert_eq!(
        population(&orch),
        want,
        "successful transition must land exactly on the new placement"
    );
}
