//! Make-before-break transitions between placements.
//!
//! §VI handles large time-scale dynamics by "periodically running the
//! Optimization Engine and placing VNF instances accordingly". Swapping
//! placements naively would strand traffic (Fig. 7 shows what happens when
//! rules point at VMs that are not ready), so transitions are staged:
//!
//! 1. **launch** — boot every instance the new placement adds (boots run in
//!    parallel; ClickOS ≈ 4.2 s through OpenStack, ordinary VMs longer),
//! 2. **re-rule** — once everything is up, install the new classification
//!    and vSwitch rules (≈ 70 ms, switches updated in parallel),
//! 3. **teardown** — cancel instances only the old placement used.
//!
//! At every instant each (switch, NF) keeps at least
//! `min(old count, new count)` live instances — the make-before-break
//! invariant the tests assert.

use crate::engine::Placement;
use crate::orchestrator::{ControlOps, OrchestratorError, ResourceOrchestrator};
use apple_nf::{InstanceId, NfType, TimingModel, VnfSpec};
use apple_telemetry::Recorder;
use apple_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// A staged transition between two placements.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionPlan {
    /// Instances to launch: `(switch, NF, how many)`.
    pub launches: Vec<(NodeId, NfType, u32)>,
    /// Instances to tear down after the switch-over.
    pub teardowns: Vec<(NodeId, NfType, u32)>,
    /// Instances common to both placements (left untouched).
    pub kept: u32,
    /// Estimated milliseconds until the new instances are all ready
    /// (parallel boots → the slowest one dominates).
    pub boot_ms: u64,
    /// Estimated milliseconds for the rule switch-over.
    pub rule_install_ms: u64,
}

impl TransitionPlan {
    /// End-to-end estimated duration: boots, then rules (teardown is
    /// off the critical path).
    pub fn total_ms(&self) -> u64 {
        self.boot_ms + self.rule_install_ms
    }

    /// Total instances launched.
    pub fn launch_count(&self) -> u32 {
        self.launches.iter().map(|&(_, _, c)| c).sum()
    }

    /// Total instances torn down.
    pub fn teardown_count(&self) -> u32 {
        self.teardowns.iter().map(|&(_, _, c)| c).sum()
    }
}

/// Computes the staged transition from `old` to `new`.
///
/// Boot estimates come from the timing model: the slowest launched VM
/// bounds the make-before-break wait (ClickOS ≈ 4.2 s, ordinary VM 30 s).
pub fn plan_transition(
    old: &Placement,
    new: &Placement,
    timing: &mut TimingModel,
) -> TransitionPlan {
    let old_q = old.q_entries().map(|(v, nf, c)| ((v.0, nf), c)).collect();
    plan_from(old_q, new.q_entries(), timing)
}

/// Computes the staged transition from the orchestrator's *live* instance
/// population to the per-(switch, NF) instance counts `new` (a
/// placement's [`Placement::q_entries`], or a fleet logged from one) —
/// the online loop's variant of [`plan_transition`], where "old" is
/// whatever is actually running (including instances the online DP
/// placer booted outside any offline placement).
pub fn plan_transition_from_live(
    orch: &ResourceOrchestrator,
    new: impl IntoIterator<Item = (NodeId, NfType, u32)>,
    timing: &mut TimingModel,
) -> TransitionPlan {
    let mut old_q: BTreeMap<(usize, NfType), u32> = BTreeMap::new();
    for inst in orch.instances() {
        *old_q.entry((inst.host_switch(), inst.nf())).or_insert(0) += 1;
    }
    plan_from(old_q, new, timing)
}

/// The staged transition from the per-(switch, NF) counts `old_q` to
/// `new`.
fn plan_from(
    old_q: BTreeMap<(usize, NfType), u32>,
    new: impl IntoIterator<Item = (NodeId, NfType, u32)>,
    timing: &mut TimingModel,
) -> TransitionPlan {
    let new_q: BTreeMap<(usize, NfType), u32> =
        new.into_iter().map(|(v, nf, c)| ((v.0, nf), c)).collect();
    let mut launches = Vec::new();
    let mut teardowns = Vec::new();
    let mut kept = 0u32;
    let keys: std::collections::BTreeSet<(usize, NfType)> =
        old_q.keys().chain(new_q.keys()).copied().collect();
    let mut slowest_boot = 0u64;
    for key in keys {
        let before = old_q.get(&key).copied().unwrap_or(0);
        let after = new_q.get(&key).copied().unwrap_or(0);
        kept += before.min(after);
        if after > before {
            let count = after - before;
            launches.push((NodeId(key.0), key.1, count));
            let clickos = VnfSpec::of(key.1).clickos;
            for _ in 0..count {
                slowest_boot = slowest_boot.max(timing.provision(clickos, false));
            }
        } else if before > after {
            teardowns.push((NodeId(key.0), key.1, before - after));
        }
    }
    TransitionPlan {
        launches,
        teardowns,
        kept,
        boot_ms: slowest_boot,
        rule_install_ms: timing.rule_install(),
    }
}

/// What [`apply_transition`] undid after a mid-transition failure —
/// the typed rollback plan that makes partial-failure state explicit
/// instead of leaving the orchestrator inconsistent.
///
/// After a failed transition the orchestrator is back to exactly the old
/// placement's population; this report records what had to be reverted to
/// get there (`tests/transition_faults.rs` asserts both halves).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RollbackReport {
    /// Fresh instances (booted by this transition) torn back down.
    pub torn_down: Vec<InstanceId>,
    /// Switches whose new rules had already been installed and were
    /// reverted to the old program (best-effort; reverts use the local
    /// switch agent and do not themselves fail).
    pub rules_reverted: Vec<NodeId>,
}

/// A transition failure with its executed rollback attached.
#[derive(Debug, Clone, PartialEq)]
pub enum TransitionError {
    /// An instance boot failed (after retries). Rule installs had not
    /// started, so only fresh instances needed reverting.
    Boot {
        /// Where the boot failed.
        switch: NodeId,
        /// The NF type that failed to boot.
        nf: NfType,
        /// The underlying control-plane error.
        cause: OrchestratorError,
        /// What was undone.
        rollback: RollbackReport,
    },
    /// A rule install failed (after retries) with every new instance
    /// already booted — the partial-failure window.
    RuleInstall {
        /// The switch whose rules could not be installed.
        switch: NodeId,
        /// The underlying control-plane error.
        cause: OrchestratorError,
        /// What was undone (all fresh instances + any switches already
        /// re-ruled).
        rollback: RollbackReport,
    },
}

impl TransitionError {
    /// The underlying control-plane error.
    pub fn cause(&self) -> &OrchestratorError {
        match self {
            TransitionError::Boot { cause, .. } | TransitionError::RuleInstall { cause, .. } => {
                cause
            }
        }
    }

    /// The rollback executed before the error was surfaced.
    pub fn rollback(&self) -> &RollbackReport {
        match self {
            TransitionError::Boot { rollback, .. }
            | TransitionError::RuleInstall { rollback, .. } => rollback,
        }
    }
}

impl fmt::Display for TransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionError::Boot {
                switch,
                nf,
                cause,
                rollback,
            } => write!(
                f,
                "transition boot of {nf} at {switch} failed ({cause}); rolled back {} fresh instances",
                rollback.torn_down.len()
            ),
            TransitionError::RuleInstall {
                switch,
                cause,
                rollback,
            } => write!(
                f,
                "transition rule install at {switch} failed ({cause}); rolled back {} fresh instances, reverted {} switches",
                rollback.torn_down.len(),
                rollback.rules_reverted.len()
            ),
        }
    }
}

impl std::error::Error for TransitionError {}

/// Outcome of a successful [`apply_transition`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionReport {
    /// Instances booted by the transition.
    pub launched: Vec<InstanceId>,
    /// Instances torn down after the switch-over.
    pub torn_down: Vec<InstanceId>,
    /// Switches whose rule programs were re-installed.
    pub rules_installed: Vec<NodeId>,
    /// Slowest single boot (parallel boots → critical path), virtual ms.
    pub boot_ms: u64,
    /// Total virtual ms spent installing rules (switches in parallel
    /// would overlap; the sum is the conservative serial bound).
    pub rule_install_ms: u64,
}

/// The switches whose TCAM programs a transition rewrites: every switch
/// gaining or losing instances re-steers traffic there.
fn touched_switches(plan: &TransitionPlan) -> Vec<NodeId> {
    let mut switches: Vec<NodeId> = plan
        .launches
        .iter()
        .chain(plan.teardowns.iter())
        .map(|&(v, _, _)| v)
        .collect();
    switches.sort_unstable_by_key(|v| v.0);
    switches.dedup();
    switches
}

/// Executes a transition through the fallible control plane, preserving
/// make-before-break: boot every new instance (with retries), then install
/// the new rule programs switch by switch, then tear old instances down.
/// Pass [`ControlOps::reliable`] for a control plane that never fails.
///
/// # Errors
///
/// On any failure the transition is rolled back **before** the error is
/// returned — fresh instances are torn down and already-installed rule
/// programs reverted — and the [`TransitionError`] carries the executed
/// [`RollbackReport`]. The orchestrator is left realising the old
/// placement exactly; the caller decides whether to retry or defer.
pub fn apply_transition(
    plan: &TransitionPlan,
    orch: &mut ResourceOrchestrator,
    ops: &mut ControlOps,
    rec: &dyn Recorder,
) -> Result<TransitionReport, TransitionError> {
    // Phase 1: boot (make).
    let mut launched: Vec<InstanceId> = Vec::new();
    let mut boot_ms = 0u64;
    for &(v, nf, count) in &plan.launches {
        for _ in 0..count {
            match orch.launch_with_retry(v, nf, ops, rec) {
                Ok(report) => {
                    boot_ms = boot_ms.max(report.latency_ms);
                    launched.push(report.instance);
                }
                Err(cause) => {
                    for &id in &launched {
                        let _ = orch.teardown(id);
                    }
                    rec.counter("transition.rollbacks", 1);
                    return Err(TransitionError::Boot {
                        switch: v,
                        nf,
                        cause,
                        rollback: RollbackReport {
                            torn_down: launched,
                            rules_reverted: Vec::new(),
                        },
                    });
                }
            }
        }
    }
    // Phase 2: re-rule. Every new instance is up; a failure here is the
    // partial-failure window — fresh instances must come back down and
    // switches already re-ruled must revert to the old program.
    let mut rules_installed: Vec<NodeId> = Vec::new();
    let mut rule_install_ms = 0u64;
    for v in touched_switches(plan) {
        match orch.rule_install_with_retry(v, ops, rec) {
            Ok(report) => {
                rule_install_ms += report.latency_ms;
                rules_installed.push(v);
            }
            Err(cause) => {
                for &id in &launched {
                    let _ = orch.teardown(id);
                }
                rec.counter("transition.rollbacks", 1);
                return Err(TransitionError::RuleInstall {
                    switch: v,
                    cause,
                    rollback: RollbackReport {
                        torn_down: launched,
                        rules_reverted: rules_installed,
                    },
                });
            }
        }
    }
    // Phase 3: teardown (break) — off the critical path, cannot fail the
    // transition.
    let fresh: std::collections::BTreeSet<_> = launched.iter().copied().collect();
    let mut torn_down = Vec::new();
    for &(v, nf, count) in &plan.teardowns {
        // Tear down the highest-id (most recently launched, but not the
        // ones this transition just created) instances of this kind.
        let victims: Vec<_> = orch
            .instances_at(v, nf)
            .into_iter()
            .filter(|id| !fresh.contains(id))
            .rev()
            .take(count as usize)
            .collect();
        for id in victims {
            if orch.teardown(id).is_ok() {
                torn_down.push(id);
            }
        }
    }
    Ok(TransitionReport {
        launched,
        torn_down,
        rules_installed,
        boot_ms,
        rule_install_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassConfig, ClassSet};
    use crate::engine::{EngineConfig, OptimizationEngine};
    use apple_telemetry::NOOP;
    use apple_topology::zoo;
    use apple_traffic::GravityModel;

    fn place(load: f64, seed: u64) -> (ClassSet, Placement, ResourceOrchestrator) {
        let topo = zoo::internet2();
        let tm = GravityModel::new(load, seed).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 12,
                ..Default::default()
            },
        );
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let placement = OptimizationEngine::new(EngineConfig::default())
            .place(&classes, &orch)
            .unwrap();
        (classes, placement, orch)
    }

    #[test]
    fn identical_placements_need_nothing() {
        let (_, p, _) = place(2_000.0, 81);
        let mut timing = TimingModel::paper(0);
        let plan = plan_transition(&p, &p, &mut timing);
        assert!(plan.launches.is_empty());
        assert!(plan.teardowns.is_empty());
        assert_eq!(plan.kept, p.total_instances());
        assert_eq!(plan.boot_ms, 0);
    }

    #[test]
    fn growth_launches_shrink_tears_down() {
        let (_, low, _) = place(1_500.0, 82);
        let (_, high, _) = place(4_500.0, 82);
        let mut timing = TimingModel::paper(0);
        let up = plan_transition(&low, &high, &mut timing);
        assert!(up.launch_count() > 0, "growing load must launch");
        assert_eq!(
            up.kept + up.launch_count(),
            high.total_instances(),
            "accounting broken"
        );
        let down = plan_transition(&high, &low, &mut timing);
        assert!(down.teardown_count() > 0, "shrinking load must tear down");
        assert_eq!(down.kept + down.teardown_count(), high.total_instances());
    }

    #[test]
    fn boot_estimate_reflects_vm_kind() {
        let (_, low, _) = place(1_500.0, 83);
        let (_, high, _) = place(4_500.0, 83);
        let mut timing = TimingModel::paper(0);
        let plan = plan_transition(&low, &high, &mut timing);
        if plan
            .launches
            .iter()
            .any(|&(_, nf, _)| !VnfSpec::of(nf).clickos)
        {
            assert_eq!(plan.boot_ms, 30_000, "ordinary VM dominates the wait");
        } else if plan.launch_count() > 0 {
            assert!((3_900..=4_600).contains(&plan.boot_ms));
        }
        assert_eq!(plan.rule_install_ms, 70);
        assert_eq!(plan.total_ms(), plan.boot_ms + 70);
    }

    #[test]
    fn apply_preserves_make_before_break() {
        let topo = zoo::internet2();
        let (_, low, _) = place(1_500.0, 84);
        let (_, high, _) = place(4_500.0, 84);
        // Start from an orchestrator realising `low`.
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        for (v, nf, c) in low.q_entries() {
            for _ in 0..c {
                orch.launch(v, nf).unwrap();
            }
        }
        let mut timing = TimingModel::paper(0);
        let plan = plan_transition(&low, &high, &mut timing);
        let report =
            apply_transition(&plan, &mut orch, &mut ControlOps::reliable(0), &NOOP).unwrap();
        assert_eq!(report.launched.len() as u32, plan.launch_count());
        assert_eq!(report.torn_down.len() as u32, plan.teardown_count());
        assert_eq!(report.rules_installed, touched_switches(&plan));
        // Final state realises `high` exactly.
        for (v, nf, c) in high.q_entries() {
            assert_eq!(
                orch.instances_at(v, nf).len() as u32,
                c,
                "wrong count at {v}/{nf}"
            );
        }
        assert_eq!(orch.instance_count() as u32, high.total_instances());
    }

    #[test]
    fn failed_transition_rolls_back() {
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 8);
        // Old: one firewall at s0 (4 cores). New demands three firewalls
        // (12 cores) — impossible on an 8-core host.
        let before = orch.launch(NodeId(0), NfType::Firewall).unwrap();
        let plan = TransitionPlan {
            launches: vec![(NodeId(0), NfType::Firewall, 3)],
            teardowns: vec![],
            kept: 1,
            boot_ms: 0,
            rule_install_ms: 70,
        };
        let err = apply_transition(&plan, &mut orch, &mut ControlOps::reliable(0), &NOOP)
            .expect_err("three firewalls cannot fit");
        assert!(matches!(err, TransitionError::Boot { .. }), "{err}");
        // The first new firewall fits beside the old one and is the only
        // fresh instance to roll back; no rules were touched.
        let rollback = err.rollback();
        assert_eq!(rollback.torn_down.len(), 1);
        assert!(orch.instance(rollback.torn_down[0]).is_none());
        assert!(rollback.rules_reverted.is_empty());
        // The pre-existing instance survived, nothing leaked.
        assert_eq!(orch.instance_count(), 1);
        assert!(orch.instance(before).is_some());
    }
}
