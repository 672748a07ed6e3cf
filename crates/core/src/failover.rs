//! The Dynamic Handler: fast failover for small time-scale traffic
//! dynamics (§VI).
//!
//! Large time-scale dynamics (diurnal drift) are handled by periodically
//! re-running the Optimization Engine. Small time-scale bursts are too fast
//! for VM provisioning, so APPLE *temporarily re-balances sub-classes*:
//!
//! 1. an overloaded instance notifies the Dynamic Handler,
//! 2. the handler halves the workload of every sub-class traversing that
//!    instance and spreads the other half to the least-loaded sub-classes
//!    of the same class,
//! 3. if the spread would overload another instance, a **new ClickOS
//!    instance** is booted (tens of milliseconds when reconfiguring an
//!    existing VM) and a **new sub-class** is created to absorb the burst,
//! 4. when the instance is no longer overloaded, the distribution rolls
//!    back and helper instances are cancelled to save resources.
//!
//! The handler mutates only sub-class shares and TCAM matching rules — the
//! forwarding paths of flows never change (interference freedom holds even
//! during failover).

use crate::classes::{ClassId, ClassSet, EquivalenceClass};
use crate::engine::{EngineConfig, EngineError, OptimizationEngine, Placement};
use crate::orchestrator::{ControlOps, OrchestratorError, ResourceOrchestrator};
use apple_lp::WarmCache;
use apple_nf::{InstanceId, NfType, VnfSpec};
use apple_telemetry::{Recorder, RecorderExt, NOOP};
use apple_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// A sub-class share as the Dynamic Handler sees it: which instance serves
/// each stage, and the current (possibly re-balanced) traffic fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareState {
    /// Owning class.
    pub class: ClassId,
    /// Sub-class id.
    pub sub: u16,
    /// Current fraction of the class's traffic.
    pub fraction: f64,
    /// Fraction assigned by the Optimization Engine (roll-back target).
    pub baseline: f64,
    /// Instance per chain stage.
    pub instances: Vec<InstanceId>,
}

/// What the handler did in response to a notification; mirrors the steps in
/// Fig. 4.
#[derive(Debug, Clone, PartialEq)]
pub enum FailoverAction {
    /// Load moved between existing sub-classes only (rule update, ~70 ms).
    Rebalanced {
        /// Sub-classes whose share shrank.
        relieved: Vec<(ClassId, u16)>,
        /// Sub-classes whose share grew.
        absorbers: Vec<(ClassId, u16)>,
    },
    /// A new helper instance + sub-class was created (ClickOS
    /// reconfiguration, tens of milliseconds).
    SpawnedHelper {
        /// The new instance.
        instance: InstanceId,
        /// NF type of the helper.
        nf: NfType,
        /// Switch whose host runs it.
        switch: NodeId,
    },
    /// The spill was moved to an *existing* instance of the same NF with
    /// spare capacity (a new sub-class, but no new VM).
    Reassigned {
        /// The existing instance now absorbing the spill.
        instance: InstanceId,
    },
    /// The overload could not be relieved (non-ClickOS NF with no spare
    /// instance anywhere on the path); the overload persists and the loss
    /// curve shows it.
    Held,
    /// Nothing to do (instance unknown or carries no sub-classes).
    None,
}

/// Errors during failover handling.
///
/// These replace the panics the handler used to hit on malformed inputs: a
/// notification that names a class the handler has never seen, or a share
/// whose stage list disagrees with its class's chain, now surfaces as a
/// typed error the control loop can log and survive.
#[derive(Debug, Clone, PartialEq)]
pub enum FailoverError {
    /// Helper instance launch failed (no resources anywhere on the path).
    NoCapacity(OrchestratorError),
    /// A share or sub-class plan refers to a class the [`ClassSet`] does
    /// not contain.
    UnknownClass(ClassId),
    /// A share's stage list is inconsistent with its class (wrong length,
    /// or the notified instance is not actually on the share).
    MalformedShare {
        /// Owning class of the inconsistent share.
        class: ClassId,
        /// Sub-class id of the inconsistent share.
        sub: u16,
    },
}

impl fmt::Display for FailoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailoverError::NoCapacity(e) => write!(f, "cannot spawn helper: {e}"),
            FailoverError::UnknownClass(c) => {
                write!(f, "share refers to unknown class {}", c.0)
            }
            FailoverError::MalformedShare { class, sub } => {
                write!(
                    f,
                    "share {}/{sub} is inconsistent with its class's chain",
                    class.0
                )
            }
        }
    }
}

impl std::error::Error for FailoverError {}

/// What the handler did in response to an instance crash.
#[derive(Debug, Clone, PartialEq)]
pub enum CrashRecovery {
    /// The dead instance carried no sub-classes; nothing to repair.
    None,
    /// Every affected sub-class was re-homed onto surviving or freshly
    /// launched instances — full service restored.
    Recovered {
        /// Stages re-homed (across all affected sub-classes).
        rehomed: usize,
        /// A replacement instance, if one had to be launched.
        replacement: Option<InstanceId>,
    },
    /// Some sub-classes could not be re-homed (no capacity anywhere in
    /// their order window): their traffic is shed and the handler is in
    /// degraded mode until [`DynamicHandler::recover_degraded`] succeeds.
    Degraded {
        /// Stages that *were* re-homed before capacity ran out.
        rehomed: usize,
        /// Sub-classes parked (traffic shed).
        parked: usize,
        /// Total traffic fraction newly shed by this event.
        shed: f64,
    },
}

/// A sub-class parked in degraded mode: its share is withheld from the
/// rule tables (traffic shed at ingress) until capacity returns.
#[derive(Debug, Clone, PartialEq)]
struct ParkedShare {
    share: ShareState,
}

/// The Dynamic Handler.
///
/// Tracks the live sub-class shares and rewrites them in response to
/// overload notifications; instances spawned for failover are remembered so
/// roll-back can cancel them.
#[derive(Debug, Clone, Default)]
pub struct DynamicHandler {
    shares: Vec<ShareState>,
    /// Helper instances created by fast failover, with the NF type they
    /// run (needed to release their cores even if the VM has since died).
    helpers: Vec<(InstanceId, NfType)>,
    /// Extra cores consumed by helpers right now (for the §IX-E "< 17
    /// cores" claim).
    helper_cores: u32,
    /// Peak helper cores seen.
    peak_helper_cores: u32,
    /// Sub-classes parked in degraded mode (shed, awaiting capacity).
    parked: Vec<ParkedShare>,
    /// Traffic fraction currently shed, per class.
    shed: BTreeMap<ClassId, f64>,
}

impl DynamicHandler {
    /// Builds the handler state from an instance assignment (the engine's
    /// output realised by the rule generator).
    ///
    /// # Errors
    ///
    /// [`FailoverError::UnknownClass`] when the sub-class plan names a
    /// class absent from `classes` (a malformed plan used to panic here).
    pub fn from_assignment(
        classes: &ClassSet,
        plan: &crate::subclass::SubclassPlan,
        assignment: &crate::rules::InstanceAssignment,
    ) -> Result<DynamicHandler, FailoverError> {
        let mut shares = Vec::new();
        for s in plan.subclasses() {
            let class = classes
                .class(s.class)
                .ok_or(FailoverError::UnknownClass(s.class))?;
            let instances: Vec<InstanceId> = (0..class.chain.len())
                .filter_map(|j| assignment.instance(s.class, s.id, j))
                .collect();
            if instances.len() != class.chain.len() {
                continue; // unassigned stage: skip (engine guarantees none)
            }
            shares.push(ShareState {
                class: s.class,
                sub: s.id,
                fraction: s.fraction(),
                baseline: s.fraction(),
                instances,
            });
        }
        Ok(DynamicHandler {
            shares,
            helpers: Vec::new(),
            helper_cores: 0,
            peak_helper_cores: 0,
            parked: Vec::new(),
            shed: BTreeMap::new(),
        })
    }

    /// Builds a verification view over online-loop state: one
    /// [`ShareState`] per live class (the online placer keeps whole
    /// classes, so each share covers its full fraction) plus the loop's
    /// shed ledger (rejected classes shed 1.0). The result is what
    /// [`crate::verify::verify_shares`] consumes — it carries no helper or
    /// parked state and is not meant to drive failover.
    pub fn from_online(shares: Vec<ShareState>, shed: BTreeMap<ClassId, f64>) -> DynamicHandler {
        DynamicHandler {
            shares,
            helpers: Vec::new(),
            helper_cores: 0,
            peak_helper_cores: 0,
            parked: Vec::new(),
            shed,
        }
    }

    /// Current shares.
    pub fn shares(&self) -> &[ShareState] {
        &self.shares
    }

    /// Traffic fraction currently shed per class (degraded mode only;
    /// empty when healthy).
    pub fn shed(&self) -> &BTreeMap<ClassId, f64> {
        &self.shed
    }

    /// Total traffic fraction currently shed across all classes.
    pub fn total_shed(&self) -> f64 {
        self.shed.values().sum()
    }

    /// True while any sub-class is parked (load is being shed).
    pub fn is_degraded(&self) -> bool {
        !self.parked.is_empty()
    }

    /// Number of sub-classes currently parked.
    pub fn parked_count(&self) -> usize {
        self.parked.len()
    }

    /// Offered load of `inst` in Mbps given per-class rates.
    pub fn instance_load(&self, inst: InstanceId, rates: &BTreeMap<ClassId, f64>) -> f64 {
        self.shares
            .iter()
            .filter(|s| s.instances.contains(&inst))
            .map(|s| s.fraction * rates.get(&s.class).copied().unwrap_or(0.0))
            .sum()
    }

    /// Extra cores helpers currently consume.
    pub fn helper_cores(&self) -> u32 {
        self.helper_cores
    }

    /// Peak extra cores helpers have consumed.
    pub fn peak_helper_cores(&self) -> u32 {
        self.peak_helper_cores
    }

    /// Handles an overloading notification from `inst` (Fig. 4 steps 1–4).
    ///
    /// `rates` carries the current per-class rates in Mbps; `classes` and
    /// `orch` are needed to size and place a helper when re-balancing alone
    /// would overload another instance. Helper boots and rule installs go
    /// through `ops` (injector, retry policies, timing budgets); pass
    /// [`ControlOps::reliable`] for a control plane that never fails.
    ///
    /// Telemetry: the call is timed (`span.failover.handle_overload`) and
    /// its outcome counted — `failover.rebalanced` / `failover.reassigned` /
    /// `failover.helpers_spawned` / `failover.held` / `failover.noop` —
    /// plus `failover.subclasses_rebalanced` and the live
    /// `failover.helper_cores` gauge.
    ///
    /// # Errors
    ///
    /// [`FailoverError::NoCapacity`] when a helper is needed but no host on
    /// the class path can fit one; [`FailoverError::UnknownClass`] /
    /// [`FailoverError::MalformedShare`] on inconsistent handler state.
    pub fn handle_overload(
        &mut self,
        inst: InstanceId,
        rates: &BTreeMap<ClassId, f64>,
        classes: &ClassSet,
        orch: &mut ResourceOrchestrator,
        ops: &mut ControlOps,
        rec: &dyn Recorder,
    ) -> Result<FailoverAction, FailoverError> {
        let act = {
            let _s = rec.span("failover.handle_overload");
            self.overload_inner(inst, rates, classes, orch, ops, rec)?
        };
        match &act {
            FailoverAction::Rebalanced {
                relieved,
                absorbers,
            } => {
                rec.counter("failover.rebalanced", 1);
                rec.counter(
                    "failover.subclasses_rebalanced",
                    (relieved.len() + absorbers.len()) as u64,
                );
            }
            FailoverAction::SpawnedHelper { .. } => {
                rec.counter("failover.helpers_spawned", 1);
                rec.gauge("failover.helper_cores", f64::from(self.helper_cores()));
            }
            FailoverAction::Reassigned { .. } => rec.counter("failover.reassigned", 1),
            FailoverAction::Held => rec.counter("failover.held", 1),
            FailoverAction::None => rec.counter("failover.noop", 1),
        }
        Ok(act)
    }

    fn overload_inner(
        &mut self,
        inst: InstanceId,
        rates: &BTreeMap<ClassId, f64>,
        classes: &ClassSet,
        orch: &mut ResourceOrchestrator,
        ops: &mut ControlOps,
        rec: &dyn Recorder,
    ) -> Result<FailoverAction, FailoverError> {
        // Sub-classes traversing the overloaded instance.
        let victim_idx: Vec<usize> = self
            .shares
            .iter()
            .enumerate()
            .filter(|(_, s)| s.instances.contains(&inst))
            .map(|(i, _)| i)
            .collect();
        if victim_idx.is_empty() {
            return Ok(FailoverAction::None);
        }

        let mut relieved = Vec::new();
        let mut absorbers = Vec::new();
        let mut need_new_subclass: Vec<(usize, f64)> = Vec::new(); // (share idx, spill)

        for &vi in &victim_idx {
            let spill = self.shares[vi].fraction / 2.0;
            if spill <= 1e-6 {
                continue;
            }
            let class = self.shares[vi].class;
            // Candidate absorbers: least-loaded sibling sub-classes of the
            // same class that avoid the overloaded instance.
            let cap_of = |s: &ShareState| -> f64 {
                // The binding capacity across the share's stages.
                s.instances
                    .iter()
                    .map(|&i| {
                        orch.instance(i)
                            .map_or(f64::INFINITY, |x| x.spec().capacity_mbps)
                    })
                    .fold(f64::INFINITY, f64::min)
            };
            let rate = rates.get(&class).copied().unwrap_or(0.0);
            let sibling: Option<usize> = self
                .shares
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != vi && s.class == class && !s.instances.contains(&inst))
                .min_by(|(_, a), (_, b)| {
                    let la = self.instance_load(a.instances[0], rates);
                    let lb = self.instance_load(b.instances[0], rates);
                    la.partial_cmp(&lb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(i, _)| i);
            match sibling {
                Some(si)
                    if {
                        // Does the absorber stay under capacity with the
                        // extra spill?
                        let extra = spill * rate;
                        let worst = self.shares[si]
                            .instances
                            .iter()
                            .map(|&i| self.instance_load(i, rates) + extra)
                            .fold(0.0f64, f64::max);
                        worst <= cap_of(&self.shares[si]) + 1e-9
                    } =>
                {
                    self.shares[vi].fraction -= spill;
                    self.shares[si].fraction += spill;
                    relieved.push((self.shares[vi].class, self.shares[vi].sub));
                    absorbers.push((self.shares[si].class, self.shares[si].sub));
                }
                _ => need_new_subclass.push((vi, spill)),
            }
        }

        // One new sub-class per notification (Fig. 4 shows a single new
        // VM); it absorbs the largest spill. Preference order: an existing
        // same-NF instance with slack (no VM work at all), then a freshly
        // reconfigured ClickOS instance; non-ClickOS NFs without slack hold
        // (a normal VM boots far too slowly for fast failover).
        if let Some(&(vi, spill)) = need_new_subclass
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        {
            let class_id = self.shares[vi].class;
            let class = classes
                .class(class_id)
                .ok_or(FailoverError::UnknownClass(class_id))?;
            let rate = rates.get(&class_id).copied().unwrap_or(0.0);
            // The replacement serves the overloaded instance's stage.
            let stage = self.shares[vi]
                .instances
                .iter()
                .position(|&i| i == inst)
                .ok_or(FailoverError::MalformedShare {
                    class: class_id,
                    sub: self.shares[vi].sub,
                })?;
            let nf = *class
                .chain
                .nfs()
                .get(stage)
                .ok_or(FailoverError::MalformedShare {
                    class: class_id,
                    sub: self.shares[vi].sub,
                })?;
            let spec = VnfSpec::of(nf);
            // The replacement's switch must keep the chain order: between
            // the previous and next stage's positions on the path. A live
            // share always has a window; its absence means corrupt state.
            let (lo, hi) = stage_window(class, &self.shares[vi], stage, orch).ok_or(
                FailoverError::MalformedShare {
                    class: class_id,
                    sub: self.shares[vi].sub,
                },
            )?;

            // 1. Existing instance with slack.
            let mut replacement: Option<InstanceId> = None;
            'search: for p in lo..=hi {
                let v = class.path.nodes()[p];
                for cand in orch.instances_at(v, nf) {
                    if cand != inst
                        && self.instance_load(cand, rates) + spill * rate
                            <= spec.capacity_mbps + 1e-9
                        && orch.rule_install_with_retry(v, ops, rec).is_ok()
                    {
                        replacement = Some(cand);
                        break 'search;
                    }
                }
            }
            if let Some(cand) = replacement {
                self.split_share(vi, spill, stage, cand, None);
                return Ok(FailoverAction::Reassigned { instance: cand });
            }

            // 2. Fresh ClickOS instance (reconfiguration, tens of ms).
            if spec.clickos {
                let mut spawned = None;
                let mut last_err = None;
                for p in lo..=hi {
                    let v = class.path.nodes()[p];
                    match orch.launch_with_retry(v, nf, ops, rec) {
                        Ok(report) => {
                            // A helper without matching rules is useless:
                            // tear it down and keep looking.
                            if orch.rule_install_with_retry(v, ops, rec).is_ok() {
                                spawned = Some((report.instance, v));
                                break;
                            }
                            let _ = orch.teardown(report.instance);
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match spawned {
                    Some((helper, at)) => {
                        self.split_share(vi, spill, stage, helper, Some(nf));
                        return Ok(FailoverAction::SpawnedHelper {
                            instance: helper,
                            nf,
                            switch: at,
                        });
                    }
                    None => {
                        return Err(FailoverError::NoCapacity(
                            last_err.unwrap_or(OrchestratorError::NoHost(class.path.nodes()[lo].0)),
                        ))
                    }
                }
            }

            // 3. Non-ClickOS with no slack anywhere: hold.
            if relieved.is_empty() {
                return Ok(FailoverAction::Held);
            }
        }

        if relieved.is_empty() {
            Ok(FailoverAction::None)
        } else {
            Ok(FailoverAction::Rebalanced {
                relieved,
                absorbers,
            })
        }
    }

    /// Moves `spill` of share `vi` into a new sub-class whose `stage` is
    /// served by `replacement`. When `spawned_nf` is set the replacement is
    /// a fresh helper VM whose cores are tracked for roll-back.
    fn split_share(
        &mut self,
        vi: usize,
        spill: f64,
        stage: usize,
        replacement: InstanceId,
        spawned_nf: Option<NfType>,
    ) {
        let class_id = self.shares[vi].class;
        let mut instances = self.shares[vi].instances.clone();
        instances[stage] = replacement;
        let new_sub = self
            .shares
            .iter()
            .filter(|s| s.class == class_id)
            .map(|s| s.sub)
            .max()
            .unwrap_or(0)
            + 1;
        self.shares[vi].fraction -= spill;
        self.shares.push(ShareState {
            class: class_id,
            sub: new_sub,
            fraction: spill,
            baseline: 0.0, // temporary shares vanish on roll-back
            instances,
        });
        if let Some(nf) = spawned_nf {
            self.helpers.push((replacement, nf));
            self.helper_cores += VnfSpec::of(nf).cores;
            self.peak_helper_cores = self.peak_helper_cores.max(self.helper_cores);
        }
    }

    /// Rolls the distribution back to the engine's baseline once overload
    /// clears (§VI: "the distribution will roll back to the normal state"),
    /// cancelling helper instances to save hardware.
    ///
    /// Telemetry: counts the roll-back (`failover.rollbacks`) and the
    /// helpers it cancels (`failover.helpers_freed`), and zeroes the
    /// `failover.helper_cores` gauge.
    pub fn roll_back(&mut self, orch: &mut ResourceOrchestrator, rec: &dyn Recorder) {
        rec.counter("failover.rollbacks", 1);
        rec.counter("failover.helpers_freed", self.helpers.len() as u64);
        for (helper, nf) in self.helpers.drain(..) {
            // The helper's cores are released even when the VM has already
            // died (crash / host failure): its NF type is remembered.
            self.helper_cores = self.helper_cores.saturating_sub(VnfSpec::of(nf).cores);
            let _ = orch.teardown(helper);
        }
        // Drop helper shares; restore baselines. Parked *temporary* shares
        // (baseline 0) fold back into the share they split from; parked
        // engine shares stay parked at their baseline fraction.
        self.shares.retain(|s| s.baseline > 0.0);
        for s in &mut self.shares {
            s.fraction = s.baseline;
        }
        self.parked.retain(|p| p.share.baseline > 0.0);
        let mut shed = BTreeMap::new();
        for p in &mut self.parked {
            p.share.fraction = p.share.baseline;
            *shed.entry(p.share.class).or_insert(0.0) += p.share.baseline;
        }
        self.shed = shed;
        rec.gauge("failover.helper_cores", f64::from(self.helper_cores()));
    }

    /// Verifies the invariant that every class's live shares plus its shed
    /// fraction sum to 1 — degraded mode must account for every bit of
    /// traffic it drops.
    pub fn fractions_consistent(&self) -> bool {
        let mut per_class: BTreeMap<ClassId, f64> = BTreeMap::new();
        for s in &self.shares {
            *per_class.entry(s.class).or_insert(0.0) += s.fraction;
        }
        for (c, s) in &self.shed {
            *per_class.entry(*c).or_insert(0.0) += *s;
        }
        per_class.values().all(|&v| (v - 1.0).abs() < 1e-6)
    }

    /// Handles the crash of `dead` (instance failure or host failure).
    ///
    /// For every stage of every sub-class the dead instance served, the
    /// handler re-homes the stage onto a surviving same-NF instance inside
    /// the chain-order window, launching a replacement through `ops` when
    /// no survivor has slack. Sub-classes that cannot be repaired at all
    /// are **parked**: their traffic fraction moves to the shed ledger
    /// (visible via [`DynamicHandler::shed`]) and the handler enters
    /// degraded mode instead of aborting. Telemetry:
    /// `failover.crashes_handled`, `failover.rehomed_subclasses`,
    /// `failover.subclasses_parked`, `failover.degraded_entered` and the
    /// `failover.shed_fraction` gauge.
    ///
    /// # Errors
    ///
    /// [`FailoverError::UnknownClass`] / [`FailoverError::MalformedShare`]
    /// on inconsistent handler state. Capacity exhaustion is *not* an
    /// error — it parks the share and reports
    /// [`CrashRecovery::Degraded`].
    pub fn handle_instance_crash(
        &mut self,
        dead: InstanceId,
        rates: &BTreeMap<ClassId, f64>,
        classes: &ClassSet,
        orch: &mut ResourceOrchestrator,
        ops: &mut ControlOps,
        rec: &dyn Recorder,
    ) -> Result<CrashRecovery, FailoverError> {
        let _s = rec.span("failover.handle_crash");
        rec.counter("failover.crashes_handled", 1);
        // Release the instance's resources; a host failure may have
        // removed it from the orchestrator already.
        let _ = orch.crash_instance(dead);
        // A crashed helper stops consuming helper cores.
        if let Some(pos) = self.helpers.iter().position(|(h, _)| *h == dead) {
            let (_, nf) = self.helpers.remove(pos);
            self.helper_cores = self.helper_cores.saturating_sub(VnfSpec::of(nf).cores);
            rec.gauge("failover.helper_cores", f64::from(self.helper_cores));
        }

        let affected: Vec<usize> = self
            .shares
            .iter()
            .enumerate()
            .filter(|(_, s)| s.instances.contains(&dead))
            .map(|(i, _)| i)
            .collect();
        if affected.is_empty() {
            return Ok(CrashRecovery::None);
        }

        let was_degraded = self.is_degraded();
        let mut rehomed = 0usize;
        let mut replacement: Option<InstanceId> = None;
        let mut to_park: Vec<usize> = Vec::new();

        for &vi in &affected {
            let class_id = self.shares[vi].class;
            let class = classes
                .class(class_id)
                .ok_or(FailoverError::UnknownClass(class_id))?;
            let rate = rates.get(&class_id).copied().unwrap_or(0.0);
            let extra = self.shares[vi].fraction * rate;
            let stages: Vec<usize> = self.shares[vi]
                .instances
                .iter()
                .enumerate()
                .filter(|(_, &i)| i == dead)
                .map(|(j, _)| j)
                .collect();
            let mut parked = false;
            for stage in stages {
                let nf = *class
                    .chain
                    .nfs()
                    .get(stage)
                    .ok_or(FailoverError::MalformedShare {
                        class: class_id,
                        sub: self.shares[vi].sub,
                    })?;
                match self.fix_stage(vi, stage, nf, extra, class, rates, orch, ops, rec) {
                    Some((id, spawned)) => {
                        rehomed += 1;
                        rec.counter("failover.rehomed_subclasses", 1);
                        if spawned {
                            replacement = Some(id);
                        }
                    }
                    None => {
                        parked = true;
                        break;
                    }
                }
            }
            if parked {
                to_park.push(vi);
            }
        }

        // Park unrepairable shares, highest index first so removal does
        // not shift the remaining indices.
        let mut shed_added = 0.0;
        for &vi in to_park.iter().rev() {
            let share = self.shares.remove(vi);
            shed_added += share.fraction;
            *self.shed.entry(share.class).or_insert(0.0) += share.fraction;
            rec.counter("failover.subclasses_parked", 1);
            self.parked.push(ParkedShare { share });
        }

        if to_park.is_empty() {
            Ok(CrashRecovery::Recovered {
                rehomed,
                replacement,
            })
        } else {
            if !was_degraded {
                rec.counter("failover.degraded_entered", 1);
            }
            rec.gauge("failover.shed_fraction", self.total_shed());
            Ok(CrashRecovery::Degraded {
                rehomed,
                parked: to_park.len(),
                shed: shed_added,
            })
        }
    }

    /// Tries to restore parked sub-classes (degraded-mode exit path): for
    /// each parked share, every stage whose instance is gone is re-homed
    /// exactly as in [`DynamicHandler::handle_instance_crash`]; on success
    /// the share rejoins the live set and its fraction leaves the shed
    /// ledger. Call this after capacity returns (host recovery, roll-back,
    /// periodic re-optimisation). Returns the number of shares restored.
    /// Telemetry: `failover.subclasses_restored`,
    /// `failover.degraded_exited`, `failover.shed_fraction`.
    ///
    /// # Errors
    ///
    /// [`FailoverError::MalformedShare`] when a parked share disagrees
    /// with its class's chain. A share whose class is unknown stays parked
    /// (degraded mode persists) rather than erroring, so one malformed
    /// entry cannot wedge recovery of the others.
    pub fn recover_degraded(
        &mut self,
        rates: &BTreeMap<ClassId, f64>,
        classes: &ClassSet,
        orch: &mut ResourceOrchestrator,
        ops: &mut ControlOps,
        rec: &dyn Recorder,
    ) -> Result<usize, FailoverError> {
        if self.parked.is_empty() {
            return Ok(0);
        }
        let _s = rec.span("failover.recover_degraded");
        let mut restored = 0usize;
        let mut still_parked: Vec<ParkedShare> = Vec::new();
        for p in std::mem::take(&mut self.parked) {
            let class_id = p.share.class;
            let Some(class) = classes.class(class_id) else {
                still_parked.push(p);
                continue;
            };
            let rate = rates.get(&class_id).copied().unwrap_or(0.0);
            let extra = p.share.fraction * rate;
            // Work on the share as the (temporary) last live entry so
            // fix_stage sees a consistent load picture.
            self.shares.push(p.share);
            let vi = self.shares.len() - 1;
            let mut ok = true;
            for stage in 0..self.shares[vi].instances.len() {
                if orch.instance(self.shares[vi].instances[stage]).is_some() {
                    continue; // stage instance still alive
                }
                let nf = *class
                    .chain
                    .nfs()
                    .get(stage)
                    .ok_or(FailoverError::MalformedShare {
                        class: class_id,
                        sub: self.shares[vi].sub,
                    })?;
                if self
                    .fix_stage(vi, stage, nf, extra, class, rates, orch, ops, rec)
                    .is_none()
                {
                    ok = false;
                    break;
                }
            }
            if ok {
                restored += 1;
                let f = self.shares[vi].fraction;
                if let Some(s) = self.shed.get_mut(&class_id) {
                    *s -= f;
                    if *s < 1e-9 {
                        self.shed.remove(&class_id);
                    }
                }
                rec.counter("failover.subclasses_restored", 1);
            } else {
                let share = self.shares.pop().expect("share pushed above");
                still_parked.push(ParkedShare { share });
            }
        }
        self.parked = still_parked;
        if self.parked.is_empty() && restored > 0 {
            rec.counter("failover.degraded_exited", 1);
        }
        rec.gauge("failover.shed_fraction", self.total_shed());
        Ok(restored)
    }

    /// Re-homes stage `stage` of share `vi` onto a live `nf` instance
    /// inside the chain-order window, adding `extra` Mbps of load:
    /// preferring a survivor with slack, then launching a replacement.
    /// Returns `(instance, spawned_new_vm)`, or `None` when neither works
    /// (the caller parks the share).
    #[allow(clippy::too_many_arguments)]
    fn fix_stage(
        &mut self,
        vi: usize,
        stage: usize,
        nf: NfType,
        extra: f64,
        class: &EquivalenceClass,
        rates: &BTreeMap<ClassId, f64>,
        orch: &mut ResourceOrchestrator,
        ops: &mut ControlOps,
        rec: &dyn Recorder,
    ) -> Option<(InstanceId, bool)> {
        let spec = VnfSpec::of(nf);
        let (lo, hi) = stage_window(class, &self.shares[vi], stage, orch)?;

        // 1. A surviving same-NF instance with slack (rules must install).
        for p in lo..=hi {
            let v = class.path.nodes()[p];
            for cand in orch.instances_at(v, nf) {
                if self.instance_load(cand, rates) + extra <= spec.capacity_mbps + 1e-9
                    && orch.rule_install_with_retry(v, ops, rec).is_ok()
                {
                    self.shares[vi].instances[stage] = cand;
                    return Some((cand, false));
                }
            }
        }
        // 2. A freshly launched replacement.
        for p in lo..=hi {
            let v = class.path.nodes()[p];
            if let Ok(report) = orch.launch_with_retry(v, nf, ops, rec) {
                if orch.rule_install_with_retry(v, ops, rec).is_ok() {
                    self.shares[vi].instances[stage] = report.instance;
                    return Some((report.instance, true));
                }
                // A replacement without rules serves nothing.
                let _ = orch.teardown(report.instance);
            }
        }
        None
    }
}

/// Outcome of one warm re-plan (see [`Replanner`]).
#[derive(Debug, Clone)]
pub struct ReplanReport {
    /// The fresh placement, computed against the orchestrator's *current*
    /// host state (down hosts receive no instances).
    pub placement: Placement,
    /// Blocks answered from the warm cache during this re-plan.
    pub warm_hits: u64,
    /// Blocks actually re-solved during this re-plan.
    pub warm_misses: u64,
    /// Hosts that were down (and therefore excluded) at re-plan time.
    pub down_hosts: usize,
}

/// Large time-scale re-optimisation with a persistent warm cache (§VI).
///
/// The Dynamic Handler's re-balancing is deliberately local; the durable
/// answer to drift, overloads and crashes is to *re-run the Optimization
/// Engine* against the current host state. A `Replanner` owns the engine
/// plus a [`WarmCache`] that lives across re-plans: every placement block
/// whose inputs an event did not touch is answered from the cache instead
/// of being re-pivoted, so a single host failure re-solves only the
/// classes that actually cross the failed host.
///
/// # Example
///
/// ```
/// use apple_core::classes::{ClassConfig, ClassSet};
/// use apple_core::engine::EngineConfig;
/// use apple_core::failover::Replanner;
/// use apple_core::orchestrator::ResourceOrchestrator;
/// use apple_topology::zoo;
/// use apple_traffic::GravityModel;
///
/// let topo = zoo::internet2();
/// let tm = GravityModel::new(2_000.0, 0).base_matrix(&topo);
/// let classes = ClassSet::build(&topo, &tm, &ClassConfig { max_classes: 8, ..Default::default() });
/// let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
/// let mut rp = Replanner::new(EngineConfig::default());
/// let first = rp.replan(&classes, &orch)?;
/// let second = rp.replan(&classes, &orch)?; // nothing changed:
/// assert_eq!(second.warm_misses, 0);        // every block hits the cache
/// assert_eq!(first.placement.total_instances(), second.placement.total_instances());
/// # Ok::<(), apple_core::engine::EngineError>(())
/// ```
#[derive(Debug)]
pub struct Replanner {
    engine: OptimizationEngine,
    cache: WarmCache,
}

impl Replanner {
    /// Creates a re-planner with a cold cache.
    pub fn new(config: EngineConfig) -> Replanner {
        Replanner {
            engine: OptimizationEngine::new(config),
            cache: WarmCache::default(),
        }
    }

    /// Re-plans placement for the current host state.
    ///
    /// # Errors
    ///
    /// Same as [`OptimizationEngine::place`].
    pub fn replan(
        &mut self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
    ) -> Result<ReplanReport, EngineError> {
        self.replan_recorded(classes, orch, &NOOP)
    }

    /// [`Replanner::replan`] with telemetry: the solve runs under a
    /// `failover.replan` span, and `failover.replans`,
    /// `failover.replan_warm_hits` / `failover.replan_warm_misses` count
    /// the cache's contribution.
    ///
    /// # Errors
    ///
    /// Same as [`OptimizationEngine::place`].
    pub fn replan_recorded(
        &mut self,
        classes: &ClassSet,
        orch: &ResourceOrchestrator,
        rec: &dyn Recorder,
    ) -> Result<ReplanReport, EngineError> {
        let _s = rec.span("failover.replan");
        let (hits0, misses0) = (self.cache.hits, self.cache.misses);
        let placement = self
            .engine
            .place_cached(classes, orch, rec, &mut self.cache)?;
        let warm_hits = self.cache.hits - hits0;
        let warm_misses = self.cache.misses - misses0;
        rec.counter("failover.replans", 1);
        rec.counter("failover.replan_warm_hits", warm_hits);
        rec.counter("failover.replan_warm_misses", warm_misses);
        Ok(ReplanReport {
            placement,
            warm_hits,
            warm_misses,
            down_hosts: orch.hosts().values().filter(|h| !h.up).count(),
        })
    }

    /// The warm cache (for inspection / explicit invalidation).
    pub fn cache(&self) -> &WarmCache {
        &self.cache
    }

    /// Drops all cached blocks (e.g. after a topology change large enough
    /// that stale entries would only waste memory).
    pub fn invalidate(&mut self) {
        self.cache.clear();
    }
}

/// The path-position window `[lo, hi]` inside which `stage` of `share` may
/// be served without breaking chain order, or `None` when no such window
/// exists. Bounded by the **nearest live** stage on each side — not just
/// the immediate neighbours, which may themselves be dead during a
/// multi-victim cascade (a host failure). Dead stages inside the gap are
/// re-homed later within the same bounds; equal positions are legal, so a
/// placement here never makes the gap infeasible for them.
fn stage_window(
    class: &EquivalenceClass,
    share: &ShareState,
    stage: usize,
    orch: &ResourceOrchestrator,
) -> Option<(usize, usize)> {
    let pos_of = |iid: InstanceId| -> Option<usize> {
        orch.instance(iid)
            .and_then(|x| class.path.index_of(NodeId(x.host_switch())))
    };
    let lo = (0..stage)
        .rev()
        .find_map(|j| pos_of(share.instances[j]))
        .unwrap_or(0);
    let hi = (stage + 1..share.instances.len())
        .find_map(|j| pos_of(share.instances[j]))
        .unwrap_or(class.path.len() - 1);
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassConfig, ClassSet};
    use crate::engine::{EngineConfig, OptimizationEngine};
    use crate::rules::generate;
    use crate::subclass::{SplitStrategy, SubclassPlan};
    use apple_topology::zoo;
    use apple_traffic::GravityModel;

    fn setup() -> (
        ClassSet,
        ResourceOrchestrator,
        DynamicHandler,
        BTreeMap<ClassId, f64>,
    ) {
        let topo = zoo::internet2();
        let tm = GravityModel::new(3_000.0, 23).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 10,
                ..Default::default()
            },
        );
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let placement = OptimizationEngine::new(EngineConfig::default())
            .place(&classes, &orch)
            .unwrap();
        let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
        let prog = generate(&topo, &classes, &plan, &placement, &mut orch).unwrap();
        let handler = DynamicHandler::from_assignment(&classes, &plan, &prog.assignment).unwrap();
        let rates: BTreeMap<ClassId, f64> = classes.iter().map(|c| (c.id, c.rate_mbps)).collect();
        (classes, orch, handler, rates)
    }

    #[test]
    fn baseline_fractions_sum_to_one() {
        let (_, _, handler, _) = setup();
        assert!(handler.fractions_consistent());
        assert_eq!(handler.helper_cores(), 0);
    }

    #[test]
    fn unknown_instance_is_noop() {
        let (classes, mut orch, mut handler, rates) = setup();
        let mut ops = ControlOps::reliable(0);
        let act = handler
            .handle_overload(
                InstanceId(999_999),
                &rates,
                &classes,
                &mut orch,
                &mut ops,
                &NOOP,
            )
            .unwrap();
        assert_eq!(act, FailoverAction::None);
    }

    #[test]
    fn overload_halves_and_conserves_traffic() {
        let (classes, mut orch, mut handler, rates) = setup();
        let victim = handler.shares()[0].instances[0];
        let mut ops = ControlOps::reliable(0);
        let act = handler
            .handle_overload(victim, &rates, &classes, &mut orch, &mut ops, &NOOP)
            .unwrap();
        assert_ne!(act, FailoverAction::None);
        assert!(
            handler.fractions_consistent(),
            "traffic lost during failover"
        );
    }

    /// A synthetic single-class deployment: one Firewall-only class on a
    /// 3-node line, so the handler holds exactly one share (no sibling)
    /// and exactly one Firewall instance (nothing to reassign to).
    fn single_class_line() -> (ClassSet, ResourceOrchestrator, DynamicHandler) {
        use crate::classes::EquivalenceClass;
        use crate::policy::PolicyChain;
        use apple_nf::NfType;
        use apple_topology::Path;
        use apple_traffic::Flow;

        let topo = zoo::line(3);
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let class = EquivalenceClass {
            id: ClassId(0),
            path: Path::new(nodes).unwrap(),
            chain: PolicyChain::new(vec![NfType::Firewall]).unwrap(),
            rate_mbps: 50.0,
            src_prefix: (Flow::prefix_of(NodeId(0)), 24),
            dst_prefix: (Flow::prefix_of(NodeId(2)), 24),
            proto: None,
            dst_ports: Vec::new(),
        };
        let classes = ClassSet::from_classes(vec![class]);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let placement = OptimizationEngine::new(EngineConfig::default())
            .place(&classes, &orch)
            .unwrap();
        let plan = SubclassPlan::derive(&classes, &placement, SplitStrategy::PrefixSplit);
        let prog = generate(&topo, &classes, &plan, &placement, &mut orch).unwrap();
        let handler = DynamicHandler::from_assignment(&classes, &plan, &prog.assignment).unwrap();
        (classes, orch, handler)
    }

    #[test]
    fn helper_spawned_when_no_sibling_exists() {
        // A burst far past capacity can only be absorbed by spawning a
        // ClickOS helper (no sibling sub-class, no spare instance).
        use apple_nf::NfType;

        let (classes, mut orch, mut handler) = single_class_line();
        let lone = handler.shares()[0].clone();
        assert!(
            handler
                .shares()
                .iter()
                .filter(|s| s.class == lone.class)
                .count()
                == 1,
            "a 50 Mbps class must plan as a single sub-class"
        );
        let victim = lone.instances[0];
        // Burst far past any single instance's capacity so neither a
        // sibling nor an existing instance can absorb the spill.
        let mut rates = BTreeMap::new();
        rates.insert(lone.class, 50_000.0);
        let mut ops = ControlOps::reliable(0);
        let act = handler
            .handle_overload(victim, &rates, &classes, &mut orch, &mut ops, &NOOP)
            .unwrap();
        match act {
            FailoverAction::SpawnedHelper { nf, .. } => {
                assert_eq!(nf, NfType::Firewall);
                assert!(handler.helper_cores() > 0);
                assert!(handler.fractions_consistent());
            }
            other => panic!("expected helper, got {other:?}"),
        }
    }

    #[test]
    fn roll_back_restores_baseline_and_frees_helpers() {
        let (classes, mut orch, mut handler, mut rates) = setup();
        let before: Vec<f64> = handler.shares().iter().map(|s| s.fraction).collect();
        let instances_before = orch.instance_count();
        // Force a helper by bursting the first share's class.
        let victim = handler.shares()[0].instances[0];
        let class = handler.shares()[0].class;
        *rates.entry(class).or_insert(0.0) *= 20.0;
        let mut ops = ControlOps::reliable(0);
        let _ = handler.handle_overload(victim, &rates, &classes, &mut orch, &mut ops, &NOOP);
        handler.roll_back(&mut orch, &NOOP);
        let after: Vec<f64> = handler.shares().iter().map(|s| s.fraction).collect();
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(after.iter()) {
            assert!((b - a).abs() < 1e-9);
        }
        assert_eq!(orch.instance_count(), instances_before);
        assert_eq!(handler.helper_cores(), 0);
        assert!(handler.fractions_consistent());
    }

    #[test]
    fn crash_of_unknown_instance_is_none() {
        let (classes, mut orch, mut handler, rates) = setup();
        let got = handler
            .handle_instance_crash(
                InstanceId(999_999),
                &rates,
                &classes,
                &mut orch,
                &mut ControlOps::reliable(0),
                &NOOP,
            )
            .unwrap();
        assert_eq!(got, CrashRecovery::None);
        assert!(handler.fractions_consistent());
    }

    #[test]
    fn crash_rehomes_every_affected_stage() {
        let (classes, mut orch, mut handler, rates) = setup();
        let dead = handler.shares()[0].instances[0];
        let got = handler
            .handle_instance_crash(
                dead,
                &rates,
                &classes,
                &mut orch,
                &mut ControlOps::reliable(7),
                &NOOP,
            )
            .unwrap();
        match got {
            CrashRecovery::Recovered { rehomed, .. } => assert!(rehomed > 0),
            other => panic!("expected full recovery with ample hosts, got {other:?}"),
        }
        assert!(orch.instance(dead).is_none(), "dead instance lingers");
        for s in handler.shares() {
            assert!(
                !s.instances.contains(&dead),
                "share still routed through the dead instance"
            );
        }
        assert!(handler.fractions_consistent());
        assert!(!handler.is_degraded());
    }

    #[test]
    fn crash_without_capacity_enters_and_exits_degraded_mode() {
        // Single-class, single-instance deployment (as in the helper test):
        // kill the lone Firewall while every boot attempt fails, so the
        // handler has no repair option and must shed the class's traffic.
        use apple_faults::FailFirstN;
        use apple_telemetry::MemoryRecorder;

        let (classes, mut orch, mut handler) = single_class_line();
        let rates: BTreeMap<ClassId, f64> = classes.iter().map(|c| (c.id, c.rate_mbps)).collect();
        let rec = MemoryRecorder::new();

        let dead = handler.shares()[0].instances[0];
        let mut flaky = ControlOps::with_injector(3, Box::new(FailFirstN::new(1_000, 0)));
        let got = handler
            .handle_instance_crash(dead, &rates, &classes, &mut orch, &mut flaky, &rec)
            .unwrap();
        match got {
            CrashRecovery::Degraded {
                parked, shed: s, ..
            } => {
                assert_eq!(parked, 1);
                assert!((s - 1.0).abs() < 1e-9, "whole class should shed, got {s}");
            }
            other => panic!("expected degraded mode, got {other:?}"),
        }
        assert!(handler.is_degraded());
        assert_eq!(handler.parked_count(), 1);
        assert!((handler.total_shed() - 1.0).abs() < 1e-9);
        assert!(
            handler.fractions_consistent(),
            "shed traffic must stay accounted"
        );

        // Capacity returns (boots work again): degraded mode exits.
        let restored = handler
            .recover_degraded(
                &rates,
                &classes,
                &mut orch,
                &mut ControlOps::reliable(3),
                &rec,
            )
            .unwrap();
        assert_eq!(restored, 1);
        assert!(!handler.is_degraded());
        assert!(handler.total_shed().abs() < 1e-9);
        assert!(handler.fractions_consistent());

        let snap = rec.snapshot();
        assert_eq!(snap.counter("failover.degraded_entered"), Some(1));
        assert_eq!(snap.counter("failover.degraded_exited"), Some(1));
        assert_eq!(snap.counter("failover.subclasses_parked"), Some(1));
        assert_eq!(snap.counter("failover.subclasses_restored"), Some(1));
    }

    #[test]
    fn crashed_helper_releases_its_cores() {
        let (classes, mut orch, mut handler) = single_class_line();
        let victim = handler.shares()[0].instances[0];
        let class = handler.shares()[0].class;
        let mut rates = BTreeMap::new();
        rates.insert(class, 50_000.0);
        let mut ops = ControlOps::reliable(0);
        let act = handler
            .handle_overload(victim, &rates, &classes, &mut orch, &mut ops, &NOOP)
            .unwrap();
        let helper = match act {
            FailoverAction::SpawnedHelper { instance, .. } => instance,
            other => panic!("expected helper, got {other:?}"),
        };
        assert!(handler.helper_cores() > 0);
        handler
            .handle_instance_crash(
                helper,
                &rates,
                &classes,
                &mut orch,
                &mut ControlOps::reliable(11),
                &NOOP,
            )
            .unwrap();
        assert_eq!(handler.helper_cores(), 0, "dead helper still holds cores");
        assert!(handler.fractions_consistent());
        // Roll-back after the crash must not double-free anything.
        handler.roll_back(&mut orch, &NOOP);
        assert_eq!(handler.helper_cores(), 0);
        assert!(handler.fractions_consistent());
    }

    #[test]
    fn host_failure_crash_cascade_stays_consistent() {
        let (classes, mut orch, mut handler, rates) = setup();
        let dead_host = orch
            .instance(handler.shares()[0].instances[0])
            .map(|i| NodeId(i.host_switch()))
            .unwrap();
        let victims = orch.fail_host(dead_host).unwrap();
        assert!(!victims.is_empty());
        let mut ops = ControlOps::reliable(13);
        for dead in victims {
            handler
                .handle_instance_crash(dead, &rates, &classes, &mut orch, &mut ops, &NOOP)
                .unwrap();
            assert!(handler.fractions_consistent());
        }
        for s in handler.shares() {
            for &i in &s.instances {
                assert!(orch.instance(i).is_some(), "share routed through a ghost");
            }
        }
        // Re-homing across a multi-victim cascade must preserve chain
        // order: windows are bounded by the nearest *live* stage, never
        // a dead neighbour's stale fallback.
        let violations = crate::verify::verify_shares(&classes, &handler, &orch, 1e-6);
        assert!(
            violations.is_empty(),
            "cascade broke invariants: {violations:?}"
        );
    }

    #[test]
    fn replan_after_host_failure_avoids_down_host() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(3_000.0, 23).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 10,
                ..Default::default()
            },
        );
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut rp = Replanner::new(EngineConfig::default());
        let before = rp.replan(&classes, &orch).unwrap();
        assert_eq!(before.down_hosts, 0);
        // Fail the busiest switch's host and re-plan: nothing may be
        // placed there any more, yet the plan stays feasible.
        let (dead, _, _) = before.placement.q_entries().next().unwrap();
        orch.fail_host(dead).unwrap();
        let after = rp.replan(&classes, &orch).unwrap();
        assert_eq!(after.down_hosts, 1);
        assert!(
            after.placement.q_entries().all(|(v, _, _)| v != dead),
            "instances placed on a down host"
        );
        assert!(after.placement.total_instances() > 0);
    }

    #[test]
    fn replan_reuses_untouched_blocks_across_a_failure() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(3_000.0, 29).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 12,
                ..Default::default()
            },
        );
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut rp = Replanner::new(EngineConfig::default());
        let first = rp.replan(&classes, &orch).unwrap();
        assert!(first.warm_misses > 0, "cold cache must miss");

        // Unchanged input: every block (main solve + consolidation
        // probes) is answered from the cache.
        let repeat = rp.replan(&classes, &orch).unwrap();
        assert_eq!(repeat.warm_misses, 0, "identical re-plan must be free");
        assert!(repeat.warm_hits > 0);

        // A rate change re-solves the changed class's block only: the q
        // surcharge counts classes per switch, not their rates, so no
        // other block is re-priced.
        let mut bumped = classes.classes().to_vec();
        bumped[0].rate_mbps *= 1.1;
        let moved = rp.replan(&ClassSet::from_classes(bumped), &orch).unwrap();
        assert!(moved.warm_hits > 0, "a rate change re-priced every block");
        assert_eq!(moved.warm_misses, 1, "only the changed class re-solves");

        // A single host failure only invalidates the blocks whose classes
        // cross that host — the rest still hit.
        let (dead, _, _) = first.placement.q_entries().next().unwrap();
        orch.fail_host(dead).unwrap();
        let after = rp.replan(&classes, &orch).unwrap();
        assert!(after.warm_hits > 0, "untouched blocks should be cached");
        assert!(after.warm_misses > 0, "touched blocks must re-solve");
        assert!(!rp.cache().is_empty());
    }

    #[test]
    fn peak_helper_cores_tracks_maximum() {
        let (classes, mut orch, mut handler, mut rates) = setup();
        let victim = handler.shares()[0].instances[0];
        let class = handler.shares()[0].class;
        *rates.entry(class).or_insert(0.0) *= 20.0;
        let mut ops = ControlOps::reliable(0);
        let _ = handler.handle_overload(victim, &rates, &classes, &mut orch, &mut ops, &NOOP);
        let peak = handler.peak_helper_cores();
        handler.roll_back(&mut orch, &NOOP);
        assert_eq!(handler.helper_cores(), 0);
        assert_eq!(handler.peak_helper_cores(), peak);
    }
}
