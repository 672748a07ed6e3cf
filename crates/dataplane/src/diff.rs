//! Incremental update plans: diff two compiled [`RuleProgram`]s into a
//! minimal batched install/remove/modify plan whose cost scales with the
//! churn, not the topology.
//!
//! # Make-before-break ordering
//!
//! A plan is a sequence of [`UpdateBatch`]es; each batch is a per-device
//! barrier (the controller waits for the device to acknowledge the batch
//! before sending the next phase). Batches are emitted in five phases so
//! that **no transient packet can bypass its chain mid-update**:
//!
//! 1. *Rewriter registrations* — instances referenced by upcoming rules
//!    exist before any rule can steer to them.
//! 2. *Additive switch state* — host-match rules for switches gaining a
//!    host, and full tables for brand-new switches; then *additive host
//!    state* — vSwitch rules for new or growing hosts. On a host that
//!    already serves traffic the new rules are staged as a tail *behind*
//!    the old canonical order: first-match-wins keeps the old program
//!    authoritative, so no host forwards toward infrastructure still
//!    being built. Old classification still tags packets the old way,
//!    and every tag they can carry has a serving rule.
//! 3. *Classification flips* — per-switch batches that atomically move the
//!    APPLE table to the new classification; then *host flips* — each
//!    staged vSwitch is reordered to the canonical new program with the
//!    doomed old rules as a lowest-precedence tail (a pure priority
//!    rewrite, no rule operations billed). A packet classified before the
//!    flips walks old vSwitch rules (still installed); a packet
//!    classified after walks new ones, all of which exist since phase 2.
//! 4. *Subtractive host state* — now-unreferenced vSwitch rules go; then
//!    *subtractive switch state* — host-match rules for switches losing
//!    their host, and tables of vanished switches. Nothing tags for these
//!    rules any more (phase 3 flipped classification).
//! 5. *Rewriter deregistrations.*
//!
//! # Barrier semantics in the simulator
//!
//! Real hardware orders rules by priority, so install order within a batch
//! is irrelevant there; the simulator's `Vec` order is an artifact. Each
//! batch therefore carries the exact post-barrier rule list (`after`) and
//! application swaps to it atomically — the installs/removes/modifies
//! vectors are the *operation bill* (what a controller would send, what
//! capacity accounting must admit), not a replay script.

use crate::compiler::{RuleProgram, SwitchRules};
use crate::switch::VSwitchRule;
use crate::tcam::{TcamRule, TcamTable, PASS_BY_LABEL};
use apple_nf::InstanceId;
use apple_telemetry::{Recorder, RecorderExt};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One per-physical-switch barrier: the TCAM operations plus the exact
/// post-barrier table.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchBatch {
    /// Target switch.
    pub switch: usize,
    /// Rules newly installed at this barrier.
    pub installs: Vec<TcamRule>,
    /// Rules modified in place at this barrier (`(old, new)` pairs with the
    /// same label and match spec). A modify occupies one TCAM slot
    /// throughout — never two transiently.
    pub modifies: Vec<(TcamRule, TcamRule)>,
    /// Rules removed at this barrier.
    pub removes: Vec<TcamRule>,
    /// The exact APPLE table after this barrier.
    pub after: Vec<TcamRule>,
    /// Host-attached flag after this barrier.
    pub has_host_after: bool,
    /// Whether the switch disappears entirely (after must be empty).
    pub drop_switch: bool,
}

/// One per-host (vSwitch) barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct HostBatch {
    /// Target host (switch it hangs off).
    pub host: usize,
    /// Rules newly installed at this barrier.
    pub installs: Vec<VSwitchRule>,
    /// Rules removed at this barrier.
    pub removes: Vec<VSwitchRule>,
    /// The exact vSwitch rule list after this barrier.
    pub after: Vec<VSwitchRule>,
    /// Whether the host disappears entirely.
    pub drop_host: bool,
}

/// One barrier of an [`UpdatePlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateBatch {
    /// A physical-switch TCAM barrier.
    Switch(SwitchBatch),
    /// A host vSwitch barrier.
    Host(HostBatch),
    /// Rewriter registry changes (instance lifecycle, not rules).
    Rewriters {
        /// Instances that start rewriting headers.
        add: Vec<InstanceId>,
        /// Instances that stop (retired).
        remove: Vec<InstanceId>,
    },
}

impl UpdateBatch {
    /// Rule operations this batch bills (rewriter changes are free).
    pub fn op_count(&self) -> usize {
        match self {
            UpdateBatch::Switch(b) => b.installs.len() + b.modifies.len() + b.removes.len(),
            UpdateBatch::Host(b) => b.installs.len() + b.removes.len(),
            UpdateBatch::Rewriters { .. } => 0,
        }
    }
}

/// Operation counts of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Rules installed.
    pub installs: usize,
    /// Rules removed.
    pub removes: usize,
    /// Rules modified in place.
    pub modifies: usize,
    /// Barriers in the plan.
    pub batches: usize,
}

impl UpdateStats {
    /// Total rule operations (each modify counts once).
    pub fn total(&self) -> usize {
        self.installs + self.removes + self.modifies
    }
}

impl fmt::Display for UpdateStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ops ({} install, {} modify, {} remove) over {} barriers",
            self.total(),
            self.installs,
            self.modifies,
            self.removes,
            self.batches
        )
    }
}

/// Why a plan could not be applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A switch's transient billable occupancy would exceed its TCAM
    /// capacity. The offending batch was **not** applied, so the program
    /// stays at the previous barrier — a chain-safe state.
    TcamCapacity {
        /// The switch whose TCAM overflowed.
        switch: usize,
        /// Transient billable slots the barrier needed.
        needed: usize,
        /// The configured per-switch capacity.
        capacity: usize,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::TcamCapacity {
                switch,
                needed,
                capacity,
            } => write!(
                f,
                "TCAM capacity exhausted on switch {switch}: need {needed} slots, capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for ApplyError {}

/// A batched, ordered update plan between two compiled programs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct UpdatePlan {
    batches: Vec<UpdateBatch>,
}

impl UpdatePlan {
    /// The barriers, in application order.
    pub fn batches(&self) -> &[UpdateBatch] {
        &self.batches
    }

    /// Whether the plan does nothing at all.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total rule operations across all barriers.
    pub fn op_count(&self) -> usize {
        self.batches.iter().map(UpdateBatch::op_count).sum()
    }

    /// Operation counts.
    pub fn stats(&self) -> UpdateStats {
        let mut s = UpdateStats {
            batches: self.batches.len(),
            ..UpdateStats::default()
        };
        for b in &self.batches {
            match b {
                UpdateBatch::Switch(b) => {
                    s.installs += b.installs.len();
                    s.modifies += b.modifies.len();
                    s.removes += b.removes.len();
                }
                UpdateBatch::Host(b) => {
                    s.installs += b.installs.len();
                    s.removes += b.removes.len();
                }
                UpdateBatch::Rewriters { .. } => {}
            }
        }
        s
    }

    /// Applies every barrier in order. On a capacity error the program is
    /// left at the last successful barrier (a chain-safe state; see
    /// [`apply_batch`]).
    ///
    /// # Errors
    ///
    /// [`ApplyError::TcamCapacity`] when `capacity` is set and a barrier's
    /// transient occupancy exceeds it on some switch.
    pub fn apply(
        &self,
        prog: &mut RuleProgram,
        capacity: Option<usize>,
    ) -> Result<UpdateStats, ApplyError> {
        for b in &self.batches {
            apply_batch(prog, b, capacity)?;
        }
        Ok(self.stats())
    }

    /// Applies every barrier in order with no capacity admission — the
    /// uncapped path is infallible by construction (each batch carries its
    /// exact post-barrier state), so callers that do not model TCAM limits
    /// get a signature without a phantom error to unwrap.
    pub fn apply_unchecked(&self, prog: &mut RuleProgram) -> UpdateStats {
        for b in &self.batches {
            apply_batch_unchecked(prog, b);
        }
        self.stats()
    }

    /// Pre-validates the plan against a per-switch TCAM capacity without
    /// mutating anything, simulating the transient billable occupancy at
    /// every barrier. Lets a controller *reject* an infeasible plan up
    /// front instead of stalling mid-update.
    ///
    /// # Errors
    ///
    /// [`ApplyError::TcamCapacity`] naming the first overflowing barrier.
    pub fn check_capacity(&self, prog: &RuleProgram, capacity: usize) -> Result<(), ApplyError> {
        let mut bill: BTreeMap<usize, usize> = prog
            .switches
            .iter()
            .map(|(&id, s)| (id, s.billable()))
            .collect();
        for b in &self.batches {
            if let UpdateBatch::Switch(b) = b {
                let transient = transient_billable(bill.get(&b.switch).copied().unwrap_or(0), b);
                if transient > capacity {
                    return Err(ApplyError::TcamCapacity {
                        switch: b.switch,
                        needed: transient,
                        capacity,
                    });
                }
                if b.drop_switch {
                    bill.remove(&b.switch);
                } else {
                    bill.insert(b.switch, billable(&b.after));
                }
            }
        }
        Ok(())
    }
}

fn billable(rules: &[TcamRule]) -> usize {
    rules.iter().filter(|r| r.label != PASS_BY_LABEL).count()
}

/// Peak billable occupancy while a barrier is in flight: make-before-break
/// holds the old rules and the new installs simultaneously. Modifies are
/// **not** counted — a modify reuses its slot (the double-count bug this
/// accounting was audited for).
fn transient_billable(old_billable: usize, b: &SwitchBatch) -> usize {
    old_billable + billable(&b.installs)
}

/// Applies one barrier. Capacity (when given) is checked against the
/// transient occupancy *before* mutating, so a rejected batch leaves the
/// program untouched at the previous barrier — never half-applied.
///
/// # Errors
///
/// [`ApplyError::TcamCapacity`] as for [`UpdatePlan::apply`].
pub fn apply_batch(
    prog: &mut RuleProgram,
    batch: &UpdateBatch,
    capacity: Option<usize>,
) -> Result<(), ApplyError> {
    if let (Some(cap), UpdateBatch::Switch(b)) = (capacity, batch) {
        let old = prog
            .switches
            .get(&b.switch)
            .map(|s| s.billable())
            .unwrap_or(0);
        let transient = transient_billable(old, b);
        if transient > cap {
            return Err(ApplyError::TcamCapacity {
                switch: b.switch,
                needed: transient,
                capacity: cap,
            });
        }
    }
    apply_batch_unchecked(prog, batch);
    Ok(())
}

/// Applies one barrier with no capacity admission (infallible: each batch
/// carries its exact post-barrier state and application is a swap).
pub fn apply_batch_unchecked(prog: &mut RuleProgram, batch: &UpdateBatch) {
    match batch {
        UpdateBatch::Switch(b) => {
            if b.drop_switch {
                prog.switches.remove(&b.switch);
            } else {
                prog.switches.insert(
                    b.switch,
                    SwitchRules {
                        rules: b.after.clone(),
                        has_host: b.has_host_after,
                    },
                );
            }
        }
        UpdateBatch::Host(b) => {
            if b.drop_host {
                prog.hosts.remove(&b.host);
            } else {
                prog.hosts.insert(b.host, b.after.clone());
            }
        }
        UpdateBatch::Rewriters { add, remove } => {
            for &i in add {
                prog.rewriters.insert(i);
            }
            for &i in remove {
                prog.rewriters.remove(&i);
            }
        }
    }
}

/// Splits `new` against `old` as multisets: returns `(installs, removes)`
/// where `installs` are in `new` but not `old` and `removes` vice versa.
fn split_diff<T: Clone + PartialEq>(old: &[T], new: &[T]) -> (Vec<T>, Vec<T>) {
    let mut remaining: Vec<&T> = old.iter().collect();
    let mut installs = Vec::new();
    for r in new {
        if let Some(i) = remaining.iter().position(|o| *o == r) {
            remaining.swap_remove(i);
        } else {
            installs.push(r.clone());
        }
    }
    (installs, remaining.into_iter().cloned().collect())
}

/// Pairs install/remove rules sharing a label and match spec into in-place
/// modifies (e.g. a sub-class's classification rule pointing at a new next
/// host). Each modify bills one operation and one slot.
fn pair_modifies(
    installs: &mut Vec<TcamRule>,
    removes: &mut Vec<TcamRule>,
) -> Vec<(TcamRule, TcamRule)> {
    let mut mods = Vec::new();
    let mut i = 0;
    while i < installs.len() {
        let pos = removes
            .iter()
            .position(|o| o.label == installs[i].label && o.spec == installs[i].spec);
        if let Some(j) = pos {
            mods.push((removes.remove(j), installs.remove(i)));
        } else {
            i += 1;
        }
    }
    mods
}

/// The Table III pipeline scaffold rules: host-match and pass-by. These
/// are additive-early / subtractive-late, unlike classification flips.
fn is_scaffold(r: &TcamRule) -> bool {
    r.label == PASS_BY_LABEL || r.label.starts_with("host-match")
}

/// Merges extra rules into an existing canonical table, preserving the
/// descending-priority stable order.
fn merged(base: &[TcamRule], extra: &[TcamRule]) -> Vec<TcamRule> {
    let mut t = TcamTable::new();
    for r in base.iter().chain(extra.iter()) {
        t.install(r.clone());
    }
    t.iter().cloned().collect()
}

/// The devices a diff looks at: physical switches, host vSwitches and
/// rewriter registrations. Devices outside the scope are taken as
/// unchanged and consulted in neither program, so a caller that knows what
/// an event touched pays for those devices only.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiffScope {
    /// Physical switches to compare.
    pub switches: BTreeSet<usize>,
    /// Host vSwitches to compare (named by the switch they hang off).
    pub hosts: BTreeSet<usize>,
    /// Rewriter registrations to compare.
    pub rewriters: BTreeSet<InstanceId>,
}

impl DiffScope {
    /// Whether there is nothing to look at.
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty() && self.hosts.is_empty() && self.rewriters.is_empty()
    }

    /// Every device either program knows: the whole-program diff.
    pub fn all(old: &RuleProgram, new: &RuleProgram) -> DiffScope {
        DiffScope {
            switches: old
                .switches
                .keys()
                .chain(new.switches.keys())
                .copied()
                .collect(),
            hosts: old.hosts.keys().chain(new.hosts.keys()).copied().collect(),
            rewriters: old.rewriters.union(&new.rewriters).copied().collect(),
        }
    }
}

/// Diffs two compiled programs into a make-before-break [`UpdatePlan`].
///
/// `old` must be the currently installed program and `new` the compile of
/// the target snapshot; applying the plan to `old` yields exactly `new`
/// (see the property tests). `diff(p, p)` is empty.
pub fn diff(old: &RuleProgram, new: &RuleProgram) -> UpdatePlan {
    diff_scoped(old, new, &DiffScope::all(old, new), &apple_telemetry::NOOP)
}

/// [`diff`] with a telemetry span (`dataplane.diff`) and operation
/// counters.
pub fn diff_recorded(old: &RuleProgram, new: &RuleProgram, rec: &dyn Recorder) -> UpdatePlan {
    diff_scoped(old, new, &DiffScope::all(old, new), rec)
}

/// The differ: [`diff`] restricted to the devices in `scope`. `new` need
/// only hold the target state of those devices (a device of the scope
/// absent from `new` is one that goes away); the plan is the plan [`diff`]
/// emits against any full target that agrees with `old` outside the
/// scope. Telemetry as for [`diff_recorded`].
pub fn diff_scoped(
    old: &RuleProgram,
    new: &RuleProgram,
    scope: &DiffScope,
    rec: &dyn Recorder,
) -> UpdatePlan {
    let _span = rec.span("dataplane.diff");
    let mut phase2_switch: Vec<UpdateBatch> = Vec::new();
    let mut phase2_host: Vec<UpdateBatch> = Vec::new();
    let mut phase3: Vec<UpdateBatch> = Vec::new();
    let mut phase3_host: Vec<UpdateBatch> = Vec::new();
    let mut phase4_host: Vec<UpdateBatch> = Vec::new();
    let mut phase4_switch: Vec<UpdateBatch> = Vec::new();

    // Physical switches.
    let absent = SwitchRules {
        rules: Vec::new(),
        has_host: false,
    };
    for &id in &scope.switches {
        // A brand-new or vanished switch follows the same discipline as a
        // modified one, diffed against an empty table. Installing a new
        // switch's classification together with its scaffold would let the
        // ingress tag packets toward a host whose vSwitch rules only land
        // in a later phase-2 batch (found by the crash-recovery battery:
        // a fabric reconciled from that torn state stranded probes); the
        // split keeps classification strictly after every host barrier.
        // Symmetrically, a vanished switch's classification comes out at
        // the phase-3 flip — before phase 4 drops the hosts it tags
        // toward — and the scaffold plus the table itself go at phase 4.
        let (o, n, drop_switch) = match (old.switches.get(&id), new.switches.get(&id)) {
            (Some(o), Some(n)) => (o, n, false),
            (None, Some(n)) => (&absent, n, false),
            (Some(o), None) => (o, &absent, true),
            (None, None) => continue,
        };
        if o.rules == n.rules && o.has_host == n.has_host && !drop_switch {
            continue;
        }
        let (mut installs, mut removes) = split_diff(&o.rules, &n.rules);
        let modifies = pair_modifies(&mut installs, &mut removes);
        let (scaffold_installs, class_installs): (Vec<_>, Vec<_>) =
            installs.into_iter().partition(is_scaffold);
        let (scaffold_removes, class_removes): (Vec<_>, Vec<_>) =
            removes.into_iter().partition(is_scaffold);
        // While the old host-match (if any) is still installed, the
        // switch keeps serving its old host; `has_host` only drops
        // at the subtractive barrier.
        let transitional_host = o.has_host || n.has_host;
        let has_phase2 = !scaffold_installs.is_empty();
        let has_phase3 =
            !(class_installs.is_empty() && modifies.is_empty() && class_removes.is_empty());
        if has_phase2 {
            phase2_switch.push(UpdateBatch::Switch(SwitchBatch {
                switch: id,
                installs: scaffold_installs.clone(),
                modifies: Vec::new(),
                removes: Vec::new(),
                after: merged(&o.rules, &scaffold_installs),
                has_host_after: transitional_host,
                drop_switch: false,
            }));
        }
        if has_phase3 {
            // Classification flip: after = the new table, plus any
            // scaffold rules whose removal is deferred to phase 4.
            phase3.push(UpdateBatch::Switch(SwitchBatch {
                switch: id,
                installs: class_installs,
                modifies,
                removes: class_removes,
                after: merged(&n.rules, &scaffold_removes),
                has_host_after: transitional_host,
                drop_switch: false,
            }));
        }
        // `has_host` must land on `n.has_host` even when no subtractive
        // rule delta drives a batch: a metadata-only host flip emits no
        // barrier above at all, and a host loss whose rule ops were all
        // additive/modifies leaves the transitional state holding the old
        // host through phase 3. Either way the subtractive barrier is
        // where the flip belongs.
        let reached = if has_phase2 || has_phase3 {
            transitional_host
        } else {
            o.has_host
        };
        if !scaffold_removes.is_empty() || drop_switch || reached != n.has_host {
            phase4_switch.push(UpdateBatch::Switch(SwitchBatch {
                switch: id,
                installs: Vec::new(),
                modifies: Vec::new(),
                removes: scaffold_removes,
                after: n.rules.clone(),
                has_host_after: n.has_host,
                drop_switch,
            }));
        }
    }

    // Host vSwitches.
    for &id in &scope.hosts {
        match (old.hosts.get(&id), new.hosts.get(&id)) {
            (None, Some(n)) => {
                phase2_host.push(UpdateBatch::Host(HostBatch {
                    host: id,
                    installs: n.clone(),
                    removes: Vec::new(),
                    after: n.clone(),
                    drop_host: false,
                }));
            }
            (Some(o), None) => {
                phase4_host.push(UpdateBatch::Host(HostBatch {
                    host: id,
                    installs: Vec::new(),
                    removes: o.clone(),
                    after: Vec::new(),
                    drop_host: true,
                }));
            }
            (Some(o), Some(n)) => {
                if o == n {
                    continue;
                }
                let (installs, removes) = split_diff(o, n);
                // Additive barrier: the new rules go in as a tail *behind*
                // the old canonical order. First-match-wins keeps the old
                // program authoritative — the additions only serve tags the
                // old rules do not match — so this host cannot start
                // forwarding toward infrastructure still being built.
                let mut staged = o.clone();
                staged.extend(installs.iter().cloned());
                if !installs.is_empty() {
                    phase2_host.push(UpdateBatch::Host(HostBatch {
                        host: id,
                        installs: installs.clone(),
                        removes: Vec::new(),
                        after: staged.clone(),
                        drop_host: false,
                    }));
                }
                // Flip barrier: reorder to the canonical new program with
                // the doomed old rules as a lowest-precedence tail (for
                // old-tagged in-flight packets). No rule content changes —
                // on hardware this is a priority rewrite, so it bills no
                // operations — and it runs after *every* additive barrier,
                // when all new next hops exist.
                let mut flipped = n.clone();
                flipped.extend(removes.iter().cloned());
                if flipped != staged {
                    phase3_host.push(UpdateBatch::Host(HostBatch {
                        host: id,
                        installs: Vec::new(),
                        removes: Vec::new(),
                        after: flipped,
                        drop_host: false,
                    }));
                }
                if !removes.is_empty() {
                    phase4_host.push(UpdateBatch::Host(HostBatch {
                        host: id,
                        installs: Vec::new(),
                        removes,
                        after: n.clone(),
                        drop_host: false,
                    }));
                }
            }
            (None, None) => {}
        }
    }

    // Rewriter registry.
    let (mut rw_add, mut rw_remove) = (Vec::new(), Vec::new());
    for &i in &scope.rewriters {
        match (old.rewriters.contains(&i), new.rewriters.contains(&i)) {
            (false, true) => rw_add.push(i),
            (true, false) => rw_remove.push(i),
            _ => {}
        }
    }

    let mut batches = Vec::new();
    if !rw_add.is_empty() {
        batches.push(UpdateBatch::Rewriters {
            add: rw_add,
            remove: Vec::new(),
        });
    }
    batches.extend(phase2_switch);
    batches.extend(phase2_host);
    batches.extend(phase3);
    batches.extend(phase3_host);
    batches.extend(phase4_host);
    batches.extend(phase4_switch);
    if !rw_remove.is_empty() {
        batches.push(UpdateBatch::Rewriters {
            add: Vec::new(),
            remove: rw_remove,
        });
    }
    let plan = UpdatePlan { batches };
    let stats = plan.stats();
    rec.counter("dataplane.ops_installed", stats.installs as u64);
    rec.counter("dataplane.ops_removed", stats.removes as u64);
    rec.counter("dataplane.ops_modified", stats.modifies as u64);
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, CompilerSnapshot, SubclassSpec};
    use apple_nf::NfType;

    fn snapshot(instance: u64, tag: u16) -> CompilerSnapshot {
        CompilerSnapshot {
            switches: vec![0, 1, 2],
            hosts: vec![1],
            rewriters: Vec::new(),
            subclasses: vec![SubclassSpec {
                class: 0,
                class_name: "c0".into(),
                sub: 0,
                tag,
                global: false,
                path: vec![0, 1, 2],
                src_prefix: (0x0a00_0000, 24),
                dst_prefix: (0x0a00_0100, 24),
                proto: None,
                dst_ports: Vec::new(),
                prefixes: vec![(0x0a00_0000, 24)],
                stage_positions: vec![1],
                stage_nfs: vec![NfType::Firewall],
                instances: vec![InstanceId(instance)],
            }],
            compress: true,
        }
    }

    #[test]
    fn identical_programs_diff_empty() {
        let p = compile(&snapshot(0, 0));
        let plan = diff(&p, &p);
        assert!(plan.is_empty());
        assert_eq!(plan.op_count(), 0);
    }

    #[test]
    fn apply_reproduces_target() {
        let a = compile(&snapshot(0, 0));
        let b = compile(&snapshot(7, 0));
        let plan = diff(&a, &b);
        assert!(!plan.is_empty());
        let mut prog = a.clone();
        plan.apply(&mut prog, None).unwrap();
        assert_eq!(prog, b);
        // And back.
        let back = diff(&prog, &a);
        back.apply(&mut prog, None).unwrap();
        assert_eq!(prog, a);
    }

    #[test]
    fn reassigned_instance_touches_only_its_host() {
        let a = compile(&snapshot(0, 0));
        let b = compile(&snapshot(7, 0));
        let plan = diff(&a, &b);
        // Classification is unchanged (same tag, same next host); only the
        // vSwitch steering rules change.
        for batch in plan.batches() {
            match batch {
                UpdateBatch::Host(h) => assert_eq!(h.host, 1),
                other => panic!("unexpected batch {other:?}"),
            }
        }
        assert!(plan.op_count() < b.rule_count());
    }

    #[test]
    fn adds_come_before_removes() {
        let a = compile(&snapshot(0, 0));
        let b = compile(&snapshot(7, 0));
        let plan = diff(&a, &b);
        let mut seen_remove = false;
        for batch in plan.batches() {
            match batch {
                UpdateBatch::Host(h) => {
                    if !h.removes.is_empty() {
                        seen_remove = true;
                    } else {
                        assert!(!seen_remove, "install batch after a remove batch");
                    }
                }
                UpdateBatch::Switch(s) => {
                    if !s.installs.is_empty() {
                        assert!(!seen_remove, "install batch after a remove batch");
                    }
                }
                UpdateBatch::Rewriters { .. } => {}
            }
        }
        assert!(seen_remove);
    }

    #[test]
    fn capacity_rejection_is_atomic() {
        let empty = RuleProgram::default();
        let b = compile(&snapshot(0, 0));
        let plan = diff(&empty, &b);
        // Switch 0 needs one billable classification rule; capacity 0
        // rejects it, and the program must not be half-mutated for that
        // switch's batch.
        let err = plan.apply(&mut empty.clone(), Some(0)).unwrap_err();
        match err {
            ApplyError::TcamCapacity {
                needed, capacity, ..
            } => {
                assert!(needed > capacity);
            }
        }
        // check_capacity flags the same plan without mutating anything.
        assert!(plan.check_capacity(&empty, 0).is_err());
        assert!(plan.check_capacity(&empty, 16).is_ok());
    }

    #[test]
    fn modify_pairs_bill_one_op_and_one_slot() {
        use crate::packet::HostTag;
        use crate::tcam::{Action, MatchSpec};

        let mk = |next: u16| TcamRule {
            priority: 200,
            spec: MatchSpec::any()
                .host_tag(HostTag::Empty)
                .src(0x0a00_0000, 24),
            actions: vec![
                Action::SetSubclassTag(0),
                Action::SetHostTag(HostTag::Host(next)),
                Action::GotoNextTable,
            ],
            label: "classify c0/s0".into(),
        };
        let mut a = RuleProgram::default();
        a.switches.insert(
            0,
            SwitchRules {
                rules: vec![mk(1)],
                has_host: false,
            },
        );
        let mut b = a.clone();
        b.switches.get_mut(&0).unwrap().rules = vec![mk(2)];
        let plan = diff(&a, &b);
        let stats = plan.stats();
        assert_eq!(
            (stats.installs, stats.modifies, stats.removes),
            (0, 1, 0),
            "a retargeted classification rule is a single modify"
        );
        // One slot is enough: the modify reuses its slot.
        assert!(plan.check_capacity(&a, 1).is_ok());
        let mut prog = a.clone();
        plan.apply(&mut prog, Some(1)).unwrap();
        assert_eq!(prog, b);
    }
}
