//! The Resource Orchestrator: APPLE hosts, resource accounting, and VNF
//! instance lifecycle (Fig. 1, middleware between control plane and VMs).
//!
//! Every switch has an attached APPLE host (the paper assumes 64 cores per
//! host in §IX-A). The orchestrator tracks available resources `A_v`,
//! launches instances on behalf of the Optimization Engine, and reports
//! availability back to it.

use apple_faults::{FaultInjector, NoFaults, RetryPolicy};
use apple_nf::{InstanceId, NfType, ResourceVector, TimingModel, VnfInstance, VnfSpec};
use apple_rng::rngs::StdRng;
use apple_rng::SeedableRng;
use apple_telemetry::Recorder;
use apple_topology::NodeId;
use std::collections::BTreeMap;
use std::fmt;

/// Errors returned by orchestration operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrchestratorError {
    /// The switch has no APPLE host.
    NoHost(usize),
    /// The host lacks resources for the requested instance.
    InsufficientResources {
        /// Switch whose host was asked.
        switch: usize,
        /// What the instance needs.
        needed: ResourceVector,
        /// What is left.
        available: ResourceVector,
    },
    /// Unknown instance id.
    UnknownInstance(InstanceId),
    /// The host is marked down (failed and not yet recovered).
    HostDown(usize),
    /// Every boot attempt within the retry policy failed.
    BootFailed {
        /// Switch whose host was booting the instance.
        switch: usize,
        /// NF type that failed to boot.
        nf: NfType,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Every rule-install attempt within the retry policy failed.
    RuleInstallFailed {
        /// Switch whose vSwitch rejected the install.
        switch: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The operation's virtual-time budget ran out before it succeeded.
    OperationTimedOut {
        /// Operation name (`"launch"`, `"rule-install"`).
        op: &'static str,
        /// Budget that was exceeded, in ms.
        budget_ms: u64,
        /// Virtual time actually burned, in ms.
        elapsed_ms: u64,
    },
}

impl fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestratorError::NoHost(s) => write!(f, "switch {s} has no APPLE host"),
            OrchestratorError::InsufficientResources {
                switch,
                needed,
                available,
            } => write!(
                f,
                "host at switch {switch} cannot fit {needed} (only {available} left)"
            ),
            OrchestratorError::UnknownInstance(id) => write!(f, "unknown instance {id}"),
            OrchestratorError::HostDown(s) => write!(f, "host at switch {s} is down"),
            OrchestratorError::BootFailed {
                switch,
                nf,
                attempts,
            } => write!(
                f,
                "{nf} failed to boot at switch {switch} after {attempts} attempts"
            ),
            OrchestratorError::RuleInstallFailed { switch, attempts } => {
                write!(
                    f,
                    "rule install at switch {switch} failed after {attempts} attempts"
                )
            }
            OrchestratorError::OperationTimedOut {
                op,
                budget_ms,
                elapsed_ms,
            } => write!(
                f,
                "{op} burned {elapsed_ms} ms of its {budget_ms} ms budget"
            ),
        }
    }
}

impl std::error::Error for OrchestratorError {}

/// One APPLE host: capacity and the instances it runs.
#[derive(Debug, Clone)]
pub struct Host {
    /// Switch this host hangs off.
    pub switch: NodeId,
    /// Total hardware resources.
    pub capacity: ResourceVector,
    /// Resources currently committed to instances.
    pub used: ResourceVector,
    /// Whether the host is up. Failed hosts keep their slot (recovery
    /// restores them) but reject every operation while down.
    pub up: bool,
}

impl Host {
    /// Available resources `A_v` (zero while the host is down).
    pub fn available(&self) -> ResourceVector {
        if self.up {
            self.capacity.saturating_sub(self.used)
        } else {
            ResourceVector::zero()
        }
    }
}

/// The control-plane operation context for fallible orchestration: the
/// fault injector deciding per-operation outcomes, the retry policies, the
/// paper's timing model supplying operation latencies, and a seeded RNG
/// for backoff jitter. All latency is *virtual* — nothing sleeps.
pub struct ControlOps {
    /// Decides boot / rule-install outcomes ([`NoFaults`] for reliable
    /// operation).
    pub injector: Box<dyn FaultInjector>,
    /// Retry discipline for VM boots.
    pub boot_retry: RetryPolicy,
    /// Retry discipline for rule installs.
    pub rule_retry: RetryPolicy,
    /// Control-plane latency model (boot, reconfigure, rule install).
    pub timing: TimingModel,
    rng: StdRng,
}

impl ControlOps {
    /// Reliable operations: no injected faults, paper timing, seeded
    /// backoff jitter (irrelevant when nothing fails).
    pub fn reliable(seed: u64) -> ControlOps {
        ControlOps::with_injector(seed, Box::new(NoFaults))
    }

    /// Operations driven by `injector`, with retry budgets derived from
    /// the paper's timing model.
    pub fn with_injector(seed: u64, injector: Box<dyn FaultInjector>) -> ControlOps {
        let timing = TimingModel::paper(seed);
        ControlOps {
            injector,
            boot_retry: RetryPolicy::for_boot(&timing),
            rule_retry: RetryPolicy::for_rule_install(&timing),
            timing,
            rng: StdRng::seed_from_u64(seed ^ 0xbac0_ff5e),
        }
    }
}

impl fmt::Debug for ControlOps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlOps")
            .field("boot_retry", &self.boot_retry)
            .field("rule_retry", &self.rule_retry)
            .finish_non_exhaustive()
    }
}

/// Outcome of a successful [`ResourceOrchestrator::launch_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchReport {
    /// The launched instance.
    pub instance: InstanceId,
    /// Boot attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Virtual time burned (boots, slow-boot penalties, backoffs), ms.
    pub latency_ms: u64,
}

/// Outcome of a successful [`ResourceOrchestrator::rule_install_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleInstallReport {
    /// Install attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Virtual time burned, ms.
    pub latency_ms: u64,
}

/// The Resource Orchestrator.
///
/// # Example
///
/// ```
/// use apple_core::orchestrator::ResourceOrchestrator;
/// use apple_nf::NfType;
/// use apple_topology::{zoo, NodeId};
///
/// let topo = zoo::internet2();
/// let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
/// let id = orch.launch(NodeId(0), NfType::Firewall)?;
/// assert_eq!(orch.instance(id).unwrap().nf(), NfType::Firewall);
/// # Ok::<(), apple_core::orchestrator::OrchestratorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ResourceOrchestrator {
    hosts: BTreeMap<usize, Host>,
    instances: BTreeMap<InstanceId, VnfInstance>,
    next_id: u64,
}

impl ResourceOrchestrator {
    /// Creates an orchestrator with one host per switch, each with
    /// `cores` CPU cores (the paper uses 64) and memory sized generously so
    /// cores are the binding resource.
    pub fn with_uniform_hosts(topo: &apple_topology::Topology, cores: u32) -> Self {
        let hosts = topo
            .graph
            .node_ids()
            .map(|n| {
                (
                    n.0,
                    Host {
                        switch: n,
                        capacity: ResourceVector::new(cores, cores * 4096),
                        used: ResourceVector::zero(),
                        up: true,
                    },
                )
            })
            .collect();
        ResourceOrchestrator {
            hosts,
            instances: BTreeMap::new(),
            next_id: 0,
        }
    }

    /// Available resources at the host of switch `v` (what the engine polls).
    pub fn available(&self, v: NodeId) -> Option<ResourceVector> {
        self.hosts.get(&v.0).map(Host::available)
    }

    /// All hosts, keyed by switch index.
    pub fn hosts(&self) -> &BTreeMap<usize, Host> {
        &self.hosts
    }

    /// Launches an instance of `nf` on the host at `v`.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::NoHost`],
    /// [`OrchestratorError::HostDown`] or
    /// [`OrchestratorError::InsufficientResources`].
    pub fn launch(&mut self, v: NodeId, nf: NfType) -> Result<InstanceId, OrchestratorError> {
        let host = self
            .hosts
            .get_mut(&v.0)
            .ok_or(OrchestratorError::NoHost(v.0))?;
        if !host.up {
            return Err(OrchestratorError::HostDown(v.0));
        }
        let needed = VnfSpec::of(nf).resources();
        let available = host.available();
        if !needed.fits_in(&available) {
            return Err(OrchestratorError::InsufficientResources {
                switch: v.0,
                needed,
                available,
            });
        }
        host.used += needed;
        let id = InstanceId(self.next_id);
        self.next_id += 1;
        self.instances.insert(id, VnfInstance::new(id, nf, v.0));
        Ok(id)
    }

    /// Tears an instance down, releasing its resources.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::UnknownInstance`].
    pub fn teardown(&mut self, id: InstanceId) -> Result<(), OrchestratorError> {
        let inst = self
            .instances
            .remove(&id)
            .ok_or(OrchestratorError::UnknownInstance(id))?;
        // Instances always reference an existing host; tolerate a missing
        // one (the instance is gone either way, accounting stays sound).
        if let Some(host) = self.hosts.get_mut(&inst.host_switch()) {
            host.used = host.used.saturating_sub(inst.spec().resources());
        }
        Ok(())
    }

    /// Decomposes the orchestrator into the parts a recovery snapshot
    /// persists: `(hosts, instances, next_id)`. Crate-private — only the
    /// journal codec ([`crate::recovery`]) consumes it.
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (
        &BTreeMap<usize, Host>,
        &BTreeMap<InstanceId, VnfInstance>,
        u64,
    ) {
        (&self.hosts, &self.instances, self.next_id)
    }

    /// Rebuilds an orchestrator from snapshot parts. `used` is recomputed
    /// from the live instances (it is derived state: the sum of instance
    /// resource vectors per up host), so a decoded snapshot can never
    /// carry inconsistent accounting.
    pub(crate) fn from_parts(
        mut hosts: BTreeMap<usize, Host>,
        instances: BTreeMap<InstanceId, VnfInstance>,
        next_id: u64,
    ) -> Self {
        for host in hosts.values_mut() {
            host.used = ResourceVector::zero();
        }
        for inst in instances.values() {
            if let Some(host) = hosts.get_mut(&inst.host_switch()) {
                if host.up {
                    host.used += inst.spec().resources();
                }
            }
        }
        ResourceOrchestrator {
            hosts,
            instances,
            next_id,
        }
    }

    /// Shared access to an instance.
    pub fn instance(&self, id: InstanceId) -> Option<&VnfInstance> {
        self.instances.get(&id)
    }

    /// All instances, ordered by id.
    pub fn instances(&self) -> impl Iterator<Item = &VnfInstance> {
        self.instances.values()
    }

    /// Switches with at least one live instance — the set that needs a
    /// host-match rule and a programmed vSwitch (Table III row 1).
    pub fn hosts_in_use(&self) -> std::collections::BTreeSet<usize> {
        self.instances
            .values()
            .map(VnfInstance::host_switch)
            .collect()
    }

    /// Instances of `nf` on the host at `v`, ordered by id.
    pub fn instances_at(&self, v: NodeId, nf: NfType) -> Vec<InstanceId> {
        self.instances
            .values()
            .filter(|i| i.host_switch() == v.0 && i.nf() == nf)
            .map(|i| i.id())
            .collect()
    }

    /// Total cores committed across all hosts — the Fig. 11 metric.
    pub fn total_cores_used(&self) -> u32 {
        self.hosts.values().map(|h| h.used.cores).sum()
    }

    /// Number of live instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Whether the host at `v` exists and is up.
    pub fn host_is_up(&self, v: NodeId) -> bool {
        self.hosts.get(&v.0).is_some_and(|h| h.up)
    }

    /// Kills the host at `v`: marks it down, destroys every instance it
    /// runs and zeroes its committed resources. Returns the ids of the
    /// instances that died so the Dynamic Handler can re-home their
    /// sub-classes.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::NoHost`] for an unknown switch,
    /// [`OrchestratorError::HostDown`] if it is already down.
    pub fn fail_host(&mut self, v: NodeId) -> Result<Vec<InstanceId>, OrchestratorError> {
        let host = self
            .hosts
            .get_mut(&v.0)
            .ok_or(OrchestratorError::NoHost(v.0))?;
        if !host.up {
            return Err(OrchestratorError::HostDown(v.0));
        }
        host.up = false;
        host.used = ResourceVector::zero();
        let dead: Vec<InstanceId> = self
            .instances
            .values()
            .filter(|i| i.host_switch() == v.0)
            .map(VnfInstance::id)
            .collect();
        for id in &dead {
            self.instances.remove(id);
        }
        Ok(dead)
    }

    /// Brings a failed host back up, empty. Idempotent on up hosts.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::NoHost`] for an unknown switch.
    pub fn restore_host(&mut self, v: NodeId) -> Result<(), OrchestratorError> {
        let host = self
            .hosts
            .get_mut(&v.0)
            .ok_or(OrchestratorError::NoHost(v.0))?;
        host.up = true;
        Ok(())
    }

    /// Removes a crashed instance, releasing its resources, and returns it
    /// so the caller can inspect what died (NF type, host).
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::UnknownInstance`] — which callers handling a
    /// host failure treat as "already gone".
    pub fn crash_instance(&mut self, id: InstanceId) -> Result<VnfInstance, OrchestratorError> {
        let inst = self
            .instances
            .remove(&id)
            .ok_or(OrchestratorError::UnknownInstance(id))?;
        if let Some(host) = self.hosts.get_mut(&inst.host_switch()) {
            if host.up {
                host.used = host.used.saturating_sub(inst.spec().resources());
            }
        }
        Ok(inst)
    }

    /// Launches an instance of `nf` at `v` through the fallible control
    /// plane: each boot attempt consults `ops.injector`, failures retry
    /// with bounded exponential backoff (seeded jitter), and the whole
    /// operation is bounded by `ops.boot_retry.budget_ms` of *virtual*
    /// time. Resources are committed only on the successful attempt, so a
    /// launch-fail-retry sequence never leaks accounting.
    ///
    /// Telemetry: `orchestrator.retries` per re-attempt,
    /// `orchestrator.boot_failures` per failed boot, and
    /// `orchestrator.launch_latency_ms` for successful launches.
    ///
    /// # Errors
    ///
    /// The infallible-[`ResourceOrchestrator::launch`] errors, plus
    /// [`OrchestratorError::BootFailed`] when attempts run out and
    /// [`OrchestratorError::OperationTimedOut`] when the budget does.
    pub fn launch_with_retry(
        &mut self,
        v: NodeId,
        nf: NfType,
        ops: &mut ControlOps,
        rec: &dyn Recorder,
    ) -> Result<LaunchReport, OrchestratorError> {
        let spec = VnfSpec::of(nf);
        let mut elapsed = 0u64;
        let budget = ops.boot_retry.budget_ms;
        for attempt in 1..=ops.boot_retry.max_attempts {
            // Re-checked per attempt: the host may have died mid-retry.
            let host = self.hosts.get(&v.0).ok_or(OrchestratorError::NoHost(v.0))?;
            if !host.up {
                return Err(OrchestratorError::HostDown(v.0));
            }
            let needed = spec.resources();
            let available = host.available();
            if !needed.fits_in(&available) {
                return Err(OrchestratorError::InsufficientResources {
                    switch: v.0,
                    needed,
                    available,
                });
            }
            let boot_ms = ops.timing.provision(spec.clickos, false)
                + ops.injector.boot_delay_ms(v.0, attempt);
            if ops.injector.boot_fails(v.0, attempt) {
                rec.counter("orchestrator.boot_failures", 1);
                elapsed += boot_ms + ops.boot_retry.backoff_ms(attempt, &mut ops.rng);
                if elapsed > budget {
                    return Err(OrchestratorError::OperationTimedOut {
                        op: "launch",
                        budget_ms: budget,
                        elapsed_ms: elapsed,
                    });
                }
                rec.counter("orchestrator.retries", 1);
                continue;
            }
            elapsed += boot_ms;
            if elapsed > budget {
                return Err(OrchestratorError::OperationTimedOut {
                    op: "launch",
                    budget_ms: budget,
                    elapsed_ms: elapsed,
                });
            }
            let instance = self.launch(v, nf)?;
            rec.observe("orchestrator.launch_latency_ms", elapsed as f64);
            return Ok(LaunchReport {
                instance,
                attempts: attempt,
                latency_ms: elapsed,
            });
        }
        Err(OrchestratorError::BootFailed {
            switch: v.0,
            nf,
            attempts: ops.boot_retry.max_attempts,
        })
    }

    /// Installs forwarding rules at the switch of host `v` through the
    /// fallible control plane — the ~70 ms Open vSwitch operation of
    /// §VII, with injected failures retried under `ops.rule_retry`.
    ///
    /// Telemetry: `orchestrator.retries` per re-attempt,
    /// `orchestrator.rule_install_failures` per failed attempt.
    ///
    /// # Errors
    ///
    /// [`OrchestratorError::NoHost`], [`OrchestratorError::HostDown`],
    /// [`OrchestratorError::RuleInstallFailed`] when attempts run out, or
    /// [`OrchestratorError::OperationTimedOut`] when the budget does.
    pub fn rule_install_with_retry(
        &mut self,
        v: NodeId,
        ops: &mut ControlOps,
        rec: &dyn Recorder,
    ) -> Result<RuleInstallReport, OrchestratorError> {
        let host = self.hosts.get(&v.0).ok_or(OrchestratorError::NoHost(v.0))?;
        if !host.up {
            return Err(OrchestratorError::HostDown(v.0));
        }
        let budget = ops.rule_retry.budget_ms;
        let mut elapsed = 0u64;
        for attempt in 1..=ops.rule_retry.max_attempts {
            elapsed += ops.timing.rule_install();
            if !ops.injector.rule_install_fails(v.0, attempt) {
                if elapsed > budget {
                    return Err(OrchestratorError::OperationTimedOut {
                        op: "rule-install",
                        budget_ms: budget,
                        elapsed_ms: elapsed,
                    });
                }
                return Ok(RuleInstallReport {
                    attempts: attempt,
                    latency_ms: elapsed,
                });
            }
            rec.counter("orchestrator.rule_install_failures", 1);
            elapsed += ops.rule_retry.backoff_ms(attempt, &mut ops.rng);
            if elapsed > budget {
                return Err(OrchestratorError::OperationTimedOut {
                    op: "rule-install",
                    budget_ms: budget,
                    elapsed_ms: elapsed,
                });
            }
            rec.counter("orchestrator.retries", 1);
        }
        Err(OrchestratorError::RuleInstallFailed {
            switch: v.0,
            attempts: ops.rule_retry.max_attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_topology::zoo;

    #[test]
    fn launch_commits_resources() {
        let topo = zoo::internet2();
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let before = orch.available(NodeId(2)).unwrap();
        let id = orch.launch(NodeId(2), NfType::Ids).unwrap();
        let after = orch.available(NodeId(2)).unwrap();
        assert_eq!(before.cores - after.cores, 8);
        assert_eq!(orch.instance(id).unwrap().host_switch(), 2);
        assert_eq!(orch.total_cores_used(), 8);
    }

    #[test]
    fn teardown_releases_resources() {
        let topo = zoo::internet2();
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let id = orch.launch(NodeId(0), NfType::Nat).unwrap();
        orch.teardown(id).unwrap();
        assert_eq!(orch.available(NodeId(0)).unwrap().cores, 64);
        assert_eq!(orch.instance_count(), 0);
        assert_eq!(
            orch.teardown(id),
            Err(OrchestratorError::UnknownInstance(id))
        );
    }

    #[test]
    fn capacity_enforced() {
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 8);
        // 8 cores fit two firewalls (4 each), not three.
        orch.launch(NodeId(0), NfType::Firewall).unwrap();
        orch.launch(NodeId(0), NfType::Firewall).unwrap();
        let err = orch.launch(NodeId(0), NfType::Firewall);
        assert!(matches!(
            err,
            Err(OrchestratorError::InsufficientResources { switch: 0, .. })
        ));
    }

    #[test]
    fn unknown_host_rejected() {
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 8);
        assert_eq!(
            orch.launch(NodeId(9), NfType::Nat),
            Err(OrchestratorError::NoHost(9))
        );
    }

    #[test]
    fn instances_at_filters() {
        let topo = zoo::line(3);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let a = orch.launch(NodeId(1), NfType::Firewall).unwrap();
        let _b = orch.launch(NodeId(1), NfType::Nat).unwrap();
        let c = orch.launch(NodeId(1), NfType::Firewall).unwrap();
        assert_eq!(orch.instances_at(NodeId(1), NfType::Firewall), vec![a, c]);
        assert!(orch.instances_at(NodeId(0), NfType::Firewall).is_empty());
    }

    #[test]
    fn ids_are_unique_and_monotone() {
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let a = orch.launch(NodeId(0), NfType::Nat).unwrap();
        let b = orch.launch(NodeId(1), NfType::Nat).unwrap();
        assert!(a < b);
    }

    #[test]
    fn error_display() {
        let e = OrchestratorError::NoHost(4);
        assert!(e.to_string().contains("switch 4"));
        let e = OrchestratorError::HostDown(7);
        assert!(e.to_string().contains("down"));
        let e = OrchestratorError::BootFailed {
            switch: 2,
            nf: NfType::Firewall,
            attempts: 5,
        };
        assert!(e.to_string().contains("5 attempts"));
        let e = OrchestratorError::OperationTimedOut {
            op: "launch",
            budget_ms: 100,
            elapsed_ms: 150,
        };
        assert!(e.to_string().contains("budget"));
    }

    #[test]
    fn double_release_reports_unknown_instance() {
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let id = orch.launch(NodeId(0), NfType::Proxy).unwrap();
        let before = orch.available(NodeId(0)).unwrap();
        orch.teardown(id).unwrap();
        // Second release must fail *and* leave accounting untouched.
        assert_eq!(
            orch.teardown(id),
            Err(OrchestratorError::UnknownInstance(id))
        );
        let after = orch.available(NodeId(0)).unwrap();
        assert_eq!(
            after.cores,
            before.cores + VnfSpec::of(NfType::Proxy).cores,
            "double release must not free resources twice"
        );
        assert_eq!(after.cores, 64);
    }

    #[test]
    fn release_of_never_launched_instance_is_unknown() {
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let ghost = InstanceId(12_345);
        assert_eq!(
            orch.teardown(ghost),
            Err(OrchestratorError::UnknownInstance(ghost))
        );
        assert_eq!(
            orch.crash_instance(ghost).unwrap_err(),
            OrchestratorError::UnknownInstance(ghost)
        );
    }

    #[test]
    fn launch_fail_retry_keeps_accounting_exact() {
        use apple_faults::FailFirstN;
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut ops = ControlOps::with_injector(5, Box::new(FailFirstN::new(3, 0)));
        let before = orch.available(NodeId(0)).unwrap();
        let report = orch
            .launch_with_retry(
                NodeId(0),
                NfType::Firewall,
                &mut ops,
                &apple_telemetry::NOOP,
            )
            .unwrap();
        assert_eq!(report.attempts, 4, "three failures then success");
        let after = orch.available(NodeId(0)).unwrap();
        // Exactly one instance's worth of cores committed, despite three
        // failed boots along the way.
        assert_eq!(
            before.cores - after.cores,
            VnfSpec::of(NfType::Firewall).cores
        );
        assert_eq!(orch.instance_count(), 1);
        assert!(report.latency_ms > 0);
    }

    #[test]
    fn launch_exhausting_attempts_commits_nothing() {
        use apple_faults::FailFirstN;
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        // Enough failures to exhaust either the attempt count or the
        // virtual-time budget, whichever the policy hits first.
        let mut ops = ControlOps::with_injector(6, Box::new(FailFirstN::new(u32::MAX, 0)));
        let err = orch
            .launch_with_retry(NodeId(0), NfType::Nat, &mut ops, &apple_telemetry::NOOP)
            .unwrap_err();
        assert!(
            matches!(
                err,
                OrchestratorError::BootFailed { .. } | OrchestratorError::OperationTimedOut { .. }
            ),
            "got {err:?}"
        );
        assert_eq!(orch.available(NodeId(0)).unwrap().cores, 64);
        assert_eq!(orch.instance_count(), 0);
        assert_eq!(orch.total_cores_used(), 0);
    }

    #[test]
    fn launch_retry_is_deterministic_per_seed() {
        let topo = zoo::line(2);
        let run = |seed: u64| {
            let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
            let inj = apple_faults::ScriptedInjector::new(seed, 0.5, 0.5, 1_000, 0.0);
            let mut ops = ControlOps::with_injector(seed, Box::new(inj));
            orch.launch_with_retry(
                NodeId(1),
                NfType::Firewall,
                &mut ops,
                &apple_telemetry::NOOP,
            )
        };
        assert_eq!(run(17), run(17));
    }

    #[test]
    fn failed_host_rejects_and_releases_everything() {
        let topo = zoo::line(3);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let a = orch.launch(NodeId(1), NfType::Firewall).unwrap();
        let b = orch.launch(NodeId(1), NfType::Nat).unwrap();
        let other = orch.launch(NodeId(2), NfType::Nat).unwrap();
        let dead = orch.fail_host(NodeId(1)).unwrap();
        assert_eq!(dead, vec![a, b]);
        assert!(!orch.host_is_up(NodeId(1)));
        assert_eq!(orch.available(NodeId(1)).unwrap(), ResourceVector::zero());
        assert_eq!(
            orch.launch(NodeId(1), NfType::Nat),
            Err(OrchestratorError::HostDown(1))
        );
        // A second failure of the same host is an error.
        assert_eq!(
            orch.fail_host(NodeId(1)),
            Err(OrchestratorError::HostDown(1))
        );
        // Unaffected hosts keep running.
        assert!(orch.instance(other).is_some());
        // Recovery brings the host back empty.
        orch.restore_host(NodeId(1)).unwrap();
        assert!(orch.host_is_up(NodeId(1)));
        assert_eq!(orch.available(NodeId(1)).unwrap().cores, 64);
        orch.launch(NodeId(1), NfType::Ids).unwrap();
    }

    #[test]
    fn crash_instance_releases_resources_once() {
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let id = orch.launch(NodeId(0), NfType::Ids).unwrap();
        let crashed = orch.crash_instance(id).unwrap();
        assert_eq!(crashed.nf(), NfType::Ids);
        assert_eq!(orch.available(NodeId(0)).unwrap().cores, 64);
        assert_eq!(
            orch.crash_instance(id).unwrap_err(),
            OrchestratorError::UnknownInstance(id)
        );
    }

    #[test]
    fn rule_install_retries_then_succeeds() {
        use apple_faults::FailFirstN;
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut ops = ControlOps::with_injector(8, Box::new(FailFirstN::new(0, 2)));
        let report = orch
            .rule_install_with_retry(NodeId(0), &mut ops, &apple_telemetry::NOOP)
            .unwrap();
        assert_eq!(report.attempts, 3);
        assert!(report.latency_ms >= 3 * 70);
        // Down hosts reject rule installs outright.
        orch.fail_host(NodeId(0)).unwrap();
        assert_eq!(
            orch.rule_install_with_retry(NodeId(0), &mut ops, &apple_telemetry::NOOP)
                .unwrap_err(),
            OrchestratorError::HostDown(0)
        );
    }

    #[test]
    fn rule_install_gives_up_deterministically() {
        use apple_faults::FailFirstN;
        let topo = zoo::line(2);
        let run = |seed: u64| {
            let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
            let mut ops = ControlOps::with_injector(seed, Box::new(FailFirstN::new(0, u32::MAX)));
            orch.rule_install_with_retry(NodeId(0), &mut ops, &apple_telemetry::NOOP)
        };
        let err = run(3).unwrap_err();
        assert!(
            matches!(
                err,
                OrchestratorError::RuleInstallFailed { .. }
                    | OrchestratorError::OperationTimedOut { .. }
            ),
            "got {err:?}"
        );
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn retry_telemetry_counters_accumulate() {
        use apple_faults::FailFirstN;
        use apple_telemetry::MemoryRecorder;
        let topo = zoo::line(2);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let rec = MemoryRecorder::new();
        let mut ops = ControlOps::with_injector(9, Box::new(FailFirstN::new(2, 1)));
        orch.launch_with_retry(NodeId(0), NfType::Firewall, &mut ops, &rec)
            .unwrap();
        orch.rule_install_with_retry(NodeId(0), &mut ops, &rec)
            .unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("orchestrator.boot_failures"), Some(2));
        assert_eq!(snap.counter("orchestrator.rule_install_failures"), Some(1));
        assert_eq!(snap.counter("orchestrator.retries"), Some(3));
    }
}
