//! Online placement for newly arriving classes — the extension the paper
//! defers ("Online algorithms are for our future research", §IV).
//!
//! When a new equivalence class appears between two runs of the global
//! Optimization Engine, APPLE should serve it immediately from residual
//! capacity. The placer solves the single-class problem optimally with a
//! small dynamic program over (chain stage, path position):
//!
//! * assigning a stage to a position costs **0** when an existing instance
//!   of the right NF at that switch has enough slack, **1** when a new
//!   instance must (and can) be launched, and **∞** otherwise;
//! * stage positions must be non-decreasing along the path (the Eq. (3)
//!   order constraint);
//! * the DP minimises the number of new instances, then earliest
//!   positions (deterministic tie-break).
//!
//! Launches during reconstruction can consume the resources a later stage
//! counted on; the placer retries with the conflicting cell forbidden, so
//! the final decision is always realisable.

use crate::classes::{
    ClassConfig, ClassId, ClassSet, DeltaKind, EquivalenceClass, IncrementalClasses,
};
use crate::engine::EngineConfig;
use crate::failover::{DynamicHandler, Replanner, ShareState};
use crate::orchestrator::{ControlOps, ResourceOrchestrator};
use crate::transition::{apply_transition_with, plan_transition_from_live};
use apple_nf::{InstanceId, VnfSpec};
use apple_telemetry::{Recorder, RecorderExt};
use apple_topology::{NodeId, Topology};
use apple_traffic::arrivals::{FlowEvent, FlowEventKind};
use std::collections::BTreeMap;
use std::fmt;

/// Errors from online placement.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// The class's rate exceeds one instance's capacity for some chain NF;
    /// jumbo classes need the global engine's fractional splitting.
    JumboClass {
        /// The NF whose capacity is exceeded.
        nf: apple_nf::NfType,
        /// The class rate in Mbps.
        rate_mbps: f64,
    },
    /// No feasible assignment exists on the class's path with current
    /// residual resources.
    NoCapacity,
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::JumboClass { nf, rate_mbps } => write!(
                f,
                "class rate {rate_mbps:.0} Mbps exceeds a single {nf} instance; use the global engine"
            ),
            OnlineError::NoCapacity => {
                write!(f, "no residual capacity on the class's path")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// The placement decision for one arriving class.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineDecision {
    /// Instance serving each chain stage, in order.
    pub stage_instances: Vec<InstanceId>,
    /// Instances newly launched for this class (subset of
    /// `stage_instances`).
    pub launched: Vec<InstanceId>,
    /// Path position of each stage (non-decreasing).
    pub stage_positions: Vec<usize>,
}

/// Incremental placer that tracks per-instance committed load.
///
/// # Example
///
/// ```
/// use apple_core::online::OnlinePlacer;
/// use apple_core::classes::{ClassId, EquivalenceClass};
/// use apple_core::orchestrator::ResourceOrchestrator;
/// use apple_core::policy::PolicyChain;
/// use apple_nf::NfType;
/// use apple_topology::{zoo, NodeId, Path};
/// use apple_traffic::Flow;
///
/// let topo = zoo::line(3);
/// let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
/// let mut placer = OnlinePlacer::new();
/// let class = EquivalenceClass {
///     id: ClassId(0),
///     path: Path::new(vec![NodeId(0), NodeId(1), NodeId(2)])?,
///     chain: PolicyChain::new(vec![NfType::Firewall])?,
///     rate_mbps: 100.0,
///     src_prefix: (Flow::prefix_of(NodeId(0)), 24),
///     dst_prefix: (Flow::prefix_of(NodeId(2)), 24),
///     proto: None,
///     dst_ports: Vec::new(),
/// };
/// let decision = placer.place_class(&class, &mut orch)?;
/// assert_eq!(decision.launched.len(), 1); // cold start: one new firewall
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct OnlinePlacer {
    loads: BTreeMap<InstanceId, f64>,
}

impl OnlinePlacer {
    /// Creates a placer with no committed load.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds the load tracker from an existing instance assignment (so the
    /// placer respects what the global engine already committed).
    pub fn from_assignment(assignment: &crate::rules::InstanceAssignment) -> Self {
        let mut loads = BTreeMap::new();
        let mut seen = std::collections::BTreeSet::new();
        for (_, &id) in assignment.entries() {
            seen.insert(id);
        }
        for id in seen {
            loads.insert(id, assignment.load_mbps(id));
        }
        OnlinePlacer { loads }
    }

    /// Committed load of an instance (Mbps).
    pub fn load_mbps(&self, id: InstanceId) -> f64 {
        self.loads.get(&id).copied().unwrap_or(0.0)
    }

    /// The full residual-capacity ledger: committed Mbps per instance.
    pub fn loads(&self) -> &BTreeMap<InstanceId, f64> {
        &self.loads
    }

    /// Adjusts an instance's committed load by `delta_mbps` (negative to
    /// release). The entry is clamped at zero and dropped entirely when it
    /// reaches zero, so the ledger never accumulates stale zero-load
    /// entries (the fuzz battery's leak check relies on this).
    pub fn adjust(&mut self, id: InstanceId, delta_mbps: f64) {
        let entry = self.loads.entry(id).or_insert(0.0);
        *entry = (*entry + delta_mbps).max(0.0);
        if *entry <= 1e-9 {
            self.loads.remove(&id);
        }
    }

    /// Drops an instance from the ledger entirely (teardown / crash).
    pub fn forget(&mut self, id: InstanceId) {
        self.loads.remove(&id);
    }

    /// Places one arriving class, launching instances through the
    /// orchestrator where needed and committing the class's load.
    ///
    /// # Errors
    ///
    /// [`OnlineError::JumboClass`] when the class exceeds a single
    /// instance's capacity, [`OnlineError::NoCapacity`] when the path has
    /// no feasible assignment.
    pub fn place_class(
        &mut self,
        class: &EquivalenceClass,
        orch: &mut ResourceOrchestrator,
    ) -> Result<OnlineDecision, OnlineError> {
        for &nf in class.chain.nfs() {
            let cap = VnfSpec::of(nf).capacity_mbps;
            if class.rate_mbps > cap {
                return Err(OnlineError::JumboClass {
                    nf,
                    rate_mbps: class.rate_mbps,
                });
            }
        }
        // Retry loop: launching may invalidate a later stage's plan; each
        // retry forbids the failed (stage, position) cell.
        let mut forbidden: std::collections::BTreeSet<(usize, usize)> = Default::default();
        for _attempt in 0..(class.path.len() * class.chain.len() + 1) {
            let Some(positions) = self.solve_dp(class, orch, &forbidden) else {
                return Err(OnlineError::NoCapacity);
            };
            match self.realise(class, orch, &positions) {
                Ok(decision) => return Ok(decision),
                Err(cell) => {
                    forbidden.insert(cell);
                }
            }
        }
        Err(OnlineError::NoCapacity)
    }

    /// DP over (stage, position); returns the chosen position per stage.
    fn solve_dp(
        &self,
        class: &EquivalenceClass,
        orch: &ResourceOrchestrator,
        forbidden: &std::collections::BTreeSet<(usize, usize)>,
    ) -> Option<Vec<usize>> {
        let plen = class.path.len();
        let clen = class.chain.len();
        const INF: u32 = u32::MAX / 2;
        // cost[j][i]: 0 reuse, 1 launch, INF impossible.
        let mut cell = vec![vec![INF; plen]; clen];
        for (j, &nf) in class.chain.nfs().iter().enumerate() {
            let spec = VnfSpec::of(nf);
            #[allow(clippy::needless_range_loop)] // index form mirrors the DP
            for i in 0..plen {
                if forbidden.contains(&(j, i)) {
                    continue;
                }
                let v = class.path.nodes()[i];
                let reusable = orch
                    .instances_at(v, nf)
                    .into_iter()
                    .any(|id| self.load_mbps(id) + class.rate_mbps <= spec.capacity_mbps + 1e-9);
                if reusable {
                    cell[j][i] = 0;
                } else if orch
                    .available(v)
                    .is_some_and(|a| spec.resources().fits_in(&a))
                {
                    cell[j][i] = 1;
                }
            }
        }
        // dp[j][i] = cell[j][i] + min over i' <= i of dp[j-1][i'].
        let mut dp = vec![vec![INF; plen]; clen];
        dp[0].clone_from_slice(&cell[0]);
        for j in 1..clen {
            let mut best_prev = INF;
            #[allow(clippy::needless_range_loop)] // index form mirrors the DP
            for i in 0..plen {
                best_prev = best_prev.min(dp[j - 1][i]);
                if cell[j][i] < INF && best_prev < INF {
                    dp[j][i] = cell[j][i] + best_prev;
                }
            }
        }
        // Reconstruct: earliest positions with minimal total cost.
        let total = *dp[clen - 1].iter().min()?;
        if total >= INF {
            return None;
        }
        let mut positions = vec![0usize; clen];
        let mut remaining = total;
        let mut upper = plen - 1;
        for j in (0..clen).rev() {
            // Find the earliest i <= upper achieving the remaining cost
            // with a feasible prefix.
            let mut chosen = None;
            #[allow(clippy::needless_range_loop)] // index form mirrors the DP
            for i in 0..=upper {
                let prefix_ok = if j == 0 {
                    cell[j][i] < INF
                } else {
                    (0..=i).any(|i2| dp[j - 1][i2] < INF)
                };
                if !prefix_ok || cell[j][i] >= INF {
                    continue;
                }
                let prev_min = if j == 0 {
                    0
                } else {
                    (0..=i).map(|i2| dp[j - 1][i2]).min().unwrap_or(INF)
                };
                if prev_min < INF && cell[j][i] + prev_min == remaining {
                    chosen = Some((i, prev_min));
                    break;
                }
            }
            let (i, prev_min) = chosen?;
            positions[j] = i;
            remaining = prev_min;
            upper = i;
        }
        Some(positions)
    }

    /// Executes a DP plan: reuses or launches per stage. On a launch
    /// failure returns the offending `(stage, position)` cell so the DP can
    /// be retried without it.
    fn realise(
        &mut self,
        class: &EquivalenceClass,
        orch: &mut ResourceOrchestrator,
        positions: &[usize],
    ) -> Result<OnlineDecision, (usize, usize)> {
        let mut stage_instances = Vec::with_capacity(positions.len());
        let mut launched = Vec::new();
        let mut committed: Vec<(InstanceId, f64)> = Vec::new();
        for (j, (&i, &nf)) in positions.iter().zip(class.chain.nfs()).enumerate() {
            let v = class.path.nodes()[i];
            let spec = VnfSpec::of(nf);
            let reuse = orch
                .instances_at(v, nf)
                .into_iter()
                .filter(|&id| self.load_mbps(id) + class.rate_mbps <= spec.capacity_mbps + 1e-9)
                .min_by(|&a, &b| {
                    self.load_mbps(a)
                        .partial_cmp(&self.load_mbps(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            let id = match reuse {
                Some(id) => id,
                None => match orch.launch(v, nf) {
                    Ok(id) => {
                        launched.push(id);
                        id
                    }
                    Err(_) => {
                        // Roll every commitment of this attempt back.
                        for (cid, load) in committed {
                            self.adjust(cid, -load);
                        }
                        for lid in launched {
                            let _ = orch.teardown(lid);
                        }
                        return Err((j, i));
                    }
                },
            };
            *self.loads.entry(id).or_insert(0.0) += class.rate_mbps;
            committed.push((id, class.rate_mbps));
            stage_instances.push(id);
        }
        Ok(OnlineDecision {
            stage_instances,
            launched,
            stage_positions: positions.to_vec(),
        })
    }
}

/// Identifies one online-managed class: the OD pair plus the index of its
/// forwarding path within the pair's (stable, cached) path list.
pub type LiveKey = ((NodeId, NodeId), usize);

/// A class the loop currently serves, with the DP decision serving it.
#[derive(Debug, Clone)]
pub struct LiveClass {
    /// The class at its current aggregate rate.
    pub class: EquivalenceClass,
    /// The placement decision (instance + position per chain stage).
    pub decision: OnlineDecision,
}

/// Configuration of the [`OrchestrationLoop`].
#[derive(Debug, Clone, Default)]
pub struct OnlineConfig {
    /// Class construction parameters. `max_classes` is ignored online:
    /// every live pair is either served or explicitly shed, never silently
    /// truncated.
    pub class_cfg: ClassConfig,
    /// Events between warm-started global re-solves (0 = never re-solve).
    pub resolve_every: u64,
    /// Maximum instance launches + teardowns one re-solve transition may
    /// perform; plans churning more are deferred to the next period
    /// (0 = unbounded).
    pub max_churn: u32,
    /// Engine configuration for the periodic global re-solve.
    pub engine: EngineConfig,
    /// Seed for control-plane retry jitter.
    pub seed: u64,
    /// Maintain an incrementally patched compiled rule program: each step
    /// that changes the serving state compiles the new snapshot, diffs it
    /// against the installed program, and applies only the delta (cost
    /// scales with churn, not topology size).
    pub compile_rules: bool,
    /// Route each sync's update plan through the asynchronous southbound
    /// channel instead of applying it synchronously: batches are enqueued
    /// per device, their ops draw seeded bounded latency and reordering,
    /// and the installed mirror only advances when a barrier is fully
    /// acked ([`StepReport::southbound_wait_ms`] bills the virtual wait).
    /// `None` (the default) keeps the synchronous apply.
    pub southbound: Option<apple_dataplane::southbound::SouthboundConfig>,
}

/// What one [`OrchestrationLoop::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepReport {
    /// Classes placed or re-placed through the DP.
    pub placed: u32,
    /// Instances launched.
    pub launched: u32,
    /// Instances retired (torn down after their load reached zero).
    pub retired: u32,
    /// Classes newly shed (placement failed).
    pub shed: u32,
    /// A global re-solve ran and the fleet was re-mapped — either after
    /// its make-before-break transition applied, or via the in-place
    /// re-pack fallback when the transition rolled back for lack of
    /// headroom ([`Self::resolve_repacked`] distinguishes the two).
    pub resolved: bool,
    /// A global re-solve ran but its transition exceeded the churn bound
    /// and was deferred.
    pub resolve_deferred: bool,
    /// The re-solve's transition rolled back and the period fell back to
    /// the in-place re-pack (implies [`Self::resolved`]).
    pub resolve_repacked: bool,
    /// Data-plane rule operations (installs + modifies + removes) the
    /// incremental compiler emitted for this step; 0 when the compiler is
    /// disabled or nothing rule-relevant changed.
    pub dataplane_ops: u64,
    /// Virtual milliseconds this step spent awaiting southbound barrier
    /// acks (enqueue of the step's update plan to the last barrier's
    /// ack); 0 on the synchronous path or when nothing changed.
    pub southbound_wait_ms: u64,
}

/// Whether the DP can serve the class at all: a class whose rate exceeds a
/// single instance's capacity for some chain NF needs the global engine's
/// fractional splitting, which the online serving model (whole class per
/// instance chain) cannot express.
fn is_jumbo(class: &EquivalenceClass) -> bool {
    class
        .chain
        .nfs()
        .iter()
        .any(|&nf| class.rate_mbps > VnfSpec::of(nf).capacity_mbps)
}

/// The scale-out online orchestration loop (the extension §IV defers).
///
/// Consumes a merged arrival/departure timeline
/// ([`apple_traffic::arrivals::EventTimeline`]) one event at a time:
///
/// * equivalence classes are maintained **incrementally**
///   ([`IncrementalClasses`] — only the event's OD pair is touched, never a
///   full rebuild),
/// * new classes are placed through the single-class DP
///   ([`OnlinePlacer`]) against the live residual-capacity ledger,
/// * rate changes re-rate in place when slack allows, else release and
///   re-place (falling back to explicit modelled overload rather than
///   dropping coverage),
/// * departures that empty a class release its load and retire instances
///   whose committed load reaches zero,
/// * classes the DP cannot serve are **shed** — recorded in an explicit
///   ledger so coverage accounting ([`crate::verify::verify_shares`])
///   stays exact,
/// * every `resolve_every` events a warm-started global re-solve
///   ([`Replanner`], reusing `lp::decompose::WarmCache`) re-shapes the
///   fleet via a make-before-break transition with bounded rule churn,
///   then re-maps every class onto the new fleet; when the transition
///   rolls back (no transient headroom on a saturated host) the period
///   degrades to an in-place re-pack of the existing fleet instead of
///   being skipped.
///
/// Telemetry: `online.events`, `online.placements`, `online.launches`,
/// `online.retired`, `online.shed_events`, `online.jumbo_classes`,
/// `online.overload`, `online.resolves`, `online.resolve_deferred`,
/// `online.resolve_failed`, `online.resolve_repack`,
/// `online.rules_installed`, the `online.resolve_churn` histogram and the
/// `online.step` span.
#[derive(Debug)]
pub struct OrchestrationLoop {
    pub(crate) cfg: OnlineConfig,
    pub(crate) inc: IncrementalClasses,
    pub(crate) placer: OnlinePlacer,
    pub(crate) orch: ResourceOrchestrator,
    pub(crate) replanner: Replanner,
    pub(crate) ops: ControlOps,
    pub(crate) live: BTreeMap<LiveKey, LiveClass>,
    pub(crate) rejected: BTreeMap<LiveKey, EquivalenceClass>,
    pub(crate) events_seen: u64,
    /// The incrementally patched installed program (None = compiler off).
    pub(crate) compiled: Option<apple_dataplane::compiler::RuleProgram>,
    /// The compiled fast-path mirror of [`Self::compiled`]: the same
    /// installed state lowered into per-switch LPM tries and exact-match
    /// tag tables ([`apple_dataplane::fastpath::CompiledProgram`]), patched
    /// per update-plan barrier through `rebuild_delta` so it is never
    /// rebuilt from scratch during churn.
    pub(crate) fastpath: Option<apple_dataplane::fastpath::CompiledProgram>,
    /// Persistent per-live-class data-plane tags. Lowest-unused allocation
    /// on placement, freed on departure: tags must survive unrelated churn
    /// (index-derived tags would shift on every removal and spuriously
    /// rewrite the whole program).
    pub(crate) tags: BTreeMap<LiveKey, u16>,
    /// The serving decision each tag was allocated for, as of the last
    /// sync: `(stage_positions, stage_instances)`. A live class whose
    /// decision moved is re-tagged (two-phase versioning, see
    /// [`Self::sync_tags`]).
    pub(crate) tag_decisions: BTreeMap<LiveKey, (Vec<usize>, Vec<InstanceId>)>,
    /// Whether the serving state changed since the last data-plane sync.
    pub(crate) dp_dirty: bool,
    /// Barrier observer: called after each update-plan batch is applied to
    /// the installed mirror (the journal's per-phase barrier commit hook).
    pub(crate) dp_observer: Option<Box<dyn DataplaneObserver>>,
    /// The asynchronous southbound channel, when configured: syncs become
    /// enqueue + await-barrier and the installed mirror advances only on
    /// acked barriers. The channel persists across steps so its virtual
    /// clock, barrier ids and reorder streams are continuous over a run.
    pub(crate) southbound: Option<apple_dataplane::southbound::SouthboundChannel>,
}

/// Observes data-plane barriers as `OrchestrationLoop::sync_dataplane`
/// applies an update plan batch by batch. The journaled controller
/// ([`crate::recovery`]) uses this to mirror each barrier onto the
/// external switch fabric and write a barrier commit record *after* the
/// batch took effect — so on recovery the fabric is known to be at most
/// one barrier ahead of the last journaled commit.
pub trait DataplaneObserver: fmt::Debug {
    /// Called after `batch` has been applied to the installed program.
    fn on_barrier(&mut self, batch: &apple_dataplane::diff::UpdateBatch);
}

impl OrchestrationLoop {
    /// Creates a loop over `topo` with hosts as configured in `orch`
    /// (typically `ResourceOrchestrator::with_uniform_hosts`).
    pub fn new(topo: &Topology, orch: ResourceOrchestrator, cfg: OnlineConfig) -> Self {
        let ops = ControlOps::reliable(cfg.seed);
        Self::with_ops(topo, orch, cfg, ops)
    }

    /// Creates a loop with explicit control-plane operations (fault
    /// injection for the chaos battery).
    pub fn with_ops(
        topo: &Topology,
        orch: ResourceOrchestrator,
        cfg: OnlineConfig,
        ops: ControlOps,
    ) -> Self {
        let compiled = cfg
            .compile_rules
            .then(apple_dataplane::compiler::RuleProgram::default);
        let fastpath = cfg
            .compile_rules
            .then(apple_dataplane::fastpath::CompiledProgram::default);
        let dp_dirty = compiled.is_some();
        let southbound = cfg
            .southbound
            .map(apple_dataplane::southbound::SouthboundChannel::new);
        OrchestrationLoop {
            inc: IncrementalClasses::new(topo, &cfg.class_cfg),
            placer: OnlinePlacer::new(),
            orch,
            replanner: Replanner::new(cfg.engine.clone()),
            ops,
            cfg,
            live: BTreeMap::new(),
            rejected: BTreeMap::new(),
            events_seen: 0,
            compiled,
            fastpath,
            tags: BTreeMap::new(),
            tag_decisions: BTreeMap::new(),
            dp_dirty,
            dp_observer: None,
            southbound,
        }
    }

    /// Installs (or clears) the data-plane barrier observer. Crate-private:
    /// only the journaled wrapper ([`crate::recovery::JournaledLoop`])
    /// threads one through.
    pub(crate) fn set_dp_observer(&mut self, obs: Option<Box<dyn DataplaneObserver>>) {
        self.dp_observer = obs;
    }

    /// Applies one timeline event and returns what changed.
    pub fn step(&mut self, event: &FlowEvent, rec: &dyn Recorder) -> StepReport {
        let _s = rec.span("online.step");
        rec.counter("online.events", 1);
        self.events_seen += 1;
        let mut report = StepReport::default();
        let delta = match event.kind {
            FlowEventKind::Arrival => self.inc.apply_arrival(event.flow_id, &event.flow),
            FlowEventKind::Departure => self.inc.apply_departure(event.flow_id, &event.flow),
        };
        match delta.kind {
            DeltaKind::Created => {
                for (idx, class) in self.inc.pair_classes(delta.pair).into_iter().enumerate() {
                    self.place_or_shed((delta.pair, idx), class, rec, &mut report);
                }
            }
            DeltaKind::Changed => self.rerate_pair(delta.pair, rec, &mut report),
            DeltaKind::Emptied => self.empty_pair(delta.pair, rec, &mut report),
        }
        if self.cfg.resolve_every > 0 && self.events_seen.is_multiple_of(self.cfg.resolve_every) {
            self.resolve(rec, &mut report);
        }
        if self.dp_dirty {
            self.dp_dirty = false;
            let (ops, wait_ms) = self.sync_dataplane(rec);
            report.dataplane_ops = ops;
            report.southbound_wait_ms = wait_ms;
        }
        report
    }

    /// Places a class or records it as shed.
    fn place_or_shed(
        &mut self,
        key: LiveKey,
        class: EquivalenceClass,
        rec: &dyn Recorder,
        report: &mut StepReport,
    ) {
        match self.placer.place_class(&class, &mut self.orch) {
            Ok(decision) => {
                rec.counter("online.placements", 1);
                rec.counter("online.launches", decision.launched.len() as u64);
                rec.counter(
                    "online.rules_installed",
                    crate::rules::online_rule_cost(&class, &decision.stage_positions) as u64,
                );
                report.placed += 1;
                report.launched += decision.launched.len() as u32;
                self.live.insert(key, LiveClass { class, decision });
                self.mark_dp_dirty();
            }
            Err(e) => {
                if matches!(e, OnlineError::JumboClass { .. }) {
                    rec.counter("online.jumbo_classes", 1);
                }
                rec.counter("online.shed_events", 1);
                report.shed += 1;
                self.rejected.insert(key, class);
                // The caller may have removed the key from `live` on the
                // way here (re-rate, crash); a sync is cheap when nothing
                // actually changed (empty diff).
                self.mark_dp_dirty();
            }
        }
    }

    /// Re-rates every class of a pair whose aggregate changed.
    fn rerate_pair(&mut self, pair: (NodeId, NodeId), rec: &dyn Recorder, report: &mut StepReport) {
        for (idx, class) in self.inc.pair_classes(pair).into_iter().enumerate() {
            let key = (pair, idx);
            if self.live.contains_key(&key) {
                self.rerate_live(key, class, rec, report);
            } else if self.rejected.contains_key(&key) {
                // Retry shed classes at their new rate (capacity may have
                // freed, or the class may have shrunk below jumbo).
                self.rejected.remove(&key);
                self.place_or_shed(key, class, rec, report);
            } else {
                self.place_or_shed(key, class, rec, report);
            }
        }
    }

    /// Re-rates one live class: adjust in place when every serving
    /// instance has slack, otherwise release and re-place; when even that
    /// fails, keep the old decision at the new rate (explicit modelled
    /// overload — coverage is preserved and `online.overload` counts it).
    fn rerate_live(
        &mut self,
        key: LiveKey,
        class: EquivalenceClass,
        rec: &dyn Recorder,
        report: &mut StepReport,
    ) {
        // The caller checked membership, but re-placement paths can recurse
        // through here; degrade to a fresh placement instead of panicking.
        let Some(lc) = self.live.get_mut(&key) else {
            self.place_or_shed(key, class, rec, report);
            return;
        };
        let old_rate = lc.class.rate_mbps;
        let delta = class.rate_mbps - old_rate;
        if delta <= 0.0 {
            for &id in &lc.decision.stage_instances {
                self.placer.adjust(id, delta);
            }
            lc.class = class;
            return;
        }
        // Growth: per-instance headroom check (an instance serving k
        // stages of this class carries k × delta extra).
        let mut occurrences: BTreeMap<InstanceId, (f64, u32)> = BTreeMap::new();
        for (&id, &nf) in lc.decision.stage_instances.iter().zip(lc.class.chain.nfs()) {
            let e = occurrences
                .entry(id)
                .or_insert((VnfSpec::of(nf).capacity_mbps, 0));
            e.0 = e.0.min(VnfSpec::of(nf).capacity_mbps);
            e.1 += 1;
        }
        let fits = occurrences.iter().all(|(&id, &(cap, occ))| {
            self.placer.load_mbps(id) + delta * f64::from(occ) <= cap + 1e-9
        });
        if fits {
            for &id in &lc.decision.stage_instances {
                self.placer.adjust(id, delta);
            }
            lc.class = class;
            return;
        }
        // No slack: release and re-place at the new rate.
        let Some(old) = self.live.remove(&key) else {
            self.place_or_shed(key, class, rec, report);
            return;
        };
        for &id in &old.decision.stage_instances {
            self.placer.adjust(id, -old_rate);
        }
        match self.placer.place_class(&class, &mut self.orch) {
            Ok(decision) => {
                rec.counter("online.placements", 1);
                rec.counter("online.launches", decision.launched.len() as u64);
                rec.counter(
                    "online.rules_installed",
                    crate::rules::online_rule_cost(&class, &decision.stage_positions) as u64,
                );
                report.placed += 1;
                report.launched += decision.launched.len() as u32;
                // Old instances the new decision no longer uses may now be
                // idle.
                let keep: std::collections::BTreeSet<_> =
                    decision.stage_instances.iter().copied().collect();
                let candidates: Vec<InstanceId> = old
                    .decision
                    .stage_instances
                    .iter()
                    .copied()
                    .filter(|id| !keep.contains(id))
                    .collect();
                self.live.insert(key, LiveClass { class, decision });
                self.retire_idle(&candidates, rec, report);
            }
            Err(_) => {
                // Re-commit the old decision at the new rate: the class
                // stays fully covered, the overload is explicit.
                rec.counter("online.overload", 1);
                for &id in &old.decision.stage_instances {
                    self.placer.adjust(id, class.rate_mbps);
                }
                self.live.insert(
                    key,
                    LiveClass {
                        class,
                        decision: old.decision,
                    },
                );
            }
        }
    }

    /// Handles a pair whose last flow departed: release and retire.
    fn empty_pair(&mut self, pair: (NodeId, NodeId), rec: &dyn Recorder, report: &mut StepReport) {
        let keys: Vec<LiveKey> = self
            .live
            .keys()
            .chain(self.rejected.keys())
            .filter(|(p, _)| *p == pair)
            .copied()
            .collect();
        for key in keys {
            if let Some(lc) = self.live.remove(&key) {
                for &id in &lc.decision.stage_instances {
                    self.placer.adjust(id, -lc.class.rate_mbps);
                }
                self.retire_idle(&lc.decision.stage_instances, rec, report);
                self.mark_dp_dirty();
            }
            self.rejected.remove(&key);
        }
    }

    /// Tears down candidate instances whose committed load reached zero.
    fn retire_idle(
        &mut self,
        candidates: &[InstanceId],
        rec: &dyn Recorder,
        report: &mut StepReport,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        for &id in candidates {
            if !seen.insert(id) {
                continue;
            }
            if self.placer.load_mbps(id) <= 1e-9 && self.orch.instance(id).is_some() {
                let _ = self.orch.teardown(id);
                self.placer.forget(id);
                rec.counter("online.retired", 1);
                report.retired += 1;
            }
        }
    }

    /// Runs the periodic warm-started global re-solve and, when the plan's
    /// churn is within bounds, applies it make-before-break and re-maps
    /// every class onto the re-shaped fleet.
    fn resolve(&mut self, rec: &dyn Recorder, report: &mut StepReport) {
        rec.counter("online.resolves", 1);
        // Jumbo classes are excluded: the engine could split them
        // fractionally, but the online serving model cannot express the
        // split, so they would bounce straight back to shed.
        let input: Vec<EquivalenceClass> = self
            .live
            .values()
            .map(|l| l.class.clone())
            .chain(self.rejected.values().cloned())
            .filter(|c| !is_jumbo(c))
            .collect();
        if input.is_empty() {
            return;
        }
        let no_trunc = ClassConfig {
            max_classes: 0,
            ..self.cfg.class_cfg.clone()
        };
        let set = ClassSet::finalise(input, &no_trunc);
        let planned = match self.replanner.replan_recorded(&set, &self.orch, rec) {
            Ok(r) => r,
            Err(_) => {
                rec.counter("online.resolve_failed", 1);
                return;
            }
        };
        let plan = plan_transition_from_live(&self.orch, &planned.placement, &mut self.ops.timing);
        let churn = plan.launch_count() + plan.teardown_count();
        rec.observe("online.resolve_churn", f64::from(churn));
        if self.cfg.max_churn > 0 && churn > self.cfg.max_churn {
            rec.counter("online.resolve_deferred", 1);
            report.resolve_deferred = true;
            return;
        }
        match apply_transition_with(&plan, &mut self.orch, &mut self.ops, rec) {
            Ok(tr) => {
                rec.counter("online.rules_installed", tr.rules_installed.len() as u64);
            }
            Err(_) => {
                // Typed rollback already restored the old fleet. A fleet-
                // scale make-before-break is impossible when a hub host is
                // saturated (its old and new instances cannot coexist), so
                // instead of skipping the period we fall through to the
                // re-map sweep below against the *existing* fleet: resetting
                // the ledger and re-packing heaviest-first reuses live
                // instances at cost 0, launches on demand only where the DP
                // finds room, and `gc_idle` then retires whatever the
                // re-pack stranded. That converges the instance count
                // without needing transient headroom.
                rec.counter("online.resolve_failed", 1);
                rec.counter("online.resolve_repack", 1);
                report.resolve_repacked = true;
            }
        }
        // Re-map every class (heaviest first) onto the new fleet; the DP
        // reuses engine-placed instances at cost 0, so launches here are
        // rare. Classes that no longer fit are shed explicitly.
        let live_old = std::mem::take(&mut self.live);
        let rejected_old = std::mem::take(&mut self.rejected);
        let mut all: Vec<(LiveKey, EquivalenceClass)> = live_old
            .into_iter()
            .map(|(k, l)| (k, l.class))
            .chain(rejected_old)
            .collect();
        all.sort_by(|a, b| ClassSet::canonical_cmp(&a.1, &b.1));
        self.placer = OnlinePlacer::new();
        for (key, class) in all {
            self.place_or_shed(key, class, rec, report);
        }
        self.gc_idle(rec, report);
        report.resolved = true;
    }

    /// Tears down every instance carrying no committed load (used after
    /// re-solves and crashes; keeps fleet == serving set).
    fn gc_idle(&mut self, rec: &dyn Recorder, report: &mut StepReport) {
        let idle: Vec<InstanceId> = self
            .orch
            .instances()
            .map(|i| i.id())
            .filter(|&id| self.placer.load_mbps(id) <= 1e-9)
            .collect();
        for id in idle {
            let _ = self.orch.teardown(id);
            self.placer.forget(id);
            rec.counter("online.retired", 1);
            report.retired += 1;
        }
    }

    /// Crashes an instance mid-churn: the orchestrator frees its
    /// resources, affected classes are re-placed (or shed when no capacity
    /// remains), and the ledger stays truthful. Returns the number of
    /// affected classes, or 0 when the instance is unknown.
    pub fn handle_instance_crash(&mut self, id: InstanceId, rec: &dyn Recorder) -> usize {
        if self.orch.crash_instance(id).is_err() {
            return 0;
        }
        rec.counter("online.instance_crashes", 1);
        self.placer.forget(id);
        // The instance is gone even if no live class referenced it, so the
        // hosts-in-use set (host-match rules) may have changed.
        self.mark_dp_dirty();
        let affected: Vec<LiveKey> = self
            .live
            .iter()
            .filter(|(_, lc)| lc.decision.stage_instances.contains(&id))
            .map(|(&k, _)| k)
            .collect();
        let mut report = StepReport::default();
        for key in &affected {
            let Some(lc) = self.live.remove(key) else {
                continue;
            };
            let mut survivors = Vec::new();
            for &sid in &lc.decision.stage_instances {
                if sid != id {
                    self.placer.adjust(sid, -lc.class.rate_mbps);
                    survivors.push(sid);
                }
            }
            self.place_or_shed(*key, lc.class, rec, &mut report);
            self.retire_idle(&survivors, rec, &mut report);
        }
        // Crashes are out-of-band (not a timeline step), so sync here: the
        // failover path must install its repair delta immediately.
        if self.dp_dirty {
            self.dp_dirty = false;
            self.sync_dataplane(rec);
        }
        affected.len()
    }

    /// Flags the installed program as stale; no-op when the compiler is
    /// disabled.
    fn mark_dp_dirty(&mut self) {
        if self.compiled.is_some() {
            self.dp_dirty = true;
        }
    }

    /// Turns the data-plane compiler on mid-run (the config flag does the
    /// same at construction). The first sync after this installs the full
    /// program as one delta from empty.
    pub fn enable_dataplane_compiler(&mut self) {
        if self.compiled.is_none() {
            self.compiled = Some(apple_dataplane::compiler::RuleProgram::default());
            self.fastpath = Some(apple_dataplane::fastpath::CompiledProgram::default());
            self.dp_dirty = true;
        }
    }

    /// The incrementally maintained installed rule program, when the
    /// compiler is enabled. Reflects the state as of the last completed
    /// step (syncs run at step end).
    pub fn dataplane_program(&self) -> Option<&apple_dataplane::compiler::RuleProgram> {
        self.compiled.as_ref()
    }

    /// The compiled fast-path mirror of [`Self::dataplane_program`], when
    /// the compiler is enabled. Kept in lock-step with the installed
    /// program by patching it per barrier during the data-plane
    /// sync — callers get switch-rate lookups
    /// ([`apple_dataplane::walk::WalkEngine`]) without ever paying a full
    /// recompile.
    pub fn dataplane_fastpath(&self) -> Option<&apple_dataplane::fastpath::CompiledProgram> {
        self.fastpath.as_ref()
    }

    /// The compiler snapshot of the current serving state, when the
    /// compiler is enabled. Tags are computed through the same pure
    /// allocator the sync uses, so this is safe to call even between a
    /// state change and the step-end sync (a live key without a persisted
    /// tag gets the tag the next sync would assign it).
    pub fn dataplane_snapshot(&self) -> Option<apple_dataplane::compiler::CompilerSnapshot> {
        self.compiled.as_ref()?;
        let effective = Self::allocate_tags(&self.live, &self.tags, &self.tag_decisions);
        Some(self.build_dataplane_snapshot(&effective))
    }

    /// Frees dead tags and allocates lowest-unused tags for new live keys,
    /// with two safeguards that together give per-packet consistency
    /// through every update plan (the conformance battery's "no transient
    /// chain bypass" tier):
    ///
    /// * **Two-phase versioning** — a live class whose serving decision
    ///   (stage positions or instances) moved since its tag was allocated
    ///   is *re-tagged*. Its old rules drain under the old tag while the
    ///   new rules install under the new one, so a packet is classified
    ///   into exactly one complete configuration — never a per-hop mix
    ///   that could skip a stage or exit early.
    /// * **Tag quarantine** — tags still present in the installed program
    ///   (including ones just freed or retired by a re-tag) are not
    ///   reallocated this sync: while the plan drains the old rules, an
    ///   equal fresh tag would steer newly classified packets into them.
    ///   Quarantined tags become reusable at the next sync, once the old
    ///   rules are gone.
    fn sync_tags(&mut self) {
        self.tags = Self::allocate_tags(&self.live, &self.tags, &self.tag_decisions);
        self.tag_decisions = self
            .live
            .iter()
            .map(|(k, lc)| {
                (
                    *k,
                    (
                        lc.decision.stage_positions.clone(),
                        lc.decision.stage_instances.clone(),
                    ),
                )
            })
            .collect();
    }

    /// The pure tag-allocation function behind [`Self::sync_tags`]: given
    /// the live set and the previous sync's `(tags, tag_decisions)`,
    /// returns the tag map the next sync will install. Keeping this pure
    /// lets [`Self::dataplane_snapshot`] predict the post-sync snapshot
    /// without mutating state.
    pub(crate) fn allocate_tags(
        live: &BTreeMap<LiveKey, LiveClass>,
        tags: &BTreeMap<LiveKey, u16>,
        tag_decisions: &BTreeMap<LiveKey, (Vec<usize>, Vec<InstanceId>)>,
    ) -> BTreeMap<LiveKey, u16> {
        let quarantined: std::collections::BTreeSet<u16> = tags.values().copied().collect();
        let mut next: BTreeMap<LiveKey, u16> = tags
            .iter()
            .filter(|(k, _)| {
                live.get(*k).is_some_and(|lc| {
                    tag_decisions.get(*k).is_some_and(|(pos, inst)| {
                        *pos == lc.decision.stage_positions && *inst == lc.decision.stage_instances
                    })
                })
            })
            .map(|(&k, &t)| (k, t))
            .collect();
        let mut used = quarantined;
        used.extend(next.values().copied());
        let missing: Vec<LiveKey> = live
            .keys()
            .filter(|k| !next.contains_key(*k))
            .copied()
            .collect();
        for key in missing {
            let mut t = 0u16;
            while used.contains(&t) {
                t += 1;
            }
            used.insert(t);
            next.insert(key, t);
        }
        next
    }

    /// Lowers the live serving state into a compiler snapshot. Every live
    /// class is one sub-class (the online model serves whole classes) with
    /// a globally unique tag, so rewriting chains can match tag-only (§X)
    /// without a separate allocation walk.
    pub(crate) fn build_dataplane_snapshot(
        &self,
        tags: &BTreeMap<LiveKey, u16>,
    ) -> apple_dataplane::compiler::CompilerSnapshot {
        use apple_dataplane::compiler::{CompilerSnapshot, SubclassSpec};

        let mut rewriters: Vec<InstanceId> = Vec::new();
        let mut subclasses = Vec::with_capacity(self.live.len());
        for (key, lc) in &self.live {
            // `tags` comes from `allocate_tags`, which covers every live
            // key by construction; an absent key would mean the maps were
            // built from different live sets, so skip rather than panic.
            let Some(&tag) = tags.get(key) else {
                debug_assert!(false, "tag map misses live key {key:?}");
                continue;
            };
            let nfs = lc.class.chain.nfs();
            let global = nfs.iter().any(|&nf| VnfSpec::of(nf).rewrites_headers());
            for (&inst, &nf) in lc.decision.stage_instances.iter().zip(nfs) {
                if VnfSpec::of(nf).rewrites_headers() {
                    rewriters.push(inst);
                }
            }
            subclasses.push(SubclassSpec {
                class: u64::from(tag),
                class_name: format!("c{tag}"),
                sub: 0,
                tag,
                global,
                path: lc.class.path.iter().map(|n| n.0).collect(),
                src_prefix: lc.class.src_prefix,
                dst_prefix: lc.class.dst_prefix,
                proto: lc.class.proto,
                dst_ports: lc.class.dst_ports.clone(),
                prefixes: vec![lc.class.src_prefix],
                stage_positions: lc.decision.stage_positions.clone(),
                stage_nfs: nfs.to_vec(),
                instances: lc.decision.stage_instances.clone(),
            });
        }
        rewriters.sort_unstable();
        rewriters.dedup();
        CompilerSnapshot {
            switches: self.orch.hosts().keys().copied().collect(),
            hosts: self.orch.hosts_in_use().into_iter().collect(),
            rewriters,
            subclasses,
            compress: true,
        }
    }

    /// Compiles the current snapshot, diffs it against the installed
    /// program and applies the delta in place. Returns the rule operations
    /// billed and the virtual southbound wait (0 on the synchronous
    /// path). Telemetry: `dataplane.sync` span, `dataplane.plans` /
    /// `dataplane.rule_ops` counters, `dataplane.program_rules` gauge;
    /// with the southbound channel also `southbound.barriers`,
    /// `southbound.retries` counters and the `southbound.barrier_wait_ms`
    /// histogram.
    fn sync_dataplane(&mut self, rec: &dyn Recorder) -> (u64, u64) {
        if self.compiled.is_none() {
            return (0, 0);
        }
        let _s = rec.span("dataplane.sync");
        {
            let _t = rec.span("dataplane.sync.tags");
            self.sync_tags();
        }
        let target = {
            let _l = rec.span("dataplane.sync.lower");
            let snap = self.build_dataplane_snapshot(&self.tags);
            apple_dataplane::compiler::compile_recorded(&snap, rec)
        };
        let Some(installed) = self.compiled.as_mut() else {
            return (0, 0); // unreachable: compiler presence checked above
        };
        let plan = {
            let _d = rec.span("dataplane.sync.diff");
            apple_dataplane::diff::diff_recorded(installed, &target, rec)
        };
        let mut wait_ms = 0u64;
        if let Some(chan) = self.southbound.as_mut() {
            // Async path: enqueue the whole plan, then await each
            // barrier's ack — the installed mirror, the fast path and the
            // observer all advance only when a barrier's acked set equals
            // its op set. The fault-free channel cannot fail, so the ops
            // bill matches the synchronous path bitwise.
            let submitted = chan.now_ms();
            {
                let _sb = rec.span("dataplane.sync.southbound");
                chan.submit_plan(&plan);
            }
            let mut last_ack = submitted;
            while chan.pending() > 0 {
                let events = {
                    let _sb = rec.span("dataplane.sync.southbound");
                    chan.advance(3_600_000)
                        .expect("fault-free southbound channel cannot fail")
                };
                for ev in events {
                    let apple_dataplane::southbound::SouthboundEvent::Barrier(done) = ev else {
                        continue;
                    };
                    {
                        let _a = rec.span("dataplane.sync.apply");
                        apple_dataplane::diff::apply_batch_unchecked(installed, &done.batch);
                    }
                    if let Some(fp) = self.fastpath.as_mut() {
                        let _f = rec.span("dataplane.sync.fastpath");
                        fp.rebuild_delta(&done.batch);
                    }
                    if let Some(obs) = self.dp_observer.as_mut() {
                        let _o = rec.span("dataplane.sync.observer");
                        obs.on_barrier(&done.batch);
                    }
                    last_ack = done.completed_ms;
                    rec.counter("southbound.barriers", 1);
                    rec.counter("southbound.retries", done.retries);
                    rec.observe("southbound.barrier_wait_ms", done.wait_ms() as f64);
                }
            }
            wait_ms = last_ack.saturating_sub(submitted);
        } else {
            // Apply barrier by barrier so the observer sees each batch
            // commit in order (the uncapped path is infallible — no
            // phantom error).
            for batch in plan.batches() {
                {
                    let _a = rec.span("dataplane.sync.apply");
                    apple_dataplane::diff::apply_batch_unchecked(installed, batch);
                }
                if let Some(fp) = self.fastpath.as_mut() {
                    let _f = rec.span("dataplane.sync.fastpath");
                    fp.rebuild_delta(batch);
                }
                if let Some(obs) = self.dp_observer.as_mut() {
                    let _o = rec.span("dataplane.sync.observer");
                    obs.on_barrier(batch);
                }
            }
        }
        let stats = plan.stats();
        debug_assert_eq!(
            *installed, target,
            "incremental patch must reproduce the full compile"
        );
        debug_assert_eq!(
            self.fastpath,
            Some(apple_dataplane::fastpath::CompiledProgram::new(installed)),
            "delta-patched fast path must equal a fresh compile of the installed program"
        );
        rec.counter("dataplane.plans", 1);
        rec.counter("dataplane.rule_ops", stats.total() as u64);
        rec.gauge("dataplane.program_rules", target.rule_count() as f64);
        (stats.total() as u64, wait_ms)
    }

    /// Verifies the residual-capacity ledger against orchestrator truth:
    /// every ledger entry maps to a live orchestrator instance, per-
    /// instance committed load equals the sum of live class rates mapped
    /// there (1e-6 tolerance), no stale zero-load entries survive, and
    /// every orchestrator instance is accounted for.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation found.
    pub fn check_ledger(&self) -> Result<(), String> {
        let mut expected: BTreeMap<InstanceId, f64> = BTreeMap::new();
        for lc in self.live.values() {
            for &id in &lc.decision.stage_instances {
                *expected.entry(id).or_insert(0.0) += lc.class.rate_mbps;
            }
        }
        for (&id, &load) in self.placer.loads() {
            if self.orch.instance(id).is_none() {
                return Err(format!("ledger entry {id} has no orchestrator instance"));
            }
            if load <= 1e-9 {
                return Err(format!("ledger leaked zero-load entry {id}"));
            }
            let want = expected.get(&id).copied().unwrap_or(0.0);
            if (load - want).abs() > 1e-6 {
                return Err(format!(
                    "ledger drift at {id}: committed {load} vs live truth {want}"
                ));
            }
        }
        for (&id, &want) in &expected {
            if want > 1e-9 && !self.placer.loads().contains_key(&id) {
                return Err(format!(
                    "instance {id} serves {want} Mbps but has no ledger entry"
                ));
            }
        }
        for inst in self.orch.instances() {
            if !self.placer.loads().contains_key(&inst.id()) {
                return Err(format!(
                    "orchestrator instance {} carries no committed load",
                    inst.id()
                ));
            }
        }
        Ok(())
    }

    /// Builds the verification view: the canonical dense [`ClassSet`] over
    /// live ∪ shed classes plus a [`DynamicHandler`] with one full-fraction
    /// share per live class and a shed ledger entry (fraction 1.0) per
    /// rejected class — exactly what
    /// [`crate::verify::verify_shares`] consumes.
    pub fn snapshot(&self) -> (ClassSet, DynamicHandler) {
        let mut entries: Vec<(EquivalenceClass, Option<&OnlineDecision>)> = self
            .live
            .values()
            .map(|l| (l.class.clone(), Some(&l.decision)))
            .chain(self.rejected.values().map(|c| (c.clone(), None)))
            .collect();
        entries.sort_by(|a, b| ClassSet::canonical_cmp(&a.0, &b.0));
        let mut classes = Vec::with_capacity(entries.len());
        let mut shares = Vec::new();
        let mut shed = BTreeMap::new();
        for (i, (mut c, d)) in entries.into_iter().enumerate() {
            c.id = ClassId(i);
            match d {
                Some(d) => shares.push(ShareState {
                    class: ClassId(i),
                    sub: 0,
                    fraction: 1.0,
                    baseline: 1.0,
                    instances: d.stage_instances.clone(),
                }),
                None => {
                    shed.insert(ClassId(i), 1.0);
                }
            }
            classes.push(c);
        }
        (
            ClassSet::from_classes(classes),
            DynamicHandler::from_online(shares, shed),
        )
    }

    /// The incremental class aggregate (for parity checks).
    pub fn incremental(&self) -> &IncrementalClasses {
        &self.inc
    }

    /// The live orchestrator.
    pub fn orchestrator(&self) -> &ResourceOrchestrator {
        &self.orch
    }

    /// The residual-capacity ledger.
    pub fn placer(&self) -> &OnlinePlacer {
        &self.placer
    }

    /// Classes currently served.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Classes currently shed.
    pub fn shed_count(&self) -> usize {
        self.rejected.len()
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_seen
    }

    /// Instances currently running.
    pub fn instance_count(&self) -> usize {
        self.orch.instance_count()
    }

    /// Total rate of live (served) classes in Mbps.
    pub fn total_live_rate_mbps(&self) -> f64 {
        self.live.values().map(|l| l.class.rate_mbps).sum()
    }

    /// Total rate of shed classes in Mbps.
    pub fn total_shed_rate_mbps(&self) -> f64 {
        self.rejected.values().map(|c| c.rate_mbps).sum()
    }

    /// Global re-solves performed so far.
    pub fn resolves(&self) -> u64 {
        self.replanner.replans()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassConfig, ClassId, ClassSet};
    use crate::policy::PolicyChain;
    use apple_nf::NfType;
    use apple_topology::{zoo, NodeId, Path};
    use apple_traffic::{Flow, GravityModel};

    fn class_on_line(rate: f64, chain: Vec<NfType>) -> EquivalenceClass {
        EquivalenceClass {
            id: ClassId(0),
            path: Path::new(vec![NodeId(0), NodeId(1), NodeId(2)]).unwrap(),
            chain: PolicyChain::new(chain).unwrap(),
            rate_mbps: rate,
            src_prefix: (Flow::prefix_of(NodeId(0)), 24),
            dst_prefix: (Flow::prefix_of(NodeId(2)), 24),
            proto: None,
            dst_ports: Vec::new(),
        }
    }

    #[test]
    fn cold_start_launches_one_per_stage() {
        let topo = zoo::line(3);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut placer = OnlinePlacer::new();
        let class = class_on_line(100.0, vec![NfType::Firewall, NfType::Ids]);
        let d = placer.place_class(&class, &mut orch).unwrap();
        assert_eq!(d.stage_instances.len(), 2);
        assert_eq!(d.launched.len(), 2);
        assert!(d.stage_positions.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn second_class_reuses_slack() {
        let topo = zoo::line(3);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut placer = OnlinePlacer::new();
        let class = class_on_line(100.0, vec![NfType::Firewall]);
        let first = placer.place_class(&class, &mut orch).unwrap();
        let second = placer.place_class(&class, &mut orch).unwrap();
        assert!(
            second.launched.is_empty(),
            "should reuse the slack instance"
        );
        assert_eq!(second.stage_instances, first.stage_instances);
        assert_eq!(placer.load_mbps(first.stage_instances[0]), 200.0);
    }

    #[test]
    fn capacity_exhaustion_launches_fresh() {
        let topo = zoo::line(3);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut placer = OnlinePlacer::new();
        // 900 Mbps firewalls: two 500 Mbps classes cannot share.
        let class = class_on_line(500.0, vec![NfType::Firewall]);
        let a = placer.place_class(&class, &mut orch).unwrap();
        let b = placer.place_class(&class, &mut orch).unwrap();
        assert_eq!(b.launched.len(), 1);
        assert_ne!(a.stage_instances, b.stage_instances);
    }

    #[test]
    fn jumbo_class_rejected() {
        let topo = zoo::line(3);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut placer = OnlinePlacer::new();
        let class = class_on_line(2_000.0, vec![NfType::Firewall]);
        assert!(matches!(
            placer.place_class(&class, &mut orch),
            Err(OnlineError::JumboClass { .. })
        ));
    }

    #[test]
    fn no_capacity_surfaces() {
        // 2-core hosts cannot run anything but NAT; an IDS chain fails.
        let topo = zoo::line(3);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 2);
        let mut placer = OnlinePlacer::new();
        let class = class_on_line(100.0, vec![NfType::Ids]);
        assert_eq!(
            placer.place_class(&class, &mut orch),
            Err(OnlineError::NoCapacity)
        );
    }

    #[test]
    fn order_constraint_respected_under_reuse() {
        // An existing IDS at position 0 and firewall at position 2 must NOT
        // be combined for chain FW -> IDS (IDS would come first); the placer
        // must launch to keep order.
        let topo = zoo::line(3);
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let ids0 = orch.launch(NodeId(0), NfType::Ids).unwrap();
        let fw2 = orch.launch(NodeId(2), NfType::Firewall).unwrap();
        let mut placer = OnlinePlacer::new();
        let class = class_on_line(100.0, vec![NfType::Firewall, NfType::Ids]);
        let d = placer.place_class(&class, &mut orch).unwrap();
        assert!(d.stage_positions[0] <= d.stage_positions[1]);
        let uses_bad_combo = d.stage_instances == vec![fw2, ids0];
        assert!(!uses_bad_combo, "order violated by reuse");
    }

    fn drain_timeline(resolve_every: u64, rec: &dyn Recorder) -> OrchestrationLoop {
        use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};
        let topo = zoo::internet2();
        let pairs: Vec<(NodeId, NodeId)> = (0..4)
            .flat_map(|s| (4..7).map(move |d| (NodeId(s), NodeId(d))))
            .collect();
        let cfg = ArrivalConfig {
            arrival_rate: 1.0,
            mean_duration_secs: 10.0,
            mean_rate_mbps: 20.0,
            seed: 0x9e37_0417,
        };
        let timeline = EventTimeline::generate(&pairs, &cfg, 30.0);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut looper = OrchestrationLoop::new(
            &topo,
            orch,
            OnlineConfig {
                resolve_every,
                ..Default::default()
            },
        );
        for e in timeline.events() {
            looper.step(e, rec);
            looper.check_ledger().expect("ledger truthful after step");
        }
        looper
    }

    #[test]
    fn loop_serves_and_drains() {
        let looper = drain_timeline(0, &apple_telemetry::NOOP);
        assert!(looper.events_processed() > 0);
        assert_eq!(looper.live_count(), 0, "timeline drained");
        assert_eq!(looper.shed_count(), 0);
        assert_eq!(looper.instance_count(), 0, "all instances retired");
        assert!(looper.placer().loads().is_empty());
    }

    #[test]
    fn loop_resolves_periodically() {
        let looper = drain_timeline(20, &apple_telemetry::NOOP);
        assert!(looper.resolves() > 0, "re-solves must have run");
        assert_eq!(looper.live_count(), 0);
        assert_eq!(looper.instance_count(), 0);
    }

    #[test]
    fn default_config_resolves_hit_the_warm_cache() {
        // Twelve pairs stay live across the re-solves; with no engine option
        // set, the loop's Replanner answers their blocks from its cache.
        let rec = apple_telemetry::MemoryRecorder::new();
        drain_timeline(20, &rec);
        let hits = rec.snapshot().counter("failover.replan_warm_hits");
        assert!(hits > Some(0), "warm hits {hits:?}");
    }

    #[test]
    fn loop_snapshot_verifies_clean() {
        use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};
        let topo = zoo::internet2();
        let pairs = vec![(NodeId(0), NodeId(5)), (NodeId(2), NodeId(6))];
        let timeline = EventTimeline::generate(&pairs, &ArrivalConfig::default(), 40.0);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut looper = OrchestrationLoop::new(&topo, orch, OnlineConfig::default());
        for e in timeline.events() {
            looper.step(e, &apple_telemetry::NOOP);
            let (classes, handler) = looper.snapshot();
            let violations =
                crate::verify::verify_shares(&classes, &handler, looper.orchestrator(), 1e-6);
            assert!(violations.is_empty(), "verify_shares: {violations:?}");
        }
    }

    #[test]
    fn crash_during_churn_keeps_ledger_truthful() {
        use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};
        let topo = zoo::internet2();
        let pairs = vec![(NodeId(1), NodeId(4)), (NodeId(3), NodeId(7))];
        let timeline = EventTimeline::generate(&pairs, &ArrivalConfig::default(), 40.0);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut looper = OrchestrationLoop::new(&topo, orch, OnlineConfig::default());
        let mut crashed = false;
        for (n, e) in timeline.events().iter().enumerate() {
            looper.step(e, &apple_telemetry::NOOP);
            if n == timeline.len() / 2 {
                if let Some(id) = looper.placer().loads().keys().next().copied() {
                    looper.handle_instance_crash(id, &apple_telemetry::NOOP);
                    crashed = true;
                }
            }
            looper.check_ledger().expect("ledger truthful after step");
        }
        assert!(crashed, "expected a live instance to crash mid-run");
        assert_eq!(looper.live_count(), 0);
    }

    /// The incrementally patched program must equal a fresh full compile
    /// of the snapshot after every single step (the step-end sync also
    /// debug-asserts this internally), and a drained timeline must leave
    /// an empty program.
    #[test]
    fn compiled_mirror_tracks_every_step() {
        use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};
        let topo = zoo::internet2();
        let pairs = vec![(NodeId(0), NodeId(5)), (NodeId(2), NodeId(6))];
        let timeline = EventTimeline::generate(&pairs, &ArrivalConfig::default(), 40.0);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut looper = OrchestrationLoop::new(
            &topo,
            orch,
            OnlineConfig {
                compile_rules: true,
                resolve_every: 15,
                ..Default::default()
            },
        );
        let mut total_ops = 0u64;
        let mut crashed = false;
        for (n, e) in timeline.events().iter().enumerate() {
            let report = looper.step(e, &apple_telemetry::NOOP);
            total_ops += report.dataplane_ops;
            if n == timeline.len() / 2 {
                if let Some(id) = looper.placer().loads().keys().next().copied() {
                    looper.handle_instance_crash(id, &apple_telemetry::NOOP);
                    crashed = true;
                }
            }
            let snap = looper.dataplane_snapshot().expect("compiler enabled");
            let full = apple_dataplane::compiler::compile(&snap);
            assert_eq!(
                looper.dataplane_program(),
                Some(&full),
                "installed program diverged from full compile at event {n}"
            );
        }
        assert!(crashed, "expected a crash mid-run");
        assert!(total_ops > 0, "rule deltas must have been billed");
        assert_eq!(looper.live_count(), 0);
        let final_prog = looper.dataplane_program().unwrap();
        assert!(final_prog.hosts.is_empty(), "drained fleet has no hosts");
        assert_eq!(
            final_prog.billable_rules(),
            0,
            "only pass-by defaults remain"
        );
    }

    /// Enqueue + await-barrier must land the installed mirror bitwise on
    /// the synchronous path's program after every event, while billing a
    /// nonzero virtual barrier wait whenever rule ops shipped.
    #[test]
    fn southbound_mode_matches_synchronous_path_bitwise() {
        use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};
        let topo = zoo::internet2();
        let pairs = vec![(NodeId(0), NodeId(5)), (NodeId(2), NodeId(6))];
        let timeline = EventTimeline::generate(&pairs, &ArrivalConfig::default(), 40.0);
        let cfg = OnlineConfig {
            compile_rules: true,
            resolve_every: 15,
            ..Default::default()
        };
        let async_cfg = OnlineConfig {
            southbound: Some(apple_dataplane::southbound::SouthboundConfig::paper(0x5b)),
            ..cfg.clone()
        };
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut sync_loop = OrchestrationLoop::new(&topo, orch, cfg);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut async_loop = OrchestrationLoop::new(&topo, orch, async_cfg);
        let mut waited = 0u64;
        for (n, e) in timeline.events().iter().enumerate() {
            let sync_report = sync_loop.step(e, &apple_telemetry::NOOP);
            let async_report = async_loop.step(e, &apple_telemetry::NOOP);
            assert_eq!(
                sync_report.dataplane_ops, async_report.dataplane_ops,
                "ops bill diverged at event {n}"
            );
            assert_eq!(sync_report.southbound_wait_ms, 0);
            if async_report.dataplane_ops > 0 {
                assert!(
                    async_report.southbound_wait_ms > 0,
                    "rule ops shipped with no barrier wait at event {n}"
                );
            }
            waited += async_report.southbound_wait_ms;
            assert_eq!(
                sync_loop.dataplane_program(),
                async_loop.dataplane_program(),
                "installed programs diverged at event {n}"
            );
        }
        assert!(waited > 0, "the run must have waited on some barrier");
        assert_eq!(async_loop.live_count(), 0);
    }

    #[test]
    fn seeded_from_global_assignment() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(1_500.0, 51).base_matrix(&topo);
        let classes = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 8,
                ..Default::default()
            },
        );
        let mut orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let placement = crate::engine::OptimizationEngine::new(Default::default())
            .place(&classes, &orch)
            .unwrap();
        let plan = crate::subclass::SubclassPlan::derive(
            &classes,
            &placement,
            crate::subclass::SplitStrategy::PrefixSplit,
        );
        let prog = crate::rules::generate(&topo, &classes, &plan, &placement, &mut orch).unwrap();
        let placer = OnlinePlacer::from_assignment(&prog.assignment);
        // Loads seeded: at least one instance carries load.
        let any_loaded = prog
            .assignment
            .entries()
            .any(|(_, &id)| placer.load_mbps(id) > 0.0);
        assert!(any_loaded);
    }
}
