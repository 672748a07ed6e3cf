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
use crate::transition::{apply_transition, plan_transition_from_live};
use apple_dataplane::compiler::{CompilerSnapshot, RuleProgram, SubclassSpec};
use apple_dataplane::diff::{DiffScope, UpdateBatch, UpdatePlan};
use apple_dataplane::fastpath::CompiledProgram;
use apple_dataplane::southbound::{SouthboundChannel, SouthboundConfig};
use apple_nf::{InstanceId, NfType, VnfSpec};
use apple_telemetry::{Recorder, RecorderExt};
use apple_topology::{NodeId, Topology};
use apple_traffic::arrivals::{FlowEvent, FlowEventKind};
use std::collections::{BTreeMap, BTreeSet};
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

/// The live classes. Reads go through `Deref`; every write goes through a
/// method that records the key it wrote, so the data-plane sync learns
/// which classes an event touched from the table itself rather than from
/// each call site remembering to say so.
#[derive(Debug, Default)]
pub(crate) struct LiveTable {
    map: BTreeMap<LiveKey, LiveClass>,
    touched: BTreeSet<LiveKey>,
}

impl std::ops::Deref for LiveTable {
    type Target = BTreeMap<LiveKey, LiveClass>;

    fn deref(&self) -> &Self::Target {
        &self.map
    }
}

impl LiveTable {
    pub(crate) fn insert(&mut self, key: LiveKey, lc: LiveClass) {
        self.touched.insert(key);
        self.map.insert(key, lc);
    }

    fn remove(&mut self, key: &LiveKey) -> Option<LiveClass> {
        let lc = self.map.remove(key)?;
        self.touched.insert(*key);
        Some(lc)
    }

    /// Empties the table (every key it held is touched).
    fn take(&mut self) -> BTreeMap<LiveKey, LiveClass> {
        self.touched.extend(self.map.keys().copied());
        std::mem::take(&mut self.map)
    }

    /// Moves a live class to its new aggregate rate. Not recorded: the
    /// rate is the one class field the compiler does not lower.
    fn rerate(&mut self, key: &LiveKey, class: EquivalenceClass) {
        let lc = self.map.get_mut(key).expect("re-rated class is live");
        debug_assert_eq!(
            EquivalenceClass {
                rate_mbps: class.rate_mbps,
                ..lc.class.clone()
            },
            class,
            "a re-rate changes the rate only"
        );
        lc.class = class;
    }
}

/// What the data plane holds for the live classes: the [`SubclassSpec`]
/// last lowered for each key, the devices each spec put rules on, and the
/// tags in use. The sync compares a touched key's fresh spec against this
/// to find the devices to re-lower.
#[derive(Debug, Default)]
pub(crate) struct Lowered {
    specs: BTreeMap<LiveKey, SubclassSpec>,
    /// Keys whose classification rules sit on each ingress switch.
    by_ingress: BTreeMap<usize, BTreeSet<LiveKey>>,
    /// Keys with a chain stage on each host.
    by_host: BTreeMap<usize, BTreeSet<LiveKey>>,
    /// Tags below `next_tag` that no lowered spec carries.
    free_tags: BTreeSet<u16>,
    /// One past the highest tag ever handed out.
    next_tag: u16,
}

impl Lowered {
    /// The spec last lowered per live key, in snapshot (key) order.
    pub(crate) fn specs(&self) -> &BTreeMap<LiveKey, SubclassSpec> {
        &self.specs
    }

    /// Swaps the spec lowered for `key` (`None` = the class is gone) and
    /// returns the previous one.
    fn replace(&mut self, key: LiveKey, new: Option<SubclassSpec>) -> Option<SubclassSpec> {
        let old = self.specs.remove(&key);
        if let Some(old) = &old {
            unindex(&mut self.by_ingress, old.ingress(), &key);
            for v in old.stage_hosts() {
                unindex(&mut self.by_host, v, &key);
            }
        }
        if let Some(new) = new {
            self.by_ingress
                .entry(new.ingress())
                .or_default()
                .insert(key);
            for v in new.stage_hosts() {
                self.by_host.entry(v).or_default().insert(key);
            }
            self.specs.insert(key, new);
        }
        old
    }

    /// The specs classified at `switch`, in key (snapshot) order.
    fn ingress_specs(&self, switch: usize) -> impl Iterator<Item = &SubclassSpec> {
        self.indexed(&self.by_ingress, switch)
    }

    /// The specs with a stage at `host`, in key (snapshot) order.
    fn host_specs(&self, host: usize) -> impl Iterator<Item = &SubclassSpec> {
        self.indexed(&self.by_host, host)
    }

    fn indexed<'a>(
        &'a self,
        index: &'a BTreeMap<usize, BTreeSet<LiveKey>>,
        device: usize,
    ) -> impl Iterator<Item = &'a SubclassSpec> {
        let keys = index.get(&device).into_iter().flatten();
        keys.map(|key| &self.specs[key])
    }

    /// The lowest tag no spec carries. Tags released during a sync only
    /// come back through [`Self::release_tags`] at its end, so a sync never
    /// hands out a tag that was installed when it began.
    fn take_lowest_tag(&mut self) -> u16 {
        self.free_tags.pop_first().unwrap_or_else(|| {
            let tag = self.next_tag;
            self.next_tag = tag.checked_add(1).expect("fewer than 65 536 live classes");
            tag
        })
    }

    fn release_tags(&mut self, tags: impl IntoIterator<Item = u16>) {
        self.free_tags.extend(tags);
    }

    /// Re-derives the free-tag pool from the specs (after a restore).
    fn rebuild_tag_pool(&mut self) {
        let used: BTreeSet<u16> = self.specs.values().map(|s| s.tag).collect();
        self.next_tag = used.last().map_or(0, |&t| t + 1);
        self.free_tags = (0..self.next_tag).filter(|t| !used.contains(t)).collect();
    }
}

fn unindex(index: &mut BTreeMap<usize, BTreeSet<LiveKey>>, device: usize, key: &LiveKey) {
    if let Some(keys) = index.get_mut(&device) {
        keys.remove(key);
        if keys.is_empty() {
            index.remove(&device);
        }
    }
}

/// Lowers one live class into the compiler's sub-class form. Every live
/// class is one sub-class (the online model serves whole classes) with a
/// globally unique tag, so rewriting chains can match tag-only (§X)
/// without a separate allocation walk.
fn spec_of(lc: &LiveClass, tag: u16) -> SubclassSpec {
    let nfs = lc.class.chain.nfs();
    SubclassSpec {
        class: u64::from(tag),
        class_name: format!("c{tag}"),
        sub: 0,
        tag,
        global: nfs.iter().any(|&nf| VnfSpec::of(nf).rewrites_headers()),
        path: lc.class.path.iter().map(|n| n.0).collect(),
        src_prefix: lc.class.src_prefix,
        dst_prefix: lc.class.dst_prefix,
        proto: lc.class.proto,
        dst_ports: lc.class.dst_ports.clone(),
        prefixes: vec![lc.class.src_prefix],
        stage_positions: lc.decision.stage_positions.clone(),
        stage_nfs: nfs.to_vec(),
        instances: lc.decision.stage_instances.clone(),
    }
}

/// The header-rewriting instances (§X source NAT) a spec steers through.
fn rewriters_of(spec: &SubclassSpec) -> impl Iterator<Item = InstanceId> + '_ {
    spec.instances
        .iter()
        .zip(&spec.stage_nfs)
        .filter(|(_, &nf)| VnfSpec::of(nf).rewrites_headers())
        .map(|(&inst, _)| inst)
}

/// Whether `spec` steers through exactly the decision `lc` is served by —
/// the condition for a live class to keep its tag across a sync.
fn same_decision(spec: &SubclassSpec, lc: &LiveClass) -> bool {
    spec.stage_positions == lc.decision.stage_positions
        && spec.instances == lc.decision.stage_instances
}

/// The Optimization Engine's answer to one periodic re-solve, reduced to
/// what the loop applies of it. A re-solve uses the engine's placement
/// only through its per-(switch, NF) instance counts: the churn bound, the
/// make-before-break transition (and its rollback), the heaviest-first
/// re-map and the idle sweep are pure functions of those counts, the live
/// state and the control ops. So this answer is all a journal needs to
/// redo a re-solve without running the engine again
/// ([`crate::recovery::Record::Resolve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveAnswer {
    /// The engine found no placement; the period changes nothing.
    Failed,
    /// The placement's instance counts, as
    /// [`crate::engine::Placement::q_entries`] lists them.
    Fleet(Vec<(NodeId, NfType, u32)>),
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
    /// Seed for control-plane retry jitter.
    pub seed: u64,
    /// Ignored: every loop maintains its incrementally patched rule
    /// program. Kept only so existing configurations still build.
    pub compile_rules: bool,
    /// Timing of the southbound channel every sync's update plan goes
    /// through: batches are enqueued per device, their ops draw seeded
    /// bounded latency and reordering, and the installed mirror only
    /// advances when a barrier is fully acked
    /// ([`StepReport::southbound_wait_ms`] bills the virtual wait). `None`
    /// (the default) is [`SouthboundConfig::instant`] seeded with
    /// [`Self::seed`]: the same barriers, acked in plan order with no wait.
    pub southbound: Option<SouthboundConfig>,
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
    /// incremental compiler emitted for this step; 0 when nothing
    /// rule-relevant changed.
    pub dataplane_ops: u64,
    /// Virtual milliseconds this step spent awaiting southbound barrier
    /// acks (enqueue of the step's update plan to the last barrier's
    /// ack); 0 on the instant channel or when nothing changed.
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
/// The loop has no durability or fabric side effects: a sync's barriers
/// stay readable through [`Self::committed`], and
/// [`crate::recovery::JournaledLoop`] journals and mirrors them.
///
/// Telemetry: `online.events`, `online.placements`, `online.launches`,
/// `online.retired`, `online.shed_events`, `online.jumbo_classes`,
/// `online.overload`, `online.resolves`, `online.resolve_deferred`,
/// `online.resolve_failed` (the engine found no placement),
/// `online.resolve_rollback` (the transition rolled back),
/// `online.resolve_repack` (the re-pack that follows a rollback),
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
    pub(crate) live: LiveTable,
    pub(crate) rejected: BTreeMap<LiveKey, EquivalenceClass>,
    pub(crate) events_seen: u64,
    /// The incrementally patched installed program.
    pub(crate) compiled: RuleProgram,
    /// The compiled fast-path mirror of [`Self::compiled`]: the same
    /// installed state lowered into per-switch LPM tries and exact-match
    /// tag tables ([`apple_dataplane::fastpath::CompiledProgram`]), patched
    /// per update-plan barrier through `rebuild_delta` so it is never
    /// rebuilt from scratch during churn.
    pub(crate) fastpath: CompiledProgram,
    /// The sub-class spec [`Self::compiled`] holds for each live class as
    /// of the last sync, persistent tag included. Lowest-unused allocation
    /// on placement, freed on departure: tags must survive unrelated churn
    /// (index-derived tags would shift on every removal and spuriously
    /// rewrite the whole program). A live class whose decision moved since
    /// is re-tagged (two-phase versioning, see [`Self::allocate_tags`]).
    pub(crate) lowered: Lowered,
    /// The barriers the last step or instance crash committed, in commit
    /// order (see [`Self::committed`]).
    committed: UpdatePlan,
    /// The engine answer the last step's re-solve applied (see
    /// [`Self::resolve_answer`]).
    resolve_answer: Option<ResolveAnswer>,
    /// Re-solves answered with a fleet (see [`Self::resolves`]).
    resolves: u64,
    /// The southbound channel: syncs are enqueue + await-barrier and the
    /// installed mirror advances only on acked barriers. The channel
    /// persists across steps so its virtual clock, barrier ids and reorder
    /// streams are continuous over a run.
    pub(crate) southbound: SouthboundChannel,
}

/// Commits one acked barrier: the installed mirror, then the fast path.
fn commit_barrier(
    installed: &mut RuleProgram,
    fastpath: &mut CompiledProgram,
    batch: &UpdateBatch,
    rec: &dyn Recorder,
) {
    {
        let _a = rec.span("dataplane.sync.apply");
        apple_dataplane::diff::apply_batch_unchecked(installed, batch);
    }
    let _f = rec.span("dataplane.sync.fastpath");
    fastpath.rebuild_delta(batch);
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
        let timing = cfg
            .southbound
            .unwrap_or_else(|| SouthboundConfig::instant(cfg.seed));
        OrchestrationLoop {
            inc: IncrementalClasses::new(topo, &cfg.class_cfg),
            placer: OnlinePlacer::new(),
            orch,
            replanner: Replanner::new(EngineConfig::default()),
            ops,
            cfg,
            live: LiveTable::default(),
            rejected: BTreeMap::new(),
            events_seen: 0,
            compiled: RuleProgram::default(),
            fastpath: CompiledProgram::default(),
            lowered: Lowered::default(),
            committed: UpdatePlan::default(),
            resolve_answer: None,
            resolves: 0,
            southbound: SouthboundChannel::new(timing),
        }
    }

    /// The barriers the last [`Self::step`] or
    /// [`Self::handle_instance_crash`] committed to the installed program,
    /// in commit order, which is plan order. Empty after any
    /// such call that synced nothing. The journaled wrapper
    /// ([`crate::recovery::JournaledLoop`]) journals each one and mirrors it
    /// onto the switch fabric after the call returns.
    pub fn committed(&self) -> &UpdatePlan {
        &self.committed
    }

    /// The engine answer the last [`Self::step`] re-solved with: `Some`
    /// only when that step's periodic re-solve reached the engine (it had
    /// classes to place), whether the engine ran or a journaled answer
    /// stood in for it. The journaled wrapper
    /// ([`crate::recovery::JournaledLoop`]) logs it after the step returns,
    /// so that recovery can redo the re-solve without solving.
    pub fn resolve_answer(&self) -> Option<&ResolveAnswer> {
        self.resolve_answer.as_ref()
    }

    /// Applies one timeline event and returns what changed.
    pub fn step(&mut self, event: &FlowEvent, rec: &dyn Recorder) -> StepReport {
        self.step_with(event, None, rec)
    }

    /// [`Self::step`], with the engine's answer to this step's re-solve
    /// given instead of computed when `logged` is `Some` (journal redo).
    /// Everything after the engine runs as in a live step.
    pub(crate) fn step_with(
        &mut self,
        event: &FlowEvent,
        logged: Option<ResolveAnswer>,
        rec: &dyn Recorder,
    ) -> StepReport {
        let _s = rec.span("online.step");
        rec.counter("online.events", 1);
        self.committed = UpdatePlan::default();
        self.resolve_answer = None;
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
            self.resolve(logged, rec, &mut report);
        }
        (report.dataplane_ops, report.southbound_wait_ms) = self.sync_dataplane(rec);
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
            }
            Err(e) => {
                if matches!(e, OnlineError::JumboClass { .. }) {
                    rec.counter("online.jumbo_classes", 1);
                }
                rec.counter("online.shed_events", 1);
                report.shed += 1;
                self.rejected.insert(key, class);
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
        let Some(lc) = self.live.get(&key) else {
            self.place_or_shed(key, class, rec, report);
            return;
        };
        let old_rate = lc.class.rate_mbps;
        let delta = class.rate_mbps - old_rate;
        if delta <= 0.0 {
            for &id in &lc.decision.stage_instances {
                self.placer.adjust(id, delta);
            }
            self.live.rerate(&key, class);
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
            self.live.rerate(&key, class);
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
    /// every class onto the re-shaped fleet. A `logged` answer stands in
    /// for the engine.
    fn resolve(
        &mut self,
        logged: Option<ResolveAnswer>,
        rec: &dyn Recorder,
        report: &mut StepReport,
    ) {
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
        let answer = logged.unwrap_or_else(|| {
            let no_trunc = ClassConfig {
                max_classes: 0,
                ..self.cfg.class_cfg.clone()
            };
            let set = ClassSet::finalise(input, &no_trunc);
            match self.replanner.replan_recorded(&set, &self.orch, rec) {
                Ok(r) => ResolveAnswer::Fleet(r.placement.q_entries().collect()),
                Err(_) => ResolveAnswer::Failed,
            }
        });
        let ResolveAnswer::Fleet(fleet) = self.resolve_answer.insert(answer) else {
            rec.counter("online.resolve_failed", 1);
            return;
        };
        self.resolves += 1;
        let plan =
            plan_transition_from_live(&self.orch, fleet.iter().copied(), &mut self.ops.timing);
        let churn = plan.launch_count() + plan.teardown_count();
        rec.observe("online.resolve_churn", f64::from(churn));
        if self.cfg.max_churn > 0 && churn > self.cfg.max_churn {
            rec.counter("online.resolve_deferred", 1);
            report.resolve_deferred = true;
            return;
        }
        match apply_transition(&plan, &mut self.orch, &mut self.ops, rec) {
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
                rec.counter("online.resolve_rollback", 1);
                rec.counter("online.resolve_repack", 1);
                report.resolve_repacked = true;
            }
        }
        // Re-map every class (heaviest first) onto the new fleet; the DP
        // reuses engine-placed instances at cost 0, so launches here are
        // rare. Classes that no longer fit are shed explicitly.
        let live_old = self.live.take();
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
        self.committed = UpdatePlan::default();
        if self.orch.crash_instance(id).is_err() {
            return 0;
        }
        rec.counter("online.instance_crashes", 1);
        self.placer.forget(id);
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
        self.sync_dataplane(rec);
        affected.len()
    }

    /// The incrementally maintained installed rule program. Reflects the
    /// state as of the last completed step (syncs run at step end).
    pub fn dataplane_program(&self) -> &RuleProgram {
        &self.compiled
    }

    /// The compiled fast-path mirror of [`Self::dataplane_program`]. Kept
    /// in lock-step with the installed program by patching it per barrier
    /// during the data-plane sync — callers get switch-rate lookups
    /// ([`apple_dataplane::walk::WalkEngine`]) without ever paying a full
    /// recompile.
    pub fn dataplane_fastpath(&self) -> &CompiledProgram {
        &self.fastpath
    }

    /// The compiler snapshot of the whole current serving state (always
    /// `Some`; the `Option` is kept for existing callers) — what
    /// [`apple_dataplane::compiler::compile`]
    /// turns into the program the step-end sync leaves installed. The loop
    /// itself never builds it outside debug assertions; journal recovery,
    /// tests and the benchmark's correctness gate do. Tags are computed
    /// through the pure allocator the sync is held to, so this is safe to
    /// call even between a state change and the step-end sync (a live key
    /// without a persisted tag gets the tag the next sync would assign it).
    pub fn dataplane_snapshot(&self) -> Option<CompilerSnapshot> {
        Some(self.serving_snapshot())
    }

    /// [`Self::dataplane_snapshot`] without the `Option`.
    pub(crate) fn serving_snapshot(&self) -> CompilerSnapshot {
        let tags = Self::allocate_tags(&self.live, self.lowered.specs());
        let specs = self.live.iter().map(|(key, lc)| spec_of(lc, tags[key]));
        self.snapshot_of(specs.collect())
    }

    /// Wraps sub-class specs (in live-key order) into a snapshot of the
    /// current fleet.
    pub(crate) fn snapshot_of(&self, subclasses: Vec<SubclassSpec>) -> CompilerSnapshot {
        let mut rewriters: Vec<InstanceId> = subclasses.iter().flat_map(rewriters_of).collect();
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

    /// The tag map a sync must leave behind, as a pure function of the live
    /// set and the specs the previous sync lowered: dead tags are freed and
    /// new live keys get the lowest unused tag, with two safeguards that
    /// together give per-packet consistency through every update plan (the
    /// conformance battery's "no transient chain bypass" tier):
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
    ///
    /// [`Self::sync_dataplane`] reaches the same map by re-tagging only the
    /// keys an event touched; this whole-state form is its oracle and lets
    /// [`Self::dataplane_snapshot`] predict the post-sync snapshot without
    /// mutating state.
    pub(crate) fn allocate_tags(
        live: &BTreeMap<LiveKey, LiveClass>,
        lowered: &BTreeMap<LiveKey, SubclassSpec>,
    ) -> BTreeMap<LiveKey, u16> {
        let mut used: BTreeSet<u16> = lowered.values().map(|s| s.tag).collect();
        let mut next: BTreeMap<LiveKey, u16> = lowered
            .iter()
            .filter(|(k, spec)| live.get(*k).is_some_and(|lc| same_decision(spec, lc)))
            .map(|(&k, spec)| (k, spec.tag))
            .collect();
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

    /// Whether the installed program is behind the serving state: a key
    /// was written, or the scaffold no longer matches the hosts in use
    /// (always so before the first sync). False between steps — every step
    /// ends in a sync — except before the first one.
    pub(crate) fn sync_pending(&self) -> bool {
        !self.live.touched.is_empty()
            || !self
                .stale_scaffold(&self.compiled, &self.orch.hosts_in_use())
                .is_empty()
    }

    /// The switches whose hosts-in-use bit is not the installed one (or
    /// that have no table yet) and the hosts that appeared or vanished.
    fn stale_scaffold(&self, installed: &RuleProgram, in_use: &BTreeSet<usize>) -> DiffScope {
        let mut scope = DiffScope::default();
        for &sw in self.orch.hosts().keys() {
            if installed.switches.get(&sw).map(|s| s.has_host) != Some(in_use.contains(&sw)) {
                scope.switches.insert(sw);
            }
        }
        scope.hosts.extend(
            in_use
                .iter()
                .filter(|h| !installed.hosts.contains_key(h))
                .chain(installed.hosts.keys().filter(|h| !in_use.contains(h))),
        );
        scope
    }

    /// Re-establishes what a snapshot taken at a sync point recorded as
    /// installed: the spec lowered for each live key (its tag, and the
    /// decision it was lowered for), the program those specs compile to and
    /// its fast-path mirror. A key stays pending only where the snapshot's
    /// decision is not the one serving the class now.
    pub(crate) fn restore_dataplane(
        &mut self,
        tags: &BTreeMap<LiveKey, u16>,
        decisions: BTreeMap<LiveKey, (Vec<usize>, Vec<InstanceId>)>,
    ) {
        for (key, (stage_positions, instances)) in decisions {
            let (Some(lc), Some(&tag)) = (self.live.get(&key), tags.get(&key)) else {
                continue;
            };
            let spec = SubclassSpec {
                stage_positions,
                instances,
                ..spec_of(lc, tag)
            };
            self.lowered.replace(key, Some(spec));
        }
        self.lowered.rebuild_tag_pool();
        let snap = self.snapshot_of(self.lowered.specs().values().cloned().collect());
        let prog = apple_dataplane::compiler::compile(&snap);
        self.fastpath = CompiledProgram::new(&prog);
        self.compiled = prog;
        let lowered = self.lowered.specs();
        self.live.touched = (self.live.map.iter())
            .filter(|(key, lc)| !lowered.get(key).is_some_and(|spec| same_decision(spec, lc)))
            .map(|(&key, _)| key)
            .collect();
    }

    /// Brings the installed program up to the serving state at the cost of
    /// what changed since the last sync: re-tags the live keys that were
    /// written (bitwise what [`Self::allocate_tags`] yields on the whole
    /// state), re-lowers only the devices their old or new specs put rules
    /// on plus the switches whose hosts-in-use bit flipped, diffs those
    /// devices against the installed program and ships the delta through
    /// the southbound channel, committing each barrier to the installed
    /// program and its fast-path mirror as it acks. Does nothing when
    /// nothing changed. Returns the rule operations billed and the virtual
    /// southbound wait (0 on the instant channel), and leaves the plan in
    /// [`Self::committed`].
    /// Telemetry: `dataplane.sync` span with children
    /// `dataplane.sync.{tags,lower,diff,southbound}` and, nested in
    /// `dataplane.sync.southbound`, `dataplane.sync.{apply,fastpath}` (the
    /// channel's own share is southbound minus both);
    /// `dataplane.compile` / `dataplane.diff` spans,
    /// `dataplane.rules_compiled` (rules actually lowered),
    /// `dataplane.plans` / `dataplane.rule_ops` /
    /// `southbound.barriers` / `southbound.retries` counters,
    /// `dataplane.program_rules` gauge and the
    /// `southbound.barrier_wait_ms` histogram.
    fn sync_dataplane(&mut self, rec: &dyn Recorder) -> (u64, u64) {
        let touched = std::mem::take(&mut self.live.touched);
        let in_use = self.orch.hosts_in_use();
        let mut scope = self.stale_scaffold(&self.compiled, &in_use);
        if touched.is_empty() && scope.is_empty() {
            return (0, 0);
        }
        let _s = rec.span("dataplane.sync");
        let oracle =
            cfg!(debug_assertions).then(|| Self::allocate_tags(&self.live, self.lowered.specs()));

        // Touched keys in key order: keep the tag while the decision
        // stands, else take the lowest tag not installed when this sync
        // began (released tags return to the pool only below).
        let mut tags: Vec<(LiveKey, Option<u16>)> = Vec::with_capacity(touched.len());
        {
            let _t = rec.span("dataplane.sync.tags");
            let mut released = Vec::new();
            for key in touched {
                let (old, lc) = (self.lowered.specs().get(&key), self.live.get(&key));
                let kept = old
                    .zip(lc)
                    .filter(|(spec, lc)| same_decision(spec, lc))
                    .map(|(spec, _)| spec.tag);
                if kept.is_none() {
                    released.extend(old.map(|spec| spec.tag));
                }
                let tag = lc.map(|_| kept.unwrap_or_else(|| self.lowered.take_lowest_tag()));
                tags.push((key, tag));
            }
            self.lowered.release_tags(released);
        }

        let target = {
            let _l = rec.span("dataplane.sync.lower");
            for (key, tag) in tags {
                let new = tag.map(|tag| spec_of(&self.live[&key], tag));
                if self.lowered.specs().get(&key) == new.as_ref() {
                    continue;
                }
                let old = self.lowered.replace(key, new);
                for spec in old.iter().chain(self.lowered.specs().get(&key)) {
                    scope.switches.insert(spec.ingress());
                    scope.hosts.extend(spec.stage_hosts());
                    scope.rewriters.extend(rewriters_of(spec));
                }
            }
            let mut target = RuleProgram::default();
            let _c = rec.span("dataplane.compile");
            for &sw in &scope.switches {
                let rules = apple_dataplane::compiler::lower_switch(
                    sw,
                    in_use.contains(&sw),
                    self.lowered.ingress_specs(sw),
                    true,
                );
                target.switches.insert(sw, rules);
            }
            for &host in &scope.hosts {
                let staged: Vec<&SubclassSpec> = self.lowered.host_specs(host).collect();
                if staged.is_empty() && !in_use.contains(&host) {
                    continue;
                }
                target
                    .rewriters
                    .extend(staged.iter().flat_map(|spec| rewriters_of(spec)));
                target
                    .hosts
                    .insert(host, apple_dataplane::compiler::lower_host(host, staged));
            }
            rec.counter("dataplane.rules_compiled", target.rule_count() as u64);
            target
        };
        debug_assert_eq!(
            oracle,
            Some(
                self.lowered
                    .specs()
                    .iter()
                    .map(|(&key, spec)| (key, spec.tag))
                    .collect()
            ),
            "re-tagging the touched keys must equal allocating over the whole state"
        );

        let plan = {
            let _d = rec.span("dataplane.sync.diff");
            apple_dataplane::diff::diff_scoped(&self.compiled, &target, &scope, rec)
        };
        // Enqueue the whole plan, then await each barrier's ack — the
        // installed mirror and the fast path advance only when a barrier's
        // acked set equals its op set. The channel completes barriers in
        // plan order, and the fault-free channel cannot fail, so every
        // channel timing lands the same program and bills the same ops.
        let (installed, fastpath, chan) =
            (&mut self.compiled, &mut self.fastpath, &mut self.southbound);
        let submitted = chan.now_ms();
        let mut acked = 0;
        let report = {
            let _sb = rec.span("dataplane.sync.southbound");
            chan.submit_plan(&plan);
            chan.drive(|done| {
                debug_assert_eq!(
                    done.batch,
                    plan.batches()[acked],
                    "barriers complete in plan order"
                );
                acked += 1;
                commit_barrier(installed, fastpath, &done.batch, rec);
                rec.counter("southbound.barriers", 1);
                rec.counter("southbound.retries", done.retries);
                rec.observe("southbound.barrier_wait_ms", done.wait_ms() as f64);
            })
            .expect("fault-free southbound channel cannot fail")
        };
        let wait_ms = report.elapsed_ms.saturating_sub(submitted);
        let stats = plan.stats();
        rec.counter("dataplane.plans", 1);
        rec.counter("dataplane.rule_ops", stats.total() as u64);
        rec.gauge("dataplane.program_rules", installed.rule_count() as f64);
        debug_assert_eq!(
            self.compiled,
            apple_dataplane::compiler::compile(&self.serving_snapshot()),
            "incremental patch must reproduce the full compile"
        );
        debug_assert_eq!(
            self.fastpath,
            CompiledProgram::new(&self.compiled),
            "delta-patched fast path must equal a fresh compile of the installed program"
        );
        self.committed = plan;
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

    /// Global re-solves so far whose answer was a fleet (the engine found a
    /// placement, or a journaled one stood in for it), counted by the loop
    /// itself so that a journal redo counts as the live run did. Not part
    /// of the logical state: a loop restored from a snapshot counts from 0.
    pub fn resolves(&self) -> u64 {
        self.resolves
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

    /// A fresh loop on Internet2 and its 30 s timeline over twelve pairs.
    fn twelve_pair_loop(
        resolve_every: u64,
    ) -> (OrchestrationLoop, apple_traffic::arrivals::EventTimeline) {
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
        let looper = OrchestrationLoop::new(
            &topo,
            orch,
            OnlineConfig {
                resolve_every,
                ..Default::default()
            },
        );
        (looper, timeline)
    }

    fn drain_timeline(resolve_every: u64, rec: &dyn Recorder) -> OrchestrationLoop {
        let (mut looper, timeline) = twelve_pair_loop(resolve_every);
        for e in timeline.events() {
            looper.step(e, rec);
            looper.check_ledger().expect("ledger truthful after step");
        }
        looper
    }

    /// An action that syncs nothing leaves `committed()` empty, whatever
    /// the action before it committed: the journaled wrapper mirrors
    /// `committed()` after every action, so a stale plan would journal its
    /// barriers twice.
    #[test]
    fn committed_is_empty_after_every_action_that_syncs_nothing() {
        use crate::recovery::{recover, JournaledLoop, RecoveryConfig, RecoverySetup};
        use apple_journal::{Journal, SharedMemStore};
        use apple_telemetry::NOOP;
        // A flow too small to move any decision, on the pair of arrival
        // `e`: the pair's classes re-rate in place, which no rule sees.
        let trickle = |e: &FlowEvent, flow_id: u64| FlowEvent {
            flow_id,
            flow: Flow {
                rate_mbps: 1e-3,
                ..e.flow
            },
            ..e.clone()
        };
        let (mut looper, timeline) = twelve_pair_loop(0);
        let e = &timeline.events()[0];
        looper.step(e, &NOOP);
        assert!(
            !looper.committed().is_empty(),
            "the first sync installs all"
        );
        assert_eq!(looper.handle_instance_crash(InstanceId(u64::MAX), &NOOP), 0);
        assert!(looper.committed().is_empty(), "an unknown instance crashed");
        let id = *looper.placer().loads().keys().next().unwrap();
        looper.handle_instance_crash(id, &NOOP);
        assert!(!looper.committed().is_empty(), "a crash re-places");
        looper.step(&trickle(e, u64::MAX - 1), &NOOP);
        assert!(looper.committed().is_empty(), "a step with no change");

        // Replay leaves the last replayed intent's plan behind; the first
        // no-op step after recovery must not mirror it again.
        let setup = RecoverySetup {
            topo: zoo::internet2(),
            cfg: OnlineConfig::default(),
            recovery: RecoveryConfig::default(),
            host_cores: 64,
        };
        let store = SharedMemStore::new();
        let fabric = crate::recovery::SharedFabric::new();
        let never = apple_faults::CrashPoint::never();
        let mut jl = JournaledLoop::new(&setup, store.clone(), fabric.clone(), never);
        jl.step(e, &NOOP).unwrap();
        drop(jl);
        let records = || Journal::recover(&mut store.clone()).unwrap().records.len();
        let (mut recovered, _) = recover(&setup, store.clone(), fabric.clone(), &NOOP).unwrap();
        assert!(!recovered.inner().committed().is_empty(), "replay synced");
        let (before, installed) = (records(), fabric.program());
        recovered.step(&trickle(e, u64::MAX), &NOOP).unwrap();
        assert!(recovered.inner().committed().is_empty());
        assert_eq!(records(), before + 2, "only the intent and its commit");
        assert_eq!(fabric.program(), installed);
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
        // The loop keeps one Replanner, and so one warm cache, across its
        // periodic re-solves. With no engine option set, a re-solve whose
        // input nothing has changed since the previous one re-pivots no
        // block: the main relaxation and any consolidation LP the descent
        // still runs are answered from the cache, and the descent's accepts
        // are certified without one.
        let (mut looper, timeline) = twelve_pair_loop(20);
        let rec = apple_telemetry::MemoryRecorder::new();
        let events = timeline.events();
        for e in &events[..events.len() / 2] {
            looper.step(e, &rec);
        }
        assert!(looper.resolves() > 0, "no periodic re-solve ran");
        assert!(looper.live_count() > 0, "nothing live to re-solve");
        let counter = |name| rec.snapshot().counter(name).unwrap_or(0);
        looper.resolve(None, &rec, &mut StepReport::default());
        let (hits, misses) = (
            counter("failover.replan_warm_hits"),
            counter("failover.replan_warm_misses"),
        );
        looper.resolve(None, &rec, &mut StepReport::default());
        assert_eq!(
            counter("failover.replan_warm_misses"),
            misses,
            "an unchanged re-solve must not pivot"
        );
        assert!(counter("failover.replan_warm_hits") > hits, "no warm hit");
        assert!(counter("engine.consolidation_accepted") > 0);
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
            let full = apple_dataplane::compiler::compile(&looper.serving_snapshot());
            assert_eq!(
                looper.dataplane_program(),
                &full,
                "installed program diverged from full compile at event {n}"
            );
        }
        assert!(crashed, "expected a crash mid-run");
        assert!(total_ops > 0, "rule deltas must have been billed");
        assert_eq!(looper.live_count(), 0);
        let final_prog = looper.dataplane_program();
        assert!(final_prog.hosts.is_empty(), "drained fleet has no hosts");
        assert_eq!(
            final_prog.billable_rules(),
            0,
            "only pass-by defaults remain"
        );
    }

    /// A growing class with no slack is released and re-placed, possibly
    /// retiring the instances it left. That write must reach the switches
    /// like any other: pinned because the re-place arm once installed its
    /// decision without telling the data plane, which left vSwitch rules
    /// steering to torn-down instances (12 275 stale steps of 52 656 on
    /// these timelines).
    #[test]
    fn rerate_replacement_reaches_the_dataplane() {
        use apple_dataplane::switch::VSwitchVerdict;
        use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};
        let topo = zoo::internet2();
        // 72 ordered pairs: every pair among nine of the twelve PoPs.
        let pairs: Vec<(NodeId, NodeId)> = (0..9)
            .flat_map(|s| (0..9).map(move |d| (NodeId(s), NodeId(d))))
            .filter(|(s, d)| s != d)
            .collect();
        let mut replaced = 0u32;
        for (mean_rate_mbps, host_cores) in [(40.0, 64), (300.0, 6)] {
            for seed in 0..6 {
                let arrivals = ArrivalConfig {
                    arrival_rate: 0.5,
                    mean_duration_secs: 4.0,
                    mean_rate_mbps,
                    seed,
                };
                let timeline = EventTimeline::generate(&pairs, &arrivals, 6.0);
                let orch = ResourceOrchestrator::with_uniform_hosts(&topo, host_cores);
                let mut looper = OrchestrationLoop::new(&topo, orch, OnlineConfig::default());
                for (n, e) in timeline.events().iter().enumerate() {
                    let live_before = looper.live_count();
                    let report = looper.step(e, &apple_telemetry::NOOP);
                    // A placement that adds no class re-placed a live one.
                    replaced += u32::from(report.placed > 0 && looper.live_count() <= live_before);
                    let at = format!("{mean_rate_mbps} Mbps, seed {seed}, event {n}");
                    let installed = looper.dataplane_program();
                    assert_eq!(
                        installed,
                        &apple_dataplane::compiler::compile(&looper.serving_snapshot()),
                        "installed program is stale ({at})"
                    );
                    for rule in installed.hosts.values().flatten() {
                        if let VSwitchVerdict::ToVnf(id) = rule.verdict {
                            assert!(
                                looper.orchestrator().instance(id).is_some(),
                                "rule {:?} steers to torn-down {id} ({at})",
                                rule.label
                            );
                        }
                    }
                }
            }
        }
        assert!(replaced > 0, "no timeline took the re-place arm");
    }

    /// Every channel timing lands the same barriers: after every event
    /// the instant channel and the paper's timed channel must bill the
    /// same ops, commit the same plan and leave the same program, while
    /// only the timed channel waits — and always when rule ops shipped.
    #[test]
    fn instant_channel_matches_paper_timing_bitwise() {
        use apple_traffic::arrivals::{ArrivalConfig, EventTimeline};
        let topo = zoo::internet2();
        let pairs = vec![(NodeId(0), NodeId(5)), (NodeId(2), NodeId(6))];
        let timeline = EventTimeline::generate(&pairs, &ArrivalConfig::default(), 40.0);
        let cfg = OnlineConfig {
            resolve_every: 15,
            ..Default::default()
        };
        let timed_cfg = OnlineConfig {
            southbound: Some(SouthboundConfig::paper(0x5b)),
            ..cfg.clone()
        };
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut instant = OrchestrationLoop::new(&topo, orch, cfg);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let mut timed = OrchestrationLoop::new(&topo, orch, timed_cfg);
        let mut waited = 0u64;
        for (n, e) in timeline.events().iter().enumerate() {
            let instant_report = instant.step(e, &apple_telemetry::NOOP);
            let timed_report = timed.step(e, &apple_telemetry::NOOP);
            assert_eq!(
                instant_report.dataplane_ops, timed_report.dataplane_ops,
                "ops bill diverged at event {n}"
            );
            assert_eq!(instant_report.southbound_wait_ms, 0);
            if timed_report.dataplane_ops > 0 {
                assert!(
                    timed_report.southbound_wait_ms > 0,
                    "rule ops shipped with no barrier wait at event {n}"
                );
            }
            waited += timed_report.southbound_wait_ms;
            assert_eq!(
                instant.committed(),
                timed.committed(),
                "committed plans diverged at event {n}"
            );
            assert_eq!(
                instant.dataplane_program(),
                timed.dataplane_program(),
                "installed programs diverged at event {n}"
            );
        }
        assert!(waited > 0, "the run must have waited on some barrier");
        assert_eq!(timed.live_count(), 0);
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
