//! Traffic aggregation into equivalence classes (§IV-A).
//!
//! Flows with the same forwarding path and the same policy chain form one
//! class `h ∈ H`. Class-level granularity (a) shrinks the optimisation
//! input, (b) lets classes be expressed as wildcard rules, saving TCAM, and
//! (c) smooths traffic (aggregates have lower relative variance — the MVR
//! argument).
//!
//! The paper derives classes with atomic-predicate analysis over the real
//! rule base; here (see DESIGN.md §2) we construct the same partition
//! directly: every OD pair with traffic contributes one class per
//! forwarding path (ECMP splits a pair across its equal-cost paths in the
//! data-center topology), carrying the pair's assigned policy chain and the
//! per-class wildcard predicate (the source-side /24 of the ingress
//! switch combined with the destination-side /24).

use crate::policy::PolicyChain;
use apple_nf::NfType;
use apple_topology::spf::{dijkstra, ShortestPathTree};
use apple_topology::{ksp, NodeId, Path, Topology};
use apple_traffic::{Flow, TrafficMatrix};
use std::fmt;

/// Dense identifier of an equivalence class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub usize);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One equivalence class: path + chain + rate + matching predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceClass {
    /// Class id (index into the owning [`ClassSet`]).
    pub id: ClassId,
    /// Forwarding path (computed by routing, never altered by APPLE).
    pub path: Path,
    /// Policy chain the class must traverse in order.
    pub chain: PolicyChain,
    /// Mean traffic rate `T_h` in Mbps.
    pub rate_mbps: f64,
    /// Source wildcard: `(address, prefix_len)` — the ingress-side /24.
    pub src_prefix: (u32, u8),
    /// Destination wildcard: `(address, prefix_len)`.
    pub dst_prefix: (u32, u8),
    /// Transport-level predicate (from an operator policy): required
    /// protocol, if any.
    pub proto: Option<u8>,
    /// Destination ports the class matches (empty = any). Multiple ports
    /// cost one TCAM classification rule each — real hardware pays the
    /// same.
    pub dst_ports: Vec<u16>,
}

impl EquivalenceClass {
    /// The OD pair this class belongs to.
    pub fn od_pair(&self) -> (NodeId, NodeId) {
        (self.path.first(), self.path.last())
    }
}

/// Configuration for class construction.
#[derive(Debug, Clone)]
pub struct ClassConfig {
    /// Keep only the heaviest `max_classes` classes (0 = keep all). The
    /// survivors are re-scaled so total traffic is preserved.
    pub max_classes: usize,
    /// Maximum ECMP fan-out per OD pair on multipath topologies.
    pub ecmp_limit: usize,
}

impl Default for ClassConfig {
    fn default() -> Self {
        ClassConfig {
            max_classes: 0,
            ecmp_limit: 4,
        }
    }
}

/// The set of equivalence classes for one topology + traffic matrix.
///
/// # Example
///
/// ```
/// use apple_core::classes::{ClassConfig, ClassSet};
/// use apple_topology::zoo;
/// use apple_traffic::{GravityModel};
///
/// let topo = zoo::internet2();
/// let tm = GravityModel::new(4_000.0, 0).base_matrix(&topo);
/// let classes = ClassSet::build(&topo, &tm, &ClassConfig::default());
/// assert!(!classes.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ClassSet {
    classes: Vec<EquivalenceClass>,
}

impl ClassSet {
    /// Builds the class set: one class per (OD pair, forwarding path),
    /// with the pair's deterministic policy chain and the traffic matrix's
    /// rate (split evenly across ECMP paths when the topology is
    /// multipath).
    pub fn build(topo: &Topology, tm: &TrafficMatrix, cfg: &ClassConfig) -> ClassSet {
        let mut router = Router::default();
        Self::build_routed(tm, cfg, |src, dst| router.paths(topo, cfg, src, dst))
    }

    /// [`ClassSet::build`] over the forwarding paths `route` gives a pair.
    fn build_routed(
        tm: &TrafficMatrix,
        cfg: &ClassConfig,
        mut route: impl FnMut(NodeId, NodeId) -> Vec<Path>,
    ) -> ClassSet {
        let mut classes = Vec::new();
        for (src, dst, rate) in tm.entries() {
            let chain = PolicyChain::assign(src.0, dst.0);
            let paths = route(src, dst);
            if paths.is_empty() {
                continue; // disconnected pair: no class
            }
            let share = rate / paths.len() as f64;
            for path in paths {
                classes.push(EquivalenceClass {
                    id: ClassId(0), // assigned after sorting/truncation
                    path,
                    chain: chain.clone(),
                    rate_mbps: share,
                    src_prefix: (Flow::prefix_of(src), 24),
                    dst_prefix: (Flow::prefix_of(dst), 24),
                    proto: None,
                    dst_ports: Vec::new(),
                });
            }
        }
        Self::finalise(classes, cfg)
    }

    /// Canonical ordering of raw classes: heaviest first, ties broken by
    /// path nodes. The comparator is total over classes from distinct
    /// (pair, path) cells, so the finalised order is independent of the
    /// order classes were generated in — which is what lets the
    /// incremental aggregator ([`IncrementalClasses`]) reproduce
    /// [`ClassSet::build`] exactly.
    pub(crate) fn canonical_cmp(a: &EquivalenceClass, b: &EquivalenceClass) -> std::cmp::Ordering {
        b.rate_mbps
            .partial_cmp(&a.rate_mbps)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.nodes().cmp(b.path.nodes()))
    }

    /// [`Self::canonical_cmp`], with ties between classes of one
    /// forwarding path broken by chain: the order of
    /// [`ClassSet::build_with_policies`], where a path carries one class
    /// per policy.
    fn policy_cmp(a: &EquivalenceClass, b: &EquivalenceClass) -> std::cmp::Ordering {
        Self::canonical_cmp(a, b).then_with(|| a.chain.nfs().cmp(b.chain.nfs()))
    }

    /// Shared tail of class construction: canonical sort, heaviest-first
    /// truncation with total-rate preservation, dense id assignment.
    pub(crate) fn finalise(mut classes: Vec<EquivalenceClass>, cfg: &ClassConfig) -> ClassSet {
        classes.sort_by(Self::canonical_cmp);
        if cfg.max_classes > 0 && classes.len() > cfg.max_classes {
            let total: f64 = classes.iter().map(|c| c.rate_mbps).sum();
            classes.truncate(cfg.max_classes);
            let kept: f64 = classes.iter().map(|c| c.rate_mbps).sum();
            if kept > 0.0 {
                let scale = total / kept;
                for c in &mut classes {
                    c.rate_mbps *= scale;
                }
            }
        }
        for (i, c) in classes.iter_mut().enumerate() {
            c.id = ClassId(i);
        }
        ClassSet { classes }
    }

    /// The `(chain, predicates)` signature distinguishing policy kinds for
    /// diversity-preserving truncation.
    fn policy_kind(c: &EquivalenceClass) -> (Vec<NfType>, Option<u8>, Vec<u16>) {
        (c.chain.nfs().to_vec(), c.proto, c.dst_ports.clone())
    }

    /// Builds classes from an operator
    /// [`PolicySpec`](crate::policy_spec::PolicySpec): each OD pair
    /// expands into one
    /// class per weighted chain (rule + default), splitting the pair's
    /// rate by the normalised weights — and further across ECMP paths on
    /// multipath topologies. This is the operator-driven alternative to
    /// the synthetic [`PolicyChain::assign`] used by
    /// [`ClassSet::build`].
    pub fn build_with_policies(
        topo: &Topology,
        tm: &TrafficMatrix,
        spec: &crate::policy_spec::PolicySpec,
        cfg: &ClassConfig,
    ) -> ClassSet {
        let mut router = Router::default();
        Self::build_with_policies_routed(tm, spec, cfg, |src, dst| {
            router.paths(topo, cfg, src, dst)
        })
    }

    /// [`ClassSet::build_with_policies`] over the forwarding paths `route`
    /// gives a pair.
    fn build_with_policies_routed(
        tm: &TrafficMatrix,
        spec: &crate::policy_spec::PolicySpec,
        cfg: &ClassConfig,
        mut route: impl FnMut(NodeId, NodeId) -> Vec<Path>,
    ) -> ClassSet {
        let policies = spec.weighted_policies();
        let mut classes = Vec::new();
        for (src, dst, rate) in tm.entries() {
            let paths = route(src, dst);
            if paths.is_empty() {
                continue;
            }
            for path in &paths {
                for policy in &policies {
                    let share = rate * policy.weight / paths.len() as f64;
                    if share <= 0.0 {
                        continue;
                    }
                    classes.push(EquivalenceClass {
                        id: ClassId(0),
                        path: path.clone(),
                        chain: policy.chain.clone(),
                        rate_mbps: share,
                        src_prefix: (Flow::prefix_of(src), 24),
                        dst_prefix: (Flow::prefix_of(dst), 24),
                        proto: policy.proto,
                        dst_ports: policy.dst_ports.clone(),
                    });
                }
            }
        }
        classes.sort_by(Self::policy_cmp);
        if cfg.max_classes > 0 && classes.len() > cfg.max_classes {
            let total: f64 = classes.iter().map(|c| c.rate_mbps).sum();
            // A policy whose classes are all truncated away would silently
            // stop being enforced — a Table I violation. Keep the heaviest
            // classes overall, but guarantee every policy kind at least one
            // surviving representative by swapping its heaviest class in
            // for the lightest class of an over-represented kind.
            let all_kinds: std::collections::BTreeSet<_> =
                classes.iter().map(Self::policy_kind).collect();
            let mut dropped = classes.split_off(cfg.max_classes);
            let mut kept_counts = std::collections::BTreeMap::new();
            for c in &classes {
                *kept_counts.entry(Self::policy_kind(c)).or_insert(0usize) += 1;
            }
            for kind in &all_kinds {
                if kept_counts.contains_key(kind) {
                    continue;
                }
                // Heaviest dropped class of the missing kind (`dropped` is
                // still sorted rate-descending).
                let Some(take) = dropped.iter().position(|c| Self::policy_kind(c) == *kind) else {
                    continue;
                };
                // Lightest kept class whose kind keeps other representatives.
                let Some(evict) = classes
                    .iter()
                    .rposition(|c| kept_counts[&Self::policy_kind(c)] > 1)
                else {
                    break; // budget smaller than the number of kinds
                };
                *kept_counts
                    .get_mut(&Self::policy_kind(&classes[evict]))
                    .expect("kind counted") -= 1;
                classes[evict] = dropped.remove(take);
                *kept_counts.entry(kind.clone()).or_insert(0) += 1;
            }
            // Swaps may break the rate-descending order; restore it.
            classes.sort_by(Self::policy_cmp);
            let kept: f64 = classes.iter().map(|c| c.rate_mbps).sum();
            if kept > 0.0 {
                let scale = total / kept;
                for c in &mut classes {
                    c.rate_mbps *= scale;
                }
            }
        }
        for (i, c) in classes.iter_mut().enumerate() {
            c.id = ClassId(i);
        }
        ClassSet { classes }
    }

    /// Builds a class set from explicit classes (tests / examples).
    ///
    /// # Panics
    ///
    /// Panics if ids are not the dense sequence `0..n`.
    pub fn from_classes(classes: Vec<EquivalenceClass>) -> ClassSet {
        for (i, c) in classes.iter().enumerate() {
            assert_eq!(c.id.0, i, "class ids must be dense and ordered");
        }
        ClassSet { classes }
    }

    /// The classes, ordered by id.
    pub fn classes(&self) -> &[EquivalenceClass] {
        &self.classes
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Looks a class up by id.
    pub fn class(&self, id: ClassId) -> Option<&EquivalenceClass> {
        self.classes.get(id.0)
    }

    /// Iterates over the classes.
    pub fn iter(&self) -> std::slice::Iter<'_, EquivalenceClass> {
        self.classes.iter()
    }

    /// Total offered rate across classes.
    pub fn total_rate_mbps(&self) -> f64 {
        self.classes.iter().map(|c| c.rate_mbps).sum()
    }

    /// Re-rates every class from a new traffic matrix (same topology),
    /// used when replaying time-varying snapshots: path and chain are
    /// stable, only `T_h` moves.
    pub fn with_rates_from(&self, tm: &TrafficMatrix) -> ClassSet {
        // Count sibling classes per OD pair to re-split ECMP shares.
        let mut siblings = std::collections::BTreeMap::new();
        for c in &self.classes {
            *siblings.entry(c.od_pair()).or_insert(0usize) += 1;
        }
        let classes = self
            .classes
            .iter()
            .map(|c| {
                let (s, d) = c.od_pair();
                let n = siblings[&(s, d)] as f64;
                EquivalenceClass {
                    rate_mbps: tm.rate(s, d) / n,
                    ..c.clone()
                }
            })
            .collect();
        ClassSet { classes }
    }
}

impl<'a> IntoIterator for &'a ClassSet {
    type Item = &'a EquivalenceClass;
    type IntoIter = std::slice::Iter<'a, EquivalenceClass>;
    fn into_iter(self) -> Self::IntoIter {
        self.classes.iter()
    }
}

/// Routes OD pairs from one shortest-path tree per source, computed when
/// the first pair from that source is routed and reused for the rest, so
/// routing every pair costs one Dijkstra per source rather than one or more
/// per pair. A new router holds nothing, so creating one costs no work.
#[derive(Debug, Clone, Default)]
struct Router {
    /// `trees[s]`: the tree from source `s`, once a pair from `s` was routed.
    trees: Vec<Option<ShortestPathTree>>,
}

impl Router {
    /// The pair's forwarding paths: its ECMP set (up to
    /// `cfg.ecmp_limit` paths) on multipath topologies, its shortest path
    /// otherwise. Empty when the pair is disconnected.
    fn paths(&mut self, topo: &Topology, cfg: &ClassConfig, src: NodeId, dst: NodeId) -> Vec<Path> {
        let n = topo.graph.node_count();
        if src.0 >= n {
            return Vec::new(); // unknown source: no route
        }
        self.trees.resize(n, None);
        let tree = self.trees[src.0]
            .get_or_insert_with(|| dijkstra(&topo.graph, src).expect("source is in range"));
        if topo.multipath {
            ksp::ecmp_paths_in(&topo.graph, tree, dst, cfg.ecmp_limit)
        } else {
            tree.path_to(dst).into_iter().collect()
        }
    }
}

/// How one flow event changed its OD pair's aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaKind {
    /// The pair went from zero flows to at least one: its classes are born.
    Created,
    /// The pair already had flows and still does: its classes re-rate.
    Changed,
    /// The pair's last flow departed: its classes are now empty.
    Emptied,
}

/// The per-pair effect of applying one flow arrival or departure to an
/// [`IncrementalClasses`] aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDelta {
    /// The affected OD pair.
    pub pair: (NodeId, NodeId),
    /// Created / changed / emptied.
    pub kind: DeltaKind,
    /// The pair's new aggregate rate in Mbps (0 when emptied). Summed in
    /// flow-id order so it is bitwise identical to a from-scratch
    /// [`TrafficMatrix`] accumulation over the same live flows.
    pub rate_mbps: f64,
}

/// Per-pair incremental state: the live flows plus the (immutable) routing
/// and policy artefacts that [`ClassSet::build`] would derive for the pair.
#[derive(Debug, Clone)]
struct PairState {
    /// Live flows keyed by timeline flow id; values are flow rates in
    /// Mbps. A `BTreeMap` so rate summation visits flows in id order.
    flows: std::collections::BTreeMap<u64, f64>,
    chain: PolicyChain,
    paths: Vec<Path>,
}

/// Incremental equivalence-class maintenance (the online counterpart of
/// [`ClassSet::build`]).
///
/// [`ClassSet::build`] is a batch operation: it scans the whole traffic
/// matrix, derives paths and chains for every pair, sorts and assigns ids.
/// Under flow churn that is O(pairs) work per event. `IncrementalClasses`
/// applies one arrival/departure at a time and reports only the affected
/// pair ([`PairDelta`]): a pair's paths and policy chain are derived on
/// first contact and cached thereafter, and routing runs one Dijkstra per
/// *source* (on the first pair from it), not one per pair.
///
/// # Parity guarantee
///
/// [`IncrementalClasses::to_class_set`] is **bitwise identical** to
/// `ClassSet::build(topo, tm, cfg)` where `tm` accumulates the currently
/// live flows in flow-id order. Two properties make this exact rather than
/// approximate:
///
/// 1. Pair rates are never maintained as a running `+=`/`-=` total (which
///    would drift in floating point); every query re-sums the live flows
///    in flow-id order — the same left-to-right sum a from-scratch
///    [`TrafficMatrix`] accumulation performs.
/// 2. The canonical sort/truncate/id-assign tail is shared code
///    (`ClassSet::finalise`), and its comparator is total over distinct
///    (pair, path) cells, so generation order cannot leak into ids.
///
/// `tests/online_parity.rs` enforces the guarantee after every event of
/// seeded timelines across three topologies.
#[derive(Debug, Clone)]
pub struct IncrementalClasses {
    topo: Topology,
    cfg: ClassConfig,
    router: Router,
    pairs: std::collections::BTreeMap<(NodeId, NodeId), PairState>,
}

impl IncrementalClasses {
    /// Creates an empty aggregate over `topo`.
    pub fn new(topo: &Topology, cfg: &ClassConfig) -> IncrementalClasses {
        IncrementalClasses {
            topo: topo.clone(),
            cfg: cfg.clone(),
            router: Router::default(),
            pairs: std::collections::BTreeMap::new(),
        }
    }

    /// Derives (and caches) the routing/policy state for a pair.
    fn pair_state(&mut self, src: NodeId, dst: NodeId) -> &mut PairState {
        let (topo, cfg, router) = (&self.topo, &self.cfg, &mut self.router);
        self.pairs.entry((src, dst)).or_insert_with(|| PairState {
            flows: std::collections::BTreeMap::new(),
            chain: PolicyChain::assign(src.0, dst.0),
            paths: router.paths(topo, cfg, src, dst),
        })
    }

    /// Re-sums a pair's rate in flow-id order (see the parity note above).
    fn pair_rate(state: &PairState) -> f64 {
        let mut total = 0.0;
        for rate in state.flows.values() {
            total += rate;
        }
        total
    }

    /// Applies a flow arrival.
    ///
    /// # Panics
    ///
    /// Panics if `flow_id` is already live (the timeline contract gives
    /// every flow a unique id) or the flow's rate is not positive.
    pub fn apply_arrival(&mut self, flow_id: u64, flow: &Flow) -> PairDelta {
        assert!(
            flow.rate_mbps > 0.0 && flow.rate_mbps.is_finite(),
            "flow rate must be positive"
        );
        let pair = (flow.ingress, flow.egress);
        let state = self.pair_state(pair.0, pair.1);
        let was_empty = state.flows.is_empty();
        let prev = state.flows.insert(flow_id, flow.rate_mbps);
        assert!(prev.is_none(), "flow {flow_id} arrived twice");
        PairDelta {
            pair,
            kind: if was_empty {
                DeltaKind::Created
            } else {
                DeltaKind::Changed
            },
            rate_mbps: Self::pair_rate(state),
        }
    }

    /// Applies a flow departure.
    ///
    /// # Panics
    ///
    /// Panics if `flow_id` is not live for the flow's OD pair.
    pub fn apply_departure(&mut self, flow_id: u64, flow: &Flow) -> PairDelta {
        let pair = (flow.ingress, flow.egress);
        let state = self.pair_state(pair.0, pair.1);
        let removed = state.flows.remove(&flow_id);
        assert!(
            removed.is_some(),
            "flow {flow_id} departed without arriving"
        );
        let rate = Self::pair_rate(state);
        PairDelta {
            pair,
            kind: if state.flows.is_empty() {
                DeltaKind::Emptied
            } else {
                DeltaKind::Changed
            },
            rate_mbps: rate,
        }
    }

    /// The pair's current classes (ids unassigned, i.e. `ClassId(0)`): one
    /// per forwarding path with the pair rate split evenly, exactly as
    /// [`ClassSet::build`] would generate them. Empty when the pair has no
    /// live flows or is disconnected.
    pub fn pair_classes(&self, pair: (NodeId, NodeId)) -> Vec<EquivalenceClass> {
        let Some(state) = self.pairs.get(&pair) else {
            return Vec::new();
        };
        if state.flows.is_empty() || state.paths.is_empty() {
            return Vec::new();
        }
        let rate = Self::pair_rate(state);
        let share = rate / state.paths.len() as f64;
        state
            .paths
            .iter()
            .map(|path| EquivalenceClass {
                id: ClassId(0),
                path: path.clone(),
                chain: state.chain.clone(),
                rate_mbps: share,
                src_prefix: (Flow::prefix_of(pair.0), 24),
                dst_prefix: (Flow::prefix_of(pair.1), 24),
                proto: None,
                dst_ports: Vec::new(),
            })
            .collect()
    }

    /// The live flow maps of every non-empty pair, for recovery snapshots.
    /// Pairs whose flow set drained to empty are pure cache (their chain
    /// and paths re-derive deterministically from the topology) and are
    /// deliberately excluded: they are unobservable through any query.
    pub(crate) fn live_pair_flows(
        &self,
    ) -> impl Iterator<Item = (&(NodeId, NodeId), &std::collections::BTreeMap<u64, f64>)> {
        self.pairs
            .iter()
            .filter(|(_, s)| !s.flows.is_empty())
            .map(|(pair, s)| (pair, &s.flows))
    }

    /// Restores one pair's live flows from a recovery snapshot. The
    /// routing/policy artefacts are re-derived through the normal cache
    /// path, so a restored aggregate is bitwise identical to one that saw
    /// the flows arrive live.
    pub(crate) fn restore_pair_flows(
        &mut self,
        pair: (NodeId, NodeId),
        flows: std::collections::BTreeMap<u64, f64>,
    ) {
        self.pair_state(pair.0, pair.1).flows = flows;
    }

    /// Number of forwarding paths a pair's traffic splits across (0 when
    /// the pair is disconnected or untouched).
    pub fn pair_path_count(&self, pair: (NodeId, NodeId)) -> usize {
        self.pairs.get(&pair).map_or(0, |s| s.paths.len())
    }

    /// Number of currently live flows across all pairs.
    pub fn active_flows(&self) -> usize {
        self.pairs.values().map(|s| s.flows.len()).sum()
    }

    /// Number of pairs with at least one live flow.
    pub fn active_pairs(&self) -> usize {
        self.pairs.values().filter(|s| !s.flows.is_empty()).count()
    }

    /// Total live rate in Mbps (sum of per-pair rates).
    pub fn total_rate_mbps(&self) -> f64 {
        self.pairs.values().map(Self::pair_rate).sum()
    }

    /// The live traffic as a [`TrafficMatrix`] (one cell per pair, summed
    /// in flow-id order).
    pub fn to_matrix(&self) -> TrafficMatrix {
        let mut tm = TrafficMatrix::zeros(self.topo.graph.node_count());
        for (&(s, d), state) in &self.pairs {
            let rate = Self::pair_rate(state);
            if rate > 0.0 {
                tm.set(s, d, rate);
            }
        }
        tm
    }

    /// Materialises the current aggregate as a canonical [`ClassSet`] —
    /// bitwise identical to `ClassSet::build` over [`Self::to_matrix`]
    /// (see the type-level parity note).
    pub fn to_class_set(&self) -> ClassSet {
        let mut raw = Vec::new();
        for (&pair, state) in &self.pairs {
            if state.flows.is_empty() || state.paths.is_empty() {
                continue;
            }
            let rate = Self::pair_rate(state);
            let share = rate / state.paths.len() as f64;
            for path in &state.paths {
                raw.push(EquivalenceClass {
                    id: ClassId(0),
                    path: path.clone(),
                    chain: state.chain.clone(),
                    rate_mbps: share,
                    src_prefix: (Flow::prefix_of(pair.0), 24),
                    dst_prefix: (Flow::prefix_of(pair.1), 24),
                    proto: None,
                    dst_ports: Vec::new(),
                });
            }
        }
        ClassSet::finalise(raw, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_topology::zoo;
    use apple_traffic::GravityModel;

    fn internet2_classes() -> (Topology, ClassSet) {
        let topo = zoo::internet2();
        let tm = GravityModel::new(4_000.0, 1).base_matrix(&topo);
        let cs = ClassSet::build(&topo, &tm, &ClassConfig::default());
        (topo, cs)
    }

    #[test]
    fn one_class_per_pair_on_backbone() {
        let (topo, cs) = internet2_classes();
        let n = topo.graph.node_count();
        assert_eq!(cs.len(), n * (n - 1));
    }

    #[test]
    fn ids_dense_and_ordered_by_rate() {
        let (_, cs) = internet2_classes();
        for (i, c) in cs.iter().enumerate() {
            assert_eq!(c.id.0, i);
        }
        for w in cs.classes().windows(2) {
            assert!(w[0].rate_mbps >= w[1].rate_mbps);
        }
    }

    #[test]
    fn truncation_preserves_total_rate() {
        let topo = zoo::internet2();
        let tm = GravityModel::new(4_000.0, 2).base_matrix(&topo);
        let full = ClassSet::build(&topo, &tm, &ClassConfig::default());
        let cut = ClassSet::build(
            &topo,
            &tm,
            &ClassConfig {
                max_classes: 20,
                ..Default::default()
            },
        );
        assert_eq!(cut.len(), 20);
        assert!((cut.total_rate_mbps() - full.total_rate_mbps()).abs() < 1e-6);
    }

    #[test]
    fn multipath_topology_splits_pairs() {
        let topo = zoo::univ1();
        let tm = GravityModel::new(4_000.0, 3).base_matrix(&topo);
        let cs = ClassSet::build(&topo, &tm, &ClassConfig::default());
        // Edge-to-edge pairs have 2 ECMP paths through the two cores.
        let mut by_pair = std::collections::BTreeMap::new();
        for c in &cs {
            by_pair
                .entry(c.od_pair())
                .or_insert_with(Vec::new)
                .push(c.clone());
        }
        let multi = by_pair.values().filter(|v| v.len() == 2).count();
        assert!(multi > 0, "no ECMP-split pairs found");
        for v in by_pair.values() {
            if v.len() == 2 {
                assert!((v[0].rate_mbps - v[1].rate_mbps).abs() < 1e-9);
                assert_eq!(v[0].chain, v[1].chain);
                assert_ne!(v[0].path, v[1].path);
            }
        }
    }

    #[test]
    fn chains_follow_deterministic_assignment() {
        let (_, cs) = internet2_classes();
        for c in &cs {
            let (s, d) = c.od_pair();
            assert_eq!(c.chain, PolicyChain::assign(s.0, d.0));
        }
    }

    #[test]
    fn rerating_keeps_structure() {
        let topo = zoo::internet2();
        let tm1 = GravityModel::new(4_000.0, 4).base_matrix(&topo);
        let tm2 = tm1.scaled(2.0);
        let cs = ClassSet::build(&topo, &tm1, &ClassConfig::default());
        let cs2 = cs.with_rates_from(&tm2);
        assert_eq!(cs.len(), cs2.len());
        for (a, b) in cs.iter().zip(cs2.iter()) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.chain, b.chain);
            assert!((b.rate_mbps - 2.0 * a.rate_mbps).abs() < 1e-9);
        }
    }

    #[test]
    fn prefixes_come_from_endpoints() {
        let (_, cs) = internet2_classes();
        let c = &cs.classes()[0];
        let (s, d) = c.od_pair();
        assert_eq!(c.src_prefix, (Flow::prefix_of(s), 24));
        assert_eq!(c.dst_prefix, (Flow::prefix_of(d), 24));
    }

    #[test]
    fn policy_spec_expansion() {
        use crate::policy_spec::PolicySpec;
        let topo = zoo::internet2();
        let tm = GravityModel::new(4_000.0, 6).base_matrix(&topo);
        let spec = PolicySpec::example();
        let cs = ClassSet::build_with_policies(&topo, &tm, &spec, &ClassConfig::default());
        // 4 weighted chains per pair.
        let n = topo.graph.node_count();
        assert_eq!(cs.len(), n * (n - 1) * 4);
        // Total rate preserved.
        assert!((cs.total_rate_mbps() - tm.total()).abs() < 1e-6);
        // A pair's classes split the pair rate by the spec weights.
        let (s, d, rate) = tm.entries().next().unwrap();
        let pair_classes: Vec<_> = cs.iter().filter(|c| c.od_pair() == (s, d)).collect();
        assert_eq!(pair_classes.len(), 4);
        let total: f64 = pair_classes.iter().map(|c| c.rate_mbps).sum();
        assert!((total - rate).abs() < 1e-9);
    }

    fn flow_between(src: NodeId, dst: NodeId, rate: f64) -> Flow {
        Flow {
            src_ip: Flow::prefix_of(src) | 1,
            dst_ip: Flow::prefix_of(dst) | 1,
            src_port: 10_000,
            dst_port: 80,
            proto: 6,
            rate_mbps: rate,
            ingress: src,
            egress: dst,
        }
    }

    #[test]
    fn incremental_matches_build_exactly() {
        let topo = zoo::internet2();
        let cfg = ClassConfig::default();
        let mut inc = IncrementalClasses::new(&topo, &cfg);
        // Deterministic irregular rates across several pairs.
        let mut flows = Vec::new();
        let mut id = 0u64;
        for s in 0..4u32 {
            for d in 4..7u32 {
                for k in 0..3u64 {
                    let rate = 1.0 + (s as f64) * 0.37 + (d as f64) * 0.11 + (k as f64) * 0.73;
                    flows.push((
                        id,
                        flow_between(NodeId(s as usize), NodeId(d as usize), rate),
                    ));
                    id += 1;
                }
            }
        }
        for (fid, f) in &flows {
            inc.apply_arrival(*fid, f);
        }
        // From-scratch: accumulate the same flows in flow-id order.
        let mut tm = TrafficMatrix::zeros(topo.graph.node_count());
        for (_, f) in &flows {
            tm.add(f.ingress, f.egress, f.rate_mbps);
        }
        let batch = ClassSet::build(&topo, &tm, &cfg);
        let online = inc.to_class_set();
        assert_eq!(batch.classes(), online.classes(), "bitwise parity broken");
        // Depart half the flows; parity must survive.
        for (fid, f) in flows.iter().filter(|(fid, _)| fid % 2 == 0) {
            inc.apply_departure(*fid, f);
        }
        let mut tm2 = TrafficMatrix::zeros(topo.graph.node_count());
        for (_, f) in flows.iter().filter(|(fid, _)| fid % 2 == 1) {
            tm2.add(f.ingress, f.egress, f.rate_mbps);
        }
        let batch2 = ClassSet::build(&topo, &tm2, &cfg);
        assert_eq!(batch2.classes(), inc.to_class_set().classes());
    }

    #[test]
    fn incremental_delta_kinds() {
        let topo = zoo::internet2();
        let mut inc = IncrementalClasses::new(&topo, &ClassConfig::default());
        let f1 = flow_between(NodeId(0), NodeId(3), 5.0);
        let f2 = flow_between(NodeId(0), NodeId(3), 7.0);
        let d = inc.apply_arrival(1, &f1);
        assert_eq!(d.kind, DeltaKind::Created);
        assert_eq!(d.rate_mbps, 5.0);
        let d = inc.apply_arrival(2, &f2);
        assert_eq!(d.kind, DeltaKind::Changed);
        assert_eq!(d.rate_mbps, 12.0);
        let d = inc.apply_departure(1, &f1);
        assert_eq!(d.kind, DeltaKind::Changed);
        assert_eq!(d.rate_mbps, 7.0);
        let d = inc.apply_departure(2, &f2);
        assert_eq!(d.kind, DeltaKind::Emptied);
        assert_eq!(d.rate_mbps, 0.0);
        assert_eq!(inc.active_flows(), 0);
        assert!(inc.to_class_set().is_empty());
        // Paths/chain stay cached and correct across the empty period.
        let d = inc.apply_arrival(3, &f1);
        assert_eq!(d.kind, DeltaKind::Created);
        let classes = inc.pair_classes((NodeId(0), NodeId(3)));
        assert_eq!(classes.len(), inc.pair_path_count((NodeId(0), NodeId(3))));
        for c in &classes {
            assert_eq!(c.od_pair(), (NodeId(0), NodeId(3)));
            assert_eq!(c.chain, PolicyChain::assign(0, 3));
        }
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn incremental_rejects_duplicate_arrival() {
        let topo = zoo::internet2();
        let mut inc = IncrementalClasses::new(&topo, &ClassConfig::default());
        let f = flow_between(NodeId(0), NodeId(1), 3.0);
        inc.apply_arrival(7, &f);
        inc.apply_arrival(7, &f);
    }

    /// Routing every pair afresh — a Dijkstra per pair, plus Yen's on
    /// multipath topologies — gives the class sets the per-source trees
    /// give, bit for bit, on every topology and configuration.
    #[test]
    fn per_source_routing_equals_per_pair_routing() {
        use crate::policy_spec::PolicySpec;
        let spec = PolicySpec::example();
        let mut topos = zoo::TopologyKind::all().map(|k| k.build()).to_vec();
        topos.push(zoo::fat_tree(4));
        topos.push(zoo::jellyfish(20, 4, 1));
        for (seed, base) in topos.into_iter().enumerate() {
            let n = base.graph.node_count();
            let full = GravityModel::new(4_000.0, seed as u64).base_matrix(&base);
            // AS-3679 keeps the pairs of three sources (234 pairs), which
            // still share a tree per source, so the debug run stays short.
            let mut tm = TrafficMatrix::zeros(n);
            for (src, dst, rate) in full.entries().filter(|(src, ..)| n < 50 || src.0 < 3) {
                tm.set(src, dst, rate);
            }
            for multipath in [false, true] {
                let topo = Topology {
                    multipath,
                    ..base.clone()
                };
                for ecmp_limit in [1, 2, 4, 8] {
                    let routes: std::collections::BTreeMap<_, Vec<Path>> = tm
                        .entries()
                        .map(|(src, dst, _)| {
                            let paths = if multipath {
                                ksp::ecmp_paths(&topo.graph, src, dst, ecmp_limit)
                            } else {
                                topo.graph.shortest_path(src, dst).into_iter().collect()
                            };
                            ((src, dst), paths)
                        })
                        .collect();
                    let per_pair = |src, dst| routes[&(src, dst)].clone();
                    for max_classes in [0, 30] {
                        let cfg = ClassConfig {
                            max_classes,
                            ecmp_limit,
                        };
                        let case = format!("{} multipath={multipath} {cfg:?}", topo.summary());
                        assert_eq!(
                            ClassSet::build(&topo, &tm, &cfg).classes(),
                            ClassSet::build_routed(&tm, &cfg, per_pair).classes(),
                            "{case}"
                        );
                        assert_eq!(
                            ClassSet::build_with_policies(&topo, &tm, &spec, &cfg).classes(),
                            ClassSet::build_with_policies_routed(&tm, &spec, &cfg, per_pair)
                                .classes(),
                            "{case}"
                        );
                    }
                }
            }
        }
    }
}
