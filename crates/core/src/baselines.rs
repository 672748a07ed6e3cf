//! Baselines used by the paper's evaluation:
//!
//! * [`ingress_per_class`] — the `ingress` strawman of Fig. 11: each
//!   class's chain gets its own instances at its ingress switch; no
//!   instance is shared between classes,
//! * [`TrafficSteering`] — a StEERING/SIMPLE-style model that routes flows
//!   *to* statically-placed middleboxes, used by the Table I property
//!   tests to show what interference looks like (paths change).

use crate::classes::ClassSet;
use apple_nf::{NfType, VnfSpec};
use apple_topology::{NodeId, Path, Topology};
use std::collections::BTreeMap;

/// Result of the `ingress` strawman.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngressPlan {
    /// Instances per (ingress switch, NF).
    pub q: BTreeMap<(usize, NfType), u32>,
}

impl IngressPlan {
    /// Total CPU cores — the Fig. 11 comparison metric.
    pub fn total_cores(&self) -> u32 {
        self.q
            .iter()
            .map(|(&(_, nf), &c)| VnfSpec::of(nf).cores * c)
            .sum()
    }
}

/// The paper's `ingress` strawman (Fig. 11): "consolidates all the VNFs of
/// the policy chain in the ingress switch and enforce\[s\] policy there **for
/// each class**" — every class gets its own chain instances at its ingress,
/// with no sharing between classes. APPLE's advantage over this baseline is
/// exactly "the resource multiplexing between different classes" (§IX-D).
pub fn ingress_per_class(classes: &ClassSet) -> IngressPlan {
    let mut q: BTreeMap<(usize, NfType), u32> = BTreeMap::new();
    for c in classes {
        let ingress = c.path.first().0;
        for &nf in c.chain.nfs() {
            let cap = VnfSpec::of(nf).capacity_mbps;
            let need = ((c.rate_mbps / cap) - 1e-9).ceil().max(1.0) as u32;
            *q.entry((ingress, nf)).or_insert(0) += need;
        }
    }
    IngressPlan { q }
}

/// A traffic-steering baseline in the style of StEERING/SIMPLE: NFs sit at
/// fixed locations and flows are **re-routed** through them. It exists to
/// make Table I's "interference" column measurable: the fraction of classes
/// whose forwarding path had to change, and the extra path length incurred.
#[derive(Debug, Clone)]
pub struct TrafficSteering {
    /// Where each NF type is deployed (one site per NF, as in hardware
    /// middlebox deployments).
    pub sites: BTreeMap<NfType, NodeId>,
}

/// Outcome of steering one class.
#[derive(Debug, Clone, PartialEq)]
pub struct SteeredClass {
    /// The detoured path actually taken.
    pub steered_path: Vec<NodeId>,
    /// Whether the steered path differs from the routing path —
    /// interference with other network applications.
    pub path_changed: bool,
    /// Hops beyond the original path length.
    pub extra_hops: usize,
}

impl TrafficSteering {
    /// Places each NF at the highest-degree switch, then subsequent NFs at
    /// the next-highest, emulating a middlebox rack near the core.
    pub fn with_central_sites(topo: &Topology) -> TrafficSteering {
        let mut nodes: Vec<NodeId> = topo.graph.node_ids().collect();
        nodes.sort_by_key(|&n| std::cmp::Reverse(topo.graph.degree(n)));
        let sites = NfType::all()
            .into_iter()
            .zip(nodes.into_iter().cycle())
            .collect();
        TrafficSteering { sites }
    }

    /// Computes the steered path for a class: shortest path from ingress
    /// through every NF site in chain order, then to the egress.
    ///
    /// Returns `None` when some leg is disconnected.
    pub fn steer(
        &self,
        topo: &Topology,
        original: &Path,
        chain: &crate::policy::PolicyChain,
    ) -> Option<SteeredClass> {
        let mut waypoints = vec![original.first()];
        for &nf in chain.nfs() {
            waypoints.push(*self.sites.get(&nf)?);
        }
        waypoints.push(original.last());
        let mut steered: Vec<NodeId> = vec![waypoints[0]];
        for w in waypoints.windows(2) {
            let leg = topo.graph.shortest_path(w[0], w[1])?;
            steered.extend_from_slice(&leg.nodes()[1..]);
        }
        let original_nodes = original.nodes();
        let path_changed = steered != original_nodes;
        let extra_hops = steered.len().saturating_sub(original_nodes.len());
        Some(SteeredClass {
            steered_path: steered,
            path_changed,
            extra_hops,
        })
    }

    /// Fraction of classes whose path changes under steering, and the mean
    /// extra hops — the interference measure quoted in the Table I
    /// property test.
    pub fn interference(&self, topo: &Topology, classes: &ClassSet) -> (f64, f64) {
        let mut changed = 0usize;
        let mut extra = 0usize;
        let mut n = 0usize;
        for c in classes {
            if let Some(s) = self.steer(topo, &c.path, &c.chain) {
                n += 1;
                if s.path_changed {
                    changed += 1;
                }
                extra += s.extra_hops;
            }
        }
        if n == 0 {
            (0.0, 0.0)
        } else {
            (changed as f64 / n as f64, extra as f64 / n as f64)
        }
    }
}

/// Quantitative steering-based enforcement: NFs consolidated at the `k`
/// most-central switches (a middlebox rack), sized for the total demand,
/// with every flow detoured through them. The resource/interference
/// trade-off against APPLE: steering needs the **fewest instances possible**
/// (perfect consolidation) but re-routes almost every flow; APPLE pays more
/// instances for zero interference. Quantifies Table I's qualitative
/// contrast.
#[derive(Debug, Clone, PartialEq)]
pub struct SteeringPlan {
    /// Instances per NF at the rack.
    pub q: BTreeMap<NfType, u32>,
    /// Fraction of classes re-routed.
    pub path_change_frac: f64,
    /// Mean extra hops per class.
    pub mean_extra_hops: f64,
}

impl SteeringPlan {
    /// Total CPU cores of the rack.
    pub fn total_cores(&self) -> u32 {
        self.q
            .iter()
            .map(|(&nf, &c)| VnfSpec::of(nf).cores * c)
            .sum()
    }
}

/// Computes the steering plan for a class set on a topology.
pub fn steering_consolidation(topo: &Topology, classes: &ClassSet) -> SteeringPlan {
    // Demand per NF across all classes (perfect consolidation: one rack
    // serves everything, so only capacity bounds instance counts).
    let mut demand: BTreeMap<NfType, f64> = BTreeMap::new();
    for c in classes {
        for &nf in c.chain.nfs() {
            *demand.entry(nf).or_insert(0.0) += c.rate_mbps;
        }
    }
    let q = demand
        .into_iter()
        .map(|(nf, load)| {
            let cap = VnfSpec::of(nf).capacity_mbps;
            (nf, ((load / cap) - 1e-9).ceil().max(1.0) as u32)
        })
        .collect();
    let steering = TrafficSteering::with_central_sites(topo);
    let (path_change_frac, mean_extra_hops) = steering.interference(topo, classes);
    SteeringPlan {
        q,
        path_change_frac,
        mean_extra_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{ClassConfig, ClassSet};
    use crate::engine::{EngineConfig, OptimizationEngine};
    use crate::orchestrator::ResourceOrchestrator;
    use apple_topology::zoo;
    use apple_traffic::GravityModel;

    fn classes_for(topo: &Topology, seed: u64, k: usize) -> ClassSet {
        let tm = GravityModel::new(3_000.0, seed).base_matrix(topo);
        ClassSet::build(
            topo,
            &tm,
            &ClassConfig {
                max_classes: k,
                ..Default::default()
            },
        )
    }

    #[test]
    fn ingress_plan_covers_every_class() {
        let topo = zoo::internet2();
        let classes = classes_for(&topo, 31, 20);
        let plan = ingress_per_class(&classes);
        for c in &classes {
            for &nf in c.chain.nfs() {
                assert!(
                    plan.q.get(&(c.path.first().0, nf)).copied().unwrap_or(0) >= 1,
                    "missing {nf} at ingress of {}",
                    c.id
                );
            }
        }
        assert!(plan.total_cores() > 0);
    }

    #[test]
    fn apple_beats_ingress_on_backbone() {
        // The Fig. 11 claim: APPLE multiplexes instances across classes,
        // the per-class ingress strawman cannot.
        let topo = zoo::internet2();
        let classes = classes_for(&topo, 32, 25);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let apple = OptimizationEngine::new(EngineConfig::default())
            .place(&classes, &orch)
            .unwrap();
        let ingress = ingress_per_class(&classes);
        assert!(
            apple.total_cores() < ingress.total_cores(),
            "APPLE {} >= ingress {}",
            apple.total_cores(),
            ingress.total_cores()
        );
    }

    #[test]
    fn steering_changes_paths() {
        let topo = zoo::internet2();
        let classes = classes_for(&topo, 33, 20);
        let steering = TrafficSteering::with_central_sites(&topo);
        let (changed_frac, extra_hops) = steering.interference(&topo, &classes);
        assert!(
            changed_frac > 0.5,
            "steering barely interfered: {changed_frac}"
        );
        assert!(extra_hops > 0.0);
    }

    #[test]
    fn steered_path_visits_sites_in_order() {
        let topo = zoo::internet2();
        let classes = classes_for(&topo, 34, 5);
        let steering = TrafficSteering::with_central_sites(&topo);
        let c = &classes.classes()[0];
        let s = steering.steer(&topo, &c.path, &c.chain).unwrap();
        let mut cursor = 0usize;
        for nf in c.chain.nfs() {
            let site = steering.sites[nf];
            let pos = s.steered_path[cursor..]
                .iter()
                .position(|&n| n == site)
                .expect("site on steered path");
            cursor += pos;
        }
    }

    #[test]
    fn steering_trades_instances_for_interference() {
        let topo = zoo::internet2();
        let classes = classes_for(&topo, 35, 20);
        let orch = ResourceOrchestrator::with_uniform_hosts(&topo, 64);
        let apple = OptimizationEngine::new(EngineConfig::default())
            .place(&classes, &orch)
            .unwrap();
        let steering = steering_consolidation(&topo, &classes);
        // Perfect consolidation beats APPLE on cores...
        assert!(
            steering.total_cores() <= apple.total_cores(),
            "steering {} should consolidate below APPLE {}",
            steering.total_cores(),
            apple.total_cores()
        );
        // ...but interferes with nearly everything.
        assert!(steering.path_change_frac > 0.5);
        assert!(steering.mean_extra_hops > 0.0);
    }

    #[test]
    fn ingress_rounds_up_to_capacity() {
        // One 2000-Mbps class with a 900-Mbps firewall needs 3 instances.
        use crate::classes::{ClassId, EquivalenceClass};
        use crate::policy::PolicyChain;
        use apple_traffic::Flow;
        let path = Path::new(vec![NodeId(0), NodeId(1)]).unwrap();
        let class = EquivalenceClass {
            id: ClassId(0),
            path,
            chain: PolicyChain::new(vec![NfType::Firewall]).unwrap(),
            rate_mbps: 2_000.0,
            src_prefix: (Flow::prefix_of(NodeId(0)), 24),
            dst_prefix: (Flow::prefix_of(NodeId(1)), 24),
            proto: None,
            dst_ports: Vec::new(),
        };
        let plan = ingress_per_class(&ClassSet::from_classes(vec![class]));
        assert_eq!(plan.q[&(0, NfType::Firewall)], 3);
        assert_eq!(plan.total_cores(), 12);
    }
}
