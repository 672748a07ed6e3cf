//! k-shortest paths (Yen's algorithm) and ECMP enumeration.
//!
//! Data-center topologies such as UNIV1 route over multiple equal-cost
//! paths; Fig. 10 of the paper attributes UNIV1's larger TCAM savings to
//! exactly this multipath behaviour (classification rules would otherwise be
//! replicated along every equal-cost path). This module supplies the ECMP
//! path sets the traffic layer spreads classes across.

use crate::graph::{Graph, NodeId};
use crate::path::Path;
use crate::spf::{dijkstra, dijkstra_avoiding, ShortestPathTree};
use std::collections::BTreeSet;

/// Enumerates up to `k` loop-free shortest paths from `from` to `to` in
/// nondecreasing cost order (Yen's algorithm). Deterministic: the first
/// path is Dijkstra's, whose ties go to the smallest predecessor id; ties
/// among later paths go by the lexicographic order of the node sequence.
///
/// Returns an empty vector when the endpoints are disconnected or `k == 0`.
pub fn k_shortest_paths(graph: &Graph, from: NodeId, to: NodeId, k: usize) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    let Some(first) = graph.shortest_path(from, to) else {
        return Vec::new();
    };
    yen(graph, first, to, k, f64::INFINITY)
}

/// Yen's loop from the shortest path `first`: up to `k` paths, stopping
/// early once the cheapest remaining candidate costs more than `max_cost`
/// (every later path would cost at least as much).
fn yen(graph: &Graph, first: Path, to: NodeId, k: usize, max_cost: f64) -> Vec<Path> {
    let mut found = vec![first];
    // Candidate set ordered by (cost, node sequence).
    let mut candidates: BTreeSet<(OrderedCost, Vec<NodeId>)> = BTreeSet::new();

    while found.len() < k {
        let last = found.last().expect("found is non-empty").clone();
        for spur_idx in 0..last.len() - 1 {
            let spur_node = last.nodes()[spur_idx];
            let root = &last.nodes()[..=spur_idx];

            // Ban the links leaving the spur node on previous paths that
            // share this root, and the root nodes except the spur.
            let banned_links: Vec<(NodeId, NodeId)> = found
                .iter()
                .filter(|p| p.len() > spur_idx + 1 && p.nodes()[..=spur_idx] == *root)
                .map(|p| link_key(p.nodes()[spur_idx], p.nodes()[spur_idx + 1]))
                .collect();
            let banned_nodes = &root[..spur_idx];

            if let Some(spur_path) = spur_path(graph, spur_node, to, banned_nodes, &banned_links) {
                let mut total = root.to_vec();
                total.extend_from_slice(&spur_path.nodes()[1..]);
                if let Ok(p) = Path::new_in(graph, total) {
                    if !found.contains(&p) {
                        let cost = path_cost(graph, &p);
                        candidates.insert((OrderedCost(cost), p.nodes().to_vec()));
                    }
                }
            }
        }
        let Some((cost, nodes)) = candidates.pop_first() else {
            break;
        };
        if cost.0 > max_cost {
            break;
        }
        found.push(Path::new(nodes).expect("candidates are loop-free"));
    }
    found
}

/// Enumerates all equal-cost shortest paths between two switches, up to
/// `limit` paths, in deterministic order. This is the ECMP set used for
/// data-center routing.
pub fn ecmp_paths(graph: &Graph, from: NodeId, to: NodeId, limit: usize) -> Vec<Path> {
    match dijkstra(graph, from) {
        Ok(tree) => ecmp_paths_in(graph, &tree, to, limit),
        Err(_) => Vec::new(),
    }
}

/// [`ecmp_paths`] from the tree of its source, so that routing many pairs
/// that share a source runs one Dijkstra instead of one per pair.
pub fn ecmp_paths_in(
    graph: &Graph,
    tree: &ShortestPathTree,
    to: NodeId,
    limit: usize,
) -> Vec<Path> {
    let (Some(best), Some(first)) = (tree.distance(to), tree.path_to(to)) else {
        return Vec::new();
    };
    let mut all = yen(graph, first, to, limit.max(1), best + 1e-9);
    all.retain(|p| (path_cost(graph, p) - best).abs() < 1e-9);
    all
}

fn path_cost(graph: &Graph, p: &Path) -> f64 {
    p.nodes()
        .windows(2)
        .map(|w| {
            graph
                .link_between(w[0], w[1])
                .and_then(|l| graph.link(l).ok())
                .map_or(f64::INFINITY, |l| l.weight)
        })
        .sum()
}

/// An undirected link as its ordered endpoint pair.
fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// Shortest path from `from` to `to` with the banned nodes and links taken
/// out of the graph.
fn spur_path(
    graph: &Graph,
    from: NodeId,
    to: NodeId,
    banned_nodes: &[NodeId],
    banned_links: &[(NodeId, NodeId)],
) -> Option<Path> {
    let usable = |u: NodeId, v: NodeId| {
        !banned_nodes.contains(&u)
            && !banned_nodes.contains(&v)
            && !banned_links.contains(&link_key(u, v))
    };
    dijkstra_avoiding(graph, from, usable).ok()?.path_to(to)
}

/// Total-ordered f64 wrapper for use in BTreeSet keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedCost(f64);

impl Eq for OrderedCost {}

impl PartialOrd for OrderedCost {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedCost {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use apple_rng::rngs::StdRng;
    use apple_rng::{Rng, SeedableRng};

    /// a - b - d
    ///  \     /
    ///   - c -       plus a direct long a-d link.
    fn multi() -> (Graph, [NodeId; 4]) {
        let mut g = Graph::new();
        let a = g.add_node("a", 0);
        let b = g.add_node("b", 0);
        let c = g.add_node("c", 0);
        let d = g.add_node("d", 0);
        g.add_link(a, b, 1.0, 1.0).unwrap();
        g.add_link(b, d, 1.0, 1.0).unwrap();
        g.add_link(a, c, 1.0, 1.0).unwrap();
        g.add_link(c, d, 1.0, 1.0).unwrap();
        g.add_link(a, d, 1.0, 5.0).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn finds_three_paths_in_cost_order() {
        let (g, [a, .., d]) = multi();
        let ps = k_shortest_paths(&g, a, d, 5);
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].hops(), 2);
        assert_eq!(ps[1].hops(), 2);
        assert_eq!(ps[2].nodes().len(), 2); // direct expensive link last
    }

    #[test]
    fn k_limits_result() {
        let (g, [a, .., d]) = multi();
        assert_eq!(k_shortest_paths(&g, a, d, 1).len(), 1);
        assert_eq!(k_shortest_paths(&g, a, d, 0).len(), 0);
    }

    #[test]
    fn ecmp_returns_only_equal_cost() {
        let (g, [a, .., d]) = multi();
        let ps = ecmp_paths(&g, a, d, 8);
        assert_eq!(ps.len(), 2);
        assert!(ps.iter().all(|p| p.hops() == 2));
    }

    #[test]
    fn disconnected_yields_empty() {
        let mut g = Graph::new();
        let a = g.add_node("a", 0);
        let b = g.add_node("b", 0);
        assert!(k_shortest_paths(&g, a, b, 3).is_empty());
        assert!(ecmp_paths(&g, a, b, 3).is_empty());
    }

    #[test]
    fn paths_are_loop_free_and_valid() {
        let (g, [a, .., d]) = multi();
        for p in k_shortest_paths(&g, a, d, 10) {
            assert!(Path::new_in(&g, p.nodes().to_vec()).is_ok());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let (g, [a, .., d]) = multi();
        let p1 = k_shortest_paths(&g, a, d, 5);
        let p2 = k_shortest_paths(&g, a, d, 5);
        assert_eq!(p1, p2);
    }

    /// The spur search as it was before it filtered links in place: copy
    /// the graph without the banned nodes' links and the banned links, and
    /// run a plain Dijkstra on the copy.
    fn filtered_shortest_path(
        graph: &Graph,
        from: NodeId,
        to: NodeId,
        banned_nodes: &BTreeSet<NodeId>,
        banned_links: &BTreeSet<(NodeId, NodeId)>,
    ) -> Option<Path> {
        let mut g = Graph::new();
        for id in graph.node_ids() {
            let n = graph.node(id).expect("iterating valid ids");
            g.add_node(n.name.clone(), n.tier);
        }
        for lid in graph.link_ids() {
            let l = graph.link(lid).expect("iterating valid ids");
            let key = (l.a.min(l.b), l.a.max(l.b));
            if banned_links.contains(&key)
                || banned_nodes.contains(&l.a)
                || banned_nodes.contains(&l.b)
            {
                continue;
            }
            g.add_link(l.a, l.b, l.capacity_mbps, l.weight)
                .expect("rebuild preserves validity");
        }
        g.shortest_path(from, to)
    }

    #[test]
    fn spur_search_equals_graph_rebuild() {
        let mut graphs = vec![zoo::univ1().graph, zoo::fat_tree(4).graph];
        for s in 0..4 {
            graphs.push(zoo::jellyfish(20, 4, s).graph);
            graphs.push(zoo::random_connected(25, 3.0, s).graph);
        }
        for (gi, g) in graphs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(gi as u64);
            let n = g.node_count();
            for _ in 0..60 {
                let from = NodeId(rng.gen_range(0..n));
                let to = NodeId(rng.gen_range(0..n));
                let p_node = rng.gen_range(0.0..0.3);
                let p_link = rng.gen_range(0.0..0.4);
                let banned_nodes: Vec<NodeId> =
                    g.node_ids().filter(|_| rng.gen_bool(p_node)).collect();
                let banned_links: Vec<(NodeId, NodeId)> = g
                    .link_ids()
                    .map(|l| g.link(l).unwrap())
                    .map(|l| link_key(l.a, l.b))
                    .filter(|_| rng.gen_bool(p_link))
                    .collect();
                assert_eq!(
                    spur_path(g, from, to, &banned_nodes, &banned_links),
                    filtered_shortest_path(
                        g,
                        from,
                        to,
                        &banned_nodes.iter().copied().collect(),
                        &banned_links.iter().copied().collect(),
                    ),
                    "graph {gi}, {from} -> {to}"
                );
            }
        }
    }

    /// Every simple path from `from` to `to`, by depth-first search.
    fn all_simple_paths(g: &Graph, from: NodeId, to: NodeId) -> Vec<Path> {
        fn dfs(g: &Graph, to: NodeId, stack: &mut Vec<NodeId>, out: &mut Vec<Path>) {
            let u = *stack.last().expect("stack starts at the source");
            if u == to {
                out.push(Path::new(stack.clone()).expect("dfs paths are loop-free"));
                return;
            }
            for v in g.neighbors(u) {
                if !stack.contains(&v) {
                    stack.push(v);
                    dfs(g, to, stack, out);
                    stack.pop();
                }
            }
        }
        let mut out = Vec::new();
        dfs(g, to, &mut vec![from], &mut out);
        out
    }

    #[test]
    fn yen_and_ecmp_match_brute_force() {
        let mut graphs = vec![multi().0, zoo::univ1().graph, zoo::fat_tree(4).graph];
        for s in 0..4 {
            graphs.push(zoo::jellyfish(12, 3, s).graph);
        }
        for (gi, g) in graphs.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(gi as u64);
            let n = g.node_count();
            for _ in 0..12 {
                let from = NodeId(rng.gen_range(0..n));
                let to = NodeId(rng.gen_range(0..n));
                let brute = all_simple_paths(g, from, to);
                let mut costs: Vec<f64> = brute.iter().map(|p| path_cost(g, p)).collect();
                costs.sort_by(f64::total_cmp);
                for k in [1, 2, 3, 6, 8] {
                    let ps = k_shortest_paths(g, from, to, k);
                    assert_eq!(ps.len(), k.min(brute.len()), "graph {gi}, {from} -> {to}");
                    for (i, p) in ps.iter().enumerate() {
                        assert_eq!((p.first(), p.last()), (from, to));
                        assert!(Path::new_in(g, p.nodes().to_vec()).is_ok());
                        assert!(!ps[..i].contains(p), "duplicate path {p:?}");
                        assert!((path_cost(g, p) - costs[i]).abs() < 1e-9, "graph {gi}");
                    }
                    for w in ps.windows(2) {
                        assert!(path_cost(g, &w[0]) <= path_cost(g, &w[1]));
                    }
                }
                let best_count = costs.iter().filter(|&&c| c - costs[0] < 1e-9).count();
                for limit in [1, 2, 4, 8] {
                    let ps = ecmp_paths(g, from, to, limit);
                    assert_eq!(
                        ps.len(),
                        limit.min(best_count),
                        "graph {gi}, {from} -> {to}"
                    );
                    assert!(ps.iter().all(|p| (path_cost(g, p) - costs[0]).abs() < 1e-9));
                }
            }
        }
    }
}
