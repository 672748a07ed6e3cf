//! Shortest-path machinery (Dijkstra) with deterministic tie-breaking.
//!
//! Interference freedom in APPLE means the orchestrator consumes paths that
//! routing computed; in this reproduction routing is weighted shortest-path
//! with ties broken by lexicographically smallest predecessor so that every
//! run of an experiment sees identical paths.

use crate::graph::{Graph, GraphError, NodeId};
use crate::path::Path;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a single-source shortest-path run.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    source: NodeId,
    dist: Vec<f64>,
    prev: Vec<Option<NodeId>>,
}

impl ShortestPathTree {
    /// Distance from the source to `to`, or `None` if unreachable.
    pub fn distance(&self, to: NodeId) -> Option<f64> {
        let d = *self.dist.get(to.0)?;
        if d.is_finite() {
            Some(d)
        } else {
            None
        }
    }

    /// The source this tree was computed from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Reconstructs the path from the source to `to`.
    pub fn path_to(&self, to: NodeId) -> Option<Path> {
        if to.0 >= self.dist.len() || !self.dist[to.0].is_finite() {
            return None;
        }
        let mut rev = vec![to];
        let mut cur = to;
        while let Some(p) = self.prev[cur.0] {
            rev.push(p);
            cur = p;
        }
        rev.reverse();
        debug_assert_eq!(rev[0], self.source);
        Some(Path::new(rev).expect("dijkstra paths are loop-free"))
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (dist, node id); node id tiebreak gives determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs Dijkstra from `source` over link weights.
///
/// # Errors
///
/// Returns [`GraphError::UnknownNode`] if `source` is out of range.
pub fn dijkstra(graph: &Graph, source: NodeId) -> Result<ShortestPathTree, GraphError> {
    dijkstra_avoiding(graph, source, |_, _| true)
}

/// Runs Dijkstra from `source` over the links `usable(u, v)` admits when
/// relaxed from `u` towards `v`; every other link is treated as absent. For
/// a `usable` symmetric in its arguments, the tree equals [`dijkstra`] on a
/// copy of `graph` without those links, since neighbours are visited in
/// ascending id order either way — which is what lets Yen's spur search
/// filter links in place instead of copying the graph.
///
/// # Errors
///
/// Returns [`GraphError::UnknownNode`] if `source` is out of range.
pub(crate) fn dijkstra_avoiding(
    graph: &Graph,
    source: NodeId,
    usable: impl Fn(NodeId, NodeId) -> bool,
) -> Result<ShortestPathTree, GraphError> {
    graph.node(source)?;
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut done = vec![false; n];
    dist[source.0] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        dist: 0.0,
        node: source,
    });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u.0] {
            continue;
        }
        done[u.0] = true;
        for (v, lid) in graph.incident(u) {
            if !usable(u, v) {
                continue;
            }
            let w = graph.link(lid).expect("incident links exist").weight;
            let nd = d + w;
            let better = nd < dist[v.0] || (nd == dist[v.0] && prev[v.0].is_some_and(|p| u < p));
            if better {
                dist[v.0] = nd;
                prev[v.0] = Some(u);
                heap.push(HeapEntry { dist: nd, node: v });
            }
        }
    }
    Ok(ShortestPathTree { source, dist, prev })
}

impl Graph {
    /// Convenience wrapper: deterministic weighted shortest path between two
    /// switches, or `None` when disconnected.
    ///
    /// # Example
    ///
    /// ```
    /// use apple_topology::{Graph, NodeId};
    /// let mut g = Graph::new();
    /// let a = g.add_node("a", 0);
    /// let b = g.add_node("b", 0);
    /// let c = g.add_node("c", 0);
    /// g.add_link(a, b, 1.0, 1.0)?;
    /// g.add_link(b, c, 1.0, 1.0)?;
    /// let p = g.shortest_path(a, c).unwrap();
    /// assert_eq!(p.nodes(), &[a, b, c]);
    /// # Ok::<(), apple_topology::GraphError>(())
    /// ```
    pub fn shortest_path(&self, from: NodeId, to: NodeId) -> Option<Path> {
        dijkstra(self, from).ok()?.path_to(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node diamond: a-b-d and a-c-d, with the b branch cheaper.
    fn diamond() -> (Graph, [NodeId; 4]) {
        let mut g = Graph::new();
        let a = g.add_node("a", 0);
        let b = g.add_node("b", 0);
        let c = g.add_node("c", 0);
        let d = g.add_node("d", 0);
        g.add_link(a, b, 1.0, 1.0).unwrap();
        g.add_link(b, d, 1.0, 1.0).unwrap();
        g.add_link(a, c, 1.0, 2.0).unwrap();
        g.add_link(c, d, 1.0, 2.0).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn picks_cheaper_branch() {
        let (g, [a, b, _, d]) = diamond();
        let p = g.shortest_path(a, d).unwrap();
        assert_eq!(p.nodes(), &[a, b, d]);
        let t = dijkstra(&g, a).unwrap();
        assert_eq!(t.distance(d), Some(2.0));
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::new();
        let a = g.add_node("a", 0);
        let b = g.add_node("b", 0);
        assert!(g.shortest_path(a, b).is_none());
        let t = dijkstra(&g, a).unwrap();
        assert_eq!(t.distance(b), None);
    }

    #[test]
    fn source_to_source_is_single_node() {
        let (g, [a, ..]) = diamond();
        let p = g.shortest_path(a, a).unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Two equal-cost 2-hop routes a->b->d / a->c->d; lower-id
        // predecessor must win every time.
        let mut g = Graph::new();
        let a = g.add_node("a", 0);
        let b = g.add_node("b", 0);
        let c = g.add_node("c", 0);
        let d = g.add_node("d", 0);
        g.add_link(a, b, 1.0, 1.0).unwrap();
        g.add_link(a, c, 1.0, 1.0).unwrap();
        g.add_link(b, d, 1.0, 1.0).unwrap();
        g.add_link(c, d, 1.0, 1.0).unwrap();
        for _ in 0..10 {
            let p = g.shortest_path(a, d).unwrap();
            assert_eq!(p.nodes(), &[a, b, d]);
        }
    }

    #[test]
    fn unknown_source_errors() {
        let g = Graph::new();
        assert!(dijkstra(&g, NodeId(0)).is_err());
    }
}
