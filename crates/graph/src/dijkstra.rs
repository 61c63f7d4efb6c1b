//! Weighted shortest paths with node/edge filtering.
//!
//! Used to pre-compute candidate route sets (the paper suggests "any
//! established shortest path finding algorithm, such as Dijkstra's
//! Algorithm", §III-C) and as the inner search of Yen's algorithm in
//! [`crate::ksp`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::collections::HashSet;

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::Path;

/// A heap entry ordered by ascending distance (min-heap via reversed cmp).
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so the BinaryHeap (a max-heap) pops the smallest distance.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Restrictions applied during a filtered shortest-path search.
///
/// Yen's algorithm removes "spur" edges and root-path nodes; this type
/// carries those removals without mutating the graph.
#[derive(Debug, Clone, Default)]
pub struct SearchFilter {
    banned_nodes: HashSet<NodeId>,
    banned_edges: HashSet<EdgeId>,
}

impl SearchFilter {
    /// An empty filter: nothing banned.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bans a node (it will never be visited).
    pub fn ban_node(&mut self, node: NodeId) -> &mut Self {
        self.banned_nodes.insert(node);
        self
    }

    /// Bans an edge (it will never be traversed).
    pub fn ban_edge(&mut self, edge: EdgeId) -> &mut Self {
        self.banned_edges.insert(edge);
        self
    }

    /// Returns `true` if `node` is banned.
    pub fn node_banned(&self, node: NodeId) -> bool {
        self.banned_nodes.contains(&node)
    }

    /// Returns `true` if `edge` is banned.
    pub fn edge_banned(&self, edge: EdgeId) -> bool {
        self.banned_edges.contains(&edge)
    }
}

/// Computes the minimum-weight path from `src` to `dst` under `weight`,
/// ignoring anything banned by `filter`.
///
/// Returns `None` when `dst` is unreachable (or either endpoint is banned
/// or out of bounds). Edge weights must be non-negative; this is the
/// caller's responsibility (hop counts and physical lengths always are).
///
/// # Example
///
/// ```
/// use qdn_graph::{Graph, dijkstra::{shortest_path_filtered, SearchFilter}, paths::hop_weight};
///
/// # fn main() -> Result<(), qdn_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// let ab = g.add_edge(a, b)?;
/// g.add_edge(b, c)?;
/// g.add_edge(a, c)?;
///
/// let direct = shortest_path_filtered(&g, a, c, &hop_weight, &SearchFilter::new()).unwrap();
/// assert_eq!(direct.hops(), 1);
///
/// let mut filter = SearchFilter::new();
/// filter.ban_edge(g.edge_between(a, c).unwrap());
/// let detour = shortest_path_filtered(&g, a, c, &hop_weight, &filter).unwrap();
/// assert_eq!(detour.hops(), 2);
/// assert!(detour.edges().contains(&ab));
/// # Ok(())
/// # }
/// ```
pub fn shortest_path_filtered<F>(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    weight: &F,
    filter: &SearchFilter,
) -> Option<Path>
where
    F: Fn(EdgeId) -> f64,
{
    graph.check_node(src).ok()?;
    graph.check_node(dst).ok()?;
    if filter.node_banned(src) || filter.node_banned(dst) {
        return None;
    }
    if src == dst {
        return Path::trivial(graph, src).ok();
    }

    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });

    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        if node == dst {
            break;
        }
        for (next, edge) in graph.neighbors(node) {
            if settled[next.index()] || filter.node_banned(next) || filter.edge_banned(edge) {
                continue;
            }
            let w = weight(edge);
            debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let nd = d + w;
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                prev[next.index()] = Some((node, edge));
                heap.push(HeapEntry {
                    dist: nd,
                    node: next,
                });
            }
        }
    }

    if !dist[dst.index()].is_finite() {
        return None;
    }

    // Reconstruct backwards.
    let mut nodes = vec![dst];
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, e) = prev[cur.index()].expect("finite distance implies predecessor");
        nodes.push(p);
        edges.push(e);
        cur = p;
    }
    nodes.reverse();
    edges.reverse();
    Some(Path::new(graph, nodes, edges).expect("Dijkstra builds valid paths"))
}

/// Convenience wrapper: unfiltered shortest path.
///
/// See [`shortest_path_filtered`] for details and an example.
pub fn shortest_path<F>(graph: &Graph, src: NodeId, dst: NodeId, weight: &F) -> Option<Path>
where
    F: Fn(EdgeId) -> f64,
{
    shortest_path_filtered(graph, src, dst, weight, &SearchFilter::new())
}

/// Single-source distances (in `weight` units) from `src` to every node.
///
/// Unreachable nodes get `f64::INFINITY`. Returns an empty vector if `src`
/// is out of bounds.
pub fn distances_from<F>(graph: &Graph, src: NodeId, weight: &F) -> Vec<f64>
where
    F: Fn(EdgeId) -> f64,
{
    if graph.check_node(src).is_err() {
        return Vec::new();
    }
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if settled[node.index()] {
            continue;
        }
        settled[node.index()] = true;
        for (next, edge) in graph.neighbors(node) {
            if settled[next.index()] {
                continue;
            }
            let nd = d + weight(edge);
            if nd < dist[next.index()] {
                dist[next.index()] = nd;
                heap.push(HeapEntry {
                    dist: nd,
                    node: next,
                });
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::hop_weight;

    /// Builds the weighted graph:
    ///
    /// ```text
    ///     a --1-- b --1-- d
    ///      \              /
    ///       --- 1.5 c 1 --
    /// ```
    fn weighted() -> (Graph, [NodeId; 4], impl Fn(EdgeId) -> f64) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        let ab = g.add_edge(a, b).unwrap();
        let bd = g.add_edge(b, d).unwrap();
        let ac = g.add_edge(a, c).unwrap();
        let cd = g.add_edge(c, d).unwrap();
        let weights = move |e: EdgeId| -> f64 {
            if e == ab || e == bd || e == cd {
                1.0
            } else if e == ac {
                1.5
            } else {
                unreachable!()
            }
        };
        (g, [a, b, c, d], weights)
    }

    #[test]
    fn shortest_by_hops() {
        let (g, [a, _b, _c, d], _) = weighted();
        let p = shortest_path(&g, a, d, &hop_weight).unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), d);
    }

    #[test]
    fn shortest_by_weight_prefers_cheaper_route() {
        let (g, [a, b, _c, d], w) = weighted();
        let p = shortest_path(&g, a, d, &w).unwrap();
        // a-b-d costs 2.0; a-c-d costs 2.5.
        assert_eq!(p.nodes(), &[a, b, d]);
    }

    #[test]
    fn banned_edge_forces_detour() {
        let (g, [a, b, c, d], w) = weighted();
        let mut f = SearchFilter::new();
        f.ban_edge(g.edge_between(a, b).unwrap());
        let p = shortest_path_filtered(&g, a, d, &w, &f).unwrap();
        assert_eq!(p.nodes(), &[a, c, d]);
        let _ = b;
    }

    #[test]
    fn banned_node_forces_detour() {
        let (g, [a, b, c, d], w) = weighted();
        let mut f = SearchFilter::new();
        f.ban_node(b);
        let p = shortest_path_filtered(&g, a, d, &w, &f).unwrap();
        assert_eq!(p.nodes(), &[a, c, d]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(shortest_path(&g, a, b, &hop_weight).is_none());
    }

    #[test]
    fn banned_endpoint_returns_none() {
        let (g, [a, _b, _c, d], w) = weighted();
        let mut f = SearchFilter::new();
        f.ban_node(a);
        assert!(shortest_path_filtered(&g, a, d, &w, &f).is_none());
    }

    #[test]
    fn same_node_gives_trivial_path() {
        let (g, [a, ..], w) = weighted();
        let p = shortest_path(&g, a, a, &w).unwrap();
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn out_of_bounds_returns_none() {
        let (g, [a, ..], w) = weighted();
        assert!(shortest_path(&g, a, NodeId(99), &w).is_none());
    }

    #[test]
    fn distances_from_source() {
        let (g, [a, b, c, d], w) = weighted();
        let dist = distances_from(&g, a, &w);
        assert_eq!(dist[a.index()], 0.0);
        assert_eq!(dist[b.index()], 1.0);
        assert_eq!(dist[c.index()], 1.5);
        assert_eq!(dist[d.index()], 2.0);
    }

    #[test]
    fn distances_unreachable_infinite() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let dist = distances_from(&g, a, &hop_weight);
        assert!(dist[b.index()].is_infinite());
    }

    #[test]
    fn heap_entry_ordering_is_min_first() {
        let mut heap = BinaryHeap::new();
        heap.push(HeapEntry {
            dist: 2.0,
            node: NodeId(0),
        });
        heap.push(HeapEntry {
            dist: 1.0,
            node: NodeId(1),
        });
        heap.push(HeapEntry {
            dist: 3.0,
            node: NodeId(2),
        });
        assert_eq!(heap.pop().unwrap().dist, 1.0);
        assert_eq!(heap.pop().unwrap().dist, 2.0);
        assert_eq!(heap.pop().unwrap().dist, 3.0);
    }
}
