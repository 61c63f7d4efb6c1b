//! Weighted shortest paths with node/edge filtering.
//!
//! Used to pre-compute candidate route sets (the paper suggests "any
//! established shortest path finding algorithm, such as Dijkstra's
//! Algorithm", §III-C) and as the inner search of Yen's algorithm in
//! [`crate::ksp`].
//!
//! [`shortest_path_filtered`], [`distances_from`] and every search of
//! Yen's algorithm run through one Dijkstra body on a reusable
//! [`Workspace`]: its distance, predecessor and settled arrays, heap and
//! ban flags are reset in place, so Yen's many spur searches allocate
//! nothing per search. Bans are dense flags indexed by id, not hash sets.
//! None of this changes a result: nodes still pop in `(distance, node id)`
//! order through `total_cmp`, neighbours are still scanned in adjacency
//! order, a label still improves only on a strictly smaller distance, and
//! the search still stops when the destination pops — so every path and
//! distance is the one the allocating version returned.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// carries those removals without mutating the graph. Bans are stored as
/// one flag per id, grown on demand: an id past the stored length reads as
/// not banned.
#[derive(Debug, Clone, Default)]
pub struct SearchFilter {
    banned_nodes: Vec<bool>,
    banned_edges: Vec<bool>,
}

/// Sets flag `i`, growing `flags` with `false` to reach it.
fn raise(flags: &mut Vec<bool>, i: usize) {
    if flags.len() <= i {
        flags.resize(i + 1, false);
    }
    flags[i] = true;
}

/// `flags` truncated or padded with `false` to exactly `len` entries.
fn fit(flags: &[bool], len: usize) -> Vec<bool> {
    let mut out = flags.to_vec();
    out.resize(len, false);
    out
}

impl SearchFilter {
    /// An empty filter: nothing banned.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bans a node (it will never be visited).
    pub fn ban_node(&mut self, node: NodeId) -> &mut Self {
        raise(&mut self.banned_nodes, node.index());
        self
    }

    /// Bans an edge (it will never be traversed).
    pub fn ban_edge(&mut self, edge: EdgeId) -> &mut Self {
        raise(&mut self.banned_edges, edge.index());
        self
    }

    /// Returns `true` if `node` is banned.
    pub fn node_banned(&self, node: NodeId) -> bool {
        self.banned_nodes
            .get(node.index())
            .copied()
            .unwrap_or(false)
    }

    /// Returns `true` if `edge` is banned.
    pub fn edge_banned(&self, edge: EdgeId) -> bool {
        self.banned_edges
            .get(edge.index())
            .copied()
            .unwrap_or(false)
    }

    /// The same bans with exactly one flag per node and edge of `graph`,
    /// so a search can index them directly. Bans on ids outside `graph`
    /// are dropped: no search can reach those ids.
    pub(crate) fn fitted(&self, graph: &Graph) -> SearchFilter {
        SearchFilter {
            banned_nodes: fit(&self.banned_nodes, graph.node_count()),
            banned_edges: fit(&self.banned_edges, graph.edge_count()),
        }
    }
}

/// Reusable state for Dijkstra searches on one graph: every array is
/// sized to the graph once and reset in place per search.
#[derive(Debug)]
pub(crate) struct Workspace {
    dist: Vec<f64>,
    prev: Vec<Option<(NodeId, EdgeId)>>,
    settled: Vec<bool>,
    heap: BinaryHeap<HeapEntry>,
    /// Ban overlay the next search respects, fitted to the graph
    /// ([`SearchFilter::fitted`]).
    pub(crate) bans: SearchFilter,
    /// The last path found, destination first.
    rev_nodes: Vec<NodeId>,
    rev_edges: Vec<EdgeId>,
}

impl Workspace {
    /// A workspace for `graph` with nothing banned.
    pub(crate) fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        Workspace {
            dist: vec![f64::INFINITY; n],
            prev: vec![None; n],
            settled: vec![false; n],
            heap: BinaryHeap::new(),
            bans: SearchFilter::new().fitted(graph),
            rev_nodes: Vec::new(),
            rev_edges: Vec::new(),
        }
    }

    /// Replaces the overlay with `bans`, which must be fitted to this
    /// workspace's graph ([`SearchFilter::fitted`]).
    pub(crate) fn set_bans(&mut self, bans: &SearchFilter) {
        self.bans.banned_nodes.copy_from_slice(&bans.banned_nodes);
        self.bans.banned_edges.copy_from_slice(&bans.banned_edges);
    }

    /// The nodes of the last path found, destination first.
    pub(crate) fn rev_nodes(&self) -> &[NodeId] {
        &self.rev_nodes
    }

    /// The edges of the last path found, destination first.
    pub(crate) fn rev_edges(&self) -> &[EdgeId] {
        &self.rev_edges
    }

    /// The last path found, as a [`Path`] from source to destination.
    pub(crate) fn path(&self, graph: &Graph) -> Path {
        Path::from_valid_parts(
            graph,
            self.rev_nodes.iter().rev().copied().collect(),
            self.rev_edges.iter().rev().copied().collect(),
        )
    }

    /// Finds the minimum-weight `src`→`dst` path under the overlay and
    /// leaves it in the reverse buffers. Returns `false`, and leaves the
    /// buffers unspecified, when either endpoint is out of bounds or
    /// banned or `dst` is unreachable.
    pub(crate) fn shortest_path<F>(
        &mut self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        weight: &F,
    ) -> bool
    where
        F: Fn(EdgeId) -> f64,
    {
        if graph.check_node(src).is_err() || graph.check_node(dst).is_err() {
            return false;
        }
        if self.bans.node_banned(src) || self.bans.node_banned(dst) {
            return false;
        }
        self.rev_nodes.clear();
        self.rev_edges.clear();
        self.rev_nodes.push(dst);
        if src == dst {
            return true;
        }
        self.search(graph, src, Some(dst), weight);
        if !self.dist[dst.index()].is_finite() {
            return false;
        }
        let mut cur = dst;
        while cur != src {
            let (p, e) = self.prev[cur.index()].expect("finite distance implies predecessor");
            self.rev_nodes.push(p);
            self.rev_edges.push(e);
            cur = p;
        }
        true
    }

    /// The crate's one Dijkstra body: settles nodes from `src` under the
    /// overlay until `dst` pops (or the heap empties when `dst` is
    /// `None`). `src` must be in bounds.
    fn search<F>(&mut self, graph: &Graph, src: NodeId, dst: Option<NodeId>, weight: &F)
    where
        F: Fn(EdgeId) -> f64,
    {
        self.dist.fill(f64::INFINITY);
        self.prev.fill(None);
        self.settled.fill(false);
        self.heap.clear();

        self.dist[src.index()] = 0.0;
        self.heap.push(HeapEntry {
            dist: 0.0,
            node: src,
        });

        while let Some(HeapEntry { dist: d, node }) = self.heap.pop() {
            if self.settled[node.index()] {
                continue;
            }
            self.settled[node.index()] = true;
            if Some(node) == dst {
                break;
            }
            for (next, edge) in graph.neighbors(node) {
                if self.settled[next.index()]
                    || self.bans.banned_nodes[next.index()]
                    || self.bans.banned_edges[edge.index()]
                {
                    continue;
                }
                let w = weight(edge);
                debug_assert!(w >= 0.0, "Dijkstra requires non-negative weights");
                let nd = d + w;
                if nd < self.dist[next.index()] {
                    self.dist[next.index()] = nd;
                    self.prev[next.index()] = Some((node, edge));
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: next,
                    });
                }
            }
        }
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
    let mut ws = Workspace::new(graph);
    ws.bans = filter.fitted(graph);
    ws.shortest_path(graph, src, dst, weight)
        .then(|| ws.path(graph))
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
    let mut ws = Workspace::new(graph);
    ws.search(graph, src, None, weight);
    ws.dist
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
    fn filter_ban_past_the_end_leaves_lower_ids_unbanned() {
        let mut f = SearchFilter::new();
        f.ban_node(NodeId(40)).ban_edge(EdgeId(40));
        assert!(f.node_banned(NodeId(40)));
        assert!(f.edge_banned(EdgeId(40)));
        for i in 0..40 {
            assert!(!f.node_banned(NodeId(i)), "node {i}");
            assert!(!f.edge_banned(EdgeId(i)), "edge {i}");
        }
    }

    #[test]
    fn filter_ids_past_stored_length_read_unbanned() {
        let mut f = SearchFilter::new();
        assert!(!f.node_banned(NodeId(0)));
        assert!(!f.edge_banned(EdgeId(u32::MAX)));
        f.ban_node(NodeId(3)).ban_edge(EdgeId(1));
        assert!(!f.node_banned(NodeId(4)));
        assert!(!f.node_banned(NodeId(u32::MAX)));
        assert!(!f.edge_banned(EdgeId(2)));
    }

    #[test]
    fn filter_clone_keeps_bans() {
        let mut f = SearchFilter::new();
        f.ban_node(NodeId(2)).ban_edge(EdgeId(5));
        let g = f.clone();
        assert!(g.node_banned(NodeId(2)));
        assert!(g.edge_banned(EdgeId(5)));
        assert!(!g.node_banned(NodeId(5)));
        assert!(!g.edge_banned(EdgeId(2)));
    }

    #[test]
    fn filter_double_ban_is_a_no_op() {
        let mut once = SearchFilter::new();
        once.ban_node(NodeId(7)).ban_edge(EdgeId(3));
        let mut twice = once.clone();
        twice.ban_node(NodeId(7)).ban_edge(EdgeId(3));
        assert_eq!(twice.banned_nodes, once.banned_nodes);
        assert_eq!(twice.banned_edges, once.banned_edges);
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
