//! Hop-count shortest paths with node/edge filtering.
//!
//! Used to pre-compute candidate route sets (the paper chooses "routes
//! with shorter lengths/hops" by "any established shortest path finding
//! algorithm, such as Dijkstra's Algorithm", §III-C) and as the inner
//! search of Yen's algorithm in [`crate::ksp`].
//!
//! [`shortest_path_filtered`], [`distances_from`] and every search of
//! Yen's algorithm run through one layered breadth-first search on a
//! reusable `Workspace`: its hop, predecessor and layer arrays and its
//! ban flags are reset in place, so Yen's many spur searches allocate
//! nothing per search. Bans are dense flags indexed by id.
//!
//! Ties follow one exact rule. Layer `d + 1` holds the unlabelled,
//! unbanned nodes that a node of layer `d` reaches over an unbanned
//! edge. A layer is expanded in ascending node id, each node's
//! neighbours in adjacency order, and a node is labelled once, by the
//! first edge that reaches it. So a node's predecessor is the
//! smallest-id node of the previous layer that reaches it over an
//! unbanned edge, and the search stops as soon as the destination is
//! labelled. That is the path Dijkstra returns under unit weights when
//! it pops `(distance, node id)` in ascending order and relabels a node
//! only on a strict improvement.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::Path;

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

    /// `true` when the filter holds exactly one flag per node and edge
    /// of `graph`, as [`SearchFilter::fitted`] leaves it.
    pub(crate) fn fits(&self, graph: &Graph) -> bool {
        self.banned_nodes.len() == graph.node_count()
            && self.banned_edges.len() == graph.edge_count()
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

/// Hop count of a node the current search has not labelled.
const UNLABELLED: u32 = u32::MAX;

/// Reusable state for breadth-first searches on one graph: every array
/// is sized to the graph once and reset in place per search.
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    /// Hops from the source to each labelled node, else [`UNLABELLED`].
    hops: Vec<u32>,
    /// Predecessor node and edge of each labelled node but the source.
    prev: Vec<(NodeId, EdgeId)>,
    /// The labelled nodes, layer by layer, each layer in ascending id.
    order: Vec<NodeId>,
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
            hops: vec![UNLABELLED; n],
            prev: vec![(NodeId(u32::MAX), EdgeId(u32::MAX)); n],
            order: Vec::with_capacity(n),
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

    /// Finds the fewest-hop `src`→`dst` path under the overlay, ties
    /// broken by the module's rule, and leaves it in the reverse
    /// buffers. Returns `false`, and leaves the buffers unspecified,
    /// when either endpoint is out of bounds or banned or `dst` is
    /// unreachable.
    pub(crate) fn shortest_path(&mut self, graph: &Graph, src: NodeId, dst: NodeId) -> bool {
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
        self.search(graph, src, Some(dst));
        if self.hops[dst.index()] == UNLABELLED {
            return false;
        }
        let mut cur = dst;
        while cur != src {
            let (p, e) = self.prev[cur.index()];
            self.rev_nodes.push(p);
            self.rev_edges.push(e);
            cur = p;
        }
        true
    }

    /// The crate's one search body: labels nodes from `src` layer by
    /// layer under the overlay until `dst` is labelled (or every
    /// reachable node is, when `dst` is `None`). `src` must be in bounds.
    fn search(&mut self, graph: &Graph, src: NodeId, dst: Option<NodeId>) {
        self.hops.fill(UNLABELLED);
        self.order.clear();
        self.hops[src.index()] = 0;
        self.order.push(src);
        let mut layer = 0..1;
        let mut depth = 0;
        while !layer.is_empty() {
            depth += 1;
            for i in layer.clone() {
                let node = self.order[i];
                for (next, edge) in graph.neighbors(node) {
                    if self.hops[next.index()] != UNLABELLED
                        || self.bans.banned_nodes[next.index()]
                        || self.bans.banned_edges[edge.index()]
                    {
                        continue;
                    }
                    self.hops[next.index()] = depth;
                    self.prev[next.index()] = (node, edge);
                    if Some(next) == dst {
                        return;
                    }
                    self.order.push(next);
                }
            }
            layer = layer.end..self.order.len();
            self.order[layer.clone()].sort_unstable();
        }
    }
}

/// Computes the fewest-hop path from `src` to `dst`, ignoring anything
/// banned by `filter`. Among equally short paths it returns the one the
/// module's tie rule picks.
///
/// Returns `None` when `dst` is unreachable (or either endpoint is banned
/// or out of bounds).
///
/// # Example
///
/// ```
/// use qdn_graph::{Graph, dijkstra::{shortest_path_filtered, SearchFilter}};
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
/// let direct = shortest_path_filtered(&g, a, c, &SearchFilter::new()).unwrap();
/// assert_eq!(direct.hops(), 1);
///
/// let mut filter = SearchFilter::new();
/// filter.ban_edge(g.edge_between(a, c).unwrap());
/// let detour = shortest_path_filtered(&g, a, c, &filter).unwrap();
/// assert_eq!(detour.hops(), 2);
/// assert!(detour.edges().contains(&ab));
/// # Ok(())
/// # }
/// ```
pub fn shortest_path_filtered(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    filter: &SearchFilter,
) -> Option<Path> {
    let mut ws = Workspace::new(graph);
    ws.bans = filter.fitted(graph);
    ws.shortest_path(graph, src, dst).then(|| ws.path(graph))
}

/// Convenience wrapper: unfiltered shortest path.
///
/// See [`shortest_path_filtered`] for details and an example.
pub fn shortest_path(graph: &Graph, src: NodeId, dst: NodeId) -> Option<Path> {
    shortest_path_filtered(graph, src, dst, &SearchFilter::new())
}

/// Single-source hop counts from `src` to every node, `None` for a node
/// `src` cannot reach. Returns an empty vector if `src` is out of bounds.
pub fn distances_from(graph: &Graph, src: NodeId) -> Vec<Option<usize>> {
    if graph.check_node(src).is_err() {
        return Vec::new();
    }
    let mut ws = Workspace::new(graph);
    ws.search(graph, src, None);
    ws.hops
        .iter()
        .map(|&h| (h != UNLABELLED).then_some(h as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the diamond `a - b - d`, `a - c - d`.
    fn diamond() -> (Graph, [NodeId; 4]) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(c, d).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn shortest_by_hops() {
        let (g, [a, _b, _c, d]) = diamond();
        let p = shortest_path(&g, a, d).unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), d);
    }

    #[test]
    fn ties_go_to_the_smallest_id_predecessor() {
        // 0's adjacency lists 2 before 1, yet layer 1 is expanded in
        // ascending id, so 3 is labelled from 1.
        let g = Graph::from_edges(
            4,
            [(0, 2), (0, 1), (2, 3), (1, 3)].map(|(u, v)| (NodeId(u), NodeId(v))),
        )
        .unwrap();
        let p = shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(3)]);
    }

    #[test]
    fn banned_edge_forces_detour() {
        let (g, [a, b, c, d]) = diamond();
        let mut f = SearchFilter::new();
        f.ban_edge(g.edge_between(a, b).unwrap());
        let p = shortest_path_filtered(&g, a, d, &f).unwrap();
        assert_eq!(p.nodes(), &[a, c, d]);
    }

    #[test]
    fn banned_node_forces_detour() {
        let (g, [a, b, c, d]) = diamond();
        let mut f = SearchFilter::new();
        f.ban_node(b);
        let p = shortest_path_filtered(&g, a, d, &f).unwrap();
        assert_eq!(p.nodes(), &[a, c, d]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(shortest_path(&g, a, b).is_none());
    }

    #[test]
    fn banned_endpoint_returns_none() {
        let (g, [a, _b, _c, d]) = diamond();
        let mut f = SearchFilter::new();
        f.ban_node(a);
        assert!(shortest_path_filtered(&g, a, d, &f).is_none());
    }

    #[test]
    fn same_node_gives_trivial_path() {
        let (g, [a, ..]) = diamond();
        let p = shortest_path(&g, a, a).unwrap();
        assert_eq!(p.hops(), 0);
    }

    #[test]
    fn out_of_bounds_returns_none() {
        let (g, [a, ..]) = diamond();
        assert!(shortest_path(&g, a, NodeId(99)).is_none());
    }

    #[test]
    fn distances_from_source() {
        let (g, [a, b, c, d]) = diamond();
        let dist = distances_from(&g, a);
        assert_eq!(dist[a.index()], Some(0));
        assert_eq!(dist[b.index()], Some(1));
        assert_eq!(dist[c.index()], Some(1));
        assert_eq!(dist[d.index()], Some(2));
    }

    #[test]
    fn distances_unreachable_none() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let dist = distances_from(&g, a);
        assert_eq!(dist[b.index()], None);
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
}
