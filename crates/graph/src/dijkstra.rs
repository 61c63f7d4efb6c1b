//! Hop-count shortest paths with node/edge filtering.
//!
//! Used to pre-compute candidate route sets (the paper chooses "routes
//! with shorter lengths/hops" by "any established shortest path finding
//! algorithm, such as Dijkstra's Algorithm", §III-C) and as the inner
//! search of Yen's algorithm in [`crate::ksp`].
//!
//! [`shortest_path_filtered`], [`distances_from`] and every search of
//! Yen's algorithm run through one layered breadth-first search over
//! adjacency bitmasks held in a reusable `Workspace`. Node sets are
//! bitmasks of `words = ⌈n/64⌉` 64-bit words, bit `v` for node `v`. The
//! workspace holds one such row per node, with bit `u` of row `v` set
//! when an edge `u`–`v` survives the filter, and an allowed-node mask of
//! the nodes the filter does not ban. A layer is a mask too: layer
//! `d + 1` is the OR of the rows of layer `d`'s nodes, masked by the
//! allowed nodes and the nodes no earlier layer holds. Yen's spur bans
//! are edits to the two masks, cleared before a spur search and set
//! again after it, so a search allocates nothing once the workspace has
//! grown. The masks take `n · words` words, which is quadratic in `n`:
//! fine for the tens to hundreds of nodes of a quantum network.
//!
//! Ties follow one exact rule: a node's predecessor is the smallest-id
//! node of the previous layer that reaches it over an unbanned edge, the
//! lowest set bit of `layer(d − 1) & row(v)`, and the search stops at
//! the first layer that holds the destination. That is the path
//! Dijkstra returns under unit weights when it pops `(distance, node
//! id)` in ascending order and relabels a node only on a strict
//! improvement.
//!
//! A mask names the endpoints of an edge, not the edge. That is enough
//! because a [`Graph`] is simple ([`Graph::add_edge`] rejects self-loops
//! and duplicate edges): the edge between two adjacent nodes is the one
//! [`Graph::edge_between`] returns.

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
}

/// Word and bit of node `v` in a mask.
#[inline]
fn bit(v: NodeId) -> (usize, u64) {
    (v.index() / 64, 1 << (v.index() % 64))
}

/// Reusable state for breadth-first searches on one graph under one
/// filter: the masks are built once, and the layer buffer is reused.
#[derive(Debug, Clone)]
pub(crate) struct Workspace {
    /// Words per mask, `⌈n/64⌉`.
    words: usize,
    /// Row `v` is `rows[v * words..(v + 1) * words]`: the neighbours of
    /// `v` over edges the filter (and any current cut) leaves.
    rows: Vec<u64>,
    /// The nodes the filter (and any current ban) leaves.
    allowed: Vec<u64>,
    /// The layers of the last search, `words` words each: layer `d`
    /// holds the nodes `d` hops from the source.
    layers: Vec<u64>,
    /// The nodes some layer of the current search holds.
    seen: Vec<u64>,
}

impl Workspace {
    /// A workspace for searches on `graph` that respect `filter`. Bans on
    /// ids outside `graph` are dropped: no search can reach those ids.
    pub(crate) fn new(graph: &Graph, filter: &SearchFilter) -> Self {
        let n = graph.node_count();
        let words = n.div_ceil(64);
        let mut ws = Workspace {
            words,
            rows: vec![0; n * words],
            allowed: vec![0; words],
            layers: Vec::with_capacity((n + 1) * words),
            seen: vec![0; words],
        };
        for (e, u, v) in graph.edges() {
            if !filter.edge_banned(e) {
                ws.set_edge(u, v, true);
            }
        }
        for v in graph.node_ids() {
            if !filter.node_banned(v) {
                ws.set_node(v, true);
            }
        }
        ws
    }

    /// `true` when `v` is in the graph and allowed.
    fn allows(&self, v: NodeId) -> bool {
        let (w, b) = bit(v);
        self.allowed.get(w).is_some_and(|&m| m & b != 0)
    }

    /// Bans (`on == false`) or allows again (`on == true`) node `v`.
    pub(crate) fn set_node(&mut self, v: NodeId, on: bool) {
        let (w, b) = bit(v);
        if on {
            self.allowed[w] |= b;
        } else {
            self.allowed[w] &= !b;
        }
    }

    /// Cuts (`on == false`) or restores (`on == true`) the edge between
    /// `u` and `v`, in both rows.
    pub(crate) fn set_edge(&mut self, u: NodeId, v: NodeId, on: bool) {
        let ((uw, ub), (vw, vb)) = (bit(u), bit(v));
        let (iu, iv) = (u.index() * self.words + vw, v.index() * self.words + uw);
        if on {
            self.rows[iu] |= vb;
            self.rows[iv] |= ub;
        } else {
            self.rows[iu] &= !vb;
            self.rows[iv] &= !ub;
        }
    }

    /// Finds the fewest-hop `src`→`dst` path under the masks, ties broken
    /// by the module's rule, appends its nodes to `nodes` and its edges to
    /// `edges`, source first, and returns its hop count. Returns `None`,
    /// appending nothing, when either endpoint is out of bounds or banned
    /// or `dst` is unreachable.
    pub(crate) fn shortest_path(
        &mut self,
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        nodes: &mut Vec<NodeId>,
        edges: &mut Vec<EdgeId>,
    ) -> Option<usize> {
        if !self.allows(src) || !self.allows(dst) {
            return None;
        }
        let hops = self.search(src, Some(dst))?;
        let (node0, edge0) = (nodes.len(), edges.len());
        nodes.resize(node0 + hops + 1, dst);
        edges.resize(edge0 + hops, EdgeId(u32::MAX));
        let w = self.words;
        let mut cur = dst;
        for d in (0..hops).rev() {
            let row = &self.rows[cur.index() * w..][..w];
            let layer = &self.layers[d * w..][..w];
            let (j, m) = layer
                .iter()
                .zip(row)
                .map(|(l, r)| l & r)
                .enumerate()
                .find(|&(_, m)| m != 0)
                .expect("a labelled node has a predecessor in the previous layer");
            let prev = NodeId((j * 64) as u32 + m.trailing_zeros());
            edges[edge0 + d] = graph
                .edge_between(prev, cur)
                .expect("a set row bit is an edge");
            nodes[node0 + d] = prev;
            cur = prev;
        }
        Some(hops)
    }

    /// The crate's one search body: fills the layers from `src`, which
    /// must be in bounds, until one holds `dst` (returning its depth) or
    /// none is left (returning `None`; with `dst = None`, the layers
    /// then hold every node `src` reaches).
    fn search(&mut self, src: NodeId, dst: Option<NodeId>) -> Option<usize> {
        let w = self.words;
        let (sw, sb) = bit(src);
        self.layers.clear();
        self.layers.resize(w, 0);
        self.layers[sw] = sb;
        self.seen.copy_from_slice(&self.layers);
        if dst == Some(src) {
            return Some(0);
        }
        let mut depth = 0;
        loop {
            let start = self.layers.len();
            self.layers.resize(start + w, 0);
            let (done, next) = self.layers.split_at_mut(start);
            for_each_one(&done[start - w..], |v| {
                for (n, r) in next.iter_mut().zip(&self.rows[v * w..(v + 1) * w]) {
                    *n |= r;
                }
            });
            let mut any = 0;
            for ((n, s), a) in next.iter_mut().zip(&mut self.seen).zip(&self.allowed) {
                *n &= a & !*s;
                *s |= *n;
                any |= *n;
            }
            if any == 0 {
                self.layers.truncate(start);
                return None;
            }
            depth += 1;
            if let Some((tw, tb)) = dst.map(bit) {
                if next[tw] & tb != 0 {
                    return Some(depth);
                }
            }
        }
    }
}

/// Calls `f` with each set bit of `mask`, ascending.
#[inline]
fn for_each_one(mask: &[u64], mut f: impl FnMut(usize)) {
    for (j, &word) in mask.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(j * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
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
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    Workspace::new(graph, filter).shortest_path(graph, src, dst, &mut nodes, &mut edges)?;
    Some(Path::from_valid_parts(graph, nodes, edges))
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
    let mut ws = Workspace::new(graph, &SearchFilter::new());
    ws.search(src, None);
    let mut hops = vec![None; graph.node_count()];
    for (d, layer) in ws.layers.chunks_exact(ws.words).enumerate() {
        for_each_one(layer, |v| hops[v] = Some(d));
    }
    hops
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
