//! Yen's k-shortest loopless paths by hop count.
//!
//! The paper bounds the candidate route set `R(φ)` by `R` routes per SD
//! pair, pre-computed "by choosing routes with shorter lengths/hops"
//! (§III-C). Yen's algorithm produces exactly that: the `k` simple paths
//! with the fewest hops, in non-decreasing hop order.
//!
//! Every search, the first and each spur, is the breadth-first search of
//! [`crate::dijkstra`] over one workspace's adjacency bitmasks, built
//! with the base filter's bans already applied, with its exact tie rule:
//! a node's predecessor is the lowest set bit of the previous layer
//! masked by the node's row. A spur's bans are edits to those masks:
//! the root's nodes leave the allowed-node mask and the shared-root
//! edges leave the rows, and both come back once the spur is searched.
//! Accepted and pooled paths are ranges, a start and a hop count, in one
//! node buffer and one edge buffer; a spur's path is stitched at the end
//! of them and dropped again if it repeats an accepted or pooled path,
//! so only the returned `Path`s are allocated. [`KShortest`] keeps the
//! masks and buffers between calls for callers that run Yen for many
//! pairs under one filter. The masks name edges by their endpoints,
//! which the simple [`Graph`] allows (see [`crate::dijkstra`]).
//!
//! Spurs are taken from the source end of the previous path, a stitched
//! path equal in hops, nodes and edges to an accepted path or a pooled
//! candidate is dropped, the pool keeps insertion order, and the next
//! path is the pooled candidate with the fewest hops, the earliest pool
//! index among equals, removed with `swap_remove`.

use crate::dijkstra::{SearchFilter, Workspace};
use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::Path;

/// Computes up to `k` loopless paths from `src` to `dst` with the fewest
/// hops, ordered by non-decreasing hop count.
///
/// Fewer than `k` paths are returned when the graph does not contain `k`
/// distinct simple paths. Ties are broken by one exact rule: the next
/// path is the pooled candidate with the fewest hops and, among those,
/// the earliest pool index (see the module docs for how the pool is
/// filled and reordered), so results are reproducible for a fixed graph.
///
/// This is Yen's algorithm: each new path is found by "spurring" off every
/// prefix of the previously accepted path with the conflicting edges
/// removed, keeping a candidate pool `B` of potential next paths.
///
/// # Example
///
/// ```
/// use qdn_graph::{Graph, ksp::yen_k_shortest};
///
/// # fn main() -> Result<(), qdn_graph::GraphError> {
/// let mut g = Graph::new();
/// let n: Vec<_> = (0..4).map(|_| g.add_node()).collect();
/// g.add_edge(n[0], n[1])?;
/// g.add_edge(n[1], n[3])?;
/// g.add_edge(n[0], n[2])?;
/// g.add_edge(n[2], n[3])?;
/// g.add_edge(n[0], n[3])?;
///
/// let paths = yen_k_shortest(&g, n[0], n[3], 5);
/// assert_eq!(paths.len(), 3);
/// assert_eq!(paths[0].hops(), 1);
/// assert_eq!(paths[1].hops(), 2);
/// assert_eq!(paths[2].hops(), 2);
/// # Ok(())
/// # }
/// ```
pub fn yen_k_shortest(graph: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    yen_k_shortest_filtered(graph, src, dst, k, &SearchFilter::new())
}

/// [`yen_k_shortest`] on the subgraph that survives `base`: every search
/// (the initial shortest path and every spur) additionally respects the
/// base filter, so no returned path touches a banned node or edge.
///
/// This is the primitive behind candidate route sets under churn: a set
/// of dead edges is carried as the base filter instead of mutating the
/// graph, keeping edge/node ids stable across failures and repairs, and
/// the result is a pure function of (graph, endpoints, `k`, filter).
pub fn yen_k_shortest_filtered(
    graph: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    base: &SearchFilter,
) -> Vec<Path> {
    KShortest::new(graph, base).run(graph, src, dst, k)
}

/// [`yen_k_shortest_filtered`] for many pairs under one base filter: the
/// masks of the graph under the base filter and the path buffers are
/// built once and kept between calls, so a call allocates only the paths
/// it returns. Each call's result is exactly the free function's.
#[derive(Debug, Clone)]
pub struct KShortest {
    ws: Workspace,
    /// Node and edge counts of the graph the masks were built for.
    counts: (usize, usize),
    /// Node and edge buffers holding the accepted and pooled paths.
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    /// Accepted paths, in acceptance order.
    accepted: Vec<Span>,
    /// Candidate pool in insertion order.
    pool: Vec<Span>,
    /// Neighbours of the current spur node whose edge the spur cuts.
    cut: Vec<NodeId>,
}

/// A path in [`KShortest`]'s buffers: `hops + 1` nodes from `nodes`,
/// `hops` edges from `edges`.
#[derive(Debug, Clone, Copy)]
struct Span {
    nodes: usize,
    edges: usize,
    hops: usize,
}

impl Span {
    fn nodes(self, buf: &[NodeId]) -> &[NodeId] {
        &buf[self.nodes..=self.nodes + self.hops]
    }

    fn edges(self, buf: &[EdgeId]) -> &[EdgeId] {
        &buf[self.edges..self.edges + self.hops]
    }
}

impl KShortest {
    /// Searches on `graph` that respect `base`.
    pub fn new(graph: &Graph, base: &SearchFilter) -> Self {
        // Room for eight paths through every node, so that a call with
        // the paper's k = 4 rarely grows a buffer.
        KShortest {
            ws: Workspace::new(graph, base),
            counts: (graph.node_count(), graph.edge_count()),
            nodes: Vec::with_capacity(8 * graph.node_count()),
            edges: Vec::with_capacity(8 * graph.node_count()),
            accepted: Vec::with_capacity(8),
            pool: Vec::with_capacity(8),
            cut: Vec::with_capacity(8),
        }
    }

    /// `true` when this was built for a graph of `graph`'s node and edge
    /// counts, so [`KShortest::run`] may search `graph`.
    pub fn fits(&self, graph: &Graph) -> bool {
        self.counts == (graph.node_count(), graph.edge_count())
    }

    /// [`yen_k_shortest_filtered`] under the base filter given to
    /// [`KShortest::new`]. `graph` must be the graph given there (one
    /// that merely [`fits`](KShortest::fits) is searched as that graph).
    pub fn run(&mut self, graph: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        debug_assert!(self.fits(graph), "run on a graph of another size");
        let KShortest {
            ws,
            nodes,
            edges,
            accepted,
            pool,
            cut,
            ..
        } = self;
        nodes.clear();
        edges.clear();
        accepted.clear();
        pool.clear();
        if k == 0 {
            return Vec::new();
        }
        let Some(hops) = ws.shortest_path(graph, src, dst, nodes, edges) else {
            return Vec::new();
        };
        accepted.push(Span {
            nodes: 0,
            edges: 0,
            hops,
        });

        while accepted.len() < k {
            let prev = *accepted.last().expect("at least one accepted path");
            // Spur from every node of the previous path except the
            // destination. Spur `i` bans the root nodes before it: the
            // ban of node `i - 1` is added here and all are lifted after
            // the loop, as every root node was allowed in the masks.
            for i in 0..prev.hops {
                if i > 0 {
                    ws.set_node(nodes[prev.nodes + i - 1], false);
                }
                let spur_node = nodes[prev.nodes + i];
                // Cut the edges that would recreate an already-accepted
                // path sharing this root; each was in the masks.
                let root = prev.nodes..=prev.nodes + i;
                for p in accepted.iter() {
                    if p.hops > i && p.nodes(nodes)[..=i] == nodes[root.clone()] {
                        cut.push(nodes[p.nodes + i + 1]);
                    }
                }
                for &next in cut.iter() {
                    ws.set_edge(spur_node, next, false);
                }

                // Stitch root + spur at the end of the buffers. The spur
                // avoids every root node, so the result is a simple path.
                let cand = Span {
                    nodes: nodes.len(),
                    edges: edges.len(),
                    hops: i,
                };
                nodes.extend_from_within(prev.nodes..prev.nodes + i);
                edges.extend_from_within(prev.edges..prev.edges + i);
                let spur = ws.shortest_path(graph, spur_node, dst, nodes, edges);
                for next in cut.drain(..) {
                    ws.set_edge(spur_node, next, true);
                }
                let new = spur
                    .map(|spur_hops| Span {
                        hops: i + spur_hops,
                        ..cand
                    })
                    .filter(|c| {
                        !accepted.iter().chain(pool.iter()).any(|p| {
                            p.hops == c.hops
                                && p.nodes(nodes) == c.nodes(nodes)
                                && p.edges(edges) == c.edges(edges)
                        })
                    });
                match new {
                    Some(c) => pool.push(c),
                    None => {
                        nodes.truncate(cand.nodes);
                        edges.truncate(cand.edges);
                    }
                }
            }
            for &n in &nodes[prev.nodes..prev.nodes + prev.hops.saturating_sub(1)] {
                ws.set_node(n, true);
            }

            if pool.is_empty() {
                break;
            }
            // The fewest-hop candidate; `min_by_key` keeps the first of equals.
            let best = (0..pool.len())
                .min_by_key(|&i| pool[i].hops)
                .expect("pool non-empty");
            accepted.push(pool.swap_remove(best));
        }

        accepted
            .iter()
            .map(|p| {
                Path::from_valid_parts(graph, p.nodes(nodes).to_vec(), p.edges(edges).to_vec())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::all_simple_paths;
    use rand::{RngExt, SeedableRng};

    fn grid3x3() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let nodes: Vec<_> = (0..9).map(|_| g.add_node()).collect();
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    g.add_edge(nodes[i], nodes[i + 1]).unwrap();
                }
                if r + 1 < 3 {
                    g.add_edge(nodes[i], nodes[i + 3]).unwrap();
                }
            }
        }
        (g, nodes)
    }

    #[test]
    fn k_zero_returns_empty() {
        let (g, n) = grid3x3();
        assert!(yen_k_shortest(&g, n[0], n[8], 0).is_empty());
    }

    #[test]
    fn first_path_is_shortest() {
        let (g, n) = grid3x3();
        let paths = yen_k_shortest(&g, n[0], n[8], 4);
        assert_eq!(paths[0].hops(), 4);
    }

    #[test]
    fn hops_non_decreasing() {
        let (g, n) = grid3x3();
        let paths = yen_k_shortest(&g, n[0], n[8], 8);
        let hops: Vec<usize> = paths.iter().map(Path::hops).collect();
        for pair in hops.windows(2) {
            assert!(pair[0] <= pair[1], "hops must be sorted: {hops:?}");
        }
    }

    #[test]
    fn paths_are_distinct_and_valid() {
        let (g, n) = grid3x3();
        let paths = yen_k_shortest(&g, n[0], n[8], 8);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(p.source(), n[0]);
            assert_eq!(p.destination(), n[8]);
            for q in &paths[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }

    #[test]
    fn matches_exhaustive_enumeration_on_grid() {
        let (g, n) = grid3x3();
        // All 4-hop (shortest) paths in a 3x3 grid from corner to corner:
        // C(4,2) = 6 monotone lattice paths.
        let shortest: Vec<_> = all_simple_paths(&g, n[0], n[8], 4)
            .into_iter()
            .filter(|p| p.hops() == 4)
            .collect();
        assert_eq!(shortest.len(), 6);
        let yen = yen_k_shortest(&g, n[0], n[8], 6);
        assert_eq!(yen.len(), 6);
        for p in &yen {
            assert_eq!(p.hops(), 4);
            assert!(shortest.contains(p));
        }
    }

    #[test]
    fn disconnected_returns_empty() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        assert!(yen_k_shortest(&g, a, b, 3).is_empty());
    }

    #[test]
    fn exhausts_available_paths() {
        // Diamond has exactly 2 simple a->d paths (plus none longer).
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        let d = g.add_node();
        g.add_edge(a, b).unwrap();
        g.add_edge(b, d).unwrap();
        g.add_edge(a, c).unwrap();
        g.add_edge(c, d).unwrap();
        let paths = yen_k_shortest(&g, a, d, 10);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn base_filter_excludes_dead_edges() {
        let (g, n) = grid3x3();
        let mut base = SearchFilter::new();
        // Kill both edges out of the corner's row neighbour.
        let dead = g.edge_between(n[0], n[1]).unwrap();
        base.ban_edge(dead);
        let paths = yen_k_shortest_filtered(&g, n[0], n[8], 8, &base);
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(!p.edges().contains(&dead), "dead edge used: {p:?}");
            assert_eq!(p.source(), n[0]);
            assert_eq!(p.destination(), n[8]);
        }
        // An empty base filter is exactly the unfiltered algorithm.
        assert_eq!(
            yen_k_shortest_filtered(&g, n[0], n[8], 8, &SearchFilter::new()),
            yen_k_shortest(&g, n[0], n[8], 8)
        );
    }

    #[test]
    fn kept_state_matches_fresh_calls() {
        let (g, n) = grid3x3();
        let mut base = SearchFilter::new();
        base.ban_edge(g.edge_between(n[4], n[5]).unwrap());
        let mut kept = KShortest::new(&g, &base);
        assert!(kept.fits(&g));
        for &s in &n {
            for &t in &n {
                for k in [0, 1, 3, 6] {
                    assert_eq!(
                        kept.run(&g, s, t, k),
                        yen_k_shortest_filtered(&g, s, t, k, &base),
                        "{s}->{t} k={k}"
                    );
                }
            }
        }
        assert!(!kept.fits(&Graph::new()));
    }

    /// Cross-check Yen against brute-force enumeration on random graphs.
    #[test]
    fn random_graphs_match_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for trial in 0..30 {
            let n = rng.random_range(4..9usize);
            let mut g = Graph::new();
            let nodes: Vec<_> = (0..n).map(|_| g.add_node()).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.random_bool(0.45) {
                        let _ = g.add_edge(nodes[i], nodes[j]);
                    }
                }
            }
            let src = nodes[0];
            let dst = nodes[n - 1];
            let k = 4;
            let yen = yen_k_shortest(&g, src, dst, k);
            let mut brute = all_simple_paths(&g, src, dst, n - 1);
            brute.sort_by_key(|p| p.hops());
            assert_eq!(
                yen.len(),
                brute.len().min(k),
                "trial {trial}: yen found {} paths, brute force {}",
                yen.len(),
                brute.len()
            );
            // Hop counts must agree with the k smallest brute-force counts.
            for (y, b) in yen.iter().zip(brute.iter()) {
                assert_eq!(y.hops(), b.hops(), "trial {trial}");
            }
        }
    }
}
