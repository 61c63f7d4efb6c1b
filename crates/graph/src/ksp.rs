//! Yen's k-shortest loopless paths by hop count.
//!
//! The paper bounds the candidate route set `R(φ)` by `R` routes per SD
//! pair, pre-computed "by choosing routes with shorter lengths/hops"
//! (§III-C). Yen's algorithm produces exactly that: the `k` simple paths
//! with the fewest hops, in non-decreasing hop order.
//!
//! All searches share a single `Workspace`: the base filter is fitted to
//! the graph once, each spur's bans are that copy plus the root's nodes
//! and the shared-root edges, and root + spur is stitched into two
//! reused buffers, so a `Path` is allocated only for a new candidate.
//! [`KShortest`] keeps the workspace and the fitted filter between calls
//! for callers that run Yen for many pairs under one filter. Every search, the first and each spur, is the breadth-first
//! search of [`crate::dijkstra`] with its exact tie rule. Spurs are taken
//! from the source end of the previous path, a stitched path equal in
//! nodes and edges to an accepted path or a pooled candidate is dropped,
//! the pool keeps insertion order, and the next path is the pooled
//! candidate with the fewest hops, the earliest pool index among equals,
//! removed with `swap_remove`.

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
/// workspace and the base filter fitted to the graph are built once and
/// kept between calls, so a call allocates only the paths it pools and
/// returns. Each call's result is exactly the free function's.
#[derive(Debug, Clone)]
pub struct KShortest {
    ws: Workspace,
    /// The base filter, fitted to the graph.
    base: SearchFilter,
}

impl KShortest {
    /// Searches on `graph` that respect `base`.
    pub fn new(graph: &Graph, base: &SearchFilter) -> Self {
        KShortest {
            ws: Workspace::new(graph),
            base: base.fitted(graph),
        }
    }

    /// `true` when this was built for a graph of `graph`'s node and edge
    /// counts, so [`KShortest::run`] may search `graph`.
    pub fn fits(&self, graph: &Graph) -> bool {
        self.base.fits(graph)
    }

    /// [`yen_k_shortest_filtered`] under the base filter given to
    /// [`KShortest::new`]. `graph` must fit ([`KShortest::fits`]).
    pub fn run(&mut self, graph: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
        let mut accepted: Vec<Path> = Vec::new();
        if k == 0 {
            return accepted;
        }
        let KShortest { ws, base } = self;
        ws.set_bans(base);
        if !ws.shortest_path(graph, src, dst) {
            return accepted;
        }
        accepted.push(ws.path(graph));

        // Candidate pool in insertion order; duplicates filtered on insertion.
        let mut candidates: Vec<Path> = Vec::new();
        // Root + spur of the current spur, stitched in place.
        let mut nodes: Vec<NodeId> = Vec::new();
        let mut edges: Vec<EdgeId> = Vec::new();

        while accepted.len() < k {
            let prev = accepted.last().expect("at least one accepted path");
            // Spur from every node of the previous path except the destination.
            for i in 0..prev.hops() {
                let spur_node = prev.nodes()[i];
                let root_nodes = &prev.nodes()[..=i];
                let root_edges = &prev.edges()[..i];

                ws.set_bans(base);
                // Remove edges that would recreate an already-accepted path
                // sharing this root.
                for p in &accepted {
                    if p.hops() > i && p.nodes()[..=i] == *root_nodes {
                        ws.bans.ban_edge(p.edges()[i]);
                    }
                }
                // Remove root nodes (except the spur node) to keep paths simple.
                for &n in &root_nodes[..i] {
                    ws.bans.ban_node(n);
                }

                if !ws.shortest_path(graph, spur_node, dst) {
                    continue;
                }

                // Stitch root + spur. The spur avoids every root node, so the
                // result is a simple path.
                nodes.clear();
                nodes.extend_from_slice(&root_nodes[..i]);
                nodes.extend(ws.rev_nodes().iter().rev());
                edges.clear();
                edges.extend_from_slice(root_edges);
                edges.extend(ws.rev_edges().iter().rev());

                let stitched =
                    |p: &Path| p.nodes() == nodes.as_slice() && p.edges() == edges.as_slice();
                if accepted.iter().any(stitched) || candidates.iter().any(stitched) {
                    continue;
                }
                candidates.push(Path::from_valid_parts(graph, nodes.clone(), edges.clone()));
            }

            if candidates.is_empty() {
                break;
            }
            // The fewest-hop candidate; `min_by_key` keeps the first of equals.
            let best = (0..candidates.len())
                .min_by_key(|&i| candidates[i].hops())
                .expect("candidates non-empty");
            accepted.push(candidates.swap_remove(best));
        }

        accepted
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
