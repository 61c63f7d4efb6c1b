//! Equivalence of the crate's hop-count path searches with the weighted
//! allocating implementations they replaced.
//!
//! `reference` holds the `HashSet`-backed `SearchFilter`, the
//! `BinaryHeap` Dijkstra over `f64` weights and Yen exactly as they were
//! before the searches became one layered breadth-first search over
//! adjacency bitmasks. Called with [`hop_weight`], the reference pops
//! `(distance, node id)` in ascending order and relabels only on a
//! strict improvement, so each node's predecessor is the smallest-id
//! node of the previous layer that reaches it: the breadth-first
//! search's tie rule. The tests below assert that every
//! search returns the same paths (same nodes, same edges, same order)
//! and the same hop counts:
//!
//! * on random graphs of up to 40 nodes, whose layers hold many tied
//!   ids, under random bans that may hit the endpoints or ids outside
//!   the graph;
//! * for Yen on the paper's Waxman networks at 20 and 100 nodes under
//!   random dead-edge sets, the shape of candidate routes under churn;
//! * on graphs of 63 to 129 nodes, whose masks span two or three words,
//!   with endpoints and bans on both sides of each word boundary.

use proptest::prelude::*;
use qdn_graph::dijkstra::{distances_from, shortest_path_filtered, SearchFilter};
use qdn_graph::ksp::yen_k_shortest_filtered;
use qdn_graph::waxman::{calibrate_beta, GeometricGraph, WaxmanConfig};
use qdn_graph::{EdgeId, Graph, NodeId};
use rand::{RngExt, SeedableRng};

/// Unit edge weight: the reference searches by hop count under it.
fn hop_weight(_: EdgeId) -> f64 {
    1.0
}

/// The weighted `HashSet` searches as they were, kept only as the oracle
/// for this test.
mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    use std::collections::HashSet;

    use qdn_graph::{EdgeId, Graph, NodeId, Path};

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

    pub fn yen_k_shortest_filtered<F>(
        graph: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        weight: &F,
        base: &SearchFilter,
    ) -> Vec<Path>
    where
        F: Fn(EdgeId) -> f64,
    {
        let mut accepted: Vec<Path> = Vec::new();
        if k == 0 {
            return accepted;
        }
        let Some(first) = shortest_path_filtered(graph, src, dst, weight, base) else {
            return accepted;
        };
        accepted.push(first);

        // Candidate pool of (total weight, path). Kept sorted lazily; duplicates
        // filtered on insertion.
        let mut candidates: Vec<(f64, Path)> = Vec::new();

        while accepted.len() < k {
            let prev = accepted.last().expect("at least one accepted path").clone();
            // Spur from every node of the previous path except the destination.
            for i in 0..prev.hops() {
                let spur_node = prev.nodes()[i];
                let root_nodes = &prev.nodes()[..=i];
                let root_edges = &prev.edges()[..i];

                let mut filter = base.clone();
                // Remove edges that would recreate an already-accepted path
                // sharing this root.
                for p in &accepted {
                    if p.hops() > i && p.nodes()[..=i] == *root_nodes {
                        filter.ban_edge(p.edges()[i]);
                    }
                }
                // Remove root nodes (except the spur node) to keep paths simple.
                for &n in &root_nodes[..i] {
                    filter.ban_node(n);
                }

                let Some(spur) = shortest_path_filtered(graph, spur_node, dst, weight, &filter)
                else {
                    continue;
                };

                // Stitch root + spur.
                let mut nodes: Vec<NodeId> = root_nodes[..i].to_vec();
                nodes.extend_from_slice(spur.nodes());
                let mut edges: Vec<EdgeId> = root_edges.to_vec();
                edges.extend_from_slice(spur.edges());
                let Ok(total) = Path::new(graph, nodes, edges) else {
                    continue;
                };

                if accepted.contains(&total) || candidates.iter().any(|(_, p)| *p == total) {
                    continue;
                }
                let w = total.edges().iter().map(|&e| weight(e)).sum();
                candidates.push((w, total));
            }

            if candidates.is_empty() {
                break;
            }
            // Extract the minimum-weight candidate (stable for ties: first found).
            let best = candidates
                .iter()
                .enumerate()
                .min_by(|(ia, (wa, _)), (ib, (wb, _))| wa.total_cmp(wb).then(ia.cmp(ib)))
                .map(|(i, _)| i)
                .expect("candidates non-empty");
            let (_, path) = candidates.swap_remove(best);
            accepted.push(path);
        }

        accepted
    }
}

/// One random instance: a graph, a base filter (node and edge ids,
/// possibly past the graph) and two endpoints (possibly equal, possibly
/// out of bounds).
#[derive(Debug, Clone)]
struct Case {
    graph: Graph,
    banned_nodes: Vec<u32>,
    banned_edges: Vec<u32>,
    src: NodeId,
    dst: NodeId,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..=40, 5u32..60).prop_flat_map(|(n, density)| {
        let pairs: Vec<(u32, u32)> = (0..n as u32)
            .flat_map(|i| ((i + 1)..n as u32).map(move |j| (i, j)))
            .collect();
        let m = pairs.len() as u32;
        (
            collection::vec(0u32..100, pairs.len()),
            collection::vec(0u32..n as u32 + 2, 0usize..4),
            collection::vec(0u32..m + 2, 0usize..6),
            0u32..n as u32 + 1,
            0u32..n as u32 + 1,
        )
            .prop_map(move |(draws, banned_nodes, banned_edges, src, dst)| {
                let edges = pairs
                    .iter()
                    .zip(&draws)
                    .filter(|(_, &d)| d < density)
                    .map(|(&(i, j), _)| (NodeId(i), NodeId(j)));
                Case {
                    graph: Graph::from_edges(n, edges).expect("generated edges are valid"),
                    banned_nodes,
                    banned_edges,
                    src: NodeId(src),
                    dst: NodeId(dst),
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    /// Yen (k = 0..=6), the filtered shortest path and single-source
    /// hop counts all match the reference bit for bit.
    #[test]
    fn searches_match_the_reference(case in arb_case()) {
        let Case { graph, banned_nodes, banned_edges, src, dst } = case;

        let mut filter = SearchFilter::new();
        let mut old_filter = reference::SearchFilter::new();
        for &v in &banned_nodes {
            filter.ban_node(NodeId(v));
            old_filter.ban_node(NodeId(v));
        }
        for &e in &banned_edges {
            filter.ban_edge(EdgeId(e));
            old_filter.ban_edge(EdgeId(e));
        }

        for k in 0..=6 {
            let got = yen_k_shortest_filtered(&graph, src, dst, k, &filter);
            let want = reference::yen_k_shortest_filtered(&graph, src, dst, k, &hop_weight, &old_filter);
            prop_assert_eq!(got, want, "yen k={} {}->{} on {:?}", k, src, dst, graph);
        }
        prop_assert_eq!(
            shortest_path_filtered(&graph, src, dst, &filter),
            reference::shortest_path_filtered(&graph, src, dst, &hop_weight, &old_filter)
        );
        let want: Vec<Option<usize>> = reference::distances_from(&graph, src, &hop_weight)
            .into_iter()
            .map(|d| d.is_finite().then_some(d as usize))
            .collect();
        prop_assert_eq!(distances_from(&graph, src), want);
    }
}

/// The topology `NetworkConfig::paper_default().with_nodes(nodes)` draws
/// from `rng` (qdn_net's `TopologyConfig::paper_default`): the paper's
/// Waxman model, its β calibrated to average degree 4.
fn paper_topology(nodes: usize, rng: &mut rand::rngs::StdRng) -> GeometricGraph {
    let mut waxman = WaxmanConfig::paper_default().with_nodes(nodes);
    waxman.beta = calibrate_beta(&waxman, 4.0, rng);
    waxman.generate(rng)
}

/// Yen with the paper's `R = 4` on paper networks at 20 and 100 nodes:
/// per network, random dead-edge sets (each edge dead with probability
/// 8%) and random pairs, each result equal to the reference's.
#[test]
fn yen_matches_the_reference_on_paper_networks() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(34);
    for (nodes, networks, dead_sets, pairs) in [(20, 12, 8, 8), (100, 3, 4, 6)] {
        for _ in 0..networks {
            let graph = paper_topology(nodes, &mut rng).graph;
            for _ in 0..dead_sets {
                let mut filter = SearchFilter::new();
                let mut old_filter = reference::SearchFilter::new();
                for e in graph.edge_ids() {
                    if rng.random_bool(0.08) {
                        filter.ban_edge(e);
                        old_filter.ban_edge(e);
                    }
                }
                for _ in 0..pairs {
                    let src = NodeId(rng.random_range(0..nodes as u32));
                    let dst = NodeId(rng.random_range(0..nodes as u32));
                    assert_eq!(
                        yen_k_shortest_filtered(&graph, src, dst, 4, &filter),
                        reference::yen_k_shortest_filtered(
                            &graph,
                            src,
                            dst,
                            4,
                            &hop_weight,
                            &old_filter
                        ),
                        "{nodes} nodes, {src}->{dst}"
                    );
                }
            }
        }
    }
}

/// Graphs past one mask word: at 63, 64, 65, 127, 128 and 129 nodes, a
/// ring with random chords, so paths cross the bit 63/64 and 127/128
/// boundaries. Endpoints sit on both sides of them, and the filters cut
/// the ring edges across them and ban nodes next to them. Every search
/// must equal the reference's.
#[test]
fn multi_word_masks_match_the_reference() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(36);
    for n in [63u32, 64, 65, 127, 128, 129] {
        let ring = (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n)));
        let chords: Vec<_> = (0..2 * n)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
            .filter(|&(u, v)| u + 1 < v && !(u == 0 && v == n - 1))
            .collect();
        let mut graph = Graph::from_edges(n as usize, ring).unwrap();
        for (u, v) in chords {
            let _ = graph.add_edge(NodeId(u), NodeId(v));
        }
        let near: Vec<NodeId> = [0, 1, 62, 63, 64, 65, 126, 127, 128, n - 1]
            .into_iter()
            .filter(|&v| v < n)
            .map(NodeId)
            .collect();
        // The ring edges leaving 62, 63, 64, 126 and 127.
        let boundary_edges: Vec<EdgeId> = [62, 63, 64, 126, 127]
            .into_iter()
            .filter(|&u| u < n)
            .map(|u| graph.edge_between(NodeId(u), NodeId((u + 1) % n)).unwrap())
            .collect();
        let random_edges: Vec<EdgeId> = (0..4)
            .map(|_| EdgeId(rng.random_range(0..graph.edge_count() as u32)))
            .collect();
        let filters: [(&[u32], Vec<EdgeId>); 3] = [
            (&[], Vec::new()),
            (&[], [&boundary_edges[..], &random_edges].concat()),
            (&[64, 127, 2], boundary_edges[..1].to_vec()),
        ];
        for (banned_nodes, banned_edges) in &filters {
            let mut filter = SearchFilter::new();
            let mut old_filter = reference::SearchFilter::new();
            for &v in *banned_nodes {
                filter.ban_node(NodeId(v));
                old_filter.ban_node(NodeId(v));
            }
            for &e in banned_edges {
                filter.ban_edge(e);
                old_filter.ban_edge(e);
            }
            for &src in &near {
                for &dst in &near {
                    for k in [1, 5] {
                        assert_eq!(
                            yen_k_shortest_filtered(&graph, src, dst, k, &filter),
                            reference::yen_k_shortest_filtered(
                                &graph,
                                src,
                                dst,
                                k,
                                &hop_weight,
                                &old_filter
                            ),
                            "yen k={k} {n} nodes, {src}->{dst}, bans {banned_nodes:?}"
                        );
                    }
                    assert_eq!(
                        shortest_path_filtered(&graph, src, dst, &filter),
                        reference::shortest_path_filtered(
                            &graph,
                            src,
                            dst,
                            &hop_weight,
                            &old_filter
                        ),
                        "{n} nodes, {src}->{dst}, bans {banned_nodes:?}"
                    );
                }
            }
        }
        for &src in &near {
            let want: Vec<Option<usize>> = reference::distances_from(&graph, src, &hop_weight)
                .into_iter()
                .map(|d| d.is_finite().then_some(d as usize))
                .collect();
            assert_eq!(distances_from(&graph, src), want, "{n} nodes from {src}");
        }
    }
}
