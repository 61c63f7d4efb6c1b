//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use qdn_graph::connectivity::{connected_components, is_connected};
use qdn_graph::dijkstra::{shortest_path, shortest_path_filtered, SearchFilter};
use qdn_graph::ksp::yen_k_shortest;
use qdn_graph::paths::all_simple_paths;
use qdn_graph::waxman::{augment_to_connected, GeometricGraph, WaxmanConfig};
use qdn_graph::{Graph, NodeId};
use rand::SeedableRng;

/// Strategy: a random simple graph with `n in 2..=10` nodes and each
/// possible edge included independently.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..=10).prop_flat_map(|n| {
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .collect();
        let m = pairs.len();
        proptest::collection::vec(proptest::bool::ANY, m).prop_map(move |mask| {
            let edges = pairs
                .iter()
                .zip(&mask)
                .filter(|(_, keep)| **keep)
                .map(|(&(i, j), _)| (NodeId(i as u32), NodeId(j as u32)));
            Graph::from_edges(n, edges).expect("generated edges are valid")
        })
    })
}

proptest! {
    /// Degrees always sum to twice the edge count (handshake lemma).
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: usize = g.node_ids().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    /// Components partition the node set.
    #[test]
    fn components_partition_nodes(g in arb_graph()) {
        let comps = connected_components(&g);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.node_count());
        let mut seen = std::collections::HashSet::new();
        for c in &comps {
            for &v in c {
                prop_assert!(seen.insert(v), "node {} in two components", v);
            }
        }
    }

    /// A shortest path, when it exists, is a valid simple path whose hop
    /// count is minimal among all simple paths.
    #[test]
    fn dijkstra_is_minimal(g in arb_graph()) {
        let src = NodeId(0);
        let dst = NodeId((g.node_count() - 1) as u32);
        let sp = shortest_path(&g, src, dst);
        let brute = all_simple_paths(&g, src, dst, g.node_count());
        match sp {
            None => prop_assert!(brute.is_empty()),
            Some(p) => {
                let min_hops = brute.iter().map(|q| q.hops()).min().unwrap();
                prop_assert_eq!(p.hops(), min_hops);
                prop_assert_eq!(p.source(), src);
                prop_assert_eq!(p.destination(), dst);
            }
        }
    }

    /// Yen's paths are sorted, distinct, and consistent with brute force.
    #[test]
    fn yen_sorted_distinct_consistent(g in arb_graph(), k in 1usize..6) {
        let src = NodeId(0);
        let dst = NodeId((g.node_count() - 1) as u32);
        let yen = yen_k_shortest(&g, src, dst, k);
        let mut brute = all_simple_paths(&g, src, dst, g.node_count());
        brute.sort_by_key(|p| p.hops());
        prop_assert_eq!(yen.len(), brute.len().min(k));
        for w in yen.windows(2) {
            prop_assert!(w[0].hops() <= w[1].hops());
        }
        for (y, b) in yen.iter().zip(brute.iter()) {
            prop_assert_eq!(y.hops(), b.hops());
        }
        for (i, p) in yen.iter().enumerate() {
            for q in &yen[i + 1..] {
                prop_assert_ne!(p, q);
            }
        }
    }

    /// Banning every edge of the shortest path forces a strictly different
    /// route (or disconnects the pair).
    #[test]
    fn banning_shortest_path_changes_route(g in arb_graph()) {
        let src = NodeId(0);
        let dst = NodeId((g.node_count() - 1) as u32);
        if let Some(p) = shortest_path(&g, src, dst) {
            if p.hops() > 0 {
                let mut f = SearchFilter::new();
                for &e in p.edges() {
                    f.ban_edge(e);
                }
                if let Some(q) = shortest_path_filtered(&g, src, dst, &f) {
                    prop_assert!(q.edges().iter().all(|e| !p.edges().contains(e)));
                    prop_assert!(q.hops() >= p.hops());
                }
            }
        }
    }

    /// Waxman generation with connectivity always yields one component and
    /// the requested node count; augmentation never duplicates edges.
    #[test]
    fn waxman_connected_valid(seed in 0u64..500, n in 2usize..25) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = WaxmanConfig::paper_default().with_nodes(n).generate(&mut rng);
        prop_assert_eq!(topo.graph.node_count(), n);
        prop_assert!(is_connected(&topo.graph));
        // Simple graph invariant: no more than n(n-1)/2 edges.
        prop_assert!(topo.graph.edge_count() <= n * (n - 1) / 2);
    }

    /// Augmentation adds exactly (components - 1) edges.
    #[test]
    fn augmentation_edge_count(seed in 0u64..200) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = WaxmanConfig {
            nodes: 15,
            alpha: 0.2,
            beta: 0.15,
            side: 100.0,
            connected: false,
        };
        let topo = cfg.generate(&mut rng);
        let comps = connected_components(&topo.graph).len();
        let before = topo.graph.edge_count();
        let mut patched: GeometricGraph = topo;
        augment_to_connected(&mut patched);
        prop_assert!(is_connected(&patched.graph));
        prop_assert_eq!(patched.graph.edge_count(), before + comps.saturating_sub(1));
    }
}
