//! Classic regular topologies: ring, grid, star, complete.
//!
//! Early entanglement-routing work studied specialized network structures
//! — sphere/grid [Pant et al.], ring [Chakraborty et al.], star
//! [Vardoyan et al.] — which the paper's related-work section surveys
//! before adopting general Waxman QDNs. These generators let experiments
//! reproduce those settings and give tests well-understood topologies.

use crate::graph::{Graph, NodeId};

/// A cycle of `n ≥ 3` nodes: `0-1-…-(n−1)-0`.
///
/// # Panics
///
/// Panics if `n < 3` (smaller rings degenerate into an edge or a point).
///
/// # Example
///
/// ```
/// use qdn_graph::generators::ring;
///
/// let g = ring(6);
/// assert_eq!(g.node_count(), 6);
/// assert_eq!(g.edge_count(), 6);
/// assert!(g.node_ids().all(|v| g.degree(v) == 2));
/// ```
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = Graph::with_node_capacity(n);
    g.add_nodes(n);
    for i in 0..n {
        g.add_edge(NodeId(i as u32), NodeId(((i + 1) % n) as u32))
            .expect("ring edges are distinct");
    }
    g
}

/// A `rows × cols` 4-neighbour lattice with `rows·cols` nodes; node
/// `(r, c)` has id `r·cols + c`.
///
/// # Panics
///
/// Panics if either dimension is zero.
///
/// # Example
///
/// ```
/// use qdn_graph::generators::grid;
///
/// let g = grid(3, 4);
/// assert_eq!(g.node_count(), 12);
/// assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
/// ```
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
    let mut g = Graph::with_node_capacity(rows * cols);
    g.add_nodes(rows * cols);
    let id = |r: usize, c: usize| NodeId((r * cols + c) as u32);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1)).expect("unique");
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c)).expect("unique");
            }
        }
    }
    g
}

/// A star: node 0 is the hub, nodes `1..=leaves` connect only to it.
///
/// Models the entanglement-switch setting (one central switch serving
/// many users).
///
/// # Panics
///
/// Panics if `leaves == 0`.
///
/// # Example
///
/// ```
/// use qdn_graph::generators::star;
/// use qdn_graph::NodeId;
///
/// let g = star(5);
/// assert_eq!(g.node_count(), 6);
/// assert_eq!(g.degree(NodeId(0)), 5);
/// ```
pub fn star(leaves: usize) -> Graph {
    assert!(leaves > 0, "a star needs at least one leaf");
    let mut g = Graph::with_node_capacity(leaves + 1);
    g.add_nodes(leaves + 1);
    for leaf in 1..=leaves {
        g.add_edge(NodeId(0), NodeId(leaf as u32)).expect("unique");
    }
    g
}

/// The complete graph on `n ≥ 2` nodes.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn complete(n: usize) -> Graph {
    assert!(n >= 2, "a complete graph needs at least 2 nodes");
    let mut g = Graph::with_node_capacity(n);
    g.add_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId(i as u32), NodeId(j as u32))
                .expect("unique");
        }
    }
    g
}

/// A line (path graph) of `n ≥ 2` nodes — the canonical repeater-chain
/// topology of quantum-networking papers.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn line(n: usize) -> Graph {
    assert!(n >= 2, "a line needs at least 2 nodes");
    let mut g = Graph::with_node_capacity(n);
    g.add_nodes(n);
    for i in 0..n - 1 {
        g.add_edge(NodeId(i as u32), NodeId((i + 1) as u32))
            .expect("unique");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;
    use crate::ksp::yen_k_shortest;

    #[test]
    fn ring_structure() {
        for n in [3usize, 4, 7, 12] {
            let g = ring(n);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n);
            assert!(g.node_ids().all(|v| g.degree(v) == 2));
            assert!(is_connected(&g));
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn ring_too_small() {
        let _ = ring(2);
    }

    #[test]
    fn ring_has_two_routes_between_any_pair() {
        let g = ring(8);
        let routes = yen_k_shortest(&g, NodeId(0), NodeId(3), 5);
        assert_eq!(routes.len(), 2);
        assert_eq!(routes[0].hops(), 3); // clockwise
        assert_eq!(routes[1].hops(), 5); // counter-clockwise
    }

    #[test]
    fn grid_structure() {
        let g = grid(3, 3);
        assert_eq!(g.node_count(), 9);
        assert_eq!(g.edge_count(), 12);
        assert!(is_connected(&g));
        // Corner degree 2, edge degree 3, center degree 4.
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(1)), 3);
        assert_eq!(g.degree(NodeId(4)), 4);
    }

    #[test]
    fn grid_single_row_is_line() {
        let g = grid(1, 5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.node_ids().all(|v| g.degree(v) <= 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn grid_zero_dimension() {
        let _ = grid(0, 3);
    }

    #[test]
    fn star_structure() {
        let g = star(7);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 7);
        assert_eq!(g.degree(NodeId(0)), 7);
        for leaf in 1..=7u32 {
            assert_eq!(g.degree(NodeId(leaf)), 1);
        }
        assert!(is_connected(&g));
    }

    #[test]
    fn star_routes_go_through_hub() {
        let g = star(4);
        let routes = yen_k_shortest(&g, NodeId(1), NodeId(2), 3);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].hops(), 2);
        assert!(routes[0].contains_node(NodeId(0)));
    }

    #[test]
    fn complete_structure() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert!(g.node_ids().all(|v| g.degree(v) == 4));
    }

    #[test]
    fn line_structure() {
        let g = line(4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 2);
        let routes = yen_k_shortest(&g, NodeId(0), NodeId(3), 3);
        assert_eq!(routes.len(), 1); // repeater chain: unique route
        assert_eq!(routes[0].hops(), 3);
    }
}
