//! Topology metrics: diameter, characteristic path length, density.
//!
//! Used by the topology studies behind Fig. 6 (route lengths grow with
//! network size, which drives the success-rate decline) and by the
//! `topology_explorer` example.

use crate::dijkstra::distances_from;
use crate::graph::Graph;

/// Hop-count metrics of a graph, computed over all connected ordered
/// pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathMetrics {
    /// Largest finite shortest-path hop count (graph diameter).
    pub diameter: usize,
    /// Mean shortest-path hop count over connected pairs
    /// (characteristic path length).
    pub characteristic_path_length: f64,
    /// Number of ordered node pairs that are connected.
    pub connected_pairs: usize,
    /// Number of ordered node pairs that are disconnected.
    pub disconnected_pairs: usize,
}

/// Computes hop-count path metrics via one breadth-first search per node.
///
/// Runs in `O(V · (E + V log V))`; fine for the network sizes of the
/// paper's evaluation (≤ 40 nodes).
///
/// # Example
///
/// ```
/// use qdn_graph::generators::ring;
/// use qdn_graph::metrics::path_metrics;
///
/// let m = path_metrics(&ring(6));
/// assert_eq!(m.diameter, 3);
/// assert_eq!(m.disconnected_pairs, 0);
/// ```
pub fn path_metrics(graph: &Graph) -> PathMetrics {
    let mut diameter = 0usize;
    let mut total = 0.0f64;
    let mut connected = 0usize;
    let mut disconnected = 0usize;
    for src in graph.node_ids() {
        let dist = distances_from(graph, src);
        for dst in graph.node_ids() {
            if src == dst {
                continue;
            }
            if let Some(d) = dist[dst.index()] {
                connected += 1;
                total += d as f64;
                diameter = diameter.max(d);
            } else {
                disconnected += 1;
            }
        }
    }
    PathMetrics {
        diameter,
        characteristic_path_length: if connected == 0 {
            0.0
        } else {
            total / connected as f64
        },
        connected_pairs: connected,
        disconnected_pairs: disconnected,
    }
}

/// Edge density: `|E| / (|V|·(|V|−1)/2)`, in `[0, 1]`; 0 for graphs with
/// fewer than two nodes.
pub fn density(graph: &Graph) -> f64 {
    let n = graph.node_count();
    if n < 2 {
        return 0.0;
    }
    let max_edges = n * (n - 1) / 2;
    graph.edge_count() as f64 / max_edges as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, grid, line, ring, star};

    #[test]
    fn ring_metrics() {
        let m = path_metrics(&ring(8));
        assert_eq!(m.diameter, 4);
        assert_eq!(m.connected_pairs, 8 * 7);
        assert_eq!(m.disconnected_pairs, 0);
        // CPL of an even ring: sum_{d=1}^{n/2} weighted — just bounds here.
        assert!(m.characteristic_path_length > 1.0);
        assert!(m.characteristic_path_length < 4.0);
    }

    #[test]
    fn star_diameter_two() {
        let m = path_metrics(&star(6));
        assert_eq!(m.diameter, 2);
    }

    #[test]
    fn line_diameter_is_length() {
        let m = path_metrics(&line(5));
        assert_eq!(m.diameter, 4);
    }

    #[test]
    fn complete_diameter_one() {
        let m = path_metrics(&complete(5));
        assert_eq!(m.diameter, 1);
        assert_eq!(m.characteristic_path_length, 1.0);
        assert_eq!(density(&complete(5)), 1.0);
    }

    #[test]
    fn grid_metrics() {
        let m = path_metrics(&grid(3, 3));
        assert_eq!(m.diameter, 4); // corner to corner
        assert_eq!(m.disconnected_pairs, 0);
    }

    #[test]
    fn disconnected_pairs_counted() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_node(); // isolated
        g.add_edge(a, b).unwrap();
        let m = path_metrics(&g);
        assert_eq!(m.connected_pairs, 2);
        assert_eq!(m.disconnected_pairs, 4);
    }

    #[test]
    fn density_bounds() {
        assert_eq!(density(&Graph::new()), 0.0);
        assert!(density(&ring(6)) < 1.0);
        assert!(density(&ring(6)) > 0.0);
    }

    use crate::graph::Graph;
}
