//! Validated routes and hop-bounded simple-path enumeration.
//!
//! A route `r ∈ R(φ)` in the paper is "a subset of graph edges that form a
//! connected route between the source node and the destination node"
//! (§III-C). [`Path`] stores both the node sequence and the edge sequence
//! and guarantees the two are mutually consistent with respect to a graph.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use crate::graph::{EdgeId, Graph, GraphError, NodeId};

/// A simple path through a [`Graph`]: a node sequence plus the edges that
/// connect consecutive nodes.
///
/// Invariants (enforced by [`Path::new`]):
/// * `nodes.len() == edges.len() + 1`,
/// * `edges[i]` connects `nodes[i]` and `nodes[i+1]` in the graph,
/// * no node repeats (the path is simple/loopless).
///
/// # Example
///
/// ```
/// use qdn_graph::{Graph, Path};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// let ab = g.add_edge(a, b)?;
/// let bc = g.add_edge(b, c)?;
/// let p = Path::new(&g, vec![a, b, c], vec![ab, bc])?;
/// assert_eq!(p.hops(), 2);
/// assert_eq!(p.source(), a);
/// assert_eq!(p.destination(), c);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

/// Error raised when constructing an invalid [`Path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The node and edge sequences have inconsistent lengths.
    LengthMismatch {
        /// Number of nodes supplied.
        nodes: usize,
        /// Number of edges supplied.
        edges: usize,
    },
    /// The path is empty (a path must contain at least one node).
    Empty,
    /// An edge does not connect its two adjacent nodes in the sequence.
    Disconnected {
        /// Position of the offending edge in the edge sequence.
        position: usize,
    },
    /// A node appears more than once (the path would contain a loop).
    RepeatedNode {
        /// The repeated node.
        node: NodeId,
    },
    /// A referenced node or edge is not in the graph.
    Graph(GraphError),
}

impl std::fmt::Display for PathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PathError::LengthMismatch { nodes, edges } => write!(
                f,
                "path with {nodes} nodes must have {} edges, got {edges}",
                nodes.saturating_sub(1)
            ),
            PathError::Empty => write!(f, "path must contain at least one node"),
            PathError::Disconnected { position } => {
                write!(
                    f,
                    "edge at position {position} does not connect its endpoints"
                )
            }
            PathError::RepeatedNode { node } => {
                write!(f, "node {node} appears more than once in the path")
            }
            PathError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PathError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PathError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for PathError {
    fn from(e: GraphError) -> Self {
        PathError::Graph(e)
    }
}

impl Path {
    /// Creates a validated path.
    ///
    /// # Errors
    ///
    /// Returns a [`PathError`] if the sequences are inconsistent, an edge
    /// does not connect consecutive nodes, a node repeats, or any id is out
    /// of bounds for `graph`.
    pub fn new(graph: &Graph, nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Result<Self, PathError> {
        if nodes.is_empty() {
            return Err(PathError::Empty);
        }
        if nodes.len() != edges.len() + 1 {
            return Err(PathError::LengthMismatch {
                nodes: nodes.len(),
                edges: edges.len(),
            });
        }
        let mut seen = HashSet::with_capacity(nodes.len());
        for &n in &nodes {
            graph.check_node(n)?;
            if !seen.insert(n) {
                return Err(PathError::RepeatedNode { node: n });
            }
        }
        for (i, &e) in edges.iter().enumerate() {
            graph.check_edge(e)?;
            let (u, v) = graph.endpoints(e);
            let (a, b) = (nodes[i], nodes[i + 1]);
            if !((u == a && v == b) || (u == b && v == a)) {
                return Err(PathError::Disconnected { position: i });
            }
        }
        Ok(Path { nodes, edges })
    }

    /// Wraps sequences the caller has built as a valid path, skipping
    /// [`Path::new`]'s checks in release builds (debug builds still run
    /// them).
    pub(crate) fn from_valid_parts(graph: &Graph, nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Self {
        debug_assert_eq!(
            Path::new(graph, nodes.clone(), edges.clone()).err(),
            None,
            "caller promised a valid path"
        );
        Path { nodes, edges }
    }

    /// Builds a path from a node sequence, looking up the connecting edges.
    ///
    /// # Errors
    ///
    /// Returns [`PathError::Disconnected`] if two consecutive nodes are not
    /// adjacent, plus any validation error from [`Path::new`].
    pub fn from_nodes(graph: &Graph, nodes: Vec<NodeId>) -> Result<Self, PathError> {
        if nodes.is_empty() {
            return Err(PathError::Empty);
        }
        let mut edges = Vec::with_capacity(nodes.len().saturating_sub(1));
        for (i, w) in nodes.windows(2).enumerate() {
            let e = graph
                .edge_between(w[0], w[1])
                .ok_or(PathError::Disconnected { position: i })?;
            edges.push(e);
        }
        Path::new(graph, nodes, edges)
    }

    /// A single-node path (source equals destination, zero hops).
    ///
    /// # Errors
    ///
    /// Returns an error if `node` is not in `graph`.
    pub fn trivial(graph: &Graph, node: NodeId) -> Result<Self, PathError> {
        graph.check_node(node)?;
        Ok(Path {
            nodes: vec![node],
            edges: Vec::new(),
        })
    }

    /// The node sequence, from source to destination.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The edge sequence; `edges()[i]` connects `nodes()[i]` and
    /// `nodes()[i+1]`.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of hops (edges).
    #[inline]
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// First node of the path.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node of the path.
    #[inline]
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("path is never empty")
    }

    /// Returns `true` if the path visits `node`.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Returns `true` if the path uses `edge`.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.edges.contains(&edge)
    }

    /// Returns `true` if this path shares at least one edge with `other`.
    pub fn shares_edge_with(&self, other: &Path) -> bool {
        self.edges.iter().any(|e| other.edges.contains(e))
    }

    /// Returns `true` if this path shares at least one node with `other`.
    pub fn shares_node_with(&self, other: &Path) -> bool {
        self.nodes.iter().any(|n| other.nodes.contains(n))
    }

    /// The same route walked from destination to source. Reversal keeps
    /// every invariant, so nothing is revalidated.
    pub fn reversed(&self) -> Path {
        Path {
            nodes: self.nodes.iter().rev().copied().collect(),
            edges: self.edges.iter().rev().copied().collect(),
        }
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for n in &self.nodes {
            if !first {
                write!(f, " - ")?;
            }
            write!(f, "{n}")?;
            first = false;
        }
        Ok(())
    }
}

/// Enumerates all simple paths from `src` to `dst` with at most `max_hops`
/// edges, in depth-first order.
///
/// This is exponential in general; it is intended for candidate-route
/// generation on sparse topologies with a small `max_hops` bound (the
/// paper's `L`), and for cross-checking Yen's algorithm in tests.
///
/// # Example
///
/// ```
/// use qdn_graph::{Graph, paths::all_simple_paths};
///
/// # fn main() -> Result<(), qdn_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let c = g.add_node();
/// g.add_edge(a, b)?;
/// g.add_edge(b, c)?;
/// g.add_edge(a, c)?;
/// let paths = all_simple_paths(&g, a, c, 2);
/// assert_eq!(paths.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn all_simple_paths(graph: &Graph, src: NodeId, dst: NodeId, max_hops: usize) -> Vec<Path> {
    let mut result = Vec::new();
    if graph.check_node(src).is_err() || graph.check_node(dst).is_err() {
        return result;
    }
    if src == dst {
        if let Ok(p) = Path::trivial(graph, src) {
            result.push(p);
        }
        return result;
    }
    let mut node_stack = vec![src];
    let mut edge_stack: Vec<EdgeId> = Vec::new();
    let mut on_path: HashSet<NodeId> = HashSet::from([src]);
    dfs(
        graph,
        dst,
        max_hops,
        &mut node_stack,
        &mut edge_stack,
        &mut on_path,
        &mut result,
    );
    result
}

fn dfs(
    graph: &Graph,
    dst: NodeId,
    max_hops: usize,
    node_stack: &mut Vec<NodeId>,
    edge_stack: &mut Vec<EdgeId>,
    on_path: &mut HashSet<NodeId>,
    result: &mut Vec<Path>,
) {
    let current = *node_stack.last().expect("stack starts non-empty");
    if edge_stack.len() >= max_hops {
        return;
    }
    let neighbors: Vec<(NodeId, EdgeId)> = graph.neighbors(current).collect();
    for (next, edge) in neighbors {
        if on_path.contains(&next) {
            continue;
        }
        node_stack.push(next);
        edge_stack.push(edge);
        if next == dst {
            result.push(
                Path::new(graph, node_stack.clone(), edge_stack.clone())
                    .expect("DFS builds valid paths"),
            );
        } else {
            on_path.insert(next);
            dfs(
                graph, dst, max_hops, node_stack, edge_stack, on_path, result,
            );
            on_path.remove(&next);
        }
        node_stack.pop();
        edge_stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph, [NodeId; 4]) {
        // a - b - d
        //  \- c -/
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
    fn path_new_validates_connectivity() {
        let (g, [a, b, c, d]) = diamond();
        let ab = g.edge_between(a, b).unwrap();
        let cd = g.edge_between(c, d).unwrap();
        let err = Path::new(&g, vec![a, b, d], vec![ab, cd]).unwrap_err();
        assert_eq!(err, PathError::Disconnected { position: 1 });
    }

    #[test]
    fn path_new_rejects_length_mismatch() {
        let (g, [a, b, ..]) = diamond();
        let ab = g.edge_between(a, b).unwrap();
        assert!(matches!(
            Path::new(&g, vec![a, b], vec![ab, ab]),
            Err(PathError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn path_new_rejects_repeats() {
        let (g, [a, b, ..]) = diamond();
        let ab = g.edge_between(a, b).unwrap();
        assert_eq!(
            Path::new(&g, vec![a, b, a], vec![ab, ab]),
            Err(PathError::RepeatedNode { node: a })
        );
    }

    #[test]
    fn path_new_rejects_empty() {
        let (g, _) = diamond();
        assert_eq!(Path::new(&g, vec![], vec![]), Err(PathError::Empty));
    }

    #[test]
    fn from_nodes_looks_up_edges() {
        let (g, [a, b, _c, d]) = diamond();
        let p = Path::from_nodes(&g, vec![a, b, d]).unwrap();
        assert_eq!(p.hops(), 2);
        assert_eq!(p.source(), a);
        assert_eq!(p.destination(), d);
    }

    #[test]
    fn from_nodes_fails_for_non_adjacent() {
        let (g, [a, _b, _c, d]) = diamond();
        assert_eq!(
            Path::from_nodes(&g, vec![a, d]),
            Err(PathError::Disconnected { position: 0 })
        );
    }

    #[test]
    fn trivial_path() {
        let (g, [a, ..]) = diamond();
        let p = Path::trivial(&g, a).unwrap();
        assert_eq!(p.hops(), 0);
        assert_eq!(p.source(), p.destination());
    }

    #[test]
    fn sharing_predicates() {
        let (g, [a, b, c, d]) = diamond();
        let top = Path::from_nodes(&g, vec![a, b, d]).unwrap();
        let bottom = Path::from_nodes(&g, vec![a, c, d]).unwrap();
        assert!(!top.shares_edge_with(&bottom));
        assert!(top.shares_node_with(&bottom)); // share a and d
        assert!(top.shares_edge_with(&top));
    }

    #[test]
    fn reversed_walks_back_and_round_trips() {
        let (g, [a, b, _c, d]) = diamond();
        let p = Path::from_nodes(&g, vec![a, b, d]).unwrap();
        let r = p.reversed();
        assert_eq!(r, Path::from_nodes(&g, vec![d, b, a]).unwrap());
        assert_eq!(r.reversed(), p);
        let t = Path::trivial(&g, a).unwrap();
        assert_eq!(t.reversed(), t);
    }

    #[test]
    fn all_simple_paths_diamond() {
        let (g, [a, _b, _c, d]) = diamond();
        let paths = all_simple_paths(&g, a, d, 4);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.source(), a);
            assert_eq!(p.destination(), d);
            assert_eq!(p.hops(), 2);
        }
    }

    #[test]
    fn all_simple_paths_respects_hop_bound() {
        let (g, [a, _b, _c, d]) = diamond();
        assert_eq!(all_simple_paths(&g, a, d, 1).len(), 0);
        assert_eq!(all_simple_paths(&g, a, d, 2).len(), 2);
    }

    #[test]
    fn all_simple_paths_same_node() {
        let (g, [a, ..]) = diamond();
        let paths = all_simple_paths(&g, a, a, 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].hops(), 0);
    }

    #[test]
    fn all_simple_paths_out_of_bounds_is_empty() {
        let (g, [a, ..]) = diamond();
        assert!(all_simple_paths(&g, a, NodeId(99), 3).is_empty());
    }

    #[test]
    fn display_path() {
        let (g, [a, b, _c, d]) = diamond();
        let p = Path::from_nodes(&g, vec![a, b, d]).unwrap();
        assert_eq!(p.to_string(), "v0 - v1 - v3");
    }
}
