//! Graph substrate for quantum data networks.
//!
//! This crate provides the topology layer that the rest of the QDN stack is
//! built on:
//!
//! * [`Graph`] — a compact undirected simple graph with stable integer
//!   [`NodeId`]/[`EdgeId`] handles,
//! * [`geometry`] — 2-D points and distances for geometric topologies,
//! * [`waxman`] — the Waxman random-graph generator used by the paper's
//!   evaluation (§V-A), including average-degree calibration and
//!   connectivity augmentation,
//! * [`dijkstra`] — hop-count shortest paths with node/edge filtering,
//! * [`ksp`] — Yen's k-shortest (loopless) paths, used to pre-compute the
//!   candidate route sets `R(φ)`,
//! * [`paths`] — validated [`Path`] values and hop-bounded simple-path
//!   enumeration,
//! * [`connectivity`] — connected components and union-find.
//!
//! # Example
//!
//! ```
//! use qdn_graph::{Graph, ksp::yen_k_shortest};
//!
//! # fn main() -> Result<(), qdn_graph::GraphError> {
//! let mut g = Graph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! let c = g.add_node();
//! g.add_edge(a, b)?;
//! g.add_edge(b, c)?;
//! g.add_edge(a, c)?;
//!
//! let routes = yen_k_shortest(&g, a, c, 2);
//! assert_eq!(routes.len(), 2);
//! assert_eq!(routes[0].hops(), 1); // direct edge a-c
//! assert_eq!(routes[1].hops(), 2); // a-b-c
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
pub mod connectivity;
pub mod dijkstra;
pub mod generators;
pub mod geometry;
pub mod graph;
pub mod ksp;
pub mod metrics;
pub mod paths;
pub mod waxman;

pub use graph::{EdgeId, Graph, GraphError, NodeId};
pub use paths::Path;
