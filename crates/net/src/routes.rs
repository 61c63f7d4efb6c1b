//! Candidate route sets `R(φ)`.
//!
//! The paper assumes "a set of potential routes R(φ) associated with each
//! SD pair φ … the candidate set can be pre-computed by choosing routes
//! with shorter lengths/hops to minimize its size" with bounds `R` on
//! `|R(φ)|` and `L` on route length (§III-C). [`CandidateRoutes`] computes
//! those sets with Yen's k-shortest-paths by hop count, per canonical pair
//! (routing is symmetric in an undirected QDN), on the subgraph that
//! survives the current dead-edge set.
//!
//! A pair's list is a pure function of (pair, dead-edge set): it is the
//! cold [`yen_k_shortest_filtered`] result under the dead set, computed
//! when a requested pair has no list for the current dead set and reused
//! until the dead set changes. Two caches that saw the same dead set
//! therefore serve identical routes — same nodes, same edges, same order
//! — whatever their history, and a snapshot needs only the dead set and
//! the names of the pairs whose lists are current.
//!
//! [`yen_k_shortest_filtered`]: qdn_graph::ksp::yen_k_shortest_filtered

use std::collections::{BTreeMap, BTreeSet};

use qdn_graph::dijkstra::SearchFilter;
use qdn_graph::ksp::KShortest;
use qdn_graph::{EdgeId, Path};
use serde::{Deserialize, Serialize};

use crate::network::QdnNetwork;
use crate::request::SdPair;
use crate::snapshot::CapacitySnapshot;

/// Limits on candidate route computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteLimits {
    /// Maximum number of candidate routes per pair (the paper's `R`).
    pub max_routes: usize,
    /// Maximum hops per route (the paper's `L`); longer Yen results are
    /// discarded.
    pub max_hops: usize,
}

impl RouteLimits {
    /// Defaults used throughout the evaluation: up to 4 candidate routes,
    /// at most 8 hops. On 20-node degree-4 Waxman graphs the 4 shortest
    /// routes are almost always well under 8 hops, so `L` acts as a safety
    /// bound exactly as in the paper.
    pub fn paper_default() -> Self {
        RouteLimits {
            max_routes: 4,
            max_hops: 8,
        }
    }
}

impl Default for RouteLimits {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A lazily filled cache of candidate route sets.
///
/// # Example
///
/// ```
/// use qdn_net::config::NetworkConfig;
/// use qdn_net::routes::{CandidateRoutes, RouteLimits};
/// use qdn_net::request::SdPair;
/// use qdn_graph::NodeId;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let net = NetworkConfig::paper_default().build(&mut rng)?;
/// let mut routes = CandidateRoutes::new(RouteLimits::paper_default());
/// let pair = SdPair::new(NodeId(0), NodeId(7))?;
/// let r = routes.routes(&net, pair);
/// assert!(!r.is_empty());
/// assert!(r.len() <= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CandidateRoutes {
    limits: RouteLimits,
    /// Edges with zero channels at the last sync.
    dead: BTreeSet<EdgeId>,
    /// Canonical pairs whose lists are current under `dead`. `None`
    /// marks a pair restored from a snapshot and not requested since:
    /// its list is current by definition and is computed on first use.
    /// BTreeMap so snapshot order never depends on hasher state.
    current: BTreeMap<SdPair, Option<PairRoutes>>,
    /// Lists computed under an earlier dead set, kept only to tell
    /// whether a recompute changed the pair's list.
    stale: BTreeMap<SdPair, Vec<Path>>,
    last_churn: RouteChurn,
    /// Yen's search state under `dead`, built on the first recompute
    /// after a dead-set change.
    search: Option<KShortest>,
}

/// One canonical pair's hop-filtered candidate list, both orientations.
#[derive(Debug, Clone)]
struct PairRoutes {
    /// Routes from the canonical (smaller-id) source.
    forward: Vec<Path>,
    /// `forward` reversed, built when that orientation is first asked
    /// for.
    reverse: Option<Vec<Path>>,
}

/// The candidate-route ledger since the last
/// [`CandidateRoutes::sync_dead_edges`]: that sync's dead-set change,
/// plus the recomputes the requests after it triggered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteChurn {
    /// Edges newly dead (zero channels) at the sync, ascending.
    pub failed: Vec<EdgeId>,
    /// Edges newly revived at the sync, ascending.
    pub restored: Vec<EdgeId>,
    /// Canonical pairs whose recomputed list differs from the list the
    /// cache held for them under an earlier dead set, in recompute
    /// order. A pair computed for the first time is not listed.
    pub changed_pairs: Vec<SdPair>,
    /// Yen searches run: one per requested pair without a current list.
    pub yen_runs: usize,
}

impl RouteChurn {
    /// `true` when the sync saw no edge change state.
    pub fn is_noop(&self) -> bool {
        self.failed.is_empty() && self.restored.is_empty()
    }
}

impl CandidateRoutes {
    /// Creates an empty cache with the given limits.
    pub fn new(limits: RouteLimits) -> Self {
        CandidateRoutes {
            limits,
            dead: BTreeSet::new(),
            current: BTreeMap::new(),
            stale: BTreeMap::new(),
            last_churn: RouteChurn::default(),
            search: None,
        }
    }

    /// The configured limits.
    pub fn limits(&self) -> RouteLimits {
        self.limits
    }

    /// Reconciles the dead-edge set with `snapshot`: an edge with zero
    /// channels is dead (its routes are unusable this slot and excluded
    /// from candidate sets), any other edge is alive. A change to the
    /// dead set makes every cached list stale; no path search runs here
    /// — [`CandidateRoutes::routes`] recomputes a stale pair when it is
    /// next requested.
    ///
    /// Starts a fresh [`RouteChurn`] ledger, returned here and kept for
    /// [`CandidateRoutes::last_churn`].
    pub fn sync_dead_edges(
        &mut self,
        network: &QdnNetwork,
        snapshot: &CapacitySnapshot,
    ) -> &RouteChurn {
        let mut churn = RouteChurn::default();
        for e in network.graph().edge_ids() {
            let dead_now = snapshot.channels(e) == 0;
            if dead_now == self.dead.contains(&e) {
                continue;
            }
            if dead_now {
                self.dead.insert(e);
                churn.failed.push(e);
            } else {
                self.dead.remove(&e);
                churn.restored.push(e);
            }
        }
        if !churn.is_noop() {
            self.search = None;
            for (pair, routes) in std::mem::take(&mut self.current) {
                if let Some(routes) = routes {
                    self.stale.insert(pair, routes.forward);
                }
            }
        }
        self.last_churn = churn;
        &self.last_churn
    }

    /// The ledger since the most recent
    /// [`CandidateRoutes::sync_dead_edges`].
    pub fn last_churn(&self) -> &RouteChurn {
        &self.last_churn
    }

    /// Edges currently treated as dead, ascending.
    pub fn dead_edges(&self) -> Vec<EdgeId> {
        self.dead.iter().copied().collect()
    }

    /// The candidate routes for `pair` under the current dead-edge set,
    /// computing them if the cache holds no current list.
    ///
    /// Routes are returned oriented from `pair.source()` to
    /// `pair.destination()`; the cache key is the canonical pair, so the
    /// reverse orientation shares the computation. The result is in the
    /// order Yen's algorithm accepts paths: non-decreasing hop count,
    /// equal counts in the tie order of [`yen_k_shortest_filtered`]
    /// (not lexicographic). Every route has at most
    /// [`RouteLimits::max_hops`] hops. An empty slice means the pair is
    /// disconnected or all short routes exceed the hop bound.
    ///
    /// [`yen_k_shortest_filtered`]: qdn_graph::ksp::yen_k_shortest_filtered
    pub fn routes(&mut self, network: &QdnNetwork, pair: SdPair) -> &[Path] {
        let canonical = pair.canonical();
        let lists = self
            .current
            .entry(canonical)
            .or_insert(None)
            .get_or_insert_with(|| {
                let graph = network.graph();
                let search = match &mut self.search {
                    Some(search) if search.fits(graph) => search,
                    slot => {
                        let mut dead = SearchFilter::new();
                        for &e in &self.dead {
                            dead.ban_edge(e);
                        }
                        slot.insert(KShortest::new(graph, &dead))
                    }
                };
                let mut forward = search.run(
                    graph,
                    canonical.source(),
                    canonical.destination(),
                    self.limits.max_routes,
                );
                forward.retain(|p| (1..=self.limits.max_hops).contains(&p.hops()));
                self.last_churn.yen_runs += 1;
                if self
                    .stale
                    .remove(&canonical)
                    .is_some_and(|old| old != forward)
                {
                    self.last_churn.changed_pairs.push(canonical);
                }
                PairRoutes {
                    forward,
                    reverse: None,
                }
            });
        if pair == canonical {
            &lists.forward
        } else {
            let forward = &lists.forward;
            lists
                .reverse
                .get_or_insert_with(|| forward.iter().map(Path::reversed).collect())
        }
    }

    /// The current candidate routes for `pair`, without computing
    /// anything: `None` until a [`CandidateRoutes::routes`] call for this
    /// pair (in this orientation) under the current dead-edge set.
    ///
    /// This is the shared-borrow companion of `routes` for callers that
    /// first warm the cache for a batch of pairs and then need all the
    /// slices alive at once (one `&mut` call per pair cannot overlap).
    pub fn cached(&self, pair: SdPair) -> Option<&[Path]> {
        let canonical = pair.canonical();
        let lists = self.current.get(&canonical)?.as_ref()?;
        if pair == canonical {
            Some(&lists.forward)
        } else {
            lists.reverse.as_deref()
        }
    }

    /// Number of current lists held (both orientations counted).
    pub fn cached_pairs(&self) -> usize {
        self.current
            .values()
            .flatten()
            .map(|lists| 1 + usize::from(lists.reverse.is_some()))
            .sum()
    }

    /// Drops all cached routes and revives all edges (e.g. when switching
    /// topologies or starting a fresh trial).
    pub fn clear(&mut self) {
        self.dead.clear();
        self.current.clear();
        self.stale.clear();
        self.last_churn = RouteChurn::default();
        self.search = None;
    }

    /// Serializes the cache into a [`RoutesSnapshot`]: the dead-edge set
    /// and the canonical pairs whose lists are current, both ascending,
    /// so equal caches produce byte-identical snapshots. Routes are not
    /// carried — they are a pure function of that state. Stale lists
    /// and `last_churn` are not captured either, so the first recompute
    /// of a pair after a restore reports no change.
    pub fn snapshot(&self) -> RoutesSnapshot {
        RoutesSnapshot {
            version: ROUTES_SNAPSHOT_VERSION,
            limits: self.limits,
            dead: self.dead_edges(),
            pairs: self.current.keys().copied().collect(),
        }
    }

    /// Rebuilds a cache from a snapshot taken by
    /// [`CandidateRoutes::snapshot`]. The pairs' lists are recomputed on
    /// first use under the snapshot's dead set, which yields exactly the
    /// lists the original held, so decisions are bit-identical.
    /// Refuses other versions and non-canonical pairs.
    pub fn restore(snapshot: &RoutesSnapshot) -> Result<Self, String> {
        if snapshot.version != ROUTES_SNAPSHOT_VERSION {
            return Err(format!(
                "routes snapshot version {} (expected {ROUTES_SNAPSHOT_VERSION})",
                snapshot.version
            ));
        }
        if let Some(pair) = snapshot.pairs.iter().find(|p| p.canonical() != **p) {
            return Err(format!("routes snapshot pair {pair:?} is not canonical"));
        }
        Ok(CandidateRoutes {
            limits: snapshot.limits,
            dead: snapshot.dead.iter().copied().collect(),
            current: snapshot.pairs.iter().map(|&p| (p, None)).collect(),
            stale: BTreeMap::new(),
            last_churn: RouteChurn::default(),
            search: None,
        })
    }
}

/// Version tag of [`RoutesSnapshot`]; bump on layout changes.
///
/// v2: the dead set and the current pairs instead of the route lists.
pub const ROUTES_SNAPSHOT_VERSION: u32 = 2;

/// Serializable image of a [`CandidateRoutes`] (see
/// [`CandidateRoutes::snapshot`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutesSnapshot {
    /// Layout version ([`ROUTES_SNAPSHOT_VERSION`]).
    pub version: u32,
    limits: RouteLimits,
    /// Dead edges, ascending.
    dead: Vec<EdgeId>,
    /// Canonical pairs whose lists are current under `dead`, ascending.
    pairs: Vec<SdPair>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::QdnNetworkBuilder;
    use qdn_graph::NodeId;
    use qdn_physics::link::LinkModel;

    /// Diamond with an extra long tail:
    /// 0-1-3, 0-2-3, 3-4.
    fn net() -> QdnNetwork {
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..5).map(|_| b.add_node(10)).collect();
        let l = LinkModel::paper_default();
        b.add_edge(n[0], n[1], 5, l).unwrap();
        b.add_edge(n[1], n[3], 5, l).unwrap();
        b.add_edge(n[0], n[2], 5, l).unwrap();
        b.add_edge(n[2], n[3], 5, l).unwrap();
        b.add_edge(n[3], n[4], 5, l).unwrap();
        b.build()
    }

    /// Full capacities with the given edges at zero channels.
    fn cut(net: &QdnNetwork, dead: &[EdgeId]) -> CapacitySnapshot {
        let mut channels: Vec<u32> = net.graph().edge_ids().map(|_| 5).collect();
        for e in dead {
            channels[e.index()] = 0;
        }
        CapacitySnapshot::clamped(net, vec![10; 5], channels)
    }

    fn edge(net: &QdnNetwork, a: u32, b: u32) -> EdgeId {
        net.graph().edge_between(NodeId(a), NodeId(b)).unwrap()
    }

    #[test]
    fn routes_sorted_and_bounded() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits {
            max_routes: 3,
            max_hops: 5,
        });
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let routes = cr.routes(&net, pair);
        assert_eq!(routes.len(), 2); // two diamond sides
        assert!(routes[0].hops() <= routes[1].hops());
        for r in routes {
            assert_eq!(r.source(), NodeId(0));
            assert_eq!(r.destination(), NodeId(3));
        }
    }

    #[test]
    fn hop_limit_filters_long_routes() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits {
            max_routes: 5,
            max_hops: 1,
        });
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        assert!(cr.routes(&net, pair).is_empty()); // both routes have 2 hops
        let adj = SdPair::new(NodeId(3), NodeId(4)).unwrap();
        assert_eq!(cr.routes(&net, adj).len(), 1);
    }

    #[test]
    fn reverse_orientation_shares_cache() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let fwd = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let bwd = fwd.reversed();
        let f: Vec<_> = cr.routes(&net, fwd).to_vec();
        let b: Vec<_> = cr.routes(&net, bwd).to_vec();
        assert_eq!(f.len(), b.len());
        for (pf, pb) in f.iter().zip(&b) {
            assert_eq!(pf.source(), pb.destination());
            assert_eq!(pf.destination(), pb.source());
            let mut rev: Vec<_> = pb.nodes().to_vec();
            rev.reverse();
            assert_eq!(pf.nodes(), rev.as_slice());
        }
        // canonical + reversed cached, one Yen search between them.
        assert_eq!(cr.cached_pairs(), 2);
        assert_eq!(cr.last_churn().yen_runs, 1);
    }

    #[test]
    fn clear_resets_cache() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let _ = cr.routes(&net, pair);
        assert!(cr.cached_pairs() > 0);
        cr.clear();
        assert_eq!(cr.cached_pairs(), 0);
    }

    #[test]
    fn sync_dead_edges_drops_and_restores_routes() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(cr.routes(&net, pair).len(), 2);

        // Kill 0-1: one diamond side dies. The sync itself runs no Yen;
        // the next request recomputes the stale pair.
        let dead = edge(&net, 0, 1);
        let churn = cr.sync_dead_edges(&net, &cut(&net, &[dead])).clone();
        assert_eq!(churn.failed, vec![dead]);
        assert!(churn.restored.is_empty());
        assert_eq!(churn.yen_runs, 0);
        assert_eq!(cr.cached(pair), None, "stale lists are not served");
        let routes = cr.routes(&net, pair);
        assert_eq!(routes.len(), 1);
        assert!(routes.iter().all(|p| !p.edges().contains(&dead)));
        assert_eq!(cr.last_churn().changed_pairs, vec![pair]);
        assert_eq!(cr.last_churn().yen_runs, 1);
        // Reverse orientation sees the recompute too.
        assert_eq!(cr.routes(&net, pair.reversed()).len(), 1);

        // Repair: the original two sides come back.
        let churn = cr
            .sync_dead_edges(&net, &CapacitySnapshot::full(&net))
            .clone();
        assert_eq!(churn.restored, vec![dead]);
        assert_eq!(cr.routes(&net, pair).len(), 2);
        assert_eq!(cr.last_churn().changed_pairs, vec![pair]);
        assert!(cr.dead_edges().is_empty());
    }

    #[test]
    fn sync_with_full_capacity_is_noop() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let before = cr.routes(&net, pair).to_vec();
        let full = CapacitySnapshot::full(&net);
        let churn = cr.sync_dead_edges(&net, &full);
        assert!(churn.is_noop());
        assert_eq!(cr.cached(pair), Some(before.as_slice()));
        assert_eq!(cr.routes(&net, pair), before.as_slice());
        assert_eq!(cr.last_churn().yen_runs, 0);
    }

    #[test]
    fn unrelated_failure_recomputes_but_reports_no_change() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let before = cr.routes(&net, pair).to_vec();
        // Kill the tail edge 3-4, which no 0-3 route uses.
        let tail = edge(&net, 3, 4);
        let churn = cr.sync_dead_edges(&net, &cut(&net, &[tail])).clone();
        assert_eq!(churn.failed, vec![tail]);
        assert_eq!(cr.routes(&net, pair), before.as_slice());
        assert_eq!(cr.last_churn().yen_runs, 1);
        assert!(cr.last_churn().changed_pairs.is_empty());
    }

    #[test]
    fn unrequested_pairs_run_no_yen() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let a = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let b = SdPair::new(NodeId(1), NodeId(4)).unwrap();
        let _ = cr.routes(&net, a);
        let _ = cr.routes(&net, b);
        // Both arms of the diamond lose an edge in the same slot, but
        // only `a` is requested afterwards: one search, not two.
        let _ = cr.sync_dead_edges(&net, &cut(&net, &[edge(&net, 0, 1), edge(&net, 0, 2)]));
        assert!(cr.routes(&net, a).is_empty());
        assert_eq!(cr.last_churn().yen_runs, 1);
        assert_eq!(cr.cached(b), None);
    }

    #[test]
    fn lists_depend_only_on_the_dead_set() {
        // A cache driven through a cut and its repair serves exactly
        // what a cold cache serves under the final dead set.
        let net = net();
        let pairs = [
            SdPair::new(NodeId(0), NodeId(3)).unwrap(),
            SdPair::new(NodeId(4), NodeId(1)).unwrap(),
        ];
        let mut warm = CandidateRoutes::new(RouteLimits::paper_default());
        for dead in [vec![edge(&net, 1, 3)], vec![edge(&net, 0, 2)], vec![]] {
            let _ = warm.sync_dead_edges(&net, &cut(&net, &dead));
            for &p in &pairs {
                let _ = warm.routes(&net, p);
            }
        }
        let mut cold = CandidateRoutes::new(RouteLimits::paper_default());
        for &p in &pairs {
            assert_eq!(warm.routes(&net, p), cold.routes(&net, p));
        }
    }

    #[test]
    fn kept_search_follows_a_network_of_another_size() {
        // The Yen state kept for one network is not reused on a network
        // of another size: the lists match a cold cache's.
        let small = net();
        let mut b = QdnNetworkBuilder::new();
        let n: Vec<_> = (0..7).map(|_| b.add_node(10)).collect();
        for w in n.windows(2) {
            b.add_edge(w[0], w[1], 5, LinkModel::paper_default())
                .unwrap();
        }
        let line = b.build();
        let pair = SdPair::new(NodeId(0), NodeId(6)).unwrap();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let _ = cr.routes(&small, SdPair::new(NodeId(0), NodeId(3)).unwrap());
        let mut cold = CandidateRoutes::new(RouteLimits::paper_default());
        assert_eq!(cr.routes(&line, pair), cold.routes(&line, pair));
        assert_eq!(cr.routes(&line, pair).len(), 1);
    }

    #[test]
    fn snapshot_roundtrip_after_churn() {
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let pair = SdPair::new(NodeId(0), NodeId(3)).unwrap();
        let other = SdPair::new(NodeId(1), NodeId(4)).unwrap();
        let _ = cr.routes(&net, pair);
        let _ = cr.routes(&net, other);

        // Kill 0-1; only `pair` is requested afterwards, so `other` is
        // stale and left out of the snapshot.
        let dead = edge(&net, 0, 1);
        let _ = cr.sync_dead_edges(&net, &cut(&net, &[dead]));
        let current = cr.routes(&net, pair).to_vec();

        let image = cr.snapshot();
        assert_eq!(image.dead, vec![dead]);
        assert_eq!(image.pairs, vec![pair]);
        let mut restored = CandidateRoutes::restore(&image).unwrap();
        // Canonical ordering: re-snapshot is identical before and after
        // the lists are recomputed.
        assert_eq!(restored.snapshot(), image);
        assert_eq!(restored.routes(&net, pair), current.as_slice());
        assert_eq!(restored.dead_edges(), cr.dead_edges());
        assert_eq!(restored.snapshot(), image);
        assert_eq!(restored.routes(&net, other), cr.routes(&net, other));
    }

    #[test]
    fn snapshot_rejects_wrong_version() {
        let cr = CandidateRoutes::new(RouteLimits::paper_default());
        let mut image = cr.snapshot();
        image.version += 1;
        assert!(CandidateRoutes::restore(&image).is_err());
    }

    #[test]
    fn restore_refuses_v1_snapshot() {
        // A v1 image carried the routes themselves; it no longer
        // decodes, and a v1 tag on the current layout is refused.
        let v1 = r#"{"version":1,"limits":{"max_routes":4,"max_hops":8},"dead":[],
            "tracked":[{"endpoints":[0,3],"routes":[]}],
            "cache":[{"pair":{"source":0,"destination":3},"routes":[]}]}"#;
        assert!(serde_json::from_str::<RoutesSnapshot>(v1).is_err());
        let mut image = CandidateRoutes::new(RouteLimits::paper_default()).snapshot();
        image.version = 1;
        assert_eq!(
            CandidateRoutes::restore(&image).unwrap_err(),
            "routes snapshot version 1 (expected 2)"
        );
        let json = serde_json::to_string(&image).unwrap();
        let decoded: RoutesSnapshot = serde_json::from_str(&json).unwrap();
        assert!(CandidateRoutes::restore(&decoded).is_err());
    }

    #[test]
    fn restore_refuses_non_canonical_pairs() {
        let mut image = CandidateRoutes::new(RouteLimits::paper_default()).snapshot();
        image.pairs = vec![SdPair::new(NodeId(3), NodeId(0)).unwrap()];
        assert!(CandidateRoutes::restore(&image).is_err());
    }

    #[test]
    fn zero_hop_routes_excluded() {
        // max_hops >= 1 guaranteed by filter p.hops() >= 1; a pair is never
        // degenerate by construction, so this just documents behaviour.
        let net = net();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let pair = SdPair::new(NodeId(0), NodeId(1)).unwrap();
        for r in cr.routes(&net, pair) {
            assert!(r.hops() >= 1);
        }
    }
}
