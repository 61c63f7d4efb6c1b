//! Property-based tests for the QDN model layer.

use proptest::prelude::*;
use qdn_net::config::{CapacityRange, NetworkConfig};
use qdn_net::dynamics::{MarkovOccupancy, ResourceDynamics, StaticDynamics, UniformOccupancy};
use qdn_net::routes::{CandidateRoutes, RouteLimits};
use qdn_net::workload::{random_sd_pair, PoissonWorkload, UniformWorkload, Workload};
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated networks respect every configured range and are usable:
    /// connected topology, capacities within bounds, p_min in (0,1).
    #[test]
    fn network_config_invariants(
        seed in 0u64..10_000,
        nodes in 5usize..25,
        q_lo in 2u32..8, q_extra in 0u32..8,
        w_lo in 2u32..5, w_extra in 0u32..5,
    ) {
        let mut cfg = NetworkConfig::paper_default().with_nodes(nodes);
        cfg.qubit_capacity = CapacityRange { low: q_lo, high: q_lo + q_extra };
        cfg.channel_capacity = CapacityRange { low: w_lo, high: w_lo + w_extra };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = cfg.build(&mut rng).unwrap();
        prop_assert_eq!(net.node_count(), nodes);
        prop_assert!(qdn_graph::connectivity::is_connected(net.graph()));
        for v in net.graph().node_ids() {
            prop_assert!((q_lo..=q_lo + q_extra).contains(&net.qubit_capacity(v)));
        }
        for e in net.graph().edge_ids() {
            prop_assert!((w_lo..=w_lo + w_extra).contains(&net.channel_capacity(e)));
        }
        prop_assert!(net.p_min() > 0.0 && net.p_min() < 1.0);
    }

    /// Classic topology families generate connected graphs with the
    /// advertised node counts and in-square layouts at any size.
    #[test]
    fn classic_topologies_invariants(
        seed in 0u64..10_000,
        nodes in 3usize..20,
        rows in 2usize..5,
        cols in 2usize..5,
        side in 10.0f64..200.0,
    ) {
        use qdn_net::config::TopologyConfig;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for topology in [
            TopologyConfig::Ring { nodes, side },
            TopologyConfig::Grid { rows, cols, side },
            TopologyConfig::Star { leaves: nodes, side },
            TopologyConfig::Line { nodes, side },
        ] {
            let topo = topology.generate(&mut rng);
            prop_assert_eq!(topo.graph.node_count(), topology.node_count(), "{:?}", topology);
            prop_assert!(qdn_graph::connectivity::is_connected(&topo.graph), "{:?}", topology);
            for p in &topo.positions {
                prop_assert!((0.0..=side).contains(&p.x));
                prop_assert!((0.0..=side).contains(&p.y));
            }
            // Builds into a network without physical-parameter errors.
            let cfg = NetworkConfig {
                topology: topology.clone(),
                ..NetworkConfig::paper_default()
            };
            prop_assert!(cfg.build(&mut rng).is_ok(), "{:?}", topology);
        }
    }

    /// All dynamics produce snapshots bounded by installed capacity, and
    /// static dynamics produce exactly the installed capacity.
    #[test]
    fn dynamics_respect_installed_capacity(seed in 0u64..10_000, frac in 0.0f64..1.0) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = NetworkConfig::paper_default().with_nodes(10).build(&mut rng).unwrap();
        let mut dynamics: Vec<Box<dyn ResourceDynamics>> = vec![
            Box::new(StaticDynamics),
            Box::new(UniformOccupancy::new(frac)),
            Box::new(MarkovOccupancy::new(frac, 1.0 - frac, 0.5)),
        ];
        for d in &mut dynamics {
            for t in 0..5 {
                let snap = d.snapshot(t, &net, &mut rng);
                for v in net.graph().node_ids() {
                    prop_assert!(snap.qubits(v) <= net.qubit_capacity(v));
                }
                for e in net.graph().edge_ids() {
                    prop_assert!(snap.channels(e) <= net.channel_capacity(e));
                }
            }
        }
    }

    /// Workloads always return valid SD pairs within their cap `F`.
    #[test]
    fn workloads_within_bounds(seed in 0u64..10_000, rate in 0.1f64..6.0, cap in 1usize..8) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = NetworkConfig::paper_default().with_nodes(8).build(&mut rng).unwrap();
        let mut workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(UniformWorkload::new(1, cap)),
            Box::new(PoissonWorkload::new(rate, cap)),
        ];
        for w in &mut workloads {
            for t in 0..10 {
                let set = w.requests(t, &net, &mut rng);
                prop_assert!(set.len() <= w.max_pairs());
                for p in set {
                    prop_assert!(p.source() != p.destination());
                    prop_assert!(p.source().index() < net.node_count());
                    prop_assert!(p.destination().index() < net.node_count());
                }
            }
        }
    }

    /// Candidate routes: valid endpoints, hop bounds, sorted lengths, and
    /// consistent between orientations.
    #[test]
    fn candidate_routes_invariants(seed in 0u64..10_000, max_routes in 1usize..6, max_hops in 2usize..8) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = NetworkConfig::paper_default().with_nodes(12).build(&mut rng).unwrap();
        let mut cr = CandidateRoutes::new(RouteLimits { max_routes, max_hops });
        let pair = random_sd_pair(&mut rng, &net);
        let routes = cr.routes(&net, pair).to_vec();
        prop_assert!(routes.len() <= max_routes);
        for w in routes.windows(2) {
            prop_assert!(w[0].hops() <= w[1].hops());
        }
        for r in &routes {
            prop_assert_eq!(r.source(), pair.source());
            prop_assert_eq!(r.destination(), pair.destination());
            prop_assert!(r.hops() >= 1 && r.hops() <= max_hops);
        }
        let reversed = cr.routes(&net, pair.reversed()).to_vec();
        prop_assert_eq!(routes.len(), reversed.len());
    }

    /// Candidate lists are a pure function of (pair, dead-edge set).
    /// A cache driven through random slots — single links dying and
    /// reviving, whole nodes cut and restored, random request sets —
    /// serves, after every slot, exactly the cold Yen result under the
    /// current dead set: the same routes node for node and edge for
    /// edge, in the same order, for every pair it holds a list for.
    /// A snapshot taken at a random slot, restored through the JSON
    /// wire form, re-snapshots identically and serves identical lists
    /// for the rest of the run.
    #[test]
    fn candidate_routes_match_cold_yen_under_dead_set(
        seed in 0u64..10_000,
        nodes in 5usize..12,
        max_routes in 1usize..5,
        slots in proptest::collection::vec(
            (0u32..3, 0u32..1000, proptest::collection::vec((0u32..1000, 0u32..1000), 0..5)),
            1..14,
        ),
        snap_at in 0usize..14,
    ) {
        use qdn_graph::dijkstra::SearchFilter;
        use qdn_graph::ksp::yen_k_shortest_filtered;
        use qdn_graph::{NodeId, Path};
        use qdn_net::routes::RoutesSnapshot;
        use qdn_net::{CapacitySnapshot, SdPair};
        use std::collections::BTreeSet;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = NetworkConfig::paper_default().with_nodes(nodes).build(&mut rng).unwrap();
        let graph = net.graph();
        let (n, m) = (net.node_count() as u32, net.edge_count() as u32);
        let limits = RouteLimits { max_routes, max_hops: 6 };
        // Identity of a route list: per route, its nodes and edges.
        let identity = |routes: &[Path]| -> Vec<(Vec<NodeId>, Vec<qdn_graph::EdgeId>)> {
            routes.iter().map(|p| (p.nodes().to_vec(), p.edges().to_vec())).collect()
        };
        let cold = |pair: SdPair, dead: &[qdn_graph::EdgeId]| {
            let canonical = pair.canonical();
            let mut filter = SearchFilter::new();
            for &e in dead {
                filter.ban_edge(e);
            }
            yen_k_shortest_filtered(
                graph,
                canonical.source(),
                canonical.destination(),
                limits.max_routes,
                &filter,
            )
            .into_iter()
            .filter(|p| (1..=limits.max_hops).contains(&p.hops()))
            .map(|p| {
                if pair == canonical {
                    (p.nodes().to_vec(), p.edges().to_vec())
                } else {
                    let mut nodes = p.nodes().to_vec();
                    let mut edges = p.edges().to_vec();
                    nodes.reverse();
                    edges.reverse();
                    (nodes, edges)
                }
            })
            .collect::<Vec<_>>()
        };

        let mut cr = CandidateRoutes::new(limits);
        let mut restored: Option<CandidateRoutes> = None;
        let mut dead_links: BTreeSet<u32> = BTreeSet::new();
        let mut dark_nodes: BTreeSet<u32> = BTreeSet::new();
        let mut seen: BTreeSet<SdPair> = BTreeSet::new();
        for (slot, (kind, raw, requests)) in slots.iter().enumerate() {
            // Toggle one link or one node; kind 2 leaves the topology be.
            let toggle = |set: &mut BTreeSet<u32>, x: u32| {
                if !set.remove(&x) {
                    set.insert(x);
                }
            };
            match kind {
                0 => toggle(&mut dead_links, raw % m),
                1 => toggle(&mut dark_nodes, raw % n),
                _ => {}
            }
            let channels: Vec<u32> = graph
                .edges()
                .map(|(e, u, v)| {
                    let cut = dead_links.contains(&e.0)
                        || dark_nodes.contains(&u.0)
                        || dark_nodes.contains(&v.0);
                    if cut { 0 } else { net.channel_capacity(e) }
                })
                .collect();
            let qubits: Vec<u32> = graph.node_ids().map(|v| net.qubit_capacity(v)).collect();
            let snap = CapacitySnapshot::clamped(&net, qubits, channels);
            cr.sync_dead_edges(&net, &snap);
            if let Some(r) = restored.as_mut() {
                r.sync_dead_edges(&net, &snap);
            }
            let dead = cr.dead_edges();
            let pairs: Vec<SdPair> = requests
                .iter()
                .filter_map(|&(a, b)| SdPair::new(NodeId(a % n), NodeId(b % n)).ok())
                .collect();
            for &pair in &pairs {
                let served = identity(cr.routes(&net, pair));
                prop_assert_eq!(&served, &cold(pair, &dead), "slot {} pair {:?}", slot, pair);
                if let Some(r) = restored.as_mut() {
                    prop_assert_eq!(
                        &identity(r.routes(&net, pair)), &served,
                        "restored cache diverged at slot {} pair {:?}", slot, pair
                    );
                }
                seen.insert(pair);
                seen.insert(pair.reversed());
            }
            // Nothing stale is ever served: every list the cache still
            // exposes is the cold result under the current dead set.
            for &pair in &seen {
                if let Some(routes) = cr.cached(pair) {
                    prop_assert_eq!(&identity(routes), &cold(pair, &dead), "slot {} pair {:?}", slot, pair);
                }
            }
            if slot == snap_at % slots.len() {
                let wire = serde_json::to_string(&cr.snapshot()).unwrap();
                let decoded: RoutesSnapshot = serde_json::from_str(&wire).unwrap();
                let r = CandidateRoutes::restore(&decoded).unwrap();
                prop_assert_eq!(serde_json::to_string(&r.snapshot()).unwrap(), wire);
                prop_assert_eq!(r.dead_edges(), dead);
                restored = Some(r);
            }
        }
    }

    /// Churn snapshots stay within builder bounds: downed links report
    /// zero channels, everything else stays within installed capacity.
    #[test]
    fn churn_snapshots_within_bounds(
        seed in 0u64..10_000,
        rate in 0.0f64..3.0,
        mttr in 1.0f64..6.0,
    ) {
        use qdn_net::dynamics::{ChurnDynamics, ChurnEventKind};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = NetworkConfig::paper_default().with_nodes(10).build(&mut rng).unwrap();
        let mut d = ChurnDynamics::new(rate, mttr, seed ^ 0xdead, Box::new(StaticDynamics));
        for t in 0..12 {
            let snap = d.snapshot(t, &net, &mut rng);
            let down = d.down_edges();
            for v in net.graph().node_ids() {
                prop_assert!(snap.qubits(v) <= net.qubit_capacity(v));
            }
            for e in net.graph().edge_ids() {
                prop_assert!(snap.channels(e) <= net.channel_capacity(e));
                if down.contains(&e) {
                    prop_assert_eq!(snap.channels(e), 0);
                }
            }
        }
        // Event sanity: fails and repairs alternate per edge.
        for e in net.graph().edge_ids() {
            let mut down = false;
            for ev in d.churn_events().iter().filter(|ev| ev.edge == e) {
                match ev.kind {
                    ChurnEventKind::Fail => {
                        prop_assert!(!down, "edge {} failed while down", e);
                        down = true;
                    }
                    ChurnEventKind::Repair => {
                        prop_assert!(down, "edge {} repaired while up", e);
                        down = false;
                    }
                }
            }
        }
    }

    /// A repaired link restores its exact pre-failure capacity: over a
    /// static base, every up edge (including one repaired this very slot)
    /// reports exactly its installed channel count, and a fully-drained
    /// outage set yields the full snapshot.
    #[test]
    fn churn_repairs_restore_exact_capacity(
        seed in 0u64..10_000,
        rate in 0.5f64..3.0,
        mttr in 1.0f64..4.0,
    ) {
        use qdn_net::dynamics::{ChurnDynamics, ChurnEventKind};
        use qdn_net::CapacitySnapshot;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = NetworkConfig::paper_default().with_nodes(8).build(&mut rng).unwrap();
        let mut d = ChurnDynamics::new(rate, mttr, seed, Box::new(StaticDynamics));
        let mut saw_repair = false;
        for t in 0..20 {
            let snap = d.snapshot(t, &net, &mut rng);
            let down = d.down_edges();
            let repaired_now: Vec<_> = d
                .churn_events()
                .iter()
                .filter(|ev| ev.t == t && ev.kind == ChurnEventKind::Repair)
                .map(|ev| ev.edge)
                .collect();
            for e in net.graph().edge_ids() {
                if !down.contains(&e) {
                    prop_assert_eq!(snap.channels(e), net.channel_capacity(e));
                }
            }
            for e in repaired_now {
                if !down.contains(&e) {
                    saw_repair = true;
                    prop_assert_eq!(snap.channels(e), net.channel_capacity(e));
                }
            }
            if down.is_empty() {
                prop_assert_eq!(snap, CapacitySnapshot::full(&net));
            }
        }
        let _ = saw_repair; // invariants above are the property; repairs
                            // are exercised whenever the trace has them
    }

    /// A fixed seed reproduces the identical failure trace, regardless of
    /// what the environment RNG stream does.
    #[test]
    fn churn_trace_reproducible(seed in 0u64..10_000, env_a in 0u64..1000, env_b in 0u64..1000) {
        use qdn_net::dynamics::{ChurnDynamics, ResourceDynamics};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let net = NetworkConfig::paper_default().with_nodes(10).build(&mut rng).unwrap();
        let run = |env_seed: u64| {
            let mut d = ChurnDynamics::new(0.8, 3.0, seed, Box::new(UniformOccupancy::new(0.4)));
            let mut env = rand::rngs::StdRng::seed_from_u64(env_seed);
            for t in 0..15 {
                let _ = d.snapshot(t, &net, &mut env);
            }
            d.churn_events().to_vec()
        };
        let trace_a = run(env_a);
        let trace_b = run(env_b);
        prop_assert_eq!(trace_a, trace_b);
    }

    /// Route success probabilities are monotone in the allocation on real
    /// networks.
    #[test]
    fn route_success_monotone(seed in 0u64..10_000, base in 1u32..4) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = NetworkConfig::paper_default().with_nodes(10).build(&mut rng).unwrap();
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let pair = random_sd_pair(&mut rng, &net);
        let Some(route) = cr.routes(&net, pair).first().cloned() else {
            return Ok(());
        };
        let small = vec![base; route.hops()];
        let big = vec![base + 1; route.hops()];
        prop_assert!(net.route_success(&route, &big) >= net.route_success(&route, &small));
        prop_assert!(net.route_success(&route, &small) > 0.0);
        prop_assert!(net.route_success(&route, &big) < 1.0);
    }
}
