//! Property-based tests for the OSCAR core on randomized networks.

use proptest::prelude::*;
use qdn_core::allocation::AllocationMethod;
use qdn_core::baselines::{BudgetSplit, MyopicConfig, MyopicPolicy};
use qdn_core::oscar::{OscarConfig, OscarPolicy};
use qdn_core::policy::RoutingPolicy;
use qdn_core::problem::PerSlotContext;
use qdn_core::types::SlotState;
use qdn_graph::generators::ring;
use qdn_graph::{NodeId, Path};
use qdn_net::network::{QdnNetwork, QdnNetworkBuilder};
use qdn_net::{CapacitySnapshot, SdPair};
use qdn_physics::link::LinkModel;
use rand::SeedableRng;

/// A ring QDN with randomized capacities and link probabilities.
fn arb_ring_network() -> impl Strategy<Value = QdnNetwork> {
    (4usize..9).prop_flat_map(|n| {
        let qubits = proptest::collection::vec(4u32..16, n);
        let channels = proptest::collection::vec(2u32..8, n);
        let probs = proptest::collection::vec(0.2f64..0.9, n);
        (qubits, channels, probs).prop_map(move |(qubits, channels, probs)| {
            let graph = ring(n);
            let mut b = QdnNetworkBuilder::new();
            for &q in &qubits {
                b.add_node(q);
            }
            for (e, u, v) in graph.edges() {
                b.add_edge(
                    u,
                    v,
                    channels[e.index()],
                    LinkModel::new(probs[e.index()]).unwrap(),
                )
                .unwrap();
            }
            b.build()
        })
    })
}

/// Audits a decision against a snapshot without using simulator code.
fn capacity_ok(net: &QdnNetwork, snap: &CapacitySnapshot, d: &qdn_core::Decision) -> bool {
    let mut node = vec![0u64; net.node_count()];
    let mut edge = vec![0u64; net.edge_count()];
    for a in d.assignments() {
        for (e, &n) in a.route.edges().iter().zip(&a.allocation) {
            if n == 0 {
                return false;
            }
            let (u, v) = net.graph().endpoints(*e);
            node[u.index()] += n as u64;
            node[v.index()] += n as u64;
            edge[e.index()] += n as u64;
        }
    }
    net.graph()
        .node_ids()
        .all(|v| node[v.index()] <= snap.qubits(v) as u64)
        && net
            .graph()
            .edge_ids()
            .all(|e| edge[e.index()] <= snap.channels(e) as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// OSCAR decisions always satisfy the capacity constraints and serve
    /// every request it claims to serve.
    #[test]
    fn oscar_decisions_feasible(net in arb_ring_network(), seed in 0u64..1000) {
        let mut policy = OscarPolicy::new(OscarConfig {
            total_budget: 200.0,
            horizon: 10,
            ..OscarConfig::paper_default()
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for t in 0..5 {
            let requests: Vec<SdPair> = (0..2)
                .map(|_| qdn_net::workload::random_sd_pair(&mut rng, &net))
                .collect();
            let snap = CapacitySnapshot::full(&net);
            let slot = SlotState::new(t, requests.clone(), snap.clone());
            let d = policy.decide(&net, &slot, &mut rng);
            prop_assert!(capacity_ok(&net, &snap, &d), "slot {t}");
            prop_assert_eq!(d.request_count(), requests.len());
        }
    }

    /// The myopic baselines respect their per-slot budgets on random
    /// networks, for random budgets.
    #[test]
    fn myopic_budget_respected(net in arb_ring_network(), seed in 0u64..1000, budget in 50.0f64..400.0) {
        for split in [BudgetSplit::Fixed, BudgetSplit::Adaptive] {
            let mut policy = MyopicPolicy::new(MyopicConfig {
                split,
                total_budget: budget,
                horizon: 8,
                ..MyopicConfig::paper_default(split)
            });
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut total = 0u64;
            for t in 0..8 {
                let requests: Vec<SdPair> = (0..2)
                    .map(|_| qdn_net::workload::random_sd_pair(&mut rng, &net))
                    .collect();
                let slot = SlotState::new(t, requests, CapacitySnapshot::full(&net));
                let d = policy.decide(&net, &slot, &mut rng);
                total += d.total_cost();
            }
            prop_assert!(total as f64 <= budget, "{split:?} spent {total} > {budget}");
        }
    }

    /// Greedy allocation is monotone in the queue price: a higher price
    /// never allocates more units to the same profile.
    #[test]
    fn allocation_monotone_in_price(net in arb_ring_network(), lo in 0.0f64..5.0, extra in 0.1f64..50.0) {
        // Fixed 2-hop route around the ring.
        let route = Path::from_nodes(
            net.graph(),
            vec![NodeId(0), NodeId(1), NodeId(2)],
        ).unwrap();
        let pair = SdPair::new(NodeId(0), NodeId(2)).unwrap();
        let snap = CapacitySnapshot::full(&net);
        let profile = vec![(pair, &route)];

        let cheap = PerSlotContext::oscar(&net, &snap, 1000.0, lo)
            .evaluate(&profile, &AllocationMethod::Greedy);
        let dear = PerSlotContext::oscar(&net, &snap, 1000.0, lo + extra)
            .evaluate(&profile, &AllocationMethod::Greedy);
        let (Some(cheap), Some(dear)) = (cheap, dear) else {
            return Ok(()); // capacity-infeasible draw; nothing to compare
        };
        let total = |ev: &qdn_core::problem::ProfileEvaluation| -> u32 {
            ev.allocations.iter().flatten().sum()
        };
        prop_assert!(total(&dear) <= total(&cheap));
    }

    /// The swap factor enters the per-slot objective as exactly
    /// `V · swaps · ln q` per route: a constant shift that never changes
    /// the allocation itself.
    #[test]
    fn swap_term_is_exact_constant_shift(
        net in arb_ring_network(),
        q in 0.3f64..0.999,
        price in 0.0f64..10.0,
    ) {
        use qdn_physics::swap::SwapModel;
        // Rebuild the same network with a lossy swap model.
        let lossy = {
            let mut b = QdnNetworkBuilder::new();
            for v in net.graph().node_ids() {
                b.add_node(net.qubit_capacity(v));
            }
            for (e, u, v) in net.graph().edges() {
                b.add_edge(u, v, net.channel_capacity(e), *net.link(e)).unwrap();
            }
            b.set_swap(SwapModel::new(q).unwrap());
            b.build()
        };
        let route = Path::from_nodes(
            net.graph(),
            vec![NodeId(0), NodeId(1), NodeId(2)],
        ).unwrap();
        let pair = SdPair::new(NodeId(0), NodeId(2)).unwrap();
        let profile = vec![(pair, &route)];
        let v_weight = 700.0;

        let snap_perfect = CapacitySnapshot::full(&net);
        let perfect = PerSlotContext::oscar(&net, &snap_perfect, v_weight, price)
            .evaluate(&profile, &AllocationMethod::Greedy);
        let snap_lossy = CapacitySnapshot::full(&lossy);
        let lossy_ev = PerSlotContext::oscar(&lossy, &snap_lossy, v_weight, price)
            .evaluate(&profile, &AllocationMethod::Greedy);
        let (Some(a), Some(b)) = (perfect, lossy_ev) else {
            return Ok(());
        };
        // Identical allocations (the term is allocation-independent)…
        prop_assert_eq!(&a.allocations, &b.allocations);
        // …and an objective shifted by exactly V·(swaps=1)·ln q.
        let shift = a.objective - b.objective;
        prop_assert!((shift - v_weight * (1.0 / q).ln()).abs() < 1e-6,
            "shift {shift} vs expected {}", v_weight * (1.0 / q).ln());
    }

    /// Multi-EC workloads keep every request set within the advertised
    /// `F` bound and every copy is a valid pair of the base draw.
    #[test]
    fn multi_ec_respects_f_bound(
        net in arb_ring_network(),
        seed in 0u64..1000,
        base_max in 1usize..4,
        k in 1usize..4,
    ) {
        use qdn_net::workload::{MultiEcWorkload, UniformWorkload, Workload};
        let mut wl = MultiEcWorkload::new(UniformWorkload::new(1, base_max), k);
        prop_assert_eq!(wl.max_pairs(), base_max * k);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for t in 0..12 {
            let set = wl.requests(t, &net, &mut rng);
            prop_assert!(set.len() <= wl.max_pairs());
            prop_assert!(!set.is_empty());
            for p in &set {
                prop_assert!(p.source() != p.destination());
                prop_assert!(p.source().index() < net.node_count());
                prop_assert!(p.destination().index() < net.node_count());
            }
        }
    }

    /// Reset makes policies replayable: the same slot decided twice around
    /// a reset (with identical RNG streams) yields identical decisions.
    #[test]
    fn reset_restores_determinism(net in arb_ring_network(), seed in 0u64..1000) {
        let mut policy = OscarPolicy::new(OscarConfig {
            total_budget: 300.0,
            horizon: 12,
            ..OscarConfig::paper_default()
        });
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let requests: Vec<SdPair> = (0..2)
            .map(|_| qdn_net::workload::random_sd_pair(&mut rng, &net))
            .collect();
        let slot = SlotState::new(0, requests, CapacitySnapshot::full(&net));

        let mut rng1 = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF00D);
        let d1 = policy.decide(&net, &slot, &mut rng1);
        policy.reset();
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF00D);
        let d2 = policy.decide(&net, &slot, &mut rng2);
        prop_assert_eq!(d1, d2);
    }

    /// The incremental, component-decomposed `ProfileEvaluator` is
    /// bit-identical to the full-rebuild `PerSlotContext::evaluate` path:
    /// same feasibility verdicts, same objectives (compared via
    /// `to_bits`), same allocations — across random topologies, random
    /// pair sets, every allocation method, and a random walk of
    /// single-pair moves (the Gibbs/greedy access pattern, which
    /// exercises the per-component memo on both hits and misses).
    #[test]
    fn incremental_matches_full_rebuild(
        net in arb_ring_network(),
        n_pairs in 1usize..4,
        v in 10.0f64..3000.0,
        price in 0.0f64..40.0,
        seed in 0u64..1000,
    ) {
        use qdn_core::profile_eval::{EvalOptions, ProfileEvaluator};
        use qdn_core::route_selection::Candidates;
        use qdn_net::routes::{CandidateRoutes, RouteLimits};
        use rand::RngExt;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let owned: Vec<(SdPair, Vec<Path>)> = (0..n_pairs)
            .map(|_| {
                let pair = qdn_net::workload::random_sd_pair(&mut rng, &net);
                (pair, cr.routes(&net, pair).to_vec())
            })
            .collect();
        prop_assume!(owned.iter().all(|(_, routes)| !routes.is_empty()));
        let cands: Vec<Candidates> = owned
            .iter()
            .map(|(pair, routes)| Candidates { pair: *pair, routes })
            .collect();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, v, price);

        for method in [
            AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default()),
            AllocationMethod::Greedy,
            AllocationMethod::Minimal,
        ] {
            // The default (dynamic-partition) evaluator; static-vs-
            // dynamic equivalence is `dynamic_matches_static_partition`.
            let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, EvalOptions::default());
            let mut indices: Vec<usize> = cands
                .iter()
                .map(|c| rng.random_range(0..c.routes.len()))
                .collect();
            // Random walk of single-pair moves, revisiting profiles.
            for step in 0..20 {
                let profile: Vec<(SdPair, &Path)> = cands
                    .iter()
                    .zip(&indices)
                    .map(|(c, &i)| (c.pair, &c.routes[i]))
                    .collect();
                let reference = ctx.evaluate(&profile, &method);
                let incremental = eval.evaluate(&indices);
                match (&reference, &incremental) {
                    (None, None) => {}
                    (Some(r), Some(x)) => {
                        prop_assert_eq!(
                            r.objective.to_bits(),
                            x.objective.to_bits(),
                            "objective diverged at step {} ({}): {} vs {}",
                            step,
                            method.label(),
                            r.objective,
                            x.objective
                        );
                        prop_assert_eq!(&r.allocations, &x.allocations);
                    }
                    _ => prop_assert!(
                        false,
                        "feasibility diverged at step {} ({})",
                        step,
                        method.label()
                    ),
                }
                // The objective-only entry points agree bit-for-bit too.
                prop_assert_eq!(
                    ctx.evaluate_objective(&profile, &method).map(f64::to_bits),
                    eval.evaluate_objective(&indices).map(f64::to_bits)
                );
                let i = rng.random_range(0..indices.len());
                indices[i] = rng.random_range(0..cands[i].routes.len());
            }
        }
    }

    /// A run that threads one `SelectorSession` through every slot is
    /// bit-identical to building everything fresh per slot, as long as
    /// warm seeding is off (`warm_profile_seed: false` and
    /// `warm_start: false`) — across both partitions, Gibbs and
    /// greedy-local selectors, drifting prices,
    /// changing request sets, and alternating OSCAR/budgeted contexts.
    #[test]
    fn session_matches_fresh_per_slot(
        net in arb_ring_network(),
        seed in 0u64..1000,
        v in 100.0f64..2000.0,
    ) {
        use qdn_core::profile_eval::{EvalOptions, PartitionMode, SelectorSession};
        use qdn_core::route_selection::{Candidates, GibbsConfig, RouteSelector};
        use qdn_net::routes::{CandidateRoutes, RouteLimits};

        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default());
        for partition in [PartitionMode::Static, PartitionMode::Dynamic] {
            let evaluator = EvalOptions { partition, warm_profile_seed: false };
            for selector in [
                RouteSelector::Gibbs(GibbsConfig {
                    iterations: 10,
                    evaluator,
                    ..GibbsConfig::paper_default()
                }),
                RouteSelector::GreedyLocal { max_rounds: 3, evaluator },
            ] {
                let mut session = SelectorSession::new();
                let mut env = rand::rngs::StdRng::seed_from_u64(seed);
                // Identical policy RNG streams for the two paths.
                let mut rng_session = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1CE);
                let mut rng_fresh = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1CE);
                let mut price = 1.0 + (seed % 7) as f64;
                for slot in 0..4u64 {
                    let n_pairs = 1 + (slot as usize + seed as usize) % 2;
                    let owned: Vec<(SdPair, Vec<Path>)> = (0..n_pairs)
                        .map(|_| {
                            let pair = qdn_net::workload::random_sd_pair(&mut env, &net);
                            (pair, cr.routes(&net, pair).to_vec())
                        })
                        .filter(|(_, routes)| !routes.is_empty())
                        .collect();
                    let cands: Vec<Candidates> = owned
                        .iter()
                        .map(|(pair, routes)| Candidates { pair: *pair, routes })
                        .collect();
                    let snap = CapacitySnapshot::full(&net);
                    // Alternate the budget-coupled myopic context in.
                    let ctx = if slot % 2 == 0 {
                        PerSlotContext::oscar(&net, &snap, v, price)
                    } else {
                        PerSlotContext::myopic(&net, &snap, 40 + slot)
                    };
                    let with_session =
                        selector.select_in(&mut session, &ctx, &cands, &method, &mut rng_session);
                    let fresh = selector.select(&ctx, &cands, &method, &mut rng_fresh);
                    prop_assert_eq!(
                        &with_session, &fresh,
                        "slot {} diverged ({:?}, {})",
                        slot, partition, selector.label()
                    );
                    price += 3.0 + (slot as f64) * 2.0; // drifting q_t
                }
            }
        }
    }

    /// With warm starts enabled (`RelaxedOptions::warm_start` — session
    /// λ seeding engages across slots), the session path is no longer
    /// bit-identical, but on an *exact* selector (exhaustive
    /// enumeration) it must select profiles whose objectives agree with
    /// the fresh path within the solver's certified tolerance, slot
    /// after slot. This is the "within the certified gap" arm of the
    /// session determinism contract.
    #[test]
    fn warm_session_objective_within_certified_gap(
        net in arb_ring_network(),
        seed in 0u64..1000,
        v in 100.0f64..2000.0,
    ) {
        use qdn_core::profile_eval::{EvalOptions, SelectorSession};
        use qdn_core::route_selection::{Candidates, RouteSelector};
        use qdn_net::routes::{CandidateRoutes, RouteLimits};

        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions {
            warm_start: true,
            ..qdn_solve::RelaxedOptions::default()
        });
        let selector = RouteSelector::Exhaustive {
            max_combinations: 4096,
            fallback: qdn_core::route_selection::GibbsConfig::paper_default(),
            evaluator: EvalOptions::warm_seeded(),
        };
        let mut session = SelectorSession::new();
        let mut env = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_session = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFEED);
        let mut rng_fresh = rand::rngs::StdRng::seed_from_u64(seed ^ 0xFEED);
        let mut price = 1.0;
        for slot in 0..5u64 {
            let owned: Vec<(SdPair, Vec<Path>)> = (0..2)
                .map(|_| {
                    let pair = qdn_net::workload::random_sd_pair(&mut env, &net);
                    (pair, cr.routes(&net, pair).to_vec())
                })
                .filter(|(_, routes)| !routes.is_empty())
                .collect();
            let cands: Vec<Candidates> = owned
                .iter()
                .map(|(pair, routes)| Candidates { pair: *pair, routes })
                .collect();
            let snap = CapacitySnapshot::full(&net);
            let ctx = PerSlotContext::oscar(&net, &snap, v, price);
            let warm = selector.select_in(&mut session, &ctx, &cands, &method, &mut rng_session);
            let cold = selector.select(&ctx, &cands, &method, &mut rng_fresh);
            match (&warm, &cold) {
                (None, None) => {}
                (Some(w), Some(c)) => {
                    let (w, c) = (w.evaluation.objective, c.evaluation.objective);
                    // Same tolerance discipline as the evaluator's
                    // neighbor-λ agreement test: warm answers may move
                    // within the solver tolerance, never past it.
                    let tol = 0.05 * (1.0 + c.abs());
                    prop_assert!(
                        (w - c).abs() <= tol,
                        "slot {}: warm {} vs cold {} (tol {})", slot, w, c, tol
                    );
                }
                _ => prop_assert!(false, "feasibility diverged at slot {}", slot),
            }
            price += 5.0;
        }
    }

    /// The dynamic route-keyed partition is bit-identical to the static
    /// candidate-union partition (and hence, transitively through
    /// `incremental_matches_full_rebuild`, to the full-rebuild path):
    /// same feasibility verdicts, same objectives (via `to_bits`), same
    /// allocations — across random topologies and pair sets, the
    /// relax-and-round and greedy allocators, and a random walk that
    /// mixes single-pair moves (the selectors' access pattern, which
    /// churns the dynamic groups through merges and splits) with
    /// arbitrary profile jumps.
    #[test]
    fn dynamic_matches_static_partition(
        net in arb_ring_network(),
        n_pairs in 2usize..5,
        v in 10.0f64..3000.0,
        price in 0.0f64..40.0,
        seed in 0u64..1000,
    ) {
        use qdn_core::profile_eval::{EvalOptions, ProfileEvaluator};
        use qdn_core::route_selection::Candidates;
        use qdn_net::routes::{CandidateRoutes, RouteLimits};
        use rand::RngExt;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let owned: Vec<(SdPair, Vec<Path>)> = (0..n_pairs)
            .map(|_| {
                let pair = qdn_net::workload::random_sd_pair(&mut rng, &net);
                (pair, cr.routes(&net, pair).to_vec())
            })
            .collect();
        prop_assume!(owned.iter().all(|(_, routes)| !routes.is_empty()));
        let cands: Vec<Candidates> = owned
            .iter()
            .map(|(pair, routes)| Candidates { pair: *pair, routes })
            .collect();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, v, price);

        for method in [
            AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default()),
            AllocationMethod::Greedy,
        ] {
            let mut dynamic =
                ProfileEvaluator::new(&ctx, &cands, &method, EvalOptions::default());
            let mut fixed =
                ProfileEvaluator::new(&ctx, &cands, &method, EvalOptions::static_partition());
            let mut indices: Vec<usize> = cands
                .iter()
                .map(|c| rng.random_range(0..c.routes.len()))
                .collect();
            for step in 0..18 {
                // Alternate single-pair moves with arbitrary jumps.
                if step % 3 == 2 {
                    for idx in indices.iter_mut().zip(&cands) {
                        *idx.0 = rng.random_range(0..idx.1.routes.len());
                    }
                } else {
                    let i = rng.random_range(0..indices.len());
                    indices[i] = rng.random_range(0..cands[i].routes.len());
                }
                let (dyn_ev, static_ev) = (dynamic.evaluate(&indices), fixed.evaluate(&indices));
                match (&static_ev, &dyn_ev) {
                    (None, None) => {}
                    (Some(s), Some(d)) => {
                        prop_assert_eq!(
                            s.objective.to_bits(),
                            d.objective.to_bits(),
                            "objective diverged at step {} ({}): {} vs {}",
                            step,
                            method.label(),
                            s.objective,
                            d.objective
                        );
                        prop_assert_eq!(&s.allocations, &d.allocations);
                    }
                    _ => prop_assert!(
                        false,
                        "feasibility diverged at step {} ({})",
                        step,
                        method.label()
                    ),
                }
                prop_assert_eq!(
                    fixed.evaluate_objective(&indices).map(f64::to_bits),
                    dynamic.evaluate_objective(&indices).map(f64::to_bits)
                );
            }
            // The dynamic refinement never coarsens the static envelope.
            prop_assert!(
                dynamic.stats().dynamic_components >= fixed.stats().dynamic_components
            );
        }
    }

    /// Snapshot/restore is invisible to the decision stream: running N
    /// slots through the engine facade, snapshotting mid-run through
    /// the JSON wire form, restoring into a fresh `EngineState`, and
    /// continuing both the original and the restored state with twin
    /// RNGs yields bit-identical decisions — across both partitions.
    /// The restored state must also re-snapshot to
    /// the exact same bytes (canonical ordering), which is what lets
    /// the serve daemon restart warm without drifting.
    #[test]
    fn restored_session_matches_uninterrupted(
        net in arb_ring_network(),
        seed in 0u64..1000,
        v in 100.0f64..2000.0,
    ) {
        use qdn_core::profile_eval::{EvalOptions, PartitionMode};
        use qdn_core::route_selection::{GibbsConfig, RouteSelector};
        use qdn_core::{decide, EngineSnapshot, EngineState, SlotDecisionRequest};
        use qdn_net::routes::RouteLimits;

        let mut env = rand::rngs::StdRng::seed_from_u64(seed);
        // One request trace shared by the warm run and the restored
        // continuation: restore replays state, not arrivals.
        let trace: Vec<Vec<SdPair>> = (0..6)
            .map(|slot| {
                (0..1 + (slot + seed as usize) % 2)
                    .map(|_| qdn_net::workload::random_sd_pair(&mut env, &net))
                    .collect()
            })
            .collect();
        let snap = CapacitySnapshot::full(&net);
        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default());
        for partition in [PartitionMode::Static, PartitionMode::Dynamic] {
            let evaluator = EvalOptions { partition, warm_profile_seed: false };
            let selector = RouteSelector::Gibbs(GibbsConfig {
                iterations: 8,
                evaluator,
                ..GibbsConfig::paper_default()
            });
            let mut state = EngineState::new(RouteLimits::paper_default());
            let mut price = 1.0 + (seed % 5) as f64;
            for (slot, reqs) in trace.iter().enumerate().take(3) {
                let ctx = PerSlotContext::oscar(&net, &snap, v, price);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ ((slot as u64) << 8));
                let _ = decide(&mut state, SlotDecisionRequest {
                    network: &net,
                    requests: reqs,
                    ctx: &ctx,
                    selector: &selector,
                    allocation: &method,
                    fidelity_target: None,
                    rng: &mut rng,
                });
                price += 3.0 + slot as f64;
            }
            let wire = serde_json::to_string(&state.snapshot()).unwrap();
            let decoded: EngineSnapshot = serde_json::from_str(&wire).unwrap();
            let mut restored = EngineState::restore(&decoded).unwrap();
            prop_assert_eq!(
                serde_json::to_string(&restored.snapshot()).unwrap(),
                wire,
                "re-snapshot not byte-identical ({:?})",
                partition
            );
            for (slot, reqs) in trace.iter().enumerate().skip(3) {
                let ctx = PerSlotContext::oscar(&net, &snap, v, price);
                let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed ^ ((slot as u64) << 8));
                let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed ^ ((slot as u64) << 8));
                let cont = decide(&mut state, SlotDecisionRequest {
                    network: &net,
                    requests: reqs,
                    ctx: &ctx,
                    selector: &selector,
                    allocation: &method,
                    fidelity_target: None,
                    rng: &mut rng_a,
                });
                let rest = decide(&mut restored, SlotDecisionRequest {
                    network: &net,
                    requests: reqs,
                    ctx: &ctx,
                    selector: &selector,
                    allocation: &method,
                    fidelity_target: None,
                    rng: &mut rng_b,
                });
                prop_assert_eq!(
                    &cont, &rest,
                    "slot {} diverged after restore ({:?})",
                    slot, partition
                );
                price += 3.0 + slot as f64;
            }
        }
    }

    /// Topology churn never desynchronizes a session from a cold
    /// rebuild: threading one `SelectorSession` (and one incrementally
    /// repaired `CandidateRoutes` cache) through a trace of link cuts
    /// and repairs is bit-identical to building the evaluator fresh
    /// every slot over the same candidates — across both partitions.
    /// Region-scoped invalidation may retain memos
    /// across a cut; this pins down that it never retains a stale one.
    #[test]
    fn churn_matches_cold_rebuild(
        net in arb_ring_network(),
        seed in 0u64..1000,
        v in 100.0f64..2000.0,
    ) {
        use qdn_core::profile_eval::{EvalOptions, PartitionMode, SelectorSession};
        use qdn_core::route_selection::{Candidates, GibbsConfig, RouteSelector};
        use qdn_net::routes::{CandidateRoutes, RouteLimits};

        let mut env = rand::rngs::StdRng::seed_from_u64(seed);
        // Pinned pairs: the same demands live through the churn trace,
        // so carried-over profiles and memos actually get exercised.
        let pairs: Vec<SdPair> = (0..2)
            .map(|_| qdn_net::workload::random_sd_pair(&mut env, &net))
            .collect();
        let m = net.edge_count();
        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default());
        for partition in [PartitionMode::Static, PartitionMode::Dynamic] {
            let evaluator = EvalOptions { partition, warm_profile_seed: false };
            let selector = RouteSelector::Gibbs(GibbsConfig {
                iterations: 8,
                evaluator,
                ..GibbsConfig::paper_default()
            });
            let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
            let mut session = SelectorSession::new();
            let mut rng_session = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
            let mut rng_fresh = rand::rngs::StdRng::seed_from_u64(seed ^ 0xC0DE);
            let mut down = vec![false; m];
            let mut price = 1.0 + (seed % 5) as f64;
            for slot in 0..6u64 {
                // Toggle one link per slot: first sighting cuts it,
                // the next toggle repairs it — a fail/repair trace.
                let e = ((seed as usize).wrapping_add(slot as usize * 7)) % m;
                down[e] = !down[e];
                let channels: Vec<u32> = net
                    .graph()
                    .edge_ids()
                    .map(|e| if down[e.index()] { 0 } else { net.channel_capacity(e) })
                    .collect();
                let qubits: Vec<u32> = net
                    .graph()
                    .node_ids()
                    .map(|v| net.qubit_capacity(v))
                    .collect();
                let snap = CapacitySnapshot::clamped(&net, qubits, channels);
                cr.sync_dead_edges(&net, &snap);
                let owned: Vec<(SdPair, Vec<Path>)> = pairs
                    .iter()
                    .map(|&p| (p, cr.routes(&net, p).to_vec()))
                    .filter(|(_, routes)| !routes.is_empty())
                    .collect();
                if owned.is_empty() {
                    // Both paths see the same disconnection; the
                    // session simply idles this slot.
                    price += 2.0;
                    continue;
                }
                let cands: Vec<Candidates> = owned
                    .iter()
                    .map(|(pair, routes)| Candidates { pair: *pair, routes })
                    .collect();
                let ctx = PerSlotContext::oscar(&net, &snap, v, price);
                let with_session =
                    selector.select_in(&mut session, &ctx, &cands, &method, &mut rng_session);
                let fresh = selector.select(&ctx, &cands, &method, &mut rng_fresh);
                prop_assert_eq!(
                    &with_session, &fresh,
                    "slot {} diverged ({:?})",
                    slot, partition
                );
                price += 3.0 + (slot as f64);
            }
        }
    }

    /// Cutting a node is exactly cutting its incident edge set: the
    /// node-cut snapshot additionally zeroes the dark node's qubits,
    /// but no surviving candidate can cross a node whose links are all
    /// dead, so that capacity never enters an allocation instance and
    /// the slot decisions are bit-identical. The same node-cut trace is
    /// also replayed under the global flush-everything ablation
    /// (`set_global_invalidation`), pinning that region-scoped
    /// invalidation never retains a stale memo across a node cut.
    #[test]
    fn node_churn_matches_edge_set_churn(
        net in arb_ring_network(),
        seed in 0u64..1000,
        v in 100.0f64..2000.0,
    ) {
        use qdn_core::profile_eval::{EvalOptions, PartitionMode, SelectorSession};
        use qdn_core::route_selection::{Candidates, GibbsConfig, RouteSelector};
        use qdn_net::routes::{CandidateRoutes, RouteLimits};

        let mut env = rand::rngs::StdRng::seed_from_u64(seed);
        let pairs: Vec<SdPair> = (0..2)
            .map(|_| qdn_net::workload::random_sd_pair(&mut env, &net))
            .collect();
        let n = net.node_count();
        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default());
        for partition in [PartitionMode::Static, PartitionMode::Dynamic] {
            let evaluator = EvalOptions { partition, warm_profile_seed: false };
            let selector = RouteSelector::Gibbs(GibbsConfig {
                iterations: 8,
                evaluator,
                ..GibbsConfig::paper_default()
            });
            // Three sessions over one churn trace: node cuts under
            // region-scoped invalidation, the same cuts expressed as
            // pure edge-set cuts, and node cuts under global flush.
            let mut cr_node = CandidateRoutes::new(RouteLimits::paper_default());
            let mut cr_edge = CandidateRoutes::new(RouteLimits::paper_default());
            let mut cr_glob = CandidateRoutes::new(RouteLimits::paper_default());
            let mut s_node = SelectorSession::new();
            let mut s_edge = SelectorSession::new();
            let mut s_glob = SelectorSession::new();
            s_glob.set_global_invalidation(true);
            let mut rng_node = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut rng_edge = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut rng_glob = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut down = vec![false; n];
            let mut price = 1.0 + (seed % 5) as f64;
            let mut decided = 0u32;
            let mut cut: Vec<usize> = Vec::new();
            for slot in 0..6u64 {
                // Cut a region on even slots (all incident links die
                // together), restore it on the next slot — the
                // surviving ring keeps routing while every slot still
                // crosses a transition. Every other cut darkens two
                // ring-adjacent nodes at once (a correlated regional
                // outage), the rest a single node.
                if slot % 2 == 0 {
                    let base = ((seed as usize).wrapping_add(slot as usize * 3)) % n;
                    cut = if slot % 4 == 2 {
                        vec![base, (base + 1) % n]
                    } else {
                        vec![base]
                    };
                    for &v in &cut {
                        down[v] = true;
                    }
                } else {
                    for &v in &cut {
                        down[v] = false;
                    }
                    cut.clear();
                }
                let channels: Vec<u32> = net
                    .graph()
                    .edges()
                    .map(|(e, u, w)| {
                        if down[u.index()] || down[w.index()] {
                            0
                        } else {
                            net.channel_capacity(e)
                        }
                    })
                    .collect();
                let full_qubits: Vec<u32> = net
                    .graph()
                    .node_ids()
                    .map(|u| net.qubit_capacity(u))
                    .collect();
                let dark_qubits: Vec<u32> = net
                    .graph()
                    .node_ids()
                    .map(|u| if down[u.index()] { 0 } else { net.qubit_capacity(u) })
                    .collect();
                let snap_node = CapacitySnapshot::clamped(&net, dark_qubits, channels.clone());
                let snap_edge = CapacitySnapshot::clamped(&net, full_qubits, channels);
                cr_node.sync_dead_edges(&net, &snap_node);
                cr_edge.sync_dead_edges(&net, &snap_edge);
                cr_glob.sync_dead_edges(&net, &snap_node);
                let owned: Vec<(SdPair, Vec<Path>)> = pairs
                    .iter()
                    .map(|&p| (p, cr_node.routes(&net, p).to_vec()))
                    .filter(|(_, routes)| !routes.is_empty())
                    .collect();
                // All three caches saw the same dead-edge set, so the
                // candidates must agree before any selection runs.
                for (pair, routes) in &owned {
                    prop_assert_eq!(routes, cr_edge.routes(&net, *pair));
                    prop_assert_eq!(routes, cr_glob.routes(&net, *pair));
                }
                if owned.is_empty() {
                    price += 2.0;
                    continue;
                }
                let cands: Vec<Candidates> = owned
                    .iter()
                    .map(|(pair, routes)| Candidates { pair: *pair, routes })
                    .collect();
                let ctx_node = PerSlotContext::oscar(&net, &snap_node, v, price);
                let ctx_edge = PerSlotContext::oscar(&net, &snap_edge, v, price);
                let d_node =
                    selector.select_in(&mut s_node, &ctx_node, &cands, &method, &mut rng_node);
                let d_edge =
                    selector.select_in(&mut s_edge, &ctx_edge, &cands, &method, &mut rng_edge);
                let d_glob =
                    selector.select_in(&mut s_glob, &ctx_node, &cands, &method, &mut rng_glob);
                decided += 1;
                prop_assert_eq!(
                    &d_node, &d_edge,
                    "node cut vs incident-edge cut diverged at slot {} ({:?})",
                    slot, partition
                );
                prop_assert_eq!(
                    &d_node, &d_glob,
                    "region-scoped vs global flush diverged at slot {} ({:?})",
                    slot, partition
                );
                price += 3.0 + slot as f64;
            }
            // On a ring, cutting one node leaves a path graph, so the
            // trace must actually decide slots — the equivalence above
            // is vacuous otherwise.
            prop_assert!(decided > 0, "every slot idled ({:?})", partition);
        }
    }
}

// Every pooled stage reduces in fixed index order, so running on the
// work-stealing pool is **bit-identical** to the serial reference at
// every pool width — not "statistically the same", the same bits.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pool widths 1, 2, and 4 × both partition modes, for both the
    /// multi-chain Gibbs sampler (per-chain
    /// seeded RNG streams, chain-index-order reduction, compared
    /// against the always-serial shared-evaluator reference) and the
    /// greedy-local selector (whose evaluator pre-pass fans component
    /// solves onto the pool; compared across widths and, via the
    /// full-rebuild check, against the serial evaluation path).
    #[test]
    fn parallel_matches_serial_bit_identical(
        net in arb_ring_network(),
        n_pairs in 2usize..5,
        v in 100.0f64..2000.0,
        price in 0.0f64..20.0,
        seed in 0u64..1000,
    ) {
        use qdn_core::profile_eval::{EvalOptions, PartitionMode, ProfileEvaluator};
        use qdn_core::route_selection::{gibbs, Candidates, GibbsConfig, RouteSelector};
        use qdn_net::routes::{CandidateRoutes, RouteLimits};
        use rand::RngExt;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        let owned: Vec<(SdPair, Vec<Path>)> = (0..n_pairs)
            .map(|_| {
                let pair = qdn_net::workload::random_sd_pair(&mut rng, &net);
                (pair, cr.routes(&net, pair).to_vec())
            })
            .collect();
        prop_assume!(owned.iter().all(|(_, routes)| !routes.is_empty()));
        let cands: Vec<Candidates> = owned
            .iter()
            .map(|(pair, routes)| Candidates { pair: *pair, routes })
            .collect();
        let snap = CapacitySnapshot::full(&net);
        let ctx = PerSlotContext::oscar(&net, &snap, v, price);
        let chain_seeds: Vec<u64> = (0..4).map(|_| rng.random()).collect();

        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default());
        for partition in [PartitionMode::Static, PartitionMode::Dynamic] {
            let evaluator = EvalOptions { partition, warm_profile_seed: false };

            // Gibbs restarts: the serial shared-evaluator reference
            // trajectory, then the pool at each width.
            let config = GibbsConfig {
                iterations: 6,
                restarts: chain_seeds.len(),
                evaluator,
                ..GibbsConfig::paper_default()
            };
            let reference = gibbs::sample_restarts_serial(
                &ctx, &cands, &method, &config, &chain_seeds, None,
            );
            let mut greedy_reference = None;
            for width in [1usize, 2, 4] {
                let pool = threadpool::ThreadPool::new(width);
                let got = pool.install(|| {
                    gibbs::sample_restarts(&ctx, &cands, &method, &config, &chain_seeds)
                });
                match (&reference, &got) {
                    (None, None) => {}
                    (Some(r), Some(g)) => {
                        prop_assert_eq!(
                            r.evaluation.objective.to_bits(),
                            g.evaluation.objective.to_bits(),
                            "gibbs objective diverged at width {} ({:?})",
                            width, partition
                        );
                        prop_assert_eq!(&r.indices, &g.indices);
                        prop_assert_eq!(&r.evaluation.allocations, &g.evaluation.allocations);
                    }
                    _ => prop_assert!(
                        false,
                        "gibbs feasibility diverged at width {} ({:?})",
                        width, partition
                    ),
                }

                // Greedy-local selector: same selection at every
                // width (twin RNG streams), and the evaluator's
                // pooled pre-pass stays bit-identical to the serial
                // full-rebuild evaluation of the chosen profile.
                let selector = RouteSelector::GreedyLocal { max_rounds: 3, evaluator };
                let mut sel_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9EED);
                let greedy = pool.install(|| {
                    selector.select(&ctx, &cands, &method, &mut sel_rng)
                });
                if let Some(g) = &greedy {
                    let profile: Vec<(SdPair, &Path)> = cands
                        .iter()
                        .zip(&g.indices)
                        .map(|(c, &i)| (c.pair, &c.routes[i]))
                        .collect();
                    let rebuilt = ctx
                        .evaluate(&profile, &method)
                        .expect("selected profile is feasible");
                    prop_assert_eq!(
                        rebuilt.objective.to_bits(),
                        g.evaluation.objective.to_bits(),
                        "greedy evaluation diverged from full rebuild at width {}",
                        width
                    );
                }
                let first = greedy_reference.get_or_insert_with(|| greedy.clone());
                prop_assert_eq!(
                    &*first, &greedy,
                    "greedy selection diverged at width {} ({:?})",
                    width, partition
                );

                // The evaluator pre-pass directly: a short random
                // walk, every profile compared bit-for-bit against
                // the serial full rebuild.
                let mut walk_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA11E);
                pool.install(|| -> proptest::TestCaseResult {
                    let mut eval =
                        ProfileEvaluator::new(&ctx, &cands, &method, evaluator);
                    let mut indices: Vec<usize> = cands
                        .iter()
                        .map(|c| walk_rng.random_range(0..c.routes.len()))
                        .collect();
                    for _ in 0..6 {
                        let profile: Vec<(SdPair, &Path)> = cands
                            .iter()
                            .zip(&indices)
                            .map(|(c, &i)| (c.pair, &c.routes[i]))
                            .collect();
                        prop_assert_eq!(
                            ctx.evaluate_objective(&profile, &method).map(f64::to_bits),
                            eval.evaluate_objective(&indices).map(f64::to_bits),
                            "pre-pass diverged at width {} ({:?})",
                            width, partition
                        );
                        let i = walk_rng.random_range(0..indices.len());
                        indices[i] = walk_rng.random_range(0..cands[i].routes.len());
                    }
                    Ok(())
                })?;
            }
        }
    }
}
