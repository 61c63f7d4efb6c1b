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
    /// 2–4-pair sets, every allocation method, and a random walk that
    /// mixes single-pair moves (the Gibbs/greedy access pattern, which
    /// exercises both memo levels on hits and misses and churns the
    /// dynamic groups through merges and splits) with an arbitrary
    /// profile jump every third step.
    #[test]
    fn incremental_matches_full_rebuild(
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
            AllocationMethod::Minimal,
        ] {
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
                if step % 3 == 2 {
                    for (idx, c) in indices.iter_mut().zip(&cands) {
                        *idx = rng.random_range(0..c.routes.len());
                    }
                } else {
                    let i = rng.random_range(0..indices.len());
                    indices[i] = rng.random_range(0..cands[i].routes.len());
                }
            }
        }
    }

    /// A session differs from fresh only through the seed: a run that
    /// threads one `SelectorSession` (and one incrementally repaired
    /// `CandidateRoutes` cache) through every slot is bit-identical to
    /// building the evaluator fresh per slot over the same candidates,
    /// as long as warm seeding is off (`warm_profile_seed: false`). One
    /// trace mixes drifting prices `q_t`, budgeted myopic slots,
    /// changing request sets, and a link cut and its repair, for the
    /// Gibbs and greedy-local selectors. The pinned pairs sit out one
    /// slot in four, during which the price moves and then holds: state
    /// kept from before the absence must not answer for the new price.
    /// Slot 5 runs on a second ring of another size, so the session's
    /// recycled buffers are rebuilt on the way there and back.
    #[test]
    fn session_matches_fresh_per_slot(
        net in arb_ring_network(),
        other in arb_ring_network(),
        seed in 0u64..1000,
        v in 100.0f64..2000.0,
    ) {
        prop_assume!(other.node_count() != net.node_count());
        use qdn_core::profile_eval::{EvalOptions, SelectorSession};
        use qdn_core::route_selection::{Candidates, GibbsConfig, RouteSelector};
        use qdn_net::routes::{CandidateRoutes, RouteLimits};

        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default());
        let evaluator = EvalOptions::default();
        let cut_edge = seed as usize % net.edge_count();
        for selector in [
            RouteSelector::Gibbs(GibbsConfig {
                iterations: 8,
                evaluator,
                ..GibbsConfig::paper_default()
            }),
            RouteSelector::GreedyLocal { max_rounds: 3, evaluator },
        ] {
            let mut env = rand::rngs::StdRng::seed_from_u64(seed);
            let pinned: Vec<SdPair> = (0..2)
                .map(|_| qdn_net::workload::random_sd_pair(&mut env, &net))
                .collect();
            let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
            let mut other_cr = CandidateRoutes::new(RouteLimits::paper_default());
            let mut session = SelectorSession::new();
            // Identical policy RNG streams for the two paths.
            let mut rng_session = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1CE);
            let mut rng_fresh = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1CE);
            let mut price = 1.0 + (seed % 7) as f64;
            for slot in 0..8u64 {
                let phase = slot % 4;
                let (net, cr) = if slot == 5 { (&other, &mut other_cr) } else { (&net, &mut cr) };
                // One link is cut at slot 3 and repaired at slot 7.
                let cut = (3..7).contains(&slot);
                let channels: Vec<u32> = net
                    .graph()
                    .edge_ids()
                    .map(|e| if cut && e.index() == cut_edge { 0 } else { net.channel_capacity(e) })
                    .collect();
                let qubits: Vec<u32> = net
                    .graph()
                    .node_ids()
                    .map(|v| net.qubit_capacity(v))
                    .collect();
                let snap = CapacitySnapshot::clamped(net, qubits, channels);
                cr.sync_dead_edges(net, &snap);
                // The pinned pairs sit out phase 1 (and the other network);
                // a fresh pair joins every slot but the budgeted one.
                let mut requests = if phase == 1 { Vec::new() } else { pinned.clone() };
                if phase != 3 {
                    requests.push(qdn_net::workload::random_sd_pair(&mut env, net));
                }
                // q_t moves into phases 1 and 3, and holds into phase 2.
                if phase == 1 || phase == 3 {
                    price += 3.0 + slot as f64;
                }
                let ctx = if phase == 3 {
                    PerSlotContext::myopic(net, &snap, 40 + slot)
                } else {
                    PerSlotContext::oscar(net, &snap, v, price)
                };
                // A ring with one link cut is a path, so every pair
                // keeps at least one candidate route.
                let owned: Vec<(SdPair, Vec<Path>)> = requests
                    .iter()
                    .map(|&p| (p, cr.routes(net, p).to_vec()))
                    .collect();
                prop_assert!(owned.iter().all(|(_, routes)| !routes.is_empty()));
                let cands: Vec<Candidates> = owned
                    .iter()
                    .map(|(pair, routes)| Candidates { pair: *pair, routes })
                    .collect();
                let with_session =
                    selector.select_in(&mut session, &ctx, &cands, &method, &mut rng_session);
                let fresh = selector.select(&ctx, &cands, &method, &mut rng_fresh);
                prop_assert_eq!(
                    &with_session, &fresh,
                    "slot {} diverged ({})",
                    slot, selector.label()
                );
            }
        }
    }

    /// Snapshot/restore is invisible to the decision stream: running N
    /// slots through the engine facade, snapshotting mid-run through
    /// the JSON wire form, restoring into a fresh `EngineState`, and
    /// continuing both the original and the restored state with twin
    /// RNGs yields bit-identical decisions. The restored state must also
    /// re-snapshot to
    /// the exact same bytes (canonical ordering), which is what lets
    /// the serve daemon restart warm without drifting.
    #[test]
    fn restored_session_matches_uninterrupted(
        net in arb_ring_network(),
        seed in 0u64..1000,
        v in 100.0f64..2000.0,
    ) {
        use qdn_core::profile_eval::EvalOptions;
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
        let evaluator = EvalOptions::default();
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
            "re-snapshot not byte-identical"
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
                "slot {} diverged after restore",
                slot
            );
            price += 3.0 + slot as f64;
        }
    }

    /// Cutting a node is exactly cutting its incident edge set: the
    /// node-cut snapshot additionally zeroes the dark node's qubits,
    /// but no surviving candidate can cross a node whose links are all
    /// dead, so that capacity never enters an allocation instance and
    /// the slot decisions are bit-identical. Both are also compared with
    /// a cold rebuild every slot.
    #[test]
    fn node_churn_matches_edge_set_churn(
        net in arb_ring_network(),
        seed in 0u64..1000,
        v in 100.0f64..2000.0,
    ) {
        use qdn_core::profile_eval::{EvalOptions, SelectorSession};
        use qdn_core::route_selection::{Candidates, GibbsConfig, RouteSelector};
        use qdn_net::routes::{CandidateRoutes, RouteLimits};

        let mut env = rand::rngs::StdRng::seed_from_u64(seed);
        let pairs: Vec<SdPair> = (0..2)
            .map(|_| qdn_net::workload::random_sd_pair(&mut env, &net))
            .collect();
        let n = net.node_count();
        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default());
        let evaluator = EvalOptions::default();
        let selector = RouteSelector::Gibbs(GibbsConfig {
            iterations: 8,
            evaluator,
            ..GibbsConfig::paper_default()
        });
        // Two sessions over one churn trace — node cuts, and the same
        // cuts expressed as pure edge-set cuts — plus a cold rebuild of
        // the node-cut slot.
        let mut cr_node = CandidateRoutes::new(RouteLimits::paper_default());
        let mut cr_edge = CandidateRoutes::new(RouteLimits::paper_default());
        let mut s_node = SelectorSession::new();
        let mut s_edge = SelectorSession::new();
        let mut rng_node = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut rng_edge = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
        let mut rng_cold = rand::rngs::StdRng::seed_from_u64(seed ^ 0xBEEF);
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
            let owned: Vec<(SdPair, Vec<Path>)> = pairs
                .iter()
                .map(|&p| (p, cr_node.routes(&net, p).to_vec()))
                .filter(|(_, routes)| !routes.is_empty())
                .collect();
            // Both caches saw the same dead-edge set, so the
            // candidates must agree before any selection runs.
            for (pair, routes) in &owned {
                prop_assert_eq!(routes, cr_edge.routes(&net, *pair));
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
            let d_cold = selector.select(&ctx_node, &cands, &method, &mut rng_cold);
            decided += 1;
            prop_assert_eq!(
                &d_node, &d_edge,
                "node cut vs incident-edge cut diverged at slot {}",
                slot
            );
            prop_assert_eq!(
                &d_node, &d_cold,
                "session vs cold rebuild diverged at slot {}",
                slot
            );
            price += 3.0 + slot as f64;
        }
        // On a ring, cutting one node leaves a path graph, so the
        // trace must actually decide slots — the equivalence above
        // is vacuous otherwise.
        prop_assert!(decided > 0, "every slot idled");
    }
}

// The incremental evaluator must give the bits of a full rebuild, both
// for a selector's final profile and along an arbitrary walk of profiles
// that reuses and extends one evaluator's memos.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The greedy-local selector's chosen profile, and every profile of a
    /// short random walk through one evaluator, compared bit-for-bit
    /// against the full-rebuild evaluation of the same profile.
    #[test]
    fn greedy_and_walk_match_full_rebuild(
        net in arb_ring_network(),
        n_pairs in 2usize..5,
        v in 100.0f64..2000.0,
        price in 0.0f64..20.0,
        seed in 0u64..1000,
    ) {
        use qdn_core::profile_eval::{EvalOptions, ProfileEvaluator};
        use qdn_core::route_selection::{Candidates, RouteSelector};
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

        let method = AllocationMethod::RelaxAndRound(qdn_solve::RelaxedOptions::default());
        let evaluator = EvalOptions::default();

        // Greedy-local selector: its evaluation of the chosen profile
        // equals the full rebuild.
        let selector = RouteSelector::GreedyLocal { max_rounds: 3, evaluator };
        let mut sel_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x9EED);
        if let Some(g) = selector.select(&ctx, &cands, &method, &mut sel_rng) {
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
                "greedy evaluation diverged from full rebuild"
            );
        }

        // The evaluator directly: a short random walk, every profile
        // compared bit-for-bit against the full rebuild.
        let mut walk_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xA11E);
        let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, evaluator);
        let mut indices: Vec<usize> = cands
            .iter()
            .map(|c| walk_rng.random_range(0..c.routes.len()))
            .collect();
        for step in 0..6 {
            let profile: Vec<(SdPair, &Path)> = cands
                .iter()
                .zip(&indices)
                .map(|(c, &i)| (c.pair, &c.routes[i]))
                .collect();
            prop_assert_eq!(
                ctx.evaluate_objective(&profile, &method).map(f64::to_bits),
                eval.evaluate_objective(&indices).map(f64::to_bits),
                "walk diverged from full rebuild at step {}",
                step
            );
            let i = walk_rng.random_range(0..indices.len());
            indices[i] = walk_rng.random_range(0..cands[i].routes.len());
        }
    }
}

/// One instance for the early-rejection tests: a ring with one chord
/// (so pairs have up to four candidate routes), a random capacity
/// snapshot in which nodes and links may have nothing left (so some
/// profiles cannot hold one channel per route edge), possibly lossy
/// swapping, 2–4 random pairs, a Lyapunov weight `V ∈ [1, 10⁴]`, a
/// positive queue price and a myopic slot budget.
#[derive(Debug, Clone)]
struct ScreenInstance {
    net: QdnNetwork,
    snap: CapacitySnapshot,
    pairs: Vec<SdPair>,
    v: f64,
    price: f64,
    budget: u64,
    seed: u64,
}

impl ScreenInstance {
    /// The three contexts every instance is checked under: OSCAR at
    /// `κ = 0`, OSCAR at `κ > 0`, and the myopic budgeted context.
    fn contexts(&self) -> [PerSlotContext<'_>; 3] {
        [
            PerSlotContext::oscar(&self.net, &self.snap, self.v, 0.0),
            PerSlotContext::oscar(&self.net, &self.snap, self.v, self.price),
            PerSlotContext::myopic(&self.net, &self.snap, self.budget),
        ]
    }

    /// Each pair with its candidate routes on the installed network.
    fn candidates(&self) -> Vec<(SdPair, Vec<Path>)> {
        use qdn_net::routes::{CandidateRoutes, RouteLimits};
        let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
        self.pairs
            .iter()
            .map(|&p| (p, cr.routes(&self.net, p).to_vec()))
            .collect()
    }
}

fn arb_screen_instance() -> impl Strategy<Value = ScreenInstance> {
    use proptest::collection::vec;
    let shape = (5usize..9).prop_flat_map(|n| {
        (
            vec(0.2f64..0.9, n + 1),
            vec(0u32..16, n),
            vec(0u32..10, n + 1),
            prop::bool::ANY,
        )
            .prop_map(move |(probs, qubits, channels, lossy)| {
                let mut b = QdnNetworkBuilder::new();
                for _ in 0..n {
                    b.add_node(9);
                }
                let chord = [(NodeId(0), NodeId(n as u32 / 2))];
                for (e, (u, v)) in ring(n)
                    .edges()
                    .map(|(_, u, v)| (u, v))
                    .chain(chord)
                    .enumerate()
                {
                    b.add_edge(u, v, 5, LinkModel::new(probs[e]).unwrap())
                        .unwrap();
                }
                if lossy {
                    b.set_swap(qdn_physics::swap::SwapModel::new(0.9).unwrap());
                }
                let net = b.build();
                let snap = CapacitySnapshot::clamped(&net, qubits, channels);
                (net, snap)
            })
    });
    (
        shape,
        2usize..5,
        0.0f64..4.0,
        0.01f64..40.0,
        2u64..30,
        0u64..1000,
    )
        .prop_map(|((net, snap), n_pairs, v_exp, price, budget, seed)| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pairs = (0..n_pairs)
                .map(|_| qdn_net::workload::random_sd_pair(&mut rng, &net))
                .collect();
            ScreenInstance {
                net,
                snap,
                pairs,
                v: 10f64.powf(v_exp),
                price,
                budget,
                seed,
            }
        })
}

/// The Gibbs chain as it was before early rejection, kept verbatim as
/// the reference: every proposal is evaluated, then accepted through
/// `random_bool`.
mod reference_gibbs {
    use qdn_core::profile_eval::ProfileEvaluator;
    use qdn_core::route_selection::gibbs::acceptance_probability;
    use qdn_core::route_selection::{Candidates, GibbsConfig, Selection};
    use rand::RngExt;

    pub fn sample_seeded(
        evaluator: &mut ProfileEvaluator<'_>,
        candidates: &[Candidates<'_>],
        config: &GibbsConfig,
        rng: &mut dyn rand::Rng,
        seed: Option<&[usize]>,
    ) -> Option<Selection> {
        let k = candidates.len();
        let mut current: Option<(Vec<usize>, f64)> = None;
        let mut seeded = false;
        if let Some(seed) = seed {
            if let Some(objective) = evaluator.evaluate_objective(seed) {
                current = Some((seed.to_vec(), objective));
                seeded = true;
            }
        }
        if current.is_none() {
            for _ in 0..config.max_init_attempts.max(1) {
                let indices: Vec<usize> = candidates
                    .iter()
                    .map(|c| rng.random_range(0..c.routes.len()))
                    .collect();
                if let Some(objective) = evaluator.evaluate_objective(&indices) {
                    current = Some((indices, objective));
                    break;
                }
            }
        }
        if current.is_none() {
            let shortest = vec![0usize; k];
            if let Some(objective) = evaluator.evaluate_objective(&shortest) {
                current = Some((shortest, objective));
            }
        }
        let (mut indices, mut f_cur) = current?;
        let mut best_indices = indices.clone();
        let mut best_f = f_cur;
        let mut gamma = config.gamma;
        let budget = if seeded {
            config.warm_iterations
        } else {
            config.iterations
        };
        for _ in 0..budget {
            let i = rng.random_range(0..k);
            if candidates[i].routes.len() >= 2 {
                let old = indices[i];
                let proposal = propose_different(rng, old, candidates[i].routes.len());
                indices[i] = proposal;
                match evaluator.evaluate_objective(&indices) {
                    Some(objective) => {
                        if rng.random_bool(acceptance_probability(objective, f_cur, gamma)) {
                            f_cur = objective;
                        } else {
                            indices[i] = old;
                        }
                    }
                    None => indices[i] = old,
                }
            }
            if f_cur > best_f {
                best_f = f_cur;
                best_indices = indices.clone();
            }
            gamma = config.decayed_gamma(gamma);
        }
        let evaluation = evaluator.evaluate(&best_indices)?;
        Some(Selection {
            indices: best_indices,
            evaluation,
        })
    }

    fn propose_different(rng: &mut dyn rand::Rng, current: usize, len: usize) -> usize {
        let mut idx = rng.random_range(0..len - 1);
        if idx >= current {
            idx += 1;
        }
        idx
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `objective_bounds` is a certificate: it returns `None` exactly
    /// when `evaluate_objective` does, and otherwise brackets the exact
    /// objective, `lower ≤ f ≤ upper`, for every allocation method and
    /// context on random walks over profiles (dead nodes and links, the
    /// myopic budget row, lossy swapping).
    #[test]
    fn objective_bounds_bracket_the_objective(inst in arb_screen_instance()) {
        use qdn_core::profile_eval::{EvalOptions, ProfileEvaluator};
        use qdn_core::route_selection::Candidates;
        use rand::RngExt;

        let owned = inst.candidates();
        prop_assume!(owned.iter().all(|(_, routes)| !routes.is_empty()));
        let cands: Vec<Candidates> = owned
            .iter()
            .map(|(pair, routes)| Candidates { pair: *pair, routes })
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(inst.seed);
        for ctx in inst.contexts() {
            for method in [
                AllocationMethod::relax_and_round(),
                AllocationMethod::Greedy,
                AllocationMethod::Minimal,
            ] {
                let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, EvalOptions::default());
                for step in 0..12 {
                    let indices: Vec<usize> = cands
                        .iter()
                        .map(|c| rng.random_range(0..c.routes.len()))
                        .collect();
                    let bounds = eval.objective_bounds(&indices);
                    let exact = eval.evaluate_objective(&indices);
                    prop_assert_eq!(
                        bounds.is_some(),
                        exact.is_some(),
                        "feasibility verdicts differ at step {} ({})",
                        step,
                        method.label()
                    );
                    if let (Some((lower, upper)), Some(f)) = (bounds, exact) {
                        prop_assert!(
                            lower <= f && f <= upper,
                            "{} ∉ [{}, {}] at step {} ({})",
                            f, lower, upper, step, method.label()
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Early rejection changes no decision: `gibbs::sample_seeded` with
    /// its bound screen matches the plain evaluate-then-`random_bool`
    /// chain in [`reference_gibbs`] — the same selected indices, the
    /// same objective bits, and the same next RNG word — for every
    /// context, allocation method, temperature schedule and warm seed.
    /// The screen must also actually skip evaluations across the case's
    /// corpus, so the match is not vacuous.
    #[test]
    fn early_rejection_matches_reference_chain(
        corpus in proptest::collection::vec(arb_screen_instance(), 3),
    ) {
        use qdn_core::profile_eval::{EvalOptions, ProfileEvaluator};
        use qdn_core::route_selection::{gibbs, Candidates, GibbsConfig};
        use rand::{Rng, RngExt};

        let (mut screened_evals, mut reference_evals) = (0u64, 0u64);
        for inst in &corpus {
            let owned = inst.candidates();
            if owned.iter().any(|(_, routes)| routes.is_empty()) {
                continue;
            }
            let cands: Vec<Candidates> = owned
                .iter()
                .map(|(pair, routes)| Candidates { pair: *pair, routes })
                .collect();
            let mut draw = rand::rngs::StdRng::seed_from_u64(inst.seed);
            for ctx in inst.contexts() {
                for method in [
                    AllocationMethod::relax_and_round(),
                    AllocationMethod::Greedy,
                    AllocationMethod::Minimal,
                ] {
                    for gamma in [0.0, 1e-9, 500.0, 1e6] {
                        for gamma_decay in [1.0, 0.9] {
                            let config = GibbsConfig {
                                iterations: 24,
                                gamma,
                                gamma_decay,
                                warm_iterations: 12,
                                ..GibbsConfig::paper_default()
                            };
                            let warm: Option<Vec<usize>> = draw.random_bool(0.5).then(|| {
                                cands
                                    .iter()
                                    .map(|c| draw.random_range(0..c.routes.len()))
                                    .collect()
                            });
                            let chain_seed: u64 = draw.random();
                            let options = EvalOptions::default();

                            let mut reference_eval = ProfileEvaluator::new(&ctx, &cands, &method, options);
                            let mut reference_rng = rand::rngs::StdRng::seed_from_u64(chain_seed);
                            let expected = reference_gibbs::sample_seeded(
                                &mut reference_eval,
                                &cands,
                                &config,
                                &mut reference_rng,
                                warm.as_deref(),
                            );
                            let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, options);
                            let mut rng = rand::rngs::StdRng::seed_from_u64(chain_seed);
                            let got = gibbs::sample_seeded(
                                &mut eval,
                                &cands,
                                &config,
                                &mut rng,
                                warm.as_deref(),
                            );
                            let label = format!("{} γ={gamma} decay={gamma_decay}", method.label());
                            prop_assert_eq!(
                                expected.as_ref().map(|s| (&s.indices, s.evaluation.objective.to_bits())),
                                got.as_ref().map(|s| (&s.indices, s.evaluation.objective.to_bits())),
                                "selection diverged ({})",
                                label
                            );
                            prop_assert_eq!(
                                reference_rng.next_u64(),
                                rng.next_u64(),
                                "RNG position diverged ({})",
                                label
                            );
                            prop_assert!(eval.stats().evaluations <= reference_eval.stats().evaluations);
                            screened_evals += eval.stats().evaluations;
                            reference_evals += reference_eval.stats().evaluations;
                        }
                    }
                }
            }
        }
        prop_assert!(
            screened_evals < reference_evals,
            "the screen skipped nothing: {} vs {} evaluations",
            screened_evals,
            reference_evals
        );
    }
}
