//! Property-based tests for the OSCAR core on randomized networks.

use proptest::prelude::*;
use qdn_core::allocation::AllocationMethod;
use qdn_core::baselines::{BudgetSplit, MyopicConfig, MyopicPolicy};
use qdn_core::oscar::{OscarConfig, OscarPolicy};
use qdn_core::policy::RoutingPolicy;
use qdn_core::problem::PerSlotContext;
use qdn_core::profile_eval::{EvalOptions, EvalStats, ProfileEvaluator};
use qdn_core::route_selection::{gibbs, profile_of, Candidates, GibbsConfig};
use qdn_core::types::SlotState;
use qdn_graph::generators::ring;
use qdn_graph::{NodeId, Path};
use qdn_net::network::{QdnNetwork, QdnNetworkBuilder};
use qdn_net::routes::{CandidateRoutes, RouteLimits};
use qdn_net::{CapacitySnapshot, SdPair};
use qdn_physics::link::LinkModel;
use rand::{Rng, SeedableRng};

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

#[path = "../../../tests/reference/gibbs.rs"]
mod reference_chain;

/// Runs `gibbs::sample_seeded` and the reference chain from one RNG
/// seed and checks they select the same indices with the same objective
/// bits and leave their RNGs at the same word. Returns the production
/// evaluator's counters and the reference's evaluation count.
fn screened_matches_reference(
    ctx: &PerSlotContext<'_>,
    cands: &[Candidates<'_>],
    method: &AllocationMethod,
    config: &GibbsConfig,
    warm: Option<&[usize]>,
    chain_seed: u64,
) -> Result<(EvalStats, u64), String> {
    let mut evaluator = ProfileEvaluator::new(ctx, cands, method, config.evaluator);
    let mut rng = rand::rngs::StdRng::seed_from_u64(chain_seed);
    let got = gibbs::sample_seeded(&mut evaluator, cands, config, &mut rng, warm)
        .map(|s| (s.indices, s.evaluation.objective.to_bits()));
    // One evaluation per proposal, plus the returned profile's.
    let mut reference_evals = 1;
    let mut objective = |indices: &[usize]| {
        reference_evals += 1;
        ctx.evaluate_objective(&profile_of(cands, indices), method)
    };
    let lens: Vec<usize> = cands.iter().map(|c| c.routes.len()).collect();
    let mut reference_rng = rand::rngs::StdRng::seed_from_u64(chain_seed);
    let expected = reference_chain::sample(&lens, config, warm, &mut reference_rng, &mut objective)
        .map(|indices| {
            let f = ctx.evaluate_objective(&profile_of(cands, &indices), method);
            (indices, f.expect("the best profile is feasible").to_bits())
        });
    if got != expected {
        return Err(format!("selection diverged: {got:?} against {expected:?}"));
    }
    if rng.next_u64() != reference_rng.next_u64() {
        return Err("RNG position diverged".into());
    }
    Ok((evaluator.stats(), reference_evals))
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
    /// its bound screen matches the reference chain, which evaluates every
    /// proposal in full and then calls `random_bool`, for every context,
    /// allocation method, temperature schedule and warm seed. The screen
    /// must also actually skip evaluations across the case's corpus, so
    /// the match is not vacuous.
    #[test]
    fn early_rejection_matches_reference_chain(
        corpus in proptest::collection::vec(arb_screen_instance(), 3),
    ) {
        use rand::RngExt;

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
                                evaluator: EvalOptions::default(),
                                ..GibbsConfig::paper_default()
                            };
                            let warm: Option<Vec<usize>> = draw.random_bool(0.5).then(|| {
                                cands
                                    .iter()
                                    .map(|c| draw.random_range(0..c.routes.len()))
                                    .collect()
                            });
                            let checked = screened_matches_reference(
                                &ctx, &cands, &method, &config, warm.as_deref(), draw.random(),
                            );
                            prop_assert!(
                                checked.is_ok(),
                                "{:?} ({} γ={} decay={})",
                                checked, method.label(), gamma, gamma_decay
                            );
                            let (stats, reference) = checked.unwrap();
                            prop_assert!(stats.evaluations <= reference);
                            screened_evals += stats.evaluations;
                            reference_evals += reference;
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

/// Two pairs whose routes cross one bottleneck, at a tail queue price:
/// the coupled solves bind, the in-solve screen abandons some of them,
/// and the chain still makes the reference chain's decisions.
#[test]
fn in_solve_screen_engages_and_matches_reference_chain() {
    let mut b = QdnNetworkBuilder::new();
    let n: Vec<_> = (0..10).map(|_| b.add_node(6)).collect();
    let good = LinkModel::new(0.6).unwrap();
    let fair = LinkModel::new(0.5).unwrap();
    // Pairs 0→4 and 1→5 each have a route over the bottleneck 2–3 and
    // longer, lossier detours.
    for (u, v, channels, link) in [
        (0, 2, 6, good),
        (1, 2, 6, good),
        (2, 3, 4, good),
        (3, 4, 6, good),
        (3, 5, 6, good),
        (0, 6, 6, fair),
        (6, 4, 6, fair),
        (1, 7, 6, fair),
        (7, 5, 6, fair),
        (6, 8, 6, fair),
        (8, 3, 6, fair),
        (7, 9, 6, fair),
        (9, 2, 6, fair),
    ] {
        b.add_edge(n[u], n[v], channels, link).unwrap();
    }
    let net = b.build();
    let snap = CapacitySnapshot::full(&net);
    let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 250.0);
    let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
    let owned: Vec<(SdPair, Vec<Path>)> = [(0, 4), (1, 5)]
        .map(|(s, d)| SdPair::new(NodeId(s), NodeId(d)).unwrap())
        .map(|pair| (pair, cr.routes(&net, pair).to_vec()))
        .to_vec();
    let cands: Vec<Candidates> = owned
        .iter()
        .map(|(pair, routes)| Candidates {
            pair: *pair,
            routes,
        })
        .collect();
    let config = GibbsConfig {
        iterations: 200,
        evaluator: EvalOptions::default(),
        ..GibbsConfig::paper_default()
    };
    let method = AllocationMethod::default();
    let abandoned: u64 = (0..8)
        .map(|seed| {
            screened_matches_reference(&ctx, &cands, &method, &config, None, seed)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
                .0
                .abandoned
        })
        .sum();
    assert!(abandoned > 0, "the in-solve screen never engaged");
}
