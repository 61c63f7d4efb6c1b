//! Profile-evaluation engine benchmarks: the incremental
//! component-decomposed `ProfileEvaluator` against the seed's
//! build-from-scratch `PerSlotContext::evaluate` path.
//!
//! Three access patterns per pair count (1/5/10 at the paper's 20-node
//! Waxman topology):
//!
//! * `full_rebuild_move` — the seed's per-proposal cost: one pair flips
//!   between two routes, every evaluation rebuilds and re-solves the
//!   joint instance;
//! * `incremental_move` — the same flips through the evaluator: after the
//!   first two solves, every evaluation is a memo hit (the revisit
//!   pattern Gibbs chains exhibit);
//! * `incremental_cold_eval` — a fresh evaluator and a single all-miss
//!   evaluation per iteration: the engine's cold cost (construction +
//!   component solves), the fair "no memo help at all" comparison.
//!
//! A 100-node network of 25 independent diamond gadgets (one pair each)
//! demonstrates the super-linear regime: every pair is its own coupling
//! component, so a single-pair move re-solves 1/25th of the constraint
//! system — and each component's route space is tiny, so the memo
//! saturates and steady-state evaluations cost nanoseconds while the
//! full-rebuild path keeps re-solving all 25 pairs. (Random SD pairs on
//! a connected Waxman graph do *not* decouple — their Yen candidate
//! routes chain every pair into one component, which is why the sparse
//! regime needs a topology with isolated regions.)
//!
//! The `dual_solver_paper20` group measures the raw cold `solve_relaxed`
//! on the joint paper-scale instance.
//!
//! The `gibbs_select` group times whole selections. The
//! `paper20_uniform_slot*` rows cycle through the same 32 pre-drawn
//! `serve-uniform`-shaped slots: the paper-default chain at queue price
//! 60 (typical) and 250 (`_q250`, the tail regime where capacity binds),
//! and greedy local search at price 60 (`_greedy_local`).
//!
//! The `dynamic_vs_static_partition` group (PR 4) measures the
//! profile-local dynamic partition on cold single-pair moves — see
//! [`bench_dynamic_vs_static`] for the two scenarios. The
//! `profile_eval_wax50` group runs the standard access patterns at
//! `Scale::Large` (50-node Waxman, 25 pairs). The `session_vs_fresh`
//! group runs 200 OSCAR slots end to end with and without a
//! slot-spanning session — see [`bench_session_vs_fresh`].
//!
//! Run with `CRITERION_JSON=BENCH_profile_eval.json` to append one JSON
//! line per benchmark (relative paths resolve against the workspace
//! root — see the criterion shim); the committed snapshot is produced
//! this way, and `scripts/bench-gate.sh` compares fresh runs against it.

use criterion::{criterion_group, criterion_main, Criterion};
use qdn_core::allocation::AllocationMethod;
use qdn_core::problem::PerSlotContext;
use qdn_core::profile_eval::{EvalOptions, ProfileEvaluator};
use qdn_core::route_selection::{gibbs, Candidates, GibbsConfig, RouteSelector};
use qdn_graph::Path;
use qdn_net::routes::{CandidateRoutes, RouteLimits};
use qdn_net::workload::random_sd_pair;
use qdn_net::{CapacitySnapshot, NetworkConfig, QdnNetwork, SdPair};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;

/// Distinct SD pairs with their candidate routes.
fn make_candidates(net: &QdnNetwork, n_pairs: usize, rng: &mut StdRng) -> Vec<(SdPair, Vec<Path>)> {
    let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
    let mut out: Vec<(SdPair, Vec<Path>)> = Vec::new();
    while out.len() < n_pairs {
        let pair = random_sd_pair(rng, net);
        if out.iter().any(|(p, _)| *p == pair) {
            continue;
        }
        let routes = cr.routes(net, pair).to_vec();
        if routes.is_empty() {
            continue;
        }
        out.push((pair, routes));
    }
    out
}

fn to_cands(owned: &[(SdPair, Vec<Path>)]) -> Vec<Candidates<'_>> {
    owned
        .iter()
        .map(|(pair, routes)| Candidates {
            pair: *pair,
            routes,
        })
        .collect()
}

fn bench_scale(
    c: &mut Criterion,
    group_name: &str,
    net: &QdnNetwork,
    pair_counts: &[usize],
    seed: u64,
) {
    let snap = CapacitySnapshot::full(net);
    let ctx = PerSlotContext::oscar(net, &snap, 2500.0, 10.0);
    let method = AllocationMethod::default();

    let mut group = c.benchmark_group(group_name);
    group.sample_size(15);

    for &n_pairs in pair_counts {
        let mut rng = StdRng::seed_from_u64(seed);
        let owned = make_candidates(net, n_pairs, &mut rng);
        let cands = to_cands(&owned);
        // The move: pair 0 alternates between its first two routes (or
        // stays put if it has a single candidate).
        let alt = 1.min(cands[0].routes.len() - 1);
        let base: Vec<usize> = vec![0; n_pairs];
        let mut moved = base.clone();
        moved[0] = alt;

        group.bench_function(format!("full_rebuild_move/{n_pairs}_pairs"), |b| {
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let indices = if flip { &moved } else { &base };
                let profile: Vec<(SdPair, &Path)> = cands
                    .iter()
                    .zip(indices)
                    .map(|(c, &i)| (c.pair, &c.routes[i]))
                    .collect();
                black_box(ctx.evaluate_objective(&profile, &method))
            });
        });

        // Evaluator state lives *outside* the sample closure so the
        // steady-state (post-warm-up) cost is what gets measured.
        let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, EvalOptions::default());
        let mut flip = false;
        group.bench_function(format!("incremental_move/{n_pairs}_pairs"), |b| {
            b.iter(|| {
                flip = !flip;
                let indices = if flip { &moved } else { &base };
                black_box(eval.evaluate_objective(indices))
            });
        });

        // Cold cost: fresh evaluator + one all-miss evaluation per
        // iteration. (A persistent "fresh walk" would saturate the small
        // per-component route spaces within a sample batch and silently
        // measure memo hits instead of misses.)
        group.bench_function(format!("incremental_cold_eval/{n_pairs}_pairs"), |b| {
            b.iter(|| {
                let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, EvalOptions::default());
                black_box(eval.evaluate_objective(&base))
            });
        });
    }
    group.finish();
}

fn bench_gibbs_end_to_end(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
    let method = AllocationMethod::default();
    let mut pairs_rng = StdRng::seed_from_u64(11);
    let owned = make_candidates(&net, 10, &mut pairs_rng);
    let cands = to_cands(&owned);
    let config = GibbsConfig::paper_default();

    let mut group = c.benchmark_group("gibbs_select");
    group.sample_size(10);
    group.bench_function("incremental/10_pairs_48_iters", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(gibbs::sample(&ctx, &cands, &method, &config, &mut rng)));
    });
    // One `serve-uniform`-shaped slot per iteration, cycling through 32
    // pre-drawn slots: 2–5 random pairs at a queue price typical of that
    // workload, a fresh evaluator and one paper-default chain.
    let slots: Vec<Vec<(SdPair, Vec<Path>)>> = (0..32)
        .map(|_| {
            let n_pairs = pairs_rng.random_range(2usize..=5);
            make_candidates(&net, n_pairs, &mut pairs_rng)
        })
        .collect();
    let slot_cands: Vec<Vec<Candidates<'_>>> = slots.iter().map(|s| to_cands(s)).collect();
    let slot_ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 60.0);
    group.bench_function("paper20_uniform_slot", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut slot = 0;
        b.iter(|| {
            let cands = &slot_cands[slot % slot_cands.len()];
            slot += 1;
            black_box(gibbs::sample(&slot_ctx, cands, &method, &config, &mut rng))
        });
    });
    // The same slots at a tail queue price: the slowest uniform slots
    // have queues of 236–363, where capacity binds and coupled solves
    // run long.
    let tail_ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 250.0);
    group.bench_function("paper20_uniform_slot_q250", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut slot = 0;
        b.iter(|| {
            let cands = &slot_cands[slot % slot_cands.len()];
            slot += 1;
            black_box(gibbs::sample(&tail_ctx, cands, &method, &config, &mut rng))
        });
    });
    // The same slots under the route-selection ablation's greedy local
    // search: the cost side of its quality row in the ablation ledger.
    let greedy_local = RouteSelector::GreedyLocal {
        max_rounds: 4,
        evaluator: EvalOptions::default(),
    };
    group.bench_function("paper20_uniform_slot_greedy_local", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut slot = 0;
        b.iter(|| {
            let cands = &slot_cands[slot % slot_cands.len()];
            slot += 1;
            black_box(greedy_local.select(&slot_ctx, cands, &method, &mut rng))
        });
    });
    group.bench_function("full_rebuild_replica/10_pairs_48_iters", |b| {
        // The seed's evaluation strategy, reproduced: every proposal
        // evaluated by rebuilding and re-solving the joint instance.
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| black_box(full_rebuild_gibbs(&ctx, &cands, &method, &config, &mut rng)));
    });
    group.finish();
}

/// The seed's Gibbs loop, evaluating through
/// `PerSlotContext::evaluate_objective` (full instance rebuild per
/// proposal) — kept here as the benchmark baseline.
fn full_rebuild_gibbs(
    ctx: &PerSlotContext<'_>,
    candidates: &[Candidates<'_>],
    method: &AllocationMethod,
    config: &GibbsConfig,
    rng: &mut StdRng,
) -> Option<(Vec<usize>, f64)> {
    let k = candidates.len();
    let objective_of = |indices: &[usize]| {
        let profile: Vec<(SdPair, &Path)> = candidates
            .iter()
            .zip(indices)
            .map(|(c, &i)| (c.pair, &c.routes[i]))
            .collect();
        ctx.evaluate_objective(&profile, method)
    };
    let mut current: Option<(Vec<usize>, f64)> = None;
    for _ in 0..config.max_init_attempts.max(1) {
        let indices: Vec<usize> = candidates
            .iter()
            .map(|c| rng.random_range(0..c.routes.len()))
            .collect();
        if let Some(f) = objective_of(&indices) {
            current = Some((indices, f));
            break;
        }
    }
    let (mut indices, mut f_cur) = current?;
    let mut best = (indices.clone(), f_cur);
    let mut gamma = config.gamma;
    for _ in 0..config.iterations {
        let i = rng.random_range(0..k);
        if candidates[i].routes.len() >= 2 {
            let old = indices[i];
            let mut proposal = rng.random_range(0..candidates[i].routes.len() - 1);
            if proposal >= old {
                proposal += 1;
            }
            indices[i] = proposal;
            match objective_of(&indices) {
                Some(f_new) => {
                    if rng.random_bool(gibbs::acceptance_probability(f_new, f_cur, gamma)) {
                        f_cur = f_new;
                    } else {
                        indices[i] = old;
                    }
                }
                None => indices[i] = old,
            }
        }
        if f_cur > best.1 {
            best = (indices.clone(), f_cur);
        }
        gamma = config.decayed_gamma(gamma);
    }
    Some(best)
}

/// Raw dual-solver bench on the paper-scale joint instance (the one big
/// coupling component 10 random pairs form on the 20-node Waxman graph):
/// `cold_solve` — `solve_relaxed` from λ = 0 on the prebuilt instance,
/// the pure solver cost of a fresh joint solve, no assembly, no
/// rounding.
fn bench_dual_solver(c: &mut Criterion) {
    use qdn_core::route_selection::profile_of;
    use qdn_solve::relaxed::{solve_relaxed, RelaxedOptions};

    let mut rng = StdRng::seed_from_u64(3);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
    let mut pairs_rng = StdRng::seed_from_u64(11);
    let owned = make_candidates(&net, 10, &mut pairs_rng);
    let cands = to_cands(&owned);
    let opts = RelaxedOptions::default();

    let base: Vec<usize> = vec![0; cands.len()];
    let inst_base = ctx.build_instance(&profile_of(&cands, &base)).unwrap();

    let mut group = c.benchmark_group("dual_solver_paper20");
    group.sample_size(15);
    group.bench_function("cold_solve/10_pairs", |b| {
        b.iter(|| black_box(solve_relaxed(&inst_base, &opts).unwrap()));
    });
    group.finish();
}

/// Ring of `k` corridors (x—m⁰..m³—y: four parallel 2-hop routes) with
/// one bridge pair per consecutive corridor couple, its endpoints wired
/// to all four middles of both corridors (eight 2-hop routes). The
/// candidate-union closure chains every pair into **one** static
/// component — the motivating pathology of the dynamic partition — while
/// any concrete profile couples each bridge to exactly one middle of one
/// corridor, so the profile-local groups have 1–4 pairs. With
/// `RouteLimits { max_routes: 8, max_hops: 2 }` the per-pair route
/// spaces are 4 and 8, so a random move walk (~4⁵·8⁵ ≈ 33M tuples)
/// essentially never revisits a component tuple: every move is a
/// level-1 memo miss.
fn corridor_ring(k: usize) -> (QdnNetwork, Vec<SdPair>) {
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_physics::link::LinkModel;
    let mut b = QdnNetworkBuilder::new();
    let link = LinkModel::new(0.8).unwrap();
    let mut mids: Vec<Vec<_>> = Vec::new();
    let mut pairs = Vec::new();
    for _ in 0..k {
        let x = b.add_node(12);
        let y = b.add_node(12);
        let ms: Vec<_> = (0..4).map(|_| b.add_node(12)).collect();
        for &m in &ms {
            b.add_edge(x, m, 6, link).unwrap();
            b.add_edge(m, y, 6, link).unwrap();
        }
        pairs.push(SdPair::new(x, y).unwrap());
        mids.push(ms);
    }
    for c in 0..k {
        let s = b.add_node(12);
        let t = b.add_node(12);
        for side in [c, (c + 1) % k] {
            for &m in &mids[side] {
                b.add_edge(s, m, 6, link).unwrap();
                b.add_edge(m, t, 6, link).unwrap();
            }
        }
        pairs.push(SdPair::new(s, t).unwrap());
    }
    (b.build(), pairs)
}

/// The PR-4 headline: single-pair-move *cold* evaluation (level-1 memo
/// miss) under the dynamic route-keyed partition, on two paper-scale
/// (10-pair) workloads:
///
/// * `…/10_pairs` — 10 random pairs on the paper's 20-node Waxman
///   graph. At this density the *selected* routes of a profile chain
///   into one connected group for ~97% of moves — the fully-coupled
///   regime.
/// * `…/10_pairs_ring` — 10 pairs on the [`corridor_ring`], where the
///   candidate closure is one 10-pair static component but concrete
///   profiles couple locally (groups of 1–4). This is the regime the
///   route-keyed refinement targets (QuARC-style profile locality):
///   a move re-solves only the groups it touched, and most moves are
///   served entirely from the level-2 group memo.
///
/// Each iteration moves one random pair to a random route, so (in both
/// scenarios' route spaces) virtually every evaluation is a fresh
/// component tuple.
fn bench_dynamic_vs_static(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let waxman = NetworkConfig::paper_default().build(&mut rng).unwrap();
    let mut pairs_rng = StdRng::seed_from_u64(11);
    let waxman_owned = make_candidates(&waxman, 10, &mut pairs_rng);

    let (ring, ring_pairs) = corridor_ring(5);
    let mut ring_cr = CandidateRoutes::new(RouteLimits {
        max_routes: 8,
        max_hops: 2,
    });
    let ring_owned: Vec<(SdPair, Vec<Path>)> = ring_pairs
        .iter()
        .map(|&p| (p, ring_cr.routes(&ring, p).to_vec()))
        .collect();

    let mut group = c.benchmark_group("dynamic_vs_static_partition");
    group.sample_size(15);
    for (scenario, net, owned) in [
        ("10_pairs", &waxman, &waxman_owned),
        ("10_pairs_ring", &ring, &ring_owned),
    ] {
        let cands = to_cands(owned);
        let snap = CapacitySnapshot::full(net);
        let ctx = PerSlotContext::oscar(net, &snap, 2500.0, 10.0);
        let method = AllocationMethod::default();
        let options = EvalOptions::default();
        if scenario == "10_pairs_ring" {
            // The motivating shape: candidate union = one component.
            let probe = ProfileEvaluator::new(&ctx, &cands, &method, options);
            assert_eq!(probe.component_count(), 1, "ring must chain statically");
        }
        group.bench_function(format!("cold_move_dynamic/{scenario}"), |b| {
            let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, options);
            let mut indices: Vec<usize> = vec![0; cands.len()];
            eval.evaluate_objective(&indices);
            let mut walk_rng = StdRng::seed_from_u64(29);
            b.iter(|| {
                let i = walk_rng.random_range(0..indices.len());
                indices[i] = walk_rng.random_range(0..cands[i].routes.len());
                black_box(eval.evaluate_objective(&indices))
            });
        });
    }
    group.finish();
}

/// The PR-5 headline (`session_vs_fresh`): the full 200-slot OSCAR
/// control loop — virtual queue, candidate fetch, Gibbs route selection,
/// Algorithm-2 allocation — end to end, under two selection-state
/// regimes:
///
/// * `oscar200_cold/*` — the session is reset every slot, so no slot
///   is seeded from the last and every chain runs its full cold
///   `iterations` budget;
/// * `oscar200_session/*` — one session spans the run with the default
///   `warm_profile_seed` on: chains start from the previous slot's
///   selection and run the shorter `warm_iterations` budget, and the
///   evaluator arena is recycled. Memos never carry over in either
///   regime: they live for one slot.
///
/// Each regime runs on the paper's `U[1,5]` uniform workload and on the
/// temporally-correlated `PersistentWorkload` (5 sticky pairs, 80%
/// per-slot survival) — the scenario cross-slot seeding targets:
/// consecutive slots share most pairs, so a seeded chain starts near a
/// good profile and needs fewer proposals. Both regimes face identical
/// request sample paths (same env seed).
fn bench_session_vs_fresh(c: &mut Criterion) {
    use qdn_core::engine::{decide, EngineState, SlotDecisionRequest};
    use qdn_core::lyapunov::VirtualQueue;
    use qdn_net::workload::{PersistentWorkload, UniformWorkload, Workload};

    let mut rng = StdRng::seed_from_u64(3);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();

    let cold_selector = GibbsConfig {
        evaluator: EvalOptions::default(),
        ..GibbsConfig::paper_default()
    };
    let session_selector = GibbsConfig::paper_default();
    let alloc = AllocationMethod::default();

    let mut group = c.benchmark_group("session_vs_fresh");
    group.sample_size(10);
    for (wl_label, persistent) in [("uniform", false), ("persistent", true)] {
        for (mode, gibbs_cfg, keep_session) in [
            ("cold", &cold_selector, false),
            ("session", &session_selector, true),
        ] {
            let selector = qdn_core::route_selection::RouteSelector::Gibbs(*gibbs_cfg);
            group.bench_function(format!("oscar200_{mode}/{wl_label}"), |b| {
                b.iter(|| {
                    let mut workload: Box<dyn Workload> = if persistent {
                        Box::new(PersistentWorkload::paper_scale())
                    } else {
                        Box::new(UniformWorkload::paper_default())
                    };
                    let mut env_rng = StdRng::seed_from_u64(17);
                    let mut policy_rng = StdRng::seed_from_u64(18);
                    let mut queue = VirtualQueue::new(10.0, 5000.0, 200);
                    let mut state = EngineState::new(RouteLimits::paper_default());
                    let snap = CapacitySnapshot::full(&net);
                    let mut total = 0u64;
                    for t in 0..200u64 {
                        let requests = workload.requests(t, &net, &mut env_rng);
                        let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, queue.value());
                        if !keep_session {
                            // The cold regime: selection state dies
                            // with the slot (the route cache survives
                            // in both regimes).
                            state.session_mut().reset();
                        }
                        let decision = decide(
                            &mut state,
                            SlotDecisionRequest {
                                network: &net,
                                requests: &requests,
                                ctx: &ctx,
                                selector: &selector,
                                allocation: &alloc,
                                fidelity_target: None,
                                rng: &mut policy_rng,
                            },
                        );
                        let cost = decision.total_cost();
                        total += cost;
                        queue.update(cost);
                    }
                    black_box(total)
                });
            });
        }
    }
    group.finish();
}

/// End-to-end controller-daemon throughput (PR 7): a real `qdn_serve`
/// daemon on a Unix domain socket, driven by the in-crate load
/// generator for 64 slots per iteration — every decision crosses the
/// wire protocol (length-prefixed JSON frames) and the warm per-shard
/// sessions, decided in turn on the serving thread. Eight shards at
/// paper scale. The
/// `persistent_10` row is the session showcase (10 sticky pairs, 80%
/// survival: 2560 request decisions per iteration); `uniform` is the
/// paper's `U[1,5]` arrival mix. Each iteration resets the daemon and
/// replays 256 slots, so the row is a cold start plus steady state.
/// Median per-iteration time directly bounds decisions/sec: 2560
/// decisions in ≤256 ms is the 10k/s floor.
fn bench_serve_throughput(c: &mut Criterion) {
    use qdn_net::workload::WorkloadConfig;
    use qdn_serve::daemon::{serve, Daemon, Listener};
    use qdn_serve::loadgen::{run, LoadConfig};
    use qdn_serve::{Client, ServeConfig};
    use std::os::unix::net::{UnixListener, UnixStream};

    let path = std::env::temp_dir().join(format!("qdn-serve-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = Listener::Unix(UnixListener::bind(&path).unwrap());
    let mut config = ServeConfig::paper_default();
    config.shards = 8;
    let daemon_cfg = config.clone();
    let server = std::thread::spawn(move || {
        let mut daemon = Daemon::new(daemon_cfg).unwrap();
        serve(&mut daemon, &listener).unwrap();
    });
    let mut rng = StdRng::seed_from_u64(config.seed);
    let net = config.network.build(&mut rng).unwrap();
    let mut client = Client::new(UnixStream::connect(&path).unwrap());
    client.hello().unwrap();

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    for (label, workload) in [
        ("uniform", WorkloadConfig::paper_default()),
        (
            "persistent_10",
            WorkloadConfig::Persistent {
                pairs_per_slot: 10,
                keep_probability: 0.8,
            },
        ),
    ] {
        let load = LoadConfig {
            slots: 256,
            seed: 11,
            workload,
            faults: Vec::new(),
        };
        group.bench_function(format!("unix_socket_256_slots/{label}"), |b| {
            b.iter(|| {
                client.reset().unwrap();
                let report = run(&mut client, &net, &load).unwrap();
                black_box(report.served)
            });
        });
    }
    group.finish();
    client.shutdown().unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_file(&path);
}

/// The PR-10 trial fan-out rows (`parallel_trial_fanout`): 4 OSCAR
/// trials over a 10-slot horizon through `qdn_sim::run_trials`, pool
/// width 1 (`serial`) vs 4 (`pool4`). Byte-identical results either way
/// (`parallel_trials_byte_identical_to_serial`); the gated cost is the
/// fan-out overhead.
fn bench_parallel_trial_fanout(c: &mut Criterion) {
    use qdn_core::oscar::{OscarConfig, OscarPolicy};
    use qdn_net::dynamics::StaticDynamics;
    use qdn_net::workload::UniformWorkload;
    use qdn_sim::engine::SimConfig;
    use qdn_sim::trial::{run_trials, TrialConfig, TrialSetup};

    let setup = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        TrialSetup {
            network: NetworkConfig::paper_default().build(&mut rng).unwrap(),
            workload: Box::new(UniformWorkload::paper_default()),
            dynamics: Box::new(StaticDynamics),
            policy: Box::new(OscarPolicy::new(OscarConfig::paper_default())),
        }
    };
    let config = |threads: usize| TrialConfig {
        trials: 4,
        base_seed: 99,
        threads,
        sim: SimConfig {
            horizon: 10,
            realize_outcomes: true,
        },
    };

    let mut group = c.benchmark_group("parallel_trial_fanout");
    group.sample_size(10);
    for (label, threads) in [("serial", 1), ("pool4", 4)] {
        let cfg = config(threads);
        group.bench_function(format!("{label}/4_trials_10_slots"), |b| {
            b.iter(|| black_box(run_trials(&cfg, setup)));
        });
    }
    group.finish();
}

/// The PR-10 SIMD-shaped CSR rows (`csr_pass_ns_per_row`): the two hot
/// solver passes on the paper-scale joint instance, isolated through
/// `qdn_solve::relaxed::bench_hooks` — `dual_value_at` (gathered
/// per-variable pricing + chunked λ·caps dot) and `residual_pass`
/// (gathered per-constraint usage + chunked ‖g‖²). Row medians divided
/// by the printed row count give ns/row; the gate holds the absolute
/// pass cost.
fn bench_csr_passes(c: &mut Criterion) {
    use qdn_core::route_selection::profile_of;
    use qdn_solve::relaxed::bench_hooks;

    let mut rng = StdRng::seed_from_u64(3);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
    let mut pairs_rng = StdRng::seed_from_u64(11);
    let owned = make_candidates(&net, 10, &mut pairs_rng);
    let cands = to_cands(&owned);
    let base: Vec<usize> = vec![0; cands.len()];
    let inst = ctx.build_instance(&profile_of(&cands, &base)).unwrap();

    let cache = bench_hooks::cache(&inst);
    let lambda: Vec<f64> = (0..inst.num_constraints())
        .map(|i| 0.01 * (i % 7) as f64)
        .collect();
    let mut price = vec![0.0; inst.num_vars()];
    let mut x = vec![0.0; inst.num_vars()];
    let dual = bench_hooks::dual_value_at(&inst, &cache, &lambda, &mut price, &mut x);
    let mut g = vec![0.0; inst.num_constraints()];
    black_box(dual);

    let mut group = c.benchmark_group("csr_pass_ns_per_row");
    group.sample_size(15);
    group.bench_function(format!("dual_value_at/{}_vars", inst.num_vars()), |b| {
        b.iter(|| {
            black_box(bench_hooks::dual_value_at(
                &inst, &cache, &lambda, &mut price, &mut x,
            ))
        });
    });
    group.bench_function(
        format!("residual_pass/{}_constraints", inst.num_constraints()),
        |b| {
            b.iter(|| black_box(bench_hooks::residual_pass(&inst, &x, &mut g)));
        },
    );
    group.finish();
}

/// `count` disjoint diamond gadgets (4 nodes, 2 parallel 2-hop routes);
/// one SD pair per diamond. Every pair is a singleton coupling component.
fn diamond_field(count: usize) -> (QdnNetwork, Vec<SdPair>) {
    use qdn_net::network::QdnNetworkBuilder;
    use qdn_physics::link::LinkModel;
    let mut b = QdnNetworkBuilder::new();
    let good = LinkModel::new(0.85).unwrap();
    let bad = LinkModel::new(0.35).unwrap();
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let n: Vec<_> = (0..4).map(|_| b.add_node(10)).collect();
        b.add_edge(n[0], n[1], 5, good).unwrap();
        b.add_edge(n[1], n[3], 5, good).unwrap();
        b.add_edge(n[0], n[2], 5, bad).unwrap();
        b.add_edge(n[2], n[3], 5, bad).unwrap();
        pairs.push(SdPair::new(n[0], n[3]).unwrap());
    }
    (b.build(), pairs)
}

fn bench_diamond_field(c: &mut Criterion, count: usize) {
    let (net, pairs) = diamond_field(count);
    let mut cr = CandidateRoutes::new(RouteLimits::paper_default());
    let owned: Vec<(SdPair, Vec<Path>)> = pairs
        .iter()
        .map(|&p| (p, cr.routes(&net, p).to_vec()))
        .collect();
    let cands = to_cands(&owned);
    let snap = CapacitySnapshot::full(&net);
    let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
    let method = AllocationMethod::default();

    let mut group = c.benchmark_group(&format!("profile_eval_diamonds{}", count * 4));
    group.sample_size(15);

    let base: Vec<usize> = vec![0; count];
    group.bench_function(format!("full_rebuild_walk/{count}_pairs"), |b| {
        let mut indices = base.clone();
        let mut walk_rng = StdRng::seed_from_u64(17);
        b.iter(|| {
            let i = walk_rng.random_range(0..indices.len());
            indices[i] = walk_rng.random_range(0..cands[i].routes.len());
            let profile: Vec<(SdPair, &Path)> = cands
                .iter()
                .zip(&indices)
                .map(|(c, &i)| (c.pair, &c.routes[i]))
                .collect();
            black_box(ctx.evaluate_objective(&profile, &method))
        });
    });

    let mut eval = ProfileEvaluator::new(&ctx, &cands, &method, EvalOptions::default());
    assert_eq!(eval.component_count(), count, "diamonds must decouple");
    let mut indices = base.clone();
    let mut walk_rng = StdRng::seed_from_u64(17);
    group.bench_function(format!("incremental_walk/{count}_pairs"), |b| {
        b.iter(|| {
            let i = walk_rng.random_range(0..indices.len());
            indices[i] = walk_rng.random_range(0..cands[i].routes.len());
            black_box(eval.evaluate_objective(&indices))
        });
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let paper = NetworkConfig::paper_default().build(&mut rng).unwrap();
    bench_scale(c, "profile_eval_paper20", &paper, &[1, 5, 10], 11);

    // The large scale (Scale::Large): 50-node Waxman, 25 pairs — the
    // stress regime past the paper's setup, where the static closure is
    // still one giant component but concrete profiles fragment further.
    let mut large_rng = StdRng::seed_from_u64(3);
    let large = qdn_bench::Scale::Large
        .network_config()
        .build(&mut large_rng)
        .unwrap();
    bench_scale(
        c,
        "profile_eval_wax50",
        &large,
        &[qdn_bench::Scale::Large.max_pairs()],
        11,
    );

    // Larger sparse regime: 25 isolated diamonds, 25 singleton
    // components — super-linear gains from decomposition + memo
    // saturation.
    bench_diamond_field(c, 25);

    bench_dynamic_vs_static(c);
    bench_session_vs_fresh(c);
    bench_dual_solver(c);

    bench_gibbs_end_to_end(c);

    bench_parallel_trial_fanout(c);
    bench_csr_passes(c);

    bench_serve_throughput(c);
}

criterion_group!(benches, bench);
criterion_main!(benches);
