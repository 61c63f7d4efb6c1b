//! Micro-benchmarks of the hot kernels: Yen's KSP, candidate sync under
//! link churn, the dual solver, the greedy allocator, relax-and-round's
//! two paths on a one-binding instance, both allocators on instances
//! priced from the paper network, and the attempt-level Monte Carlo.

use criterion::{criterion_group, criterion_main, Criterion};
use qdn_core::baselines::{BudgetSplit, MyopicConfig};
use qdn_core::oscar::OscarConfig;
use qdn_core::problem::PerSlotContext;
use qdn_graph::dijkstra::SearchFilter;
use qdn_graph::ksp::{yen_k_shortest, yen_k_shortest_filtered};
use qdn_graph::EdgeId;
use qdn_net::dynamics::{ChurnDynamics, ResourceDynamics, StaticDynamics};
use qdn_net::routes::{CandidateRoutes, RouteLimits};
use qdn_net::workload::random_sd_pair;
use qdn_net::{CapacitySnapshot, NetworkConfig, QdnNetwork};
use qdn_physics::link::LinkModel;
use qdn_physics::monte_carlo::simulate_route;
use qdn_physics::swap::SwapModel;
use qdn_solve::greedy::greedy_allocate;
use qdn_solve::relaxed::{solve_relaxed, RelaxedOptions};
use qdn_solve::rounding::{relax_and_round_until, round_down_and_fill};
use qdn_solve::{AllocationInstance, PackingConstraint, Variable};
use rand::SeedableRng;
use std::hint::black_box;

fn instance(nv: usize) -> AllocationInstance {
    let vars: Vec<Variable> = (0..nv).map(|_| Variable::new(0.5507)).collect();
    let mut constraints = Vec::new();
    for j in 0..nv {
        constraints.push(PackingConstraint::new(7, vec![j]));
    }
    for j in 0..nv.saturating_sub(1) {
        constraints.push(PackingConstraint::new(12, vec![j, j + 1]));
    }
    AllocationInstance::new(vars, constraints, 2500.0, 15.0).unwrap()
}

/// `nv` variables as in [`instance`], but coupled only by one shared
/// row of `4·nv` channels. Each variable wants about 6.1 channels, which
/// its own 7 hold, so the shared row is the one constraint that binds.
fn one_binding_instance(nv: usize) -> AllocationInstance {
    let vars: Vec<Variable> = (0..nv).map(|_| Variable::new(0.5507)).collect();
    let mut constraints: Vec<PackingConstraint> = (0..nv)
        .map(|j| PackingConstraint::new(7, vec![j]))
        .collect();
    constraints.push(PackingConstraint::new(4 * nv as u32, (0..nv).collect()));
    AllocationInstance::new(vars, constraints, 2500.0, 15.0).unwrap()
}

/// The instance `ctx` prices for the first candidate route of each of
/// `pairs` random pairs, the pairs drawn from `seed`; `None` when the
/// profile cannot hold one channel per edge.
fn paper_instance(
    net: &QdnNetwork,
    ctx: &PerSlotContext<'_>,
    pairs: usize,
    seed: u64,
) -> Option<AllocationInstance> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut routes = CandidateRoutes::new(RouteLimits::paper_default());
    let profile: Vec<_> = (0..pairs)
        .map(|_| {
            let pair = random_sd_pair(&mut rng, net);
            (pair, routes.routes(net, pair)[0].clone())
        })
        .collect();
    let refs: Vec<_> = profile.iter().map(|(pair, route)| (*pair, route)).collect();
    ctx.build_instance(&refs).ok()
}

fn bench(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let net = NetworkConfig::paper_default().build(&mut rng).unwrap();

    let mut group = c.benchmark_group("micro");

    group.bench_function("yen_k4_paper_topology", |b| {
        b.iter(|| {
            let pair = random_sd_pair(&mut rng, &net);
            black_box(yen_k_shortest(
                net.graph(),
                pair.source(),
                pair.destination(),
                4,
            ))
        });
    });

    // The churn shape: every search also skips a fixed set of three dead
    // edges, spread over the edge list. Pairs come from their own stream
    // so the row sees the same pairs whatever the rows above consumed.
    let dead3 = |net: &QdnNetwork| {
        let mut dead = SearchFilter::new();
        let m = net.edge_count() as u32;
        for e in [0, m / 3, 2 * m / 3] {
            dead.ban_edge(EdgeId(e));
        }
        dead
    };
    // The same shape on the paper's network model at 100 nodes, where
    // spur searches cover the most ground.
    let wax100 = NetworkConfig::paper_default()
        .with_nodes(100)
        .build(&mut rand::rngs::StdRng::seed_from_u64(3))
        .unwrap();
    for (name, net) in [
        ("yen_k4_paper_dead3", &net),
        ("yen_k4_wax100_dead3", &wax100),
    ] {
        let dead = dead3(net);
        let mut pair_rng = rand::rngs::StdRng::seed_from_u64(4);
        group.bench_function(name, |b| {
            b.iter(|| {
                let pair = random_sd_pair(&mut pair_rng, net);
                black_box(yen_k_shortest_filtered(
                    net.graph(),
                    pair.source(),
                    pair.destination(),
                    4,
                    &dead,
                ))
            });
        });
    }

    // Candidate sync under link churn, the shape of the churn trace: 10
    // sticky pairs on the paper network over 64 slots of link churn
    // (rate 0.5, MTTR 5). One iteration replays the trace from a cold
    // cache: per slot, the dead-set sync and every pair's routes.
    let mut churn = ChurnDynamics::new(0.5, 5.0, 1, Box::new(StaticDynamics));
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(5);
    let trace: Vec<CapacitySnapshot> = (0..64)
        .map(|t| churn.snapshot(t, &net, &mut env_rng))
        .collect();
    let sticky: Vec<_> = (0..10)
        .map(|_| random_sd_pair(&mut env_rng, &net))
        .collect();
    group.bench_function("candidate_sync/paper_churn", |b| {
        b.iter(|| {
            let mut routes = CandidateRoutes::new(RouteLimits::paper_default());
            let mut held = 0;
            for snapshot in &trace {
                routes.sync_dead_edges(&net, snapshot);
                for &pair in &sticky {
                    held += routes.routes(&net, pair).len();
                }
            }
            held
        });
    });

    let inst = instance(12);
    group.bench_function("dual_solve_12vars", |b| {
        b.iter(|| black_box(solve_relaxed(&inst, &RelaxedOptions::default()).unwrap()));
    });

    group.bench_function("relax_round_12vars", |b| {
        let relaxed = solve_relaxed(&inst, &RelaxedOptions::default()).unwrap();
        b.iter(|| black_box(round_down_and_fill(&inst, &relaxed.x).unwrap()));
    });

    group.bench_function("greedy_allocate_12vars", |b| {
        b.iter(|| black_box(greedy_allocate(&inst).unwrap()));
    });

    // Relax-and-round's one-binding rule against the FISTA solve and
    // rounding it replaces, on the same instance.
    let one = one_binding_instance(12);
    let rule = |inst: &AllocationInstance| {
        relax_and_round_until(inst, &RelaxedOptions::default(), |_| false)
            .unwrap()
            .unwrap()
    };
    assert_eq!(rule(&one).one_binding, 1, "the instance must take the rule");
    group.bench_function("allocate_one_binding_12vars", |b| {
        b.iter(|| black_box(rule(&one)));
    });
    group.bench_function("allocate_one_binding_12vars_fista_round", |b| {
        b.iter(|| {
            let relaxed = solve_relaxed(&one, &RelaxedOptions::default()).unwrap();
            black_box(round_down_and_fill(&one, &relaxed.x).unwrap())
        });
    });

    // Both allocators on instances priced from the paper network, where
    // every success logarithm repeats across calls. OSCAR's shape: paper
    // `V` at queue price 10, five pairs, the first seed whose instance is
    // one coupling component that FISTA plus rounding allocates (no
    // one-binding rule). MF's shape: `κ = 0` under the per-slot budget
    // of `C / T`, three pairs.
    let snap = CapacitySnapshot::full(&net);
    let oscar = PerSlotContext::oscar(&net, &snap, OscarConfig::paper_default().v, 10.0);
    let component = (0..)
        .filter_map(|seed| paper_instance(&net, &oscar, 5, seed))
        .find(|inst| inst.components().len() == 1 && rule(inst).one_binding == 0)
        .expect("some seed gives one FISTA component");
    group.bench_function("relax_and_round/paper_component", |b| {
        b.iter(|| black_box(rule(&component)));
    });
    let mf = MyopicConfig::paper_default(BudgetSplit::Fixed);
    let budget = PerSlotContext::myopic(&net, &snap, (mf.total_budget / mf.horizon as f64) as u64);
    let mf_instance = paper_instance(&net, &budget, 3, 5).expect("three routes fit the budget");
    group.bench_function("greedy_allocate/mf_budget", |b| {
        b.iter(|| black_box(greedy_allocate(&mf_instance).unwrap()));
    });

    let link = LinkModel::paper_default();
    group.bench_function("monte_carlo_route_3hops", |b| {
        b.iter(|| {
            black_box(simulate_route(
                &mut rng,
                [(link, 3), (link, 3), (link, 3)],
                &SwapModel::perfect(),
            ))
        });
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
