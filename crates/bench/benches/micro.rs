//! Micro-benchmarks of the hot kernels: Yen's KSP, the dual solver, the
//! greedy allocator, relax-and-round's two paths on a one-binding
//! instance, and the attempt-level Monte Carlo.

use criterion::{criterion_group, criterion_main, Criterion};
use qdn_graph::dijkstra::SearchFilter;
use qdn_graph::ksp::{yen_k_shortest, yen_k_shortest_filtered};
use qdn_graph::EdgeId;
use qdn_net::workload::random_sd_pair;
use qdn_net::{NetworkConfig, QdnNetwork};
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
