//! The differential harness: every production decision path makes
//! `decide_reference`'s decisions, bit for bit.
//!
//! One seeded generator draws scenarios: a small Waxman network built
//! through the daemon's `NetworkConfig`, link churn, a declared node
//! outage, an OSCAR configuration (warm Gibbs, cold Gibbs or greedy local
//! search; relax-and-round, greedy or minimal allocation; an optional
//! fidelity target that removes candidates) and a request trace in which
//! pinned pairs sit out slots while the queue price moves, pairs repeat
//! and slots go empty. Capacities come from the daemon's own
//! `slot_rng(seed, t, DYNAMICS_STREAM)` draw, and every leg decides with
//! the daemon's shard-0 stream, so one reference run answers all four
//! production paths:
//!
//! * `OscarPolicy`;
//! * a `shards: 1` `Daemon` over `serve_connection`, restored on a fresh
//!   daemon through the JSON wire form at a random slot;
//! * `engine::decide`, which after a reset continues on a network of
//!   another size whose trace mixes OSCAR slots with myopic budget slots;
//! * an `EngineState` restored through the JSON wire form at the same
//!   random slot.
//!
//! Production sees the declared outage as dark nodes (no qubits, no live
//! links); the reference sees only the incident links cut, so every slot
//! also checks that the two cuts decide alike. Across each case's corpus
//! the warm seed must engage, slots must be decided, restores must run
//! and the fidelity target must remove routes, so no comparison holds
//! vacuously.
//!
//! The file ends with the check that the reference chain samples Eq. 15.

mod reference;

use std::os::unix::net::UnixStream;

use proptest::prelude::*;
use qdn::core::allocation::AllocationMethod;
use qdn::core::engine::{decide, EngineState, SlotDecisionRequest};
use qdn::core::lyapunov::VirtualQueue;
use qdn::core::oscar::{OscarConfig, OscarPolicy};
use qdn::core::policy::RoutingPolicy;
use qdn::core::problem::PerSlotContext;
use qdn::core::profile_eval::EvalOptions;
use qdn::core::route_selection::{GibbsConfig, RouteSelector};
use qdn::core::{Decision, SlotState};
use qdn::graph::NodeId;
use qdn::net::config::{CapacityRange, TopologyConfig};
use qdn::net::dynamics::DynamicsConfig;
use qdn::net::workload::random_sd_pair;
use qdn::net::{CapacitySnapshot, NetworkConfig, QdnNetwork, SdPair};
use qdn_serve::client::ClientError;
use qdn_serve::daemon::DYNAMICS_STREAM;
use qdn_serve::shard::slot_rng;
use qdn_serve::{serve_connection, Advisory, Client, Daemon, ServeConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use reference::{decide_reference, Tally};

/// One slot: the requests and, for the engine legs, a myopic budget.
type Slot = (Vec<SdPair>, Option<u64>);

/// A daemon connection's snapshot before, decisions, snapshot after.
type Served = (String, Vec<Decision>, String);

/// One generated scenario.
struct Scenario {
    /// The daemon's configuration: seed, network, dynamics and OSCAR
    /// parameters for every leg.
    config: ServeConfig,
    /// Declared outage windows on the first segment's network.
    advisories: Vec<Advisory>,
    /// Restores happen before this slot: the daemon's in the first
    /// segment, the engine state's in every segment that long.
    restore_at: usize,
    /// The trace every leg replays, then the engine leg's trace on a
    /// network of another size after a reset.
    segments: [(QdnNetwork, Vec<Slot>); 2],
}

fn scenario(seed: u64, kind: usize) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let network = |nodes| NetworkConfig {
        topology: TopologyConfig::paper_default().with_nodes(nodes),
        qubit_capacity: CapacityRange::new("qubits", 4, 16).unwrap(),
        channel_capacity: CapacityRange::new("channels", 1, 5).unwrap(),
        elementary_fidelity: 0.92,
        ..NetworkConfig::paper_default()
    };
    let mut evaluator = EvalOptions::warm_seeded();
    evaluator.warm_profile_seed = kind % 3 != 1;
    let selector = match kind % 3 {
        2 => RouteSelector::GreedyLocal {
            max_rounds: 3,
            evaluator,
        },
        _ => RouteSelector::Gibbs(GibbsConfig {
            iterations: rng.random_range(1..16usize),
            warm_iterations: rng.random_range(0..4usize),
            gamma: [500.0, 20.0][rng.random_range(0..2usize)],
            gamma_decay: [1.0, 0.9][rng.random_range(0..2usize)],
            evaluator,
            ..GibbsConfig::paper_default()
        }),
    };
    let allocation = [
        AllocationMethod::relax_and_round(),
        AllocationMethod::Greedy,
        AllocationMethod::Minimal,
    ][rng.random_range(0..3usize)];
    let nodes = rng.random_range(5..9usize);
    let other = nodes + rng.random_range(1..4usize);
    let slots = rng.random_range(8..13u64);
    let config = ServeConfig {
        seed,
        shards: 1,
        network: network(nodes),
        dynamics: DynamicsConfig::Churn {
            failure_rate: rng.random_range(0.0..0.8),
            mttr: 2.0,
            seed,
            base: Box::new(DynamicsConfig::Static),
        },
        threads: 0,
        oscar: OscarConfig {
            v: rng.random_range(10.0..3000.0),
            q0: rng.random_range(0.0..40.0),
            total_budget: rng.random_range(20.0..200.0),
            horizon: 10,
            selector,
            allocation,
            fidelity_target: (kind == 0 || rng.random_bool(0.6))
                .then(|| rng.random_range(0.79f64..0.85)),
            ..OscarConfig::paper_default()
        },
    };
    let start = rng.random_range(0..slots);
    let advisories = vec![Advisory {
        start,
        end: start + rng.random_range(1..4u64),
        nodes: vec![rng.random_range(0..nodes as u32)],
        planned: true,
    }];
    let mut segment = |network: QdnNetwork, slots: u64, advisories: &[Advisory], myopic: bool| {
        let pinned = [(); 3].map(|_| random_sd_pair(&mut rng, &network));
        let trace: Vec<Slot> = (0..slots)
            .map(|t| {
                let mut requests = pinned.to_vec();
                requests.retain(|_| rng.random_bool(0.9));
                for _ in 0..rng.random_range(0..2usize) {
                    requests.push(random_sd_pair(&mut rng, &network));
                }
                if rng.random_bool(0.3) && !requests.is_empty() {
                    requests.push(requests[0]);
                }
                if rng.random_bool(0.1) {
                    requests.clear();
                }
                // The daemon refuses a batch that touches a dark node.
                let dark = dark_nodes(advisories, t);
                requests
                    .retain(|p| !dark.contains(&p.source()) && !dark.contains(&p.destination()));
                let budget = (myopic && t % 2 == 1).then(|| rng.random_range(2..30u64));
                (requests, budget)
            })
            .collect();
        (network, trace)
    };
    // The network the daemon builds from its configuration and seed.
    let build = |config: &NetworkConfig| config.build(&mut StdRng::seed_from_u64(seed)).unwrap();
    let segments = [
        segment(build(&config.network), slots, &advisories, false),
        segment(build(&network(other)), 6, &[], true),
    ];
    Scenario {
        restore_at: rng.random_range(1..slots as usize),
        config,
        advisories,
        segments,
    }
}

fn dark_nodes(advisories: &[Advisory], t: u64) -> Vec<NodeId> {
    let active = advisories.iter().filter(|a| a.covers(t));
    active.flat_map(|a| &a.nodes).map(|&v| NodeId(v)).collect()
}

/// Each slot's capacities as the daemon derives them, `[dark, cut]`: the
/// dynamics draw with every declared dark node's qubits and links
/// zeroed, and the same draw with only its links cut.
fn capacities(s: &Scenario, segment: usize) -> Vec<[CapacitySnapshot; 2]> {
    let ((net, trace), seed) = (&s.segments[segment], s.config.seed);
    let mut dynamics = s.config.dynamics.build();
    let advisories = if segment == 0 { &s.advisories[..] } else { &[] };
    (0..trace.len() as u64)
        .map(|t| {
            let drawn = dynamics.snapshot(t, net, &mut slot_rng(seed, t, DYNAMICS_STREAM));
            let dark = dark_nodes(advisories, t);
            // 1 on a live node, 0 on a dark one.
            let live = |v: NodeId| u32::from(!dark.contains(&v));
            let edges = net.graph().edges();
            let channels: Vec<u32> = edges
                .map(|(e, u, v)| drawn.channels(e) * live(u) * live(v))
                .collect();
            let qubits = |mask: &dyn Fn(NodeId) -> u32| {
                let nodes = net.graph().node_ids();
                nodes.map(|v| drawn.qubits(v) * mask(v)).collect()
            };
            let dark = CapacitySnapshot::clamped(net, qubits(&live), channels.clone());
            let cut = CapacitySnapshot::clamped(net, qubits(&|_| 1), channels);
            [dark, cut]
        })
        .collect()
}

fn same(leg: &str, t: usize, got: &Decision, want: &Decision) -> Result<(), String> {
    let diverged = || format!("{leg}, slot {t}:\n got {got:?}\nwant {want:?}");
    (got == want).then_some(()).ok_or_else(diverged)
}

/// Replays `s` through every production leg against the reference;
/// returns how many mid-trace restores ran. Every leg decides with the
/// daemon's shard-0 stream.
fn check(s: &Scenario, tally: &mut Tally) -> Result<u64, String> {
    let oscar = &s.config.oscar;
    let rng = |t: usize| slot_rng(s.config.seed, t as u64, 0);
    let (head, tail) = s.segments[0].1.split_at(s.restore_at);
    let (_, mut served, wire) = daemon(s, None, head)?;
    let (rewire, rest, _) = daemon(s, Some(&wire), tail)?;
    if rewire != wire {
        return Err("the restored daemon's snapshot differs".into());
    }
    served.extend(rest);
    let mut policy = OscarPolicy::new(oscar.clone());
    let (mut states, mut restores) = (vec![EngineState::new(oscar.route_limits)], 0);
    for (i, (net, trace)) in s.segments.iter().enumerate() {
        // A reset, then (second segment) a network of another size.
        states.truncate(1);
        states[0].reset();
        let mut q = VirtualQueue::new(oscar.q0, oscar.total_budget, oscar.horizon);
        let mut prev = Decision::empty();
        for (t, ((requests, budget), caps)) in trace.iter().zip(capacities(s, i)).enumerate() {
            let [dark, cut] = caps.each_ref().map(|snap| match *budget {
                Some(budget) => PerSlotContext::myopic(net, snap, budget),
                None => PerSlotContext::oscar(net, snap, oscar.v, q.value()),
            });
            prev = decide_reference(requests, &cut, oscar, &prev, &mut rng(t), tally);
            q.update(prev.total_cost());
            // OscarPolicy and the daemon run the first segment, all OSCAR slots.
            if i == 0 {
                let slot = SlotState::new(t as u64, requests.clone(), dark.snapshot.clone());
                let got = policy.decide(net, &slot, &mut rng(t));
                same("OscarPolicy", t, &got, &prev)?;
                same("daemon", t, &served[t], &prev)?;
            }
            for (leg, state) in ["engine", "restored"].into_iter().zip(&mut states) {
                let request = SlotDecisionRequest {
                    network: net,
                    requests,
                    ctx: &dark,
                    selector: &oscar.selector,
                    allocation: &oscar.allocation,
                    fidelity_target: oscar.fidelity_target,
                    rng: &mut rng(t),
                };
                same(leg, t, &decide(state, request), &prev)?;
            }
            if t + 1 == s.restore_at {
                let wire = serde_json::to_string(&states[0].snapshot()).unwrap();
                let restored = EngineState::restore(&serde_json::from_str(&wire).unwrap())?;
                if serde_json::to_string(&restored.snapshot()).unwrap() != wire {
                    return Err(format!("engine re-snapshot at slot {t} differs"));
                }
                (restores, states) = (restores + 1, vec![states.swap_remove(0), restored]);
            }
        }
    }
    Ok(restores)
}

/// One connection to a fresh `shards: 1` daemon over `serve_connection`:
/// declare the scenario's outages, restore `wire` if given, take a
/// snapshot, decide `slots` and take another. Returns both snapshots'
/// JSON around the decisions.
fn daemon(s: &Scenario, wire: Option<&str>, slots: &[Slot]) -> Result<Served, String> {
    let (ours, theirs) = UnixStream::pair().map_err(|e| e.to_string())?;
    let mut daemon = Daemon::new(s.config.clone())?;
    std::thread::scope(|scope| {
        scope.spawn(|| serve_connection(&mut daemon, theirs));
        let mut client = Client::new(ours);
        let mut run = || -> Result<Served, ClientError> {
            client.hello()?;
            for advisory in &s.advisories {
                client.advise(advisory.clone())?;
            }
            if let Some(wire) = wire {
                client.restore(serde_json::from_str(wire).unwrap())?;
            }
            let before = serde_json::to_string(&client.snapshot()?).unwrap();
            let mut decisions = Vec::new();
            for (requests, _) in slots {
                client.submit(requests)?;
                decisions.push(client.tick()?.1);
            }
            let after = serde_json::to_string(&client.snapshot()?).unwrap();
            Ok((before, decisions, after))
        };
        run().map_err(|e| format!("daemon: {e}"))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every production path matches the reference on every slot of a
    /// corpus of four scenarios: warm Gibbs, cold Gibbs, greedy local
    /// search and warm Gibbs again.
    #[test]
    fn production_paths_match_reference(seeds in proptest::collection::vec(0u64..u64::MAX, 4)) {
        let (mut tally, mut restores) = (Tally::default(), 0);
        for (kind, &seed) in seeds.iter().enumerate() {
            match check(&scenario(seed, kind), &mut tally) {
                Ok(ran) => restores += ran,
                Err(e) => prop_assert!(false, "scenario {seed} (kind {kind}): {e}"),
            }
        }
        prop_assert!(tally.decided > 0 && tally.seeded > 0 && tally.filtered > 0, "{tally:?}");
        prop_assert!(restores > 0);
    }
}

/// Algorithm 3 samples Eq. 15. The reference chain's single-pair
/// proposal is symmetric and its logit acceptance is Barker's rule, so at
/// constant γ its stationary law over the feasible profiles is
/// π(s) ∝ exp(f(s)/γ). The instance is a 3 × 3 grid with uneven links
/// and three pairs of three candidate routes (27 profiles) at the
/// paper's `V = 2500`. Long runs at γ = 500 (the paper's value) and
/// γ = 1500, thinned by the lag at which the objective's autocorrelation
/// falls below 0.05, must match π by a chi-square test at p = 1e-4, with
/// the bins expecting fewer than five visits pooled.
#[test]
fn reference_chain_samples_eq15() {
    use qdn::net::network::QdnNetworkBuilder;
    use qdn::physics::link::LinkModel;
    use reference::gibbs::step;

    let (mut b, mut rng) = (QdnNetworkBuilder::new(), StdRng::seed_from_u64(15));
    (0..9).for_each(|_| _ = b.add_node(8));
    for (_, u, v) in qdn::graph::generators::grid(3, 3).edges() {
        let link = LinkModel::new(rng.random_range(0.3f64..0.9)).unwrap();
        b.add_edge(u, v, 3, link).unwrap();
    }
    let net = b.build();
    let mut routes = qdn::net::CandidateRoutes::new(qdn::net::routes::RouteLimits::paper_default());
    let pairs = [(0, 8), (2, 6), (3, 5)].map(|(s, d)| SdPair::new(NodeId(s), NodeId(d)).unwrap());
    // Yen's three shortest routes per pair.
    let candidates = pairs.map(|pair| routes.routes(&net, pair)[..3].to_vec());
    let snap = CapacitySnapshot::full(&net);
    let ctx = PerSlotContext::oscar(&net, &snap, 2500.0, 10.0);
    let index = |s: &[usize]| s[0] * 9 + s[1] * 3 + s[2];
    let f: Vec<Option<f64>> = (0..27)
        .map(|i| {
            let routes = [i / 9, i / 3 % 3, i % 3].into_iter().enumerate();
            let profile: Vec<_> = routes.map(|(p, r)| (pairs[p], &candidates[p][r])).collect();
            ctx.evaluate_objective(&profile, &AllocationMethod::relax_and_round())
        })
        .collect();
    let f_max = f.iter().flatten().fold(f64::MIN, |a, &b| a.max(b));
    let feasible: Vec<usize> = (0..27).filter(|&i| f[i].is_some()).collect();
    for gamma in [500.0, 1500.0] {
        let weight = |i: usize| f[i].map_or(0.0, |v| ((v - f_max) / gamma).exp());
        let z: f64 = feasible.iter().map(|&i| weight(i)).sum();
        // The optimum's weight is 1, so it holds 1/z of π.
        let (top, uniform) = (1.0 / z, 1.0 / feasible.len() as f64);
        assert!(top < 0.5 && top > 2.0 * uniform, "degenerate π");

        let (mut state, mut value, lens) = (vec![0; 3], f[0].unwrap(), [3; 3]);
        let mut table = |s: &[usize]| f[index(s)];
        let mut walk = || {
            step(&mut state, &mut value, &lens, gamma, &mut rng, &mut table);
            index(&state)
        };
        let visits: Vec<usize> = (0..1_001_000).map(|_| walk()).skip(1_000).collect();
        let mean = visits.iter().map(|&i| f[i].unwrap()).sum::<f64>() / visits.len() as f64;
        let x: Vec<f64> = visits.iter().map(|&i| f[i].unwrap() - mean).collect();
        let cov = |lag: usize| -> f64 { x.iter().zip(&x[lag..]).map(|(a, b)| a * b).sum() };
        let stride = (1..1000).find(|&lag| cov(lag) < 0.05 * cov(0)).unwrap();
        let mut observed = [0.0; 27];
        for &i in visits.iter().step_by(stride) {
            observed[i] += 1.0;
        }
        let n: f64 = observed.iter().sum();
        let expected = |i: usize| weight(i) / z * n;
        let bin = |&i: &usize| (expected(i), observed[i]);
        let mut bins: Vec<(f64, f64)> = feasible.iter().map(bin).collect();
        bins.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Pool the least expected bins until the pool and every other bin
        // expect at least five visits.
        let mut pool = (0.0, 0.0);
        while bins[0].0 < 5.0 || (pool.0 > 0.0 && pool.0 < 5.0) {
            let (e, o) = bins.remove(0);
            pool = (pool.0 + e, pool.1 + o);
        }
        bins.extend((pool.0 > 0.0).then_some(pool));
        let chi2: f64 = bins.iter().map(|(e, o)| (o - e).powi(2) / e).sum();
        // The p = 1e-4 quantile of χ² with `bins − 1` degrees of freedom
        // (Wilson–Hilferty, z = 3.719).
        let df = bins.len() as f64 - 1.0;
        let bound = df * (1.0 - 2.0 / (9.0 * df) + 3.719 * (2.0 / (9.0 * df)).sqrt()).powi(3);
        assert!(chi2 <= bound, "χ² {chi2} > {bound} at γ = {gamma}");
    }
}
