//! Failure-injection tests: hostile environments the paper's evaluation
//! never produces (disconnected topologies, resource blackouts, starved
//! capacities) must degrade the policies gracefully — requests go
//! unserved, constraints stay intact, nothing panics, and the virtual
//! queue keeps obeying Eq. 7.

use qdn::core::baselines::MyopicPolicy;
use qdn::core::oscar::{OscarConfig, OscarPolicy};
use qdn::core::policy::RoutingPolicy;
use qdn::core::types::SlotState;
use qdn::graph::NodeId;
use qdn::net::dynamics::TraceDynamics;
use qdn::net::network::QdnNetworkBuilder;
use qdn::net::workload::TraceWorkload;
use qdn::net::{CapacitySnapshot, QdnNetwork, SdPair};
use qdn::physics::link::LinkModel;
use qdn::sim::audit::audit_decision;
use qdn::sim::engine::SimConfig;
use rand::SeedableRng;

/// Two line components: 0-1-2 and 3-4-5, no edge between them.
fn split_network() -> QdnNetwork {
    let mut b = QdnNetworkBuilder::new();
    let n: Vec<_> = (0..6).map(|_| b.add_node(8)).collect();
    let l = LinkModel::new(0.6).unwrap();
    b.add_edge(n[0], n[1], 4, l).unwrap();
    b.add_edge(n[1], n[2], 4, l).unwrap();
    b.add_edge(n[3], n[4], 4, l).unwrap();
    b.add_edge(n[4], n[5], 4, l).unwrap();
    b.build()
}

#[test]
fn disconnected_pair_is_unserved_not_fatal() {
    let net = split_network();
    let cross = SdPair::new(NodeId(0), NodeId(5)).unwrap();
    let local = SdPair::new(NodeId(0), NodeId(2)).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let slot = SlotState::new(0, vec![cross, local], snap.clone());
    let mut policy = OscarPolicy::new(OscarConfig::paper_default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let d = policy.decide(&net, &slot, &mut rng);
    assert_eq!(d.assignments().len(), 1, "the connected pair is served");
    assert_eq!(d.assignments()[0].pair, local);
    assert_eq!(d.unserved(), &[cross]);
    assert!(audit_decision(&net, &snap, &d).is_empty());
}

#[test]
fn disconnected_pairs_through_the_engine() {
    // A full run where every other slot asks for an impossible pair.
    let net = split_network();
    let cross = SdPair::new(NodeId(2), NodeId(3)).unwrap();
    let local = SdPair::new(NodeId(3), NodeId(5)).unwrap();
    let trace: Vec<Vec<SdPair>> = (0..12)
        .map(|t| {
            if t % 2 == 0 {
                vec![cross]
            } else {
                vec![local, cross]
            }
        })
        .collect();
    let mut wl = TraceWorkload::new(trace);
    let mut dynamics = qdn::net::dynamics::StaticDynamics;
    let mut policy = OscarPolicy::new(OscarConfig {
        total_budget: 120.0,
        horizon: 12,
        ..OscarConfig::paper_default()
    });
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut policy_rng = rand::rngs::StdRng::seed_from_u64(3);
    let metrics = qdn::sim::run(
        &net,
        &mut wl,
        &mut dynamics,
        &mut policy,
        &SimConfig {
            horizon: 12,
            realize_outcomes: true,
        },
        &mut env_rng,
        &mut policy_rng,
    );
    // Even slots: nothing served; odd slots: exactly one pair served.
    for s in metrics.slots() {
        if s.t % 2 == 0 {
            assert_eq!(s.served, 0, "slot {}: impossible pair served", s.t);
            assert_eq!(s.cost, 0);
        } else {
            assert_eq!(s.served, 1);
            assert!(s.cost >= 2);
        }
    }
    // The impossible pair appears once in every one of the 12 slots.
    assert_eq!(metrics.total_unserved(), 12);
}

/// Trace dynamics alternating between full capacity and total blackout.
#[test]
fn blackout_slots_serve_nothing_and_queue_drains() {
    let net = split_network();
    let full = CapacitySnapshot::full(&net);
    let dark =
        CapacitySnapshot::clamped(&net, vec![0; net.node_count()], vec![0; net.edge_count()]);
    // 3 dark slots, then light.
    let mut dynamics = TraceDynamics::new(vec![dark.clone(), dark.clone(), dark, full]);
    let pair = SdPair::new(NodeId(0), NodeId(2)).unwrap();
    let mut wl = TraceWorkload::new(vec![vec![pair]; 6]);
    let budget = 60.0;
    let horizon = 6;
    let mut policy = OscarPolicy::new(OscarConfig {
        total_budget: budget,
        horizon,
        q0: 30.0,
        ..OscarConfig::paper_default()
    });
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut policy_rng = rand::rngs::StdRng::seed_from_u64(6);
    let metrics = qdn::sim::run(
        &net,
        &mut wl,
        &mut dynamics,
        &mut policy,
        &SimConfig {
            horizon,
            realize_outcomes: false,
        },
        &mut env_rng,
        &mut policy_rng,
    );
    let slots = metrics.slots();
    for s in &slots[..3] {
        assert_eq!(s.served, 0, "blackout slot {} served something", s.t);
        assert_eq!(s.cost, 0);
    }
    for s in &slots[3..] {
        assert_eq!(s.served, 1, "slot {} should serve after recovery", s.t);
    }
    // During the blackout the queue drains by C/T = 10 per slot from q0=30.
    let queues: Vec<f64> = slots.iter().map(|s| s.virtual_queue.unwrap()).collect();
    assert!((queues[0] - 20.0).abs() < 1e-9);
    assert!((queues[1] - 10.0).abs() < 1e-9);
    assert!((queues[2] - 0.0).abs() < 1e-9);
}

#[test]
fn starved_line_drops_excess_duplicates() {
    // Line 0-1-2 with channel capacity 1: a single route instance per
    // slot. Five duplicate requests -> one served, four unserved.
    let mut b = QdnNetworkBuilder::new();
    let n: Vec<_> = (0..3).map(|_| b.add_node(2)).collect();
    let l = LinkModel::new(0.7).unwrap();
    b.add_edge(n[0], n[1], 1, l).unwrap();
    b.add_edge(n[1], n[2], 1, l).unwrap();
    let net = b.build();
    let pair = SdPair::new(NodeId(0), NodeId(2)).unwrap();
    let snap = CapacitySnapshot::full(&net);
    let slot = SlotState::new(0, vec![pair; 5], snap.clone());
    let mut policy = OscarPolicy::new(OscarConfig::paper_default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let d = policy.decide(&net, &slot, &mut rng);
    assert_eq!(d.assignments().len(), 1);
    assert_eq!(d.unserved().len(), 4);
    assert!(audit_decision(&net, &snap, &d).is_empty());
}

#[test]
fn one_hop_pair_has_no_swap_penalty() {
    // Adjacent nodes: the route is a single edge, zero swaps, so success
    // equals the link model exactly even under terrible swapping.
    let mut b = QdnNetworkBuilder::new();
    let u = b.add_node(4);
    let v = b.add_node(4);
    b.add_edge(u, v, 2, LinkModel::new(0.6).unwrap()).unwrap();
    b.set_swap(qdn::physics::swap::SwapModel::new(0.1).unwrap());
    let net = b.build();
    let pair = SdPair::new(u, v).unwrap();
    let slot = SlotState::new(0, vec![pair], CapacitySnapshot::full(&net));
    let mut policy = OscarPolicy::new(OscarConfig::paper_default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let d = policy.decide(&net, &slot, &mut rng);
    assert_eq!(d.assignments().len(), 1);
    let a = &d.assignments()[0];
    assert_eq!(a.route.hops(), 1);
    let expected = match a.allocation[0] {
        1 => 0.6,
        2 => 1.0 - 0.4f64 * 0.4,
        n => panic!("unexpected allocation {n}"),
    };
    assert!((a.success_probability(&net) - expected).abs() < 1e-12);
}

#[test]
fn myopic_with_exhausted_budget_serves_nothing() {
    // MA's allowance can hit zero once the whole budget is spent; further
    // slots must serve nothing rather than overdraw.
    let net = split_network();
    let pair = SdPair::new(NodeId(0), NodeId(2)).unwrap();
    let mut policy = MyopicPolicy::new(qdn::core::baselines::MyopicConfig {
        total_budget: 4.0, // exactly two slots of a 2-hop minimal route
        horizon: 2,        // allowance 2/slot; slots beyond T keep allowance 0
        ..qdn::core::baselines::MyopicConfig::paper_default(
            qdn::core::baselines::BudgetSplit::Adaptive,
        )
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let mut served = 0;
    let mut unserved = 0;
    for t in 0..6 {
        let slot = SlotState::new(t, vec![pair], CapacitySnapshot::full(&net));
        let d = policy.decide(&net, &slot, &mut rng);
        served += d.assignments().len();
        unserved += d.unserved().len();
    }
    assert!(served >= 2, "the funded slots are served");
    assert!(unserved >= 2, "post-budget slots must starve, not overdraw");
    assert!(
        policy.diagnostics().budget_spent.unwrap() <= 4,
        "budget must never be overdrawn"
    );
}

#[test]
fn session_survives_mid_trial_link_cut_and_repair() {
    // The session decision path (route cache + selector session carried
    // across slots) driven straight through a mid-trial cut of the 0–1
    // link and its repair two slots later. The disconnected pair goes
    // unserved, every decision audits clean, and the churn diagnostics
    // report the cut and the repair.
    let net = split_network();
    let left = SdPair::new(NodeId(0), NodeId(2)).unwrap();
    let right = SdPair::new(NodeId(3), NodeId(5)).unwrap();
    let full = CapacitySnapshot::full(&net);
    // Edge 0 (the 0–1 link) down: zero channels for the slot.
    let cut = CapacitySnapshot::clamped(&net, vec![8; 6], vec![0, 4, 4, 4]);
    let mut policy = OscarPolicy::new(OscarConfig {
        total_budget: 240.0,
        horizon: 6,
        q0: 0.0,
        ..OscarConfig::paper_default()
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    for t in 0..6u64 {
        let snap = if (2..4).contains(&t) { &cut } else { &full };
        let slot = SlotState::new(t, vec![left, right], snap.clone());
        let d = policy.decide(&net, &slot, &mut rng);
        assert!(
            audit_decision(&net, snap, &d).is_empty(),
            "slot {t} violated capacities"
        );
        let churn = policy
            .diagnostics()
            .churn
            .expect("session policies report churn diagnostics");
        if (2..4).contains(&t) {
            assert_eq!(d.assignments().len(), 1, "slot {t}");
            assert_eq!(d.unserved(), &[left], "slot {t}: cut pair must starve");
        } else {
            assert_eq!(d.assignments().len(), 2, "slot {t}");
        }
        match t {
            2 => {
                assert_eq!(churn.failed_edges, 1);
                assert_eq!(churn.affected_pairs, 1);
            }
            4 => {
                assert_eq!(churn.restored_edges, 1);
                assert_eq!(churn.affected_pairs, 1);
            }
            _ => {
                assert_eq!(churn.failed_edges, 0);
                assert_eq!(churn.restored_edges, 0);
            }
        }
    }
}

#[test]
fn churn_dynamics_end_to_end_records_recovery() {
    // Random link failures/repairs from `ChurnDynamics` through the full
    // engine: nothing panics, every slot carries churn diagnostics, and
    // the recovery extraction yields a record per observed cut.
    let net = split_network();
    let mut wl = qdn::net::workload::PinnedWorkload::new(vec![
        SdPair::new(NodeId(0), NodeId(2)).unwrap(),
        SdPair::new(NodeId(3), NodeId(5)).unwrap(),
    ]);
    let mut dynamics = qdn::net::dynamics::ChurnDynamics::new(
        0.6,
        2.0,
        17,
        Box::new(qdn::net::dynamics::StaticDynamics),
    );
    let mut policy = OscarPolicy::new(OscarConfig {
        total_budget: 600.0,
        horizon: 30,
        ..OscarConfig::paper_default()
    });
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(40);
    let mut policy_rng = rand::rngs::StdRng::seed_from_u64(41);
    let metrics = qdn::sim::run(
        &net,
        &mut wl,
        &mut dynamics,
        &mut policy,
        &SimConfig {
            horizon: 30,
            realize_outcomes: true,
        },
        &mut env_rng,
        &mut policy_rng,
    );
    assert!(metrics.slots().iter().all(|s| s.churn.is_some()));
    let cuts = metrics
        .slots()
        .iter()
        .filter(|s| s.churn.unwrap().failed_edges > 0)
        .count();
    assert!(cuts >= 1, "this seed's trace must contain failures");
    let recs = metrics.recovery_records(4, 0.05);
    assert!(!recs.is_empty());
    for r in &recs {
        assert!(r.failed_edges >= 1);
        assert!(r.pre_cut_utility <= 0.0);
        if let Some(d) = r.recovery_slots {
            assert!(r.cut_slot + d < 30);
        }
    }
}

#[test]
fn empty_request_slots_cost_nothing() {
    let net = split_network();
    let mut wl = TraceWorkload::new(vec![vec![]; 5]);
    let mut dynamics = qdn::net::dynamics::StaticDynamics;
    let mut policy = OscarPolicy::new(OscarConfig {
        total_budget: 50.0,
        horizon: 5,
        q0: 7.0,
        ..OscarConfig::paper_default()
    });
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(30);
    let mut policy_rng = rand::rngs::StdRng::seed_from_u64(31);
    let metrics = qdn::sim::run(
        &net,
        &mut wl,
        &mut dynamics,
        &mut policy,
        &SimConfig {
            horizon: 5,
            realize_outcomes: true,
        },
        &mut env_rng,
        &mut policy_rng,
    );
    assert!(metrics.slots().iter().all(|s| s.cost == 0 && s.served == 0));
    // Queue decayed from 7 by C/T = 10: already zero after the 1st slot.
    assert_eq!(metrics.slots().last().unwrap().virtual_queue, Some(0.0));
}
