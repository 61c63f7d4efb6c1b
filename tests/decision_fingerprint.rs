//! Decision-fingerprint regression tests: fixed seeded traces replayed
//! through `engine::decide` must reproduce a golden hash of their
//! decisions.
//!
//! Both traces run the paper network for 200 slots with OSCAR's paper
//! defaults and one virtual queue:
//!
//! * **churn** — 10 sticky pairs per slot (keep probability 0.8), link
//!   churn at 0.5 failures per slot with MTTR 5;
//! * **uniform** — the paper's `U[1, 5]` random pairs per slot on static
//!   capacities. Cold pairs every slot make it the trace that leans
//!   hardest on Gibbs proposals and their acceptance draws.
//!
//! Each slot's decision is serialized with `serde_json` and folded into
//! an FNV-1a hash. A change that alters any decision — a route, an
//! allocation, a served/unserved split, or the queue trajectory they
//! feed — changes the hash.
//!
//! Each trace is replayed twice: with the default configuration, whose
//! Gibbs chains start from the previous slot's routes
//! (`EvalOptions::warm_seeded()`), and with seeding off
//! (`EvalOptions::default()`), the cold chain that draws a random start
//! every slot. Seeding rarely engages on the uniform trace, so its two
//! goldens coincide.
//!
//! A slot decides serially on its caller's thread, so each golden is
//! replayed once; trial fan-out across pool widths is checked by
//! `qdn_sim`'s `parallel_trials_byte_identical_to_serial`.
//!
//! Every trace is also replayed through `decide_reference`
//! (`tests/reference/`), which builds each slot from scratch with none of
//! production's caches, and must reproduce the same golden.
//!
//! These are the seeded regression corpus. A deliberate behaviour change
//! must update the goldens and say why.

mod reference;

use qdn::core::engine::{decide, EngineState, SlotDecisionRequest};
use qdn::core::lyapunov::VirtualQueue;
use qdn::core::oscar::OscarConfig;
use qdn::core::problem::PerSlotContext;
use qdn::core::profile_eval::EvalOptions;
use qdn::core::route_selection::{GibbsConfig, RouteSelector};
use qdn::core::Decision;
use qdn::net::dynamics::DynamicsConfig;
use qdn::net::workload::WorkloadConfig;
use qdn::net::{NetworkConfig, SdPair};
use rand::SeedableRng;
use reference::{decide_reference, Tally};

/// FNV-1a hash of the churn trace's 200 slot decisions at seed [`SEED`],
/// default (warm-seeded) configuration.
const CHURN_GOLDEN: u64 = 0x5881_2457_498a_1c6d;

/// FNV-1a hash of the uniform trace's 200 slot decisions at seed [`SEED`],
/// default (warm-seeded) configuration.
const UNIFORM_GOLDEN: u64 = 0x5191_6a6a_1d3f_ca00;

/// [`CHURN_GOLDEN`] with warm seeding off.
const CHURN_COLD_GOLDEN: u64 = 0xdc63_3495_8e14_2e57;

/// [`UNIFORM_GOLDEN`] with warm seeding off.
const UNIFORM_COLD_GOLDEN: u64 = 0x5191_6a6a_1d3f_ca00;

const SEED: u64 = 20_240_118;
const SLOTS: u64 = 200;

/// Per-slot RNG streams, derived from `(SEED, slot, stream)`.
const NETWORK_STREAM: u64 = 0;
const DYNAMICS_STREAM: u64 = 1;
const REQUEST_STREAM: u64 = 2;
const POLICY_STREAM: u64 = 3;

fn rng(slot: u64, stream: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(
        SEED ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (stream << 56),
    )
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn churn() -> (DynamicsConfig, WorkloadConfig) {
    (
        DynamicsConfig::Churn {
            failure_rate: 0.5,
            mttr: 5.0,
            seed: SEED,
            base: Box::new(DynamicsConfig::Static),
        },
        WorkloadConfig::Persistent {
            pairs_per_slot: 10,
            keep_probability: 0.8,
        },
    )
}

fn uniform() -> (DynamicsConfig, WorkloadConfig) {
    (DynamicsConfig::Static, WorkloadConfig::paper_default())
}

/// One slot's decision from its requests, context and policy RNG.
type Decide<'a> = dyn FnMut(&[SdPair], &PerSlotContext<'_>, &mut dyn rand::Rng) -> Decision + 'a;

/// Replays a trace, deciding each slot with `decide`, and returns the
/// hash.
fn replay(
    oscar: &OscarConfig,
    (dynamics, workload): (DynamicsConfig, WorkloadConfig),
    decide: &mut Decide<'_>,
) -> u64 {
    let network = NetworkConfig::paper_default()
        .build(&mut rng(0, NETWORK_STREAM))
        .expect("paper network builds");
    let mut dynamics = dynamics.build();
    let mut workload = workload.build();
    let mut queue = VirtualQueue::new(oscar.q0, oscar.total_budget, oscar.horizon);

    let mut hash = 0xcbf2_9ce4_8422_2325;
    for t in 0..SLOTS {
        let snapshot = dynamics.snapshot(t, &network, &mut rng(t, DYNAMICS_STREAM));
        let requests = workload.requests(t, &network, &mut rng(t, REQUEST_STREAM));
        let ctx = PerSlotContext::oscar(&network, &snapshot, oscar.v, queue.value());
        let decision = decide(&requests, &ctx, &mut rng(t, POLICY_STREAM));
        queue.update(decision.total_cost());
        let json = serde_json::to_string(&decision).expect("decisions serialize");
        hash = fnv1a(hash, json.as_bytes());
    }
    hash
}

/// Asserts that `trace` replayed through `engine::decide` under `oscar`,
/// and through `decide_reference`, both hash to `golden`.
fn assert_golden(golden: u64, oscar: &OscarConfig, trace: (DynamicsConfig, WorkloadConfig)) {
    let mut state = EngineState::new(oscar.route_limits);
    let hash = replay(oscar, trace.clone(), &mut |requests, ctx, rng| {
        decide(
            &mut state,
            SlotDecisionRequest {
                network: ctx.network,
                requests,
                ctx,
                selector: &oscar.selector,
                allocation: &oscar.allocation,
                fidelity_target: oscar.fidelity_target,
                rng,
            },
        )
    });
    assert_eq!(
        hash, golden,
        "decision fingerprint changed: got {hash:#018x}"
    );
    let mut prev = Decision::empty();
    let hash = replay(oscar, trace, &mut |requests, ctx, rng| {
        prev = decide_reference(requests, ctx, oscar, &prev, rng, &mut Tally::default());
        prev.clone()
    });
    assert_eq!(hash, golden, "the reference diverged: got {hash:#018x}");
}

#[test]
fn churn_trace_matches_golden() {
    assert_golden(CHURN_GOLDEN, &OscarConfig::paper_default(), churn());
}

#[test]
fn uniform_trace_matches_golden() {
    assert_golden(UNIFORM_GOLDEN, &OscarConfig::paper_default(), uniform());
}

#[test]
fn cold_traces_match_goldens() {
    let cold = OscarConfig {
        selector: RouteSelector::Gibbs(GibbsConfig {
            evaluator: EvalOptions::default(),
            ..GibbsConfig::paper_default()
        }),
        ..OscarConfig::paper_default()
    };
    assert_golden(CHURN_COLD_GOLDEN, &cold, churn());
    assert_golden(UNIFORM_COLD_GOLDEN, &cold, uniform());
}
