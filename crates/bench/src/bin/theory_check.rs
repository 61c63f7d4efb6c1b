//! Prints the paper's analytic bounds next to measured quantities at
//! paper scale: Theorem 1's budget-violation allowance vs OSCAR's actual
//! overshoot, and Theorem 2's optimality gap vs the measured distance to
//! the hindsight oracle.
//!
//! Usage: `cargo run -p qdn_bench --release --bin theory_check [--quick]`

use qdn_bench::figures::oscar_config;
use qdn_bench::Scale;
use qdn_core::baselines::OraclePolicy;
use qdn_core::oscar::OscarPolicy;
use qdn_core::route_selection::RouteSelector;
use qdn_core::theory::{
    delta_bound, theorem1_violation_bound, theorem2_optimality_gap, BoundParams,
};
use qdn_net::dynamics::StaticDynamics;
use qdn_net::routes::RouteLimits;
use qdn_net::workload::{TraceWorkload, UniformWorkload, Workload};
use qdn_net::NetworkConfig;
use qdn_sim::engine::{run, SimConfig};
use rand::SeedableRng;

fn main() {
    let scale = Scale::from_args();
    let cfg = oscar_config(scale);
    let horizon = cfg.horizon;
    let budget = cfg.total_budget;
    let sim = SimConfig {
        horizon,
        realize_outcomes: false,
    };

    println!("# Theory check ({scale:?} scale): measured vs analytic bounds\n");

    let mut sum_violation = 0.0;
    let mut sum_gap = 0.0;
    let mut bound1 = 0.0;
    let mut bound2 = 0.0;
    const SEEDS: [u64; 3] = [101, 202, 303];
    for seed in SEEDS {
        let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();

        // Shared request trace so the oracle can plan with hindsight.
        let mut sampler = UniformWorkload::paper_default();
        let mut trace_rng = rand::rngs::StdRng::seed_from_u64(seed + 999);
        let trace: Vec<_> = (0..horizon)
            .map(|t| sampler.requests(t, &net, &mut trace_rng))
            .collect();

        // OSCAR.
        let mut oscar = OscarPolicy::new(cfg.clone());
        let mut env1 = rand::rngs::StdRng::seed_from_u64(seed + 1);
        let mut pol1 = rand::rngs::StdRng::seed_from_u64(seed + 2);
        let m_oscar = run(
            &net,
            &mut TraceWorkload::new(trace.clone()),
            &mut StaticDynamics,
            &mut oscar,
            &sim,
            &mut env1,
            &mut pol1,
        );

        // Hindsight oracle (approximate OPT).
        let mut oracle = OraclePolicy::plan(
            &net,
            &trace,
            budget,
            RouteLimits::paper_default(),
            RouteSelector::default(),
        );
        let mut env2 = rand::rngs::StdRng::seed_from_u64(seed + 1);
        let mut pol2 = rand::rngs::StdRng::seed_from_u64(seed + 2);
        let m_oracle = run(
            &net,
            &mut TraceWorkload::new(trace),
            &mut StaticDynamics,
            &mut oracle,
            &sim,
            &mut env2,
            &mut pol2,
        );

        let max_w = net
            .graph()
            .edge_ids()
            .map(|e| net.channel_capacity(e))
            .max()
            .unwrap() as f64;
        let params = BoundParams {
            v: cfg.v,
            f: 5,
            l: 8,
            p_min: net.p_min(),
            budget,
            horizon,
            q0: cfg.q0,
            c_max: 5.0 * 8.0 * max_w,
        };
        let violation = (m_oscar.total_cost() as f64 - budget) / horizon as f64;
        let gap = m_oracle.avg_utility() - m_oscar.avg_utility();
        bound1 = theorem1_violation_bound(&params);
        bound2 = theorem2_optimality_gap(&params);
        println!(
            "seed {seed}: per-slot violation {violation:+.3} (Thm 1 allows {bound1:.1}), \
             utility gap to oracle {gap:+.4} (Thm 2 allows {bound2:.1})"
        );
        sum_violation += violation;
        sum_gap += gap;

        let delta = delta_bound(params.v, params.f, params.l, params.p_min);
        println!(
            "          Δ (Prop. 2) = {delta:.1}, p_min = {:.4}, C/T = {:.1}",
            params.p_min,
            params.allowance()
        );
    }

    let n = SEEDS.len() as f64;
    println!("\nmeans over {} seeds:", SEEDS.len());
    println!(
        "  budget violation {:+.3} / slot  (bound {bound1:.1})  -> {}",
        sum_violation / n,
        if sum_violation / n <= bound1 {
            "OK"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "  optimality gap   {:+.4}          (bound {bound2:.1})  -> {}",
        sum_gap / n,
        if sum_gap / n <= bound2 {
            "OK"
        } else {
            "VIOLATED"
        }
    );
}
