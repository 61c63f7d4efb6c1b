//! Theorems 1–2 against measured runs: Theorem 1's per-slot
//! budget-violation allowance against OSCAR's actual overshoot, and
//! Theorem 2's optimality gap against the measured distance to the
//! hindsight oracle.

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

use crate::figures::oscar_config;
use crate::Scale;

/// Environment seeds of the theory check.
const THEORY_SEEDS: [u64; 3] = [101, 202, 303];

/// One seed's measurements and the analytic bounds of its instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoryRow {
    /// Environment seed.
    pub seed: u64,
    /// OSCAR's spend above the budget, per slot.
    pub violation: f64,
    /// Theorem 1's per-slot violation allowance.
    pub bound1: f64,
    /// Oracle average utility minus OSCAR's.
    pub gap: f64,
    /// Theorem 2's optimality gap.
    pub bound2: f64,
    /// Proposition 2's Δ.
    pub delta: f64,
    /// Smallest link success probability of the network.
    pub p_min: f64,
    /// Per-slot budget allowance `C/T`.
    pub allowance: f64,
}

/// Output of [`theory_bounds`]: one row per seed, their means, and the
/// tightest per-seed bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoryBounds {
    /// Per-seed rows.
    pub rows: Vec<TheoryRow>,
    /// Mean per-slot budget violation.
    pub mean_violation: f64,
    /// Mean utility gap to the oracle.
    pub mean_gap: f64,
    /// Smallest per-seed Theorem 1 bound.
    pub bound1: f64,
    /// Smallest per-seed Theorem 2 gap.
    pub bound2: f64,
}

/// Runs OSCAR and the hindsight oracle on one shared request trace per
/// seed (paper network, the scale's horizon, analytic outcomes) and
/// records each run's distance from the two theorems' bounds.
pub fn theory_bounds(scale: Scale) -> TheoryBounds {
    let cfg = oscar_config(scale);
    let horizon = cfg.horizon;
    let budget = cfg.total_budget;
    let sim = SimConfig {
        horizon,
        realize_outcomes: false,
    };
    let rows: Vec<TheoryRow> = THEORY_SEEDS
        .iter()
        .map(|&seed| {
            let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed);
            let net = NetworkConfig::paper_default()
                .build(&mut env_rng)
                .expect("the paper network config is valid");

            // Shared request trace so the oracle can plan with hindsight.
            let mut sampler = UniformWorkload::paper_default();
            let mut trace_rng = rand::rngs::StdRng::seed_from_u64(seed + 999);
            let trace: Vec<_> = (0..horizon)
                .map(|t| sampler.requests(t, &net, &mut trace_rng))
                .collect();

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
                .expect("the paper network has links") as f64;
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
            TheoryRow {
                seed,
                violation: (m_oscar.total_cost() as f64 - budget) / horizon as f64,
                bound1: theorem1_violation_bound(&params),
                gap: m_oracle.avg_utility() - m_oscar.avg_utility(),
                bound2: theorem2_optimality_gap(&params),
                delta: delta_bound(params.v, params.f, params.l, params.p_min),
                p_min: params.p_min,
                allowance: params.allowance(),
            }
        })
        .collect();
    let mean = |f: fn(&TheoryRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
    let tightest = |f: fn(&TheoryRow) -> f64| rows.iter().map(f).fold(f64::INFINITY, f64::min);
    TheoryBounds {
        mean_violation: mean(|r| r.violation),
        mean_gap: mean(|r| r.gap),
        bound1: tightest(|r| r.bound1),
        bound2: tightest(|r| r.bound2),
        rows,
    }
}

/// The two named checks on [`theory_bounds`]' output: `theorem1`, the
/// mean per-slot violation is within Theorem 1's bound, and `theorem2`,
/// the mean utility gap to the oracle is within Theorem 2's gap.
pub fn theory_shape_holds(t: &TheoryBounds) -> [(&'static str, Result<(), String>); 2] {
    let within = |what: &str, measured: f64, bound: f64| {
        if measured <= bound {
            Ok(())
        } else {
            Err(format!(
                "mean {what} {measured:.4} exceeds the bound {bound:.4}"
            ))
        }
    };
    [
        (
            "theorem1",
            within("per-slot violation", t.mean_violation, t.bound1),
        ),
        ("theorem2", within("oracle gap", t.mean_gap, t.bound2)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_compare_means_with_bounds() {
        let t = |mean_violation, mean_gap| TheoryBounds {
            rows: Vec::new(),
            mean_violation,
            mean_gap,
            bound1: 10.0,
            bound2: 5.0,
        };
        let [(n1, r1), (n2, r2)] = theory_shape_holds(&t(10.0, 5.0));
        assert_eq!((n1, n2), ("theorem1", "theorem2"));
        assert!(r1.is_ok() && r2.is_ok());
        let [(_, r1), (_, r2)] = theory_shape_holds(&t(10.5, 5.5));
        assert!(r1.is_err() && r2.is_err());
    }
}
