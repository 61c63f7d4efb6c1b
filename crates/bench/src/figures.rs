//! Experiment builders — one per paper figure plus the ablations.

use qdn_core::allocation::AllocationMethod;
use qdn_core::baselines::{BudgetSplit, MyopicConfig};
use qdn_core::oscar::OscarConfig;
use qdn_core::profile_eval::EvalOptions;
use qdn_core::route_selection::{GibbsConfig, RouteSelector};
use qdn_net::config::TopologyConfig;
use qdn_net::dynamics::DynamicsConfig;
use qdn_net::workload::WorkloadConfig;
use qdn_net::NetworkConfig;
use qdn_sim::experiment::{Experiment, PolicySpec};
use qdn_sim::stats::Histogram;

use crate::scale::Scale;

/// The paper's default total budget.
pub const PAPER_BUDGET: f64 = 5000.0;

/// OSCAR at this scale with paper parameters (budget pro-rated so the
/// per-slot allowance stays 25).
pub fn oscar_config(scale: Scale) -> OscarConfig {
    let mut cfg = OscarConfig::paper_default();
    cfg.horizon = scale.horizon();
    cfg.total_budget = scale.scaled_budget(PAPER_BUDGET);
    cfg
}

/// MF/MA at this scale with paper parameters.
pub fn myopic_config(scale: Scale, split: BudgetSplit) -> MyopicConfig {
    let mut cfg = MyopicConfig::paper_default(split);
    cfg.horizon = scale.horizon();
    cfg.total_budget = scale.scaled_budget(PAPER_BUDGET);
    cfg
}

/// The paper's three policies (OSCAR, MF, MA) at this scale.
pub fn paper_policies(scale: Scale) -> Vec<PolicySpec> {
    vec![
        PolicySpec::Oscar(oscar_config(scale)),
        PolicySpec::Myopic(myopic_config(scale, BudgetSplit::Fixed)),
        PolicySpec::Myopic(myopic_config(scale, BudgetSplit::Adaptive)),
    ]
}

fn base_experiment(name: &str, scale: Scale, policies: Vec<PolicySpec>) -> Experiment {
    let mut e = Experiment::paper_default(name);
    e.trials = scale.trial_config();
    e.policies = policies;
    e
}

// ---------------------------------------------------------------------------
// Fig. 3 — time-evolving performance
// ---------------------------------------------------------------------------

/// One policy's trial-averaged time series.
#[derive(Debug, Clone)]
pub struct PolicySeries {
    /// Policy name.
    pub policy: String,
    /// Running average utility (Fig. 3a).
    pub avg_utility: Vec<f64>,
    /// Running average EC success probability (Fig. 3b).
    pub avg_success: Vec<f64>,
    /// Cumulative qubit usage (Fig. 3c).
    pub cumulative_cost: Vec<f64>,
}

/// Output of the Fig. 3 experiment.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// The budget `C` (the dashed line of Fig. 3c).
    pub budget: f64,
    /// One series per policy (OSCAR, MF, MA).
    pub series: Vec<PolicySeries>,
}

/// Runs the Fig. 3 experiment: OSCAR vs MF vs MA over the horizon.
pub fn fig3(scale: Scale) -> Fig3 {
    let results = base_experiment("fig3", scale, paper_policies(scale)).run();
    let series = results
        .runs
        .iter()
        .map(|p| PolicySeries {
            policy: p.policy.clone(),
            avg_utility: p.mean_series_of(|r| r.running_avg_utility()),
            avg_success: p.mean_series_of(|r| r.running_avg_success()),
            cumulative_cost: p
                .mean_series_of(|r| r.cumulative_cost().iter().map(|&c| c as f64).collect()),
        })
        .collect();
    Fig3 {
        budget: scale.scaled_budget(PAPER_BUDGET),
        series,
    }
}

impl Fig3 {
    /// Final value of a policy's success series.
    pub fn final_success(&self, policy: &str) -> f64 {
        self.series
            .iter()
            .find(|s| s.policy == policy)
            .and_then(|s| s.avg_success.last().copied())
            .unwrap_or(0.0)
    }

    /// Final cumulative usage of a policy.
    pub fn final_usage(&self, policy: &str) -> f64 {
        self.series
            .iter()
            .find(|s| s.policy == policy)
            .and_then(|s| s.cumulative_cost.last().copied())
            .unwrap_or(0.0)
    }

    /// Checks the paper's qualitative claims: OSCAR's success beats both
    /// baselines, MF under-spends, and OSCAR's spending is within 20% of
    /// the budget.
    pub fn shape_holds(&self) -> Result<(), String> {
        let oscar = self.final_success("OSCAR");
        let mf = self.final_success("MF");
        let ma = self.final_success("MA");
        if oscar <= mf {
            return Err(format!("OSCAR success {oscar:.4} <= MF {mf:.4}"));
        }
        if oscar <= ma {
            return Err(format!("OSCAR success {oscar:.4} <= MA {ma:.4}"));
        }
        let mf_usage = self.final_usage("MF");
        if mf_usage >= self.budget {
            return Err(format!(
                "MF usage {mf_usage:.0} should under-spend {}",
                self.budget
            ));
        }
        let oscar_usage = self.final_usage("OSCAR");
        if (oscar_usage - self.budget).abs() > 0.2 * self.budget {
            return Err(format!(
                "OSCAR usage {oscar_usage:.0} not within 20% of budget {}",
                self.budget
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 — success-rate distribution (fairness)
// ---------------------------------------------------------------------------

/// One policy's success-probability distribution.
#[derive(Debug, Clone)]
pub struct DistributionRow {
    /// Policy name.
    pub policy: String,
    /// Fraction of requests per bin over `[0, 1]`.
    pub fractions: Vec<f64>,
    /// Jain fairness index of the per-request success probabilities.
    pub jain: f64,
    /// Mean success probability.
    pub mean: f64,
}

/// Output of the Fig. 4 experiment.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Bin centers over `[0, 1]`.
    pub bin_centers: Vec<f64>,
    /// One distribution per policy.
    pub rows: Vec<DistributionRow>,
}

/// Number of histogram bins used for Fig. 4.
pub const FIG4_BINS: usize = 10;

/// Runs the Fig. 4 experiment: per-pair success distribution.
pub fn fig4(scale: Scale) -> Fig4 {
    let results = base_experiment("fig4", scale, paper_policies(scale)).run();
    let mut bin_centers = Vec::new();
    let rows = results
        .runs
        .iter()
        .map(|p| {
            let probs = p.pooled_success_probs();
            let hist = Histogram::new(&probs, 0.0, 1.0, FIG4_BINS);
            if bin_centers.is_empty() {
                bin_centers = hist.bars().iter().map(|&(c, _)| c).collect();
            }
            let n = probs.len().max(1) as f64;
            let mean = probs.iter().sum::<f64>() / n;
            let jain = {
                let sum: f64 = probs.iter().sum();
                let sum_sq: f64 = probs.iter().map(|x| x * x).sum();
                if sum_sq == 0.0 {
                    1.0
                } else {
                    sum * sum / (probs.len() as f64 * sum_sq)
                }
            };
            DistributionRow {
                policy: p.policy.clone(),
                fractions: hist.fractions(),
                jain,
                mean,
            }
        })
        .collect();
    Fig4 { bin_centers, rows }
}

impl Fig4 {
    /// OSCAR's distribution should be at least as fair (Jain) as both
    /// baselines' and have the highest mean.
    pub fn shape_holds(&self) -> Result<(), String> {
        let get = |name: &str| {
            self.rows
                .iter()
                .find(|r| r.policy == name)
                .ok_or_else(|| format!("missing policy {name}"))
        };
        let oscar = get("OSCAR")?;
        let mf = get("MF")?;
        let ma = get("MA")?;
        if oscar.mean <= mf.mean || oscar.mean <= ma.mean {
            return Err(format!(
                "OSCAR mean {:.4} should exceed MF {:.4} and MA {:.4}",
                oscar.mean, mf.mean, ma.mean
            ));
        }
        if oscar.jain + 1e-6 < mf.jain.min(ma.jain) {
            return Err(format!(
                "OSCAR Jain {:.4} should not be worse than both baselines ({:.4}, {:.4})",
                oscar.jain, mf.jain, ma.jain
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Sweep scaffolding shared by Figs. 5–8 and the ablations
// ---------------------------------------------------------------------------

/// One (x, per-policy outcomes) row of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The sweep coordinate (budget, network size, V, q0, γ, …).
    pub x: f64,
    /// Per-policy `(name, avg_success, avg_utility, total_usage)`.
    pub outcomes: Vec<SweepOutcome>,
}

/// One policy's outcome at one sweep point.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Policy (or variant) name.
    pub policy: String,
    /// Mean per-request success probability.
    pub avg_success: f64,
    /// Mean per-slot utility.
    pub avg_utility: f64,
    /// Mean total qubit usage over the run.
    pub total_usage: f64,
}

fn run_sweep_point(name: &str, scale: Scale, x: f64, experiment: Experiment) -> SweepPoint {
    let _ = (name, scale);
    let results = experiment.run();
    let outcomes = results
        .runs
        .iter()
        .map(|p| SweepOutcome {
            policy: p.policy.clone(),
            avg_success: p.mean_of(|r| r.avg_success()),
            avg_utility: p.mean_of(|r| r.avg_utility()),
            total_usage: p.mean_of(|r| r.total_cost() as f64),
        })
        .collect();
    SweepPoint { x, outcomes }
}

impl SweepPoint {
    /// The outcome of a given policy at this point.
    pub fn outcome(&self, policy: &str) -> Option<&SweepOutcome> {
        self.outcomes.iter().find(|o| o.policy == policy)
    }
}

// ---------------------------------------------------------------------------
// Fig. 5 — impact of budget
// ---------------------------------------------------------------------------

/// The budget values swept by Fig. 5 (paper scale; pro-rated for Quick).
pub const FIG5_BUDGETS: [f64; 6] = [3000.0, 4000.0, 5000.0, 6000.0, 7000.0, 8000.0];

/// Runs the Fig. 5 sweep: success rate and usage vs budget `C`.
pub fn fig5(scale: Scale) -> Vec<SweepPoint> {
    FIG5_BUDGETS
        .iter()
        .map(|&budget| {
            let scaled = scale.scaled_budget(budget);
            let policies = vec![
                PolicySpec::Oscar(oscar_config(scale).with_budget(scaled)),
                PolicySpec::Myopic(myopic_config(scale, BudgetSplit::Fixed).with_budget(scaled)),
                PolicySpec::Myopic(myopic_config(scale, BudgetSplit::Adaptive).with_budget(scaled)),
            ];
            run_sweep_point(
                "fig5",
                scale,
                budget,
                base_experiment("fig5", scale, policies),
            )
        })
        .collect()
}

/// Fig. 5 qualitative checks: success grows with the budget for every
/// policy; OSCAR dominates at every budget.
pub fn fig5_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    for w in points.windows(2) {
        for policy in ["OSCAR", "MF", "MA"] {
            let lo = w[0].outcome(policy).unwrap().avg_success;
            let hi = w[1].outcome(policy).unwrap().avg_success;
            if hi + 0.03 < lo {
                return Err(format!(
                    "{policy} success should not drop with budget: {lo:.4} -> {hi:.4}"
                ));
            }
        }
    }
    for p in points {
        let oscar = p.outcome("OSCAR").unwrap().avg_success;
        let mf = p.outcome("MF").unwrap().avg_success;
        let ma = p.outcome("MA").unwrap().avg_success;
        if oscar + 0.01 < mf || oscar + 0.01 < ma {
            return Err(format!(
                "at C={}: OSCAR {oscar:.4} should dominate MF {mf:.4} / MA {ma:.4}",
                p.x
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 6 — impact of network size
// ---------------------------------------------------------------------------

/// Node counts swept by Fig. 6.
pub const FIG6_SIZES: [usize; 5] = [10, 15, 20, 25, 30];

/// Runs the Fig. 6 sweep: success rate and usage vs network size, with
/// the Waxman density recalibrated to average degree ≈ 4 per size.
pub fn fig6(scale: Scale) -> Vec<SweepPoint> {
    FIG6_SIZES
        .iter()
        .map(|&nodes| {
            let mut e = base_experiment("fig6", scale, paper_policies(scale));
            e.network = NetworkConfig::paper_default().with_nodes(nodes);
            run_sweep_point("fig6", scale, nodes as f64, e)
        })
        .collect()
}

/// Fig. 6 qualitative checks: success degrades with size; OSCAR
/// dominates at every size.
pub fn fig6_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    let first = points.first().ok_or("empty sweep")?;
    let last = points.last().ok_or("empty sweep")?;
    for policy in ["OSCAR", "MF", "MA"] {
        let small = first.outcome(policy).unwrap().avg_success;
        let large = last.outcome(policy).unwrap().avg_success;
        if large > small + 0.02 {
            return Err(format!(
                "{policy}: success should fall with size ({small:.4} @ {} vs {large:.4} @ {})",
                first.x, last.x
            ));
        }
    }
    for p in points {
        let oscar = p.outcome("OSCAR").unwrap().avg_success;
        let mf = p.outcome("MF").unwrap().avg_success;
        let ma = p.outcome("MA").unwrap().avg_success;
        if oscar + 0.02 < mf.max(ma) {
            return Err(format!(
                "at n={}: OSCAR {oscar:.4} should dominate MF {mf:.4} / MA {ma:.4}",
                p.x
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 7 — impact of the Lyapunov weight V
// ---------------------------------------------------------------------------

/// V values swept by Fig. 7.
pub const FIG7_VS: [f64; 5] = [500.0, 1000.0, 2500.0, 5000.0, 10000.0];

/// Runs the Fig. 7 sweep: OSCAR's utility and usage vs `V`.
pub fn fig7(scale: Scale) -> Vec<SweepPoint> {
    FIG7_VS
        .iter()
        .map(|&v| {
            let policies = vec![PolicySpec::Oscar(oscar_config(scale).with_v(v))];
            run_sweep_point("fig7", scale, v, base_experiment("fig7", scale, policies))
        })
        .collect()
}

/// Fig. 7 qualitative checks: utility rises with `V` and so does usage
/// (the budget-violation trade-off of Theorem 1).
pub fn fig7_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    let first = points.first().ok_or("empty sweep")?;
    let last = points.last().ok_or("empty sweep")?;
    let u_first = first.outcomes[0].avg_utility;
    let u_last = last.outcomes[0].avg_utility;
    if u_last + 1e-9 < u_first {
        return Err(format!(
            "utility should rise with V: {u_first:.4} @ V={} vs {u_last:.4} @ V={}",
            first.x, last.x
        ));
    }
    let c_first = first.outcomes[0].total_usage;
    let c_last = last.outcomes[0].total_usage;
    if c_last + 1e-9 < c_first {
        return Err(format!(
            "usage should rise with V: {c_first:.0} @ V={} vs {c_last:.0} @ V={}",
            first.x, last.x
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Fig. 8 — impact of the initial virtual queue q0
// ---------------------------------------------------------------------------

/// q0 values swept by Fig. 8.
pub const FIG8_Q0S: [f64; 5] = [0.0, 10.0, 50.0, 100.0, 200.0];

/// Runs the Fig. 8 sweep: OSCAR's utility and usage vs `q0`.
pub fn fig8(scale: Scale) -> Vec<SweepPoint> {
    FIG8_Q0S
        .iter()
        .map(|&q0| {
            let policies = vec![PolicySpec::Oscar(oscar_config(scale).with_q0(q0))];
            run_sweep_point("fig8", scale, q0, base_experiment("fig8", scale, policies))
        })
        .collect()
}

/// Fig. 8 qualitative checks: larger `q0` never increases usage, and a
/// small `q0` keeps utility within a few percent of `q0 = 0`.
pub fn fig8_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    for w in points.windows(2) {
        let lo = w[0].outcomes[0].total_usage;
        let hi = w[1].outcomes[0].total_usage;
        if hi > lo * 1.05 + 1.0 {
            return Err(format!(
                "usage should fall with q0: {lo:.0} @ q0={} vs {hi:.0} @ q0={}",
                w[0].x, w[1].x
            ));
        }
    }
    let at0 = points
        .iter()
        .find(|p| p.x == 0.0)
        .ok_or("missing q0=0 point")?;
    let at10 = points
        .iter()
        .find(|p| p.x == 10.0)
        .ok_or("missing q0=10 point")?;
    let drop = (at0.outcomes[0].avg_utility - at10.outcomes[0].avg_utility).abs();
    let magnitude = at0.outcomes[0].avg_utility.abs().max(1e-9);
    if drop / magnitude > 0.15 {
        return Err(format!(
            "small q0 should keep utility nearly stable (relative change {:.3})",
            drop / magnitude
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Ablations (crates/bench/README.md says why each exists)
// ---------------------------------------------------------------------------

/// Route-selection ablation: OSCAR with different selectors.
pub fn ablation_route_selection(scale: Scale) -> Vec<SweepPoint> {
    let selectors: Vec<(&str, RouteSelector)> = vec![
        ("gibbs", RouteSelector::Gibbs(GibbsConfig::paper_default())),
        (
            "greedy-local",
            RouteSelector::GreedyLocal {
                max_rounds: 4,
                evaluator: EvalOptions::default(),
            },
        ),
        ("first-route", RouteSelector::First),
        ("random", RouteSelector::Random),
    ];
    selectors
        .into_iter()
        .enumerate()
        .map(|(i, (_, selector))| {
            let mut cfg = oscar_config(scale);
            cfg.selector = selector;
            let policies = vec![PolicySpec::Oscar(cfg)];
            let mut point = run_sweep_point(
                "ablation_route_selection",
                scale,
                i as f64,
                base_experiment("ablation_route_selection", scale, policies),
            );
            point.outcomes[0].policy = ABLATION_SELECTOR_LABELS[i].to_string();
            point
        })
        .collect()
}

/// Labels of [`ablation_route_selection`] rows, in order.
pub const ABLATION_SELECTOR_LABELS: [&str; 4] = ["gibbs", "greedy-local", "first-route", "random"];

/// Gibbs temperature ablation: OSCAR with different γ (Eq. 15).
pub fn ablation_gamma(scale: Scale) -> Vec<SweepPoint> {
    ABLATION_GAMMAS
        .iter()
        .map(|&gamma| {
            let mut cfg = oscar_config(scale);
            cfg.selector = RouteSelector::Gibbs(GibbsConfig {
                gamma,
                ..GibbsConfig::paper_default()
            });
            let policies = vec![PolicySpec::Oscar(cfg)];
            run_sweep_point(
                "ablation_gamma",
                scale,
                gamma,
                base_experiment("ablation_gamma", scale, policies),
            )
        })
        .collect()
}

/// γ values swept by [`ablation_gamma`].
pub const ABLATION_GAMMAS: [f64; 5] = [10.0, 100.0, 500.0, 2000.0, 10000.0];

/// Allocation-method ablation: Algorithm 2 vs greedy vs minimal.
pub fn ablation_allocation(scale: Scale) -> Vec<SweepPoint> {
    let methods = [
        AllocationMethod::relax_and_round(),
        AllocationMethod::Greedy,
        AllocationMethod::Minimal,
    ];
    methods
        .iter()
        .enumerate()
        .map(|(i, method)| {
            let mut cfg = oscar_config(scale);
            cfg.allocation = *method;
            let policies = vec![PolicySpec::Oscar(cfg)];
            let mut point = run_sweep_point(
                "ablation_allocation",
                scale,
                i as f64,
                base_experiment("ablation_allocation", scale, policies),
            );
            point.outcomes[0].policy = method.label().to_string();
            point
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Extension experiments (beyond the paper's evaluation; crates/bench/README.md
// says why each exists)
// ---------------------------------------------------------------------------

/// Swap success probabilities swept by [`extension_swap`].
pub const EXT_SWAP_SUCCESSES: [f64; 5] = [0.80, 0.90, 0.95, 0.98, 1.00];

/// Imperfect-swapping extension: the paper assumes swap success ≈ 1 but
/// notes (§II-4, §III-C) that a swap failure probability "can also be
/// considered as part of the overall failure probability … incorporating
/// a product term in Equation 2". Our link model folds exactly that term
/// in; this sweep quantifies how the three policies degrade as swapping
/// becomes lossy.
pub fn extension_swap(scale: Scale) -> Vec<SweepPoint> {
    EXT_SWAP_SUCCESSES
        .iter()
        .map(|&q| {
            let mut e = base_experiment("ext_swap", scale, paper_policies(scale));
            e.network = NetworkConfig {
                swap_success: q,
                ..NetworkConfig::paper_default()
            };
            run_sweep_point("ext_swap", scale, q, e)
        })
        .collect()
}

/// Extension-swap qualitative checks: success improves with swap
/// reliability for every policy, and OSCAR dominates at every point.
pub fn extension_swap_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    let first = points.first().ok_or("empty sweep")?;
    let last = points.last().ok_or("empty sweep")?;
    for policy in ["OSCAR", "MF", "MA"] {
        let lossy = first.outcome(policy).unwrap().avg_success;
        let perfect = last.outcome(policy).unwrap().avg_success;
        if perfect + 0.01 < lossy {
            return Err(format!(
                "{policy}: success should rise with swap reliability \
                 ({lossy:.4} @ q={} vs {perfect:.4} @ q={})",
                first.x, last.x
            ));
        }
    }
    for p in points {
        let oscar = p.outcome("OSCAR").unwrap().avg_success;
        let mf = p.outcome("MF").unwrap().avg_success;
        let ma = p.outcome("MA").unwrap().avg_success;
        if oscar + 0.02 < mf.max(ma) {
            return Err(format!(
                "at q={}: OSCAR {oscar:.4} should dominate MF {mf:.4} / MA {ma:.4}",
                p.x
            ));
        }
    }
    Ok(())
}

/// Labels of the [`extension_dynamics`] rows, in sweep order.
pub const EXT_DYNAMICS_LABELS: [&str; 3] = ["static", "uniform", "markov"];

/// Time-varying-resource extension: the paper's model section lets
/// `Q_v^t` and `W_e^t` vary with exogenous occupancy, but its evaluation
/// draws them once. This experiment runs the three policies under the
/// static draw, i.i.d. uniform occupancy (up to 40% of each capacity
/// held by other users per slot), and a bursty Markov on/off occupancy,
/// verifying OSCAR's advantage survives genuine resource dynamics.
pub fn extension_dynamics(scale: Scale) -> Vec<SweepPoint> {
    let models: [DynamicsConfig; 3] = [
        DynamicsConfig::Static,
        DynamicsConfig::Uniform {
            max_occupied_fraction: 0.4,
        },
        DynamicsConfig::Markov {
            p_busy: 0.2,
            p_free: 0.5,
            busy_fraction: 0.5,
        },
    ];
    models
        .into_iter()
        .enumerate()
        .map(|(i, dynamics)| {
            let mut e = base_experiment("ext_dynamics", scale, paper_policies(scale));
            e.dynamics = dynamics;
            run_sweep_point("ext_dynamics", scale, i as f64, e)
        })
        .collect()
}

/// Extension-dynamics qualitative checks: OSCAR dominates the baselines
/// under every occupancy model, and contention does not *raise* success
/// relative to the static environment.
pub fn extension_dynamics_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    if points.len() != EXT_DYNAMICS_LABELS.len() {
        return Err(format!("expected {} points", EXT_DYNAMICS_LABELS.len()));
    }
    for (p, label) in points.iter().zip(EXT_DYNAMICS_LABELS) {
        let oscar = p.outcome("OSCAR").unwrap().avg_success;
        let mf = p.outcome("MF").unwrap().avg_success;
        let ma = p.outcome("MA").unwrap().avg_success;
        if oscar + 0.02 < mf.max(ma) {
            return Err(format!(
                "{label}: OSCAR {oscar:.4} should dominate MF {mf:.4} / MA {ma:.4}"
            ));
        }
    }
    let static_oscar = points[0].outcome("OSCAR").unwrap().avg_success;
    for (p, label) in points.iter().zip(EXT_DYNAMICS_LABELS).skip(1) {
        let contended = p.outcome("OSCAR").unwrap().avg_success;
        if contended > static_oscar + 0.03 {
            return Err(format!(
                "{label}: occupied resources should not beat the static draw \
                 ({contended:.4} vs {static_oscar:.4})"
            ));
        }
    }
    Ok(())
}

/// Per-pair request multiplicities swept by [`extension_multi_ec`].
pub const EXT_MULTI_EC_COUNTS: [usize; 3] = [1, 2, 3];

/// Multi-EC extension (paper §III-C): each SD pair issues up to `k` EC
/// requests per slot, modelled as repeated pairs. With the budget held
/// fixed, heavier request load must spread the same qubits thinner, so
/// success falls with `k` while OSCAR keeps its lead.
pub fn extension_multi_ec(scale: Scale) -> Vec<SweepPoint> {
    EXT_MULTI_EC_COUNTS
        .iter()
        .map(|&k| {
            let mut e = base_experiment("ext_multi_ec", scale, paper_policies(scale));
            e.workload = WorkloadConfig::MultiEc {
                base: Box::new(WorkloadConfig::paper_default()),
                max_requests_per_pair: k,
            };
            run_sweep_point("ext_multi_ec", scale, k as f64, e)
        })
        .collect()
}

/// Extension-multi-EC qualitative checks: success falls as the per-pair
/// request multiplicity grows; OSCAR dominates at every load.
pub fn extension_multi_ec_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    let first = points.first().ok_or("empty sweep")?;
    let last = points.last().ok_or("empty sweep")?;
    for policy in ["OSCAR", "MF", "MA"] {
        let light = first.outcome(policy).unwrap().avg_success;
        let heavy = last.outcome(policy).unwrap().avg_success;
        if heavy > light + 0.02 {
            return Err(format!(
                "{policy}: success should fall with request multiplicity \
                 ({light:.4} @ k={} vs {heavy:.4} @ k={})",
                first.x, last.x
            ));
        }
    }
    for p in points {
        let oscar = p.outcome("OSCAR").unwrap().avg_success;
        let mf = p.outcome("MF").unwrap().avg_success;
        let ma = p.outcome("MA").unwrap().avg_success;
        if oscar + 0.02 < mf.max(ma) {
            return Err(format!(
                "at k={}: OSCAR {oscar:.4} should dominate MF {mf:.4} / MA {ma:.4}",
                p.x
            ));
        }
    }
    Ok(())
}

/// Fidelity targets swept by [`extension_fidelity`]; `0.0` means no
/// constraint.
pub const EXT_FIDELITY_TARGETS: [f64; 4] = [0.0, 0.80, 0.85, 0.90];

/// Elementary per-link Werner fidelity used by the fidelity extension.
pub const EXT_FIDELITY_ELEMENTARY: f64 = 0.95;

/// Fidelity-constraint extension (paper §III-C): "we can easily integrate
/// a constraint into P1, which calculates the fidelity of the chosen
/// route and ensures it \[meets\] the fidelity target in each time slot."
///
/// Elementary links carry Werner fidelity 0.95; fidelities compose
/// multiplicatively in the Werner parameter across swaps, so a target of
/// 0.80 admits routes of ≤ 4 hops, 0.85 ≤ 3 hops, and 0.90 ≤ 2 hops.
/// Tightening the target prunes `R(φ)` — distant pairs lose all their
/// candidates and go unserved — so the average success rate falls for
/// every policy while OSCAR keeps its lead on the pairs that remain
/// servable.
pub fn extension_fidelity(scale: Scale) -> Vec<SweepPoint> {
    EXT_FIDELITY_TARGETS
        .iter()
        .map(|&target| {
            let fidelity_target = (target > 0.0).then_some(target);
            let mut oscar = oscar_config(scale);
            oscar.fidelity_target = fidelity_target;
            let mut mf = myopic_config(scale, BudgetSplit::Fixed);
            mf.fidelity_target = fidelity_target;
            let mut ma = myopic_config(scale, BudgetSplit::Adaptive);
            ma.fidelity_target = fidelity_target;
            let policies = vec![
                PolicySpec::Oscar(oscar),
                PolicySpec::Myopic(mf),
                PolicySpec::Myopic(ma),
            ];
            let mut e = base_experiment("ext_fidelity", scale, policies);
            e.network = NetworkConfig {
                elementary_fidelity: EXT_FIDELITY_ELEMENTARY,
                ..NetworkConfig::paper_default()
            };
            run_sweep_point("ext_fidelity", scale, target, e)
        })
        .collect()
}

/// Extension-fidelity qualitative checks: tightening the target never
/// helps, the strictest target visibly costs success (pairs with only
/// long routes become unservable), and OSCAR dominates wherever routing
/// freedom remains.
pub fn extension_fidelity_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    let first = points.first().ok_or("empty sweep")?;
    let last = points.last().ok_or("empty sweep")?;
    for policy in ["OSCAR", "MF", "MA"] {
        let unconstrained = first.outcome(policy).unwrap().avg_success;
        let strict = last.outcome(policy).unwrap().avg_success;
        if strict > unconstrained + 0.02 {
            return Err(format!(
                "{policy}: success cannot improve under a fidelity constraint \
                 ({unconstrained:.4} unconstrained vs {strict:.4} @ F ≥ {})",
                last.x
            ));
        }
        if unconstrained - strict < 0.05 {
            return Err(format!(
                "{policy}: an F ≥ {} target should visibly prune routes \
                 ({unconstrained:.4} -> {strict:.4})",
                last.x
            ));
        }
    }
    for p in points {
        let oscar = p.outcome("OSCAR").unwrap().avg_success;
        let mf = p.outcome("MF").unwrap().avg_success;
        let ma = p.outcome("MA").unwrap().avg_success;
        if oscar + 0.02 < mf.max(ma) {
            return Err(format!(
                "at F ≥ {}: OSCAR {oscar:.4} should dominate MF {mf:.4} / MA {ma:.4}",
                p.x
            ));
        }
    }
    Ok(())
}

/// Labels of the [`extension_topologies`] rows, in sweep order.
pub const EXT_TOPOLOGY_LABELS: [&str; 4] = ["waxman", "grid", "ring", "star"];

/// Topology-family extension: the related work the paper builds on
/// studied specialized topologies — grid \[15\], ring \[16\], and the star
/// entanglement switch \[17\] — before the field moved to general graphs.
/// This experiment runs the paper's three policies on 16-node instances
/// of each family (16 keeps a ring's worst pair at 8 hops, inside the
/// candidate-route bound `L = 8`) under the paper's capacities and
/// budget.
pub fn extension_topologies(scale: Scale) -> Vec<SweepPoint> {
    let side = 100.0;
    let families = [
        TopologyConfig::paper_default().with_nodes(16),
        TopologyConfig::Grid {
            rows: 4,
            cols: 4,
            side,
        },
        TopologyConfig::Ring { nodes: 16, side },
        TopologyConfig::Star { leaves: 15, side },
    ];
    families
        .into_iter()
        .enumerate()
        .map(|(i, topology)| {
            let mut e = base_experiment("ext_topologies", scale, paper_policies(scale));
            e.network = NetworkConfig {
                topology,
                ..NetworkConfig::paper_default()
            };
            run_sweep_point("ext_topologies", scale, i as f64, e)
        })
        .collect()
}

/// Extension-topology qualitative checks: OSCAR dominates the baselines
/// on every family, and the ring — whose routes are by far the longest —
/// is the hardest topology for every policy.
pub fn extension_topologies_shape_holds(points: &[SweepPoint]) -> Result<(), String> {
    if points.len() != EXT_TOPOLOGY_LABELS.len() {
        return Err(format!("expected {} points", EXT_TOPOLOGY_LABELS.len()));
    }
    for (p, label) in points.iter().zip(EXT_TOPOLOGY_LABELS) {
        let oscar = p.outcome("OSCAR").unwrap().avg_success;
        let mf = p.outcome("MF").unwrap().avg_success;
        let ma = p.outcome("MA").unwrap().avg_success;
        if oscar + 0.02 < mf.max(ma) {
            return Err(format!(
                "{label}: OSCAR {oscar:.4} should dominate MF {mf:.4} / MA {ma:.4}"
            ));
        }
    }
    let ring = points[2].outcome("OSCAR").unwrap().avg_success;
    for (p, label) in points.iter().zip(EXT_TOPOLOGY_LABELS) {
        if label == "ring" {
            continue;
        }
        let other = p.outcome("OSCAR").unwrap().avg_success;
        if ring > other + 0.02 {
            return Err(format!(
                "ring ({ring:.4}) should be the hardest family, but beats {label} ({other:.4})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_scale_with_horizon() {
        let cfg = oscar_config(Scale::Quick);
        assert_eq!(cfg.horizon, 60);
        assert!((cfg.total_budget / 60.0 - 25.0).abs() < 1e-9);
        let m = myopic_config(Scale::Quick, BudgetSplit::Fixed);
        assert_eq!(m.horizon, 60);
    }

    #[test]
    fn paper_policies_are_three() {
        let p = paper_policies(Scale::Quick);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].name(), "OSCAR");
        assert_eq!(p[1].name(), "MF");
        assert_eq!(p[2].name(), "MA");
    }

    #[test]
    fn sweep_constants_sorted() {
        assert!(FIG5_BUDGETS.windows(2).all(|w| w[0] < w[1]));
        assert!(FIG6_SIZES.windows(2).all(|w| w[0] < w[1]));
        assert!(FIG7_VS.windows(2).all(|w| w[0] < w[1]));
        assert!(FIG8_Q0S.windows(2).all(|w| w[0] < w[1]));
        assert!(EXT_SWAP_SUCCESSES.windows(2).all(|w| w[0] < w[1]));
        assert!(EXT_MULTI_EC_COUNTS.windows(2).all(|w| w[0] < w[1]));
        assert!(EXT_SWAP_SUCCESSES.iter().all(|&q| (0.0..=1.0).contains(&q)));
        assert!(EXT_FIDELITY_TARGETS.windows(2).all(|w| w[0] < w[1]));
        assert!(EXT_FIDELITY_TARGETS
            .iter()
            .all(|&f| f == 0.0 || (0.25..=1.0).contains(&f)));
        assert!((0.25..=1.0).contains(&EXT_FIDELITY_ELEMENTARY));
    }
}
