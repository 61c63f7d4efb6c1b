//! Event-driven experiment builders: attempt-level model validation,
//! the memory (decoherence) sweep, the online-arrival rate sweep, and
//! the budget-violation comparison.
//!
//! These extend the paper's evaluation with the questions its slotted
//! abstraction leaves open: *do the analytic success rates survive
//! attempt-level physics* (they must — Eq. 1/2 are exact for the modeled
//! process), *what latency does routing buy*, and *what happens to the
//! budget when requests arrive continuously or the policy ignores cost*.

use std::time::Duration;

use qdn_core::baselines::{MyopicPolicy, ThroughputGreedyPolicy};
use qdn_core::oscar::{OscarConfig, OscarPolicy};
use qdn_core::policy::RoutingPolicy;
use qdn_des::arrivals::PoissonArrivals;
use qdn_des::exec::ExecutionConfig;
use qdn_des::online::{run_online, OnlineConfig, OnlineRouter};
use qdn_des::slotted::{run_slotted, SlottedDesConfig};
use qdn_net::dynamics::StaticDynamics;
use qdn_net::workload::UniformWorkload;
use qdn_net::NetworkConfig;
use rand::SeedableRng;

use crate::Scale;

/// One row of the attempt-level validation table.
#[derive(Debug, Clone, PartialEq)]
pub struct DesValidationRow {
    /// Policy name.
    pub policy: String,
    /// Mean analytic success probability (Eq. 2) of its decisions.
    pub analytic: f64,
    /// Realized delivery frequency in the DES.
    pub realized: f64,
    /// `|realized − analytic|`.
    pub gap: f64,
    /// Median delivery latency (s).
    pub p50_latency: f64,
    /// 99th-percentile delivery latency (s).
    pub p99_latency: f64,
    /// Entanglement attempts burned per delivered connection.
    pub attempts_per_delivery: f64,
}

/// Attempt-level validation: realize OSCAR/MF/MA decisions in the DES
/// and compare analytic vs realized success, averaged over the scale's
/// trials.
pub fn des_validation(scale: Scale) -> Vec<DesValidationRow> {
    let policies: Vec<Box<dyn Fn() -> Box<dyn RoutingPolicy>>> = vec![
        Box::new(|| Box::new(OscarPolicy::new(OscarConfig::paper_default()))),
        Box::new(|| Box::new(MyopicPolicy::fixed())),
        Box::new(|| Box::new(MyopicPolicy::adaptive())),
    ];
    let trials = scale.trials();
    let config = SlottedDesConfig {
        horizon: scale.horizon(),
        ..SlottedDesConfig::paper_default()
    };
    policies
        .iter()
        .map(|make| {
            let mut analytic = 0.0;
            let mut realized = 0.0;
            let mut p50 = 0.0;
            let mut p99 = 0.0;
            let mut attempts = 0u64;
            let mut delivered = 0usize;
            let mut name = String::new();
            for trial in 0..trials {
                let seed = 0x0DD5_EED5u64 + trial as u64;
                let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut policy_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xfeed);
                let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
                let mut wl = UniformWorkload::paper_default();
                let mut dynamics = StaticDynamics;
                let mut policy = make();
                let m = run_slotted(
                    &net,
                    &mut wl,
                    &mut dynamics,
                    policy.as_mut(),
                    &config,
                    &mut env_rng,
                    &mut policy_rng,
                );
                name = m.policy().to_string();
                analytic += m.expected_success_rate();
                realized += m.realized_success_rate();
                if let Some(l) = m.latency_summary() {
                    p50 += l.p50_secs;
                    p99 += l.p99_secs;
                }
                attempts += m.total_attempts();
                delivered += m.total_delivered();
            }
            let t = trials as f64;
            DesValidationRow {
                policy: name,
                analytic: analytic / t,
                realized: realized / t,
                gap: (realized / t - analytic / t).abs(),
                p50_latency: p50 / t,
                p99_latency: p99 / t,
                attempts_per_delivery: attempts as f64 / delivered.max(1) as f64,
            }
        })
        .collect()
}

/// Shape check for [`des_validation`]: every policy's realized rate must
/// track its analytic rate, and OSCAR must keep its lead when decisions
/// are realized physically.
pub fn des_validation_shape_holds(rows: &[DesValidationRow]) -> Result<(), String> {
    let tolerance = 0.05; // MC noise over trials × horizon × ~3 req/slot
    for r in rows {
        if r.gap > tolerance {
            return Err(format!(
                "{}: realized {:.4} strays from analytic {:.4} (gap {:.4} > {tolerance})",
                r.policy, r.realized, r.analytic, r.gap
            ));
        }
        if !(0.0..=0.66 + 1e-9).contains(&r.p99_latency) {
            return Err(format!(
                "{}: p99 latency {:.4}s outside the attempt window",
                r.policy, r.p99_latency
            ));
        }
    }
    let oscar = rows
        .iter()
        .find(|r| r.policy == "OSCAR")
        .ok_or("missing OSCAR row")?;
    for r in rows.iter().filter(|r| r.policy != "OSCAR") {
        if oscar.realized <= r.realized {
            return Err(format!(
                "OSCAR realized {:.4} must beat {} at {:.4}",
                oscar.realized, r.policy, r.realized
            ));
        }
    }
    Ok(())
}

/// One row of the online-arrival rate sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineRateRow {
    /// Poisson arrival rate (requests/s).
    pub rate: f64,
    /// Requests that arrived.
    pub requests: usize,
    /// Realized end-to-end success rate over all arrivals.
    pub success: f64,
    /// Total budget units spent.
    pub spend: u64,
    /// What the same arrivals cost with pacing disabled (the
    /// budget-oblivious online ablation).
    pub unpaced_spend: u64,
    /// Delivered connections per second.
    pub throughput: f64,
    /// Mean delivery latency (s), 0 when nothing delivered.
    pub mean_latency: f64,
}

/// The online-arrival sweep: paper-parameterized online router under
/// increasing load. The budget span shrinks with the scale's horizon so
/// `C/T` pacing matches the slotted experiments.
pub fn online_rate_sweep(scale: Scale) -> Vec<OnlineRateRow> {
    let rates = [1.0, PoissonArrivals::paper_rate(), 4.0, 8.0];
    let span = Duration::from_secs_f64(scale.horizon() as f64 * 1.46);
    let trials = scale.trials();
    rates
        .iter()
        .map(|&rate| {
            let mut success = 0.0;
            let mut spend = 0u64;
            let mut unpaced_spend = 0u64;
            let mut throughput = 0.0;
            let mut latency = 0.0;
            let mut requests = 0usize;
            for trial in 0..trials {
                let seed = 0xACE_0FBA5Eu64 + trial as u64;
                let mut config = OnlineConfig::paper_default();
                config.total_budget = scale.scaled_budget(5000.0);
                config.budget_span = span;
                let run_mode = |config: OnlineConfig| {
                    let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut policy_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xbead);
                    let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
                    let mut router = OnlineRouter::new(config);
                    let mut arrivals = PoissonArrivals::new(rate, span).unwrap();
                    run_online(
                        &net,
                        &mut router,
                        &mut arrivals,
                        &mut env_rng,
                        &mut policy_rng,
                    )
                };
                let m = run_mode(config.clone());
                requests += m.total_requests();
                success += m.realized_success_rate();
                spend += m.total_cost();
                throughput += m.throughput_per_sec();
                latency += m.latency_summary().map_or(0.0, |l| l.mean_secs);
                // Same seeds, pacing disabled: the ablation's spend on an
                // identical arrival path.
                unpaced_spend += run_mode(config.unpaced()).total_cost();
            }
            let t = trials as f64;
            OnlineRateRow {
                rate,
                requests,
                success: success / t,
                spend: (spend as f64 / t) as u64,
                unpaced_spend: (unpaced_spend as f64 / t) as u64,
                throughput: throughput / t,
                mean_latency: latency / t,
            }
        })
        .collect()
}

/// Shape check for [`online_rate_sweep`]: success falls with load, spend
/// stays paced (sub-linear in load), throughput does not decrease.
pub fn online_rate_shape_holds(rows: &[OnlineRateRow], budget: f64) -> Result<(), String> {
    for w in rows.windows(2) {
        if w[1].success > w[0].success + 0.02 {
            return Err(format!(
                "success should fall with load: {:.4} @ {:.2}/s -> {:.4} @ {:.2}/s",
                w[0].success, w[0].rate, w[1].success, w[1].rate
            ));
        }
        if w[1].throughput < w[0].throughput * 0.8 {
            return Err(format!(
                "throughput should not collapse with load: {:.3} -> {:.3}",
                w[0].throughput, w[1].throughput
            ));
        }
    }
    // Budget pacing: even at 4x overload the spend stays within ~2x C
    // (the queue is a soft cap; the mandatory n_e ≥ 1 floor is real load).
    if let Some(last) = rows.last() {
        if (last.spend as f64) > 2.0 * budget {
            return Err(format!(
                "online spend {} at {:.1}/s strays beyond 2x budget {budget}",
                last.spend, last.rate
            ));
        }
        // And the unpaced ablation must demonstrate what the queue buys:
        // several times the paced spend under overload.
        if (last.unpaced_spend as f64) < 1.5 * last.spend as f64 {
            return Err(format!(
                "unpaced spend {} should dwarf paced spend {} under overload",
                last.unpaced_spend, last.spend
            ));
        }
    }
    Ok(())
}

/// One row of the decoherence (memory) sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySweepRow {
    /// Quantum-memory lifetime in seconds.
    pub memory_secs: f64,
    /// Mean analytic success (Eq. 2 — memory-oblivious).
    pub analytic: f64,
    /// Realized delivery frequency in the DES.
    pub realized: f64,
    /// Fraction of served requests lost to decoherence.
    pub decohered_frac: f64,
}

/// Sweeps the quantum-memory lifetime below the paper's 1.46 s while
/// keeping the 0.66 s attempt window, quantifying where the per-slot
/// abstraction (Eq. 2) stops being exact: once memory < window, links
/// established early can decohere before the route's last link arrives,
/// so realized success falls *below* the analytic model, and the gap is
/// exactly the decoherence-failure mass the DES attributes.
pub fn des_memory_sweep(scale: Scale) -> Vec<MemorySweepRow> {
    let memories = [0.3f64, 0.5, 0.66, 1.0, 1.46];
    let trials = scale.trials();
    memories
        .iter()
        .map(|&mem| {
            let execution =
                ExecutionConfig::paper_default().with_decoherence(Duration::from_secs_f64(mem));
            let config = SlottedDesConfig {
                horizon: scale.horizon(),
                execution,
                // Slots stay 1.46 s apart regardless of memory.
                slot_len: Duration::from_secs_f64(1.46),
            };
            let mut analytic = 0.0;
            let mut realized = 0.0;
            let mut decohered = 0usize;
            let mut served = 0usize;
            for trial in 0..trials {
                let seed = 0xDEC0_4E5Eu64 + trial as u64;
                let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut policy_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1234);
                let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
                let mut wl = UniformWorkload::paper_default();
                let mut dynamics = StaticDynamics;
                let mut policy = OscarPolicy::new(OscarConfig::paper_default());
                let m = run_slotted(
                    &net,
                    &mut wl,
                    &mut dynamics,
                    &mut policy,
                    &config,
                    &mut env_rng,
                    &mut policy_rng,
                );
                analytic += m.expected_success_rate();
                realized += m.realized_success_rate();
                let (_, deco, _) = m.failure_histogram();
                decohered += deco;
                served += m.slots().iter().map(|s| s.served).sum::<usize>();
            }
            let t = trials as f64;
            MemorySweepRow {
                memory_secs: mem,
                analytic: analytic / t,
                realized: realized / t,
                decohered_frac: decohered as f64 / served.max(1) as f64,
            }
        })
        .collect()
}

/// Shape check for [`des_memory_sweep`]: realized success is monotone
/// non-decreasing in memory; with memory ≥ the attempt window the
/// analytic model is exact (no decoherence, gap ≈ MC noise); with
/// memory well below the window the model visibly over-promises.
pub fn des_memory_shape_holds(rows: &[MemorySweepRow]) -> Result<(), String> {
    for w in rows.windows(2) {
        if w[1].realized + 0.02 < w[0].realized {
            return Err(format!(
                "realized success should not fall as memory grows: \
                 {:.4} @ {}s -> {:.4} @ {}s",
                w[0].realized, w[0].memory_secs, w[1].realized, w[1].memory_secs
            ));
        }
        if w[1].decohered_frac > w[0].decohered_frac + 0.01 {
            return Err(format!(
                "decoherence losses should shrink with memory: \
                 {:.4} @ {}s -> {:.4} @ {}s",
                w[0].decohered_frac, w[0].memory_secs, w[1].decohered_frac, w[1].memory_secs
            ));
        }
    }
    let shortest = rows.first().ok_or("empty sweep")?;
    if shortest.analytic - shortest.realized < 0.05 {
        return Err(format!(
            "at {}s memory the analytic model should visibly over-promise \
             (analytic {:.4}, realized {:.4})",
            shortest.memory_secs, shortest.analytic, shortest.realized
        ));
    }
    if shortest.decohered_frac < 0.02 {
        return Err(format!(
            "at {}s memory decoherence should be a visible failure mode, got {:.4}",
            shortest.memory_secs, shortest.decohered_frac
        ));
    }
    let longest = rows.last().ok_or("empty sweep")?;
    if (longest.analytic - longest.realized).abs() > 0.05 {
        return Err(format!(
            "at {}s memory (the paper's regime) Eq. 2 must be exact: \
             analytic {:.4}, realized {:.4}",
            longest.memory_secs, longest.analytic, longest.realized
        ));
    }
    if longest.decohered_frac > 0.0 {
        return Err("paper-regime memory cannot decohere within the window".into());
    }
    Ok(())
}

/// One row of the budget-violation comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetViolationRow {
    /// Policy name.
    pub policy: String,
    /// Average total spend across trials.
    pub spend: f64,
    /// Spend as a fraction of the budget `C`.
    pub spend_over_budget: f64,
    /// Average success rate (analytic, slotted engine).
    pub success: f64,
}

/// Budget-violation comparison: OSCAR and MA (budget-aware) against the
/// throughput-greedy strawman that ignores cost entirely.
pub fn budget_violation(scale: Scale) -> Vec<BudgetViolationRow> {
    let budget = scale.scaled_budget(5000.0);
    let horizon = scale.horizon();
    let policies: Vec<Box<dyn Fn() -> Box<dyn RoutingPolicy>>> = vec![
        Box::new(move || {
            let mut cfg = OscarConfig::paper_default().with_budget(budget);
            cfg.horizon = horizon;
            Box::new(OscarPolicy::new(cfg))
        }),
        Box::new(move || {
            let mut cfg = qdn_core::baselines::MyopicConfig::paper_default(
                qdn_core::baselines::BudgetSplit::Adaptive,
            )
            .with_budget(budget);
            cfg.horizon = horizon;
            Box::new(MyopicPolicy::new(cfg))
        }),
        Box::new(|| Box::new(ThroughputGreedyPolicy::default())),
    ];
    let trials = scale.trials();
    policies
        .iter()
        .map(|make| {
            let mut spend = 0.0;
            let mut success = 0.0;
            let mut name = String::new();
            for trial in 0..trials {
                let seed = 0xB0_D6E7u64 + trial as u64;
                let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut policy_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xcafe);
                let net = NetworkConfig::paper_default().build(&mut env_rng).unwrap();
                let mut wl = UniformWorkload::paper_default();
                let mut dynamics = StaticDynamics;
                let mut policy = make();
                let m = qdn_sim::engine::run(
                    &net,
                    &mut wl,
                    &mut dynamics,
                    policy.as_mut(),
                    &qdn_sim::engine::SimConfig {
                        horizon,
                        realize_outcomes: false,
                    },
                    &mut env_rng,
                    &mut policy_rng,
                );
                name = m.policy().to_string();
                spend += m.total_cost() as f64;
                success += m.avg_success();
            }
            let t = trials as f64;
            BudgetViolationRow {
                policy: name,
                spend: spend / t,
                spend_over_budget: spend / t / budget,
                success: success / t,
            }
        })
        .collect()
}

/// Shape check for [`budget_violation`]: the budget-aware policies land
/// near `C`; the throughput strawman overshoots it severely.
pub fn budget_violation_shape_holds(rows: &[BudgetViolationRow]) -> Result<(), String> {
    for r in rows {
        match r.policy.as_str() {
            "OSCAR" => {
                if !(0.5..=1.15).contains(&r.spend_over_budget) {
                    return Err(format!(
                        "OSCAR spend/budget {:.3} outside [0.5, 1.15]",
                        r.spend_over_budget
                    ));
                }
            }
            "MA" => {
                if r.spend_over_budget > 1.0 + 1e-9 {
                    return Err(format!(
                        "MA must respect its hard per-slot caps, got {:.3}",
                        r.spend_over_budget
                    ));
                }
            }
            "Throughput-Greedy" => {
                if r.spend_over_budget < 1.5 {
                    return Err(format!(
                        "Throughput-Greedy should blow the budget, got only {:.3}x",
                        r.spend_over_budget
                    ));
                }
            }
            other => return Err(format!("unexpected policy {other}")),
        }
    }
    // And the strawman's extra spend must buy it the top success rate —
    // otherwise the comparison is vacuous.
    let tg = rows
        .iter()
        .find(|r| r.policy == "Throughput-Greedy")
        .ok_or("missing Throughput-Greedy row")?;
    for r in rows.iter().filter(|r| r.policy != "Throughput-Greedy") {
        if tg.success < r.success - 0.02 {
            return Err(format!(
                "Throughput-Greedy success {:.4} should be at least {}'s {:.4}",
                tg.success, r.policy, r.success
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The builders are run and shape-checked at both scales by `run_all`;
    // here each runs once at Quick scale and must pass its check.

    #[test]
    fn validation_rows_cover_all_policies() {
        let rows = des_validation(Scale::Quick);
        let names: Vec<&str> = rows.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(names, vec!["OSCAR", "MF", "MA"]);
        assert!(des_validation_shape_holds(&rows).is_ok());
    }

    #[test]
    fn memory_sweep_rows_and_shape() {
        let rows = des_memory_sweep(Scale::Quick);
        let memories: Vec<f64> = rows.iter().map(|r| r.memory_secs).collect();
        assert_eq!(memories, vec![0.3, 0.5, 0.66, 1.0, 1.46]);
        assert!(des_memory_shape_holds(&rows).is_ok(), "shape: {rows:?}");
    }

    #[test]
    fn budget_violation_rows_and_shape() {
        let rows = budget_violation(Scale::Quick);
        assert_eq!(rows.len(), 3);
        assert!(
            budget_violation_shape_holds(&rows).is_ok(),
            "shape: {rows:?}"
        );
    }
}
