//! Table and CSV renderers for the `run_all` reproduction report.

use qdn_sim::output::{fmt_f, to_csv, to_table};

use crate::des::{BudgetViolationRow, DesValidationRow, MemorySweepRow, OnlineRateRow};
use crate::figures::{DistributionRow, Fig3, Fig4, SweepOutcome, SweepPoint};
use crate::theory::TheoryBounds;

/// Renders the Fig. 3 series as CSV (`t, <policy>_utility,
/// <policy>_success, <policy>_usage, …`).
pub fn fig3_csv(fig: &Fig3) -> String {
    let horizon = fig.series.first().map_or(0, |s| s.avg_utility.len());
    let mut header: Vec<String> = vec!["t".into()];
    for s in &fig.series {
        header.push(format!("{}_avg_utility", s.policy));
        header.push(format!("{}_avg_success", s.policy));
        header.push(format!("{}_cum_usage", s.policy));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = (0..horizon)
        .map(|t| {
            let mut row = vec![t.to_string()];
            for s in &fig.series {
                row.push(fmt_f(s.avg_utility[t]));
                row.push(fmt_f(s.avg_success[t]));
                row.push(fmt_f(s.cumulative_cost[t]));
            }
            row
        })
        .collect();
    to_csv(&header_refs, &rows)
}

/// Renders the Fig. 3 endpoint summary as an aligned table.
pub fn fig3_summary(fig: &Fig3) -> String {
    let last = |v: &[f64]| v.last().copied().unwrap_or(0.0);
    table(
        "policy final_avg_utility final_avg_success total_usage budget",
        &fig.series,
        |s| {
            let values = [
                last(&s.avg_utility),
                last(&s.avg_success),
                last(&s.cumulative_cost),
                fig.budget,
            ];
            labelled(&s.policy, &values)
        },
    )
}

/// Renders the Fig. 4 histogram as CSV (`bin_center, <policy>_fraction…`).
pub fn fig4_csv(fig: &Fig4) -> String {
    let mut header: Vec<String> = vec!["bin_center".into()];
    for r in &fig.rows {
        header.push(format!("{}_fraction", r.policy));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = fig
        .bin_centers
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let mut row = vec![fmt_f(c)];
            for r in &fig.rows {
                row.push(fmt_f(r.fractions[i]));
            }
            row
        })
        .collect();
    to_csv(&header_refs, &rows)
}

/// Renders the Fig. 4 fairness summary as an aligned table.
pub fn fig4_summary(rows: &[DistributionRow]) -> String {
    table("policy mean_success jain_fairness", rows, |r| {
        labelled(&r.policy, &[r.mean, r.jain])
    })
}

/// Renders a sweep (Figs. 5–8, ablations) as CSV with one row per sweep
/// point and `success/utility/usage` columns per policy.
pub fn sweep_csv(x_name: &str, points: &[SweepPoint]) -> String {
    let mut header: Vec<String> = vec![x_name.into()];
    if let Some(first) = points.first() {
        for o in &first.outcomes {
            header.push(format!("{}_success", o.policy));
            header.push(format!("{}_utility", o.policy));
            header.push(format!("{}_usage", o.policy));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![fmt_f(p.x)];
            for o in &p.outcomes {
                row.push(fmt_f(o.avg_success));
                row.push(fmt_f(o.avg_utility));
                row.push(fmt_f(o.total_usage));
            }
            row
        })
        .collect();
    to_csv(&header_refs, &rows)
}

/// Renders a sweep as an aligned table (one row per point × policy).
pub fn sweep_table(x_name: &str, points: &[SweepPoint]) -> String {
    let rows: Vec<(f64, &SweepOutcome)> = points
        .iter()
        .flat_map(|p| p.outcomes.iter().map(move |o| (p.x, o)))
        .collect();
    let header = format!("{x_name} policy avg_success avg_utility total_usage");
    table(&header, &rows, |&(x, o)| {
        let mut row = vec![fmt_f(x)];
        row.extend(labelled(
            &o.policy,
            &[o.avg_success, o.avg_utility, o.total_usage],
        ));
        row
    })
}

/// Renders `rows` as an aligned table under the space-separated `header`.
fn table<T>(header: &str, rows: &[T], cells: impl Fn(&T) -> Vec<String>) -> String {
    let header: Vec<&str> = header.split_whitespace().collect();
    let body: Vec<Vec<String>> = rows.iter().map(cells).collect();
    to_table(&header, &body)
}

/// One table row: `label`, then each value through [`fmt_f`].
fn labelled(label: impl ToString, values: &[f64]) -> Vec<String> {
    std::iter::once(label.to_string())
        .chain(values.iter().map(|&v| fmt_f(v)))
        .collect()
}

/// Renders the attempt-level validation: analytic against realized
/// success, delivery latency percentiles and attempts per delivered EC.
pub fn des_validation_table(rows: &[DesValidationRow]) -> String {
    table(
        "policy analytic realized gap p50_lat_s p99_lat_s attempts/EC",
        rows,
        |r| {
            let values = [
                r.analytic,
                r.realized,
                r.gap,
                r.p50_latency,
                r.p99_latency,
                r.attempts_per_delivery,
            ];
            labelled(&r.policy, &values)
        },
    )
}

/// Renders the online-arrival load sweep, paced spend next to what the
/// same arrivals cost unpaced.
pub fn online_rate_table(rows: &[OnlineRateRow]) -> String {
    table(
        "rate_per_s requests success spend unpaced_spend thruput_per_s mean_lat_s",
        rows,
        |r| {
            vec![
                fmt_f(r.rate),
                r.requests.to_string(),
                fmt_f(r.success),
                r.spend.to_string(),
                r.unpaced_spend.to_string(),
                fmt_f(r.throughput),
                fmt_f(r.mean_latency),
            ]
        },
    )
}

/// Renders the memory (decoherence) sweep: how far Eq. 2 over-promises
/// once memory is shorter than the attempt window.
pub fn memory_sweep_table(rows: &[MemorySweepRow]) -> String {
    table(
        "memory_s analytic realized over_promise decohered_frac",
        rows,
        |r| {
            let over_promise = r.analytic - r.realized;
            let values = [r.analytic, r.realized, over_promise, r.decohered_frac];
            labelled(fmt_f(r.memory_secs), &values)
        },
    )
}

/// Renders the budget-violation comparison.
pub fn budget_violation_table(rows: &[BudgetViolationRow]) -> String {
    table("policy spend spend/C avg_success", rows, |r| {
        labelled(&r.policy, &[r.spend, r.spend_over_budget, r.success])
    })
}

/// Renders the Theorem 1–2 check: one row per seed plus a `mean` row
/// holding the means and the bounds they are checked against.
pub fn theory_table(t: &TheoryBounds) -> String {
    let mut body: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            let values = [
                r.violation,
                r.bound1,
                r.gap,
                r.bound2,
                r.delta,
                r.p_min,
                r.allowance,
            ];
            labelled(r.seed, &values)
        })
        .collect();
    let mut mean = labelled("mean", &[t.mean_violation, t.bound1, t.mean_gap, t.bound2]);
    mean.resize(8, "-".into());
    body.push(mean);
    table(
        "seed violation/slot thm1_bound oracle_gap thm2_gap delta p_min C/T",
        &body,
        Vec::clone,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::PolicySeries;

    fn fig3_fixture() -> Fig3 {
        Fig3 {
            budget: 100.0,
            series: vec![PolicySeries {
                policy: "OSCAR".into(),
                avg_utility: vec![-1.0, -0.5],
                avg_success: vec![0.8, 0.85],
                cumulative_cost: vec![10.0, 20.0],
            }],
        }
    }

    #[test]
    fn fig3_csv_layout() {
        let csv = fig3_csv(&fig3_fixture());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "t,OSCAR_avg_utility,OSCAR_avg_success,OSCAR_cum_usage"
        );
        assert!(lines[1].starts_with("0,-1.0000,0.8000,10.0000"));
    }

    #[test]
    fn fig3_summary_contains_policy() {
        let s = fig3_summary(&fig3_fixture());
        assert!(s.contains("OSCAR"));
        assert!(s.contains("100.0000"));
    }

    #[test]
    fn sweep_csv_layout() {
        let points = vec![SweepPoint {
            x: 3000.0,
            outcomes: vec![SweepOutcome {
                policy: "OSCAR".into(),
                avg_success: 0.8,
                avg_utility: -1.0,
                total_usage: 2900.0,
            }],
        }];
        let csv = sweep_csv("budget", &points);
        assert!(csv.starts_with("budget,OSCAR_success,OSCAR_utility,OSCAR_usage\n"));
        assert!(csv.contains("3000.0000,0.8000,-1.0000,2900.0000"));
        let table = sweep_table("budget", &points);
        assert!(table.contains("OSCAR"));
    }
}
