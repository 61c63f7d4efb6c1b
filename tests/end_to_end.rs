//! Cross-crate integration tests: full OSCAR/baseline runs through the
//! simulator with budget and dominance assertions.
//!
//! These run in debug mode under `cargo test`, so horizons are kept small;
//! the full paper-scale reproduction lives in `qdn_bench` (release).

use qdn::core::baselines::{BudgetSplit, MyopicConfig};
use qdn::core::oscar::OscarConfig;
use qdn::sim::engine::SimConfig;
use qdn::sim::experiment::{Experiment, PolicySpec};
use qdn::sim::trial::TrialConfig;

const HORIZON: u64 = 40;
const BUDGET: f64 = 1000.0; // keeps C/T = 25 at the short horizon

fn small_experiment() -> Experiment {
    let mut e = Experiment::paper_default("integration");
    e.trials = TrialConfig {
        trials: 2,
        base_seed: 314,
        threads: 0,
        sim: SimConfig {
            horizon: HORIZON,
            realize_outcomes: true,
        },
    };
    e.policies = vec![
        PolicySpec::Oscar(OscarConfig {
            total_budget: BUDGET,
            horizon: HORIZON,
            ..OscarConfig::paper_default()
        }),
        PolicySpec::Myopic(MyopicConfig {
            total_budget: BUDGET,
            horizon: HORIZON,
            ..MyopicConfig::paper_default(BudgetSplit::Fixed)
        }),
        PolicySpec::Myopic(MyopicConfig {
            total_budget: BUDGET,
            horizon: HORIZON,
            ..MyopicConfig::paper_default(BudgetSplit::Adaptive)
        }),
    ];
    e
}

#[test]
fn oscar_dominates_baselines_on_paired_environments() {
    let results = small_experiment().run();
    let oscar = results.policy("OSCAR").unwrap();
    let mf = results.policy("MF").unwrap();
    let ma = results.policy("MA").unwrap();

    let s_oscar = oscar.mean_of(|r| r.avg_success());
    let s_mf = mf.mean_of(|r| r.avg_success());
    let s_ma = ma.mean_of(|r| r.avg_success());
    assert!(
        s_oscar > s_mf - 1e-9,
        "OSCAR success {s_oscar:.4} should be >= MF {s_mf:.4}"
    );
    assert!(
        s_oscar > s_ma - 1e-9,
        "OSCAR success {s_oscar:.4} should be >= MA {s_ma:.4}"
    );

    let u_oscar = oscar.mean_of(|r| r.avg_utility());
    let u_mf = mf.mean_of(|r| r.avg_utility());
    assert!(
        u_oscar > u_mf,
        "OSCAR utility {u_oscar:.4} should exceed MF {u_mf:.4}"
    );
}

#[test]
fn myopic_policies_never_exceed_budget() {
    let results = small_experiment().run();
    for name in ["MF", "MA"] {
        let runs = results.policy(name).unwrap();
        for (i, r) in runs.trials.iter().enumerate() {
            assert!(
                r.total_cost() as f64 <= BUDGET + 1e-9,
                "{name} trial {i} spent {} > {BUDGET}",
                r.total_cost()
            );
        }
    }
}

#[test]
fn oscar_overshoot_is_bounded() {
    // OSCAR may exceed C for finite T (Theorem 1), but not wildly: at the
    // paper-like operating point the overshoot stays within ~30% here.
    let results = small_experiment().run();
    let oscar = results.policy("OSCAR").unwrap();
    for (i, r) in oscar.trials.iter().enumerate() {
        let usage = r.total_cost() as f64;
        assert!(
            usage <= BUDGET * 1.3,
            "trial {i}: OSCAR usage {usage} too far above budget {BUDGET}"
        );
        assert!(
            usage >= BUDGET * 0.5,
            "trial {i}: OSCAR usage {usage} suspiciously low vs budget {BUDGET}"
        );
    }
}

#[test]
fn mf_leaves_budget_unused() {
    // MF wastes allowance in light slots: strictly below the budget.
    let results = small_experiment().run();
    let mf = results.policy("MF").unwrap();
    let usage = mf.mean_of(|r| r.total_cost() as f64);
    assert!(
        usage < BUDGET,
        "MF mean usage {usage} should under-spend {BUDGET}"
    );
}

#[test]
fn every_served_request_has_positive_success() {
    let results = small_experiment().run();
    for runs in &results.runs {
        for r in &runs.trials {
            for slot in r.slots() {
                let positive = slot.success_probs.iter().filter(|&&p| p > 0.0).count();
                assert_eq!(
                    positive, slot.served,
                    "served pairs must have positive success probability"
                );
            }
        }
    }
}

#[test]
fn experiment_config_round_trips_through_json() {
    let e = small_experiment();
    let json = serde_json::to_string_pretty(&e).expect("serialize");
    let back: Experiment = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(e, back);

    // And a round-tripped experiment reproduces identical results.
    let r1 = e.run();
    let r2 = back.run();
    assert_eq!(r1, r2);
}
