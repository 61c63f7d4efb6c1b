//! Serializable experiment descriptions.
//!
//! An [`Experiment`] bundles a network configuration, a workload, a
//! dynamics model, and a set of policies, and runs every policy over the
//! *same* seeded trial environments — the paired design the paper's
//! comparisons rely on.

use qdn_core::baselines::{
    MinimalRandomPolicy, MyopicConfig, MyopicPolicy, ThroughputGreedyPolicy,
};
use qdn_core::oscar::{OscarConfig, OscarPolicy};
use qdn_core::policy::RoutingPolicy;
use qdn_core::route_selection::RouteSelector;
use qdn_net::dynamics::DynamicsConfig;
use qdn_net::routes::RouteLimits;
use qdn_net::workload::WorkloadConfig;
use qdn_net::NetworkConfig;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::metrics::RunMetrics;
use crate::trial::{run_trial, TrialConfig, TrialSetup};

/// A policy selection that can be written to a config file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// OSCAR with the given configuration.
    Oscar(OscarConfig),
    /// A myopic baseline (MF or MA per its `split`).
    Myopic(MyopicConfig),
    /// The random-route, minimal-allocation ablation.
    RandomMin {
        /// Candidate route limits.
        route_limits: RouteLimits,
    },
    /// The budget-oblivious throughput maximizer (capacity-saturating
    /// allocation, no spending cap) — the "what if we ignore cost"
    /// strawman.
    ThroughputGreedy {
        /// Candidate route limits.
        route_limits: RouteLimits,
        /// Route-selection strategy.
        selector: RouteSelector,
    },
}

impl PolicySpec {
    /// Instantiates a fresh policy.
    pub fn build(&self) -> Box<dyn RoutingPolicy> {
        match self {
            PolicySpec::Oscar(cfg) => Box::new(OscarPolicy::new(cfg.clone())),
            PolicySpec::Myopic(cfg) => Box::new(MyopicPolicy::new(cfg.clone())),
            PolicySpec::RandomMin { route_limits } => {
                Box::new(MinimalRandomPolicy::new(*route_limits))
            }
            PolicySpec::ThroughputGreedy {
                route_limits,
                selector,
            } => Box::new(ThroughputGreedyPolicy::new(*route_limits, selector.clone())),
        }
    }

    /// The display name the built policy will report.
    pub fn name(&self) -> String {
        self.build().name()
    }
}

/// A complete experiment: environment × policies × trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Experiment identifier (e.g. `"fig3"`).
    pub name: String,
    /// Network generation parameters.
    pub network: NetworkConfig,
    /// Request workload.
    pub workload: WorkloadConfig,
    /// Resource-occupancy dynamics.
    pub dynamics: DynamicsConfig,
    /// Trials and horizon.
    pub trials: TrialConfig,
    /// The policies to compare.
    pub policies: Vec<PolicySpec>,
}

/// All runs of one experiment, grouped per policy in specification order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResults {
    /// The experiment name.
    pub name: String,
    /// `runs[i]` are the per-trial metrics of `policies[i]`.
    pub runs: Vec<PolicyRuns>,
}

/// The per-trial runs of one policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyRuns {
    /// Policy display name.
    pub policy: String,
    /// One [`RunMetrics`] per trial.
    pub trials: Vec<RunMetrics>,
}

impl PolicyRuns {
    /// Mean over trials of a per-run scalar.
    pub fn mean_of<F: Fn(&RunMetrics) -> f64>(&self, f: F) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().map(f).sum::<f64>() / self.trials.len() as f64
    }

    /// Trial-averaged series of a per-run series (all trials must share
    /// the horizon).
    pub fn mean_series_of<F: Fn(&RunMetrics) -> Vec<f64>>(&self, f: F) -> Vec<f64> {
        let series: Vec<Vec<f64>> = self.trials.iter().map(f).collect();
        crate::stats::mean_series(&series)
    }

    /// All per-request success probabilities pooled over trials (Fig. 4).
    pub fn pooled_success_probs(&self) -> Vec<f64> {
        self.trials
            .iter()
            .flat_map(RunMetrics::all_success_probs)
            .collect()
    }
}

impl Experiment {
    /// The paper's default environment with the three §V policies
    /// (OSCAR, MF, MA).
    pub fn paper_default(name: impl Into<String>) -> Self {
        Experiment {
            name: name.into(),
            network: NetworkConfig::paper_default(),
            workload: WorkloadConfig::paper_default(),
            dynamics: DynamicsConfig::Static,
            trials: TrialConfig::paper_default(),
            policies: vec![
                PolicySpec::Oscar(OscarConfig::paper_default()),
                PolicySpec::Myopic(MyopicConfig::paper_default(
                    qdn_core::baselines::BudgetSplit::Fixed,
                )),
                PolicySpec::Myopic(MyopicConfig::paper_default(
                    qdn_core::baselines::BudgetSplit::Adaptive,
                )),
            ],
        }
    }

    /// Runs every policy over the same seeded environments.
    ///
    /// All (policy, trial) pairs form one task list for the pool, so no
    /// claimer idles between policies; results are regrouped per policy
    /// in specification order. Each trial is a pure function of its
    /// policy and seed, so the results are byte-identical at every pool
    /// width and to running each policy through
    /// [`run_trials`](crate::trial::run_trials).
    pub fn run(&self) -> ExperimentResults {
        let trials = self.trials.trials;
        let mut metrics = threadpool::global_with(self.trials.threads)
            .map_indexed(self.policies.len() * trials, |k| {
                run_trial(&self.trials, k % trials, |seed| {
                    self.setup(&self.policies[k / trials], seed)
                })
            })
            .into_iter();
        let runs = self
            .policies
            .iter()
            .map(|spec| PolicyRuns {
                policy: spec.name(),
                trials: metrics.by_ref().take(trials).collect(),
            })
            .collect();
        ExperimentResults {
            name: self.name.clone(),
            runs,
        }
    }

    /// The environment of one trial of `spec`, drawn from the trial's
    /// seed.
    fn setup(&self, spec: &PolicySpec, seed: u64) -> TrialSetup {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TrialSetup {
            network: self
                .network
                .build(&mut rng)
                .expect("experiment network config must be valid"),
            workload: self.workload.build(),
            dynamics: self.dynamics.build(),
            policy: spec.build(),
        }
    }
}

impl ExperimentResults {
    /// Looks up a policy's runs by name.
    pub fn policy(&self, name: &str) -> Option<&PolicyRuns> {
        self.runs.iter().find(|r| r.policy == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;

    fn tiny_experiment() -> Experiment {
        let mut e = Experiment::paper_default("test");
        e.trials = TrialConfig {
            trials: 2,
            base_seed: 5,
            threads: 0,
            sim: SimConfig {
                horizon: 6,
                realize_outcomes: true,
            },
        };
        e
    }

    #[test]
    fn runs_all_policies_over_same_environments() {
        let results = tiny_experiment().run();
        assert_eq!(results.runs.len(), 3);
        assert_eq!(results.runs[0].policy, "OSCAR");
        assert_eq!(results.runs[1].policy, "MF");
        assert_eq!(results.runs[2].policy, "MA");
        // Paired environments: request counts match across policies.
        for trial in 0..2 {
            let counts: Vec<Vec<usize>> = results
                .runs
                .iter()
                .map(|p| p.trials[trial].slots().iter().map(|s| s.requests).collect())
                .collect();
            assert_eq!(counts[0], counts[1]);
            assert_eq!(counts[1], counts[2]);
        }
    }

    #[test]
    fn policy_lookup() {
        let results = tiny_experiment().run();
        assert!(results.policy("OSCAR").is_some());
        assert!(results.policy("nope").is_none());
    }

    #[test]
    fn mean_helpers() {
        let results = tiny_experiment().run();
        let oscar = results.policy("OSCAR").unwrap();
        let mean_cost = oscar.mean_of(|r| r.total_cost() as f64);
        assert!(mean_cost > 0.0);
        let series = oscar.mean_series_of(|r| r.running_avg_success());
        assert_eq!(series.len(), 6);
        assert!(!oscar.pooled_success_probs().is_empty());
    }

    #[test]
    fn spec_names() {
        assert_eq!(
            PolicySpec::Oscar(OscarConfig::paper_default()).name(),
            "OSCAR"
        );
        assert_eq!(
            PolicySpec::RandomMin {
                route_limits: RouteLimits::paper_default()
            }
            .name(),
            "Random-Min"
        );
        assert_eq!(
            PolicySpec::ThroughputGreedy {
                route_limits: RouteLimits::paper_default(),
                selector: RouteSelector::default(),
            }
            .name(),
            "Throughput-Greedy"
        );
    }

    #[test]
    fn specs_round_trip_through_json() {
        let specs = vec![
            PolicySpec::Oscar(OscarConfig::paper_default()),
            PolicySpec::RandomMin {
                route_limits: RouteLimits::paper_default(),
            },
            PolicySpec::ThroughputGreedy {
                route_limits: RouteLimits::paper_default(),
                selector: RouteSelector::default(),
            },
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: PolicySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
    }
}
