//! Seeded multi-trial execution.
//!
//! The paper averages 5 trials per data point (§V-A-2). Trials are
//! embarrassingly parallel; this module fans them out on the shared
//! index-claiming pool (`crates/compat/threadpool`), sized by
//! [`TrialConfig::threads`], while keeping results in deterministic
//! trial order — each trial is a pure function of its seed and results
//! are gathered in trial-index order, so a run's `RunMetrics` are
//! byte-identical at every pool width (see
//! `parallel_trials_byte_identical_to_serial`).

use qdn_core::policy::RoutingPolicy;
use qdn_net::dynamics::ResourceDynamics;
use qdn_net::workload::Workload;
use qdn_net::QdnNetwork;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::engine::{run, SimConfig};
use crate::metrics::RunMetrics;

/// Everything one trial needs, built fresh from a trial seed.
pub struct TrialSetup {
    /// The network instance (topology + capacities drawn from the seed).
    pub network: QdnNetwork,
    /// The request generator.
    pub workload: Box<dyn Workload>,
    /// The resource-occupancy process.
    pub dynamics: Box<dyn ResourceDynamics>,
    /// The policy under test (fresh state).
    pub policy: Box<dyn RoutingPolicy>,
}

/// Multi-trial parameters.
///
/// `threads` is **required** in the wire form (PR 10, deliberately a
/// loud serde break — see MIGRATION.md §PR 10): a trial config now
/// *owns* its execution engine instead of inheriting whatever the host
/// process happened to configure, so the same config file reproduces
/// the same run shape everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialConfig {
    /// Number of trials (paper: 5).
    pub trials: usize,
    /// Base seed; trial `i` uses `base_seed + i` for the environment and
    /// a derived stream for the policy.
    pub base_seed: u64,
    /// Threads running trials at once, the calling thread included:
    /// `0` = one per available CPU. Results are byte-identical at every
    /// width — this knob trades wall-clock for cores, never determinism.
    pub threads: usize,
    /// Per-trial simulation parameters.
    pub sim: SimConfig,
}

impl TrialConfig {
    /// The paper's defaults: 5 trials over 200 slots, auto-sized pool.
    pub fn paper_default() -> Self {
        TrialConfig {
            trials: 5,
            base_seed: 0x0DD5_EED5,
            threads: 0,
            sim: SimConfig::paper_default(),
        }
    }
}

impl Default for TrialConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The environment seed of trial `i`.
pub fn trial_seed(base_seed: u64, trial: usize) -> u64 {
    base_seed.wrapping_add(trial as u64)
}

/// Runs `config.trials` independent trials in parallel and returns their
/// metrics in trial order.
///
/// `setup` receives the trial's environment seed and must build the
/// complete [`TrialSetup`]; drawing the network from an RNG seeded with
/// that value guarantees that different policies evaluated through
/// separate `run_trials` calls with the same `base_seed` face identical
/// networks and request sequences.
pub fn run_trials<F>(config: &TrialConfig, setup: F) -> Vec<RunMetrics>
where
    F: Fn(u64) -> TrialSetup + Sync,
{
    // `global_with` shares one task counter per width, so benchmark
    // readers of the pool's stats see these trials. `map_indexed`
    // gathers in trial-index order; each trial is a pure function of its
    // seed, so the result vector is byte-identical at every pool width.
    threadpool::global_with(config.threads)
        .map_indexed(config.trials, |i| run_trial(config, i, &setup))
}

/// Runs trial `trial` of `config` on the caller's thread: the one unit of
/// work [`run_trials`] and `Experiment::run` fan out.
pub fn run_trial(
    config: &TrialConfig,
    trial: usize,
    setup: impl Fn(u64) -> TrialSetup,
) -> RunMetrics {
    let seed = trial_seed(config.base_seed, trial);
    let mut ts = setup(seed);
    // Environment stream: network build already consumed part of a
    // seed-derived stream inside `setup`; the run uses a continuation
    // seeded deterministically from the trial seed so the sample path is
    // reproducible.
    let mut env_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x00E0_0E0E_0E0E_0E0E);
    let mut policy_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x7011_C711_57EA_0000);
    run(
        &ts.network,
        ts.workload.as_mut(),
        ts.dynamics.as_mut(),
        ts.policy.as_mut(),
        &config.sim,
        &mut env_rng,
        &mut policy_rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdn_core::oscar::{OscarConfig, OscarPolicy};
    use qdn_net::dynamics::StaticDynamics;
    use qdn_net::workload::UniformWorkload;
    use qdn_net::NetworkConfig;

    fn oscar_setup(seed: u64) -> TrialSetup {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TrialSetup {
            network: NetworkConfig::paper_default().build(&mut rng).unwrap(),
            workload: Box::new(UniformWorkload::paper_default()),
            dynamics: Box::new(StaticDynamics),
            policy: Box::new(OscarPolicy::new(OscarConfig::paper_default())),
        }
    }

    fn small_config(trials: usize) -> TrialConfig {
        TrialConfig {
            trials,
            base_seed: 99,
            threads: 0,
            sim: SimConfig {
                horizon: 10,
                realize_outcomes: true,
            },
        }
    }

    #[test]
    fn runs_requested_trials_in_order() {
        let results = run_trials(&small_config(3), oscar_setup);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert_eq!(r.slots().len(), 10);
            assert_eq!(r.policy(), "OSCAR");
        }
    }

    #[test]
    fn reproducible_across_invocations() {
        let a = run_trials(&small_config(2), oscar_setup);
        let b = run_trials(&small_config(2), oscar_setup);
        assert_eq!(a, b);
    }

    #[test]
    fn different_trials_differ() {
        let results = run_trials(&small_config(2), oscar_setup);
        // Different seeds -> different networks/workloads -> different
        // trajectories (with overwhelming probability).
        assert_ne!(results[0], results[1]);
    }

    #[test]
    fn same_environment_for_different_policies() {
        let oscar_runs = run_trials(&small_config(2), oscar_setup);
        let mf_runs = run_trials(&small_config(2), |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            TrialSetup {
                network: NetworkConfig::paper_default().build(&mut rng).unwrap(),
                workload: Box::new(UniformWorkload::paper_default()),
                dynamics: Box::new(StaticDynamics),
                policy: Box::new(qdn_core::baselines::MyopicPolicy::fixed()),
            }
        });
        for (o, m) in oscar_runs.iter().zip(&mf_runs) {
            let ro: Vec<usize> = o.slots().iter().map(|s| s.requests).collect();
            let rm: Vec<usize> = m.slots().iter().map(|s| s.requests).collect();
            assert_eq!(ro, rm, "request sample paths must match across policies");
        }
    }

    #[test]
    fn parallel_trials_byte_identical_to_serial() {
        // (trials, width): 4 trials at widths 2, 3 and 4, and 2 trials
        // at width 4, where claimers outnumber trials.
        for (trials, threads) in [(4, 2), (4, 3), (4, 4), (2, 4)] {
            let mut serial_cfg = small_config(trials);
            serial_cfg.threads = 1;
            let mut parallel_cfg = small_config(trials);
            parallel_cfg.threads = threads;
            let serial = run_trials(&serial_cfg, oscar_setup);
            let parallel = run_trials(&parallel_cfg, oscar_setup);
            // Compare the serialized wire form: byte-identical, not
            // merely structurally equal.
            assert_eq!(
                serde_json::to_string(&serial).unwrap(),
                serde_json::to_string(&parallel).unwrap(),
                "{trials} trials at width {threads}"
            );
        }
        // The flattened (policy, trial) task list of `Experiment::run`:
        // width 1 against 2, 3 and 4, and width 1 against one
        // `run_trials` call per policy.
        let mut experiment = crate::experiment::Experiment::paper_default("widths");
        experiment.trials = small_config(2);
        experiment.trials.threads = 1;
        let serial = experiment.run();
        for (spec, runs) in experiment.policies.iter().zip(&serial.runs) {
            let per_policy = run_trials(&experiment.trials, |seed| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                TrialSetup {
                    network: NetworkConfig::paper_default().build(&mut rng).unwrap(),
                    workload: Box::new(UniformWorkload::paper_default()),
                    dynamics: Box::new(StaticDynamics),
                    policy: spec.build(),
                }
            });
            assert_eq!(
                serde_json::to_string(&per_policy).unwrap(),
                serde_json::to_string(&runs.trials).unwrap(),
                "{} through run_trials",
                runs.policy
            );
        }
        let serial = serde_json::to_string(&serial).unwrap();
        for threads in [2, 3, 4] {
            experiment.trials.threads = threads;
            assert_eq!(
                serde_json::to_string(&experiment.run()).unwrap(),
                serial,
                "experiment at width {threads}"
            );
        }
    }

    #[test]
    fn threads_field_is_required_in_wire_form() {
        // PR 10's deliberate loud break: a config without `threads`
        // must be rejected, not silently defaulted.
        let legacy = r#"{"trials":2,"base_seed":5,"sim":{"horizon":10,"realize_outcomes":true}}"#;
        assert!(serde_json::from_str::<TrialConfig>(legacy).is_err());
        let current = r#"{"trials":2,"base_seed":5,"threads":1,"sim":{"horizon":10,"realize_outcomes":true}}"#;
        let parsed: TrialConfig = serde_json::from_str(current).unwrap();
        assert_eq!(parsed.threads, 1);
    }

    #[test]
    fn trial_seed_arithmetic() {
        assert_eq!(trial_seed(10, 0), 10);
        assert_eq!(trial_seed(10, 3), 13);
        assert_eq!(trial_seed(u64::MAX, 1), 0); // wrapping
    }
}
