//! Problem scales for the benchmark harness.

use qdn_net::NetworkConfig;
use qdn_sim::engine::SimConfig;
use qdn_sim::trial::TrialConfig;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's configuration: 5 trials × 200 slots on the 20-node
    /// Waxman topology.
    Paper,
    /// A scaled-down configuration for CI and Criterion timing loops:
    /// 2 trials × 60 slots. The *shape* conclusions (who wins, directions
    /// of trends) already hold at this size; absolute numbers are noisier.
    Quick,
    /// The stress scale past the paper's setup: a 50-node Waxman network
    /// with up to 25 concurrent SD pairs (2 trials × 60 slots, like
    /// `Quick`, so sweeps stay benchable). Exercised by the
    /// `profile_eval_wax50` bench rows.
    Large,
}

impl Scale {
    /// Trials per data point.
    pub fn trials(self) -> usize {
        match self {
            Scale::Paper => 5,
            Scale::Quick | Scale::Large => 2,
        }
    }

    /// Slots per trial.
    pub fn horizon(self) -> u64 {
        match self {
            Scale::Paper => 200,
            Scale::Quick | Scale::Large => 60,
        }
    }

    /// Nodes of this scale's Waxman topology.
    pub fn nodes(self) -> usize {
        match self {
            Scale::Paper | Scale::Quick => 20,
            Scale::Large => 50,
        }
    }

    /// Maximum concurrent SD pairs this scale is meant to stress (the
    /// paper evaluates up to 10; `Large` pushes to 25).
    pub fn max_pairs(self) -> usize {
        match self {
            Scale::Paper | Scale::Quick => 10,
            Scale::Large => 25,
        }
    }

    /// The paper's network configuration at this scale's node count
    /// (Waxman density recalibrated to average degree ≈ 4).
    pub fn network_config(self) -> NetworkConfig {
        NetworkConfig::paper_default().with_nodes(self.nodes())
    }

    /// The corresponding trial configuration (fixed base seed so the
    /// harness is reproducible run-to-run).
    pub fn trial_config(self) -> TrialConfig {
        TrialConfig {
            trials: self.trials(),
            base_seed: 0x0DD5_EED5,
            threads: 0,
            sim: SimConfig {
                horizon: self.horizon(),
                realize_outcomes: true,
            },
        }
    }

    /// Scales a total budget to the horizon so `C/T` stays at the paper's
    /// 25 units/slot when the horizon shrinks.
    pub fn scaled_budget(self, paper_budget: f64) -> f64 {
        paper_budget * self.horizon() as f64 / 200.0
    }

    /// Reads `--quick` / `--paper` from the process arguments, the last
    /// one winning; no argument means `Paper`. Any other argument prints
    /// a usage line and exits with status 2.
    pub fn from_args() -> Self {
        Scale::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: run_all [--quick | --paper]");
            std::process::exit(2);
        })
    }

    /// [`Scale::from_args`] without the exit.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut scale = Scale::Paper;
        for arg in args {
            scale = match arg.as_str() {
                "--quick" => Scale::Quick,
                "--paper" => Scale::Paper,
                _ => return Err(format!("unknown argument {arg:?}")),
            };
        }
        Ok(scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_evaluation_setup() {
        assert_eq!(Scale::Paper.trials(), 5);
        assert_eq!(Scale::Paper.horizon(), 200);
        assert_eq!(Scale::Paper.nodes(), 20);
        assert_eq!(Scale::Paper.max_pairs(), 10);
        let tc = Scale::Paper.trial_config();
        assert_eq!(tc.sim.horizon, 200);
    }

    #[test]
    fn budget_scaling_keeps_allowance() {
        let b = Scale::Quick.scaled_budget(5000.0);
        assert!((b / Scale::Quick.horizon() as f64 - 25.0).abs() < 1e-9);
        assert_eq!(Scale::Paper.scaled_budget(5000.0), 5000.0);
    }

    #[test]
    fn large_scale_is_50_nodes_25_pairs() {
        assert_eq!(Scale::Large.nodes(), 50);
        assert_eq!(Scale::Large.max_pairs(), 25);
        assert_eq!(Scale::Large.network_config().topology.node_count(), 50);
        // Bench-friendly trial shape, like Quick.
        assert_eq!(Scale::Large.trials(), Scale::Quick.trials());
        assert_eq!(Scale::Large.horizon(), Scale::Quick.horizon());
    }

    #[test]
    fn parse_accepts_only_quick_and_paper() {
        let parse = |args: &[&str]| Scale::parse(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(Scale::Paper));
        assert_eq!(parse(&["--quick"]), Ok(Scale::Quick));
        assert_eq!(parse(&["--quick", "--paper"]), Ok(Scale::Paper));
        assert!(parse(&["--quik"]).is_err());
        assert!(parse(&["--large"]).is_err());
    }
}
