//! The workloads and the inputs each one generates from `--seed`.

use qdn_core::OscarConfig;
use qdn_net::dynamics::DynamicsConfig;
use qdn_net::workload::WorkloadConfig;
use qdn_net::{NetworkConfig, QdnNetwork, SdPair};
use qdn_serve::ServeConfig;
use qdn_sim::experiment::{Experiment, PolicySpec};
use rand::SeedableRng;

use crate::clock;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper network, static capacities, `U[1,5]` random pairs, over a
    /// Unix socket to the daemon.
    ServeUniform,
    /// Ten sticky pairs under link churn, with periodic checkpoints.
    ServePersistentChurn,
    /// `Experiment::paper_default` (OSCAR, MF, MA) in process.
    ReproPaper,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeUniform,
        Workload::ServePersistentChurn,
        Workload::ReproPaper,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeUniform => "serve-uniform",
            Workload::ServePersistentChurn => "serve-persistent-churn",
            Workload::ReproPaper => "repro-paper",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does: `Full` is what the benchmark measures,
/// `Smoke` a tiny configuration for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A few slots of everything.
    Smoke,
}

/// The daemon's master seed. It fixes the topology (the paper's 20-node
/// Waxman network) and the per-slot decision streams; only the request
/// trace and the churn process vary with `--seed`, so runs with
/// different seeds measure the same network.
pub const DAEMON_SEED: u64 = 7;

/// Stream ids mixed into `--seed` for each generated input.
const TRACE_STREAM: u64 = 0x7ace;
const CHURN_STREAM: u64 = 0xc4e1;
const REPRO_STREAM: u64 = 0x5eed;

/// SplitMix64 of `seed` and a stream id.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z =
        (seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a serve workload sends and how the run is shaped.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// The daemon configuration (2 shards, solve pool of width 1).
    pub config: ServeConfig,
    /// The request generator.
    pub requests: WorkloadConfig,
    /// Seed of the request trace.
    pub trace_seed: u64,
    /// Slots driven after boot before the warm snapshot is taken.
    pub warmup_slots: u64,
    /// Slots in the replayed trace.
    pub trace_slots: u64,
    /// A `Snapshot` checkpoint after every this many replayed slots.
    pub checkpoint_every: u64,
    /// Fresh boots timed for `setup_s`.
    pub boots: usize,
}

/// The serve workload's spec, or `None` for `repro-paper`.
pub fn serve_spec(workload: Workload, seed: u64, scale: Scale) -> Option<ServeSpec> {
    let (requests, dynamics, trace_slots, checkpoint_every) = match workload {
        Workload::ServeUniform => (
            WorkloadConfig::paper_default(),
            DynamicsConfig::Static,
            2048,
            64,
        ),
        Workload::ServePersistentChurn => (
            WorkloadConfig::Persistent {
                pairs_per_slot: 10,
                keep_probability: 0.8,
            },
            DynamicsConfig::Churn {
                failure_rate: 0.5,
                mttr: 5.0,
                seed: mix(seed, CHURN_STREAM),
                base: Box::new(DynamicsConfig::Static),
            },
            2048,
            32,
        ),
        Workload::ReproPaper => return None,
    };
    let config = ServeConfig {
        seed: DAEMON_SEED,
        shards: 2,
        network: NetworkConfig::paper_default(),
        dynamics,
        threads: 1,
        oscar: OscarConfig::paper_default(),
    };
    let (warmup_slots, trace_slots, checkpoint_every, boots) = match scale {
        Scale::Full => (200, trace_slots, checkpoint_every, 7),
        Scale::Smoke => (4, 8, 4, 2),
    };
    Some(ServeSpec {
        config,
        requests,
        trace_seed: mix(seed, TRACE_STREAM),
        warmup_slots,
        trace_slots,
        checkpoint_every,
        boots,
    })
}

/// Builds the daemon's network exactly as the daemon does.
pub fn network(config: &ServeConfig) -> Result<QdnNetwork, String> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    config
        .network
        .build(&mut rng)
        .map_err(|e| format!("network build failed: {e}"))
}

/// The request trace for slots `0..slots`: slot `t`'s pairs are drawn
/// with an RNG derived from `(seed, t)`, so the trace is a pure function
/// of the seed. Returns the trace and each slot's draw time in µs.
pub fn request_trace(
    requests: &WorkloadConfig,
    network: &QdnNetwork,
    seed: u64,
    slots: u64,
) -> (Vec<Vec<SdPair>>, Vec<f64>) {
    let mut generator = requests.build();
    let mut trace = Vec::with_capacity(slots as usize);
    let mut draw_us = Vec::with_capacity(slots as usize);
    for t in 0..slots {
        let mut rng = qdn_serve::shard::slot_rng(seed, t, 0);
        let (pairs, took) = clock::timed(|| generator.requests(t, network, &mut rng));
        trace.push(pairs);
        draw_us.push(clock::us(took));
    }
    (trace, draw_us)
}

/// The reproduction's experiments: `Experiment::paper_default` (OSCAR,
/// MF, MA; 5 trials × 200 slots) with trial fan-out at pool width 2,
/// once per distinct base seed derived from `--seed`. Several distinct
/// experiments per run average out how much one seed's topologies cost.
pub fn repro_experiments(seed: u64, scale: Scale) -> Vec<Experiment> {
    let distinct = match scale {
        Scale::Full => 8,
        Scale::Smoke => 1,
    };
    (0..distinct)
        .map(|k| {
            let mut exp = Experiment::paper_default("repro-paper");
            exp.trials.base_seed = mix(seed, REPRO_STREAM + k);
            exp.trials.threads = 2;
            if scale == Scale::Smoke {
                exp.trials.trials = 2;
                exp.trials.sim.horizon = 6;
            }
            exp
        })
        .collect()
}

/// A small experiment over a serve workload's own network, requests and
/// dynamics, so the traced run of a serve workload can time the
/// simulator's layers too.
pub fn sim_probe_experiment(spec: &ServeSpec, scale: Scale) -> Experiment {
    let mut exp = Experiment::paper_default("sim-probe");
    exp.network = spec.config.network.clone();
    exp.workload = spec.requests.clone();
    exp.dynamics = spec.config.dynamics.clone();
    exp.policies[0] = PolicySpec::Oscar(spec.config.oscar.clone());
    exp.trials.base_seed = spec.trace_seed;
    exp.trials.threads = 2;
    exp.trials.trials = 2;
    exp.trials.sim.horizon = match scale {
        Scale::Full => 100,
        Scale::Smoke => 6,
    };
    exp
}
