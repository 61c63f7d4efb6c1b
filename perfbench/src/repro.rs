//! The paper reproduction in process, through a timing and auditing
//! wrapper around each policy.
//!
//! The wrapper times every slot decision and audits it with
//! `qdn_sim::audit::audit_decision` outside the timed span. Passes over
//! the same experiments repeat until the time budget is spent; every
//! pass must reproduce the first pass's results exactly.
//!
//! End-to-end timings are scaled to the reference machine (see
//! `calibrate`): each pass by the reference samples taken between its
//! policy runs, on two threads (the fan-out's width); each set-up by the
//! single-thread samples taken around it.

use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use qdn_core::policy::{PolicyDiagnostics, RoutingPolicy};
use qdn_core::types::{Decision, SlotState};
use qdn_graph::NodeId;
use qdn_net::routes::RouteLimits;
use qdn_net::{CandidateRoutes, QdnNetwork, SdPair};
use qdn_sim::audit::audit_decision;
use qdn_sim::experiment::{Experiment, ExperimentResults, PolicyRuns, PolicySpec};
use qdn_sim::trial::{run_trials, trial_seed, TrialSetup};
use rand::SeedableRng;

use crate::calibrate::{self, Calibrator};
use crate::clock;
use crate::metrics::Report;
use crate::stats;

/// Slot-time metrics of `Experiment::paper_default`'s policies
/// (OSCAR, MF, MA), in order.
const POLICY_SLOT_METRICS: [&str; 3] = [
    "sim.policy_slot_ms.oscar",
    "sim.policy_slot_ms.mf",
    "sim.policy_slot_ms.ma",
];

/// At least this many passes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Checkpoints of each experiment's results timed after each pass (a
/// pass yields few).
const CHECKPOINTS_PER_EXPERIMENT: usize = 2;

/// Reference samples taken before each policy run of a pass, and around
/// each set-up.
const SAMPLES: usize = 3;

/// Timed set-ups for `setup_s`.
const SETUPS: usize = 21;

/// What the wrappers recorded.
#[derive(Debug, Default)]
pub struct Log {
    /// Per-slot decision wall time, ms, per policy index.
    pub slot_ms: [Vec<f64>; 3],
    /// Wall time of each trial (first decision to last), seconds.
    pub trial_s: Vec<f64>,
    /// Slot decisions made.
    pub decisions: u64,
    /// Slot decisions with at least one capacity violation.
    pub violating: u64,
}

/// A policy wrapped with timing and auditing.
#[derive(Debug)]
struct Timed {
    inner: Box<dyn RoutingPolicy>,
    policy: usize,
    horizon: u64,
    trial_start: Option<Instant>,
    local: Log,
    sink: Arc<Mutex<Log>>,
}

impl RoutingPolicy for Timed {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(
        &mut self,
        network: &QdnNetwork,
        slot: &SlotState,
        rng: &mut dyn rand::Rng,
    ) -> Decision {
        let start = clock::now();
        if self.trial_start.is_none() {
            self.trial_start = Some(start);
        }
        let decision = self.inner.decide(network, slot, rng);
        let took = start.elapsed();
        let violations = audit_decision(network, slot.snapshot(), &decision);
        let slot_ms = &mut self.local.slot_ms[self.policy.min(2)];
        slot_ms.push(clock::ms(took));
        self.local.decisions += 1;
        self.local.violating += u64::from(!violations.is_empty());
        if slot.t() + 1 == self.horizon {
            if let Some(trial_start) = self.trial_start.take() {
                self.local.trial_s.push(trial_start.elapsed().as_secs_f64());
            }
            let local = std::mem::take(&mut self.local);
            let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
            for (all, mine) in sink.slot_ms.iter_mut().zip(local.slot_ms) {
                all.extend(mine);
            }
            sink.trial_s.extend(local.trial_s);
            sink.decisions += local.decisions;
            sink.violating += local.violating;
        }
        decision
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn diagnostics(&self) -> PolicyDiagnostics {
        self.inner.diagnostics()
    }
}

/// One policy of `exp` over every trial, wrapped.
fn run_wrapped(
    exp: &Experiment,
    index: usize,
    spec: &PolicySpec,
    sink: &Arc<Mutex<Log>>,
) -> PolicyRuns {
    let trials = run_trials(&exp.trials, |seed| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        TrialSetup {
            network: exp
                .network
                .build(&mut rng)
                .expect("experiment network config must be valid"),
            workload: exp.workload.build(),
            dynamics: exp.dynamics.build(),
            policy: Box::new(Timed {
                inner: spec.build(),
                policy: index,
                horizon: exp.trials.sim.horizon,
                trial_start: None,
                local: Log::default(),
                sink: Arc::clone(sink),
            }),
        }
    });
    PolicyRuns {
        policy: spec.name(),
        trials,
    }
}

/// One timed pass over every experiment: `Experiment::run` with every
/// policy wrapped, and reference samples between the policy runs.
struct Pass {
    results: Vec<ExperimentResults>,
    /// Wall time of the policy runs, calibration excluded.
    wall: Duration,
    /// Reference samples, ms.
    reference_ms: Vec<f64>,
}

impl Pass {
    /// The pass's scale to the reference machine.
    fn scale(&self) -> f64 {
        calibrate::scale(&self.reference_ms)
    }
}

fn pass(
    experiments: &[Experiment],
    sink: &Arc<Mutex<Log>>,
    calibrator: &Calibrator,
) -> Result<Pass, String> {
    let mut out = Pass {
        results: Vec::with_capacity(experiments.len()),
        wall: Duration::ZERO,
        reference_ms: Vec::new(),
    };
    for exp in experiments {
        let mut runs = Vec::with_capacity(exp.policies.len());
        for (index, spec) in exp.policies.iter().enumerate() {
            out.reference_ms.extend(calibrator.samples(SAMPLES)?);
            let (run, took) = clock::timed(|| run_wrapped(exp, index, spec, sink));
            out.wall += took;
            runs.push(run);
        }
        out.results.push(ExperimentResults {
            name: exp.name.clone(),
            runs,
        });
    }
    out.reference_ms.extend(calibrator.samples(SAMPLES)?);
    Ok(out)
}

/// Counts a pass's operations (one per slot decision) and failures
/// (decisions that violate capacities, trials that differ from the
/// reference pass).
fn account(
    sink: &Arc<Mutex<Log>>,
    seen: &mut (u64, u64),
    results: &[ExperimentResults],
    reference: Option<&[ExperimentResults]>,
    report: &mut Report,
) {
    let log = sink.lock().unwrap_or_else(PoisonError::into_inner);
    report.ok_ops(log.decisions - seen.0);
    for _ in seen.1..log.violating {
        report.fail(|| "a decision violated the slot's capacities".into());
    }
    *seen = (log.decisions, log.violating);
    drop(log);
    if let Some(reference) = reference {
        for (a, b) in reference.iter().zip(results) {
            for (pa, pb) in a.runs.iter().zip(&b.runs) {
                for (i, (ta, tb)) in pa.trials.iter().zip(&pb.trials).enumerate() {
                    if ta != tb {
                        report.fail(|| format!("{} trial {i} differs between passes", pa.policy));
                    }
                }
            }
        }
    }
}

/// Slots simulated (policies × trials × horizon) by one pass.
fn pass_slots(experiments: &[Experiment]) -> f64 {
    experiments
        .iter()
        .map(|e| (e.policies.len() * e.trials.trials) as f64 * e.trials.sim.horizon as f64)
        .sum()
}

/// Requests decided (served or not) by one pass, over every policy.
fn pass_requests(results: &[ExperimentResults]) -> f64 {
    results
        .iter()
        .flat_map(|r| &r.runs)
        .flat_map(|p| &p.trials)
        .map(|t| t.total_requests() as f64)
        .sum()
}

/// The reproduction's set-up: builds every trial environment of the
/// experiments (network, workload, dynamics, policies) and warms one
/// candidate-route cache per network over every node pair, the work a
/// trial's policies otherwise do lazily over their first slots.
fn build_environments(experiments: &[Experiment]) -> Duration {
    clock::timed(|| {
        let mut built = 0usize;
        for exp in experiments {
            let limits = match &exp.policies[0] {
                PolicySpec::Oscar(config) => config.route_limits,
                _ => RouteLimits::paper_default(),
            };
            for i in 0..exp.trials.trials {
                let seed = trial_seed(exp.trials.base_seed, i);
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let _workload = exp.workload.build();
                let _dynamics = exp.dynamics.build();
                built += exp
                    .policies
                    .iter()
                    .map(|p| p.build().name().len())
                    .sum::<usize>();
                let Ok(network) = exp.network.build(&mut rng) else {
                    continue;
                };
                let mut routes = CandidateRoutes::new(limits);
                let nodes = network.node_count() as u32;
                for s in 0..nodes {
                    for d in s + 1..nodes {
                        if let Ok(pair) = SdPair::new(NodeId(s), NodeId(d)) {
                            built += routes.routes(&network, pair).len();
                        }
                    }
                }
            }
        }
        std::hint::black_box(built)
    })
    .1
}

/// The end-to-end metrics of `repro-paper`, untraced.
pub fn measure(
    experiments: &[Experiment],
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up and checkpoints run on one thread; the passes fan out on two.
    let single = Calibrator::new(1)?;
    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let mut around = single.samples(SAMPLES)?;
        let took = build_environments(experiments);
        around.extend(single.samples(SAMPLES)?);
        setup.push(took.as_secs_f64() * calibrate::scale(&around));
    }
    report.set("setup_s", stats::median(&setup));
    let calibrator = Calibrator::new(2)?;
    let sink = Arc::new(Mutex::new(Log::default()));
    let mut seen = (0, 0);
    let start = clock::now();
    let first = pass(experiments, &sink, &calibrator)?;
    account(&sink, &mut seen, &first.results, None, report);
    let mut scales = vec![first.scale()];
    let mut walls = vec![first.wall.as_secs_f64() * first.scale()];
    let mut checkpoint_ms = Vec::new();
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        let next = pass(experiments, &sink, &calibrator)?;
        account(
            &sink,
            &mut seen,
            &next.results,
            Some(&first.results),
            report,
        );
        let scale = next.scale();
        scales.push(scale);
        walls.push(next.wall.as_secs_f64() * scale);
        let mut around = single.samples(SAMPLES)?;
        let mut encodes = Vec::new();
        for results in &next.results {
            for _ in 0..CHECKPOINTS_PER_EXPERIMENT {
                let (encoded, took) = clock::timed(|| serde_json::to_string(results));
                if encoded.is_err() {
                    report.fail(|| "results checkpoint failed to encode".into());
                }
                encodes.push(clock::ms(took));
            }
        }
        around.extend(single.samples(SAMPLES)?);
        let scale = calibrate::scale(&around);
        checkpoint_ms.extend(encodes.iter().map(|ms| ms * scale));
    }
    let slots = pass_slots(experiments);
    let requests = pass_requests(&first.results);
    let per_s = |n: f64| walls.iter().map(|w| n / w).collect::<Vec<f64>>();
    report.set("sim_slots_per_s", stats::median(&per_s(slots)));
    report.set("decisions_per_s", stats::median(&per_s(requests)));
    report.set("checkpoint_ms", stats::median(&checkpoint_ms));
    let log = sink.lock().unwrap_or_else(PoisonError::into_inner);
    // OSCAR's slot times, percentiles per pass, then the median over
    // passes (the wrappers log a pass's trials before the next pass).
    let per_pass: usize = experiments
        .iter()
        .map(|e| e.trials.trials * e.trials.sim.horizon as usize)
        .sum();
    let tick = |q: f64| -> f64 {
        let per_pass: Vec<f64> = log.slot_ms[0]
            .chunks(per_pass.max(1))
            .zip(&scales)
            .map(|(slots, scale)| stats::quantile(slots, q) * scale)
            .collect();
        stats::median(&per_pass)
    };
    report.set("tick_p50_ms", tick(0.5));
    report.set("tick_p99_ms", tick(0.99));
    if stats::beyond(per_pass, 990) < stats::MIN_BEYOND {
        report.note(format!(
            "WARNING: {per_pass} OSCAR slots per pass leave fewer than 10 beyond p99"
        ));
    }
    report.note(format!(
        "OSCAR slot decisions timed: {} passes of {per_pass}; p99 leaves {} beyond per pass",
        walls.len(),
        stats::beyond(per_pass, 990)
    ));
    report.note(format!(
        "scale to the reference machine: passes {:.3} (min {:.3}, max {:.3})",
        stats::median(&scales),
        scales.iter().copied().fold(f64::INFINITY, f64::min),
        scales.iter().copied().fold(0.0, f64::max),
    ));
    drop(log);
    quality(experiments, &first.results, report);
    Ok(())
}

/// OSCAR's paper numbers over every trial of the reference pass.
fn quality(experiments: &[Experiment], results: &[ExperimentResults], report: &mut Report) {
    let oscar: Vec<_> = results.iter().flat_map(|r| &r.runs[0].trials).collect();
    let success: Vec<f64> = oscar.iter().map(|t| t.avg_success()).collect();
    let requests: usize = oscar.iter().map(|t| t.total_requests()).sum();
    let unserved: usize = oscar.iter().map(|t| t.total_unserved()).sum();
    let spent: f64 = oscar.iter().map(|t| t.total_cost() as f64).sum();
    let budget: f64 = experiments
        .iter()
        .map(|e| match &e.policies[0] {
            PolicySpec::Oscar(c) => {
                c.total_budget * e.trials.trials as f64 * e.trials.sim.horizon as f64
                    / c.horizon as f64
            }
            _ => 0.0,
        })
        .sum();
    report.set("mean_success_prob", stats::mean(&success));
    report.set(
        "served_frac",
        (requests - unserved) as f64 / requests.max(1) as f64,
    );
    report.set("budget_use", spent / budget);
}

/// The simulator and pool layers on `experiments`: per-policy slot
/// time, trial time, pool counters and fan-out efficiency; plus the
/// wrapper's overhead against plain `Experiment::run`, whose results
/// must equal the wrapped ones. Returns that overhead (wrapped wall
/// time over plain wall time).
pub fn probe(experiments: &[Experiment], report: &mut Report) -> Result<f64, String> {
    let pool = threadpool::global_with(2);
    let calibrator = Calibrator::new(2)?;
    let sink = Arc::new(Mutex::new(Log::default()));
    let mut seen = (0, 0);
    // Plain and wrapped passes alternate, twice each, so neither side
    // pays the process's cold start alone; counters cover the wrapped
    // passes only.
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let (mut executed, mut stolen) = (0, 0);
    for _ in 0..2 {
        let (plain, took): (Vec<ExperimentResults>, Duration) =
            clock::timed(|| experiments.iter().map(Experiment::run).collect());
        plain_s += took.as_secs_f64();
        let before = pool.stats();
        let wrapped = pass(experiments, &sink, &calibrator)?;
        let after = pool.stats();
        executed += after.executed - before.executed;
        stolen += after.stolen - before.stolen;
        traced_s += wrapped.wall.as_secs_f64();
        account(&sink, &mut seen, &wrapped.results, Some(&plain), report);
    }
    let log = sink.lock().unwrap_or_else(PoisonError::into_inner);
    for (name, samples) in POLICY_SLOT_METRICS.iter().zip(&log.slot_ms) {
        report.set(name, stats::median(samples));
    }
    report.set(
        "sim.slot_samples",
        log.slot_ms.iter().map(Vec::len).sum::<usize>() as f64,
    );
    report.set("sim.trial_s", stats::mean(&log.trial_s));
    report.set("pool.tasks_executed", executed as f64);
    report.set("pool.tasks_stolen", stolen as f64);
    // Trial wall time per pool worker per second of fan-out. It can
    // exceed 1: the thread waiting on the fan-out runs trials too.
    let busy: f64 = log.trial_s.iter().sum();
    report.set(
        "pool.fanout_efficiency",
        busy / (pool.threads() as f64 * traced_s),
    );
    Ok(traced_s / plain_s)
}
