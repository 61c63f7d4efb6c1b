//! The traced run of a serve workload: the same trace, timed layer by
//! layer.
//!
//! Over the socket, traced replays keep per-tick codec spans, and
//! untraced replays run beside them for the tracing overhead. In
//! process, the replay slots are decided three more times from the same
//! warm state, each time through a narrower public surface:
//!
//! * `Daemon::handle` — the daemon without its transport;
//! * `engine::decide` per shard — the daemon without its shard threads;
//! * the stages of `engine::decide` called one by one — candidate sync
//!   and repair (`CandidateRoutes`), route selection
//!   (`RouteSelector::select_in`) — with the chosen profile re-solved by
//!   a cold `ProfileEvaluator` and by `solve_relaxed` plus rounding.
//!
//! Each of the three must reproduce the socket path's decisions.

use std::collections::BTreeSet;
use std::time::Duration;

use qdn_core::allocation::AllocationMethod;
use qdn_core::engine::{self, EngineState, SlotDecisionRequest};
use qdn_core::lyapunov::VirtualQueue;
use qdn_core::problem::PerSlotContext;
use qdn_core::profile_eval::{EvalOptions, ProfileEvaluator, SelectorSession};
use qdn_core::route_selection::{profile_of, Candidates, RouteSelector, Selection};
use qdn_core::types::{Decision, RouteAssignment};
use qdn_core::OscarConfig;
use qdn_graph::Path;
use qdn_net::{CandidateRoutes, QdnNetwork, SdPair};
use qdn_serve::shard::{shard_of, slot_rng};
use qdn_serve::{Daemon, Request, Response, ServeSnapshot};
use qdn_solve::relaxed::solve_relaxed;
use qdn_solve::rounding::round_down_and_fill;

use crate::clock;
use crate::metrics::Report;
use crate::serve::{self, pooled};
use crate::stats;
use crate::workload::ServeSpec;

/// The daemon's RNG stream id for the capacity process (`1 << 40`, a
/// private constant of `qdn_serve::daemon`). The decision checks below
/// fail if the two ever drift apart.
const DYNAMICS_STREAM: u64 = 1 << 40;

/// Cold Yen searches timed for `graph.yen_us`.
const YEN_PROBES: usize = 128;

/// Runs the traced serve workload; returns the tracing overhead (median
/// traced tick over median untraced tick).
pub fn run(spec: &ServeSpec, budget: Duration, report: &mut Report) -> Result<f64, String> {
    let network = crate::workload::network(&spec.config)?;
    let total = spec.warmup_slots + spec.trace_slots;
    let (trace, draw_us) =
        crate::workload::request_trace(&spec.requests, &network, spec.trace_seed, total);
    report.set("net.workload_draw_us", stats::median(&draw_us));
    let (warmup, measured) = trace.split_at(spec.warmup_slots as usize);

    let mut warm = serve::warm_up(spec, warmup, 1, report)?;
    let plain = serve::replays(&mut warm, spec, measured, budget / 2, false, report)?;
    let traced = serve::replays(&mut warm, spec, measured, budget / 2, true, report)?;
    warm.session.close()?;
    let reference = &traced[0].decisions;
    if plain[0].decisions != *reference {
        report.fail(|| "traced and untraced replays decided differently".into());
    }
    let tick_ms = pooled(&traced, |r| &r.tick_ms);
    let encode_us = pooled(&traced, |r| &r.encode_us);
    let decode_us = pooled(&traced, |r| &r.decode_us);
    report.set("serve.tick_samples", tick_ms.len() as f64);
    report.set("serve.request_encode_us", stats::median(&encode_us));
    report.set("serve.response_decode_us", stats::median(&decode_us));
    report.set(
        "serve.frame_bytes_per_tick",
        stats::mean(&pooled(&traced, |r| &r.tick_bytes)),
    );
    report.set(
        "serve.snapshot_ms",
        stats::median(&pooled(&traced, |r| &r.checkpoint_ms)),
    );
    report.set(
        "serve.snapshot_bytes",
        stats::mean(&pooled(&traced, |r| &r.snapshot_bytes)),
    );
    let restores: Vec<f64> = traced.iter().map(|r| r.restore_ms).collect();
    report.set("serve.restore_ms", stats::median(&restores));

    let pool = threadpool::global_with(spec.config.threads);
    let server =
        pool.install(|| in_process(spec, &network, &trace, &warm.snapshot, reference, report))?;
    // What the round trip spends outside the daemon's handler and the
    // codecs on both ends: framing, the socket, and thread hand-offs.
    // Medians, because the socket and in-process samples come from
    // different passes and one slow outlier would swamp a mean.
    let transport = stats::median(&tick_ms)
        - stats::median(&server.handle_ms)
        - stats::median(&server.codec_us) / 1e3
        - (stats::median(&encode_us) + stats::median(&decode_us)) / 1e3;
    report.set("serve.handle_tick_ms", stats::median(&server.handle_ms));
    report.set("serve.transport_ms", transport);
    Ok(stats::median(&tick_ms) / stats::median(&pooled(&plain, |r| &r.tick_ms)))
}

/// Server-side spans of the in-process daemon.
struct Server {
    handle_ms: Vec<f64>,
    /// Tick request decode plus response encode, µs.
    codec_us: Vec<f64>,
}

/// Per-stage samples of the split pipeline.
#[derive(Default)]
struct Stages {
    sync_us: Vec<f64>,
    select_ms: Vec<f64>,
    repaired: u64,
    yen_calls: u64,
    relaxed_us: Vec<f64>,
    iterations: Vec<f64>,
    round_us: Vec<f64>,
    cold_eval_ms: Vec<f64>,
    components: Vec<f64>,
    memo_hits: Vec<f64>,
    eval_mismatches: u64,
}

/// One shard's state in the split pipeline.
struct SplitShard {
    routes: CandidateRoutes,
    session: SelectorSession,
    queue: VirtualQueue,
}

fn in_process(
    spec: &ServeSpec,
    network: &QdnNetwork,
    trace: &[Vec<SdPair>],
    snapshot: &ServeSnapshot,
    reference: &[Decision],
    report: &mut Report,
) -> Result<Server, String> {
    let config = &spec.config;
    let oscar = &config.oscar;
    if oscar.fidelity_target.is_some() {
        return Err("the split pipeline does not model the fidelity filter".into());
    }
    let shards = config.shards.max(1);
    let warmup = spec.warmup_slots as usize;

    let mut dynamics = config.dynamics.build();
    let mut capacities = Vec::with_capacity(trace.len());
    let mut draw_us = Vec::new();
    for t in 0..trace.len() as u64 {
        let mut rng = slot_rng(config.seed, t, DYNAMICS_STREAM);
        let (caps, took) = clock::timed(|| dynamics.snapshot(t, network, &mut rng));
        capacities.push(caps);
        if t as usize >= warmup {
            draw_us.push(clock::us(took));
        }
    }
    report.set("net.dynamics_draw_us", stats::median(&draw_us));

    let mut daemon = Daemon::new(config.clone())?;
    let restored = daemon.restore(snapshot);
    report.op(restored.is_ok(), || {
        format!("in-process restore: {restored:?}")
    });
    let mut engines = snapshot
        .shards
        .iter()
        .map(|s| EngineState::restore(&s.engine).map(|e| (e, s.queue)))
        .collect::<Result<Vec<_>, String>>()?;
    let fresh_queue = VirtualQueue::new(
        oscar.q0,
        oscar.total_budget / f64::from(shards),
        oscar.horizon,
    );
    let mut split: Vec<SplitShard> = (0..shards)
        .map(|_| SplitShard {
            routes: CandidateRoutes::new(oscar.route_limits),
            session: SelectorSession::new(),
            queue: fresh_queue,
        })
        .collect();

    let tick_wire = serde_json::to_string(&Request::Tick).map_err(|e| format!("{e:?}"))?;
    let mut server = Server {
        handle_ms: Vec::new(),
        codec_us: Vec::new(),
    };
    let mut stages = Stages::default();
    let mut decide_ms = Vec::new();
    let mut snapshot_encode_ms = Vec::new();
    for (t, pairs) in trace.iter().enumerate() {
        let caps = &capacities[t];
        let mut per_shard: Vec<Vec<SdPair>> = vec![Vec::new(); shards as usize];
        for &pair in pairs {
            per_shard[shard_of(pair, shards)].push(pair);
        }
        let measured = t >= warmup;
        // The split pipeline runs from cold through the warm-up, so it
        // reaches the snapshot's state the way the daemon did.
        let mut merged = Vec::with_capacity(per_shard.len());
        for (s, (shard, requests)) in split.iter_mut().zip(&per_shard).enumerate() {
            let ctx = PerSlotContext::oscar(network, caps, oscar.v, shard.queue.value());
            let mut rng = slot_rng(config.seed, t as u64, s as u64);
            let probes = if measured { Some(&mut stages) } else { None };
            let decision = split_decide(shard, network, requests, &ctx, oscar, &mut rng, probes);
            shard.queue.update(decision.total_cost());
            merged.push(decision);
        }
        if !measured {
            continue;
        }
        let i = t - warmup;
        let expected = &reference[i];
        if merge(merged) != *expected {
            report.fail(|| format!("split pipeline diverged at slot {t}"));
        }

        if !pairs.is_empty() {
            let answer = daemon.handle(Request::Submit {
                pairs: pairs
                    .iter()
                    .map(|p| (p.source().0, p.destination().0))
                    .collect(),
            });
            report.op(matches!(answer, Response::SubmitOk { .. }), || {
                format!("in-process Submit answered {answer:?}")
            });
        }
        let (request, decode) = clock::timed(|| serde_json::from_str::<Request>(&tick_wire));
        let request = request.map_err(|e| format!("{e:?}"))?;
        let (answer, handled) = clock::timed(|| daemon.handle(request));
        let (encoded, encode) = clock::timed(|| serde_json::to_string(&answer));
        server.handle_ms.push(clock::ms(handled));
        server.codec_us.push(clock::us(decode + encode));
        if encoded.is_err() {
            report.fail(|| "in-process response failed to encode".into());
        }
        match &answer {
            Response::TickOk { decision, .. } => {
                report.ok_ops(1);
                if decision != expected {
                    report.fail(|| format!("Daemon::handle diverged from the socket at slot {t}"));
                }
            }
            other => report.op(false, || format!("in-process Tick answered {other:?}")),
        }

        let mut merged = Vec::with_capacity(engines.len());
        for (s, ((state, queue), requests)) in engines.iter_mut().zip(&per_shard).enumerate() {
            let ctx = PerSlotContext::oscar(network, caps, oscar.v, queue.value());
            let mut rng = slot_rng(config.seed, t as u64, s as u64);
            let (decision, took) = clock::timed(|| {
                engine::decide(
                    state,
                    SlotDecisionRequest {
                        network,
                        requests,
                        ctx: &ctx,
                        selector: &oscar.selector,
                        allocation: &oscar.allocation,
                        fidelity_target: oscar.fidelity_target,
                        rng: &mut rng,
                    },
                )
            });
            decide_ms.push(clock::ms(took));
            queue.update(decision.total_cost());
            merged.push(decision);
        }
        if merge(merged) != *expected {
            report.fail(|| format!("engine::decide diverged at slot {t}"));
        }

        if (i as u64 + 1).is_multiple_of(spec.checkpoint_every) {
            let shot = daemon.handle(Request::Snapshot);
            let (_, took) = clock::timed(|| serde_json::to_string(&shot));
            report.op(matches!(shot, Response::SnapshotOk { .. }), || {
                "in-process Snapshot failed".into()
            });
            snapshot_encode_ms.push(clock::ms(took));
        }
    }

    for _ in 0..stages.eval_mismatches {
        report.fail(|| "a cold evaluation disagreed with the selected allocation".into());
    }
    report.set(
        "serve.snapshot_encode_ms",
        stats::median(&snapshot_encode_ms),
    );
    report.set("core.decide_ms.p50", stats::median(&decide_ms));
    report.set("core.decide_ms.p99", stats::quantile(&decide_ms, 0.99));
    report.set("core.decide_samples", decide_ms.len() as f64);
    report.set("core.select_ms", stats::median(&stages.select_ms));
    report.set("net.candidate_sync_us", stats::mean(&stages.sync_us));
    report.set("net.repaired_pairs", stages.repaired as f64);
    report.set("graph.yen_calls", stages.yen_calls as f64);
    report.set("solve.relaxed_us", stats::median(&stages.relaxed_us));
    report.set("solve.dual_iterations", stats::mean(&stages.iterations));
    report.set("solve.round_us", stats::median(&stages.round_us));
    report.set("core.cold_eval_ms", stats::median(&stages.cold_eval_ms));
    report.set("core.components_solved", stats::mean(&stages.components));
    report.set("core.memo_hits", stats::mean(&stages.memo_hits));
    report.set("graph.yen_us", yen_probe(network, oscar, &trace[warmup..]));
    Ok(server)
}

/// The daemon's merge of per-shard decisions, in shard order.
fn merge(decisions: Vec<Decision>) -> Decision {
    let mut assignments = Vec::new();
    let mut unserved = Vec::new();
    for d in decisions {
        assignments.extend_from_slice(d.assignments());
        unserved.extend_from_slice(d.unserved());
    }
    Decision::new(assignments, unserved)
}

/// `engine::decide` stage by stage, for a configuration without a
/// fidelity target. With `probes`, each stage is timed and the chosen
/// profile is re-solved cold.
fn split_decide(
    shard: &mut SplitShard,
    network: &QdnNetwork,
    requests: &[SdPair],
    ctx: &PerSlotContext<'_>,
    oscar: &OscarConfig,
    rng: &mut dyn rand::Rng,
    mut probes: Option<&mut Stages>,
) -> Decision {
    let SplitShard {
        routes, session, ..
    } = shard;
    let start = clock::now();
    let churn = routes.sync_dead_edges(network, ctx.snapshot);
    let (repaired, mut yen_calls) = (churn.changed_pairs.len() as u64, churn.yen_runs as u64);
    for &pair in requests {
        yen_calls += u64::from(routes.cached(pair.canonical()).is_none());
        routes.routes(network, pair);
    }
    let synced = start.elapsed();
    if let Some(p) = probes.as_deref_mut() {
        p.sync_us.push(clock::us(synced));
        p.repaired += repaired;
        p.yen_calls += yen_calls;
    }
    let routes = &*routes;
    let mut unserved = Vec::new();
    let mut served: Vec<(SdPair, &[Path])> = Vec::new();
    for &pair in requests {
        match routes.cached(pair) {
            Some(r) if !r.is_empty() => served.push((pair, r)),
            _ => unserved.push(pair),
        }
    }
    loop {
        let cands: Vec<Candidates<'_>> = served
            .iter()
            .map(|(pair, routes)| Candidates {
                pair: *pair,
                routes,
            })
            .collect();
        let (selection, took) = clock::timed(|| {
            oscar
                .selector
                .select_in(session, ctx, &cands, &oscar.allocation, rng)
        });
        if let Some(p) = probes.as_deref_mut() {
            if !cands.is_empty() {
                p.select_ms.push(clock::ms(took));
            }
        }
        match selection {
            Some(selection) => {
                if let Some(p) = probes.as_deref_mut() {
                    if !cands.is_empty() {
                        probe_profile(p, ctx, &cands, &selection, oscar);
                    }
                }
                let assignments = served
                    .iter()
                    .zip(&selection.indices)
                    .zip(selection.evaluation.allocations)
                    .map(|(((pair, routes), &idx), alloc)| {
                        RouteAssignment::new(*pair, routes[idx].clone(), alloc)
                    })
                    .collect();
                return Decision::new(assignments, unserved);
            }
            None => {
                let Some(victim) = served
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, (_, routes))| routes[0].hops())
                    .map(|(i, _)| i)
                else {
                    return Decision::new(Vec::new(), unserved);
                };
                let (pair, _) = served.remove(victim);
                unserved.push(pair);
            }
        }
    }
}

/// Re-solves the selected profile: the joint relaxation plus rounding,
/// and a cold evaluator followed by one single-pair move per pair (the
/// kind of proposal Gibbs makes) and a return to the selection.
fn probe_profile(
    p: &mut Stages,
    ctx: &PerSlotContext<'_>,
    cands: &[Candidates<'_>],
    selection: &Selection,
    oscar: &OscarConfig,
) {
    let profile = profile_of(cands, &selection.indices);
    if let (Ok(instance), AllocationMethod::RelaxAndRound(options)) =
        (ctx.build_instance(&profile), &oscar.allocation)
    {
        let (solved, took) = clock::timed(|| solve_relaxed(&instance, options));
        if let Ok(solution) = solved {
            p.relaxed_us.push(clock::us(took));
            p.iterations.push(solution.iterations as f64);
            let (_, took) = clock::timed(|| round_down_and_fill(&instance, &solution.x));
            p.round_us.push(clock::us(took));
        }
    }
    let options = match &oscar.selector {
        RouteSelector::Gibbs(gibbs) => gibbs.evaluator,
        RouteSelector::Exhaustive { evaluator, .. }
        | RouteSelector::GreedyLocal { evaluator, .. } => *evaluator,
        RouteSelector::First | RouteSelector::Random => EvalOptions::default(),
    };
    let start = clock::now();
    let mut evaluator = ProfileEvaluator::new(ctx, cands, &oscar.allocation, options);
    let cold = evaluator.evaluate(&selection.indices);
    p.cold_eval_ms.push(clock::ms(start.elapsed()));
    if cold.map(|e| e.allocations).as_ref() != Some(&selection.evaluation.allocations) {
        p.eval_mismatches += 1;
    }
    for (i, cand) in cands.iter().enumerate() {
        if cand.routes.len() > 1 {
            let mut moved = selection.indices.clone();
            moved[i] = (moved[i] + 1) % cand.routes.len();
            evaluator.evaluate_objective(&moved);
        }
    }
    evaluator.evaluate_objective(&selection.indices);
    let counters = evaluator.stats();
    p.components.push(counters.components_solved as f64);
    p.memo_hits.push(counters.memo_hits as f64);
}

/// Median µs of a cold candidate computation (Yen's k shortest paths on
/// the intact topology) over distinct pairs of the trace.
fn yen_probe(network: &QdnNetwork, oscar: &OscarConfig, trace: &[Vec<SdPair>]) -> f64 {
    let pairs: BTreeSet<SdPair> = trace.iter().flatten().map(SdPair::canonical).collect();
    let samples: Vec<f64> = pairs
        .into_iter()
        .take(YEN_PROBES)
        .map(|pair| {
            let mut fresh = CandidateRoutes::new(oscar.route_limits);
            let (found, took) = clock::timed(|| fresh.routes(network, pair).len());
            std::hint::black_box(found);
            clock::us(took)
        })
        .collect();
    stats::median(&samples)
}
