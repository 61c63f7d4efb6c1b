//! The daemon over a Unix socket: fresh boots and warm-up (`setup_s`),
//! the warm snapshot, and the closed-loop replay of the request trace.
//!
//! One client drives one connection. The daemon is the slot clock and
//! the protocol does not pipeline, so the next request goes out only
//! after the previous answer arrived. Every replay first `Restore`s the
//! warm snapshot, so every replay does bit-identical work; the first
//! replay's decision stream is the reference the others must equal.
//!
//! End-to-end timings are scaled to the reference machine (see
//! `calibrate`): each replay by the reference samples taken during it,
//! each boot by the samples taken around it.

use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qdn_core::types::Decision;
use qdn_net::{QdnNetwork, SdPair};
use qdn_serve::frame::{read_frame, write_frame};
use qdn_serve::{serve_connection, Daemon, Request, Response, ServeSnapshot, PROTOCOL_VERSION};

use crate::calibrate::{self, Calibrator};
use crate::clock;
use crate::metrics::Report;
use crate::stats;
use crate::workload::ServeSpec;

/// At least this many replays, however short `--seconds` is.
const MIN_REPLAYS: usize = 3;

/// A reference sample at the start of each replay and after every this
/// many slots of it.
const CALIBRATE_EVERY: usize = 32;

/// Reference samples taken before and after each timed boot.
const BOOT_SAMPLES: usize = 3;

/// One request/response exchange with its client-side spans.
#[derive(Debug)]
pub struct Exchange {
    /// The daemon's answer.
    pub response: Response,
    /// Request encode.
    pub encode: Duration,
    /// Response decode.
    pub decode: Duration,
    /// Encode, frame write, frame read and decode: what the client waits.
    pub total: Duration,
    /// Frame bytes both ways, length headers included.
    pub bytes: usize,
}

/// A daemon serving one connection on its own thread, and the client
/// end of that connection.
pub struct Session {
    stream: UnixStream,
    daemon: Option<JoinHandle<()>>,
}

impl Session {
    /// Boots a daemon on a fresh thread, connects over a socket pair,
    /// and completes the `Hello` handshake.
    pub fn boot(spec: &ServeSpec) -> Result<Session, String> {
        let (client, server) = UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
        let config = spec.config.clone();
        let daemon = std::thread::Builder::new()
            .name("qdn-daemon".into())
            .spawn(move || match Daemon::new(config) {
                Ok(mut daemon) => {
                    serve_connection(&mut daemon, server);
                }
                Err(e) => eprintln!("daemon boot failed: {e}"),
            })
            .map_err(|e| format!("spawn daemon thread: {e}"))?;
        let mut session = Session {
            stream: client,
            daemon: Some(daemon),
        };
        match session
            .exchange(&Request::Hello {
                version: PROTOCOL_VERSION,
            })?
            .response
        {
            Response::HelloOk { .. } => Ok(session),
            other => Err(format!("Hello answered {other:?}")),
        }
    }

    /// Encodes `request`, sends it, and reads and decodes the answer.
    pub fn exchange(&mut self, request: &Request) -> Result<Exchange, String> {
        let start = clock::now();
        let wire = serde_json::to_string(request).map_err(|e| format!("encode: {e:?}"))?;
        let encode = start.elapsed();
        self.finish(start, encode, wire.as_bytes())
    }

    /// [`Session::exchange`] for a request encoded ahead of time.
    pub fn exchange_encoded(&mut self, wire: &[u8]) -> Result<Exchange, String> {
        self.finish(clock::now(), Duration::ZERO, wire)
    }

    fn finish(
        &mut self,
        start: Instant,
        encode: Duration,
        wire: &[u8],
    ) -> Result<Exchange, String> {
        write_frame(&mut self.stream, wire).map_err(|e| format!("write frame: {e}"))?;
        let payload = read_frame(&mut self.stream).map_err(|e| format!("read frame: {e}"))?;
        let received = clock::now();
        let text =
            std::str::from_utf8(&payload).map_err(|_| "response is not UTF-8".to_string())?;
        let response: Response =
            serde_json::from_str(text).map_err(|e| format!("decode response: {e:?}"))?;
        let decode = received.elapsed();
        Ok(Exchange {
            response,
            encode,
            decode,
            total: start.elapsed(),
            bytes: wire.len() + payload.len() + 8,
        })
    }

    /// Asks the daemon to shut down and waits for its thread, which
    /// joins the shard threads as the daemon drops.
    pub fn close(mut self) -> Result<(), String> {
        let answer = self.exchange(&Request::Shutdown)?.response;
        if let Some(daemon) = self.daemon.take() {
            daemon
                .join()
                .map_err(|_| "daemon thread panicked".to_string())?;
        }
        match answer {
            Response::ShutdownOk => Ok(()),
            other => Err(format!("Shutdown answered {other:?}")),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Closing the socket ends the daemon's connection loop.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(daemon) = self.daemon.take() {
            let _ = daemon.join();
        }
    }
}

/// Sends one slot's arrivals (if any) and ticks. Returns the decision
/// and its cost (empty on a failed tick) and the tick's exchange.
fn slot(
    session: &mut Session,
    pairs: &[SdPair],
    report: &mut Report,
) -> Result<(Decision, u64, Exchange), String> {
    if !pairs.is_empty() {
        let submit = Request::Submit {
            pairs: pairs
                .iter()
                .map(|p| (p.source().0, p.destination().0))
                .collect(),
        };
        let answer = session.exchange(&submit)?.response;
        report.op(matches!(answer, Response::SubmitOk { .. }), || {
            format!("Submit answered {answer:?}")
        });
    }
    let tick = session.exchange(&Request::Tick)?;
    report.op(matches!(tick.response, Response::TickOk { .. }), || {
        format!("Tick answered {:?}", tick.response)
    });
    let (decision, cost) = match &tick.response {
        Response::TickOk { decision, cost, .. } => (decision.clone(), *cost),
        _ => (Decision::empty(), 0),
    };
    Ok((decision, cost, tick))
}

/// The daemon after warm-up, with its warm snapshot.
pub struct Warm {
    /// The connection to the warm daemon.
    pub session: Session,
    /// The snapshot taken right after warm-up.
    pub snapshot: ServeSnapshot,
    /// `Restore { snapshot }`, encoded once.
    pub restore_wire: Vec<u8>,
    /// Boot plus warm-up, seconds, one per boot.
    pub setup_s: Vec<f64>,
    /// Each boot's scale to the reference machine.
    pub setup_scale: Vec<f64>,
    /// Times the reference next to the measured work.
    pub calibrator: Calibrator,
}

/// Boots `boots` fresh daemons, drives each through the warm-up slots,
/// and keeps the last one. Every boot's warm-up decisions must equal
/// the first boot's.
pub fn warm_up(
    spec: &ServeSpec,
    warmup: &[Vec<SdPair>],
    boots: usize,
    report: &mut Report,
) -> Result<Warm, String> {
    let calibrator = Calibrator::new(1)?;
    let mut setup_s = Vec::with_capacity(boots);
    let mut setup_scale = Vec::with_capacity(boots);
    let mut reference: Option<Vec<Decision>> = None;
    let mut last = None;
    for boot in 0..boots.max(1) {
        let mut around = calibrator.samples(BOOT_SAMPLES)?;
        let start = clock::now();
        let mut session = Session::boot(spec)?;
        let mut decisions = Vec::with_capacity(warmup.len());
        for pairs in warmup {
            decisions.push(slot(&mut session, pairs, report)?.0);
        }
        setup_s.push(start.elapsed().as_secs_f64());
        around.extend(calibrator.samples(BOOT_SAMPLES)?);
        setup_scale.push(calibrate::scale(&around));
        match &reference {
            None => reference = Some(decisions),
            Some(first) => {
                if *first != decisions {
                    report.fail(|| format!("boot {boot}: warm-up decisions differ from boot 0"));
                }
            }
        }
        if let Some(previous) = last.replace(session) {
            previous.close()?;
        }
    }
    let mut session = last.ok_or("no boot")?;
    let answer = session.exchange(&Request::Snapshot)?.response;
    report.op(matches!(answer, Response::SnapshotOk { .. }), || {
        "warm Snapshot failed".into()
    });
    let Response::SnapshotOk { snapshot } = answer else {
        return Err(format!("warm Snapshot answered {answer:?}"));
    };
    let restore_wire = serde_json::to_string(&Request::Restore {
        snapshot: snapshot.clone(),
    })
    .map_err(|e| format!("encode Restore: {e:?}"))?
    .into_bytes();
    Ok(Warm {
        session,
        snapshot,
        restore_wire,
        setup_s,
        setup_scale,
        calibrator,
    })
}

/// One replay of the trace from the warm snapshot.
#[derive(Debug, Default)]
pub struct Replay {
    /// Decision per slot.
    pub decisions: Vec<Decision>,
    /// Cost per slot.
    pub costs: Vec<u64>,
    /// Tick round trips, ms.
    pub tick_ms: Vec<f64>,
    /// Tick request encode, µs (only with spans on).
    pub encode_us: Vec<f64>,
    /// Tick response decode, µs (only with spans on).
    pub decode_us: Vec<f64>,
    /// Tick frame bytes both ways (only with spans on).
    pub tick_bytes: Vec<f64>,
    /// `Snapshot` round trips, ms.
    pub checkpoint_ms: Vec<f64>,
    /// `Snapshot` response frame bytes.
    pub snapshot_bytes: Vec<f64>,
    /// The `Restore` round trip that started the replay, ms.
    pub restore_ms: f64,
    /// Replay wall time, checkpoints, calibration and restore excluded.
    pub busy: Duration,
    /// Requests decided (served or not).
    pub decided: u64,
    /// Reference samples taken during the replay, ms.
    pub reference_ms: Vec<f64>,
}

impl Replay {
    /// The replay's scale to the reference machine.
    pub fn scale(&self) -> f64 {
        calibrate::scale(&self.reference_ms)
    }
}

/// Restores the warm snapshot and replays `trace`, checkpointing every
/// `spec.checkpoint_every` slots. `spans` keeps per-tick codec spans.
pub fn replay(
    warm: &mut Warm,
    spec: &ServeSpec,
    trace: &[Vec<SdPair>],
    spans: bool,
    report: &mut Report,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let restore = warm.session.exchange_encoded(&warm.restore_wire)?;
    report.op(
        matches!(restore.response, Response::RestoreOk { .. }),
        || format!("Restore answered {:?}", restore.response),
    );
    out.restore_ms = clock::ms(restore.total);
    let start = clock::now();
    let mut paused = Duration::ZERO;
    for (i, pairs) in trace.iter().enumerate() {
        if i % CALIBRATE_EVERY == 0 {
            let (sample, took) = clock::timed(|| warm.calibrator.sample());
            out.reference_ms.push(sample?);
            paused += took;
        }
        let (decision, cost, tick) = slot(&mut warm.session, pairs, report)?;
        out.decided += decision.request_count() as u64;
        out.tick_ms.push(clock::ms(tick.total));
        if spans {
            out.encode_us.push(clock::us(tick.encode));
            out.decode_us.push(clock::us(tick.decode));
            out.tick_bytes.push(tick.bytes as f64);
        }
        out.decisions.push(decision);
        out.costs.push(cost);
        if (i as u64 + 1).is_multiple_of(spec.checkpoint_every) {
            let shot = warm.session.exchange(&Request::Snapshot)?;
            report.op(matches!(shot.response, Response::SnapshotOk { .. }), || {
                "checkpoint Snapshot failed".into()
            });
            paused += shot.total;
            out.checkpoint_ms.push(clock::ms(shot.total));
            out.snapshot_bytes.push(shot.bytes as f64);
        }
    }
    out.busy = start.elapsed().saturating_sub(paused);
    Ok(out)
}

/// Replays until `budget` is spent (at least [`MIN_REPLAYS`] times),
/// checking every replay's decisions against the first one's. Later
/// replays keep only their timings.
pub fn replays(
    warm: &mut Warm,
    spec: &ServeSpec,
    trace: &[Vec<SdPair>],
    budget: Duration,
    spans: bool,
    report: &mut Report,
) -> Result<Vec<Replay>, String> {
    let start = clock::now();
    let mut done: Vec<Replay> = Vec::new();
    while done.len() < MIN_REPLAYS || start.elapsed() < budget {
        let mut r = replay(warm, spec, trace, spans, report)?;
        if let Some(first) = done.first() {
            let differing = first
                .decisions
                .iter()
                .zip(&r.decisions)
                .filter(|(a, b)| a != b)
                .count();
            for _ in 0..differing {
                report.fail(|| format!("replay {} diverged from replay 0", done.len()));
            }
            r.decisions = Vec::new();
        }
        done.push(r);
    }
    Ok(done)
}

/// Pooled samples of one field over all replays.
pub fn pooled(replays: &[Replay], field: impl Fn(&Replay) -> &[f64]) -> Vec<f64> {
    replays
        .iter()
        .flat_map(|r| field(r).iter().copied())
        .collect()
}

/// The end-to-end metrics of a serve workload, untraced.
pub fn measure(spec: &ServeSpec, budget: Duration, report: &mut Report) -> Result<(), String> {
    let network = crate::workload::network(&spec.config)?;
    let total = spec.warmup_slots + spec.trace_slots;
    let (trace, _) =
        crate::workload::request_trace(&spec.requests, &network, spec.trace_seed, total);
    let (warmup, measured) = trace.split_at(spec.warmup_slots as usize);
    let mut warm = warm_up(spec, warmup, spec.boots, report)?;
    let runs = replays(&mut warm, spec, measured, budget, false, report)?;
    warm.session.close()?;

    let busy: Vec<f64> = runs
        .iter()
        .map(|r| r.busy.as_secs_f64() * r.scale())
        .collect();
    let per_s = |count: f64| -> Vec<f64> { busy.iter().map(|b| count / b).collect::<Vec<_>>() };
    let decided = runs[0].decided as f64;
    report.set("decisions_per_s", stats::median(&per_s(decided)));
    report.set(
        "sim_slots_per_s",
        stats::median(&per_s(measured.len() as f64)),
    );
    // Every replay ticks the same slots, so each slot's latency is the
    // median over replays: a stall that hits a slot in a minority of
    // replays drops out, and the percentiles are over the trace's slots.
    let per_slot: Vec<f64> = (0..measured.len())
        .map(|i| {
            let samples: Vec<f64> = runs.iter().map(|r| r.tick_ms[i] * r.scale()).collect();
            stats::median(&samples)
        })
        .collect();
    report.set("tick_p50_ms", stats::quantile(&per_slot, 0.5));
    report.set("tick_p99_ms", stats::quantile(&per_slot, 0.99));
    let slots = measured.len();
    if stats::beyond(slots, 990) < stats::MIN_BEYOND {
        report.note(format!(
            "WARNING: {slots} slots leave fewer than 10 beyond p99"
        ));
    }
    report.note(format!(
        "ticks timed: {} replays of {slots} slots; p99 over the {slots} per-slot medians leaves {} beyond; highest tail with >=10 beyond: p{:.1}",
        runs.len(),
        stats::beyond(slots, 990),
        stats::tail_per_mille(slots).unwrap_or(0) as f64 / 10.0
    ));
    let checkpoints: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.checkpoint_ms.iter().map(|ms| ms * r.scale()))
        .collect();
    report.set("checkpoint_ms", stats::median(&checkpoints));
    let setup: Vec<f64> = warm
        .setup_s
        .iter()
        .zip(&warm.setup_scale)
        .map(|(s, k)| s * k)
        .collect();
    report.set("setup_s", stats::median(&setup));
    let scales: Vec<f64> = runs.iter().map(Replay::scale).collect();
    report.note(format!(
        "scale to the reference machine: replays {:.3} (min {:.3}, max {:.3}), boots {:.3}; unscaled: {:.1} decisions/s, tick p50 {:.4} ms, setup {:.4} s",
        stats::median(&scales),
        scales.iter().copied().fold(f64::INFINITY, f64::min),
        scales.iter().copied().fold(0.0, f64::max),
        stats::median(&warm.setup_scale),
        stats::median(&runs.iter().map(|r| decided / r.busy.as_secs_f64()).collect::<Vec<_>>()),
        stats::median(&runs.iter().map(|r| stats::quantile(&r.tick_ms, 0.5)).collect::<Vec<_>>()),
        stats::median(&warm.setup_s),
    ));
    quality(spec, &network, &runs[0], report);
    Ok(())
}

/// Decision quality of the reference replay: mean success probability
/// per request (unserved counts 0), served share, and spend over the
/// pro-rata budget `C·t/T`.
fn quality(spec: &ServeSpec, network: &QdnNetwork, first: &Replay, report: &mut Report) {
    let probs: Vec<f64> = first
        .decisions
        .iter()
        .flat_map(|d| d.success_probabilities(network))
        .collect();
    let served: usize = first.decisions.iter().map(|d| d.assignments().len()).sum();
    let spent: u64 = first.costs.iter().sum();
    let oscar = &spec.config.oscar;
    let allowance = oscar.total_budget * first.costs.len() as f64 / oscar.horizon as f64;
    report.set("mean_success_prob", stats::mean(&probs));
    report.set("served_frac", served as f64 / probs.len().max(1) as f64);
    report.set("budget_use", spent as f64 / allowance);
}
