//! Workload replay against a running daemon, with latency and
//! throughput accounting.
//!
//! The generator builds the *same* network the daemon built (same
//! [`NetworkConfig`](qdn_net::NetworkConfig) + seed → bit-identical topology), instantiates a
//! [`WorkloadConfig`], and drives one `Submit` + `Tick` round-trip per
//! slot, timing each tick. The report carries p50/p99 tick latency
//! (over [`qdn_sim::stats::quantile`]) and decisions per second —
//! requests decided (served or rejected) per wall-clock second of
//! driving the daemon.

use std::io::{Read, Write};
use std::time::Instant;

use qdn_net::workload::{Workload, WorkloadConfig};
use qdn_net::QdnNetwork;
use serde::{Deserialize, Serialize};

use crate::client::{Client, ClientError, SubmitOutcome};
use crate::proto::Advisory;
use crate::shard::slot_rng;

/// RNG stream id for workload draws — distinct from every shard stream
/// and from the daemon's dynamics stream.
const WORKLOAD_STREAM: u64 = 2 << 40;

/// What to replay.
///
/// **Loud compat break (PR 9):** the `faults` field is required — see
/// MIGRATION.md §PR 9.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadConfig {
    /// Slots to drive.
    pub slots: u64,
    /// Seed for the workload's request draws.
    pub seed: u64,
    /// The traffic shape.
    pub workload: WorkloadConfig,
    /// Outage windows to declare (`Advise`) before driving — fault
    /// injection for the daemon's degradation paths.
    pub faults: Vec<Advisory>,
}

impl LoadConfig {
    /// 64 slots of the paper's `U[1,5]` workload, no injected faults.
    pub fn paper_default() -> Self {
        LoadConfig {
            slots: 64,
            seed: 11,
            workload: WorkloadConfig::paper_default(),
            faults: Vec::new(),
        }
    }
}

/// The generator's report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Slots driven.
    pub slots: u64,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests served.
    pub served: u64,
    /// Requests left unserved.
    pub unserved: u64,
    /// Total qubit cost charged.
    pub cost: u64,
    /// Requests dropped because their batch (or filtered resubmit)
    /// touched a dark region — the daemon answered `Degraded`.
    pub degraded: u64,
    /// Advisory windows declared before driving.
    pub advisories: u64,
    /// Wall-clock seconds spent driving (submit + tick round-trips).
    pub elapsed_s: f64,
    /// Requests decided per wall-clock second.
    pub decisions_per_sec: f64,
    /// Median tick round-trip latency, milliseconds.
    pub tick_p50_ms: f64,
    /// 99th-percentile tick round-trip latency, milliseconds.
    pub tick_p99_ms: f64,
}

/// Replays the configured workload through a connected, greeted client.
///
/// Declared faults are advised up front; during the run a `Degraded`
/// answer drops the batch's dark-endpoint requests (counted in
/// [`LoadReport::degraded`]) and resubmits the survivors, so a blackout
/// degrades throughput instead of stalling the generator.
pub fn run<S: Read + Write>(
    client: &mut Client<S>,
    network: &QdnNetwork,
    config: &LoadConfig,
) -> Result<LoadReport, ClientError> {
    for fault in &config.faults {
        client.advise(fault.clone())?;
    }
    let mut workload = config.workload.build();
    let mut submitted = 0u64;
    let mut served = 0u64;
    let mut unserved = 0u64;
    let mut degraded = 0u64;
    let mut cost = 0u64;
    let mut tick_ms = Vec::with_capacity(config.slots as usize);
    let started = Instant::now();
    for t in 0..config.slots {
        let mut rng = slot_rng(config.seed, t, WORKLOAD_STREAM);
        let mut requests = workload.requests(t, network, &mut rng);
        submitted += requests.len() as u64;
        if !requests.is_empty() {
            if let SubmitOutcome::Degraded { dark_nodes, .. } = client.submit(&requests)? {
                let before = requests.len();
                requests.retain(|p| {
                    dark_nodes.binary_search(&p.source().0).is_err()
                        && dark_nodes.binary_search(&p.destination().0).is_err()
                });
                degraded += (before - requests.len()) as u64;
                if !requests.is_empty() {
                    // The survivors avoid every dark node, so this
                    // resubmit must queue.
                    match client.submit(&requests)? {
                        SubmitOutcome::Queued { .. } => {}
                        SubmitOutcome::Degraded { .. } => {
                            return Err(ClientError::Protocol(
                                "filtered resubmit still degraded".into(),
                            ));
                        }
                    }
                }
            }
        }
        let tick_start = Instant::now();
        let (_, decision, slot_cost) = client.tick()?;
        tick_ms.push(tick_start.elapsed().as_secs_f64() * 1e3);
        served += decision.assignments().len() as u64;
        unserved += decision.unserved().len() as u64;
        cost += slot_cost;
    }
    let elapsed_s = started.elapsed().as_secs_f64();
    let decided = served + unserved;
    Ok(LoadReport {
        slots: config.slots,
        submitted,
        served,
        unserved,
        cost,
        degraded,
        advisories: config.faults.len() as u64,
        elapsed_s,
        decisions_per_sec: if elapsed_s > 0.0 {
            decided as f64 / elapsed_s
        } else {
            0.0
        },
        tick_p50_ms: qdn_sim::stats::quantile(&tick_ms, 0.5),
        tick_p99_ms: qdn_sim::stats::quantile(&tick_ms, 0.99),
    })
}
