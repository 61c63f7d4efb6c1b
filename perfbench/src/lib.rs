//! End-to-end and per-layer benchmark for the OSCAR controller daemon
//! (`qdn_serve`) and the paper reproduction (`qdn_sim`).
//!
//! An untraced run measures the end-to-end metrics of one workload; a
//! traced run measures the per-layer metrics on the same inputs. See
//! `README.md` for the workloads, the metrics and the layer map.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod clock;
pub mod layers;
pub mod metrics;
pub mod repro;
pub mod serve;
pub mod stats;
pub mod workload;

use std::time::Duration;

use metrics::Report;
use workload::{Scale, Workload};

/// Runs `workload` for about `budget` of measurement and returns the
/// report: end-to-end metrics untraced, per-layer metrics traced.
///
/// Every per-layer probe runs on every workload, on that workload's own
/// network, requests and dynamics, so every metric is a measurement;
/// the layer map in `README.md` says where each is expected to move.
pub fn run(
    workload: Workload,
    seed: u64,
    budget: Duration,
    trace: bool,
    scale: Scale,
) -> Result<Report, String> {
    let mut report = Report::default();
    let serve_spec = workload::serve_spec(workload, seed, scale);
    match (serve_spec, trace) {
        (Some(spec), false) => serve::measure(&spec, budget, &mut report)?,
        (Some(spec), true) => {
            let overhead = layers::run(&spec, budget, &mut report)?;
            report.set("trace_overhead", overhead);
            repro::probe(&[workload::sim_probe_experiment(&spec, scale)], &mut report)?;
        }
        (None, false) => {
            repro::measure(
                &workload::repro_experiments(seed, scale),
                budget,
                &mut report,
            )?;
        }
        (None, true) => {
            let overhead = repro::probe(&workload::repro_experiments(seed, scale), &mut report)?;
            report.set("trace_overhead", overhead);
            // The reproduction has no serve layer; its probes replay the
            // same kind of trace (paper network, U[1,5] pairs) in process.
            let spec = workload::serve_spec(Workload::ServeUniform, seed, scale)
                .ok_or("serve-uniform has a serve spec")?;
            layers::run(&spec, budget / 2, &mut report)?;
        }
    }
    if !trace {
        report.set(
            "peak_rss_mb",
            metrics::peak_rss_mb().ok_or("the platform does not report peak RSS")?,
        );
    }
    Ok(report)
}
