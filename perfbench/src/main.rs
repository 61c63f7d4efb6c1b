//! `qdn-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable summary, then one JSON result line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Exits non-zero, printing no result, when the run
//! cannot complete.

use std::process::ExitCode;
use std::time::Duration;

use qdn_perfbench::metrics::{END_TO_END, PER_LAYER};
use qdn_perfbench::workload::{Scale, Workload};

const USAGE: &str = "usage: qdn-perfbench --workload serve-uniform|serve-persistent-churn|repro-paper --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qdn-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let report = match qdn_perfbench::run(args.workload, args.seed, budget, args.trace, Scale::Full)
    {
        Ok(report) => report,
        Err(e) => {
            eprintln!("qdn-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in report.summary() {
        println!("{line}");
    }
    match report.json(if args.trace { &PER_LAYER } else { &END_TO_END }) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("qdn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
