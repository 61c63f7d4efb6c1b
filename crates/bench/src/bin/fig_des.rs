//! Runs the event-driven experiments: attempt-level model validation,
//! the online-arrival rate sweep, and the budget-violation comparison.
//! See `crates/bench/README.md` for what each demonstrates.
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig_des [--quick]`

use qdn_bench::des::{
    budget_violation, budget_violation_shape_holds, des_memory_shape_holds, des_memory_sweep,
    des_validation, des_validation_shape_holds, online_rate_shape_holds, online_rate_sweep,
};
use qdn_bench::Scale;
use qdn_sim::output::{fmt_f, to_csv, to_table};

fn main() {
    let scale = Scale::from_args();
    let mut failures = 0usize;
    let mut check = |name: &str, result: Result<(), String>| match result {
        Ok(()) => println!("shape check: OK"),
        Err(e) => {
            failures += 1;
            println!("[{name}] shape check: FAILED — {e}");
        }
    };

    eprintln!("running attempt-level validation at {scale:?} scale…");
    let rows = des_validation(scale);
    println!("# DES — attempt-level validation of Eq. 1/2 ({scale:?} scale)");
    println!();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                fmt_f(r.analytic),
                fmt_f(r.realized),
                fmt_f(r.gap),
                fmt_f(r.p50_latency),
                fmt_f(r.p99_latency),
                fmt_f(r.attempts_per_delivery),
            ]
        })
        .collect();
    println!(
        "{}",
        to_table(
            &[
                "policy",
                "analytic",
                "realized",
                "gap",
                "p50_lat_s",
                "p99_lat_s",
                "attempts/EC"
            ],
            &table
        )
    );
    check("des_validation", des_validation_shape_holds(&rows));
    println!(
        "{}",
        to_csv(
            &[
                "policy",
                "analytic",
                "realized",
                "gap",
                "p50_lat_s",
                "p99_lat_s",
                "attempts_per_ec"
            ],
            &table
        )
    );

    eprintln!("running online rate sweep at {scale:?} scale…");
    let online = online_rate_sweep(scale);
    println!("# DES — online arrivals: load sweep ({scale:?} scale)");
    println!();
    let table: Vec<Vec<String>> = online
        .iter()
        .map(|r| {
            vec![
                fmt_f(r.rate),
                r.requests.to_string(),
                fmt_f(r.success),
                r.spend.to_string(),
                r.unpaced_spend.to_string(),
                fmt_f(r.throughput),
                fmt_f(r.mean_latency),
            ]
        })
        .collect();
    println!(
        "{}",
        to_table(
            &[
                "rate_per_s",
                "requests",
                "success",
                "spend",
                "unpaced_spend",
                "thruput_per_s",
                "mean_lat_s"
            ],
            &table
        )
    );
    check(
        "online_rate",
        online_rate_shape_holds(&online, scale.scaled_budget(5000.0)),
    );
    println!(
        "{}",
        to_csv(
            &[
                "rate_per_s",
                "requests",
                "success",
                "spend",
                "unpaced_spend",
                "thruput_per_s",
                "mean_lat_s"
            ],
            &table
        )
    );

    eprintln!("running memory (decoherence) sweep at {scale:?} scale…");
    let memory = des_memory_sweep(scale);
    println!(
        "# DES — where the slot abstraction breaks: memory sweep, window 0.66s ({scale:?} scale)"
    );
    println!();
    let table: Vec<Vec<String>> = memory
        .iter()
        .map(|r| {
            vec![
                fmt_f(r.memory_secs),
                fmt_f(r.analytic),
                fmt_f(r.realized),
                fmt_f(r.analytic - r.realized),
                fmt_f(r.decohered_frac),
            ]
        })
        .collect();
    println!(
        "{}",
        to_table(
            &[
                "memory_s",
                "analytic",
                "realized",
                "over_promise",
                "decohered_frac"
            ],
            &table
        )
    );
    check("des_memory", des_memory_shape_holds(&memory));
    println!(
        "{}",
        to_csv(
            &[
                "memory_s",
                "analytic",
                "realized",
                "over_promise",
                "decohered_frac"
            ],
            &table
        )
    );

    eprintln!("running budget-violation comparison at {scale:?} scale…");
    let violation = budget_violation(scale);
    println!("# DES — budget violation: budget-aware vs throughput-greedy ({scale:?} scale)");
    println!();
    let table: Vec<Vec<String>> = violation
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                fmt_f(r.spend),
                fmt_f(r.spend_over_budget),
                fmt_f(r.success),
            ]
        })
        .collect();
    println!(
        "{}",
        to_table(&["policy", "spend", "spend/C", "avg_success"], &table)
    );
    check("budget_violation", budget_violation_shape_holds(&violation));
    println!(
        "{}",
        to_csv(
            &["policy", "spend", "spend_over_budget", "avg_success"],
            &table
        )
    );

    if failures > 0 {
        eprintln!("{failures} shape check(s) failed");
        std::process::exit(1);
    }
    eprintln!("all DES shape checks passed");
}
