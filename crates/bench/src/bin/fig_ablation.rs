//! Runs the three ablations: route-selection strategy, Gibbs temperature
//! γ, and allocation method. `crates/bench/README.md` says why each
//! exists and keeps their ledger.
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig_ablation [--quick]`

use qdn_bench::figures::{ablation_allocation, ablation_gamma, ablation_route_selection};
use qdn_bench::report::{sweep_csv, sweep_table};
use qdn_bench::Scale;

fn main() {
    let scale = Scale::from_args();

    eprintln!("running route-selection ablation at {scale:?} scale…");
    let rs = ablation_route_selection(scale);
    println!("# Ablation — route selection ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("variant", &rs));
    println!("{}", sweep_csv("variant", &rs));

    eprintln!("running gamma ablation at {scale:?} scale…");
    let g = ablation_gamma(scale);
    println!("# Ablation — Gibbs temperature γ ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("gamma", &g));
    println!("{}", sweep_csv("gamma", &g));

    eprintln!("running allocation ablation at {scale:?} scale…");
    let a = ablation_allocation(scale);
    println!("# Ablation — allocation method ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("variant", &a));
    println!("{}", sweep_csv("variant", &a));
}
