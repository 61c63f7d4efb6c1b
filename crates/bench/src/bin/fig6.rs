//! Regenerates Fig. 6: EC success rate and qubit usage vs network size
//! (degree-calibrated Waxman topologies).
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig6 [--quick]`

use qdn_bench::figures::{fig6, fig6_shape_holds};
use qdn_bench::report::{sweep_csv, sweep_table};
use qdn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    eprintln!("running fig6 at {scale:?} scale…");
    let points = fig6(scale);
    println!("# Fig. 6 — impact of network size ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("nodes", &points));
    match fig6_shape_holds(&points) {
        Ok(()) => println!("shape check: OK (success falls with size; OSCAR dominates)"),
        Err(e) => println!("shape check: FAILED — {e}"),
    }
    println!();
    println!("{}", sweep_csv("nodes", &points));
}
