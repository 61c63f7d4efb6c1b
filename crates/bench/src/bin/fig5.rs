//! Regenerates Fig. 5: EC success rate and qubit usage vs the total
//! budget `C`.
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig5 [--quick]`

use qdn_bench::figures::{fig5, fig5_shape_holds};
use qdn_bench::report::{sweep_csv, sweep_table};
use qdn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    eprintln!("running fig5 at {scale:?} scale…");
    let points = fig5(scale);
    println!("# Fig. 5 — impact of budget ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("budget", &points));
    match fig5_shape_holds(&points) {
        Ok(()) => println!("shape check: OK (success rises with C; OSCAR dominates)"),
        Err(e) => println!("shape check: FAILED — {e}"),
    }
    println!();
    println!("{}", sweep_csv("budget", &points));
}
