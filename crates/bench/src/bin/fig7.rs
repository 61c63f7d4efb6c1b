//! Regenerates Fig. 7: OSCAR's utility/usage trade-off vs the Lyapunov
//! weight `V`.
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig7 [--quick]`

use qdn_bench::figures::{fig7, fig7_shape_holds};
use qdn_bench::report::{sweep_csv, sweep_table};
use qdn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    eprintln!("running fig7 at {scale:?} scale…");
    let points = fig7(scale);
    println!("# Fig. 7 — impact of V ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("V", &points));
    match fig7_shape_holds(&points) {
        Ok(()) => println!("shape check: OK (utility and usage rise with V)"),
        Err(e) => println!("shape check: FAILED — {e}"),
    }
    println!();
    println!("{}", sweep_csv("V", &points));
}
