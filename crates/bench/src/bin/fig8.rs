//! Regenerates Fig. 8: OSCAR's utility/usage vs the initial virtual
//! queue `q0`.
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig8 [--quick]`

use qdn_bench::figures::{fig8, fig8_shape_holds};
use qdn_bench::report::{sweep_csv, sweep_table};
use qdn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    eprintln!("running fig8 at {scale:?} scale…");
    let points = fig8(scale);
    println!("# Fig. 8 — impact of q0 ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("q0", &points));
    match fig8_shape_holds(&points) {
        Ok(()) => println!("shape check: OK (usage falls with q0; small q0 keeps utility)"),
        Err(e) => println!("shape check: FAILED — {e}"),
    }
    println!();
    println!("{}", sweep_csv("q0", &points));
}
