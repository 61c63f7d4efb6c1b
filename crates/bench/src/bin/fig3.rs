//! Regenerates Fig. 3: time-evolving average utility, EC success rate,
//! and cumulative qubit usage for OSCAR vs MF vs MA.
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig3 [--quick]`

use qdn_bench::figures::fig3;
use qdn_bench::report::{fig3_csv, fig3_summary};
use qdn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    eprintln!("running fig3 at {scale:?} scale…");
    let out = fig3(scale);
    println!("# Fig. 3 — time-evolving performance ({scale:?} scale)");
    println!();
    println!("{}", fig3_summary(&out));
    match out.shape_holds() {
        Ok(()) => println!("shape check: OK (OSCAR > MA, MF under-spends, OSCAR ~ budget)"),
        Err(e) => println!("shape check: FAILED — {e}"),
    }
    println!();
    println!("{}", fig3_csv(&out));
}
