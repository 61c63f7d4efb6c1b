//! Regenerates Fig. 4: the distribution of per-request EC success
//! probabilities (fairness comparison).
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig4 [--quick]`

use qdn_bench::figures::fig4;
use qdn_bench::report::{fig4_csv, fig4_summary};
use qdn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    eprintln!("running fig4 at {scale:?} scale…");
    let out = fig4(scale);
    println!("# Fig. 4 — success-rate distribution ({scale:?} scale)");
    println!();
    println!("{}", fig4_summary(&out.rows));
    match out.shape_holds() {
        Ok(()) => println!("shape check: OK (OSCAR fairest and highest mean)"),
        Err(e) => println!("shape check: FAILED — {e}"),
    }
    println!();
    println!("{}", fig4_csv(&out));
}
