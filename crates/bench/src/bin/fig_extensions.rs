//! Runs the five extension experiments (beyond the paper's evaluation):
//! imperfect swapping, time-varying resource occupancy, multi-EC
//! request load, topology families and fidelity targets. See
//! `crates/bench/README.md` for why each exists.
//!
//! Usage: `cargo run -p qdn_bench --release --bin fig_extensions [--quick]`

use qdn_bench::figures::{
    extension_dynamics, extension_dynamics_shape_holds, extension_fidelity,
    extension_fidelity_shape_holds, extension_multi_ec, extension_multi_ec_shape_holds,
    extension_swap, extension_swap_shape_holds, extension_topologies,
    extension_topologies_shape_holds, EXT_DYNAMICS_LABELS, EXT_TOPOLOGY_LABELS,
};
use qdn_bench::report::{sweep_csv, sweep_table};
use qdn_bench::Scale;

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

    eprintln!("running swap-success extension at {scale:?} scale…");
    let swap = extension_swap(scale);
    println!("# Extension — imperfect entanglement swapping ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("swap_success", &swap));
    check("ext_swap", extension_swap_shape_holds(&swap));
    println!("{}", sweep_csv("swap_success", &swap));

    eprintln!("running dynamics extension at {scale:?} scale…");
    let dynamics = extension_dynamics(scale);
    println!("# Extension — time-varying resource occupancy ({scale:?} scale)");
    println!("# rows: {:?}", EXT_DYNAMICS_LABELS);
    println!();
    println!("{}", sweep_table("dynamics", &dynamics));
    check("ext_dynamics", extension_dynamics_shape_holds(&dynamics));
    println!("{}", sweep_csv("dynamics", &dynamics));

    eprintln!("running multi-EC extension at {scale:?} scale…");
    let multi = extension_multi_ec(scale);
    println!("# Extension — multi-EC requests per SD pair ({scale:?} scale)");
    println!();
    println!("{}", sweep_table("max_requests_per_pair", &multi));
    check("ext_multi_ec", extension_multi_ec_shape_holds(&multi));
    println!("{}", sweep_csv("max_requests_per_pair", &multi));

    eprintln!("running topology-family extension at {scale:?} scale…");
    let topo = extension_topologies(scale);
    println!("# Extension — topology families ({scale:?} scale)");
    println!("# rows: {:?}", EXT_TOPOLOGY_LABELS);
    println!();
    println!("{}", sweep_table("topology", &topo));
    check("ext_topologies", extension_topologies_shape_holds(&topo));
    println!("{}", sweep_csv("topology", &topo));

    eprintln!("running fidelity-target extension at {scale:?} scale…");
    let fidelity = extension_fidelity(scale);
    println!("# Extension — fidelity-constrained routing, F_link = 0.95 ({scale:?} scale)");
    println!("# fidelity_target = 0 means unconstrained");
    println!();
    println!("{}", sweep_table("fidelity_target", &fidelity));
    check("ext_fidelity", extension_fidelity_shape_holds(&fidelity));
    println!("{}", sweep_csv("fidelity_target", &fidelity));

    if failures > 0 {
        eprintln!("{failures} shape check(s) failed");
        std::process::exit(1);
    }
    eprintln!("all extension shape checks passed");
}
