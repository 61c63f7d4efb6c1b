//! Runs every figure, ablation, extension, event-driven experiment and
//! the Theorem 1–2 check in sequence — the one-shot reproduction of the
//! paper's evaluation section. Exits 1 if any shape check fails and 2
//! on an unknown argument.
//!
//! Usage: `cargo run -p qdn_bench --release --bin run_all [--quick | --paper]`

use qdn_bench::des::{
    budget_violation, budget_violation_shape_holds, des_memory_shape_holds, des_memory_sweep,
    des_validation, des_validation_shape_holds, online_rate_shape_holds, online_rate_sweep,
};
use qdn_bench::figures::{
    ablation_allocation, ablation_gamma, ablation_route_selection, extension_dynamics,
    extension_dynamics_shape_holds, extension_fidelity, extension_fidelity_shape_holds,
    extension_multi_ec, extension_multi_ec_shape_holds, extension_swap, extension_swap_shape_holds,
    extension_topologies, extension_topologies_shape_holds, fig3, fig4, fig5, fig5_shape_holds,
    fig6, fig6_shape_holds, fig7, fig7_shape_holds, fig8, fig8_shape_holds, EXT_DYNAMICS_LABELS,
    EXT_TOPOLOGY_LABELS,
};
use qdn_bench::report::{
    budget_violation_table, des_validation_table, fig3_csv, fig3_summary, fig4_csv, fig4_summary,
    memory_sweep_table, online_rate_table, sweep_csv, sweep_table, theory_table,
};
use qdn_bench::theory::{theory_bounds, theory_shape_holds};
use qdn_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let mut failures = 0usize;
    let mut check = |name: &str, result: Result<(), String>| match result {
        Ok(()) => println!("[{name}] shape check: OK"),
        Err(e) => {
            failures += 1;
            println!("[{name}] shape check: FAILED — {e}");
        }
    };

    eprintln!("fig3…");
    let f3 = fig3(scale);
    println!("{}", fig3_summary(&f3));
    check("fig3", f3.shape_holds());
    println!("{}", fig3_csv(&f3));

    eprintln!("fig4…");
    let f4 = fig4(scale);
    println!("{}", fig4_summary(&f4.rows));
    check("fig4", f4.shape_holds());
    println!("{}", fig4_csv(&f4));

    eprintln!("fig5…");
    let f5 = fig5(scale);
    println!("{}", sweep_table("budget", &f5));
    check("fig5", fig5_shape_holds(&f5));
    println!("{}", sweep_csv("budget", &f5));

    eprintln!("fig6…");
    let f6 = fig6(scale);
    println!("{}", sweep_table("nodes", &f6));
    check("fig6", fig6_shape_holds(&f6));
    println!("{}", sweep_csv("nodes", &f6));

    eprintln!("fig7…");
    let f7 = fig7(scale);
    println!("{}", sweep_table("V", &f7));
    check("fig7", fig7_shape_holds(&f7));
    println!("{}", sweep_csv("V", &f7));

    eprintln!("fig8…");
    let f8 = fig8(scale);
    println!("{}", sweep_table("q0", &f8));
    check("fig8", fig8_shape_holds(&f8));
    println!("{}", sweep_csv("q0", &f8));

    eprintln!("ablations…");
    println!(
        "{}",
        sweep_table("selector", &ablation_route_selection(scale))
    );
    println!("{}", sweep_table("gamma", &ablation_gamma(scale)));
    println!("{}", sweep_table("allocation", &ablation_allocation(scale)));

    eprintln!("extensions…");
    let swap = extension_swap(scale);
    println!("{}", sweep_table("swap_success", &swap));
    check("ext_swap", extension_swap_shape_holds(&swap));
    let dynamics = extension_dynamics(scale);
    println!("# rows: {EXT_DYNAMICS_LABELS:?}");
    println!("{}", sweep_table("dynamics", &dynamics));
    check("ext_dynamics", extension_dynamics_shape_holds(&dynamics));
    let multi = extension_multi_ec(scale);
    println!("{}", sweep_table("max_requests_per_pair", &multi));
    check("ext_multi_ec", extension_multi_ec_shape_holds(&multi));
    let topo = extension_topologies(scale);
    println!("# rows: {EXT_TOPOLOGY_LABELS:?}");
    println!("{}", sweep_table("topology", &topo));
    check("ext_topologies", extension_topologies_shape_holds(&topo));
    let fidelity = extension_fidelity(scale);
    println!("{}", sweep_table("fidelity_target", &fidelity));
    check("ext_fidelity", extension_fidelity_shape_holds(&fidelity));

    eprintln!("event-driven experiments…");
    let des_rows = des_validation(scale);
    println!("{}", des_validation_table(&des_rows));
    check("des_validation", des_validation_shape_holds(&des_rows));
    let online = online_rate_sweep(scale);
    println!("{}", online_rate_table(&online));
    check(
        "online_rate",
        online_rate_shape_holds(&online, scale.scaled_budget(5000.0)),
    );
    let memory = des_memory_sweep(scale);
    println!("# memory sweep, attempt window 0.66s");
    println!("{}", memory_sweep_table(&memory));
    check("des_memory", des_memory_shape_holds(&memory));
    let violation = budget_violation(scale);
    println!("{}", budget_violation_table(&violation));
    check("budget_violation", budget_violation_shape_holds(&violation));

    eprintln!("theorems 1–2…");
    let theory = theory_bounds(scale);
    println!("{}", theory_table(&theory));
    for (name, result) in theory_shape_holds(&theory) {
        check(name, result);
    }

    if failures > 0 {
        eprintln!("{failures} shape check(s) failed");
        std::process::exit(1);
    }
    eprintln!("all shape checks passed");
}
