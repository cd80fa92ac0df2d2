//! Regenerate the paper's evaluation figures as markdown tables.
//!
//! ```text
//! figures [fig8|fig9|fig10|fig11|fig12|fig13|fig14|a8|a9|a10|a12|ablations|all] [--quick]
//! ```
//!
//! Full mode uses the paper's exact workload parameters (400×400 and
//! 800×800 meshes, ε = 8h, 20 timesteps); `--quick` shrinks them for smoke
//! runs.

use nlheat_bench::{ablations, fig10, fig11, fig12, fig13, fig14, fig8, fig9};

/// Every ablation in order: A1–A5, A5b, A6–A10, A10b and A12.
fn print_ablations(quick: bool) {
    println!("{}", ablations::a1_partition_quality(quick).to_markdown());
    println!("{}", ablations::a2_overlap(quick).to_markdown());
    println!("{}", ablations::a3_sd_size(quick).to_markdown());
    println!("{}", ablations::a4_lb_heterogeneous(quick).to_markdown());
    println!("{}", ablations::a5_crack(quick).to_markdown());
    println!("{}", ablations::a5b_moving_crack(quick).to_markdown());
    println!("{}", ablations::a6_network_models(quick).to_markdown());
    println!("{}", ablations::a7_comm_aware_lambda(quick).to_markdown());
    println!("{}", ablations::a8_policy_comparison(quick).to_markdown());
    println!("{}", ablations::a9_ghost_aware_mu(quick).to_markdown());
    println!("{}", ablations::a10_memory_pressure(quick).to_markdown());
    println!("{}", ablations::a10b_plan_time_scaling(quick).to_markdown());
    println!("{}", ablations::a12_repartition(quick).to_markdown());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());

    let run_fig14 = || {
        let out = fig14();
        println!("{}", out.fig.to_markdown());
        for (i, (grid, counts)) in out.grids.iter().zip(&out.counts).enumerate() {
            println!("iteration {i}: counts {counts:?}");
            println!("{grid}");
        }
    };

    match which.as_str() {
        "fig8" => println!("{}", fig8(quick).to_markdown()),
        "fig9" => println!("{}", fig9(quick).to_markdown()),
        "fig10" => println!("{}", fig10(quick).to_markdown()),
        "fig11" => println!("{}", fig11(quick).to_markdown()),
        "fig12" => println!("{}", fig12(quick).to_markdown()),
        "fig13" => println!("{}", fig13(quick).to_markdown()),
        "fig14" => run_fig14(),
        "a8" => println!("{}", ablations::a8_policy_comparison(quick).to_markdown()),
        "a9" => println!("{}", ablations::a9_ghost_aware_mu(quick).to_markdown()),
        "a10" => {
            println!("{}", ablations::a10_memory_pressure(quick).to_markdown());
            println!("{}", ablations::a10b_plan_time_scaling(quick).to_markdown());
        }
        "a12" => println!("{}", ablations::a12_repartition(quick).to_markdown()),
        "ablations" => print_ablations(quick),
        "all" => {
            println!("{}", fig8(quick).to_markdown());
            println!("{}", fig9(quick).to_markdown());
            println!("{}", fig10(quick).to_markdown());
            println!("{}", fig11(quick).to_markdown());
            println!("{}", fig12(quick).to_markdown());
            println!("{}", fig13(quick).to_markdown());
            run_fig14();
            print_ablations(quick);
        }
        other => {
            eprintln!("unknown figure '{other}'");
            eprintln!("usage: figures [fig8..fig14|a8|a9|a10|a12|ablations|all] [--quick]");
            std::process::exit(2);
        }
    }
}
