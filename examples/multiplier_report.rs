//! Approximate-multiplier library report: generates both the
//! deterministic truncation ladder and an NSGA-II-evolved library
//! (gate pruning + precision scaling) and prints their area/error
//! Pareto fronts — the artifact of the paper's step one.
//!
//! ```text
//! cargo run --release -p carma-core --example multiplier_report
//! ```

use carma_ga::Nsga2Config;
use carma_multiplier::{
    ErrorProfile, LibraryConfig, MultiplierCircuit, MultiplierLibrary, ReductionKind,
};
use carma_netlist::TechNode;

fn print_library(title: &str, lib: &MultiplierLibrary) {
    println!("\n{title} ({} entries):", lib.len());
    println!(
        "  {:<16} {:>11} {:>9} {:>9} {:>9} {:>10}",
        "name", "transistors", "ER", "NMED", "MRED", "area@7nm"
    );
    for e in lib.entries() {
        println!(
            "  {:<16} {:>11} {:>9.4} {:>9.6} {:>9.5} {:>9.1}µ",
            e.name,
            e.transistors(),
            e.profile.error_rate,
            e.profile.nmed,
            e.profile.mred,
            e.circuit.area(TechNode::N7).as_um2()
        );
    }
    let pareto = lib.pareto();
    println!("  Pareto-optimal subset: {} entries", pareto.len());
}

fn main() {
    println!("CARMA approximate-multiplier library report");

    // Honour the workspace-wide scale convention (see carma-bench):
    // `quick` (default) trims the NSGA-II budget so the example doubles
    // as a smoke test; `CARMA_SCALE=full` runs the paper-scale search.
    let full_scale = matches!(std::env::var("CARMA_SCALE").as_deref(), Ok("full"));
    let (population, generations) = if full_scale { (32, 20) } else { (16, 6) };

    // Exact reference circuits: the three reduction schedules.
    println!("\nexact 8×8 multipliers:");
    for kind in ReductionKind::ALL {
        let m = MultiplierCircuit::generate(8, kind);
        let stats = m.netlist().stats();
        println!(
            "  {kind:<8} {:>5} transistors, {:>3} gates deep",
            stats.transistors, stats.depth
        );
    }

    // Deterministic precision-scaling ladder.
    let ladder = MultiplierLibrary::truncation_ladder(8, 4);
    print_library("truncation ladder (precision scaling only)", &ladder);

    // NSGA-II search over pruning + scaling (the paper's generator).
    println!("\nrunning NSGA-II search (pruning + precision scaling)…");
    let evolved = MultiplierLibrary::evolve(LibraryConfig {
        width: 8,
        kind: ReductionKind::Dadda,
        max_truncation: 4,
        max_prunes: 16,
        nsga: Nsga2Config::default()
            .with_population(population)
            .with_generations(generations)
            .with_seed(0xE70),
    });
    print_library("evolved library (NSGA-II)", &evolved);

    // Does the evolved front dominate pure truncation anywhere?
    let exact = ladder.exact().transistors();
    let mut wins = 0;
    for e in evolved.pareto() {
        let trunc_at_same_error = ladder.best_within_mred(e.profile.mred);
        if e.transistors() < trunc_at_same_error.transistors() {
            wins += 1;
        }
    }
    println!(
        "\nevolved units beating the ladder at iso-error: {wins} \
         (exact unit: {exact} transistors)"
    );

    // Spot-check one unit end to end.
    if let Some(worst) = evolved.entries().last() {
        let p = ErrorProfile::exhaustive(&worst.circuit);
        println!(
            "\nspot check `{}`: recomputed MRED {:.5} (library {:.5})",
            worst.name, p.mred, worst.profile.mred
        );
    }
}
