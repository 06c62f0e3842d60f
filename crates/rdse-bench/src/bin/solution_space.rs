//! Reproduction of the **§5 solution-space size analysis** — the
//! counting argument showing that even the "simple" 28-task example has
//! a huge search space. Every number quoted in the paper is recomputed
//! from first principles (linear-extension DP + closed forms) and
//! checked against the quoted value.

use rdse_cli::Command;
use rdse_graph::{binomial, count_linear_extensions, parallel_chain_orders, Digraph, NodeId};
use rdse_workloads::motion::{first_twenty, motion_detection_app};

fn induced(app: &rdse_model::TaskGraph, keep: &[rdse_model::TaskId]) -> Digraph {
    let mut g = Digraph::new(keep.len());
    let pos = |t: rdse_model::TaskId| keep.iter().position(|&k| k == t);
    for e in app.edges() {
        if let (Some(a), Some(b)) = (pos(e.from), pos(e.to)) {
            g.add_edge(NodeId(a as u32), NodeId(b as u32), 0.0)
                .expect("induced edges are valid");
        }
    }
    g
}

fn row(label: &str, computed: u128, paper: u128) {
    let status = if computed == paper {
        "exact"
    } else {
        "MISMATCH"
    };
    println!("{label:<58} {computed:>16}  {paper:>16}  {status}");
}

/// Takes no flags; the declaration still rejects any and answers `--help`.
static SOLUTION_SPACE: Command = Command {
    name: "solution_space",
    operands: "",
    flags: &[],
    about: "",
};

fn main() {
    SOLUTION_SPACE.parse(std::env::args().skip(1));
    let app = motion_detection_app();
    println!(
        "{:<58} {:>16}  {:>16}  match",
        "quantity", "computed", "paper"
    );
    println!("{}", "-".repeat(100));

    // Chain case: a 28-node chain with k changes of context.
    row("28-chain, 2 context changes: C(28,2)", binomial(28, 2), 378);
    row(
        "28-chain, 6 context changes: C(28,6)",
        binomial(28, 6),
        376_740,
    );

    // Total orders of the first 20 nodes (7-chain ∥ 6-chain after a
    // 7-chain prefix), by DP over order ideals and by closed form.
    let first20 =
        count_linear_extensions(&induced(&app, &first_twenty()), None).expect("small lattice");
    row("total orders, first 20 nodes (DP)", first20, 1716);
    row(
        "total orders, first 20 nodes (C(13,6))",
        parallel_chain_orders(&[7, 6]),
        1716,
    );

    // Total orders of the full graph.
    let all: Vec<rdse_model::TaskId> = app.task_ids().collect();
    let full = count_linear_extensions(&induced(&app, &all), None).expect("small lattice");
    row("total orders, 28 nodes (DP)", full, 348_840);
    row(
        "total orders, 28 nodes (3·C(21,7))",
        3 * parallel_chain_orders(&[7, 14]),
        348_840,
    );

    // Combinations including context changes.
    row(
        "orders × C(28,2) (2 context changes)",
        full * binomial(28, 2),
        131_861_520,
    );
    row(
        "orders × C(28,4) (4 context changes)",
        full * binomial(28, 4),
        7_142_499_000,
    );

    println!();
    println!(
        "(All of this assumes every task on the RC; the spatial partition\n\
         multiplies the space by up to 2^28 ≈ {:.1e} more.)",
        2f64.powi(28)
    );
}
