//! Quickstart: build a small attributed bipartite graph and enumerate
//! every flavor of fair biclique.
//!
//! ```text
//! cargo run -p fbe-examples --example quickstart
//! ```

use bigraph::GraphBuilder;
use fair_biclique::prelude::*;

fn main() {
    // A collaboration-style graph: 5 projects (upper side; attribute
    // 0 = research, 1 = engineering) and 8 people (lower side;
    // attribute 0 = senior, 1 = junior).
    let mut b = GraphBuilder::new(2, 2);
    b.set_attrs_upper(&[0, 1, 0, 1, 0]);
    b.set_attrs_lower(&[0, 0, 0, 1, 1, 1, 0, 1]);
    // A dense core: projects 0-3 share people 0-5.
    for u in 0..4 {
        for v in 0..6 {
            b.add_edge(u, v);
        }
    }
    // A fringe project with two extra people.
    b.add_edge(4, 6);
    b.add_edge(4, 7);
    b.add_edge(0, 6);
    let g = b.build().expect("valid graph");
    println!("graph: {}", bigraph::stats::graph_stats(&g));

    // Single-side fair bicliques: teams backed by >= 2 projects with
    // >= 2 seniors, >= 2 juniors, and senior/junior gap <= 1.
    let params = FairParams::new(2, 2, 1).expect("valid params");
    let report = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
    println!(
        "\nSSFBC ({params}): {} result(s); pruning kept {}/{} vertices; {} search nodes",
        report.bicliques.len(),
        report.prune.remaining_vertices(),
        report.prune.upper_before + report.prune.lower_before,
        report.stats.nodes,
    );
    for bc in &report.bicliques {
        println!("  {bc}");
    }

    // Bi-side fair bicliques additionally balance the project types.
    let bi = FairParams::new(1, 2, 1).expect("valid params");
    let report = enumerate(&g, QueryModel::Bsfbc(bi), &RunConfig::default());
    println!("\nBSFBC ({bi}): {} result(s)", report.bicliques.len());
    for bc in &report.bicliques {
        println!("  {bc}");
    }

    // Proportion variant: every attribute must also hold >= 40% of its
    // side.
    let pro = ProParams::new(2, 2, 1, 0.4).expect("valid params");
    let report = enumerate(&g, QueryModel::Pssfbc(pro), &RunConfig::default());
    println!("\nPSSFBC ({pro}): {} result(s)", report.bicliques.len());
    for bc in &report.bicliques {
        println!("  {bc}");
    }
}
