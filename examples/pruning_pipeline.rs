//! Walk through the pruning pipeline on a scaled benchmark graph:
//! fair α-β core (`FCore`) vs colorful fair α-β core (`CFCore`), then
//! enumerate on the pruned remainder — the paper's Exp-1 in miniature.
//!
//! ```text
//! cargo run --release -p fbe-examples --example pruning_pipeline
//! ```

use fair_biclique::pipeline::{prune, run};
use fair_biclique::prelude::*;
use fbe_datasets::corpus::{spec, Dataset};
use std::time::Instant;

fn main() {
    let spec = spec(Dataset::Youtube);
    let g = spec.build();
    println!(
        "dataset {}: {}",
        spec.dataset,
        bigraph::stats::graph_stats(&g)
    );
    let params = spec.single_params();
    let model = QueryModel::Ssfbc(params);
    println!("single-side params: {params}");

    // FCore vs CFCore (Fig. 3's two curves).
    let t = Instant::now();
    let f = prune(&g, model, PruneKind::FCore);
    let f_time = t.elapsed();
    let t = Instant::now();
    let c = prune(&g, model, PruneKind::Colorful);
    let c_time = t.elapsed();
    println!(
        "FCore : kept {:>6} vertices ({} edges) in {:?}",
        f.stats.remaining_vertices(),
        f.stats.edges_after,
        f_time
    );
    println!(
        "CFCore: kept {:>6} vertices ({} edges) in {:?}",
        c.stats.remaining_vertices(),
        c.stats.edges_after,
        c_time
    );

    // Bi-side pruning (Fig. 4's two curves).
    let bi = spec.bi_params();
    let bf = prune(&g, QueryModel::Bsfbc(bi), PruneKind::FCore);
    let bc = prune(&g, QueryModel::Bsfbc(bi), PruneKind::Colorful);
    println!(
        "BFCore : kept {:>6} vertices | BCFCore: kept {:>6} vertices ({bi})",
        bf.stats.remaining_vertices(),
        bc.stats.remaining_vertices()
    );

    // Enumerate on the pruned graph with both algorithms.
    for (name, algo) in [
        ("FairBCEM  ", Algorithm::FairBcem),
        ("FairBCEM++", Algorithm::FairBcemPP),
    ] {
        let mut sink = CountSink::default();
        let t = Instant::now();
        let (_, stats) = run(&g, model, algo, &RunConfig::default(), &mut sink)
            .expect("every algorithm runs the absolute models");
        println!(
            "{name}: {} SSFBCs, {} search nodes, {:?}",
            sink.count,
            stats.nodes,
            t.elapsed()
        );
    }
}
