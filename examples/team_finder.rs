//! Team finder: the "find a team of experts" scenario from the
//! paper's introduction, end to end — mine the *largest* fair team,
//! shortlist the top-k, and summarize the whole result space.
//!
//! Exercises the one execution path: a single
//! [`fair_biclique::prepared::PreparedQuery`] is pruned once and then
//! answers a maximum search ([`fair_biclique::maximum`]), a streamed
//! top-k ([`fair_biclique::biclique::TopKSink`]) and a 4-thread
//! collected run summarized with [`fair_biclique::results`].
//!
//! ```text
//! cargo run --release -p fbe-examples --example team_finder
//! ```

use fair_biclique::maximum::SizeMetric;
use fair_biclique::prelude::*;
use fair_biclique::results::{group_by_lower_signature, summarize};
use fbe_datasets::case_studies::dbda;

fn main() {
    let cs = dbda(2023);
    let g = &cs.graph;
    println!(
        "DBDA collaboration graph: {} papers x {} scholars, {} authorships",
        g.n_upper(),
        g.n_lower(),
        g.n_edges()
    );
    let params = FairParams::new(3, 2, 1).expect("valid params");
    println!("looking for teams with {params}: >=3 joint papers, >=2 of each seniority, gap <=1\n");
    // Prune and resolve the candidate plan once; every query below
    // reuses it.
    let cfg = RunConfig::default();
    let query = PreparedQuery::prepare(g, QueryModel::Ssfbc(params), cfg.prune, cfg.substrate);

    // 1. The single largest fair team, by member count and by
    //    collaboration volume (papers x members).
    for (name, metric) in [
        ("most members+papers", SizeMetric::Vertices),
        ("most pairwise collaborations", SizeMetric::Edges),
    ] {
        let (best, _) = query.maximum(metric, &cfg);
        match best {
            Some(bc) => println!("largest team ({name}):\n{}\n", cs.describe(&bc)),
            None => println!("no fair team exists for {params}"),
        }
    }

    // 2. A top-5 shortlist without materialising every result (one
    //    worker, so one sink).
    let (sinks, stats) = query.stream(&cfg, &|| TopKSink::new(5), &mut SpanRecorder::disabled());
    println!("top-5 of {} fair teams:", stats.emitted);
    for bc in sinks.into_iter().flat_map(TopKSink::into_sorted) {
        let (p, s) = (bc.upper.len(), bc.lower.len());
        println!("  {p} papers x {s} scholars: {bc}");
    }

    // 3. Whole-result-space statistics from a sorted 4-thread run.
    let report = query.execute(&RunConfig {
        threads: 4,
        sorted: true,
        ..cfg
    });
    let summary = summarize(g, &report.bicliques);
    println!(
        "\nacross all {} teams: sizes {}..{}, mean {:.1} papers x {:.1} scholars, \
         mean seniority imbalance {:.2}",
        summary.count,
        summary.min_size,
        summary.max_size,
        summary.mean_upper,
        summary.mean_lower,
        summary.mean_lower_imbalance,
    );
    println!("teams by (senior, junior) composition:");
    for (sig, n) in group_by_lower_signature(g, &report.bicliques) {
        println!("  S={} J={}: {n} team(s)", sig[0], sig[1]);
    }
}
