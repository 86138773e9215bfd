//! The paper's Jobs and Movies case studies (§V-C, Fig. 10): plain
//! collaborative filtering inherits popularity/recency bias; mining
//! single-side fair bicliques from the top-k recommendation graph
//! yields balanced recommendations.
//!
//! ```text
//! cargo run -p fbe-examples --example fair_recommendation
//! ```

use bigraph::Side;
use fair_biclique::prelude::*;
use fbe_datasets::case_studies::{jobs, movies, CaseStudy};
use fbe_datasets::cf::{recommend, recommendation_graph};

/// Share of advantaged-class items (attr 0) in everyone's CF top-k.
fn biased_share(cs: &CaseStudy, k: usize) -> f64 {
    let mut advantaged = 0usize;
    let mut total = 0usize;
    for user in 0..cs.graph.n_upper() as u32 {
        for rec in recommend(&cs.graph, user, k) {
            total += 1;
            if cs.graph.attr(Side::Lower, rec.item) == 0 {
                advantaged += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        advantaged as f64 / total as f64
    }
}

fn run_case(cs: &CaseStudy, top_k: usize, params: FairParams) {
    println!(
        "\n=== {} ===\ninteractions: {} users x {} items, {} edges",
        cs.name,
        cs.graph.n_upper(),
        cs.graph.n_lower(),
        cs.graph.n_edges()
    );

    // Step 1 (paper Fig. 10 a/c/d): plain CF top-5 — measure the bias.
    let share = biased_share(cs, 5);
    println!(
        "plain CF top-5: {:.0}% of recommendations are {} items (bias)",
        share * 100.0,
        cs.lower_attr_names[0]
    );

    // Step 2: build the top-k recommendation graph and mine SSFBCs
    // with the item side fair (paper Fig. 10 b/e).
    let rg = recommendation_graph(&cs.graph, top_k);
    println!("recommendation graph (top-{top_k}): {} edges", rg.n_edges());
    let report = enumerate(&rg, QueryModel::Ssfbc(params), &RunConfig::default());
    println!("fair bicliques ({params}): {}", report.bicliques.len());

    let mut ranked: Vec<_> = report.bicliques.iter().collect();
    ranked.sort_by_key(|b| std::cmp::Reverse(b.len()));
    for bc in ranked.into_iter().take(2) {
        println!("{}", cs.describe(bc));
        // The fairness guarantee: per-attribute item counts within delta.
        let mut tally = [0usize; 2];
        for &v in &bc.lower {
            tally[rg.attr(Side::Lower, v) as usize] += 1;
        }
        println!(
            "  -> both {} and {} items recommended together ({} vs {})",
            cs.lower_attr_names[0], cs.lower_attr_names[1], tally[0], tally[1]
        );
    }
}

fn main() {
    // Jobs: users x jobs; fair side = jobs (popular P vs unpopular U).
    // Paper parameters: alpha=2, beta=2, delta=1, top-10 rec graph.
    run_case(&jobs(2023), 10, FairParams::new(2, 2, 1).expect("valid"));

    // Movies: users x movies (old O vs new N). Same parameters.
    run_case(&movies(2023), 10, FairParams::new(2, 2, 1).expect("valid"));
}
