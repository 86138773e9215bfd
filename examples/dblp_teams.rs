//! The paper's DBLP case study (§V-C, Fig. 9): mine fair research
//! teams from scholar–paper collaboration graphs.
//!
//! * **DBDA** — database + AI papers; a single-side fair biclique with
//!   `(α=3, β=3, δ=2)` is a team of scholars with a balanced
//!   senior/junior mix who co-authored ≥ 3 papers.
//! * **DBDS** — database + systems papers; a bi-side fair biclique
//!   with `(α=1, β=2, δ=2)` additionally balances the papers across
//!   the two venue areas.
//!
//! ```text
//! cargo run -p fbe-examples --example dblp_teams
//! ```

use fair_biclique::prelude::*;
use fbe_datasets::case_studies::{dbda, dbds, CaseStudy};

fn show(cs: &CaseStudy, label: &str, bicliques: &[fair_biclique::biclique::Biclique], k: usize) {
    println!("\n=== {} ({} result(s)) ===", label, bicliques.len());
    // Show the largest few, Fig. 9-style.
    let mut ranked: Vec<_> = bicliques.iter().collect();
    ranked.sort_by_key(|b| std::cmp::Reverse(b.len()));
    for bc in ranked.into_iter().take(k) {
        println!("{}", cs.describe(bc));
    }
}

fn main() {
    // --- DBDA: single-side fair teams (paper: α=3, β=3, δ=2) ---
    let cs = dbda(2023);
    println!(
        "DBDA: {} papers x {} scholars, {} authorships",
        cs.graph.n_upper(),
        cs.graph.n_lower(),
        cs.graph.n_edges()
    );
    let params = FairParams::new(3, 3, 2).expect("valid");
    let report = enumerate(&cs.graph, QueryModel::Ssfbc(params), &RunConfig::default());
    show(&cs, &format!("DBDA SSFBC {params}"), &report.bicliques, 2);

    // --- DBDA: bi-side fair teams (paper: α=1, β=2, δ=2) ---
    let bi = FairParams::new(1, 2, 2).expect("valid");
    let report = enumerate(&cs.graph, QueryModel::Bsfbc(bi), &RunConfig::default());
    show(&cs, &format!("DBDA BSFBC {bi}"), &report.bicliques, 2);

    // --- DBDS: single-side (paper: α=2, β=2, δ=2) ---
    let cs = dbds(2023);
    println!(
        "\nDBDS: {} papers x {} scholars, {} authorships",
        cs.graph.n_upper(),
        cs.graph.n_lower(),
        cs.graph.n_edges()
    );
    let params = FairParams::new(2, 2, 2).expect("valid");
    let report = enumerate(&cs.graph, QueryModel::Ssfbc(params), &RunConfig::default());
    show(&cs, &format!("DBDS SSFBC {params}"), &report.bicliques, 2);

    // --- DBDS: bi-side (paper: α=1, β=2, δ=2) ---
    let report = enumerate(&cs.graph, QueryModel::Bsfbc(bi), &RunConfig::default());
    show(&cs, &format!("DBDS BSFBC {bi}"), &report.bicliques, 2);
}
