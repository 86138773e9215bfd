//! Rebuild oracle for [`bigraph::partition`]: enumerating each shard
//! of the 2-hop-component partition independently and pooling the
//! results reproduces the whole-graph enumeration exactly — for every
//! model — because a fair biclique's fair side is a clique in the
//! α-threshold 2-hop projection and cliques never span components.
//! At shard α = 1 (the default) this holds for every query parameter
//! choice, which is the property the scatter-gather coordinator
//! stands on.

use bigraph::partition::{plan_shards, shard_edges};
use bigraph::{BipartiteGraph, Side};
use fair_biclique::biclique::Biclique;
use fair_biclique::config::{FairParams, ProParams, RunConfig};
use fair_biclique::pipeline::enumerate;
use fair_biclique::prepared::QueryModel;
use fair_biclique::results::canonical_order;

fn sorted_cfg() -> RunConfig {
    RunConfig {
        sorted: true,
        ..RunConfig::default()
    }
}

/// Enumerate `model` over `g`, canonically ordered.
fn run_model(g: &BipartiteGraph, model: &str, params: FairParams, theta: f64) -> Vec<Biclique> {
    let cfg = sorted_cfg();
    match model {
        "ssfbc" => enumerate(g, QueryModel::Ssfbc(params), &cfg).bicliques,
        "bsfbc" => enumerate(g, QueryModel::Bsfbc(params), &cfg).bicliques,
        "pssfbc" => {
            let p = ProParams::new(params.alpha, params.beta, params.delta, theta).unwrap();
            enumerate(g, QueryModel::Pssfbc(p), &cfg).bicliques
        }
        "pbsfbc" => {
            let p = ProParams::new(params.alpha, params.beta, params.delta, theta).unwrap();
            enumerate(g, QueryModel::Pbsfbc(p), &cfg).bicliques
        }
        other => panic!("unknown model {other}"),
    }
}

/// Union of per-shard enumerations == whole-graph enumeration, with
/// each result found in exactly one shard.
fn assert_rebuild(g: &BipartiteGraph, k: usize, model: &str, params: FairParams, theta: f64) {
    let whole = run_model(g, model, params, theta);
    let plan = plan_shards(g, Side::Lower, 1, k);
    let mut pooled = Vec::new();
    for shard in 0..k {
        let sub = shard_edges(g, &plan, shard);
        let part = run_model(&sub, model, params, theta);
        // Disjointness: a result of this shard must not also appear in
        // any earlier shard (components partition the fair side).
        for bc in &part {
            assert!(
                !pooled.contains(bc),
                "{model} k={k}: result {bc} found in two shards"
            );
        }
        pooled.extend(part);
    }
    canonical_order(&mut pooled);
    assert_eq!(
        pooled, whole,
        "{model} k={k} α={} β={} δ={}: pooled shard results != whole-graph enumeration",
        params.alpha, params.beta, params.delta
    );
}

/// A uniform graph sparse enough to have several 2-hop components.
fn sparse_graph(seed: u64) -> BipartiteGraph {
    bigraph::generate::random_uniform(30, 30, 55, 2, 2, seed)
}

#[test]
fn shard_rebuild_matches_whole_graph_for_every_model() {
    let g = sparse_graph(11);
    let params = FairParams::new(1, 1, 1).unwrap();
    for model in ["ssfbc", "bsfbc", "pssfbc", "pbsfbc"] {
        for k in [1, 2, 3, 5] {
            assert_rebuild(&g, k, model, params, 0.3);
        }
    }
}

#[test]
fn shard_rebuild_holds_across_params_and_densities() {
    for (seed, m) in [(3u64, 40usize), (7, 70), (13, 120)] {
        let g = bigraph::generate::random_uniform(24, 24, m, 2, 2, seed);
        for (a, b, d) in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 2)] {
            let params = FairParams::new(a, b, d).unwrap();
            assert_rebuild(&g, 3, "ssfbc", params, 0.25);
            assert_rebuild(&g, 3, "bsfbc", params, 0.25);
        }
    }
}

#[test]
fn more_shards_than_components_still_rebuilds() {
    // Tiny graph, huge K: most shards are empty, the rebuild is still
    // exact (empty shards enumerate nothing).
    let g = bigraph::generate::random_uniform(10, 10, 14, 2, 2, 5);
    let params = FairParams::new(1, 1, 1).unwrap();
    assert_rebuild(&g, 16, "ssfbc", params, 0.3);
    assert_rebuild(&g, 16, "pbsfbc", params, 0.3);
}
