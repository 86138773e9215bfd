//! Invariants on medium graphs (too large for the oracle): algorithm
//! agreement, pruning losslessness, ordering invariance, and
//! definition-level validity of every emitted biclique.

use fair_biclique::biclique::{Biclique, CollectSink};
use fair_biclique::config::{Budget, FairParams, ProParams, PruneKind, RunConfig, VertexOrder};
use fair_biclique::pipeline::{enumerate, run, Algorithm};
use fair_biclique::prepared::QueryModel;
use fbe_integration::{assert_valid_bsfbc, assert_valid_pssfbc, assert_valid_ssfbc, medium_graph};
use std::collections::BTreeSet;

fn ss_set(
    g: &bigraph::BipartiteGraph,
    params: FairParams,
    algo: Algorithm,
    prune: PruneKind,
    order: VertexOrder,
) -> BTreeSet<Biclique> {
    let cfg = RunConfig {
        prune,
        order,
        budget: Budget::UNLIMITED,
        ..RunConfig::default()
    };
    let mut sink = CollectSink::default();
    run(g, QueryModel::Ssfbc(params), algo, &cfg, &mut sink).unwrap();
    let set: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
    assert_eq!(set.len(), sink.bicliques.len(), "duplicates");
    set
}

#[test]
fn ssfbc_agreement_across_algorithms_prunings_orderings() {
    for seed in 0..6u64 {
        let g = medium_graph(seed);
        let params = FairParams::unchecked(2, 2, 1);
        let reference = ss_set(
            &g,
            params,
            Algorithm::FairBcemPP,
            PruneKind::Colorful,
            VertexOrder::DegreeDesc,
        );
        assert!(
            !reference.is_empty(),
            "seed {seed} should have results (planted blocks)"
        );
        for algo in [Algorithm::FairBcem, Algorithm::FairBcemPP] {
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                for order in [VertexOrder::IdAsc, VertexOrder::DegreeDesc] {
                    let got = ss_set(&g, params, algo, prune, order);
                    assert_eq!(
                        got, reference,
                        "seed {seed} algo {algo:?} prune {prune:?} order {order:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn ssfbc_results_satisfy_definition() {
    for seed in 10..16u64 {
        let g = medium_graph(seed);
        for params in [
            FairParams::unchecked(2, 2, 1),
            FairParams::unchecked(3, 2, 2),
        ] {
            let report = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
            for bc in &report.bicliques {
                assert_valid_ssfbc(&g, bc, params);
            }
        }
    }
}

#[test]
fn bsfbc_results_satisfy_definition_and_algorithms_agree() {
    for seed in 20..24u64 {
        let g = medium_graph(seed);
        let params = FairParams::unchecked(2, 2, 1);
        let report = enumerate(&g, QueryModel::Bsfbc(params), &RunConfig::default());
        for bc in &report.bicliques {
            assert_valid_bsfbc(&g, bc, params);
        }
        let reference: BTreeSet<Biclique> = report.bicliques.into_iter().collect();
        for algo in [Algorithm::FairBcem, Algorithm::FairBcemPP] {
            for prune in [PruneKind::FCore, PruneKind::Colorful] {
                let cfg = RunConfig {
                    prune,
                    order: VertexOrder::IdAsc,
                    budget: Budget::UNLIMITED,
                    ..RunConfig::default()
                };
                let mut sink = CollectSink::default();
                run(&g, QueryModel::Bsfbc(params), algo, &cfg, &mut sink).unwrap();
                let got: BTreeSet<Biclique> = sink.bicliques.into_iter().collect();
                assert_eq!(got, reference, "seed {seed} algo {algo:?} prune {prune:?}");
            }
        }
    }
}

#[test]
fn pssfbc_results_satisfy_definition() {
    for seed in 30..34u64 {
        let g = medium_graph(seed);
        let pro = ProParams::new(2, 2, 2, 0.4).unwrap();
        let report = enumerate(&g, QueryModel::Pssfbc(pro), &RunConfig::default());
        for bc in &report.bicliques {
            assert_valid_pssfbc(&g, bc, pro);
        }
    }
}

#[test]
fn every_bsfbc_lower_side_is_an_ssfbc_lower_side() {
    // Observation 6 at medium scale.
    for seed in 40..44u64 {
        let g = medium_graph(seed);
        let params = FairParams::unchecked(2, 2, 1);
        let ss = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
        let bs = enumerate(&g, QueryModel::Bsfbc(params), &RunConfig::default());
        let lowers: BTreeSet<_> = ss.bicliques.iter().map(|b| b.lower.clone()).collect();
        for b in &bs.bicliques {
            assert!(lowers.contains(&b.lower), "seed {seed}: {b}");
        }
    }
}

#[test]
fn tighter_parameters_give_fewer_results() {
    let g = medium_graph(50);
    let loose = enumerate(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(2, 1, 2)),
        &RunConfig::default(),
    );
    let tight_alpha = enumerate(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(4, 1, 2)),
        &RunConfig::default(),
    );
    // Raising alpha can only reduce the count of *qualifying* maximal
    // bicliques' expansions... the paper observes monotone counts.
    assert!(tight_alpha.bicliques.len() <= loose.bicliques.len());
    let tight_beta = enumerate(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(2, 3, 2)),
        &RunConfig::default(),
    );
    assert!(tight_beta.bicliques.len() <= loose.bicliques.len());
}

#[test]
fn budget_yields_subset_on_medium_graphs() {
    let g = medium_graph(60);
    let params = FairParams::unchecked(2, 2, 1);
    let full = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
    let full_set: BTreeSet<_> = full.bicliques.into_iter().collect();
    let cfg = RunConfig {
        budget: Budget::nodes(3),
        ..RunConfig::default()
    };
    let capped = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
    for bc in capped.bicliques {
        assert!(full_set.contains(&bc));
    }
}

#[test]
fn flipped_graph_mines_upper_side_fairness() {
    // Mining the upper side fair = flipping, mining, flipping results.
    let g = medium_graph(70);
    let params = FairParams::unchecked(2, 2, 1);
    let flipped = g.flipped();
    let report = enumerate(&flipped, QueryModel::Ssfbc(params), &RunConfig::default());
    for bc in &report.bicliques {
        // In flipped coordinates: upper = original lower.
        let restored = Biclique::new(bc.lower.clone(), bc.upper.clone());
        fbe_integration::assert_biclique(&g, &restored);
    }
}
