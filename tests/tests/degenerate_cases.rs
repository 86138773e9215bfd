//! Degenerate and boundary configurations, including the paper's
//! hardness argument (§II): with `α` minimal, `β = 0` and `δ = n`, the
//! single-side fair biclique problem *is* maximal biclique enumeration.

use bigraph::{GraphBuilder, Side};
use fair_biclique::biclique::{Biclique, CollectSink};
use fair_biclique::config::{Budget, FairParams, ProParams, RunConfig, Substrate, VertexOrder};
use fair_biclique::mbea::maximal_bicliques;
use fair_biclique::pipeline::{enumerate, run, Algorithm};
use fair_biclique::prepared::QueryModel;
use std::collections::BTreeSet;

#[test]
fn degenerate_params_reduce_to_maximal_biclique_enumeration() {
    // Paper §II: alpha = min, beta = 0, delta = n ==> SSFBC = MBE
    // (restricted to nonempty fair sides and |L| >= alpha).
    for seed in 0..10u64 {
        let g = bigraph::generate::random_uniform(9, 9, 35, 2, 2, seed);
        let n = (g.n_upper() + g.n_lower()) as u32;
        let params = FairParams::unchecked(1, 0, n);
        let report = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
        let ssfbc: BTreeSet<Biclique> = report.bicliques.into_iter().collect();
        let mut sink = CollectSink::default();
        maximal_bicliques(
            &g,
            1,
            1,
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED,
            Substrate::Auto,
            &mut sink,
        );
        let mbe: BTreeSet<Biclique> = sink.bicliques.into_iter().collect();
        assert_eq!(ssfbc, mbe, "seed {seed}");
    }
}

#[test]
fn empty_and_tiny_graphs() {
    let empty = GraphBuilder::new(2, 2).build().unwrap();
    let params = FairParams::unchecked(1, 1, 1);
    assert!(
        enumerate(&empty, QueryModel::Ssfbc(params), &RunConfig::default())
            .bicliques
            .is_empty()
    );
    assert!(
        enumerate(&empty, QueryModel::Bsfbc(params), &RunConfig::default())
            .bicliques
            .is_empty()
    );

    // Single edge, both attrs 0 of a 2-value domain: beta=1 needs the
    // missing attribute value -> nothing.
    let mut b = GraphBuilder::new(2, 2);
    b.add_edge(0, 0);
    let g = b.build().unwrap();
    assert!(
        enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
            .bicliques
            .is_empty()
    );

    // Same edge with a single-value domain: {({0},{0})} is the unique
    // fair biclique.
    let mut b = GraphBuilder::new(1, 1);
    b.add_edge(0, 0);
    let g = b.build().unwrap();
    let got = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default()).bicliques;
    assert_eq!(got, vec![Biclique::new(vec![0], vec![0])]);
}

#[test]
fn attr_domain_of_one_behaves_like_size_constraint() {
    // With one attribute value, fairness degenerates to |R| >= beta.
    for seed in 0..6u64 {
        let g = bigraph::generate::random_uniform(8, 9, 30, 1, 1, seed);
        for beta in 0..3u32 {
            let params = FairParams::unchecked(2, beta, 0);
            let want = fair_biclique::verify::oracle(&g, QueryModel::Ssfbc(params));
            let got: BTreeSet<Biclique> =
                enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
                    .bicliques
                    .into_iter()
                    .collect();
            assert_eq!(got, want, "seed {seed} beta {beta}");
        }
    }
}

#[test]
fn disconnected_components_enumerate_independently() {
    // Two disjoint complete blocks; results are exactly the two blocks.
    let mut b = GraphBuilder::new(2, 2);
    for u in 0..3 {
        for v in 0..4 {
            b.add_edge(u, v);
        }
    }
    for u in 3..6 {
        for v in 4..8 {
            b.add_edge(u, v);
        }
    }
    b.set_attrs_upper(&[0, 1, 0, 1, 0, 1]);
    b.set_attrs_lower(&[0, 1, 0, 1, 0, 1, 0, 1]);
    let g = b.build().unwrap();
    let params = FairParams::unchecked(2, 2, 0);
    let got: BTreeSet<Biclique> = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
        .bicliques
        .into_iter()
        .collect();
    let want: BTreeSet<Biclique> = [
        Biclique::new(vec![0, 1, 2], vec![0, 1, 2, 3]),
        Biclique::new(vec![3, 4, 5], vec![4, 5, 6, 7]),
    ]
    .into_iter()
    .collect();
    assert_eq!(got, want);
}

#[test]
fn all_same_attribute_on_fair_side_yields_nothing_for_beta_one() {
    let mut b = GraphBuilder::new(2, 2);
    for u in 0..4 {
        for v in 0..4 {
            b.add_edge(u, v);
        }
    }
    // lower side all attr 0; domain declares two values.
    b.set_attrs_upper(&[0, 1, 0, 1]);
    b.set_attrs_lower(&[0, 0, 0, 0]);
    let g = b.build().unwrap();
    let report = enumerate(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(1, 1, 4)),
        &RunConfig::default(),
    );
    assert!(
        report.bicliques.is_empty(),
        "missing attribute value can never reach beta=1"
    );
}

#[test]
fn theta_at_half_forces_perfect_balance() {
    for seed in 0..6u64 {
        let g = bigraph::generate::random_uniform(9, 10, 40, 2, 2, seed);
        let pro = ProParams::new(1, 1, 3, 0.5).unwrap();
        let report = enumerate(&g, QueryModel::Pssfbc(pro), &RunConfig::default());
        for bc in &report.bicliques {
            let mut counts = [0u32; 2];
            for &v in &bc.lower {
                counts[g.attr(Side::Lower, v) as usize] += 1;
            }
            assert_eq!(
                counts[0], counts[1],
                "theta=0.5 requires an even split: {bc}"
            );
        }
    }
}

#[test]
fn huge_delta_equals_delta_free_model() {
    // Once delta exceeds the graph size it stops constraining.
    let g = bigraph::generate::random_uniform(9, 10, 40, 2, 2, 3);
    let a = enumerate(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(2, 1, 100)),
        &RunConfig::default(),
    );
    let b = enumerate(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(2, 1, 19)),
        &RunConfig::default(),
    );
    let sa: BTreeSet<Biclique> = a.bicliques.into_iter().collect();
    let sb: BTreeSet<Biclique> = b.bicliques.into_iter().collect();
    assert_eq!(sa, sb);
}

#[test]
fn duplicate_edges_in_input_are_harmless() {
    let mut b = GraphBuilder::new(2, 2);
    for _ in 0..3 {
        for u in 0..3 {
            for v in 0..4 {
                b.add_edge(u, v);
            }
        }
    }
    b.set_attrs_upper(&[0, 1, 0]);
    b.set_attrs_lower(&[0, 0, 1, 1]);
    let g = b.build().unwrap();
    assert_eq!(g.n_edges(), 12);
    let report = enumerate(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(2, 2, 0)),
        &RunConfig::default(),
    );
    assert_eq!(report.bicliques.len(), 1);
}

#[test]
fn zero_node_budget_aborts_immediately_without_panicking() {
    let g = bigraph::generate::random_uniform(10, 10, 50, 2, 2, 4);
    let cfg = RunConfig {
        budget: Budget::nodes(0),
        ..RunConfig::default()
    };
    let mut sink = CollectSink::default();
    let (_, stats) = run(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(1, 1, 1)),
        Algorithm::FairBcemPP,
        &cfg,
        &mut sink,
    )
    .unwrap();
    assert!(stats.aborted);
    assert!(sink.bicliques.is_empty());
}

#[test]
fn isolated_vertices_do_not_disturb_results() {
    let mut b = GraphBuilder::new(2, 2);
    for u in 0..3 {
        for v in 0..4 {
            b.add_edge(u, v);
        }
    }
    b.set_attrs_upper(&[0, 1, 0]);
    b.set_attrs_lower(&[0, 0, 1, 1]);
    b.ensure_vertices(30, 40); // plenty of isolated vertices
    let g = b.build().unwrap();
    let report = enumerate(
        &g,
        QueryModel::Ssfbc(FairParams::unchecked(2, 2, 0)),
        &RunConfig::default(),
    );
    assert_eq!(
        report.bicliques,
        vec![Biclique::new(vec![0, 1, 2], vec![0, 1, 2, 3])]
    );
}
