//! Property-based cross-validation of every enumerator against the
//! brute-force oracles on random small graphs — the strongest
//! correctness guarantee in the repository.

use bigraph::{BipartiteGraph, GraphBuilder};
use fair_biclique::biclique::{Biclique, CollectSink};
use fair_biclique::config::{
    Budget, FairParams, ProParams, PruneKind, RunConfig, StopReason, Substrate, VertexOrder,
};
use fair_biclique::pipeline::{enumerate, run, Algorithm};
use fair_biclique::prepared::{PreparedQuery, QueryModel};
use fair_biclique::verify::oracle;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random attributed bipartite graph with `nu x nv`
/// vertices, edge density 0.4, and an attribute domain of 2 or 3
/// values on each side.
fn graph_strategy(nu: usize, nv: usize) -> impl Strategy<Value = BipartiteGraph> {
    (2u16..4, 2u16..4)
        .prop_flat_map(move |(nau, nal)| {
            (
                proptest::collection::vec(proptest::bool::weighted(0.4), nu * nv),
                proptest::collection::vec(0..nau, nu),
                proptest::collection::vec(0..nal, nv),
                Just((nau, nal)),
            )
        })
        .prop_map(move |(cells, ua, la, (nau, nal))| {
            let mut b = GraphBuilder::new(nau, nal);
            b.ensure_vertices(nu, nv);
            for (i, &on) in cells.iter().enumerate() {
                if on {
                    b.add_edge((i / nv) as u32, (i % nv) as u32);
                }
            }
            b.set_attrs_upper(&ua);
            b.set_attrs_lower(&la);
            b.build().expect("valid")
        })
}

fn params_strategy() -> impl Strategy<Value = FairParams> {
    (1u32..4, 0u32..3, 0u32..3).prop_map(|(a, b, d)| FairParams::unchecked(a, b, d))
}

fn collect_ss(
    g: &BipartiteGraph,
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
    assert_eq!(set.len(), sink.bicliques.len(), "duplicate emissions");
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ssfbc_all_algorithms_match_oracle(
        g in graph_strategy(7, 9),
        params in params_strategy(),
        order in prop_oneof![Just(VertexOrder::IdAsc), Just(VertexOrder::DegreeDesc)],
    ) {
        let want = oracle(&g, QueryModel::Ssfbc(params));
        for algo in [Algorithm::Nsf, Algorithm::FairBcem, Algorithm::FairBcemPP] {
            for prune in [PruneKind::None, PruneKind::Colorful] {
                let got = collect_ss(&g, params, algo, prune, order);
                prop_assert_eq!(&got, &want, "algo {:?} prune {:?}", algo, prune);
            }
        }
    }

    #[test]
    fn bsfbc_all_algorithms_match_oracle(
        g in graph_strategy(6, 7),
        params in (1u32..3, 0u32..3, 0u32..3)
            .prop_map(|(a, b, d)| FairParams::unchecked(a, b, d)),
    ) {
        let want = oracle(&g, QueryModel::Bsfbc(params));
        for algo in [Algorithm::Nsf, Algorithm::FairBcem, Algorithm::FairBcemPP] {
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                let cfg = RunConfig { prune, order: VertexOrder::DegreeDesc, ..RunConfig::default() };
                let mut sink = CollectSink::default();
                run(&g, QueryModel::Bsfbc(params), algo, &cfg, &mut sink).unwrap();
                let got: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
                prop_assert_eq!(got.len(), sink.bicliques.len(), "duplicates from {:?}", algo);
                prop_assert_eq!(&got, &want, "algo {:?} prune {:?}", algo, prune);
            }
        }
    }

    #[test]
    fn pssfbc_matches_oracle(
        g in graph_strategy(7, 8),
        theta in prop_oneof![Just(0.0), Just(0.3), Just(0.4), Just(0.5)],
        (a, b, d) in (1u32..3, 1u32..3, 0u32..3),
    ) {
        let pro = ProParams::new(a, b, d, theta).unwrap();
        let want = oracle(&g, QueryModel::Pssfbc(pro));
        for prune in [PruneKind::None, PruneKind::Colorful] {
            let cfg = RunConfig { prune, order: VertexOrder::DegreeDesc, ..RunConfig::default() };
            let got: BTreeSet<Biclique> = enumerate(&g, QueryModel::Pssfbc(pro), &cfg).bicliques.into_iter().collect();
            prop_assert_eq!(&got, &want, "prune {:?}", prune);
        }
    }

    #[test]
    fn pbsfbc_matches_oracle(
        g in graph_strategy(6, 6),
        theta in prop_oneof![Just(0.0), Just(0.35), Just(0.5)],
        (a, b, d) in (1u32..3, 0u32..3, 0u32..3),
    ) {
        let pro = ProParams::new(a, b, d, theta).unwrap();
        let want = oracle(&g, QueryModel::Pbsfbc(pro));
        let cfg = RunConfig::default();
        let got: BTreeSet<Biclique> = enumerate(&g, QueryModel::Pbsfbc(pro), &cfg).bicliques.into_iter().collect();
        prop_assert_eq!(&got, &want);
    }

    #[test]
    fn maximal_bicliques_match_oracle(
        g in graph_strategy(7, 9),
        min_l in 1usize..4,
        min_r in 1usize..4,
    ) {
        use fair_biclique::mbea::maximal_bicliques;
        use fair_biclique::verify::oracle_maximal_bicliques;
        let want = oracle_maximal_bicliques(&g, min_l, min_r);
        let mut sink = CollectSink::default();
        maximal_bicliques(&g, min_l, min_r, VertexOrder::DegreeDesc, Budget::UNLIMITED, Substrate::Auto, &mut sink);
        let got: BTreeSet<Biclique> = sink.bicliques.into_iter().collect();
        prop_assert_eq!(&got, &want);
    }

    /// Count mode, where whole subtrees are tallied, counts what the
    /// oracle enumerates, for all four models at 1 and 3 threads; and a
    /// result cap `K` yields exactly `min(K, total)` with the cap
    /// reported iff it cut something off.
    #[test]
    fn count_mode_matches_oracle_and_honours_result_caps(
        g in graph_strategy(7, 9),
        (a, b, d) in (1u32..3, 0u32..3, 0u32..3),
        theta in prop_oneof![Just(0.0), Just(0.3), Just(0.5)],
    ) {
        let fair = FairParams::unchecked(a, b, d);
        let pro = ProParams::new(a, b, d, theta).unwrap();
        let models = [
            QueryModel::Ssfbc(fair),
            QueryModel::Bsfbc(fair),
            QueryModel::Pssfbc(pro),
            QueryModel::Pbsfbc(pro),
        ];
        for model in models {
            let total = oracle(&g, model).len() as u64;
            let prepared = PreparedQuery::prepare(&g, model, PruneKind::default(), Substrate::Auto);
            for threads in [1usize, 3] {
                let cfg = RunConfig { threads, ..RunConfig::default() };
                let counted = prepared.count(&cfg);
                prop_assert_eq!(counted.stats.emitted, total, "{} threads {}", model, threads);
                prop_assert_eq!(counted.truncated_by, None);
                for k in [0, 1, total / 2, total] {
                    let capped = prepared.count(&RunConfig { budget: Budget::results(k), ..cfg.clone() });
                    prop_assert_eq!(capped.stats.emitted, k.min(total), "{} threads {} K {}", model, threads, k);
                    let want_stop = (k < total).then_some(StopReason::ResultCap);
                    prop_assert_eq!(capped.truncated_by, want_stop, "{} threads {} K {}", model, threads, k);
                }
            }
        }
    }
}
