//! Property tests on the substrate crate: graph construction,
//! intersections, 2-hop projections, coloring, subgraphs, and core
//! peeling invariants.

use bigraph::coloring::greedy_color_by_degree;
use bigraph::twohop::construct_2hop;
use bigraph::{BipartiteGraph, GraphBuilder, Side, UniGraph, VertexId};
use fair_biclique::prepared::QueryModel;
use proptest::prelude::*;

fn graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..9, 2usize..9).prop_flat_map(|(nu, nv)| graph_cells(nu, nv, 2, 2))
}

/// [`graph_strategy`] with a 2- or 3-valued attribute domain on each
/// side.
fn domains_graph_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (2usize..9, 2usize..9, 2u16..4, 2u16..4)
        .prop_flat_map(|(nu, nv, au, al)| graph_cells(nu, nv, au, al))
}

/// An `nu × nv` graph with edge density 0.35 and attribute domains of
/// sizes `au` (upper) and `al` (lower).
fn graph_cells(nu: usize, nv: usize, au: u16, al: u16) -> impl Strategy<Value = BipartiteGraph> {
    (
        proptest::collection::vec(proptest::bool::weighted(0.35), nu * nv),
        proptest::collection::vec(0u16..au, nu),
        proptest::collection::vec(0u16..al, nv),
    )
        .prop_map(move |(cells, ua, la)| {
            let mut b = GraphBuilder::new(au, al);
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

/// The membership masks of a pruned subgraph, over `g`'s vertices.
fn kept_masks(
    g: &BipartiteGraph,
    sub: &bigraph::subgraph::InducedSubgraph,
) -> (Vec<bool>, Vec<bool>) {
    let mask = |n: usize, kept: &[VertexId]| {
        let mut m = vec![false; n];
        for &x in kept {
            m[x as usize] = true;
        }
        m
    };
    (
        mask(g.n_upper(), &sub.upper_to_parent),
        mask(g.n_lower(), &sub.lower_to_parent),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_output_validates(g in graph_strategy()) {
        prop_assert_eq!(g.validate(), Ok(()));
        // Degrees sum to edge count on both sides.
        let du: usize = (0..g.n_upper() as VertexId).map(|u| g.degree(Side::Upper, u)).sum();
        let dv: usize = (0..g.n_lower() as VertexId).map(|v| g.degree(Side::Lower, v)).sum();
        prop_assert_eq!(du, g.n_edges());
        prop_assert_eq!(dv, g.n_edges());
    }

    #[test]
    fn intersection_matches_sets(
        a in proptest::collection::btree_set(0u32..40, 0..20),
        b in proptest::collection::btree_set(0u32..40, 0..20),
    ) {
        let va: Vec<u32> = a.iter().copied().collect();
        let vb: Vec<u32> = b.iter().copied().collect();
        let mut out = Vec::new();
        bigraph::intersect_sorted_into(&va, &vb, &mut out);
        let want: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(&out, &want);
        prop_assert_eq!(bigraph::intersect_sorted_count(&va, &vb), want.len());
        prop_assert_eq!(bigraph::is_sorted_subset(&out, &va), true);
        prop_assert_eq!(bigraph::is_sorted_subset(&out, &vb), true);
    }

    #[test]
    fn twohop_edges_iff_common_neighbors(g in graph_strategy(), alpha in 1usize..4) {
        let h = construct_2hop(&g, Side::Lower, alpha, false);
        prop_assert_eq!(h.n(), g.n_lower());
        for x in 0..g.n_lower() as VertexId {
            for y in (x + 1)..g.n_lower() as VertexId {
                let c = bigraph::intersect_sorted_count(
                    g.neighbors(Side::Lower, x),
                    g.neighbors(Side::Lower, y),
                );
                prop_assert_eq!(h.has_edge(x, y), c >= alpha);
            }
        }
    }

    #[test]
    fn biside_twohop_is_subgraph_of_twohop(g in graph_strategy(), alpha in 1usize..3) {
        let h = construct_2hop(&g, Side::Lower, alpha, false);
        let hb = construct_2hop(&g, Side::Lower, alpha, true);
        for x in 0..hb.n() as VertexId {
            for &y in hb.neighbors(x) {
                // >= alpha per attribute implies >= alpha in total.
                prop_assert!(h.has_edge(x, y));
            }
        }
    }

    #[test]
    fn coloring_is_proper_and_bounded(
        n in 1usize..30,
        edges in proptest::collection::vec((0u32..30, 0u32..30), 0..80),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .filter(|&(a, b)| (a as usize) < n && (b as usize) < n && a != b)
            .collect();
        let g = UniGraph::from_edges(1, vec![0; n], &edges);
        let c = greedy_color_by_degree(&g);
        prop_assert!(c.is_proper(&g));
        prop_assert!((c.n_colors as usize) <= g.max_degree() + 1);
    }

    #[test]
    fn induce_preserves_exactly_internal_edges(g in graph_strategy()) {
        let keep_u: Vec<bool> = (0..g.n_upper()).map(|i| i % 2 == 0).collect();
        let keep_v: Vec<bool> = (0..g.n_lower()).map(|i| i % 3 != 0).collect();
        let sub = bigraph::subgraph::induce(&g, &keep_u, &keep_v);
        prop_assert_eq!(sub.graph.validate(), Ok(()));
        let expected = g
            .edges()
            .filter(|&(u, v)| keep_u[u as usize] && keep_v[v as usize])
            .count();
        prop_assert_eq!(sub.graph.n_edges(), expected);
    }

    #[test]
    fn cfcore_preserves_all_ssfbcs(g in graph_strategy(), alpha in 1u32..3, beta in 0u32..3) {
        use fair_biclique::config::PruneKind;
        use fair_biclique::pipeline::prune;
        use std::collections::BTreeSet;
        let params = fair_biclique::config::FairParams::unchecked(alpha, beta, 2);
        let out = prune(&g, QueryModel::Ssfbc(params), PruneKind::Colorful);
        let keep_u: BTreeSet<u32> = out.sub.upper_to_parent.iter().copied().collect();
        let keep_v: BTreeSet<u32> = out.sub.lower_to_parent.iter().copied().collect();
        for bc in fair_biclique::verify::oracle(&g, QueryModel::Ssfbc(params)) {
            for &u in &bc.upper {
                prop_assert!(keep_u.contains(&u), "upper {} of {} peeled by CFCore", u, bc);
            }
            for &v in &bc.lower {
                prop_assert!(keep_v.contains(&v), "lower {} of {} peeled by CFCore", v, bc);
            }
        }
    }

    #[test]
    fn bcfcore_preserves_all_bsfbcs(
        g in domains_graph_strategy(),
        alpha in 1u32..3,
        beta in 0u32..3,
        delta in 0u32..3,
    ) {
        use fair_biclique::config::PruneKind;
        use fair_biclique::pipeline::prune;
        use std::collections::BTreeSet;
        let params = fair_biclique::config::FairParams::unchecked(alpha, beta, delta);
        let out = prune(&g, QueryModel::Bsfbc(params), PruneKind::Colorful);
        let keep_u: BTreeSet<u32> = out.sub.upper_to_parent.iter().copied().collect();
        let keep_v: BTreeSet<u32> = out.sub.lower_to_parent.iter().copied().collect();
        for bc in fair_biclique::verify::oracle(&g, QueryModel::Bsfbc(params)) {
            for &u in &bc.upper {
                prop_assert!(keep_u.contains(&u), "upper {} of {} peeled by BCFCore", u, bc);
            }
            for &v in &bc.lower {
                prop_assert!(keep_v.contains(&v), "lower {} of {} peeled by BCFCore", v, bc);
            }
        }
    }

    #[test]
    fn io_parsers_never_panic_on_garbage(data in ".*{0,200}") {
        // Failure injection: arbitrary input must yield Ok or a clean
        // Err, never a panic.
        let _ = bigraph::io::read_edge_list(data.as_bytes(), 2, 2);
        let _ = bigraph::io::read_attr_pairs(data.as_bytes());
        let _ = fair_biclique::results::read_tsv(data.as_bytes());
    }

    #[test]
    fn tsv_results_roundtrip(g in graph_strategy()) {
        use fair_biclique::prelude::*;
        let params = FairParams::unchecked(1, 1, 1);
        let report = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
        let mut buf = Vec::new();
        fair_biclique::results::write_tsv(&report.bicliques, &mut buf).unwrap();
        let back = fair_biclique::results::read_tsv(buf.as_slice()).unwrap();
        prop_assert_eq!(back, report.bicliques);
    }

    #[test]
    fn flipped_preserves_structure(g in graph_strategy()) {
        let f = g.flipped();
        prop_assert_eq!(f.validate(), Ok(()));
        prop_assert_eq!(f.n_edges(), g.n_edges());
        for (u, v) in g.edges() {
            prop_assert!(f.has_edge(v, u));
        }
    }
}

// The peel is cheap on these graphs and a seeded defect in one side's
// rule can take a few hundred cases to show, so this block runs more.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn fcore_mask_is_maximal_fair_core(
        g in domains_graph_strategy(),
        alpha in 1u32..=3,
        beta in 0u32..=3,
    ) {
        use fair_biclique::config::{FairParams, PruneKind};
        use fair_biclique::pipeline::prune;
        let params = FairParams::unchecked(alpha, beta, 5);
        for (model, bi) in [(QueryModel::Ssfbc(params), false), (QueryModel::Bsfbc(params), true)] {
            // The peel's core equals the naive fixpoint: fair and maximal.
            let (ku, kv) = kept_masks(&g, &prune(&g, model, PruneKind::FCore).sub);
            let (ru, rv) = fbe_integration::fair_core_fixpoint(&g, alpha, beta, bi);
            prop_assert_eq!(&ku, &ru, "upper masks, bi={}", bi);
            prop_assert_eq!(&kv, &rv, "lower masks, bi={}", bi);
            // Every oracle biclique survives the mask (Lemmas 1 and 3).
            for bc in fair_biclique::verify::oracle(&g, model) {
                for &u in &bc.upper {
                    prop_assert!(ku[u as usize], "upper {} of {} peeled", u, bc);
                }
                for &v in &bc.lower {
                    prop_assert!(kv[v as usize], "lower {} of {} peeled", v, bc);
                }
            }
        }
    }
}

/// Lemma 2's substrate claim (from Pan et al. \[31\]): every vertex of a
/// weak fair `k`-clique survives the ego colorful `k`-core peel. Inside
/// a clique all vertices have distinct colors, so each member keeps
/// `≥ k` colors per attribute among `N(v) ∪ {v}` while the peel runs.
#[test]
fn weak_fair_cliques_survive_ego_colorful_core() {
    use fair_biclique::cfcore::ego_colorful_core;
    use fbe_integration::cliques::{collect_weak_fair_cliques, random_unigraph};
    for seed in 0..10u64 {
        let g = random_unigraph(12, 0.5, seed);
        for k in 1..3u32 {
            let core = ego_colorful_core(&g, k);
            for clique in collect_weak_fair_cliques(&g, k) {
                for &v in &clique {
                    assert!(
                        core[v as usize],
                        "seed {seed} k {k}: vertex {v} of {clique:?} peeled"
                    );
                }
            }
        }
    }
}
