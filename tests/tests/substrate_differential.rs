//! Differential certification of the candidate-set substrate: every
//! miner must produce byte-identical canonical output and identical
//! merged search statistics on `SortedVec`, `Bitset`, and `Auto`, at
//! 1 and 4 threads.
//!
//! The two representations implement the same exact counts, so the
//! enumeration tree — not just the result set — must coincide: we
//! assert equal `EnumStats::nodes` and `EnumStats::emitted` too.

use bigraph::generate::random_uniform;
use bigraph::{BipartiteGraph, VertexId};
use fair_biclique::biclique::{Biclique, CollectSink};
use fair_biclique::config::{FairParams, ProParams, RunConfig, Substrate};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::pipeline::{enumerate, run, Algorithm};
use fair_biclique::prepared::QueryModel;
use fbe_integration::maximum_of;
use proptest::prelude::*;
use std::collections::BTreeSet;

const SUBSTRATES: [Substrate; 3] = [Substrate::SortedVec, Substrate::Bitset, Substrate::Auto];
const THREADS: [usize; 2] = [1, 4];

fn cfg(substrate: Substrate, threads: usize) -> RunConfig {
    RunConfig {
        substrate,
        threads,
        sorted: true,
        ..RunConfig::default()
    }
}

/// Run `mine` across every substrate × thread-count combination and
/// assert the canonically ordered results and merged node/emission
/// counts all match the serial sorted-vec baseline.
fn assert_differential(
    label: &str,
    mine: impl Fn(&RunConfig) -> fair_biclique::pipeline::RunReport,
) -> Vec<Biclique> {
    let base = mine(&cfg(Substrate::SortedVec, 1));
    for substrate in SUBSTRATES {
        for threads in THREADS {
            let got = mine(&cfg(substrate, threads));
            assert_eq!(
                got.bicliques, base.bicliques,
                "{label}: canonical results diverge at {substrate}/{threads}t"
            );
            assert_eq!(
                got.stats.nodes, base.stats.nodes,
                "{label}: node counts diverge at {substrate}/{threads}t"
            );
            assert_eq!(
                got.stats.emitted, base.stats.emitted,
                "{label}: emission counts diverge at {substrate}/{threads}t"
            );
            assert!(!got.stats.aborted, "{label}: unbudgeted run aborted");
        }
    }
    let set: BTreeSet<&Biclique> = base.bicliques.iter().collect();
    assert_eq!(set.len(), base.bicliques.len(), "{label}: duplicates");
    base.bicliques
}

fn graph(seed: u64, nu: usize, nv: usize, m: usize) -> BipartiteGraph {
    random_uniform(nu, nv, m, 2, 2, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// FairBCEM++ (the substrate-bearing SSFBC miner) across every
    /// combination, cross-checked against the substrate-independent
    /// FairBCEM baseline.
    #[test]
    fn ssfbc_differential(seed in 0u64..1000, m in 28usize..46) {
        let g = graph(seed, 9, 10, m);
        let params = FairParams::unchecked(2, 1, 1);
        let got = assert_differential("ssfbc", |c| enumerate(&g, QueryModel::Ssfbc(params), c));
        // FairBCEM (branch-and-bound, sorted-vec only) agrees on the set.
        let mut bcem = CollectSink::default();
        run(&g, QueryModel::Ssfbc(params), Algorithm::FairBcem, &RunConfig::default(), &mut bcem).unwrap();
        let want: BTreeSet<Biclique> = bcem.bicliques.into_iter().collect();
        let got: BTreeSet<Biclique> = got.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    /// BFairBCEM++ (walker + fair-side + upper-side expansion all on
    /// the substrate).
    #[test]
    fn bsfbc_differential(seed in 0u64..1000, m in 24usize..40) {
        let g = graph(seed, 8, 9, m);
        let params = FairParams::unchecked(1, 1, 1);
        assert_differential("bsfbc", |c| enumerate(&g, QueryModel::Bsfbc(params), c));
    }

    /// The proportion miners (PSSFBC / PBSFBC).
    #[test]
    fn proportion_differential(seed in 0u64..1000, theta in 0.0f64..0.5) {
        let g = graph(seed, 8, 10, 32);
        let pro = ProParams::new(2, 1, 2, theta).unwrap();
        assert_differential("pssfbc", |c| enumerate(&g, QueryModel::Pssfbc(pro), c));
        assert_differential("pbsfbc", |c| enumerate(&g, QueryModel::Pbsfbc(pro), c));
    }

    /// Maximum fair biclique search: the deterministically tie-broken
    /// best result must be substrate- and thread-invariant.
    #[test]
    fn maximum_differential(seed in 0u64..1000, m in 28usize..46) {
        let g = graph(seed, 9, 10, m);
        let params = FairParams::unchecked(2, 1, 1);
        for metric in [SizeMetric::Vertices, SizeMetric::Edges] {
            let (ss_model, bi_model) = (QueryModel::Ssfbc(params), QueryModel::Bsfbc(params));
            let base_ss = maximum_of(&g, ss_model, metric, &cfg(Substrate::SortedVec, 1));
            let base_bi = maximum_of(&g, bi_model, metric, &cfg(Substrate::SortedVec, 1));
            for substrate in SUBSTRATES {
                for threads in THREADS {
                    let c = cfg(substrate, threads);
                    let ss = maximum_of(&g, ss_model, metric, &c);
                    prop_assert_eq!(&ss, &base_ss, "max ssfbc {}/{}t", substrate, threads);
                    let bi = maximum_of(&g, bi_model, metric, &c);
                    prop_assert_eq!(&bi, &base_bi, "max bsfbc {}/{}t", substrate, threads);
                }
            }
        }
    }

    /// Oracle proptest for the BitRows primitives themselves: random
    /// sets vs the sorted-vec intersection.
    #[test]
    fn bitrows_intersection_oracle(
        a in proptest::collection::btree_set(0u32..200, 0..60),
        b in proptest::collection::btree_set(0u32..200, 0..60),
    ) {
        let va: Vec<VertexId> = a.iter().copied().collect();
        let vb: Vec<VertexId> = b.iter().copied().collect();
        let rows = bigraph::BitRows::from_sets(200, &[&va, &vb]);
        let want_count = bigraph::intersect_sorted_count(&va, &vb);
        prop_assert_eq!(bigraph::candidate::and_count(rows.row(0), rows.row(1)), want_count);
        let mut acc = rows.row(0).to_vec();
        bigraph::candidate::and_assign(&mut acc, rows.row(1));
        prop_assert_eq!(bigraph::candidate::count_ones(&acc), want_count);
        let mut got = Vec::new();
        bigraph::candidate::collect_into(&acc, &mut got);
        let mut want = Vec::new();
        bigraph::intersect_sorted_into(&va, &vb, &mut want);
        prop_assert_eq!(got, want);
        // Row membership mirrors set membership.
        for c in 0u32..200 {
            prop_assert_eq!(rows.contains(0, c), a.contains(&c));
        }
    }
}

/// Degenerate shapes run through every combination without panicking
/// and agree on emptiness.
#[test]
fn degenerate_graphs_differential() {
    use bigraph::GraphBuilder;
    let empty = GraphBuilder::new(2, 2).build().unwrap();
    let mut one = GraphBuilder::new(2, 2);
    one.add_edge(0, 0);
    let one = one.build().unwrap();
    let params = FairParams::unchecked(1, 1, 1);
    for g in [&empty, &one] {
        assert_differential("degenerate", |c| enumerate(g, QueryModel::Ssfbc(params), c));
        assert_differential("degenerate-bi", |c| {
            enumerate(g, QueryModel::Bsfbc(params), c)
        });
    }
}

/// A planted dense block large enough that `Auto` resolves to bitsets
/// on the pruned core — make sure the combination pipeline is really
/// exercised end to end on wide rows (> 64 columns ⇒ multi-word).
#[test]
fn planted_blocks_differential_multiword() {
    use bigraph::generate::plant_bicliques;
    let base = random_uniform(80, 90, 500, 2, 2, 5);
    let g = plant_bicliques(&base, 3, 6, 8, 1.0, 6);
    let params = FairParams::unchecked(2, 2, 1);
    let got = assert_differential("planted", |c| enumerate(&g, QueryModel::Ssfbc(params), c));
    assert!(!got.is_empty(), "planted blocks must yield SSFBCs");
}
