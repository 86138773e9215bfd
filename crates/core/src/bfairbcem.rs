//! `BNSF` / `BFairBCEM` / `BFairBCEM++` (Algorithm 9): bi-side fair
//! biclique enumeration.
//!
//! All three rest on Observation 6: for any BSFBC `(A, B)`, the pair
//! `(N(B), B)` is a *single-side* fair biclique — `B` is fair, and any
//! fair extension of `B` against `N(B)` would extend `(A, B)` too. So
//! the driver enumerates SSFBCs (with `NSF`, `FairBCEM` or
//! `FairBCEM++`) and expands each `(L', R')`:
//!
//! 1. `Combination(L', A(U), α, δ)` yields every maximal fair subset
//!    `l' ⊆ L'` (candidate upper sides);
//! 2. `(l', R')` is a BSFBC iff `R'` is a maximal fair subset of
//!    `N(l')` (`MFSCheck`).
//!
//! Non-redundancy: an emitted pair determines its source SSFBC
//! (`L' = N(R')`), and `Combination` emits each `l'` once.
//!
//! `BFairBCEMPro++` (§IV-C) is the same step with the ratio threshold
//! `θ`: `CombinationPro` on the upper side and the proportion-aware
//! `MFSCheck` on the lower.

use crate::biclique::{BicliqueSink, EnumStats};
use crate::config::{
    Budget, BudgetClock, BudgetLane, FairParams, SharedBudget, Substrate, VertexOrder,
};
use crate::fairset::{is_maximal_fair_subset, AttrCounts, Combiner};
use bigraph::candidate::{AdjOps, BitOps, BitRows, CandidateOps, SortedOps};
use bigraph::{BipartiteGraph, Side, VertexId};

/// The upper-side expansion step of Algorithm 9 (lines 4–8): given an
/// SSFBC `(L', R')`, emit the BSFBCs contained in it — or, with
/// `theta`, the PBSFBCs contained in a PSSFBC.
///
/// Holds no sink — callers pass one per call ([`BiChainSink`] wires
/// it behind an SSFBC enumerator; every enumeration worker owns its
/// own expander + sink pair).
pub(crate) struct BiSideExpander<'a> {
    g: &'a BipartiteGraph,
    params: FairParams,
    /// The proportion models' ratio threshold; `None` for the absolute
    /// models.
    theta: Option<f64>,
    /// Upper-side candidate ops (`N(l')` intersects upper adjacency).
    ops: AdjOps<'a>,
    /// Budget over upper-side expansion steps (one `Combination` can
    /// be binomially large).
    pub(crate) clock: BudgetClock,
    /// Results emitted so far.
    pub emitted: u64,
    /// `L'` grouped by upper attribute, and `Combination` over it.
    comb: Combiner,
    n_attrs_u: usize,
    /// Long-lived scratch for the per-subset MFSCheck: `N(l')`, the
    /// lower counts of `R'`, and the candidate counts of `N(l') − R'`.
    nl: Vec<VertexId>,
    base: AttrCounts,
    cand: AttrCounts,
}

impl<'a> BiSideExpander<'a> {
    /// Constructor taking explicit upper-side candidate ops and a
    /// clock — every worker gets its own handles drawing from the
    /// run's shared rows and countdown.
    pub(crate) fn with_clock(
        g: &'a BipartiteGraph,
        params: FairParams,
        theta: Option<f64>,
        ops: AdjOps<'a>,
        clock: BudgetClock,
    ) -> Self {
        let n_attrs_u = (g.n_attr_values(Side::Upper) as usize).max(1);
        let n_attrs_l = (g.n_attr_values(Side::Lower) as usize).max(1);
        BiSideExpander {
            g,
            params,
            theta,
            ops,
            clock,
            emitted: 0,
            comb: Combiner::default(),
            n_attrs_u,
            nl: Vec::new(),
            base: AttrCounts::zeros(n_attrs_l),
            cand: AttrCounts::zeros(n_attrs_l),
        }
    }

    pub(crate) fn expand(&mut self, l: &[VertexId], r: &[VertexId], sink: &mut dyn BicliqueSink) {
        if self.clock.exhausted {
            return;
        }
        // Group L' by upper attribute for Combination.
        let attrs_l = self.g.attrs(Side::Lower);
        self.comb
            .load_by_attr(l, self.g.attrs(Side::Upper), self.n_attrs_u);

        self.base.recount(r, attrs_l);
        let (params, theta) = (self.params, self.theta);
        let ops = &mut self.ops;
        let emitted = &mut self.emitted;
        let clock = &mut self.clock;
        let nl = &mut self.nl;
        let base = &self.base;
        let cand = &mut self.cand;
        self.comb
            .for_each_max_fair_subset(params.alpha, params.delta, theta, &mut |l_sub| {
                // Candidates for extending R': N(l_sub) \ R'.
                ops.common_neighbors_into(l_sub, nl);
                debug_assert!(bigraph::is_sorted_subset(r, nl), "R' ⊆ N(l')");
                cand.clear();
                let mut i = 0usize;
                for &v in nl.iter() {
                    while i < r.len() && r[i] < v {
                        i += 1;
                    }
                    if i < r.len() && r[i] == v {
                        continue;
                    }
                    cand.inc(attrs_l[v as usize]);
                }
                if is_maximal_fair_subset(
                    base.as_slice(),
                    cand.as_slice(),
                    params.beta,
                    params.delta,
                    theta,
                ) && clock.try_result()
                {
                    sink.emit(l_sub, r);
                    *emitted += 1;
                }
                clock.tick()
            });
    }
}

/// [`BicliqueSink`] adapter chaining a single-side enumerator into
/// [`BiSideExpander::expand`] with a downstream sink.
pub(crate) struct BiChainSink<'x, 'g> {
    /// The bi-side expansion state.
    pub(crate) exp: &'x mut BiSideExpander<'g>,
    /// Where the bi-side results land.
    pub(crate) sink: &'x mut dyn BicliqueSink,
}

impl BicliqueSink for BiChainSink<'_, '_> {
    fn emit(&mut self, l: &[VertexId], r: &[VertexId]) {
        self.exp.expand(l, r, self.sink);
    }
}

/// A single-side baseline walk (`NSF` or `FairBCEM`) over an
/// already-pruned graph, emitting with the graph's ids under a clock.
pub(crate) type SsBaseline =
    fn(&BipartiteGraph, FairParams, VertexOrder, BudgetClock, &mut dyn BicliqueSink) -> EnumStats;

/// The bitset rows [`bi_side_baseline`] builds on `substrate`: the
/// upper side's only, since the single-side baselines walk CSR
/// adjacency and only the upper-side expansion reads rows. `None` on
/// the sorted-vec substrate.
pub(crate) fn upper_rows(g: &BipartiteGraph, substrate: Substrate) -> Option<BitRows> {
    (substrate.resolve_for(g) == Substrate::Bitset).then(|| BitRows::from_side(g, Side::Upper))
}

/// Algorithm 9 over a single-side baseline: `BNSF` over `NSF`, or
/// `BFairBCEM` over `FairBCEM`, with the upper-side expansion on the
/// given candidate substrate. (`BFairBCEM++` runs on the
/// prepared-query path, [`crate::prepared::PreparedQuery`].)
pub(crate) fn bi_side_baseline(
    g: &BipartiteGraph,
    params: FairParams,
    walk: SsBaseline,
    order: VertexOrder,
    budget: Budget,
    substrate: Substrate,
    sink: &mut dyn BicliqueSink,
) -> EnumStats {
    // One shared budget across all stages: the SSFBC stage is
    // intermediate (exempt from the result cap — only BSFBCs are
    // final results), but any tripped limit stops the whole chain.
    let rows = upper_rows(g, substrate);
    let ops = match &rows {
        Some(rows) => AdjOps::Bit(BitOps::new(g, Side::Upper, rows)),
        None => AdjOps::Sorted(SortedOps::new(g, Side::Upper)),
    };
    let shared = SharedBudget::new(budget);
    let mut expander =
        BiSideExpander::with_clock(g, params, None, ops, shared.clock(BudgetLane::Expand));
    let mut chain = BiChainSink {
        exp: &mut expander,
        sink,
    };
    let inner_clock = shared.clock(BudgetLane::Walk).exempt_results();
    let mut stats = walk(g, params, order, inner_clock, &mut chain);
    stats.emitted = expander.emitted;
    expander.clock.settle(&mut stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{Biclique, CollectSink};
    use crate::config::ProParams;
    use crate::fairbcem::fairbcem;
    use crate::prepared::{mine_unpruned, QueryModel};
    use crate::verify::oracle;
    use bigraph::generate::random_uniform;
    use bigraph::GraphBuilder;
    use std::collections::BTreeSet;

    fn run(
        g: &BipartiteGraph,
        params: FairParams,
        order: VertexOrder,
        pp: bool,
    ) -> BTreeSet<Biclique> {
        let (bicliques, stats) = if pp {
            let report = mine_unpruned(g, QueryModel::Bsfbc(params), order, Budget::UNLIMITED);
            (report.bicliques, report.stats)
        } else {
            let mut sink = CollectSink::default();
            let stats = bi_side_baseline(
                g,
                params,
                fairbcem,
                order,
                Budget::UNLIMITED,
                Substrate::Auto,
                &mut sink,
            );
            (sink.bicliques, stats)
        };
        assert!(!stats.aborted);
        let set: BTreeSet<Biclique> = bicliques.iter().cloned().collect();
        assert_eq!(set.len(), bicliques.len(), "no duplicate emissions");
        assert_eq!(stats.emitted as usize, set.len());
        set
    }

    #[test]
    fn matches_oracle_on_block() {
        let mut b = GraphBuilder::new(2, 2);
        for u in 0..4 {
            for v in 0..5 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 5);
        b.set_attrs_upper(&[0, 1, 0, 1, 0]);
        b.set_attrs_lower(&[0, 0, 1, 1, 0, 1]);
        let g = b.build().unwrap();
        for params in [
            FairParams::unchecked(1, 1, 1),
            FairParams::unchecked(2, 2, 1),
            FairParams::unchecked(1, 2, 0),
        ] {
            let want = oracle(&g, QueryModel::Bsfbc(params));
            for pp in [false, true] {
                let got = run(&g, params, VertexOrder::DegreeDesc, pp);
                assert_eq!(got, want, "params {params} pp={pp}");
            }
        }
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..25u64 {
            let g = random_uniform(7, 8, 26, 2, 2, seed);
            for params in [
                FairParams::unchecked(1, 1, 1),
                FairParams::unchecked(1, 1, 0),
                FairParams::unchecked(2, 1, 1),
                FairParams::unchecked(1, 2, 2),
            ] {
                let want = oracle(&g, QueryModel::Bsfbc(params));
                for pp in [false, true] {
                    for order in [VertexOrder::IdAsc, VertexOrder::DegreeDesc] {
                        let got = run(&g, params, order, pp);
                        assert_eq!(
                            got, want,
                            "seed {seed} params {params} pp={pp} order {order:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bsfbc_upper_sides_are_fair() {
        let g = random_uniform(8, 8, 30, 2, 2, 99);
        let params = FairParams::unchecked(1, 1, 1);
        let got = run(&g, params, VertexOrder::DegreeDesc, true);
        for b in &got {
            let cu = AttrCounts::of(&b.upper, g.attrs(Side::Upper), 2);
            let cl = AttrCounts::of(&b.lower, g.attrs(Side::Lower), 2);
            assert!(crate::fairset::is_fair(cu.as_slice(), 1, 1), "{b}");
            assert!(crate::fairset::is_fair(cl.as_slice(), 1, 1), "{b}");
            for &u in &b.upper {
                for &v in &b.lower {
                    assert!(g.has_edge(u, v), "{b}");
                }
            }
        }
    }

    #[test]
    fn three_attrs_both_sides() {
        for seed in 0..8u64 {
            let g = random_uniform(7, 7, 28, 3, 2, seed);
            let params = FairParams::unchecked(1, 1, 2);
            let want = oracle(&g, QueryModel::Bsfbc(params));
            let got = run(&g, params, VertexOrder::DegreeDesc, true);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    fn run_bi(g: &BipartiteGraph, pro: ProParams) -> BTreeSet<Biclique> {
        let model = QueryModel::Pbsfbc(pro);
        let report = mine_unpruned(g, model, VertexOrder::DegreeDesc, Budget::UNLIMITED);
        assert!(!report.stats.aborted);
        let set: BTreeSet<Biclique> = report.bicliques.iter().cloned().collect();
        assert_eq!(set.len(), report.bicliques.len(), "no duplicates");
        set
    }

    #[test]
    fn pbsfbc_matches_oracle() {
        for seed in 0..15u64 {
            let g = random_uniform(7, 8, 26, 2, 2, seed);
            for theta in [0.0, 0.35, 0.5] {
                for (a, b, d) in [(1, 1, 1), (1, 1, 2)] {
                    let pro = ProParams::new(a, b, d, theta).unwrap();
                    let want = oracle(&g, QueryModel::Pbsfbc(pro));
                    let got = run_bi(&g, pro);
                    assert_eq!(got, want, "seed {seed} {pro}");
                }
            }
        }
    }
}
