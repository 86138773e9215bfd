//! `FairBCEM++` (Algorithm 6): combinatorial enumeration of all
//! single-side fair bicliques.
//!
//! Instead of branching on every fair-side subset, `FairBCEM++` walks
//! only the *maximal bicliques* with `|L| ≥ α` (their number is orders
//! of magnitude smaller than the number of fair bicliques) and then
//! expands each into its single-side fair bicliques combinatorially:
//!
//! * if the maximal biclique's `R` is already a fair set, `(L, R)` is
//!   itself an SSFBC (nothing fully connected to `L` remains outside);
//! * otherwise `Combination` (Algorithm 7) produces every *maximal fair
//!   subset* `r' ⊆ R`, and `(L, r')` is an SSFBC iff `N(r') = L`
//!   exactly (a larger common neighborhood means the pair belongs to —
//!   and is produced from — a different maximal biclique, which also
//!   makes the output duplicate-free).
//!
//! Completeness: for any SSFBC `(L*, R*)`, `(L*, N(L*))` is a maximal
//! biclique (a vertex adjacent to all of `N(L*)` is adjacent to all of
//! `R*`, hence in `N(R*) = L*`), and `R*` is one of its maximal fair
//! subsets with `N(R*) = L*`.
//!
//! `FairBCEMPro++` (§III-D) is the same step with the ratio threshold
//! `θ`: proportion-fair inspection and the exact `CombinationPro`
//! ([`crate::fairset::for_each_max_fair_subset`] with `Some(θ)`).
//!
//! This module holds the expansion step; the walk and its drivers are
//! shared by every `++` miner ([`crate::prepared`], [`crate::parallel`]).

use crate::biclique::BicliqueSink;
use crate::config::{BudgetClock, FairParams};
use crate::fairset::{for_each_max_fair_subset, is_fair_with, AttrCounts};
use bigraph::candidate::{AdjOps, CandidateOps};
use bigraph::{BipartiteGraph, Side, VertexId};

/// The expansion step of Algorithm 6 (lines 23–28): given a maximal
/// biclique `(L, R)` with `|L| ≥ α`, emit the SSFBCs it contains —
/// or, with `theta`, the PSSFBCs.
pub(crate) struct SsExpander<'a> {
    params: FairParams,
    /// The proportion models' ratio threshold; `None` for the absolute
    /// models.
    theta: Option<f64>,
    attrs: &'a [bigraph::AttrValueId],
    groups: Vec<Vec<VertexId>>,
    /// Attribute-count scratch, recounted per expansion (no per-call
    /// allocation on the hot path).
    counts: AttrCounts,
    /// Lower-side candidate ops (closure checks intersect the fair
    /// side's adjacency).
    ops: AdjOps<'a>,
    /// Budget over expansion steps: a single `Combination` can produce
    /// binomially many subsets, so the walker's node budget alone
    /// cannot bound a run.
    pub(crate) clock: BudgetClock,
    /// Results emitted so far.
    pub(crate) emitted: u64,
}

impl<'a> SsExpander<'a> {
    /// Constructor taking explicit candidate ops and clock — every
    /// worker gets its own handles drawing from the run's shared rows
    /// and countdown.
    pub(crate) fn with_clock(
        g: &'a BipartiteGraph,
        params: FairParams,
        theta: Option<f64>,
        ops: AdjOps<'a>,
        clock: BudgetClock,
    ) -> Self {
        let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
        SsExpander {
            params,
            theta,
            attrs: g.attrs(Side::Lower),
            groups: vec![Vec::new(); n_attrs],
            counts: AttrCounts::zeros(n_attrs),
            ops,
            clock,
            emitted: 0,
        }
    }

    pub(crate) fn expand(&mut self, l: &[VertexId], r: &[VertexId], sink: &mut dyn BicliqueSink) {
        if self.clock.exhausted {
            return;
        }
        self.counts.recount(r, self.attrs);
        let (beta, delta) = (self.params.beta, self.params.delta);
        if is_fair_with(self.counts.as_slice(), beta, delta, self.theta) {
            if self.clock.try_result() {
                sink.emit(l, r);
                self.emitted += 1;
            }
            self.clock.tick();
            return;
        }
        // Expand into maximal fair subsets (Algorithm 7). The
        // per-attribute groups are long-lived scratch, passed to the
        // combination driver directly (no slice-of-slices rebuild).
        for g_attr in self.groups.iter_mut() {
            g_attr.clear();
        }
        for &v in r {
            self.groups[self.attrs[v as usize] as usize].push(v);
        }
        let ops = &mut self.ops;
        let emitted = &mut self.emitted;
        let clock = &mut self.clock;
        for_each_max_fair_subset(&self.groups, beta, delta, self.theta, &mut |r_sub| {
            // With beta = 0 the unique maximal fair subset can be
            // empty (e.g. counts (3,0) at delta 0); an empty fair
            // side is a degenerate non-result in every model.
            // `(L, r')` is an SSFBC iff `N(r') = L` exactly;
            // `l ⊆ N(r_sub)` holds by construction, so comparing
            // closure size against `|l|` suffices.
            if !r_sub.is_empty() && ops.closure_matches(r_sub, l.len()) && clock.try_result() {
                sink.emit(l, r_sub);
                *emitted += 1;
            }
            clock.tick()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{Biclique, CollectSink};
    use crate::config::{Budget, ProParams, Substrate, VertexOrder};
    use crate::pipeline::RunReport;
    use crate::prepared::{mine_unpruned, QueryModel};
    use crate::verify::oracle;
    use bigraph::candidate::CandidatePlan;
    use bigraph::generate::{plant_bicliques, random_uniform};
    use bigraph::GraphBuilder;
    use std::collections::BTreeSet;

    fn mine(
        g: &BipartiteGraph,
        params: FairParams,
        order: VertexOrder,
        budget: Budget,
    ) -> RunReport {
        mine_unpruned(g, QueryModel::Ssfbc(params), order, budget)
    }

    fn run(g: &BipartiteGraph, params: FairParams, order: VertexOrder) -> BTreeSet<Biclique> {
        collect(mine(g, params, order, Budget::UNLIMITED))
    }

    fn run_ss(g: &BipartiteGraph, pro: ProParams) -> BTreeSet<Biclique> {
        let model = QueryModel::Pssfbc(pro);
        collect(mine_unpruned(
            g,
            model,
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED,
        ))
    }

    fn collect(report: RunReport) -> BTreeSet<Biclique> {
        assert!(!report.stats.aborted);
        let set: BTreeSet<Biclique> = report.bicliques.iter().cloned().collect();
        assert_eq!(set.len(), report.bicliques.len(), "no duplicate emissions");
        assert_eq!(report.stats.emitted as usize, set.len());
        set
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..30u64 {
            let g = random_uniform(8, 10, 32, 2, 2, seed);
            for params in [
                FairParams::unchecked(1, 1, 1),
                FairParams::unchecked(2, 1, 0),
                FairParams::unchecked(2, 2, 1),
                FairParams::unchecked(1, 0, 3),
                FairParams::unchecked(3, 1, 2),
            ] {
                let want = oracle(&g, QueryModel::Ssfbc(params));
                for order in [VertexOrder::IdAsc, VertexOrder::DegreeDesc] {
                    let got = run(&g, params, order);
                    assert_eq!(got, want, "seed {seed} params {params} order {order:?}");
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_planted_blocks() {
        for seed in 0..8u64 {
            let base = random_uniform(9, 11, 20, 2, 2, seed);
            let g = plant_bicliques(&base, 2, 3, 4, 1.0, seed + 40);
            for params in [
                FairParams::unchecked(2, 1, 1),
                FairParams::unchecked(2, 2, 2),
            ] {
                let want = oracle(&g, QueryModel::Ssfbc(params));
                let got = run(&g, params, VertexOrder::DegreeDesc);
                assert_eq!(got, want, "seed {seed} params {params}");
            }
        }
    }

    #[test]
    fn agrees_with_fairbcem() {
        use crate::fairbcem::fairbcem;
        for seed in 50..65u64 {
            let g = random_uniform(10, 12, 55, 2, 2, seed);
            let params = FairParams::unchecked(2, 1, 1);
            let mut a = CollectSink::default();
            fairbcem(
                &g,
                params,
                VertexOrder::DegreeDesc,
                Budget::UNLIMITED.start(),
                &mut a,
            );
            let b = run(&g, params, VertexOrder::DegreeDesc);
            let a: BTreeSet<Biclique> = a.bicliques.into_iter().collect();
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn three_attribute_values() {
        for seed in 0..10u64 {
            let g = random_uniform(8, 9, 30, 2, 3, seed);
            let params = FairParams::unchecked(1, 1, 1);
            let want = oracle(&g, QueryModel::Ssfbc(params));
            let got = run(&g, params, VertexOrder::DegreeDesc);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn closure_check() {
        use bigraph::candidate::CandidateOps;
        let mut b = GraphBuilder::new(1, 1);
        for u in 0..3 {
            for v in 0..3 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(0, 3); // v3 only sees u0
        let g = b.build().unwrap();
        for substrate in [Substrate::SortedVec, Substrate::Bitset] {
            let plan = CandidatePlan::build(&g, substrate, false);
            let mut ops = plan.ops(&g, Side::Lower);
            // N({0,1,2}) = {0,1,2}; N({3}) = {0}
            assert!(ops.closure_matches(&[0, 1, 2], 3));
            assert!(!ops.closure_matches(&[0, 1], 2)); // N({0,1}) = {0,1,2}
            assert!(ops.closure_matches(&[3], 1));
        }
    }

    #[test]
    fn budget_bounds_single_combination_blowup() {
        // A complete 3 x 26 block with unbalanced attributes (16 vs
        // 10) at delta 0 forces Combination to emit C(16,10) = 8008
        // subsets from ONE maximal biclique; the expansion budget must
        // cut that off even though the walker visits only one node.
        let mut b = GraphBuilder::new(1, 2);
        let mut lattrs = Vec::new();
        for v in 0..26u32 {
            for u in 0..3u32 {
                b.add_edge(u, v);
            }
            lattrs.push(u16::from(v >= 16));
        }
        b.set_attrs_lower(&lattrs);
        let g = b.build().unwrap();
        let params = FairParams::unchecked(3, 1, 0);
        let capped = mine(&g, params, VertexOrder::IdAsc, Budget::nodes(50));
        assert!(capped.stats.aborted, "expansion budget must fire");
        assert!(
            capped.bicliques.len() <= 60,
            "emission is bounded by the budget, got {}",
            capped.bicliques.len()
        );
        // And the unbounded run really is big (sanity check of the
        // setup): C(16,10) closure-filtered results still number
        // thousands.
        let full = mine(&g, params, VertexOrder::IdAsc, Budget::UNLIMITED);
        assert!(!full.stats.aborted);
        assert!(full.bicliques.len() > 1000);
    }

    #[test]
    fn budget_abort_subset() {
        let g = random_uniform(12, 14, 90, 2, 2, 7);
        let params = FairParams::unchecked(1, 1, 2);
        let capped = mine(&g, params, VertexOrder::IdAsc, Budget::nodes(8));
        assert!(capped.stats.aborted);
        let full = oracle(&g, QueryModel::Ssfbc(params));
        for b in capped.bicliques {
            assert!(full.contains(&b));
        }
    }

    #[test]
    fn pssfbc_matches_oracle() {
        for seed in 0..20u64 {
            let g = random_uniform(8, 10, 34, 2, 2, seed);
            for theta in [0.0, 0.3, 0.4, 0.5] {
                for (a, b, d) in [(1, 1, 1), (2, 1, 2), (2, 2, 1)] {
                    let pro = ProParams::new(a, b, d, theta).unwrap();
                    let want = oracle(&g, QueryModel::Pssfbc(pro));
                    let got = run_ss(&g, pro);
                    assert_eq!(got, want, "seed {seed} {pro}");
                }
            }
        }
    }

    #[test]
    fn theta_zero_equals_plain_model() {
        for seed in 30..40u64 {
            let g = random_uniform(9, 10, 40, 2, 2, seed);
            let pro = ProParams::new(2, 1, 1, 0.0).unwrap();
            let got = run_ss(&g, pro);
            let plain = run(&g, FairParams::unchecked(2, 1, 1), VertexOrder::DegreeDesc);
            assert_eq!(got, plain, "seed {seed}");
        }
    }

    #[test]
    fn larger_theta_means_fewer_or_equal_results_at_delta_zero() {
        // With delta = 0 the fair sides are perfectly balanced, so
        // every plain SSFBC is proportion-fair for any theta <= 0.5:
        // counts must be monotone across theta in that regime.
        let g = random_uniform(10, 10, 45, 2, 2, 77);
        let mut prev = usize::MAX;
        for theta in [0.5, 0.4, 0.3, 0.0] {
            let pro = ProParams::new(1, 1, 0, theta).unwrap();
            let n = run_ss(&g, pro).len();
            assert!(n <= prev || prev == usize::MAX);
            prev = n;
        }
    }
}
