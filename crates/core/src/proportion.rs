//! Proportion fair biclique enumeration: `FairBCEMPro++` (§III-D) and
//! `BFairBCEMPro++` (§IV-C).
//!
//! Structure mirrors [`crate::fairbcem_pp`] / [`crate::bfairbcem`]
//! with the proportion-aware feasibility and maximality tests:
//!
//! * the fair-set inspection becomes [`crate::fairset::is_fair_pro`];
//! * `Combination` becomes the exact `CombinationPro`
//!   ([`crate::fairset::for_each_max_pro_fair_subset`]), which searches
//!   the maximal feasible size lattice instead of the paper's closed
//!   form (exact for any attribute-domain size; equal to the closed
//!   form on the paper's two-value domains — property-tested).
//!
//! Like the non-proportion miners, both run on the shared walk and
//! drivers ([`crate::prepared`], [`crate::parallel`]); this module holds
//! their expansion steps.

use crate::biclique::BicliqueSink;
use crate::config::{BudgetClock, ProParams};
use crate::fairset::{
    for_each_max_pro_fair_subset, is_fair_pro, is_maximal_fair_subset_pro, AttrCounts,
};
use bigraph::candidate::{AdjOps, CandidateOps};
use bigraph::{BipartiteGraph, Side, VertexId};

/// The proportion analog of [`crate::fairbcem_pp::SsExpander`]: given
/// a maximal biclique `(L, R)`, emit the PSSFBCs it contains via the
/// exact `CombinationPro`.
pub(crate) struct ProSsExpander<'a> {
    pro: ProParams,
    attrs: &'a [bigraph::AttrValueId],
    groups: Vec<Vec<VertexId>>,
    /// Attribute-count scratch, recounted per expansion (no per-call
    /// allocation on the hot path).
    counts: AttrCounts,
    /// Lower-side candidate ops (closure checks intersect the fair
    /// side's adjacency).
    ops: AdjOps<'a>,
    /// Budget over expansion steps: a single `CombinationPro` can be
    /// binomially large.
    pub(crate) clock: BudgetClock,
    /// PSSFBCs emitted so far.
    pub(crate) emitted: u64,
}

impl<'a> ProSsExpander<'a> {
    /// Constructor taking explicit candidate ops and clock — every
    /// worker gets its own handles drawing from the run's shared rows
    /// and countdown.
    pub(crate) fn with_clock(
        g: &'a BipartiteGraph,
        pro: ProParams,
        ops: AdjOps<'a>,
        clock: BudgetClock,
    ) -> Self {
        let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
        ProSsExpander {
            pro,
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
        let params = self.pro.base;
        self.counts.recount(r, self.attrs);
        if is_fair_pro(
            self.counts.as_slice(),
            params.beta,
            params.delta,
            self.pro.theta,
        ) {
            if self.clock.try_result() {
                sink.emit(l, r);
                self.emitted += 1;
            }
            self.clock.tick();
            return;
        }
        for g_attr in self.groups.iter_mut() {
            g_attr.clear();
        }
        for &v in r {
            self.groups[self.attrs[v as usize] as usize].push(v);
        }
        let ops = &mut self.ops;
        let emitted = &mut self.emitted;
        let clock = &mut self.clock;
        for_each_max_pro_fair_subset(
            &self.groups,
            params.beta,
            params.delta,
            self.pro.theta,
            &mut |r_sub| {
                // Empty fair sides are degenerate non-results.
                if !r_sub.is_empty() && ops.closure_matches(r_sub, l.len()) && clock.try_result() {
                    sink.emit(l, r_sub);
                    *emitted += 1;
                }
                clock.tick()
            },
        );
    }
}

/// The upper-side expansion step from PSSFBCs to the PBSFBCs
/// contained in them.
pub(crate) struct ProBiSideExpander<'a> {
    g: &'a BipartiteGraph,
    pro: ProParams,
    /// Upper-side candidate ops (`N(l')` intersects upper adjacency).
    ops: AdjOps<'a>,
    pub(crate) clock: BudgetClock,
    pub(crate) emitted: u64,
    groups: Vec<Vec<VertexId>>,
    /// Long-lived scratch for the per-subset MFSCheck: `N(l')`, the
    /// lower counts of `R'`, and the candidate counts of `N(l') − R'`.
    nl: Vec<VertexId>,
    base: AttrCounts,
    cand: AttrCounts,
}

impl<'a> ProBiSideExpander<'a> {
    /// Constructor taking explicit upper-side candidate ops and a
    /// clock — every worker gets its own handles drawing from the
    /// run's shared rows and countdown.
    pub(crate) fn with_clock(
        g: &'a BipartiteGraph,
        pro: ProParams,
        ops: AdjOps<'a>,
        clock: BudgetClock,
    ) -> Self {
        let n_attrs_u = (g.n_attr_values(Side::Upper) as usize).max(1);
        let n_attrs_l = (g.n_attr_values(Side::Lower) as usize).max(1);
        ProBiSideExpander {
            g,
            pro,
            ops,
            clock,
            emitted: 0,
            groups: vec![Vec::new(); n_attrs_u],
            nl: Vec::new(),
            base: AttrCounts::zeros(n_attrs_l),
            cand: AttrCounts::zeros(n_attrs_l),
        }
    }

    pub(crate) fn expand(&mut self, l: &[VertexId], r: &[VertexId], sink: &mut dyn BicliqueSink) {
        if self.clock.exhausted {
            return;
        }
        let attrs_u = self.g.attrs(Side::Upper);
        let attrs_l = self.g.attrs(Side::Lower);
        for g_attr in self.groups.iter_mut() {
            g_attr.clear();
        }
        for &u in l {
            self.groups[attrs_u[u as usize] as usize].push(u);
        }
        self.base.recount(r, attrs_l);
        let pro = self.pro;
        let ops = &mut self.ops;
        let emitted = &mut self.emitted;
        let clock = &mut self.clock;
        let nl = &mut self.nl;
        let base = &self.base;
        let cand = &mut self.cand;
        for_each_max_pro_fair_subset(
            &self.groups,
            pro.base.alpha,
            pro.base.delta,
            pro.theta,
            &mut |l_sub| {
                ops.common_neighbors_into(l_sub, nl);
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
                if is_maximal_fair_subset_pro(
                    base.as_slice(),
                    cand.as_slice(),
                    pro.base.beta,
                    pro.base.delta,
                    pro.theta,
                ) && clock.try_result()
                {
                    sink.emit(l_sub, r);
                    *emitted += 1;
                }
                clock.tick()
            },
        );
    }
}

/// [`BicliqueSink`] adapter chaining a PSSFBC enumerator into
/// [`ProBiSideExpander::expand`] with a downstream sink.
pub(crate) struct ProBiChainSink<'x, 'g> {
    pub(crate) exp: &'x mut ProBiSideExpander<'g>,
    pub(crate) sink: &'x mut dyn BicliqueSink,
}

impl BicliqueSink for ProBiChainSink<'_, '_> {
    fn emit(&mut self, l: &[VertexId], r: &[VertexId]) {
        self.exp.expand(l, r, self.sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::Biclique;
    use crate::config::{Budget, VertexOrder};
    use crate::prepared::{mine_unpruned, QueryModel};
    use crate::verify::{oracle_pbsfbc, oracle_pssfbc};
    use bigraph::generate::random_uniform;
    use std::collections::BTreeSet;

    fn run(g: &BipartiteGraph, model: QueryModel) -> BTreeSet<Biclique> {
        let report = mine_unpruned(g, model, VertexOrder::DegreeDesc, Budget::UNLIMITED);
        assert!(!report.stats.aborted);
        let set: BTreeSet<Biclique> = report.bicliques.iter().cloned().collect();
        assert_eq!(set.len(), report.bicliques.len(), "no duplicates");
        set
    }

    fn run_ss(g: &BipartiteGraph, pro: ProParams) -> BTreeSet<Biclique> {
        run(g, QueryModel::Pssfbc(pro))
    }

    fn run_bi(g: &BipartiteGraph, pro: ProParams) -> BTreeSet<Biclique> {
        run(g, QueryModel::Pbsfbc(pro))
    }

    #[test]
    fn pssfbc_matches_oracle() {
        for seed in 0..20u64 {
            let g = random_uniform(8, 10, 34, 2, 2, seed);
            for theta in [0.0, 0.3, 0.4, 0.5] {
                for (a, b, d) in [(1, 1, 1), (2, 1, 2), (2, 2, 1)] {
                    let pro = ProParams::new(a, b, d, theta).unwrap();
                    let want = oracle_pssfbc(&g, pro);
                    let got = run_ss(&g, pro);
                    assert_eq!(got, want, "seed {seed} {pro}");
                }
            }
        }
    }

    #[test]
    fn pbsfbc_matches_oracle() {
        for seed in 0..15u64 {
            let g = random_uniform(7, 8, 26, 2, 2, seed);
            for theta in [0.0, 0.35, 0.5] {
                for (a, b, d) in [(1, 1, 1), (1, 1, 2)] {
                    let pro = ProParams::new(a, b, d, theta).unwrap();
                    let want = oracle_pbsfbc(&g, pro);
                    let got = run_bi(&g, pro);
                    assert_eq!(got, want, "seed {seed} {pro}");
                }
            }
        }
    }

    #[test]
    fn theta_zero_equals_plain_model() {
        use crate::config::FairParams;
        for seed in 30..40u64 {
            let g = random_uniform(9, 10, 40, 2, 2, seed);
            let pro = ProParams::new(2, 1, 1, 0.0).unwrap();
            let got = run_ss(&g, pro);
            let plain = run(&g, QueryModel::Ssfbc(FairParams::unchecked(2, 1, 1)));
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
