//! Naive baseline `NSF` (§V-A of the paper); `BNSF` is Algorithm 9
//! over it ([`crate::bfairbcem`]).
//!
//! The paper's comparison baselines keep the *graph* pruning
//! (FCore/CFCore — applied by the pipeline before calling in here) but
//! drop every *search-space* pruning rule: no Observation 2 branch
//! kill, no Observation 4 batch absorption, no Observation 5 size
//! cuts, and no candidate filtering by `α`-connectivity. The search
//! therefore explores (almost) the full subset tree of the fair side,
//! checking each node against the raw SSFBC definition.
//!
//! One structural cut remains: a branch whose `L'` is empty can never
//! satisfy `|L| ≥ α ≥ 1` again (L only shrinks), so recursion below it
//! would enumerate every subset of `V` to no effect; the paper's NSF
//! terminates on its datasets, which is only possible with this cut.

use crate::biclique::{BicliqueSink, EnumStats};
use crate::config::{BudgetClock, FairParams, VertexOrder};
use crate::fairset::{is_fair, is_maximal_fair_subset, AttrCounts};
use crate::ordering::side_order;
use bigraph::{intersect_sorted_count, intersect_sorted_into, BipartiteGraph, Side, VertexId};

/// Run `NSF` on `g` (assumed already pruned; fair side = lower) under
/// `clock`. `BNSF` hands in a shared-budget clock so the whole chain
/// stops together.
pub(crate) fn nsf(
    g: &BipartiteGraph,
    params: FairParams,
    order: VertexOrder,
    clock: BudgetClock,
    sink: &mut dyn BicliqueSink,
) -> EnumStats {
    let mut s = Naive {
        g,
        params,
        n_attrs: (g.n_attr_values(Side::Lower) as usize).max(1),
        attrs: g.attrs(Side::Lower),
        sink,
        clock,
        emitted: 0,
    };
    let l: Vec<VertexId> = (0..g.n_upper() as VertexId).collect();
    let p = side_order(g, Side::Lower, order);
    let mut r = Vec::new();
    let mut counts = AttrCounts::zeros(s.n_attrs);
    s.rec(&l, &mut r, &mut counts, &p, &[]);
    EnumStats {
        nodes: s.clock.nodes,
        emitted: s.emitted,
        aborted: s.clock.exhausted,
        stop: s.clock.stop_reason(),
        peak_search_bytes: 0,
        ..EnumStats::default()
    }
}

struct Naive<'a> {
    g: &'a BipartiteGraph,
    params: FairParams,
    n_attrs: usize,
    attrs: &'a [bigraph::AttrValueId],
    sink: &'a mut dyn BicliqueSink,
    clock: BudgetClock,
    emitted: u64,
}

impl Naive<'_> {
    fn rec(
        &mut self,
        l: &[VertexId],
        r: &mut Vec<VertexId>,
        r_counts: &mut AttrCounts,
        p: &[VertexId],
        q: &[VertexId],
    ) {
        let mut l_new: Vec<VertexId> = Vec::new();
        for i in 0..p.len() {
            if !self.clock.tick() {
                return;
            }
            let x = p[i];
            intersect_sorted_into(l, self.g.neighbors(Side::Lower, x), &mut l_new);
            if l_new.is_empty() {
                continue; // structural cut (see module docs)
            }

            r.push(x);
            r_counts.inc(self.attrs[x as usize]);

            // Full candidate bookkeeping — no alpha filters.
            let mut q_new: Vec<VertexId> = Vec::new();
            let mut fc_counts = AttrCounts::zeros(self.n_attrs);
            for &u in q.iter().chain(&p[..i]) {
                let c = intersect_sorted_count(self.g.neighbors(Side::Lower, u), &l_new);
                if c == l_new.len() {
                    fc_counts.inc(self.attrs[u as usize]);
                }
                if c > 0 {
                    q_new.push(u);
                }
            }
            let mut p_new: Vec<VertexId> = Vec::new();
            for &v in &p[i + 1..] {
                let c = intersect_sorted_count(self.g.neighbors(Side::Lower, v), &l_new);
                if c == l_new.len() {
                    fc_counts.inc(self.attrs[v as usize]);
                }
                if c > 0 {
                    p_new.push(v);
                }
            }

            // Raw definition check at every node.
            if l_new.len() >= self.params.alpha as usize
                && is_fair(r_counts.as_slice(), self.params.beta, self.params.delta)
                && is_maximal_fair_subset(
                    r_counts.as_slice(),
                    fc_counts.as_slice(),
                    self.params.beta,
                    self.params.delta,
                    None,
                )
                && self.clock.try_result()
            {
                let mut r_sorted = r.clone();
                r_sorted.sort_unstable();
                self.sink.emit(&l_new, &r_sorted);
                self.emitted += 1;
            }

            if !p_new.is_empty() {
                let l_child = l_new.clone();
                self.rec(&l_child, r, r_counts, &p_new, &q_new);
            }

            let v = r.pop().expect("restore");
            r_counts.dec(self.attrs[v as usize]);
            if self.clock.exhausted {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfairbcem::bi_side_baseline;
    use crate::biclique::{Biclique, CollectSink};
    use crate::config::{Budget, Substrate};
    use crate::fairbcem::fairbcem;
    use crate::prepared::QueryModel;
    use crate::verify::oracle;
    use bigraph::generate::random_uniform;
    use std::collections::BTreeSet;

    #[test]
    fn nsf_matches_oracle() {
        for seed in 0..20u64 {
            let g = random_uniform(7, 8, 26, 2, 2, seed);
            for params in [
                FairParams::unchecked(1, 1, 1),
                FairParams::unchecked(2, 1, 0),
                FairParams::unchecked(2, 2, 1),
            ] {
                let want = oracle(&g, QueryModel::Ssfbc(params));
                let mut sink = CollectSink::default();
                let stats = nsf(
                    &g,
                    params,
                    VertexOrder::IdAsc,
                    Budget::UNLIMITED.start(),
                    &mut sink,
                );
                assert!(!stats.aborted);
                let got: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
                assert_eq!(got.len(), sink.bicliques.len(), "no duplicates");
                assert_eq!(got, want, "seed {seed} params {params}");
            }
        }
    }

    #[test]
    fn bnsf_matches_oracle() {
        for seed in 0..10u64 {
            let g = random_uniform(6, 7, 20, 2, 2, seed);
            let params = FairParams::unchecked(1, 1, 1);
            let want = oracle(&g, QueryModel::Bsfbc(params));
            let mut sink = CollectSink::default();
            let stats = bi_side_baseline(
                &g,
                params,
                nsf,
                VertexOrder::DegreeDesc,
                Budget::UNLIMITED,
                Substrate::SortedVec,
                &mut sink,
            );
            assert!(!stats.aborted);
            let got: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn nsf_explores_more_nodes_than_fairbcem() {
        let g = random_uniform(10, 12, 60, 2, 2, 4);
        let params = FairParams::unchecked(2, 2, 1);
        let mut s1 = CollectSink::default();
        let naive = nsf(
            &g,
            params,
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED.start(),
            &mut s1,
        );
        let mut s2 = CollectSink::default();
        let smart = fairbcem(
            &g,
            params,
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED.start(),
            &mut s2,
        );
        assert!(
            naive.nodes >= smart.nodes,
            "naive {} vs fairbcem {}",
            naive.nodes,
            smart.nodes
        );
        let a: BTreeSet<Biclique> = s1.bicliques.into_iter().collect();
        let b: BTreeSet<Biclique> = s2.bicliques.into_iter().collect();
        assert_eq!(a, b);
    }
}
