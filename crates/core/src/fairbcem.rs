//! `FairBCEM` (Algorithm 5): branch-and-bound enumeration of all
//! single-side fair bicliques.
//!
//! The search maintains the paper's four sets:
//!
//! * `R` — chosen fair-side (lower) vertices,
//! * `L` — upper vertices adjacent to *all* of `R`,
//! * `P` — fair-side candidates that may still extend `R`,
//! * `Q` — fair-side vertices already expanded on sibling branches
//!   (duplicate suppression and maximality witnesses).
//!
//! Pruning rules (Observations 2–5):
//!
//! * **Obs. 2** — if for every attribute some `Q`-vertex is fully
//!   connected to `L'`, adding one of each keeps every descendant
//!   extendable: kill the whole branch.
//! * **Obs. 3** — `(L', R')` is a result iff `R'` is fair and a maximal
//!   fair subset of `R' ∪ PFC ∪ QFC` (`MFSCheck`, Algorithm 4).
//! * **Obs. 4** — if every remaining candidate is fully connected and
//!   `R' ∪ P` is fair, absorb all of `P` at once.
//! * **Obs. 5** — cut when `|L'| < α` or some attribute can no longer
//!   reach `β` even using all of `P'`.
//!
//! This module enumerates on an already-pruned graph;
//! [`crate::pipeline::run`] composes pruning + id remapping.

use crate::biclique::{BicliqueSink, EnumStats};
use crate::config::{BudgetClock, FairParams, VertexOrder};
use crate::fairset::{is_fair, is_maximal_fair_subset, AttrCounts};
use crate::ordering::side_order;
use bigraph::{intersect_sorted_count, intersect_sorted_into, BipartiteGraph, Side, VertexId};

/// Run `FairBCEM` on `g` (assumed already pruned; fair side = lower)
/// under `clock`. Results are emitted with `g`'s vertex ids. The
/// bi-side chain hands in a shared-budget clock so the whole chain
/// stops together.
pub(crate) fn fairbcem(
    g: &BipartiteGraph,
    params: FairParams,
    order: VertexOrder,
    clock: BudgetClock,
    sink: &mut dyn BicliqueSink,
) -> EnumStats {
    let mut search = Search {
        g,
        params,
        n_attrs: (g.n_attr_values(Side::Lower) as usize).max(1),
        attrs: g.attrs(Side::Lower),
        sink,
        clock,
        emitted: 0,
        cur_bytes: 0,
        peak_bytes: 0,
    };
    let l: Vec<VertexId> = (0..g.n_upper() as VertexId).collect();
    let p = side_order(g, Side::Lower, order);
    let mut r = Vec::new();
    let mut r_counts = AttrCounts::zeros(search.n_attrs);
    search.backtrack(&l, &mut r, &mut r_counts, &p, &[]);
    EnumStats {
        nodes: search.clock.nodes,
        emitted: search.emitted,
        aborted: search.clock.exhausted,
        stop: search.clock.stop_reason(),
        peak_search_bytes: search.peak_bytes,
        ..EnumStats::default()
    }
}

struct Search<'a> {
    g: &'a BipartiteGraph,
    params: FairParams,
    n_attrs: usize,
    attrs: &'a [bigraph::AttrValueId],
    sink: &'a mut dyn BicliqueSink,
    clock: BudgetClock,
    emitted: u64,
    cur_bytes: usize,
    peak_bytes: usize,
}

impl Search<'_> {
    /// `BackTrackFBCEM`. `p` is in global processing order; `q` holds
    /// previously expanded vertices. `r`/`r_counts` are restored before
    /// returning.
    fn backtrack(
        &mut self,
        l: &[VertexId],
        r: &mut Vec<VertexId>,
        r_counts: &mut AttrCounts,
        p: &[VertexId],
        q: &[VertexId],
    ) {
        let alpha = self.params.alpha as usize;
        let mut l_new: Vec<VertexId> = Vec::new();

        for i in 0..p.len() {
            if !self.clock.tick() {
                return;
            }
            let x = p[i];
            // L' = L ∩ N(x).
            intersect_sorted_into(l, self.g.neighbors(Side::Lower, x), &mut l_new);
            let mut flag = l_new.len() >= alpha;

            let mut q_new: Vec<VertexId> = Vec::new();
            let mut qfc_counts = AttrCounts::zeros(self.n_attrs);
            if flag {
                // Q of this iteration: the inherited q plus the p-prefix
                // already expanded in this frame.
                for &u in q.iter().chain(&p[..i]) {
                    let c = intersect_sorted_count(self.g.neighbors(Side::Lower, u), &l_new);
                    if c == l_new.len() {
                        qfc_counts.inc(self.attrs[u as usize]);
                    }
                    if c >= alpha {
                        q_new.push(u);
                    }
                }
                // Observation 2: every attribute has a fully-connected
                // Q witness -> nothing below is maximal.
                if qfc_counts.as_slice().iter().all(|&c| c > 0) {
                    flag = false;
                }
            }

            if flag {
                r.push(x);
                r_counts.inc(self.attrs[x as usize]);

                let mut pfc: Vec<VertexId> = Vec::new();
                let mut p_new: Vec<VertexId> = Vec::new();
                for &v in &p[i + 1..] {
                    let c = intersect_sorted_count(self.g.neighbors(Side::Lower, v), &l_new);
                    if c == l_new.len() {
                        pfc.push(v);
                    }
                    if c >= alpha {
                        p_new.push(v);
                    }
                }

                // Observation 4: all candidates fully connected and the
                // union fair -> absorb them all.
                let mut merged = 0usize;
                if pfc.len() == p_new.len() && !pfc.is_empty() {
                    let mut union = r_counts.clone();
                    for &v in &pfc {
                        union.inc(self.attrs[v as usize]);
                    }
                    if is_fair(union.as_slice(), self.params.beta, self.params.delta) {
                        for &v in &pfc {
                            r.push(v);
                            r_counts.inc(self.attrs[v as usize]);
                        }
                        merged = pfc.len();
                        pfc.clear();
                        p_new.clear();
                    }
                }

                // Observation 3: emit iff R' is a maximal fair subset
                // of R' ∪ PFC ∪ QFC.
                if is_fair(r_counts.as_slice(), self.params.beta, self.params.delta) {
                    let mut cand = qfc_counts.clone();
                    for &v in &pfc {
                        cand.inc(self.attrs[v as usize]);
                    }
                    if is_maximal_fair_subset(
                        r_counts.as_slice(),
                        cand.as_slice(),
                        self.params.beta,
                        self.params.delta,
                        None,
                    ) && self.clock.try_result()
                    {
                        let mut r_sorted = r.clone();
                        r_sorted.sort_unstable();
                        self.sink.emit(&l_new, &r_sorted);
                        self.emitted += 1;
                    }
                }

                // Observation 5 (second half): every attribute must be
                // able to reach beta using R' plus candidates.
                if !p_new.is_empty() {
                    let mut reach = r_counts.clone();
                    for &v in &p_new {
                        reach.inc(self.attrs[v as usize]);
                    }
                    if reach.as_slice().iter().all(|&c| c >= self.params.beta) {
                        let frame_bytes = (l_new.len() + p_new.len() + q_new.len())
                            * std::mem::size_of::<VertexId>();
                        self.cur_bytes += frame_bytes;
                        self.peak_bytes = self.peak_bytes.max(self.cur_bytes);
                        self.backtrack(&l_new.clone(), r, r_counts, &p_new, &q_new);
                        self.cur_bytes -= frame_bytes;
                    }
                }

                // Restore R'.
                for _ in 0..merged + 1 {
                    let v = r.pop().expect("restore");
                    r_counts.dec(self.attrs[v as usize]);
                }
            }

            if self.clock.exhausted {
                return;
            }
            // x implicitly moves from P to Q (it is in p[..i+1] now).
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{Biclique, CollectSink};
    use crate::config::Budget;
    use crate::prepared::QueryModel;
    use crate::verify::oracle;
    use bigraph::generate::random_uniform;
    use bigraph::GraphBuilder;
    use std::collections::BTreeSet;

    fn run(g: &BipartiteGraph, params: FairParams, order: VertexOrder) -> BTreeSet<Biclique> {
        let mut sink = CollectSink::default();
        let stats = fairbcem(g, params, order, Budget::UNLIMITED.start(), &mut sink);
        assert!(!stats.aborted);
        let set: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
        assert_eq!(set.len(), sink.bicliques.len(), "no duplicate emissions");
        assert_eq!(stats.emitted as usize, sink.bicliques.len());
        set
    }

    #[test]
    fn matches_oracle_on_block_graph() {
        let mut b = GraphBuilder::new(2, 2);
        for u in 0..3 {
            for v in 0..4 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(3, 4);
        b.set_attrs_upper(&[0, 1, 0, 1]);
        b.set_attrs_lower(&[0, 0, 1, 1, 0]);
        let g = b.build().unwrap();
        for params in [
            FairParams::unchecked(2, 1, 1),
            FairParams::unchecked(2, 2, 0),
            FairParams::unchecked(1, 1, 2),
            FairParams::unchecked(3, 2, 1),
        ] {
            let want = oracle(&g, QueryModel::Ssfbc(params));
            let got = run(&g, params, VertexOrder::DegreeDesc);
            assert_eq!(got, want, "params {params}");
        }
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
    fn budget_abort_returns_subset() {
        let g = random_uniform(10, 12, 60, 2, 2, 5);
        let params = FairParams::unchecked(1, 1, 2);
        let mut full = CollectSink::default();
        fairbcem(
            &g,
            params,
            VertexOrder::IdAsc,
            Budget::UNLIMITED.start(),
            &mut full,
        );
        let mut capped = CollectSink::default();
        let stats = fairbcem(
            &g,
            params,
            VertexOrder::IdAsc,
            Budget::nodes(10).start(),
            &mut capped,
        );
        assert!(stats.aborted);
        assert!(stats.nodes <= 11);
        let full_set: BTreeSet<_> = full.bicliques.into_iter().collect();
        for b in capped.bicliques {
            assert!(full_set.contains(&b));
        }
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let g = GraphBuilder::new(2, 2).build().unwrap();
        let got = run(&g, FairParams::unchecked(1, 1, 1), VertexOrder::IdAsc);
        assert!(got.is_empty());
    }

    #[test]
    fn single_attribute_domain() {
        // One attribute value: fairness degenerates to |R| >= beta.
        let mut b = GraphBuilder::new(1, 1);
        for u in 0..3 {
            for v in 0..3 {
                if u != v {
                    b.add_edge(u, v);
                }
            }
        }
        let g = b.build().unwrap();
        let params = FairParams::unchecked(1, 2, 0);
        let want = oracle(&g, QueryModel::Ssfbc(params));
        let got = run(&g, params, VertexOrder::DegreeDesc);
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn observation2_kills_branches() {
        // A graph where every lower vertex is fully connected: the
        // first top-level branch absorbs everything (Observation 4);
        // later branches still recurse while only one attribute has a
        // fully-connected Q witness, but as soon as both attributes
        // are covered Observation 2 kills the subtree — keeping the
        // node count far below the 2^8 subset tree.
        let mut b = GraphBuilder::new(2, 2);
        for u in 0..4 {
            for v in 0..8 {
                b.add_edge(u, v);
            }
        }
        b.set_attrs_upper(&[0, 1, 0, 1]);
        b.set_attrs_lower(&[0, 0, 0, 0, 1, 1, 1, 1]);
        let g = b.build().unwrap();
        let mut sink = CollectSink::default();
        let stats = fairbcem(
            &g,
            FairParams::unchecked(2, 2, 0),
            VertexOrder::IdAsc,
            Budget::UNLIMITED.start(),
            &mut sink,
        );
        assert_eq!(sink.bicliques.len(), 1, "single balanced block");
        assert!(
            stats.nodes < 128,
            "observations 2/4 must keep the tree well below 2^8, got {} nodes",
            stats.nodes
        );
    }

    #[test]
    fn observation5_beta_bound_prunes() {
        // With beta larger than any attribute's reachable count the
        // search must terminate after the first level (no recursion
        // can satisfy beta).
        let g = random_uniform(10, 10, 40, 2, 2, 2);
        let mut sink = CollectSink::default();
        let stats = fairbcem(
            &g,
            FairParams::unchecked(1, 20, 0),
            VertexOrder::IdAsc,
            Budget::UNLIMITED.start(),
            &mut sink,
        );
        assert!(sink.bicliques.is_empty());
        assert!(
            stats.nodes <= 10,
            "beta bound must cut depth, got {}",
            stats.nodes
        );
    }

    #[test]
    fn emission_requires_alpha() {
        // alpha larger than |U| -> nothing, few nodes.
        let g = random_uniform(5, 8, 25, 2, 2, 6);
        let mut sink = CollectSink::default();
        let stats = fairbcem(
            &g,
            FairParams::unchecked(6, 1, 1),
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED.start(),
            &mut sink,
        );
        assert!(sink.bicliques.is_empty());
        assert!(stats.nodes <= 8);
    }

    #[test]
    fn stats_track_nodes_and_bytes() {
        let g = random_uniform(10, 10, 50, 2, 2, 8);
        let mut sink = CollectSink::default();
        let stats = fairbcem(
            &g,
            FairParams::unchecked(1, 1, 1),
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED.start(),
            &mut sink,
        );
        assert!(stats.nodes >= 10);
        assert!(!sink.bicliques.is_empty());
    }
}
