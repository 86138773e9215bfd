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
//! ## The closure check as a covering filter
//!
//! The walk hands over `(L, R)` with `L = N(R)`. Let `R'` be one of the
//! subsets `Combination` generates, with `k_a` members in each
//! attribute group `R_a` (the size vector `k`). Every `u ∈ L` is
//! adjacent to all of `R ⊇ R'`, so `L ⊆ N(R')`, and `N(R') = L` fails
//! iff some `u ∉ L` is adjacent to every vertex of `R'`. Such a `u` has
//! at least `k_a` neighbours in every `R_a`: it misses at most
//! `|R_a| − k_a` members of `R_a`, so it is adjacent to at least one of
//! any `|R_a| − k_a + 1` of them. The expansion takes such a seed set
//! from the group where it is smallest (a single vertex, the one of
//! least degree, in a group `Combination` takes whole), counts the
//! neighbours in each group of every `u ∉ L` adjacent to a seed, and
//! keeps the cover `W = {u ∉ L : |N(u) ∩ R_a| ≥ k_a for every a}`, once
//! per expansion and size vector. Vertices outside `W` can cover no
//! `R'`, so dropping them loses nothing.
//!
//! The subsets are generated by a DFS that picks members group by group
//! (`fairset::Combiner`). It carries `W_cur`, the members of `W`
//! adjacent to every pick so far; `W_cur` only shrinks down the tree.
//! * **Leaf test.** At a leaf the picks are `R'`, so `W_cur` is exactly
//!   the set of `u ∉ L` adjacent to all of `R'`: `(L, R')` is kept iff
//!   `W_cur` is empty. No neighbourhood is intersected.
//! * **Dead subtree.** If some `u ∈ W_cur` is adjacent to every
//!   candidate still to be chosen from (the rest of the current group
//!   and all of each later group with `k_b > 0`), then `u` is adjacent
//!   to every completion, so no leaf below is kept and the subtree is
//!   cut.
//! * **Tally.** A subtree's completions are the products of
//!   `C(remaining_a, left)` choices in the current group and `C(|R_b|,
//!   k_b)` in each later group. A completion is kept iff no `u ∈ W_cur`
//!   is adjacent to all of it, and the completions inside `N(T)` for a
//!   set `T ⊆ W_cur` are counted by the same product over `R_b ∩ N(T)`.
//!   By inclusion–exclusion, the subtree holds
//!   `Σ_{T ⊆ W_cur} (−1)^{|T|} Π C(|remaining ∩ N(T)|, need)` kept
//!   leaves; with `W_cur` empty that is the plain product. A counting
//!   sink takes that number instead of the leaves when `|W_cur| ≤ 3`
//!   and no binomial overflows `u64`. The DFS visits subsets in
//!   `Combination`'s order, so emitted results keep their order.
//!
//! `FairBCEMPro++` (§III-D) is the same step with the ratio threshold
//! `θ`: proportion-fair inspection and the exact `CombinationPro`
//! ([`crate::fairset::max_pro_fair_size_vectors`]), with one cover per
//! size vector.
//!
//! This module holds the expansion step; the walk and its drivers are
//! shared by every `++` miner ([`crate::prepared`], [`crate::parallel`]).

use crate::biclique::BicliqueSink;
use crate::config::{BudgetClock, FairParams};
use crate::fairset::{combination_vectors, is_fair_with, AttrCounts, Combiner, ProductVisitor};
use bigraph::{AttrValueId, BipartiteGraph, Side, VertexId};

/// `CoverScratch::mark` of an upper vertex the expansion has not met,
/// of a member of `L`, and of a cover candidate.
const UNSEEN: u8 = 0;
const IN_L: u8 = 1;
const CANDIDATE: u8 = 2;
/// `CoverScratch::position` of a lower vertex outside `R`.
const NOT_IN_R: u32 = u32::MAX;

/// The expansion step of Algorithm 6 (lines 23–28): given a maximal
/// biclique `(L, R)` with `|L| ≥ α`, emit the SSFBCs it contains —
/// or, with `theta`, the PSSFBCs.
pub(crate) struct SsExpander<'a> {
    g: &'a BipartiteGraph,
    params: FairParams,
    /// The proportion models' ratio threshold; `None` for the absolute
    /// models.
    theta: Option<f64>,
    attrs: &'a [AttrValueId],
    /// Attribute-count scratch, recounted per expansion (no per-call
    /// allocation on the hot path).
    counts: AttrCounts,
    /// `R` grouped by attribute, and the product DFS over the groups.
    comb: Combiner,
    /// The expansion's size vectors, back to back.
    vectors: Vec<u32>,
    cover: CoverScratch,
    /// Budget over expansion steps: a single `Combination` can produce
    /// binomially many subsets, so the walker's node budget alone
    /// cannot bound a run.
    pub(crate) clock: BudgetClock,
    /// Results emitted so far.
    pub(crate) emitted: u64,
}

/// Scratch for finding the cover `W` (module docs), reset after every
/// expansion through the vertices it met.
struct CoverScratch {
    n_attrs: usize,
    /// Per upper vertex: `UNSEEN`, `IN_L` or `CANDIDATE`.
    mark: Vec<u8>,
    /// Per lower vertex: its position in the combiner, or `NOT_IN_R`.
    position: Vec<u32>,
    /// The cover candidates (vertices outside `L` adjacent to a seed),
    /// and per candidate its neighbour count in each group of `R`.
    candidates: Vec<VertexId>,
    candidate_counts: Vec<u32>,
    /// The elementwise minimum of the expansion's size vectors.
    k_min: Vec<u32>,
    /// The cover `W` of the current size vector.
    members: Vec<VertexId>,
}

impl CoverScratch {
    fn new(g: &BipartiteGraph, n_attrs: usize) -> Self {
        CoverScratch {
            n_attrs,
            mark: vec![UNSEEN; g.n(Side::Upper)],
            position: vec![NOT_IN_R; g.n(Side::Lower)],
            candidates: Vec::new(),
            candidate_counts: Vec::new(),
            k_min: Vec::new(),
            members: Vec::new(),
        }
    }

    /// Collect the cover candidates of the expansion of `(L, R)`, whose
    /// size vectors are all at least `self.k_min`: the vertices outside
    /// `L` adjacent to a seed set (module docs), with their neighbour
    /// counts per group of `R` (`comb`'s groups).
    fn collect(
        &mut self,
        g: &BipartiteGraph,
        attrs: &[AttrValueId],
        l: &[VertexId],
        comb: &Combiner,
    ) {
        for &u in l {
            self.mark[u as usize] = IN_L;
        }
        for (p, &v) in comb.positions().iter().enumerate() {
            self.position[v as usize] = p as u32;
        }
        let seed_group = (0..self.n_attrs)
            .filter(|&a| self.k_min[a] > 0)
            .min_by_key(|&a| comb.counts()[a] - self.k_min[a]);
        let seeds = match seed_group {
            Some(a) => {
                let group = comb.group(a);
                match (comb.counts()[a] - self.k_min[a]) as usize {
                    0 => {
                        let i = (0..group.len())
                            .min_by_key(|&i| g.degree(Side::Lower, group[i]))
                            .expect("a group with k_a > 0 is non-empty");
                        &group[i..=i]
                    }
                    slack => &group[..=slack],
                }
            }
            // Only all-zero size vectors: they are skipped anyway.
            None => &[][..],
        };
        for &v in seeds {
            for &u in g.neighbors(Side::Lower, v) {
                if self.mark[u as usize] != UNSEEN {
                    continue;
                }
                self.mark[u as usize] = CANDIDATE;
                self.candidates.push(u);
                let row = self.candidate_counts.len();
                self.candidate_counts.resize(row + self.n_attrs, 0);
                for &w in g.neighbors(Side::Upper, u) {
                    if self.position[w as usize] != NOT_IN_R {
                        self.candidate_counts[row + attrs[w as usize] as usize] += 1;
                    }
                }
            }
        }
    }

    /// Install the cover of `comb`'s size vector: the candidates with at
    /// least `k_a` neighbours in every group `a`, and per position the
    /// bit row of those adjacent to it.
    fn install(&mut self, g: &BipartiteGraph, comb: &mut Combiner) {
        let n = self.n_attrs;
        self.members.clear();
        for (i, &u) in self.candidates.iter().enumerate() {
            let counts = &self.candidate_counts[i * n..(i + 1) * n];
            if counts.iter().zip(comb.sizes()).all(|(c, k)| c >= k) {
                self.members.push(u);
            }
        }
        let words = self.members.len().div_ceil(64);
        let rows = comb.cover(self.members.len());
        for (i, &u) in self.members.iter().enumerate() {
            for &v in g.neighbors(Side::Upper, u) {
                let p = self.position[v as usize];
                if p != NOT_IN_R {
                    rows[p as usize * words + i / 64] |= 1 << (i % 64);
                }
            }
        }
    }

    /// Run `comb`'s product DFS for its size vector under that vector's
    /// cover. Returns false iff `v` stopped it.
    fn run(
        &mut self,
        g: &BipartiteGraph,
        comb: &mut Combiner,
        tally: bool,
        v: &mut dyn ProductVisitor,
    ) -> bool {
        // With beta = 0 a size vector can be all zeros; its one subset
        // is empty, a degenerate non-result in every model.
        if comb.sizes().iter().all(|&k| k == 0) {
            return true;
        }
        self.install(g, comb);
        comb.run(tally, v)
    }

    /// Forget this expansion's `L`, `R` and candidates.
    fn reset(&mut self, l: &[VertexId], comb: &Combiner) {
        for &u in l.iter().chain(&self.candidates) {
            self.mark[u as usize] = UNSEEN;
        }
        self.candidates.clear();
        self.candidate_counts.clear();
        for &v in comb.positions() {
            self.position[v as usize] = NOT_IN_R;
        }
    }
}

/// Emits the kept subsets of one expansion of `(L, R)` as `(L, r')`.
struct Emit<'x> {
    l: &'x [VertexId],
    sink: &'x mut dyn BicliqueSink,
    clock: &'x mut BudgetClock,
    emitted: &'x mut u64,
}

impl ProductVisitor for Emit<'_> {
    fn keep(&mut self, r_sub: &[VertexId]) -> bool {
        if self.clock.try_result() {
            self.sink.emit(self.l, r_sub);
            *self.emitted += 1;
        }
        self.clock.tick()
    }

    fn skip(&mut self) -> bool {
        self.clock.tick()
    }

    fn tally(&mut self, n: u64) -> Option<bool> {
        if !self.clock.try_results(n) {
            // Stopped, or the result cap would bind inside this
            // subtree: then its results go one by one.
            return self.clock.exhausted.then_some(false);
        }
        self.sink.tally(n);
        *self.emitted += n;
        Some(self.clock.tick())
    }
}

impl<'a> SsExpander<'a> {
    /// An expander over `g` with its own clock — every worker gets its
    /// own, drawing from the run's shared countdown.
    pub(crate) fn new(
        g: &'a BipartiteGraph,
        params: FairParams,
        theta: Option<f64>,
        clock: BudgetClock,
    ) -> Self {
        let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
        SsExpander {
            g,
            params,
            theta,
            attrs: g.attrs(Side::Lower),
            counts: AttrCounts::zeros(n_attrs),
            comb: Combiner::default(),
            vectors: Vec::new(),
            cover: CoverScratch::new(g, n_attrs),
            clock,
            emitted: 0,
        }
    }

    /// Lower subsets tested at a leaf, and subtrees tallied, so far.
    pub(crate) fn search_counts(&self) -> (u64, u64) {
        (self.comb.leaves, self.comb.tallied)
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
        // Expand into maximal fair subsets (Algorithm 7), filtered by
        // the cover of each size vector (module docs).
        let (comb, cover, g) = (&mut self.comb, &mut self.cover, self.g);
        let n = self.counts.as_slice().len();
        comb.load_by_attr(r, self.attrs, n);
        let vectors = &mut self.vectors;
        combination_vectors(comb.counts(), beta, delta, self.theta, vectors);
        if vectors.is_empty() {
            return;
        }
        // One candidate collection serves every size vector.
        cover.k_min.clear();
        cover.k_min.extend_from_slice(&vectors[..n]);
        for sizes in vectors.chunks(n).skip(1) {
            for (k, &s) in cover.k_min.iter_mut().zip(sizes) {
                *k = (*k).min(s);
            }
        }
        cover.collect(g, self.attrs, l, comb);
        let tally = sink.tally(0);
        let mut emit = Emit {
            l,
            sink,
            clock: &mut self.clock,
            emitted: &mut self.emitted,
        };
        for sizes in vectors.chunks(n) {
            comb.set_sizes(sizes);
            if !cover.run(g, comb, tally, &mut emit) {
                break;
            }
        }
        cover.reset(l, comb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{Biclique, CollectSink, CountSink};
    use crate::config::{Budget, ProParams, VertexOrder};
    use crate::pipeline::RunReport;
    use crate::prepared::{mine_unpruned, QueryModel};
    use crate::verify::oracle;
    use bigraph::generate::{plant_bicliques, random_uniform};
    use bigraph::GraphBuilder;
    use proptest::strategy::Strategy;
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
        // L = {u0, u1} sees all of R = {v0, v1, v2, v3}; u2 sees only
        // v0 and v3. At β = 1, δ = 0 the sizes are (1, 1): the subsets
        // {vi, v3}. N({v0, v3}) = {u0, u1, u2} ≠ L, so the cover {u2}
        // rejects exactly that one.
        let mut b = GraphBuilder::new(1, 2);
        for u in 0..2 {
            for v in 0..4 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.set_attrs_lower(&[0, 0, 0, 1]);
        let g = b.build().unwrap();
        let params = FairParams::unchecked(2, 1, 0);
        let (l, r) = ([0, 1], [0, 1, 2, 3]);
        let mut exp = SsExpander::new(&g, params, None, Budget::UNLIMITED.start());
        let mut got = CollectSink::default();
        exp.expand(&l, &r, &mut got);
        let want = [vec![1, 3], vec![2, 3]].map(|r| Biclique::new(l.to_vec(), r));
        assert_eq!(got.bicliques, want);
        // Once v0 is picked, u2 sees every candidate left (v3): that
        // subtree is cut, and only the two kept leaves are tested.
        assert_eq!(exp.search_counts(), (2, 0));
        // A count sink takes the same two as one inclusion–exclusion
        // tally at the root: C(3,1)·C(1,1) − C(1,1)·C(1,1).
        let mut exp = SsExpander::new(&g, params, None, Budget::UNLIMITED.start());
        let mut count = CountSink::default();
        exp.expand(&l, &r, &mut count);
        assert_eq!((count.count, exp.emitted), (2, 2));
        assert_eq!(exp.search_counts(), (0, 1));
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

    /// A random expansion input: `L` (upper `0..n_l`) adjacent to all of
    /// `R` (the whole lower side), and `n_out` more upper vertices with
    /// random adjacency to `R`, which may cover subsets of `R`.
    fn expansion_graph(
        n_l: usize,
        out_adj: &[Vec<bool>],
        lower_attrs: &[u16],
        n_attrs: u16,
    ) -> (BipartiteGraph, Vec<VertexId>, Vec<VertexId>) {
        let n_r = lower_attrs.len();
        let mut b = GraphBuilder::new(1, n_attrs);
        b.ensure_vertices(n_l + out_adj.len(), n_r);
        for u in 0..n_l {
            for v in 0..n_r {
                b.add_edge(u as u32, v as u32);
            }
        }
        for (i, row) in out_adj.iter().enumerate() {
            for (v, &on) in row.iter().enumerate() {
                if on {
                    b.add_edge((n_l + i) as u32, v as u32);
                }
            }
        }
        b.set_attrs_lower(lower_attrs);
        let g = b.build().unwrap();
        let r: Vec<VertexId> = (0..n_r as VertexId).collect();
        // The walk hands over L = N(R): an outside vertex adjacent to
        // all of R belongs to L.
        let l = g.common_neighbors(Side::Lower, &r);
        (g, l, r)
    }

    /// The expansion by definition: every maximal (proportion-)fair
    /// subset `r'` of `R` with `N(r') = L`, in `Combination`'s order.
    fn brute_force_expansion(
        g: &BipartiteGraph,
        l: &[VertexId],
        r: &[VertexId],
        params: FairParams,
        theta: Option<f64>,
    ) -> Vec<Vec<VertexId>> {
        let attrs = g.attrs(Side::Lower);
        let n_attrs = g.n_attr_values(Side::Lower) as usize;
        let counts = AttrCounts::of(r, attrs, n_attrs);
        if is_fair_with(counts.as_slice(), params.beta, params.delta, theta) {
            return vec![r.to_vec()];
        }
        let groups: Vec<Vec<VertexId>> = (0..n_attrs)
            .map(|a| {
                r.iter()
                    .copied()
                    .filter(|&v| attrs[v as usize] as usize == a)
                    .collect()
            })
            .collect();
        let refs: Vec<&[VertexId]> = groups.iter().map(Vec::as_slice).collect();
        crate::fairset::max_fair_subsets(&refs, params.beta, params.delta, theta)
            .into_iter()
            .filter(|s| !s.is_empty() && g.common_neighbors(Side::Lower, s) == l)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1000))]

        /// The covering filter keeps exactly the subsets whose closure
        /// is `L`, in order; a count sink's tallies (plain products and
        /// inclusion–exclusion alike) add up to the same number, also
        /// when a result cap makes part of them go one by one.
        #[test]
        fn covering_filter_keeps_exactly_the_closed_subsets(
            (n_attrs, lower_attrs) in (2u16..4).prop_flat_map(|n| {
                (proptest::strategy::Just(n), proptest::collection::vec(0..n, 1..13))
            }),
            n_l in 1usize..3,
            out_adj in (proptest::prop_oneof![0usize..8, 60usize..72], 0u8..4).prop_flat_map(|(n, d)| {
                let p = [0.5, 0.7, 0.85, 0.95][d as usize];
                proptest::collection::vec(proptest::collection::vec(proptest::bool::weighted(p), 12), n)
            }),
            (beta, delta) in (0u32..3, 0u32..3),
            theta in proptest::prop_oneof![proptest::strategy::Just(None), proptest::strategy::Just(Some(0.3))],
            cap_share in 0usize..4,
        ) {
            let out_adj: Vec<Vec<bool>> =
                out_adj.into_iter().map(|row| row[..lower_attrs.len()].to_vec()).collect();
            let (g, l, r) = expansion_graph(n_l, &out_adj, &lower_attrs, n_attrs);
            let params = FairParams::unchecked(1, beta, delta);
            let want = brute_force_expansion(&g, &l, &r, params, theta);

            let mut exp = SsExpander::new(&g, params, theta, Budget::UNLIMITED.start());
            let mut got = CollectSink::default();
            exp.expand(&l, &r, &mut got);
            let got: Vec<Vec<VertexId>> = got.bicliques.into_iter().map(|b| b.lower).collect();
            proptest::prop_assert_eq!(&got, &want);

            // Uncapped first: under a cap, a tally larger than what is
            // left is refused and visited instead, which would hide an
            // overcount.
            let total = want.len() as u64;
            let cap = [None, Some(0), Some(total / 2), Some(total)][cap_share];
            let budget = cap.map_or(Budget::UNLIMITED, Budget::results);
            let mut exp = SsExpander::new(&g, params, theta, budget.start());
            let mut count = CountSink::default();
            exp.expand(&l, &r, &mut count);
            let want_count = cap.unwrap_or(total);
            proptest::prop_assert_eq!(count.count, want_count);
            proptest::prop_assert_eq!(exp.emitted, want_count);
        }
    }
}
