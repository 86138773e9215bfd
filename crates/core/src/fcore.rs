//! Fair α-β core pruning: `FCore` (Algorithm 1) and `BFCore`
//! (Definition 13), one peel.
//!
//! The *fair α-β core* (Definition 8) is the maximal subgraph in which
//! every upper vertex has at least `β` neighbors of **each** lower
//! attribute value, and every lower vertex has degree at least `α`.
//! By Lemma 1 every single-side fair biclique lives inside it, so
//! peeling everything else is lossless. The *bi-fair* α-β core makes
//! the lower rule apply per upper attribute: every lower vertex needs
//! at least `α` neighbors of **each** upper attribute value. Every
//! bi-side fair biclique lives inside it (Lemma 3).
//!
//! # One peel
//!
//! Both cores come from the same Batagelj–Zaversnik peel over one
//! state, `FairPeel`: live masks plus live-neighbour counters.
//!
//! * An upper vertex counts its live lower neighbours per lower
//!   attribute and needs every count `≥ β`.
//! * A lower vertex counts its live upper neighbours per upper *class*
//!   and needs every count `≥ α`. `FCore` has one class, so the count
//!   is the plain degree; `BFCore` has one class per upper attribute.
//!
//! The violators seed a stack; each pop takes the dying vertex's slot
//! (its attribute, or its class) off every live neighbour, and the
//! neighbours that drop below threshold are pushed in turn.
//!
//! **Live-counter invariant.** When a cascade has drained, every live
//! vertex's counters count exactly its live neighbours: each dead
//! neighbour decremented them once, when it was popped. Dead
//! vertices' counters are stale and never read; the insertion repair
//! uses them as scratch.
//! [`crate::incremental::CoreTracker`] keeps the state between updates
//! on this invariant and repairs it with the same cascade.
//!
//! `O(|E| + |V|)` time, `O(|U|·A_n^V + |V|·classes)` space.

use crate::config::{BudgetClock, StopReason};
use bigraph::subgraph::{induce, InducedSubgraph};
use bigraph::{AttrValueId, BipartiteGraph, Side, VertexId};
use serde::{Deserialize, Serialize};

/// How many peel steps run between two [`BudgetClock::interrupted`]
/// probes inside the peel cascade. Each step touches one adjacency list, so
/// this keeps probe overhead well under 1% while bounding overshoot.
const CTL_PROBE_INTERVAL: u32 = 4096;

/// Before/after sizes of a pruning stage, and the working bytes of its
/// colorful stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneStats {
    /// `|U|` before pruning.
    pub upper_before: usize,
    /// `|V|` before pruning.
    pub lower_before: usize,
    /// `|E|` before pruning.
    pub edges_before: usize,
    /// `|U|` after pruning.
    pub upper_after: usize,
    /// `|V|` after pruning.
    pub lower_after: usize,
    /// `|E|` after pruning.
    pub edges_after: usize,
    /// Heap bytes of the largest 2-hop projection a colorful stage
    /// built (0 unless the pruning is colorful). The stages project
    /// the core the peel left, one fair side each.
    pub twohop_bytes: usize,
    /// Bytes of the largest `(vertex, attribute, color)` multiplicity
    /// table of a colorful stage's ego colorful peel (0 unless the
    /// pruning is colorful).
    pub colorful_tables_bytes: usize,
}

impl PruneStats {
    /// Total remaining vertices (the y-axis of the paper's Fig. 3/4).
    pub fn remaining_vertices(&self) -> usize {
        self.upper_after + self.lower_after
    }

    /// Total vertices removed.
    pub fn removed_vertices(&self) -> usize {
        (self.upper_before + self.lower_before) - self.remaining_vertices()
    }
}

/// A pruning result: the compacted subgraph (with maps back to the
/// *original* graph's ids) plus size statistics.
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// Compacted pruned graph with id maps to the original graph.
    pub sub: InducedSubgraph,
    /// Size reduction statistics.
    pub stats: PruneStats,
}

pub(crate) fn stats_of(g: &BipartiteGraph, sub: &InducedSubgraph) -> PruneStats {
    PruneStats {
        upper_before: g.n_upper(),
        lower_before: g.n_lower(),
        edges_before: g.n_edges(),
        upper_after: sub.graph.n_upper(),
        lower_after: sub.graph.n_lower(),
        edges_after: sub.graph.n_edges(),
        twohop_bytes: 0,
        colorful_tables_bytes: 0,
    }
}

/// Compose two induced subgraphs: `inner` was induced from
/// `outer.graph`; the result maps `inner.graph` ids straight to
/// `outer`'s parent ids.
pub(crate) fn compose(outer: &InducedSubgraph, inner: InducedSubgraph) -> InducedSubgraph {
    InducedSubgraph {
        graph: inner.graph,
        upper_to_parent: inner
            .upper_to_parent
            .iter()
            .map(|&i| outer.upper_to_parent[i as usize])
            .collect(),
        lower_to_parent: inner
            .lower_to_parent
            .iter()
            .map(|&i| outer.lower_to_parent[i as usize])
            .collect(),
    }
}

/// The identity "pruning" (`PruneKind::None`): the whole graph.
pub fn no_prune(g: &BipartiteGraph) -> PruneOutcome {
    compact(g, (vec![true; g.n_upper()], vec![true; g.n_lower()]))
}

/// Compute fair α-β core membership masks (Algorithm 1) without
/// materialising the subgraph.
///
/// Returns `(keep_upper, keep_lower)`.
pub fn fcore_masks(g: &BipartiteGraph, alpha: u32, beta: u32) -> (Vec<bool>, Vec<bool>) {
    FairPeel::peel(g, alpha, beta, false, None)
        .expect("a peel without a clock never interrupts")
        .into_masks()
}

/// `FCore` (`bi = false`) or `BFCore` (`bi = true`): peel `g` to its
/// fair or bi-fair α-β core and compact it.
///
/// Probes `clock` on entry and every [`CTL_PROBE_INTERVAL`] peel steps,
/// aborting with the interrupting [`StopReason`]. A clock that can never
/// interrupt adds no per-step work.
pub(crate) fn core_prune(
    g: &BipartiteGraph,
    alpha: u32,
    beta: u32,
    bi: bool,
    clock: &BudgetClock,
) -> Result<PruneOutcome, StopReason> {
    let p = FairPeel::peel(g, alpha, beta, bi, Some(clock))?;
    Ok(compact(g, p.into_masks()))
}

/// The state of one fair-core peel (see the module docs). Every array
/// is indexed by side (`Side as usize`: upper 0, lower 1).
#[derive(Debug, Clone)]
pub(crate) struct FairPeel {
    /// Thresholds: `[β, α]`.
    min: [u32; 2],
    /// Counters per vertex: `[lower attribute domain, upper classes]`
    /// (both `max(1)`; one class for `FCore`, one per upper attribute
    /// for `BFCore`).
    stride: [usize; 2],
    /// Live masks.
    pub(crate) alive: [Vec<bool>; 2],
    /// Live-neighbour counters, `[x * stride + slot]`: an upper
    /// vertex's slot is its neighbour's lower attribute, a lower
    /// vertex's slot its neighbour's upper class.
    cnt: [Vec<u32>; 2],
}

impl FairPeel {
    /// Peel `g` from scratch (`bi`: to the bi-fair core): every vertex
    /// starts live with counters over all its neighbours, and the
    /// violators seed one cascade. `clock`, when given, is probed on
    /// entry and inside the cascade.
    pub(crate) fn peel(
        g: &BipartiteGraph,
        alpha: u32,
        beta: u32,
        bi: bool,
        clock: Option<&BudgetClock>,
    ) -> Result<FairPeel, StopReason> {
        if let Some(r) = clock.and_then(BudgetClock::interrupted) {
            return Err(r);
        }
        let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
        let n_classes = if bi {
            (g.n_attr_values(Side::Upper) as usize).max(1)
        } else {
            1
        };
        let lower_attrs = g.attrs(Side::Lower);
        let mut upper_cnt = vec![0u32; g.n_upper() * n_attrs];
        for u in 0..g.n_upper() as VertexId {
            for &v in g.neighbors(Side::Upper, u) {
                upper_cnt[u as usize * n_attrs + lower_attrs[v as usize] as usize] += 1;
            }
        }
        // One class: the count is the plain degree, no neighbour pass.
        let lower_cnt = if n_classes == 1 {
            (0..g.n_lower() as VertexId)
                .map(|v| g.degree(Side::Lower, v) as u32)
                .collect()
        } else {
            let upper_attrs = g.attrs(Side::Upper);
            let mut cnt = vec![0u32; g.n_lower() * n_classes];
            for v in 0..g.n_lower() as VertexId {
                for &u in g.neighbors(Side::Lower, v) {
                    cnt[v as usize * n_classes + upper_attrs[u as usize] as usize] += 1;
                }
            }
            cnt
        };
        let mut p = FairPeel {
            min: [beta, alpha],
            stride: [n_attrs, n_classes],
            alive: [vec![true; g.n_upper()], vec![true; g.n_lower()]],
            cnt: [upper_cnt, lower_cnt],
        };
        // Every violator seeds the cascade: [`FairPeel::seed`] over all
        // of `g`, as one pass over each side's counters, which measured
        // faster than `seed` over an id range on peel-heavy graphs.
        let mut stack = Vec::new();
        for (s, side) in [Side::Upper, Side::Lower].into_iter().enumerate() {
            let min = p.min[s];
            for (i, c) in p.cnt[s].chunks_exact(p.stride[s]).enumerate() {
                if c.iter().any(|&d| d < min) {
                    p.alive[s][i] = false;
                    stack.push((side, i as VertexId));
                }
            }
        }
        p.cascade(g, &mut stack, clock, |_, _| {})?;
        Ok(p)
    }

    /// `(α, β)`.
    pub(crate) fn params(&self) -> (u32, u32) {
        (self.min[1], self.min[0])
    }

    /// The membership masks `(upper, lower)`.
    pub(crate) fn into_masks(self) -> (Vec<bool>, Vec<bool>) {
        let [upper, lower] = self.alive;
        (upper, lower)
    }

    /// The counters of `x` on `side`.
    pub(crate) fn counters_mut(&mut self, side: Side, x: VertexId) -> &mut [u32] {
        let (s, i) = (side as usize, x as usize);
        &mut self.cnt[s][i * self.stride[s]..(i + 1) * self.stride[s]]
    }

    /// Bring the dead `joiners` (by side) back: recount each joiner's
    /// counters over its neighbours that are live or `joining` (flags
    /// by side and id), add its slot to its live neighbours' counters,
    /// then mark every joiner live.
    pub(crate) fn revive(
        &mut self,
        g: &BipartiteGraph,
        joiners: &[Vec<VertexId>; 2],
        joining: &[Vec<bool>; 2],
    ) {
        let slots = [self.slots(g, Side::Upper), self.slots(g, Side::Lower)];
        for side in [Side::Upper, Side::Lower] {
            let (s, o) = (side as usize, side.other() as usize);
            let (ks, ko) = (self.stride[s], self.stride[o]);
            let alive = &self.alive[o];
            let [cnt_u, cnt_v] = &mut self.cnt;
            let (own, theirs) = match side {
                Side::Upper => (cnt_u, cnt_v),
                Side::Lower => (cnt_v, cnt_u),
            };
            for &x in &joiners[s] {
                let kx = slots[s].map_or(0, |a| a[x as usize] as usize);
                let own = &mut own[x as usize * ks..(x as usize + 1) * ks];
                own.fill(0);
                for &w in g.neighbors(side, x) {
                    let member = alive[w as usize];
                    if member || joining[o][w as usize] {
                        own[slots[o].map_or(0, |a| a[w as usize] as usize)] += 1;
                    }
                    if member {
                        theirs[w as usize * ko + kx] += 1;
                    }
                }
            }
        }
        for (alive, xs) in self.alive.iter_mut().zip(joiners) {
            for &x in xs {
                alive[x as usize] = true;
            }
        }
    }

    /// Whether the dead `x` on `side` meets its rule counting *all* its
    /// neighbours in `g`, live or not. A vertex that fails is in no
    /// fair core of `g`, since every core of `g` is a subgraph of it.
    /// Counts into `x`'s stale counters.
    pub(crate) fn could_join(&mut self, g: &BipartiteGraph, side: Side, x: VertexId) -> bool {
        let s = side as usize;
        debug_assert!(!self.alive[s][x as usize]);
        let (k, min) = (self.stride[s], self.min[s]);
        // Every slot needs `min`, so the degree needs `k·min`; with one
        // slot that is the whole rule.
        if g.degree(side, x) < k * min as usize {
            return false;
        }
        if k == 1 {
            return true;
        }
        let slots = self
            .slots(g, side.other())
            .expect("several slots are keyed by the neighbours' attributes");
        let own = &mut self.cnt[s][x as usize * k..(x as usize + 1) * k];
        own.fill(0);
        for &w in g.neighbors(side, x) {
            own[slots[w as usize] as usize] += 1;
        }
        own.iter().all(|&c| c >= min)
    }

    /// Append a vertex with zeroed counters to `side`. It is live iff
    /// that meets its rule (threshold 0); returns whether it is.
    pub(crate) fn push_vertex(&mut self, side: Side) -> bool {
        let s = side as usize;
        let joins = self.min[s] == 0;
        self.cnt[s].resize(self.cnt[s].len() + self.stride[s], 0);
        self.alive[s].push(joins);
        joins
    }

    /// The slot each vertex of `side` feeds in its neighbours'
    /// counters, by id: its lower attribute, or its upper class
    /// (`None`: the one class, slot 0).
    fn slots<'g>(&self, g: &'g BipartiteGraph, side: Side) -> Option<&'g [AttrValueId]> {
        (side == Side::Lower || self.stride[1] > 1).then(|| g.attrs(side))
    }

    /// The slot `y` on `side` feeds in its neighbours' counters.
    pub(crate) fn slot_of(&self, g: &BipartiteGraph, side: Side, y: VertexId) -> usize {
        self.slots(g, side).map_or(0, |a| a[y as usize] as usize)
    }

    /// Mark dead, and push on `stack` for [`FairPeel::cascade`], every
    /// live vertex of `xs` on `side` that breaks its rule.
    pub(crate) fn seed(
        &mut self,
        side: Side,
        xs: impl IntoIterator<Item = VertexId>,
        stack: &mut Vec<(Side, VertexId)>,
    ) {
        let s = side as usize;
        let (k, min, alive, cnt) = (
            self.stride[s],
            self.min[s],
            &mut self.alive[s],
            &self.cnt[s],
        );
        for x in xs {
            let i = x as usize;
            if alive[i] && cnt[i * k..(i + 1) * k].iter().any(|&d| d < min) {
                alive[i] = false;
                stack.push((side, x));
            }
        }
    }

    /// Drain `stack` (vertices already marked dead): each pop takes the
    /// dying vertex's slot off every live neighbour's counters and
    /// kills the neighbours that fall below their threshold.
    /// `on_death` sees every popped vertex. `clock`, when given and able
    /// to interrupt, is probed every [`CTL_PROBE_INTERVAL`] pops.
    pub(crate) fn cascade(
        &mut self,
        g: &BipartiteGraph,
        stack: &mut Vec<(Side, VertexId)>,
        clock: Option<&BudgetClock>,
        mut on_death: impl FnMut(Side, VertexId),
    ) -> Result<(), StopReason> {
        let clock = clock.filter(|c| !c.never_interrupted());
        let slots = [self.slots(g, Side::Upper), self.slots(g, Side::Lower)];
        let mut steps: u32 = 0;
        while let Some((side, x)) = stack.pop() {
            steps = steps.wrapping_add(1);
            if steps % CTL_PROBE_INTERVAL == 0 {
                if let Some(r) = clock.and_then(BudgetClock::interrupted) {
                    return Err(r);
                }
            }
            on_death(side, x);
            let slot = slots[side as usize].map_or(0, |a| a[x as usize] as usize);
            let o = side.other() as usize;
            let (k, min) = (self.stride[o], self.min[o]);
            let (alive, cnt) = (&mut self.alive[o][..], &mut self.cnt[o][..]);
            for &y in g.neighbors(side, x) {
                if alive[y as usize] {
                    let s = y as usize * k + slot;
                    cnt[s] -= 1;
                    if cnt[s] < min {
                        alive[y as usize] = false;
                        stack.push((side.other(), y));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Compact `g` to the vertices kept by `(keep_upper, keep_lower)`.
fn compact(g: &BipartiteGraph, (keep_upper, keep_lower): (Vec<bool>, Vec<bool>)) -> PruneOutcome {
    let sub = induce(g, &keep_upper, &keep_lower);
    let stats = stats_of(g, &sub);
    PruneOutcome { sub, stats }
}

/// Check that `(keep_upper, keep_lower)` induce a subgraph satisfying
/// the fair α-β core rules, or with `bi` the bi-fair ones (test helper;
/// not maximality).
pub fn is_fair_core(
    g: &BipartiteGraph,
    keep_upper: &[bool],
    keep_lower: &[bool],
    alpha: u32,
    beta: u32,
    bi: bool,
) -> bool {
    let keep = [keep_upper, keep_lower];
    [Side::Upper, Side::Lower].into_iter().all(|side| {
        let other = side.other();
        // The threshold, and whether it holds per attribute of `other`.
        let (min, per_attr) = match side {
            Side::Upper => (beta, true),
            Side::Lower => (alpha, bi),
        };
        let mut cnt = vec![0u32; (g.n_attr_values(other) as usize).max(1)];
        (0..g.n(side) as VertexId)
            .filter(|&x| keep[side as usize][x as usize])
            .all(|x| {
                cnt.fill(0);
                for &y in g.neighbors(side, x) {
                    if keep[other as usize][y as usize] {
                        cnt[g.attr(other, y) as usize] += 1;
                    }
                }
                if per_attr {
                    cnt.iter().all(|&c| c >= min)
                } else {
                    cnt.iter().sum::<u32>() >= min
                }
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairParams, PruneKind};
    use crate::pipeline::prune;
    use crate::prepared::QueryModel;
    use bigraph::generate::random_uniform;
    use bigraph::GraphBuilder;

    /// Build the Fig. 1(a)-style toy: a dense fair block plus fringe.
    fn block_with_fringe() -> BipartiteGraph {
        let mut b = GraphBuilder::new(2, 2);
        // Dense block: uppers 0..3 x lowers 0..4 complete.
        for u in 0..3 {
            for v in 0..4 {
                b.add_edge(u, v);
            }
        }
        // Fringe: upper 3 sees only lower 4; lower 5 sees only upper 0.
        b.add_edge(3, 4);
        b.add_edge(0, 5);
        b.set_attrs_upper(&[0, 1, 0, 1]);
        b.set_attrs_lower(&[0, 0, 1, 1, 0, 1]);
        b.build().unwrap()
    }

    #[test]
    fn peels_fringe_keeps_block() {
        let g = block_with_fringe();
        let out = prune(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(2, 2, 1)),
            PruneKind::FCore,
        );
        // Block survives: 3 uppers, 4 lowers.
        assert_eq!(out.stats.upper_after, 3);
        assert_eq!(out.stats.lower_after, 4);
        assert_eq!(out.stats.edges_after, 12);
        assert_eq!(out.stats.remaining_vertices(), 7);
        assert_eq!(out.stats.removed_vertices(), 3);
        // Mapped ids are the block's originals.
        assert_eq!(out.sub.upper_to_parent, vec![0, 1, 2]);
        assert_eq!(out.sub.lower_to_parent, vec![0, 1, 2, 3]);
    }

    #[test]
    fn result_satisfies_core_property() {
        for seed in 0..5u64 {
            let g = random_uniform(25, 30, 180, 2, 2, seed);
            for (a, b) in [(2, 2), (3, 2), (2, 3), (4, 4)] {
                let (ku, kv) = fcore_masks(&g, a, b);
                assert!(
                    is_fair_core(&g, &ku, &kv, a, b, false),
                    "seed={seed} a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn core_is_maximal() {
        // No peeled vertex could have survived: adding any single
        // removed vertex back violates its own constraint (standard
        // core-decomposition maximality, checked empirically).
        let g = random_uniform(20, 20, 120, 2, 2, 3);
        let (ku, kv) = fcore_masks(&g, 2, 2);
        let n_attrs = 2;
        for u in 0..20u32 {
            if ku[u as usize] {
                continue;
            }
            // With everything alive that is alive plus u itself, u must
            // still violate (otherwise peeling removed it wrongly).
            let mut ad = vec![0u32; n_attrs];
            for &v in g.neighbors(Side::Upper, u) {
                if kv[v as usize] {
                    ad[g.attr(Side::Lower, v) as usize] += 1;
                }
            }
            assert!(ad.iter().any(|&d| d < 2), "upper {u} wrongly peeled");
        }
        for v in 0..20u32 {
            if kv[v as usize] {
                continue;
            }
            let d = g
                .neighbors(Side::Lower, v)
                .iter()
                .filter(|&&u| ku[u as usize])
                .count();
            assert!(d < 2, "lower {v} wrongly peeled");
        }
    }

    #[test]
    fn alpha_beta_monotone() {
        let g = random_uniform(30, 30, 250, 2, 2, 9);
        let mut prev = usize::MAX;
        for a in 1..6u32 {
            let out = prune(
                &g,
                QueryModel::Ssfbc(FairParams::unchecked(a, 2, 1)),
                PruneKind::FCore,
            );
            assert!(out.stats.remaining_vertices() <= prev);
            prev = out.stats.remaining_vertices();
        }
        let mut prev = usize::MAX;
        for b in 1..6u32 {
            let out = prune(
                &g,
                QueryModel::Ssfbc(FairParams::unchecked(2, b, 1)),
                PruneKind::FCore,
            );
            assert!(out.stats.remaining_vertices() <= prev);
            prev = out.stats.remaining_vertices();
        }
    }

    #[test]
    fn beta_zero_keeps_degree_only_constraint() {
        let g = block_with_fringe();
        let out = prune(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(1, 0, 0)),
            PruneKind::FCore,
        );
        // beta=0 never peels uppers; alpha=1 peels nothing with degree>=1.
        assert_eq!(out.stats.upper_after, 4);
        assert_eq!(out.stats.lower_after, 6);
    }

    #[test]
    fn everything_peeled_when_impossible() {
        let g = block_with_fringe();
        let out = prune(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(10, 10, 1)),
            PruneKind::FCore,
        );
        assert_eq!(out.stats.remaining_vertices(), 0);
        assert_eq!(out.stats.edges_after, 0);
    }

    #[test]
    fn no_prune_is_identity() {
        let g = block_with_fringe();
        let out = no_prune(&g);
        assert_eq!(out.stats.edges_after, g.n_edges());
        assert_eq!(out.sub.upper_to_parent.len(), g.n_upper());
    }
}
