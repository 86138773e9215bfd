//! Colorful fair α-β core pruning: `CFCore` (Algorithm 2) and its
//! bi-side form `BCFCore` (§IV-A of the paper), one cascade.
//!
//! The paper extends its single-side pruning to the bi-side model, and
//! so does this module: one cascade serves both, with the bi-side
//! model switching the core peel to the bi-fair core and adding a
//! second colorful stage for the upper side.
//!
//! 1. Peel to the fair α-β core with `FCore`, or, bi-side, to the
//!    *bi-fair* α-β core with `BFCore` (Definition 13): lower vertices
//!    then need ≥ α neighbors of each upper attribute value too. Every
//!    bi-side fair biclique lives inside it (Lemma 3). Both are the
//!    peel of [`crate::fcore`] (`core_prune` with `bi`).
//! 2. One colorful stage per fair side: the lower side with `(α, β)`
//!    and, bi-side, then the upper side with `(β, α)` swapped. A stage
//!    on fair side `S` with threshold `t` and clique bound `k`:
//!    * builds the 2-hop graph `H` on `S`
//!      ([`bigraph::twohop::construct_2hop`]). Single-side (Algorithm
//!      3), two vertices are adjacent iff they share ≥ `t` neighbors:
//!      every pair of fair-side vertices of an SSFBC shares the whole
//!      (≥ α)-sized other side, so each SSFBC's fair side is a clique
//!      in `H` (Observation 1). Bi-side (Algorithm 8), they must share
//!      ≥ `t` neighbors of *every* opposite attribute value;
//!    * drops `H`-vertices of degree `< A_n·k − 1` (a fair clique has
//!      at least `A_n·k` vertices);
//!    * greedy-colors `H` and peels to the **ego colorful k-core**
//!      (Definitions 9–10): every surviving vertex must see ≥ k
//!      distinct colors among `N(u) ∪ {u}` for *every* attribute
//!      value — a clique is rainbow, so a fair clique forces k
//!      distinct colors per attribute (Lemma 2);
//!    * removes the peeled `S` vertices from the bipartite graph.
//! 3. Run `FCore` / `BFCore` once more.
//!
//! The degree drop and the colorful peel are `colorful_mask`. Stages
//! run on the graph the previous stage left, and each composes its id
//! maps onto the running core.
//!
//! Spans directly under the caller's: `core-peel`, then `2hop` and
//! `ego-core` (single-side) or `colorful-lower` and `colorful-upper`
//! (bi-side, each with `2hop` and `ego-core` children), then `re-peel`.
//! `ego-core` covers a stage's work after its 2-hop graph.
//!
//! Losslessness: a vertex removed here is in no *maximal* fair biclique
//! (Lemma 2); and any witness that would extend a candidate biclique is
//! itself inside a maximal fair biclique, hence inside this core — so
//! maximality checked on the pruned graph equals maximality on the
//! original.

use crate::config::{BudgetClock, FairParams, StopReason};
use crate::fcore::{compose, core_prune, stats_of, PruneOutcome, PruneStats};
use crate::obs::SpanRecorder;
use bigraph::coloring::greedy_color_by_degree;
use bigraph::subgraph::{induce, InducedSubgraph};
use bigraph::twohop::construct_2hop;
use bigraph::{BipartiteGraph, Side, UniGraph, VertexId};

/// Peel `h` to its ego colorful `k`-core (Definition 10), returning the
/// membership mask.
///
/// The *ego colorful degree* `ED_a(u)` is the number of distinct colors
/// among `{v ∈ N(u) ∪ {u} : v.val = a}`; a vertex survives iff
/// `min_a ED_a(u) ≥ k` in the remaining graph.
pub fn ego_colorful_core(h: &UniGraph, k: u32) -> Vec<bool> {
    ego_core(h, k).0
}

/// [`ego_colorful_core`], plus the bytes of the `(vertex, attribute,
/// color)` multiplicity table it built.
fn ego_core(h: &UniGraph, k: u32) -> (Vec<bool>, usize) {
    let n = h.n();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let coloring = greedy_color_by_degree(h);
    let n_colors = (coloring.n_colors as usize).max(1);
    let n_attrs = (h.n_attr_values() as usize).max(1);

    // M[v][attr][color] = multiplicity, flattened. ED[v][attr] =
    // number of colors with non-zero multiplicity.
    let mut m = vec![0u32; n * n_attrs * n_colors];
    let mut ed = vec![0u32; n * n_attrs];
    let slot = |v: usize, a: usize, c: usize| (v * n_attrs + a) * n_colors + c;

    for v in 0..n as VertexId {
        // Ego: the vertex itself counts (Definition 9).
        let va = h.attr(v) as usize;
        let vc = coloring.color[v as usize] as usize;
        m[slot(v as usize, va, vc)] += 1;
        ed[v as usize * n_attrs + va] += 1;
        for &w in h.neighbors(v) {
            let wa = h.attr(w) as usize;
            let wc = coloring.color[w as usize] as usize;
            let s = slot(v as usize, wa, wc);
            if m[s] == 0 {
                ed[v as usize * n_attrs + wa] += 1;
            }
            m[s] += 1;
        }
    }

    let ed_min =
        |ed: &[u32], v: usize| -> u32 { *ed[v * n_attrs..(v + 1) * n_attrs].iter().min().unwrap() };

    let mut alive = vec![true; n];
    let mut stack: Vec<VertexId> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for v in 0..n {
        if ed_min(&ed, v) < k {
            alive[v] = false;
            stack.push(v as VertexId);
        }
    }
    while let Some(u) = stack.pop() {
        let ua = h.attr(u) as usize;
        let uc = coloring.color[u as usize] as usize;
        for &v in h.neighbors(u) {
            if !alive[v as usize] {
                continue;
            }
            let s = slot(v as usize, ua, uc);
            debug_assert!(m[s] > 0);
            m[s] -= 1;
            if m[s] == 0 {
                let e = v as usize * n_attrs + ua;
                ed[e] -= 1;
                if ed[e] < k {
                    alive[v as usize] = false;
                    stack.push(v);
                }
            }
        }
    }
    (alive, std::mem::size_of_val(m.as_slice()))
}

/// The degree drop and colorful peel of a stage (module docs) on a
/// fair side's 2-hop graph `h`: a fair clique has at least `A_n·k`
/// vertices, so drop the `h`-vertices of degree `< A_n·k − 1`, peel the
/// rest to the ego colorful `k`-core, and return the survivors as a
/// mask over `h`, with the bytes of the peel's color table.
fn colorful_mask(h: &UniGraph, k: u32) -> (Vec<bool>, usize) {
    let deg_thresh = h.n_attr_values() as i64 * k as i64 - 1;
    let keep_deg: Vec<bool> = (0..h.n() as VertexId)
        .map(|v| h.degree(v) as i64 >= deg_thresh)
        .collect();
    let (h2, map) = h.induce(&keep_deg);
    let (alive, table_bytes) = ego_core(&h2, k);
    let mut keep = vec![false; h.n()];
    for (alive, &old) in alive.into_iter().zip(&map) {
        keep[old as usize] = alive;
    }
    (keep, table_bytes)
}

/// `CFCore` (Algorithm 2), or `BCFCore` for the bi-side model (`bi`):
/// the cascade of the module docs.
///
/// `clock` is threaded into the peels and probed between the stages
/// (the 2-hop projection and the coloring are the expensive phases, so
/// each stage boundary is a natural abort point). `rec` records the
/// spans listed in the module docs.
pub(crate) fn cfcore(
    g: &BipartiteGraph,
    params: FairParams,
    bi: bool,
    clock: &BudgetClock,
    rec: &mut SpanRecorder,
) -> Result<PruneOutcome, StopReason> {
    let (alpha, beta) = (params.alpha, params.beta);
    let mut core = rec
        .timed("core-peel", || core_prune(g, alpha, beta, bi, clock))?
        .sub;
    // (span, fair side, 2-hop threshold, clique bound): the upper
    // stage swaps the thresholds — two upper vertices share ≥ β
    // neighbors of every lower attribute, and a fair clique needs α
    // vertices per upper attribute.
    let stages = [
        ("colorful-lower", Side::Lower, alpha, beta),
        ("colorful-upper", Side::Upper, beta, alpha),
    ];
    // A stage drops its 2-hop graph and color table before the next
    // stage builds its own, so the larger stage's bytes are the peak.
    let (mut twohop_bytes, mut tables_bytes) = (0, 0);
    for (name, side, t, k) in &stages[..if bi { 2 } else { 1 }] {
        if let Some(r) = clock.interrupted() {
            return Err(r);
        }
        let stage = |rec: &mut SpanRecorder| colorful_stage(&core, *side, *t, *k, bi, clock, rec);
        let (next, (h_bytes, t_bytes)) = if bi {
            rec.scope(name, stage)
        } else {
            stage(rec)
        }?;
        core = next;
        twohop_bytes = twohop_bytes.max(h_bytes);
        tables_bytes = tables_bytes.max(t_bytes);
    }
    rec.timed("re-peel", || {
        let s = core_prune(&core.graph, alpha, beta, bi, clock)?;
        let sub = compose(&core, s.sub);
        Ok(PruneOutcome {
            stats: PruneStats {
                twohop_bytes,
                colorful_tables_bytes: tables_bytes,
                ..stats_of(g, &sub)
            },
            sub,
        })
    })
}

/// One colorful stage (step 2 of the module docs) on `fair_side` of
/// `core.graph`, with 2-hop threshold `t` (per opposite attribute when
/// `per_attr`) and clique bound `k`. Returns `core` without the peeled
/// `fair_side` vertices, its maps still pointing at the original graph,
/// and the bytes of the stage's 2-hop graph and color table.
fn colorful_stage(
    core: &InducedSubgraph,
    fair_side: Side,
    t: u32,
    k: u32,
    per_attr: bool,
    clock: &BudgetClock,
    rec: &mut SpanRecorder,
) -> Result<(InducedSubgraph, (usize, usize)), StopReason> {
    let g = &core.graph;
    let h = rec.timed("2hop", || {
        construct_2hop(g, fair_side, t as usize, per_attr)
    });
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }
    Ok(rec.timed("ego-core", || {
        let (keep, table_bytes) = colorful_mask(&h, k);
        let all = vec![true; g.n(fair_side.other())];
        let sub = match fair_side {
            Side::Lower => induce(g, &all, &keep),
            Side::Upper => induce(g, &keep, &all),
        };
        (compose(core, sub), (h.heap_bytes(), table_bytes))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PruneKind;
    use crate::fcore::{fcore_masks, is_fair_core, FairPeel};
    use crate::pipeline::prune;
    use crate::prepared::QueryModel;
    use bigraph::generate::{plant_bicliques, random_uniform};
    use bigraph::GraphBuilder;

    #[test]
    fn ego_core_on_fair_clique() {
        // K4 with attrs 0,0,1,1: 4 colors, ED per attr = 2 for all.
        let edges: Vec<(u32, u32)> = vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let h = UniGraph::from_edges(2, vec![0, 0, 1, 1], &edges);
        let alive = ego_colorful_core(&h, 2);
        assert!(alive.iter().all(|&a| a), "fair K4 survives ego 2-core");
        let alive3 = ego_colorful_core(&h, 3);
        assert!(
            alive3.iter().all(|&a| !a),
            "K4 cannot give 3 colors per attr"
        );
    }

    #[test]
    fn ego_core_unbalanced_attrs_peels() {
        // Triangle 0,1,2 all attr 0, pendant 3 attr 1 on vertex 2:
        // attr-1 ego colorful degree of 0 and 1 is 0.
        let h = UniGraph::from_edges(2, vec![0, 0, 0, 1], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let alive = ego_colorful_core(&h, 1);
        assert!(!alive[0]);
        assert!(!alive[1]);
        // After peeling 0 and 1, vertex 2-3 pair: 2 sees colors {self
        // attr0} and {3: attr1}; 3 sees {self attr1, 2 attr0}: both ok.
        assert!(alive[2]);
        assert!(alive[3]);
    }

    #[test]
    fn ego_core_k_zero_keeps_all() {
        let h = UniGraph::from_edges(2, vec![0, 1, 0], &[(0, 1)]);
        let alive = ego_colorful_core(&h, 0);
        assert!(alive.iter().all(|&a| a));
    }

    #[test]
    fn ego_core_empty_graph() {
        let h = UniGraph::from_edges(2, vec![], &[]);
        assert!(ego_colorful_core(&h, 2).is_empty());
    }

    #[test]
    fn ego_core_cascades() {
        // Path 0-1-2-3-4, alternating attrs: removal cascades fully
        // for k=2 (no vertex sees 2 colors of each attr in a path once
        // ends go).
        let h = UniGraph::from_edges(2, vec![0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let alive = ego_colorful_core(&h, 2);
        assert!(alive.iter().all(|&a| !a));
    }

    #[test]
    fn cfcore_prunes_at_least_as_much_as_fcore() {
        for seed in 0..6u64 {
            let base = random_uniform(40, 50, 260, 2, 2, seed);
            let g = plant_bicliques(&base, 2, 4, 6, 1.0, seed + 100);
            for (a, b) in [(2, 2), (3, 2), (2, 3)] {
                let p = FairParams::unchecked(a, b, 1);
                let f = prune(&g, QueryModel::Ssfbc(p), PruneKind::FCore);
                let c = prune(&g, QueryModel::Ssfbc(p), PruneKind::Colorful);
                assert!(
                    c.stats.remaining_vertices() <= f.stats.remaining_vertices(),
                    "seed={seed} a={a} b={b}: cfcore {} > fcore {}",
                    c.stats.remaining_vertices(),
                    f.stats.remaining_vertices()
                );
                // And the result still satisfies the fair-core property
                // (CFCore finishes with an FCore pass).
                let gg = &c.sub.graph;
                for u in 0..gg.n_upper() as u32 {
                    let mut ad = vec![0u32; gg.n_attr_values(Side::Lower) as usize];
                    for &v in gg.neighbors(Side::Upper, u) {
                        ad[gg.attr(Side::Lower, v) as usize] += 1;
                    }
                    assert!(ad.iter().all(|&d| d >= b));
                }
                for v in 0..gg.n_lower() as u32 {
                    assert!(gg.degree(Side::Lower, v) as u32 >= a);
                }
            }
        }
    }

    #[test]
    fn cfcore_keeps_planted_fair_block() {
        // A complete 4x6 block with balanced attrs survives (α=3, β=2).
        let mut b = GraphBuilder::new(2, 2);
        for u in 0..4 {
            for v in 0..6 {
                b.add_edge(u, v);
            }
        }
        // fringe
        b.add_edge(4, 6);
        b.set_attrs_upper(&[0, 1, 0, 1, 0]);
        b.set_attrs_lower(&[0, 0, 0, 1, 1, 1, 0]);
        let g = b.build().unwrap();
        let out = prune(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(3, 2, 1)),
            PruneKind::Colorful,
        );
        assert_eq!(out.stats.upper_after, 4);
        assert_eq!(out.stats.lower_after, 6);
        assert_eq!(out.sub.lower_to_parent, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn cfcore_mapping_is_consistent() {
        let base = random_uniform(30, 30, 200, 2, 2, 17);
        let g = plant_bicliques(&base, 1, 4, 5, 1.0, 18);
        let out = prune(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(2, 2, 1)),
            PruneKind::Colorful,
        );
        let sg = &out.sub.graph;
        for (u, v) in sg.edges() {
            let pu = out.sub.upper_to_parent[u as usize];
            let pv = out.sub.lower_to_parent[v as usize];
            assert!(g.has_edge(pu, pv));
            assert_eq!(sg.attr(Side::Upper, u), g.attr(Side::Upper, pu));
            assert_eq!(sg.attr(Side::Lower, v), g.attr(Side::Lower, pv));
        }
    }

    fn bfcore_masks(g: &BipartiteGraph, alpha: u32, beta: u32) -> (Vec<bool>, Vec<bool>) {
        FairPeel::peel(g, alpha, beta, true, None)
            .unwrap()
            .into_masks()
    }

    fn balanced_block() -> BipartiteGraph {
        // 4x6 complete block with balanced attrs on both sides + fringe.
        let mut b = GraphBuilder::new(2, 2);
        for u in 0..4 {
            for v in 0..6 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(4, 0); // fringe upper
        b.add_edge(0, 6); // fringe lower
        b.set_attrs_upper(&[0, 1, 0, 1, 0]);
        b.set_attrs_lower(&[0, 0, 0, 1, 1, 1, 1]);
        b.build().unwrap()
    }

    #[test]
    fn bfcore_keeps_balanced_block() {
        let g = balanced_block();
        let out = prune(
            &g,
            QueryModel::Bsfbc(FairParams::unchecked(2, 2, 1)),
            PruneKind::FCore,
        );
        assert_eq!(out.stats.upper_after, 4);
        assert_eq!(out.stats.lower_after, 6);
        let (ku, kv) = bfcore_masks(&g, 2, 2);
        assert!(is_fair_core(&g, &ku, &kv, 2, 2, true));
    }

    #[test]
    fn bfcore_maximality() {
        let g = random_uniform(25, 25, 180, 2, 2, 13);
        let (ku, kv) = bfcore_masks(&g, 2, 2);
        // Any removed vertex violates its constraint against the kept set.
        for v in 0..25u32 {
            if kv[v as usize] {
                continue;
            }
            let mut ad = [0u32; 2];
            for &u in g.neighbors(Side::Lower, v) {
                if ku[u as usize] {
                    ad[g.attr(Side::Upper, u) as usize] += 1;
                }
            }
            assert!(ad.iter().any(|&d| d < 2), "lower {v} wrongly peeled");
        }
        for u in 0..25u32 {
            if ku[u as usize] {
                continue;
            }
            let mut ad = [0u32; 2];
            for &v in g.neighbors(Side::Upper, u) {
                if kv[v as usize] {
                    ad[g.attr(Side::Lower, v) as usize] += 1;
                }
            }
            assert!(ad.iter().any(|&d| d < 2), "upper {u} wrongly peeled");
        }
    }

    #[test]
    fn bfcore_stricter_than_fcore() {
        for seed in 0..6u64 {
            let g = random_uniform(30, 35, 280, 2, 2, seed);
            for (a, b) in [(2, 2), (2, 3), (3, 2)] {
                let (fu, fv) = fcore_masks(&g, a, b);
                let (bu, bv) = bfcore_masks(&g, a, b);
                // BFCore subset of FCore on both sides.
                for i in 0..g.n_upper() {
                    assert!(!bu[i] || fu[i], "seed {seed} upper {i}");
                }
                for i in 0..g.n_lower() {
                    assert!(!bv[i] || fv[i], "seed {seed} lower {i}");
                }
                assert!(is_fair_core(&g, &bu, &bv, a, b, true));
            }
        }
    }

    #[test]
    fn bcfcore_prunes_at_least_as_much_as_bfcore() {
        for seed in 0..5u64 {
            let base = random_uniform(40, 45, 300, 2, 2, seed);
            let g = plant_bicliques(&base, 2, 4, 6, 1.0, seed + 50);
            for (a, b) in [(1, 2), (2, 2)] {
                let p = FairParams::unchecked(a, b, 1);
                let bf = prune(&g, QueryModel::Bsfbc(p), PruneKind::FCore);
                let bc = prune(&g, QueryModel::Bsfbc(p), PruneKind::Colorful);
                assert!(
                    bc.stats.remaining_vertices() <= bf.stats.remaining_vertices(),
                    "seed={seed} a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn bcfcore_keeps_balanced_block() {
        let g = balanced_block();
        let out = prune(
            &g,
            QueryModel::Bsfbc(FairParams::unchecked(2, 2, 1)),
            PruneKind::Colorful,
        );
        assert_eq!(out.stats.upper_after, 4, "block uppers survive");
        assert_eq!(out.stats.lower_after, 6, "block lowers survive");
        // Edge/attr mapping consistent.
        for (u, v) in out.sub.graph.edges() {
            let pu = out.sub.upper_to_parent[u as usize];
            let pv = out.sub.lower_to_parent[v as usize];
            assert!(g.has_edge(pu, pv));
        }
    }

    #[test]
    fn bcfcore_empty_when_impossible() {
        let g = balanced_block();
        let out = prune(
            &g,
            QueryModel::Bsfbc(FairParams::unchecked(5, 5, 1)),
            PruneKind::Colorful,
        );
        assert_eq!(out.stats.remaining_vertices(), 0);
    }
}
