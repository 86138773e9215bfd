//! Colorful fair α-β core pruning (`CFCore`, Algorithm 2).
//!
//! Pipeline (fair side = lower, per the paper):
//!
//! 1. peel to the fair α-β core with `FCore` ([`crate::fcore`]);
//! 2. build the 2-hop graph `H` on the fair side
//!    ([`bigraph::twohop::construct_2hop`], Algorithm 3) — in an SSFBC
//!    every pair of fair-side vertices shares ≥ α neighbors, so each
//!    SSFBC's fair side is a clique in `H` (Observation 1);
//! 3. drop `H`-vertices of degree `< A_n^V·β − 1` (a fair clique has at
//!    least `A_n^V·β` vertices);
//! 4. greedy-color `H` and peel to the **ego colorful β-core**
//!    (Definitions 9–10): every surviving vertex must see ≥ β distinct
//!    colors among `N(u) ∪ {u}` for *every* attribute value — a clique
//!    is rainbow, so a fair clique forces β distinct colors per
//!    attribute (Lemma 2);
//! 5. remove the peeled fair-side vertices from the bipartite graph and
//!    run `FCore` once more.
//!
//! Steps 3–4 are `colorful_mask`, which `BCFCore`
//! ([`crate::bfcore`]) runs on its bi-side 2-hop graphs too.
//!
//! Losslessness: a vertex removed here is in no *maximal* fair biclique
//! (Lemma 2); and any witness that would extend a candidate biclique is
//! itself inside a maximal fair biclique, hence inside this core — so
//! maximality checked on the pruned graph equals maximality on the
//! original.

use crate::config::{BudgetClock, FairParams, StopReason};
use crate::fcore::{compose, core_prune, stats_of, PruneOutcome};
use crate::obs::SpanRecorder;
use bigraph::coloring::greedy_color_by_degree;
use bigraph::subgraph::induce;
use bigraph::twohop::construct_2hop;
use bigraph::{BipartiteGraph, Side, UniGraph, VertexId};

/// Peel `h` to its ego colorful `k`-core (Definition 10), returning the
/// membership mask.
///
/// The *ego colorful degree* `ED_a(u)` is the number of distinct colors
/// among `{v ∈ N(u) ∪ {u} : v.val = a}`; a vertex survives iff
/// `min_a ED_a(u) ≥ k` in the remaining graph.
pub fn ego_colorful_core(h: &UniGraph, k: u32) -> Vec<bool> {
    let n = h.n();
    if n == 0 {
        return Vec::new();
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
    alive
}

/// The colorful stage on a fair side's 2-hop graph `h` (steps 3–4 of
/// the module docs): a fair clique has at least `A_n·k` vertices, so
/// drop the `h`-vertices of degree `< A_n·k − 1`, peel the rest to the
/// ego colorful `k`-core, and return the survivors as a mask over `h`.
pub(crate) fn colorful_mask(h: &UniGraph, k: u32) -> Vec<bool> {
    let deg_thresh = h.n_attr_values() as i64 * k as i64 - 1;
    let keep_deg: Vec<bool> = (0..h.n() as VertexId)
        .map(|v| h.degree(v) as i64 >= deg_thresh)
        .collect();
    let (h2, map) = h.induce(&keep_deg);
    let mut keep = vec![false; h.n()];
    for (alive, &old) in ego_colorful_core(&h2, k).into_iter().zip(&map) {
        keep[old as usize] = alive;
    }
    keep
}

/// `CFCore` (Algorithm 2): colorful fair α-β core pruning for the
/// single-side model.
///
/// `clock` is threaded into the `FCore` peels and probed between the
/// cascade's stages (the 2-hop projection and the coloring are the
/// expensive phases, so each stage boundary is a natural abort point).
/// The initial peel (`core-peel`), the 2-hop projection (`2hop`), the
/// degree filter + ego colorful core (`ego-core`), and the final
/// re-peel (`re-peel`) each become one span of `rec`.
pub(crate) fn cfcore(
    g: &BipartiteGraph,
    params: FairParams,
    clock: &BudgetClock,
    rec: &mut SpanRecorder,
) -> Result<PruneOutcome, StopReason> {
    let (alpha, beta) = (params.alpha, params.beta);
    // Stage 1: fair α-β core.
    let s1 = rec.timed("core-peel", || core_prune(g, alpha, beta, false, clock))?;
    let g1 = &s1.sub.graph;
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }

    // Stage 2: 2-hop projection of the fair side (threaded when the
    // post-FCore graph is still large).
    let h = rec.timed("2hop", || {
        if g1.n_lower() >= 20_000 {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            bigraph::twohop::construct_2hop_par(g1, Side::Lower, alpha as usize, threads)
        } else {
            construct_2hop(g1, Side::Lower, alpha as usize)
        }
    });
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }

    // Stages 3+4: degree filter and ego colorful beta-core.
    let keep_lower = rec.timed("ego-core", || colorful_mask(&h, beta));
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }

    // Stage 5: drop the peeled fair-side vertices and re-run FCore.
    let (s2, s3) = rec.timed("re-peel", || {
        let s2 = induce(g1, &vec![true; g1.n_upper()], &keep_lower);
        core_prune(&s2.graph, alpha, beta, false, clock).map(|s3| (s2, s3))
    })?;

    let total = compose(&s1.sub, compose(&s2, s3.sub));
    let stats = stats_of(g, &total);
    Ok(PruneOutcome { sub: total, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PruneKind;
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
}
