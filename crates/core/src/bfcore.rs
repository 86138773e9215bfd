//! Bi-side pruning: `BFCore` (Definition 13, Lemma 3) and `BCFCore`
//! (§IV-A of the paper).
//!
//! The *bi-fair α-β core* strengthens the fair α-β core symmetrically:
//! upper vertices need ≥ β neighbors of each lower attribute value *and*
//! lower vertices need ≥ α neighbors of each upper attribute value.
//! Every bi-side fair biclique lives inside it (Lemma 3).
//!
//! `BCFCore` additionally applies the colorful machinery to **both**
//! sides, using the bi-side 2-hop projection
//! ([`bigraph::twohop::construct_2hop_biside`], Algorithm 8): two fair-
//! side vertices are 2-hop adjacent only if they share ≥ α common
//! neighbors of *every* opposite attribute value. The upper side is
//! pruned symmetrically with parameters `(β, α)` swapped.

use crate::cfcore::ego_colorful_core;
use crate::config::{BudgetClock, FairParams, StopReason};
use crate::fcore::{compact, compose, stats_of, PruneOutcome, CTL_PROBE_INTERVAL};
use crate::obs::SpanRecorder;
use bigraph::subgraph::induce;
use bigraph::twohop::construct_2hop_biside;
use bigraph::{BipartiteGraph, Side, VertexId};

/// `BFCore`: peel `g` to its bi-fair α-β core and return the
/// membership masks `(keep_upper, keep_lower)`.
///
/// Probes `clock` on entry and every [`CTL_PROBE_INTERVAL`] peel steps,
/// as [`crate::fcore`] does.
pub(crate) fn bfcore(
    g: &BipartiteGraph,
    alpha: u32,
    beta: u32,
    clock: &BudgetClock,
) -> Result<(Vec<bool>, Vec<bool>), StopReason> {
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }
    let probe = !clock.never_interrupted();
    let n_u = g.n_upper();
    let n_v = g.n_lower();
    let na_upper = (g.n_attr_values(Side::Upper) as usize).max(1);
    let na_lower = (g.n_attr_values(Side::Lower) as usize).max(1);
    let upper_attrs = g.attrs(Side::Upper);
    let lower_attrs = g.attrs(Side::Lower);

    // attr degrees of upper vertices over lower attrs, and vice versa.
    let mut ad_u = vec![0u32; n_u * na_lower];
    for u in 0..n_u as VertexId {
        for &v in g.neighbors(Side::Upper, u) {
            ad_u[u as usize * na_lower + lower_attrs[v as usize] as usize] += 1;
        }
    }
    let mut ad_v = vec![0u32; n_v * na_upper];
    for v in 0..n_v as VertexId {
        for &u in g.neighbors(Side::Lower, v) {
            ad_v[v as usize * na_upper + upper_attrs[u as usize] as usize] += 1;
        }
    }

    let mut alive_u = vec![true; n_u];
    let mut alive_v = vec![true; n_v];
    let mut stack: Vec<(Side, VertexId)> = Vec::new();

    for u in 0..n_u {
        if ad_u[u * na_lower..(u + 1) * na_lower]
            .iter()
            .any(|&d| d < beta)
        {
            alive_u[u] = false;
            stack.push((Side::Upper, u as VertexId));
        }
    }
    for v in 0..n_v {
        if ad_v[v * na_upper..(v + 1) * na_upper]
            .iter()
            .any(|&d| d < alpha)
        {
            alive_v[v] = false;
            stack.push((Side::Lower, v as VertexId));
        }
    }

    let mut steps: u32 = 0;
    while let Some((side, x)) = stack.pop() {
        steps = steps.wrapping_add(1);
        if probe && steps % CTL_PROBE_INTERVAL == 0 {
            if let Some(r) = clock.interrupted() {
                return Err(r);
            }
        }
        match side {
            Side::Upper => {
                let a = upper_attrs[x as usize] as usize;
                for &v in g.neighbors(Side::Upper, x) {
                    if alive_v[v as usize] {
                        let s = v as usize * na_upper + a;
                        ad_v[s] -= 1;
                        if ad_v[s] < alpha {
                            alive_v[v as usize] = false;
                            stack.push((Side::Lower, v));
                        }
                    }
                }
            }
            Side::Lower => {
                let a = lower_attrs[x as usize] as usize;
                for &u in g.neighbors(Side::Lower, x) {
                    if alive_u[u as usize] {
                        let s = u as usize * na_lower + a;
                        ad_u[s] -= 1;
                        if ad_u[s] < beta {
                            alive_u[u as usize] = false;
                            stack.push((Side::Upper, u));
                        }
                    }
                }
            }
        }
    }
    Ok((alive_u, alive_v))
}

/// `BCFCore`: bi-colorful fair α-β core pruning.
///
/// Stages: `BFCore` → colorful pruning of the lower side (bi-side
/// 2-hop with per-attribute threshold α, ego colorful β-core) →
/// colorful pruning of the upper side (flipped graph, threshold β, ego
/// colorful α-core) → final `BFCore`.
///
/// `clock` is threaded into the `BFCore` peels and probed before each
/// colorful stage (each builds a 2-hop projection, the dominant cost of
/// the cascade). `rec` attributes wall time to the stages
/// (`core-peel`, `colorful-lower`, `colorful-upper`, `re-peel`).
pub(crate) fn bcfcore(
    g: &BipartiteGraph,
    params: FairParams,
    clock: &BudgetClock,
    rec: &mut SpanRecorder,
) -> Result<PruneOutcome, StopReason> {
    let (alpha, beta) = (params.alpha, params.beta);
    // Stage 1: bi-fair core.
    let s1 = rec.timed("core-peel", || {
        bfcore(g, alpha, beta, clock).map(|m| compact(g, m))
    })?;
    let g1 = &s1.sub.graph;
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }

    // Stage 2: colorful pruning of the lower (fair-β) side.
    let s2 = rec.timed("colorful-lower", || {
        let keep_lower = biside_colorful_mask(g1, Side::Lower, alpha, beta);
        induce(g1, &vec![true; g1.n_upper()], &keep_lower)
    });
    let g2 = &s2.graph;
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }

    // Stage 3: colorful pruning of the upper side: thresholds swap
    // (two upper vertices must share >= beta common neighbors of every
    // lower attribute; the fair clique needs alpha per upper attr).
    let s3 = rec.timed("colorful-upper", || {
        let keep_upper = biside_colorful_mask(g2, Side::Upper, beta, alpha);
        induce(g2, &keep_upper, &vec![true; g2.n_lower()])
    });

    // Stage 4: final bi-fair core.
    let s4 = rec.timed("re-peel", || {
        bfcore(&s3.graph, alpha, beta, clock).map(|m| compact(&s3.graph, m))
    })?;

    let total = compose(&s1.sub, compose(&s2, compose(&s3, s4.sub)));
    let stats = stats_of(g, &total);
    Ok(PruneOutcome { sub: total, stats })
}

/// Colorful mask of one side: bi-side 2-hop projection with common-
/// neighbor threshold `common_k` per opposite attribute value, degree
/// filter `A_n·core_k − 1`, then ego colorful `core_k`-core.
fn biside_colorful_mask(g: &BipartiteGraph, side: Side, common_k: u32, core_k: u32) -> Vec<bool> {
    let h = construct_2hop_biside(g, side, common_k as usize);
    let n_attrs = g.n_attr_values(side) as i64;
    let deg_thresh = n_attrs * core_k as i64 - 1;
    let keep_deg: Vec<bool> = (0..h.n() as VertexId)
        .map(|v| h.degree(v) as i64 >= deg_thresh)
        .collect();
    let (h2, map2) = h.induce(&keep_deg);
    let ego_alive = ego_colorful_core(&h2, core_k);
    let mut keep = vec![false; g.n(side)];
    for (i, &old) in map2.iter().enumerate() {
        if ego_alive[i] {
            keep[old as usize] = true;
        }
    }
    keep
}

/// Test helper: does the kept subgraph satisfy the bi-fair core
/// constraints?
pub fn is_bifair_core(
    g: &BipartiteGraph,
    keep_upper: &[bool],
    keep_lower: &[bool],
    alpha: u32,
    beta: u32,
) -> bool {
    let na_u = (g.n_attr_values(Side::Upper) as usize).max(1);
    let na_l = (g.n_attr_values(Side::Lower) as usize).max(1);
    for u in 0..g.n_upper() as VertexId {
        if !keep_upper[u as usize] {
            continue;
        }
        let mut ad = vec![0u32; na_l];
        for &v in g.neighbors(Side::Upper, u) {
            if keep_lower[v as usize] {
                ad[g.attr(Side::Lower, v) as usize] += 1;
            }
        }
        if ad.iter().any(|&d| d < beta) {
            return false;
        }
    }
    for v in 0..g.n_lower() as VertexId {
        if !keep_lower[v as usize] {
            continue;
        }
        let mut ad = vec![0u32; na_u];
        for &u in g.neighbors(Side::Lower, v) {
            if keep_upper[u as usize] {
                ad[g.attr(Side::Upper, u) as usize] += 1;
            }
        }
        if ad.iter().any(|&d| d < alpha) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Budget, PruneKind};
    use crate::fcore::fcore_masks;
    use crate::pipeline::prune;
    use crate::prepared::QueryModel;
    use bigraph::generate::{plant_bicliques, random_uniform};
    use bigraph::GraphBuilder;

    fn bfcore_masks(g: &BipartiteGraph, alpha: u32, beta: u32) -> (Vec<bool>, Vec<bool>) {
        bfcore(g, alpha, beta, &Budget::UNLIMITED.start()).unwrap()
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
        assert!(is_bifair_core(
            &g,
            &{
                let (ku, _) = bfcore_masks(&g, 2, 2);
                ku
            },
            &{
                let (_, kv) = bfcore_masks(&g, 2, 2);
                kv
            },
            2,
            2
        ));
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
                assert!(is_bifair_core(&g, &bu, &bv, a, b));
            }
        }
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
