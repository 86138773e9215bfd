//! Bi-side pruning: `BFCore` (Definition 13, Lemma 3) and `BCFCore`
//! (§IV-A of the paper).
//!
//! The *bi-fair α-β core* strengthens the fair α-β core symmetrically:
//! upper vertices need ≥ β neighbors of each lower attribute value *and*
//! lower vertices need ≥ α neighbors of each upper attribute value.
//! Every bi-side fair biclique lives inside it (Lemma 3). `BFCore` is
//! the fair-core peel of [`crate::fcore`] with one upper class per
//! upper attribute (`fcore::core_prune` with `bi = true`).
//!
//! `BCFCore` additionally applies the colorful machinery to **both**
//! sides, using the bi-side 2-hop projection
//! ([`bigraph::twohop::construct_2hop_biside`], Algorithm 8): two fair-
//! side vertices are 2-hop adjacent only if they share ≥ α common
//! neighbors of *every* opposite attribute value. The upper side is
//! pruned symmetrically with parameters `(β, α)` swapped.

use crate::cfcore::colorful_mask;
use crate::config::{BudgetClock, FairParams, StopReason};
use crate::fcore::{compose, core_prune, stats_of, PruneOutcome};
use crate::obs::SpanRecorder;
use bigraph::subgraph::induce;
use bigraph::twohop::construct_2hop_biside;
use bigraph::{BipartiteGraph, Side};

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
    let s1 = rec.timed("core-peel", || core_prune(g, alpha, beta, true, clock))?;
    let g1 = &s1.sub.graph;
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }

    // Stage 2: colorful pruning of the lower (fair-β) side.
    let s2 = rec.timed("colorful-lower", || {
        let h = construct_2hop_biside(g1, Side::Lower, alpha as usize);
        induce(g1, &vec![true; g1.n_upper()], &colorful_mask(&h, beta))
    });
    let g2 = &s2.graph;
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }

    // Stage 3: colorful pruning of the upper side: thresholds swap
    // (two upper vertices must share >= beta common neighbors of every
    // lower attribute; the fair clique needs alpha per upper attr).
    let s3 = rec.timed("colorful-upper", || {
        let h = construct_2hop_biside(g2, Side::Upper, beta as usize);
        induce(g2, &colorful_mask(&h, alpha), &vec![true; g2.n_lower()])
    });

    // Stage 4: final bi-fair core.
    let s4 = rec.timed("re-peel", || {
        core_prune(&s3.graph, alpha, beta, true, clock)
    })?;

    let total = compose(&s1.sub, compose(&s2, compose(&s3, s4.sub)));
    let stats = stats_of(g, &total);
    Ok(PruneOutcome { sub: total, stats })
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
