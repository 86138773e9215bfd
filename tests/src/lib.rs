//! Shared helpers for the cross-crate integration test suite:
//! definition-level validity checkers for every fair biclique model
//! (used to certify enumerator output on graphs too large for the
//! brute-force oracles).

#![forbid(unsafe_code)]

pub mod cliques;

use bigraph::{BipartiteGraph, Side, VertexId};
use fair_biclique::biclique::Biclique;
use fair_biclique::config::{FairParams, ProParams, RunConfig};
use fair_biclique::fairset::{exists_fair_extension, is_fair, is_fair_pro, AttrCounts};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::obs::SpanRecorder;
use fair_biclique::prepared::{PreparedQuery, QueryModel, ResultMode};

/// Assert `bc` is a complete bipartite subgraph of `g`.
pub fn assert_biclique(g: &BipartiteGraph, bc: &Biclique) {
    for &u in &bc.upper {
        for &v in &bc.lower {
            assert!(g.has_edge(u, v), "missing edge ({u},{v}) in {bc}");
        }
    }
}

fn lower_counts(g: &BipartiteGraph, vs: &[VertexId]) -> AttrCounts {
    AttrCounts::of(
        vs,
        g.attrs(Side::Lower),
        (g.n_attr_values(Side::Lower) as usize).max(1),
    )
}

fn upper_counts(g: &BipartiteGraph, us: &[VertexId]) -> AttrCounts {
    AttrCounts::of(
        us,
        g.attrs(Side::Upper),
        (g.n_attr_values(Side::Upper) as usize).max(1),
    )
}

/// Assert `bc` satisfies Definition 3 (single-side fair biclique) in
/// full, including maximality.
pub fn assert_valid_ssfbc(g: &BipartiteGraph, bc: &Biclique, params: FairParams) {
    assert_biclique(g, bc);
    assert!(bc.upper.len() as u32 >= params.alpha, "|L| < alpha in {bc}");
    let counts = lower_counts(g, &bc.lower);
    assert!(
        is_fair(counts.as_slice(), params.beta, params.delta),
        "lower side not fair in {bc}"
    );
    // L must be the full common neighborhood of R.
    let closure = g.common_neighbors(Side::Lower, &bc.lower);
    assert_eq!(closure, bc.upper, "L != N(R) in {bc}");
    // No fair extension using vertices fully connected to L.
    let cand = fully_connected_lower_candidates(g, bc);
    assert!(
        !exists_fair_extension(
            counts.as_slice(),
            cand.as_slice(),
            params.beta,
            params.delta,
            None
        ),
        "R extendable in {bc}"
    );
}

/// Assert `bc` satisfies Definition 5 (proportion single-side).
pub fn assert_valid_pssfbc(g: &BipartiteGraph, bc: &Biclique, pro: ProParams) {
    assert_biclique(g, bc);
    assert!(bc.upper.len() as u32 >= pro.base.alpha);
    let counts = lower_counts(g, &bc.lower);
    assert!(is_fair_pro(
        counts.as_slice(),
        pro.base.beta,
        pro.base.delta,
        pro.theta
    ));
    let closure = g.common_neighbors(Side::Lower, &bc.lower);
    assert_eq!(closure, bc.upper, "L != N(R) in {bc}");
    let cand = fully_connected_lower_candidates(g, bc);
    assert!(!exists_fair_extension(
        counts.as_slice(),
        cand.as_slice(),
        pro.base.beta,
        pro.base.delta,
        Some(pro.theta)
    ));
}

fn fully_connected_lower_candidates(g: &BipartiteGraph, bc: &Biclique) -> AttrCounts {
    let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
    let mut cand = AttrCounts::zeros(n_attrs);
    for v in 0..g.n_lower() as VertexId {
        if bc.lower.binary_search(&v).is_err()
            && bigraph::is_sorted_subset(&bc.upper, g.neighbors(Side::Lower, v))
        {
            cand.inc(g.attr(Side::Lower, v));
        }
    }
    cand
}

/// Assert `bc` satisfies Definition 4 (bi-side fair biclique) in full.
pub fn assert_valid_bsfbc(g: &BipartiteGraph, bc: &Biclique, params: FairParams) {
    assert_biclique(g, bc);
    let cu = upper_counts(g, &bc.upper);
    let cl = lower_counts(g, &bc.lower);
    assert!(
        is_fair(cu.as_slice(), params.alpha, params.delta),
        "upper not fair in {bc}"
    );
    assert!(
        is_fair(cl.as_slice(), params.beta, params.delta),
        "lower not fair in {bc}"
    );
    // Maximality: no fair extension on either side (single-side
    // extension suffices; see verify-module docs).
    let n_au = (g.n_attr_values(Side::Upper) as usize).max(1);
    let mut cand_u = AttrCounts::zeros(n_au);
    for u in 0..g.n_upper() as VertexId {
        if bc.upper.binary_search(&u).is_err()
            && bigraph::is_sorted_subset(&bc.lower, g.neighbors(Side::Upper, u))
        {
            cand_u.inc(g.attr(Side::Upper, u));
        }
    }
    assert!(
        !exists_fair_extension(
            cu.as_slice(),
            cand_u.as_slice(),
            params.alpha,
            params.delta,
            None
        ),
        "upper extendable in {bc}"
    );
    let cand_l = fully_connected_lower_candidates(g, bc);
    assert!(
        !exists_fair_extension(
            cl.as_slice(),
            cand_l.as_slice(),
            params.beta,
            params.delta,
            None
        ),
        "lower extendable in {bc}"
    );
}

/// The largest fair biclique of `model` under `metric` (`None` when
/// none exists), from the one execution path: prepare, then
/// [`PreparedQuery::answer`] in [`ResultMode::Maximum`] at `cfg`.
pub fn maximum_of(
    g: &BipartiteGraph,
    model: QueryModel,
    metric: SizeMetric,
    cfg: &RunConfig,
) -> Option<Biclique> {
    PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate)
        .answer(
            ResultMode::Maximum(metric),
            cfg,
            &mut SpanRecorder::disabled(),
        )
        .bicliques
        .pop()
}

/// A deterministic medium-size test graph: random background plus
/// planted dense blocks (the regime the paper's datasets live in).
pub fn medium_graph(seed: u64) -> BipartiteGraph {
    let base = bigraph::generate::random_uniform(30, 36, 220, 2, 2, seed);
    bigraph::generate::plant_bicliques(&base, 2, 5, 8, 1.0, seed ^ 0xb10c)
}

/// Naive fixpoint reference for the fair α-β core (Definition 8) or,
/// with `bi`, the bi-fair α-β core (Definition 13): drop every kept
/// vertex that breaks its rule against the vertices still kept, and
/// repeat until a pass drops none. An upper vertex needs `≥ β` kept
/// neighbours of each lower attribute value; a lower vertex needs
/// `≥ α` kept neighbours in total, or of each upper attribute value
/// with `bi`. Returns `(keep_upper, keep_lower)`.
pub fn fair_core_fixpoint(
    g: &BipartiteGraph,
    alpha: u32,
    beta: u32,
    bi: bool,
) -> (Vec<bool>, Vec<bool>) {
    let mut keep_upper = vec![true; g.n_upper()];
    let mut keep_lower = vec![true; g.n_lower()];
    loop {
        let mut dropped = false;
        for u in 0..g.n_upper() as VertexId {
            let kept: Vec<VertexId> = g
                .neighbors(Side::Upper, u)
                .iter()
                .copied()
                .filter(|&v| keep_lower[v as usize])
                .collect();
            let counts = lower_counts(g, &kept);
            if keep_upper[u as usize] && counts.as_slice().iter().any(|&c| c < beta) {
                keep_upper[u as usize] = false;
                dropped = true;
            }
        }
        for v in 0..g.n_lower() as VertexId {
            let kept: Vec<VertexId> = g
                .neighbors(Side::Lower, v)
                .iter()
                .copied()
                .filter(|&u| keep_upper[u as usize])
                .collect();
            let breaks = if bi {
                upper_counts(g, &kept).as_slice().iter().any(|&c| c < alpha)
            } else {
                (kept.len() as u32) < alpha
            };
            if keep_lower[v as usize] && breaks {
                keep_lower[v as usize] = false;
                dropped = true;
            }
        }
        if !dropped {
            return (keep_upper, keep_lower);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_biclique::prelude::*;

    #[test]
    fn checkers_accept_enumerator_output() {
        let g = medium_graph(1);
        let params = FairParams::unchecked(2, 2, 1);
        let report = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
        assert!(!report.bicliques.is_empty());
        for bc in &report.bicliques {
            assert_valid_ssfbc(&g, bc, params);
        }
    }

    #[test]
    #[should_panic(expected = "missing edge")]
    fn checkers_reject_non_biclique() {
        let g = medium_graph(2);
        let fake = Biclique::new(vec![0, 1, 2], vec![0, 1, 2, 3]);
        assert_biclique(&g, &fake);
    }
}
