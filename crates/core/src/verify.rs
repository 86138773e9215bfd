//! Brute-force reference enumerators ("oracles").
//!
//! These enumerate fair bicliques straight from the definitions by
//! exhausting vertex subsets — exponential, but exact for *all*
//! attribute counts and parameter corners, including the proportion
//! models (where the fast maximality checks are only proven for the
//! paper's two-attribute setting). The entire test suite rests on
//! cross-validating the production enumerators against these.
//!
//! Key structural facts used:
//!
//! * Every SSFBC has `L = N(R)` (otherwise `(N(R), R)` is a strictly
//!   larger witness), so SSFBC enumeration ranges over fair-side
//!   subsets only.
//! * A bi-side fair biclique `(A, B)` that admits *any* fair superset
//!   biclique admits one extending a single side: if
//!   `(A ∪ S_U, B ∪ S_V)` is both-side fair, then `(A ∪ S_U, B)` is
//!   too. Hence maximality = no single-side fair extension.

use crate::biclique::Biclique;
use crate::config::FairParams;
use crate::fairset::{exists_fair_extension, is_fair_with, AttrCounts};
use crate::prepared::QueryModel;
use bigraph::{is_sorted_subset, BipartiteGraph, Side, VertexId};
use std::collections::BTreeSet;

const MAX_ORACLE_SIDE: usize = 25;

fn subset_from_mask(mask: u32) -> Vec<VertexId> {
    (0..32)
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| i as VertexId)
        .collect()
}

/// All results of `model` on `g` (Definitions 3–6), by brute force.
///
/// Panics if the lower side — or, for the bi-side models, either side
/// — exceeds 25 vertices (practical limits are far lower; keep test
/// graphs ≤ ~10 per side for the bi-side models).
pub fn oracle(g: &BipartiteGraph, model: QueryModel) -> BTreeSet<Biclique> {
    let (params, theta) = (model.base(), model.theta());
    if model.is_bi_side() {
        bi_side(g, params, theta)
    } else {
        single_side(g, params, theta)
    }
}

/// The single-side models: subsets of the fair side, `L = N(R)`.
fn single_side(g: &BipartiteGraph, params: FairParams, theta: Option<f64>) -> BTreeSet<Biclique> {
    let n_v = g.n_lower();
    assert!(
        n_v <= MAX_ORACLE_SIDE,
        "oracle limited to {MAX_ORACLE_SIDE} fair-side vertices"
    );
    let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
    let attrs = g.attrs(Side::Lower);
    let mut out = BTreeSet::new();

    for mask in 1u32..(1u32 << n_v) {
        let r = subset_from_mask(mask);
        let counts = AttrCounts::of(&r, attrs, n_attrs);
        if !is_fair_with(counts.as_slice(), params.beta, params.delta, theta) {
            continue;
        }
        let l = g.common_neighbors(Side::Lower, &r);
        if (l.len() as u32) < params.alpha {
            continue;
        }
        // Extension candidates: lower vertices fully connected to L.
        let mut cand = AttrCounts::zeros(n_attrs);
        for v in 0..n_v as VertexId {
            if mask & (1 << v) == 0 && is_sorted_subset(&l, g.neighbors(Side::Lower, v)) {
                cand.inc(attrs[v as usize]);
            }
        }
        if exists_fair_extension(
            counts.as_slice(),
            cand.as_slice(),
            params.beta,
            params.delta,
            theta,
        ) {
            continue;
        }
        out.insert(Biclique::new(l, r));
    }
    out
}

/// The bi-side models: fair-side subsets `B`, then upper subsets of
/// `N(B)`.
fn bi_side(g: &BipartiteGraph, params: FairParams, theta: Option<f64>) -> BTreeSet<Biclique> {
    let n_v = g.n_lower();
    assert!(
        n_v <= MAX_ORACLE_SIDE,
        "oracle limited to {MAX_ORACLE_SIDE} vertices per side"
    );
    assert!(g.n_upper() <= MAX_ORACLE_SIDE);
    let na_l = (g.n_attr_values(Side::Lower) as usize).max(1);
    let na_u = (g.n_attr_values(Side::Upper) as usize).max(1);
    let attrs_l = g.attrs(Side::Lower);
    let attrs_u = g.attrs(Side::Upper);
    let feasible = |counts: &[u32], k: u32| is_fair_with(counts, k, params.delta, theta);
    let mut out = BTreeSet::new();

    for mask in 1u32..(1u32 << n_v) {
        let b = subset_from_mask(mask);
        let counts_b = AttrCounts::of(&b, attrs_l, na_l);
        if !feasible(counts_b.as_slice(), params.beta) {
            continue;
        }
        let nb = g.common_neighbors(Side::Lower, &b); // candidates for A
        if nb.is_empty() {
            continue;
        }
        // Enumerate A over subsets of N(B).
        for amask in 1u32..(1u32 << nb.len()) {
            let a: Vec<VertexId> = (0..nb.len())
                .filter(|i| amask & (1 << i) != 0)
                .map(|i| nb[i])
                .collect();
            let counts_a = AttrCounts::of(&a, attrs_u, na_u);
            if !feasible(counts_a.as_slice(), params.alpha) {
                continue;
            }
            // U-side extension candidates: N(B) \ A.
            let mut cand_u = AttrCounts::zeros(na_u);
            for (i, &u) in nb.iter().enumerate() {
                if amask & (1 << i) == 0 {
                    cand_u.inc(attrs_u[u as usize]);
                }
            }
            if exists_fair_extension(
                counts_a.as_slice(),
                cand_u.as_slice(),
                params.alpha,
                params.delta,
                theta,
            ) {
                continue;
            }
            // V-side extension candidates: vertices adjacent to all of A.
            let mut cand_v = AttrCounts::zeros(na_l);
            for v in 0..n_v as VertexId {
                if mask & (1 << v) == 0 && is_sorted_subset(&a, g.neighbors(Side::Lower, v)) {
                    cand_v.inc(attrs_l[v as usize]);
                }
            }
            if exists_fair_extension(
                counts_b.as_slice(),
                cand_v.as_slice(),
                params.beta,
                params.delta,
                theta,
            ) {
                continue;
            }
            out.insert(Biclique::new(a, b.clone()));
        }
    }
    out
}

/// All maximal bicliques with `|L| ≥ min_l ≥ 1` and `|R| ≥ min_r ≥ 1`,
/// by brute force (used for the paper's `MBC` counts in Fig. 6).
pub fn oracle_maximal_bicliques(
    g: &BipartiteGraph,
    min_l: usize,
    min_r: usize,
) -> BTreeSet<Biclique> {
    let n_v = g.n_lower();
    assert!(n_v <= MAX_ORACLE_SIDE);
    assert!(min_l >= 1 && min_r >= 1, "thresholds must be positive");
    let mut out = BTreeSet::new();
    for mask in 1u32..(1u32 << n_v) {
        let r = subset_from_mask(mask);
        let l = g.common_neighbors(Side::Lower, &r);
        if l.len() < min_l || r.len() < min_r {
            continue;
        }
        // Maximal iff R is closed: R = N(L).
        let closure = g.common_neighbors(Side::Upper, &l);
        if closure == r {
            out.insert(Biclique::new(l, r));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProParams;
    use crate::fairset::is_fair;
    use bigraph::GraphBuilder;

    /// 3x4 complete block, attrs U = [0,1,0], V = [0,0,1,1], plus a
    /// pendant edge (3,4) outside the block.
    fn block() -> BipartiteGraph {
        let mut b = GraphBuilder::new(2, 2);
        for u in 0..3 {
            for v in 0..4 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(3, 4);
        b.set_attrs_upper(&[0, 1, 0, 1]);
        b.set_attrs_lower(&[0, 0, 1, 1, 0]);
        b.build().unwrap()
    }

    #[test]
    fn ssfbc_on_block() {
        let g = block();
        let res = oracle(&g, QueryModel::Ssfbc(FairParams::unchecked(2, 1, 1)));
        // With β=1, δ=1: fair subsets of the block's V with |L|>=2.
        // The full block is one; smaller R's fail maximality (can add).
        assert!(res.contains(&Biclique::new(vec![0, 1, 2], vec![0, 1, 2, 3])));
        // Everything reported is a valid biclique.
        for bc in &res {
            for &u in &bc.upper {
                for &v in &bc.lower {
                    assert!(g.has_edge(u, v));
                }
            }
        }
    }

    #[test]
    fn ssfbc_delta_zero_forces_balance() {
        let g = block();
        let res = oracle(&g, QueryModel::Ssfbc(FairParams::unchecked(2, 2, 0)));
        // Only perfectly balanced (2,2) fair sides qualify: the whole
        // block (2 of each attr).
        assert_eq!(res.len(), 1);
        let only = res.iter().next().unwrap();
        assert_eq!(only.lower, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ssfbc_infeasible_params() {
        let g = block();
        assert!(oracle(&g, QueryModel::Ssfbc(FairParams::unchecked(4, 2, 1))).is_empty());
        assert!(oracle(&g, QueryModel::Ssfbc(FairParams::unchecked(2, 3, 1))).is_empty());
    }

    #[test]
    fn bsfbc_subset_of_ssfbc_lower_sides() {
        let g = block();
        let params = FairParams::unchecked(1, 1, 1);
        let bs = oracle(&g, QueryModel::Bsfbc(params));
        let ss = oracle(&g, QueryModel::Ssfbc(params));
        assert!(!bs.is_empty());
        // Observation 6: each BSFBC's R equals some SSFBC's R.
        for b in &bs {
            assert!(
                ss.iter().any(|s| s.lower == b.lower),
                "BSFBC {b} has no SSFBC with same lower side"
            );
        }
        // And each BSFBC's upper side is fair wrt alpha/delta.
        for b in &bs {
            let c = AttrCounts::of(&b.upper, g.attrs(Side::Upper), 2);
            assert!(is_fair(c.as_slice(), 1, 1));
        }
    }

    #[test]
    fn pssfbc_tightens_ssfbc() {
        let g = block();
        let ss = oracle(&g, QueryModel::Ssfbc(FairParams::unchecked(2, 1, 2)));
        let ps = oracle(
            &g,
            QueryModel::Pssfbc(ProParams::new(2, 1, 2, 0.5).unwrap()),
        );
        // theta=0.5 forces perfect balance; every PSSFBC's lower side
        // must be balanced, and counts can only drop.
        for p in &ps {
            let c = AttrCounts::of(&p.lower, g.attrs(Side::Lower), 2);
            assert_eq!(c.as_slice()[0], c.as_slice()[1]);
        }
        // theta = 0 degenerates to the plain model.
        let p0 = oracle(
            &g,
            QueryModel::Pssfbc(ProParams::new(2, 1, 2, 0.0).unwrap()),
        );
        assert_eq!(p0, ss);
    }

    #[test]
    fn maximal_bicliques_on_block() {
        let g = block();
        let mb = oracle_maximal_bicliques(&g, 1, 1);
        // Maximal bicliques: the 3x4 block and the pendant (3,{4}).
        assert!(mb.contains(&Biclique::new(vec![0, 1, 2], vec![0, 1, 2, 3])));
        assert!(mb.contains(&Biclique::new(vec![3], vec![4])));
        assert_eq!(mb.len(), 2);
        // Thresholds filter.
        let mb2 = oracle_maximal_bicliques(&g, 2, 2);
        assert_eq!(mb2.len(), 1);
    }

    #[test]
    fn pbsfbc_theta_zero_matches_bsfbc() {
        let g = block();
        let params = FairParams::unchecked(1, 1, 1);
        let b0 = oracle(&g, QueryModel::Bsfbc(params));
        let p0 = oracle(
            &g,
            QueryModel::Pbsfbc(ProParams::new(1, 1, 1, 0.0).unwrap()),
        );
        assert_eq!(b0, p0);
    }
}
