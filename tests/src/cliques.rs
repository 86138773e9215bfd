//! Maximal clique and weak fair clique enumeration on attributed
//! unipartite graphs.
//!
//! The colorful pruning of the fair biclique paper (§III-B) rides on
//! the *weak fair clique* model of Pan et al. \[31\]: Observation 1 says
//! the fair side of every SSFBC forms a clique with ≥ β vertices per
//! attribute in the 2-hop graph, hence lives inside a weak fair
//! clique, whose vertices survive the ego colorful core. This module
//! implements that substrate directly:
//!
//! * [`maximal_cliques`] — Bron–Kerbosch with greedy pivoting;
//! * [`weak_fair_cliques`] — maximal cliques whose attribute counts
//!   are all ≥ `k` (since the count constraint is monotone under
//!   vertex addition, weak fair cliques are exactly the maximal
//!   cliques passing the filter).
//!
//! Only the test suite needs it: `substrate_properties` certifies
//! Lemma 2 with it, checking that every weak fair clique survives
//! [`fair_biclique::cfcore::ego_colorful_core`].

use bigraph::{UniGraph, VertexId};
use rand::prelude::*;

/// Visit every maximal clique of `g` (Bron–Kerbosch with pivoting).
/// Cliques are reported as sorted vertex lists.
pub fn maximal_cliques(g: &UniGraph, visit: &mut dyn FnMut(&[VertexId])) {
    let n = g.n();
    if n == 0 {
        return;
    }
    let mut r: Vec<VertexId> = Vec::new();
    let p: Vec<VertexId> = (0..n as VertexId).collect();
    let x: Vec<VertexId> = Vec::new();
    bk(g, &mut r, p, x, visit);
}

fn bk(
    g: &UniGraph,
    r: &mut Vec<VertexId>,
    p: Vec<VertexId>,
    x: Vec<VertexId>,
    visit: &mut dyn FnMut(&[VertexId]),
) {
    if p.is_empty() && x.is_empty() {
        let mut c = r.clone();
        c.sort_unstable();
        visit(&c);
        return;
    }
    // Pivot: the vertex of P ∪ X with most neighbors in P.
    let pivot = p
        .iter()
        .chain(&x)
        .copied()
        .max_by_key(|&u| p.iter().filter(|&&v| g.has_edge(u, v)).count())
        .expect("P ∪ X non-empty");
    // Branch on P \ N(pivot); note the pivot itself (when in P) stays
    // a candidate — it is never its own neighbor.
    let candidates: Vec<VertexId> = p
        .iter()
        .copied()
        .filter(|&v| !g.has_edge(pivot, v))
        .collect();
    let mut p = p;
    let mut x = x;
    for v in candidates {
        r.push(v);
        let p_next: Vec<VertexId> = p.iter().copied().filter(|&w| g.has_edge(v, w)).collect();
        let x_next: Vec<VertexId> = x.iter().copied().filter(|&w| g.has_edge(v, w)).collect();
        bk(g, r, p_next, x_next, visit);
        r.pop();
        p.retain(|&w| w != v);
        x.push(v);
    }
}

/// Visit every *weak fair clique* of `g`: maximal cliques in which
/// every attribute value of the domain appears at least `k` times.
pub fn weak_fair_cliques(g: &UniGraph, k: u32, visit: &mut dyn FnMut(&[VertexId])) {
    let n_attrs = (g.n_attr_values() as usize).max(1);
    maximal_cliques(g, &mut |c| {
        let mut counts = vec![0u32; n_attrs];
        for &v in c {
            counts[g.attr(v) as usize] += 1;
        }
        if counts.iter().all(|&c| c >= k) {
            visit(c);
        }
    });
}

/// Collecting wrapper around [`maximal_cliques`].
pub fn collect_maximal_cliques(g: &UniGraph) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    maximal_cliques(g, &mut |c| out.push(c.to_vec()));
    out
}

/// Collecting wrapper around [`weak_fair_cliques`].
pub fn collect_weak_fair_cliques(g: &UniGraph, k: u32) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    weak_fair_cliques(g, k, &mut |c| out.push(c.to_vec()));
    out
}

/// Oracle: maximal cliques by subset enumeration
/// (`n ≤ 20`).
pub fn maximal_cliques_bruteforce(g: &UniGraph) -> Vec<Vec<VertexId>> {
    let n = g.n();
    assert!(n <= 20);
    let is_clique = |mask: u32| -> bool {
        let vs: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| mask & (1 << v) != 0)
            .collect();
        vs.iter()
            .enumerate()
            .all(|(i, &a)| vs[i + 1..].iter().all(|&b| g.has_edge(a, b)))
    };
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        if !is_clique(mask) {
            continue;
        }
        let mut maximal = true;
        for v in 0..n {
            if mask & (1 << v) == 0 && is_clique(mask | (1 << v)) {
                maximal = false;
                break;
            }
        }
        if maximal {
            out.push(
                (0..n as VertexId)
                    .filter(|&v| mask & (1 << v) != 0)
                    .collect(),
            );
        }
    }
    out
}

/// Attribute counts of a vertex set.
pub fn attr_counts_of(g: &UniGraph, vs: &[VertexId]) -> Vec<u32> {
    let mut counts = vec![0u32; (g.n_attr_values() as usize).max(1)];
    for &v in vs {
        counts[g.attr(v) as usize] += 1;
    }
    counts
}

/// Convenience: does the whole clique `vs` satisfy `≥ k` per attribute?
pub fn is_k_fair(g: &UniGraph, vs: &[VertexId], k: u32) -> bool {
    attr_counts_of(g, vs).iter().all(|&c| c >= k)
}

/// A seeded `G(n, p)` graph whose vertices draw one of two attribute
/// values uniformly.
pub fn random_unigraph(n: usize, p: f64, seed: u64) -> UniGraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for a in 0..n as VertexId {
        for b in (a + 1)..n as VertexId {
            if rng.random_bool(p) {
                edges.push((a, b));
            }
        }
    }
    let attrs: Vec<u16> = (0..n).map(|_| rng.random_range(0..2)).collect();
    UniGraph::from_edges(2, attrs, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn triangle_plus_edge() {
        let g = UniGraph::from_edges(1, vec![0; 4], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let cliques: BTreeSet<Vec<VertexId>> = collect_maximal_cliques(&g).into_iter().collect();
        let want: BTreeSet<Vec<VertexId>> = [vec![0, 1, 2], vec![2, 3]].into_iter().collect();
        assert_eq!(cliques, want);
    }

    #[test]
    fn matches_bruteforce_on_random_graphs() {
        for seed in 0..25u64 {
            let g = random_unigraph(9, 0.4, seed);
            let got: BTreeSet<Vec<VertexId>> = collect_maximal_cliques(&g).into_iter().collect();
            let want: BTreeSet<Vec<VertexId>> =
                maximal_cliques_bruteforce(&g).into_iter().collect();
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(
                got.len(),
                collect_maximal_cliques(&g).len(),
                "no duplicates"
            );
        }
    }

    #[test]
    fn isolated_vertices_are_trivial_cliques() {
        let g = UniGraph::from_edges(1, vec![0; 3], &[(0, 1)]);
        let cliques: BTreeSet<Vec<VertexId>> = collect_maximal_cliques(&g).into_iter().collect();
        assert!(cliques.contains(&vec![0, 1]));
        assert!(cliques.contains(&vec![2]));
    }

    #[test]
    fn weak_fair_cliques_filter() {
        // K4 with attrs 0,0,1,1 plus pendant attr-0 vertex.
        let g = UniGraph::from_edges(
            2,
            vec![0, 0, 1, 1, 0],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)],
        );
        let wfc = collect_weak_fair_cliques(&g, 2);
        assert_eq!(wfc, vec![vec![0, 1, 2, 3]]);
        let wfc1 = collect_weak_fair_cliques(&g, 1);
        // {3,4} has attrs {1,0}: qualifies at k=1.
        assert!(wfc1.contains(&vec![3, 4]));
        assert!(collect_weak_fair_cliques(&g, 3).is_empty());
    }

    #[test]
    fn helpers() {
        let g = UniGraph::from_edges(2, vec![0, 1, 1], &[(0, 1), (1, 2)]);
        assert_eq!(attr_counts_of(&g, &[0, 1, 2]), vec![1, 2]);
        assert!(is_k_fair(&g, &[0, 1], 1));
        assert!(!is_k_fair(&g, &[1, 2], 1));
    }
}
