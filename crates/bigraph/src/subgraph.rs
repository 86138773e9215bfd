//! Induced subgraphs, vertex-set restriction, and edge sampling.
//!
//! The pruning algorithms peel vertices and then hand the enumerators a
//! *compacted* graph (dense ids again) together with the mapping back to
//! the original ids; [`induce`] produces exactly that. [`sample_edges`]
//! implements the 20%–100% edge subsets of the paper's scalability
//! experiment (Exp-5).

use crate::builder::GraphBuilder;
use crate::graph::{BipartiteGraph, Side, VertexId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A compacted induced subgraph plus the maps back to the parent graph.
#[derive(Debug, Clone)]
pub struct InducedSubgraph {
    /// The compacted subgraph (dense vertex ids on both sides).
    pub graph: BipartiteGraph,
    /// `upper_to_parent[new_id] = old_id` for upper vertices.
    pub upper_to_parent: Vec<VertexId>,
    /// `lower_to_parent[new_id] = old_id` for lower vertices.
    pub lower_to_parent: Vec<VertexId>,
}

impl InducedSubgraph {
    /// Map a subgraph vertex back to the parent graph.
    #[inline]
    pub fn to_parent(&self, side: Side, v: VertexId) -> VertexId {
        match side {
            Side::Upper => self.upper_to_parent[v as usize],
            Side::Lower => self.lower_to_parent[v as usize],
        }
    }

    /// Relabel both sides in non-increasing degree order (ties by
    /// current id), composing the parent maps so results still
    /// translate to original ids.
    ///
    /// Pruned-core enumeration touches high-degree vertices far more
    /// often than fringe ones; giving them the smallest ids packs
    /// their CSR adjacency (and bitset rows, which are indexed by
    /// vertex id) into the same few cache lines. Results are
    /// label-invariant once mapped back to parent ids — only the
    /// discovery order of the walk changes.
    pub fn relabel_degree_desc(&self) -> InducedSubgraph {
        let g = &self.graph;
        // perm[new_id] = old_id, sorted by (degree desc, old id asc).
        let perm = |side: Side, n: usize| -> Vec<VertexId> {
            let mut ids: Vec<VertexId> = (0..n as VertexId).collect();
            ids.sort_by_key(|&v| (std::cmp::Reverse(g.degree(side, v)), v));
            ids
        };
        let perm_u = perm(Side::Upper, g.n_upper());
        let perm_v = perm(Side::Lower, g.n_lower());
        let invert = |perm: &[VertexId]| -> Vec<VertexId> {
            let mut inv = vec![0 as VertexId; perm.len()];
            for (new, &old) in perm.iter().enumerate() {
                inv[old as usize] = new as VertexId;
            }
            inv
        };
        let inv_u = invert(&perm_u);
        let inv_v = invert(&perm_v);

        let mut b = GraphBuilder::new(g.n_attr_values(Side::Upper), g.n_attr_values(Side::Lower))
            .with_edge_capacity(g.n_edges());
        b.ensure_vertices(g.n_upper(), g.n_lower());
        for (u, v) in g.edges() {
            b.add_edge(inv_u[u as usize], inv_v[v as usize]);
        }
        let ua: Vec<_> = perm_u.iter().map(|&o| g.attr(Side::Upper, o)).collect();
        let la: Vec<_> = perm_v.iter().map(|&o| g.attr(Side::Lower, o)).collect();
        b.set_attrs_upper(&ua);
        b.set_attrs_lower(&la);

        InducedSubgraph {
            graph: b.build().expect("relabeled graphs are valid"),
            upper_to_parent: perm_u
                .iter()
                .map(|&o| self.upper_to_parent[o as usize])
                .collect(),
            lower_to_parent: perm_v
                .iter()
                .map(|&o| self.lower_to_parent[o as usize])
                .collect(),
        }
    }
}

/// Induce the subgraph of `g` on the vertices where `keep_*` is true,
/// compacting ids on both sides. Edges survive iff both endpoints do.
///
/// `keep_upper.len()` must equal `g.n_upper()` and likewise for lower.
pub fn induce(g: &BipartiteGraph, keep_upper: &[bool], keep_lower: &[bool]) -> InducedSubgraph {
    assert_eq!(keep_upper.len(), g.n_upper(), "keep_upper length");
    assert_eq!(keep_lower.len(), g.n_lower(), "keep_lower length");

    let mut upper_map = vec![VertexId::MAX; g.n_upper()];
    let mut lower_map = vec![VertexId::MAX; g.n_lower()];
    let mut upper_to_parent = Vec::new();
    let mut lower_to_parent = Vec::new();
    for (old, &k) in keep_upper.iter().enumerate() {
        if k {
            upper_map[old] = upper_to_parent.len() as VertexId;
            upper_to_parent.push(old as VertexId);
        }
    }
    for (old, &k) in keep_lower.iter().enumerate() {
        if k {
            lower_map[old] = lower_to_parent.len() as VertexId;
            lower_to_parent.push(old as VertexId);
        }
    }

    let mut b = GraphBuilder::new(g.n_attr_values(Side::Upper), g.n_attr_values(Side::Lower));
    b.ensure_vertices(upper_to_parent.len(), lower_to_parent.len());
    for (u, v) in g.edges() {
        let (nu, nv) = (upper_map[u as usize], lower_map[v as usize]);
        if nu != VertexId::MAX && nv != VertexId::MAX {
            b.add_edge(nu, nv);
        }
    }
    let ua: Vec<_> = upper_to_parent
        .iter()
        .map(|&old| g.attr(Side::Upper, old))
        .collect();
    let la: Vec<_> = lower_to_parent
        .iter()
        .map(|&old| g.attr(Side::Lower, old))
        .collect();
    b.set_attrs_upper(&ua);
    b.set_attrs_lower(&la);

    InducedSubgraph {
        graph: b.build().expect("induced graphs are valid"),
        upper_to_parent,
        lower_to_parent,
    }
}

/// Keep a uniformly random `fraction` of the edges (both endpoints'
/// vertex sets and attributes are preserved; vertices may become
/// isolated). Deterministic in `seed`. This is the paper's Exp-5
/// protocol: "generate four subgraphs for each dataset by randomly
/// picking 20%-80% of the edges".
pub fn sample_edges(g: &BipartiteGraph, fraction: f64, seed: u64) -> BipartiteGraph {
    assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    edges.shuffle(&mut rng);
    let keep = ((edges.len() as f64) * fraction).round() as usize;
    edges.truncate(keep);

    let mut b = GraphBuilder::new(g.n_attr_values(Side::Upper), g.n_attr_values(Side::Lower))
        .with_edge_capacity(keep);
    b.ensure_vertices(g.n_upper(), g.n_lower());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.set_attrs_upper(g.attrs(Side::Upper));
    b.set_attrs_lower(g.attrs(Side::Lower));
    b.build().expect("sampled graphs are valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_uniform;

    #[test]
    fn induce_compacts_and_maps_back() {
        let g = random_uniform(6, 8, 30, 2, 2, 1);
        let keep_u: Vec<bool> = (0..6).map(|i| i % 2 == 0).collect();
        let keep_v: Vec<bool> = (0..8).map(|i| i < 5).collect();
        let sub = induce(&g, &keep_u, &keep_v);
        sub.graph.validate().unwrap();
        assert_eq!(sub.graph.n_upper(), 3);
        assert_eq!(sub.graph.n_lower(), 5);
        // Every surviving edge exists in the parent with mapped ids.
        for (u, v) in sub.graph.edges() {
            let (pu, pv) = (sub.to_parent(Side::Upper, u), sub.to_parent(Side::Lower, v));
            assert!(g.has_edge(pu, pv));
            assert_eq!(sub.graph.attr(Side::Upper, u), g.attr(Side::Upper, pu));
            assert_eq!(sub.graph.attr(Side::Lower, v), g.attr(Side::Lower, pv));
        }
        // Every parent edge with both endpoints kept survives.
        let survived = sub.graph.n_edges();
        let expected = g
            .edges()
            .filter(|&(u, v)| keep_u[u as usize] && keep_v[v as usize])
            .count();
        assert_eq!(survived, expected);
    }

    #[test]
    fn induce_nothing_and_everything() {
        let g = random_uniform(4, 4, 8, 2, 2, 2);
        let none = induce(&g, &[false; 4], &[false; 4]);
        assert_eq!(none.graph.n_upper(), 0);
        assert_eq!(none.graph.n_edges(), 0);
        let all = induce(&g, &[true; 4], &[true; 4]);
        assert_eq!(all.graph.n_edges(), g.n_edges());
        assert_eq!(all.upper_to_parent, vec![0, 1, 2, 3]);
    }

    #[test]
    fn relabel_degree_desc_preserves_structure() {
        let g = random_uniform(9, 11, 40, 3, 2, 17);
        let sub = induce(&g, &[true; 9], &[true; 11]);
        let rel = sub.relabel_degree_desc();
        rel.graph.validate().unwrap();
        assert_eq!(rel.graph.n_upper(), 9);
        assert_eq!(rel.graph.n_lower(), 11);
        assert_eq!(rel.graph.n_edges(), g.n_edges());
        // Degrees are non-increasing in the new ids on both sides.
        for side in [Side::Upper, Side::Lower] {
            let n = match side {
                Side::Upper => rel.graph.n_upper(),
                Side::Lower => rel.graph.n_lower(),
            };
            for v in 1..n as VertexId {
                assert!(rel.graph.degree(side, v - 1) >= rel.graph.degree(side, v));
            }
        }
        // Every relabeled edge maps back to a parent edge, with the
        // vertex attributes carried along.
        for (u, v) in rel.graph.edges() {
            let (pu, pv) = (rel.to_parent(Side::Upper, u), rel.to_parent(Side::Lower, v));
            assert!(g.has_edge(pu, pv));
            assert_eq!(rel.graph.attr(Side::Upper, u), g.attr(Side::Upper, pu));
            assert_eq!(rel.graph.attr(Side::Lower, v), g.attr(Side::Lower, pv));
        }
        // Parent-id sets are unchanged (it is a permutation).
        let mut ups: Vec<_> = rel.upper_to_parent.clone();
        ups.sort_unstable();
        assert_eq!(ups, (0..9).collect::<Vec<_>>());
        // Ties break by old id, so relabeling is deterministic.
        let again = sub.relabel_degree_desc();
        assert_eq!(again.upper_to_parent, rel.upper_to_parent);
        assert_eq!(again.lower_to_parent, rel.lower_to_parent);
    }

    #[test]
    fn sample_edges_fractions() {
        let g = random_uniform(20, 20, 200, 2, 2, 3);
        for (frac, want) in [(0.0, 0usize), (0.5, 100), (1.0, 200)] {
            let s = sample_edges(&g, frac, 7);
            assert_eq!(s.n_edges(), want, "fraction {frac}");
            assert_eq!(s.n_upper(), g.n_upper());
            assert_eq!(s.n_lower(), g.n_lower());
            s.validate().unwrap();
        }
        // Determinism + subset property.
        let a = sample_edges(&g, 0.3, 9);
        let b = sample_edges(&g, 0.3, 9);
        assert!(a.edges().zip(b.edges()).all(|(x, y)| x == y));
        for (u, v) in a.edges() {
            assert!(g.has_edge(u, v));
        }
    }
}
