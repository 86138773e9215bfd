//! The immutable attributed bipartite graph `G = (U, V, E, A)`.
//!
//! Storage is compressed sparse row (CSR) in **both** directions so that
//! neighborhoods of upper and lower vertices are equally cheap. Adjacency
//! lists are sorted ascending; the enumeration algorithms rely on that for
//! linear-time intersections.

use serde::{Deserialize, Serialize};

/// Dense vertex index within one side of the graph.
pub type VertexId = u32;

/// Dense attribute-value index within one side's attribute domain.
///
/// The paper mainly studies two values per side (`A_n^U = A_n^V = 2`),
/// but everything here is generic in the number of values.
pub type AttrValueId = u16;

/// Which side of the bipartite graph a vertex lives on.
///
/// The paper calls `U` the *upper* side and `V` the *lower* side; the
/// lower side is the default fair side in the single-side model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The upper side `U(G)`.
    Upper,
    /// The lower side `V(G)` (default fair side).
    Lower,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::Upper => Side::Lower,
            Side::Lower => Side::Upper,
        }
    }
}

impl std::fmt::Display for Side {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Side::Upper => f.write_str("U"),
            Side::Lower => f.write_str("V"),
        }
    }
}

/// One side's CSR arrays plus per-vertex attribute values.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct SideStore {
    /// `offsets[v]..offsets[v+1]` indexes `adj` for vertex `v`.
    pub offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted neighbor lists (ids on the other side).
    pub adj: Vec<VertexId>,
    /// Attribute value of each vertex.
    pub attrs: Vec<AttrValueId>,
}

impl SideStore {
    #[inline]
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    #[inline]
    fn len(&self) -> usize {
        self.attrs.len()
    }
}

/// An immutable attributed bipartite graph.
///
/// Construct through [`crate::GraphBuilder`], the generators in
/// [`crate::generate`], or the readers in [`crate::io`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BipartiteGraph {
    pub(crate) upper: SideStore,
    pub(crate) lower: SideStore,
    /// Number of distinct attribute values on the upper side (`A_n^U`).
    pub(crate) n_upper_attrs: AttrValueId,
    /// Number of distinct attribute values on the lower side (`A_n^V`).
    pub(crate) n_lower_attrs: AttrValueId,
}

impl BipartiteGraph {
    /// An empty graph with the given attribute domain sizes.
    pub fn empty(n_upper_attrs: AttrValueId, n_lower_attrs: AttrValueId) -> Self {
        BipartiteGraph {
            upper: SideStore {
                offsets: vec![0],
                adj: Vec::new(),
                attrs: Vec::new(),
            },
            lower: SideStore {
                offsets: vec![0],
                adj: Vec::new(),
                attrs: Vec::new(),
            },
            n_upper_attrs,
            n_lower_attrs,
        }
    }

    #[inline]
    pub(crate) fn store(&self, side: Side) -> &SideStore {
        match side {
            Side::Upper => &self.upper,
            Side::Lower => &self.lower,
        }
    }

    /// Number of vertices on `side`.
    #[inline]
    pub fn n(&self, side: Side) -> usize {
        self.store(side).len()
    }

    /// Number of upper-side vertices `|U|`.
    #[inline]
    pub fn n_upper(&self) -> usize {
        self.upper.len()
    }

    /// Number of lower-side vertices `|V|`.
    #[inline]
    pub fn n_lower(&self) -> usize {
        self.lower.len()
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.upper.adj.len()
    }

    /// Edge density `|E| / (|U| * |V|)`; zero for degenerate graphs.
    pub fn density(&self) -> f64 {
        let cells = self.n_upper() as f64 * self.n_lower() as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.n_edges() as f64 / cells
        }
    }

    /// Number of attribute values on `side` (`A_n^U` / `A_n^V`).
    #[inline]
    pub fn n_attr_values(&self, side: Side) -> AttrValueId {
        match side {
            Side::Upper => self.n_upper_attrs,
            Side::Lower => self.n_lower_attrs,
        }
    }

    /// Sorted neighbor list of vertex `v` on `side` (ids are on the
    /// opposite side).
    #[inline]
    pub fn neighbors(&self, side: Side, v: VertexId) -> &[VertexId] {
        self.store(side).neighbors(v)
    }

    /// Degree `D(v, G)` of vertex `v` on `side`.
    #[inline]
    pub fn degree(&self, side: Side, v: VertexId) -> usize {
        self.neighbors(side, v).len()
    }

    /// Attribute value `v.val` of vertex `v` on `side`.
    #[inline]
    pub fn attr(&self, side: Side, v: VertexId) -> AttrValueId {
        self.store(side).attrs[v as usize]
    }

    /// All attribute values of `side` as a slice indexed by vertex id.
    #[inline]
    pub fn attrs(&self, side: Side) -> &[AttrValueId] {
        &self.store(side).attrs
    }

    /// Whether edge `(u, v)` (upper `u`, lower `v`) exists; `O(log deg)`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.upper.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate all edges as `(upper, lower)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n_upper() as VertexId)
            .flat_map(move |u| self.upper.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Common neighborhood of a set `s` of `side`-vertices: the vertices
    /// on the opposite side adjacent to *every* member of `s`.
    ///
    /// Returns the full opposite side when `s` is empty (the neutral
    /// element for intersection), matching `N(S)` in the paper where the
    /// enumeration starts from `L = U`.
    pub fn common_neighbors(&self, side: Side, s: &[VertexId]) -> Vec<VertexId> {
        if s.is_empty() {
            return (0..self.n(side.other()) as VertexId).collect();
        }
        let mut acc: Vec<VertexId> = self.neighbors(side, s[0]).to_vec();
        let mut tmp = Vec::new();
        for &v in &s[1..] {
            crate::intersect_sorted_into(&acc, self.neighbors(side, v), &mut tmp);
            std::mem::swap(&mut acc, &mut tmp);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Return the graph with the two sides swapped (upper ↔ lower).
    ///
    /// The single-side fair biclique code fixes the fair side to
    /// [`Side::Lower`]; to mine with the *upper* side fair, flip the
    /// graph, mine, and flip the results. `O(|V| + |E|)`.
    pub fn flipped(&self) -> BipartiteGraph {
        BipartiteGraph {
            upper: self.lower.clone(),
            lower: self.upper.clone(),
            n_upper_attrs: self.n_lower_attrs,
            n_lower_attrs: self.n_upper_attrs,
        }
    }

    /// Approximate heap footprint in bytes (CSR arrays + attributes).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.upper.offsets.capacity() + self.lower.offsets.capacity()) * size_of::<usize>()
            + (self.upper.adj.capacity() + self.lower.adj.capacity()) * size_of::<VertexId>()
            + (self.upper.attrs.capacity() + self.lower.attrs.capacity()) * size_of::<AttrValueId>()
    }

    /// Internal consistency check used by tests and `debug_assert!`s:
    /// offsets monotone, adjacency sorted & deduped, forward/backward
    /// CSR symmetric, attribute values within the declared domain.
    pub fn validate(&self) -> Result<(), String> {
        for (name, store, n_other, n_attrs) in [
            ("upper", &self.upper, self.lower.len(), self.n_upper_attrs),
            ("lower", &self.lower, self.upper.len(), self.n_lower_attrs),
        ] {
            if store.offsets.len() != store.len() + 1 {
                return Err(format!("{name}: offsets length mismatch"));
            }
            if store.offsets[0] != 0 || *store.offsets.last().unwrap() != store.adj.len() {
                return Err(format!("{name}: offset endpoints wrong"));
            }
            for w in store.offsets.windows(2) {
                if w[0] > w[1] {
                    return Err(format!("{name}: offsets not monotone"));
                }
            }
            for v in 0..store.len() {
                let nb = store.neighbors(v as VertexId);
                if !nb.windows(2).all(|w| w[0] < w[1]) {
                    return Err(format!("{name}: adjacency of {v} not sorted/deduped"));
                }
                if let Some(&m) = nb.last() {
                    if (m as usize) >= n_other {
                        return Err(format!("{name}: neighbor id {m} out of range"));
                    }
                }
            }
            for (v, &a) in store.attrs.iter().enumerate() {
                if a >= n_attrs && n_attrs > 0 {
                    return Err(format!("{name}: vertex {v} attr {a} out of domain"));
                }
            }
        }
        if self.upper.adj.len() != self.lower.adj.len() {
            return Err("edge count mismatch between directions".into());
        }
        // Spot-check symmetry.
        for u in 0..self.upper.len() as VertexId {
            for &v in self.upper.neighbors(u) {
                if self.lower.neighbors(v).binary_search(&u).is_err() {
                    return Err(format!("edge ({u},{v}) missing reverse direction"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Attribute degrees `D_a(v)` (Definition 7) of `v`, indexed by
    /// attribute value of the opposite side.
    fn attr_degree_vec(g: &BipartiteGraph, side: Side, v: VertexId) -> Vec<usize> {
        let mut out = vec![0usize; g.n_attr_values(side.other()) as usize];
        for &w in g.neighbors(side, v) {
            out[g.attr(side.other(), w) as usize] += 1;
        }
        out
    }

    fn toy() -> BipartiteGraph {
        // U = {0,1,2}, V = {0,1,2,3}; upper attrs {0,1}, lower attrs {0,1}
        let mut b = GraphBuilder::new(2, 2);
        b.set_attrs_upper(&[0, 1, 0]);
        b.set_attrs_lower(&[0, 0, 1, 1]);
        for (u, v) in [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2), (2, 3)] {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = toy();
        assert_eq!(g.n_upper(), 3);
        assert_eq!(g.n_lower(), 4);
        assert_eq!(g.n_edges(), 7);
        assert_eq!(g.neighbors(Side::Upper, 2), &[1, 2, 3]);
        assert_eq!(g.neighbors(Side::Lower, 0), &[0, 1]);
        assert_eq!(g.degree(Side::Lower, 3), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.attr(Side::Upper, 1), 1);
        assert_eq!(g.attr(Side::Lower, 2), 1);
        g.validate().unwrap();
    }

    #[test]
    fn attr_degrees() {
        let g = toy();
        // upper 2 has neighbors {1,2,3} with lower attrs {0,1,1}
        assert_eq!(attr_degree_vec(&g, Side::Upper, 2), vec![1, 2]);
        // lower 0 has neighbors {0,1} with upper attrs {0,1}
        assert_eq!(attr_degree_vec(&g, Side::Lower, 0), vec![1, 1]);
    }

    #[test]
    fn common_neighbors() {
        let g = toy();
        // N({0}) on lower side, i.e. common neighbors of lower {0}
        assert_eq!(g.common_neighbors(Side::Lower, &[0]), vec![0, 1]);
        // lower {1,2} share upper {2}
        assert_eq!(g.common_neighbors(Side::Lower, &[1, 2]), vec![2]);
        // empty set -> whole opposite side
        assert_eq!(g.common_neighbors(Side::Lower, &[]), vec![0, 1, 2]);
        // upper {0,1} share lower {0}
        assert_eq!(g.common_neighbors(Side::Upper, &[0, 1]), vec![0]);
    }

    #[test]
    fn density_and_empty() {
        let g = toy();
        assert!((g.density() - 7.0 / 12.0).abs() < 1e-12);
        let e = BipartiteGraph::empty(2, 2);
        assert_eq!(e.density(), 0.0);
        assert_eq!(e.n_edges(), 0);
        e.validate().unwrap();
    }

    #[test]
    fn edge_iterator_roundtrip() {
        let g = toy();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.n_edges());
        for (u, v) in edges {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn flipped_swaps_sides() {
        let g = toy();
        let f = g.flipped();
        f.validate().unwrap();
        assert_eq!(f.n_upper(), g.n_lower());
        assert_eq!(f.n_lower(), g.n_upper());
        assert_eq!(f.n_edges(), g.n_edges());
        assert_eq!(f.attrs(Side::Upper), g.attrs(Side::Lower));
        for (u, v) in g.edges() {
            assert!(f.has_edge(v, u));
        }
        // Double flip is the identity.
        let ff = f.flipped();
        assert!(ff.edges().zip(g.edges()).all(|(a, b)| a == b));
    }

    #[test]
    fn side_other_roundtrip() {
        assert_eq!(Side::Upper.other(), Side::Lower);
        assert_eq!(Side::Lower.other(), Side::Upper);
        assert_eq!(Side::Upper.other().other(), Side::Upper);
        assert_eq!(format!("{}/{}", Side::Upper, Side::Lower), "U/V");
    }
}
