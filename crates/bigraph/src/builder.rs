//! Validated construction of [`BipartiteGraph`]s.
//!
//! The builder accepts edges in any order, deduplicates them, grows the
//! vertex sets on demand, and produces sorted CSR storage in one pass.

use crate::graph::{AttrValueId, BipartiteGraph, Side, SideStore, VertexId};

/// Errors raised by [`GraphBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A vertex's attribute value is `>=` the declared domain size.
    AttrOutOfDomain {
        /// Side the offending vertex is on.
        side: Side,
        /// Offending vertex id.
        vertex: VertexId,
        /// The out-of-domain attribute value.
        attr: AttrValueId,
    },
    /// The graph would exceed `u32` vertex ids.
    TooManyVertices,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::AttrOutOfDomain { side, vertex, attr } => write!(
                f,
                "vertex {vertex} on side {side} has attribute {attr} outside the declared domain"
            ),
            BuildError::TooManyVertices => f.write_str("vertex count exceeds u32 id space"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`BipartiteGraph`].
///
/// ```
/// use bigraph::{GraphBuilder, Side};
///
/// let mut b = GraphBuilder::new(2, 2);
/// b.add_edge(0, 0);
/// b.add_edge(0, 1);
/// b.add_edge(1, 1);
/// b.set_attrs_upper(&[0, 1]);
/// b.set_attrs_lower(&[0, 1]);
/// let g = b.build().unwrap();
/// assert_eq!(g.n_edges(), 3);
/// assert_eq!(g.neighbors(Side::Upper, 0), &[0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    upper_attrs: Vec<AttrValueId>,
    lower_attrs: Vec<AttrValueId>,
    n_upper: usize,
    n_lower: usize,
    n_upper_attrs: AttrValueId,
    n_lower_attrs: AttrValueId,
}

impl GraphBuilder {
    /// A builder for a graph with the given attribute-domain sizes
    /// (`A_n^U`, `A_n^V`). Vertices default to attribute value `0`.
    pub fn new(n_upper_attrs: AttrValueId, n_lower_attrs: AttrValueId) -> Self {
        GraphBuilder {
            edges: Vec::new(),
            upper_attrs: Vec::new(),
            lower_attrs: Vec::new(),
            n_upper: 0,
            n_lower: 0,
            n_upper_attrs,
            n_lower_attrs,
        }
    }

    /// Pre-size the edge buffer.
    pub fn with_edge_capacity(mut self, cap: usize) -> Self {
        self.edges.reserve(cap);
        self
    }

    /// Ensure the graph has at least `n` upper and `m` lower vertices
    /// (useful for isolated vertices, which the paper's datasets contain).
    pub fn ensure_vertices(&mut self, n_upper: usize, n_lower: usize) {
        self.n_upper = self.n_upper.max(n_upper);
        self.n_lower = self.n_lower.max(n_lower);
    }

    /// Add edge `(u, v)`; duplicate insertions are deduplicated at build
    /// time. Vertex sets grow on demand.
    #[inline]
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.edges.push((u, v));
        self.n_upper = self.n_upper.max(u as usize + 1);
        self.n_lower = self.n_lower.max(v as usize + 1);
    }

    /// Set the attribute value of one upper vertex.
    pub fn set_attr_upper(&mut self, u: VertexId, a: AttrValueId) {
        if self.upper_attrs.len() <= u as usize {
            self.upper_attrs.resize(u as usize + 1, 0);
        }
        self.upper_attrs[u as usize] = a;
        self.n_upper = self.n_upper.max(u as usize + 1);
    }

    /// Set the attribute value of one lower vertex.
    pub fn set_attr_lower(&mut self, v: VertexId, a: AttrValueId) {
        if self.lower_attrs.len() <= v as usize {
            self.lower_attrs.resize(v as usize + 1, 0);
        }
        self.lower_attrs[v as usize] = a;
        self.n_lower = self.n_lower.max(v as usize + 1);
    }

    /// Set all upper attributes at once (vertex `i` gets `attrs[i]`).
    pub fn set_attrs_upper(&mut self, attrs: &[AttrValueId]) {
        self.upper_attrs = attrs.to_vec();
        self.n_upper = self.n_upper.max(attrs.len());
    }

    /// Set all lower attributes at once (vertex `i` gets `attrs[i]`).
    pub fn set_attrs_lower(&mut self, attrs: &[AttrValueId]) {
        self.lower_attrs = attrs.to_vec();
        self.n_lower = self.n_lower.max(attrs.len());
    }

    /// Finalize into an immutable CSR graph.
    pub fn build(mut self) -> Result<BipartiteGraph, BuildError> {
        if self.n_upper > u32::MAX as usize || self.n_lower > u32::MAX as usize {
            return Err(BuildError::TooManyVertices);
        }
        self.upper_attrs.resize(self.n_upper, 0);
        self.lower_attrs.resize(self.n_lower, 0);
        for (side, attrs, dom) in [
            (Side::Upper, &self.upper_attrs, self.n_upper_attrs),
            (Side::Lower, &self.lower_attrs, self.n_lower_attrs),
        ] {
            if dom > 0 {
                for (i, &a) in attrs.iter().enumerate() {
                    if a >= dom {
                        return Err(BuildError::AttrOutOfDomain {
                            side,
                            vertex: i as VertexId,
                            attr: a,
                        });
                    }
                }
            }
        }

        self.edges.sort_unstable();
        self.edges.dedup();

        let upper = csr_from_sorted(
            &self.edges,
            self.n_upper,
            self.upper_attrs,
            |&(u, _)| u,
            |&(_, v)| v,
        );
        let mut rev: Vec<(VertexId, VertexId)> = self.edges.iter().map(|&(u, v)| (v, u)).collect();
        rev.sort_unstable();
        let lower = csr_from_sorted(
            &rev,
            self.n_lower,
            self.lower_attrs,
            |&(v, _)| v,
            |&(_, u)| u,
        );

        let g = BipartiteGraph {
            upper,
            lower,
            n_upper_attrs: self.n_upper_attrs,
            n_lower_attrs: self.n_lower_attrs,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        Ok(g)
    }
}

fn csr_from_sorted<F, T>(
    edges: &[(VertexId, VertexId)],
    n: usize,
    attrs: Vec<AttrValueId>,
    src: F,
    dst: T,
) -> SideStore
where
    F: Fn(&(VertexId, VertexId)) -> VertexId,
    T: Fn(&(VertexId, VertexId)) -> VertexId,
{
    let mut offsets = vec![0usize; n + 1];
    for e in edges {
        offsets[src(e) as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let adj = edges.iter().map(&dst).collect();
    SideStore {
        offsets,
        adj,
        attrs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_sort() {
        let mut b = GraphBuilder::new(1, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 1);
        b.add_edge(0, 2); // duplicate
        b.add_edge(1, 0);
        let g = b.build().unwrap();
        assert_eq!(g.n_edges(), 3);
        assert_eq!(g.neighbors(Side::Upper, 0), &[1, 2]);
        assert_eq!(g.neighbors(Side::Lower, 2), &[0]);
        g.validate().unwrap();
    }

    #[test]
    fn isolated_vertices() {
        let mut b = GraphBuilder::new(1, 1);
        b.add_edge(0, 0);
        b.ensure_vertices(3, 5);
        let g = b.build().unwrap();
        assert_eq!(g.n_upper(), 3);
        assert_eq!(g.n_lower(), 5);
        assert_eq!(g.degree(Side::Upper, 2), 0);
        assert_eq!(g.degree(Side::Lower, 4), 0);
        g.validate().unwrap();
    }

    #[test]
    fn attr_domain_enforced() {
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0);
        b.set_attr_upper(0, 5);
        let err = b.build().unwrap_err();
        assert!(matches!(
            err,
            BuildError::AttrOutOfDomain {
                side: Side::Upper,
                vertex: 0,
                attr: 5
            }
        ));
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn attrs_resize_with_defaults() {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(4, 4);
        b.set_attr_lower(2, 2);
        let g = b.build().unwrap();
        assert_eq!(g.attr(Side::Upper, 4), 0); // default
        assert_eq!(g.attr(Side::Lower, 2), 2);
        assert_eq!(g.attr(Side::Lower, 4), 0);
    }

    #[test]
    fn empty_build() {
        let g = GraphBuilder::new(2, 2).build().unwrap();
        assert_eq!(g.n_upper(), 0);
        assert_eq!(g.n_lower(), 0);
        assert_eq!(g.n_edges(), 0);
    }

    #[test]
    fn pending_edges_counts_duplicates() {
        let mut b = GraphBuilder::new(1, 1).with_edge_capacity(8);
        b.add_edge(0, 0);
        b.add_edge(0, 0);
        assert_eq!(b.edges.len(), 2);
        assert_eq!(b.build().unwrap().n_edges(), 1);
    }
}
