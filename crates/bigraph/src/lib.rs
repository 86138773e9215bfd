//! # bigraph — attributed bipartite graph substrate
//!
//! This crate provides every graph-side building block required by the
//! fairness-aware maximal biclique enumeration algorithms of Yin et al.
//! (ICDE 2023):
//!
//! * [`BipartiteGraph`] — an immutable, CSR-backed, attributed bipartite
//!   graph `G = (U, V, E, A)` with one attribute value per vertex.
//! * [`GraphBuilder`] — validated, deduplicating construction.
//! * [`candidate`] — the pluggable candidate-set substrate
//!   ([`Substrate`]): sorted-vec merge intersections vs fixed-width
//!   `u64` bitset rows ([`BitRows`]) behind the [`CandidateOps`]
//!   trait, with an adaptive `Auto` policy for pruned dense cores.
//! * [`UniGraph`] — an attributed *unipartite* graph used for the 2-hop
//!   projections of Algorithms 3 and 8 of the paper.
//! * [`twohop`] — `Construct2HopGraph` / `BiConstruct2HopGraph`: one
//!   builder counting shared neighbors in one class or per attribute.
//! * [`coloring`] — degree-ordered greedy coloring (used by the colorful
//!   core pruning).
//! * [`butterfly`] — butterfly (2×2 biclique) counting, including the
//!   vertex-priority `BFC-VP` algorithm.
//! * [`generate`] — seeded synthetic generators (uniform, Chung–Lu
//!   power-law, planted bicliques) standing in for the KONECT corpora.
//! * [`io`] — edge-list / attribute-file readers and writers.
//! * [`mutate`] — single-update CSR splices (`with_edge` /
//!   `without_edge` / `with_vertex`) backing the service's dynamic
//!   graph verbs.
//! * [`subgraph`] — induced subgraphs and edge sampling (scalability
//!   experiments).
//! * [`partition`] — sharding over connected components of the 2-hop
//!   structure (scatter-gather enumeration across processes).
//! * [`stats`] — degree and density statistics (Table I of the paper).
//!
//! ## Conventions
//!
//! Vertices on each side are dense `u32` indices `0..n_side`. The two
//! sides are disjoint index spaces: an upper vertex `3` and a lower
//! vertex `3` are different vertices, distinguished by [`Side`].
//! Adjacency lists are always sorted ascending, which the enumeration
//! crate relies on for linear-time sorted intersections.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod butterfly;
pub mod candidate;
pub mod coloring;
pub mod generate;
pub mod graph;
pub mod io;
pub mod mutate;
pub mod partition;
pub mod stats;
pub mod subgraph;
pub mod twohop;
pub mod unigraph;

pub use builder::{BuildError, GraphBuilder};
pub use candidate::{AdjOps, BitRows, CandidateOps, CandidatePlan, Substrate};
pub use graph::{AttrValueId, BipartiteGraph, Side, VertexId};
pub use mutate::MutateError;
pub use unigraph::UniGraph;

/// Intersect two ascending-sorted slices, appending the common elements
/// to `out` (which is cleared first).
///
/// This is the workhorse primitive of every enumerator in the companion
/// crate; it runs in `O(|a| + |b|)`.
pub fn intersect_sorted_into(a: &[VertexId], b: &[VertexId], out: &mut Vec<VertexId>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Count the size of the intersection of two ascending-sorted slices
/// without materialising it.
pub fn intersect_sorted_count(a: &[VertexId], b: &[VertexId]) -> usize {
    let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Test whether ascending-sorted `needle` is a subset of ascending-sorted
/// `haystack` in `O(|needle| + |haystack|)`.
pub fn is_sorted_subset(needle: &[VertexId], haystack: &[VertexId]) -> bool {
    let mut j = 0usize;
    for &x in needle {
        while j < haystack.len() && haystack[j] < x {
            j += 1;
        }
        if j >= haystack.len() || haystack[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_basic() {
        let mut out = Vec::new();
        intersect_sorted_into(&[1, 3, 5, 7], &[2, 3, 4, 5, 8], &mut out);
        assert_eq!(out, vec![3, 5]);
        assert_eq!(intersect_sorted_count(&[1, 3, 5, 7], &[2, 3, 4, 5, 8]), 2);
    }

    #[test]
    fn intersect_empty_sides() {
        let mut out = vec![99];
        intersect_sorted_into(&[], &[1, 2], &mut out);
        assert!(out.is_empty());
        intersect_sorted_into(&[1, 2], &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(intersect_sorted_count(&[], &[]), 0);
    }

    #[test]
    fn intersect_disjoint_and_identical() {
        let mut out = Vec::new();
        intersect_sorted_into(&[1, 2], &[3, 4], &mut out);
        assert!(out.is_empty());
        intersect_sorted_into(&[1, 2, 3], &[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn subset_checks() {
        assert!(is_sorted_subset(&[], &[]));
        assert!(is_sorted_subset(&[], &[1]));
        assert!(is_sorted_subset(&[2, 4], &[1, 2, 3, 4]));
        assert!(!is_sorted_subset(&[2, 5], &[1, 2, 3, 4]));
        assert!(!is_sorted_subset(&[0], &[]));
        assert!(is_sorted_subset(&[1, 2, 3], &[1, 2, 3]));
    }
}
