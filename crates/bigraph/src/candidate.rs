//! Pluggable candidate-set substrate for the enumeration hot path.
//!
//! Every enumerator in the companion crate spends its inner loop
//! intersecting a shrinking candidate set with adjacency lists. Two
//! physical representations are provided behind the [`CandidateOps`]
//! trait:
//!
//! * **Sorted-vec** ([`SortedOps`]) — the classic galloping/linear
//!   merge over the CSR adjacency, `O(|cand| + deg)` per op. Best on
//!   large, sparse, skewed graphs.
//! * **Bitset rows** ([`BitOps`] over [`BitRows`]) — one fixed-width
//!   `u64` bitset row per vertex, intersections by word-wise `AND` +
//!   `popcount`, `O(⌈n/64⌉)` per op. After FCore/CFCore pruning the
//!   surviving core is small and dense — exactly the regime where
//!   bitset rows beat merge-intersection by an order of magnitude.
//!
//! [`Substrate`] selects the representation; `Auto` (the default)
//! picks bitsets when the pruned core fits a size/density threshold
//! and falls back to the merge for skewed sparse inputs. A resolved
//! choice is captured per run in a [`CandidatePlan`], which owns the
//! bitset rows so parallel workers can share them by reference.

use crate::graph::{BipartiteGraph, Side, VertexId};
use serde::{Deserialize, Serialize};

/// Which candidate-set representation an enumeration run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Substrate {
    /// Decide per graph: bitset rows when the (pruned) graph fits the
    /// [`Substrate::AUTO_MAX_SIDE`] / [`Substrate::AUTO_MIN_DENSITY`]
    /// thresholds, sorted-vec merge otherwise.
    #[default]
    Auto,
    /// Always the sorted-vec merge intersection (the classic path).
    SortedVec,
    /// Always fixed-width `u64` bitset rows with popcount counting.
    Bitset,
}

impl Substrate {
    /// `Auto` uses bitsets whenever both sides fit this many vertices
    /// *and* the density threshold holds (a row then spans at most 64
    /// words — well within L1 for the whole row set on pruned cores).
    pub const AUTO_MAX_SIDE: usize = 4096;
    /// Below this side size `Auto` always picks bitsets: rows are a
    /// handful of words, so even sparse intersections win.
    pub const AUTO_SMALL_SIDE: usize = 256;
    /// Minimum edge density for `Auto` to pick bitsets on graphs
    /// larger than [`Substrate::AUTO_SMALL_SIDE`].
    pub const AUTO_MIN_DENSITY: f64 = 0.01;

    /// Resolve `Auto` against a concrete (pruned) graph; explicit
    /// choices pass through. Never returns `Auto`.
    pub fn resolve_for(self, g: &BipartiteGraph) -> Substrate {
        match self {
            Substrate::Auto => {
                let widest = g.n_upper().max(g.n_lower());
                if widest == 0 {
                    Substrate::SortedVec
                } else if widest <= Self::AUTO_SMALL_SIDE
                    || (widest <= Self::AUTO_MAX_SIDE && g.density() >= Self::AUTO_MIN_DENSITY)
                {
                    Substrate::Bitset
                } else {
                    Substrate::SortedVec
                }
            }
            explicit => explicit,
        }
    }
}

impl std::fmt::Display for Substrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Substrate::Auto => "auto",
            Substrate::SortedVec => "sorted-vec",
            Substrate::Bitset => "bitset",
        })
    }
}

impl std::str::FromStr for Substrate {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(Substrate::Auto),
            "sorted-vec" | "sorted" | "vec" => Ok(Substrate::SortedVec),
            "bitset" | "bit" | "bits" => Ok(Substrate::Bitset),
            other => Err(format!(
                "unknown substrate {other:?} (expected auto, sorted-vec, or bitset)"
            )),
        }
    }
}

/// Per-vertex fixed-width bitset adjacency: row `v` holds one bit per
/// vertex of the opposite side, set iff the edge exists.
///
/// Rows are `⌈n_cols/64⌉` words, stored contiguously, so a row is one
/// cache-friendly slice and two rows combine with word-wise `AND`.
#[derive(Debug, Clone)]
pub struct BitRows {
    n_rows: usize,
    n_cols: usize,
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    /// Build rows for the vertices of `side` (columns = other side).
    pub fn from_side(g: &BipartiteGraph, side: Side) -> BitRows {
        let mut r = BitRows::zeroed(g.n(side), g.n(side.other()));
        for v in 0..r.n_rows as VertexId {
            let base = v as usize * r.words;
            for &w in g.neighbors(side, v) {
                r.bits[base + (w as usize >> 6)] |= 1u64 << (w & 63);
            }
        }
        r
    }

    /// Build rows from explicit per-row ascending column sets (used by
    /// tests and benchmarks).
    pub fn from_sets(n_cols: usize, sets: &[&[VertexId]]) -> BitRows {
        let mut r = BitRows::zeroed(sets.len(), n_cols);
        for (i, set) in sets.iter().enumerate() {
            let base = i * r.words;
            for &c in set.iter() {
                assert!((c as usize) < n_cols, "column {c} out of range {n_cols}");
                r.bits[base + (c as usize >> 6)] |= 1u64 << (c & 63);
            }
        }
        r
    }

    fn zeroed(n_rows: usize, n_cols: usize) -> BitRows {
        let words = n_cols.div_ceil(64);
        BitRows {
            n_rows,
            n_cols,
            words,
            bits: vec![0u64; n_rows * words],
        }
    }

    /// Number of rows (vertices on the indexed side).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (vertices on the opposite side).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Words per row (`⌈n_cols/64⌉`).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words
    }

    /// The bitset row of vertex `v`.
    #[inline]
    pub fn row(&self, v: VertexId) -> &[u64] {
        let base = v as usize * self.words;
        &self.bits[base..base + self.words]
    }

    /// Whether column `c` is set in row `v`.
    #[inline]
    pub fn contains(&self, v: VertexId, c: VertexId) -> bool {
        self.bits[v as usize * self.words + (c as usize >> 6)] & (1u64 << (c & 63)) != 0
    }

    /// Heap footprint in bytes (the Exp-6 memory model accounts this).
    pub fn heap_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }
}

/// `|a ∩ b|` by word-wise `AND` + popcount, unrolled into 4-wide word
/// chunks with independent accumulators so the popcounts pipeline
/// instead of serializing on one add chain (the enumeration hot loop
/// calls this once per candidate per branch). Rows of exactly 4 words
/// get a branch-free fixed-width path: the `Auto` policy's "side ≤
/// 256" bitset regime is precisely the ≤ 4-word case, so most bitset
/// plans live here and the chunk iterator's setup is pure overhead.
#[inline]
pub fn and_count(a: &[u64], b: &[u64]) -> usize {
    debug_assert_eq!(a.len(), b.len());
    if let ([x0, x1, x2, x3], [y0, y1, y2, y3]) = (a, b) {
        return ((x0 & y0).count_ones()
            + (x1 & y1).count_ones()
            + (x2 & y2).count_ones()
            + (x3 & y3).count_ones()) as usize;
    }
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0usize, 0usize, 0usize, 0usize);
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        s0 += (wa[0] & wb[0]).count_ones() as usize;
        s1 += (wa[1] & wb[1]).count_ones() as usize;
        s2 += (wa[2] & wb[2]).count_ones() as usize;
        s3 += (wa[3] & wb[3]).count_ones() as usize;
    }
    let tail: usize = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(&x, &y)| (x & y).count_ones() as usize)
        .sum();
    s0 + s1 + s2 + s3 + tail
}

/// `acc &= b`, in place, 4 words per iteration.
#[inline]
pub fn and_assign(acc: &mut [u64], b: &[u64]) {
    debug_assert_eq!(acc.len(), b.len());
    let mut ca = acc.chunks_exact_mut(4);
    let mut cb = b.chunks_exact(4);
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        wa[0] &= wb[0];
        wa[1] &= wb[1];
        wa[2] &= wb[2];
        wa[3] &= wb[3];
    }
    for (x, &y) in ca.into_remainder().iter_mut().zip(cb.remainder()) {
        *x &= y;
    }
}

/// Total set bits, 4-wide accumulators like [`and_count`].
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    let mut cw = words.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0usize, 0usize, 0usize, 0usize);
    for w in cw.by_ref() {
        s0 += w[0].count_ones() as usize;
        s1 += w[1].count_ones() as usize;
        s2 += w[2].count_ones() as usize;
        s3 += w[3].count_ones() as usize;
    }
    let tail: usize = cw.remainder().iter().map(|w| w.count_ones() as usize).sum();
    s0 + s1 + s2 + s3 + tail
}

/// Append the set columns of `words` to `out` in ascending order
/// (`out` is cleared first).
pub fn collect_into(words: &[u64], out: &mut Vec<VertexId>) {
    out.clear();
    for (i, &w) in words.iter().enumerate() {
        let mut w = w;
        while w != 0 {
            let b = w.trailing_zeros();
            out.push((i as u32) * 64 + b);
            w &= w - 1;
        }
    }
}

/// The candidate-set operations every enumerator hot loop is written
/// against. An implementor indexes the adjacency of one side's
/// vertices ("row vertices"); candidate sets live on the opposite side
/// and are always ascending-sorted `VertexId` slices at the API
/// boundary, whatever the internal representation.
///
/// All operations are *exact* — both implementations return identical
/// counts and sets, so enumeration trees, node counts, and result sets
/// are bit-identical across substrates (certified by the differential
/// test harness).
pub trait CandidateOps {
    /// The resolved representation this handle uses.
    fn substrate(&self) -> Substrate;

    /// Degree of row vertex `x`.
    fn degree(&self, x: VertexId) -> usize;

    /// `out = cand ∩ N(x)`, ascending (`out` is cleared first).
    fn intersect_into(&mut self, cand: &[VertexId], x: VertexId, out: &mut Vec<VertexId>);

    /// Stage `cand` for a batch of [`CandidateOps::loaded_count`]
    /// calls (the walker counts dozens of rows against one `L'`).
    fn load(&mut self, cand: &[VertexId]);

    /// `|N(x) ∩ staged|` for the set last passed to
    /// [`CandidateOps::load`].
    fn loaded_count(&mut self, x: VertexId) -> usize;

    /// `out =` common neighborhood of `s` (ascending; the full
    /// opposite side when `s` is empty, matching
    /// [`BipartiteGraph::common_neighbors`]).
    fn common_neighbors_into(&mut self, s: &[VertexId], out: &mut Vec<VertexId>);
}

/// Sorted-vec merge implementation of [`CandidateOps`] over the CSR
/// adjacency of `side`'s vertices.
pub struct SortedOps<'a> {
    g: &'a BipartiteGraph,
    side: Side,
    staged: Vec<VertexId>,
    tmp: Vec<VertexId>,
}

impl<'a> SortedOps<'a> {
    /// Ops over the adjacency of `side`'s vertices.
    pub fn new(g: &'a BipartiteGraph, side: Side) -> Self {
        SortedOps {
            g,
            side,
            staged: Vec::new(),
            tmp: Vec::new(),
        }
    }
}

impl CandidateOps for SortedOps<'_> {
    fn substrate(&self) -> Substrate {
        Substrate::SortedVec
    }

    #[inline]
    fn degree(&self, x: VertexId) -> usize {
        self.g.degree(self.side, x)
    }

    #[inline]
    fn intersect_into(&mut self, cand: &[VertexId], x: VertexId, out: &mut Vec<VertexId>) {
        crate::intersect_sorted_into(cand, self.g.neighbors(self.side, x), out);
    }

    #[inline]
    fn load(&mut self, cand: &[VertexId]) {
        self.staged.clear();
        self.staged.extend_from_slice(cand);
    }

    #[inline]
    fn loaded_count(&mut self, x: VertexId) -> usize {
        crate::intersect_sorted_count(self.g.neighbors(self.side, x), &self.staged)
    }

    fn common_neighbors_into(&mut self, s: &[VertexId], out: &mut Vec<VertexId>) {
        out.clear();
        if s.is_empty() {
            out.extend(0..self.g.n(self.side.other()) as VertexId);
            return;
        }
        out.extend_from_slice(self.g.neighbors(self.side, s[0]));
        for &v in &s[1..] {
            crate::intersect_sorted_into(out, self.g.neighbors(self.side, v), &mut self.tmp);
            std::mem::swap(out, &mut self.tmp);
            if out.is_empty() {
                break;
            }
        }
    }
}

/// Bitset-rows implementation of [`CandidateOps`]: membership tests
/// and word-wise `AND` + popcount against shared [`BitRows`].
pub struct BitOps<'a> {
    g: &'a BipartiteGraph,
    side: Side,
    rows: &'a BitRows,
    staged: Vec<u64>,
    acc: Vec<u64>,
}

impl<'a> BitOps<'a> {
    /// Ops over `rows`, which must have been built with
    /// [`BitRows::from_side`] on the same `g` and `side`.
    pub fn new(g: &'a BipartiteGraph, side: Side, rows: &'a BitRows) -> Self {
        debug_assert_eq!(rows.n_rows(), g.n(side));
        debug_assert_eq!(rows.n_cols(), g.n(side.other()));
        BitOps {
            g,
            side,
            rows,
            staged: vec![0u64; rows.words_per_row()],
            acc: vec![0u64; rows.words_per_row()],
        }
    }
}

impl CandidateOps for BitOps<'_> {
    fn substrate(&self) -> Substrate {
        Substrate::Bitset
    }

    #[inline]
    fn degree(&self, x: VertexId) -> usize {
        self.g.degree(self.side, x)
    }

    #[inline]
    fn intersect_into(&mut self, cand: &[VertexId], x: VertexId, out: &mut Vec<VertexId>) {
        out.clear();
        let base = x as usize * self.rows.words;
        let row = &self.rows.bits[base..base + self.rows.words];
        for &c in cand {
            if row[c as usize >> 6] & (1u64 << (c & 63)) != 0 {
                out.push(c);
            }
        }
    }

    #[inline]
    fn load(&mut self, cand: &[VertexId]) {
        self.staged.fill(0);
        for &c in cand {
            self.staged[c as usize >> 6] |= 1u64 << (c & 63);
        }
    }

    #[inline]
    fn loaded_count(&mut self, x: VertexId) -> usize {
        and_count(self.rows.row(x), &self.staged)
    }

    fn common_neighbors_into(&mut self, s: &[VertexId], out: &mut Vec<VertexId>) {
        if s.is_empty() {
            out.clear();
            out.extend(0..self.rows.n_cols() as VertexId);
            return;
        }
        self.acc.copy_from_slice(self.rows.row(s[0]));
        for &v in &s[1..] {
            and_assign(&mut self.acc, self.rows.row(v));
        }
        collect_into(&self.acc, out);
    }
}

/// Enum dispatch over the two substrates — one concrete type for the
/// enumerators to hold, no virtual calls in the hot loop.
pub enum AdjOps<'a> {
    /// Sorted-vec merge.
    Sorted(SortedOps<'a>),
    /// Bitset rows.
    Bit(BitOps<'a>),
}

macro_rules! dispatch {
    ($self:ident, $ops:ident, $e:expr) => {
        match $self {
            AdjOps::Sorted($ops) => $e,
            AdjOps::Bit($ops) => $e,
        }
    };
}

impl CandidateOps for AdjOps<'_> {
    #[inline]
    fn substrate(&self) -> Substrate {
        dispatch!(self, o, o.substrate())
    }

    #[inline]
    fn degree(&self, x: VertexId) -> usize {
        dispatch!(self, o, o.degree(x))
    }

    #[inline]
    fn intersect_into(&mut self, cand: &[VertexId], x: VertexId, out: &mut Vec<VertexId>) {
        dispatch!(self, o, o.intersect_into(cand, x, out))
    }

    #[inline]
    fn load(&mut self, cand: &[VertexId]) {
        dispatch!(self, o, o.load(cand))
    }

    #[inline]
    fn loaded_count(&mut self, x: VertexId) -> usize {
        dispatch!(self, o, o.loaded_count(x))
    }

    #[inline]
    fn common_neighbors_into(&mut self, s: &[VertexId], out: &mut Vec<VertexId>) {
        dispatch!(self, o, o.common_neighbors_into(s, out))
    }
}

/// A run's resolved substrate choice plus the (optional) bitset rows
/// backing it. Built once per enumeration run on the pruned graph;
/// parallel workers borrow it and spin up cheap per-worker
/// [`AdjOps`] handles (each with its own scratch words).
pub struct CandidatePlan {
    choice: Substrate,
    lower_rows: Option<BitRows>,
    upper_rows: Option<BitRows>,
}

impl CandidatePlan {
    /// Resolve `requested` against `g` and build the backing rows.
    /// `need_upper` additionally builds upper-side rows (the bi-side
    /// expanders intersect upper adjacency; single-side runs skip it).
    pub fn build(g: &BipartiteGraph, requested: Substrate, need_upper: bool) -> CandidatePlan {
        let choice = requested.resolve_for(g);
        let (lower_rows, upper_rows) = match choice {
            Substrate::Bitset => (
                Some(BitRows::from_side(g, Side::Lower)),
                need_upper.then(|| BitRows::from_side(g, Side::Upper)),
            ),
            _ => (None, None),
        };
        CandidatePlan {
            choice,
            lower_rows,
            upper_rows,
        }
    }

    /// The resolved choice (never `Auto`).
    #[inline]
    pub fn choice(&self) -> Substrate {
        self.choice
    }

    /// A fresh ops handle over the adjacency of `side`'s vertices.
    /// Falls back to sorted-vec when no rows were built for `side`.
    pub fn ops<'a>(&'a self, g: &'a BipartiteGraph, side: Side) -> AdjOps<'a> {
        let rows = match side {
            Side::Lower => self.lower_rows.as_ref(),
            Side::Upper => self.upper_rows.as_ref(),
        };
        match rows {
            Some(r) => AdjOps::Bit(BitOps::new(g, side, r)),
            None => AdjOps::Sorted(SortedOps::new(g, side)),
        }
    }

    /// Heap bytes of the bitset rows (0 on the sorted-vec substrate);
    /// accounted by the Exp-6 memory model.
    pub fn heap_bytes(&self) -> usize {
        self.lower_rows.as_ref().map_or(0, BitRows::heap_bytes)
            + self.upper_rows.as_ref().map_or(0, BitRows::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_uniform;
    use crate::GraphBuilder;

    /// Build rows at an exact column width and check build / AND /
    /// popcount against naive sets. Exercises the word boundaries the
    /// packing logic can get wrong.
    fn check_width(n_cols: usize) {
        // Two deterministic interleaved sets plus the empty and (when
        // non-degenerate) full set.
        let a: Vec<VertexId> = (0..n_cols as VertexId).filter(|v| v % 3 == 0).collect();
        let b: Vec<VertexId> = (0..n_cols as VertexId).filter(|v| v % 2 == 0).collect();
        let full: Vec<VertexId> = (0..n_cols as VertexId).collect();
        let sets: Vec<&[VertexId]> = vec![&a, &b, &[], &full];
        let rows = BitRows::from_sets(n_cols, &sets);
        assert_eq!(rows.n_rows(), 4);
        assert_eq!(rows.n_cols(), n_cols);
        assert_eq!(rows.words_per_row(), n_cols.div_ceil(64));

        // Membership and popcount per row.
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(count_ones(rows.row(i as VertexId)), set.len(), "row {i}");
            for c in 0..n_cols as VertexId {
                assert_eq!(
                    rows.contains(i as VertexId, c),
                    set.contains(&c),
                    "width {n_cols} row {i} col {c}"
                );
            }
        }

        // AND + popcount against the sorted oracle, all pairs.
        for (i, si) in sets.iter().enumerate() {
            for (j, sj) in sets.iter().enumerate() {
                let want = crate::intersect_sorted_count(si, sj);
                assert_eq!(
                    and_count(rows.row(i as VertexId), rows.row(j as VertexId)),
                    want,
                    "width {n_cols} pair ({i},{j})"
                );
                let mut acc = rows.row(i as VertexId).to_vec();
                and_assign(&mut acc, rows.row(j as VertexId));
                assert_eq!(count_ones(&acc), want);
                let mut got = Vec::new();
                collect_into(&acc, &mut got);
                let mut oracle = Vec::new();
                crate::intersect_sorted_into(si, sj, &mut oracle);
                assert_eq!(got, oracle, "width {n_cols} pair ({i},{j})");
            }
        }
    }

    #[test]
    fn boundary_widths() {
        for n_cols in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            check_width(n_cols);
        }
    }

    #[test]
    fn from_side_matches_adjacency() {
        let g = random_uniform(37, 65, 400, 2, 2, 9);
        for side in [Side::Upper, Side::Lower] {
            let rows = BitRows::from_side(&g, side);
            assert_eq!(rows.n_rows(), g.n(side));
            assert_eq!(rows.n_cols(), g.n(side.other()));
            for v in 0..g.n(side) as VertexId {
                assert_eq!(count_ones(rows.row(v)), g.degree(side, v));
                let mut got = Vec::new();
                collect_into(rows.row(v), &mut got);
                assert_eq!(got, g.neighbors(side, v), "{side} vertex {v}");
            }
        }
    }

    #[test]
    fn ops_agree_between_substrates() {
        let g = random_uniform(20, 24, 160, 2, 2, 4);
        let plan = CandidatePlan::build(&g, Substrate::Bitset, true);
        assert!(plan.heap_bytes() > 0);
        for side in [Side::Lower, Side::Upper] {
            let mut bit = plan.ops(&g, side);
            let mut sorted = AdjOps::Sorted(SortedOps::new(&g, side));
            assert_eq!(bit.substrate(), Substrate::Bitset);
            assert_eq!(sorted.substrate(), Substrate::SortedVec);
            let n_cand = g.n(side.other());
            let cand: Vec<VertexId> = (0..n_cand as VertexId).filter(|v| v % 2 == 1).collect();
            let (mut ob, mut os) = (Vec::new(), Vec::new());
            bit.load(&cand);
            sorted.load(&cand);
            for x in 0..g.n(side) as VertexId {
                assert_eq!(bit.degree(x), sorted.degree(x));
                assert_eq!(bit.loaded_count(x), sorted.loaded_count(x), "{side} {x}");
                bit.intersect_into(&cand, x, &mut ob);
                sorted.intersect_into(&cand, x, &mut os);
                assert_eq!(ob, os, "{side} {x}");
                bit.common_neighbors_into(&[x], &mut ob);
                sorted.common_neighbors_into(&[x], &mut os);
                assert_eq!(ob, os);
            }
            // Multi-vertex common neighborhoods.
            for s in [vec![0, 1], vec![0, 2, 3], vec![]] {
                if s.iter().any(|&v| (v as usize) >= g.n(side)) {
                    continue;
                }
                bit.common_neighbors_into(&s, &mut ob);
                sorted.common_neighbors_into(&s, &mut os);
                assert_eq!(ob, os, "{side} common {s:?}");
            }
        }
    }

    #[test]
    fn auto_resolution_thresholds() {
        // Small dense block: bitset.
        let mut b = GraphBuilder::new(1, 1);
        for u in 0..8 {
            for v in 0..8 {
                b.add_edge(u, v);
            }
        }
        let dense = b.build().unwrap();
        assert_eq!(Substrate::Auto.resolve_for(&dense), Substrate::Bitset);
        // Large sparse graph: sorted-vec.
        let sparse = random_uniform(5000, 5000, 6000, 1, 1, 1);
        assert_eq!(Substrate::Auto.resolve_for(&sparse), Substrate::SortedVec);
        // Explicit choices pass through.
        assert_eq!(Substrate::Bitset.resolve_for(&sparse), Substrate::Bitset);
        assert_eq!(
            Substrate::SortedVec.resolve_for(&dense),
            Substrate::SortedVec
        );
        // Degenerate empty graph never picks bitset.
        let empty = BipartiteGraph::empty(1, 1);
        assert_eq!(Substrate::Auto.resolve_for(&empty), Substrate::SortedVec);
    }

    /// Pin the exact `Auto` decision boundaries the prepared-plan
    /// cache relies on: a cached plan's resolved substrate must never
    /// silently change for a graph sitting exactly on a threshold.
    #[test]
    fn auto_threshold_boundaries_are_pinned() {
        // Widest side exactly AUTO_SMALL_SIDE (256): bitset even at
        // near-zero density.
        let small = random_uniform(Substrate::AUTO_SMALL_SIDE, 10, 20, 1, 1, 1);
        assert_eq!(small.n_upper(), Substrate::AUTO_SMALL_SIDE);
        assert!(small.density() < Substrate::AUTO_MIN_DENSITY);
        assert_eq!(Substrate::Auto.resolve_for(&small), Substrate::Bitset);

        // One past the small-side bound at the same sparse density:
        // the density test now governs, and fails.
        let just_over = random_uniform(Substrate::AUTO_SMALL_SIDE + 1, 10, 20, 1, 1, 1);
        assert!(just_over.density() < Substrate::AUTO_MIN_DENSITY);
        assert_eq!(
            Substrate::Auto.resolve_for(&just_over),
            Substrate::SortedVec
        );

        // Density exactly AUTO_MIN_DENSITY (300·100 cells, 300 edges
        // = 0.01): the >= comparison admits bitsets.
        let at_density = random_uniform(300, 100, 300, 1, 1, 2);
        assert_eq!(at_density.n_edges(), 300);
        assert!(at_density.density() >= Substrate::AUTO_MIN_DENSITY);
        assert_eq!(Substrate::Auto.resolve_for(&at_density), Substrate::Bitset);
        // One edge fewer: just under the density bound.
        let under_density = random_uniform(300, 100, 299, 1, 1, 2);
        assert!(under_density.density() < Substrate::AUTO_MIN_DENSITY);
        assert_eq!(
            Substrate::Auto.resolve_for(&under_density),
            Substrate::SortedVec
        );

        // Widest side exactly AUTO_MAX_SIDE (4096) at density exactly
        // 0.01 (4096·100 cells, 4096 edges): still bitset.
        let at_max = random_uniform(Substrate::AUTO_MAX_SIDE, 100, 4096, 1, 1, 3);
        assert_eq!(at_max.n_upper(), Substrate::AUTO_MAX_SIDE);
        assert_eq!(at_max.n_edges(), 4096);
        assert_eq!(Substrate::Auto.resolve_for(&at_max), Substrate::Bitset);

        // One vertex past AUTO_MAX_SIDE: sorted-vec no matter how
        // dense.
        let over_max = random_uniform(Substrate::AUTO_MAX_SIDE + 1, 100, 40_000, 1, 1, 4);
        assert!(over_max.density() >= Substrate::AUTO_MIN_DENSITY);
        assert_eq!(Substrate::Auto.resolve_for(&over_max), Substrate::SortedVec);

        // The widest *side* governs: 10 × 256 is small regardless of
        // orientation.
        let tall = random_uniform(10, Substrate::AUTO_SMALL_SIDE, 20, 1, 1, 5);
        assert_eq!(Substrate::Auto.resolve_for(&tall), Substrate::Bitset);
    }

    #[test]
    fn substrate_parsing_and_display() {
        for (s, want) in [
            ("auto", Substrate::Auto),
            ("sorted-vec", Substrate::SortedVec),
            ("sorted", Substrate::SortedVec),
            ("bitset", Substrate::Bitset),
            ("bit", Substrate::Bitset),
        ] {
            assert_eq!(s.parse::<Substrate>().unwrap(), want);
        }
        assert!("bogus".parse::<Substrate>().is_err());
        assert_eq!(Substrate::Bitset.to_string(), "bitset");
        assert_eq!(Substrate::SortedVec.to_string(), "sorted-vec");
        assert_eq!(Substrate::Auto.to_string(), "auto");
    }

    #[test]
    fn plan_falls_back_to_sorted_without_rows() {
        let g = random_uniform(10, 10, 40, 1, 1, 2);
        let plan = CandidatePlan::build(&g, Substrate::Bitset, false);
        assert!(matches!(plan.ops(&g, Side::Lower), AdjOps::Bit(_)));
        // No upper rows were requested: sorted fallback.
        assert!(matches!(plan.ops(&g, Side::Upper), AdjOps::Sorted(_)));
        let sv = CandidatePlan::build(&g, Substrate::SortedVec, true);
        assert_eq!(sv.heap_bytes(), 0);
        assert!(matches!(sv.ops(&g, Side::Lower), AdjOps::Sorted(_)));
    }
}
