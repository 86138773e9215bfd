//! Fair-set algebra: Definitions 11–12 and Algorithms 4 and 7 of the
//! paper, plus the proportion (`θ`) variants.
//!
//! A multiset of vertices with attribute counts `c = (c_0, …, c_{n-1})`
//! is a **fair set** for `(k, δ)` when every `c_i ≥ k` and
//! `max_i c_i − min_i c_i ≤ δ`. It is **proportion-fair** for
//! `(k, δ, θ)` when additionally every `c_i / Σc ≥ θ`.
//!
//! ## Why `MFSCheck` (Algorithm 4) is complete
//!
//! `Ŝ` is a *maximal fair subset* of `S` iff `Ŝ` is fair and no
//! non-empty addition from `C = S − Ŝ` keeps it fair. The check only
//! needs (a) the all-attributes case and (b) single-vertex additions:
//!
//! * If **every** attribute has a candidate left, adding one vertex of
//!   each attribute raises all counts by one — pairwise differences are
//!   unchanged and minima grow, so the result is fair: not maximal.
//! * Otherwise, suppose some addition vector `d ≠ 0` keeps the set
//!   fair, and let `i` be an attribute with `d_i ≥ 1`. The global
//!   minimum count is attained by some attribute without candidates
//!   (else adding one vertex of a minimum attribute is fair already and
//!   the single check fires), so the minimum never moves. If
//!   `c_i + d_i − min ≤ δ` then a fortiori `c_i + 1 − min ≤ δ`, i.e.
//!   the single-vertex check on `i` fires. Hence "no single addition
//!   fair and not all attributes have candidates" ⇒ maximal.
//!
//! ## Why `Combination` (Algorithm 7) sizes are unique
//!
//! Let `msize = min_i |S_i|`. In any maximal fair subset, the attribute
//! attaining the *chosen* minimum must be exhausted (otherwise one more
//! of it keeps the set fair), so the chosen minimum equals `msize`, and
//! every other attribute is either exhausted (`c_i = |S_i| ≤ msize+δ`)
//! or capped at `c_i = msize + δ`. Both cases equal
//! `min(|S_i|, msize+δ)`; hence all maximal fair subsets share the size
//! vector and Algorithm 7 enumerates per-attribute `c_i`-subsets.
//!
//! ## Proportion subtlety
//!
//! With the ratio constraint, adding to the minority attribute can
//! break the *other* attribute's ratio, so maximal proportion-fair
//! subsets are **not** captured by a single closed form in general.
//! [`max_pro_fair_size_vectors`] therefore searches the (small)
//! feasible size lattice exactly; [`combination_pro_paper_sizes`]
//! additionally exposes the paper's closed form
//! `c_i = min(|S_i|, msize+δ, ⌊msize·(1−θ)/θ⌋)`, which the tests
//! cross-validate on the paper's two-attribute setting.
//!
//! The enumerators take `θ` as an `Option<f64>` next to `(k, δ)`:
//! `None` is the absolute model, `Some(θ)` the proportion model, even at
//! `θ = 0`. `combination_vectors` is the one place that picks
//! `Combination` or `CombinationPro`; the latter is the exact lattice
//! search for any attribute-domain size, equal to the paper's closed
//! form on its two-value domains (property-tested).

use bigraph::VertexId;

/// Tolerance for ratio comparisons: `c/total ≥ θ` is evaluated as
/// `c + ε ≥ θ·total` to keep boundary cases (e.g. `θ = 0.5`, `c =
/// total/2`) stable under floating-point rounding.
const RATIO_EPS: f64 = 1e-9;

/// Attribute-count bookkeeping for a growing/shrinking vertex set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrCounts {
    counts: Vec<u32>,
}

impl AttrCounts {
    /// All-zero counts over `n_attrs` attribute values.
    pub fn zeros(n_attrs: usize) -> Self {
        AttrCounts {
            counts: vec![0; n_attrs],
        }
    }

    /// Counts of `vertices` under the vertex→attribute map `attrs`.
    pub fn of(vertices: &[VertexId], attrs: &[bigraph::AttrValueId], n_attrs: usize) -> Self {
        let mut c = AttrCounts::zeros(n_attrs);
        for &v in vertices {
            c.inc(attrs[v as usize]);
        }
        c
    }

    /// Zero every count in place (no reallocation).
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Reset to the counts of `vertices` in place (no reallocation) —
    /// the hot-loop form of [`AttrCounts::of`].
    pub fn recount(&mut self, vertices: &[VertexId], attrs: &[bigraph::AttrValueId]) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        for &v in vertices {
            self.inc(attrs[v as usize]);
        }
    }

    /// Increment attribute `a`.
    #[inline]
    pub fn inc(&mut self, a: bigraph::AttrValueId) {
        self.counts[a as usize] += 1;
    }

    /// Decrement attribute `a` (panics on underflow in debug builds).
    #[inline]
    pub fn dec(&mut self, a: bigraph::AttrValueId) {
        debug_assert!(self.counts[a as usize] > 0);
        self.counts[a as usize] -= 1;
    }

    /// The raw count vector.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.counts
    }

    /// Total number of vertices counted.
    #[inline]
    pub fn total(&self) -> u32 {
        self.counts.iter().sum()
    }
}

/// Is `counts` a fair set for `(k, δ)` (Definition 11)?
pub fn is_fair(counts: &[u32], k: u32, delta: u32) -> bool {
    fair_counts(counts.iter().copied(), k, delta, None)
}

/// Is `counts` proportion-fair for `(k, δ, θ)`: fair and every
/// attribute's share of the total at least `θ`?
///
/// An all-zero vector is proportion-fair iff `k == 0` (the ratio
/// constraint is vacuous on the empty set).
pub fn is_fair_pro(counts: &[u32], k: u32, delta: u32, theta: f64) -> bool {
    fair_counts(counts.iter().copied(), k, delta, Some(theta))
}

/// [`is_fair`] for `theta = None`, [`is_fair_pro`] for `Some(θ)`.
pub(crate) fn is_fair_with(counts: &[u32], k: u32, delta: u32, theta: Option<f64>) -> bool {
    fair_counts(counts.iter().copied(), k, delta, theta)
}

/// The fairness test over a count sequence, so callers can test a
/// modified vector without materialising it.
fn fair_counts(counts: impl Iterator<Item = u32>, k: u32, delta: u32, theta: Option<f64>) -> bool {
    let (mut min, mut max, mut total) = (u32::MAX, 0u32, 0u32);
    for c in counts {
        if c < k {
            return false;
        }
        min = min.min(c);
        max = max.max(c);
        total += c;
    }
    debug_assert!(min <= max, "non-empty counts");
    if max - min > delta {
        return false;
    }
    match theta {
        // An empty set passed `is_fair` only with k == 0.
        Some(t) => total == 0 || ratio_ok(min, total, t),
        None => true,
    }
}

#[inline]
fn ratio_ok(c: u32, total: u32, theta: f64) -> bool {
    c as f64 + RATIO_EPS >= theta * total as f64
}

/// `MFSCheck` (Algorithm 4): is the fair set with counts `base` a
/// *maximal* fair subset of the set with counts `base + cand`? With
/// `theta`, "fair" means proportion-fair throughout.
///
/// Completeness argument in the module docs. Runs in `O(n_attrs)`.
/// The "add one of each attribute" shortcut remains valid under the
/// ratio constraint: for an attribute at or below the average share,
/// `(c+1)/(t+n) ≥ c/t`; for one above the average, `(c+1)/(t+n) ≥ 1/n
/// ≥ θ` (the models require `θ ≤ 1/n`). With `theta` the
/// single-addition sweep is proven for two attribute values — the
/// paper's setting — and property-tested on three against the
/// brute-force oracle, which uses [`exists_fair_extension`] instead.
pub fn is_maximal_fair_subset(
    base: &[u32],
    cand: &[u32],
    k: u32,
    delta: u32,
    theta: Option<f64>,
) -> bool {
    debug_assert_eq!(base.len(), cand.len());
    // Line 1: Ŝ must itself be fair.
    if !is_fair_with(base, k, delta, theta) {
        return false;
    }
    // Line 3: every attribute still has candidates -> add one of each.
    if cand.iter().all(|&c| c > 0) {
        return false;
    }
    // Lines 4-6: any single-vertex addition that stays fair?
    !(0..base.len()).any(|i| {
        let plus_one = base.iter().enumerate().map(|(j, &c)| c + u32::from(j == i));
        cand[i] > 0 && fair_counts(plus_one, k, delta, theta)
    })
}

/// Exhaustive extension search (the oracle's maximality test): does any
/// non-zero addition vector `d` with `d_i ≤ cand_i` make `base + d`
/// (proportion-)fair? Exponential in principle, but the ranges are the
/// candidate counts of tiny test graphs.
pub fn exists_fair_extension(
    base: &[u32],
    cand: &[u32],
    k: u32,
    delta: u32,
    theta: Option<f64>,
) -> bool {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        base: &[u32],
        cand: &[u32],
        k: u32,
        delta: u32,
        theta: Option<f64>,
        i: usize,
        cur: &mut Vec<u32>,
        nonzero: bool,
    ) -> bool {
        if i == base.len() {
            if !nonzero {
                return false;
            }
            return is_fair_with(cur, k, delta, theta);
        }
        for d in 0..=cand[i] {
            cur[i] = base[i] + d;
            if rec(base, cand, k, delta, theta, i + 1, cur, nonzero || d > 0) {
                return true;
            }
        }
        cur[i] = base[i];
        false
    }
    let mut cur = base.to_vec();
    rec(base, cand, k, delta, theta, 0, &mut cur, false)
}

/// The unique maximal-fair-subset size vector of a set with
/// per-attribute availabilities `counts` (`Combination`, Algorithm 7,
/// lines 3–5), written to `sizes`; false (and `sizes` untouched) when
/// no fair subset exists.
pub fn combination_sizes(counts: &[u32], k: u32, delta: u32, sizes: &mut Vec<u32>) -> bool {
    debug_assert!(!counts.is_empty());
    let msize = *counts.iter().min().expect("non-empty counts");
    if msize < k {
        return false;
    }
    sizes.clear();
    sizes.extend(counts.iter().map(|&c| c.min(msize.saturating_add(delta))));
    true
}

/// The paper's closed-form `CombinationPro` size vector:
/// `c_i = min(|S_i|, msize+δ, ⌊msize·(1−θ)/θ⌋)`. Exact for two
/// attribute values; `None` when no proportion-fair subset exists
/// (some `|S_i| < k`, or the resulting vector fails the ratio test).
pub fn combination_pro_paper_sizes(
    counts: &[u32],
    k: u32,
    delta: u32,
    theta: f64,
) -> Option<Vec<u32>> {
    debug_assert!(!counts.is_empty());
    let msize = *counts.iter().min().expect("non-empty counts");
    if msize < k {
        return None;
    }
    let ratio_cap: u32 = if theta <= 0.0 {
        u32::MAX
    } else {
        // msize / (msize + csize) >= theta  <=>  csize <= msize*(1-theta)/theta
        ((msize as f64) * (1.0 - theta) / theta + RATIO_EPS).floor() as u32
    };
    let sizes: Vec<u32> = counts
        .iter()
        .map(|&c| c.min(msize.saturating_add(delta)).min(ratio_cap))
        .collect();
    if is_fair_pro(&sizes, k, delta, theta) {
        Some(sizes)
    } else {
        None
    }
}

/// All maximal proportion-fair size vectors for availabilities
/// `counts`: size vectors `c` with `k ≤ c_i ≤ counts_i`, fair spread,
/// every ratio `≥ θ`, and no componentwise-larger feasible vector.
/// They are written to `out` one after another, `counts.len()` entries
/// each, in lexicographic order.
///
/// This is the exact `CombinationPro` used by the enumerators; the
/// feasible lattice is tiny (`O(msize·(δ+1)^n)`) because the spread
/// constraint pins all components within `δ` of the minimum.
pub fn max_pro_fair_size_vectors(
    counts: &[u32],
    k: u32,
    delta: u32,
    theta: f64,
    out: &mut Vec<u32>,
) {
    debug_assert!(!counts.is_empty());
    out.clear();
    let n = counts.len();
    let msize = *counts.iter().min().expect("non-empty counts");
    if msize < k {
        return;
    }
    // Enumerate all feasible vectors, pruning by the spread constraint.
    // The vector being built is the last `n` entries of `out`; a
    // feasible one is kept by appending a copy to build on.
    #[allow(clippy::too_many_arguments)]
    fn rec(
        counts: &[u32],
        k: u32,
        delta: u32,
        theta: f64,
        i: usize,
        lo_seen: u32,
        hi_seen: u32,
        out: &mut Vec<u32>,
    ) {
        let n = counts.len();
        let cur = out.len() - n;
        if i == n {
            let total: u32 = out[cur..].iter().sum();
            let min = *out[cur..].iter().min().expect("non-empty");
            if total == 0 || ratio_ok(min, total, theta) {
                out.extend_from_within(cur..);
            }
            return;
        }
        // c_i must respect k, availability, and stay within delta of
        // everything chosen so far.
        let lo = k.max(hi_seen.saturating_sub(delta));
        let hi = counts[i].min(lo_seen.saturating_add(delta));
        for c in lo..=hi {
            let cur = out.len() - n;
            out[cur + i] = c;
            rec(
                counts,
                k,
                delta,
                theta,
                i + 1,
                lo_seen.min(c),
                hi_seen.max(c),
                out,
            );
        }
    }
    out.resize(n, 0);
    rec(counts, k, delta, theta, 0, u32::MAX, 0, out);
    out.truncate(out.len() - n);

    // Keep only the maximal elements of the componentwise order, in
    // place and in order. A vector dominated by a dropped one is also
    // dominated by a maximal one, which is either already kept or not
    // yet visited, so checking those two ranges suffices.
    let total = out.len() / n;
    let dominates = |w: &[u32], v: &[u32]| w != v && v.iter().zip(w).all(|(a, b)| a <= b);
    let mut kept = 0;
    for i in 0..total {
        let v = &out[i * n..(i + 1) * n];
        let dominated = (0..kept)
            .chain(i + 1..total)
            .any(|j| dominates(&out[j * n..(j + 1) * n], v));
        if !dominated {
            out.copy_within(i * n..(i + 1) * n, kept * n);
            kept += 1;
        }
    }
    out.truncate(kept * n);
}

/// The size vectors of `Combination` (its unique one), or with `theta`
/// of `CombinationPro`, written to `out` back to back; empty when no
/// (proportion-)fair subset exists. The one place that picks between
/// the two.
pub(crate) fn combination_vectors(
    counts: &[u32],
    k: u32,
    delta: u32,
    theta: Option<f64>,
    out: &mut Vec<u32>,
) {
    match theta {
        None => {
            if !combination_sizes(counts, k, delta, out) {
                out.clear();
            }
        }
        Some(t) => max_pro_fair_size_vectors(counts, k, delta, t, out),
    }
}

/// At most this many cover members at a node let the product DFS count
/// the node's kept subsets by inclusion–exclusion (`2^3` terms) instead
/// of visiting them.
const TALLY_COVER: usize = 3;

/// What the product DFS of [`Combiner`] reports to its caller.
pub(crate) trait ProductVisitor {
    /// A kept subset, sorted ascending. Returns false to stop.
    fn keep(&mut self, subset: &[VertexId]) -> bool;

    /// A subset rejected at its leaf, or a subtree cut without a
    /// visit. Returns false to stop.
    fn skip(&mut self) -> bool {
        true
    }

    /// Take `n ≥ 1` kept subsets of one subtree as a bare number, or
    /// `None` to have the DFS visit them one by one. Returns
    /// `Some(false)` to stop.
    fn tally(&mut self, _n: u64) -> Option<bool> {
        None
    }
}

/// The product step of `Combination` (Algorithm 7, lines 6–9), with
/// its scratch: every choice of `sizes[a]` members from each group `a`,
/// visited in lexicographic order of member positions (group 0
/// outermost), merged and sorted. Once a group's remaining members are
/// exactly the ones still to choose, they are taken in one step.
///
/// A caller may install a **cover**: a set `W` of outside vertices and,
/// per group member, a bit row of the `W` members adjacent to it. A
/// subset is then kept only if no `W` member is adjacent to all of it.
/// The DFS carries `W_cur`, the members adjacent to every pick so far,
/// and
/// * keeps a leaf iff `W_cur` is empty;
/// * cuts a subtree when a member of `W_cur` is adjacent to every
///   candidate that is still to be chosen from (every completion is
///   then covered);
/// * for tallying callers, counts a subtree whose `W_cur` has at most
///   [`TALLY_COVER`] members by inclusion–exclusion over subsets of
///   `W_cur`, without visiting it.
///
/// Without a cover every subset is kept. All buffers live in the
/// struct, so a combiner reused across calls allocates nothing once
/// warm.
#[derive(Debug, Default)]
pub(crate) struct Combiner {
    /// Group members, flattened in group order: group `a` is
    /// `flat[off[a]..off[a + 1]]`. A member's index in `flat` is its
    /// position.
    flat: Vec<VertexId>,
    off: Vec<usize>,
    /// Group sizes.
    counts: Vec<u32>,
    /// The size vector being enumerated, and all of the expansion's
    /// size vectors back to back.
    sizes: Vec<u32>,
    vectors: Vec<u32>,
    /// Cover members, and `words = ⌈members/64⌉` words per bit row.
    members: usize,
    words: usize,
    /// One bit row per position: the cover members adjacent to it.
    rows: Vec<u64>,
    /// Per position `p`: the cover members adjacent to every member at
    /// or after `p` in `p`'s group.
    suffix: Vec<u64>,
    /// Per group `a`, and one more row past the last: the cover members
    /// adjacent to every member of each group from `a` on that has a
    /// positive size.
    tail: Vec<u64>,
    /// `W_cur` per DFS depth.
    cur: Vec<u64>,
    picks: Vec<VertexId>,
    sorted: Vec<VertexId>,
    /// Leaves visited (subsets tested) and subtrees tallied so far.
    pub(crate) leaves: u64,
    pub(crate) tallied: u64,
}

/// [`ProductVisitor`] over a plain callback: every subset is kept.
struct EachSubset<'f>(&'f mut dyn FnMut(&[VertexId]) -> bool);

impl ProductVisitor for EachSubset<'_> {
    fn keep(&mut self, subset: &[VertexId]) -> bool {
        (self.0)(subset)
    }
}

impl Combiner {
    /// Load `groups` as the sets to combine.
    pub(crate) fn load<G: AsRef<[VertexId]>>(&mut self, groups: &[G]) {
        self.flat.clear();
        self.off.clear();
        self.off.push(0);
        self.counts.clear();
        for g in groups {
            self.flat.extend_from_slice(g.as_ref());
            self.off.push(self.flat.len());
            self.counts.push(g.as_ref().len() as u32);
        }
    }

    /// Load `members` grouped by attribute value into `n_attrs` groups,
    /// each keeping the order of `members`.
    pub(crate) fn load_by_attr(
        &mut self,
        members: &[VertexId],
        attrs: &[bigraph::AttrValueId],
        n_attrs: usize,
    ) {
        self.flat.clear();
        self.off.clear();
        self.off.push(0);
        self.counts.clear();
        for a in 0..n_attrs {
            let start = self.flat.len();
            self.flat
                .extend(members.iter().filter(|&&v| attrs[v as usize] as usize == a));
            self.off.push(self.flat.len());
            self.counts.push((self.flat.len() - start) as u32);
        }
    }

    /// Group sizes of the loaded groups.
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The members of group `a`.
    pub(crate) fn group(&self, a: usize) -> &[VertexId] {
        &self.flat[self.off[a]..self.off[a + 1]]
    }

    /// The loaded members in position order.
    pub(crate) fn positions(&self) -> &[VertexId] {
        &self.flat
    }

    /// The size vector set for the next [`Combiner::run`].
    pub(crate) fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Set the size vector for the next [`Combiner::run`].
    pub(crate) fn set_sizes(&mut self, sizes: &[u32]) {
        self.sizes.clear();
        self.sizes.extend_from_slice(sizes);
    }

    /// Install a cover of `members` vertices and return its bit rows,
    /// zeroed, one row of `⌈members/64⌉` words per position, for the
    /// caller to fill. `cover(0)` removes the cover.
    pub(crate) fn cover(&mut self, members: usize) -> &mut [u64] {
        self.members = members;
        self.words = members.div_ceil(64);
        self.rows.clear();
        self.rows.resize(self.flat.len() * self.words, 0);
        &mut self.rows
    }

    /// `Combination` (Algorithm 7), or with `theta` the exact
    /// `CombinationPro`: every maximal (proportion-)fair subset of the
    /// loaded groups, sorted, in the product's order. Removes any
    /// cover. Returns false iff `f` stopped the enumeration.
    pub(crate) fn for_each_max_fair_subset(
        &mut self,
        k: u32,
        delta: u32,
        theta: Option<f64>,
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        self.cover(0);
        let mut vectors = std::mem::take(&mut self.vectors);
        combination_vectors(&self.counts, k, delta, theta, &mut vectors);
        let go_on = vectors.chunks(self.counts.len()).all(|sizes| {
            self.set_sizes(sizes);
            self.run(false, &mut EachSubset(f))
        });
        self.vectors = vectors;
        go_on
    }

    /// The product of `sizes[a]`-subsets of the loaded groups, without a
    /// cover. Returns false iff `f` stopped the enumeration.
    #[cfg(test)]
    pub(crate) fn for_each_product(
        &mut self,
        sizes: &[u32],
        f: &mut dyn FnMut(&[VertexId]) -> bool,
    ) -> bool {
        self.cover(0);
        self.set_sizes(sizes);
        self.run(false, &mut EachSubset(f))
    }

    /// Run the product DFS for the current size vector and cover.
    /// `tally` lets the DFS offer whole subtrees to
    /// [`ProductVisitor::tally`]. Returns false iff the visitor stopped
    /// it.
    pub(crate) fn run(&mut self, tally: bool, v: &mut dyn ProductVisitor) -> bool {
        let n = self.sizes.len();
        debug_assert_eq!(n, self.counts.len());
        if self.sizes.iter().zip(&self.counts).any(|(k, c)| k > c) {
            return true;
        }
        let w = self.words;
        let depth: usize = self.sizes.iter().map(|&k| k as usize).sum();
        self.cur.clear();
        self.cur.resize((depth + 1) * w, 0);
        self.suffix.clear();
        self.suffix.resize(self.rows.len(), u64::MAX);
        self.tail.clear();
        self.tail.resize((n + 1) * w, u64::MAX);
        for a in (0..n).rev() {
            let (lo, hi) = (self.off[a], self.off[a + 1]);
            for p in (lo..hi).rev() {
                for i in 0..w {
                    let after = if p + 1 < hi {
                        self.suffix[(p + 1) * w + i]
                    } else {
                        u64::MAX
                    };
                    self.suffix[p * w + i] = self.rows[p * w + i] & after;
                }
            }
            for i in 0..w {
                let whole = if self.sizes[a] > 0 {
                    self.suffix[lo * w + i]
                } else {
                    u64::MAX
                };
                self.tail[a * w + i] = self.tail[(a + 1) * w + i] & whole;
            }
        }
        // W_cur at the root: every cover member.
        for (i, x) in self.cur[..w].iter_mut().enumerate() {
            let bits = self.members - 64 * i;
            *x = if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
        }
        self.picks.clear();
        self.node(0, self.off[0], self.sizes[0], 0, tally, v)
    }

    /// The DFS node choosing the next member of group `a` from position
    /// `p` on, with `left` members of group `a` still to choose and
    /// `W_cur` at depth `d`.
    fn node(
        &mut self,
        mut a: usize,
        mut p: usize,
        mut left: u32,
        d: usize,
        tally: bool,
        v: &mut dyn ProductVisitor,
    ) -> bool {
        while left == 0 {
            a += 1;
            if a == self.sizes.len() {
                return self.leaf(d, tally, v);
            }
            p = self.off[a];
            left = self.sizes[a];
        }
        let w = self.words;
        let end = self.off[a + 1];
        let cur = &self.cur[d * w..(d + 1) * w];
        let suffix = &self.suffix[p * w..(p + 1) * w];
        let tail = &self.tail[(a + 1) * w..(a + 2) * w];
        if (0..w).any(|i| cur[i] & suffix[i] & tail[i] != 0) {
            return v.skip();
        }
        if tally && cur.iter().map(|x| x.count_ones() as usize).sum::<usize>() <= TALLY_COVER {
            match self.count_kept(a, p, left, d) {
                Some(0) => return v.skip(),
                Some(n) => {
                    if let Some(go_on) = v.tally(n) {
                        self.tallied += 1;
                        return go_on;
                    }
                }
                None => {}
            }
        }
        if end - p == left as usize {
            // The rest of group `a` is the only way to finish it: take
            // it in one step.
            let (done, next) = self.cur.split_at_mut((d + 1) * w);
            let suffix = &self.suffix[p * w..(p + 1) * w];
            for ((x, c), s) in next[..w].iter_mut().zip(&done[d * w..]).zip(suffix) {
                *x = c & s;
            }
            let base = self.picks.len();
            self.picks.extend_from_slice(&self.flat[p..end]);
            let go_on = self.node(a, end, 0, d + 1, tally, v);
            self.picks.truncate(base);
            return go_on;
        }
        for q in p..=end - left as usize {
            let (done, next) = self.cur.split_at_mut((d + 1) * w);
            let row = &self.rows[q * w..(q + 1) * w];
            for ((x, c), r) in next[..w].iter_mut().zip(&done[d * w..]).zip(row) {
                *x = c & r;
            }
            self.picks.push(self.flat[q]);
            let go_on = self.node(a, q + 1, left - 1, d + 1, tally, v);
            self.picks.pop();
            if !go_on {
                return false;
            }
        }
        true
    }

    fn leaf(&mut self, d: usize, tally: bool, v: &mut dyn ProductVisitor) -> bool {
        self.leaves += 1;
        let w = self.words;
        if self.cur[d * w..(d + 1) * w].iter().any(|&c| c != 0) {
            return v.skip();
        }
        if tally {
            if let Some(go_on) = v.tally(1) {
                return go_on;
            }
        }
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.picks);
        self.sorted.sort_unstable();
        v.keep(&self.sorted)
    }

    /// The number of kept subsets below node `(a, p, left)` at depth
    /// `d`, whose `W_cur` has at most [`TALLY_COVER`] members:
    /// `Σ_{T ⊆ W_cur} (−1)^{|T|} Π_segments C(|segment ∩ N(T)|, need)`,
    /// over the segments still to choose from (the rest of group `a`,
    /// then every later group with a positive size). `None` when a term
    /// overflows `u64`.
    fn count_kept(&self, a: usize, p: usize, left: u32, d: usize) -> Option<u64> {
        let w = self.words;
        // The members of W_cur, as (word, bit).
        let mut members = [(0usize, 0u64); TALLY_COVER];
        let mut m = 0;
        for (i, &word) in self.cur[d * w..(d + 1) * w].iter().enumerate() {
            let mut x = word;
            while x != 0 {
                members[m] = (i, x & x.wrapping_neg());
                m += 1;
                x &= x - 1;
            }
        }
        let subsets = 1usize << m;
        let mut terms = [1u64; 1 << TALLY_COVER];
        let mut segment = |lo: usize, hi: usize, need: u32| -> Option<()> {
            // hist[s]: positions adjacent to exactly the members in s.
            let mut hist = [0u64; 1 << TALLY_COVER];
            for q in lo..hi {
                let row = &self.rows[q * w..(q + 1) * w];
                let s = members[..m]
                    .iter()
                    .enumerate()
                    .filter(|(_, &(i, bit))| row[i] & bit != 0)
                    .fold(0, |s, (j, _)| s | 1 << j);
                hist[s] += 1;
            }
            for (t, term) in terms[..subsets].iter_mut().enumerate() {
                let adjacent: u64 = (0..subsets).filter(|s| s & t == t).map(|s| hist[s]).sum();
                *term = term.checked_mul(binomial(adjacent, u64::from(need))?)?;
            }
            Some(())
        };
        segment(p, self.off[a + 1], left)?;
        for b in a + 1..self.sizes.len() {
            if self.sizes[b] > 0 {
                segment(self.off[b], self.off[b + 1], self.sizes[b])?;
            }
        }
        let signed: i128 = terms[..subsets]
            .iter()
            .enumerate()
            .map(|(t, &x)| {
                let x = i128::from(x);
                if t.count_ones() % 2 == 0 {
                    x
                } else {
                    -x
                }
            })
            .sum();
        u64::try_from(signed).ok()
    }
}

/// `C(n, k)`, or `None` when it overflows `u64`.
fn binomial(n: u64, k: u64) -> Option<u64> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut r = 1u64;
    for i in 1..=k {
        // r·(n−k+i)/i = C(n−k+i, i), an integer at every step.
        r = u64::try_from(u128::from(r) * u128::from(n - k + i) / u128::from(i)).ok()?;
    }
    Some(r)
}

/// All maximal (proportion-)fair subsets of the set whose members are
/// given per attribute in `groups` (`Combination`, or with `theta` the
/// exact `CombinationPro`), each sorted.
pub fn max_fair_subsets(
    groups: &[&[VertexId]],
    k: u32,
    delta: u32,
    theta: Option<f64>,
) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    let mut comb = Combiner::default();
    comb.load(groups);
    comb.for_each_max_fair_subset(k, delta, theta, &mut |s| {
        out.push(s.to_vec());
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_basics() {
        assert!(is_fair(&[2, 3], 2, 1));
        assert!(!is_fair(&[2, 3], 3, 1)); // k violated
        assert!(!is_fair(&[2, 4], 2, 1)); // delta violated
        assert!(is_fair(&[5], 1, 0)); // single attribute: spread vacuous
        assert!(is_fair(&[0, 0], 0, 0));
        assert!(!is_fair(&[0, 1], 0, 0));
    }

    #[test]
    fn pro_fairness() {
        assert!(is_fair_pro(&[2, 3], 2, 1, 0.4)); // 2/5 = 0.4
        assert!(!is_fair_pro(&[2, 3], 2, 1, 0.45));
        assert!(is_fair_pro(&[3, 3], 2, 1, 0.5));
        assert!(is_fair_pro(&[0, 0], 0, 0, 0.5)); // empty set
        assert!(is_fair_pro(&[2, 2], 2, 0, 0.0)); // theta 0 = plain fair
    }

    #[test]
    fn mfs_check_all_attrs_have_candidates() {
        // Both attrs have candidates -> never maximal.
        assert!(!is_maximal_fair_subset(&[2, 2], &[1, 1], 2, 0, None));
    }

    #[test]
    fn mfs_check_single_additions() {
        // base (3,2), delta 1: adding one of attr 0 -> (4,2) breaks.
        assert!(is_maximal_fair_subset(&[3, 2], &[5, 0], 2, 1, None));
        // base (2,2): adding one of attr 0 -> (3,2) fair -> not maximal.
        assert!(!is_maximal_fair_subset(&[2, 2], &[5, 0], 2, 1, None));
        // base not fair -> false.
        assert!(!is_maximal_fair_subset(&[1, 2], &[0, 0], 2, 1, None));
        // no candidates at all -> maximal iff fair.
        assert!(is_maximal_fair_subset(&[2, 2], &[0, 0], 2, 1, None));
    }

    #[test]
    fn mfs_check_matches_exhaustive_search() {
        // Cross-validate the O(n) check against the exponential oracle.
        for k in 0..3u32 {
            for delta in 0..3u32 {
                for b0 in 0..4u32 {
                    for b1 in 0..4u32 {
                        for c0 in 0..3u32 {
                            for c1 in 0..3u32 {
                                let base = [b0, b1];
                                let cand = [c0, c1];
                                let fast = is_maximal_fair_subset(&base, &cand, k, delta, None);
                                let slow = is_fair(&base, k, delta)
                                    && !exists_fair_extension(&base, &cand, k, delta, None);
                                assert_eq!(
                                    fast, slow,
                                    "base={base:?} cand={cand:?} k={k} d={delta}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mfs_check_three_attrs_matches_exhaustive() {
        for k in 0..2u32 {
            for delta in 0..3u32 {
                for base in [[2, 2, 2], [3, 2, 2], [4, 2, 3], [2, 4, 4]] {
                    for cand in [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1], [2, 0, 2]] {
                        let fast = is_maximal_fair_subset(&base, &cand, k, delta, None);
                        let slow = is_fair(&base, k, delta)
                            && !exists_fair_extension(&base, &cand, k, delta, None);
                        assert_eq!(fast, slow, "base={base:?} cand={cand:?} k={k} d={delta}");
                    }
                }
            }
        }
    }

    #[test]
    fn mfs_check_pro_matches_exhaustive_two_attrs() {
        for theta in [0.0, 0.3, 0.4, 0.45, 0.5] {
            for k in 0..3u32 {
                for delta in 0..3u32 {
                    for b0 in 0..5u32 {
                        for b1 in 0..5u32 {
                            for c0 in 0..3u32 {
                                for c1 in 0..3u32 {
                                    let base = [b0, b1];
                                    let cand = [c0, c1];
                                    let fast =
                                        is_maximal_fair_subset(&base, &cand, k, delta, Some(theta));
                                    let slow = is_fair_pro(&base, k, delta, theta)
                                        && !exists_fair_extension(
                                            &base,
                                            &cand,
                                            k,
                                            delta,
                                            Some(theta),
                                        );
                                    assert_eq!(
                                        fast, slow,
                                        "base={base:?} cand={cand:?} k={k} d={delta} t={theta}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn combination_sizes_formula() {
        let sizes = |counts: &[u32], k, delta| {
            let mut out = vec![7];
            combination_sizes(counts, k, delta, &mut out).then_some(out)
        };
        assert_eq!(sizes(&[3, 10], 1, 1), Some(vec![3, 4]));
        assert_eq!(sizes(&[5, 2], 1, 1), Some(vec![3, 2]));
        assert_eq!(sizes(&[5, 2, 9], 1, 1), Some(vec![3, 2, 3]));
        assert_eq!(sizes(&[5, 1], 2, 1), None); // attr 1 below k
        assert_eq!(sizes(&[4, 4], 2, 0), Some(vec![4, 4]));
    }

    /// [`max_pro_fair_size_vectors`], one `Vec` per vector.
    fn lattice(counts: &[u32], k: u32, delta: u32, theta: f64) -> Vec<Vec<u32>> {
        let mut out = vec![9; 4];
        max_pro_fair_size_vectors(counts, k, delta, theta, &mut out);
        out.chunks(counts.len()).map(<[u32]>::to_vec).collect()
    }

    /// Every subset the product of `groups` keeps at `sizes`, in order.
    fn product(groups: &[&[VertexId]], sizes: &[u32]) -> Vec<Vec<VertexId>> {
        let mut comb = Combiner::default();
        comb.load(groups);
        let mut seen = Vec::new();
        comb.for_each_product(sizes, &mut |s| {
            seen.push(s.to_vec());
            true
        });
        seen
    }

    #[test]
    fn ksubsets_enumeration() {
        // One group: its k-subsets in lexicographic order.
        let items = [10u32, 20, 30, 40];
        let seen = product(&[&items], &[2]);
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![10, 20]);
        assert_eq!(seen[1], vec![10, 30]);
        assert_eq!(seen[5], vec![30, 40]);
        assert_eq!(product(&[&items], &[0]), vec![Vec::<VertexId>::new()]);
        assert!(product(&[&items], &[5]).is_empty());
        assert_eq!(product(&[&items], &[4]), vec![items.to_vec()]);
    }

    #[test]
    fn product_enumeration_early_stops() {
        // The callback returning false must abort the whole cartesian
        // product immediately (budget enforcement path).
        let g0: Vec<VertexId> = (0..6).collect();
        let g1: Vec<VertexId> = (10..16).collect();
        let mut comb = Combiner::default();
        comb.load(&[&g0, &g1]);
        let mut n = 0;
        let stopped = comb.for_each_product(&[3, 3], &mut |_| {
            n += 1;
            n < 5
        });
        assert!(!stopped);
        assert_eq!(n, 5, "stopped after the 5th emission");
        // And a full run visits C(6,3)^2 = 400 subsets.
        let mut total = 0;
        let finished = comb.for_each_product(&[3, 3], &mut |s| {
            assert_eq!(s.len(), 6);
            total += 1;
            true
        });
        assert!(finished);
        assert_eq!(total, 400);
    }

    #[test]
    fn combination_enumerates_all_maximal_fair_subsets() {
        // groups: attr0 = {0,1,2}, attr1 = {10,11}, k=1, delta=0
        // sizes = (2,2) -> C(3,2)*C(2,2) = 3 subsets
        let g0: Vec<VertexId> = vec![0, 1, 2];
        let g1: Vec<VertexId> = vec![10, 11];
        let subs = max_fair_subsets(&[&g0, &g1], 1, 0, None);
        assert_eq!(subs.len(), 3);
        for s in &subs {
            assert_eq!(s.len(), 4);
            assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted output");
            assert!(s.contains(&10) && s.contains(&11));
        }
        // Below k -> nothing.
        let empty: Vec<VertexId> = vec![];
        assert!(max_fair_subsets(&[&g0, &empty], 1, 5, None).is_empty());
    }

    #[test]
    fn combination_count_formula() {
        // |S0|=4, |S1|=2, k=1, delta=1 -> sizes (3,2) -> C(4,3)*C(2,2)=4
        let g0: Vec<VertexId> = (0..4).collect();
        let g1: Vec<VertexId> = (10..12).collect();
        assert_eq!(max_fair_subsets(&[&g0, &g1], 1, 1, None).len(), 4);
    }

    #[test]
    fn pro_lattice_vs_paper_closed_form_two_attrs() {
        // On 2 attributes the paper's closed form must equal the unique
        // maximal vector whenever it exists.
        for s0 in 1..8u32 {
            for s1 in 1..8u32 {
                for k in 1..3u32 {
                    for delta in 0..3u32 {
                        for theta in [0.3, 0.4, 0.45, 0.5] {
                            let counts = [s0, s1];
                            let lattice = lattice(&counts, k, delta, theta);
                            let paper = combination_pro_paper_sizes(&counts, k, delta, theta);
                            match paper {
                                Some(sz) => {
                                    assert_eq!(
                                        lattice,
                                        vec![sz],
                                        "counts={counts:?} k={k} d={delta} t={theta}"
                                    );
                                }
                                None => assert!(
                                    lattice.is_empty(),
                                    "counts={counts:?} k={k} d={delta} t={theta}: {lattice:?}"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pro_lattice_vectors_are_feasible_and_maximal() {
        let counts = [6u32, 4, 9];
        for theta in [0.0, 0.2, 0.3] {
            for delta in 0..3u32 {
                let vecs = lattice(&counts, 1, delta, theta);
                for v in &vecs {
                    assert!(is_fair_pro(v, 1, delta, theta), "{v:?}");
                    assert!(v.iter().zip(&counts).all(|(a, b)| a <= b));
                    // No single-step extension may be feasible
                    // (necessary condition for maximality).
                    for i in 0..3 {
                        if v[i] < counts[i] {
                            let mut w = v.clone();
                            w[i] += 1;
                            // w may be feasible only if some other
                            // feasible vector dominates... it must not
                            // be feasible itself:
                            assert!(
                                !is_fair_pro(&w, 1, delta, theta)
                                    || vecs
                                        .iter()
                                        .any(|m| m != v && v.iter().zip(m).all(|(a, b)| a <= b)),
                                "extension {w:?} of {v:?} feasible"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pro_theta_zero_matches_plain_combination() {
        for s0 in 1..6u32 {
            for s1 in 1..6u32 {
                for delta in 0..3u32 {
                    let counts = [s0, s1];
                    let mut plain = Vec::new();
                    assert!(combination_sizes(&counts, 1, delta, &mut plain));
                    let pro = lattice(&counts, 1, delta, 0.0);
                    assert_eq!(pro, vec![plain]);
                }
            }
        }
    }

    #[test]
    fn attr_counts_bookkeeping() {
        let attrs: Vec<bigraph::AttrValueId> = vec![0, 1, 0, 1, 1];
        let mut c = AttrCounts::of(&[0, 1, 2], &attrs, 2);
        assert_eq!(c.as_slice(), &[2, 1]);
        assert_eq!(c.total(), 3);
        c.inc(1);
        c.dec(0);
        assert_eq!(c.as_slice(), &[1, 2]);
        let z = AttrCounts::zeros(3);
        assert_eq!(z.total(), 0);
    }
}
