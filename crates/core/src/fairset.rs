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
//! `θ = 0`. [`for_each_max_fair_subset`] is the one place that picks
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
    debug_assert!(!counts.is_empty());
    let mut min = u32::MAX;
    let mut max = 0u32;
    for &c in counts {
        if c < k {
            return false;
        }
        min = min.min(c);
        max = max.max(c);
    }
    max - min <= delta
}

/// Is `counts` proportion-fair for `(k, δ, θ)`: fair and every
/// attribute's share of the total at least `θ`?
///
/// An all-zero vector is proportion-fair iff `k == 0` (the ratio
/// constraint is vacuous on the empty set).
pub fn is_fair_pro(counts: &[u32], k: u32, delta: u32, theta: f64) -> bool {
    if !is_fair(counts, k, delta) {
        return false;
    }
    let total: u32 = counts.iter().sum();
    if total == 0 {
        return true; // is_fair already enforced k == 0
    }
    let min = *counts.iter().min().expect("non-empty counts");
    ratio_ok(min, total, theta)
}

/// [`is_fair`] for `theta = None`, [`is_fair_pro`] for `Some(θ)`.
pub(crate) fn is_fair_with(counts: &[u32], k: u32, delta: u32, theta: Option<f64>) -> bool {
    match theta {
        None => is_fair(counts, k, delta),
        Some(t) => is_fair_pro(counts, k, delta, t),
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
    let mut scratch = base.to_vec();
    for i in 0..base.len() {
        if cand[i] > 0 {
            scratch[i] += 1;
            let ok = is_fair_with(&scratch, k, delta, theta);
            scratch[i] -= 1;
            if ok {
                return false;
            }
        }
    }
    true
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
/// lines 3–5), or `None` when no fair subset exists.
pub fn combination_sizes(counts: &[u32], k: u32, delta: u32) -> Option<Vec<u32>> {
    debug_assert!(!counts.is_empty());
    let msize = *counts.iter().min().expect("non-empty counts");
    if msize < k {
        return None;
    }
    Some(
        counts
            .iter()
            .map(|&c| c.min(msize.saturating_add(delta)))
            .collect(),
    )
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
///
/// This is the exact `CombinationPro` used by the enumerators; the
/// feasible lattice is tiny (`O(msize·(δ+1)^n)`) because the spread
/// constraint pins all components within `δ` of the minimum.
pub fn max_pro_fair_size_vectors(counts: &[u32], k: u32, delta: u32, theta: f64) -> Vec<Vec<u32>> {
    debug_assert!(!counts.is_empty());
    let msize = *counts.iter().min().expect("non-empty counts");
    if msize < k {
        return Vec::new();
    }
    // Enumerate all feasible vectors, pruning by the spread constraint.
    let mut feasible: Vec<Vec<u32>> = Vec::new();
    let mut cur = vec![0u32; counts.len()];
    #[allow(clippy::too_many_arguments)]
    fn rec(
        counts: &[u32],
        k: u32,
        delta: u32,
        theta: f64,
        i: usize,
        lo_seen: u32,
        hi_seen: u32,
        cur: &mut Vec<u32>,
        out: &mut Vec<Vec<u32>>,
    ) {
        if i == counts.len() {
            let total: u32 = cur.iter().sum();
            let min = *cur.iter().min().expect("non-empty");
            if total == 0 || ratio_ok(min, total, theta) {
                out.push(cur.clone());
            }
            return;
        }
        // c_i must respect k, availability, and stay within delta of
        // everything chosen so far.
        let lo = k.max(hi_seen.saturating_sub(delta));
        let hi = counts[i].min(lo_seen.saturating_add(delta));
        let mut c = lo;
        while c <= hi {
            cur[i] = c;
            rec(
                counts,
                k,
                delta,
                theta,
                i + 1,
                lo_seen.min(c),
                hi_seen.max(c),
                cur,
                out,
            );
            c += 1;
        }
    }
    rec(
        counts,
        k,
        delta,
        theta,
        0,
        u32::MAX,
        0,
        &mut cur,
        &mut feasible,
    );

    // Keep only the maximal elements of the componentwise order.
    let mut maximal: Vec<Vec<u32>> = Vec::new();
    'outer: for v in &feasible {
        for w in &feasible {
            if w != v && v.iter().zip(w).all(|(a, b)| a <= b) {
                continue 'outer;
            }
        }
        maximal.push(v.clone());
    }
    maximal
}

/// Visit every `k_`-subset of `items` (ascending index order) without
/// allocation beyond one scratch buffer. `k_ == 0` visits the empty
/// subset once; `k_ > items.len()` visits nothing.
///
/// The callback returns `true` to continue; returning `false` stops
/// the enumeration early (budget enforcement — per-subset counts can
/// be astronomically large). The function returns `false` iff stopped.
pub fn for_each_ksubset(
    items: &[VertexId],
    k_: usize,
    f: &mut dyn FnMut(&[VertexId]) -> bool,
) -> bool {
    if k_ > items.len() {
        return true;
    }
    if k_ == 0 {
        return f(&[]);
    }
    let mut idx: Vec<usize> = (0..k_).collect();
    let mut scratch: Vec<VertexId> = Vec::with_capacity(k_);
    loop {
        scratch.clear();
        scratch.extend(idx.iter().map(|&i| items[i]));
        if !f(&scratch) {
            return false;
        }
        // Advance to next lexicographic combination.
        let mut i = k_;
        loop {
            if i == 0 {
                return true;
            }
            i -= 1;
            if idx[i] != i + items.len() - k_ {
                break;
            }
        }
        idx[i] += 1;
        for j in i + 1..k_ {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Emit the cartesian product of per-group `sizes[i]`-subsets, merged
/// and sorted (the set expansion step of Algorithm 7, lines 6–9).
///
/// Generic over the group storage (`&[&[VertexId]]` or
/// `&[Vec<VertexId>]`) so hot callers can pass their long-lived
/// per-attribute scratch buffers without building a slice-of-slices
/// view per call. Early-terminates (returning `false`) when the
/// callback does.
pub fn for_each_sized_product<G: AsRef<[VertexId]>>(
    groups: &[G],
    sizes: &[u32],
    f: &mut dyn FnMut(&[VertexId]) -> bool,
) -> bool {
    debug_assert_eq!(groups.len(), sizes.len());
    struct Emitter<'f> {
        f: &'f mut dyn FnMut(&[VertexId]) -> bool,
        buf: Vec<VertexId>,
        scratch: Vec<VertexId>,
    }
    impl Emitter<'_> {
        fn rec<G: AsRef<[VertexId]>>(&mut self, groups: &[G], sizes: &[u32]) -> bool {
            match groups.split_first() {
                None => {
                    self.scratch.clear();
                    self.scratch.extend_from_slice(&self.buf);
                    self.scratch.sort_unstable();
                    (self.f)(&self.scratch)
                }
                Some((g0, rest)) => {
                    let (s0, sr) = sizes.split_first().expect("sizes match groups");
                    let this = self;
                    for_each_ksubset(g0.as_ref(), *s0 as usize, &mut |sub| {
                        let base = this.buf.len();
                        this.buf.extend_from_slice(sub);
                        let go_on = this.rec(rest, sr);
                        this.buf.truncate(base);
                        go_on
                    })
                }
            }
        }
    }
    let mut e = Emitter {
        f,
        buf: Vec::new(),
        scratch: Vec::new(),
    };
    e.rec(groups, sizes)
}

/// `Combination` (Algorithm 7), or with `theta` the exact
/// `CombinationPro`: all maximal (proportion-)fair subsets of the set
/// whose members are given per attribute in `groups`. Results sorted.
/// Early-terminates (returning `false`) when the callback does.
pub fn for_each_max_fair_subset<G: AsRef<[VertexId]>>(
    groups: &[G],
    k: u32,
    delta: u32,
    theta: Option<f64>,
    f: &mut dyn FnMut(&[VertexId]) -> bool,
) -> bool {
    let counts: Vec<u32> = groups.iter().map(|g| g.as_ref().len() as u32).collect();
    if let Some(t) = theta {
        return for_each_max_pro_fair_subset(groups, &counts, k, delta, t, f);
    }
    match combination_sizes(&counts, k, delta) {
        Some(sizes) => for_each_sized_product(groups, &sizes, f),
        None => true,
    }
}

/// Exact `CombinationPro` over `groups` with sizes `counts`: the
/// products of every maximal proportion-fair size vector.
fn for_each_max_pro_fair_subset<G: AsRef<[VertexId]>>(
    groups: &[G],
    counts: &[u32],
    k: u32,
    delta: u32,
    theta: f64,
    f: &mut dyn FnMut(&[VertexId]) -> bool,
) -> bool {
    for sizes in max_pro_fair_size_vectors(counts, k, delta, theta) {
        if !for_each_sized_product(groups, &sizes, f) {
            return false;
        }
    }
    true
}

/// Collecting wrapper around [`for_each_max_fair_subset`].
pub fn max_fair_subsets(
    groups: &[&[VertexId]],
    k: u32,
    delta: u32,
    theta: Option<f64>,
) -> Vec<Vec<VertexId>> {
    let mut out = Vec::new();
    for_each_max_fair_subset(groups, k, delta, theta, &mut |s| {
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
        assert_eq!(combination_sizes(&[3, 10], 1, 1), Some(vec![3, 4]));
        assert_eq!(combination_sizes(&[5, 2], 1, 1), Some(vec![3, 2]));
        assert_eq!(combination_sizes(&[5, 2, 9], 1, 1), Some(vec![3, 2, 3]));
        assert_eq!(combination_sizes(&[5, 1], 2, 1), None); // attr 1 below k
        assert_eq!(combination_sizes(&[4, 4], 2, 0), Some(vec![4, 4]));
    }

    #[test]
    fn ksubsets_enumeration() {
        let items = [10u32, 20, 30, 40];
        let mut seen = Vec::new();
        for_each_ksubset(&items, 2, &mut |s| {
            seen.push(s.to_vec());
            true
        });
        assert_eq!(seen.len(), 6);
        assert_eq!(seen[0], vec![10, 20]);
        assert_eq!(seen[5], vec![30, 40]);
        let mut n0 = 0;
        for_each_ksubset(&items, 0, &mut |s| {
            assert!(s.is_empty());
            n0 += 1;
            true
        });
        assert_eq!(n0, 1);
        let mut n5 = 0;
        for_each_ksubset(&items, 5, &mut |_| {
            n5 += 1;
            true
        });
        assert_eq!(n5, 0);
        let mut n4 = 0;
        for_each_ksubset(&items, 4, &mut |s| {
            assert_eq!(s, &items);
            n4 += 1;
            true
        });
        assert_eq!(n4, 1);
    }

    #[test]
    fn product_enumeration_early_stops() {
        // The callback returning false must abort the whole cartesian
        // product immediately (budget enforcement path).
        let g0: Vec<VertexId> = (0..6).collect();
        let g1: Vec<VertexId> = (10..16).collect();
        let mut n = 0;
        let stopped = for_each_sized_product(&[&g0, &g1], &[3, 3], &mut |_| {
            n += 1;
            n < 5
        });
        assert!(!stopped);
        assert_eq!(n, 5, "stopped after the 5th emission");
        // And a full run visits C(6,3)^2 = 400 subsets.
        let mut total = 0;
        let finished = for_each_sized_product(&[&g0, &g1], &[3, 3], &mut |s| {
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
                            let lattice = max_pro_fair_size_vectors(&counts, k, delta, theta);
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
                let vecs = max_pro_fair_size_vectors(&counts, 1, delta, theta);
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
                    let plain = combination_sizes(&counts, 1, delta).unwrap();
                    let pro = max_pro_fair_size_vectors(&counts, 1, delta, 0.0);
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
