//! 2-hop projections of the fair side (Algorithms 3 and 8 of the paper).
//!
//! * [`construct_2hop`] — `Construct2HopGraph`: connect two fair-side
//!   vertices iff they share at least `α` common neighbors. In a
//!   single-side fair biclique every pair of fair-side vertices shares
//!   the whole (≥ α)-sized other side, so the fair side of any SSFBC is
//!   a clique in this projection (Observation 1).
//! * [`construct_2hop_biside`] — `BiConstruct2HopGraph`: connect two
//!   fair-side vertices iff they share at least `α` common neighbors *of
//!   every attribute value* on the opposite side, matching the per-
//!   attribute lower bound of the bi-side model (Definition 4).
//!
//! Both run in `O(Σ_u d(u)²)` over the opposite side, using a workhorse
//! counting array with a touched-list reset so no per-vertex allocation
//! happens in the hot loop.

use crate::candidate::{and_count, BitRows, Substrate};
use crate::graph::{BipartiteGraph, Side, VertexId};
use crate::unigraph::UniGraph;

/// Build the single-side 2-hop graph `H` on `fair_side` of `g`:
/// `{x, y} ∈ E(H)` iff `|N(x) ∩ N(y)| ≥ alpha`.
///
/// `alpha = 0` would connect everything; callers always pass `alpha ≥ 1`.
/// Vertex ids and attributes of `H` coincide with those of `fair_side`.
///
/// Dispatches on [`Substrate::Auto`]: small dense (pruned) inputs run
/// the bitset-row pair scan, everything else the output-sensitive
/// counting pass. See [`construct_2hop_with`] to force a substrate.
pub fn construct_2hop(g: &BipartiteGraph, fair_side: Side, alpha: usize) -> UniGraph {
    construct_2hop_with(g, fair_side, alpha, Substrate::Auto)
}

/// [`construct_2hop`] with an explicit candidate substrate.
pub fn construct_2hop_with(
    g: &BipartiteGraph,
    fair_side: Side,
    alpha: usize,
    substrate: Substrate,
) -> UniGraph {
    let use_bitset = match substrate {
        Substrate::SortedVec => false,
        Substrate::Bitset => true,
        // The pair scan is Θ(n² · words): profitable only on small
        // dense cores, a stricter gate than the enumeration policy.
        Substrate::Auto => {
            g.n(fair_side) <= 1024
                && g.n(fair_side.other()) <= Substrate::AUTO_MAX_SIDE
                && g.density() >= 0.02
        }
    };
    if use_bitset {
        construct_2hop_bitset(g, fair_side, alpha)
    } else {
        construct_2hop_counting(g, fair_side, alpha)
    }
}

/// Bitset-row 2-hop: popcount every vertex pair's row `AND`. Wins on
/// small dense cores where rows are a few words and the counting
/// pass's `Σ d²` blows up.
fn construct_2hop_bitset(g: &BipartiteGraph, fair_side: Side, alpha: usize) -> UniGraph {
    let n = g.n(fair_side);
    let alpha = alpha.max(1);
    let rows = BitRows::from_side(g, fair_side);
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for x in 0..n as VertexId {
        let rx = rows.row(x);
        // Skip rows that cannot reach alpha at all.
        if g.degree(fair_side, x) < alpha {
            continue;
        }
        for y in (x + 1)..n as VertexId {
            if g.degree(fair_side, y) >= alpha && and_count(rx, rows.row(y)) >= alpha {
                edges.push((x, y));
            }
        }
    }
    projection(g, fair_side, &edges)
}

/// Counting-pass 2-hop (the classic `O(Σ_u d(u)²)` construction).
fn construct_2hop_counting(g: &BipartiteGraph, fair_side: Side, alpha: usize) -> UniGraph {
    let edges = count_2hop_range(g, fair_side, alpha.max(1), 0..g.n(fair_side) as VertexId);
    projection(g, fair_side, &edges)
}

/// The counting pass over the fair-side vertices `range`: the edges
/// `(w, v)` with `v` in `range`, `w < v` and at least `alpha` common
/// neighbours.
fn count_2hop_range(
    g: &BipartiteGraph,
    fair_side: Side,
    alpha: usize,
    range: std::ops::Range<VertexId>,
) -> Vec<(VertexId, VertexId)> {
    let mut count = vec![0u32; g.n(fair_side)];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for v in range {
        debug_assert!(touched.is_empty());
        for &u in g.neighbors(fair_side, v) {
            for &w in g.neighbors(fair_side.other(), u) {
                if w != v {
                    if count[w as usize] == 0 {
                        touched.push(w);
                    }
                    count[w as usize] += 1;
                }
            }
        }
        for &w in &touched {
            // Emit each undirected edge once (w < v).
            if w < v && count[w as usize] as usize >= alpha {
                edges.push((w, v));
            }
            count[w as usize] = 0;
        }
        touched.clear();
    }
    edges
}

/// `H` on `fair_side` of `g` with `edges`: vertex ids and attributes
/// are those of `fair_side`.
fn projection(g: &BipartiteGraph, fair_side: Side, edges: &[(VertexId, VertexId)]) -> UniGraph {
    UniGraph::from_edges(
        g.n_attr_values(fair_side),
        g.attrs(fair_side).to_vec(),
        edges,
    )
}

/// Build the bi-side 2-hop graph on `fair_side` of `g`:
/// `{x, y} ∈ E(H)` iff `x` and `y` share at least one common neighbor
/// and, for *every* attribute value `a` of the opposite side, at least
/// `alpha` common neighbors whose attribute is `a`.
///
/// `alpha = 0` is not raised to 1: a bi-side fair biclique with a zero
/// threshold on the opposite side may lack some of its attribute
/// values entirely, so only the one shared neighbor is required.
pub fn construct_2hop_biside(g: &BipartiteGraph, fair_side: Side, alpha: usize) -> UniGraph {
    let n = g.n(fair_side);
    let n_attrs = g.n_attr_values(fair_side.other()) as usize;
    let other_attrs = g.attrs(fair_side.other());
    // Flattened per-(vertex, attr) counters.
    let mut count = vec![0u32; n * n_attrs];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();

    for v in 0..n as VertexId {
        debug_assert!(touched.is_empty());
        for &u in g.neighbors(fair_side, v) {
            let a = other_attrs[u as usize] as usize;
            for &w in g.neighbors(fair_side.other(), u) {
                if w != v {
                    let base = w as usize * n_attrs;
                    if count[base..base + n_attrs].iter().all(|&c| c == 0) {
                        touched.push(w);
                    }
                    count[base + a] += 1;
                }
            }
        }
        for &w in &touched {
            let base = w as usize * n_attrs;
            if w < v
                && count[base..base + n_attrs]
                    .iter()
                    .all(|&c| c as usize >= alpha)
            {
                edges.push((w, v));
            }
            count[base..base + n_attrs].iter_mut().for_each(|c| *c = 0);
        }
        touched.clear();
    }
    projection(g, fair_side, &edges)
}

/// Parallel [`construct_2hop`]: partitions the fair side across
/// `n_threads` scoped worker threads, each with its own counting
/// array, and merges the per-worker edge lists. Output is identical to
/// the serial version (edge *sets* are deterministic; `UniGraph`
/// construction sorts).
///
/// Worth using when `Σ_u d(u)²` is large (dense pre-pruning graphs);
/// for the post-`FCore` graphs the paper's pipeline feeds this, the
/// serial version is usually already sub-millisecond.
pub fn construct_2hop_par(
    g: &BipartiteGraph,
    fair_side: Side,
    alpha: usize,
    n_threads: usize,
) -> UniGraph {
    let n = g.n(fair_side);
    let alpha = alpha.max(1);
    let n_threads = n_threads.clamp(1, n.max(1));
    if n_threads == 1 || n < 256 {
        return construct_2hop(g, fair_side, alpha);
    }
    let chunk = n.div_ceil(n_threads);
    let edges: Vec<(VertexId, VertexId)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..n_threads)
            .map(|t| {
                let range = (t * chunk) as VertexId..((t + 1) * chunk).min(n) as VertexId;
                s.spawn(move || count_2hop_range(g, fair_side, alpha, range))
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("2-hop worker panicked"))
            .collect()
    });
    projection(g, fair_side, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// U = {0,1,2} (attrs 0,1,0), V = {0,1,2} (attrs 0,0,1).
    /// Edges: complete except (2,0).
    fn toy() -> BipartiteGraph {
        let mut b = GraphBuilder::new(2, 2);
        b.set_attrs_upper(&[0, 1, 0]);
        b.set_attrs_lower(&[0, 0, 1]);
        for (u, v) in [
            (0, 0),
            (0, 1),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 1),
            (2, 2),
        ] {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn single_side_common_counts() {
        let g = toy();
        // common neighbors: (0,1): {0,1}=2; (0,2): {0,1}=2; (1,2): {0,1,2}=3
        let h2 = construct_2hop(&g, Side::Lower, 2);
        assert_eq!(h2.n_edges(), 3);
        let h3 = construct_2hop(&g, Side::Lower, 3);
        assert_eq!(h3.n_edges(), 1);
        assert!(h3.has_edge(1, 2));
        let h4 = construct_2hop(&g, Side::Lower, 4);
        assert_eq!(h4.n_edges(), 0);
        // attributes carried over
        assert_eq!(h2.attrs(), g.attrs(Side::Lower));
    }

    #[test]
    fn alpha_zero_is_clamped_to_one() {
        let g = toy();
        let h0 = construct_2hop(&g, Side::Lower, 0);
        let h1 = construct_2hop(&g, Side::Lower, 1);
        assert_eq!(h0.n_edges(), h1.n_edges());
    }

    #[test]
    fn biside_requires_every_attr() {
        let g = toy();
        // Upper attrs: u0=0, u1=1, u2=0.
        // Pair (v1, v2): common = {0,1,2} -> attr0 count 2 (u0,u2), attr1 count 1 (u1).
        // Pair (v0, v1): common = {0,1} -> attr0: 1, attr1: 1.
        // Pair (v0, v2): common = {0,1} -> attr0: 1, attr1: 1.
        let h1 = construct_2hop_biside(&g, Side::Lower, 1);
        assert_eq!(h1.n_edges(), 3);
        let h2 = construct_2hop_biside(&g, Side::Lower, 2);
        assert_eq!(h2.n_edges(), 0); // attr1 never reaches 2
    }

    #[test]
    fn upper_side_projection() {
        let g = toy();
        // pairs on U: (0,1): common {0,1,2}=3; (0,2): {1,2}=2; (1,2): {1,2}=2
        let h = construct_2hop(&g, Side::Upper, 3);
        assert_eq!(h.n_edges(), 1);
        assert!(h.has_edge(0, 1));
        assert_eq!(h.attrs(), g.attrs(Side::Upper));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(2, 2).build().unwrap();
        let h = construct_2hop(&g, Side::Lower, 1);
        assert_eq!(h.n(), 0);
        let hb = construct_2hop_biside(&g, Side::Lower, 1);
        assert_eq!(hb.n(), 0);
        let hp = construct_2hop_par(&g, Side::Lower, 1, 4);
        assert_eq!(hp.n(), 0);
    }

    #[test]
    fn parallel_matches_serial() {
        use crate::generate::random_uniform;
        // Above the 256-vertex threshold so the threaded path runs.
        let g = random_uniform(120, 400, 3000, 2, 2, 31);
        for alpha in [1usize, 2, 3] {
            let serial = construct_2hop(&g, Side::Lower, alpha);
            for threads in [2usize, 3, 8] {
                let par = construct_2hop_par(&g, Side::Lower, alpha, threads);
                assert_eq!(par.n(), serial.n());
                assert_eq!(par.n_edges(), serial.n_edges(), "alpha={alpha} t={threads}");
                for v in 0..serial.n() as VertexId {
                    assert_eq!(par.neighbors(v), serial.neighbors(v));
                }
            }
        }
        // Upper side too.
        let s = construct_2hop(&g, Side::Upper, 2);
        let p = construct_2hop_par(&g, Side::Upper, 2, 4);
        assert_eq!(s.n_edges(), p.n_edges());
    }

    #[test]
    fn substrates_agree_on_2hop() {
        use crate::generate::random_uniform;
        let g = random_uniform(30, 45, 350, 2, 2, 13);
        for side in [Side::Lower, Side::Upper] {
            for alpha in 1usize..5 {
                let counting = construct_2hop_with(&g, side, alpha, Substrate::SortedVec);
                let bitset = construct_2hop_with(&g, side, alpha, Substrate::Bitset);
                assert_eq!(counting.n(), bitset.n());
                assert_eq!(counting.n_edges(), bitset.n_edges(), "{side} α={alpha}");
                for v in 0..counting.n() as VertexId {
                    assert_eq!(counting.neighbors(v), bitset.neighbors(v), "{side} {v}");
                }
                let auto = construct_2hop_with(&g, side, alpha, Substrate::Auto);
                assert_eq!(auto.n_edges(), counting.n_edges());
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_graph() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut b = GraphBuilder::new(2, 2);
        b.ensure_vertices(8, 10);
        for u in 0..8u32 {
            for v in 0..10u32 {
                if rng.random_bool(0.35) {
                    b.add_edge(u, v);
                }
            }
        }
        let attrs_l: Vec<u16> = (0..10).map(|_| rng.random_range(0..2u16)).collect();
        let attrs_u: Vec<u16> = (0..8).map(|_| rng.random_range(0..2u16)).collect();
        b.set_attrs_lower(&attrs_l);
        b.set_attrs_upper(&attrs_u);
        let g = b.build().unwrap();
        for alpha in 1..4usize {
            let h = construct_2hop(&g, Side::Lower, alpha);
            for x in 0..10u32 {
                for y in (x + 1)..10u32 {
                    let c = crate::intersect_sorted_count(
                        g.neighbors(Side::Lower, x),
                        g.neighbors(Side::Lower, y),
                    );
                    assert_eq!(h.has_edge(x, y), c >= alpha, "alpha={alpha} pair=({x},{y})");
                }
            }
            let hb = construct_2hop_biside(&g, Side::Lower, alpha);
            for x in 0..10u32 {
                for y in (x + 1)..10u32 {
                    let mut common = Vec::new();
                    crate::intersect_sorted_into(
                        g.neighbors(Side::Lower, x),
                        g.neighbors(Side::Lower, y),
                        &mut common,
                    );
                    let mut per_attr = [0usize; 2];
                    for &u in &common {
                        per_attr[g.attr(Side::Upper, u) as usize] += 1;
                    }
                    let want = per_attr.iter().all(|&c| c >= alpha);
                    assert_eq!(hb.has_edge(x, y), want, "bi alpha={alpha} pair=({x},{y})");
                }
            }
        }
    }
}
