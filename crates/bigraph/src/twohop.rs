//! 2-hop projections of the fair side (Algorithms 3 and 8 of the paper).
//!
//! [`construct_2hop`] connects two fair-side vertices iff they share at
//! least one neighbor and at least `α` neighbors of every *class*:
//!
//! * one class in total (`per_attr = false`) — `Construct2HopGraph`: at
//!   least `max(α, 1)` common neighbors. In a single-side fair biclique
//!   every pair of fair-side vertices shares the whole (≥ α)-sized
//!   other side, so the fair side of any SSFBC is a clique in this
//!   projection (Observation 1);
//! * one class per attribute value of the opposite side (`per_attr =
//!   true`) — `BiConstruct2HopGraph`: at least `α` common neighbors of
//!   *every* attribute value, matching the per-attribute lower bound of
//!   the bi-side model (Definition 4). `α = 0` still needs the one
//!   shared neighbor: a bi-side fair biclique with a zero threshold on
//!   the opposite side may lack some of its attribute values entirely.
//!
//! Two kernels build the pair list, picked by the graph's shape:
//!
//! * the counting pass, `O(Σ_u d(u)²)` over the opposite side, with
//!   per-class counters and a touched-list reset so no per-vertex
//!   allocation happens in the hot loop. Fair sides of at least 20,000
//!   vertices are split across scoped threads, each with its own
//!   counters; the merged pair list is the serial one.
//! * the bitset-row pair scan, for the one-class projection of small
//!   dense graphs, where rows are a few words and `Σ d²` blows up.

use crate::candidate::{and_count, BitRows, Substrate};
use crate::graph::{BipartiteGraph, Side, VertexId};
use crate::unigraph::UniGraph;

/// Fair sides at least this large run the counting pass on
/// `available_parallelism` threads.
const PAR_MIN_VERTICES: usize = 20_000;

/// Build the 2-hop graph `H` on `fair_side` of `g`: `{x, y} ∈ E(H)` iff
/// `x` and `y` share at least one neighbor and at least `alpha`
/// neighbors of each class — one class in total, or, with `per_attr`,
/// one class per attribute value of the opposite side (see the module
/// docs). Vertex ids and attributes of `H` coincide with those of
/// `fair_side`.
pub fn construct_2hop(
    g: &BipartiteGraph,
    fair_side: Side,
    alpha: usize,
    per_attr: bool,
) -> UniGraph {
    // The pair scan is Θ(n² · words): profitable only on small dense
    // cores, a stricter gate than the enumeration policy.
    let use_bitset = !per_attr
        && g.n(fair_side) <= 1024
        && g.n(fair_side.other()) <= Substrate::AUTO_MAX_SIDE
        && g.density() >= 0.02;
    let edges = if use_bitset {
        bitset_pairs(g, fair_side, alpha)
    } else {
        let threads = if g.n(fair_side) >= PAR_MIN_VERTICES {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        count_pairs(g, fair_side, alpha, per_attr, threads)
    };
    projection(g, fair_side, &edges)
}

/// Bitset-row pair scan of the one-class projection: popcount every
/// vertex pair's row `AND`.
fn bitset_pairs(g: &BipartiteGraph, fair_side: Side, alpha: usize) -> Vec<(VertexId, VertexId)> {
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
    edges
}

/// The counting pass over the whole fair side on `threads` scoped
/// threads, each counting a contiguous range of vertices. The ranges
/// are concatenated in order, so the pair list does not depend on
/// `threads`.
fn count_pairs(
    g: &BipartiteGraph,
    fair_side: Side,
    alpha: usize,
    per_attr: bool,
    threads: usize,
) -> Vec<(VertexId, VertexId)> {
    let n = g.n(fair_side);
    let threads = threads.clamp(1, n.max(1));
    let range = |r: std::ops::Range<usize>| {
        let r = r.start as VertexId..r.end as VertexId;
        if per_attr {
            count_range::<true>(g, fair_side, alpha, r)
        } else {
            count_range::<false>(g, fair_side, alpha, r)
        }
    };
    if threads == 1 {
        return range(0..n);
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|t| s.spawn(move || range(t * chunk..((t + 1) * chunk).min(n))))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("2-hop worker panicked"))
            .collect()
    })
}

/// The counting pass over the fair-side vertices `range`: the pairs
/// `(w, v)` with `v` in `range`, `w < v`, at least one shared neighbor
/// and at least `alpha` shared neighbors of each class. `PER_ATTR`
/// picks the classes: one per attribute value of the opposite side, or
/// (`false`) one in total, which is the shared count itself.
fn count_range<const PER_ATTR: bool>(
    g: &BipartiteGraph,
    fair_side: Side,
    alpha: usize,
    range: std::ops::Range<VertexId>,
) -> Vec<(VertexId, VertexId)> {
    let n = g.n(fair_side);
    let other_attrs = g.attrs(fair_side.other());
    let classes = if PER_ATTR {
        g.n_attr_values(fair_side.other()) as usize
    } else {
        0
    };
    let mut shared = vec![0u32; n];
    // Flattened per-(vertex, class) counters (empty for one class).
    let mut by_class = vec![0u32; n * classes];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for v in range {
        debug_assert!(touched.is_empty());
        for &u in g.neighbors(fair_side, v) {
            let a = if PER_ATTR {
                other_attrs[u as usize] as usize
            } else {
                0
            };
            for &w in g.neighbors(fair_side.other(), u) {
                if w != v {
                    let wi = w as usize;
                    if shared[wi] == 0 {
                        touched.push(w);
                    }
                    shared[wi] += 1;
                    if PER_ATTR {
                        by_class[wi * classes + a] += 1;
                    }
                }
            }
        }
        // Every touched `w` shares a neighbor with `v`; emit each
        // undirected edge once (w < v).
        for &w in &touched {
            let wi = w as usize;
            if PER_ATTR {
                let counts = &mut by_class[wi * classes..(wi + 1) * classes];
                if w < v && counts.iter().all(|&c| c as usize >= alpha) {
                    edges.push((w, v));
                }
                counts.fill(0);
            } else if w < v && shared[wi] as usize >= alpha {
                edges.push((w, v));
            }
            shared[wi] = 0;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_uniform;
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
        let h2 = construct_2hop(&g, Side::Lower, 2, false);
        assert_eq!(h2.n_edges(), 3);
        let h3 = construct_2hop(&g, Side::Lower, 3, false);
        assert_eq!(h3.n_edges(), 1);
        assert!(h3.has_edge(1, 2));
        let h4 = construct_2hop(&g, Side::Lower, 4, false);
        assert_eq!(h4.n_edges(), 0);
        // attributes carried over
        assert_eq!(h2.attrs(), g.attrs(Side::Lower));
    }

    #[test]
    fn alpha_zero_is_clamped_to_one() {
        let g = toy();
        let h0 = construct_2hop(&g, Side::Lower, 0, false);
        let h1 = construct_2hop(&g, Side::Lower, 1, false);
        assert_eq!(h0.n_edges(), h1.n_edges());
    }

    #[test]
    fn biside_requires_every_attr() {
        let g = toy();
        // Upper attrs: u0=0, u1=1, u2=0.
        // Pair (v1, v2): common = {0,1,2} -> attr0 count 2 (u0,u2), attr1 count 1 (u1).
        // Pair (v0, v1): common = {0,1} -> attr0: 1, attr1: 1.
        // Pair (v0, v2): common = {0,1} -> attr0: 1, attr1: 1.
        let h1 = construct_2hop(&g, Side::Lower, 1, true);
        assert_eq!(h1.n_edges(), 3);
        let h2 = construct_2hop(&g, Side::Lower, 2, true);
        assert_eq!(h2.n_edges(), 0); // attr1 never reaches 2
    }

    #[test]
    fn upper_side_projection() {
        let g = toy();
        // pairs on U: (0,1): common {0,1,2}=3; (0,2): {1,2}=2; (1,2): {1,2}=2
        let h = construct_2hop(&g, Side::Upper, 3, false);
        assert_eq!(h.n_edges(), 1);
        assert!(h.has_edge(0, 1));
        assert_eq!(h.attrs(), g.attrs(Side::Upper));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(2, 2).build().unwrap();
        for per_attr in [false, true] {
            let h = construct_2hop(&g, Side::Lower, 1, per_attr);
            assert_eq!(h.n(), 0);
            assert!(count_pairs(&g, Side::Lower, 1, per_attr, 4).is_empty());
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let g = random_uniform(120, 400, 3000, 2, 3, 31);
        for side in [Side::Lower, Side::Upper] {
            for per_attr in [false, true] {
                for alpha in 0usize..4 {
                    let serial = count_pairs(&g, side, alpha, per_attr, 1);
                    for threads in [2usize, 3, 8] {
                        let par = count_pairs(&g, side, alpha, per_attr, threads);
                        assert_eq!(
                            par, serial,
                            "{side} per_attr={per_attr} α={alpha} t={threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn substrates_agree_on_2hop() {
        let g = random_uniform(30, 45, 350, 2, 2, 13);
        for side in [Side::Lower, Side::Upper] {
            for alpha in 0usize..5 {
                let counting = projection(&g, side, &count_pairs(&g, side, alpha, false, 1));
                let bitset = projection(&g, side, &bitset_pairs(&g, side, alpha));
                assert_eq!(counting.n(), bitset.n());
                assert_eq!(counting.n_edges(), bitset.n_edges(), "{side} α={alpha}");
                for v in 0..counting.n() as VertexId {
                    assert_eq!(counting.neighbors(v), bitset.neighbors(v), "{side} {v}");
                }
                let auto = construct_2hop(&g, side, alpha, false);
                assert_eq!(auto.n_edges(), counting.n_edges());
            }
        }
    }

    #[test]
    fn matches_brute_force_on_random_graph() {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for n_attrs in [2u16, 3] {
            let mut b = GraphBuilder::new(n_attrs, n_attrs);
            b.ensure_vertices(8, 10);
            for u in 0..8u32 {
                for v in 0..10u32 {
                    if rng.random_bool(0.45) {
                        b.add_edge(u, v);
                    }
                }
            }
            let attrs_l: Vec<u16> = (0..10).map(|_| rng.random_range(0..n_attrs)).collect();
            let attrs_u: Vec<u16> = (0..8).map(|_| rng.random_range(0..n_attrs)).collect();
            b.set_attrs_lower(&attrs_l);
            b.set_attrs_upper(&attrs_u);
            let g = b.build().unwrap();
            for side in [Side::Lower, Side::Upper] {
                let n = g.n(side) as VertexId;
                for per_attr in [false, true] {
                    for alpha in 0..4usize {
                        let h = construct_2hop(&g, side, alpha, per_attr);
                        for x in 0..n {
                            for y in (x + 1)..n {
                                let mut common = Vec::new();
                                crate::intersect_sorted_into(
                                    g.neighbors(side, x),
                                    g.neighbors(side, y),
                                    &mut common,
                                );
                                let mut per_class = vec![0usize; n_attrs as usize];
                                for &u in &common {
                                    per_class[g.attr(side.other(), u) as usize] += 1;
                                }
                                let want = !common.is_empty()
                                    && if per_attr {
                                        per_class.iter().all(|&c| c >= alpha)
                                    } else {
                                        common.len() >= alpha
                                    };
                                assert_eq!(
                                    h.has_edge(x, y),
                                    want,
                                    "A={n_attrs} {side} per_attr={per_attr} α={alpha} ({x},{y})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
