//! Butterfly counting.
//!
//! A *butterfly* is a 2×2 biclique — the smallest non-trivial biclique
//! and the standard cohesion measure on bipartite graphs (the paper
//! cites butterfly counting \[13\]–\[16\], \[43\] as one of the fundamental
//! bipartite analyses next to biclique enumeration). The experiment
//! harness uses butterfly counts to characterise the synthetic corpus;
//! downstream users get them as a cheap density diagnostic before
//! launching a full enumeration.
//!
//! Two algorithms:
//!
//! * [`count_butterflies_naive`] — per-vertex wedge aggregation from
//!   one side; `O(Σ_u d(u)²)`; simple and used as the test oracle.
//! * [`count_butterflies`] — the vertex-priority algorithm of Wang et
//!   al. (`BFC-VP`, \[43\]): process each wedge only from its highest-
//!   priority endpoint, where priority = degree (ties by id). This
//!   caps the per-vertex work on skewed graphs and is the version the
//!   harness runs.
//!
//! Both count each butterfly exactly once.

use crate::graph::{BipartiteGraph, Side, VertexId};

/// Number of butterflies via one-sided wedge counting (oracle).
///
/// For every pair of distinct `side`-vertices `(x, y)` with `c` common
/// neighbors, the pair contributes `C(c, 2)` butterflies; summing over
/// unordered pairs from one side counts each butterfly once.
pub fn count_butterflies_naive(g: &BipartiteGraph, side: Side) -> u64 {
    let n = g.n(side);
    let mut count = vec![0u32; n];
    let mut touched: Vec<VertexId> = Vec::new();
    let mut total = 0u64;
    for v in 0..n as VertexId {
        for &u in g.neighbors(side, v) {
            for &w in g.neighbors(side.other(), u) {
                if w > v {
                    if count[w as usize] == 0 {
                        touched.push(w);
                    }
                    count[w as usize] += 1;
                }
            }
        }
        for &w in &touched {
            let c = count[w as usize] as u64;
            total += c * (c - 1) / 2;
            count[w as usize] = 0;
        }
        touched.clear();
    }
    total
}

/// Priority of a vertex: `(degree, side, id)` — higher degree first.
///
/// The side component makes priorities total across the two vertex
/// id spaces.
fn priority(g: &BipartiteGraph, side: Side, v: VertexId) -> (usize, u8, VertexId) {
    (g.degree(side, v), matches!(side, Side::Lower) as u8, v)
}

/// Number of butterflies via the vertex-priority strategy (`BFC-VP`).
///
/// Every wedge `(x, u, w)` (endpoints `x, w` on one side, middle `u`
/// on the other) is charged to its *start* vertex `x` only when `x`
/// has the highest priority of the three, and `w`'s priority exceeds
/// `u`'s... — concretely, per \[43\]: start from each vertex `x`, walk
/// to neighbors `u` with lower priority than `x`, then to `w ≠ x` with
/// lower priority than `x`; aggregate `C(c_w, 2)` per distinct `w`.
/// Each butterfly has a unique highest-priority corner, so it is
/// counted exactly once, and high-degree hubs are never used as wedge
/// middles by higher-priority starts — the trick that tames skew.
pub fn count_butterflies(g: &BipartiteGraph) -> u64 {
    let mut total = 0u64;
    // Scratch sized for whichever side is larger.
    let scratch_len = g.n_upper().max(g.n_lower());
    let mut count = vec![0u32; scratch_len];
    let mut touched: Vec<usize> = Vec::new();

    for side in [Side::Upper, Side::Lower] {
        for x in 0..g.n(side) as VertexId {
            let px = priority(g, side, x);
            for &u in g.neighbors(side, x) {
                if priority(g, side.other(), u) >= px {
                    continue;
                }
                for &w in g.neighbors(side.other(), u) {
                    if w == x || priority(g, side, w) >= px {
                        continue;
                    }
                    let slot = w as usize;
                    if count[slot] == 0 {
                        touched.push(slot);
                    }
                    count[slot] += 1;
                }
            }
            for &slot in &touched {
                let c = count[slot] as u64;
                total += c * (c - 1) / 2;
                count[slot] = 0;
            }
            touched.clear();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{plant_bicliques, random_uniform};
    use crate::GraphBuilder;

    /// Per-vertex butterfly participation on `side`: `out[v]` = number
    /// of butterflies containing `v`, counted per vertex independently
    /// of `count_butterflies`.
    fn butterfly_degrees(g: &BipartiteGraph, side: Side) -> Vec<u64> {
        let n = g.n(side);
        let mut out = vec![0u64; n];
        let mut count = vec![0u32; n];
        let mut touched: Vec<VertexId> = Vec::new();
        for v in 0..n as VertexId {
            for &u in g.neighbors(side, v) {
                for &w in g.neighbors(side.other(), u) {
                    if w != v {
                        if count[w as usize] == 0 {
                            touched.push(w);
                        }
                        count[w as usize] += 1;
                    }
                }
            }
            for &w in &touched {
                let c = count[w as usize] as u64;
                // v participates in C(c,2) butterflies with partner w.
                out[v as usize] += c * (c - 1) / 2;
                count[w as usize] = 0;
            }
            touched.clear();
        }
        out
    }

    fn complete(nu: usize, nv: usize) -> BipartiteGraph {
        let mut b = GraphBuilder::new(1, 1);
        for u in 0..nu as VertexId {
            for v in 0..nv as VertexId {
                b.add_edge(u, v);
            }
        }
        b.build().unwrap()
    }

    fn choose2(n: u64) -> u64 {
        n * (n - 1) / 2
    }

    #[test]
    fn complete_graph_formula() {
        // K_{a,b} has C(a,2)*C(b,2) butterflies.
        for (a, b) in [(2, 2), (3, 4), (5, 3), (4, 4)] {
            let g = complete(a, b);
            let want = choose2(a as u64) * choose2(b as u64);
            assert_eq!(count_butterflies_naive(&g, Side::Upper), want);
            assert_eq!(count_butterflies_naive(&g, Side::Lower), want);
            assert_eq!(count_butterflies(&g), want, "K({a},{b})");
        }
    }

    #[test]
    fn single_butterfly() {
        let g = complete(2, 2);
        assert_eq!(count_butterflies(&g), 1);
    }

    #[test]
    fn no_butterflies_in_trees() {
        // A star has no 2x2 blocks.
        let mut b = GraphBuilder::new(1, 1);
        for v in 0..6 {
            b.add_edge(0, v);
        }
        let g = b.build().unwrap();
        assert_eq!(count_butterflies(&g), 0);
        assert_eq!(count_butterflies_naive(&g, Side::Lower), 0);
    }

    #[test]
    fn priority_version_matches_naive_on_random_graphs() {
        for seed in 0..20u64 {
            let g = random_uniform(15, 18, 90, 1, 1, seed);
            let naive_u = count_butterflies_naive(&g, Side::Upper);
            let naive_l = count_butterflies_naive(&g, Side::Lower);
            assert_eq!(naive_u, naive_l, "seed {seed}: side symmetry");
            assert_eq!(count_butterflies(&g), naive_u, "seed {seed}");
        }
    }

    #[test]
    fn skewed_graphs_match() {
        for seed in 0..6u64 {
            let base = crate::generate::chung_lu_power_law(60, 80, 700, 2.1, 2.2, 1, 1, seed);
            let g = plant_bicliques(&base, 2, 4, 4, 1.0, seed + 9);
            assert_eq!(
                count_butterflies(&g),
                count_butterflies_naive(&g, Side::Upper),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn butterfly_degrees_sum() {
        // Each butterfly contains exactly 2 vertices of each side, so
        // per-side participation sums to 2x the butterfly count.
        let g = random_uniform(12, 12, 60, 1, 1, 3);
        let total = count_butterflies(&g);
        let du: u64 = butterfly_degrees(&g, Side::Upper).iter().sum();
        let dl: u64 = butterfly_degrees(&g, Side::Lower).iter().sum();
        assert_eq!(du, 2 * total);
        assert_eq!(dl, 2 * total);
    }

    #[test]
    fn planted_blocks_light_up() {
        let base = random_uniform(40, 40, 80, 1, 1, 5);
        let g = plant_bicliques(&base, 1, 5, 5, 1.0, 77);
        let before = count_butterflies(&base);
        let after = count_butterflies(&g);
        assert!(after >= before + choose2(5) * choose2(5));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(1, 1).build().unwrap();
        assert_eq!(count_butterflies(&g), 0);
    }
}
