//! Sharding the enumeration workload over connected components of the
//! pruned 2-hop structure.
//!
//! Observation 1 of the paper makes the fair side of every single-side
//! fair biclique a clique in the 2-hop projection
//! ([`crate::twohop::construct_2hop`] at the query's `α`): any two
//! fair-side members share the whole (≥ α)-sized non-fair side. A
//! clique never spans two connected components, so the enumeration
//! workload decomposes *exactly* along those components — no fair
//! biclique crosses a component boundary, and the union of per-
//! component enumerations is the whole-graph result set with no
//! duplicates. (The bi-side 2-hop of Definition 4 is a subgraph of the
//! single-side projection, so the same components are valid — merely
//! coarser — for the bi-side models too.)
//!
//! At `α = 1` the projection's components coincide with the connected
//! components of the bipartite graph itself, which makes the
//! decomposition exact for *every* model and parameter choice (a
//! biclique is connected, and `α ≥ 1` always holds). Sharding at a
//! larger `α` decomposes finer but is exact only for queries whose
//! `α` is at least the shard `α`.
//!
//! [`plan_shards`] labels the components and bin-packs them into `k`
//! size-balanced shards (greedy longest-processing-time by incident
//! bipartite edge count — deterministic, so independent processes
//! sharding the same graph agree without coordination).
//! [`shard_edges`] materializes one shard as a same-id-space subgraph:
//! all vertices are kept, only the shard's edges survive, so
//! enumeration results come out in *parent* vertex ids and per-shard
//! result streams merge without any translation. [`shard_induced`]
//! is the compacted variant for callers that want dense ids.

use crate::builder::GraphBuilder;
use crate::graph::{BipartiteGraph, Side, VertexId};
use crate::subgraph::{induce, InducedSubgraph};
use crate::twohop::construct_2hop;
use crate::unigraph::UniGraph;

/// Shard label of fair-side vertices that belong to no shard (isolated
/// vertices with no bipartite edge: they can join no biclique).
pub const UNASSIGNED: u32 = u32::MAX;

/// A deterministic assignment of 2-hop components to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// The fair side the 2-hop structure was projected from.
    pub fair_side: Side,
    /// The common-neighbor threshold the projection used.
    pub alpha: usize,
    /// Number of shards planned (some may be empty when the component
    /// count is below `k`).
    pub shards: usize,
    /// Number of connected components packed (excluding edgeless
    /// vertices).
    pub n_components: usize,
    /// `assignment[v]` is the shard of fair-side vertex `v`, or
    /// [`UNASSIGNED`] for edgeless vertices.
    pub assignment: Vec<u32>,
    /// Total incident bipartite edges per shard (the balance weight).
    pub shard_weights: Vec<u64>,
}

/// Label the connected components of `h`: returns `(labels, count)`
/// with labels dense in `0..count`, numbered in order of their
/// smallest vertex id (deterministic).
pub fn connected_components(h: &UniGraph) -> (Vec<u32>, usize) {
    let n = h.n();
    let mut label = vec![UNASSIGNED; n];
    let mut next = 0u32;
    let mut stack: Vec<VertexId> = Vec::new();
    for v in 0..n as VertexId {
        if label[v as usize] != UNASSIGNED {
            continue;
        }
        label[v as usize] = next;
        stack.push(v);
        while let Some(x) = stack.pop() {
            for &y in h.neighbors(x) {
                if label[y as usize] == UNASSIGNED {
                    label[y as usize] = next;
                    stack.push(y);
                }
            }
        }
        next += 1;
    }
    (label, next as usize)
}

/// Plan a `k`-way sharding of `g` along the connected components of
/// the `α`-threshold 2-hop projection of `fair_side`.
///
/// Exactness: every fair biclique whose query `α` is at least this
/// `alpha` lies entirely inside one shard (see the module docs); with
/// `alpha = 1` that covers every model and parameter choice.
/// Edgeless fair-side vertices are left [`UNASSIGNED`] — they cannot
/// join any biclique (`α ≥ 1` forces a non-empty other side).
///
/// Deterministic in `(g, fair_side, alpha, k)`: components are packed
/// largest-first (by incident bipartite edge count, ties by smallest
/// vertex id) onto the currently lightest shard (ties by lowest shard
/// index), so independent processes agree on the same plan.
pub fn plan_shards(g: &BipartiteGraph, fair_side: Side, alpha: usize, k: usize) -> ShardPlan {
    let k = k.max(1);
    let h = construct_2hop(g, fair_side, alpha.max(1), false);
    let (labels, raw_count) = connected_components(&h);

    // Weight per raw component = incident bipartite edges; drop the
    // edgeless singletons entirely.
    let n = g.n(fair_side);
    let mut weight = vec![0u64; raw_count];
    let mut min_vertex = vec![VertexId::MAX; raw_count];
    for v in 0..n as VertexId {
        let d = g.degree(fair_side, v) as u64;
        if d == 0 {
            continue;
        }
        let c = labels[v as usize] as usize;
        weight[c] += d;
        min_vertex[c] = min_vertex[c].min(v);
    }
    let mut comps: Vec<usize> = (0..raw_count).filter(|&c| weight[c] > 0).collect();
    comps.sort_by_key(|&c| (std::cmp::Reverse(weight[c]), min_vertex[c]));

    // Longest-processing-time greedy: largest component onto the
    // currently lightest shard.
    let mut shard_weights = vec![0u64; k];
    let mut comp_shard = vec![UNASSIGNED; raw_count];
    for &c in &comps {
        let lightest = shard_weights
            .iter()
            .enumerate()
            .min_by_key(|&(i, &w)| (w, i))
            .map(|(i, _)| i)
            .unwrap_or(0);
        comp_shard[c] = lightest as u32;
        shard_weights[lightest] += weight[c];
    }

    let assignment = (0..n)
        .map(|v| {
            if g.degree(fair_side, v as VertexId) == 0 {
                UNASSIGNED
            } else {
                comp_shard[labels[v] as usize]
            }
        })
        .collect();
    ShardPlan {
        fair_side,
        alpha: alpha.max(1),
        shards: k,
        n_components: comps.len(),
        assignment,
        shard_weights,
    }
}

/// Materialize shard `shard` of `plan` as a subgraph of `g` in the
/// *same vertex-id space*: every vertex is kept (possibly isolated),
/// and an edge survives iff its fair-side endpoint is assigned to
/// `shard`. Enumeration on the result therefore reports parent ids
/// directly, so per-shard result streams merge with no translation —
/// and the edge sets of the `k` shards partition `E(g)` exactly.
pub fn shard_edges(g: &BipartiteGraph, plan: &ShardPlan, shard: usize) -> BipartiteGraph {
    assert_eq!(
        plan.assignment.len(),
        g.n(plan.fair_side),
        "plan was built for a graph with a different fair side size"
    );
    let want = shard as u32;
    let mut b = GraphBuilder::new(g.n_attr_values(Side::Upper), g.n_attr_values(Side::Lower));
    b.ensure_vertices(g.n_upper(), g.n_lower());
    for (u, v) in g.edges() {
        let fair = match plan.fair_side {
            Side::Upper => u,
            Side::Lower => v,
        };
        if plan.assignment[fair as usize] == want {
            b.add_edge(u, v);
        }
    }
    b.set_attrs_upper(g.attrs(Side::Upper));
    b.set_attrs_lower(g.attrs(Side::Lower));
    b.build().expect("shard subgraphs are valid")
}

/// Compacted variant of [`shard_edges`]: keep only the shard's
/// fair-side vertices plus their bipartite neighborhood, with dense
/// ids and the maps back to the parent graph.
pub fn shard_induced(g: &BipartiteGraph, plan: &ShardPlan, shard: usize) -> InducedSubgraph {
    assert_eq!(
        plan.assignment.len(),
        g.n(plan.fair_side),
        "plan was built for a graph with a different fair side size"
    );
    let want = shard as u32;
    let n_fair = g.n(plan.fair_side);
    let n_other = g.n(plan.fair_side.other());
    let mut keep_fair = vec![false; n_fair];
    let mut keep_other = vec![false; n_other];
    for v in 0..n_fair as VertexId {
        if plan.assignment[v as usize] == want {
            keep_fair[v as usize] = true;
            for &u in g.neighbors(plan.fair_side, v) {
                keep_other[u as usize] = true;
            }
        }
    }
    match plan.fair_side {
        Side::Lower => induce(g, &keep_other, &keep_fair),
        Side::Upper => induce(g, &keep_fair, &keep_other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_uniform;
    use crate::intersect_sorted_count;

    /// Shard of fair-side vertex `v` (`None` for edgeless vertices).
    fn shard_of(plan: &ShardPlan, v: VertexId) -> Option<usize> {
        match plan.assignment.get(v as usize) {
            Some(&s) if s != UNASSIGNED => Some(s as usize),
            _ => None,
        }
    }

    fn toy_two_islands() -> BipartiteGraph {
        // Two bipartite islands: {u0,u1}×{v0,v1,v2} and {u2,u3}×{v3,v4}.
        let mut b = GraphBuilder::new(2, 2);
        for (u, v) in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 3), (3, 4)] {
            b.add_edge(u, v);
        }
        // One isolated lower vertex v5.
        b.ensure_vertices(4, 6);
        b.set_attrs_upper(&[0, 1, 0, 1]);
        b.set_attrs_lower(&[0, 1, 0, 1, 0, 1]);
        b.build().unwrap()
    }

    #[test]
    fn components_match_bruteforce() {
        let g = random_uniform(15, 25, 90, 2, 2, 5);
        let h = construct_2hop(&g, Side::Lower, 2, false);
        let (labels, count) = connected_components(&h);
        assert_eq!(labels.len(), h.n());
        assert!(count >= 1);
        // Same-component iff connected (brute-force reachability).
        for x in 0..h.n() as VertexId {
            for &y in h.neighbors(x) {
                assert_eq!(labels[x as usize], labels[y as usize]);
            }
        }
        // Labels are dense and numbered by smallest member.
        let mut firsts = vec![None; count];
        for (v, &l) in labels.iter().enumerate() {
            firsts[l as usize].get_or_insert(v);
        }
        let firsts: Vec<usize> = firsts.into_iter().map(|f| f.unwrap()).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn islands_never_share_a_shard_partner_across_components() {
        let g = toy_two_islands();
        let plan = plan_shards(&g, Side::Lower, 1, 2);
        assert_eq!(plan.n_components, 2);
        // Each island is one component; the isolated v5 is unassigned.
        assert_eq!(shard_of(&plan, 5), None);
        let island_a = shard_of(&plan, 0).unwrap();
        assert_eq!(shard_of(&plan, 1), Some(island_a));
        assert_eq!(shard_of(&plan, 2), Some(island_a));
        let island_b = shard_of(&plan, 3).unwrap();
        assert_eq!(shard_of(&plan, 4), Some(island_b));
        assert_ne!(island_a, island_b, "two islands, two shards");
        // Weights: island A has 4 incident edges, island B has 3.
        assert_eq!(plan.shard_weights[island_a], 4);
        assert_eq!(plan.shard_weights[island_b], 3);
    }

    #[test]
    fn twohop_edges_never_cross_shards() {
        let g = random_uniform(20, 30, 140, 2, 2, 11);
        for alpha in [1usize, 2, 3] {
            let h = construct_2hop(&g, Side::Lower, alpha, false);
            for k in [1usize, 2, 3, 5] {
                let plan = plan_shards(&g, Side::Lower, alpha, k);
                for x in 0..h.n() as VertexId {
                    for &y in h.neighbors(x) {
                        assert_eq!(
                            plan.assignment[x as usize], plan.assignment[y as usize],
                            "α={alpha} k={k}: 2-hop edge ({x},{y}) split across shards"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fair_pairs_with_alpha_common_neighbors_stay_together() {
        // The exactness invariant behind the whole design: any two
        // fair-side vertices that could co-occur in a fair biclique at
        // the plan's α (≥ α common neighbors) are in the same shard.
        let g = random_uniform(18, 24, 160, 2, 2, 23);
        for alpha in [1usize, 2] {
            let plan = plan_shards(&g, Side::Lower, alpha, 3);
            for x in 0..g.n_lower() as VertexId {
                for y in (x + 1)..g.n_lower() as VertexId {
                    let common = intersect_sorted_count(
                        g.neighbors(Side::Lower, x),
                        g.neighbors(Side::Lower, y),
                    );
                    if common >= alpha {
                        assert_eq!(
                            plan.assignment[x as usize], plan.assignment[y as usize],
                            "α={alpha}: pair ({x},{y}) shares {common} neighbors but is split"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_edge_sets_partition_the_graph() {
        let g = random_uniform(20, 30, 140, 3, 2, 9);
        for k in [1usize, 2, 4] {
            let plan = plan_shards(&g, Side::Lower, 1, k);
            let shards: Vec<BipartiteGraph> = (0..k).map(|i| shard_edges(&g, &plan, i)).collect();
            // Same id space and attributes everywhere.
            for s in &shards {
                assert_eq!(s.n_upper(), g.n_upper());
                assert_eq!(s.n_lower(), g.n_lower());
                assert_eq!(s.attrs(Side::Upper), g.attrs(Side::Upper));
                assert_eq!(s.attrs(Side::Lower), g.attrs(Side::Lower));
                s.validate().unwrap();
            }
            // Every parent edge lands in exactly one shard.
            let total: usize = shards.iter().map(|s| s.n_edges()).sum();
            assert_eq!(total, g.n_edges(), "k={k}");
            for (u, v) in g.edges() {
                let holders = shards.iter().filter(|s| s.has_edge(u, v)).count();
                assert_eq!(holders, 1, "edge ({u},{v}) in {holders} shards");
            }
            // Reported weights match materialized edge counts.
            for (i, s) in shards.iter().enumerate() {
                assert_eq!(plan.shard_weights[i], s.n_edges() as u64, "k={k} shard {i}");
            }
        }
    }

    #[test]
    fn planning_is_deterministic_and_balances() {
        let g = random_uniform(40, 60, 400, 2, 2, 3);
        let a = plan_shards(&g, Side::Lower, 1, 4);
        let b = plan_shards(&g, Side::Lower, 1, 4);
        assert_eq!(a, b);
        // LPT bound: no shard exceeds the mean by more than the
        // largest component's weight.
        let max_comp = {
            let h = construct_2hop(&g, Side::Lower, 1, false);
            let (labels, count) = connected_components(&h);
            let mut w = vec![0u64; count];
            for v in 0..g.n_lower() as VertexId {
                w[labels[v as usize] as usize] += g.degree(Side::Lower, v) as u64;
            }
            w.into_iter().max().unwrap_or(0)
        };
        let total: u64 = a.shard_weights.iter().sum();
        assert_eq!(total, g.n_edges() as u64);
        let mean = total / 4;
        for &w in &a.shard_weights {
            assert!(w <= mean + max_comp, "w={w} mean={mean} max={max_comp}");
        }
    }

    #[test]
    fn more_shards_than_components_leaves_empties() {
        let g = toy_two_islands();
        let plan = plan_shards(&g, Side::Lower, 1, 5);
        assert_eq!(plan.shards, 5);
        assert_eq!(plan.n_components, 2);
        let empty = plan.shard_weights.iter().filter(|&&w| w == 0).count();
        assert_eq!(empty, 3);
        for i in 0..5 {
            let s = shard_edges(&g, &plan, i);
            assert_eq!(s.n_edges() as u64, plan.shard_weights[i]);
        }
    }

    #[test]
    fn induced_shard_matches_edge_shard() {
        let g = random_uniform(16, 22, 110, 2, 2, 17);
        let plan = plan_shards(&g, Side::Lower, 2, 3);
        for i in 0..3 {
            let flat = shard_edges(&g, &plan, i);
            let sub = shard_induced(&g, &plan, i);
            sub.graph.validate().unwrap();
            assert_eq!(sub.graph.n_edges(), flat.n_edges(), "shard {i}");
            for (u, v) in sub.graph.edges() {
                let (pu, pv) = (sub.to_parent(Side::Upper, u), sub.to_parent(Side::Lower, v));
                assert!(flat.has_edge(pu, pv), "shard {i}: edge ({pu},{pv})");
            }
        }
    }

    #[test]
    fn upper_fair_side_plans_too() {
        let g = random_uniform(25, 15, 120, 2, 2, 29);
        let plan = plan_shards(&g, Side::Upper, 1, 2);
        assert_eq!(plan.assignment.len(), g.n_upper());
        let total: u64 = plan.shard_weights.iter().sum();
        assert_eq!(total, g.n_edges() as u64);
        let s0 = shard_edges(&g, &plan, 0);
        let s1 = shard_edges(&g, &plan, 1);
        assert_eq!(s0.n_edges() + s1.n_edges(), g.n_edges());
    }
}
