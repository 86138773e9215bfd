//! Fair α-β core pruning (`FCore`, Algorithm 1).
//!
//! The *fair α-β core* (Definition 8) is the maximal subgraph in which
//! every upper vertex has at least `β` neighbors of **each** lower
//! attribute value, and every lower vertex has degree at least `α`.
//! By Lemma 1 every single-side fair biclique lives inside it, so
//! peeling everything else is lossless.
//!
//! Peeling is the classic Batagelj–Zaversnik core decomposition adapted
//! to attribute degrees: initialize degrees, queue violators, cascade.
//! `O(|E| + |V|)` time, `O(|U|·A_n^V + |V|)` space.

use crate::config::{Budget, BudgetClock, StopReason};
use bigraph::subgraph::{induce, InducedSubgraph};
use bigraph::{BipartiteGraph, Side, VertexId};
use serde::{Deserialize, Serialize};

/// How many peel steps run between two [`BudgetClock::interrupted`]
/// probes inside the cascades. Each step touches one adjacency list, so
/// this keeps probe overhead well under 1% while bounding overshoot.
pub(crate) const CTL_PROBE_INTERVAL: u32 = 4096;

/// Before/after sizes of a pruning stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneStats {
    /// `|U|` before pruning.
    pub upper_before: usize,
    /// `|V|` before pruning.
    pub lower_before: usize,
    /// `|E|` before pruning.
    pub edges_before: usize,
    /// `|U|` after pruning.
    pub upper_after: usize,
    /// `|V|` after pruning.
    pub lower_after: usize,
    /// `|E|` after pruning.
    pub edges_after: usize,
}

impl PruneStats {
    /// Total remaining vertices (the y-axis of the paper's Fig. 3/4).
    pub fn remaining_vertices(&self) -> usize {
        self.upper_after + self.lower_after
    }

    /// Total vertices removed.
    pub fn removed_vertices(&self) -> usize {
        (self.upper_before + self.lower_before) - self.remaining_vertices()
    }
}

/// A pruning result: the compacted subgraph (with maps back to the
/// *original* graph's ids) plus size statistics.
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// Compacted pruned graph with id maps to the original graph.
    pub sub: InducedSubgraph,
    /// Size reduction statistics.
    pub stats: PruneStats,
}

pub(crate) fn stats_of(g: &BipartiteGraph, sub: &InducedSubgraph) -> PruneStats {
    PruneStats {
        upper_before: g.n_upper(),
        lower_before: g.n_lower(),
        edges_before: g.n_edges(),
        upper_after: sub.graph.n_upper(),
        lower_after: sub.graph.n_lower(),
        edges_after: sub.graph.n_edges(),
    }
}

/// Compose two induced subgraphs: `inner` was induced from
/// `outer.graph`; the result maps `inner.graph` ids straight to
/// `outer`'s parent ids.
pub(crate) fn compose(outer: &InducedSubgraph, inner: InducedSubgraph) -> InducedSubgraph {
    InducedSubgraph {
        graph: inner.graph,
        upper_to_parent: inner
            .upper_to_parent
            .iter()
            .map(|&i| outer.upper_to_parent[i as usize])
            .collect(),
        lower_to_parent: inner
            .lower_to_parent
            .iter()
            .map(|&i| outer.lower_to_parent[i as usize])
            .collect(),
    }
}

/// The identity "pruning" (`PruneKind::None`): the whole graph.
pub fn no_prune(g: &BipartiteGraph) -> PruneOutcome {
    compact(g, (vec![true; g.n_upper()], vec![true; g.n_lower()]))
}

/// Compute fair α-β core membership masks (Algorithm 1) without
/// materialising the subgraph.
///
/// Returns `(keep_upper, keep_lower)`.
pub fn fcore_masks(g: &BipartiteGraph, alpha: u32, beta: u32) -> (Vec<bool>, Vec<bool>) {
    fcore(g, alpha, beta, &Budget::UNLIMITED.start()).expect("an unlimited budget never interrupts")
}

/// `FCore` (Algorithm 1): peel `g` to its fair α-β core and return the
/// membership masks `(keep_upper, keep_lower)`.
///
/// Probes `clock` on entry and every [`CTL_PROBE_INTERVAL`] peel steps,
/// aborting with the interrupting [`StopReason`]. A clock that can never
/// interrupt adds no per-step work.
pub(crate) fn fcore(
    g: &BipartiteGraph,
    alpha: u32,
    beta: u32,
    clock: &BudgetClock,
) -> Result<(Vec<bool>, Vec<bool>), StopReason> {
    if let Some(r) = clock.interrupted() {
        return Err(r);
    }
    let probe = !clock.never_interrupted();
    let n_u = g.n_upper();
    let n_v = g.n_lower();
    let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
    let lower_attrs = g.attrs(Side::Lower);

    // Attribute degrees of upper vertices, flattened [u * n_attrs + a].
    let mut attr_deg = vec![0u32; n_u * n_attrs];
    for u in 0..n_u as VertexId {
        for &v in g.neighbors(Side::Upper, u) {
            attr_deg[u as usize * n_attrs + lower_attrs[v as usize] as usize] += 1;
        }
    }
    // Plain degrees of lower vertices.
    let mut deg: Vec<u32> = (0..n_v as VertexId)
        .map(|v| g.degree(Side::Lower, v) as u32)
        .collect();

    let mut alive_u = vec![true; n_u];
    let mut alive_v = vec![true; n_v];
    // Work stack of removed vertices awaiting neighbor updates.
    let mut stack: Vec<(Side, VertexId)> = Vec::new();

    let upper_ok = |attr_deg: &[u32], u: usize| -> bool {
        attr_deg[u * n_attrs..(u + 1) * n_attrs]
            .iter()
            .all(|&d| d >= beta)
    };

    #[allow(clippy::needless_range_loop)]
    for u in 0..n_u {
        if !upper_ok(&attr_deg, u) {
            alive_u[u] = false;
            stack.push((Side::Upper, u as VertexId));
        }
    }
    for (v, &d) in deg.iter().enumerate() {
        if d < alpha {
            alive_v[v] = false;
            stack.push((Side::Lower, v as VertexId));
        }
    }

    let mut steps: u32 = 0;
    while let Some((side, x)) = stack.pop() {
        steps = steps.wrapping_add(1);
        if probe && steps % CTL_PROBE_INTERVAL == 0 {
            if let Some(r) = clock.interrupted() {
                return Err(r);
            }
        }
        match side {
            Side::Upper => {
                // Removing upper x lowers the degree of its lower neighbors.
                for &v in g.neighbors(Side::Upper, x) {
                    if alive_v[v as usize] {
                        deg[v as usize] -= 1;
                        if deg[v as usize] < alpha {
                            alive_v[v as usize] = false;
                            stack.push((Side::Lower, v));
                        }
                    }
                }
            }
            Side::Lower => {
                // Removing lower x lowers one attribute degree of its
                // upper neighbors.
                let a = lower_attrs[x as usize] as usize;
                for &u in g.neighbors(Side::Lower, x) {
                    if alive_u[u as usize] {
                        let slot = u as usize * n_attrs + a;
                        attr_deg[slot] -= 1;
                        if attr_deg[slot] < beta {
                            alive_u[u as usize] = false;
                            stack.push((Side::Upper, u));
                        }
                    }
                }
            }
        }
    }

    Ok((alive_u, alive_v))
}

/// Compact `g` to the vertices kept by `(keep_upper, keep_lower)`.
pub(crate) fn compact(
    g: &BipartiteGraph,
    (keep_upper, keep_lower): (Vec<bool>, Vec<bool>),
) -> PruneOutcome {
    let sub = induce(g, &keep_upper, &keep_lower);
    let stats = stats_of(g, &sub);
    PruneOutcome { sub, stats }
}

/// Check that `(keep_upper, keep_lower)` induce a subgraph satisfying
/// the fair α-β core constraints (test helper; not maximality).
pub fn is_fair_core(
    g: &BipartiteGraph,
    keep_upper: &[bool],
    keep_lower: &[bool],
    alpha: u32,
    beta: u32,
) -> bool {
    let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
    for u in 0..g.n_upper() as VertexId {
        if !keep_upper[u as usize] {
            continue;
        }
        let mut ad = vec![0u32; n_attrs];
        for &v in g.neighbors(Side::Upper, u) {
            if keep_lower[v as usize] {
                ad[g.attr(Side::Lower, v) as usize] += 1;
            }
        }
        if ad.iter().any(|&d| d < beta) {
            return false;
        }
    }
    for v in 0..g.n_lower() as VertexId {
        if !keep_lower[v as usize] {
            continue;
        }
        let d = g
            .neighbors(Side::Lower, v)
            .iter()
            .filter(|&&u| keep_upper[u as usize])
            .count() as u32;
        if d < alpha {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairParams, PruneKind};
    use crate::pipeline::prune;
    use crate::prepared::QueryModel;
    use bigraph::generate::random_uniform;
    use bigraph::GraphBuilder;

    /// Build the Fig. 1(a)-style toy: a dense fair block plus fringe.
    fn block_with_fringe() -> BipartiteGraph {
        let mut b = GraphBuilder::new(2, 2);
        // Dense block: uppers 0..3 x lowers 0..4 complete.
        for u in 0..3 {
            for v in 0..4 {
                b.add_edge(u, v);
            }
        }
        // Fringe: upper 3 sees only lower 4; lower 5 sees only upper 0.
        b.add_edge(3, 4);
        b.add_edge(0, 5);
        b.set_attrs_upper(&[0, 1, 0, 1]);
        b.set_attrs_lower(&[0, 0, 1, 1, 0, 1]);
        b.build().unwrap()
    }

    #[test]
    fn peels_fringe_keeps_block() {
        let g = block_with_fringe();
        let out = prune(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(2, 2, 1)),
            PruneKind::FCore,
        );
        // Block survives: 3 uppers, 4 lowers.
        assert_eq!(out.stats.upper_after, 3);
        assert_eq!(out.stats.lower_after, 4);
        assert_eq!(out.stats.edges_after, 12);
        assert_eq!(out.stats.remaining_vertices(), 7);
        assert_eq!(out.stats.removed_vertices(), 3);
        // Mapped ids are the block's originals.
        assert_eq!(out.sub.upper_to_parent, vec![0, 1, 2]);
        assert_eq!(out.sub.lower_to_parent, vec![0, 1, 2, 3]);
    }

    #[test]
    fn result_satisfies_core_property() {
        for seed in 0..5u64 {
            let g = random_uniform(25, 30, 180, 2, 2, seed);
            for (a, b) in [(2, 2), (3, 2), (2, 3), (4, 4)] {
                let (ku, kv) = fcore_masks(&g, a, b);
                assert!(is_fair_core(&g, &ku, &kv, a, b), "seed={seed} a={a} b={b}");
            }
        }
    }

    #[test]
    fn core_is_maximal() {
        // No peeled vertex could have survived: adding any single
        // removed vertex back violates its own constraint (standard
        // core-decomposition maximality, checked empirically).
        let g = random_uniform(20, 20, 120, 2, 2, 3);
        let (ku, kv) = fcore_masks(&g, 2, 2);
        let n_attrs = 2;
        for u in 0..20u32 {
            if ku[u as usize] {
                continue;
            }
            // With everything alive that is alive plus u itself, u must
            // still violate (otherwise peeling removed it wrongly).
            let mut ad = vec![0u32; n_attrs];
            for &v in g.neighbors(Side::Upper, u) {
                if kv[v as usize] {
                    ad[g.attr(Side::Lower, v) as usize] += 1;
                }
            }
            assert!(ad.iter().any(|&d| d < 2), "upper {u} wrongly peeled");
        }
        for v in 0..20u32 {
            if kv[v as usize] {
                continue;
            }
            let d = g
                .neighbors(Side::Lower, v)
                .iter()
                .filter(|&&u| ku[u as usize])
                .count();
            assert!(d < 2, "lower {v} wrongly peeled");
        }
    }

    #[test]
    fn alpha_beta_monotone() {
        let g = random_uniform(30, 30, 250, 2, 2, 9);
        let mut prev = usize::MAX;
        for a in 1..6u32 {
            let out = prune(
                &g,
                QueryModel::Ssfbc(FairParams::unchecked(a, 2, 1)),
                PruneKind::FCore,
            );
            assert!(out.stats.remaining_vertices() <= prev);
            prev = out.stats.remaining_vertices();
        }
        let mut prev = usize::MAX;
        for b in 1..6u32 {
            let out = prune(
                &g,
                QueryModel::Ssfbc(FairParams::unchecked(2, b, 1)),
                PruneKind::FCore,
            );
            assert!(out.stats.remaining_vertices() <= prev);
            prev = out.stats.remaining_vertices();
        }
    }

    #[test]
    fn beta_zero_keeps_degree_only_constraint() {
        let g = block_with_fringe();
        let out = prune(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(1, 0, 0)),
            PruneKind::FCore,
        );
        // beta=0 never peels uppers; alpha=1 peels nothing with degree>=1.
        assert_eq!(out.stats.upper_after, 4);
        assert_eq!(out.stats.lower_after, 6);
    }

    #[test]
    fn everything_peeled_when_impossible() {
        let g = block_with_fringe();
        let out = prune(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(10, 10, 1)),
            PruneKind::FCore,
        );
        assert_eq!(out.stats.remaining_vertices(), 0);
        assert_eq!(out.stats.edges_after, 0);
    }

    #[test]
    fn no_prune_is_identity() {
        let g = block_with_fringe();
        let out = no_prune(&g);
        assert_eq!(out.stats.edges_after, g.n_edges());
        assert_eq!(out.sub.upper_to_parent.len(), g.n_upper());
    }
}
