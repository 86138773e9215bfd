//! Vertex selection orderings (`IDOrd` / `DegOrd`, Table II of the
//! paper).
//!
//! The branch-and-bound enumerators pick candidates from `P` in a fixed
//! global order; the paper evaluates ascending-id order and
//! non-increasing-degree order and finds the latter roughly 2× faster.

use crate::config::VertexOrder;
use bigraph::{BipartiteGraph, Side, VertexId};

/// The processing order of `side`'s vertices under `order`.
pub fn side_order(g: &BipartiteGraph, side: Side, order: VertexOrder) -> Vec<VertexId> {
    let mut ids: Vec<VertexId> = (0..g.n(side) as VertexId).collect();
    match order {
        VertexOrder::IdAsc => {}
        VertexOrder::DegreeDesc => {
            ids.sort_by(|&a, &b| {
                g.degree(side, b)
                    .cmp(&g.degree(side, a))
                    .then_with(|| a.cmp(&b))
            });
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::GraphBuilder;

    /// A rank table: `rank[v]` = position of `v` in the processing
    /// order.
    fn rank_table(order: &[VertexId]) -> Vec<u32> {
        let mut rank = vec![0u32; order.len()];
        for (i, &v) in order.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        rank
    }

    fn toy() -> BipartiteGraph {
        let mut b = GraphBuilder::new(1, 1);
        // lower degrees: v0:1, v1:3, v2:2
        for (u, v) in [(0, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)] {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    #[test]
    fn id_order() {
        let g = toy();
        assert_eq!(
            side_order(&g, Side::Lower, VertexOrder::IdAsc),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn degree_order_with_ties() {
        let g = toy();
        assert_eq!(
            side_order(&g, Side::Lower, VertexOrder::DegreeDesc),
            vec![1, 2, 0]
        );
        // Upper degrees: u0:2, u1:2, u2:2 -> ties broken by id.
        assert_eq!(
            side_order(&g, Side::Upper, VertexOrder::DegreeDesc),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn rank_roundtrip() {
        let order = vec![2u32, 0, 1];
        let rank = rank_table(&order);
        assert_eq!(rank, vec![1, 2, 0]);
        for (i, &v) in order.iter().enumerate() {
            assert_eq!(rank[v as usize] as usize, i);
        }
    }
}
