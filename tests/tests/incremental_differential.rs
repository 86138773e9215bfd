//! Differential certification of the incremental fair-core
//! maintenance behind the dynamic-graph verbs
//! (`fair_biclique::incremental`): after every update in a random
//! edit script, the incrementally repaired state must equal a
//! rebuild-from-scratch —
//!
//! * core membership masks (and hence the per-`(α, β)` core numbers),
//! * the update effect's staleness verdict vs a direct core diff,
//! * full enumeration over the mutated graph, byte-for-byte, at 1 and
//!   4 threads, against the same graph rebuilt from its edge list.
//!
//! The last point is what licenses the service's surgical plan
//! invalidation: a clean verdict must imply byte-identical output.

use bigraph::generate::random_uniform;
use bigraph::{BipartiteGraph, GraphBuilder, Side, VertexId};
use fair_biclique::config::{FairParams, RunConfig};
use fair_biclique::fcore::fcore_masks;
use fair_biclique::incremental::CoreTracker;
use fair_biclique::pipeline::enumerate;
use fair_biclique::prepared::QueryModel;
use proptest::prelude::*;

/// Rebuild the graph from scratch out of its edge list — the oracle
/// the incremental CSR splices must agree with.
fn rebuilt(g: &BipartiteGraph) -> BipartiteGraph {
    let mut b = GraphBuilder::new(g.n_attr_values(Side::Upper), g.n_attr_values(Side::Lower));
    b.ensure_vertices(g.n_upper(), g.n_lower());
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    b.set_attrs_upper(g.attrs(Side::Upper));
    b.set_attrs_lower(g.attrs(Side::Lower));
    b.build().expect("mutated graph stays valid")
}

fn cfg(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        sorted: true,
        ..RunConfig::default()
    }
}

/// Deterministic xorshift so each proptest case derives its own edit
/// script from one seed.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random 30-step edit scripts (edge flips + occasional vertex
    /// appends) over random graphs, tracked at four `(α, β)` pairs.
    #[test]
    fn incremental_state_equals_rebuild_from_scratch(
        seed in 0u64..10_000,
        m in 40usize..70,
    ) {
        let mut g = random_uniform(11, 12, m, 2, 2, seed);
        let pairs = [(1u32, 1u32), (2, 1), (2, 2), (3, 2)];
        let mut trackers: Vec<CoreTracker> =
            pairs.iter().map(|&(a, b)| CoreTracker::new(&g, a, b)).collect();
        let mut rng = seed.wrapping_mul(2_654_435_761).wrapping_add(97);
        for step in 0..30 {
            // Mostly edge flips; every 10th step appends a vertex.
            if step % 10 == 9 {
                let side = if xorshift(&mut rng) % 2 == 0 { Side::Upper } else { Side::Lower };
                let attr = if xorshift(&mut rng) % 2 == 0 { 0 } else { 1 };
                let (g2, id) = g.with_vertex(side, attr).expect("vertex append");
                for t in &mut trackers {
                    t.add_vertex(&g2, side, id);
                }
                g = g2;
            } else {
                let u = (xorshift(&mut rng) % g.n_upper() as u64) as VertexId;
                let v = (xorshift(&mut rng) % g.n_lower() as u64) as VertexId;
                if g.has_edge(u, v) {
                    let g2 = g.without_edge(u, v).expect("edge removal");
                    for t in &mut trackers {
                        let before = t.masks().0.to_vec();
                        let before_v = t.masks().1.to_vec();
                        let eff = t.remove_edge(&g2, u, v);
                        prop_assert_eq!(
                            eff.is_clean(),
                            (before == t.masks().0 && before_v == t.masks().1)
                                && !eff.core_edge_touched,
                            "clean verdict must match an actual no-op at {:?}",
                            t.params()
                        );
                    }
                    g = g2;
                } else {
                    let g2 = g.with_edge(u, v).expect("edge insertion");
                    for t in &mut trackers {
                        t.add_edge(&g2, u, v);
                    }
                    g = g2;
                }
            }
            // Core membership equals the one-shot peel of the mutated
            // graph at every tracked pair, every step.
            for t in &mut trackers {
                let (alpha, beta) = t.params();
                let (ku, kv) = fcore_masks(&g, alpha, beta);
                prop_assert_eq!(t.masks().0, &ku[..], "upper core diverges at ({}, {})", alpha, beta);
                prop_assert_eq!(t.masks().1, &kv[..], "lower core diverges at ({}, {})", alpha, beta);
            }
        }
        // Terminal certification: enumeration over the incrementally
        // mutated CSR is byte-identical to the rebuilt graph, serial
        // and parallel.
        let fresh = rebuilt(&g);
        let ss = FairParams::unchecked(2, 1, 1);
        let bi = FairParams::unchecked(1, 1, 1);
        for threads in [1usize, 4] {
            let c = cfg(threads);
            prop_assert_eq!(
                enumerate(&g, QueryModel::Ssfbc(ss), &c).bicliques,
                enumerate(&fresh, QueryModel::Ssfbc(ss), &c).bicliques,
                "ssfbc diverges at {} threads", threads
            );
            prop_assert_eq!(
                enumerate(&g, QueryModel::Bsfbc(bi), &c).bicliques,
                enumerate(&fresh, QueryModel::Bsfbc(bi), &c).bicliques,
                "bsfbc diverges at {} threads", threads
            );
        }
    }
}
