//! Differential certification of the incremental fair-core
//! maintenance behind the dynamic-graph verbs
//! (`fair_biclique::incremental`): after every update in a random
//! edit script, the incrementally repaired state must equal a
//! rebuild-from-scratch —
//!
//! * core membership masks (and hence the per-`(α, β)` core numbers),
//! * every update effect, exactly: the flipped vertices on each side
//!   and whether the edge lies in the core that contains it,
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

/// The sorted ids whose mask flipped between `before` and `after`.
fn flipped(before: &[bool], after: &[bool]) -> Vec<VertexId> {
    (0..before.len() as VertexId)
        .filter(|&i| before[i as usize] != after[i as usize])
        .collect()
}

/// Replay a `steps`-step edit script derived from `seed` on `g` (edge
/// flips, and a vertex append every 10th step), tracking every pair of
/// `pairs`. After each update, every tracker's masks must equal the
/// one-shot peel and its effect must equal the direct mask diff; at the
/// end, enumeration over the mutated CSR must equal the rebuilt graph.
fn check_edit_script(mut g: BipartiteGraph, pairs: &[(u32, u32)], seed: u64, steps: usize) {
    let mut trackers: Vec<CoreTracker> = pairs
        .iter()
        .map(|&(a, b)| CoreTracker::new(&g, a, b))
        .collect();
    let mut rng = seed.wrapping_mul(2_654_435_761).wrapping_add(97);
    for step in 0..steps {
        if step % 10 == 9 {
            let side = if xorshift(&mut rng) % 2 == 0 {
                Side::Upper
            } else {
                Side::Lower
            };
            let attr = (xorshift(&mut rng) % u64::from(g.n_attr_values(side).max(1))) as u16;
            let (g2, id) = g.with_vertex(side, attr).expect("vertex append");
            for t in &mut trackers {
                let eff = t.add_vertex(&g2, side, id);
                prop_assert!(!eff.core_edge_touched);
                prop_assert_eq!(eff.flips(), usize::from(t.in_core(side, id)));
            }
            g = g2;
        } else {
            let u = (xorshift(&mut rng) % g.n_upper() as u64) as VertexId;
            let v = (xorshift(&mut rng) % g.n_lower() as u64) as VertexId;
            let add = !g.has_edge(u, v);
            let g2 = if add {
                g.with_edge(u, v).expect("edge insertion")
            } else {
                g.without_edge(u, v).expect("edge removal")
            };
            for t in &mut trackers {
                let (before_u, before_v) = (t.masks().0.to_vec(), t.masks().1.to_vec());
                let eff = if add {
                    t.add_edge(&g2, u, v)
                } else {
                    t.remove_edge(&g2, u, v)
                };
                let (after_u, after_v) = t.masks();
                let at = t.params();
                prop_assert_eq!(
                    &eff.changed_upper,
                    &flipped(&before_u, after_u),
                    "upper flips at {:?}",
                    at
                );
                prop_assert_eq!(
                    &eff.changed_lower,
                    &flipped(&before_v, after_v),
                    "lower flips at {:?}",
                    at
                );
                // The core that contains the edge: the new one after an
                // insertion, the old one before a deletion.
                let (core_u, core_v) = if add {
                    (after_u, after_v)
                } else {
                    (&before_u[..], &before_v[..])
                };
                prop_assert_eq!(
                    eff.core_edge_touched,
                    core_u[u as usize] && core_v[v as usize],
                    "core edge verdict at {:?}",
                    at
                );
            }
            g = g2;
        }
        // Core membership equals the one-shot peel of the mutated
        // graph at every tracked pair, every step.
        for t in &trackers {
            let (alpha, beta) = t.params();
            let (ku, kv) = fcore_masks(&g, alpha, beta);
            prop_assert_eq!(
                t.masks().0,
                &ku[..],
                "upper core diverges at ({}, {})",
                alpha,
                beta
            );
            prop_assert_eq!(
                t.masks().1,
                &kv[..],
                "lower core diverges at ({}, {})",
                alpha,
                beta
            );
        }
    }
    // Terminal certification: enumeration over the incrementally
    // mutated CSR is byte-identical to the rebuilt graph, serial and
    // parallel.
    let fresh = rebuilt(&g);
    let ss = FairParams::unchecked(2, 1, 1);
    let bi = FairParams::unchecked(1, 1, 1);
    for threads in [1usize, 4] {
        let c = cfg(threads);
        prop_assert_eq!(
            enumerate(&g, QueryModel::Ssfbc(ss), &c).bicliques,
            enumerate(&fresh, QueryModel::Ssfbc(ss), &c).bicliques,
            "ssfbc diverges at {} threads",
            threads
        );
        prop_assert_eq!(
            enumerate(&g, QueryModel::Bsfbc(bi), &c).bicliques,
            enumerate(&fresh, QueryModel::Bsfbc(bi), &c).bicliques,
            "bsfbc diverges at {} threads",
            threads
        );
    }
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
        let g = random_uniform(11, 12, m, 2, 2, seed);
        check_edit_script(g, &[(1, 1), (2, 1), (2, 2), (3, 2)], seed, 30);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 40-step edit scripts over the 11×12 graphs and larger
    /// 24×26 ones, with 1- to 3-valued attribute domains on each side,
    /// tracked at every `(α, β)` in `1..=4 × 0..=3`. High pairs on
    /// sparse graphs are where most insertions cannot revive anything.
    #[test]
    fn incremental_state_equals_rebuild_on_wider_inputs(
        seed in 0u64..10_000,
        (nu, nv) in prop_oneof![Just((11usize, 12usize)), Just((24, 26))],
        density_pct in 25usize..70,
        attrs_u in 1u16..=3,
        attrs_l in 1u16..=3,
    ) {
        let m = nu * nv * density_pct / 100;
        let g = random_uniform(nu, nv, m, attrs_u, attrs_l, seed);
        let pairs: Vec<(u32, u32)> =
            (1..=4).flat_map(|a| (0..=3).map(move |b| (a, b))).collect();
        check_edit_script(g, &pairs, seed, 40);
    }
}
