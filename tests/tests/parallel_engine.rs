//! Certification battery for the parallel engine (the walk's root split
//! across workers):
//! property-based cross-validation of every parallel miner against
//! its serial counterpart and the brute-force oracles, global-budget
//! semantics, deterministic-output guarantees, statistics merging,
//! and degenerate configurations.

use bigraph::{BipartiteGraph, GraphBuilder};
use fair_biclique::biclique::Biclique;
use fair_biclique::config::{Budget, FairParams, ProParams, RunConfig};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::pipeline::{enumerate, RunReport};
use fair_biclique::prepared::QueryModel;
use fair_biclique::verify::oracle;
use fbe_integration::{assert_valid_bsfbc, assert_valid_ssfbc, maximum_of, medium_graph};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Thread counts the battery sweeps; 7 is deliberately not a power of
/// two and exceeds the top-level branch count of the small graphs.
const THREADS: [usize; 4] = [1, 2, 4, 7];

fn par_cfg(threads: usize) -> RunConfig {
    RunConfig {
        threads,
        sorted: true,
        ..RunConfig::default()
    }
}

fn set_of(report: RunReport) -> BTreeSet<Biclique> {
    let n = report.bicliques.len();
    let set: BTreeSet<Biclique> = report.bicliques.into_iter().collect();
    assert_eq!(set.len(), n, "parallel run emitted duplicates");
    set
}

/// Strategy: a random attributed bipartite graph.
fn graph_strategy(nu: usize, nv: usize) -> impl Strategy<Value = BipartiteGraph> {
    (
        proptest::collection::vec(proptest::bool::weighted(0.4), nu * nv),
        proptest::collection::vec(0u16..2, nu),
        proptest::collection::vec(0u16..2, nv),
    )
        .prop_map(move |(cells, ua, la)| {
            let mut b = GraphBuilder::new(2, 2);
            b.ensure_vertices(nu, nv);
            for (i, &on) in cells.iter().enumerate() {
                if on {
                    b.add_edge((i / nv) as u32, (i % nv) as u32);
                }
            }
            b.set_attrs_upper(&ua);
            b.set_attrs_lower(&la);
            b.build().expect("valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every parallel miner's result set equals its serial
    /// counterpart's and the brute-force oracle's, at every thread
    /// count.
    #[test]
    fn parallel_miners_match_serial_and_oracles(
        g in graph_strategy(7, 8),
        (a, b, d) in (1u32..3, 1u32..3, 0u32..3),
        theta in prop_oneof![Just(0.0), Just(0.3), Just(0.5)],
    ) {
        let params = FairParams::unchecked(a, b, d);
        let pro = ProParams::new(a, b, d, theta).unwrap();
        let want_ss = oracle(&g, QueryModel::Ssfbc(params));
        let want_bs = oracle(&g, QueryModel::Bsfbc(params));
        let want_pss = oracle(&g, QueryModel::Pssfbc(pro));
        let want_pbs = oracle(&g, QueryModel::Pbsfbc(pro));
        for threads in THREADS {
            let cfg = par_cfg(threads);
            let tag = format!("threads {threads}");
            prop_assert_eq!(&set_of(enumerate(&g, QueryModel::Ssfbc(params), &cfg)), &want_ss, "SSFBC {}", &tag);
            prop_assert_eq!(&set_of(enumerate(&g, QueryModel::Bsfbc(params), &cfg)), &want_bs, "BSFBC {}", &tag);
            prop_assert_eq!(&set_of(enumerate(&g, QueryModel::Pssfbc(pro), &cfg)), &want_pss, "PSSFBC {}", &tag);
            prop_assert_eq!(&set_of(enumerate(&g, QueryModel::Pbsfbc(pro), &cfg)), &want_pbs, "PBSFBC {}", &tag);
        }
    }

    /// Parallel maximum search returns the exact serial answer
    /// (deterministic tie-break included) at every thread count.
    #[test]
    fn parallel_maximum_matches_serial(
        g in graph_strategy(8, 9),
        (a, b, d) in (1u32..3, 1u32..3, 0u32..3),
    ) {
        let params = FairParams::unchecked(a, b, d);
        for metric in [SizeMetric::Vertices, SizeMetric::Edges] {
            let (ss, bs) = (QueryModel::Ssfbc(params), QueryModel::Bsfbc(params));
            let want_ss = maximum_of(&g, ss, metric, &RunConfig::default());
            let want_bs = maximum_of(&g, bs, metric, &RunConfig::default());
            for threads in [2usize, 4, 7] {
                let cfg = RunConfig { threads, ..RunConfig::default() };
                let got_ss = maximum_of(&g, ss, metric, &cfg);
                let got_bs = maximum_of(&g, bs, metric, &cfg);
                prop_assert_eq!(&got_ss, &want_ss, "ss threads {} {:?}", threads, metric);
                prop_assert_eq!(&got_bs, &want_bs, "bs threads {} {:?}", threads, metric);
            }
        }
    }

    /// Merged per-worker statistics equal the serial run's totals:
    /// node counts (branches visited) and emission counts sum exactly
    /// across workers, for any schedule.
    #[test]
    fn merged_stats_equal_serial_totals(
        g in graph_strategy(9, 10),
        (a, b, d) in (1u32..3, 1u32..3, 0u32..3),
    ) {
        let params = FairParams::unchecked(a, b, d);
        let ser_ss = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
        let ser_bs = enumerate(&g, QueryModel::Bsfbc(params), &RunConfig::default());
        for threads in THREADS {
            let cfg = par_cfg(threads);
            let par_ss = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
            prop_assert_eq!(par_ss.stats.nodes, ser_ss.stats.nodes,
                "ss nodes, threads {}", threads);
            prop_assert_eq!(par_ss.stats.emitted, ser_ss.stats.emitted);
            prop_assert_eq!(par_ss.prune, ser_ss.prune, "prune stats are run-identical");
            let par_bs = enumerate(&g, QueryModel::Bsfbc(params), &cfg);
            prop_assert_eq!(par_bs.stats.nodes, ser_bs.stats.nodes,
                "bs nodes, threads {}", threads);
            prop_assert_eq!(par_bs.stats.emitted, ser_bs.stats.emitted);
        }
    }
}

// ---------------------------------------------------------------
// Global budget semantics (the per-worker-budget bug regression).
// ---------------------------------------------------------------

/// A global result budget of `K` yields exactly `min(K, total)`
/// results at *every* thread count — the old driver could emit up to
/// `threads × K`.
#[test]
fn result_budget_cutoff_is_exact_for_all_miners() {
    let g = medium_graph(5);
    let params = FairParams::unchecked(2, 1, 1);
    let pro = ProParams::new(2, 1, 1, 0.25).unwrap();
    let totals = (
        enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
            .bicliques
            .len(),
        enumerate(&g, QueryModel::Bsfbc(params), &RunConfig::default())
            .bicliques
            .len(),
        enumerate(&g, QueryModel::Pssfbc(pro), &RunConfig::default())
            .bicliques
            .len(),
        enumerate(&g, QueryModel::Pbsfbc(pro), &RunConfig::default())
            .bicliques
            .len(),
    );
    assert!(totals.0 > 4, "need enough SSFBCs, got {}", totals.0);
    for threads in THREADS {
        for k in [0usize, 1, 2, 1000] {
            let cfg = RunConfig {
                threads,
                budget: Budget::results(k as u64),
                ..RunConfig::default()
            };
            let got = (
                enumerate(&g, QueryModel::Ssfbc(params), &cfg)
                    .bicliques
                    .len(),
                enumerate(&g, QueryModel::Bsfbc(params), &cfg)
                    .bicliques
                    .len(),
                enumerate(&g, QueryModel::Pssfbc(pro), &cfg).bicliques.len(),
                enumerate(&g, QueryModel::Pbsfbc(pro), &cfg).bicliques.len(),
            );
            let want = (
                k.min(totals.0),
                k.min(totals.1),
                k.min(totals.2),
                k.min(totals.3),
            );
            assert_eq!(got, want, "threads {threads} k {k}");
        }
    }
}

/// A global *node* budget is shared: emission under `Budget::nodes(K)`
/// is bounded by `K + threads` (each worker can overrun by at most
/// its one failing tick), never by `threads × K` as before the fix.
#[test]
fn node_budget_is_not_multiplied_by_thread_count() {
    let g = medium_graph(7);
    let params = FairParams::unchecked(1, 0, 4);
    let k = 40u64;
    let serial = enumerate(
        &g,
        QueryModel::Ssfbc(params),
        &RunConfig {
            budget: Budget::nodes(k),
            ..RunConfig::default()
        },
    );
    assert!(serial.stats.aborted, "node budget must bite serially");
    for threads in [2usize, 4, 8] {
        let cfg = RunConfig {
            threads,
            budget: Budget::nodes(k),
            ..RunConfig::default()
        };
        let par = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
        assert!(par.stats.aborted, "threads {threads}");
        assert!(
            par.stats.nodes <= k + threads as u64,
            "threads {threads}: {} walk ticks for a global cap of {k}",
            par.stats.nodes
        );
        assert!(
            par.stats.emitted <= k + threads as u64,
            "threads {threads}: {} emissions cannot exceed the shared \
             expansion budget's overrun bound",
            par.stats.emitted
        );
        // Budget-hit results are always a subset of the full set
        // (serial unlimited run; the graph exceeds the oracle's cap).
        let full: BTreeSet<Biclique> =
            enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
                .bicliques
                .into_iter()
                .collect();
        for bc in &par.bicliques {
            assert!(full.contains(bc), "threads {threads}: {bc} not a result");
        }
    }
}

// ---------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------

/// Sorted-output mode is byte-identical across thread counts, and
/// identical to the sorted serial run.
#[test]
fn sorted_output_is_byte_identical_across_thread_counts() {
    let g = medium_graph(11);
    let params = FairParams::unchecked(2, 1, 1);
    let serial = enumerate(
        &g,
        QueryModel::Ssfbc(params),
        &RunConfig {
            sorted: true,
            ..RunConfig::default()
        },
    );
    assert!(!serial.bicliques.is_empty());
    let mut serial_bytes = Vec::new();
    fair_biclique::results::write_tsv(&serial.bicliques, &mut serial_bytes).unwrap();
    for threads in THREADS {
        let par = enumerate(&g, QueryModel::Ssfbc(params), &par_cfg(threads));
        let mut bytes = Vec::new();
        fair_biclique::results::write_tsv(&par.bicliques, &mut bytes).unwrap();
        assert_eq!(bytes, serial_bytes, "threads {threads}: bytes differ");
    }
}

/// Parallel output passes the definition-level validity checkers on a
/// graph too large for the brute-force oracles.
#[test]
fn parallel_output_is_valid_on_medium_graphs() {
    let g = medium_graph(3);
    let params = FairParams::unchecked(2, 2, 1);
    let ss = enumerate(&g, QueryModel::Ssfbc(params), &par_cfg(4));
    assert!(!ss.bicliques.is_empty());
    for bc in &ss.bicliques {
        assert_valid_ssfbc(&g, bc, params);
    }
    let params_bi = FairParams::unchecked(1, 1, 1);
    let bs = enumerate(&g, QueryModel::Bsfbc(params_bi), &par_cfg(4));
    for bc in &bs.bicliques {
        assert_valid_bsfbc(&g, bc, params_bi);
    }
}

// ---------------------------------------------------------------
// Degenerate configurations.
// ---------------------------------------------------------------

#[test]
fn empty_graph_on_many_threads() {
    let g = GraphBuilder::new(2, 2).build().unwrap();
    let params = FairParams::unchecked(1, 1, 1);
    for threads in [1usize, 4, 16] {
        let r = enumerate(&g, QueryModel::Ssfbc(params), &par_cfg(threads));
        assert!(r.bicliques.is_empty(), "threads {threads}");
        assert!(!r.stats.aborted);
        assert_eq!(r.threads, threads);
        let best = maximum_of(
            &g,
            QueryModel::Ssfbc(params),
            SizeMetric::Vertices,
            &RunConfig {
                threads,
                ..RunConfig::default()
            },
        );
        assert!(best.is_none());
    }
}

/// A complete bipartite block has a single top-level branch (every
/// other root candidate is absorbed into it), so workers beyond the
/// first find an empty, closed task channel and must exit cleanly.
#[test]
fn single_branch_graph_and_more_threads_than_branches() {
    let mut b = GraphBuilder::new(2, 2);
    for u in 0..3 {
        for v in 0..4 {
            b.add_edge(u, v);
        }
    }
    b.set_attrs_upper(&[0, 1, 0]);
    b.set_attrs_lower(&[0, 0, 1, 1]);
    let g = b.build().unwrap();
    let params = FairParams::unchecked(2, 1, 1);
    let want = oracle(&g, QueryModel::Ssfbc(params));
    assert_eq!(want.len(), 1, "the block is the unique SSFBC");
    for threads in [1usize, 2, 16] {
        let r = enumerate(&g, QueryModel::Ssfbc(params), &par_cfg(threads));
        let got: BTreeSet<Biclique> = r.bicliques.into_iter().collect();
        assert_eq!(got, want, "threads {threads}");
    }
}

/// Node budgets of 0 and 1: nothing explodes, the abort flag is set,
/// and the (possibly empty) output is a subset of the full set.
#[test]
fn tiny_node_budgets_across_thread_counts() {
    let g = medium_graph(2);
    let params = FairParams::unchecked(2, 1, 1);
    let full: BTreeSet<Biclique> = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
        .bicliques
        .into_iter()
        .collect();
    assert!(!full.is_empty());
    for budget_nodes in [0u64, 1] {
        for threads in THREADS {
            let cfg = RunConfig {
                threads,
                budget: Budget::nodes(budget_nodes),
                ..RunConfig::default()
            };
            let r = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
            assert!(r.stats.aborted, "nodes {budget_nodes} threads {threads}");
            for bc in &r.bicliques {
                assert!(full.contains(bc));
            }
        }
    }
}

/// Result budgets of 0 and 1 are exact at every thread count.
#[test]
fn tiny_result_budgets_across_thread_counts() {
    let g = medium_graph(2);
    let params = FairParams::unchecked(2, 1, 1);
    for (k, want) in [(0u64, 0usize), (1, 1)] {
        for threads in THREADS {
            let cfg = RunConfig {
                threads,
                budget: Budget::results(k),
                ..RunConfig::default()
            };
            let r = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
            assert_eq!(
                r.bicliques.len(),
                want,
                "result budget {k} threads {threads}"
            );
            assert!(r.stats.aborted);
        }
    }
}
