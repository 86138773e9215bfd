//! Memory accounting for the paper's Exp-6 ("the memory costs of
//! different algorithms do not include the size of the graph").
//!
//! The dominant extra allocations are (a) the pruning stage's working
//! structures — most importantly the 2-hop graph and the per-vertex
//! `(attribute, color)` multiplicity tables of the colorful core — and
//! (b) the depth-first search state. [`measure_ssfbc`] /
//! [`measure_bsfbc`] reproduce the paper's accounting: bytes beyond the
//! input graph itself.

use crate::config::{FairParams, PruneKind, RunConfig};
use crate::pipeline::{run_bsfbc, run_ssfbc, BiAlgorithm, SsAlgorithm};
use bigraph::candidate::CandidatePlan;
use bigraph::coloring::greedy_color_by_degree;
use bigraph::twohop::{construct_2hop, construct_2hop_biside};
use bigraph::{BipartiteGraph, Side};
use serde::{Deserialize, Serialize};

/// Byte breakdown of one run (graph storage excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Pruned-subgraph copy produced by the pruning stage.
    pub pruned_graph_bytes: usize,
    /// 2-hop projection used by the colorful pruning (0 when pruning
    /// is not colorful).
    pub twohop_bytes: usize,
    /// Per-vertex `(attr, color)` multiplicity tables of the ego
    /// colorful core (0 when pruning is not colorful).
    pub colorful_tables_bytes: usize,
    /// Bitset adjacency rows built over the pruned vertex set (0 on
    /// the sorted-vec substrate; see
    /// [`crate::config::RunConfig::substrate`]).
    pub bitset_rows_bytes: usize,
    /// Peak depth-first search state: the per-level `(L, P, Q)`
    /// branch sets live at the deepest point of the walk. The walkers
    /// keep this state in pooled, undo-restored frames (recycled
    /// across siblings, so the steady-state walk allocates nothing),
    /// but the *accounted* bytes are the logical per-level set sizes —
    /// the same formula as the previous clone-per-branch walkers, so
    /// Exp-6 numbers stay comparable across versions. Parallel runs
    /// additionally snapshot branch state at task-split points
    /// (copy-on-steal); those snapshots are transient task payloads
    /// and are not part of this peak.
    pub search_bytes: usize,
}

impl MemoryReport {
    /// Total accounted bytes.
    pub fn total(&self) -> usize {
        self.pruned_graph_bytes
            + self.twohop_bytes
            + self.colorful_tables_bytes
            + self.bitset_rows_bytes
            + self.search_bytes
    }
}

fn colorful_cost(g: &BipartiteGraph, alpha: u32, bi: bool) -> (usize, usize) {
    let h = if bi {
        construct_2hop_biside(g, Side::Lower, alpha as usize)
    } else {
        construct_2hop(g, Side::Lower, alpha as usize)
    };
    let coloring = greedy_color_by_degree(&h);
    let n_attrs = (h.n_attr_values() as usize).max(1);
    let tables = h.n() * n_attrs * (coloring.n_colors as usize).max(1) * std::mem::size_of::<u32>();
    (h.heap_bytes(), tables)
}

/// Measure the single-side pipeline's memory overhead.
pub fn measure_ssfbc(
    g: &BipartiteGraph,
    params: FairParams,
    algo: SsAlgorithm,
    cfg: &RunConfig,
) -> MemoryReport {
    let pruned = crate::pipeline::prune_single_side(g, params, cfg.prune);
    let (twohop_bytes, colorful_tables_bytes) = if cfg.prune == PruneKind::Colorful {
        colorful_cost(&pruned.sub.graph, params.alpha, false)
    } else {
        (0, 0)
    };
    // The enumeration run builds the same plan internally; rebuild it
    // here to account the row bytes it allocates (only FairBCEM++
    // runs on the substrate; the baselines never build rows).
    let bitset_rows_bytes = if algo == SsAlgorithm::FairBcemPP {
        CandidatePlan::build(&pruned.sub.graph, cfg.substrate, false).heap_bytes()
    } else {
        0
    };
    let mut sink = crate::biclique::CountSink::default();
    let (_, stats) = run_ssfbc(g, params, algo, cfg, &mut sink);
    MemoryReport {
        pruned_graph_bytes: pruned.sub.graph.heap_bytes(),
        twohop_bytes,
        colorful_tables_bytes,
        bitset_rows_bytes,
        search_bytes: stats.peak_search_bytes,
    }
}

/// Measure the bi-side pipeline's memory overhead.
pub fn measure_bsfbc(
    g: &BipartiteGraph,
    params: FairParams,
    algo: BiAlgorithm,
    cfg: &RunConfig,
) -> MemoryReport {
    let pruned = crate::pipeline::prune_bi_side(g, params, cfg.prune);
    let (twohop_bytes, colorful_tables_bytes) = if cfg.prune == PruneKind::Colorful {
        colorful_cost(&pruned.sub.graph, params.alpha, true)
    } else {
        (0, 0)
    };
    // Bi-side chains build rows for both sides (the upper-side
    // expansion intersects upper adjacency). BNSF never builds rows.
    let bitset_rows_bytes = if algo == BiAlgorithm::Bnsf {
        0
    } else {
        CandidatePlan::build(&pruned.sub.graph, cfg.substrate, true).heap_bytes()
    };
    let mut sink = crate::biclique::CountSink::default();
    let (_, stats) = run_bsfbc(g, params, algo, cfg, &mut sink);
    MemoryReport {
        pruned_graph_bytes: pruned.sub.graph.heap_bytes(),
        twohop_bytes,
        colorful_tables_bytes,
        bitset_rows_bytes,
        search_bytes: stats.peak_search_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::generate::{plant_bicliques, random_uniform};

    #[test]
    fn reports_are_nonzero_and_consistent() {
        let base = random_uniform(40, 40, 200, 2, 2, 5);
        let g = plant_bicliques(&base, 2, 4, 6, 1.0, 6);
        let params = FairParams::unchecked(2, 2, 1);
        let cfg = RunConfig::default();
        let m = measure_ssfbc(&g, params, SsAlgorithm::FairBcemPP, &cfg);
        assert!(m.pruned_graph_bytes > 0);
        assert!(m.total() >= m.pruned_graph_bytes);
        let mb = measure_bsfbc(&g, params, BiAlgorithm::BFairBcemPP, &cfg);
        assert!(mb.total() > 0);
    }

    #[test]
    fn no_colorful_cost_without_colorful_pruning() {
        let g = random_uniform(20, 20, 100, 2, 2, 7);
        let params = FairParams::unchecked(2, 1, 1);
        let cfg = RunConfig {
            prune: PruneKind::FCore,
            ..RunConfig::default()
        };
        let m = measure_ssfbc(&g, params, SsAlgorithm::FairBcem, &cfg);
        assert_eq!(m.twohop_bytes, 0);
        assert_eq!(m.colorful_tables_bytes, 0);
    }
}
