//! Memory accounting for the paper's Exp-6 ("the memory costs of
//! different algorithms do not include the size of the graph").
//!
//! The dominant extra allocations are (a) the pruning stage's working
//! structures — most importantly the 2-hop graph and the per-vertex
//! `(attribute, color)` multiplicity tables of the colorful core — and
//! (b) the depth-first search state. [`measure`] reproduces the
//! paper's accounting for any model and algorithm: bytes beyond the
//! input graph itself.

use crate::bfairbcem::upper_rows;
use crate::config::{ParamError, PruneKind, RunConfig};
use crate::pipeline::{prune, run, Algorithm};
use crate::prepared::QueryModel;
use bigraph::candidate::CandidatePlan;
use bigraph::BipartiteGraph;
use serde::{Deserialize, Serialize};

/// Byte breakdown of one run (graph storage excluded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryReport {
    /// Pruned-subgraph copy produced by the pruning stage.
    pub pruned_graph_bytes: usize,
    /// 2-hop projection built by the colorful pruning: the largest
    /// of its stages, which project the peeled core, one fair side
    /// each (0 when pruning is not colorful).
    pub twohop_bytes: usize,
    /// Per-vertex `(attr, color)` multiplicity table of the ego
    /// colorful peel, the largest of the stages (0 when pruning is not
    /// colorful).
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
    /// additionally snapshot branch state where the root is split
    /// (copy-on-split); those snapshots are transient task payloads
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

/// Measure the memory overhead of running `model` with `algo` (see
/// [`crate::pipeline::run`], whose errors it returns).
///
/// Prunes once, takes the 2-hop and color-table bytes the cascade
/// built from its [`crate::fcore::PruneStats`], and runs `algo` on the
/// pruned core without pruning again: the walk, and so its search
/// state, is the one a pruning run of `algo` on `g` takes.
pub fn measure(
    g: &BipartiteGraph,
    model: QueryModel,
    algo: Algorithm,
    cfg: &RunConfig,
) -> Result<MemoryReport, ParamError> {
    let pruned = prune(g, model, cfg.prune);
    let core = &pruned.sub.graph;
    let unpruned = RunConfig {
        prune: PruneKind::None,
        ..cfg.clone()
    };
    let mut sink = crate::biclique::CountSink::default();
    let (_, stats) = run(core, model, algo, &unpruned, &mut sink)?;
    // The enumeration run builds the same rows internally; rebuild
    // them here to account the bytes they allocate. FairBCEM++ runs on
    // the substrate (bi-side chains build rows for both sides), and
    // BFairBCEM's upper-side expansion builds the upper rows only; the
    // single-side baselines and BNSF never build rows.
    let bi = model.is_bi_side();
    let bitset_rows_bytes = match (algo, bi) {
        (Algorithm::FairBcemPP, _) => CandidatePlan::build(core, cfg.substrate, bi).heap_bytes(),
        (Algorithm::FairBcem, true) => {
            upper_rows(core, cfg.substrate).map_or(0, |r| r.heap_bytes())
        }
        _ => 0,
    };
    Ok(MemoryReport {
        pruned_graph_bytes: core.heap_bytes(),
        twohop_bytes: pruned.stats.twohop_bytes,
        colorful_tables_bytes: pruned.stats.colorful_tables_bytes,
        bitset_rows_bytes,
        search_bytes: stats.peak_search_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairParams, Substrate};
    use bigraph::candidate::BitRows;
    use bigraph::generate::{plant_bicliques, random_uniform};
    use bigraph::twohop::construct_2hop;
    use bigraph::Side;

    #[test]
    fn reports_are_nonzero_and_consistent() {
        let base = random_uniform(40, 40, 200, 2, 2, 5);
        let g = plant_bicliques(&base, 2, 4, 6, 1.0, 6);
        let params = FairParams::unchecked(2, 2, 1);
        let cfg = RunConfig::default();
        let m = measure(&g, QueryModel::Ssfbc(params), Algorithm::FairBcemPP, &cfg).unwrap();
        assert!(m.pruned_graph_bytes > 0);
        assert!(m.total() >= m.pruned_graph_bytes);
        let mb = measure(&g, QueryModel::Bsfbc(params), Algorithm::FairBcemPP, &cfg).unwrap();
        assert!(mb.total() > 0);
    }

    #[test]
    fn bfairbcem_rows_are_the_upper_side_only() {
        let base = random_uniform(30, 30, 200, 2, 2, 5);
        let g = plant_bicliques(&base, 2, 4, 6, 1.0, 6);
        let model = QueryModel::Bsfbc(FairParams::unchecked(1, 1, 1));
        let cfg = RunConfig {
            substrate: Substrate::Bitset,
            ..RunConfig::default()
        };
        let m = measure(&g, model, Algorithm::FairBcem, &cfg).unwrap();
        let core = prune(&g, model, cfg.prune).sub.graph;
        let upper = BitRows::from_side(&core, Side::Upper).heap_bytes();
        assert!(upper > 0, "the pruned core must keep upper vertices");
        assert_eq!(m.bitset_rows_bytes, upper);
    }

    #[test]
    fn twohop_bytes_are_the_projection_of_the_peeled_core() {
        // The colorful stages project the core the fair-core peel
        // leaves, not the smaller core the colorful pruning ends with.
        let base = random_uniform(40, 40, 260, 2, 2, 3);
        let g = plant_bicliques(&base, 2, 4, 6, 1.0, 6);
        let params = FairParams::unchecked(2, 2, 1);
        let cfg = RunConfig::default();
        for model in [QueryModel::Ssfbc(params), QueryModel::Bsfbc(params)] {
            let bi = model.is_bi_side();
            let peeled = prune(&g, model, PruneKind::FCore).sub.graph;
            let last = prune(&g, model, PruneKind::Colorful).sub.graph;
            assert!(
                last.n_lower() < peeled.n_lower(),
                "{model}: the cores must differ"
            );
            let projected = construct_2hop(&peeled, Side::Lower, 2, bi).heap_bytes();
            assert_ne!(
                projected,
                construct_2hop(&last, Side::Lower, 2, bi).heap_bytes()
            );
            let m = measure(&g, model, Algorithm::FairBcemPP, &cfg).unwrap();
            // Bi-side, the upper stage projects the other side after
            // the lower stage; the report keeps the larger projection.
            if bi {
                assert!(m.twohop_bytes >= projected, "{model}");
            } else {
                assert_eq!(m.twohop_bytes, projected, "{model}");
            }
            assert!(m.colorful_tables_bytes > 0, "{model}");
            // Pruning once leaves the walk as a pruning run takes it.
            let mut sink = crate::biclique::CountSink::default();
            let (_, stats) = run(&g, model, Algorithm::FairBcemPP, &cfg, &mut sink).unwrap();
            assert_eq!(m.search_bytes, stats.peak_search_bytes, "{model}");
        }
    }

    #[test]
    fn no_colorful_cost_without_colorful_pruning() {
        let g = random_uniform(20, 20, 100, 2, 2, 7);
        let params = FairParams::unchecked(2, 1, 1);
        let cfg = RunConfig {
            prune: PruneKind::FCore,
            ..RunConfig::default()
        };
        let m = measure(&g, QueryModel::Ssfbc(params), Algorithm::FairBcem, &cfg).unwrap();
        assert_eq!(m.twohop_bytes, 0);
        assert_eq!(m.colorful_tables_bytes, 0);
    }
}
