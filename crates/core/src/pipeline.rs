//! End-to-end drivers: pruning → enumeration → id remapping.
//!
//! The `++` miners (`FairBCEM++`, `BFairBCEM++` and the proportion
//! enumerators) have one execution path, [`PreparedQuery`]: the
//! collected `enumerate_*` pipelines here prepare a plan and execute
//! it, and the `++` arms of the streaming [`run_ssfbc`] / [`run_bsfbc`]
//! run the same plan on the calling thread. The paper's comparison
//! baselines (`NSF`, `FairBCEM`, `BNSF`, `BFairBCEM`; Figs. 2–5) stay
//! behind those two streaming drivers, on the pruned graph the
//! pipeline compacts for them, with results translated back to the
//! caller's vertex ids.

use crate::bfairbcem::bfairbcem_on_pruned;
use crate::bfcore::{bcfcore, bfcore};
use crate::biclique::{Biclique, BicliqueSink, EnumStats, MappingSink};
use crate::cfcore::cfcore;
use crate::config::{Budget, BudgetClock, FairParams, ProParams, PruneKind, RunConfig, StopReason};
use crate::fairbcem::fairbcem_on_pruned;
use crate::fcore::{compact, fcore, no_prune, PruneOutcome, PruneStats};
use crate::naive::{bnsf_on_pruned, nsf_on_pruned};
use crate::obs::SpanRecorder;
use crate::prepared::{PreparedQuery, QueryModel};
use bigraph::BipartiteGraph;
use serde::{Deserialize, Serialize};

/// Which single-side enumeration algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SsAlgorithm {
    /// Naive baseline (`NSF`).
    Nsf,
    /// Branch-and-bound (`FairBCEM`, Algorithm 5).
    FairBcem,
    /// Combinatorial (`FairBCEM++`, Algorithm 6) — the paper's best.
    #[default]
    FairBcemPP,
}

/// Which bi-side enumeration algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BiAlgorithm {
    /// Naive baseline (`BNSF`).
    Bnsf,
    /// `BFairBCEM` (Algorithm 9 over `FairBCEM`).
    BFairBcem,
    /// `BFairBCEM++` (Algorithm 9 over `FairBCEM++`) — the paper's best.
    #[default]
    BFairBcemPP,
}

/// Result of a collected enumeration run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The fair bicliques, in the original graph's vertex ids.
    /// Discovery order, unless the run's [`RunConfig::sorted`] put
    /// them in [`crate::results::canonical_order`].
    pub bicliques: Vec<Biclique>,
    /// Pruning statistics.
    pub prune: PruneStats,
    /// Search statistics (parallel runs merge per-worker stats; see
    /// [`crate::parallel`]).
    pub stats: EnumStats,
    /// Worker threads the run was configured with (1 = serial; the
    /// engine may clamp the spawned count to the available work).
    pub threads: usize,
    /// Which budget limit cut the run short (`None` when it ran to
    /// completion): node cap, deadline, result cap, or cooperative
    /// cancellation. Equal to `stats.stop`.
    pub truncated_by: Option<crate::config::StopReason>,
    /// End-to-end wall-clock time of this run (preparation —
    /// possibly amortized from a cached plan — plus enumeration).
    pub elapsed: std::time::Duration,
    /// Wall-clock time of the preparation phases: pruning (including
    /// the colorful core's 2-hop/coloring work) and candidate-plan
    /// construction. When the run executed a cached
    /// [`crate::prepared::PreparedQuery`], this is the *original*
    /// (amortized) preparation cost, not time spent by this call.
    pub prune_elapsed: std::time::Duration,
    /// Wall-clock time of the enumeration phase alone.
    pub enumerate_elapsed: std::time::Duration,
}

/// Run the pruning stage configured for a single-side problem
/// (`FCore` or `CFCore`).
pub fn prune_single_side(g: &BipartiteGraph, params: FairParams, kind: PruneKind) -> PruneOutcome {
    prune_unlimited(g, params, kind, false)
}

/// Run the pruning stage configured for a bi-side problem
/// (`FCore` maps to `BFCore`, `Colorful` to `BCFCore`).
pub fn prune_bi_side(g: &BipartiteGraph, params: FairParams, kind: PruneKind) -> PruneOutcome {
    prune_unlimited(g, params, kind, true)
}

fn prune_unlimited(
    g: &BipartiteGraph,
    params: FairParams,
    kind: PruneKind,
    bi: bool,
) -> PruneOutcome {
    let clock = Budget::UNLIMITED.start();
    prune(g, params, kind, bi, &clock, &mut SpanRecorder::disabled())
        .expect("an unlimited budget never interrupts")
}

/// The prune cascade of `kind` for the single-side (`bi = false`) or
/// bi-side models. The cascade probes `clock` at its stage boundaries
/// and, counter-gated, inside the peel loops, aborting with the
/// interrupting [`StopReason`]; `rec` attributes wall time to the
/// stages (a disabled recorder records nothing).
pub(crate) fn prune(
    g: &BipartiteGraph,
    params: FairParams,
    kind: PruneKind,
    bi: bool,
    clock: &BudgetClock,
    rec: &mut SpanRecorder,
) -> Result<PruneOutcome, StopReason> {
    let (alpha, beta) = (params.alpha, params.beta);
    match (kind, bi) {
        (PruneKind::None, _) => Ok(no_prune(g)),
        (PruneKind::FCore, false) => rec.timed("core-peel", || {
            fcore(g, alpha, beta, clock).map(|m| compact(g, m))
        }),
        (PruneKind::FCore, true) => rec.timed("core-peel", || {
            bfcore(g, alpha, beta, clock).map(|m| compact(g, m))
        }),
        (PruneKind::Colorful, false) => cfcore(g, params, clock, rec),
        (PruneKind::Colorful, true) => bcfcore(g, params, clock, rec),
    }
}

/// Streaming single-side enumeration on the calling thread: prune,
/// enumerate with `algo`, emit results (original ids) into `sink`.
/// `FairBCEM++` runs the prepared path ([`PreparedQuery`]); for
/// per-worker sinks at any thread count call
/// [`PreparedQuery::stream`] directly.
pub fn run_ssfbc(
    g: &BipartiteGraph,
    params: FairParams,
    algo: SsAlgorithm,
    cfg: &RunConfig,
    sink: &mut dyn BicliqueSink,
) -> (PruneStats, EnumStats) {
    let baseline = match algo {
        SsAlgorithm::Nsf => nsf_on_pruned,
        SsAlgorithm::FairBcem => fairbcem_on_pruned,
        SsAlgorithm::FairBcemPP => return run_prepared(g, QueryModel::Ssfbc(params), cfg, sink),
    };
    let pruned = prune_single_side(g, params, cfg.prune);
    let sub = &pruned.sub;
    let mut mapped = MappingSink::new(&sub.upper_to_parent, &sub.lower_to_parent, sink);
    let stats = baseline(
        &sub.graph,
        params,
        cfg.order,
        cfg.budget.clone(),
        &mut mapped,
    );
    (pruned.stats, stats)
}

/// Streaming bi-side enumeration on the calling thread (see
/// [`run_ssfbc`]; `BFairBCEM++` runs the prepared path).
pub fn run_bsfbc(
    g: &BipartiteGraph,
    params: FairParams,
    algo: BiAlgorithm,
    cfg: &RunConfig,
    sink: &mut dyn BicliqueSink,
) -> (PruneStats, EnumStats) {
    if algo == BiAlgorithm::BFairBcemPP {
        return run_prepared(g, QueryModel::Bsfbc(params), cfg, sink);
    }
    let pruned = prune_bi_side(g, params, cfg.prune);
    let sub = &pruned.sub;
    let mut mapped = MappingSink::new(&sub.upper_to_parent, &sub.lower_to_parent, sink);
    let (order, budget) = (cfg.order, cfg.budget.clone());
    let stats = if algo == BiAlgorithm::Bnsf {
        bnsf_on_pruned(&sub.graph, params, order, budget, &mut mapped)
    } else {
        bfairbcem_on_pruned(
            &sub.graph,
            params,
            order,
            budget,
            cfg.substrate,
            &mut mapped,
        )
    };
    (pruned.stats, stats)
}

/// The `++` arm of the streaming drivers: prepare, then run the one
/// worker on the calling thread.
fn run_prepared(
    g: &BipartiteGraph,
    model: QueryModel,
    cfg: &RunConfig,
    sink: &mut dyn BicliqueSink,
) -> (PruneStats, EnumStats) {
    let prepared = PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate);
    let (_, stats) = prepared.stream_in_thread(cfg, sink);
    (*prepared.prune_stats(), stats)
}

/// Prepare-then-execute: the collected pipelines are one-shot uses of
/// the prepared-plan layer ([`crate::prepared`]), so a cached plan in
/// the query service executes bit-identically to these.
fn enumerate(g: &BipartiteGraph, model: QueryModel, cfg: &RunConfig) -> RunReport {
    PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate).execute(cfg)
}

/// Enumerate and collect all single-side fair bicliques (Definition 3)
/// with the paper's best pipeline (`CFCore` + `FairBCEM++` by default).
/// `cfg.threads > 1` runs on the parallel engine ([`crate::parallel`]).
pub fn enumerate_ssfbc(g: &BipartiteGraph, params: FairParams, cfg: &RunConfig) -> RunReport {
    enumerate(g, QueryModel::Ssfbc(params), cfg)
}

/// Enumerate and collect all bi-side fair bicliques (Definition 4).
/// `cfg.threads > 1` runs on the parallel engine.
pub fn enumerate_bsfbc(g: &BipartiteGraph, params: FairParams, cfg: &RunConfig) -> RunReport {
    enumerate(g, QueryModel::Bsfbc(params), cfg)
}

/// Enumerate and collect all proportion single-side fair bicliques
/// (Definition 5). `cfg.threads > 1` runs on the parallel engine.
pub fn enumerate_pssfbc(g: &BipartiteGraph, pro: ProParams, cfg: &RunConfig) -> RunReport {
    enumerate(g, QueryModel::Pssfbc(pro), cfg)
}

/// Enumerate and collect all proportion bi-side fair bicliques
/// (Definition 6). `cfg.threads > 1` runs on the parallel engine.
pub fn enumerate_pbsfbc(g: &BipartiteGraph, pro: ProParams, cfg: &RunConfig) -> RunReport {
    enumerate(g, QueryModel::Pbsfbc(pro), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{CollectSink, CountSink};
    use crate::config::VertexOrder;
    use crate::verify::{oracle_bsfbc, oracle_ssfbc};
    use bigraph::generate::{plant_bicliques, random_uniform};
    use std::collections::BTreeSet;

    #[test]
    fn full_pipeline_matches_oracle_all_prunings() {
        for seed in 0..12u64 {
            let g = random_uniform(9, 10, 38, 2, 2, seed);
            let params = FairParams::unchecked(2, 1, 1);
            let want = oracle_ssfbc(&g, params);
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                for algo in [
                    SsAlgorithm::Nsf,
                    SsAlgorithm::FairBcem,
                    SsAlgorithm::FairBcemPP,
                ] {
                    let cfg = RunConfig {
                        prune,
                        ..RunConfig::default()
                    };
                    let mut sink = CollectSink::default();
                    run_ssfbc(&g, params, algo, &cfg, &mut sink);
                    let got: BTreeSet<_> = sink.bicliques.into_iter().collect();
                    assert_eq!(got, want, "seed {seed} prune {prune:?} algo {algo:?}");
                }
            }
        }
    }

    #[test]
    fn bi_pipeline_matches_oracle_all_prunings() {
        for seed in 0..8u64 {
            let g = random_uniform(7, 8, 28, 2, 2, seed);
            let params = FairParams::unchecked(1, 1, 1);
            let want = oracle_bsfbc(&g, params);
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                for algo in [
                    BiAlgorithm::Bnsf,
                    BiAlgorithm::BFairBcem,
                    BiAlgorithm::BFairBcemPP,
                ] {
                    let cfg = RunConfig {
                        prune,
                        ..RunConfig::default()
                    };
                    let mut sink = CollectSink::default();
                    run_bsfbc(&g, params, algo, &cfg, &mut sink);
                    let got: BTreeSet<_> = sink.bicliques.into_iter().collect();
                    assert_eq!(got, want, "seed {seed} prune {prune:?} algo {algo:?}");
                }
            }
        }
    }

    #[test]
    fn report_ids_are_original() {
        // Plant a block away from id 0 so pruning must remap.
        let base = random_uniform(30, 30, 60, 2, 2, 3);
        let g = plant_bicliques(&base, 1, 5, 8, 1.0, 9);
        let params = FairParams::unchecked(2, 2, 2);
        let report = enumerate_ssfbc(&g, params, &RunConfig::default());
        for bc in &report.bicliques {
            for &u in &bc.upper {
                for &v in &bc.lower {
                    assert!(
                        g.has_edge(u, v),
                        "result must be a biclique in the ORIGINAL graph"
                    );
                }
            }
        }
        assert!(report.prune.upper_after <= report.prune.upper_before);
    }

    #[test]
    fn orderings_agree_on_results() {
        let g = random_uniform(12, 14, 70, 2, 2, 21);
        let params = FairParams::unchecked(2, 1, 1);
        let mut res = Vec::new();
        for order in [VertexOrder::IdAsc, VertexOrder::DegreeDesc] {
            let cfg = RunConfig {
                order,
                ..RunConfig::default()
            };
            let report = enumerate_ssfbc(&g, params, &cfg);
            res.push(report.bicliques.into_iter().collect::<BTreeSet<_>>());
        }
        assert_eq!(res[0], res[1]);
    }

    #[test]
    fn counting_sink_streams() {
        let g = random_uniform(12, 14, 70, 2, 2, 22);
        let params = FairParams::unchecked(2, 1, 1);
        let mut count = CountSink::default();
        let (_, stats) = run_ssfbc(
            &g,
            params,
            SsAlgorithm::FairBcemPP,
            &RunConfig::default(),
            &mut count,
        );
        let report = enumerate_ssfbc(&g, params, &RunConfig::default());
        assert_eq!(count.count as usize, report.bicliques.len());
        assert_eq!(stats.emitted, count.count);
    }

    #[test]
    fn pro_pipelines_run_end_to_end() {
        let g = random_uniform(10, 12, 50, 2, 2, 31);
        let pro = ProParams::new(2, 1, 2, 0.4).unwrap();
        let ss = enumerate_pssfbc(&g, pro, &RunConfig::default());
        let bs = enumerate_pbsfbc(&g, pro, &RunConfig::default());
        // PBSFBC lower sides appear among PSSFBC lower sides.
        let ss_lowers: BTreeSet<_> = ss.bicliques.iter().map(|b| b.lower.clone()).collect();
        for b in &bs.bicliques {
            assert!(ss_lowers.contains(&b.lower));
        }
    }
}
