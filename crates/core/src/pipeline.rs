//! End-to-end drivers: pruning → enumeration → id remapping, one
//! public function per job, each taking the [`QueryModel`] as its
//! only model selector.
//!
//! * [`prune`] runs the model's prune cascade (`FCore` / `CFCore` for
//!   the single-side models, `BFCore` / `BCFCore` for the bi-side
//!   ones).
//! * [`enumerate`] collects a model's results with the paper's best
//!   pipeline: it prepares a [`PreparedQuery`] and executes it, the
//!   one execution path of the `++` miners (`FairBCEM++`,
//!   `BFairBCEM++` and the proportion enumerators).
//! * [`run`] streams a model's results into a caller's sink with any
//!   [`Algorithm`]. `FairBCEM++` runs that same prepared plan on the
//!   calling thread. The paper's comparison baselines (`NSF`,
//!   `FairBCEM`, and Algorithm 9 over them, `BNSF` / `BFairBCEM`;
//!   Figs. 2–5) run on the pruned graph the pipeline compacts for them,
//!   with results translated back to the caller's vertex ids.

use crate::bfairbcem::{bi_side_baseline, SsBaseline};
use crate::bfcore::bcfcore;
use crate::biclique::{Biclique, BicliqueSink, EnumStats, MappingSink};
use crate::cfcore::cfcore;
use crate::config::{Budget, BudgetClock, ParamError, PruneKind, RunConfig, StopReason, Substrate};
use crate::fairbcem::fairbcem;
use crate::fcore::{core_prune, no_prune, PruneOutcome, PruneStats};
use crate::naive::nsf;
use crate::obs::SpanRecorder;
use crate::prepared::{PreparedQuery, QueryModel};
use bigraph::BipartiteGraph;
use serde::{Deserialize, Serialize};

/// Which enumeration algorithm [`run`] uses. The model's side picks
/// the bi-side form: Algorithm 9 over the single-side algorithm
/// (`BNSF`, `BFairBCEM`, `BFairBCEM++`). The proportion models run
/// only `FairBCEM++`; they have no baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Algorithm {
    /// Naive baseline (`NSF`; `BNSF` bi-side).
    Nsf,
    /// Branch-and-bound (`FairBCEM`, Algorithm 5; `BFairBCEM` bi-side).
    FairBcem,
    /// Combinatorial (`FairBCEM++`, Algorithm 6; `BFairBCEM++`
    /// bi-side) — the paper's best.
    #[default]
    FairBcemPP,
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

/// Run the prune cascade of `kind` for `model`'s side: `FCore` /
/// `CFCore` for the single-side models, `BFCore` / `BCFCore` for the
/// bi-side ones.
pub fn prune(g: &BipartiteGraph, model: QueryModel, kind: PruneKind) -> PruneOutcome {
    let clock = Budget::UNLIMITED.start();
    cascade(g, model, kind, &clock, &mut SpanRecorder::disabled())
        .expect("an unlimited budget never interrupts")
}

/// The prune cascade behind [`prune`]. It probes `clock` at its stage
/// boundaries and, counter-gated, inside the peel loops, aborting with
/// the interrupting [`StopReason`]; `rec` attributes wall time to the
/// stages (a disabled recorder records nothing).
pub(crate) fn cascade(
    g: &BipartiteGraph,
    model: QueryModel,
    kind: PruneKind,
    clock: &BudgetClock,
    rec: &mut SpanRecorder,
) -> Result<PruneOutcome, StopReason> {
    let params = model.base();
    let (alpha, beta) = (params.alpha, params.beta);
    match (kind, model.is_bi_side()) {
        (PruneKind::None, _) => Ok(no_prune(g)),
        (PruneKind::FCore, bi) => rec.timed("core-peel", || core_prune(g, alpha, beta, bi, clock)),
        (PruneKind::Colorful, false) => cfcore(g, params, clock, rec),
        (PruneKind::Colorful, true) => bcfcore(g, params, clock, rec),
    }
}

/// Streaming enumeration on the calling thread: prune for `model`,
/// enumerate with `algo`, emit results (original ids) into `sink`.
/// `FairBCEM++` runs the prepared path ([`PreparedQuery`]); for
/// per-worker sinks at any thread count call
/// [`PreparedQuery::stream`] directly.
///
/// Fails with [`ParamError::ProportionBaseline`] for a proportion
/// model with a baseline `algo`.
pub fn run(
    g: &BipartiteGraph,
    model: QueryModel,
    algo: Algorithm,
    cfg: &RunConfig,
    sink: &mut dyn BicliqueSink,
) -> Result<(PruneStats, EnumStats), ParamError> {
    let (walk, bi_substrate): (SsBaseline, Substrate) = match algo {
        Algorithm::FairBcemPP => {
            let prepared = PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate);
            let (_, stats) = prepared.stream_in_thread(cfg, sink);
            return Ok((*prepared.prune_stats(), stats));
        }
        // The naive baseline stays on the sorted-vec substrate (it is
        // the reference the substrate runs are differentially tested
        // against).
        Algorithm::Nsf => (nsf, Substrate::SortedVec),
        Algorithm::FairBcem => (fairbcem, cfg.substrate),
    };
    if model.theta().is_some() {
        return Err(ParamError::ProportionBaseline);
    }
    let params = model.base();
    let pruned = prune(g, model, cfg.prune);
    let sub = &pruned.sub;
    let mut mapped = MappingSink::new(&sub.upper_to_parent, &sub.lower_to_parent, sink);
    let (order, budget) = (cfg.order, cfg.budget.clone());
    let stats = if model.is_bi_side() {
        bi_side_baseline(
            &sub.graph,
            params,
            walk,
            order,
            budget,
            bi_substrate,
            &mut mapped,
        )
    } else {
        walk(&sub.graph, params, order, budget.start(), &mut mapped)
    };
    Ok((pruned.stats, stats))
}

/// Enumerate and collect all results of `model` with the paper's best
/// pipeline (`CFCore` + `FairBCEM++` or its bi-side / proportion form
/// by default). `cfg.threads > 1` runs on the parallel engine
/// ([`crate::parallel`]). This is a one-shot use of the prepared-plan
/// layer ([`crate::prepared`]), so a cached plan in the query service
/// executes bit-identically to it.
pub fn enumerate(g: &BipartiteGraph, model: QueryModel, cfg: &RunConfig) -> RunReport {
    PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate).execute(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{CollectSink, CountSink};
    use crate::config::VertexOrder;
    use crate::config::{FairParams, ProParams};
    use crate::verify::oracle;
    use bigraph::generate::{plant_bicliques, random_uniform};
    use std::collections::BTreeSet;

    #[test]
    fn full_pipeline_matches_oracle_all_prunings() {
        for seed in 0..12u64 {
            let g = random_uniform(9, 10, 38, 2, 2, seed);
            let params = FairParams::unchecked(2, 1, 1);
            let model = QueryModel::Ssfbc(params);
            let want = oracle(&g, model);
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                for algo in [Algorithm::Nsf, Algorithm::FairBcem, Algorithm::FairBcemPP] {
                    let cfg = RunConfig {
                        prune,
                        ..RunConfig::default()
                    };
                    let mut sink = CollectSink::default();
                    run(&g, model, algo, &cfg, &mut sink).unwrap();
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
            let model = QueryModel::Bsfbc(params);
            let want = oracle(&g, model);
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                for algo in [Algorithm::Nsf, Algorithm::FairBcem, Algorithm::FairBcemPP] {
                    let cfg = RunConfig {
                        prune,
                        ..RunConfig::default()
                    };
                    let mut sink = CollectSink::default();
                    run(&g, model, algo, &cfg, &mut sink).unwrap();
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
        let report = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
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
            let report = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
            res.push(report.bicliques.into_iter().collect::<BTreeSet<_>>());
        }
        assert_eq!(res[0], res[1]);
    }

    #[test]
    fn counting_sink_streams() {
        let g = random_uniform(12, 14, 70, 2, 2, 22);
        let model = QueryModel::Ssfbc(FairParams::unchecked(2, 1, 1));
        let cfg = RunConfig::default();
        let mut count = CountSink::default();
        let (_, stats) = run(&g, model, Algorithm::FairBcemPP, &cfg, &mut count).unwrap();
        let report = enumerate(&g, model, &cfg);
        assert_eq!(count.count as usize, report.bicliques.len());
        assert_eq!(stats.emitted, count.count);
    }

    #[test]
    fn pro_pipelines_run_end_to_end() {
        let g = random_uniform(10, 12, 50, 2, 2, 31);
        let pro = ProParams::new(2, 1, 2, 0.4).unwrap();
        let cfg = RunConfig::default();
        let ss = enumerate(&g, QueryModel::Pssfbc(pro), &cfg);
        let bs = enumerate(&g, QueryModel::Pbsfbc(pro), &cfg);
        // PBSFBC lower sides appear among PSSFBC lower sides.
        let ss_lowers: BTreeSet<_> = ss.bicliques.iter().map(|b| b.lower.clone()).collect();
        for b in &bs.bicliques {
            assert!(ss_lowers.contains(&b.lower));
        }
    }

    #[test]
    fn proportion_models_refuse_the_baselines() {
        let g = random_uniform(10, 12, 50, 2, 2, 31);
        let pro = ProParams::new(2, 1, 2, 0.4).unwrap();
        for model in [QueryModel::Pssfbc(pro), QueryModel::Pbsfbc(pro)] {
            for algo in [Algorithm::Nsf, Algorithm::FairBcem] {
                let mut sink = CountSink::default();
                let got = run(&g, model, algo, &RunConfig::default(), &mut sink);
                assert_eq!(got.unwrap_err(), ParamError::ProportionBaseline);
                assert_eq!(sink.count, 0, "{model} {algo:?} must not run");
            }
        }
    }
}
