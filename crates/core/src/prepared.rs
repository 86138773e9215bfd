//! Prepared queries: pay pruning + candidate-plan construction once,
//! enumerate many times — and the one execution path of every `++`
//! miner.
//!
//! Every query runs three phases: (1) FCore/CFCore pruning (which
//! internally builds the colorful 2-hop structure), (2)
//! [`CandidatePlan`] resolution (substrate choice + bitset-row
//! construction on the pruned core), and (3) enumeration. A
//! [`PreparedQuery`] captures the reusable state of (1) and (2) — the
//! compacted pruned core with its id maps back to the original graph,
//! and the resolved plan (rows shared by reference across workers) —
//! so a resident query service can amortize them across repeated
//! queries, each run with its own budget/deadline/cancellation.
//!
//! Phase (3) has exactly one implementation, [`PreparedQuery::stream`]:
//! the walk of [`crate::parallel`] (in-thread at `threads ≤ 1`,
//! split at the root across workers above) visits the maximal bicliques, and one worker
//! per thread expands each into the model's results (the `Expansion`
//! built from the [`QueryModel`]) and hands them, translated to
//! original ids, to that worker's own sink. Collecting
//! ([`PreparedQuery::execute`]), counting ([`PreparedQuery::count`]),
//! maximum search ([`PreparedQuery::maximum`]) and the CLI's top-k are
//! sink choices on top of it; the one-shot pipelines in
//! [`crate::pipeline`] prepare and then run this same path, so every
//! caller — CLI, service, benches, tests — gets bit-identical results.

use crate::bfairbcem::{BiChainSink, BiSideExpander};
use crate::biclique::{Biclique, BicliqueSink, CollectSink, CountSink, EnumStats, MappingSink};
use crate::config::{
    Budget, BudgetClock, FairParams, ProParams, PruneKind, RunConfig, StopReason, Substrate,
};
use crate::fairbcem_pp::SsExpander;
use crate::fcore::{PruneOutcome, PruneStats};
use crate::maximum::{merge_max, MaxSink, SizeMetric};
use crate::mbea::RBound;
use crate::obs::SpanRecorder;
use crate::parallel::{Walk, WalkVisitor};
use crate::pipeline::RunReport;
use bigraph::candidate::CandidatePlan;
use bigraph::{BipartiteGraph, Side, VertexId};
use std::time::{Duration, Instant};

/// Which fair-biclique model a query runs, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryModel {
    /// Single-side fair bicliques (Definition 3), `FairBCEM++`.
    Ssfbc(FairParams),
    /// Bi-side fair bicliques (Definition 4), `BFairBCEM++`.
    Bsfbc(FairParams),
    /// Proportion single-side (Definition 5), `FairBCEMPro++`: the
    /// `FairBCEM++` expansion with the ratio threshold `θ`.
    Pssfbc(ProParams),
    /// Proportion bi-side (Definition 6), `BFairBCEMPro++`: the
    /// `BFairBCEM++` expansion with the ratio threshold `θ`.
    Pbsfbc(ProParams),
}

impl QueryModel {
    /// Canonical model name (`SSFBC` / `BSFBC` / `PSSFBC` / `PBSFBC`).
    pub fn name(&self) -> &'static str {
        match self {
            QueryModel::Ssfbc(_) => "SSFBC",
            QueryModel::Bsfbc(_) => "BSFBC",
            QueryModel::Pssfbc(_) => "PSSFBC",
            QueryModel::Pbsfbc(_) => "PBSFBC",
        }
    }

    /// True for the bi-side models (both sides fairness-constrained).
    pub fn is_bi_side(&self) -> bool {
        matches!(self, QueryModel::Bsfbc(_) | QueryModel::Pbsfbc(_))
    }

    /// The absolute thresholds `(α, β, δ)` of the model.
    pub fn base(&self) -> FairParams {
        match self {
            QueryModel::Ssfbc(p) | QueryModel::Bsfbc(p) => *p,
            QueryModel::Pssfbc(p) | QueryModel::Pbsfbc(p) => p.base,
        }
    }

    /// The ratio threshold `θ` of the proportion models. `Some` selects
    /// the proportion-aware expansion (`CombinationPro`) even at
    /// `θ = 0`, so a model's emission order depends only on the model.
    pub fn theta(&self) -> Option<f64> {
        match self {
            QueryModel::Pssfbc(p) | QueryModel::Pbsfbc(p) => Some(p.theta),
            _ => None,
        }
    }
}

impl std::fmt::Display for QueryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The reusable, immutable result of the preparation phases of one
/// `(graph, model, params, prune, substrate)` combination: the pruned
/// core (with id maps), and the resolved candidate plan. Safe to share
/// across threads (`execute` takes `&self`), which is what the
/// service's plan cache does via `Arc<PreparedQuery>`.
pub struct PreparedQuery {
    model: QueryModel,
    pruned: PruneOutcome,
    plan: CandidatePlan,
    prune_elapsed: Duration,
}

impl PreparedQuery {
    /// Run the preparation phases: prune `g` for `model` (single- or
    /// bi-side cores as appropriate), then resolve `substrate` against
    /// the pruned core (bi-side models also get upper-side rows).
    pub fn prepare(
        g: &BipartiteGraph,
        model: QueryModel,
        prune: PruneKind,
        substrate: Substrate,
    ) -> PreparedQuery {
        Self::prepare_rec(
            g,
            model,
            prune,
            substrate,
            &Budget::UNLIMITED,
            &mut SpanRecorder::disabled(),
        )
        .expect("an unlimited budget never interrupts")
    }

    /// [`PreparedQuery::prepare`] bounded by `budget` and traced into
    /// `rec`.
    ///
    /// Only the budget's `max_time` and `cancel` apply here (node and
    /// result caps bound enumeration only). The prune cascade probes
    /// them at its stage boundaries and, counter-gated, inside the peel
    /// loops, and returns the interrupting [`StopReason`] instead of
    /// running to completion. An unlimited budget adds no per-step
    /// work. No partial plan is produced on `Err`: the caller retries
    /// the prepare later, or reports the truncation, rather than
    /// caching a half-pruned core.
    ///
    /// The preparation runs under a `prepare` scope span whose children
    /// attribute wall time to the prune cascade's stages (`core-peel`,
    /// `2hop`, `ego-core`, `colorful-lower`, `colorful-upper`,
    /// `re-peel` — whichever the prune kind runs) and to
    /// `plan-resolve` (degree relabel + candidate-plan construction).
    /// A disabled recorder records nothing.
    pub fn prepare_rec(
        g: &BipartiteGraph,
        model: QueryModel,
        prune: PruneKind,
        substrate: Substrate,
        budget: &Budget,
        rec: &mut SpanRecorder,
    ) -> Result<PreparedQuery, StopReason> {
        rec.scope("prepare", |rec| {
            let t0 = Instant::now();
            let clock = budget.start();
            let mut pruned = crate::pipeline::cascade(g, model, prune, &clock, rec)?;
            if let Some(r) = clock.interrupted() {
                return Err(r);
            }
            let plan = rec.timed("plan-resolve", || {
                // Relabel the pruned core in degree order so the hottest
                // bitset rows land on adjacent cache lines. Results are
                // mapped back through the composed parent maps, so this
                // is invisible outside the walk itself. Gated on the
                // resolved substrate: sorted-vec merges iterate CSR
                // ranges wholesale and gain nothing from the permutation
                // (it measurably perturbs their merge patterns), and
                // `resolve_for` reads only side sizes and density, which
                // relabeling preserves.
                if substrate.resolve_for(&pruned.sub.graph) == Substrate::Bitset {
                    pruned.sub = pruned.sub.relabel_degree_desc();
                }
                CandidatePlan::build(&pruned.sub.graph, substrate, model.is_bi_side())
            });
            Ok(PreparedQuery {
                model,
                pruned,
                plan,
                prune_elapsed: t0.elapsed(),
            })
        })
    }

    /// The model this plan was prepared for.
    pub fn model(&self) -> QueryModel {
        self.model
    }

    /// Pruning statistics of the preparation pass.
    pub fn prune_stats(&self) -> &PruneStats {
        &self.pruned.stats
    }

    /// Wall-clock cost of the preparation phases (pruning — including
    /// the 2-hop/coloring work of the colorful core — plus plan
    /// construction). Amortized across every execute of this plan.
    pub fn prune_elapsed(&self) -> Duration {
        self.prune_elapsed
    }

    /// Heap bytes pinned by the cached plan: the pruned core's
    /// adjacency plus the bitset rows (cache-eviction accounting).
    pub fn heap_bytes(&self) -> usize {
        // CSR adjacency is one u32 per directed edge endpoint per side
        // plus offsets; approximate with the dominant terms.
        let g = &self.pruned.sub.graph;
        let csr = 2 * g.n_edges() * std::mem::size_of::<bigraph::VertexId>();
        csr + self.plan.heap_bytes()
    }

    /// Enumerate on the cached core/plan, streaming original-id results
    /// into per-worker sinks built by `make_sink` — the one execution
    /// path of the `++` miners.
    ///
    /// At `cfg.threads ≤ 1` a single worker walks the whole tree on the
    /// calling thread (nothing is spawned, no lock is taken); above
    /// that the root is split across up to `cfg.threads` workers on
    /// one global budget ([`crate::parallel`]). Honors
    /// `cfg.order` and the budget/cancellation in `cfg.budget`;
    /// `cfg.sorted` is left to the caller, which owns the
    /// results. Returns the sinks in worker order for the caller to
    /// merge, plus the merged statistics (`stats.emitted` is the total
    /// result count).
    ///
    /// The run is recorded as one `enumerate` span of `rec`, carrying
    /// the run's [`EnumStats`] as `threads= nodes= emitted= aborted=
    /// peak_bytes= subsets= tallied=` detail. Spans are recorded only at this
    /// single-threaded orchestration boundary — never inside the
    /// parallel workers — so the recorder cannot perturb enumeration.
    pub fn stream<S: BicliqueSink + Send>(
        &self,
        cfg: &RunConfig,
        make_sink: &(dyn Fn() -> S + Sync),
        rec: &mut SpanRecorder,
    ) -> (Vec<S>, EnumStats) {
        let (sinks, stats) = rec.timed("enumerate", || {
            if cfg.threads <= 1 {
                self.stream_in_thread(cfg, make_sink())
            } else {
                let (workers, stats) = self
                    .walk()
                    .run_parallel(cfg, &|clock| self.worker(clock, make_sink()));
                finish(workers, stats)
            }
        });
        rec.annotate_last(|| {
            format!(
                "threads={} nodes={} emitted={} aborted={} peak_bytes={} subsets={} tallied={}",
                cfg.threads.max(1),
                stats.nodes,
                stats.emitted,
                stats.aborted,
                stats.peak_search_bytes,
                stats.subsets,
                stats.tallied
            )
        });
        (sinks, stats)
    }

    /// The single-worker branch of [`PreparedQuery::stream`], open to
    /// sinks that cannot cross threads (the borrowed sink of
    /// [`crate::pipeline::run`]).
    pub(crate) fn stream_in_thread<S: BicliqueSink>(
        &self,
        cfg: &RunConfig,
        sink: S,
    ) -> (Vec<S>, EnumStats) {
        let (worker, stats) = self
            .walk()
            .run_serial(cfg, |clock| self.worker(clock, sink));
        finish([worker], stats)
    }

    /// The maximal-biclique walk every model runs: `|L| ≥ α`, with the
    /// fair bound on the reachable `R` (Algorithm 6 line 29).
    fn walk(&self) -> Walk<'_> {
        let g = &self.pruned.sub.graph;
        let base = self.model.base();
        Walk {
            g,
            min_l: base.alpha as usize,
            rbound: RBound::AttrBeta {
                attrs: g.attrs(Side::Lower),
                beta: base.beta,
            },
            plan: &self.plan,
        }
    }

    fn worker<S>(&self, clock: BudgetClock, sink: S) -> Worker<'_, S> {
        let sub = &self.pruned.sub;
        Worker {
            expansion: Expansion::new(self.model, &sub.graph, &self.plan, clock),
            out: MappingSink::new(&sub.upper_to_parent, &sub.lower_to_parent, sink),
        }
    }

    fn report(
        &self,
        bicliques: Vec<Biclique>,
        stats: EnumStats,
        cfg: &RunConfig,
        enumerate_elapsed: Duration,
    ) -> RunReport {
        RunReport {
            bicliques,
            prune: self.pruned.stats,
            stats,
            threads: cfg.threads.max(1),
            truncated_by: stats.stop,
            elapsed: self.prune_elapsed + enumerate_elapsed,
            prune_elapsed: self.prune_elapsed,
            enumerate_elapsed,
        }
    }

    /// Enumerate and collect all results (original ids; honors
    /// `cfg.sorted`, `cfg.threads`, and the budget/cancellation in
    /// `cfg.budget`). `RunReport::prune_elapsed` reports the (possibly
    /// amortized) preparation cost of this plan.
    pub fn execute(&self, cfg: &RunConfig) -> RunReport {
        self.execute_rec(cfg, &mut SpanRecorder::disabled())
    }

    /// [`PreparedQuery::execute`] with a [`SpanRecorder`]: records the
    /// `enumerate` span of [`PreparedQuery::stream`] and, when
    /// `cfg.sorted`, a `sort` span for the canonical reorder/merge. A
    /// disabled recorder makes this identical to `execute`.
    pub fn execute_rec(&self, cfg: &RunConfig, rec: &mut SpanRecorder) -> RunReport {
        let t0 = Instant::now();
        let (sinks, stats) = self.stream(cfg, &CollectSink::default, rec);
        let mut sinks = sinks.into_iter();
        let mut bicliques = sinks.next().map(|s| s.bicliques).unwrap_or_default();
        for s in sinks {
            bicliques.extend(s.bicliques);
        }
        if cfg.sorted {
            rec.timed("sort", || {
                crate::results::canonical_order(&mut bicliques);
            });
        }
        self.report(bicliques, stats, cfg, t0.elapsed())
    }

    /// Count results without materializing them (`stats.emitted` is
    /// the count; `bicliques` stays empty).
    pub fn count(&self, cfg: &RunConfig) -> RunReport {
        self.count_rec(cfg, &mut SpanRecorder::disabled())
    }

    /// [`PreparedQuery::count`] with a [`SpanRecorder`] (see
    /// [`PreparedQuery::execute_rec`]; counting has no `sort` span).
    pub fn count_rec(&self, cfg: &RunConfig, rec: &mut SpanRecorder) -> RunReport {
        let t0 = Instant::now();
        let (_, stats) = self.stream(cfg, &CountSink::default, rec);
        self.report(Vec::new(), stats, cfg, t0.elapsed())
    }

    /// The single largest result under `metric` (ties broken
    /// lexicographically, see [`MaxSink`]), plus the run's statistics —
    /// when `stats.aborted`, the answer is the best found before the
    /// budget ran out, a lower bound. Works for all four models.
    pub fn maximum(&self, metric: SizeMetric, cfg: &RunConfig) -> (Option<Biclique>, EnumStats) {
        self.maximum_rec(metric, cfg, &mut SpanRecorder::disabled())
    }

    /// [`PreparedQuery::maximum`] with a [`SpanRecorder`]: records
    /// `enumerate` for the search and `sort` for the cross-worker
    /// maximum merge (parallel runs only).
    pub fn maximum_rec(
        &self,
        metric: SizeMetric,
        cfg: &RunConfig,
        rec: &mut SpanRecorder,
    ) -> (Option<Biclique>, EnumStats) {
        let (sinks, stats) = self.stream(cfg, &|| MaxSink::new(metric), rec);
        let merge = || merge_max(metric, sinks).best;
        let best = if cfg.threads > 1 {
            rec.timed("sort", merge)
        } else {
            merge()
        };
        (best, stats)
    }
}

/// The expansion step of one model: what each maximal biclique the
/// walk visits turns into. The single-side models emit its maximal
/// fair (or, with the model's `θ`, proportion-fair) lower subsets with
/// `N(r') = L`; the bi-side models chain those into the upper-side
/// expansion of Algorithm 9, where the single-side stage is
/// intermediate and exempt from the result cap (only the bi-side
/// results are final).
enum Expansion<'g> {
    Ss(SsExpander<'g>),
    Bi(SsExpander<'g>, Box<BiSideExpander<'g>>),
}

impl<'g> Expansion<'g> {
    fn new(
        model: QueryModel,
        g: &'g BipartiteGraph,
        plan: &'g CandidatePlan,
        clock: BudgetClock,
    ) -> Self {
        let (p, theta) = (model.base(), model.theta());
        let ss = |clock| SsExpander::new(g, p, theta, clock);
        if model.is_bi_side() {
            let bi =
                BiSideExpander::with_clock(g, p, theta, plan.ops(g, Side::Upper), clock.clone());
            Expansion::Bi(ss(clock.exempt_results()), Box::new(bi))
        } else {
            Expansion::Ss(ss(clock))
        }
    }

    fn expand(&mut self, l: &[VertexId], r: &[VertexId], sink: &mut dyn BicliqueSink) {
        match self {
            Expansion::Ss(ss) => ss.expand(l, r, sink),
            Expansion::Bi(ss, bi) => ss.expand(l, r, &mut BiChainSink { exp: bi, sink }),
        }
    }

    /// Add this expansion's final-stage emissions to `stats` and fold
    /// in each stage's stop state.
    fn settle(&self, stats: &mut EnumStats) {
        let ss = match self {
            Expansion::Ss(ss) => {
                stats.emitted += ss.emitted;
                ss
            }
            Expansion::Bi(ss, bi) => {
                stats.emitted += bi.emitted;
                bi.clock.settle(stats);
                ss
            }
        };
        ss.clock.settle(stats);
        let (subsets, tallied) = ss.search_counts();
        stats.subsets += subsets;
        stats.tallied += tallied;
    }
}

/// One enumeration worker: the model's [`Expansion`] emitting through
/// an id-translating [`MappingSink`] into the worker's own sink. Both
/// live for the whole run, so every visit reuses the same expansion
/// scratch and translation buffers.
struct Worker<'g, S> {
    expansion: Expansion<'g>,
    out: MappingSink<'g, S>,
}

impl<S: BicliqueSink> WalkVisitor for Worker<'_, S> {
    fn visit(&mut self, l: &[VertexId], r: &[VertexId]) {
        self.expansion.expand(l, r, &mut self.out);
    }
}

/// Replace the walk's `emitted` (visited maximal bicliques) with the
/// workers' result counts, fold in their stop state, and hand back the
/// sinks in worker order.
fn finish<'g, S>(
    workers: impl IntoIterator<Item = Worker<'g, S>>,
    mut stats: EnumStats,
) -> (Vec<S>, EnumStats) {
    stats.emitted = 0;
    let sinks = workers
        .into_iter()
        .map(|w| {
            w.expansion.settle(&mut stats);
            w.out.into_inner()
        })
        .collect();
    (sinks, stats)
}

/// Test support for the miner modules: run `model` on `g` without
/// pruning (their unit tests exercise the expansion steps on raw
/// graphs), collecting in discovery order.
#[cfg(test)]
pub(crate) fn mine_unpruned(
    g: &BipartiteGraph,
    model: QueryModel,
    order: crate::config::VertexOrder,
    budget: crate::config::Budget,
) -> RunReport {
    PreparedQuery::prepare(g, model, PruneKind::None, Substrate::Auto).execute(&RunConfig {
        order,
        budget,
        ..RunConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Budget, CancelToken, StopReason};
    use crate::pipeline::enumerate;
    use bigraph::generate::random_uniform;

    fn bounded(
        g: &BipartiteGraph,
        model: QueryModel,
        prune: PruneKind,
        budget: &Budget,
    ) -> Result<PreparedQuery, StopReason> {
        let mut rec = SpanRecorder::disabled();
        PreparedQuery::prepare_rec(g, model, prune, Substrate::Auto, budget, &mut rec)
    }

    fn models() -> Vec<QueryModel> {
        let fair = FairParams::unchecked(2, 1, 1);
        let pro = ProParams::new(2, 1, 1, 0.3).unwrap();
        vec![
            QueryModel::Ssfbc(fair),
            QueryModel::Bsfbc(fair),
            QueryModel::Pssfbc(pro),
            QueryModel::Pbsfbc(pro),
        ]
    }

    #[test]
    fn prepared_matches_one_shot_pipelines_all_models() {
        let g = random_uniform(12, 14, 70, 2, 2, 11);
        for model in models() {
            for threads in [1usize, 3] {
                let cfg = RunConfig {
                    threads,
                    sorted: true,
                    ..RunConfig::default()
                };
                let want = enumerate(&g, model, &cfg);
                let prepared = PreparedQuery::prepare(&g, model, cfg.prune, cfg.substrate);
                let got = prepared.execute(&cfg);
                assert_eq!(got.bicliques, want.bicliques, "{model} threads {threads}");
                assert_eq!(
                    got.stats.nodes, want.stats.nodes,
                    "{model} threads {threads}"
                );
                assert_eq!(got.prune, want.prune);
                // The same plan executes repeatedly with identical output.
                let again = prepared.execute(&cfg);
                assert_eq!(again.bicliques, got.bicliques);
                // Count mode agrees without materializing.
                let counted = prepared.count(&cfg);
                assert!(counted.bicliques.is_empty());
                assert_eq!(counted.stats.emitted as usize, got.bicliques.len());
            }
        }
    }

    #[test]
    fn prepared_maximum_matches_maximum_module() {
        let g = random_uniform(14, 14, 90, 2, 2, 5);
        let params = FairParams::unchecked(2, 1, 1);
        let cfg = RunConfig::default();
        // The maximum module's sink over the collected enumeration.
        let mut want = MaxSink::new(SizeMetric::Edges);
        for b in enumerate(&g, QueryModel::Ssfbc(params), &cfg).bicliques {
            want.emit(&b.upper, &b.lower);
        }
        let want = want.best;
        assert!(want.is_some());
        let prepared =
            PreparedQuery::prepare(&g, QueryModel::Ssfbc(params), cfg.prune, cfg.substrate);
        for threads in [1usize, 4] {
            let cfg = RunConfig {
                threads,
                ..RunConfig::default()
            };
            let (got, _) = prepared.maximum(SizeMetric::Edges, &cfg);
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn truncated_by_reports_the_tripped_limit() {
        let g = random_uniform(16, 18, 120, 2, 2, 4);
        let params = FairParams::unchecked(1, 1, 2);
        let prepared = PreparedQuery::prepare(
            &g,
            QueryModel::Ssfbc(params),
            PruneKind::default(),
            Substrate::Auto,
        );
        let full = prepared.execute(&RunConfig::default());
        assert_eq!(full.truncated_by, None);
        assert!(full.elapsed >= full.enumerate_elapsed);

        let capped = prepared.execute(&RunConfig {
            budget: Budget::results(1),
            ..RunConfig::default()
        });
        assert_eq!(capped.truncated_by, Some(StopReason::ResultCap));
        assert_eq!(capped.bicliques.len(), 1);

        // A pre-cancelled token stops the run immediately, for any
        // thread count, and the plan stays reusable afterwards.
        for threads in [1usize, 4] {
            let token = CancelToken::new();
            token.cancel();
            let cancelled = prepared.execute(&RunConfig {
                threads,
                budget: Budget::UNLIMITED.with_cancel(token),
                ..RunConfig::default()
            });
            assert_eq!(cancelled.truncated_by, Some(StopReason::Cancelled));
            assert!(cancelled.stats.aborted);
            assert!(cancelled.bicliques.len() <= full.bicliques.len());
        }
        let after = prepared.execute(&RunConfig::default());
        assert_eq!(after.bicliques.len(), full.bicliques.len());
    }

    #[test]
    fn prepare_rec_aborts_on_expired_budget() {
        let g = random_uniform(16, 18, 120, 2, 2, 4);
        for model in models() {
            // Expired deadline: the first probe trips before any stage
            // runs, for every prune kind including None (probed in the
            // prepare wrapper itself).
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                let got = bounded(&g, model, prune, &Budget::time(Duration::ZERO));
                assert!(
                    matches!(got, Err(StopReason::Deadline)),
                    "{model} {prune:?} should abort on expired deadline"
                );
            }
            // A pre-cancelled token interrupts too.
            let token = CancelToken::new();
            token.cancel();
            let budget = Budget::UNLIMITED.with_cancel(token);
            let got = bounded(&g, model, PruneKind::Colorful, &budget);
            assert!(matches!(got, Err(StopReason::Cancelled)), "{model}");
            // An unlimited budget prepares normally and matches `prepare`.
            let unbounded = bounded(&g, model, PruneKind::Colorful, &Budget::UNLIMITED).unwrap();
            let plain = PreparedQuery::prepare(&g, model, PruneKind::Colorful, Substrate::Auto);
            assert_eq!(unbounded.prune_stats(), plain.prune_stats(), "{model}");
        }
    }

    #[test]
    fn prepare_rec_ignores_enumeration_caps() {
        // Node and result caps bound enumeration only: even spent ones
        // never interrupt preparation.
        let g = random_uniform(16, 18, 120, 2, 2, 4);
        for model in models() {
            for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
                let plain = PreparedQuery::prepare(&g, model, prune, Substrate::Auto);
                for budget in [Budget::nodes(0), Budget::results(0)] {
                    let got = bounded(&g, model, prune, &budget)
                        .unwrap_or_else(|r| panic!("{model} {prune:?} {budget:?}: {r}"));
                    assert_eq!(got.prune_stats(), plain.prune_stats(), "{model} {prune:?}");
                }
            }
        }
    }

    #[test]
    fn model_accessors() {
        let fair = FairParams::unchecked(3, 2, 1);
        let pro = ProParams::new(3, 2, 1, 0.25).unwrap();
        assert_eq!(QueryModel::Ssfbc(fair).name(), "SSFBC");
        assert_eq!(QueryModel::Pbsfbc(pro).to_string(), "PBSFBC");
        assert!(QueryModel::Bsfbc(fair).is_bi_side());
        assert!(!QueryModel::Pssfbc(pro).is_bi_side());
        assert_eq!(QueryModel::Pssfbc(pro).base(), fair);
        assert_eq!(QueryModel::Pssfbc(pro).theta(), Some(0.25));
        assert_eq!(QueryModel::Ssfbc(fair).theta(), None);

        let g = random_uniform(10, 10, 50, 2, 2, 9);
        let p = PreparedQuery::prepare(
            &g,
            QueryModel::Ssfbc(fair),
            PruneKind::Colorful,
            Substrate::Auto,
        );
        assert_eq!(p.model(), QueryModel::Ssfbc(fair));
        assert_ne!(p.plan.choice(), Substrate::Auto);
        assert!(p.prune_stats().upper_after <= p.prune_stats().upper_before);
        let _ = p.heap_bytes();
    }
}
