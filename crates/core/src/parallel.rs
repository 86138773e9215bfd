//! The enumeration engine: one walk of the maximal-biclique tree,
//! run on the calling thread or split at its root across workers.
//!
//! Every `++` miner — `FairBCEM++`, `BFairBCEM++` and the proportion
//! enumerators `FairBCEMPro++` / `BFairBCEMPro++` — runs one pipeline:
//! walk the maximal bicliques with `|L| ≥ α` (Algorithm 6's
//! `BackTrackFBCEM++` skeleton, the `Walker` of [`crate::mbea`]), then
//! expand each one. Only the expansion differs between models; it lives
//! with the prepared plan ([`crate::prepared`]), which hands this module
//! one visitor per worker. A `Walk` drives those visitors two ways:
//!
//! * `Walk::run_serial` executes the root task to completion on the
//!   calling thread — no spawn, no lock (`threads ≤ 1`);
//! * `Walk::run_parallel` splits the same tree across up to
//!   `RunConfig::threads` workers (the paper's extension section
//!   parallelizes single-side `FairBCEM++`; this engine generalizes it
//!   to every miner and to maximum search).
//!
//! # Design
//!
//! * **Root split over a channel.** Work units are `BranchTask`s:
//!   exact search states `(L, R, P, Q)` of the serial enumeration
//!   tree. Worker 0 runs only the root's top level and sends each
//!   child subtree down a `std::sync::mpsc` channel; it then drops
//!   its sender and, like every other worker, takes tasks off the
//!   channel and runs each to completion. The run ends when the
//!   channel is empty and closed — also when the splitter panics,
//!   since unwinding drops its sender.
//! * **Correctness (Q-seeding of split tasks).** A split-off task
//!   carries the same duplicate-suppression set `Q` the serial
//!   recursion would have passed down: when the splitting worker
//!   expands branch `i` of a level, the earlier branches' vertices
//!   (expanded or consumed) are already in the task's `q`. The
//!   fully-connected-`Q` check therefore kills exactly the subtrees
//!   the serial algorithm never enters — any maximal biclique
//!   reachable from a later branch that was already enumerated under
//!   an earlier one contains an earlier vertex, which sits in `Q`.
//!   Consequently the task set *is* the serial tree, partitioned:
//!   result sets are identical to serial runs, each result is emitted
//!   exactly once, and the summed per-worker node counts equal the
//!   serial node count (tested).
//! * **Global budget.** Serial or parallel, every walker and expander
//!   draws node ticks and result slots from one `SharedBudget` —
//!   atomic countdowns acquired *before* work happens. A
//!   `Budget::results(K)` therefore yields exactly `min(K, total)`
//!   results regardless of thread count, and node/time exhaustion in
//!   any worker stops all of them at their next tick.
//! * **Deterministic aggregation.** Per-worker [`EnumStats`] are
//!   merged in worker order: node and emission counts sum, abort
//!   flags OR, peak search bytes take the per-worker maximum (a
//!   per-worker peak, *not* comparable to the serial peak).
//! * **Sorted output.** Discovery order across workers is
//!   nondeterministic; with [`RunConfig::sorted`] the collected
//!   runs sort results into [`crate::results::canonical_order`],
//!   making output byte-identical across thread counts (and equal to
//!   a sorted serial run).
//!
//! # Cancellation semantics
//!
//! A run whose [`crate::config::Budget`] carries a
//! [`crate::config::CancelToken`]
//! ([`crate::config::Budget::with_cancel`]) stops **cooperatively**: every worker's
//! clocks — the maximal-biclique walker's and each expansion stage's —
//! check the token at *branch granularity* (once per
//! `BudgetClock::tick`, i.e. per search-tree node or expansion step),
//! so cancellation latency is bounded by a handful of branch
//! expansions, not by subtree size. The first worker to observe the
//! token trips the run's `SharedBudget`, which stops every sibling
//! worker at its next tick exactly like any other exhausted limit.
//! Consequences:
//!
//! * results already emitted are kept — a cancelled run returns a
//!   *correct subset*, never corrupt or duplicated output;
//! * `EnumStats::aborted` is set and `EnumStats::stop` (surfaced as
//!   `RunReport::truncated_by`) reports
//!   [`crate::config::StopReason::Cancelled`] — unless another limit
//!   (deadline, node or result cap) tripped first, in which case the
//!   first cause wins;
//! * cancellation is sticky and one-way: the token cannot be reset,
//!   and a cancelled run's workers drain the task channel without
//!   executing further work, so threads join promptly;
//! * tokens may be shared across runs (e.g. a server cancelling every
//!   in-flight query at shutdown) — each run observes it
//!   independently.

use crate::biclique::EnumStats;
use crate::config::{BudgetClock, BudgetLane, RunConfig, SharedBudget};
use crate::mbea::{root_task, BranchTask, RBound, Walker};
use bigraph::candidate::CandidatePlan;
use bigraph::{BipartiteGraph, Side, VertexId};
use std::sync::{mpsc, Arc, Mutex};

/// Hard ceiling on engine worker threads (values beyond this waste
/// spawns and can hit OS thread limits long before they help).
const MAX_THREADS: usize = 512;

/// Per-worker enumeration state driven by a [`Walk`]: receives every
/// maximal biclique of the worker's subtrees.
pub(crate) trait WalkVisitor {
    /// One maximal biclique (both sides sorted; borrow only for the
    /// call).
    fn visit(&mut self, l: &[VertexId], r: &[VertexId]);
}

/// The maximal-biclique walk of one plan: the enumeration graph, the
/// `|L| ≥ min_l` cut and `R` bound, and the resolved candidate plan
/// every walker and expander draws its rows from.
#[derive(Clone, Copy)]
pub(crate) struct Walk<'g> {
    pub(crate) g: &'g BipartiteGraph,
    pub(crate) min_l: usize,
    pub(crate) rbound: RBound<'g>,
    pub(crate) plan: &'g CandidatePlan,
}

impl<'g> Walk<'g> {
    fn walker(&self, shared: &Arc<SharedBudget>) -> Walker<'g> {
        Walker::new(
            self.g,
            self.min_l,
            self.rbound,
            self.plan.ops(self.g, Side::Lower),
            shared.clock(BudgetLane::Walk),
        )
    }

    /// Run the whole walk in `cfg.order` on the calling thread, under
    /// `cfg.budget`, with one visitor built by `make` (which receives a
    /// clock drawing from the run's expansion countdown). Spawns
    /// nothing and takes no lock.
    ///
    /// Returns the visitor plus the walk statistics (`emitted` counts
    /// *visited maximal bicliques*; callers overwrite it with their
    /// emission counts).
    pub(crate) fn run_serial<V: WalkVisitor>(
        &self,
        cfg: &RunConfig,
        make: impl FnOnce(BudgetClock) -> V,
    ) -> (V, EnumStats) {
        let shared = SharedBudget::new(cfg.budget.clone());
        let mut visitor = make(shared.clock(BudgetLane::Expand));
        let mut walker = self.walker(&shared);
        walker.run(
            root_task(self.g, cfg.order),
            &mut |l, r| visitor.visit(l, r),
            None,
        );
        (visitor, merge_shared(walker.stats(), &shared))
    }

    /// Run the walk across up to `cfg.threads` workers, each owning a
    /// visitor built by `make`; only the root task is split.
    /// Returns the visitors in worker order plus the deterministically
    /// merged walk statistics (see [`Walk::run_serial`]).
    pub(crate) fn run_parallel<V: WalkVisitor + Send>(
        &self,
        cfg: &RunConfig,
        make: &(dyn Fn(BudgetClock) -> V + Sync),
    ) -> (Vec<V>, EnumStats) {
        let root = root_task(self.g, cfg.order);
        // Clamp the worker count: no more than one task per root
        // candidate ever exists, and an absolute cap keeps a huge
        // `--threads` from hitting OS spawn limits.
        let threads = cfg.threads.clamp(1, root.p.len().clamp(1, MAX_THREADS));
        let shared = SharedBudget::new(cfg.budget.clone());
        // Worker 0 splits the root onto the channel, drops its sender
        // and then drains like its peers; the run ends when the
        // channel is empty and closed. A panicking splitter drops the
        // sender while unwinding, so its peers still finish.
        let (tx, rx) = mpsc::channel::<BranchTask>();
        let rx = Mutex::new(rx);
        let mut split = Some((root, tx));

        let mut per_worker: Vec<(V, EnumStats)> = Vec::with_capacity(threads);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let split = split.take();
                let (rx, shared) = (&rx, &shared);
                handles.push(s.spawn(move || {
                    let mut visitor = make(shared.clock(BudgetLane::Expand));
                    let mut walker = self.walker(shared);
                    let mut visit = |l: &[VertexId], r: &[VertexId]| visitor.visit(l, r);
                    if let Some((root, tx)) = split {
                        if !shared.is_exhausted() {
                            let send =
                                &mut |t| tx.send(t).expect("the receiver outlives the workers");
                            walker.run(root, &mut visit, Some(send));
                        }
                    }
                    loop {
                        // Its own statement: the lock is released before
                        // the task runs.
                        let task = rx.lock().expect("task channel poisoned").recv();
                        let Ok(task) = task else { break };
                        // Drain without work once any global limit trips.
                        if !shared.is_exhausted() {
                            walker.run(task, &mut visit, None);
                        }
                    }
                    (visitor, walker.stats())
                }));
            }
            // Join every worker before re-raising a panic: peers keep
            // draining the channel (the panicked task's subtree is
            // simply lost, which is fine — the run aborts anyway), so
            // joins complete promptly instead of deadlocking the scope.
            let mut panic_payload = None;
            for h in handles {
                match h.join() {
                    Ok(res) => per_worker.push(res),
                    Err(p) => panic_payload = Some(p),
                }
            }
            if let Some(p) = panic_payload {
                std::panic::resume_unwind(p);
            }
        });

        let mut agg = EnumStats::default();
        let mut visitors = Vec::with_capacity(per_worker.len());
        for (v, st) in per_worker {
            agg.nodes += st.nodes;
            agg.emitted += st.emitted;
            agg.aborted |= st.aborted;
            agg.stop = agg.stop.or(st.stop);
            agg.peak_search_bytes = agg.peak_search_bytes.max(st.peak_search_bytes);
            visitors.push(v);
        }
        (visitors, merge_shared(agg, &shared))
    }
}

/// Fold the run-wide budget state into merged walk statistics: the
/// shared budget records the first cause, so prefer it over whichever
/// worker-local reason happened to merge first.
fn merge_shared(mut stats: EnumStats, shared: &SharedBudget) -> EnumStats {
    stats.aborted |= shared.is_exhausted();
    stats.stop = shared.stop_reason().or(stats.stop);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{Biclique, BicliqueSink};
    use crate::config::{Budget, FairParams, ProParams, VertexOrder};
    use crate::obs::SpanRecorder;
    use crate::pipeline::{enumerate, RunReport};
    use crate::prepared::{PreparedQuery, QueryModel};
    use bigraph::generate::{plant_bicliques, random_uniform};
    use std::collections::BTreeSet;

    /// The SSFBC pipeline on `threads` workers with sorted output.
    fn par_ssfbc(
        g: &BipartiteGraph,
        params: FairParams,
        cfg: &RunConfig,
        threads: usize,
    ) -> RunReport {
        let cfg = RunConfig {
            threads,
            sorted: true,
            ..cfg.clone()
        };
        enumerate(g, QueryModel::Ssfbc(params), &cfg)
    }

    fn prepared_ssfbc(g: &BipartiteGraph, params: FairParams, cfg: &RunConfig) -> PreparedQuery {
        PreparedQuery::prepare(g, QueryModel::Ssfbc(params), cfg.prune, cfg.substrate)
    }

    #[test]
    fn parallel_matches_serial_on_random_graphs() {
        for seed in 0..10u64 {
            let g = random_uniform(12, 14, 70, 2, 2, seed);
            let params = FairParams::unchecked(2, 1, 1);
            let serial: BTreeSet<Biclique> =
                enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
                    .bicliques
                    .into_iter()
                    .collect();
            for threads in [1usize, 2, 4] {
                let par = par_ssfbc(&g, params, &RunConfig::default(), threads);
                let got: BTreeSet<Biclique> = par.bicliques.iter().cloned().collect();
                assert_eq!(got.len(), par.bicliques.len(), "no duplicates");
                assert_eq!(got, serial, "seed {seed} threads {threads}");
                assert_eq!(par.stats.emitted as usize, serial.len());
                assert_eq!(par.threads, threads);
            }
        }
    }

    #[test]
    fn parallel_matches_serial_on_planted_structure() {
        let base = random_uniform(40, 45, 300, 2, 2, 3);
        let g = plant_bicliques(&base, 3, 5, 8, 1.0, 4);
        let params = FairParams::unchecked(3, 2, 1);
        let serial: BTreeSet<Biclique> =
            enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
                .bicliques
                .into_iter()
                .collect();
        assert!(!serial.is_empty());
        for order in [VertexOrder::IdAsc, VertexOrder::DegreeDesc] {
            let cfg = RunConfig {
                order,
                ..RunConfig::default()
            };
            let par = par_ssfbc(&g, params, &cfg, 4);
            let got: BTreeSet<Biclique> = par.bicliques.into_iter().collect();
            assert_eq!(got, serial, "order {order:?}");
        }
    }

    #[test]
    fn parallel_output_is_sorted_and_deterministic() {
        let g = random_uniform(15, 15, 90, 2, 2, 8);
        let params = FairParams::unchecked(2, 1, 2);
        let a = par_ssfbc(&g, params, &RunConfig::default(), 3);
        let b = par_ssfbc(&g, params, &RunConfig::default(), 3);
        assert_eq!(a.bicliques, b.bicliques);
        assert!(a.bicliques.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_thread_equals_serial_stats_shape() {
        let g = random_uniform(10, 10, 50, 2, 2, 5);
        let params = FairParams::unchecked(2, 1, 1);
        let par = par_ssfbc(&g, params, &RunConfig::default(), 1);
        let ser = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
        assert_eq!(par.bicliques.len(), ser.bicliques.len());
        assert_eq!(par.stats.nodes, ser.stats.nodes);
    }

    #[test]
    fn all_miners_match_serial_via_engine() {
        let g = random_uniform(10, 12, 55, 2, 2, 17);
        let params = FairParams::unchecked(2, 1, 1);
        let pro = ProParams::new(2, 1, 1, 0.3).unwrap();
        let serial = |cfg: &RunConfig| {
            (
                enumerate(&g, QueryModel::Ssfbc(params), cfg).bicliques,
                enumerate(&g, QueryModel::Bsfbc(params), cfg).bicliques,
                enumerate(&g, QueryModel::Pssfbc(pro), cfg).bicliques,
                enumerate(&g, QueryModel::Pbsfbc(pro), cfg).bicliques,
            )
        };
        let base = RunConfig {
            sorted: true,
            ..RunConfig::default()
        };
        let want = serial(&base);
        for threads in [2usize, 3, 7] {
            let cfg = RunConfig {
                threads,
                ..base.clone()
            };
            let got = serial(&cfg);
            assert_eq!(got, want, "threads {threads}");
        }
    }

    #[test]
    fn node_stats_merge_to_serial_totals() {
        for seed in [1u64, 9, 23] {
            let g = random_uniform(14, 16, 95, 2, 2, seed);
            let params = FairParams::unchecked(2, 1, 1);
            let ser = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
            for threads in [2usize, 4, 7] {
                let cfg = RunConfig {
                    threads,
                    ..RunConfig::default()
                };
                let par = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
                assert_eq!(
                    par.stats.nodes, ser.stats.nodes,
                    "seed {seed} threads {threads}"
                );
                assert_eq!(par.stats.emitted, ser.stats.emitted);
            }
        }
    }

    #[test]
    fn result_cap_stops_the_serial_walk_early() {
        // Serial and parallel budget semantics agree: once the result
        // cap trips, the maximal-biclique walk stops instead of
        // visiting the rest of the tree emitting nothing.
        let g = random_uniform(16, 18, 120, 2, 2, 4);
        let params = FairParams::unchecked(1, 1, 2);
        let full = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
        assert!(full.bicliques.len() > 10);
        let capped = enumerate(
            &g,
            QueryModel::Ssfbc(params),
            &RunConfig {
                budget: Budget::results(1),
                ..RunConfig::default()
            },
        );
        assert_eq!(capped.bicliques.len(), 1);
        assert!(capped.stats.aborted);
        assert!(
            capped.stats.nodes < full.stats.nodes,
            "capped walk visited {} of {} nodes — it must stop early",
            capped.stats.nodes,
            full.stats.nodes
        );
        // Same for the bi-side chain, where the cap lives two stages
        // downstream of the walker.
        let full_bi = enumerate(&g, QueryModel::Bsfbc(params), &RunConfig::default());
        assert!(full_bi.bicliques.len() > 1);
        let capped_bi = enumerate(
            &g,
            QueryModel::Bsfbc(params),
            &RunConfig {
                budget: Budget::results(1),
                ..RunConfig::default()
            },
        );
        assert_eq!(capped_bi.bicliques.len(), 1);
        assert!(capped_bi.stats.nodes < full_bi.stats.nodes);
    }

    #[test]
    fn absurd_thread_counts_are_clamped_not_fatal() {
        let g = random_uniform(10, 10, 50, 2, 2, 3);
        let params = FairParams::unchecked(2, 1, 1);
        let want = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
            .bicliques
            .into_iter()
            .collect::<BTreeSet<_>>();
        let cfg = RunConfig {
            threads: 1_000_000,
            ..RunConfig::default()
        };
        let got: BTreeSet<Biclique> = enumerate(&g, QueryModel::Ssfbc(params), &cfg)
            .bicliques
            .into_iter()
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn streaming_sinks_match_collected_runs() {
        use crate::biclique::{CountSink, TopKSink};
        let g = random_uniform(12, 14, 80, 2, 2, 6);
        let params = FairParams::unchecked(2, 1, 1);
        let cfg = RunConfig {
            threads: 4,
            ..RunConfig::default()
        };
        let report = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
        let prepared = prepared_ssfbc(&g, params, &cfg);
        let (counts, stats) =
            prepared.stream(&cfg, &CountSink::default, &mut SpanRecorder::disabled());
        assert_eq!(
            counts.iter().map(|c| c.count).sum::<u64>(),
            report.bicliques.len() as u64
        );
        assert_eq!(stats.emitted as usize, report.bicliques.len());
        assert_eq!(*prepared.prune_stats(), report.prune);
        // Per-worker top-k sinks merge to the serial top-k set.
        let k = 5usize;
        let (tops, _) = prepared.stream(&cfg, &|| TopKSink::new(k), &mut SpanRecorder::disabled());
        let mut merged = TopKSink::new(k);
        for t in tops {
            for bc in t.into_sorted() {
                merged.emit(&bc.upper, &bc.lower);
            }
        }
        let mut serial_top = TopKSink::new(k);
        for bc in &report.bicliques {
            serial_top.emit(&bc.upper, &bc.lower);
        }
        assert_eq!(merged.into_sorted(), serial_top.into_sorted());
    }

    #[test]
    fn worker_panic_surfaces_instead_of_deadlocking() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        /// Panics on the Nth emission across all workers (shared
        /// counter), exercising an unwind mid-task at 4 threads.
        struct PanicSink {
            emitted: Arc<AtomicU64>,
            nth: u64,
        }
        impl BicliqueSink for PanicSink {
            fn emit(&mut self, _l: &[VertexId], _r: &[VertexId]) {
                // lint: ordering: test-only shared counter; exact
                // interleaving is irrelevant, any emission may trip it.
                if self.emitted.fetch_add(1, Ordering::Relaxed) + 1 == self.nth {
                    panic!("injected sink panic");
                }
            }
        }

        let g = random_uniform(14, 16, 95, 2, 2, 21);
        let params = FairParams::unchecked(1, 1, 2);
        let total = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
            .bicliques
            .len() as u64;
        assert!(total > 4, "need enough results to panic mid-run");

        let cfg = RunConfig {
            threads: 4,
            ..RunConfig::default()
        };
        let prepared = prepared_ssfbc(&g, params, &cfg);
        let emitted = Arc::new(AtomicU64::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let make_sink = || PanicSink {
                emitted: emitted.clone(),
                nth: 3,
            };
            prepared.stream(&cfg, &make_sink, &mut SpanRecorder::disabled())
        }));
        // The injected panic must come back to the caller (pre-fix this
        // deadlocked: the panicked worker never released its task slot,
        // peers blocked on the condvar, and thread::scope waited
        // forever). Peer workers drain the queue and join first.
        assert!(result.is_err(), "sink panic must propagate to the caller");
        assert!(emitted.load(Ordering::Relaxed) >= 3);

        // The engine stays usable after a panicked run.
        let again = par_ssfbc(&g, params, &RunConfig::default(), 4);
        assert_eq!(again.bicliques.len() as u64, total);
    }

    #[test]
    fn splitter_panic_ends_the_run() {
        use bigraph::GraphBuilder;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// Panics on every emission.
        struct PanicSink;
        impl BicliqueSink for PanicSink {
            fn emit(&mut self, _l: &[VertexId], _r: &[VertexId]) {
                panic!("injected sink panic");
            }
        }

        // Four disjoint K(3,4) blocks with balanced lower attributes.
        // Each block is found by a root-level branch with nothing below
        // it, and it is a fair result: the splitting worker panics on
        // its first branch, before it sends any task, and the peers
        // are left waiting on an empty channel.
        let mut b = GraphBuilder::new(2, 2);
        let mut blocks = BTreeSet::new();
        for k in 0..4u32 {
            let us: Vec<VertexId> = (0..3).map(|i| 3 * k + i).collect();
            let vs: Vec<VertexId> = (0..4).map(|i| 4 * k + i).collect();
            for &v in &vs {
                b.set_attr_lower(v, (v % 2) as bigraph::AttrValueId);
                for &u in &us {
                    b.add_edge(u, v);
                }
            }
            blocks.insert(Biclique::new(us, vs));
        }
        let g = b.build().unwrap();
        let params = FairParams::unchecked(1, 1, 1);
        let all: BTreeSet<Biclique> =
            enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
                .bicliques
                .into_iter()
                .collect();
        assert_eq!(all, blocks, "the root level itself must emit");

        for threads in [2usize, 4] {
            let cfg = RunConfig {
                threads,
                ..RunConfig::default()
            };
            let prepared = prepared_ssfbc(&g, params, &cfg);
            let result = catch_unwind(AssertUnwindSafe(|| {
                prepared.stream(&cfg, &|| PanicSink, &mut SpanRecorder::disabled())
            }));
            assert!(
                result.is_err(),
                "threads {threads}: the panic must reach the caller"
            );
        }
    }

    #[test]
    fn global_result_budget_is_exact() {
        let g = random_uniform(14, 16, 100, 2, 2, 12);
        let params = FairParams::unchecked(1, 1, 2);
        let total = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
            .bicliques
            .len();
        assert!(total > 8, "need a graph with enough results, got {total}");
        for threads in [1usize, 2, 4, 7] {
            for k in [0usize, 1, 3, total, total + 5] {
                let cfg = RunConfig {
                    threads,
                    budget: Budget::results(k as u64),
                    ..RunConfig::default()
                };
                let report = enumerate(&g, QueryModel::Ssfbc(params), &cfg);
                assert_eq!(
                    report.bicliques.len(),
                    k.min(total),
                    "threads {threads} k {k}"
                );
                assert_eq!(report.stats.aborted, k < total, "threads {threads} k {k}");
            }
        }
    }
}
