//! One entry point per table/figure of the paper's evaluation (§V).
//!
//! Each `expN_*` function runs the corresponding sweep on the scaled
//! synthetic corpus and returns paper-style [`Table`]s (the bench
//! targets print them and save TSVs). Runs that exceed the harness
//! budget report `INF`, mirroring the paper's 24-hour cutoff.

use crate::{fmt_time, timed, Opts, Table};
use bigraph::subgraph::sample_edges;
use bigraph::BipartiteGraph;
use fair_biclique::biclique::CountSink;
use fair_biclique::config::{Budget, FairParams, ProParams, PruneKind, RunConfig, VertexOrder};
use fair_biclique::fcore::PruneOutcome;
use fair_biclique::mbea::maximal_bicliques;
use fair_biclique::memory::measure;
use fair_biclique::pipeline::{prune, run, Algorithm};
use fair_biclique::prepared::{PreparedQuery, QueryModel};
use fbe_datasets::corpus::{spec, Dataset, DatasetSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------
// Corpus access (graphs are built once per process).
// ---------------------------------------------------------------

static GRAPH_CACHE: Mutex<Option<HashMap<Dataset, Arc<BipartiteGraph>>>> = Mutex::new(None);

/// The (cached) graph for `dataset`.
pub fn graph_for(dataset: Dataset) -> Arc<BipartiteGraph> {
    // Ignore poisoning (parking_lot semantics): a panicking build must
    // not cascade "poisoned" panics into unrelated callers.
    let mut guard = GRAPH_CACHE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let map = guard.get_or_insert_with(HashMap::new);
    map.entry(dataset)
        .or_insert_with(|| Arc::new(spec(dataset).build()))
        .clone()
}

fn datasets(opts: &Opts) -> Vec<DatasetSpec> {
    if opts.quick {
        vec![spec(Dataset::Youtube)]
    } else {
        fbe_datasets::corpus::all_specs()
    }
}

fn cfg(opts: &Opts, order: VertexOrder) -> RunConfig {
    RunConfig {
        prune: PruneKind::Colorful,
        order,
        budget: Budget::time(opts.budget),
        ..RunConfig::default()
    }
}

/// The α/β x-axis of Fig. 2 per dataset (also used for β).
fn fig2_range(d: Dataset, opts: &Opts) -> Vec<u32> {
    let full: Vec<u32> = match d {
        Dataset::Youtube | Dataset::WikiCat | Dataset::Dblp => (5..=10).collect(),
        Dataset::Twitter => (6..=11).collect(),
        Dataset::Imdb => (8..=13).collect(),
    };
    thin(full, opts)
}

/// The α x-axis of Fig. 5 per dataset.
fn fig5_alpha_range(d: Dataset, opts: &Opts) -> Vec<u32> {
    let full: Vec<u32> = match d {
        Dataset::Youtube => (3..=8).collect(),
        Dataset::Twitter | Dataset::Imdb | Dataset::WikiCat => (4..=9).collect(),
        Dataset::Dblp => (2..=7).collect(),
    };
    thin(full, opts)
}

/// The β x-axis of Fig. 5 per dataset.
fn fig5_beta_range(d: Dataset, opts: &Opts) -> Vec<u32> {
    let full: Vec<u32> = match d {
        Dataset::Youtube => (3..=8).collect(),
        Dataset::Twitter => (5..=10).collect(),
        Dataset::Imdb | Dataset::WikiCat => (4..=9).collect(),
        Dataset::Dblp => (2..=7).collect(),
    };
    thin(full, opts)
}

fn delta_range(opts: &Opts) -> Vec<u32> {
    thin((0..=5).collect(), opts)
}

fn thin(full: Vec<u32>, opts: &Opts) -> Vec<u32> {
    if opts.quick {
        full.into_iter().step_by(2).collect()
    } else {
        full
    }
}

// ---------------------------------------------------------------
// Single runs.
// ---------------------------------------------------------------

/// Outcome of one timed enumeration run.
#[derive(Debug, Clone, Copy)]
pub struct RunResult {
    /// Number of fair bicliques found (a lower bound when aborted).
    pub count: u64,
    /// Wall-clock including pruning.
    pub time: Duration,
    /// True when the budget expired (`INF`).
    pub aborted: bool,
}

impl RunResult {
    fn cell(&self) -> String {
        fmt_time(self.time, self.aborted)
    }
}

/// Time one enumeration of `model` with `algo` (pruning included,
/// like the paper).
pub fn time_run(
    g: &BipartiteGraph,
    model: QueryModel,
    algo: Algorithm,
    opts: &Opts,
    order: VertexOrder,
) -> RunResult {
    let mut sink = CountSink::default();
    let (ran, time) = timed(|| run(g, model, algo, &cfg(opts, order), &mut sink));
    let (_, stats) = ran.expect("the experiments run the baselines on absolute models only");
    RunResult {
        count: sink.count,
        time,
        aborted: stats.aborted,
    }
}

// ---------------------------------------------------------------
// Exp-1: pruning techniques (Fig. 3 and Fig. 4).
// ---------------------------------------------------------------

fn prune_row(out: &PruneOutcome, time: Duration) -> (String, String) {
    (
        out.stats.remaining_vertices().to_string(),
        format!("{:.4}", time.as_secs_f64()),
    )
}

/// Fig. 3: FCore vs CFCore remaining nodes and time on IMDB,
/// varying α (a, c) and β (b, d).
pub fn exp1_fig3(opts: &Opts) -> Vec<Table> {
    let d = if opts.quick {
        Dataset::Youtube
    } else {
        Dataset::Imdb
    };
    let s = spec(d);
    let g = graph_for(d);
    let range: Vec<u32> = if opts.quick {
        fig2_range(d, opts)
    } else {
        (8..=13).collect()
    };
    let mut nodes_a = Table::new(
        format!(
            "Fig. 3(a) {d} remaining nodes (vary alpha; beta={})",
            s.default_single.1
        ),
        &["alpha", "FCore", "CFCore"],
    );
    let mut time_a = Table::new(
        format!("Fig. 3(c) {d} pruning time (vary alpha)"),
        &["alpha", "FCore(s)", "CFCore(s)"],
    );
    for &a in &range {
        let p = FairParams::unchecked(a, s.default_single.1, s.default_delta);
        let (f, ft) = timed(|| prune(&g, QueryModel::Ssfbc(p), PruneKind::FCore));
        let (c, ct) = timed(|| prune(&g, QueryModel::Ssfbc(p), PruneKind::Colorful));
        let (fn_, fts) = prune_row(&f, ft);
        let (cn, cts) = prune_row(&c, ct);
        nodes_a.push(vec![a.to_string(), fn_, cn]);
        time_a.push(vec![a.to_string(), fts, cts]);
    }
    let mut nodes_b = Table::new(
        format!(
            "Fig. 3(b) {d} remaining nodes (vary beta; alpha={})",
            s.default_single.0
        ),
        &["beta", "FCore", "CFCore"],
    );
    let mut time_b = Table::new(
        format!("Fig. 3(d) {d} pruning time (vary beta)"),
        &["beta", "FCore(s)", "CFCore(s)"],
    );
    for &b in &range {
        let p = FairParams::unchecked(s.default_single.0, b, s.default_delta);
        let (f, ft) = timed(|| prune(&g, QueryModel::Ssfbc(p), PruneKind::FCore));
        let (c, ct) = timed(|| prune(&g, QueryModel::Ssfbc(p), PruneKind::Colorful));
        let (fn_, fts) = prune_row(&f, ft);
        let (cn, cts) = prune_row(&c, ct);
        nodes_b.push(vec![b.to_string(), fn_, cn]);
        time_b.push(vec![b.to_string(), fts, cts]);
    }
    vec![nodes_a, nodes_b, time_a, time_b]
}

/// Fig. 4: BFCore vs BCFCore on Twitter, varying α and β.
pub fn exp1_fig4(opts: &Opts) -> Vec<Table> {
    let d = if opts.quick {
        Dataset::Youtube
    } else {
        Dataset::Twitter
    };
    let s = spec(d);
    let g = graph_for(d);
    let mut out = Vec::new();
    for (panel, vary_alpha) in [("a/c", true), ("b/d", false)] {
        let range = if vary_alpha {
            fig5_alpha_range(d, opts)
        } else {
            fig5_beta_range(d, opts)
        };
        let axis = if vary_alpha { "alpha" } else { "beta" };
        let mut nodes = Table::new(
            format!("Fig. 4({panel}) {d} remaining nodes (vary {axis})"),
            &[axis, "BFCore", "BCFCore"],
        );
        let mut times = Table::new(
            format!("Fig. 4({panel}) {d} pruning time (vary {axis})"),
            &[axis, "BFCore(s)", "BCFCore(s)"],
        );
        for &x in &range {
            let p = if vary_alpha {
                FairParams::unchecked(x, s.default_bi.1, s.default_delta)
            } else {
                FairParams::unchecked(s.default_bi.0, x, s.default_delta)
            };
            let (f, ft) = timed(|| prune(&g, QueryModel::Bsfbc(p), PruneKind::FCore));
            let (c, ct) = timed(|| prune(&g, QueryModel::Bsfbc(p), PruneKind::Colorful));
            let (fn_, fts) = prune_row(&f, ft);
            let (cn, cts) = prune_row(&c, ct);
            nodes.push(vec![x.to_string(), fn_, cn]);
            times.push(vec![x.to_string(), fts, cts]);
        }
        out.push(nodes);
        out.push(times);
    }
    out
}

// ---------------------------------------------------------------
// Exp-2 / Exp-3: enumeration runtimes (Fig. 2 and Fig. 5).
// ---------------------------------------------------------------

/// Which parameter a sweep varies.
#[derive(Debug, Clone, Copy)]
enum Axis {
    Alpha,
    Beta,
    Delta,
}

impl Axis {
    fn name(&self) -> &'static str {
        match self {
            Axis::Alpha => "alpha",
            Axis::Beta => "beta",
            Axis::Delta => "delta",
        }
    }

    fn apply(&self, base: FairParams, x: u32) -> FairParams {
        match self {
            Axis::Alpha => FairParams::unchecked(x, base.beta, base.delta),
            Axis::Beta => FairParams::unchecked(base.alpha, x, base.delta),
            Axis::Delta => FairParams::unchecked(base.alpha, base.beta, x),
        }
    }
}

/// Fig. 2: NSF / FairBCEM / FairBCEM++ runtimes, varying α, β, δ on
/// every dataset (NSF only on DBLP, as in the paper; the quick sweep's
/// Youtube therefore has no NSF column, where every run would hit the
/// budget).
pub fn exp2_fig2(opts: &Opts) -> Vec<Table> {
    runtime_sweep(opts, false)
}

/// Fig. 5: BNSF / BFairBCEM / BFairBCEM++ runtimes, varying α, β, δ
/// (BNSF on DBLP, and on the quick sweep's Youtube).
pub fn exp3_fig5(opts: &Opts) -> Vec<Table> {
    runtime_sweep(opts, true)
}

/// The sweep of Fig. 2 (SSFBC) or, with `bi`, Fig. 5 (BSFBC): one
/// table per dataset and axis, a row per value with the runtimes of
/// the three algorithms and the result count.
fn runtime_sweep(opts: &Opts, bi: bool) -> Vec<Table> {
    let (fig, b, model_name) = if bi {
        (5, "B", "BSFBC")
    } else {
        (2, "", "SSFBC")
    };
    let mut out = Vec::new();
    for s in datasets(opts) {
        let g = graph_for(s.dataset);
        let with_nsf = s.dataset == Dataset::Dblp || (bi && opts.quick);
        for axis in [Axis::Alpha, Axis::Beta, Axis::Delta] {
            let range = match (axis, bi) {
                (Axis::Delta, _) => delta_range(opts),
                (_, false) => fig2_range(s.dataset, opts),
                (Axis::Alpha, true) => fig5_alpha_range(s.dataset, opts),
                (Axis::Beta, true) => fig5_beta_range(s.dataset, opts),
            };
            let mut headers = vec![
                axis.name().to_string(),
                format!("{b}FairBCEM(s)"),
                format!("{b}FairBCEM++(s)"),
                format!("#{model_name}"),
            ];
            if with_nsf {
                headers.insert(1, format!("{b}NSF(s)"));
            }
            let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
            let mut t = Table::new(
                format!("Fig. {fig} {} (vary {})", s.dataset, axis.name()),
                &headers,
            );
            for &x in &range {
                let model = if bi {
                    QueryModel::Bsfbc(axis.apply(s.bi_params(), x))
                } else {
                    QueryModel::Ssfbc(axis.apply(s.single_params(), x))
                };
                let time = |algo| time_run(&g, model, algo, opts, VertexOrder::DegreeDesc);
                let mut row = vec![x.to_string()];
                if with_nsf {
                    row.push(time(Algorithm::Nsf).cell());
                }
                let bcem = time(Algorithm::FairBcem);
                let pp = time(Algorithm::FairBcemPP);
                row.push(bcem.cell());
                row.push(pp.cell());
                row.push(pp.count.to_string());
                t.push(row);
            }
            out.push(t);
        }
    }
    out
}

/// Table II: `IDOrd` vs `DegOrd` for all four algorithms at default
/// parameters, per dataset.
pub fn exp2_table2(opts: &Opts) -> Vec<Table> {
    let mut t = Table::new(
        "Table II: runtime (s) with IDOrd and DegOrd orderings",
        &[
            "Algorithm",
            "Ordering",
            "Youtube",
            "Twitter",
            "IMDB",
            "Wiki-cat",
            "DBLP",
        ],
    );
    let ds = if opts.quick {
        vec![Dataset::Youtube]
    } else {
        Dataset::ALL.to_vec()
    };
    if opts.quick {
        t.headers = vec!["Algorithm".into(), "Ordering".into(), "Youtube".into()];
    }
    for bi in [false, true] {
        let b = if bi { "B" } else { "" };
        for (name, algo) in [
            ("FairBCEM", Algorithm::FairBcem),
            ("FairBCEM++", Algorithm::FairBcemPP),
        ] {
            for (oname, order) in [
                ("IDOrd", VertexOrder::IdAsc),
                ("DegOrd", VertexOrder::DegreeDesc),
            ] {
                let mut row = vec![format!("{b}{name}"), oname.to_string()];
                for &d in &ds {
                    let model = if bi {
                        QueryModel::Bsfbc(spec(d).bi_params())
                    } else {
                        QueryModel::Ssfbc(spec(d).single_params())
                    };
                    row.push(time_run(&graph_for(d), model, algo, opts, order).cell());
                }
                t.push(row);
            }
        }
    }
    vec![t]
}

// ---------------------------------------------------------------
// Exp-4: result counts (Fig. 6).
// ---------------------------------------------------------------

/// Fig. 6: numbers of maximal bicliques (MBC), SSFBCs and BSFBCs on
/// Wiki-cat, varying α, β, δ.
///
/// Per the paper's protocol, the MBC baseline counts maximal bicliques
/// with `|L| ≥ α, |R| ≥ 2β` against SSFBC and `|L| ≥ 2α, |R| ≥ 2β`
/// against BSFBC.
pub fn exp4_fig6(opts: &Opts) -> Vec<Table> {
    let d = if opts.quick {
        Dataset::Youtube
    } else {
        Dataset::WikiCat
    };
    let s = spec(d);
    let g = graph_for(d);
    let budget = Budget::time(opts.budget);
    let mut out = Vec::new();

    let count_mbc = |params: FairParams, bi: bool| -> String {
        // Count on the colorful-core-pruned graph (a superset of all
        // fair bicliques' vertices) like the fair counts.
        let pruned = if bi {
            prune(&g, QueryModel::Bsfbc(params), PruneKind::Colorful)
        } else {
            prune(&g, QueryModel::Ssfbc(params), PruneKind::Colorful)
        };
        let (min_l, min_r) = if bi {
            (2 * params.alpha as usize, 2 * params.beta as usize)
        } else {
            (params.alpha as usize, 2 * params.beta as usize)
        };
        let mut sink = CountSink::default();
        let stats = maximal_bicliques(
            &pruned.sub.graph,
            min_l,
            min_r,
            VertexOrder::DegreeDesc,
            budget.clone(),
            fair_biclique::config::Substrate::Auto,
            &mut sink,
        );
        if stats.aborted {
            format!(">{}", sink.count)
        } else {
            sink.count.to_string()
        }
    };

    for axis in [Axis::Alpha, Axis::Beta, Axis::Delta] {
        let range = match axis {
            Axis::Delta => delta_range(opts),
            _ => thin((5..=10).collect(), opts),
        };
        // SSFBC vs MBC.
        let mut t = Table::new(
            format!("Fig. 6 {} #SSFBC vs #MBC (vary {})", d, axis.name()),
            &[axis.name(), "SSFBC", "MBC"],
        );
        for &x in &range {
            let p = axis.apply(s.single_params(), x);
            let r = time_run(
                &g,
                QueryModel::Ssfbc(p),
                Algorithm::FairBcemPP,
                opts,
                VertexOrder::DegreeDesc,
            );
            let c = if r.aborted {
                format!(">{}", r.count)
            } else {
                r.count.to_string()
            };
            t.push(vec![x.to_string(), c, count_mbc(p, false)]);
        }
        out.push(t);
        // BSFBC vs MBC.
        let mut t = Table::new(
            format!("Fig. 6 {} #BSFBC vs #MBC (vary {})", d, axis.name()),
            &[axis.name(), "BSFBC", "MBC"],
        );
        let range_bi = match axis {
            Axis::Delta => delta_range(opts),
            Axis::Alpha => fig5_alpha_range(d, opts),
            Axis::Beta => fig5_beta_range(d, opts),
        };
        for &x in &range_bi {
            let p = axis.apply(s.bi_params(), x);
            let r = time_run(
                &g,
                QueryModel::Bsfbc(p),
                Algorithm::FairBcemPP,
                opts,
                VertexOrder::DegreeDesc,
            );
            let c = if r.aborted {
                format!(">{}", r.count)
            } else {
                r.count.to_string()
            };
            t.push(vec![x.to_string(), c, count_mbc(p, true)]);
        }
        out.push(t);
    }
    out
}

// ---------------------------------------------------------------
// Exp-5: scalability (Fig. 7).
// ---------------------------------------------------------------

/// Fig. 7: runtime on 20%–100% edge samples of DBLP, for the
/// single-side (a) and bi-side (b) algorithms.
pub fn exp5_fig7(opts: &Opts) -> Vec<Table> {
    let d = if opts.quick {
        Dataset::Youtube
    } else {
        Dataset::Dblp
    };
    let s = spec(d);
    let g = graph_for(d);
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let mut ss = Table::new(
        format!("Fig. 7(a) {d} SSFBC scalability (vary m)"),
        &["m", "FairBCEM(s)", "FairBCEM++(s)"],
    );
    let mut bi = Table::new(
        format!("Fig. 7(b) {d} BSFBC scalability (vary m)"),
        &["m", "BFairBCEM(s)", "BFairBCEM++(s)"],
    );
    for &f in &fractions {
        let sub = if f >= 1.0 {
            (*g).clone()
        } else {
            sample_edges(&g, f, 0xf7)
        };
        let label = format!("{:.0}%", f * 100.0);
        let time = |model, algo| time_run(&sub, model, algo, opts, VertexOrder::DegreeDesc).cell();
        for (table, model) in [
            (&mut ss, QueryModel::Ssfbc(s.single_params())),
            (&mut bi, QueryModel::Bsfbc(s.bi_params())),
        ] {
            table.push(vec![
                label.clone(),
                time(model, Algorithm::FairBcem),
                time(model, Algorithm::FairBcemPP),
            ]);
        }
    }
    vec![ss, bi]
}

// ---------------------------------------------------------------
// Exp-6: memory (Fig. 8).
// ---------------------------------------------------------------

/// Fig. 8: memory overhead (MB, graph storage excluded) of the four
/// enumeration pipelines on every dataset.
pub fn exp6_fig8(opts: &Opts) -> Vec<Table> {
    let mut ss = Table::new(
        "Fig. 8(a) memory overhead (MB), SSFBC algorithms",
        &["dataset", "FairBCEM", "FairBCEM++"],
    );
    let mut bi = Table::new(
        "Fig. 8(b) memory overhead (MB), BSFBC algorithms",
        &["dataset", "BFairBCEM", "BFairBCEM++"],
    );
    let mb = |bytes: usize| format!("{:.3}", bytes as f64 / (1024.0 * 1024.0));
    for s in datasets(opts) {
        let g = graph_for(s.dataset);
        let c = cfg(opts, VertexOrder::DegreeDesc);
        let mem = |model, algo| {
            let report = measure(&g, model, algo, &c);
            let report = report.expect("every algorithm runs the absolute models");
            mb(report.total())
        };
        for (table, model) in [
            (&mut ss, QueryModel::Ssfbc(s.single_params())),
            (&mut bi, QueryModel::Bsfbc(s.bi_params())),
        ] {
            table.push(vec![
                s.dataset.to_string(),
                mem(model, Algorithm::FairBcem),
                mem(model, Algorithm::FairBcemPP),
            ]);
        }
    }
    vec![ss, bi]
}

// ---------------------------------------------------------------
// Exp-7: proportion models (Fig. 11 and Fig. 12).
// ---------------------------------------------------------------

/// Fig. 11 + Fig. 12: number of PSSFBCs/PBSFBCs and runtime of
/// `FairBCEMPro++` / `BFairBCEMPro++` on Youtube, varying θ.
pub fn exp7_fig11_12(opts: &Opts) -> Vec<Table> {
    let d = Dataset::Youtube;
    let s = spec(d);
    let g = graph_for(d);
    let thetas = [0.30, 0.35, 0.40, 0.45, 0.50];
    let mut counts = Table::new(
        format!("Fig. 11 {d} #PSSFBC / #PBSFBC (vary theta)"),
        &["theta", "PSSFBC", "PBSFBC"],
    );
    let mut times = Table::new(
        format!("Fig. 12 {d} FairBCEMPro++ / BFairBCEMPro++ time (vary theta)"),
        &["theta", "FairBCEMPro++(s)", "BFairBCEMPro++(s)"],
    );
    for &theta in &thetas {
        let pro_s = ProParams::new(
            s.default_single.0,
            s.default_single.1,
            s.default_delta,
            theta,
        )
        .expect("valid");
        let pro_b =
            ProParams::new(s.default_bi.0, s.default_bi.1, s.default_delta, theta).expect("valid");
        let c = cfg(opts, VertexOrder::DegreeDesc);
        let count = |model| {
            PreparedQuery::prepare(&g, model, c.prune, c.substrate)
                .count(&c)
                .stats
        };
        let (st_s, t_s) = timed(|| count(QueryModel::Pssfbc(pro_s)));
        let (st_b, t_b) = timed(|| count(QueryModel::Pbsfbc(pro_b)));
        let (n_s, n_b) = (st_s.emitted, st_b.emitted);
        counts.push(vec![theta.to_string(), n_s.to_string(), n_b.to_string()]);
        times.push(vec![
            theta.to_string(),
            fmt_time(t_s, st_s.aborted),
            fmt_time(t_b, st_b.aborted),
        ]);
    }
    vec![counts, times]
}

// ---------------------------------------------------------------
// Ablation: contribution of each pruning stage (DESIGN.md §4).
// ---------------------------------------------------------------

/// Ablation: end-to-end enumeration time with pruning disabled
/// (`None`), degree-only (`FCore`/`BFCore`), and full colorful pruning
/// (`CFCore`/`BCFCore`) — quantifies how much of the paper's speedup
/// comes from each stage.
pub fn ablation_pruning(opts: &Opts) -> Vec<Table> {
    let ds = if opts.quick {
        vec![Dataset::Youtube]
    } else {
        vec![Dataset::Youtube, Dataset::WikiCat, Dataset::Dblp]
    };
    let mut ss = Table::new(
        "Ablation: SSFBC (FairBCEM++) end-to-end time by pruning stage",
        &["dataset", "NoPrune(s)", "FCore(s)", "CFCore(s)", "#SSFBC"],
    );
    let mut bi = Table::new(
        "Ablation: BSFBC (BFairBCEM++) end-to-end time by pruning stage",
        &["dataset", "NoPrune(s)", "BFCore(s)", "BCFCore(s)", "#BSFBC"],
    );
    for d in ds {
        let s = spec(d);
        let g = graph_for(d);
        let mut row = vec![d.to_string()];
        let mut count = 0u64;
        for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
            let mut sink = CountSink::default();
            let c = RunConfig {
                prune,
                order: VertexOrder::DegreeDesc,
                budget: Budget::time(opts.budget),
                ..RunConfig::default()
            };
            let ((_, stats), t) = timed(|| {
                run(
                    &g,
                    QueryModel::Ssfbc(s.single_params()),
                    Algorithm::FairBcemPP,
                    &c,
                    &mut sink,
                )
                .expect("FairBCEM++ runs every model")
            });
            row.push(fmt_time(t, stats.aborted));
            count = sink.count;
        }
        row.push(count.to_string());
        ss.push(row);

        let mut row = vec![d.to_string()];
        let mut count = 0u64;
        for prune in [PruneKind::None, PruneKind::FCore, PruneKind::Colorful] {
            let mut sink = CountSink::default();
            let c = RunConfig {
                prune,
                order: VertexOrder::DegreeDesc,
                budget: Budget::time(opts.budget),
                ..RunConfig::default()
            };
            let ((_, stats), t) = timed(|| {
                run(
                    &g,
                    QueryModel::Bsfbc(s.bi_params()),
                    Algorithm::FairBcemPP,
                    &c,
                    &mut sink,
                )
                .expect("FairBCEM++ runs every model")
            });
            row.push(fmt_time(t, stats.aborted));
            count = sink.count;
        }
        row.push(count.to_string());
        bi.push(row);
    }
    vec![ss, bi]
}

// ---------------------------------------------------------------
// Exp-8: parallel engine scaling (extension; not in the paper).
// ---------------------------------------------------------------

/// Runtime of every miner on the root-split parallel engine at 1/2/4/8
/// worker threads (1 = the serial pipeline; all runs on one shared
/// global budget).
pub fn exp8_parallel_scaling(opts: &Opts) -> Vec<Table> {
    use fair_biclique::maximum::SizeMetric;
    use fair_biclique::obs::SpanRecorder;
    use fair_biclique::pipeline::enumerate;
    use fair_biclique::prepared::ResultMode;

    let d = if opts.quick {
        Dataset::Youtube
    } else {
        Dataset::Dblp
    };
    let s = spec(d);
    let g = graph_for(d);
    let threads = [1usize, 2, 4, 8];
    let mut t = Table::new(
        format!("Parallel scaling {d} (root-split engine, vary threads)"),
        &["miner", "t=1(s)", "t=2(s)", "t=4(s)", "t=8(s)", "results"],
    );
    let params = s.single_params();
    let bi = s.bi_params();
    let pro = s.single_pro_params();
    let bi_pro = s.bi_pro_params();
    type Runner<'a> = Box<dyn Fn(&RunConfig) -> (usize, bool) + 'a>;
    let report = |r: fair_biclique::pipeline::RunReport| (r.bicliques.len(), r.stats.aborted);
    let miners: Vec<(&str, Runner)> = vec![
        (
            "FairBCEM++ (SSFBC)",
            Box::new(|cfg: &RunConfig| report(enumerate(&g, QueryModel::Ssfbc(params), cfg))),
        ),
        (
            "BFairBCEM++ (BSFBC)",
            Box::new(|cfg: &RunConfig| report(enumerate(&g, QueryModel::Bsfbc(bi), cfg))),
        ),
        (
            "FairBCEMPro++ (PSSFBC)",
            Box::new(|cfg: &RunConfig| report(enumerate(&g, QueryModel::Pssfbc(pro), cfg))),
        ),
        (
            "BFairBCEMPro++ (PBSFBC)",
            Box::new(|cfg: &RunConfig| report(enumerate(&g, QueryModel::Pbsfbc(bi_pro), cfg))),
        ),
        (
            "maximum (SSFBC)",
            Box::new(|cfg: &RunConfig| {
                let query =
                    PreparedQuery::prepare(&g, QueryModel::Ssfbc(params), cfg.prune, cfg.substrate);
                let mode = ResultMode::Maximum(SizeMetric::Vertices);
                report(query.answer(mode, cfg, &mut SpanRecorder::disabled()))
            }),
        ),
    ];
    // The DBLP cells finish in tens of milliseconds, where a single
    // timing is dominated by scheduler noise; report the median of a
    // few repeats so snapshot-to-snapshot deltas reflect the code.
    let reps = if opts.quick { 3 } else { 5 };
    for (name, run) in miners {
        let mut row = vec![name.to_string()];
        let mut count = 0usize;
        for &n in &threads {
            let cfg = RunConfig {
                budget: Budget::time(opts.budget),
                threads: n,
                ..RunConfig::default()
            };
            let mut elapsed = Vec::with_capacity(reps);
            let mut aborted = false;
            for _ in 0..reps {
                let ((c, a), e) = timed(|| run(&cfg));
                count = c;
                aborted = a;
                elapsed.push(e);
                if aborted {
                    break;
                }
            }
            elapsed.sort();
            row.push(fmt_time(elapsed[elapsed.len() / 2], aborted));
        }
        row.push(count.to_string());
        t.push(row);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Opts {
        Opts {
            quick: true,
            budget: Duration::from_secs(2),
        }
    }

    #[test]
    fn fig3_and_fig4_quick() {
        let tables = exp1_fig3(&quick_opts());
        assert_eq!(tables.len(), 4);
        assert!(!tables[0].rows.is_empty());
        let tables = exp1_fig4(&quick_opts());
        assert_eq!(tables.len(), 4);
        // CFCore keeps no more nodes than FCore in every row.
        for t in &tables {
            if !t.headers[1].contains("(s)") {
                for row in &t.rows {
                    let f: usize = row[1].parse().unwrap();
                    let c: usize = row[2].parse().unwrap();
                    assert!(c <= f, "{}: {row:?}", t.title);
                }
            }
        }
    }

    #[test]
    fn fig2_quick_runs() {
        let tables = exp2_fig2(&quick_opts());
        assert_eq!(tables.len(), 3); // one dataset x three axes
        for t in &tables {
            assert!(!t.rows.is_empty());
        }
    }

    #[test]
    fn ablation_quick_runs() {
        let tables = ablation_pruning(&quick_opts());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), 1);
    }

    #[test]
    fn table2_quick_runs() {
        let tables = exp2_table2(&quick_opts());
        assert_eq!(tables[0].rows.len(), 8);
    }

    #[test]
    fn parallel_scaling_quick() {
        let tables = exp8_parallel_scaling(&quick_opts());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 5, "one row per miner");
        assert_eq!(tables[0].headers.len(), 6);
    }

    #[test]
    fn fig7_fig8_fig11_quick() {
        assert_eq!(exp5_fig7(&quick_opts()).len(), 2);
        assert_eq!(exp6_fig8(&quick_opts()).len(), 2);
        let t = exp7_fig11_12(&quick_opts());
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].rows.len(), 5);
    }
}
