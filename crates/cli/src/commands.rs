//! Execution of parsed [`Command`]s.
//!
//! Output is written through a caller-supplied [`io::Write`]
//! ([`execute_to`]), so a closed pipe (`fbe enumerate | head`)
//! surfaces as a normal `io::Error` instead of a panic; the binary
//! maps `BrokenPipe` to a clean exit. Timing lines go to stderr so
//! stdout stays byte-stable across runs.

use crate::args::{Command, GenerateKind, GraphSource};
use bigraph::{BipartiteGraph, Side};
use fair_biclique::biclique::{Biclique, BicliqueSink, CollectSink, CountSink, TopKSink};
use fair_biclique::config::{
    Budget, FairParams, ProParams, RunConfig, StopReason, Substrate, VertexOrder,
};
use fair_biclique::obs::SpanRecorder;
use fair_biclique::pipeline::{self, Algorithm};
use fair_biclique::prepared::{PreparedQuery, QueryModel};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Appended to a result line when the budget cut the run short: the
/// count (or maximum) is then a lower bound.
const LOWER_BOUND: &str = " (budget hit; lower bound)";

/// Why a CLI invocation failed.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments or a failed operation; print the message, exit 1.
    Usage(String),
    /// The output stream failed (closed pipe, full disk, ...).
    Io(io::Error),
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Usage(msg)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => f.write_str(m),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// Execute a command, writing its output to `out`.
pub fn execute_to(cmd: Command, out: &mut dyn Write) -> Result<(), CliError> {
    match cmd {
        Command::Help => Ok(out.write_all(crate::HELP.as_bytes())?),
        Command::Generate { kind, out: dest } => {
            let text = generate(kind, &dest)?;
            Ok(out.write_all(text.as_bytes())?)
        }
        Command::Stats { source } => stats(&source, out),
        Command::Prune {
            source,
            alpha,
            beta,
            bi,
            kind,
        } => {
            let text = prune(&source, alpha, beta, bi, kind)?;
            Ok(out.write_all(text.as_bytes())?)
        }
        Command::Enumerate {
            source,
            alpha,
            beta,
            delta,
            theta,
            bi,
            algo,
            order,
            count_only,
            top,
            budget,
            threads,
            sorted,
            substrate,
            trace,
        } => enumerate(
            out, &source, alpha, beta, delta, theta, bi, algo, order, count_only, top, budget,
            threads, sorted, substrate, trace,
        ),
        Command::Maximum {
            source,
            alpha,
            beta,
            delta,
            bi,
            metric,
            order,
            budget,
            threads,
            substrate,
        } => maximum(
            out, &source, alpha, beta, delta, bi, metric, order, budget, threads, substrate,
        ),
        Command::Serve {
            host,
            port,
            workers,
            queue,
            plan_cache,
            default_limit,
            data_root,
            shards,
        } => serve(
            out,
            &host,
            port,
            workers,
            queue,
            plan_cache,
            default_limit,
            data_root,
            shards,
        ),
        Command::Batch { connect, path } => batch(out, connect.as_deref(), path.as_deref()),
    }
}

/// Execute a command, returning the output as a string (test- and
/// library-friendly wrapper over [`execute_to`]; long-running
/// commands like `serve` should go through `execute_to`).
pub fn execute(cmd: Command) -> Result<String, String> {
    let mut buf = Vec::new();
    match execute_to(cmd, &mut buf) {
        Ok(()) => Ok(String::from_utf8_lossy(&buf).into_owned()),
        Err(e) => Err(e.to_string()),
    }
}

fn stem_paths(stem: &str) -> (PathBuf, PathBuf, PathBuf) {
    let base = Path::new(stem);
    (
        base.with_extension("edges"),
        base.with_extension("uattr"),
        base.with_extension("lattr"),
    )
}

fn load(source: &GraphSource) -> Result<BipartiteGraph, String> {
    let GraphSource::Path { stem, attr_domains } = source;
    bigraph::io::load_stem(Path::new(stem), attr_domains.0, attr_domains.1)
        .map_err(|e| format!("loading {stem}: {e}"))
}

fn generate(kind: GenerateKind, out: &str) -> Result<String, String> {
    let (g, label) = match kind {
        GenerateKind::Dataset(d) => {
            let spec = fbe_datasets::corpus::spec(d);
            (
                spec.build(),
                format!("{d} analog (defaults: {})", spec.single_params()),
            )
        }
        GenerateKind::Uniform {
            n_upper,
            n_lower,
            m,
            attrs,
            seed,
        } => {
            if n_upper == 0 || n_lower == 0 {
                return Err("generate: sides must be non-empty".into());
            }
            (
                bigraph::generate::random_uniform(n_upper, n_lower, m, attrs.0, attrs.1, seed),
                format!("uniform({n_upper},{n_lower},{m}) seed {seed}"),
            )
        }
    };
    let (edges, uattr, lattr) = stem_paths(out);
    if let Some(dir) = edges.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    let write = |p: &Path, f: &dyn Fn(&mut Vec<u8>) -> io::Result<()>| -> Result<(), String> {
        let mut buf = Vec::new();
        f(&mut buf).map_err(|e| e.to_string())?;
        std::fs::write(p, buf).map_err(|e| format!("writing {}: {e}", p.display()))
    };
    write(&edges, &|w| bigraph::io::write_edge_list(&g, w))?;
    write(&uattr, &|w| bigraph::io::write_attrs(&g, Side::Upper, w))?;
    write(&lattr, &|w| bigraph::io::write_attrs(&g, Side::Lower, w))?;
    Ok(format!(
        "wrote {label}: {} / {} / {}\n{}\n",
        edges.display(),
        uattr.display(),
        lattr.display(),
        bigraph::stats::graph_stats(&g)
    ))
}

fn stats(source: &GraphSource, out: &mut dyn Write) -> Result<(), CliError> {
    let g = load(source)?;
    let st = bigraph::stats::graph_stats(&g);
    let butterflies = bigraph::butterfly::count_butterflies(&g);
    writeln!(out, "{st}")?;
    writeln!(
        out,
        "attr counts U: {:?}  V: {:?}",
        st.upper.attr_counts, st.lower.attr_counts
    )?;
    writeln!(out, "butterflies: {butterflies}")?;
    Ok(())
}

fn prune(
    source: &GraphSource,
    alpha: u32,
    beta: u32,
    bi: bool,
    kind: fair_biclique::config::PruneKind,
) -> Result<String, String> {
    let g = load(source)?;
    let params = FairParams::new(alpha, beta, 0).map_err(|e| e.to_string())?;
    let model = if bi {
        QueryModel::Bsfbc(params)
    } else {
        QueryModel::Ssfbc(params)
    };
    let out = pipeline::prune(&g, model, kind);
    Ok(format!(
        "{kind:?} ({}): {} -> {} vertices remaining ({} -> {} edges)\n",
        if bi { "bi-side" } else { "single-side" },
        out.stats.upper_before + out.stats.lower_before,
        out.stats.remaining_vertices(),
        out.stats.edges_before,
        out.stats.edges_after,
    ))
}

/// Report a run's wall-clock phases on stderr (stdout stays
/// byte-stable for diffing across runs, threads, and substrates).
/// With `--trace` the recorder holds a span tree and its indented
/// `span ...` lines follow the summary, so the one-line timing and
/// the detailed breakdown read as one block.
fn report_timing(total: Duration, prune: Duration, stop: Option<StopReason>, rec: &SpanRecorder) {
    eprintln!(
        "timing: total {total:.3?} (prune {prune:.3?}, enumerate {:.3?}){}",
        total.saturating_sub(prune),
        stop.map(|r| format!(" truncated by {r}"))
            .unwrap_or_default(),
    );
    for line in rec.render() {
        eprintln!("{line}");
    }
}

#[allow(clippy::too_many_arguments)]
fn enumerate(
    out: &mut dyn Write,
    source: &GraphSource,
    alpha: u32,
    beta: u32,
    delta: u32,
    theta: Option<f64>,
    bi: bool,
    algo: Algorithm,
    order: VertexOrder,
    count_only: bool,
    top: Option<usize>,
    budget: Option<Duration>,
    threads: usize,
    sorted: bool,
    substrate: Substrate,
    trace: bool,
) -> Result<(), CliError> {
    // `--algo` selects among the paper's serial algorithms for the
    // absolute models: only the default `++` miners run on the parallel
    // engine, and the proportion models have no baselines.
    if algo != Algorithm::FairBcemPP {
        if threads > 1 {
            return Err(CliError::Usage(
                "enumerate: --threads > 1 requires the default --algo bcem++".into(),
            ));
        }
        if theta.is_some() {
            return Err(CliError::Usage(
                "enumerate: --theta requires the default --algo bcem++ \
                 (the proportion models have no baselines)"
                    .into(),
            ));
        }
    }
    let g = load(source)?;
    let params = FairParams::new(alpha, beta, delta).map_err(|e| e.to_string())?;
    let cfg = RunConfig {
        order,
        budget: budget.map_or(Budget::UNLIMITED, Budget::time),
        threads,
        sorted,
        substrate,
        ..RunConfig::default()
    };
    let pro = match theta {
        Some(t) => Some(ProParams::new(alpha, beta, delta, t).map_err(|e| e.to_string())?),
        None => None,
    };
    let model = match (bi, pro) {
        (false, None) => QueryModel::Ssfbc(params),
        (true, None) => QueryModel::Bsfbc(params),
        (false, Some(p)) => QueryModel::Pssfbc(p),
        (true, Some(p)) => QueryModel::Pbsfbc(p),
    };
    let (count, aborted, shown) = if algo != Algorithm::FairBcemPP {
        enumerate_baseline(&g, model, algo, &cfg, count_only, top)?
    } else {
        // With --trace the recorder collects the same span tree the
        // service's TRACE verb shows; a disabled recorder renders nothing.
        let mut rec = if trace {
            SpanRecorder::enabled()
        } else {
            SpanRecorder::disabled()
        };
        enumerate_prepared(&g, model, &cfg, count_only, top, &mut rec)
    };
    render(out, model.name(), count, aborted, count_only, top, &shown)
}

/// Run a `++` miner on the prepared path at any thread count: every
/// mode is a sink choice on [`PreparedQuery::stream`]. Counting and
/// top-k stream into bounded per-worker sinks — no mode materializes
/// more than it prints. Returns `(count, aborted, bicliques to show)`;
/// the run's spans land in `rec`.
fn enumerate_prepared(
    g: &BipartiteGraph,
    model: QueryModel,
    cfg: &RunConfig,
    count_only: bool,
    top: Option<usize>,
    rec: &mut SpanRecorder,
) -> (u64, bool, Vec<Biclique>) {
    let t0 = Instant::now();
    let prepared =
        PreparedQuery::prepare_rec(g, model, cfg.prune, cfg.substrate, &Budget::UNLIMITED, rec)
            // fbe-lint: allow(no-panic-paths): Budget::UNLIMITED never interrupts, so Err is unreachable — same contract PreparedQuery::prepare relies on
            .expect("an unlimited budget never interrupts");
    let (stats, shown) = if count_only {
        (prepared.count_rec(cfg, rec).stats, Vec::new())
    } else if let Some(k) = top {
        let (sinks, stats) = prepared.stream(cfg, &|| TopKSink::new(k), rec);
        let mut merged = TopKSink::new(k);
        for bc in sinks.into_iter().flat_map(TopKSink::into_sorted) {
            merged.emit(&bc.upper, &bc.lower);
        }
        (stats, merged.into_sorted())
    } else {
        let report = prepared.execute_rec(cfg, rec);
        (report.stats, report.bicliques)
    };
    report_timing(t0.elapsed(), prepared.prune_elapsed(), stats.stop, rec);
    (stats.emitted, stats.aborted, shown)
}

/// Run one of the paper's serial baselines (`--algo nsf|bcem`:
/// `NSF` / `FairBCEM`, or `BNSF` / `BFairBCEM` with `--bi`).
fn enumerate_baseline(
    g: &BipartiteGraph,
    model: QueryModel,
    algo: Algorithm,
    cfg: &RunConfig,
    count_only: bool,
    top: Option<usize>,
) -> Result<(u64, bool, Vec<Biclique>), String> {
    let t0 = Instant::now();
    let run = |sink: &mut dyn BicliqueSink| {
        pipeline::run(g, model, algo, cfg, sink)
            .map(|(_, stats)| stats)
            .map_err(|e| format!("enumerate: {e}"))
    };
    let (stats, shown) = if count_only {
        (run(&mut CountSink::default())?, Vec::new())
    } else if let Some(k) = top {
        let mut sink = TopKSink::new(k);
        (run(&mut sink)?, sink.into_sorted())
    } else {
        let mut sink = CollectSink::default();
        let stats = run(&mut sink)?;
        let mut bicliques = sink.bicliques;
        if cfg.sorted {
            fair_biclique::results::canonical_order(&mut bicliques);
        }
        (stats, bicliques)
    };
    eprintln!("timing: total {:.3?}", t0.elapsed());
    Ok((stats.emitted, stats.aborted, shown))
}

#[allow(clippy::too_many_arguments)]
fn maximum(
    out: &mut dyn Write,
    source: &GraphSource,
    alpha: u32,
    beta: u32,
    delta: u32,
    bi: bool,
    metric: fair_biclique::maximum::SizeMetric,
    order: VertexOrder,
    budget: Option<Duration>,
    threads: usize,
    substrate: Substrate,
) -> Result<(), CliError> {
    let g = load(source)?;
    let params = FairParams::new(alpha, beta, delta).map_err(|e| e.to_string())?;
    let cfg = RunConfig {
        order,
        budget: budget.map_or(Budget::UNLIMITED, Budget::time),
        threads,
        substrate,
        ..RunConfig::default()
    };
    let model = if bi {
        QueryModel::Bsfbc(params)
    } else {
        QueryModel::Ssfbc(params)
    };
    let t0 = Instant::now();
    let prepared = PreparedQuery::prepare(&g, model, cfg.prune, cfg.substrate);
    let (best, stats) = prepared.maximum(metric, &cfg);
    report_timing(
        t0.elapsed(),
        prepared.prune_elapsed(),
        stats.stop,
        &SpanRecorder::disabled(),
    );
    render_max(out, model, metric, best.as_ref(), stats.aborted)
}

/// Print a maximum search's answer; a truncated search (`aborted`)
/// reports its best-so-far — or "none" — as a lower bound.
fn render_max(
    out: &mut dyn Write,
    model: QueryModel,
    metric: fair_biclique::maximum::SizeMetric,
    best: Option<&Biclique>,
    aborted: bool,
) -> Result<(), CliError> {
    let suffix = if aborted { LOWER_BOUND } else { "" };
    match best {
        Some(bc) => writeln!(
            out,
            "maximum {model} ({metric:?}): |L|={} |R|={}{suffix}\n  {bc}",
            bc.upper.len(),
            bc.lower.len()
        )?,
        None => writeln!(out, "maximum {model} ({metric:?}): none{suffix}")?,
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn serve(
    out: &mut dyn Write,
    host: &str,
    port: u16,
    workers: usize,
    queue: usize,
    plan_cache: usize,
    default_limit: u64,
    data_root: Option<String>,
    shards: Vec<String>,
) -> Result<(), CliError> {
    let coordinator = !shards.is_empty();
    let engine = fbe_service::engine::Engine::new(fbe_service::ServiceConfig {
        workers,
        queue_depth: queue,
        plan_cache_capacity: plan_cache,
        default_result_limit: default_limit,
        data_root: data_root.map(std::path::PathBuf::from),
        shards,
        ..fbe_service::ServiceConfig::default()
    });
    let server = fbe_service::server::Server::bind(&format!("{host}:{port}"), engine)
        .map_err(|e| CliError::Usage(format!("serve: binding {host}:{port}: {e}")))?;
    let addr = server.local_addr()?;
    let role = if coordinator { " (coordinator)" } else { "" };
    writeln!(out, "fbe-service listening on {addr}{role}")?;
    out.flush()?;
    server.run()?;
    writeln!(out, "fbe-service stopped")?;
    Ok(())
}

fn batch(out: &mut dyn Write, connect: Option<&str>, path: Option<&str>) -> Result<(), CliError> {
    let mut input: Box<dyn io::BufRead> = match path {
        Some(p) if p != "-" => Box::new(io::BufReader::new(
            std::fs::File::open(p).map_err(|e| CliError::Usage(format!("batch: {p}: {e}")))?,
        )),
        _ => Box::new(io::BufReader::new(io::stdin())),
    };
    match connect {
        Some(addr) => fbe_service::batch::run_client(addr, &mut input, out)?,
        None => {
            let engine = fbe_service::engine::Engine::new(fbe_service::ServiceConfig::default());
            fbe_service::batch::run_batch(&engine, &mut input, out)?;
        }
    }
    Ok(())
}

fn render(
    out: &mut dyn Write,
    model: &str,
    count: u64,
    aborted: bool,
    count_only: bool,
    top: Option<usize>,
    bicliques: &[Biclique],
) -> Result<(), CliError> {
    let suffix = if aborted { LOWER_BOUND } else { "" };
    writeln!(out, "{model} count: {count}{suffix}")?;
    if count_only {
        return Ok(());
    }
    if let Some(k) = top {
        writeln!(out, "top {k} by size:")?;
    }
    for bc in bicliques {
        writeln!(out, "  {bc}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_rejects_missing() {
        let src = GraphSource::Path {
            stem: "/definitely/not/here".into(),
            attr_domains: (2, 2),
        };
        assert!(load(&src).is_err());
    }

    #[test]
    fn load_bare_edge_file() {
        let dir = std::env::temp_dir().join("fbe_cli_cmd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bare.txt");
        std::fs::write(&p, "0 0\n0 1\n1 1\n").unwrap();
        let src = GraphSource::Path {
            stem: p.to_str().unwrap().to_string(),
            attr_domains: (1, 1),
        };
        let g = load(&src).unwrap();
        assert_eq!(g.n_edges(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batch_scripts_can_mutate_resident_graphs() {
        let dir = std::env::temp_dir().join("fbe_cli_batch_update_test");
        std::fs::create_dir_all(&dir).unwrap();
        let script = dir.join("session.fbe");
        std::fs::write(
            &script,
            "GEN g uniform:12,12,60,4\n\
             ENUM g ssfbc alpha=1 beta=1 delta=1 count-only\n\
             ADDVERTEX g lower attr=0\n\
             ADDEDGE g 0 12\n\
             DELEDGE g 0 12\n\
             ENUM g ssfbc alpha=1 beta=1 delta=1 count-only\n",
        )
        .unwrap();
        let mut buf = Vec::new();
        batch(&mut buf, None, Some(script.to_str().unwrap())).unwrap();
        let out = String::from_utf8(buf).unwrap();
        assert!(out.contains("vertex=12"), "{out}");
        assert!(out.contains("version=3"), "{out}");
        assert!(!out.contains("ERR"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn render_str(
        model: &str,
        count: u64,
        aborted: bool,
        count_only: bool,
        top: Option<usize>,
        bicliques: &[fair_biclique::biclique::Biclique],
    ) -> String {
        let mut buf = Vec::new();
        render(&mut buf, model, count, aborted, count_only, top, bicliques).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn render_formats() {
        let s = render_str("SSFBC", 3, true, true, None, &[]);
        assert!(s.contains("lower bound"));
        let s = render_str(
            "BSFBC",
            1,
            false,
            false,
            Some(2),
            &[fair_biclique::biclique::Biclique::new(vec![0], vec![1])],
        );
        assert!(s.contains("top 2"));
        assert!(s.contains("L=[0]"));
    }

    fn cli(argv: &[&str]) -> String {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        crate::run(&argv).unwrap()
    }

    /// Generate a uniform random graph under a fresh temp directory;
    /// returns the directory (for cleanup) and the graph stem.
    fn uniform_graph(dir: &str, spec: &str, seed: &str) -> (PathBuf, String) {
        let dir = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("g").to_str().unwrap().to_string();
        cli(&[
            "generate",
            "--uniform",
            spec,
            "--seed",
            seed,
            "--out",
            &stem,
        ]);
        (dir, stem)
    }

    #[test]
    fn streaming_modes_match_across_thread_counts() {
        let (dir, stem) = uniform_graph("fbe_cli_streaming_modes", "30,30,220", "5");
        let models: [&[&str]; 4] = [
            &[],
            &["--bi"],
            &["--theta", "0.4"],
            &["--bi", "--theta", "0.4"],
        ];
        for model in models {
            let run = |mode: &[&str], threads: &str| {
                let mut argv = vec![
                    "enumerate",
                    &stem,
                    "--alpha",
                    "2",
                    "--beta",
                    "1",
                    "--delta",
                    "1",
                ];
                argv.extend(model);
                argv.extend(mode);
                argv.extend(["--threads", threads]);
                cli(&argv)
            };
            let count = run(&["--count-only"], "1");
            assert!(!count.contains("count: 0"), "{model:?}: {count}");
            assert_eq!(count, run(&["--count-only"], "4"), "{model:?}");
            // The streamed count equals the collect-mode count line.
            let collected = run(&[], "1");
            assert_eq!(count.lines().next(), collected.lines().next(), "{model:?}");
            let top = run(&["--top", "5"], "1");
            assert!(top.contains("top 5 by size"), "{model:?}: {top}");
            assert_eq!(top, run(&["--top", "5"], "4"), "{model:?}");
        }
        for model in [&[][..], &["--bi"]] {
            let run = |threads: &str| {
                let mut argv = vec![
                    "maximum", &stem, "--alpha", "2", "--beta", "1", "--delta", "1",
                ];
                argv.extend(model);
                argv.extend(["--threads", threads]);
                cli(&argv)
            };
            let one = run("1");
            assert!(one.contains("|L|="), "{model:?}: {one}");
            assert_eq!(one, run("4"), "{model:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maximum_marks_a_budget_cut_answer_as_lower_bound() {
        // The deadline is probed once per 1024 ticks of a clock; at
        // alpha 1 this graph's serial walk is longer than that, so a
        // zero budget deterministically cuts it short. (Split across
        // workers, each clock may finish its share under 1024 ticks.)
        let (dir, stem) = uniform_graph("fbe_cli_maximum_budget", "40,40,300", "11");
        let base = [
            "maximum", &stem, "--alpha", "1", "--beta", "1", "--delta", "1",
        ];
        let full = cli(&base);
        assert!(!full.contains("lower bound"), "{full}");
        let mut argv = base.to_vec();
        argv.extend(["--budget-secs", "0"]);
        let cut = cli(&argv);
        assert!(
            cut.lines()
                .next()
                .unwrap()
                .ends_with("(budget hit; lower bound)"),
            "{cut}"
        );
        // The "none" answer of a truncated search carries the marker too.
        let mut buf = Vec::new();
        let model = QueryModel::Ssfbc(FairParams::unchecked(1, 1, 1));
        render_max(&mut buf, model, Default::default(), None, true).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "maximum SSFBC (Vertices): none (budget hit; lower bound)\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_enumerate_span_has_stats_detail_in_every_mode() {
        let g = bigraph::generate::random_uniform(30, 30, 220, 2, 2, 5);
        let model = QueryModel::Ssfbc(FairParams::unchecked(2, 1, 1));
        let cfg = RunConfig::default();
        // (count_only, top): count, top-k, collect.
        for (count_only, top) in [(true, None), (false, Some(3)), (false, None)] {
            let mut rec = SpanRecorder::enabled();
            let (count, _, _) = enumerate_prepared(&g, model, &cfg, count_only, top, &mut rec);
            let span = rec.spans().iter().find(|s| s.name == "enumerate");
            let detail = &span.expect("an enumerate span").detail;
            for key in ["threads=1 ", "nodes=", "aborted=false ", "peak_bytes="] {
                assert!(detail.contains(key), "{top:?}: {key} missing in {detail:?}");
            }
            let emitted = format!("emitted={count} ");
            assert!(detail.contains(&emitted), "{top:?}: {detail:?}");
        }
    }

    #[test]
    fn write_errors_surface_as_io_not_panic() {
        /// A sink that fails like a closed pipe.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = render(&mut Broken, "SSFBC", 1, false, false, None, &[]).unwrap_err();
        match err {
            CliError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
