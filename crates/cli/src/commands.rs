//! Execution of parsed [`Command`]s.
//!
//! Output is written through a caller-supplied [`io::Write`]
//! ([`execute_to`]), so a closed pipe (`fbe enumerate | head`)
//! surfaces as a normal `io::Error` instead of a panic; the binary
//! maps `BrokenPipe` to a clean exit. Timing lines go to stderr so
//! stdout stays byte-stable across runs.

use crate::args::{Command, GraphSource};
use bigraph::{BipartiteGraph, Side};
use fair_biclique::biclique::{
    Biclique, BicliqueSink, CollectSink, CountSink, EnumStats, TopKSink,
};
use fair_biclique::config::{Budget, FairParams, RunConfig};
use fair_biclique::maximum::MaxSink;
use fair_biclique::obs::SpanRecorder;
use fair_biclique::pipeline::{self, Algorithm, RunReport};
use fair_biclique::prepared::{PreparedQuery, QueryModel, ResultMode};
use fbe_service::protocol::GenSpec;
use fbe_service::ServiceConfig;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

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
        Command::Generate { spec, out: dest } => {
            let text = generate(spec, &dest)?;
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
        Command::Query {
            source,
            model,
            cfg,
            algo,
            mode,
            trace,
        } => {
            let g = load(&source)?;
            let (stats, shown) = if algo == Algorithm::FairBcemPP {
                // With --trace the recorder collects the same span tree
                // the service's TRACE verb shows; a disabled recorder
                // renders nothing.
                let mut rec = if trace {
                    SpanRecorder::enabled()
                } else {
                    SpanRecorder::disabled()
                };
                let report = query(&g, model, &cfg, mode, &mut rec);
                report_timing(&report, &rec);
                (report.stats, report.bicliques)
            } else {
                let t0 = Instant::now();
                let ran = query_baseline(&g, model, algo, &cfg, mode)?;
                eprintln!("timing: total {:.3?}", t0.elapsed());
                ran
            };
            render(out, model, mode, stats.emitted, stats.aborted, &shown)
        }
        Command::Serve { host, port, config } => serve(out, &host, port, config),
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

fn generate(spec: GenSpec, out: &str) -> Result<String, String> {
    let (g, _) = fbe_service::catalog::generate(spec);
    let label = match spec {
        GenSpec::Dataset(d) => format!(
            "{d} analog (defaults: {})",
            fbe_datasets::corpus::spec(d).single_params()
        ),
        GenSpec::Uniform {
            n_upper,
            n_lower,
            m,
            seed,
            ..
        } => format!("uniform({n_upper},{n_lower},{m}) seed {seed}"),
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
fn report_timing(report: &RunReport, rec: &SpanRecorder) {
    eprintln!(
        "timing: total {:.3?} (prune {:.3?}, enumerate {:.3?}){}",
        report.elapsed,
        report.prune_elapsed,
        report.enumerate_elapsed,
        report
            .truncated_by
            .map(|r| format!(" truncated by {r}"))
            .unwrap_or_default(),
    );
    for line in rec.render() {
        eprintln!("{line}");
    }
}

/// Run a `++` miner on the prepared path in `mode`, at any thread
/// count; the preparation and the run are traced into `rec`.
fn query(
    g: &BipartiteGraph,
    model: QueryModel,
    cfg: &RunConfig,
    mode: ResultMode,
    rec: &mut SpanRecorder,
) -> RunReport {
    PreparedQuery::prepare_rec(g, model, cfg.prune, cfg.substrate, &Budget::UNLIMITED, rec)
        // fbe-lint: allow(no-panic-paths): Budget::UNLIMITED never interrupts, so Err is unreachable — same contract PreparedQuery::prepare relies on
        .expect("an unlimited budget never interrupts")
        .answer(mode, cfg, rec)
}

/// Run one of the paper's serial baselines (`--algo nsf|bcem`:
/// `NSF` / `FairBCEM`, or `BNSF` / `BFairBCEM` with `--bi`) into the
/// sink of `mode`. Returns the run's statistics and the results to
/// show.
fn query_baseline(
    g: &BipartiteGraph,
    model: QueryModel,
    algo: Algorithm,
    cfg: &RunConfig,
    mode: ResultMode,
) -> Result<(EnumStats, Vec<Biclique>), String> {
    let run = |sink: &mut dyn BicliqueSink| {
        pipeline::run(g, model, algo, cfg, sink)
            .map(|(_, stats)| stats)
            .map_err(|e| format!("enumerate: {e}"))
    };
    Ok(match mode {
        ResultMode::Collect => {
            let mut sink = CollectSink::default();
            let stats = run(&mut sink)?;
            let mut bicliques = sink.bicliques;
            if cfg.sorted {
                fair_biclique::results::canonical_order(&mut bicliques);
            }
            (stats, bicliques)
        }
        ResultMode::Count => (run(&mut CountSink::default())?, Vec::new()),
        ResultMode::Top(k) => {
            let mut sink = TopKSink::new(k);
            (run(&mut sink)?, sink.into_sorted())
        }
        ResultMode::Maximum(metric) => {
            let mut sink = MaxSink::new(metric);
            (run(&mut sink)?, sink.best.into_iter().collect())
        }
    })
}

fn serve(
    out: &mut dyn Write,
    host: &str,
    port: u16,
    config: ServiceConfig,
) -> Result<(), CliError> {
    let coordinator = !config.shards.is_empty();
    let engine = fbe_service::engine::Engine::new(config);
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

/// Print a run's answer in `mode`: the count line, then the results
/// (a "top k" header first for top-k); or, for a maximum search, the
/// best result or "none". A run the budget cut short (`aborted`)
/// marks its count or best-so-far as a lower bound.
fn render(
    out: &mut dyn Write,
    model: QueryModel,
    mode: ResultMode,
    count: u64,
    aborted: bool,
    bicliques: &[Biclique],
) -> Result<(), CliError> {
    let suffix = if aborted { LOWER_BOUND } else { "" };
    if let ResultMode::Maximum(metric) = mode {
        match bicliques.first() {
            Some(bc) => writeln!(
                out,
                "maximum {model} ({metric:?}): |L|={} |R|={}{suffix}\n  {bc}",
                bc.upper.len(),
                bc.lower.len()
            )?,
            None => writeln!(out, "maximum {model} ({metric:?}): none{suffix}")?,
        }
        return Ok(());
    }
    writeln!(out, "{model} count: {count}{suffix}")?;
    if let ResultMode::Top(k) = mode {
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
        model: QueryModel,
        mode: ResultMode,
        count: u64,
        aborted: bool,
        bicliques: &[Biclique],
    ) -> String {
        let mut buf = Vec::new();
        render(&mut buf, model, mode, count, aborted, bicliques).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn render_formats() {
        let fair = FairParams::unchecked(1, 1, 1);
        let s = render_str(QueryModel::Ssfbc(fair), ResultMode::Count, 3, true, &[]);
        assert_eq!(s, "SSFBC count: 3 (budget hit; lower bound)\n");
        let s = render_str(
            QueryModel::Bsfbc(fair),
            ResultMode::Top(2),
            1,
            false,
            &[Biclique::new(vec![0], vec![1])],
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
        let model = QueryModel::Ssfbc(FairParams::unchecked(1, 1, 1));
        let mode = ResultMode::Maximum(Default::default());
        assert_eq!(
            render_str(model, mode, 0, true, &[]),
            "maximum SSFBC (Vertices): none (budget hit; lower bound)\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_enumerate_span_has_stats_detail_in_every_mode() {
        let g = bigraph::generate::random_uniform(30, 30, 220, 2, 2, 5);
        let model = QueryModel::Ssfbc(FairParams::unchecked(2, 1, 1));
        let cfg = RunConfig::default();
        let modes = [
            ResultMode::Count,
            ResultMode::Top(3),
            ResultMode::Collect,
            ResultMode::Maximum(Default::default()),
        ];
        for mode in modes {
            let mut rec = SpanRecorder::enabled();
            let count = query(&g, model, &cfg, mode, &mut rec).stats.emitted;
            let span = rec.spans().iter().find(|s| s.name == "enumerate");
            let detail = &span.expect("an enumerate span").detail;
            for key in ["threads=1 ", "nodes=", "aborted=false ", "peak_bytes="] {
                assert!(
                    detail.contains(key),
                    "{mode:?}: {key} missing in {detail:?}"
                );
            }
            let emitted = format!("emitted={count} ");
            assert!(detail.contains(&emitted), "{mode:?}: {detail:?}");
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
        let model = QueryModel::Ssfbc(FairParams::unchecked(1, 1, 1));
        let err = render(&mut Broken, model, ResultMode::Collect, 1, false, &[]).unwrap_err();
        match err {
            CliError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
            other => panic!("expected Io, got {other:?}"),
        }
    }
}
