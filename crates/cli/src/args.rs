//! Hand-rolled argument parsing (no CLI dependency needed for five
//! subcommands) producing a typed [`Command`].

use fair_biclique::config::{Budget, FairParams, ParamError, ProParams, RunConfig, VertexOrder};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::pipeline::Algorithm;
use fair_biclique::prepared::{QueryModel, ResultMode};
use fbe_service::protocol::{parse_pair_u16, GenSpec};
use fbe_service::ServiceConfig;
use std::str::FromStr;
use std::time::Duration;

/// What the graph source of a command is.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// File stem (`<stem>.edges` + attribute files) or bare edge file.
    Path {
        /// The stem or file path.
        stem: String,
        /// Attribute domain sizes (upper, lower).
        attr_domains: (u16, u16),
    },
}

/// A fully parsed invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// Print usage.
    Help,
    /// `fbe generate`.
    Generate {
        /// What to generate.
        spec: GenSpec,
        /// Output file stem.
        out: String,
    },
    /// `fbe stats`.
    Stats {
        /// Input graph.
        source: GraphSource,
    },
    /// `fbe prune`.
    Prune {
        /// Input graph.
        source: GraphSource,
        /// `α`.
        alpha: u32,
        /// `β`.
        beta: u32,
        /// Bi-side cores instead of single-side.
        bi: bool,
        /// Pruning kind (`none`, `fcore`, `colorful`).
        kind: fair_biclique::config::PruneKind,
    },
    /// `fbe enumerate` and `fbe maximum`: one query in one output
    /// mode.
    Query {
        /// Input graph.
        source: GraphSource,
        /// The model and its validated parameters.
        model: QueryModel,
        /// How the search runs: order, budget, threads, sorting and
        /// substrate.
        cfg: RunConfig,
        /// Enumeration algorithm; the model's side picks its bi-side
        /// form (`BNSF` / `BFairBCEM` / `BFairBCEM++` with `--bi`).
        algo: Algorithm,
        /// What the run prints: every result, the count, the top k or
        /// the maximum.
        mode: ResultMode,
        /// Print a per-stage span tree on stderr after the timing line.
        trace: bool,
    },
    /// `fbe serve` — run the resident query service over TCP.
    Serve {
        /// Bind host (default `127.0.0.1`).
        host: String,
        /// Bind port (0 = ephemeral; the bound port is printed).
        port: u16,
        /// The service's tunables: workers, queue, plan cache, default
        /// result limit, data root and shards.
        config: ServiceConfig,
    },
    /// `fbe batch` — run protocol lines from a file/stdin, either
    /// against an in-process engine or a live server (`--connect`).
    Batch {
        /// `host:port` of a running `fbe serve` (in-process if absent).
        connect: Option<String>,
        /// Script path (`-` or absent = stdin).
        path: Option<String>,
    },
}

struct Cursor<'a> {
    args: &'a [String],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let out = self.args.get(self.i).map(|s| s.as_str());
        self.i += 1;
        out
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.next()
            .ok_or_else(|| format!("missing value for {flag}"))
    }

    /// The value of `flag`, parsed; errors name the flag.
    fn parsed<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }
}

/// Parse `argv` (program name excluded).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut c = Cursor { args: argv, i: 0 };
    let sub = match c.next() {
        None => return Ok(Command::Help),
        Some(s) => s,
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => parse_generate(&mut c),
        "stats" => {
            let (source, rest_ok) = parse_source(&mut c)?;
            if !rest_ok {
                return Err("stats: unexpected trailing arguments".into());
            }
            Ok(Command::Stats { source })
        }
        "prune" => parse_prune(&mut c),
        "enumerate" => parse_enumerate(&mut c),
        "maximum" => parse_maximum(&mut c),
        "serve" => parse_serve(&mut c),
        "batch" => parse_batch(&mut c),
        other => Err(format!("unknown subcommand {other:?}; try `fbe help`")),
    }
}

fn parse_generate(c: &mut Cursor<'_>) -> Result<Command, String> {
    let mut dataset = None;
    let mut uniform: Option<(usize, usize, usize)> = None;
    let mut attrs = (2u16, 2u16);
    let mut seed = 42u64;
    let mut out: Option<String> = None;
    while let Some(a) = c.next() {
        match a {
            "--dataset" => dataset = Some(c.value("--dataset")?.parse()?),
            "--uniform" => {
                let v = c.value("--uniform")?;
                let parts: Vec<&str> = v.split(',').collect();
                let [nu, nv, m] = parts.as_slice() else {
                    return Err(format!("--uniform: expected NU,NV,M, got {v:?}"));
                };
                let parse_dim = |p: &str| {
                    p.trim()
                        .parse::<usize>()
                        .map_err(|e| format!("--uniform: {e}"))
                };
                uniform = Some((parse_dim(nu)?, parse_dim(nv)?, parse_dim(m)?));
            }
            "--attrs" => attrs = parse_pair_u16(c.value("--attrs")?, "--attrs")?,
            "--seed" => seed = c.parsed("--seed")?,
            "--out" => out = Some(c.value("--out")?.to_string()),
            other => return Err(format!("generate: unknown argument {other:?}")),
        }
    }
    let out = out.ok_or("generate: --out is required")?;
    let spec = match (dataset, uniform) {
        (Some(d), None) => GenSpec::Dataset(d),
        (None, Some((n_upper, n_lower, m))) => {
            if n_upper == 0 || n_lower == 0 {
                return Err("generate: sides must be non-empty".into());
            }
            GenSpec::Uniform {
                n_upper,
                n_lower,
                m,
                seed,
                attrs,
            }
        }
        (Some(_), Some(_)) => return Err("generate: pass --dataset OR --uniform".into()),
        (None, None) => return Err("generate: one of --dataset / --uniform required".into()),
    };
    Ok(Command::Generate { spec, out })
}

/// Parse `<stem> [--attrs AU,AV]`; returns the source and whether the
/// cursor was fully consumed.
fn parse_source(c: &mut Cursor<'_>) -> Result<(GraphSource, bool), String> {
    let stem = c.next().ok_or("missing graph path")?.to_string();
    let mut attrs = (2u16, 2u16);
    let mut consumed_all = true;
    while let Some(a) = c.next() {
        match a {
            "--attrs" => attrs = parse_pair_u16(c.value("--attrs")?, "--attrs")?,
            _ => {
                c.i -= 1;
                consumed_all = false;
                break;
            }
        }
    }
    Ok((
        GraphSource::Path {
            stem,
            attr_domains: attrs,
        },
        consumed_all,
    ))
}

fn parse_prune(c: &mut Cursor<'_>) -> Result<Command, String> {
    let (source, _) = parse_source(c)?;
    let mut alpha = None;
    let mut beta = None;
    let mut bi = false;
    let mut kind = fair_biclique::config::PruneKind::Colorful;
    while let Some(a) = c.next() {
        match a {
            "--alpha" => alpha = Some(c.parsed("--alpha")?),
            "--beta" => beta = Some(c.parsed("--beta")?),
            "--bi" => bi = true,
            "--kind" => {
                kind = match c.value("--kind")? {
                    "none" => fair_biclique::config::PruneKind::None,
                    "fcore" => fair_biclique::config::PruneKind::FCore,
                    "colorful" | "cfcore" => fair_biclique::config::PruneKind::Colorful,
                    other => return Err(format!("--kind: unknown {other:?}")),
                }
            }
            other => return Err(format!("prune: unknown argument {other:?}")),
        }
    }
    let alpha = alpha.ok_or("prune: --alpha required")?;
    if alpha == 0 {
        return Err("prune: alpha must be >= 1".into());
    }
    Ok(Command::Prune {
        source,
        alpha,
        beta: beta.ok_or("prune: --beta required")?,
        bi,
        kind,
    })
}

/// The options `enumerate` and `maximum` share: the thresholds and
/// side of the model, and how the search runs. The defaults are
/// `DegOrd`, no budget, one thread and the `auto` substrate.
#[derive(Default)]
struct SearchOpts {
    alpha: Option<u32>,
    beta: Option<u32>,
    delta: Option<u32>,
    bi: bool,
    cfg: RunConfig,
}

impl SearchOpts {
    /// Consume `flag` (and its value) when it is a shared option;
    /// `Ok(false)` leaves it to the subcommand.
    fn parse_flag(&mut self, flag: &str, c: &mut Cursor<'_>) -> Result<bool, String> {
        match flag {
            "--alpha" => self.alpha = Some(c.parsed("--alpha")?),
            "--beta" => self.beta = Some(c.parsed("--beta")?),
            "--delta" => self.delta = Some(c.parsed("--delta")?),
            "--bi" => self.bi = true,
            "--order" => {
                self.cfg.order = match c.value("--order")? {
                    "id" => VertexOrder::IdAsc,
                    "degree" | "deg" => VertexOrder::DegreeDesc,
                    other => return Err(format!("--order: unknown {other:?}")),
                }
            }
            "--budget-secs" => {
                self.cfg.budget = Budget::time(Duration::from_secs(c.parsed("--budget-secs")?))
            }
            // `0` reads as 1.
            "--threads" => self.cfg.threads = c.parsed::<usize>("--threads")?.max(1),
            "--substrate" => self.cfg.substrate = c.parsed("--substrate")?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The model of subcommand `cmd`: the required `(α, β, δ)` with
    /// `α ≥ 1`, the side, and `θ ∈ [0, 0.5]` for the proportion models.
    fn model(&self, cmd: &str, theta: Option<f64>) -> Result<QueryModel, String> {
        let alpha = self.alpha.ok_or(format!("{cmd}: --alpha required"))?;
        let beta = self.beta.ok_or(format!("{cmd}: --beta required"))?;
        let delta = self.delta.ok_or(format!("{cmd}: --delta required"))?;
        let invalid = |e| match e {
            ParamError::ThetaOutOfRange(_) => format!("{cmd}: theta must be in [0, 0.5]"),
            e => format!("{cmd}: {e}"),
        };
        let fair = FairParams::new(alpha, beta, delta).map_err(invalid)?;
        Ok(match theta {
            None if self.bi => QueryModel::Bsfbc(fair),
            None => QueryModel::Ssfbc(fair),
            Some(t) => {
                let pro = ProParams::new(alpha, beta, delta, t).map_err(invalid)?;
                if self.bi {
                    QueryModel::Pbsfbc(pro)
                } else {
                    QueryModel::Pssfbc(pro)
                }
            }
        })
    }
}

fn parse_enumerate(c: &mut Cursor<'_>) -> Result<Command, String> {
    let (source, _) = parse_source(c)?;
    let mut opts = SearchOpts::default();
    let mut theta = None;
    let mut algo = Algorithm::FairBcemPP;
    let mut count_only = false;
    let mut top = None;
    let mut trace = false;
    while let Some(a) = c.next() {
        if opts.parse_flag(a, c)? {
            continue;
        }
        match a {
            "--theta" => theta = Some(c.parsed("--theta")?),
            "--algo" => {
                algo = match c.value("--algo")? {
                    "nsf" => Algorithm::Nsf,
                    "bcem" | "fairbcem" => Algorithm::FairBcem,
                    "bcem++" | "fairbcem++" | "pp" => Algorithm::FairBcemPP,
                    other => return Err(format!("--algo: unknown {other:?}")),
                }
            }
            "--count-only" => count_only = true,
            "--top" => top = Some(c.parsed("--top")?),
            "--sorted" => opts.cfg.sorted = true,
            "--trace" => trace = true,
            other => return Err(format!("enumerate: unknown argument {other:?}")),
        }
    }
    let model = opts.model("enumerate", theta)?;
    // `--algo` selects among the paper's serial algorithms for the
    // absolute models: only the default `++` miners run on the parallel
    // engine, and the proportion models have no baselines.
    if algo != Algorithm::FairBcemPP {
        if opts.cfg.threads > 1 {
            return Err("enumerate: --threads > 1 requires the default --algo bcem++".into());
        }
        if theta.is_some() {
            return Err("enumerate: --theta requires the default --algo bcem++ \
                 (the proportion models have no baselines)"
                .into());
        }
    }
    let mode = match (count_only, top) {
        (true, _) => ResultMode::Count,
        (false, Some(k)) => ResultMode::Top(k),
        (false, None) => ResultMode::Collect,
    };
    Ok(Command::Query {
        source,
        model,
        cfg: opts.cfg,
        algo,
        mode,
        trace,
    })
}

fn parse_maximum(c: &mut Cursor<'_>) -> Result<Command, String> {
    let (source, _) = parse_source(c)?;
    let mut opts = SearchOpts::default();
    let mut metric = SizeMetric::Vertices;
    while let Some(a) = c.next() {
        if opts.parse_flag(a, c)? {
            continue;
        }
        match a {
            "--metric" => {
                metric = match c.value("--metric")? {
                    "vertices" | "v" => SizeMetric::Vertices,
                    "edges" | "e" => SizeMetric::Edges,
                    other => return Err(format!("--metric: unknown {other:?}")),
                }
            }
            other => return Err(format!("maximum: unknown argument {other:?}")),
        }
    }
    Ok(Command::Query {
        source,
        model: opts.model("maximum", None)?,
        cfg: opts.cfg,
        algo: Algorithm::FairBcemPP,
        mode: ResultMode::Maximum(metric),
        trace: false,
    })
}

fn parse_serve(c: &mut Cursor<'_>) -> Result<Command, String> {
    let mut host = "127.0.0.1".to_string();
    let mut port = 7878u16;
    let mut config = ServiceConfig::default();
    while let Some(a) = c.next() {
        match a {
            "--host" => host = c.value("--host")?.to_string(),
            "--port" => port = c.parsed("--port")?,
            "--workers" => config.workers = c.parsed::<usize>("--workers")?.max(1),
            "--queue" => config.queue_depth = c.parsed("--queue")?,
            "--plan-cache" => config.plan_cache_capacity = c.parsed("--plan-cache")?,
            "--default-limit" => config.default_result_limit = c.parsed("--default-limit")?,
            "--data-root" => config.data_root = Some(c.value("--data-root")?.into()),
            "--shards" => {
                config.shards = c
                    .value("--shards")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if config.shards.is_empty() {
                    return Err("--shards: expected host:port[,host:port...]".into());
                }
            }
            other => return Err(format!("serve: unknown argument {other:?}")),
        }
    }
    Ok(Command::Serve { host, port, config })
}

fn parse_batch(c: &mut Cursor<'_>) -> Result<Command, String> {
    let mut connect = None;
    let mut path = None;
    while let Some(a) = c.next() {
        match a {
            "--connect" => connect = Some(c.value("--connect")?.to_string()),
            other if path.is_none() && !other.starts_with("--") => {
                path = Some(other.to_string());
            }
            other => return Err(format!("batch: unknown argument {other:?}")),
        }
    }
    Ok(Command::Batch { connect, path })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_biclique::config::Substrate;
    use fbe_datasets::corpus::Dataset;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate_dataset() {
        let cmd = parse(&sv(&["generate", "--dataset", "dblp", "--out", "/tmp/d"])).unwrap();
        assert!(
            matches!(
                &cmd,
                Command::Generate {
                    spec: GenSpec::Dataset(Dataset::Dblp),
                    out,
                } if out == "/tmp/d"
            ),
            "{cmd:?}"
        );
    }

    #[test]
    fn parses_generate_uniform_with_options() {
        let cmd = parse(&sv(&[
            "generate",
            "--uniform",
            "10,20,30",
            "--attrs",
            "3,2",
            "--seed",
            "9",
            "--out",
            "x",
        ]))
        .unwrap();
        match cmd {
            Command::Generate {
                spec:
                    GenSpec::Uniform {
                        n_upper,
                        n_lower,
                        m,
                        attrs,
                        seed,
                    },
                out,
            } => {
                assert_eq!((n_upper, n_lower, m), (10, 20, 30));
                assert_eq!(attrs, (3, 2));
                assert_eq!(seed, 9);
                assert_eq!(out, "x");
            }
            other => panic!("{other:?}"),
        }
        let err = parse(&sv(&["generate", "--uniform", "0,5,5", "--out", "x"])).unwrap_err();
        assert_eq!(err, "generate: sides must be non-empty");
    }

    #[test]
    fn parses_enumerate_full() {
        let cmd = parse(&sv(&[
            "enumerate",
            "g",
            "--alpha",
            "3",
            "--beta",
            "2",
            "--delta",
            "1",
            "--theta",
            "0.4",
            "--bi",
            "--order",
            "id",
            "--top",
            "5",
            "--budget-secs",
            "7",
            "--threads",
            "4",
            "--sorted",
            "--substrate",
            "bitset",
            "--trace",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                model,
                cfg,
                algo,
                mode,
                trace,
                ..
            } => {
                assert_eq!(
                    model,
                    QueryModel::Pbsfbc(ProParams::new(3, 2, 1, 0.4).unwrap())
                );
                assert_eq!(algo, Algorithm::FairBcemPP);
                assert_eq!(cfg.order, VertexOrder::IdAsc);
                assert_eq!(mode, ResultMode::Top(5));
                assert_eq!(cfg.budget.max_time, Some(Duration::from_secs(7)));
                assert_eq!(cfg.threads, 4);
                assert!(cfg.sorted);
                assert_eq!(cfg.substrate, Substrate::Bitset);
                assert!(trace);
            }
            other => panic!("{other:?}"),
        }
        // A baseline, counting; --trace defaults off.
        let cmd = parse(&sv(&[
            "enumerate",
            "g",
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "0",
            "--algo",
            "bcem",
            "--count-only",
            "--top",
            "3",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                model,
                cfg,
                algo,
                mode,
                trace,
                ..
            } => {
                assert_eq!(model, QueryModel::Ssfbc(FairParams::new(1, 1, 0).unwrap()));
                assert_eq!(algo, Algorithm::FairBcem);
                assert_eq!(mode, ResultMode::Count);
                assert_eq!(cfg.budget.max_time, None);
                assert_eq!(cfg.threads, 1);
                assert!(!cfg.sorted);
                assert!(!trace);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_maximum() {
        let cmd = parse(&sv(&[
            "maximum",
            "g",
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--bi",
            "--metric",
            "edges",
            "--threads",
            "3",
            "--substrate",
            "sorted-vec",
        ]))
        .unwrap();
        match cmd {
            Command::Query {
                model, cfg, mode, ..
            } => {
                assert_eq!(model, QueryModel::Bsfbc(FairParams::new(2, 1, 1).unwrap()));
                assert_eq!(mode, ResultMode::Maximum(SizeMetric::Edges));
                assert_eq!(cfg.threads, 3);
                assert_eq!(cfg.substrate, Substrate::SortedVec);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["maximum", "g", "--beta", "1", "--delta", "0"])).is_err());
        assert!(parse(&sv(&[
            "maximum", "g", "--alpha", "1", "--beta", "1", "--delta", "0", "--metric", "bogus",
        ]))
        .is_err());
        // maximum has no --theta.
        assert!(parse(&sv(&[
            "maximum", "g", "--alpha", "1", "--beta", "1", "--delta", "0", "--theta", "0.4",
        ]))
        .is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&sv(&["generate", "--dataset", "nope", "--out", "x"])).is_err());
        let err = parse(&sv(&[
            "enumerate",
            "g",
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "0",
            "--theta",
            "0.9",
        ]))
        .unwrap_err();
        assert_eq!(err, "enumerate: theta must be in [0, 0.5]");
        let err = parse(&sv(&[
            "maximum", "g", "--alpha", "0", "--beta", "1", "--delta", "0",
        ]))
        .unwrap_err();
        assert_eq!(err, "maximum: alpha must be >= 1");
        assert!(parse(&sv(&["enumerate", "g", "--beta", "1", "--delta", "0"])).is_err());
        assert!(parse(&sv(&[
            "enumerate",
            "g",
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "0",
            "--substrate",
            "bogus"
        ]))
        .is_err());
        let err = parse(&sv(&[
            "enumerate",
            "g",
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "0",
            "--algo",
            "nsf",
            "--threads",
            "2",
        ]))
        .unwrap_err();
        assert_eq!(
            err,
            "enumerate: --threads > 1 requires the default --algo bcem++"
        );
        assert!(parse(&sv(&["prune", "g", "--alpha", "1"])).is_err());
        assert!(parse(&sv(&["prune", "g", "--alpha", "x", "--beta", "1"])).is_err());
    }

    #[test]
    fn parses_serve_and_batch() {
        // No flags: ServiceConfig's own defaults.
        match parse(&sv(&["serve"])).unwrap() {
            Command::Serve { host, port, config } => {
                assert_eq!((host.as_str(), port), ("127.0.0.1", 7878));
                let want = ServiceConfig::default();
                assert_eq!(format!("{config:?}"), format!("{want:?}"));
            }
            other => panic!("{other:?}"),
        }
        let cmd = parse(&sv(&[
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--queue",
            "1",
            "--plan-cache",
            "8",
            "--default-limit",
            "50",
        ]))
        .unwrap();
        match cmd {
            Command::Serve { port, config, .. } => {
                assert_eq!(port, 0);
                assert_eq!(
                    (
                        config.workers,
                        config.queue_depth,
                        config.plan_cache_capacity
                    ),
                    (2, 1, 8)
                );
                assert_eq!(config.default_result_limit, 50);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["serve", "--port", "x"])).is_err());

        // Coordinator / confinement flags.
        let cmd = parse(&sv(&[
            "serve",
            "--shards",
            "127.0.0.1:7001, 127.0.0.1:7002",
            "--data-root",
            "/srv/graphs",
        ]))
        .unwrap();
        match cmd {
            Command::Serve { config, .. } => {
                assert_eq!(config.shards, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
                assert_eq!(
                    config.data_root.as_deref(),
                    Some(std::path::Path::new("/srv/graphs"))
                );
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["serve", "--shards", " , "])).is_err());
        assert!(parse(&sv(&["serve", "--shards"])).is_err());

        let batch = |argv: &[&str]| match parse(&sv(argv)).unwrap() {
            Command::Batch { connect, path } => (connect, path),
            other => panic!("{other:?}"),
        };
        assert_eq!(batch(&["batch"]), (None, None));
        assert_eq!(
            batch(&["batch", "--connect", "127.0.0.1:7878", "script.fbe"]),
            (Some("127.0.0.1:7878".into()), Some("script.fbe".into()))
        );
        assert!(parse(&sv(&["batch", "a", "b"])).is_err());
    }

    #[test]
    fn dataset_aliases() {
        for (name, want) in [("wiki", Dataset::WikiCat), ("IMDB", Dataset::Imdb)] {
            match parse(&sv(&["generate", "--dataset", name, "--out", "/tmp/x"])).unwrap() {
                Command::Generate {
                    spec: GenSpec::Dataset(d),
                    ..
                } => assert_eq!(d, want),
                other => panic!("{other:?}"),
            }
        }
    }
}
