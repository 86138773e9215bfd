//! Hand-rolled argument parsing (no CLI dependency needed for five
//! subcommands) producing a typed [`Command`].

use fair_biclique::config::{Substrate, VertexOrder};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::pipeline::Algorithm;
use fbe_datasets::corpus::Dataset;
use fbe_service::protocol::parse_pair_u16;
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

/// What to generate.
#[derive(Debug, Clone, PartialEq)]
pub enum GenerateKind {
    /// A scaled corpus dataset.
    Dataset(Dataset),
    /// Uniform random bipartite graph `(n_upper, n_lower, m)`.
    Uniform {
        /// `|U|`.
        n_upper: usize,
        /// `|V|`.
        n_lower: usize,
        /// Edge count.
        m: usize,
        /// Attribute domains.
        attrs: (u16, u16),
        /// Seed.
        seed: u64,
    },
}

/// A fully parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print usage.
    Help,
    /// `fbe generate`.
    Generate {
        /// What to generate.
        kind: GenerateKind,
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
    /// `fbe enumerate`.
    Enumerate {
        /// Input graph.
        source: GraphSource,
        /// `α`.
        alpha: u32,
        /// `β`.
        beta: u32,
        /// `δ`.
        delta: u32,
        /// Optional `θ` (switches to the proportion models).
        theta: Option<f64>,
        /// Bi-side model.
        bi: bool,
        /// Enumeration algorithm; the model's side picks its bi-side
        /// form (`BNSF` / `BFairBCEM` / `BFairBCEM++` with `--bi`).
        algo: Algorithm,
        /// Vertex ordering.
        order: VertexOrder,
        /// Print only the count.
        count_only: bool,
        /// Print only the top-k largest results.
        top: Option<usize>,
        /// Per-run wall-clock budget.
        budget: Option<Duration>,
        /// Worker threads (>1 runs any model on the parallel engine).
        threads: usize,
        /// Sort results into the canonical deterministic order.
        sorted: bool,
        /// Candidate-set substrate for the enumeration hot path.
        substrate: Substrate,
        /// Print a per-stage span tree on stderr after the timing line.
        trace: bool,
    },
    /// `fbe serve` — run the resident query service over TCP.
    Serve {
        /// Bind host (default `127.0.0.1`).
        host: String,
        /// Bind port (0 = ephemeral; the bound port is printed).
        port: u16,
        /// Max concurrently executing queries.
        workers: usize,
        /// Max queries waiting for a worker before `ERR BUSY`.
        queue: usize,
        /// Prepared-plan cache capacity.
        plan_cache: usize,
        /// Default result cap for collecting queries.
        default_limit: u64,
        /// Confine `LOAD` stems under this directory (`ERR PARSE` for
        /// absolute stems and `..`). Absent = trusted-client mode.
        data_root: Option<String>,
        /// Shard server addresses; non-empty turns this instance into
        /// a scatter-gather coordinator.
        shards: Vec<String>,
    },
    /// `fbe batch` — run protocol lines from a file/stdin, either
    /// against an in-process engine or a live server (`--connect`).
    Batch {
        /// `host:port` of a running `fbe serve` (in-process if absent).
        connect: Option<String>,
        /// Script path (`-` or absent = stdin).
        path: Option<String>,
    },
    /// `fbe maximum`.
    Maximum {
        /// Input graph.
        source: GraphSource,
        /// `α`.
        alpha: u32,
        /// `β`.
        beta: u32,
        /// `δ`.
        delta: u32,
        /// Bi-side model.
        bi: bool,
        /// Size metric.
        metric: SizeMetric,
        /// Vertex ordering.
        order: VertexOrder,
        /// Per-run wall-clock budget.
        budget: Option<Duration>,
        /// Worker threads (>1 searches on the parallel engine).
        threads: usize,
        /// Candidate-set substrate for the search hot path.
        substrate: Substrate,
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
    let mut dataset: Option<Dataset> = None;
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
            "--seed" => {
                seed = c
                    .value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--out" => out = Some(c.value("--out")?.to_string()),
            other => return Err(format!("generate: unknown argument {other:?}")),
        }
    }
    let out = out.ok_or("generate: --out is required")?;
    let kind = match (dataset, uniform) {
        (Some(d), None) => GenerateKind::Dataset(d),
        (None, Some((nu, nv, m))) => GenerateKind::Uniform {
            n_upper: nu,
            n_lower: nv,
            m,
            attrs,
            seed,
        },
        (Some(_), Some(_)) => return Err("generate: pass --dataset OR --uniform".into()),
        (None, None) => return Err("generate: one of --dataset / --uniform required".into()),
    };
    Ok(Command::Generate { kind, out })
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
            "--alpha" => alpha = Some(parse_u32(c.value("--alpha")?, "--alpha")?),
            "--beta" => beta = Some(parse_u32(c.value("--beta")?, "--beta")?),
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

fn parse_u32(s: &str, what: &str) -> Result<u32, String> {
    s.parse().map_err(|e| format!("{what}: {e}"))
}

/// The options `enumerate` and `maximum` share: the thresholds and
/// side of the model, and how the search runs. The defaults are
/// `DegOrd`, no budget, one thread (`0` reads as 1) and the `auto`
/// substrate.
#[derive(Default)]
struct SearchOpts {
    alpha: Option<u32>,
    beta: Option<u32>,
    delta: Option<u32>,
    bi: bool,
    order: VertexOrder,
    budget: Option<Duration>,
    threads: usize,
    substrate: Substrate,
}

impl SearchOpts {
    /// Consume `flag` (and its value) when it is a shared option;
    /// `Ok(false)` leaves it to the subcommand.
    fn parse_flag(&mut self, flag: &str, c: &mut Cursor<'_>) -> Result<bool, String> {
        match flag {
            "--alpha" => self.alpha = Some(parse_u32(c.value("--alpha")?, "--alpha")?),
            "--beta" => self.beta = Some(parse_u32(c.value("--beta")?, "--beta")?),
            "--delta" => self.delta = Some(parse_u32(c.value("--delta")?, "--delta")?),
            "--bi" => self.bi = true,
            "--order" => {
                self.order = match c.value("--order")? {
                    "id" => VertexOrder::IdAsc,
                    "degree" | "deg" => VertexOrder::DegreeDesc,
                    other => return Err(format!("--order: unknown {other:?}")),
                }
            }
            "--budget-secs" => {
                self.budget = Some(Duration::from_secs(
                    c.value("--budget-secs")?
                        .parse::<u64>()
                        .map_err(|e| format!("--budget-secs: {e}"))?,
                ))
            }
            "--threads" => {
                self.threads = c
                    .value("--threads")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--substrate" => {
                self.substrate = c
                    .value("--substrate")?
                    .parse()
                    .map_err(|e| format!("--substrate: {e}"))?
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The required `(α, β, δ)` of subcommand `cmd`, with `α ≥ 1`.
    fn thresholds(&self, cmd: &str) -> Result<(u32, u32, u32), String> {
        let alpha = self.alpha.ok_or(format!("{cmd}: --alpha required"))?;
        if alpha == 0 {
            return Err(format!("{cmd}: alpha must be >= 1"));
        }
        Ok((
            alpha,
            self.beta.ok_or(format!("{cmd}: --beta required"))?,
            self.delta.ok_or(format!("{cmd}: --delta required"))?,
        ))
    }
}

fn parse_enumerate(c: &mut Cursor<'_>) -> Result<Command, String> {
    let (source, _) = parse_source(c)?;
    let mut opts = SearchOpts::default();
    let mut theta = None;
    let mut algo = Algorithm::FairBcemPP;
    let mut count_only = false;
    let mut top = None;
    let mut sorted = false;
    let mut trace = false;
    while let Some(a) = c.next() {
        if opts.parse_flag(a, c)? {
            continue;
        }
        match a {
            "--theta" => {
                theta = Some(
                    c.value("--theta")?
                        .parse::<f64>()
                        .map_err(|e| format!("--theta: {e}"))?,
                )
            }
            "--algo" => {
                algo = match c.value("--algo")? {
                    "nsf" => Algorithm::Nsf,
                    "bcem" | "fairbcem" => Algorithm::FairBcem,
                    "bcem++" | "fairbcem++" | "pp" => Algorithm::FairBcemPP,
                    other => return Err(format!("--algo: unknown {other:?}")),
                }
            }
            "--count-only" => count_only = true,
            "--top" => {
                top = Some(
                    c.value("--top")?
                        .parse::<usize>()
                        .map_err(|e| format!("--top: {e}"))?,
                )
            }
            "--sorted" => sorted = true,
            "--trace" => trace = true,
            other => return Err(format!("enumerate: unknown argument {other:?}")),
        }
    }
    let (alpha, beta, delta) = opts.thresholds("enumerate")?;
    if let Some(t) = theta {
        if !(0.0..=0.5).contains(&t) {
            return Err("enumerate: theta must be in [0, 0.5]".into());
        }
    }
    Ok(Command::Enumerate {
        source,
        alpha,
        beta,
        delta,
        theta,
        bi: opts.bi,
        algo,
        order: opts.order,
        count_only,
        top,
        budget: opts.budget,
        threads: opts.threads.max(1),
        sorted,
        substrate: opts.substrate,
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
    let (alpha, beta, delta) = opts.thresholds("maximum")?;
    Ok(Command::Maximum {
        source,
        alpha,
        beta,
        delta,
        bi: opts.bi,
        metric,
        order: opts.order,
        budget: opts.budget,
        threads: opts.threads.max(1),
        substrate: opts.substrate,
    })
}

fn parse_serve(c: &mut Cursor<'_>) -> Result<Command, String> {
    let mut host = "127.0.0.1".to_string();
    let mut port = 7878u16;
    let mut workers = 4usize;
    let mut queue = 16usize;
    let mut plan_cache = 32usize;
    let mut default_limit = 1000u64;
    let mut data_root = None;
    let mut shards = Vec::new();
    while let Some(a) = c.next() {
        match a {
            "--host" => host = c.value("--host")?.to_string(),
            "--port" => {
                port = c
                    .value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--workers" => {
                workers = c
                    .value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?
            }
            "--queue" => {
                queue = c
                    .value("--queue")?
                    .parse()
                    .map_err(|e| format!("--queue: {e}"))?
            }
            "--plan-cache" => {
                plan_cache = c
                    .value("--plan-cache")?
                    .parse()
                    .map_err(|e| format!("--plan-cache: {e}"))?
            }
            "--default-limit" => {
                default_limit = c
                    .value("--default-limit")?
                    .parse()
                    .map_err(|e| format!("--default-limit: {e}"))?
            }
            "--data-root" => data_root = Some(c.value("--data-root")?.to_string()),
            "--shards" => {
                shards = c
                    .value("--shards")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if shards.is_empty() {
                    return Err("--shards: expected host:port[,host:port...]".into());
                }
            }
            other => return Err(format!("serve: unknown argument {other:?}")),
        }
    }
    Ok(Command::Serve {
        host,
        port,
        workers: workers.max(1),
        queue,
        plan_cache,
        default_limit,
        data_root,
        shards,
    })
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

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate_dataset() {
        let cmd = parse(&sv(&["generate", "--dataset", "dblp", "--out", "/tmp/d"])).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                kind: GenerateKind::Dataset(Dataset::Dblp),
                out: "/tmp/d".into()
            }
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
                kind:
                    GenerateKind::Uniform {
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
            "--algo",
            "bcem",
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
            Command::Enumerate {
                alpha,
                beta,
                delta,
                theta,
                bi,
                algo,
                order,
                top,
                budget,
                threads,
                sorted,
                substrate,
                trace,
                ..
            } => {
                assert_eq!((alpha, beta, delta), (3, 2, 1));
                assert_eq!(theta, Some(0.4));
                assert!(bi);
                assert_eq!(algo, Algorithm::FairBcem);
                assert_eq!(order, VertexOrder::IdAsc);
                assert_eq!(top, Some(5));
                assert_eq!(budget, Some(Duration::from_secs(7)));
                assert_eq!(threads, 4);
                assert!(sorted);
                assert_eq!(substrate, Substrate::Bitset);
                assert!(trace);
            }
            other => panic!("{other:?}"),
        }
        // --trace defaults off.
        let cmd = parse(&sv(&[
            "enumerate",
            "g",
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "0",
        ]))
        .unwrap();
        match cmd {
            Command::Enumerate { trace, .. } => assert!(!trace),
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
            Command::Maximum {
                alpha,
                beta,
                delta,
                bi,
                metric,
                threads,
                substrate,
                ..
            } => {
                assert_eq!((alpha, beta, delta), (2, 1, 1));
                assert!(bi);
                assert_eq!(metric, SizeMetric::Edges);
                assert_eq!(threads, 3);
                assert_eq!(substrate, Substrate::SortedVec);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["maximum", "g", "--beta", "1", "--delta", "0"])).is_err());
        assert!(parse(&sv(&[
            "maximum", "g", "--alpha", "1", "--beta", "1", "--delta", "0", "--metric", "bogus",
        ]))
        .is_err());
    }

    #[test]
    fn rejects_bad_values() {
        assert!(parse(&sv(&["generate", "--dataset", "nope", "--out", "x"])).is_err());
        assert!(parse(&sv(&[
            "enumerate",
            "g",
            "--alpha",
            "1",
            "--beta",
            "1",
            "--delta",
            "0",
            "--theta",
            "0.9"
        ]))
        .is_err());
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
        assert!(parse(&sv(&["prune", "g", "--alpha", "1"])).is_err());
        assert!(parse(&sv(&["prune", "g", "--alpha", "x", "--beta", "1"])).is_err());
    }

    #[test]
    fn parses_serve_and_batch() {
        let cmd = parse(&sv(&["serve"])).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                host: "127.0.0.1".into(),
                port: 7878,
                workers: 4,
                queue: 16,
                plan_cache: 32,
                default_limit: 1000,
                data_root: None,
                shards: Vec::new(),
            }
        );
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
            Command::Serve {
                port,
                workers,
                queue,
                plan_cache,
                default_limit,
                ..
            } => {
                assert_eq!(port, 0);
                assert_eq!((workers, queue, plan_cache), (2, 1, 8));
                assert_eq!(default_limit, 50);
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
            Command::Serve {
                shards, data_root, ..
            } => {
                assert_eq!(shards, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
                assert_eq!(data_root.as_deref(), Some("/srv/graphs"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&sv(&["serve", "--shards", " , "])).is_err());
        assert!(parse(&sv(&["serve", "--shards"])).is_err());

        assert_eq!(
            parse(&sv(&["batch"])).unwrap(),
            Command::Batch {
                connect: None,
                path: None
            }
        );
        assert_eq!(
            parse(&sv(&["batch", "--connect", "127.0.0.1:7878", "script.fbe"])).unwrap(),
            Command::Batch {
                connect: Some("127.0.0.1:7878".into()),
                path: Some("script.fbe".into())
            }
        );
        assert!(parse(&sv(&["batch", "a", "b"])).is_err());
    }

    #[test]
    fn dataset_aliases() {
        for (name, want) in [("wiki", Dataset::WikiCat), ("IMDB", Dataset::Imdb)] {
            match parse(&sv(&["generate", "--dataset", name, "--out", "/tmp/x"])).unwrap() {
                Command::Generate {
                    kind: GenerateKind::Dataset(d),
                    ..
                } => assert_eq!(d, want),
                other => panic!("{other:?}"),
            }
        }
    }
}
