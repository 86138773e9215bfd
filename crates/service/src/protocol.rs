//! The service's versioned, line-oriented text protocol.
//!
//! # Grammar
//!
//! Requests are single lines, one command each:
//!
//! ```text
//! PING
//! LOAD <name> <path> [attrs=AU,AV]
//! GEN <name> <youtube|twitter|imdb|wiki-cat|dblp>
//! GEN <name> uniform:NU,NV,M[,SEED[,AU,AV]]
//! GRAPHS
//! DROP <name>
//! ADDEDGE <graph> <u> <v>
//! DELEDGE <graph> <u> <v>
//! ADDVERTEX <graph> <upper|lower> [attr=A]
//! SHARD <graph> index=I of=K [alpha=A]
//! ENUM <graph> <ssfbc|bsfbc|pssfbc|pbsfbc> alpha=A beta=B delta=D
//!      [theta=T] [threads=N] [limit=K] [deadline-ms=MS]
//!      [substrate=auto|sorted-vec|bitset] [count-only]
//!      [max=vertices|edges]
//! STATS
//! METRICS
//! SLOWLOG [n]
//! TRACE <on|off|sample=K>
//! SHUTDOWN
//! ```
//!
//! `SHARD` replaces a cataloged graph with shard `I` of its
//! deterministic `K`-way 2-hop-component partition
//! ([`bigraph::partition`]), in the parent id space. A scatter-gather
//! coordinator ([`crate::coordinator`]) fans `LOAD`/`GEN` + `SHARD`
//! out to `K` shard servers and merges their `ENUM` streams.
//!
//! `ADDEDGE`/`DELEDGE`/`ADDVERTEX` mutate a cataloged graph in place
//! (same catalog epoch, bumped per-update version): the service
//! repairs its incremental core state and surgically invalidates only
//! the cached plans whose pruned core the update touched.
//!
//! `METRICS` dumps the registry in Prometheus text exposition format
//! (`STATS` stays the flat `key value` dump). `SLOWLOG [n]` returns
//! the `n` (default: all retained) slowest queries with their span
//! trees. `TRACE` is per-connection: `on` appends a `# span ...`
//! breakdown block to every subsequent `ENUM` reply on this
//! connection, `sample=K` to every K-th, and `off` (the default)
//! disables it. Trace lines start with `#`, so payload consumers that
//! parse result lines can filter them without understanding spans.
//!
//! Command verbs are case-insensitive. Every reply is a block: one
//! status line — `OK <k>=<v>...` or `ERR <CODE> <message>` — followed
//! by zero or more payload lines, terminated by a line holding a
//! single `.`. On connect, a server greets with an `OK` block
//! (`OK fbe-service protocol=1`).
//!
//! # Error codes
//!
//! | code       | meaning                                         |
//! |------------|-------------------------------------------------|
//! | `BADCMD`   | unknown command verb                            |
//! | `BADARG`   | malformed or missing argument                   |
//! | `PARSE`    | unreadable request line (oversized, not UTF-8)  |
//! |            | or a `LOAD` stem escaping the data root         |
//! | `NOGRAPH`  | `ENUM`/`DROP` names a graph not in the catalog  |
//! | `BUSY`     | admission refused: workers and queue are full   |
//! | `IO`       | loading a graph from disk failed                |
//! | `SHARD`    | a shard server failed mid-fanout (coordinator)  |
//! | `SHUTDOWN` | server is stopping; command not accepted        |
//! | `INTERNAL` | the request handler panicked; the query failed  |
//!
//! `INTERNAL` is a degradation, not a protocol state: the engine
//! catches the panic ([`crate::engine`]), answers the offending
//! request with the error, and keeps serving every other connection.
//!
//! # One codec per line format
//!
//! This module owns the request grammar in both directions:
//! [`parse_request`] reads a line and `Display for` [`Request`] writes
//! one back (leaving out fields at their default value), so
//! `parse_request(&r.to_string()) == Ok(r)`. The coordinator forwards
//! rendered `Request`s to its shards rather than formatting lines of
//! its own. Status lines are read with [`field`]. Result lines
//! (`L=[..] R=[..]`) belong to [`fair_biclique::Biclique`]: its
//! `Display` prints them and its `FromStr` parses them.

use fair_biclique::config::{FairParams, ProParams, Substrate};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::prepared::QueryModel;
use fbe_datasets::corpus::Dataset;
use std::io::Write;
use std::time::Duration;

/// Protocol version announced in the greeting.
pub const PROTOCOL_VERSION: u32 = 1;

/// Reply-block terminator line.
pub const TERMINATOR: &str = ".";

/// Attribute domain sizes of `LOAD` and `GEN uniform:` when none are
/// given.
const DEFAULT_ATTRS: (u16, u16) = (2, 2);

/// Seed of `GEN uniform:` when none is given.
const DEFAULT_SEED: u64 = 42;

/// What an `ENUM` query emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumMode {
    /// Collect and return the results (subject to the result limit).
    Collect,
    /// Return only the count (streaming; no materialization).
    Count,
    /// Return the single largest result under a metric.
    Maximum(SizeMetric),
}

/// Per-query execution knobs of an `ENUM` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnumOpts {
    /// Worker threads for this query (≥ 1; >1 uses the parallel
    /// engine).
    pub threads: usize,
    /// Result budget (`limit=K`); collecting queries fall back to the
    /// service default when absent.
    pub limit: Option<u64>,
    /// Wall-clock deadline covering queue wait + execution.
    pub deadline: Option<Duration>,
    /// Requested candidate substrate (part of the plan-cache key).
    pub substrate: Substrate,
    /// Output mode.
    pub mode: EnumMode,
}

impl Default for EnumOpts {
    fn default() -> Self {
        EnumOpts {
            threads: 1,
            limit: None,
            deadline: None,
            substrate: Substrate::Auto,
            mode: EnumMode::Collect,
        }
    }
}

/// How `GEN` builds a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenSpec {
    /// A scaled corpus dataset analog.
    Dataset(Dataset),
    /// `uniform:NU,NV,M[,SEED[,AU,AV]]`.
    Uniform {
        /// `|U|`.
        n_upper: usize,
        /// `|V|`.
        n_lower: usize,
        /// Edge count.
        m: usize,
        /// RNG seed.
        seed: u64,
        /// Attribute domain sizes.
        attrs: (u16, u16),
    },
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Load a graph from disk into the catalog.
    Load {
        /// Catalog name.
        name: String,
        /// `<stem>` or bare edge-list path.
        path: String,
        /// Attribute domain sizes.
        attrs: (u16, u16),
    },
    /// Generate a graph into the catalog.
    Gen {
        /// Catalog name.
        name: String,
        /// What to generate.
        spec: GenSpec,
    },
    /// List the catalog.
    Graphs,
    /// Remove a graph (and invalidate its cached plans).
    Drop {
        /// Catalog name.
        name: String,
    },
    /// Insert one edge into a cataloged graph.
    AddEdge {
        /// Catalog name.
        graph: String,
        /// Upper endpoint.
        u: bigraph::VertexId,
        /// Lower endpoint.
        v: bigraph::VertexId,
    },
    /// Remove one edge from a cataloged graph.
    DelEdge {
        /// Catalog name.
        graph: String,
        /// Upper endpoint.
        u: bigraph::VertexId,
        /// Lower endpoint.
        v: bigraph::VertexId,
    },
    /// Append one isolated vertex to a cataloged graph.
    AddVertex {
        /// Catalog name.
        graph: String,
        /// Which side gains the vertex.
        side: bigraph::Side,
        /// Attribute value of the new vertex.
        attr: bigraph::AttrValueId,
    },
    /// Restrict a cataloged graph to one shard of its deterministic
    /// 2-hop-component partition (same vertex-id space; only the
    /// shard's edges survive).
    Shard {
        /// Catalog name.
        graph: String,
        /// Shard index in `0..of`.
        index: usize,
        /// Total number of shards.
        of: usize,
        /// Common-neighbor threshold of the partition's 2-hop
        /// projection. `1` (the default) is exact for every model and
        /// parameter choice; a larger value is exact only for queries
        /// whose `alpha` is at least this.
        alpha: usize,
    },
    /// Run a fair-biclique query.
    Enum {
        /// Catalog name of the graph.
        graph: String,
        /// Model + parameters.
        model: QueryModel,
        /// Execution knobs.
        opts: EnumOpts,
    },
    /// Dump the metrics registry as flat `key value` lines.
    Stats,
    /// Dump the metrics registry in Prometheus text exposition format.
    Metrics,
    /// Return the slowest recorded queries with their span trees.
    Slowlog {
        /// Cap on returned entries (`None` = all retained).
        n: Option<usize>,
    },
    /// Set this connection's tracing mode for subsequent `ENUM`s.
    Trace {
        /// The new mode.
        mode: TraceMode,
    },
    /// Stop the server (cancels in-flight queries cooperatively).
    Shutdown,
}

/// Per-connection tracing mode (`TRACE` verb).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracing (the default for every new connection).
    #[default]
    Off,
    /// Trace every query.
    On,
    /// Trace every `K`-th query on the connection (the first traced
    /// query is the `K`-th after the toggle).
    Sample(u64),
}

impl std::fmt::Display for TraceMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceMode::Off => f.write_str("off"),
            TraceMode::On => f.write_str("on"),
            TraceMode::Sample(k) => write!(f, "sample={k}"),
        }
    }
}

/// A reply block: status line plus payload, terminated by `.` on the
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// `OK ...` or `ERR <CODE> <message>`.
    pub status: String,
    /// Zero or more payload lines.
    pub payload: Vec<String>,
}

impl Reply {
    /// An `OK` status with no payload.
    pub fn ok(status: impl Into<String>) -> Reply {
        let s = status.into();
        Reply {
            status: if s.is_empty() {
                "OK".to_string()
            } else {
                format!("OK {s}")
            },
            payload: Vec::new(),
        }
    }

    /// An error reply with a machine-readable code.
    pub fn err(code: &str, msg: impl std::fmt::Display) -> Reply {
        Reply {
            status: format!("ERR {code} {msg}"),
            payload: Vec::new(),
        }
    }

    /// True for `OK` replies.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// Serialize the block (status, payload, terminator).
    pub fn write_to(&self, w: &mut dyn Write) -> std::io::Result<()> {
        writeln!(w, "{}", self.status)?;
        for line in &self.payload {
            writeln!(w, "{line}")?;
        }
        writeln!(w, "{TERMINATOR}")
    }

    /// The greeting block a server sends on connect.
    pub fn greeting() -> Reply {
        Reply::ok(format!("fbe-service protocol={PROTOCOL_VERSION}"))
    }
}

/// Parse an `A,B` pair of `u16`s (attribute-domain sizes), naming
/// `field` in every error. Shared by the wire protocol's `attrs=` and
/// the CLI's `--attrs`.
pub fn parse_pair_u16(s: &str, field: &str) -> Result<(u16, u16), String> {
    let parts: Vec<&str> = s.split(',').collect();
    let [a, b] = parts.as_slice() else {
        return Err(format!(
            "{field}: expected two comma-separated values, got {s:?}"
        ));
    };
    let a = a.trim().parse().map_err(|e| format!("{field}: {e}"))?;
    let b = b.trim().parse().map_err(|e| format!("{field}: {e}"))?;
    Ok((a, b))
}

fn parse_gen_spec(s: &str) -> Result<GenSpec, String> {
    if let Some(rest) = s.strip_prefix("uniform:") {
        let nums: Vec<&str> = rest.split(',').collect();
        if nums.len() != 3 && nums.len() != 4 && nums.len() != 6 {
            return Err(format!(
                "uniform spec wants NU,NV,M[,SEED[,AU,AV]], got {rest:?}"
            ));
        }
        let p = |i: usize| -> Result<u64, String> {
            nums[i]
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("uniform spec: {e}"))
        };
        // Checked narrowing: a plain `as` cast would silently wrap
        // (e.g. an attr domain of 70000 became 4464), turning a typo
        // into a quietly different graph.
        let to_size = |i: usize| -> Result<usize, String> {
            usize::try_from(p(i)?).map_err(|_| format!("uniform spec: {} out of range", nums[i]))
        };
        let to_attr = |i: usize| -> Result<u16, String> {
            u16::try_from(p(i)?)
                .map_err(|_| format!("uniform spec: attr domain {} exceeds {}", nums[i], u16::MAX))
        };
        let (nu, nv, m) = (to_size(0)?, to_size(1)?, to_size(2)?);
        if nu == 0 || nv == 0 {
            return Err("uniform spec: sides must be non-empty".into());
        }
        let seed = if nums.len() >= 4 { p(3)? } else { DEFAULT_SEED };
        let attrs = if nums.len() == 6 {
            (to_attr(4)?, to_attr(5)?)
        } else {
            DEFAULT_ATTRS
        };
        Ok(GenSpec::Uniform {
            n_upper: nu,
            n_lower: nv,
            m,
            seed,
            attrs,
        })
    } else {
        s.parse().map(GenSpec::Dataset)
    }
}

/// Parse the shared `<graph> <u> <v>` tail of `ADDEDGE`/`DELEDGE`.
fn parse_edge_op(rest: &[&str], add: bool) -> Result<Request, String> {
    let verb = if add { "ADDEDGE" } else { "DELEDGE" };
    let [graph, u, v] = rest else {
        return Err(format!("{verb} wants <graph> <u> <v>"));
    };
    let u = u
        .parse::<bigraph::VertexId>()
        .map_err(|e| format!("u: {e}"))?;
    let v = v
        .parse::<bigraph::VertexId>()
        .map_err(|e| format!("v: {e}"))?;
    let graph = graph.to_string();
    Ok(if add {
        Request::AddEdge { graph, u, v }
    } else {
        Request::DelEdge { graph, u, v }
    })
}

/// Split `token` at `=`, failing with a uniform message otherwise.
fn kv(token: &str) -> Result<(&str, &str), String> {
    token
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got {token:?}"))
}

fn parse_enum(graph: &str, model: &str, rest: &[&str]) -> Result<Request, String> {
    let model_l = model.to_ascii_lowercase();
    let (bi, pro) = match model_l.as_str() {
        "ssfbc" => (false, false),
        "bsfbc" => (true, false),
        "pssfbc" => (false, true),
        "pbsfbc" => (true, true),
        other => return Err(format!("unknown model {other:?}")),
    };
    let (mut alpha, mut beta, mut delta, mut theta) = (None, None, None, None);
    let mut opts = EnumOpts::default();
    for &tok in rest {
        if tok.eq_ignore_ascii_case("count-only") {
            opts.mode = EnumMode::Count;
            continue;
        }
        let (k, v) = kv(tok)?;
        match k.to_ascii_lowercase().as_str() {
            "alpha" => alpha = Some(v.parse::<u32>().map_err(|e| format!("alpha: {e}"))?),
            "beta" => beta = Some(v.parse::<u32>().map_err(|e| format!("beta: {e}"))?),
            "delta" => delta = Some(v.parse::<u32>().map_err(|e| format!("delta: {e}"))?),
            "theta" => theta = Some(v.parse::<f64>().map_err(|e| format!("theta: {e}"))?),
            "threads" => {
                opts.threads = v
                    .parse::<usize>()
                    .map_err(|e| format!("threads: {e}"))?
                    .max(1)
            }
            "limit" => opts.limit = Some(v.parse::<u64>().map_err(|e| format!("limit: {e}"))?),
            "deadline-ms" => {
                opts.deadline = Some(Duration::from_millis(
                    v.parse::<u64>().map_err(|e| format!("deadline-ms: {e}"))?,
                ))
            }
            "substrate" => opts.substrate = v.parse::<Substrate>()?,
            "max" => {
                opts.mode = EnumMode::Maximum(match v.to_ascii_lowercase().as_str() {
                    "vertices" | "v" => SizeMetric::Vertices,
                    "edges" | "e" => SizeMetric::Edges,
                    other => return Err(format!("max: unknown metric {other:?}")),
                })
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let alpha = alpha.ok_or("alpha= is required")?;
    let beta = beta.ok_or("beta= is required")?;
    let delta = delta.ok_or("delta= is required")?;
    let model = if pro {
        let theta = theta.ok_or("theta= is required for the proportion models")?;
        let p = ProParams::new(alpha, beta, delta, theta).map_err(|e| e.to_string())?;
        if bi {
            QueryModel::Pbsfbc(p)
        } else {
            QueryModel::Pssfbc(p)
        }
    } else {
        if theta.is_some() {
            return Err("theta= is only valid for the proportion models".into());
        }
        let p = FairParams::new(alpha, beta, delta).map_err(|e| e.to_string())?;
        if bi {
            QueryModel::Bsfbc(p)
        } else {
            QueryModel::Ssfbc(p)
        }
    };
    Ok(Request::Enum {
        graph: graph.to_string(),
        model,
        opts,
    })
}

/// Parse one request line. `Err` carries a human-readable message for
/// a `BADARG`/`BADCMD` reply.
pub fn parse_request(line: &str) -> Result<Request, Reply> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some((&verb, rest)) = tokens.split_first() else {
        return Err(Reply::err("BADCMD", "empty command"));
    };
    let badarg = |msg: String| Reply::err("BADARG", msg);
    match verb.to_ascii_uppercase().as_str() {
        "PING" => Ok(Request::Ping),
        "GRAPHS" => Ok(Request::Graphs),
        "STATS" => Ok(Request::Stats),
        "METRICS" => Ok(Request::Metrics),
        "SLOWLOG" => match rest {
            [] => Ok(Request::Slowlog { n: None }),
            [n] => Ok(Request::Slowlog {
                n: Some(n.parse().map_err(|e| badarg(format!("n: {e}")))?),
            }),
            _ => Err(badarg("SLOWLOG wants at most one count".into())),
        },
        "TRACE" => match rest {
            [arg] if arg.eq_ignore_ascii_case("on") => Ok(Request::Trace {
                mode: TraceMode::On,
            }),
            [arg] if arg.eq_ignore_ascii_case("off") => Ok(Request::Trace {
                mode: TraceMode::Off,
            }),
            [arg] => {
                let (k, v) = kv(arg).map_err(badarg)?;
                if !k.eq_ignore_ascii_case("sample") {
                    return Err(badarg(format!("TRACE wants on|off|sample=K, got {arg:?}")));
                }
                let k: u64 = v.parse().map_err(|e| badarg(format!("sample: {e}")))?;
                if k == 0 {
                    return Err(badarg("sample= must be at least 1".into()));
                }
                Ok(Request::Trace {
                    mode: TraceMode::Sample(k),
                })
            }
            _ => Err(badarg("TRACE wants exactly one of on|off|sample=K".into())),
        },
        "SHUTDOWN" => Ok(Request::Shutdown),
        "DROP" => match rest {
            [name] => Ok(Request::Drop {
                name: name.to_string(),
            }),
            _ => Err(badarg("DROP wants exactly one graph name".into())),
        },
        "ADDEDGE" => parse_edge_op(rest, true).map_err(badarg),
        "DELEDGE" => parse_edge_op(rest, false).map_err(badarg),
        "ADDVERTEX" => {
            let [graph, side, extra @ ..] = rest else {
                return Err(badarg(
                    "ADDVERTEX wants <graph> <upper|lower> [attr=A]".into(),
                ));
            };
            let side = match side.to_ascii_lowercase().as_str() {
                "upper" | "u" => bigraph::Side::Upper,
                "lower" | "v" => bigraph::Side::Lower,
                other => return Err(badarg(format!("unknown side {other:?}"))),
            };
            let mut attr = 0u16;
            for tok in extra {
                let (k, v) = kv(tok).map_err(badarg)?;
                match k.to_ascii_lowercase().as_str() {
                    "attr" => attr = v.parse::<u16>().map_err(|e| badarg(format!("attr: {e}")))?,
                    other => return Err(badarg(format!("unknown option {other:?}"))),
                }
            }
            Ok(Request::AddVertex {
                graph: graph.to_string(),
                side,
                attr,
            })
        }
        "LOAD" => {
            let [name, path, extra @ ..] = rest else {
                return Err(badarg("LOAD wants <name> <path> [attrs=AU,AV]".into()));
            };
            let mut attrs = DEFAULT_ATTRS;
            for tok in extra {
                let (k, v) = kv(tok).map_err(badarg)?;
                match k.to_ascii_lowercase().as_str() {
                    "attrs" => attrs = parse_pair_u16(v, "attrs").map_err(badarg)?,
                    other => return Err(badarg(format!("unknown option {other:?}"))),
                }
            }
            Ok(Request::Load {
                name: name.to_string(),
                path: path.to_string(),
                attrs,
            })
        }
        "GEN" => match rest {
            [name, spec] => Ok(Request::Gen {
                name: name.to_string(),
                spec: parse_gen_spec(spec).map_err(badarg)?,
            }),
            _ => Err(badarg(
                "GEN wants <name> <dataset|uniform:NU,NV,M,...>".into(),
            )),
        },
        "SHARD" => {
            let [graph, kvs @ ..] = rest else {
                return Err(badarg("SHARD wants <graph> index=I of=K [alpha=A]".into()));
            };
            let (mut index, mut of, mut alpha) = (None, None, 1usize);
            for tok in kvs {
                let (k, v) = kv(tok).map_err(badarg)?;
                match k.to_ascii_lowercase().as_str() {
                    "index" => {
                        index = Some(
                            v.parse::<usize>()
                                .map_err(|e| badarg(format!("index: {e}")))?,
                        )
                    }
                    "of" => of = Some(v.parse::<usize>().map_err(|e| badarg(format!("of: {e}")))?),
                    "alpha" => {
                        alpha = v
                            .parse::<usize>()
                            .map_err(|e| badarg(format!("alpha: {e}")))?
                    }
                    other => return Err(badarg(format!("unknown option {other:?}"))),
                }
            }
            let index = index.ok_or_else(|| badarg("index= is required".into()))?;
            let of = of.ok_or_else(|| badarg("of= is required".into()))?;
            if of == 0 {
                return Err(badarg("of= must be at least 1".into()));
            }
            if index >= of {
                return Err(badarg(format!("index={index} out of range for of={of}")));
            }
            if alpha == 0 {
                return Err(badarg("alpha= must be at least 1".into()));
            }
            Ok(Request::Shard {
                graph: graph.to_string(),
                index,
                of,
                alpha,
            })
        }
        "ENUM" => {
            let [graph, model, opts @ ..] = rest else {
                return Err(badarg("ENUM wants <graph> <model> <params...>".into()));
            };
            parse_enum(graph, model, opts).map_err(badarg)
        }
        other => Err(Reply::err("BADCMD", format!("unknown command {other:?}"))),
    }
}

/// The value of `key` in a status line of `key=value` tokens, e.g.
/// `field("OK model=SSFBC count=3", "count") == Some("3")`.
pub fn field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

/// The spec as `GEN` takes it; the inverse of the parser.
impl std::fmt::Display for GenSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GenSpec::Dataset(d) => f.write_str(&d.to_string().to_ascii_lowercase()),
            GenSpec::Uniform {
                n_upper,
                n_lower,
                m,
                seed,
                attrs,
            } => {
                write!(f, "uniform:{n_upper},{n_lower},{m}")?;
                match (seed, attrs) {
                    (DEFAULT_SEED, DEFAULT_ATTRS) => Ok(()),
                    (seed, DEFAULT_ATTRS) => write!(f, ",{seed}"),
                    (seed, (au, av)) => write!(f, ",{seed},{au},{av}"),
                }
            }
        }
    }
}

/// An optional field: ` key=value` when set, nothing otherwise.
pub(crate) struct Opt<'a, T>(pub(crate) &'a str, pub(crate) Option<T>);

impl<T: std::fmt::Display> std::fmt::Display for Opt<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.1 {
            Some(v) => write!(f, " {}={v}", self.0),
            None => Ok(()),
        }
    }
}

/// The request as one protocol line, the exact inverse of
/// [`parse_request`]: verbs in upper case, optional fields left out
/// when they hold their default value.
impl std::fmt::Display for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Request::Ping => f.write_str("PING"),
            Request::Load { name, path, attrs } => {
                let attrs = (*attrs != DEFAULT_ATTRS).then(|| format!("{},{}", attrs.0, attrs.1));
                write!(f, "LOAD {name} {path}{}", Opt("attrs", attrs))
            }
            Request::Gen { name, spec } => write!(f, "GEN {name} {spec}"),
            Request::Graphs => f.write_str("GRAPHS"),
            Request::Drop { name } => write!(f, "DROP {name}"),
            Request::AddEdge { graph, u, v } => write!(f, "ADDEDGE {graph} {u} {v}"),
            Request::DelEdge { graph, u, v } => write!(f, "DELEDGE {graph} {u} {v}"),
            Request::AddVertex { graph, side, attr } => {
                let side = match side {
                    bigraph::Side::Upper => "upper",
                    bigraph::Side::Lower => "lower",
                };
                let attr = Opt("attr", (*attr != 0).then_some(attr));
                write!(f, "ADDVERTEX {graph} {side}{attr}")
            }
            Request::Shard {
                graph,
                index,
                of,
                alpha,
            } => {
                let alpha = Opt("alpha", (*alpha != 1).then_some(alpha));
                write!(f, "SHARD {graph} index={index} of={of}{alpha}")
            }
            Request::Enum { graph, model, opts } => {
                let base = model.base();
                let mode = match opts.mode {
                    EnumMode::Collect => "",
                    EnumMode::Count => " count-only",
                    EnumMode::Maximum(SizeMetric::Vertices) => " max=vertices",
                    EnumMode::Maximum(SizeMetric::Edges) => " max=edges",
                };
                write!(
                    f,
                    "ENUM {graph} {} alpha={} beta={} delta={}{}{}{}{}{}{mode}",
                    model.name().to_ascii_lowercase(),
                    base.alpha,
                    base.beta,
                    base.delta,
                    Opt("theta", model.theta()),
                    Opt("threads", (opts.threads > 1).then_some(opts.threads)),
                    Opt("limit", opts.limit),
                    Opt("deadline-ms", opts.deadline.map(|d| d.as_millis())),
                    Opt(
                        "substrate",
                        (opts.substrate != Substrate::Auto).then_some(opts.substrate)
                    ),
                )
            }
            Request::Stats => f.write_str("STATS"),
            Request::Metrics => f.write_str("METRICS"),
            Request::Slowlog { n: None } => f.write_str("SLOWLOG"),
            Request::Slowlog { n: Some(n) } => write!(f, "SLOWLOG {n}"),
            Request::Trace { mode } => write!(f, "TRACE {mode}"),
            Request::Shutdown => f.write_str("SHUTDOWN"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_u16_parses_two_values_and_names_the_field() {
        assert_eq!(parse_pair_u16("3,4", "attrs"), Ok((3, 4)));
        assert_eq!(parse_pair_u16(" 3 , 4 ", "attrs"), Ok((3, 4)));
        for bad in ["3", "3,4,5", "x,4"] {
            let err = parse_pair_u16(bad, "--attrs").unwrap_err();
            assert!(err.starts_with("--attrs: "), "{bad}: {err}");
        }
    }

    #[test]
    fn parses_simple_verbs_case_insensitively() {
        assert_eq!(parse_request("ping").unwrap(), Request::Ping);
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("Shutdown").unwrap(), Request::Shutdown);
        assert_eq!(parse_request("GRAPHS").unwrap(), Request::Graphs);
        assert_eq!(
            parse_request("DROP g").unwrap(),
            Request::Drop { name: "g".into() }
        );
    }

    #[test]
    fn parses_observability_verbs() {
        assert_eq!(parse_request("metrics").unwrap(), Request::Metrics);
        assert_eq!(
            parse_request("SLOWLOG").unwrap(),
            Request::Slowlog { n: None }
        );
        assert_eq!(
            parse_request("slowlog 5").unwrap(),
            Request::Slowlog { n: Some(5) }
        );
        assert!(parse_request("SLOWLOG x").is_err());
        assert!(parse_request("SLOWLOG 1 2").is_err());
        assert_eq!(
            parse_request("TRACE on").unwrap(),
            Request::Trace {
                mode: TraceMode::On
            }
        );
        assert_eq!(
            parse_request("trace OFF").unwrap(),
            Request::Trace {
                mode: TraceMode::Off
            }
        );
        assert_eq!(
            parse_request("TRACE sample=3").unwrap(),
            Request::Trace {
                mode: TraceMode::Sample(3)
            }
        );
        assert!(parse_request("TRACE").is_err());
        assert!(parse_request("TRACE maybe").is_err());
        assert!(parse_request("TRACE sample=0").is_err());
        assert!(parse_request("TRACE on off").is_err());
    }

    #[test]
    fn parses_load_and_gen() {
        assert_eq!(
            parse_request("LOAD g /tmp/x attrs=3,2").unwrap(),
            Request::Load {
                name: "g".into(),
                path: "/tmp/x".into(),
                attrs: (3, 2)
            }
        );
        assert_eq!(
            parse_request("GEN yt youtube").unwrap(),
            Request::Gen {
                name: "yt".into(),
                spec: GenSpec::Dataset(Dataset::Youtube)
            }
        );
        assert_eq!(
            parse_request("GEN u uniform:10,20,30,7").unwrap(),
            Request::Gen {
                name: "u".into(),
                spec: GenSpec::Uniform {
                    n_upper: 10,
                    n_lower: 20,
                    m: 30,
                    seed: 7,
                    attrs: (2, 2)
                }
            }
        );
        assert_eq!(
            parse_request("GEN u uniform:10,20,30,7,3,1").unwrap(),
            Request::Gen {
                name: "u".into(),
                spec: GenSpec::Uniform {
                    n_upper: 10,
                    n_lower: 20,
                    m: 30,
                    seed: 7,
                    attrs: (3, 1)
                }
            }
        );
        assert!(parse_request("GEN u uniform:10,20").is_err());
        assert!(parse_request("GEN u nope").is_err());
        assert!(parse_request("LOAD onlyname").is_err());
    }

    #[test]
    fn gen_spec_rejects_out_of_range_values_instead_of_wrapping() {
        // Regression: attr domains were narrowed with `as u16`, so
        // 70000 silently wrapped to 4464 and generated a different
        // graph than asked for. Now it is a parse error.
        let err = parse_request("GEN u uniform:10,20,30,7,70000,2").unwrap_err();
        assert!(err.status.starts_with("ERR BADARG"), "{}", err.status);
        assert!(err.status.contains("70000"), "{}", err.status);
        assert!(parse_request("GEN u uniform:10,20,30,7,2,70000").is_err());
        // u16::MAX itself is still a legal domain size.
        assert_eq!(
            parse_request("GEN u uniform:10,20,30,7,65535,2").unwrap(),
            Request::Gen {
                name: "u".into(),
                spec: GenSpec::Uniform {
                    n_upper: 10,
                    n_lower: 20,
                    m: 30,
                    seed: 7,
                    attrs: (65535, 2)
                }
            }
        );
        // Counts beyond the native pointer width are rejected, not
        // wrapped (only observable on 32-bit targets; on 64-bit every
        // u64 fits, so just assert the parse still succeeds there).
        let huge = format!("GEN u uniform:{},20,30", 1u64 << 40);
        if usize::try_from(1u64 << 40).is_ok() {
            assert!(parse_request(&huge).is_ok());
        } else {
            assert!(parse_request(&huge).is_err());
        }
    }

    #[test]
    fn parses_mutation_verbs() {
        assert_eq!(
            parse_request("ADDEDGE g 3 7").unwrap(),
            Request::AddEdge {
                graph: "g".into(),
                u: 3,
                v: 7
            }
        );
        assert_eq!(
            parse_request("deledge g 0 1").unwrap(),
            Request::DelEdge {
                graph: "g".into(),
                u: 0,
                v: 1
            }
        );
        assert_eq!(
            parse_request("ADDVERTEX g upper").unwrap(),
            Request::AddVertex {
                graph: "g".into(),
                side: bigraph::Side::Upper,
                attr: 0
            }
        );
        assert_eq!(
            parse_request("ADDVERTEX g lower attr=1").unwrap(),
            Request::AddVertex {
                graph: "g".into(),
                side: bigraph::Side::Lower,
                attr: 1
            }
        );
        assert!(parse_request("ADDEDGE g 3").is_err());
        assert!(parse_request("ADDEDGE g x 7").is_err());
        assert!(parse_request("DELEDGE g 3 7 9").is_err());
        assert!(parse_request("ADDVERTEX g sideways").is_err());
        assert!(parse_request("ADDVERTEX g upper attr=oops").is_err());
        assert!(parse_request("ADDVERTEX g upper bogus=1").is_err());
    }

    #[test]
    fn parses_shard() {
        assert_eq!(
            parse_request("SHARD g index=1 of=4").unwrap(),
            Request::Shard {
                graph: "g".into(),
                index: 1,
                of: 4,
                alpha: 1
            }
        );
        assert_eq!(
            parse_request("shard g of=2 index=0 alpha=3").unwrap(),
            Request::Shard {
                graph: "g".into(),
                index: 0,
                of: 2,
                alpha: 3
            }
        );
        assert!(parse_request("SHARD g index=0").is_err());
        assert!(parse_request("SHARD g of=2").is_err());
        assert!(parse_request("SHARD g index=2 of=2").is_err());
        assert!(parse_request("SHARD g index=0 of=0").is_err());
        assert!(parse_request("SHARD g index=0 of=2 alpha=0").is_err());
        assert!(parse_request("SHARD g index=0 of=2 bogus=1").is_err());
        assert!(parse_request("SHARD").is_err());
    }

    #[test]
    fn parses_enum_with_options() {
        let req = parse_request(
            "ENUM g pbsfbc alpha=2 beta=1 delta=1 theta=0.3 threads=4 \
             limit=10 deadline-ms=250 substrate=bitset count-only",
        )
        .unwrap();
        let Request::Enum { graph, model, opts } = req else {
            panic!("not an ENUM");
        };
        assert_eq!(graph, "g");
        assert_eq!(model.name(), "PBSFBC");
        assert_eq!(model.base(), FairParams::unchecked(2, 1, 1));
        assert_eq!(model.theta(), Some(0.3));
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.limit, Some(10));
        assert_eq!(opts.deadline, Some(Duration::from_millis(250)));
        assert_eq!(opts.substrate, Substrate::Bitset);
        assert_eq!(opts.mode, EnumMode::Count);
    }

    #[test]
    fn parses_enum_maximum_mode() {
        let req = parse_request("ENUM g bsfbc alpha=1 beta=1 delta=0 max=edges").unwrap();
        let Request::Enum { model, opts, .. } = req else {
            panic!();
        };
        assert_eq!(model.name(), "BSFBC");
        assert_eq!(opts.mode, EnumMode::Maximum(SizeMetric::Edges));
    }

    #[test]
    fn rejects_bad_enums() {
        // Missing params.
        assert!(parse_request("ENUM g ssfbc alpha=2 beta=1").is_err());
        // theta on an absolute model / missing on a proportion model.
        assert!(parse_request("ENUM g ssfbc alpha=2 beta=1 delta=1 theta=0.3").is_err());
        assert!(parse_request("ENUM g pssfbc alpha=2 beta=1 delta=1").is_err());
        // Invalid values.
        assert!(parse_request("ENUM g ssfbc alpha=0 beta=1 delta=1").is_err());
        assert!(parse_request("ENUM g pssfbc alpha=1 beta=1 delta=1 theta=0.9").is_err());
        assert!(parse_request("ENUM g ssfbc alpha=2 beta=1 delta=1 bogus=1").is_err());
        assert!(parse_request("ENUM g nsfbc alpha=2 beta=1 delta=1").is_err());
        // Unknown verb & empty line.
        assert!(parse_request("FROB x").is_err());
        assert!(parse_request("   ").is_err());
    }

    #[test]
    fn reply_blocks_serialize_with_terminator() {
        let mut r = Reply::ok("count=3");
        r.payload.push("L=[0] R=[1]".into());
        let mut buf = Vec::new();
        r.write_to(&mut buf).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "OK count=3\nL=[0] R=[1]\n.\n"
        );
        assert!(r.is_ok());
        let e = Reply::err("BUSY", "queue full");
        assert!(!e.is_ok());
        assert_eq!(e.status, "ERR BUSY queue full");
        assert!(Reply::greeting().status.contains("protocol=1"));
    }
}
