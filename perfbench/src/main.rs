//! `perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <serve-mix|enum-heavy|update-mix|sharded>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client connection drives the workload's seeded request stream
//! as a closed loop (the next request goes out when the previous reply
//! has arrived) against servers running as threads of this process.
//! Every reply is hashed while the clock runs and checked against an
//! in-process reference afterwards. `--trace 0` prints the end-to-end
//! metrics, measured with tracing off; `--trace 1` runs the same
//! stream with `TRACE on`, replays it against an identical in-process
//! engine under the benchmark's own timers, and prints the per-layer
//! split. The last stdout line is the result object; the line before
//! it is a fuller report with run metadata.

mod client;
mod fleet;
mod json;
mod layers;
mod stats;
mod trace;
mod verify;
mod workload;

use client::{Client, Reply};
use fleet::Fleet;
use json::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Mode, Op, Req, Spec, Workload};

/// Set-ups per run; `setup_s` is their median. Half run before the
/// timed loop (the last of them serves it) and half after, so the
/// figures sample the host at both ends of the run.
const SETUPS: usize = 9;

/// Add + delete pairs of the update probe sent before each timed deck.
const PROBE_SLICE: usize = 16;

/// Where in the run a request was sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `GEN` during set-up.
    Gen,
    /// Plan warm-up during set-up.
    Warm,
    /// One untimed deck after set-up.
    Prime,
    /// The timed closed loop (tracing off).
    Timed,
    /// Traced run: the stream with `TRACE on`.
    Traced,
    /// Traced run: the stream with `TRACE off`, for the overhead ratio.
    Untraced,
}

/// One request and its reply.
pub struct Sample {
    /// When it was sent.
    pub phase: Phase,
    /// The request (`None` for `GEN` lines).
    pub req: Option<Req>,
    /// What came back.
    pub reply: Reply,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} wants a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            println!("{}", out.report.render());
            println!("{}", out.result.render());
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// What a run prints.
struct Output {
    report: Json,
    result: Json,
    correct: bool,
}

/// What a run keeps of the replies it gets while the servers are
/// measured: round trips (8 bytes a request) and, per distinct request,
/// the first reply plus how many later replies differed from it. A
/// record per request would grow the process's memory with throughput
/// and show in `peak_rss_mb`.
pub struct TimedLog {
    /// Requests sent.
    pub requests: usize,
    /// `ENUM` round trips, ms.
    pub enum_ms: Vec<f64>,
    /// Round trips of `ENUM`s that prepared their plan (`cached=false`).
    pub cold_ms: Vec<f64>,
    /// The count-only ones among them.
    pub cold_count_ms: Vec<f64>,
    /// `ADDEDGE`/`DELEDGE` round trips.
    pub update_ms: Vec<f64>,
    seen: BTreeMap<(u32, String), Seen>,
}

/// The replies to one request line on one graph state.
struct Seen {
    req: Req,
    first: Reply,
    n: usize,
    differing: usize,
}

/// What must repeat across replies to the same request.
fn digest(r: &Reply) -> (bool, Option<u64>, Option<u64>, u64, u64) {
    (r.is_ok(), r.num("count"), r.num("edges"), r.hash, r.lines)
}

impl TimedLog {
    fn new() -> TimedLog {
        // Reserved up front, so growing never copies.
        let reserve = || Vec::with_capacity(1 << 16);
        TimedLog {
            requests: 0,
            enum_ms: reserve(),
            cold_ms: reserve(),
            cold_count_ms: reserve(),
            update_ms: reserve(),
            seen: BTreeMap::new(),
        }
    }

    fn record(&mut self, req: Req, line: String, reply: Reply) {
        self.requests += 1;
        let t = ms(reply.rtt);
        match req.op {
            Op::Enum(q) => {
                self.enum_ms.push(t);
                if reply.field("cached") == Some("false") {
                    self.cold_ms.push(t);
                    if q.mode == Mode::Count {
                        self.cold_count_ms.push(t);
                    }
                }
            }
            Op::Edit { .. } => self.update_ms.push(t),
        }
        match self.seen.entry((req.state, line)) {
            Entry::Vacant(e) => {
                e.insert(Seen {
                    req,
                    first: reply,
                    n: 1,
                    differing: 0,
                });
            }
            Entry::Occupied(mut e) => {
                let s = e.get_mut();
                s.n += 1;
                if digest(&s.first) != digest(&reply) {
                    s.differing += 1;
                }
            }
        }
    }
}

/// Reference graphs and answers, built as verification needs them.
#[derive(Default)]
struct Refs {
    graphs: BTreeMap<(usize, u32), bigraph::BipartiteGraph>,
    expected: BTreeMap<(u32, String), verify::Expected>,
}

/// Generate graph `g` of the workload as the service's `GEN` does.
pub fn generate(g: &workload::GraphSpec) -> bigraph::BipartiteGraph {
    match fbe_service::protocol::parse_request(&g.line()) {
        Ok(fbe_service::protocol::Request::Gen { spec, .. }) => {
            fbe_service::catalog::generate(spec).0
        }
        other => panic!("workload GEN line {:?} parses as {other:?}", g.line()),
    }
}

/// The benchmark's state for one run.
pub struct Bench {
    /// The workload made concrete.
    pub spec: Spec,
    /// Every request sent outside the timed loop, in order.
    pub samples: Vec<Sample>,
    /// The timed loop's replies.
    pub timed: TimedLog,
    /// Replies to what runs before each timed deck (re-warms, probe).
    pub side: TimedLog,
    /// Add + delete pairs of clean edges that time edits on workloads
    /// whose stream has none (empty on update-mix).
    probe: Vec<Req>,
    rng: StdRng,
    /// The `--seed`.
    pub seed: u64,
}

impl Bench {
    fn new(workload: Workload, seed: u64) -> Bench {
        // Graph 0 is dropped once the spec is built: the graphs the
        // benchmark needs are generated again after the RSS reading.
        let graph0 = generate(&workload.graphs()[0]);
        let spec = Spec::new(workload, &graph0);
        let probe = match workload {
            Workload::UpdateMix => Vec::new(),
            Workload::Sharded => Spec::probe(&shard0(&graph0), &spec.warm_pairs(0), 0),
            Workload::EnumHeavy => Spec::probe(&generate(&spec.graphs[1]), &spec.warm_pairs(1), 1),
            Workload::ServeMix => Spec::probe(&graph0, &spec.warm_pairs(0), 0),
        };
        Bench {
            spec,
            samples: Vec::new(),
            timed: TimedLog::new(),
            side: TimedLog::new(),
            probe,
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Graph `g` as generated.
    pub fn graph(&self, g: usize) -> bigraph::BipartiteGraph {
        generate(&self.spec.graphs[g])
    }

    fn send(&mut self, client: &mut Client, phase: Phase, req: Req) -> io::Result<Duration> {
        let line = req.line(&self.spec.graphs);
        let reply = client.call(&line)?;
        let rtt = reply.rtt;
        if phase == Phase::Timed {
            self.timed.record(req, line, reply);
        } else {
            self.samples.push(Sample {
                phase,
                req: Some(req),
                reply,
            });
        }
        Ok(rtt)
    }

    /// Start the fleet, `GEN` the graphs and warm every plan. Returns
    /// the fleet, a connected client and the timed set-up: bind, `GEN`
    /// (and, on a coordinator, the `SHARD` carve it fans out) and the
    /// warm-up round trips. Thread spawns and the connect are excluded.
    fn setup(&mut self) -> io::Result<(Fleet, Client, Duration)> {
        let (fleet, mut setup) = Fleet::start(self.spec.workload.shards())?;
        let mut client = Client::connect(fleet.addr)?;
        for g in self.spec.graphs.clone() {
            let reply = client.call(&g.line())?;
            setup += reply.rtt;
            self.samples.push(Sample {
                phase: Phase::Gen,
                req: None,
                reply,
            });
        }
        for q in self.spec.warmup.clone() {
            setup += self.send(&mut client, Phase::Warm, Req::query(q))?;
        }
        Ok((fleet, client, setup))
    }

    /// Whole decks of the stream until `seconds` have passed, calling
    /// `before` ahead of each deck with the clock stopped; returns the
    /// time spent in decks and their number.
    fn closed_loop(
        &mut self,
        client: &mut Client,
        phase: Phase,
        seconds: f64,
        mut before: impl FnMut(&mut Client) -> io::Result<()>,
    ) -> io::Result<(Duration, usize)> {
        let mut wall = Duration::ZERO;
        let mut decks = 0;
        while decks == 0 || wall.as_secs_f64() < seconds {
            before(client)?;
            let t0 = Instant::now();
            for req in self.spec.deck(&mut self.rng) {
                self.send(client, phase, req)?;
            }
            wall += t0.elapsed();
            decks += 1;
        }
        Ok((wall, decks))
    }

    /// Check one reply against its reference.
    fn check(&self, refs: &mut Refs, req: Option<Req>, reply: &Reply) -> Result<(), String> {
        match req.map(|r| (r, r.op)) {
            None if reply.is_ok() => Ok(()),
            None => Err(format!("error reply {:?}", reply.status)),
            Some((r, Op::Enum(q))) => {
                let key = (r.state, q.key(self.spec.graphs[q.graph].name));
                if !refs.expected.contains_key(&key) {
                    // A state other than 0 is graph 0 plus one pool edge.
                    let g = refs.graphs.entry((q.graph, r.state)).or_insert_with(|| {
                        let g = self.graph(q.graph);
                        match r.state {
                            0 => g,
                            s => {
                                let (u, v) = self.spec.pool[s as usize - 1];
                                g.with_edge(u, v)
                                    .expect("edit-pool edges are absent from the generated graph")
                            }
                        }
                    });
                    let exp = verify::reference(g, &q);
                    refs.expected.insert(key.clone(), exp);
                }
                verify::check_enum(reply, &refs.expected[&key])
            }
            Some((r, Op::Edit { .. })) => verify::check_edit(reply, r.edges_after),
        }
    }

    /// Check every reply (the samples, `extra`, then the logs) against
    /// its reference; returns the failures as (replies, reason).
    fn verify(&self, extra: &[(Req, Reply)]) -> Vec<(usize, String)> {
        let mut refs = Refs::default();
        let mut failures = Vec::new();
        let singles = self
            .samples
            .iter()
            .map(|s| (s.req, &s.reply))
            .chain(extra.iter().map(|(r, reply)| (Some(*r), reply)));
        for (req, reply) in singles {
            if let Err(e) = self.check(&mut refs, req, reply) {
                failures.push((1, e));
            }
        }
        let logged = self.timed.seen.iter().chain(&self.side.seen);
        for ((_, line), s) in logged {
            match self.check(&mut refs, Some(s.req), &s.first) {
                Ok(()) if s.differing == 0 => {}
                Ok(()) => failures.push((
                    s.differing,
                    format!(
                        "{} of {} replies to {line:?} differ from the first",
                        s.differing, s.n
                    ),
                )),
                Err(e) => failures.push((s.n, format!("{line:?}: {e}"))),
            }
        }
        failures
    }
}

fn run(args: &Args) -> io::Result<Output> {
    let mut bench = Bench::new(args.workload, args.seed);
    let w = args.workload;
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let Measured {
        metrics,
        mut meta,
        extra,
    } = if args.trace {
        layers::traced_run(&mut bench, args.seconds)?
    } else {
        end_to_end(&mut bench, args.seconds)?
    };
    let failures = bench.verify(&extra);
    for (n, why) in failures.iter().take(5) {
        eprintln!("perfbench: {n} replies failed verification: {why}");
    }
    let attempted = bench.samples.len() + bench.timed.requests + bench.side.requests + extra.len();
    let failed: usize = failures.iter().map(|f| f.0).sum();
    meta.push(("attempted", Json::Num(attempted as f64)));
    meta.push(("failed", Json::Num(failed as f64)));
    meta.push(("failed_share", Json::Num(failed as f64 / attempted as f64)));
    let metric_obj = |with_na: bool| {
        Json::obj(metrics.iter().map(|(name, unit, value)| {
            let value = match value {
                Some(v) => Json::Num(*v),
                None if with_na => Json::str("n/a"),
                // The result line carries numbers only: a layer the
                // workload does not exercise reads 0 there (and n/a in
                // the report line).
                None => Json::Num(0.0),
            };
            (
                name.clone(),
                Json::obj([("value", value), ("unit", Json::str(*unit))]),
            )
        }))
    };
    let correct = failed == 0;
    Ok(Output {
        report: Json::obj([
            (
                "report",
                Json::obj(meta_common(args).into_iter().chain(meta)),
            ),
            ("metrics", metric_obj(true)),
        ]),
        result: Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", metric_obj(false)),
        ]),
        correct,
    })
}

/// A metric: name, unit, value (`None`: the workload does not exercise it).
pub type Metric = (String, &'static str, Option<f64>);

/// What a measurement mode hands back for verification and printing.
pub struct Measured {
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Mode-specific report metadata.
    pub meta: Meta,
    /// Replies not recorded as samples (the traced run's in-process
    /// replays), verified like the samples.
    pub extra: Vec<(Req, Reply)>,
}

/// Report metadata entries.
pub type Meta = Vec<(&'static str, Json)>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `--trace 0`: set up [`SETUPS`] times and run the timed closed loop
/// on the last fleet set up before it. Where the stream has no edits,
/// the plans are re-warmed and a slice of the update probe runs before
/// each deck, clock stopped; where it never misses, the graphs are
/// dropped and generated again first, so the re-warm times cold plans.
fn end_to_end(bench: &mut Bench, seconds: f64) -> io::Result<Measured> {
    let w = bench.spec.workload;
    let mut setups = Vec::new();
    for _ in 0..SETUPS / 2 {
        let (fleet, client, setup) = bench.setup()?;
        setups.push(setup.as_secs_f64());
        fleet.stop(Some(client))?;
    }
    let (fleet, mut client, setup) = bench.setup()?;
    setups.push(setup.as_secs_f64());
    bench.closed_loop(&mut client, Phase::Prime, 0.0, |_| Ok(()))?;

    // The coordinator refuses edits; shard 0 takes them.
    let mut editor = match w {
        Workload::Sharded => Some(Client::connect(fleet.shard_addrs[0])?),
        _ => None,
    };
    let (probe, graphs, warmup) = (
        bench.probe.clone(),
        bench.spec.graphs.clone(),
        bench.spec.warmup.clone(),
    );
    let mut next = probe.iter().cycle();
    let mut side = TimedLog::new();
    let (wall, decks) = bench.closed_loop(&mut client, Phase::Timed, seconds, |client| {
        if probe.is_empty() {
            return Ok(());
        }
        if w.cold_from_warmup() {
            for g in &graphs {
                for line in [format!("DROP {}", g.name), g.line()] {
                    let r = client.call(&line)?;
                    if !r.is_ok() {
                        return Err(io::Error::other(format!("{line:?}: {:?}", r.status)));
                    }
                }
            }
        }
        // Re-warm in the set-up order first, so the cached plans (and
        // with them the core trackers an edit repairs) do not depend
        // on where the seeded stream stands.
        for q in &warmup {
            let r = Req::query(*q);
            let line = r.line(&graphs);
            side.record(r, line.clone(), client.call(&line)?);
        }
        let target = editor.as_mut().unwrap_or(client);
        for r in next.by_ref().take(2 * PROBE_SLICE) {
            let line = r.line(&graphs);
            side.record(*r, line.clone(), target.call(&line)?);
        }
        Ok(())
    })?;
    bench.side = side;
    let peak_rss_mib = vm_hwm_kib().map(|k| k as f64 / 1024.0);
    fleet.stop(Some(client))?;
    for _ in SETUPS / 2 + 1..SETUPS {
        let (fleet, client, setup) = bench.setup()?;
        setups.push(setup.as_secs_f64());
        fleet.stop(Some(client))?;
    }

    let timed = &bench.timed;
    let enum_ms = &timed.enum_ms;
    // After a DROP + GEN every re-warm query prepares its plan; each is
    // count-only or `limit=1`, so its reply comes in one piece.
    // On serve-mix about half the cold collect replies, which come in
    // several 8 KiB pieces, wait ~40 ms for the client's delayed ACK, so
    // their median flipped between ~4 ms and ~44 ms from run to run;
    // its count-only cold replies come in one piece. On update-mix the
    // cold collect replies wait nearly every time.
    let cold_ms = match w {
        _ if w.cold_from_warmup() => bench.side.enum_ms.clone(),
        Workload::ServeMix => timed.cold_count_ms.clone(),
        _ => timed.cold_ms.clone(),
    };
    // Edits as add + delete pairs, half the pair's time each: adds and
    // deletes do different repair work (an add costs several times a
    // delete) and come in equal numbers, so a per-edit median would
    // fall on the boundary between the two. Both the stream and the
    // probe send each add right before its delete.
    let edit_ms = if w == Workload::UpdateMix {
        &timed.update_ms
    } else {
        &bench.side.update_ms
    };
    let update_ms: Vec<f64> = edit_ms
        .chunks(2)
        .map(|pair| pair.iter().sum::<f64>() / 2.0)
        .collect();
    let tail = stats::tail(enum_ms);
    let metrics: Vec<Metric> = vec![
        (
            "throughput_rps".into(),
            "1/s",
            Some(timed.requests as f64 / wall.as_secs_f64()),
        ),
        ("latency_p50_ms".into(), "ms", stats::median(enum_ms)),
        ("latency_tail_ms".into(), "ms", tail.map(|t| t.value)),
        ("cold_latency_p50_ms".into(), "ms", stats::median(&cold_ms)),
        (
            "update_latency_p50_ms".into(),
            "ms",
            stats::median(&update_ms),
        ),
        ("setup_s".into(), "s", stats::median(&setups)),
        ("peak_rss_mb".into(), "MiB", peak_rss_mib),
    ];
    if let Some((name, _, _)) = metrics.iter().find(|m| m.2.is_none()) {
        return Err(io::Error::other(format!("{name}: no samples")));
    }
    let meta: Meta = vec![
        (
            "tail",
            Json::obj([
                ("percentile", Json::Num(tail.map_or(0.0, |t| t.percentile))),
                ("n", Json::Num(enum_ms.len() as f64)),
            ]),
        ),
        (
            "samples",
            Json::obj([
                ("timed_requests", Json::Num(timed.requests as f64)),
                ("timed_decks", Json::Num(decks as f64)),
                ("enum", Json::Num(enum_ms.len() as f64)),
                ("cold", Json::Num(cold_ms.len() as f64)),
                (
                    "cold_source",
                    Json::str(if w.cold_from_warmup() {
                        "warm-up after DROP + GEN before each deck"
                    } else {
                        "timed stream"
                    }),
                ),
                ("updates", Json::Num(update_ms.len() as f64)),
                (
                    "updates_source",
                    Json::str(if w == Workload::UpdateMix {
                        "timed stream, per add+delete pair"
                    } else {
                        "probe before each deck, per add+delete pair"
                    }),
                ),
                ("setups", Json::Num(setups.len() as f64)),
                ("wall_s", Json::Num(wall.as_secs_f64())),
            ]),
        ),
    ];
    Ok(Measured {
        metrics,
        meta,
        extra: Vec::new(),
    })
}

/// Shard 0 of the 2-way partition a coordinator carves (`SHARD ... of=2`
/// at the default α=1).
pub fn shard0(g: &bigraph::BipartiteGraph) -> bigraph::BipartiteGraph {
    let plan = bigraph::partition::plan_shards(g, bigraph::Side::Lower, 1, 2);
    bigraph::partition::shard_edges(g, &plan, 0)
}

/// `VmHWM` of this process in KiB.
fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn meta_common(args: &Args) -> Meta {
    let w = args.workload;
    vec![
        ("workload", Json::str(w.name())),
        ("why", Json::str(w.why())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        (
            "loop",
            Json::str("closed: one client connection, one request in flight"),
        ),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
        ("git", git_tree()),
    ]
}

/// The git tree hash of `HEAD` plus a dirty flag, when the working
/// directory is a git checkout (`null` otherwise).
fn git_tree() -> Json {
    if !std::path::Path::new(".git").exists() {
        return Json::Null;
    }
    let git = |args: &[&str]| -> Option<String> {
        let out = std::process::Command::new("git")
            .args(args)
            .env("GIT_CEILING_DIRECTORIES", "..")
            .env("GIT_CONFIG_NOSYSTEM", "1")
            .env("GIT_CONFIG_GLOBAL", "/dev/null")
            .stderr(std::process::Stdio::null())
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match (
        git(&["rev-parse", "HEAD^{tree}"]),
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(tree), Some(status)) => Json::obj([
            ("tree", Json::str(tree)),
            ("dirty", Json::Bool(!status.is_empty())),
        ]),
        _ => Json::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fair_biclique::config::FairParams;
    use fair_biclique::prepared::QueryModel;
    use workload::Query;

    #[test]
    fn timed_log_counts_replies_that_differ_from_the_first() {
        let req = Req::query(Query {
            graph: 0,
            model: QueryModel::Ssfbc(FairParams::new(2, 1, 1).expect("valid")),
            mode: Mode::Count,
            threads: 1,
        });
        let line = "ENUM g ssfbc alpha=2 beta=1 delta=1 count-only";
        let mut log = TimedLog::new();
        for status in ["count=3 cached=false", "count=3 cached=true", "count=4"] {
            log.record(
                req,
                line.into(),
                Reply::from_block(&format!("OK {status}"), &[]),
            );
        }
        let seen = &log.seen[&(0, line.to_string())];
        assert_eq!((seen.n, seen.differing), (3, 1));
        assert_eq!(
            (log.requests, log.enum_ms.len(), log.cold_count_ms.len()),
            (3, 3, 1)
        );
    }
}
