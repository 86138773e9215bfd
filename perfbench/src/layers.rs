//! `--trace 1`: the per-layer split of a workload.
//!
//! The run has three parts. (1) Over TCP, the stream runs for half the
//! time with `TRACE on` and half with it off; the client records each
//! round trip, and `STATS` before and after the traced half gives the
//! plan-cache deltas. (2) An identical fleet is set up and the traced
//! half is replayed request by request straight into its front
//! `Engine::handle_line_in`, under the benchmark's own timers around
//! `protocol::parse_request`, `handle_line_in` and `Reply::write_to`;
//! the spans the service appends to each traced reply come from the
//! same call. The stream is deterministic, so request `i` of the replay
//! meets the same plan-cache state as request `i` over TCP. (3) On a
//! coordinator, every traced `ENUM` is also sent straight to each shard.

use crate::client::{Client, Reply};
use crate::fleet::Fleet;
use crate::json::Json;
use crate::trace::{self, ProgramSpan, SpanRec};
use crate::workload::{Op, Req, Workload};
use crate::{stats, Bench, Measured, Meta, Metric, Phase};
use fbe_service::engine::Session;
use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

/// One request replayed in process.
struct Replayed {
    req: Req,
    parse_us: f64,
    handle_us: f64,
    render_us: f64,
    reply: Reply,
    spans: Vec<ProgramSpan>,
}

impl Replayed {
    fn span(&self, name: &str) -> Option<&ProgramSpan> {
        self.spans.iter().find(|s| s.name == name)
    }

    fn is_edit(&self) -> bool {
        matches!(self.req.op, Op::Edit { .. })
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn mean(xs: impl IntoIterator<Item = f64>) -> Option<f64> {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in xs {
        sum += x;
        n += 1;
    }
    (n > 0).then(|| sum / n as f64)
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

fn expect_ok(reply: &Reply) -> io::Result<()> {
    if reply.is_ok() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "unexpected reply {:?}",
            reply.status
        )))
    }
}

/// `STATS` counters, summed over a coordinator's `shard<i>_` lines.
fn stats(client: &mut Client) -> io::Result<BTreeMap<String, f64>> {
    let reply = client.call_keep("STATS", true)?;
    expect_ok(&reply)?;
    let mut out = BTreeMap::new();
    for line in &reply.payload {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        let key = match key.strip_prefix("shard") {
            Some(rest) => rest.split_once('_').map_or(key, |(_, k)| k),
            None => key,
        };
        if let Ok(v) = value.parse::<f64>() {
            *out.entry(key.to_string()).or_insert(0.0) += v;
        }
    }
    Ok(out)
}

/// Run the traced split. Returns the per-layer metrics, metadata, and
/// the replayed replies (verified like the TCP ones).
pub fn traced_run(bench: &mut Bench, seconds: f64) -> io::Result<Measured> {
    let w = bench.spec.workload;
    let half = seconds / 2.0;
    let (fleet, mut client, _) = bench.setup()?;
    let prime_from = bench.samples.len();
    bench.closed_loop(&mut client, Phase::Prime, 0.0, |_| Ok(()))?;
    let prime: Vec<Req> = bench.samples[prime_from..]
        .iter()
        .filter_map(|s| s.req)
        .collect();

    let before = stats(&mut client)?;
    expect_ok(&client.call("TRACE on")?)?;
    let traced_from = bench.samples.len();
    bench.closed_loop(&mut client, Phase::Traced, half, |_| Ok(()))?;
    let traced_to = bench.samples.len();
    let after = stats(&mut client)?;
    expect_ok(&client.call("TRACE off")?)?;
    bench.closed_loop(&mut client, Phase::Untraced, half, |_| Ok(()))?;

    // The coordinator's overhead over its slowest shard, asked directly.
    let mut overhead_us = Vec::new();
    if !fleet.shard_addrs.is_empty() {
        let mut direct = fleet
            .shard_addrs
            .iter()
            .map(|a| Client::connect(*a))
            .collect::<io::Result<Vec<_>>>()?;
        for s in &bench.samples[traced_from..traced_to] {
            let Some(Req {
                op: Op::Enum(q), ..
            }) = s.req
            else {
                continue;
            };
            let line = q.shard_line(bench.spec.graphs[q.graph].name);
            let mut slowest = Duration::ZERO;
            for c in &mut direct {
                let r = c.call(&line)?;
                expect_ok(&r)?;
                slowest = slowest.max(r.rtt);
            }
            overhead_us.push(us(s.reply.rtt) - us(slowest));
        }
    }
    fleet.stop(Some(client))?;

    // Replay on an identical fleet, in process.
    let (replay, _) = Fleet::start(w.shards())?;
    let engine = std::sync::Arc::clone(&replay.front);
    let untimed = |line: &str, session: &mut Session| -> io::Result<()> {
        let out = engine.handle_line_in(line, session);
        if out.reply().is_ok() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "replay of {line:?} answered {:?}",
                out.reply().status
            )))
        }
    };
    let timed = |req: Req, session: &mut Session| -> Replayed {
        let line = req.line(&bench.spec.graphs);
        let t = Instant::now();
        let parsed = fbe_service::protocol::parse_request(&line);
        let parse_us = us(t.elapsed());
        std::hint::black_box(parsed.is_ok());
        let t = Instant::now();
        let out = engine.handle_line_in(&line, session);
        let handle_us = us(t.elapsed());
        let mut buf = Vec::with_capacity(64 * 1024);
        let t = Instant::now();
        let written = out.reply().write_to(&mut buf);
        let render_us = us(t.elapsed());
        std::hint::black_box(written.is_ok());
        let reply = Reply::from_block(&out.reply().status, &out.reply().payload);
        let spans = reply
            .spans
            .iter()
            .filter_map(|l| trace::parse_span(l))
            .collect();
        Replayed {
            req,
            parse_us,
            handle_us,
            render_us,
            reply,
            spans,
        }
    };
    let mut session = Session::new();
    for g in &bench.spec.graphs {
        untimed(&g.line(), &mut session)?;
    }
    untimed("TRACE on", &mut session)?;
    let warm: Vec<Replayed> = bench
        .spec
        .warmup
        .iter()
        .map(|q| timed(Req::query(*q), &mut session))
        .collect();
    untimed("TRACE off", &mut session)?;
    for r in &prime {
        untimed(&r.line(&bench.spec.graphs), &mut session)?;
    }
    untimed("TRACE on", &mut session)?;
    let traced_samples: Vec<(Req, Duration)> = bench.samples[traced_from..traced_to]
        .iter()
        .filter_map(|s| s.req.map(|r| (r, s.reply.rtt)))
        .collect();
    let replayed: Vec<Replayed> = traced_samples
        .iter()
        .map(|(r, _)| timed(*r, &mut session))
        .collect();
    replay.stop(None)?;

    // Span records: the client's round trip over TCP, the engine call
    // replayed in process with parse inside it and render after it.
    let mut recs: Vec<SpanRec> = Vec::new();
    let mut rtt_us = Vec::new();
    for (i, ((_, rtt), r)) in traced_samples.iter().zip(&replayed).enumerate() {
        let req = i as u32;
        let rec = |name: &str, start, end, parent| SpanRec {
            req,
            name: name.to_string(),
            start,
            end,
            parent,
        };
        let root = recs.len();
        recs.push(rec("client", 0.0, us(*rtt), None));
        rtt_us.push(us(*rtt));
        let handle = recs.len();
        recs.push(rec("engine.handle", 0.0, r.handle_us, Some(root)));
        recs.push(rec("protocol.parse", 0.0, r.parse_us, Some(handle)));
        trace::place(&r.spans, req, handle, r.parse_us, &mut recs);
        recs.push(rec(
            "protocol.render",
            r.handle_us,
            r.handle_us + r.render_us,
            Some(root),
        ));
    }
    let own = trace::self_times(&recs);
    // Per request: the engine's self time, i.e. handle time no child
    // (parse or a service span) covers.
    let engine_self: Vec<f64> = recs
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "engine.handle")
        .map(|(_, o)| *o)
        .collect();
    let spans_file = write_spans(bench, &recs);

    let enum_ms = |phase: Phase| -> Vec<f64> {
        bench
            .samples
            .iter()
            .filter(|s| s.phase == phase && matches!(s.req.map(|r| r.op), Some(Op::Enum(_))))
            .map(|s| s.reply.rtt.as_secs_f64() * 1e3)
            .collect()
    };
    let traced_p50 = stats::median(&enum_ms(Phase::Traced));
    let untraced_p50 = stats::median(&enum_ms(Phase::Untraced));
    let untraced_bytes = mean(
        bench
            .samples
            .iter()
            .filter(|s| s.phase == Phase::Untraced)
            .map(|s| s.reply.bytes as f64),
    );

    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let (hits, misses) = (delta("plan_cache_hits"), delta("plan_cache_misses"));
    let updates = delta("updates_applied");
    let n_traced = traced_samples.len() as f64;

    // Prepare stages per cold plan (warm-up and traced stream).
    let cold: Vec<&Replayed> = warm
        .iter()
        .chain(&replayed)
        .filter(|r| r.span("prepare").is_some())
        .collect();
    let stage = |names: &[&str]| -> Option<f64> {
        mean(cold.iter().map(|r| {
            r.spans
                .iter()
                .filter(|s| s.depth == 1 && names.contains(&s.name.as_str()))
                .map(|s| s.us)
                .sum::<f64>()
        }))
    };
    let enumerates: Vec<&ProgramSpan> = replayed
        .iter()
        .filter_map(|r| r.span("enumerate"))
        .collect();
    let nodes: f64 = enumerates.iter().filter_map(|s| s.num("nodes")).sum();
    let emitted: f64 = enumerates.iter().filter_map(|s| s.num("emitted")).sum();
    let enumerate_us: f64 = enumerates.iter().map(|s| s.us).sum();

    // Mean enumerate time at t=1 ÷ at t=2, summed over the queries
    // run at both thread counts.
    let mut by_threads: BTreeMap<String, [(f64, f64); 2]> = BTreeMap::new();
    for r in &replayed {
        if let (Op::Enum(q), Some(e)) = (r.req.op, r.span("enumerate")) {
            if q.threads <= 2 {
                let slot = &mut by_threads.entry(q.key("")).or_default()[q.threads - 1];
                *slot = (slot.0 + e.us, slot.1 + 1.0);
            }
        }
    }
    let (t1, t2) = by_threads
        .into_values()
        .filter(|[a, b]| a.1 > 0.0 && b.1 > 0.0)
        .fold((0.0, 0.0), |(t1, t2), [a, b]| {
            (t1 + a.0 / a.1, t2 + b.0 / b.1)
        });
    let speedup = ratio(t1, t2);

    let edit_status: Vec<&Reply> = bench.samples[traced_from..traced_to]
        .iter()
        .filter(|s| matches!(s.req.map(|r| r.op), Some(Op::Edit { .. })))
        .map(|s| &s.reply)
        .collect();
    let stale: f64 = edit_status
        .iter()
        .filter_map(|r| r.num("cores_stale"))
        .sum::<u64>() as f64;
    let clean: f64 = edit_status
        .iter()
        .filter_map(|r| r.num("cores_clean"))
        .sum::<u64>() as f64;

    let shard_stat = |i: usize, key: &str| -> Option<f64> {
        mean(replayed.iter().flat_map(|r| {
            r.spans
                .iter()
                .filter(|s| s.name == "shard" && s.num("index") == Some(i as f64))
                .filter_map(|s| s.num(key))
                .collect::<Vec<_>>()
        }))
    };
    let partition_us = (w == Workload::Sharded).then(|| {
        let g0 = bench.graph(0);
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                let plan = bigraph::partition::plan_shards(&g0, bigraph::Side::Lower, 1, 2);
                std::hint::black_box(plan.n_components);
                us(t.elapsed())
            })
            .collect();
        stats::median(&times).unwrap_or(0.0)
    });

    let m = |name: &str, unit: &'static str, v: Option<f64>| (name.to_string(), unit, v);
    let mut metrics: Vec<Metric> = vec![
        m(
            "protocol.parse_us",
            "us",
            mean(replayed.iter().map(|r| r.parse_us)),
        ),
        m(
            "protocol.render_us",
            "us",
            mean(replayed.iter().map(|r| r.render_us)),
        ),
        m("protocol.reply_bytes", "count", untraced_bytes),
        m(
            "server.transport_us",
            "us",
            mean(
                traced_samples
                    .iter()
                    .zip(&replayed)
                    .map(|((_, rtt), r)| us(*rtt) - r.handle_us),
            ),
        ),
        m(
            "engine.handle_us",
            "us",
            mean(replayed.iter().map(|r| r.handle_us)),
        ),
        // Handle time outside the service's top-level spans (whose
        // union counts once: a coordinator's shard spans overlap).
        m(
            "engine.untraced_us",
            "us",
            mean(
                engine_self
                    .iter()
                    .zip(&replayed)
                    .map(|(own, r)| own + r.parse_us),
            ),
        ),
        m("plan_cache.hit_ratio", "ratio", ratio(hits, hits + misses)),
        m(
            "plan_cache.evictions_per_kreq",
            "count",
            (hits + misses > 0.0).then(|| 1000.0 * delta("plan_cache_evictions") / n_traced),
        ),
        m(
            "plan_cache.invalidated_per_update",
            "ratio",
            ratio(delta("plan_cache_invalidated"), updates),
        ),
        m(
            "plan_cache.bytes",
            "bytes",
            (hits + misses > 0.0).then(|| after.get("plan_cache_bytes").copied().unwrap_or(0.0)),
        ),
        m(
            "prepared.prepare_us",
            "us",
            mean(cold.iter().filter_map(|r| r.span("prepare")).map(|s| s.us)),
        ),
        m("prepared.core_peel_us", "us", stage(&["core-peel"])),
        m("prepared.twohop_us", "us", stage(&["2hop"])),
        m("prepared.ego_core_us", "us", stage(&["ego-core"])),
        m("prepared.re_peel_us", "us", stage(&["re-peel"])),
        m(
            "prepared.colorful_us",
            "us",
            stage(&["colorful-lower", "colorful-upper"]),
        ),
        m("prepared.plan_resolve_us", "us", stage(&["plan-resolve"])),
        m(
            "mbea.enumerate_us",
            "us",
            mean(enumerates.iter().map(|s| s.us)),
        ),
        m(
            "mbea.nodes",
            "count",
            mean(enumerates.iter().filter_map(|s| s.num("nodes"))),
        ),
        m(
            "mbea.ns_per_node",
            "ns",
            ratio(1000.0 * enumerate_us, nodes),
        ),
        m("mbea.emitted_per_node", "ratio", ratio(emitted, nodes)),
        m("parallel.speedup_t2", "ratio", speedup),
        m(
            "results.sort_us",
            "us",
            mean(replayed.iter().filter_map(|r| r.span("sort")).map(|s| s.us)),
        ),
        m(
            "catalog.update_us",
            "us",
            mean(replayed.iter().filter(|r| r.is_edit()).map(|r| r.handle_us)),
        ),
        m(
            "incremental.stale_share",
            "ratio",
            ratio(stale, stale + clean),
        ),
    ];
    for i in 0..2 {
        for key in ["connect_us", "request_us", "stream_us"] {
            metrics.push((
                format!("coordinator.shard{i}.{key}"),
                "us",
                shard_stat(i, key),
            ));
        }
    }
    metrics.extend([
        m(
            "coordinator.merge_us",
            "us",
            mean(
                replayed
                    .iter()
                    .filter_map(|r| r.span("merge"))
                    .map(|s| s.us),
            ),
        ),
        m(
            "coordinator.overhead_us",
            "us",
            mean(overhead_us.iter().copied()),
        ),
        m("partition.plan_us", "us", partition_us),
        m(
            "unaccounted_share",
            "ratio",
            ratio(engine_self.iter().sum(), rtt_us.iter().sum()),
        ),
        m(
            "trace.overhead_share",
            "ratio",
            traced_p50.zip(untraced_p50).map(|(t, u)| t / u - 1.0),
        ),
    ]);

    let meta: Meta = vec![
        (
            "samples",
            Json::obj([
                ("traced_requests", Json::Num(n_traced)),
                (
                    "untraced_enum",
                    Json::Num(enum_ms(Phase::Untraced).len() as f64),
                ),
                (
                    "traced_enum",
                    Json::Num(enum_ms(Phase::Traced).len() as f64),
                ),
                ("cold_plans", Json::Num(cold.len() as f64)),
                ("enumerate_spans", Json::Num(enumerates.len() as f64)),
                ("direct_shard_pairs", Json::Num(overhead_us.len() as f64)),
            ]),
        ),
        ("spans_file", spans_file.map_or(Json::Null, Json::str)),
    ];
    let extra = warm
        .into_iter()
        .chain(replayed)
        .map(|r| (r.req, r.reply))
        .collect();
    Ok(Measured {
        metrics,
        meta,
        extra,
    })
}

/// Write the span records under the build directory; returns the path.
fn write_spans(bench: &Bench, recs: &[SpanRec]) -> Option<String> {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("perfbench-trace");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!(
        "{}-seed{}.tsv",
        bench.spec.workload.name(),
        bench.seed
    ));
    let mut f = io::BufWriter::new(std::fs::File::create(&path).ok()?);
    trace::write_tsv(recs, &mut f).ok()?;
    io::Write::flush(&mut f).ok()?;
    Some(path.to_string_lossy().into_owned())
}
