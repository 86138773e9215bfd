//! Scatter-gather coordinator: fan requests out to shard servers and
//! merge their replies.
//!
//! A coordinator is an ordinary [`crate::server::Server`] whose
//! [`crate::ServiceConfig::shards`] lists the addresses of `K` shard
//! servers. It executes nothing locally and writes no protocol text
//! of its own: it forwards [`Request`]s rendered by
//! [`crate::protocol`], and parses result lines with [`Biclique`]'s
//! `FromStr`.
//!
//! * `LOAD` / `GEN` fan out as the client's request followed by
//!   `SHARD <graph> index=i of=K`, so shard `i` keeps only its slice
//!   of the deterministic 2-hop-component partition
//!   ([`bigraph::partition`]). No graph bytes travel through the
//!   coordinator: every shard loads (or deterministically generates)
//!   the full graph and restricts itself — the partition is a pure
//!   function of the graph, so all shards agree without coordination.
//! * `ENUM` goes to every shard concurrently, with the resolved result
//!   limit written into it. Collect mode k-way-merges the `K`
//!   canonically-sorted streams ([`fair_biclique::results::canonical_order`];
//!   shards keep the parent id space, so merged lines are
//!   byte-identical to a single-process run) under a global result
//!   budget enforced like `SharedBudget` across threads: each shard
//!   reader decrements the shared countdown *before* buffering a
//!   line, and once it is spent the remaining shard connections drop
//!   (early cancel). Count mode sums the shard counts. Maximum mode
//!   feeds each shard's best into one [`MaxSink`], the single-process
//!   tie-break. The reply leaves through the engine's one `ENUM` exit,
//!   with `shards=K` where a local reply has `cached=`.
//! * One truncation rule holds in every mode: `deadline` if any shard
//!   reports it; otherwise `result-cap` if any shard reports it or the
//!   coordinator's own cap bound (collect: the merge reached the
//!   limit; count: the summed count exceeded it); otherwise none.
//! * `STATS` reports the coordinator's own counters (including the
//!   `shard_*` fan-out metrics) plus a per-shard health summary and
//!   each shard's counters under a `shard<i>_` prefix.
//! * Shard connections are pooled per shard and reused across
//!   requests, with `TCP_NODELAY` set, so a warm coordinator opens no
//!   connection per query and never waits on a shard's accept loop. A
//!   connection returns to the pool only after its reply terminator
//!   was read; one left mid-reply (early cancel, a parse error, `ERR`,
//!   a timeout, EOF) is dropped. A pooled connection that fails
//!   before any reply byte arrives (the shard restarted or hung up
//!   while it sat idle) gets exactly one fresh reconnect, counted in
//!   `shard_reconnects`.
//! * A shard that refuses connections, times out, answers an error,
//!   or sends a malformed or cut-off reply surfaces as a structured
//!   `ERR SHARD shard=<i> addr=<a> ...` reply — never a hang and never
//!   a wrong result: shards receive the time left of the client's
//!   deadline, connects and reads are bounded by that time plus a
//!   grace period (or a default timeout), and results already
//!   received from healthy shards are accounted in `STATS` as
//!   `shard_partial_results`.
//!
//! Graph mutations (`ADDEDGE`/`DELEDGE`/`ADDVERTEX`) are refused in
//! coordinator mode: an edge insertion can merge two 2-hop components
//! and would invalidate the standing partition.

use crate::engine::{Engine, EnumDone, Outcome, QueryCtx, Served};
use crate::metrics::bump;
use crate::protocol::{field, EnumMode, EnumOpts, Opt, Reply, Request, TERMINATOR};
use crate::sync::lock_unpoisoned;
use fair_biclique::config::StopReason;
use fair_biclique::maximum::MaxSink;
use fair_biclique::obs::SpanRecorder;
use fair_biclique::prepared::QueryModel;
use fair_biclique::{Biclique, BicliqueSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Timeout for shard calls made outside any client deadline
/// (`LOAD`/`GEN`/`DROP`/`STATS`, and `ENUM` without `deadline-ms`).
const DEFAULT_SHARD_TIMEOUT: Duration = Duration::from_secs(30);

/// Extra slack granted on top of the time left of a client
/// `deadline-ms` so a shard that finishes right at its (self-enforced)
/// deadline can still get its truncated reply back before the
/// coordinator gives up on it.
const FANOUT_GRACE: Duration = Duration::from_secs(1);

/// Execute `req` by fanning out to `engine.cfg.shards`.
pub fn handle(engine: &Engine, req: Request, ctx: QueryCtx<'_>) -> Outcome {
    match &req {
        Request::Ping => Outcome::Reply(Reply::ok("pong")),
        Request::Shutdown => {
            // Stop the shard servers best-effort (a dead shard must
            // not keep the coordinator alive), then stop locally.
            let _ = fan(engine, DEFAULT_SHARD_TIMEOUT, |_, _, conn| conn.call(&req));
            engine.shutdown_token().cancel();
            Outcome::Shutdown(Reply::ok("bye"))
        }
        Request::Graphs => Outcome::Reply(graphs(engine)),
        Request::Drop { .. } => Outcome::Reply(merge_ok(
            engine,
            fan(engine, DEFAULT_SHARD_TIMEOUT, |_, _, conn| {
                conn.call_ok(&req)
            }),
        )),
        // The coordinator applies its own data-root policy to the stem
        // it is about to hand out; each shard then re-resolves it
        // against its own root.
        Request::Load { name, path, .. } => Outcome::Reply(match engine.resolve_stem(path) {
            Ok(_) => fan_with_shard(engine, name, &req),
            Err(msg) => Reply::err("PARSE", msg),
        }),
        Request::Gen { name, .. } => Outcome::Reply(fan_with_shard(engine, name, &req)),
        Request::Stats => Outcome::Reply(stats(engine)),
        Request::Enum { graph, model, opts } => {
            Outcome::Reply(engine.query(graph, *model, *opts, ctx))
        }
        Request::AddEdge { .. } | Request::DelEdge { .. } | Request::AddVertex { .. } => {
            Outcome::Reply(Reply::err(
                "BADARG",
                "graph mutations are not supported in coordinator mode \
                 (an update could merge 2-hop components across shards)",
            ))
        }
        Request::Shard { .. } => Outcome::Reply(Reply::err(
            "BADARG",
            "the SHARD verb is for shard servers; the coordinator shards on LOAD/GEN",
        )),
        // Answered by the engine before coordinator delegation;
        // unreachable here, kept only for match exhaustiveness.
        Request::Metrics | Request::Slowlog { .. } | Request::Trace { .. } => {
            Outcome::Reply(Reply::err(
                "INTERNAL",
                "observability verb reached coordinator dispatch",
            ))
        }
    }
}

/// Idle connections a coordinator keeps per shard between fan-outs.
/// One is enough for a single client; the cap bounds what a burst of
/// concurrent queries leaves behind (each one pins a shard thread).
const POOL_IDLE_PER_SHARD: usize = 16;

/// Per-shard pools of idle connections, owned by a coordinator's
/// [`Engine`]. An idle connection sits at a reply boundary: the last
/// thing read from it was a terminator.
pub(crate) struct ShardPool {
    idle: Vec<Mutex<Vec<ShardConn>>>,
}

impl ShardPool {
    /// Empty pools for `shards` shards.
    pub(crate) fn new(shards: usize) -> ShardPool {
        ShardPool {
            idle: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    fn take(&self, index: usize) -> Option<ShardConn> {
        lock_unpoisoned(self.idle.get(index)?).pop()
    }

    fn put(&self, index: usize, conn: ShardConn) {
        if let Some(pool) = self.idle.get(index) {
            let mut pool = lock_unpoisoned(pool);
            if pool.len() < POOL_IDLE_PER_SHARD {
                pool.push(conn);
            }
        }
    }
}

/// One line-protocol connection to a shard server.
struct ShardConn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    /// A request was sent and its reply's terminator not read yet.
    mid_reply: bool,
    /// A line arrived since the connection was taken from the pool.
    heard: bool,
    /// The last read gave up on its timeout.
    timed_out: bool,
}

impl ShardConn {
    /// Connect with `timeout` bounding the connect and every
    /// subsequent read/write, and consume the greeting block.
    fn connect(addr: &str, timeout: Duration) -> Result<ShardConn, String> {
        let sockaddr = addr
            .to_socket_addrs()
            .map_err(|e| format!("bad address: {e}"))?
            .next()
            .ok_or_else(|| "address resolved to nothing".to_string())?;
        let stream = TcpStream::connect_timeout(&sockaddr, timeout)
            .map_err(|e| format!("connect failed: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("clone stream: {e}"))?,
        );
        let mut conn = ShardConn {
            reader,
            stream,
            mid_reply: false,
            heard: false,
            timed_out: false,
        };
        conn.set_timeout(timeout)?;
        let greeting = conn.read_reply()?;
        if !greeting.is_ok() {
            return Err(format!("bad greeting: {}", greeting.status));
        }
        Ok(conn)
    }

    /// Bound every later read and write by `timeout`.
    fn set_timeout(&self, timeout: Duration) -> Result<(), String> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        self.stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| format!("set_write_timeout: {e}"))
    }

    /// Send one request line in a single write.
    fn send(&mut self, req: &Request) -> Result<(), String> {
        self.mid_reply = true;
        self.stream
            .write_all(format!("{req}\n").as_bytes())
            .map_err(|e| self.io_error("send", e))
    }

    /// Describe a failed read or write, noting whether it timed out.
    fn io_error(&mut self, op: &str, e: std::io::Error) -> String {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            self.timed_out = true;
            "shard timed out".to_string()
        } else {
            format!("{op} failed: {e}")
        }
    }

    /// One request, one whole reply block.
    fn call(&mut self, req: &Request) -> Result<Reply, String> {
        self.send(req)?;
        self.read_reply()
    }

    /// Like [`ShardConn::call`], failing on `ERR` statuses.
    fn call_ok(&mut self, req: &Request) -> Result<Reply, String> {
        let reply = self.call(req)?;
        if reply.is_ok() {
            Ok(reply)
        } else {
            Err(format!("shard replied {}", reply.status))
        }
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut l = String::new();
        let n = self
            .reader
            .read_line(&mut l)
            .map_err(|e| self.io_error("read", e))?;
        if n == 0 {
            return Err("shard closed the connection mid-reply".to_string());
        }
        self.heard = true;
        while l.ends_with('\n') || l.ends_with('\r') {
            l.pop();
        }
        if l == TERMINATOR {
            self.mid_reply = false;
        }
        Ok(l)
    }

    fn read_reply(&mut self) -> Result<Reply, String> {
        let status = self.read_line()?;
        let mut payload = Vec::new();
        loop {
            let l = self.read_line()?;
            if l == TERMINATOR {
                return Ok(Reply { status, payload });
            }
            payload.push(l);
        }
    }

    /// A pooled connection the shard had already closed (restarted,
    /// or hung up while idle) fails with nothing read and no timeout.
    fn went_stale(&self) -> bool {
        !self.heard && !self.timed_out
    }
}

/// The configured address of shard `index`.
fn shard_addr(engine: &Engine, index: usize) -> &str {
    engine.cfg.shards.get(index).map_or("?", String::as_str)
}

/// Index + address + detail of the first shard failure, rendered as a
/// structured `ERR SHARD` and counted in `shard_errors`.
fn shard_err(engine: &Engine, index: usize, detail: &str, partial: u64) -> Reply {
    bump(&engine.metrics.shard_errors);
    let addr = shard_addr(engine, index);
    let partial = Opt("partial", (partial > 0).then_some(partial));
    Reply::err(
        "SHARD",
        format!("shard={index} addr={addr}{partial} {detail}"),
    )
}

/// Run `work(i, connect_elapsed, conn)` against every shard
/// concurrently, each on a connection from that shard's pool (or a
/// new one), timing the checkout so the caller can attribute shard
/// latency to connection setup vs. the request itself. Returns
/// per-shard results in shard order; a panic in a worker degrades to
/// an `Err` for that shard.
fn fan<T: Send>(
    engine: &Engine,
    timeout: Duration,
    work: impl Fn(usize, Duration, &mut ShardConn) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    bump(&engine.metrics.shard_fanouts);
    let shards = &engine.cfg.shards;
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(i, addr)| {
                let work = &work;
                s.spawn(move || call_shard(engine, i, addr, timeout, work))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("shard worker panicked".to_string()))
            })
            .collect()
    })
}

/// Run `work` on shard `index` over a pooled connection, its timeouts
/// set to `timeout`. The connection goes back to the pool only when
/// `work` succeeded and left it at a reply boundary; one left
/// mid-reply (early cancel, an error, a timeout, EOF) is dropped. A
/// pooled connection that fails before the shard said anything, other
/// than by timing out, gets exactly one fresh reconnect, counted in
/// `shard_reconnects`.
fn call_shard<T>(
    engine: &Engine,
    index: usize,
    addr: &str,
    timeout: Duration,
    work: &impl Fn(usize, Duration, &mut ShardConn) -> Result<T, String>,
) -> Result<T, String> {
    let pool = &engine.shard_pool;
    let tc = Instant::now();
    let pooled = pool.take(index).filter(|c| c.set_timeout(timeout).is_ok());
    let reused = pooled.is_some();
    let mut conn = match pooled {
        Some(mut conn) => {
            conn.heard = false;
            conn.timed_out = false;
            conn
        }
        None => ShardConn::connect(addr, timeout)?,
    };
    let mut result = work(index, tc.elapsed(), &mut conn);
    if result.is_err() && reused && conn.went_stale() {
        bump(&engine.metrics.shard_reconnects);
        conn = ShardConn::connect(addr, timeout)?;
        result = work(index, tc.elapsed(), &mut conn);
    }
    if result.is_ok() && !conn.mid_reply {
        pool.put(index, conn);
    }
    result
}

/// Fan `req` (a `LOAD`/`GEN` of graph `name`) followed by the
/// per-shard `SHARD <name> index=i of=K`, so each shard ends up
/// holding exactly its slice of the partition.
fn fan_with_shard(engine: &Engine, name: &str, req: &Request) -> Reply {
    let of = engine.cfg.shards.len();
    let results = fan(engine, DEFAULT_SHARD_TIMEOUT, |index, _, conn| {
        conn.call_ok(req)?;
        conn.call_ok(&Request::Shard {
            graph: name.to_string(),
            index,
            of,
            alpha: 1,
        })
    });
    merge_ok(engine, results)
}

/// First failure → `ERR SHARD`; all-OK → the first shard's status with
/// a `shards=K` marker appended.
fn merge_ok(engine: &Engine, results: Vec<Result<Reply, String>>) -> Reply {
    for (i, r) in results.iter().enumerate() {
        if let Err(detail) = r {
            bump(&engine.metrics.queries_err);
            return shard_err(engine, i, detail, 0);
        }
    }
    let status = results
        .into_iter()
        .flatten()
        .next()
        .map(|r| r.status.trim_start_matches("OK ").to_string())
        .unwrap_or_default();
    Reply::ok(format!("{status} shards={}", engine.cfg.shards.len()))
}

fn graphs(engine: &Engine) -> Reply {
    // Shards hold the same catalog names (fan-out keeps them in
    // lockstep), so the first shard answers for all of them.
    let results = fan(engine, DEFAULT_SHARD_TIMEOUT, |i, _, conn| {
        if i == 0 {
            conn.call_ok(&Request::Graphs).map(Some)
        } else {
            Ok(None)
        }
    });
    match results.into_iter().next() {
        Some(Ok(Some(reply))) => reply,
        Some(Err(detail)) => {
            bump(&engine.metrics.queries_err);
            shard_err(engine, 0, &detail, 0)
        }
        _ => Reply::err("SHARD", "no shards configured"),
    }
}

fn stats(engine: &Engine) -> Reply {
    let results = fan(engine, DEFAULT_SHARD_TIMEOUT, |_, _, conn| {
        conn.call_ok(&Request::Stats)
    });
    let mut r = Reply::ok(format!("shards={}", engine.cfg.shards.len()));
    r.payload = engine.metrics.render();
    for (i, res) in results.iter().enumerate() {
        r.payload
            .push(format!("shard{i}_addr {}", shard_addr(engine, i)));
        match res {
            Ok(reply) => {
                r.payload.push(format!("shard{i}_status ok"));
                for line in &reply.payload {
                    r.payload.push(format!("shard{i}_{line}"));
                }
            }
            Err(detail) => {
                bump(&engine.metrics.shard_errors);
                r.payload.push(format!("shard{i}_status error: {detail}"));
            }
        }
    }
    r
}

/// What one shard contributed to a scatter-gather `ENUM`.
struct ShardEnum {
    status: String,
    results: Vec<Biclique>,
    /// The reader stopped early because the global budget ran out.
    cancelled: bool,
    /// Connect + greeting time.
    connect: Duration,
    /// Send-to-first-status-byte time (queue wait + shard execution).
    request: Duration,
    /// Result-stream drain time.
    stream: Duration,
}

/// The coordinator's middle of an `ENUM`: scatter the query to every
/// shard and merge what comes back. The engine's query path owns the
/// rest (metrics, status line, trace block, slow-query log). A failed
/// shard fails the whole query with `ERR SHARD`.
pub(crate) fn enum_scatter_gather(
    engine: &Engine,
    graph: &str,
    model: QueryModel,
    opts: &EnumOpts,
    t0: Instant,
    rec: &mut SpanRecorder,
) -> Result<EnumDone, Reply> {
    let collect = opts.mode == EnumMode::Collect;
    let limit = engine.result_limit(opts);
    // Shards get the part of the client's deadline that is left when
    // the request leaves, not the whole of it again.
    let left = || opts.deadline.map(|d| d.saturating_sub(t0.elapsed()));
    let timeout = left().map_or(DEFAULT_SHARD_TIMEOUT, |d| d + FANOUT_GRACE);

    // Collect mode's global result budget, shared by all shard readers
    // the way `SharedBudget` is shared by worker threads: acquire
    // (decrement) strictly before buffering a line; a failed acquire
    // stops the reader and flags the siblings so they stop too (their
    // shard connections drop, early-cancelling the remaining streams).
    // Count and maximum replies are one summary per shard, which the
    // merge below combines; a countdown there would drop candidates.
    let budget = AtomicI64::new(limit.map_or(i64::MAX, |k| k.min(i64::MAX as u64) as i64));
    let exhausted = AtomicBool::new(false);
    let results = fan(engine, timeout, |_, connect, conn| {
        // The resolved limit travels explicitly so a shard's own
        // default limit can never truncate below the coordinator's.
        let req = Request::Enum {
            graph: graph.to_string(),
            model,
            opts: EnumOpts {
                limit,
                deadline: left(),
                ..*opts
            },
        };
        let tr = Instant::now();
        conn.send(&req)?;
        let status = conn.read_line()?;
        let request = tr.elapsed();
        if !status.starts_with("OK") {
            return Err(format!("shard replied {status}"));
        }
        let ts = Instant::now();
        let mut out = ShardEnum {
            status,
            results: Vec::new(),
            cancelled: false,
            connect,
            request,
            stream: Duration::ZERO,
        };
        loop {
            // Budget checks are pure countdowns: no memory is
            // published through them, so relaxed suffices.
            // lint: ordering: relaxed — independent counter/flag, no data ordered after it
            if exhausted.load(Ordering::Relaxed) {
                out.cancelled = true;
                break;
            }
            let l = conn.read_line()?;
            if l == TERMINATOR {
                break;
            }
            // lint: ordering: relaxed — pure countdown, no acquire/release pairing needed
            if collect && budget.fetch_sub(1, Ordering::Relaxed) <= 0 {
                // lint: ordering: relaxed — advisory flag, racy reads only stop siblings late
                exhausted.store(true, Ordering::Relaxed);
                out.cancelled = true;
                break;
            }
            out.results.push(l.parse()?);
        }
        out.stream = ts.elapsed();
        Ok(out)
    });

    // Any failed shard fails the whole query — with the healthy
    // shards' already-received results accounted as partial.
    if let Some((i, detail)) = results
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.as_ref().err().map(|d| (i, d.clone())))
    {
        let partial: u64 = results
            .iter()
            .flatten()
            .map(|s| s.results.len() as u64)
            .sum();
        if partial > 0 {
            engine
                .metrics
                .shard_partial_results
                // lint: ordering: relaxed — statistics counter
                .fetch_add(partial, Ordering::Relaxed);
        }
        return Err(shard_err(engine, i, &detail, partial));
    }
    let shards: Vec<ShardEnum> = results.into_iter().flatten().collect();

    // Per-shard attribution: straggler shards show up in the stream
    // histogram (labels `shard="i"` in `METRICS`) and, when traced, as
    // `shard` spans carrying the connect/request/stream split.
    for (i, s) in shards.iter().enumerate() {
        if let Some(h) = engine.metrics.shard_stream.get(i) {
            h.observe(s.request + s.stream);
        }
        rec.leaf_with("shard", s.connect + s.request + s.stream, || {
            format!(
                "index={i} addr={} connect_us={} request_us={} stream_us={} results={} cancelled={}",
                shard_addr(engine, i),
                s.connect.as_micros(),
                s.request.as_micros(),
                s.stream.as_micros(),
                s.results.len(),
                s.cancelled,
            )
        });
    }

    // The most severe truncation any shard reports (deadline > cap).
    let shard_stop = [StopReason::Deadline, StopReason::ResultCap]
        .into_iter()
        .find(|r| {
            let r = r.to_string();
            shards
                .iter()
                .any(|s| field(&s.status, "truncated") == Some(&r))
        });

    // Each mode merges and says whether the coordinator's own cap bound.
    let (count, payload, own_cap) = rec.timed("merge", || match opts.mode {
        EnumMode::Count => {
            let total: u64 = shards
                .iter()
                .filter_map(|s| field(&s.status, "count")?.parse::<u64>().ok())
                .sum();
            let capped = limit.map_or(total, |k| total.min(k));
            (capped, Vec::new(), capped < total)
        }
        EnumMode::Maximum(metric) => {
            let mut best = MaxSink::new(metric);
            for b in shards.iter().flat_map(|s| &s.results) {
                best.emit(&b.upper, &b.lower);
            }
            let payload: Vec<String> = best.best.iter().map(Biclique::to_string).collect();
            (payload.len() as u64, payload, false)
        }
        EnumMode::Collect => {
            let merged = kway_merge(shards.into_iter().map(|s| s.results).collect(), limit);
            debug_assert!(
                {
                    let mut check = merged.clone();
                    fair_biclique::results::canonical_order(&mut check);
                    check == merged
                },
                "k-way merge must preserve canonical order"
            );
            let bound = limit.is_some_and(|k| merged.len() as u64 >= k);
            let payload: Vec<String> = merged.iter().map(Biclique::to_string).collect();
            (payload.len() as u64, payload, bound)
        }
    });
    Ok(EnumDone {
        count,
        payload,
        stop: shard_stop.or(own_cap.then_some(StopReason::ResultCap)),
        served: Served::Shards(engine.cfg.shards.len()),
        // The coordinator holds no local catalog; shard epochs are
        // reachable through each shard's own SLOWLOG.
        epoch: 0,
    })
}

/// Merge `k` canonically-sorted, pairwise-disjoint result streams into
/// one canonically-sorted stream, stopping at `limit`.
fn kway_merge(streams: Vec<Vec<Biclique>>, limit: Option<u64>) -> Vec<Biclique> {
    let mut iters: Vec<std::vec::IntoIter<Biclique>> =
        streams.into_iter().map(|v| v.into_iter()).collect();
    let mut heap = BinaryHeap::new();
    for (i, it) in iters.iter_mut().enumerate() {
        if let Some(b) = it.next() {
            heap.push(Reverse((b, i)));
        }
    }
    let mut out = Vec::new();
    while let Some(Reverse((b, i))) = heap.pop() {
        out.push(b);
        if limit.is_some_and(|k| out.len() as u64 >= k) {
            break;
        }
        if let Some(next) = iters.get_mut(i).and_then(|it| it.next()) {
            heap.push(Reverse((next, i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(upper: &[u32], lower: &[u32]) -> Biclique {
        Biclique {
            upper: upper.to_vec(),
            lower: lower.to_vec(),
        }
    }

    #[test]
    fn kway_merge_interleaves_in_canonical_order() {
        let s1 = vec![b(&[0], &[1]), b(&[2], &[0])];
        let s2 = vec![b(&[0], &[2]), b(&[1], &[0])];
        let s3: Vec<Biclique> = Vec::new();
        let merged = kway_merge(vec![s1.clone(), s2.clone(), s3], None);
        let mut want = [s1, s2].concat();
        fair_biclique::results::canonical_order(&mut want);
        assert_eq!(merged, want);
        // Limit cuts the merged stream, not a per-shard prefix.
        let merged2 = kway_merge(vec![want[2..].to_vec(), want[..2].to_vec()], Some(3));
        assert_eq!(merged2, want[..3]);
    }

    /// The `ENUM` a shard receives (rendered by `Display for Request`,
    /// resolved limit written in) parses back to the same query.
    #[test]
    fn enum_line_roundtrips_through_the_parser() {
        use fair_biclique::config::{FairParams, ProParams};
        use fair_biclique::maximum::SizeMetric;
        let opts = EnumOpts {
            threads: 4,
            limit: Some(7),
            deadline: Some(Duration::from_millis(250)),
            substrate: fair_biclique::config::Substrate::Bitset,
            mode: EnumMode::Count,
        };
        let model = QueryModel::Pbsfbc(ProParams::new(2, 1, 1, 0.25).unwrap());
        let line = Request::Enum {
            graph: "g".into(),
            model,
            opts,
        }
        .to_string();
        assert_eq!(
            line,
            "ENUM g pbsfbc alpha=2 beta=1 delta=1 theta=0.25 threads=4 limit=7 \
             deadline-ms=250 substrate=bitset count-only"
        );
        let parsed = crate::protocol::parse_request(&line).unwrap();
        let Request::Enum {
            graph,
            model: m2,
            opts: o2,
        } = parsed
        else {
            panic!("not an ENUM: {line}");
        };
        assert_eq!(graph, "g");
        assert_eq!(m2.name(), "PBSFBC");
        assert_eq!(m2.base(), FairParams::unchecked(2, 1, 1));
        assert_eq!(m2.theta(), Some(0.25));
        assert_eq!(o2.threads, 4);
        assert_eq!(o2.limit, Some(7));
        assert_eq!(o2.deadline, Some(Duration::from_millis(250)));
        assert_eq!(o2.mode, EnumMode::Count);

        // Maximum mode + default substrate too.
        let opts = EnumOpts {
            mode: EnumMode::Maximum(SizeMetric::Edges),
            ..EnumOpts::default()
        };
        let model = QueryModel::Ssfbc(FairParams::new(3, 1, 2).unwrap());
        let line = Request::Enum {
            graph: "h".into(),
            model,
            opts,
        }
        .to_string();
        let Request::Enum { opts: o3, .. } = crate::protocol::parse_request(&line).unwrap() else {
            panic!("not an ENUM: {line}");
        };
        assert_eq!(o3.mode, EnumMode::Maximum(SizeMetric::Edges));
    }

    /// The `GEN` the coordinator forwards to every shard parses back to
    /// the client's request.
    #[test]
    fn gen_spec_text_roundtrips() {
        use crate::protocol::GenSpec;
        use fbe_datasets::corpus::Dataset;
        for spec in [
            GenSpec::Dataset(Dataset::Youtube),
            GenSpec::Dataset(Dataset::WikiCat),
            GenSpec::Uniform {
                n_upper: 10,
                n_lower: 20,
                m: 30,
                seed: 7,
                attrs: (3, 1),
            },
        ] {
            let req = Request::Gen {
                name: "g".into(),
                spec,
            };
            let line = req.to_string();
            assert_eq!(crate::protocol::parse_request(&line), Ok(req), "{line}");
        }
    }
}
