//! The query engine: command dispatch, admission control, and query
//! execution over the catalog + plan cache.

use crate::catalog::{generate, GraphCatalog, GraphEntry, GraphUpdate, UpdateError};
use crate::coordinator::ShardPool;
use crate::metrics::{bump, Metrics};
use crate::plan_cache::{PlanCache, PlanKey};
use crate::protocol::{EnumMode, EnumOpts, Opt, Reply, Request, TraceMode};
use crate::slowlog::{SlowEntry, SlowLog};
use crate::sync::{lock_unpoisoned, wait_timeout_unpoisoned, wait_unpoisoned};
use crate::ServiceConfig;
use fair_biclique::config::{Budget, CancelToken, RunConfig, StopReason};
use fair_biclique::obs::SpanRecorder;
use fair_biclique::prepared::{PreparedQuery, QueryModel};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the transport should do after a reply.
#[derive(Debug)]
pub enum Outcome {
    /// Send the reply, keep serving.
    Reply(Reply),
    /// Send the reply, then stop the server.
    Shutdown(Reply),
}

impl Outcome {
    /// The reply either way.
    pub fn reply(&self) -> &Reply {
        match self {
            Outcome::Reply(r) | Outcome::Shutdown(r) => r,
        }
    }
}

/// What the middle of an `ENUM` produced — a local run or a
/// coordinator's merged fan-out — before [`Engine::query`]'s one exit
/// turns it into a reply.
pub(crate) struct EnumDone {
    /// Result count reported as `count=`.
    pub(crate) count: u64,
    /// Result lines.
    pub(crate) payload: Vec<String>,
    /// Why the run stopped early, if it did.
    pub(crate) stop: Option<StopReason>,
    /// Where the answer came from.
    pub(crate) served: Served,
    /// Catalog epoch the query ran against (0 on a coordinator).
    pub(crate) epoch: u64,
}

/// The one status field that tells a local `ENUM` reply from a
/// coordinator's: `cached=<bool>` or `shards=<K>`, in the same place.
pub(crate) enum Served {
    /// Run locally; whether the plan came from the cache.
    Cached(bool),
    /// Merged from this many shard servers.
    Shards(usize),
}

impl std::fmt::Display for Served {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Served::Cached(hit) => write!(f, "cached={hit}"),
            Served::Shards(k) => write!(f, "shards={k}"),
        }
    }
}

/// Bounded worker pool: at most `workers` queries execute at once and
/// at most `queue_depth` wait; anything beyond that is refused
/// immediately so overload degrades into fast `BUSY` errors instead of
/// unbounded queueing.
#[derive(Debug)]
struct Admission {
    workers: usize,
    queue_depth: usize,
    state: Mutex<AdmissionState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct AdmissionState {
    active: usize,
    waiting: usize,
}

/// RAII slot in the worker pool.
#[derive(Debug)]
struct AdmissionGuard<'a>(&'a Admission);

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        // Also runs while unwinding out of a panicked query, so the
        // worker slot is always returned.
        let mut st = lock_unpoisoned(&self.0.state);
        st.active -= 1;
        drop(st);
        self.0.cv.notify_one();
    }
}

impl Admission {
    fn new(workers: usize, queue_depth: usize) -> Admission {
        Admission {
            workers: workers.max(1),
            queue_depth,
            state: Mutex::new(AdmissionState::default()),
            cv: Condvar::new(),
        }
    }

    /// Wait for a worker slot, giving up at `deadline_at` so a queued
    /// query's deadline keeps ticking while it waits (and its queue
    /// slot is released the moment it expires).
    fn admit(&self, deadline_at: Option<Instant>) -> Result<AdmissionGuard<'_>, AdmitRefused> {
        let mut st = lock_unpoisoned(&self.state);
        if st.active >= self.workers {
            if st.waiting >= self.queue_depth {
                return Err(AdmitRefused::Busy);
            }
            st.waiting += 1;
            while st.active >= self.workers {
                match deadline_at {
                    None => st = wait_unpoisoned(&self.cv, st),
                    Some(d) => {
                        let remaining = d.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            st.waiting -= 1;
                            // This waiter may be exiting on the very
                            // notification that announced a free slot
                            // (the futex wake landed just as the
                            // deadline ran out). Swallowing it could
                            // strand another waiter forever, so pass
                            // it on; a spurious extra notify is
                            // harmless — the wait loop re-checks.
                            drop(st);
                            self.cv.notify_one();
                            return Err(AdmitRefused::DeadlineExpired);
                        }
                        st = wait_timeout_unpoisoned(&self.cv, st, remaining).0;
                    }
                }
            }
            st.waiting -= 1;
        }
        st.active += 1;
        Ok(AdmissionGuard(self))
    }
}

/// Why [`Admission::admit`] turned a query away.
#[derive(Debug, PartialEq, Eq)]
enum AdmitRefused {
    /// Workers and wait queue are both full.
    Busy,
    /// The query's deadline expired while it waited for a worker.
    DeadlineExpired,
}

/// Per-connection state: the `TRACE` toggle and its sampling counter.
/// The transports ([`crate::server`], [`crate::batch`]) keep one per
/// connection/script and thread it through
/// [`Engine::handle_line_in`]; the engine itself stays stateless
/// across requests.
#[derive(Debug, Default)]
pub struct Session {
    trace: TraceMode,
    sampled: u64,
}

impl Session {
    /// Fresh session: tracing off.
    pub fn new() -> Session {
        Session::default()
    }

    /// Apply a `TRACE` verb.
    fn set_trace(&mut self, mode: TraceMode) {
        self.trace = mode;
        self.sampled = 0;
    }

    /// Should the next `ENUM` on this connection be traced? Advances
    /// the `sample=K` counter, so call exactly once per query.
    fn should_trace(&mut self) -> bool {
        match self.trace {
            TraceMode::Off => false,
            TraceMode::On => true,
            TraceMode::Sample(k) => {
                self.sampled += 1;
                if self.sampled >= k {
                    self.sampled = 0;
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Per-request context derived from connection state, carried into
/// the query path (and, on coordinators, the fan-out).
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryCtx<'a> {
    /// Append a `# span ...` breakdown block to the reply and record
    /// the span tree in the slow-query log.
    pub traced: bool,
    /// The raw request line, stored in slow-query log entries. Empty
    /// when the request arrived through the typed API; the log then
    /// stores the rendered [`Request`] instead.
    pub line: &'a str,
}

/// A resident query engine. Shared across connection threads via
/// `Arc`; all interior mutability is behind locks/atomics.
pub struct Engine {
    pub(crate) cfg: ServiceConfig,
    catalog: GraphCatalog,
    plans: Mutex<PlanCache>,
    admission: Admission,
    /// Counters and histograms served by `STATS` / `METRICS`.
    pub metrics: Metrics,
    /// The N slowest queries, served by `SLOWLOG`.
    pub slowlog: SlowLog,
    shutdown: CancelToken,
    /// Idle shard connections (coordinators only; empty otherwise).
    pub(crate) shard_pool: ShardPool,
}

impl Engine {
    /// Engine with `cfg` tunables and an empty catalog.
    pub fn new(cfg: ServiceConfig) -> Arc<Engine> {
        Arc::new(Engine {
            admission: Admission::new(cfg.workers, cfg.queue_depth),
            plans: Mutex::new(PlanCache::new(cfg.plan_cache_capacity)),
            metrics: Metrics::with_shards(cfg.shards.len()),
            slowlog: SlowLog::new(cfg.slowlog_capacity),
            shard_pool: ShardPool::new(cfg.shards.len()),
            cfg,
            catalog: GraphCatalog::new(),
            shutdown: CancelToken::new(),
        })
    }

    /// The token every in-flight query observes; `SHUTDOWN` cancels it.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// True once `SHUTDOWN` has been accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.is_cancelled()
    }

    /// Parse and execute one request line with a throwaway session
    /// (tracing off). Transports serving multi-request connections
    /// use [`Engine::handle_line_in`] so `TRACE` persists.
    pub fn handle_line(&self, line: &str) -> Outcome {
        self.handle_line_in(line, &mut Session::new())
    }

    /// Parse and execute one request line against a connection's
    /// [`Session`] (which carries the `TRACE` state across requests).
    pub fn handle_line_in(&self, line: &str, session: &mut Session) -> Outcome {
        if self.is_shutdown() {
            return Outcome::Reply(Reply::err("SHUTDOWN", "server is stopping"));
        }
        // Deliberate fault injection for resilience tests; not a
        // protocol verb (absent from parse_request and the README
        // grammar) and inert unless `debug_commands` is enabled.
        if self.cfg.debug_commands && line.trim().eq_ignore_ascii_case("CRASH") {
            // fbe-lint: allow(no-panic-paths): CRASH exists to panic — it proves the server degrades to ERR INTERNAL instead of wedging
            let crash = || -> Outcome { panic!("CRASH debug command") };
            return self.recovered(catch_unwind(AssertUnwindSafe(crash)));
        }
        match crate::protocol::parse_request(line) {
            Err(reply) => Outcome::Reply(reply),
            Ok(req) => {
                // Session bookkeeping happens outside the panic guard:
                // `TRACE` mutates the toggle, `ENUM` consumes one
                // sampling tick.
                let ctx = QueryCtx {
                    traced: match &req {
                        Request::Trace { mode } => {
                            session.set_trace(*mode);
                            false
                        }
                        Request::Enum { .. } => session.should_trace(),
                        _ => false,
                    },
                    line,
                };
                self.recovered(catch_unwind(AssertUnwindSafe(|| self.handle_ctx(req, ctx))))
            }
        }
    }

    /// Map a panicked request to `ERR INTERNAL` so one buggy (or
    /// deliberately crashed) query degrades into an error reply on its
    /// own connection instead of killing the connection thread and —
    /// via lock poisoning — every request after it. The locks the
    /// panic may have poisoned are all recovered by [`crate::sync`]'s
    /// helpers at their next use.
    fn recovered(&self, result: std::thread::Result<Outcome>) -> Outcome {
        match result {
            Ok(outcome) => outcome,
            Err(payload) => {
                bump(&self.metrics.queries_err);
                let what = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .map(str::to_string)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                Outcome::Reply(Reply::err("INTERNAL", format!("request panicked: {what}")))
            }
        }
    }

    /// Execute a parsed request (tracing off, no slow-log query text).
    pub fn handle(&self, req: Request) -> Outcome {
        self.handle_ctx(req, QueryCtx::default())
    }

    /// Execute a parsed request under a per-request [`QueryCtx`].
    pub fn handle_ctx(&self, req: Request, ctx: QueryCtx<'_>) -> Outcome {
        // Observability verbs answer from the local registry even on a
        // coordinator: its metrics/slow-log describe the fan-outs it
        // ran (shard servers keep their own, reachable directly).
        match &req {
            Request::Metrics => {
                let mut r = Reply::ok("format=prometheus");
                r.payload = self.metrics.render_prometheus();
                return Outcome::Reply(r);
            }
            Request::Slowlog { n } => {
                let payload = self.slowlog.render(*n);
                let entries = payload.iter().filter(|l| l.starts_with("query ")).count();
                let mut r = Reply::ok(format!("entries={entries}"));
                r.payload = payload;
                return Outcome::Reply(r);
            }
            Request::Trace { mode } => {
                // The session toggle was applied by `handle_line_in`;
                // this is just the acknowledgement.
                return Outcome::Reply(Reply::ok(format!("trace={mode}")));
            }
            _ => {}
        }
        if !self.cfg.shards.is_empty() {
            // Coordinator mode: fan out to the shard servers instead
            // of executing locally (the local catalog stays empty).
            return crate::coordinator::handle(self, req, ctx);
        }
        match req {
            Request::Ping => Outcome::Reply(Reply::ok("pong")),
            Request::Shutdown => {
                self.shutdown.cancel();
                Outcome::Shutdown(Reply::ok("bye"))
            }
            Request::Graphs => {
                let mut r = Reply::ok(format!("graphs={}", self.catalog.len()));
                r.payload = self.catalog.summaries();
                Outcome::Reply(r)
            }
            Request::Drop { name } => Outcome::Reply(if self.catalog.remove(&name) {
                lock_unpoisoned(&self.plans).invalidate_graph(&name);
                Reply::ok(format!("dropped={name}"))
            } else {
                Reply::err("NOGRAPH", format!("no graph named {name:?}"))
            }),
            Request::Load { name, path, attrs } => Outcome::Reply(match self.resolve_stem(&path) {
                Ok(stem) => match bigraph::io::load_stem(&stem, attrs.0, attrs.1) {
                    Ok(g) => Reply::ok(self.catalog_insert(&name, g, path).summary()),
                    Err(e) => Reply::err("IO", e),
                },
                Err(msg) => Reply::err("PARSE", msg),
            }),
            Request::Gen { name, spec } => {
                let (g, source) = generate(spec);
                Outcome::Reply(Reply::ok(self.catalog_insert(&name, g, source).summary()))
            }
            Request::Stats => {
                let plans = lock_unpoisoned(&self.plans);
                let mut r = Reply::ok(format!(
                    "graphs={} plans={} plan_bytes={}",
                    self.catalog.len(),
                    plans.len(),
                    plans.heap_bytes()
                ));
                r.payload = self.metrics.render();
                r.payload.push(format!("graphs {}", self.catalog.len()));
                r.payload.push(format!("plans_cached {}", plans.len()));
                r.payload
                    .push(format!("plan_cache_evictions {}", plans.evictions));
                r.payload
                    .push(format!("plan_cache_invalidated {}", plans.invalidated));
                r.payload
                    .push(format!("plan_cache_bytes {}", plans.heap_bytes()));
                Outcome::Reply(r)
            }
            Request::AddEdge { graph, u, v } => {
                Outcome::Reply(self.apply_update(&graph, GraphUpdate::AddEdge(u, v)))
            }
            Request::DelEdge { graph, u, v } => {
                Outcome::Reply(self.apply_update(&graph, GraphUpdate::DelEdge(u, v)))
            }
            Request::AddVertex { graph, side, attr } => {
                Outcome::Reply(self.apply_update(&graph, GraphUpdate::AddVertex(side, attr)))
            }
            Request::Shard {
                graph,
                index,
                of,
                alpha,
            } => Outcome::Reply(self.shard(&graph, index, of, alpha)),
            Request::Enum { graph, model, opts } => {
                Outcome::Reply(self.query(&graph, model, opts, ctx))
            }
            // Answered before the coordinator check; unreachable here,
            // kept only for match exhaustiveness.
            Request::Metrics | Request::Slowlog { .. } | Request::Trace { .. } => Outcome::Reply(
                Reply::err("INTERNAL", "observability verb reached local dispatch"),
            ),
        }
    }

    /// Resolve a `LOAD` stem against the configured data root. With no
    /// root configured the stem is trusted verbatim; with one, absolute
    /// stems and stems containing `..` are refused so network clients
    /// cannot point the loader at arbitrary filesystem paths.
    pub(crate) fn resolve_stem(&self, stem: &str) -> Result<std::path::PathBuf, String> {
        let p = Path::new(stem);
        match &self.cfg.data_root {
            None => Ok(p.to_path_buf()),
            Some(root) => {
                let escapes = p.is_absolute()
                    || p.components()
                        .any(|c| matches!(c, std::path::Component::ParentDir));
                if escapes {
                    Err(format!(
                        "stem {stem:?} escapes the data root (absolute paths and .. are refused)"
                    ))
                } else {
                    Ok(root.join(p))
                }
            }
        }
    }

    /// `SHARD <graph> index=I of=K [alpha=A]`: replace the cataloged
    /// graph with shard `I` of its deterministic `K`-way partition
    /// along the α-threshold 2-hop components of the fair (lower)
    /// side. The shard keeps the parent vertex-id space, so query
    /// results remain in parent ids and every shard server computes
    /// the identical partition independently.
    fn shard(&self, name: &str, index: usize, of: usize, alpha: usize) -> Reply {
        let Some(entry) = self.catalog.get(name) else {
            return Reply::err("NOGRAPH", format!("no graph named {name:?}"));
        };
        let plan = bigraph::partition::plan_shards(&entry.graph, bigraph::Side::Lower, alpha, of);
        let g = bigraph::partition::shard_edges(&entry.graph, &plan, index);
        let weight = plan.shard_weights.get(index).copied().unwrap_or(0);
        let source = format!("{} [shard {index}/{of} alpha={alpha}]", entry.source);
        let edges = g.n_edges();
        let components = plan.n_components;
        drop(entry);
        self.catalog_insert(name, g, source);
        Reply::ok(format!(
            "graph={name} shard={index} of={of} alpha={alpha} components={components} \
             edges={edges} weight={weight}"
        ))
    }

    /// Apply one dynamic-graph update: splice the graph, repair the
    /// fair-core trackers, and surgically drop exactly the cached
    /// plans whose `(α, β)` core was touched. Plans at untouched pairs
    /// keep serving byte-identical results, so they stay resident.
    fn apply_update(&self, name: &str, update: GraphUpdate) -> Reply {
        // Track only the (α, β) pairs of plans at the graph's current
        // epoch: older-epoch leftovers in the LRU are unreachable and
        // must not widen the update's core-maintenance work.
        let tracked = match self.catalog.get(name) {
            Some(entry) => lock_unpoisoned(&self.plans).tracked_pairs(name, entry.epoch),
            None => Vec::new(),
        };
        match self.catalog.update(name, update, &tracked) {
            Ok(out) => {
                let (dropped, kept) = {
                    let mut plans = lock_unpoisoned(&self.plans);
                    let dropped = plans.invalidate_where(|k| {
                        k.graph == name && out.stale_pairs.contains(&(k.alpha, k.beta))
                    });
                    (dropped, plans.count_graph(name))
                };
                bump(&self.metrics.updates_applied);
                let mut status = format!(
                    "graph={name} version={} edges={} cores_stale={} cores_clean={} plans_invalidated={dropped} plans_kept={kept}",
                    out.entry.version,
                    out.entry.graph.n_edges(),
                    out.stale_pairs.len(),
                    out.clean_pairs.len(),
                );
                if let Some(id) = out.new_vertex {
                    status.push_str(&format!(" vertex={id}"));
                }
                Reply::ok(status)
            }
            Err(UpdateError::NoSuchGraph(n)) => {
                Reply::err("NOGRAPH", format!("no graph named {n:?}"))
            }
            Err(UpdateError::Mutate(e)) => Reply::err("BADARG", e.to_string()),
        }
    }

    /// Insert (or replace) a catalog graph, dropping any cached plans
    /// of the replaced generation — the bumped epoch already makes
    /// them unreachable, so keeping them would only burn LRU capacity
    /// and heap until they age out.
    fn catalog_insert(
        &self,
        name: &str,
        g: bigraph::BipartiteGraph,
        source: String,
    ) -> Arc<GraphEntry> {
        let entry = self.catalog.insert(name, g, source);
        // After the new entry is visible: anything cached under this
        // name is now an unreachable old-epoch plan. (A query racing
        // the replacement may momentarily lose a fresh plan too — it
        // is simply re-prepared on next use.)
        lock_unpoisoned(&self.plans).invalidate_graph(name);
        bump(&self.metrics.graphs_loaded);
        entry
    }

    /// Fetch (or prepare and cache) the plan for `(entry, model,
    /// substrate)`. Returns the plan and whether it was a cache hit.
    ///
    /// Cold preparations run under a [`Budget`] carrying the time left
    /// until the query's deadline and the server's shutdown token (the
    /// only budget fields preparation honours): the prune cascade
    /// probes cooperatively and aborts with the interrupting
    /// [`StopReason`] instead of overshooting the deadline by one
    /// un-cancellable prepare.
    /// Nothing is cached on abort — a retry with a fresh deadline
    /// prepares from scratch.
    fn plan_for(
        &self,
        entry: &Arc<GraphEntry>,
        model: QueryModel,
        opts: &EnumOpts,
        deadline_at: Option<Instant>,
        rec: &mut SpanRecorder,
    ) -> Result<(Arc<PreparedQuery>, bool), StopReason> {
        let key = PlanKey::new(&entry.name, entry.epoch, model, opts.substrate);
        if let Some(plan) = lock_unpoisoned(&self.plans).get(&key) {
            bump(&self.metrics.plan_cache_hits);
            // No prepare stage ran; surface the amortized cost so a
            // traced cache hit still explains where its plan came from.
            rec.leaf_with("plan-cached", Duration::ZERO, || {
                format!("amortized_prepare_us={}", plan.prune_elapsed().as_micros())
            });
            return Ok((plan, true));
        }
        bump(&self.metrics.plan_cache_misses);
        // Prepare outside the lock: cold preparations of different
        // keys proceed in parallel. Two racing queries for the same
        // key both prepare; last insert wins (harmless duplicate
        // work, never a stale plan).
        let budget = Budget {
            max_time: deadline_at.map(|d| d.saturating_duration_since(Instant::now())),
            cancel: Some(self.shutdown.clone()),
            ..Budget::UNLIMITED
        };
        let tp = Instant::now();
        let plan = Arc::new(PreparedQuery::prepare_rec(
            &entry.graph,
            model,
            Default::default(),
            opts.substrate,
            &budget,
            rec,
        )?);
        self.metrics.stage_prepare.observe(tp.elapsed());
        // Cache only if the entry we prepared against is still the
        // cataloged one. A graph update keeps the epoch (so the key
        // alone cannot tell update generations apart) and runs its
        // surgical invalidation once — a plan of the pre-update
        // snapshot inserted after that sweep would serve stale results
        // forever. The query itself still uses the plan: it answers
        // over the snapshot it admitted against.
        let current = self.catalog.get(&entry.name);
        if current.is_some_and(|c| Arc::ptr_eq(&c, entry)) {
            lock_unpoisoned(&self.plans).insert(key, Arc::clone(&plan));
        }
        Ok((plan, false))
    }

    /// The one `ENUM` path: run locally or, on a coordinator, scatter
    /// to the shards; then a single exit gives every OK reply (truncated
    /// ones too) its status line, metrics, trace block and slow-log
    /// entry exactly once. Error replies only count as errors.
    pub(crate) fn query(
        &self,
        graph: &str,
        model: QueryModel,
        opts: EnumOpts,
        ctx: QueryCtx<'_>,
    ) -> Reply {
        bump(&self.metrics.queries_total);
        let t0 = Instant::now();
        let mut rec = if ctx.traced {
            SpanRecorder::enabled()
        } else {
            SpanRecorder::disabled()
        };
        let done = if self.cfg.shards.is_empty() {
            self.run_query(graph, model, &opts, t0, &mut rec)
        } else {
            crate::coordinator::enum_scatter_gather(self, graph, model, &opts, t0, &mut rec)
        };
        let done = match done {
            Ok(done) => done,
            Err(reply) => {
                bump(&self.metrics.queries_err);
                return reply;
            }
        };
        let elapsed = t0.elapsed();
        self.metrics.observe_latency(elapsed);
        bump(&self.metrics.queries_ok);
        if let Some(stop) = done.stop {
            self.metrics.observe_truncation(stop);
        }
        let mut reply = Reply::ok(format!(
            "model={} graph={graph} count={} {} threads={} elapsed_us={}{}",
            model.name(),
            done.count,
            done.served,
            opts.threads,
            elapsed.as_micros(),
            Opt("truncated", done.stop)
        ));
        reply.payload = done.payload;
        if rec.is_enabled() {
            // `#`-prefixed so payload consumers can filter trace
            // lines without understanding them (result lines never
            // start with `#`).
            reply
                .payload
                .extend(rec.render().into_iter().map(|l| format!("# {l}")));
        }
        self.slowlog.record(SlowEntry {
            seq: 0,
            query: if ctx.line.is_empty() {
                Request::Enum {
                    graph: graph.to_string(),
                    model,
                    opts,
                }
                .to_string()
            } else {
                ctx.line.to_string()
            },
            graph: graph.to_string(),
            epoch: done.epoch,
            elapsed,
            stop: done.stop,
            spans: rec.into_spans(),
        });
        reply
    }

    /// The result cap of an `ENUM`: its `limit=`, falling back to the
    /// service default for collecting queries only.
    pub(crate) fn result_limit(&self, opts: &EnumOpts) -> Option<u64> {
        match opts.mode {
            EnumMode::Collect => Some(opts.limit.unwrap_or(self.cfg.default_result_limit)),
            _ => opts.limit,
        }
    }

    /// The local middle of [`Engine::query`]: admission → plan →
    /// enumeration. `Err` is a finished error reply.
    fn run_query(
        &self,
        graph: &str,
        model: QueryModel,
        opts: &EnumOpts,
        t0: Instant,
        rec: &mut SpanRecorder,
    ) -> Result<EnumDone, Reply> {
        let deadline_at = opts.deadline.map(|d| t0 + d);
        let Some(entry) = self.catalog.get(graph) else {
            return Err(Reply::err("NOGRAPH", format!("no graph named {graph:?}")));
        };
        let done = |count, payload, stop, cached| EnumDone {
            count,
            payload,
            stop,
            served: Served::Cached(cached),
            epoch: entry.epoch,
        };
        let truncated = |cached, stop| Ok(done(0, Vec::new(), Some(stop), cached));
        let _slot = match self.admission.admit(deadline_at) {
            Ok(slot) => slot,
            Err(AdmitRefused::Busy) => {
                bump(&self.metrics.rejected_busy);
                return Err(Reply::err(
                    "BUSY",
                    "worker pool and queue are full; retry later",
                ));
            }
            // The deadline expired while queued: the slot was released
            // at expiry and the reply is empty-but-well-formed.
            Err(AdmitRefused::DeadlineExpired) => return truncated(false, StopReason::Deadline),
        };

        // The deadline is one wall clock covering queue wait, (for
        // cold plans) preparation, and enumeration. A cold prepare
        // that outlives the deadline aborts cooperatively inside the
        // prune cascade and reports `truncated=deadline` here — it no
        // longer overshoots by a full un-cancellable prepare.
        let (plan, cached) = match self.plan_for(&entry, model, opts, deadline_at, rec) {
            Ok(got) => got,
            Err(stop) => return truncated(false, stop),
        };

        // A prepare that finished between two probes may still have
        // exhausted the clock: re-check before enumerating so the run
        // gets a zero budget rather than a fresh one.
        let remaining = deadline_at.map(|d| d.saturating_duration_since(Instant::now()));
        if remaining == Some(Duration::ZERO) {
            return truncated(cached, StopReason::Deadline);
        }

        let budget = Budget {
            max_nodes: None,
            max_time: remaining,
            max_results: self.result_limit(opts),
            cancel: Some(self.shutdown.clone()),
        };
        let cfg = RunConfig {
            budget,
            threads: opts.threads,
            sorted: true,
            substrate: opts.substrate,
            ..RunConfig::default()
        };

        let te = Instant::now();
        let (count, payload, stop) = match opts.mode {
            EnumMode::Collect => {
                let report = plan.execute_rec(&cfg, rec);
                let lines = report.bicliques.iter().map(|b| b.to_string()).collect();
                (report.stats.emitted, lines, report.truncated_by)
            }
            EnumMode::Count => {
                let report = plan.count_rec(&cfg, rec);
                (report.stats.emitted, Vec::new(), report.truncated_by)
            }
            EnumMode::Maximum(metric) => {
                let (best, stats) = plan.maximum_rec(metric, &cfg, rec);
                let lines: Vec<String> = best.iter().map(|b| b.to_string()).collect();
                (lines.len() as u64, lines, stats.stop)
            }
        };
        self.metrics.stage_enumerate.observe(te.elapsed());
        Ok(done(count, payload, stop, cached))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::field;

    fn engine() -> Arc<Engine> {
        Engine::new(ServiceConfig::default())
    }

    fn ok_status(o: &Outcome) -> &str {
        let r = o.reply();
        assert!(r.is_ok(), "expected OK, got {}", r.status);
        &r.status
    }

    #[test]
    fn ping_graphs_gen_drop_roundtrip() {
        let e = engine();
        assert_eq!(ok_status(&e.handle_line("PING")), "OK pong");
        let s = e.handle_line("GEN g uniform:20,20,120,7");
        assert!(ok_status(&s).contains("upper=20"));
        let s = e.handle_line("GRAPHS");
        assert!(ok_status(&s).contains("graphs=1"));
        assert_eq!(s.reply().payload.len(), 1);
        assert!(ok_status(&e.handle_line("DROP g")).contains("dropped"));
        let r = e.handle_line("DROP g");
        assert!(r.reply().status.starts_with("ERR NOGRAPH"));
        let r = e.handle_line("ENUM g ssfbc alpha=1 beta=1 delta=1");
        assert!(r.reply().status.starts_with("ERR NOGRAPH"));
    }

    #[test]
    fn enum_runs_and_second_query_hits_the_plan_cache() {
        let e = engine();
        e.handle_line("GEN g uniform:20,20,120,7");
        let q = "ENUM g ssfbc alpha=2 beta=1 delta=1";
        let first = e.handle_line(q);
        let s1 = ok_status(&first).to_string();
        assert_eq!(field(&s1, "cached"), Some("false"));
        let n1: u64 = field(&s1, "count").unwrap().parse().unwrap();
        assert_eq!(first.reply().payload.len() as u64, n1);

        let second = e.handle_line(q);
        let s2 = ok_status(&second).to_string();
        assert_eq!(field(&s2, "cached"), Some("true"));
        assert_eq!(second.reply().payload, first.reply().payload);

        // Different params → different plan (miss), same graph.
        let third = e.handle_line("ENUM g ssfbc alpha=3 beta=1 delta=1");
        assert_eq!(field(ok_status(&third), "cached"), Some("false"));

        let stats = e.handle_line("STATS");
        let hits = stats
            .reply()
            .payload
            .iter()
            .find(|l| l.starts_with("plan_cache_hits "))
            .unwrap();
        assert_eq!(hits, "plan_cache_hits 1");
    }

    #[test]
    fn all_four_models_and_modes_work() {
        let e = engine();
        e.handle_line("GEN g uniform:16,16,90,5");
        for model in ["ssfbc", "bsfbc"] {
            let q = format!("ENUM g {model} alpha=1 beta=1 delta=1");
            assert!(ok_status(&e.handle_line(&q)).contains("count="));
            let q = format!("ENUM g {model} alpha=1 beta=1 delta=1 max=edges");
            assert!(ok_status(&e.handle_line(&q)).contains("count="));
        }
        for model in ["pssfbc", "pbsfbc"] {
            let q = format!("ENUM g {model} alpha=1 beta=1 delta=1 theta=0.3 count-only");
            let o = e.handle_line(&q);
            assert!(ok_status(&o).contains("count="));
            assert!(o.reply().payload.is_empty(), "count-only has no payload");
        }
    }

    #[test]
    fn collect_mode_applies_the_default_result_limit() {
        let e = Engine::new(ServiceConfig {
            default_result_limit: 2,
            ..ServiceConfig::default()
        });
        e.handle_line("GEN g uniform:20,20,140,3");
        let o = e.handle_line("ENUM g ssfbc alpha=1 beta=1 delta=2");
        let s = ok_status(&o);
        assert_eq!(field(s, "count"), Some("2"));
        assert!(s.contains("truncated=result-cap"), "{s}");
        assert_eq!(o.reply().payload.len(), 2);
        // count-only is exempt from the default limit.
        let o = e.handle_line("ENUM g ssfbc alpha=1 beta=1 delta=2 count-only");
        let n: u64 = field(ok_status(&o), "count").unwrap().parse().unwrap();
        assert!(n > 2);
    }

    #[test]
    fn zero_deadline_truncates_without_poisoning() {
        let e = engine();
        e.handle_line("GEN g uniform:20,20,120,7");
        let o = e.handle_line("ENUM g ssfbc alpha=2 beta=1 delta=1 deadline-ms=0");
        let s = ok_status(&o);
        assert!(s.contains("truncated=deadline"), "{s}");
        assert_eq!(field(s, "count"), Some("0"));
        // The cold prepare aborted, so nothing was cached for it.
        assert_eq!(field(s, "cached"), Some("false"));
        assert_eq!(lock_unpoisoned(&e.plans).len(), 0);
        // The server still answers normal queries afterwards; the
        // first one re-prepares from scratch.
        let o = e.handle_line("ENUM g ssfbc alpha=2 beta=1 delta=1");
        let s = ok_status(&o);
        assert!(!s.contains("truncated"));
        assert_eq!(field(s, "cached"), Some("false"));
    }

    #[test]
    fn shutdown_refuses_further_commands() {
        let e = engine();
        let o = e.handle_line("SHUTDOWN");
        assert!(matches!(o, Outcome::Shutdown(_)));
        assert!(e.is_shutdown());
        let o = e.handle_line("PING");
        assert!(o.reply().status.starts_with("ERR SHUTDOWN"));
    }

    #[test]
    fn admission_refuses_beyond_workers_plus_queue() {
        let adm = Admission::new(1, 1);
        let a = adm.admit(None).expect("first admitted");
        // One waiter is allowed; simulate it occupying the queue.
        {
            let mut st = adm.state.lock().unwrap();
            st.waiting = 1;
        }
        assert_eq!(
            adm.admit(None).unwrap_err(),
            AdmitRefused::Busy,
            "beyond queue depth is refused"
        );
        {
            let mut st = adm.state.lock().unwrap();
            st.waiting = 0;
        }
        drop(a);
        let _b = adm.admit(None).expect("slot freed");
    }

    #[test]
    fn queued_queries_give_up_at_their_deadline() {
        let adm = Admission::new(1, 4);
        let slot = adm.admit(None).expect("occupies the worker");
        // An already-expired deadline is refused promptly, and the
        // queue slot is released (a later unbounded admit still fits).
        let t0 = Instant::now();
        assert_eq!(
            adm.admit(Some(Instant::now())).unwrap_err(),
            AdmitRefused::DeadlineExpired
        );
        let waited = t0.elapsed();
        assert!(waited < Duration::from_secs(2), "gave up fast: {waited:?}");
        assert_eq!(adm.state.lock().unwrap().waiting, 0, "queue slot released");
        // A short real deadline also expires while the worker is busy.
        let t0 = Instant::now();
        assert_eq!(
            adm.admit(Some(Instant::now() + Duration::from_millis(30)))
                .unwrap_err(),
            AdmitRefused::DeadlineExpired
        );
        assert!(t0.elapsed() >= Duration::from_millis(25));
        drop(slot);
        let _ = adm.admit(Some(Instant::now() + Duration::from_secs(5)));
    }

    /// Lost-wakeup harness: `AdmissionGuard::drop` wakes exactly one
    /// waiter, so a notification consumed by a waiter that exits with
    /// `DeadlineExpired` (instead of taking the slot) would strand a
    /// deadline-less waiter behind it; `admit` therefore re-notifies
    /// on the expired-exit path. Each round races three parties —
    /// slot holder A releasing at waiter B's exact expiry instant,
    /// deadline-less waiter C queued behind B — and asserts C always
    /// admits. This pins the liveness contract against any future
    /// reshuffle of the wait loop (e.g. checking the deadline before
    /// re-checking `active`, or dropping a notify on either exit
    /// path).
    #[test]
    fn expired_waiter_passes_the_wakeup_on() {
        use std::sync::mpsc;
        use std::thread;
        let adm = Arc::new(Admission::new(1, 4));
        for round in 0..400u64 {
            let a = adm.admit(None).expect("worker slot");
            let b_deadline = Instant::now() + Duration::from_millis(2);
            // B waits with a deadline that expires mid-round; its
            // guard (if the race admits it) is dropped immediately,
            // which re-notifies, so only the expired path is probed.
            let adm_b = Arc::clone(&adm);
            let b = thread::spawn(move || {
                let _ = adm_b.admit(Some(b_deadline));
            });
            // C waits with no deadline at all.
            let (tx, rx) = mpsc::channel();
            let adm_c = Arc::clone(&adm);
            let c = thread::spawn(move || {
                let guard = adm_c.admit(None);
                let _ = tx.send(());
                drop(guard);
            });
            // Let both reach the wait queue, then release the worker
            // slot at B's expiry instant so the notification sometimes
            // lands on the expiring B.
            thread::sleep(Duration::from_millis(1));
            while Instant::now() < b_deadline {
                std::hint::spin_loop();
            }
            drop(a);
            assert!(
                rx.recv_timeout(Duration::from_secs(2)).is_ok(),
                "deadline-less waiter stranded by an expired waiter (round {round})"
            );
            b.join().unwrap();
            c.join().unwrap();
        }
    }

    #[test]
    fn updates_invalidate_surgically_and_keep_clean_plans() {
        let e = engine();
        e.handle_line("GEN g uniform:20,20,120,7");
        // Two plans: one at (2,1) whose core is the bulk of the graph,
        // one at (50,50) whose core is empty.
        let hot = "ENUM g ssfbc alpha=2 beta=1 delta=1";
        let cold = "ENUM g ssfbc alpha=50 beta=50 delta=1";
        e.handle_line(hot);
        e.handle_line(cold);
        // Delete an edge inside the (2,1) core: only the hot plan
        // must drop.
        let entry = e.catalog.get("g").unwrap();
        let (u, v) = entry.graph.edges().next().unwrap();
        drop(entry);
        let o = e.handle_line(&format!("DELEDGE g {u} {v}"));
        let s = ok_status(&o).to_string();
        assert_eq!(field(&s, "version"), Some("1"), "{s}");
        assert_eq!(field(&s, "edges"), Some("119"), "{s}");
        assert_eq!(field(&s, "plans_invalidated"), Some("1"), "{s}");
        assert_eq!(field(&s, "plans_kept"), Some("1"), "{s}");
        assert_eq!(field(&s, "cores_stale"), Some("1"), "{s}");
        assert_eq!(field(&s, "cores_clean"), Some("1"), "{s}");
        // The clean plan still hits; the stale one re-prepares.
        assert_eq!(
            field(ok_status(&e.handle_line(cold)), "cached"),
            Some("true")
        );
        let o = e.handle_line(hot);
        assert_eq!(field(ok_status(&o), "cached"), Some("false"));
        // Putting the edge back invalidates the re-prepared hot plan
        // again and bumps the version.
        let o = e.handle_line(&format!("ADDEDGE g {u} {v}"));
        let s = ok_status(&o).to_string();
        assert_eq!(field(&s, "version"), Some("2"));
        assert_eq!(field(&s, "edges"), Some("120"));
        assert_eq!(field(&s, "plans_invalidated"), Some("1"));
        // Update results match a from-scratch query on the same graph:
        // re-generate the identical graph under another name and diff.
        e.handle_line("GEN h uniform:20,20,120,7");
        let a = e.handle_line(hot);
        let b = e.handle_line("ENUM h ssfbc alpha=2 beta=1 delta=1");
        assert_eq!(a.reply().payload, b.reply().payload);
        // STATS surfaces the churn.
        let stats = e.handle_line("STATS");
        let line = |k: &str| {
            stats
                .reply()
                .payload
                .iter()
                .find(|l| l.starts_with(&format!("{k} ") as &str))
                .unwrap_or_else(|| panic!("missing {k}"))
                .clone()
        };
        assert_eq!(line("updates_applied"), "updates_applied 2");
        assert_eq!(line("plan_cache_invalidated"), "plan_cache_invalidated 2");
    }

    #[test]
    fn vertex_and_edge_growth_through_the_protocol() {
        let e = engine();
        e.handle_line("GEN g uniform:10,10,50,3");
        let o = e.handle_line("ADDVERTEX g lower attr=1");
        let s = ok_status(&o).to_string();
        assert_eq!(field(&s, "vertex"), Some("10"), "{s}");
        // Wire the fresh vertex in.
        let o = e.handle_line("ADDEDGE g 0 10");
        assert_eq!(field(ok_status(&o), "edges"), Some("51"));
        let o = e.handle_line("ENUM g ssfbc alpha=1 beta=1 delta=1");
        assert!(ok_status(&o).contains("count="));
        // Errors keep machine-readable codes.
        assert!(
            e.handle_line("ADDEDGE g 0 10")
                .reply()
                .status
                .starts_with("ERR BADARG"),
            "duplicate edge"
        );
        assert!(
            e.handle_line("DELEDGE g 9999 0")
                .reply()
                .status
                .starts_with("ERR BADARG"),
            "endpoint out of range"
        );
        assert!(e
            .handle_line("ADDEDGE nope 0 0")
            .reply()
            .status
            .starts_with("ERR NOGRAPH"));
    }

    #[test]
    fn reloading_a_graph_invalidates_its_cached_plans() {
        let e = engine();
        e.handle_line("GEN g uniform:16,16,80,1");
        let q = "ENUM g ssfbc alpha=2 beta=1 delta=1";
        e.handle_line(q);
        assert_eq!(field(ok_status(&e.handle_line(q)), "cached"), Some("true"));
        // Replacing the graph drops the old generation's plans
        // entirely (they could never be hit again).
        e.handle_line("GEN g uniform:16,16,80,2");
        let stats = e.handle_line("STATS");
        assert!(
            ok_status(&stats).contains("plans=0"),
            "{}",
            stats.reply().status
        );
        let o = e.handle_line(q);
        assert_eq!(field(ok_status(&o), "cached"), Some("false"));
    }

    #[test]
    fn bad_lines_get_machine_readable_codes() {
        let e = engine();
        assert!(e
            .handle_line("FROBNICATE")
            .reply()
            .status
            .starts_with("ERR BADCMD"));
        assert!(e
            .handle_line("ENUM g ssfbc alpha=oops beta=1 delta=1")
            .reply()
            .status
            .starts_with("ERR BADARG"));
        assert!(e
            .handle_line("LOAD g /definitely/not/here")
            .reply()
            .status
            .starts_with("ERR IO"));
    }

    #[test]
    fn crash_hook_is_gated_behind_debug_commands() {
        // Off by default: CRASH is just an unknown verb.
        let e = engine();
        assert!(e
            .handle_line("CRASH")
            .reply()
            .status
            .starts_with("ERR BADCMD"));

        // Enabled: it panics inside the handler, degrades to
        // ERR INTERNAL, and the engine keeps answering.
        let e = Engine::new(ServiceConfig {
            debug_commands: true,
            ..ServiceConfig::default()
        });
        let r = e.handle_line("CRASH");
        assert!(
            r.reply().status.starts_with("ERR INTERNAL"),
            "{}",
            r.reply().status
        );
        assert!(r.reply().status.contains("CRASH debug command"));
        assert_eq!(ok_status(&e.handle_line("PING")), "OK pong");
        e.handle_line("GEN g uniform:12,12,60,1");
        let o = e.handle_line("ENUM g ssfbc alpha=1 beta=1 delta=1");
        assert!(ok_status(&o).contains("count="));
    }
}
