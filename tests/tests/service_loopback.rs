//! Loopback integration test of the resident query service: a real
//! TCP server on an ephemeral port, driven by scripted multi-client
//! sessions, cross-checked against the CLI pipelines.

use fbe_service::engine::Engine;
use fbe_service::protocol::field;
use fbe_service::server::Server;
use fbe_service::ServiceConfig;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One protocol client over a real socket.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut c = Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: BufWriter::new(stream),
        };
        let (greet, _) = c.read_block();
        assert!(greet.contains("protocol=1"), "greeting: {greet}");
        c
    }

    fn read_block(&mut self) -> (String, Vec<String>) {
        let mut status = String::new();
        self.reader.read_line(&mut status).expect("status line");
        let status = status.trim_end().to_string();
        let mut payload = Vec::new();
        loop {
            let mut l = String::new();
            self.reader.read_line(&mut l).expect("payload line");
            let l = l.trim_end().to_string();
            if l == "." {
                break;
            }
            payload.push(l);
        }
        (status, payload)
    }

    fn cmd(&mut self, line: &str) -> (String, Vec<String>) {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        self.read_block()
    }

    /// Send and require an `OK` status.
    fn ok(&mut self, line: &str) -> (String, Vec<String>) {
        let (status, payload) = self.cmd(line);
        assert!(status.starts_with("OK"), "{line} -> {status}");
        (status, payload)
    }
}

fn stat_value(payload: &[String], key: &str) -> u64 {
    payload
        .iter()
        .find_map(|l| l.strip_prefix(&format!("{key} ") as &str))
        .unwrap_or_else(|| panic!("missing stat {key}"))
        .parse()
        .unwrap()
}

fn start_server(cfg: ServiceConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let engine = Engine::new(cfg);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&engine)).expect("bind ephemeral");
    let addr = server.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

fn sv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

/// Extract the `  L=[..] R=[..]` result lines from CLI enumerate
/// output, trimmed.
fn cli_bicliques(out: &str) -> Vec<String> {
    out.lines()
        .filter(|l| l.trim_start().starts_with("L=["))
        .map(|l| l.trim().to_string())
        .collect()
}

#[test]
fn scripted_session_matches_cli_caches_plans_and_survives_deadlines() {
    // A graph on disk, written by the CLI itself.
    let dir = std::env::temp_dir().join("fbe_service_loopback");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = dir.join("g");
    let stem_s = stem.to_str().unwrap();
    fbe_cli::run(&sv(&[
        "generate",
        "--uniform",
        "20,20,120",
        "--seed",
        "7",
        "--out",
        stem_s,
    ]))
    .expect("generate");

    let (addr, handle) = start_server(ServiceConfig::default());
    let mut c = Client::connect(&addr);

    let (status, _) = c.ok("PING");
    assert_eq!(status, "OK pong");
    let (status, _) = c.ok(&format!("LOAD g {stem_s}"));
    assert!(status.contains("upper=20"), "{status}");

    // --- every miner: service results == CLI results, byte for byte.
    let cases = [
        ("ssfbc", vec![], "ENUM g ssfbc alpha=2 beta=1 delta=1"),
        ("bsfbc", vec!["--bi"], "ENUM g bsfbc alpha=2 beta=1 delta=1"),
        (
            "pssfbc",
            vec!["--theta", "0.3"],
            "ENUM g pssfbc alpha=2 beta=1 delta=1 theta=0.3",
        ),
        (
            "pbsfbc",
            vec!["--bi", "--theta", "0.3"],
            "ENUM g pbsfbc alpha=2 beta=1 delta=1 theta=0.3",
        ),
    ];
    for (name, cli_extra, service_cmd) in &cases {
        let mut argv = sv(&[
            "enumerate",
            stem_s,
            "--alpha",
            "2",
            "--beta",
            "1",
            "--delta",
            "1",
            "--sorted",
        ]);
        argv.extend(sv(cli_extra));
        let cli_out = fbe_cli::run(&argv).expect("cli enumerate");
        let want = cli_bicliques(&cli_out);
        let (status, payload) = c.ok(service_cmd);
        assert_eq!(payload, want, "{name}: service vs CLI");
        assert_eq!(
            field(&status, "count"),
            Some(want.len().to_string().as_str()),
            "{name}: {status}"
        );
        // Multi-threaded service execution agrees too.
        let (_, payload4) = c.ok(&format!("{service_cmd} threads=4"));
        assert_eq!(payload4, want, "{name} threads=4");
    }

    // Maximum search through the service matches the CLI's.
    let cli_max = fbe_cli::run(&sv(&[
        "maximum", stem_s, "--alpha", "2", "--beta", "1", "--delta", "1", "--metric", "edges",
    ]))
    .expect("cli maximum");
    let want_max = cli_bicliques(&cli_max);
    let (_, got_max) = c.ok("ENUM g ssfbc alpha=2 beta=1 delta=1 max=edges");
    assert_eq!(got_max, want_max, "maximum via service vs CLI");

    // --- plan cache: an identical repeat is served from cache.
    let q = "ENUM g ssfbc alpha=2 beta=1 delta=1";
    let (s1, p1) = c.ok(q);
    // (first run of this exact key happened above and was a miss;
    // by now it must be a hit)
    assert_eq!(field(&s1, "cached"), Some("true"), "{s1}");
    let (s2, p2) = c.ok(q);
    assert_eq!(field(&s2, "cached"), Some("true"), "{s2}");
    assert_eq!(p1, p2, "cached replay is identical");
    let (_, stats) = c.ok("STATS");
    assert!(stat_value(&stats, "plan_cache_hits") >= 2);
    assert!(stat_value(&stats, "plan_cache_misses") >= 1);
    assert!(stat_value(&stats, "latency_count") > 0);

    // --- deadline: a 1 ms deadline on a heavy query truncates...
    c.ok("GEN big uniform:400,400,40000,9");
    let (status, payload) = c.ok("ENUM big ssfbc alpha=1 beta=1 delta=1 deadline-ms=1 count-only");
    assert!(status.contains("truncated=deadline"), "{status}");
    assert!(payload.is_empty());
    // ...without poisoning the server: the next query is exact again.
    let (status, _) = c.ok(q);
    assert!(!status.contains("truncated"), "{status}");
    let (_, stats) = c.ok("STATS");
    assert!(stat_value(&stats, "truncated_deadline") >= 1);

    // --- deadline on the *cold-plan* path: an already-expired
    // deadline on an uncached (graph, params) key is admitted (workers
    // are free), reaches the prepare phase, and the prune cascade
    // aborts cooperatively — the reply reports the deadline instead of
    // overshooting by one un-cancellable prepare.
    // (α, β) = (40, 40) keeps the prepare non-trivial — the full
    // prune cascade runs — while the pruned core, and hence the
    // enumeration, is empty.
    let cold = "ENUM big ssfbc alpha=40 beta=40 delta=1";
    let (status, payload) = c.ok(&format!("{cold} deadline-ms=0"));
    assert!(status.contains("truncated=deadline"), "{status}");
    assert_eq!(field(&status, "cached"), Some("false"), "{status}");
    assert_eq!(field(&status, "count"), Some("0"), "{status}");
    assert!(payload.is_empty());
    // Nothing was cached by the aborted prepare: the retry without a
    // deadline prepares from scratch (miss), and only then caches.
    let (status, _) = c.ok(cold);
    assert!(!status.contains("truncated"), "{status}");
    assert_eq!(field(&status, "cached"), Some("false"), "{status}");
    let (status, _) = c.ok(cold);
    assert_eq!(field(&status, "cached"), Some("true"), "{status}");

    // --- multi-client: concurrent sessions on their own connections.
    let addr2 = addr.clone();
    let workers: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr2.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr);
                let (status, payload) = c.ok(&format!(
                    "ENUM g ssfbc alpha=2 beta=1 delta=1 threads={}",
                    i + 1
                ));
                (status, payload)
            })
        })
        .collect();
    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    for (status, payload) in &results {
        assert!(status.starts_with("OK"), "{status}");
        assert_eq!(payload, &results[0].1, "all clients see identical results");
    }

    // --- shutdown ends the server; the listener goes away.
    let (status, _) = c.ok("SHUTDOWN");
    assert_eq!(status, "OK bye");
    handle.join().unwrap().expect("server run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shutdown_ends_every_other_connection() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut requester = Client::connect(&addr);
    let mut bystander = Client::connect(&addr);
    bystander.ok("PING");
    let (status, _) = requester.cmd("SHUTDOWN");
    assert_eq!(status, "OK bye");
    // `run` returns only once every connection is closed and its
    // thread joined.
    handle.join().unwrap().unwrap();
    // So the bystander reads EOF: no thread is left to answer it with
    // ERR SHUTDOWN.
    bystander
        .reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut line = String::new();
    let n = bystander
        .reader
        .read_line(&mut line)
        .expect("EOF, not a read timeout");
    assert_eq!(n, 0, "bystander read {line:?} instead of EOF");
}

#[test]
fn unknown_graphs_and_bad_commands_do_not_kill_the_session() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut c = Client::connect(&addr);
    let (status, _) = c.cmd("ENUM nope ssfbc alpha=1 beta=1 delta=1");
    assert!(status.starts_with("ERR NOGRAPH"), "{status}");
    let (status, _) = c.cmd("FROBNICATE");
    assert!(status.starts_with("ERR BADCMD"), "{status}");
    let (status, _) = c.cmd("ENUM g ssfbc alpha=zero beta=1 delta=1");
    assert!(status.starts_with("ERR BADARG"), "{status}");
    // The connection still works.
    let (status, _) = c.ok("PING");
    assert_eq!(status, "OK pong");
    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}

#[test]
fn result_limits_truncate_collecting_queries() {
    let (addr, handle) = start_server(ServiceConfig {
        default_result_limit: 3,
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(&addr);
    c.ok("GEN g uniform:20,20,140,3");
    let (status, payload) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=2");
    assert_eq!(field(&status, "count"), Some("3"), "{status}");
    assert!(status.contains("truncated=result-cap"), "{status}");
    assert_eq!(payload.len(), 3);
    // An explicit limit overrides the default.
    let (status, payload) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=2 limit=5");
    assert_eq!(payload.len(), 5);
    assert!(status.contains("truncated=result-cap"), "{status}");
    // count-only is exempt from the default cap.
    let (status, _) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=2 count-only");
    let n: u64 = field(&status, "count").unwrap().parse().unwrap();
    assert!(n > 5, "{status}");
    assert!(!status.contains("truncated"), "{status}");
    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}

#[test]
fn a_crashed_query_degrades_to_err_internal_without_wedging_the_server() {
    let (addr, handle) = start_server(ServiceConfig {
        debug_commands: true,
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(&addr);
    c.ok("GEN g uniform:16,16,90,5");

    // A deliberately failed request panics inside the handler; the
    // engine catches it and answers on the same connection.
    let (status, payload) = c.cmd("CRASH");
    assert!(status.starts_with("ERR INTERNAL"), "{status}");
    assert!(payload.is_empty());

    // The same connection keeps working, and queries still execute:
    // the poisoned locks were recovered and no worker slot leaked.
    let (status, _) = c.ok("PING");
    assert_eq!(status, "OK pong");
    let (status, first) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1");
    assert!(field(&status, "count").is_some(), "{status}");

    // Crash repeatedly: every one degrades, none wedges.
    for _ in 0..4 {
        let (status, _) = c.cmd("CRASH");
        assert!(status.starts_with("ERR INTERNAL"), "{status}");
    }
    let (_, again) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1");
    assert_eq!(again, first, "results are unchanged after the crashes");

    // Other connections are unaffected too.
    let mut c2 = Client::connect(&addr);
    let (_, stats) = c2.ok("STATS");
    assert!(
        stat_value(&stats, "queries_err") >= 5,
        "crashes are counted"
    );

    c2.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}

/// Pull one guaranteed core edge out of an enumeration result line:
/// every vertex pair inside a reported biclique is an edge of the
/// pruned core the plan was built on.
fn first_edge_of(line: &str) -> (String, String) {
    let l = line.trim_start().strip_prefix("L=[").expect("L list");
    let u = l
        .split([',', ']'])
        .next()
        .expect("upper id")
        .trim()
        .to_string();
    let r = line.split("R=[").nth(1).expect("R list");
    let v = r
        .split([',', ']'])
        .next()
        .expect("lower id")
        .trim()
        .to_string();
    (u, v)
}

/// Dynamic-graph session: a loaded graph is mutated in place through
/// the protocol. Updates outside the pruned core keep the cached plan
/// alive; a deletion inside it invalidates surgically; and the
/// post-update results match a fresh reload with the same edit script
/// replayed.
#[test]
fn update_sessions_repair_cores_and_invalidate_surgically() {
    let dir = std::env::temp_dir().join(format!("fbe-loopback-update-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let stem = dir.join("dyn");
    let stem_s = stem.to_str().expect("utf8 path");
    fbe_cli::run(&sv(&[
        "generate",
        "--uniform",
        "20,20,120",
        "--seed",
        "7",
        "--out",
        stem_s,
    ]))
    .expect("generate dataset");

    let (addr, handle) = start_server(ServiceConfig::default());
    let mut c = Client::connect(&addr);
    c.ok(&format!("LOAD g {stem_s}"));

    let query = "ENUM g ssfbc alpha=2 beta=1 delta=1";
    let (status, baseline) = c.ok(query);
    assert_eq!(field(&status, "cached"), Some("false"), "{status}");
    assert!(!baseline.is_empty(), "need results to locate a core edge");
    let (status, payload) = c.ok(query);
    assert_eq!(field(&status, "cached"), Some("true"), "{status}");
    assert_eq!(payload, baseline);

    // Grow the graph outside the pruned core: a fresh lower vertex and
    // a single pendant edge to it. Degree 1 can never meet alpha=2, so
    // the (2, 1) core is untouched and the cached plan must survive.
    let (status, _) = c.ok("ADDVERTEX g lower attr=0");
    assert_eq!(field(&status, "vertex"), Some("20"), "{status}");
    assert_eq!(field(&status, "plans_invalidated"), Some("0"), "{status}");
    let (status, _) = c.ok("ADDEDGE g 0 20");
    assert_eq!(field(&status, "edges"), Some("121"), "{status}");
    assert_eq!(field(&status, "cores_clean"), Some("1"), "{status}");
    assert_eq!(field(&status, "plans_invalidated"), Some("0"), "{status}");
    assert_eq!(field(&status, "plans_kept"), Some("1"), "{status}");
    let (status, payload) = c.ok(query);
    assert_eq!(
        field(&status, "cached"),
        Some("true"),
        "clean updates must not evict the plan: {status}"
    );
    assert_eq!(payload, baseline, "results unchanged by out-of-core growth");

    // Delete an edge that provably lies inside the pruned core — any
    // pair from a reported biclique qualifies — and watch the one
    // tracked plan drop while the repair stays localized.
    let (du, dv) = first_edge_of(&baseline[0]);
    let (status, _) = c.ok(&format!("DELEDGE g {du} {dv}"));
    assert_eq!(field(&status, "cores_stale"), Some("1"), "{status}");
    assert_eq!(field(&status, "plans_invalidated"), Some("1"), "{status}");
    assert_eq!(field(&status, "plans_kept"), Some("0"), "{status}");
    let (status, mutated) = c.ok(query);
    assert_eq!(
        field(&status, "cached"),
        Some("false"),
        "stale plan must be gone: {status}"
    );
    assert_ne!(mutated, baseline, "the deleted edge was load-bearing");

    // Cross-check: a fresh reload with the same edit script replayed
    // enumerates byte-for-byte the same bicliques.
    c.ok(&format!("LOAD h {stem_s}"));
    c.ok("ADDVERTEX h lower attr=0");
    c.ok("ADDEDGE h 0 20");
    c.ok(&format!("DELEDGE h {du} {dv}"));
    let (_, fresh) = c.ok("ENUM h ssfbc alpha=2 beta=1 delta=1");
    assert_eq!(fresh, mutated, "incremental repair diverges from reload");

    let (_, stats) = c.ok("STATS");
    assert_eq!(stat_value(&stats, "updates_applied"), 6);
    assert_eq!(stat_value(&stats, "plan_cache_invalidated"), 1);

    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_exposition_follows_prometheus_text_grammar() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut c = Client::connect(&addr);
    c.ok("GEN g uniform:16,16,90,11");
    c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1 count-only");
    c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1 count-only");

    let (status, payload) = c.ok("METRICS");
    assert!(status.contains("format=prometheus"), "{status}");

    // Every sample line's family carries a `# TYPE` declaration.
    let typed: Vec<&str> = payload
        .iter()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .map(|l| l.split_whitespace().next().unwrap())
        .collect();
    assert!(!typed.is_empty());
    for line in payload.iter().filter(|l| !l.starts_with('#')) {
        let name = line
            .split(['{', ' '])
            .next()
            .unwrap()
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(typed.contains(&name), "sample without # TYPE: {line}");
        // Sample values parse as integers (this registry is all-u64).
        let value = line.split_whitespace().last().unwrap();
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad value: {line}"));
    }

    // Histogram buckets are cumulative: monotone non-decreasing and
    // terminated by a `+Inf` bucket equal to the family count.
    let buckets: Vec<u64> = payload
        .iter()
        .filter(|l| l.starts_with("fbe_query_latency_us_bucket"))
        .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
        .collect();
    assert_eq!(buckets.len(), 6, "five bounds plus +Inf");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    let count: u64 = payload
        .iter()
        .find_map(|l| l.strip_prefix("fbe_query_latency_us_count "))
        .unwrap()
        .parse()
        .unwrap();
    let inf = payload
        .iter()
        .find(|l| l.contains("le=\"+Inf\"") && l.starts_with("fbe_query_latency_us"))
        .unwrap();
    assert_eq!(
        inf.split_whitespace()
            .last()
            .unwrap()
            .parse::<u64>()
            .unwrap(),
        count,
        "+Inf bucket equals _count"
    );

    // The counters agree with STATS (same registry, two renderings).
    let (_, stats) = c.ok("STATS");
    let prom_queries: u64 = payload
        .iter()
        .find_map(|l| l.strip_prefix("fbe_queries_total "))
        .unwrap()
        .parse()
        .unwrap();
    // STATS itself is not a query; METRICS/STATS may or may not be
    // counted depending on dispatch, so compare >= the ENUM count.
    assert!(prom_queries >= 2, "{prom_queries}");
    assert!(stat_value(&stats, "queries_total") >= prom_queries);

    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}

#[test]
fn slowlog_is_bounded_sorted_and_evicts_the_fastest() {
    let (addr, handle) = start_server(ServiceConfig {
        slowlog_capacity: 2,
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(&addr);
    c.ok("GEN g uniform:18,18,110,13");
    // Three OK enumerations offered to a capacity-2 log: one must be
    // evicted, and what remains are the two slowest.
    c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1 count-only");
    c.ok("ENUM g ssfbc alpha=2 beta=2 delta=1 count-only");
    c.ok("ENUM g bsfbc alpha=1 beta=1 delta=1 count-only");

    let (status, payload) = c.ok("SLOWLOG");
    assert!(status.contains("entries=2"), "{status}");
    let headers: Vec<&String> = payload.iter().filter(|l| l.starts_with("query ")).collect();
    assert_eq!(headers.len(), 2);
    let us: Vec<u64> = headers
        .iter()
        .map(|h| {
            h.split_whitespace()
                .find_map(|t| t.strip_prefix("us="))
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    assert!(us[0] >= us[1], "slowest first: {us:?}");
    for h in &headers {
        assert!(h.contains("graph=g"), "{h}");
        assert!(h.contains("truncated=none"), "{h}");
        assert!(h.contains("q=ENUM g "), "original line retained: {h}");
    }
    // `SLOWLOG 1` returns only the single slowest entry.
    let (status, payload) = c.ok("SLOWLOG 1");
    assert!(status.contains("entries=1"), "{status}");
    assert!(payload[0].contains(&format!("us={}", us[0])), "{payload:?}");

    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}

#[test]
fn traced_enumeration_is_byte_identical_to_untraced() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut c = Client::connect(&addr);
    c.ok("GEN g uniform:20,20,130,17");

    for threads in [1u32, 4] {
        let q = format!("ENUM g ssfbc alpha=1 beta=1 delta=1 threads={threads}");

        c.ok("TRACE off");
        let (status_off, payload_off) = c.ok(&q);
        assert!(
            payload_off.iter().all(|l| !l.starts_with('#')),
            "untraced replies carry no span lines"
        );

        let (status, _) = c.ok("TRACE on");
        assert!(status.contains("trace=on"), "{status}");
        let (status_on, payload_on) = c.ok(&q);

        // The span block is appended, `# `-prefixed, and non-empty.
        let spans: Vec<&String> = payload_on
            .iter()
            .filter(|l| l.starts_with("# span "))
            .collect();
        assert!(!spans.is_empty(), "traced reply has a span tree");
        assert!(
            spans.iter().any(|l| l.contains("enumerate")),
            "span vocabulary includes enumerate: {spans:?}"
        );

        // Enumeration results are byte-identical with tracing on.
        let results_on: Vec<&String> = payload_on.iter().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            results_on,
            payload_off.iter().collect::<Vec<_>>(),
            "threads={threads}"
        );
        assert_eq!(
            field(&status_on, "count"),
            field(&status_off, "count"),
            "{status_on} vs {status_off}"
        );
    }

    // TRACE off restores span-free replies on the same connection.
    c.ok("TRACE off");
    let (_, payload) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1");
    assert!(payload.iter().all(|l| !l.starts_with('#')));

    // sample=2 traces every second enumeration on this connection.
    let (status, _) = c.ok("TRACE sample=2");
    assert!(status.contains("trace=sample=2"), "{status}");
    let (_, p1) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1 count-only");
    let (_, p2) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1 count-only");
    let traced = [&p1, &p2]
        .iter()
        .filter(|p| p.iter().any(|l| l.starts_with("# span ")))
        .count();
    assert_eq!(traced, 1, "exactly one of two queries sampled");

    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}

/// A reply far larger than any socket write buffer reaches a client
/// on default socket options without waiting for that client's
/// delayed ACK (~40 ms on Linux): the server sends it with
/// `TCP_NODELAY` in one write. The `GRAPHS` listing of 64 graphs with
/// 1 KiB names is over 64 KiB but costs the server next to nothing,
/// so the round trip is transport time, even in a debug build.
#[test]
fn large_replies_do_not_wait_for_the_clients_delayed_ack() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut c = Client::connect(&addr);
    let stem = "g".repeat(1024);
    for i in 0..64 {
        c.ok(&format!("GEN {stem}{i:02} uniform:2,2,1"));
    }
    let mut round_trips = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let (_, payload) = c.ok("GRAPHS");
        round_trips.push(t.elapsed());
        let bytes: usize = payload.iter().map(|l| l.len() + 1).sum();
        assert!(bytes >= 64 * 1024, "GRAPHS reply is only {bytes} bytes");
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?}: {round_trips:?}"
    );
    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}
