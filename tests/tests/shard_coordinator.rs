//! Loopback tests of the scatter-gather coordinator and the service
//! transport hardening: N real shard servers plus a coordinator on
//! ephemeral ports, diffed against a single-process server; oversized
//! and non-UTF-8 request lines; `LOAD` confinement under a data root.

use fbe_service::engine::Engine;
use fbe_service::protocol::field;
use fbe_service::server::Server;
use fbe_service::ServiceConfig;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// Boot `n` shard servers plus a coordinator fanning out to them.
fn start_fleet(
    n: usize,
) -> (
    String,
    Vec<String>,
    Vec<std::thread::JoinHandle<std::io::Result<()>>>,
) {
    let mut shard_addrs = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..n {
        let (addr, handle) = start_server(ServiceConfig::default());
        shard_addrs.push(addr);
        handles.push(handle);
    }
    let (coord, handle) = start_server(ServiceConfig {
        shards: shard_addrs.clone(),
        ..ServiceConfig::default()
    });
    handles.push(handle);
    (coord, shard_addrs, handles)
}

/// The coordinator's `--sorted` ENUM streams are byte-identical to a
/// single-process server for every miner, counts add up, maximum
/// agrees, and the global result budget binds across shards.
#[test]
fn coordinator_matches_single_process_for_every_miner() {
    let (coord, _shards, handles) = start_fleet(3);
    let (solo, solo_handle) = start_server(ServiceConfig::default());
    let mut cc = Client::connect(&coord);
    let mut sc = Client::connect(&solo);

    // GEN is deterministic, so the coordinator's fan-out (each shard
    // generates then self-restricts) and the solo server build the
    // same graph.
    let gen = "GEN g uniform:30,30,55,11";
    let (status, _) = cc.ok(gen);
    assert!(status.contains("shards=3"), "{status}");
    sc.ok(gen);

    let queries = [
        "ENUM g ssfbc alpha=1 beta=1 delta=1",
        "ENUM g ssfbc alpha=2 beta=1 delta=1",
        "ENUM g bsfbc alpha=1 beta=1 delta=1",
        "ENUM g pssfbc alpha=1 beta=1 delta=1 theta=0.3",
        "ENUM g pbsfbc alpha=1 beta=1 delta=1 theta=0.3",
    ];
    for q in &queries {
        let (solo_status, want) = sc.ok(q);
        let (coord_status, got) = cc.ok(q);
        assert_eq!(got, want, "{q}: coordinator vs single-process");
        assert_eq!(
            field(&coord_status, "count"),
            field(&solo_status, "count"),
            "{q}: {coord_status}"
        );
        // Counting mode sums shard counts to the same total.
        let (count_status, payload) = cc.ok(&format!("{q} count-only"));
        assert!(payload.is_empty());
        assert_eq!(
            field(&count_status, "count"),
            field(&solo_status, "count"),
            "{q} count-only: {count_status}"
        );
    }

    // Maximum-mode: the coordinator's pick has the same metric value
    // as the single-process winner (ties may break differently only
    // if Ord differs — it must not, so require exact agreement).
    let q = "ENUM g ssfbc alpha=1 beta=1 delta=1 max=edges";
    let (_, want) = sc.ok(q);
    let (_, got) = cc.ok(q);
    assert_eq!(got, want, "maximum via coordinator vs single-process");

    // A result cap in maximum mode makes the answer a lower bound, and
    // the coordinator must say so exactly as single-process does
    // (which result survives the cap may differ; the marking may not).
    let q = "ENUM g ssfbc alpha=1 beta=1 delta=1 max=vertices limit=1";
    let (solo_status, _) = sc.ok(q);
    let (coord_status, _) = cc.ok(q);
    assert_eq!(
        field(&solo_status, "truncated"),
        Some("result-cap"),
        "{solo_status}"
    );
    assert_eq!(
        field(&coord_status, "truncated"),
        field(&solo_status, "truncated"),
        "{q}: {coord_status}"
    );
    assert_eq!(field(&coord_status, "count"), Some("1"), "{coord_status}");

    // Global result budget: exactly K results with truncation
    // reported. Which K survive depends on shard arrival order (the
    // shared budget races, exactly like `SharedBudget` across threads
    // in one process), but every one is a genuine result and the
    // merged output stays sorted.
    let (_, all) = cc.ok("ENUM g ssfbc alpha=1 beta=1 delta=1");
    assert!(all.len() > 4, "need enough results to truncate");
    let k = 3;
    let q = format!("ENUM g ssfbc alpha=1 beta=1 delta=1 limit={k}");
    let (status, got) = cc.ok(&q);
    assert_eq!(got.len(), k, "{status}");
    assert!(status.contains("truncated=result-cap"), "{status}");
    // `all` is canonically sorted, so an in-order subsequence check
    // covers both membership and sortedness of the merged output.
    let mut it = all.iter();
    for line in &got {
        assert!(
            it.any(|l| l == line),
            "{line}: not a whole-graph result in canonical position"
        );
    }

    // Mutations are refused in coordinator mode.
    let (status, _) = cc.cmd("ADDEDGE g 0 0");
    assert!(status.starts_with("ERR BADARG"), "{status}");
    let (status, _) = cc.cmd("SHARD g index=0 of=3");
    assert!(status.starts_with("ERR BADARG"), "{status}");

    // STATS surfaces the fan-out accounting and per-shard counters.
    let (status, stats) = cc.ok("STATS");
    assert!(status.contains("shards=3"), "{status}");
    assert!(stat_value(&stats, "shard_fanouts") > 0);
    for i in 0..3 {
        assert!(
            stats
                .iter()
                .any(|l| l.starts_with(&format!("shard{i}_queries_total ") as &str)),
            "missing shard{i} stats"
        );
    }

    // SHUTDOWN stops the coordinator and the shard servers.
    let (status, _) = cc.ok("SHUTDOWN");
    assert_eq!(status, "OK bye");
    for h in handles {
        h.join().unwrap().expect("server run");
    }
    sc.ok("SHUTDOWN");
    solo_handle.join().unwrap().unwrap();
}

/// A killed shard surfaces as a structured `ERR SHARD` within the
/// deadline — never a hang — and partial results are accounted.
#[test]
fn killed_shard_answers_err_shard_within_the_deadline() {
    let (coord, shard_addrs, mut handles) = start_fleet(2);
    let mut cc = Client::connect(&coord);
    cc.ok("GEN g uniform:20,20,60,7");

    // Kill shard 1 out from under the coordinator.
    let mut victim = Client::connect(&shard_addrs[1]);
    victim.ok("SHUTDOWN");
    handles.remove(1).join().unwrap().unwrap();

    let t0 = Instant::now();
    let (status, payload) = cc.cmd("ENUM g ssfbc alpha=1 beta=1 delta=1 deadline-ms=2000");
    let elapsed = t0.elapsed();
    assert!(status.starts_with("ERR SHARD"), "{status}");
    assert!(status.contains("shard=1"), "{status}");
    assert!(
        status.contains(&shard_addrs[1]),
        "failing address named: {status}"
    );
    // The stopped shard closed the pooled connection too: the
    // coordinator's reconnect is refused, and no shard thread is left
    // to answer ERR SHUTDOWN.
    assert!(!status.contains("ERR SHUTDOWN"), "{status}");
    assert!(payload.is_empty(), "no partial payload leaks to the client");
    assert!(
        elapsed < Duration::from_secs(10),
        "ERR SHARD took {elapsed:?}"
    );

    // The failure is accounted; the connection keeps working.
    let (_, stats) = cc.ok("STATS");
    assert!(stat_value(&stats, "shard_errors") >= 1);
    let (status, _) = cc.ok("PING");
    assert_eq!(status, "OK pong");

    cc.ok("SHUTDOWN");
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// A scripted stand-in for a shard server on a test-local listener:
/// it greets, answers `ENUM` with `enum_reply` verbatim (hanging up
/// right after it when `hang_up`), and every other request with a
/// bare `OK` block. It returns the `ENUM` lines it received after
/// answering `SHUTDOWN`.
fn fake_shard(enum_reply: String, hang_up: bool) -> (String, std::thread::JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake shard");
    let addr = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        let mut enums = Vec::new();
        for stream in listener.incoming() {
            let mut stream = stream.expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            // Write errors only mean the coordinator already hung up.
            let _ = stream.write_all(b"OK fbe-service protocol=1\n.\n");
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if line.starts_with("ENUM ") {
                    enums.push(line.trim_end().to_string());
                    let _ = stream.write_all(enum_reply.as_bytes());
                    if hang_up {
                        break;
                    }
                } else {
                    let _ = stream.write_all(b"OK fake\n.\n");
                    if line.starts_with("SHUTDOWN") {
                        return enums;
                    }
                }
                line.clear();
            }
        }
        enums
    });
    (addr, handle)
}

/// A shard reply the coordinator cannot decode — a garbled result
/// line, or a reply cut off before its terminator — fails the query
/// with `ERR SHARD` and an empty payload, never a wrong or short
/// result, and is counted in `shard_errors`.
#[test]
fn malformed_or_cut_off_shard_replies_answer_err_shard() {
    let status = "OK model=SSFBC graph=g count=2 cached=false threads=1 elapsed_us=1";
    for (what, reply, hang_up) in [
        (
            "garbled result line",
            format!("{status}\nL=[1] R=[2]\nL=[1, x] R=[2]\n.\n"),
            false,
        ),
        (
            "reply cut off before the terminator",
            format!("{status}\nL=[1] R=[2]\n"),
            true,
        ),
    ] {
        let (shard, shard_handle) = fake_shard(reply, hang_up);
        let (coord, coord_handle) = start_server(ServiceConfig {
            shards: vec![shard],
            ..ServiceConfig::default()
        });
        let mut cc = Client::connect(&coord);
        cc.ok("GEN g uniform:20,20,60,7");

        let (status, payload) = cc.cmd("ENUM g ssfbc alpha=1 beta=1 delta=1");
        assert!(status.starts_with("ERR SHARD shard=0 "), "{what}: {status}");
        assert!(payload.is_empty(), "{what}: payload leaked: {payload:?}");

        let (_, stats) = cc.ok("STATS");
        assert_eq!(stat_value(&stats, "shard_errors"), 1, "{what}");
        assert_eq!(stat_value(&stats, "queries_err"), 1, "{what}");

        cc.ok("SHUTDOWN");
        coord_handle.join().unwrap().unwrap();
        shard_handle.join().unwrap();
    }
}

/// A complete two-result `ENUM` reply, as a fake shard sends it.
const FAKE_ENUM_REPLY: &str = concat!(
    "OK model=SSFBC graph=g count=2 cached=false threads=1 elapsed_us=1\n",
    "L=[1] R=[2]\nL=[2] R=[1]\n.\n",
);

/// The coordinator keeps its shard connections between requests: 20
/// `ENUM`s after warm-up open no new connection on any shard, so no
/// request waits on a shard's accept loop.
#[test]
fn coordinator_reuses_shard_connections_across_enums() {
    let (coord, _shards, handles) = start_fleet(2);
    let mut cc = Client::connect(&coord);
    cc.ok("GEN g uniform:30,30,55,11");

    let (_, before) = cc.ok("STATS");
    let accepted: Vec<u64> = (0..2)
        .map(|i| stat_value(&before, &format!("shard{i}_connections_accepted")))
        .collect();
    assert!(accepted.iter().all(|&n| n >= 1), "{accepted:?}");
    for _ in 0..20 {
        cc.ok("ENUM g ssfbc alpha=1 beta=1 delta=1");
    }
    let (_, after) = cc.ok("STATS");
    for (i, &n) in accepted.iter().enumerate() {
        let key = format!("shard{i}_connections_accepted");
        assert_eq!(stat_value(&after, &key), n, "{key} grew across ENUMs");
    }
    assert_eq!(stat_value(&after, "shard_reconnects"), 0);

    cc.ok("SHUTDOWN");
    for h in handles {
        h.join().unwrap().unwrap();
    }
}

/// A shard that hangs up after a complete reply leaves a dead
/// connection in the pool. The next query finds it dead before any
/// reply byte, reconnects once and succeeds.
#[test]
fn a_pooled_connection_the_shard_closed_gets_one_reconnect() {
    let (shard, shard_handle) = fake_shard(FAKE_ENUM_REPLY.to_string(), true);
    let (coord, coord_handle) = start_server(ServiceConfig {
        shards: vec![shard],
        ..ServiceConfig::default()
    });
    let mut cc = Client::connect(&coord);
    cc.ok("GEN g uniform:20,20,60,7");

    let q = "ENUM g ssfbc alpha=1 beta=1 delta=1";
    let (first, want) = cc.ok(q);
    let (second, got) = cc.ok(q);
    assert_eq!(field(&first, "count"), Some("2"), "{first}");
    assert_eq!(field(&second, "count"), Some("2"), "{second}");
    assert_eq!(got, want);
    // METRICS is answered by the coordinator alone, so reading it
    // touches no shard connection.
    let (_, metrics) = cc.ok("METRICS");
    assert_eq!(stat_value(&metrics, "fbe_shard_reconnects"), 1);
    assert_eq!(stat_value(&metrics, "fbe_shard_errors"), 0);

    cc.ok("SHUTDOWN");
    coord_handle.join().unwrap().unwrap();
    shard_handle.join().unwrap();
}

/// A shard receives the part of the client's `deadline-ms` that is
/// left when the coordinator sends the request, never more than the
/// client granted.
#[test]
fn shards_receive_the_time_left_of_the_deadline() {
    let (shard, shard_handle) = fake_shard(FAKE_ENUM_REPLY.to_string(), false);
    let (coord, coord_handle) = start_server(ServiceConfig {
        shards: vec![shard],
        ..ServiceConfig::default()
    });
    let mut cc = Client::connect(&coord);
    cc.ok("GEN g uniform:20,20,60,7");
    cc.ok("ENUM g ssfbc alpha=1 beta=1 delta=1 deadline-ms=2000");
    cc.ok("SHUTDOWN");
    coord_handle.join().unwrap().unwrap();

    let enums = shard_handle.join().unwrap();
    assert_eq!(enums.len(), 1, "{enums:?}");
    let forwarded: u64 = field(&enums[0], "deadline-ms")
        .unwrap_or_else(|| panic!("no deadline forwarded: {}", enums[0]))
        .parse()
        .unwrap();
    // Time has passed since the client's request arrived, so the
    // remainder rounds down below the full 2000 ms.
    assert!(forwarded < 2000, "{}", enums[0]);
}

/// Satellite: an oversized request line is refused with `ERR PARSE`
/// and drained — the connection survives.
#[test]
fn oversized_request_lines_get_err_parse_and_the_connection_survives() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut c = Client::connect(&addr);

    // Well over the 64 KiB cap, in one line.
    let big = format!("ENUM g ssfbc alpha=1 {}\n", "x".repeat(128 * 1024));
    c.writer.write_all(big.as_bytes()).expect("send oversized");
    c.writer.flush().expect("flush");
    let (status, payload) = c.read_block();
    assert!(status.starts_with("ERR PARSE"), "{status}");
    assert!(status.contains("exceeds"), "{status}");
    assert!(payload.is_empty());

    // Same connection, next command parses normally.
    let (status, _) = c.ok("PING");
    assert_eq!(status, "OK pong");

    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}

/// Satellite: non-UTF-8 request bytes answer `ERR PARSE` instead of
/// killing the connection.
#[test]
fn non_utf8_request_bytes_get_err_parse_not_a_dead_connection() {
    let (addr, handle) = start_server(ServiceConfig::default());
    let mut c = Client::connect(&addr);

    c.writer
        .write_all(b"PING \xff\xfe\x80garbage\n")
        .expect("send bytes");
    c.writer.flush().expect("flush");
    let (status, _) = c.read_block();
    assert!(status.starts_with("ERR PARSE"), "{status}");
    assert!(status.contains("UTF-8"), "{status}");

    let (status, _) = c.ok("PING");
    assert_eq!(status, "OK pong");

    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
}

/// Satellite: with `--data-root`, absolute stems and `..` traversal
/// are refused with `ERR PARSE`; relative stems resolve inside the
/// root.
#[test]
fn data_root_confines_load_stems() {
    let dir = std::env::temp_dir().join(format!("fbe-data-root-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let stem = dir.join("g");
    fbe_cli::run(
        &["generate", "--uniform", "12,12,40", "--out"]
            .iter()
            .map(|s| s.to_string())
            .chain([stem.to_str().unwrap().to_string()])
            .collect::<Vec<_>>(),
    )
    .expect("generate");

    let (addr, handle) = start_server(ServiceConfig {
        data_root: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let mut c = Client::connect(&addr);

    // Relative stem under the root loads fine.
    let (status, _) = c.ok("LOAD g g");
    assert!(status.contains("upper=12"), "{status}");

    // Absolute stems and traversal are structured parse errors.
    for bad in [
        format!("LOAD h {}", stem.display()),
        "LOAD h ../escape".to_string(),
        "LOAD h a/../../escape".to_string(),
    ] {
        let (status, _) = c.cmd(&bad);
        assert!(status.starts_with("ERR PARSE"), "{bad} -> {status}");
        assert!(status.contains("escapes"), "{status}");
    }

    // The loaded graph is queryable; the session is unharmed.
    let (status, _) = c.ok("ENUM g ssfbc alpha=1 beta=1 delta=1 count-only");
    assert!(field(&status, "count").is_some(), "{status}");

    c.ok("SHUTDOWN");
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
