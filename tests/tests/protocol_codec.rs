//! Round-trip properties of the service's two line codecs:
//!
//! * requests — `parse_request(&r.to_string()) == Ok(r)` for every
//!   verb (`fbe_service::protocol` owns both directions);
//! * result lines — `b.to_string().parse::<Biclique>() == Ok(b)`,
//!   including empty sides, and malformed lines are rejected;
//! * arbitrary request lines — a verb plus random tokens never panic
//!   the parser, every rejection is an `ERR` reply, and every accepted
//!   line renders to a line that parses back to the same request.
//!
//! The coordinator forwards rendered requests to its shards and parses
//! their result lines back, so these properties are what keep a
//! sharded answer equal to a single-process one.

use fair_biclique::config::{FairParams, ProParams, Substrate};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::prepared::QueryModel;
use fair_biclique::Biclique;
use fbe_datasets::corpus::Dataset;
use fbe_service::protocol::{parse_request, EnumMode, EnumOpts, GenSpec, Request, TraceMode};
use proptest::prelude::*;
use std::time::Duration;

/// Number of request verbs `request` can build.
const VERBS: usize = 15;

/// One request of verb `verb`, its fields drawn from the raw values:
/// `bits` decides which optional fields keep their default (and are
/// therefore left out of the rendered line).
fn request(verb: usize, x: u32, y: u32, big: u64, theta: f64, bits: u16) -> Request {
    let bit = |i: u32| bits & (1 << i) != 0;
    let graph = format!("g{}", x % 7);
    match verb {
        0 => Request::Ping,
        1 => Request::Load {
            name: graph,
            path: format!("data/stem{y}"),
            attrs: if bit(0) { (2, 2) } else { (x as u16, y as u16) },
        },
        2 => Request::Gen {
            name: graph,
            spec: if bit(1) {
                GenSpec::Dataset(Dataset::ALL[x as usize % Dataset::ALL.len()])
            } else {
                GenSpec::Uniform {
                    n_upper: 1 + x as usize,
                    n_lower: 1 + y as usize,
                    m: (big % 100_000) as usize,
                    seed: if bit(2) { 42 } else { big },
                    attrs: if bit(3) {
                        (2, 2)
                    } else {
                        ((x % 9) as u16, (y % 9) as u16)
                    },
                }
            },
        },
        3 => Request::Graphs,
        4 => Request::Drop { name: graph },
        5 => Request::AddEdge { graph, u: x, v: y },
        6 => Request::DelEdge { graph, u: x, v: y },
        7 => Request::AddVertex {
            graph,
            side: if bit(7) {
                bigraph::Side::Upper
            } else {
                bigraph::Side::Lower
            },
            attr: if bit(8) { 0 } else { y as u16 },
        },
        8 => {
            let of = 1 + x as usize % 8;
            Request::Shard {
                graph,
                index: y as usize % of,
                of,
                alpha: 1 + (big % 4) as usize,
            }
        }
        9 => {
            let (alpha, beta, delta) = (1 + x % 5, y % 4, (big % 4) as u32);
            let fair = FairParams::new(alpha, beta, delta).expect("alpha >= 1");
            let pro = ProParams::new(alpha, beta, delta, theta).expect("theta in [0, 0.5)");
            let model = match x % 4 {
                0 => QueryModel::Ssfbc(fair),
                1 => QueryModel::Bsfbc(fair),
                2 => QueryModel::Pssfbc(pro),
                _ => QueryModel::Pbsfbc(pro),
            };
            let opts = EnumOpts {
                threads: if bit(4) { 1 } else { 1 + y as usize % 8 },
                limit: bit(5).then_some(big % 10_000),
                deadline: bit(6).then(|| Duration::from_millis(big % 100_000)),
                substrate: [Substrate::Auto, Substrate::SortedVec, Substrate::Bitset]
                    [(big >> 20) as usize % 3],
                mode: [
                    EnumMode::Collect,
                    EnumMode::Count,
                    EnumMode::Maximum(SizeMetric::Vertices),
                    EnumMode::Maximum(SizeMetric::Edges),
                ][(big >> 24) as usize % 4],
            };
            Request::Enum { graph, model, opts }
        }
        10 => Request::Stats,
        11 => Request::Metrics,
        12 => Request::Slowlog {
            n: bit(9).then_some(y as usize),
        },
        13 => Request::Trace {
            mode: match x % 3 {
                0 => TraceMode::Off,
                1 => TraceMode::On,
                _ => TraceMode::Sample(1 + y as u64),
            },
        },
        _ => Request::Shutdown,
    }
}

/// First words of a fuzzed line: every verb, other spellings, an
/// unknown verb and none at all.
const VERB_WORDS: &[&str] = &[
    "PING",
    "LOAD",
    "GEN",
    "GRAPHS",
    "DROP",
    "ADDEDGE",
    "DELEDGE",
    "ADDVERTEX",
    "SHARD",
    "ENUM",
    "STATS",
    "METRICS",
    "SLOWLOG",
    "TRACE",
    "SHUTDOWN",
    "enum",
    "Load",
    "FROB",
    "",
];

/// Positional words: graph names, models, sides, specs, paths, modes.
const WORDS: &[&str] = &[
    "g",
    "yt",
    "ssfbc",
    "bsfbc",
    "pssfbc",
    "PBSFBC",
    "nsf",
    "upper",
    "lower",
    "u",
    "v",
    "left",
    "on",
    "off",
    "count-only",
    "COUNT-ONLY",
    "youtube",
    "dblp",
    "imdb",
    "uniform:3,3,4",
    "uniform:0,3,4",
    "uniform:2,2,1,7",
    "uniform:2,2,1,7,3,70000",
    "uniform:1,2",
    "uniform:x,y,z",
    "uniform:",
    "data/stem",
    "../up",
    "/abs",
    "=",
    "==",
    "alpha",
    "0",
    "1",
    "7",
    "-3",
    "4294967296",
];

/// Keys of `key=value` tokens: every option the grammar knows, other
/// spellings, an unknown key and an empty one.
const KEYS: &[&str] = &[
    "alpha",
    "beta",
    "delta",
    "theta",
    "threads",
    "limit",
    "deadline-ms",
    "substrate",
    "max",
    "index",
    "of",
    "attr",
    "attrs",
    "sample",
    "ALPHA",
    "Max",
    "seed",
    "bogus",
    "",
];

/// Values: in range, out of range, overflowing, signed, float edge
/// cases, enum names, pairs and garbage.
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "+3",
    "-1",
    "65536",
    "4294967296",
    "18446744073709551616",
    "0.3",
    "0.5",
    "0.6",
    "-0",
    "5e-1",
    "1e-320",
    "0.30000000000000004",
    "NaN",
    "inf",
    "auto",
    "bitset",
    "sorted-vec",
    "vertices",
    "edges",
    "e",
    "2,2",
    "3,4,5",
    "70000,1",
    "1,",
    "x",
    "",
    "=",
];

/// One token of a fuzzed line, from raw indices: a positional word or
/// a `key=value` pair.
fn token(kind: usize, a: usize, b: usize) -> String {
    if kind % 3 == 0 {
        WORDS[a % WORDS.len()].to_string()
    } else {
        format!("{}={}", KEYS[a % KEYS.len()], VALUES[b % VALUES.len()])
    }
}

/// Apply raw `(op, at, a, b)` edits to `line`'s tokens: insert a
/// random token, drop one, swap a value or word, or duplicate one.
fn mutate(line: &str, edits: &[(usize, usize, usize, usize)]) -> String {
    let mut toks: Vec<String> = line.split_whitespace().map(String::from).collect();
    for &(op, at, a, b) in edits {
        let i = at % (toks.len() + 1);
        if op % 4 == 0 || i == toks.len() {
            toks.insert(i, token(a, a, b));
        } else if op % 4 == 1 {
            toks.remove(i);
        } else if op % 4 == 2 {
            toks[i] = match toks[i].split_once('=') {
                Some((k, _)) => format!("{k}={}", VALUES[b % VALUES.len()]),
                None => WORDS[a % WORDS.len()].to_string(),
            };
        } else {
            toks.insert(i, toks[i].clone());
        }
    }
    toks.join(" ")
}

fn roundtrips(req: Request) {
    let line = req.to_string();
    assert_eq!(parse_request(&line), Ok(req), "{line}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every verb, with optional fields both at and off their
    /// defaults, parses back to the request it was rendered from.
    #[test]
    fn every_request_parses_back_from_its_rendered_line(
        verb in 0usize..VERBS,
        x in 0u32..5000,
        y in 0u32..5000,
        big in 0u64..(1u64 << 40),
        theta in 0.0f64..0.5,
        bits in 0u16..=u16::MAX,
    ) {
        roundtrips(request(verb, x, y, big, theta, bits));
    }

    /// Every result line parses back to the biclique that printed it,
    /// empty sides included.
    #[test]
    fn every_result_line_parses_back_to_its_biclique(
        upper in proptest::collection::btree_set(0u32..u32::MAX, 0..6),
        lower in proptest::collection::btree_set(0u32..200, 0..6),
    ) {
        let b = Biclique {
            upper: upper.into_iter().collect(),
            lower: lower.into_iter().collect(),
        };
        prop_assert_eq!(b.to_string().parse::<Biclique>(), Ok(b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A verb plus random words and `key=value` tokens (valid, out of
    /// range, malformed, unknown keys, wrong arity), or a valid
    /// request's line with a few tokens inserted, dropped, changed or
    /// repeated: parsing never panics, a rejection is always an `ERR`
    /// reply with no payload, and an accepted line is a request whose
    /// rendering parses back to it.
    #[test]
    fn arbitrary_request_lines_parse_or_answer_err(
        from_valid in proptest::bool::weighted(0.5),
        verb in 0usize..VERB_WORDS.len(),
        raw in proptest::collection::vec((0usize..3, 0usize..64, 0usize..64), 0..7),
        (x, y, big, bits) in (0u32..5000, 0u32..5000, 0u64..(1u64 << 40), 0u16..=u16::MAX),
        edits in proptest::collection::vec((0usize..4, 0usize..16, 0usize..64, 0usize..64), 0..3),
    ) {
        let line = if from_valid {
            mutate(&request(verb % VERBS, x, y, big, 0.25, bits).to_string(), &edits)
        } else {
            let words = raw.iter().map(|&(kind, a, b)| token(kind, a, b));
            std::iter::once(VERB_WORDS[verb].to_string()).chain(words).collect::<Vec<_>>().join(" ")
        };
        match parse_request(&line) {
            Ok(req) => {
                let rendered = req.to_string();
                prop_assert_eq!(parse_request(&rendered), Ok(req), "{} -> {}", line, rendered);
            }
            Err(reply) => {
                prop_assert!(reply.status.starts_with("ERR "), "{}: {}", line, reply.status);
                prop_assert!(reply.payload.is_empty(), "{}", line);
            }
        }
    }
}

/// Every verb is covered, not just the ones the property happens to
/// draw, and at the all-defaults and no-defaults extremes.
#[test]
fn each_verb_roundtrips_with_all_and_no_defaults() {
    for verb in 0..VERBS {
        for bits in [0, u16::MAX] {
            roundtrips(request(verb, 3, 11, 250, 0.25, bits));
        }
    }
}

/// Fixed result lines, and the malformed lines the coordinator must
/// refuse rather than turn into a wrong result.
#[test]
fn result_lines_roundtrip_and_malformed_lines_are_rejected() {
    for (upper, lower) in [
        (vec![1, 4], vec![0, 2, 7]),
        (vec![0], vec![0]),
        (vec![], vec![]),
        (vec![3], vec![]),
    ] {
        let b = Biclique { upper, lower };
        let line = b.to_string();
        assert_eq!(line.parse::<Biclique>(), Ok(b), "{line}");
    }
    for bad in [
        "garbage",
        "L=[1 R=[2]",
        "L=[x] R=[2]",
        "L=[1] R=[2] trailing",
    ] {
        assert!(bad.parse::<Biclique>().is_err(), "{bad}");
    }
}
