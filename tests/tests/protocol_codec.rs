//! Round-trip properties of the service's two line codecs:
//!
//! * requests — `parse_request(&r.to_string()) == Ok(r)` for every
//!   verb (`fbe_service::protocol` owns both directions);
//! * result lines — `b.to_string().parse::<Biclique>() == Ok(b)`,
//!   including empty sides, and malformed lines are rejected.
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
