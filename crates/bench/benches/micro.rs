//! Criterion micro-benchmarks for the core primitives: sorted
//! intersection, 2-hop construction, greedy coloring, FCore/CFCore
//! peeling, `Combination` expansion, and the two main enumerators on
//! the pruned Youtube analog.
//!
//! Every benchmarked case builds its **own independently seeded**
//! corpus (`DatasetSpec.seed` is xored with a per-case tag). Earlier
//! versions reused one graph across cases, so later benches measured
//! allocations the earlier ones had already warmed in cache — which is
//! exactly the bias a substrate comparison cannot afford.

use criterion::{criterion_group, criterion_main, Criterion};
use fair_biclique::biclique::CountSink;
use fair_biclique::config::{Budget, PruneKind, RunConfig, VertexOrder};
use fair_biclique::fairset::max_fair_subsets;
use fair_biclique::pipeline::{prune, run, Algorithm};
use fair_biclique::prepared::QueryModel;
use fbe_datasets::corpus::{spec, Dataset, DatasetSpec};
use std::hint::black_box;

/// The Youtube analog reseeded per benchmark case.
fn yt(tag: u64) -> DatasetSpec {
    let mut s = spec(Dataset::Youtube);
    s.seed ^= tag;
    s
}

/// Deterministic splitmix64 stream for the intersection corpora.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn random_ascending(width: u32, density: f64, seed: u64) -> Vec<u32> {
    let mut s = seed;
    (0..width)
        .filter(|_| (splitmix64(&mut s) as f64 / u64::MAX as f64) < density)
        .collect()
}

fn bench_primitives(c: &mut Criterion) {
    // Sorted intersection at several widths, each width on freshly
    // seeded vectors (not slices of one shared allocation).
    for (width, seed) in [(1024u32, 0xB01u64), (4096, 0xB02), (16384, 0xB03)] {
        let a = random_ascending(width, 0.33, seed);
        let b = random_ascending(width, 0.25, seed ^ 0xFFFF);
        c.bench_function(&format!("intersect_sorted_count_{width}"), |bch| {
            bch.iter(|| bigraph::intersect_sorted_count(black_box(&a), black_box(&b)))
        });
    }

    {
        let s = yt(0xC01);
        let g = s.build();
        let params = s.single_params();
        c.bench_function("fcore_youtube", |bch| {
            bch.iter(|| fair_biclique::fcore::fcore_masks(black_box(&g), params.alpha, params.beta))
        });
    }

    {
        let s = yt(0xC02);
        let g = s.build();
        let params = s.single_params();
        c.bench_function("cfcore_youtube", |bch| {
            bch.iter(|| {
                prune(
                    black_box(&g),
                    QueryModel::Ssfbc(params),
                    PruneKind::Colorful,
                )
            })
        });
    }

    {
        let s = yt(0xC03);
        let g = s.build();
        let params = s.single_params();
        let pruned = prune(&g, QueryModel::Ssfbc(params), PruneKind::FCore);
        c.bench_function("twohop_on_fcore_pruned", |bch| {
            bch.iter(|| {
                bigraph::twohop::construct_2hop(
                    black_box(&pruned.sub.graph),
                    bigraph::Side::Lower,
                    params.alpha as usize,
                )
            })
        });
    }

    {
        let s = yt(0xC04);
        let g = s.build();
        let params = s.single_params();
        let pruned = prune(&g, QueryModel::Ssfbc(params), PruneKind::FCore);
        let h = bigraph::twohop::construct_2hop(
            &pruned.sub.graph,
            bigraph::Side::Lower,
            params.alpha as usize,
        );
        c.bench_function("greedy_coloring", |bch| {
            bch.iter(|| bigraph::coloring::greedy_color_by_degree(black_box(&h)))
        });
    }

    let g0: Vec<u32> = (0..12).collect();
    let g1: Vec<u32> = (100..110).collect();
    c.bench_function("combination_12x10", |bch| {
        bch.iter(|| max_fair_subsets(black_box(&[&g0, &g1]), 4, 2, None))
    });
}

fn bench_enumeration(c: &mut Criterion) {
    // One corpus for this group: the two algorithms are compared on
    // the SAME graph by design (seeded apart from the primitives').
    let s = yt(0xD01);
    let g = s.build();
    let params = s.single_params();
    let cfg = RunConfig {
        prune: PruneKind::Colorful,
        order: VertexOrder::DegreeDesc,
        budget: Budget::UNLIMITED,
        ..RunConfig::default()
    };
    let mut group = c.benchmark_group("enumeration_youtube");
    group.sample_size(10);
    group.bench_function("fairbcem", |bch| {
        bch.iter(|| {
            let mut sink = CountSink::default();
            run(
                black_box(&g),
                QueryModel::Ssfbc(params),
                Algorithm::FairBcem,
                &cfg,
                &mut sink,
            )
            .unwrap();
            sink.count
        })
    });
    group.bench_function("fairbcem_pp", |bch| {
        bch.iter(|| {
            let mut sink = CountSink::default();
            run(
                black_box(&g),
                QueryModel::Ssfbc(params),
                Algorithm::FairBcemPP,
                &cfg,
                &mut sink,
            )
            .unwrap();
            sink.count
        })
    });
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_enumeration);
criterion_main!(benches);
