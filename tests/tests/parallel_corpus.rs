//! The parallel engine vs serial on corpus-scale graphs — every
//! miner — plus the attribute-skew sensitivity the skewed generator
//! enables.

use fair_biclique::biclique::Biclique;
use fair_biclique::config::{FairParams, RunConfig};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::pipeline::enumerate;
use fair_biclique::prepared::QueryModel;
use fbe_datasets::corpus::{spec, Dataset};
use fbe_integration::maximum_of;
use std::collections::BTreeSet;

#[test]
fn parallel_matches_serial_on_youtube_corpus() {
    let s = spec(Dataset::Youtube);
    let g = s.build();
    let params = s.single_params();
    let serial: BTreeSet<Biclique> =
        enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
            .bicliques
            .into_iter()
            .collect();
    assert!(!serial.is_empty());
    for threads in [2usize, 4, 8] {
        let par = enumerate(
            &g,
            QueryModel::Ssfbc(params),
            &RunConfig {
                threads,
                sorted: true,
                ..RunConfig::default()
            },
        );
        let got: BTreeSet<Biclique> = par.bicliques.iter().cloned().collect();
        assert_eq!(
            got.len(),
            par.bicliques.len(),
            "threads {threads}: duplicates"
        );
        assert_eq!(got, serial, "threads {threads}");
    }
}

#[test]
fn all_parallel_miners_match_serial_on_youtube_corpus() {
    let s = spec(Dataset::Youtube);
    let g = s.build();
    let params = s.single_params();
    let bi = s.bi_params();
    let pro = s.single_pro_params();
    let bi_pro = s.bi_pro_params();
    let sorted = RunConfig {
        sorted: true,
        ..RunConfig::default()
    };
    let want = (
        enumerate(&g, QueryModel::Ssfbc(params), &sorted).bicliques,
        enumerate(&g, QueryModel::Bsfbc(bi), &sorted).bicliques,
        enumerate(&g, QueryModel::Pssfbc(pro), &sorted).bicliques,
        enumerate(&g, QueryModel::Pbsfbc(bi_pro), &sorted).bicliques,
        maximum_of(&g, QueryModel::Ssfbc(params), SizeMetric::Edges, &sorted),
        maximum_of(&g, QueryModel::Bsfbc(bi), SizeMetric::Vertices, &sorted),
    );
    assert!(!want.0.is_empty());
    for threads in [2usize, 4, 8] {
        let cfg = RunConfig {
            threads,
            ..sorted.clone()
        };
        let got = (
            enumerate(&g, QueryModel::Ssfbc(params), &cfg).bicliques,
            enumerate(&g, QueryModel::Bsfbc(bi), &cfg).bicliques,
            enumerate(&g, QueryModel::Pssfbc(pro), &cfg).bicliques,
            enumerate(&g, QueryModel::Pbsfbc(bi_pro), &cfg).bicliques,
            maximum_of(&g, QueryModel::Ssfbc(params), SizeMetric::Edges, &cfg),
            maximum_of(&g, QueryModel::Bsfbc(bi), SizeMetric::Vertices, &cfg),
        );
        assert_eq!(got, want, "threads {threads}");
    }
}

#[test]
fn attribute_skew_starves_fair_bicliques() {
    // As the minority attribute share shrinks, fair biclique counts
    // must fall monotonically-ish and hit zero at full starvation.
    let s = spec(Dataset::Youtube);
    let base = s.build();
    let params = FairParams::unchecked(4, 3, 2);
    let mut counts = Vec::new();
    for p in [0.5, 0.2, 0.05, 0.0] {
        let g = bigraph::generate::with_skewed_lower_attrs(&base, p, 99);
        let n = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default())
            .bicliques
            .len();
        counts.push(n);
    }
    assert_eq!(
        *counts.last().unwrap(),
        0,
        "no minority vertices -> no fair bicliques"
    );
    assert!(
        counts[0] >= counts[2],
        "balanced attrs should allow at least as many results as 5% skew: {counts:?}"
    );
}
