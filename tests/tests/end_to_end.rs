//! End-to-end smoke tests over the full stack: corpus generation,
//! pruning, enumeration, case studies, CF recommender, and IO
//! round-trips — the paths the examples and benches exercise.

use bigraph::{Side, VertexId};
use fair_biclique::biclique::CountSink;
use fair_biclique::config::{Budget, PruneKind, RunConfig, VertexOrder};
use fair_biclique::pipeline::{prune, run, Algorithm};
use fair_biclique::prepared::QueryModel;
use fbe_datasets::case_studies::{dbda, jobs, movies};
use fbe_datasets::cf::{recommend, recommendation_graph};
use fbe_datasets::corpus::{spec, Dataset};

fn default_cfg() -> RunConfig {
    RunConfig {
        prune: PruneKind::Colorful,
        order: VertexOrder::DegreeDesc,
        budget: Budget::time(std::time::Duration::from_secs(20)),
        ..RunConfig::default()
    }
}

#[test]
fn youtube_corpus_pipeline_finds_planted_structure() {
    let s = spec(Dataset::Youtube);
    let g = s.build();
    let mut sink = CountSink::default();
    let (prune, stats) = run(
        &g,
        QueryModel::Ssfbc(s.single_params()),
        Algorithm::FairBcemPP,
        &default_cfg(),
        &mut sink,
    )
    .unwrap();
    assert!(!stats.aborted, "scaled Youtube must finish in seconds");
    assert!(sink.count > 0, "planted blocks must yield SSFBCs");
    assert!(prune.remaining_vertices() < prune.upper_before + prune.lower_before);
}

#[test]
fn youtube_corpus_bi_side_pipeline() {
    let s = spec(Dataset::Youtube);
    let g = s.build();
    let mut sink = CountSink::default();
    let (_, stats) = run(
        &g,
        QueryModel::Bsfbc(s.bi_params()),
        Algorithm::FairBcemPP,
        &default_cfg(),
        &mut sink,
    )
    .unwrap();
    assert!(!stats.aborted);
    assert!(sink.count > 0, "planted blocks must yield BSFBCs");
}

#[test]
fn fairbcem_pp_dominates_fairbcem_on_corpus() {
    // The paper's headline: FairBCEM++ explores far fewer nodes.
    let s = spec(Dataset::Youtube);
    let g = s.build();
    let mut a = CountSink::default();
    let (_, slow) = run(
        &g,
        QueryModel::Ssfbc(s.single_params()),
        Algorithm::FairBcem,
        &default_cfg(),
        &mut a,
    )
    .unwrap();
    let mut b = CountSink::default();
    let (_, fast) = run(
        &g,
        QueryModel::Ssfbc(s.single_params()),
        Algorithm::FairBcemPP,
        &default_cfg(),
        &mut b,
    )
    .unwrap();
    assert_eq!(a.count, b.count, "same result count");
    assert!(
        fast.nodes * 10 <= slow.nodes,
        "FairBCEM++ nodes {} should be >=10x below FairBCEM's {}",
        fast.nodes,
        slow.nodes
    );
}

#[test]
fn dblp_scale_pruning_is_fast_and_consistent() {
    let s = spec(Dataset::Dblp);
    let g = s.build();
    assert!(g.n_edges() > 100_000, "DBLP analog is the big one");
    let p = s.single_params();
    let f = prune(&g, QueryModel::Ssfbc(p), PruneKind::FCore);
    let c = prune(&g, QueryModel::Ssfbc(p), PruneKind::Colorful);
    assert!(c.stats.remaining_vertices() <= f.stats.remaining_vertices());
    // Pruning must preserve all results.
    let mut full = CountSink::default();
    let cfg_none = RunConfig {
        prune: PruneKind::FCore,
        ..default_cfg()
    };
    run(
        &g,
        QueryModel::Ssfbc(p),
        Algorithm::FairBcemPP,
        &cfg_none,
        &mut full,
    )
    .unwrap();
    let mut pruned = CountSink::default();
    run(
        &g,
        QueryModel::Ssfbc(p),
        Algorithm::FairBcemPP,
        &default_cfg(),
        &mut pruned,
    )
    .unwrap();
    assert_eq!(full.count, pruned.count);
}

#[test]
fn case_study_dbda_finds_fair_teams() {
    let cs = dbda(2023);
    let params = fair_biclique::config::FairParams::unchecked(3, 3, 2);
    let report =
        fair_biclique::pipeline::enumerate(&cs.graph, QueryModel::Ssfbc(params), &default_cfg());
    assert!(!report.bicliques.is_empty(), "DBDA must contain fair teams");
    for bc in &report.bicliques {
        // Senior/junior balance within delta.
        let mut tally = [0i64; 2];
        for &v in &bc.lower {
            tally[cs.graph.attr(Side::Lower, v) as usize] += 1;
        }
        assert!(tally[0] >= 3 && tally[1] >= 3);
        assert!((tally[0] - tally[1]).abs() <= 2);
        // Description renders all members.
        let text = cs.describe(bc);
        assert!(text.contains("scholar-"));
    }
}

#[test]
fn case_study_recommendation_bias_is_corrected() {
    for cs in [jobs(2023), movies(2023)] {
        // Plain CF top-5 over-represents the advantaged class.
        let mut advantaged = 0usize;
        let mut total = 0usize;
        for user in 0..cs.graph.n_upper() as VertexId {
            for rec in recommend(&cs.graph, user, 5) {
                total += 1;
                advantaged += usize::from(cs.graph.attr(Side::Lower, rec.item) == 0);
            }
        }
        assert!(total > 0);
        let share = advantaged as f64 / total as f64;
        assert!(share > 0.5, "{}: CF is biased ({share:.2})", cs.name);

        // Fair bicliques on the top-10 graph balance the classes.
        let rg = recommendation_graph(&cs.graph, 10);
        let params = fair_biclique::config::FairParams::unchecked(2, 2, 1);
        let report =
            fair_biclique::pipeline::enumerate(&rg, QueryModel::Ssfbc(params), &default_cfg());
        assert!(
            !report.bicliques.is_empty(),
            "{}: no fair bicliques",
            cs.name
        );
        for bc in &report.bicliques {
            let mut tally = [0i64; 2];
            for &v in &bc.lower {
                tally[rg.attr(Side::Lower, v) as usize] += 1;
            }
            assert!(tally[0] >= 2 && tally[1] >= 2, "{}: {bc}", cs.name);
            assert!((tally[0] - tally[1]).abs() <= 1);
        }
    }
}

#[test]
fn io_roundtrip_preserves_enumeration_results() {
    let s = spec(Dataset::Youtube);
    let g = s.build();
    let dir = std::env::temp_dir().join("fbe_e2e_io");
    std::fs::create_dir_all(&dir).unwrap();
    let ep = dir.join("g.edges");
    let up = dir.join("g.uattr");
    let lp = dir.join("g.lattr");
    bigraph::io::write_edge_list(&g, std::fs::File::create(&ep).unwrap()).unwrap();
    bigraph::io::write_attrs(&g, Side::Upper, std::fs::File::create(&up).unwrap()).unwrap();
    bigraph::io::write_attrs(&g, Side::Lower, std::fs::File::create(&lp).unwrap()).unwrap();
    let g2 = bigraph::io::load_graph(&ep, Some(&up), Some(&lp), 2, 2).unwrap();
    let mut c1 = CountSink::default();
    let mut c2 = CountSink::default();
    run(
        &g,
        QueryModel::Ssfbc(s.single_params()),
        Algorithm::FairBcemPP,
        &default_cfg(),
        &mut c1,
    )
    .unwrap();
    run(
        &g2,
        QueryModel::Ssfbc(s.single_params()),
        Algorithm::FairBcemPP,
        &default_cfg(),
        &mut c2,
    )
    .unwrap();
    assert_eq!(c1.count, c2.count);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edge_sampling_scales_results_monotonically_in_structure() {
    // Exp-5's protocol smoke test: smaller samples still run and the
    // pipelines stay consistent between algorithms.
    let s = spec(Dataset::Youtube);
    let g = s.build();
    for frac in [0.4, 0.8] {
        let sub = bigraph::subgraph::sample_edges(&g, frac, 11);
        let mut a = CountSink::default();
        let mut b = CountSink::default();
        run(
            &sub,
            QueryModel::Ssfbc(s.single_params()),
            Algorithm::FairBcem,
            &default_cfg(),
            &mut a,
        )
        .unwrap();
        run(
            &sub,
            QueryModel::Ssfbc(s.single_params()),
            Algorithm::FairBcemPP,
            &default_cfg(),
            &mut b,
        )
        .unwrap();
        assert_eq!(a.count, b.count, "frac {frac}");
    }
}
