//! Golden snapshot tests: three small fixed corpora (uniform,
//! power-law, planted-biclique) with committed expected sorted TSV
//! output. Every miner × substrate × thread-count combination must
//! reproduce its snapshot **byte-for-byte** — any drift in the
//! enumeration order contract, the canonical ordering, or the
//! substrate's exactness fails loudly here.
//!
//! Regenerate after an intentional change with:
//! `BLESS_GOLDEN=1 cargo test -p fbe-integration --test substrate_golden`

use bigraph::generate::{chung_lu_power_law, plant_bicliques, random_uniform};
use bigraph::BipartiteGraph;
use fair_biclique::config::{FairParams, ProParams, RunConfig, Substrate};
use fair_biclique::maximum::SizeMetric;
use fair_biclique::pipeline::enumerate;
use fair_biclique::prepared::QueryModel;
use fair_biclique::results::write_tsv;
use fbe_integration::maximum_of;
use std::path::PathBuf;

const SUBSTRATES: [Substrate; 3] = [Substrate::SortedVec, Substrate::Bitset, Substrate::Auto];
const THREADS: [usize; 2] = [1, 4];

fn corpora() -> Vec<(&'static str, BipartiteGraph)> {
    vec![
        ("uniform", random_uniform(20, 22, 130, 2, 2, 42)),
        (
            "powerlaw",
            chung_lu_power_law(26, 26, 170, 2.2, 2.2, 2, 2, 43),
        ),
        (
            "planted",
            plant_bicliques(&random_uniform(30, 30, 120, 2, 2, 44), 2, 5, 6, 1.0, 45),
        ),
    ]
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.tsv"))
}

/// Compare `got` against the committed snapshot (or write it under
/// `BLESS_GOLDEN=1`).
fn check(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BLESS_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(got, want, "{name}: output diverged from committed snapshot");
}

fn tsv(bicliques: &[fair_biclique::biclique::Biclique]) -> String {
    let mut buf = Vec::new();
    write_tsv(bicliques, &mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

fn cfg(substrate: Substrate, threads: usize) -> RunConfig {
    RunConfig {
        substrate,
        threads,
        sorted: true,
        ..RunConfig::default()
    }
}

#[test]
fn golden_enumeration_snapshots() {
    let params = FairParams::unchecked(2, 1, 1);
    let bi_params = FairParams::unchecked(1, 1, 1);
    let pro = ProParams::new(1, 1, 2, 0.35).unwrap();
    for (corpus, g) in corpora() {
        for substrate in SUBSTRATES {
            for threads in THREADS {
                let c = cfg(substrate, threads);
                let tag = format!("{substrate}/{threads}t");
                let ss = enumerate(&g, QueryModel::Ssfbc(params), &c);
                assert!(!ss.stats.aborted);
                check(&format!("{corpus}_ssfbc"), &tsv(&ss.bicliques));
                let bs = enumerate(&g, QueryModel::Bsfbc(bi_params), &c);
                check(&format!("{corpus}_bsfbc"), &tsv(&bs.bicliques));
                let ps = enumerate(&g, QueryModel::Pssfbc(pro), &c);
                check(&format!("{corpus}_pssfbc"), &tsv(&ps.bicliques));
                let pb = enumerate(&g, QueryModel::Pbsfbc(pro), &c);
                check(&format!("{corpus}_pbsfbc"), &tsv(&pb.bicliques));
                // Bless mode writes each snapshot several times (once
                // per combination) — identical content by the
                // differential guarantee, which the read mode then
                // certifies byte-for-byte for every combination.
                let _ = tag;
            }
        }
    }
}

#[test]
fn golden_maximum_snapshots() {
    let params = FairParams::unchecked(2, 1, 1);
    for (corpus, g) in corpora() {
        for substrate in SUBSTRATES {
            for threads in THREADS {
                let c = cfg(substrate, threads);
                let best_ss = maximum_of(&g, QueryModel::Ssfbc(params), SizeMetric::Vertices, &c);
                let best_bi = maximum_of(&g, QueryModel::Bsfbc(params), SizeMetric::Vertices, &c);
                let render = |b: &Option<fair_biclique::biclique::Biclique>| match b {
                    Some(b) => tsv(std::slice::from_ref(b)),
                    None => "none\n".to_string(),
                };
                check(&format!("{corpus}_max_ssfbc"), &render(&best_ss));
                check(&format!("{corpus}_max_bsfbc"), &render(&best_bi));
            }
        }
    }
}
