//! Head-to-head comparison of the two candidate substrates (sorted-vec
//! merge vs `u64` bitset rows) on the regimes the `Auto` policy
//! distinguishes:
//!
//! * raw pairwise intersection counting at several set widths, each
//!   width on an **independently seeded** corpus (identical warmed
//!   allocations would flatter whichever variant runs second);
//! * the dense pruned-core micro case: full `FairBCEM++` enumeration
//!   over a planted-biclique corpus after CFCore pruning, where bitset
//!   rows should clearly beat the merge;
//! * a sparse skewed case where `Auto` resolves to the merge on the
//!   raw graph but re-resolves (and usually flips to bitsets) on the
//!   pruned core.
//!
//! Run: `cargo bench --bench substrate_compare` (an id filter such as
//! `-- bitset` runs only the matching cases; see
//! [`fbe_bench::MicroBench`]).

use fair_biclique::biclique::CountSink;
use fair_biclique::config::{PruneKind, RunConfig, Substrate};
use fair_biclique::pipeline::{run, Algorithm};
use fair_biclique::prepared::QueryModel;
use fbe_bench::MicroBench;
use std::hint::black_box;

/// Deterministic splitmix64 — the bench crate carries no RNG
/// dependency, and each width below derives its own stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// An ascending set over `0..width` with ~`density` fill from `seed`.
fn random_set(width: u32, density: f64, seed: u64) -> Vec<u32> {
    let mut s = seed;
    (0..width)
        .filter(|_| (splitmix64(&mut s) as f64 / u64::MAX as f64) < density)
        .collect()
}

fn bench_intersection_widths(c: &MicroBench) {
    // Each width gets its own independently seeded corpus.
    for (width, seed) in [
        (256u32, 0xA11C_E001u64),
        (1024, 0xA11C_E002),
        (4096, 0xA11C_E003),
    ] {
        let n_rows = 64usize;
        let sets: Vec<Vec<u32>> = (0..n_rows)
            .map(|i| random_set(width, 0.5, seed ^ (i as u64).wrapping_mul(0x5851_f42d)))
            .collect();
        let refs: Vec<&[u32]> = sets.iter().map(|s| s.as_slice()).collect();
        let rows = bigraph::BitRows::from_sets(width as usize, &refs);

        c.bench_function(&format!("substrate_intersect_{width}/sorted_vec"), || {
            let mut total = 0usize;
            for i in 0..n_rows {
                for j in (i + 1)..n_rows {
                    total +=
                        bigraph::intersect_sorted_count(black_box(&sets[i]), black_box(&sets[j]));
                }
            }
            total
        });
        c.bench_function(&format!("substrate_intersect_{width}/bitset"), || {
            let mut total = 0usize;
            for i in 0..n_rows as u32 {
                for j in (i + 1)..n_rows as u32 {
                    total += bigraph::candidate::and_count(
                        black_box(rows.row(i)),
                        black_box(rows.row(j)),
                    );
                }
            }
            total
        });
    }
}

/// The dense pruned-core case: after CFCore pruning the surviving
/// planted blocks are small and dense — the bitset regime.
fn bench_dense_pruned_core(c: &MicroBench) {
    let base = bigraph::generate::random_uniform(150, 150, 1800, 2, 2, 71);
    let g = bigraph::generate::plant_bicliques(&base, 4, 12, 14, 1.0, 72);
    let params = fair_biclique::config::FairParams::unchecked(3, 2, 2);

    let c = c.samples(10);
    let mut counts = std::collections::BTreeMap::new();
    for substrate in [Substrate::SortedVec, Substrate::Bitset, Substrate::Auto] {
        let cfg = RunConfig {
            prune: PruneKind::Colorful,
            substrate,
            ..RunConfig::default()
        };
        c.bench_function(&format!("substrate_dense_pruned_core/{substrate}"), || {
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
        });
        let mut sink = CountSink::default();
        run(
            &g,
            QueryModel::Ssfbc(params),
            Algorithm::FairBcemPP,
            &cfg,
            &mut sink,
        )
        .unwrap();
        counts.insert(substrate.to_string(), sink.count);
    }
    let distinct: std::collections::BTreeSet<u64> = counts.values().copied().collect();
    assert_eq!(
        distinct.len(),
        1,
        "substrates must agree on result counts: {counts:?}"
    );
}

/// Sparse skewed case (power-law degrees, large sides). On the *raw*
/// graph `Auto` resolves to the merge (asserted below); inside the
/// pipeline the choice is re-resolved against the *pruned* core,
/// which shrinks into the bitset regime — so `Auto` adapts while the
/// explicit `sorted-vec` run shows the conservative baseline. The
/// search is node-budgeted — sparse instances can hold astronomically
/// many maximal bicliques, and a fixed budget keeps the variants on
/// the same deterministic slice of the tree.
fn bench_sparse_skewed(c: &MicroBench) {
    let g = bigraph::generate::chung_lu_power_law(3000, 3000, 9000, 2.1, 2.1, 2, 2, 73);
    assert_eq!(
        Substrate::Auto.resolve_for(&g),
        Substrate::SortedVec,
        "Auto must fall back to the merge on sparse skewed inputs"
    );
    let params = fair_biclique::config::FairParams::unchecked(2, 1, 1);
    let c = c.samples(10);
    for substrate in [Substrate::SortedVec, Substrate::Auto] {
        let cfg = RunConfig {
            prune: PruneKind::Colorful,
            substrate,
            budget: fair_biclique::config::Budget::nodes(50_000),
            ..RunConfig::default()
        };
        c.bench_function(&format!("substrate_sparse_skewed/{substrate}"), || {
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
        });
    }
}

fn main() {
    let c = MicroBench::from_args();
    bench_intersection_widths(&c);
    bench_dense_pruned_core(&c);
    bench_sparse_skewed(&c);
}
