//! Result persistence and analysis: serialize enumeration output,
//! compare result sets across runs/algorithms, and audit invariants.
//!
//! Enumeration runs produce up to millions of bicliques; downstream
//! work (the paper's case studies, regression testing between
//! algorithm versions, cross-machine comparisons) needs them on disk
//! and diffable:
//!
//! * [`write_tsv`] / [`read_tsv`] — one biclique per line,
//!   `u1,u2,… \t v1,v2,…`;
//! * [`diff`] — symmetric difference of two result sets;
//! * [`summarize`] — size/balance statistics of a result set;
//! * [`count_contained_pairs`] — audits the maximality invariant: in a
//!   correct run of any *maximal* model, no result's vertex set
//!   contains another's.

use crate::biclique::Biclique;
use bigraph::{BipartiteGraph, Side, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};

/// Write bicliques as TSV: `u1,u2,…<TAB>v1,v2,…` per line.
pub fn write_tsv<W: Write>(bicliques: &[Biclique], mut w: W) -> std::io::Result<()> {
    for bc in bicliques {
        let us: Vec<String> = bc.upper.iter().map(|u| u.to_string()).collect();
        let vs: Vec<String> = bc.lower.iter().map(|v| v.to_string()).collect();
        writeln!(w, "{}\t{}", us.join(","), vs.join(","))?;
    }
    Ok(())
}

/// Read bicliques written by [`write_tsv`] (blank lines and `#`
/// comments are skipped; sides are re-sorted defensively).
pub fn read_tsv<R: Read>(r: R) -> Result<Vec<Biclique>, String> {
    let mut out = Vec::new();
    for (i, line) in BufReader::new(r).lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: {e}", i + 1))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split('\t');
        let upper = parse_side(parts.next(), i + 1)?;
        let lower = parse_side(parts.next(), i + 1)?;
        out.push(Biclique::new(upper, lower));
    }
    Ok(out)
}

fn parse_side(tok: Option<&str>, line: usize) -> Result<Vec<VertexId>, String> {
    let tok = tok.ok_or(format!("line {line}: expected two tab-separated sides"))?;
    if tok.is_empty() {
        return Ok(Vec::new());
    }
    tok.split(',')
        .map(|s| {
            s.trim()
                .parse::<VertexId>()
                .map_err(|e| format!("line {line}: {e}"))
        })
        .collect()
}

/// Sort a result set into the canonical deterministic order
/// (lexicographic on `(upper, lower)`).
///
/// This is the ordering [`crate::config::RunConfig::sorted`] applies:
/// because parallel and serial runs produce identical result *sets*,
/// canonically ordered output is byte-identical across thread counts.
pub fn canonical_order(bicliques: &mut [Biclique]) {
    bicliques.sort_unstable();
}

/// Symmetric difference of two result sets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiffReport {
    /// Results present only in the first set.
    pub only_a: Vec<Biclique>,
    /// Results present only in the second set.
    pub only_b: Vec<Biclique>,
    /// Number of results in both.
    pub common: usize,
}

impl DiffReport {
    /// True when both sets are identical.
    pub fn is_empty(&self) -> bool {
        self.only_a.is_empty() && self.only_b.is_empty()
    }
}

/// Compare two result sets (order-insensitive, duplicate-insensitive).
pub fn diff(a: &[Biclique], b: &[Biclique]) -> DiffReport {
    let sa: BTreeSet<&Biclique> = a.iter().collect();
    let sb: BTreeSet<&Biclique> = b.iter().collect();
    DiffReport {
        only_a: sa.difference(&sb).map(|&x| x.clone()).collect(),
        only_b: sb.difference(&sa).map(|&x| x.clone()).collect(),
        common: sa.intersection(&sb).count(),
    }
}

/// Statistics of a result set (the kind of numbers the paper's case
/// studies report about their findings).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSummary {
    /// Number of bicliques.
    pub count: usize,
    /// Smallest/largest total vertex count.
    pub min_size: usize,
    /// Largest total vertex count.
    pub max_size: usize,
    /// Mean `|L|`.
    pub mean_upper: f64,
    /// Mean `|R|`.
    pub mean_lower: f64,
    /// Mean absolute difference between lower-side attribute counts
    /// and their per-biclique mean (0 = perfectly balanced everywhere).
    pub mean_lower_imbalance: f64,
    /// Histogram of total sizes: `(size, count)` sorted by size.
    pub size_histogram: Vec<(usize, usize)>,
}

/// Summarize a result set against its graph (for attribute balance).
pub fn summarize(g: &BipartiteGraph, bicliques: &[Biclique]) -> ResultSummary {
    let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
    let mut min_size = usize::MAX;
    let mut max_size = 0usize;
    let mut sum_u = 0usize;
    let mut sum_l = 0usize;
    let mut imbalance = 0.0f64;
    let mut hist = std::collections::BTreeMap::<usize, usize>::new();
    for bc in bicliques {
        let size = bc.len();
        min_size = min_size.min(size);
        max_size = max_size.max(size);
        sum_u += bc.upper.len();
        sum_l += bc.lower.len();
        *hist.entry(size).or_insert(0) += 1;
        let mut counts = vec![0f64; n_attrs];
        for &v in &bc.lower {
            counts[g.attr(Side::Lower, v) as usize] += 1.0;
        }
        let mean = counts.iter().sum::<f64>() / n_attrs as f64;
        imbalance += counts.iter().map(|c| (c - mean).abs()).sum::<f64>() / n_attrs as f64;
    }
    let n = bicliques.len();
    ResultSummary {
        count: n,
        min_size: if n == 0 { 0 } else { min_size },
        max_size,
        mean_upper: if n == 0 { 0.0 } else { sum_u as f64 / n as f64 },
        mean_lower: if n == 0 { 0.0 } else { sum_l as f64 / n as f64 },
        mean_lower_imbalance: if n == 0 { 0.0 } else { imbalance / n as f64 },
        size_histogram: hist.into_iter().collect(),
    }
}

/// Count ordered pairs `(i, j)` where biclique `i`'s vertex sets are
/// strict subsets of `j`'s on both sides.
///
/// For the plain *maximal biclique* model this must be zero. Fair
/// biclique results may legitimately contain nested pairs (a fair
/// subset of a larger fair biclique's side can be maximal in its own
/// right only if the larger one is not fair — so nesting across
/// *different* parameter runs is normal, within one run it indicates a
/// maximality bug). `O(n²·size)`; intended for audits, not hot paths.
pub fn count_contained_pairs(bicliques: &[Biclique]) -> usize {
    let mut n = 0usize;
    for (i, a) in bicliques.iter().enumerate() {
        for (j, b) in bicliques.iter().enumerate() {
            if i == j {
                continue;
            }
            if a.len() < b.len()
                && bigraph::is_sorted_subset(&a.upper, &b.upper)
                && bigraph::is_sorted_subset(&a.lower, &b.lower)
            {
                n += 1;
            }
        }
    }
    n
}

/// Group bicliques by their lower-side attribute signature
/// `(count_0, count_1, …)` — the case studies report "how many results
/// have k seniors and m juniors".
pub fn group_by_lower_signature(
    g: &BipartiteGraph,
    bicliques: &[Biclique],
) -> Vec<(Vec<u32>, usize)> {
    let n_attrs = (g.n_attr_values(Side::Lower) as usize).max(1);
    let mut map = std::collections::BTreeMap::<Vec<u32>, usize>::new();
    for bc in bicliques {
        let mut counts = vec![0u32; n_attrs];
        for &v in &bc.lower {
            counts[g.attr(Side::Lower, v) as usize] += 1;
        }
        *map.entry(counts).or_insert(0) += 1;
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairParams, RunConfig};
    use crate::pipeline::enumerate;
    use crate::prepared::QueryModel;
    use bigraph::generate::random_uniform;

    fn sample() -> Vec<Biclique> {
        vec![
            Biclique::new(vec![0, 1], vec![2, 3]),
            Biclique::new(vec![5], vec![0, 1, 2]),
        ]
    }

    #[test]
    fn tsv_roundtrip() {
        let bcs = sample();
        let mut buf = Vec::new();
        write_tsv(&bcs, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("0,1\t2,3"));
        let back = read_tsv(buf.as_slice()).unwrap();
        assert_eq!(back, bcs);
    }

    #[test]
    fn tsv_skips_comments_and_sorts() {
        let data = "# header\n\n3,1\t9,2\n";
        let back = read_tsv(data.as_bytes()).unwrap();
        assert_eq!(back, vec![Biclique::new(vec![1, 3], vec![2, 9])]);
        assert!(read_tsv("bogus\n".as_bytes()).is_err());
        assert!(read_tsv("1,2\n".as_bytes()).is_err()); // missing tab
    }

    #[test]
    fn diff_reports_symmetric_difference() {
        let a = sample();
        let mut b = sample();
        b.pop();
        b.push(Biclique::new(vec![9], vec![9]));
        let d = diff(&a, &b);
        assert_eq!(d.common, 1);
        assert_eq!(d.only_a, vec![Biclique::new(vec![5], vec![0, 1, 2])]);
        assert_eq!(d.only_b, vec![Biclique::new(vec![9], vec![9])]);
        assert!(!d.is_empty());
        assert!(diff(&a, &a).is_empty());
    }

    fn balanced_block_graph() -> bigraph::BipartiteGraph {
        // Deterministic: a balanced 4x6 block over random background.
        let base = random_uniform(20, 20, 80, 2, 2, 3);
        let mut b = bigraph::GraphBuilder::new(2, 2);
        for (u, v) in base.edges() {
            b.add_edge(u, v);
        }
        let mut ua = base.attrs(Side::Upper).to_vec();
        let mut la = base.attrs(Side::Lower).to_vec();
        for u in 0..4u32 {
            for v in 0..6u32 {
                b.add_edge(u, v);
            }
        }
        for (i, a) in la.iter_mut().take(6).enumerate() {
            *a = (i % 2) as u16;
        }
        for (i, a) in ua.iter_mut().take(4).enumerate() {
            *a = (i % 2) as u16;
        }
        b.set_attrs_upper(&ua);
        b.set_attrs_lower(&la);
        b.build().unwrap()
    }

    #[test]
    fn summary_statistics() {
        let g = balanced_block_graph();
        let report = enumerate(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(2, 2, 1)),
            &RunConfig::default(),
        );
        let s = summarize(&g, &report.bicliques);
        assert_eq!(s.count, report.bicliques.len());
        assert!(s.count > 0);
        assert!(s.min_size <= s.max_size);
        assert!(s.mean_upper >= 2.0, "alpha floor");
        // Fairness bound: per-biclique imbalance can be at most delta/2
        // away from the mean for two attributes.
        assert!(s.mean_lower_imbalance <= 0.5 + 1e-9);
        let total: usize = s.size_histogram.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, s.count);
    }

    #[test]
    fn summary_of_empty() {
        let g = random_uniform(4, 4, 4, 2, 2, 1);
        let s = summarize(&g, &[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max_size, 0);
        assert!(s.size_histogram.is_empty());
    }

    #[test]
    fn containment_audit() {
        let nested = vec![
            Biclique::new(vec![0, 1], vec![0, 1, 2]),
            Biclique::new(vec![0], vec![0, 1]),
        ];
        assert_eq!(count_contained_pairs(&nested), 1);
        assert_eq!(count_contained_pairs(&sample()), 0);
    }

    #[test]
    fn maximal_biclique_results_have_no_containment() {
        use crate::biclique::CollectSink;
        use crate::config::{Budget, VertexOrder};
        let g = random_uniform(12, 12, 60, 1, 1, 9);
        let mut sink = CollectSink::default();
        crate::mbea::maximal_bicliques(
            &g,
            1,
            1,
            VertexOrder::DegreeDesc,
            Budget::UNLIMITED,
            crate::config::Substrate::Auto,
            &mut sink,
        );
        assert!(sink.bicliques.len() > 3);
        assert_eq!(count_contained_pairs(&sink.bicliques), 0);
    }

    #[test]
    fn signature_grouping() {
        let g = balanced_block_graph();
        let report = enumerate(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(2, 2, 1)),
            &RunConfig::default(),
        );
        let groups = group_by_lower_signature(&g, &report.bicliques);
        let total: usize = groups.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, report.bicliques.len());
        for (sig, _) in &groups {
            // Every signature respects the fairness constraints.
            assert!(crate::fairset::is_fair(sig, 2, 1), "{sig:?}");
        }
    }
}
