//! Maximum (largest) fair biclique search.
//!
//! The paper's related work motivates *maximum* biclique search
//! (\[17\]–\[20\]) next to enumeration; this module provides the fair
//! analog: the single largest fair biclique of any of the four models
//! under a size metric. It is one output mode of the one enumeration
//! path — [`crate::prepared::PreparedQuery::answer`] in
//! [`crate::prepared::ResultMode::Maximum`] streams into per-worker
//! best-so-far [`MaxSink`]s and merges them — exact, and cheap
//! whenever enumeration itself is feasible.

use crate::biclique::{Biclique, BicliqueSink};
use bigraph::VertexId;
use serde::{Deserialize, Serialize};

/// What "largest" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SizeMetric {
    /// Total vertex count `|L| + |R|`.
    #[default]
    Vertices,
    /// Edge count `|L| · |R|` (bicliques are complete).
    Edges,
}

impl SizeMetric {
    fn score(&self, upper: &[VertexId], lower: &[VertexId]) -> u64 {
        match self {
            SizeMetric::Vertices => (upper.len() + lower.len()) as u64,
            SizeMetric::Edges => upper.len() as u64 * lower.len() as u64,
        }
    }
}

/// Sink retaining the best biclique under a metric (ties broken
/// lexicographically so results are deterministic).
#[derive(Debug, Clone)]
pub struct MaxSink {
    metric: SizeMetric,
    /// Best result so far.
    pub best: Option<Biclique>,
    best_score: u64,
    /// Total results observed.
    pub seen: u64,
}

impl MaxSink {
    /// New empty sink.
    pub fn new(metric: SizeMetric) -> Self {
        MaxSink {
            metric,
            best: None,
            best_score: 0,
            seen: 0,
        }
    }
}

impl BicliqueSink for MaxSink {
    fn emit(&mut self, upper: &[VertexId], lower: &[VertexId]) {
        self.seen += 1;
        let score = self.metric.score(upper, lower);
        let better = match &self.best {
            None => true,
            Some(b) => {
                score > self.best_score
                    || (score == self.best_score
                        && (upper, lower) < (b.upper.as_slice(), b.lower.as_slice()))
            }
        };
        if better {
            self.best = Some(Biclique {
                upper: upper.to_vec(),
                lower: lower.to_vec(),
            });
            self.best_score = score;
        }
    }
}

/// Merge per-worker best-so-far sinks into one: the `(score,
/// lexicographic)` tie-break is a total order, so the merged best is
/// the one a single sink would have kept over the same emissions.
pub(crate) fn merge_max(metric: SizeMetric, sinks: impl IntoIterator<Item = MaxSink>) -> MaxSink {
    let mut merged = MaxSink::new(metric);
    let mut seen = 0u64;
    for s in sinks {
        seen += s.seen;
        if let Some(b) = s.best {
            merged.emit(&b.upper, &b.lower);
        }
    }
    merged.seen = seen;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FairParams, RunConfig};
    use crate::obs::SpanRecorder;
    use crate::pipeline::RunReport;
    use crate::prepared::{PreparedQuery, QueryModel, ResultMode};
    use crate::verify::oracle;
    use bigraph::generate::random_uniform;
    use bigraph::BipartiteGraph;

    fn answer_max(prepared: &PreparedQuery, metric: SizeMetric) -> RunReport {
        let mode = ResultMode::Maximum(metric);
        prepared.answer(mode, &RunConfig::default(), &mut SpanRecorder::disabled())
    }

    fn max_of(g: &BipartiteGraph, model: QueryModel, metric: SizeMetric) -> Option<Biclique> {
        let cfg = RunConfig::default();
        let prepared = PreparedQuery::prepare(g, model, cfg.prune, cfg.substrate);
        answer_max(&prepared, metric).bicliques.pop()
    }

    fn oracle_max(
        set: &std::collections::BTreeSet<Biclique>,
        metric: SizeMetric,
    ) -> Option<Biclique> {
        set.iter()
            .map(|b| (metric.score(&b.upper, &b.lower), b.clone()))
            .fold(None, |acc: Option<(u64, Biclique)>, (s, b)| match acc {
                None => Some((s, b)),
                Some((bs, bb)) => {
                    if s > bs
                        || (s == bs
                            && (b.upper.clone(), b.lower.clone())
                                < (bb.upper.clone(), bb.lower.clone()))
                    {
                        Some((s, b))
                    } else {
                        Some((bs, bb))
                    }
                }
            })
            .map(|(_, b)| b)
    }

    #[test]
    fn matches_oracle_max_on_random_graphs() {
        for seed in 0..15u64 {
            let g = random_uniform(8, 10, 34, 2, 2, seed);
            let params = FairParams::unchecked(2, 1, 1);
            let all = oracle(&g, QueryModel::Ssfbc(params));
            for metric in [SizeMetric::Vertices, SizeMetric::Edges] {
                let got = max_of(&g, QueryModel::Ssfbc(params), metric);
                let want = oracle_max(&all, metric);
                assert_eq!(got, want, "seed {seed} metric {metric:?}");
            }
        }
    }

    #[test]
    fn bi_side_max_matches_oracle() {
        for seed in 0..8u64 {
            let g = random_uniform(7, 8, 26, 2, 2, seed);
            let params = FairParams::unchecked(1, 1, 1);
            let all = oracle(&g, QueryModel::Bsfbc(params));
            let got = max_of(&g, QueryModel::Bsfbc(params), SizeMetric::Vertices);
            assert_eq!(got, oracle_max(&all, SizeMetric::Vertices), "seed {seed}");
        }
    }

    #[test]
    fn none_when_infeasible() {
        let g = random_uniform(6, 6, 10, 2, 2, 1);
        let params = FairParams::unchecked(6, 6, 0);
        let cfg = RunConfig::default();
        let prepared =
            PreparedQuery::prepare(&g, QueryModel::Ssfbc(params), cfg.prune, cfg.substrate);
        let got = answer_max(&prepared, SizeMetric::Vertices);
        assert!(got.bicliques.is_empty());
        assert!(!got.stats.aborted);
        assert_eq!(prepared.prune_stats().remaining_vertices(), 0);
    }

    #[test]
    fn metric_scores() {
        assert_eq!(SizeMetric::Vertices.score(&[0, 1], &[0, 1, 2]), 5);
        assert_eq!(SizeMetric::Edges.score(&[0, 1], &[0, 1, 2]), 6);
    }
}
