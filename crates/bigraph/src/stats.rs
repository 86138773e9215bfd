//! Graph statistics: the numbers reported in Table I of the paper
//! (`|U|`, `|V|`, `|E|`, density) plus degree and attribute summaries
//! used by the experiment harness to describe the synthetic corpus.

use crate::graph::{BipartiteGraph, Side};
use serde::{Deserialize, Serialize};

/// Summary statistics for one side of a bipartite graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SideStats {
    /// Vertex count on this side.
    pub n: usize,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Vertex count per attribute value.
    pub attr_counts: Vec<usize>,
}

/// Table-I style description of a bipartite graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStats {
    /// `|U|`.
    pub n_upper: usize,
    /// `|V|`.
    pub n_lower: usize,
    /// `|E|`.
    pub n_edges: usize,
    /// `|E| / (|U|·|V|)`.
    pub density: f64,
    /// Upper-side summary.
    pub upper: SideStats,
    /// Lower-side summary.
    pub lower: SideStats,
}

/// Compute [`GraphStats`] for `g`.
pub fn graph_stats(g: &BipartiteGraph) -> GraphStats {
    GraphStats {
        n_upper: g.n_upper(),
        n_lower: g.n_lower(),
        n_edges: g.n_edges(),
        density: g.density(),
        upper: side_stats(g, Side::Upper),
        lower: side_stats(g, Side::Lower),
    }
}

fn side_stats(g: &BipartiteGraph, side: Side) -> SideStats {
    let n = g.n(side);
    let mut min_d = usize::MAX;
    let mut max_d = 0usize;
    let mut sum = 0usize;
    for v in 0..n as u32 {
        let d = g.degree(side, v);
        min_d = min_d.min(d);
        max_d = max_d.max(d);
        sum += d;
    }
    if n == 0 {
        min_d = 0;
    }
    let mut attr_counts = vec![0usize; g.n_attr_values(side) as usize];
    for &a in g.attrs(side) {
        if (a as usize) < attr_counts.len() {
            attr_counts[a as usize] += 1;
        }
    }
    SideStats {
        n,
        min_degree: min_d,
        max_degree: max_d,
        mean_degree: if n == 0 { 0.0 } else { sum as f64 / n as f64 },
        attr_counts,
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|U|={} |V|={} |E|={} density={:.2e} (deg U: {}..{} mean {:.2}; deg V: {}..{} mean {:.2})",
            self.n_upper,
            self.n_lower,
            self.n_edges,
            self.density,
            self.upper.min_degree,
            self.upper.max_degree,
            self.upper.mean_degree,
            self.lower.min_degree,
            self.lower.max_degree,
            self.lower.mean_degree,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::random_uniform;
    use crate::GraphBuilder;

    /// Degree histogram of one side: `hist[d]` = number of vertices
    /// with degree exactly `d`.
    fn degree_histogram(g: &BipartiteGraph, side: Side) -> Vec<usize> {
        let mut hist = Vec::new();
        for v in 0..g.n(side) as u32 {
            let d = g.degree(side, v);
            if hist.len() <= d {
                hist.resize(d + 1, 0);
            }
            hist[d] += 1;
        }
        hist
    }

    #[test]
    fn stats_on_known_graph() {
        let mut b = GraphBuilder::new(2, 2);
        b.set_attrs_upper(&[0, 1]);
        b.set_attrs_lower(&[0, 0, 1]);
        for (u, v) in [(0, 0), (0, 1), (0, 2), (1, 0)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let s = graph_stats(&g);
        assert_eq!(s.n_edges, 4);
        assert_eq!(s.upper.max_degree, 3);
        assert_eq!(s.upper.min_degree, 1);
        assert_eq!(s.lower.attr_counts, vec![2, 1]);
        assert!((s.upper.mean_degree - 2.0).abs() < 1e-12);
        assert!((s.density - 4.0 / 6.0).abs() < 1e-12);
        let display = s.to_string();
        assert!(display.contains("|E|=4"));
    }

    #[test]
    fn histogram_sums_to_n() {
        let g = random_uniform(30, 40, 200, 2, 2, 6);
        let h = degree_histogram(&g, Side::Lower);
        assert_eq!(h.iter().sum::<usize>(), 40);
        let hu = degree_histogram(&g, Side::Upper);
        assert_eq!(hu.iter().sum::<usize>(), 30);
    }

    #[test]
    fn empty_graph_stats() {
        let g = GraphBuilder::new(1, 1).build().unwrap();
        let s = graph_stats(&g);
        assert_eq!(s.n_edges, 0);
        assert_eq!(s.upper.min_degree, 0);
        assert_eq!(s.density, 0.0);
        assert!(degree_histogram(&g, Side::Upper).is_empty());
    }
}
