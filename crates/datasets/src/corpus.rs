//! Scaled synthetic analogs of the paper's five benchmark graphs
//! (Table I), with their default parameters.
//!
//! Scaling protocol: vertex and edge counts are the paper's divided by
//! 64 (so the largest graph, DBLP, stays under 200k edges and a full
//! parameter sweep finishes in minutes on a laptop), side ratios and
//! mean degrees are preserved, the degree skew comes from a Chung–Lu
//! power-law (`γ ≈ 2.1–2.5` like real affiliation networks), and a
//! sprinkle of planted dense blocks recreates the community structure
//! that makes (fair) bicliques exist at the paper's default `α/β`.
//!
//! Everything is deterministic in the per-dataset seed.

use bigraph::generate::{chung_lu_power_law, plant_bicliques};
use bigraph::BipartiteGraph;
use fair_biclique::config::{FairParams, ProParams};
use serde::{Deserialize, Serialize};

/// The five benchmark datasets of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Affiliation network (`Youtube` in Table I).
    Youtube,
    /// Interaction network (`Twitter`).
    Twitter,
    /// Affiliation network (`IMDB`).
    Imdb,
    /// Feature network (`Wiki-cat`).
    WikiCat,
    /// Authorship network (`DBLP`).
    Dblp,
}

impl Dataset {
    /// All five datasets in the paper's order.
    pub const ALL: [Dataset; 5] = [
        Dataset::Youtube,
        Dataset::Twitter,
        Dataset::Imdb,
        Dataset::WikiCat,
        Dataset::Dblp,
    ];
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Dataset::Youtube => "Youtube",
            Dataset::Twitter => "Twitter",
            Dataset::Imdb => "IMDB",
            Dataset::WikiCat => "Wiki-cat",
            Dataset::Dblp => "DBLP",
        })
    }
}

/// Parses a dataset name, case-insensitively; `wiki-cat`, `wikicat`
/// and `wiki` all name [`Dataset::WikiCat`]. The CLI's `--dataset` and
/// the service's `GEN` verb both go through this.
impl std::str::FromStr for Dataset {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "youtube" => Ok(Dataset::Youtube),
            "twitter" => Ok(Dataset::Twitter),
            "imdb" => Ok(Dataset::Imdb),
            "wiki-cat" | "wikicat" | "wiki" => Ok(Dataset::WikiCat),
            "dblp" => Ok(Dataset::Dblp),
            other => Err(format!("unknown dataset {other:?}")),
        }
    }
}

/// Generation recipe plus the paper's default parameters for one
/// dataset (Table I's `α*_s, β*_s, α*_b, β*_b, δ*, θ*` columns).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Which dataset this models.
    pub dataset: Dataset,
    /// `|U|` of the scaled graph.
    pub n_upper: usize,
    /// `|V|` of the scaled graph.
    pub n_lower: usize,
    /// Edge-sample count fed to the Chung–Lu generator (realized edge
    /// count is slightly lower after deduplication).
    pub m: usize,
    /// Power-law exponent of the upper side.
    pub gamma_upper: f64,
    /// Power-law exponent of the lower side.
    pub gamma_lower: f64,
    /// Number of planted dense blocks.
    pub blocks: usize,
    /// Planted block size (upper × lower vertices).
    pub block_shape: (usize, usize),
    /// Default `(α, β)` for the single-side model (`α*_s, β*_s`).
    pub default_single: (u32, u32),
    /// Default `(α, β)` for the bi-side model (`α*_b, β*_b`).
    pub default_bi: (u32, u32),
    /// Default `δ*`.
    pub default_delta: u32,
    /// Default `θ*`.
    pub default_theta: f64,
    /// Generator seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Default single-side parameters as a [`FairParams`].
    pub fn single_params(&self) -> FairParams {
        FairParams::unchecked(
            self.default_single.0,
            self.default_single.1,
            self.default_delta,
        )
    }

    /// Default bi-side parameters as a [`FairParams`].
    pub fn bi_params(&self) -> FairParams {
        FairParams::unchecked(self.default_bi.0, self.default_bi.1, self.default_delta)
    }

    /// Default proportion single-side parameters.
    pub fn single_pro_params(&self) -> ProParams {
        ProParams::new(
            self.default_single.0,
            self.default_single.1,
            self.default_delta,
            self.default_theta,
        )
        .expect("table defaults are valid")
    }

    /// Default proportion bi-side parameters.
    pub fn bi_pro_params(&self) -> ProParams {
        ProParams::new(
            self.default_bi.0,
            self.default_bi.1,
            self.default_delta,
            self.default_theta,
        )
        .expect("table defaults are valid")
    }

    /// Build the graph (deterministic in `self.seed`).
    pub fn build(&self) -> BipartiteGraph {
        let base = chung_lu_power_law(
            self.n_upper,
            self.n_lower,
            self.m,
            self.gamma_upper,
            self.gamma_lower,
            2,
            2,
            self.seed,
        );
        plant_bicliques(
            &base,
            self.blocks,
            self.block_shape.0,
            self.block_shape.1,
            0.97,
            self.seed ^ 0x5eed_b10c,
        )
    }

    /// A quarter-scale variant (used where the paper's 24h-limit
    /// baselines would otherwise dominate bench time).
    pub fn small(&self) -> DatasetSpec {
        DatasetSpec {
            n_upper: (self.n_upper / 4).max(40),
            n_lower: (self.n_lower / 4).max(40),
            m: (self.m / 4).max(200),
            blocks: (self.blocks / 2).max(2),
            ..self.clone()
        }
    }
}

/// The spec for one dataset.
///
/// Block shapes are sized to the dataset's default parameters so the
/// planted communities can host fair bicliques:
/// `upper ≥ 2·α_b + 2` and `lower ≥ 2·β_s + 4`.
pub fn spec(dataset: Dataset) -> DatasetSpec {
    match dataset {
        // Paper: |U|=94,238 |V|=30,087 |E|=293,360; α_s=β_s=8, α_b=β_b=5.
        Dataset::Youtube => DatasetSpec {
            dataset,
            n_upper: 1473,
            n_lower: 470,
            m: 4584,
            gamma_upper: 2.3,
            gamma_lower: 2.2,
            blocks: 6,
            block_shape: (14, 22),
            default_single: (8, 8),
            default_bi: (5, 5),
            default_delta: 2,
            default_theta: 0.4,
            seed: seed_for(1),
        },
        // Paper: |U|=175,214 |V|=530,418 |E|=1,890,661; α_s=β_s=8, bi 6/7.
        Dataset::Twitter => DatasetSpec {
            dataset,
            n_upper: 2738,
            n_lower: 8288,
            m: 29541,
            gamma_upper: 2.2,
            gamma_lower: 2.4,
            blocks: 10,
            block_shape: (16, 22),
            default_single: (8, 8),
            default_bi: (6, 7),
            default_delta: 2,
            default_theta: 0.4,
            seed: seed_for(2),
        },
        // Paper: |U|=303,617 |V|=896,302 |E|=3,782,463; α_s=β_s=10, bi 6/6.
        Dataset::Imdb => DatasetSpec {
            dataset,
            n_upper: 4744,
            n_lower: 14005,
            m: 59101,
            gamma_upper: 2.2,
            gamma_lower: 2.4,
            blocks: 12,
            block_shape: (16, 26),
            default_single: (10, 10),
            default_bi: (6, 6),
            default_delta: 2,
            default_theta: 0.4,
            seed: seed_for(3),
        },
        // Paper: |U|=1,853,493 |V|=182,947 |E|=3,795,796; α_s=β_s=7, bi 6/6.
        Dataset::WikiCat => DatasetSpec {
            dataset,
            n_upper: 28961,
            n_lower: 2859,
            m: 59309,
            gamma_upper: 2.5,
            gamma_lower: 2.1,
            blocks: 12,
            block_shape: (16, 20),
            default_single: (7, 7),
            default_bi: (6, 6),
            default_delta: 2,
            default_theta: 0.4,
            seed: seed_for(4),
        },
        // Paper: |U|=1,953,085 |V|=5,624,219 |E|=12,282,059; α_s=β_s=7, bi 4/4.
        Dataset::Dblp => DatasetSpec {
            dataset,
            n_upper: 30517,
            n_lower: 87878,
            m: 191907,
            gamma_upper: 2.4,
            gamma_lower: 2.5,
            blocks: 16,
            block_shape: (12, 20),
            default_single: (7, 7),
            default_bi: (4, 4),
            default_delta: 2,
            default_theta: 0.4,
            seed: seed_for(5),
        },
    }
}

/// Per-dataset deterministic seed (stable across releases).
fn seed_for(i: u64) -> u64 {
    0xfa17_b1c1_0000_0000 | i
}

/// Specs for all five datasets.
pub fn all_specs() -> Vec<DatasetSpec> {
    Dataset::ALL.iter().map(|&d| spec(d)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::stats::graph_stats;

    #[test]
    fn dataset_names_parse_with_aliases() {
        for d in Dataset::ALL {
            assert_eq!(d.to_string().parse::<Dataset>(), Ok(d));
        }
        for alias in ["wiki-cat", "wikicat", "wiki", "WIKI"] {
            assert_eq!(alias.parse::<Dataset>(), Ok(Dataset::WikiCat), "{alias}");
        }
        assert_eq!("IMDB".parse::<Dataset>(), Ok(Dataset::Imdb));
        assert_eq!(
            "Orkut".parse::<Dataset>(),
            Err("unknown dataset \"orkut\"".to_string())
        );
    }

    #[test]
    fn all_specs_build_and_are_deterministic() {
        for s in all_specs() {
            let g1 = s.build();
            g1.validate().unwrap();
            assert_eq!(g1.n_upper(), s.n_upper, "{}", s.dataset);
            assert_eq!(g1.n_lower(), s.n_lower, "{}", s.dataset);
            let g2 = s.build();
            assert_eq!(g1.n_edges(), g2.n_edges());
        }
    }

    #[test]
    fn side_ratios_match_table_one() {
        // |U|/|V| ratios from the paper, within 5%.
        let want = [
            (Dataset::Youtube, 94238.0 / 30087.0),
            (Dataset::Twitter, 175214.0 / 530418.0),
            (Dataset::Imdb, 303617.0 / 896302.0),
            (Dataset::WikiCat, 1853493.0 / 182947.0),
            (Dataset::Dblp, 1953085.0 / 5624219.0),
        ];
        for (d, ratio) in want {
            let s = spec(d);
            let got = s.n_upper as f64 / s.n_lower as f64;
            assert!((got / ratio - 1.0).abs() < 0.05, "{d}: {got} vs {ratio}");
        }
    }

    #[test]
    fn degree_skew_present() {
        let g = spec(Dataset::Youtube).build();
        let st = graph_stats(&g);
        assert!(st.upper.max_degree as f64 > 8.0 * st.upper.mean_degree);
    }

    #[test]
    fn default_params_accessible() {
        let s = spec(Dataset::Imdb);
        assert_eq!(s.single_params().alpha, 10);
        assert_eq!(s.bi_params().beta, 6);
        assert!((s.single_pro_params().theta - 0.4).abs() < 1e-12);
        assert_eq!(s.bi_pro_params().base.delta, 2);
    }

    #[test]
    fn small_variant_shrinks() {
        let s = spec(Dataset::Dblp);
        let sm = s.small();
        assert!(sm.n_upper < s.n_upper);
        assert!(sm.m < s.m);
        sm.build().validate().unwrap();
    }
}
