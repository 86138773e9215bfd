//! # fair-biclique — fairness-aware maximal biclique enumeration
//!
//! A complete Rust implementation of *"Fairness-aware Maximal Biclique
//! Enumeration on Bipartite Graphs"* (Yin, Zhang, Zhang, Li, Wang —
//! ICDE 2023, arXiv:2303.03705):
//!
//! * **Models** — single-side fair bicliques (SSFBC), bi-side fair
//!   bicliques (BSFBC), and their proportion variants (PSSFBC /
//!   PBSFBC); see [`config::FairParams`] and [`config::ProParams`].
//! * **Pruning** — fair α-β core ([`fcore`], Algorithm 1), colorful
//!   fair α-β core ([`cfcore`], Algorithm 2), and the bi-side variants
//!   BFCore / BCFCore ([`bfcore`]), run through [`pipeline::prune`]
//!   for the model's side.
//! * **Enumeration** — the branch-and-bound `FairBCEM` ([`fairbcem`],
//!   Algorithm 5), the combinatorial `FairBCEM++` ([`fairbcem_pp`],
//!   Algorithm 6), the bi-side `BFairBCEM` / `BFairBCEM++`
//!   ([`bfairbcem`], Algorithm 9), the naive baselines `NSF` / `BNSF`
//!   ([`naive`]), and plain maximal biclique enumeration ([`mbea`]).
//!   The proportion miners `FairBCEMPro++` / `BFairBCEMPro++` are the
//!   same two expansion steps with the model's ratio threshold `θ`.
//! * **One execution path** — the four `++` miners share one pipeline
//!   (prune, walk the maximal bicliques with `|L| ≥ α`, expand each),
//!   so they share one driver: a [`prepared::PreparedQuery`] prunes
//!   and resolves the candidate plan once, and
//!   [`prepared::PreparedQuery::stream`] runs the walk — on the calling
//!   thread, or split at its root across workers ([`parallel`]) when
//!   [`config::RunConfig::threads`] is above 1 — into per-worker sinks.
//!   Collecting, counting, top-k and maximum search ([`maximum`]) are
//!   sink choices; the CLI, the query service, the benches and
//!   [`pipeline::enumerate`] all run this path.
//! * **One model selector** — a [`prepared::QueryModel`] names the
//!   model and its parameters, and each job has one function over it:
//!   [`pipeline::prune`], [`pipeline::enumerate`], [`pipeline::run`]
//!   (which also runs the paper's baselines, picked by a
//!   [`pipeline::Algorithm`]), [`memory::measure`] and
//!   [`verify::oracle`].
//! * **Verification** — brute-force oracles ([`verify`]) used by the
//!   test suite to certify every enumerator on thousands of random
//!   graphs.
//! * **Extensions** — an adaptive bitset candidate substrate for the
//!   enumeration hot path ([`config::RunConfig::substrate`]; see
//!   [`bigraph::candidate`]), incremental fair-core maintenance for
//!   dynamic graphs ([`incremental`]), and span tracing ([`obs`]).
//!
//! ## Quickstart
//!
//! ```
//! use bigraph::GraphBuilder;
//! use fair_biclique::prelude::*;
//!
//! // A 3x4 complete bipartite block: attrs U = [0,1,0], V = [0,0,1,1].
//! // `new` takes the attribute-domain sizes (2 values per side); the
//! // vertex sets grow on demand from the attrs and edges below.
//! let mut b = GraphBuilder::new(2, 2);
//! b.set_attrs_upper(&[0, 1, 0]);
//! b.set_attrs_lower(&[0, 0, 1, 1]);
//! for u in 0..3 {
//!     for v in 0..4 {
//!         b.add_edge(u, v);
//!     }
//! }
//! let g = b.build().unwrap();
//!
//! let params = FairParams::new(2, 1, 1).unwrap();
//! let report = enumerate(&g, QueryModel::Ssfbc(params), &RunConfig::default());
//! // The whole block is the unique single-side fair biclique.
//! assert_eq!(report.bicliques.len(), 1);
//! assert_eq!(report.bicliques[0].upper, vec![0, 1, 2]);
//! assert_eq!(report.bicliques[0].lower, vec![0, 1, 2, 3]);
//! ```
//!
//! The fair side is always [`bigraph::Side::Lower`] (the paper's
//! convention); to mine with the upper side fair, call
//! [`bigraph::BipartiteGraph::flipped`] first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfairbcem;
pub mod bfcore;
pub mod biclique;
pub mod cfcore;
pub mod config;
pub mod fairbcem;
pub mod fairbcem_pp;
pub mod fairset;
pub mod fcore;
pub mod incremental;
pub mod maximum;
pub mod mbea;
pub mod memory;
pub mod naive;
pub mod obs;
pub mod ordering;
pub mod parallel;
pub mod pipeline;
pub mod prepared;
pub mod results;
pub mod verify;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::biclique::{Biclique, BicliqueSink, CollectSink, CountSink, TopKSink};
    pub use crate::config::{
        Budget, CancelToken, FairParams, ProParams, PruneKind, RunConfig, StopReason, Substrate,
        VertexOrder,
    };
    pub use crate::obs::{Span, SpanRecorder};
    pub use crate::pipeline::{enumerate, Algorithm, RunReport};
    pub use crate::prepared::{PreparedQuery, QueryModel};
}

pub use prelude::*;
