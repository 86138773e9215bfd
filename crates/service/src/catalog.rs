//! The graph catalog: named graphs loaded once, queried many times.

use crate::protocol::GenSpec;
use crate::sync::{read_unpoisoned, write_unpoisoned};
use bigraph::mutate::MutateError;
use bigraph::{AttrValueId, BipartiteGraph, Side, VertexId};
use fair_biclique::incremental::{CoreTracker, UpdateEffect};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One resident graph plus its identity and summary statistics.
#[derive(Debug)]
pub struct GraphEntry {
    /// Catalog name.
    pub name: String,
    /// Monotonic load generation: re-`LOAD`ing a name bumps it, which
    /// changes every plan-cache key derived from the graph, so stale
    /// plans can never serve the new graph (they age out of the LRU).
    pub epoch: u64,
    /// Per-update sub-epoch within one load generation. `ADDEDGE` /
    /// `DELEDGE` / `ADDVERTEX` publish a **new** entry with the same
    /// `epoch` (so surviving plan-cache keys keep matching) and
    /// `version + 1`; readers holding the old `Arc` keep a consistent
    /// snapshot of the pre-update graph.
    pub version: u64,
    /// The graph itself (immutable once cataloged; updates swap in a
    /// new entry).
    pub graph: BipartiteGraph,
    /// Where it came from (`path` or generation spec), for `GRAPHS`.
    pub source: String,
}

impl GraphEntry {
    /// One-line summary for `GRAPHS`/`LOAD` replies.
    pub fn summary(&self) -> String {
        let g = &self.graph;
        format!(
            "{} upper={} lower={} edges={} source={} version={}",
            self.name,
            g.n_upper(),
            g.n_lower(),
            g.n_edges(),
            self.source,
            self.version
        )
    }
}

/// One single-edge/vertex mutation, as carried by the dynamic-graph
/// protocol verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert edge `(u, v)`.
    AddEdge(VertexId, VertexId),
    /// Remove edge `(u, v)`.
    DelEdge(VertexId, VertexId),
    /// Append an isolated vertex carrying `attr` to `side`.
    AddVertex(Side, AttrValueId),
}

/// Why [`GraphCatalog::update`] refused.
#[derive(Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// No graph by that name.
    NoSuchGraph(String),
    /// The CSR splice itself refused (bad endpoint, duplicate edge, …).
    Mutate(MutateError),
}

/// What one applied update did, for reply rendering and surgical plan
/// invalidation.
#[derive(Debug)]
pub struct UpdateOutcome {
    /// The freshly published entry (same epoch, `version + 1`).
    pub entry: Arc<GraphEntry>,
    /// Tracked `(α, β)` pairs whose fair core was touched — cached
    /// plans at these pairs are stale.
    pub stale_pairs: Vec<(u32, u32)>,
    /// Tracked pairs proven untouched — their plans stay resident.
    pub clean_pairs: Vec<(u32, u32)>,
    /// Id of the vertex appended by an `AddVertex` update.
    pub new_vertex: Option<VertexId>,
}

/// Thread-safe name → graph map.
#[derive(Debug, Default)]
pub struct GraphCatalog {
    graphs: RwLock<BTreeMap<String, Slot>>,
    epoch: AtomicU64,
}

/// One catalog name: the published entry, and beside it the mutable
/// state only [`GraphCatalog::update`] touches.
#[derive(Debug)]
struct Slot {
    entry: Arc<GraphEntry>,
    /// Incrementally maintained fair-core membership of `entry.graph`,
    /// one tracker per `(α, β)` that had a cached plan at an update —
    /// repaired in place on every update so plan invalidation can be
    /// judged per pair. Replacing or dropping the graph clears them.
    trackers: Vec<CoreTracker>,
}

impl GraphCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) `name`, returning the new entry.
    pub fn insert(&self, name: &str, graph: BipartiteGraph, source: String) -> Arc<GraphEntry> {
        let entry = Arc::new(GraphEntry {
            name: name.to_string(),
            // The epoch only needs to be unique per insert — the map's
            // write lock below is what publishes the entry to others.
            // lint: ordering: uniqueness, not synchronization
            epoch: self.epoch.fetch_add(1, Ordering::Relaxed),
            version: 0,
            graph,
            source,
        });
        let slot = Slot {
            entry: Arc::clone(&entry),
            trackers: Vec::new(),
        };
        write_unpoisoned(&self.graphs).insert(name.to_string(), slot);
        entry
    }

    /// Apply one mutation to `name`, publishing a new entry with the
    /// same epoch and a bumped version.
    ///
    /// `tracked` lists the `(α, β)` pairs that currently have cached
    /// plans; trackers for them (and any pair tracked by an earlier
    /// update) are repaired incrementally and classified stale/clean,
    /// so the caller can invalidate exactly the stale plans. Missing
    /// trackers are initialized on the **pre-update** graph — the state
    /// the cached plans were prepared against.
    ///
    /// The catalog write lock is held across the splice and repair so
    /// concurrent updates to one graph serialize; readers holding the
    /// old `Arc<GraphEntry>` are unaffected.
    ///
    /// The trackers are repaired in place, keeping their scratch
    /// buffers across updates. They are taken out of the graph's slot
    /// for the repair and put back only after the new entry is
    /// published. So a panic that unwinds mid-repair (the engine
    /// catches it and replies `ERR INTERNAL`) leaves the old entry
    /// published with no trackers, never a half-repaired one, and the
    /// next update rebuilds them from that entry's graph.
    pub fn update(
        &self,
        name: &str,
        update: GraphUpdate,
        tracked: &[(u32, u32)],
    ) -> Result<UpdateOutcome, UpdateError> {
        let mut map = write_unpoisoned(&self.graphs);
        let Some(slot) = map.get_mut(name) else {
            return Err(UpdateError::NoSuchGraph(name.to_string()));
        };
        let old = Arc::clone(&slot.entry);
        // Resolve the update to the mutated graph before repairing.
        enum Applied {
            Edge { add: bool, u: VertexId, v: VertexId },
            Vertex { side: Side, id: VertexId },
        }
        let (graph, applied) = match update {
            GraphUpdate::AddEdge(u, v) => (
                old.graph.with_edge(u, v).map_err(UpdateError::Mutate)?,
                Applied::Edge { add: true, u, v },
            ),
            GraphUpdate::DelEdge(u, v) => (
                old.graph.without_edge(u, v).map_err(UpdateError::Mutate)?,
                Applied::Edge { add: false, u, v },
            ),
            GraphUpdate::AddVertex(side, attr) => {
                let (g, id) = old
                    .graph
                    .with_vertex(side, attr)
                    .map_err(UpdateError::Mutate)?;
                (g, Applied::Vertex { side, id })
            }
        };
        let mut trackers = std::mem::take(&mut slot.trackers);
        for &(alpha, beta) in tracked {
            if !trackers.iter().any(|t| t.params() == (alpha, beta)) {
                trackers.push(CoreTracker::new(&old.graph, alpha, beta));
            }
        }
        let (mut stale_pairs, mut clean_pairs) = (Vec::new(), Vec::new());
        for t in &mut trackers {
            let effect: UpdateEffect = match applied {
                Applied::Edge { add: true, u, v } => t.add_edge(&graph, u, v),
                Applied::Edge { add: false, u, v } => t.remove_edge(&graph, u, v),
                Applied::Vertex { side, id } => t.add_vertex(&graph, side, id),
            };
            if effect.is_clean() {
                clean_pairs.push(t.params());
            } else {
                stale_pairs.push(t.params());
            }
        }
        let entry = Arc::new(GraphEntry {
            name: old.name.clone(),
            // Same epoch on purpose: plans proven clean must keep
            // hitting under their existing keys.
            epoch: old.epoch,
            version: old.version + 1,
            graph,
            source: old.source.clone(),
        });
        slot.entry = Arc::clone(&entry);
        slot.trackers = trackers;
        let new_vertex = match applied {
            Applied::Vertex { id, .. } => Some(id),
            Applied::Edge { .. } => None,
        };
        Ok(UpdateOutcome {
            entry,
            stale_pairs,
            clean_pairs,
            new_vertex,
        })
    }

    /// Look up `name`.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        read_unpoisoned(&self.graphs)
            .get(name)
            .map(|slot| Arc::clone(&slot.entry))
    }

    /// Remove `name`; true when it existed.
    pub fn remove(&self, name: &str) -> bool {
        write_unpoisoned(&self.graphs).remove(name).is_some()
    }

    /// Number of cataloged graphs.
    pub fn len(&self) -> usize {
        read_unpoisoned(&self.graphs).len()
    }

    /// True when no graph is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summaries in name order.
    pub fn summaries(&self) -> Vec<String> {
        read_unpoisoned(&self.graphs)
            .values()
            .map(|slot| slot.entry.summary())
            .collect()
    }
}

/// Build a graph from a `GEN` spec.
pub fn generate(spec: GenSpec) -> (BipartiteGraph, String) {
    match spec {
        GenSpec::Dataset(d) => {
            let s = fbe_datasets::corpus::spec(d);
            (s.build(), format!("gen:{d}"))
        }
        GenSpec::Uniform {
            n_upper,
            n_lower,
            m,
            seed,
            attrs,
        } => (
            bigraph::generate::random_uniform(n_upper, n_lower, m, attrs.0, attrs.1, seed),
            format!("gen:uniform:{n_upper},{n_lower},{m},{seed}"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::generate::random_uniform;

    #[test]
    fn insert_get_remove_and_epochs() {
        let c = GraphCatalog::new();
        assert!(c.is_empty());
        let g1 = c.insert("a", random_uniform(4, 4, 8, 1, 1, 0), "test".into());
        let g2 = c.insert("b", random_uniform(5, 5, 10, 1, 1, 0), "test".into());
        assert_ne!(g1.epoch, g2.epoch);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("a").unwrap().graph.n_upper(), 4);
        assert!(c.get("zzz").is_none());

        // Replacing bumps the epoch — stale plan keys stop matching.
        let g1b = c.insert("a", random_uniform(6, 6, 12, 1, 1, 0), "test".into());
        assert!(g1b.epoch > g1.epoch);
        assert_eq!(c.len(), 2);

        assert!(c.remove("a"));
        assert!(!c.remove("a"));
        assert_eq!(c.len(), 1);
        let s = c.summaries();
        assert_eq!(s.len(), 1);
        assert!(s[0].starts_with("b upper=5"));
    }

    #[test]
    fn update_publishes_new_version_same_epoch() {
        let c = GraphCatalog::new();
        let e0 = c.insert("g", random_uniform(8, 8, 20, 2, 2, 1), "test".into());
        let old_edges = e0.graph.n_edges();
        // Find a non-edge.
        let (u, v) = (0..8u32)
            .flat_map(|u| (0..8u32).map(move |v| (u, v)))
            .find(|&(u, v)| !e0.graph.has_edge(u, v))
            .expect("graph is not complete");
        let out = c
            .update("g", GraphUpdate::AddEdge(u, v), &[(1, 1)])
            .expect("update applies");
        assert_eq!(out.entry.epoch, e0.epoch, "epoch survives updates");
        assert_eq!(out.entry.version, 1);
        assert_eq!(out.entry.graph.n_edges(), old_edges + 1);
        assert_eq!(out.stale_pairs.len() + out.clean_pairs.len(), 1);
        // The old entry is untouched for readers that still hold it.
        assert_eq!(e0.graph.n_edges(), old_edges);
        assert_eq!(e0.version, 0);
        // The tracker persists into the next update without re-listing.
        let out2 = c
            .update("g", GraphUpdate::DelEdge(u, v), &[])
            .expect("delete applies");
        assert_eq!(out2.entry.version, 2);
        assert_eq!(out2.stale_pairs.len() + out2.clean_pairs.len(), 1);
        assert_eq!(out2.entry.graph.n_edges(), old_edges);
        // Vertex append reports the new id.
        let out3 = c
            .update("g", GraphUpdate::AddVertex(bigraph::Side::Lower, 1), &[])
            .expect("vertex applies");
        assert_eq!(out3.new_vertex, Some(8));
        assert!(out3.entry.summary().contains("version=3"));
        // Errors pass through.
        assert_eq!(
            c.update("nope", GraphUpdate::AddEdge(0, 0), &[])
                .unwrap_err(),
            UpdateError::NoSuchGraph("nope".into())
        );
        assert!(matches!(
            c.update("g", GraphUpdate::DelEdge(u, v), &[]).unwrap_err(),
            UpdateError::Mutate(MutateError::EdgeMissing(_, _))
        ));
    }

    #[test]
    fn replacing_or_dropping_a_graph_clears_its_trackers() {
        let c = GraphCatalog::new();
        let g = random_uniform(8, 8, 20, 2, 2, 1);
        let (u, v) = (0..8u32)
            .flat_map(|u| (0..8u32).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("graph is not complete");
        let pairs = |out: UpdateOutcome| out.stale_pairs.len() + out.clean_pairs.len();
        c.insert("g", g.clone(), "test".into());
        let out = c.update("g", GraphUpdate::AddEdge(u, v), &[(1, 1), (2, 1)]);
        assert_eq!(pairs(out.unwrap()), 2);
        // A failed splice keeps the trackers.
        assert!(c.update("g", GraphUpdate::AddEdge(u, v), &[]).is_err());
        let out = c.update("g", GraphUpdate::DelEdge(u, v), &[]);
        assert_eq!(pairs(out.unwrap()), 2);
        // Replacing the graph (LOAD / GEN / SHARD) starts untracked.
        c.insert("g", g.clone(), "test".into());
        let out = c.update("g", GraphUpdate::AddEdge(u, v), &[(1, 1)]);
        assert_eq!(pairs(out.unwrap()), 1);
        // So does a graph dropped and loaded again.
        assert!(c.remove("g"));
        c.insert("g", g, "test".into());
        let out = c.update("g", GraphUpdate::AddEdge(u, v), &[]);
        assert_eq!(pairs(out.unwrap()), 0);
    }

    #[test]
    fn update_classifies_stale_and_clean_pairs() {
        let c = GraphCatalog::new();
        // Single attribute per side: at (1,1) every non-isolated
        // vertex is in the core, so any existing edge is a core edge.
        c.insert("g", random_uniform(10, 10, 40, 1, 1, 3), "test".into());
        let e = c.get("g").expect("inserted");
        let (u, v) = e.graph.edges().next().expect("has edges");
        // (50,50) core is empty, so the same deletion is clean there.
        let out = c
            .update("g", GraphUpdate::DelEdge(u, v), &[(1, 1), (50, 50)])
            .expect("delete applies");
        assert!(out.stale_pairs.contains(&(1, 1)), "{out:?}");
        assert!(out.clean_pairs.contains(&(50, 50)), "{out:?}");
    }

    #[test]
    fn generate_builds_both_kinds() {
        let (g, src) = generate(GenSpec::Uniform {
            n_upper: 10,
            n_lower: 12,
            m: 30,
            seed: 3,
            attrs: (2, 2),
        });
        assert_eq!(g.n_upper(), 10);
        assert_eq!(g.n_edges(), 30);
        assert!(src.contains("uniform"));
        let (g, src) = generate(GenSpec::Dataset(fbe_datasets::corpus::Dataset::Youtube));
        assert!(g.n_edges() > 0);
        assert!(src.contains("Youtube"));
    }
}
