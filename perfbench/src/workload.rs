//! The four workloads: their graphs, set-up warm-up, and seeded
//! request streams.
//!
//! Every stream is a sequence of *decks*: a fixed multiset of requests
//! shuffled by the seeded generator. A run always completes whole
//! decks, so the mix of request kinds (and with it the medians and
//! the tail) is the same on every seed; only the order changes.

use bigraph::{BipartiteGraph, Side, VertexId};
use fair_biclique::config::{FairParams, ProParams};
use fair_biclique::incremental::CoreTracker;
use fair_biclique::prepared::QueryModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf-skewed collect/count mix over more plan keys than the cache holds.
    ServeMix,
    /// Long count-only enumerations on warmed plans, at 1 and 2 threads.
    EnumHeavy,
    /// Reads at four tracked `(α, β)` pairs interleaved with edge edits.
    UpdateMix,
    /// A coordinator over two in-process shard servers.
    Sharded,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::ServeMix,
        Workload::EnumHeavy,
        Workload::UpdateMix,
        Workload::Sharded,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve-mix",
            Workload::EnumHeavy => "enum-heavy",
            Workload::UpdateMix => "update-mix",
            Workload::Sharded => "sharded",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeMix => {
                "protocol, server, result formatting, sort, plan cache and cold prepare dominate; \
                 48 Zipf-skewed plan keys overflow the 32-entry plan cache"
            }
            Workload::EnumHeavy => {
                "walker, expanders and the parallel engine take over 95% of the time; \
                 protocol and plan-cache changes should move nothing"
            }
            Workload::UpdateMix => {
                "edge edits beside reads exercise catalog/mutate/incremental repair and plan \
                 invalidation"
            }
            Workload::Sharded => "the only workload through coordinator fan-out, decode and merge",
        }
    }

    /// Shard servers behind the front server (0: the front serves alone).
    pub fn shards(self) -> usize {
        match self {
            Workload::Sharded => 2,
            _ => 0,
        }
    }

    /// The graphs the workload generates, in `GEN` order.
    pub fn graphs(self) -> Vec<GraphSpec> {
        let g = |name, gen| GraphSpec { name, gen };
        match self {
            Workload::ServeMix | Workload::UpdateMix => vec![g("yt", "youtube")],
            // Small graphs on purpose: the working set stays within a
            // core's L2, so cache pressure from other tenants of a
            // shared host moves the figures less (with dblp they moved
            // by a quarter between sets of runs minutes apart).
            Workload::EnumHeavy => vec![g("un", "uniform:300,300,9000,7"), g("yt", "youtube")],
            Workload::Sharded => vec![g("sh", "uniform:600,600,1400,11")],
        }
    }

    /// True when the timed stream never prepares a plan, so cold-plan
    /// latency is taken from the warm-up queries that prepare the plans
    /// again after the graphs are dropped and regenerated.
    pub fn cold_from_warmup(self) -> bool {
        matches!(self, Workload::EnumHeavy | Workload::Sharded)
    }
}

/// What an `ENUM` returns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Collect results, with `limit=` or the service's default cap.
    Collect(Option<u64>),
    /// `count-only`.
    Count,
}

/// One `ENUM` request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Index into the workload's graph list.
    pub graph: usize,
    /// Model and parameters.
    pub model: QueryModel,
    /// Output mode.
    pub mode: Mode,
    /// `threads=`.
    pub threads: usize,
}

impl Query {
    /// The protocol line on graph `graph_name`.
    pub fn line(&self, graph_name: &str) -> String {
        let mut s = self.key(graph_name);
        if self.threads > 1 {
            s.push_str(&format!(" threads={}", self.threads));
        }
        s
    }

    /// The line without `threads=`: thread count changes neither the
    /// results nor the plan, so references and the t=1/t=2 speed-up
    /// pairing key on this.
    pub fn key(&self, graph_name: &str) -> String {
        let mut s = self.head(graph_name);
        match self.mode {
            Mode::Collect(Some(k)) => s.push_str(&format!(" limit={k}")),
            Mode::Collect(None) => {}
            Mode::Count => s.push_str(" count-only"),
        }
        s
    }

    /// The line a coordinator forwards to its shards for this query
    /// (explicit result budget and substrate), so a shard can be asked
    /// the same question directly.
    pub fn shard_line(&self, graph_name: &str) -> String {
        let mut s = self.head(graph_name);
        if self.threads > 1 {
            s.push_str(&format!(" threads={}", self.threads));
        }
        match self.mode {
            Mode::Collect(k) => s.push_str(&format!(
                " limit={} substrate=auto",
                k.unwrap_or(crate::verify::DEFAULT_RESULT_LIMIT)
            )),
            Mode::Count => s.push_str(" substrate=auto count-only"),
        }
        s
    }

    /// `ENUM <graph> <model> alpha= beta= delta= [theta=]`.
    fn head(&self, graph_name: &str) -> String {
        let p = self.model.base();
        let mut s = format!(
            "ENUM {graph_name} {} alpha={} beta={} delta={}",
            self.model.name().to_ascii_lowercase(),
            p.alpha,
            p.beta,
            p.delta
        );
        if let Some(theta) = self.model.theta() {
            s.push_str(&format!(" theta={theta}"));
        }
        s
    }
}

/// A request of the stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// A query.
    Enum(Query),
    /// `ADDEDGE` (`add`) or `DELEDGE` on graph `graph`.
    Edit {
        /// Index into the workload's graph list.
        graph: usize,
        /// Insert (true) or delete.
        add: bool,
        /// Upper endpoint.
        u: VertexId,
        /// Lower endpoint.
        v: VertexId,
    },
}

/// A request plus what verification needs to know about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// The request.
    pub op: Op,
    /// Graph state the request runs against: 0 is the generated graph,
    /// `i + 1` is it plus edit-pool edge `i`.
    pub state: u32,
    /// Edge count after an edit.
    pub edges_after: usize,
}

impl Req {
    /// A query against the generated graph.
    pub fn query(q: Query) -> Req {
        Req {
            op: Op::Enum(q),
            state: 0,
            edges_after: 0,
        }
    }

    /// The protocol line.
    pub fn line(&self, graphs: &[GraphSpec]) -> String {
        match self.op {
            Op::Enum(q) => q.line(graphs[q.graph].name),
            Op::Edit { graph, add, u, v } => {
                let verb = if add { "ADDEDGE" } else { "DELEDGE" };
                format!("{verb} {} {u} {v}", graphs[graph].name)
            }
        }
    }
}

/// A graph the workload generates with `GEN`.
#[derive(Debug, Clone, Copy)]
pub struct GraphSpec {
    /// Catalog name.
    pub name: &'static str,
    /// `GEN` spec.
    pub gen: &'static str,
}

impl GraphSpec {
    /// The `GEN` line.
    pub fn line(&self) -> String {
        format!("GEN {} {}", self.name, self.gen)
    }
}

/// Distinct add + delete pairs in the update probe.
const PROBE_PAIRS: usize = 64;

/// A workload made concrete: graphs, warm-up, and deck generator.
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Generated graphs.
    pub graphs: Vec<GraphSpec>,
    /// One query per plan the stream uses, sent during set-up; each
    /// prepares its plan (`limit=1` or count-only keep it cheap).
    pub warmup: Vec<Query>,
    /// The fixed deck of queries (all workloads but update-mix).
    deck: Vec<Query>,
    /// update-mix: the four tracked reads.
    reads: Vec<Query>,
    /// update-mix: edit pool over graph 0 (upper, lower).
    pub pool: Vec<(VertexId, VertexId)>,
    /// update-mix: the tracked pairs each pool edge makes stale.
    pool_stale: Vec<Vec<(u32, u32)>>,
    /// Edge count of graph 0 as generated.
    base_edges: usize,
}

fn fair(a: u32, b: u32, d: u32) -> FairParams {
    FairParams::new(a, b, d).expect("benchmark parameters are valid")
}

fn pro(a: u32, b: u32, d: u32) -> ProParams {
    ProParams::new(a, b, d, 0.4).expect("benchmark parameters are valid")
}

fn q(graph: usize, model: QueryModel, mode: Mode, threads: usize) -> Query {
    Query {
        graph,
        model,
        mode,
        threads,
    }
}

impl Spec {
    /// Build the workload. `graph0` is graph 0 as generated (update-mix
    /// derives its edit pool from its fair cores).
    pub fn new(workload: Workload, graph0: &BipartiteGraph) -> Spec {
        let graphs = workload.graphs();
        let mut spec = Spec {
            workload,
            graphs,
            warmup: Vec::new(),
            deck: Vec::new(),
            reads: Vec::new(),
            pool: Vec::new(),
            pool_stale: Vec::new(),
            base_edges: graph0.n_edges(),
        };
        match workload {
            Workload::ServeMix => {
                let keys = serve_mix_keys();
                spec.deck = zipf_deck(&keys, SERVE_MIX_DECK);
                // Least popular first, so the 32 hottest plans are the
                // ones the cache holds when the stream starts.
                spec.warmup = keys.iter().rev().map(|k| warm(*k)).collect();
            }
            Workload::EnumHeavy => {
                let heavy = [
                    (0, QueryModel::Ssfbc(fair(3, 2, 1))),
                    (0, QueryModel::Pssfbc(pro(3, 2, 1))),
                    (1, QueryModel::Bsfbc(fair(5, 5, 2))),
                ];
                for (g, m) in heavy {
                    spec.warmup.push(q(g, m, Mode::Collect(Some(1)), 1));
                    for t in [1, 2] {
                        spec.deck.push(q(g, m, Mode::Count, t));
                    }
                }
                // A seventh, cheapest request: with an odd deck the
                // median falls in the middle of one query's samples,
                // not on the boundary between two.
                spec.deck
                    .push(q(1, QueryModel::Bsfbc(fair(5, 5, 2)), Mode::Count, 2));
            }
            Workload::UpdateMix => {
                // The last read is a heavy one (~20 ms): only the rare
                // edit inside every core invalidates it, so it runs
                // (cold) twice per deck and is never a filler read. It
                // sets the tail, well clear of millisecond jitter.
                spec.reads = vec![
                    q(0, QueryModel::Ssfbc(fair(8, 8, 2)), Mode::Collect(None), 1),
                    q(0, QueryModel::Ssfbc(fair(10, 8, 2)), Mode::Collect(None), 1),
                    q(0, QueryModel::Bsfbc(fair(5, 8, 2)), Mode::Collect(None), 1),
                    q(0, QueryModel::Ssfbc(fair(9, 6, 1)), Mode::Count, 1),
                ];
                spec.warmup = spec.reads.iter().map(|r| warm(*r)).collect();
                let pairs = tracked_pairs(&spec.reads);
                // Half the edits touch a tracked core: seven only the
                // outermost (5,8) core, one the innermost (10,8) core
                // and so all four nested cores.
                let mut pool = Vec::new();
                for (stale, n) in [
                    (&[(5, 8)][..], UPDATE_OUTER),
                    (&pairs[..], UPDATE_INNER),
                    (&[][..], UPDATE_CLEAN),
                ] {
                    edits_with_effect(graph0, &pairs, stale, n, &mut pool);
                }
                spec.pool = pool.iter().map(|&(u, v, _)| (u, v)).collect();
                spec.pool_stale = pool.into_iter().map(|(_, _, s)| s).collect();
            }
            Workload::Sharded => {
                let params = [
                    (1, 1, 1),
                    (1, 1, 2),
                    (1, 2, 1),
                    (1, 2, 2),
                    (1, 3, 1),
                    (1, 3, 2),
                    (2, 1, 1),
                    (2, 1, 2),
                ];
                for (a, b, d) in params {
                    let m = QueryModel::Ssfbc(fair(a, b, d));
                    // Count-only warm-up: a coordinator's `limit=1`
                    // answer depends on which shard streams first.
                    spec.warmup.push(q(0, m, Mode::Count, 1));
                    spec.deck.push(q(0, m, Mode::Collect(None), 1));
                    spec.deck.push(q(0, m, Mode::Collect(None), 1));
                    spec.deck.push(q(0, m, Mode::Count, 1));
                }
            }
        }
        spec
    }

    /// The next deck of the stream, shuffled by `rng`.
    pub fn deck(&self, rng: &mut StdRng) -> Vec<Req> {
        if self.workload != Workload::UpdateMix {
            let mut d: Vec<Req> = self.deck.iter().map(|q| Req::query(*q)).collect();
            d.shuffle(rng);
            return d;
        }
        // Per pool edge: add it, read, delete it, read again: at least
        // two reads each time, covering every pair the edge makes
        // stale (all four for an edge inside the innermost core), so
        // each block re-prepares what it invalidated: every block
        // starts with all four plans cached, and the number of cold
        // reads per deck does not depend on the order.
        let mut order: Vec<usize> = (0..self.pool.len()).collect();
        order.shuffle(rng);
        let mut d = Vec::with_capacity(order.len() * 6);
        for i in order {
            let (u, v) = self.pool[i];
            let mut keys: Vec<usize> = (0..self.reads.len())
                .filter(|&k| self.pool_stale[i].contains(&pair(&self.reads[k])))
                .collect();
            let light = self.reads.len() - 1;
            for k in (0..light).cycle().skip(i % light) {
                if keys.len() >= 2 {
                    break;
                }
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            let state = i as u32 + 1;
            let read = |k: usize, state| Req {
                state,
                ..Req::query(self.reads[k])
            };
            d.push(edit(0, u, v, true, state, self.base_edges + 1));
            d.extend(keys.iter().map(|&k| read(k, state)));
            d.push(edit(0, u, v, false, 0, self.base_edges));
            d.extend(keys.iter().map(|&k| read(k, 0)));
        }
        d
    }

    /// Edit pairs sent between the timed decks on workloads whose
    /// stream has no edits: `graph` is the graph they mutate (as served), and
    /// `pairs` the `(α, β)` pairs whose cores the server tracks on it.
    pub fn probe(graph: &BipartiteGraph, pairs: &[(u32, u32)], graph_index: usize) -> Vec<Req> {
        let edges = graph.n_edges();
        let mut pool = Vec::new();
        edits_with_effect(graph, pairs, &[], PROBE_PAIRS, &mut pool);
        pool.into_iter()
            .flat_map(|(u, v, _)| {
                [
                    edit(graph_index, u, v, true, 0, edges + 1),
                    edit(graph_index, u, v, false, 0, edges),
                ]
            })
            .collect()
    }

    /// `(α, β)` pairs of the warm-up plans on graph `g`.
    pub fn warm_pairs(&self, g: usize) -> Vec<(u32, u32)> {
        let on_g: Vec<Query> = self
            .warmup
            .iter()
            .filter(|q| q.graph == g)
            .copied()
            .collect();
        tracked_pairs(&on_g)
    }
}

fn edit(graph: usize, u: VertexId, v: VertexId, add: bool, state: u32, edges_after: usize) -> Req {
    Req {
        op: Op::Edit { graph, add, u, v },
        state,
        edges_after,
    }
}

/// The set-up query that prepares `k`'s plan cheaply.
fn warm(k: Query) -> Query {
    Query {
        mode: Mode::Collect(Some(1)),
        threads: 1,
        ..k
    }
}

fn pair(q: &Query) -> (u32, u32) {
    (q.model.base().alpha, q.model.base().beta)
}

fn tracked_pairs(qs: &[Query]) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = qs.iter().map(pair).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Requests per serve-mix deck.
const SERVE_MIX_DECK: usize = 240;

/// update-mix edit pool: edges touching the outermost core only, the
/// innermost core (and so every core), and no core.
const UPDATE_OUTER: usize = 7;
const UPDATE_INNER: usize = 1;
const UPDATE_CLEAN: usize = 8;

/// The 48 serve-mix plan keys in popularity order. Ranks 2, 3, 6, 10,
/// …, 42 are count-only keys at parameters with few results (~30% of
/// requests); the rest collect up to the default 1000-result cap.
fn serve_mix_keys() -> Vec<Query> {
    let collect_pairs: [(&str, [(u32, u32); 6]); 3] = [
        ("ssfbc", [(4, 8), (6, 8), (8, 8), (10, 8), (5, 6), (9, 6)]),
        ("pssfbc", [(4, 8), (6, 8), (8, 8), (10, 8), (5, 6), (9, 6)]),
        ("bsfbc", [(4, 8), (5, 8), (6, 8), (6, 6), (5, 6), (4, 6)]),
    ];
    let count_pairs: [(&str, [(u32, u32); 2]); 3] = [
        ("ssfbc", [(4, 10), (8, 10)]),
        ("pssfbc", [(4, 10), (8, 10)]),
        ("bsfbc", [(4, 10), (5, 10)]),
    ];
    let model = |m: &str, a, b, d| match m {
        "ssfbc" => QueryModel::Ssfbc(fair(a, b, d)),
        "pssfbc" => QueryModel::Pssfbc(pro(a, b, d)),
        _ => QueryModel::Bsfbc(fair(a, b, d)),
    };
    // Round-robin over models so every popularity band mixes them.
    let mut collect = Vec::new();
    for i in 0..6 {
        for d in [1, 2] {
            for (m, pairs) in &collect_pairs {
                let (a, b) = pairs[i];
                collect.push(q(0, model(m, a, b, d), Mode::Collect(None), 1));
            }
        }
    }
    let mut count = Vec::new();
    for i in 0..2 {
        for d in [1, 2] {
            for (m, pairs) in &count_pairs {
                let (a, b) = pairs[i];
                count.push(q(0, model(m, a, b, d), Mode::Count, 1));
            }
        }
    }
    let count_ranks = [2, 3, 6, 10, 14, 18, 22, 26, 30, 34, 38, 42];
    let (mut collect, mut count) = (collect.into_iter(), count.into_iter());
    (1..=collect_pairs.len() * 12 + count_pairs.len() * 4)
        .map(|rank| {
            if count_ranks.contains(&rank) {
                count.next()
            } else {
                collect.next()
            }
            .expect("12 count and 36 collect keys")
        })
        .collect()
}

/// A deck of `n` requests over `keys` (popularity order) with Zipf
/// (s = 1) frequencies; every key appears at least once.
fn zipf_deck(keys: &[Query], n: usize) -> Vec<Query> {
    let total: f64 = (1..=keys.len()).map(|r| 1.0 / r as f64).sum();
    keys.iter()
        .enumerate()
        .flat_map(|(i, k)| {
            let copies = ((n as f64 / (i + 1) as f64 / total).round() as usize).max(1);
            std::iter::repeat_n(*k, copies)
        })
        .collect()
}

/// An edit-pool edge `(upper, lower)` and the tracked pairs its
/// insertion and deletion make stale.
pub type PoolEdge = (VertexId, VertexId, Vec<(u32, u32)>);

/// Append to `pool` up to `n` non-edges `(u, v)` of `g` (not already
/// in `pool`) whose insertion followed by deletion makes exactly the
/// tracked `pairs` in `stale` stale, as the service's core trackers
/// judge it. Candidates are scanned in id order: both endpoints in the
/// core of the last pair of `stale`, or, for clean edits, vertices of
/// degree at most one. Each upper vertex is used once.
pub fn edits_with_effect(
    g: &BipartiteGraph,
    pairs: &[(u32, u32)],
    stale: &[(u32, u32)],
    n: usize,
    pool: &mut Vec<PoolEdge>,
) {
    let trackers: Vec<CoreTracker> = pairs
        .iter()
        .map(|&(a, b)| CoreTracker::new(g, a, b))
        .collect();
    let (cand_u, cand_v): (Vec<VertexId>, Vec<VertexId>) = match stale.last() {
        Some(&(a, b)) => {
            let t = CoreTracker::new(g, a, b);
            (
                (0..g.n_upper() as VertexId)
                    .filter(|&u| t.in_core(Side::Upper, u))
                    .collect(),
                (0..g.n_lower() as VertexId)
                    .filter(|&v| t.in_core(Side::Lower, v))
                    .collect(),
            )
        }
        None => (
            (0..g.n_upper() as VertexId)
                .filter(|&u| g.degree(Side::Upper, u) <= 1)
                .collect(),
            (0..g.n_lower() as VertexId)
                .filter(|&v| g.degree(Side::Lower, v) <= 1)
                .collect(),
        ),
    };
    let mut found = 0;
    let mut tries = 0;
    'next_u: for &u in &cand_u {
        if pool.iter().any(|p| p.0 == u) {
            continue;
        }
        for &v in &cand_v {
            if g.has_edge(u, v) {
                continue;
            }
            tries += 1;
            if tries > 20_000 {
                break 'next_u;
            }
            let Ok(plus) = g.with_edge(u, v) else {
                continue;
            };
            let mut effect: Vec<(u32, u32)> = trackers
                .iter()
                .filter(|t| {
                    let mut t = (*t).clone();
                    let added = t.add_edge(&plus, u, v);
                    let removed = t.remove_edge(g, u, v);
                    !(added.is_clean() && removed.is_clean())
                })
                .map(|t| t.params())
                .collect();
            effect.sort_unstable();
            if effect == stale {
                pool.push((u, v, effect));
                found += 1;
                if found == n {
                    return;
                }
                continue 'next_u;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::BTreeSet;

    fn youtube() -> BipartiteGraph {
        fbe_service::catalog::generate(fbe_service::protocol::GenSpec::Dataset(
            fbe_datasets::corpus::Dataset::Youtube,
        ))
        .0
    }

    #[test]
    fn update_script_edits_are_valid_and_stationary() {
        let g = youtube();
        let spec = Spec::new(Workload::UpdateMix, &g);
        assert_eq!(spec.pool.len(), UPDATE_OUTER + UPDATE_INNER + UPDATE_CLEAN);
        let touching = spec.pool_stale.iter().filter(|s| !s.is_empty()).count();
        assert_eq!(
            touching,
            UPDATE_OUTER + UPDATE_INNER,
            "half the edits touch a core"
        );
        let base: BTreeSet<(VertexId, VertexId)> = g.edges().collect();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut edges, mut adds, mut reads) = (base.clone(), 0, 0);
        for _ in 0..5 {
            for r in spec.deck(&mut rng) {
                match r.op {
                    Op::Edit {
                        add: true, u, v, ..
                    } => {
                        assert!(edges.insert((u, v)), "duplicate add ({u},{v})");
                        adds += 1;
                    }
                    Op::Edit {
                        add: false, u, v, ..
                    } => {
                        assert!(edges.remove(&(u, v)), "delete of a missing edge ({u},{v})");
                    }
                    Op::Enum(_) => {
                        // The state a read is verified against is the
                        // graph it actually runs on.
                        let extra: Vec<_> = edges.difference(&base).copied().collect();
                        let expect = match r.state {
                            0 => vec![],
                            s => vec![spec.pool[s as usize - 1]],
                        };
                        assert_eq!(extra, expect);
                        reads += 1;
                    }
                }
                if let Op::Edit { .. } = r.op {
                    assert_eq!(r.edges_after, edges.len());
                }
            }
            assert_eq!(edges, base, "every add is undone within the deck");
        }
        let per_edit = reads as f64 / (2 * adds) as f64;
        assert!(
            (2.0..=3.0).contains(&per_edit),
            "about one edit per two reads: {per_edit}"
        );
    }

    #[test]
    fn serve_mix_deck_overflows_the_cache_with_a_third_count_only() {
        let g = youtube();
        let spec = Spec::new(Workload::ServeMix, &g);
        assert_eq!(spec.warmup.len(), 48);
        let keys: BTreeSet<String> = spec.deck.iter().map(|q| q.key("yt")).collect();
        assert_eq!(keys.len(), 48);
        assert!(keys.len() > fbe_service::ServiceConfig::default().plan_cache_capacity);
        let count = spec.deck.iter().filter(|q| q.mode == Mode::Count).count();
        let share = count as f64 / spec.deck.len() as f64;
        assert!((0.25..0.35).contains(&share), "count-only share {share}");
        // Same seed, same deck; decks are permutations of one multiset.
        let (a, b) = (
            spec.deck(&mut StdRng::seed_from_u64(5)),
            spec.deck(&mut StdRng::seed_from_u64(5)),
        );
        assert_eq!(a, b);
        let mut c: Vec<String> = spec
            .deck(&mut StdRng::seed_from_u64(6))
            .iter()
            .map(|r| r.line(&spec.graphs))
            .collect();
        let mut a: Vec<String> = a.iter().map(|r| r.line(&spec.graphs)).collect();
        assert_ne!(a, c);
        a.sort();
        c.sort();
        assert_eq!(a, c);
    }

    #[test]
    fn query_lines_parse_back() {
        let g = youtube();
        for w in Workload::ALL {
            let spec = Spec::new(w, &g);
            for q in spec.deck.iter().chain(&spec.warmup).chain(&spec.reads) {
                let name = spec.graphs[q.graph].name;
                for line in [q.line(name), q.shard_line(name)] {
                    match fbe_service::protocol::parse_request(&line) {
                        Ok(fbe_service::protocol::Request::Enum { model, opts, .. }) => {
                            assert_eq!(model, q.model, "{line}");
                            assert_eq!(opts.threads, q.threads, "{line}");
                        }
                        other => panic!("{line}: {other:?}"),
                    }
                }
            }
        }
    }
}
