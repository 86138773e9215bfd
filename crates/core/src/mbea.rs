//! Maximal biclique enumeration (the `MBEA++`-style core of
//! Algorithm 6, and the plain `MBC` baseline of Exp-4).
//!
//! The `Walker` visits every maximal biclique `(L, R)` of the graph
//! with `|L| ≥ min_l`, exactly once, using the batch-absorption trick
//! of Zhang et al. \[6\]: when expanding candidate `x`, every remaining
//! candidate fully connected to the shrunken `L'` joins `R'`
//! immediately, and the ones with no neighbors outside `L'`
//! (`N(v) = L'`) are *consumed* — removed from the candidate pool for
//! all sibling branches, since every maximal biclique containing them
//! lives in the current subtree.
//!
//! Correctness of the `min_l` cut: a candidate whose connectivity to
//! `L'` drops below `min_l` can never again be fully connected to a
//! descendant `L'' `(connectivity only shrinks while `|L''| ≥ min_l`),
//! so dropping it breaks no closure and loses no qualifying biclique.

use crate::biclique::{BicliqueSink, EnumStats};
use crate::config::{Budget, BudgetClock, VertexOrder};
use crate::fairset::AttrCounts;
use crate::ordering::side_order;
use bigraph::candidate::{AdjOps, CandidateOps, CandidatePlan, Substrate};
use bigraph::{BipartiteGraph, Side, VertexId};

/// How to prune branches on the reachable size of `R`.
#[derive(Clone, Copy)]
pub(crate) enum RBound<'a> {
    /// Plain size bound: `|R'| + |P'| ≥ min_r`.
    Size(usize),
    /// The fair bound of Algorithm 6 line 29: every lower attribute
    /// must reach `beta` using `R' ∪ P'`.
    AttrBeta {
        /// Lower-side attribute of each vertex.
        attrs: &'a [bigraph::AttrValueId],
        /// Per-attribute minimum `β`.
        beta: u32,
    },
}

impl RBound<'_> {
    fn admits(&self, r: &[VertexId], r_counts: &AttrCounts, p_new: &[VertexId]) -> bool {
        match self {
            RBound::Size(min_r) => r.len() + p_new.len() >= *min_r,
            RBound::AttrBeta { attrs, beta, .. } => {
                let mut reach = r_counts.clone();
                for &v in p_new {
                    reach.inc(attrs[v as usize]);
                }
                reach.as_slice().iter().all(|&c| c >= *beta)
            }
        }
    }
}

/// One independent unit of enumeration work: the subtree rooted at
/// search state `(L, R, P, Q)`.
///
/// Tasks are exactly the states the serial walker passes to its
/// recursive calls, so executing every spawned task visits exactly
/// the serial tree — same maximal bicliques, same node count. The
/// duplicate-suppression set `q` makes tasks independent: the
/// fully-connected-`Q` check kills exactly the subtrees the serial
/// algorithm never enters.
#[derive(Debug)]
pub(crate) struct BranchTask {
    /// Upper side `L` of the subtree root (sorted).
    pub(crate) l: Vec<VertexId>,
    /// Fair-side vertices `R` chosen so far (discovery order).
    pub(crate) r: Vec<VertexId>,
    /// Remaining candidates, in processing order.
    pub(crate) p: Vec<VertexId>,
    /// Expanded/consumed vertices (duplicate suppression).
    pub(crate) q: Vec<VertexId>,
}

impl BranchTask {
    /// Copy-on-split snapshot of a live branch frame — the **only**
    /// place branch state is cloned. The serial walker mutates pooled
    /// frames in place and restores on backtrack; only when the root is
    /// split does the engine need an owned `(L, R, P, Q)`, and the
    /// snapshot is byte-identical to the state the serial recursion
    /// would have passed down, so the Q-seeding correctness argument
    /// of [`crate::parallel`] is untouched.
    pub(crate) fn snapshot(
        l: &[VertexId],
        r: &[VertexId],
        p: &[VertexId],
        q: &[VertexId],
    ) -> BranchTask {
        BranchTask {
            l: l.to_vec(),
            r: r.to_vec(),
            p: p.to_vec(),
            q: q.to_vec(),
        }
    }
}

/// The in-place branch state of one enumeration-tree level: the
/// `(L, P, Q)` vectors the walker mutates and restores, plus the
/// per-level scratch (`consumed`, sorted-`R` view). Frames are pooled
/// on the [`Walker`] and recycled across siblings and levels, so the
/// steady-state walk allocates nothing — capacity grown on the deepest
/// path so far is reused by every later branch.
#[derive(Debug, Default)]
struct BranchFrame {
    /// `L` of this level (sorted).
    l: Vec<VertexId>,
    /// Remaining candidates in processing order. Consumed vertices are
    /// compacted out of the *unprocessed suffix* only; the processed
    /// prefix is never read again, so it is left in place instead of
    /// shifting the whole vector per branch.
    p: Vec<VertexId>,
    /// Duplicate-suppression set `Q`, extended in place as candidates
    /// are expanded or consumed (the undo is structural: the frame is
    /// dropped back into the pool when the level returns).
    q: Vec<VertexId>,
    /// Per-branch consumed set `C` (scratch, survives the recursion).
    consumed: Vec<VertexId>,
    /// Sorted view of `R` for the visit callback (scratch).
    r_sorted: Vec<VertexId>,
}

/// The whole-graph root task under `order`.
pub(crate) fn root_task(g: &BipartiteGraph, order: VertexOrder) -> BranchTask {
    BranchTask {
        l: (0..g.n_upper() as VertexId).collect(),
        r: Vec::new(),
        p: side_order(g, Side::Lower, order),
        q: Vec::new(),
    }
}

/// Reusable maximal-biclique walker over [`BranchTask`]s.
///
/// A parallel worker keeps one `Walker` for its whole run: the clock
/// (possibly drawing from a shared budget) and the statistics
/// accumulate across every task it executes.
pub(crate) struct Walker<'a> {
    g: &'a BipartiteGraph,
    min_l: usize,
    rbound: RBound<'a>,
    attrs: &'a [bigraph::AttrValueId],
    /// Candidate-set substrate for all `L ∩ N(·)` work (lower-side
    /// rows; see [`bigraph::candidate`]).
    ops: AdjOps<'a>,
    clock: BudgetClock,
    visited: u64,
    cur_bytes: usize,
    peak_bytes: usize,
    /// Recycled [`BranchFrame`]s: one live frame per recursion level,
    /// at most max-depth-so-far frames pooled. Makes the steady-state
    /// walk allocation-free.
    pool: Vec<BranchFrame>,
}

impl<'a> Walker<'a> {
    pub(crate) fn new(
        g: &'a BipartiteGraph,
        min_l: usize,
        rbound: RBound<'a>,
        ops: AdjOps<'a>,
        clock: BudgetClock,
    ) -> Self {
        assert!(min_l >= 1, "min_l must be positive");
        Walker {
            g,
            min_l,
            rbound,
            attrs: g.attrs(Side::Lower),
            ops,
            clock,
            visited: 0,
            cur_bytes: 0,
            peak_bytes: 0,
            pool: Vec::new(),
        }
    }

    /// Statistics accumulated over every task run so far. `emitted`
    /// counts *visited maximal bicliques* (drivers overwrite it with
    /// their own emission counts).
    pub(crate) fn stats(&self) -> EnumStats {
        EnumStats {
            nodes: self.clock.nodes,
            emitted: self.visited,
            aborted: self.clock.exhausted,
            stop: self.clock.stop_reason(),
            peak_search_bytes: self.peak_bytes,
            ..EnumStats::default()
        }
    }

    /// Execute `task`: to completion when `spawn` is `None`; otherwise
    /// only its top level, handing each child subtree to `spawn`
    /// instead of recursing (how the engine splits the root task).
    pub(crate) fn run(
        &mut self,
        task: BranchTask,
        visit: &mut dyn FnMut(&[VertexId], &[VertexId]),
        spawn: Option<&mut dyn FnMut(BranchTask)>,
    ) {
        let n_attrs = (self.g.n_attr_values(Side::Lower) as usize).max(1);
        let mut r = task.r;
        let mut r_counts = AttrCounts::of(&r, self.attrs, n_attrs);
        // Approximate the ancestor frames a split-off task inherits.
        // The root, the only task with an empty `R`, starts at zero,
        // matching the serial walk.
        let seed = if r.is_empty() {
            0
        } else {
            (task.l.len() + task.p.len() + task.q.len() + r.len()) * std::mem::size_of::<VertexId>()
        };
        self.cur_bytes += seed;
        // Move the task's owned state into a frame; the pooled scratch
        // vectors ride along.
        let fr = BranchFrame {
            l: task.l,
            p: task.p,
            q: task.q,
            ..self.pool.pop().unwrap_or_default()
        };
        let fr = self.level(fr, &mut r, &mut r_counts, visit, spawn);
        self.pool.push(fr);
        self.cur_bytes -= seed;
    }

    /// `BackTrackFBCEM++` skeleton: one level of the enumeration tree.
    ///
    /// The frame `fr` owns this level's `(L, P, Q)` and is mutated in
    /// place: `P` is consumed via a cursor (consumed vertices are
    /// merged out of the unprocessed suffix), `Q` grows in place, and
    /// the per-branch child state is built into a single recycled
    /// child frame instead of fresh vectors. `R` stays the classic
    /// push/restore undo stack. Children either recurse (serial) or
    /// become [`BranchTask`] snapshots (`spawn` mode) — the spawned
    /// state is bit-identical to the recursive call's arguments.
    ///
    /// Returns `fr` (contents spent) so the caller can recycle it.
    fn level(
        &mut self,
        mut fr: BranchFrame,
        r: &mut Vec<VertexId>,
        r_counts: &mut AttrCounts,
        visit: &mut dyn FnMut(&[VertexId], &[VertexId]),
        mut spawn: Option<&mut dyn FnMut(BranchTask)>,
    ) -> BranchFrame {
        // The sibling-shared child frame: filled per branch, moved into
        // the recursion, and recycled back through the return value.
        let mut child = self.pool.pop().unwrap_or_default();
        let mut pi = 0;

        while pi < fr.p.len() {
            if !self.clock.tick() {
                break;
            }
            let x = fr.p[pi];
            self.ops.intersect_into(&fr.l, x, &mut child.l);

            if child.l.len() < self.min_l {
                // Cannot lead to a qualifying biclique; retire x. The
                // cursor skips it — the processed prefix is dead.
                fr.q.push(x);
                pi += 1;
                continue;
            }

            // Stage L' once: the Q-maximality and absorption loops
            // below count many rows against it.
            self.ops.load(&child.l);

            // Maximality against Q: a fully-connected Q vertex means
            // this closed biclique was already enumerated elsewhere.
            let mut flag = true;
            child.q.clear();
            for &u in &fr.q {
                let c = self.ops.loaded_count(u);
                if c == child.l.len() {
                    flag = false;
                    break;
                }
                if c > 0 {
                    child.q.push(u);
                }
            }

            // Consumed set C: x plus absorbed vertices with no
            // neighbors outside L'. Lives on `fr` so it survives the
            // recursion (which consumes `child`).
            fr.consumed.clear();
            fr.consumed.push(x);
            if flag {
                let pushed_base = r.len();
                r.push(x);
                r_counts.inc(self.attrs[x as usize]);

                child.p.clear();
                for &v in &fr.p[pi + 1..] {
                    let c = self.ops.loaded_count(v);
                    if c == child.l.len() {
                        // Absorb: fully connected to L'.
                        r.push(v);
                        r_counts.inc(self.attrs[v as usize]);
                        if self.ops.degree(v) == c {
                            fr.consumed.push(v);
                        }
                    } else if c >= self.min_l {
                        child.p.push(v);
                    }
                }

                // (L', R') is a maximal biclique with |L'| >= min_l.
                fr.r_sorted.clear();
                fr.r_sorted.extend_from_slice(r);
                fr.r_sorted.sort_unstable();
                self.visited += 1;
                visit(&child.l, &fr.r_sorted);

                if !child.p.is_empty() && self.rbound.admits(r, r_counts, &child.p) {
                    match spawn.as_deref_mut() {
                        Some(sp) => sp(BranchTask::snapshot(&child.l, r, &child.p, &child.q)),
                        None => {
                            let frame = (child.l.len() + child.p.len() + child.q.len())
                                * std::mem::size_of::<VertexId>();
                            self.cur_bytes += frame;
                            self.peak_bytes = self.peak_bytes.max(self.cur_bytes);
                            child = self.level(child, r, r_counts, visit, None);
                            self.cur_bytes -= frame;
                        }
                    }
                }

                // Restore R.
                while r.len() > pushed_base {
                    let v = r.pop().expect("restore");
                    r_counts.dec(self.attrs[v as usize]);
                }
                if self.clock.exhausted {
                    break;
                }
            }

            // P <- P - C; Q <- Q ∪ C. x itself sits at the cursor, so
            // only the absorbed-consumed tail needs compacting out of
            // the unprocessed suffix; `consumed[1..]` is a subsequence
            // of `p[pi + 1..]` in identical order, so one merge pass
            // suffices (the old retain scanned C per element).
            fr.q.push(x);
            if fr.consumed.len() > 1 {
                let mut w = pi + 1;
                let mut ci = 1;
                for ri in pi + 1..fr.p.len() {
                    let v = fr.p[ri];
                    if ci < fr.consumed.len() && fr.consumed[ci] == v {
                        ci += 1;
                        fr.q.push(v);
                    } else {
                        fr.p[w] = v;
                        w += 1;
                    }
                }
                fr.p.truncate(w);
            }
            pi += 1;
            if self.clock.exhausted {
                break;
            }
        }

        self.pool.push(child);
        fr
    }
}

/// Enumerate all maximal bicliques with `|L| ≥ min_l` and `|R| ≥ min_r`
/// (the paper's `MBC` counts in Fig. 6 use this with
/// `min_l = α, min_r = 2β` / `min_l = 2α, min_r = 2β`) on the given
/// candidate substrate (`Auto` picks adaptively; results are identical
/// either way). Each biclique is emitted exactly once, `L` and `R`
/// sorted; when the budget runs out, a correct subset has been emitted.
pub fn maximal_bicliques(
    g: &BipartiteGraph,
    min_l: usize,
    min_r: usize,
    order: VertexOrder,
    budget: Budget,
    substrate: Substrate,
    sink: &mut dyn BicliqueSink,
) -> EnumStats {
    let min_l = min_l.max(1);
    let min_r = min_r.max(1);
    let plan = CandidatePlan::build(g, substrate, false);
    let mut walker = Walker::new(
        g,
        min_l,
        RBound::Size(min_r),
        plan.ops(g, Side::Lower),
        budget.start(),
    );
    let mut emitted = 0u64;
    let mut results_clock = budget.start();
    walker.run(
        root_task(g, order),
        &mut |l, r| {
            if r.len() >= min_r && results_clock.try_result() {
                sink.emit(l, r);
                emitted += 1;
            }
        },
        None,
    );
    let mut stats = walker.stats();
    stats.emitted = emitted;
    results_clock.settle(&mut stats);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biclique::{Biclique, CollectSink};
    use crate::verify::oracle_maximal_bicliques;
    use bigraph::generate::random_uniform;
    use bigraph::GraphBuilder;
    use std::collections::BTreeSet;

    fn run(
        g: &BipartiteGraph,
        min_l: usize,
        min_r: usize,
        order: VertexOrder,
    ) -> BTreeSet<Biclique> {
        let mut sink = CollectSink::default();
        let stats = maximal_bicliques(
            g,
            min_l,
            min_r,
            order,
            Budget::UNLIMITED,
            Substrate::Auto,
            &mut sink,
        );
        assert!(!stats.aborted);
        let set: BTreeSet<Biclique> = sink.bicliques.iter().cloned().collect();
        assert_eq!(set.len(), sink.bicliques.len(), "no duplicates");
        assert_eq!(stats.emitted as usize, set.len());
        set
    }

    #[test]
    fn block_plus_pendant() {
        let mut b = GraphBuilder::new(1, 1);
        for u in 0..3 {
            for v in 0..4 {
                b.add_edge(u, v);
            }
        }
        b.add_edge(3, 4);
        let g = b.build().unwrap();
        let got = run(&g, 1, 1, VertexOrder::DegreeDesc);
        assert_eq!(got, oracle_maximal_bicliques(&g, 1, 1));
        assert_eq!(got.len(), 2);
        let got22 = run(&g, 2, 2, VertexOrder::IdAsc);
        assert_eq!(got22.len(), 1);
    }

    #[test]
    fn matches_oracle_on_random_graphs() {
        for seed in 0..25u64 {
            let g = random_uniform(8, 10, 35, 1, 1, seed);
            for (min_l, min_r) in [(1, 1), (2, 2), (3, 2), (2, 4)] {
                let want = oracle_maximal_bicliques(&g, min_l, min_r);
                for order in [VertexOrder::IdAsc, VertexOrder::DegreeDesc] {
                    let got = run(&g, min_l, min_r, order);
                    assert_eq!(got, want, "seed {seed} minL {min_l} minR {min_r} {order:?}");
                }
            }
        }
    }

    #[test]
    fn denser_random_graphs() {
        for seed in 100..110u64 {
            let g = random_uniform(7, 9, 40, 1, 1, seed);
            let want = oracle_maximal_bicliques(&g, 1, 1);
            let got = run(&g, 1, 1, VertexOrder::DegreeDesc);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn budget_abort() {
        let g = random_uniform(12, 14, 90, 1, 1, 3);
        let mut sink = CollectSink::default();
        let stats = maximal_bicliques(
            &g,
            1,
            1,
            VertexOrder::IdAsc,
            Budget::nodes(5),
            Substrate::Auto,
            &mut sink,
        );
        assert!(stats.aborted);
        let full = oracle_maximal_bicliques(&g, 1, 1);
        for b in sink.bicliques {
            assert!(full.contains(&b));
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(1, 1).build().unwrap();
        assert!(run(&g, 1, 1, VertexOrder::IdAsc).is_empty());
    }

    #[test]
    fn complete_graph_single_biclique() {
        let mut b = GraphBuilder::new(1, 1);
        for u in 0..4 {
            for v in 0..5 {
                b.add_edge(u, v);
            }
        }
        let g = b.build().unwrap();
        let got = run(&g, 1, 1, VertexOrder::DegreeDesc);
        assert_eq!(got.len(), 1);
        let bc = got.iter().next().unwrap();
        assert_eq!(bc.upper.len(), 4);
        assert_eq!(bc.lower.len(), 5);
    }
}
