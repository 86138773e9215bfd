//! Incremental fair-core maintenance for dynamic graphs.
//!
//! The service's `ADDEDGE` / `DELEDGE` / `ADDVERTEX` verbs mutate a
//! cataloged graph one edge (or vertex) at a time. Re-running the full
//! [`crate::fcore`] peel per update would cost `O(|E|)` per update and
//! make every cached plan cold; this module maintains fair α-β core
//! membership **incrementally**: core membership changes only in a
//! bounded neighborhood of the updated edge, and a localized re-peel
//! repairs exactly that neighborhood.
//!
//! # Bounded-repair argument
//!
//! Let `C = FCore(G, α, β)` (Definition 8: upper vertices need `≥ β`
//! neighbors of *each* lower attribute, lower vertices need degree
//! `≥ α`).
//!
//! * **Deletion of `(u, v)`.** Cores are monotone under edge deletion
//!   (`G' ⊆ G ⇒ FCore(G') ⊆ FCore(G)`), so no vertex can *join*; if
//!   either endpoint is outside `C` the induced core subgraph does not
//!   contain the edge and `C` itself is still fair and maximal in
//!   `G'`, so nothing changes at all. Otherwise decrement the two
//!   endpoint counters and cascade the Batagelj–Zaversnik peel from
//!   the endpoints — exactly the vertices whose support transited
//!   below threshold are touched.
//! * **Insertion of `(u, v)`.** Cores only grow. A vertex `j ∉ C` can
//!   join only if its deficit is covered by other joiners or by the
//!   new edge itself: by maximality of `C`, `C ∪ {j}` is not fair, so
//!   `j` needs at least one neighbor that also joins (or is an
//!   endpoint benefiting from `e`). Inductively every joiner lies on a
//!   path of joiners ending at a **non-core** endpoint of `e` — and if
//!   both endpoints were already in `C`, nothing joins.
//!
//!   A joiner also meets its rule inside the new core, which is a
//!   subgraph of the new graph `G'`; so it meets its rule counting
//!   *all* its neighbours in `G'`. A lower vertex of degree `< α`, or
//!   an upper vertex with `< β` neighbours of some lower attribute,
//!   never joins — and since the joiner paths above consist of
//!   joiners, none of them passes through such a vertex. The repair
//!   therefore BFS-collects the non-core vertices that pass this
//!   filter and are reachable from the non-core endpoint(s) through
//!   vertices that pass it, optimistically revives them, and peels
//!   that candidate set; survivors are the joiners. If the non-core
//!   endpoints fail the filter, nothing joins and the BFS stops at
//!   them. Core vertices never get peeled here (their counters only
//!   gained candidate contributions), matching monotonicity. The
//!   filter matters most at high `(α, β)` on a sparse graph, where the
//!   non-core region reachable through non-core vertices is most of
//!   the graph but few of its vertices could ever qualify. It is a
//!   coarser form of the bound the streaming k-core repair of Sariyüce
//!   et al. (*Streaming algorithms for k-core decomposition*, PVLDB
//!   2013) puts on its traversal, with the fair core's rule.
//! * **Vertex addition.** An isolated vertex joins iff its (empty)
//!   constraints hold (`β = 0` upper / `α = 0` lower); no other
//!   membership can change.
//!
//! The tracker's state is the one-shot peel's own
//! ([`crate::fcore`]'s `FairPeel`), and both repairs drain the same
//! cascade. The peel's live-counter invariant — every member's
//! counters count exactly its member neighbours — holds when a cascade
//! drains, so it holds between updates with no recount.
//!
//! The reported [`UpdateEffect`] is the dirty region: every vertex
//! whose membership changed, plus whether the updated edge itself lies
//! inside the core. The service invalidates a cached plan **only**
//! when the effect at the plan's `(α, β)` is dirty — if the fair core
//! is unchanged *as an induced subgraph*, every fair biclique of the
//! model lives inside it (Lemma 1; the bi-side core BFCore and the
//! colorful cores are subsets of it), so the plan's enumeration output
//! is provably byte-identical and the plan stays resident.

use crate::fcore::FairPeel;
use bigraph::{BipartiteGraph, Side, VertexId};

/// The dirty region of one update at a fixed `(α, β)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateEffect {
    /// Upper vertices whose core membership flipped (sorted).
    pub changed_upper: Vec<VertexId>,
    /// Lower vertices whose core membership flipped (sorted).
    pub changed_lower: Vec<VertexId>,
    /// True when the updated edge lies inside the core (both endpoints
    /// are members after an insertion / were members before a
    /// deletion): the core's *edge set* changed even if no membership
    /// did.
    pub core_edge_touched: bool,
}

impl UpdateEffect {
    /// True when the core is unchanged as an induced subgraph — cached
    /// plans at this `(α, β)` provably still produce byte-identical
    /// results.
    pub fn is_clean(&self) -> bool {
        !self.core_edge_touched && self.changed_upper.is_empty() && self.changed_lower.is_empty()
    }

    /// Total number of membership flips.
    pub fn flips(&self) -> usize {
        self.changed_upper.len() + self.changed_lower.len()
    }
}

/// Incrementally maintained fair α-β core membership of one graph at
/// one `(α, β)` pair: the state of an `FCore` peel, kept between
/// updates (masks are exactly the FCore masks of the current graph).
#[derive(Debug, Clone)]
pub struct CoreTracker {
    peel: FairPeel,
    scratch: Scratch,
}

/// A repair's working memory, kept so that a repair allocates nothing
/// once it has grown to the graph. It carries nothing from one repair
/// to the next, so a clone starts empty.
#[derive(Debug, Default)]
struct Scratch {
    /// Vertices the insertion BFS has reached, by side; all false
    /// between repairs, cleared through `cand` and `rejected`.
    seen: [Vec<bool>; 2],
    /// Insertion candidates, by side.
    cand: [Vec<VertexId>; 2],
    /// Reached vertices that cannot join.
    rejected: Vec<(Side, VertexId)>,
    /// The insertion BFS's work list, then the cascade stack; empty
    /// between uses.
    stack: Vec<(Side, VertexId)>,
}

impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

/// Peel `peel` from `seeds` (live vertices to check, by side) on
/// `stack`; `on_death` sees every vertex the cascade kills.
fn repeel(
    peel: &mut FairPeel,
    g: &BipartiteGraph,
    stack: &mut Vec<(Side, VertexId)>,
    seeds: [&[VertexId]; 2],
    on_death: impl FnMut(Side, VertexId),
) {
    for (side, xs) in [Side::Upper, Side::Lower].into_iter().zip(seeds) {
        peel.seed(side, xs.iter().copied(), stack);
    }
    peel.cascade(g, stack, None, on_death)
        .expect("a cascade without a clock never interrupts");
}

impl CoreTracker {
    /// Full peel of `g` (the one-shot [`crate::fcore::fcore_masks`]
    /// peel), whose counters later updates repair.
    pub fn new(g: &BipartiteGraph, alpha: u32, beta: u32) -> CoreTracker {
        let peel = FairPeel::peel(g, alpha, beta, false, None)
            .expect("a peel without a clock never interrupts");
        CoreTracker {
            peel,
            scratch: Scratch::default(),
        }
    }

    /// The `(α, β)` this tracker maintains.
    pub fn params(&self) -> (u32, u32) {
        self.peel.params()
    }

    /// Current membership masks `(upper, lower)`.
    pub fn masks(&self) -> (&[bool], &[bool]) {
        (&self.peel.alive[0], &self.peel.alive[1])
    }

    /// Whether vertex `x` on `side` is currently a core member.
    pub fn in_core(&self, side: Side, x: VertexId) -> bool {
        self.peel.alive[side as usize][x as usize]
    }

    /// Number of core members (upper + lower).
    pub fn members(&self) -> usize {
        self.peel.alive.iter().flatten().filter(|&&a| a).count()
    }

    /// Count the edge `(u, v)` in (`add`) or out of both counters it
    /// feeds.
    fn credit_edge(&mut self, g: &BipartiteGraph, u: VertexId, v: VertexId, add: bool) {
        let (ku, kv) = (
            self.peel.slot_of(g, Side::Upper, u),
            self.peel.slot_of(g, Side::Lower, v),
        );
        for (side, x, slot) in [(Side::Upper, u, kv), (Side::Lower, v, ku)] {
            let c = &mut self.peel.counters_mut(side, x)[slot];
            if add {
                *c += 1;
            } else {
                *c -= 1;
            }
        }
    }

    /// Repair after edge `(u, v)` was **removed**; `g` is the new
    /// graph (without the edge).
    pub fn remove_edge(&mut self, g: &BipartiteGraph, u: VertexId, v: VertexId) -> UpdateEffect {
        if !self.in_core(Side::Upper, u) || !self.in_core(Side::Lower, v) {
            // The edge was not part of the induced core subgraph: the
            // core is still fair and still maximal (deletion is
            // monotone), and member counters never counted it.
            return UpdateEffect::default();
        }
        self.credit_edge(g, u, v, false);
        let mut died = [Vec::new(), Vec::new()];
        repeel(
            &mut self.peel,
            g,
            &mut self.scratch.stack,
            [&[u], &[v]],
            |side, x| died[side as usize].push(x),
        );
        let [mut died_u, mut died_v] = died;
        died_u.sort_unstable();
        died_v.sort_unstable();
        UpdateEffect {
            changed_upper: died_u,
            changed_lower: died_v,
            core_edge_touched: true,
        }
    }

    /// Repair after edge `(u, v)` was **added**; `g` is the new graph
    /// (with the edge).
    pub fn add_edge(&mut self, g: &BipartiteGraph, u: VertexId, v: VertexId) -> UpdateEffect {
        if self.in_core(Side::Upper, u) && self.in_core(Side::Lower, v) {
            // Both endpoints already members: insertion cannot revive
            // anything (a joiner chain must end at a non-core
            // endpoint), only the member counters grow.
            self.credit_edge(g, u, v, true);
            return UpdateEffect {
                core_edge_touched: true,
                ..UpdateEffect::default()
            };
        }
        let CoreTracker { peel, scratch } = self;
        let Scratch {
            seen,
            cand,
            rejected,
            stack,
        } = scratch;
        for (s, side) in [Side::Upper, Side::Lower].into_iter().enumerate() {
            seen[s].resize(g.n(side), false);
        }

        // Candidate region, by side: the non-members that could join
        // (`could_join`), reachable from the non-member endpoint(s)
        // through such vertices. Every joiner is in here (see module
        // docs).
        for (side, x) in [(Side::Upper, u), (Side::Lower, v)] {
            if !peel.alive[side as usize][x as usize] {
                seen[side as usize][x as usize] = true;
                stack.push((side, x));
            }
        }
        while let Some((side, x)) = stack.pop() {
            if !peel.could_join(g, side, x) {
                rejected.push((side, x));
                continue;
            }
            cand[side as usize].push(x);
            let o = side.other() as usize;
            for &w in g.neighbors(side, x) {
                if !peel.alive[o][w as usize] && !seen[o][w as usize] {
                    seen[o][w as usize] = true;
                    stack.push((side.other(), w));
                }
            }
        }
        // Now `seen` flags exactly the candidates.
        for (side, x) in rejected.drain(..) {
            seen[side as usize][x as usize] = false;
        }

        // Optimistically revive the candidates: recompute their
        // counters over members ∪ candidates, and credit their
        // contributions to adjacent members.
        peel.revive(g, cand, seen);

        // Localized peel over the candidate region.
        repeel(peel, g, stack, [&cand[0], &cand[1]], |side, x| {
            debug_assert!(
                seen[side as usize][x as usize],
                "insertion repair must never peel a pre-existing member"
            );
        });

        let [joined_u, joined_v] = [0, 1].map(|s| {
            let mut j: Vec<VertexId> = cand[s]
                .iter()
                .copied()
                .filter(|&x| peel.alive[s][x as usize])
                .collect();
            j.sort_unstable();
            j
        });
        for (seen, cand) in seen.iter_mut().zip(cand.iter_mut()) {
            for x in cand.drain(..) {
                seen[x as usize] = false;
            }
        }
        UpdateEffect {
            changed_upper: joined_u,
            changed_lower: joined_v,
            core_edge_touched: self.in_core(Side::Upper, u) && self.in_core(Side::Lower, v),
        }
    }

    /// Extend the tracker after an isolated vertex was appended to
    /// `side` of `g` (the new graph, which already contains it).
    pub fn add_vertex(&mut self, g: &BipartiteGraph, side: Side, id: VertexId) -> UpdateEffect {
        debug_assert_eq!(id as usize, self.peel.alive[side as usize].len());
        debug_assert!((id as usize) < g.n(side));
        let mut effect = UpdateEffect::default();
        if self.peel.push_vertex(side) {
            match side {
                Side::Upper => effect.changed_upper.push(id),
                Side::Lower => effect.changed_lower.push(id),
            }
        }
        effect
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fcore::fcore_masks;
    use bigraph::generate::random_uniform;
    use bigraph::GraphBuilder;

    fn assert_tracker_matches(t: &CoreTracker, g: &BipartiteGraph) {
        let (alpha, beta) = t.params();
        let (ku, kv) = fcore_masks(g, alpha, beta);
        let (tu, tv) = t.masks();
        assert_eq!(tu, ku, "upper masks diverge");
        assert_eq!(tv, kv, "lower masks diverge");
        // Live-counter invariant: a member's counters count its member
        // neighbours, per lower attribute (upper) or in total (lower).
        let mut peel = t.peel.clone();
        for (side, keep, other_keep) in [(Side::Upper, &ku, &kv), (Side::Lower, &kv, &ku)] {
            for x in (0..g.n(side) as VertexId).filter(|&x| keep[x as usize]) {
                let mut want = vec![0u32; peel.counters_mut(side, x).len()];
                for &y in g.neighbors(side, x) {
                    if other_keep[y as usize] {
                        want[if side == Side::Upper {
                            g.attr(Side::Lower, y) as usize
                        } else {
                            0
                        }] += 1;
                    }
                }
                assert_eq!(
                    peel.counters_mut(side, x),
                    want,
                    "counters of {side} member {x}"
                );
            }
        }
        assert!(
            t.scratch.seen.iter().flatten().all(|&s| !s),
            "a repair leaves its scratch clear"
        );
    }

    /// A graph with the given lower attributes (one upper attribute).
    fn graph(
        n_upper: usize,
        lower_attrs: &[u16],
        edges: &[(VertexId, VertexId)],
    ) -> BipartiteGraph {
        let mut b = GraphBuilder::new(1, lower_attrs.iter().max().map_or(1, |&a| a + 1));
        b.ensure_vertices(n_upper, lower_attrs.len());
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.set_attrs_lower(lower_attrs);
        b.build().unwrap()
    }

    /// Deterministic xorshift so the sequence is reproducible without
    /// pulling the proptest dep into the unit tests.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn tracker_matches_scratch_over_random_update_sequences() {
        for seed in 0..6u64 {
            let g0 = random_uniform(12, 14, 60, 2, 2, seed);
            for (alpha, beta) in [(1u32, 1u32), (2, 1), (2, 2), (3, 2)] {
                let mut g = g0.clone();
                let mut t = CoreTracker::new(&g, alpha, beta);
                assert_tracker_matches(&t, &g);
                let mut rng = seed * 2_654_435_761 + 1;
                for _ in 0..40 {
                    let u = (xorshift(&mut rng) % g.n_upper() as u64) as u32;
                    let v = (xorshift(&mut rng) % g.n_lower() as u64) as u32;
                    if g.has_edge(u, v) {
                        g = g.without_edge(u, v).unwrap();
                        t.remove_edge(&g, u, v);
                    } else {
                        g = g.with_edge(u, v).unwrap();
                        t.add_edge(&g, u, v);
                    }
                    assert_tracker_matches(&t, &g);
                }
            }
        }
    }

    #[test]
    fn clean_updates_report_clean_and_dirty_report_dirty() {
        // Path-ish graph: u0-v0, u0-v1, u1-v1 with all attrs 0.
        let mut b = GraphBuilder::new(1, 1);
        b.ensure_vertices(3, 3);
        for (u, v) in [(0u32, 0u32), (0, 1), (1, 1)] {
            b.add_edge(u, v);
        }
        let g = b.build().unwrap();
        let mut t = CoreTracker::new(&g, 2, 2);
        // Core is empty at (2,2): nobody has degree 2 on both checks.
        assert_eq!(t.members(), 0);
        // Adding an edge between two dead vertices that still doesn't
        // create a (2,2) core is clean.
        let g2 = g.with_edge(2, 2).unwrap();
        let eff = t.add_edge(&g2, 2, 2);
        assert!(eff.is_clean(), "no joiners, edge outside core: {eff:?}");
        assert_tracker_matches(&t, &g2);
        // Completing the 2x2 block u0,u1 × v0,v1 revives all four.
        let g3 = g2.with_edge(1, 0).unwrap();
        let eff = t.add_edge(&g3, 1, 0);
        assert_eq!(eff.changed_upper, vec![0, 1]);
        assert_eq!(eff.changed_lower, vec![0, 1]);
        assert!(eff.core_edge_touched);
        assert_eq!(eff.flips(), 4);
        assert_tracker_matches(&t, &g3);
        // Removing an edge with a dead endpoint is clean …
        let g4 = g3.without_edge(2, 2).unwrap();
        assert!(t.remove_edge(&g4, 2, 2).is_clean());
        assert_tracker_matches(&t, &g4);
        // … removing a core edge collapses the block.
        let g5 = g4.without_edge(0, 0).unwrap();
        let eff = t.remove_edge(&g5, 0, 0);
        assert!(eff.core_edge_touched);
        assert_eq!(eff.flips(), 4);
        assert_tracker_matches(&t, &g5);
        assert_eq!(t.members(), 0);
    }

    #[test]
    fn insertion_revives_a_lower_vertex_with_exactly_alpha_neighbours() {
        // Core at (2, 1): the block u0,u1 × v1,v2. v0 has one neighbour.
        let g = graph(2, &[0, 0, 0], &[(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
        let mut t = CoreTracker::new(&g, 2, 1);
        assert!(!t.in_core(Side::Lower, 0));
        // u1–v0 gives v0 degree 2 = α: it joins.
        let g2 = g.with_edge(1, 0).unwrap();
        let eff = t.add_edge(&g2, 1, 0);
        assert_eq!(eff.changed_upper, Vec::<VertexId>::new());
        assert_eq!(eff.changed_lower, vec![0]);
        assert!(eff.core_edge_touched);
        assert_tracker_matches(&t, &g2);
    }

    #[test]
    fn insertion_revives_an_upper_vertex_with_exactly_beta_of_one_attribute() {
        // Lower attributes: v0, v1, v4 → 0; v2, v3 → 1. Core at (1, 2):
        // u1 × v0..v3. u0 sees v0, v1, v4 (attribute 0) but only v2 of
        // attribute 1; v4's one neighbour is u0.
        let edges = [
            (1, 0),
            (1, 1),
            (1, 2),
            (1, 3),
            (0, 0),
            (0, 1),
            (0, 2),
            (0, 4),
        ];
        let g = graph(2, &[0, 0, 1, 1, 0], &edges);
        let mut t = CoreTracker::new(&g, 1, 2);
        assert!(!t.in_core(Side::Upper, 0) && !t.in_core(Side::Lower, 4));
        // u0–v3 gives u0 exactly β = 2 of attribute 1: u0 joins, and
        // with it v4, whose degree is exactly α = 1.
        let g2 = g.with_edge(0, 3).unwrap();
        let eff = t.add_edge(&g2, 0, 3);
        assert_eq!(eff.changed_upper, vec![0]);
        assert_eq!(eff.changed_lower, vec![4]);
        assert!(eff.core_edge_touched);
        assert_tracker_matches(&t, &g2);
    }

    #[test]
    fn insertion_at_an_endpoint_that_cannot_join_is_clean() {
        // Core at (2, 2): the block u0,u1 × v0,v1; u2 and v2 are
        // isolated.
        let g = graph(3, &[0, 0, 0], &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut t = CoreTracker::new(&g, 2, 2);
        let before = (t.masks().0.to_vec(), t.masks().1.to_vec());
        // u2–v2: both endpoints have degree 1 < 2, so neither can join.
        let g2 = g.with_edge(2, 2).unwrap();
        assert_eq!(t.add_edge(&g2, 2, 2), UpdateEffect::default());
        // u0–v2: v2 could join, but its only other neighbour u2 cannot,
        // and u0 alone leaves v2 one short of α.
        let g3 = g2.with_edge(0, 2).unwrap();
        assert_eq!(t.add_edge(&g3, 0, 2), UpdateEffect::default());
        assert_eq!((t.masks().0, t.masks().1), (&before.0[..], &before.1[..]));
        assert_tracker_matches(&t, &g3);
        assert!(t.clone().scratch.seen.iter().all(Vec::is_empty));
    }

    #[test]
    fn vertex_addition_membership_matches_constraints() {
        let g = random_uniform(6, 6, 18, 2, 2, 9);
        // α=0: an isolated lower vertex is a member; β≥1 keeps an
        // isolated upper vertex out.
        let mut t = CoreTracker::new(&g, 0, 1);
        let (g2, lv) = g.with_vertex(Side::Lower, 1).unwrap();
        let eff = t.add_vertex(&g2, Side::Lower, lv);
        assert_eq!(eff.changed_lower, vec![lv]);
        assert!(t.in_core(Side::Lower, lv));
        assert_tracker_matches(&t, &g2);
        let (g3, uv) = g2.with_vertex(Side::Upper, 0).unwrap();
        let eff = t.add_vertex(&g3, Side::Upper, uv);
        assert!(eff.is_clean());
        assert!(!t.in_core(Side::Upper, uv));
        assert_tracker_matches(&t, &g3);
        // The appended vertex participates in later edge updates.
        let g4 = g3.with_edge(uv, lv).unwrap();
        t.add_edge(&g4, uv, lv);
        assert_tracker_matches(&t, &g4);
    }
}
