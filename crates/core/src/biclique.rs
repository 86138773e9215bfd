//! Biclique results, result sinks, and enumeration statistics.

use bigraph::VertexId;
use serde::{Deserialize, Serialize};

/// One biclique `(L ⊆ U, R ⊆ V)`; both sides sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Biclique {
    /// Upper-side vertices (`L`), sorted ascending.
    pub upper: Vec<VertexId>,
    /// Lower-side vertices (`R`), sorted ascending.
    pub lower: Vec<VertexId>,
}

impl Biclique {
    /// Construct from unsorted sides.
    pub fn new(mut upper: Vec<VertexId>, mut lower: Vec<VertexId>) -> Self {
        upper.sort_unstable();
        lower.sort_unstable();
        Biclique { upper, lower }
    }

    /// Total number of vertices.
    pub fn len(&self) -> usize {
        self.upper.len() + self.lower.len()
    }

    /// True when both sides are empty.
    pub fn is_empty(&self) -> bool {
        self.upper.is_empty() && self.lower.is_empty()
    }
}

/// The result line `L=[1, 4] R=[0, 2]`: the form the CLI prints and
/// the service's `ENUM` replies carry, parsed back by [`FromStr`].
///
/// [`FromStr`]: std::str::FromStr
impl std::fmt::Display for Biclique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L={:?} R={:?}", self.upper, self.lower)
    }
}

/// Inverse of [`Display`](std::fmt::Display): parses `L=[..] R=[..]`
/// (elements may carry surrounding spaces; either side may be empty).
/// Anything else, including trailing text, is an error. Sides are
/// taken as written, not re-sorted.
impl std::str::FromStr for Biclique {
    type Err = String;

    fn from_str(line: &str) -> Result<Self, Self::Err> {
        let parse = || -> Option<Biclique> {
            let rest = line.strip_prefix("L=[")?;
            let (l, rest) = rest.split_once(']')?;
            let (r, rest) = rest.strip_prefix(" R=[")?.split_once(']')?;
            if !rest.is_empty() {
                return None;
            }
            let side = |s: &str| -> Option<Vec<VertexId>> {
                let s = s.trim();
                if s.is_empty() {
                    return Some(Vec::new());
                }
                s.split(',').map(|t| t.trim().parse().ok()).collect()
            };
            Some(Biclique {
                upper: side(l)?,
                lower: side(r)?,
            })
        };
        parse().ok_or_else(|| format!("unparseable result line {line:?}"))
    }
}

/// Receives bicliques as the enumerators discover them.
///
/// Enumerators hand over *borrowed, sorted* slices so counting sinks pay
/// no allocation. Sinks must not assume any discovery order.
pub trait BicliqueSink {
    /// One result. `upper`/`lower` are sorted ascending.
    fn emit(&mut self, upper: &[VertexId], lower: &[VertexId]);

    /// Take `n` results as a bare count, without their vertex sets.
    /// Returns false, taking nothing, when the sink needs every result
    /// (the default); enumerators probe with `tally(0)` and, on false,
    /// emit each result through [`BicliqueSink::emit`].
    fn tally(&mut self, _n: u64) -> bool {
        false
    }
}

/// Counts results without storing them.
#[derive(Debug, Default, Clone)]
pub struct CountSink {
    /// Number of bicliques emitted.
    pub count: u64,
}

impl BicliqueSink for CountSink {
    #[inline]
    fn emit(&mut self, _upper: &[VertexId], _lower: &[VertexId]) {
        self.count += 1;
    }

    fn tally(&mut self, n: u64) -> bool {
        self.count += n;
        true
    }
}

/// Collects results into a vector.
#[derive(Debug, Default, Clone)]
pub struct CollectSink {
    /// Collected bicliques in discovery order.
    pub bicliques: Vec<Biclique>,
}

impl BicliqueSink for CollectSink {
    fn emit(&mut self, upper: &[VertexId], lower: &[VertexId]) {
        self.bicliques.push(Biclique {
            upper: upper.to_vec(),
            lower: lower.to_vec(),
        });
    }
}

/// A borrowed sink is a sink: drivers that take `&mut dyn BicliqueSink`
/// can hand it on to code generic over the sink type.
impl<T: BicliqueSink + ?Sized> BicliqueSink for &mut T {
    #[inline]
    fn emit(&mut self, upper: &[VertexId], lower: &[VertexId]) {
        (**self).emit(upper, lower);
    }

    fn tally(&mut self, n: u64) -> bool {
        (**self).tally(n)
    }
}

/// Forwards results after translating pruned-subgraph ids back to the
/// parent graph's ids (the enumerators run on compacted pruned graphs).
///
/// The sink owns its translation buffers, so one kept for a whole run
/// (as every enumeration worker does) maps each emission without
/// allocating.
pub struct MappingSink<'a, S> {
    upper_map: &'a [VertexId],
    lower_map: &'a [VertexId],
    inner: S,
    upper_buf: Vec<VertexId>,
    lower_buf: Vec<VertexId>,
}

impl<'a, S> MappingSink<'a, S> {
    /// Wrap `inner` with `new_id -> parent_id` maps for both sides.
    pub fn new(upper_map: &'a [VertexId], lower_map: &'a [VertexId], inner: S) -> Self {
        MappingSink {
            upper_map,
            lower_map,
            inner,
            upper_buf: Vec::new(),
            lower_buf: Vec::new(),
        }
    }

    /// The wrapped sink.
    pub(crate) fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: BicliqueSink> BicliqueSink for MappingSink<'_, S> {
    fn emit(&mut self, upper: &[VertexId], lower: &[VertexId]) {
        self.upper_buf.clear();
        self.upper_buf
            .extend(upper.iter().map(|&v| self.upper_map[v as usize]));
        self.upper_buf.sort_unstable();
        self.lower_buf.clear();
        self.lower_buf
            .extend(lower.iter().map(|&v| self.lower_map[v as usize]));
        self.lower_buf.sort_unstable();
        self.inner.emit(&self.upper_buf, &self.lower_buf);
    }

    /// A count carries no ids to translate.
    fn tally(&mut self, n: u64) -> bool {
        self.inner.tally(n)
    }
}

/// Keeps only the `k` largest bicliques seen (by total vertex count,
/// ties broken lexicographically — largest vertex sets win).
///
/// Retention depends only on the *set* of emissions, never their
/// order, so serial runs, parallel per-worker sinks, and merges of
/// either all retain the same `k` results (the parallel engine's
/// discovery order is nondeterministic; an arrival-order tie-break
/// would make `--top` output flap across runs).
///
/// Useful for the case studies, where millions of fair bicliques exist
/// but only the most substantial few are displayed.
#[derive(Debug, Clone)]
pub struct TopKSink {
    k: usize,
    /// Total number of bicliques seen (not just the retained ones).
    pub seen: u64,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, Biclique)>>,
}

impl TopKSink {
    /// Retain the `k` largest results.
    pub fn new(k: usize) -> Self {
        TopKSink {
            k,
            seen: 0,
            heap: std::collections::BinaryHeap::new(),
        }
    }

    /// The retained bicliques, largest first.
    pub fn into_sorted(self) -> Vec<Biclique> {
        let mut v: Vec<(usize, Biclique)> = self
            .heap
            .into_iter()
            .map(|std::cmp::Reverse(x)| x)
            .collect();
        v.sort_by(|a, b| b.cmp(a));
        v.into_iter().map(|(_, bc)| bc).collect()
    }
}

impl BicliqueSink for TopKSink {
    fn emit(&mut self, upper: &[VertexId], lower: &[VertexId]) {
        self.seen += 1;
        if self.k == 0 {
            return;
        }
        let size = upper.len() + lower.len();
        if self.heap.len() < self.k {
            self.heap.push(std::cmp::Reverse((
                size,
                Biclique {
                    upper: upper.to_vec(),
                    lower: lower.to_vec(),
                },
            )));
        } else if let Some(std::cmp::Reverse((min_size, min_bc))) = self.heap.peek() {
            // Full (size, sets) comparison: the retained set is the
            // true top-k under a total order, independent of emission
            // order (ties on size resolve lexicographically).
            if (size, upper, lower) > (*min_size, min_bc.upper.as_slice(), min_bc.lower.as_slice())
            {
                self.heap.pop();
                self.heap.push(std::cmp::Reverse((
                    size,
                    Biclique {
                        upper: upper.to_vec(),
                        lower: lower.to_vec(),
                    },
                )));
            }
        }
    }
}

/// Statistics of one enumeration run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnumStats {
    /// Search-tree nodes visited.
    pub nodes: u64,
    /// Results emitted.
    pub emitted: u64,
    /// True when the run hit its [`crate::config::Budget`] and aborted;
    /// results are then a (correct) subset.
    pub aborted: bool,
    /// Which limit stopped the run first (`None` when it ran to
    /// completion); set whenever `aborted` is.
    pub stop: Option<crate::config::StopReason>,
    /// Rough peak heap bytes attributable to the search state (graph
    /// storage excluded, matching the paper's Exp-6 protocol).
    pub peak_search_bytes: usize,
    /// Lower-side `Combination` subsets the single-side expansion
    /// tested at a leaf of its covering-filter search.
    pub subsets: u64,
    /// Subtrees of that search whose results a counting run took as one
    /// number, without visiting them.
    pub tallied: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biclique_sorts() {
        let b = Biclique::new(vec![3, 1], vec![2, 0]);
        assert_eq!(b.upper, vec![1, 3]);
        assert_eq!(b.lower, vec![0, 2]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert!(Biclique::new(vec![], vec![]).is_empty());
        assert!(b.to_string().contains("L=[1, 3]"));
    }

    #[test]
    fn sinks_count_and_collect() {
        let mut c = CountSink::default();
        c.emit(&[0], &[1]);
        c.emit(&[0], &[2]);
        assert_eq!(c.count, 2);
        assert!(c.tally(5));
        assert_eq!(c.count, 7);
        // Through a borrow and an id map, a count still lands.
        let mut m = MappingSink::new(&[], &[], &mut c);
        assert!(m.tally(3));
        assert_eq!(c.count, 10);
        // Sinks that keep results refuse a bare count.
        assert!(!CollectSink::default().tally(1));
        assert!(!TopKSink::new(2).tally(1));

        let mut v = CollectSink::default();
        v.emit(&[0, 1], &[2]);
        assert_eq!(v.bicliques, vec![Biclique::new(vec![0, 1], vec![2])]);
    }

    #[test]
    fn topk_sink_keeps_largest() {
        let mut t = TopKSink::new(2);
        t.emit(&[0], &[0]); // size 2
        t.emit(&[0, 1, 2], &[0, 1]); // size 5
        t.emit(&[0, 1], &[0, 1]); // size 4
        t.emit(&[9], &[9, 10]); // size 3
        assert_eq!(t.seen, 4);
        let top = t.into_sorted();
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].len(), 5);
        assert_eq!(top[1].len(), 4);
    }

    #[test]
    fn topk_sink_zero_k() {
        let mut t = TopKSink::new(0);
        t.emit(&[0], &[0]);
        assert_eq!(t.seen, 1);
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn mapping_sink_translates_and_sorts() {
        let upper_map = vec![10, 5, 7];
        let lower_map = vec![100, 50];
        let mut inner = CollectSink::default();
        {
            let mut m = MappingSink::new(&upper_map, &lower_map, &mut inner);
            m.emit(&[0, 1, 2], &[1, 0]);
        }
        assert_eq!(
            inner.bicliques,
            vec![Biclique::new(vec![5, 7, 10], vec![50, 100])]
        );
    }
}
