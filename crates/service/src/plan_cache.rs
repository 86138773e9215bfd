//! LRU cache of prepared query plans.
//!
//! Keyed by `(graph name, graph epoch, model, params, requested
//! substrate)`; the value is an `Arc<PreparedQuery>` — the pruned core
//! plus resolved candidate plan — so a hit skips pruning, 2-hop /
//! coloring, and bitset-row construction entirely and goes straight to
//! enumeration. Replacing a graph bumps its catalog epoch, so plans of
//! the old generation can never be returned for the new graph; they
//! simply age out of the LRU.

use fair_biclique::prepared::{PreparedQuery, QueryModel};
use fair_biclique::Substrate;
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of a prepared plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Catalog graph name.
    pub graph: String,
    /// Catalog epoch of that graph when the plan was built.
    pub epoch: u64,
    /// Model name (`SSFBC` / `BSFBC` / `PSSFBC` / `PBSFBC`).
    pub model: &'static str,
    /// `α`.
    pub alpha: u32,
    /// `β`.
    pub beta: u32,
    /// `δ`.
    pub delta: u32,
    /// `θ` as IEEE-754 bits (0 for the absolute models; the model tag
    /// disambiguates a genuine `θ = 0.0`).
    pub theta_bits: u64,
    /// The *requested* substrate (resolution happens per pruned core).
    pub substrate: Substrate,
}

impl PlanKey {
    /// Key for `model` with `opts.substrate` over `graph@epoch`.
    pub fn new(graph: &str, epoch: u64, model: QueryModel, substrate: Substrate) -> PlanKey {
        let base = model.base();
        PlanKey {
            graph: graph.to_string(),
            epoch,
            model: model.name(),
            alpha: base.alpha,
            beta: base.beta,
            delta: base.delta,
            theta_bits: model.theta().map_or(0, f64::to_bits),
            substrate,
        }
    }
}

struct Slot {
    plan: Arc<PreparedQuery>,
    last_used: u64,
}

/// A small LRU over prepared plans with hit/miss/eviction accounting.
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    slots: HashMap<PlanKey, Slot>,
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that missed (caller prepares and inserts).
    pub misses: u64,
    /// Plans displaced by capacity.
    pub evictions: u64,
    /// Plans dropped by explicit invalidation (graph replacement,
    /// `DROP`, graph updates, `clear`) — distinct from capacity
    /// `evictions` so `STATS` reports real churn.
    pub invalidated: u64,
}

impl PlanCache {
    /// Cache retaining at most `capacity` plans (capacity 0 disables
    /// caching: every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            tick: 0,
            slots: HashMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            invalidated: 0,
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<PreparedQuery>> {
        self.tick += 1;
        match self.slots.get_mut(key) {
            Some(slot) => {
                slot.last_used = self.tick;
                self.hits += 1;
                Some(Arc::clone(&slot.plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a freshly prepared plan, evicting the least recently
    /// used slot when full.
    ///
    /// Eviction is a linear `min_by_key` scan over the resident slots,
    /// deliberately so: the cache holds at most `capacity` plans (a
    /// few dozen in any realistic deployment — each slot pins a pruned
    /// core plus bitset rows, so capacity is bounded by heap long
    /// before scan cost matters), and the scan only runs on an insert
    /// that is already paying for a full prepare. An intrusive LRU
    /// list would save O(capacity) key clones per *miss-insert* at the
    /// price of order bookkeeping on every *hit*; with hits outnumbering
    /// miss-inserts by orders of magnitude, the scan is the cheaper
    /// regime. Revisit only if capacity grows into the thousands.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<PreparedQuery>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.slots.contains_key(&key) && self.slots.len() >= self.capacity {
            if let Some(lru) = self
                .slots
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone())
            {
                self.slots.remove(&lru);
                self.evictions += 1;
            }
        }
        self.slots.insert(
            key,
            Slot {
                plan,
                last_used: self.tick,
            },
        );
    }

    /// Drop every plan of `graph` (any epoch), e.g. on `DROP`.
    /// Returns how many plans were dropped (also added to
    /// `invalidated`).
    pub fn invalidate_graph(&mut self, graph: &str) -> u64 {
        self.invalidate_where(|k| k.graph == graph)
    }

    /// Surgical invalidation: drop exactly the plans whose key matches
    /// `stale`, keeping everything else resident. The graph-update
    /// path uses this to drop only the plans whose pruned core was
    /// touched by an update. Returns how many plans were dropped (also
    /// added to `invalidated`).
    pub fn invalidate_where(&mut self, mut stale: impl FnMut(&PlanKey) -> bool) -> u64 {
        let before = self.slots.len();
        self.slots.retain(|k, _| !stale(k));
        let dropped = (before - self.slots.len()) as u64;
        self.invalidated += dropped;
        dropped
    }

    /// The distinct `(α, β)` pairs with a cached plan for `graph` at
    /// its current catalog `epoch` (sorted, deduplicated) — the pairs
    /// whose fair cores the graph-update path must track. Plans of
    /// older epochs are unreachable leftovers aging out of the LRU;
    /// including their pairs would make updates track (and invalidate
    /// against) cores no live plan serves.
    pub fn tracked_pairs(&self, graph: &str, epoch: u64) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self
            .slots
            .keys()
            .filter(|k| k.graph == graph && k.epoch == epoch)
            .map(|k| (k.alpha, k.beta))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Number of cached plans for `graph`.
    pub fn count_graph(&self, graph: &str) -> usize {
        self.slots.keys().filter(|k| k.graph == graph).count()
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total heap bytes pinned by cached plans.
    pub fn heap_bytes(&self) -> usize {
        self.slots.values().map(|s| s.plan.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::generate::random_uniform;
    use fair_biclique::config::{FairParams, PruneKind};

    fn plan_for(seed: u64) -> Arc<PreparedQuery> {
        let g = random_uniform(8, 8, 24, 2, 2, seed);
        Arc::new(PreparedQuery::prepare(
            &g,
            QueryModel::Ssfbc(FairParams::unchecked(1, 1, 1)),
            PruneKind::Colorful,
            Substrate::Auto,
        ))
    }

    fn key(name: &str, epoch: u64, alpha: u32) -> PlanKey {
        PlanKey::new(
            name,
            epoch,
            QueryModel::Ssfbc(FairParams::unchecked(alpha, 1, 1)),
            Substrate::Auto,
        )
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut c = PlanCache::new(2);
        assert!(c.get(&key("g", 0, 1)).is_none());
        assert_eq!(c.misses, 1);
        c.insert(key("g", 0, 1), plan_for(1));
        c.insert(key("g", 0, 2), plan_for(2));
        assert!(c.get(&key("g", 0, 1)).is_some());
        assert_eq!(c.hits, 1);
        // Inserting a third evicts the LRU — alpha=2, since alpha=1
        // was just touched.
        c.insert(key("g", 0, 3), plan_for(3));
        assert_eq!(c.evictions, 1);
        assert!(c.get(&key("g", 0, 1)).is_some());
        assert!(c.get(&key("g", 0, 2)).is_none());
        assert!(c.get(&key("g", 0, 3)).is_some());
        assert_eq!(c.len(), 2);
        assert!(c.heap_bytes() > 0);
    }

    #[test]
    fn epoch_and_graph_isolation() {
        let mut c = PlanCache::new(8);
        c.insert(key("g", 0, 1), plan_for(1));
        // Same params, new epoch → different key.
        assert!(c.get(&key("g", 1, 1)).is_none());
        c.insert(key("h", 5, 1), plan_for(2));
        assert_eq!(c.invalidate_graph("g"), 1);
        assert!(c.get(&key("g", 0, 1)).is_none());
        assert!(c.get(&key("h", 5, 1)).is_some());
        assert_eq!(c.invalidated, 1, "invalidate_graph counts drops");
        assert_eq!(c.invalidate_graph("h"), 1);
        assert!(c.is_empty());
        assert_eq!(c.invalidated, 2, "every drop is counted");
        // Invalidation is not eviction: capacity accounting untouched.
        assert_eq!(c.evictions, 0);
    }

    #[test]
    fn surgical_invalidation_drops_only_matching_keys() {
        let mut c = PlanCache::new(8);
        c.insert(key("g", 0, 1), plan_for(1));
        c.insert(key("g", 0, 2), plan_for(2));
        c.insert(key("h", 0, 1), plan_for(3));
        assert_eq!(c.tracked_pairs("g", 0), vec![(1, 1), (2, 1)]);
        assert_eq!(c.tracked_pairs("zzz", 0), vec![]);
        assert_eq!(c.count_graph("g"), 2);
        // Only alpha=1 plans of g are stale.
        let dropped = c.invalidate_where(|k| k.graph == "g" && k.alpha == 1);
        assert_eq!(dropped, 1);
        assert_eq!(c.invalidated, 1);
        assert!(c.get(&key("g", 0, 1)).is_none());
        assert!(c.get(&key("g", 0, 2)).is_some(), "untouched plan survives");
        assert!(c.get(&key("h", 0, 1)).is_some(), "other graph survives");
    }

    #[test]
    fn tracked_pairs_ignores_stale_epochs() {
        let mut c = PlanCache::new(8);
        // Old-generation leftovers at epoch 0 (not yet aged out), plus
        // live plans at epoch 1.
        c.insert(key("g", 0, 1), plan_for(1));
        c.insert(key("g", 0, 7), plan_for(2));
        c.insert(key("g", 1, 2), plan_for(3));
        c.insert(key("g", 1, 3), plan_for(4));
        // Another graph at the queried epoch never leaks in.
        c.insert(key("h", 1, 9), plan_for(5));
        assert_eq!(c.tracked_pairs("g", 1), vec![(2, 1), (3, 1)]);
        assert_eq!(c.tracked_pairs("g", 0), vec![(1, 1), (7, 1)]);
        assert_eq!(c.tracked_pairs("g", 2), vec![]);
    }

    #[test]
    fn lru_keeps_pinned_plan_resident_across_churn() {
        // A plan that is touched between inserts survives arbitrary
        // churn: each insert's eviction scan removes the true LRU, not
        // the hot slot.
        let mut c = PlanCache::new(3);
        c.insert(key("g", 0, 1), plan_for(1));
        for alpha in 2..20u32 {
            assert!(c.get(&key("g", 0, 1)).is_some(), "alpha={alpha}");
            c.insert(key("g", 0, alpha), plan_for(alpha as u64));
            assert!(c.len() <= 3);
        }
        assert!(c.get(&key("g", 0, 1)).is_some(), "pinned plan survived");
        // 18 inserts into 3 slots with one pinned → 16 evictions.
        assert_eq!(c.evictions, 16);
        // And the evicted ones are really gone.
        assert!(c.get(&key("g", 0, 2)).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        c.insert(key("g", 0, 1), plan_for(1));
        assert!(c.get(&key("g", 0, 1)).is_none());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn theta_is_part_of_the_key() {
        use fair_biclique::config::ProParams;
        let a = PlanKey::new(
            "g",
            0,
            QueryModel::Pssfbc(ProParams::new(1, 1, 1, 0.2).unwrap()),
            Substrate::Auto,
        );
        let b = PlanKey::new(
            "g",
            0,
            QueryModel::Pssfbc(ProParams::new(1, 1, 1, 0.3).unwrap()),
            Substrate::Auto,
        );
        assert_ne!(a, b);
        // Absolute vs proportion-at-θ=0 differ by model tag.
        let c = PlanKey::new(
            "g",
            0,
            QueryModel::Ssfbc(FairParams::unchecked(1, 1, 1)),
            Substrate::Auto,
        );
        let d = PlanKey::new(
            "g",
            0,
            QueryModel::Pssfbc(ProParams::new(1, 1, 1, 0.0).unwrap()),
            Substrate::Auto,
        );
        assert_ne!(c, d);
    }
}
