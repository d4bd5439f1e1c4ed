//! Persistent SMM runtime: sharded plan cache and runtime statistics.
//!
//! Small-matrix workloads call GEMM millions of times over a handful of
//! distinct shapes (§I of the paper), so the per-call fixed costs —
//! planning and thread startup — dominate unless they are amortized.
//! The runtime amortizes both:
//!
//! * plans are memoized in a [`ShardedPlanCache`]: shape keys hash to
//!   one of [`SHARDS`] independent `RwLock`ed maps, so the steady-state
//!   path (cache hit) takes only a shared lock on one shard and
//!   concurrent callers on different shapes almost never contend;
//! * execution is submitted to a persistent [`TaskPool`] (re-exported
//!   from `smm-gemm`) whose workers are spawned once and parked between
//!   calls — no `thread::spawn` on the GEMM hot path.
//!
//! [`RuntimeStats`] exposes hit/miss/eviction counters so the
//! amortization claim is observable rather than assumed.

use std::collections::HashMap;
use std::sync::Arc;

use smm_sync::sync::atomic::{AtomicU64, Ordering};
use smm_sync::sync::RwLock;

use crate::plan::{PlanConfig, SmmPlan};

pub use smm_gemm::pool::{PoolStats, TaskPool};

/// Number of independently locked shards. A power of two so the shard
/// index is a mask; 16 is plenty for the thread counts the paper's
/// Phytium 2000+ study targets per NUMA node.
pub const SHARDS: usize = 16;

/// Default total plan capacity of a [`ShardedPlanCache`].
pub const DEFAULT_PLAN_CAPACITY: usize = 1024;

/// Snapshot of runtime counters, returned by [`crate::Smm::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Plan-cache lookups served by a cached plan, including lookups
    /// that built a plan but lost the insert race to a concurrent miss
    /// and adopted the winner's.
    pub plan_hits: u64,
    /// Plan-cache lookups that built and inserted a plan.
    pub plan_misses: u64,
    /// Plans dropped because a shard reached its capacity.
    pub plan_evictions: u64,
    /// Shapes with resident plans, across all shards. A shape holds one
    /// plan per thread budget it was asked for: on a threaded instance
    /// `gemm` and `gemm_batch` plan the same shape apart.
    pub cached_plans: usize,
    /// Worker threads of the pool backing this instance.
    pub pool_workers: usize,
}

fn shard_of(key: (usize, usize, usize)) -> usize {
    // Fibonacci-hash the shape so that near-identical shapes (the
    // common case in sweeps) spread across shards.
    let h = key
        .0
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(key.1.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add(key.2.wrapping_mul(0x1656_67B1_9E37_79F9));
    (h >> 48) & (SHARDS - 1)
}

/// The plans of one shape, one per thread budget.
type ShapePlans = Vec<(usize, Arc<SmmPlan>)>;

type Shard = RwLock<HashMap<(usize, usize, usize), ShapePlans>>;

/// The plan for `threads` among a shape's plans.
fn plan_for_budget(plans: &ShapePlans, threads: usize) -> Option<Arc<SmmPlan>> {
    plans
        .iter()
        .find(|(t, _)| *t == threads)
        .map(|(_, p)| Arc::clone(p))
}

/// Read-mostly memoization of [`SmmPlan`]s keyed by `(m, n, k)` and
/// thread budget. A threaded plan may pack differently from the
/// single-threaded plan of the same shape (packing pays per thread),
/// so each budget asked for gets its own plan; capacity and residency
/// count shapes, and a shape is evicted with all its plans.
///
/// Lookups take a shared (read) lock on one shard only; plan
/// construction happens outside any lock, and the insert double-checks
/// so concurrent misses on the same key converge on one plan.
pub struct ShardedPlanCache {
    shards: [Shard; SHARDS],
    /// Per-shard entry cap (0 = unbounded).
    shard_capacity: usize,
    /// Cache statistics; relaxed — independent monotonic counters
    /// bumped outside the shard locks and read only for reporting.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedPlanCache {
    /// Cache bounded to roughly `capacity` shapes in total
    /// (`capacity == 0` means unbounded).
    ///
    /// Bounded shards pre-allocate to their cap so a fill-up never
    /// rehashes mid-request: the resize spikes land exactly in the
    /// cold-start tail the serving layer gates on.
    pub fn new(capacity: usize) -> Self {
        let shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(SHARDS)
        };
        ShardedPlanCache {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::with_capacity(shard_capacity))),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The plan for `(m, n, k)` under `cfg.max_threads`, building it
    /// with `cfg` on a miss.
    pub fn get_or_build(&self, m: usize, n: usize, k: usize, cfg: &PlanConfig) -> Arc<SmmPlan> {
        self.get_or_insert_with(m, n, k, cfg.max_threads, || SmmPlan::build(m, n, k, cfg))
    }

    /// The plan for `(m, n, k)` under a budget of `threads` (0 counts
    /// as 1), calling `build` on a miss. The general entry point behind
    /// [`Self::get_or_build`]: the two-stage tuner supplies
    /// database-derived plans through the same cache, so the
    /// steady-state hit path is identical no matter where a plan came
    /// from.
    pub fn get_or_insert_with(
        &self,
        m: usize,
        n: usize,
        k: usize,
        threads: usize,
        build: impl FnOnce() -> SmmPlan,
    ) -> Arc<SmmPlan> {
        let key = (m, n, k);
        let threads = threads.max(1);
        let shard = &self.shards[shard_of(key)];
        let cached = shard
            .read()
            .unwrap()
            .get(&key)
            .and_then(|p| plan_for_budget(p, threads));
        if let Some(plan) = cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return plan;
        }
        // Build outside the lock: planning may simulate candidate
        // kernels and must not serialize other shapes' lookups.
        let built = Arc::new(build());
        let mut map = shard.write().unwrap();
        if let Some(plan) = map.get(&key).and_then(|p| plan_for_budget(p, threads)) {
            // A concurrent miss won the race; adopt its plan. The call
            // is served from the cache, so it counts as a hit — misses
            // count inserted plans, and `hits + misses` stays the
            // number of calls.
            self.hits.fetch_add(1, Ordering::Relaxed);
            return plan;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let full = self.shard_capacity != 0 && map.len() >= self.shard_capacity;
        if full && !map.contains_key(&key) {
            // Arbitrary eviction: SMM workloads cycle over few shapes,
            // so anything resident beyond capacity is equally cold.
            if let Some(&victim) = map.keys().next() {
                let dropped = map.remove(&victim).map_or(0, |p| p.len());
                self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
            }
        }
        map.entry(key)
            .or_default()
            .push((threads, Arc::clone(&built)));
        built
    }

    /// Shapes with resident plans, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached plan (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.write().unwrap().clear();
        }
    }

    /// Counter snapshot, with `pool_workers` filled in by the caller.
    pub fn stats(&self, pool_workers: usize) -> RuntimeStats {
        RuntimeStats {
            plan_hits: self.hits.load(Ordering::Relaxed),
            plan_misses: self.misses.load(Ordering::Relaxed),
            plan_evictions: self.evictions.load(Ordering::Relaxed),
            cached_plans: self.len(),
            pool_workers,
        }
    }
}

impl Default for ShardedPlanCache {
    fn default() -> Self {
        Self::new(DEFAULT_PLAN_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_same_plan() {
        let cache = ShardedPlanCache::default();
        let cfg = PlanConfig::default();
        let a = cache.get_or_build(8, 8, 8, &cfg);
        let b = cache.get_or_build(8, 8, 8, &cfg);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats(0);
        assert_eq!(s.plan_hits, 1);
        assert_eq!(s.plan_misses, 1);
        assert_eq!(s.cached_plans, 1);
    }

    #[test]
    fn distinct_shapes_are_distinct_entries() {
        let cache = ShardedPlanCache::default();
        let cfg = PlanConfig::default();
        cache.get_or_build(4, 4, 4, &cfg);
        cache.get_or_build(4, 4, 5, &cfg);
        cache.get_or_build(5, 4, 4, &cfg);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats(0).plan_misses, 3);
    }

    #[test]
    fn thread_budgets_share_one_shape_entry() {
        let cache = ShardedPlanCache::default();
        let one = cache.get_or_build(64, 64, 64, &PlanConfig::default());
        let cfg4 = PlanConfig {
            max_threads: 4,
            ..Default::default()
        };
        let four = cache.get_or_build(64, 64, 64, &cfg4);
        assert!(!Arc::ptr_eq(&one, &four));
        assert_eq!(four.threads(), 4);
        assert_eq!(cache.len(), 1, "one shape resident");
        assert_eq!(cache.stats(0).plan_misses, 2);
        // A budget of 0 is a budget of 1.
        let zero = cache.get_or_insert_with(64, 64, 64, 0, || unreachable!());
        assert!(Arc::ptr_eq(&one, &zero));
    }

    #[test]
    fn capacity_bounds_residency() {
        // capacity 16 → 1 entry per shard; far more shapes than that.
        let cache = ShardedPlanCache::new(16);
        let cfg = PlanConfig::default();
        for m in 1..=40 {
            cache.get_or_build(m, 3, 3, &cfg);
        }
        assert!(cache.len() <= SHARDS, "len {} > {}", cache.len(), SHARDS);
        let s = cache.stats(0);
        assert_eq!(s.plan_misses, 40);
        assert_eq!(s.plan_evictions as usize + cache.len(), 40);
    }

    #[test]
    fn zero_capacity_is_unbounded() {
        let cache = ShardedPlanCache::new(0);
        let cfg = PlanConfig::default();
        for m in 1..=40 {
            cache.get_or_build(m, 3, 3, &cfg);
        }
        assert_eq!(cache.len(), 40);
        assert_eq!(cache.stats(0).plan_evictions, 0);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ShardedPlanCache::default();
        let cfg = PlanConfig::default();
        cache.get_or_build(6, 6, 6, &cfg);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(0).plan_misses, 1);
    }

    #[test]
    fn concurrent_misses_converge() {
        let cache = Arc::new(ShardedPlanCache::default());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                cache.get_or_build(12, 12, 12, &PlanConfig::default())
            }));
        }
        let plans: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &plans[1..] {
            assert!(Arc::ptr_eq(&plans[0], p));
        }
        assert_eq!(cache.len(), 1);
        let s = cache.stats(0);
        assert_eq!(s.plan_hits + s.plan_misses, 8);
    }

    /// Two threads miss the same shape at once: a barrier inside
    /// `build` holds both builders until each has missed. Exactly one
    /// plan is inserted (one miss); the loser adopts it (one hit).
    #[test]
    fn racing_misses_count_one_miss_and_one_hit() {
        let cache = ShardedPlanCache::default();
        let barrier = std::sync::Barrier::new(2);
        let plans: Vec<Arc<SmmPlan>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        cache.get_or_insert_with(9, 9, 9, 1, || {
                            barrier.wait();
                            SmmPlan::build(9, 9, 9, &PlanConfig::default())
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(Arc::ptr_eq(&plans[0], &plans[1]));
        assert_eq!(cache.len(), 1);
        let s = cache.stats(0);
        assert_eq!((s.plan_misses, s.plan_hits), (1, 1));
    }

    #[test]
    fn shard_of_is_in_range_and_spreads() {
        let mut seen = std::collections::HashSet::new();
        for m in 0..64usize {
            let s = shard_of((m, m + 1, m + 2));
            assert!(s < SHARDS);
            seen.insert(s);
        }
        assert!(seen.len() > SHARDS / 2, "only {} shards used", seen.len());
    }
}
