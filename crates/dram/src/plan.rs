//! Compiled hammer plans and the per-device plan cache.
//!
//! [`DramDevice::hammer`](crate::DramDevice::hammer) used to re-derive
//! the per-bank aggressor grouping, the victim-row set and the distance
//! weights on **every** burst, even though all of them are a pure
//! function of the pattern and the geometry. A [`HammerPlan`] resolves
//! that work once — flat, sorted vectors instead of per-call `HashMap`s
//! — and additionally embeds each victim row's bank-filtered
//! [`VulnerableCell`]s, so executing a burst touches no hash table and
//! allocates nothing on the hot path.
//!
//! Plans are immutable and rounds-independent: the stochastic parts of a
//! burst (TRR sampler overflow picks, per-cell flip draws) still happen
//! at execution time against the device RNG, so a burst executed from a
//! cached plan is **bit-identical** to one executed from a freshly
//! compiled plan — `tests/plan_props.rs` proves it, trace events
//! included.
//!
//! [`PlanCache`] is a small LRU keyed by an FNV-1a hash of the aggressor
//! addresses; entries verify the full address list on lookup, so a hash
//! collision costs a recompile, never a wrong plan. The profiling loop's
//! characterize/stability re-hammers, the steering stage and the exploit
//! stage all replay recent patterns, which is exactly the reuse an LRU
//! captures.

use std::sync::Arc;

use hh_sim::addr::Hpa;

use crate::fault::VulnerableCell;

/// Disturbance contribution of one aggressor to one victim row: the
/// index of the aggressor within the bank's sorted row list (so TRR
/// verdicts can gate it) and its distance weight.
type Contribution = (u32, f64);

/// One victim row of a bank plan: which aggressors disturb it, at what
/// weight, and which of the device's weak cells sit in it (pre-filtered
/// to the plan's bank).
#[derive(Debug, Clone, PartialEq)]
pub struct VictimPlan {
    row: u64,
    contribs: Vec<Contribution>,
    cells: Vec<VulnerableCell>,
}

impl VictimPlan {
    pub(crate) fn new(row: u64, contribs: Vec<Contribution>, cells: Vec<VulnerableCell>) -> Self {
        Self {
            row,
            contribs,
            cells,
        }
    }

    /// The victim row index.
    pub fn row(&self) -> u64 {
        self.row
    }

    /// `(aggressor index, weight)` pairs, in compile order.
    pub(crate) fn contribs(&self) -> &[Contribution] {
        &self.contribs
    }

    /// The victim row's vulnerable cells within the plan's bank.
    pub fn cells(&self) -> &[VulnerableCell] {
        &self.cells
    }
}

/// The per-bank slice of a plan: sorted unique aggressor rows plus the
/// victim rows they disturb, sorted by row.
#[derive(Debug, Clone, PartialEq)]
pub struct BankPlan {
    bank: u32,
    rows: Vec<u64>,
    victims: Vec<VictimPlan>,
}

impl BankPlan {
    pub(crate) fn new(bank: u32, rows: Vec<u64>, victims: Vec<VictimPlan>) -> Self {
        Self {
            bank,
            rows,
            victims,
        }
    }

    /// The DRAM bank this slice hammers.
    pub fn bank(&self) -> u32 {
        self.bank
    }

    /// Sorted unique aggressor rows (the TRR sampler's view).
    pub fn rows(&self) -> &[u64] {
        &self.rows
    }

    /// Victim rows in ascending order.
    pub fn victims(&self) -> &[VictimPlan] {
        &self.victims
    }
}

/// A hammer pattern compiled against one device's geometry and fault
/// profile: everything about a burst that does not depend on `rounds`
/// or the RNG, resolved once into flat sorted vectors.
///
/// Compile with [`DramDevice::plan_for`](crate::DramDevice::plan_for)
/// (cached) or [`DramDevice::compile_plan`](crate::DramDevice::compile_plan)
/// (always fresh); execute with
/// [`DramDevice::hammer_planned`](crate::DramDevice::hammer_planned) or
/// implicitly through [`DramDevice::hammer`](crate::DramDevice::hammer).
#[derive(Debug, Clone, PartialEq)]
pub struct HammerPlan {
    aggressors: Vec<Hpa>,
    device_token: u64,
    banks: Vec<BankPlan>,
}

impl HammerPlan {
    pub(crate) fn new(aggressors: Vec<Hpa>, device_token: u64, banks: Vec<BankPlan>) -> Self {
        Self {
            aggressors,
            device_token,
            banks,
        }
    }

    /// The aggressor addresses the plan was compiled from.
    pub fn aggressors(&self) -> &[Hpa] {
        &self.aggressors
    }

    /// Token binding the plan to the device (seed + geometry) it was
    /// compiled for; executing it elsewhere panics.
    pub(crate) fn device_token(&self) -> u64 {
        self.device_token
    }

    /// Per-bank execution slices, in ascending bank order.
    pub fn banks(&self) -> &[BankPlan] {
        &self.banks
    }

    /// Total victim rows across all banks (diagnostics / tests).
    pub fn victim_count(&self) -> usize {
        self.banks.iter().map(|b| b.victims.len()).sum()
    }
}

/// FNV-1a over the aggressor address list — the plan-cache key. Stable
/// across processes (unlike `RandomState`), so cache behaviour is as
/// deterministic as everything else in the simulator.
pub fn hash_aggressors(aggressors: &[Hpa]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for a in aggressors {
        for byte in a.raw().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Point-in-time counters of a [`PlanCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that forced a compile.
    pub misses: u64,
    /// Plans currently resident.
    pub len: usize,
    /// Maximum resident plans before LRU eviction.
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Hit fraction over all lookups (0.0 with no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheEntry {
    hash: u64,
    last_use: u64,
    plan: Arc<HammerPlan>,
}

/// A least-recently-used cache of compiled plans.
///
/// Capacity is small (default 128) and lookups verify the full aggressor
/// list, so a linear scan beats a hash map here — no rehashing, no
/// allocation on hit, deterministic iteration.
pub struct PlanCache {
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    entries: Vec<CacheEntry>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.entries.len())
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// Default number of resident plans: comfortably covers the 64 pattern
/// classes the profiler sweeps per hugepage plus the exploit stage's
/// working set.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache needs room for at least one plan");
        Self {
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            entries: Vec::new(),
        }
    }

    /// Looks up the plan for `aggressors`, refreshing its LRU position.
    /// Counts a miss when absent.
    pub fn get(&mut self, aggressors: &[Hpa]) -> Option<Arc<HammerPlan>> {
        let hash = hash_aggressors(aggressors);
        self.tick += 1;
        let found = self
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.plan.aggressors() == aggressors);
        match found {
            Some(entry) => {
                entry.last_use = self.tick;
                self.hits += 1;
                Some(Arc::clone(&entry.plan))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a plan, evicting the least recently used entry when full.
    /// An existing entry for the same aggressors is replaced in place.
    pub fn insert(&mut self, plan: Arc<HammerPlan>) {
        let hash = hash_aggressors(plan.aggressors());
        self.tick += 1;
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|e| e.hash == hash && e.plan.aggressors() == plan.aggressors())
        {
            entry.plan = plan;
            entry.last_use = self.tick;
            return;
        }
        if self.entries.len() >= self.capacity {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("capacity > 0 so a full cache has entries");
            self.entries.swap_remove(oldest);
        }
        self.entries.push(CacheEntry {
            hash,
            last_use: self.tick,
            plan,
        });
    }

    /// Drops every cached plan (stats are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Current counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(addrs: &[u64]) -> Arc<HammerPlan> {
        Arc::new(HammerPlan::new(
            addrs.iter().map(|&a| Hpa::new(a)).collect(),
            7,
            Vec::new(),
        ))
    }

    fn aggs(addrs: &[u64]) -> Vec<Hpa> {
        addrs.iter().map(|&a| Hpa::new(a)).collect()
    }

    #[test]
    fn get_after_insert_hits_and_counts() {
        let mut cache = PlanCache::with_capacity(4);
        assert!(cache.get(&aggs(&[0x40000])).is_none());
        cache.insert(plan_for(&[0x40000]));
        let hit = cache.get(&aggs(&[0x40000])).expect("cached");
        assert_eq!(hit.aggressors(), aggs(&[0x40000]).as_slice());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = PlanCache::with_capacity(2);
        cache.insert(plan_for(&[1 << 18]));
        cache.insert(plan_for(&[2 << 18]));
        // Touch the first entry so the second becomes LRU.
        assert!(cache.get(&aggs(&[1 << 18])).is_some());
        cache.insert(plan_for(&[3 << 18]));
        assert_eq!(cache.stats().len, 2);
        assert!(cache.get(&aggs(&[1 << 18])).is_some(), "recently used kept");
        assert!(cache.get(&aggs(&[2 << 18])).is_none(), "LRU entry evicted");
        assert!(cache.get(&aggs(&[3 << 18])).is_some(), "new entry resident");
    }

    #[test]
    fn reinsert_replaces_in_place_without_eviction() {
        let mut cache = PlanCache::with_capacity(2);
        cache.insert(plan_for(&[1 << 18]));
        cache.insert(plan_for(&[2 << 18]));
        cache.insert(plan_for(&[1 << 18]));
        assert_eq!(cache.stats().len, 2);
        assert!(cache.get(&aggs(&[2 << 18])).is_some());
    }

    #[test]
    fn different_patterns_do_not_alias() {
        let mut cache = PlanCache::with_capacity(8);
        cache.insert(plan_for(&[1 << 18, 2 << 18]));
        assert!(cache.get(&aggs(&[2 << 18, 1 << 18])).is_none());
        assert!(cache.get(&aggs(&[1 << 18])).is_none());
        assert!(cache.get(&aggs(&[1 << 18, 2 << 18])).is_some());
    }

    #[test]
    fn clear_drops_plans_but_keeps_counters() {
        let mut cache = PlanCache::with_capacity(4);
        cache.insert(plan_for(&[1 << 18]));
        assert!(cache.get(&aggs(&[1 << 18])).is_some());
        cache.clear();
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.get(&aggs(&[1 << 18])).is_none());
    }

    #[test]
    fn hash_is_stable_and_order_sensitive() {
        let a = hash_aggressors(&aggs(&[0x40000, 0x80000]));
        let b = hash_aggressors(&aggs(&[0x40000, 0x80000]));
        let c = hash_aggressors(&aggs(&[0x80000, 0x40000]));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one plan")]
    fn zero_capacity_is_rejected() {
        PlanCache::with_capacity(0);
    }
}
