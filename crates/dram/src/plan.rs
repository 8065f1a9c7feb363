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
//! [`PlanCache`] is an exact LRU with O(1) lookup and eviction: an index
//! keyed by the full aggressor list (so two patterns never share a
//! plan) over a slab whose entries form an intrusive recency list. The
//! profiling loop's characterize/stability re-hammers, the steering
//! stage and the exploit stage all replay recent patterns, which is
//! exactly the reuse an LRU captures.

use std::collections::HashMap;
use std::sync::Arc;

use hh_sim::addr::Hpa;
use hh_sim::hash::BuildU64Hasher;

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

/// Slab index meaning "no entry" in the recency list.
const NIL: u32 = u32::MAX;

/// One resident plan plus its links in the recency list (`prev` is the
/// more recently used neighbour).
struct CacheEntry {
    plan: Arc<HammerPlan>,
    prev: u32,
    next: u32,
}

/// A least-recently-used cache of compiled plans.
///
/// `get` and `insert` are O(1): an index keyed by the full aggressor
/// list finds the entry in a slab, and recency is an intrusive
/// doubly-linked list over that slab (most recent at the head), the same
/// idiom as the buddy allocator's frame table. A hit moves its entry to
/// the head; a miss on a full cache evicts the tail and reuses its slot.
/// Keying by the whole list means two patterns can never share an entry.
pub struct PlanCache {
    capacity: usize,
    hits: u64,
    misses: u64,
    index: HashMap<Box<[Hpa]>, u32, BuildU64Hasher>,
    entries: Vec<CacheEntry>,
    head: u32,
    tail: u32,
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
    /// Panics if `capacity` is zero or does not fit the slab's `u32`
    /// links.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache needs room for at least one plan");
        assert!(capacity < NIL as usize, "plan cache capacity too large");
        Self {
            capacity,
            hits: 0,
            misses: 0,
            index: HashMap::default(),
            entries: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Looks up the plan for `aggressors`, refreshing its LRU position.
    /// Counts a miss when absent.
    pub fn get(&mut self, aggressors: &[Hpa]) -> Option<Arc<HammerPlan>> {
        match self.index.get(aggressors) {
            Some(&slot) => {
                self.hits += 1;
                self.touch(slot);
                Some(Arc::clone(&self.entries[slot as usize].plan))
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
        if let Some(&slot) = self.index.get(plan.aggressors()) {
            self.entries[slot as usize].plan = plan;
            self.touch(slot);
            return;
        }
        let key: Box<[Hpa]> = plan.aggressors().into();
        let slot = if self.entries.len() >= self.capacity {
            // Evict the tail and reuse its slot for the new plan.
            let slot = self.tail;
            self.unlink(slot);
            let entry = &mut self.entries[slot as usize];
            self.index.remove(entry.plan.aggressors());
            entry.plan = plan;
            slot
        } else {
            self.entries.push(CacheEntry {
                plan,
                prev: NIL,
                next: NIL,
            });
            (self.entries.len() - 1) as u32
        };
        self.index.insert(key, slot);
        self.push_front(slot);
    }

    /// Drops every cached plan (stats are kept).
    pub fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
        self.head = NIL;
        self.tail = NIL;
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

    /// Moves a resident entry to the head (most recently used).
    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let CacheEntry { prev, next, .. } = self.entries[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let entry = &mut self.entries[slot as usize];
        entry.prev = NIL;
        entry.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.entries[h as usize].prev = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use hh_sim::check;
    use hh_sim::rng::SimRng;

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

    /// Reference model: a linear-scan LRU in which every entry carries
    /// its last-use tick, lookups scan, and eviction removes the entry
    /// with the smallest tick.
    struct ScanLru {
        capacity: usize,
        tick: u64,
        entries: Vec<(u64, Arc<HammerPlan>)>,
    }

    impl ScanLru {
        fn get(&mut self, aggressors: &[Hpa]) -> Option<Arc<HammerPlan>> {
            self.tick += 1;
            let entry = self
                .entries
                .iter_mut()
                .find(|(_, p)| p.aggressors() == aggressors)?;
            entry.0 = self.tick;
            Some(Arc::clone(&entry.1))
        }

        fn insert(&mut self, plan: Arc<HammerPlan>) {
            self.tick += 1;
            if let Some(entry) = self
                .entries
                .iter_mut()
                .find(|(_, p)| p.aggressors() == plan.aggressors())
            {
                *entry = (self.tick, plan);
                return;
            }
            if self.entries.len() >= self.capacity {
                let oldest = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].0)
                    .expect("a full cache has entries");
                self.entries.swap_remove(oldest);
            }
            self.entries.push((self.tick, plan));
        }

        fn resident(&self) -> Vec<Vec<Hpa>> {
            let mut keys: Vec<Vec<Hpa>> = self
                .entries
                .iter()
                .map(|(_, p)| p.aggressors().to_vec())
                .collect();
            keys.sort();
            keys
        }
    }

    fn resident(cache: &PlanCache) -> Vec<Vec<Hpa>> {
        let mut keys: Vec<Vec<Hpa>> = cache
            .entries
            .iter()
            .map(|e| e.plan.aggressors().to_vec())
            .collect();
        keys.sort();
        keys
    }

    #[test]
    fn matches_the_linear_scan_lru_model() {
        for capacity in [1usize, 2, 128] {
            check::cases(0x91a2 + capacity as u64, 48, |rng| {
                let mut cache = PlanCache::with_capacity(capacity);
                let mut model = ScanLru {
                    capacity,
                    tick: 0,
                    entries: Vec::new(),
                };
                // A key pool a little larger than the cache, so hits,
                // misses and evictions all happen; the same rows in a
                // different order are a different key.
                let pool = capacity + capacity / 2 + 2;
                let key = |rng: &mut SimRng| -> Vec<Hpa> {
                    let k = rng.gen_range(0..pool) as u64;
                    match k % 3 {
                        0 => aggs(&[k << 18]),
                        1 => aggs(&[k << 18, (k + 1) << 18]),
                        _ => aggs(&[(k - 1) << 18, k << 18]),
                    }
                };
                for step in 0..600 {
                    match rng.gen_range(0u32..100) {
                        0 => {
                            cache.clear();
                            model.entries.clear();
                        }
                        1..=55 => {
                            let k = key(rng);
                            let (got, want) = (cache.get(&k), model.get(&k));
                            match (&got, &want) {
                                (Some(a), Some(b)) => assert!(Arc::ptr_eq(a, b), "step {step}"),
                                (None, None) => {}
                                _ => panic!("step {step}: hit/miss diverged on {k:?}"),
                            }
                        }
                        _ => {
                            let plan = Arc::new(HammerPlan::new(key(rng), 7, Vec::new()));
                            cache.insert(Arc::clone(&plan));
                            model.insert(plan);
                        }
                    }
                    assert_eq!(cache.stats().len, model.entries.len(), "step {step}");
                    assert_eq!(resident(&cache), model.resident(), "step {step}");
                }
            });
        }
    }

    #[test]
    #[should_panic(expected = "at least one plan")]
    fn zero_capacity_is_rejected() {
        PlanCache::with_capacity(0);
    }
}
