//! The buddy allocator core: split, coalesce, steal.

use std::collections::HashMap;
use std::fmt;

use hh_sim::addr::Pfn;
use hh_trace::Tracer;

use crate::free_list::FreeList;
use crate::pcp::{PcpCache, PcpConfig};
use crate::report::{OrderCounts, PageTypeInfo};
use crate::MigrateType;

/// `MAX_ORDER` on x86-64: orders 0..=10 exist, the largest block is
/// 2^10 pages = 4 MiB (§2.3 of the paper).
pub const MAX_ORDER: u8 = 11;

/// Allocation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// No block of sufficient order in any migration type.
    OutOfMemory {
        /// The order that could not be satisfied.
        order: u8,
    },
    /// Requested order ≥ [`MAX_ORDER`].
    OrderTooLarge {
        /// The requested order.
        order: u8,
    },
    /// A transient failure injected by [`AllocJitter`]. The allocator
    /// state is untouched; the caller may simply retry.
    Transient,
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory { order } => {
                write!(f, "out of memory allocating an order-{order} block")
            }
            AllocError::OrderTooLarge { order } => {
                write!(f, "order {order} exceeds MAX_ORDER ({MAX_ORDER})")
            }
            AllocError::Transient => write!(f, "transient allocation jitter"),
        }
    }
}

/// Deterministic allocation jitter: fails a configurable fraction of
/// [`BuddyAllocator::alloc_page`] calls with [`AllocError::Transient`]
/// before any allocator state changes.
///
/// The decision for call `n` is a pure function of `(seed, n)`, so a
/// jittered allocator remains bit-reproducible: the same seed and the
/// same call sequence always fail the same calls, independent of worker
/// count or wall-clock time.
#[derive(Debug, Clone)]
pub struct AllocJitter {
    seed: u64,
    rate: f64,
    calls: u64,
}

impl AllocJitter {
    /// Creates a jitter source failing ~`rate` of page allocations.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn new(seed: u64, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "jitter rate {rate} out of range"
        );
        Self {
            seed,
            rate,
            calls: 0,
        }
    }

    /// Draws the next decision: `true` means this call fails.
    fn trips(&mut self) -> bool {
        if self.rate <= 0.0 {
            return false;
        }
        self.calls += 1;
        let x = hh_sim::rng::SplitMix64::new(
            self.seed ^ self.calls.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
        .next();
        // 53 uniform mantissa bits, the same construction SimRng uses.
        ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < self.rate
    }
}

impl std::error::Error for AllocError {}

/// Free failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// The block was not allocated (double free or bad base/order).
    NotAllocated {
        /// Base frame of the rejected block.
        base: Pfn,
    },
    /// The block was allocated with a different order.
    WrongOrder {
        /// Base frame of the rejected block.
        base: Pfn,
        /// The order it was allocated with.
        allocated_order: u8,
    },
}

impl fmt::Display for FreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeError::NotAllocated { base } => {
                write!(f, "freeing unallocated block at frame {base}")
            }
            FreeError::WrongOrder {
                base,
                allocated_order,
            } => {
                write!(
                    f,
                    "block at frame {base} was allocated at order {allocated_order}"
                )
            }
        }
    }
}

impl std::error::Error for FreeError {}

/// Lifetime counters, exposed for experiments and ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Block splits performed while allocating.
    pub splits: u64,
    /// Buddy merges performed while freeing.
    pub merges: u64,
    /// Allocations served by stealing from the fallback migration type.
    pub steals: u64,
    /// Order-0 allocations served from the PCP cache without touching
    /// the buddy lists.
    pub pcp_hits: u64,
    /// PCP refills from the buddy lists.
    pub pcp_refills: u64,
}

/// A plain-data image of a [`BuddyAllocator`]'s state: frames, free
/// lists, block indices, the allocated map, the PCP cache and lifetime
/// stats — everything except the tracer handle and jitter source, which
/// are per-instantiation concerns.
///
/// Snapshots exist so campaign grids can pay for boot-time noise once
/// per scenario and stamp out per-cell allocators with
/// [`BuddyAllocator::from_snapshot`] instead of replaying the whole
/// allocation sequence for every cell. Unlike the allocator itself
/// (whose tracer holds an `Rc`), a snapshot is `Send + Sync`, so one
/// snapshot can seed allocators on many worker threads.
#[derive(Debug, Clone)]
pub struct BuddySnapshot {
    frames: u64,
    free: [[FreeList; MAX_ORDER as usize]; 2],
    free_index: HashMap<u64, (u8, MigrateType)>,
    allocated: HashMap<u64, (u8, MigrateType)>,
    pcp: PcpCache,
    stats: AllocStats,
}

/// A single-zone buddy allocator with two migration types and a per-CPU
/// pageset cache.
///
/// See the [crate documentation](crate) for the modelled behaviours.
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    frames: u64,
    /// `free[migratetype][order]`.
    free: [[FreeList; MAX_ORDER as usize]; 2],
    /// Base PFN → (order, migratetype) of every free block, for O(1)
    /// buddy lookup during coalescing.
    free_index: HashMap<u64, (u8, MigrateType)>,
    /// Base PFN → (order, migratetype) of every allocated block, for
    /// double-free detection and pinned-type accounting.
    allocated: HashMap<u64, (u8, MigrateType)>,
    pcp: PcpCache,
    stats: AllocStats,
    tracer: Tracer,
    jitter: Option<AllocJitter>,
}

impl BuddyAllocator {
    /// Creates an allocator managing `frames` page frames, all initially
    /// free and `Movable` (boot-time pageblocks default to movable).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn new(frames: u64) -> Self {
        Self::with_pcp(frames, PcpConfig::default())
    }

    /// Creates an allocator with an explicit PCP configuration (use
    /// [`PcpConfig::disabled`] for the ablation without the cache).
    ///
    /// # Panics
    ///
    /// Panics if `frames` is zero.
    pub fn with_pcp(frames: u64, pcp: PcpConfig) -> Self {
        assert!(frames > 0, "empty zone");
        let mut this = Self {
            frames,
            free: Default::default(),
            free_index: HashMap::new(),
            allocated: HashMap::new(),
            pcp: PcpCache::new(pcp),
            stats: AllocStats::default(),
            tracer: Tracer::off(),
            jitter: None,
        };
        // Seed the free lists with maximal aligned blocks.
        let mut base = 0u64;
        while base < frames {
            let mut order = MAX_ORDER - 1;
            loop {
                let size = 1u64 << order;
                if base.is_multiple_of(size) && base + size <= frames {
                    break;
                }
                order -= 1;
            }
            this.insert_free(base, order, MigrateType::Movable);
            base += 1u64 << order;
        }
        this
    }

    /// Captures the allocator's current state as a thread-shareable
    /// [`BuddySnapshot`]. The tracer and jitter source are not part of
    /// the snapshot.
    pub fn snapshot(&self) -> BuddySnapshot {
        BuddySnapshot {
            frames: self.frames,
            free: self.free.clone(),
            free_index: self.free_index.clone(),
            allocated: self.allocated.clone(),
            pcp: self.pcp.clone(),
            stats: self.stats,
        }
    }

    /// Rebuilds an allocator from a snapshot, bit-identical to the
    /// snapshotted one apart from instrumentation: the restored
    /// allocator starts with [`Tracer::off`] and no jitter — attach
    /// both afterwards if needed.
    pub fn from_snapshot(snap: &BuddySnapshot) -> Self {
        Self {
            frames: snap.frames,
            free: snap.free.clone(),
            free_index: snap.free_index.clone(),
            allocated: snap.allocated.clone(),
            pcp: snap.pcp.clone(),
            stats: snap.stats,
            tracer: Tracer::off(),
            jitter: None,
        }
    }

    /// Restores the allocator's page state — free lists (including
    /// their LIFO order), the free/allocated indexes and the per-CPU
    /// caches — to `snap`, keeping the live instrumentation (stats,
    /// tracer, jitter) untouched.
    ///
    /// This is the abort-rollback primitive: an abandoned attack
    /// attempt frees every page it took, so the *count* comes back on
    /// its own, but interleaved split/coalesce traffic leaves the free
    /// lists in a different LIFO order — and buddy allocation order is
    /// exactly what hammer-plan physical layout depends on. Restoring
    /// the snapshot makes a later attempt's allocations independent of
    /// the aborted attempt's fault stream.
    ///
    /// # Panics
    ///
    /// If `snap` came from a zone of a different size.
    pub fn restore_free_state(&mut self, snap: &BuddySnapshot) {
        assert_eq!(
            self.frames, snap.frames,
            "free-state snapshot is from a different zone"
        );
        self.free = snap.free.clone();
        self.free_index = snap.free_index.clone();
        self.allocated = snap.allocated.clone();
        self.pcp = snap.pcp.clone();
    }

    /// An order-sensitive digest of the free state: every free list's
    /// PFN sequence (per migratetype and order) and every per-CPU cache
    /// list, folded in iteration order. Two allocators with the same
    /// free pages in a different LIFO order digest differently — the
    /// property [`restore_free_state`](Self::restore_free_state) exists
    /// to protect.
    pub fn free_state_digest(&self) -> u64 {
        // FNV-1a over (tag, pfn) words; tags separate list boundaries
        // so moving a page between lists always changes the digest.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |word: u64| {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (mt, per_order) in self.free.iter().enumerate() {
            for (order, list) in per_order.iter().enumerate() {
                fold(0x1000_0000 | (mt as u64) << 8 | order as u64);
                for pfn in list.iter() {
                    fold(pfn);
                }
            }
        }
        for mt in MigrateType::ALL {
            fold(0x2000_0000 | mt.index() as u64);
            for pfn in self.pcp.lane_iter(mt) {
                fold(pfn);
            }
        }
        h
    }

    /// Attaches an instrumentation handle; allocations, frees, splits,
    /// merges and exhaustions are reported to it from now on. Clones of
    /// a traced allocator share the same sink.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs (or clears) deterministic allocation jitter on the
    /// [`alloc_page`](Self::alloc_page) path — the page-table/EPT/IOPT
    /// allocations the paper's steering stages lean on. Bulk block
    /// allocations (`alloc`) are never jittered, so VM provisioning
    /// stays reliable.
    pub fn set_alloc_jitter(&mut self, jitter: Option<AllocJitter>) {
        self.jitter = jitter;
    }

    /// Total frames managed.
    pub fn total_frames(&self) -> u64 {
        self.frames
    }

    /// Lifetime counters.
    pub fn stats(&self) -> AllocStats {
        self.stats
    }

    /// Total free pages, including pages parked in the PCP cache.
    pub fn free_pages(&self) -> u64 {
        let buddy: u64 = self
            .free_index
            .iter()
            .map(|(_, &(order, _))| 1u64 << order)
            .sum();
        buddy + self.pcp.total_pages()
    }

    /// Allocates a block of `2^order` contiguous, aligned frames of the
    /// given migration type.
    ///
    /// Follows the kernel's path: smallest sufficient block of the
    /// requested type first (splitting as needed), then stealing from the
    /// fallback type, largest block first.
    ///
    /// # Errors
    ///
    /// [`AllocError::OrderTooLarge`] for orders ≥ [`MAX_ORDER`];
    /// [`AllocError::OutOfMemory`] when both types are exhausted.
    pub fn alloc(&mut self, order: u8, mt: MigrateType) -> Result<Pfn, AllocError> {
        if order >= MAX_ORDER {
            return Err(AllocError::OrderTooLarge { order });
        }
        let base = self.rmqueue(order, mt)?;
        self.allocated.insert(base, (order, mt));
        self.stats.allocs += 1;
        self.tracer.buddy_alloc(order);
        Ok(Pfn::new(base))
    }

    /// Allocates one order-0 page through the PCP cache, the path kernel
    /// page-table (and so EPT/IOPT) allocations take.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the cache cannot be refilled.
    pub fn alloc_page(&mut self, mt: MigrateType) -> Result<Pfn, AllocError> {
        if let Some(jitter) = &mut self.jitter {
            if jitter.trips() {
                self.tracer
                    .fault_injected("buddy_alloc", "allocation jitter");
                return Err(AllocError::Transient);
            }
        }
        if let Some(base) = self.pcp.pop(mt) {
            self.stats.pcp_hits += 1;
            self.allocated.insert(base, (0, mt));
            self.stats.allocs += 1;
            self.tracer.buddy_alloc(0);
            return Ok(Pfn::new(base));
        }
        // Refill a batch, then retry once.
        let batch = self.pcp.batch();
        if batch > 0 {
            let mut refilled = 0;
            for _ in 0..batch {
                match self.rmqueue(0, mt) {
                    Ok(base) => {
                        self.pcp.push_free(mt, base);
                        refilled += 1;
                    }
                    Err(_) => break,
                }
            }
            if refilled > 0 {
                self.stats.pcp_refills += 1;
            }
            if let Some(base) = self.pcp.pop(mt) {
                self.stats.pcp_hits += 1;
                self.allocated.insert(base, (0, mt));
                self.stats.allocs += 1;
                self.tracer.buddy_alloc(0);
                return Ok(Pfn::new(base));
            }
        }
        // PCP disabled or empty zone: direct path.
        self.alloc(0, mt)
    }

    /// Frees a block previously returned by [`Self::alloc`] (or
    /// [`Self::alloc_page`] when freeing at order 0 without the cache).
    ///
    /// # Panics
    ///
    /// Panics on double free or order mismatch — allocator-contract
    /// violations are simulation bugs, not recoverable conditions. Use
    /// [`Self::try_free`] for a checked variant.
    pub fn free(&mut self, base: Pfn, order: u8) {
        if let Err(e) = self.try_free(base, order) {
            panic!("{e}");
        }
    }

    /// Checked variant of [`Self::free`].
    ///
    /// # Errors
    ///
    /// [`FreeError::NotAllocated`] or [`FreeError::WrongOrder`] on
    /// contract violations.
    pub fn try_free(&mut self, base: Pfn, order: u8) -> Result<(), FreeError> {
        let Some(&(allocated_order, mt)) = self.allocated.get(&base.index()) else {
            return Err(FreeError::NotAllocated { base });
        };
        if allocated_order != order {
            return Err(FreeError::WrongOrder {
                base,
                allocated_order,
            });
        }
        self.allocated.remove(&base.index());
        self.stats.frees += 1;
        self.tracer.buddy_free(order);
        self.coalesce_and_insert(base.index(), order, mt);
        Ok(())
    }

    /// Frees one order-0 page through the PCP cache.
    ///
    /// # Panics
    ///
    /// Panics on double free or if the page was not allocated at order 0.
    pub fn free_page(&mut self, base: Pfn) {
        let Some(&(allocated_order, mt)) = self.allocated.get(&base.index()) else {
            panic!("freeing unallocated page at frame {base}");
        };
        assert_eq!(
            allocated_order, 0,
            "free_page on an order-{allocated_order} block"
        );
        self.allocated.remove(&base.index());
        self.stats.frees += 1;
        self.tracer.buddy_free(0);
        if self.pcp.enabled() {
            self.pcp.push_free(mt, base.index());
            // Drain overflow back into the buddy lists.
            let overflow = self.pcp.drain_overflow(mt);
            for page in overflow {
                self.coalesce_and_insert(page, 0, mt);
            }
        } else {
            self.coalesce_and_insert(base.index(), 0, mt);
        }
    }

    /// Re-types an *allocated* block, modelling VFIO pinning guest memory
    /// as `MIGRATE_UNMOVABLE` (§2.6). Affects which list the block joins
    /// when freed.
    ///
    /// # Panics
    ///
    /// Panics if the block is not allocated at `order`.
    pub fn set_migrate_type(&mut self, base: Pfn, order: u8, mt: MigrateType) {
        let entry = self
            .allocated
            .get_mut(&base.index())
            .unwrap_or_else(|| panic!("set_migrate_type on unallocated frame {base}"));
        assert_eq!(entry.0, order, "order mismatch in set_migrate_type");
        entry.1 = mt;
    }

    /// Splits an *allocated* block into `2^order` individually allocated
    /// order-0 pages, modelling a THP split: the memory stays owned, but
    /// each 4 KiB page can now be freed independently (the virtio-balloon
    /// path, §6).
    ///
    /// # Panics
    ///
    /// Panics if the block is not allocated at `order`.
    pub fn split_allocated(&mut self, base: Pfn, order: u8) {
        let Some(&(allocated_order, mt)) = self.allocated.get(&base.index()) else {
            panic!("split_allocated on unallocated frame {base}");
        };
        assert_eq!(allocated_order, order, "order mismatch in split_allocated");
        self.allocated.remove(&base.index());
        for i in 0..1u64 << order {
            self.allocated.insert(base.index() + i, (0, mt));
        }
    }

    /// A `/proc/pagetypeinfo`-style snapshot of the free lists.
    ///
    /// The PCP cache is reported separately, mirroring how the real file
    /// shows buddy lists only.
    pub fn pagetypeinfo(&self) -> PageTypeInfo {
        let mut info = PageTypeInfo::default();
        for mt in MigrateType::ALL {
            let counts = OrderCounts {
                counts: std::array::from_fn(|order| self.free[mt.index()][order].len() as u64),
            };
            match mt {
                MigrateType::Unmovable => info.unmovable = counts,
                MigrateType::Movable => info.movable = counts,
            }
        }
        info.pcp_pages[0] = self.pcp.pages(MigrateType::Unmovable);
        info.pcp_pages[1] = self.pcp.pages(MigrateType::Movable);
        info
    }

    /// The paper's "noise pages" metric: free pages sitting in
    /// small-order (order < 9) blocks of the given migration type,
    /// including PCP-cached pages. These are the pages an EPT allocation
    /// would consume *before* touching a released order-9 sub-block.
    pub fn small_order_free_pages(&self, mt: MigrateType) -> u64 {
        let buddy: u64 = (0..9)
            .map(|order| (self.free[mt.index()][order].len() as u64) << order)
            .sum();
        buddy + self.pcp.pages(mt)
    }

    /// Returns `true` if a free block of exactly (base, order) exists.
    pub fn is_free_block(&self, base: Pfn, order: u8) -> bool {
        self.free_index
            .get(&base.index())
            .is_some_and(|&(o, _)| o == order)
    }

    /// Internal: smallest-first allocation with fallback stealing.
    fn rmqueue(&mut self, order: u8, mt: MigrateType) -> Result<u64, AllocError> {
        // 1. Own lists, smallest sufficient order first.
        for o in order..MAX_ORDER {
            if let Some(base) = self.take_from_list(mt, o) {
                self.expand(base, o, order, mt);
                return Ok(base);
            }
        }
        // 2. Steal from the fallback type, LARGEST block first (the
        //    kernel steals big to reduce future fallbacks).
        let fb = mt.fallback();
        for o in (order..MAX_ORDER).rev() {
            if let Some(base) = self.take_from_list(fb, o) {
                self.stats.steals += 1;
                // Stolen remainder joins the requesting type's lists.
                self.expand(base, o, order, mt);
                return Ok(base);
            }
        }
        self.tracer.buddy_exhausted(order);
        Err(AllocError::OutOfMemory { order })
    }

    /// Pops a block from a specific (mt, order) list, maintaining the
    /// index.
    fn take_from_list(&mut self, mt: MigrateType, order: u8) -> Option<u64> {
        let base = self.free[mt.index()][order as usize].pop()?;
        self.free_index.remove(&base);
        Some(base)
    }

    /// Splits `base` (a block of `from_order`) down to `to_order`,
    /// returning the upper halves to `mt`'s free lists.
    fn expand(&mut self, base: u64, from_order: u8, to_order: u8, mt: MigrateType) {
        let mut order = from_order;
        while order > to_order {
            order -= 1;
            self.stats.splits += 1;
            self.tracer.buddy_split(order + 1);
            let upper = base + (1u64 << order);
            self.insert_free(upper, order, mt);
        }
    }

    /// Frees with maximal buddy coalescing.
    fn coalesce_and_insert(&mut self, mut base: u64, mut order: u8, mt: MigrateType) {
        while order < MAX_ORDER - 1 {
            let buddy = base ^ (1u64 << order);
            let Some(&(buddy_order, buddy_mt)) = self.free_index.get(&buddy) else {
                break;
            };
            // The kernel merges across migration types (the merged block
            // takes the type of the page being freed); requiring equal
            // order is the buddy invariant.
            if buddy_order != order {
                break;
            }
            self.free_index.remove(&buddy);
            self.free[buddy_mt.index()][order as usize].remove(buddy);
            self.stats.merges += 1;
            self.tracer.buddy_merge(order + 1);
            base &= !(1u64 << order);
            order += 1;
        }
        self.insert_free(base, order, mt);
    }

    fn insert_free(&mut self, base: u64, order: u8, mt: MigrateType) {
        self.free[mt.index()][order as usize].push(base);
        self.free_index.insert(base, (order, mt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(mib: u64) -> u64 {
        mib << 20 >> 12
    }

    #[test]
    fn fresh_zone_is_all_free_and_movable() {
        let b = BuddyAllocator::new(frames(64));
        assert_eq!(b.free_pages(), frames(64));
        let info = b.pagetypeinfo();
        assert_eq!(info.unmovable.total_pages(), 0);
        assert_eq!(info.movable.total_pages(), frames(64));
        // 64 MiB / 4 MiB max blocks = 16 order-10 blocks.
        assert_eq!(info.movable.counts[10], 16);
    }

    #[test]
    fn alloc_free_roundtrip_restores_state() {
        let mut b = BuddyAllocator::new(frames(16));
        let before = b.pagetypeinfo();
        let p = b.alloc(3, MigrateType::Movable).unwrap();
        assert_eq!(b.free_pages(), frames(16) - 8);
        b.free(p, 3);
        assert_eq!(b.pagetypeinfo(), before, "coalescing must fully restore");
    }

    #[test]
    fn blocks_are_aligned() {
        let mut b = BuddyAllocator::new(frames(16));
        for order in 0..MAX_ORDER {
            let p = b.alloc(order, MigrateType::Movable).unwrap();
            assert_eq!(p.index() % (1 << order), 0, "order {order} misaligned");
        }
    }

    #[test]
    fn smallest_sufficient_block_is_preferred() {
        let mut b = BuddyAllocator::new(frames(16));
        // Create a free order-0 block of the right type by alloc+free.
        let small = b.alloc(0, MigrateType::Unmovable).unwrap();
        b.free(small, 0);
        // The next order-0 unmovable alloc must reuse it rather than
        // splitting another large movable block.
        let again = b.alloc(0, MigrateType::Unmovable).unwrap();
        assert_eq!(again, small);
    }

    #[test]
    fn lifo_reuse_of_released_blocks() {
        let mut b = BuddyAllocator::new(frames(64));
        // Allocate two buddy pairs; free one block of each pair so the
        // freed blocks cannot coalesce with each other.
        let a = b.alloc(9, MigrateType::Unmovable).unwrap();
        let _a_buddy = b.alloc(9, MigrateType::Unmovable).unwrap();
        let c = b.alloc(9, MigrateType::Unmovable).unwrap();
        let _c_buddy = b.alloc(9, MigrateType::Unmovable).unwrap();
        b.free(a, 9);
        b.free(c, 9);
        // c was freed last → reused first.
        assert_eq!(b.alloc(9, MigrateType::Unmovable).unwrap(), c);
        assert_eq!(b.alloc(9, MigrateType::Unmovable).unwrap(), a);
    }

    #[test]
    fn unmovable_steals_from_movable_when_empty() {
        let mut b = BuddyAllocator::new(frames(16));
        assert_eq!(b.stats().steals, 0);
        let _p = b.alloc(0, MigrateType::Unmovable).unwrap();
        assert_eq!(b.stats().steals, 1);
        // Remainder of the stolen max-order block is now unmovable.
        assert!(b.pagetypeinfo().unmovable.total_pages() > 0);
        // Subsequent unmovable allocs need no further stealing.
        let _q = b.alloc(0, MigrateType::Unmovable).unwrap();
        assert_eq!(b.stats().steals, 1);
    }

    #[test]
    fn steal_takes_largest_block() {
        let mut b = BuddyAllocator::new(frames(64));
        let before = b.pagetypeinfo().movable.counts[10];
        let _p = b.alloc(0, MigrateType::Unmovable).unwrap();
        let after = b.pagetypeinfo().movable.counts[10];
        assert_eq!(after, before - 1, "steal should come from order-10");
    }

    #[test]
    fn oom_is_reported() {
        let mut b = BuddyAllocator::new(frames(1)); // 256 frames
        let mut held = Vec::new();
        loop {
            match b.alloc(0, MigrateType::Movable) {
                Ok(p) => held.push(p),
                Err(AllocError::OutOfMemory { order: 0 }) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(held.len(), 256);
    }

    #[test]
    fn order_too_large() {
        let mut b = BuddyAllocator::new(frames(16));
        assert_eq!(
            b.alloc(MAX_ORDER, MigrateType::Movable),
            Err(AllocError::OrderTooLarge { order: MAX_ORDER })
        );
    }

    #[test]
    fn double_free_detected() {
        let mut b = BuddyAllocator::new(frames(16));
        let p = b.alloc(0, MigrateType::Movable).unwrap();
        b.free(p, 0);
        assert!(matches!(
            b.try_free(p, 0),
            Err(FreeError::NotAllocated { .. })
        ));
    }

    #[test]
    fn wrong_order_free_detected() {
        let mut b = BuddyAllocator::new(frames(16));
        let p = b.alloc(2, MigrateType::Movable).unwrap();
        assert!(matches!(
            b.try_free(p, 3),
            Err(FreeError::WrongOrder {
                allocated_order: 2,
                ..
            })
        ));
        b.free(p, 2);
    }

    #[test]
    fn pcp_caches_order0_traffic() {
        let mut b = BuddyAllocator::new(frames(16));
        let p = b.alloc_page(MigrateType::Unmovable).unwrap();
        b.free_page(p);
        let q = b.alloc_page(MigrateType::Unmovable).unwrap();
        // LIFO through the PCP: same page back.
        assert_eq!(q, p);
        assert!(b.stats().pcp_hits >= 2);
    }

    #[test]
    fn pcp_pages_count_as_free_and_as_noise() {
        let mut b = BuddyAllocator::new(frames(16));
        let p = b.alloc_page(MigrateType::Unmovable).unwrap();
        b.free_page(p);
        assert_eq!(b.free_pages(), frames(16));
        assert!(b.small_order_free_pages(MigrateType::Unmovable) > 0);
    }

    #[test]
    fn disabled_pcp_goes_straight_to_buddy() {
        let mut b = BuddyAllocator::with_pcp(frames(16), PcpConfig::disabled());
        let p = b.alloc_page(MigrateType::Movable).unwrap();
        b.free_page(p);
        assert_eq!(b.stats().pcp_hits, 0);
        assert_eq!(b.free_pages(), frames(16));
    }

    #[test]
    fn set_migrate_type_redirects_free() {
        let mut b = BuddyAllocator::new(frames(64));
        let p = b.alloc(9, MigrateType::Movable).unwrap();
        b.set_migrate_type(p, 9, MigrateType::Unmovable);
        b.free(p, 9);
        // The order-9 block now sits on the unmovable list — exactly the
        // state Page Steering engineers for released sub-blocks.
        let info = b.pagetypeinfo();
        assert!(info.unmovable.counts[9] >= 1 || info.unmovable.counts[10] >= 1);
    }

    #[test]
    fn small_order_metric_ignores_order9_plus() {
        let mut b = BuddyAllocator::new(frames(64));
        let p = b.alloc(9, MigrateType::Movable).unwrap();
        b.set_migrate_type(p, 9, MigrateType::Unmovable);
        b.free(p, 9);
        // Freshly freed order-9 block: no *small-order* unmovable pages
        // (merging may promote it to order 10; either way ≥ 9).
        assert_eq!(b.small_order_free_pages(MigrateType::Unmovable), 0);
    }

    #[test]
    fn allocator_reports_to_an_attached_tracer() {
        use hh_trace::{Counter, TraceMode, Tracer};
        let mut b = BuddyAllocator::new(frames(16));
        let tracer = Tracer::new(TraceMode::Metrics);
        b.set_tracer(tracer.clone());
        // Order-0 alloc from a fresh order-10 block: ten splits.
        let p = b.alloc(0, MigrateType::Movable).unwrap();
        b.free(p, 0);
        tracer.inspect(|sink| {
            let m = sink.metrics();
            assert_eq!(m.get(Counter::BuddyAllocs), 1);
            assert_eq!(m.get(Counter::BuddyFrees), 1);
            assert_eq!(m.get(Counter::BuddySplits), 10);
            assert_eq!(m.get(Counter::BuddyMerges), 10);
            assert_eq!(m.get(Counter::BuddyExhaustions), 0);
        });
        // Exhaustion is reported when no list can satisfy the order.
        for _ in 0..4 {
            b.alloc(10, MigrateType::Movable).unwrap();
        }
        assert!(b.alloc(10, MigrateType::Movable).is_err());
        tracer.inspect(|sink| {
            assert_eq!(sink.metrics().get(Counter::BuddyExhaustions), 1);
        });
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical_and_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BuddySnapshot>();

        let mut b = BuddyAllocator::new(frames(16));
        // Dirty the state: allocations across orders and types, a PCP
        // round-trip, and a held page so `allocated` is non-empty.
        let held = b.alloc(3, MigrateType::Unmovable).unwrap();
        let p = b.alloc_page(MigrateType::Movable).unwrap();
        b.free_page(p);

        let snap = b.snapshot();
        let mut restored = BuddyAllocator::from_snapshot(&snap);
        assert_eq!(restored.pagetypeinfo(), b.pagetypeinfo());
        assert_eq!(restored.free_pages(), b.free_pages());
        assert_eq!(restored.stats(), b.stats());
        // Same state ⇒ same future decisions: the next allocations on
        // both allocators return the same frames.
        for order in [0u8, 2, 9] {
            assert_eq!(
                restored.alloc(order, MigrateType::Movable),
                b.alloc(order, MigrateType::Movable),
                "order-{order} alloc diverged after snapshot restore"
            );
        }
        assert_eq!(
            restored.alloc_page(MigrateType::Unmovable),
            b.alloc_page(MigrateType::Unmovable)
        );
        b.free(held, 3);
    }

    #[test]
    fn restore_free_state_recovers_lifo_order_not_just_counts() {
        let mut b = BuddyAllocator::new(frames(8));
        // Stir the lists so they are not in freshly-carved order.
        let held: Vec<_> = (0..6)
            .map(|_| b.alloc(2, MigrateType::Movable).unwrap())
            .collect();
        for p in held.iter().rev() {
            b.free(*p, 2);
        }
        let snap = b.snapshot();
        let digest = b.free_state_digest();

        // An alloc/free round trip restores the page *count* but not
        // the LIFO order (remove() swap-removes; coalescing re-pushes)
        // — the situation an aborted attempt leaves behind.
        let a1 = b.alloc(0, MigrateType::Movable).unwrap();
        let a2 = b.alloc(4, MigrateType::Unmovable).unwrap();
        b.free(a1, 0);
        b.free(a2, 4);
        assert_eq!(b.free_pages(), frames(8));
        assert_ne!(
            b.free_state_digest(),
            digest,
            "the digest must be order-sensitive or this test is vacuous"
        );

        b.restore_free_state(&snap);
        assert_eq!(b.free_state_digest(), digest);
        // Same state ⇒ same future decisions.
        let mut reference = BuddyAllocator::from_snapshot(&snap);
        for order in [0u8, 2, 4] {
            assert_eq!(
                b.alloc(order, MigrateType::Movable),
                reference.alloc(order, MigrateType::Movable),
                "order-{order} alloc diverged after free-state restore"
            );
        }
    }

    #[test]
    fn exhaustive_alloc_free_is_balanced() {
        let mut b = BuddyAllocator::new(frames(8));
        let mut held = Vec::new();
        for order in [0u8, 1, 2, 3, 0, 5, 0, 7, 2] {
            held.push((b.alloc(order, MigrateType::Unmovable).unwrap(), order));
        }
        for (p, order) in held.drain(..) {
            b.free(p, order);
        }
        assert_eq!(b.free_pages(), frames(8));
        // Everything coalesced back to maximal blocks (possibly under
        // either migration type after stealing).
        let info = b.pagetypeinfo();
        let max_blocks = info.unmovable.counts[10] + info.movable.counts[10];
        assert_eq!(max_blocks, frames(8) >> 10);
    }
}
