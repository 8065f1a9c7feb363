//! The per-CPU pageset (PCP) cache model.
//!
//! Order-0 allocations and frees in Linux flow through a per-CPU cache of
//! free pages in front of the buddy lists. §4.2.3 of the paper names the
//! PCP as one of the noise sources the EPT-spraying step must drain
//! before released sub-blocks are reused, so the cache is modelled
//! explicitly (single CPU — the paper's attack pins one vCPU anyway).
//! Its two lanes, one per migratetype, are free lists in the
//! allocator's frame table; this module holds their sizing.

/// PCP sizing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcpConfig {
    /// High watermark: pages cached beyond this are drained to the buddy
    /// lists in `batch`-sized chunks.
    pub high: usize,
    /// Refill/drain chunk size.
    pub batch: usize,
}

impl PcpConfig {
    /// Typical values for a desktop zone.
    pub fn standard() -> Self {
        Self {
            high: 512,
            batch: 64,
        }
    }

    /// Disables the cache entirely (ablation `ablation_pcp`).
    pub fn disabled() -> Self {
        Self { high: 0, batch: 0 }
    }
}

impl Default for PcpConfig {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuddyAllocator, MigrateType};

    const FRAMES: u64 = 4096;

    #[test]
    fn disabled_config_reports_disabled() {
        let mut b = BuddyAllocator::with_pcp(FRAMES, PcpConfig::disabled());
        let p = b.alloc_page(MigrateType::Movable).unwrap();
        b.free_page(p);
        assert_eq!(b.pagetypeinfo().pcp_pages, [0, 0]);
        assert_eq!(b.stats().pcp_refills, 0);
        let mut b = BuddyAllocator::with_pcp(FRAMES, PcpConfig::standard());
        b.alloc_page(MigrateType::Movable).unwrap();
        assert_eq!(b.stats().pcp_refills, 1);
    }

    #[test]
    fn overflow_drains_in_batches() {
        let mut b = BuddyAllocator::with_pcp(FRAMES, PcpConfig { high: 4, batch: 2 });
        let held: Vec<_> = (0..5)
            .map(|_| b.alloc_page(MigrateType::Movable).unwrap())
            .collect();
        // Five pages from three 2-page refills: one is left cached.
        assert_eq!(b.pagetypeinfo().pcp_pages[1], 1);
        let cached: Vec<u64> = held
            .into_iter()
            .map(|p| {
                b.free_page(p);
                b.pagetypeinfo().pcp_pages[1]
            })
            .collect();
        // Crossing the high watermark (4) drains one batch (2).
        assert_eq!(cached, [2, 3, 4, 3, 4]);
        assert_eq!(b.free_pages(), FRAMES);
    }

    #[test]
    fn types_are_separate() {
        let mut b = BuddyAllocator::new(FRAMES);
        let p = b.alloc_page(MigrateType::Unmovable).unwrap();
        b.free_page(p);
        let cached = b.pagetypeinfo().pcp_pages[0];
        assert_ne!(b.alloc_page(MigrateType::Movable).unwrap(), p);
        assert_eq!(b.pagetypeinfo().pcp_pages[0], cached);
        assert_eq!(b.alloc_page(MigrateType::Unmovable).unwrap(), p);
    }
}
