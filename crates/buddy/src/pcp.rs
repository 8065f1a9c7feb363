//! The per-CPU pageset (PCP) cache model.
//!
//! Order-0 allocations and frees in Linux flow through a per-CPU cache of
//! free pages in front of the buddy lists. §4.2.3 of the paper names the
//! PCP as one of the noise sources the EPT-spraying step must drain
//! before released sub-blocks are reused, so the cache is modelled
//! explicitly (single CPU — the paper's attack pins one vCPU anyway).

use crate::free_list::FreeList;
use crate::MigrateType;

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

/// The cache itself: one LIFO list per migration type.
#[derive(Debug, Clone)]
pub(crate) struct PcpCache {
    config: PcpConfig,
    lists: [FreeList; 2],
}

impl PcpCache {
    pub fn new(config: PcpConfig) -> Self {
        Self {
            config,
            lists: Default::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.config.batch > 0
    }

    pub fn batch(&self) -> usize {
        self.config.batch
    }

    pub fn pop(&mut self, mt: MigrateType) -> Option<u64> {
        self.lists[mt.index()].pop()
    }

    pub fn push_free(&mut self, mt: MigrateType, base: u64) {
        self.lists[mt.index()].push(base);
    }

    /// Pages to return to the buddy lists once the high watermark is
    /// crossed.
    pub fn drain_overflow(&mut self, mt: MigrateType) -> Vec<u64> {
        let list = &mut self.lists[mt.index()];
        let mut out = Vec::new();
        if list.len() > self.config.high {
            for _ in 0..self.config.batch.min(list.len()) {
                if let Some(b) = list.pop() {
                    out.push(b);
                }
            }
        }
        out
    }

    /// The cached pages of one migratetype lane, head-to-tail — the
    /// order [`free_state_digest`](crate::BuddyAllocator::free_state_digest)
    /// folds them in.
    pub fn lane_iter(&self, mt: MigrateType) -> impl Iterator<Item = u64> + '_ {
        self.lists[mt.index()].iter()
    }

    pub fn pages(&self, mt: MigrateType) -> u64 {
        self.lists[mt.index()].len() as u64
    }

    pub fn total_pages(&self) -> u64 {
        self.lists.iter().map(|l| l.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_reports_disabled() {
        assert!(!PcpCache::new(PcpConfig::disabled()).enabled());
        assert!(PcpCache::new(PcpConfig::standard()).enabled());
    }

    #[test]
    fn overflow_drains_in_batches() {
        let mut pcp = PcpCache::new(PcpConfig { high: 4, batch: 2 });
        for i in 0..5 {
            pcp.push_free(MigrateType::Movable, i);
        }
        let drained = pcp.drain_overflow(MigrateType::Movable);
        assert_eq!(drained.len(), 2);
        assert_eq!(pcp.pages(MigrateType::Movable), 3);
        assert!(pcp.drain_overflow(MigrateType::Movable).is_empty());
    }

    #[test]
    fn types_are_separate() {
        let mut pcp = PcpCache::new(PcpConfig::standard());
        pcp.push_free(MigrateType::Unmovable, 1);
        assert_eq!(pcp.pop(MigrateType::Movable), None);
        assert_eq!(pcp.pop(MigrateType::Unmovable), Some(1));
    }
}
