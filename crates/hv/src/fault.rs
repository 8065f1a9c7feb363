//! Hostile-host fault injection.
//!
//! The paper's end-to-end attack is probabilistic: the authors simply
//! re-run stages until an attempt lands (§6–§7). This module supplies
//! the *hostile* side of that bargain — a deterministic, seed-driven
//! [`FaultPlan`] that injects transient failures at the three steering
//! choke points (vIOMMU map/unmap, virtio-mem unplug, EPT split), each
//! surfacing as [`HvError::Transient`] so recovery code can tell a
//! retryable hiccup from a fatal error. Allocation jitter on the
//! order-0 page path is configured here too but lives in `hh-buddy`
//! ([`hh_buddy::AllocJitter`]).
//!
//! Every decision is a pure function of `(fault seed, host seed, draw
//! index, simulated time)`: the same configuration replays the same
//! faults at the same simulated instants, independent of worker count,
//! so faulted campaigns stay bit-identical for any `--jobs`.

use hh_sim::rng::SplitMix64;

use crate::error::FaultStage;

/// Fault-injection rates per choke point, plus the plan's seed.
///
/// The default configuration injects nothing, so hosts built from
/// untouched configs behave byte-identically to earlier revisions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a vIOMMU map/unmap fails transiently.
    pub viommu_rate: f64,
    /// Probability a virtio-mem unplug fails transiently.
    pub virtio_mem_rate: f64,
    /// Probability an EPT hugepage split fails transiently.
    pub ept_split_rate: f64,
    /// Probability an order-0 page allocation fails transiently
    /// (implemented by [`hh_buddy::AllocJitter`]).
    pub alloc_rate: f64,
    /// Fault-stream seed, mixed with the host seed so per-cell streams
    /// in a campaign grid stay independent.
    pub seed: u64,
}

impl FaultConfig {
    /// No injection at any choke point.
    pub const fn off() -> Self {
        Self {
            viommu_rate: 0.0,
            virtio_mem_rate: 0.0,
            ept_split_rate: 0.0,
            alloc_rate: 0.0,
            seed: 0,
        }
    }

    /// The same rate at every choke point (the CLI's `--faults R`).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn uniform(rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} out of range"
        );
        Self {
            viommu_rate: rate,
            virtio_mem_rate: rate,
            ept_split_rate: rate,
            alloc_rate: rate,
            seed: 0,
        }
    }

    /// Returns a copy with a different fault-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Whether any choke point has a nonzero rate.
    pub fn is_active(&self) -> bool {
        self.viommu_rate > 0.0
            || self.virtio_mem_rate > 0.0
            || self.ept_split_rate > 0.0
            || self.alloc_rate > 0.0
    }

    fn rate(&self, stage: FaultStage) -> f64 {
        match stage {
            FaultStage::ViommuMap | FaultStage::ViommuUnmap => self.viommu_rate,
            FaultStage::VirtioMemUnplug => self.virtio_mem_rate,
            FaultStage::EptSplit => self.ept_split_rate,
            FaultStage::BuddyAlloc => self.alloc_rate,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The host's deterministic fault schedule.
///
/// [`check`](Self::check) is called at every choke point *before* the
/// operation has any side effect, so an injected [`HvError::Transient`]
/// always leaves the host in the pre-operation state and the caller can
/// retry after a backoff.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    stream_seed: u64,
    draws: u64,
}

impl FaultPlan {
    /// Builds the plan for a host; `host_seed` keeps plans on different
    /// campaign cells statistically independent even under one shared
    /// `FaultConfig::seed`.
    pub fn new(config: FaultConfig, host_seed: u64) -> Self {
        let stream_seed = SplitMix64::new(config.seed ^ host_seed.rotate_left(23)).next();
        Self {
            config,
            stream_seed,
            draws: 0,
        }
    }

    /// The configuration the plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Fault-die draws so far (one per checked choke-point operation
    /// with a nonzero rate).
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The deterministic seed for the buddy allocator's jitter stream
    /// (kept separate from [`check`](Self::check) draws so allocator
    /// traffic never perturbs choke-point schedules).
    pub fn jitter_seed(&self) -> u64 {
        SplitMix64::new(self.stream_seed ^ 0xa110_c377).next()
    }

    /// Rolls the fault die for `stage` at simulated time `now_nanos`.
    ///
    /// Returns the modelled cause when a fault fires. The decision is a
    /// pure function of `(stream seed, draw index, now_nanos)` — the
    /// plan advances with the simulated clock, and replaying the same
    /// deterministic execution replays the same faults.
    pub fn check(&mut self, stage: FaultStage, now_nanos: u64) -> Option<&'static str> {
        let rate = self.config.rate(stage);
        if rate <= 0.0 {
            return None;
        }
        self.draws += 1;
        let x = SplitMix64::new(
            self.stream_seed ^ self.draws.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ now_nanos,
        )
        .next();
        // 53 uniform mantissa bits, the same construction SimRng uses.
        let uniform = ((x >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        if uniform >= rate {
            return None;
        }
        Some(match stage {
            FaultStage::ViommuMap | FaultStage::ViommuUnmap => "iotlb flush timeout",
            FaultStage::VirtioMemUnplug => "unplug request dropped",
            FaultStage::EptSplit => "mmu lock contention",
            FaultStage::BuddyAlloc => "allocation jitter",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_plan_never_fires_and_never_draws() {
        let mut plan = FaultPlan::new(FaultConfig::off(), 0x5eed);
        for t in 0..1_000 {
            assert_eq!(plan.check(FaultStage::ViommuMap, t), None);
        }
        assert_eq!(plan.draws(), 0, "zero-rate checks must not draw");
    }

    #[test]
    fn plan_is_deterministic_in_seed_and_time() {
        let cfg = FaultConfig::uniform(0.3).with_seed(0xfa);
        let run = |host_seed: u64| -> Vec<bool> {
            let mut plan = FaultPlan::new(cfg, host_seed);
            (0..200)
                .map(|t| plan.check(FaultStage::EptSplit, t * 1_000).is_some())
                .collect()
        };
        assert_eq!(run(1), run(1), "same seeds replay the same schedule");
        assert_ne!(run(1), run(2), "host seed perturbs the schedule");
        let fired = run(1).iter().filter(|&&b| b).count();
        assert!(
            (20..=120).contains(&fired),
            "rate 0.3 over 200 draws fired {fired} times"
        );
    }

    #[test]
    fn uniform_rate_applies_to_every_choke_point() {
        let cfg = FaultConfig::uniform(0.25);
        assert!(cfg.is_active());
        for stage in [
            FaultStage::ViommuMap,
            FaultStage::ViommuUnmap,
            FaultStage::VirtioMemUnplug,
            FaultStage::EptSplit,
            FaultStage::BuddyAlloc,
        ] {
            assert_eq!(cfg.rate(stage), 0.25);
        }
        assert!(!FaultConfig::off().is_active());
    }
}
