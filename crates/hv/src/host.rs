//! The host machine: DRAM, page allocator, clock, and boot-time noise.

use hh_buddy::{AllocJitter, BuddyAllocator, BuddySnapshot, MigrateType, PageTypeInfo, PcpConfig};
use hh_dram::{DimmProfile, DramDevice};
use hh_sim::addr::{Pfn, PAGE_SIZE};
use hh_sim::clock::{Clock, CostModel, SimDuration, SimInstant};
use hh_sim::rng::SimRng;
use hh_sim::ByteSize;
use hh_trace::Tracer;

use crate::error::FaultStage;
use crate::fault::{FaultConfig, FaultPlan};
use crate::virtio_mem::QuarantinePolicy;
use crate::HvError;

/// Boot-time allocation noise: how many `MIGRATE_UNMOVABLE` pages the
/// host kernel and its services have allocated and partially freed by
/// the time the attacker VM starts.
///
/// The *free* small-order unmovable population is exactly the "noise
/// pages" curve of Figure 3; S3 (OpenStack/DevStack) starts much higher
/// than the bare-KVM S1/S2 hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoiseProfile {
    /// Unmovable pages still held by the kernel (never freed).
    pub live_unmovable_pages: u64,
    /// Free small-order unmovable pages left behind by boot-time churn
    /// (allocated then freed, fragmented so they cannot coalesce).
    pub free_small_unmovable_pages: u64,
}

impl NoiseProfile {
    /// Bare KVM host (S1/S2): Figure 3(a) starts around 30–40 k noise
    /// pages.
    pub fn bare_kvm() -> Self {
        Self {
            live_unmovable_pages: 24_000,
            free_small_unmovable_pages: 34_000,
        }
    }

    /// OpenStack/DevStack host (S3): Figure 3(b) starts much higher.
    pub fn openstack() -> Self {
        Self {
            live_unmovable_pages: 60_000,
            free_small_unmovable_pages: 55_000,
        }
    }

    /// Minimal noise for unit tests.
    pub fn quiet() -> Self {
        Self {
            live_unmovable_pages: 16,
            free_small_unmovable_pages: 32,
        }
    }
}

/// Host construction parameters.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// The installed DIMMs (geometry + Rowhammer profile).
    pub dimm: DimmProfile,
    /// Simulated-time cost model.
    pub cost: CostModel,
    /// Per-CPU pageset configuration (disable for the PCP ablation).
    pub pcp: PcpConfig,
    /// Boot-time allocation noise.
    pub noise: NoiseProfile,
    /// virtio-mem request quarantine (the paper's §6 countermeasure).
    pub quarantine: QuarantinePolicy,
    /// Transient fault injection at the steering choke points
    /// (off by default).
    pub faults: FaultConfig,
    /// Master seed for all stochastic behaviour.
    pub seed: u64,
}

impl HostConfig {
    /// A 256 MiB host with a dense fault profile and minimal noise —
    /// fast enough for unit tests and doc examples.
    pub fn small_test() -> Self {
        Self {
            dimm: DimmProfile::test_profile(256 << 20),
            cost: CostModel::calibrated(),
            pcp: PcpConfig::standard(),
            noise: NoiseProfile::quiet(),
            quarantine: QuarantinePolicy::Off,
            faults: FaultConfig::off(),
            seed: 0x5eed,
        }
    }

    /// Machine S1: Core i3-10100, 16 GiB Apacer DDR4-2666, bare KVM.
    pub fn s1() -> Self {
        Self {
            dimm: DimmProfile::s1(ByteSize::gib(16).bytes()),
            cost: CostModel::calibrated(),
            pcp: PcpConfig::standard(),
            noise: NoiseProfile::bare_kvm(),
            quarantine: QuarantinePolicy::Off,
            faults: FaultConfig::off(),
            seed: 0x51,
        }
    }

    /// Machine S2: Xeon E-2124, 16 GiB Apacer DDR4-2666, bare KVM.
    pub fn s2() -> Self {
        Self {
            dimm: DimmProfile::s2(ByteSize::gib(16).bytes()),
            cost: CostModel::calibrated(),
            pcp: PcpConfig::standard(),
            // Same software stack as S1; slightly different boot churn
            // (the paper's two bare-KVM hosts also differ run to run).
            noise: NoiseProfile {
                live_unmovable_pages: 22_000,
                free_small_unmovable_pages: 31_000,
            },
            quarantine: QuarantinePolicy::Off,
            faults: FaultConfig::off(),
            seed: 0x52,
        }
    }

    /// Machine S3: S1 hardware running a single-node OpenStack
    /// (DevStack) deployment — identical mechanics, more boot noise.
    pub fn s3() -> Self {
        Self {
            noise: NoiseProfile::openstack(),
            seed: 0x53,
            ..Self::s1()
        }
    }

    /// Returns a copy with a different seed (experiment repetitions).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given quarantine policy.
    pub fn with_quarantine(mut self, q: QuarantinePolicy) -> Self {
        self.quarantine = q;
        self
    }

    /// Returns a copy with the given fault-injection configuration.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }
}

/// The host machine.
///
/// Owns the DRAM, the page allocator and the simulated clock; VMs borrow
/// it for every operation, mirroring how all guest-visible behaviour is
/// ultimately host state.
#[derive(Debug)]
pub struct Host {
    dram: DramDevice,
    buddy: BuddyAllocator,
    clock: Clock,
    cost: CostModel,
    quarantine: QuarantinePolicy,
    rng: SimRng,
    /// PFNs of pages released by VMs through virtio-mem/balloon since the
    /// last [`Self::reset_released_log`] — the paper's "log PFNs of the
    /// pages that are released from the VM" debug hook (§5.2).
    released_log: Vec<Pfn>,
    ept_pages_allocated: u64,
    next_vm_id: u32,
    fault_plan: FaultPlan,
    tracer: Tracer,
}

impl Host {
    /// Boots a host: initializes DRAM and the allocator, then replays the
    /// configured boot-time allocation noise.
    ///
    /// # Panics
    ///
    /// Panics if the noise profile does not fit in the DIMM.
    pub fn new(config: HostConfig) -> Self {
        let size = config.dimm.geometry.size_bytes();
        let mut buddy = BuddyAllocator::with_pcp(size / PAGE_SIZE, config.pcp);
        apply_boot_noise(&mut buddy, config.noise);
        Self::assemble(config, buddy)
    }

    /// Shared tail of [`Self::new`] and [`HostTemplate::instantiate`]:
    /// everything *after* the allocator has absorbed its boot noise.
    /// Keeping both constructors on this one path is what makes a
    /// template-instantiated host bit-identical to a booted one.
    fn assemble(config: HostConfig, buddy: BuddyAllocator) -> Self {
        let mut rng = SimRng::seed_from(config.seed);
        let noise_rng = rng.substream("host-noise");
        let dram = DramDevice::new(config.dimm, config.seed ^ 0xd1a);
        let fault_plan = FaultPlan::new(config.faults, config.seed);
        let mut host = Self {
            dram,
            buddy,
            clock: Clock::new(),
            cost: config.cost,
            quarantine: config.quarantine,
            rng: noise_rng,
            released_log: Vec::new(),
            ept_pages_allocated: 0,
            next_vm_id: 1,
            fault_plan,
            tracer: Tracer::off(),
        };
        // Jitter attaches after boot noise: boot-time churn is part of
        // the machine's initial conditions, not of the hostile phase.
        if config.faults.alloc_rate > 0.0 {
            host.buddy.set_alloc_jitter(Some(AllocJitter::new(
                host.fault_plan.jitter_seed(),
                config.faults.alloc_rate,
            )));
        }
        host
    }

    /// Attaches an instrumentation handle to the host and propagates it
    /// to the DRAM device and the page allocator, so hammer bursts, bit
    /// flips and buddy churn report into the same sink. The sink's clock
    /// is synchronised with the host clock on attach and after every
    /// simulated-time charge.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        self.tracer.set_now(self.clock.now_nanos());
        self.dram.set_tracer(self.tracer.clone());
        self.buddy.set_tracer(self.tracer.clone());
    }

    /// The attached instrumentation handle (detached no-op by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The DRAM device.
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }

    /// Mutable DRAM access (hammering, direct corruption experiments).
    pub fn dram_mut(&mut self) -> &mut DramDevice {
        &mut self.dram
    }

    /// The page allocator.
    pub fn buddy(&self) -> &BuddyAllocator {
        &self.buddy
    }

    /// Mutable allocator access.
    pub fn buddy_mut(&mut self) -> &mut BuddyAllocator {
        &mut self.buddy
    }

    /// Current simulated time.
    pub fn now(&self) -> SimInstant {
        self.clock.now()
    }

    /// Time elapsed since `start`.
    pub fn elapsed_since(&self, start: SimInstant) -> SimDuration {
        self.clock.elapsed_since(start)
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The configured virtio-mem quarantine policy.
    pub fn quarantine(&self) -> QuarantinePolicy {
        self.quarantine
    }

    /// Host-side RNG stream (background activity, TRR sampling…).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// The host's fault plan (inspection / test hooks).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Rolls the fault plan for a choke-point operation. Called before
    /// the operation has any side effect; on a hit, records the
    /// injection in the trace and returns the retryable
    /// [`HvError::Transient`] the operation must propagate.
    ///
    /// # Errors
    ///
    /// [`HvError::Transient`] when the plan schedules a fault here.
    pub fn fault_check(&mut self, stage: FaultStage) -> Result<(), HvError> {
        match self.fault_plan.check(stage, self.clock.now_nanos()) {
            None => Ok(()),
            Some(cause) => {
                self.tracer.fault_injected(stage.name(), cause);
                Err(HvError::Transient { stage, cause })
            }
        }
    }

    /// Advances the clock and keeps the trace sink's timestamp in step.
    fn advance(&mut self, nanos: u64) {
        self.clock.advance_nanos(nanos);
        self.tracer.set_now(self.clock.now_nanos());
    }

    /// Advances the simulated clock by `nanos`.
    pub fn charge_nanos(&mut self, nanos: u64) {
        self.advance(nanos);
    }

    /// Charges a linear memory scan of `bytes`.
    pub fn charge_scan(&mut self, bytes: u64) {
        self.advance(self.cost.scan_cost_nanos(bytes));
    }

    /// Charges a bulk memory write of `bytes`.
    pub fn charge_write(&mut self, bytes: u64) {
        self.advance(self.cost.write_cost_nanos(bytes));
    }

    /// Charges `activations` hammer activations.
    pub fn charge_hammer(&mut self, activations: u64) {
        self.advance(activations.saturating_mul(self.cost.hammer_activation_nanos));
    }

    /// Charges one iTLB-Multihit hugepage split.
    pub fn charge_hugepage_split(&mut self) {
        self.advance(self.cost.hugepage_split_nanos);
    }

    /// Charges one vIOMMU map operation.
    pub fn charge_viommu_map(&mut self) {
        self.advance(self.cost.viommu_map_nanos);
    }

    /// Charges one virtio-mem unplug round-trip.
    pub fn charge_virtio_mem_unplug(&mut self) {
        self.advance(self.cost.virtio_mem_unplug_nanos);
    }

    /// Charges a VM reboot.
    pub fn charge_vm_reboot(&mut self) {
        self.tracer.vm_reboot();
        self.advance(self.cost.vm_reboot_nanos);
    }

    /// Allocates a zeroed order-0 `MIGRATE_UNMOVABLE` page for an EPT
    /// table (the PCP-first path kernel page-table allocations take).
    ///
    /// # Errors
    ///
    /// [`HvError::OutOfHostMemory`] when the host is exhausted.
    pub fn alloc_ept_page(&mut self) -> Result<Pfn, HvError> {
        self.alloc_ept_page_typed(MigrateType::Unmovable)
    }

    /// [`Self::alloc_ept_page`] with an explicit migration type — the
    /// Xen-style model ([`crate::xen`]) allocates p2m pages from the
    /// undifferentiated heap (`Movable`), which is exactly why §6 argues
    /// Page Steering is easier there.
    ///
    /// # Errors
    ///
    /// [`HvError::OutOfHostMemory`] when the host is exhausted.
    pub fn alloc_ept_page_typed(&mut self, mt: MigrateType) -> Result<Pfn, HvError> {
        let pfn = self.buddy.alloc_page(mt)?;
        self.dram.fill(pfn.base_hpa(), PAGE_SIZE, 0);
        self.ept_pages_allocated += 1;
        Ok(pfn)
    }

    /// Frees an EPT table page.
    pub fn free_ept_page(&mut self, pfn: Pfn) {
        self.buddy.free_page(pfn);
    }

    /// Allocates a zeroed order-0 `MIGRATE_UNMOVABLE` page for an IOPT
    /// table (§4.2.1: "these mappings are stored in order-0
    /// MIGRATE_UNMOVABLE pages").
    ///
    /// # Errors
    ///
    /// [`HvError::OutOfHostMemory`] when the host is exhausted.
    pub fn alloc_iopt_page(&mut self) -> Result<Pfn, HvError> {
        let pfn = self.buddy.alloc_page(MigrateType::Unmovable)?;
        self.dram.fill(pfn.base_hpa(), PAGE_SIZE, 0);
        Ok(pfn)
    }

    /// Frees an IOPT table page.
    pub fn free_iopt_page(&mut self, pfn: Pfn) {
        self.buddy.free_page(pfn);
    }

    /// Lifetime count of EPT page allocations.
    pub fn ept_pages_allocated(&self) -> u64 {
        self.ept_pages_allocated
    }

    /// Records pages a VM released (virtio-mem unplug / balloon inflate).
    pub(crate) fn log_released(&mut self, base: Pfn, pages: u64) {
        for i in 0..pages {
            self.released_log.push(base.add(i));
        }
    }

    /// PFNs released by VMs since the last reset — the paper's first
    /// Table 2 debug function.
    pub fn released_log(&self) -> &[Pfn] {
        &self.released_log
    }

    /// Clears the released-pages log (between experiment runs).
    pub fn reset_released_log(&mut self) {
        self.released_log.clear();
    }

    /// Snapshot of the allocator free lists, the model's
    /// `/proc/pagetypeinfo`.
    pub fn pagetypeinfo(&self) -> PageTypeInfo {
        self.buddy.pagetypeinfo()
    }

    /// The paper's "noise pages" metric: free small-order (order < 9)
    /// `MIGRATE_UNMOVABLE` pages, including PCP-cached ones.
    pub fn noise_pages(&self) -> u64 {
        self.buddy.small_order_free_pages(MigrateType::Unmovable)
    }

    /// Allocates a fresh VM identifier.
    pub(crate) fn next_vm_id(&mut self) -> u32 {
        let id = self.next_vm_id;
        self.next_vm_id += 1;
        id
    }
}

/// Boot-time churn: allocate unmovable pages in adjacent pairs and
/// free one page of each pair, leaving `free_small_unmovable_pages`
/// order-0 unmovable free pages that cannot coalesce — the initial
/// "noise pages" population of Figure 3.
///
/// Deliberately RNG-free: the noise sequence depends only on the
/// profile, never on the host seed, which is what lets
/// [`HostTemplate`] replay it once and share the result across every
/// seed of a campaign scenario.
fn apply_boot_noise(buddy: &mut BuddyAllocator, noise: NoiseProfile) {
    for _ in 0..noise.live_unmovable_pages {
        buddy
            .alloc(0, MigrateType::Unmovable)
            .expect("noise profile exceeds DRAM");
    }
    let mut to_free = Vec::with_capacity(noise.free_small_unmovable_pages as usize);
    for _ in 0..noise.free_small_unmovable_pages {
        // Holding the odd page of each pair pins fragmentation.
        let a = buddy
            .alloc(0, MigrateType::Unmovable)
            .expect("noise profile exceeds DRAM");
        let _held = buddy
            .alloc(0, MigrateType::Unmovable)
            .expect("noise profile exceeds DRAM");
        to_free.push(a);
    }
    for p in to_free {
        buddy.free(p, 0);
    }
}

/// A pre-booted host image: the configuration plus a snapshot of the
/// allocator state after boot-time noise.
///
/// Booting a host replays tens of thousands of allocator operations
/// (the noise profile), and that sequence is a pure function of the
/// configuration — the seed only steers DRAM faults, TRR sampling and
/// fault injection, none of which touch the boot-time allocator. A
/// campaign grid therefore builds one template per scenario and stamps
/// out per-seed hosts with [`instantiate`](Self::instantiate), which
/// skips straight to a snapshot restore.
///
/// The template is `Send + Sync` (unlike [`Host`], whose tracer holds
/// an `Rc`), so worker threads can instantiate from a shared reference.
#[derive(Debug, Clone)]
pub struct HostTemplate {
    config: HostConfig,
    buddy: BuddySnapshot,
}

impl HostTemplate {
    /// Builds the template: seeds the allocator and replays the boot
    /// noise once.
    ///
    /// # Panics
    ///
    /// Panics if the noise profile does not fit in the DIMM.
    pub fn new(config: HostConfig) -> Self {
        let size = config.dimm.geometry.size_bytes();
        let mut buddy = BuddyAllocator::with_pcp(size / PAGE_SIZE, config.pcp);
        apply_boot_noise(&mut buddy, config.noise);
        Self {
            config,
            buddy: buddy.snapshot(),
        }
    }

    /// The configuration the template was built from (its seed is
    /// replaced per instantiation).
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Instantiates a host with the given seed, bit-identical to
    /// `Host::new(template.config().clone().with_seed(seed))` — the
    /// DRAM device, RNG streams and fault plan are derived from `seed`
    /// exactly as [`Host::new`] derives them; only the boot-noise
    /// replay is skipped in favour of the snapshot.
    pub fn instantiate(&self, seed: u64) -> Host {
        let config = self.config.clone().with_seed(seed);
        Host::assemble(config, BuddyAllocator::from_snapshot(&self.buddy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_noise_populates_unmovable_lists() {
        let host = Host::new(HostConfig::small_test());
        // At least the configured free pages, plus up to ~1 023 pages of
        // split remnant from the stolen max-order block — the same
        // "imprecision" the paper notes in §4.2.1.
        let noise = host.noise_pages();
        assert!(
            (32..32 + 1024).contains(&noise),
            "expected 32..1056 noise pages, got {noise}"
        );
    }

    #[test]
    fn bigger_noise_profile_means_more_noise() {
        let mut cfg = HostConfig::small_test();
        cfg.noise = NoiseProfile {
            live_unmovable_pages: 100,
            free_small_unmovable_pages: 500,
        };
        let host = Host::new(cfg);
        assert!(host.noise_pages() >= 500);
    }

    #[test]
    fn ept_pages_are_unmovable_and_zeroed() {
        let mut host = Host::new(HostConfig::small_test());
        // Dirty some memory first so reuse without zeroing would show.
        let probe = host.buddy_mut().alloc_page(MigrateType::Unmovable).unwrap();
        host.dram_mut().fill(probe.base_hpa(), PAGE_SIZE, 0xff);
        host.buddy_mut().free_page(probe);
        let pfn = host.alloc_ept_page().unwrap();
        assert_eq!(pfn, probe, "PCP LIFO should hand back the dirty page");
        assert_eq!(host.dram().store().read_u64(pfn.base_hpa()), 0);
        assert_eq!(host.ept_pages_allocated(), 1);
    }

    #[test]
    fn clock_charges_accumulate() {
        let mut host = Host::new(HostConfig::small_test());
        let t0 = host.now();
        host.charge_hammer(1_000);
        host.charge_viommu_map();
        assert!(host.elapsed_since(t0).as_nanos() > 0);
    }

    #[test]
    fn released_log_roundtrip() {
        let mut host = Host::new(HostConfig::small_test());
        host.log_released(Pfn::new(100), 3);
        assert_eq!(host.released_log().len(), 3);
        assert_eq!(host.released_log()[2], Pfn::new(102));
        host.reset_released_log();
        assert!(host.released_log().is_empty());
    }

    #[test]
    fn template_instantiation_matches_a_cold_boot() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HostTemplate>();

        let template = HostTemplate::new(HostConfig::small_test());
        for seed in [0x5eed, 0xd15c0, 1, u64::MAX] {
            let mut cold = Host::new(HostConfig::small_test().with_seed(seed));
            let mut fast = template.instantiate(seed);
            assert_eq!(fast.pagetypeinfo(), cold.pagetypeinfo());
            assert_eq!(fast.buddy().free_pages(), cold.buddy().free_pages());
            assert_eq!(fast.noise_pages(), cold.noise_pages());
            // Same state ⇒ same future behaviour: allocator decisions,
            // RNG streams and fault draws all line up.
            assert_eq!(
                fast.alloc_ept_page().unwrap(),
                cold.alloc_ept_page().unwrap()
            );
            assert_eq!(fast.rng_mut().next_u64(), cold.rng_mut().next_u64());
        }
    }

    #[test]
    fn template_instantiation_matches_a_faulted_boot() {
        let cfg = HostConfig::small_test().with_faults(FaultConfig::uniform(0.2).with_seed(9));
        let template = HostTemplate::new(cfg.clone());
        let mut cold = Host::new(cfg.with_seed(0xfa));
        let mut fast = template.instantiate(0xfa);
        // Jitter and the fault plan are per-seed: the same injections
        // must fire on both hosts, in the same order.
        for _ in 0..64 {
            assert_eq!(
                fast.buddy_mut().alloc_page(MigrateType::Unmovable),
                cold.buddy_mut().alloc_page(MigrateType::Unmovable)
            );
            fast.charge_nanos(1_000);
            cold.charge_nanos(1_000);
            assert_eq!(
                fast.fault_check(FaultStage::EptSplit).is_err(),
                cold.fault_check(FaultStage::EptSplit).is_err()
            );
        }
        assert_eq!(fast.fault_plan().draws(), cold.fault_plan().draws());
    }

    #[test]
    fn s3_has_more_noise_than_s1() {
        // Construction of full 16 GiB hosts is cheap: DRAM is sparse.
        let s1 = Host::new(HostConfig::s1());
        let s3 = Host::new(HostConfig::s3());
        assert!(s3.noise_pages() > s1.noise_pages());
        assert!(s1.noise_pages() > 10_000);
    }
}
