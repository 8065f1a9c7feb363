//! End-to-end attack orchestration (§5.3.2 / Table 3).
//!
//! A *campaign* repeats full attack attempts until the first success:
//! spawn the attacker VM, re-locate catalogued vulnerable bits with the
//! debug hypercall (profiling reuse, §5.3.2), run Page Steering against
//! up to 12 of them, hammer, and try to escape. Splitting hugepages is
//! irreversible, so every failed attempt tears the VM down and starts
//! over — exactly the paper's procedure.

use hh_buddy::MigrateType;
use hh_dram::FlipDirection;
use hh_hv::{Host, HvError, Vm};
use hh_sim::addr::{Gpa, Hpa, HUGE_PAGE_SIZE};
use hh_sim::clock::SimDuration;

use crate::balloon_steering::BalloonSteering;
use crate::exploit::{EscapeProof, ExploitFailure, ExploitParams, Exploiter, PteCorruption};
use crate::machine::{AttackVariant, Scenario};
use crate::profile::{FlipCatalog, ProfileParams, ProfileTables, Profiler};
use crate::steering::{with_retries, PageSteering, RetryPolicy, SteeringParams};

/// A catalogued bit re-located into the current VM's guest-physical
/// space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelocatedBit {
    /// Guest-physical address of the vulnerable cell.
    pub gpa: Gpa,
    /// Bit within the byte.
    pub bit: u8,
    /// Flip direction.
    pub direction: FlipDirection,
    /// Aggressor pair in the current guest-physical space.
    pub aggressors: [Gpa; 2],
    /// Stability flag from profiling.
    pub stable: bool,
}

impl RelocatedBit {
    /// The hugepage to release for this bit.
    pub fn hugepage_base(&self) -> Gpa {
        self.gpa.align_down(HUGE_PAGE_SIZE)
    }
}

/// Outcome of one attack attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// Full escape with proof.
    Success(EscapeProof),
    /// GbHammer variant: a control-field bit of a live leaf EPTE
    /// flipped — the permission-payload success, validated against host
    /// memory rather than through a witness read.
    PteCorrupted(PteCorruption),
    /// Xen variant: one steering experiment's reuse statistics. Counts
    /// as a success when at least one released frame was reused for a
    /// p2m table page (the Xen analogue of a landed EPT placement).
    Steered {
        /// Frames the domain released.
        released: u64,
        /// p2m table pages in the system afterwards.
        p2m_pages: u64,
        /// Released frames now holding p2m tables.
        reused: u64,
    },
    /// Exploitation failed for the stated reason.
    Failed(ExploitFailure),
    /// No catalogued bit could be re-located into this VM instance.
    NoUsableBits,
    /// The attempt was abandoned by a transient host fault that outlived
    /// the retry budget. The VM was torn down cleanly; the campaign
    /// counts the attempt as failed and moves on.
    Aborted(HvError),
    /// A host countermeasure refused a step the attack needs (the §6
    /// virtio-mem quarantine NACKing the release). The VM was torn down
    /// cleanly; the attempt failed, but no transient fault caused it.
    Blocked(HvError),
}

impl AttemptOutcome {
    /// `true` for the per-variant success outcomes:
    /// [`AttemptOutcome::Success`], [`AttemptOutcome::PteCorrupted`],
    /// and [`AttemptOutcome::Steered`] with a non-zero reuse count.
    pub fn is_success(&self) -> bool {
        match self {
            AttemptOutcome::Success(_) | AttemptOutcome::PteCorrupted(_) => true,
            AttemptOutcome::Steered { reused, .. } => *reused > 0,
            _ => false,
        }
    }
}

/// Record of one attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// What happened.
    pub outcome: AttemptOutcome,
    /// Simulated time the attempt took (including the VM respawn).
    pub duration: SimDuration,
    /// Bits targeted in this attempt.
    pub bits_targeted: usize,
    /// Sub-blocks actually released.
    pub released: usize,
}

/// Aggregated campaign results — the raw material of Table 3.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// Per-attempt records, in order.
    pub attempts: Vec<AttemptRecord>,
    /// Total simulated time of the campaign.
    pub total_time: SimDuration,
}

impl CampaignStats {
    /// 1-based index of the first successful attempt.
    pub fn first_success(&self) -> Option<usize> {
        self.attempts
            .iter()
            .position(|a| a.outcome.is_success())
            .map(|i| i + 1)
    }

    /// Mean simulated attempt duration in minutes. The sum saturates at
    /// `u64::MAX` nanoseconds instead of overflowing (a campaign of
    /// near-`u64::MAX` attempt durations yields the saturated mean, not
    /// a panic or a wrapped-around nonsense value).
    pub fn avg_attempt_mins(&self) -> f64 {
        if self.attempts.is_empty() {
            return 0.0;
        }
        let total = self
            .attempts
            .iter()
            .fold(SimDuration::ZERO, |acc, a| acc.saturating_add(a.duration));
        SimDuration::from_nanos(total.as_nanos() / self.attempts.len() as u64).as_mins_f64()
    }

    /// Simulated time from campaign start to the first success,
    /// saturating at `u64::MAX` nanoseconds.
    pub fn time_to_first_success(&self) -> Option<SimDuration> {
        let idx = self.first_success()?;
        Some(
            self.attempts[..idx]
                .iter()
                .fold(SimDuration::ZERO, |acc, a| acc.saturating_add(a.duration)),
        )
    }
}

/// Attack-campaign parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriverParams {
    /// Vulnerable bits targeted per attempt (§5.3.2 uses 12: each bit
    /// costs 1 GiB of spray budget and the VM has 12 GiB to spare).
    pub bits_per_attempt: usize,
    /// Exploitation settings.
    pub exploit: ExploitParams,
    /// Steering settings.
    pub steering: SteeringParams,
    /// Prefer bits profiling marked stable (they are targeted first);
    /// when `true`, unstable bits are excluded entirely rather than used
    /// as fallback.
    pub stable_bits_only: bool,
    /// Recovery policy for transient host faults, threaded through every
    /// steering stage and the campaign's VM-respawn path. Dead code when
    /// the host's fault plan is off.
    pub retry: RetryPolicy,
}

impl DriverParams {
    /// Paper-equivalent settings.
    pub fn paper() -> Self {
        Self {
            bits_per_attempt: 12,
            exploit: ExploitParams::paper(),
            steering: SteeringParams {
                // No artificial per-batch delay during real attempts —
                // that was only for plotting Figure 3.
                batch_delay_secs: 0,
                ..SteeringParams::paper()
            },
            // Table 1's S2 row has more exploitable (90) than stable (40)
            // bits, so the paper's 12-bit attempts must draw on unstable
            // bits too; stable ones are simply tried first.
            stable_bits_only: false,
            retry: RetryPolicy::standard(),
        }
    }
}

/// The end-to-end attack driver.
#[derive(Debug, Clone)]
pub struct AttackDriver {
    params: DriverParams,
    // Constructed once here rather than per attempt: a campaign runs
    // hundreds of attempts and the stages themselves are stateless.
    steering: PageSteering,
    exploiter: Exploiter,
    variant: AttackVariant,
}

impl AttackDriver {
    /// Creates a driver on the paper's virtio-mem path.
    pub fn new(params: DriverParams) -> Self {
        let steering = PageSteering::new(params.steering.clone()).with_retry(params.retry);
        let exploiter = Exploiter::new(params.exploit.clone());
        Self {
            params,
            steering,
            exploiter,
            variant: AttackVariant::VirtioMem,
        }
    }

    /// Returns a copy driving `variant`: the profiler's exploitability
    /// window, the steering stage, the hammer path, and the success
    /// criterion all follow. Campaign cells configure this from their
    /// scenario's variant.
    pub fn with_variant(mut self, variant: AttackVariant) -> Self {
        self.variant = variant;
        self.exploiter = self.exploiter.with_variant(variant);
        self
    }

    /// The attack variant this driver runs.
    pub fn variant(&self) -> AttackVariant {
        self.variant
    }

    /// Profiles the current VM and converts the result into a reusable
    /// host-physical catalogue.
    ///
    /// # Errors
    ///
    /// Propagates profiling errors.
    pub fn profile_and_catalog(
        &self,
        host: &mut Host,
        vm: &mut Vm,
        profile: ProfileParams,
    ) -> Result<FlipCatalog, HvError> {
        self.profile_and_catalog_with(host, vm, profile, None)
    }

    /// [`AttackDriver::profile_and_catalog`] with optionally precomputed
    /// [`ProfileTables`], so a campaign grid recovers the bank function
    /// once per scenario instead of once per cell. The catalogue is
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors.
    pub fn profile_and_catalog_with(
        &self,
        host: &mut Host,
        vm: &mut Vm,
        profile: ProfileParams,
        tables: Option<&ProfileTables>,
    ) -> Result<FlipCatalog, HvError> {
        let profiler = Profiler::new(profile).with_variant(self.variant);
        let report = profiler.run_with_tables(host, vm, tables)?;
        profiler.to_catalog(vm, &report)
    }

    /// Re-locates catalogued bits into a (fresh) VM instance using the
    /// debug hypercall: a bit is usable when both its vulnerable cell's
    /// hugepage and its aggressors' hugepage are currently backed by the
    /// VM, with the cell inside the unpluggable virtio-mem region.
    pub fn relocate(&self, vm: &Vm, catalog: &FlipCatalog) -> Vec<RelocatedBit> {
        // HPA hugepage base → GPA hugepage base for every backed chunk.
        let mut hpa_to_gpa = std::collections::HashMap::new();
        for (base, len) in vm.usable_ranges() {
            for off in (0..len).step_by(HUGE_PAGE_SIZE as usize) {
                let gpa = base.add(off);
                if let Ok(hpa) = vm.hypercall_gpa_to_hpa(gpa) {
                    if hpa.is_aligned(HUGE_PAGE_SIZE) {
                        hpa_to_gpa.insert(hpa.raw(), gpa);
                    }
                }
            }
        }
        let region = vm.virtio_mem();
        let region_base = region.region_base();
        let region_size = region.region_size();
        let mut out = Vec::new();
        let mut entries: Vec<&crate::profile::CatalogEntry> = catalog.entries.iter().collect();
        // Stable bits flip most reliably: target them first.
        entries.sort_by_key(|e| !e.stable);
        for e in entries {
            if self.params.stable_bits_only && !e.stable {
                continue;
            }
            let cell_hp_hpa = e.cell_hpa.align_down(HUGE_PAGE_SIZE);
            let Some(&cell_hp_gpa) = hpa_to_gpa.get(&cell_hp_hpa.raw()) else {
                continue;
            };
            let Some(&aggr_hp_gpa) = hpa_to_gpa.get(&e.aggressor_hugepage_hpa.raw()) else {
                continue;
            };
            let gpa = cell_hp_gpa.add(e.cell_hpa.offset_from(cell_hp_hpa));
            // Must be releasable: inside the virtio-mem region and in a
            // different hugepage than the aggressors.
            if gpa < region_base || gpa.offset_from(region_base) >= region_size {
                continue;
            }
            if cell_hp_gpa == aggr_hp_gpa {
                continue;
            }
            out.push(RelocatedBit {
                gpa,
                bit: e.bit,
                direction: e.direction,
                aggressors: [
                    aggr_hp_gpa.add(e.aggressor_offsets[0]),
                    aggr_hp_gpa.add(e.aggressor_offsets[1]),
                ],
                stable: e.stable,
            });
        }
        out
    }

    /// Candidate hugepages the balloon path executes to trigger multihit
    /// splits: every virtio-mem hugepage except the ones holding a
    /// victim cell or an aggressor pair, in region order. `steer` pops
    /// from the end, so the spray walks backwards from the region top —
    /// away from the low chunks where catalogued bits cluster.
    fn balloon_pool(vm: &Vm, bits: &[RelocatedBit]) -> Vec<Gpa> {
        let region = vm.virtio_mem();
        let base = region.region_base();
        let mut reserved: Vec<Gpa> = Vec::with_capacity(bits.len() * 2);
        for bit in bits {
            reserved.push(bit.hugepage_base());
            reserved.push(bit.aggressors[0].align_down(HUGE_PAGE_SIZE));
        }
        (0..region.region_size())
            .step_by(HUGE_PAGE_SIZE as usize)
            .map(|off| base.add(off))
            .filter(|hp| !reserved.contains(hp))
            .collect()
    }

    /// Runs one full attempt against an existing VM. The VM is consumed:
    /// hugepage splits are irreversible, so it is destroyed afterwards
    /// either way.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors (including the quarantine NACK from
    /// the release step).
    pub fn run_attempt(
        &self,
        host: &mut Host,
        mut vm: Vm,
        catalog: &FlipCatalog,
        target_hpa: Hpa,
    ) -> Result<AttemptRecord, HvError> {
        let start = host.now();
        let candidates = self.relocate(&vm, catalog);
        // Greedy conflict-free selection: a bit's victim hugepage must not
        // host another bit's aggressors (releasing it would unmap them),
        // and vice versa.
        let mut bits: Vec<RelocatedBit> = Vec::new();
        let mut victim_set: Vec<Gpa> = Vec::new();
        let mut aggressor_set: Vec<Gpa> = Vec::new();
        for bit in candidates {
            let victim_hp = bit.hugepage_base();
            let aggr_hp = bit.aggressors[0].align_down(HUGE_PAGE_SIZE);
            if aggressor_set.contains(&victim_hp) || victim_set.contains(&aggr_hp) {
                continue;
            }
            victim_set.push(victim_hp);
            aggressor_set.push(aggr_hp);
            bits.push(bit);
            if bits.len() >= self.params.bits_per_attempt {
                break;
            }
        }
        if bits.is_empty() {
            let duration = host.elapsed_since(start);
            vm.destroy(host);
            return Ok(AttemptRecord {
                outcome: AttemptOutcome::NoUsableBits,
                duration,
                bits_targeted: 0,
                released: 0,
            });
        }

        // Per-variant steering + exploitation pipeline. The virtio-mem
        // and gbhammer paths share the paper's steering (exhaust, release,
        // spray); balloon replaces it with per-page PCP placements; the
        // hammer/validation differences live inside the exploiter.
        let result: Result<(AttemptOutcome, usize), HvError> = (|| match self.variant {
            AttackVariant::Balloon => {
                // §6 balloon path: no exhaustion step — the freed frame
                // rides the per-CPU pageset straight into the next EPT
                // allocation. Stamp first, while chunks are huge-mapped.
                self.exploiter.stamp_magic(host, &mut vm)?;
                let mut pool = Self::balloon_pool(&vm, &bits);
                host.tracer().stage_start(hh_trace::Stage::BalloonSteer);
                let steered = BalloonSteering::new().steer(host, &mut vm, &bits, &mut pool);
                host.tracer().stage_end(hh_trace::Stage::BalloonSteer);
                let stats = steered?;
                let outcome = match self.exploiter.run(host, &mut vm, &bits, target_hpa)? {
                    Ok(proof) => AttemptOutcome::Success(proof),
                    Err(failure) => AttemptOutcome::Failed(failure),
                };
                Ok((outcome, stats.pages_released as usize))
            }
            AttackVariant::GbHammer => {
                // Paper steering, but no magic stamping: permission
                // flips never change a translation, so detection reads
                // the flip journal and host memory instead.
                self.steering.exhaust_noise(host, &mut vm)?;
                let victims: Vec<Gpa> = bits.iter().map(|b| b.hugepage_base()).collect();
                let released = self.steering.release_hugepages(host, &mut vm, &victims)?;
                self.steering.spray_ept(
                    host,
                    &mut vm,
                    PageSteering::spray_budget(released.len()),
                )?;
                let outcome = match self.exploiter.run_gb(host, &mut vm, &bits)? {
                    Ok(corruption) => AttemptOutcome::PteCorrupted(corruption),
                    Err(failure) => AttemptOutcome::Failed(failure),
                };
                Ok((outcome, released.len()))
            }
            // VirtioMem and PtHammer: exhaust noise, stamp magic while
            // chunks are still huge-mapped, release victims, spray EPT
            // pages, then hammer and hunt (PtHammer only changes how the
            // exploiter's hammer loop drives activations).
            AttackVariant::VirtioMem | AttackVariant::PtHammer | AttackVariant::Xen => {
                self.steering.exhaust_noise(host, &mut vm)?;
                self.exploiter.stamp_magic(host, &mut vm)?;
                let victims: Vec<Gpa> = bits.iter().map(|b| b.hugepage_base()).collect();
                let released = self.steering.release_hugepages(host, &mut vm, &victims)?;
                self.steering.spray_ept(
                    host,
                    &mut vm,
                    PageSteering::spray_budget(released.len()),
                )?;
                // Bits whose hugepage is gone are the live targets.
                let outcome = match self.exploiter.run(host, &mut vm, &bits, target_hpa)? {
                    Ok(proof) => AttemptOutcome::Success(proof),
                    Err(failure) => AttemptOutcome::Failed(failure),
                };
                Ok((outcome, released.len()))
            }
        })();

        let (outcome, released) = match result {
            Ok(pair) => pair,
            Err(e) => {
                // A failed attempt must still release the VM's resources
                // (the paper's procedure reboots either way).
                vm.destroy(host);
                return Err(e);
            }
        };
        let duration = host.elapsed_since(start);
        let bits_targeted = bits.len();
        vm.destroy(host);
        Ok(AttemptRecord {
            outcome,
            duration,
            bits_targeted,
            released,
        })
    }

    /// Runs attempts (respawning the VM each time) until the first
    /// success or `max_attempts`. Plants a host-side witness page so a
    /// successful escape is independently verifiable, as in the paper's
    /// §5.3.2 experiment. An attempt the quarantine refuses is recorded
    /// as [`AttemptOutcome::Blocked`] and the campaign carries on.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor errors other than the quarantine NACK.
    pub fn campaign(
        &self,
        scenario: &Scenario,
        host: &mut Host,
        catalog: &FlipCatalog,
        max_attempts: usize,
    ) -> Result<CampaignStats, HvError> {
        if self.variant == AttackVariant::Xen {
            return self.xen_campaign(scenario, host, max_attempts);
        }
        // The hypervisor page with a magic value (§5.3.2). Allocation
        // jitter from the fault plan can trip this too, so it retries
        // like any choke-point operation.
        let witness = with_retries(&self.params.retry, host, |h| {
            h.buddy_mut()
                .alloc_page(MigrateType::Unmovable)
                .map_err(HvError::from)
        })?;
        host.dram_mut()
            .store_mut()
            .write_u64(witness.base_hpa(), 0x4b56_4d45_5343_4150); // "KVMESCAP"

        let campaign_start = host.now();
        let mut stats = CampaignStats::default();
        for _ in 0..max_attempts {
            let respawn_start = host.now();
            let free_before = host.buddy().free_pages();
            // Aborts only happen under an active fault plan, so only
            // then is the pre-attempt snapshot worth its clone cost.
            let buddy_before = host
                .fault_plan()
                .config()
                .is_active()
                .then(|| host.buddy().snapshot());
            // A transient fault that outlives its retry budget abandons
            // the attempt, not the campaign — whether it trips the VM
            // respawn (constructor rolls itself back) or the attempt
            // proper (`run_attempt` tears the VM down). Either way the
            // host must be back to its pre-attempt page balance so the
            // next respawn starts clean.
            let attempt = with_retries(&self.params.retry, host, |h| {
                h.create_vm(scenario.vm_config())
            })
            .and_then(|vm| self.run_attempt(host, vm, catalog, witness.base_hpa()));
            let mut record = match attempt {
                Ok(record) => record,
                Err(e) if e.is_transient() => {
                    assert_eq!(
                        host.buddy().free_pages(),
                        free_before,
                        "aborted attempt must not leak host pages"
                    );
                    // Page *count* coming back is not enough: the
                    // abort's interleaved split/coalesce traffic leaves
                    // the free lists in a different LIFO order, and the
                    // next attempt's physical layout — hence its hammer
                    // outcome — would depend on where the fault struck.
                    // Restore the order too, so a cell's result is a
                    // function of its own seeds only.
                    if let Some(snap) = &buddy_before {
                        host.buddy_mut().restore_free_state(snap);
                    }
                    AttemptRecord {
                        outcome: AttemptOutcome::Aborted(e),
                        duration: SimDuration::ZERO,
                        bits_targeted: 0,
                        released: 0,
                    }
                }
                // The countermeasure did its job: `run_attempt` has
                // already destroyed the VM, so the attempt is recorded
                // and the campaign carries on.
                Err(e @ HvError::QuarantineNack { .. }) => {
                    assert_eq!(
                        host.buddy().free_pages(),
                        free_before,
                        "blocked attempt must not leak host pages"
                    );
                    AttemptRecord {
                        outcome: AttemptOutcome::Blocked(e),
                        duration: SimDuration::ZERO,
                        bits_targeted: 0,
                        released: 0,
                    }
                }
                Err(e) => return Err(e),
            };
            // Attempt cost includes the VM respawn (§5.3: failed attempts
            // force a restart).
            record.duration = host.elapsed_since(respawn_start);
            let success = record.outcome.is_success();
            if let AttemptOutcome::Success(proof) = &record.outcome {
                assert_eq!(
                    proof.value_read, 0x4b56_4d45_5343_4150,
                    "escape proof must read the planted witness"
                );
            }
            stats.attempts.push(record);
            if success {
                break;
            }
        }
        stats.total_time = host.elapsed_since(campaign_start);
        Ok(stats)
    }

    /// The Xen variant's campaign body: no KVM VM, witness, or flip
    /// catalogue — each attempt creates a Xen domain of the scenario's
    /// size and runs one p2m steering experiment, measuring how many
    /// released frames the hypervisor reuses for p2m tables (the Xen
    /// analogue of a landed EPT placement). One reused frame counts as
    /// success, mirroring the other variants' first-success semantics.
    fn xen_campaign(
        &self,
        scenario: &Scenario,
        host: &mut Host,
        max_attempts: usize,
    ) -> Result<CampaignStats, HvError> {
        let mem_bytes = scenario.vm_config().total_mem().bytes();
        // Release one superpage block per targeted bit; demote an order
        // of magnitude more so reuse is observable even when the stride
        // scatters releases across the domain.
        let blocks = self.params.bits_per_attempt as u64;
        let demotions = blocks * 10;
        let campaign_start = host.now();
        let mut stats = CampaignStats::default();
        for _ in 0..max_attempts {
            let attempt_start = host.now();
            let attempt = with_retries(&self.params.retry, host, |h| {
                let mut dom = hh_hv::xen::XenDomain::create(h, mem_bytes)?;
                h.tracer().stage_start(hh_trace::Stage::XenSteer);
                let reuse = hh_hv::xen::steering_experiment(h, &mut dom, blocks, demotions);
                h.tracer().stage_end(hh_trace::Stage::XenSteer);
                dom.destroy(h);
                reuse
            });
            let record = match attempt {
                Ok(reuse) => AttemptRecord {
                    outcome: AttemptOutcome::Steered {
                        released: reuse.released,
                        p2m_pages: reuse.p2m_pages,
                        reused: reuse.reused,
                    },
                    duration: host.elapsed_since(attempt_start),
                    bits_targeted: blocks as usize,
                    released: reuse.released as usize,
                },
                Err(e) if e.is_transient() => AttemptRecord {
                    outcome: AttemptOutcome::Aborted(e),
                    duration: host.elapsed_since(attempt_start),
                    bits_targeted: 0,
                    released: 0,
                },
                Err(e) => return Err(e),
            };
            let success = record.outcome.is_success();
            stats.attempts.push(record);
            if success {
                break;
            }
        }
        stats.total_time = host.elapsed_since(campaign_start);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Scenario;

    fn driver_for_tiny() -> DriverParams {
        DriverParams {
            bits_per_attempt: 4,
            stable_bits_only: true,
            ..DriverParams::paper()
        }
    }

    #[test]
    fn relocate_survives_a_respawn() {
        let sc = Scenario::tiny_demo();
        let mut host = sc.boot_host();
        let mut vm = host.create_vm(sc.vm_config()).unwrap();
        let driver = AttackDriver::new(driver_for_tiny());
        let catalog = driver
            .profile_and_catalog(&mut host, &mut vm, sc.profile_params())
            .unwrap();
        vm.destroy(&mut host);

        if catalog.entries.is_empty() {
            return; // seed produced no exploitable stable bits — fine
        }
        let vm2 = host.create_vm(sc.vm_config()).unwrap();
        let relocated = driver.relocate(&vm2, &catalog);
        // Most chunks land back in the same frames (LIFO reuse), so most
        // catalogued bits relocate.
        for bit in &relocated {
            assert_ne!(
                bit.hugepage_base(),
                bit.aggressors[0].align_down(HUGE_PAGE_SIZE)
            );
            // Relocated coordinates are consistent with the hypercall.
            let hpa = vm2.hypercall_gpa_to_hpa(bit.gpa).unwrap();
            assert!(catalog.entries.iter().any(|e| e.cell_hpa == hpa));
        }
        vm2.destroy(&mut host);
    }

    #[test]
    fn campaign_attempts_are_recorded_and_bounded() {
        let sc = Scenario::tiny_demo();
        let mut host = sc.boot_host();
        let mut vm = host.create_vm(sc.vm_config()).unwrap();
        let driver = AttackDriver::new(driver_for_tiny());
        let catalog = driver
            .profile_and_catalog(&mut host, &mut vm, sc.profile_params())
            .unwrap();
        vm.destroy(&mut host);

        let stats = driver.campaign(&sc, &mut host, &catalog, 3).unwrap();
        assert!(!stats.attempts.is_empty() && stats.attempts.len() <= 3);
        assert!(stats.total_time.as_nanos() > 0);
        for a in &stats.attempts {
            assert!(a.duration.as_nanos() > 0);
        }
        // Host is left balanced: all VMs destroyed.
        let _ = stats.avg_attempt_mins();
    }

    fn record(outcome: AttemptOutcome, nanos: u64) -> AttemptRecord {
        AttemptRecord {
            outcome,
            duration: SimDuration::from_nanos(nanos),
            bits_targeted: 0,
            released: 0,
        }
    }

    #[test]
    fn stats_saturate_instead_of_overflowing() {
        // Three near-u64::MAX attempts: the raw nanosecond sum would
        // overflow twice over; the folds must saturate, not wrap or
        // panic.
        let proof = crate::exploit::EscapeProof {
            controlled_gpa: hh_sim::addr::Gpa::new(0),
            ept_window_gpa: hh_sim::addr::Gpa::new(0),
            target_hpa: Hpa::new(0),
            value_read: 0,
        };
        let stats = CampaignStats {
            attempts: vec![
                record(AttemptOutcome::NoUsableBits, u64::MAX - 17),
                record(AttemptOutcome::NoUsableBits, u64::MAX / 2),
                record(AttemptOutcome::Success(proof), u64::MAX),
            ],
            total_time: SimDuration::from_nanos(u64::MAX),
        };
        assert_eq!(
            stats.time_to_first_success(),
            Some(SimDuration::from_nanos(u64::MAX))
        );
        let mins = stats.avg_attempt_mins();
        // Saturated sum / 3 attempts, in minutes — finite and positive.
        assert!(mins.is_finite() && mins > 0.0);
        assert!((mins - SimDuration::from_nanos(u64::MAX / 3).as_mins_f64()).abs() < 1.0);
    }

    #[test]
    fn stats_on_empty_campaign_are_zero() {
        let stats = CampaignStats::default();
        assert_eq!(stats.avg_attempt_mins(), 0.0);
        assert_eq!(stats.time_to_first_success(), None);
        assert_eq!(stats.first_success(), None);
    }
}
