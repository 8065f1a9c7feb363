//! The guest VM: address space, THP backing, the iTLB-Multihit
//! countermeasure, and attacker-observable memory operations.
//!
//! # Observational-equivalence scans
//!
//! A real attacker detects Rowhammer corruption by linearly reading
//! gigabytes of its own memory. Simulating those reads byte-by-byte would
//! dominate runtime without changing any observable, so the scan methods
//! ([`Vm::scan_for_flips`], [`Vm::scan_magic`]) are implemented against
//! the DRAM flip journal while being **charged the full linear-scan
//! cost** on the simulated clock. The equivalence argument: guest-visible
//! bytes change only through (a) the guest's own writes, (b) DRAM bit
//! flips (all journaled), or (c) translations redirected by (a)+(b)
//! landing inside EPT pages — and the candidate sets derived from the
//! journal and the EPT-write log cover exactly (b) and (c). A linear scan
//! would find the same set of changed pages, five orders of magnitude
//! more slowly.

use std::collections::BTreeMap;

use hh_buddy::MigrateType;
use hh_dram::FlipDirection;
use hh_sim::addr::{Gpa, Hpa, Pfn, HUGE_PAGE_SIZE, PAGE_SIZE};
use hh_sim::hash::U64Map;
use hh_sim::ByteSize;

use crate::balloon::VirtioBalloon;
use crate::ept::{Ept, EptMode, MappingLevel, Translation};
use crate::host::Host;
use crate::viommu::IommuGroup;
use crate::virtio_mem::{VirtioMemDevice, SUB_BLOCK_SIZE};
use crate::HvError;

/// VM construction parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmConfig {
    /// Boot (always-plugged) memory.
    pub boot_mem: ByteSize,
    /// virtio-mem region size (hot-(un)pluggable in 2 MiB sub-blocks).
    pub virtio_mem: ByteSize,
    /// vCPU count (cost-model flavour only; the simulation is
    /// single-threaded).
    pub vcpus: u32,
    /// Assigned PCI devices, one IOMMU group each (§3 assumes ≥ 1).
    pub iommu_groups: usize,
    /// Host backs guest memory with transparent hugepages.
    pub thp: bool,
    /// The iTLB-Multihit countermeasure: hugepages mapped NX, split to
    /// 4 KiB on first execution (§4.2.3).
    pub multihit_mitigation: bool,
    /// EPT paging mode (§2.2; the paper focuses on 4-level).
    pub ept_mode: EptMode,
}

impl VmConfig {
    /// A tiny VM for unit tests: 4 MiB boot + 32 MiB virtio-mem.
    pub fn small_test() -> Self {
        Self {
            boot_mem: ByteSize::mib(4),
            virtio_mem: ByteSize::mib(32),
            vcpus: 1,
            iommu_groups: 1,
            thp: true,
            multihit_mitigation: true,
            ept_mode: EptMode::FourLevel,
        }
    }

    /// The paper's attacker HVM (§5): 4 vCPUs, 13 GiB total memory
    /// (1 GiB boot + 12 GiB virtio-mem), one NIC.
    pub fn paper_attacker() -> Self {
        Self {
            boot_mem: ByteSize::gib(1),
            virtio_mem: ByteSize::gib(12),
            vcpus: 4,
            iommu_groups: 1,
            thp: true,
            multihit_mitigation: true,
            ept_mode: EptMode::FourLevel,
        }
    }

    /// Total configured memory.
    pub fn total_mem(&self) -> ByteSize {
        self.boot_mem + self.virtio_mem
    }
}

/// Backing of one 2 MiB guest-physical chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Backing {
    /// One order-9 block (THP).
    Huge(Pfn),
    /// 512 independent frames (THP failure or post-balloon split);
    /// `None` marks pages surrendered to the balloon.
    Pages(Vec<Option<Pfn>>),
}

/// A flip observed by scanning guest memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestFlip {
    /// Byte address of the corrupted cell in guest-physical space.
    pub gpa: Gpa,
    /// Bit index within the byte.
    pub bit: u8,
    /// Observed flip direction.
    pub direction: FlipDirection,
}

impl GuestFlip {
    /// Bit position within the containing aligned 64-bit word — what
    /// decides exploitability against an EPTE PFN field (§4.1).
    pub fn bit_in_word(&self) -> u32 {
        (self.gpa.raw() % 8) as u32 * 8 + u32::from(self.bit)
    }
}

/// A guest virtual machine.
#[derive(Debug)]
pub struct Vm {
    id: u32,
    config: VmConfig,
    ept: Ept,
    /// 2 MiB GPA chunk index → backing.
    backing: BTreeMap<u64, Backing>,
    /// Reverse map: HPA 2 MiB chunk index → GPA chunk index, for
    /// huge-backed chunks (flip attribution).
    rev_huge: U64Map<u64>,
    /// Reverse map for individually backed pages: HPA frame → GPA frame.
    rev_pages: U64Map<u64>,
    /// Leaf PT pages created for this VM → base GPA of the 2 MiB window
    /// they map.
    pt_windows: U64Map<Gpa>,
    /// PT pages whose contents the *guest* may have modified through a
    /// corrupted mapping (candidates for mapping-change scans).
    dirty_pt_pages: Vec<u64>,
    virtio_mem: VirtioMemDevice,
    iommu_groups: Vec<IommuGroup>,
    balloon: VirtioBalloon,
    journal_start: usize,
}

impl Host {
    /// Creates and fully provisions a VM.
    ///
    /// Because the VM has an assigned (VFIO) device, the hypervisor
    /// pre-allocates and pins the *entire* address space at creation
    /// (§2.6, §4.2.3): every 2 MiB chunk gets an order-9 THP block,
    /// re-typed `MIGRATE_UNMOVABLE`, and a 2 MiB EPT mapping that is
    /// **non-executable** when the iTLB-Multihit countermeasure is on.
    ///
    /// # Errors
    ///
    /// [`HvError::OutOfHostMemory`] if the host cannot back the VM.
    pub fn create_vm(&mut self, config: VmConfig) -> Result<Vm, HvError> {
        self.charge_vm_reboot();
        let ept = Ept::new_with_mode(self, config.ept_mode)?;
        let mut vm = Vm {
            id: self.next_vm_id(),
            ept,
            backing: BTreeMap::new(),
            rev_huge: U64Map::default(),
            rev_pages: U64Map::default(),
            pt_windows: U64Map::default(),
            dirty_pt_pages: Vec::new(),
            virtio_mem: VirtioMemDevice::new(
                Gpa::new(config.boot_mem.bytes()),
                config.virtio_mem.bytes(),
            ),
            iommu_groups: (0..config.iommu_groups)
                .map(|_| IommuGroup::new())
                .collect(),
            balloon: VirtioBalloon::new(),
            config,
            journal_start: 0,
        };
        let total = vm.config.total_mem().bytes();
        let mut gpa = 0u64;
        while gpa < total {
            if let Err(e) = vm.provision_chunk(self, Gpa::new(gpa)) {
                // Roll the partial VM back so the host stays balanced.
                vm.destroy(self);
                return Err(e);
            }
            gpa += HUGE_PAGE_SIZE;
        }
        vm.journal_start = self.dram().flip_journal().len();
        Ok(vm)
    }
}

impl Vm {
    /// VM identifier.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The construction parameters.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The virtio-mem device state.
    pub fn virtio_mem(&self) -> &VirtioMemDevice {
        &self.virtio_mem
    }

    /// Backs and maps one 2 MiB chunk.
    fn provision_chunk(&mut self, host: &mut Host, base: Gpa) -> Result<(), HvError> {
        debug_assert!(base.is_aligned(HUGE_PAGE_SIZE));
        let chunk = base.raw() / HUGE_PAGE_SIZE;
        let executable = !self.config.multihit_mitigation;
        if self.config.thp {
            if let Ok(block) = host.buddy_mut().alloc(9, MigrateType::Movable) {
                // VFIO pins the guest's pages (§2.6).
                host.buddy_mut()
                    .set_migrate_type(block, 9, MigrateType::Unmovable);
                if let Err(e) = self.ept.map_huge(host, base, block.base_hpa(), executable) {
                    // The block is not in `backing` yet, so the caller's
                    // `destroy` rollback cannot reach it: free it here.
                    host.buddy_mut().free(block, 9);
                    return Err(e);
                }
                self.backing.insert(chunk, Backing::Huge(block));
                self.rev_huge.insert(block.index() / 512, chunk);
                return Ok(());
            }
        }
        // THP failure (or THP disabled): 512 individual frames. On
        // mid-loop failure the partial frames must be rolled back, or a
        // failed VM creation would strand them.
        let mut frames = Vec::with_capacity(512);
        let mut fallible = || -> Result<(), HvError> {
            for i in 0..512u64 {
                let frame = host.buddy_mut().alloc_page(MigrateType::Movable)?;
                host.buddy_mut()
                    .set_migrate_type(frame, 0, MigrateType::Unmovable);
                self.ept
                    .map_4k(host, base.add(i * PAGE_SIZE), frame.base_hpa(), true)?;
                self.rev_pages.insert(frame.index(), base.pfn().index() + i);
                frames.push(Some(frame));
            }
            Ok(())
        };
        if let Err(e) = fallible() {
            for frame in frames.into_iter().flatten() {
                self.rev_pages.remove(&frame.index());
                // The EPT mapping (if created) is torn down with the EPT
                // hierarchy by the caller's rollback.
                host.buddy_mut().free_page(frame);
            }
            return Err(e);
        }
        if let Some(pt) = self.ept_pt_page(host, base) {
            self.pt_windows.insert(pt.index(), base);
        }
        self.backing.insert(chunk, Backing::Pages(frames));
        Ok(())
    }

    fn ept_pt_page(&self, host: &Host, gpa: Gpa) -> Option<Pfn> {
        // Walk to the PD entry; a non-large present entry names the PT.
        let t = self.ept.translate(host, gpa).ok()?;
        match t.level {
            MappingLevel::Page4K => Some(t.entry_hpa.pfn()),
            MappingLevel::Huge2M => None,
        }
    }

    /// The *intended* host frame of a guest page, from the hypervisor's
    /// own bookkeeping (unaffected by corruption).
    fn expected_hpa(&self, gpa: Gpa) -> Option<Hpa> {
        let chunk = gpa.raw() / HUGE_PAGE_SIZE;
        match self.backing.get(&chunk)? {
            Backing::Huge(block) => Some(block.base_hpa().add(gpa.huge_page_offset())),
            Backing::Pages(frames) => {
                let idx = (gpa.huge_page_offset() / PAGE_SIZE) as usize;
                frames[idx].map(|f| f.base_hpa().add(gpa.page_offset()))
            }
        }
    }

    /// Translates through the live EPT (honest walk over DRAM contents).
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] if the walk fails.
    pub fn translate_gpa(&self, host: &Host, gpa: Gpa) -> Result<Translation, HvError> {
        self.ept.translate(host, gpa)
    }

    /// The paper's §5.3.2 debug hypercall: GPA → HPA from hypervisor
    /// bookkeeping, used to re-locate profiled vulnerable frames after a
    /// VM respawn without re-profiling.
    ///
    /// # Errors
    ///
    /// [`HvError::OutOfGuestRange`] for unbacked addresses.
    pub fn hypercall_gpa_to_hpa(&self, gpa: Gpa) -> Result<Hpa, HvError> {
        self.expected_hpa(gpa).ok_or(HvError::OutOfGuestRange(gpa))
    }

    /// Reads guest memory through the EPT.
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] if any page in the range is unmapped or the
    /// (possibly corrupted) translation leaves physical memory.
    pub fn read_gpa(&self, host: &Host, gpa: Gpa, len: usize) -> Result<Vec<u8>, HvError> {
        let mut out = Vec::with_capacity(len);
        let len = len as u64;
        let mut off = 0u64;
        // One EPT walk per touched page: translations are contiguous
        // within a page (base frame + offset), so a single walk covers
        // the rest of the page.
        while off < len {
            let a = gpa.add(off);
            let t = self.ept.translate(host, a)?;
            let span = (PAGE_SIZE - a.page_offset()).min(len - off);
            let geometry = host.dram().geometry();
            if !geometry.contains(t.hpa) {
                return Err(HvError::Unmapped(a));
            }
            if !geometry.contains(t.hpa.add(span - 1)) {
                // The translation leaves the device mid-span: report the
                // first off-device byte, as a per-byte walk would.
                let valid = (0..span)
                    .find(|&i| !geometry.contains(t.hpa.add(i)))
                    .unwrap_or(span);
                return Err(HvError::Unmapped(a.add(valid)));
            }
            out.extend_from_slice(&host.dram().store().read_bytes(t.hpa, span as usize));
            off += span;
        }
        Ok(out)
    }

    /// Reads an aligned `u64` through the EPT.
    ///
    /// # Errors
    ///
    /// Same as [`Self::read_gpa`].
    pub fn read_u64_gpa(&self, host: &Host, gpa: Gpa) -> Result<u64, HvError> {
        let t = self.ept.translate(host, gpa)?;
        if !host.dram().geometry().contains(t.hpa.add(7)) {
            return Err(HvError::Unmapped(gpa));
        }
        Ok(host.dram().store().read_u64(t.hpa))
    }

    /// Writes guest memory through the EPT. Writes landing inside one of
    /// this VM's EPT pages (via a corrupted mapping) are recorded so
    /// subsequent [`Self::scan_magic`] calls account for the secondary
    /// mapping changes.
    ///
    /// # Errors
    ///
    /// Same as [`Self::read_gpa`].
    pub fn write_gpa(&mut self, host: &mut Host, gpa: Gpa, bytes: &[u8]) -> Result<(), HvError> {
        let len = bytes.len() as u64;
        let mut off = 0u64;
        // One EPT walk and one dirty-page check per touched page (the
        // whole span shares a frame), not per byte.
        while off < len {
            let a = gpa.add(off);
            let t = self.ept.translate(host, a)?;
            let span = (PAGE_SIZE - a.page_offset()).min(len - off);
            let geometry = host.dram().geometry();
            if !geometry.contains(t.hpa) {
                return Err(HvError::Unmapped(a));
            }
            let valid = if geometry.contains(t.hpa.add(span - 1)) {
                span
            } else {
                (0..span)
                    .find(|&i| !geometry.contains(t.hpa.add(i)))
                    .unwrap_or(span)
            };
            let frame = t.hpa.pfn().index();
            if self.pt_windows.contains_key(&frame) && !self.dirty_pt_pages.contains(&frame) {
                self.dirty_pt_pages.push(frame);
            }
            let chunk = &bytes[off as usize..(off + valid) as usize];
            host.dram_mut().store_mut().write_bytes(t.hpa, chunk);
            if valid < span {
                // Partial span off-device: the valid prefix is written
                // (matching the per-byte walk), then the fault surfaces.
                return Err(HvError::Unmapped(a.add(valid)));
            }
            off += span;
        }
        Ok(())
    }

    /// Writes an aligned `u64` through the EPT (EPTE-sized stores for the
    /// exploitation step).
    ///
    /// # Errors
    ///
    /// Same as [`Self::read_gpa`].
    pub fn write_u64_gpa(&mut self, host: &mut Host, gpa: Gpa, value: u64) -> Result<(), HvError> {
        self.write_gpa(host, gpa, &value.to_le_bytes())
    }

    /// Fills `[gpa, gpa+len)` with `value`, charging bulk write cost.
    /// Like [`Self::stamp_region`], one EPT walk covers the rest of a
    /// 2 MiB leaf; split chunks take one walk per page.
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] on translation failure.
    ///
    /// # Panics
    ///
    /// Panics if the range is not page-aligned.
    pub fn fill_gpa(
        &mut self,
        host: &mut Host,
        gpa: Gpa,
        len: u64,
        value: u8,
    ) -> Result<(), HvError> {
        assert!(gpa.is_aligned(PAGE_SIZE) && len.is_multiple_of(PAGE_SIZE));
        let mut off = 0u64;
        while off < len {
            let at = gpa.add(off);
            let t = self.ept.translate(host, at)?;
            let span = match t.level {
                MappingLevel::Huge2M => (HUGE_PAGE_SIZE - at.huge_page_offset()).min(len - off),
                MappingLevel::Page4K => PAGE_SIZE,
            };
            host.dram_mut().store_mut().fill(t.hpa, span, value);
            off += span;
        }
        host.charge_write(len);
        Ok(())
    }

    /// Overwrites one guest page with `fill` and stamps `magic` into its
    /// first eight bytes — the §4.3 magic-value marking, at the cost of
    /// one page write.
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] on translation failure.
    ///
    /// # Panics
    ///
    /// Panics if `gpa` is not page-aligned.
    pub fn stamp_page(
        &mut self,
        host: &mut Host,
        gpa: Gpa,
        fill: u8,
        magic: u64,
    ) -> Result<(), HvError> {
        assert!(gpa.is_aligned(PAGE_SIZE));
        let t = self.ept.translate(host, gpa)?;
        let store = host.dram_mut().store_mut();
        store.fill(t.hpa, PAGE_SIZE, fill);
        store.write_u64(t.hpa, magic);
        host.charge_write(PAGE_SIZE);
        Ok(())
    }

    /// Executes code at `gpa`. Under the iTLB-Multihit countermeasure,
    /// execution on an NX 2 MiB mapping faults into the hypervisor, which
    /// splits the mapping into 512 executable 4 KiB entries in a freshly
    /// allocated EPT page (§4.2.3) — the lever Page Steering pulls.
    ///
    /// Returns `true` if this execution triggered a split (observable to
    /// the guest through the page-fault latency).
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] for unmapped addresses;
    /// [`HvError::ExecFault`] for non-executable 4 KiB mappings;
    /// allocation errors propagate from the split.
    pub fn exec_gpa(&mut self, host: &mut Host, gpa: Gpa) -> Result<bool, HvError> {
        let t = self.ept.translate(host, gpa)?;
        match t.level {
            MappingLevel::Huge2M if !t.entry.is_executable() => {
                let pt = self.ept.split_huge(host, gpa)?;
                self.pt_windows
                    .insert(pt.index(), Gpa::new(gpa.align_down(HUGE_PAGE_SIZE).raw()));
                Ok(true)
            }
            MappingLevel::Huge2M => Ok(false),
            MappingLevel::Page4K if t.entry.is_executable() => Ok(false),
            MappingLevel::Page4K => Err(HvError::ExecFault(gpa)),
        }
    }

    /// Stamps every 4 KiB page in `[base, base+len)` with `fill` bytes
    /// plus a per-page magic `u64` in its first eight bytes, charging one
    /// bulk write. Hugepage-mapped chunks are stamped with a single EPT
    /// walk per 2 MiB; already-split chunks fall back to per-page walks.
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] on translation failure.
    ///
    /// # Panics
    ///
    /// Panics if the range is not 4 KiB-aligned.
    pub fn stamp_region(
        &mut self,
        host: &mut Host,
        base: Gpa,
        len: u64,
        fill: u8,
        magic_of: &dyn Fn(Gpa) -> u64,
    ) -> Result<(), HvError> {
        assert!(base.is_aligned(PAGE_SIZE) && len.is_multiple_of(PAGE_SIZE));
        let mut off = 0u64;
        while off < len {
            let gpa = base.add(off);
            let t = self.ept.translate(host, gpa)?;
            let chunk_left = HUGE_PAGE_SIZE - gpa.huge_page_offset();
            let span = chunk_left.min(len - off);
            match t.level {
                MappingLevel::Huge2M => {
                    // One walk covers the rest of this chunk.
                    let store = host.dram_mut().store_mut();
                    for p in (0..span).step_by(PAGE_SIZE as usize) {
                        store.reset_page_with_magic(t.hpa.add(p), fill, magic_of(gpa.add(p)));
                    }
                    off += span;
                }
                MappingLevel::Page4K => {
                    host.dram_mut()
                        .store_mut()
                        .reset_page_with_magic(t.hpa, fill, magic_of(gpa));
                    off += PAGE_SIZE;
                }
            }
        }
        host.charge_write(len);
        Ok(())
    }

    /// Explicit-load rounds per walker-driven activation in
    /// [`Vm::walk_hammer_gpa`]: the flush-TLB + flush-cache + touch
    /// cycle that forces each EPT-walker fetch costs about four times
    /// an explicit aggressor load.
    pub const WALK_FETCH_DIVISOR: u64 = 4;

    /// Hammers DRAM using aggressor addresses expressed as GPAs; the
    /// pattern is whatever those addresses' *current* translations are.
    /// Returns the number of activations issued. Flips are only
    /// observable through the scan methods, as for a real attacker.
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] if an aggressor is unmapped.
    pub fn hammer_gpa(
        &self,
        host: &mut Host,
        aggressors: &[Gpa],
        rounds: u64,
    ) -> Result<u64, HvError> {
        let mut hpas = Vec::with_capacity(aggressors.len());
        for &gpa in aggressors {
            let t = self.ept.translate(host, gpa)?;
            if !host.dram().geometry().contains(t.hpa) {
                return Err(HvError::Unmapped(gpa));
            }
            hpas.push(t.hpa);
        }
        let pattern = hh_dram::HammerPattern::new(hpas);
        let result = host.dram_mut().hammer(&pattern, rounds);
        host.charge_hammer(result.activations);
        Ok(result.activations)
    }

    /// PThammer-style implicit hammering: instead of loading the
    /// aggressor cells directly, the guest forces the EPT walker to
    /// fetch the aggressor addresses' page-table cachelines (TLB- and
    /// cache-flushing between accesses). Each guest access yields one
    /// walker fetch per flush cycle, and the flush overhead means only
    /// one activation lands per [`Vm::WALK_FETCH_DIVISOR`] explicit-load
    /// rounds — fewer activations per refresh window, hence a lower
    /// flip yield than [`Vm::hammer_gpa`] for the same round budget.
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] if an aggressor is unmapped.
    pub fn walk_hammer_gpa(
        &self,
        host: &mut Host,
        aggressors: &[Gpa],
        rounds: u64,
    ) -> Result<u64, HvError> {
        let mut hpas = Vec::with_capacity(aggressors.len());
        for &gpa in aggressors {
            let t = self.ept.translate(host, gpa)?;
            if !host.dram().geometry().contains(t.hpa) {
                return Err(HvError::Unmapped(gpa));
            }
            hpas.push(t.hpa);
        }
        let pattern = hh_dram::HammerPattern::new(hpas);
        let walk_rounds = rounds / Self::WALK_FETCH_DIVISOR;
        let result = host.dram_mut().hammer(&pattern, walk_rounds);
        // The guest still burns the full round budget's wall time: the
        // flush-and-walk cycle is what eats the missing activations.
        host.charge_hammer(result.activations * Self::WALK_FETCH_DIVISOR);
        Ok(result.activations)
    }

    /// Scans `[base, base+len)` of guest memory for bit flips relative to
    /// a previously written fill pattern, returning flips that occurred
    /// since journal position `since` (take it from
    /// [`Self::journal_cursor`] before hammering).
    ///
    /// Charged as a full linear scan; implemented via the flip journal
    /// (see the module docs for the equivalence argument).
    pub fn scan_for_flips(
        &self,
        host: &mut Host,
        since: usize,
        base: Gpa,
        len: u64,
    ) -> Vec<GuestFlip> {
        host.charge_scan(len);
        host.dram().flip_journal()[since..]
            .iter()
            .filter_map(|f| {
                let gpa = self.gpa_of_hpa(Hpa::new(f.hpa.raw()))?;
                if gpa < base || gpa.offset_from(base) >= len {
                    return None;
                }
                Some(GuestFlip {
                    gpa,
                    bit: f.bit,
                    direction: f.direction,
                })
            })
            .collect()
    }

    /// Current flip-journal cursor (pair with [`Self::scan_for_flips`]).
    pub fn journal_cursor(&self, host: &Host) -> usize {
        host.dram().flip_journal().len()
    }

    /// Attributes a host frame back to the guest page currently backed by
    /// it, if any.
    fn gpa_of_hpa(&self, hpa: Hpa) -> Option<Gpa> {
        let hpa_chunk = hpa.raw() / HUGE_PAGE_SIZE;
        if let Some(&gpa_chunk) = self.rev_huge.get(&hpa_chunk) {
            return Some(Gpa::new(
                gpa_chunk * HUGE_PAGE_SIZE + hpa.huge_page_offset(),
            ));
        }
        let frame = hpa.pfn().index();
        self.rev_pages
            .get(&frame)
            .map(|&gframe| Gpa::new(gframe * PAGE_SIZE + hpa.page_offset()))
    }

    /// Scans a guest-physical region for pages whose contents no longer
    /// match their magic stamp — the §4.3 "identifying mapping change"
    /// step. `magic_of` must be the same function used when stamping.
    ///
    /// Returns the base GPAs of changed pages. Unmapped/unreadable pages
    /// (translation redirected off-device) are reported as changed.
    ///
    /// Charged as a full linear scan of the region; implemented from the
    /// journal plus the EPT-write log (see module docs).
    pub fn scan_magic(
        &self,
        host: &mut Host,
        base: Gpa,
        len: u64,
        magic_of: &dyn Fn(Gpa) -> u64,
    ) -> Vec<Gpa> {
        host.charge_scan(len);
        let mut candidates: Vec<Gpa> = Vec::new();

        // (b) flips: in data pages (magic bytes themselves) and in EPT
        // pages (redirected translations).
        for f in &host.dram().flip_journal()[self.journal_start..] {
            if let Some(gpa) = self.gpa_of_hpa(f.hpa) {
                candidates.push(Gpa::new(gpa.align_down(PAGE_SIZE).raw()));
            }
            let frame = f.hpa.pfn().index();
            if let Some(&window) = self.pt_windows.get(&frame) {
                let entry_index = f.hpa.page_offset() / 8;
                candidates.push(window.add(entry_index * PAGE_SIZE));
            }
        }
        // (c) guest writes that landed inside EPT pages: every entry of
        // those pages may have been rewritten.
        for &frame in &self.dirty_pt_pages {
            if let Some(&window) = self.pt_windows.get(&frame) {
                for i in 0..512u64 {
                    candidates.push(window.add(i * PAGE_SIZE));
                }
            }
        }

        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .filter(|&gpa| gpa >= base && gpa.offset_from(base) < len)
            .filter(|&gpa| match self.read_u64_gpa(host, gpa) {
                Ok(value) => value != magic_of(gpa),
                Err(_) => true, // unreadable ⇒ mapping definitely changed
            })
            .collect()
    }

    // ----- virtio-mem -----------------------------------------------

    /// The modified driver's voluntary unplug (§4.2.2,
    /// `virtio_mem_sbm_unplug_sb_online`): releases the 2 MiB sub-block
    /// at `gpa` to the host even though the host never asked. The host
    /// unmaps the EPT range and `madvise`s the backing away, which lands
    /// it on the buddy free lists as an order-9 `MIGRATE_UNMOVABLE`
    /// block. The driver modification that suppresses the automatic
    /// re-plug is modelled by simply not plugging back.
    ///
    /// # Errors
    ///
    /// Protocol errors from [`VirtioMemDevice::unplug`] (including
    /// [`HvError::QuarantineNack`] under the §6 countermeasure),
    /// [`HvError::NotHugeBacked`] if THP did not back this sub-block with
    /// a single order-9 block, or [`HvError::Transient`] when the host's
    /// fault plan drops the request (retryable; no state changed).
    pub fn virtio_mem_unplug(&mut self, host: &mut Host, gpa: Gpa) -> Result<(), HvError> {
        // Validate backing before touching protocol state.
        let chunk = gpa.raw() / HUGE_PAGE_SIZE;
        match self.backing.get(&chunk) {
            Some(Backing::Huge(_)) => {}
            Some(Backing::Pages(_)) => return Err(HvError::NotHugeBacked(gpa)),
            None => return Err(HvError::NotPlugged(gpa)),
        }
        self.virtio_mem.unplug_on(host, gpa)?;
        let Some(Backing::Huge(block)) = self.backing.remove(&chunk) else {
            unreachable!("validated above");
        };
        self.ept.unmap(host, gpa)?;
        self.rev_huge.remove(&(block.index() / 512));
        host.buddy_mut().free(block, 9);
        host.log_released(block, 512);
        host.charge_virtio_mem_unplug();
        host.tracer().virtio_mem_unplug(gpa.raw());
        Ok(())
    }

    /// Plugs the sub-block at `gpa` back in (fresh backing, fresh NX
    /// mapping).
    ///
    /// # Errors
    ///
    /// Protocol errors from [`VirtioMemDevice::plug`]; allocation errors.
    pub fn virtio_mem_plug(&mut self, host: &mut Host, gpa: Gpa) -> Result<(), HvError> {
        let policy = host.quarantine();
        self.virtio_mem.plug(gpa, policy)?;
        self.provision_chunk(host, gpa)?;
        host.charge_virtio_mem_unplug();
        Ok(())
    }

    /// Host-side resize request: sets the virtio-mem target size the
    /// cooperative driver converges to via
    /// [`Self::virtio_mem_sync_to_target`].
    ///
    /// # Panics
    ///
    /// Panics if the size is not sub-block aligned or exceeds the region.
    pub fn virtio_mem_set_requested(&mut self, bytes: u64) {
        self.virtio_mem.set_requested_size(bytes);
    }

    /// The *unmodified* driver's behaviour: converge the plugged size to
    /// the host-requested target (plugging holes or unplugging tail
    /// sub-blocks). Returns the number of sub-blocks changed.
    ///
    /// # Errors
    ///
    /// Allocation errors while plugging.
    pub fn virtio_mem_sync_to_target(&mut self, host: &mut Host) -> Result<u64, HvError> {
        let mut changed = 0;
        while self.virtio_mem.plugged_size() < self.virtio_mem.requested_size() {
            let Some(hole) = self.virtio_mem.first_unplugged() else {
                break;
            };
            self.virtio_mem_plug(host, hole)?;
            changed += 1;
        }
        while self.virtio_mem.plugged_size() > self.virtio_mem.requested_size() {
            let Some(victim) = self.virtio_mem.plugged_sub_blocks().last() else {
                break;
            };
            self.virtio_mem_unplug(host, victim)?;
            changed += 1;
        }
        Ok(changed)
    }

    // ----- virtio-balloon -------------------------------------------

    /// Inflates the balloon by one 4 KiB page: the guest surrenders
    /// `gpa`; if its chunk is THP-backed the hugepage (and its EPT
    /// mapping) is split first, then the single frame is freed order-0.
    ///
    /// # Errors
    ///
    /// [`HvError::AlreadyInflated`], [`HvError::NotPlugged`] for unbacked
    /// chunks; allocation errors from the split.
    ///
    /// # Panics
    ///
    /// Panics if `gpa` is not page-aligned.
    pub fn balloon_inflate(&mut self, host: &mut Host, gpa: Gpa) -> Result<(), HvError> {
        assert!(gpa.is_aligned(PAGE_SIZE));
        let chunk = gpa.raw() / HUGE_PAGE_SIZE;
        if !self.backing.contains_key(&chunk) {
            return Err(HvError::NotPlugged(gpa));
        }
        self.balloon.inflate(gpa)?;
        // THP split if needed.
        if let Some(Backing::Huge(block)) = self.backing.get(&chunk) {
            let block = *block;
            let window = Gpa::new(gpa.align_down(HUGE_PAGE_SIZE).raw());
            let pt = self.ept.split_huge(host, window)?;
            self.pt_windows.insert(pt.index(), window);
            host.buddy_mut().split_allocated(block, 9);
            self.rev_huge.remove(&(block.index() / 512));
            let frames: Vec<Option<Pfn>> = (0..512u64).map(|i| Some(block.add(i))).collect();
            for (i, f) in frames.iter().enumerate() {
                let f = f.expect("all present after split");
                self.rev_pages
                    .insert(f.index(), window.pfn().index() + i as u64);
            }
            self.backing.insert(chunk, Backing::Pages(frames));
        }
        let Some(Backing::Pages(frames)) = self.backing.get_mut(&chunk) else {
            unreachable!("split above");
        };
        let idx = (gpa.huge_page_offset() / PAGE_SIZE) as usize;
        let frame = frames[idx].take().ok_or(HvError::NotPlugged(gpa))?;
        self.ept.unmap(host, gpa)?;
        self.rev_pages.remove(&frame.index());
        host.buddy_mut().free_page(frame);
        host.log_released(frame, 1);
        host.charge_virtio_mem_unplug();
        host.tracer().virtio_mem_unplug(gpa.raw());
        Ok(())
    }

    /// Deflates one page: fresh frame, fresh 4 KiB mapping.
    ///
    /// # Errors
    ///
    /// [`HvError::NotInflated`]; allocation errors.
    ///
    /// # Panics
    ///
    /// Panics if `gpa` is not page-aligned.
    pub fn balloon_deflate(&mut self, host: &mut Host, gpa: Gpa) -> Result<(), HvError> {
        self.balloon.deflate(gpa)?;
        let chunk = gpa.raw() / HUGE_PAGE_SIZE;
        let frame = host.buddy_mut().alloc_page(MigrateType::Movable)?;
        host.buddy_mut()
            .set_migrate_type(frame, 0, MigrateType::Unmovable);
        self.ept.map_4k(host, gpa, frame.base_hpa(), true)?;
        let Some(Backing::Pages(frames)) = self.backing.get_mut(&chunk) else {
            return Err(HvError::NotPlugged(gpa));
        };
        frames[(gpa.huge_page_offset() / PAGE_SIZE) as usize] = Some(frame);
        self.rev_pages.insert(frame.index(), gpa.pfn().index());
        Ok(())
    }

    /// The balloon device state.
    pub fn balloon(&self) -> &VirtioBalloon {
        &self.balloon
    }

    // ----- vIOMMU ---------------------------------------------------

    /// Creates a DMA mapping `iova → gpa` in the given IOMMU group.
    ///
    /// # Errors
    ///
    /// [`HvError::OutOfGuestRange`] for unbacked GPAs; group errors from
    /// [`IommuGroup::map`].
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn iommu_map(
        &mut self,
        host: &mut Host,
        group: usize,
        iova: hh_sim::Iova,
        gpa: Gpa,
    ) -> Result<(), HvError> {
        let hpa = self
            .expected_hpa(gpa)
            .ok_or(HvError::OutOfGuestRange(gpa))?;
        self.iommu_groups[group].map(host, iova, hpa)
    }

    /// Removes a DMA mapping.
    ///
    /// # Errors
    ///
    /// Group errors from [`IommuGroup::unmap`].
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn iommu_unmap(
        &mut self,
        host: &mut Host,
        group: usize,
        iova: hh_sim::Iova,
    ) -> Result<(), HvError> {
        self.iommu_groups[group].unmap(host, iova)
    }

    /// Live mapping count in one group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn iommu_mapping_count(&self, group: usize) -> usize {
        self.iommu_groups[group].mapping_count()
    }

    // ----- introspection & teardown ---------------------------------

    /// All EPT table pages (frame, level) — the paper's second Table 2
    /// debug hook ("dump EPT pages in the system").
    pub fn ept_table_pages(&self, host: &Host) -> Vec<(Pfn, u8)> {
        self.ept.table_pages(host)
    }

    /// Leaf (level-1) EPT pages only.
    pub fn ept_leaf_pages(&self, host: &Host) -> Vec<Pfn> {
        self.ept.leaf_table_pages(host)
    }

    /// Host-physical address of the leaf EPTE covering `gpa`.
    ///
    /// # Errors
    ///
    /// [`HvError::Unmapped`] on walk failure.
    pub fn leaf_epte_hpa(&self, host: &Host, gpa: Gpa) -> Result<Hpa, HvError> {
        self.ept.leaf_entry_hpa(host, gpa)
    }

    /// Base GPAs of currently plugged virtio-mem sub-blocks.
    pub fn plugged_sub_blocks(&self) -> Vec<Gpa> {
        self.virtio_mem.plugged_sub_blocks().collect()
    }

    /// Guest-physical ranges currently usable: boot memory plus plugged
    /// sub-blocks, as (base, len) pairs.
    pub fn usable_ranges(&self) -> Vec<(Gpa, u64)> {
        let mut out = vec![(Gpa::new(0), self.config.boot_mem.bytes())];
        out.extend(
            self.virtio_mem
                .plugged_sub_blocks()
                .map(|b| (b, SUB_BLOCK_SIZE)),
        );
        out
    }

    /// Tears the VM down, returning every host resource.
    pub fn destroy(mut self, host: &mut Host) {
        for (_, backing) in std::mem::take(&mut self.backing) {
            match backing {
                Backing::Huge(block) => host.buddy_mut().free(block, 9),
                Backing::Pages(frames) => {
                    for frame in frames.into_iter().flatten() {
                        host.buddy_mut().free_page(frame);
                    }
                }
            }
        }
        for mut group in std::mem::take(&mut self.iommu_groups) {
            group.destroy(host);
        }
        self.ept.destroy(host);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostConfig;
    use crate::virtio_mem::QuarantinePolicy;

    fn setup() -> (Host, Vm) {
        let mut host = Host::new(HostConfig::small_test());
        let vm = host.create_vm(VmConfig::small_test()).unwrap();
        (host, vm)
    }

    #[test]
    fn vm_memory_is_thp_backed_and_nx() {
        let (host, vm) = setup();
        let t = vm.translate_gpa(&host, Gpa::new(0)).unwrap();
        assert_eq!(t.level, MappingLevel::Huge2M);
        assert!(!t.entry.is_executable(), "multihit mitigation maps NX");
        assert!(t.hpa.is_aligned(HUGE_PAGE_SIZE));
    }

    #[test]
    fn guest_memory_read_write() {
        let (mut host, mut vm) = setup();
        vm.write_gpa(&mut host, Gpa::new(0x12345), &[9, 8, 7])
            .unwrap();
        assert_eq!(
            vm.read_gpa(&host, Gpa::new(0x12345), 3).unwrap(),
            vec![9, 8, 7]
        );
        vm.write_u64_gpa(&mut host, Gpa::new(0x2000), 0xfeed)
            .unwrap();
        assert_eq!(vm.read_u64_gpa(&host, Gpa::new(0x2000)).unwrap(), 0xfeed);
    }

    /// Reference fill: one EPT walk per 4 KiB page.
    fn fill_per_page(
        vm: &Vm,
        host: &mut Host,
        gpa: Gpa,
        len: u64,
        value: u8,
    ) -> Result<(), HvError> {
        for off in (0..len).step_by(PAGE_SIZE as usize) {
            let t = vm.translate_gpa(host, gpa.add(off))?;
            host.dram_mut().store_mut().fill(t.hpa, PAGE_SIZE, value);
        }
        host.charge_write(len);
        Ok(())
    }

    #[test]
    fn fill_gpa_matches_the_per_page_walk() {
        // Chunk 0 stays a 2 MiB leaf, chunk 1 is split by execution,
        // chunk 2 is split with one page ballooned out (unmapped).
        let hole = Gpa::new(2 * HUGE_PAGE_SIZE + 0x5000);
        let prepare = || {
            let (mut host, mut vm) = setup();
            vm.exec_gpa(&mut host, Gpa::new(HUGE_PAGE_SIZE)).unwrap();
            vm.balloon_inflate(&mut host, hole).unwrap();
            // Mixed page forms under the fill: a patched page and a
            // dense one in the huge chunk.
            vm.write_gpa(&mut host, Gpa::new(0x2010), &[7; 9]).unwrap();
            vm.write_gpa(&mut host, Gpa::new(0x4000), &[9; 4096])
                .unwrap();
            (host, vm)
        };
        let cases = [
            (Gpa::new(0x1000), 2 * HUGE_PAGE_SIZE - 0x1000, Ok(())),
            (
                Gpa::new(HUGE_PAGE_SIZE + 0x2000),
                2 * HUGE_PAGE_SIZE,
                Err(HvError::Unmapped(hole)),
            ),
            (
                Gpa::new(0),
                4 * HUGE_PAGE_SIZE,
                Err(HvError::Unmapped(hole)),
            ),
        ];
        for (gpa, len, want) in cases {
            let (mut host, mut vm) = prepare();
            let (mut ref_host, ref_vm) = prepare();
            let got = vm.fill_gpa(&mut host, gpa, len, 0xa5);
            let reference = fill_per_page(&ref_vm, &mut ref_host, gpa, len, 0xa5);
            assert_eq!(got, want, "fill {len:#x} at {gpa}");
            assert_eq!(got, reference);
            assert!(
                host.dram().store() == ref_host.dram().store(),
                "store contents diverge for {len:#x} at {gpa}"
            );
            assert_eq!(host.now(), ref_host.now());
        }
    }

    #[test]
    fn exec_splits_hugepage_once() {
        let (mut host, mut vm) = setup();
        let leaves_before = vm.ept_leaf_pages(&host).len();
        vm.exec_gpa(&mut host, Gpa::new(0x1000)).unwrap();
        assert_eq!(vm.ept_leaf_pages(&host).len(), leaves_before + 1);
        // Second exec in the same chunk: already split, no new page.
        vm.exec_gpa(&mut host, Gpa::new(0x5000)).unwrap();
        assert_eq!(vm.ept_leaf_pages(&host).len(), leaves_before + 1);
        // Contents survive the split.
        let t = vm.translate_gpa(&host, Gpa::new(0x1000)).unwrap();
        assert_eq!(t.level, MappingLevel::Page4K);
        assert!(t.entry.is_executable());
    }

    #[test]
    fn hypervisor_operations_report_to_an_attached_tracer() {
        use hh_trace::{Counter, TraceMode, Tracer};
        let mut host = Host::new(HostConfig::small_test());
        let tracer = Tracer::new(TraceMode::Full);
        host.attach_tracer(tracer.clone());
        let mut vm = host.create_vm(VmConfig::small_test()).unwrap();
        vm.exec_gpa(&mut host, Gpa::new(0x1000)).unwrap();
        let victim = vm.virtio_mem().sub_block_base(3);
        vm.virtio_mem_unplug(&mut host, victim).unwrap();
        tracer.inspect(|sink| {
            let m = sink.metrics();
            assert_eq!(m.get(Counter::VmReboots), 1);
            assert_eq!(m.get(Counter::EptSplits), 1);
            assert_eq!(m.get(Counter::VirtioMemUnplugs), 1);
            assert!(m.get(Counter::BuddyAllocs) > 0, "EPT tables hit buddy");
            // Events are stamped with nondecreasing simulated time, and
            // the sink clock tracks the host clock.
            let events = sink.events();
            assert!(events.windows(2).all(|w| w[0].nanos <= w[1].nanos));
            assert_eq!(sink.now(), host.now().as_nanos());
            assert!(events.iter().any(
                |e| matches!(e.event, hh_trace::Event::VirtioMemUnplug { gpa }
                    if gpa == victim.raw())
            ));
        });
    }

    #[test]
    fn voluntary_unplug_releases_order9_unmovable() {
        let (mut host, mut vm) = setup();
        let victim = vm.virtio_mem().sub_block_base(3);
        let hpa = vm.hypercall_gpa_to_hpa(victim).unwrap();
        let info_before = host.pagetypeinfo().unmovable.counts[9];
        vm.virtio_mem_unplug(&mut host, victim).unwrap();
        // Released block is on the unmovable order-9 list (or merged up).
        let info_after = host.pagetypeinfo();
        assert!(
            info_after.unmovable.counts[9] > info_before || info_after.unmovable.counts[10] > 0,
            "released block should be a free unmovable order-9+ block"
        );
        assert_eq!(host.released_log().len(), 512);
        assert_eq!(host.released_log()[0], hpa.pfn());
        // The GPA range is gone.
        assert!(vm.translate_gpa(&host, victim).is_err());
        assert!(vm.read_gpa(&host, victim, 1).is_err());
    }

    #[test]
    fn quarantine_blocks_voluntary_unplug() {
        let mut host =
            Host::new(HostConfig::small_test().with_quarantine(QuarantinePolicy::QemuPatch));
        let mut vm = host.create_vm(VmConfig::small_test()).unwrap();
        let victim = vm.virtio_mem().sub_block_base(3);
        let err = vm.virtio_mem_unplug(&mut host, victim).unwrap_err();
        assert!(matches!(err, HvError::QuarantineNack { .. }));
        // Memory untouched.
        assert!(vm.translate_gpa(&host, victim).is_ok());
        assert!(host.released_log().is_empty());
    }

    #[test]
    fn sync_to_target_converges_both_ways() {
        let (mut host, mut vm) = setup();
        let full = vm.virtio_mem().region_size();
        // Host shrinks the VM by 3 sub-blocks.
        vm.virtio_mem.set_requested_size(full - 3 * SUB_BLOCK_SIZE);
        let changed = vm.virtio_mem_sync_to_target(&mut host).unwrap();
        assert_eq!(changed, 3);
        assert_eq!(vm.virtio_mem().plugged_size(), full - 3 * SUB_BLOCK_SIZE);
        // Host grows it back.
        vm.virtio_mem.set_requested_size(full);
        let changed = vm.virtio_mem_sync_to_target(&mut host).unwrap();
        assert_eq!(changed, 3);
        assert_eq!(vm.virtio_mem().plugged_size(), full);
    }

    #[test]
    fn hypercall_matches_honest_translation() {
        let (host, vm) = setup();
        for gpa in [0u64, 0x1234, 0x20_0000, 0x3f_f000] {
            let gpa = Gpa::new(gpa);
            assert_eq!(
                vm.hypercall_gpa_to_hpa(gpa).unwrap(),
                vm.translate_gpa(&host, gpa).unwrap().hpa
            );
        }
    }

    #[test]
    fn balloon_inflate_splits_thp_and_frees_one_page() {
        let (mut host, mut vm) = setup();
        let free_before = host.buddy().free_pages();
        let leaves_before = vm.ept_leaf_pages(&host).len();
        vm.balloon_inflate(&mut host, Gpa::new(0x3000)).unwrap();
        // One page freed net of the EPT page allocated by the split.
        assert_eq!(host.buddy().free_pages(), free_before + 1 - 1);
        assert_eq!(vm.ept_leaf_pages(&host).len(), leaves_before + 1);
        assert!(vm.translate_gpa(&host, Gpa::new(0x3000)).is_err());
        // Neighbouring page of the same chunk still mapped, now 4 KiB.
        let t = vm.translate_gpa(&host, Gpa::new(0x4000)).unwrap();
        assert_eq!(t.level, MappingLevel::Page4K);
        assert_eq!(host.released_log().len(), 1);
        // Deflate restores usability.
        vm.balloon_deflate(&mut host, Gpa::new(0x3000)).unwrap();
        assert!(vm.translate_gpa(&host, Gpa::new(0x3000)).is_ok());
    }

    #[test]
    fn iommu_map_consumes_noise_pages() {
        let (mut host, mut vm) = setup();
        let noise_before = host.noise_pages();
        for i in 0..8u64 {
            vm.iommu_map(
                &mut host,
                0,
                hh_sim::Iova::new(0x1_0000_0000 + i * HUGE_PAGE_SIZE),
                Gpa::new(0x1000),
            )
            .unwrap();
        }
        assert!(host.noise_pages() < noise_before);
        assert_eq!(vm.iommu_mapping_count(0), 8);
    }

    #[test]
    fn destroy_restores_host_free_pages() {
        let mut host = Host::new(HostConfig::small_test());
        let free_before = host.buddy().free_pages();
        let mut vm = host.create_vm(VmConfig::small_test()).unwrap();
        vm.exec_gpa(&mut host, Gpa::new(0x1000)).unwrap();
        vm.iommu_map(&mut host, 0, hh_sim::Iova::new(0), Gpa::new(0))
            .unwrap();
        let victim = vm.virtio_mem().sub_block_base(0);
        vm.virtio_mem_unplug(&mut host, victim).unwrap();
        vm.destroy(&mut host);
        assert_eq!(host.buddy().free_pages(), free_before);
    }

    #[test]
    fn corrupted_epte_redirects_guest_reads_and_scan_sees_it() {
        let (mut host, mut vm) = setup();
        // Split a chunk so it has 4 KiB EPTEs.
        vm.exec_gpa(&mut host, Gpa::new(0)).unwrap();
        // Stamp magic values on the chunk's pages.
        let magic = |gpa: Gpa| 0x4d41_0000_0000_0000 | gpa.raw();
        for i in 0..512u64 {
            vm.stamp_page(
                &mut host,
                Gpa::new(i * PAGE_SIZE),
                0,
                magic(Gpa::new(i * PAGE_SIZE)),
            )
            .unwrap();
        }
        assert!(vm
            .scan_magic(&mut host, Gpa::new(0), HUGE_PAGE_SIZE, &magic)
            .is_empty());
        // Corrupt the EPTE of page 5 in DRAM, as a Rowhammer flip would.
        let victim = Gpa::new(5 * PAGE_SIZE);
        let entry_hpa = vm.leaf_epte_hpa(&host, victim).unwrap();
        let raw = host.dram().store().read_u64(entry_hpa);
        host.dram_mut()
            .store_mut()
            .write_u64(entry_hpa, raw ^ (1 << 21));
        // Simulate the journal entry the hammer would have produced.
        // (Direct corruption bypasses the journal, so scan via honest
        // translation instead.)
        let data = vm.read_u64_gpa(&host, victim);
        // An Err means the redirect left the device — also a change.
        if let Ok(v) = data {
            assert_ne!(v, magic(victim), "read must be redirected");
        }
    }

    #[test]
    fn scan_for_flips_reports_guest_coordinates() {
        use hh_dram::HammerPattern;
        let (mut host, mut vm) = setup();
        // Fill all guest memory with 0xff so OneToZero cells are armed.
        let total = vm.config().total_mem().bytes();
        vm.fill_gpa(&mut host, Gpa::new(0), total, 0xff).unwrap();
        let cursor = vm.journal_cursor(&host);
        // Hammer every row pair via host-side access for test brevity.
        let geometry = host.dram().geometry().clone();
        for row in 1..geometry.row_count() - 2 {
            for bank in 0..geometry.bank_count() {
                let p = HammerPattern::single_sided_for(&geometry, bank, row);
                host.dram_mut().hammer(&p, 400_000);
            }
        }
        let flips = vm.scan_for_flips(&mut host, cursor, Gpa::new(0), total);
        assert!(!flips.is_empty(), "dense test profile must flip");
        for flip in &flips {
            // Every reported flip is observable at its guest address.
            let byte = vm
                .read_gpa(&host, Gpa::new(flip.gpa.align_down(1).raw()), 1)
                .unwrap()[0];
            let bit = (byte >> flip.bit) & 1;
            assert_eq!(bit, flip.direction.target_bit());
        }
    }
}

#[cfg(test)]
mod ept_mode_tests {
    use super::*;
    use crate::ept::EptMode;
    use crate::host::HostConfig;

    #[test]
    fn five_level_ept_vm_works_end_to_end() {
        let mut host = Host::new(HostConfig::small_test());
        let cfg = VmConfig {
            ept_mode: EptMode::FiveLevel,
            ..VmConfig::small_test()
        };
        let mut vm = host.create_vm(cfg).unwrap();
        // Memory access, multihit split, unplug, hypercall all behave
        // identically; the walk is just one level deeper.
        vm.write_u64_gpa(&mut host, Gpa::new(0x2000), 0xabcd)
            .unwrap();
        assert_eq!(vm.read_u64_gpa(&host, Gpa::new(0x2000)).unwrap(), 0xabcd);
        assert!(vm.exec_gpa(&mut host, Gpa::new(0)).unwrap());
        let t = vm.translate_gpa(&host, Gpa::new(0x2000)).unwrap();
        assert_eq!(t.level, MappingLevel::Page4K);
        // One extra table level: PML5 + PML4 + PDPT + PD (+ PT after the
        // split).
        let levels: Vec<u8> = vm.ept_table_pages(&host).iter().map(|&(_, l)| l).collect();
        assert!(levels.contains(&5));
        let victim = vm.virtio_mem().sub_block_base(1);
        vm.virtio_mem_unplug(&mut host, victim).unwrap();
        assert!(vm.translate_gpa(&host, victim).is_err());
        vm.destroy(&mut host);
    }
}
