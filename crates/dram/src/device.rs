//! The simulated DRAM device: contents + fault engine + mitigations.
//!
//! [`DramDevice`] glues the sparse [`store`](crate::store), the lazy
//! [`fault`](crate::fault) profile and the optional TRR mitigation into
//! one behavioural model. Hammering is expressed as bursts: the caller
//! names the aggressor addresses and an activation count per aggressor
//! (all within one refresh window), and the device computes which
//! vulnerable cells in adjacent rows of the same bank cross their
//! disturbance threshold and flips them **in the backing store**, so
//! corruption propagates to every layer reading that memory.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use hh_sim::addr::Hpa;
use hh_sim::rng::SimRng;
use hh_trace::Tracer;

use crate::fault::{sample_row_cells, DimmProfile, FlipDirection, VulnerableCell};
use crate::geometry::DramGeometry;
use crate::plan::{BankPlan, HammerPlan, PlanCache, PlanCacheStats, VictimPlan};
use crate::store::SparseStore;

/// Disturbance weight of an aggressor at row distance 1 (immediate
/// neighbour).
const WEIGHT_DISTANCE_1: f64 = 1.0;
/// Disturbance weight at row distance 2 (the "Half-Double" effect —
/// Kogler et al., USENIX Sec '22 — is weaker but real).
const WEIGHT_DISTANCE_2: f64 = 0.5;

/// A hammer access pattern: aggressor byte addresses, all expected to sit
/// in the same bank.
///
/// # Examples
///
/// ```
/// use hh_dram::{DimmProfile, HammerPattern};
///
/// let profile = DimmProfile::test_profile(64 << 20);
/// // Single-sided pair in bank 3 using rows 10 and 11 (victim: row 9).
/// let p = HammerPattern::single_sided_for(&profile.geometry, 3, 9);
/// assert_eq!(p.aggressors().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HammerPattern {
    aggressors: Vec<Hpa>,
}

impl HammerPattern {
    /// Creates a pattern from explicit aggressor addresses.
    ///
    /// # Panics
    ///
    /// Panics if no aggressors are given.
    pub fn new(aggressors: Vec<Hpa>) -> Self {
        assert!(!aggressors.is_empty(), "hammer pattern needs aggressors");
        Self { aggressors }
    }

    /// Single-sided pattern for `victim_row`: activates the two rows
    /// directly above it in the same bank (§4.1: "the attacker uses the
    /// two rows above or below the victim row").
    ///
    /// # Panics
    ///
    /// Panics if the rows do not exist in the geometry.
    pub fn single_sided_for(geometry: &DramGeometry, bank: u32, victim_row: u64) -> Self {
        let a1 = geometry
            .addr_in(bank, victim_row + 1)
            .expect("aggressor row 1 out of device");
        let a2 = geometry
            .addr_in(bank, victim_row + 2)
            .expect("aggressor row 2 out of device");
        Self::new(vec![a1, a2])
    }

    /// Double-sided pattern for `victim_row`: activates the rows directly
    /// above and below it.
    ///
    /// # Panics
    ///
    /// Panics if `victim_row` is 0 or the rows do not exist.
    pub fn double_sided_for(geometry: &DramGeometry, bank: u32, victim_row: u64) -> Self {
        assert!(victim_row > 0, "double-sided needs a row below the victim");
        let lo = geometry
            .addr_in(bank, victim_row - 1)
            .expect("aggressor below victim out of device");
        let hi = geometry
            .addr_in(bank, victim_row + 1)
            .expect("aggressor above victim out of device");
        Self::new(vec![lo, hi])
    }

    /// N-sided pattern: aggressors in `rows`, one address per row, all in
    /// `bank`. Used by the TRRespass-style pattern search.
    pub fn n_sided_for(geometry: &DramGeometry, bank: u32, rows: &[u64]) -> Self {
        Self::new(
            rows.iter()
                .map(|&r| {
                    geometry
                        .addr_in(bank, r)
                        .expect("aggressor row out of device")
                })
                .collect(),
        )
    }

    /// The aggressor addresses.
    pub fn aggressors(&self) -> &[Hpa] {
        &self.aggressors
    }
}

/// A bit flip that the device applied to its backing store.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipEvent {
    /// Byte address of the flipped cell.
    pub hpa: Hpa,
    /// Bit within the byte.
    pub bit: u8,
    /// Direction the bit moved.
    pub direction: FlipDirection,
    /// DRAM bank of the cell.
    pub bank: u32,
    /// DRAM row of the cell.
    pub row: u64,
}

/// Result of one hammer burst.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HammerResult {
    /// Flips applied during this burst.
    pub flips: Vec<FlipEvent>,
    /// Total row activations issued (for cost accounting).
    pub activations: u64,
    /// Number of aggressor rows whose disturbance was suppressed by TRR.
    pub trr_refreshes: u64,
}

/// The simulated DRAM device.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct DramDevice {
    profile: DimmProfile,
    store: SparseStore,
    fault_seed: u64,
    rng: SimRng,
    /// Monotonic journal of every flip ever applied, used by upper layers
    /// to implement observationally-equivalent fast corruption scans.
    journal: Vec<FlipEvent>,
    /// Cache of sampled row fault profiles.
    row_cache: HashMap<u64, Vec<VulnerableCell>>,
    /// LRU cache of compiled hammer plans, keyed by aggressor list.
    plan_cache: PlanCache,
    total_activations: u64,
    tracer: Tracer,
}

impl DramDevice {
    /// Creates a device with the given profile; `seed` fixes both the
    /// vulnerability profile and the stochastic flip outcomes.
    pub fn new(profile: DimmProfile, seed: u64) -> Self {
        let mut root = SimRng::seed_from(seed);
        let fault_seed = root.next_u64();
        Self {
            store: SparseStore::new(profile.geometry.size_bytes()),
            profile,
            fault_seed,
            rng: root,
            journal: Vec::new(),
            row_cache: HashMap::new(),
            plan_cache: PlanCache::default(),
            total_activations: 0,
            tracer: Tracer::off(),
        }
    }

    /// Attaches an instrumentation handle; hammer bursts and bit flips
    /// are reported to it from now on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Returns the address geometry.
    pub fn geometry(&self) -> &DramGeometry {
        &self.profile.geometry
    }

    /// Returns the DIMM profile.
    pub fn profile(&self) -> &DimmProfile {
        &self.profile
    }

    /// Immutable access to memory contents.
    pub fn store(&self) -> &SparseStore {
        &self.store
    }

    /// Mutable access to memory contents.
    pub fn store_mut(&mut self) -> &mut SparseStore {
        &mut self.store
    }

    /// Convenience: fills `[hpa, hpa+len)` with `value`.
    pub fn fill(&mut self, hpa: Hpa, len: u64, value: u8) {
        self.store.fill(hpa, len, value);
    }

    /// Total row activations issued over the device lifetime.
    pub fn total_activations(&self) -> u64 {
        self.total_activations
    }

    /// The journal of all flips applied so far. Index it with the length
    /// captured before an operation to see what that operation changed.
    pub fn flip_journal(&self) -> &[FlipEvent] {
        &self.journal
    }

    /// The vulnerable cells of `row` (sampled lazily, cached).
    pub fn row_cells(&mut self, row: u64) -> &[VulnerableCell] {
        let seed = self.fault_seed;
        let params = self.profile.fault.clone();
        let geometry = self.profile.geometry.clone();
        self.row_cache
            .entry(row)
            .or_insert_with(|| sample_row_cells(seed, row, &params, &geometry))
    }

    /// Executes one hammer burst: every aggressor row is activated
    /// `rounds` times within a single refresh window.
    ///
    /// Returns the flips applied. Aggressors in different banks are
    /// legal but useless to an attacker (each disturbs only its own
    /// bank's neighbours).
    ///
    /// # Panics
    ///
    /// Panics if any aggressor address is outside the device.
    pub fn hammer(&mut self, pattern: &HammerPattern, rounds: u64) -> HammerResult {
        let result = self.hammer_untraced(pattern, rounds);
        self.trace_burst(&result);
        result
    }

    /// Reports one finished burst to the attached tracer (flips first,
    /// then the burst summary, all at the same simulated instant).
    fn trace_burst(&self, result: &HammerResult) {
        if !self.tracer.is_on() {
            return;
        }
        for f in &result.flips {
            self.tracer.bit_flip(
                f.hpa.raw(),
                f.bit,
                f.direction == crate::fault::FlipDirection::OneToZero,
            );
        }
        self.tracer.hammer(
            result.activations,
            result.trr_refreshes,
            result.flips.len() as u64,
        );
    }

    fn hammer_untraced(&mut self, pattern: &HammerPattern, rounds: u64) -> HammerResult {
        let plan = self.plan_for(pattern);
        self.execute_plan(&plan, rounds)
    }

    /// Executes a precompiled plan and reports to the tracer, exactly
    /// like [`hammer`](Self::hammer) but skipping the plan-cache lookup.
    /// Useful when the caller holds the plan across many bursts (the
    /// bench harness and the profiler's characterize loop do).
    ///
    /// # Panics
    ///
    /// Panics if the plan was compiled for a different device (seed or
    /// geometry mismatch).
    pub fn hammer_planned(&mut self, plan: &HammerPlan, rounds: u64) -> HammerResult {
        let result = self.execute_plan(plan, rounds);
        self.trace_burst(&result);
        result
    }

    /// Returns the cached plan for `pattern`, compiling and caching it on
    /// a miss. Cache traffic is reported to the tracer as counters only,
    /// so event streams are identical whether a burst hit or missed.
    pub fn plan_for(&mut self, pattern: &HammerPattern) -> Arc<HammerPlan> {
        if let Some(plan) = self.plan_cache.get(pattern.aggressors()) {
            self.tracer.plan_lookup(true);
            return plan;
        }
        let plan = Arc::new(self.compile_plan(pattern));
        self.plan_cache.insert(Arc::clone(&plan));
        self.tracer.plan_lookup(false);
        plan
    }

    /// Precompiles `pattern` into the plan cache without hammering, so a
    /// later [`hammer`](Self::hammer) is a guaranteed cache hit. Compiling
    /// draws no randomness, which makes warmed and cold bursts
    /// bit-identical (see `tests/plan_props.rs`).
    pub fn warm_plan(&mut self, pattern: &HammerPattern) {
        let _ = self.plan_for(pattern);
    }

    /// Compiles `pattern` into a fresh [`HammerPlan`] against this
    /// device's geometry and fault profile, bypassing the cache.
    ///
    /// Everything about a burst that does not depend on `rounds` or the
    /// RNG is resolved here: aggressors grouped per bank into sorted
    /// unique row lists, victim rows within distance 2 collected with
    /// their distance weights, and each victim's bank-local vulnerable
    /// cells embedded.
    ///
    /// # Panics
    ///
    /// Panics if any aggressor address is outside the device.
    pub fn compile_plan(&mut self, pattern: &HammerPattern) -> HammerPlan {
        let geometry = self.profile.geometry.clone();
        for &a in pattern.aggressors() {
            assert!(geometry.contains(a), "aggressor {a} outside device");
        }

        // Group aggressors by (bank, row); multiple addresses in the same
        // row of a bank are one aggressor. Banks in ascending order so
        // execution (and therefore RNG consumption) is deterministic.
        let mut per_bank_rows: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
        for &a in pattern.aggressors() {
            let rows = per_bank_rows.entry(geometry.bank_of(a)).or_default();
            let row = geometry.row_of(a);
            if !rows.contains(&row) {
                rows.push(row);
            }
        }

        let mut banks = Vec::with_capacity(per_bank_rows.len());
        for (bank, mut rows) in per_bank_rows {
            rows.sort_unstable();

            // Victim rows within distance 2 of any aggressor, ascending,
            // each with its (aggressor index, weight) contributions. The
            // TRR verdict gates contributions at execution time.
            let mut disturbance: BTreeMap<u64, Vec<(u32, f64)>> = BTreeMap::new();
            for (i, &row) in rows.iter().enumerate() {
                for (dist, weight) in [(1u64, WEIGHT_DISTANCE_1), (2, WEIGHT_DISTANCE_2)] {
                    for victim in [row.checked_sub(dist), Some(row + dist)]
                        .into_iter()
                        .flatten()
                    {
                        if victim >= geometry.row_count() || rows.contains(&victim) {
                            continue;
                        }
                        disturbance
                            .entry(victim)
                            .or_default()
                            .push((i as u32, weight));
                    }
                }
            }

            let victims = disturbance
                .into_iter()
                .map(|(row, contribs)| {
                    let cells: Vec<VulnerableCell> = self
                        .row_cells(row)
                        .iter()
                        .copied()
                        .filter(|c| geometry.bank_of(c.hpa) == bank)
                        .collect();
                    VictimPlan::new(row, contribs, cells)
                })
                .collect();
            banks.push(BankPlan::new(bank, rows, victims));
        }

        HammerPlan::new(pattern.aggressors().to_vec(), self.device_token(), banks)
    }

    /// Identifies the (seed, geometry) a plan is valid for.
    fn device_token(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let g = &self.profile.geometry;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in [
            self.fault_seed,
            g.size_bytes(),
            g.row_count(),
            u64::from(g.bank_count()),
        ] {
            h = (h ^ word).wrapping_mul(PRIME);
        }
        h
    }

    /// Plan-cache counters (hits, misses, occupancy).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Replaces the plan cache with an empty one holding `capacity`
    /// plans. Existing plans are dropped; stats reset.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.plan_cache = PlanCache::with_capacity(capacity);
    }

    /// Runs one burst from a compiled plan. The stochastic parts (TRR
    /// sampler overflow, per-cell flip draws) happen here against the
    /// device RNG, in the same order the uncompiled path used, so plan
    /// reuse never changes outcomes.
    fn execute_plan(&mut self, plan: &HammerPlan, rounds: u64) -> HammerResult {
        assert_eq!(
            plan.device_token(),
            self.device_token(),
            "hammer plan was compiled for a different device"
        );
        let activations = rounds * plan.aggressors().len() as u64;
        self.total_activations += activations;

        let mut result = HammerResult {
            activations,
            ..HammerResult::default()
        };

        for bank_plan in plan.banks() {
            let suppressed = self.trr_suppressed(bank_plan.rows(), rounds);
            result.trr_refreshes += suppressed.iter().filter(|&&s| s).count() as u64;

            for victim in bank_plan.victims() {
                let mut effective = 0.0;
                for &(idx, weight) in victim.contribs() {
                    if !suppressed[idx as usize] {
                        effective += rounds as f64 * weight;
                    }
                }
                // All contributing aggressors refreshed away: the old
                // path never visited this victim, so no RNG draws.
                if effective == 0.0 {
                    continue;
                }
                self.disturb_cells(bank_plan.bank(), victim, effective, &mut result);
            }
        }

        result
    }

    /// Per-aggressor TRR verdicts: `true` means the mitigation caught and
    /// neutralized that aggressor this window.
    fn trr_suppressed(&mut self, rows: &[u64], rounds: u64) -> Vec<bool> {
        match self.profile.trr {
            None => vec![false; rows.len()],
            Some(trr) => {
                if rounds < trr.detection_threshold {
                    return vec![false; rows.len()];
                }
                if rows.len() <= trr.tracker_capacity {
                    // All aggressors tracked and refreshed away.
                    vec![true; rows.len()]
                } else {
                    // Sampler overflows: a random subset of capacity-many
                    // rows is tracked; the rest hammer through.
                    let mut verdicts = vec![false; rows.len()];
                    let mut remaining = trr.tracker_capacity;
                    let mut candidates: Vec<usize> = (0..rows.len()).collect();
                    while remaining > 0 && !candidates.is_empty() {
                        let pick = self.rng.gen_range(0..candidates.len());
                        verdicts[candidates.swap_remove(pick)] = true;
                        remaining -= 1;
                    }
                    verdicts
                }
            }
        }
    }

    fn disturb_cells(
        &mut self,
        bank: u32,
        victim: &VictimPlan,
        effective: f64,
        result: &mut HammerResult,
    ) {
        let row = victim.row();
        for cell in victim.cells() {
            if (effective as u64) < cell.threshold {
                continue;
            }
            if !self.rng.gen_bool(cell.flip_probability) {
                continue;
            }
            let byte = self.store.read_u8(cell.hpa);
            let current_bit = (byte >> cell.bit) & 1;
            if current_bit != cell.direction.source_bit() {
                continue; // unidirectional: wrong stored value, no flip
            }
            let flipped = byte ^ (1 << cell.bit);
            self.store.write_u8(cell.hpa, flipped);
            let event = FlipEvent {
                hpa: cell.hpa,
                bit: cell.bit,
                direction: cell.direction,
                bank,
                row,
            };
            self.journal.push(event);
            result.flips.push(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TrrConfig;

    fn device() -> DramDevice {
        DramDevice::new(DimmProfile::test_profile(64 << 20), 1234)
    }

    /// Finds a (bank, victim_row, cell) with a stable cell for tests.
    fn find_stable_victim(dev: &mut DramDevice) -> (u32, u64, VulnerableCell) {
        let rows = dev.geometry().row_count();
        for row in 1..rows - 2 {
            let cells: Vec<_> = dev.row_cells(row).to_vec();
            for c in cells {
                if c.flip_probability > 0.9 && c.threshold < 350_000 {
                    let bank = dev.geometry().bank_of(c.hpa);
                    return (bank, row, c);
                }
            }
        }
        panic!("dense test profile should contain a stable cell");
    }

    #[test]
    fn single_sided_flips_a_prepared_victim() {
        let mut dev = device();
        let (bank, row, cell) = find_stable_victim(&mut dev);
        // Store the source value at the cell.
        let source_byte = if cell.direction.source_bit() == 1 {
            0xff
        } else {
            0x00
        };
        dev.fill(
            dev.geometry().row_base(row),
            crate::geometry::ROW_SPAN,
            source_byte,
        );
        let pattern = HammerPattern::single_sided_for(dev.geometry(), bank, row);
        let result = dev.hammer(&pattern, 400_000);
        assert!(
            result
                .flips
                .iter()
                .any(|f| f.hpa == cell.hpa && f.bit == cell.bit),
            "expected flip at {cell:?}, got {:?}",
            result.flips
        );
        // The flip is visible in memory.
        let byte = dev.store().read_u8(cell.hpa);
        assert_eq!((byte >> cell.bit) & 1, cell.direction.target_bit());
    }

    #[test]
    fn flips_are_unidirectional() {
        let mut dev = device();
        let (bank, row, cell) = find_stable_victim(&mut dev);
        // Store the TARGET value: the cell must NOT flip.
        let target_byte = if cell.direction.target_bit() == 1 {
            0xff
        } else {
            0x00
        };
        dev.fill(
            dev.geometry().row_base(row),
            crate::geometry::ROW_SPAN,
            target_byte,
        );
        let pattern = HammerPattern::single_sided_for(dev.geometry(), bank, row);
        let result = dev.hammer(&pattern, 400_000);
        assert!(
            !result
                .flips
                .iter()
                .any(|f| f.hpa == cell.hpa && f.bit == cell.bit),
            "cell flipped against its direction"
        );
    }

    #[test]
    fn insufficient_rounds_do_not_flip() {
        let mut dev = device();
        let (bank, row, cell) = find_stable_victim(&mut dev);
        let source_byte = if cell.direction.source_bit() == 1 {
            0xff
        } else {
            0x00
        };
        dev.fill(
            dev.geometry().row_base(row),
            crate::geometry::ROW_SPAN,
            source_byte,
        );
        let pattern = HammerPattern::single_sided_for(dev.geometry(), bank, row);
        // Far below any threshold (min 100k, single-sided weight 1.5).
        let result = dev.hammer(&pattern, 1_000);
        assert!(result.flips.is_empty());
    }

    #[test]
    fn double_sided_is_stronger_than_single_sided() {
        // A cell with threshold T flips double-sided at rounds T/2 but
        // needs T/1.5 single-sided.
        let mut dev = device();
        let (bank, row, cell) = find_stable_victim(&mut dev);
        let source_byte = if cell.direction.source_bit() == 1 {
            0xff
        } else {
            0x00
        };
        let rounds = cell.threshold / 2 + 1_000;
        // Single-sided at these rounds: effective = 1.5 × rounds < T when
        // rounds < 2T/3. Pick rounds between T/2 and 2T/3.
        assert!(rounds < cell.threshold * 2 / 3);
        dev.fill(
            dev.geometry().row_base(row),
            crate::geometry::ROW_SPAN,
            source_byte,
        );
        let ss = dev.hammer(
            &HammerPattern::single_sided_for(dev.geometry(), bank, row),
            rounds,
        );
        assert!(!ss
            .flips
            .iter()
            .any(|f| f.hpa == cell.hpa && f.bit == cell.bit));
        let ds = dev.hammer(
            &HammerPattern::double_sided_for(dev.geometry(), bank, row),
            rounds,
        );
        assert!(ds
            .flips
            .iter()
            .any(|f| f.hpa == cell.hpa && f.bit == cell.bit));
    }

    #[test]
    fn wrong_bank_does_not_flip() {
        let mut dev = device();
        let (bank, row, cell) = find_stable_victim(&mut dev);
        let source_byte = if cell.direction.source_bit() == 1 {
            0xff
        } else {
            0x00
        };
        dev.fill(
            dev.geometry().row_base(row),
            crate::geometry::ROW_SPAN,
            source_byte,
        );
        let other_bank = (bank + 1) % dev.geometry().bank_count();
        let pattern = HammerPattern::single_sided_for(dev.geometry(), other_bank, row);
        let result = dev.hammer(&pattern, 400_000);
        assert!(!result
            .flips
            .iter()
            .any(|f| f.hpa == cell.hpa && f.bit == cell.bit));
    }

    #[test]
    fn trr_blocks_double_sided_but_not_nine_sided() {
        let profile = DimmProfile::test_profile(64 << 20).with_trr(TrrConfig::production());
        let mut dev = DramDevice::new(profile, 1234);
        let (bank, row, cell) = find_stable_victim(&mut dev);
        let source_byte = if cell.direction.source_bit() == 1 {
            0xff
        } else {
            0x00
        };
        dev.fill(
            dev.geometry().row_base(row),
            crate::geometry::ROW_SPAN,
            source_byte,
        );

        let ds = dev.hammer(
            &HammerPattern::double_sided_for(dev.geometry(), bank, row),
            400_000,
        );
        assert!(ds.flips.is_empty(), "TRR should stop a 2-sided pattern");
        assert!(ds.trr_refreshes > 0);

        // Nine aggressors overflow the 2-entry tracker; with 9 rows and 2
        // tracked, the immediate neighbours of the victim usually survive.
        let rows: Vec<u64> = (row.saturating_sub(5)..row + 6)
            .filter(|&r| r != row)
            .take(9)
            .collect();
        let mut flipped = false;
        for _ in 0..8 {
            let ns = dev.hammer(
                &HammerPattern::n_sided_for(dev.geometry(), bank, &rows),
                400_000,
            );
            if ns
                .flips
                .iter()
                .any(|f| f.hpa == cell.hpa && f.bit == cell.bit)
            {
                flipped = true;
                break;
            }
            // Re-arm the victim in case some other cell flipped the byte.
            dev.fill(
                dev.geometry().row_base(row),
                crate::geometry::ROW_SPAN,
                source_byte,
            );
        }
        assert!(flipped, "many-sided pattern should eventually bypass TRR");
    }

    #[test]
    fn journal_accumulates() {
        let mut dev = device();
        let (bank, row, cell) = find_stable_victim(&mut dev);
        let source_byte = if cell.direction.source_bit() == 1 {
            0xff
        } else {
            0x00
        };
        dev.fill(
            dev.geometry().row_base(row),
            crate::geometry::ROW_SPAN,
            source_byte,
        );
        let before = dev.flip_journal().len();
        let pattern = HammerPattern::single_sided_for(dev.geometry(), bank, row);
        let res = dev.hammer(&pattern, 400_000);
        assert_eq!(dev.flip_journal().len(), before + res.flips.len());
    }

    #[test]
    fn activations_are_accounted() {
        let mut dev = device();
        let pattern = HammerPattern::single_sided_for(dev.geometry(), 0, 5);
        let res = dev.hammer(&pattern, 1_000);
        assert_eq!(res.activations, 2_000);
        assert_eq!(dev.total_activations(), 2_000);
    }

    #[test]
    fn hammer_reports_to_an_attached_tracer() {
        use hh_trace::{Counter, TraceMode, Tracer};
        let mut dev = device();
        let (bank, row, cell) = find_stable_victim(&mut dev);
        let source_byte = if cell.direction.source_bit() == 1 {
            0xff
        } else {
            0x00
        };
        dev.fill(
            dev.geometry().row_base(row),
            crate::geometry::ROW_SPAN,
            source_byte,
        );
        let tracer = Tracer::new(TraceMode::Full);
        dev.set_tracer(tracer.clone());
        let pattern = HammerPattern::single_sided_for(dev.geometry(), bank, row);
        let result = dev.hammer(&pattern, 400_000);
        let sink = tracer.take_sink().expect("tracer attached");
        let m = sink.metrics();
        assert_eq!(m.get(Counter::DramHammerCalls), 1);
        assert_eq!(m.get(Counter::DramActivations), result.activations);
        assert_eq!(m.get(Counter::DramBitFlips), result.flips.len() as u64);
        // One bit_flip event per flip plus the burst summary.
        assert_eq!(sink.events().len(), result.flips.len() + 1);
        assert_eq!(
            sink.events().last().expect("summary event").event.kind(),
            "hammer"
        );
    }

    #[test]
    fn repeated_bursts_hit_the_plan_cache() {
        let mut dev = device();
        let pattern = HammerPattern::single_sided_for(dev.geometry(), 2, 30);
        dev.hammer(&pattern, 1_000);
        dev.hammer(&pattern, 2_000);
        dev.hammer(&pattern, 3_000);
        let stats = dev.plan_stats();
        assert_eq!(stats.misses, 1, "one compile for three bursts");
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.len, 1);
    }

    #[test]
    fn plan_cache_traffic_is_traced_as_counters() {
        use hh_trace::{Counter, TraceMode, Tracer};
        let mut dev = device();
        let tracer = Tracer::new(TraceMode::Metrics);
        dev.set_tracer(tracer.clone());
        let pattern = HammerPattern::single_sided_for(dev.geometry(), 2, 30);
        dev.hammer(&pattern, 1_000);
        dev.hammer(&pattern, 1_000);
        let sink = tracer.take_sink().expect("tracer attached");
        assert_eq!(sink.metrics().get(Counter::DramPlanCompiles), 1);
        assert_eq!(sink.metrics().get(Counter::DramPlanHits), 1);
    }

    #[test]
    fn hammer_planned_matches_hammer() {
        let mk = || {
            let mut dev = device();
            dev.fill(Hpa::new(0), 64 << 20, 0xff);
            dev
        };
        let mut via_pattern = mk();
        let mut via_plan = mk();
        let pattern = HammerPattern::double_sided_for(via_pattern.geometry(), 1, 40);
        let plan = via_plan.compile_plan(&pattern);
        let a = via_pattern.hammer(&pattern, 400_000);
        let b = via_plan.hammer_planned(&plan, 400_000);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "different device")]
    fn plans_do_not_transfer_across_devices() {
        let mut dev_a = DramDevice::new(DimmProfile::test_profile(64 << 20), 1);
        let mut dev_b = DramDevice::new(DimmProfile::test_profile(64 << 20), 2);
        let pattern = HammerPattern::single_sided_for(dev_a.geometry(), 0, 10);
        let plan = dev_a.compile_plan(&pattern);
        dev_b.hammer_planned(&plan, 1_000);
    }

    #[test]
    fn same_seed_same_flips() {
        let run = || {
            let mut dev = DramDevice::new(DimmProfile::test_profile(64 << 20), 777);
            dev.fill(Hpa::new(0), 64 << 20, 0xff);
            let pattern = HammerPattern::single_sided_for(dev.geometry(), 4, 10);
            dev.hammer(&pattern, 400_000).flips
        };
        assert_eq!(run(), run());
    }
}

impl DramDevice {
    /// RowPress-style disturbance (Luo et al., ISCA '23): keeping an
    /// aggressor row *open* for an extended time amplifies read
    /// disturbance, so far fewer activations are needed than classic
    /// Rowhammer. `open_amplification` models the ratio of row-open time
    /// to the minimum (tRAS): each activation counts that many times
    /// toward victims' thresholds, capped at 128× (the order of magnitude
    /// the paper reports for maximum tAggON).
    ///
    /// This is an extension beyond HyperHammer (which only cites
    /// RowPress); it shares the fault model, so mitigations tested
    /// against one apply to both.
    ///
    /// # Panics
    ///
    /// Panics if `open_amplification` is not ≥ 1.
    pub fn rowpress(
        &mut self,
        pattern: &HammerPattern,
        rounds: u64,
        open_amplification: u64,
    ) -> HammerResult {
        assert!(open_amplification >= 1, "amplification must be >= 1");
        let amp = open_amplification.min(128);
        let mut result = self.hammer_untraced(pattern, rounds.saturating_mul(amp));
        // Physical activations issued are the *un*amplified count; the
        // amplification came from time, not from extra ACT commands.
        result.activations = rounds * pattern.aggressors().len() as u64;
        self.total_activations -= rounds * (amp - 1) * pattern.aggressors().len() as u64;
        self.trace_burst(&result);
        result
    }
}

#[cfg(test)]
mod rowpress_tests {
    use super::*;
    use crate::fault::DimmProfile;

    #[test]
    fn rowpress_flips_with_far_fewer_activations() {
        let mut dev = DramDevice::new(DimmProfile::test_profile(64 << 20), 1234);
        dev.fill(hh_sim::Hpa::new(0), 64 << 20, 0xff);
        // 4 000 activations: hopeless for classic hammering (min
        // threshold 100 k)...
        let pattern = HammerPattern::single_sided_for(dev.geometry(), 3, 20);
        let classic = dev.hammer(&pattern, 4_000);
        assert!(classic.flips.is_empty());
        // ...but with 100× row-open amplification the same activation
        // budget flips.
        let mut flipped = false;
        for row in 4..60 {
            for bank in 0..8 {
                let p = HammerPattern::single_sided_for(dev.geometry(), bank, row);
                if !dev.rowpress(&p, 4_000, 100).flips.is_empty() {
                    flipped = true;
                }
            }
        }
        assert!(flipped, "amplified disturbance must cross thresholds");
    }

    #[test]
    fn rowpress_accounts_physical_activations_only() {
        let mut dev = DramDevice::new(DimmProfile::test_profile(32 << 20), 7);
        let pattern = HammerPattern::single_sided_for(dev.geometry(), 0, 10);
        let before = dev.total_activations();
        let result = dev.rowpress(&pattern, 1_000, 64);
        assert_eq!(result.activations, 2_000);
        assert_eq!(dev.total_activations(), before + 2_000);
    }

    #[test]
    #[should_panic(expected = "amplification")]
    fn rowpress_rejects_zero_amplification() {
        let mut dev = DramDevice::new(DimmProfile::test_profile(32 << 20), 7);
        let pattern = HammerPattern::single_sided_for(dev.geometry(), 0, 10);
        dev.rowpress(&pattern, 1_000, 0);
    }
}
