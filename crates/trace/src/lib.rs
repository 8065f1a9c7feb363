//! Deterministic structured tracing and aggregate metrics for the
//! HyperHammer reproduction.
//!
//! The simulated attack stack (DRAM device, buddy allocator, hypervisor,
//! attack driver) emits typed [`Event`]s stamped with the **simulated**
//! clock — never wall-clock time — into a per-campaign-cell
//! [`TraceSink`]. Because every timestamp and every event payload is a
//! pure function of the experiment seed, traces inherit the engine's
//! determinism guarantee: a 4-worker campaign merges (in grid order) to
//! the byte-identical stream of the serial run.
//!
//! Two recording levels keep the cost model honest:
//!
//! * **Metrics** ([`TraceMode::Metrics`]) — monotonic [`Counter`]s,
//!   fixed-bucket log₂ [`Histogram`]s and per-[`Stage`] time/activation
//!   totals. Cheap enough to leave on for whole campaigns.
//! * **Full** ([`TraceMode::Full`]) — metrics plus the ordered event
//!   stream, for NDJSON export and replay-grade debugging.
//!
//! Instrumented code holds a [`Tracer`]: a cloneable handle that is a
//! no-op (one `Option` test) when tracing is off, so production paths
//! pay nothing when untraced.
//!
//! # Examples
//!
//! ```
//! use hh_trace::{Counter, Event, TraceMode, Tracer};
//!
//! let tracer = Tracer::new(TraceMode::Full);
//! tracer.set_now(1_000);
//! tracer.hammer(64, 2, 1);
//! let sink = tracer.take_sink().expect("tracing is on");
//! assert_eq!(sink.metrics().get(Counter::DramActivations), 64);
//! assert_eq!(sink.events()[0].nanos, 1_000);
//! assert!(matches!(sink.events()[0].event, Event::Hammer { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

use std::cell::RefCell;
use std::rc::Rc;

/// Attack-pipeline stages whose simulated time and DRAM activity the
/// sink attributes separately (the `trace` CLI table's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// §4.1 memory profiling (hammer + scan the whole guest).
    Profile,
    /// §4.2.1 vIOMMU noise-page exhaustion.
    ExhaustNoise,
    /// §4.3 magic-value stamping of guest memory.
    StampMagic,
    /// §4.2.2 voluntary virtio-mem hugepage release.
    ReleaseHugepages,
    /// §4.2.3 EPT-page spray via iTLB-Multihit splits.
    SprayEpt,
    /// §6 balloon-variant steering: per-page releases landed via PCP
    /// LIFO (replaces ReleaseHugepages + SprayEpt in balloon cells).
    BalloonSteer,
    /// §6 Xen-variant steering: `decrease_reservation` releases plus
    /// p2m superpage demotions.
    XenSteer,
    /// §4.3 hammer, detect mapping changes, validate, escape.
    Exploit,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Profile,
        Stage::ExhaustNoise,
        Stage::StampMagic,
        Stage::ReleaseHugepages,
        Stage::SprayEpt,
        Stage::BalloonSteer,
        Stage::XenSteer,
        Stage::Exploit,
    ];

    /// Stable lower-snake name (used in NDJSON output and tables).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Profile => "profile",
            Stage::ExhaustNoise => "exhaust_noise",
            Stage::StampMagic => "stamp_magic",
            Stage::ReleaseHugepages => "release_hugepages",
            Stage::SprayEpt => "spray_ept",
            Stage::BalloonSteer => "balloon_steer",
            Stage::XenSteer => "xen_steer",
            Stage::Exploit => "exploit",
        }
    }

    /// The stage's position in [`Stage::ALL`] — the index streaming
    /// aggregates use for per-stage arrays.
    pub const fn index(self) -> usize {
        match self {
            Stage::Profile => 0,
            Stage::ExhaustNoise => 1,
            Stage::StampMagic => 2,
            Stage::ReleaseHugepages => 3,
            Stage::SprayEpt => 4,
            Stage::BalloonSteer => 5,
            Stage::XenSteer => 6,
            Stage::Exploit => 7,
        }
    }
}

/// Monotonic counters that stay on in every non-[`Off`](TraceMode::Off)
/// mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// DRAM row-activation pairs issued by hammer loops.
    DramActivations,
    /// In-DIMM TRR refreshes triggered by hammering.
    DramTrrRefreshes,
    /// Rowhammer bit flips journaled by the DRAM device.
    DramBitFlips,
    /// Calls into [`hammer`](Tracer::hammer) (hammer-loop invocations).
    DramHammerCalls,
    /// Buddy allocations served (any order, direct or per-CPU).
    BuddyAllocs,
    /// Buddy frees (any order).
    BuddyFrees,
    /// Free-block halvings while expanding a higher order.
    BuddySplits,
    /// Buddy coalesces while freeing.
    BuddyMerges,
    /// Allocation failures (free lists exhausted at every order).
    BuddyExhaustions,
    /// iTLB-Multihit hugepage splits (fresh EPT page each).
    EptSplits,
    /// Hugepages executed by the EPT spray.
    EptSprayedHugepages,
    /// vIOMMU mappings established.
    ViommuMaps,
    /// virtio-mem sub-block unplugs (and balloon page releases).
    VirtioMemUnplugs,
    /// Attacker-VM (re)boots.
    VmReboots,
    /// Hammer plans compiled from scratch (plan-cache misses).
    DramPlanCompiles,
    /// Hammer bursts served from the compiled-plan cache.
    DramPlanHits,
    /// Transient faults injected by the host's fault plan.
    FaultsInjected,
    /// Stage operations retried after a transient fault.
    TransientRetries,
    /// Spray-width halvings after repeated transient spray failures.
    SprayDegradations,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 19;

    /// Every counter, in declaration order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::DramActivations,
        Counter::DramTrrRefreshes,
        Counter::DramBitFlips,
        Counter::DramHammerCalls,
        Counter::BuddyAllocs,
        Counter::BuddyFrees,
        Counter::BuddySplits,
        Counter::BuddyMerges,
        Counter::BuddyExhaustions,
        Counter::EptSplits,
        Counter::EptSprayedHugepages,
        Counter::ViommuMaps,
        Counter::VirtioMemUnplugs,
        Counter::VmReboots,
        Counter::DramPlanCompiles,
        Counter::DramPlanHits,
        Counter::FaultsInjected,
        Counter::TransientRetries,
        Counter::SprayDegradations,
    ];

    /// Stable lower-snake name (used in NDJSON output and tables).
    pub const fn name(self) -> &'static str {
        match self {
            Counter::DramActivations => "dram_activations",
            Counter::DramTrrRefreshes => "dram_trr_refreshes",
            Counter::DramBitFlips => "dram_bit_flips",
            Counter::DramHammerCalls => "dram_hammer_calls",
            Counter::BuddyAllocs => "buddy_allocs",
            Counter::BuddyFrees => "buddy_frees",
            Counter::BuddySplits => "buddy_splits",
            Counter::BuddyMerges => "buddy_merges",
            Counter::BuddyExhaustions => "buddy_exhaustions",
            Counter::EptSplits => "ept_splits",
            Counter::EptSprayedHugepages => "ept_sprayed_hugepages",
            Counter::ViommuMaps => "viommu_maps",
            Counter::VirtioMemUnplugs => "virtio_mem_unplugs",
            Counter::VmReboots => "vm_reboots",
            Counter::DramPlanCompiles => "dram_plan_compiles",
            Counter::DramPlanHits => "dram_plan_hits",
            Counter::FaultsInjected => "faults_injected",
            Counter::TransientRetries => "transient_retries",
            Counter::SprayDegradations => "spray_degradations",
        }
    }

    const fn index(self) -> usize {
        match self {
            Counter::DramActivations => 0,
            Counter::DramTrrRefreshes => 1,
            Counter::DramBitFlips => 2,
            Counter::DramHammerCalls => 3,
            Counter::BuddyAllocs => 4,
            Counter::BuddyFrees => 5,
            Counter::BuddySplits => 6,
            Counter::BuddyMerges => 7,
            Counter::BuddyExhaustions => 8,
            Counter::EptSplits => 9,
            Counter::EptSprayedHugepages => 10,
            Counter::ViommuMaps => 11,
            Counter::VirtioMemUnplugs => 12,
            Counter::VmReboots => 13,
            Counter::DramPlanCompiles => 14,
            Counter::DramPlanHits => 15,
            Counter::FaultsInjected => 16,
            Counter::TransientRetries => 17,
            Counter::SprayDegradations => 18,
        }
    }
}

/// Number of log₂ buckets in a [`Histogram`]: bucket 0 holds zeros,
/// bucket `b ≥ 1` holds values in `[2^(b-1), 2^b)`, the last bucket
/// additionally absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 33;

/// A fixed-bucket log₂ histogram of `u64` samples (sizes or latencies).
///
/// Deterministic and mergeable: bucket boundaries are fixed powers of
/// two, so merging two histograms is element-wise addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total: 0,
        }
    }
}

impl Histogram {
    /// Bucket index for a value.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((value.ilog2() as usize) + 1).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.total = self.total.saturating_add(value);
    }

    /// Number of samples recorded.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub const fn total(&self) -> u64 {
        self.total
    }

    /// Mean sample value, or 0.0 with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Per-bucket sample counts.
    pub const fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Adds another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total = self.total.saturating_add(other.total);
    }
}

/// Aggregate metrics: always on while a [`Tracer`] is attached, even
/// when full event recording is off.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metrics {
    counters: [u64; Counter::COUNT],
    /// Activations per hammer-loop invocation.
    pub hammer_activations: Histogram,
    /// Order of each buddy allocation served.
    pub alloc_order: Histogram,
    /// Simulated nanoseconds of each completed stage entry.
    pub stage_latency: Histogram,
    stage_nanos: [u64; Stage::COUNT],
    stage_entries: [u64; Stage::COUNT],
    stage_activations: [u64; Stage::COUNT],
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            counters: [0; Counter::COUNT],
            hammer_activations: Histogram::default(),
            alloc_order: Histogram::default(),
            stage_latency: Histogram::default(),
            stage_nanos: [0; Stage::COUNT],
            stage_entries: [0; Stage::COUNT],
            stage_activations: [0; Stage::COUNT],
        }
    }
}

impl Metrics {
    /// Current value of a counter.
    pub const fn get(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Adds `by` to a counter; the [`Tracer`] does this through typed
    /// events.
    pub(crate) fn bump(&mut self, counter: Counter, by: u64) {
        self.counters[counter.index()] += by;
    }

    /// Total simulated nanoseconds spent in a stage.
    pub const fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage.index()]
    }

    /// Times a stage was entered.
    pub const fn stage_entries(&self, stage: Stage) -> u64 {
        self.stage_entries[stage.index()]
    }

    /// DRAM activations issued while a stage was current.
    pub const fn stage_activations(&self, stage: Stage) -> u64 {
        self.stage_activations[stage.index()]
    }

    /// Adds another cell's metrics into this one (element-wise; used to
    /// merge campaign cells in grid order).
    pub fn merge(&mut self, other: &Metrics) {
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine += theirs;
        }
        self.hammer_activations.merge(&other.hammer_activations);
        self.alloc_order.merge(&other.alloc_order);
        self.stage_latency.merge(&other.stage_latency);
        for (mine, theirs) in self.stage_nanos.iter_mut().zip(other.stage_nanos.iter()) {
            *mine += theirs;
        }
        for (mine, theirs) in self
            .stage_entries
            .iter_mut()
            .zip(other.stage_entries.iter())
        {
            *mine += theirs;
        }
        for (mine, theirs) in self
            .stage_activations
            .iter_mut()
            .zip(other.stage_activations.iter())
        {
            *mine += theirs;
        }
    }
}

/// A typed observation from the simulated stack.
///
/// Address payloads are raw `u64`s (HPA/GPA/IOVA as labelled) so the
/// crate stays dependency-free and events stay `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// One hammer-loop invocation completed on the DRAM device.
    Hammer {
        /// Row-activation pairs issued.
        activations: u64,
        /// TRR refreshes the loop triggered.
        trr_refreshes: u64,
        /// Bit flips the loop produced.
        flips: u64,
    },
    /// One Rowhammer bit flip committed to DRAM.
    BitFlip {
        /// Host-physical byte address of the corrupted cell.
        hpa: u64,
        /// Bit index within the byte.
        bit: u8,
        /// `true` for a 1→0 flip, `false` for 0→1.
        one_to_zero: bool,
    },
    /// The buddy allocator served an allocation.
    BuddyAlloc {
        /// Allocation order.
        order: u8,
    },
    /// The buddy allocator accepted a free.
    BuddyFree {
        /// Freed block order.
        order: u8,
    },
    /// A free block of `order` was halved to satisfy a smaller request.
    BuddySplit {
        /// Order being split (the larger one).
        order: u8,
    },
    /// Two buddies coalesced into a block of `order`.
    BuddyMerge {
        /// Resulting (larger) order.
        order: u8,
    },
    /// An allocation failed with every eligible free list empty.
    BuddyExhausted {
        /// Requested order.
        order: u8,
    },
    /// The iTLB-Multihit countermeasure split a 2 MiB EPT mapping.
    EptSplit {
        /// Guest-physical address whose execution faulted.
        gpa: u64,
    },
    /// An EPT-page spray pass finished.
    EptSpray {
        /// Hugepages executed.
        hugepages: u64,
        /// Splits (fresh EPT pages) actually triggered.
        splits: u64,
    },
    /// A vIOMMU DMA mapping was established.
    ViommuMap {
        /// I/O virtual address mapped.
        iova: u64,
    },
    /// A virtio-mem sub-block (or balloon page) was released to the host.
    VirtioMemUnplug {
        /// Guest-physical base of the released range.
        gpa: u64,
    },
    /// The attacker VM was (re)booted.
    VmReboot,
    /// The host's fault plan injected a transient failure.
    FaultInjected {
        /// Choke point the fault hit (stable lower-snake name).
        stage: &'static str,
        /// Modelled cause of the failure.
        cause: &'static str,
    },
    /// A stage operation was retried after a transient fault.
    Retry {
        /// Choke point being retried (stable lower-snake name).
        stage: &'static str,
        /// 1-based retry number for this operation.
        attempt: u64,
    },
    /// The EPT spray halved its remaining width after repeated faults.
    SprayDegraded {
        /// Remaining spray budget, bytes.
        budget: u64,
    },
    /// An attack-pipeline stage began.
    StageStart {
        /// Stage that began.
        stage: Stage,
    },
    /// An attack-pipeline stage completed.
    StageEnd {
        /// Stage that ended.
        stage: Stage,
        /// Simulated nanoseconds it took.
        nanos: u64,
    },
}

impl Event {
    /// Stable lower-snake discriminant name (the NDJSON `event` field).
    pub const fn kind(&self) -> &'static str {
        match self {
            Event::Hammer { .. } => "hammer",
            Event::BitFlip { .. } => "bit_flip",
            Event::BuddyAlloc { .. } => "buddy_alloc",
            Event::BuddyFree { .. } => "buddy_free",
            Event::BuddySplit { .. } => "buddy_split",
            Event::BuddyMerge { .. } => "buddy_merge",
            Event::BuddyExhausted { .. } => "buddy_exhausted",
            Event::EptSplit { .. } => "ept_split",
            Event::EptSpray { .. } => "ept_spray",
            Event::ViommuMap { .. } => "viommu_map",
            Event::VirtioMemUnplug { .. } => "virtio_mem_unplug",
            Event::VmReboot => "vm_reboot",
            Event::FaultInjected { .. } => "fault_injected",
            Event::Retry { .. } => "retry",
            Event::SprayDegraded { .. } => "spray_degraded",
            Event::StageStart { .. } => "stage_start",
            Event::StageEnd { .. } => "stage_end",
        }
    }
}

/// An [`Event`] stamped with the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// Simulated time of the observation, nanoseconds since host boot.
    pub nanos: u64,
    /// The observation.
    pub event: Event,
}

/// What a [`Tracer`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// No tracer attached; instrumentation is a no-op.
    #[default]
    Off,
    /// Aggregate [`Metrics`] only — no event stream.
    Metrics,
    /// Metrics plus the full ordered [`Event`] stream.
    Full,
}

impl TraceMode {
    /// Parses a mode name (`off` / `metrics` / `full`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "off" => Some(TraceMode::Off),
            "metrics" => Some(TraceMode::Metrics),
            "full" => Some(TraceMode::Full),
            _ => None,
        }
    }
}

/// Per-campaign-cell recorder: the ordered event stream plus aggregate
/// metrics, all stamped with simulated time.
///
/// Sinks from a parallel campaign merge deterministically: cells are
/// visited in grid order, each cell's events are already in simulated
/// chronological order, and [`Metrics::merge`] is element-wise addition
/// — so the merged output of `--jobs N` is byte-identical to serial.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSink {
    cell: usize,
    now: u64,
    record_events: bool,
    events: Vec<TimedEvent>,
    metrics: Metrics,
    current_stage: Option<(Stage, u64)>,
}

impl TraceSink {
    /// Creates a sink for a (non-`Off`) mode.
    pub fn new(mode: TraceMode) -> Self {
        Self {
            record_events: mode == TraceMode::Full,
            ..Self::default()
        }
    }

    /// [`TraceSink::new`] with a pre-sized event arena.
    ///
    /// A tiny campaign cell records tens of thousands of events; growing
    /// the stream through doubling reallocations is measurable on the
    /// hot path. The hint is a capacity reservation only — it cannot
    /// change *what* is recorded, so callers may derive it from
    /// scheduling-dependent observations (e.g. the previous cell's
    /// event count) without breaking byte-identical output. Ignored in
    /// [`TraceMode::Metrics`], which records no events.
    pub fn with_capacity(mode: TraceMode, events_hint: usize) -> Self {
        let mut sink = Self::new(mode);
        if sink.record_events {
            sink.events.reserve_exact(events_hint);
        }
        sink
    }

    /// Resets the sink for reuse on another campaign cell, keeping the
    /// event arena's allocation. Streaming campaigns serialize each
    /// cell's sink as the cell finishes and then hand the spent sink
    /// back through here, so one arena allocation serves every cell a
    /// worker processes. Recycling is a capacity optimisation only —
    /// a recycled sink records byte-identically to a fresh
    /// [`TraceSink::with_capacity`] sink — exactly like capacity hints.
    pub fn recycle(mut self, mode: TraceMode, events_hint: usize) -> Self {
        self.cell = 0;
        self.now = 0;
        self.record_events = mode == TraceMode::Full;
        self.events.clear();
        if self.record_events {
            self.events.reserve_exact(events_hint);
        }
        self.metrics = Metrics::default();
        self.current_stage = None;
        self
    }

    /// Campaign-grid cell index this sink belongs to (0 outside grids).
    pub const fn cell(&self) -> usize {
        self.cell
    }

    /// Assigns the campaign-grid cell index.
    pub fn set_cell(&mut self, cell: usize) {
        self.cell = cell;
    }

    /// Whether full event recording is on.
    pub const fn events_enabled(&self) -> bool {
        self.record_events
    }

    /// The recorded event stream, in simulated chronological order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// The aggregate metrics.
    pub const fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Latest simulated time reported to this sink.
    pub const fn now(&self) -> u64 {
        self.now
    }

    fn record(&mut self, event: Event) {
        if self.record_events {
            self.events.push(TimedEvent {
                nanos: self.now,
                event,
            });
        }
    }

    fn hammer(&mut self, activations: u64, trr_refreshes: u64, flips: u64) {
        self.metrics.bump(Counter::DramHammerCalls, 1);
        self.metrics.bump(Counter::DramActivations, activations);
        self.metrics.bump(Counter::DramTrrRefreshes, trr_refreshes);
        self.metrics.bump(Counter::DramBitFlips, flips);
        self.metrics.hammer_activations.record(activations);
        if let Some((stage, _)) = self.current_stage {
            self.metrics.stage_activations[stage.index()] += activations;
        }
        self.record(Event::Hammer {
            activations,
            trr_refreshes,
            flips,
        });
    }

    fn stage_start(&mut self, stage: Stage) {
        self.metrics.stage_entries[stage.index()] += 1;
        self.current_stage = Some((stage, self.now));
        self.record(Event::StageStart { stage });
    }

    fn stage_end(&mut self, stage: Stage) {
        let start = match self.current_stage.take() {
            Some((s, start)) if s == stage => start,
            // Mismatched or missing start: charge from now (zero span)
            // rather than corrupting another stage's total.
            _ => self.now,
        };
        let nanos = self.now.saturating_sub(start);
        self.metrics.stage_nanos[stage.index()] += nanos;
        self.metrics.stage_latency.record(nanos);
        self.record(Event::StageEnd { stage, nanos });
    }
}

/// Cloneable instrumentation handle threaded through the stack.
///
/// A detached tracer (the default) makes every call a no-op costing one
/// `Option` test. Attached tracers share one [`TraceSink`] per clone
/// family via `Rc<RefCell<…>>` — the simulation is single-threaded
/// within a campaign cell, and each cell builds its own tracer, so no
/// cross-thread sharing ever occurs.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<TraceSink>>>,
}

impl Tracer {
    /// A detached (no-op) tracer.
    pub fn off() -> Self {
        Self::default()
    }

    /// Creates a tracer for `mode` (detached for [`TraceMode::Off`]).
    pub fn new(mode: TraceMode) -> Self {
        match mode {
            TraceMode::Off => Self::default(),
            mode => Self {
                sink: Some(Rc::new(RefCell::new(TraceSink::new(mode)))),
            },
        }
    }

    /// [`Tracer::new`] with a pre-sized event arena — see
    /// [`TraceSink::with_capacity`] for why hints are always safe.
    pub fn with_capacity(mode: TraceMode, events_hint: usize) -> Self {
        match mode {
            TraceMode::Off => Self::default(),
            mode => Self {
                sink: Some(Rc::new(RefCell::new(TraceSink::with_capacity(
                    mode,
                    events_hint,
                )))),
            },
        }
    }

    /// [`Tracer::with_capacity`] that reuses a previously taken sink's
    /// allocation via [`TraceSink::recycle`] — the per-worker
    /// flush-and-reuse path of streaming campaigns. Passing `None`
    /// falls back to a fresh arena.
    pub fn with_recycled(mode: TraceMode, events_hint: usize, recycled: Option<TraceSink>) -> Self {
        match mode {
            TraceMode::Off => Self::default(),
            mode => {
                let sink = match recycled {
                    Some(spent) => spent.recycle(mode, events_hint),
                    None => TraceSink::with_capacity(mode, events_hint),
                };
                Self {
                    sink: Some(Rc::new(RefCell::new(sink))),
                }
            }
        }
    }

    /// Whether a sink is attached.
    pub const fn is_on(&self) -> bool {
        self.sink.is_some()
    }

    /// Updates the sink's notion of simulated time; every subsequent
    /// event is stamped with it. Called by the host after each clock
    /// advance.
    pub fn set_now(&self, nanos: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().now = nanos;
        }
    }

    /// Assigns the campaign-grid cell index to the sink.
    pub fn set_cell(&self, cell: usize) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().set_cell(cell);
        }
    }

    /// Extracts the sink, leaving a default (empty) one behind. Returns
    /// `None` for a detached tracer.
    pub fn take_sink(&self) -> Option<TraceSink> {
        self.sink
            .as_ref()
            .map(|sink| std::mem::take(&mut *sink.borrow_mut()))
    }

    /// Runs `f` against the live sink, if attached.
    pub fn inspect<R>(&self, f: impl FnOnce(&TraceSink) -> R) -> Option<R> {
        self.sink.as_ref().map(|sink| f(&sink.borrow()))
    }

    fn with<R>(&self, f: impl FnOnce(&mut TraceSink) -> R) {
        if let Some(sink) = &self.sink {
            f(&mut sink.borrow_mut());
        }
    }

    /// Records a completed hammer-loop invocation.
    pub fn hammer(&self, activations: u64, trr_refreshes: u64, flips: u64) {
        self.with(|s| s.hammer(activations, trr_refreshes, flips));
    }

    /// Records a hammer-plan compile or cache hit. Counter-only (no
    /// event), so full streams stay identical whether a burst ran from a
    /// cold or a cached plan.
    pub fn plan_lookup(&self, cache_hit: bool) {
        self.with(|s| {
            s.metrics.bump(
                if cache_hit {
                    Counter::DramPlanHits
                } else {
                    Counter::DramPlanCompiles
                },
                1,
            );
        });
    }

    /// Records one committed bit flip.
    pub fn bit_flip(&self, hpa: u64, bit: u8, one_to_zero: bool) {
        self.with(|s| {
            s.record(Event::BitFlip {
                hpa,
                bit,
                one_to_zero,
            })
        });
    }

    /// Records a served buddy allocation.
    pub fn buddy_alloc(&self, order: u8) {
        self.with(|s| {
            s.metrics.bump(Counter::BuddyAllocs, 1);
            s.metrics.alloc_order.record(u64::from(order));
            s.record(Event::BuddyAlloc { order });
        });
    }

    /// Records a buddy free.
    pub fn buddy_free(&self, order: u8) {
        self.with(|s| {
            s.metrics.bump(Counter::BuddyFrees, 1);
            s.record(Event::BuddyFree { order });
        });
    }

    /// Records a free-block halving.
    pub fn buddy_split(&self, order: u8) {
        self.with(|s| {
            s.metrics.bump(Counter::BuddySplits, 1);
            s.record(Event::BuddySplit { order });
        });
    }

    /// Records a buddy coalesce into `order`.
    pub fn buddy_merge(&self, order: u8) {
        self.with(|s| {
            s.metrics.bump(Counter::BuddyMerges, 1);
            s.record(Event::BuddyMerge { order });
        });
    }

    /// Records an out-of-memory allocation failure.
    pub fn buddy_exhausted(&self, order: u8) {
        self.with(|s| {
            s.metrics.bump(Counter::BuddyExhaustions, 1);
            s.record(Event::BuddyExhausted { order });
        });
    }

    /// Records an iTLB-Multihit hugepage split.
    pub fn ept_split(&self, gpa: u64) {
        self.with(|s| {
            s.metrics.bump(Counter::EptSplits, 1);
            s.record(Event::EptSplit { gpa });
        });
    }

    /// Records a finished EPT spray pass.
    pub fn ept_spray(&self, hugepages: u64, splits: u64) {
        self.with(|s| {
            s.metrics.bump(Counter::EptSprayedHugepages, hugepages);
            s.record(Event::EptSpray { hugepages, splits });
        });
    }

    /// Records an established vIOMMU mapping.
    pub fn viommu_map(&self, iova: u64) {
        self.with(|s| {
            s.metrics.bump(Counter::ViommuMaps, 1);
            s.record(Event::ViommuMap { iova });
        });
    }

    /// Records a virtio-mem sub-block (or balloon page) release.
    pub fn virtio_mem_unplug(&self, gpa: u64) {
        self.with(|s| {
            s.metrics.bump(Counter::VirtioMemUnplugs, 1);
            s.record(Event::VirtioMemUnplug { gpa });
        });
    }

    /// Records an attacker-VM (re)boot.
    pub fn vm_reboot(&self) {
        self.with(|s| {
            s.metrics.bump(Counter::VmReboots, 1);
            s.record(Event::VmReboot);
        });
    }

    /// Records a transient fault injected by the host's fault plan.
    pub fn fault_injected(&self, stage: &'static str, cause: &'static str) {
        self.with(|s| {
            s.metrics.bump(Counter::FaultsInjected, 1);
            s.record(Event::FaultInjected { stage, cause });
        });
    }

    /// Records a stage operation being retried after a transient fault.
    pub fn retry(&self, stage: &'static str, attempt: u64) {
        self.with(|s| {
            s.metrics.bump(Counter::TransientRetries, 1);
            s.record(Event::Retry { stage, attempt });
        });
    }

    /// Records a spray-width halving after repeated transient failures.
    pub fn spray_degraded(&self, budget: u64) {
        self.with(|s| {
            s.metrics.bump(Counter::SprayDegradations, 1);
            s.record(Event::SprayDegraded { budget });
        });
    }

    /// Marks a stage's begin; DRAM activations until the matching
    /// [`stage_end`](Self::stage_end) are attributed to it.
    pub fn stage_start(&self, stage: Stage) {
        self.with(|s| s.stage_start(stage));
    }

    /// Marks a stage's end, charging the elapsed simulated time to it.
    pub fn stage_end(&self, stage: Stage) {
        self.with(|s| s.stage_end(stage));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_tracer_is_a_noop() {
        let t = Tracer::off();
        assert!(!t.is_on());
        t.set_now(5);
        t.hammer(10, 1, 1);
        t.stage_start(Stage::Profile);
        t.stage_end(Stage::Profile);
        assert!(t.take_sink().is_none());
    }

    #[test]
    fn metrics_mode_counts_without_recording_events() {
        let t = Tracer::new(TraceMode::Metrics);
        t.set_now(100);
        t.hammer(64, 2, 3);
        t.buddy_alloc(9);
        t.buddy_split(4);
        t.ept_split(0x20_0000);
        let sink = t.take_sink().expect("attached");
        assert!(!sink.events_enabled());
        assert!(sink.events().is_empty());
        assert_eq!(sink.metrics().get(Counter::DramActivations), 64);
        assert_eq!(sink.metrics().get(Counter::DramTrrRefreshes), 2);
        assert_eq!(sink.metrics().get(Counter::DramBitFlips), 3);
        assert_eq!(sink.metrics().get(Counter::BuddyAllocs), 1);
        assert_eq!(sink.metrics().get(Counter::BuddySplits), 1);
        assert_eq!(sink.metrics().get(Counter::EptSplits), 1);
    }

    #[test]
    fn full_mode_records_time_stamped_events_in_order() {
        let t = Tracer::new(TraceMode::Full);
        t.set_now(10);
        t.viommu_map(0x1_0000_0000);
        t.set_now(20);
        t.virtio_mem_unplug(0x40_0000);
        t.vm_reboot();
        let sink = t.take_sink().expect("attached");
        let kinds: Vec<&str> = sink.events().iter().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, ["viommu_map", "virtio_mem_unplug", "vm_reboot"]);
        assert_eq!(sink.events()[0].nanos, 10);
        assert_eq!(sink.events()[1].nanos, 20);
        assert_eq!(sink.metrics().get(Counter::ViommuMaps), 1);
        assert_eq!(sink.metrics().get(Counter::VmReboots), 1);
    }

    #[test]
    fn clones_share_one_sink() {
        let t = Tracer::new(TraceMode::Metrics);
        let u = t.clone();
        t.buddy_alloc(0);
        u.buddy_alloc(3);
        let sink = t.take_sink().expect("attached");
        assert_eq!(sink.metrics().get(Counter::BuddyAllocs), 2);
        // The clone now sees the emptied (taken) sink.
        let leftover = u.take_sink().expect("still attached");
        assert_eq!(leftover.metrics().get(Counter::BuddyAllocs), 0);
    }

    #[test]
    fn recycled_sink_records_identically_to_fresh() {
        // Record the same event sequence through a fresh sink and a
        // recycled one (previously dirtied with other events): the
        // taken sinks must compare equal, so arena reuse can never
        // change streamed output.
        let record = |t: &Tracer| {
            t.set_cell(7);
            t.set_now(10);
            t.stage_start(Stage::Exploit);
            t.hammer(500, 2, 1);
            t.set_now(40);
            t.stage_end(Stage::Exploit);
            t.buddy_alloc(3);
        };
        let fresh = Tracer::with_capacity(TraceMode::Full, 8);
        record(&fresh);
        let fresh_sink = fresh.take_sink().expect("attached");

        let dirty = Tracer::new(TraceMode::Full);
        dirty.set_now(999);
        dirty.vm_reboot();
        dirty.fault_injected("ept_split", "test");
        let spent = dirty.take_sink().expect("attached");
        let reused = Tracer::with_recycled(TraceMode::Full, 8, Some(spent));
        record(&reused);
        assert_eq!(reused.take_sink().expect("attached"), fresh_sink);

        // Mode switches apply on recycle too: Full -> Metrics stops
        // event recording.
        let spent = Tracer::new(TraceMode::Full).take_sink().expect("attached");
        let metrics_only = Tracer::with_recycled(TraceMode::Metrics, 0, Some(spent));
        metrics_only.buddy_alloc(0);
        let sink = metrics_only.take_sink().expect("attached");
        assert!(!sink.events_enabled() && sink.events().is_empty());
        assert_eq!(sink.metrics().get(Counter::BuddyAllocs), 1);

        // Off stays detached regardless of the recycled sink.
        assert!(!Tracer::with_recycled(TraceMode::Off, 0, None).is_on());
    }

    #[test]
    fn stages_attribute_time_and_activations() {
        let t = Tracer::new(TraceMode::Full);
        t.set_now(1_000);
        t.stage_start(Stage::Exploit);
        t.hammer(500, 0, 0);
        t.set_now(4_000);
        t.stage_end(Stage::Exploit);
        t.hammer(7, 0, 0); // outside any stage: unattributed
        let sink = t.take_sink().expect("attached");
        let m = sink.metrics();
        assert_eq!(m.stage_entries(Stage::Exploit), 1);
        assert_eq!(m.stage_nanos(Stage::Exploit), 3_000);
        assert_eq!(m.stage_activations(Stage::Exploit), 500);
        assert_eq!(m.get(Counter::DramActivations), 507);
        assert_eq!(m.stage_latency.count(), 1);
        assert!(matches!(
            sink.events().last().expect("events recorded").event,
            Event::Hammer { activations: 7, .. }
        ));
        assert!(sink.events().iter().any(|e| matches!(
            e.event,
            Event::StageEnd {
                stage: Stage::Exploit,
                nanos: 3_000
            }
        )));
    }

    #[test]
    fn mismatched_stage_end_charges_zero() {
        let t = Tracer::new(TraceMode::Metrics);
        t.set_now(9_000);
        t.stage_end(Stage::SprayEpt);
        let sink = t.take_sink().expect("attached");
        assert_eq!(sink.metrics().stage_nanos(Stage::SprayEpt), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        let mut h = Histogram::default();
        h.record(0);
        h.record(3);
        h.record(3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), 6);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[2], 2);
    }

    #[test]
    fn merge_is_elementwise_addition() {
        let a = Tracer::new(TraceMode::Metrics);
        a.hammer(10, 1, 0);
        a.stage_start(Stage::Profile);
        a.set_now(50);
        a.stage_end(Stage::Profile);
        let b = Tracer::new(TraceMode::Metrics);
        b.hammer(32, 0, 2);
        b.buddy_exhausted(0);

        let mut merged = a.take_sink().expect("attached").metrics().clone();
        merged.merge(b.take_sink().expect("attached").metrics());
        assert_eq!(merged.get(Counter::DramActivations), 42);
        assert_eq!(merged.get(Counter::DramHammerCalls), 2);
        assert_eq!(merged.get(Counter::DramBitFlips), 2);
        assert_eq!(merged.get(Counter::BuddyExhaustions), 1);
        assert_eq!(merged.stage_nanos(Stage::Profile), 50);
        assert_eq!(merged.hammer_activations.count(), 2);
        assert_eq!(merged.hammer_activations.total(), 42);
    }

    #[test]
    fn plan_lookups_count_but_emit_no_events() {
        let t = Tracer::new(TraceMode::Full);
        t.plan_lookup(false);
        t.plan_lookup(true);
        t.plan_lookup(true);
        let sink = t.take_sink().expect("attached");
        assert_eq!(sink.metrics().get(Counter::DramPlanCompiles), 1);
        assert_eq!(sink.metrics().get(Counter::DramPlanHits), 2);
        assert!(
            sink.events().is_empty(),
            "plan-cache bookkeeping must not perturb the event stream"
        );
    }

    #[test]
    fn capacity_hint_changes_nothing_observable() {
        let run = |t: Tracer| {
            t.set_now(7);
            t.hammer(12, 1, 1);
            t.stage_start(Stage::SprayEpt);
            t.ept_spray(44, 3);
            t.set_now(90);
            t.stage_end(Stage::SprayEpt);
            t.take_sink().expect("attached")
        };
        for mode in [TraceMode::Metrics, TraceMode::Full] {
            let plain = run(Tracer::new(mode));
            for hint in [0, 1, 4096] {
                assert_eq!(
                    run(Tracer::with_capacity(mode, hint)),
                    plain,
                    "hint {hint} perturbed a {mode:?} sink"
                );
            }
        }
        assert!(!Tracer::with_capacity(TraceMode::Off, 512).is_on());
    }

    #[test]
    fn trace_mode_parses() {
        assert_eq!(TraceMode::parse("off"), Some(TraceMode::Off));
        assert_eq!(TraceMode::parse("metrics"), Some(TraceMode::Metrics));
        assert_eq!(TraceMode::parse("full"), Some(TraceMode::Full));
        assert_eq!(TraceMode::parse("verbose"), None);
    }

    #[test]
    fn take_sink_resets_shared_state() {
        let t = Tracer::new(TraceMode::Full);
        t.vm_reboot();
        let first = t.take_sink().expect("attached");
        assert_eq!(first.metrics().get(Counter::VmReboots), 1);
        t.vm_reboot();
        let second = t.take_sink().expect("attached");
        assert_eq!(second.metrics().get(Counter::VmReboots), 1);
        // The replacement sink is a default: metrics-only recording.
        assert!(second.events().is_empty());
    }
}
