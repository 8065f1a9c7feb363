//! Deterministic parallel campaign engine.
//!
//! Table 3 and the §5.3.2 ablation sweeps repeat full attack campaigns —
//! profile, steer, hammer, escape — over a grid of (scenario ×
//! experiment-seed) cells. The cells are independent by construction:
//! each owns a freshly-booted [`Host`](hh_hv::Host) whose every RNG
//! stream descends from the cell's own seed, so running them on worker
//! threads changes wall-clock time and nothing else.
//!
//! Two properties make the engine *deterministic*, not merely parallel:
//!
//! 1. **Seed splitting.** Cell seeds come from
//!    [`SimRng::split_seed`]`(base, index)` — a pure function of the grid's
//!    base seed and the cell's position, never of worker count or
//!    scheduling order.
//! 2. **Indexed results.** Each result carries its cell's index, so
//!    consumers restore grid order whatever worker ran the cell. A
//!    1-worker run and an 8-worker run of the same grid return
//!    bit-identical [`CampaignStats`].
//!
//! Scheduling is *in-order claiming*: every worker takes the next
//! unclaimed index from one shared atomic counter, so cells start in
//! ascending grid order and a free worker always picks up the oldest
//! waiting cell. A straggler (a cell whose campaign runs long) holds up
//! only itself, and output written in grid order
//! ([`GridWriter`](crate::streamref::GridWriter)) waits on at most the
//! cells already in flight. The deterministic-output guarantee is
//! untouched because *which worker* runs a cell never influences *what
//! the cell computes*.
//!
//! The engine runs exactly the worker count it is given (never more
//! than one per item). The one CPU-clamp policy lives in
//! [`resolve_jobs`], which the CLI, the campaign server and the bench
//! binaries call: requesting more workers than CPUs can only add
//! contention (on a 1-CPU host it made 4-worker runs ~24 % *slower*
//! than serial), and because results are scheduling-independent the
//! clamp is unobservable in the output. Tests pass explicit counts, so
//! cross-thread scheduling is exercised on any machine.
//!
//! The engine is two layers: [`parallel_reduce_indexed`], the one
//! deterministic worker loop over `std::thread::scope` (with
//! [`parallel_map`] a thin scatter on top, used by the benchmark
//! harness's ablation sweeps), and [`CampaignGrid`], the campaign-shaped
//! API whose one engine entry is
//! [`CampaignGrid::run_streamed_resume`].

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hh_hv::{FaultConfig, HvError};
use hh_sim::rng::SimRng;
use hh_trace::{TraceMode, TraceSink, Tracer};

use crate::driver::{AttackDriver, CampaignStats, DriverParams};
use crate::machine::{AttackVariant, Scenario};
use crate::profile::FlipCatalog;
use crate::steering::{with_retries, RetryPolicy};
use crate::template::MachineTemplate;

/// Resolves a `--jobs`-style request into the worker count a run uses:
/// `None` means "all available parallelism", and a request is clamped
/// to `1..=cpus`. This is the engine's only CPU clamp — the engine
/// itself runs exactly the count it is handed.
pub fn resolve_jobs(requested: Option<usize>) -> NonZeroUsize {
    let cpus = std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN);
    match requested {
        Some(n) => NonZeroUsize::new(n.min(cpus.get())).unwrap_or(NonZeroUsize::MIN),
        None => cpus,
    }
}

/// Applies `f` to every item on `jobs` scoped workers (at most one per
/// item), returning results in input order — a scatter over
/// [`parallel_reduce_indexed`], whose in-order claiming loop runs the
/// items.
///
/// `f` must itself be deterministic per item for the full determinism
/// guarantee to hold; the campaign engine arranges that by deriving
/// every cell's RNG from its own seed.
///
/// # Panics
///
/// Propagates the grid-order-first panic from `f` once all workers have
/// stopped.
pub fn parallel_map<T, R, F>(items: Vec<T>, jobs: NonZeroUsize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let parts = parallel_reduce_indexed(
        n,
        jobs,
        |_| Vec::new(),
        |out: &mut Vec<(usize, R)>, i| {
            let item = tasks[i]
                .lock()
                .expect("task slot poisoned")
                .take()
                .expect("each task index is claimed exactly once");
            out.push((i, f(i, item)));
        },
    );
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every task ran to completion"))
        .collect()
}

/// Captures the grid-order-first panic from worker closures so it can
/// be resumed on the caller's thread with its original payload. All
/// items still run (never stopping early keeps the chosen panic a pure
/// function of the grid, not of scheduling), then the payload with the
/// lowest grid index wins — exactly the panic a serial run would have
/// surfaced first.
#[derive(Default)]
struct FirstPanic {
    slot: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl FirstPanic {
    fn record(&self, index: usize, payload: Box<dyn Any + Send>) {
        let mut slot = self.slot.lock().expect("panic slot poisoned");
        let replace = match slot.as_ref() {
            Some((held, _)) => index < *held,
            None => true,
        };
        if replace {
            *slot = Some((index, payload));
        }
    }

    /// Resumes the recorded panic, if any, on the calling thread.
    fn resume_if_any(self) {
        if let Some((_, payload)) = self.slot.into_inner().expect("panic slot poisoned") {
            resume_unwind(payload);
        }
    }
}

/// The engine's one worker loop: folds every index in `0..n` into a
/// per-worker accumulator from `new_acc(worker)` via `fold(acc, index)`
/// on exactly `min(jobs, n)` workers, so a run holds O(workers) state,
/// never O(items). Returns the accumulators in worker order.
///
/// Workers claim indices one at a time from a shared counter, so the
/// claims run in ascending grid order and each worker sees ascending
/// indices. Which worker gets which index depends on timing, so
/// deterministic aggregation requires folds that commute across workers
/// (sums, histograms, per-index slots or a grid-order writer).
///
/// # Panics
///
/// Propagates the grid-order-first panic from `fold` once all workers
/// have stopped.
pub fn parallel_reduce_indexed<A, G, F>(n: usize, jobs: NonZeroUsize, new_acc: G, fold: F) -> Vec<A>
where
    A: Send,
    G: Fn(usize) -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.get().min(n);
    if workers == 1 {
        // Serial fast path: no threads, same order, same results, and
        // a panicking fold propagates on its own.
        let mut acc = new_acc(0);
        for i in 0..n {
            fold(&mut acc, i);
        }
        return vec![acc];
    }

    let next = AtomicUsize::new(0);
    let first_panic = FirstPanic::default();
    let accs: Vec<Mutex<Option<A>>> = (0..workers).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..workers {
            let next = &next;
            let accs = &accs;
            let new_acc = &new_acc;
            let fold = &fold;
            let first_panic = &first_panic;
            scope.spawn(move || {
                let mut acc = new_acc(me);
                loop {
                    // Relaxed: the counter only hands out indices; the
                    // scope's join publishes what the folds computed.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Catch per index so a panicking fold surfaces with
                    // its own payload (not a poisoned-mutex or generic
                    // scope panic) after every worker stops.
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| fold(&mut acc, i))) {
                        first_panic.record(i, payload);
                    }
                }
                *accs[me].lock().expect("acc slot poisoned") = Some(acc);
            });
        }
    });
    first_panic.resume_if_any();

    accs.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("acc slot poisoned")
                .expect("every worker parks its accumulator")
        })
        .collect()
}

/// Cooperative cancellation handle for streamed grid runs.
///
/// Cancellation is *cell-granular and leak-free by construction*: a
/// worker checks the token before claiming each cell, so an in-flight
/// cell always completes its normal path (every faulted try destroys
/// its VM before retrying, and `free_pages()` accounting is asserted by
/// the driver), while unstarted cells are skipped without ever booting
/// a host. The campaign server's `DELETE /jobs/{id}` is built on this.
///
/// Clones share the flag; cancelling any clone cancels the run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation: no new cells start after this returns.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// One (scenario × seed) cell of a campaign grid.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Position in the grid, row-major (scenario-major, then seed).
    pub index: usize,
    /// The scenario, already re-seeded for this cell.
    pub scenario: Scenario,
    /// The experiment seed applied to the scenario.
    pub seed: u64,
}

/// The outcome of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Scenario name.
    pub scenario: &'static str,
    /// The attack variant this cell ran.
    pub variant: AttackVariant,
    /// The cell's experiment seed.
    pub seed: u64,
    /// Exploitable bits in the reused profiling catalogue.
    pub catalog_bits: usize,
    /// The campaign statistics (Table 3 raw material).
    pub stats: CampaignStats,
    /// The cell's trace recording, when the grid runs with
    /// [`CampaignGrid::with_trace`]. Cells are independent, so merging
    /// the sinks in grid order is deterministic regardless of `--jobs`.
    pub trace: Option<TraceSink>,
}

/// A grid of (scenario × experiment-seed) campaign cells plus the attack
/// parameters shared by every cell.
///
/// # Examples
///
/// ```
/// use hyperhammer::machine::Scenario;
/// use hyperhammer::driver::DriverParams;
/// use hyperhammer::parallel::CampaignGrid;
/// use std::num::NonZeroUsize;
///
/// let params = DriverParams { bits_per_attempt: 4, ..DriverParams::paper() };
/// let grid = CampaignGrid::new(vec![Scenario::tiny_demo()], params, 2)
///     .with_seed_count(0xbeef, 2);
/// let serial = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
/// let parallel = grid.run(NonZeroUsize::new(2).unwrap()).unwrap();
/// assert_eq!(serial, parallel);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    params: DriverParams,
    max_attempts: usize,
    trace: TraceMode,
}

impl CampaignGrid {
    /// Creates a grid over `scenarios` with one default cell seed (0);
    /// widen with [`CampaignGrid::with_seeds`] or
    /// [`CampaignGrid::with_seed_count`].
    pub fn new(scenarios: Vec<Scenario>, params: DriverParams, max_attempts: usize) -> Self {
        Self {
            scenarios,
            seeds: vec![0],
            params,
            max_attempts,
            trace: TraceMode::Off,
        }
    }

    /// Records per-cell traces at the given level; each [`CellResult`]
    /// then carries its cell's [`TraceSink`].
    pub fn with_trace(mut self, trace: TraceMode) -> Self {
        self.trace = trace;
        self
    }

    /// Applies a hostile-host fault plan to every scenario in the grid.
    /// Each cell still derives its own injection stream: the plan mixes
    /// the cell's host seed, which [`CampaignGrid::cells`] re-splits per
    /// cell, so no two cells share a fault schedule and determinism per
    /// cell (hence across `--jobs`) is preserved.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        for scenario in &mut self.scenarios {
            *scenario = scenario.clone().with_faults(faults);
        }
        self
    }

    /// Turns on the §6 virtio-mem quarantine countermeasure for every
    /// scenario in the grid (the CLI's `--quarantine`; job specs cannot
    /// carry it).
    pub fn with_quarantine(mut self) -> Self {
        for scenario in &mut self.scenarios {
            *scenario = scenario.clone().with_quarantine();
        }
        self
    }

    /// Replaces the transient-fault recovery policy used by every cell.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.params.retry = retry;
        self
    }

    /// Uses these explicit experiment seeds for every scenario.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "a grid needs at least one seed");
        self.seeds = seeds;
        self
    }

    /// Derives `count` seeds from `base` via [`SimRng::split_seed`] —
    /// the canonical seed-splitting scheme, reproducible from `base`
    /// alone.
    pub fn with_seed_count(self, base: u64, count: usize) -> Self {
        assert!(count > 0, "a grid needs at least one seed");
        let seeds = (0..count as u64)
            .map(|i| SimRng::split_seed(base, i))
            .collect();
        self.with_seeds(seeds)
    }

    /// The grid's scenarios, in row order — one [`MachineTemplate`] per
    /// entry is what [`CampaignGrid::run_streamed_resume`] expects.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The grid's cells in row-major (scenario-major) order, each with
    /// its re-seeded scenario.
    pub fn cells(&self) -> Vec<CampaignCell> {
        (0..self.len()).map(|i| self.cell_at(i)).collect()
    }

    /// Builds the cell at row-major `index` on demand — the streaming
    /// path materializes one cell per worker at a time instead of the
    /// whole grid.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn cell_at(&self, index: usize) -> CampaignCell {
        assert!(index < self.len(), "cell index {index} out of range");
        let scenario = &self.scenarios[index / self.seeds.len()];
        let seed = self.seeds[index % self.seeds.len()];
        CampaignCell {
            index,
            scenario: scenario.clone().with_seed(seed),
            seed,
        }
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.scenarios.len() * self.seeds.len()
    }

    /// `true` when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One [`MachineTemplate`] per scenario, in scenario order; cell
    /// `i` uses entry `i / seeds`. Callers without a template cache of
    /// their own build these once and hand them to
    /// [`CampaignGrid::run_streamed_resume`].
    pub fn scenario_templates(&self) -> Vec<MachineTemplate> {
        self.scenarios
            .iter()
            .map(MachineTemplate::for_scenario)
            .collect()
    }

    /// Runs one cell: boot from its template, profile, catalogue, then
    /// campaign to first success or the attempt budget. The
    /// `events_hint` pre-sizes the cell's trace arena and `recycled`
    /// reuses a spent sink's event arena (see [`TraceSink::recycle`]) —
    /// both capacity only, so a scheduling-dependent hint can never
    /// change recorded output.
    fn run_cell(
        &self,
        cell: &CampaignCell,
        template: &MachineTemplate,
        events_hint: usize,
        recycled: Option<TraceSink>,
    ) -> Result<CellResult, HvError> {
        let variant = cell.scenario.variant();
        let driver = AttackDriver::new(self.params.clone()).with_variant(variant);
        let mut host = template.instantiate(cell.seed);
        // Attach after boot: boot-time noise is outside the campaign.
        let tracer = Tracer::with_recycled(self.trace, events_hint, recycled);
        tracer.set_cell(cell.index);
        host.attach_tracer(tracer.clone());
        // An active fault plan can trip the profiling stage too (VM
        // creation jitter, EPT splits under the profiler's hammering).
        // Retry the whole stage on a fresh VM: the faulted try destroys
        // its VM before the backoff, so nothing leaks between tries.
        // The Xen variant steers p2m allocations instead of hammering
        // catalogued bits, so its cells skip profiling outright.
        let catalog = if variant == AttackVariant::Xen {
            FlipCatalog {
                entries: Vec::new(),
                host_mem: cell.scenario.profile_params().host_mem,
            }
        } else {
            with_retries(&self.params.retry, &mut host, |h| {
                let mut vm = h.create_vm(cell.scenario.vm_config())?;
                let result = driver.profile_and_catalog_with(
                    h,
                    &mut vm,
                    cell.scenario.profile_params(),
                    Some(template.tables()),
                );
                vm.destroy(h);
                result
            })?
        };
        let stats = driver.campaign(&cell.scenario, &mut host, &catalog, self.max_attempts)?;
        Ok(CellResult {
            scenario: cell.scenario.name,
            variant,
            seed: cell.seed,
            catalog_bits: catalog.entries.len(),
            stats,
            trace: tracer.take_sink(),
        })
    }

    /// Runs the whole grid on `jobs` workers and collects the results
    /// in grid order — the in-memory reference every other path is
    /// compared against. Results are identical for every `jobs` value.
    ///
    /// # Errors
    ///
    /// Returns the first (grid-order) hypervisor error.
    pub fn run(&self, jobs: NonZeroUsize) -> Result<Vec<CellResult>, HvError> {
        /// Keeps every result, trace sink included.
        struct Collect(Vec<(usize, CellResult)>);
        impl CellConsumer for Collect {
            fn consume(
                &mut self,
                index: usize,
                result: CellResult,
            ) -> std::io::Result<Option<TraceSink>> {
                self.0.push((index, result));
                Ok(None)
            }
        }
        let templates = self.scenario_templates();
        let refs: Vec<&MachineTemplate> = templates.iter().collect();
        let consumers = self
            .run_streamed_resume(jobs, &refs, &CancelToken::new(), &|_| false, |_| {
                Collect(Vec::new())
            })
            .map_err(|e| match e {
                StreamError::Hv(e) => e,
                other => unreachable!("a collecting run neither writes nor cancels: {other}"),
            })?;
        let mut cells: Vec<(usize, CellResult)> = consumers.into_iter().flat_map(|c| c.0).collect();
        cells.sort_unstable_by_key(|(index, _)| *index);
        Ok(cells.into_iter().map(|(_, result)| result).collect())
    }

    /// The campaign engine's one entry point: runs the grid on exactly
    /// `jobs` workers with O(workers) memory. Each worker folds every
    /// finished [`CellResult`] into its own [`CellConsumer`] (built by
    /// `new_consumer(worker)`) instead of parking it in a slot vector,
    /// cells are materialized one per worker at a time, and spent trace
    /// sinks handed back by the consumer are recycled, so one event
    /// arena serves all of a worker's cells.
    ///
    /// Cells run against caller-owned per-scenario `templates` (one per
    /// [`CampaignGrid::scenarios`] entry, in order — the campaign
    /// server shares warm ones across jobs). Cells for which
    /// `done(index)` returns `true` are skipped without booting a host
    /// or touching a consumer (checkpoint resume), and cancelling the
    /// token skips every not-yet-started cell. Because cells are
    /// independent (seed-split RNG streams, per-cell hosts), the cells
    /// that do run produce bytes identical to an uninterrupted run for
    /// any worker count.
    ///
    /// Cells start in ascending grid order, but they finish, and reach
    /// their worker's consumer, in whatever order their run times give;
    /// deterministic output therefore needs order-insensitive folds
    /// (mergeable sketches, per-index slots or a grid-order writer) —
    /// what [`streamref`](crate::streamref) provides. The returned consumers
    /// are in worker order.
    ///
    /// # Errors
    ///
    /// Every cell still runs and the grid-order-first error (hypervisor
    /// or consumer I/O) is returned, or [`StreamError::Cancelled`] when
    /// cancellation skipped at least one cell (unless an earlier
    /// grid-order cell failed harder).
    ///
    /// # Panics
    ///
    /// Panics if `templates.len()` differs from the scenario count.
    pub fn run_streamed_resume<C, G>(
        &self,
        jobs: NonZeroUsize,
        templates: &[&MachineTemplate],
        cancel: &CancelToken,
        done: &(dyn Fn(usize) -> bool + Sync),
        new_consumer: G,
    ) -> Result<Vec<C>, StreamError>
    where
        C: CellConsumer + Send,
        G: Fn(usize) -> C + Sync,
    {
        assert_eq!(
            templates.len(),
            self.scenarios.len(),
            "one template per scenario, in scenario order"
        );

        struct WorkerState<C> {
            consumer: C,
            recycled: Option<TraceSink>,
            // Lowest-index failure this worker saw; the grid-order
            // minimum across workers is the run's error — the error a
            // serial run would have hit first.
            first_error: Option<(usize, StreamError)>,
        }

        impl<C> WorkerState<C> {
            fn record_error(&mut self, index: usize, e: StreamError) {
                let replace = match self.first_error.as_ref() {
                    Some((held, _)) => index < *held,
                    None => true,
                };
                if replace {
                    self.first_error = Some((index, e));
                }
            }
        }

        let seeds_per_scenario = self.seeds.len();
        let events_hint = AtomicUsize::new(0);
        let states = parallel_reduce_indexed(
            self.len(),
            jobs,
            |worker| WorkerState {
                consumer: new_consumer(worker),
                recycled: None,
                first_error: None,
            },
            |state, index| {
                // Checked per cell, before any host is booted: an
                // in-flight cell always completes (leak-free), a
                // not-yet-started cell never starts.
                if cancel.is_cancelled() {
                    state.record_error(index, StreamError::Cancelled);
                    return;
                }
                // Resume support: cells already completed by a prior
                // (checkpointed) run are skipped before any work.
                if done(index) {
                    return;
                }
                let cell = self.cell_at(index);
                let template = templates[index / seeds_per_scenario];
                let hint = events_hint.load(Ordering::Relaxed);
                let outcome = self
                    .run_cell(&cell, template, hint, state.recycled.take())
                    .map_err(StreamError::Hv)
                    .and_then(|result| {
                        if let Some(sink) = &result.trace {
                            events_hint.fetch_max(sink.events().len(), Ordering::Relaxed);
                        }
                        state
                            .consumer
                            .consume(index, result)
                            .map_err(StreamError::Io)
                    });
                match outcome {
                    Ok(recycled) => state.recycled = recycled,
                    // Keep running the remaining cells, so the reported
                    // error is a function of the grid, not of
                    // scheduling; remember only the lowest-index one.
                    Err(e) => state.record_error(index, e),
                }
            },
        );

        let mut consumers = Vec::with_capacity(states.len());
        let mut first_error: Option<(usize, StreamError)> = None;
        for state in states {
            if let Some((index, e)) = state.first_error {
                let replace = match first_error.as_ref() {
                    Some((held, _)) => index < *held,
                    None => true,
                };
                if replace {
                    first_error = Some((index, e));
                }
            }
            consumers.push(state.consumer);
        }
        match first_error {
            Some((_, e)) => Err(e),
            None => Ok(consumers),
        }
    }
}

/// Per-worker sink for [`CampaignGrid::run_streamed_resume`]: receives every
/// finished [`CellResult`] of its worker, in that worker's scheduling
/// order, and may hand the cell's spent [`TraceSink`] back so the
/// engine can recycle its arena for the worker's next cell.
pub trait CellConsumer {
    /// Folds cell `index`'s finished result into the consumer's state.
    ///
    /// # Errors
    ///
    /// Output I/O failures; the run reports the grid-order-first one.
    fn consume(&mut self, index: usize, result: CellResult) -> std::io::Result<Option<TraceSink>>;
}

/// A streaming run's failure: the cell computation itself
/// ([`HvError`]), the consumer's output I/O, or cooperative
/// cancellation.
#[derive(Debug)]
pub enum StreamError {
    /// A cell failed the way [`CampaignGrid::run`] can fail.
    Hv(HvError),
    /// A consumer failed to write its output.
    Io(std::io::Error),
    /// A [`CancelToken`] stopped the run before this grid reached the
    /// cell; already-consumed cells are valid, the rest never ran.
    Cancelled,
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Hv(e) => write!(f, "{e}"),
            StreamError::Io(e) => write!(f, "campaign output I/O: {e}"),
            StreamError::Cancelled => write!(f, "campaign run cancelled"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<HvError> for StreamError {
    fn from(e: HvError) -> Self {
        StreamError::Hv(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid(seeds: usize) -> CampaignGrid {
        let params = DriverParams {
            bits_per_attempt: 4,
            stable_bits_only: true,
            ..DriverParams::paper()
        };
        CampaignGrid::new(vec![Scenario::tiny_demo()], params, 2).with_seed_count(0x717e, seeds)
    }

    #[test]
    fn parallel_map_preserves_order_and_runs_every_item() {
        let items: Vec<u64> = (0..37).collect();
        let jobs = NonZeroUsize::new(4).unwrap();
        // The engine runs exactly 4 real workers even on a 1-CPU
        // machine, so cross-thread claiming is actually exercised.
        let out = parallel_map(items.clone(), jobs, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        let clamped = parallel_map(items.clone(), resolve_jobs(Some(4)), |_, x| x * 2);
        assert_eq!(clamped, out, "CPU clamp must not change results");
    }

    #[test]
    fn parallel_map_handles_empty_and_oversubscribed() {
        let jobs = NonZeroUsize::new(8).unwrap();
        let empty: Vec<u8> = parallel_map(Vec::<u8>::new(), jobs, |_, x| x);
        assert!(empty.is_empty());
        let two = parallel_map(vec![1, 2], jobs, |_, x| x + 1);
        assert_eq!(two, vec![2, 3]);
    }

    #[test]
    fn work_stealing_survives_pathological_imbalance() {
        // Front-loaded cost: item 0 is ~3 orders of magnitude heavier
        // than the rest. A static split would strand worker 0's whole
        // initial share behind it; in-order claiming lets the other
        // workers drain the rest, and the output must stay in input
        // order either way.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(items, NonZeroUsize::new(4).unwrap(), |i, x| {
            let spins = if i == 0 { 2_000_000 } else { 2_000 };
            let mut acc = x;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn cells_are_claimed_in_ascending_grid_order() {
        let n = 200usize;
        for jobs in [1usize, 2, 8] {
            // The shared log records each index as its fold starts. The
            // first `jobs` folds wait for each other, so every worker
            // holds a cell at once before any claims a second.
            let log = Mutex::new(Vec::new());
            let all_started = std::sync::Barrier::new(jobs);
            let accs = parallel_reduce_indexed(
                n,
                NonZeroUsize::new(jobs).unwrap(),
                |_| Vec::new(),
                |mine: &mut Vec<usize>, i| {
                    log.lock().unwrap().push(i);
                    mine.push(i);
                    if i < jobs {
                        all_started.wait();
                    }
                },
            );
            assert_eq!(accs.len(), jobs);
            for mine in &accs {
                assert!(
                    mine.windows(2).all(|w| w[0] < w[1]),
                    "a worker's indices must ascend at {jobs} workers: {mine:?}"
                );
            }
            // Claims come off one counter in ascending order; only the
            // other workers' claims, not yet logged, can sit between a
            // claim and its log entry. So index i is logged no earlier
            // than position i - (jobs - 1).
            let log = log.into_inner().unwrap();
            for (position, &i) in log.iter().enumerate() {
                assert!(
                    i < position + jobs,
                    "index {i} started at position {position} with {jobs} workers"
                );
            }
            let mut sorted = log.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            if jobs == 1 {
                assert_eq!(log, sorted, "one worker runs the grid in order");
            }
        }
    }

    #[test]
    fn grid_cells_enumerate_row_major() {
        let grid = tiny_grid(3);
        let cells = grid.cells();
        assert_eq!(cells.len(), 3);
        assert_eq!(grid.len(), 3);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.seed, SimRng::split_seed(0x717e, i as u64));
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let grid = tiny_grid(2);
        let serial = grid.run(NonZeroUsize::MIN).unwrap();
        let one = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
        let four = grid.run(NonZeroUsize::new(4).unwrap()).unwrap();
        assert_eq!(serial, one);
        assert_eq!(serial, four);
        assert_eq!(serial.len(), 2);
        for cell in &serial {
            assert!(!cell.stats.attempts.is_empty());
        }
    }

    #[test]
    fn resolve_jobs_clamps_and_defaults() {
        let cpus = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(resolve_jobs(Some(0)).get(), 1);
        assert_eq!(resolve_jobs(Some(1)).get(), 1);
        assert_eq!(resolve_jobs(Some(6)).get(), 6.min(cpus));
        assert_eq!(resolve_jobs(Some(usize::MAX)).get(), cpus);
        assert_eq!(resolve_jobs(None).get(), cpus);
    }

    /// Runs `f`, catches its panic, and returns the `&str`/`String`
    /// payload — the message a user would see.
    fn panic_message<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> String {
        let payload = catch_unwind(f).expect_err("closure must panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload should be a string")
    }

    #[test]
    fn parallel_map_propagates_original_panic_payload() {
        // The original payload must surface — not a slot-mutex
        // "result slot poisoned" panic from the collection phase.
        for jobs in [1usize, 4] {
            let jobs = NonZeroUsize::new(jobs).unwrap();
            let msg = panic_message(move || {
                parallel_map((0..16u64).collect(), jobs, |i, x| {
                    assert!(i != 11, "cell 11 exploded");
                    x
                });
            });
            assert!(msg.contains("cell 11 exploded"), "got: {msg}");
        }
        let msg = panic_message(|| {
            parallel_map((0..4u64).collect(), resolve_jobs(Some(2)), |_, _| {
                panic!("clamped path panic")
            });
        });
        assert!(msg.contains("clamped path panic"), "got: {msg}");
    }

    #[test]
    fn first_grid_order_panic_wins_regardless_of_scheduling() {
        // Several items panic; the one surfacing must be the lowest
        // index — what a serial run would hit first — even though a
        // later-index worker may panic earlier in wall-clock time.
        let msg = panic_message(|| {
            parallel_map(
                (0..64usize).collect(),
                NonZeroUsize::new(4).unwrap(),
                |i, _| {
                    if i >= 5 {
                        panic!("panicked at index {i}");
                    }
                },
            );
        });
        assert_eq!(msg, "panicked at index 5");
    }

    #[test]
    fn reduce_path_propagates_original_panic_payload() {
        let msg = panic_message(|| {
            parallel_reduce_indexed(
                32,
                NonZeroUsize::new(4).unwrap(),
                |_| 0u64,
                |acc, i| {
                    assert!(i != 7, "reducer died on 7");
                    *acc += 1;
                },
            );
        });
        assert!(msg.contains("reducer died on 7"), "got: {msg}");
    }

    #[test]
    fn reduce_partitions_every_index_exactly_once() {
        for jobs in [1usize, 2, 4, 8] {
            let jobs = NonZeroUsize::new(jobs).unwrap();
            let accs = parallel_reduce_indexed(37, jobs, |_| Vec::new(), |acc, i| acc.push(i));
            assert_eq!(accs.len(), jobs.get().min(37));
            let mut all: Vec<usize> = accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..37).collect::<Vec<_>>());
        }
        assert!(
            parallel_reduce_indexed(0, NonZeroUsize::new(4).unwrap(), |_| 0u8, |_, _| {})
                .is_empty()
        );
    }

    struct Collect(Vec<(usize, CellResult)>);
    impl CellConsumer for Collect {
        fn consume(
            &mut self,
            index: usize,
            mut result: CellResult,
        ) -> std::io::Result<Option<TraceSink>> {
            let sink = result.trace.take();
            self.0.push((index, result));
            Ok(sink)
        }
    }

    #[test]
    fn shared_templates_and_idle_token_match_plain_streamed_run() {
        let grid = tiny_grid(3);
        let reference = grid.run(NonZeroUsize::MIN).unwrap();
        // Caller-owned templates, as the campaign server shares them
        // across jobs; an uncancelled token must be unobservable.
        let templates: Vec<MachineTemplate> = grid
            .scenarios()
            .iter()
            .map(MachineTemplate::for_scenario)
            .collect();
        let refs: Vec<&MachineTemplate> = templates.iter().collect();
        let token = CancelToken::new();
        let consumers = grid
            .run_streamed_resume(
                NonZeroUsize::new(2).unwrap(),
                &refs,
                &token,
                &|_| false,
                |_| Collect(Vec::new()),
            )
            .unwrap();
        let mut streamed: Vec<(usize, CellResult)> =
            consumers.into_iter().flat_map(|c| c.0).collect();
        streamed.sort_by_key(|(i, _)| *i);
        assert_eq!(streamed.len(), reference.len());
        for ((i, got), want) in streamed.iter().zip(reference.iter()) {
            let mut want = want.clone();
            want.trace = None;
            assert_eq!(got, &want, "cell {i} diverged under shared templates");
        }
    }

    #[test]
    fn cancelled_token_skips_unstarted_cells() {
        let grid = tiny_grid(4);
        let templates: Vec<MachineTemplate> = grid
            .scenarios()
            .iter()
            .map(MachineTemplate::for_scenario)
            .collect();
        let refs: Vec<&MachineTemplate> = templates.iter().collect();

        // Cancelled before the run starts: nothing runs at all.
        let token = CancelToken::new();
        token.cancel();
        let Err(err) = grid.run_streamed_resume(
            NonZeroUsize::new(2).unwrap(),
            &refs,
            &token,
            &|_| false,
            |_| Collect(Vec::new()),
        ) else {
            panic!("a pre-cancelled run must not succeed");
        };
        assert!(matches!(err, StreamError::Cancelled), "got: {err:?}");

        // Cancelled mid-run (from the consumer after the first cell, on
        // one worker so scheduling is fixed): the started cell's result
        // is delivered, later cells are skipped.
        struct CancelAfterFirst {
            token: CancelToken,
            consumed: std::sync::Arc<Mutex<Vec<usize>>>,
        }
        impl CellConsumer for CancelAfterFirst {
            fn consume(
                &mut self,
                index: usize,
                mut result: CellResult,
            ) -> std::io::Result<Option<TraceSink>> {
                self.consumed.lock().unwrap().push(index);
                self.token.cancel();
                Ok(result.trace.take())
            }
        }
        let token = CancelToken::new();
        let consumed = std::sync::Arc::new(Mutex::new(Vec::new()));
        let Err(err) = grid.run_streamed_resume(
            NonZeroUsize::new(1).unwrap(),
            &refs,
            &token,
            &|_| false,
            |_| CancelAfterFirst {
                token: token.clone(),
                consumed: consumed.clone(),
            },
        ) else {
            panic!("a mid-run cancellation must surface");
        };
        assert!(matches!(err, StreamError::Cancelled), "got: {err:?}");
        let consumed = consumed.lock().unwrap();
        assert_eq!(*consumed, vec![0], "exactly the in-flight cell completes");
    }

    #[test]
    fn resume_skips_done_cells_and_matches_a_full_run() {
        let grid = tiny_grid(4);
        let reference = grid.run(NonZeroUsize::MIN).unwrap();
        let templates: Vec<MachineTemplate> = grid
            .scenarios()
            .iter()
            .map(MachineTemplate::for_scenario)
            .collect();
        let refs: Vec<&MachineTemplate> = templates.iter().collect();
        // Cells 0 and 2 were "already completed" by the interrupted run.
        let done = |index: usize| index == 0 || index == 2;
        for jobs in [1usize, 2] {
            let token = CancelToken::new();
            let consumers = grid
                .run_streamed_resume(
                    NonZeroUsize::new(jobs).unwrap(),
                    &refs,
                    &token,
                    &done,
                    |_| Collect(Vec::new()),
                )
                .unwrap();
            let mut resumed: Vec<(usize, CellResult)> =
                consumers.into_iter().flat_map(|c| c.0).collect();
            resumed.sort_by_key(|(i, _)| *i);
            let indexes: Vec<usize> = resumed.iter().map(|(i, _)| *i).collect();
            assert_eq!(indexes, vec![1, 3], "done cells must never run");
            for (i, got) in &resumed {
                let mut want = reference[*i].clone();
                want.trace = None;
                assert_eq!(got, &want, "resumed cell {i} diverged at jobs={jobs}");
            }
        }
    }

    #[test]
    fn streamed_run_matches_in_memory_results() {
        let grid = tiny_grid(3);
        let reference = grid.run(NonZeroUsize::MIN).unwrap();
        let templates = grid.scenario_templates();
        let refs: Vec<&MachineTemplate> = templates.iter().collect();
        for jobs in [1usize, 2, 8] {
            let consumers = grid
                .run_streamed_resume(
                    NonZeroUsize::new(jobs).unwrap(),
                    &refs,
                    &CancelToken::new(),
                    &|_| false,
                    |_| Collect(Vec::new()),
                )
                .unwrap();
            let mut streamed: Vec<(usize, CellResult)> =
                consumers.into_iter().flat_map(|c| c.0).collect();
            streamed.sort_by_key(|(i, _)| *i);
            assert_eq!(streamed.len(), reference.len());
            for ((i, got), want) in streamed.iter().zip(reference.iter()) {
                let mut want = want.clone();
                want.trace = None;
                assert_eq!(got, &want, "cell {i} diverged at jobs={jobs}");
            }
        }
    }
}
