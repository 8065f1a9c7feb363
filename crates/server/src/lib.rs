//! # hh-server — persistent campaign daemon
//!
//! A std-only campaign server: a hand-rolled HTTP/1.1 listener (module
//! [`http`]) in front of a priority job queue feeding the core crate's
//! in-order parallel campaign runner, with per-scenario
//! [`MachineTemplate`]s kept warm in a shared cache so repeat jobs skip
//! the cold host-profiling setup the CLI pays on every invocation.
//!
//! The two layers are separable on purpose:
//!
//! * [`JobManager`] is the engine — submit/status/cancel/stream over an
//!   in-process job table, one runner thread draining a priority queue
//!   into [`CampaignGrid::run_streamed_resume`]. Benches drive it
//!   directly to compare warm-server submissions against cold starts.
//! * [`CampaignServer`] wraps a manager with the HTTP API:
//!   `POST /jobs`, `GET /jobs/{id}`, `GET /jobs/{id}/stream` (chunked
//!   NDJSON in grid order), `DELETE /jobs/{id}`, `GET /healthz`,
//!   `GET /metrics` and `POST /shutdown`.
//!
//! ## Byte-identity
//!
//! A job's streamed NDJSON is byte-identical to the serial CLI run of
//! the same spec: grids are built through [`JobSpec::to_grid`] (so
//! parameters cannot drift) and the per-cell line formatter is injected
//! by the CLI itself — the server never formats cells on its own.
//!
//! ## Leak-free cancellation
//!
//! `DELETE /jobs/{id}` cancels a queued job immediately and flips a
//! running job's [`CancelToken`]; in-flight cells complete normally
//! (every host teardown still runs, so the buddy allocator's
//! `free_pages` invariant holds) and not-yet-started cells never boot a
//! host.
//!
//! ## Spool
//!
//! With a spool directory every job keeps one [`journal`] file,
//! `job-<id>.journal` — the same crash-safe format as the CLI's
//! `campaign --checkpoint` file: the spec is synced before the job is
//! visible, each cell line is synced before streamers see it, and the
//! file is removed once the job goes terminal. The file is open only
//! while its job runs, so a queued job holds no descriptor. A restart
//! re-enqueues every journal it finds with the completed cells
//! pre-filled.
//!
//! [`CampaignGrid::run_streamed_resume`]: hyperhammer::parallel::CampaignGrid::run_streamed_resume

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod client;
pub mod http;
pub mod journal;

use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::io::{self, BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hh_sim::json::{self, to_json_line, Layout, ObjectWriter, ToJson};
use hyperhammer::jobspec::job_spec_from_json;
use hyperhammer::parallel::{resolve_jobs, CellConsumer, StreamError};
use hyperhammer::streamref::CampaignAggregate;
use hyperhammer::{CancelToken, CellResult, JobSpec, MachineTemplate};

use http::{error_response, ChunkedWriter, Method, ParseError, Request, Response};
use journal::Journal;

/// Per-cell NDJSON line formatter, injected by the CLI so the server
/// cannot drift from `campaign --json` output.
pub type CellFormatter = fn(&CellResult, &mut String);

/// The server's process-wide counters: the `counters` object of the
/// `GET /metrics` body, in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerCounter {
    /// HTTP requests handled.
    Requests,
    /// Jobs accepted by the queue.
    JobsSubmitted,
    /// Jobs run to completion.
    JobsCompleted,
    /// Jobs cancelled (queued or mid-run).
    JobsCancelled,
    /// Per-scenario template lookups served warm from the cache (one
    /// lookup per scenario of each job run).
    TemplateHits,
    /// Per-scenario template lookups that had to build one cold.
    TemplateMisses,
}

impl ServerCounter {
    /// Number of counters.
    pub const COUNT: usize = 6;

    /// Every counter, in declaration order.
    pub const ALL: [ServerCounter; ServerCounter::COUNT] = [
        ServerCounter::Requests,
        ServerCounter::JobsSubmitted,
        ServerCounter::JobsCompleted,
        ServerCounter::JobsCancelled,
        ServerCounter::TemplateHits,
        ServerCounter::TemplateMisses,
    ];

    /// Stable lower-snake wire name.
    pub const fn name(self) -> &'static str {
        match self {
            ServerCounter::Requests => "server_requests",
            ServerCounter::JobsSubmitted => "server_jobs_submitted",
            ServerCounter::JobsCompleted => "server_jobs_completed",
            ServerCounter::JobsCancelled => "server_jobs_cancelled",
            ServerCounter::TemplateHits => "server_template_hits",
            ServerCounter::TemplateMisses => "server_template_misses",
        }
    }
}

/// A job's lifecycle state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the priority queue.
    Queued,
    /// Being executed by the runner thread.
    Running,
    /// Every cell completed.
    Done,
    /// Cancelled before all cells ran; completed cells remain valid.
    Cancelled,
    /// The run failed (hypervisor error); the message says how.
    Failed(String),
}

impl JobStatus {
    /// Stable lower-case wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed(_) => "failed",
        }
    }

    /// Whether the job will never make further progress.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed(_)
        )
    }
}

/// Point-in-time view of one job, as returned by [`JobManager::status`].
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Queue priority the job was submitted with.
    pub priority: u8,
    /// Total cells in the job's grid.
    pub cells: usize,
    /// Cells completed so far.
    pub completed: usize,
    /// Execution order assigned when the runner picked the job up
    /// (0-based); `None` while still queued.
    pub start_order: Option<u64>,
    /// Aggregate statistics over the completed cells.
    pub aggregate: CampaignAggregate,
}

/// The `GET /jobs/{id}` response body.
impl ToJson for JobSnapshot {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.number("id", self.id);
        obj.string("status", self.status.name());
        obj.number("priority", self.priority);
        obj.number("cells", self.cells);
        obj.number("completed", self.completed);
        obj.number("succeeded", self.aggregate.succeeded);
        obj.number("attempts", self.aggregate.attempts);
        obj.number("aborted_attempts", self.aggregate.aborted_attempts);
        if let JobStatus::Failed(msg) = &self.status {
            obj.string("error", msg);
        }
    }
}

/// What [`JobManager::wait_line`] found at a grid index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineWait {
    /// The cell finished; here is its NDJSON line (newline included).
    Line(String),
    /// The job is terminal and this cell never completed.
    End(JobStatus),
}

#[derive(Debug)]
struct JobState {
    status: JobStatus,
    /// Cells in the job's grid.
    cells: usize,
    /// Completed cells' NDJSON lines by grid index. Filled out of order
    /// by workers, drained in grid order by streamers; a cell is absent
    /// until it completes, so a queued job costs nothing per cell.
    lines: BTreeMap<usize, String>,
    completed: usize,
    start_order: Option<u64>,
    aggregate: CampaignAggregate,
}

#[derive(Debug)]
struct Job {
    spec: JobSpec,
    cancel: CancelToken,
    state: Mutex<JobState>,
    wake: Condvar,
    /// The job's spool journal file, when the manager has a spool
    /// directory; deleted once the job goes terminal.
    journal_path: Option<PathBuf>,
    /// The journal, open for appending only while the job runs: a
    /// queued job holds no descriptor, so queue length is not bounded
    /// by the process's file limit.
    journal: Mutex<Option<Journal>>,
}

impl Job {
    /// A queued job of `cells` cells whose already-completed cells are
    /// `lines`.
    fn new(
        spec: JobSpec,
        cells: usize,
        lines: BTreeMap<usize, String>,
        journal_path: Option<PathBuf>,
    ) -> Self {
        Self {
            spec,
            cancel: CancelToken::new(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                completed: lines.len(),
                cells,
                lines,
                start_order: None,
                aggregate: CampaignAggregate::default(),
            }),
            wake: Condvar::new(),
            journal_path,
            journal: Mutex::new(None),
        }
    }

    fn set_status(&self, status: JobStatus) {
        if status.is_terminal() {
            self.remove_journal();
        }
        let mut state = self.state.lock().expect("job state poisoned");
        state.status = status;
        self.wake.notify_all();
    }

    /// Closes and deletes the spool journal of a job going terminal —
    /// before anyone can observe the terminal status — so after a crash
    /// the spool holds exactly the unfinished jobs.
    fn remove_journal(&self) {
        self.journal.lock().expect("journal poisoned").take();
        if let Some(path) = &self.journal_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Queue key: higher priority first; FIFO (lower submission sequence)
/// among equals.
#[derive(Debug, PartialEq, Eq)]
struct QueueEntry {
    priority: u8,
    seq: u64,
    id: u64,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Default)]
struct Registry {
    next_id: u64,
    next_seq: u64,
    next_start: u64,
    jobs: HashMap<u64, Arc<Job>>,
    queue: BinaryHeap<QueueEntry>,
    shutting_down: bool,
}

/// Cache key for warm [`MachineTemplate`]s. The template is built from
/// the *faulted* scenario (`Scenario::host_config` embeds the fault
/// plan), so the key must carry everything the resolved scenario does:
/// the base name, the attack variant (same-named jobs targeting
/// different variants must not share a template), and the fault
/// parameters. The fault rate is normalized before `to_bits` so `-0.0`
/// and `0.0` — equal rates — cannot split into two cache entries.
type TemplateKey = (&'static str, &'static str, u64, u64);

#[derive(Debug)]
struct Shared {
    fmt_cell: CellFormatter,
    registry: Mutex<Registry>,
    queue_wake: Condvar,
    templates: Mutex<HashMap<TemplateKey, Arc<MachineTemplate>>>,
    counters: Mutex<[u64; ServerCounter::COUNT]>,
    /// Spool directory the queue persists to, when configured.
    spool: Option<PathBuf>,
}

impl Shared {
    fn bump(&self, counter: ServerCounter) {
        self.counters.lock().expect("counters poisoned")[counter as usize] += 1;
    }
}

/// Per-worker sink: formats each finished cell with the injected
/// formatter and publishes it on the job's line table.
struct LineSink {
    job: Arc<Job>,
    fmt_cell: CellFormatter,
}

impl CellConsumer for LineSink {
    fn consume(
        &mut self,
        index: usize,
        result: CellResult,
    ) -> io::Result<Option<hh_trace::TraceSink>> {
        let mut line = String::new();
        (self.fmt_cell)(&result, &mut line);
        // Persist before publishing: a line a streamer saw must survive
        // a crash, the other way round merely re-runs a cell.
        if let Some(journal) = self.job.journal.lock().expect("journal poisoned").as_mut() {
            journal.append(index, &line)?;
        }
        let mut state = self.job.state.lock().expect("job state poisoned");
        state.aggregate.observe(&result);
        state.lines.insert(index, line);
        state.completed += 1;
        self.job.wake.notify_all();
        Ok(None)
    }
}

/// The campaign engine: a priority job queue, a single runner thread
/// fanning each job out over the in-order worker pool, and a process-wide
/// warm template cache. All methods take `&self`; share it in an
/// [`Arc`].
#[derive(Debug)]
pub struct JobManager {
    shared: Arc<Shared>,
    runner: Mutex<Option<JoinHandle<()>>>,
}

impl JobManager {
    /// Starts the manager (and its runner thread) with the given
    /// per-cell line formatter. In-memory only — the queue dies with
    /// the process; use [`JobManager::with_spool`] to persist it.
    pub fn new(fmt_cell: CellFormatter) -> Self {
        Self::with_spool(fmt_cell, None).expect("an in-memory manager does no I/O")
    }

    /// Starts the manager with an optional spool directory. When given,
    /// every submitted spec and completed cell line is persisted there,
    /// and any unfinished job found on disk is restored under its
    /// original id (FIFO by id, original priority) with its completed
    /// cells pre-filled — the runner skips them and their streamed
    /// bytes stay identical to an uninterrupted run. Aggregate
    /// statistics only cover cells run after the restart.
    ///
    /// # Errors
    ///
    /// Spool directory creation or scan failures.
    pub fn with_spool(fmt_cell: CellFormatter, spool: Option<PathBuf>) -> io::Result<Self> {
        let mut registry = Registry::default();
        if let Some(dir) = &spool {
            std::fs::create_dir_all(dir)?;
            restore_spool(dir, &mut registry)?;
        }
        let shared = Arc::new(Shared {
            fmt_cell,
            registry: Mutex::new(registry),
            queue_wake: Condvar::new(),
            templates: Mutex::new(HashMap::new()),
            counters: Mutex::new([0; ServerCounter::COUNT]),
            spool,
        });
        let runner = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("hh-job-runner".to_string())
                .spawn(move || runner_loop(&shared))
                .expect("spawn runner thread")
        };
        Ok(Self {
            shared,
            runner: Mutex::new(Some(runner)),
        })
    }

    /// Validates and enqueues a job; returns its id.
    ///
    /// # Errors
    ///
    /// The spec's own validation message, or a refusal while the
    /// manager is shutting down.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        spec.validate()?;
        let cells = spec
            .cell_count()
            .expect("validated specs count their cells");
        let shutting_down = || Err("server is shutting down".to_string());
        let (id, seq) = {
            let mut registry = self.shared.registry.lock().expect("registry poisoned");
            if registry.shutting_down {
                return shutting_down();
            }
            registry.next_id += 1;
            registry.next_seq += 1;
            (registry.next_id - 1, registry.next_seq - 1)
        };
        // Spec on disk (synced) before the job is visible: the spool
        // never holds a job it cannot rebuild. The syncs run outside
        // the registry lock, and the journal is closed again until the
        // job runs.
        let path = self.shared.spool.as_ref().map(|dir| journal_path(dir, id));
        if let Some(path) = &path {
            if let Err(e) = Journal::create(path, &spec) {
                let _ = std::fs::remove_file(path);
                return Err(format!("spool write failed: {e}"));
            }
        }
        let mut registry = self.shared.registry.lock().expect("registry poisoned");
        if registry.shutting_down {
            if let Some(path) = &path {
                let _ = std::fs::remove_file(path);
            }
            return shutting_down();
        }
        let priority = spec.priority;
        let job = Arc::new(Job::new(spec, cells, BTreeMap::new(), path));
        registry.jobs.insert(id, job);
        registry.queue.push(QueueEntry { priority, seq, id });
        drop(registry);
        self.shared.bump(ServerCounter::JobsSubmitted);
        self.shared.queue_wake.notify_all();
        Ok(id)
    }

    fn job(&self, id: u64) -> Option<Arc<Job>> {
        self.shared
            .registry
            .lock()
            .expect("registry poisoned")
            .jobs
            .get(&id)
            .cloned()
    }

    /// A point-in-time snapshot of a job, or `None` for unknown ids.
    pub fn status(&self, id: u64) -> Option<JobSnapshot> {
        let job = self.job(id)?;
        let state = job.state.lock().expect("job state poisoned");
        Some(JobSnapshot {
            id,
            status: state.status.clone(),
            priority: job.spec.priority,
            cells: state.cells,
            completed: state.completed,
            start_order: state.start_order,
            aggregate: state.aggregate.clone(),
        })
    }

    /// Cancels a job: a queued job becomes [`JobStatus::Cancelled`]
    /// immediately, a running job has its [`CancelToken`] flipped (the
    /// runner marks it cancelled once in-flight cells drain). Returns
    /// the status observed at cancel time, or `None` for unknown ids.
    pub fn cancel(&self, id: u64) -> Option<JobStatus> {
        let job = self.job(id)?;
        let mut state = job.state.lock().expect("job state poisoned");
        let observed = state.status.clone();
        match state.status {
            JobStatus::Queued => {
                job.remove_journal();
                state.status = JobStatus::Cancelled;
                job.wake.notify_all();
                drop(state);
                self.shared.bump(ServerCounter::JobsCancelled);
            }
            JobStatus::Running => {
                job.cancel.cancel();
            }
            _ => {}
        }
        Some(observed)
    }

    /// Blocks until cell `index` of job `id` completes (returning its
    /// NDJSON line) or the job goes terminal without it. `None` for
    /// unknown ids or out-of-range indices.
    pub fn wait_line(&self, id: u64, index: usize) -> Option<LineWait> {
        let job = self.job(id)?;
        let mut state = job.state.lock().expect("job state poisoned");
        if index >= state.cells {
            return None;
        }
        loop {
            if let Some(line) = state.lines.get(&index) {
                return Some(LineWait::Line(line.clone()));
            }
            if state.status.is_terminal() {
                return Some(LineWait::End(state.status.clone()));
            }
            state = job.wake.wait(state).expect("job state poisoned");
        }
    }

    /// Blocks until the job is terminal; returns the final snapshot
    /// (`None` for unknown ids).
    pub fn wait(&self, id: u64) -> Option<JobSnapshot> {
        let job = self.job(id)?;
        let mut state = job.state.lock().expect("job state poisoned");
        while !state.status.is_terminal() {
            state = job.wake.wait(state).expect("job state poisoned");
        }
        drop(state);
        self.status(id)
    }

    /// Serializes the `GET /metrics` body: queue depth, job/template
    /// counts, and the server counters.
    pub fn metrics_json(&self) -> String {
        let (depth, jobs) = {
            let registry = self.shared.registry.lock().expect("registry poisoned");
            (registry.queue.len(), registry.jobs.len())
        };
        let templates = self
            .shared
            .templates
            .lock()
            .expect("templates poisoned")
            .len();
        let values = *self.shared.counters.lock().expect("counters poisoned");
        json::object(Layout::Line, |obj| {
            obj.number("queue_depth", depth);
            obj.number("jobs", jobs);
            obj.number("templates", templates);
            obj.object("counters", |counters| {
                for &c in ServerCounter::ALL.iter() {
                    counters.number(c.name(), values[c as usize]);
                }
            });
        })
    }

    /// Current value of one server counter (used by tests/benches).
    pub fn counter(&self, counter: ServerCounter) -> u64 {
        self.shared.counters.lock().expect("counters poisoned")[counter as usize]
    }

    /// Begins shutdown: refuses new submissions, cancels every queued
    /// job, and tells the runner to exit after the job it is currently
    /// executing. Idempotent; does not block.
    pub fn shutdown(&self) {
        let drained: Vec<Arc<Job>> = {
            let mut registry = self.shared.registry.lock().expect("registry poisoned");
            if registry.shutting_down {
                return;
            }
            registry.shutting_down = true;
            let ids: Vec<u64> = registry.queue.drain().map(|e| e.id).collect();
            ids.iter()
                .filter_map(|id| registry.jobs.get(id).cloned())
                .collect()
        };
        for job in drained {
            let mut state = job.state.lock().expect("job state poisoned");
            if state.status == JobStatus::Queued {
                job.remove_journal();
                state.status = JobStatus::Cancelled;
                job.wake.notify_all();
                drop(state);
                self.shared.bump(ServerCounter::JobsCancelled);
            }
        }
        self.shared.queue_wake.notify_all();
    }

    /// Blocks until the runner thread has exited (call after
    /// [`JobManager::shutdown`]). Idempotent.
    pub fn join(&self) {
        let handle = self.runner.lock().expect("runner handle poisoned").take();
        if let Some(handle) = handle {
            handle.join().expect("runner thread panicked");
        }
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// The spool journal of job `id`.
fn journal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.journal"))
}

/// Rebuilds the registry from a spool directory: every readable
/// `job-<id>.journal` becomes a queued job under its original id (FIFO
/// by id among equal priorities) with its completed cell lines
/// pre-filled, so the runner skips those cells. A journal that fails to
/// load is skipped with a warning and left in place; fresh ids still
/// continue past it.
fn restore_spool(dir: &Path, registry: &mut Registry) -> io::Result<()> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = name
            .strip_prefix("job-")
            .and_then(|n| n.strip_suffix(".journal"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            if name.starts_with("job-") {
                eprintln!(
                    "spool: ignoring {name}: not a job journal (drain the spool before upgrading)"
                );
            }
            continue;
        };
        registry.next_id = registry.next_id.max(id.saturating_add(1));
        let path = entry.path();
        match journal::recover(&path) {
            Ok(recovered) => {
                if recovered.torn {
                    eprintln!("spool: dropped the torn final record of {name}");
                }
                found.push((id, path, recovered));
            }
            Err(e) => eprintln!("spool: skipping {name}: {e}"),
        }
    }
    found.sort_by_key(|(id, ..)| *id);
    for (id, path, recovered) in found {
        let priority = recovered.spec.priority;
        let cells = recovered
            .spec
            .cell_count()
            .expect("journal::parse validates the grid size");
        let job = Arc::new(Job::new(recovered.spec, cells, recovered.lines, Some(path)));
        let seq = registry.next_seq;
        registry.next_seq += 1;
        registry.jobs.insert(id, job);
        registry.queue.push(QueueEntry { priority, seq, id });
    }
    Ok(())
}

fn runner_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut registry = shared.registry.lock().expect("registry poisoned");
            loop {
                if let Some(entry) = registry.queue.pop() {
                    if let Some(job) = registry.jobs.get(&entry.id).cloned() {
                        // Skip entries cancelled while queued; claim the
                        // rest under the state lock, so a cancel lands
                        // either before (skipped) or after (token).
                        let mut state = job.state.lock().expect("job state poisoned");
                        if state.status == JobStatus::Queued {
                            state.status = JobStatus::Running;
                            state.start_order = Some(registry.next_start);
                            registry.next_start += 1;
                            job.wake.notify_all();
                            drop(state);
                            break Some(job);
                        }
                    }
                    continue;
                }
                if registry.shutting_down {
                    break None;
                }
                registry = shared.queue_wake.wait(registry).expect("registry poisoned");
            }
        };
        let Some(job) = job else { return };
        run_job(shared, &job);
    }
}

/// Fetches (or builds) the warm template for one scenario of a job.
fn warm_template(
    shared: &Shared,
    spec: &JobSpec,
    scenario: &hyperhammer::Scenario,
) -> Arc<MachineTemplate> {
    let rate = if spec.fault_rate == 0.0 {
        0.0_f64 // collapse -0.0 into +0.0: equal rates, one entry
    } else {
        spec.fault_rate
    };
    let key: TemplateKey = (
        scenario.name,
        scenario.variant().label(),
        rate.to_bits(),
        spec.fault_seed,
    );
    let mut cache = shared.templates.lock().expect("templates poisoned");
    if let Some(template) = cache.get(&key) {
        shared.bump(ServerCounter::TemplateHits);
        return Arc::clone(template);
    }
    shared.bump(ServerCounter::TemplateMisses);
    let template = Arc::new(MachineTemplate::for_scenario(scenario));
    cache.insert(key, Arc::clone(&template));
    template
}

fn run_job(shared: &Arc<Shared>, job: &Arc<Job>) {
    let grid = match job.spec.to_grid() {
        Ok(grid) => grid,
        Err(msg) => {
            job.set_status(JobStatus::Failed(msg));
            return;
        }
    };
    // Templates are built from the grid's scenarios (fault plan already
    // applied), keyed so only truly identical machines share.
    let templates: Vec<Arc<MachineTemplate>> = grid
        .scenarios()
        .iter()
        .map(|scenario| warm_template(shared, &job.spec, scenario))
        .collect();
    let refs: Vec<&MachineTemplate> = templates.iter().map(Arc::as_ref).collect();
    if let Some(path) = &job.journal_path {
        match Journal::open(path) {
            Ok(journal) => *job.journal.lock().expect("journal poisoned") = Some(journal),
            Err(e) => {
                job.set_status(JobStatus::Failed(format!("spool reopen failed: {e}")));
                return;
            }
        }
    }
    let jobs = resolve_jobs(job.spec.jobs);
    // Cells restored from the spool (or already present for any other
    // reason) are skipped; their published lines stay as-is.
    let done: BTreeSet<usize> = {
        let state = job.state.lock().expect("job state poisoned");
        state.lines.keys().copied().collect()
    };
    let outcome =
        grid.run_streamed_resume(jobs, &refs, &job.cancel, &|i| done.contains(&i), |_| {
            LineSink {
                job: Arc::clone(job),
                fmt_cell: shared.fmt_cell,
            }
        });
    match outcome {
        Ok(_) => {
            job.set_status(JobStatus::Done);
            shared.bump(ServerCounter::JobsCompleted);
        }
        Err(StreamError::Cancelled) => {
            job.set_status(JobStatus::Cancelled);
            shared.bump(ServerCounter::JobsCancelled);
        }
        Err(e) => {
            job.set_status(JobStatus::Failed(e.to_string()));
        }
    }
}

/// How long an idle connection waits for a request's first byte before
/// re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(200);

/// How long a request may take from its first byte to the end of its
/// body before the server answers `408` and closes the connection.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug)]
struct ServerCtx {
    manager: Arc<JobManager>,
    addr: SocketAddr,
    shutdown: AtomicBool,
}

/// The HTTP front of a [`JobManager`]: accepts connections on a
/// `TcpListener`, one handler thread per connection, keep-alive aware.
#[derive(Debug)]
pub struct CampaignServer {
    ctx: Arc<ServerCtx>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl CampaignServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving on background threads.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn start(addr: &str, fmt_cell: CellFormatter) -> io::Result<Self> {
        Self::start_with_spool(addr, fmt_cell, None)
    }

    /// [`CampaignServer::start`] with an optional spool directory the
    /// job queue persists to (see [`JobManager::with_spool`]): after a
    /// crash or kill, restarting with the same directory resumes every
    /// unfinished job from its last completed cell.
    ///
    /// # Errors
    ///
    /// Socket bind or spool directory failures.
    pub fn start_with_spool(
        addr: &str,
        fmt_cell: CellFormatter,
        spool: Option<PathBuf>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let ctx = Arc::new(ServerCtx {
            manager: Arc::new(JobManager::with_spool(fmt_cell, spool)?),
            addr: local,
            shutdown: AtomicBool::new(false),
        });
        let accept = {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("hh-accept".to_string())
                .spawn(move || accept_loop(&listener, &ctx))
                .expect("spawn accept thread")
        };
        Ok(Self {
            ctx,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// The underlying engine (benches and tests drive it directly).
    pub fn manager(&self) -> &Arc<JobManager> {
        &self.ctx.manager
    }

    /// Begins shutdown: stops accepting, cancels queued jobs, lets the
    /// in-flight job finish. Idempotent; does not block.
    pub fn shutdown(&self) {
        if self.ctx.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.ctx.manager.shutdown();
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.ctx.addr);
    }

    /// Blocks until every server thread (accept loop, connection
    /// handlers, job runner) has exited. Returns once a client's
    /// `POST /shutdown` — or a local [`CampaignServer::shutdown`] —
    /// has drained the server.
    pub fn join(&self) {
        let handle = self.accept.lock().expect("accept handle poisoned").take();
        if let Some(handle) = handle {
            handle.join().expect("accept thread panicked");
        }
        self.ctx.manager.join();
    }
}

impl Drop for CampaignServer {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<ServerCtx>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    for conn in listener.incoming() {
        if ctx.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Reap finished handlers so long-lived servers don't accumulate
        // join handles.
        handlers.retain(|h| !h.is_finished());
        let ctx = Arc::clone(ctx);
        let handle = std::thread::Builder::new()
            .name("hh-conn".to_string())
            .spawn(move || handle_connection(stream, &ctx))
            .expect("spawn connection thread");
        handlers.push(handle);
    }
    for handle in handlers {
        handle.join().expect("connection thread panicked");
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads one started request under a single deadline: before each socket
/// read the timeout is set to the time the request has left, so
/// [`REQUEST_TIMEOUT`] bounds the whole request, not each read.
struct DeadlineReader<'a> {
    inner: &'a mut BufReader<TcpStream>,
    deadline: Instant,
}

impl DeadlineReader<'_> {
    /// Arms the socket timeout when the next read would reach the socket.
    fn arm(&self) -> io::Result<()> {
        if !self.inner.buffer().is_empty() {
            return Ok(());
        }
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.inner.get_ref().set_read_timeout(Some(left))
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.arm()?;
        self.inner.read(buf)
    }
}

impl BufRead for DeadlineReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        self.arm()?;
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

fn handle_connection(stream: TcpStream, ctx: &Arc<ServerCtx>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        // Poll-style waits for the next request so idle keep-alive
        // connections notice shutdown.
        let _ = reader.get_ref().set_read_timeout(Some(READ_POLL));
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // A request has begun: its head and body must all arrive within
        // the per-request timeout, however they are split across reads.
        let mut request_reader = DeadlineReader {
            inner: &mut reader,
            deadline: Instant::now() + REQUEST_TIMEOUT,
        };
        let request = match http::read_request(&mut request_reader) {
            Ok(request) => request,
            Err(err) => {
                let resp = match &err {
                    ParseError::Io(e) if is_timeout(e) => {
                        Some(Response::error(408, "request timed out"))
                    }
                    _ => error_response(&err),
                };
                if let Some(resp) = resp {
                    let _ = resp.write_to(&mut writer, false);
                }
                return;
            }
        };
        ctx.manager.shared.bump(ServerCounter::Requests);
        let keep_alive = request.keep_alive;
        match route(ctx, &request, &mut writer) {
            Ok(Handled::Response(resp)) => {
                if resp.write_to(&mut writer, keep_alive).is_err() {
                    return;
                }
            }
            // Streamed bodies write themselves and always close.
            Ok(Handled::Streamed) => return,
            Err(_) => return,
        }
        if !keep_alive || ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

enum Handled {
    Response(Response),
    Streamed,
}

fn route(ctx: &Arc<ServerCtx>, request: &Request, writer: &mut TcpStream) -> io::Result<Handled> {
    let manager = &ctx.manager;
    let segments: Vec<&str> = request
        .path
        .split('?')
        .next()
        .unwrap_or("")
        .split('/')
        .filter(|s| !s.is_empty())
        .collect();
    let resp = match (request.method, segments.as_slice()) {
        (Method::Get, ["healthz"]) => Response::object(200, |obj| obj.bool("ok", true)),
        (Method::Get, ["metrics"]) => Response::json(200, manager.metrics_json()),
        (Method::Post, ["shutdown"]) => {
            let resp = Response::object(200, |obj| obj.bool("shutting_down", true));
            resp.write_to(writer, false)?;
            shutdown_from_handler(ctx);
            return Ok(Handled::Streamed);
        }
        (Method::Post, ["jobs"]) => match submit_body(manager, &request.body) {
            Ok((id, cells)) => Response::object(202, |obj| {
                obj.number("id", id);
                obj.number("cells", cells);
            }),
            Err(msg) => Response::error(400, &msg),
        },
        (Method::Get, ["jobs", id]) => {
            match id.parse::<u64>().ok().and_then(|id| manager.status(id)) {
                Some(snapshot) => Response::json(200, to_json_line(&snapshot)),
                None => not_found(),
            }
        }
        (Method::Delete, ["jobs", id]) => match id.parse::<u64>().ok() {
            Some(id) => match manager.cancel(id) {
                Some(observed) => Response::object(202, |obj| {
                    obj.number("id", id);
                    obj.string("was", observed.name());
                }),
                None => not_found(),
            },
            None => not_found(),
        },
        (Method::Get, ["jobs", id, "stream"]) => match id.parse::<u64>().ok() {
            Some(id) if manager.status(id).is_some() => {
                stream_job(manager, id, writer)?;
                return Ok(Handled::Streamed);
            }
            _ => not_found(),
        },
        _ => Response::error(404, "no such route"),
    };
    Ok(Handled::Response(resp))
}

fn not_found() -> Response {
    Response::error(404, "no such job")
}

fn submit_body(manager: &JobManager, body: &[u8]) -> Result<(u64, usize), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body must be UTF-8 JSON".to_string())?;
    if text.trim().is_empty() {
        return Err("POST /jobs needs a JSON job spec body (with Content-Length)".to_string());
    }
    let spec = job_spec_from_json(text)?;
    let cells = spec.cell_count().expect("decoded specs are validated");
    let id = manager.submit(spec)?;
    Ok((id, cells))
}

/// Streams a job's NDJSON lines in grid order as a chunked response,
/// blocking on each cell until it completes. A cancelled job's stream
/// ends cleanly at the first cell that never ran.
fn stream_job(manager: &JobManager, id: u64, writer: &mut TcpStream) -> io::Result<()> {
    // Streaming writes must not inherit the poll-read timeout semantics
    // on platforms where it also bounds writes; reads are done anyway.
    let mut chunked = ChunkedWriter::start(writer, 200, "application/x-ndjson")?;
    let mut index = 0;
    while let Some(wait) = manager.wait_line(id, index) {
        match wait {
            LineWait::Line(line) => {
                chunked.write_chunk(line.as_bytes())?;
                index += 1;
            }
            LineWait::End(_) => break,
        }
    }
    chunked.finish()
}

/// Shutdown initiated from inside a connection handler: run the
/// blocking part on a detached thread so the handler (which the accept
/// loop joins) can exit immediately.
fn shutdown_from_handler(ctx: &Arc<ServerCtx>) {
    if ctx.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    ctx.manager.shutdown();
    let _ = TcpStream::connect(ctx.addr);
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroUsize;

    use hh_sim::json::Json;
    use hyperhammer::jobspec::job_spec_to_json;

    use super::*;

    /// Deterministic test formatter (the real one lives in the CLI).
    fn fmt(result: &CellResult, out: &mut String) {
        out.push_str(&format!(
            "{{\"scenario\": \"{}\", \"seed\": {}}}\n",
            result.scenario, result.seed
        ));
    }

    fn tiny_spec() -> JobSpec {
        JobSpec {
            scenarios: vec!["tiny".to_string()],
            seeds: 2,
            attempts: 2,
            bits: 4,
            base_seed: 0xbeef,
            ..JobSpec::default()
        }
    }

    #[test]
    fn queue_orders_by_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        heap.push(QueueEntry {
            priority: 1,
            seq: 0,
            id: 10,
        });
        heap.push(QueueEntry {
            priority: 5,
            seq: 1,
            id: 11,
        });
        heap.push(QueueEntry {
            priority: 5,
            seq: 2,
            id: 12,
        });
        heap.push(QueueEntry {
            priority: 0,
            seq: 3,
            id: 13,
        });
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|e| e.id).collect();
        assert_eq!(order, vec![11, 12, 10, 13]);
    }

    #[test]
    fn manager_runs_jobs_to_byte_identical_lines() {
        let manager = JobManager::new(fmt);
        let spec = tiny_spec();
        let id = manager.submit(spec.clone()).unwrap();
        let done = manager.wait(id).unwrap();
        assert_eq!(done.status, JobStatus::Done);
        assert_eq!(Some(done.completed), spec.cell_count());
        assert!(Some(done.aggregate.cells) == spec.cell_count().map(|n| n as u64));

        // Reference: serial in-process run through the same spec path.
        let grid = spec.to_grid().unwrap();
        let results = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
        for (index, result) in results.iter().enumerate() {
            let mut expected = String::new();
            fmt(result, &mut expected);
            assert_eq!(
                manager.wait_line(id, index),
                Some(LineWait::Line(expected)),
                "cell {index} line must match the serial run"
            );
        }
    }

    #[test]
    fn warm_templates_are_shared_across_jobs() {
        let manager = JobManager::new(fmt);
        let first = manager.submit(tiny_spec()).unwrap();
        manager.wait(first).unwrap();
        assert_eq!(manager.counter(ServerCounter::TemplateMisses), 1);
        assert_eq!(manager.counter(ServerCounter::TemplateHits), 0);

        let second = manager.submit(tiny_spec()).unwrap();
        manager.wait(second).unwrap();
        assert_eq!(
            manager.counter(ServerCounter::TemplateMisses),
            1,
            "cache stays warm"
        );
        assert_eq!(manager.counter(ServerCounter::TemplateHits), 1);

        // A different fault plan must not share the warm template.
        let mut faulted = tiny_spec();
        faulted.fault_rate = 0.05;
        faulted.fault_seed = 7;
        let third = manager.submit(faulted).unwrap();
        manager.wait(third).unwrap();
        assert_eq!(manager.counter(ServerCounter::TemplateMisses), 2);
    }

    #[test]
    fn warm_templates_never_shared_across_variants() {
        let manager = JobManager::new(fmt);
        let base = manager.submit(tiny_spec()).unwrap();
        manager.wait(base).unwrap();
        assert_eq!(manager.counter(ServerCounter::TemplateMisses), 1);

        // Same base scenario name, different attack variant: the key
        // must differ even though `Scenario::name` is identical.
        let mut balloon = tiny_spec();
        balloon.scenarios = vec!["tiny@balloon".to_string()];
        let job = manager.submit(balloon).unwrap();
        manager.wait(job).unwrap();
        assert_eq!(
            manager.counter(ServerCounter::TemplateMisses),
            2,
            "tiny and tiny@balloon must not share a warm template"
        );
        assert_eq!(manager.counter(ServerCounter::TemplateHits), 0);

        // Re-submitting the variant job hits its own cached template.
        let mut again = tiny_spec();
        again.scenarios = vec!["tiny@balloon".to_string()];
        let job = manager.submit(again).unwrap();
        manager.wait(job).unwrap();
        assert_eq!(manager.counter(ServerCounter::TemplateMisses), 2);
        assert_eq!(manager.counter(ServerCounter::TemplateHits), 1);
    }

    #[test]
    fn warm_template_key_collapses_negative_zero_rate() {
        let manager = JobManager::new(fmt);
        let first = manager.submit(tiny_spec()).unwrap();
        manager.wait(first).unwrap();
        assert_eq!(manager.counter(ServerCounter::TemplateMisses), 1);

        // -0.0 == 0.0: the same (absent) fault plan must reuse the
        // template instead of splitting the cache on the sign bit.
        let mut negzero = tiny_spec();
        negzero.fault_rate = -0.0;
        let job = manager.submit(negzero).unwrap();
        manager.wait(job).unwrap();
        assert_eq!(manager.counter(ServerCounter::TemplateMisses), 1);
        assert_eq!(manager.counter(ServerCounter::TemplateHits), 1);
    }

    #[test]
    fn priority_decides_execution_order_behind_a_blocker() {
        let manager = JobManager::new(fmt);
        // While the blocker runs, both rivals sit in the queue; the
        // runner must pick the high-priority one first.
        let blocker = manager.submit(tiny_spec()).unwrap();
        let mut low = tiny_spec();
        low.priority = 1;
        let mut high = tiny_spec();
        high.priority = 9;
        let low = manager.submit(low).unwrap();
        let high = manager.submit(high).unwrap();
        manager.wait(blocker).unwrap();
        manager.wait(low).unwrap();
        manager.wait(high).unwrap();
        let low_order = manager.status(low).unwrap().start_order.unwrap();
        let high_order = manager.status(high).unwrap().start_order.unwrap();
        assert!(
            high_order < low_order,
            "priority 9 (order {high_order}) must start before priority 1 (order {low_order})"
        );
    }

    #[test]
    fn cancelling_a_queued_job_never_runs_it() {
        let manager = JobManager::new(fmt);
        let blocker = manager.submit(tiny_spec()).unwrap();
        let victim = manager.submit(tiny_spec()).unwrap();
        // The runner is busy with the blocker (or about to be); either
        // way the victim sits behind it in FIFO order, so cancel wins.
        let observed = manager.cancel(victim).unwrap();
        let done = manager.wait(victim).unwrap();
        if observed == JobStatus::Queued {
            assert_eq!(done.status, JobStatus::Cancelled);
            assert_eq!(done.completed, 0, "a queued-cancelled job runs no cells");
            assert_eq!(done.start_order, None);
        }
        manager.wait(blocker).unwrap();
        // The manager keeps serving after a cancellation.
        let after = manager.submit(tiny_spec()).unwrap();
        assert_eq!(manager.wait(after).unwrap().status, JobStatus::Done);
    }

    #[test]
    fn cancelling_a_running_job_keeps_finished_lines_valid() {
        let manager = JobManager::new(fmt);
        let mut spec = tiny_spec();
        spec.seeds = 12;
        spec.jobs = Some(1);
        let id = manager.submit(spec).unwrap();
        // Wait for the first cell so the job is demonstrably mid-run.
        let first = manager.wait_line(id, 0).unwrap();
        assert!(matches!(first, LineWait::Line(_)));
        manager.cancel(id).unwrap();
        let done = manager.wait(id).unwrap();
        assert!(done.completed >= 1);
        match done.status {
            JobStatus::Cancelled => assert!(done.completed < done.cells),
            JobStatus::Done => assert_eq!(done.completed, done.cells),
            other => panic!("unexpected terminal status {other:?}"),
        }
    }

    #[test]
    fn shutdown_cancels_queued_jobs_and_joins() {
        let manager = JobManager::new(fmt);
        let running = manager.submit(tiny_spec()).unwrap();
        let queued = manager.submit(tiny_spec()).unwrap();
        manager.shutdown();
        assert!(
            manager.submit(tiny_spec()).is_err(),
            "no submissions during shutdown"
        );
        manager.join();
        assert!(manager.wait(running).unwrap().status.is_terminal());
        let queued = manager.wait(queued).unwrap();
        assert!(queued.status.is_terminal());
    }

    #[test]
    fn spool_restores_unfinished_jobs_and_skips_completed_cells() {
        let dir = std::env::temp_dir().join(format!("hh-spool-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Simulate a killed server: a spec on disk plus one completed
        // cell whose line carries marker bytes a re-run could never
        // produce — if it survives, the cell was really skipped.
        let spec = tiny_spec();
        Journal::create(&journal_path(&dir, 7), &spec)
            .unwrap()
            .append(0, "{\"marker\": true}\n")
            .unwrap();

        let manager = JobManager::with_spool(fmt, Some(dir.clone())).unwrap();
        let done = manager.wait(7).expect("job restored under its original id");
        assert_eq!(done.status, JobStatus::Done);
        assert_eq!(Some(done.completed), spec.cell_count());
        assert_eq!(
            manager.wait_line(7, 0),
            Some(LineWait::Line("{\"marker\": true}\n".to_string()))
        );
        // The re-run cell matches the serial reference byte-for-byte.
        let grid = spec.to_grid().unwrap();
        let results = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
        let mut expected = String::new();
        fmt(&results[1], &mut expected);
        assert_eq!(manager.wait_line(7, 1), Some(LineWait::Line(expected)));
        // Terminal jobs delete and close their journals, and fresh ids
        // continue past the restored ones.
        assert!(!journal_path(&dir, 7).exists());
        let job = manager.job(7).unwrap();
        assert!(job.journal.lock().unwrap().is_none(), "journal closed");
        let next = manager.submit(tiny_spec()).unwrap();
        assert_eq!(next, 8, "ids continue after the restored job");
        manager.wait(next).unwrap();
        drop(manager);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queued_jobs_hold_no_open_journal() {
        let dir = SpoolDir::new("queued-fds");
        let spec = tiny_spec();
        for id in 0..3 {
            Journal::create(&journal_path(&dir.0, id), &spec).unwrap();
        }
        let mut registry = Registry::default();
        restore_spool(&dir.0, &mut registry).unwrap();
        assert_eq!(registry.jobs.len(), 3);
        for job in registry.jobs.values() {
            assert!(
                job.journal.lock().unwrap().is_none(),
                "restored jobs are closed"
            );
        }

        // Submitted jobs: whenever a job is seen queued (under its state
        // lock, which the runner needs to claim it), its journal is
        // closed; it opens only once the job runs.
        let manager = JobManager::with_spool(fmt, Some(dir.0.clone())).unwrap();
        let ids: Vec<u64> = (0..4)
            .map(|_| manager.submit(tiny_spec()).unwrap())
            .collect();
        for &id in &ids {
            let job = manager.job(id).unwrap();
            let state = job.state.lock().unwrap();
            if state.status == JobStatus::Queued {
                assert!(job.journal.lock().unwrap().is_none(), "job {id} is queued");
            }
        }
        for id in ids {
            assert_eq!(manager.wait(id).unwrap().status, JobStatus::Done);
            assert!(!journal_path(&dir.0, id).exists());
        }
    }

    /// A scratch spool directory, removed on drop.
    struct SpoolDir(PathBuf);

    impl SpoolDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("hh-spool-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }
    }

    impl Drop for SpoolDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// Cell `index`'s line from the serial reference run of `spec`.
    fn serial_line(spec: &JobSpec, index: usize) -> String {
        let results = spec.to_grid().unwrap().run(NonZeroUsize::MIN).unwrap();
        let mut line = String::new();
        fmt(&results[index], &mut line);
        line
    }

    #[test]
    fn restart_on_a_torn_final_record_reruns_that_cell() {
        let dir = SpoolDir::new("torn");
        let spec = tiny_spec();
        Journal::create(&journal_path(&dir.0, 4), &spec)
            .unwrap()
            .append(0, "{\"marker\": true}\n")
            .unwrap();
        // A kill mid-append: cell 1's record never got its newline.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(journal_path(&dir.0, 4))
            .unwrap();
        std::io::Write::write_all(&mut file, b"1\t{\"mark").unwrap();
        drop(file);

        let manager = JobManager::with_spool(fmt, Some(dir.0.clone())).unwrap();
        let done = manager.wait(4).expect("job restored");
        assert_eq!(done.status, JobStatus::Done);
        assert_eq!(
            manager.wait_line(4, 0),
            Some(LineWait::Line("{\"marker\": true}\n".to_string()))
        );
        assert_eq!(
            manager.wait_line(4, 1),
            Some(LineWait::Line(serial_line(&spec, 1))),
            "the torn cell re-runs byte-identically"
        );
        assert!(!journal_path(&dir.0, 4).exists());
    }

    #[test]
    fn restart_skips_an_oversized_spool_spec() {
        let dir = SpoolDir::new("oversized");
        // What an unpatched server spooled before panicking on the
        // spec: restarting on it must skip the job, not panic.
        std::fs::write(
            journal_path(&dir.0, 3),
            format!(
                "{}\n{{\"scenarios\": [\"micro\"], \"seeds\": {}}}\n",
                journal::MAGIC,
                u64::MAX
            ),
        )
        .unwrap();
        let spec = tiny_spec();
        Journal::create(&journal_path(&dir.0, 5), &spec).unwrap();

        let manager = JobManager::with_spool(fmt, Some(dir.0.clone())).unwrap();
        assert!(manager.status(3).is_none(), "the oversized job is skipped");
        assert_eq!(manager.wait(5).unwrap().status, JobStatus::Done);
        let next = manager.submit(tiny_spec()).unwrap();
        assert_eq!(next, 6, "ids continue past every spooled journal");
        manager.wait(next).unwrap();
    }

    #[test]
    fn oversized_spec_gets_400_and_the_server_keeps_serving() {
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        let api = client::Client::new(&server.local_addr().to_string());
        let err = api
            .submit(&format!(
                "{{\"scenarios\": [\"micro\"], \"seeds\": {}}}",
                u64::MAX
            ))
            .unwrap_err();
        assert!(err.contains("HTTP 400"), "got: {err}");
        assert!(err.contains("grid too large"), "got: {err}");

        let spec = tiny_spec();
        let id = api.submit(&job_spec_to_json(&spec)).unwrap();
        let mut streamed = Vec::new();
        api.stream(id, &mut streamed).unwrap();
        let expected: String = (0..2).map(|i| serial_line(&spec, i)).collect();
        assert_eq!(String::from_utf8(streamed).unwrap(), expected);
        api.shutdown().unwrap();
        server.join();
    }

    /// Sends `head`, waits `pause`, sends `body` on a fresh connection
    /// and returns everything the server answers before closing (a
    /// server that never answers fails the read after 10 s).
    fn raw_exchange(server: &CampaignServer, head: &str, pause: Duration, body: &str) -> String {
        use std::io::{Read, Write};
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(head.as_bytes()).unwrap();
        std::thread::sleep(pause);
        conn.write_all(body.as_bytes()).unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        reply
    }

    /// One `Connection: close` request; the reply's status and body.
    fn exchange(server: &CampaignServer, method: &str, path: &str, body: &str) -> (u16, String) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let reply = raw_exchange(server, &head, Duration::ZERO, body);
        let (head, body) = reply.split_once("\r\n\r\n").expect("a complete reply");
        let status = head[9..12].parse().expect("a status code");
        (status, body.to_string())
    }

    #[test]
    fn every_reply_body_parses_as_json() {
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        let spec = job_spec_to_json(&tiny_spec());
        let replies = [
            ("GET", "/healthz", "", 200),
            ("POST", "/jobs", spec.as_str(), 202),
            ("POST", "/jobs", "{\"scenarios\": [\"warp\\\"9\"]}", 400),
            ("GET", "/jobs/0", "", 200),
            ("DELETE", "/jobs/0", "", 202),
            ("GET", "/jobs/999", "", 404),
            ("DELETE", "/jobs/999", "", 404),
            ("GET", "/jobs/999/stream", "", 404),
            ("GET", "/no/such/route", "", 404),
            ("GET", "/metrics", "", 200),
            ("POST", "/shutdown", "", 200),
        ];
        for (method, path, body, want) in replies {
            let (status, reply) = exchange(&server, method, path, body);
            assert_eq!(status, want, "{method} {path}: {reply}");
            let doc = json::parse(&reply).unwrap_or_else(|e| panic!("{method} {path}: {e}"));
            assert!(doc.as_object().is_some_and(|m| !m.is_empty()), "{reply}");
        }
        server.join();

        // A protocol error whose message needs escaping, and a failed
        // job's status.
        let err = ParseError::BadRequest("bad \"header\"\nline\t\u{1}".to_string());
        let body = error_response(&err).unwrap().body;
        let doc = json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("bad \"header\"\nline\t\u{1}")
        );
        let snapshot = JobSnapshot {
            id: 3,
            status: JobStatus::Failed("spool \"x\"\n".to_string()),
            priority: 1,
            cells: 4,
            completed: 2,
            start_order: Some(0),
            aggregate: CampaignAggregate::default(),
        };
        let doc = json::parse(&to_json_line(&snapshot)).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("failed"));
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("spool \"x\"\n")
        );
    }

    #[test]
    fn slow_body_is_read_not_dropped() {
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        let spec = tiny_spec();
        let body = job_spec_to_json(&spec);
        let head = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        // The body arrives after more than one idle poll interval.
        let reply = raw_exchange(&server, &head, READ_POLL + READ_POLL / 2, &body);
        assert!(reply.starts_with("HTTP/1.1 202 "), "got: {reply}");
        assert!(reply.ends_with("{\"id\": 0, \"cells\": 2}"), "got: {reply}");

        let api = client::Client::new(&server.local_addr().to_string());
        let mut streamed = Vec::new();
        api.stream(0, &mut streamed).unwrap();
        let expected: String = (0..2).map(|i| serial_line(&spec, i)).collect();
        assert_eq!(String::from_utf8(streamed).unwrap(), expected);
        server.shutdown();
        server.join();
    }

    #[test]
    fn stalled_request_gets_408_and_the_connection_closes() {
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        // Half a request line, then silence past the request timeout.
        let reply = raw_exchange(
            &server,
            "POST /jo",
            REQUEST_TIMEOUT + Duration::from_millis(300),
            "",
        );
        assert!(
            reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "got: {reply}"
        );
        assert!(reply.contains("Connection: close\r\n"), "got: {reply}");
        server.shutdown();
        server.join();
    }

    #[test]
    fn dribbled_request_gets_408_at_the_request_deadline() {
        use std::io::Write;
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut dribble = conn.try_clone().unwrap();
        let started = Instant::now();
        // One byte a second of a request line: every read arrives well
        // inside the timeout, the request as a whole does not.
        let writer = std::thread::spawn(move || {
            for byte in b"POST /jobs HTTP/1.1\r\n".iter().take(9) {
                if dribble.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_secs(1));
            }
        });
        let mut reply = String::new();
        let _ = conn.read_to_string(&mut reply);
        let elapsed = started.elapsed();
        let _ = conn.shutdown(std::net::Shutdown::Both);
        writer.join().unwrap();
        assert!(
            reply.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "got after {elapsed:?}: {reply}"
        );
        assert!(
            elapsed < REQUEST_TIMEOUT + Duration::from_secs(2),
            "408 only after {elapsed:?}"
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn deeply_nested_body_gets_400_and_the_server_keeps_serving() {
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        let api = client::Client::new(&server.local_addr().to_string());
        // 20 KB of `[`: a recursive parser without a depth bound
        // overflows the connection thread's stack and aborts the process.
        let err = api.submit(&"[".repeat(20_000)).unwrap_err();
        assert!(err.contains("HTTP 400"), "got: {err}");
        assert!(err.contains("MAX_DEPTH"), "got: {err}");

        let spec = tiny_spec();
        let id = api.submit(&job_spec_to_json(&spec)).unwrap();
        let mut streamed = Vec::new();
        api.stream(id, &mut streamed).unwrap();
        let expected: String = (0..2).map(|i| serial_line(&spec, i)).collect();
        assert_eq!(String::from_utf8(streamed).unwrap(), expected);
        api.shutdown().unwrap();
        server.join();
    }

    /// A formatter gate for the pinned-metrics test: while it is shut,
    /// every cell's formatter call parks, holding its job in `Running`.
    struct Gate {
        open: bool,
        parked: usize,
    }

    static GATE: Mutex<Gate> = Mutex::new(Gate {
        open: false,
        parked: 0,
    });
    static GATE_MOVED: Condvar = Condvar::new();

    fn gated_fmt(result: &CellResult, out: &mut String) {
        fmt(result, out);
        let mut gate = GATE.lock().unwrap();
        gate.parked += 1;
        GATE_MOVED.notify_all();
        while !gate.open {
            gate = GATE_MOVED.wait(gate).unwrap();
        }
        gate.parked -= 1;
    }

    fn set_gate(open: bool) {
        GATE.lock().unwrap().open = open;
        GATE_MOVED.notify_all();
    }

    #[test]
    fn metrics_body_is_pinned_after_a_fixed_request_sequence() {
        let server = CampaignServer::start("127.0.0.1:0", gated_fmt).unwrap();
        let api = client::Client::new(&server.local_addr().to_string());
        let spec = job_spec_to_json(&tiny_spec());

        // With the gate shut the first job cannot finish, so the job
        // queued behind it is still queued when it is cancelled.
        let _blocker = api.submit(&spec).unwrap();
        let victim = api.submit(&spec).unwrap();
        let cancelled = api.cancel(victim).unwrap();
        assert!(
            cancelled.contains("\"was\": \"queued\""),
            "got: {cancelled}"
        );
        let second = api.submit(&spec).unwrap();
        set_gate(true);
        let mut streamed = Vec::new();
        api.stream(second, &mut streamed).unwrap();
        assert!(api.submit("{\"scenarios\": [\"warp9\"]}").is_err());
        assert!(api.status(second).unwrap().contains("\"status\": \"done\""));
        assert!(api.status(999).is_err());

        // A last job parked in its first cell proves the runner is past
        // the previous job's completion count and this job's template
        // lookup.
        set_gate(false);
        let _parked = api.submit(&spec).unwrap();
        let mut gate = GATE.lock().unwrap();
        while gate.parked == 0 {
            gate = GATE_MOVED.wait(gate).unwrap();
        }
        drop(gate);
        assert_eq!(
            api.metrics().unwrap(),
            "{\"queue_depth\": 0, \"jobs\": 4, \"templates\": 1, \"counters\": \
             {\"server_requests\": 10, \"server_jobs_submitted\": 4, \
             \"server_jobs_completed\": 2, \"server_jobs_cancelled\": 1, \
             \"server_template_hits\": 2, \"server_template_misses\": 1}}"
        );
        set_gate(true);
        api.shutdown().unwrap();
        server.join();
    }

    #[test]
    fn http_round_trip_submit_stream_cancel_shutdown() {
        let server = CampaignServer::start("127.0.0.1:0", fmt).unwrap();
        let addr = server.local_addr().to_string();
        let api = client::Client::new(&addr);

        assert!(api.healthz().unwrap().contains("true"));

        let spec = tiny_spec();
        let body = job_spec_to_json(&spec);
        let id = api.submit(&body).unwrap();
        let mut streamed = Vec::new();
        api.stream(id, &mut streamed).unwrap();

        // Byte-identity vs the in-process serial run.
        let grid = spec.to_grid().unwrap();
        let results = grid.run(NonZeroUsize::new(1).unwrap()).unwrap();
        let mut expected = String::new();
        for result in &results {
            fmt(result, &mut expected);
        }
        assert_eq!(String::from_utf8(streamed).unwrap(), expected);

        let status = api.status(id).unwrap();
        assert!(status.contains("\"status\": \"done\""), "got: {status}");

        // Unknown jobs 404, bad specs 400.
        assert!(api.status(999).is_err());
        assert!(api.submit("{\"scenarios\": [\"warp9\"]}").is_err());
        let metrics = api.metrics().unwrap();
        assert!(metrics.contains("server_jobs_submitted"), "got: {metrics}");

        // DELETE an (already finished) job answers with its status.
        let cancel = api.cancel(id).unwrap();
        assert!(cancel.contains("\"was\""), "got: {cancel}");

        api.shutdown().unwrap();
        server.join();
    }
}
