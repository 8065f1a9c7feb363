//! Traced per-layer run of the `perfbench` benchmark.
//!
//! Runs one workload's campaign cells in-process, in rounds until the
//! time budget is spent. Each round runs every cell twice:
//!
//! 1. **Untraced**, through `CampaignGrid::run_streamed_resume` with one
//!    worker and prebuilt templates (the path the campaign server
//!    takes). Each cell and each `campaign_cell_line` call is timed, and
//!    the results are the reference for the second pass.
//! 2. **Traced**, with an `hh-trace` metrics tracer attached. Cells on
//!    the virtio-mem attempt path (bare scenarios and `@pthammer`, which
//!    share `AttackDriver::run_attempt`'s stage sequence) are replayed
//!    through the layers' public calls, each timed from outside. Cells of
//!    the other variants run through the grid with the tracer on.
//!
//! Every traced cell must equal its untraced reference (outcome and
//! simulated duration of every attempt), and every untraced workload
//! cell must format to the same line as the CLI's reference NDJSON
//! (`--reference`, required), or the run exits with status 3.
//!
//! Besides the workload's own grid, each round runs one cell of every
//! attack variant the grid lacks on the workload's base scenario. These
//! cells feed the `variant.<name>.cell_ms` metrics, and nothing else
//! unless the workload's own cells never run a span: a workload of
//! `@xen` cells only is not replayed, so its lifecycle and attempt
//! spans come from the replayed variant cells on the same machine.
//! When no attempt reaches the steering stages (micro machines have no
//! exploitable flips), the stage spans come from a one-attempt `tiny`
//! probe cell. The report names each span's source; a span that no
//! source ran fails the run.
//!
//! Usage:
//!
//! ```text
//! hh-perfbench-trace --scenarios tiny --seeds 3 --base-seed 7 \
//!     --attempts 2 --bits 12 --seconds 15 --reference cells.ndjson
//! ```
//!
//! With `--cells-only` it instead runs the grid once, untraced, checks
//! its lines against the reference, and reports only the summed cell
//! time, `grid_cells_ms`: the CLI job's wall time minus this, both from
//! fresh processes, is its process overhead.
//!
//! The last line of stdout is one JSON object: `metrics` (name → value),
//! `samples` (span → sample count), `span_sources` (span → the cells it
//! came from) and run facts.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use hh_buddy::MigrateType;
use hh_hv::{Host, HvError, Vm};
use hh_sim::addr::{Gpa, Hpa, HUGE_PAGE_SIZE};
use hh_trace::{Counter, Metrics, TraceMode, TraceSink, Tracer};
use hyperhammer::driver::{
    AttemptOutcome, AttemptRecord, CampaignStats, DriverParams, RelocatedBit,
};
use hyperhammer::parallel::{CampaignCell, CellConsumer, StreamError};
use hyperhammer::{
    AttackDriver, AttackVariant, CampaignGrid, CancelToken, CellResult, Exploiter, FlipCatalog,
    JobSpec, MachineTemplate, PageSteering,
};
use hyperhammer_cli::commands::campaign_cell_line;

/// The host-side witness value `AttackDriver::campaign` plants ("KVMESCAP").
const WITNESS: u64 = 0x4b56_4d45_5343_4150;

/// Stage spans a probe cell may stand in for; its other spans are
/// never used, so they cannot mix another machine into the workload's
/// numbers.
const PROBE_SPANS: [&str; 5] = [
    "steering.exhaust_noise_ms",
    "steering.release_ms",
    "steering.spray_ept_ms",
    "exploit.stamp_magic_ms",
    "exploit.run_ms",
];

/// Most probe cells one run replays.
const MAX_PROBES: usize = 5;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("hh-perfbench-trace: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("hh-perfbench-trace: {msg}");
            ExitCode::from(3)
        }
    }
}

struct Args {
    spec: JobSpec,
    seconds: f64,
    /// The CLI's NDJSON for the same grid, one line per cell.
    reference: String,
    /// Run the workload grid once, untraced, and report only its cell
    /// time (`grid_cells_ms`).
    cells_only: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut spec = JobSpec {
            jobs: Some(1),
            ..JobSpec::default()
        };
        let mut seconds = 10.0;
        let mut reference = None;
        let mut cells_only = false;
        while let Some(flag) = argv.next() {
            if flag == "--cells-only" {
                cells_only = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
            match flag.as_str() {
                "--scenarios" => spec.scenarios = value.split(',').map(str::to_string).collect(),
                "--seeds" => spec.seeds = number(&value)? as usize,
                "--base-seed" => spec.base_seed = number(&value)?,
                "--attempts" => spec.attempts = number(&value)? as usize,
                "--bits" => spec.bits = number(&value)? as usize,
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds: bad value {value}"))?;
                }
                "--reference" => reference = Some(value),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        spec.validate()?;
        let reference = reference.ok_or("--reference is required")?;
        Ok(Self {
            spec,
            seconds,
            reference,
            cells_only,
        })
    }
}

/// Host-time samples per span name, in milliseconds.
#[derive(Default)]
struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    fn add(&mut self, name: &'static str, ms: f64) {
        self.samples.entry(name).or_default().push(ms);
    }
}

/// Median of a non-empty sample.
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, records its wall time under `name`, and returns both.
fn timed<T>(spans: &mut Spans, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    let ms = ms_since(start);
    spans.add(name, ms);
    (value, ms)
}

/// The per-attempt stage objects, built the way `AttackDriver::new`
/// builds its private copies.
struct Stages {
    driver: AttackDriver,
    steering: PageSteering,
    exploiter: Exploiter,
    bits_per_attempt: usize,
}

impl Stages {
    fn new(params: &DriverParams, variant: AttackVariant) -> Self {
        Self {
            driver: AttackDriver::new(params.clone()).with_variant(variant),
            steering: PageSteering::new(params.steering.clone()).with_retry(params.retry),
            exploiter: Exploiter::new(params.exploit.clone()).with_variant(variant),
            bits_per_attempt: params.bits_per_attempt,
        }
    }
}

/// A replayed cell: its result, its trace counters, its wall time and
/// the part of that wall time the spans cover.
struct Replayed {
    result: CellResult,
    metrics: Metrics,
    wall_ms: f64,
    covered_ms: f64,
}

/// Whether a cell takes the virtio-mem arm of `run_attempt`, which the
/// replay mirrors.
fn replayable(variant: AttackVariant) -> bool {
    matches!(variant, AttackVariant::VirtioMem | AttackVariant::PtHammer)
}

/// One campaign cell as `CampaignGrid` runs it without faults (template
/// instantiation, profiling VM, witness page, attempts to first
/// success), with every layer call timed.
fn replay_cell(
    cell: &CampaignCell,
    template: &MachineTemplate,
    params: &DriverParams,
    max_attempts: usize,
    spans: &mut Spans,
) -> Result<Replayed, HvError> {
    let cell_start = Instant::now();
    let variant = cell.scenario.variant();
    let stages = Stages::new(params, variant);
    let mut covered = 0.0;

    let (mut host, ms) = timed(spans, "template.instantiate_ms", || {
        template.instantiate(cell.seed)
    });
    covered += ms;
    let tracer = Tracer::new(TraceMode::Metrics);
    tracer.set_cell(cell.index);
    host.attach_tracer(tracer.clone());

    let (vm, ms) = timed(spans, "hv.create_vm_ms", || {
        host.create_vm(cell.scenario.vm_config())
    });
    covered += ms;
    let mut vm = vm?;
    let (catalog, ms) = timed(spans, "profile.ms_per_cell", || {
        stages.driver.profile_and_catalog_with(
            &mut host,
            &mut vm,
            cell.scenario.profile_params(),
            Some(template.tables()),
        )
    });
    covered += ms;
    let ((), ms) = timed(spans, "hv.destroy_vm_ms", || vm.destroy(&mut host));
    covered += ms;
    let catalog = catalog?;

    let witness = host
        .buddy_mut()
        .alloc_page(MigrateType::Unmovable)
        .map_err(HvError::from)?;
    host.dram_mut()
        .store_mut()
        .write_u64(witness.base_hpa(), WITNESS);
    let campaign_start = host.now();
    let mut stats = CampaignStats::default();
    for _ in 0..max_attempts {
        let respawn_start = host.now();
        let (vm, ms) = timed(spans, "hv.create_vm_ms", || {
            host.create_vm(cell.scenario.vm_config())
        });
        covered += ms;
        let attempt_start = Instant::now();
        let record = vm.and_then(|vm| {
            replay_attempt(&mut host, vm, &catalog, witness.base_hpa(), &stages, spans)
        });
        let ms = ms_since(attempt_start);
        spans.add("driver.attempt_ms", ms);
        covered += ms;
        let mut record = record?;
        record.duration = host.elapsed_since(respawn_start);
        let success = record.outcome.is_success();
        stats.attempts.push(record);
        if success {
            break;
        }
    }
    stats.total_time = host.elapsed_since(campaign_start);
    let wall_ms = ms_since(cell_start);
    let metrics = tracer
        .take_sink()
        .expect("a metrics tracer has a sink")
        .metrics()
        .clone();
    Ok(Replayed {
        result: CellResult {
            scenario: cell.scenario.name,
            variant,
            seed: cell.seed,
            catalog_bits: catalog.entries.len(),
            stats,
            trace: None,
        },
        metrics,
        wall_ms,
        covered_ms: covered,
    })
}

/// `AttackDriver::run_attempt`'s virtio-mem arm, one public call per
/// stage.
fn replay_attempt(
    host: &mut Host,
    mut vm: Vm,
    catalog: &FlipCatalog,
    target: Hpa,
    stages: &Stages,
    spans: &mut Spans,
) -> Result<AttemptRecord, HvError> {
    let start = host.now();
    let (candidates, _) = timed(spans, "driver.relocate_ms", || {
        stages.driver.relocate(&vm, catalog)
    });
    let bits = select_bits(candidates, stages.bits_per_attempt);
    if bits.is_empty() {
        let duration = host.elapsed_since(start);
        timed(spans, "hv.destroy_vm_ms", || vm.destroy(host));
        return Ok(AttemptRecord {
            outcome: AttemptOutcome::NoUsableBits,
            duration,
            bits_targeted: 0,
            released: 0,
        });
    }
    let (outcome, released) = match steer_and_exploit(host, &mut vm, &bits, target, stages, spans) {
        Ok(pair) => pair,
        Err(e) => {
            vm.destroy(host);
            return Err(e);
        }
    };
    let duration = host.elapsed_since(start);
    timed(spans, "hv.destroy_vm_ms", || vm.destroy(host));
    Ok(AttemptRecord {
        outcome,
        duration,
        bits_targeted: bits.len(),
        released,
    })
}

fn steer_and_exploit(
    host: &mut Host,
    vm: &mut Vm,
    bits: &[RelocatedBit],
    target: Hpa,
    stages: &Stages,
    spans: &mut Spans,
) -> Result<(AttemptOutcome, usize), HvError> {
    timed(spans, "steering.exhaust_noise_ms", || {
        stages.steering.exhaust_noise(host, vm)
    })
    .0?;
    timed(spans, "exploit.stamp_magic_ms", || {
        stages.exploiter.stamp_magic(host, vm)
    })
    .0?;
    let victims: Vec<Gpa> = bits.iter().map(RelocatedBit::hugepage_base).collect();
    let released = timed(spans, "steering.release_ms", || {
        stages.steering.release_hugepages(host, vm, &victims)
    })
    .0?;
    timed(spans, "steering.spray_ept_ms", || {
        stages
            .steering
            .spray_ept(host, vm, PageSteering::spray_budget(released.len()))
    })
    .0?;
    let outcome = match timed(spans, "exploit.run_ms", || {
        stages.exploiter.run(host, vm, bits, target)
    })
    .0?
    {
        Ok(proof) => AttemptOutcome::Success(proof),
        Err(failure) => AttemptOutcome::Failed(failure),
    };
    Ok((outcome, released.len()))
}

/// `run_attempt`'s greedy conflict-free bit selection: a bit's victim
/// hugepage must not host another bit's aggressors, and vice versa.
fn select_bits(candidates: Vec<RelocatedBit>, limit: usize) -> Vec<RelocatedBit> {
    let mut bits = Vec::new();
    let mut victims: Vec<Gpa> = Vec::new();
    let mut aggressors: Vec<Gpa> = Vec::new();
    for bit in candidates {
        let victim_hp = bit.hugepage_base();
        let aggr_hp = bit.aggressors[0].align_down(HUGE_PAGE_SIZE);
        if aggressors.contains(&victim_hp) || victims.contains(&aggr_hp) {
            continue;
        }
        victims.push(victim_hp);
        aggressors.push(aggr_hp);
        bits.push(bit);
        if bits.len() >= limit {
            break;
        }
    }
    bits
}

/// One finished grid cell with its host time.
struct TimedCell {
    index: usize,
    ms: f64,
    line_us: f64,
    line: String,
    result: CellResult,
}

/// Times each cell as the gap between consecutive completions (the
/// formatter's own time is excluded from the gap).
struct Collector {
    last: Instant,
    cells: Vec<TimedCell>,
}

impl CellConsumer for Collector {
    fn consume(&mut self, index: usize, result: CellResult) -> std::io::Result<Option<TraceSink>> {
        let ms = ms_since(self.last);
        let start = Instant::now();
        let mut line = String::new();
        campaign_cell_line(&result, &mut line);
        let line_us = start.elapsed().as_secs_f64() * 1e6;
        self.cells.push(TimedCell {
            index,
            ms,
            line_us,
            line,
            result,
        });
        self.last = Instant::now();
        Ok(None)
    }
}

/// Runs the grid's cells for which `skip` is false on one worker.
fn run_grid(
    grid: &CampaignGrid,
    templates: &[MachineTemplate],
    skip: &(dyn Fn(usize) -> bool + Sync),
) -> Result<Vec<TimedCell>, String> {
    let refs: Vec<&MachineTemplate> = templates.iter().collect();
    let mut consumers = grid
        .run_streamed_resume(NonZeroUsize::MIN, &refs, &CancelToken::new(), skip, |_| {
            Collector {
                last: Instant::now(),
                cells: Vec::new(),
            }
        })
        .map_err(|e: StreamError| format!("grid run failed: {e:?}"))?;
    Ok(consumers.pop().expect("one worker, one consumer").cells)
}

/// The role a grid plays in the traced run.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    /// The workload's own grid: the source of counts and cell spans.
    Workload,
    /// One cell per variant the workload grid lacks.
    Variants,
    /// A one-attempt `tiny` cell supplying stage spans only.
    Probe,
}

struct Job {
    grid: CampaignGrid,
    params: DriverParams,
    attempts: usize,
    role: Role,
}

impl Job {
    fn new(spec: &JobSpec, role: Role) -> Result<Self, String> {
        Ok(Self {
            grid: spec.to_grid()?,
            // The same parameters `JobSpec::grid_for` hands the grid.
            params: DriverParams {
                bits_per_attempt: spec.bits,
                retry: spec.retry_policy(),
                ..DriverParams::paper()
            },
            attempts: spec.attempts,
            role,
        })
    }
}

/// Everything the rounds accumulate.
#[derive(Default)]
struct Totals {
    /// Spans of the workload's own cells.
    spans: Spans,
    /// Spans of the extra variant cells; used only for a span the
    /// workload's cells never ran.
    variant_spans: Spans,
    /// Spans of the `tiny` probe cells; used only for a stage span that
    /// neither of the above ran.
    probe_spans: Spans,
    /// Workload counters, summed over every traced workload cell.
    counters: Metrics,
    workload_cells: u64,
    workload_attempts: u64,
    workload_successes: u64,
    sim_hours: f64,
    /// Untraced cell times per variant, from workload and variant cells.
    variant_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Untraced and traced wall time of the workload's own cells.
    untraced_ms: f64,
    traced_ms: f64,
    rounds: usize,
    probes: usize,
}

impl Totals {
    /// The span store a job of `role` records into.
    fn spans_for(&mut self, role: Role) -> &mut Spans {
        match role {
            Role::Workload => &mut self.spans,
            Role::Variants => &mut self.variant_spans,
            Role::Probe => &mut self.probe_spans,
        }
    }

    /// A span's samples from the first source that ran it: the
    /// workload's cells, then the variant cells on the same base
    /// machine, then (stage spans only) the probe cells.
    fn span(&self, name: &'static str) -> Result<(&'static str, &[f64]), String> {
        let mut sources = vec![("workload", &self.spans), ("variants", &self.variant_spans)];
        if PROBE_SPANS.contains(&name) {
            sources.push(("probe", &self.probe_spans));
        }
        sources
            .into_iter()
            .find_map(|(source, spans)| spans.samples.get(name).map(|xs| (source, xs.as_slice())))
            .ok_or_else(|| format!("span {name} never ran"))
    }

    fn stage_spans_ran(&self) -> bool {
        self.spans.samples.contains_key(PROBE_SPANS[0])
            || self.variant_spans.samples.contains_key(PROBE_SPANS[0])
    }
}

fn read_reference(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text.lines().map(|l| format!("{l}\n")).collect())
}

/// Fails unless every cell formats to its line of the CLI reference.
fn check_lines(cells: &[TimedCell], reference: &[String]) -> Result<(), String> {
    for cell in cells {
        let expected = reference.get(cell.index).map(String::as_str);
        if expected != Some(cell.line.as_str()) {
            return Err(format!(
                "cell {} formats to {:?}, the CLI reference has {:?}",
                cell.index, cell.line, expected
            ));
        }
    }
    Ok(())
}

fn run(args: &Args) -> Result<String, String> {
    if args.spec.fault_config().is_active() {
        return Err("the replay mirrors fault-free cells only".to_string());
    }
    let reference = read_reference(&args.reference)?;

    let workload = Job::new(&args.spec, Role::Workload)?;
    if args.cells_only {
        let templates: Vec<MachineTemplate> = workload
            .grid
            .scenarios()
            .iter()
            .map(MachineTemplate::for_scenario)
            .collect();
        let cells = run_grid(&workload.grid, &templates, &|_| false)?;
        check_lines(&cells, &reference)?;
        let ms: f64 = cells.iter().map(|c| c.ms).sum();
        return Ok(format!(
            "{{\"grid_cells_ms\": {}}}",
            json_number("grid_cells_ms", ms)?
        ));
    }
    let mut jobs = vec![workload];
    let base = args.spec.scenarios[0]
        .split('@')
        .next()
        .expect("split yields at least one item")
        .to_string();
    let present: Vec<AttackVariant> = jobs[0]
        .grid
        .scenarios()
        .iter()
        .map(|s| s.variant())
        .collect();
    let missing: Vec<String> = AttackVariant::ALL
        .iter()
        .filter(|v| !present.contains(v))
        .map(|v| match v {
            AttackVariant::VirtioMem => base.clone(),
            v => format!("{base}@{}", v.label()),
        })
        .collect();
    if !missing.is_empty() {
        let spec = JobSpec {
            scenarios: missing,
            seeds: 1,
            ..args.spec.clone()
        };
        jobs.push(Job::new(&spec, Role::Variants)?);
    }
    let probe = Job::new(
        &JobSpec {
            scenarios: vec!["tiny".to_string()],
            seeds: 1,
            attempts: 1,
            ..args.spec.clone()
        },
        Role::Probe,
    )?;

    let mut totals = Totals::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    loop {
        for job in &jobs {
            run_job(job, &mut totals, &reference)?;
        }
        totals.rounds += 1;
        if totals.probes < MAX_PROBES && !totals.stage_spans_ran() {
            run_job(&probe, &mut totals, &reference)?;
            totals.probes += 1;
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    report(&totals)
}

fn run_job(job: &Job, totals: &mut Totals, reference: &[String]) -> Result<(), String> {
    // Alternate which pass goes first, so neither always meets the
    // allocator and caches in the state the other left.
    let untraced_first = totals.rounds.is_multiple_of(2);
    let spans = totals.spans_for(job.role);
    let templates: Vec<MachineTemplate> = job
        .grid
        .scenarios()
        .iter()
        .map(|s| {
            timed(spans, "template.build_ms", || {
                MachineTemplate::for_scenario(s)
            })
            .0
        })
        .collect();
    let (untraced, traced) = if untraced_first {
        let untraced = run_grid(&job.grid, &templates, &|_| false)?;
        (untraced, traced_pass(job, &templates, spans)?)
    } else {
        let traced = traced_pass(job, &templates, spans)?;
        (run_grid(&job.grid, &templates, &|_| false)?, traced)
    };

    if job.role == Role::Workload {
        check_lines(&untraced, reference)?;
        for cell in &untraced {
            totals.spans.add("cli.cell_line_us", cell.line_us);
        }
    }
    if job.role != Role::Probe {
        for cell in &untraced {
            totals
                .variant_ms
                .entry(cell.result.variant.label())
                .or_default()
                .push(cell.ms);
        }
    }

    // Fidelity: every traced cell equals its untraced reference.
    for (index, result, metrics, ms) in traced {
        let reference = untraced
            .iter()
            .find(|c| c.index == index)
            .expect("the untraced pass runs every cell");
        if result != reference.result {
            return Err(format!(
                "traced cell {index} ({}@{}) diverged from run_attempt:\n  traced:    {:?}\n  reference: {:?}",
                result.scenario,
                result.variant.label(),
                result.stats,
                reference.result.stats
            ));
        }
        if job.role == Role::Workload {
            totals.untraced_ms += reference.ms;
            totals.traced_ms += ms;
            totals.counters.merge(&metrics);
            totals.workload_cells += 1;
            totals.workload_attempts += result.stats.attempts.len() as u64;
            totals.workload_successes += u64::from(result.stats.first_success().is_some());
            totals.sim_hours += result.stats.total_time.as_hours_f64();
        }
    }
    Ok(())
}

/// The traced pass over a job's grid: cells of the variants the replay
/// does not mirror run through the grid with a metrics tracer, the
/// others are replayed. Returns `(index, result, counters, wall ms)`.
fn traced_pass(
    job: &Job,
    templates: &[MachineTemplate],
    spans: &mut Spans,
) -> Result<Vec<(usize, CellResult, Metrics, f64)>, String> {
    let grid = &job.grid;
    let traced_grid = grid.clone().with_trace(TraceMode::Metrics);
    let mut traced = Vec::new();
    for cell in run_grid(&traced_grid, templates, &|i| {
        replayable(grid.cell_at(i).scenario.variant())
    })? {
        let mut result = cell.result;
        let metrics = result
            .trace
            .take()
            .expect("a traced grid returns sinks")
            .metrics()
            .clone();
        traced.push((cell.index, result, metrics, cell.ms));
    }
    let seeds = grid.len() / grid.scenarios().len();
    for cell in grid.cells() {
        if !replayable(cell.scenario.variant()) {
            continue;
        }
        let replayed = replay_cell(
            &cell,
            &templates[cell.index / seeds],
            &job.params,
            job.attempts,
            spans,
        )
        .map_err(|e| format!("replay of cell {} failed: {e}", cell.index))?;
        spans.add(
            "driver.cell_other_ms",
            replayed.wall_ms - replayed.covered_ms,
        );
        traced.push((
            cell.index,
            replayed.result,
            replayed.metrics,
            replayed.wall_ms,
        ));
    }
    Ok(traced)
}

fn report(t: &Totals) -> Result<String, String> {
    if t.workload_cells == 0 || t.workload_attempts == 0 {
        return Err("no workload cell ran".to_string());
    }
    let cells = t.workload_cells as f64;
    let attempts = t.workload_attempts as f64;
    let count = |c: Counter| t.counters.get(c) as f64;
    let hammer_calls = count(Counter::DramHammerCalls);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut samples: Vec<String> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    let mut span = |metrics: &mut Vec<(String, f64)>, name: &'static str| {
        let (source, xs) = t.span(name)?;
        metrics.push((name.into(), median(xs)));
        samples.push(format!("\"{name}\": {}", xs.len()));
        sources.push(format!("\"{name}\": \"{source}\""));
        Ok::<(), String>(())
    };
    span(&mut metrics, "template.build_ms")?;
    span(&mut metrics, "template.instantiate_ms")?;
    span(&mut metrics, "hv.create_vm_ms")?;
    span(&mut metrics, "hv.destroy_vm_ms")?;
    metrics.extend([
        (
            "hv.vm_reboots_per_cell".into(),
            count(Counter::VmReboots) / cells,
        ),
        (
            "hv.viommu_maps_per_attempt".into(),
            count(Counter::ViommuMaps) / attempts,
        ),
        (
            "hv.ept_splits_per_attempt".into(),
            count(Counter::EptSplits) / attempts,
        ),
        (
            "buddy.allocs_per_cell".into(),
            count(Counter::BuddyAllocs) / cells,
        ),
        (
            "buddy.splits_per_cell".into(),
            count(Counter::BuddySplits) / cells,
        ),
        (
            "buddy.merges_per_cell".into(),
            count(Counter::BuddyMerges) / cells,
        ),
        ("dram.hammer_calls_per_cell".into(), hammer_calls / cells),
        (
            "dram.plan_compiles_per_cell".into(),
            count(Counter::DramPlanCompiles) / cells,
        ),
        // Warm-template cells of machines without exploitable flips
        // never hammer; their ratio reads 0 hits, and
        // `dram.hammer_calls_per_cell` shows the empty base.
        (
            "dram.plan_hit_ratio".into(),
            if hammer_calls > 0.0 {
                count(Counter::DramPlanHits) / hammer_calls
            } else {
                0.0
            },
        ),
        (
            "dram.activations_per_cell".into(),
            count(Counter::DramActivations) / cells,
        ),
    ]);
    span(&mut metrics, "profile.ms_per_cell")?;
    for name in PROBE_SPANS {
        span(&mut metrics, name)?;
    }
    for name in [
        "driver.relocate_ms",
        "driver.attempt_ms",
        "driver.cell_other_ms",
    ] {
        span(&mut metrics, name)?;
    }
    for v in AttackVariant::ALL {
        let xs = t
            .variant_ms
            .get(v.label())
            .ok_or_else(|| format!("no {} cell ran", v.label()))?;
        metrics.push((format!("variant.{}.cell_ms", v.label()), median(xs)));
    }
    span(&mut metrics, "cli.cell_line_us")?;
    metrics.push((
        "trace.overhead_frac".into(),
        t.traced_ms / t.untraced_ms - 1.0,
    ));
    metrics.push(("sim.attempts_per_cell".into(), attempts / cells));
    metrics.push((
        "sim.successes_per_job".into(),
        t.workload_successes as f64 / t.rounds as f64,
    ));
    metrics.push(("sim.hours_per_cell".into(), t.sim_hours / cells));

    let body = metrics
        .iter()
        .map(|(name, value)| Ok(format!("\"{name}\": {}", json_number(name, *value)?)))
        .collect::<Result<Vec<String>, String>>()?;
    Ok(format!(
        "{{\"metrics\": {{{}}}, \"samples\": {{{}}}, \"span_sources\": {{{}}}, \"rounds\": {}, \
         \"workload_cells\": {}, \"probe_cells\": {}, \"fidelity\": \"ok\"}}",
        body.join(", "),
        samples.join(", "),
        sources.join(", "),
        t.rounds,
        t.workload_cells,
        t.probes,
    ))
}

/// A metric as a JSON number; JSON has no NaN or infinity, and a metric
/// that is not finite is an error, not a value.
fn json_number(name: &str, x: f64) -> Result<String, String> {
    if x.is_finite() {
        Ok(format!("{x}"))
    } else {
        Err(format!("{name} is {x}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_span_comes_from_the_first_source_that_ran_it() {
        let mut t = Totals::default();
        t.variant_spans.add("hv.create_vm_ms", 2.0);
        t.probe_spans.add("hv.create_vm_ms", 9.0);
        t.probe_spans.add("steering.release_ms", 3.0);
        assert_eq!(t.span("hv.create_vm_ms").unwrap(), ("variants", &[2.0][..]));
        t.spans.add("hv.create_vm_ms", 1.0);
        assert_eq!(t.span("hv.create_vm_ms").unwrap(), ("workload", &[1.0][..]));
        assert_eq!(
            t.span("steering.release_ms").unwrap(),
            ("probe", &[3.0][..])
        );
    }

    #[test]
    fn probe_cells_stand_in_for_stage_spans_only() {
        let mut t = Totals::default();
        t.probe_spans.add("profile.ms_per_cell", 5.0);
        assert!(t.span("profile.ms_per_cell").is_err());
        assert!(t.span("driver.attempt_ms").is_err());
    }

    #[test]
    fn a_metric_that_is_not_finite_is_an_error() {
        assert_eq!(json_number("x", 0.5).unwrap(), "0.5");
        assert!(json_number("x", f64::NAN).is_err());
        assert!(json_number("x", f64::INFINITY).is_err());
    }
}
