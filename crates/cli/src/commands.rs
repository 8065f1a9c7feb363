//! Subcommand implementations.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hh_dram::dramdig::recover;
use hh_dram::timing::{AccessTiming, TimingProbe};
use hh_server::journal::Journal;
use hh_sim::addr::HUGE_PAGE_SIZE;
use hh_sim::clock::SimDuration;
use hh_sim::json::{self, Layout, ToJson};
use hh_sim::Gpa;
use hh_trace::{Counter, Metrics, Stage, TraceMode, TraceSink};
use hyperhammer::driver::{AttackDriver, AttemptOutcome, DriverParams};
use hyperhammer::jobspec::job_spec_to_json;
use hyperhammer::machine::{AttackVariant, Scenario};
use hyperhammer::parallel::{
    resolve_jobs, CampaignGrid, CancelToken, CellConsumer, CellResult, StreamError,
};
use hyperhammer::profile::{ProfileParams, Profiler};
use hyperhammer::steering::PageSteering;
use hyperhammer::streamref::{CampaignAggregate, GridWriter, VariantRow};
use hyperhammer::{JobSpec, MachineTemplate};

use crate::opts::{ClientAction, Command, Options};
use crate::output::{
    self, AttackOut, AttackVariantOut, CampaignCellOut, ProfileOut, ReconOut, ScenarioOut,
    SteerOut, TraceEventOut, TraceStageOut,
};

/// Dispatches the parsed command.
///
/// # Errors
///
/// Returns a displayable error for any failure in the underlying stack.
pub fn run(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    match &opts.command {
        Command::Recon => recon(opts),
        Command::Profile { stop_after } => profile(opts, *stop_after),
        Command::Steer { blocks, spray_gib } => steer(opts, *blocks, *spray_gib),
        Command::Attack { attempts, bits } => attack(opts, *attempts, *bits),
        Command::Campaign {
            spec,
            checkpoint,
            resume,
            stop_after_cells,
        } => {
            let journal = match (checkpoint, resume) {
                (_, Some(path)) => JournalMode::Resume(path),
                (Some(path), None) => JournalMode::Create(path),
                (None, None) => JournalMode::Off,
            };
            campaign(opts, spec, journal, *stop_after_cells)
        }
        Command::Trace { spec } => trace(opts, spec),
        Command::Scenarios => {
            scenarios_cmd(opts);
            Ok(())
        }
        Command::Serve { addr, spool } => serve(addr, spool.as_deref()),
        Command::Client { addr, action } => client(opts, addr, action),
        Command::Analyse => {
            analyse(opts);
            Ok(())
        }
        Command::BenchDiff {
            baseline,
            current,
            tolerance,
        } => bench_diff(opts, baseline, current, *tolerance),
    }
}

fn bench_diff(
    opts: &Options,
    baseline: &str,
    current: &str,
    tolerance: f64,
) -> Result<(), Box<dyn std::error::Error>> {
    use hh_bench::baseline::{diff, BenchReport, DiffStatus};

    let base = BenchReport::load(std::path::Path::new(baseline))?;
    let cur = BenchReport::load(std::path::Path::new(current))?;
    let report = diff(&base, &cur, tolerance)?;

    let rows = &report.entries;
    if opts.json {
        for row in rows {
            println!("{}", output::to_json_line(row));
        }
        if report.has_improvements() {
            // The hint goes to stderr so JSON consumers see only rows
            // on stdout.
            eprintln!(
                "note: improvements beyond tolerance understate the baseline — \
                 consider re-baselining (scripts/bench_diff.sh --update)"
            );
        }
    } else {
        let fmt_ns = |ns: Option<f64>| {
            ns.map_or_else(
                || "-".to_string(),
                |ns| hh_bench::harness::fmt_duration(std::time::Duration::from_nanos(ns as u64)),
            )
        };
        let name_w = rows
            .iter()
            .map(|r| r.name.len())
            .chain(std::iter::once("bench".len()))
            .max()
            .unwrap_or(5);
        println!(
            "{:<name_w$}  {:>10}  {:>10}  {:>7}  {:>7}  status",
            "bench", "baseline", "current", "ratio", "rss"
        );
        for r in rows {
            let fmt_ratio =
                |x: Option<f64>| x.map_or_else(|| "-".to_string(), |x| format!("{x:.2}x"));
            println!(
                "{:<name_w$}  {:>10}  {:>10}  {:>7}  {:>7}  {}",
                r.name,
                fmt_ns(r.baseline_ns),
                fmt_ns(r.current_ns),
                fmt_ratio(r.ratio),
                fmt_ratio(r.rss_ratio),
                r.status.name()
            );
        }
        println!(
            "tolerance ±{:.0}%: {} ok, {} improved, {} new, {} regression(s), {} missing",
            tolerance * 100.0,
            report.count(DiffStatus::Ok),
            report.count(DiffStatus::Improved),
            report.count(DiffStatus::New),
            report.count(DiffStatus::Regression),
            report.count(DiffStatus::Missing),
        );
        if report.has_improvements() {
            println!(
                "note: improvements beyond tolerance understate the baseline — \
                 consider re-baselining (scripts/bench_diff.sh --update)"
            );
        }
    }

    if report.has_failures() {
        return Err(format!(
            "bench regression: {} regression(s), {} missing bench(es) vs {baseline}",
            report.count(DiffStatus::Regression),
            report.count(DiffStatus::Missing)
        )
        .into());
    }
    Ok(())
}

fn recon(opts: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let geometry = opts.scenario.host_config().dimm.geometry.clone();
    let probe = TimingProbe::new(geometry.clone(), AccessTiming::ddr4_2666());
    let map = recover(&probe)?;
    let out = ReconOut {
        scenario: opts.scenario.name.to_string(),
        bank_masks: map.bank_fn.masks().to_vec(),
        banks: map.bank_fn.bank_count(),
        equivalent: map.bank_fn.equivalent_to(geometry.bank_fn()),
        measurements: map.measurements,
        row_bits: map.definite_row_bits.clone(),
    };
    output::emit(opts.json, &out, || {
        println!("scenario {}: bank function {}", out.scenario, map.bank_fn);
        println!(
            "{} banks | equivalent to ground truth: {} | {} measurements",
            out.banks, out.equivalent, out.measurements
        );
        println!("row bits: {:?}", out.row_bits);
    });
    Ok(())
}

fn profile(opts: &Options, stop_after: Option<usize>) -> Result<(), Box<dyn std::error::Error>> {
    let mut host = opts.scenario.boot_host();
    let mut vm = host.create_vm(opts.scenario.vm_config())?;
    let params = ProfileParams {
        stop_after_exploitable: stop_after,
        ..opts.scenario.profile_params()
    };
    let report = Profiler::new(params.clone()).run(&mut host, &mut vm)?;
    let out = ProfileOut {
        scenario: opts.scenario.name.to_string(),
        sim_hours: report.duration.as_hours_f64(),
        total: report.total(),
        one_to_zero: report.one_to_zero(),
        zero_to_one: report.zero_to_one(),
        stable: report.stable(),
        exploitable: report.exploitable(params.host_mem, &vm).len(),
        plan_hits: report.plan_hits,
        plan_misses: report.plan_misses,
    };
    output::emit(opts.json, &out, || {
        println!(
            "{}: {} flips in {:.1} simulated hours ({} 1->0, {} 0->1, {} stable, {} exploitable)",
            out.scenario,
            out.total,
            out.sim_hours,
            out.one_to_zero,
            out.zero_to_one,
            out.stable,
            out.exploitable
        );
        println!(
            "plan cache: {} hits / {} compiles",
            out.plan_hits, out.plan_misses
        );
    });
    Ok(())
}

fn steer(opts: &Options, blocks: u64, spray_gib: u64) -> Result<(), Box<dyn std::error::Error>> {
    let mut host = opts.scenario.boot_host();
    let mut vm = host.create_vm(opts.scenario.vm_config())?;
    let steering = PageSteering::new(opts.scenario.steering_params());

    let noise_before = host.noise_pages();
    steering.exhaust_noise(&mut host, &mut vm)?;
    let noise_after = host.noise_pages();
    host.reset_released_log();

    let region = vm.virtio_mem();
    let total_blocks = region.region_size() / HUGE_PAGE_SIZE;
    let victims: Vec<Gpa> = (0..blocks.min(total_blocks))
        .map(|i| {
            region
                .region_base()
                .add((i * (total_blocks / blocks.max(1)).max(1) % total_blocks) * HUGE_PAGE_SIZE)
        })
        .collect();
    steering.release_hugepages(&mut host, &mut vm, &victims)?;
    steering.spray_ept(&mut host, &mut vm, spray_gib << 30)?;
    let reuse = PageSteering::reuse_stats(&host, &vm);

    let out = SteerOut {
        scenario: opts.scenario.name.to_string(),
        noise_before,
        noise_after,
        released_pages: reuse.released_pages,
        ept_pages: reuse.ept_pages,
        reused_pages: reuse.reused_pages,
        r_n: reuse.r_n(),
        r_e: reuse.r_e(),
    };
    output::emit(opts.json, &out, || {
        println!(
            "{}: noise {} -> {} | N = {} E = {} R = {} (R_N {:.1}%, R_E {:.1}%)",
            out.scenario,
            out.noise_before,
            out.noise_after,
            out.released_pages,
            out.ept_pages,
            out.reused_pages,
            100.0 * out.r_n,
            100.0 * out.r_e
        );
    });
    Ok(())
}

fn attack(opts: &Options, attempts: usize, bits: usize) -> Result<(), Box<dyn std::error::Error>> {
    let mut host = opts.scenario.boot_host();
    let driver = AttackDriver::new(DriverParams {
        bits_per_attempt: bits,
        ..DriverParams::paper()
    });
    let mut vm = host.create_vm(opts.scenario.vm_config())?;
    let catalog = driver.profile_and_catalog(&mut host, &mut vm, opts.scenario.profile_params())?;
    vm.destroy(&mut host);

    let stats = driver.campaign(&opts.scenario, &mut host, &catalog, attempts)?;
    let escape_read = stats.attempts.iter().find_map(|a| match &a.outcome {
        AttemptOutcome::Success(proof) => Some(proof.value_read),
        _ => None,
    });
    let out = AttackOut {
        scenario: opts.scenario.name.to_string(),
        attempts: stats.attempts.len(),
        first_success: stats.first_success(),
        avg_attempt_mins: stats.avg_attempt_mins(),
        hours_to_success: stats.time_to_first_success().map(|d| d.as_hours_f64()),
        escape_read,
    };
    output::emit(opts.json, &out, || {
        match out.first_success {
            Some(n) => println!(
                "{}: ESCAPED on attempt {n} after {:.1} simulated hours (read {:#x})",
                out.scenario,
                out.hours_to_success.unwrap_or(0.0),
                out.escape_read.unwrap_or(0)
            ),
            None => println!(
                "{}: no escape in {} attempts (avg {:.1} simulated mins/attempt)",
                out.scenario, out.attempts, out.avg_attempt_mins
            ),
        };
    });
    Ok(())
}

/// Where a `campaign` run's completed cells are journaled:
/// `--checkpoint` creates the journal, `--resume` reopens one.
#[derive(Clone, Copy)]
enum JournalMode<'a> {
    Off,
    Create(&'a str),
    Resume(&'a str),
}

/// The `campaign` command — one body for every output mode. Cells run
/// through [`CampaignGrid::run_streamed_resume`] into per-worker
/// [`CampaignSink`]s, which send each finished cell's line (and its
/// `--trace` lines) through a [`GridWriter`]: to stdout under `--json`,
/// to `DIR/cells.ndjson` under `--stream-out`, or into a held buffer
/// when checkpointing. Every mode prints bytes identical to an
/// uninterrupted serial run for any `--jobs` value.
fn campaign(
    opts: &Options,
    cli_spec: &JobSpec,
    journal_mode: JournalMode<'_>,
    stop_after: Option<usize>,
) -> Result<(), Box<dyn std::error::Error>> {
    // On resume the grid is rebuilt from the spec recorded in the
    // journal; grid flags from the current command line are ignored so
    // the resumed cells can never diverge from the checkpointed ones.
    let (spec, journal, resumed_lines) = match journal_mode {
        JournalMode::Resume(path) => {
            let (journal, recovered) =
                Journal::resume(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
            if recovered.torn {
                eprintln!("checkpoint: ignoring torn final record in {path}");
            }
            (recovered.spec, Some(journal), recovered.lines)
        }
        JournalMode::Create(path) => {
            // The worker count belongs to the run, not the grid: the
            // header records `"jobs": null`.
            let spec = JobSpec {
                jobs: None,
                ..cli_spec.clone()
            };
            let journal = Journal::create(Path::new(path), &spec)?;
            (spec, Some(journal), BTreeMap::new())
        }
        JournalMode::Off => (cli_spec.clone(), None, BTreeMap::new()),
    };
    // --trace turns on full event recording for every cell; otherwise the
    // campaign runs untraced (the fast path the benchmarks measure).
    let mode = if opts.trace.is_some() {
        TraceMode::Full
    } else {
        TraceMode::Off
    };
    let grid = campaign_grid(opts, &spec, mode)?;
    let jobs = resolve_jobs(cli_spec.jobs.or(spec.jobs));
    let resumed = resumed_lines.len();
    if !opts.json {
        match journal_mode {
            JournalMode::Create(path) | JournalMode::Resume(path) => println!(
                "campaign: {} cells ({resumed} checkpointed) on {jobs} workers, checkpoint {path}",
                grid.len()
            ),
            JournalMode::Off => println!(
                "campaign: {} cells ({} scenarios x {} seeds) on {jobs} workers{}",
                grid.len(),
                spec.scenarios.len(),
                spec.seeds,
                if opts.stream_out.is_some() {
                    " (streaming)"
                } else {
                    ""
                }
            ),
        }
    }

    // Where the cell lines go. A checkpointed run holds them, resumed
    // lines first, until the grid completes, so a stopped run prints none.
    let cells_path = opts
        .stream_out
        .as_ref()
        .map(|dir| Path::new(dir).join("cells.ndjson"));
    let checkpointed = journal.is_some();
    let lines = if checkpointed {
        LineOut::Held(Vec::new())
    } else if let Some(path) = &cells_path {
        std::fs::create_dir_all(path.parent().expect("joined onto a directory"))?;
        LineOut::Direct(Box::new(BufWriter::new(File::create(path)?)))
    } else if opts.json {
        LineOut::Direct(Box::new(BufWriter::new(std::io::stdout())))
    } else {
        LineOut::Direct(Box::new(std::io::sink()))
    };
    let mut cells = GridWriter::new(lines);
    for (&index, line) in &resumed_lines {
        cells.put(index, line.clone())?;
    }

    let run = CampaignRun {
        journal: journal.map(Mutex::new),
        cells: Mutex::new(cells),
        trace: trace_writer(opts)?,
        table: !opts.json && opts.stream_out.is_none() && !checkpointed,
        completed: AtomicUsize::new(0),
        stop_after,
        cancel: CancelToken::new(),
    };
    let templates = grid.scenario_templates();
    let refs: Vec<&MachineTemplate> = templates.iter().collect();
    let outcome = grid.run_streamed_resume(
        jobs,
        &refs,
        &run.cancel,
        &|index| resumed_lines.contains_key(&index),
        |_| CampaignSink::new(&run),
    );
    let sinks = match (outcome, journal_mode) {
        (Ok(sinks), _) => sinks,
        // --stop-after-cells cancels on purpose: the partial run is the
        // expected outcome, announced on stderr so stdout never carries
        // an incomplete NDJSON stream.
        (Err(StreamError::Cancelled), JournalMode::Create(path) | JournalMode::Resume(path))
            if stop_after.is_some() =>
        {
            let newly = run.completed.load(Ordering::SeqCst);
            eprintln!(
                "campaign: stopped after {newly} new cells ({}/{} checkpointed) — \
                 finish with --resume {path}",
                resumed + newly,
                grid.len()
            );
            return Ok(());
        }
        // The lines of the cells before the failed one are already
        // written; dropping the writers flushes them.
        (Err(e), _) => return Err(e.into()),
    };

    // End of the run: finish the writers, then the reports.
    let mut aggregate = CampaignAggregate::default();
    let mut rows = Vec::new();
    let mut events = 0;
    for sink in sinks {
        aggregate.merge(&sink.aggregate);
        rows.extend(sink.rows);
        events += sink.events;
    }
    let lines = run
        .cells
        .into_inner()
        .expect("cell writer poisoned")
        .finish(grid.len())?;
    if let Some(trace) = run.trace {
        trace
            .into_inner()
            .expect("trace writer poisoned")
            .finish(grid.len())?;
    }
    // `aggregate` holds this run's cells; the resumed ones count from
    // their journal records.
    for line in resumed_lines.values() {
        observe_journal_line(&mut aggregate, line)?;
    }
    let variant_rows = aggregate.variant_rows();

    if opts.json {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        match (lines, &cells_path) {
            (LineOut::Held(held), _) => out.write_all(&held)?,
            // Replay the merged file so stdout carries the same NDJSON
            // bytes a plain `--json` run prints.
            (_, Some(path)) => {
                std::io::copy(&mut File::open(path)?, &mut out)?;
            }
            // Already written, cell by cell.
            (LineOut::Direct(_), None) => {}
        }
        out.flush()?;
        print_variant_report(&variant_rows, true);
    } else if checkpointed {
        println!(
            "campaign: complete — {} cells ({} run now, {resumed} resumed)",
            grid.len(),
            grid.len() - resumed
        );
        print_variant_report(&variant_rows, false);
    } else if let Some(path) = &cells_path {
        print_streamed_summary(opts, &aggregate);
        print_variant_report(&variant_rows, false);
        println!("results: {}", path.display());
    } else {
        if let Some(path) = &opts.trace {
            println!("trace: wrote {events} events to {path}");
        }
        rows.sort_unstable_by_key(|(index, _)| *index);
        print_cell_table(rows.iter().map(|(_, out)| out));
        print_variant_report(&variant_rows, false);
    }
    report_peak_rss();
    Ok(())
}

/// Where a campaign's cell lines go: held in memory until a
/// checkpointed grid completes, or written straight through.
enum LineOut {
    Held(Vec<u8>),
    Direct(Box<dyn Write + Send>),
}

impl Write for LineOut {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            LineOut::Held(held) => held.write(buf),
            LineOut::Direct(out) => out.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            LineOut::Held(_) => Ok(()),
            LineOut::Direct(out) => out.flush(),
        }
    }
}

/// The `--trace PATH` file, written in grid order as cells finish.
type TraceWriter = Mutex<GridWriter<BufWriter<File>>>;

fn trace_writer(opts: &Options) -> std::io::Result<Option<TraceWriter>> {
    opts.trace
        .as_ref()
        .map(|path| {
            Ok(Mutex::new(GridWriter::new(BufWriter::new(File::create(
                path,
            )?))))
        })
        .transpose()
}

/// Sends cell `index`'s trace-event lines — the bytes the `--trace`
/// file holds for the cell (none for an untraced cell) — through
/// `writer`, one line at a time; returns the cell's event count.
fn put_trace(writer: &TraceWriter, index: usize, result: &CellResult) -> std::io::Result<usize> {
    let (cell, events) = result
        .trace
        .as_ref()
        .map_or((0, &[][..]), |sink| (sink.cell(), sink.events()));
    writer
        .lock()
        .expect("trace writer poisoned")
        .put_with(index, |out| {
            let mut line = String::new();
            for &event in events {
                line.clear();
                TraceEventOut { cell, event }.write_json(&mut line, Layout::Line);
                line.push('\n');
                out.write_all(line.as_bytes())?;
            }
            Ok(())
        })?;
    Ok(events.len())
}

/// Worker-independent state of one `campaign` run, shared by every
/// worker's [`CampaignSink`].
struct CampaignRun {
    /// The `--checkpoint`/`--resume` journal.
    journal: Option<Mutex<Journal>>,
    /// The cell lines, in grid order.
    cells: Mutex<GridWriter<LineOut>>,
    /// The `--trace` event lines, in grid order.
    trace: Option<TraceWriter>,
    /// Whether the human table is printed; its column widths need every
    /// cell's row.
    table: bool,
    /// Cells newly completed by this run (resumed cells not included).
    completed: AtomicUsize,
    /// `--stop-after-cells`.
    stop_after: Option<usize>,
    cancel: CancelToken,
}

/// The `campaign` consumer: formats each finished cell's line once,
/// folds the cell into the worker's [`CampaignAggregate`], appends the
/// line to the journal when checkpointing, and sends it (and the cell's
/// trace lines) through the run's grid-order writers.
struct CampaignSink<'a> {
    run: &'a CampaignRun,
    aggregate: CampaignAggregate,
    /// The human table's rows, by grid index.
    rows: Vec<(usize, CampaignCellOut)>,
    /// Trace events written.
    events: usize,
}

impl<'a> CampaignSink<'a> {
    fn new(run: &'a CampaignRun) -> Self {
        Self {
            run,
            aggregate: CampaignAggregate::default(),
            rows: Vec::new(),
            events: 0,
        }
    }
}

impl CellConsumer for CampaignSink<'_> {
    fn consume(
        &mut self,
        index: usize,
        mut result: CellResult,
    ) -> std::io::Result<Option<TraceSink>> {
        self.aggregate.observe(&result);
        let mut line = String::new();
        campaign_cell_line(&result, &mut line);
        if let Some(journal) = &self.run.journal {
            journal
                .lock()
                .expect("journal poisoned")
                .append(index, &line)?;
        }
        self.run
            .cells
            .lock()
            .expect("cell writer poisoned")
            .put(index, line)?;
        if let Some(trace) = &self.run.trace {
            self.events += put_trace(trace, index, &result)?;
        }
        if self.run.table {
            self.rows.push((index, cell_out(&result)));
        }
        let newly = self.run.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if self.run.stop_after.is_some_and(|k| newly >= k) {
            self.run.cancel.cancel();
        }
        Ok(result.trace.take())
    }
}

/// The human result table, one row per cell in grid order.
fn print_cell_table<'a>(cells: impl Iterator<Item = &'a CampaignCellOut>) {
    use hh_bench::harness::{fit_widths, header, row};
    let names = [
        "scenario", "seed", "attempts", "first ok", "avg mins", "hours",
    ];
    let rows: Vec<Vec<String>> = cells
        .map(|c| {
            vec![
                c.scenario.clone(),
                format!("{:#x}", c.seed),
                c.attempts.to_string(),
                c.first_success
                    .map_or_else(|| "-".into(), |n| n.to_string()),
                format!("{:.1}", c.avg_attempt_mins),
                c.hours_to_success
                    .map_or_else(|| "-".into(), |h| format!("{h:.1}")),
            ]
        })
        .collect();
    let min_widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
    let widths = fit_widths(&min_widths, &rows);
    println!("{}", header(&names, &widths));
    for cells in &rows {
        println!("{}", row(cells, &widths));
    }
}

/// The `--stream-out` human summary: aggregate quantiles instead of the
/// per-cell table.
fn print_streamed_summary(opts: &Options, aggregate: &CampaignAggregate) {
    let mins = |nanos: f64| nanos / 60e9;
    println!(
        "streamed: {} cells, {} succeeded, {} attempts ({} aborted)",
        aggregate.cells, aggregate.succeeded, aggregate.attempts, aggregate.aborted_attempts
    );
    println!(
        "catalog bits: mean {:.1}, p50 <= {}, p95 <= {}",
        aggregate.catalog_bits.mean(),
        aggregate.catalog_bits.quantile(0.5),
        aggregate.catalog_bits.quantile(0.95)
    );
    println!(
        "attempt mins: mean {:.2}, p50 <= {:.2}, p95 <= {:.2}",
        mins(aggregate.attempt_nanos.mean()),
        mins(aggregate.attempt_nanos.quantile(0.5) as f64),
        mins(aggregate.attempt_nanos.quantile(0.95) as f64)
    );
    if aggregate.success_nanos.count() > 0 {
        println!(
            "time to success (hours): mean {:.2}, p95 <= {:.2}",
            aggregate.success_nanos.mean() / 3600e9,
            aggregate.success_nanos.quantile(0.95) as f64 / 3600e9
        );
    }
    if let Some(path) = &opts.trace {
        for stage in Stage::ALL {
            let sketch = &aggregate.stage_nanos[stage.index()];
            if sketch.count() > 0 {
                println!(
                    "stage {}: mean {:.3} ms/cell, p95 <= {:.3} ms",
                    stage.name(),
                    sketch.mean() / 1e6,
                    sketch.quantile(0.95) as f64 / 1e6
                );
            }
        }
        println!("trace: merged stream to {path}");
    }
}

/// Folds a resumed cell's journal record into the per-variant rollup:
/// the variant from the scenario's `@` suffix, success from
/// `first_success`, and `attempts`.
fn observe_journal_line(rollup: &mut CampaignAggregate, line: &str) -> Result<(), String> {
    let record = hh_sim::json::parse(line).map_err(|e| format!("journal record: {e}"))?;
    let field = |key: &str| record.get(key).ok_or(format!("journal record lacks {key}"));
    let scenario = field("scenario")?
        .as_str()
        .ok_or("journal scenario is not a string")?;
    let variant = match scenario.split_once('@') {
        Some((_, label)) => AttackVariant::parse(label)?,
        None => AttackVariant::default(),
    };
    let v = variant.index();
    rollup.variant_cells[v] += 1;
    if field("first_success")?.as_u64().is_some() {
        rollup.variant_succeeded[v] += 1;
    }
    rollup.variant_attempts[v] += field("attempts")?
        .as_u64()
        .ok_or("journal attempts is not a count")?;
    Ok(())
}

/// The cell's display name: bare for the default virtio-mem variant
/// (keeping single-variant output byte-identical to earlier revisions),
/// `name@variant` otherwise.
fn qualified_scenario(r: &CellResult) -> String {
    if r.variant == AttackVariant::default() {
        r.scenario.to_string()
    } else {
        format!("{}@{}", r.scenario, r.variant.label())
    }
}

/// The per-cell campaign record — one NDJSON line of `--json` output.
fn cell_out(r: &CellResult) -> CampaignCellOut {
    CampaignCellOut {
        scenario: qualified_scenario(r),
        seed: r.seed,
        attempts: r.stats.attempts.len(),
        first_success: r.stats.first_success(),
        avg_attempt_mins: r.stats.avg_attempt_mins(),
        hours_to_success: r.stats.time_to_first_success().map(|d| d.as_hours_f64()),
    }
}

/// Appends one cell's NDJSON record line — the exact bytes `campaign
/// --json` prints for the cell, so the campaign server, which injects
/// this very function, stays byte-identical to it.
pub fn campaign_cell_line(result: &CellResult, out: &mut String) {
    cell_out(result).write_json(out, Layout::Line);
    out.push('\n');
}

/// Prints the cross-variant comparison report. Single-variant grids
/// (the common case, and everything pre-existing CI byte-compares)
/// print nothing, so their output is unchanged.
fn print_variant_report(rows: &[VariantRow], json: bool) {
    if rows.len() < 2 {
        return;
    }
    if json {
        for row in rows {
            println!("{}", output::to_json_line(row));
        }
        return;
    }
    println!();
    println!("variant comparison:");
    for row in rows {
        println!(
            "  {:>10}: {}/{} cells succeeded ({:.0}% over {} attempts)",
            row.variant.label(),
            row.succeeded,
            row.cells,
            row.success_rate() * 100.0,
            row.attempts
        );
    }
}

/// Builds the grid `campaign` and `trace` run: the spec's grid, with the
/// CLI-only `--quarantine` countermeasure applied to every row.
pub fn campaign_grid(
    opts: &Options,
    spec: &JobSpec,
    trace: TraceMode,
) -> Result<CampaignGrid, String> {
    let grid = spec.to_grid()?;
    let grid = if opts.quarantine {
        grid.with_quarantine()
    } else {
        grid
    };
    Ok(grid.with_trace(trace))
}

/// Reports the process's peak RSS on stderr (keeping stdout
/// byte-comparable across runs); silent where procfs is unavailable.
fn report_peak_rss() {
    if let Some(kib) = hh_sim::mem::peak_rss_kib() {
        eprintln!("campaign: peak RSS {kib} KiB");
    }
}

fn trace(opts: &Options, spec: &JobSpec) -> Result<(), Box<dyn std::error::Error>> {
    // Metrics stay cheap; the full event stream is only recorded when the
    // caller asked for an NDJSON file to put it in.
    let mode = if opts.trace.is_some() {
        TraceMode::Full
    } else {
        TraceMode::Metrics
    };
    let grid = campaign_grid(opts, spec, mode)?;
    let jobs = resolve_jobs(spec.jobs);
    if !opts.json {
        println!(
            "trace: {} cells ({} scenarios x {} seeds) on {} workers",
            grid.len(),
            spec.scenarios.len(),
            spec.seeds,
            jobs
        );
    }
    let writer = trace_writer(opts)?;
    let templates = grid.scenario_templates();
    let refs: Vec<&MachineTemplate> = templates.iter().collect();
    let sinks = grid.run_streamed_resume(jobs, &refs, &CancelToken::new(), &|_| false, |_| {
        MetricsSink {
            metrics: Metrics::default(),
            trace: writer.as_ref(),
            events: 0,
        }
    })?;
    // Merge the per-worker metrics: element-wise sums, so the totals
    // are identical for every --jobs value.
    let mut merged = Metrics::default();
    let mut events = 0;
    for sink in &sinks {
        merged.merge(&sink.metrics);
        events += sink.events;
    }
    if let (Some(writer), Some(path)) = (writer, &opts.trace) {
        writer
            .into_inner()
            .expect("trace writer poisoned")
            .finish(grid.len())?;
        if !opts.json {
            println!("trace: wrote {events} events to {path}");
        }
    }

    // Only stages some cell entered: a grid's variants skip the
    // other variants' stages, and empty rows carry no information.
    let entered: Vec<Stage> = Stage::ALL
        .into_iter()
        .filter(|&stage| merged.stage_entries(stage) > 0)
        .collect();
    let stages: Vec<TraceStageOut> = entered
        .iter()
        .map(|&stage| TraceStageOut {
            stage: stage.name().to_string(),
            entries: merged.stage_entries(stage),
            sim_secs: merged.stage_nanos(stage) as f64 / 1e9,
            activations: merged.stage_activations(stage),
        })
        .collect();
    // One field per counter, in declaration order.
    let counters: Vec<(&str, u64)> = Counter::ALL
        .iter()
        .map(|&c| (c.name(), merged.get(c)))
        .collect();

    if opts.json {
        // NDJSON: one record per stage, then the counter totals.
        for stage in &stages {
            println!("{}", output::to_json_line(stage));
        }
        let totals = json::object(Layout::Line, |obj| {
            for (name, value) in &counters {
                obj.number(name, value);
            }
        });
        println!("{totals}");
        return Ok(());
    }

    use hh_bench::harness::{fit_widths, header, row};
    let names = ["stage", "entries", "sim time", "activations"];
    let rows: Vec<Vec<String>> = entered
        .iter()
        .map(|&stage| {
            vec![
                stage.name().to_string(),
                merged.stage_entries(stage).to_string(),
                SimDuration::from_nanos(merged.stage_nanos(stage)).to_string(),
                merged.stage_activations(stage).to_string(),
            ]
        })
        .collect();
    let min_widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
    let widths = fit_widths(&min_widths, &rows);
    println!("{}", header(&names, &widths));
    for cells in &rows {
        println!("{}", row(cells, &widths));
    }
    println!();
    println!("counters:");
    for (name, value) in &counters {
        println!("  {name:<24} {value}");
    }
    Ok(())
}

/// The `trace` consumer: folds each cell's metrics into the worker's
/// total and sends its event lines through the `--trace` writer.
struct MetricsSink<'a> {
    metrics: Metrics,
    trace: Option<&'a TraceWriter>,
    /// Trace events written.
    events: usize,
}

impl CellConsumer for MetricsSink<'_> {
    fn consume(
        &mut self,
        index: usize,
        mut result: CellResult,
    ) -> std::io::Result<Option<TraceSink>> {
        if let Some(sink) = &result.trace {
            self.metrics.merge(sink.metrics());
        }
        if let Some(trace) = self.trace {
            self.events += put_trace(trace, index, &result)?;
        }
        Ok(result.trace.take())
    }
}

/// Lists the registered scenario presets — the names `--scenario(s)`
/// and server job specs accept.
fn scenarios_cmd(opts: &Options) {
    let rows: Vec<ScenarioOut> = Scenario::registry()
        .iter()
        .map(|info| ScenarioOut {
            name: info.name.to_string(),
            label: info.label.to_string(),
            description: info.description.to_string(),
        })
        .collect();
    let variants: Vec<AttackVariantOut> = AttackVariant::ALL
        .iter()
        .map(|v| AttackVariantOut {
            variant: v.label().to_string(),
            description: v.description().to_string(),
        })
        .collect();
    if opts.json {
        for row in &rows {
            println!("{}", output::to_json_line(row));
        }
        for row in &variants {
            println!("{}", output::to_json_line(row));
        }
        return;
    }
    let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(5).max(5);
    println!("{:<name_w$}  {:<label_w$}  description", "name", "label");
    for row in &rows {
        println!(
            "{:<name_w$}  {:<label_w$}  {}",
            row.name, row.label, row.description
        );
    }
    println!();
    println!("attack variants (append to a scenario as name@variant; `all` sweeps them):");
    let var_w = variants.iter().map(|v| v.variant.len()).max().unwrap_or(7);
    for v in &variants {
        println!("{:<var_w$}  {}", v.variant, v.description);
    }
}

/// Runs the persistent campaign server until a client posts
/// `/shutdown`. The per-cell formatter handed to the server is the very
/// function the `campaign --json` path uses, so server streams are
/// byte-identical to serial CLI runs by construction.
fn serve(addr: &str, spool: Option<&str>) -> Result<(), Box<dyn std::error::Error>> {
    let server = hh_server::CampaignServer::start_with_spool(
        addr,
        campaign_cell_line,
        spool.map(PathBuf::from),
    )?;
    // Print the resolved address (port 0 binds are ephemeral) so
    // wrappers can scrape it; flush before blocking in join.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush()?;
    server.join();
    Ok(())
}

/// One campaign-server request from the CLI.
fn client(
    opts: &Options,
    addr: &str,
    action: &ClientAction,
) -> Result<(), Box<dyn std::error::Error>> {
    let api = hh_server::client::Client::new(addr);
    match action {
        ClientAction::Submit { spec } => {
            let id = api.submit(&job_spec_to_json(spec))?;
            if opts.json {
                println!("{}", json::object(Layout::Line, |obj| obj.number("id", id)));
            } else {
                let cells = spec.cell_count().expect("parsing validated the spec");
                println!("submitted job {id} ({cells} cells)");
            }
        }
        ClientAction::Status { id } => println!("{}", api.status(*id)?),
        ClientAction::Stream { id } => {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            api.stream(*id, &mut out)?;
            out.flush()?;
        }
        ClientAction::Cancel { id } => println!("{}", api.cancel(*id)?),
        ClientAction::Shutdown => {
            api.shutdown()?;
            if !opts.json {
                println!("server shutting down");
            }
        }
    }
    Ok(())
}

fn analyse(opts: &Options) {
    let _ = opts;
    // Reuse the bench crate's presentation? The CLI stays dependency-lean
    // and prints the core numbers directly.
    use hh_sim::ByteSize;
    use hyperhammer::analysis::*;
    println!("success bound p = VM/(512*host):");
    for vm in [2u64, 4, 8, 13, 16] {
        println!(
            "  VM {vm:>2} GiB on 16 GiB host: 1 in {:.0}",
            expected_attempts(ByteSize::gib(vm), ByteSize::gib(16))
        );
    }
    println!(
        "end-to-end: S1 {:.0} days, S2 {:.0} days (paper: 192 / 137)",
        expected_end_to_end_days(72.0, 96, 12, 512.0),
        expected_end_to_end_days(48.0, 90, 12, 512.0),
    );
}
