//! Subcommand implementations.

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
use hyperhammer::streamref::{merge_shards, CampaignAggregate, CampaignStreamer, ShardInfo};
use hyperhammer::{JobSpec, MachineTemplate};

use crate::opts::{ClientAction, Command, FaultOpts, Options};
use crate::output::{
    self, AttackOut, AttackVariantOut, BenchDiffOut, CampaignCellOut, ProfileOut, ReconOut,
    ScenarioOut, SteerOut, TraceCountersOut, TraceEventOut, TraceStageOut, VariantSummaryOut,
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
            scenarios,
            seeds,
            base_seed,
            attempts,
            bits,
            jobs,
            faults,
            checkpoint,
            resume,
            stop_after_cells,
        } => {
            let journal = match (checkpoint, resume) {
                (_, Some(path)) => JournalMode::Resume(path),
                (Some(path), None) => JournalMode::Create(path),
                (None, None) => JournalMode::Off,
            };
            campaign(
                opts,
                scenarios,
                grid_spec(*seeds, *base_seed, *attempts, *bits, *faults, scenarios),
                *jobs,
                journal,
                *stop_after_cells,
            )
        }
        Command::Trace {
            scenarios,
            seeds,
            base_seed,
            attempts,
            bits,
            jobs,
            faults,
        } => trace(
            opts, scenarios, *seeds, *base_seed, *attempts, *bits, *jobs, *faults,
        ),
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

    let status_name = |s: DiffStatus| match s {
        DiffStatus::Ok => "ok",
        DiffStatus::Regression => "regression",
        DiffStatus::Improved => "improved",
        DiffStatus::Missing => "missing",
        DiffStatus::New => "new",
    };
    let rows: Vec<BenchDiffOut> = report
        .entries
        .iter()
        .map(|e| BenchDiffOut {
            name: e.name.clone(),
            baseline_ns: e.baseline_ns,
            current_ns: e.current_ns,
            ratio: e.ratio,
            rss_ratio: e.rss_ratio,
            status: status_name(e.status),
        })
        .collect();

    if opts.json {
        for row in &rows {
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
        for r in &rows {
            let fmt_ratio =
                |x: Option<f64>| x.map_or_else(|| "-".to_string(), |x| format!("{x:.2}x"));
            println!(
                "{:<name_w$}  {:>10}  {:>10}  {:>7}  {:>7}  {}",
                r.name,
                fmt_ns(r.baseline_ns),
                fmt_ns(r.current_ns),
                fmt_ratio(r.ratio),
                fmt_ratio(r.rss_ratio),
                r.status
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
/// [`CampaignSink`]s; only the end-of-run printing differs between the
/// in-memory table/`--json`, `--stream-out` and checkpointed runs, and
/// each prints bytes identical to an uninterrupted in-memory run for
/// any `--jobs` value.
fn campaign(
    opts: &Options,
    scenarios: &[Scenario],
    cli_spec: JobSpec,
    jobs: Option<usize>,
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
            // A journal must hold a spec its own resume accepts.
            cli_spec.validate()?;
            let journal = Journal::create(Path::new(path), &cli_spec)?;
            (cli_spec, Some(journal), Vec::new())
        }
        JournalMode::Off => (cli_spec, None, Vec::new()),
    };
    let grid = match journal_mode {
        JournalMode::Resume(_) => spec.to_grid()?,
        _ => spec.grid_for(scenarios.to_vec()),
    };
    // --trace turns on full event recording for every cell; otherwise the
    // campaign runs untraced (the fast path the benchmarks measure).
    let grid = grid.with_trace(if opts.trace.is_some() {
        TraceMode::Full
    } else {
        TraceMode::Off
    });
    let jobs = resolve_jobs(jobs.or(spec.jobs));
    let resumed = resumed_lines.iter().flatten().count();
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
    if let Some(dir) = &opts.stream_out {
        std::fs::create_dir_all(dir)?;
    }

    let run = CampaignRun {
        journal: journal.map(Mutex::new),
        spill: opts.stream_out.as_deref().map(Path::new),
        traced: opts.trace.is_some(),
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
        &|index| resumed_lines.get(index).is_some_and(Option::is_some),
        |worker| CampaignSink::new(&run, worker),
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
        (Err(e), _) => return Err(e.into()),
    };

    let mut aggregate = CampaignAggregate::default();
    let mut kept = Vec::new();
    let mut cell_shards = Vec::new();
    let mut trace_shards = Vec::new();
    for sink in sinks {
        aggregate.merge(&sink.aggregate);
        kept.extend(sink.kept);
        if let Some(spill) = sink.spill {
            let (spilled, cells, traces) = spill.finish()?;
            aggregate.merge(&spilled);
            cell_shards.extend(cells);
            trace_shards.extend(traces);
        }
    }
    kept.sort_unstable_by_key(|cell| cell.index);

    if run.journal.is_some() {
        print_checkpointed(opts, grid.len(), resumed_lines, kept, resumed)
    } else if let Some(dir) = &opts.stream_out {
        print_streamed(
            opts,
            &grid,
            &aggregate,
            Path::new(dir),
            cell_shards,
            trace_shards,
        )
    } else {
        print_in_memory(opts, &aggregate, &kept)
    }
}

/// Worker-independent state of one `campaign` run, shared by every
/// worker's [`CampaignSink`].
struct CampaignRun<'a> {
    /// The `--checkpoint`/`--resume` journal.
    journal: Option<Mutex<Journal>>,
    /// The `--stream-out` directory shards spill into.
    spill: Option<&'a Path>,
    /// Whether cells carry trace events to spill (`--trace`).
    traced: bool,
    /// Cells newly completed by this run (resumed cells not included).
    completed: AtomicUsize,
    /// `--stop-after-cells`.
    stop_after: Option<usize>,
    cancel: CancelToken,
}

/// One finished cell's output, kept for the grid-order printing at the
/// end of an in-memory or checkpointed run.
struct KeptCell {
    index: usize,
    out: CampaignCellOut,
    /// The cell's NDJSON line, newline included.
    line: String,
    /// The cell's trace (`--trace`), formatted only when the trace file
    /// is written: events are far smaller than their NDJSON lines.
    trace: Option<TraceSink>,
}

/// Cell and trace line formatter handed to [`CampaignStreamer`].
type LineFmt = fn(&CellResult, &mut String);

/// The `campaign` consumer: formats each finished cell's line once,
/// folds it into the worker's [`CampaignAggregate`], appends it to the
/// journal when checkpointing, and keeps it for the end-of-run printing
/// — or, under `--stream-out`, hands it to the standard spilling
/// [`CampaignStreamer`] so peak memory stays O(workers).
struct CampaignSink<'a> {
    run: &'a CampaignRun<'a>,
    aggregate: CampaignAggregate,
    kept: Vec<KeptCell>,
    /// The `--stream-out` consumer every cell goes to instead. Options
    /// parsing rejects checkpointing with `--stream-out`, so a spilled
    /// cell never needs the journal or `--stop-after-cells`.
    spill: Option<CampaignStreamer<LineFmt, LineFmt>>,
}

impl<'a> CampaignSink<'a> {
    fn new(run: &'a CampaignRun<'a>, worker: usize) -> Self {
        let spill = run.spill.map(|dir| {
            CampaignStreamer::new(
                dir,
                worker,
                run.traced,
                campaign_cell_line as LineFmt,
                spill_trace_lines as LineFmt,
            )
        });
        Self {
            run,
            aggregate: CampaignAggregate::default(),
            kept: Vec::new(),
            spill,
        }
    }
}

/// A spilled cell's `--trace` event lines.
fn spill_trace_lines(result: &CellResult, out: &mut String) {
    out.push_str(&trace_lines(result.trace.as_ref()));
}

impl CellConsumer for CampaignSink<'_> {
    fn consume(
        &mut self,
        index: usize,
        mut result: CellResult,
    ) -> std::io::Result<Option<TraceSink>> {
        if let Some(spill) = &mut self.spill {
            return spill.consume(index, result);
        }
        self.aggregate.observe(&result);
        let mut line = String::new();
        campaign_cell_line(&result, &mut line);
        if let Some(journal) = &self.run.journal {
            journal
                .lock()
                .expect("journal poisoned")
                .append(index, &line)?;
        }
        let newly = self.run.completed.fetch_add(1, Ordering::SeqCst) + 1;
        if self.run.stop_after.is_some_and(|k| newly >= k) {
            self.run.cancel.cancel();
        }
        self.kept.push(KeptCell {
            index,
            out: cell_out(&result),
            line,
            trace: result.trace.take(),
        });
        Ok(None)
    }
}

/// End of an in-memory run: the `--trace` file, then the result table
/// (or the NDJSON records) and the variant report.
fn print_in_memory(
    opts: &Options,
    aggregate: &CampaignAggregate,
    kept: &[KeptCell],
) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = &opts.trace {
        let events = write_ndjson(
            path,
            kept.iter().map(|cell| trace_lines(cell.trace.as_ref())),
        )?;
        if !opts.json {
            println!("trace: wrote {events} events to {path}");
        }
    }
    report_peak_rss();
    let variant_rows = variant_summary_rows(aggregate);

    if opts.json {
        // NDJSON: one record per cell, in grid order — the reference
        // bytes the streaming path's merged cells.ndjson must equal.
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for cell in kept {
            out.write_all(cell.line.as_bytes())?;
        }
        out.flush()?;
        print_variant_report(&variant_rows, true);
        return Ok(());
    }

    let header = [
        "scenario", "seed", "attempts", "first ok", "avg mins", "hours",
    ];
    let rows: Vec<[String; 6]> = kept
        .iter()
        .map(|cell| {
            let c = &cell.out;
            [
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
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row.iter()) {
            *w = (*w).max(cell.len());
        }
    }
    let print_row = |cells: &[String]| {
        let body: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = *w))
            .collect();
        println!("| {} |", body.join(" | "));
    };
    print_row(&header.map(String::from));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in &rows {
        print_row(row);
    }
    print_variant_report(&variant_rows, false);
    Ok(())
}

/// End of a `--stream-out` run: merges the shards in grid order into
/// `DIR/cells.ndjson` (and the `--trace` path), then prints the
/// streamed summary (or replays the merged NDJSON).
fn print_streamed(
    opts: &Options,
    grid: &CampaignGrid,
    aggregate: &CampaignAggregate,
    dir: &Path,
    cell_shards: Vec<ShardInfo>,
    trace_shards: Vec<ShardInfo>,
) -> Result<(), Box<dyn std::error::Error>> {
    let merged_path = dir.join("cells.ndjson");
    let mut out = BufWriter::new(File::create(&merged_path)?);
    merge_shards(cell_shards, grid.len(), &mut out)?;
    drop(out);
    if let Some(path) = &opts.trace {
        let mut out = BufWriter::new(File::create(path)?);
        merge_shards(trace_shards, grid.len(), &mut out)?;
    }

    let variant_rows = variant_summary_rows(aggregate);
    if opts.json {
        // Replay the merged file so stdout carries the same NDJSON
        // bytes the in-memory path prints.
        let mut file = File::open(&merged_path)?;
        let stdout = std::io::stdout();
        std::io::copy(&mut file, &mut stdout.lock())?;
        print_variant_report(&variant_rows, true);
    } else {
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
        print_variant_report(&variant_rows, false);
        println!("results: {}", merged_path.display());
    }
    report_peak_rss();
    Ok(())
}

/// End of a checkpointed run: the full grid's NDJSON records — resumed
/// ones from the journal, new ones from this run — or a one-line
/// completion note.
fn print_checkpointed(
    opts: &Options,
    cells: usize,
    mut lines: Vec<Option<String>>,
    kept: Vec<KeptCell>,
    resumed: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    lines.resize(cells, None);
    for cell in kept {
        lines[cell.index] = Some(cell.line);
    }
    if opts.json {
        let stdout = std::io::stdout();
        let mut out = stdout.lock();
        for line in &lines {
            out.write_all(line.as_deref().expect("all cells complete").as_bytes())?;
        }
        out.flush()?;
    } else {
        println!(
            "campaign: complete — {cells} cells ({} run now, {resumed} resumed)",
            cells - resumed
        );
    }
    report_peak_rss();
    Ok(())
}

/// Writes NDJSON chunks (each zero or more complete lines) to `path` in
/// the order given; returns the number of lines written.
fn write_ndjson<S: AsRef<str>>(
    path: &str,
    chunks: impl IntoIterator<Item = S>,
) -> std::io::Result<usize> {
    let mut w = BufWriter::new(File::create(path)?);
    let mut lines = 0usize;
    for chunk in chunks {
        let chunk = chunk.as_ref();
        lines += chunk.lines().count();
        w.write_all(chunk.as_bytes())?;
    }
    w.flush()?;
    Ok(lines)
}

/// The [`JobSpec`] describing a CLI campaign/trace grid. Both the CLI
/// and the campaign server assemble grids through
/// [`JobSpec::grid_for`], so their parameters (and hence output bytes)
/// cannot drift apart. The resolved scenarios are passed to `grid_for`
/// directly; the spec's name list mirrors them for reference only.
fn grid_spec(
    seeds: usize,
    base_seed: u64,
    attempts: usize,
    bits: usize,
    faults: FaultOpts,
    scenarios: &[Scenario],
) -> JobSpec {
    JobSpec {
        // lookup_name round-trips through Scenario::by_name including
        // the @variant suffix, so checkpoints and server jobs rebuild
        // the exact same grid.
        scenarios: scenarios.iter().map(Scenario::lookup_name).collect(),
        seeds,
        base_seed,
        attempts,
        bits,
        jobs: None,
        priority: 0,
        fault_rate: faults.rate,
        fault_seed: faults.seed,
        max_retries: faults.max_retries,
        backoff_ms: faults.backoff_ms,
    }
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
    out.push_str(&output::to_json_line(&cell_out(result)));
    out.push('\n');
}

/// One cell's trace-event lines — the bytes the `--trace` file holds
/// for the cell (none for an untraced cell).
fn trace_lines(sink: Option<&TraceSink>) -> String {
    let mut out = String::new();
    let Some(sink) = sink else { return out };
    for event in sink.events() {
        let record = TraceEventOut {
            cell: sink.cell(),
            event: *event,
        };
        out.push_str(&output::to_json_line(&record));
        out.push('\n');
    }
    out
}

/// Per-variant success-rate rows for grids spanning several attack
/// variants, in [`AttackVariant::ALL`] order; variants absent from the
/// grid are omitted.
fn variant_summary_rows(aggregate: &CampaignAggregate) -> Vec<VariantSummaryOut> {
    AttackVariant::ALL
        .iter()
        .copied()
        .filter(|v| aggregate.variant_cells[v.index()] > 0)
        .map(|v| {
            let i = v.index();
            let cells = aggregate.variant_cells[i];
            let succeeded = aggregate.variant_succeeded[i];
            VariantSummaryOut {
                variant: v.label().to_string(),
                cells,
                succeeded,
                attempts: aggregate.variant_attempts[i],
                success_rate: succeeded as f64 / cells as f64,
            }
        })
        .collect()
}

/// Prints the cross-variant comparison report. Single-variant grids
/// (the common case, and everything pre-existing CI byte-compares)
/// print nothing, so their output is unchanged.
fn print_variant_report(rows: &[VariantSummaryOut], json: bool) {
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
            row.variant,
            row.succeeded,
            row.cells,
            row.success_rate * 100.0,
            row.attempts
        );
    }
}

/// Reports the process's peak RSS on stderr (keeping stdout
/// byte-comparable across runs); silent where procfs is unavailable.
fn report_peak_rss() {
    if let Some(kib) = hh_sim::mem::peak_rss_kib() {
        eprintln!("campaign: peak RSS {kib} KiB");
    }
}

#[allow(clippy::too_many_arguments)]
fn trace(
    opts: &Options,
    scenarios: &[Scenario],
    seeds: usize,
    base_seed: u64,
    attempts: usize,
    bits: usize,
    jobs: Option<usize>,
    faults: FaultOpts,
) -> Result<(), Box<dyn std::error::Error>> {
    // Metrics stay cheap; the full event stream is only recorded when the
    // caller asked for an NDJSON file to put it in.
    let mode = if opts.trace.is_some() {
        TraceMode::Full
    } else {
        TraceMode::Metrics
    };
    let grid = grid_spec(seeds, base_seed, attempts, bits, faults, scenarios)
        .grid_for(scenarios.to_vec())
        .with_trace(mode);
    let jobs = resolve_jobs(jobs);
    if !opts.json {
        println!(
            "trace: {} cells ({} scenarios x {} seeds) on {} workers",
            grid.len(),
            scenarios.len(),
            seeds,
            jobs
        );
    }
    let results = grid.run(jobs)?;
    if let Some(path) = &opts.trace {
        let events = write_ndjson(
            path,
            results
                .iter()
                .map(|result| trace_lines(result.trace.as_ref())),
        )?;
        if !opts.json {
            println!("trace: wrote {events} events to {path}");
        }
    }

    // Merge per-cell metrics in grid order (element-wise, so the totals
    // are identical for every --jobs value).
    let mut merged = Metrics::default();
    for result in &results {
        if let Some(sink) = &result.trace {
            merged.merge(sink.metrics());
        }
    }

    let stages: Vec<TraceStageOut> = Stage::ALL
        .iter()
        .map(|&stage| TraceStageOut {
            stage: stage.name().to_string(),
            entries: merged.stage_entries(stage),
            sim_secs: merged.stage_nanos(stage) as f64 / 1e9,
            activations: merged.stage_activations(stage),
        })
        .collect();
    let counters = TraceCountersOut {
        counters: Counter::ALL
            .iter()
            .map(|&c| (c.name(), merged.get(c)))
            .collect(),
    };

    if opts.json {
        // NDJSON: one record per stage, then the counter totals.
        for stage in &stages {
            println!("{}", output::to_json_line(stage));
        }
        println!("{}", output::to_json_line(&counters));
        return Ok(());
    }

    use hh_bench::harness::{fit_widths, header, row};
    let names = ["stage", "entries", "sim time", "activations"];
    let rows: Vec<Vec<String>> = Stage::ALL
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
    for (name, value) in &counters.counters {
        println!("  {name:<24} {value}");
    }
    Ok(())
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
                println!("{{\"id\": {id}}}");
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
