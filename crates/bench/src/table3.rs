//! Table 3: the cost of HyperHammer attack attempts.
//!
//! Paper reference (§5.3.2): profile once (reusing results via a
//! GPA→HPA debug hypercall), then repeat full attack attempts — Page
//! Steering against 12 vulnerable bits, hammer, detect, validate —
//! restarting the VM after every failure, until the first success.
//!
//! | Setting | Avg. time/attempt | Time to 1st success | Attempts |
//! |---------|-------------------|---------------------|----------|
//! | S1      | 4.0 mins          | 16.7 hrs            | 250      |
//! | S2      | 4.7 mins          | 33.8 hrs            | 432      |
//!
//! The experiment runs on the deterministic campaign engine
//! ([`hyperhammer::parallel`]): every (scenario × seed) cell is an
//! independent campaign, so `--jobs N` changes wall-clock time only —
//! results are bit-identical for every worker count.

use std::num::NonZeroUsize;

use hyperhammer::driver::DriverParams;
use hyperhammer::machine::{AttackVariant, Scenario};
use hyperhammer::parallel::{CampaignGrid, CellConsumer, CellResult};
use hyperhammer::steering::RetryPolicy;
use hyperhammer::streamref::{CampaignAggregate, VariantRow};
use hyperhammer::{CancelToken, MachineTemplate};

/// One row of Table 3.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Scenario name, `@variant`-qualified off the default variant.
    pub setting: String,
    /// Experiment seed of this row's campaign cell.
    pub seed: u64,
    /// Mean simulated attempt duration, minutes.
    pub avg_attempt_mins: f64,
    /// Simulated time to the first success, hours (`None`: no success
    /// within the attempt budget).
    pub time_to_success_hours: Option<f64>,
    /// 1-based index of the first successful attempt.
    pub attempts_to_success: Option<usize>,
    /// Attempts executed.
    pub attempts_run: usize,
    /// Exploitable bits in the reused profiling catalogue.
    pub catalog_bits: usize,
}

impl From<&CellResult> for Table3Row {
    fn from(r: &CellResult) -> Self {
        let setting = if r.variant == AttackVariant::default() {
            r.scenario.to_string()
        } else {
            format!("{}@{}", r.scenario, r.variant.label())
        };
        Self {
            setting,
            seed: r.seed,
            avg_attempt_mins: r.stats.avg_attempt_mins(),
            time_to_success_hours: r.stats.time_to_first_success().map(|d| d.as_hours_f64()),
            attempts_to_success: r.stats.first_success(),
            attempts_run: r.stats.attempts.len(),
            catalog_bits: r.catalog_bits,
        }
    }
}

/// Runs the Table 3 experiment for one scenario, at the scenario's own
/// seed (the paper configuration); returns its row and the cell folded
/// into a [`CampaignAggregate`]. Any fault plan rides in the
/// scenario's host configuration ([`Scenario::with_faults`]); `retry`
/// sets the driver's transient-fault recovery —
/// [`RetryPolicy::standard`] reproduces earlier fault-free revisions
/// exactly, since with faults off the policy is dead code.
///
/// # Panics
///
/// Panics on hypervisor errors.
pub fn run(
    scenario: &Scenario,
    max_attempts: usize,
    retry: RetryPolicy,
) -> (Table3Row, CampaignAggregate) {
    let (rows, aggregate) = run_grid(
        vec![scenario.clone()],
        max_attempts,
        // `with_seed` at the scenario's own seed is a no-op, so this is
        // the exact serial experiment of earlier revisions.
        &[scenario.host_config().seed],
        NonZeroUsize::new(1).expect("1 is non-zero"),
        retry,
    );
    let row = rows.into_iter().next().expect("one cell in, one row out");
    (row, aggregate)
}

/// Runs a (scenario × seed) grid of Table 3 cells on `jobs` workers.
/// Rows come back in grid order (scenario-major) regardless of worker
/// count, with every cell folded into one [`CampaignAggregate`];
/// per-cell completions are logged to stderr as they happen.
///
/// # Panics
///
/// Panics on hypervisor errors.
pub fn run_grid(
    scenarios: Vec<Scenario>,
    max_attempts: usize,
    seeds: &[u64],
    jobs: NonZeroUsize,
    retry: RetryPolicy,
) -> (Vec<Table3Row>, CampaignAggregate) {
    let params = DriverParams {
        retry,
        ..DriverParams::paper()
    };
    let grid = CampaignGrid::new(scenarios, params, max_attempts).with_seeds(seeds.to_vec());
    let templates = grid.scenario_templates();
    let refs: Vec<&MachineTemplate> = templates.iter().collect();
    let sinks = grid
        .run_streamed_resume(jobs, &refs, &CancelToken::new(), &|_| false, |_| {
            ProgressRows::default()
        })
        .expect("campaign grid runs");
    let mut aggregate = CampaignAggregate::default();
    let mut rows = Vec::new();
    for sink in sinks {
        aggregate.merge(&sink.aggregate);
        rows.extend(sink.rows);
    }
    rows.sort_unstable_by_key(|(index, _)| *index);
    (rows.into_iter().map(|(_, row)| row).collect(), aggregate)
}

/// Logs each cell's completion to stderr as it happens (scheduling
/// order, liveness only), keeps its row for the grid-order table and
/// folds it into the worker's aggregate.
#[derive(Default)]
struct ProgressRows {
    rows: Vec<(usize, Table3Row)>,
    aggregate: CampaignAggregate,
}

impl CellConsumer for ProgressRows {
    fn consume(
        &mut self,
        index: usize,
        mut cell: CellResult,
    ) -> std::io::Result<Option<hh_trace::TraceSink>> {
        eprintln!(
            "  [{} seed {:#x}] {} attempts, first success: {}",
            cell.scenario,
            cell.seed,
            cell.stats.attempts.len(),
            cell.stats
                .first_success()
                .map_or("none".to_string(), |n| n.to_string()),
        );
        self.aggregate.observe(&cell);
        self.rows.push((index, Table3Row::from(&cell)));
        Ok(cell.trace.take())
    }
}

/// Prints the table.
pub fn print(rows: &[Table3Row]) {
    println!("Table 3: the cost of HyperHammer tests.");
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.setting.clone(),
                format!("{:#x}", r.seed),
                format!("{:.1} mins", r.avg_attempt_mins),
                r.time_to_success_hours
                    .map_or("none".to_string(), |h| format!("{h:.1} hrs")),
                r.attempts_to_success
                    .map_or(format!(">{}", r.attempts_run), |a| a.to_string()),
                r.catalog_bits.to_string(),
            ]
        })
        .collect();
    let widths = crate::fit_widths(&[8, 6, 18, 18, 14, 10], &cells);
    println!(
        "{}",
        crate::header(
            &[
                "Setting",
                "Seed",
                "Avg time/attempt",
                "Time 1st success",
                "Attempts",
                "Cat. bits"
            ],
            &widths,
        )
    );
    for r in &cells {
        println!("{}", crate::row(r, &widths));
    }
}

/// Prints the per-variant success-rate comparison (text form).
pub fn print_variant_summary(summaries: &[VariantRow]) {
    println!("Per-variant success rate:");
    let cells: Vec<Vec<String>> = summaries
        .iter()
        .map(|s| {
            vec![
                s.variant.label().to_string(),
                s.cells.to_string(),
                s.succeeded.to_string(),
                s.attempts.to_string(),
                format!("{:.0}%", s.success_rate() * 100.0),
            ]
        })
        .collect();
    let widths = crate::fit_widths(&[10, 6, 10, 9, 8], &cells);
    println!(
        "{}",
        crate::header(
            &["Variant", "Cells", "Succeeded", "Attempts", "Rate"],
            &widths,
        )
    );
    for r in &cells {
        println!("{}", crate::row(r, &widths));
    }
}
