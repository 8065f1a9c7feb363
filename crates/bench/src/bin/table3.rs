//! Regenerates Table 3 (attack cost to first success) on S1 and S2.
//!
//! ```text
//! table3 [--scenario NAME]... [--variants] [--attempts N] [--seeds N]
//!        [--base-seed S] [--jobs N] [--faults R] [--fault-seed S]
//!        [--max-retries N] [--backoff MS] [--json]
//! ```
//!
//! `--scenario` (repeatable) narrows the run to the named scenarios
//! (default: the paper's S1 and S2); `table3 --scenario tiny` is the CI
//! smoke configuration. Scenario names accept an `@variant` suffix
//! (e.g. `tiny@balloon`), and `--variants` fans every selected scenario
//! out over all attack variants, appending a per-variant success-rate
//! comparison after the table (`--json` also emits it as NDJSON).
//! `--seeds N` widens each scenario to N
//! experiment seeds split from `--base-seed` (default: each scenario's
//! own paper seed, one cell per scenario). `--jobs` picks the worker
//! count (default: available parallelism); results are identical for
//! every value. `--faults R` injects transient hostile-host faults at
//! rate R per choke-point operation (seeded by `--fault-seed`);
//! `--max-retries` and `--backoff` tune the driver's recovery policy.

use hh_hv::FaultConfig;
use hh_sim::clock::SimDuration;
use hh_sim::rng::SimRng;
use hyperhammer::machine::Scenario;
use hyperhammer::parallel::{parallel_map, resolve_jobs};
use hyperhammer::steering::RetryPolicy;
use hyperhammer::streamref::CampaignAggregate;

fn main() {
    let mut max_attempts: usize = 600;
    let mut seeds: Option<usize> = None;
    let mut base_seed: u64 = 0;
    let mut jobs: Option<usize> = None;
    let mut faults_rate: f64 = 0.0;
    let mut fault_seed: u64 = 0;
    let mut retry = RetryPolicy::standard();
    let mut scenarios: Vec<Scenario> = Vec::new();
    let mut variants = false;
    let mut json = false;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse()
                .unwrap_or_else(|e| panic!("bad {name}: {e}"))
        };
        match flag.as_str() {
            "--attempts" => max_attempts = value("--attempts") as usize,
            "--seeds" => seeds = Some(value("--seeds") as usize),
            "--base-seed" => base_seed = value("--base-seed"),
            "--jobs" => jobs = Some(value("--jobs") as usize),
            "--fault-seed" => fault_seed = value("--fault-seed"),
            "--max-retries" => retry.max_retries = value("--max-retries") as u32,
            "--backoff" => retry.backoff = SimDuration::from_millis(value("--backoff")),
            "--faults" => {
                // Parsed apart from `value`: the rate is the one f64 flag.
                let raw = it.next().expect("--faults needs a value");
                faults_rate = raw.parse().unwrap_or_else(|e| panic!("bad --faults: {e}"));
                assert!(
                    faults_rate.is_finite() && (0.0..=1.0).contains(&faults_rate),
                    "--faults must be a rate in 0..=1"
                );
            }
            "--scenario" => {
                let name = it.next().expect("--scenario needs a value");
                scenarios.push(Scenario::by_name(name).unwrap_or_else(|e| panic!("{e}")));
            }
            "--variants" => variants = true,
            "--json" => json = true,
            // Positional attempt budget, kept for earlier revisions'
            // `table3 600` invocation.
            n if n.parse::<usize>().is_ok() => max_attempts = n.parse().expect("checked above"),
            other => panic!("unknown option {other}"),
        }
    }

    let paper_set = scenarios.is_empty() && !variants;
    if scenarios.is_empty() {
        scenarios = vec![Scenario::s1(), Scenario::s2()];
    }
    if variants {
        // Fan every selected scenario out over the attack variants,
        // variant-major so each scenario's variants print together.
        scenarios = scenarios
            .into_iter()
            .flat_map(|sc| {
                hyperhammer::machine::AttackVariant::ALL
                    .iter()
                    .map(move |v| sc.clone().with_variant(*v))
            })
            .collect();
    }
    let fault_config = FaultConfig::uniform(faults_rate).with_seed(fault_seed);
    if fault_config.is_active() {
        scenarios = scenarios
            .into_iter()
            .map(|sc| sc.with_faults(fault_config))
            .collect();
        eprintln!("table3: injecting transient faults at rate {faults_rate} (seed {fault_seed})");
    }
    let jobs = resolve_jobs(jobs);
    eprintln!("table3: up to {max_attempts} attempts per cell on {jobs} workers...");

    let (rows, aggregate) = match seeds {
        // The paper configuration: each scenario at its own seed, which
        // `run` reproduces exactly; scenarios fan out over the workers.
        None => {
            let (rows, cells): (Vec<_>, Vec<_>) = parallel_map(scenarios, jobs, |_, sc| {
                hh_bench::table3::run(&sc, max_attempts, retry)
            })
            .into_iter()
            .unzip();
            (rows, CampaignAggregate::merged(&cells))
        }
        Some(count) => {
            let cell_seeds: Vec<u64> = (0..count.max(1) as u64)
                .map(|i| SimRng::split_seed(base_seed, i))
                .collect();
            hh_bench::table3::run_grid(scenarios, max_attempts, &cell_seeds, jobs, retry)
        }
    };
    hh_bench::table3::print(&rows);
    let summaries = aggregate.variant_rows();
    if summaries.len() > 1 {
        println!();
        hh_bench::table3::print_variant_summary(&summaries);
        if json {
            println!();
            for row in &summaries {
                println!("{}", hh_sim::json::to_json_line(row));
            }
        }
    }
    if paper_set {
        println!();
        println!("Paper reference: S1 4.0 min / 16.7 h / 250; S2 4.7 min / 33.8 h / 432");
    }
}
