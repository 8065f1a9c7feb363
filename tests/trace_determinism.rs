//! hh-trace across the full stack (satellite of the tracing PR): the
//! merged event stream and metric totals of a traced campaign must be
//! byte-identical for every worker count, and turning event recording
//! off must not change the aggregate counters.

use std::num::NonZeroUsize;

use hh_trace::{Counter, Metrics, Stage, TraceMode, TraceSink};
use hyperhammer::driver::DriverParams;
use hyperhammer::machine::Scenario;
use hyperhammer::parallel::{CampaignGrid, CellResult};
use hyperhammer_cli::output::{to_json_line, TraceEventOut};

fn demo_grid(mode: TraceMode) -> CampaignGrid {
    let params = DriverParams {
        bits_per_attempt: 4,
        stable_bits_only: true,
        ..DriverParams::paper()
    };
    CampaignGrid::new(vec![Scenario::tiny_demo()], params, 2)
        .with_seed_count(0x7ace, 4)
        .with_trace(mode)
}

fn jobs(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("non-zero worker count")
}

/// Renders the merged NDJSON stream exactly as `campaign --trace` writes
/// it: cells in grid order, each event stamped with its cell index.
fn ndjson(results: &[CellResult]) -> String {
    let mut out = String::new();
    for result in results {
        let sink = result.trace.as_ref().expect("traced cell has a sink");
        for event in sink.events() {
            out.push_str(&to_json_line(&TraceEventOut {
                cell: sink.cell(),
                event: *event,
            }));
            out.push('\n');
        }
    }
    out
}

fn merged_metrics(results: &[CellResult]) -> Metrics {
    let mut merged = Metrics::default();
    for result in results {
        merged.merge(result.trace.as_ref().expect("sink").metrics());
    }
    merged
}

/// The headline guarantee: a 4-worker traced campaign produces an NDJSON
/// stream and metric totals byte-identical to the serial reference.
#[test]
fn four_workers_match_serial_byte_for_byte() {
    let grid = demo_grid(TraceMode::Full);
    let serial = grid.run(NonZeroUsize::MIN).expect("serial grid runs");
    let four = grid.run(jobs(4)).expect("4-worker grid runs");

    let serial_stream = ndjson(&serial);
    assert!(!serial_stream.is_empty(), "traced run recorded events");
    assert_eq!(
        serial_stream,
        ndjson(&four),
        "4-worker NDJSON must be byte-identical to serial"
    );
    assert_eq!(
        merged_metrics(&serial),
        merged_metrics(&four),
        "metric totals must not depend on worker count"
    );

    // Cell indices cover the grid and arrive in grid order.
    let cells: Vec<usize> = serial
        .iter()
        .map(|r| r.trace.as_ref().expect("sink").cell())
        .collect();
    assert_eq!(cells, vec![0, 1, 2, 3]);
}

/// A tiny campaign drives every instrumented layer: the acceptance
/// counters of the tracing PR must all be nonzero.
#[test]
fn tiny_campaign_populates_acceptance_counters() {
    let results = demo_grid(TraceMode::Metrics)
        .run(jobs(2))
        .expect("grid runs");
    let merged = merged_metrics(&results);
    for counter in [
        Counter::DramActivations,
        Counter::DramTrrRefreshes,
        Counter::BuddySplits,
        Counter::EptSplits,
    ] {
        assert!(
            merged.get(counter) > 0,
            "{} should be nonzero on a tiny campaign",
            counter.name()
        );
    }
    // Every attempt walks the full default pipeline, so each of its
    // stages was entered and simulated time accumulated somewhere. The
    // balloon/Xen steering stages belong to other attack variants'
    // pipelines and are covered by variant cells below.
    for stage in Stage::ALL {
        if matches!(stage, Stage::BalloonSteer | Stage::XenSteer) {
            continue;
        }
        assert!(
            merged.stage_entries(stage) > 0,
            "stage {} was never entered",
            stage.name()
        );
    }
    assert!(merged.stage_nanos(Stage::Profile) > 0);
    assert!(merged.stage_activations(Stage::Profile) > 0);

    // One balloon and one Xen cell light up the variant-specific stages.
    use hyperhammer::machine::AttackVariant;
    let params = DriverParams {
        bits_per_attempt: 4,
        stable_bits_only: true,
        ..DriverParams::paper()
    };
    let variant_grid = CampaignGrid::new(
        vec![
            Scenario::tiny_demo().with_variant(AttackVariant::Balloon),
            Scenario::tiny_demo().with_variant(AttackVariant::Xen),
        ],
        params,
        2,
    )
    .with_seed_count(0x7ace, 1)
    .with_trace(TraceMode::Metrics);
    let merged = merged_metrics(&variant_grid.run(jobs(2)).expect("variant grid runs"));
    for stage in [Stage::BalloonSteer, Stage::XenSteer] {
        assert!(
            merged.stage_entries(stage) > 0,
            "variant stage {} was never entered",
            stage.name()
        );
    }
}

/// Turning event recording off (metrics-only mode) leaves the aggregate
/// counters untouched — metrics never depend on the event stream.
#[test]
fn metrics_mode_counts_exactly_like_full_mode() {
    let full = demo_grid(TraceMode::Full).run(jobs(2)).expect("grid runs");
    let metrics_only = demo_grid(TraceMode::Metrics)
        .run(jobs(2))
        .expect("grid runs");

    for result in &metrics_only {
        let sink: &TraceSink = result.trace.as_ref().expect("sink");
        assert!(!sink.events_enabled());
        assert!(sink.events().is_empty(), "metrics mode records no events");
    }
    assert_eq!(
        merged_metrics(&full),
        merged_metrics(&metrics_only),
        "disabling event recording must not change the counters"
    );
}

/// `TraceMode::Off` costs nothing and returns no sinks at all.
#[test]
fn off_mode_returns_no_sinks() {
    let results = demo_grid(TraceMode::Off).run(jobs(2)).expect("grid runs");
    assert!(results.iter().all(|r| r.trace.is_none()));
}
