//! Integration tests driving the CLI command implementations directly.

use hyperhammer_cli::commands;
use hyperhammer_cli::opts::Options;

fn run(words: &[&str]) -> Result<(), String> {
    let opts = Options::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        .map_err(|e| e.to_string())?;
    commands::run(&opts).map_err(|e| e.to_string())
}

#[test]
fn recon_runs_on_every_preset() {
    for scenario in ["s1", "s2", "s3", "small", "tiny"] {
        run(&["recon", "--scenario", scenario]).unwrap_or_else(|e| {
            panic!("recon failed on {scenario}: {e}");
        });
    }
}

#[test]
fn profile_with_early_stop() {
    run(&["profile", "--scenario", "tiny", "--stop-after", "1"]).unwrap();
    run(&["profile", "--scenario", "tiny", "--json"]).unwrap();
}

#[test]
fn steer_json_and_text() {
    run(&[
        "steer",
        "--scenario",
        "tiny",
        "--blocks",
        "3",
        "--spray-gib",
        "1",
    ])
    .unwrap();
    run(&[
        "steer",
        "--scenario",
        "tiny",
        "--blocks",
        "2",
        "--spray-gib",
        "1",
        "--json",
    ])
    .unwrap();
}

#[test]
fn steer_under_quarantine_fails_gracefully() {
    let err = run(&["steer", "--scenario", "tiny", "--quarantine"]).unwrap_err();
    assert!(err.contains("quarantine"), "got: {err}");
}

#[test]
fn attack_bounded_attempts() {
    run(&[
        "attack",
        "--scenario",
        "tiny",
        "--attempts",
        "2",
        "--bits",
        "2",
    ])
    .unwrap();
}

#[test]
fn analyse_prints() {
    run(&["analyse"]).unwrap();
}

/// Reads a checkpoint file into (cell index → NDJSON record) pairs,
/// skipping the magic and job-spec header.
fn checkpoint_records(path: &std::path::Path) -> Vec<(usize, String)> {
    let text = std::fs::read_to_string(path).expect("checkpoint readable");
    let mut records: Vec<(usize, String)> = text
        .lines()
        .skip(2)
        .filter(|l| !l.is_empty())
        .map(|l| {
            let (index, json) = l.split_once('\t').expect("index\\tjson record");
            (index.parse().expect("numeric index"), json.to_string())
        })
        .collect();
    records.sort();
    records
}

/// Variant cells survive checkpoint/resume: an interrupted multi-variant
/// sweep resumed to completion holds exactly the records of an
/// uninterrupted run — including the `@variant` scenario names the grid
/// is rebuilt from on resume.
#[test]
fn variant_campaign_survives_checkpoint_resume() {
    let dir = std::env::temp_dir().join(format!("hh-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let full = dir.join("full.ckpt");
    let split = dir.join("split.ckpt");
    let grid_args = |rest: &[&str]| {
        let mut words = vec![
            "campaign",
            "--scenarios",
            "micro@all",
            "--seeds",
            "1",
            "--attempts",
            "2",
            "--bits",
            "2",
            "--jobs",
            "2",
        ];
        words.extend_from_slice(rest);
        words.iter().map(|s| s.to_string()).collect::<Vec<_>>()
    };

    let full_path = full.to_str().expect("utf-8 temp path");
    let split_path = split.to_str().expect("utf-8 temp path");
    run(&grid_args(&["--checkpoint", full_path])
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>())
    .expect("uninterrupted checkpointed run");
    run(
        &grid_args(&["--checkpoint", split_path, "--stop-after-cells", "2"])
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
    )
    .expect("interrupted run stops cleanly");
    assert!(
        checkpoint_records(&split).len() < checkpoint_records(&full).len(),
        "the interrupted run must have left cells unfinished"
    );
    run(&["campaign", "--resume", split_path]).expect("resume finishes the sweep");

    let reference = checkpoint_records(&full);
    assert_eq!(
        reference.len(),
        5,
        "micro@all is one cell per attack variant"
    );
    assert_eq!(
        checkpoint_records(&split),
        reference,
        "resumed records must equal the uninterrupted run's"
    );
    for qualified in [
        "micro@balloon",
        "micro@xen",
        "micro@pthammer",
        "micro@gbhammer",
    ] {
        assert!(
            reference
                .iter()
                .any(|(_, json)| json.contains(&format!("\"scenario\": \"{qualified}\""))),
            "checkpoint must carry the {qualified} cell"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the built `hyperhammer-sim` binary; returns its stdout.
fn sim_stdout(words: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_hyperhammer-sim"))
        .args(words)
        .output()
        .expect("spawn hyperhammer-sim");
    assert!(
        out.status.success(),
        "{words:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A resumed multi-variant campaign prints exactly what the
/// uninterrupted `campaign --json` prints, per-variant rollup records
/// included — the resumed cells' share of the rollup comes from their
/// journal records.
#[test]
fn resumed_json_carries_the_variant_rollup() {
    let dir = std::env::temp_dir().join(format!("hh-cli-rollup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let ckpt = dir.join("split.ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 temp path");
    let grid = [
        "campaign",
        "--scenarios",
        "micro@all",
        "--seeds",
        "1",
        "--attempts",
        "2",
        "--bits",
        "2",
        "--jobs",
        "1",
    ];
    let reference = sim_stdout(&[&grid[..], &["--json"]].concat());
    assert_eq!(
        reference.matches("{\"variant\": ").count(),
        5,
        "the reference run must end in one rollup record per variant"
    );
    sim_stdout(
        &[
            &grid[..],
            &["--checkpoint", ckpt, "--stop-after-cells", "2"],
        ]
        .concat(),
    );
    let resumed = sim_stdout(&["campaign", "--resume", ckpt, "--json"]);
    assert_eq!(resumed, reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_changes_results_deterministically() {
    // Two runs with the same seed must both succeed (determinism is
    // asserted in depth by tests/determinism.rs; here we check the CLI
    // threads the seed through).
    run(&[
        "profile",
        "--scenario",
        "tiny",
        "--seed",
        "7",
        "--stop-after",
        "1",
    ])
    .unwrap();
    run(&[
        "profile",
        "--scenario",
        "tiny",
        "--seed",
        "7",
        "--stop-after",
        "1",
    ])
    .unwrap();
}

/// The quarantine blocks every attempt's release step; the campaign
/// records the blocked attempts and prints every cell instead of
/// aborting the run.
#[test]
fn quarantined_campaign_prints_every_cell() {
    let out = sim_stdout(&[
        "campaign",
        "--scenarios",
        "tiny",
        "--seeds",
        "2",
        "--attempts",
        "2",
        "--bits",
        "4",
        "--quarantine",
        "--json",
    ]);
    let cells: Vec<&str> = out.lines().collect();
    assert_eq!(cells.len(), 2, "one line per cell: {out}");
    for cell in cells {
        assert!(cell.contains("\"first_success\": null"), "got: {cell}");
    }
}

/// A run that fails on a cell leaves the complete lines of the cells
/// before it on stdout, the same bytes at every worker count, and
/// exits non-zero.
#[test]
fn failed_run_leaves_the_grid_prefix_on_stdout() {
    let grid = [
        "campaign",
        "--scenarios",
        "micro",
        "--seeds",
        "6",
        "--attempts",
        "2",
        "--bits",
        "4",
        "--faults",
        "0.1",
        "--fault-seed",
        "1",
        "--max-retries",
        "0",
        "--json",
    ];
    let stdouts: Vec<String> = ["1", "2"]
        .iter()
        .map(|jobs| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_hyperhammer-sim"))
                .args(grid)
                .args(["--jobs", jobs])
                .output()
                .expect("spawn hyperhammer-sim");
            assert!(!out.status.success(), "the faulted grid must fail");
            String::from_utf8(out.stdout).expect("utf-8 stdout")
        })
        .collect();
    assert_eq!(stdouts[0], stdouts[1]);
    let lines = stdouts[0].lines().count();
    assert!(
        (1..6).contains(&lines),
        "want the cells before the failed one, got {lines} lines"
    );
}
