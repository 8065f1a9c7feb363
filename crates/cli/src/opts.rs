//! Hand-rolled argument parsing (the workspace deliberately keeps its
//! dependency set minimal; a CLI-args crate is not worth a tree of
//! transitive dependencies for five flags).

use hyperhammer::machine::{AttackVariant, Scenario};
use hyperhammer::JobSpec;

/// Usage text.
pub const USAGE: &str = "\
usage: hyperhammer-sim <command> [options]

commands:
  recon       recover the DRAM address map from the timing side channel
  profile     run memory profiling          (--stop-after N)
  steer       run Page Steering             (--blocks B, --spray-gib S)
  attack      run end-to-end attack attempts (--attempts N, --bits B)
  campaign    sweep campaigns over a (scenario x seed) grid
              (--scenarios a,b,..., --seeds N, --base-seed S,
               --attempts N, --bits B, --jobs N); checkpointable with
              --checkpoint PATH / --resume PATH. Scenario names take an
              attack-variant suffix (tiny@balloon, s1@xen, ...); `all`
              expands to every scenario x variant and `name@all` to one
              scenario x every variant; grids spanning several variants
              print a per-variant comparison report
  trace       run a campaign grid with tracing on and print a per-stage
              time/activation breakdown (same grid flags as campaign)
  scenarios   list the registered scenario presets (lookup name, label,
              description) and the attack variants their names may take
              as an @suffix; these are the names job specs may use
  serve       run the persistent campaign server: HTTP/1.1 job API with
              a priority queue and warm per-scenario machine templates
              (--addr HOST:PORT; port 0 picks an ephemeral port and the
              chosen address is printed on stdout); with --spool DIR the
              queue survives restarts: each job keeps a journal there in
              the --checkpoint format, and unfinished jobs resume on
              startup under their original ids, skipping
              already-completed cells
  client      talk to a campaign server at --addr:
                client submit [campaign grid flags] [--priority N]
                client status --id N      client stream --id N
                client cancel --id N      client shutdown
              `stream` prints the job's NDJSON cells in grid order —
              byte-identical to `campaign --json` with the same flags
  analyse     print the §5.3 analytical model
  bench-diff  compare a bench JSON report against a committed baseline
              (--baseline PATH --current PATH [--tolerance F]); exits
              non-zero on a regression beyond tolerance or a missing
              bench (see scripts/bench_diff.sh)

options:
  --scenario s1|s2|s3|small|tiny   machine preset        [default: small]
  --seed N                         experiment seed override
  --jobs N                         campaign worker threads
                                   [default: available parallelism]
  --trace PATH                     (campaign/trace) record every cell and
                                   write one merged NDJSON event stream;
                                   each line carries its cell index and
                                   cells appear in grid order, so output
                                   is byte-identical for every --jobs
  --stream-out DIR                 (campaign) write the cell records to
                                   DIR/cells.ndjson, in grid order as
                                   cells finish (byte-identical to the
                                   --json output), and print aggregate
                                   quantiles instead of the per-cell
                                   table; every campaign streams with
                                   peak RSS O(jobs), this picks the file
  --json                           machine-readable output
  --quarantine                     enable the §6 virtio-mem countermeasure
  --faults R                       (campaign/trace) hostile-host fault
                                   injection: each choke-point operation
                                   (vIOMMU map/unmap, virtio-mem unplug,
                                   EPT split, page alloc) fails
                                   transiently with probability R
                                   [default: 0 = off]
  --fault-seed N                   fault-stream seed, mixed with each
                                   cell's host seed        [default: 0]
  --max-retries N                  retries per faulted operation before
                                   the attempt aborts      [default: 4]
  --backoff MS                     simulated backoff per retry, in
                                   milliseconds            [default: 10]
  --checkpoint PATH                (campaign) journal every finished
                                   cell so an interrupted run can be
                                   resumed: a hyperhammer-ckpt-v1 magic
                                   line, the job-spec JSON, then one
                                   fsynced `index<TAB>record` line per
                                   cell (the server spool's format too);
                                   incompatible with --trace/--stream-out
  --resume PATH                    (campaign) resume the run recorded in
                                   a checkpoint file: the grid comes
                                   from the checkpoint (grid flags are
                                   ignored), completed cells are skipped
                                   and new cells keep appending to PATH;
                                   the merged output is byte-identical
                                   to an uninterrupted run for any --jobs
  --stop-after-cells K             (campaign) cancel the run after K
                                   newly completed cells — deterministic
                                   interruption for checkpoint tests
  --spool DIR                      (serve) persist the job queue to DIR
                                   and resume unfinished jobs on restart
  --addr HOST:PORT                 (serve/client) campaign-server address
                                   [default: 127.0.0.1:7799]
  --id N                           (client) job id returned by submit
  --priority N                     (client submit) queue priority 0-255;
                                   higher runs first        [default: 0]

campaign determinism: cell seeds are split from --base-seed by position,
so results (and --trace streams) are identical for every --jobs value.";

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Selected subcommand.
    pub command: Command,
    /// Scenario preset.
    pub scenario: Scenario,
    /// Emit JSON instead of human-readable text.
    pub json: bool,
    /// The §6 virtio-mem quarantine countermeasure (`--quarantine`):
    /// already applied to [`Options::scenario`]; `campaign` and `trace`
    /// apply it to every grid row. Job specs cannot carry it.
    pub quarantine: bool,
    /// Write an NDJSON trace-event stream to this path (campaign/trace).
    pub trace: Option<String>,
    /// Write the campaign's cell records to `cells.ndjson` in this
    /// directory and print the aggregate summary (campaign).
    pub stream_out: Option<String>,
}

/// Subcommands with their parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// DRAM address-map recovery.
    Recon,
    /// Memory profiling.
    Profile {
        /// Early-stop after this many exploitable bits.
        stop_after: Option<usize>,
    },
    /// Page Steering.
    Steer {
        /// Sub-blocks to release.
        blocks: u64,
        /// Spray size in GiB.
        spray_gib: u64,
    },
    /// End-to-end attack.
    Attack {
        /// Maximum attempts.
        attempts: usize,
        /// Vulnerable bits targeted per attempt.
        bits: usize,
    },
    /// Parallel campaign sweep over a (scenario × seed) grid.
    Campaign {
        /// The grid, built from the grid flags (`jobs` is `--jobs`).
        spec: JobSpec,
        /// Journal finished cells to this checkpoint file.
        checkpoint: Option<String>,
        /// Resume the run recorded in this checkpoint file.
        resume: Option<String>,
        /// Cancel the run after this many newly completed cells.
        stop_after_cells: Option<usize>,
    },
    /// Campaign grid with tracing on; prints the per-stage breakdown.
    Trace {
        /// The grid, built from the grid flags (`jobs` is `--jobs`).
        spec: JobSpec,
    },
    /// List the registered scenario presets.
    Scenarios,
    /// Run the persistent campaign server.
    Serve {
        /// Listen address (`host:port`; port 0 for ephemeral).
        addr: String,
        /// Spool directory the job queue persists to (`--spool`).
        spool: Option<String>,
    },
    /// Talk to a campaign server.
    Client {
        /// Server address (`host:port`).
        addr: String,
        /// What to ask the server.
        action: ClientAction,
    },
    /// Analytical model.
    Analyse,
    /// Baseline comparison of bench JSON reports.
    BenchDiff {
        /// Committed baseline report path.
        baseline: String,
        /// Freshly produced report path.
        current: String,
        /// Relative tolerance (e.g. 0.15 = ±15%).
        tolerance: f64,
    },
}

/// One campaign-server request (`client <action>`).
#[derive(Debug, Clone, PartialEq)]
pub enum ClientAction {
    /// Submit a job spec built from the campaign grid flags.
    Submit {
        /// The job to submit.
        spec: JobSpec,
    },
    /// Fetch a job's status JSON.
    Status {
        /// Job id.
        id: u64,
    },
    /// Stream a job's NDJSON cells to stdout.
    Stream {
        /// Job id.
        id: u64,
    },
    /// Cancel a job.
    Cancel {
        /// Job id.
        id: u64,
    },
    /// Ask the server to shut down gracefully.
    Shutdown,
}

/// Expands and validates a `--scenarios` list into canonical lookup
/// names ([`Scenario::lookup_name`]), the form job specs store.
///
/// Entries are trimmed, empty entries (doubled/trailing commas) are
/// rejected, and duplicates are dropped keeping first-occurrence order.
/// Two expansion keywords cross into the attack-variant dimension:
/// `all` is every registered scenario × every variant, and `name@all`
/// is one scenario × every variant.
fn expand_scenario_names(raw: &str) -> Result<Vec<String>, String> {
    fn every_variant(base: &str) -> Result<Vec<String>, String> {
        let scenario = Scenario::by_name(base)?;
        Ok(AttackVariant::ALL
            .iter()
            .map(|&v| scenario.clone().with_variant(v).lookup_name())
            .collect())
    }
    let mut out: Vec<String> = Vec::new();
    for entry in raw.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err("--scenarios has an empty entry (doubled or trailing comma?)".to_string());
        }
        let names = if entry == "all" {
            let mut names = Vec::new();
            for info in Scenario::registry() {
                names.extend(every_variant(info.name)?);
            }
            names
        } else if let Some(base) = entry.strip_suffix("@all") {
            every_variant(base)?
        } else {
            vec![Scenario::by_name(entry)?.lookup_name()]
        };
        for name in names {
            if !out.contains(&name) {
                out.push(name);
            }
        }
    }
    Ok(out)
}

impl Options {
    /// Parses the argument vector. The campaign grid flags parse
    /// straight into a [`JobSpec`] — one flag per job-spec key — which
    /// `campaign`, `trace` and `client submit` validate with
    /// [`JobSpec::validate`], the check `POST /jobs` applies.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut it = args.iter().peekable();
        let command_name = it.next().ok_or("missing command")?.clone();
        // `client` takes its action as a second command word, before
        // any flags.
        let client_action_name = if command_name == "client" {
            Some(
                it.next()
                    .ok_or("client needs an action: submit|status|stream|cancel|shutdown")?
                    .clone(),
            )
        } else {
            None
        };

        let mut spec = JobSpec::default();
        let mut scenario_name = "small".to_string();
        let mut scenarios: Option<Vec<String>> = None;
        let mut seed: Option<u64> = None;
        let mut json = false;
        let mut quarantine = false;
        let mut stop_after: Option<usize> = None;
        let mut blocks: u64 = 8;
        let mut spray_gib: u64 = 2;
        let mut trace: Option<String> = None;
        let mut stream_out: Option<String> = None;
        let mut checkpoint: Option<String> = None;
        let mut resume: Option<String> = None;
        let mut stop_after_cells: Option<usize> = None;
        let mut spool: Option<String> = None;
        let mut addr = "127.0.0.1:7799".to_string();
        let mut id: Option<u64> = None;
        let mut priority: u8 = 0;
        let mut baseline: Option<String> = None;
        let mut current: Option<String> = None;
        let mut tolerance: f64 = hh_bench::baseline::DEFAULT_TOLERANCE;

        while let Some(flag) = it.next() {
            // A missing value must not swallow the next flag.
            let mut value = |name: &str| -> Result<String, String> {
                it.next_if(|v| !v.starts_with("--"))
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--scenario" => scenario_name = value("--scenario")?,
                "--seed" => {
                    seed = Some(
                        value("--seed")?
                            .parse()
                            .map_err(|e| format!("bad --seed: {e}"))?,
                    )
                }
                "--json" => json = true,
                "--quarantine" => quarantine = true,
                "--stop-after" => {
                    stop_after = Some(
                        value("--stop-after")?
                            .parse()
                            .map_err(|e| format!("bad --stop-after: {e}"))?,
                    )
                }
                "--blocks" => {
                    blocks = value("--blocks")?
                        .parse()
                        .map_err(|e| format!("bad --blocks: {e}"))?
                }
                "--spray-gib" => {
                    spray_gib = value("--spray-gib")?
                        .parse()
                        .map_err(|e| format!("bad --spray-gib: {e}"))?
                }
                "--attempts" => {
                    spec.attempts = value("--attempts")?
                        .parse()
                        .map_err(|e| format!("bad --attempts: {e}"))?
                }
                "--bits" => {
                    spec.bits = value("--bits")?
                        .parse()
                        .map_err(|e| format!("bad --bits: {e}"))?
                }
                "--scenarios" => scenarios = Some(expand_scenario_names(&value("--scenarios")?)?),
                "--seeds" => {
                    spec.seeds = value("--seeds")?
                        .parse()
                        .map_err(|e| format!("bad --seeds: {e}"))?
                }
                "--base-seed" => {
                    spec.base_seed = value("--base-seed")?
                        .parse()
                        .map_err(|e| format!("bad --base-seed: {e}"))?
                }
                "--jobs" => {
                    spec.jobs = Some(
                        value("--jobs")?
                            .parse()
                            .map_err(|e| format!("bad --jobs: {e}"))?,
                    )
                }
                "--faults" => {
                    spec.fault_rate = value("--faults")?
                        .parse()
                        .map_err(|e| format!("bad --faults: {e}"))?
                }
                "--fault-seed" => {
                    spec.fault_seed = value("--fault-seed")?
                        .parse()
                        .map_err(|e| format!("bad --fault-seed: {e}"))?
                }
                "--max-retries" => {
                    spec.max_retries = value("--max-retries")?
                        .parse()
                        .map_err(|e| format!("bad --max-retries: {e}"))?
                }
                "--backoff" => {
                    spec.backoff_ms = value("--backoff")?
                        .parse()
                        .map_err(|e| format!("bad --backoff: {e}"))?
                }
                "--trace" => trace = Some(value("--trace")?),
                "--stream-out" => stream_out = Some(value("--stream-out")?),
                "--checkpoint" => checkpoint = Some(value("--checkpoint")?),
                "--resume" => resume = Some(value("--resume")?),
                "--stop-after-cells" => {
                    let parsed: usize = value("--stop-after-cells")?
                        .parse()
                        .map_err(|e| format!("bad --stop-after-cells: {e}"))?;
                    if parsed == 0 {
                        return Err("--stop-after-cells must be at least 1".to_string());
                    }
                    stop_after_cells = Some(parsed);
                }
                "--spool" => spool = Some(value("--spool")?),
                "--addr" => addr = value("--addr")?,
                "--id" => {
                    id = Some(
                        value("--id")?
                            .parse()
                            .map_err(|e| format!("bad --id: {e}"))?,
                    )
                }
                "--priority" => {
                    priority = value("--priority")?
                        .parse()
                        .map_err(|e| format!("bad --priority: {e}"))?
                }
                "--baseline" => baseline = Some(value("--baseline")?),
                "--current" => current = Some(value("--current")?),
                "--tolerance" => {
                    tolerance = value("--tolerance")?
                        .parse()
                        .map_err(|e| format!("bad --tolerance: {e}"))?;
                    if !(tolerance.is_finite() && tolerance >= 0.0) {
                        return Err("--tolerance must be a non-negative number".to_string());
                    }
                }
                other => return Err(format!("unknown option {other}")),
            }
        }

        let mut scenario = Scenario::by_name(&scenario_name)?;
        // The grid defaults to the single --scenario selection;
        // --scenarios widens it. --seed doubles as the grid's base seed.
        spec.scenarios = scenarios.unwrap_or_else(|| vec![scenario.lookup_name()]);
        if let Some(seed) = seed {
            scenario = scenario.with_seed(seed);
            spec.base_seed = seed;
        }
        if quarantine {
            scenario = scenario.with_quarantine();
        }

        let command = match command_name.as_str() {
            "recon" => Command::Recon,
            "profile" => Command::Profile { stop_after },
            "steer" => Command::Steer { blocks, spray_gib },
            "attack" => Command::Attack {
                attempts: spec.attempts,
                bits: spec.bits,
            },
            "campaign" => {
                spec.validate()?;
                if checkpoint.is_some() && resume.is_some() {
                    return Err("--checkpoint and --resume are mutually exclusive \
                         (--resume keeps appending to its own file)"
                        .to_string());
                }
                let checkpointing = checkpoint.is_some() || resume.is_some();
                // The checkpoint header is a job spec, which (like the
                // job API) cannot carry the quarantine knob — a resumed
                // grid would silently drop it.
                if checkpointing && quarantine {
                    return Err("--quarantine is not recorded in checkpoints".to_string());
                }
                if checkpointing && (trace.is_some() || stream_out.is_some()) {
                    return Err(
                        "checkpointing does not combine with --trace or --stream-out".to_string(),
                    );
                }
                if stop_after_cells.is_some() && !checkpointing {
                    return Err("--stop-after-cells needs --checkpoint or --resume \
                         (a deliberately partial run must be resumable)"
                        .to_string());
                }
                Command::Campaign {
                    spec,
                    checkpoint,
                    resume,
                    stop_after_cells,
                }
            }
            "trace" => {
                spec.validate()?;
                Command::Trace { spec }
            }
            "scenarios" => Command::Scenarios,
            "serve" => Command::Serve { addr, spool },
            "client" => {
                let need_id = || id.ok_or("this client action needs --id N");
                let action = match client_action_name.as_deref() {
                    Some("submit") => {
                        if quarantine {
                            return Err(
                                "--quarantine is not supported over the job API".to_string()
                            );
                        }
                        // Fail on a bad spec here, with the registered
                        // scenario list, instead of at the server.
                        spec.validate()?;
                        ClientAction::Submit {
                            spec: JobSpec { priority, ..spec },
                        }
                    }
                    Some("status") => ClientAction::Status { id: need_id()? },
                    Some("stream") => ClientAction::Stream { id: need_id()? },
                    Some("cancel") => ClientAction::Cancel { id: need_id()? },
                    Some("shutdown") => ClientAction::Shutdown,
                    other => {
                        return Err(format!(
                        "unknown client action {} (expected submit|status|stream|cancel|shutdown)",
                        other.unwrap_or("<none>")
                    ))
                    }
                };
                Command::Client { addr, action }
            }
            "analyse" | "analyze" => Command::Analyse,
            "bench-diff" => Command::BenchDiff {
                baseline: baseline.ok_or("bench-diff needs --baseline PATH")?,
                current: current.ok_or("bench-diff needs --current PATH")?,
                tolerance,
            },
            other => return Err(format!("unknown command {other}")),
        };
        Ok(Self {
            command,
            scenario,
            json,
            quarantine,
            trace,
            stream_out,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Options, String> {
        Options::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_commands_and_defaults() {
        let o = parse(&["profile"]).unwrap();
        assert_eq!(o.command, Command::Profile { stop_after: None });
        assert_eq!(o.scenario.name, "small");
        assert!(!o.json);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "attack",
            "--scenario",
            "tiny",
            "--seed",
            "99",
            "--json",
            "--attempts",
            "7",
            "--bits",
            "3",
        ])
        .unwrap();
        assert_eq!(
            o.command,
            Command::Attack {
                attempts: 7,
                bits: 3
            }
        );
        assert_eq!(o.scenario.name, "tiny");
        assert!(o.json);
    }

    #[test]
    fn steer_params() {
        let o = parse(&["steer", "--blocks", "12", "--spray-gib", "3"]).unwrap();
        assert_eq!(
            o.command,
            Command::Steer {
                blocks: 12,
                spray_gib: 3
            }
        );
    }

    #[test]
    fn quarantine_flag() {
        let o = parse(&["steer", "--quarantine"]).unwrap();
        assert_eq!(
            o.scenario.host_config().quarantine,
            hh_hv::QuarantinePolicy::QemuPatch
        );
    }

    /// The grid a `campaign` command line parsed into.
    fn campaign_spec(words: &[&str]) -> JobSpec {
        match parse(words).unwrap().command {
            Command::Campaign { spec, .. } => spec,
            other => panic!("expected campaign, got {other:?}"),
        }
    }

    #[test]
    fn campaign_defaults_and_grid_flags() {
        // The defaults are the job API's defaults.
        assert_eq!(
            parse(&["campaign"]).unwrap().command,
            Command::Campaign {
                spec: JobSpec::default(),
                checkpoint: None,
                resume: None,
                stop_after_cells: None,
            }
        );

        let o = parse(&[
            "campaign",
            "--scenarios",
            "tiny,s1",
            "--seeds",
            "3",
            "--base-seed",
            "42",
            "--attempts",
            "5",
            "--bits",
            "4",
            "--jobs",
            "2",
        ])
        .unwrap();
        // Each grid flag sets the job-spec key of the same name.
        let Command::Campaign { spec, .. } = o.command else {
            panic!("expected campaign, got {:?}", o.command)
        };
        assert_eq!(
            spec,
            JobSpec {
                scenarios: vec!["tiny".to_string(), "s1".to_string()],
                seeds: 3,
                base_seed: 42,
                attempts: 5,
                bits: 4,
                jobs: Some(2),
                ..JobSpec::default()
            }
        );
        // --seed doubles as the grid's base seed.
        assert_eq!(campaign_spec(&["campaign", "--seed", "9"]).base_seed, 9);
    }

    #[test]
    fn trace_flag_and_trace_command() {
        // `campaign --trace` records the grid and names the NDJSON file.
        let o = parse(&[
            "campaign",
            "--scenarios",
            "tiny",
            "--trace",
            "events.ndjson",
        ])
        .unwrap();
        assert_eq!(o.trace.as_deref(), Some("events.ndjson"));
        assert!(matches!(o.command, Command::Campaign { .. }));
        // Plain commands default to no tracing.
        let o = parse(&["campaign"]).unwrap();
        assert_eq!(o.trace, None);
        // `trace` reuses the campaign grid flags.
        let o = parse(&[
            "trace",
            "--scenario",
            "tiny",
            "--seeds",
            "2",
            "--base-seed",
            "7",
            "--attempts",
            "3",
            "--bits",
            "4",
            "--jobs",
            "2",
        ])
        .unwrap();
        assert_eq!(
            o.command,
            Command::Trace {
                spec: JobSpec {
                    scenarios: vec!["tiny".to_string()],
                    seeds: 2,
                    base_seed: 7,
                    attempts: 3,
                    bits: 4,
                    jobs: Some(2),
                    ..JobSpec::default()
                }
            }
        );
        // --trace needs a path.
        assert!(parse(&["campaign", "--trace"]).is_err());
    }

    #[test]
    fn streaming_flags() {
        let o = parse(&[
            "campaign",
            "--scenarios",
            "micro",
            "--stream-out",
            "/tmp/shards",
        ])
        .unwrap();
        assert_eq!(o.stream_out.as_deref(), Some("/tmp/shards"));
        // Default: in-memory.
        let o = parse(&["campaign"]).unwrap();
        assert_eq!(o.stream_out, None);
        // The flag needs a value; the removed auto-switch is unknown.
        assert!(parse(&["campaign", "--stream-out"]).is_err());
        assert!(parse(&["campaign", "--max-cells-in-memory", "256"]).is_err());
    }

    #[test]
    fn fault_flags() {
        let spec = campaign_spec(&[
            "campaign",
            "--faults",
            "0.05",
            "--fault-seed",
            "11",
            "--max-retries",
            "2",
            "--backoff",
            "25",
        ]);
        assert_eq!(
            (
                spec.fault_rate,
                spec.fault_seed,
                spec.max_retries,
                spec.backoff_ms
            ),
            (0.05, 11, 2, 25)
        );
        let config = spec.fault_config();
        assert!(config.is_active());
        assert_eq!(config.seed, 11);
        let retry = spec.retry_policy();
        assert_eq!(retry.max_retries, 2);
        assert_eq!(retry.backoff, hh_sim::clock::SimDuration::from_millis(25));
        assert!(retry.degrade);
        assert!(!JobSpec::default().fault_config().is_active());
        // The rate must be a probability.
        assert!(parse(&["campaign", "--faults", "1.5"]).is_err());
        assert!(parse(&["campaign", "--faults", "-0.1"]).is_err());
        assert!(parse(&["campaign", "--faults", "NaN"]).is_err());
        assert!(parse(&["campaign", "--faults"]).is_err());
    }

    #[test]
    fn checkpoint_flags() {
        let o = parse(&[
            "campaign",
            "--scenarios",
            "tiny",
            "--checkpoint",
            "ck.bin",
            "--stop-after-cells",
            "2",
        ])
        .unwrap();
        match &o.command {
            Command::Campaign {
                checkpoint,
                resume,
                stop_after_cells,
                ..
            } => {
                assert_eq!(checkpoint.as_deref(), Some("ck.bin"));
                assert_eq!(*resume, None);
                assert_eq!(*stop_after_cells, Some(2));
            }
            other => panic!("expected campaign, got {other:?}"),
        }
        // Resume carries its own grid; only the path and the worker
        // count travel.
        let o = parse(&["campaign", "--resume", "ck.bin", "--jobs", "2"]).unwrap();
        match &o.command {
            Command::Campaign {
                spec,
                resume,
                checkpoint,
                ..
            } => {
                assert_eq!(resume.as_deref(), Some("ck.bin"));
                assert_eq!(*checkpoint, None);
                assert_eq!(spec.jobs, Some(2));
            }
            other => panic!("expected campaign, got {other:?}"),
        }
        // Mutually exclusive / dependent flags.
        assert!(parse(&["campaign", "--checkpoint", "a", "--resume", "b"]).is_err());
        assert!(parse(&["campaign", "--checkpoint", "a", "--quarantine"]).is_err());
        assert!(parse(&["campaign", "--checkpoint", "a", "--trace", "t.ndjson"]).is_err());
        assert!(parse(&["campaign", "--checkpoint", "a", "--stream-out", "/tmp/x"]).is_err());
        assert!(parse(&["campaign", "--stop-after-cells", "2"]).is_err());
        assert!(parse(&["campaign", "--checkpoint", "a", "--stop-after-cells", "0"]).is_err());
        // Every record is synced; the removed cadence flag is unknown.
        assert!(parse(&["campaign", "--checkpoint", "a", "--checkpoint-every", "3"]).is_err());
        assert!(parse(&["campaign", "--checkpoint"]).is_err());
        assert!(parse(&["campaign", "--resume"]).is_err());
    }

    #[test]
    fn campaign_quarantine_applies_to_grid() {
        use crate::commands::campaign_grid;
        use hh_hv::QuarantinePolicy;
        use hh_trace::TraceMode;
        // `campaign` and `trace` both run the grid `campaign_grid` builds.
        for command in ["campaign", "trace"] {
            for (quarantine, policy) in [
                (false, QuarantinePolicy::Off),
                (true, QuarantinePolicy::QemuPatch),
            ] {
                let mut words = vec![command, "--scenarios", "tiny,micro@balloon"];
                if quarantine {
                    words.push("--quarantine");
                }
                let o = parse(&words).unwrap();
                let spec = match &o.command {
                    Command::Campaign { spec, .. } | Command::Trace { spec } => spec,
                    other => panic!("expected {command}, got {other:?}"),
                };
                let grid = campaign_grid(&o, spec, TraceMode::Off).unwrap();
                assert_eq!(grid.scenarios().len(), 2);
                for scenario in grid.scenarios() {
                    assert_eq!(scenario.host_config().quarantine, policy, "{words:?}");
                }
            }
        }
    }

    #[test]
    fn bench_diff_flags() {
        let o = parse(&[
            "bench-diff",
            "--baseline",
            "BENCH_dram.json",
            "--current",
            "/tmp/new.json",
            "--tolerance",
            "0.5",
        ])
        .unwrap();
        assert_eq!(
            o.command,
            Command::BenchDiff {
                baseline: "BENCH_dram.json".to_string(),
                current: "/tmp/new.json".to_string(),
                tolerance: 0.5,
            }
        );
        // Tolerance defaults to the library constant.
        let o = parse(&["bench-diff", "--baseline", "a", "--current", "b"]).unwrap();
        match o.command {
            Command::BenchDiff { tolerance, .. } => {
                assert_eq!(tolerance, hh_bench::baseline::DEFAULT_TOLERANCE)
            }
            other => panic!("expected bench-diff, got {other:?}"),
        }
        // Both paths are mandatory; tolerance must be a sane number.
        assert!(parse(&["bench-diff", "--current", "b"]).is_err());
        assert!(parse(&["bench-diff", "--baseline", "a"]).is_err());
        assert!(parse(&[
            "bench-diff",
            "--baseline",
            "a",
            "--current",
            "b",
            "--tolerance",
            "-1"
        ])
        .is_err());
        assert!(parse(&[
            "bench-diff",
            "--baseline",
            "a",
            "--current",
            "b",
            "--tolerance",
            "x"
        ])
        .is_err());
    }

    #[test]
    fn scenarios_serve_and_client_commands() {
        assert_eq!(parse(&["scenarios"]).unwrap().command, Command::Scenarios);
        assert_eq!(
            parse(&["serve", "--addr", "127.0.0.1:0"]).unwrap().command,
            Command::Serve {
                addr: "127.0.0.1:0".to_string(),
                spool: None,
            }
        );
        assert_eq!(
            parse(&["serve", "--spool", "/tmp/spool"]).unwrap().command,
            Command::Serve {
                addr: "127.0.0.1:7799".to_string(),
                spool: Some("/tmp/spool".to_string()),
            }
        );

        let o = parse(&[
            "client",
            "submit",
            "--scenarios",
            "tiny,micro",
            "--seeds",
            "2",
            "--base-seed",
            "9",
            "--attempts",
            "3",
            "--bits",
            "4",
            "--priority",
            "7",
        ])
        .unwrap();
        match &o.command {
            Command::Client {
                addr,
                action: ClientAction::Submit { spec },
            } => {
                assert_eq!(addr, "127.0.0.1:7799", "default address");
                assert_eq!(
                    spec.scenarios,
                    vec!["tiny".to_string(), "micro".to_string()]
                );
                assert_eq!(
                    (spec.seeds, spec.base_seed, spec.attempts, spec.bits),
                    (2, 9, 3, 4)
                );
                assert_eq!(spec.priority, 7);
            }
            other => panic!("expected client submit, got {other:?}"),
        }

        let o = parse(&["client", "status", "--id", "5", "--addr", "localhost:9"]).unwrap();
        assert_eq!(
            o.command,
            Command::Client {
                addr: "localhost:9".to_string(),
                action: ClientAction::Status { id: 5 },
            }
        );
        assert_eq!(
            parse(&["client", "stream", "--id", "2"]).unwrap().command,
            Command::Client {
                addr: "127.0.0.1:7799".to_string(),
                action: ClientAction::Stream { id: 2 },
            }
        );
        assert_eq!(
            parse(&["client", "cancel", "--id", "2"]).unwrap().command,
            Command::Client {
                addr: "127.0.0.1:7799".to_string(),
                action: ClientAction::Cancel { id: 2 },
            }
        );
        assert!(matches!(
            parse(&["client", "shutdown"]).unwrap().command,
            Command::Client {
                action: ClientAction::Shutdown,
                ..
            }
        ));
    }

    #[test]
    fn client_rejects_bad_requests() {
        // Action word required; id-taking actions need --id.
        assert!(parse(&["client"]).is_err());
        assert!(parse(&["client", "teleport"]).is_err());
        assert!(parse(&["client", "status"]).is_err());
        assert!(parse(&["client", "stream"]).is_err());
        // Unknown scenarios fail at parse time, naming the registry.
        let err = parse(&["client", "submit", "--scenarios", "warp9"]).unwrap_err();
        assert!(err.contains("unknown scenario warp9"), "got: {err}");
        assert!(err.contains("tiny"), "error lists registered names: {err}");
        // Quarantine is a local-grid knob, not a job-spec field.
        assert!(parse(&["client", "submit", "--quarantine"]).is_err());
        // Priority must fit a u8.
        assert!(parse(&["client", "submit", "--priority", "300"]).is_err());
    }

    #[test]
    fn scenario_lists_are_trimmed_and_deduped() {
        // Whitespace around entries is insignificant.
        let spec = campaign_spec(&["campaign", "--scenarios", " tiny , s1 "]);
        assert_eq!(spec.scenarios, ["tiny", "s1"]);
        // Duplicates collapse, keeping first-occurrence order; names are
        // compared in canonical form.
        let spec = campaign_spec(&["campaign", "--scenarios", "s1,tiny,s1,tiny@virtio-mem"]);
        assert_eq!(spec.scenarios, ["s1", "tiny"]);
        // Empty entries are an error, not silently-dropped cells.
        for bad in ["tiny,", ",tiny", "tiny,,s1", " , "] {
            let err = parse(&["campaign", "--scenarios", bad]).unwrap_err();
            assert!(err.contains("empty entry"), "for {bad:?} got: {err}");
        }
    }

    #[test]
    fn scenario_lists_expand_variants() {
        let variants = |spec: &JobSpec| -> Vec<AttackVariant> {
            let grid = spec.to_grid().unwrap();
            grid.scenarios().iter().map(Scenario::variant).collect()
        };
        // `name@all` crosses one scenario with every attack variant.
        let spec = campaign_spec(&["campaign", "--scenarios", "tiny@all"]);
        assert_eq!(spec.scenarios.len(), AttackVariant::COUNT);
        assert!(spec.scenarios.iter().all(|s| s.starts_with("tiny")));
        assert_eq!(variants(&spec), AttackVariant::ALL);
        // `all` is the full registry × variant matrix, deduped.
        let spec = campaign_spec(&["campaign", "--scenarios", "all,tiny,s1@xen"]);
        assert_eq!(
            spec.scenarios.len(),
            Scenario::registry().len() * AttackVariant::COUNT
        );
        // Explicit variant suffixes parse; bad ones fail loudly.
        let spec = campaign_spec(&["campaign", "--scenarios", "tiny@balloon,tiny"]);
        assert_eq!(spec.scenarios.len(), 2, "variants are distinct grid rows");
        assert_eq!(
            variants(&spec),
            [AttackVariant::Balloon, AttackVariant::VirtioMem]
        );
        let err = parse(&["campaign", "--scenarios", "tiny@warp"]).unwrap_err();
        assert!(err.contains("unknown attack variant"), "got: {err}");
        let err = parse(&["campaign", "--scenarios", "mars@all"]).unwrap_err();
        assert!(err.contains("unknown scenario"), "got: {err}");
    }

    #[test]
    fn mutated_args_never_panic() {
        use hh_sim::check;
        // Real command lines; each case drops, repeats or byte-mutates a
        // few of their tokens.
        let lines: [&[&str]; 7] = [
            &[
                "campaign",
                "--scenarios",
                "tiny@all,micro",
                "--seeds",
                "3",
                "--base-seed",
                "7",
                "--attempts",
                "2",
                "--bits",
                "4",
                "--jobs",
                "2",
                "--faults",
                "0.05",
                "--fault-seed",
                "11",
                "--max-retries",
                "2",
                "--backoff",
                "25",
                "--json",
            ],
            &[
                "campaign",
                "--scenarios",
                "tiny",
                "--checkpoint",
                "ck",
                "--stop-after-cells",
                "2",
            ],
            &[
                "trace",
                "--scenario",
                "tiny",
                "--seeds",
                "2",
                "--quarantine",
            ],
            &["client", "submit", "--scenarios", "all", "--priority", "7"],
            &["client", "status", "--id", "5", "--addr", "127.0.0.1:0"],
            &["bench-diff", "--baseline", "a", "--current", "b"],
            &["steer", "--blocks", "12", "--spray-gib", "3", "--seed", "9"],
        ];
        assert!(lines.iter().all(|words| parse(words).is_ok()));
        const ALPHABET: &[u8] = b"-,@0123456789e.allmicrotinys1xen";
        let mut valid_grids = 0;
        check::cases(0xa7_95, check::DEFAULT_CASES * 4, |rng| {
            let line = lines[rng.gen_range(0..lines.len())];
            let mut tokens: Vec<Vec<u8>> = line.iter().map(|w| w.as_bytes().to_vec()).collect();
            for _ in 0..rng.gen_range(1usize..3) {
                let at = rng.gen_range(0..tokens.len());
                match rng.gen_range(0u8..4) {
                    0 => drop(tokens.remove(at)),
                    1 => tokens.insert(at, tokens[at].clone()),
                    _ => check::mutate(rng, &mut tokens[at], ALPHABET),
                }
                if tokens.is_empty() {
                    break;
                }
            }
            let args: Vec<String> = tokens
                .iter()
                .map(|token| String::from_utf8_lossy(token).into_owned())
                .collect();
            match Options::parse(&args) {
                Ok(o) => match o.command {
                    Command::Campaign { spec, .. }
                    | Command::Trace { spec }
                    | Command::Client {
                        action: ClientAction::Submit { spec },
                        ..
                    } => {
                        assert!(spec.validate().is_ok(), "{args:?} parsed to {spec:?}");
                        valid_grids += 1;
                    }
                    _ => {}
                },
                Err(msg) => assert!(!msg.is_empty(), "empty error for {args:?}"),
            }
        });
        assert!(valid_grids > 0, "the sweep must reach parsed grids");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(&["campaign", "--scenarios", "tiny,mars"]).is_err());
        // Grid commands validate like `POST /jobs` does.
        for command in [&["campaign"][..], &["trace"], &["client", "submit"]] {
            for bad in [
                &["--seeds", "0"][..],
                &["--attempts", "0"],
                &["--bits", "0"],
                &["--scenarios", "tiny,micro", "--seeds", "4194304"],
            ] {
                let words: Vec<&str> = command.iter().chain(bad).copied().collect();
                assert!(parse(&words).is_err(), "{words:?} must be rejected");
            }
        }
        assert!(parse(&[]).is_err());
        assert!(parse(&["bogus"]).is_err());
        assert!(parse(&["profile", "--scenario"]).is_err());
        // A flag's value may not be the next flag.
        for words in [
            &[
                "campaign",
                "--scenarios",
                "tiny",
                "--checkpoint",
                "--stop-after-cells",
                "2",
            ][..],
            &["campaign", "--scenarios", "tiny", "--trace", "--json"],
            &["trace", "--scenarios", "tiny", "--seeds", "--json"],
        ] {
            let err = parse(words).unwrap_err();
            assert!(err.ends_with("needs a value"), "{words:?}: {err}");
        }
        assert!(parse(&["profile", "--scenario", "mars"]).is_err());
        assert!(parse(&["profile", "--wat"]).is_err());
        assert!(parse(&["profile", "--seed", "abc"]).is_err());
    }
}
