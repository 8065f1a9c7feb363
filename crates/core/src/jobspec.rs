//! Campaign job specifications — the shared description of "one
//! campaign run" used by both the CLI `campaign` command and the
//! campaign server's `POST /jobs` API.
//!
//! The byte-identity contract between the two fronts (a server job's
//! streamed NDJSON must equal the serial CLI run's `--json` output)
//! holds **by construction**: the CLI parses its grid flags straight
//! into a [`JobSpec`], and both fronts build their [`CampaignGrid`]
//! through [`JobSpec::to_grid`], so driver parameters, fault plans,
//! retry policies and seed derivation can never drift apart.
//!
//! The spec's JSON form ([`job_spec_from_json`], [`job_spec_to_json`])
//! is what `POST /jobs` accepts, what the CLI client sends and what
//! journal headers store.

use hh_hv::FaultConfig;
use hh_sim::clock::SimDuration;
use hh_sim::json::{self, to_json_line, Json, ObjectWriter, ToJson};

use crate::driver::DriverParams;
use crate::machine::Scenario;
use crate::parallel::CampaignGrid;
use crate::steering::RetryPolicy;

/// The largest grid a job spec may describe. Job specs arrive from
/// outside (`POST /jobs`, checkpoint and spool headers) and every
/// consumer allocates per-cell state up front, so an unbounded
/// `seeds` would overflow or exhaust memory before a single cell runs.
/// 4 Mi cells is three orders of magnitude above the largest grid CI
/// or the docs use (4096) and above the 10⁶-cell production sweeps the
/// streaming path targets.
pub const MAX_CELLS: usize = 1 << 22;

/// Everything that defines one campaign run: the scenario list, the
/// seed grid, the attack budget, fault injection, and (server-side)
/// scheduling hints. Plain data; field defaults mirror the CLI's.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Registered scenario lookup names (`"tiny"`, `"s1"`, …).
    pub scenarios: Vec<String>,
    /// Experiment seeds per scenario, derived from `base_seed`.
    pub seeds: usize,
    /// Base of the split-seed derivation.
    pub base_seed: u64,
    /// Attack attempts per cell.
    pub attempts: usize,
    /// Catalogued bits targeted per attempt.
    pub bits: usize,
    /// Requested worker count (`None` = all available parallelism).
    /// Cannot change results — only wall-clock time.
    pub jobs: Option<usize>,
    /// Server queue priority: higher runs first among queued jobs.
    pub priority: u8,
    /// Uniform transient-fault injection rate (0 disables).
    pub fault_rate: f64,
    /// Fault-stream seed.
    pub fault_seed: u64,
    /// Retries per faulted operation.
    pub max_retries: u32,
    /// Simulated backoff per retry, in milliseconds.
    pub backoff_ms: u64,
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            scenarios: vec!["small".to_string()],
            seeds: 1,
            base_seed: 0,
            attempts: 50,
            bits: 12,
            jobs: None,
            priority: 0,
            fault_rate: 0.0,
            fault_seed: 0,
            max_retries: 4,
            backoff_ms: 10,
        }
    }
}

impl JobSpec {
    /// Validates the spec without building anything: every scenario
    /// name must be registered, and the numeric fields must describe a
    /// non-empty, runnable grid of at most [`MAX_CELLS`] cells.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first problem found —
    /// unknown scenario names include the registered list.
    pub fn validate(&self) -> Result<(), String> {
        if self.scenarios.is_empty() {
            return Err("job spec needs at least one scenario".to_string());
        }
        for name in &self.scenarios {
            Scenario::by_name(name)?;
        }
        if self.seeds == 0 {
            return Err("seeds must be at least 1".to_string());
        }
        if self.cell_count().is_none_or(|cells| cells > MAX_CELLS) {
            return Err(format!(
                "grid too large: {} scenarios x {} seeds exceeds {MAX_CELLS} cells",
                self.scenarios.len(),
                self.seeds
            ));
        }
        if self.attempts == 0 {
            return Err("attempts must be at least 1".to_string());
        }
        if self.bits == 0 {
            return Err("bits must be at least 1".to_string());
        }
        if !(self.fault_rate.is_finite() && (0.0..=1.0).contains(&self.fault_rate)) {
            return Err("fault_rate must be a rate in 0..=1".to_string());
        }
        Ok(())
    }

    /// Total cell count of the grid this spec describes, or `None` when
    /// it overflows `usize` (a [validated](JobSpec::validate) spec
    /// always has a count, at most [`MAX_CELLS`]).
    pub fn cell_count(&self) -> Option<usize> {
        self.scenarios.len().checked_mul(self.seeds)
    }

    /// The host-side fault plan this spec describes.
    pub fn fault_config(&self) -> FaultConfig {
        FaultConfig::uniform(self.fault_rate).with_seed(self.fault_seed)
    }

    /// The driver-side recovery policy this spec describes.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: self.max_retries,
            backoff: SimDuration::from_millis(self.backoff_ms),
            degrade: true,
        }
    }

    /// Resolves the scenario names and builds the grid — the one place
    /// driver parameters, fault plan and seed grid are assembled, for
    /// the CLI, checkpoints and the campaign server alike.
    ///
    /// Tracing is left [`Off`](hh_trace::TraceMode::Off); callers that
    /// trace add `.with_trace(..)` on top.
    ///
    /// # Errors
    ///
    /// See [`JobSpec::validate`].
    pub fn to_grid(&self) -> Result<CampaignGrid, String> {
        self.validate()?;
        let scenarios = self
            .scenarios
            .iter()
            .map(|name| Scenario::by_name(name))
            .collect::<Result<Vec<_>, _>>()?;
        let params = DriverParams {
            bits_per_attempt: self.bits,
            retry: self.retry_policy(),
            ..DriverParams::paper()
        };
        Ok(CampaignGrid::new(scenarios, params, self.attempts)
            .with_faults(self.fault_config())
            .with_seed_count(self.base_seed, self.seeds))
    }
}

/// Decodes a job-spec JSON object into a [`JobSpec`], starting from the
/// spec defaults. Unknown keys are rejected by name so a typo like
/// `"seedz"` fails loudly instead of silently running the default.
///
/// # Errors
///
/// Syntax errors, unknown keys, wrong member types, or a spec that
/// fails [`JobSpec::validate`] (e.g. an unregistered scenario name).
pub fn job_spec_from_json(text: &str) -> Result<JobSpec, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let members = doc.as_object().ok_or("job spec must be a JSON object")?;
    let mut spec = JobSpec::default();
    for (key, value) in members {
        match key.as_str() {
            "scenarios" => {
                let items = value
                    .as_array()
                    .ok_or("\"scenarios\" must be an array of names")?;
                spec.scenarios = items
                    .iter()
                    .map(|item| {
                        item.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| "\"scenarios\" entries must be strings".to_string())
                    })
                    .collect::<Result<_, _>>()?;
            }
            "seeds" => spec.seeds = need_usize(key, value)?,
            "base_seed" => spec.base_seed = need_u64(key, value)?,
            "attempts" => spec.attempts = need_usize(key, value)?,
            "bits" => spec.bits = need_usize(key, value)?,
            "jobs" => {
                spec.jobs = match value {
                    Json::Null => None,
                    _ => Some(need_usize(key, value)?),
                }
            }
            "priority" => {
                let raw = need_u64(key, value)?;
                spec.priority = u8::try_from(raw)
                    .map_err(|_| format!("\"priority\" must fit a u8, got {raw}"))?;
            }
            "fault_rate" => {
                spec.fault_rate = value.as_f64().ok_or("\"fault_rate\" must be a number")?;
            }
            "fault_seed" => spec.fault_seed = need_u64(key, value)?,
            "max_retries" => {
                let raw = need_u64(key, value)?;
                spec.max_retries = u32::try_from(raw)
                    .map_err(|_| format!("\"max_retries\" must fit a u32, got {raw}"))?;
            }
            "backoff_ms" => spec.backoff_ms = need_u64(key, value)?,
            other => {
                return Err(format!(
                    "unknown job-spec key {other:?} (known: scenarios, seeds, base_seed, \
                     attempts, bits, jobs, priority, fault_rate, fault_seed, max_retries, \
                     backoff_ms)"
                ))
            }
        }
    }
    spec.validate()?;
    Ok(spec)
}

fn need_usize(key: &str, value: &Json) -> Result<usize, String> {
    value
        .as_usize()
        .ok_or_else(|| format!("{key:?} must be a non-negative integer"))
}

fn need_u64(key: &str, value: &Json) -> Result<u64, String> {
    value
        .as_u64()
        .ok_or_else(|| format!("{key:?} must be a non-negative integer"))
}

/// Serializes a [`JobSpec`] to the one-line JSON [`job_spec_from_json`]
/// accepts, so flag-built specs round-trip exactly.
pub fn job_spec_to_json(spec: &JobSpec) -> String {
    to_json_line(spec)
}

impl ToJson for JobSpec {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string_array("scenarios", &self.scenarios);
        obj.number("seeds", self.seeds);
        obj.number("base_seed", self.base_seed);
        obj.number("attempts", self.attempts);
        obj.number("bits", self.bits);
        obj.opt_number("jobs", self.jobs);
        obj.number("priority", self.priority);
        obj.float("fault_rate", self.fault_rate);
        obj.number("fault_seed", self.fault_seed);
        obj.number("max_retries", self.max_retries);
        obj.number("backoff_ms", self.backoff_ms);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    fn tiny_spec() -> JobSpec {
        JobSpec {
            scenarios: vec!["tiny".to_string()],
            seeds: 2,
            base_seed: 0x717e,
            attempts: 2,
            bits: 4,
            ..JobSpec::default()
        }
    }

    #[test]
    fn validation_catches_bad_specs() {
        assert!(tiny_spec().validate().is_ok());

        let mut bad = tiny_spec();
        bad.scenarios = vec!["warp9".to_string()];
        let err = bad.validate().unwrap_err();
        assert!(err.contains("unknown scenario warp9"), "got: {err}");
        assert!(err.contains("tiny"), "error must list registered names");

        let mut bad = tiny_spec();
        bad.scenarios.clear();
        assert!(bad.validate().is_err());

        let mut bad = tiny_spec();
        bad.seeds = 0;
        assert!(bad.validate().is_err());

        let mut bad = tiny_spec();
        bad.fault_rate = 1.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn oversized_grids_are_rejected_without_overflow() {
        let mut spec = tiny_spec();
        spec.seeds = usize::MAX;
        assert_eq!(spec.cell_count(), Some(usize::MAX));
        spec.scenarios = vec!["tiny".to_string(), "micro".to_string()];
        assert_eq!(spec.cell_count(), None, "2 x usize::MAX overflows");
        let err = spec.validate().unwrap_err();
        assert!(err.contains("grid too large"), "got: {err}");

        // The bound itself is inclusive.
        spec.scenarios = vec!["tiny".to_string()];
        spec.seeds = MAX_CELLS;
        assert!(spec.validate().is_ok());
        spec.seeds = MAX_CELLS + 1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn spec_grid_matches_hand_built_grid() {
        // The spec-built grid must equal what the CLI used to assemble
        // by hand — same cells, same results.
        let spec = tiny_spec();
        let grid = spec.to_grid().unwrap();
        assert_eq!(Some(grid.len()), spec.cell_count());

        let params = DriverParams {
            bits_per_attempt: 4,
            retry: spec.retry_policy(),
            ..DriverParams::paper()
        };
        let reference = CampaignGrid::new(vec![Scenario::tiny_demo()], params, 2)
            .with_faults(spec.fault_config())
            .with_seed_count(0x717e, 2);

        let a = grid.run(NonZeroUsize::new(2).unwrap()).unwrap();
        let b = reference.run(NonZeroUsize::new(1).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn default_spec_mirrors_cli_defaults() {
        let spec = JobSpec::default();
        assert_eq!(spec.scenarios, vec!["small".to_string()]);
        assert_eq!((spec.seeds, spec.attempts, spec.bits), (1, 50, 12));
        assert_eq!((spec.max_retries, spec.backoff_ms), (4, 10));
        assert!(!spec.fault_config().is_active());
    }

    #[test]
    fn job_spec_round_trips_through_json() {
        let spec = JobSpec {
            scenarios: vec!["tiny".to_string(), "micro".to_string()],
            seeds: 3,
            base_seed: u64::MAX - 14,
            attempts: 7,
            bits: 5,
            jobs: Some(2),
            priority: 9,
            fault_rate: 0.25,
            fault_seed: 0xfa01,
            max_retries: 2,
            backoff_ms: 1,
        };
        let text = job_spec_to_json(&spec);
        let parsed = job_spec_from_json(&text).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn partial_spec_fills_defaults() {
        let spec = job_spec_from_json(r#"{"scenarios": ["tiny"], "seeds": 2}"#).unwrap();
        assert_eq!(spec.scenarios, vec!["tiny".to_string()]);
        assert_eq!(spec.seeds, 2);
        let defaults = JobSpec::default();
        assert_eq!(spec.attempts, defaults.attempts);
        assert_eq!(spec.bits, defaults.bits);
    }

    #[test]
    fn unknown_keys_and_bad_scenarios_fail_loudly() {
        let err = job_spec_from_json(r#"{"seedz": 2}"#).unwrap_err();
        assert!(err.contains("unknown job-spec key \"seedz\""), "got: {err}");
        assert!(err.contains("scenarios"), "error must list known keys");

        let err = job_spec_from_json(r#"{"scenarios": ["warp9"]}"#).unwrap_err();
        assert!(err.contains("unknown scenario warp9"), "got: {err}");
        assert!(err.contains("registered"), "got: {err}");

        let err = job_spec_from_json(r#"{"scenarios": "tiny"}"#).unwrap_err();
        assert!(err.contains("array"), "got: {err}");

        let err = job_spec_from_json(r#"{"priority": 300}"#).unwrap_err();
        assert!(err.contains("u8"), "got: {err}");
    }
}
