//! Result records for `--json` output.
//!
//! Each record implements [`ToJson`], the workspace's one record trait,
//! and is rendered by [`hh_sim::json`]'s object writer: pretty
//! ([`to_json`]) for the single-record commands, one line
//! ([`to_json_line`]) for NDJSON streams such as `--trace`.

pub use hh_sim::json::{to_json, to_json_line};
use hh_sim::json::{ObjectWriter, ToJson};

/// `recon` result.
#[derive(Debug)]
pub struct ReconOut {
    /// Scenario name.
    pub scenario: String,
    /// Recovered XOR masks, one per bank bit.
    pub bank_masks: Vec<u64>,
    /// Bank count.
    pub banks: u32,
    /// Whether the recovered function matches the installed one.
    pub equivalent: bool,
    /// Timing measurements consumed.
    pub measurements: u64,
    /// Proven row bits.
    pub row_bits: Vec<u32>,
}

impl ToJson for ReconOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("scenario", &self.scenario);
        obj.number_array("bank_masks", self.bank_masks.iter());
        obj.number("banks", self.banks);
        obj.bool("equivalent", self.equivalent);
        obj.number("measurements", self.measurements);
        obj.number_array("row_bits", self.row_bits.iter());
    }
}

/// `profile` result.
#[derive(Debug)]
pub struct ProfileOut {
    /// Scenario name.
    pub scenario: String,
    /// Simulated profiling hours.
    pub sim_hours: f64,
    /// Total flips found.
    pub total: usize,
    /// 1→0 flips.
    pub one_to_zero: usize,
    /// 0→1 flips.
    pub zero_to_one: usize,
    /// Stable flips.
    pub stable: usize,
    /// Exploitable flips.
    pub exploitable: usize,
    /// Hammer-plan cache hits during the campaign.
    pub plan_hits: u64,
    /// Hammer-plan compiles during the campaign.
    pub plan_misses: u64,
}

impl ToJson for ProfileOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("scenario", &self.scenario);
        obj.float("sim_hours", self.sim_hours);
        obj.number("total", self.total);
        obj.number("one_to_zero", self.one_to_zero);
        obj.number("zero_to_one", self.zero_to_one);
        obj.number("stable", self.stable);
        obj.number("exploitable", self.exploitable);
        obj.number("plan_hits", self.plan_hits);
        obj.number("plan_misses", self.plan_misses);
    }
}

/// `steer` result.
#[derive(Debug)]
pub struct SteerOut {
    /// Scenario name.
    pub scenario: String,
    /// Noise pages before/after exhaustion.
    pub noise_before: u64,
    /// Noise pages after exhaustion.
    pub noise_after: u64,
    /// Released pages (N).
    pub released_pages: u64,
    /// EPT pages (E).
    pub ept_pages: u64,
    /// Reused pages (R).
    pub reused_pages: u64,
    /// R/N.
    pub r_n: f64,
    /// R/E.
    pub r_e: f64,
}

impl ToJson for SteerOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("scenario", &self.scenario);
        obj.number("noise_before", self.noise_before);
        obj.number("noise_after", self.noise_after);
        obj.number("released_pages", self.released_pages);
        obj.number("ept_pages", self.ept_pages);
        obj.number("reused_pages", self.reused_pages);
        obj.float("r_n", self.r_n);
        obj.float("r_e", self.r_e);
    }
}

/// `attack` result.
#[derive(Debug)]
pub struct AttackOut {
    /// Scenario name.
    pub scenario: String,
    /// Attempts executed.
    pub attempts: usize,
    /// 1-based index of the first success, if any.
    pub first_success: Option<usize>,
    /// Mean simulated minutes per attempt.
    pub avg_attempt_mins: f64,
    /// Simulated hours to first success.
    pub hours_to_success: Option<f64>,
    /// Value read from host memory by the escape, if successful.
    pub escape_read: Option<u64>,
}

impl ToJson for AttackOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("scenario", &self.scenario);
        obj.number("attempts", self.attempts);
        obj.opt_number("first_success", self.first_success);
        obj.float("avg_attempt_mins", self.avg_attempt_mins);
        obj.opt_float("hours_to_success", self.hours_to_success);
        obj.opt_number("escape_read", self.escape_read);
    }
}

/// `campaign` result: one line per (scenario, seed) grid cell.
#[derive(Debug)]
pub struct CampaignCellOut {
    /// Scenario name.
    pub scenario: String,
    /// Experiment seed for this cell.
    pub seed: u64,
    /// Attempts executed.
    pub attempts: usize,
    /// 1-based index of the first success, if any.
    pub first_success: Option<usize>,
    /// Mean simulated minutes per attempt.
    pub avg_attempt_mins: f64,
    /// Simulated hours to first success.
    pub hours_to_success: Option<f64>,
}

impl ToJson for CampaignCellOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("scenario", &self.scenario);
        obj.number("seed", self.seed);
        obj.number("attempts", self.attempts);
        obj.opt_number("first_success", self.first_success);
        obj.float("avg_attempt_mins", self.avg_attempt_mins);
        obj.opt_float("hours_to_success", self.hours_to_success);
    }
}

/// One attack-variant row of the `scenarios` listing (`--json` NDJSON
/// form): the `@` suffix every scenario name accepts.
#[derive(Debug)]
pub struct AttackVariantOut {
    /// Variant label (the `@` suffix).
    pub variant: String,
    /// One-line description.
    pub description: String,
}

impl ToJson for AttackVariantOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("variant", &self.variant);
        obj.string("description", &self.description);
    }
}

/// One `scenarios` listing row (`--json` NDJSON form).
#[derive(Debug)]
pub struct ScenarioOut {
    /// Lookup name accepted by `--scenario(s)` and job specs.
    pub name: String,
    /// Label the built scenario carries.
    pub label: String,
    /// One-line description.
    pub description: String,
}

impl ToJson for ScenarioOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("name", &self.name);
        obj.string("label", &self.label);
        obj.string("description", &self.description);
    }
}

/// One `--trace` NDJSON line: a time-stamped event plus the campaign
/// cell it came from. Field order is fixed (`cell`, `t_ns`, `event`,
/// payload…) so merged streams are byte-stable.
#[derive(Debug)]
pub struct TraceEventOut {
    /// Campaign-grid cell index (0 outside grids).
    pub cell: usize,
    /// The time-stamped observation.
    pub event: hh_trace::TimedEvent,
}

impl ToJson for TraceEventOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        use hh_trace::Event;
        obj.number("cell", self.cell);
        obj.number("t_ns", self.event.nanos);
        obj.string("event", self.event.event.kind());
        match self.event.event {
            Event::Hammer {
                activations,
                trr_refreshes,
                flips,
            } => {
                obj.number("activations", activations);
                obj.number("trr_refreshes", trr_refreshes);
                obj.number("flips", flips);
            }
            Event::BitFlip {
                hpa,
                bit,
                one_to_zero,
            } => {
                obj.number("hpa", hpa);
                obj.number("bit", bit);
                obj.bool("one_to_zero", one_to_zero);
            }
            Event::BuddyAlloc { order }
            | Event::BuddyFree { order }
            | Event::BuddySplit { order }
            | Event::BuddyMerge { order }
            | Event::BuddyExhausted { order } => obj.number("order", order),
            Event::EptSplit { gpa } | Event::VirtioMemUnplug { gpa } => obj.number("gpa", gpa),
            Event::EptSpray { hugepages, splits } => {
                obj.number("hugepages", hugepages);
                obj.number("splits", splits);
            }
            Event::ViommuMap { iova } => obj.number("iova", iova),
            Event::VmReboot => {}
            Event::FaultInjected { stage, cause } => {
                obj.string("stage", stage);
                obj.string("cause", cause);
            }
            Event::Retry { stage, attempt } => {
                obj.string("stage", stage);
                obj.number("attempt", attempt);
            }
            Event::SprayDegraded { budget } => obj.number("budget", budget),
            Event::StageStart { stage } => obj.string("stage", stage.name()),
            Event::StageEnd { stage, nanos } => {
                obj.string("stage", stage.name());
                obj.number("nanos", nanos);
            }
        }
    }
}

/// One row of the `trace` summary (`--json` NDJSON form).
#[derive(Debug)]
pub struct TraceStageOut {
    /// Stage name.
    pub stage: String,
    /// Times the stage was entered.
    pub entries: u64,
    /// Simulated seconds spent in the stage.
    pub sim_secs: f64,
    /// DRAM activations issued while the stage was current.
    pub activations: u64,
}

impl ToJson for TraceStageOut {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("stage", &self.stage);
        obj.number("entries", self.entries);
        obj.float("sim_secs", self.sim_secs);
        obj.number("activations", self.activations);
    }
}

/// Prints a record as JSON or via the supplied human formatter.
pub fn emit<T: ToJson>(json: bool, record: &T, human: impl FnOnce()) {
    if json {
        println!("{}", to_json(record));
    } else {
        human();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_renders_options() {
        let out = AttackOut {
            scenario: "ti\"ny\n".to_string(),
            attempts: 3,
            first_success: None,
            avg_attempt_mins: 1.5,
            hours_to_success: None,
            escape_read: Some(7),
        };
        let s = to_json(&out);
        assert!(s.contains(r#""scenario": "ti\"ny\n","#), "{s}");
        assert!(s.contains(r#""first_success": null,"#), "{s}");
        assert!(s.contains(r#""escape_read": 7"#), "{s}");
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn trace_events_render_as_single_lines() {
        use hh_trace::{Event, Stage, TimedEvent};
        let line = to_json_line(&TraceEventOut {
            cell: 2,
            event: TimedEvent {
                nanos: 1_500,
                event: Event::BitFlip {
                    hpa: 0x1000,
                    bit: 3,
                    one_to_zero: true,
                },
            },
        });
        assert_eq!(
            line,
            r#"{"cell": 2, "t_ns": 1500, "event": "bit_flip", "hpa": 4096, "bit": 3, "one_to_zero": true}"#
        );
        assert!(!line.contains('\n'));
        let stage = to_json_line(&TraceEventOut {
            cell: 0,
            event: TimedEvent {
                nanos: 0,
                event: Event::StageStart {
                    stage: Stage::Profile,
                },
            },
        });
        assert!(
            stage.ends_with(r#""event": "stage_start", "stage": "profile"}"#),
            "{stage}"
        );
    }

    #[test]
    fn arrays_render_comma_separated() {
        let out = ReconOut {
            scenario: "s1".into(),
            bank_masks: vec![1, 2, 3],
            banks: 8,
            equivalent: true,
            measurements: 42,
            row_bits: vec![],
        };
        let s = to_json(&out);
        assert!(s.contains("\"bank_masks\": [1, 2, 3],"), "{s}");
        assert!(s.contains("\"row_bits\": []"), "{s}");
        assert!(s.contains("\"equivalent\": true,"), "{s}");
    }
}
