//! Machine-readable bench results and baseline comparison.
//!
//! The micro-bench [`harness`](crate::harness) can emit its results as a
//! JSON report (`HH_BENCH_JSON=<path> cargo bench …`); this module owns
//! that schema, a reader for it, and the tolerance-based diff that
//! `scripts/bench_diff.sh` and the `bench-diff` CLI subcommand use to
//! fail CI on perf regressions.
//!
//! The workspace builds offline with no external crates, so the format
//! is written here by hand and read through the workspace's one JSON
//! codec, [`hh_sim::json`]. The schema is deliberately flat — see
//! `EXPERIMENTS.md` ("Test and bench artefacts") for the field
//! reference and the re-baselining policy.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use hh_sim::json::{self, quote, Json};

/// Schema tag emitted in every report; bumped on breaking changes.
pub const SCHEMA: &str = "hyperhammer-bench-v1";

/// Relative slowdown tolerated before a comparison fails, when the
/// caller does not override it.
pub const DEFAULT_TOLERANCE: f64 = 0.15;

/// One benchmark's measured result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Fully qualified name, `group/bench`.
    pub name: String,
    /// Total routine iterations timed across all samples.
    pub iters: u64,
    /// Median per-iteration wall time in nanoseconds.
    pub ns_per_iter: f64,
    /// Bit flips produced per second, for hammer-shaped benches that
    /// report their flip count; `None` elsewhere.
    pub flips_per_sec: Option<f64>,
    /// Scenario the bench ran on (`"default"` when not scenario-bound).
    pub scenario: String,
    /// Deterministic seed the bench ran with (0 when seedless).
    pub seed: u64,
    /// Process peak RSS (`VmHWM`, KiB) observed when the bench
    /// finished, for memory-bound benches that opt in via
    /// [`Bencher::record_peak_rss`](crate::harness::Bencher::record_peak_rss);
    /// `None` elsewhere and in reports written before the field existed.
    pub peak_rss_kib: Option<u64>,
}

/// A full bench report: every record one `cargo bench` invocation
/// produced.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Whether the run used the `HH_BENCH_QUICK=1` smoke configuration.
    /// Quick and full runs use different workloads, so diffs across the
    /// two are refused.
    pub quick: bool,
    /// Measured benches, in execution order.
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Serializes the report (pretty-printed, stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": {},", quote(SCHEMA));
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"records\": [");
        for (i, r) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            let flips = match r.flips_per_sec {
                Some(f) => format_f64(f),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "    {{\"name\": {}, \"iters\": {}, \"ns_per_iter\": {}, \
                 \"flips_per_sec\": {}, \"scenario\": {}, \"seed\": {}",
                quote(&r.name),
                r.iters,
                format_f64(r.ns_per_iter),
                flips,
                quote(&r.scenario),
                r.seed,
            );
            // Written only when measured, so reports from benches that
            // never opt in stay byte-identical to pre-field baselines.
            if let Some(kib) = r.peak_rss_kib {
                let _ = write!(out, ", \"peak_rss_kib\": {kib}");
            }
            let _ = writeln!(out, "}}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }

    /// Parses a report produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        doc.as_object().ok_or("top level must be an object")?;
        let schema = field(&doc, "schema")?
            .as_str()
            .ok_or("schema must be a string")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let quick = field(&doc, "quick")?
            .as_bool()
            .ok_or("quick must be a bool")?;
        let records = field(&doc, "records")?
            .as_array()
            .ok_or("records must be an array")?
            .iter()
            .map(|r| {
                r.as_object().ok_or("record must be an object")?;
                Ok(BenchRecord {
                    name: field(r, "name")?
                        .as_str()
                        .ok_or("name must be a string")?
                        .to_string(),
                    iters: field(r, "iters")?
                        .as_u64()
                        .ok_or("iters must be an integer")?,
                    ns_per_iter: field(r, "ns_per_iter")?
                        .as_f64()
                        .ok_or("ns_per_iter must be a number")?,
                    flips_per_sec: match field(r, "flips_per_sec")? {
                        Json::Null => None,
                        v => Some(v.as_f64().ok_or("flips_per_sec must be a number")?),
                    },
                    scenario: field(r, "scenario")?
                        .as_str()
                        .ok_or("scenario must be a string")?
                        .to_string(),
                    seed: field(r, "seed")?
                        .as_u64()
                        .ok_or("seed must be an integer")?,
                    // Absent in pre-field reports — tolerate, don't fail.
                    peak_rss_kib: match r.get("peak_rss_kib") {
                        None | Some(Json::Null) => None,
                        Some(v) => Some(v.as_u64().ok_or("peak_rss_kib must be an integer")?),
                    },
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self { quick, records })
    }

    /// Reads and parses a report file.
    ///
    /// # Errors
    ///
    /// I/O errors and parse errors, with the path in the message.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json() + "\n")
    }
}

/// Outcome of comparing one bench against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffStatus {
    /// Within tolerance of the baseline.
    Ok,
    /// Slower than baseline by more than the tolerance — a CI failure.
    Regression,
    /// Faster than baseline by more than the tolerance; not a failure,
    /// but the baseline understates current performance (re-baseline).
    Improved,
    /// Present in the baseline but missing from the current run — a CI
    /// failure (a silently dropped bench would mask regressions).
    Missing,
    /// Present only in the current run (a newly added bench).
    New,
}

/// One row of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Bench name.
    pub name: String,
    /// Baseline ns/iter, when present.
    pub baseline_ns: Option<f64>,
    /// Current ns/iter, when present.
    pub current_ns: Option<f64>,
    /// `current / baseline` when both sides exist.
    pub ratio: Option<f64>,
    /// `current / baseline` peak RSS, when both runs measured it —
    /// reports without the field simply skip the memory comparison.
    pub rss_ratio: Option<f64>,
    /// Verdict for this bench.
    pub status: DiffStatus,
}

/// A complete baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Tolerance the comparison used (relative, e.g. 0.15 = ±15%).
    pub tolerance: f64,
    /// Per-bench rows, baseline order first, then new benches.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// Whether any entry fails CI (regression or missing bench).
    pub fn has_failures(&self) -> bool {
        self.entries
            .iter()
            .any(|e| matches!(e.status, DiffStatus::Regression | DiffStatus::Missing))
    }

    /// Whether any entry beat its baseline by more than the tolerance.
    /// Not a failure, but the baseline now understates real performance
    /// — regressions up to `(1 + tolerance) × stale baseline` would go
    /// unnoticed — so callers should prompt for a re-baseline.
    pub fn has_improvements(&self) -> bool {
        self.entries
            .iter()
            .any(|e| e.status == DiffStatus::Improved)
    }

    /// Count of entries with the given status.
    pub fn count(&self, status: DiffStatus) -> usize {
        self.entries.iter().filter(|e| e.status == status).count()
    }
}

/// Compares `current` against `baseline` with a relative `tolerance`.
///
/// # Errors
///
/// Refuses to compare a quick run against a full baseline (or vice
/// versa): the workloads differ, so the numbers are incomparable.
pub fn diff(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> Result<DiffReport, String> {
    if baseline.quick != current.quick {
        return Err(format!(
            "cannot compare quick={} baseline against quick={} run",
            baseline.quick, current.quick
        ));
    }
    let mut entries = Vec::new();
    for base in &baseline.records {
        let cur = current.records.iter().find(|r| r.name == base.name);
        match cur {
            None => entries.push(DiffEntry {
                name: base.name.clone(),
                baseline_ns: Some(base.ns_per_iter),
                current_ns: None,
                ratio: None,
                rss_ratio: None,
                status: DiffStatus::Missing,
            }),
            Some(cur) => {
                let ratio = cur.ns_per_iter / base.ns_per_iter;
                let rss_ratio = match (base.peak_rss_kib, cur.peak_rss_kib) {
                    (Some(b), Some(c)) if b > 0 => Some(c as f64 / b as f64),
                    _ => None,
                };
                // Blowing the memory budget fails CI exactly like a
                // time regression; running leaner never does (peak RSS
                // has a floor — the process image — so a drop is not a
                // stale-baseline signal the way a time drop is).
                let status =
                    if ratio > 1.0 + tolerance || rss_ratio.is_some_and(|r| r > 1.0 + tolerance) {
                        DiffStatus::Regression
                    } else if ratio < 1.0 - tolerance {
                        DiffStatus::Improved
                    } else {
                        DiffStatus::Ok
                    };
                entries.push(DiffEntry {
                    name: base.name.clone(),
                    baseline_ns: Some(base.ns_per_iter),
                    current_ns: Some(cur.ns_per_iter),
                    ratio: Some(ratio),
                    rss_ratio,
                    status,
                });
            }
        }
    }
    for cur in &current.records {
        if !baseline.records.iter().any(|r| r.name == cur.name) {
            entries.push(DiffEntry {
                name: cur.name.clone(),
                baseline_ns: None,
                current_ns: Some(cur.ns_per_iter),
                ratio: None,
                rss_ratio: None,
                status: DiffStatus::New,
            });
        }
    }
    Ok(DiffReport { tolerance, entries })
}

/// Formats an f64 compactly but round-trippably (integers lose the
/// trailing `.0`; everything else keeps full precision).
fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    }
}

/// A member every record (or the report itself) must have.
fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, ns: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            iters: 1000,
            ns_per_iter: ns,
            flips_per_sec: Some(42.5),
            scenario: "default".to_string(),
            seed: 99,
            peak_rss_kib: None,
        }
    }

    fn with_rss(r: BenchRecord, kib: u64) -> BenchRecord {
        BenchRecord {
            peak_rss_kib: Some(kib),
            ..r
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            quick: true,
            records: vec![
                record("dram/hammer_burst", 55_012.75),
                BenchRecord {
                    flips_per_sec: None,
                    seed: 0,
                    ..record("dram/bank_of", 5.0)
                },
                // Integers above 2^53 have no exact f64; they must
                // survive anyway, as must non-BMP names.
                BenchRecord {
                    iters: (1 << 53) + 1,
                    seed: u64::MAX - 1,
                    scenario: "name \u{1f600} \u{10FFFF}".to_string(),
                    ..record("campaign/big", 7.0)
                },
            ],
        };
        let parsed = BenchReport::parse(&report.to_json()).expect("round trip");
        assert_eq!(parsed, report);
    }

    #[test]
    fn committed_baselines_reencode_byte_for_byte() {
        for (path, text) in [
            (
                "BENCH_campaign.json",
                include_str!("../../../BENCH_campaign.json"),
            ),
            ("BENCH_dram.json", include_str!("../../../BENCH_dram.json")),
        ] {
            let report = BenchReport::parse(text).unwrap_or_else(|e| panic!("{path}: {e}"));
            assert!(!report.records.is_empty(), "{path}");
            assert!(
                report.to_json() + "\n" == text,
                "{path} does not re-encode to itself"
            );
        }
    }

    #[test]
    fn peak_rss_round_trips_and_tolerates_absence() {
        // Measured: survives a round trip.
        let report = BenchReport {
            quick: true,
            records: vec![with_rss(record("campaign/stream", 9.0), 5_640)],
        };
        let text = report.to_json();
        assert!(text.contains("\"peak_rss_kib\": 5640"));
        assert_eq!(BenchReport::parse(&text).expect("round trip"), report);

        // Unmeasured: the key is not even written, matching pre-field
        // reports byte for byte…
        let bare = BenchReport {
            quick: true,
            records: vec![record("campaign/serial", 9.0)],
        };
        assert!(!bare.to_json().contains("peak_rss_kib"));
        // …and a pre-field report (no key at all) still parses.
        let v1 = r#"{"schema": "hyperhammer-bench-v1", "quick": true, "records": [
            {"name": "a", "iters": 1, "ns_per_iter": 2.0,
             "flips_per_sec": null, "scenario": "default", "seed": 0}]}"#;
        let parsed = BenchReport::parse(v1).expect("pre-field report parses");
        assert_eq!(parsed.records[0].peak_rss_kib, None);
    }

    #[test]
    fn diff_compares_peak_rss_only_when_both_sides_measured_it() {
        let base = BenchReport {
            quick: true,
            records: vec![
                with_rss(record("bloats", 100.0), 1_000),
                record("unmeasured-base", 100.0),
                with_rss(record("steady", 100.0), 1_000),
                with_rss(record("slims", 100.0), 1_000),
            ],
        };
        let cur = BenchReport {
            quick: true,
            records: vec![
                // Flat time, 2.5× memory: a regression all the same.
                with_rss(record("bloats", 100.0), 2_500),
                // Only one side measured: no memory verdict possible.
                with_rss(record("unmeasured-base", 100.0), 9_999),
                with_rss(record("steady", 101.0), 1_050),
                // Leaner is welcome but is not a stale-baseline signal.
                with_rss(record("slims", 100.0), 400),
            ],
        };
        let d = diff(&base, &cur, DEFAULT_TOLERANCE).expect("comparable");
        assert_eq!(d.entries[0].status, DiffStatus::Regression);
        assert_eq!(d.entries[0].rss_ratio, Some(2.5));
        assert_eq!(d.entries[1].status, DiffStatus::Ok);
        assert_eq!(d.entries[1].rss_ratio, None);
        assert_eq!(d.entries[2].status, DiffStatus::Ok);
        assert_eq!(d.entries[3].status, DiffStatus::Ok);
        assert!(d.has_failures());
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        assert!(BenchReport::parse("{}").is_err());
        assert!(BenchReport::parse("not json").is_err());
        let wrong = r#"{"schema": "other-v9", "quick": false, "records": []}"#;
        assert!(BenchReport::parse(wrong).unwrap_err().contains("schema"));
    }

    #[test]
    fn diff_flags_regressions_beyond_tolerance() {
        let base = BenchReport {
            quick: true,
            records: vec![record("a", 100.0), record("b", 100.0), record("c", 100.0)],
        };
        let cur = BenchReport {
            quick: true,
            records: vec![
                record("a", 110.0), // +10%: within ±15%
                record("b", 130.0), // +30%: regression
                record("c", 60.0),  // -40%: improvement, not a failure
            ],
        };
        let d = diff(&base, &cur, DEFAULT_TOLERANCE).expect("comparable");
        assert_eq!(d.entries[0].status, DiffStatus::Ok);
        assert_eq!(d.entries[1].status, DiffStatus::Regression);
        assert_eq!(d.entries[2].status, DiffStatus::Improved);
        assert!(d.has_failures());
        assert_eq!(d.count(DiffStatus::Regression), 1);
        assert!(d.has_improvements());
    }

    #[test]
    fn improvements_are_reported_without_failing() {
        let base = BenchReport {
            quick: true,
            records: vec![record("a", 100.0), record("b", 100.0)],
        };
        let cur = BenchReport {
            quick: true,
            records: vec![record("a", 50.0), record("b", 100.0)],
        };
        let d = diff(&base, &cur, DEFAULT_TOLERANCE).expect("comparable");
        assert!(!d.has_failures(), "an improvement alone must not fail CI");
        assert!(d.has_improvements(), "but it must prompt a re-baseline");
        let steady = diff(&base, &base, DEFAULT_TOLERANCE).expect("comparable");
        assert!(!steady.has_improvements());
    }

    #[test]
    fn diff_fails_on_dropped_benches_but_allows_new_ones() {
        let base = BenchReport {
            quick: false,
            records: vec![record("kept", 10.0), record("dropped", 10.0)],
        };
        let cur = BenchReport {
            quick: false,
            records: vec![record("kept", 10.0), record("added", 10.0)],
        };
        let d = diff(&base, &cur, DEFAULT_TOLERANCE).expect("comparable");
        assert!(d.has_failures(), "missing bench must fail");
        assert_eq!(d.count(DiffStatus::Missing), 1);
        assert_eq!(d.count(DiffStatus::New), 1);
    }

    #[test]
    fn diff_refuses_quick_vs_full() {
        let quick = BenchReport {
            quick: true,
            records: vec![],
        };
        let full = BenchReport {
            quick: false,
            records: vec![],
        };
        assert!(diff(&quick, &full, DEFAULT_TOLERANCE).is_err());
    }

    /// A one-record report whose `name` is the JSON literal `name`, as
    /// another producer might write it.
    fn report_naming(name: &str) -> String {
        format!(
            r#"{{"schema": {}, "quick": true, "records": [{{"name": {name}, "iters": 3, "ns_per_iter": 1e3, "flips_per_sec": -2.5, "scenario": "a\\b", "seed": 7}}]}}"#,
            quote(SCHEMA)
        )
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let report = BenchReport::parse(&report_naming(r#""q\"x\/y\u0041\n""#)).expect("parses");
        assert_eq!(
            report.records,
            vec![BenchRecord {
                name: "q\"x/yA\n".to_string(),
                iters: 3,
                ns_per_iter: 1000.0,
                flips_per_sec: Some(-2.5),
                scenario: "a\\b".to_string(),
                seed: 7,
                peak_rss_kib: None,
            }]
        );
    }

    #[test]
    fn parser_pairs_surrogate_escapes() {
        // `\ud83d\ude00` is 😀 (U+1F600); other producers may escape
        // non-BMP strings this way even though quote() emits raw UTF-8.
        let report = BenchReport::parse(&report_naming(r#""grin \ud83d\ude00!""#))
            .expect("surrogate pair parses");
        assert_eq!(report.records[0].name, "grin 😀!");
        // The BMP boundary cases stay plain scalars.
        let report =
            BenchReport::parse(&report_naming(r#""\ud7ff\ue000""#)).expect("BMP neighbours parse");
        assert_eq!(report.records[0].name, "\u{d7ff}\u{e000}");
    }

    #[test]
    fn parser_rejects_lone_and_reversed_surrogates() {
        for bad in [
            r#""\ud83d""#,       // lone high at end of string
            r#""\ud83d rest""#,  // high followed by plain text
            r#""\ud83d\u0041""#, // high followed by non-surrogate escape
            r#""\ude00""#,       // lone low
            r#""\ude00\ud83d""#, // reversed pair
        ] {
            let err = BenchReport::parse(&report_naming(bad)).expect_err(bad);
            assert!(err.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn non_bmp_strings_round_trip_through_quote_and_parse() {
        let original = "name 😀 \u{10FFFF} plain";
        let report = BenchReport {
            quick: true,
            records: vec![record(original, 1.0)],
        };
        let text = report.to_json();
        // quote() writes non-BMP scalars as raw UTF-8, not as escapes.
        assert!(text.contains(&quote(original)), "{text}");
        assert!(quote(original).contains(original));
        assert_eq!(BenchReport::parse(&text).expect("round-trips"), report);
    }
}
