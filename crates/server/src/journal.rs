//! The crash-safe campaign journal: one file format for the CLI's
//! `campaign --checkpoint` file and the server's per-job spool entry.
//!
//! ```text
//! hyperhammer-ckpt-v1
//! {"scenarios": ["tiny"], "seeds": 3, ...}      <- job-spec JSON header
//! 0\t{"scenario": "tiny", ...}                   <- index\tline records
//! 2\t{"scenario": "tiny", ...}
//! ```
//!
//! The magic and the spec header go out in one write, synced before
//! [`Journal::create`] returns. Each completed cell then appends one
//! `index\tline` record — the grid index and the cell's NDJSON line —
//! in a single `write` followed by `sync_data`, so a kill at any point
//! leaves an intact prefix plus at most one torn final record (a record
//! is complete exactly when its newline made it to disk). [`parse`]
//! drops that torn record and rejects everything else it cannot trust
//! with a typed [`JournalError`]; [`recover`] (and so
//! [`Journal::resume`]) also truncates the torn bytes away so new
//! records never glue onto them.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use hyperhammer::jobspec::{job_spec_from_json, job_spec_to_json};
use hyperhammer::JobSpec;

/// First line of every journal.
pub const MAGIC: &str = "hyperhammer-ckpt-v1";

/// Why a journal could not be read.
#[derive(Debug)]
pub enum JournalError {
    /// Reading the file failed.
    Io(io::Error),
    /// The first line is not [`MAGIC`].
    BadMagic,
    /// The job-spec header line is absent or torn.
    MissingSpec,
    /// The header does not decode to a valid job spec.
    InvalidSpec(String),
    /// A complete record names a cell outside the spec's grid.
    IndexOutOfRange {
        /// 1-based line number of the record.
        line: usize,
        /// The index it names.
        index: usize,
        /// Cells in the spec's grid.
        cells: usize,
    },
    /// A complete (newline-terminated) record is not `index\tline`.
    CorruptRecord {
        /// 1-based line number of the record.
        line: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::BadMagic => write!(f, "not a {MAGIC} journal"),
            JournalError::MissingSpec => write!(f, "journal has no job-spec header"),
            JournalError::InvalidSpec(msg) => write!(f, "journal job spec is invalid: {msg}"),
            JournalError::IndexOutOfRange { line, index, cells } => write!(
                f,
                "journal record at line {line} names cell {index} of a {cells}-cell grid"
            ),
            JournalError::CorruptRecord { line } => {
                write!(f, "corrupt journal record at line {line}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// What a journal holds: the job it was started for and every
/// completed cell's line.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovered {
    /// The job spec from the header (validated).
    pub spec: JobSpec,
    /// Per grid index, the completed cell's line (newline included).
    pub lines: Vec<Option<String>>,
    /// Length in bytes of the intact prefix: everything but a torn
    /// final record.
    pub intact_len: usize,
    /// Whether a torn final record was dropped.
    pub torn: bool,
}

/// Decodes journal bytes. A torn final record (no trailing newline) is
/// dropped; any other defect is an error.
///
/// # Errors
///
/// See [`JournalError`]; never [`JournalError::Io`].
pub fn parse(bytes: &[u8]) -> Result<Recovered, JournalError> {
    // Only newline-terminated lines are complete; the remainder after
    // the last newline is a torn write.
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
    let mut lines = bytes[..complete].split(|&b| b == b'\n');
    if lines.next() != Some(MAGIC.as_bytes()) {
        return Err(JournalError::BadMagic);
    }
    let header = lines
        .next()
        .filter(|h| !h.is_empty())
        .and_then(|h| std::str::from_utf8(h).ok())
        .ok_or(JournalError::MissingSpec)?;
    let spec = job_spec_from_json(header).map_err(JournalError::InvalidSpec)?;
    let cells = spec
        .cell_count()
        .expect("job_spec_from_json validates the grid size");

    let mut done: Vec<Option<String>> = vec![None; cells];
    // `split` yields one empty piece after the final newline.
    let records: Vec<&[u8]> = lines.collect();
    let records = &records[..records.len().saturating_sub(1)];
    for (pos, raw) in records.iter().enumerate() {
        let line = pos + 3;
        let (index, text) = record(raw).ok_or(JournalError::CorruptRecord { line })?;
        if index >= cells {
            return Err(JournalError::IndexOutOfRange { line, index, cells });
        }
        done[index] = Some(format!("{text}\n"));
    }
    Ok(Recovered {
        spec,
        lines: done,
        intact_len: complete,
        torn: complete < bytes.len(),
    })
}

/// Splits a complete `index\tline` record; `None` when it is not one.
fn record(raw: &[u8]) -> Option<(usize, &str)> {
    let (index, text) = std::str::from_utf8(raw).ok()?.split_once('\t')?;
    if text.is_empty() || !index.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((index.parse().ok()?, text))
}

/// Reads and [`parse`]s the journal at `path`, truncating a torn final
/// record so later appends start on a record boundary.
///
/// # Errors
///
/// I/O failures and every [`parse`] error.
pub fn recover(path: &Path) -> Result<Recovered, JournalError> {
    let recovered = parse(&std::fs::read(path)?)?;
    if recovered.torn {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(recovered.intact_len as u64)?;
        file.sync_data()?;
    }
    Ok(recovered)
}

/// An open journal, appending records.
#[derive(Debug)]
pub struct Journal {
    file: File,
}

impl Journal {
    /// Creates (or truncates) the journal at `path` for `spec`: magic
    /// and header in one write, synced — along with the directory entry
    /// — before returning.
    ///
    /// # Errors
    ///
    /// Create, write or sync failures.
    pub fn create(path: &Path, spec: &JobSpec) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(format!("{MAGIC}\n{}\n", job_spec_to_json(spec)).as_bytes())?;
        file.sync_data()?;
        // A crash can otherwise lose the new file's name, header and all.
        let dir = path
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .unwrap_or(Path::new("."));
        File::open(dir)?.sync_all()?;
        Ok(Self { file })
    }

    /// Reopens the journal at `path` for appending: [`recover`]s it
    /// and returns what it held.
    ///
    /// # Errors
    ///
    /// I/O failures and every [`parse`] error.
    pub fn resume(path: &Path) -> Result<(Self, Recovered), JournalError> {
        let recovered = recover(path)?;
        Ok((Self::open(path)?, recovered))
    }

    /// Opens the journal at `path` for appending without reading it;
    /// for a file [`Journal::create`]d or [`recover`]ed before.
    ///
    /// # Errors
    ///
    /// Open failures.
    pub fn open(path: &Path) -> io::Result<Self> {
        Ok(Self {
            file: OpenOptions::new().append(true).open(path)?,
        })
    }

    /// Appends cell `index`'s record; `line` is the cell's NDJSON line,
    /// newline included. One write, then `sync_data`: when this returns
    /// the record survives a crash.
    ///
    /// # Errors
    ///
    /// Write or sync failures.
    pub fn append(&mut self, index: usize, line: &str) -> io::Result<()> {
        self.file.write_all(format!("{index}\t{line}").as_bytes())?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use hh_sim::check;
    use hyperhammer::jobspec::MAX_CELLS;

    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            scenarios: vec!["tiny".to_string()],
            seeds: 3,
            ..JobSpec::default()
        }
    }

    fn header() -> String {
        format!("{MAGIC}\n{}\n", job_spec_to_json(&spec()))
    }

    /// What one journal body should decode to.
    enum Want {
        Lines(&'static [Option<&'static str>], bool),
        Err(fn(&JournalError) -> bool),
    }

    #[test]
    fn parse_table() {
        let h = header();
        let cases: Vec<(&str, String, Want)> = vec![
            (
                "header only",
                h.clone(),
                Want::Lines(&[None, None, None], false),
            ),
            (
                "records in any order",
                format!("{h}2\t{{\"c\": 2}}\n0\t{{\"c\": 0}}\n"),
                Want::Lines(&[Some("{\"c\": 0}\n"), None, Some("{\"c\": 2}\n")], false),
            ),
            (
                "torn final record dropped",
                format!("{h}0\t{{\"c\": 0}}\n1\t{{\"c\""),
                Want::Lines(&[Some("{\"c\": 0}\n"), None, None], true),
            ),
            (
                "torn final index dropped",
                format!("{h}0\t{{\"c\": 0}}\n7"),
                Want::Lines(&[Some("{\"c\": 0}\n"), None, None], true),
            ),
            (
                "corrupt interior record",
                format!("{h}0\t{{\"c\": 0}}\ngarbage\n1\t{{\"c\": 1}}\n"),
                Want::Err(|e| matches!(e, JournalError::CorruptRecord { line: 4 })),
            ),
            (
                "complete record without a tab",
                format!("{h}0{{\"c\": 0}}\n"),
                Want::Err(|e| matches!(e, JournalError::CorruptRecord { line: 3 })),
            ),
            (
                "empty line payload",
                format!("{h}0\t\n"),
                Want::Err(|e| matches!(e, JournalError::CorruptRecord { line: 3 })),
            ),
            (
                "signed index",
                format!("{h}+0\t{{}}\n"),
                Want::Err(|e| matches!(e, JournalError::CorruptRecord { line: 3 })),
            ),
            (
                "out-of-range index",
                format!("{h}3\t{{\"c\": 3}}\n"),
                Want::Err(|e| {
                    matches!(
                        e,
                        JournalError::IndexOutOfRange {
                            line: 3,
                            index: 3,
                            cells: 3
                        }
                    )
                }),
            ),
            (
                "wrong magic",
                h.replacen("ckpt-v1", "ckpt-v0", 1),
                Want::Err(|e| matches!(e, JournalError::BadMagic)),
            ),
            (
                "empty file",
                String::new(),
                Want::Err(|e| matches!(e, JournalError::BadMagic)),
            ),
            (
                "torn magic",
                MAGIC[..7].to_string(),
                Want::Err(|e| matches!(e, JournalError::BadMagic)),
            ),
            (
                "magic only",
                format!("{MAGIC}\n"),
                Want::Err(|e| matches!(e, JournalError::MissingSpec)),
            ),
            (
                "torn header",
                format!("{MAGIC}\n{{\"scenarios\": [\"ti"),
                Want::Err(|e| matches!(e, JournalError::MissingSpec)),
            ),
            (
                "invalid header",
                format!("{MAGIC}\n{{\"seedz\": 1}}\n"),
                Want::Err(|e| matches!(e, JournalError::InvalidSpec(_))),
            ),
            (
                "oversized grid header",
                format!(
                    "{MAGIC}\n{{\"scenarios\": [\"micro\"], \"seeds\": {}}}\n",
                    usize::MAX
                ),
                Want::Err(|e| matches!(e, JournalError::InvalidSpec(m) if m.contains("too large"))),
            ),
        ];
        for (name, body, want) in cases {
            let got = parse(body.as_bytes());
            match (want, got) {
                (Want::Lines(lines, torn), Ok(rec)) => {
                    let want: Vec<Option<String>> =
                        lines.iter().map(|l| l.map(str::to_string)).collect();
                    assert_eq!(rec.lines, want, "{name}");
                    assert_eq!(rec.spec, spec(), "{name}");
                    assert_eq!(rec.torn, torn, "{name}");
                    assert_eq!(
                        &body.as_bytes()[..rec.intact_len],
                        body.trim_end_matches(|c| c != '\n').as_bytes(),
                        "{name}: intact prefix ends at the last newline"
                    );
                }
                (Want::Err(check), Err(e)) => assert!(check(&e), "{name}: got {e:?}"),
                (Want::Lines(..), Err(e)) => panic!("{name}: expected lines, got {e:?}"),
                (Want::Err(_), Ok(rec)) => panic!("{name}: expected an error, got {rec:?}"),
            }
        }
    }

    #[test]
    fn mutated_journals_never_panic() {
        let h = header();
        let docs = [
            h.clone(),
            format!("{h}2\t{{\"c\": 2}}\n0\t{{\"c\": 0}}\n1\t{{\"c\""),
        ];
        assert!(docs.iter().all(|doc| parse(doc.as_bytes()).is_ok()));
        // Bytes that steer the parser into its interesting branches.
        const ALPHABET: &[u8] = b"\t\n0123456789{}[]\":, -ckptvhyper\xff";
        check::cases(0x10_0e, check::DEFAULT_CASES * 4, |rng| {
            let mut bytes = docs[rng.gen_range(0..docs.len())].as_bytes().to_vec();
            check::mutate(rng, &mut bytes, ALPHABET);
            match parse(&bytes) {
                Ok(rec) => {
                    // The per-cell table is sized by the validated spec;
                    // every line in it was read out of the input.
                    assert_eq!(Some(rec.lines.len()), rec.spec.cell_count());
                    assert!(rec.lines.len() <= MAX_CELLS);
                    assert_eq!(rec.torn, rec.intact_len < bytes.len());
                    let filled: usize = rec.lines.iter().flatten().map(String::len).sum();
                    assert!(filled <= rec.intact_len, "{filled} > {}", rec.intact_len);
                }
                Err(JournalError::Io(e)) => panic!("parsing bytes cannot fail I/O: {e}"),
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        });
    }

    #[test]
    fn create_append_resume_round_trip() {
        let dir = std::env::temp_dir().join(format!("hh-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.journal");

        let mut journal = Journal::create(&path, &spec()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), header());
        journal.append(2, "{\"c\": 2}\n").unwrap();
        drop(journal);

        // A kill mid-append leaves a torn record; resume drops it and
        // truncates it away, so the next record lands on a clean line.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(b"0\t{\"c\"").unwrap();
        drop(file);
        let (mut journal, rec) = Journal::resume(&path).unwrap();
        assert!(rec.torn);
        assert_eq!(
            rec.lines,
            vec![None, None, Some("{\"c\": 2}\n".to_string())]
        );
        journal.append(0, "{\"c\": 0}\n").unwrap();
        drop(journal);
        // `open` appends to a recovered journal without reading it.
        Journal::open(&path)
            .unwrap()
            .append(1, "{\"c\": 1}\n")
            .unwrap();

        let (_, rec) = Journal::resume(&path).unwrap();
        assert!(!rec.torn);
        assert_eq!(
            rec.lines,
            vec![
                Some("{\"c\": 0}\n".to_string()),
                Some("{\"c\": 1}\n".to_string()),
                Some("{\"c\": 2}\n".to_string())
            ]
        );
        assert!(matches!(
            Journal::resume(&dir.join("missing")),
            Err(JournalError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
