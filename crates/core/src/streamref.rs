//! Streaming campaign reducers: bounded-memory aggregation and the
//! grid-order writer.
//!
//! A 10⁵–10⁶-cell campaign (Table-3-style sweeps at production scale)
//! cannot hold every [`CellResult`] and trace arena in RAM. This module
//! supplies what
//! [`CampaignGrid::run_streamed_resume`](crate::parallel::CampaignGrid::run_streamed_resume)
//! consumers fold finished cells into:
//!
//! * [`CampaignAggregate`] — success counts, flip histograms and
//!   per-stage time quantiles via [`QuantileSketch`], a deterministic
//!   mergeable sketch. Every field is a commutative sum, so merging the
//!   per-worker aggregates yields the same totals no matter how the
//!   scheduler partitioned the grid.
//! * [`GridWriter`] — writes each cell's serialized NDJSON (a record,
//!   or its trace lines) as soon as every older cell has been written,
//!   so output leaves in grid order while the run is still going. The
//!   bytes equal serializing an in-memory run, for any `--jobs`,
//!   because each cell's bytes are a pure function of the cell.
//!
//! The memory story: a streaming run holds O(workers) aggregates, the
//! few payloads a [`GridWriter`] parks behind a still-running older
//! cell, and one recycled trace arena per worker — never a
//! whole-campaign buffer.

use std::collections::BTreeMap;
use std::io::{self, Write};

use hh_sim::json::{ObjectWriter, ToJson};
use hh_trace::{Counter, Stage};

use crate::driver::AttemptOutcome;
use crate::machine::AttackVariant;
use crate::parallel::CellResult;

/// A deterministic, mergeable quantile sketch over `u64` samples.
///
/// Samples land in 65 power-of-two buckets (bucket `b` holds values
/// whose bit length is `b`), so recording is order-insensitive and
/// [`merge`](Self::merge) is element-wise addition — two workers'
/// sketches combine into exactly the sketch a single worker would have
/// built. Quantile queries return the upper bound of the selected
/// bucket: a conservative estimate with bounded (2×) relative error,
/// which is what a campaign summary needs from stage latencies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: [u64; 65],
    count: u64,
    total: u128,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            total: 0,
        }
    }
}

impl QuantileSketch {
    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = (u64::BITS - value.leading_zeros()) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total += u128::from(value);
    }

    /// Number of recorded samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total as f64 / self.count as f64
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`0.0 <= q <= 1.0`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // ceil(q * count), at least 1: the rank of the sample we want.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match b {
                    0 => 0,
                    64 => u64::MAX,
                    b => (1u64 << b) - 1,
                };
            }
        }
        u64::MAX
    }

    /// Adds another sketch's samples into this one.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total += other.total;
    }
}

/// Incremental whole-campaign aggregate: what a streaming run can still
/// report once per-cell results have been written out.
///
/// Built per worker, merged across workers — every field is a
/// commutative, associative fold of per-cell contributions, so the
/// merged aggregate is independent of scheduling (and equals a serial
/// fold in grid order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignAggregate {
    /// Cells observed.
    pub cells: u64,
    /// Cells whose campaign reached a success.
    pub succeeded: u64,
    /// Attempts across all cells.
    pub attempts: u64,
    /// Attempts abandoned by a transient fault outliving its retries.
    pub aborted_attempts: u64,
    /// Catalogued exploitable bits per cell.
    pub catalog_bits: QuantileSketch,
    /// Per-attempt simulated duration (nanoseconds).
    pub attempt_nanos: QuantileSketch,
    /// Simulated time to first success (nanoseconds; successes only).
    pub success_nanos: QuantileSketch,
    /// DRAM bit flips per cell (traced runs only — untraced cells
    /// contribute no samples).
    pub flips: QuantileSketch,
    /// Per-cell simulated nanoseconds spent in each pipeline stage
    /// (traced runs only), indexed by [`Stage::index`] order.
    pub stage_nanos: [QuantileSketch; Stage::COUNT],
    /// Cells observed per attack variant, indexed by
    /// [`AttackVariant::index`] — the raw material of the per-variant
    /// comparison report on the streamed path.
    pub variant_cells: [u64; AttackVariant::COUNT],
    /// Successful cells per attack variant, same indexing.
    pub variant_succeeded: [u64; AttackVariant::COUNT],
    /// Attempts per attack variant, same indexing.
    pub variant_attempts: [u64; AttackVariant::COUNT],
}

impl CampaignAggregate {
    /// Folds one finished cell into the aggregate.
    pub fn observe(&mut self, result: &CellResult) {
        self.cells += 1;
        let v = result.variant.index();
        self.variant_cells[v] += 1;
        if result.stats.first_success().is_some() {
            self.succeeded += 1;
            self.variant_succeeded[v] += 1;
        }
        self.attempts += result.stats.attempts.len() as u64;
        self.variant_attempts[v] += result.stats.attempts.len() as u64;
        self.catalog_bits.record(result.catalog_bits as u64);
        for attempt in &result.stats.attempts {
            if matches!(attempt.outcome, AttemptOutcome::Aborted(_)) {
                self.aborted_attempts += 1;
            }
            self.attempt_nanos.record(attempt.duration.as_nanos());
        }
        if let Some(t) = result.stats.time_to_first_success() {
            self.success_nanos.record(t.as_nanos());
        }
        if let Some(sink) = &result.trace {
            let metrics = sink.metrics();
            self.flips.record(metrics.get(Counter::DramBitFlips));
            for stage in Stage::ALL {
                self.stage_nanos[stage.index()].record(metrics.stage_nanos(stage));
            }
        }
    }

    /// Adds another worker's aggregate into this one.
    pub fn merge(&mut self, other: &Self) {
        self.cells += other.cells;
        self.succeeded += other.succeeded;
        self.attempts += other.attempts;
        self.aborted_attempts += other.aborted_attempts;
        self.catalog_bits.merge(&other.catalog_bits);
        self.attempt_nanos.merge(&other.attempt_nanos);
        self.success_nanos.merge(&other.success_nanos);
        self.flips.merge(&other.flips);
        for (mine, theirs) in self.stage_nanos.iter_mut().zip(other.stage_nanos.iter()) {
            mine.merge(theirs);
        }
        for i in 0..AttackVariant::COUNT {
            self.variant_cells[i] += other.variant_cells[i];
            self.variant_succeeded[i] += other.variant_succeeded[i];
            self.variant_attempts[i] += other.variant_attempts[i];
        }
    }

    /// Merges a slice of per-worker aggregates into one.
    pub fn merged(parts: &[Self]) -> Self {
        let mut out = Self::default();
        for part in parts {
            out.merge(part);
        }
        out
    }

    /// The per-variant rollup, in [`AttackVariant::ALL`] order;
    /// variants with no cells are omitted.
    pub fn variant_rows(&self) -> Vec<VariantRow> {
        AttackVariant::ALL
            .iter()
            .copied()
            .filter(|v| self.variant_cells[v.index()] > 0)
            .map(|variant| {
                let i = variant.index();
                VariantRow {
                    variant,
                    cells: self.variant_cells[i],
                    succeeded: self.variant_succeeded[i],
                    attempts: self.variant_attempts[i],
                }
            })
            .collect()
    }
}

/// One attack variant's share of a campaign — a row of the per-variant
/// comparison that `campaign` and `table3` print for grids spanning
/// several variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantRow {
    /// The attack variant the cells ran.
    pub variant: AttackVariant,
    /// Cells (scenario × seed) that ran this variant.
    pub cells: u64,
    /// Cells whose campaign reached a success.
    pub succeeded: u64,
    /// Attempts across those cells.
    pub attempts: u64,
}

impl VariantRow {
    /// Successful cells over cells run.
    pub fn success_rate(&self) -> f64 {
        self.succeeded as f64 / self.cells as f64
    }
}

impl ToJson for VariantRow {
    fn fields(&self, obj: &mut ObjectWriter<'_>) {
        obj.string("variant", self.variant.label());
        obj.number("cells", self.cells);
        obj.number("succeeded", self.succeeded);
        obj.number("attempts", self.attempts);
        obj.float("success_rate", self.success_rate());
    }
}

/// Writes per-cell payloads in grid order as the grid prefix completes.
///
/// Workers finish cells out of order. [`put_with`](Self::put_with)
/// renders a payload straight into the sink when its index is the next
/// one in grid order, then drains every parked successor; any other
/// payload is rendered into a buffer that waits in `pending`. The engine
/// hands cells out in ascending grid order (see
/// [`parallel_reduce_indexed`](crate::parallel::parallel_reduce_indexed)),
/// so only cells that finished while an older cell was still running
/// wait — about one per worker, never the whole grid. Because each
/// payload is a pure function of its cell, the bytes equal serializing
/// an in-memory run in grid order, for any `--jobs`.
#[derive(Debug)]
pub struct GridWriter<W> {
    out: W,
    next: usize,
    pending: BTreeMap<usize, Vec<u8>>,
}

impl<W: Write> GridWriter<W> {
    /// A writer whose first payload is cell 0's.
    pub fn new(out: W) -> Self {
        Self {
            out,
            next: 0,
            pending: BTreeMap::new(),
        }
    }

    /// Accepts cell `index`'s payload (zero or more complete
    /// newline-terminated lines).
    ///
    /// # Errors
    ///
    /// As [`put_with`](Self::put_with).
    pub fn put(&mut self, index: usize, payload: String) -> io::Result<()> {
        self.put_with(index, |w| w.write_all(payload.as_bytes()))
    }

    /// Accepts cell `index`'s payload as a renderer, which writes zero
    /// or more complete newline-terminated lines: into the sink when
    /// the cell is next in grid order, so a large payload never exists
    /// whole in memory, and into a parked buffer otherwise.
    ///
    /// # Errors
    ///
    /// `InvalidData` when cell `index` was already put; otherwise the
    /// renderer's or the sink's write failures.
    pub fn put_with(
        &mut self,
        index: usize,
        render: impl FnOnce(&mut dyn Write) -> io::Result<()>,
    ) -> io::Result<()> {
        let duplicate = || invalid(format!("cell {index} written twice"));
        if index < self.next || self.pending.contains_key(&index) {
            return Err(duplicate());
        }
        if index > self.next {
            let mut parked = Vec::new();
            render(&mut parked)?;
            self.pending.insert(index, parked);
            return Ok(());
        }
        render(&mut self.out)?;
        self.next += 1;
        while let Some(parked) = self.pending.remove(&self.next) {
            self.out.write_all(&parked)?;
            self.next += 1;
        }
        Ok(())
    }

    /// Payloads parked behind a cell that has not arrived yet.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Checks that exactly the cells `0..cells` were put — no gap, no
    /// overlap — then flushes and returns the sink.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a coverage gap or a cell beyond the grid;
    /// otherwise the final flush's failure.
    pub fn finish(mut self, cells: usize) -> io::Result<W> {
        if let Some(&parked) = self.pending.keys().next() {
            return Err(invalid(format!(
                "cell {} never arrived (cell {parked} waits behind it)",
                self.next
            )));
        }
        if self.next != cells {
            return Err(invalid(format!(
                "{} cells written, grid has {cells}",
                self.next
            )));
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_quantiles_bound_their_samples() {
        let mut s = QuantileSketch::default();
        for v in [0u64, 1, 2, 3, 100, 1_000, 65_535, 1 << 40] {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        // Every quantile is an upper bound of some recorded sample's
        // bucket: p0 covers the smallest sample, p100 the largest.
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(1.0), (1u64 << 41) - 1);
        let p50 = s.quantile(0.5);
        assert!((3..=127).contains(&p50), "median bucket bound, got {p50}");
        assert!(s.mean() > 0.0);
        assert_eq!(QuantileSketch::default().quantile(0.5), 0);
    }

    #[test]
    fn variant_rollup_line_is_pinned() {
        // `campaign --json` and `table3 --variants --json` both print
        // these bytes; variants without cells get no row.
        let mut aggregate = CampaignAggregate::default();
        let (balloon, xen) = (AttackVariant::Balloon.index(), AttackVariant::Xen.index());
        aggregate.variant_cells[xen] = 3;
        aggregate.variant_attempts[xen] = 6;
        aggregate.variant_cells[balloon] = 4;
        aggregate.variant_succeeded[balloon] = 1;
        aggregate.variant_attempts[balloon] = 9;
        let rows = aggregate.variant_rows();
        assert_eq!(
            rows.iter().map(|r| r.variant).collect::<Vec<_>>(),
            [AttackVariant::Balloon, AttackVariant::Xen]
        );
        assert_eq!(
            hh_sim::json::to_json_line(&rows[0]) + "\n",
            "{\"variant\": \"balloon\", \"cells\": 4, \"succeeded\": 1, \"attempts\": 9, \
             \"success_rate\": 0.25}\n"
        );
        assert_eq!(rows[1].success_rate(), 0.0);
    }

    #[test]
    fn sketch_merge_is_order_insensitive() {
        let samples: Vec<u64> = (0..1000u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let mut whole = QuantileSketch::default();
        for &v in &samples {
            whole.record(v);
        }
        // Any partition, folded in any order, merges to the same sketch.
        let mut left = QuantileSketch::default();
        let mut right = QuantileSketch::default();
        for (i, &v) in samples.iter().enumerate() {
            if i % 3 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut merged = QuantileSketch::default();
        merged.merge(&right);
        merged.merge(&left);
        assert_eq!(merged, whole);
    }

    fn lines(cells: impl IntoIterator<Item = usize>) -> String {
        cells.into_iter().map(|i| format!("cell {i}\n")).collect()
    }

    #[test]
    fn grid_writer_emits_shuffled_puts_in_grid_order() {
        let mut w = GridWriter::new(Vec::new());
        for i in [3usize, 0, 8, 1, 2, 7, 5, 4, 6] {
            w.put(i, format!("cell {i}\n")).unwrap();
        }
        assert_eq!(w.pending(), 0);
        let out = w.finish(9).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), lines(0..9));
    }

    #[test]
    fn in_order_puts_park_nothing() {
        let mut w = GridWriter::new(Vec::new());
        for i in 0..5 {
            w.put(i, format!("cell {i}\n")).unwrap();
            assert_eq!(w.pending(), 0, "cell {i} was parked");
        }
        // A cell may carry no lines at all (an untraced cell's trace).
        w.put(5, String::new()).unwrap();
        assert_eq!(
            String::from_utf8(w.finish(6).unwrap()).unwrap(),
            lines(0..5)
        );
    }

    #[test]
    fn grid_writer_rejects_gaps_and_duplicates() {
        // Cell 1 never arrives: cell 2 stays parked.
        let mut gap = GridWriter::new(Vec::new());
        gap.put(0, "a\n".into()).unwrap();
        gap.put(2, "c\n".into()).unwrap();
        assert_eq!(gap.pending(), 1);
        assert!(gap.finish(3).is_err());
        // A prefix short of the grid is a gap at the end.
        let mut short = GridWriter::new(Vec::new());
        short.put(0, "a\n".into()).unwrap();
        assert!(short.finish(2).is_err());
        // Written and parked cells alike refuse a second copy.
        let mut dup = GridWriter::new(Vec::new());
        dup.put(0, "a\n".into()).unwrap();
        assert!(dup.put(0, "a\n".into()).is_err());
        dup.put(2, "c\n".into()).unwrap();
        assert!(dup.put(2, "c\n".into()).is_err());
        // A cell beyond the grid is no cover either.
        let mut over = GridWriter::new(Vec::new());
        over.put(0, "a\n".into()).unwrap();
        assert!(over.finish(0).is_err());
        // Empty grid: nothing put, nothing written.
        assert!(GridWriter::new(Vec::new()).finish(0).unwrap().is_empty());
    }
}
