//! Sparse, pattern-compressed byte store for multi-GiB simulated DIMMs.
//!
//! The reproduction simulates hosts with 16 GiB of DRAM; materializing that
//! much memory is neither possible nor necessary. Almost all attack memory
//! is filled with uniform test patterns (0x55/0xAA stripes, magic-value
//! stamps), so pages are stored in one of three forms:
//!
//! * `Uniform(fill)` — every byte equals `fill` (1 byte of state);
//! * `Patched { fill, diffs }` — a uniform page with a few modified bytes
//!   (how Rowhammer flips on pattern-filled memory are stored);
//! * `Dense` — a fully materialized 4 KiB page (EPT pages, code pages).
//!
//! The store also powers fast "scan for corruption" operations: finding
//! bytes that differ from an expected fill is O(#diffs), not O(bytes) —
//! mirroring how a real attacker's linear scan is modelled as a clock cost
//! rather than an actual byte loop.

use std::fmt;

use hh_sim::addr::{Hpa, PAGE_SIZE};

const DENSE_THRESHOLD: usize = 64;

/// One 4 KiB page in its most compact faithful representation.
#[derive(Clone, PartialEq, Eq)]
enum Page {
    Uniform(u8),
    Patched { fill: u8, diffs: Vec<(u16, u8)> },
    Dense(Box<[u8; PAGE_SIZE as usize]>),
}

impl Page {
    fn read(&self, offset: u16) -> u8 {
        match self {
            Page::Uniform(fill) => *fill,
            Page::Patched { fill, diffs } => diffs
                .iter()
                .find(|(o, _)| *o == offset)
                .map_or(*fill, |(_, b)| *b),
            Page::Dense(bytes) => bytes[offset as usize],
        }
    }

    fn write(&mut self, offset: u16, value: u8) {
        match self {
            Page::Uniform(fill) => {
                if *fill != value {
                    *self = Page::Patched {
                        fill: *fill,
                        diffs: vec![(offset, value)],
                    };
                }
            }
            Page::Patched { fill, diffs } => {
                if let Some(slot) = diffs.iter_mut().find(|(o, _)| *o == offset) {
                    slot.1 = value;
                    if value == *fill {
                        diffs.retain(|(_, b)| *b != *fill);
                        if diffs.is_empty() {
                            *self = Page::Uniform(*fill);
                        }
                    }
                } else if value != *fill {
                    diffs.push((offset, value));
                    if diffs.len() > DENSE_THRESHOLD {
                        self.densify();
                    }
                }
            }
            Page::Dense(bytes) => bytes[offset as usize] = value,
        }
    }

    /// The eight bytes at `offset..offset + 8` (inside the page) as a
    /// little-endian word, with one match on the representation.
    fn read_u64(&self, offset: u16) -> u64 {
        let o = offset as usize;
        match self {
            Page::Uniform(fill) => u64::from_le_bytes([*fill; 8]),
            Page::Patched { fill, diffs } => {
                let mut bytes = [*fill; 8];
                for &(d, b) in diffs {
                    if let Some(slot) = (d as usize).checked_sub(o).and_then(|i| bytes.get_mut(i)) {
                        *slot = b;
                    }
                }
                u64::from_le_bytes(bytes)
            }
            Page::Dense(bytes) => {
                u64::from_le_bytes(bytes[o..o + 8].try_into().expect("in-page 8-byte window"))
            }
        }
    }

    /// Writes `value` little-endian at `offset..offset + 8` (inside the
    /// page). A uniform page gets its diff list in one allocation; the
    /// other forms take the bytes one by one.
    fn write_u64(&mut self, offset: u16, value: u64) {
        if let Page::Uniform(fill) = *self {
            let mut diffs = Vec::new();
            extend_diffs(&mut diffs, offset, value, fill);
            if !diffs.is_empty() {
                *self = Page::Patched { fill, diffs };
            }
            return;
        }
        for (o, byte) in (offset..).zip(value.to_le_bytes()) {
            self.write(o, byte);
        }
    }

    fn densify(&mut self) {
        let mut bytes = Box::new([0u8; PAGE_SIZE as usize]);
        match self {
            Page::Uniform(fill) => bytes.fill(*fill),
            Page::Patched { fill, diffs } => {
                bytes.fill(*fill);
                for &(o, b) in diffs.iter() {
                    bytes[o as usize] = b;
                }
            }
            Page::Dense(_) => return,
        }
        *self = Page::Dense(bytes);
    }

    /// Bytes that differ from `expected`, as (offset, actual) pairs —
    /// lazily, so callers that stop early (or merely count) never
    /// materialize a whole page of pairs.
    fn mismatches(&self, expected: u8) -> PageMismatches<'_> {
        match self {
            Page::Uniform(fill) if *fill == expected => PageMismatches::Empty,
            Page::Uniform(fill) => PageMismatches::Uniform {
                fill: *fill,
                next: 0,
            },
            // Invariant: a patch never equals its page's fill byte, so
            // when the fill matches `expected` the diff list *is* the
            // mismatch list.
            Page::Patched { fill, diffs } if *fill == expected => {
                PageMismatches::Diffs(diffs.iter())
            }
            Page::Patched { fill, diffs } => PageMismatches::Patched {
                fill: *fill,
                diffs,
                expected,
                next: 0,
            },
            Page::Dense(bytes) => PageMismatches::Dense {
                bytes,
                expected,
                next: 0,
            },
        }
    }
}

/// Appends the bytes of `value` (little-endian, at `offset..offset + 8`)
/// that differ from `fill` as diffs, in offset order, growing `diffs`
/// at most once and to exactly the size needed.
fn extend_diffs(diffs: &mut Vec<(u16, u8)>, offset: u16, value: u64, fill: u8) {
    let bytes = value.to_le_bytes();
    diffs.reserve_exact(bytes.iter().filter(|&&b| b != fill).count());
    diffs.extend((offset..).zip(bytes).filter(|&(_, b)| b != fill));
}

/// Lazy per-page mismatch scan (the page-local half of [`Mismatches`]).
#[derive(Debug)]
enum PageMismatches<'a> {
    Empty,
    Uniform {
        fill: u8,
        next: u16,
    },
    Diffs(std::slice::Iter<'a, (u16, u8)>),
    Patched {
        fill: u8,
        diffs: &'a [(u16, u8)],
        expected: u8,
        next: u16,
    },
    Dense {
        bytes: &'a [u8; PAGE_SIZE as usize],
        expected: u8,
        next: u16,
    },
}

impl Iterator for PageMismatches<'_> {
    type Item = (u16, u8);

    fn next(&mut self) -> Option<(u16, u8)> {
        match self {
            PageMismatches::Empty => None,
            PageMismatches::Uniform { fill, next } => {
                if u64::from(*next) < PAGE_SIZE {
                    let o = *next;
                    *next += 1;
                    Some((o, *fill))
                } else {
                    None
                }
            }
            PageMismatches::Diffs(diffs) => diffs.next().copied(),
            PageMismatches::Patched {
                fill,
                diffs,
                expected,
                next,
            } => {
                while u64::from(*next) < PAGE_SIZE {
                    let o = *next;
                    *next += 1;
                    let b = diffs
                        .iter()
                        .find(|&&(d, _)| d == o)
                        .map_or(*fill, |&(_, b)| b);
                    if b != *expected {
                        return Some((o, b));
                    }
                }
                None
            }
            PageMismatches::Dense {
                bytes,
                expected,
                next,
            } => {
                // Word-at-a-time scan: a clean dense page walks 512
                // `u64` compares instead of 4096 byte compares, and only
                // words with a nonzero XOR against the expected fill are
                // expanded byte by byte. `PAGE_SIZE` is a multiple of 8,
                // so an aligned cursor always has a full word ahead.
                let expected_word = u64::from_le_bytes([*expected; 8]);
                while u64::from(*next) < PAGE_SIZE {
                    let o = *next;
                    if o % 8 == 0 {
                        let start = o as usize;
                        let word = u64::from_le_bytes(
                            bytes[start..start + 8]
                                .try_into()
                                .expect("aligned 8-byte chunk inside the page"),
                        );
                        if word == expected_word {
                            *next = o + 8;
                            continue;
                        }
                    }
                    *next = o + 1;
                    let b = bytes[o as usize];
                    if b != *expected {
                        return Some((o, b));
                    }
                }
                None
            }
        }
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Page::Uniform(fill) => write!(f, "Uniform({fill:#x})"),
            Page::Patched { fill, diffs } => {
                write!(f, "Patched(fill={fill:#x}, {} diffs)", diffs.len())
            }
            Page::Dense(_) => write!(f, "Dense"),
        }
    }
}

/// A sparse byte-addressable memory of fixed size.
///
/// Unwritten memory reads as zero, matching freshly provisioned host DRAM
/// in the simulation.
///
/// # Examples
///
/// ```
/// use hh_dram::store::SparseStore;
/// use hh_sim::Hpa;
///
/// let mut mem = SparseStore::new(1 << 30);
/// mem.fill(Hpa::new(0x2000), 0x1000, 0xaa);
/// mem.write_u64(Hpa::new(0x2008), 0xdead_beef);
/// assert_eq!(mem.read_u64(Hpa::new(0x2008)), 0xdead_beef);
/// assert_eq!(mem.read_u8(Hpa::new(0x2000)), 0xaa);
/// assert_eq!(mem.read_u8(Hpa::new(0x9000)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseStore {
    /// Dense per-frame slots: `None` is an untouched (zero) page. A flat
    /// vector beats a hash map here because the attack stamps and scans
    /// millions of pages sequentially — locality is everything.
    ///
    /// Pages are boxed so a slot stays one pointer wide: an inline
    /// `Page` would make the slot vector about four times larger on
    /// hosts with millions of frames, nearly all of them untouched.
    pages: Vec<Option<Box<Page>>>,
    resident: usize,
    size: u64,
}

impl SparseStore {
    /// Creates a zero-filled store of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not page-aligned.
    pub fn new(size: u64) -> Self {
        assert_eq!(size % PAGE_SIZE, 0, "store size must be page-aligned");
        Self {
            pages: vec![None; (size / PAGE_SIZE) as usize],
            resident: 0,
            size,
        }
    }

    /// Returns the store size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    #[inline]
    fn check(&self, hpa: Hpa, len: u64) {
        assert!(
            hpa.raw()
                .checked_add(len)
                .is_some_and(|end| end <= self.size),
            "access at {hpa} (+{len}) beyond DRAM size {:#x}",
            self.size
        );
    }

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the device.
    pub fn read_u8(&self, hpa: Hpa) -> u8 {
        self.check(hpa, 1);
        self.pages[hpa.pfn().index() as usize]
            .as_deref()
            .map_or(0, |p| p.read(hpa.page_offset() as u16))
    }

    /// Writes one byte.
    ///
    /// # Panics
    ///
    /// Panics if the address is outside the device.
    pub fn write_u8(&mut self, hpa: Hpa, value: u8) {
        self.check(hpa, 1);
        self.slot_mut(hpa.pfn().index())
            .write(hpa.page_offset() as u16, value);
    }

    /// Reads a little-endian `u64`. The access may straddle pages.
    pub fn read_u64(&self, hpa: Hpa) -> u64 {
        if hpa.page_offset() <= PAGE_SIZE - 8 {
            // Fast path: one page lookup, one match on its form.
            self.check(hpa, 8);
            return self.pages[hpa.pfn().index() as usize]
                .as_deref()
                .map_or(0, |p| p.read_u64(hpa.page_offset() as u16));
        }
        let mut bytes = [0u8; 8];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(hpa.add(i as u64));
        }
        u64::from_le_bytes(bytes)
    }

    /// Writes a little-endian `u64`. The access may straddle pages.
    pub fn write_u64(&mut self, hpa: Hpa, value: u64) {
        if hpa.page_offset() <= PAGE_SIZE - 8 {
            // Fast path: one page lookup, one in-page write.
            self.check(hpa, 8);
            self.slot_mut(hpa.pfn().index())
                .write_u64(hpa.page_offset() as u16, value);
            return;
        }
        for (i, byte) in value.to_le_bytes().into_iter().enumerate() {
            self.write_u8(hpa.add(i as u64), byte);
        }
    }

    /// Fills `[hpa, hpa + len)` with `value`, resetting page
    /// representations to the compact uniform form where whole pages are
    /// covered.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the device.
    pub fn fill(&mut self, hpa: Hpa, len: u64, value: u8) {
        self.check(hpa, len);
        let mut cur = hpa;
        let end = hpa.add(len);
        while cur < end {
            let page_end = cur.align_down(PAGE_SIZE).add(PAGE_SIZE);
            let chunk_end = page_end.min(end);
            if cur.page_offset() == 0 && chunk_end == page_end {
                self.set_slot(cur.pfn().index(), Page::Uniform(value));
            } else {
                for off in 0..chunk_end.offset_from(cur) {
                    self.write_u8(cur.add(off), value);
                }
            }
            cur = chunk_end;
        }
    }

    /// Replaces one whole 4 KiB page with the given contents in a single
    /// operation — the fast path for building page tables, which would
    /// otherwise transit the diff representation 512 times.
    ///
    /// # Panics
    ///
    /// Panics if `page_base` is not page-aligned or outside the device.
    pub fn write_page(&mut self, page_base: Hpa, bytes: Box<[u8; PAGE_SIZE as usize]>) {
        assert!(
            page_base.is_aligned(PAGE_SIZE),
            "write_page needs page alignment"
        );
        self.check(page_base, PAGE_SIZE);
        self.set_slot(page_base.pfn().index(), Page::Dense(bytes));
    }

    /// Resets one whole page to `fill` and writes a little-endian `u64`
    /// into its first eight bytes, in a single map operation — the
    /// magic-stamping fast path (one stamp per 4 KiB page over many GiB).
    ///
    /// # Panics
    ///
    /// Panics if `page_base` is not page-aligned or outside the device.
    pub fn reset_page_with_magic(&mut self, page_base: Hpa, fill: u8, magic: u64) {
        assert!(
            page_base.is_aligned(PAGE_SIZE),
            "stamp needs page alignment"
        );
        self.check(page_base, PAGE_SIZE);
        let page = self.slot_mut(page_base.pfn().index());
        // Re-stamping a stamped page reuses its diff list.
        let mut diffs = match std::mem::replace(page, Page::Uniform(fill)) {
            Page::Patched { mut diffs, .. } => {
                diffs.clear();
                diffs
            }
            _ => Vec::new(),
        };
        extend_diffs(&mut diffs, 0, magic, fill);
        if !diffs.is_empty() {
            *page = Page::Patched { fill, diffs };
        }
    }

    /// Copies `bytes` into memory starting at `hpa`, one slot lookup per
    /// touched page rather than per byte.
    pub fn write_bytes(&mut self, hpa: Hpa, bytes: &[u8]) {
        self.check(hpa, bytes.len() as u64);
        let mut cur = hpa;
        let mut rest = bytes;
        while !rest.is_empty() {
            let span = ((PAGE_SIZE - cur.page_offset()) as usize).min(rest.len());
            let (chunk, tail) = rest.split_at(span);
            let base = cur.page_offset() as u16;
            let page = self.slot_mut(cur.pfn().index());
            for (i, &b) in chunk.iter().enumerate() {
                page.write(base + i as u16, b);
            }
            cur = cur.add(span as u64);
            rest = tail;
        }
    }

    /// Reads `len` bytes starting at `hpa`, one page lookup per touched
    /// page; uniform and dense pages are copied span-at-a-time.
    pub fn read_bytes(&self, hpa: Hpa, len: usize) -> Vec<u8> {
        self.check(hpa, len as u64);
        let mut out = Vec::with_capacity(len);
        let mut cur = hpa;
        let end = hpa.add(len as u64);
        while cur < end {
            let page_end = cur.align_down(PAGE_SIZE).add(PAGE_SIZE);
            let chunk_end = page_end.min(end);
            let span = chunk_end.offset_from(cur) as usize;
            let lo = cur.page_offset() as usize;
            match self.pages[cur.pfn().index() as usize].as_deref() {
                None => out.resize(out.len() + span, 0),
                Some(Page::Uniform(fill)) => out.resize(out.len() + span, *fill),
                Some(Page::Patched { fill, diffs }) => {
                    let start = out.len();
                    out.resize(start + span, *fill);
                    for &(o, b) in diffs {
                        let o = o as usize;
                        if o >= lo && o < lo + span {
                            out[start + (o - lo)] = b;
                        }
                    }
                }
                Some(Page::Dense(bytes)) => out.extend_from_slice(&bytes[lo..lo + span]),
            }
            cur = chunk_end;
        }
        out
    }

    /// Lazily scans `[hpa, hpa+len)` for bytes differing from
    /// `expected`, yielding `(address, actual)` pairs in address order.
    ///
    /// Cost is proportional to the number of *touched* pages and diffs,
    /// not to `len`, which is what makes simulated multi-GiB corruption
    /// scans tractable — and being an iterator, callers that stop early
    /// (or only count) allocate nothing at all.
    ///
    /// # Panics
    ///
    /// Panics unless the range is page-aligned and inside the device.
    pub fn mismatches(&self, hpa: Hpa, len: u64, expected: u8) -> Mismatches<'_> {
        self.check(hpa, len);
        assert!(
            hpa.is_aligned(PAGE_SIZE) && len.is_multiple_of(PAGE_SIZE),
            "mismatch scan must be page-aligned"
        );
        Mismatches {
            store: self,
            expected,
            pfn: hpa.pfn().index(),
            end_pfn: (hpa.raw() + len) / PAGE_SIZE,
            base: hpa,
            current: PageMismatches::Empty,
        }
    }

    /// [`SparseStore::mismatches`], collected.
    ///
    /// # Panics
    ///
    /// Panics unless the range is page-aligned and inside the device.
    pub fn find_mismatches(&self, hpa: Hpa, len: u64, expected: u8) -> Vec<(Hpa, u8)> {
        self.mismatches(hpa, len, expected).collect()
    }

    /// Number of materialized (non-zero-default) pages, for memory
    /// accounting in tests.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Mutable access to a slot, materializing a zero page on first
    /// touch.
    fn slot_mut(&mut self, pfn: u64) -> &mut Page {
        let slot = &mut self.pages[pfn as usize];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| Box::new(Page::Uniform(0)))
    }

    /// Replaces a slot's contents wholesale, reusing its box when the
    /// page is already resident.
    fn set_slot(&mut self, pfn: u64, page: Page) {
        match &mut self.pages[pfn as usize] {
            Some(resident) => **resident = page,
            slot @ None => {
                self.resident += 1;
                *slot = Some(Box::new(page));
            }
        }
    }
}

/// Lazy corruption scan over a page-aligned range — see
/// [`SparseStore::mismatches`].
#[derive(Debug)]
pub struct Mismatches<'a> {
    store: &'a SparseStore,
    expected: u8,
    pfn: u64,
    end_pfn: u64,
    base: Hpa,
    current: PageMismatches<'a>,
}

impl Iterator for Mismatches<'_> {
    type Item = (Hpa, u8);

    fn next(&mut self) -> Option<(Hpa, u8)> {
        loop {
            if let Some((o, b)) = self.current.next() {
                return Some((self.base.add(u64::from(o)), b));
            }
            if self.pfn >= self.end_pfn {
                return None;
            }
            self.base = Hpa::new(self.pfn * PAGE_SIZE);
            self.current = match self.store.pages[self.pfn as usize].as_deref() {
                // An untouched slot is a zero page.
                None if self.expected != 0 => PageMismatches::Uniform { fill: 0, next: 0 },
                None => PageMismatches::Empty,
                Some(p) => p.mismatches(self.expected),
            };
            self.pfn += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use hh_sim::check;
    use hh_sim::rng::SimRng;

    use super::*;

    #[test]
    fn zero_by_default() {
        let mem = SparseStore::new(1 << 20);
        assert_eq!(mem.read_u8(Hpa::new(0)), 0);
        assert_eq!(mem.read_u64(Hpa::new(0xff8)), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut mem = SparseStore::new(1 << 20);
        mem.write_u64(Hpa::new(0x100), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(Hpa::new(0x100)), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(Hpa::new(0x100)), 0x08); // little endian
    }

    #[test]
    fn straddling_u64() {
        let mut mem = SparseStore::new(1 << 20);
        mem.write_u64(Hpa::new(0xffc), 0xaabb_ccdd_1122_3344);
        assert_eq!(mem.read_u64(Hpa::new(0xffc)), 0xaabb_ccdd_1122_3344);
    }

    #[test]
    fn fill_is_compact() {
        let mut mem = SparseStore::new(1 << 30);
        mem.fill(Hpa::new(0), 1 << 30, 0x55);
        // 256 Ki pages, each 1 byte of fill state + map overhead: resident
        // count equals page count but representation is Uniform.
        assert_eq!(mem.read_u8(Hpa::new(0x3fff_ffff)), 0x55);
        assert_eq!(mem.resident_pages(), (1 << 30) / PAGE_SIZE as usize);
    }

    #[test]
    fn partial_fill() {
        let mut mem = SparseStore::new(1 << 20);
        mem.fill(Hpa::new(0x800), 0x1000, 0xaa);
        assert_eq!(mem.read_u8(Hpa::new(0x7ff)), 0);
        assert_eq!(mem.read_u8(Hpa::new(0x800)), 0xaa);
        assert_eq!(mem.read_u8(Hpa::new(0x17ff)), 0xaa);
        assert_eq!(mem.read_u8(Hpa::new(0x1800)), 0);
    }

    #[test]
    fn mismatch_scan_finds_flips_only() {
        let mut mem = SparseStore::new(1 << 24);
        mem.fill(Hpa::new(0), 1 << 24, 0xff);
        mem.write_u8(Hpa::new(0x12345), 0xfe); // one "bit flip"
        let hits = mem.find_mismatches(Hpa::new(0), 1 << 24, 0xff);
        assert_eq!(hits, vec![(Hpa::new(0x12345), 0xfe)]);
    }

    #[test]
    fn mismatch_scan_on_untouched_zero_memory() {
        let mem = SparseStore::new(1 << 16);
        assert!(mem.find_mismatches(Hpa::new(0), 1 << 16, 0).is_empty());
        let hits = mem.find_mismatches(Hpa::new(0), PAGE_SIZE, 0x11);
        assert_eq!(hits.len(), PAGE_SIZE as usize);
    }

    #[test]
    fn patched_page_densifies_under_heavy_writes() {
        let mut mem = SparseStore::new(1 << 16);
        mem.fill(Hpa::new(0), PAGE_SIZE, 0x00);
        for i in 0..200 {
            mem.write_u8(Hpa::new(i * 7 % PAGE_SIZE), (i % 251) as u8 + 1);
        }
        // Still readable after the representation switch.
        assert_eq!(mem.read_u8(Hpa::new(0)), {
            // last write to offset 0 was i=0: value 1... offset 0 hit when i*7%4096==0
            let mut v = 0u8;
            for i in 0..200u64 {
                if i * 7 % PAGE_SIZE == 0 {
                    v = (i % 251) as u8 + 1;
                }
            }
            v
        });
    }

    #[test]
    fn rewriting_fill_value_restores_uniform() {
        let mut mem = SparseStore::new(1 << 16);
        mem.fill(Hpa::new(0), PAGE_SIZE, 0x55);
        mem.write_u8(Hpa::new(0x10), 0x54);
        assert_eq!(mem.find_mismatches(Hpa::new(0), PAGE_SIZE, 0x55).len(), 1);
        mem.write_u8(Hpa::new(0x10), 0x55);
        assert!(mem.find_mismatches(Hpa::new(0), PAGE_SIZE, 0x55).is_empty());
    }

    #[test]
    #[should_panic(expected = "beyond DRAM size")]
    fn out_of_bounds_read_panics() {
        SparseStore::new(1 << 16).read_u8(Hpa::new(1 << 16));
    }

    #[test]
    fn write_and_read_bytes() {
        let mut mem = SparseStore::new(1 << 16);
        let data = [1u8, 2, 3, 4, 5];
        mem.write_bytes(Hpa::new(0xfff), &data);
        assert_eq!(mem.read_bytes(Hpa::new(0xfff), 5), data);
    }

    #[test]
    fn read_bytes_spans_mixed_page_representations() {
        let mut mem = SparseStore::new(1 << 16);
        // Page 0: untouched (zero). Page 1: uniform. Page 2: patched.
        // Page 3: dense.
        mem.fill(Hpa::new(PAGE_SIZE), PAGE_SIZE, 0x55);
        mem.fill(Hpa::new(2 * PAGE_SIZE), PAGE_SIZE, 0xaa);
        mem.write_u8(Hpa::new(2 * PAGE_SIZE + 1), 0xab);
        mem.write_u8(Hpa::new(3 * PAGE_SIZE - 1), 0xac);
        let mut dense = Box::new([0u8; PAGE_SIZE as usize]);
        for (i, b) in dense.iter_mut().enumerate() {
            *b = i as u8;
        }
        mem.write_page(Hpa::new(3 * PAGE_SIZE), dense);

        // A read crossing all four pages, starting and ending mid-page.
        let got = mem.read_bytes(Hpa::new(PAGE_SIZE - 2), (3 * PAGE_SIZE + 4) as usize);
        let expect: Vec<u8> = (0..3 * PAGE_SIZE + 4)
            .map(|i| mem.read_u8(Hpa::new(PAGE_SIZE - 2 + i)))
            .collect();
        assert_eq!(got, expect);
        assert_eq!(got[0], 0); // tail of the zero page
        assert_eq!(got[2], 0x55); // uniform page starts
        assert_eq!(got[(PAGE_SIZE + 3) as usize], 0xab); // patch honoured
        assert_eq!(got[(2 * PAGE_SIZE + 1) as usize], 0xac); // trailing patch
        assert_eq!(got[(2 * PAGE_SIZE + 2) as usize], 0); // dense page byte 0
        assert_eq!(got[(2 * PAGE_SIZE + 5) as usize], 3); // dense page byte 3
    }

    #[test]
    fn write_bytes_across_page_boundary_patches_both_pages() {
        let mut mem = SparseStore::new(1 << 16);
        mem.fill(Hpa::new(0), 2 * PAGE_SIZE, 0x55);
        let data: Vec<u8> = (0..8).collect();
        mem.write_bytes(Hpa::new(PAGE_SIZE - 4), &data);
        assert_eq!(mem.read_bytes(Hpa::new(PAGE_SIZE - 4), 8), data);
        // Both pages hold a patched representation with the right diffs.
        assert_eq!(
            mem.find_mismatches(Hpa::new(0), 2 * PAGE_SIZE, 0x55).len(),
            8
        );
        // Writing the fill back restores the uniform representation.
        mem.write_bytes(Hpa::new(PAGE_SIZE - 4), &[0x55; 8]);
        assert!(mem
            .find_mismatches(Hpa::new(0), 2 * PAGE_SIZE, 0x55)
            .is_empty());
    }

    #[test]
    fn mismatch_iterator_is_lazy_and_ordered() {
        let mut mem = SparseStore::new(1 << 16);
        mem.fill(Hpa::new(0), 4 * PAGE_SIZE, 0x77);
        mem.write_u8(Hpa::new(0x10), 0x01);
        mem.write_u8(Hpa::new(PAGE_SIZE + 0x20), 0x02);
        mem.write_u8(Hpa::new(3 * PAGE_SIZE + 0x30), 0x03);
        // Early exit: taking the first hit must not depend on scanning
        // the rest of the range.
        let first = mem.mismatches(Hpa::new(0), 4 * PAGE_SIZE, 0x77).next();
        assert_eq!(first, Some((Hpa::new(0x10), 0x01)));
        // Full drain matches the collected API, in address order.
        let all: Vec<_> = mem.mismatches(Hpa::new(0), 4 * PAGE_SIZE, 0x77).collect();
        assert_eq!(all, mem.find_mismatches(Hpa::new(0), 4 * PAGE_SIZE, 0x77));
        assert_eq!(
            all,
            vec![
                (Hpa::new(0x10), 0x01),
                (Hpa::new(PAGE_SIZE + 0x20), 0x02),
                (Hpa::new(3 * PAGE_SIZE + 0x30), 0x03),
            ]
        );
    }

    /// Reference scan: the per-byte definition the word-at-a-time fast
    /// path must reproduce exactly.
    fn naive_mismatches(mem: &SparseStore, hpa: Hpa, len: u64, expected: u8) -> Vec<(Hpa, u8)> {
        (0..len)
            .map(|i| hpa.add(i))
            .filter_map(|a| {
                let b = mem.read_u8(a);
                (b != expected).then_some((a, b))
            })
            .collect()
    }

    #[test]
    fn dense_word_scan_matches_byte_scan_on_word_edges() {
        let mut mem = SparseStore::new(1 << 16);
        // Force a dense page, then plant flips straddling every kind of
        // word edge: offset 0, last byte of a word (7), first of the
        // next (8), an interior pair inside one word, the page's last
        // byte, and a run crossing a word boundary.
        let mut dense = Box::new([0x5au8; PAGE_SIZE as usize]);
        for off in [0usize, 7, 8, 1000, 1001, 4088, 4095] {
            dense[off] = 0xa5;
        }
        for off in 2045..2052usize {
            dense[off] = off as u8;
        }
        mem.write_page(Hpa::new(0), dense);

        for expected in [0x5a, 0xa5, 0x00] {
            let got = mem.find_mismatches(Hpa::new(0), PAGE_SIZE, expected);
            assert_eq!(
                got,
                naive_mismatches(&mem, Hpa::new(0), PAGE_SIZE, expected),
                "dense scan diverged for expected {expected:#x}"
            );
        }
        // Laziness across the fast path: the first hit must not require
        // draining the page, and resuming mid-word must not re-yield or
        // skip bytes.
        let mut it = mem.mismatches(Hpa::new(0), PAGE_SIZE, 0x5a);
        assert_eq!(it.next(), Some((Hpa::new(0), 0xa5)));
        assert_eq!(it.next(), Some((Hpa::new(7), 0xa5)));
        assert_eq!(it.next(), Some((Hpa::new(8), 0xa5)));
    }

    #[test]
    fn dense_word_scan_matches_byte_scan_across_page_boundaries() {
        let mut mem = SparseStore::new(1 << 16);
        // Page 0 dense with a flip in its final word, page 1 dense with
        // a flip in its first word: the per-page word cursors must not
        // leak across the page boundary.
        let mut lo = Box::new([0x77u8; PAGE_SIZE as usize]);
        lo[PAGE_SIZE as usize - 2] = 0x78;
        let mut hi = Box::new([0x77u8; PAGE_SIZE as usize]);
        hi[1] = 0x79;
        mem.write_page(Hpa::new(0), lo);
        mem.write_page(Hpa::new(PAGE_SIZE), hi);

        let got = mem.find_mismatches(Hpa::new(0), 2 * PAGE_SIZE, 0x77);
        assert_eq!(
            got,
            naive_mismatches(&mem, Hpa::new(0), 2 * PAGE_SIZE, 0x77)
        );
        assert_eq!(
            got,
            vec![
                (Hpa::new(PAGE_SIZE - 2), 0x78),
                (Hpa::new(PAGE_SIZE + 1), 0x79),
            ]
        );
    }

    #[test]
    fn dense_scan_agrees_with_patched_scan_for_same_contents() {
        // Identical page contents in Patched and Dense representation
        // must produce identical mismatch streams for every expected
        // byte (the representation is an implementation detail).
        let mut patched = SparseStore::new(1 << 16);
        let mut dense = SparseStore::new(1 << 16);
        patched.fill(Hpa::new(0), PAGE_SIZE, 0x33);
        let mut page = Box::new([0x33u8; PAGE_SIZE as usize]);
        for off in [0usize, 5, 8, 15, 16, 4090, 4095] {
            patched.write_u8(Hpa::new(off as u64), 0xcc);
            page[off] = 0xcc;
        }
        dense.write_page(Hpa::new(0), page);

        for expected in [0x33, 0xcc, 0x11] {
            let from_patched = patched.find_mismatches(Hpa::new(0), PAGE_SIZE, expected);
            let from_dense = dense.find_mismatches(Hpa::new(0), PAGE_SIZE, expected);
            assert_eq!(
                from_patched, from_dense,
                "representations diverged for expected {expected:#x}"
            );
            assert_eq!(
                from_dense,
                naive_mismatches(&dense, Hpa::new(0), PAGE_SIZE, expected)
            );
        }
    }

    #[test]
    fn densified_page_scan_stays_identical_after_threshold() {
        // Push a patched page over DENSE_THRESHOLD so it densifies, and
        // check the scan against the per-byte reference on both sides
        // of the switch.
        let mut mem = SparseStore::new(1 << 16);
        mem.fill(Hpa::new(0), PAGE_SIZE, 0x00);
        for i in 0..(DENSE_THRESHOLD as u64 + 8) {
            mem.write_u8(Hpa::new(i * 61 % PAGE_SIZE), 0xee);
            let got = mem.find_mismatches(Hpa::new(0), PAGE_SIZE, 0x00);
            assert_eq!(got, naive_mismatches(&mem, Hpa::new(0), PAGE_SIZE, 0x00));
        }
    }

    /// A byte that is often some page's fill, so writes both create and
    /// cancel diffs.
    fn pick_byte(rng: &mut SimRng) -> u8 {
        const COMMON: [u8; 4] = [0x00, 0x55, 0xaa, 0xff];
        if rng.gen_bool(0.75) {
            COMMON[rng.gen_range(0..COMMON.len())]
        } else {
            rng.gen_range(0u32..256) as u8
        }
    }

    /// A store of `pages` pages in random forms: untouched, uniform,
    /// patched (a few diffs) or dense.
    fn mixed_store(rng: &mut SimRng, pages: u64) -> SparseStore {
        let mut mem = SparseStore::new(pages * PAGE_SIZE);
        for p in 0..pages {
            let base = Hpa::new(p * PAGE_SIZE);
            match rng.gen_range(0u32..4) {
                0 => {}
                1 => mem.fill(base, PAGE_SIZE, pick_byte(rng)),
                2 => {
                    mem.fill(base, PAGE_SIZE, pick_byte(rng));
                    for _ in 0..rng.gen_range(1u32..20) {
                        let at = base.add(rng.gen_range(0..PAGE_SIZE));
                        mem.write_u8(at, pick_byte(rng));
                    }
                }
                _ => {
                    let mut bytes = Box::new([0u8; PAGE_SIZE as usize]);
                    for b in bytes.iter_mut() {
                        *b = pick_byte(rng);
                    }
                    mem.write_page(base, bytes);
                }
            }
        }
        mem
    }

    /// The representation invariants every fast path must keep.
    fn assert_invariants(mem: &SparseStore) {
        let resident = mem.pages.iter().filter(|p| p.is_some()).count();
        assert_eq!(mem.resident_pages(), resident);
        for page in mem.pages.iter().flatten() {
            if let Page::Patched { fill, diffs } = page.as_ref() {
                assert!(!diffs.is_empty() && diffs.len() <= DENSE_THRESHOLD);
                assert!(diffs.iter().all(|&(_, b)| b != *fill), "diff equals fill");
                let mut offsets: Vec<u16> = diffs.iter().map(|&(o, _)| o).collect();
                offsets.sort_unstable();
                offsets.dedup();
                assert_eq!(offsets.len(), diffs.len(), "duplicate diff offset");
            }
        }
    }

    #[test]
    fn word_and_page_fast_paths_match_byte_wise_access() {
        const PAGES: u64 = 4;
        check::cases(0x5707e, 96, |rng| {
            let mut fast = mixed_store(rng, PAGES);
            let mut bytewise = fast.clone();
            for step in 0..40 {
                // Offsets near page edges make straddling words common.
                let page = rng.gen_range(0..PAGES);
                let offset = if rng.gen_bool(0.5) {
                    rng.gen_range(0..PAGE_SIZE)
                } else {
                    (PAGE_SIZE - 12 + rng.gen_range(0..16)) % PAGE_SIZE
                };
                let at = Hpa::new(page * PAGE_SIZE + offset).min(Hpa::new(PAGES * PAGE_SIZE - 8));
                match rng.gen_range(0u32..4) {
                    0 => {
                        let want = u64::from_le_bytes(std::array::from_fn(|i| {
                            bytewise.read_u8(at.add(i as u64))
                        }));
                        assert_eq!(fast.read_u64(at), want, "step {step}: read_u64 at {at}");
                    }
                    1 => {
                        let value = u64::from_le_bytes(std::array::from_fn(|_| pick_byte(rng)));
                        fast.write_u64(at, value);
                        for (i, b) in value.to_le_bytes().into_iter().enumerate() {
                            bytewise.write_u8(at.add(i as u64), b);
                        }
                        assert_eq!(fast, bytewise, "step {step}: write_u64 at {at}");
                    }
                    2 => {
                        let len = rng
                            .gen_range(1..2 * PAGE_SIZE)
                            .min(PAGES * PAGE_SIZE - at.raw());
                        let value = pick_byte(rng);
                        fast.fill(at, len, value);
                        for i in 0..len {
                            bytewise.write_u8(at.add(i), value);
                        }
                        // A whole-page fill resets the form to uniform,
                        // so only the bytes must agree; re-sync forms.
                        assert_eq!(
                            fast.read_bytes(Hpa::new(0), (PAGES * PAGE_SIZE) as usize),
                            bytewise.read_bytes(Hpa::new(0), (PAGES * PAGE_SIZE) as usize),
                            "step {step}: fill {len} at {at}"
                        );
                        assert_eq!(fast.resident_pages(), bytewise.resident_pages());
                        bytewise = fast.clone();
                    }
                    _ => {
                        let base = Hpa::new(page * PAGE_SIZE);
                        let (fill, magic) =
                            (pick_byte(rng), rng.next_u64() & 0xffff_00ff_ff00_ffff);
                        fast.reset_page_with_magic(base, fill, magic);
                        bytewise.fill(base, PAGE_SIZE, fill);
                        for (i, b) in magic.to_le_bytes().into_iter().enumerate() {
                            bytewise.write_u8(base.add(i as u64), b);
                        }
                        assert_eq!(fast, bytewise, "step {step}: stamp at {base}");
                    }
                }
                assert_invariants(&fast);
            }
        });
    }

    #[test]
    fn mismatch_scan_against_wrong_fill_reports_patches_once() {
        let mut mem = SparseStore::new(1 << 16);
        // A patched page scanned against a byte that is neither the fill
        // nor the patch: every byte mismatches, with patched values
        // reported (not the fill).
        mem.fill(Hpa::new(0), PAGE_SIZE, 0x55);
        mem.write_u8(Hpa::new(0x10), 0x99);
        let hits = mem.find_mismatches(Hpa::new(0), PAGE_SIZE, 0x11);
        assert_eq!(hits.len(), PAGE_SIZE as usize);
        assert_eq!(hits[0x10], (Hpa::new(0x10), 0x99));
        assert_eq!(hits[0x11], (Hpa::new(0x11), 0x55));
        // A patch that happens to equal the scanned-for byte is *not* a
        // mismatch and punches a hole in the run.
        mem.write_u8(Hpa::new(0x20), 0x11);
        let hits = mem.find_mismatches(Hpa::new(0), PAGE_SIZE, 0x11);
        assert_eq!(hits.len(), PAGE_SIZE as usize - 1);
        assert!(!hits.contains(&(Hpa::new(0x20), 0x11)));
    }
}
