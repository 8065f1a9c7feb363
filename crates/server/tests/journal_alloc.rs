//! Journal decoding allocates in proportion to its input, not to the
//! grid size its header names. This binary counts heap bytes through a
//! global allocator, so it holds this one test only: a second test
//! running on another thread would allocate into the same counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hh_server::journal::{parse, MAGIC};

/// Counts the bytes every allocation asks for.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a side effect only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed on unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller's contract is passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_huge_grid_header_parses_without_a_per_cell_table() {
    // 63 bytes naming a 4 Mi-cell grid, with no records.
    let journal = format!("{MAGIC}\n{{\"scenarios\": [\"micro\"], \"seeds\": 4194304}}\n");
    assert_eq!(journal.len(), 63);

    let before = ALLOCATED.load(Ordering::Relaxed);
    let recovered = parse(journal.as_bytes()).expect("a valid journal");
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert_eq!(recovered.spec.cell_count(), Some(4_194_304));
    assert!(recovered.lines.is_empty());
    assert!(!recovered.torn);
    // A per-cell table would take at least one byte per cell (4 MiB);
    // the spec decode itself needs a few hundred bytes.
    assert!(
        allocated < 64 << 10,
        "parsing allocated {allocated} bytes for a {}-byte journal",
        journal.len()
    );
}
