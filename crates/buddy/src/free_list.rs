//! The per-frame table and the intrusive free lists threaded through it.
//!
//! Shaped like the kernel's `struct page` array: one [`Frame`] record per
//! page frame holds the frame's allocator state and the `prev`/`next`
//! links of the list it is on (`page->lru`). Every buddy `free_area`
//! list and both PCP lanes are a [`FreeList`], a head and a length over
//! that table, with the kernel's head insertion, head removal and O(1)
//! unlink in place. Reuse is therefore exact LIFO: the most recently
//! freed block is the next one out, also after a buddy coalesce has
//! unlinked a block from the middle of its list.
//!
//! LIFO reuse is load-bearing for the reproduction: Page Steering counts
//! on the hypervisor re-using the sub-blocks the VM *just* released.

use crate::MigrateType;

/// The link value meaning "no frame". Zones are asserted smaller than
/// this, so it never names a real frame.
pub(crate) const NIL: u32 = u32::MAX;

/// What a frame is to the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PageState {
    /// Not the head of anything: inside a larger free or allocated
    /// block.
    Tail,
    /// Head of a free block on the buddy list `free[mt][order]`.
    Free { order: u8, mt: MigrateType },
    /// A free page parked on the PCP lane of its migration type.
    Pcp(MigrateType),
    /// Head of an allocated block.
    Allocated { order: u8, mt: MigrateType },
}

/// One frame's record: its state and the links of the list it is on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub state: PageState,
    prev: u32,
    next: u32,
}

impl Frame {
    /// A frame on no list and heading nothing.
    pub const TAIL: Frame = Frame {
        state: PageState::Tail,
        prev: NIL,
        next: NIL,
    };
}

/// Frames per section of a [`FrameTable`].
const SECTION: usize = 256;

/// The frame table, indexed by PFN. Like the kernel's SPARSEMEM memmap
/// it is stored in sections, and a section none of whose frames was ever
/// written is not allocated: it holds only tails. Zones are mostly large
/// free blocks, one head per up to 1,024 frames, so most sections of a
/// fresh or snapshotted zone cost nothing.
#[derive(Debug, Clone)]
pub(crate) struct FrameTable {
    sections: Vec<Option<Box<[Frame; SECTION]>>>,
    frames: u64,
}

impl FrameTable {
    /// A table of `frames` tails.
    pub fn new(frames: u64) -> Self {
        Self {
            sections: vec![None; (frames as usize).div_ceil(SECTION)],
            frames,
        }
    }

    /// Frames in the zone.
    pub fn len(&self) -> u64 {
        self.frames
    }

    /// Frame `pfn`'s record.
    pub fn get(&self, pfn: u64) -> Frame {
        let i = pfn as usize;
        self.sections[i / SECTION]
            .as_ref()
            .map_or(Frame::TAIL, |s| s[i % SECTION])
    }

    /// Frame `pfn`'s record for writing; allocates its section first if
    /// it has none.
    pub fn get_mut(&mut self, pfn: u64) -> &mut Frame {
        debug_assert!(pfn < self.frames, "frame {pfn:#x} outside the zone");
        let i = pfn as usize;
        let section = &mut self.sections[i / SECTION];
        &mut section.get_or_insert_with(|| Box::new([Frame::TAIL; SECTION]))[i % SECTION]
    }
}

/// An intrusive LIFO list of frames: its head and length. The links
/// live in the frame table every operation is handed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FreeList {
    head: u32,
    len: u32,
}

impl FreeList {
    /// The empty list.
    pub const EMPTY: FreeList = FreeList { head: NIL, len: 0 };

    /// Pushes `pfn` to the head (most-recently-freed position) and gives
    /// it `state`, which names this list.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already on a list (double free).
    pub fn push(&mut self, frames: &mut FrameTable, pfn: u64, state: PageState) {
        let frame = frames.get_mut(pfn);
        assert!(
            !matches!(frame.state, PageState::Free { .. } | PageState::Pcp(_)),
            "block {pfn:#x} already on free list"
        );
        *frame = Frame {
            state,
            prev: NIL,
            next: self.head,
        };
        if self.head != NIL {
            frames.get_mut(u64::from(self.head)).prev = pfn as u32;
        }
        self.head = pfn as u32;
        self.len += 1;
    }

    /// Pops the most recently freed frame; it becomes a tail.
    pub fn pop(&mut self, frames: &mut FrameTable) -> Option<u64> {
        let pfn = (self.head != NIL).then_some(u64::from(self.head))?;
        self.unlink(frames, pfn);
        Some(pfn)
    }

    /// Unlinks `pfn`, which must be on this list, in place (the buddy
    /// coalesce path); it becomes a tail. The others keep their order.
    pub fn unlink(&mut self, frames: &mut FrameTable, pfn: u64) {
        let Frame { prev, next, .. } = std::mem::replace(frames.get_mut(pfn), Frame::TAIL);
        if prev == NIL {
            debug_assert_eq!(self.head, pfn as u32, "unlinking a frame of another list");
            self.head = next;
        } else {
            frames.get_mut(u64::from(prev)).next = next;
        }
        if next != NIL {
            frames.get_mut(u64::from(next)).prev = prev;
        }
        self.len -= 1;
    }

    /// Number of frames on the list.
    pub fn len(&self) -> u64 {
        u64::from(self.len)
    }

    /// The frames head to tail: the order [`pop`](Self::pop) returns them.
    pub fn iter<'a>(&self, frames: &'a FrameTable) -> impl Iterator<Item = u64> + 'a {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let pfn = u64::from((at != NIL).then_some(at)?);
            at = frames.get(pfn).next;
            Some(pfn)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FREE: PageState = PageState::Free {
        order: 0,
        mt: MigrateType::Movable,
    };

    fn table() -> FrameTable {
        FrameTable::new(32)
    }

    #[test]
    fn lifo_order() {
        let mut frames = table();
        let mut fl = FreeList::EMPTY;
        fl.push(&mut frames, 1, FREE);
        fl.push(&mut frames, 2, FREE);
        fl.push(&mut frames, 3, FREE);
        assert_eq!(fl.pop(&mut frames), Some(3));
        assert_eq!(fl.pop(&mut frames), Some(2));
        assert_eq!(fl.pop(&mut frames), Some(1));
        assert_eq!(fl.pop(&mut frames), None);
    }

    #[test]
    fn remove_middle_keeps_index_consistent() {
        let mut frames = table();
        let mut fl = FreeList::EMPTY;
        for i in 0..10 {
            fl.push(&mut frames, i, FREE);
        }
        fl.unlink(&mut frames, 4);
        assert_eq!(frames.get(4).state, PageState::Tail);
        assert_eq!(fl.len(), 9);
        assert_eq!(
            fl.iter(&frames).collect::<Vec<_>>(),
            [9, 8, 7, 6, 5, 3, 2, 1, 0]
        );
        // The rest pop exactly once each, most recently pushed first:
        // the unlink leaves their order alone.
        let mut seen = Vec::new();
        while let Some(b) = fl.pop(&mut frames) {
            seen.push(b);
        }
        assert_eq!(seen, vec![9, 8, 7, 6, 5, 3, 2, 1, 0]);
        assert!((0..32).all(|pfn| frames.get(pfn).state == PageState::Tail));
    }

    #[test]
    fn remove_head() {
        let mut frames = table();
        let mut fl = FreeList::EMPTY;
        fl.push(&mut frames, 10, FREE);
        fl.push(&mut frames, 20, FREE);
        fl.unlink(&mut frames, 20);
        assert_eq!(fl.pop(&mut frames), Some(10));
        assert_eq!(fl.len(), 0);
    }

    #[test]
    #[should_panic(expected = "already on free list")]
    fn double_push_panics() {
        let mut frames = table();
        let mut fl = FreeList::EMPTY;
        fl.push(&mut frames, 7, FREE);
        fl.push(&mut frames, 7, FREE);
    }

    #[test]
    fn unwritten_sections_are_tails_and_unallocated() {
        let mut frames = FrameTable::new(3 * SECTION as u64);
        frames.get_mut(SECTION as u64 + 5).state = FREE;
        let allocated: Vec<bool> = frames.sections.iter().map(Option::is_some).collect();
        assert_eq!(allocated, [false, true, false]);
        assert_eq!(frames.get(5).state, PageState::Tail);
        assert_eq!(frames.get(SECTION as u64 + 5).state, FREE);
    }

    #[test]
    fn frame_record_is_at_most_12_bytes() {
        // 4M frames on the 16 GiB hosts: at most 48 MiB per allocator.
        assert!(std::mem::size_of::<Frame>() <= 12);
    }
}
