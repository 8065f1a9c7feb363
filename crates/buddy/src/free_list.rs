//! An indexed LIFO free list.
//!
//! The kernel's `free_area` lists are intrusive doubly-linked lists with
//! head insertion and head removal, giving LIFO reuse (recently freed
//! blocks are allocated first) plus O(1) removal of an arbitrary block
//! when its buddy coalesces. This structure approximates both with a
//! Vec-as-stack plus a position index.
//!
//! LIFO reuse is load-bearing for the reproduction: Page Steering counts
//! on the hypervisor re-using the sub-blocks the VM *just* released.
//!
//! **Deviation from the kernel.** [`FreeList::remove`] fills the hole
//! with the stack top instead of unlinking in place, so once a buddy
//! coalesce has removed a block from the middle, the most recently
//! freed block is no longer the next one [`FreeList::pop`] returns.
//! Push and pop alone are exact LIFO. ROADMAP item 2(a) replaces this
//! with an order-preserving intrusive list.

use std::collections::HashMap;

/// LIFO free list of block base PFNs with O(1) push/pop/remove.
#[derive(Debug, Clone, Default)]
pub(crate) struct FreeList {
    stack: Vec<u64>,
    index: HashMap<u64, usize>,
}

impl FreeList {
    /// Pushes a block to the head (most-recently-freed position).
    ///
    /// # Panics
    ///
    /// Panics if the block is already present (double free).
    pub fn push(&mut self, base: u64) {
        let prev = self.index.insert(base, self.stack.len());
        assert!(prev.is_none(), "block {base:#x} already on free list");
        self.stack.push(base);
    }

    /// Pops the most recently freed block.
    pub fn pop(&mut self) -> Option<u64> {
        let base = self.stack.pop()?;
        self.index.remove(&base);
        Some(base)
    }

    /// Removes a specific block (buddy coalescing path). The stack top
    /// moves into the freed slot, which breaks LIFO order for the
    /// blocks that remain (see the module docs).
    ///
    /// Returns `true` if the block was present.
    pub fn remove(&mut self, base: u64) -> bool {
        let Some(pos) = self.index.remove(&base) else {
            return false;
        };
        let last = self.stack.pop().expect("index says list is non-empty");
        if last != base {
            self.stack[pos] = last;
            self.index.insert(last, pos);
        }
        true
    }

    /// Returns `true` if the block is on the list.
    #[allow(dead_code)] // used by tests and debugging assertions
    pub fn contains(&self, base: u64) -> bool {
        self.index.contains_key(&base)
    }

    /// Number of blocks on the list.
    pub fn len(&self) -> usize {
        self.stack.len()
    }

    /// Returns `true` if the list is empty.
    #[allow(dead_code)] // symmetry with len(); used by future callers
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }

    /// Iterates over the blocks (unspecified order).
    #[allow(dead_code)] // introspection helper for experiments
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.stack.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut fl = FreeList::default();
        fl.push(1);
        fl.push(2);
        fl.push(3);
        assert_eq!(fl.pop(), Some(3));
        assert_eq!(fl.pop(), Some(2));
        assert_eq!(fl.pop(), Some(1));
        assert_eq!(fl.pop(), None);
    }

    #[test]
    fn remove_middle_keeps_index_consistent() {
        let mut fl = FreeList::default();
        for i in 0..10 {
            fl.push(i);
        }
        assert!(fl.remove(4));
        assert!(!fl.remove(4));
        assert!(!fl.contains(4));
        assert_eq!(fl.len(), 9);
        // All remaining blocks still poppable exactly once.
        let mut seen = Vec::new();
        while let Some(b) = fl.pop() {
            seen.push(b);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn remove_head() {
        let mut fl = FreeList::default();
        fl.push(10);
        fl.push(20);
        assert!(fl.remove(20));
        assert_eq!(fl.pop(), Some(10));
    }

    #[test]
    #[should_panic(expected = "already on free list")]
    fn double_push_panics() {
        let mut fl = FreeList::default();
        fl.push(7);
        fl.push(7);
    }
}
