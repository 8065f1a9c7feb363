//! Typed addresses for the four address spaces of a virtualized host.
//!
//! Hardware-assisted virtualization juggles four address spaces at once:
//! guest-virtual ([`Gva`]), guest-physical ([`Gpa`]), host-physical
//! ([`Hpa`]) and I/O-virtual ([`Iova`]). The paper's attack hinges on the
//! *relationships* between them (e.g. THP preserving the low 21 bits of a
//! GPA→HPA translation), so confusing them in the simulator would be fatal.
//! Each space gets its own newtype; conversions are explicit.

use std::fmt;

/// Size of a base (4 KiB) page in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// Size of a 2 MiB hugepage in bytes.
pub const HUGE_PAGE_SIZE: u64 = 2 * 1024 * 1024;

/// Number of base pages in a hugepage (512).
pub const PAGES_PER_HUGE_PAGE: u64 = HUGE_PAGE_SIZE / PAGE_SIZE;

/// Number of low address bits preserved by a 2 MiB hugepage mapping (21).
///
/// When the hypervisor backs guest memory with transparent hugepages, the
/// low [`HUGE_PAGE_BITS`] bits of a guest-physical address equal the low
/// bits of the host-physical address — the property HyperHammer's memory
/// profiling step exploits (§4.1 of the paper).
pub const HUGE_PAGE_BITS: u32 = 21;

macro_rules! address_newtype {
    ($(#[$meta:meta])* $name:ident, $tag:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// Creates an address from a raw 64-bit value.
            ///
            /// # Examples
            ///
            /// ```
            #[doc = concat!("# use hh_sim::addr::", stringify!($name), ";")]
            #[doc = concat!("let a = ", stringify!($name), "::new(0x1000);")]
            /// assert_eq!(a.raw(), 0x1000);
            /// ```
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value of the address.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the page frame number (address divided by 4 KiB).
            #[inline]
            pub const fn pfn(self) -> Pfn {
                Pfn::new(self.0 / PAGE_SIZE)
            }

            /// Returns the byte offset within the containing 4 KiB page.
            #[inline]
            pub const fn page_offset(self) -> u64 {
                self.0 % PAGE_SIZE
            }

            /// Returns the byte offset within the containing 2 MiB hugepage.
            #[inline]
            pub const fn huge_page_offset(self) -> u64 {
                self.0 % HUGE_PAGE_SIZE
            }

            /// Returns the address rounded down to a multiple of `align`.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            #[inline]
            pub fn align_down(self, align: u64) -> Self {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                Self(self.0 & !(align - 1))
            }

            /// Returns the address rounded up to a multiple of `align`.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two or the rounded value
            /// overflows `u64`.
            #[inline]
            pub fn align_up(self, align: u64) -> Self {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                Self(
                    self.0
                        .checked_add(align - 1)
                        .expect("address overflow in align_up")
                        & !(align - 1),
                )
            }

            /// Returns `true` if the address is a multiple of `align`.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            #[inline]
            pub fn is_aligned(self, align: u64) -> bool {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                self.0 & (align - 1) == 0
            }

            /// Returns the address advanced by `offset` bytes.
            ///
            /// # Panics
            ///
            /// Panics on `u64` overflow.
            #[inline]
            #[allow(clippy::should_implement_trait)] // deliberate: checked, non-operator addition
            pub fn add(self, offset: u64) -> Self {
                Self(self.0.checked_add(offset).expect("address overflow"))
            }

            /// Returns the distance in bytes from `other` to `self`.
            ///
            /// # Panics
            ///
            /// Panics if `other > self`.
            #[inline]
            pub fn offset_from(self, other: Self) -> u64 {
                self.0
                    .checked_sub(other.0)
                    .expect("offset_from: other is above self")
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($tag, "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<$name> for u64 {
            fn from(a: $name) -> u64 {
                a.0
            }
        }
    };
}

address_newtype!(
    /// A host-physical address: a byte address in the host machine's DRAM.
    ///
    /// This is the address space the DRAM model ([`hh-dram`]) indexes and
    /// the one the attacker ultimately gains arbitrary access to.
    ///
    /// [`hh-dram`]: https://docs.rs/hh-dram
    Hpa, "Hpa"
);
address_newtype!(
    /// A guest-physical address: what the guest OS believes is physical
    /// memory. Translated to an [`Hpa`] by the hypervisor's extended page
    /// tables (EPT).
    Gpa, "Gpa"
);
address_newtype!(
    /// A guest-virtual address: a virtual address inside the attacker VM,
    /// translated to a [`Gpa`] by the guest's own page tables.
    Gva, "Gva"
);
address_newtype!(
    /// An I/O-virtual address: the address space devices use for DMA,
    /// translated by the (virtual) IOMMU's page tables to a [`Gpa`] (from
    /// the guest's perspective) and ultimately an [`Hpa`].
    Iova, "Iova"
);

/// A page frame number: an address divided by the 4 KiB page size.
///
/// PFNs identify page-granular objects (buddy-allocator blocks, EPT page
/// frames, DRAM victim pages) without committing to a byte offset.
///
/// # Examples
///
/// ```
/// use hh_sim::addr::{Hpa, Pfn};
///
/// let pfn = Pfn::new(0x123);
/// assert_eq!(pfn.base_hpa(), Hpa::new(0x123000));
/// assert_eq!(Hpa::new(0x123fff).pfn(), pfn);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(u64);

impl Pfn {
    /// Creates a PFN from its raw index.
    #[inline]
    pub const fn new(index: u64) -> Self {
        Self(index)
    }

    /// Returns the raw frame index.
    #[inline]
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Returns the host-physical address of the first byte of the frame.
    #[inline]
    pub const fn base_hpa(self) -> Hpa {
        Hpa::new(self.0 * PAGE_SIZE)
    }

    /// Returns the PFN advanced by `n` frames.
    ///
    /// # Panics
    ///
    /// Panics on `u64` overflow.
    #[inline]
    #[allow(clippy::should_implement_trait)] // deliberate: checked, non-operator addition
    pub fn add(self, n: u64) -> Self {
        Self(self.0.checked_add(n).expect("pfn overflow"))
    }

    /// Returns `true` if this frame is the first frame of a 2 MiB hugepage.
    #[inline]
    pub const fn is_huge_aligned(self) -> bool {
        self.0.is_multiple_of(PAGES_PER_HUGE_PAGE)
    }

    /// Returns the first PFN of the hugepage containing this frame.
    #[inline]
    pub const fn huge_base(self) -> Self {
        Self(self.0 - self.0 % PAGES_PER_HUGE_PAGE)
    }
}

impl fmt::Debug for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pfn({:#x})", self.0)
    }
}

impl fmt::Display for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<Pfn> for u64 {
    fn from(p: Pfn) -> u64 {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_round_trips() {
        let a = Hpa::new(0x1234_5678);
        assert_eq!(a.align_down(PAGE_SIZE), Hpa::new(0x1234_5000));
        assert_eq!(a.align_up(PAGE_SIZE), Hpa::new(0x1234_6000));
        assert!(a.align_down(HUGE_PAGE_SIZE).is_aligned(HUGE_PAGE_SIZE));
        let already = Hpa::new(0x20_0000);
        assert_eq!(already.align_up(HUGE_PAGE_SIZE), already);
    }

    #[test]
    fn pfn_conversions() {
        let hpa = Hpa::new(0x7fff_f123);
        assert_eq!(hpa.pfn().base_hpa(), hpa.align_down(PAGE_SIZE));
        assert_eq!(hpa.page_offset(), 0x123);
        assert_eq!(hpa.huge_page_offset(), 0x1ff123);
    }

    #[test]
    fn huge_page_helpers() {
        let pfn = Pfn::new(513);
        assert!(!pfn.is_huge_aligned());
        assert_eq!(pfn.huge_base(), Pfn::new(512));
        assert!(Pfn::new(1024).is_huge_aligned());
    }

    #[test]
    fn address_spaces_are_distinct_types() {
        fn takes_hpa(_: Hpa) {}
        takes_hpa(Hpa::new(0));
        // The following would not compile, which is the point:
        // takes_hpa(Gpa::new(0));
    }

    #[test]
    fn offset_arithmetic() {
        let base = Gpa::new(0x1000);
        let further = base.add(0x2000);
        assert_eq!(further.offset_from(base), 0x2000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn align_rejects_non_power_of_two() {
        let _ = Hpa::new(0).align_down(3);
    }

    #[test]
    fn debug_formats_are_informative() {
        assert_eq!(format!("{:?}", Hpa::new(0x10)), "Hpa(0x10)");
        assert_eq!(format!("{:?}", Pfn::new(2)), "Pfn(0x2)");
        assert_eq!(format!("{:x}", Iova::new(0xff)), "ff");
    }
}
