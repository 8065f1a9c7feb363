//! Simulation primitives shared by every crate in the HyperHammer
//! reproduction.
//!
//! The reproduction models a complete virtualized host — DRAM, the Linux
//! buddy allocator, a KVM-like hypervisor, and the attack itself — as a
//! deterministic simulation. This crate provides the vocabulary types that
//! keep the layers honest:
//!
//! * [`addr`] — newtypes for the four address spaces involved
//!   (host-physical, guest-physical, guest-virtual, I/O-virtual) plus page
//!   frame numbers. Mixing address spaces is the classic bug class in
//!   virtualization code; the type system rules it out.
//! * [`clock`] — a simulated nanosecond clock. All of the paper's reported
//!   costs (profiling hours, minutes per attack attempt) are reproduced as
//!   simulated time advanced by a calibrated cost model.
//! * [`rng`] — a deterministic, splittable PRNG (xoshiro256**) so every
//!   experiment is reproducible from a single seed.
//! * [`check`] — a miniature deterministic property-testing harness built
//!   on [`rng`].
//! * [`hash`] — the fixed multiply-fold hasher behind the simulator's
//!   integer-keyed maps.
//! * [`json`] — the one JSON codec: a depth-bounded, strict RFC 8259
//!   parser with typed errors, and the one string escaper.
//! * [`size`] — human-friendly byte sizes.
//! * [`mem`] — process peak-RSS measurement (`VmHWM`), for the
//!   bounded-memory guarantees the streaming campaign path makes.
//!
//! # Examples
//!
//! ```
//! use hh_sim::{addr::{Hpa, PAGE_SIZE}, clock::Clock, rng::SimRng, size::ByteSize};
//!
//! let hpa = Hpa::new(0x4000_0000);
//! assert_eq!(hpa.pfn().index(), 0x4_0000);
//! assert!(hpa.is_aligned(PAGE_SIZE));
//!
//! let mut clock = Clock::new();
//! clock.advance_micros(250);
//! assert_eq!(clock.now_nanos(), 250_000);
//!
//! let mut rng = SimRng::seed_from(42);
//! let _coin: bool = rng.gen_bool(0.5);
//!
//! assert_eq!(ByteSize::gib(2).bytes(), 2 << 30);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod addr;
pub mod check;
pub mod clock;
pub mod hash;
pub mod json;
pub mod mem;
pub mod rng;
pub mod size;

pub use addr::{Gpa, Gva, Hpa, Iova, Pfn, HUGE_PAGE_SIZE, PAGE_SIZE};
pub use clock::Clock;
pub use rng::SimRng;
pub use size::ByteSize;
