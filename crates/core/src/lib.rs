//! # HyperHammer — reproduction of the ASPLOS '25 attack
//!
//! This crate implements the paper's contribution: a guest-to-hypervisor
//! Rowhammer attack against KVM, running on the simulated substrate
//! provided by [`hh_dram`], [`hh_buddy`] and [`hh_hv`].
//!
//! The attack follows the paper's three steps:
//!
//! 1. **Memory profiling** ([`profile`]) — find Rowhammer-vulnerable bits
//!    in the VM's memory using the THP 21-bit physical-address leak to
//!    target DRAM banks, single-sided hammering at 2 MiB hugepage
//!    borders, and exploitability filtering on the bit's position within
//!    a 64-bit word (§4.1).
//! 2. **Page Steering** ([`steering`]) — exhaust small-order
//!    `MIGRATE_UNMOVABLE` host free blocks through vIOMMU IOPT
//!    allocations, voluntarily release vulnerable sub-blocks through
//!    virtio-mem, and spray EPT pages by executing an idling function on
//!    NX hugepages to trigger the iTLB-Multihit split (§4.2).
//! 3. **Exploitation** ([`exploit`]) — hammer the still-resident
//!    aggressor rows, detect mapping changes with magic values, recognize
//!    and validate EPT-formatted pages, and rewrite EPTEs for arbitrary
//!    host-physical access (§4.3).
//!
//! [`driver`] chains the steps into repeatable end-to-end attempts
//! (Table 3), [`parallel`] fans (scenario × seed) campaign grids out over
//! worker threads with bit-identical results to the serial path,
//! [`analysis`] implements the paper's §5.3 success-probability
//! model, [`balloon_steering`] completes the §6 virtio-balloon variant the
//! paper leaves to future work, [`machine`] provides the S1/S2/S3
//! evaluation presets, and [`template`] stamps out each campaign cell's
//! machine from a per-scenario [`MachineTemplate`].
//!
//! # Quickstart
//!
//! ```
//! use hyperhammer::machine::Scenario;
//! use hyperhammer::profile::{ProfileParams, Profiler};
//!
//! // A scaled-down S1-like machine that profiles in milliseconds.
//! let scenario = Scenario::tiny_demo();
//! let mut host = scenario.boot_host();
//! let mut vm = host.create_vm(scenario.vm_config())?;
//!
//! let params = ProfileParams { stop_after_exploitable: Some(1), ..scenario.profile_params() };
//! let report = Profiler::new(params).run(&mut host, &mut vm)?;
//! assert!(report.total() > 0, "the demo DIMM is densely vulnerable");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod analysis;
pub mod balloon_steering;
pub mod driver;
pub mod exploit;
pub mod jobspec;
pub mod machine;
pub mod parallel;
pub mod profile;
pub mod steering;
pub mod streamref;
pub mod template;

pub use balloon_steering::BalloonSteering;
pub use driver::{AttackDriver, AttemptOutcome, CampaignStats};
pub use exploit::{EscapeProof, Exploiter};
pub use jobspec::JobSpec;
pub use machine::{AttackVariant, Scenario};
pub use parallel::{CampaignGrid, CancelToken, CellResult};
pub use profile::{FlipCatalog, ProfileReport, ProfileTables, Profiler};
pub use steering::{PageSteering, RetryPolicy};
pub use template::MachineTemplate;
