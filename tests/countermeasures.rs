//! Integration tests for the defences discussed in §6: the virtio-mem
//! quarantine (the authors' QEMU patch) and DRAM-side TRR.

use hh_dram::fault::TrrConfig;
use hh_dram::patterns::{find_effective_pattern, PatternKind};
use hh_dram::{DimmProfile, DramDevice};
use hh_hv::HvError;
use hh_sim::addr::HUGE_PAGE_SIZE;
use hyperhammer::driver::{AttackDriver, AttemptOutcome, DriverParams};
use hyperhammer::machine::Scenario;
use hyperhammer::profile::Profiler;
use hyperhammer::steering::PageSteering;

/// The quarantine policy turns the voluntary-release primitive off, so
/// Page Steering cannot place EPT pages on attacker-chosen frames.
#[test]
fn quarantine_blocks_page_steering() {
    let scenario = Scenario::tiny_demo().with_quarantine();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).unwrap();
    let steering = PageSteering::new(scenario.steering_params());
    let base = vm.virtio_mem().region_base();
    let err = steering
        .release_hugepages(&mut host, &mut vm, &[base, base.add(HUGE_PAGE_SIZE)])
        .unwrap_err();
    assert!(matches!(err, HvError::QuarantineNack { .. }));
    assert!(host.released_log().is_empty(), "nothing must be released");
}

/// A whole campaign against a quarantined host: every attempt fails with
/// the NACK, end to end.
#[test]
fn quarantine_defeats_the_full_campaign() {
    let open = Scenario::tiny_demo();
    let mut host = open.boot_host();
    let mut vm = host.create_vm(open.vm_config()).unwrap();
    let profiler = Profiler::new(open.profile_params());
    let report = profiler.run(&mut host, &mut vm).unwrap();
    let catalog = profiler.to_catalog(&vm, &report).unwrap();
    vm.destroy(&mut host);
    if catalog.entries.is_empty() {
        return;
    }

    // Same catalogue, hardened host.
    let hardened = Scenario::tiny_demo().with_quarantine();
    let mut host = hardened.boot_host();
    let driver = AttackDriver::new(DriverParams {
        bits_per_attempt: 2,
        ..DriverParams::paper()
    });
    let vm = host.create_vm(hardened.vm_config()).unwrap();
    let result = driver.run_attempt(&mut host, vm, &catalog, hh_sim::Hpa::new(0));
    // The release step NACKs: the attempt errors out with the quarantine
    // rejection rather than proceeding to hammer.
    match result {
        Err(HvError::QuarantineNack { .. }) => {}
        Ok(record) => panic!("attack proceeded under quarantine: {record:?}"),
        Err(e) => panic!("unexpected error {e}"),
    }
}

/// The campaign driver records a quarantine NACK as a blocked attempt
/// rather than aborting: a hardened campaign runs its whole budget,
/// every attempt blocked, and hands every page back.
#[test]
fn hardened_campaign_records_blocked_attempts() {
    let hardened = Scenario::tiny_demo().with_quarantine();
    let mut host = hardened.boot_host();
    let driver = AttackDriver::new(DriverParams {
        bits_per_attempt: 4,
        ..DriverParams::paper()
    });
    let mut vm = host.create_vm(hardened.vm_config()).unwrap();
    let catalog = driver
        .profile_and_catalog(&mut host, &mut vm, hardened.profile_params())
        .unwrap();
    vm.destroy(&mut host);
    assert!(
        !catalog.entries.is_empty(),
        "no catalogued bits — nothing reaches the release step"
    );

    let free_before = host.buddy().free_pages();
    let stats = driver.campaign(&hardened, &mut host, &catalog, 3).unwrap();
    assert_eq!(stats.attempts.len(), 3);
    for attempt in &stats.attempts {
        assert!(
            matches!(
                attempt.outcome,
                AttemptOutcome::Blocked(HvError::QuarantineNack { .. })
            ),
            "got {:?}",
            attempt.outcome
        );
        assert!(!attempt.outcome.is_success());
        assert!(attempt.duration.as_nanos() > 0);
    }
    assert_eq!(stats.first_success(), None);
    // Only the campaign's planted witness page stays allocated.
    assert_eq!(host.buddy().free_pages() + 1, free_before);
}

/// Legitimate cooperative resizing keeps working under the quarantine.
#[test]
fn quarantine_preserves_cooperative_resizing() {
    let scenario = Scenario::tiny_demo().with_quarantine();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).unwrap();
    let full = vm.virtio_mem().region_size();

    vm.virtio_mem_set_requested(full - 4 * HUGE_PAGE_SIZE);
    assert_eq!(vm.virtio_mem_sync_to_target(&mut host).unwrap(), 4);
    assert_eq!(vm.virtio_mem().plugged_size(), full - 4 * HUGE_PAGE_SIZE);

    vm.virtio_mem_set_requested(full);
    assert_eq!(vm.virtio_mem_sync_to_target(&mut host).unwrap(), 4);
    assert_eq!(vm.virtio_mem().plugged_size(), full);
}

/// The quarantine also blocks over-shrinking beyond the host target —
/// the `|Δ| > |T − V|` half of the §6 detection rule.
#[test]
fn quarantine_blocks_overshoot_beyond_target() {
    let scenario = Scenario::tiny_demo().with_quarantine();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).unwrap();
    let full = vm.virtio_mem().region_size();
    vm.virtio_mem_set_requested(full - HUGE_PAGE_SIZE);

    // One unplug converges to the target; a second overshoots.
    let base = vm.virtio_mem().region_base();
    vm.virtio_mem_unplug(&mut host, base).unwrap();
    let err = vm
        .virtio_mem_unplug(&mut host, base.add(HUGE_PAGE_SIZE))
        .unwrap_err();
    assert!(matches!(err, HvError::QuarantineNack { .. }));
}

/// DRAM-side: production TRR stops the paper's single-sided pattern but
/// is bypassed by TRRespass-style many-sided patterns (the §6
/// observation that deployed in-DRAM mitigations are insufficient).
#[test]
fn trr_changes_the_required_pattern_but_does_not_stop_hammering() {
    let plain = DimmProfile::test_profile(64 << 20);
    let mut dev = DramDevice::new(plain, 11);
    let no_trr = find_effective_pattern(&mut dev, 400_000, 48).expect("flips");
    assert_eq!(no_trr.pattern, PatternKind::SingleSided);

    let protected = DimmProfile::test_profile(64 << 20).with_trr(TrrConfig::production());
    let mut dev = DramDevice::new(protected, 11);
    let with_trr = find_effective_pattern(&mut dev, 400_000, 48).expect("TRR is bypassable");
    assert!(matches!(with_trr.pattern, PatternKind::NSided(_)));
    assert!(with_trr.activations_spent > no_trr.activations_spent);
}

/// Balloon-path quarantine analogue: ballooning is *not* covered by the
/// virtio-mem patch — the release still works, supporting the paper's
/// §6 argument that each gMD needs its own validation.
#[test]
fn quarantine_does_not_cover_the_balloon_path() {
    let scenario = Scenario::tiny_demo().with_quarantine();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).unwrap();
    let page = vm.virtio_mem().region_base();
    vm.balloon_inflate(&mut host, page).unwrap();
    assert_eq!(host.released_log().len(), 1);
}
