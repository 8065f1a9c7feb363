//! End-to-end integration tests spanning every crate: DRAM model →
//! buddy allocator → hypervisor → attack.

use hh_sim::addr::{Gpa, HUGE_PAGE_SIZE, PAGE_SIZE};
use hh_sim::ByteSize;
use hyperhammer::driver::{AttackDriver, AttemptOutcome, DriverParams};
use hyperhammer::exploit::{magic_of, ExploitParams, Exploiter};
use hyperhammer::machine::Scenario;
use hyperhammer::profile::Profiler;
use hyperhammer::steering::PageSteering;

/// The full pipeline executes and produces coherent records at every
/// stage, whatever the dice decide about final success.
#[test]
fn full_pipeline_runs_and_accounts_consistently() {
    let scenario = Scenario::tiny_demo();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).unwrap();

    // Profile.
    let profiler = Profiler::new(scenario.profile_params());
    let report = profiler.run(&mut host, &mut vm).unwrap();
    assert!(report.total() > 0);
    let catalog = profiler.to_catalog(&vm, &report).unwrap();
    vm.destroy(&mut host);

    // Attack attempts.
    let driver = AttackDriver::new(DriverParams {
        bits_per_attempt: 2,
        ..DriverParams::paper()
    });
    let stats = driver.campaign(&scenario, &mut host, &catalog, 2).unwrap();
    assert!(!stats.attempts.is_empty());
    for attempt in &stats.attempts {
        match &attempt.outcome {
            AttemptOutcome::Success(proof) => {
                assert_eq!(proof.value_read, 0x4b56_4d45_5343_4150);
            }
            AttemptOutcome::Failed(_) => {
                assert!(attempt.bits_targeted > 0);
                assert!(attempt.released <= attempt.bits_targeted);
            }
            AttemptOutcome::NoUsableBits => {}
            AttemptOutcome::Aborted(e) => {
                panic!("faults are off in this scenario, yet an attempt aborted: {e}");
            }
            AttemptOutcome::Blocked(e) => {
                panic!("the quarantine is off in this scenario, yet an attempt was blocked: {e}");
            }
            AttemptOutcome::PteCorrupted(_) | AttemptOutcome::Steered { .. } => {
                panic!(
                    "default-variant campaigns never produce variant-specific \
                     outcomes: {:?}",
                    attempt.outcome
                );
            }
        }
        assert!(attempt.duration.as_nanos() > 0);
    }
}

/// A manufactured flip drives the complete §4.3 exploitation chain:
/// detection, format screening, live validation, escape, arbitrary read.
#[test]
fn forged_epte_flip_escapes_the_vm() {
    let scenario = Scenario::small_attack();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).unwrap();
    let steering = PageSteering::new(scenario.steering_params());
    let exploiter = Exploiter::new(ExploitParams::paper());

    exploiter.stamp_magic(&mut host, &mut vm).unwrap();
    steering.spray_ept(&mut host, &mut vm, 64 << 21).unwrap();

    // Host-side secret the attacker will read after escaping.
    let secret = host
        .buddy_mut()
        .alloc_page(hh_buddy::MigrateType::Unmovable)
        .unwrap();
    host.dram_mut()
        .store_mut()
        .write_u64(secret.base_hpa(), 0xfeed_f00d_dead_beef);

    // Forge the "Rowhammer flip": redirect one stamped page's EPTE to a
    // sprayed EPT page, exactly what a PFN-bit flip does.
    let victim = Gpa::new(0x6000);
    let victim_pt = vm.leaf_epte_hpa(&host, victim).unwrap().pfn();
    let ept_page = *vm
        .ept_leaf_pages(&host)
        .iter()
        .find(|p| **p != victim_pt)
        .unwrap();
    let entry_hpa = vm.leaf_epte_hpa(&host, victim).unwrap();
    let raw = host.dram().store().read_u64(entry_hpa);
    let pfn_mask = ((1u64 << 48) - 1) & !0xfff;
    host.dram_mut()
        .store_mut()
        .write_u64(entry_hpa, raw & !pfn_mask | (ept_page.index() << 12));

    // The attacker-side chain.
    assert!(exploiter.looks_like_ept_page(&host, &vm, victim));
    let proof = exploiter
        .validate_and_escape(&mut host, &mut vm, victim, &[victim], secret.base_hpa())
        .unwrap()
        .expect("live EPT page must validate");
    assert_eq!(proof.value_read, 0xfeed_f00d_dead_beef);
}

/// Page Steering puts EPT pages onto frames the VM released — verified
/// against hypervisor-side ground truth.
#[test]
fn released_frames_end_up_hosting_eptes() {
    let scenario = Scenario::small_attack();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).unwrap();
    let steering = PageSteering::new(scenario.steering_params());

    steering.exhaust_noise(&mut host, &mut vm).unwrap();
    host.reset_released_log();
    let base = vm.virtio_mem().region_base();
    let victims: Vec<Gpa> = (0..6u64)
        .map(|i| base.add(i * 3 * HUGE_PAGE_SIZE))
        .collect();
    let released = steering
        .release_hugepages(&mut host, &mut vm, &victims)
        .unwrap();
    steering
        .spray_ept(
            &mut host,
            &mut vm,
            PageSteering::spray_budget(released.len()).min(3 << 30),
        )
        .unwrap();

    let reuse = PageSteering::reuse_stats(&host, &vm);
    assert!(reuse.reused_pages > 0, "{reuse:?}");
    assert!(reuse.ept_pages > 512, "spray created many EPT pages");
    // Conservation: R cannot exceed either N or E.
    assert!(reuse.reused_pages <= reuse.released_pages);
    assert!(reuse.reused_pages <= reuse.ept_pages);
}

/// The 21-bit address-leak premise: GPA and HPA agree on the low 21 bits
/// for every THP-backed page, which is what lets the profiler compute
/// relative DRAM banks (§4.1).
#[test]
fn thp_preserves_low_21_bits() {
    let scenario = Scenario::tiny_demo();
    let mut host = scenario.boot_host();
    let vm = host.create_vm(scenario.vm_config()).unwrap();
    for chunk in 0..vm.config().total_mem().bytes() / HUGE_PAGE_SIZE {
        for probe in [0u64, 0x1234, 0x1f_f000] {
            let gpa = Gpa::new(chunk * HUGE_PAGE_SIZE + probe);
            let hpa = vm.translate_gpa(&host, gpa).unwrap().hpa;
            assert_eq!(
                gpa.raw() & ((1 << 21) - 1),
                hpa.raw() & ((1 << 21) - 1),
                "low 21 bits must survive translation"
            );
        }
    }
}

/// Corrupting a single EPTE PFN bit in DRAM redirects exactly that 4 KiB
/// page and nothing else.
#[test]
fn epte_flip_redirects_exactly_one_page() {
    let scenario = Scenario::tiny_demo();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).unwrap();
    let exploiter = Exploiter::new(ExploitParams::paper());
    exploiter.stamp_magic(&mut host, &mut vm).unwrap();
    vm.exec_gpa(&mut host, Gpa::new(0)).unwrap(); // split chunk 0

    let victim = Gpa::new(7 * PAGE_SIZE);
    let entry_hpa = vm.leaf_epte_hpa(&host, victim).unwrap();
    let raw = host.dram().store().read_u64(entry_hpa);
    host.dram_mut()
        .store_mut()
        .write_u64(entry_hpa, raw ^ (1 << 22));

    // Every other page in the chunk still carries its magic.
    for i in 0..512u64 {
        let gpa = Gpa::new(i * PAGE_SIZE);
        let value = vm.read_u64_gpa(&host, gpa);
        if gpa == victim {
            assert_ne!(value.unwrap_or(0), magic_of(gpa));
        } else {
            assert_eq!(value.unwrap(), magic_of(gpa), "page {i} must be untouched");
        }
    }
}

/// The analytical bound brackets reality: on a host where the VM owns
/// most of memory, the per-attempt success probability is of order
/// 1/512, never better.
#[test]
fn analysis_bound_is_an_upper_bound_for_the_simulated_attack() {
    let p = hyperhammer::analysis::success_probability(ByteSize::gib(13), ByteSize::gib(16));
    assert!(p < 1.0 / 512.0);
    assert!(p > 1.0 / 1024.0);
}
