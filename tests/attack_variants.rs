//! Attack-variant matrix (satellite of the variant-sweep PR): every
//! variant of the campaign engine — balloon steering, the Xen
//! comparison, PThammer's walker-charged activations, GbHammer's
//! permission-bit flips — must behave like a first-class cell: correct
//! outcome shapes, deterministic across worker counts, and rebuildable
//! from the `name@variant` spec strings that checkpoints and server
//! jobs carry.

use std::num::NonZeroUsize;

use hh_hv::xen::{steering_experiment, XenDomain};
use hh_sim::addr::{Gpa, HUGE_PAGE_SIZE, PAGE_SIZE};
use hh_trace::{Stage, TraceMode};
use hyperhammer::driver::{AttemptOutcome, DriverParams};
use hyperhammer::machine::{AttackVariant, Scenario};
use hyperhammer::parallel::CampaignGrid;
use hyperhammer::steering::PageSteering;
use hyperhammer::JobSpec;

fn params() -> DriverParams {
    DriverParams {
        bits_per_attempt: 4,
        stable_bits_only: true,
        ..DriverParams::paper()
    }
}

fn jobs(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("non-zero worker count")
}

/// One cell per attack variant over the cheapest scenario.
fn variant_grid(trace: TraceMode) -> CampaignGrid {
    let scenarios: Vec<Scenario> = AttackVariant::ALL
        .iter()
        .map(|v| Scenario::micro_demo().with_variant(*v))
        .collect();
    CampaignGrid::new(scenarios, params(), 3)
        .with_seed_count(0xa77a, 1)
        .with_trace(trace)
}

/// The five-variant grid is bit-identical across 1, 2 and 8 workers —
/// the property the variant-matrix CI stage byte-compares end to end.
#[test]
fn variant_grid_is_deterministic_across_worker_counts() {
    let grid = variant_grid(TraceMode::Off);
    let serial = grid.run(NonZeroUsize::MIN).expect("serial grid runs");
    assert_eq!(serial.len(), AttackVariant::COUNT, "one cell per variant");
    let got: Vec<AttackVariant> = serial.iter().map(|c| c.variant).collect();
    assert_eq!(got, AttackVariant::ALL, "cells come back variant-major");
    for n in [1usize, 2, 8] {
        let run = grid.run(jobs(n)).expect("grid runs");
        assert_eq!(serial, run, "{n} workers must not change variant cells");
    }
}

/// Balloon steering is deterministic run-to-run and routes through the
/// dedicated pipeline stage (no noise exhaustion, per-page release).
#[test]
fn balloon_cells_are_deterministic_and_staged() {
    let grid = |trace| {
        CampaignGrid::new(
            // tiny, not micro: the balloon stage only runs once the
            // catalogue holds usable bits, and micro's is empty.
            vec![Scenario::tiny_demo().with_variant(AttackVariant::Balloon)],
            params(),
            2,
        )
        .with_seed_count(0xba11, 2)
        .with_trace(trace)
    };
    let first = grid(TraceMode::Off).run(jobs(2)).expect("grid runs");
    let second = grid(TraceMode::Off).run(jobs(2)).expect("grid runs");
    assert_eq!(first, second, "balloon placement must be deterministic");

    let traced = grid(TraceMode::Full)
        .run(NonZeroUsize::MIN)
        .expect("traced runs");
    for cell in &traced {
        let sink = cell.trace.as_ref().expect("traced cell has a sink");
        let stages: Vec<Stage> = sink
            .events()
            .iter()
            .filter_map(|e| match e.event {
                hh_trace::Event::StageStart { stage } => Some(stage),
                _ => None,
            })
            .collect();
        assert!(
            stages.contains(&Stage::BalloonSteer),
            "balloon cells must pass through Stage::BalloonSteer"
        );
        assert!(
            !stages.contains(&Stage::ExhaustNoise),
            "balloon steering needs no noise exhaustion (PCP LIFO lands it)"
        );
    }
}

/// Per-page release (§6): ballooning pages out of THP-backed guest
/// memory splits the hugepage and frees exactly the ballooned 4 KiB
/// frames — no 512-page sub-block and its noise — and after noise
/// exhaustion the EPT spray reuses every one of them.
#[test]
fn ballooned_pages_release_single_frames_that_the_spray_reuses() {
    let scenario = Scenario::small_attack();
    let mut host = scenario.boot_host();
    let mut vm = host.create_vm(scenario.vm_config()).expect("vm boots");
    let steering = PageSteering::new(scenario.steering_params());
    steering
        .exhaust_noise(&mut host, &mut vm)
        .expect("exhaustion runs");
    host.reset_released_log();

    let base = vm.virtio_mem().region_base();
    let victims: Vec<Gpa> = (0..8u64)
        .map(|i| base.add(i * 37 * PAGE_SIZE + 3 * PAGE_SIZE))
        .collect();
    let leaves_before = vm.ept_leaf_pages(&host).len();
    for &victim in &victims {
        vm.balloon_inflate(&mut host, victim).expect("inflate");
    }
    assert!(
        vm.ept_leaf_pages(&host).len() > leaves_before,
        "ballooning out of a hugepage splits it into an EPT page"
    );
    assert_eq!(vm.balloon().inflated_pages(), victims.len() as u64);
    assert_eq!(
        host.released_log().len(),
        victims.len(),
        "one released frame per ballooned page"
    );

    steering
        .spray_ept(&mut host, &mut vm, 2 << 30)
        .expect("spray runs");
    let reuse = PageSteering::reuse_stats(&host, &vm);
    assert_eq!(reuse.released_pages, victims.len() as u64);
    assert_eq!(
        reuse.reused_pages, reuse.released_pages,
        "every released frame becomes an EPT page"
    );
}

/// The §6 Xen comparison: on KVM, EPT pages are unmovable order-0
/// allocations, so without vIOMMU noise exhaustion the spray never
/// lands on released sub-blocks; exhaustion makes it land; Xen's
/// undifferentiated domheap reuses released pages for p2m pages with
/// no exhaustion step at all, at a higher rate than exhausted KVM.
#[test]
fn xen_reuses_released_pages_without_the_exhaustion_kvm_needs() {
    let scenario = Scenario::small_attack();
    let kvm_reuse = |exhaust: bool| {
        let mut host = scenario.boot_host();
        let mut vm = host.create_vm(scenario.vm_config()).expect("vm boots");
        let steering = PageSteering::new(scenario.steering_params());
        if exhaust {
            steering
                .exhaust_noise(&mut host, &mut vm)
                .expect("exhaustion runs");
        }
        host.reset_released_log();
        let base = vm.virtio_mem().region_base();
        let victims: Vec<Gpa> = (0..6u64)
            .map(|i| base.add(i * 4 * HUGE_PAGE_SIZE))
            .collect();
        steering
            .release_hugepages(&mut host, &mut vm, &victims)
            .expect("release runs");
        steering
            .spray_ept(&mut host, &mut vm, 1 << 30)
            .expect("spray runs");
        PageSteering::reuse_stats(&host, &vm)
    };
    let unexhausted = kvm_reuse(false);
    let exhausted = kvm_reuse(true);
    assert_eq!(unexhausted.reused_pages, 0, "noise soaks up the spray");
    assert!(exhausted.reused_pages > 0, "exhaustion lets the spray land");

    let mut host = scenario.boot_host();
    let mut dom = XenDomain::create(&mut host, 512 << 21).expect("domain boots");
    let xen = steering_experiment(&mut host, &mut dom, 6, 400).expect("experiment runs");
    dom.destroy(&mut host);
    assert_eq!(xen.released, exhausted.released_pages);
    assert!(
        xen.reused > exhausted.reused_pages,
        "Xen without exhaustion beats KVM with it: {xen:?} vs {exhausted:?}"
    );
}

/// Xen cells report reuse statistics: every attempt ends `Steered`,
/// success means at least one released page came back, and the stats
/// are internally consistent.
#[test]
fn xen_cells_report_reuse_stats() {
    let grid = CampaignGrid::new(
        vec![Scenario::micro_demo().with_variant(AttackVariant::Xen)],
        params(),
        3,
    )
    .with_seed_count(0x7e4, 2);
    let results = grid.run(NonZeroUsize::MIN).expect("xen grid runs");
    for cell in &results {
        assert!(!cell.stats.attempts.is_empty(), "xen cells run attempts");
        for attempt in &cell.stats.attempts {
            match attempt.outcome {
                AttemptOutcome::Steered {
                    released,
                    p2m_pages,
                    reused,
                } => {
                    assert!(released > 0, "the experiment releases pages");
                    assert!(p2m_pages > 0, "the domain has a P2M");
                    assert_eq!(
                        attempt.outcome.is_success(),
                        reused > 0,
                        "xen success is defined as reuse of a released page"
                    );
                }
                ref other => panic!("xen attempts must end Steered, got {other:?}"),
            }
        }
    }
}

/// GbHammer succeeds through PTE permission-bit corruption — a payload
/// distinct from the address-translation escape of the default path.
#[test]
fn gbhammer_cells_corrupt_ptes_not_translations() {
    let grid = CampaignGrid::new(
        vec![Scenario::tiny_demo().with_variant(AttackVariant::GbHammer)],
        params(),
        4,
    )
    .with_seed_count(0x6b, 3);
    let results = grid.run(NonZeroUsize::MIN).expect("gbhammer grid runs");
    let outcomes: Vec<&AttemptOutcome> = results
        .iter()
        .flat_map(|c| c.stats.attempts.iter().map(|a| &a.outcome))
        .collect();
    assert!(
        !outcomes.is_empty(),
        "gbhammer cells must have run attempts"
    );
    for outcome in &outcomes {
        assert!(
            !matches!(outcome, AttemptOutcome::Success(_)),
            "gbhammer never produces the translation-escape payload"
        );
    }
    assert!(
        outcomes
            .iter()
            .any(|o| matches!(o, AttemptOutcome::PteCorrupted(_))),
        "at least one attempt should flip a PTE control bit at these seeds"
    );
}

/// PThammer charges activations through EPT-walker fetches, so its
/// cells diverge from the default variant at identical seeds while
/// remaining deterministic themselves. The wall clock is the same by
/// construction (the flush-and-walk cycle burns the full round budget),
/// so the divergence shows up in the traced DRAM activity: a quarter of
/// the hammer rounds means a lower flip yield.
#[test]
fn pthammer_diverges_from_default_but_stays_deterministic() {
    let cell = |variant| {
        CampaignGrid::new(
            vec![Scenario::tiny_demo().with_variant(variant)],
            params(),
            2,
        )
        .with_seed_count(0x971, 1)
        .with_trace(TraceMode::Full)
        .run(NonZeroUsize::MIN)
        .expect("grid runs")
    };
    let pt_a = cell(AttackVariant::PtHammer);
    let pt_b = cell(AttackVariant::PtHammer);
    assert_eq!(pt_a, pt_b, "pthammer cells are reproducible");
    let default = cell(AttackVariant::VirtioMem);
    assert_eq!(default[0].scenario, pt_a[0].scenario);
    assert_eq!(default[0].seed, pt_a[0].seed);
    assert_ne!(
        default, pt_a,
        "walker-charged hammering must change the traced DRAM activity"
    );
}

/// The `name@variant` spec strings round-trip through [`JobSpec`] — the
/// encoding checkpoints and server jobs persist — and rebuild cells of
/// the right variant in the right order.
#[test]
fn job_spec_round_trips_variant_scenarios() {
    let spec = JobSpec {
        scenarios: vec![
            "micro@balloon".to_string(),
            "micro".to_string(),
            "tiny@xen".to_string(),
        ],
        seeds: 2,
        base_seed: 0xcafe,
        attempts: 2,
        bits: 4,
        ..JobSpec::default()
    };
    let grid = spec.to_grid().expect("variant spec builds a grid");
    assert_eq!(grid.len(), 6, "3 scenarios x 2 seeds");
    let variants: Vec<AttackVariant> = grid.scenarios().iter().map(Scenario::variant).collect();
    assert_eq!(
        variants,
        vec![
            AttackVariant::Balloon,
            AttackVariant::VirtioMem,
            AttackVariant::Xen
        ]
    );
    // lookup_name is the inverse encoding: feeding it back reproduces
    // the spec strings exactly (default variant stays bare).
    let names: Vec<String> = grid.scenarios().iter().map(Scenario::lookup_name).collect();
    assert_eq!(names, spec.scenarios);
}
