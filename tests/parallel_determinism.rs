//! The campaign engine's core guarantee (satellite of the parallel-
//! engine PR): running a grid on N workers produces results bit-identical
//! to the serial path, for every N — worker count and OS scheduling must
//! never leak into campaign statistics.

use std::num::NonZeroUsize;

use hyperhammer::driver::DriverParams;
use hyperhammer::machine::Scenario;
use hyperhammer::parallel::{parallel_map, CampaignGrid};

fn demo_grid() -> CampaignGrid {
    let params = DriverParams {
        bits_per_attempt: 4,
        stable_bits_only: true,
        ..DriverParams::paper()
    };
    CampaignGrid::new(vec![Scenario::tiny_demo()], params, 3).with_seed_count(0xd15c0, 4)
}

fn jobs(n: usize) -> NonZeroUsize {
    NonZeroUsize::new(n).expect("non-zero worker count")
}

/// 2-worker and 8-worker runs must equal the serial reference,
/// `CampaignStats` and all.
#[test]
fn two_and_eight_workers_match_serial() {
    let grid = demo_grid();
    let serial = grid.run(NonZeroUsize::MIN).expect("serial grid runs");
    assert_eq!(serial.len(), 4, "one cell per seed");

    let two = grid.run(jobs(2)).expect("2-worker grid runs");
    let eight = grid.run(jobs(8)).expect("8-worker grid runs");
    assert_eq!(serial, two, "2 workers must not change results");
    assert_eq!(serial, eight, "8 workers must not change results");

    // The cells are genuinely distinct experiments, not copies of one:
    // distinct seeds drive distinct attempt streams.
    let seeds: Vec<u64> = serial.iter().map(|c| c.seed).collect();
    let mut deduped = seeds.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), seeds.len(), "cell seeds are distinct");
    for cell in &serial {
        assert!(!cell.stats.attempts.is_empty(), "every cell ran attempts");
    }
}

/// Re-running the same grid is reproducible run-to-run (the engine adds
/// no hidden global state).
#[test]
fn repeated_runs_are_reproducible() {
    let first = demo_grid().run(jobs(4)).expect("grid runs");
    let second = demo_grid().run(jobs(4)).expect("grid runs");
    assert_eq!(first, second);
}

/// Variant cells obey the same guarantee: a grid spanning every attack
/// variant — five distinct pipelines, including the VM-less Xen path —
/// is bit-identical across worker counts.
#[test]
fn variant_grid_matches_serial() {
    use hyperhammer::machine::AttackVariant;
    let scenarios: Vec<Scenario> = AttackVariant::ALL
        .iter()
        .map(|v| Scenario::tiny_demo().with_variant(*v))
        .collect();
    let params = DriverParams {
        bits_per_attempt: 4,
        stable_bits_only: true,
        ..DriverParams::paper()
    };
    let grid = CampaignGrid::new(scenarios, params, 2).with_seed_count(0xd15c1, 1);
    let serial = grid.run(NonZeroUsize::MIN).expect("serial grid runs");
    assert_eq!(serial.len(), AttackVariant::COUNT);
    for n in [2, 8] {
        let run = grid.run(jobs(n)).expect("grid runs");
        assert_eq!(serial, run, "{n} workers must not change variant cells");
    }
}

/// `parallel_map` keeps input order under worker counts both below and
/// above the item count, with in-order claiming in between.
#[test]
fn parallel_map_order_is_stable() {
    let items: Vec<usize> = (0..64).collect();
    for n in [1, 2, 8, 64, 100] {
        let out = parallel_map(items.clone(), jobs(n), |i, x| {
            assert_eq!(i, x);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }
}
