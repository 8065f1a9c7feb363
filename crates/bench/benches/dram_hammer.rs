//! Micro-benchmarks for the DRAM model: address mapping, hammer-plan
//! compilation and plan-cache lookup, hammer bursts (cold and cached
//! plans), and timing-probe measurements.

use hh_bench::harness::{BatchSize, Criterion};
use hh_bench::{criterion_group, criterion_main};
use hh_dram::geometry::{BankFunction, DramGeometry};
use hh_dram::timing::{AccessTiming, TimingProbe};
use hh_dram::{DimmProfile, DramDevice, HammerPattern, DEFAULT_PLAN_CACHE_CAPACITY};
use hh_sim::Hpa;
use std::hint::black_box;

const DIMM: u64 = 64 << 20;
const SEED: u64 = 99;
const ROUNDS: u64 = 250_000;

fn device() -> DramDevice {
    let mut dev = DramDevice::new(DimmProfile::test_profile(DIMM), SEED);
    dev.fill(Hpa::new(0), DIMM, 0xff);
    dev
}

fn pattern(dev: &DramDevice) -> HammerPattern {
    // Bank 3 / row 80 deterministically flips cells at this seed, so the
    // burst benches exercise the full path (TRR, thresholds, RNG draws,
    // store writes) and the JSON report gets a non-zero flips/sec.
    HammerPattern::single_sided_for(dev.geometry(), 3, 80)
}

/// Deterministic flips of the first burst on a fresh device — every
/// batched sample below starts from this exact state.
fn flips_per_burst() -> usize {
    let mut dev = device();
    let p = pattern(&dev);
    dev.hammer(&p, ROUNDS).flips.len()
}

fn bench_dram(c: &mut Criterion) {
    let mut group = c.benchmark_group("dram");
    group.meta("test_profile_64mib", SEED);
    let flips = flips_per_burst();

    let geom = DramGeometry::new(BankFunction::core_i3_10100(), 1 << 30);
    group.bench_function("bank_of", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            addr = addr.wrapping_add(0x40_1040) & ((1 << 30) - 1);
            black_box(geom.bank_of(Hpa::new(addr)))
        })
    });

    group.bench_function("addr_in_bank_row", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(geom.addr_in((i % 32) as u32, i % 1024))
        })
    });

    group.bench_function("plan_compile_single_sided", |b| {
        b.iter_batched_ref(
            || {
                let dev = device();
                let p = pattern(&dev);
                (dev, p)
            },
            |(dev, p)| black_box(dev.compile_plan(p)),
            BatchSize::SmallInput,
        )
    });

    // The profiler's pattern: one double-sided pair per victim row.
    group.bench_function("plan_compile_double_sided", |b| {
        b.iter_batched_ref(
            || {
                let dev = device();
                let p = HammerPattern::double_sided_for(dev.geometry(), 3, 80);
                (dev, p)
            },
            |(dev, p)| black_box(dev.compile_plan(p)),
            BatchSize::SmallInput,
        )
    });

    // A hit in a full cache: 128 resident plans, looked up round-robin
    // so every lookup hits and the cache stays full.
    group.bench_function("plan_cache_lookup_full", |b| {
        let mut dev = device();
        let patterns: Vec<HammerPattern> = (0..DEFAULT_PLAN_CACHE_CAPACITY as u64)
            .map(|i| HammerPattern::double_sided_for(dev.geometry(), (i % 8) as u32, 2 + i / 8 * 3))
            .collect();
        for p in &patterns {
            dev.warm_plan(p);
        }
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % patterns.len();
            black_box(dev.plan_for(&patterns[i]))
        })
    });

    // The headline burst bench: plan warmed in setup, so the routine
    // measures a cache-hit burst — the steady state of every profiling /
    // steering / exploit loop.
    group.bench_function("hammer_burst_single_sided", |b| {
        b.iter_batched_ref(
            || {
                let mut dev = device();
                let p = pattern(&dev);
                dev.warm_plan(&p);
                (dev, p)
            },
            |(dev, p)| black_box(dev.hammer(p, ROUNDS)),
            BatchSize::SmallInput,
        );
        b.flips_per_iter(flips as f64);
    });

    // Worst case: cold cache, the burst pays for its own compile.
    group.bench_function("hammer_burst_cold_plan", |b| {
        b.iter_batched_ref(
            || {
                let dev = device();
                let p = pattern(&dev);
                (dev, p)
            },
            |(dev, p)| black_box(dev.hammer(p, ROUNDS)),
            BatchSize::SmallInput,
        );
        b.flips_per_iter(flips as f64);
    });

    // Steady-state plan reuse on one long-lived device, the way the
    // profiler's stability loop re-hammers: no per-burst setup at all.
    group.bench_function("hammer_planned_steady_state", |b| {
        let mut dev = device();
        let p = pattern(&dev);
        let plan = dev.plan_for(&p);
        b.iter(|| black_box(dev.hammer_planned(&plan, ROUNDS)))
    });

    group.bench_function("timing_probe_pair", |b| {
        let probe = TimingProbe::new(geom.clone(), AccessTiming::ddr4_2666());
        let mut i = 0u64;
        b.iter(|| {
            i += 0x1040;
            black_box(probe.measure_pair(Hpa::new(0), Hpa::new(i & ((1 << 30) - 1))))
        })
    });

    group.bench_function("store_fill_2mib", |b| {
        b.iter_batched_ref(
            || DramDevice::new(DimmProfile::test_profile(DIMM), 1),
            |dev| dev.fill(Hpa::new(0), 2 << 20, 0x55),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_dram);
criterion_main!(benches);
