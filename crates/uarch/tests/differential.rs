//! Differential tests: the flat, allocation-free simulator against the
//! nested-`Vec` reference model in `reference/`.
//!
//! Both sides see the same seeded `scnn-rng` streams, with `flush`,
//! `pollute` and `reset_stats` interleaved, and every observable result
//! — access outcomes, statistics, occupancy, residency probes, prefetch
//! targets, TLB verdicts and whole-core counter snapshots — must match
//! exactly. A failing case prints its configuration and step. Blocks
//! (`Probe::block`: plain streams, wrapping walks whose repeated passes
//! the simulator skips, multiply-accumulate runs and convolution taps)
//! are also checked against their replay, the same events made one by
//! one, on the reference model and on a second production core, whose
//! snapshot and whole state must match.

mod reference;

use reference::{
    apply_to, assert_cores_agree, core_ops, CoreOp, RefCache, RefCore, RefHierarchy, RefPrefetcher,
    RefTlb,
};
use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_uarch::cache::{Cache, CacheConfig, ReplacementPolicy, WritePolicy};
use scnn_uarch::hierarchy::{HierarchyConfig, MemoryHierarchy};
use scnn_uarch::prefetch::Prefetcher;
use scnn_uarch::{Block, CoreConfig, CoreSim, MacRun, PrefetcherKind, Probe, Tlb, TlbConfig};

/// (size, ways, line): direct-mapped, small, odd way counts for the PLRU
/// tree, and the 64-way limit.
const GEOMETRIES: [(usize, usize, usize); 6] = [
    (1024, 1, 64),
    (4096, 4, 64),
    (20 * 64 * 4, 20, 64),
    (6 * 32 * 8, 6, 32),
    (3 * 64 * 2, 3, 64),
    (64 * 64 * 2, 64, 64),
];

/// An address with locality: mostly a hot window a few times the cache
/// size, sometimes anywhere in a 1 MiB region.
fn address(rng: &mut ChaCha8Rng, size: usize) -> u64 {
    if rng.gen_range(0u32..8) == 0 {
        rng.gen_range(0u64..1 << 20)
    } else {
        rng.gen_range(0..4 * size as u64)
    }
}

#[test]
fn cache_matches_reference_for_every_policy_and_write_policy() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff_0001);
    for (size, ways, line) in GEOMETRIES {
        for policy in ReplacementPolicy::ALL {
            for write_policy in WritePolicy::ALL {
                let config = CacheConfig::new(size, ways, line)
                    .with_policy(policy)
                    .with_write_policy(write_policy);
                let case = format!("{config:?}");
                let mut flat = Cache::new(config).unwrap();
                let mut reference = RefCache::new(config);
                for step in 0..3000 {
                    match rng.gen_range(0u32..200) {
                        0 => {
                            flat.flush();
                            reference.flush();
                        }
                        1..=3 => {
                            let fraction = rng.gen_range(0.0..1.0);
                            let seed = rng.gen();
                            flat.pollute(fraction, seed);
                            reference.pollute(fraction, seed);
                        }
                        4 => {
                            flat.reset_stats();
                            reference.reset_stats();
                        }
                        5..=14 => {
                            let addr = address(&mut rng, size);
                            assert_eq!(
                                flat.probe_resident(addr),
                                reference.probe_resident(addr),
                                "{case} step {step}: probe_resident({addr})"
                            );
                        }
                        _ => {
                            let addr = address(&mut rng, size);
                            let write = rng.gen_range(0u32..3) == 0;
                            assert_eq!(
                                flat.access(addr, write),
                                reference.access(addr, write),
                                "{case} step {step}: access({addr}, {write})"
                            );
                        }
                    }
                    assert_eq!(flat.stats(), *reference.stats(), "{case} step {step}");
                    assert_eq!(
                        flat.occupancy(),
                        reference.occupancy(),
                        "{case} step {step}"
                    );
                }
            }
        }
    }
}

#[test]
fn tlb_matches_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff_0002);
    for (entries, associativity) in [(64, 4), (8, 2), (16, 1), (64, 64), (1536, 12)] {
        let config = TlbConfig {
            entries,
            associativity,
            page_bytes: 4096,
        };
        let mut flat = Tlb::new(config);
        let mut reference = RefTlb::new(config);
        for step in 0..5000 {
            match rng.gen_range(0u32..100) {
                0 => {
                    flat.flush();
                    reference.flush();
                }
                1 => {
                    flat.reset_stats();
                    reference.reset_stats();
                }
                _ => {
                    let pages = 2 * entries as u64;
                    let addr = rng.gen_range(0..pages * 4096);
                    assert_eq!(
                        flat.translate(addr),
                        reference.translate(addr),
                        "{config:?} step {step}: translate({addr})"
                    );
                }
            }
            assert_eq!(flat.stats(), *reference.stats(), "{config:?} step {step}");
        }
    }
}

#[test]
fn prefetchers_match_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff_0003);
    for kind in PrefetcherKind::ALL {
        let mut flat = Prefetcher::new(kind, 64);
        let Some(mut reference) = RefPrefetcher::build(kind, 64) else {
            assert_eq!(kind, PrefetcherKind::None);
            assert_eq!(flat.observe(0x40, 0, true).1, 0);
            continue;
        };
        let mut cursors = [0u64; 4];
        for step in 0..20_000 {
            let site = rng.gen_range(0usize..4);
            if rng.gen_range(0u32..16) == 0 {
                cursors[site] = rng.gen_range(0u64..1 << 24);
            } else {
                cursors[site] += 64 * (site as u64 + 1);
            }
            // Two sites per table slot exercise tag replacement.
            let pc = 0x40 + site as u64 * 0x80;
            let miss = rng.gen::<bool>();
            let (targets, n) = flat.observe(pc, cursors[site], miss);
            assert_eq!(
                targets[..n],
                reference.observe(pc, cursors[site], miss)[..],
                "{kind:?} step {step}"
            );
        }
    }
}

#[test]
fn hierarchy_matches_reference_for_every_prefetcher() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff_0004);
    let combos = PrefetcherKind::ALL.into_iter().flat_map(|prefetcher| {
        ReplacementPolicy::ALL.into_iter().flat_map(move |policy| {
            WritePolicy::ALL.map(|write_policy| (prefetcher, policy, write_policy))
        })
    });
    for (prefetcher, policy, write_policy) in combos {
        let level = |size, ways| {
            CacheConfig::new(size, ways, 64)
                .with_policy(policy)
                .with_write_policy(write_policy)
        };
        let config = HierarchyConfig {
            l1d: level(1024, 2),
            l2: level(4096, 4),
            l3: level(16 * 1024, 8),
            prefetcher,
            ..HierarchyConfig::default()
        };
        let mut flat = MemoryHierarchy::new(config).unwrap();
        let mut reference = RefHierarchy::new(config);
        let mut cursor = 0u64;
        for step in 0..10_000 {
            match rng.gen_range(0u32..500) {
                0 => {
                    flat.flush();
                    reference.flush();
                }
                1..=2 => {
                    let fraction = rng.gen_range(0.0..1.0);
                    let seed = rng.gen();
                    flat.pollute(fraction, seed);
                    reference.pollute(fraction, seed);
                }
                3 => {
                    flat.reset_stats();
                    reference.reset_stats();
                }
                n => {
                    // Half strided (trains the prefetchers), half random.
                    let (addr, pc) = if n % 2 == 0 {
                        cursor += 64;
                        (cursor, 0x40)
                    } else {
                        (rng.gen_range(0u64..64 * 1024), 0x80)
                    };
                    let write = rng.gen_range(0u32..4) == 0;
                    assert_eq!(
                        flat.access(addr, write, pc),
                        reference.access(addr, write, pc),
                        "{config:?} step {step}"
                    );
                }
            }
            assert_eq!(flat.stats(), reference.stats(), "{config:?} step {step}");
        }
        assert_eq!(flat.l1d().occupancy(), reference.l1d.occupancy());
        assert_eq!(flat.l3().occupancy(), reference.l3.occupancy());
    }
}

#[test]
fn core_matches_reference_on_every_core_preset() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff_0005);
    for (name, config) in [
        ("default", CoreConfig::default()),
        ("xeon-e5-2690", CoreConfig::xeon_e5_2690()),
        ("tiny", CoreConfig::tiny()),
    ] {
        let ops = core_ops(&mut rng, 20_000);
        let mut core = CoreSim::new(config).unwrap();
        let mut reference = RefCore::new(config);
        assert_cores_agree(name, &mut core, &mut reference, &ops);
    }
}

/// One step of a repeat-heavy stream for a single cache or TLB.
#[derive(Debug, Clone, Copy)]
enum RepeatOp {
    Access(u64, bool),
    Flush,
    Pollute(f64, u64),
    ResetStats,
}

/// A stream that keeps returning to the line (or page) just touched, so
/// the last-line memo decides most outcomes: 4-byte runs inside one
/// line, 2–3 interleaved element streams, a load and a store to one line,
/// `flush`/`pollute`/`reset_stats` between two accesses to one line, and
/// a write miss right after a hit (a write-through cache does not
/// allocate it, so the memoised line stays resident).
fn repeat_heavy_ops(rng: &mut ChaCha8Rng, size: usize, unit: u64, len: usize) -> Vec<RepeatOp> {
    let mut ops = Vec::new();
    while ops.len() < len {
        let addr = address(rng, size) & !3;
        match rng.gen_range(0u32..6) {
            0 => {
                let base = addr & !(unit - 1);
                for i in 0..rng.gen_range(2..=(unit / 4).min(32)) {
                    ops.push(RepeatOp::Access(base + 4 * i, rng.gen_range(0u32..4) == 0));
                }
            }
            1 => {
                let mut cursors: Vec<u64> = (0..rng.gen_range(2usize..=3))
                    .map(|_| address(rng, size) & !3)
                    .collect();
                for _ in 0..rng.gen_range(4..24) {
                    for c in &mut cursors {
                        ops.push(RepeatOp::Access(*c, false));
                        *c += 4;
                    }
                }
            }
            2 => {
                ops.push(RepeatOp::Access(addr, false));
                ops.push(RepeatOp::Access(addr, true));
            }
            3 => {
                ops.push(RepeatOp::Access(addr, rng.gen()));
                ops.push(match rng.gen_range(0u32..4) {
                    0 => RepeatOp::Flush,
                    1 => RepeatOp::Pollute(1.0, rng.gen()),
                    2 => RepeatOp::Pollute(rng.gen_range(0.0..1.0), rng.gen()),
                    _ => RepeatOp::ResetStats,
                });
                ops.push(RepeatOp::Access(addr ^ (unit / 2), rng.gen()));
            }
            4 => {
                ops.push(RepeatOp::Access(addr, false));
                ops.push(RepeatOp::Access(addr, false));
                ops.push(RepeatOp::Access(rng.gen_range(1u64 << 30..1 << 31), true));
                ops.push(RepeatOp::Access(addr ^ 4, rng.gen()));
            }
            _ => ops.push(RepeatOp::Access(addr, rng.gen_range(0u32..3) == 0)),
        }
    }
    ops
}

#[test]
fn cache_memo_matches_reference_on_repeat_heavy_streams() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff_0006);
    for (size, ways, line) in GEOMETRIES {
        for policy in ReplacementPolicy::ALL {
            for write_policy in WritePolicy::ALL {
                let config = CacheConfig::new(size, ways, line)
                    .with_policy(policy)
                    .with_write_policy(write_policy);
                let mut flat = Cache::new(config).unwrap();
                let mut reference = RefCache::new(config);
                for (step, op) in repeat_heavy_ops(&mut rng, size, line as u64, 3000)
                    .into_iter()
                    .enumerate()
                {
                    match op {
                        RepeatOp::Access(addr, write) => assert_eq!(
                            flat.access(addr, write),
                            reference.access(addr, write),
                            "{config:?} step {step}: {op:?}"
                        ),
                        RepeatOp::Flush => {
                            flat.flush();
                            reference.flush();
                        }
                        RepeatOp::Pollute(fraction, seed) => {
                            flat.pollute(fraction, seed);
                            reference.pollute(fraction, seed);
                        }
                        RepeatOp::ResetStats => {
                            flat.reset_stats();
                            reference.reset_stats();
                        }
                    }
                    assert_eq!(flat.stats(), *reference.stats(), "{config:?} step {step}");
                    assert_eq!(
                        flat.occupancy(),
                        reference.occupancy(),
                        "{config:?} step {step}"
                    );
                }
            }
        }
    }
}

#[test]
fn tlb_memo_matches_reference_on_repeat_heavy_streams() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xd1ff_0007);
    for (entries, associativity) in [(64, 4), (8, 2), (16, 1), (64, 64), (1536, 12)] {
        let config = TlbConfig {
            entries,
            associativity,
            page_bytes: 4096,
        };
        let mut flat = Tlb::new(config);
        let mut reference = RefTlb::new(config);
        let reach = entries * 4096;
        // Pages are 4 KiB, so a "line" of the stream is one page.
        for (step, op) in repeat_heavy_ops(&mut rng, reach, 4096, 5000)
            .into_iter()
            .enumerate()
        {
            match op {
                RepeatOp::Access(addr, _) => assert_eq!(
                    flat.translate(addr),
                    reference.translate(addr),
                    "{config:?} step {step}: {op:?}"
                ),
                // A TLB has no partial invalidation: pollution flushes it,
                // as `CoreSim::pollute` does.
                RepeatOp::Flush | RepeatOp::Pollute(..) => {
                    flat.flush();
                    reference.flush();
                }
                RepeatOp::ResetStats => {
                    flat.reset_stats();
                    reference.reset_stats();
                }
            }
            assert_eq!(flat.stats(), *reference.stats(), "{config:?} step {step}");
        }
    }
}

/// One step of a block-heavy core workload.
#[derive(Debug, Clone, Copy)]
enum Step {
    Block(Block),
    Op(CoreOp),
}

const RUN_STRIDES: [i64; 11] = [1, 3, 4, 8, 60, 64, 100, 4096, 4100, -4, -64];
const RUN_COUNTS: [u64; 6] = [0, 1, 2, 17, 1000, 20_000];
/// Load sites of the runs; 0x140 shares 0x40's stride-table entry.
const RUN_PCS: [u64; 3] = [0x40, 0x80, 0x140];

/// Where a fresh run starts: mid-line in a 1 MiB region, just below 2^63
/// (stride targets run past `i64::MAX`), or just below `u64::MAX` (the
/// run wraps to address 0).
fn run_base(rng: &mut ChaCha8Rng) -> u64 {
    match rng.gen_range(0u32..8) {
        0 => (1 << 63) - rng.gen_range(1u64..1 << 14),
        1 => u64::MAX - rng.gen_range(0u64..1 << 14),
        _ => rng.gen_range(0u64..1 << 20),
    }
}

/// Single loads from `pc` at `start`, `start + stride`, …, returning the
/// next address of the stream.
fn stream(steps: &mut Vec<Step>, start: u64, stride: i64, n: i64, pc: u64) -> u64 {
    for i in 0..n {
        let addr = start.wrapping_add_signed(stride * i);
        steps.push(Step::Op(CoreOp::Load(addr, pc)));
    }
    start.wrapping_add_signed(stride * n)
}

/// Plain streams (walks with `pass` 0 from element 0) of every stride
/// and count in [`RUN_STRIDES`] and [`RUN_COUNTS`] (20 000-element runs
/// rarely, they dominate the per-element side's time), starting fresh,
/// continuing the previous run of their load site, continuing a stream
/// that single loads at the same site have trained, or at a site whose
/// stride entry holds another stride; with cold starts, pollution,
/// counter resets and stray events in between.
fn run_steps(rng: &mut ChaCha8Rng, len: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    let mut resume = [(0u64, 4i64); RUN_PCS.len()];
    while steps.len() < len {
        let site = rng.gen_range(0..RUN_PCS.len());
        let pc = RUN_PCS[site];
        let mut stride = RUN_STRIDES[rng.gen_range(0..RUN_STRIDES.len())];
        let base = match rng.gen_range(0u32..10) {
            0..=2 => {
                let n = rng.gen_range(1..=4);
                stream(&mut steps, run_base(rng), stride, n, pc)
            }
            3 => {
                let other = RUN_STRIDES[rng.gen_range(0..RUN_STRIDES.len())];
                let n = rng.gen_range(3..=5);
                let last = stream(&mut steps, run_base(rng), other, n, pc);
                last.wrapping_add_signed(stride - other)
            }
            4..=5 => {
                stride = resume[site].1;
                resume[site].0
            }
            _ => run_base(rng),
        };
        let count = if rng.gen_range(0u32..24) == 0 {
            RUN_COUNTS[5]
        } else {
            RUN_COUNTS[rng.gen_range(0..5)]
        };
        steps.push(Step::Block(Block::Walk {
            base,
            stride,
            pass: 0,
            start: 0,
            count,
            pc,
            write: rng.gen_range(0u32..3) == 0,
        }));
        resume[site] = (
            base.wrapping_add_signed(stride.wrapping_mul(count as i64)),
            stride,
        );
        let op = match rng.gen_range(0u32..16) {
            0 => CoreOp::ColdStart,
            1 => CoreOp::Pollute(1.0, rng.gen()),
            2 => CoreOp::Pollute(rng.gen_range(0.0..1.0), rng.gen()),
            3 => CoreOp::ResetCounters,
            4 => CoreOp::Load(rng.gen_range(0u64..1 << 20), 0x4000),
            5 => CoreOp::Store(rng.gen_range(0u64..1 << 20), pc),
            6 => CoreOp::Branch(0x800, rng.gen()),
            7 => CoreOp::Alu(rng.gen_range(1u64..64)),
            _ => continue,
        };
        steps.push(Step::Op(op));
    }
    steps
}

/// One core per cache shape, replacement policy, L1 write policy and
/// prefetcher kind, the TLB shape cycling through small, direct-mapped,
/// fully associative, large and sub-line-page TLBs.
fn every_cache_shape() -> Vec<CoreConfig> {
    let tlbs = [
        (64, 4, 4096),
        (8, 2, 4096),
        (16, 1, 1024),
        (64, 64, 256),
        (1536, 12, 4096),
        (4, 1, 64),
        // Pages smaller than a line.
        (8, 2, 32),
    ];
    let mut configs = Vec::new();
    for (size, ways, line) in GEOMETRIES {
        for policy in ReplacementPolicy::ALL {
            for write_policy in WritePolicy::ALL {
                for prefetcher in PrefetcherKind::ALL {
                    let level = |size| {
                        CacheConfig::new(size, ways, line)
                            .with_policy(policy)
                            .with_write_policy(write_policy)
                    };
                    let (entries, associativity, page_bytes) = tlbs[configs.len() % tlbs.len()];
                    configs.push(CoreConfig {
                        hierarchy: HierarchyConfig {
                            l1d: level(size),
                            l2: level(4 * size),
                            l3: level(16 * size),
                            prefetcher,
                            ..HierarchyConfig::default()
                        },
                        tlb: TlbConfig {
                            entries,
                            associativity,
                            page_bytes,
                        },
                        ..CoreConfig::tiny()
                    });
                }
            }
        }
    }
    configs
}

/// (weight site, accumulator site) pairs of multiply-accumulate runs:
/// distinct stride-table entries (as the traced kernels' sites are),
/// two sites aliasing one entry, one site for both, and sites that
/// alias the entry of the single accesses in between.
const MAC_PCS: [(u64, u64); 5] = [
    (0x40_0100, 0x40_0140),
    (0x40, 0x140),
    (0x80, 0x80),
    (0x140, 0x40),
    (0x4000, 0x40_0140),
];
const MAC_WEIGHT_STRIDES: [i64; 7] = [4, 100, 0, -4, 64, 4096, i64::MIN];
const MAC_ACC_STRIDES: [i64; 8] = [4, 2304, 0, -4, -2304, 64, 4100, i64::MAX];
/// 0 and 1 iterations, a conv layer's filter counts, and runs longer
/// than any per-iteration table the simulator might keep.
const MAC_COUNTS: [u64; 7] = [0, 1, 2, 6, 16, 100, 300];

/// Where a multiply-accumulate operand starts: low memory, or within
/// 4 KiB of `u64::MAX`, so the run wraps to address 0.
fn mac_base(rng: &mut ChaCha8Rng) -> u64 {
    if rng.gen_range(0u32..6) == 0 {
        u64::MAX - rng.gen_range(0u64..1 << 12)
    } else {
        rng.gen_range(0u64..1 << 20)
    }
}

/// Multiply-accumulate runs as a convolution emits them: groups of runs
/// one kernel tap apart (weights 4 bytes on, accumulators 4 bytes back,
/// so each run revisits the lines of the one before), with fresh
/// strides, sites and counts per group, and cold starts, pollution,
/// counter resets and single events at the same sites in between.
fn mac_steps(rng: &mut ChaCha8Rng, len: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    while steps.len() < len {
        let (weight_pc, acc_pc) = MAC_PCS[rng.gen_range(0..MAC_PCS.len())];
        let mut run = MacRun {
            weight: mac_base(rng),
            weight_stride: MAC_WEIGHT_STRIDES[rng.gen_range(0..MAC_WEIGHT_STRIDES.len())],
            weight_pc,
            acc: mac_base(rng),
            acc_stride: MAC_ACC_STRIDES[rng.gen_range(0..MAC_ACC_STRIDES.len())],
            acc_pc,
            alu: rng.gen_range(0u64..3),
            count: MAC_COUNTS[rng.gen_range(0..MAC_COUNTS.len())],
        };
        for _ in 0..rng.gen_range(1..=5) {
            steps.push(Step::Block(Block::Mac { scratch: None, run }));
            run.weight = run.weight.wrapping_add(4);
            run.acc = run.acc.wrapping_sub(4);
        }
        let op = match rng.gen_range(0u32..12) {
            0 => CoreOp::ColdStart,
            1 => CoreOp::Pollute(1.0, rng.gen()),
            2 => CoreOp::Pollute(rng.gen_range(0.0..1.0), rng.gen()),
            3 => CoreOp::ResetCounters,
            4 => CoreOp::Load(run.acc, acc_pc),
            5 => CoreOp::Store(run.weight, weight_pc),
            6 => CoreOp::Load(rng.gen_range(0u64..1 << 20), 0x40),
            7 => CoreOp::Alu(rng.gen_range(1u64..64)),
            _ => continue,
        };
        steps.push(Step::Op(op));
    }
    steps
}

/// Scratch store sites of taps, for a run's (weight, accumulator) sites:
/// a stride entry of its own, the weight's or the accumulator's site,
/// and a site aliasing the weight's or the accumulator's entry.
fn scratch_pc(rng: &mut ChaCha8Rng, (weight_pc, acc_pc): (u64, u64)) -> u64 {
    match rng.gen_range(0u32..5) {
        0 => 0x40_01c0,
        1 => weight_pc,
        2 => acc_pc,
        3 => weight_pc ^ 0x1000,
        _ => acc_pc ^ 0x1_0000,
    }
}

/// The runs of [`mac_steps`] as taps: before each run, two stores from
/// one scratch site, to the next element of a value array and of an
/// index array (a few lines to a few pages apart, or wrapping past
/// `u64::MAX`), both arrays restarting now and then.
fn tap_steps(rng: &mut ChaCha8Rng, len: usize) -> Vec<Step> {
    let mut scratch = [0u64; 2];
    let mut pc = 0;
    mac_steps(rng, len)
        .into_iter()
        .map(|step| match step {
            Step::Block(Block::Mac { run, .. }) => {
                if pc == 0 || rng.gen_range(0u32..6) == 0 {
                    let value = mac_base(rng);
                    let gap = [256, 4096, 40_000][rng.gen_range(0..3)];
                    scratch = [value, value.wrapping_add(gap)];
                    pc = scratch_pc(rng, (run.weight_pc, run.acc_pc));
                }
                let tap = Block::Mac {
                    scratch: Some((scratch, pc)),
                    run,
                };
                scratch = scratch.map(|addr| addr.wrapping_add(4));
                Step::Block(tap)
            }
            step => step,
        })
        .collect()
}

/// Arena lengths of the wrapping walks: one and three elements, and
/// arenas larger than some of [`every_cache_shape`]'s L1s, L2s and TLB
/// reaches.
const WALK_PASSES: [u64; 4] = [1, 3, 130, 700];
const WALK_STRIDES: [i64; 3] = [4, 64, -4];

/// Wrapping walks as oblivious padding makes them: groups of walks over
/// one arena from one site, loads and stores mostly by turns, each from
/// where the last stopped, from anywhere in the arena or from past its
/// end (taken modulo its length), over up to six whole passes and a
/// part. So some whole passes repeat themselves and are skipped, and
/// some must not be: a first pass that still fills the cache, a pass
/// over an arena larger than L2 or than the TLB's reach, or one that
/// starts from the lines it ends with in another stamp order. For the
/// last, a walk now and then stops at the arena's last element, another
/// site reads the arena's last elements again backwards, and the next
/// walk resumes in the same direction, one access before its whole
/// passes. Single accesses to the arena, cold starts, pollution, counter
/// resets and stray events come in between.
fn walk_steps(rng: &mut ChaCha8Rng, len: usize) -> Vec<Step> {
    let mut steps = Vec::new();
    while steps.len() < len {
        let pass = WALK_PASSES[rng.gen_range(0..WALK_PASSES.len())];
        let stride = WALK_STRIDES[rng.gen_range(0..WALK_STRIDES.len())];
        let base = run_base(rng);
        let element = |i: u64| base.wrapping_add((stride as u64).wrapping_mul(i));
        let pc = RUN_PCS[rng.gen_range(0..RUN_PCS.len())];
        let mut cursor = rng.gen_range(0..pass);
        let mut write = rng.gen();
        let mut resume = false;
        for _ in 0..rng.gen_range(1..=4) {
            let start = match rng.gen_range(0u32..8) {
                _ if resume => cursor,
                0 => rng.gen_range(0..pass),
                1 => rng.gen_range(pass..u64::MAX),
                _ => cursor,
            };
            let to_last = rng.gen::<bool>();
            let part = if to_last {
                (2 * pass - 1 - start % pass) % pass
            } else {
                rng.gen_range(0..pass)
            };
            let passes = rng.gen_range(if resume { 4 } else { 0 }..=6);
            let count = passes * pass + part;
            steps.push(Step::Block(Block::Walk {
                base,
                stride,
                pass,
                start,
                count,
                pc,
                write,
            }));
            cursor = (start % pass + count % pass) % pass;
            resume = to_last && rng.gen();
            if resume {
                steps.push(Step::Block(Block::Walk {
                    base: element(pass - 1),
                    stride: -stride,
                    pass: 0,
                    start: 0,
                    count: rng.gen_range(1..=pass),
                    pc: 0x4000,
                    write: false,
                }));
                continue;
            }
            write ^= rng.gen_range(0u32..4) != 0;
            let element = element(rng.gen_range(0..pass));
            let op = match rng.gen_range(0u32..16) {
                0 => CoreOp::ColdStart,
                1 => CoreOp::Pollute(1.0, rng.gen()),
                2 => CoreOp::Pollute(rng.gen_range(0.0..1.0), rng.gen()),
                3 => CoreOp::ResetCounters,
                4 => CoreOp::Load(element, pc),
                5 => CoreOp::Store(element, 0x4000),
                6 => CoreOp::Load(rng.gen_range(0u64..1 << 20), 0x4000),
                7 => CoreOp::Branch(0x800, rng.gen()),
                8 => CoreOp::Alu(rng.gen_range(1u64..64)),
                _ => continue,
            };
            steps.push(Step::Op(op));
        }
    }
    steps
}

/// The step generators of the block test, each with its seed: plain
/// streams, multiply-accumulate runs, convolution taps, and wrapping
/// walks.
type Generator = (u64, fn(&mut ChaCha8Rng) -> Vec<Step>);
const GENERATORS: [Generator; 4] = [
    (0xd1ff_0008, |rng| run_steps(rng, 24)),
    (0xd1ff_0009, |rng| mac_steps(rng, 60)),
    (0xd1ff_000a, |rng| tap_steps(rng, 60)),
    (0xd1ff_000b, |rng| walk_steps(rng, 24)),
];

/// Drives a fast core with `steps`, and a slow core and the reference
/// model with each block's replay: after every step the three
/// snapshots must match, and so must the two production cores' state.
fn assert_blocks_match(config: CoreConfig, steps: Vec<Step>) {
    let case = format!("{config:?}");
    let mut fast = CoreSim::new(config).unwrap();
    let mut slow = CoreSim::new(config).unwrap();
    let mut reference = RefCore::new(config);
    for (step, op) in steps.into_iter().enumerate() {
        match op {
            Step::Block(block) => {
                fast.block(block);
                block.replay(&mut slow);
                block.replay(&mut reference);
            }
            Step::Op(op) => {
                apply_to(&mut fast, op);
                apply_to(&mut slow, op);
                apply_to(&mut reference, op);
            }
        }
        let snapshot = fast.snapshot();
        assert_eq!(snapshot, slow.snapshot(), "{case} step {step}: {op:?}");
        assert_eq!(snapshot, reference.snapshot(), "{case} step {step}: {op:?}");
        assert!(
            fast.hierarchy() == slow.hierarchy() && fast.tlb() == slow.tlb(),
            "{case} step {step}: {op:?} left another state than per-element events"
        );
    }
}

#[test]
fn blocks_match_per_element_events_for_every_cache_shape() {
    for (seed, steps) in GENERATORS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for config in every_cache_shape() {
            assert_blocks_match(config, steps(&mut rng));
        }
    }
}

/// A whole pass that ends with the lines it started with, in the same
/// ways but in another stamp order, must not be skipped: the next pass
/// evicts other ways. The walk generator cannot build one on
/// [`every_cache_shape`]: every whole pass starts right after the
/// arena's last element, and in that element's L1 set, which holds the
/// most arena lines, an LRU eviction chain closes only with two ways.
/// So this builds it on two-way L1s, for each L1 write policy and
/// prefetcher: 25 lines over 8 sets, set 0 cycling through 4 of them and
/// sets 1 to 7 through 3 (lines s, s + 8, s + 16), with line s + 8 the
/// newer in sets 1 to 7 before the walk.
#[test]
fn a_pass_that_reorders_its_lines_matches_the_reference_model() {
    let base = 0x10000;
    let line = |i: u64| base + 64 * i;
    for write_policy in WritePolicy::ALL {
        for prefetcher in PrefetcherKind::ALL {
            let mut config = CoreConfig::tiny();
            config.hierarchy.l1d = config.hierarchy.l1d.with_write_policy(write_policy);
            config.hierarchy.prefetcher = prefetcher;
            assert_eq!(config.hierarchy.l1d.associativity, 2);
            let mut steps: Vec<Step> = (0..25)
                .chain(9..16)
                .chain([24])
                .map(|i| Step::Op(CoreOp::Load(line(i), 0x80)))
                .collect();
            steps.push(Step::Block(Block::Walk {
                base,
                stride: 4,
                pass: 400,
                start: 399,
                count: 1 + 5 * 400,
                pc: 0x40_0200,
                write: false,
            }));
            assert_blocks_match(config, steps);
        }
    }
}

/// A whole pass that misses L3 but not L2 must not be skipped: the line
/// it fills into L3 stays there, so the next pass does not miss. The
/// walk generator cannot build one either: a pass misses L3 under L2
/// hits only on a prefetch target that L2 holds and L3 has lost, and it
/// never evicts from L3 what L2 keeps. So this builds it on the tiny
/// core with the stride prefetcher: an arena of two lines (32 elements
/// of 4 bytes), its first line `a` held by L1 and L2 but evicted from
/// L3 by four loads that L3's set saw after `a` and L2's set before a
/// second load of `a`, and a walk from the second line, whose head
/// proposes only that line and the one after the arena. Its first
/// whole pass proposes `a` again, misses L3 once and leaves L1 and the
/// stride entry as it found them.
#[test]
fn a_pass_that_misses_l3_under_l2_hits_matches_the_reference_model() {
    let mut config = CoreConfig::tiny();
    config.hierarchy.prefetcher = PrefetcherKind::Stride;
    let a = 0x10000;
    let set = |k: u64| a + 4096 * k;
    let mut steps: Vec<Step> = [a, set(1), set(3), set(2), a, set(4), a]
        .into_iter()
        .map(|addr| Step::Op(CoreOp::Load(addr, 0x80)))
        .collect();
    steps.push(Step::Block(Block::Walk {
        base: a,
        stride: 4,
        pass: 32,
        start: 16,
        count: 16 + 5 * 32,
        pc: 0x40,
        write: false,
    }));
    assert_blocks_match(config, steps);
}
