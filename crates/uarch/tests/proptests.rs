//! Property-based tests for the microarchitectural simulator: structural
//! invariants that must hold for every access pattern.
//!
//! Each property runs over `CASES` deterministically generated inputs
//! from a per-test seeded [`ChaCha8Rng`]; a failing case prints its index
//! and reproduces exactly.

use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_uarch::cache::{Cache, CacheConfig, ReplacementPolicy};
use scnn_uarch::{CoreConfig, CoreSim, Probe, Tlb, TlbConfig};

const CASES: usize = 256;

fn accesses(rng: &mut ChaCha8Rng) -> Vec<(u64, bool)> {
    let len = rng.gen_range(1usize..500);
    (0..len)
        .map(|_| (rng.gen_range(0u64..1 << 20), rng.gen::<bool>()))
        .collect()
}

fn any_policy(rng: &mut ChaCha8Rng) -> ReplacementPolicy {
    match rng.gen_range(0u32..4) {
        0 => ReplacementPolicy::Lru,
        1 => ReplacementPolicy::Fifo,
        2 => ReplacementPolicy::TreePlru,
        _ => ReplacementPolicy::Random,
    }
}

#[test]
fn cache_bookkeeping_identities() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a4c01);
    for case in 0..CASES {
        let ops = accesses(&mut rng);
        let policy = any_policy(&mut rng);
        let mut cache = Cache::new(CacheConfig::new(4 * 1024, 4, 64).with_policy(policy)).unwrap();
        for &(addr, write) in &ops {
            cache.access(addr, write);
        }
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, s.accesses, "case {case}");
        assert_eq!(s.accesses, ops.len() as u64, "case {case}");
        assert!(s.writebacks <= s.evictions, "case {case}");
        assert!(s.evictions <= s.misses, "case {case}");
        // Occupancy never exceeds capacity and equals fills minus evictions.
        let capacity = 4 * 1024 / 64;
        assert!(cache.occupancy() <= capacity, "case {case}");
        assert_eq!(
            cache.occupancy() as u64,
            s.misses - s.evictions,
            "case {case}"
        );
    }
}

#[test]
fn just_accessed_line_is_resident() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a4c02);
    for case in 0..CASES {
        let ops = accesses(&mut rng);
        let policy = any_policy(&mut rng);
        let mut cache = Cache::new(CacheConfig::new(2 * 1024, 2, 64).with_policy(policy)).unwrap();
        for &(addr, write) in &ops {
            cache.access(addr, write);
            assert!(
                cache.probe_resident(addr),
                "case {case}: line must be resident right after access"
            );
        }
    }
}

#[test]
fn repeat_access_always_hits() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a4c03);
    for case in 0..CASES {
        let addr = rng.gen_range(0u64..1 << 30);
        let policy = any_policy(&mut rng);
        let mut cache = Cache::new(CacheConfig::new(1024, 2, 64).with_policy(policy)).unwrap();
        cache.access(addr, false);
        let out = cache.access(addr, false);
        assert!(out.hit, "case {case}");
    }
}

#[test]
fn working_set_within_capacity_never_misses_after_warmup() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a4c04);
    for case in 0..CASES {
        let base = rng.gen_range(0u64..1 << 20);
        let policy = any_policy(&mut rng);
        // 8 distinct lines in a 16-line, fully-covering pattern.
        let mut cache =
            Cache::new(CacheConfig::new(4 * 64 * 4, 4, 64).with_policy(policy)).unwrap();
        let lines: Vec<u64> = (0..8).map(|i| (base & !63) + i * 64).collect();
        for &l in &lines {
            cache.access(l, false);
        }
        cache.reset_stats();
        for _ in 0..3 {
            for &l in &lines {
                cache.access(l, false);
            }
        }
        assert_eq!(cache.stats().misses, 0, "case {case}: policy {policy:?}");
    }
}

#[test]
fn flush_leaves_everything_cold() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a4c05);
    for case in 0..CASES {
        let ops = accesses(&mut rng);
        let mut cache = Cache::new(CacheConfig::new(4 * 1024, 4, 64)).unwrap();
        for &(addr, write) in &ops {
            cache.access(addr, write);
        }
        cache.flush();
        assert_eq!(cache.occupancy(), 0, "case {case}");
        for &(addr, _) in ops.iter().take(16) {
            assert!(!cache.probe_resident(addr), "case {case}");
        }
    }
}

#[test]
fn tlb_identities() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a4c06);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..300);
        let addrs: Vec<u64> = (0..len).map(|_| rng.gen_range(0u64..1 << 30)).collect();
        let mut tlb = Tlb::new(TlbConfig::default());
        for &a in &addrs {
            tlb.translate(a);
        }
        let s = tlb.stats();
        assert_eq!(s.hits + s.misses, s.accesses, "case {case}");
        assert_eq!(s.accesses, addrs.len() as u64, "case {case}");
        // The first translation of a fresh TLB can never hit.
        assert!(s.misses >= 1, "case {case}");
    }
}

#[test]
fn core_snapshot_identities() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a4c07);
    for case in 0..CASES {
        let ops = accesses(&mut rng);
        let blen = rng.gen_range(0usize..200);
        let branches: Vec<(u64, bool)> = (0..blen)
            .map(|_| (rng.gen_range(0u64..4096), rng.gen::<bool>()))
            .collect();
        let mut core = CoreSim::new(CoreConfig::tiny()).unwrap();
        for &(addr, write) in &ops {
            if write {
                core.store(addr, 0x40);
            } else {
                core.load(addr, 0x40);
            }
        }
        for &(pc, taken) in &branches {
            core.branch(0x400 + pc, taken);
        }
        core.alu(17);
        let s = core.snapshot();
        assert_eq!(s.loads + s.stores, ops.len() as u64, "case {case}");
        assert_eq!(s.branches, branches.len() as u64, "case {case}");
        assert_eq!(
            s.instructions,
            s.loads + s.stores + s.branches + 17,
            "case {case}"
        );
        assert!(s.branch_misses <= s.branches, "case {case}");
        assert!(
            s.llc_misses <= s.llc_references + s.prefetches,
            "case {case}"
        );
        assert!(s.l1d_misses <= s.l1d_accesses, "case {case}");
        assert!(s.ref_cycles <= s.cycles, "case {case}");
        assert!(s.bus_cycles < s.cycles.max(1), "case {case}");
        // Delta of a snapshot with itself is zero everywhere.
        let zero = s.delta(&s);
        assert_eq!(zero.instructions, 0, "case {case}");
        assert_eq!(zero.cycles, 0, "case {case}");
    }
}

#[test]
fn reset_counters_zeroes_snapshot() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0a4c08);
    for case in 0..CASES {
        let ops = accesses(&mut rng);
        let mut core = CoreSim::new(CoreConfig::tiny()).unwrap();
        for &(addr, _) in &ops {
            core.load(addr, 0x40);
        }
        core.reset_counters();
        let s = core.snapshot();
        assert_eq!(s.instructions, 0, "case {case}");
        assert_eq!(s.llc_misses, 0, "case {case}");
        assert_eq!(s.cycles, 0, "case {case}");
    }
}
