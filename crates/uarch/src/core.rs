//! [`CoreSim`]: the full simulated core, tying hierarchy, predictor, TLB
//! and cycle model together behind the [`Probe`] interface.

use crate::branch::BranchPredictor;
use crate::cache::{CacheConfigError, NO_MEMO};
use crate::config::CoreConfig;
use crate::cycles::RetiredCounts;
use crate::hierarchy::{MemoryHierarchy, ServedBy};
use crate::probe::{MacRun, Probe};
use crate::tlb::Tlb;

/// A raw snapshot of every architectural/microarchitectural count the
/// simulated PMU can expose. This is the ground truth that `scnn-hpc`
/// turns into perf-style event readings (with noise and multiplexing on
/// top).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Retired instructions.
    pub instructions: u64,
    /// Retired data loads.
    pub loads: u64,
    /// Retired data stores.
    pub stores: u64,
    /// Retired conditional branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_misses: u64,
    /// L1D accesses.
    pub l1d_accesses: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Accesses that reached the LLC (`cache-references`).
    pub llc_references: u64,
    /// LLC misses (`cache-misses`).
    pub llc_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Hardware prefetches issued.
    pub prefetches: u64,
    /// Core cycles (from the cycle model).
    pub cycles: u64,
    /// Reference cycles.
    pub ref_cycles: u64,
    /// Bus cycles.
    pub bus_cycles: u64,
}

impl CounterSnapshot {
    /// Per-event difference `self - earlier`, saturating at zero. Used to
    /// turn two absolute snapshots into a measurement-window delta.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
            branches: self.branches.saturating_sub(earlier.branches),
            branch_misses: self.branch_misses.saturating_sub(earlier.branch_misses),
            l1d_accesses: self.l1d_accesses.saturating_sub(earlier.l1d_accesses),
            l1d_misses: self.l1d_misses.saturating_sub(earlier.l1d_misses),
            l2_accesses: self.l2_accesses.saturating_sub(earlier.l2_accesses),
            l2_misses: self.l2_misses.saturating_sub(earlier.l2_misses),
            llc_references: self.llc_references.saturating_sub(earlier.llc_references),
            llc_misses: self.llc_misses.saturating_sub(earlier.llc_misses),
            dtlb_misses: self.dtlb_misses.saturating_sub(earlier.dtlb_misses),
            prefetches: self.prefetches.saturating_sub(earlier.prefetches),
            cycles: self.cycles.saturating_sub(earlier.cycles),
            ref_cycles: self.ref_cycles.saturating_sub(earlier.ref_cycles),
            bus_cycles: self.bus_cycles.saturating_sub(earlier.bus_cycles),
        }
    }
}

/// The simulated core.
///
/// Drive it through the [`Probe`] trait from instrumented code, then call
/// [`CoreSim::snapshot`] to read the counters.
///
/// # Examples
///
/// ```
/// use scnn_uarch::{CoreConfig, CoreSim, Probe};
///
/// # fn main() -> Result<(), scnn_uarch::cache::CacheConfigError> {
/// let mut core = CoreSim::new(CoreConfig::default())?;
/// for i in 0..64 {
///     core.load(i * 64, 0x40);
///     core.branch(0x400, i % 2 == 0);
/// }
/// core.alu(1000);
/// let snap = core.snapshot();
/// assert_eq!(snap.loads, 64);
/// assert_eq!(snap.branches, 64);
/// assert!(snap.cycles > 0);
/// # Ok(())
/// # }
/// ```
pub struct CoreSim {
    config: CoreConfig,
    hierarchy: MemoryHierarchy,
    predictor: Box<dyn BranchPredictor + Send>,
    tlb: Tlb,
    loads: u64,
    stores: u64,
    alu_ops: u64,
    /// Per iteration of the latest multiply-accumulate run, where its
    /// weight and accumulator were found: guesses for the same
    /// iteration of the next run, which no count depends on.
    mac_hints: Vec<SlotHint>,
}

/// Flat L1 and TLB indices where one iteration of a multiply-accumulate
/// run found its weight and its accumulator (see
/// [`Cache::access_hinted`](crate::cache::Cache::access_hinted) and
/// [`Tlb::translate_hinted`]).
#[derive(Debug, Clone, Copy)]
struct SlotHint {
    weight_l1: usize,
    weight_tlb: usize,
    acc_l1: usize,
    acc_tlb: usize,
}

impl SlotHint {
    /// Hints that match no line or entry.
    const NONE: SlotHint = SlotHint {
        weight_l1: NO_MEMO,
        weight_tlb: NO_MEMO,
        acc_l1: NO_MEMO,
        acc_tlb: NO_MEMO,
    };
}

/// Iterations of a multiply-accumulate run that keep hints of their own;
/// later ones share the last slot's. Conv runs span the filters and
/// dense runs an output vector, each well under this.
const HINT_SLOTS: usize = 256;

impl std::fmt::Debug for CoreSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreSim")
            .field("snapshot", &self.snapshot())
            .finish_non_exhaustive()
    }
}

impl CoreSim {
    /// Builds a core from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when the cache geometry is invalid.
    pub fn new(config: CoreConfig) -> Result<Self, CacheConfigError> {
        Ok(CoreSim {
            config,
            hierarchy: MemoryHierarchy::new(config.hierarchy)?,
            predictor: config.predictor.build(config.predictor_bits),
            tlb: Tlb::new(config.tlb),
            loads: 0,
            stores: 0,
            alu_ops: 0,
            mac_hints: Vec::new(),
        })
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Reads all counters. Cycles are derived on the fly from the cycle
    /// model.
    pub fn snapshot(&self) -> CounterSnapshot {
        let h = self.hierarchy.stats();
        let b = self.predictor.stats();
        let t = self.tlb.stats();
        let instructions = self.loads + self.stores + self.alu_ops + b.branches;
        let retired = RetiredCounts {
            instructions,
            branch_misses: b.mispredictions,
            tlb_misses: t.misses,
            demand_memory_cycles: h.demand_cycles,
        };
        let cycles = self.config.cycles.cycles(&retired);
        CounterSnapshot {
            instructions,
            loads: self.loads,
            stores: self.stores,
            branches: b.branches,
            branch_misses: b.mispredictions,
            l1d_accesses: h.l1d.accesses,
            l1d_misses: h.l1d.misses,
            l2_accesses: h.l2.accesses,
            l2_misses: h.l2.misses,
            llc_references: h.llc_references,
            llc_misses: h.llc_misses,
            dtlb_misses: t.misses,
            prefetches: h.prefetches,
            cycles,
            ref_cycles: self.config.cycles.ref_cycles(cycles),
            bus_cycles: self.config.cycles.bus_cycles(cycles),
        }
    }

    /// Resets every counter to zero, keeping cache/predictor/TLB state
    /// warm (what `perf stat` attach/detach does).
    pub fn reset_counters(&mut self) {
        self.hierarchy.reset_stats();
        self.predictor.reset_stats();
        self.tlb.reset_stats();
        self.loads = 0;
        self.stores = 0;
        self.alu_ops = 0;
    }

    /// Flushes all cache and TLB contents — a cold start, as when the
    /// measured process is freshly exec'd.
    pub fn cold_start(&mut self) {
        self.hierarchy.flush();
        self.tlb.flush();
    }

    /// Applies co-runner / context-switch cache pollution (see
    /// [`MemoryHierarchy::pollute`]).
    pub fn pollute(&mut self, fraction: f64, seed: u64) {
        self.hierarchy.pollute(fraction, seed);
        self.tlb.flush();
    }

    /// Immutable access to the memory hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Immutable access to the data TLB.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// `count` accesses `stride` bytes apart from `base`, as that many
    /// [`Probe::load`] or [`Probe::store`] calls. Accesses go one at a
    /// time until one starts a steady chunk: accesses that stay on the
    /// TLB's remembered page and are steady in the hierarchy (see
    /// [`MemoryHierarchy::steady_run`]). A chunk is applied in closed
    /// form.
    fn run(&mut self, base: u64, stride: i64, count: u64, pc: u64, write: bool) {
        let mut addr = base;
        let mut left = count;
        while left > 0 {
            let on_page = self.tlb.memo_run(addr, stride, left);
            let mut k = if on_page == 0 {
                0
            } else {
                self.hierarchy.steady_run(addr, stride, on_page, write, pc)
            };
            if k == 0 {
                self.tlb.translate(addr);
                self.hierarchy.access(addr, write, pc);
                k = 1;
            } else {
                self.tlb.repeat_memo_hits(k);
            }
            if write {
                self.stores += k;
            } else {
                self.loads += k;
            }
            addr = addr.wrapping_add_signed(stride.wrapping_mul(k as i64));
            left -= k;
        }
    }
}

impl Probe for CoreSim {
    fn load(&mut self, addr: u64, pc: u64) {
        self.loads += 1;
        self.tlb.translate(addr);
        self.hierarchy.access(addr, false, pc);
    }

    fn store(&mut self, addr: u64, pc: u64) {
        self.stores += 1;
        self.tlb.translate(addr);
        self.hierarchy.access(addr, true, pc);
    }

    fn load_run(&mut self, base: u64, stride: i64, count: u64, pc: u64) {
        self.run(base, stride, count, pc, false);
    }

    fn store_run(&mut self, base: u64, stride: i64, count: u64, pc: u64) {
        self.run(base, stride, count, pc, true);
    }

    /// Each iteration's weight load and accumulator load go through the
    /// TLB and the hierarchy like single loads; the accumulator store is
    /// applied in closed form (a TLB memo hit on the page the load just
    /// translated, then `MemoryHierarchy::store_after_load`). After the
    /// first iteration, accumulator loads skip the prefetcher when it
    /// provably proposes nothing for them and the store after each
    /// rewrites what it would change (`Prefetcher::acc_loads_idle`).
    ///
    /// When the two sites have stride entries of their own, the stores'
    /// rewrites of the accumulator entry, which nothing reads during the
    /// run, are made once after it; and once the weight stream is steady
    /// its targets are filled without observing, and its entry is
    /// brought up to date once after the run (`Prefetcher::advance`).
    ///
    /// The two loads' L1 lookups and translations are hinted with where
    /// the same iteration of the previous run found its operands: runs
    /// one kernel tap apart revisit the same lines iteration by
    /// iteration.
    fn mac_run(&mut self, run: MacRun) {
        self.loads += 2 * run.count;
        self.stores += run.count;
        self.alu_ops += run.alu * run.count;
        let prefetcher = self.hierarchy.prefetcher_mut();
        let idle = prefetcher.acc_loads_idle();
        let separate = prefetcher.separate_entries(run.weight_pc, run.acc_pc);
        let store_pc = (!separate).then_some(run.acc_pc);
        let mut observe_acc = true;
        let mut weight_steady = false;
        let slots = run.count.min(HINT_SLOTS as u64) as usize;
        if self.mac_hints.len() < slots {
            self.mac_hints.resize(slots, SlotHint::NONE);
        }
        let mut slot = 0;
        run.for_each(|weight, acc| {
            let hint = &mut self.mac_hints[slot];
            slot = (slot + 1).min(slots - 1);
            self.tlb.translate_hinted(weight, &mut hint.weight_tlb);
            if separate && !weight_steady {
                let prefetcher = self.hierarchy.prefetcher_mut();
                weight_steady = prefetcher
                    .steady(run.weight_pc, weight, run.weight_stride)
                    .is_some();
            }
            if weight_steady {
                self.hierarchy
                    .steady_load(weight, run.weight_stride, &mut hint.weight_l1);
            } else {
                let served = self.hierarchy.demand(weight, false, &mut hint.weight_l1);
                self.hierarchy
                    .prefetch(run.weight_pc, weight, served != ServedBy::L1);
            }
            self.tlb.translate_hinted(acc, &mut hint.acc_tlb);
            let served = self.hierarchy.demand(acc, false, &mut hint.acc_l1);
            if observe_acc {
                self.hierarchy
                    .prefetch(run.acc_pc, acc, served != ServedBy::L1);
                observe_acc = !idle;
            }
            self.tlb.repeat_memo_hits(1);
            self.hierarchy.store_after_load(acc, store_pc);
        });
        if separate && run.count > 0 {
            let last = |base: u64, stride: i64| {
                base.wrapping_add_signed(stride.wrapping_mul((run.count - 1) as i64))
            };
            let prefetcher = self.hierarchy.prefetcher_mut();
            if weight_steady {
                prefetcher.advance(run.weight_pc, last(run.weight, run.weight_stride));
            }
            prefetcher.observe_repeat(run.acc_pc, last(run.acc, run.acc_stride));
        }
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.predictor.observe(pc, taken);
    }

    fn alu(&mut self, n: u64) {
        self.alu_ops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreSim {
        CoreSim::new(CoreConfig::tiny()).unwrap()
    }

    #[test]
    fn instruction_accounting() {
        let mut c = core();
        c.load(0, 0x40);
        c.store(64, 0x40);
        c.branch(0x40, true);
        c.alu(7);
        let s = c.snapshot();
        assert_eq!(s.instructions, 10);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.branches, 1);
    }

    #[test]
    fn memory_side_counters_flow() {
        let mut c = core();
        for i in 0..100u64 {
            c.load(i * 64, 0x40);
        }
        let s = c.snapshot();
        assert_eq!(s.l1d_accesses, 100);
        assert!(s.l1d_misses > 0);
        assert!(s.llc_references > 0);
        assert!(s.llc_misses > 0);
        assert!(s.dtlb_misses > 0);
        assert!(s.cycles > 0);
        assert!(s.ref_cycles < s.cycles);
        assert!(s.bus_cycles < s.ref_cycles);
    }

    #[test]
    fn reset_counters_keeps_warm_state() {
        let mut c = core();
        c.load(0, 0x40);
        c.reset_counters();
        let s0 = c.snapshot();
        assert_eq!(s0.instructions, 0);
        assert_eq!(s0.llc_misses, 0);
        // Line is still warm: next access hits L1, no LLC traffic.
        c.load(0, 0x40);
        let s1 = c.snapshot();
        assert_eq!(s1.l1d_misses, 0);
    }

    #[test]
    fn cold_start_recreates_misses() {
        let mut c = core();
        c.load(0, 0x40);
        c.cold_start();
        c.reset_counters();
        c.load(0, 0x40);
        assert_eq!(c.snapshot().llc_misses, 1);
    }

    #[test]
    fn snapshot_delta() {
        let mut c = core();
        c.load(0, 0x40);
        let a = c.snapshot();
        c.load(64, 0x40);
        c.alu(10);
        let b = c.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.loads, 1);
        assert_eq!(d.instructions, 11);
        assert!(d.cycles > 0);
    }

    #[test]
    fn pollution_causes_re_misses() {
        let mut c = core();
        for i in 0..8u64 {
            c.load(i * 64, 0x40);
        }
        c.reset_counters();
        c.pollute(1.0, 42);
        for i in 0..8u64 {
            c.load(i * 64, 0x40);
        }
        assert!(c.snapshot().l1d_misses > 0, "polluted lines must re-miss");
    }

    #[test]
    fn served_by_visible_through_hierarchy() {
        let mut c = core();
        c.load(0, 0x40);
        // Direct hierarchy access used by tests elsewhere — keep the
        // accessor functional.
        assert_eq!(c.hierarchy().stats().llc_misses, 1);
        let _ = ServedBy::L1;
    }

    #[test]
    fn mac_run_counts_each_event_once() {
        use crate::prefetch::PrefetcherKind;

        let mut config = CoreConfig::tiny();
        config.hierarchy.prefetcher = PrefetcherKind::Stride;
        let mut c = CoreSim::new(config).unwrap();
        // Weights 4 bytes apart on line 0, one accumulator, the two sites
        // in separate stride entries.
        c.mac_run(MacRun {
            weight: 0,
            weight_stride: 4,
            weight_pc: 0x40_0100,
            acc: 0x10000,
            acc_stride: 0,
            acc_pc: 0x40_0140,
            alu: 2,
            count: 8,
        });
        let s = c.snapshot();
        assert_eq!((s.loads, s.stores, s.instructions), (16, 8, 40));
        // Two cold misses; every other access hits L1.
        assert_eq!((s.l1d_accesses, s.l1d_misses), (24, 2));
        // The weight stream is confident from its fourth load on: five
        // loads prefetch two targets each, all on the resident line 0.
        assert_eq!(s.prefetches, 10);
        assert_eq!((s.l2_accesses, s.l2_misses), (12, 2));
        assert_eq!((s.llc_references, s.llc_misses), (12, 2));
        assert_eq!(s.dtlb_misses, 2);
        assert_eq!(c.tlb().stats().accesses, 24);
        assert_eq!(c.hierarchy().stats().demand_cycles, 22 * 4 + 2 * 200);
    }

    /// The events of `run` one by one, as the trait's default makes them.
    fn mac_run_per_element(c: &mut CoreSim, run: MacRun) {
        run.for_each(|weight, acc| {
            c.load(weight, run.weight_pc);
            c.load(acc, run.acc_pc);
            c.alu(run.alu);
            c.store(acc, run.acc_pc);
        });
    }

    #[test]
    fn mac_run_recovers_from_hints_to_evicted_lines() {
        let [mut fast, mut slow] = [core(), core()];
        // 8 L1 sets of 2 ways, 4 TLB sets of 2 ways. Iteration 0 finds
        // its weight on line 0 (L1 set 0) and its accumulator on line
        // 513 (set 1); both pages, 0 and 8, sit in TLB set 0.
        let first = MacRun {
            weight: 0,
            weight_stride: 4,
            weight_pc: 0x40,
            acc: 0x8050,
            acc_stride: 64,
            acc_pc: 0x80,
            alu: 2,
            count: 2,
        };
        fast.mac_run(first);
        mac_run_per_element(&mut slow, first);
        let hint = fast.mac_hints[0];
        let l1 = |c: &CoreSim, addr| c.hierarchy().l1d().index_of(addr);
        assert_eq!(Some(hint.weight_l1), l1(&fast, 0));
        // Page 16 replaces page 0, which then replaces page 8; lines 8
        // and 16 push line 0 out of way 0, and it comes back in way 1.
        for addr in [0x100c0, 0x200, 0x400, 0x0] {
            fast.load(addr, 0x100);
            slow.load(addr, 0x100);
        }
        assert!(l1(&fast, 0).is_some_and(|idx| idx != hint.weight_l1));
        // One kernel tap on: the same lines, iteration by iteration.
        let next = MacRun {
            weight: 4,
            acc: 0x804c,
            ..first
        };
        fast.mac_run(next);
        mac_run_per_element(&mut slow, next);
        assert_eq!(fast.snapshot(), slow.snapshot());
        assert!(fast.hierarchy() == slow.hierarchy() && fast.tlb() == slow.tlb());
        assert_eq!(Some(fast.mac_hints[0].weight_l1), l1(&fast, 0));
        assert_ne!(fast.mac_hints[0].weight_tlb, hint.weight_tlb);
        assert_ne!(fast.mac_hints[0].acc_tlb, hint.acc_tlb);
    }

    #[test]
    fn counter_windows_survive_pollution_and_cold_starts() {
        let mut c = core();
        for i in 0..32u64 {
            c.load(i * 64, 0x40);
        }
        c.reset_counters();
        let zero = c.snapshot();
        assert_eq!(
            (zero.l1d_accesses, zero.dtlb_misses, zero.cycles),
            (0, 0, 0)
        );
        c.pollute(1.0, 7);
        assert_eq!(c.snapshot(), zero);
        c.cold_start();
        assert_eq!(c.snapshot(), zero);
        c.load(0, 0x40);
        c.load(8, 0x40);
        let s = c.snapshot();
        assert_eq!((s.l1d_accesses, s.l1d_misses), (2, 1));
        assert_eq!((s.l2_accesses, s.llc_references, s.llc_misses), (1, 1, 1));
        assert_eq!((s.dtlb_misses, s.prefetches), (1, 0));
        assert_eq!(c.tlb().stats().accesses, 2);
        assert_eq!(c.hierarchy().stats().demand_cycles, 200 + 4);
    }

    #[test]
    fn send_bound() {
        fn assert_send<T: Send>() {}
        assert_send::<CoreSim>();
    }
}
