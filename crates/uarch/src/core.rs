//! [`CoreSim`]: the full simulated core, tying hierarchy, predictor, TLB
//! and cycle model together behind the [`Probe`] interface.

use crate::branch::BranchPredictor;
use crate::cache::{CacheConfigError, NO_MEMO};
use crate::config::CoreConfig;
use crate::cycles::RetiredCounts;
use crate::hierarchy::{MemoryHierarchy, ServedBy};
use crate::prefetch::LocalEntry;
use crate::probe::{Block, MacRun, Probe};
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
    /// Where the latest tap's two scratch stores were found, guesses for
    /// the next tap's in the same way.
    scratch_hints: [Hint; 2],
    /// Prefetch targets of the current multiply-accumulate block whose
    /// L3 and L2 fills are deferred (see
    /// [`MemoryHierarchy::fill_queued`]); empty between calls.
    fills: Vec<u64>,
}

/// Flat L1 and TLB indices where an access found its line and page (see
/// [`Cache::access_hinted`](crate::cache::Cache::access_hinted) and
/// [`Tlb::translate_hinted`]).
#[derive(Debug, Clone, Copy)]
struct Hint {
    l1: usize,
    tlb: usize,
}

impl Hint {
    /// A hint that matches no line or entry.
    const NONE: Hint = Hint {
        l1: NO_MEMO,
        tlb: NO_MEMO,
    };
}

/// Where one iteration of a multiply-accumulate run found its weight and
/// its accumulator.
#[derive(Debug, Clone, Copy)]
struct SlotHint {
    weight: Hint,
    acc: Hint,
}

impl SlotHint {
    const NONE: SlotHint = SlotHint {
        weight: Hint::NONE,
        acc: Hint::NONE,
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
            scratch_hints: [Hint::NONE; 2],
            fills: Vec::new(),
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

    /// `count` accesses `stride` bytes apart from `base`, leaving the
    /// state that many [`Probe::load`] or [`Probe::store`] calls leave
    /// (the block's counts are added by [`Probe::block`]). Accesses go
    /// one at a time until one starts a steady chunk: accesses that stay
    /// on the TLB's remembered page, memo hits applied at once by
    /// [`Tlb::repeat_memo_hits`], and are steady in the hierarchy, where
    /// [`MemoryHierarchy::steady_run`] applies them in closed form and
    /// argues why that is exact. Pinned by the stream generator of
    /// `blocks_match_per_element_events_for_every_cache_shape` in
    /// `tests/differential.rs` and by `scnn-core`'s `oblivious_runs`.
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
            addr = addr.wrapping_add_signed(stride.wrapping_mul(k as i64));
            left -= k;
        }
    }

    /// The accesses of a [`Block::Walk`], leaving the state that many
    /// single accesses leave, and how many whole passes it skipped. The
    /// walk goes through [`run`](Self::run): a `pass` 0 walk as one
    /// stream, any other up to the arena's end, then pass by pass, then
    /// the tail. When a whole pass leaves the core where the same pass
    /// repeats itself, every later whole pass repeats it, so all but the
    /// last are skipped: their counts and clocks are added in closed
    /// form, and the last whole pass and the tail are simulated. A pass
    /// repeats itself when
    ///
    /// - no access of it missed L2, L3 or the TLB;
    /// - at its end, L1 has the shape it had at its start (its lines,
    ///   dirty bits, tree-PLRU bits, memo, random-replacement state and
    ///   per-set stamp order, see `Cache::same_shape`);
    /// - the stride entry of the walk's site is as it was.
    ///
    /// Why the skip is exact:
    ///
    /// - With no miss below L1, the contents of L2, L3 and the TLB are
    ///   fixed, and they make no victim choice; their hits touch the
    ///   same lines each pass, and a pass sets the same dirty and
    ///   tree-PLRU bits each time (it overwrites them, so repeats change
    ///   nothing).
    /// - L1's victims depend only on its shape and its per-set stamp
    ///   order, so with the stride entry and the untouched state below
    ///   L1 the same, the next pass makes the same hits, misses, fills
    ///   and evictions, the same L2 and L3 lookups, and the same
    ///   prefetches.
    /// - Each repeat moves every clock and count by the same amount and
    ///   sets the same stamps, each by the same amount later. Stamps it
    ///   sets stay newer than those it leaves, so skipping passes only
    ///   moves clocks and counts: skipped stamps keep their order, and
    ///   the last whole pass, from the state the skipped passes would
    ///   leave but for those stamps, makes the same choices and rewrites
    ///   each of them, as well as every memo and the stride entry, to
    ///   what the replay leaves.
    ///
    /// The check copies L1, so it is tried only when a pass has at least
    /// as many accesses as L1 has lines, and only while two or more
    /// passes would follow. A failed check simulates the next pass in
    /// full and checks again; under random L1 replacement the victim
    /// generator's state is part of the shape, so those walks are
    /// simulated pass by pass. Pinned by
    /// `a_walk_skips_every_whole_pass_after_one_that_repeats_itself` and
    /// `walk_edge_cases_match_their_replay_on_every_policy` below, by the
    /// walk generator of
    /// `blocks_match_per_element_events_for_every_cache_shape` and the
    /// two `a_pass_that_*` cases in `tests/differential.rs`, and by
    /// `scnn-core`'s `oblivious_runs`.
    #[allow(clippy::too_many_arguments)]
    fn walk(
        &mut self,
        base: u64,
        stride: i64,
        pass: u64,
        start: u64,
        count: u64,
        pc: u64,
        write: bool,
    ) -> u64 {
        let element = |i: u64| base.wrapping_add((stride as u64).wrapping_mul(i));
        if pass == 0 {
            self.run(element(start), stride, count, pc, write);
            return 0;
        }
        let first = start % pass;
        let head = count.min(pass - first);
        self.run(element(first), stride, head, pc, write);
        let (mut passes, tail) = ((count - head) / pass, (count - head) % pass);
        let l1 = self.hierarchy.l1d().config();
        let worth_checking = pass >= (l1.size_bytes / l1.line_bytes) as u64;
        let mut skipped = 0;
        while passes > 0 {
            let mark =
                (worth_checking && passes > 2).then(|| (self.hierarchy.mark(pc), self.tlb.tally()));
            self.run(base, stride, pass, pc, write);
            passes -= 1;
            if let Some((mark, tlb)) = mark {
                if self.tlb.tally().1 == tlb.1 && self.hierarchy.repeats(&mark) {
                    skipped = passes - 1;
                    self.hierarchy.repeat(&mark, skipped);
                    self.tlb.repeat_since(tlb, skipped);
                    passes = 1;
                }
            }
        }
        self.run(base, stride, tail, pc, write);
        skipped
    }

    /// A convolution tap's two scratch stores, from `pc`, with the
    /// prefetch targets they propose queued in `fills`. The stores
    /// alternate between the value and the index array under one PC, so
    /// each has a hint of its own: it finds its array's line again until
    /// the array's cursor crosses into the next line. Nothing runs
    /// between the two, so the stride prefetcher observes both on a copy
    /// of the site's entry (`LocalEntry`), written back once, which is
    /// exact whether or not the site aliases the run's sites. Pinned by
    /// the tap generator of
    /// `blocks_match_per_element_events_for_every_cache_shape`.
    fn scratch_stores(&mut self, addrs: [u64; 2], pc: u64) {
        let (hierarchy, fills) = (&mut self.hierarchy, &mut self.fills);
        let mut entry = hierarchy.prefetcher_mut().local(pc);
        for (addr, hint) in addrs.into_iter().zip(&mut self.scratch_hints) {
            self.tlb.translate_hinted(addr, &mut hint.tlb, 1);
            let served = hierarchy.demand(addr, true, false, &mut hint.l1, fills);
            queue(hierarchy, fills, &mut entry, pc, addr, served);
        }
        if let Some(entry) = entry {
            hierarchy.prefetcher_mut().write_back(entry);
        }
    }

    /// The iterations of `run`, with the prefetch targets they propose
    /// queued in `fills` (see [`MemoryHierarchy::fill_queued`]). Each
    /// weight load goes through the TLB and the hierarchy like a single
    /// load. Each accumulator load and the store after it are one hinted
    /// translation and one hinted L1 access that count twice
    /// ([`MemoryHierarchy::demand`]); the store's observe is
    /// `Prefetcher::observe_repeat`, and after the first iteration the
    /// loads skip theirs where `Prefetcher::acc_loads_idle` says so.
    /// When the two sites have stride entries of their own
    /// (`Prefetcher::separate_entries`), nothing but the weight loads
    /// touches the weight entry, so they observe a copy of it
    /// (`LocalEntry`), written back once; and the stores rewrite the
    /// accumulator entry whole while nothing reads it after the first
    /// load, so one `observe_repeat` after the run stands for them all.
    /// Lookups are hinted with where the same iteration of the previous
    /// run found its operands (`Cache::access_hinted`). Pinned by the
    /// run and tap generators of
    /// `blocks_match_per_element_events_for_every_cache_shape` and the
    /// hand-computed tests below.
    fn mac_iterations(&mut self, run: MacRun) {
        if run.count == 0 {
            return;
        }
        let prefetcher = self.hierarchy.prefetcher_mut();
        let idle = prefetcher.acc_loads_idle();
        let separate = prefetcher.separate_entries(run.weight_pc, run.acc_pc);
        let mut weight_entry = prefetcher.local(run.weight_pc).filter(|_| separate);
        let mut observe_acc = true;
        let slots = run.count.min(HINT_SLOTS as u64) as usize;
        if self.mac_hints.len() < slots {
            self.mac_hints.resize(slots, SlotHint::NONE);
        }
        let (hierarchy, fills) = (&mut self.hierarchy, &mut self.fills);
        let (mut weight, mut acc) = (run.weight, run.acc);
        for i in 0..run.count {
            let hint = &mut self.mac_hints[(i as usize).min(slots - 1)];
            self.tlb.translate_hinted(weight, &mut hint.weight.tlb, 1);
            let served = hierarchy.demand(weight, false, false, &mut hint.weight.l1, fills);
            queue(
                hierarchy,
                fills,
                &mut weight_entry,
                run.weight_pc,
                weight,
                served,
            );
            self.tlb.translate_hinted(acc, &mut hint.acc.tlb, 2);
            let served = hierarchy.demand(acc, false, true, &mut hint.acc.l1, fills);
            if observe_acc {
                queue(hierarchy, fills, &mut None, run.acc_pc, acc, served);
                observe_acc = !idle;
            }
            if !separate {
                hierarchy.prefetcher_mut().observe_repeat(run.acc_pc, acc);
            }
            weight = weight.wrapping_add_signed(run.weight_stride);
            acc = acc.wrapping_add_signed(run.acc_stride);
        }
        let prefetcher = self.hierarchy.prefetcher_mut();
        if let Some(entry) = weight_entry {
            prefetcher.write_back(entry);
        }
        if separate {
            let last = run
                .acc
                .wrapping_add_signed(run.acc_stride.wrapping_mul((run.count - 1) as i64));
            prefetcher.observe_repeat(run.acc_pc, last);
        }
    }
}

/// The prefetcher observes a demand access to `addr` from `pc`, which
/// `served`, on `local` when it holds a copy of the site's entry; the
/// targets it proposes join `fills`.
#[inline(always)]
fn queue(
    hierarchy: &mut MemoryHierarchy,
    fills: &mut Vec<u64>,
    local: &mut Option<LocalEntry>,
    pc: u64,
    addr: u64,
    served: ServedBy,
) {
    let (targets, n) = match local {
        Some(entry) => entry.observe(pc, addr),
        None => hierarchy
            .prefetcher_mut()
            .observe(pc, addr, served != ServedBy::L1),
    };
    for &target in &targets[..n] {
        fills.push(target);
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

    /// Applies `block` in bulk, leaving the counts and the state its
    /// [`replay`](Block::replay) leaves: a walk as steady-chunk
    /// streams with repeated whole passes skipped (a `pass` 0 walk is
    /// one stream), a multiply-accumulate block as its scratch stores,
    /// its iterations and then the fills they queued.
    fn block(&mut self, block: Block) {
        let counts = block.counts();
        self.loads += counts.loads;
        self.stores += counts.stores;
        self.alu_ops += counts.alu;
        match block {
            Block::Walk {
                base,
                stride,
                pass,
                start,
                count,
                pc,
                write,
            } => {
                self.walk(base, stride, pass, start, count, pc, write);
            }
            Block::Mac { scratch, run } => {
                if let Some((addrs, pc)) = scratch {
                    self.scratch_stores(addrs, pc);
                }
                self.mac_iterations(run);
                self.hierarchy.fill_queued(&mut self.fills);
            }
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
    fn mac_block_counts_each_event_once() {
        use crate::prefetch::PrefetcherKind;

        let mut config = CoreConfig::tiny();
        config.hierarchy.prefetcher = PrefetcherKind::Stride;
        let mut c = CoreSim::new(config).unwrap();
        // Weights 4 bytes apart on line 0, one accumulator, the two sites
        // in separate stride entries.
        c.block(mac(MacRun {
            weight: 0,
            weight_stride: 4,
            weight_pc: 0x40_0100,
            acc: 0x10000,
            acc_stride: 0,
            acc_pc: 0x40_0140,
            alu: 2,
            count: 8,
        }));
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

    #[test]
    fn a_weight_that_misses_l1_finds_the_fills_queued_before_it() {
        use crate::prefetch::PrefetcherKind;

        let mut config = CoreConfig::tiny();
        config.hierarchy.prefetcher = PrefetcherKind::Stride;
        let [mut fast, mut slow] = [(); 2].map(|_| CoreSim::new(config).unwrap());
        // Weights one line apart, each missing L1; one accumulator. The
        // fourth weight load makes the stream confident and proposes
        // lines 4 and 5, which wait in the queue while the accumulator
        // hits L1; the fifth weight misses L1 and must find line 4 in
        // L2, so the queue is filled before its L2 lookup.
        let run = MacRun {
            weight: 0,
            weight_stride: 64,
            weight_pc: 0x40_0100,
            acc: 0x10000,
            acc_stride: 0,
            acc_pc: 0x40_0140,
            alu: 2,
            count: 6,
        };
        fast.block(mac(run));
        mac(run).replay(&mut slow);
        assert!(fast.hierarchy() == slow.hierarchy() && fast.tlb() == slow.tlb());
        let s = fast.snapshot();
        assert_eq!(s, slow.snapshot());
        assert_eq!((s.loads, s.stores, s.instructions), (12, 6, 30));
        // Six weight misses and the accumulator's cold miss.
        assert_eq!((s.l1d_accesses, s.l1d_misses), (18, 7));
        // Seven demand lookups, of which weights 4 and 5 hit the lines
        // prefetched for them, and six fills: lines 4, 5 (misses), 5
        // (a hit), 6 (a miss), 6 (a hit), 7 (a miss).
        assert_eq!((s.l2_accesses, s.l2_misses), (13, 9));
        assert_eq!((s.llc_references, s.llc_misses, s.prefetches), (11, 9, 6));
        assert_eq!(s.dtlb_misses, 2);
        assert_eq!(fast.tlb().stats().accesses, 18);
        // 11 L1 hits, five DRAM fills on demand, two L2 hits.
        assert_eq!(
            fast.hierarchy().stats().demand_cycles,
            11 * 4 + 5 * 200 + 2 * 12
        );
        assert!(fast.fills.is_empty(), "the run leaves no fill queued");
    }

    /// `run` as a block, with no scratch stores.
    fn mac(run: MacRun) -> Block {
        Block::Mac { scratch: None, run }
    }

    #[test]
    fn mac_block_recovers_from_hints_to_evicted_lines() {
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
        fast.block(mac(first));
        mac(first).replay(&mut slow);
        let hint = fast.mac_hints[0];
        let l1 = |c: &CoreSim, addr| c.hierarchy().l1d().index_of(addr);
        assert_eq!(Some(hint.weight.l1), l1(&fast, 0));
        // Page 16 replaces page 0, which then replaces page 8; lines 8
        // and 16 push line 0 out of way 0, and it comes back in way 1.
        for addr in [0x100c0, 0x200, 0x400, 0x0] {
            fast.load(addr, 0x100);
            slow.load(addr, 0x100);
        }
        assert!(l1(&fast, 0).is_some_and(|idx| idx != hint.weight.l1));
        // One kernel tap on: the same lines, iteration by iteration.
        let next = MacRun {
            weight: 4,
            acc: 0x804c,
            ..first
        };
        fast.block(mac(next));
        mac(next).replay(&mut slow);
        assert_eq!(fast.snapshot(), slow.snapshot());
        assert!(fast.hierarchy() == slow.hierarchy() && fast.tlb() == slow.tlb());
        assert_eq!(Some(fast.mac_hints[0].weight.l1), l1(&fast, 0));
        assert_ne!(fast.mac_hints[0].weight.tlb, hint.weight.tlb);
        assert_ne!(fast.mac_hints[0].acc.tlb, hint.acc.tlb);
    }

    /// A walk block over an arena of `pass` 4-byte elements at `base`.
    fn walk(base: u64, pass: u64, start: u64, count: u64, write: bool) -> Block {
        Block::Walk {
            base,
            stride: 4,
            pass,
            start,
            count,
            pc: 0x40_0200,
            write,
        }
    }

    /// Applies `block` to `fast` through [`CoreSim::walk`] and replays it
    /// on `slow`; both must end in the same state. Returns the passes
    /// the walk skipped.
    fn skipped(fast: &mut CoreSim, slow: &mut CoreSim, block: Block) -> u64 {
        let Block::Walk {
            base,
            stride,
            pass,
            start,
            count,
            pc,
            write,
        } = block
        else {
            unreachable!("a walk")
        };
        let counts = block.counts();
        fast.loads += counts.loads;
        fast.stores += counts.stores;
        let skipped = fast.walk(base, stride, pass, start, count, pc, write);
        block.replay(slow);
        assert_eq!(fast.snapshot(), slow.snapshot(), "{block:?}");
        assert!(
            fast.hierarchy() == slow.hierarchy() && fast.tlb() == slow.tlb(),
            "{block:?}"
        );
        skipped
    }

    #[test]
    fn a_walk_skips_every_whole_pass_after_one_that_repeats_itself() {
        let [mut fast, mut slow] = [core(), core()];
        // 32 lines of 4-byte elements, twice the 16-line L1 (8 sets of 2
        // ways), half the 64-line L2, on one page. The head is the cold
        // pass; whole pass 1 finds L1 holding the lines 16..32 of the
        // arena, each set's two in the same ways and order as at its
        // end, and hits L2: passes 2..=8 are skipped and pass 9 is
        // simulated.
        let base = 0x10000;
        assert_eq!(
            skipped(&mut fast, &mut slow, walk(base, 512, 0, 10 * 512, false)),
            7
        );
        let s = fast.snapshot();
        assert_eq!((s.loads, s.l1d_accesses, s.l1d_misses), (5120, 5120, 320));
        // Every L1 miss goes to L2, which misses only in the cold pass.
        assert_eq!((s.l2_accesses, s.l2_misses), (320, 32));
        assert_eq!((s.llc_references, s.llc_misses, s.dtlb_misses), (32, 32, 1));
        assert_eq!(
            fast.hierarchy().stats().demand_cycles,
            4800 * 4 + 32 * 200 + 288 * 12
        );
        // Stores from mid-arena: the head leaves the lines 16..32 in L1,
        // dirty, as every whole pass does, so whole pass 1 repeats
        // itself too: passes 2..=4 are skipped, then pass 5 and the
        // 7-store tail are simulated.
        assert_eq!(
            skipped(
                &mut fast,
                &mut slow,
                walk(base, 512, 100, 412 + 5 * 512 + 7, true)
            ),
            3
        );
        // Three passes or fewer after the head: nothing to skip.
        assert_eq!(
            skipped(&mut fast, &mut slow, walk(base, 512, 0, 3 * 512, false)),
            0
        );
        // An arena of 128 lines, twice L2: every pass misses L2, so no
        // pass repeats itself.
        assert_eq!(
            skipped(&mut fast, &mut slow, walk(base, 2048, 0, 10 * 2048, false)),
            0
        );
        // A pass shorter than L1 has lines is never checked.
        assert_eq!(
            skipped(&mut fast, &mut slow, walk(base, 8, 0, 100, false)),
            0
        );
    }

    #[test]
    fn a_pass_that_leaves_another_stamp_order_or_stride_entry_is_not_skipped() {
        use crate::cache::WritePolicy;
        use crate::prefetch::PrefetcherKind;

        let base = 0x10000;
        let line = |i: u64| base + 64 * i;
        // 25 lines, pass by pass: L1 set 0 cycles through 4 of them and
        // repeats, sets 1 to 7 through 3 (lines s, s + 8, s + 16) in 2
        // ways. Before the walk, line s + 8 is the newer in each of
        // sets 1 to 7. A pass then ends with the same lines in the same
        // ways, but line s + 16 the newer, so the next pass evicts
        // other ways: no pass repeats itself.
        let [mut fast, mut slow] = [core(), core()];
        for c in [&mut fast, &mut slow] {
            (0..25)
                .chain(9..16)
                .chain([24])
                .for_each(|i| c.load(line(i), 0x80));
        }
        assert_eq!(
            skipped(
                &mut fast,
                &mut slow,
                walk(base, 400, 399, 1 + 5 * 400, false)
            ),
            0
        );

        // 32 lines, 4 per set of a write-through L1, with a stride
        // prefetcher. Stores from the walk's site, which bypass L1, leave
        // its stride entry one step short of confidence on the stride
        // from the arena's last element to its first, and lines T1 and
        // T2, two and four such strides below the arena's last element,
        // resident in L2 and L3. Whole pass 1 starts where its first
        // access proposes T1 and T2, with the same L1 as at its end:
        // only the stride entry tells it from pass 2, which repeats.
        let mut config = CoreConfig::tiny();
        config.hierarchy.l1d = config
            .hierarchy
            .l1d
            .with_write_policy(WritePolicy::WriteThroughNoAllocate);
        config.hierarchy.prefetcher = PrefetcherKind::Stride;
        let [mut fast, mut slow] = [(); 2].map(|_| CoreSim::new(config).unwrap());
        let last = base + 4 * 499;
        let back = 4 * 499;
        assert_eq!(
            skipped(&mut fast, &mut slow, walk(base, 500, 0, 500, false)),
            0
        );
        for c in [&mut fast, &mut slow] {
            c.store(base - back, 0x80);
            c.store(base - 2 * back, 0x80);
            c.store(last + 2 * back, 0x40_0200);
            c.store(last + back, 0x40_0200);
        }
        assert_eq!(
            skipped(
                &mut fast,
                &mut slow,
                walk(base, 500, 499, 1 + 5 * 500, false)
            ),
            2
        );
    }

    #[test]
    fn walk_edge_cases_match_their_replay_on_every_policy() {
        use crate::cache::{ReplacementPolicy, WritePolicy};
        use crate::prefetch::PrefetcherKind;
        use crate::probe::CountingProbe;

        // (base, stride, pass, start, count).
        let cases: [(u64, i64, u64, u64, u64); 12] = [
            (0x1000, 4, 512, 7, 0),
            // Less than one pass, then a start at the arena's last element.
            (0x1000, 4, 512, 7, 100),
            (0x1000, 4, 512, 511, 4000),
            // A one-element arena.
            (0x1000, 4, 1, 5, 50),
            // 500 elements, not a whole number of lines, from mid-line.
            (0x1004, 4, 500, 3, 6000),
            // A start past the arena's end.
            (0x3000, 4, 300, 1000, 1000),
            (0x9000, -4, 600, 5, 6000),
            // Stores of one line each, over 40 lines; a stride of zero.
            (0x2_0000, 64, 40, 0, 40 * 12),
            (0x100, 0, 10, 3, 50),
            // Addresses that wrap past `u64::MAX`.
            (u64::MAX - 64, 4, 100, 10, 1500),
            // Element indices near `u64::MAX`: three elements, then the
            // wrap to element 0; and with `pass` 0, no wrap at all.
            (0x4000, 4, u64::MAX, u64::MAX - 3, 10),
            (0x5000, 4, 0, u64::MAX - 2, 6),
        ];
        let mut configs = Vec::new();
        for policy in ReplacementPolicy::ALL {
            for write_policy in WritePolicy::ALL {
                for prefetcher in PrefetcherKind::ALL {
                    let mut config = CoreConfig::tiny();
                    let h = &mut config.hierarchy;
                    h.l1d = h.l1d.with_policy(policy).with_write_policy(write_policy);
                    h.l2 = h.l2.with_policy(policy);
                    h.prefetcher = prefetcher;
                    configs.push(config);
                }
            }
        }
        for config in configs {
            let [mut fast, mut slow] = [(); 2].map(|_| CoreSim::new(config).unwrap());
            for (step, &(base, stride, pass, start, count)) in cases.iter().enumerate() {
                for write in [step % 2 == 0, step % 2 != 0] {
                    let block = Block::Walk {
                        base,
                        stride,
                        pass,
                        start,
                        count,
                        pc: 0x40_0200,
                        write,
                    };
                    let mut replayed = CountingProbe::new();
                    block.replay(&mut replayed);
                    let mut counted = CountingProbe::new();
                    counted.block(block);
                    assert_eq!(counted, replayed, "{block:?}");
                    fast.block(block);
                    block.replay(&mut slow);
                    assert_eq!(fast.snapshot(), slow.snapshot(), "{config:?} {block:?}");
                    assert!(
                        fast.hierarchy() == slow.hierarchy() && fast.tlb() == slow.tlb(),
                        "{config:?} {block:?}"
                    );
                }
            }
        }
        let endless = walk(0, 3, 1, u64::MAX, true).counts();
        assert_eq!(
            (endless.loads, endless.stores, endless.events),
            (0, u64::MAX, u64::MAX)
        );
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
