//! A three-level data-cache hierarchy with DRAM backing and an optional
//! mid-level prefetcher.
//!
//! The perf events of the paper map onto this structure the way Intel maps
//! them: `cache-references` counts accesses that reach the last-level
//! cache, `cache-misses` counts LLC misses (DRAM fills).

use crate::cache::{
    AccessOutcome, Cache, CacheConfig, CacheConfigError, CacheStats, HitSpan, WritePolicy,
};
use crate::prefetch::{LocalEntry, Prefetcher, PrefetcherKind};

/// Which level ultimately served a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Level-1 data cache.
    L1,
    /// Unified level-2 cache.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory.
    Dram,
}

/// Access latencies per level, in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyModel {
    /// L1 hit latency.
    pub l1: u64,
    /// L2 hit latency.
    pub l2: u64,
    /// LLC hit latency.
    pub l3: u64,
    /// DRAM access latency.
    pub dram: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Representative Sandy-Bridge-EP numbers.
        LatencyModel {
            l1: 4,
            l2: 12,
            l3: 36,
            dram: 200,
        }
    }
}

impl LatencyModel {
    /// Latency of an access served by `level`.
    pub fn for_level(&self, level: ServedBy) -> u64 {
        match level {
            ServedBy::L1 => self.l1,
            ServedBy::L2 => self.l2,
            ServedBy::L3 => self.l3,
            ServedBy::Dram => self.dram,
        }
    }
}

/// Geometry of the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// LLC geometry.
    pub l3: CacheConfig,
    /// Latency model.
    pub latency: LatencyModel,
    /// Mid-level prefetcher.
    pub prefetcher: PrefetcherKind,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        // Scaled-down Xeon-class hierarchy (see `CoreConfig` presets for
        // the full-size E5-2690 geometry).
        HierarchyConfig {
            l1d: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(256 * 1024, 8, 64),
            l3: CacheConfig::new(2 * 1024 * 1024, 16, 64),
            latency: LatencyModel::default(),
            prefetcher: PrefetcherKind::Stride,
        }
    }
}

/// Aggregated statistics of the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HierarchyStats {
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// L2 statistics (demand + prefetch fills).
    pub l2: CacheStats,
    /// LLC statistics.
    pub l3: CacheStats,
    /// Demand accesses that reached the LLC (`cache-references` in perf
    /// terms).
    pub llc_references: u64,
    /// Demand accesses that missed the LLC (`cache-misses`).
    pub llc_misses: u64,
    /// Prefetch requests issued.
    pub prefetches: u64,
    /// Total memory latency accumulated by demand accesses, in cycles.
    pub demand_cycles: u64,
}

/// The three-level memory hierarchy. Two hierarchies compare equal when
/// every bit of their state does.
///
/// # Examples
///
/// ```
/// use scnn_uarch::hierarchy::{HierarchyConfig, MemoryHierarchy, ServedBy};
///
/// # fn main() -> Result<(), scnn_uarch::cache::CacheConfigError> {
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::default())?;
/// assert_eq!(mem.access(0x1000, false, 0), ServedBy::Dram); // cold
/// assert_eq!(mem.access(0x1000, false, 0), ServedBy::L1);   // warm
/// # Ok(())
/// # }
/// ```
#[derive(PartialEq, Eq)]
pub struct MemoryHierarchy {
    l1d: Cache,
    l2: Cache,
    l3: Cache,
    latency: LatencyModel,
    prefetcher: Prefetcher,
    /// Demand accesses that reached the LLC; the others are prefetches.
    demand_llc: u64,
    /// Latency of the demand accesses that missed L1.
    miss_cycles: u64,
}

impl std::fmt::Debug for MemoryHierarchy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryHierarchy")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl MemoryHierarchy {
    /// Builds the hierarchy.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when any level's geometry is invalid.
    pub fn new(config: HierarchyConfig) -> Result<Self, CacheConfigError> {
        Ok(MemoryHierarchy {
            l1d: Cache::new(config.l1d)?,
            l2: Cache::new(config.l2)?,
            l3: Cache::new(config.l3)?,
            latency: config.latency,
            prefetcher: Prefetcher::new(config.prefetcher, config.l2.line_bytes),
            demand_llc: 0,
            miss_cycles: 0,
        })
    }

    /// A demand access from the core. `pc` identifies the load/store site
    /// for the prefetcher. Returns the level that served the access.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool, pc: u64) -> ServedBy {
        let l1 = self.l1d.access(addr, write);
        let served = self.below_l1(addr, l1);
        self.prefetch(pc, addr, served != ServedBy::L1);
        served
    }

    /// The demand half of [`access`](Self::access), with the L1 lookup
    /// hinted and, when `store_after`, followed by a store to `addr` in
    /// one L1 access (see [`Cache::access_hinted`]): the lookup down the
    /// levels, the writeback of a dirty L1 victim and the latency. When
    /// L1 misses, the prefetch targets queued in `fills` are filled
    /// first (see [`fill_queued`](Self::fill_queued)). A store after a
    /// load hits the line the load left in L1, so what follows is the
    /// load's, and applying the store's L1 tick before the load's path
    /// below L1 is exact: L1 never reads L2 or L3, and
    /// [`below_l1`](Self::below_l1) reads only L1's outcome. Returns the
    /// level that served the (first) access.
    #[inline]
    pub(crate) fn demand(
        &mut self,
        addr: u64,
        write: bool,
        store_after: bool,
        hint: &mut usize,
        fills: &mut Vec<u64>,
    ) -> ServedBy {
        let l1 = self.l1d.access_hinted(addr, write, store_after, hint);
        if !l1.hit {
            self.fill_queued(fills);
        }
        self.below_l1(addr, l1)
    }

    /// Fills the prefetch targets queued in `fills`, in queue order, and
    /// empties the queue. Deferring a fill past later L1 hits and TLB
    /// translations is exact: L2 and L3 are touched only by fills and
    /// by the path below an L1 miss, L1 never reads them, and that path
    /// depends on L1 only through the miss. A fill must not pass an L1
    /// miss, so [`demand`](Self::demand) fills the queue before one.
    /// Pinned by `a_weight_that_misses_l1_finds_the_fills_queued_before_it`.
    #[inline]
    pub(crate) fn fill_queued(&mut self, fills: &mut Vec<u64>) {
        if !fills.is_empty() {
            self.fill(fills);
            fills.clear();
        }
    }

    /// What follows L1's outcome `l1` for a demand access to `addr`.
    #[inline]
    fn below_l1(&mut self, addr: u64, l1: AccessOutcome) -> ServedBy {
        if l1.hit {
            return ServedBy::L1;
        }
        let served = if self.l2.access(addr, false).hit {
            ServedBy::L2
        } else {
            self.demand_llc += 1;
            if self.l3.access(addr, false).hit {
                ServedBy::L3
            } else {
                ServedBy::Dram
            }
        };
        // Writebacks of dirty L1 victims land in L2 (write-back,
        // write-allocate); model as an L2 store.
        if let Some(wb) = l1.writeback {
            self.l2.access(wb, true);
        }
        self.miss_cycles += self.latency.for_level(served);
        served
    }

    /// The prefetch half of [`access`](Self::access): the prefetcher
    /// observes the demand access to `addr` from `pc` (`miss` when L1
    /// missed) and fills L2/L3. A prefetch that misses the LLC still
    /// fetches the line from DRAM, so it counts toward `cache-misses`
    /// exactly as on real PMUs — prefetching hides *latency*, not
    /// *traffic*.
    #[inline]
    fn prefetch(&mut self, pc: u64, addr: u64, miss: bool) {
        let (targets, n) = self.prefetcher.observe(pc, addr, miss);
        self.fill(&targets[..n]);
    }

    /// Prefetches `targets` into L3 and L2, one cache after the other:
    /// the two hold separate state, so this equals filling each target
    /// into L3 and then L2 in turn (see [`Cache::read_all`]).
    #[inline]
    fn fill(&mut self, targets: &[u64]) {
        self.l3.read_all(targets);
        self.l2.read_all(targets);
    }

    /// The prefetcher, for the multiply-accumulate runs of
    /// [`CoreSim`](crate::CoreSim).
    #[inline]
    pub(crate) fn prefetcher_mut(&mut self) -> &mut Prefetcher {
        &mut self.prefetcher
    }

    /// Applies, in closed form, the longest steady prefix (at most `n`
    /// accesses) of the run `addr`, `addr + stride`, … from load site
    /// `pc`, and returns its length; 0 when the first access is not
    /// steady. An access is steady when it hits L1's remembered line,
    /// the prefetcher is steady on it (see [`Prefetcher::steady`]), and
    /// every target it proposes lies below 2^63 and, in each of L3 and
    /// L2, on the remembered line or on the resident line the targets
    /// enter after it (see [`Cache::hit_span`]). The effect equals that
    /// many calls of [`access`](Self::access): every access of the chunk
    /// is a hit in every cache it reaches, so each clock advances by the
    /// chunk's accesses to it (`k` in L1, `d·k` in L3 and L2 for degree
    /// `d`), the stamps, dirty bit and tree-PLRU bits end as those hits
    /// leave them (see [`fill_steady`]), and the stride entry ends at the
    /// chunk's last access with confidence 3. Stores into a write-through
    /// L1 are never steady, so that the closed form does not encode the
    /// write-through store fidelity gap, and neither are targets outside
    /// `0..=i64::MAX`, which the stride prefetcher drops. Pinned by the
    /// `steady_run_*` tests below and the stream generator of
    /// `blocks_match_per_element_events_for_every_cache_shape`.
    #[inline]
    pub(crate) fn steady_run(
        &mut self,
        addr: u64,
        stride: i64,
        n: u64,
        write: bool,
        pc: u64,
    ) -> u64 {
        if write && self.l1d.config().write_policy == WritePolicy::WriteThroughNoAllocate {
            return 0;
        }
        let mut k = self.l1d.memo_run(addr, stride, n);
        if k == 0 {
            return 0;
        }
        let Some(degree) = self.prefetcher.steady(pc, addr, stride) else {
            return 0;
        };
        let per_access = degree as u64;
        if per_access > 0 {
            // The targets of accesses 0..k are the run's next k + d - 1
            // elements after `addr`.
            let Some(first) = addr.checked_add_signed(stride) else {
                return 0;
            };
            if first > i64::MAX as u64 {
                return 0;
            }
            let want = k + per_access - 1;
            let l3 = self.l3.hit_span(first, stride, want);
            let l2 = self.l2.hit_span(first, stride, want);
            k = k.min((l3.len().min(l2.len()) + 1).saturating_sub(per_access));
            if k == 0 {
                return 0;
            }
            // The targets run monotonically from `first` to the last, so
            // they are all in the prefetcher's range when both ends are.
            let last = first as i128 + stride as i128 * (k + per_access - 2) as i128;
            if !(0..=i64::MAX as i128).contains(&last) {
                return 0;
            }
            fill_steady(&mut self.l3, l3, k, per_access);
            fill_steady(&mut self.l2, l2, k, per_access);
        }
        self.l1d.repeat_memo_hits(k, write);
        let last_addr = addr.wrapping_add_signed(stride.wrapping_mul(k as i64 - 1));
        self.prefetcher.advance(pc, last_addr);
        k
    }

    /// The hierarchy at the start of a pass of accesses from load site
    /// `pc`, for [`repeats`](Self::repeats) and
    /// [`repeat`](Self::repeat).
    pub(crate) fn mark(&self, pc: u64) -> PassMark {
        PassMark {
            l1d: self.l1d.clone(),
            pc,
            entry: self.prefetcher.local(pc),
            l2: self.l2.tally(),
            l3: self.l3.tally(),
            demand_llc: self.demand_llc,
            miss_cycles: self.miss_cycles,
        }
    }

    /// Whether the pass since `mark` left the hierarchy where the same
    /// pass would repeat itself: no L2 or L3 access missed, L1 has the
    /// shape it had (see [`Cache::same_shape`]), and the stride entry of
    /// the pass's site is as it was.
    pub(crate) fn repeats(&self, mark: &PassMark) -> bool {
        self.l2.tally().1.misses == mark.l2.1.misses
            && self.l3.tally().1.misses == mark.l3.1.misses
            && self.prefetcher.local(mark.pc) == mark.entry
            && self.l1d.same_shape(&mark.l1d)
    }

    /// Adds `times` × what the pass since `mark` added to every clock
    /// and count, leaving stamps as they are (see
    /// [`Cache::repeat_since`]).
    pub(crate) fn repeat(&mut self, mark: &PassMark, times: u64) {
        self.l1d.repeat_since(mark.l1d.tally(), times);
        self.l2.repeat_since(mark.l2, times);
        self.l3.repeat_since(mark.l3, times);
        self.demand_llc += times * (self.demand_llc - mark.demand_llc);
        self.miss_cycles += times * (self.miss_cycles - mark.miss_cycles);
    }

    /// Statistics snapshot. Only demand L2 misses and prefetches reach
    /// the LLC, and only demand accesses reach L1 (DESIGN.md §13).
    pub fn stats(&self) -> HierarchyStats {
        let (l1d, l3) = (self.l1d.stats(), self.l3.stats());
        HierarchyStats {
            l1d,
            l2: self.l2.stats(),
            l3,
            llc_references: l3.accesses,
            llc_misses: l3.misses,
            prefetches: l3.accesses - self.demand_llc,
            demand_cycles: l1d.hits * self.latency.l1 + self.miss_cycles,
        }
    }

    /// Flushes every level (cold start).
    pub fn flush(&mut self) {
        self.l1d.flush();
        self.l2.flush();
        self.l3.flush();
    }

    /// Pollutes all levels as a co-runner / context switch would:
    /// `fraction` of L1 and L2 lines and `fraction / 4` of LLC lines are
    /// invalidated (the LLC is bigger and loses proportionally less).
    pub fn pollute(&mut self, fraction: f64, seed: u64) {
        self.l1d.pollute(fraction, seed ^ 0x1111);
        self.l2.pollute(fraction, seed ^ 0x2222);
        self.l3.pollute(fraction / 4.0, seed ^ 0x3333);
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.demand_llc = 0;
        self.miss_cycles = 0;
    }

    /// Immutable access to the L1 data cache (for tests and inspection).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// Immutable access to the LLC.
    pub fn l3(&self) -> &Cache {
        &self.l3
    }
}

/// What [`MemoryHierarchy::mark`] keeps of the hierarchy at the start
/// of a pass: a copy of L1, the stride entry of the pass's site, and
/// the clocks and counts of the rest.
pub(crate) struct PassMark {
    l1d: Cache,
    pc: u64,
    entry: Option<LocalEntry>,
    l2: (u64, CacheStats),
    l3: (u64, CacheStats),
    demand_llc: u64,
    miss_cycles: u64,
}

/// Applies the `d·k` target accesses of a steady chunk of `k` accesses
/// at degree `d` to one of L3 and L2, whose `span` covers the chunk's
/// `k + d − 1` targets. Access `j` targets elements `j + 1 ..= j + d` of
/// the run, in that order; with `d ≤ 2` (the stride prefetcher's cap)
/// the element indices never fall, so every access to the remembered
/// line comes before every access to the next one. The `t`-th targets
/// (`t` from 0) of the first `min(k, memo − t)` accesses lie on the
/// remembered line: they are memo hits. The rest are one hit on the
/// next line, then memo hits ([`Cache::repeat_hits_at`]). Nothing is
/// evicted, and each cache holds state of its own, so applying each
/// cache's share on its own equals the interleaved order.
#[inline]
fn fill_steady(cache: &mut Cache, span: HitSpan, k: u64, degree: u64) {
    debug_assert!(degree <= 2, "targets of degree {degree} are not monotone");
    let on_memo: u64 = (0..degree)
        .map(|t| k.min(span.memo.saturating_sub(t)))
        .sum();
    cache.repeat_memo_hits(on_memo, false);
    if on_memo < degree * k {
        cache.repeat_hits_at(span.next_idx, degree * k - on_memo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy(prefetcher: PrefetcherKind) -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            prefetcher,
            ..HierarchyConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn cold_access_walks_all_levels() {
        let mut m = hierarchy(PrefetcherKind::None);
        assert_eq!(m.access(0, false, 0), ServedBy::Dram);
        let s = m.stats();
        assert_eq!(s.l1d.misses, 1);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l3.misses, 1);
        assert_eq!(s.llc_references, 1);
        assert_eq!(s.llc_misses, 1);
        assert_eq!(s.demand_cycles, LatencyModel::default().dram);
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut m = hierarchy(PrefetcherKind::None);
        m.access(0, false, 0);
        assert_eq!(m.access(0, false, 0), ServedBy::L1);
        assert_eq!(m.stats().llc_references, 1, "second access never left L1");
    }

    #[test]
    fn l1_eviction_then_l2_hit() {
        let mut m = hierarchy(PrefetcherKind::None);
        // Fill far more than L1 (32 KiB = 512 lines), then revisit: lines
        // fall out of L1 but stay in L2 (256 KiB = 4096 lines).
        for i in 0..2048u64 {
            m.access(i * 64, false, 0);
        }
        let served = m.access(0, false, 0);
        assert_eq!(served, ServedBy::L2);
    }

    #[test]
    fn llc_miss_count_tracks_unique_lines_cold() {
        let mut m = hierarchy(PrefetcherKind::None);
        for i in 0..100u64 {
            m.access(i * 64, false, 0);
            m.access(i * 64 + 8, false, 0); // same line, L1 hit
        }
        let s = m.stats();
        assert_eq!(s.llc_misses, 100, "one DRAM fill per unique line");
        assert_eq!(s.l1d.hits, 100);
    }

    #[test]
    fn prefetcher_reduces_dram_hits_on_streaming() {
        let run = |kind: PrefetcherKind| {
            let mut m = hierarchy(kind);
            let mut dram = 0;
            for i in 0..4000u64 {
                if m.access(i * 64, false, 0x40) == ServedBy::Dram {
                    dram += 1;
                }
            }
            (dram, m.stats().prefetches)
        };
        let (dram_none, pf_none) = run(PrefetcherKind::None);
        let (dram_stride, pf_stride) = run(PrefetcherKind::Stride);
        assert_eq!(pf_none, 0);
        assert!(pf_stride > 0);
        assert!(
            dram_stride < dram_none / 2,
            "stride prefetcher should absorb most of a streaming scan: {dram_stride} vs {dram_none}"
        );
    }

    #[test]
    fn dirty_writeback_reaches_l2() {
        let mut m = hierarchy(PrefetcherKind::None);
        // Dirty a line, then push it out of L1 with conflicting fills.
        m.access(0, true, 0);
        // L1: 64 sets, 8 ways. Lines mapping to set 0 are 64*64 bytes apart.
        let set_stride = 64 * 64;
        for i in 1..=8u64 {
            m.access(i * set_stride, false, 0);
        }
        let s = m.stats();
        assert!(s.l2.accesses > s.l1d.misses, "writeback added an L2 access");
    }

    #[test]
    fn flush_makes_cold_again() {
        let mut m = hierarchy(PrefetcherKind::None);
        m.access(0, false, 0);
        m.flush();
        assert_eq!(m.access(0, false, 0), ServedBy::Dram);
    }

    #[test]
    fn pollute_is_milder_on_llc() {
        let mut m = hierarchy(PrefetcherKind::None);
        for i in 0..512u64 {
            m.access(i * 64, false, 0);
        }
        let l1_before = m.l1d().occupancy();
        let l3_before = m.l3().occupancy();
        m.pollute(0.8, 99);
        let l1_lost = l1_before - m.l1d().occupancy();
        let l3_lost = l3_before - m.l3().occupancy();
        assert!(l1_lost > 0);
        assert!(
            (l3_lost as f64) < (l3_before as f64) * 0.4,
            "LLC should lose ≲20%: lost {l3_lost} of {l3_before}"
        );
    }

    /// Two hierarchies after the same 4-byte loads from 0x40 over line
    /// 0, which train the stride entry (confidence 2 after the fourth).
    fn trained(write_policy: WritePolicy, base: u64) -> [MemoryHierarchy; 2] {
        [(); 2].map(|_| {
            let level = |c: CacheConfig| c.with_write_policy(write_policy);
            let d = HierarchyConfig::default();
            let mut m = MemoryHierarchy::new(HierarchyConfig {
                l1d: level(d.l1d),
                l2: level(d.l2),
                l3: level(d.l3),
                ..d
            })
            .unwrap();
            for i in 0..4 {
                m.access(base + i * 4, false, 0x40);
            }
            m
        })
    }

    #[test]
    fn steady_run_stops_where_a_target_leaves_the_line() {
        let [mut fast, mut stepped] = trained(WritePolicy::WriteBackAllocate, 0);
        // Loads at 16..=52 hit line 0 and prefetch +4, +8 inside it; the
        // load at 56 would prefetch 64.
        assert_eq!(fast.steady_run(16, 4, 100, true, 0x40), 10);
        for i in 0..10 {
            stepped.access(16 + i * 4, true, 0x40);
        }
        assert!(fast == stepped, "closed form left another state");
        assert_eq!(fast.stats().prefetches, 2 + 20);
        assert_eq!(fast.steady_run(56, 4, 100, false, 0x40), 0);
        assert_eq!(fast.steady_run(60, 4, 100, false, 0x40), 0, "gap");
    }

    #[test]
    fn steady_run_leaves_write_through_stores_per_element() {
        let [mut m, _] = trained(WritePolicy::WriteThroughNoAllocate, 0);
        assert_eq!(m.steady_run(16, 4, 100, true, 0x40), 0);
        assert_eq!(m.steady_run(16, 4, 100, false, 0x40), 10);
    }

    #[test]
    fn steady_run_leaves_targets_past_i64_max_per_element() {
        // Above 2^63 the stride entry trains but every target is dropped,
        // while the demand miss left the line remembered in L3 and L2.
        let base = 1 << 63;
        let [mut fast, mut stepped] = trained(WritePolicy::WriteBackAllocate, base);
        assert_eq!(fast.stats().prefetches, 0);
        assert_eq!(fast.steady_run(base + 16, 4, 100, false, 0x40), 0);
        stepped.access(base + 16, false, 0x40);
        fast.access(base + 16, false, 0x40);
        assert!(fast == stepped);
        assert_eq!(fast.stats().prefetches, 0);
    }

    #[test]
    fn steady_run_spills_into_the_next_resident_line() {
        use crate::cache::ReplacementPolicy;

        let d = HierarchyConfig::default();
        let plru = |c: CacheConfig| c.with_policy(ReplacementPolicy::TreePlru);
        let [mut fast, mut stepped] = [(); 2].map(|_| {
            let mut m = MemoryHierarchy::new(HierarchyConfig {
                l2: plru(d.l2),
                l3: plru(d.l3),
                ..d
            })
            .unwrap();
            // Line 1, then line 2049, fill ways 0 and 1 of set 1 in L2
            // (512 sets) and L3 (2048 sets); site 0x80 never prefetches.
            m.access(64, false, 0x80);
            m.access(64 + 2048 * 64, false, 0x80);
            // Four 4-byte loads from 0x40 over line 0 train its stride
            // entry; the fourth prefetches 16 and 20.
            for i in 0..4 {
                m.access(i * 4, false, 0x40);
            }
            m
        });
        for level in [&fast.l2, &fast.l3] {
            assert_eq!(level.stamp_of(0), Some(5));
            assert_eq!(level.memo_addr(), Some(0));
        }
        // Way 1 was touched last: 8 ways leave node 3 pointing left,
        // 16 ways node 7.
        assert_eq!((fast.l2.plru_of(64), fast.l3.plru_of(64)), (1 << 3, 1 << 7));

        // Loads 16..=60 stay on L1's line 0. Their targets 20..=68 take
        // 11 elements of line 0 and then 64 and 68 of the resident line
        // 1: all 12 loads are steady (only 10 without the spill).
        assert_eq!(fast.steady_run(16, 4, 100, false, 0x40), 12);
        for i in 0..12 {
            stepped.access(16 + i * 4, false, 0x40);
        }
        assert!(fast == stepped, "closed form left another state");

        // 24 target accesses per level: 11 + 10 on line 0 (the first
        // targets of loads 0..11, the second of loads 0..10), then
        // 60 → 64 of load 10 and 64, 68 of load 11 on line 1.
        for level in [&fast.l2, &fast.l3] {
            assert_eq!(level.stamp_of(0), Some(5 + 21));
            assert_eq!(level.stamp_of(64), Some(5 + 24));
            assert_eq!(level.stamp_of(64 + 2048 * 64), Some(2));
            assert_eq!(level.memo_addr(), Some(64));
            assert_eq!(level.plru_of(64), 0, "line 1 in way 0 touched");
        }
        assert_eq!(fast.l1d.stamp_of(0), Some(18));
        assert_eq!(fast.l1d.memo_addr(), Some(0));
        let s = fast.stats();
        assert_eq!(
            [ahm(s.l1d), ahm(s.l2), ahm(s.l3)],
            [[18, 15, 3], [29, 26, 3], [29, 26, 3]]
        );
        assert_eq!(
            [
                s.llc_references,
                s.llc_misses,
                s.prefetches,
                s.demand_cycles
            ],
            [29, 3, 26, 3 * 200 + 15 * 4]
        );
    }

    #[test]
    fn steady_run_does_not_spill_past_i64_max() {
        let top = 1u64 << 63;
        let [mut fast, mut stepped] = [(); 2].map(|_| {
            let mut m = hierarchy(PrefetcherKind::Stride);
            // The line at 2^63 is resident, and a stream from 0x40
            // trains on the line below it.
            m.access(top, false, 0x80);
            for i in 0..4 {
                m.access(top - 64 + i * 4, false, 0x40);
            }
            m
        });
        // The loads at top - 48 ..= top - 8 would prefetch 2^63 and on,
        // which the prefetcher drops: no chunk may count those targets.
        let mut addr = top - 48;
        while addr < top {
            let k = match fast.steady_run(addr, 4, (top - addr) / 4, false, 0x40) {
                0 => {
                    fast.access(addr, false, 0x40);
                    1
                }
                k => k,
            };
            for _ in 0..k {
                stepped.access(addr, false, 0x40);
                addr += 4;
            }
            assert!(fast == stepped, "at {addr:#x}");
        }
        assert_eq!(fast.stats().prefetches, 2 + 20 + 1);
    }

    #[test]
    fn steady_run_does_not_spill_into_a_line_that_is_not_resident() {
        let [mut m, _] = trained(WritePolicy::WriteBackAllocate, 0);
        assert_eq!(m.steady_run(16, 4, 100, false, 0x40), 10);
    }

    /// Accesses, hits and misses of one level.
    fn ahm(s: CacheStats) -> [u64; 3] {
        [s.accesses, s.hits, s.misses]
    }

    #[test]
    fn derived_counts_follow_write_through_stores() {
        let d = HierarchyConfig::default();
        let mut m = MemoryHierarchy::new(HierarchyConfig {
            l1d: d.l1d.with_write_policy(WritePolicy::WriteThroughNoAllocate),
            prefetcher: PrefetcherKind::None,
            ..d
        })
        .unwrap();
        assert_eq!(m.access(0, false, 0), ServedBy::Dram);
        // A hit updates L1 in place; it is not forwarded.
        assert_eq!(m.access(0, true, 0), ServedBy::L1);
        // A miss bypasses L1: read down to DRAM, then written into L2.
        assert_eq!(m.access(0x10000, true, 0), ServedBy::Dram);
        let s = m.stats();
        assert_eq!(ahm(s.l1d), [3, 1, 2]);
        assert_eq!(ahm(s.l2), [3, 1, 2]);
        assert_eq!(ahm(s.l3), [2, 0, 2]);
        assert_eq!((s.llc_references, s.llc_misses, s.prefetches), (2, 2, 0));
        assert_eq!(s.demand_cycles, 200 + 4 + 200);
        // Not allocated: it misses L1 again and hits L2.
        assert_eq!(m.access(0x10000, true, 0), ServedBy::L2);
        let s = m.stats();
        assert_eq!(ahm(s.l1d), [4, 1, 3]);
        assert_eq!(ahm(s.l2), [5, 3, 2]);
        assert_eq!(ahm(s.l3), [2, 0, 2]);
        assert_eq!(s.demand_cycles, 404 + 12);
    }

    #[test]
    fn derived_counts_follow_a_dirty_victim_into_l2() {
        let mut m = hierarchy(PrefetcherKind::None);
        m.access(0, true, 0);
        // Eight more lines of L1 set 0 (64 sets × 64 bytes apart): the
        // last one evicts the dirty line 0 into L2, where it hits.
        for i in 1..=8u64 {
            assert_eq!(m.access(i * 4096, false, 0), ServedBy::Dram);
        }
        let s = m.stats();
        assert_eq!(ahm(s.l1d), [9, 0, 9]);
        assert_eq!((s.l1d.evictions, s.l1d.writebacks), (1, 1));
        assert_eq!(ahm(s.l2), [10, 1, 9]);
        assert_eq!(ahm(s.l3), [9, 0, 9]);
        assert_eq!((s.llc_references, s.llc_misses, s.prefetches), (9, 9, 0));
        assert_eq!(s.demand_cycles, 9 * 200);
    }

    #[test]
    fn derived_counts_split_llc_traffic_into_demand_and_prefetch() {
        // One L1 line and one two-line L2 set, so lines fall out of both
        // while the LLC keeps them.
        let mut m = MemoryHierarchy::new(HierarchyConfig {
            l1d: CacheConfig::new(64, 1, 64),
            l2: CacheConfig::new(128, 2, 64),
            ..HierarchyConfig::default()
        })
        .unwrap();
        let expect = |m: &MemoryHierarchy, l1d, l2, l3, refs, misses, prefetches, cycles| {
            let s = m.stats();
            assert_eq!([ahm(s.l1d), ahm(s.l2), ahm(s.l3)], [l1d, l2, l3]);
            assert_eq!(
                [
                    s.llc_references,
                    s.llc_misses,
                    s.prefetches,
                    s.demand_cycles
                ],
                [refs, misses, prefetches, cycles]
            );
        };
        // The fourth load of the stream prefetches lines 256 and 320.
        for i in 0..4 {
            assert_eq!(m.access(i * 64, false, 0x40), ServedBy::Dram);
        }
        expect(&m, [4, 0, 4], [6, 0, 6], [6, 0, 6], 6, 6, 2, 800);
        // Line 0 left L2 but not the LLC.
        assert_eq!(m.access(0, false, 0x80), ServedBy::L3);
        expect(&m, [5, 0, 5], [7, 0, 7], [7, 1, 6], 7, 6, 2, 836);
        // Line 256 was prefetched, then evicted from L2 by line 0; this
        // load prefetches 320 (an LLC hit) and 384 (a miss).
        assert_eq!(m.access(256, false, 0x40), ServedBy::L3);
        expect(&m, [6, 0, 6], [10, 0, 10], [10, 3, 7], 10, 7, 4, 872);
        assert_eq!(m.access(0x40000, false, 0x80), ServedBy::Dram);
        assert_eq!(m.access(0x40008, false, 0x80), ServedBy::L1);
        expect(&m, [8, 1, 7], [11, 0, 11], [11, 3, 8], 11, 8, 4, 1076);
    }

    #[test]
    fn derived_counts_follow_a_steady_run() {
        let [mut m, _] = trained(WritePolicy::WriteBackAllocate, 0);
        // A DRAM miss and three L1 hits; the fourth load prefetched two
        // targets on line 0.
        let s = m.stats();
        assert_eq!(
            [ahm(s.l1d), ahm(s.l2), ahm(s.l3)],
            [[4, 3, 1], [3, 2, 1], [3, 2, 1]]
        );
        assert_eq!(
            (s.llc_references, s.prefetches, s.demand_cycles),
            (3, 2, 212)
        );
        assert_eq!(m.steady_run(16, 4, 100, false, 0x40), 10);
        let s = m.stats();
        assert_eq!(
            [ahm(s.l1d), ahm(s.l2), ahm(s.l3)],
            [[14, 13, 1], [23, 22, 1], [23, 22, 1]]
        );
        assert_eq!(
            [
                s.llc_references,
                s.llc_misses,
                s.prefetches,
                s.demand_cycles
            ],
            [23, 1, 22, 212 + 10 * 4]
        );
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut m = hierarchy(PrefetcherKind::None);
        m.access(0, false, 0);
        m.reset_stats();
        assert_eq!(m.stats().llc_references, 0);
        assert_eq!(m.access(0, false, 0), ServedBy::L1, "still warm");
    }
}
