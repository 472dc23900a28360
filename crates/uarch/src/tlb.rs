//! A simple set-associative translation lookaside buffer.

use crate::cache::{run_in_block, NO_MEMO};

/// Most entries a TLB may declare. Real data TLBs hold at most a few
/// thousand; the bound keeps a hostile config from sizing the entry
/// arrays without limit.
pub const MAX_TLB_ENTRIES: usize = 1 << 16;

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Associativity (entries per set). `entries` must be divisible by it
    /// and the set count must be a power of two.
    pub associativity: usize,
    /// Page size in bytes (power of two; 4 KiB on the paper's platform).
    pub page_bytes: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        // Sandy-Bridge-era DTLB: 64 entries, 4-way, 4 KiB pages.
        TlbConfig {
            entries: 64,
            associativity: 4,
            page_bytes: 4096,
        }
    }
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations requested.
    pub accesses: u64,
    /// Translations served from the TLB.
    pub hits: u64,
    /// Page-walks (misses).
    pub misses: u64,
}

impl TlbStats {
    /// Miss ratio in `[0, 1]`.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set-associative, LRU TLB. Two TLBs compare equal when every bit of
/// their state does.
///
/// # Examples
///
/// ```
/// use scnn_uarch::tlb::{Tlb, TlbConfig};
///
/// let mut tlb = Tlb::new(TlbConfig::default());
/// assert!(!tlb.translate(0x1234));        // cold miss
/// assert!(tlb.translate(0x1234 + 100));   // same page
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tlb {
    config: TlbConfig,
    /// Virtual page numbers, set-major: way `w` of set `s` is at
    /// `s * associativity + w`.
    vpns: Vec<u64>,
    /// Last-use clock per entry, same layout. The clock starts at 1, so 0
    /// marks an invalid entry and LRU victim selection picks invalid
    /// entries first.
    stamps: Vec<u64>,
    misses: u64,
    clock: u64,
    /// `clock` at the last [`reset_stats`](Self::reset_stats).
    reset_clock: u64,
    page_shift: u32,
    set_mask: u64,
    /// Page number of the latest translation. Valid only while `last_idx`
    /// is not [`NO_MEMO`].
    last_vpn: u64,
    /// Flat index of `last_vpn`'s entry, or [`NO_MEMO`].
    last_idx: usize,
}

impl Tlb {
    /// Builds the TLB.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is inconsistent (zero fields, entry count
    /// not divisible by associativity, non-power-of-two sets or page size,
    /// more than [`MAX_TLB_ENTRIES`] entries).
    pub fn new(config: TlbConfig) -> Self {
        assert!(
            config.entries > 0 && config.associativity > 0 && config.page_bytes > 0,
            "TLB geometry fields must be non-zero"
        );
        assert!(
            config.entries <= MAX_TLB_ENTRIES,
            "TLB entries must not exceed {MAX_TLB_ENTRIES}"
        );
        assert!(
            config.entries.is_multiple_of(config.associativity),
            "entries must divide evenly into ways"
        );
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let sets = config.entries / config.associativity;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Tlb {
            config,
            vpns: vec![0; config.entries],
            stamps: vec![0; config.entries],
            misses: 0,
            clock: 0,
            reset_clock: 0,
            page_shift: config.page_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            last_vpn: u64::MAX,
            last_idx: NO_MEMO,
        }
    }

    /// Translates `addr`, returning `true` on a TLB hit. Misses install the
    /// page with LRU replacement. A repeat translation of the previous
    /// page reuses its entry without a set scan.
    #[inline(always)]
    pub fn translate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let vpn = addr >> self.page_shift;
        if vpn == self.last_vpn && self.last_idx != NO_MEMO {
            self.stamps[self.last_idx] = self.clock;
            return true;
        }
        let ways = self.config.associativity;
        let base = (vpn & self.set_mask) as usize * ways;
        let vpns = &mut self.vpns[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];

        if let Some(way) = (0..ways).find(|&w| stamps[w] != 0 && vpns[w] == vpn) {
            stamps[way] = self.clock;
            self.last_vpn = vpn;
            self.last_idx = base + way;
            return true;
        }

        self.misses += 1;
        let victim = (0..ways)
            .min_by_key(|&w| stamps[w])
            .expect("associativity > 0");
        vpns[victim] = vpn;
        stamps[victim] = self.clock;
        self.last_vpn = vpn;
        self.last_idx = base + victim;
        false
    }

    /// `uses ≥ 1` translations of `addr`'s page in a row, as that many
    /// calls of [`translate`](Self::translate) make them, trying `hint`
    /// first: a flat index (`set * associativity + way`) where an
    /// earlier translation found an entry. The hint counts only when it
    /// is a way of `addr`'s set whose entry is valid and holds `addr`'s
    /// page. A set never holds a page twice (a page is installed only
    /// after a scan missed it), so that is the entry the scan would
    /// find, and the hits are applied exactly as `translate` applies
    /// them: clock, stamp and memo. Otherwise the first translation
    /// takes the usual path, the rest hit the page it left remembered,
    /// and `hint` becomes the index of the page's entry. Any value is a
    /// safe hint. Returns whether the first translation hit.
    #[inline(always)]
    pub(crate) fn translate_hinted(&mut self, addr: u64, hint: &mut usize, uses: u64) -> bool {
        let vpn = addr >> self.page_shift;
        let ways = self.config.associativity;
        let idx = *hint;
        if idx.wrapping_sub((vpn & self.set_mask) as usize * ways) < ways
            && self.stamps[idx] != 0
            && self.vpns[idx] == vpn
        {
            self.clock += uses;
            self.stamps[idx] = self.clock;
            self.last_vpn = vpn;
            self.last_idx = idx;
            return true;
        }
        let hit = self.translate(addr);
        if uses > 1 {
            self.repeat_memo_hits(uses - 1);
        }
        *hint = self.last_idx;
        hit
    }

    /// How many leading translations of the run `addr`, `addr + stride`,
    /// … (at most `n`) fall on the remembered page; 0 when no page is
    /// remembered or `addr` lies elsewhere.
    #[inline]
    pub(crate) fn memo_run(&self, addr: u64, stride: i64, n: u64) -> u64 {
        if addr >> self.page_shift != self.last_vpn || self.last_idx == NO_MEMO {
            return 0;
        }
        run_in_block(addr, stride, n, self.page_shift)
    }

    /// Applies `k` hits on the remembered page, as `k` calls of
    /// [`translate`](Self::translate) on it would. Call only within a
    /// [`memo_run`](Self::memo_run).
    #[inline]
    pub(crate) fn repeat_memo_hits(&mut self, k: u64) {
        debug_assert_ne!(self.last_idx, NO_MEMO, "no remembered page");
        self.clock += k;
        self.stamps[self.last_idx] = self.clock;
    }

    /// The clock and the miss count: a mark for
    /// [`repeat_since`](Self::repeat_since).
    #[inline]
    pub(crate) fn tally(&self) -> (u64, u64) {
        (self.clock, self.misses)
    }

    /// Advances the clock and the miss count by `times` × their advance
    /// since `since`, a [`tally`](Self::tally) of this TLB. Stamps stay
    /// as they are.
    pub(crate) fn repeat_since(&mut self, since: (u64, u64), times: u64) {
        self.clock += times * (self.clock - since.0);
        self.misses += times * (self.misses - since.1);
    }

    /// Invalidates every entry (context switch without PCID).
    pub fn flush(&mut self) {
        self.last_vpn = u64::MAX;
        self.last_idx = NO_MEMO;
        self.stamps.fill(0);
    }

    /// Statistics so far: each translation advances the clock by one,
    /// so they are its advance since the last reset; the rest hit.
    pub fn stats(&self) -> TlbStats {
        let accesses = self.clock - self.reset_clock;
        TlbStats {
            accesses,
            hits: accesses - self.misses,
            misses: self.misses,
        }
    }

    /// Resets statistics, keeping translations.
    pub fn reset_stats(&mut self) {
        self.misses = 0;
        self.reset_clock = self.clock;
    }

    /// The configured geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_page_hits() {
        let mut tlb = Tlb::new(TlbConfig::default());
        assert!(!tlb.translate(0));
        assert!(tlb.translate(4095));
        assert!(!tlb.translate(4096));
        assert_eq!(tlb.stats().accesses, 3);
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn capacity_eviction() {
        let cfg = TlbConfig {
            entries: 4,
            associativity: 2,
            page_bytes: 4096,
        };
        let mut tlb = Tlb::new(cfg);
        // Pages 0, 2, 4 all map to set 0 (2 sets). Third fill evicts LRU.
        tlb.translate(0);
        tlb.translate(2 * 4096);
        tlb.translate(0); // refresh page 0
        tlb.translate(4 * 4096); // evicts page 2
        assert!(tlb.translate(0), "page 0 kept");
        assert!(!tlb.translate(2 * 4096), "page 2 evicted");
    }

    #[test]
    fn flush_forgets_everything() {
        let mut tlb = Tlb::new(TlbConfig::default());
        tlb.translate(0);
        tlb.flush();
        assert!(!tlb.translate(0));
    }

    #[test]
    fn stats_consistency() {
        let mut tlb = Tlb::new(TlbConfig::default());
        for i in 0..500u64 {
            tlb.translate(i * 512);
        }
        let s = tlb.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.miss_ratio() > 0.0);
    }

    #[test]
    fn hinted_translations_leave_the_state_plain_ones_leave() {
        use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};

        let mut rng = ChaCha8Rng::seed_from_u64(0x71b);
        let mut plain = Tlb::new(TlbConfig {
            entries: 16,
            associativity: 4,
            page_bytes: 4096,
        });
        let mut hinted = plain.clone();
        let mut hints = [NO_MEMO; 6];
        let mut hint_hits = 0;
        for step in 0..5000 {
            let slot = step % hints.len();
            let addr = if rng.gen_range(0u32..4) == 0 {
                rng.gen_range(0u64..1 << 20)
            } else {
                slot as u64 * 0x5000 + step as u64 * 8
            };
            match rng.gen_range(0u32..50) {
                0 => hints[slot] = rng.gen_range(0..20),
                1 => {
                    plain.flush();
                    hinted.flush();
                }
                _ => {}
            }
            let before = hints[slot];
            let uses = 1 + u64::from(step % 3 == 0);
            let hit = hinted.translate_hinted(addr, &mut hints[slot], uses);
            assert_eq!(hit, plain.translate(addr), "step {step}");
            if uses > 1 {
                assert!(
                    plain.translate(addr),
                    "step {step}: the page just translated"
                );
            }
            assert!(hinted == plain, "step {step}");
            hint_hits += usize::from(hints[slot] == before && hit);
        }
        assert!(hint_hits > 2000, "{hint_hits} hint hits");
    }

    #[test]
    #[should_panic]
    fn rejects_bad_geometry() {
        Tlb::new(TlbConfig {
            entries: 5,
            associativity: 2,
            page_bytes: 4096,
        });
    }
}
