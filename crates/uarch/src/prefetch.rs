//! Hardware prefetcher models.
//!
//! A prefetcher watches the demand-miss stream and proposes line addresses
//! to pull into the cache ahead of use. The hierarchy decides where the
//! prefetched lines land (L2 in this model, matching Intel's MLC
//! prefetchers).

/// Prefetcher selection for the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PrefetcherKind {
    /// No prefetching.
    None,
    /// Fetch line N+1 on a miss to line N.
    NextLine,
    /// Per-PC stride detection (IP-stride prefetcher), degree 2.
    #[default]
    Stride,
}

impl PrefetcherKind {
    /// Every prefetcher kind, in config-file order.
    pub const ALL: [PrefetcherKind; 3] = [
        PrefetcherKind::None,
        PrefetcherKind::NextLine,
        PrefetcherKind::Stride,
    ];

    /// The stable config-file name of this prefetcher kind.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "none",
            PrefetcherKind::NextLine => "next-line",
            PrefetcherKind::Stride => "stride",
        }
    }

    /// Looks a prefetcher kind up by its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// The hierarchy's prefetcher, dispatched by `match` rather than through a
/// trait object so that [`observe`](Self::observe) inlines into the access
/// path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prefetcher {
    /// No prefetching.
    None,
    /// See [`NextLinePrefetcher`].
    NextLine(NextLinePrefetcher),
    /// See [`StridePrefetcher`].
    Stride(StridePrefetcher),
}

impl Prefetcher {
    /// Builds the prefetcher of `kind` for a cache with the given line
    /// size. The stride prefetcher tracks 256 load sites at degree 2.
    pub fn new(kind: PrefetcherKind, line_bytes: usize) -> Self {
        match kind {
            PrefetcherKind::None => Prefetcher::None,
            PrefetcherKind::NextLine => Prefetcher::NextLine(NextLinePrefetcher::new(line_bytes)),
            PrefetcherKind::Stride => Prefetcher::Stride(StridePrefetcher::new(8, 2)),
        }
    }

    /// Observes a demand access (`pc` identifies the load site) and returns
    /// the byte addresses the hierarchy should prefetch: the first `n`
    /// entries of the array.
    #[inline]
    pub fn observe(&mut self, pc: u64, addr: u64, miss: bool) -> ([u64; 2], usize) {
        match self {
            Prefetcher::None => ([0; 2], 0),
            Prefetcher::NextLine(p) => p.observe(addr, miss),
            Prefetcher::Stride(p) => p.observe(pc, addr),
        }
    }

    /// Whether the next access of a run from load site `pc`, at `addr`
    /// and `stride` bytes past the previous one, finds this prefetcher
    /// in a steady state, given that the access hits L1. Returns how
    /// many targets each such access proposes: `Some(0)` when it
    /// proposes nothing (no prefetcher, or next-line on a hit), the
    /// degree when the stride entry of `pc` already follows this stream
    /// with full confidence, and `None` otherwise. In a steady state the
    /// access's targets are that many addresses, `stride` apart, after
    /// `addr` (those outside the prefetcher's range dropped), and each
    /// further access of the run stays steady.
    #[inline]
    pub(crate) fn steady(&self, pc: u64, addr: u64, stride: i64) -> Option<usize> {
        match self {
            Prefetcher::None | Prefetcher::NextLine(_) => Some(0),
            Prefetcher::Stride(p) => p.steady(pc, addr, stride),
        }
    }

    /// Applies one or more steady accesses of a run whose last access is
    /// at `last_addr`: the state [`observe`](Self::observe) would leave.
    /// Call only after [`steady`](Self::steady) returned `Some`.
    #[inline]
    pub(crate) fn advance(&mut self, pc: u64, last_addr: u64) {
        if let Prefetcher::Stride(p) = self {
            p.advance(pc, last_addr);
        }
    }

    /// The [`observe`](Self::observe) of an L1 hit on `addr` from `pc`
    /// right after a load of `addr` from `pc`, as a store after its load
    /// makes it. It proposes nothing: next-line proposes on misses only,
    /// and the stride entry, which the load left holding `pc`, sees
    /// stride 0. It leaves that entry holding `pc` at `addr` with stride
    /// 0 and confidence 0, which it writes whole, so it stays exact when
    /// the load's own observe was skipped (see
    /// [`acc_loads_idle`](Self::acc_loads_idle)).
    #[inline]
    pub(crate) fn observe_repeat(&mut self, pc: u64, addr: u64) {
        if let Prefetcher::Stride(p) = self {
            p.observe_repeat(pc, addr);
        }
    }

    /// Whether the accumulator loads of a multiply-accumulate run may skip
    /// [`observe`](Self::observe) after the run's first iteration, each
    /// being followed by a store to its address from its site that is
    /// applied with [`observe_repeat`](Self::observe_repeat). True except
    /// for the next-line prefetcher, which proposes on every miss. With
    /// no prefetcher there is nothing to observe. For the stride
    /// prefetcher, the entry of the accumulator site was last written
    /// either by the previous iteration's store (stride 0, confidence 0)
    /// or by this iteration's weight load, which installs a fresh entry
    /// if it evicts that store's, or else (same site) leaves confidence 0
    /// because a stride-0 entry never gains confidence. So the load
    /// reaches confidence at most 1 and proposes nothing, and the store
    /// right after it rewrites the whole entry.
    #[inline]
    pub(crate) fn acc_loads_idle(&self) -> bool {
        !matches!(self, Prefetcher::NextLine(_))
    }

    /// Whether load sites `a` and `b` have stride entries of their own:
    /// the prefetcher is the stride prefetcher and their table indices
    /// differ. Then observing one site neither reads nor writes the
    /// other's entry.
    #[inline]
    pub(crate) fn separate_entries(&self, a: u64, b: u64) -> bool {
        matches!(self, Prefetcher::Stride(p) if (a ^ b) & p.mask != 0)
    }

    /// A copy of the stride entry of load site `pc`, to observe a
    /// stream of that site's accesses on (see [`LocalEntry`]); `None`
    /// unless this is the stride prefetcher.
    #[inline]
    pub(crate) fn local(&self, pc: u64) -> Option<LocalEntry> {
        match self {
            Prefetcher::Stride(p) => {
                let idx = (pc & p.mask) as usize;
                Some(LocalEntry {
                    idx,
                    entry: p.table[idx],
                    degree: p.degree,
                })
            }
            Prefetcher::None | Prefetcher::NextLine(_) => None,
        }
    }

    /// Writes `local` back to the entry it was copied from.
    #[inline]
    pub(crate) fn write_back(&mut self, local: LocalEntry) {
        if let Prefetcher::Stride(p) = self {
            p.table[local.idx] = local.entry;
        }
    }
}

/// A copy of one stride-table entry, taken by [`Prefetcher::local`]:
/// observing it proposes what [`Prefetcher::observe`] would, and leaves
/// the copy as `observe` would leave the entry. It stands in for the
/// entry while nothing else reads or writes that entry; one
/// [`Prefetcher::write_back`] then brings the table up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LocalEntry {
    idx: usize,
    entry: StrideEntry,
    degree: usize,
}

impl LocalEntry {
    /// [`StridePrefetcher::observe`] of an access to `addr` from `pc`,
    /// on the copy.
    #[inline]
    pub(crate) fn observe(&mut self, pc: u64, addr: u64) -> ([u64; 2], usize) {
        self.entry.observe(pc, addr, self.degree)
    }
}

/// Trivial next-line prefetcher.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NextLinePrefetcher {
    line_bytes: u64,
}

impl NextLinePrefetcher {
    /// Creates the prefetcher for a given line size.
    pub fn new(line_bytes: usize) -> Self {
        NextLinePrefetcher {
            line_bytes: line_bytes as u64,
        }
    }

    /// Proposes the line after `addr`'s on a miss, unless that line
    /// would lie past the end of the address space.
    #[inline]
    pub fn observe(&mut self, addr: u64, miss: bool) -> ([u64; 2], usize) {
        match (addr & !(self.line_bytes - 1)).checked_add(self.line_bytes) {
            Some(next) if miss => ([next, 0], 1),
            _ => ([0; 2], 0),
        }
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StrideEntry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

impl StrideEntry {
    /// See [`StridePrefetcher::observe`]: the entry of `pc`'s slot
    /// observes an access to `addr` at prefetch degree `degree`.
    #[inline]
    fn observe(&mut self, pc: u64, addr: u64, degree: usize) -> ([u64; 2], usize) {
        if !self.valid || self.pc != pc {
            *self = StrideEntry {
                pc,
                last_addr: addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return ([0; 2], 0);
        }
        let stride = addr.wrapping_sub(self.last_addr) as i64;
        if stride == self.stride && stride != 0 {
            self.confidence = (self.confidence + 1).min(3);
        } else {
            self.stride = stride;
            self.confidence = 0;
        }
        self.last_addr = addr;
        if self.confidence < 2 {
            return ([0; 2], 0);
        }
        let mut targets = ([0; 2], 0);
        for d in 1..=degree {
            let target = addr as i128 + stride as i128 * d as i128;
            if (0..=i64::MAX as i128).contains(&target) {
                targets.0[targets.1] = target as u64;
                targets.1 += 1;
            }
        }
        targets
    }
}

/// IP-stride prefetcher: learns a per-load-site stride and, once confident,
/// prefetches `degree` strides ahead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StridePrefetcher {
    table: Vec<StrideEntry>,
    mask: u64,
    degree: usize,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with `2^index_bits` tracking entries and
    /// the given prefetch degree.
    ///
    /// # Panics
    ///
    /// Panics when `index_bits` is outside `1..=24` (the range the branch
    /// predictors accept) or `degree` is outside `1..=2`.
    pub fn new(index_bits: u32, degree: usize) -> Self {
        assert!(
            (1..=24).contains(&index_bits),
            "stride prefetcher index bits must be in 1..=24, got {index_bits}"
        );
        assert!(
            (1..=2).contains(&degree),
            "stride prefetcher degree must be 1 or 2, got {degree}"
        );
        let size = 1usize << index_bits;
        StridePrefetcher {
            table: vec![StrideEntry::default(); size],
            mask: (size - 1) as u64,
            degree,
        }
    }

    /// Observes a demand access from load site `pc` and proposes up to
    /// `degree` addresses one stride apart once the site's stride has
    /// repeated twice. The stride is the wrapping difference of the two
    /// addresses read as signed; targets outside `0..=i64::MAX` are
    /// dropped.
    #[inline]
    pub fn observe(&mut self, pc: u64, addr: u64) -> ([u64; 2], usize) {
        let idx = (pc & self.mask) as usize;
        self.table[idx].observe(pc, addr, self.degree)
    }

    /// See [`Prefetcher::steady`]: the entry of `pc` holds `stride`, its
    /// last address is one stride before `addr`, and it is confident.
    #[inline]
    fn steady(&self, pc: u64, addr: u64, stride: i64) -> Option<usize> {
        let e = &self.table[(pc & self.mask) as usize];
        let follows = e.valid
            && e.pc == pc
            && e.stride == stride
            && e.last_addr.wrapping_add_signed(stride) == addr
            && e.confidence >= 2;
        follows.then_some(self.degree)
    }

    /// See [`Prefetcher::observe_repeat`].
    #[inline]
    fn observe_repeat(&mut self, pc: u64, addr: u64) {
        self.table[(pc & self.mask) as usize] = StrideEntry {
            pc,
            last_addr: addr,
            stride: 0,
            confidence: 0,
            valid: true,
        };
    }

    /// See [`Prefetcher::advance`]: each steady access moves the entry's
    /// last address on and raises its confidence by one, up to 3. It was
    /// at least 2, so after one access or more it is 3.
    #[inline]
    fn advance(&mut self, pc: u64, last_addr: u64) {
        let e = &mut self.table[(pc & self.mask) as usize];
        e.last_addr = last_addr;
        e.confidence = 3;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets((addrs, n): ([u64; 2], usize)) -> Vec<u64> {
        addrs[..n].to_vec()
    }

    #[test]
    fn next_line_on_miss_only() {
        let mut p = NextLinePrefetcher::new(64);
        assert_eq!(targets(p.observe(100, false)), Vec::<u64>::new());
        assert_eq!(targets(p.observe(100, true)), vec![128]);
    }

    #[test]
    fn stride_learns_sequential() {
        let mut p = StridePrefetcher::new(4, 2);
        let pc = 0x40;
        // Accesses with stride 64: needs 3 observations to gain confidence.
        assert!(targets(p.observe(pc, 0)).is_empty());
        assert!(targets(p.observe(pc, 64)).is_empty());
        assert!(targets(p.observe(pc, 128)).is_empty());
        assert_eq!(targets(p.observe(pc, 192)), vec![256, 320]);
    }

    #[test]
    fn stride_resets_on_pattern_change() {
        let mut p = StridePrefetcher::new(4, 1);
        let pc = 0x40;
        let issued: usize = (0..5u64).map(|i| p.observe(pc, i * 64).1).sum();
        assert!(issued > 0);
        // Random jumps: confidence collapses, no more prefetches.
        assert!(targets(p.observe(pc, 10_000)).is_empty());
        assert!(targets(p.observe(pc, 3)).is_empty());
    }

    #[test]
    fn stride_zero_never_prefetches() {
        let mut p = StridePrefetcher::new(4, 2);
        for _ in 0..10 {
            assert!(targets(p.observe(0x40, 512)).is_empty());
        }
    }

    #[test]
    fn stride_drops_negative_targets() {
        let mut p = StridePrefetcher::new(4, 2);
        for addr in [320, 256, 192] {
            p.observe(0x40, addr);
        }
        assert_eq!(targets(p.observe(0x40, 128)), vec![64, 0]);
        assert_eq!(targets(p.observe(0x40, 64)), vec![0]);
    }

    #[test]
    fn next_line_drops_the_line_past_the_address_space() {
        let mut p = NextLinePrefetcher::new(64);
        assert_eq!(targets(p.observe(u64::MAX - 3, true)), Vec::<u64>::new());
        assert_eq!(targets(p.observe(u64::MAX - 64, true)), vec![u64::MAX - 63]);
    }

    #[test]
    fn stride_is_a_wrapping_difference() {
        let mut p = StridePrefetcher::new(4, 2);
        // A jump from 1 to 2^63 is a stride of i64::MAX.
        assert!(targets(p.observe(0x40, 1)).is_empty());
        assert!(targets(p.observe(0x40, 1 << 63)).is_empty());
        // From u64::MAX - 63 to 0 is a stride of +64 across the wrap.
        let mut p = StridePrefetcher::new(4, 2);
        for addr in [u64::MAX - 191, u64::MAX - 127, u64::MAX - 63] {
            assert!(targets(p.observe(0x40, addr)).is_empty());
        }
        assert_eq!(targets(p.observe(0x40, 0)), vec![64, 128]);
    }

    #[test]
    fn stride_drops_targets_past_i64_max() {
        let mut p = StridePrefetcher::new(4, 2);
        let top = i64::MAX as u64;
        for addr in [top - 320, top - 256, top - 192] {
            p.observe(0x40, addr);
        }
        assert_eq!(targets(p.observe(0x40, top - 128)), vec![top - 64, top]);
        assert_eq!(targets(p.observe(0x40, top - 64)), vec![top]);
        assert!(targets(p.observe(0x40, top)).is_empty());
        // Above 2^63 every forward target is out of range.
        let mut p = StridePrefetcher::new(4, 2);
        for i in 0..6u64 {
            assert!(targets(p.observe(0x40, (1 << 63) + 64 * i)).is_empty());
        }
    }

    #[test]
    fn steady_holds_only_on_a_confident_matching_stream() {
        let mut p = Prefetcher::new(PrefetcherKind::Stride, 64);
        assert_eq!(p.steady(0x40, 0, 64), None, "untrained");
        for i in 0..3u64 {
            p.observe(0x40, i * 64, false);
        }
        assert_eq!(p.steady(0x40, 192, 64), None, "confidence 1");
        p.observe(0x40, 192, false);
        assert_eq!(p.steady(0x40, 256, 64), Some(2));
        assert_eq!(p.steady(0x40, 320, 64), None, "gap in the stream");
        assert_eq!(p.steady(0x40, 224, 32), None, "another stride");
        assert_eq!(p.steady(0x41, 256, 64), None, "another load site");
        for kind in [PrefetcherKind::None, PrefetcherKind::NextLine] {
            assert_eq!(Prefetcher::new(kind, 64).steady(0x40, 0, 4), Some(0));
        }
    }

    #[test]
    fn advance_matches_observing_each_access() {
        let mut stepped = Prefetcher::new(PrefetcherKind::Stride, 64);
        for i in 0..4u64 {
            stepped.observe(0x40, i * 64, false);
        }
        let mut advanced = stepped.clone();
        assert_eq!(advanced.steady(0x40, 4 * 64, 64), Some(2));
        for i in 4..10u64 {
            stepped.observe(0x40, i * 64, false);
        }
        advanced.advance(0x40, 9 * 64);
        assert_eq!(advanced, stepped);
    }

    #[test]
    fn a_local_entry_observes_as_the_table_does() {
        let mut table = Prefetcher::new(PrefetcherKind::Stride, 64);
        table.observe(0x40, 4096, false);
        let mut copied = table.clone();
        // A site of its own, then one aliasing it (same slot, another
        // pc): each observes a copy, written back once.
        for pc in [0x40, 0x140] {
            let mut local = copied.local(pc).expect("a stride entry");
            for i in 0..7u64 {
                let addr = 4096 + 100 * i;
                assert_eq!(local.observe(pc, addr), table.observe(pc, addr, false));
            }
            copied.write_back(local);
            assert_eq!(copied, table, "pc {pc:#x}");
        }
        for kind in [PrefetcherKind::None, PrefetcherKind::NextLine] {
            assert!(Prefetcher::new(kind, 64).local(0x40).is_none());
        }
    }

    #[test]
    fn distinct_pcs_tracked_separately() {
        let mut p = StridePrefetcher::new(4, 1);
        for i in 0..4u64 {
            p.observe(0x40, i * 64);
            p.observe(0x41, i * 128);
        }
        assert_eq!(targets(p.observe(0x40, 4 * 64)), vec![5 * 64]);
        assert_eq!(targets(p.observe(0x41, 4 * 128)), vec![5 * 128]);
    }

    #[test]
    fn enum_dispatches_to_the_kind() {
        let mut none = Prefetcher::new(PrefetcherKind::None, 64);
        assert_eq!(targets(none.observe(0x40, 100, true)), Vec::<u64>::new());
        let mut next = Prefetcher::new(PrefetcherKind::NextLine, 64);
        assert_eq!(targets(next.observe(0x40, 100, true)), vec![128]);
        let mut stride = Prefetcher::new(PrefetcherKind::Stride, 64);
        for i in 0..3u64 {
            stride.observe(0x40, i * 64, false);
        }
        assert_eq!(targets(stride.observe(0x40, 192, false)), vec![256, 320]);
    }

    #[test]
    #[should_panic(expected = "index bits")]
    fn stride_rejects_zero_index_bits() {
        StridePrefetcher::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "index bits")]
    fn stride_rejects_index_bits_that_overflow_the_shift() {
        StridePrefetcher::new(64, 2);
    }

    #[test]
    #[should_panic(expected = "index bits")]
    fn stride_rejects_index_bits_above_24() {
        StridePrefetcher::new(25, 2);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn stride_rejects_zero_degree() {
        StridePrefetcher::new(8, 0);
    }

    #[test]
    #[should_panic(expected = "degree")]
    fn stride_rejects_degree_beyond_the_target_array() {
        StridePrefetcher::new(8, 3);
    }
}
