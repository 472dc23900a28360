//! A single set-associative cache with pluggable replacement policy.

use std::error::Error;
use std::fmt;

/// Replacement policy for a cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Evict the least recently used line (true LRU).
    #[default]
    Lru,
    /// Evict the oldest-filled line regardless of use.
    Fifo,
    /// Tree pseudo-LRU (as implemented by most real L1s).
    TreePlru,
    /// Evict a deterministic pseudo-random line (xorshift over an internal
    /// seed, so simulations stay reproducible).
    Random,
}

impl ReplacementPolicy {
    /// Every policy, in the order used by config files and error
    /// messages.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Random,
    ];

    /// The stable config-file name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Fifo => "fifo",
            ReplacementPolicy::TreePlru => "tree-plru",
            ReplacementPolicy::Random => "random",
        }
    }

    /// Looks a policy up by its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// How stores interact with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Write-back with write-allocate: stores fill the line and dirty it;
    /// dirty victims are written back on eviction (the policy of every
    /// level of a modern x86 data hierarchy).
    #[default]
    WriteBackAllocate,
    /// Write-through with no-write-allocate: stores that miss go straight
    /// to the next level without filling; hits update in place and
    /// propagate. Simpler embedded caches use this.
    WriteThroughNoAllocate,
}

impl WritePolicy {
    /// Every write policy, in config-file order.
    pub const ALL: [WritePolicy; 2] = [
        WritePolicy::WriteBackAllocate,
        WritePolicy::WriteThroughNoAllocate,
    ];

    /// The stable config-file name of this write policy.
    pub fn name(self) -> &'static str {
        match self {
            WritePolicy::WriteBackAllocate => "write-back-allocate",
            WritePolicy::WriteThroughNoAllocate => "write-through-no-allocate",
        }
    }

    /// Looks a write policy up by its [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Widest associativity the simulator models: a set's valid bits, dirty
/// bits and tree-PLRU state each live in one `u64`.
pub const MAX_ASSOCIATIVITY: usize = 64;

/// Largest capacity a cache may declare (1 GiB).
pub const MAX_CACHE_BYTES: usize = 1 << 30;

/// Most lines a cache may hold (1 GiB of 64-byte lines). The tag and
/// stamp arrays are allocated up front, so this bounds their size even
/// for tiny line sizes.
pub const MAX_CACHE_LINES: usize = 1 << 24;

/// Geometry and behaviour of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub associativity: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Replacement policy.
    pub policy: ReplacementPolicy,
    /// Store handling.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// Creates a config with LRU replacement.
    pub fn new(size_bytes: usize, associativity: usize, line_bytes: usize) -> Self {
        CacheConfig {
            size_bytes,
            associativity,
            line_bytes,
            policy: ReplacementPolicy::Lru,
            write_policy: WritePolicy::WriteBackAllocate,
        }
    }

    /// Returns the same config with a different replacement policy.
    pub fn with_policy(mut self, policy: ReplacementPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns the same config with a different write policy.
    pub fn with_write_policy(mut self, write_policy: WritePolicy) -> Self {
        self.write_policy = write_policy;
        self
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.associativity * self.line_bytes)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when sizes are zero, not powers of two
    /// where required, inconsistent, or beyond the simulator's bounds
    /// ([`MAX_ASSOCIATIVITY`], [`MAX_CACHE_BYTES`], [`MAX_CACHE_LINES`]).
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.size_bytes == 0 || self.associativity == 0 || self.line_bytes == 0 {
            return Err(CacheConfigError::Zero);
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(CacheConfigError::LineNotPowerOfTwo(self.line_bytes));
        }
        if self.associativity > MAX_ASSOCIATIVITY {
            return Err(CacheConfigError::TooManyWays(self.associativity));
        }
        if self.size_bytes > MAX_CACHE_BYTES || self.size_bytes / self.line_bytes > MAX_CACHE_LINES
        {
            return Err(CacheConfigError::TooLarge {
                size: self.size_bytes,
                line: self.line_bytes,
            });
        }
        let indivisible = self
            .associativity
            .checked_mul(self.line_bytes)
            .is_none_or(|way_bytes| !self.size_bytes.is_multiple_of(way_bytes));
        if indivisible {
            return Err(CacheConfigError::Indivisible {
                size: self.size_bytes,
                assoc: self.associativity,
                line: self.line_bytes,
            });
        }
        if !self.num_sets().is_power_of_two() {
            return Err(CacheConfigError::SetsNotPowerOfTwo(self.num_sets()));
        }
        Ok(())
    }
}

/// Error describing an invalid [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// Some field is zero.
    Zero,
    /// Line size is not a power of two.
    LineNotPowerOfTwo(usize),
    /// Associativity above [`MAX_ASSOCIATIVITY`].
    TooManyWays(usize),
    /// Capacity above [`MAX_CACHE_BYTES`], or more than
    /// [`MAX_CACHE_LINES`] lines.
    TooLarge {
        /// Total capacity.
        size: usize,
        /// Line size.
        line: usize,
    },
    /// Capacity is not divisible by way size.
    Indivisible {
        /// Total capacity.
        size: usize,
        /// Associativity.
        assoc: usize,
        /// Line size.
        line: usize,
    },
    /// The derived set count is not a power of two (index bits undefined).
    SetsNotPowerOfTwo(usize),
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::Zero => write!(f, "cache geometry fields must be non-zero"),
            CacheConfigError::LineNotPowerOfTwo(l) => {
                write!(f, "line size {l} is not a power of two")
            }
            CacheConfigError::TooManyWays(a) => {
                write!(
                    f,
                    "assoc {a} exceeds the maximum of {MAX_ASSOCIATIVITY} ways"
                )
            }
            CacheConfigError::TooLarge { size, line } => write!(
                f,
                "size_bytes {size} exceeds the maximum of {MAX_CACHE_BYTES} bytes \
                 and {MAX_CACHE_LINES} lines ({line}-byte lines)"
            ),
            CacheConfigError::Indivisible { size, assoc, line } => write!(
                f,
                "capacity {size} not divisible by associativity {assoc} × line {line}"
            ),
            CacheConfigError::SetsNotPowerOfTwo(s) => {
                write!(f, "derived set count {s} is not a power of two")
            }
        }
    }
}

impl Error for CacheConfigError {}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already present.
    pub hit: bool,
    /// Address of a dirty line that was evicted to make room, if any
    /// (aligned to the line base).
    pub writeback: Option<u64>,
}

/// Running statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses (loads + stores + fills routed through `access`).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Lines evicted (clean or dirty).
    pub evictions: u64,
    /// Dirty evictions (writebacks).
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; `0.0` when no accesses happened.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One set-associative cache level.
///
/// Addresses are byte-granular; the cache derives line/set/tag with shifts
/// from the configured geometry.
///
/// Storage is flat and set-major: way `w` of set `s` lives at index
/// `s * ways + w` of `tags` and `stamps`, and each set keeps its valid and
/// dirty bits in one `u64` each. A lookup scans one contiguous tag row, and
/// [`flush`](Self::flush) clears only the per-set words.
///
/// [`access`](Self::access) is split into an inlined hit path and an
/// out-of-line miss path, and it remembers where the line of the latest
/// access lives, so a repeat access to that line skips the tag scan;
/// the crate's hinted access skips it when the caller's guess of the
/// line's way holds.
///
/// Two caches compare equal when every bit of their state does, stamps
/// and memos included.
///
/// # Examples
///
/// ```
/// use scnn_uarch::cache::{Cache, CacheConfig};
///
/// # fn main() -> Result<(), scnn_uarch::cache::CacheConfigError> {
/// let mut c = Cache::new(CacheConfig::new(32 * 1024, 8, 64))?;
/// assert!(!c.access(0x1000, false).hit); // cold miss
/// assert!(c.access(0x1000, false).hit);  // now resident
/// assert_eq!(c.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    config: CacheConfig,
    /// Line tags, set-major. Meaningful only where the valid bit is set.
    tags: Vec<u64>,
    /// LRU timestamp or FIFO fill order per line, depending on policy.
    stamps: Vec<u64>,
    /// Valid bits, one word per set (bit `w` = way `w`).
    valid: Vec<u64>,
    /// Dirty bits, one word per set.
    dirty: Vec<u64>,
    /// PLRU tree bits, one word per set; written only under tree-PLRU.
    plru: Vec<u64>,
    /// Misses, evictions and writebacks only; [`stats`](Self::stats)
    /// derives the accesses and hits.
    stats: CacheStats,
    clock: u64,
    /// `clock` at the last [`reset_stats`](Self::reset_stats).
    reset_clock: u64,
    ways: usize,
    /// The low `ways` bits set.
    way_mask: u64,
    line_shift: u32,
    set_bits: u32,
    set_mask: u64,
    rng_state: u64,
    /// Every policy but FIFO refreshes the stamp on a hit.
    refresh_on_hit: bool,
    /// [`WritePolicy::WriteThroughNoAllocate`].
    write_through: bool,
    /// [`ReplacementPolicy::TreePlru`].
    tree_plru: bool,
    /// Line address of the latest access that left its line resident.
    /// Valid only while `last_idx` is not [`NO_MEMO`].
    last_line: u64,
    /// Flat index (`set * ways + way`) of `last_line`, or [`NO_MEMO`].
    last_idx: usize,
}

/// `last_idx` of a cache or TLB that remembers no line. Cleared memos also
/// set the remembered line or page to `u64::MAX`; the index is what makes
/// them exact, because with 1-byte lines `u64::MAX` is a line address too.
pub(crate) const NO_MEMO: usize = usize::MAX;

/// How many of the first `n` elements of the run `addr`, `addr + stride`,
/// … lie in `addr`'s aligned block of `1 << shift` bytes. Counted with
/// exact arithmetic: inside one block the run cannot wrap.
#[inline]
pub(crate) fn run_in_block(addr: u64, stride: i64, n: u64, shift: u32) -> u64 {
    let offset = addr & ((1u64 << shift) - 1);
    let room = match stride.cmp(&0) {
        std::cmp::Ordering::Equal => return n,
        std::cmp::Ordering::Greater => div(((1u64 << shift) - 1) - offset, stride as u64),
        std::cmp::Ordering::Less => div(offset, stride.unsigned_abs()),
    };
    n.min(room + 1)
}

/// `x / d` for `d > 0`, by a shift when `d` is a power of two, as the
/// strides of element-wise walks are.
#[inline]
fn div(x: u64, d: u64) -> u64 {
    if d.is_power_of_two() {
        x >> d.trailing_zeros()
    } else {
        x / d
    }
}

/// The leading accesses of a run that hit without a miss, as
/// [`Cache::hit_span`] finds them: some on the remembered line, then
/// some on one more resident line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HitSpan {
    /// Accesses on the remembered line.
    pub(crate) memo: u64,
    /// Accesses right after them on the line at `next_idx`.
    pub(crate) next: u64,
    /// Flat index of that line; meaningful only when `next > 0`.
    pub(crate) next_idx: usize,
}

impl HitSpan {
    /// All the accesses of the span.
    #[inline]
    pub(crate) fn len(&self) -> u64 {
        self.memo + self.next
    }
}

impl Cache {
    /// Builds a cache from a validated config.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when the geometry is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        config.validate()?;
        let sets = config.num_sets();
        let ways = config.associativity;
        Ok(Cache {
            config,
            tags: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            plru: vec![0; sets],
            stats: CacheStats::default(),
            clock: 0,
            reset_clock: 0,
            ways,
            way_mask: u64::MAX >> (64 - ways),
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            refresh_on_hit: config.policy != ReplacementPolicy::Fifo,
            write_through: config.write_policy == WritePolicy::WriteThroughNoAllocate,
            tree_plru: config.policy == ReplacementPolicy::TreePlru,
            last_line: u64::MAX,
            last_idx: NO_MEMO,
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Running statistics. Each access advances the clock by one, so the
    /// accesses are its advance since the last reset; the rest hit.
    pub fn stats(&self) -> CacheStats {
        let accesses = self.clock - self.reset_clock;
        CacheStats {
            accesses,
            hits: accesses - self.stats.misses,
            ..self.stats
        }
    }

    /// Accesses `addr`; `write` marks the line dirty under write-back.
    /// Fills on miss, except for write misses under
    /// [`WritePolicy::WriteThroughNoAllocate`].
    ///
    /// A hit on the line of the previous access reuses its index without
    /// a tag scan and skips the tree-PLRU update, which touching the same
    /// way again would leave unchanged.
    #[inline(always)]
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let base = set * self.ways;
        let idx = if line_addr == self.last_line && self.last_idx != NO_MEMO {
            self.last_idx
        } else {
            let Some(way) = self.find(set, line_addr >> self.set_bits) else {
                return self.miss(line_addr, write);
            };
            self.touch_plru(set, way);
            self.last_line = line_addr;
            self.last_idx = base + way;
            base + way
        };
        self.hit(set, idx - base, line_addr, write)
    }

    /// [`access`](Self::access), trying `hint` first: a flat index
    /// (`set * ways + way`) where an earlier access found a line. The
    /// hint counts only when it is a way of `addr`'s set whose line is
    /// valid and holds `addr`'s tag. A set never holds a tag twice (a
    /// line is filled only after a lookup missed it), so that way is the
    /// one the tag scan would return, and the hit is applied exactly as
    /// `access` applies it: clock, tree-PLRU touch unless it is the
    /// remembered line, memo, stamp and dirty bit. Otherwise the access
    /// takes the usual path and `hint` becomes the index it left the
    /// line at. Any value is a safe hint; a wrong one costs only the
    /// check.
    ///
    /// With `store_after`, a store to `addr` right after the access (a
    /// load) is applied in the same lookup: the load leaves its line
    /// remembered (a read that misses fills), so the store is a memo hit
    /// on it, which ticks the clock, takes the stamp to the new clock
    /// where hits refresh it and sets the dirty bit under write-back.
    /// Returns the first access's outcome.
    #[inline(always)]
    pub(crate) fn access_hinted(
        &mut self,
        addr: u64,
        write: bool,
        store_after: bool,
        hint: &mut usize,
    ) -> AccessOutcome {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let idx = *hint;
        let way = idx.wrapping_sub(set * self.ways);
        if way < self.ways
            && self.valid[set] >> way & 1 != 0
            && self.tags[idx] == line_addr >> self.set_bits
        {
            self.clock += 1 + u64::from(store_after);
            // The remembered line is resident at `last_idx` and nowhere
            // else, so the same index means the same line.
            if idx != self.last_idx {
                self.touch_plru(set, way);
                self.last_line = line_addr;
                self.last_idx = idx;
            }
            if store_after && !self.write_through {
                self.dirty[set] |= 1 << way;
            }
            return self.hit(set, way, line_addr, write);
        }
        let outcome = self.access(addr, write);
        if store_after {
            self.repeat_memo_hits(1, true);
        }
        *hint = self.last_idx;
        outcome
    }

    /// The rest of a hit on `way` of `set`, whose clock tick, tree-PLRU
    /// touch and memo the caller has made: the stamp and dirty bit.
    #[inline(always)]
    fn hit(&mut self, set: usize, way: usize, line_addr: u64, write: bool) -> AccessOutcome {
        if self.refresh_on_hit {
            self.stamps[set * self.ways + way] = self.clock;
        }
        // Write-through lines are never dirty: the store is forwarded to
        // the next level immediately.
        if write && !self.write_through {
            self.dirty[set] |= 1 << way;
        }
        AccessOutcome {
            hit: true,
            writeback: (write && self.write_through).then_some(line_addr << self.line_shift),
        }
    }

    /// How many leading accesses of the run `addr`, `addr + stride`, …
    /// (at most `n`) fall on the remembered line, and so would hit it
    /// without a tag scan; 0 when no line is remembered or `addr` lies
    /// elsewhere.
    #[inline]
    pub(crate) fn memo_run(&self, addr: u64, stride: i64, n: u64) -> u64 {
        if addr >> self.line_shift != self.last_line || self.last_idx == NO_MEMO {
            return 0;
        }
        run_in_block(addr, stride, n, self.line_shift)
    }

    /// Applies `k` hits on the remembered line, as `k` calls of
    /// [`access`](Self::access) on it would: the clock advances by `k`,
    /// the stamp takes the final clock where hits refresh it, and
    /// a write-back store sets the dirty bit. Tree-PLRU bits stay as
    /// they are, as on any memo hit. Call only within a
    /// [`memo_run`](Self::memo_run).
    #[inline]
    pub(crate) fn repeat_memo_hits(&mut self, k: u64, write: bool) {
        debug_assert_ne!(self.last_idx, NO_MEMO, "no remembered line");
        self.clock += k;
        if self.refresh_on_hit {
            self.stamps[self.last_idx] = self.clock;
        }
        if write && !self.write_through {
            self.dirty[self.last_idx / self.ways] |= 1 << (self.last_idx % self.ways);
        }
    }

    /// How many leading accesses of the run `addr`, `addr + stride`, …
    /// (at most `n`) would hit: those on the remembered line (see
    /// [`memo_run`](Self::memo_run)), then, when that line does not take
    /// all `n`, those on the line the run enters next if a lookup finds
    /// it resident. Changes nothing.
    #[inline]
    pub(crate) fn hit_span(&self, addr: u64, stride: i64, n: u64) -> HitSpan {
        let memo = self.memo_run(addr, stride, n);
        let mut span = HitSpan {
            memo,
            next: 0,
            next_idx: NO_MEMO,
        };
        if memo == 0 || memo == n {
            return span;
        }
        let next = addr.wrapping_add_signed(stride.wrapping_mul(memo as i64));
        let line_addr = next >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        if let Some(way) = self.find(set, line_addr >> self.set_bits) {
            span.next = run_in_block(next, stride, n - memo, self.line_shift);
            span.next_idx = set * self.ways + way;
        }
        span
    }

    /// Reads `targets` in order, as that many calls of
    /// [`access`](Self::access)`(target, false)` would: each read leaves
    /// its line remembered (a read that misses fills), so the targets
    /// right after it on the same line are applied as memo hits.
    #[inline]
    pub(crate) fn read_all(&mut self, targets: &[u64]) {
        let mut rest = targets;
        while let [first, tail @ ..] = rest {
            self.access(*first, false);
            let line = first >> self.line_shift;
            let same = tail
                .iter()
                .take_while(|&&t| t >> self.line_shift == line)
                .count();
            if same > 0 {
                self.repeat_memo_hits(same as u64, false);
            }
            rest = &tail[same..];
        }
    }

    /// Applies `k ≥ 1` read hits on the resident line at flat index
    /// `idx`, which is not the remembered line, as `k` calls of
    /// [`access`](Self::access) on it would: the first touches the
    /// tree-PLRU bits and makes it the remembered line, the rest are
    /// memo hits; the clock advances by `k` and the stamp takes the
    /// final clock where hits refresh it. `idx` comes from a
    /// [`hit_span`](Self::hit_span) of the current state.
    #[inline]
    pub(crate) fn repeat_hits_at(&mut self, idx: usize, k: u64) {
        debug_assert_ne!(idx, self.last_idx, "the remembered line");
        let set = idx / self.ways;
        debug_assert!(self.valid[set] >> (idx % self.ways) & 1 != 0, "no line");
        self.touch_plru(set, idx % self.ways);
        self.last_line = (self.tags[idx] << self.set_bits) | set as u64;
        self.last_idx = idx;
        self.repeat_memo_hits(k, false);
    }

    /// The clock and the stored counts (misses, evictions, writebacks),
    /// which accesses advance: a mark for
    /// [`repeat_since`](Self::repeat_since).
    #[inline]
    pub(crate) fn tally(&self) -> (u64, CacheStats) {
        (self.clock, self.stats)
    }

    /// Advances the clock and each stored count by `times` × its advance
    /// since `since`, a [`tally`](Self::tally) of this cache: what
    /// `times` more repeats of the accesses since then add to them.
    /// Stamps stay as they are.
    pub(crate) fn repeat_since(&mut self, since: (u64, CacheStats), times: u64) {
        let grow = |now: u64, then: u64| now + times * (now - then);
        let (clock, stats) = since;
        self.clock = grow(self.clock, clock);
        self.stats.misses = grow(self.stats.misses, stats.misses);
        self.stats.evictions = grow(self.stats.evictions, stats.evictions);
        self.stats.writebacks = grow(self.stats.writebacks, stats.writebacks);
    }

    /// Whether this cache is `earlier`, a copy of it, but for clock,
    /// counts and stamp values: the same tags, valid, dirty and
    /// tree-PLRU bits, memo and random-replacement state, and, where
    /// stamps choose victims (LRU and FIFO), the valid lines of each set
    /// in the same order of stamp (ties broken by way, as
    /// `choose_victim` breaks them). From two such states the same
    /// accesses hit, miss and evict alike.
    pub(crate) fn same_shape(&self, earlier: &Cache) -> bool {
        let same = self.tags == earlier.tags
            && self.valid == earlier.valid
            && self.dirty == earlier.dirty
            && self.plru == earlier.plru
            && (self.last_line, self.last_idx) == (earlier.last_line, earlier.last_idx)
            && self.rng_state == earlier.rng_state;
        if !same
            || !matches!(
                self.config.policy,
                ReplacementPolicy::Lru | ReplacementPolicy::Fifo
            )
        {
            return same;
        }
        let mut order = [0usize; MAX_ASSOCIATIVITY];
        self.valid.iter().enumerate().all(|(set, &valid)| {
            let base = set * self.ways;
            let key = |stamps: &[u64], way: usize| (stamps[base + way], way);
            let mut n = 0;
            for way in (0..self.ways).filter(|&way| valid >> way & 1 != 0) {
                order[n] = way;
                n += 1;
            }
            let order = &mut order[..n];
            order.sort_unstable_by_key(|&way| key(&earlier.stamps, way));
            order
                .windows(2)
                .all(|pair| key(&self.stamps, pair[0]) < key(&self.stamps, pair[1]))
        })
    }

    /// The rest of an access that missed: the write-through bypass, or a
    /// victim choice, writeback and fill.
    #[inline(never)]
    fn miss(&mut self, line_addr: u64, write: bool) -> AccessOutcome {
        self.stats.misses += 1;

        // No-write-allocate: a write miss bypasses the cache entirely and
        // the store goes straight down (reported via `writeback`). Nothing
        // is evicted, so the remembered line stays resident.
        if write && self.write_through {
            return AccessOutcome {
                hit: false,
                writeback: Some(line_addr << self.line_shift),
            };
        }

        // Choose a victim and fill.
        let set = (line_addr & self.set_mask) as usize;
        let base = set * self.ways;
        let way = self.choose_victim(set);
        let bit = 1u64 << way;
        let mut writeback = None;
        if self.valid[set] & bit != 0 {
            self.stats.evictions += 1;
            if self.dirty[set] & bit != 0 {
                self.stats.writebacks += 1;
                let victim_line = (self.tags[base + way] << self.set_bits) | set as u64;
                writeback = Some(victim_line << self.line_shift);
            }
        }
        self.tags[base + way] = line_addr >> self.set_bits;
        self.stamps[base + way] = self.clock;
        self.valid[set] |= bit;
        // Only write-back caches get here on a write.
        if write {
            self.dirty[set] |= bit;
        } else {
            self.dirty[set] &= !bit;
        }
        self.touch_plru(set, way);
        self.last_line = line_addr;
        self.last_idx = base + way;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// The way of `set` holding `tag`, if resident.
    #[inline]
    fn find(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let valid = self.valid[set];
        self.tags[base..base + self.ways]
            .iter()
            .enumerate()
            .position(|(way, &t)| t == tag && valid >> way & 1 != 0)
    }

    /// Forgets the remembered line, before lines are invalidated.
    fn forget_last_line(&mut self) {
        self.last_line = u64::MAX;
        self.last_idx = NO_MEMO;
    }

    /// True when `addr`'s line is currently resident (does not perturb
    /// statistics or replacement state — an observer, used by tests and by
    /// the noise model).
    pub fn probe_resident(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        self.find(set, line_addr >> self.set_bits).is_some()
    }

    /// Invalidates every line (models a flush; dirty data is dropped).
    /// Clears the per-set bit words only; tags and stamps of invalid lines
    /// are never read.
    pub fn flush(&mut self) {
        self.forget_last_line();
        self.valid.fill(0);
        self.dirty.fill(0);
        if self.tree_plru {
            self.plru.fill(0);
        }
    }

    /// Invalidates a deterministic pseudo-random selection of roughly
    /// `fraction` of all lines — models cache pollution by a co-running
    /// process or a context switch.
    pub fn pollute(&mut self, fraction: f64, seed: u64) {
        self.forget_last_line();
        let fraction = fraction.clamp(0.0, 1.0);
        let threshold = (fraction * u32::MAX as f64) as u32;
        let mut state = seed | 1;
        for (valid, dirty) in self.valid.iter_mut().zip(&mut self.dirty) {
            // One draw per line, valid or not, in set-major order.
            for way in 0..self.ways {
                // xorshift64*
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let draw = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32;
                if draw < threshold {
                    *valid &= !(1 << way);
                    *dirty &= !(1 << way);
                }
            }
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.valid.iter().map(|v| v.count_ones() as usize).sum()
    }

    /// Resets statistics without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        self.reset_clock = self.clock;
    }

    fn choose_victim(&mut self, set: usize) -> usize {
        // Invalid way first, regardless of policy.
        let free = !self.valid[set] & self.way_mask;
        if free != 0 {
            return free.trailing_zeros() as usize;
        }
        match self.config.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                // For LRU the stamp is updated on every touch; for FIFO
                // only on fill — victim selection is identical.
                let base = set * self.ways;
                self.stamps[base..base + self.ways]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .map(|(w, _)| w)
                    .expect("associativity > 0 by validation")
            }
            ReplacementPolicy::Random => {
                self.rng_state ^= self.rng_state >> 12;
                self.rng_state ^= self.rng_state << 25;
                self.rng_state ^= self.rng_state >> 27;
                (self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) as usize) % self.ways
            }
            ReplacementPolicy::TreePlru => {
                // Walk the PLRU tree away from recently used halves.
                let bits = self.plru[set];
                let mut node = 0usize; // root at index 0 of implicit tree
                let mut lo = 0usize;
                let mut hi = self.ways;
                while hi - lo > 1 {
                    let bit = (bits >> node) & 1;
                    let mid = (lo + hi) / 2;
                    if bit == 0 {
                        // 0 means left half was recently used → go right.
                        node = 2 * node + 2;
                        lo = mid;
                    } else {
                        node = 2 * node + 1;
                        hi = mid;
                    }
                }
                lo
            }
        }
    }

    #[inline]
    fn touch_plru(&mut self, set: usize, way: usize) {
        if !self.tree_plru {
            return;
        }
        // With at most 64 ways the tree has at most 63 internal nodes,
        // all with index < 63.
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Used left half: set bit to 0 (left recently used).
                self.plru[set] &= !(1 << node);
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.plru[set] |= 1 << node;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }
}

/// Views of the replacement state, for the closed-form tests of the
/// crate.
#[cfg(test)]
impl Cache {
    /// Flat index of `addr`'s line, if resident.
    pub(crate) fn index_of(&self, addr: u64) -> Option<usize> {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let way = self.find(set, line_addr >> self.set_bits)?;
        Some(set * self.ways + way)
    }

    /// The stamp of `addr`'s line, if resident.
    pub(crate) fn stamp_of(&self, addr: u64) -> Option<u64> {
        self.index_of(addr).map(|idx| self.stamps[idx])
    }

    /// The tree-PLRU bits of `addr`'s set.
    pub(crate) fn plru_of(&self, addr: u64) -> u64 {
        self.plru[((addr >> self.line_shift) & self.set_mask) as usize]
    }

    /// Byte address of the remembered line, if any.
    pub(crate) fn memo_addr(&self) -> Option<u64> {
        (self.last_idx != NO_MEMO).then_some(self.last_line << self.line_shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lru() -> Cache {
        // 4 sets × 2 ways × 64 B = 512 B.
        Cache::new(CacheConfig::new(512, 2, 64)).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new(32 * 1024, 8, 64).validate().is_ok());
        assert!(matches!(
            CacheConfig::new(0, 8, 64).validate(),
            Err(CacheConfigError::Zero)
        ));
        assert!(matches!(
            CacheConfig::new(1024, 8, 48).validate(),
            Err(CacheConfigError::LineNotPowerOfTwo(48))
        ));
        assert!(matches!(
            CacheConfig::new(1000, 8, 64).validate(),
            Err(CacheConfigError::Indivisible { .. })
        ));
        // 3 sets → not a power of two.
        assert!(matches!(
            CacheConfig::new(3 * 2 * 64, 2, 64).validate(),
            Err(CacheConfigError::SetsNotPowerOfTwo(3))
        ));
    }

    #[test]
    fn config_validation_bounds_the_storage() {
        assert!(CacheConfig::new(64 * 64, 64, 64).validate().is_ok());
        assert_eq!(
            CacheConfig::new(128 * 64, 128, 64).validate(),
            Err(CacheConfigError::TooManyWays(128))
        );
        assert!(CacheConfig::new(MAX_CACHE_BYTES, 16, 64).validate().is_ok());
        assert_eq!(
            CacheConfig::new(1 << 40, 16, 64).validate(),
            Err(CacheConfigError::TooLarge {
                size: 1 << 40,
                line: 64
            })
        );
        // Within the byte bound but too many lines for the tag arrays.
        assert!(matches!(
            CacheConfig::new(MAX_CACHE_BYTES, 16, 8).validate(),
            Err(CacheConfigError::TooLarge { .. })
        ));
        // A way size that overflows `usize` is indivisible, not a panic.
        assert!(matches!(
            CacheConfig::new(1024, 64, 1 << 63).validate(),
            Err(CacheConfigError::Indivisible { .. })
        ));
        let msg = CacheConfigError::TooManyWays(128).to_string();
        assert!(msg.contains("assoc 128"), "{msg}");
    }

    #[test]
    fn cold_then_warm() {
        let mut c = small_lru();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(63, false).hit, "same line");
        assert!(!c.access(64, false).hit, "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small_lru();
        // Set 0 holds lines whose line-address ≡ 0 (mod 4): 0, 1024, 2048…
        c.access(0, false);
        c.access(1024, false);
        c.access(0, false); // refresh line 0 → LRU victim is 1024
        c.access(2048, false); // evicts 1024
        assert!(c.probe_resident(0));
        assert!(!c.probe_resident(1024));
        assert!(c.probe_resident(2048));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c =
            Cache::new(CacheConfig::new(512, 2, 64).with_policy(ReplacementPolicy::Fifo)).unwrap();
        c.access(0, false);
        c.access(1024, false);
        c.access(0, false); // touch must NOT refresh under FIFO
        c.access(2048, false); // evicts the oldest fill: line 0
        assert!(!c.probe_resident(0));
        assert!(c.probe_resident(1024));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = small_lru();
        c.access(0, true); // dirty
        c.access(1024, false);
        let out = c.access(2048, false); // evicts dirty line 0
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small_lru();
        c.access(0, false);
        c.access(1024, false);
        let out = c.access(2048, false);
        assert_eq!(out.writeback, None);
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn write_through_no_allocate() {
        let mut c = Cache::new(
            CacheConfig::new(512, 2, 64).with_write_policy(WritePolicy::WriteThroughNoAllocate),
        )
        .unwrap();
        // Write miss: bypasses the cache, store forwarded downstream.
        let out = c.access(0, true);
        assert!(!out.hit);
        assert_eq!(out.writeback, Some(0), "store forwarded");
        assert!(!c.probe_resident(0), "no-write-allocate must not fill");
        // Read miss still fills.
        c.access(0, false);
        assert!(c.probe_resident(0));
        // Write hit: updates in place and forwards; never dirties.
        let out = c.access(0, true);
        assert!(out.hit);
        assert_eq!(out.writeback, Some(0));
        // Evicting the line must not produce a (second) writeback.
        c.access(1024, false);
        let out = c.access(2048, false);
        assert_eq!(out.writeback, None, "write-through lines are clean");
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        let mut c = small_lru();
        for i in 0..1000u64 {
            c.access((i * 37) % 4096, i % 3 == 0);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
    }

    #[test]
    fn occupancy_bounded_by_capacity() {
        let mut c = small_lru();
        for i in 0..100u64 {
            c.access(i * 64, false);
        }
        assert!(c.occupancy() <= 8, "4 sets × 2 ways");
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn flush_empties() {
        let mut c = small_lru();
        c.access(0, true);
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe_resident(0));
    }

    #[test]
    fn pollute_removes_roughly_fraction() {
        let mut c = Cache::new(CacheConfig::new(64 * 1024, 8, 64)).unwrap();
        for i in 0..1024u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.occupancy(), 1024);
        c.pollute(0.5, 12345);
        let occ = c.occupancy();
        assert!(
            (300..=724).contains(&occ),
            "expected roughly half remaining, got {occ}"
        );
        // Deterministic per seed.
        let mut c2 = Cache::new(CacheConfig::new(64 * 1024, 8, 64)).unwrap();
        for i in 0..1024u64 {
            c2.access(i * 64, false);
        }
        c2.pollute(0.5, 12345);
        assert_eq!(occ, c2.occupancy());
    }

    #[test]
    fn plru_covers_all_ways() {
        let mut c =
            Cache::new(CacheConfig::new(8 * 64, 8, 64).with_policy(ReplacementPolicy::TreePlru))
                .unwrap();
        // Single set, 8 ways: fill 8 distinct lines then 8 more; every
        // access must stay functional and occupancy must stay at 8.
        for i in 0..16u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.occupancy(), 8);
        let s = c.stats();
        assert_eq!(s.misses, 16);
    }

    #[test]
    fn plru_at_the_64_way_limit() {
        let mut c =
            Cache::new(CacheConfig::new(64 * 64, 64, 64).with_policy(ReplacementPolicy::TreePlru))
                .unwrap();
        for i in 0..256u64 {
            c.access(i * 64, i % 2 == 0);
        }
        assert_eq!(c.occupancy(), 64);
        assert!(c.probe_resident(255 * 64));
        assert_eq!(c.stats().misses, 256);
    }

    #[test]
    fn random_policy_deterministic() {
        let mk = || {
            let mut c =
                Cache::new(CacheConfig::new(512, 2, 64).with_policy(ReplacementPolicy::Random))
                    .unwrap();
            for i in 0..64u64 {
                c.access((i * 7919) % 8192, false);
            }
            c.stats()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn working_set_larger_than_capacity_thrashes() {
        let mut c = small_lru();
        // 16 lines mapped into 8-line cache, cyclic: mostly misses.
        for round in 0..10 {
            for i in 0..16u64 {
                c.access(i * 64, false);
            }
            let _ = round;
        }
        assert!(c.stats().miss_ratio() > 0.9);
    }

    #[test]
    fn hinted_accesses_leave_the_state_plain_accesses_leave() {
        use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};

        let mut rng = ChaCha8Rng::seed_from_u64(0x4109);
        for policy in ReplacementPolicy::ALL {
            for write_policy in WritePolicy::ALL {
                let config = CacheConfig::new(2048, 4, 64)
                    .with_policy(policy)
                    .with_write_policy(write_policy);
                let mut plain = Cache::new(config).unwrap();
                let mut hinted = plain.clone();
                // Hints per slot of a repeating address pattern, as a run
                // keeps them, and sometimes a wrong one: an index of
                // another set, past the end, or none.
                let mut hints = [NO_MEMO; 8];
                let mut hint_hits = 0;
                for step in 0..4000 {
                    let slot = step % hints.len();
                    let addr = if rng.gen_range(0u32..4) == 0 {
                        rng.gen_range(0u64..1 << 14)
                    } else {
                        (slot as u64 * 200 + step as u64 / 64 * 4) % 8192
                    };
                    let write = rng.gen_range(0u32..3) == 0;
                    match rng.gen_range(0u32..40) {
                        0 => hints[slot] = rng.gen_range(0..40),
                        1 => hints[slot] = NO_MEMO - 1,
                        2 => {
                            let seed = rng.gen();
                            plain.pollute(0.3, seed);
                            hinted.pollute(0.3, seed);
                        }
                        _ => {}
                    }
                    let before = hints[slot];
                    // Now and then a load with a store right after it.
                    let out = if step % 5 == 0 {
                        let out = hinted.access_hinted(addr, false, true, &mut hints[slot]);
                        assert_eq!(out, plain.access(addr, false), "step {step}");
                        assert!(plain.access(addr, true).hit, "step {step}");
                        out
                    } else {
                        let out = hinted.access_hinted(addr, write, false, &mut hints[slot]);
                        assert_eq!(out, plain.access(addr, write), "step {step}");
                        out
                    };
                    assert!(hinted == plain, "{config:?} step {step}");
                    hint_hits += usize::from(hints[slot] == before && out.hit);
                }
                assert!(hint_hits > 1000, "{config:?}: {hint_hits} hint hits");
            }
        }
    }

    #[test]
    fn read_all_equals_reading_each_target() {
        for policy in ReplacementPolicy::ALL {
            let config = CacheConfig::new(512, 2, 64).with_policy(policy);
            let mut each = Cache::new(config).unwrap();
            each.access(1024, true);
            let mut all = each.clone();
            // Repeats on one line, a line left and come back to, misses
            // that evict, the top of the address space.
            let targets = [
                0,
                4,
                60,
                64,
                0,
                0,
                2048,
                1024,
                1028,
                u64::MAX,
                u64::MAX - 63,
                3,
            ];
            for &t in &targets {
                each.access(t, false);
            }
            all.read_all(&targets);
            assert!(all == each, "{policy:?}");
            all.read_all(&[]);
            assert!(all == each, "{policy:?}: an empty read");
        }
    }

    #[test]
    fn miss_ratio_empty() {
        let c = small_lru();
        assert_eq!(c.stats().miss_ratio(), 0.0);
    }
}
