//! Test-only reference model of the simulator's storage: the original
//! nested-`Vec` cache and TLB (one heap `Vec` per set, one struct per
//! line) and a prefetcher that returns a fresh `Vec` per observation.
//!
//! It is deliberately the plain, obviously-correct layout. The
//! differential tests drive it and the flat production structures with
//! the same seeded event streams and require every observable result to
//! be identical, so a layout change can only ever change host time.

#![allow(dead_code)]

use scnn_uarch::cache::{AccessOutcome, CacheConfig, CacheStats, ReplacementPolicy, WritePolicy};
use scnn_uarch::cycles::RetiredCounts;
use scnn_uarch::hierarchy::{HierarchyConfig, HierarchyStats, LatencyModel, ServedBy};
use scnn_uarch::tlb::{TlbConfig, TlbStats};
use scnn_uarch::{BranchPredictor, CoreConfig, CoreSim, CounterSnapshot, PrefetcherKind, Probe};

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    stamp: u64,
}

/// Reference set-associative cache: `Vec<Vec<Line>>` storage.
#[derive(Debug, Clone)]
pub struct RefCache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    stats: CacheStats,
    clock: u64,
    line_shift: u32,
    set_mask: u64,
    rng_state: u64,
    plru: Vec<u64>,
}

impl RefCache {
    /// Builds the cache; `config` must already validate.
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .expect("reference caches take valid configs");
        let sets = config.num_sets();
        RefCache {
            config,
            sets: vec![vec![Line::default(); config.associativity]; sets],
            stats: CacheStats::default(),
            clock: 0,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            rng_state: 0x9E37_79B9_7F4A_7C15,
            plru: vec![0; sets],
        }
    }

    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.clock += 1;
        self.stats.accesses += 1;
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        let write_through = self.config.write_policy == WritePolicy::WriteThroughNoAllocate;

        if let Some(way) = self.sets[set_idx]
            .iter()
            .position(|l| l.valid && l.tag == tag)
        {
            let refresh_on_hit = self.config.policy != ReplacementPolicy::Fifo;
            let clock_now = self.clock;
            let line = &mut self.sets[set_idx][way];
            if refresh_on_hit {
                line.stamp = clock_now;
            }
            line.dirty |= write && !write_through;
            self.stats.hits += 1;
            self.touch_plru(set_idx, way);
            return AccessOutcome {
                hit: true,
                writeback: if write && write_through {
                    Some(line_addr << self.line_shift)
                } else {
                    None
                },
            };
        }

        self.stats.misses += 1;
        if write && write_through {
            return AccessOutcome {
                hit: false,
                writeback: Some(line_addr << self.line_shift),
            };
        }

        let victim_way = self.choose_victim(set_idx);
        let clock = self.clock;
        let line_shift = self.line_shift;
        let set_bits = self.set_mask.count_ones();
        let victim = &mut self.sets[set_idx][victim_way];
        let mut writeback = None;
        if victim.valid {
            self.stats.evictions += 1;
            if victim.dirty {
                self.stats.writebacks += 1;
                let victim_line = (victim.tag << set_bits) | set_idx as u64;
                writeback = Some(victim_line << line_shift);
            }
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: write && !write_through,
            stamp: clock,
        };
        self.touch_plru(set_idx, victim_way);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    pub fn probe_resident(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_mask.count_ones();
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set {
                *line = Line::default();
            }
        }
        for bits in &mut self.plru {
            *bits = 0;
        }
    }

    pub fn pollute(&mut self, fraction: f64, seed: u64) {
        let fraction = fraction.clamp(0.0, 1.0);
        let threshold = (fraction * u32::MAX as f64) as u32;
        let mut state = seed | 1;
        for set in &mut self.sets {
            for line in set {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                let draw = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) as u32;
                if line.valid && draw < threshold {
                    *line = Line::default();
                }
            }
        }
    }

    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.iter().filter(|l| l.valid).count())
            .sum()
    }

    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn choose_victim(&mut self, set_idx: usize) -> usize {
        if let Some(way) = self.sets[set_idx].iter().position(|l| !l.valid) {
            return way;
        }
        match self.config.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self.sets[set_idx]
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.stamp)
                .map(|(w, _)| w)
                .expect("associativity > 0"),
            ReplacementPolicy::Random => {
                self.rng_state ^= self.rng_state >> 12;
                self.rng_state ^= self.rng_state << 25;
                self.rng_state ^= self.rng_state >> 27;
                (self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) as usize)
                    % self.config.associativity
            }
            ReplacementPolicy::TreePlru => {
                let bits = self.plru[set_idx];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = self.config.associativity;
                while hi - lo > 1 {
                    let bit = (bits >> node) & 1;
                    let mid = (lo + hi) / 2;
                    if bit == 0 {
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

    fn touch_plru(&mut self, set_idx: usize, way: usize) {
        if self.config.policy != ReplacementPolicy::TreePlru {
            return;
        }
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.config.associativity;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                self.plru[set_idx] &= !(1 << node);
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.plru[set_idx] |= 1 << node;
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    vpn: u64,
    valid: bool,
    stamp: u64,
}

/// Reference LRU TLB: `Vec<Vec<Entry>>` storage.
#[derive(Debug, Clone)]
pub struct RefTlb {
    sets: Vec<Vec<Entry>>,
    stats: TlbStats,
    clock: u64,
    page_shift: u32,
    set_mask: u64,
}

impl RefTlb {
    pub fn new(config: TlbConfig) -> Self {
        let sets = config.entries / config.associativity;
        RefTlb {
            sets: vec![vec![Entry::default(); config.associativity]; sets],
            stats: TlbStats::default(),
            clock: 0,
            page_shift: config.page_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
        }
    }

    pub fn translate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.accesses += 1;
        let vpn = addr >> self.page_shift;
        let set_idx = (vpn & self.set_mask) as usize;
        let clock = self.clock;
        if let Some(e) = self.sets[set_idx]
            .iter_mut()
            .find(|e| e.valid && e.vpn == vpn)
        {
            e.stamp = clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        let victim = self.sets[set_idx]
            .iter_mut()
            .min_by_key(|e| if e.valid { e.stamp } else { 0 })
            .expect("associativity > 0");
        *victim = Entry {
            vpn,
            valid: true,
            stamp: clock,
        };
        false
    }

    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for e in set {
                *e = Entry::default();
            }
        }
    }

    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

/// Reference prefetcher: returns a fresh `Vec` per observation.
#[derive(Debug, Clone)]
pub enum RefPrefetcher {
    NextLine {
        line_bytes: u64,
    },
    Stride {
        table: Vec<StrideEntry>,
        mask: u64,
        degree: usize,
    },
}

#[derive(Debug, Clone, Copy, Default)]
pub struct StrideEntry {
    pc: u64,
    last_addr: u64,
    stride: i64,
    confidence: u8,
    valid: bool,
}

impl RefPrefetcher {
    /// The reference twin of `Prefetcher::new`.
    pub fn build(kind: PrefetcherKind, line_bytes: usize) -> Option<Self> {
        match kind {
            PrefetcherKind::None => None,
            PrefetcherKind::NextLine => Some(RefPrefetcher::NextLine {
                line_bytes: line_bytes as u64,
            }),
            PrefetcherKind::Stride => Some(RefPrefetcher::Stride {
                table: vec![StrideEntry::default(); 1 << 8],
                mask: (1 << 8) - 1,
                degree: 2,
            }),
        }
    }

    pub fn observe(&mut self, pc: u64, addr: u64, miss: bool) -> Vec<u64> {
        match self {
            RefPrefetcher::NextLine { line_bytes } => {
                match (addr & !(*line_bytes - 1)).checked_add(*line_bytes) {
                    Some(next) if miss => vec![next],
                    _ => Vec::new(),
                }
            }
            RefPrefetcher::Stride {
                table,
                mask,
                degree,
            } => {
                let e = &mut table[(pc & *mask) as usize];
                if !e.valid || e.pc != pc {
                    *e = StrideEntry {
                        pc,
                        last_addr: addr,
                        stride: 0,
                        confidence: 0,
                        valid: true,
                    };
                    return Vec::new();
                }
                let stride = addr.wrapping_sub(e.last_addr) as i64;
                if stride == e.stride && stride != 0 {
                    e.confidence = (e.confidence + 1).min(3);
                } else {
                    e.stride = stride;
                    e.confidence = 0;
                }
                e.last_addr = addr;
                let mut out = Vec::new();
                if e.confidence >= 2 {
                    for d in 1..=*degree {
                        let target = addr as i128 + e.stride as i128 * d as i128;
                        if (0..=i64::MAX as i128).contains(&target) {
                            out.push(target as u64);
                        }
                    }
                }
                out
            }
        }
    }
}

/// Reference three-level hierarchy over [`RefCache`] and [`RefPrefetcher`].
#[derive(Debug, Clone)]
pub struct RefHierarchy {
    pub l1d: RefCache,
    pub l2: RefCache,
    pub l3: RefCache,
    latency: LatencyModel,
    prefetcher: Option<RefPrefetcher>,
    llc_references: u64,
    llc_misses: u64,
    prefetches: u64,
    demand_cycles: u64,
}

impl RefHierarchy {
    pub fn new(config: HierarchyConfig) -> Self {
        RefHierarchy {
            l1d: RefCache::new(config.l1d),
            l2: RefCache::new(config.l2),
            l3: RefCache::new(config.l3),
            latency: config.latency,
            prefetcher: RefPrefetcher::build(config.prefetcher, config.l2.line_bytes),
            llc_references: 0,
            llc_misses: 0,
            prefetches: 0,
            demand_cycles: 0,
        }
    }

    pub fn access(&mut self, addr: u64, write: bool, pc: u64) -> ServedBy {
        let l1 = self.l1d.access(addr, write);
        let mut served = ServedBy::L1;
        if !l1.hit {
            if self.l2.access(addr, false).hit {
                served = ServedBy::L2;
            } else {
                self.llc_references += 1;
                if self.l3.access(addr, false).hit {
                    served = ServedBy::L3;
                } else {
                    self.llc_misses += 1;
                    served = ServedBy::Dram;
                }
            }
            if let Some(wb) = l1.writeback {
                self.l2.access(wb, true);
            }
        }
        self.demand_cycles += self.latency.for_level(served);
        if let Some(pf) = self.prefetcher.as_mut() {
            for t in pf.observe(pc, addr, !l1.hit) {
                self.prefetches += 1;
                self.llc_references += 1;
                if !self.l3.access(t, false).hit {
                    self.llc_misses += 1;
                }
                self.l2.access(t, false);
            }
        }
        served
    }

    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            l3: *self.l3.stats(),
            llc_references: self.llc_references,
            llc_misses: self.llc_misses,
            prefetches: self.prefetches,
            demand_cycles: self.demand_cycles,
        }
    }

    pub fn flush(&mut self) {
        self.l1d.flush();
        self.l2.flush();
        self.l3.flush();
    }

    pub fn pollute(&mut self, fraction: f64, seed: u64) {
        self.l1d.pollute(fraction, seed ^ 0x1111);
        self.l2.pollute(fraction, seed ^ 0x2222);
        self.l3.pollute(fraction / 4.0, seed ^ 0x3333);
    }

    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.llc_references = 0;
        self.llc_misses = 0;
        self.prefetches = 0;
        self.demand_cycles = 0;
    }
}

/// Reference core: [`RefHierarchy`] and [`RefTlb`] with the production
/// branch predictor and cycle model, whose storage is not under test.
pub struct RefCore {
    config: CoreConfig,
    hierarchy: RefHierarchy,
    predictor: Box<dyn BranchPredictor + Send>,
    tlb: RefTlb,
    loads: u64,
    stores: u64,
    alu_ops: u64,
}

impl RefCore {
    pub fn new(config: CoreConfig) -> Self {
        RefCore {
            config,
            hierarchy: RefHierarchy::new(config.hierarchy),
            predictor: config.predictor.build(config.predictor_bits),
            tlb: RefTlb::new(config.tlb),
            loads: 0,
            stores: 0,
            alu_ops: 0,
        }
    }

    pub fn snapshot(&self) -> CounterSnapshot {
        let h = self.hierarchy.stats();
        let b = self.predictor.stats();
        let t = self.tlb.stats();
        let instructions = self.loads + self.stores + self.alu_ops + b.branches;
        let cycles = self.config.cycles.cycles(&RetiredCounts {
            instructions,
            branch_misses: b.mispredictions,
            tlb_misses: t.misses,
            demand_memory_cycles: h.demand_cycles,
        });
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
}

/// The calls a differential test makes on a whole core, production or
/// reference.
pub trait Core: Probe {
    fn cold_start(&mut self);
    fn reset_counters(&mut self);
    fn pollute(&mut self, fraction: f64, seed: u64);
}

impl Core for CoreSim {
    fn cold_start(&mut self) {
        CoreSim::cold_start(self);
    }

    fn reset_counters(&mut self) {
        CoreSim::reset_counters(self);
    }

    fn pollute(&mut self, fraction: f64, seed: u64) {
        CoreSim::pollute(self, fraction, seed);
    }
}

impl Core for RefCore {
    fn reset_counters(&mut self) {
        self.hierarchy.reset_stats();
        self.predictor.reset_stats();
        self.tlb.reset_stats();
        self.loads = 0;
        self.stores = 0;
        self.alu_ops = 0;
    }

    fn cold_start(&mut self) {
        self.hierarchy.flush();
        self.tlb.flush();
    }

    fn pollute(&mut self, fraction: f64, seed: u64) {
        self.hierarchy.pollute(fraction, seed);
        self.tlb.flush();
    }
}

impl Probe for RefCore {
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

    fn branch(&mut self, pc: u64, taken: bool) {
        self.predictor.observe(pc, taken);
    }

    fn alu(&mut self, n: u64) {
        self.alu_ops += n;
    }
}

/// One step of a simulated workload, shared by every differential test
/// that drives a whole core.
#[derive(Debug, Clone, Copy)]
pub enum CoreOp {
    Load(u64, u64),
    Store(u64, u64),
    Branch(u64, bool),
    Alu(u64),
    ColdStart,
    ResetCounters,
    Pollute(f64, u64),
}

/// A seeded inference-shaped event stream: a few load/store sites
/// striding through their own arrays (so stride prefetchers train and
/// fire), random jumps, branches with a learnable pattern, ALU bursts,
/// and occasional cold starts, counter resets and pollution.
pub fn core_ops<R: scnn_rng::Rng>(rng: &mut R, len: usize) -> Vec<CoreOp> {
    const SITES: usize = 6;
    let mut cursor = [0u64; SITES];
    let mut stride = [0u64; SITES];
    for s in 0..SITES {
        cursor[s] = (s as u64 + 1) << 24;
        stride[s] = [4, 8, 64, 128, 576, 4096][s];
    }
    (0..len)
        .map(|i| match rng.gen_range(0u32..1000) {
            0..=1 => CoreOp::ColdStart,
            2..=3 => CoreOp::ResetCounters,
            4..=5 => CoreOp::Pollute(rng.gen_range(0.0..1.0), rng.gen()),
            6..=99 => CoreOp::Load(rng.gen_range(0u64..1 << 26), 0x4000),
            100..=249 => CoreOp::Branch(0x800 + rng.gen_range(0u64..8) * 4, i % 3 != 0),
            250..=299 => CoreOp::Alu(rng.gen_range(1u64..64)),
            n => {
                let s = n as usize % SITES;
                if rng.gen_range(0u32..64) == 0 {
                    cursor[s] = ((s as u64 + 1) << 24) + rng.gen_range(0u64..1 << 20);
                }
                cursor[s] += stride[s];
                let pc = 0x100 + s as u64 * 8;
                if n % 5 == 0 {
                    CoreOp::Store(cursor[s], pc)
                } else {
                    CoreOp::Load(cursor[s], pc)
                }
            }
        })
        .collect()
}

/// Applies one op to one core.
pub fn apply_to(core: &mut dyn Core, op: CoreOp) {
    match op {
        CoreOp::Load(addr, pc) => core.load(addr, pc),
        CoreOp::Store(addr, pc) => core.store(addr, pc),
        CoreOp::Branch(pc, taken) => core.branch(pc, taken),
        CoreOp::Alu(n) => core.alu(n),
        CoreOp::ColdStart => core.cold_start(),
        CoreOp::ResetCounters => core.reset_counters(),
        CoreOp::Pollute(fraction, seed) => core.pollute(fraction, seed),
    }
}

/// Applies one op to both `core` and `reference`.
pub fn apply(core: &mut CoreSim, reference: &mut RefCore, op: CoreOp) {
    apply_to(core, op);
    apply_to(reference, op);
}

/// Drives `core` and `reference` with the same ops, comparing snapshots
/// after every step.
pub fn assert_cores_agree(name: &str, core: &mut CoreSim, reference: &mut RefCore, ops: &[CoreOp]) {
    for (step, &op) in ops.iter().enumerate() {
        apply(core, reference, op);
        assert_eq!(
            core.snapshot(),
            reference.snapshot(),
            "{name} step {step}: {op:?}"
        );
    }
}
