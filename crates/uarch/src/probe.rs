//! The [`Probe`] trait: the contract between instrumented workloads (the
//! CNN kernels in `scnn-nn`) and the microarchitectural simulator.
//!
//! Instrumented code calls the probe for every architectural event it
//! would cause on real hardware: data loads/stores, conditional branches
//! and retired ALU work, and many of them at once as one [`Block`]. A
//! [`NullProbe`] implementation compiles to nothing, so un-instrumented
//! ("fast path") inference pays no cost.

/// Receiver of the architectural event stream produced by an instrumented
/// workload.
///
/// Implementors translate the stream into microarchitectural state updates
/// (cache fills, predictor updates, …). The single-event methods have
/// empty defaults so lightweight probes only override what they observe;
/// [`block`](Self::block) defaults to [`Block::replay`], one single-event
/// call per event of the block, so a probe that overrides only the single
/// events still sees every event of a block.
pub trait Probe {
    /// A data load at virtual address `addr`, issued by the load
    /// instruction at program counter `pc` (the PC lets PC-indexed
    /// structures like stride prefetchers separate access streams).
    fn load(&mut self, addr: u64, pc: u64) {
        let _ = (addr, pc);
    }

    /// A data store at virtual address `addr` issued from `pc`.
    fn store(&mut self, addr: u64, pc: u64) {
        let _ = (addr, pc);
    }

    /// The events of `block`: the same as its [`replay`](Block::replay),
    /// which is what the default makes. Probes that can account for a
    /// block faster override it.
    fn block(&mut self, block: Block) {
        block.replay(self);
    }

    /// A conditional branch at program location `pc` whose outcome was
    /// `taken`.
    fn branch(&mut self, pc: u64, taken: bool) {
        let _ = (pc, taken);
    }

    /// `n` retired arithmetic/logic instructions that touch neither memory
    /// nor control flow.
    fn alu(&mut self, n: u64) {
        let _ = n;
    }

    /// The instrumented workload is about to enter layer `index` of a
    /// multi-layer computation. Purely a marker — it retires nothing and
    /// changes no microarchitectural state — so probes that do not segment
    /// their observations can ignore it (the default does).
    fn layer_boundary(&mut self, index: usize) {
        let _ = index;
    }
}

/// Many events in one [`Probe::block`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// `count` loads from `pc` (stores when `write`) walking an arena of
    /// `pass` elements `stride` bytes apart from `base`, from element
    /// `start` on, with element 0 after the last: access `j` touches
    /// element `(start + j) mod pass`, at `base + stride · element` with
    /// wrapping address arithmetic. A `pass` of 0 stands for 2^64
    /// elements, so such a walk never wraps: from `start` 0 it is the
    /// plain strided stream `base`, `base + stride`, ….
    Walk {
        /// Address of the arena's first element.
        base: u64,
        /// Bytes between consecutive elements.
        stride: i64,
        /// Elements of the arena, which one pass walks.
        pass: u64,
        /// Element of the first access (taken modulo `pass`).
        start: u64,
        /// Number of accesses.
        count: u64,
        /// Load or store site of the accesses.
        pc: u64,
        /// Stores rather than loads.
        write: bool,
    },
    /// A multiply-accumulate run, after a convolution tap's two stores
    /// to its lowering scratch when `scratch` holds their addresses, in
    /// order, and their store site.
    Mac {
        /// The two scratch stores' addresses and site, if any.
        scratch: Option<([u64; 2], u64)>,
        /// The multiply-accumulate run.
        run: MacRun,
    },
}

/// What a [`Block`] retires, and how many single events its
/// [`replay`](Block::replay) makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockCounts {
    /// Data loads.
    pub loads: u64,
    /// Data stores.
    pub stores: u64,
    /// ALU instructions.
    pub alu: u64,
    /// Single-event calls of the replay (an `alu` call counts once,
    /// whatever its `n`).
    pub events: u64,
}

impl Block {
    /// The block's counts, in O(1).
    #[inline]
    pub fn counts(&self) -> BlockCounts {
        match *self {
            Block::Walk { count, write, .. } => BlockCounts {
                loads: if write { 0 } else { count },
                stores: if write { count } else { 0 },
                alu: 0,
                events: count,
            },
            Block::Mac { scratch, run } => {
                let prefix = if scratch.is_some() { 2 } else { 0 };
                BlockCounts {
                    loads: 2 * run.count,
                    stores: prefix + run.count,
                    alu: run.alu * run.count,
                    events: prefix + 4 * run.count,
                }
            }
        }
    }

    /// The block's events, one single-event call each, in order: a
    /// walk's accesses; a run's scratch stores, then per
    /// iteration the weight load, the accumulator load, `alu(run.alu)`
    /// and the accumulator store.
    #[inline]
    pub fn replay<P: Probe + ?Sized>(&self, probe: &mut P) {
        let access = |probe: &mut P, addr, pc, write| {
            if write {
                probe.store(addr, pc);
            } else {
                probe.load(addr, pc);
            }
        };
        match *self {
            Block::Walk {
                base,
                stride,
                pass,
                start,
                count,
                pc,
                write,
            } => {
                // With `pass` 0, `i` wraps at 2^64 by itself.
                let mut i = if pass == 0 { start } else { start % pass };
                for _ in 0..count {
                    access(
                        probe,
                        base.wrapping_add((stride as u64).wrapping_mul(i)),
                        pc,
                        write,
                    );
                    i = i.wrapping_add(1);
                    if i == pass {
                        i = 0;
                    }
                }
            }
            Block::Mac { scratch, run } => {
                if let Some((addrs, pc)) = scratch {
                    for addr in addrs {
                        probe.store(addr, pc);
                    }
                }
                let (mut weight, mut acc) = (run.weight, run.acc);
                for _ in 0..run.count {
                    probe.load(weight, run.weight_pc);
                    probe.load(acc, run.acc_pc);
                    probe.alu(run.alu);
                    probe.store(acc, run.acc_pc);
                    weight = weight.wrapping_add_signed(run.weight_stride);
                    acc = acc.wrapping_add_signed(run.acc_stride);
                }
            }
        }
    }
}

/// A multiply-accumulate run: `count` iterations of an inner product's
/// loop, each loading a weight from `weight_pc`, loading an accumulator
/// from `acc_pc`, retiring `alu` ALU instructions (the multiply and the
/// add) and storing the accumulator back from `acc_pc`. Iteration `i`
/// touches `weight + i·weight_stride` and `acc + i·acc_stride`, with
/// wrapping address arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacRun {
    /// Weight address of the first iteration.
    pub weight: u64,
    /// Bytes between the weights of consecutive iterations.
    pub weight_stride: i64,
    /// Load site of the weights.
    pub weight_pc: u64,
    /// Accumulator address of the first iteration.
    pub acc: u64,
    /// Bytes between the accumulators of consecutive iterations.
    pub acc_stride: i64,
    /// Load and store site of the accumulators.
    pub acc_pc: u64,
    /// ALU instructions retired per iteration.
    pub alu: u64,
    /// Number of iterations.
    pub count: u64,
}

/// A probe that ignores everything — the zero-cost fast path.
///
/// # Examples
///
/// ```
/// use scnn_uarch::{NullProbe, Probe};
///
/// let mut p = NullProbe;
/// p.load(0x1000, 0x400);
/// p.branch(0x2000, true);
/// // No state, no cost.
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {}

/// A probe that simply counts events — useful in tests and as the cheapest
/// possible "instruction counter" backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// Number of loads observed.
    pub loads: u64,
    /// Number of stores observed.
    pub stores: u64,
    /// Number of branches observed.
    pub branches: u64,
    /// Number of taken branches observed.
    pub taken_branches: u64,
    /// Number of ALU instructions observed.
    pub alu_ops: u64,
}

impl CountingProbe {
    /// Creates a zeroed counter probe.
    pub fn new() -> Self {
        CountingProbe::default()
    }

    /// Total retired instructions implied by the event stream.
    pub fn instructions(&self) -> u64 {
        self.loads + self.stores + self.branches + self.alu_ops
    }
}

impl Probe for CountingProbe {
    fn load(&mut self, _addr: u64, _pc: u64) {
        self.loads += 1;
    }

    fn store(&mut self, _addr: u64, _pc: u64) {
        self.stores += 1;
    }

    fn block(&mut self, block: Block) {
        let counts = block.counts();
        self.loads += counts.loads;
        self.stores += counts.stores;
        self.alu_ops += counts.alu;
    }

    fn branch(&mut self, _pc: u64, taken: bool) {
        self.branches += 1;
        if taken {
            self.taken_branches += 1;
        }
    }

    fn alu(&mut self, n: u64) {
        self.alu_ops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_probe_is_inert() {
        let mut p = NullProbe;
        p.load(1, 0x40);
        p.store(2, 0x40);
        p.branch(3, false);
        p.alu(100);
        assert_eq!(p, NullProbe);
    }

    #[test]
    fn counting_probe_counts() {
        let mut p = CountingProbe::new();
        p.load(0, 0x40);
        p.load(64, 0x40);
        p.store(0, 0x40);
        p.branch(1, true);
        p.branch(1, false);
        p.branch(1, true);
        p.alu(10);
        assert_eq!(p.loads, 2);
        assert_eq!(p.stores, 1);
        assert_eq!(p.branches, 3);
        assert_eq!(p.taken_branches, 2);
        assert_eq!(p.alu_ops, 10);
        assert_eq!(p.instructions(), 16);
    }

    #[test]
    fn counting_probe_counts_every_block_as_its_replay() {
        let mut blocks = Vec::new();
        for (base, stride, count) in [(0, 4, 0), (64, 4, 1), (u64::MAX - 8, 4, 17), (0, -64, 1000)]
        {
            for write in [false, true] {
                blocks.push(Block::Walk {
                    base,
                    stride,
                    pass: 0,
                    start: 0,
                    count,
                    pc: 0x40,
                    write,
                });
            }
        }
        for (pass, start, count) in [(512, 7, 0), (512, 511, 1200), (1, 3, 5), (0, u64::MAX, 4)] {
            for write in [false, true] {
                blocks.push(Block::Walk {
                    base: u64::MAX - 8,
                    stride: -4,
                    pass,
                    start,
                    count,
                    pc: 0x40,
                    write,
                });
            }
        }
        for count in [0, 1, 6, 500] {
            let run = MacRun {
                weight: 0x1000,
                weight_stride: 100,
                weight_pc: 0x40,
                acc: u64::MAX - 4,
                acc_stride: -4,
                acc_pc: 0x80,
                alu: 2,
                count,
            };
            for scratch in [None, Some(([0x2000, u64::MAX], 0xc0))] {
                blocks.push(Block::Mac { scratch, run });
            }
        }
        let mut fast = CountingProbe::new();
        let mut slow = CountingProbe::new();
        for block in blocks {
            fast.block(block);
            block.replay(&mut slow);
            assert_eq!(fast, slow, "{block:?}");
        }
        assert_eq!(
            (fast.loads, fast.stores, fast.alu_ops),
            (1018 + 1209 + 2028, 1018 + 1209 + 1022, 2028)
        );
    }

    /// Records each single event: an access's address and whether it is
    /// a store, or an ALU call's `n`.
    #[derive(Default)]
    struct Events(Vec<(u64, bool)>);

    impl Probe for Events {
        fn load(&mut self, addr: u64, _pc: u64) {
            self.0.push((addr, false));
        }
        fn store(&mut self, addr: u64, _pc: u64) {
            self.0.push((addr, true));
        }
        fn alu(&mut self, n: u64) {
            self.0.push((n, false));
        }
    }

    /// The default's events for `block`, checked against its event count.
    fn replayed(block: Block) -> Vec<(u64, bool)> {
        let mut p = Events::default();
        p.block(block);
        assert_eq!(p.0.len() as u64, block.counts().events, "{block:?}");
        p.0
    }

    #[test]
    fn default_blocks_walk_with_wrapping_addresses() {
        // A `pass` 0 walk from element 0 is a plain stream.
        let stream = |base, stride, count, write| Block::Walk {
            base,
            stride,
            pass: 0,
            start: 0,
            count,
            pc: 0x40,
            write,
        };
        assert_eq!(
            replayed(stream(u64::MAX - 3, 2, 3, false)),
            [(u64::MAX - 3, false), (u64::MAX - 1, false), (0, false)]
        );
        assert_eq!(replayed(stream(2, -2, 2, true)), [(2, true), (0, true)]);
        let walk = |pass, start, count| Block::Walk {
            base: 0x100,
            stride: -4,
            pass,
            start,
            count,
            pc: 0x40,
            write: false,
        };
        // Elements 2, 0, 1, 2, 0 of a three-element arena.
        assert_eq!(
            replayed(walk(3, 5, 5)),
            [0xf8, 0x100, 0xfc, 0xf8, 0x100].map(|addr| (addr, false))
        );
        // With `pass` 0 the element index wraps at 2^64 only.
        assert_eq!(
            replayed(walk(0, u64::MAX, 2)),
            [(0x104, false), (0x100, false)]
        );
        let run = MacRun {
            weight: 8,
            weight_stride: -8,
            weight_pc: 0x40,
            acc: u64::MAX,
            acc_stride: 1,
            acc_pc: 0x80,
            alu: 2,
            count: 2,
        };
        assert_eq!(
            replayed(Block::Mac { scratch: None, run }),
            [
                (8, false),
                (u64::MAX, false),
                (2, false),
                (u64::MAX, true),
                (0, false),
                (0, false),
                (2, false),
                (0, true)
            ]
        );
        // A tap: its two scratch stores, then its run.
        let tap = Block::Mac {
            scratch: Some(([16, u64::MAX], 0xc0)),
            run: MacRun {
                weight_stride: 4,
                acc: 0,
                acc_stride: 0,
                count: 1,
                ..run
            },
        };
        assert_eq!(
            replayed(tap),
            [
                (16, true),
                (u64::MAX, true),
                (8, false),
                (0, false),
                (2, false),
                (0, true)
            ]
        );
    }

    #[test]
    fn trait_object_usable() {
        let mut p = CountingProbe::new();
        {
            let dynp: &mut dyn Probe = &mut p;
            dynp.load(0, 0x40);
            dynp.alu(2);
        }
        assert_eq!(p.instructions(), 3);
    }
}
