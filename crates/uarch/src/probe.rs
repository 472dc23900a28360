//! The [`Probe`] trait: the contract between instrumented workloads (the
//! CNN kernels in `scnn-nn`) and the microarchitectural simulator.
//!
//! Instrumented code calls the probe for every architectural event it
//! would cause on real hardware: data loads/stores, conditional branches
//! and retired ALU work. A [`NullProbe`] implementation compiles to
//! nothing, so un-instrumented ("fast path") inference pays no cost.

/// Receiver of the architectural event stream produced by an instrumented
/// workload.
///
/// Implementors translate the stream into microarchitectural state updates
/// (cache fills, predictor updates, …). The single-event methods have
/// empty defaults so lightweight probes only override what they observe;
/// the run methods ([`load_run`](Self::load_run),
/// [`store_run`](Self::store_run), [`mac_run`](Self::mac_run)) default
/// to one single-event call per element, and [`tap`](Self::tap) to its
/// two stores and its run, so a probe that overrides only the single
/// events still sees every event of a run.
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

    /// `count` data loads from `pc`, at `base`, `base + stride`, … with
    /// wrapping address arithmetic: the same events as that many
    /// [`load`](Self::load) calls, which is what the default makes.
    /// Probes that can account for a run faster override it.
    fn load_run(&mut self, base: u64, stride: i64, count: u64, pc: u64) {
        let mut addr = base;
        for _ in 0..count {
            self.load(addr, pc);
            addr = addr.wrapping_add_signed(stride);
        }
    }

    /// `count` data stores from `pc`, laid out as in
    /// [`load_run`](Self::load_run): the same events as that many
    /// [`store`](Self::store) calls.
    fn store_run(&mut self, base: u64, stride: i64, count: u64, pc: u64) {
        let mut addr = base;
        for _ in 0..count {
            self.store(addr, pc);
            addr = addr.wrapping_add_signed(stride);
        }
    }

    /// The `count` iterations of a multiply-accumulate run (see
    /// [`MacRun`]): the same events as the single calls
    /// [`MacRun::for_each`] lists, which is what the default makes.
    /// Probes that can account for a run faster override it.
    fn mac_run(&mut self, run: MacRun) {
        run.for_each(|weight, acc| {
            self.load(weight, run.weight_pc);
            self.load(acc, run.acc_pc);
            self.alu(run.alu);
            self.store(acc, run.acc_pc);
        });
    }

    /// One convolution tap (see [`Tap`]): the stores to `tap.scratch[0]`
    /// and `tap.scratch[1]` from `tap.scratch_pc`, then
    /// [`mac_run`](Self::mac_run)`(tap.run)`, which is what the default
    /// makes. Probes that can account for a tap faster override it.
    fn tap(&mut self, tap: Tap) {
        for addr in tap.scratch {
            self.store(addr, tap.scratch_pc);
        }
        self.mac_run(tap.run);
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

impl MacRun {
    /// Calls `f(weight, acc)` with the addresses of each iteration, in
    /// order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        let (mut weight, mut acc) = (self.weight, self.acc);
        for _ in 0..self.count {
            f(weight, acc);
            weight = weight.wrapping_add_signed(self.weight_stride);
            acc = acc.wrapping_add_signed(self.acc_stride);
        }
    }
}

/// One tap of a convolution's scatter: the input pixel's entry is
/// appended to a lowering scratch (a store to the value array, then one
/// to the index array, both from `scratch_pc`), and then `run`
/// multiply-accumulates it into every filter's output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tap {
    /// Addresses of the two scratch stores, in order.
    pub scratch: [u64; 2],
    /// Store site of the scratch entries.
    pub scratch_pc: u64,
    /// The multiply-accumulate run after the stores.
    pub run: MacRun,
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

    fn load_run(&mut self, _base: u64, _stride: i64, count: u64, _pc: u64) {
        self.loads += count;
    }

    fn store_run(&mut self, _base: u64, _stride: i64, count: u64, _pc: u64) {
        self.stores += count;
    }

    fn mac_run(&mut self, run: MacRun) {
        self.loads += 2 * run.count;
        self.stores += run.count;
        self.alu_ops += run.alu * run.count;
    }

    fn tap(&mut self, tap: Tap) {
        self.stores += 2;
        self.mac_run(tap.run);
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

    /// Forwards single events only, so runs take the trait's default.
    struct PerElement(CountingProbe);

    impl Probe for PerElement {
        fn load(&mut self, addr: u64, pc: u64) {
            self.0.load(addr, pc);
        }

        fn store(&mut self, addr: u64, pc: u64) {
            self.0.store(addr, pc);
        }

        fn alu(&mut self, n: u64) {
            self.0.alu(n);
        }
    }

    #[test]
    fn counting_probe_runs_match_the_per_element_default() {
        let mut fast = CountingProbe::new();
        let mut slow = PerElement(CountingProbe::new());
        for (base, stride, count) in [(0, 4, 0), (64, 4, 1), (u64::MAX - 8, 4, 17), (0, -64, 1000)]
        {
            fast.load_run(base, stride, count, 0x40);
            slow.load_run(base, stride, count, 0x40);
            fast.store_run(base, stride, count / 2, 0x40);
            slow.store_run(base, stride, count / 2, 0x40);
            assert_eq!(fast, slow.0, "run ({base}, {stride}, {count})");
        }
        assert_eq!(fast.loads, 1018);
        assert_eq!(fast.stores, 508);
    }

    #[test]
    fn counting_probe_mac_runs_match_the_per_element_default() {
        let mut fast = CountingProbe::new();
        let mut slow = PerElement(CountingProbe::new());
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
            fast.mac_run(run);
            slow.mac_run(run);
            assert_eq!(fast, slow.0, "{count}-iteration run");
            let tap = Tap {
                scratch: [0x2000, u64::MAX],
                scratch_pc: 0xc0,
                run,
            };
            fast.tap(tap);
            slow.tap(tap);
            assert_eq!(fast, slow.0, "tap of a {count}-iteration run");
        }
        assert_eq!((fast.loads, fast.stores, fast.alu_ops), (2028, 1022, 2028));
    }

    #[test]
    fn default_runs_walk_with_wrapping_addresses() {
        #[derive(Default)]
        struct Addrs(Vec<(u64, bool)>);
        impl Probe for Addrs {
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
        let mut p = Addrs::default();
        p.load_run(u64::MAX - 3, 2, 3, 0x40);
        p.store_run(2, -2, 2, 0x40);
        assert_eq!(
            p.0,
            [
                (u64::MAX - 3, false),
                (u64::MAX - 1, false),
                (0, false),
                (2, true),
                (0, true)
            ]
        );
        let mut p = Addrs::default();
        p.mac_run(MacRun {
            weight: 8,
            weight_stride: -8,
            weight_pc: 0x40,
            acc: u64::MAX,
            acc_stride: 1,
            acc_pc: 0x80,
            alu: 2,
            count: 2,
        });
        assert_eq!(
            p.0,
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
        let mut p = Addrs::default();
        p.tap(Tap {
            scratch: [16, u64::MAX],
            scratch_pc: 0xc0,
            run: MacRun {
                weight: 8,
                weight_stride: 4,
                weight_pc: 0x40,
                acc: 0,
                acc_stride: 0,
                acc_pc: 0x80,
                alu: 2,
                count: 1,
            },
        });
        assert_eq!(
            p.0,
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
