//! Execution context for instrumented ("traced") inference.
//!
//! Traced kernels compute the same numbers as the numeric kernels while
//! narrating their architectural behaviour — every load/store of a weight
//! or activation and every data-dependent branch — to a
//! [`Probe`]. Feeding that stream to a
//! [`CoreSim`](scnn_uarch::CoreSim) yields the hardware-counter footprint
//! of the inference; feeding it to a
//! [`NullProbe`](scnn_uarch::NullProbe) costs (almost) nothing.

use crate::addr::{Region, SegmentAllocator, CODE_BASE};
use scnn_uarch::{MacRun, Probe};

/// Identifies a static code site (loop body, branch) inside a layer's
/// kernel; combined with the layer index it yields a stable synthetic PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Site(pub u32);

impl Site {
    /// The kernel's main loop branch.
    pub const LOOP: Site = Site(0);
    /// A zero-skip test on an activation.
    pub const SKIP: Site = Site(1);
    /// A ReLU sign test.
    pub const RELU: Site = Site(2);
    /// A pooling max comparison.
    pub const POOL: Site = Site(3);
    /// A load from the weight array.
    pub const WEIGHT: Site = Site(4);
    /// A load/store on the output accumulator.
    pub const ACC: Site = Site(5);
    /// A load from the input/activation array.
    pub const ACT: Site = Site(6);
    /// A store into a lowering scratch buffer (sparse im2col).
    pub const SCRATCH: Site = Site(7);
}

/// Elements `start`, `start + step`, … of a region: one operand stream of
/// a multiply-accumulate run (see [`ExecContext::mac_run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strided {
    /// The region the elements lie in.
    pub region: Region,
    /// Index of the first element.
    pub start: usize,
    /// Elements between consecutive iterations.
    pub step: usize,
}

/// The mutable state threaded through a traced forward pass.
pub struct ExecContext<'p> {
    probe: &'p mut dyn Probe,
    activations: SegmentAllocator,
    layer_index: u32,
    events: u64,
}

impl std::fmt::Debug for ExecContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecContext")
            .field("layer_index", &self.layer_index)
            .field("events", &self.events)
            .finish_non_exhaustive()
    }
}

impl<'p> ExecContext<'p> {
    /// Creates a context that reports to `probe`.
    pub fn new(probe: &'p mut dyn Probe) -> Self {
        ExecContext {
            probe,
            activations: SegmentAllocator::activations(),
            layer_index: 0,
            events: 0,
        }
    }

    /// Allocates an activation buffer for a layer output.
    pub fn alloc_activation(&mut self, len: usize) -> Region {
        self.activations.alloc(len)
    }

    /// Marks entry into layer `index`; kernel PCs embed it so each layer's
    /// branches and loads are distinct predictor/prefetcher streams. The
    /// probe hears the boundary too, so per-layer trace captures can
    /// segment the event stream without changing it.
    pub fn enter_layer(&mut self, index: usize) {
        self.layer_index = index as u32;
        self.probe.layer_boundary(index);
    }

    /// Synthetic PC for `site` in the current layer.
    #[inline]
    pub fn pc(&self, site: Site) -> u64 {
        CODE_BASE + (self.layer_index as u64) * 0x1000 + (site.0 as u64) * 0x40
    }

    /// Number of probe events emitted so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// A load of element `i` from `region`, attributed to `site`.
    #[inline]
    pub fn load(&mut self, site: Site, region: Region, i: usize) {
        self.events += 1;
        let pc = self.pc(site);
        self.probe.load(region.addr(i), pc);
    }

    /// A store to element `i` of `region`, attributed to `site`.
    #[inline]
    pub fn store(&mut self, site: Site, region: Region, i: usize) {
        self.events += 1;
        let pc = self.pc(site);
        self.probe.store(region.addr(i), pc);
    }

    /// `count` multiply-accumulate iterations as one
    /// [`Probe::mac_run`]: iteration `i` loads element `i` of `weights`
    /// (site [`Site::WEIGHT`]), loads element `i` of `acc` (site
    /// [`Site::ACC`]), retires a multiply and an add, and stores the
    /// accumulator back — the events, and the event count, of that many
    /// `load`, `load`, `alu(2)`, `store` calls.
    #[inline]
    pub fn mac_run(&mut self, weights: Strided, acc: Strided, count: usize) {
        let Some(last) = count.checked_sub(1) else {
            return;
        };
        // `Region::addr` bounds-checks the last iteration (debug builds).
        let _ = weights.region.addr(weights.start + last * weights.step);
        let _ = acc.region.addr(acc.start + last * acc.step);
        self.events += 4 * count as u64;
        let bytes = |s: Strided| s.step as i64 * crate::addr::ELEM_BYTES as i64;
        self.probe.mac_run(MacRun {
            weight: weights.region.addr(weights.start),
            weight_stride: bytes(weights),
            weight_pc: self.pc(Site::WEIGHT),
            acc: acc.region.addr(acc.start),
            acc_stride: bytes(acc),
            acc_pc: self.pc(Site::ACC),
            alu: 2,
            count: count as u64,
        });
    }

    /// A conditional branch at `site` with outcome `taken`.
    #[inline]
    pub fn branch(&mut self, site: Site, taken: bool) {
        self.events += 1;
        let pc = self.pc(site);
        self.probe.branch(pc, taken);
    }

    /// `n` retired ALU instructions.
    #[inline]
    pub fn alu(&mut self, n: u64) {
        self.events += 1;
        self.probe.alu(n);
    }

    /// Emits the canonical loop-control overhead for a counted loop that
    /// ran `iters` iterations: `iters` taken back-edges plus one
    /// fall-through exit, and one index-increment ALU op per iteration.
    pub fn counted_loop(&mut self, site: Site, iters: usize) {
        for _ in 0..iters {
            self.branch(site, true);
        }
        self.branch(site, false);
        self.alu(iters as u64);
    }

    /// Loop-control overhead of a *vectorised* counted loop: `iters`
    /// scalar iterations executed `width` lanes at a time (AVX-style), so
    /// only `ceil(iters / width)` back-edges retire. Hot numeric kernels
    /// use this — it is why retired-branch counts react only weakly to
    /// data-dependent work while memory footprints react strongly.
    pub fn vector_loop(&mut self, site: Site, iters: usize, width: usize) {
        let width = width.max(1);
        let steps = iters.div_ceil(width);
        for _ in 0..steps {
            self.branch(site, true);
        }
        self.branch(site, false);
        self.alu(steps as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_uarch::CountingProbe;

    #[test]
    fn events_reach_probe() {
        let mut probe = CountingProbe::new();
        {
            let mut ctx = ExecContext::new(&mut probe);
            let r = ctx.alloc_activation(8);
            ctx.load(Site::ACT, r, 0);
            ctx.store(Site::ACC, r, 1);
            ctx.branch(Site::RELU, true);
            ctx.alu(5);
            assert_eq!(ctx.events(), 4);
        }
        assert_eq!(probe.loads, 1);
        assert_eq!(probe.stores, 1);
        assert_eq!(probe.branches, 1);
        assert_eq!(probe.alu_ops, 5);
    }

    #[test]
    fn pcs_differ_by_layer_and_site() {
        let mut probe = CountingProbe::new();
        let mut ctx = ExecContext::new(&mut probe);
        ctx.enter_layer(0);
        let a = ctx.pc(Site::RELU);
        let b = ctx.pc(Site::POOL);
        ctx.enter_layer(1);
        let c = ctx.pc(Site::RELU);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn counted_loop_shape() {
        let mut probe = CountingProbe::new();
        {
            let mut ctx = ExecContext::new(&mut probe);
            ctx.counted_loop(Site::LOOP, 10);
        }
        assert_eq!(probe.branches, 11, "10 back-edges + 1 exit");
        assert_eq!(probe.taken_branches, 10);
        assert_eq!(probe.alu_ops, 10);
    }

    #[test]
    fn vector_loop_shape() {
        let mut probe = CountingProbe::new();
        {
            let mut ctx = ExecContext::new(&mut probe);
            ctx.vector_loop(Site::LOOP, 20, 8);
        }
        assert_eq!(probe.branches, 4, "ceil(20/8) = 3 back-edges + 1 exit");
        assert_eq!(probe.taken_branches, 3);
    }

    #[test]
    fn activation_allocations_monotone() {
        let mut probe = CountingProbe::new();
        let mut ctx = ExecContext::new(&mut probe);
        let r1 = ctx.alloc_activation(100);
        let r2 = ctx.alloc_activation(100);
        assert!(!r1.overlaps(&r2));
        assert!(r2.base() > r1.base());
    }
}
