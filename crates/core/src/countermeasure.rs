//! Countermeasures against HPC-based input recovery — the paper's
//! conclusion calls for "CNN architectures with indistinguishable CPU
//! footprints"; this module implements and evaluates concrete ways to get
//! there.
//!
//! The suite covers the defence families of the Mohammadi et al. survey
//! (see PAPERS.md): constant-footprint kernels, blinding noise (fixed and
//! calibrated volume), memory-access shuffling, decoy inferences and
//! oblivious constant-shape execution. `frontier::run_frontier` maps
//! their leakage-vs-overhead trade-off.

use crate::collect::TracedClassifier;
use scnn_nn::{Network, NnError};
use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_tensor::Tensor;
use scnn_uarch::{Block, Probe};

/// A deployable countermeasure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Countermeasure {
    /// Replace every data-dependent kernel with its constant-footprint
    /// twin (no zero skipping, branchless ReLU/max) — removes the leak at
    /// its source, at the cost of computing over zeros.
    ConstantTime,
    /// Keep the fast kernels but execute random dummy memory/branch work
    /// alongside each classification, drowning the signal in noise.
    NoiseInjection {
        /// Mean dummy events per inference (loads + branches).
        dummy_events: u64,
    },
    /// Constant-time kernels *and* noise injection.
    Combined {
        /// Mean dummy events per inference.
        dummy_events: u64,
    },
    /// Memory-access shuffling: every inference re-seeds a permutation of
    /// the neuron/channel visit order inside the traced dense/conv
    /// kernels, so the probe sees a scrambled access stream while the
    /// numbers stay bit-identical. Event *counts* are order-invariant, so
    /// this defends address-trace adversaries, not count-based HPCs — the
    /// frontier quantifies exactly that gap.
    Shuffle,
    /// Whole decoy classifications on synthetic inputs around the real
    /// one: the probe's window mixes `decoys` dummy inferences (at a
    /// random position among them) with the real one.
    DecoyInference {
        /// Dummy classifications per real inference.
        decoys: u64,
    },
    /// Oblivious constant-shape execution: constant-time kernels, plus
    /// every per-layer window padded up to the network's maximum layer
    /// footprint — all categories *and all layers* share one trace shape,
    /// blinding both the t-test evaluator and the per-layer extraction
    /// adversary.
    ObliviousShape,
    /// Noise injection whose dummy volume was iterated (doubled) until
    /// the evaluator's max |t| on a calibration run fell below
    /// `target_t` — the data-driven replacement for a hard-coded budget.
    /// `dummy_events` holds the calibrated volume
    /// (see `frontier::calibrate_noise`).
    CalibratedNoise {
        /// The |t| ceiling calibration drives toward.
        target_t: f64,
        /// The calibrated mean dummy events per inference.
        dummy_events: u64,
    },
}

impl Countermeasure {
    /// True when the network's kernels are switched to constant time.
    pub fn uses_constant_time(&self) -> bool {
        matches!(
            self,
            Countermeasure::ConstantTime
                | Countermeasure::Combined { .. }
                | Countermeasure::ObliviousShape
        )
    }

    /// True when the traced kernels shuffle their memory-access order.
    pub fn uses_shuffle(&self) -> bool {
        matches!(self, Countermeasure::Shuffle)
    }

    /// Mean dummy events injected per inference (0 when noise injection is
    /// off).
    pub fn dummy_events(&self) -> u64 {
        match *self {
            Countermeasure::NoiseInjection { dummy_events }
            | Countermeasure::Combined { dummy_events }
            | Countermeasure::CalibratedNoise { dummy_events, .. } => dummy_events,
            Countermeasure::ConstantTime
            | Countermeasure::Shuffle
            | Countermeasure::DecoyInference { .. }
            | Countermeasure::ObliviousShape => 0,
        }
    }

    /// Decoy classifications per real inference (0 for every other
    /// countermeasure).
    pub fn decoys(&self) -> u64 {
        match *self {
            Countermeasure::DecoyInference { decoys } => decoys,
            _ => 0,
        }
    }
}

/// Primitive-event counts of one per-layer trace window — the "shape"
/// oblivious execution equalises.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ShapeCounts {
    loads: u64,
    stores: u64,
    branches: u64,
    alu: u64,
}

impl ShapeCounts {
    /// Counts the events of a block.
    fn add_block(&mut self, block: &Block) {
        let counts = block.counts();
        self.loads += counts.loads;
        self.stores += counts.stores;
        self.alu += counts.alu;
    }

    fn max(self, other: ShapeCounts) -> ShapeCounts {
        ShapeCounts {
            loads: self.loads.max(other.loads),
            stores: self.stores.max(other.stores),
            branches: self.branches.max(other.branches),
            alu: self.alu.max(other.alu),
        }
    }
}

/// Measures per-layer-window primitive-event counts without forwarding
/// anything — the silent pre-pass that sizes the oblivious ceiling.
#[derive(Default)]
struct WindowCounter {
    windows: Vec<ShapeCounts>,
    current: ShapeCounts,
}

impl WindowCounter {
    /// Closes the trailing window and returns all windows; index 0 is the
    /// pre-layer staging window.
    fn finish(mut self) -> Vec<ShapeCounts> {
        self.windows.push(self.current);
        self.windows
    }
}

impl Probe for WindowCounter {
    fn load(&mut self, _addr: u64, _pc: u64) {
        self.current.loads += 1;
    }

    fn store(&mut self, _addr: u64, _pc: u64) {
        self.current.stores += 1;
    }

    fn branch(&mut self, _pc: u64, _taken: bool) {
        self.current.branches += 1;
    }

    fn alu(&mut self, n: u64) {
        self.current.alu += n;
    }

    fn block(&mut self, block: Block) {
        self.current.add_block(&block);
    }

    fn layer_boundary(&mut self, _index: usize) {
        self.windows.push(self.current);
        self.current = ShapeCounts::default();
    }
}

/// Pads every layer window up to a fixed ceiling of primitive events
/// before forwarding the next boundary, so all layers present one trace
/// shape to whatever probe sits underneath.
struct PaddingProbe<'p> {
    inner: &'p mut dyn Probe,
    ceiling: ShapeCounts,
    current: ShapeCounts,
    /// False until the first layer boundary: the staging window (input
    /// copy-in) is input-size-static already and stays unpadded.
    in_layer: bool,
    /// Padding accesses made so far: the next walk starts at this
    /// element modulo the arena's length, so pad loads stream
    /// sequentially like real accesses, across windows too.
    cursor: u64,
}

/// The padding arena sits far from every real segment.
const PAD_BASE: u64 = 0xA000_0000;
const PAD_PC: u64 = 0x00F4_0000;
/// f32 entries in the padding arena (64 KiB).
const PAD_ARENA: u64 = 16 * 1024;

impl<'p> PaddingProbe<'p> {
    fn new(inner: &'p mut dyn Probe, ceiling: ShapeCounts) -> PaddingProbe<'p> {
        PaddingProbe {
            inner,
            ceiling,
            current: ShapeCounts::default(),
            in_layer: false,
            cursor: 0,
        }
    }

    /// Tops the current window up to the ceiling. Windows larger than the
    /// ceiling (impossible when the ceiling came from the same network)
    /// are left as-is.
    fn pad(&mut self) {
        self.walk(self.ceiling.loads.saturating_sub(self.current.loads), false);
        self.walk(
            self.ceiling.stores.saturating_sub(self.current.stores),
            true,
        );
        for _ in self.current.branches..self.ceiling.branches {
            self.inner.branch(PAD_PC + 0x40, false);
        }
        if self.current.alu < self.ceiling.alu {
            self.inner.alu(self.ceiling.alu - self.current.alu);
        }
        self.current = ShapeCounts::default();
    }

    /// `n` padding loads or stores walking the arena from the cursor, as
    /// one block that goes on from the arena's start when it reaches
    /// the arena's end.
    fn walk(&mut self, n: u64, write: bool) {
        self.inner.block(Block::Walk {
            base: PAD_BASE,
            stride: 4,
            pass: PAD_ARENA,
            start: self.cursor,
            count: n,
            pc: PAD_PC,
            write,
        });
        self.cursor += n;
    }

    /// Pads the final (still-open) layer window; call after the workload
    /// returns, since no trailing boundary closes it.
    fn flush(&mut self) {
        if self.in_layer {
            self.pad();
        }
    }
}

impl Probe for PaddingProbe<'_> {
    fn load(&mut self, addr: u64, pc: u64) {
        self.current.loads += 1;
        self.inner.load(addr, pc);
    }

    fn store(&mut self, addr: u64, pc: u64) {
        self.current.stores += 1;
        self.inner.store(addr, pc);
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.current.branches += 1;
        self.inner.branch(pc, taken);
    }

    fn alu(&mut self, n: u64) {
        self.current.alu += n;
        self.inner.alu(n);
    }

    fn block(&mut self, block: Block) {
        self.current.add_block(&block);
        self.inner.block(block);
    }

    fn layer_boundary(&mut self, index: usize) {
        if self.in_layer {
            self.pad();
        } else {
            self.in_layer = true;
            self.current = ShapeCounts::default();
        }
        self.inner.layer_boundary(index);
    }
}

/// A network wrapped with a countermeasure, usable wherever a
/// [`TracedClassifier`] is expected (i.e. by
/// [`collect`](crate::collect::collect)).
///
/// Construction *mutates* the wrapped network's kernel styles when the
/// countermeasure demands it; [`ProtectedModel::into_inner`] restores the
/// leaky kernels.
pub struct ProtectedModel {
    net: Network,
    countermeasure: Countermeasure,
    rng: ChaCha8Rng,
    /// Scratch region the dummy loads walk over (64 KiB of f32s).
    dummy_len: usize,
    /// Lazily measured per-layer padding ceiling (oblivious shape only);
    /// input-independent because the kernels are constant-time.
    ceiling: Option<ShapeCounts>,
}

impl std::fmt::Debug for ProtectedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProtectedModel")
            .field("countermeasure", &self.countermeasure)
            .field("net", &self.net)
            .finish_non_exhaustive()
    }
}

impl ProtectedModel {
    /// Wraps `net` with `countermeasure`; `seed` drives the dummy-work,
    /// shuffle and decoy generators.
    pub fn new(mut net: Network, countermeasure: Countermeasure, seed: u64) -> Self {
        if countermeasure.uses_constant_time() {
            net.set_constant_time(true);
        }
        ProtectedModel {
            net,
            countermeasure,
            rng: ChaCha8Rng::seed_from_u64(seed),
            dummy_len: 16 * 1024,
            ceiling: None,
        }
    }

    /// The active countermeasure.
    pub fn countermeasure(&self) -> Countermeasure {
        self.countermeasure
    }

    /// Read access to the wrapped network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Unwraps the network, restoring its leaky kernels and ordered
    /// access streams.
    pub fn into_inner(mut self) -> Network {
        self.net.set_constant_time(false);
        self.net.set_shuffle(None);
        self.net
    }

    fn inject_dummy_work(&mut self, probe: &mut dyn Probe) {
        let mean = self.countermeasure.dummy_events();
        if mean == 0 {
            return;
        }
        // Uniform in [mean − ⌊mean/2⌋, mean + ⌊mean/2⌋]: symmetric around
        // the mean (so the configured budget is what the t-test sees on
        // average, odd means included) and never zero — the count itself
        // is randomised so it does not become a constant offset the
        // t-test subtracts away, but some dummy work always runs.
        let half = mean / 2;
        let n = self.rng.gen_range((mean - half).max(1)..=mean + half);
        // Dummy arena sits far from real segments.
        const DUMMY_BASE: u64 = 0x9000_0000;
        const DUMMY_PC: u64 = 0x00F0_0000;
        for _ in 0..n {
            let i = self.rng.gen_range(0..self.dummy_len as u64);
            probe.load(DUMMY_BASE + i * 4, DUMMY_PC);
            probe.branch(DUMMY_PC + 0x40, self.rng.gen::<bool>());
        }
        probe.alu(n);
    }

    /// A synthetic decoy input shaped like `like`: roughly half the
    /// pixels are zero (so decoys exercise the zero-skip paths the way
    /// real inputs do), the rest uniform in (0, 1).
    fn synthetic_input(&mut self, like: &Tensor) -> Tensor {
        let data: Vec<f32> = (0..like.len())
            .map(|_| {
                if self.rng.gen::<bool>() {
                    0.0
                } else {
                    self.rng.gen_range(0.0f32..1.0)
                }
            })
            .collect();
        Tensor::from_vec(data, like.shape().clone())
            .expect("decoy shares the shape of a valid input")
    }

    /// The per-layer padding ceiling for oblivious execution: the
    /// element-wise max of every layer window's primitive counts,
    /// measured once by a silent pre-pass (input-independent under
    /// constant-time kernels).
    fn oblivious_ceiling(&mut self, image: &Tensor) -> Result<ShapeCounts, NnError> {
        if let Some(c) = self.ceiling {
            return Ok(c);
        }
        let mut counter = WindowCounter::default();
        self.net.classify_traced(image, &mut counter)?;
        let windows = counter.finish();
        let ceiling = windows
            .iter()
            .skip(1) // staging window stays unpadded
            .fold(ShapeCounts::default(), |acc, &w| acc.max(w));
        self.ceiling = Some(ceiling);
        Ok(ceiling)
    }
}

impl TracedClassifier for ProtectedModel {
    fn classify_traced(&mut self, image: &Tensor, probe: &mut dyn Probe) -> Result<usize, NnError> {
        match self.countermeasure {
            Countermeasure::Shuffle => {
                // A fresh permutation per inference: no two traces share
                // an access order.
                let seed = self.rng.gen::<u64>();
                self.net.set_shuffle(Some(seed));
                self.net.classify_traced(image, probe)
            }
            Countermeasure::DecoyInference { decoys } => {
                let position = self.rng.gen_range(0..=decoys);
                let mut prediction = None;
                for slot in 0..=decoys {
                    if slot == position {
                        prediction = Some(self.net.classify_traced(image, probe)?);
                    } else {
                        let decoy = self.synthetic_input(image);
                        let _ = self.net.classify_traced(&decoy, probe)?;
                    }
                }
                Ok(prediction.expect("the real inference always runs"))
            }
            Countermeasure::ObliviousShape => {
                let ceiling = self.oblivious_ceiling(image)?;
                let mut pad = PaddingProbe::new(probe, ceiling);
                let prediction = self.net.classify_traced(image, &mut pad)?;
                pad.flush();
                Ok(prediction)
            }
            _ => {
                let prediction = self.net.classify_traced(image, probe)?;
                self.inject_dummy_work(probe);
                Ok(prediction)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_nn::models;
    use scnn_uarch::CountingProbe;

    fn image(v: f32) -> Tensor {
        Tensor::full([1, 8, 8], v)
    }

    #[test]
    fn constant_time_preserves_predictions() {
        let mut plain = models::tiny_cnn(5);
        let mut protected =
            ProtectedModel::new(models::tiny_cnn(5), Countermeasure::ConstantTime, 1);
        for i in 0..5 {
            let img = image(0.1 * i as f32);
            let mut probe = CountingProbe::new();
            assert_eq!(
                protected.classify_traced(&img, &mut probe).unwrap(),
                plain.classify(&img).unwrap()
            );
        }
    }

    #[test]
    fn constant_time_footprint_is_input_independent() {
        let mut protected =
            ProtectedModel::new(models::tiny_cnn(5), Countermeasure::ConstantTime, 1);
        let counts = |p: &mut ProtectedModel, img: &Tensor| {
            let mut probe = CountingProbe::new();
            p.classify_traced(img, &mut probe).unwrap();
            (probe.loads, probe.stores, probe.branches)
        };
        let a = counts(&mut protected, &Tensor::zeros([1, 8, 8]));
        let b = counts(&mut protected, &image(0.7));
        assert_eq!(a, b, "constant-time kernels have shape-static footprints");
    }

    #[test]
    fn noise_injection_adds_random_work() {
        let mut protected = ProtectedModel::new(
            models::tiny_cnn(5),
            Countermeasure::NoiseInjection { dummy_events: 1000 },
            1,
        );
        let loads = |p: &mut ProtectedModel| {
            let mut probe = CountingProbe::new();
            p.classify_traced(&image(0.5), &mut probe).unwrap();
            probe.loads
        };
        let a = loads(&mut protected);
        let b = loads(&mut protected);
        assert_ne!(a, b, "dummy volume is randomised per inference");
        // Plain model for comparison.
        let plain = models::tiny_cnn(5);
        let mut probe = CountingProbe::new();
        plain.classify_traced(&image(0.5), &mut probe).unwrap();
        assert!(
            a > probe.loads + 400,
            "dummy loads visible: {a} vs {}",
            probe.loads
        );
    }

    #[test]
    fn dummy_work_is_mean_preserving_and_never_empty() {
        // Regression: gen_range(mean/2..=mean+mean/2) could draw n = 0
        // for mean == 1 (injecting nothing) and biased odd means low.
        let plain_loads = {
            let plain = models::tiny_cnn(3);
            let mut probe = CountingProbe::new();
            plain.classify_traced(&image(0.5), &mut probe).unwrap();
            probe.loads
        };
        for mean in [1u64, 2, 3, 5, 9] {
            let mut protected = ProtectedModel::new(
                models::tiny_cnn(3),
                Countermeasure::NoiseInjection { dummy_events: mean },
                0xD0,
            );
            let rounds = 400;
            let mut total = 0u64;
            for _ in 0..rounds {
                let mut probe = CountingProbe::new();
                protected.classify_traced(&image(0.5), &mut probe).unwrap();
                let n = probe.loads - plain_loads;
                assert!(n >= 1, "mean {mean}: an inference injected no dummy work");
                assert!(n <= mean + mean / 2, "mean {mean}: drew {n} above range");
                total += n;
            }
            let avg = total as f64 / rounds as f64;
            assert!(
                (avg - mean as f64).abs() < 0.2 + mean as f64 * 0.05,
                "mean {mean}: empirical average {avg} off target"
            );
        }
    }

    #[test]
    fn shuffle_preserves_predictions_and_permutes_traces() {
        #[derive(Default)]
        struct AddrProbe {
            addrs: Vec<u64>,
        }
        impl Probe for AddrProbe {
            fn load(&mut self, addr: u64, _pc: u64) {
                self.addrs.push(addr);
            }
        }
        let mut plain = models::tiny_cnn(5);
        let mut protected = ProtectedModel::new(models::tiny_cnn(5), Countermeasure::Shuffle, 2);
        let img = image(0.4);
        let mut first = AddrProbe::default();
        let mut second = AddrProbe::default();
        let p1 = protected.classify_traced(&img, &mut first).unwrap();
        let p2 = protected.classify_traced(&img, &mut second).unwrap();
        assert_eq!(p1, plain.classify(&img).unwrap());
        assert_eq!(p2, p1, "shuffling never changes the numbers");
        assert_eq!(
            first.addrs.len(),
            second.addrs.len(),
            "shuffling permutes the stream, it adds nothing"
        );
        assert_ne!(
            first.addrs, second.addrs,
            "each inference draws a fresh permutation"
        );
    }

    #[test]
    fn decoy_inference_multiplies_work_and_keeps_the_prediction() {
        let mut plain = models::tiny_cnn(5);
        let mut protected = ProtectedModel::new(
            models::tiny_cnn(5),
            Countermeasure::DecoyInference { decoys: 2 },
            3,
        );
        let img = image(0.6);
        let plain_loads = {
            let mut probe = CountingProbe::new();
            plain.classify_traced(&img, &mut probe).unwrap();
            probe.loads
        };
        let mut probe = CountingProbe::new();
        let prediction = protected.classify_traced(&img, &mut probe).unwrap();
        assert_eq!(prediction, plain.classify(&img).unwrap());
        assert!(
            probe.loads > 2 * plain_loads,
            "2 decoys roughly triple the trace: {} vs {plain_loads}",
            probe.loads
        );
    }

    #[test]
    fn oblivious_shape_equalises_layer_windows() {
        let mut protected =
            ProtectedModel::new(models::tiny_cnn(5), Countermeasure::ObliviousShape, 4);
        let windows_of = |p: &mut ProtectedModel, img: &Tensor| {
            let mut counter = WindowCounter::default();
            p.classify_traced(img, &mut counter).unwrap();
            counter.finish()
        };
        let windows = windows_of(&mut protected, &image(0.3));
        // Skip the staging window; every layer window shares one shape.
        let layers = &windows[1..];
        assert!(layers.len() > 1, "tiny CNN has several layers");
        for w in layers {
            assert_eq!(w, &layers[0], "all layer windows share one shape");
        }
        // And the shape is input-independent (whole-trace totals too).
        let other = windows_of(&mut protected, &Tensor::zeros([1, 8, 8]));
        assert_eq!(windows, other);
    }

    #[test]
    fn into_inner_restores_leaky_kernels() {
        let protected = ProtectedModel::new(models::tiny_cnn(5), Countermeasure::ConstantTime, 1);
        let net = protected.into_inner();
        // Leaky again: zero vs dense inputs give different footprints.
        let counts = |img: &Tensor| {
            let mut probe = CountingProbe::new();
            net.classify_traced(img, &mut probe).unwrap();
            probe.loads
        };
        assert_ne!(counts(&Tensor::zeros([1, 8, 8])), counts(&image(0.9)));
    }

    #[test]
    fn padding_walks_the_arena_as_one_block_per_walk() {
        #[derive(Default)]
        struct Recorder {
            accesses: Vec<(u64, bool)>,
            walks: Vec<(u64, u64, bool)>,
        }
        impl Probe for Recorder {
            fn load(&mut self, addr: u64, _pc: u64) {
                self.accesses.push((addr, false));
            }
            fn store(&mut self, addr: u64, _pc: u64) {
                self.accesses.push((addr, true));
            }
            fn block(&mut self, block: Block) {
                if let Block::Walk {
                    base,
                    stride,
                    pass,
                    start,
                    count,
                    pc,
                    write,
                } = block
                {
                    assert_eq!((base, stride, pass, pc), (PAD_BASE, 4, PAD_ARENA, PAD_PC));
                    self.walks.push((start, count, write));
                }
                block.replay(self);
            }
        }
        let ceiling = ShapeCounts {
            loads: PAD_ARENA + 100,
            stores: 3,
            ..ShapeCounts::default()
        };
        let mut inner = Recorder::default();
        let mut pad = PaddingProbe::new(&mut inner, ceiling);
        pad.layer_boundary(0);
        pad.load(0x10, 0x20);
        pad.layer_boundary(1);
        pad.flush();
        // The per-element walk: one arena slot per padding access, the
        // cursor carried from loads to stores and across windows.
        let mut expected = vec![(0x10, false)];
        let mut cursor = 0;
        for (loads, stores) in [(PAD_ARENA + 99, 3), (PAD_ARENA + 100, 3)] {
            for (n, write) in [(loads, false), (stores, true)] {
                for _ in 0..n {
                    expected.push((PAD_BASE + cursor % PAD_ARENA * 4, write));
                    cursor += 1;
                }
            }
        }
        assert_eq!(inner.accesses, expected);
        assert_eq!(
            inner.walks,
            [
                (0, PAD_ARENA + 99, false),
                (PAD_ARENA + 99, 3, true),
                (PAD_ARENA + 102, PAD_ARENA + 100, false),
                (2 * PAD_ARENA + 202, 3, true),
            ]
        );
    }

    #[test]
    fn accessors() {
        let cm = Countermeasure::Combined { dummy_events: 10 };
        assert!(cm.uses_constant_time());
        assert_eq!(cm.dummy_events(), 10);
        assert!(!Countermeasure::NoiseInjection { dummy_events: 5 }.uses_constant_time());
        assert_eq!(Countermeasure::ConstantTime.dummy_events(), 0);
        assert!(Countermeasure::Shuffle.uses_shuffle());
        assert!(!Countermeasure::Shuffle.uses_constant_time());
        assert!(Countermeasure::ObliviousShape.uses_constant_time());
        assert_eq!(Countermeasure::DecoyInference { decoys: 4 }.decoys(), 4);
        assert_eq!(Countermeasure::ConstantTime.decoys(), 0);
        let calibrated = Countermeasure::CalibratedNoise {
            target_t: 1.5,
            dummy_events: 4096,
        };
        assert_eq!(calibrated.dummy_events(), 4096);
        assert!(!calibrated.uses_constant_time());
        let p = ProtectedModel::new(models::tiny_cnn(1), cm, 9);
        assert_eq!(p.countermeasure(), cm);
        assert!(!p.network().is_empty());
    }
}
