//! Every preset of the uarch zoo, simulated by the flat production core
//! and by the nested-`Vec` reference model of `scnn-uarch`'s differential
//! tests, must produce identical counter snapshots: after every event of
//! a seeded inference-shaped stream (with cold starts, counter resets and
//! pollution interleaved), at every layer boundary of the recorded event
//! stream of a real traced inference, and in every per-layer window the
//! simulated PMU measures while the traced kernels hand the production
//! core their blocks whole.

#[path = "../../uarch/tests/reference/mod.rs"]
mod reference;

use reference::{apply, assert_cores_agree, core_ops, CoreOp, RefCore};
use scnn_core::zoo::zoo;
use scnn_core::{Countermeasure, ProtectedModel, TracedClassifier};
use scnn_hpc::{SimPmuConfig, SimulatedPmu};
use scnn_nn::{models, Network};
use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_tensor::Tensor;
use scnn_uarch::{Block, CounterSnapshot, NoiseConfig, Probe};

#[test]
fn every_zoo_preset_matches_the_reference_core() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x200_d1ff);
    for preset in zoo() {
        let ops = core_ops(&mut rng, 20_000);
        let mut core = preset.build().unwrap();
        let mut reference = RefCore::new(preset.core);
        assert_cores_agree(&preset.name, &mut core, &mut reference, &ops);
    }
}

/// Records a traced inference as replayable ops, noting where each layer
/// starts. Blocks take the trait's default: one op per event.
#[derive(Default)]
struct Recorder {
    ops: Vec<CoreOp>,
    /// `ops.len()` at each layer boundary.
    boundaries: Vec<usize>,
}

impl Probe for Recorder {
    fn load(&mut self, addr: u64, pc: u64) {
        self.ops.push(CoreOp::Load(addr, pc));
    }

    fn store(&mut self, addr: u64, pc: u64) {
        self.ops.push(CoreOp::Store(addr, pc));
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.ops.push(CoreOp::Branch(pc, taken));
    }

    fn alu(&mut self, n: u64) {
        self.ops.push(CoreOp::Alu(n));
    }

    fn layer_boundary(&mut self, _index: usize) {
        self.boundaries.push(self.ops.len());
    }
}

/// An image-like input: mostly zero background, bright strokes elsewhere.
fn image(rng: &mut ChaCha8Rng, dims: [usize; 3]) -> Tensor {
    let data = (0..dims.iter().product())
        .map(|_| {
            if rng.gen_range(0u32..10) < 7 {
                0.0
            } else {
                rng.gen_range(0.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(data, dims).unwrap()
}

#[test]
fn every_zoo_preset_matches_the_reference_core_on_a_traced_inference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x200_d200);
    let victims: [(&str, Network, [usize; 3]); 2] = [
        ("mnist_cnn", models::mnist_cnn(7), [1, 28, 28]),
        ("cifar_cnn", models::cifar_cnn(7), [3, 32, 32]),
    ];
    for (model, net, dims) in victims {
        let mut recorder = Recorder::default();
        net.infer_traced(&image(&mut rng, dims), &mut recorder)
            .unwrap();
        assert!(
            recorder.boundaries.len() >= net.len(),
            "{model}: every layer reports its boundary"
        );
        for preset in zoo() {
            let mut core = preset.build().unwrap();
            let mut reference = RefCore::new(preset.core);
            let mut start = 0;
            for &end in recorder.boundaries.iter().chain([&recorder.ops.len()]) {
                for &op in &recorder.ops[start..end] {
                    apply(&mut core, &mut reference, op);
                }
                assert_eq!(
                    core.snapshot(),
                    reference.snapshot(),
                    "{model} on {}: after op {end}",
                    preset.name
                );
                start = end;
            }
        }
    }
}

/// Forwards every event to `inner`, blocks whole, and records it
/// in `recorder`, one op per event.
struct Tee<'p> {
    inner: &'p mut dyn Probe,
    recorder: &'p mut Recorder,
}

impl Probe for Tee<'_> {
    fn load(&mut self, addr: u64, pc: u64) {
        self.inner.load(addr, pc);
        self.recorder.load(addr, pc);
    }

    fn store(&mut self, addr: u64, pc: u64) {
        self.inner.store(addr, pc);
        self.recorder.store(addr, pc);
    }

    fn block(&mut self, block: Block) {
        self.inner.block(block);
        self.recorder.block(block);
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.inner.branch(pc, taken);
        self.recorder.branch(pc, taken);
    }

    fn alu(&mut self, n: u64) {
        self.inner.alu(n);
        self.recorder.alu(n);
    }

    fn layer_boundary(&mut self, index: usize) {
        self.inner.layer_boundary(index);
        self.recorder.layer_boundary(index);
    }
}

#[test]
fn traced_runs_through_the_pmu_match_the_reference_core_on_every_preset() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x200_d300);
    let victims: [(&str, Network, [usize; 3]); 3] = [
        ("mnist_cnn", models::mnist_cnn(7), [1, 28, 28]),
        ("cifar_cnn", models::cifar_cnn(7), [3, 32, 32]),
        ("mnist_mlp", models::mnist_mlp(1, 28, 7), [1, 28, 28]),
    ];
    for (model, net, dims) in victims {
        let image = image(&mut rng, dims);
        for variant in ["baseline", "constant-time", "oblivious"] {
            for preset in zoo() {
                let case = format!("{model}, {variant}, {}", preset.name);
                let config = SimPmuConfig {
                    core: preset.core,
                    noise: NoiseConfig::quiet(),
                    ..SimPmuConfig::default()
                };
                let mut pmu = SimulatedPmu::new(config, 5).unwrap();
                let mut victim: Box<dyn TracedClassifier> = match variant {
                    "baseline" => Box::new(net.clone()),
                    "constant-time" => Box::new(ProtectedModel::new(
                        net.clone(),
                        Countermeasure::ConstantTime,
                        1,
                    )),
                    _ => Box::new(ProtectedModel::new(
                        net.clone(),
                        Countermeasure::ObliviousShape,
                        1,
                    )),
                };
                let mut recorder = Recorder::default();
                let windows = pmu.measure_layers(&mut |probe| {
                    let mut tee = Tee {
                        inner: probe,
                        recorder: &mut recorder,
                    };
                    victim.classify_traced(&image, &mut tee).unwrap();
                });
                assert_eq!(windows.len(), recorder.boundaries.len() + 1, "{case}");

                // The reference replays the recorded events on a cold core
                // and cuts the same windows: quiet noise only recomputes
                // reference and bus cycles from each window's cycles.
                let mut reference = RefCore::new(preset.core);
                let mut prev = CounterSnapshot::default();
                let mut start = 0;
                let ends = recorder.boundaries.iter().copied();
                for (window, end) in windows.iter().zip(ends.chain([recorder.ops.len()])) {
                    for &op in &recorder.ops[start..end] {
                        reference::apply_to(&mut reference, op);
                    }
                    let mark = reference.snapshot();
                    let mut want = mark.delta(&prev);
                    want.ref_cycles = preset.core.cycles.ref_cycles(want.cycles);
                    want.bus_cycles = preset.core.cycles.bus_cycles(want.cycles);
                    assert_eq!(*window, want, "{case}: window ending at op {end}");
                    prev = mark;
                    start = end;
                }
            }
        }
    }
}
