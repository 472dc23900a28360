//! Oblivious-shape padding reaches the simulator as access runs. On
//! every zoo preset, the per-layer windows of a padded inference must be
//! the same whether the simulator takes the runs whole or one access at
//! a time.

use scnn_core::zoo::zoo;
use scnn_core::{Countermeasure, ProtectedModel, TracedClassifier};
use scnn_hpc::{SimPmuConfig, SimulatedPmu};
use scnn_nn::models;
use scnn_tensor::Tensor;
use scnn_uarch::{CounterSnapshot, NoiseConfig, Probe};

/// Forwards single events only, so runs take the trait's per-element
/// default.
struct PerElement<'p>(&'p mut dyn Probe);

impl Probe for PerElement<'_> {
    fn load(&mut self, addr: u64, pc: u64) {
        self.0.load(addr, pc);
    }

    fn store(&mut self, addr: u64, pc: u64) {
        self.0.store(addr, pc);
    }

    fn branch(&mut self, pc: u64, taken: bool) {
        self.0.branch(pc, taken);
    }

    fn alu(&mut self, n: u64) {
        self.0.alu(n);
    }

    fn layer_boundary(&mut self, index: usize) {
        self.0.layer_boundary(index);
    }
}

/// Windows of a padded inference, with or without the runs.
fn windows(config: SimPmuConfig, per_element: bool) -> Vec<CounterSnapshot> {
    let mut pmu = SimulatedPmu::new(config, 3).unwrap();
    let mut model = ProtectedModel::new(models::mnist_cnn(7), Countermeasure::ObliviousShape, 1);
    let image = Tensor::full([1, 28, 28], 0.5);
    pmu.measure_layers(&mut |probe| {
        let result = if per_element {
            model.classify_traced(&image, &mut PerElement(probe))
        } else {
            model.classify_traced(&image, probe)
        };
        result.unwrap();
    })
}

#[test]
fn padding_runs_match_per_element_padding_on_every_preset() {
    for preset in zoo() {
        let config = SimPmuConfig {
            core: preset.core,
            noise: NoiseConfig::quiet(),
            ..SimPmuConfig::default()
        };
        let runs = windows(config, false);
        assert!(runs.len() > 2, "{}: one window per layer", preset.name);
        assert_eq!(runs, windows(config, true), "{}", preset.name);
    }
}
