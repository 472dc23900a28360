//! Oblivious-shape padding reaches the simulator as arena walks. On
//! every zoo preset, the per-layer windows of a padded inference, and
//! the whole simulator state after padding-shaped arena walks, must be
//! the same whether the simulator takes the walks whole (skipping the
//! whole passes that repeat) or one access at a time.

use scnn_core::zoo::zoo;
use scnn_core::{Countermeasure, ProtectedModel, TracedClassifier};
use scnn_hpc::{SimPmuConfig, SimulatedPmu};
use scnn_nn::models;
use scnn_tensor::Tensor;
use scnn_uarch::{Block, CoreSim, CounterSnapshot, NoiseConfig, Probe};

/// Forwards single events only, so blocks take the trait's per-element
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

/// Windows of a padded inference, with or without the walks.
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
fn padding_walks_match_per_element_padding_on_every_preset() {
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

/// Elements of the walked arena: 64 KiB of 4-byte elements, twice a
/// 32 KiB L1, so every pass misses L1 and finds its lines in L2 and L3.
const ARENA: u64 = 16 * 1024;

/// Load and store site of the arena walks.
const WALK_PC: u64 = 0xf4_0000;

/// `n` 4-byte loads or stores walking the arena of `pass` elements at
/// `base` from element `*cursor`, as one block, as padding walks.
fn walk(probe: &mut dyn Probe, base: u64, pass: u64, cursor: &mut u64, n: u64, write: bool) {
    probe.block(Block::Walk {
        base,
        stride: 4,
        pass,
        start: *cursor,
        count: n,
        pc: WALK_PC,
        write,
    });
    *cursor = (*cursor + n) % pass;
}

/// Walks of `(accesses, write)` over an arena of `pass` elements at each
/// base, on a core that takes them whole and on one that takes them one
/// access at a time, with stray traffic between walks: a load from
/// another site and a store into the arena. Both cores must agree after
/// every walk, in counts and in state.
fn assert_walks_match(pass: u64, walks: &[(u64, bool)]) {
    for preset in zoo() {
        for base in [0x7f00_0000, 0x7f00_0000 + 36] {
            let mut fast = CoreSim::new(preset.core).unwrap();
            let mut slow = CoreSim::new(preset.core).unwrap();
            let (mut fast_cursor, mut slow_cursor) = (0, 0);
            for (step, &(n, write)) in walks.iter().enumerate() {
                walk(&mut fast, base, pass, &mut fast_cursor, n, write);
                walk(
                    &mut PerElement(&mut slow),
                    base,
                    pass,
                    &mut slow_cursor,
                    n,
                    write,
                );
                let stray = base + (step as u64 * 4_100) % (pass * 4);
                for core in [&mut fast, &mut slow] {
                    core.load(0x10_0000 + step as u64 * 64, 0x40_0100);
                    core.store(stray, 0x40_0140);
                }
                let case = format!("{} base {base:#x} arena {pass} walk {step}", preset.name);
                assert_eq!(fast.snapshot(), slow.snapshot(), "{case}");
                assert!(
                    fast.hierarchy() == slow.hierarchy() && fast.tlb() == slow.tlb(),
                    "{case}: walks left another state than per-element accesses"
                );
            }
        }
    }
}

#[test]
fn arena_walks_match_per_element_accesses_on_every_preset() {
    // Loads and stores by turns, each going round the arena 30 times or
    // more from where the last walk stopped (mid-arena), and walks of
    // less than a pass; the second base starts the arena mid-line.
    assert_walks_match(
        ARENA,
        &[
            (30 * ARENA + 4_000, false),
            (31 * ARENA + 9, true),
            (30_000, false),
            (ARENA - 3, true),
            (32 * ARENA + 77, false),
            (30 * ARENA, true),
        ],
    );
}

#[test]
fn arena_walks_larger_than_l2_match_per_element_accesses_on_every_preset() {
    // 1 MiB, more than every preset's L2: each pass misses L2, so no
    // pass may be skipped.
    assert_walks_match(
        256 * 1024,
        &[(4 * 256 * 1024 + 10, false), (5 * 256 * 1024, true)],
    );
}
