//! Simulated-count pin: the per-layer counter windows of fixed-seed
//! traced inferences must hash to exactly the digests recorded here.
//!
//! The traced kernels and the simulator are free to change how they
//! deliver and apply the event stream (runs, closed forms, memos, way
//! hints) but never what the simulated PMU counts. Each case is one of
//! the case-study models, on one zoo preset, unprotected, with
//! constant-time kernels, or with oblivious-shape padding; its digest
//! covers every field of every per-layer `CounterSnapshot` of two
//! cold-start inferences. The digests were recorded before the
//! multiply-accumulate runs went in.

use scnn_core::zoo::zoo;
use scnn_core::{Countermeasure, ProtectedModel, TracedClassifier};
use scnn_hpc::{SimPmuConfig, SimulatedPmu};
use scnn_nn::{models, Network};
use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_tensor::Tensor;
use scnn_uarch::{CounterSnapshot, NoiseConfig};

/// 64-bit FNV-1a, folded over `words` little-endian.
fn fnv1a64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fields(s: &CounterSnapshot) -> [u64; 16] {
    [
        s.instructions,
        s.loads,
        s.stores,
        s.branches,
        s.branch_misses,
        s.l1d_accesses,
        s.l1d_misses,
        s.l2_accesses,
        s.l2_misses,
        s.llc_references,
        s.llc_misses,
        s.dtlb_misses,
        s.prefetches,
        s.cycles,
        s.ref_cycles,
        s.bus_cycles,
    ]
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

/// The models of the pin with their input shapes.
fn victims() -> [(&'static str, Network, [usize; 3]); 3] {
    [
        ("mnist_cnn", models::mnist_cnn(7), [1, 28, 28]),
        ("cifar_cnn", models::cifar_cnn(7), [3, 32, 32]),
        ("mnist_mlp", models::mnist_mlp(1, 28, 7), [1, 28, 28]),
    ]
}

/// The classifier of `variant` around `net`.
fn classifier(net: Network, variant: &str) -> Box<dyn TracedClassifier> {
    match variant {
        "baseline" => Box::new(net),
        "constant-time" => Box::new(ProtectedModel::new(net, Countermeasure::ConstantTime, 1)),
        "oblivious" => Box::new(ProtectedModel::new(net, Countermeasure::ObliviousShape, 1)),
        other => panic!("no variant {other}"),
    }
}

/// Digest of every per-layer window of two cold-start inferences of
/// `model` under `variant`, on each zoo preset in display order.
fn digests(model: &str, variant: &str) -> Vec<(String, u64)> {
    let (_, net, dims) = victims()
        .into_iter()
        .find(|(name, ..)| *name == model)
        .unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0_0917);
    let images = [image(&mut rng, dims), image(&mut rng, dims)];
    zoo()
        .into_iter()
        .map(|preset| {
            let config = SimPmuConfig {
                core: preset.core,
                noise: NoiseConfig::quiet(),
                ..SimPmuConfig::default()
            };
            let mut pmu = SimulatedPmu::new(config, 5).unwrap();
            let mut victim = classifier(net.clone(), variant);
            let mut words = Vec::new();
            for image in &images {
                let windows = pmu.measure_layers(&mut |probe| {
                    victim.classify_traced(image, probe).unwrap();
                });
                words.push(windows.len() as u64);
                words.extend(windows.iter().flat_map(fields));
            }
            (preset.name, fnv1a64(words))
        })
        .collect()
}

/// Checks `model` against its pinned digests: per variant, one per zoo
/// preset in display order.
fn check(model: &str, pins: [(&str, [u64; 4]); 3]) {
    for (variant, pinned) in pins {
        let want: Vec<(String, u64)> = ["xeon-like", "mobile-like", "embedded-like", "xeon-plru"]
            .into_iter()
            .map(String::from)
            .zip(pinned)
            .collect();
        assert_eq!(digests(model, variant), want, "{model}, {variant}");
    }
}

#[test]
fn mnist_cnn_counts_are_pinned() {
    #[rustfmt::skip]
    let pins = [
        ("baseline", [0x2058_0e11_0e82_6507, 0xd87a_117e_ff97_08a9, 0xb5b4_497d_6a33_66af, 0x69e0_e0fd_18a9_da4d]),
        ("constant-time", [0x3c50_c030_a846_c60d, 0x7a8f_e831_dfc7_b510, 0x30d6_05ff_fd78_80e9, 0xa892_d37d_a27e_5a81]),
        ("oblivious", [0x1c0a_213d_ad63_6bde, 0x9aef_45de_9c9e_845b, 0xcac1_0b67_d514_8549, 0x12c9_2660_4943_2739]),
    ];
    check("mnist_cnn", pins);
}

#[test]
fn cifar_cnn_counts_are_pinned() {
    #[rustfmt::skip]
    let pins = [
        ("baseline", [0x1567_2dad_7990_a8a1, 0x3d74_9237_1814_fffa, 0x32c6_1e14_ff80_e13e, 0xc232_9bbf_86df_6dc0]),
        ("constant-time", [0xa0e8_07a7_9a65_4bac, 0x07f3_bb6c_06da_06d0, 0x65bf_0a27_083b_df7d, 0xd88c_2e79_4386_f34c]),
        ("oblivious", [0x8c6c_6b83_827b_297d, 0x9b71_93df_d496_8759, 0x689d_b51f_62fa_9e07, 0xa442_3dd4_386b_9fe8]),
    ];
    check("cifar_cnn", pins);
}

#[test]
fn mnist_mlp_counts_are_pinned() {
    #[rustfmt::skip]
    let pins = [
        ("baseline", [0x8aeb_57e9_1714_dfa4, 0x75df_3d25_14b8_4035, 0xa8fb_b6f2_b438_6c1d, 0x8481_dbed_d6a0_b170]),
        ("constant-time", [0x8125_2eef_7269_8a37, 0xb5af_1b16_f6d5_1c5c, 0x4771_4d1f_ea57_fcf9, 0xe8de_ad29_c469_6b43]),
        ("oblivious", [0x0bb7_f992_0e5f_299e, 0x4958_3b1d_7957_7224, 0x46f1_1a49_82a4_baa9, 0x496a_7224_c888_501e]),
    ];
    check("mnist_mlp", pins);
}
