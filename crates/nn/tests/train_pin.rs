//! Training-trajectory pin: the case-study models, trained on small
//! synthetic sets, must serialize to exactly the bytes recorded here.
//!
//! The training kernels are free to change their schedule (tiling,
//! packing, which gradients they skip) but never their rounding: every
//! parameter update is a fixed sequence of `f32` operations, so the model
//! bytes after training are a pure function of (architecture, seed, data,
//! config). The digests below were recorded before the lane-tiled
//! weight-gradient kernel, the cached conv lowering and the
//! parameter-only backward went in, and any of those changing a single
//! bit of a single weight fails this test.
//!
//! Each model is trained twice: per-example SGD (`batch_size: 1`, the
//! paper's loop) and minibatch SGD (`batch_size: 4`, the batched
//! forward/backward path).

use scnn_nn::models;
use scnn_nn::train::{train, Sample, TrainConfig};
use scnn_nn::Network;
use scnn_par::Threads;
use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_tensor::Tensor;

/// Samples per synthetic set: two per class.
const SAMPLES: usize = 20;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A small labelled set of `[c, side, side]` images: a class-dependent
/// bright band (row band for even classes, column band for odd ones) over
/// a mostly-zero background with sparse noise — the sparse, class-shaped
/// regime the zero-skipping kernels see on MNIST.
fn synthetic(c: usize, side: usize, seed: u64) -> Vec<Sample> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..SAMPLES)
        .map(|i| {
            let label = i % 10;
            let band = 2 + (label / 2) * (side - 4) / 5;
            let mut data = vec![0.0f32; c * side * side];
            for ch in 0..c {
                for y in 0..side {
                    for x in 0..side {
                        let along = if label % 2 == 0 { y } else { x };
                        let v = if along.abs_diff(band) <= 1 {
                            rng.gen_range(0.5f32..1.0)
                        } else if rng.gen_range(0u32..10) == 0 {
                            rng.gen_range(0.05f32..0.5)
                        } else {
                            0.0
                        };
                        data[(ch * side + y) * side + x] = v;
                    }
                }
            }
            (Tensor::from_vec(data, [c, side, side]).unwrap(), label)
        })
        .collect()
}

/// Trains `net` for two epochs at `batch_size` and returns the digest of
/// its serialized bytes.
fn trained_digest(mut net: Network, samples: &[Sample], batch_size: usize) -> u64 {
    let config = TrainConfig {
        epochs: 2,
        batch_size,
        threads: Threads::Count(2),
        ..TrainConfig::default()
    };
    train(&mut net, samples, &config).unwrap();
    fnv1a64(&net.to_bytes())
}

#[test]
fn mnist_cnn_trajectory_is_pinned() {
    let samples = synthetic(1, 28, 0x7a1);
    assert_eq!(
        trained_digest(models::mnist_cnn(11), &samples, 1),
        0x388e_3699_01ee_52d4,
        "mnist_cnn, batch_size 1"
    );
    assert_eq!(
        trained_digest(models::mnist_cnn(11), &samples, 4),
        0x3f07_a1a9_e4db_3c56,
        "mnist_cnn, batch_size 4"
    );
}

#[test]
fn cifar_cnn_trajectory_is_pinned() {
    let samples = synthetic(3, 32, 0x7a2);
    assert_eq!(
        trained_digest(models::cifar_cnn(12), &samples, 1),
        0x5755_3f0d_6fcf_cf72,
        "cifar_cnn, batch_size 1"
    );
    assert_eq!(
        trained_digest(models::cifar_cnn(12), &samples, 4),
        0xdd6a_38fb_4199_66a7,
        "cifar_cnn, batch_size 4"
    );
}

#[test]
fn mnist_mlp_trajectory_is_pinned() {
    let samples = synthetic(1, 28, 0x7a3);
    assert_eq!(
        trained_digest(models::mnist_mlp(1, 28, 13), &samples, 1),
        0x5995_1329_2133_e669,
        "mnist_mlp, batch_size 1"
    );
    assert_eq!(
        trained_digest(models::mnist_mlp(1, 28, 13), &samples, 4),
        0x890b_69d8_3036_2c02,
        "mnist_mlp, batch_size 4"
    );
}
