//! Batch-size invariance of the numeric path.
//!
//! Every layer has one numeric forward and backward, over `[N, …]`
//! batches; a lone sample is a batch of one. The property pinned here,
//! for every layer kind and for whole networks: row `s` of an N-batch
//! forward equals sample `s` run as a batch of one, and one N-batch
//! backward returns the same input-gradient rows and accumulates the
//! same parameter gradients as the N batches of one run in order without
//! zeroing in between. Equal means equal bits (`f32::to_bits`), so not
//! even the sign of a zero may depend on the batch size.
//!
//! Batch sizes cover the ragged cases a fixed sub-batch width produces
//! (`N = 1`, a prime, and a non-divisor remainder).

use scnn_nn::batch::stack;
use scnn_nn::prelude::*;
use scnn_nn::{models, Layer};
use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_tensor::Tensor;

const BATCH_SIZES: [usize; 3] = [1, 3, 7];

/// Mixed sparse/dense tensor: ~60% exact zeros, the paper's leaky regime,
/// where signed zeros are most likely to show a difference.
fn sparse(rng: &mut ChaCha8Rng, dims: &[usize]) -> Tensor {
    let len: usize = dims.iter().product();
    let data: Vec<f32> = (0..len)
        .map(|_| {
            if rng.gen_range(0u32..5) < 3 {
                0.0
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(data, dims.to_vec()).unwrap()
}

fn one(x: &Tensor) -> Tensor {
    stack(&[x]).unwrap()
}

fn batch(xs: &[Tensor]) -> Tensor {
    stack(&xs.iter().collect::<Vec<_>>()).unwrap()
}

/// Asserts that `got` is the batches of one in `rows`, stacked: same
/// dims (`N` rows of the same sample shape) and the same bits.
fn assert_rows_equal(got: &Tensor, rows: &[Tensor], what: &str) {
    assert_eq!(got.dims()[0], rows.len(), "{what}: batch size");
    for row in rows {
        assert_eq!(&got.dims()[1..], &row.dims()[1..], "{what}: sample shape");
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want: Vec<f32> = rows.iter().flat_map(|r| r.as_slice().to_vec()).collect();
    assert_eq!(bits(got.as_slice()), bits(&want), "{what}: bits");
}

fn grad_bits(params: Vec<&mut scnn_nn::Param>) -> Vec<u32> {
    params
        .iter()
        .flat_map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()))
        .collect()
}

/// Drives `single` with each sample as a batch of one and `batched` over
/// the stacked batch, then checks forward rows, input-gradient rows and
/// accumulated parameter gradients.
fn assert_batch_invariant(
    mut single: Box<dyn Layer>,
    mut batched: Box<dyn Layer>,
    inputs: &[Tensor],
    grads: &[Tensor],
) {
    let mut want_out = Vec::with_capacity(inputs.len());
    let mut want_dx = Vec::with_capacity(inputs.len());
    for (x, g) in inputs.iter().zip(grads) {
        want_out.push(single.forward(&one(x), Mode::Train).unwrap());
        want_dx.push(single.backward(&one(g)).unwrap());
    }
    let out = batched.forward(&batch(inputs), Mode::Train).unwrap();
    let dx = batched.backward(&batch(grads)).unwrap();

    let name = single.name();
    let n = inputs.len();
    assert_rows_equal(&out, &want_out, &format!("{name} forward, N = {n}"));
    assert_rows_equal(&dx, &want_dx, &format!("{name} backward, N = {n}"));
    assert_eq!(
        grad_bits(batched.params_mut()),
        grad_bits(single.params_mut()),
        "{name}: accumulated parameter gradients, N = {n}"
    );
}

#[test]
fn dense_is_batch_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c01);
    // Small, and past one GEMM block in depth (k > 128) and in width
    // (n > 256), with ragged register tiles.
    for (in_dim, out_dim) in [(9, 5), (200, 37), (20, 270)] {
        for style in [DenseStyle::ZeroSkip, DenseStyle::Dense] {
            for n in BATCH_SIZES {
                let inputs: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[in_dim])).collect();
                let grads: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[out_dim])).collect();
                assert_batch_invariant(
                    Box::new(Dense::new(in_dim, out_dim, style, 3)),
                    Box::new(Dense::new(in_dim, out_dim, style, 3)),
                    &inputs,
                    &grads,
                );
            }
        }
    }
}

#[test]
fn conv_is_batch_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c02);
    for n in BATCH_SIZES {
        let inputs: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[2, 6, 6])).collect();
        let grads: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[3, 4, 4])).collect();
        assert_batch_invariant(
            Box::new(Conv2d::new(2, 3, 3, ConvStyle::ZeroSkip, 7)),
            Box::new(Conv2d::new(2, 3, 3, ConvStyle::ZeroSkip, 7)),
            &inputs,
            &grads,
        );
        // And with bias disabled, as the case-study models configure it.
        let inputs: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[1, 5, 5])).collect();
        let grads: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[2, 3, 3])).collect();
        assert_batch_invariant(
            Box::new(Conv2d::new(1, 2, 3, ConvStyle::Dense, 11).without_bias()),
            Box::new(Conv2d::new(1, 2, 3, ConvStyle::Dense, 11).without_bias()),
            &inputs,
            &grads,
        );
    }
}

#[test]
fn pool_is_batch_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c03);
    for n in BATCH_SIZES {
        let inputs: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[2, 6, 6])).collect();
        let grads: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[2, 3, 3])).collect();
        assert_batch_invariant(
            Box::new(MaxPool2d::new(2)),
            Box::new(MaxPool2d::new(2)),
            &inputs,
            &grads,
        );
    }
}

#[test]
fn relu_is_batch_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c04);
    for style in [ReluStyle::Branchy, ReluStyle::Branchless] {
        for n in BATCH_SIZES {
            let inputs: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[2, 4, 4])).collect();
            let grads: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[2, 4, 4])).collect();
            assert_batch_invariant(
                Box::new(Relu::new(style).with_threshold(0.02)),
                Box::new(Relu::new(style).with_threshold(0.02)),
                &inputs,
                &grads,
            );
        }
    }
}

#[test]
fn flatten_is_batch_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c05);
    for n in BATCH_SIZES {
        let inputs: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[2, 3, 4])).collect();
        let grads: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[24])).collect();
        assert_batch_invariant(
            Box::new(Flatten::new()),
            Box::new(Flatten::new()),
            &inputs,
            &grads,
        );
    }
}

#[test]
fn softmax_is_batch_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c06);
    for n in BATCH_SIZES {
        let inputs: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[10])).collect();
        let grads: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[10])).collect();
        assert_batch_invariant(
            Box::new(Softmax::new()),
            Box::new(Softmax::new()),
            &inputs,
            &grads,
        );
    }
}

#[test]
fn networks_are_batch_size_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c07);
    for n in BATCH_SIZES {
        let nets: [(fn() -> Network, usize); 2] = [
            (|| models::small_cnn(1, 10, 4, 21), 4),
            (|| models::mnist_mlp(1, 10, 22), 10),
        ];
        for (make, classes) in nets {
            let (mut single, mut batched) = (make(), make());
            let inputs: Vec<Tensor> = (0..n)
                .map(|_| sparse(&mut rng, &[1, 10, 10]).map(f32::abs))
                .collect();
            let grads: Vec<Tensor> = (0..n).map(|_| sparse(&mut rng, &[classes])).collect();

            single.zero_grads();
            let mut want_out = Vec::new();
            let mut want_dx = Vec::new();
            for (x, g) in inputs.iter().zip(&grads) {
                want_out.push(single.forward(&one(x), Mode::Train).unwrap());
                want_dx.push(single.backward(&one(g)).unwrap());
            }

            batched.zero_grads();
            let out = batched.forward(&batch(&inputs), Mode::Train).unwrap();
            let dx = batched.backward(&batch(&grads)).unwrap();

            assert_rows_equal(&out, &want_out, &format!("network forward, N = {n}"));
            assert_rows_equal(&dx, &want_dx, &format!("network backward, N = {n}"));
            let bits = |net: &mut Network| -> Vec<u32> {
                net.grad_vector()
                    .iter()
                    .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&mut batched), bits(&mut single), "N = {n}");
        }
    }
}

#[test]
fn classify_batch_matches_classify() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xba7c08);
    let mut net = models::mnist_mlp(1, 6, 9);
    for n in BATCH_SIZES {
        let inputs: Vec<Tensor> = (0..n)
            .map(|_| sparse(&mut rng, &[1, 6, 6]).map(f32::abs))
            .collect();
        let want: Vec<usize> = inputs.iter().map(|x| net.classify(x).unwrap()).collect();
        let got = net.classify_batch(&batch(&inputs)).unwrap();
        assert_eq!(got, want, "n = {n}");
    }
}

#[test]
fn forward_rejects_input_without_batch_axis() {
    let mut net = models::mnist_mlp(1, 6, 1);
    assert!(net.forward(&Tensor::zeros([36]), Mode::Infer).is_err());
    let mut cnn = models::small_cnn(1, 10, 4, 1);
    assert!(cnn
        .forward(&Tensor::zeros([1, 10, 10]), Mode::Infer)
        .is_err());
}

#[test]
fn ragged_final_subbatch_width_is_exercised() {
    // `GRAD_SUBBATCH` chunking leaves a ragged tail whenever the batch
    // size is not a multiple; pin that the width used by the trainer and
    // the ragged sizes covered here stay in sync.
    assert!(BATCH_SIZES
        .iter()
        .any(|&n| n % scnn_nn::train::GRAD_SUBBATCH != 0));
}
