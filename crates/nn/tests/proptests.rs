//! Property-based tests for the CNN engine: the traced execution path
//! must be numerically identical to the reference path for arbitrary
//! inputs and layer geometries, and gradients must stay sane.
//!
//! Each property runs over `CASES` deterministically generated inputs
//! from a per-test seeded [`ChaCha8Rng`]; a failing case prints its index
//! and reproduces exactly. The count matches the suite's historical
//! proptest configuration (48 cases — network inference is costly).

use scnn_nn::batch::stack;
use scnn_nn::prelude::*;
use scnn_nn::{loss, models};
use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_tensor::Tensor;
use scnn_uarch::CountingProbe;

const CASES: usize = 48;

/// Mixed sparse/dense image: ~60% exact zeros, the paper's leaky regime.
fn image(rng: &mut ChaCha8Rng, c: usize, side: usize) -> Tensor {
    let data: Vec<f32> = (0..c * side * side)
        .map(|_| {
            if rng.gen_range(0u32..5) < 3 {
                0.0
            } else {
                rng.gen_range(0.01f32..1.0)
            }
        })
        .collect();
    Tensor::from_vec(data, [c, side, side]).expect("length matches")
}

#[test]
fn conv_traced_equals_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e4e01);
    for case in 0..CASES {
        let img = image(&mut rng, 2, 6);
        let style = if rng.gen::<bool>() {
            ConvStyle::ZeroSkip
        } else {
            ConvStyle::Dense
        };
        let seed = rng.gen_range(0u64..100);
        let mut conv = Conv2d::new(2, 3, 3, style, seed);
        let want = conv.forward(&stack(&[&img]).unwrap(), Mode::Infer).unwrap();
        let mut probe = CountingProbe::new();
        let mut ctx = scnn_nn::ExecContext::new(&mut probe);
        let region = ctx.alloc_activation(img.len());
        let (got, _) = conv.forward_traced(&img, region, &mut ctx).unwrap();
        assert_eq!(got.dims(), &want.dims()[1..], "case {case}");
        assert_eq!(got.as_slice(), want.as_slice(), "case {case}");
    }
}

#[test]
fn dense_traced_equals_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e4e02);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..24);
        let data: Vec<f32> = (0..len)
            .map(|_| {
                if rng.gen::<bool>() {
                    0.0
                } else {
                    rng.gen_range(-2.0f32..2.0)
                }
            })
            .collect();
        let style = if rng.gen::<bool>() {
            DenseStyle::ZeroSkip
        } else {
            DenseStyle::Dense
        };
        let seed = rng.gen_range(0u64..100);
        let x = Tensor::from_slice(&data);
        let mut dense = Dense::new(data.len(), 5, style, seed);
        let want = dense.forward(&stack(&[&x]).unwrap(), Mode::Infer).unwrap();
        let mut probe = CountingProbe::new();
        let mut ctx = scnn_nn::ExecContext::new(&mut probe);
        let region = ctx.alloc_activation(x.len());
        let (got, _) = dense.forward_traced(&x, region, &mut ctx).unwrap();
        assert_eq!(got.dims(), &want.dims()[1..], "case {case}");
        assert_eq!(got.as_slice(), want.as_slice(), "case {case}");
    }
}

#[test]
fn whole_network_traced_equals_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e4e03);
    for case in 0..CASES {
        let img = image(&mut rng, 1, 10);
        let seed = rng.gen_range(0u64..50);
        let mut net = models::small_cnn(1, 10, 4, seed);
        let want = net.infer(&img).unwrap();
        let mut probe = CountingProbe::new();
        let got = net.infer_traced(&img, &mut probe).unwrap();
        assert_eq!(got, want, "case {case}");
        assert!(probe.instructions() > 0, "case {case}");
    }
}

#[test]
fn constant_time_footprint_ignores_input() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e4e04);
    for case in 0..CASES {
        let img = image(&mut rng, 1, 10);
        let seed = rng.gen_range(0u64..50);
        let mut net = models::small_cnn(1, 10, 4, seed);
        net.set_constant_time(true);
        let count = |net: &Network, x: &Tensor| {
            let mut probe = CountingProbe::new();
            net.infer_traced(x, &mut probe).unwrap();
            (probe.loads, probe.stores, probe.branches)
        };
        let a = count(&net, &img);
        let b = count(&net, &Tensor::zeros([1, 10, 10]));
        assert_eq!(
            a, b,
            "case {case}: constant-time kernels must have static footprints"
        );
    }
}

#[test]
fn leaky_event_count_weakly_monotone_in_sparsity() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e4e05);
    for case in 0..CASES {
        let seed = rng.gen_range(0u64..50);
        // All-zero input never produces more events than an all-dense one.
        let net = models::small_cnn(1, 10, 4, seed);
        let count = |x: &Tensor| {
            let mut probe = CountingProbe::new();
            net.infer_traced(x, &mut probe).unwrap();
            probe.loads + probe.stores
        };
        assert!(
            count(&Tensor::zeros([1, 10, 10])) < count(&Tensor::full([1, 10, 10], 1.0)),
            "case {case}"
        );
    }
}

#[test]
fn relu_idempotent_and_nonnegative() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e4e06);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..40);
        let data: Vec<f32> = (0..len).map(|_| rng.gen_range(-5.0f32..5.0)).collect();
        let mut relu = Relu::default();
        let x = Tensor::from_slice(&data);
        let once = relu.forward(&x, Mode::Infer).unwrap();
        let twice = relu.forward(&once, Mode::Infer).unwrap();
        assert_eq!(&once, &twice, "case {case}");
        assert!(once.min() >= 0.0, "case {case}");
    }
}

#[test]
fn cross_entropy_gradient_sums_to_zero() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e4e07);
    for case in 0..CASES {
        let len = rng.gen_range(2usize..12);
        let data: Vec<f32> = (0..len).map(|_| rng.gen_range(-8.0f32..8.0)).collect();
        let label = rng.gen_range(0usize..100) % data.len();
        let logits = Tensor::from_slice(&data);
        let (loss_value, grad) = loss::softmax_cross_entropy(&logits, label).unwrap();
        assert!(loss_value >= -1e-5, "case {case}");
        assert!(grad.sum().abs() < 1e-4, "case {case}");
        assert!(
            grad.as_slice()[label] <= 0.0,
            "case {case}: true-class gradient is non-positive"
        );
    }
}

#[test]
fn maxpool_output_bounded_by_input() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x4e4e08);
    for case in 0..CASES {
        let img = image(&mut rng, 1, 8);
        let mut pool = MaxPool2d::new(2);
        let y = pool.forward(&stack(&[&img]).unwrap(), Mode::Infer).unwrap();
        assert!(y.max() <= img.max() + 1e-6, "case {case}");
        assert!(y.min() >= img.min() - 1e-6, "case {case}");
    }
}
