//! Property-based tests for shape algebra and the numeric kernels.
//!
//! Each property runs over `CASES` deterministically generated inputs
//! drawn from a per-test seeded [`ChaCha8Rng`] — reproducible on every
//! machine with no external test framework. A failing case prints its
//! case index; rerunning is exact.

use scnn_rng::{ChaCha8Rng, Rng, SeedableRng};
use scnn_tensor::{ops, Shape, Tensor};

const CASES: usize = 256;

fn small_dims(rng: &mut ChaCha8Rng) -> Vec<usize> {
    let rank = rng.gen_range(1usize..4);
    (0..rank).map(|_| rng.gen_range(1usize..6)).collect()
}

fn tensor_with_shape(rng: &mut ChaCha8Rng, dims: Vec<usize>) -> Tensor {
    let len: usize = dims.iter().product();
    let data: Vec<f32> = (0..len).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
    Tensor::from_vec(data, dims).expect("length matches")
}

#[test]
fn offset_coords_roundtrip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5001);
    for case in 0..CASES {
        let shape = Shape::new(small_dims(&mut rng));
        let seed = rng.gen_range(0usize..10_000);
        if !shape.is_empty() {
            let flat = seed % shape.len();
            let coords = shape.coords(flat).unwrap();
            assert_eq!(shape.offset(&coords).unwrap(), flat, "case {case}");
        }
    }
}

#[test]
fn strides_decrease_row_major() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5002);
    for case in 0..CASES {
        let shape = Shape::new(small_dims(&mut rng));
        let strides = shape.strides();
        for w in strides.windows(2) {
            assert!(
                w[0] >= w[1],
                "case {case}: row-major strides non-increasing"
            );
        }
        if let Some(&last) = strides.last() {
            assert_eq!(last, 1, "case {case}");
        }
    }
}

#[test]
fn reshape_preserves_contents() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5003);
    for case in 0..CASES {
        let dims = small_dims(&mut rng);
        let t = tensor_with_shape(&mut rng, dims);
        let flat = t.reshape([t.len()]).unwrap();
        assert_eq!(flat.as_slice(), t.as_slice(), "case {case}");
        assert_eq!(flat.sum(), t.sum(), "case {case}");
    }
}

#[test]
fn transpose_is_involutive() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5004);
    for case in 0..CASES {
        let rows = rng.gen_range(1usize..8);
        let cols = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..1000);
        let data: Vec<f32> = (0..rows * cols)
            .map(|i| ((i as u64).wrapping_mul(seed + 1) % 97) as f32 - 48.0)
            .collect();
        let a = Tensor::from_vec(data, [rows, cols]).unwrap();
        let att = ops::transpose(&ops::transpose(&a).unwrap()).unwrap();
        assert_eq!(att, a, "case {case}");
    }
}

#[test]
fn matmul_distributes_over_identity() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5005);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..1000);
        let data: Vec<f32> = (0..n * n)
            .map(|i| ((i as u64).wrapping_mul(seed * 3 + 7) % 13) as f32 - 6.0)
            .collect();
        let a = Tensor::from_vec(data, [n, n]).unwrap();
        let mut eye = Tensor::zeros([n, n]);
        for i in 0..n {
            eye.set(&[i, i], 1.0).unwrap();
        }
        assert_eq!(ops::matmul(&a, &eye).unwrap(), a.clone(), "case {case}");
        assert_eq!(ops::matmul(&eye, &a).unwrap(), a, "case {case}");
    }
}

#[test]
fn matvec_is_linear() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5006);
    for case in 0..CASES {
        let m = rng.gen_range(1usize..6);
        let k = rng.gen_range(1usize..6);
        let s = rng.gen_range(1u64..50);
        let a = Tensor::from_vec(
            (0..m * k)
                .map(|i| ((i as u64 * s) % 11) as f32 - 5.0)
                .collect(),
            [m, k],
        )
        .unwrap();
        let x = Tensor::from_vec(
            (0..k)
                .map(|i| ((i as u64 * s * 5) % 7) as f32 - 3.0)
                .collect(),
            [k],
        )
        .unwrap();
        let y1 = ops::matvec(&a, &x).unwrap();
        let x2 = &x * 2.0;
        let y2 = ops::matvec(&a, &x2).unwrap();
        for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!(
                (2.0 * a - b).abs() < 1e-3,
                "case {case}: A(2x) = 2(Ax): {a} vs {b}"
            );
        }
    }
}

#[test]
fn softmax_is_a_distribution() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5007);
    for case in 0..CASES {
        let len = rng.gen_range(1usize..20);
        let data: Vec<f32> = (0..len).map(|_| rng.gen_range(-30.0f32..30.0)).collect();
        let x = Tensor::from_slice(&data);
        let s = ops::softmax(&x).unwrap();
        assert!((s.sum() - 1.0).abs() < 1e-4, "case {case}");
        assert!(
            s.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)),
            "case {case}"
        );
        // Order preserved.
        assert_eq!(x.argmax(), s.argmax(), "case {case}");
    }
}

#[test]
fn conv_direct_equals_im2col_gemm() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5008);
    for case in 0..CASES {
        let c = rng.gen_range(1usize..3);
        let f = rng.gen_range(1usize..3);
        let size = rng.gen_range(4usize..7);
        let seed = rng.gen_range(0u64..500);
        let k = 3;
        let input = Tensor::from_vec(
            (0..c * size * size)
                .map(|i| ((i as u64).wrapping_mul(seed * 2 + 3) % 19) as f32 / 4.0 - 2.0)
                .collect(),
            [c, size, size],
        )
        .unwrap();
        let filters = Tensor::from_vec(
            (0..f * c * k * k)
                .map(|i| ((i as u64).wrapping_mul(seed + 11) % 9) as f32 / 2.0 - 2.0)
                .collect(),
            [f, c, k, k],
        )
        .unwrap();
        let bias = Tensor::zeros([f]);
        let win = ops::Window2d::simple(k);

        let direct = ops::conv2d(&input, &filters, &bias, win).unwrap();
        let cols = ops::im2col(&input, win).unwrap();
        let wmat = filters.reshape([f, c * k * k]).unwrap();
        let gemm = ops::matmul(&wmat, &cols).unwrap();
        for (a, b) in direct.as_slice().iter().zip(gemm.as_slice()) {
            assert!((a - b).abs() < 1e-3, "case {case}: {a} vs {b}");
        }
    }
}

#[test]
fn im2col_col2im_adjoint() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5009);
    for case in 0..CASES {
        let size = rng.gen_range(3usize..7);
        let seed = rng.gen_range(0u64..200);
        // <im2col(x), y> == <x, col2im(y)>
        let win = ops::Window2d::simple(2);
        let x = Tensor::from_vec(
            (0..size * size)
                .map(|i| ((i as u64 * (seed + 1)) % 23) as f32 - 11.0)
                .collect(),
            [1, size, size],
        )
        .unwrap();
        let cols = ops::im2col(&x, win).unwrap();
        let y = Tensor::from_vec(
            (0..cols.len())
                .map(|i| ((i as u64 * (seed + 7)) % 17) as f32 - 8.0)
                .collect(),
            cols.shape().clone(),
        )
        .unwrap();
        let back = ops::col2im(&y, 1, size, size, win).unwrap();
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < lhs.abs().max(1.0) * 1e-4,
            "case {case}: {lhs} vs {rhs}"
        );
    }
}

/// Test oracle for `im2col_slice_into`: the per-element loop, reading
/// every output position from the input or, in the padding, writing zero.
fn im2col_oracle(src: &[f32], c: usize, h: usize, w: usize, win: ops::Window2d) -> Vec<f32> {
    let (oh, ow) = win.output_size(h, w).unwrap();
    let mut dst = vec![0.0f32; c * win.kh * win.kw * oh * ow];
    for ch in 0..c {
        for ky in 0..win.kh {
            for kx in 0..win.kw {
                let row = (ch * win.kh + ky) * win.kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * win.sh + ky) as isize - win.ph as isize;
                        let ix = (ox * win.sw + kx) as isize - win.pw as isize;
                        if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                            dst[row * oh * ow + oy * ow + ox] =
                                src[(ch * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    dst
}

/// Test oracle for `col2im_into`: the per-element scatter, adding each
/// in-bounds column entry to its input position in `(c, ky, kx, oy, ox)`
/// order.
fn col2im_oracle(src: &[f32], c: usize, h: usize, w: usize, win: ops::Window2d, out: &mut [f32]) {
    let (oh, ow) = win.output_size(h, w).unwrap();
    for ch in 0..c {
        for ky in 0..win.kh {
            for kx in 0..win.kw {
                let row = (ch * win.kh + ky) * win.kw + kx;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let iy = (oy * win.sh + ky) as isize - win.ph as isize;
                        let ix = (ox * win.sw + kx) as isize - win.pw as isize;
                        if (0..h as isize).contains(&iy) && (0..w as isize).contains(&ix) {
                            out[(ch * h + iy as usize) * w + ix as usize] +=
                                src[row * oh * ow + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

/// Values with both signed zeros and a spread of magnitudes, so a
/// reordered sum or a dropped `-0.0` shows in the bits.
fn kernel_values(rng: &mut ChaCha8Rng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-1e4f32..1e4),
            _ => rng.gen_range(-10.0f32..10.0),
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn im2col_and_col2im_equal_the_per_element_loops_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e500b);
    let mut fitted = 0;
    for case in 0..4 * CASES {
        let c = rng.gen_range(1usize..4);
        let (h, w) = (rng.gen_range(1usize..10), rng.gen_range(1usize..10));
        let win = ops::Window2d {
            kh: rng.gen_range(1usize..6),
            kw: rng.gen_range(1usize..6),
            sh: rng.gen_range(1usize..4),
            sw: rng.gen_range(1usize..4),
            ph: rng.gen_range(0usize..3),
            pw: rng.gen_range(0usize..3),
        };
        let x = kernel_values(&mut rng, c * h * w);
        let Ok((oh, ow)) = win.output_size(h, w) else {
            let mut buf = vec![0.0f32; 1];
            assert!(
                ops::im2col_slice_into(&x, c, h, w, win, &mut buf).is_err(),
                "case {case}"
            );
            continue;
        };
        fitted += 1;
        let len = c * win.kh * win.kw * oh * ow;
        let ctx = format!("case {case}: c={c} h={h} w={w} {win:?}");

        // A dirty buffer (NaN and stale values) is fully overwritten,
        // twice in a row with two different samples.
        let mut buf: Vec<f32> = (0..len)
            .map(|i| if i % 3 == 0 { f32::NAN } else { i as f32 })
            .collect();
        let x2 = kernel_values(&mut rng, c * h * w);
        for sample in [&x, &x2] {
            let shape = ops::im2col_slice_into(sample, c, h, w, win, &mut buf).unwrap();
            assert_eq!(shape, (c * win.kh * win.kw, oh * ow), "{ctx}");
            assert_eq!(
                bits(&buf),
                bits(&im2col_oracle(sample, c, h, w, win)),
                "{ctx}"
            );
        }

        // col2im accumulates onto whatever `out` holds, in oracle order.
        let cols = kernel_values(&mut rng, len);
        let seed = kernel_values(&mut rng, c * h * w);
        let mut want = seed.clone();
        col2im_oracle(&cols, c, h, w, win, &mut want);
        let mut got = seed;
        ops::col2im_into(&cols, c, h, w, win, &mut got).unwrap();
        assert_eq!(bits(&got), bits(&want), "{ctx}");
    }
    assert!(fitted >= CASES, "only {fitted} fitting windows drawn");
}

#[test]
fn sparsity_bounds() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e5010);
    for case in 0..CASES {
        let dims = small_dims(&mut rng);
        let t = tensor_with_shape(&mut rng, dims);
        let s = t.sparsity();
        assert!((0.0..=1.0).contains(&s), "case {case}: sparsity {s}");
    }
}
