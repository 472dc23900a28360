//! Linear-algebra and convolution-lowering primitives.
//!
//! These are the *pure* numeric kernels. The data-dependent, instrumented
//! variants that feed the microarchitectural simulator live in `scnn-nn`;
//! keeping the reference kernels here lets the test suite cross-check the
//! instrumented implementations against an independent ground truth.

use crate::error::{Result, ShapeError};
use crate::tensor::Tensor;

pub use crate::gemm::{GemmInit, GemmScratch};

/// Checks that `a` and `b` are matrices with agreeing inner dimensions and
/// returns `(m, k, n)`.
fn matmul_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(ShapeError::MatmulMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    Ok((m, k, n))
}

/// Matrix product `C = A · B` for rank-2 tensors, computed by the
/// cache-blocked kernel in this crate. The per-element reduction order is
/// a `k`-increasing left fold, independent of blocking (see DESIGN.md §12),
/// and the inner loops are branch-free: sparsity skipping is a property of
/// the *traced* kernels in `scnn-nn`, never of the numeric GEMM.
///
/// # Errors
///
/// Returns [`ShapeError::RankMismatch`] for non-matrices and
/// [`ShapeError::MatmulMismatch`] when inner dimensions disagree.
///
/// # Examples
///
/// ```
/// use scnn_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), scnn_tensor::ShapeError> {
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// let b = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2])?;
/// assert_eq!(ops::matmul(&a, &b)?, a);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, _, n) = matmul_dims(a, b)?;
    let mut out = Tensor::zeros([m, n]);
    let mut scratch = GemmScratch::new();
    matmul_into(a, b, &mut out, &mut scratch)?;
    Ok(out)
}

/// Allocation-free matrix product: `out = A · B` written into a
/// caller-owned tensor, with panel packing reusing `scratch`.
///
/// # Errors
///
/// Returns shape errors when `out` is not `[m, n]` or the operands are not
/// conforming matrices.
pub fn matmul_into(
    a: &Tensor,
    b: &Tensor,
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) -> Result<()> {
    gemm_into(a, b, GemmInit::Zeros, None, out, scratch)
}

/// Fused GEMM with bias initialisation and optional thresholded-ReLU
/// epilogue: `out = act(init + A · B)` (see [`GemmInit`]). Seeding the
/// output with the bias reproduces the per-sample `y ← b; y += xᵢ·Wᵢ`
/// fold bit for bit, and the activation sweep runs while `out` is still
/// cache-hot.
///
/// # Errors
///
/// Returns shape errors when operands, bias, or `out` disagree with the
/// GEMM dimensions.
pub fn gemm_into(
    a: &Tensor,
    b: &Tensor,
    init: GemmInit<'_>,
    relu_threshold: Option<f32>,
    out: &mut Tensor,
    scratch: &mut GemmScratch,
) -> Result<()> {
    let (m, k, n) = matmul_dims(a, b)?;
    if out.dims() != [m, n] {
        return Err(ShapeError::Mismatch {
            left: out.dims().to_vec(),
            right: vec![m, n],
        });
    }
    crate::gemm::gemm(
        a.as_slice(),
        b.as_slice(),
        m,
        k,
        n,
        init,
        relu_threshold,
        out.as_mut_slice(),
        scratch,
    )
}

/// `C = A · Bᵀ` without materialising the transpose: `a` is `[m, k]`,
/// `b` is `[n, k]`. Bit-identical to `matmul(a, &transpose(b)?)` — each
/// output is the same `k`-increasing dot-product fold.
///
/// # Errors
///
/// Returns shape errors for non-matrices or disagreeing `k` dimensions.
pub fn matmul_abt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(ShapeError::MatmulMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = Tensor::zeros([m, n]);
    crate::gemm::gemm_abt(
        a.as_slice(),
        b.as_slice(),
        m,
        k,
        n,
        false,
        out.as_mut_slice(),
        &mut GemmScratch::new(),
    )?;
    Ok(out)
}

/// `out += A · Bᵀ` — the accumulating form of [`matmul_abt`], used for
/// in-place gradient accumulation.
///
/// # Errors
///
/// Returns shape errors when operands or `out` disagree.
pub fn matmul_abt_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(ShapeError::MatmulMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    if out.len() != m * n {
        return Err(ShapeError::Mismatch {
            left: out.dims().to_vec(),
            right: vec![m, n],
        });
    }
    crate::gemm::gemm_abt(
        a.as_slice(),
        b.as_slice(),
        m,
        k,
        n,
        true,
        out.as_mut_slice(),
        &mut GemmScratch::new(),
    )
}

/// `C = Aᵀ · B` without materialising the transpose: `a` is `[r, m]`,
/// `b` is `[r, n]`. The reduction streams `r` in increasing order, so it
/// is bit-identical both to `matmul(&transpose(a)?, b)` and to the
/// per-row outer-product sequence `C += aᵣ ⊗ bᵣ`.
///
/// # Errors
///
/// Returns shape errors for non-matrices or disagreeing `r` dimensions.
pub fn matmul_atb(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (r, m) = (a.dims()[0], a.dims()[1]);
    let (r2, n) = (b.dims()[0], b.dims()[1]);
    if r != r2 {
        return Err(ShapeError::MatmulMismatch {
            left_cols: r,
            right_rows: r2,
        });
    }
    let mut out = Tensor::zeros([m, n]);
    crate::gemm::gemm_atb(
        a.as_slice(),
        b.as_slice(),
        r,
        m,
        n,
        false,
        out.as_mut_slice(),
    )?;
    Ok(out)
}

/// `out += Aᵀ · B` — the accumulating form of [`matmul_atb`], used for
/// batch-major weight-gradient accumulation (`dW += Xᵀ·G`).
///
/// # Errors
///
/// Returns shape errors when operands or `out` disagree.
pub fn matmul_atb_acc(a: &Tensor, b: &Tensor, out: &mut Tensor) -> Result<()> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (r, m) = (a.dims()[0], a.dims()[1]);
    let (r2, n) = (b.dims()[0], b.dims()[1]);
    if r != r2 {
        return Err(ShapeError::MatmulMismatch {
            left_cols: r,
            right_rows: r2,
        });
    }
    if out.len() != m * n {
        return Err(ShapeError::Mismatch {
            left: out.dims().to_vec(),
            right: vec![m, n],
        });
    }
    crate::gemm::gemm_atb(
        a.as_slice(),
        b.as_slice(),
        r,
        m,
        n,
        true,
        out.as_mut_slice(),
    )
}

/// Matrix–vector product `y = A · x`.
///
/// # Errors
///
/// Returns shape errors when `a` is not a matrix, `x` is not a vector, or
/// the inner dimensions disagree.
pub fn matvec(a: &Tensor, x: &Tensor) -> Result<Tensor> {
    a.shape().expect_rank(2)?;
    x.shape().expect_rank(1)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    if x.dims()[0] != k {
        return Err(ShapeError::MatmulMismatch {
            left_cols: k,
            right_rows: x.dims()[0],
        });
    }
    let ad = a.as_slice();
    let xd = x.as_slice();
    let mut out = vec![0.0f32; m];
    for i in 0..m {
        let row = &ad[i * k..(i + 1) * k];
        out[i] = row.iter().zip(xd.iter()).map(|(&w, &v)| w * v).sum();
    }
    Tensor::from_vec(out, [m])
}

/// Transpose of a rank-2 tensor, computed tile-by-tile so the
/// column-strided writes stay within a few cache lines per tile instead
/// of sweeping the whole output column-wise.
///
/// # Errors
///
/// Returns [`ShapeError::RankMismatch`] for non-matrices.
pub fn transpose(a: &Tensor) -> Result<Tensor> {
    a.shape().expect_rank(2)?;
    let (m, n) = (a.dims()[0], a.dims()[1]);
    let mut out = vec![0.0f32; m * n];
    crate::gemm::transpose_into(a.as_slice(), m, n, &mut out)?;
    Tensor::from_vec(out, [n, m])
}

/// Outer product of two vectors: `out[i][j] = x[i] * y[j]`.
///
/// # Errors
///
/// Returns [`ShapeError::RankMismatch`] for non-vectors.
pub fn outer(x: &Tensor, y: &Tensor) -> Result<Tensor> {
    x.shape().expect_rank(1)?;
    y.shape().expect_rank(1)?;
    let (m, n) = (x.dims()[0], y.dims()[0]);
    let mut out = vec![0.0f32; m * n];
    for (i, &xv) in x.as_slice().iter().enumerate() {
        for (j, &yv) in y.as_slice().iter().enumerate() {
            out[i * n + j] = xv * yv;
        }
    }
    Tensor::from_vec(out, [m, n])
}

/// Geometry of a 2-D sliding-window operation (convolution or pooling).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window2d {
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Vertical stride.
    pub sh: usize,
    /// Horizontal stride.
    pub sw: usize,
    /// Zero padding applied symmetrically to the height axis.
    pub ph: usize,
    /// Zero padding applied symmetrically to the width axis.
    pub pw: usize,
}

impl Window2d {
    /// Square kernel with unit stride and no padding.
    pub fn simple(k: usize) -> Self {
        Window2d {
            kh: k,
            kw: k,
            sh: 1,
            sw: 1,
            ph: 0,
            pw: 0,
        }
    }

    /// Square kernel with stride `s` and no padding (pooling-style).
    pub fn strided(k: usize, s: usize) -> Self {
        Window2d {
            kh: k,
            kw: k,
            sh: s,
            sw: s,
            ph: 0,
            pw: 0,
        }
    }

    /// Square kernel with "same" padding for unit stride.
    pub fn same(k: usize) -> Self {
        Window2d {
            kh: k,
            kw: k,
            sh: 1,
            sw: 1,
            ph: k / 2,
            pw: k / 2,
        }
    }

    /// Output spatial size for an input of `h × w`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError::WindowMismatch`] when the window does not fit
    /// or a stride is zero.
    pub fn output_size(&self, h: usize, w: usize) -> Result<(usize, usize)> {
        if self.sh == 0 || self.sw == 0 {
            return Err(ShapeError::WindowMismatch {
                detail: "stride must be non-zero".into(),
            });
        }
        if self.kh == 0 || self.kw == 0 {
            return Err(ShapeError::WindowMismatch {
                detail: "kernel must be non-empty".into(),
            });
        }
        let ih = h + 2 * self.ph;
        let iw = w + 2 * self.pw;
        if ih < self.kh || iw < self.kw {
            return Err(ShapeError::WindowMismatch {
                detail: format!(
                    "kernel {}x{} larger than padded input {}x{}",
                    self.kh, self.kw, ih, iw
                ),
            });
        }
        Ok(((ih - self.kh) / self.sh + 1, (iw - self.kw) / self.sw + 1))
    }
}

/// Geometry of one im2col lowering: `[rows, cols]` for a single sample.
fn im2col_geometry(c: usize, h: usize, w: usize, win: Window2d) -> Result<(usize, usize)> {
    let (oh, ow) = win.output_size(h, w)?;
    Ok((c * win.kh * win.kw, oh * ow))
}

/// Input row of output row `oy` at kernel row `ky`, or `None` when it
/// falls in the vertical padding.
fn input_row(oy: usize, ky: usize, win: Window2d, h: usize) -> Option<usize> {
    (oy * win.sh + ky).checked_sub(win.ph).filter(|&iy| iy < h)
}

/// The output columns `lo..hi` whose input column `ox·sw + kx − pw` lies
/// inside `0..w`, and the input column of `lo` (`0` for an empty span).
/// Every other output column reads padding.
fn input_span(kx: usize, win: Window2d, w: usize, ow: usize) -> (usize, usize, usize) {
    // ox·sw + kx ≥ pw  ⇔  ox ≥ ⌈(pw − kx) / sw⌉
    let lo = win.pw.saturating_sub(kx).div_ceil(win.sw).min(ow);
    // ox·sw + kx − pw < w  ⇔  ox < ⌈(w + pw − kx) / sw⌉
    let hi = (w + win.pw)
        .saturating_sub(kx)
        .div_ceil(win.sw)
        .min(ow)
        .max(lo);
    let x0 = if lo < hi {
        lo * win.sw + kx - win.pw
    } else {
        0
    };
    (lo, hi, x0)
}

/// Scatters one `[C, H, W]` sample into a `[rows, cols]` im2col matrix.
/// Every position is written, padding with zeros, so `dst` needs no
/// clearing between samples. Each `(c, ky, kx, oy)` row segment is one
/// contiguous copy of its in-bounds source run (a strided gather when
/// `sw > 1`) between two zero runs.
fn im2col_fill(src: &[f32], c: usize, h: usize, w: usize, win: Window2d, dst: &mut [f32]) {
    let (oh, ow) = win
        .output_size(h, w)
        .expect("caller validated window geometry");
    let mut lowered = dst.chunks_exact_mut(oh * ow);
    for ch in 0..c {
        let plane = &src[ch * h * w..(ch + 1) * h * w];
        for ky in 0..win.kh {
            for kx in 0..win.kw {
                let (lo, hi, x0) = input_span(kx, win, w, ow);
                let row = lowered.next().expect("caller validated dst length");
                for (oy, seg) in row.chunks_exact_mut(ow).enumerate() {
                    let Some(iy) = input_row(oy, ky, win, h) else {
                        seg.fill(0.0);
                        continue;
                    };
                    let srow = &plane[iy * w..(iy + 1) * w];
                    seg[..lo].fill(0.0);
                    seg[hi..].fill(0.0);
                    if win.sw == 1 {
                        seg[lo..hi].copy_from_slice(&srow[x0..x0 + hi - lo]);
                    } else {
                        for (d, &v) in seg[lo..hi]
                            .iter_mut()
                            .zip(srow[x0..].iter().step_by(win.sw))
                        {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// Lowers a `[C, H, W]` image into the im2col matrix of shape
/// `[C*kh*kw, oh*ow]`, the standard convolution-as-matmul transform.
///
/// Out-of-bounds (padding) positions contribute zeros.
///
/// # Errors
///
/// Returns [`ShapeError::RankMismatch`] for non-3-D input and window-fit
/// errors from [`Window2d::output_size`].
pub fn im2col(input: &Tensor, win: Window2d) -> Result<Tensor> {
    let mut out = Vec::new();
    let (rows, cols) = im2col_into(input, win, &mut out)?;
    Tensor::from_vec(out, [rows, cols])
}

/// Allocation-free [`im2col`]: lowers into a caller-owned buffer (resized
/// to `rows * cols`, every position overwritten) and returns
/// `(rows, cols)`. Steady-state callers reuse the buffer's capacity across
/// calls.
///
/// # Errors
///
/// Same as [`im2col`].
pub fn im2col_into(input: &Tensor, win: Window2d, out: &mut Vec<f32>) -> Result<(usize, usize)> {
    input.shape().expect_rank(3)?;
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (rows, cols) = im2col_geometry(c, h, w, win)?;
    out.resize(rows * cols, 0.0);
    im2col_slice_into(input.as_slice(), c, h, w, win, out)
}

/// Slice-level im2col for callers whose sample lives inside a larger
/// buffer (one sample of a batch tensor): lowers a `[C, H, W]` slice into
/// `out`, which must hold exactly `rows * cols` values, and returns
/// `(rows, cols)`.
///
/// Every position is written, padding positions with zeros, so `out`
/// may hold anything beforehand: one buffer is refilled sample after
/// sample without clearing.
///
/// # Errors
///
/// Returns shape errors when `src` or `out` disagrees with the geometry.
pub fn im2col_slice_into(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    win: Window2d,
    out: &mut [f32],
) -> Result<(usize, usize)> {
    if src.len() != c * h * w {
        return Err(ShapeError::Mismatch {
            left: vec![src.len()],
            right: vec![c, h, w],
        });
    }
    let (rows, cols) = im2col_geometry(c, h, w, win)?;
    if out.len() != rows * cols {
        return Err(ShapeError::Mismatch {
            left: vec![out.len()],
            right: vec![rows, cols],
        });
    }
    im2col_fill(src, c, h, w, win, out);
    Ok((rows, cols))
}

/// Inverse of [`im2col`]: scatters a `[C*kh*kw, oh*ow]` matrix back into a
/// `[C, H, W]` image, *accumulating* overlapping contributions. Used by the
/// convolution backward pass.
///
/// # Errors
///
/// Returns shape errors when the column matrix does not correspond to the
/// given geometry.
pub fn col2im(cols_mat: &Tensor, c: usize, h: usize, w: usize, win: Window2d) -> Result<Tensor> {
    cols_mat.shape().expect_rank(2)?;
    let (rows, cols) = im2col_geometry(c, h, w, win)?;
    if cols_mat.dims() != [rows, cols] {
        return Err(ShapeError::Mismatch {
            left: cols_mat.dims().to_vec(),
            right: vec![rows, cols],
        });
    }
    let mut out = vec![0.0f32; c * h * w];
    col2im_into(cols_mat.as_slice(), c, h, w, win, &mut out)?;
    Tensor::from_vec(out, [c, h, w])
}

/// Slice-level [`col2im`]: scatters a `[C*kh*kw, oh*ow]` column matrix
/// back into a `[C, H, W]` image slice, *accumulating* into `out`. The
/// caller owns zeroing (or pre-seeding) the destination, which lets the
/// batched conv backward scatter each sample into its slice of a shared
/// gradient tensor without intermediate allocations.
///
/// # Errors
///
/// Returns shape errors when slice lengths disagree with the geometry.
pub fn col2im_into(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    win: Window2d,
    out: &mut [f32],
) -> Result<()> {
    let (rows, cols) = im2col_geometry(c, h, w, win)?;
    if src.len() != rows * cols {
        return Err(ShapeError::Mismatch {
            left: vec![src.len()],
            right: vec![rows, cols],
        });
    }
    if out.len() != c * h * w {
        return Err(ShapeError::Mismatch {
            left: vec![out.len()],
            right: vec![c, h, w],
        });
    }
    let ow = win.output_size(h, w)?.1;
    // The (c, ky, kx, oy, ox) order of the per-element scatter, one
    // in-bounds row segment at a time: distinct `ox` of a segment reach
    // distinct input columns, so every input element receives its terms
    // in the same order.
    let mut lowered = src.chunks_exact(cols);
    for ch in 0..c {
        let plane = &mut out[ch * h * w..(ch + 1) * h * w];
        for ky in 0..win.kh {
            for kx in 0..win.kw {
                let (lo, hi, x0) = input_span(kx, win, w, ow);
                let row = lowered.next().expect("checked src length");
                for (oy, seg) in row.chunks_exact(ow).enumerate() {
                    let Some(iy) = input_row(oy, ky, win, h) else {
                        continue;
                    };
                    let orow = &mut plane[iy * w..(iy + 1) * w];
                    let seg = &seg[lo..hi];
                    if win.sw == 1 {
                        for (o, &v) in orow[x0..x0 + seg.len()].iter_mut().zip(seg) {
                            *o += v;
                        }
                    } else {
                        for (o, &v) in orow[x0..].iter_mut().step_by(win.sw).zip(seg) {
                            *o += v;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Direct (nested-loop) 2-D convolution of a `[C, H, W]` input with
/// `[F, C, kh, kw]` filters plus per-filter bias, producing `[F, oh, ow]`.
///
/// This is the reference kernel; `scnn-nn` cross-validates its instrumented
/// convolution against it.
///
/// # Errors
///
/// Returns shape errors when ranks, channel counts or window geometry are
/// inconsistent.
pub fn conv2d(input: &Tensor, filters: &Tensor, bias: &Tensor, win: Window2d) -> Result<Tensor> {
    input.shape().expect_rank(3)?;
    filters.shape().expect_rank(4)?;
    bias.shape().expect_rank(1)?;
    let (c, h, w) = (input.dims()[0], input.dims()[1], input.dims()[2]);
    let (f, fc, kh, kw) = (
        filters.dims()[0],
        filters.dims()[1],
        filters.dims()[2],
        filters.dims()[3],
    );
    if fc != c {
        return Err(ShapeError::Mismatch {
            left: vec![fc],
            right: vec![c],
        });
    }
    if kh != win.kh || kw != win.kw {
        return Err(ShapeError::WindowMismatch {
            detail: format!(
                "filter kernel {kh}x{kw} disagrees with window {}x{}",
                win.kh, win.kw
            ),
        });
    }
    if bias.dims()[0] != f {
        return Err(ShapeError::Mismatch {
            left: vec![bias.dims()[0]],
            right: vec![f],
        });
    }
    let (oh, ow) = win.output_size(h, w)?;
    let src = input.as_slice();
    let wts = filters.as_slice();
    let bs = bias.as_slice();
    let mut out = vec![0.0f32; f * oh * ow];
    for fi in 0..f {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bs[fi];
                for ch in 0..c {
                    for ky in 0..kh {
                        let iy = (oy * win.sh + ky) as isize - win.ph as isize;
                        if iy < 0 || iy as usize >= h {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * win.sw + kx) as isize - win.pw as isize;
                            if ix < 0 || ix as usize >= w {
                                continue;
                            }
                            acc += wts[((fi * c + ch) * kh + ky) * kw + kx]
                                * src[(ch * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
                out[(fi * oh + oy) * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec(out, [f, oh, ow])
}

/// Numerically stable softmax of a vector.
///
/// # Errors
///
/// Returns [`ShapeError::RankMismatch`] for non-vectors and
/// [`ShapeError::ZeroDim`] for empty input.
pub fn softmax(x: &Tensor) -> Result<Tensor> {
    x.shape().expect_rank(1)?;
    if x.is_empty() {
        return Err(ShapeError::ZeroDim);
    }
    let m = x.max();
    let exps: Vec<f32> = x.as_slice().iter().map(|&v| (v - m).exp()).collect();
    let z: f32 = exps.iter().sum();
    Tensor::from_vec(exps.into_iter().map(|e| e / z).collect(), [x.len()])
}

/// Numerically stable `log(sum(exp(x)))` of a vector.
///
/// # Errors
///
/// Returns [`ShapeError::RankMismatch`] for non-vectors and
/// [`ShapeError::ZeroDim`] for empty input.
pub fn log_sum_exp(x: &Tensor) -> Result<f32> {
    x.shape().expect_rank(1)?;
    if x.is_empty() {
        return Err(ShapeError::ZeroDim);
    }
    let m = x.max();
    let s: f32 = x.as_slice().iter().map(|&v| (v - m).exp()).sum();
    Ok(m + s.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t2(rows: usize, cols: usize, data: &[f32]) -> Tensor {
        Tensor::from_vec(data.to_vec(), [rows, cols]).unwrap()
    }

    #[test]
    fn matmul_identity() {
        let a = t2(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = t2(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_known() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t2(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_mismatch() {
        let a = t2(2, 3, &[0.0; 6]);
        let b = t2(2, 2, &[0.0; 4]);
        assert!(matches!(
            matmul(&a, &b),
            Err(ShapeError::MatmulMismatch { .. })
        ));
    }

    fn filled(rows: usize, cols: usize, seed: usize) -> Tensor {
        Tensor::from_vec(
            (0..rows * cols)
                .map(|i| ((i * 7 + seed * 13) % 23) as f32 - 11.0)
                .collect(),
            [rows, cols],
        )
        .unwrap()
    }

    #[test]
    fn matmul_into_reuses_output_and_scratch() {
        let a = filled(5, 150, 1);
        let b = filled(150, 33, 2);
        let want = matmul(&a, &b).unwrap();
        let mut out = Tensor::full([5, 33], 7.0); // stale values must be overwritten
        let mut scratch = GemmScratch::new();
        matmul_into(&a, &b, &mut out, &mut scratch).unwrap();
        assert_eq!(out, want);
        matmul_into(&a, &b, &mut out, &mut scratch).unwrap();
        assert_eq!(out, want);
        let mut wrong = Tensor::zeros([5, 32]);
        assert!(matmul_into(&a, &b, &mut wrong, &mut scratch).is_err());
    }

    #[test]
    fn gemm_into_bias_and_relu_match_manual_fold() {
        let a = filled(3, 40, 3);
        let b = filled(40, 6, 4);
        let bias = Tensor::from_slice(&[0.5, -0.5, 1.0, 0.0, 2.0, -2.0]);
        let mut out = Tensor::zeros([3, 6]);
        let mut scratch = GemmScratch::new();
        gemm_into(
            &a,
            &b,
            GemmInit::BiasPerCol(bias.as_slice()),
            Some(0.1),
            &mut out,
            &mut scratch,
        )
        .unwrap();
        // Reference: seed with bias, stream k ascending, then threshold.
        for i in 0..3 {
            let mut row = bias.as_slice().to_vec();
            for p in 0..40 {
                let av = a.as_slice()[i * 40 + p];
                for (j, r) in row.iter_mut().enumerate() {
                    *r += av * b.as_slice()[p * 6 + j];
                }
            }
            for r in row.iter_mut() {
                *r = if *r > 0.1 { *r } else { 0.0 };
            }
            assert_eq!(&out.as_slice()[i * 6..(i + 1) * 6], &row[..], "row {i}");
        }
    }

    #[test]
    fn matmul_abt_matches_materialised_transpose_bitwise() {
        let a = filled(4, 37, 5);
        let b = filled(9, 37, 6); // [n, k]
        let want = matmul(&a, &transpose(&b).unwrap()).unwrap();
        assert_eq!(matmul_abt(&a, &b).unwrap(), want);
        let mut acc = want.clone();
        matmul_abt_acc(&a, &b, &mut acc).unwrap();
        let doubled = Tensor::from_vec(
            want.as_slice().iter().map(|&v| v + v).collect(),
            [4usize, 9],
        )
        .unwrap();
        assert_eq!(acc, doubled);
    }

    #[test]
    fn matmul_atb_matches_materialised_transpose_bitwise() {
        let a = filled(11, 4, 7); // [r, m]
        let b = filled(11, 5, 8); // [r, n]
        let want = matmul(&transpose(&a).unwrap(), &b).unwrap();
        assert_eq!(matmul_atb(&a, &b).unwrap(), want);
        let mut acc = want.clone();
        matmul_atb_acc(&a, &b, &mut acc).unwrap();
        let doubled = Tensor::from_vec(
            want.as_slice().iter().map(|&v| v + v).collect(),
            [4usize, 5],
        )
        .unwrap();
        assert_eq!(acc, doubled);
    }

    #[test]
    fn im2col_slice_refill_matches_fresh_lowering() {
        // A padded window has padding positions to rewrite: refilling
        // one buffer sample after sample must still equal a fresh
        // lowering.
        let win = Window2d::same(3);
        let s0 = Tensor::from_vec(
            (0..2 * 5 * 5).map(|i| i as f32 * 0.25 - 3.0).collect(),
            [2, 5, 5],
        )
        .unwrap();
        let s1 = Tensor::from_vec(
            (0..2 * 5 * 5)
                .map(|i| ((i * 3) % 17) as f32 - 8.0)
                .collect(),
            [2, 5, 5],
        )
        .unwrap();
        let c0 = im2col(&s0, win).unwrap();
        let mut buf = vec![0.0f32; c0.len()];
        for s in [&s0, &s1, &s0] {
            let (rows, cols) = im2col_slice_into(s.as_slice(), 2, 5, 5, win, &mut buf).unwrap();
            assert_eq!((rows, cols), (c0.dims()[0], c0.dims()[1]));
            assert_eq!(buf, im2col(s, win).unwrap().as_slice());
        }
        assert!(im2col_slice_into(s0.as_slice(), 2, 5, 5, win, &mut buf[1..]).is_err());
    }

    #[test]
    fn matvec_known() {
        let a = t2(2, 3, &[1.0, 0.0, -1.0, 2.0, 2.0, 2.0]);
        let x = Tensor::from_slice(&[3.0, 4.0, 5.0]);
        let y = matvec(&a, &x).unwrap();
        assert_eq!(y.as_slice(), &[-2.0, 24.0]);
    }

    #[test]
    fn transpose_involutive() {
        let a = t2(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = transpose(&a).unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(transpose(&at).unwrap(), a);
    }

    #[test]
    fn outer_known() {
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let y = Tensor::from_slice(&[3.0, 4.0, 5.0]);
        let o = outer(&x, &y).unwrap();
        assert_eq!(o.dims(), &[2, 3]);
        assert_eq!(o.as_slice(), &[3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn window_output_sizes() {
        assert_eq!(Window2d::simple(3).output_size(5, 5).unwrap(), (3, 3));
        assert_eq!(Window2d::strided(2, 2).output_size(4, 6).unwrap(), (2, 3));
        assert_eq!(Window2d::same(3).output_size(5, 5).unwrap(), (5, 5));
        assert!(Window2d::simple(6).output_size(5, 5).is_err());
        let zero_stride = Window2d {
            sh: 0,
            ..Window2d::simple(2)
        };
        assert!(zero_stride.output_size(4, 4).is_err());
    }

    #[test]
    fn conv2d_matches_im2col_matmul() {
        // Random-ish deterministic data.
        let input = Tensor::from_vec(
            (0..2 * 5 * 5)
                .map(|i| ((i * 7) % 11) as f32 - 5.0)
                .collect(),
            [2, 5, 5],
        )
        .unwrap();
        let filters = Tensor::from_vec(
            (0..3 * 2 * 3 * 3)
                .map(|i| ((i * 5) % 7) as f32 - 3.0)
                .collect(),
            [3, 2, 3, 3],
        )
        .unwrap();
        let bias = Tensor::from_slice(&[0.5, -0.5, 1.0]);
        let win = Window2d::simple(3);

        let direct = conv2d(&input, &filters, &bias, win).unwrap();

        let cols = im2col(&input, win).unwrap();
        let wmat = filters.reshape([3, 2 * 3 * 3]).unwrap();
        let prod = matmul(&wmat, &cols).unwrap();
        let (oh, ow) = win.output_size(5, 5).unwrap();
        for fi in 0..3 {
            for p in 0..oh * ow {
                let expect = prod.as_slice()[fi * oh * ow + p] + bias.as_slice()[fi];
                let got = direct.as_slice()[fi * oh * ow + p];
                assert!(
                    (expect - got).abs() < 1e-4,
                    "f={fi} p={p}: {expect} vs {got}"
                );
            }
        }
    }

    #[test]
    fn conv2d_with_padding_same_size() {
        let input = Tensor::full([1, 4, 4], 1.0);
        let filters = Tensor::full([1, 1, 3, 3], 1.0);
        let bias = Tensor::zeros([1]);
        let out = conv2d(&input, &filters, &bias, Window2d::same(3)).unwrap();
        assert_eq!(out.dims(), &[1, 4, 4]);
        // Corner sees a 2x2 patch, centre sees full 3x3.
        assert_eq!(out.get(&[0, 0, 0]).unwrap(), 4.0);
        assert_eq!(out.get(&[0, 1, 1]).unwrap(), 9.0);
    }

    #[test]
    fn conv2d_rejects_channel_mismatch() {
        let input = Tensor::zeros([2, 4, 4]);
        let filters = Tensor::zeros([1, 3, 3, 3]);
        let bias = Tensor::zeros([1]);
        assert!(conv2d(&input, &filters, &bias, Window2d::simple(3)).is_err());
    }

    #[test]
    fn col2im_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the adjoint identity that the
        // conv backward pass relies on.
        let win = Window2d::strided(2, 1);
        let x = Tensor::from_vec((0..9).map(|i| i as f32).collect(), [1, 3, 3]).unwrap();
        let cols = im2col(&x, win).unwrap();
        let y = Tensor::from_vec(
            (0..cols.len()).map(|i| (i as f32) * 0.5 - 2.0).collect(),
            cols.shape().clone(),
        )
        .unwrap();
        let back = col2im(&y, 1, 3, 3, win).unwrap();
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn softmax_sums_to_one() {
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let s = softmax(&x).unwrap();
        assert!((s.sum() - 1.0).abs() < 1e-6);
        assert!(s.as_slice()[2] > s.as_slice()[1]);
        assert!(s.as_slice()[1] > s.as_slice()[0]);
    }

    #[test]
    fn softmax_stable_for_large_inputs() {
        let x = Tensor::from_slice(&[1000.0, 1000.0]);
        let s = softmax(&x).unwrap();
        assert!(s.all_finite());
        assert!((s.as_slice()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn log_sum_exp_known() {
        let x = Tensor::from_slice(&[0.0, 0.0]);
        assert!((log_sum_exp(&x).unwrap() - (2.0f32).ln()).abs() < 1e-6);
        assert!(log_sum_exp(&Tensor::from_slice(&[])).is_err());
    }
}
