//! 2-D convolution with an input-stationary, zero-skipping kernel.
//!
//! The traced kernel iterates over *input* pixels and scatters each
//! pixel's contribution to every output it reaches. A zero input pixel is
//! skipped after a single test, so its multiply-accumulate work never
//! happens.
//!
//! Like real CPU inference stacks, the kernel also materialises a
//! **lowering scratch buffer**: a *compacted* (gather-style) sparse
//! im2col that appends each live pixel's patch entries contiguously,
//! leaving dead pixels out entirely (their positions live in a small
//! index array instead). The scratch cache-line footprint is therefore
//! proportional to the number of non-zero activations of the layer input
//! at per-pixel granularity. For the first convolution of an MNIST-style
//! classifier that count is the amount of ink in the digit — the most
//! direct leak of the private input, and the dominant source of the
//! class-dependent `cache-misses` distributions reproduced from the
//! paper.

use crate::addr::{Region, SegmentAllocator};
use crate::exec::{ExecContext, Site, Strided};
use crate::layer::{Layer, Mode, NnError, Param, Result};
use scnn_rng::{ChaCha8Rng, SeedableRng, SliceRandom};
use scnn_tensor::gemm::{self, GemmInit, GemmScratch};
use scnn_tensor::ops::{self, Window2d};
use scnn_tensor::{Init, Shape, ShapeError, Tensor};

/// Working buffers for the lowered (im2col + GEMM) convolution paths,
/// reused across calls so steady-state forward/backward allocates only
/// its output tensor. Clones are empty: scratch is working state, and a
/// replica cloned for parallel gradient work regrows its own.
#[derive(Debug, Default)]
struct ConvScratch {
    gemm: GemmScratch,
    /// im2col lowering of one sample: inference lowers and multiplies a
    /// batch one sample at a time, so this never outgrows one sample.
    cols: Vec<f32>,
    /// Staging for `Wᵀ·dY` before `col2im` scatters it.
    stage: Vec<f32>,
}

impl Clone for ConvScratch {
    fn clone(&self) -> Self {
        ConvScratch::default()
    }
}

/// What a [`Mode::Train`] forward leaves for backward: the input's shape
/// and its im2col lowering, sample `s` at `s · rows · P`. Backward reads
/// the lowering instead of re-running im2col on the input.
#[derive(Debug, Clone)]
struct TrainCache {
    input_shape: Shape,
    cols: Vec<f32>,
}

/// How the convolution kernel treats zero input activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConvStyle {
    /// Skip all work for a zero input pixel (sparsity-aware, leaks).
    #[default]
    ZeroSkip,
    /// Touch every weight and accumulator regardless — the
    /// constant-footprint countermeasure.
    Dense,
}

/// A 2-D convolution layer over `[C, H, W]` inputs with `[F, C, kh, kw]`
/// filters.
#[derive(Debug, Clone)]
pub struct Conv2d {
    filters: Param,
    bias: Param,
    use_bias: bool,
    in_channels: usize,
    out_channels: usize,
    win: Window2d,
    style: ConvStyle,
    /// When set, the traced kernel reports input-pixel loads through a
    /// seeded permutation of the activation address space (runtime-only
    /// state, never serialized — see [`Layer::set_shuffle`]).
    shuffle: Option<u64>,
    filter_region: Option<Region>,
    bias_region: Option<Region>,
    train_cache: Option<TrainCache>,
    scratch: ConvScratch,
}

impl Conv2d {
    /// Creates the layer with He-normal filters derived from `seed`.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        style: ConvStyle,
        seed: u64,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let filters = Init::HeNormal.sample(
            [out_channels, in_channels, kernel, kernel],
            fan_in,
            out_channels,
            seed,
        );
        let bias = Init::Zeros.sample([out_channels], fan_in, out_channels, seed ^ 1);
        Conv2d {
            filters: Param::new(filters),
            bias: Param::new(bias),
            use_bias: true,
            in_channels,
            out_channels,
            win: Window2d::simple(kernel),
            style,
            shuffle: None,
            filter_region: None,
            bias_region: None,
            train_cache: None,
            scratch: ConvScratch::default(),
        }
    }

    /// Rebuilds a layer from existing parameters (deserialization).
    ///
    /// # Panics
    ///
    /// Panics when `filters` is not `[F, C, k, k]` with a square kernel or
    /// `bias` is not `[F]`.
    pub fn from_params(filters: Tensor, bias: Tensor, style: ConvStyle, use_bias: bool) -> Self {
        assert_eq!(filters.shape().rank(), 4, "filters must be [F, C, kh, kw]");
        let (f, c, kh, kw) = (
            filters.dims()[0],
            filters.dims()[1],
            filters.dims()[2],
            filters.dims()[3],
        );
        assert_eq!(kh, kw, "kernel must be square");
        assert_eq!(bias.dims(), &[f], "bias must be [F]");
        Conv2d {
            filters: Param::new(filters),
            bias: Param::new(bias),
            use_bias,
            in_channels: c,
            out_channels: f,
            win: Window2d::simple(kh),
            style,
            shuffle: None,
            filter_region: None,
            bias_region: None,
            train_cache: None,
            scratch: ConvScratch::default(),
        }
    }

    /// Returns the same layer without a trainable bias (the usual choice
    /// for convolutions feeding a ReLU): outputs over an all-zero
    /// receptive field stay exactly zero, preserving input sparsity
    /// through the network.
    pub fn without_bias(mut self) -> Self {
        self.use_bias = false;
        self.bias = Param::new(scnn_tensor::Tensor::zeros([self.out_channels]));
        self
    }

    /// True when the layer has a trainable bias.
    pub fn has_bias(&self) -> bool {
        self.use_bias
    }

    /// The kernel style.
    pub fn style(&self) -> ConvStyle {
        self.style
    }

    /// Switches the kernel style (countermeasure ablation).
    pub fn set_style(&mut self, style: ConvStyle) {
        self.style = style;
    }

    /// The sliding-window geometry.
    pub fn window(&self) -> Window2d {
        self.win
    }

    fn geometry(&self, input: &Shape) -> Result<(usize, usize, usize, usize)> {
        input.expect_rank(3)?;
        if input.dim(0) != self.in_channels {
            return Err(NnError::Shape(ShapeError::Mismatch {
                left: vec![input.dim(0)],
                right: vec![self.in_channels],
            }));
        }
        let (h, w) = (input.dim(1), input.dim(2));
        let (oh, ow) = self.win.output_size(h, w)?;
        Ok((h, w, oh, ow))
    }

    /// Input-stationary scatter convolution behind `forward_traced` (the
    /// numeric path runs lowered, see `forward`). `emit_pixel`
    /// observes `(input_index, is_zero_skipped)` per input pixel;
    /// `emit_tap` observes `(weight_index, output_index)` of filter 0
    /// once per live pixel × kernel tap, before that tap's
    /// multiply-accumulates over every filter `f`, which touch weight
    /// `weight_index + f·C·kh·kw` and output `output_index + f·oh·ow`.
    fn scatter<FP, FT>(
        &self,
        input: &Tensor,
        mut emit_pixel: FP,
        mut emit_tap: FT,
    ) -> Result<Tensor>
    where
        FP: FnMut(usize, bool),
        FT: FnMut(usize, usize),
    {
        let (h, w, oh, ow) = self.geometry(input.shape())?;
        let (kh, kw) = (self.win.kh, self.win.kw);
        let src = input.as_slice();
        let wts = self.filters.value.as_slice();
        let rows = self.in_channels * kh * kw;
        let mut out = vec![0.0f32; self.out_channels * oh * ow];

        // Bias initialisation.
        for f in 0..self.out_channels {
            let b = self.bias.value.as_slice()[f];
            for p in 0..oh * ow {
                out[f * oh * ow + p] = b;
            }
        }

        for c in 0..self.in_channels {
            for iy in 0..h {
                for ix in 0..w {
                    let ii = (c * h + iy) * w + ix;
                    let x = src[ii];
                    let skipped = self.style == ConvStyle::ZeroSkip && x == 0.0;
                    emit_pixel(ii, skipped);
                    if skipped {
                        continue;
                    }
                    // Outputs reached by this input pixel: oy·sh + ky = iy.
                    for ky in 0..kh {
                        let oy_num = iy as isize + self.win.ph as isize - ky as isize;
                        if oy_num < 0 {
                            continue;
                        }
                        let oy_num = oy_num as usize;
                        if !oy_num.is_multiple_of(self.win.sh) {
                            continue;
                        }
                        let oy = oy_num / self.win.sh;
                        if oy >= oh {
                            continue;
                        }
                        for kx in 0..kw {
                            let ox_num = ix as isize + self.win.pw as isize - kx as isize;
                            if ox_num < 0 {
                                continue;
                            }
                            let ox_num = ox_num as usize;
                            if !ox_num.is_multiple_of(self.win.sw) {
                                continue;
                            }
                            let ox = ox_num / self.win.sw;
                            if ox >= ow {
                                continue;
                            }
                            let wi = (c * kh + ky) * kw + kx;
                            let oi = oy * ow + ox;
                            emit_tap(wi, oi);
                            for f in 0..self.out_channels {
                                out[f * oh * ow + oi] += wts[f * rows + wi] * x;
                            }
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(out, [self.out_channels, oh, ow])?)
    }

    /// `(n, h, w, oh, ow)` of a `[N, C, H, W]` batch.
    fn batch_geometry(&self, input: &Shape) -> Result<(usize, usize, usize, usize, usize)> {
        let (n, sample) = crate::batch::split_batch(input)?;
        let (h, w, oh, ow) = self.geometry(&sample)?;
        Ok((n, h, w, oh, ow))
    }

    /// `(n, h, w, p)` of the input cached by the last Train forward, after
    /// checking that `grad_output` is the matching `[N, F, oh, ow]`.
    fn train_geometry(&self, grad_output: &Tensor) -> Result<(usize, usize, usize, usize)> {
        let cache = self
            .train_cache
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "conv2d" })?;
        let (n, h, w, oh, ow) = self.batch_geometry(&cache.input_shape)?;
        grad_output
            .shape()
            .expect_same(&Shape::from([n, self.out_channels, oh, ow]))?;
        Ok((n, h, w, oh * ow))
    }

    /// Parameter half of backward, shared by both backward entry points:
    /// samples in batch order, each accumulating `dW += dY·colsᵀ` against
    /// the lowering cached by the Train forward, then `db += Σ_p dY`.
    fn param_grads(&mut self, grad_output: &Tensor) -> Result<()> {
        let (n, _, _, p) = self.train_geometry(grad_output)?;
        let f = self.out_channels;
        let rows = self.in_channels * self.win.kh * self.win.kw;
        let cols = &self.train_cache.as_ref().expect("checked above").cols;
        let go = grad_output.as_slice();
        for s in 0..n {
            let go_s = &go[s * f * p..(s + 1) * f * p];
            // dW += dY·colsᵀ without materialising the transpose.
            gemm::gemm_abt(
                go_s,
                &cols[s * rows * p..(s + 1) * rows * p],
                f,
                p,
                rows,
                true,
                self.filters.grad.as_mut_slice(),
                &mut self.scratch.gemm,
            )?;
            // db[f] = Σ_p dY[f][p] (skipped entirely for bias-free layers).
            if self.use_bias {
                let gb = self.bias.grad.as_mut_slice();
                for (fi, gbf) in gb.iter_mut().enumerate() {
                    *gbf += go_s[fi * p..(fi + 1) * p].iter().sum::<f32>();
                }
            }
        }
        Ok(())
    }

    /// Input half of backward: `dX_s = col2im(Wᵀ·dY_s)` per sample,
    /// transpose-free. Reads only the weights and `dY`, so running it
    /// after `param_grads` yields the same bits as interleaving the two
    /// per sample.
    fn input_grad(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (n, h, w, p) = self.train_geometry(grad_output)?;
        let (c, f) = (self.in_channels, self.out_channels);
        let rows = c * self.win.kh * self.win.kw;
        let sample_len = c * h * w;
        let go = grad_output.as_slice();
        let mut dx = vec![0.0f32; n * sample_len];
        // `gemm_atb` overwrites the whole staging buffer.
        self.scratch.stage.resize(rows * p, 0.0);
        for s in 0..n {
            gemm::gemm_atb(
                self.filters.value.as_slice(),
                &go[s * f * p..(s + 1) * f * p],
                f,
                rows,
                p,
                false,
                &mut self.scratch.stage,
            )?;
            ops::col2im_into(
                &self.scratch.stage,
                c,
                h,
                w,
                self.win,
                &mut dx[s * sample_len..(s + 1) * sample_len],
            )?;
        }
        let shape = self
            .train_cache
            .as_ref()
            .expect("checked above")
            .input_shape
            .clone();
        Ok(Tensor::from_vec(dx, shape)?)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape> {
        let (_, _, oh, ow) = self.geometry(input)?;
        Ok(Shape::from(vec![self.out_channels, oh, ow]))
    }

    /// The numeric path runs lowered (im2col + GEMM); `scatter` remains
    /// the *leakage model* driven by `forward_traced`. Each sample is
    /// lowered on its own and convolved by one `[F, K] × [K, P]` GEMM
    /// seeded with the bias, straight into its `[F, P]` block of the
    /// output. Bit-compatible
    /// with `scatter`: a fixed output's contributions arrive in
    /// `(c, ky, kx)` order — exactly the im2col row order the GEMM
    /// reduces in — and the GEMM's extra `w·0` padding/zero-pixel terms
    /// cannot move a finite accumulator (see DESIGN.md §12). One sample
    /// per GEMM is also what keeps a batch row bit-identical to that
    /// sample run as a batch of one.
    ///
    /// [`Mode::Train`] keeps every sample's lowering in the train cache
    /// for backward; inference reuses one sample's worth of scratch.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (n, h, w, oh, ow) = self.batch_geometry(input.shape())?;
        let (c, f, p) = (self.in_channels, self.out_channels, oh * ow);
        let rows = c * self.win.kh * self.win.kw;
        let (sample_len, lowered_len) = (c * h * w, rows * p);
        let kept = if mode == Mode::Train { n } else { 1 };
        let mut cols = match mode {
            Mode::Train => self.train_cache.take().map(|t| t.cols).unwrap_or_default(),
            Mode::Infer => std::mem::take(&mut self.scratch.cols),
        };
        // im2col writes every position, so the buffer is not cleared first.
        cols.resize(kept * lowered_len, 0.0);
        let mut out = vec![0.0f32; n * f * p];
        let src = input.as_slice();
        for s in 0..n {
            let lowered = &mut cols[(s % kept) * lowered_len..][..lowered_len];
            ops::im2col_slice_into(
                &src[s * sample_len..(s + 1) * sample_len],
                c,
                h,
                w,
                self.win,
                lowered,
            )?;
            gemm::gemm(
                self.filters.value.as_slice(),
                lowered,
                f,
                rows,
                p,
                GemmInit::BiasPerRow(self.bias.value.as_slice()),
                None,
                &mut out[s * f * p..(s + 1) * f * p],
                &mut self.scratch.gemm,
            )?;
        }
        match mode {
            Mode::Train => {
                self.train_cache = Some(TrainCache {
                    input_shape: input.shape().clone(),
                    cols,
                });
            }
            Mode::Infer => self.scratch.cols = cols,
        }
        Ok(Tensor::from_vec(out, [n, f, oh, ow])?)
    }

    fn forward_traced(
        &self,
        input: &Tensor,
        input_region: Region,
        ctx: &mut ExecContext<'_>,
    ) -> Result<(Tensor, Region)> {
        let out_shape = self.output_shape(input.shape())?;
        let out_region = ctx.alloc_activation(out_shape.len());
        let filter_region = self
            .filter_region
            .unwrap_or_else(|| Region::new(crate::addr::STATIC_BASE, self.filters.value.len()));
        let bias_region = self
            .bias_region
            .unwrap_or_else(|| Region::new(filter_region.end(), self.bias.value.len()));
        // Compacted sparse-im2col scratch: one ≤kh·kw-entry patch row is
        // appended per live input pixel, so the region's touched prefix —
        // and its cache-line footprint — is linear in the non-zero count.
        // A compacted format needs the coordinates too, so a parallel
        // u32 index array is written alongside the values.
        let lowering_rows = self.in_channels * self.win.kh * self.win.kw;
        let patch = self.win.kh * self.win.kw;
        let scratch_region = ctx.alloc_activation(input.len() * patch);
        let scratch_idx_region = ctx.alloc_activation(input.len() * patch);

        // Accumulator initialisation: bias broadcast, or a plain memset
        // for bias-free layers. Either way every output line is touched.
        let pixels = out_shape.len() / self.out_channels;
        for f in 0..self.out_channels {
            if self.use_bias {
                ctx.load(Site::WEIGHT, bias_region, f);
            }
            for p in 0..pixels {
                ctx.store(Site::ACC, out_region, f * pixels + p);
            }
        }
        ctx.counted_loop(Site::LOOP, out_shape.len());

        let zero_skip = self.style == ConvStyle::ZeroSkip;
        // With shuffling armed, input-pixel loads are reported through a
        // seeded permutation of the activation index space: the probe
        // sees a scrambled address layout while the scatter itself (and
        // with it every number) runs in its usual order.
        let perm = self.shuffle.map(|seed| {
            let salt = ((self.in_channels as u64) << 32) | self.out_channels as u64;
            let mut perm: Vec<usize> = (0..input.len()).collect();
            perm.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ salt));
            perm
        });
        let mut pixel_count = 0usize;
        let mut scratch_cursor = 0usize;
        let out = {
            // Split borrows for the two closures.
            let ctx_cell = std::cell::RefCell::new(&mut *ctx);
            self.scatter(
                input,
                |ii, skipped| {
                    let mut c = ctx_cell.borrow_mut();
                    let reported = perm.as_ref().map_or(ii, |p| p[ii]);
                    c.load(Site::ACT, input_region, reported);
                    if zero_skip {
                        c.branch(Site::SKIP, skipped);
                    }
                    pixel_count += 1;
                },
                |wi, oi| {
                    let mut c = ctx_cell.borrow_mut();
                    // Each (pixel, ky, kx) triple appends one value + one
                    // index entry to the compacted lowering scratch, then
                    // multiply-accumulates into every filter's output.
                    c.store(Site::SCRATCH, scratch_region, scratch_cursor);
                    c.store(Site::SCRATCH, scratch_idx_region, scratch_cursor);
                    scratch_cursor += 1;
                    let weights = Strided {
                        region: filter_region,
                        start: wi,
                        step: lowering_rows,
                    };
                    let acc = Strided {
                        region: out_region,
                        start: oi,
                        step: pixels,
                    };
                    c.mac_run(weights, acc, self.out_channels);
                },
            )?
        };
        ctx.counted_loop(Site::LOOP, pixel_count);
        Ok((out, out_region))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.param_grads(grad_output)?;
        self.input_grad(grad_output)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.param_grads(grad_output)
    }

    fn end_training(&mut self) {
        self.train_cache = None;
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        if self.use_bias {
            vec![&mut self.filters, &mut self.bias]
        } else {
            vec![&mut self.filters]
        }
    }

    fn assign_addresses(&mut self, alloc: &mut SegmentAllocator) {
        self.filter_region = Some(alloc.alloc(self.filters.value.len()));
        self.bias_region = Some(alloc.alloc(self.bias.value.len()));
    }

    fn param_count(&self) -> usize {
        self.filters.value.len()
            + if self.use_bias {
                self.bias.value.len()
            } else {
                0
            }
    }

    fn set_constant_time(&mut self, enabled: bool) {
        self.style = if enabled {
            ConvStyle::Dense
        } else {
            ConvStyle::ZeroSkip
        };
    }

    fn set_shuffle(&mut self, seed: Option<u64>) {
        self.shuffle = seed;
    }

    fn spec(&self) -> crate::spec::LayerSpec {
        crate::spec::LayerSpec::Conv2d {
            filters: self.filters.value.clone(),
            bias: self.bias.value.clone(),
            style: self.style,
            use_bias: self.use_bias,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::stack;
    use scnn_uarch::CountingProbe;

    /// `x` as a batch of one.
    fn one(x: &Tensor) -> Tensor {
        stack(&[x]).unwrap()
    }

    fn input(seed: u64) -> Tensor {
        let data: Vec<f32> = (0..2 * 6 * 6)
            .map(|i| {
                let v = (((i as u64).wrapping_mul(seed * 2 + 1) * 2654435761) >> 24) % 17;
                if v < 6 {
                    0.0
                } else {
                    v as f32 / 8.0 - 1.0
                }
            })
            .collect();
        Tensor::from_vec(data, [2, 6, 6]).unwrap()
    }

    #[test]
    fn forward_matches_reference_conv() {
        let mut conv = Conv2d::new(2, 3, 3, ConvStyle::ZeroSkip, 5);
        let x = input(1);
        let got = conv.forward(&one(&x), Mode::Infer).unwrap();
        let want = ops::conv2d(&x, &conv.filters.value, &conv.bias.value, conv.win).unwrap();
        assert_eq!(&got.dims()[1..], want.dims());
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn traced_matches_reference() {
        for style in [ConvStyle::ZeroSkip, ConvStyle::Dense] {
            let mut conv = Conv2d::new(2, 3, 3, style, 5);
            let x = input(2);
            let want = conv.forward(&one(&x), Mode::Infer).unwrap();
            let mut probe = CountingProbe::new();
            let mut ctx = ExecContext::new(&mut probe);
            let region = ctx.alloc_activation(x.len());
            let (got, _) = conv.forward_traced(&x, region, &mut ctx).unwrap();
            assert_eq!(got.dims(), &want.dims()[1..], "{style:?}");
            assert_eq!(got.as_slice(), want.as_slice(), "{style:?}");
        }
    }

    #[test]
    fn zero_skip_footprint_tracks_sparsity() {
        let loads = |x: &Tensor| {
            let conv = Conv2d::new(2, 3, 3, ConvStyle::ZeroSkip, 5);
            let mut probe = CountingProbe::new();
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(x.len());
                conv.forward_traced(x, region, &mut ctx).unwrap();
            }
            probe.loads
        };
        let sparse = Tensor::zeros([2, 6, 6]);
        let dense = Tensor::full([2, 6, 6], 1.0);
        let mid = input(3);
        assert!(loads(&sparse) < loads(&mid));
        assert!(loads(&mid) < loads(&dense));
    }

    #[test]
    fn dense_style_footprint_is_constant() {
        let loads = |x: &Tensor| {
            let conv = Conv2d::new(2, 3, 3, ConvStyle::Dense, 5);
            let mut probe = CountingProbe::new();
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(x.len());
                conv.forward_traced(x, region, &mut ctx).unwrap();
            }
            (probe.loads, probe.branches)
        };
        assert_eq!(
            loads(&Tensor::zeros([2, 6, 6])),
            loads(&Tensor::full([2, 6, 6], 1.0))
        );
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut conv = Conv2d::new(1, 2, 3, ConvStyle::Dense, 9);
        let x = Tensor::from_vec(
            (0..16).map(|i| (i as f32 * 0.13).sin()).collect(),
            [1, 1, 4, 4],
        )
        .unwrap();
        conv.forward(&x, Mode::Train).unwrap();
        let gy = Tensor::full([1, 2, 2, 2], 1.0);
        let gx = conv.backward(&gy).unwrap();

        let eps = 1e-2f32;
        for i in [0usize, 5, 10, 15] {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = conv.forward(&xp, Mode::Infer).unwrap().sum();
            let fm = conv.forward(&xm, Mode::Infer).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = gx.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "dx[{i}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn filter_gradient_finite_differences() {
        let x = Tensor::from_vec(
            (0..16).map(|i| ((i * 3) % 7) as f32 * 0.2 - 0.5).collect(),
            [1, 1, 4, 4],
        )
        .unwrap();
        let mut conv = Conv2d::new(1, 1, 3, ConvStyle::Dense, 21);
        conv.forward(&x, Mode::Train).unwrap();
        conv.backward(&Tensor::full([1, 1, 2, 2], 1.0)).unwrap();
        let analytic = conv.filters.grad.clone();

        let eps = 1e-2f32;
        for wi in [0usize, 4, 8] {
            let orig = conv.filters.value.as_slice()[wi];
            conv.filters.value.as_mut_slice()[wi] = orig + eps;
            let fp = conv.forward(&x, Mode::Infer).unwrap().sum();
            conv.filters.value.as_mut_slice()[wi] = orig - eps;
            let fm = conv.forward(&x, Mode::Infer).unwrap().sum();
            conv.filters.value.as_mut_slice()[wi] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic.as_slice()[wi]).abs() < 2e-2,
                "dW[{wi}]: numeric {numeric} vs analytic {}",
                analytic.as_slice()[wi]
            );
        }
    }

    #[test]
    fn bias_free_conv_keeps_background_zero() {
        let mut conv = Conv2d::new(1, 4, 3, ConvStyle::ZeroSkip, 7).without_bias();
        assert!(!conv.has_bias());
        assert_eq!(conv.params_mut().len(), 1);
        let y = conv
            .forward(&Tensor::zeros([1, 1, 6, 6]), Mode::Infer)
            .unwrap();
        assert_eq!(y.sum(), 0.0, "zero input must give exactly zero output");
        // Training never moves the bias.
        conv.forward(&Tensor::full([1, 1, 6, 6], 0.5), Mode::Train)
            .unwrap();
        conv.backward(&Tensor::full([1, 4, 4, 4], 1.0)).unwrap();
        assert_eq!(conv.bias.grad.sum(), 0.0);
    }

    fn grad_bits(conv: &mut Conv2d) -> Vec<u32> {
        conv.params_mut()
            .iter()
            .flat_map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    fn batch(n: usize) -> Tensor {
        let data: Vec<f32> = (0..n as u64)
            .flat_map(|s| input(s + 4).into_vec())
            .collect();
        Tensor::from_vec(data, [n, 2, 6, 6]).unwrap()
    }

    #[test]
    fn parameter_only_backward_matches_full_backward_bitwise() {
        let gy: Vec<f32> = (0..3 * 4 * 4).map(|i| (i as f32 * 0.37).sin()).collect();
        for (n, mut full) in [
            (1, Conv2d::new(2, 3, 3, ConvStyle::ZeroSkip, 5)),
            (3, Conv2d::new(2, 3, 3, ConvStyle::Dense, 6).without_bias()),
        ] {
            let gys = Tensor::from_vec(gy.repeat(n), [n, 3, 4, 4]).unwrap();
            let mut params = full.clone();
            for _ in 0..2 {
                full.forward(&batch(n), Mode::Train).unwrap();
                full.backward(&gys).unwrap();
                params.forward(&batch(n), Mode::Train).unwrap();
                params.backward_params(&gys).unwrap();
            }
            assert_eq!(grad_bits(&mut params), grad_bits(&mut full), "n = {n}");
        }
    }

    #[test]
    fn train_cache_outlives_inference_forwards() {
        // Backward reads the lowering the Train forward cached, so an
        // inference pass in between (which lowers into scratch) must not
        // change the gradients.
        let gy = Tensor::full([1, 3, 4, 4], 0.5);
        let mut plain = Conv2d::new(2, 3, 3, ConvStyle::ZeroSkip, 5);
        let mut interleaved = plain.clone();
        plain.forward(&one(&input(1)), Mode::Train).unwrap();
        let dx_plain = plain.backward(&gy).unwrap();
        interleaved.forward(&one(&input(1)), Mode::Train).unwrap();
        interleaved.forward(&batch(4), Mode::Infer).unwrap();
        interleaved.forward(&one(&input(2)), Mode::Infer).unwrap();
        let dx = interleaved.backward(&gy).unwrap();
        assert_eq!(dx, dx_plain);
        assert_eq!(grad_bits(&mut interleaved), grad_bits(&mut plain));
    }

    #[test]
    fn inference_scratch_holds_one_sample_lowering() {
        // The evaluation batch of `train::accuracy` (32 images) is lowered
        // and multiplied one sample at a time: scratch never grows past
        // one sample's `[C·k·k, P]` lowering.
        let mut conv = Conv2d::new(2, 3, 3, ConvStyle::ZeroSkip, 5);
        let one_sample = 2 * 3 * 3 * 4 * 4;
        let out = conv.forward(&batch(32), Mode::Infer).unwrap();
        assert_eq!(out.dims(), &[32, 3, 4, 4]);
        assert!(conv.scratch.cols.capacity() <= one_sample);
        assert_eq!(conv.scratch.stage.capacity(), 0);
        assert!(conv.train_cache.is_none());
        // Rows still equal each sample run as a batch of one.
        for s in [0usize, 17, 31] {
            let lone = conv
                .forward(&one(&input(s as u64 + 4)), Mode::Infer)
                .unwrap();
            assert_eq!(&out.as_slice()[s * 48..(s + 1) * 48], lone.as_slice());
        }
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut conv = Conv2d::new(3, 2, 3, ConvStyle::ZeroSkip, 1);
        assert!(conv
            .forward(&Tensor::zeros([1, 2, 6, 6]), Mode::Infer)
            .is_err());
        assert!(
            conv.forward(&Tensor::zeros([3, 6, 6]), Mode::Infer)
                .is_err(),
            "a lone sample is not a batch"
        );
    }

    #[test]
    fn output_shape() {
        let conv = Conv2d::new(1, 8, 5, ConvStyle::ZeroSkip, 1);
        assert_eq!(
            conv.output_shape(&Shape::from([1, 28, 28])).unwrap(),
            Shape::from([8, 24, 24])
        );
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new(2, 3, 3, ConvStyle::ZeroSkip, 1);
        assert_eq!(conv.param_count(), 3 * 2 * 3 * 3 + 3);
    }
}
