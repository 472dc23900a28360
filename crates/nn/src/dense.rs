//! Fully-connected layer with an activation-sparsity-aware ("zero
//! skipping") kernel.
//!
//! The kernel is input-stationary: for every input activation it first
//! tests for zero and, when the test succeeds, skips that activation's
//! entire weight column. To make the column walk sequential the weights
//! are stored **input-major** (`[in_dim][out_dim]`, i.e. transposed) —
//! the layout any real sparse GEMV kernel chooses — so a skipped
//! activation skips *contiguous cache lines* of weights. Because
//! post-ReLU sparsity patterns are class-characteristic, the set of
//! weight lines touched — and with it the `cache-misses` count — depends
//! on *which* category the input image belongs to. This is the principal
//! leakage mechanism reproduced from the paper.

use crate::addr::{Region, SegmentAllocator};
use crate::exec::{ExecContext, Site, Strided};
use crate::layer::{Layer, Mode, NnError, Param, Result};
use scnn_rng::{ChaCha8Rng, SeedableRng, SliceRandom};
use scnn_tensor::gemm;
use scnn_tensor::ops::{self, GemmInit, GemmScratch};
use scnn_tensor::{Init, Shape, ShapeError, Tensor};

/// How the dense kernel treats zero activations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DenseStyle {
    /// Skip the weight column of a zero activation (sparsity-aware GEMV,
    /// the optimisation that leaks).
    #[default]
    ZeroSkip,
    /// Always walk every weight — constant memory footprint, the
    /// countermeasure.
    Dense,
}

/// A fully-connected layer computing `y = W·x + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
    style: DenseStyle,
    /// When set, the traced kernel visits input activations in a seeded
    /// random order instead of ascending index order (runtime-only state,
    /// never serialized — see [`Layer::set_shuffle`]).
    shuffle: Option<u64>,
    weight_region: Option<Region>,
    bias_region: Option<Region>,
    cached_input: Option<Tensor>,
    scratch: GemmScratch,
}

impl Dense {
    /// Creates the layer with He-normal weights derived from `seed`.
    /// Weights are stored input-major: `weight[i][j]` multiplies input
    /// `i` into output `j`.
    pub fn new(in_dim: usize, out_dim: usize, style: DenseStyle, seed: u64) -> Self {
        let weight = Init::HeNormal.sample([in_dim, out_dim], in_dim, out_dim, seed);
        let bias = Init::Zeros.sample([out_dim], in_dim, out_dim, seed ^ 1);
        Dense {
            weight: Param::new(weight),
            bias: Param::new(bias),
            in_dim,
            out_dim,
            style,
            shuffle: None,
            weight_region: None,
            bias_region: None,
            cached_input: None,
            scratch: GemmScratch::new(),
        }
    }

    /// Rebuilds a layer from existing parameters (deserialization).
    /// Weights are input-major: `[in_dim, out_dim]`.
    ///
    /// # Panics
    ///
    /// Panics when `weight` is not rank 2 or `bias` is not `[out_dim]`.
    pub fn from_params(weight: Tensor, bias: Tensor, style: DenseStyle) -> Self {
        assert_eq!(weight.shape().rank(), 2, "weights must be [in, out]");
        let (in_dim, out_dim) = (weight.dims()[0], weight.dims()[1]);
        assert_eq!(bias.dims(), &[out_dim], "bias must be [out]");
        Dense {
            weight: Param::new(weight),
            bias: Param::new(bias),
            in_dim,
            out_dim,
            style,
            shuffle: None,
            weight_region: None,
            bias_region: None,
            cached_input: None,
            scratch: GemmScratch::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The kernel style.
    pub fn style(&self) -> DenseStyle {
        self.style
    }

    /// Switches the kernel style (used by the countermeasure ablation).
    pub fn set_style(&mut self, style: DenseStyle) {
        self.style = style;
    }

    fn check_input(&self, input: &Shape) -> Result<()> {
        input.expect_rank(1)?;
        if input.dim(0) != self.in_dim {
            return Err(NnError::Shape(ShapeError::Mismatch {
                left: input.dims().to_vec(),
                right: vec![self.in_dim],
            }));
        }
        Ok(())
    }

    /// Parameter half of backward: `dW += Xᵀ·G`, `db += Σ_s G[s]`.
    fn param_grads(&mut self, grad_output: &Tensor) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "dense" })?;
        grad_output
            .shape()
            .expect_same(&Shape::from([input.dims()[0], self.out_dim]))?;
        // dW += Xᵀ·G streams samples in increasing order, each adding its
        // outer product `x ⊗ g`.
        ops::matmul_atb_acc(input, grad_output, &mut self.weight.grad)?;
        let gb = self.bias.grad.as_mut_slice();
        for grow in grad_output.as_slice().chunks_exact(self.out_dim) {
            for (gbj, &gj) in gb.iter_mut().zip(grow) {
                *gbj += gj;
            }
        }
        Ok(())
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape> {
        self.check_input(input)?;
        Ok(Shape::from(vec![self.out_dim]))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (n, sample) = crate::batch::split_batch(input.shape())?;
        self.check_input(&sample)?;
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        let mut out = Tensor::zeros([n, self.out_dim]);
        // One [N, in]×[in, out] GEMM: each output row is seeded with the
        // bias and accumulates `xᵢ·Wᵢ`, i ascending.
        ops::gemm_into(
            input,
            &self.weight.value,
            GemmInit::BiasPerCol(self.bias.value.as_slice()),
            None,
            &mut out,
            &mut self.scratch,
        )?;
        Ok(out)
    }

    fn forward_traced(
        &self,
        input: &Tensor,
        input_region: Region,
        ctx: &mut ExecContext<'_>,
    ) -> Result<(Tensor, Region)> {
        self.check_input(input.shape())?;
        let weight_region = self
            .weight_region
            .unwrap_or_else(|| Region::new(crate::addr::STATIC_BASE, self.weight.value.len()));
        let bias_region = self
            .bias_region
            .unwrap_or_else(|| Region::new(weight_region.end(), self.bias.value.len()));
        let out_region = ctx.alloc_activation(self.out_dim);

        // y ← b
        for j in 0..self.out_dim {
            ctx.load(Site::WEIGHT, bias_region, j);
            ctx.store(Site::ACC, out_region, j);
        }
        ctx.counted_loop(Site::LOOP, self.out_dim);

        let x = input.as_slice();
        // With shuffling armed, the input-stationary walk visits the
        // activations in a seeded random order — the probe sees permuted
        // activation/weight addresses and a decorrelated skip pattern.
        // The numeric output is untouched either way: it comes from the
        // branch-free GEMM below.
        let order = self.shuffle.map(|seed| {
            let salt = ((self.in_dim as u64) << 32) | self.out_dim as u64;
            let mut order: Vec<usize> = (0..self.in_dim).collect();
            order.shuffle(&mut ChaCha8Rng::seed_from_u64(seed ^ salt));
            order
        });
        for step in 0..self.in_dim {
            let i = order.as_ref().map_or(step, |o| o[step]);
            let xi = x[i];
            ctx.load(Site::ACT, input_region, i);
            match self.style {
                DenseStyle::ZeroSkip => {
                    let nonzero = xi != 0.0;
                    // The skip test: the branch retires either way, but a
                    // zero activation skips the whole column walk below —
                    // weights stay untouched.
                    ctx.branch(Site::SKIP, !nonzero);
                    if !nonzero {
                        continue;
                    }
                }
                DenseStyle::Dense => {
                    // Constant-footprint kernel: no skip test, every
                    // column is walked.
                }
            }
            // Contiguous column of the input-major weight matrix.
            let weights = Strided {
                region: weight_region,
                start: i * self.out_dim,
                step: 1,
            };
            let acc = Strided {
                region: out_region,
                start: 0,
                step: 1,
            };
            ctx.mac_run(weights, acc, self.out_dim);
            // The column walk is a vectorised AXPY.
            ctx.vector_loop(Site::LOOP, self.out_dim, 8);
        }
        ctx.counted_loop(Site::LOOP, self.in_dim);

        // The event stream above models the skipping kernel; the numbers
        // come from the numeric path's GEMM on a one-row `A`, which reads
        // `W` in place and never touches the scratch. Zero skipping is
        // purely an event-stream property — a numeric skip would defeat
        // autovectorization.
        let mut y = vec![0.0; self.out_dim];
        gemm::gemm(
            x,
            self.weight.value.as_slice(),
            1,
            self.in_dim,
            self.out_dim,
            GemmInit::BiasPerCol(self.bias.value.as_slice()),
            None,
            &mut y,
            &mut GemmScratch::new(),
        )?;
        Ok((Tensor::from_vec(y, [self.out_dim])?, out_region))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.param_grads(grad_output)?;
        // dX = G·Wᵀ: each dx[i] = Σ_j g[j]·W[i][j], one j-ascending fold.
        let n = grad_output.dims()[0];
        let mut dx = Tensor::zeros([n, self.in_dim]);
        gemm::gemm_abt(
            grad_output.as_slice(),
            self.weight.value.as_slice(),
            n,
            self.out_dim,
            self.in_dim,
            false,
            dx.as_mut_slice(),
            &mut self.scratch,
        )?;
        Ok(dx)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.param_grads(grad_output)
    }

    fn end_training(&mut self) {
        self.cached_input = None;
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn assign_addresses(&mut self, alloc: &mut SegmentAllocator) {
        self.weight_region = Some(alloc.alloc(self.weight.value.len()));
        self.bias_region = Some(alloc.alloc(self.bias.value.len()));
    }

    fn param_count(&self) -> usize {
        self.weight.value.len() + self.bias.value.len()
    }

    fn set_constant_time(&mut self, enabled: bool) {
        self.style = if enabled {
            DenseStyle::Dense
        } else {
            DenseStyle::ZeroSkip
        };
    }

    fn set_shuffle(&mut self, seed: Option<u64>) {
        self.shuffle = seed;
    }

    fn spec(&self) -> crate::spec::LayerSpec {
        crate::spec::LayerSpec::Dense {
            weight: self.weight.value.clone(),
            bias: self.bias.value.clone(),
            style: self.style,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_tensor::ops;
    use scnn_uarch::CountingProbe;

    fn layer(style: DenseStyle) -> Dense {
        Dense::new(4, 3, style, 11)
    }

    #[test]
    fn forward_matches_matvec() {
        let mut d = layer(DenseStyle::ZeroSkip);
        let x = Tensor::from_slice(&[0.5, -1.0, 0.0, 2.0]);
        let y = d.forward(&x.reshape([1, 4]).unwrap(), Mode::Infer).unwrap();
        let wt = ops::transpose(&d.weight.value).unwrap();
        let mut expect = ops::matvec(&wt, &x).unwrap();
        expect += &d.bias.value;
        for (a, b) in y.as_slice().iter().zip(expect.as_slice()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn parameter_only_backward_matches_full_backward_bitwise() {
        let bits = |d: &mut Dense| -> Vec<u32> {
            d.params_mut()
                .iter()
                .flat_map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        let x = [0.5, -1.0, 0.0, 2.0, 0.0, 0.0, 1.5, -0.5];
        let g = [0.25, -0.0, -3.0, 1.0, 0.0, -0.5];
        for n in [1, 2] {
            let xb = Tensor::from_vec(x[..n * 4].to_vec(), [n, 4]).unwrap();
            let gb = Tensor::from_vec(g[..n * 3].to_vec(), [n, 3]).unwrap();
            let (mut full, mut params) = (layer(DenseStyle::Dense), layer(DenseStyle::Dense));
            for _ in 0..2 {
                full.forward(&xb, Mode::Train).unwrap();
                full.backward(&gb).unwrap();
                params.forward(&xb, Mode::Train).unwrap();
                params.backward_params(&gb).unwrap();
            }
            assert_eq!(bits(&mut params), bits(&mut full), "n = {n}");
        }
        assert!(matches!(
            layer(DenseStyle::Dense).backward_params(&Tensor::zeros([1, 3])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn traced_matches_reference() {
        for style in [DenseStyle::ZeroSkip, DenseStyle::Dense] {
            let mut d = layer(style);
            let x = Tensor::from_slice(&[0.0, 1.0, 0.0, -2.0]);
            let want = d.forward(&x.reshape([1, 4]).unwrap(), Mode::Infer).unwrap();
            let mut probe = CountingProbe::new();
            let mut ctx = ExecContext::new(&mut probe);
            let region = ctx.alloc_activation(4);
            let (got, _) = d.forward_traced(&x, region, &mut ctx).unwrap();
            assert_eq!(got.dims(), &[3], "{style:?}");
            assert_eq!(got.as_slice(), want.as_slice(), "{style:?}");
        }
    }

    #[test]
    fn zero_skip_touches_fewer_weights() {
        let loads = |style, x: &Tensor| {
            let d = layer(style);
            let mut probe = CountingProbe::new();
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(4);
                d.forward_traced(x, region, &mut ctx).unwrap();
            }
            probe.loads
        };
        let sparse = Tensor::from_slice(&[0.0, 0.0, 0.0, 1.0]);
        let dense_in = Tensor::from_slice(&[1.0, 1.0, 1.0, 1.0]);
        assert!(loads(DenseStyle::ZeroSkip, &sparse) < loads(DenseStyle::ZeroSkip, &dense_in));
        assert_eq!(
            loads(DenseStyle::Dense, &sparse),
            loads(DenseStyle::Dense, &dense_in),
            "constant-footprint kernel ignores sparsity"
        );
    }

    #[test]
    fn branch_counts_data_dependent_only_under_zero_skip() {
        let branch_count = |style, x: &Tensor| {
            let d = layer(style);
            let mut probe = CountingProbe::new();
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(4);
                d.forward_traced(x, region, &mut ctx).unwrap();
            }
            probe.branches
        };
        let sparse = Tensor::from_slice(&[0.0, 1.0, 0.0, 0.0]);
        let dense_in = Tensor::from_slice(&[1.0, 1.0, 1.0, 1.0]);
        // Zero skipping: skipped columns never run their inner loop, so
        // the retired branch count follows the input sparsity.
        assert!(
            branch_count(DenseStyle::ZeroSkip, &sparse)
                < branch_count(DenseStyle::ZeroSkip, &dense_in)
        );
        // The constant-footprint kernel retires the same branches always.
        assert_eq!(
            branch_count(DenseStyle::Dense, &sparse),
            branch_count(DenseStyle::Dense, &dense_in)
        );
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut d = layer(DenseStyle::ZeroSkip);
        let x = Tensor::from_vec(vec![0.3, -0.7, 0.9, 0.1], [1, 4]).unwrap();
        d.forward(&x, Mode::Train).unwrap();
        // Loss = sum(y); dL/dy = 1.
        let ones = Tensor::full([1, 3], 1.0);
        let gx = d.backward(&ones).unwrap();

        let eps = 1e-3f32;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = d.forward(&xp, Mode::Infer).unwrap().sum();
            let fm = d.forward(&xm, Mode::Infer).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - gx.as_slice()[i]).abs() < 1e-2,
                "dx[{i}]: numeric {numeric} vs analytic {}",
                gx.as_slice()[i]
            );
        }

        // Weight gradient: dL/dW[i][j] = x[i] when every g[j] = 1.
        for i in 0..4 {
            for j in 0..3 {
                let got = d.weight.grad.as_slice()[i * 3 + j];
                assert!((got - x.as_slice()[i]).abs() < 1e-6);
            }
        }
        // Bias gradient = 1.
        assert!(d
            .bias
            .grad
            .as_slice()
            .iter()
            .all(|&g| (g - 1.0).abs() < 1e-6));
    }

    #[test]
    fn rejects_wrong_input_shape() {
        let mut d = layer(DenseStyle::ZeroSkip);
        assert!(d.forward(&Tensor::zeros([1, 5]), Mode::Infer).is_err());
        assert!(d.forward(&Tensor::zeros([2, 2]), Mode::Infer).is_err());
        assert!(
            d.forward(&Tensor::zeros([4]), Mode::Infer).is_err(),
            "a lone sample is not a batch"
        );
    }

    #[test]
    fn params_exposed() {
        let mut d = layer(DenseStyle::ZeroSkip);
        assert_eq!(d.params_mut().len(), 2);
        assert_eq!(d.param_count(), 3 * 4 + 3);
    }

    #[test]
    fn assigned_addresses_are_stable() {
        let mut d = layer(DenseStyle::ZeroSkip);
        let mut alloc = SegmentAllocator::statics();
        d.assign_addresses(&mut alloc);
        let w1 = d.weight_region.unwrap();
        // Traced twice: weight loads must hit the same addresses.
        let addrs = |d: &Dense| {
            let mut probe = RecordingProbe::default();
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(4);
                d.forward_traced(&Tensor::full([4], 1.0), region, &mut ctx)
                    .unwrap();
            }
            probe.addrs
        };
        let a1 = addrs(&d);
        let a2 = addrs(&d);
        assert_eq!(a1, a2);
        assert!(a1.iter().any(|&a| a >= w1.base() && a < w1.end()));
    }

    #[test]
    fn shuffle_permutes_trace_but_not_numbers() {
        let x = Tensor::from_slice(&[0.5, 0.0, -1.0, 2.0]);
        let mut reference = layer(DenseStyle::ZeroSkip);
        let want = reference
            .forward(&x.reshape([1, 4]).unwrap(), Mode::Infer)
            .unwrap()
            .reshape([3])
            .unwrap();
        let trace = |shuffle: Option<u64>| {
            let mut d = layer(DenseStyle::ZeroSkip);
            d.set_shuffle(shuffle);
            let mut probe = RecordingProbe::default();
            let got = {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(4);
                d.forward_traced(&x, region, &mut ctx).unwrap().0
            };
            (got, probe.addrs)
        };
        let (plain_out, plain_addrs) = trace(None);
        let (shuf_out, shuf_addrs) = trace(Some(7));
        assert_eq!(plain_out, want);
        assert_eq!(shuf_out, want, "shuffling never changes the numbers");
        assert_eq!(
            plain_addrs.len(),
            shuf_addrs.len(),
            "shuffling permutes accesses, it does not add or drop any"
        );
        assert_ne!(plain_addrs, shuf_addrs, "the probe sees a permuted order");
        // Distinct seeds give distinct permutations.
        let (_, other) = trace(Some(8));
        assert_ne!(shuf_addrs, other);
    }

    #[derive(Default)]
    struct RecordingProbe {
        addrs: Vec<u64>,
    }

    impl scnn_uarch::Probe for RecordingProbe {
        fn load(&mut self, addr: u64, _pc: u64) {
            self.addrs.push(addr);
        }
    }
}
