//! Activation layers: ReLU in branchy and branchless (constant-time)
//! flavours.
//!
//! The branchy ReLU is one of the two data-dependent mechanisms that make
//! the CNN's hardware footprint input-dependent (the other is
//! zero-skipping in the compute kernels): its per-element sign branch
//! retires one branch either way, but the *outcome pattern* — and hence
//! `branch-misses` — follows the activation signs. The branchless variant
//! is the countermeasure evaluated in the ablation experiments.

use crate::addr::{Region, SegmentAllocator};
use crate::exec::{ExecContext, Site};
use crate::layer::{Layer, Mode, NnError, Result};
use scnn_tensor::{Shape, Tensor};

/// How ReLU is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReluStyle {
    /// `if x > 0 { x } else { 0 }` with a real conditional branch
    /// (compiler output for scalar code; leaks sign pattern through the
    /// branch predictor).
    #[default]
    Branchy,
    /// `max(x, 0)` via a select/blend instruction — no branch, constant
    /// footprint. The countermeasure.
    Branchless,
}

/// Rectified linear unit, optionally *sparsifying*: activations at or
/// below a threshold are clamped to exact zero.
///
/// A positive threshold models the activation pruning that
/// sparsity-aware inference engines apply so that near-zero feature
/// values (e.g. a trained bias leaking onto background regions) do not
/// defeat downstream zero-skipping. It also regularises the leak story:
/// with `threshold = 0` a positive conv bias lights up the entire
/// background of a feature map, masking the input's sparsity pattern.
#[derive(Debug, Clone)]
pub struct Relu {
    style: ReluStyle,
    threshold: f32,
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU with the given execution style and no sparsifying
    /// threshold.
    pub fn new(style: ReluStyle) -> Self {
        Relu {
            style,
            threshold: 0.0,
            cached_input: None,
        }
    }

    /// Returns the same ReLU with a sparsifying threshold: outputs are
    /// `x` when `x > threshold` and exactly `0.0` otherwise.
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
        self
    }

    /// The execution style.
    pub fn style(&self) -> ReluStyle {
        self.style
    }

    /// The sparsifying threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }
}

impl Default for Relu {
    fn default() -> Self {
        Relu::new(ReluStyle::Branchy)
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape> {
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if mode == Mode::Train {
            self.cached_input = Some(input.clone());
        }
        let t = self.threshold;
        Ok(input.map(|x| if x > t { x } else { 0.0 }))
    }

    fn forward_traced(
        &self,
        input: &Tensor,
        input_region: Region,
        ctx: &mut ExecContext<'_>,
    ) -> Result<(Tensor, Region)> {
        let out_region = ctx.alloc_activation(input.len());
        let mut out = Vec::with_capacity(input.len());
        let t = self.threshold;
        match self.style {
            ReluStyle::Branchy => {
                for (i, &x) in input.as_slice().iter().enumerate() {
                    ctx.load(Site::ACT, input_region, i);
                    let positive = x > t;
                    // The sign test: outcome — and therefore the
                    // predictor's behaviour — depends on the data.
                    ctx.branch(Site::RELU, positive);
                    out.push(if positive { x } else { 0.0 });
                    ctx.store(Site::ACC, out_region, i);
                }
                ctx.counted_loop(Site::LOOP, input.len());
            }
            ReluStyle::Branchless => {
                for (i, &x) in input.as_slice().iter().enumerate() {
                    ctx.load(Site::ACT, input_region, i);
                    // threshold via compare + blend: ALU only, no branch.
                    ctx.alu(1);
                    out.push(if x > t { x } else { 0.0 });
                    ctx.store(Site::ACC, out_region, i);
                }
                ctx.counted_loop(Site::LOOP, input.len());
            }
        }
        Ok((Tensor::from_vec(out, input.shape().clone())?, out_region))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "relu" })?;
        let t = self.threshold;
        Ok(grad_output.zip_with(input, |g, x| if x > t { g } else { 0.0 })?)
    }

    fn forward_batch(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        // Elementwise — the scalar path is already shape-agnostic, so the
        // batched forward is the same map over the batch tensor.
        self.forward(input, mode)
    }

    fn backward_batch(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.backward(grad_output)
    }

    fn assign_addresses(&mut self, _alloc: &mut SegmentAllocator) {}

    fn set_constant_time(&mut self, enabled: bool) {
        self.style = if enabled {
            ReluStyle::Branchless
        } else {
            ReluStyle::Branchy
        };
    }

    fn end_training(&mut self) {
        self.cached_input = None;
    }

    fn spec(&self) -> crate::spec::LayerSpec {
        crate::spec::LayerSpec::Relu {
            style: self.style,
            threshold: self.threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_uarch::CountingProbe;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::default();
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn traced_matches_reference_both_styles() {
        let x = Tensor::from_slice(&[-3.0, 1.5, 0.0, -0.1, 7.0]);
        for style in [ReluStyle::Branchy, ReluStyle::Branchless] {
            let mut relu = Relu::new(style);
            let want = relu.forward(&x, Mode::Infer).unwrap();
            let mut probe = CountingProbe::new();
            let mut ctx = ExecContext::new(&mut probe);
            let region = ctx.alloc_activation(x.len());
            let (got, _) = relu.forward_traced(&x, region, &mut ctx).unwrap();
            assert_eq!(got, want, "{style:?}");
        }
    }

    #[test]
    fn branchy_emits_data_branches_branchless_does_not() {
        let x = Tensor::from_slice(&[-1.0, 1.0, -1.0, 1.0]);
        let count = |style| {
            let relu = Relu::new(style);
            let mut probe = CountingProbe::new();
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(x.len());
                relu.forward_traced(&x, region, &mut ctx).unwrap();
            }
            probe
        };
        let branchy = count(ReluStyle::Branchy);
        let branchless = count(ReluStyle::Branchless);
        // Branchy: 4 sign branches + 5 loop branches; branchless: loop only.
        assert_eq!(branchy.branches, 4 + 5);
        assert_eq!(branchless.branches, 5);
        // Branchless spends the blend as ALU work instead.
        assert!(branchless.alu_ops > 0);
    }

    #[test]
    fn branchy_taken_pattern_follows_signs() {
        let x = Tensor::from_slice(&[1.0, 1.0, 1.0, -1.0]);
        let relu = Relu::default();
        let mut probe = CountingProbe::new();
        {
            let mut ctx = ExecContext::new(&mut probe);
            let region = ctx.alloc_activation(x.len());
            relu.forward_traced(&x, region, &mut ctx).unwrap();
        }
        // 3 positive sign-branches taken + 4 loop back-edges taken.
        assert_eq!(probe.taken_branches, 3 + 4);
    }

    #[test]
    fn threshold_sparsifies() {
        let mut relu = Relu::default().with_threshold(0.1);
        let x = Tensor::from_slice(&[-1.0, 0.05, 0.1, 0.2]);
        let y = relu.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 0.0, 0.2]);
        // Gradient masked at the same threshold.
        let g = relu.backward(&Tensor::full([4], 1.0)).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 0.0, 0.0, 1.0]);
        // Traced path agrees, both styles.
        for style in [ReluStyle::Branchy, ReluStyle::Branchless] {
            let r = Relu::new(style).with_threshold(0.1);
            let mut probe = CountingProbe::new();
            let mut ctx = ExecContext::new(&mut probe);
            let region = ctx.alloc_activation(x.len());
            let (got, _) = r.forward_traced(&x, region, &mut ctx).unwrap();
            assert_eq!(got, y, "{style:?}");
        }
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::default();
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        relu.forward(&x, Mode::Train).unwrap();
        let g = relu.backward(&Tensor::from_slice(&[10.0, 10.0])).unwrap();
        assert_eq!(g.as_slice(), &[0.0, 10.0]);
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut relu = Relu::default();
        assert!(matches!(
            relu.backward(&Tensor::from_slice(&[1.0])),
            Err(NnError::NoForwardCache { .. })
        ));
    }

    #[test]
    fn infer_mode_does_not_cache() {
        let mut relu = Relu::default();
        relu.forward(&Tensor::from_slice(&[1.0]), Mode::Infer)
            .unwrap();
        assert!(relu.backward(&Tensor::from_slice(&[1.0])).is_err());
    }
}
