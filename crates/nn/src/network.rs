//! The [`Network`]: a sequential stack of layers with reference and
//! instrumented execution paths.

use crate::addr::SegmentAllocator;
use crate::exec::{ExecContext, Site};
use crate::layer::{Layer, Mode, NnError, Result};
use scnn_tensor::{Shape, Tensor};
use scnn_uarch::Probe;

/// A sequential neural network.
///
/// # Examples
///
/// ```
/// use scnn_nn::prelude::*;
/// use scnn_tensor::Tensor;
///
/// # fn main() -> Result<(), scnn_nn::NnError> {
/// let mut net = Network::new();
/// net.push(Conv2d::new(1, 4, 3, ConvStyle::ZeroSkip, 7));
/// net.push(Relu::default());
/// net.push(MaxPool2d::new(2));
/// net.push(Flatten::new());
/// net.push(Dense::new(4 * 3 * 3, 2, DenseStyle::ZeroSkip, 8));
/// net.finalize();
///
/// let image = Tensor::full([1, 8, 8], 0.5);
/// let logits = net.infer(&image)?;
/// assert_eq!(logits.dims(), &[2]);
/// # Ok(())
/// # }
/// ```
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    finalized: bool,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Network")
            .field("layers", &names)
            .field("params", &self.param_count())
            .finish()
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Clone for Network {
    /// Deep-copies every layer (weights, gradients, kernel style and
    /// assigned addresses) via [`Layer::clone_box`]. A clone is fully
    /// independent: training it or running traced inference on it never
    /// touches the original, which is what lets minibatch gradients be
    /// evaluated on per-worker replicas.
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.iter().map(|l| l.clone_box()).collect(),
            finalized: self.finalized,
        }
    }
}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network {
            layers: Vec::new(),
            finalized: false,
        }
    }

    /// Appends a layer.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
        self.finalized = false;
    }

    /// Appends an already-boxed layer (used by deserialization).
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
        self.finalized = false;
    }

    /// Assigns stable weight addresses to every layer. Must be called
    /// once after the last `push` and before any traced execution;
    /// reference execution works either way.
    pub fn finalize(&mut self) {
        let mut alloc = SegmentAllocator::statics();
        for layer in &mut self.layers {
            layer.assign_addresses(&mut alloc);
        }
        self.finalized = true;
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Output shape for an input shape.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] or a shape error from any layer.
    pub fn output_shape(&self, input: &Shape) -> Result<Shape> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let mut shape = input.clone();
        for layer in &self.layers {
            shape = layer.output_shape(&shape)?;
        }
        Ok(shape)
    }

    /// Reference forward pass in the given mode.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyNetwork`] or layer shape errors.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, mode)?;
        }
        Ok(x)
    }

    /// Fast inference (reference path, no caches).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn infer(&mut self, input: &Tensor) -> Result<Tensor> {
        self.forward(input, Mode::Infer)
    }

    /// Batched forward pass over an `[N, …]` tensor whose trailing axes
    /// are one sample.
    ///
    /// Row `s` of the output is bit-identical to `forward` on sample `s`
    /// alone: every layer's `forward_batch` preserves the per-sample
    /// reduction order. Dense layers run the whole batch through one GEMM;
    /// conv layers lower and multiply one sample at a time, so their
    /// scratch never outgrows one sample.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`], plus shape errors when the
    /// input is not rank ≥ 2.
    pub fn forward_batch(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let _span = scnn_obs::Span::enter("nn.forward_batch");
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward_batch(&x, mode)?;
        }
        Ok(x)
    }

    /// Batched inference (no caches). See [`Network::forward_batch`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward_batch`].
    pub fn infer_batch(&mut self, input: &Tensor) -> Result<Tensor> {
        self.forward_batch(input, Mode::Infer)
    }

    /// Predicted class index per batch row (first occurrence wins on
    /// ties, matching [`Tensor::argmax`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward_batch`].
    pub fn classify_batch(&mut self, input: &Tensor) -> Result<Vec<usize>> {
        let out = self.infer_batch(input)?;
        out.shape().expect_rank(2).map_err(NnError::from)?;
        let classes = out.dims()[1];
        Ok(out
            .as_slice()
            .chunks_exact(classes)
            .map(|row| {
                let mut best = row[0];
                let mut arg = 0;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > best {
                        best = v;
                        arg = i;
                    }
                }
                arg
            })
            .collect())
    }

    /// Predicted class index for an input.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn classify(&mut self, input: &Tensor) -> Result<usize> {
        let out = self.infer(input)?;
        out.argmax().ok_or(NnError::EmptyNetwork)
    }

    /// Instrumented inference: numerically identical to [`Network::infer`]
    /// while narrating every architectural event to `probe`. This is the
    /// execution the side-channel evaluator measures.
    ///
    /// The input image is first streamed into the synthetic input segment
    /// (the memcpy/decode a real pipeline performs).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn infer_traced(&self, input: &Tensor, probe: &mut dyn Probe) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        debug_assert!(
            self.finalized,
            "call finalize() before traced execution so weights have stable addresses"
        );
        let mut ctx = ExecContext::new(probe);

        // Stage the input image.
        let mut inputs = SegmentAllocator::inputs();
        let input_region = inputs.alloc(input.len());
        for i in 0..input.len() {
            ctx.store(Site::ACT, input_region, i);
        }
        ctx.counted_loop(Site::LOOP, input.len());

        let mut x = input.clone();
        let mut region = input_region;
        for (li, layer) in self.layers.iter().enumerate() {
            ctx.enter_layer(li + 1);
            let (nx, nregion) = layer.forward_traced(&x, region, &mut ctx)?;
            x = nx;
            region = nregion;
        }
        Ok(x)
    }

    /// Traced classification.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Network::forward`].
    pub fn classify_traced(&self, input: &Tensor, probe: &mut dyn Probe) -> Result<usize> {
        let out = self.infer_traced(input, probe)?;
        out.argmax().ok_or(NnError::EmptyNetwork)
    }

    /// Backward pass through every layer, from the loss gradient at the
    /// output. Must follow a `forward(…, Mode::Train)` call.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when driven out of order.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Batched backward pass from a `[N, …]` loss gradient. Must follow a
    /// `forward_batch(…, Mode::Train)` call. Parameter gradients accumulate
    /// exactly as if the `N` samples had been driven through
    /// `forward`/`backward` one at a time without zeroing in between.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when driven out of order.
    pub fn backward_batch(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let _span = scnn_obs::Span::enter("nn.backward_batch");
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward_batch(&g)?;
        }
        Ok(g)
    }

    /// Training backward: accumulates every parameter gradient exactly as
    /// [`Network::backward`] does, without computing input gradients that
    /// nothing consumes. Layers before the first layer with parameters
    /// are not run at all (they have no gradients to accumulate), and
    /// that layer runs [`Layer::backward_params`]. Must follow a
    /// `forward(…, Mode::Train)` call.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when driven out of order.
    pub fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward_params_with(
            grad_output,
            |l, g| l.backward(g),
            |l, g| l.backward_params(g),
        )
    }

    /// Batched [`Network::backward_params`]: the parameter gradients of
    /// [`Network::backward_batch`] without the unused input gradients.
    /// Must follow a `forward_batch(…, Mode::Train)` call.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when driven out of order.
    pub fn backward_batch_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let _span = scnn_obs::Span::enter("nn.backward_batch");
        self.backward_params_with(
            grad_output,
            |l, g| l.backward_batch(g),
            |l, g| l.backward_batch_params(g),
        )
    }

    fn backward_params_with(
        &mut self,
        grad_output: &Tensor,
        full: impl Fn(&mut dyn Layer, &Tensor) -> Result<Tensor>,
        params_only: impl Fn(&mut dyn Layer, &Tensor) -> Result<()>,
    ) -> Result<()> {
        if self.layers.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        let Some(first) = self.layers.iter().position(|l| l.param_count() > 0) else {
            return Ok(());
        };
        let mut g = grad_output.clone();
        for layer in self.layers[first + 1..].iter_mut().rev() {
            g = full(layer.as_mut(), &g)?;
        }
        params_only(self.layers[first].as_mut(), &g)
    }

    /// Drops every layer's training state (see [`Layer::end_training`]).
    pub fn end_training(&mut self) {
        for layer in &mut self.layers {
            layer.end_training();
        }
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                p.zero_grad();
            }
        }
    }

    /// Visits every parameter (used by optimizers).
    pub fn visit_params<F: FnMut(&mut crate::layer::Param)>(&mut self, mut f: F) {
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                f(p);
            }
        }
    }

    /// Snapshots every parameter gradient, in `visit_params` order.
    ///
    /// Together with [`Network::accumulate_grads`] this is the transport
    /// for parallel minibatch training: each worker computes gradients on
    /// its own clone, extracts them here, and the trainer sums the
    /// snapshots into the master network in sample order.
    pub fn grad_vector(&mut self) -> Vec<Tensor> {
        let mut grads = Vec::new();
        self.visit_params(|p| grads.push(p.grad.clone()));
        grads
    }

    /// Adds a gradient snapshot (from [`Network::grad_vector`]) into this
    /// network's parameter gradients, element-wise.
    ///
    /// # Panics
    ///
    /// Panics when `grads` does not match this network's parameter list
    /// (wrong length or shapes) — snapshots are only meaningful between
    /// clones of the same network.
    pub fn accumulate_grads(&mut self, grads: &[Tensor]) {
        let mut i = 0;
        self.visit_params(|p| {
            let g = grads
                .get(i)
                .expect("gradient snapshot shorter than parameter list");
            p.grad
                .axpy(1.0, g)
                .expect("gradient snapshot shape mismatch");
            i += 1;
        });
        assert_eq!(
            i,
            grads.len(),
            "gradient snapshot longer than parameter list"
        );
    }

    /// Multiplies every parameter gradient by `factor` (used to turn a
    /// minibatch gradient sum into a mean).
    pub fn scale_grads(&mut self, factor: f32) {
        self.visit_params(|p| p.grad.map_in_place(|g| g * factor));
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layer stack (used by the countermeasure pass
    /// that rewrites kernel styles).
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Flips every layer between its leaky and constant-footprint kernel
    /// (see [`Layer::set_constant_time`]) — the countermeasure evaluated
    /// by the ablation experiments.
    pub fn set_constant_time(&mut self, enabled: bool) {
        for layer in &mut self.layers {
            layer.set_constant_time(enabled);
        }
    }

    /// Arms (with `Some(seed)`) or disarms (with `None`) memory-access
    /// shuffling in every layer's traced kernel (see
    /// [`Layer::set_shuffle`]). Predictions are unaffected — only the
    /// event stream a probe observes is permuted. The shuffle
    /// countermeasure re-seeds this before every inference so no two
    /// traces share a permutation.
    pub fn set_shuffle(&mut self, seed: Option<u64>) {
        for layer in &mut self.layers {
            layer.set_shuffle(seed);
        }
    }

    /// True when every parameter is finite.
    pub fn all_finite(&mut self) -> bool {
        let mut ok = true;
        self.visit_params(|p| ok &= p.value.all_finite());
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Relu, ReluStyle};
    use crate::conv::{Conv2d, ConvStyle};
    use crate::dense::{Dense, DenseStyle};
    use crate::pool::MaxPool2d;
    use crate::softmax::Flatten;
    use scnn_uarch::CountingProbe;

    fn tiny_net() -> Network {
        let mut net = Network::new();
        net.push(Conv2d::new(1, 2, 3, ConvStyle::ZeroSkip, 3));
        net.push(Relu::new(ReluStyle::Branchy));
        net.push(MaxPool2d::new(2));
        net.push(Flatten::new());
        net.push(Dense::new(2 * 3 * 3, 4, DenseStyle::ZeroSkip, 4));
        net.finalize();
        net
    }

    fn image(seed: u32) -> Tensor {
        Tensor::from_vec(
            (0..64)
                .map(|i| {
                    let v = (i * 2654435761u64 as usize + seed as usize * 97) % 11;
                    if v < 5 {
                        0.0
                    } else {
                        v as f32 / 10.0
                    }
                })
                .collect(),
            [1, 8, 8],
        )
        .unwrap()
    }

    #[test]
    fn shapes_flow() {
        let net = tiny_net();
        assert_eq!(
            net.output_shape(&Shape::from([1, 8, 8])).unwrap(),
            Shape::from([4])
        );
        assert_eq!(net.len(), 5);
        assert!(net.param_count() > 0);
    }

    #[test]
    fn empty_network_errors() {
        let mut net = Network::new();
        assert!(matches!(
            net.infer(&Tensor::zeros([1, 4, 4])),
            Err(NnError::EmptyNetwork)
        ));
        assert!(net.output_shape(&Shape::from([1])).is_err());
    }

    #[test]
    fn traced_equals_reference_end_to_end() {
        let mut net = tiny_net();
        for seed in 0..5 {
            let x = image(seed);
            let want = net.infer(&x).unwrap();
            let mut probe = CountingProbe::new();
            let got = net.infer_traced(&x, &mut probe).unwrap();
            assert_eq!(got, want, "seed {seed}");
            assert!(probe.instructions() > 0);
        }
    }

    #[test]
    fn traced_footprint_differs_across_inputs() {
        let net = tiny_net();
        let count = |x: &Tensor| {
            let mut probe = CountingProbe::new();
            net.infer_traced(x, &mut probe).unwrap();
            probe.loads
        };
        assert_ne!(count(&image(0)), count(&Tensor::zeros([1, 8, 8])));
    }

    #[test]
    fn classify_returns_argmax() {
        let mut net = tiny_net();
        let x = image(1);
        let logits = net.infer(&x).unwrap();
        let class = net.classify(&x).unwrap();
        assert_eq!(Some(class), logits.argmax());
        let mut probe = CountingProbe::new();
        assert_eq!(net.classify_traced(&x, &mut probe).unwrap(), class);
    }

    #[test]
    fn train_step_reduces_loss_on_single_example() {
        // One SGD step on a fixed example must reduce a simple quadratic
        // loss (L = Σ(y - t)²) for a small enough step.
        let mut net = tiny_net();
        let x = image(2);
        let target = Tensor::from_slice(&[1.0, 0.0, 0.0, 0.0]);

        let loss = |y: &Tensor| -> f32 {
            y.as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(a, b)| (a - b) * (a - b))
                .sum()
        };

        let y0 = net.forward(&x, Mode::Train).unwrap();
        let l0 = loss(&y0);
        let grad = y0.zip_with(&target, |a, b| 2.0 * (a - b)).unwrap();
        net.zero_grads();
        net.backward(&grad).unwrap();
        net.visit_params(|p| {
            let g = p.grad.clone();
            p.value.axpy(-0.01, &g).unwrap();
        });
        let y1 = net.infer(&x).unwrap();
        assert!(loss(&y1) < l0, "{} -> {}", l0, loss(&y1));
    }

    #[test]
    fn zero_grads_clears() {
        let mut net = tiny_net();
        let x = image(3);
        let y = net.forward(&x, Mode::Train).unwrap();
        net.backward(&Tensor::full(y.shape().clone(), 1.0)).unwrap();
        let mut total = 0.0f32;
        net.visit_params(|p| total += p.grad.norm_sq());
        assert!(total > 0.0);
        net.zero_grads();
        let mut total2 = 0.0f32;
        net.visit_params(|p| total2 += p.grad.norm_sq());
        assert_eq!(total2, 0.0);
    }

    #[test]
    fn clone_is_independent_and_identical() {
        let mut net = tiny_net();
        let mut copy = net.clone();
        let x = image(4);
        // Same numbers on both execution paths.
        assert_eq!(net.infer(&x).unwrap(), copy.infer(&x).unwrap());
        let mut probe = CountingProbe::new();
        let traced = net.infer_traced(&x, &mut probe).unwrap();
        let mut probe2 = CountingProbe::new();
        assert_eq!(copy.infer_traced(&x, &mut probe2).unwrap(), traced);
        assert_eq!(probe.loads, probe2.loads, "cloned addresses must match");
        // Training the clone leaves the original untouched.
        let before = net.infer(&x).unwrap();
        let y = copy.forward(&x, Mode::Train).unwrap();
        copy.zero_grads();
        copy.backward(&Tensor::full(y.shape().clone(), 1.0))
            .unwrap();
        copy.visit_params(|p| {
            let g = p.grad.clone();
            p.value.axpy(-0.1, &g).unwrap();
        });
        assert_eq!(net.infer(&x).unwrap(), before);
        assert_ne!(copy.infer(&x).unwrap(), before);
    }

    #[test]
    fn parameter_only_backward_accumulates_the_same_gradients() {
        let grad_bits = |net: &mut Network| -> Vec<u32> {
            net.grad_vector()
                .iter()
                .flat_map(|g| g.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        // Conv first (its dX is skipped) and flatten first (layers before
        // the first dense are skipped outright).
        let mlp = || {
            let mut net = Network::new();
            net.push(Flatten::new());
            net.push(Dense::new(64, 5, DenseStyle::ZeroSkip, 6));
            net.push(Relu::new(ReluStyle::Branchy));
            net.push(Dense::new(5, 4, DenseStyle::ZeroSkip, 7));
            net.finalize();
            net
        };
        for make in [tiny_net as fn() -> Network, mlp] {
            let (mut full, mut params) = (make(), make());
            for seed in 0..3 {
                let x = image(seed);
                let y = full.forward(&x, Mode::Train).unwrap();
                let g = y.map(|v| v - 0.25);
                full.backward(&g).unwrap();
                params.forward(&x, Mode::Train).unwrap();
                params.backward_params(&g).unwrap();
            }
            assert_eq!(grad_bits(&mut params), grad_bits(&mut full));

            let (mut full, mut params) = (make(), make());
            let xb = crate::batch::stack(&[&image(0), &image(1), &image(2)]).unwrap();
            let y = full.forward_batch(&xb, Mode::Train).unwrap();
            let g = y.map(|v| v - 0.25);
            full.backward_batch(&g).unwrap();
            params.forward_batch(&xb, Mode::Train).unwrap();
            params.backward_batch_params(&g).unwrap();
            assert_eq!(grad_bits(&mut params), grad_bits(&mut full));
        }
        assert!(matches!(
            Network::new().backward_params(&Tensor::zeros([1])),
            Err(NnError::EmptyNetwork)
        ));
    }

    #[test]
    fn grad_snapshot_roundtrip() {
        let mut net = tiny_net();
        let x = image(5);
        let y = net.forward(&x, Mode::Train).unwrap();
        net.zero_grads();
        net.backward(&Tensor::full(y.shape().clone(), 1.0)).unwrap();
        let grads = net.grad_vector();
        assert!(!grads.is_empty());

        // Accumulating the snapshot doubles each gradient; scaling by 0.5
        // restores the original.
        let mut expect = grads.clone();
        for g in &mut expect {
            g.map_in_place(|v| v * 2.0);
        }
        net.accumulate_grads(&grads);
        assert_eq!(net.grad_vector(), expect);
        net.scale_grads(0.5);
        assert_eq!(net.grad_vector(), grads);
    }

    #[test]
    fn debug_lists_layers() {
        let net = tiny_net();
        let dbg = format!("{net:?}");
        assert!(dbg.contains("conv2d"));
        assert!(dbg.contains("dense"));
    }
}
