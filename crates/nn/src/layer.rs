//! The [`Layer`] trait: forward (reference and traced), backward, and
//! parameter access.

use crate::addr::SegmentAllocator;
use crate::exec::ExecContext;
use scnn_tensor::{Shape, ShapeError, Tensor};
use std::error::Error;
use std::fmt;

/// Error from network construction, execution or training.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// A tensor-shape inconsistency.
    Shape(ShapeError),
    /// The layer was asked to backward() before any forward(Train) pass.
    NoForwardCache {
        /// Layer that was driven out of order.
        layer: &'static str,
    },
    /// The network is empty.
    EmptyNetwork,
    /// Training diverged (non-finite loss or weights).
    Diverged {
        /// Epoch at which divergence was detected.
        epoch: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Shape(e) => write!(f, "shape error: {e}"),
            NnError::NoForwardCache { layer } => {
                write!(f, "backward called on {layer} before forward(Train)")
            }
            NnError::EmptyNetwork => write!(f, "network has no layers"),
            NnError::Diverged { epoch } => write!(f, "training diverged at epoch {epoch}"),
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ShapeError> for NnError {
    fn from(e: ShapeError) -> Self {
        NnError::Shape(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, NnError>;

/// A trainable parameter: its value and the gradient of the most recent
/// backward pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().clone());
        Param { value, grad }
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.map_in_place(|_| 0.0);
    }
}

/// Whether a forward pass should cache intermediates for backward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Inference only; no caches are kept.
    Infer,
    /// Training; the layer caches what backward needs.
    Train,
}

/// One network layer.
///
/// Layers provide three execution paths:
///
/// - [`Layer::forward`] — the fast reference path, used for training and
///   accuracy evaluation;
/// - [`Layer::forward_traced`] — numerically identical, but narrating
///   every weight/activation access and data-dependent branch to an
///   [`ExecContext`]. This is the path the side-channel evaluator
///   measures;
/// - [`Layer::backward`] — gradients for training (and
///   [`Layer::backward_params`] when the input gradient is not needed).
pub trait Layer: Send + Sync {
    /// Short human-readable layer name (`"conv2d"`, `"relu"`, …).
    fn name(&self) -> &'static str;

    /// Clones this layer behind a fresh box, so a whole
    /// [`Network`](crate::Network) can be duplicated for parallel
    /// per-sample gradient evaluation.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the input is incompatible.
    fn output_shape(&self, input: &Shape) -> Result<Shape>;

    /// Reference forward pass. With [`Mode::Train`] the layer caches
    /// whatever its backward pass needs.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the input is incompatible.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Instrumented forward pass; must produce the same numbers as
    /// [`Layer::forward`] while emitting its event stream into `ctx`.
    ///
    /// `input_region` is where the caller's activation buffer lives in the
    /// synthetic address space; the returned region is where this layer
    /// wrote its output.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the input is incompatible.
    fn forward_traced(
        &self,
        input: &Tensor,
        input_region: crate::addr::Region,
        ctx: &mut ExecContext<'_>,
    ) -> Result<(Tensor, crate::addr::Region)>;

    /// Backward pass: consumes the gradient w.r.t. this layer's output and
    /// returns the gradient w.r.t. its input, accumulating parameter
    /// gradients internally.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when no `forward(Train)` pass
    /// preceded this call.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Batched reference forward pass over a `[N, …]` input whose trailing
    /// dimensions are one sample's shape. **Contract:** row `s` of the
    /// output must be bit-identical to `forward` on sample `s` alone —
    /// batching is an execution-schedule change, never a numeric one
    /// (dense layers run one GEMM over the whole batch, conv layers one
    /// GEMM per sample, each with the same per-output reduction order;
    /// see DESIGN.md §12). With
    /// [`Mode::Train`] the layer caches the batch for
    /// [`Layer::backward_batch`].
    ///
    /// # Errors
    ///
    /// Returns a shape error when the per-sample shape is incompatible.
    fn forward_batch(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor>;

    /// Batched backward pass: `grad_output` is `[N, …]` aligned with the
    /// most recent [`Layer::forward_batch`] in [`Mode::Train`].
    /// **Contract:** parameter-gradient accumulation and the returned
    /// `[N, …]` input gradient are bit-identical to running
    /// `forward(s); backward(s)` for each sample `s` in batch order
    /// (without zeroing gradients in between).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::NoForwardCache`] when no `forward_batch(Train)`
    /// preceded this call, and shape errors on misaligned gradients.
    fn backward_batch(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Parameter-only backward: accumulates exactly the parameter
    /// gradients of [`Layer::backward`] but need not compute the input
    /// gradient. Training calls it on the first layer with parameters,
    /// whose input gradient nothing consumes. The provided version runs
    /// `backward` and drops the result; conv and dense skip their `dX`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// Batched [`Layer::backward_params`]: the parameter gradients of
    /// [`Layer::backward_batch`], no input gradient required.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward_batch`].
    fn backward_batch_params(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward_batch(grad_output).map(drop)
    }

    /// Drops what [`Mode::Train`] forwards keep for backward (inputs,
    /// lowerings, argmax indices), so a trained layer carries, and its
    /// clones copy, no training state. [`train`](crate::train::train)
    /// calls it on every layer before it returns; a backward after it
    /// needs a new Train forward. Layers that keep nothing ignore it.
    fn end_training(&mut self) {}

    /// Mutable access to the layer's parameters (empty for stateless
    /// layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Assigns static (weight) addresses from the network's allocator.
    /// Stateless layers ignore this.
    fn assign_addresses(&mut self, alloc: &mut SegmentAllocator) {
        let _ = alloc;
    }

    /// Number of scalar parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Switches the layer between its leaky (data-dependent) and
    /// constant-footprint kernels. The countermeasure pass of `scnn-core`
    /// flips every layer to constant time and re-runs the evaluation.
    /// Layers without a data-dependent kernel ignore this.
    fn set_constant_time(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Arms (or disarms, with `None`) memory-access shuffling in the
    /// *traced* kernel: the seed drives a per-layer permutation of the
    /// activation visit order (dense) or reported activation addresses
    /// (conv), so a probe sees a shuffled access stream while the numeric
    /// output — computed by the branch-free reference fold — stays
    /// bit-identical. The shuffle countermeasure of `scnn-core` re-seeds
    /// this before every inference. Layers without data-dependent memory
    /// traffic ignore it.
    fn set_shuffle(&mut self, seed: Option<u64>) {
        let _ = seed;
    }

    /// A serializable description of this layer (architecture +
    /// parameters) for [`Network::to_bytes`](crate::Network::to_bytes).
    fn spec(&self) -> crate::spec::LayerSpec;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::from_slice(&[1.0, 2.0]));
        p.grad = Tensor::from_slice(&[3.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
        assert_eq!(p.value.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn error_conversion_and_display() {
        let e: NnError = ShapeError::ZeroDim.into();
        assert!(e.to_string().contains("shape"));
        assert!(e.source().is_some());
        assert!(NnError::EmptyNetwork.source().is_none());
        assert!(NnError::Diverged { epoch: 3 }.to_string().contains('3'));
    }
}
