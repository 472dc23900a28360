//! Flatten and softmax layers.

use crate::addr::{Region, SegmentAllocator};
use crate::exec::{ExecContext, Site};
use crate::layer::{Layer, Mode, NnError, Result};
use scnn_tensor::{ops, Shape, Tensor};

/// Reshapes each sample to a rank-1 vector. Free at runtime — tensors
/// are row-major, so no data moves and the traced path emits no events.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_shape: Option<Shape>,
}

impl Flatten {
    /// Creates the layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape> {
        Ok(Shape::from(vec![input.len()]))
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (n, sample) = crate::batch::split_batch(input.shape())?;
        if mode == Mode::Train {
            self.cached_shape = Some(input.shape().clone());
        }
        Ok(input.reshape([n, sample.len()])?)
    }

    fn forward_traced(
        &self,
        input: &Tensor,
        input_region: Region,
        _ctx: &mut ExecContext<'_>,
    ) -> Result<(Tensor, Region)> {
        Ok((input.reshape([input.len()])?, input_region))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self
            .cached_shape
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "flatten" })?;
        Ok(grad_output.reshape(shape.clone())?)
    }

    fn assign_addresses(&mut self, _alloc: &mut SegmentAllocator) {}

    fn end_training(&mut self) {
        self.cached_shape = None;
    }

    fn spec(&self) -> crate::spec::LayerSpec {
        crate::spec::LayerSpec::Flatten
    }
}

/// Numerically stable softmax over each sample's vector of logits.
#[derive(Debug, Clone, Default)]
pub struct Softmax {
    cached_output: Option<Tensor>,
}

impl Softmax {
    /// Creates the layer.
    pub fn new() -> Self {
        Softmax::default()
    }
}

impl Layer for Softmax {
    fn name(&self) -> &'static str {
        "softmax"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape> {
        input.expect_rank(1)?;
        Ok(input.clone())
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        input.shape().expect_rank(2)?;
        let (n, classes) = (input.dims()[0], input.dims()[1]);
        let mut data = Vec::with_capacity(n * classes);
        // Row at a time: softmax has no cross-sample coupling.
        for row in input.as_slice().chunks_exact(classes) {
            let s = ops::softmax(&Tensor::from_vec(row.to_vec(), [classes])?)?;
            data.extend_from_slice(s.as_slice());
        }
        let out = Tensor::from_vec(data, [n, classes])?;
        if mode == Mode::Train {
            self.cached_output = Some(out.clone());
        }
        Ok(out)
    }

    fn forward_traced(
        &self,
        input: &Tensor,
        input_region: Region,
        ctx: &mut ExecContext<'_>,
    ) -> Result<(Tensor, Region)> {
        let out_region = ctx.alloc_activation(input.len());
        // Three passes: max, exp+sum, normalise — each touches every
        // element, all shape-static.
        for i in 0..input.len() {
            ctx.load(Site::ACT, input_region, i);
        }
        ctx.counted_loop(Site::LOOP, input.len());
        for i in 0..input.len() {
            ctx.load(Site::ACT, input_region, i);
            ctx.alu(3); // sub, exp approx, add
            ctx.store(Site::ACC, out_region, i);
        }
        ctx.counted_loop(Site::LOOP, input.len());
        for i in 0..input.len() {
            ctx.load(Site::ACC, out_region, i);
            ctx.alu(1); // divide
            ctx.store(Site::ACC, out_region, i);
        }
        ctx.counted_loop(Site::LOOP, input.len());
        Ok((ops::softmax(input)?, out_region))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let s = self
            .cached_output
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "softmax" })?;
        s.shape().expect_same(grad_output.shape())?;
        s.shape().expect_rank(2)?;
        let classes = s.dims()[1];
        let mut dx = Vec::with_capacity(s.len());
        for (srow, grow) in s
            .as_slice()
            .chunks_exact(classes)
            .zip(grad_output.as_slice().chunks_exact(classes))
        {
            // dx = s ⊙ (g − ⟨g, s⟩), one row at a time.
            let dot: f32 = grow.iter().zip(srow).map(|(&g, &p)| g * p).sum();
            dx.extend(srow.iter().zip(grow).map(|(&p, &g)| p * (g - dot)));
        }
        Ok(Tensor::from_vec(dx, s.dims().to_vec())?)
    }

    fn assign_addresses(&mut self, _alloc: &mut SegmentAllocator) {}

    fn end_training(&mut self) {
        self.cached_output = None;
    }

    fn spec(&self) -> crate::spec::LayerSpec {
        crate::spec::LayerSpec::Softmax
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_uarch::CountingProbe;

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros([2, 3, 4]);
        let y = f.forward(&x, Mode::Train).unwrap();
        assert_eq!(y.dims(), &[2, 12], "one row per sample");
        let g = f.backward(&Tensor::zeros([2, 12])).unwrap();
        assert_eq!(g.dims(), &[2, 3, 4]);
        assert!(f.forward(&Tensor::zeros([4]), Mode::Infer).is_err());
    }

    #[test]
    fn flatten_traced_is_free() {
        let f = Flatten::new();
        let x = Tensor::zeros([2, 2, 2]);
        let mut probe = CountingProbe::new();
        let mut ctx = ExecContext::new(&mut probe);
        let region = ctx.alloc_activation(8);
        let (y, out_region) = f.forward_traced(&x, region, &mut ctx).unwrap();
        assert_eq!(y.dims(), &[8]);
        assert_eq!(out_region, region, "flatten reuses the input buffer");
        assert_eq!(probe.instructions(), 0);
    }

    #[test]
    fn softmax_forward_normalises() {
        let mut s = Softmax::new();
        let y = s
            .forward(
                &Tensor::from_vec(vec![1.0, 2.0, 3.0, 0.0, 0.0, -9.0], [2, 3]).unwrap(),
                Mode::Infer,
            )
            .unwrap();
        for row in y.as_slice().chunks_exact(3) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_traced_matches() {
        let s = Softmax::new();
        let x = Tensor::from_slice(&[0.1, -2.0, 5.0, 0.0]);
        let want = ops::softmax(&x).unwrap();
        let mut probe = CountingProbe::new();
        let mut ctx = ExecContext::new(&mut probe);
        let region = ctx.alloc_activation(4);
        let (got, _) = s.forward_traced(&x, region, &mut ctx).unwrap();
        assert_eq!(got, want);
        assert!(probe.loads > 0);
    }

    #[test]
    fn softmax_backward_jacobian() {
        // Check against the analytic Jacobian: J[i][j] = s_i(δ_ij − s_j).
        let mut s = Softmax::new();
        let x = Tensor::from_vec(vec![0.3, -0.5, 0.9], [1, 3]).unwrap();
        let p = s.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(vec![1.0, 0.0, 0.0], [1, 3]).unwrap();
        let dx = s.backward(&g).unwrap();
        for i in 0..3 {
            let pi = p.as_slice()[i];
            let expect = pi * ((i == 0) as i32 as f32 - p.as_slice()[0]);
            assert!(
                (dx.as_slice()[i] - expect).abs() < 1e-6,
                "dx[{i}] {} vs {expect}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn softmax_gradient_sums_to_zero() {
        // Softmax outputs sum to 1 ⇒ gradient w.r.t. inputs sums to 0.
        let mut s = Softmax::new();
        let x = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5], [1, 4]).unwrap();
        s.forward(&x, Mode::Train).unwrap();
        let g = Tensor::from_vec(vec![0.3, -0.2, 0.9, 0.0], [1, 4]).unwrap();
        let dx = s.backward(&g).unwrap();
        assert!(dx.sum().abs() < 1e-6);
    }

    #[test]
    fn backward_requires_forward() {
        let mut s = Softmax::new();
        assert!(s.backward(&Tensor::from_slice(&[1.0])).is_err());
        let mut f = Flatten::new();
        assert!(f.backward(&Tensor::from_slice(&[1.0])).is_err());
    }
}
