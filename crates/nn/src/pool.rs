//! Max pooling with data-dependent comparison branches.

use crate::addr::{Region, SegmentAllocator};
use crate::exec::{ExecContext, Site};
use crate::layer::{Layer, Mode, NnError, Result};
use scnn_tensor::ops::Window2d;
use scnn_tensor::{Shape, Tensor};

/// 2-D max pooling over `[C, H, W]` feature maps.
///
/// Each window element after the first is compared against the running
/// maximum with a conditional branch; *which* comparisons succeed depends
/// on the feature values, so the branch-outcome stream (and `branch-misses`)
/// is input-dependent even though the retired branch count is constant.
/// Under [`Layer::set_constant_time`] the comparison becomes a
/// compare-and-blend max (ALU only, like the branchless ReLU), removing
/// the last data-dependent branch outcomes from a protected inference.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    win: Window2d,
    constant_time: bool,
    cached: Option<PoolCache>,
}

#[derive(Debug, Clone)]
struct PoolCache {
    input_shape: Shape,
    /// Flat input index of the winning element per output element.
    argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Square pooling window of size `k` with stride `k` (the usual
    /// non-overlapping pooling).
    pub fn new(k: usize) -> Self {
        MaxPool2d {
            win: Window2d::strided(k, k),
            constant_time: false,
            cached: None,
        }
    }

    /// Pooling with an explicit window.
    pub fn with_window(win: Window2d) -> Self {
        MaxPool2d {
            win,
            constant_time: false,
            cached: None,
        }
    }

    fn geometry(&self, input: &Shape) -> Result<(usize, usize, usize, usize, usize)> {
        input.expect_rank(3)?;
        let (c, h, w) = (input.dim(0), input.dim(1), input.dim(2));
        let (oh, ow) = self.win.output_size(h, w)?;
        Ok((c, h, w, oh, ow))
    }

    /// Pools one `[C, H, W]` sample given as a raw slice — the loop shared
    /// by the numeric path (once per batch row) and the traced path.
    /// `dims` is `(c, h, w, oh, ow)`; `argmax` receives *sample-local*
    /// input indices. The `emit` callback sees `(window_position,
    /// input_index, is_new_max)` for every window element.
    fn pool_sample<F: FnMut(usize, usize, bool)>(
        &self,
        src: &[f32],
        dims: (usize, usize, usize, usize, usize),
        out: &mut [f32],
        argmax: &mut [usize],
        mut emit: F,
    ) {
        let (c, h, w, oh, ow) = dims;
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let oi = (ch * oh + oy) * ow + ox;
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    let mut wpos = 0usize;
                    for ky in 0..self.win.kh {
                        for kx in 0..self.win.kw {
                            let iy = oy * self.win.sh + ky;
                            let ix = ox * self.win.sw + kx;
                            if iy >= h || ix >= w {
                                continue;
                            }
                            let ii = (ch * h + iy) * w + ix;
                            let v = src[ii];
                            let new_max = v > best;
                            emit(wpos, ii, new_max);
                            if new_max {
                                best = v;
                                best_idx = ii;
                            }
                            wpos += 1;
                        }
                    }
                    out[oi] = best;
                    argmax[oi] = best_idx;
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape> {
        let (c, _, _, oh, ow) = self.geometry(input)?;
        Ok(Shape::from(vec![c, oh, ow]))
    }

    fn set_constant_time(&mut self, enabled: bool) {
        self.constant_time = enabled;
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        let (n, sample) = crate::batch::split_batch(input.shape())?;
        let (c, h, w, oh, ow) = self.geometry(&sample)?;
        let in_len = c * h * w;
        let out_len = c * oh * ow;
        let src = input.as_slice();
        let mut out = vec![0.0f32; n * out_len];
        let mut argmax = vec![0usize; n * out_len];
        for s in 0..n {
            let arg_s = &mut argmax[s * out_len..(s + 1) * out_len];
            self.pool_sample(
                &src[s * in_len..(s + 1) * in_len],
                (c, h, w, oh, ow),
                &mut out[s * out_len..(s + 1) * out_len],
                arg_s,
                |_, _, _| {},
            );
            // Rebase to batch-flat input indices for the argmax scatter in
            // `backward`.
            for a in arg_s.iter_mut() {
                *a += s * in_len;
            }
        }
        if mode == Mode::Train {
            self.cached = Some(PoolCache {
                input_shape: input.shape().clone(),
                argmax,
            });
        }
        Ok(Tensor::from_vec(out, [n, c, oh, ow])?)
    }

    fn forward_traced(
        &self,
        input: &Tensor,
        input_region: Region,
        ctx: &mut ExecContext<'_>,
    ) -> Result<(Tensor, Region)> {
        let (c, h, w, oh, ow) = self.geometry(input.shape())?;
        let out_region = ctx.alloc_activation(c * oh * ow);
        let mut writes = 0usize;
        let ct = self.constant_time;
        let mut out = vec![0.0f32; c * oh * ow];
        let mut argmax = vec![0usize; c * oh * ow];
        self.pool_sample(
            input.as_slice(),
            (c, h, w, oh, ow),
            &mut out,
            &mut argmax,
            |wpos, ii, new_max| {
                ctx.load(Site::ACT, input_region, ii);
                if wpos > 0 {
                    if ct {
                        // Compare + blend: ALU only, no branch to mispredict.
                        ctx.alu(1);
                    } else {
                        // The running-max comparison: data-dependent outcome.
                        ctx.branch(Site::POOL, new_max);
                    }
                }
            },
        );
        let out = Tensor::from_vec(out, [c, oh, ow])?;
        for i in 0..out.len() {
            ctx.store(Site::ACC, out_region, i);
            writes += 1;
        }
        ctx.counted_loop(Site::LOOP, writes);
        Ok((out, out_region))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .cached
            .as_ref()
            .ok_or(NnError::NoForwardCache { layer: "maxpool2d" })?;
        let mut grad_in = Tensor::zeros(cache.input_shape.clone());
        let gi = grad_in.as_mut_slice();
        for (oi, &ii) in cache.argmax.iter().enumerate() {
            gi[ii] += grad_output.as_slice()[oi];
        }
        Ok(grad_in)
    }

    fn assign_addresses(&mut self, _alloc: &mut SegmentAllocator) {}

    fn end_training(&mut self) {
        self.cached = None;
    }

    fn spec(&self) -> crate::spec::LayerSpec {
        crate::spec::LayerSpec::MaxPool2d { k: self.win.kh }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::stack;
    use crate::exec::ExecContext;
    use scnn_uarch::CountingProbe;

    fn input_2x4x4() -> Tensor {
        let data: Vec<f32> = (0..32).map(|i| ((i * 7) % 13) as f32).collect();
        Tensor::from_vec(data, [2, 4, 4]).unwrap()
    }

    #[test]
    fn known_pooling() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            [1, 1, 4, 4],
        )
        .unwrap();
        let y = pool.forward(&x, Mode::Infer).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn traced_matches_reference() {
        let x = input_2x4x4();
        let mut pool = MaxPool2d::new(2);
        let want = pool.forward(&stack(&[&x]).unwrap(), Mode::Infer).unwrap();
        let mut probe = CountingProbe::new();
        let mut ctx = ExecContext::new(&mut probe);
        let region = ctx.alloc_activation(x.len());
        let (got, _) = pool.forward_traced(&x, region, &mut ctx).unwrap();
        assert_eq!(got.dims(), &want.dims()[1..]);
        assert_eq!(got.as_slice(), want.as_slice());
    }

    #[test]
    fn traced_branch_count_is_shape_static() {
        // Retired branches depend only on the geometry, not the values.
        let count = |x: &Tensor| {
            let pool = MaxPool2d::new(2);
            let mut probe = CountingProbe::new();
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(x.len());
                pool.forward_traced(x, region, &mut ctx).unwrap();
            }
            probe.branches
        };
        let a = input_2x4x4();
        let b = a.map(|v| -v);
        assert_eq!(count(&a), count(&b));
    }

    #[test]
    fn traced_taken_pattern_is_data_dependent() {
        let taken = |x: &Tensor| {
            let pool = MaxPool2d::new(2);
            let mut probe = CountingProbe::new();
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(x.len());
                pool.forward_traced(x, region, &mut ctx).unwrap();
            }
            probe.taken_branches
        };
        let ascending = Tensor::from_vec((0..16).map(|i| i as f32).collect(), [1, 4, 4]).unwrap();
        let descending =
            Tensor::from_vec((0..16).rev().map(|i| i as f32).collect(), [1, 4, 4]).unwrap();
        assert_ne!(taken(&ascending), taken(&descending));
    }

    #[test]
    fn constant_time_pooling_emits_no_pool_branches() {
        // Compare-and-blend max: same numbers, no data-dependent
        // branch outcomes left for the predictor to leak.
        let trace = |x: &Tensor| {
            let mut pool = MaxPool2d::new(2);
            pool.set_constant_time(true);
            let want = pool.forward(&stack(&[x]).unwrap(), Mode::Infer).unwrap();
            let mut probe = CountingProbe::new();
            let branches;
            let taken;
            let got;
            {
                let mut ctx = ExecContext::new(&mut probe);
                let region = ctx.alloc_activation(x.len());
                got = pool.forward_traced(x, region, &mut ctx).unwrap().0;
                branches = probe.branches;
                taken = probe.taken_branches;
            }
            assert_eq!(got.as_slice(), want.as_slice());
            (branches, taken)
        };
        let ascending = Tensor::from_vec((0..16).map(|i| i as f32).collect(), [1, 4, 4]).unwrap();
        let descending =
            Tensor::from_vec((0..16).rev().map(|i| i as f32).collect(), [1, 4, 4]).unwrap();
        // Only the (value-independent) loop branches remain: identical
        // counts and identical outcome streams across inputs.
        assert_eq!(trace(&ascending), trace(&descending));
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                0.0, 9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0,
            ],
            [1, 1, 4, 4],
        )
        .unwrap();
        pool.forward(&x, Mode::Train).unwrap();
        let g = pool
            .backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]).unwrap())
            .unwrap();
        assert_eq!(
            g.get(&[0, 0, 0, 1]).unwrap(),
            1.0,
            "9.0 won the first window"
        );
        assert_eq!(g.get(&[0, 0, 1, 3]).unwrap(), 2.0, "7.0 won the second");
        assert_eq!(g.get(&[0, 0, 2, 0]).unwrap(), 3.0);
        assert_eq!(g.get(&[0, 0, 3, 3]).unwrap(), 4.0);
        assert_eq!(g.sum(), 10.0, "all gradient mass routed");
    }

    #[test]
    fn output_shape_checks_rank() {
        let pool = MaxPool2d::new(2);
        assert!(pool.output_shape(&Shape::from([4, 4])).is_err());
        assert_eq!(
            pool.output_shape(&Shape::from([3, 8, 8])).unwrap(),
            Shape::from([3, 4, 4])
        );
    }

    #[test]
    fn backward_requires_forward() {
        let mut pool = MaxPool2d::new(2);
        assert!(pool.backward(&Tensor::zeros([1, 1, 1])).is_err());
    }
}
