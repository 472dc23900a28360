//! Optimizers: SGD with momentum and a step learning-rate schedule.

use crate::layer::Param;
use crate::network::Network;
use scnn_tensor::Tensor;

/// Stochastic gradient descent with classical momentum and optional L2
/// weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    weight_decay: f64,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Creates the optimizer.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive learning rate or momentum outside `[0, 1)`.
    pub fn new(lr: f64, momentum: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
            velocities: Vec::new(),
        }
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f64) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.lr
    }

    /// Overrides the learning rate (used by schedules).
    pub fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    /// Applies one update step using the gradients currently stored in the
    /// network's parameters.
    pub fn step(&mut self, net: &mut Network) {
        let lr = self.lr as f32;
        let momentum = self.momentum as f32;
        let wd = self.weight_decay as f32;
        let velocities = &mut self.velocities;
        let mut idx = 0usize;
        net.visit_params(|p: &mut Param| {
            if velocities.len() <= idx {
                velocities.push(Tensor::zeros(p.value.shape().clone()));
            }
            let v = &mut velocities[idx];
            // v ← µ·v − lr·(g + wd·w);  w ← w + v
            let vs = v.as_mut_slice();
            let gs = p.grad.as_slice();
            let ws = p.value.as_mut_slice();
            for ((v_i, &g_i), w_i) in vs.iter_mut().zip(gs).zip(ws.iter_mut()) {
                *v_i = momentum * *v_i - lr * (g_i + wd * *w_i);
                *w_i += *v_i;
            }
            idx += 1;
        });
    }
}

/// Multiplies the learning rate by `gamma` every `every` epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepSchedule {
    /// Initial learning rate.
    pub base_lr: f64,
    /// Decay factor per step.
    pub gamma: f64,
    /// Epochs between decays.
    pub every: usize,
}

impl StepSchedule {
    /// Learning rate for a (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f64 {
        let steps = epoch.checked_div(self.every).unwrap_or(0);
        self.base_lr * self.gamma.powi(steps as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{Dense, DenseStyle};
    use crate::layer::Mode;
    use scnn_tensor::Tensor;

    fn one_layer_net() -> Network {
        let mut net = Network::new();
        net.push(Dense::new(2, 1, DenseStyle::Dense, 5));
        net.finalize();
        net
    }

    #[test]
    fn sgd_descends_quadratic() {
        // Fit y = w·x to a single target with MSE; loss must decrease
        // monotonically for a small lr.
        let mut net = one_layer_net();
        let mut opt = Sgd::new(0.05, 0.0);
        let x = Tensor::from_vec(vec![1.0, -2.0], [1, 2]).unwrap();
        let mut losses = Vec::new();
        for _ in 0..20 {
            let y = net.forward(&x, Mode::Train).unwrap();
            let (loss, grad) = crate::loss::mse(&y, &Tensor::full([1, 1], 3.0)).unwrap();
            losses.push(loss);
            net.zero_grads();
            net.backward(&grad).unwrap();
            opt.step(&mut net);
        }
        assert!(losses.windows(2).all(|w| w[1] <= w[0] + 1e-6), "{losses:?}");
        assert!(losses.last().unwrap() < &0.01);
    }

    #[test]
    fn momentum_changes_trajectory_and_still_converges() {
        let run = |momentum: f64| {
            let mut net = one_layer_net();
            let mut opt = Sgd::new(0.01, momentum);
            let x = Tensor::from_vec(vec![1.0, -2.0], [1, 2]).unwrap();
            let mut losses = Vec::new();
            for _ in 0..60 {
                let y = net.forward(&x, Mode::Train).unwrap();
                let (loss, grad) = crate::loss::mse(&y, &Tensor::full([1, 1], 3.0)).unwrap();
                losses.push(loss);
                net.zero_grads();
                net.backward(&grad).unwrap();
                opt.step(&mut net);
            }
            losses
        };
        let plain = run(0.0);
        let with_momentum = run(0.9);
        assert_ne!(plain, with_momentum, "momentum must alter the path");
        assert!(with_momentum.last().unwrap() < &0.05, "{with_momentum:?}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut net = one_layer_net();
        let mut opt = Sgd::new(0.1, 0.0).with_weight_decay(0.5);
        let mut before = 0.0f32;
        net.visit_params(|p| before += p.value.norm_sq());
        // Zero gradients: only decay acts.
        net.zero_grads();
        for _ in 0..5 {
            opt.step(&mut net);
        }
        let mut after = 0.0f32;
        net.visit_params(|p| after += p.value.norm_sq());
        assert!(after < before);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_lr() {
        Sgd::new(0.0, 0.0);
    }

    #[test]
    fn schedule_decays() {
        let s = StepSchedule {
            base_lr: 0.1,
            gamma: 0.5,
            every: 2,
        };
        assert_eq!(s.lr_at(0), 0.1);
        assert_eq!(s.lr_at(1), 0.1);
        assert_eq!(s.lr_at(2), 0.05);
        assert_eq!(s.lr_at(5), 0.025);
    }
}
