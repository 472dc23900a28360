//! Training loop: per-example or minibatch SGD over a labelled dataset.

use crate::layer::{Mode, NnError, Result};
use crate::loss::softmax_cross_entropy;
use crate::network::Network;
use crate::optim::{Sgd, StepSchedule};
use scnn_par::{Pool, Threads};
use scnn_rng::{ChaCha8Rng, SeedableRng, SliceRandom};
use scnn_tensor::Tensor;

/// One labelled example.
pub type Sample = (Tensor, usize);

/// Width of the fixed gradient sub-batches a minibatch is split into.
///
/// The gradient reduction tree — per-sample accumulation inside a chunk,
/// per-chunk accumulation at the master — is pinned by this constant, not
/// by how many workers happen to be available, which is what makes
/// minibatch training bit-identical across thread counts.
pub const GRAD_SUBBATCH: usize = 8;

/// Samples per batched inference call in [`accuracy`] and
/// [`per_class_accuracy`].
const EVAL_BATCH: usize = 32;

/// Training hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Learning-rate schedule.
    pub schedule: StepSchedule,
    /// Momentum coefficient.
    pub momentum: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Shuffle seed.
    pub seed: u64,
    /// Minibatch size. `1` (the default) is the paper's per-example SGD:
    /// one step per sample, each run as a batch of one. Larger values
    /// step on the mean gradient of each batch. The batch is split into
    /// fixed [`GRAD_SUBBATCH`]-sample chunks — a property of the batch
    /// alone, never of the thread count — and each chunk runs through
    /// the same forward/backward on its own network replica (in
    /// parallel when [`TrainConfig::threads`] allows). Chunk gradients
    /// are reduced in batch order, so the result is bit-identical at
    /// every thread count.
    pub batch_size: usize,
    /// Worker threads for minibatch gradient evaluation. Ignored when
    /// `batch_size == 1`.
    pub threads: Threads,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            schedule: StepSchedule {
                base_lr: 0.002,
                gamma: 0.7,
                every: 2,
            },
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0xDEC0DE,
            batch_size: 1,
            threads: Threads::Auto,
        }
    }
}

/// What a training run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean cross-entropy loss per epoch.
    pub epoch_losses: Vec<f64>,
    /// Training accuracy after the final epoch.
    pub final_train_accuracy: f64,
}

/// Trains `net` with per-example SGD and cross-entropy loss. However it
/// returns, the layers keep no training state afterwards (see
/// [`Network::end_training`]).
///
/// # Errors
///
/// Returns [`NnError::Diverged`] when the loss goes non-finite, and
/// propagates shape errors from the network.
///
/// # Examples
///
/// ```no_run
/// use scnn_nn::models;
/// use scnn_nn::train::{train, TrainConfig};
/// # fn samples() -> Vec<scnn_nn::train::Sample> { Vec::new() }
///
/// # fn main() -> Result<(), scnn_nn::NnError> {
/// let mut net = models::mnist_cnn(7);
/// let report = train(&mut net, &samples(), &TrainConfig::default())?;
/// println!("final accuracy {:.1}%", report.final_train_accuracy * 100.0);
/// # Ok(())
/// # }
/// ```
pub fn train(net: &mut Network, samples: &[Sample], config: &TrainConfig) -> Result<TrainReport> {
    let report = train_epochs(net, samples, config);
    net.end_training();
    report
}

/// The epochs of [`train`], which leave the layers' training state behind.
fn train_epochs(
    net: &mut Network,
    samples: &[Sample],
    config: &TrainConfig,
) -> Result<TrainReport> {
    let mut opt =
        Sgd::new(config.schedule.base_lr, config.momentum).with_weight_decay(config.weight_decay);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..samples.len()).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    let pool = Pool::new(config.threads);

    for epoch in 0..config.epochs {
        // Telemetry (spans, counters, series) is observation-only: it
        // reads loss values and wall-clock time but never touches the
        // RNG stream, the sample order or the weights, so the training
        // trajectory is identical with a recorder installed or not.
        let epoch_span = scnn_obs::Span::enter_indexed("train.epoch", epoch as u64);
        opt.set_learning_rate(config.schedule.lr_at(epoch).max(1e-9));
        order.shuffle(&mut rng);
        let mut total = 0.0f64;
        if config.batch_size <= 1 {
            // Per-example SGD, as in the paper's setup: one step per
            // sample, on that sample's gradient alone.
            for i in &order {
                net.zero_grads();
                for loss in accumulate_gradients(net, samples, std::slice::from_ref(i))? {
                    if !loss.is_finite() {
                        return Err(NnError::Diverged { epoch });
                    }
                    total += loss as f64;
                }
                opt.step(net);
            }
            scnn_obs::counter_add("train.steps", order.len() as u64);
        } else {
            for batch in order.chunks(config.batch_size) {
                let results = chunk_gradients(net, samples, batch, &pool)?;
                net.zero_grads();
                for (losses, grads) in &results {
                    for &loss in losses {
                        if !loss.is_finite() {
                            return Err(NnError::Diverged { epoch });
                        }
                        total += loss as f64;
                    }
                    net.accumulate_grads(grads);
                }
                net.scale_grads(1.0 / batch.len() as f32);
                opt.step(net);
                scnn_obs::counter_add("train.minibatches", 1);
            }
        }
        let mean_loss = total / samples.len().max(1) as f64;
        epoch_losses.push(mean_loss);
        if !net.all_finite() {
            return Err(NnError::Diverged { epoch });
        }
        scnn_obs::counter_add("train.epochs", 1);
        if epoch_span.is_recording() {
            scnn_obs::series_push("train.epoch_loss", epoch as f64, mean_loss);
            // Extra observation work, gated on telemetry being live: a
            // per-epoch training-accuracy point. `accuracy` only runs
            // inference — weights, optimizer state and the shuffle RNG
            // are untouched — so computing it cannot change the result.
            scnn_obs::series_push(
                "train.epoch_accuracy",
                epoch as f64,
                accuracy(net, samples)?,
            );
        }
        drop(epoch_span);
    }

    Ok(TrainReport {
        epoch_losses,
        final_train_accuracy: accuracy(net, samples)?,
    })
}

/// Runs the samples `batch` indexes as one batch through a Train forward,
/// the cross-entropy loss and a parameter-only backward (nothing uses the
/// input gradient of the first parameterised layer), adding their
/// gradients to `net`'s. Returns the per-sample losses in batch order.
fn accumulate_gradients(
    net: &mut Network,
    samples: &[Sample],
    batch: &[usize],
) -> Result<Vec<f32>> {
    let images: Vec<&Tensor> = batch.iter().map(|&i| &samples[i].0).collect();
    let logits = net.forward(&crate::batch::stack(&images)?, Mode::Train)?;
    let classes = logits.dims()[1];
    let mut losses = Vec::with_capacity(batch.len());
    let mut grad_rows = Vec::with_capacity(logits.len());
    for (row, &i) in logits.as_slice().chunks_exact(classes).zip(batch) {
        let logits_s = Tensor::from_vec(row.to_vec(), [classes])?;
        let (loss, grad) = softmax_cross_entropy(&logits_s, samples[i].1)?;
        losses.push(loss);
        grad_rows.extend_from_slice(grad.as_slice());
    }
    net.backward_params(&Tensor::from_vec(grad_rows, [batch.len(), classes])?)?;
    Ok(losses)
}

/// Per-chunk losses and gradient snapshots for one minibatch, in batch
/// order.
///
/// The batch is split into fixed [`GRAD_SUBBATCH`]-sample chunks —
/// independent of the worker count, so the reduction tree never moves
/// when the pool is resized. Each chunk runs on its own clone of `net`
/// through [`accumulate_gradients`] (one GEMM per dense layer, one
/// lowered pass per conv layer); the master's weights are never touched,
/// so every chunk's gradient is a pure function of (weights, chunk) and
/// the ordered flatten yields the same `Vec` — bit for bit — at any
/// thread count.
fn chunk_gradients(
    net: &Network,
    samples: &[Sample],
    batch: &[usize],
    pool: &Pool,
) -> Result<Vec<(Vec<f32>, Vec<Tensor>)>> {
    let chunks: Vec<Vec<usize>> = batch.chunks(GRAD_SUBBATCH).map(<[usize]>::to_vec).collect();
    let per_chunk = pool.par_map(chunks, |chunk| -> Result<(Vec<f32>, Vec<Tensor>)> {
        let mut replica = net.clone();
        replica.zero_grads();
        let losses = accumulate_gradients(&mut replica, samples, &chunk)?;
        Ok((losses, replica.grad_vector()))
    });
    per_chunk.into_iter().collect()
}

/// Classification accuracy of `net` over `samples`.
///
/// # Errors
///
/// Propagates shape errors from the network.
pub fn accuracy(net: &mut Network, samples: &[Sample]) -> Result<f64> {
    if samples.is_empty() {
        return Ok(0.0);
    }
    let mut correct = 0usize;
    for chunk in samples.chunks(EVAL_BATCH) {
        let images: Vec<&Tensor> = chunk.iter().map(|(image, _)| image).collect();
        let preds = net.classify_batch(&crate::batch::stack(&images)?)?;
        correct += preds
            .iter()
            .zip(chunk)
            .filter(|(&p, (_, label))| p == *label)
            .count();
    }
    Ok(correct as f64 / samples.len() as f64)
}

/// Per-class accuracy, indexed by label; classes absent from `samples`
/// report accuracy `0.0`.
///
/// # Errors
///
/// Propagates shape errors from the network.
pub fn per_class_accuracy(
    net: &mut Network,
    samples: &[Sample],
    num_classes: usize,
) -> Result<Vec<f64>> {
    let mut correct = vec![0usize; num_classes];
    let mut total = vec![0usize; num_classes];
    for chunk in samples.chunks(EVAL_BATCH) {
        let images: Vec<&Tensor> = chunk.iter().map(|(image, _)| image).collect();
        let preds = net.classify_batch(&crate::batch::stack(&images)?)?;
        for (&pred, (_, label)) in preds.iter().zip(chunk) {
            if *label < num_classes {
                total[*label] += 1;
                if pred == *label {
                    correct[*label] += 1;
                }
            }
        }
    }
    Ok(correct
        .iter()
        .zip(total.iter())
        .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f64 / t as f64 })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{Dense, DenseStyle};
    use crate::softmax::Flatten;

    /// A linearly separable two-class toy problem in 2×2 "images".
    fn toy_samples() -> Vec<Sample> {
        let mut out = Vec::new();
        for i in 0..40 {
            let a = (i % 5) as f32 * 0.1;
            // Class 0: energy in the first two pixels; class 1: in the last two.
            out.push((
                Tensor::from_vec(vec![1.0 + a, 0.8, 0.0, 0.1], [1, 2, 2]).unwrap(),
                0,
            ));
            out.push((
                Tensor::from_vec(vec![0.1, 0.0, 0.9 + a, 1.0], [1, 2, 2]).unwrap(),
                1,
            ));
        }
        out
    }

    #[test]
    fn train_leaves_no_training_state_behind() {
        // Every layer kind: conv, ReLU, max-pool, flatten, dense.
        let samples: Vec<Sample> = (0..4)
            .map(|i| (Tensor::full([1, 28, 28], 0.1 * i as f32), i % 10))
            .collect();
        for batch_size in [1, 4] {
            let mut net = crate::models::mnist_cnn(3);
            let config = TrainConfig {
                epochs: 1,
                batch_size,
                threads: Threads::Count(1),
                ..TrainConfig::default()
            };
            train(&mut net, &samples, &config).unwrap();
            let grad = Tensor::zeros([1, 10]);
            assert!(matches!(
                net.backward(&grad),
                Err(NnError::NoForwardCache { .. })
            ));
            for layer in net.layers_mut() {
                assert!(
                    matches!(layer.backward(&grad), Err(NnError::NoForwardCache { .. })),
                    "{} kept its Train forward's state",
                    layer.name()
                );
            }
        }
    }

    fn toy_net() -> Network {
        let mut net = Network::new();
        net.push(Flatten::new());
        net.push(Dense::new(4, 2, DenseStyle::Dense, 17));
        net.finalize();
        net
    }

    #[test]
    fn training_learns_separable_problem() {
        let mut net = toy_net();
        let samples = toy_samples();
        let config = TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &samples, &config).unwrap();
        assert_eq!(report.epoch_losses.len(), 10);
        assert!(
            report.final_train_accuracy > 0.95,
            "accuracy {}",
            report.final_train_accuracy
        );
        assert!(
            report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
            "loss must decrease: {:?}",
            report.epoch_losses
        );
    }

    #[test]
    fn accuracy_on_empty_is_zero() {
        let mut net = toy_net();
        assert_eq!(accuracy(&mut net, &[]).unwrap(), 0.0);
    }

    #[test]
    fn per_class_breakdown() {
        let mut net = toy_net();
        let samples = toy_samples();
        train(
            &mut net,
            &samples,
            &TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let per = per_class_accuracy(&mut net, &samples, 3).unwrap();
        assert_eq!(per.len(), 3);
        assert!(per[0] > 0.9);
        assert!(per[1] > 0.9);
        assert_eq!(per[2], 0.0, "class absent from data");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut net = toy_net();
            train(&mut net, &toy_samples(), &TrainConfig::default())
                .unwrap()
                .epoch_losses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn minibatch_training_learns_separable_problem() {
        let mut net = toy_net();
        let config = TrainConfig {
            epochs: 10,
            batch_size: 8,
            threads: Threads::Count(2),
            ..TrainConfig::default()
        };
        let report = train(&mut net, &toy_samples(), &config).unwrap();
        assert!(
            report.final_train_accuracy > 0.95,
            "accuracy {}",
            report.final_train_accuracy
        );
    }

    #[test]
    fn telemetry_observes_without_changing_the_trajectory() {
        let config = TrainConfig {
            epochs: 3,
            ..TrainConfig::default()
        };
        let baseline = {
            let mut net = toy_net();
            train(&mut net, &toy_samples(), &config).unwrap()
        };

        let recorder = std::sync::Arc::new(scnn_obs::Recorder::new());
        scnn_obs::install(recorder.clone());
        let observed = {
            let mut net = toy_net();
            train(&mut net, &toy_samples(), &config).unwrap()
        };
        scnn_obs::uninstall();

        assert_eq!(
            baseline, observed,
            "telemetry must not change the training trajectory"
        );

        // Other tests in this binary may train concurrently while the
        // recorder is installed, so assert lower bounds / membership.
        let snap = recorder.snapshot();
        assert!(snap.spans_named("train.epoch").count() >= config.epochs);
        assert!(snap.counter("train.epochs").unwrap_or(0) >= config.epochs as u64);
        assert!(snap.counter("train.steps").unwrap_or(0) > 0);
        let losses = snap.series("train.epoch_loss").unwrap();
        for (epoch, loss) in baseline.epoch_losses.iter().enumerate() {
            assert!(
                losses.points.contains(&(epoch as f64, *loss)),
                "epoch {epoch} loss missing from telemetry series"
            );
        }
        assert!(snap.series("train.epoch_accuracy").is_some());
    }

    #[test]
    fn minibatch_gradients_bit_identical_across_thread_counts() {
        let run = |threads: Threads| {
            let mut net = toy_net();
            let config = TrainConfig {
                epochs: 3,
                batch_size: 7, // deliberately not a divisor of the dataset
                threads,
                ..TrainConfig::default()
            };
            let report = train(&mut net, &toy_samples(), &config).unwrap();
            let mut weights = Vec::new();
            net.visit_params(|p| weights.extend_from_slice(p.value.as_slice()));
            (report.epoch_losses, weights)
        };
        let seq = run(Threads::Count(1));
        assert_eq!(seq, run(Threads::Count(2)));
        assert_eq!(seq, run(Threads::Count(5)));
    }
}
