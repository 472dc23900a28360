//! Set-up: synthesize a case study's datasets, train its victim and score
//! held-out accuracy — everything the pipeline does before its first
//! measurement, with the same seeds and sizes as
//! `ExperimentConfig::paper`.

use scnn_core::DatasetKind;
use scnn_data::cifar_synth::{self, CifarSynthConfig};
use scnn_data::mnist_synth::{self, MnistSynthConfig};
use scnn_data::Dataset;
use scnn_nn::train::{accuracy, train, TrainConfig};
use scnn_nn::{models, Network};
use scnn_par::Threads;
use std::time::Instant;

/// Training images per class (`ExperimentConfig::paper`).
pub const TRAIN_PER_CLASS: usize = 60;
/// Held-out images per class (`ExperimentConfig::paper`).
pub const TEST_PER_CLASS: usize = 25;
/// The monitored categories (original labels), as in Tables 1–2.
pub const CATEGORIES: [usize; 4] = [0, 1, 2, 3];
/// Seed of every victim's training set and initial weights: the seed of
/// `ExperimentConfig::paper`. Every run measures the same model; the
/// run's seed draws the held-out images and the measurement noise.
/// Models trained from other seeds differ by up to a third in events
/// per inference, which would swamp any regression bound.
pub const VICTIM_SEED: u64 = 0xDAC2019;

/// A trained victim and its held-out data.
pub struct Victim {
    /// Which case study.
    pub dataset: DatasetKind,
    /// The run's seed: held-out images, PMU noise and countermeasure
    /// streams derive from it.
    pub seed: u64,
    /// The trained network.
    pub net: Network,
    /// The held-out set (all ten classes).
    pub test: Dataset,
    /// Held-out classification accuracy.
    pub accuracy: f64,
    /// Per-example SGD steps taken by training.
    pub train_steps: usize,
}

impl Victim {
    /// The monitored categories of the held-out set, keeping the first
    /// `per_category` images of each, labels re-mapped to `0..4`.
    pub fn monitored(&self, per_category: usize) -> Dataset {
        let selected = self.test.select_classes(&CATEGORIES);
        let mut kept = vec![0usize; CATEGORIES.len()];
        let indices: Vec<usize> = selected
            .iter()
            .enumerate()
            .filter_map(|(i, (_, label))| {
                kept[label] += 1;
                (kept[label] <= per_category).then_some(i)
            })
            .collect();
        selected.subset(&indices)
    }
}

/// Wall time of one set-up, by phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset synthesis.
    pub synth_s: f64,
    /// `train::train`.
    pub train_s: f64,
    /// Held-out `accuracy`.
    pub accuracy_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.synth_s + self.train_s + self.accuracy_s
    }

    /// The times in nominal seconds, measured while the set-up
    /// reference took `reference` seconds.
    pub fn scaled(&self, reference: f64) -> SetupTimes {
        let scale = |s| crate::reference::SetupReference::scale(s, reference);
        SetupTimes {
            synth_s: scale(self.synth_s),
            train_s: scale(self.train_s),
            accuracy_s: scale(self.accuracy_s),
        }
    }
}

fn generate(dataset: DatasetKind, per_class: usize, seed: u64) -> Dataset {
    match dataset {
        DatasetKind::Mnist => mnist_synth::generate(
            &MnistSynthConfig {
                per_class,
                side: mnist_synth::SIDE,
                ..MnistSynthConfig::default()
            },
            seed,
        ),
        DatasetKind::Cifar10 => cifar_synth::generate(
            &CifarSynthConfig {
                per_class,
                side: cifar_synth::SIDE,
                ..CifarSynthConfig::default()
            },
            seed,
        ),
    }
    .expect("synthetic dataset parameters are valid")
}

/// Builds one victim on one worker thread, timing each phase into
/// `times`: trained from [`VICTIM_SEED`], held-out set from `seed`.
///
/// # Errors
///
/// Returns the training or scoring error as text.
pub fn build(dataset: DatasetKind, seed: u64, times: &mut SetupTimes) -> Result<Victim, String> {
    let t = Instant::now();
    let train_set = generate(dataset, TRAIN_PER_CLASS, VICTIM_SEED);
    let test = generate(dataset, TEST_PER_CLASS, seed ^ 0xFACE);
    times.synth_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut net = match dataset {
        DatasetKind::Mnist => models::mnist_cnn(VICTIM_SEED ^ 0xBEEF),
        DatasetKind::Cifar10 => models::cifar_cnn(VICTIM_SEED ^ 0xBEEF),
    };
    let config = TrainConfig {
        threads: Threads::Count(1),
        ..TrainConfig::default()
    };
    let samples = train_set.to_samples();
    train(&mut net, &samples, &config).map_err(|e| format!("{dataset} training: {e}"))?;
    times.train_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let accuracy =
        accuracy(&mut net, &test.to_samples()).map_err(|e| format!("{dataset} accuracy: {e}"))?;
    times.accuracy_s += t.elapsed().as_secs_f64();

    Ok(Victim {
        dataset,
        seed,
        net,
        test,
        accuracy,
        train_steps: config.epochs * samples.len(),
    })
}
