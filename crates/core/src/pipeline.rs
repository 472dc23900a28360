//! End-to-end experiment driver: dataset generation → CNN training →
//! HPC collection → leakage evaluation — the full protocol of the
//! paper's §5, as one configurable object.

use crate::artifact;
use crate::attack::{mount_attack, AttackConfig, AttackError, AttackOutcome};
use crate::campaign::{self, TrainedModel};
use crate::collect::{
    category_seed, collect_selected, CategoryObservations, CollectError, CollectionConfig,
};
use crate::countermeasure::{Countermeasure, ProtectedModel};
use crate::evaluator::{EvaluateError, Evaluator, EvaluatorConfig, LeakageReport};
use scnn_cache::ArtifactCache;
use scnn_data::cifar_synth::{self, CifarSynthConfig};
use scnn_data::mnist_synth::{self, MnistSynthConfig};
use scnn_data::{Dataset, DatasetError};
use scnn_hpc::{SimPmuConfig, SimulatedPmu};
use scnn_nn::models;
use scnn_nn::train::{TrainConfig, TrainReport};
use scnn_nn::Network;
use scnn_par::Threads;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which case study to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// The MNIST case study (§5.2).
    Mnist,
    /// The CIFAR-10 case study (§5.3).
    Cifar10,
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetKind::Mnist => write!(f, "MNIST"),
            DatasetKind::Cifar10 => write!(f, "CIFAR-10"),
        }
    }
}

/// Which model family the victim uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Architecture {
    /// The paper's convolutional models.
    #[default]
    Cnn,
    /// A multi-layer perceptron — the "other deep learning models" of the
    /// paper's future-work section.
    Mlp,
}

/// Experiment size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelScale {
    /// Down-scaled images and a single-conv model — seconds, for tests
    /// and doctests.
    Tiny,
    /// Paper-scale images (28×28 / 32×32) and LeNet-style models.
    Paper,
}

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Which dataset/case study.
    pub dataset: DatasetKind,
    /// Experiment size.
    pub scale: ModelScale,
    /// Victim model family.
    pub architecture: Architecture,
    /// The categories the evaluator monitors (original class labels). The
    /// paper uses four.
    pub categories: Vec<usize>,
    /// Training images generated per class (all 10 classes are trained).
    pub train_per_class: usize,
    /// Held-out images generated per class for measurement.
    pub test_per_class: usize,
    /// CNN training hyperparameters.
    pub train: TrainConfig,
    /// HPC collection parameters.
    pub collection: CollectionConfig,
    /// Evaluator parameters.
    pub evaluator: EvaluatorConfig,
    /// Simulated platform parameters.
    pub pmu: SimPmuConfig,
    /// Optional countermeasure to apply before measuring.
    pub countermeasure: Option<Countermeasure>,
    /// Master seed (datasets, weights, noise all derive from it).
    pub seed: u64,
}

impl ExperimentConfig {
    /// A fast configuration for tests and doctests (tiny model, few
    /// samples). Completes in seconds even in debug builds.
    pub fn quick(dataset: DatasetKind) -> Self {
        ExperimentConfig {
            dataset,
            scale: ModelScale::Tiny,
            architecture: Architecture::Cnn,
            categories: vec![0, 1, 2, 3],
            train_per_class: 12,
            test_per_class: 8,
            train: TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
            collection: CollectionConfig {
                samples_per_category: 12,
                ..CollectionConfig::default()
            },
            evaluator: EvaluatorConfig::default(),
            pmu: SimPmuConfig::default(),
            countermeasure: None,
            seed: 0x5C44,
        }
    }

    /// The paper-scale configuration behind Tables 1–2 and Figures 1, 3,
    /// 4 — full-size images, LeNet-style CNNs, 100 measurements per
    /// category.
    pub fn paper(dataset: DatasetKind) -> Self {
        ExperimentConfig {
            dataset,
            scale: ModelScale::Paper,
            architecture: Architecture::Cnn,
            categories: vec![0, 1, 2, 3],
            train_per_class: 60,
            test_per_class: 25,
            train: TrainConfig::default(),
            collection: CollectionConfig::default(),
            evaluator: EvaluatorConfig::default(),
            pmu: SimPmuConfig::default(),
            countermeasure: None,
            seed: 0xDAC2019,
        }
    }

    // Fluent builders. Every field stays `pub` — these are sugar over
    // direct mutation, so `config.collection.samples_per_category = n`
    // and `config.samples(n)` remain interchangeable.

    /// Sets the number of HPC measurements per monitored category.
    pub fn samples(mut self, samples_per_category: usize) -> Self {
        self.collection.samples_per_category = samples_per_category;
        self
    }

    /// Sets the worker-thread policy for every parallel stage at once
    /// (collection, evaluation and minibatch training).
    pub fn threads(mut self, threads: Threads) -> Self {
        self.collection.threads = threads;
        self.evaluator.threads = threads;
        self.train.threads = threads;
        self
    }

    /// Sets the countermeasure to apply before measuring.
    pub fn countermeasure(mut self, cm: Countermeasure) -> Self {
        self.countermeasure = Some(cm);
        self
    }

    /// Sets the number of training epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.train.epochs = epochs;
        self
    }

    /// Sets the minibatch size for training (`1` = per-example SGD).
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.train.batch_size = batch_size;
        self
    }

    /// Sets the master seed (datasets, weights and noise derive from
    /// it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the victim model family.
    pub fn architecture(mut self, architecture: Architecture) -> Self {
        self.architecture = architecture;
        self
    }

    /// Sets the monitored categories (original class labels).
    pub fn categories(mut self, categories: Vec<usize>) -> Self {
        self.categories = categories;
        self
    }

    /// Sets the experiment size.
    pub fn scale(mut self, scale: ModelScale) -> Self {
        self.scale = scale;
        self
    }

    pub(crate) fn image_side(&self) -> usize {
        match (self.dataset, self.scale) {
            (DatasetKind::Mnist, ModelScale::Paper) => mnist_synth::SIDE,
            (DatasetKind::Cifar10, ModelScale::Paper) => cifar_synth::SIDE,
            (_, ModelScale::Tiny) => 12,
        }
    }

    pub(crate) fn generate_dataset(
        &self,
        per_class: usize,
        seed: u64,
    ) -> Result<Dataset, DatasetError> {
        match self.dataset {
            DatasetKind::Mnist => mnist_synth::generate(
                &MnistSynthConfig {
                    per_class,
                    side: self.image_side(),
                    ..MnistSynthConfig::default()
                },
                seed,
            ),
            DatasetKind::Cifar10 => cifar_synth::generate(
                &CifarSynthConfig {
                    per_class,
                    side: self.image_side(),
                    ..CifarSynthConfig::default()
                },
                seed,
            ),
        }
    }

    pub(crate) fn build_model(&self) -> Network {
        let seed = self.seed ^ 0xBEEF;
        let channels = match self.dataset {
            DatasetKind::Mnist => 1,
            DatasetKind::Cifar10 => 3,
        };
        match self.architecture {
            Architecture::Mlp => models::mnist_mlp(channels, self.image_side(), seed),
            Architecture::Cnn => match (self.dataset, self.scale) {
                (DatasetKind::Mnist, ModelScale::Paper) => models::mnist_cnn(seed),
                (DatasetKind::Cifar10, ModelScale::Paper) => models::cifar_cnn(seed),
                (DatasetKind::Mnist, ModelScale::Tiny) => {
                    models::small_cnn(1, self.image_side(), 10, seed)
                }
                (DatasetKind::Cifar10, ModelScale::Tiny) => {
                    models::small_cnn(3, self.image_side(), 10, seed)
                }
            },
        }
    }
}

/// Error from an experiment run.
#[derive(Debug)]
pub enum ExperimentError {
    /// Dataset generation failed.
    Dataset(DatasetError),
    /// Training failed.
    Train(scnn_nn::NnError),
    /// Collection failed.
    Collect(CollectError),
    /// Evaluation failed.
    Evaluate(EvaluateError),
    /// The PMU could not be built.
    Pmu(scnn_hpc::PmuError),
    /// The attack failed.
    Attack(AttackError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Dataset(e) => write!(f, "dataset: {e}"),
            ExperimentError::Train(e) => write!(f, "training: {e}"),
            ExperimentError::Collect(e) => write!(f, "collection: {e}"),
            ExperimentError::Evaluate(e) => write!(f, "evaluation: {e}"),
            ExperimentError::Pmu(e) => write!(f, "pmu: {e}"),
            ExperimentError::Attack(e) => write!(f, "attack: {e}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Dataset(e) => Some(e),
            ExperimentError::Train(e) => Some(e),
            ExperimentError::Collect(e) => Some(e),
            ExperimentError::Evaluate(e) => Some(e),
            ExperimentError::Pmu(e) => Some(e),
            ExperimentError::Attack(e) => Some(e),
        }
    }
}

impl From<DatasetError> for ExperimentError {
    fn from(e: DatasetError) -> Self {
        ExperimentError::Dataset(e)
    }
}
impl From<scnn_nn::NnError> for ExperimentError {
    fn from(e: scnn_nn::NnError) -> Self {
        ExperimentError::Train(e)
    }
}
impl From<CollectError> for ExperimentError {
    fn from(e: CollectError) -> Self {
        ExperimentError::Collect(e)
    }
}
impl From<EvaluateError> for ExperimentError {
    fn from(e: EvaluateError) -> Self {
        ExperimentError::Evaluate(e)
    }
}
impl From<scnn_hpc::PmuError> for ExperimentError {
    fn from(e: scnn_hpc::PmuError) -> Self {
        ExperimentError::Pmu(e)
    }
}
impl From<AttackError> for ExperimentError {
    fn from(e: AttackError) -> Self {
        ExperimentError::Attack(e)
    }
}

/// How much of a run was served from an [`ArtifactCache`].
///
/// All zeros (the [`Default`]) for uncached runs via
/// [`Experiment::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheUsage {
    /// The trained model was restored from the cache instead of trained.
    pub model_hit: bool,
    /// Monitored categories restored from collection checkpoints.
    pub categories_hit: usize,
    /// Monitored categories actually measured this run.
    pub categories_collected: usize,
    /// Artifacts written to the cache this run.
    pub writes: usize,
}

/// Everything an experiment run produced.
pub struct ExperimentOutcome {
    /// The evaluator's verdict (Tables 1–2, alarm).
    pub report: LeakageReport,
    /// Raw per-category observations (Figures 1, 3, 4).
    pub observations: Vec<CategoryObservations>,
    /// CNN training report.
    pub train_report: TrainReport,
    /// Held-out classification accuracy of the CNN.
    pub test_accuracy: f64,
    /// The (possibly countermeasure-rewritten) trained network.
    pub network: Network,
    /// What the artifact cache contributed (all zeros when uncached).
    pub cache: CacheUsage,
}

impl fmt::Debug for ExperimentOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentOutcome")
            .field("alarm", &self.report.alarm().raised())
            .field("test_accuracy", &self.test_accuracy)
            .finish_non_exhaustive()
    }
}

impl ExperimentOutcome {
    /// Mounts the profiling attack on this run's observations.
    ///
    /// # Errors
    ///
    /// Propagates [`AttackError`].
    pub fn mount_attack(&self, config: &AttackConfig) -> Result<AttackOutcome, AttackError> {
        mount_attack(&self.observations, config)
    }
}

/// The experiment driver.
#[derive(Debug, Clone)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Creates the driver.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the full protocol:
    ///
    /// 1. generate train/test datasets (all 10 classes);
    /// 2. train the CNN;
    /// 3. select the monitored categories from the test set;
    /// 4. measure `samples_per_category` traced classifications per
    ///    category through the simulated PMU (with the countermeasure
    ///    applied, if any);
    /// 5. run the pairwise-t-test evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] from whichever stage fails.
    pub fn run(&self) -> Result<ExperimentOutcome, ExperimentError> {
        self.run_with(None, None)
    }

    /// Runs the protocol with a persistent [`ArtifactCache`]: the trained
    /// model and each category's observations are looked up before being
    /// recomputed, and stored after.
    ///
    /// A fully warm run (model plus every category) skips dataset
    /// synthesis, training and collection outright; a partially warm one
    /// — e.g. an interrupted campaign — retrains/recollects only what is
    /// missing and checkpoints each category as it completes. The outcome
    /// is **bit-identical** to [`run`](Self::run): artifacts are keyed by
    /// every config field that feeds them (and no others — see
    /// [`crate::artifact`]), and a corrupt or truncated artifact decodes
    /// to a miss, never a wrong answer.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError`] from whichever stage fails. Cache I/O
    /// failures are not errors: an unreadable artifact is a miss and an
    /// unwritable store is skipped.
    pub fn run_cached(&self, cache: &ArtifactCache) -> Result<ExperimentOutcome, ExperimentError> {
        self.run_with(Some(cache), None)
    }

    /// The protocol behind [`run`](Self::run) (no `cache`) and
    /// [`run_cached`](Self::run_cached). A `shared` model of this
    /// configuration's model key (a
    /// [`Campaign`](crate::campaign::Campaign)'s, or one the caller
    /// keeps) stands in for the cached or freshly trained one, and counts
    /// as a model hit when there is a cache.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_with(
        &self,
        cache: Option<&ArtifactCache>,
        shared: Option<&TrainedModel>,
    ) -> Result<ExperimentOutcome, ExperimentError> {
        // Telemetry spans mark the protocol's phases. They only read the
        // wall clock — nothing they record feeds back into seeds or
        // results, so the run is identical with a recorder installed or
        // not (see DESIGN.md § Observability).
        let _run_span = scnn_obs::Span::enter("pipeline.run");
        let cfg = &self.config;
        let mut usage = CacheUsage::default();

        // Consult the cache before paying for anything. Category
        // artifacts are keyed by config alone (the model they depend on
        // is itself a pure function of config), so they are usable even
        // when the model artifact is absent.
        let restored = shared.cloned().or_else(|| campaign::load_model(cfg, cache));
        usage.model_hit = cache.is_some() && restored.is_some();
        let mut slots: Vec<Option<CategoryObservations>> = match cache {
            Some(c) => (0..cfg.categories.len())
                .map(|i| {
                    c.load(artifact::CATEGORY_KIND, artifact::category_key(cfg, i))
                        .and_then(|p| artifact::decode_category(&p))
                })
                .collect(),
            None => vec![None; cfg.categories.len()],
        };
        // `select_classes` re-maps `cfg.categories[i]` to label `i`, so a
        // slot's position is also its campaign's category index.
        let missing: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.is_none().then_some(i))
            .collect();
        if cache.is_some() {
            usage.categories_hit = slots.len() - missing.len();
            usage.categories_collected = missing.len();
        }

        // Fully warm: every expensive phase is served from memory or
        // disk, so the datasets need not even be synthesized.
        let model = match restored {
            Some(model) if missing.is_empty() => model,
            restored => {
                let dataset_span = scnn_obs::Span::enter("pipeline.dataset");
                let test_set = cfg.generate_dataset(cfg.test_per_class, cfg.seed ^ 0xFACE)?;
                drop(dataset_span);
                let model = match restored {
                    Some(model) => model,
                    None => {
                        let (model, stored) = campaign::train_model(cfg, &test_set, cache)?;
                        usage.writes += usize::from(stored);
                        model
                    }
                };
                if !missing.is_empty() {
                    let (fresh, stored) =
                        collect_missing(cfg, &test_set, &model.network, &missing, cache)?;
                    usage.writes += stored;
                    for obs in fresh {
                        let slot = obs.category;
                        slots[slot] = Some(obs);
                    }
                }
                model
            }
        };
        let observations: Vec<CategoryObservations> = slots.into_iter().flatten().collect();

        let evaluate_span = scnn_obs::Span::enter("pipeline.evaluate");
        let report = Evaluator::new(cfg.evaluator).evaluate(&observations)?;
        drop(evaluate_span);
        // Each campaign measured a private clone; the caller gets the
        // trained network itself, unrewritten.
        Ok(ExperimentOutcome {
            report,
            observations,
            train_report: model.train_report,
            test_accuracy: model.test_accuracy,
            network: model.network,
            cache: usage,
        })
    }
}

/// Measures the `missing` monitored categories of `cfg` on `net`,
/// checkpointing each one into `cache` from the worker thread that
/// finished it, so an interrupted campaign resumes there. Returns the
/// fresh observations and the number of checkpoints stored.
fn collect_missing(
    cfg: &ExperimentConfig,
    test_set: &Dataset,
    net: &Network,
    missing: &[usize],
    cache: Option<&ArtifactCache>,
) -> Result<(Vec<CategoryObservations>, usize), ExperimentError> {
    let _collect_span = scnn_obs::Span::enter("pipeline.collect");
    let monitored = test_set.select_classes(&cfg.categories);

    // One campaign per category, each on its own cloned model and its
    // own PMU seeded from the category index — a pure function of
    // (seed, category), so readings are bit-identical at every thread
    // count (see `collect_campaign`), and a subset campaign reproduces
    // the full campaign's slice.
    let pmu_base = cfg.seed ^ 0x9019;
    let cm_base = cfg.seed ^ 0xD011;
    let make_pmu = |c: usize| SimulatedPmu::new(cfg.pmu, category_seed(pmu_base, c));
    let stored = AtomicUsize::new(0);
    let on_collected = |obs: &CategoryObservations| {
        if let Some(c) = cache {
            let key = artifact::category_key(cfg, obs.category);
            let payload = artifact::encode_category(obs);
            if c.store(artifact::CATEGORY_KIND, key, &payload).is_ok() {
                stored.fetch_add(1, Ordering::Relaxed);
            }
        }
    };
    let fresh = match cfg.countermeasure {
        None => collect_selected(
            |_| net.clone(),
            &monitored,
            make_pmu,
            &cfg.collection,
            missing,
            on_collected,
        )?,
        Some(cm) => collect_selected(
            |c| ProtectedModel::new(net.clone(), cm, category_seed(cm_base, c)),
            &monitored,
            make_pmu,
            &cfg.collection,
            missing,
            on_collected,
        )?,
    };
    Ok((fresh, stored.into_inner()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_hpc::HpcEvent;
    use scnn_uarch::{CoreConfig, NoiseConfig};

    fn fast(dataset: DatasetKind) -> ExperimentConfig {
        // Even quicker than quick(): tiny core, quiet noise, few samples.
        let mut cfg = ExperimentConfig::quick(dataset);
        cfg.train_per_class = 6;
        cfg.test_per_class = 4;
        cfg.train.epochs = 1;
        cfg.collection.samples_per_category = 6;
        cfg.pmu.core = CoreConfig::tiny();
        cfg
    }

    #[test]
    fn mnist_quick_pipeline_runs_and_alarms() {
        let outcome = Experiment::new(fast(DatasetKind::Mnist)).run().unwrap();
        assert_eq!(outcome.observations.len(), 4);
        assert_eq!(outcome.report.categories, 4);
        assert!(
            outcome.report.alarm().raised(),
            "zero-skip kernels on sparse digits must leak:\n{}",
            outcome.report.render_table()
        );
        assert!(outcome
            .report
            .alarm()
            .triggering_events()
            .contains(&HpcEvent::CacheMisses));
    }

    #[test]
    fn cifar_quick_pipeline_runs() {
        let outcome = Experiment::new(fast(DatasetKind::Cifar10)).run().unwrap();
        assert_eq!(outcome.observations.len(), 4);
        assert!(outcome.test_accuracy >= 0.0);
    }

    #[test]
    fn constant_time_countermeasure_silences_cache_misses() {
        let mut cfg = fast(DatasetKind::Mnist);
        cfg.pmu.noise = NoiseConfig::quiet();
        let leaky = Experiment::new(cfg.clone()).run().unwrap();
        let protected = Experiment::new(cfg.countermeasure(Countermeasure::ConstantTime))
            .run()
            .unwrap();
        let leaky_count = leaky
            .report
            .event(HpcEvent::CacheMisses)
            .unwrap()
            .pairwise
            .leak_count();
        let protected_count = protected
            .report
            .event(HpcEvent::CacheMisses)
            .unwrap()
            .pairwise
            .leak_count();
        assert!(
            protected_count < leaky_count,
            "constant-time kernels must remove cache-miss pairs: {leaky_count} -> {protected_count}"
        );
    }

    #[test]
    fn attack_on_outcome_beats_chance() {
        let mut cfg = fast(DatasetKind::Mnist);
        cfg.collection.samples_per_category = 10;
        let outcome = Experiment::new(cfg).run().unwrap();
        let attack = outcome
            .mount_attack(&crate::attack::AttackConfig::default())
            .unwrap();
        assert!(
            attack.accuracy > attack.chance_level(),
            "leaky model must be attackable: {:.2} vs chance {:.2}",
            attack.accuracy,
            attack.chance_level()
        );
    }

    #[test]
    fn mlp_architecture_runs_and_leaks() {
        let mut cfg = fast(DatasetKind::Mnist);
        cfg.architecture = Architecture::Mlp;
        let outcome = Experiment::new(cfg).run().unwrap();
        assert!(
            outcome.report.alarm().raised(),
            "zero-skipping MLPs see the raw image sparsity directly:\n{}",
            outcome.report.render_table()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            Experiment::new(fast(DatasetKind::Mnist))
                .run()
                .unwrap()
                .observations
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        use scnn_par::Threads;
        let run = |threads: Threads| {
            let mut cfg = fast(DatasetKind::Mnist);
            cfg.collection.threads = threads;
            cfg.evaluator.threads = threads;
            let o = Experiment::new(cfg).run().unwrap();
            (o.observations, o.report.per_event, o.test_accuracy)
        };
        let seq = run(Threads::Count(1));
        assert_eq!(seq, run(Threads::Count(2)));
        assert_eq!(seq, run(Threads::Count(4)));
    }

    fn scratch_cache(tag: &str) -> (std::path::PathBuf, ArtifactCache) {
        let dir = std::env::temp_dir().join(format!("scnn-pipeline-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ArtifactCache::open(&dir).unwrap();
        (dir, cache)
    }

    #[test]
    fn cached_rerun_is_warm_and_bit_identical() {
        let (dir, cache) = scratch_cache("warm");
        let cfg = fast(DatasetKind::Mnist);

        let cold = Experiment::new(cfg.clone()).run_cached(&cache).unwrap();
        assert!(!cold.cache.model_hit);
        assert_eq!(cold.cache.categories_collected, 4);
        assert_eq!(cold.cache.writes, 5, "model + 4 categories stored");

        let warm = Experiment::new(cfg.clone()).run_cached(&cache).unwrap();
        assert!(warm.cache.model_hit);
        assert_eq!(warm.cache.categories_hit, 4);
        assert_eq!(warm.cache.categories_collected, 0);
        assert_eq!(warm.cache.writes, 0);

        let plain = Experiment::new(cfg).run().unwrap();
        assert_eq!(plain.cache, CacheUsage::default());
        assert_eq!(warm.observations, cold.observations);
        assert_eq!(warm.observations, plain.observations);
        assert_eq!(warm.train_report, plain.train_report);
        assert_eq!(warm.test_accuracy, plain.test_accuracy);
        assert_eq!(warm.network.to_bytes(), plain.network.to_bytes());
        assert_eq!(
            warm.report.render_table(),
            plain.report.render_table(),
            "warm-cache output must be byte-identical to an uncached run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_recollects_only_the_missing_category() {
        let (dir, cache) = scratch_cache("resume");
        let cfg = fast(DatasetKind::Mnist);
        let cold = Experiment::new(cfg.clone()).run_cached(&cache).unwrap();

        // Simulate an interrupted campaign: category 2's checkpoint is
        // gone, everything else survived.
        std::fs::remove_file(cache.path_for(
            crate::artifact::CATEGORY_KIND,
            crate::artifact::category_key(&cfg, 2),
        ))
        .unwrap();

        let resumed = Experiment::new(cfg).run_cached(&cache).unwrap();
        assert!(resumed.cache.model_hit);
        assert_eq!(resumed.cache.categories_hit, 3);
        assert_eq!(resumed.cache.categories_collected, 1);
        assert_eq!(resumed.cache.writes, 1);
        assert_eq!(resumed.observations, cold.observations);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_artifact_is_recomputed_not_trusted() {
        let (dir, cache) = scratch_cache("corrupt");
        let cfg = fast(DatasetKind::Mnist);
        let cold = Experiment::new(cfg.clone()).run_cached(&cache).unwrap();

        // Flip one byte in the stored model artifact.
        let path = cache.path_for(
            crate::artifact::MODEL_KIND,
            crate::artifact::model_key(&cfg),
        );
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        let rerun = Experiment::new(cfg).run_cached(&cache).unwrap();
        assert!(!rerun.cache.model_hit, "corruption must read as a miss");
        assert_eq!(rerun.cache.writes, 1, "the model artifact is rewritten");
        assert_eq!(rerun.observations, cold.observations);
        assert_eq!(rerun.test_accuracy, cold.test_accuracy);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_chain_matches_direct_mutation() {
        use scnn_par::Threads;
        let built = ExperimentConfig::quick(DatasetKind::Mnist)
            .samples(33)
            .threads(Threads::Count(2))
            .epochs(5)
            .batch_size(4)
            .seed(77)
            .architecture(Architecture::Mlp)
            .categories(vec![1, 2])
            .countermeasure(Countermeasure::ConstantTime);

        let mut direct = ExperimentConfig::quick(DatasetKind::Mnist);
        direct.collection.samples_per_category = 33;
        direct.collection.threads = Threads::Count(2);
        direct.evaluator.threads = Threads::Count(2);
        direct.train.threads = Threads::Count(2);
        direct.train.epochs = 5;
        direct.train.batch_size = 4;
        direct.seed = 77;
        direct.architecture = Architecture::Mlp;
        direct.categories = vec![1, 2];
        direct.countermeasure = Some(Countermeasure::ConstantTime);

        assert_eq!(built.collection.samples_per_category, 33);
        assert_eq!(format!("{built:?}"), format!("{direct:?}"));
    }
}
