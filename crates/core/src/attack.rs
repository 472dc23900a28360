//! The adversary's side: recovering the input category from HPC readings.
//!
//! The paper argues that distinguishable distributions let "an adversary
//! … exploit this side-channel information in order to uncover the
//! private input images". This module demonstrates that exploitability
//! concretely: profiling classifiers (a Gaussian template attack, the
//! classical side-channel tool, and a k-NN baseline) are trained on a
//! profiling split of the HPC observations and then asked to label unseen
//! measurements. Recovery accuracy far above chance *is* the reverse
//! engineering of the paper's title.

use crate::collect::CategoryObservations;
use crate::error::Error as CoreError;
use crate::json::{ObjectWriter, ToJson};
use scnn_hpc::HpcEvent;
use scnn_rng::{ChaCha8Rng, SeedableRng, SliceRandom};
use std::error::Error;
use std::fmt;

/// The unified attack API: every adversary in the suite — the
/// input-category classifiers here and the architecture extractor in
/// [`crate::extract`] — follows the same three-phase contract.
///
/// 1. [`profile`](Adversary::profile) learns a model of the victim from a
///    profiling corpus (and scores any held-out split it keeps back);
/// 2. [`attack`](Adversary::attack) applies the profiled model to one
///    unseen trace and returns a verdict;
/// 3. [`report`](Adversary::report) exposes the aggregate result, which
///    serializes for `--out` via [`ToJson`].
///
/// Errors use the workspace-wide [`crate::Error`] so drivers can treat
/// every adversary uniformly.
pub trait Adversary {
    /// The profiling corpus the adversary learns from.
    type Corpus: ?Sized;
    /// One unseen measurement to attack.
    type Trace: ?Sized;
    /// The adversary's conclusion about one trace.
    type Verdict;
    /// The aggregate, serialisable result of the campaign.
    type Report: ToJson;

    /// Learns the victim's behaviour from `corpus`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error`] when the corpus is degenerate or the
    /// adversary's configuration is invalid.
    fn profile(&mut self, corpus: &Self::Corpus) -> Result<(), CoreError>;

    /// Applies the profiled model to one unseen trace.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error`] when called before a successful
    /// [`profile`](Adversary::profile) or when `trace` has the wrong
    /// shape.
    fn attack(&self, trace: &Self::Trace) -> Result<Self::Verdict, CoreError>;

    /// The aggregate report, populated by [`profile`](Adversary::profile).
    fn report(&self) -> Option<&Self::Report>;
}

/// Classifier the adversary uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AttackClassifier {
    /// Per-class independent Gaussian templates (naive Bayes with
    /// Gaussian likelihoods) — the classical profiling attack.
    #[default]
    GaussianTemplate,
    /// Linear discriminant analysis: Gaussian templates with a *pooled
    /// full covariance* across classes. Exploits correlations between
    /// events (e.g. cache-misses and cycles move together) that the
    /// diagonal template ignores.
    Lda,
    /// k-nearest-neighbours on z-scored features.
    Knn {
        /// Neighbourhood size.
        k: usize,
    },
}

impl AttackClassifier {
    /// Stable label used in reports, JSON output and the `--classifier`
    /// flag (`knn` carries its neighbourhood size as `knn:K`).
    pub fn label(&self) -> String {
        match self {
            AttackClassifier::GaussianTemplate => "gaussian-template".to_owned(),
            AttackClassifier::Lda => "lda".to_owned(),
            AttackClassifier::Knn { k } => format!("knn:{k}"),
        }
    }

    /// Parses the `--classifier` flag vocabulary: `gaussian` (or
    /// `gaussian-template` / `template`), `lda`, `knn` (k = 5) or
    /// `knn:K`.
    pub fn parse_flag(s: &str) -> Option<AttackClassifier> {
        match s {
            "gaussian" | "gaussian-template" | "template" => {
                Some(AttackClassifier::GaussianTemplate)
            }
            "lda" => Some(AttackClassifier::Lda),
            "knn" => Some(AttackClassifier::Knn { k: 5 }),
            _ => {
                let k = s.strip_prefix("knn:")?.parse().ok()?;
                Some(AttackClassifier::Knn { k })
            }
        }
    }
}

/// Attack parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackConfig {
    /// Fraction of each category's measurements used for profiling.
    pub profile_fraction: f64,
    /// The classifier.
    pub classifier: AttackClassifier,
    /// Split seed.
    pub seed: u64,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            profile_fraction: 0.5,
            classifier: AttackClassifier::GaussianTemplate,
            seed: 0xA77AC4,
        }
    }
}

impl AttackConfig {
    // Fluent builders, mirroring `ExperimentConfig`. Every field stays
    // `pub` — these are sugar over direct mutation, plus the one place
    // where parameters get validated ([`AttackConfig::validate`], run by
    // `mount_attack` and `Adversary::profile` before any work happens).

    /// Sets the classifier.
    pub fn classifier(mut self, classifier: AttackClassifier) -> Self {
        self.classifier = classifier;
        self
    }

    /// Sets the fraction of each category's measurements used for
    /// profiling. Must lie strictly inside `(0, 1)`.
    pub fn profile_fraction(mut self, fraction: f64) -> Self {
        self.profile_fraction = fraction;
        self
    }

    /// Sets the profiling/holdout split seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the parameters for values that would silently corrupt the
    /// attack: a profile fraction outside `(0, 1)` (the split would put
    /// everything — or nothing — into profiling) and a zero k-NN
    /// neighbourhood (no neighbours can vote).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidProfileFraction`] or
    /// [`AttackError::ZeroNeighbourhood`]; both convert into the unified
    /// [`crate::Error`] with `?`.
    pub fn validate(&self) -> Result<(), AttackError> {
        if !(self.profile_fraction.is_finite()
            && self.profile_fraction > 0.0
            && self.profile_fraction < 1.0)
        {
            return Err(AttackError::InvalidProfileFraction {
                fraction: self.profile_fraction,
            });
        }
        if matches!(self.classifier, AttackClassifier::Knn { k: 0 }) {
            return Err(AttackError::ZeroNeighbourhood);
        }
        Ok(())
    }
}

/// Error mounting the attack.
#[derive(Debug, Clone, PartialEq)]
pub enum AttackError {
    /// Fewer than two categories.
    TooFewCategories,
    /// A category has too few measurements to split.
    TooFewMeasurements {
        /// The offending category.
        category: usize,
    },
    /// Observations carry no events.
    NoFeatures,
    /// The profiling fraction lies outside the open interval `(0, 1)`.
    InvalidProfileFraction {
        /// The rejected value.
        fraction: f64,
    },
    /// `Knn { k: 0 }` — a zero-size neighbourhood cannot vote.
    ZeroNeighbourhood,
    /// A trace corpus with no traces cannot be split for profiling.
    EmptyCorpus,
    /// [`Adversary::attack`] was called before a successful
    /// [`Adversary::profile`].
    NotProfiled,
    /// A trace handed to [`Adversary::attack`] has the wrong number of
    /// features.
    TraceShape {
        /// Features the profiled model expects.
        expected: usize,
        /// Features the trace carried.
        got: usize,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::TooFewCategories => write!(f, "attack needs at least 2 categories"),
            AttackError::TooFewMeasurements { category } => {
                write!(f, "category {category} has too few measurements to split")
            }
            AttackError::NoFeatures => write!(f, "observations carry no HPC events"),
            AttackError::InvalidProfileFraction { fraction } => {
                write!(
                    f,
                    "profile fraction {fraction} is outside the open interval (0, 1)"
                )
            }
            AttackError::ZeroNeighbourhood => {
                write!(f, "k-NN needs a neighbourhood of at least 1 (k = 0 given)")
            }
            AttackError::EmptyCorpus => write!(f, "an empty trace corpus cannot be profiled"),
            AttackError::NotProfiled => {
                write!(f, "adversary must profile a corpus before attacking traces")
            }
            AttackError::TraceShape { expected, got } => {
                write!(f, "trace carries {got} features, model expects {expected}")
            }
        }
    }
}

impl Error for AttackError {}

/// Attack outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackOutcome {
    /// Category-recovery accuracy on held-out measurements.
    pub accuracy: f64,
    /// Confusion matrix `confusion[truth][guess]`.
    pub confusion: Vec<Vec<usize>>,
    /// Held-out measurements evaluated.
    pub test_count: usize,
    /// Events used as features.
    pub features: Vec<HpcEvent>,
    /// The classifier used.
    pub classifier: AttackClassifier,
}

impl AttackOutcome {
    /// Chance accuracy for the category count.
    pub fn chance_level(&self) -> f64 {
        if self.confusion.is_empty() {
            0.0
        } else {
            1.0 / self.confusion.len() as f64
        }
    }

    /// True when recovery beats chance by `margin` (absolute).
    pub fn beats_chance_by(&self, margin: f64) -> bool {
        self.accuracy >= self.chance_level() + margin
    }
}

impl fmt::Display for AttackOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "input-category recovery: {:.1}% (chance {:.1}%, {} held-out measurements)",
            self.accuracy * 100.0,
            self.chance_level() * 100.0,
            self.test_count
        )?;
        writeln!(f, "confusion (rows = truth):")?;
        for row in &self.confusion {
            write!(f, " ")?;
            for v in row {
                write!(f, " {v:>4}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl ToJson for AttackOutcome {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("classifier", &self.classifier.label())
            .field("accuracy", &self.accuracy)
            .field("chance", &self.chance_level())
            .field("test_count", &self.test_count)
            .field("features", &self.features)
            .field("confusion", &self.confusion);
        obj.finish();
    }
}

struct LabelledVectors {
    features: Vec<HpcEvent>,
    /// (feature_vector, category)
    train: Vec<(Vec<f64>, usize)>,
    test: Vec<(Vec<f64>, usize)>,
}

fn split_vectors(
    observations: &[CategoryObservations],
    config: &AttackConfig,
) -> Result<LabelledVectors, AttackError> {
    if observations.len() < 2 {
        return Err(AttackError::TooFewCategories);
    }
    let features: Vec<HpcEvent> = observations[0].per_event.keys().copied().collect();
    if features.is_empty() {
        return Err(AttackError::NoFeatures);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut train = Vec::new();
    let mut test = Vec::new();
    for obs in observations {
        let n = obs.len();
        let cut = (n as f64 * config.profile_fraction).round() as usize;
        if cut == 0 || cut >= n {
            return Err(AttackError::TooFewMeasurements {
                category: obs.category,
            });
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.shuffle(&mut rng);
        for (rank, &i) in idx.iter().enumerate() {
            let vector: Vec<f64> = features
                .iter()
                .map(|e| obs.series(*e).map(|s| s[i]).unwrap_or(0.0))
                .collect();
            if rank < cut {
                train.push((vector, obs.category));
            } else {
                test.push((vector, obs.category));
            }
        }
    }
    Ok(LabelledVectors {
        features,
        train,
        test,
    })
}

/// Gaussian template per class: feature means and variances.
struct Templates {
    classes: usize,
    means: Vec<Vec<f64>>,
    vars: Vec<Vec<f64>>,
    priors: Vec<f64>,
}

impl Templates {
    fn fit(train: &[(Vec<f64>, usize)], classes: usize, dims: usize) -> Templates {
        let mut means = vec![vec![0.0; dims]; classes];
        let mut counts = vec![0usize; classes];
        for (v, c) in train {
            counts[*c] += 1;
            for (m, x) in means[*c].iter_mut().zip(v) {
                *m += x;
            }
        }
        for (m, &n) in means.iter_mut().zip(&counts) {
            for x in m {
                *x /= n.max(1) as f64;
            }
        }
        let mut vars = vec![vec![0.0; dims]; classes];
        for (v, c) in train {
            for ((s, x), m) in vars[*c].iter_mut().zip(v).zip(&means[*c]) {
                *s += (x - m) * (x - m);
            }
        }
        for (s, &n) in vars.iter_mut().zip(&counts) {
            for x in s {
                // Variance floor keeps degenerate (constant) features from
                // producing infinite likelihoods.
                *x = (*x / (n.saturating_sub(1)).max(1) as f64).max(1e-6);
            }
        }
        let total: usize = counts.iter().sum();
        Templates {
            classes,
            means,
            vars,
            priors: counts
                .iter()
                .map(|&n| (n.max(1) as f64) / total.max(1) as f64)
                .collect(),
        }
    }

    fn classify(&self, v: &[f64]) -> usize {
        let mut best = 0usize;
        let mut best_ll = f64::NEG_INFINITY;
        for c in 0..self.classes {
            let mut ll = self.priors[c].ln();
            for ((x, m), s2) in v.iter().zip(&self.means[c]).zip(&self.vars[c]) {
                ll += -0.5 * ((x - m) * (x - m) / s2 + s2.ln());
            }
            if ll > best_ll {
                best_ll = ll;
                best = c;
            }
        }
        best
    }
}

/// LDA: class means + pooled covariance; classify by the linear
/// discriminant `δ_c(x) = μ_cᵀ Σ⁻¹ x − ½ μ_cᵀ Σ⁻¹ μ_c + ln π_c`.
struct LinearDiscriminant {
    classes: usize,
    /// Σ⁻¹ μ_c, one per class.
    weights: Vec<Vec<f64>>,
    /// −½ μ_cᵀ Σ⁻¹ μ_c + ln π_c per class.
    offsets: Vec<f64>,
}

impl LinearDiscriminant {
    fn fit(train: &[(Vec<f64>, usize)], classes: usize, dims: usize) -> LinearDiscriminant {
        // Class means and priors.
        let mut means = vec![vec![0.0f64; dims]; classes];
        let mut counts = vec![0usize; classes];
        for (v, c) in train {
            counts[*c] += 1;
            for (m, x) in means[*c].iter_mut().zip(v) {
                *m += x;
            }
        }
        for (m, &n) in means.iter_mut().zip(&counts) {
            for x in m {
                *x /= n.max(1) as f64;
            }
        }
        // Pooled covariance with ridge regularisation.
        let mut cov = vec![0.0f64; dims * dims];
        for (v, c) in train {
            for i in 0..dims {
                let di = v[i] - means[*c][i];
                for j in 0..dims {
                    cov[i * dims + j] += di * (v[j] - means[*c][j]);
                }
            }
        }
        let denom = train.len().saturating_sub(classes).max(1) as f64;
        for x in &mut cov {
            *x /= denom;
        }
        // Ridge: a fraction of the mean diagonal keeps Σ invertible even
        // with constant features.
        let trace: f64 = (0..dims).map(|i| cov[i * dims + i]).sum();
        let ridge = (trace / dims.max(1) as f64).max(1e-9) * 1e-3 + 1e-9;
        for i in 0..dims {
            cov[i * dims + i] += ridge;
        }
        let inv = invert(&cov, dims);

        let total: usize = counts.iter().sum();
        let mut weights = Vec::with_capacity(classes);
        let mut offsets = Vec::with_capacity(classes);
        for c in 0..classes {
            let w: Vec<f64> = (0..dims)
                .map(|i| (0..dims).map(|j| inv[i * dims + j] * means[c][j]).sum())
                .collect();
            let quad: f64 = w.iter().zip(&means[c]).map(|(wi, mi)| wi * mi).sum();
            let prior = (counts[c].max(1) as f64 / total.max(1) as f64).ln();
            offsets.push(-0.5 * quad + prior);
            weights.push(w);
        }
        LinearDiscriminant {
            classes,
            weights,
            offsets,
        }
    }

    fn classify(&self, v: &[f64]) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for c in 0..self.classes {
            let score: f64 = self.weights[c]
                .iter()
                .zip(v)
                .map(|(w, x)| w * x)
                .sum::<f64>()
                + self.offsets[c];
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        best
    }
}

/// Gauss–Jordan inverse of a small dense matrix (the feature count is at
/// most the event count, ≤ 12). Falls back to the identity for singular
/// inputs, which the ridge term prevents in practice.
fn invert(matrix: &[f64], n: usize) -> Vec<f64> {
    let mut a = matrix.to_vec();
    let mut inv = vec![0.0f64; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        for row in (col + 1)..n {
            if a[row * n + col].abs() > a[pivot * n + col].abs() {
                pivot = row;
            }
        }
        if a[pivot * n + col].abs() < 1e-30 {
            // Singular: bail out with identity.
            let mut eye = vec![0.0f64; n * n];
            for i in 0..n {
                eye[i * n + i] = 1.0;
            }
            return eye;
        }
        if pivot != col {
            for k in 0..n {
                a.swap(col * n + k, pivot * n + k);
                inv.swap(col * n + k, pivot * n + k);
            }
        }
        let d = a[col * n + col];
        for k in 0..n {
            a[col * n + k] /= d;
            inv[col * n + k] /= d;
        }
        for row in 0..n {
            if row != col {
                let factor = a[row * n + col];
                if factor != 0.0 {
                    for k in 0..n {
                        a[row * n + k] -= factor * a[col * n + k];
                        inv[row * n + k] -= factor * inv[col * n + k];
                    }
                }
            }
        }
    }
    inv
}

fn knn_classify(train: &[(Vec<f64>, usize)], v: &[f64], k: usize, classes: usize) -> usize {
    let mut dists: Vec<(f64, usize)> = train
        .iter()
        .map(|(t, c)| {
            let d: f64 = t.iter().zip(v).map(|(a, b)| (a - b) * (a - b)).sum();
            (d, *c)
        })
        .collect();
    // total_cmp: a NaN distance (one corrupt counter reading) sorts last
    // instead of panicking, so it merely loses the vote.
    dists.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut votes = vec![0usize; classes];
    // k ≥ 1 is guaranteed by AttackConfig::validate.
    for &(_, c) in dists.iter().take(k) {
        votes[c] += 1;
    }
    votes
        .iter()
        .enumerate()
        .max_by_key(|(_, &v)| v)
        .map(|(c, _)| c)
        .unwrap_or(0)
}

/// Per-dimension `(mean, std)` of the train split — the normalisation
/// distance-based classification needs across events of wildly different
/// magnitudes. The statistics come from the train split only, so they
/// can be replayed onto held-out or future traces.
fn zscore_stats(train: &[(Vec<f64>, usize)]) -> Vec<(f64, f64)> {
    if train.is_empty() {
        return Vec::new();
    }
    let dims = train[0].0.len();
    let n = train.len() as f64;
    (0..dims)
        .map(|d| {
            let mean = train.iter().map(|(v, _)| v[d]).sum::<f64>() / n;
            let var = train
                .iter()
                .map(|(v, _)| (v[d] - mean).powi(2))
                .sum::<f64>()
                / n;
            (mean, var.sqrt().max(1e-9))
        })
        .collect()
}

/// Normalises one feature vector in place with [`zscore_stats`] output.
fn apply_norms(v: &mut [f64], norms: &[(f64, f64)]) {
    for (x, (mean, std)) in v.iter_mut().zip(norms) {
        *x = (*x - mean) / std;
    }
}

/// Mounts the profiling attack on collected observations.
///
/// # Errors
///
/// Returns [`AttackError`] on degenerate inputs.
///
/// # Examples
///
/// ```
/// use scnn_core::attack::{mount_attack, AttackConfig};
/// use scnn_core::collect::CategoryObservations;
/// use scnn_hpc::HpcEvent;
/// use std::collections::BTreeMap;
///
/// # fn main() -> Result<(), scnn_core::attack::AttackError> {
/// // Two categories whose cache-miss counts barely overlap.
/// let obs: Vec<CategoryObservations> = (0..2)
///     .map(|c| {
///         let mut per_event = BTreeMap::new();
///         per_event.insert(
///             HpcEvent::CacheMisses,
///             (0..40).map(|i| (c * 100) as f64 + (i % 5) as f64).collect(),
///         );
///         CategoryObservations { category: c, per_event, predictions: vec![c; 40] }
///     })
///     .collect();
/// let outcome = mount_attack(&obs, &AttackConfig::default())?;
/// assert!(outcome.accuracy > 0.9);
/// # Ok(())
/// # }
/// ```
pub fn mount_attack(
    observations: &[CategoryObservations],
    config: &AttackConfig,
) -> Result<AttackOutcome, AttackError> {
    let mut adversary = ClassifierAdversary::new(*config);
    adversary.fit_and_score(observations)?;
    Ok(adversary
        .outcome
        .take()
        .expect("fit_and_score populates the outcome"))
}

/// The profiled classifier an adversary carries between `profile` and
/// `attack`: the fitted model plus the train-split normalisation needed
/// to replay it onto new traces.
struct FittedClassifier {
    classes: usize,
    features: Vec<HpcEvent>,
    /// `(mean, std)` per feature for distance/discriminant models;
    /// `None` for the raw-feature Gaussian template.
    norms: Option<Vec<(f64, f64)>>,
    kind: FittedKind,
}

enum FittedKind {
    Template(Templates),
    Lda(LinearDiscriminant),
    Knn {
        train: Vec<(Vec<f64>, usize)>,
        k: usize,
    },
}

impl FittedClassifier {
    /// Labels one raw (un-normalised) feature vector.
    fn classify(&self, trace: &[f64]) -> usize {
        let mut v = trace.to_vec();
        if let Some(norms) = &self.norms {
            apply_norms(&mut v, norms);
        }
        match &self.kind {
            FittedKind::Template(t) => t.classify(&v),
            FittedKind::Lda(l) => l.classify(&v),
            FittedKind::Knn { train, k } => knn_classify(train, &v, *k, self.classes),
        }
    }
}

/// The input-category recovery adversary, restructured behind the
/// [`Adversary`] trait: [`profile`](Adversary::profile) splits the
/// corpus, fits the configured classifier on the profiling half and
/// scores the held-out half into an [`AttackOutcome`];
/// [`attack`](Adversary::attack) then labels any raw feature vector (one
/// value per [`AttackOutcome::features`] event). [`mount_attack`] is a
/// thin wrapper over this type.
pub struct ClassifierAdversary {
    config: AttackConfig,
    model: Option<FittedClassifier>,
    outcome: Option<AttackOutcome>,
}

impl ClassifierAdversary {
    /// Creates an adversary with the given parameters; nothing is
    /// validated or fitted until [`profile`](Adversary::profile).
    pub fn new(config: AttackConfig) -> Self {
        ClassifierAdversary {
            config,
            model: None,
            outcome: None,
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// Validates, splits, fits and scores — the `AttackError`-typed core
    /// shared by [`mount_attack`] and the trait's `profile`.
    fn fit_and_score(&mut self, observations: &[CategoryObservations]) -> Result<(), AttackError> {
        self.config.validate()?;
        let mut vectors = split_vectors(observations, &self.config)?;
        let classes = observations.len();
        let dims = vectors.features.len();

        let norms = match self.config.classifier {
            AttackClassifier::GaussianTemplate => None,
            AttackClassifier::Lda | AttackClassifier::Knn { .. } => {
                let stats = zscore_stats(&vectors.train);
                for (v, _) in vectors.train.iter_mut() {
                    apply_norms(v, &stats);
                }
                Some(stats)
            }
        };
        let kind = match self.config.classifier {
            AttackClassifier::GaussianTemplate => {
                FittedKind::Template(Templates::fit(&vectors.train, classes, dims))
            }
            AttackClassifier::Lda => {
                FittedKind::Lda(LinearDiscriminant::fit(&vectors.train, classes, dims))
            }
            AttackClassifier::Knn { k } => FittedKind::Knn {
                train: std::mem::take(&mut vectors.train),
                k,
            },
        };
        let fitted = FittedClassifier {
            classes,
            features: vectors.features.clone(),
            norms,
            kind,
        };

        let mut confusion = vec![vec![0usize; classes]; classes];
        let mut correct = 0usize;
        for (v, truth) in &vectors.test {
            let guess = fitted.classify(v);
            confusion[*truth][guess] += 1;
            if guess == *truth {
                correct += 1;
            }
        }
        let test_count = vectors.test.len();
        self.outcome = Some(AttackOutcome {
            accuracy: correct as f64 / test_count.max(1) as f64,
            confusion,
            test_count,
            features: vectors.features,
            classifier: self.config.classifier,
        });
        self.model = Some(fitted);
        Ok(())
    }
}

impl Adversary for ClassifierAdversary {
    type Corpus = [CategoryObservations];
    type Trace = [f64];
    type Verdict = usize;
    type Report = AttackOutcome;

    fn profile(&mut self, corpus: &[CategoryObservations]) -> Result<(), CoreError> {
        self.fit_and_score(corpus)?;
        Ok(())
    }

    fn attack(&self, trace: &[f64]) -> Result<usize, CoreError> {
        let model = self.model.as_ref().ok_or(AttackError::NotProfiled)?;
        if trace.len() != model.features.len() {
            return Err(AttackError::TraceShape {
                expected: model.features.len(),
                got: trace.len(),
            }
            .into());
        }
        Ok(model.classify(trace))
    }

    fn report(&self) -> Option<&AttackOutcome> {
        self.outcome.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn obs_with_separation(delta: f64, n: usize) -> Vec<CategoryObservations> {
        (0..4)
            .map(|c| {
                let mut per_event = BTreeMap::new();
                per_event.insert(
                    HpcEvent::CacheMisses,
                    (0..n)
                        .map(|i| 1000.0 + c as f64 * delta + ((i * 13) % 17) as f64)
                        .collect(),
                );
                per_event.insert(
                    HpcEvent::Branches,
                    (0..n).map(|i| 50_000.0 + ((i * 7) % 23) as f64).collect(),
                );
                CategoryObservations {
                    category: c,
                    per_event,
                    predictions: vec![c; n],
                }
            })
            .collect()
    }

    #[test]
    fn template_attack_recovers_separated_categories() {
        let obs = obs_with_separation(100.0, 60);
        let out = mount_attack(&obs, &AttackConfig::default()).unwrap();
        assert!(out.accuracy > 0.9, "accuracy {}", out.accuracy);
        assert!(out.beats_chance_by(0.5));
        assert_eq!(out.confusion.len(), 4);
        assert_eq!(out.test_count, 4 * 30);
    }

    #[test]
    fn attack_fails_on_overlapping_categories() {
        let obs = obs_with_separation(0.0, 60);
        let out = mount_attack(&obs, &AttackConfig::default()).unwrap();
        assert!(
            out.accuracy < 0.5,
            "identical distributions should be unguessable: {}",
            out.accuracy
        );
    }

    #[test]
    fn lda_recovers_separated_categories() {
        let obs = obs_with_separation(100.0, 60);
        let out = mount_attack(
            &obs,
            &AttackConfig {
                classifier: AttackClassifier::Lda,
                ..AttackConfig::default()
            },
        )
        .unwrap();
        assert!(out.accuracy > 0.9, "accuracy {}", out.accuracy);
    }

    #[test]
    fn lda_exploits_correlated_features() {
        // Classes separated only along the *difference* of two strongly
        // correlated features: diagonal templates struggle, LDA nails it.
        let n = 80;
        let obs: Vec<CategoryObservations> = (0..2)
            .map(|c| {
                let mut per_event = BTreeMap::new();
                let common: Vec<f64> = (0..n).map(|i| ((i * 17) % 101) as f64 * 10.0).collect();
                per_event.insert(
                    HpcEvent::CacheMisses,
                    common.iter().map(|&x| x + c as f64 * 40.0).collect(),
                );
                per_event.insert(HpcEvent::Cycles, common.clone());
                CategoryObservations {
                    category: c,
                    per_event,
                    predictions: vec![c; n],
                }
            })
            .collect();
        let lda = mount_attack(
            &obs,
            &AttackConfig {
                classifier: AttackClassifier::Lda,
                ..AttackConfig::default()
            },
        )
        .unwrap();
        let diag = mount_attack(&obs, &AttackConfig::default()).unwrap();
        assert!(lda.accuracy > 0.95, "LDA accuracy {}", lda.accuracy);
        assert!(
            lda.accuracy >= diag.accuracy,
            "LDA ({}) must dominate the diagonal template ({}) here",
            lda.accuracy,
            diag.accuracy
        );
    }

    #[test]
    fn nan_observation_does_not_abort_the_attack() {
        // One corrupt counter reading in each classifier's path: the
        // attack must return an outcome (possibly degraded), never panic.
        let mut obs = obs_with_separation(100.0, 60);
        obs[1].per_event.get_mut(&HpcEvent::CacheMisses).unwrap()[3] = f64::NAN;
        for classifier in [
            AttackClassifier::GaussianTemplate,
            AttackClassifier::Lda,
            AttackClassifier::Knn { k: 5 },
        ] {
            let out = mount_attack(
                &obs,
                &AttackConfig {
                    classifier,
                    ..AttackConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.confusion.len(), 4, "{classifier:?}");
        }
    }

    #[test]
    fn matrix_inverse_roundtrip() {
        let m = vec![4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 2.0];
        let inv = invert(&m, 3);
        // M · M⁻¹ ≈ I
        for i in 0..3 {
            for j in 0..3 {
                let v: f64 = (0..3).map(|k| m[i * 3 + k] * inv[k * 3 + j]).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((v - expect).abs() < 1e-9, "({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn knn_also_works() {
        let obs = obs_with_separation(100.0, 60);
        let out = mount_attack(
            &obs,
            &AttackConfig {
                classifier: AttackClassifier::Knn { k: 5 },
                ..AttackConfig::default()
            },
        )
        .unwrap();
        assert!(out.accuracy > 0.9, "accuracy {}", out.accuracy);
    }

    #[test]
    fn accuracy_grows_with_separation() {
        let acc = |delta| {
            mount_attack(&obs_with_separation(delta, 60), &AttackConfig::default())
                .unwrap()
                .accuracy
        };
        assert!(acc(200.0) >= acc(8.0));
    }

    #[test]
    fn errors_on_degenerate_input() {
        assert!(matches!(
            mount_attack(&obs_with_separation(1.0, 60)[..1], &AttackConfig::default()),
            Err(AttackError::TooFewCategories)
        ));
        assert!(matches!(
            mount_attack(&obs_with_separation(1.0, 1), &AttackConfig::default()),
            Err(AttackError::TooFewMeasurements { .. })
        ));
    }

    #[test]
    fn display_mentions_chance() {
        let out = mount_attack(&obs_with_separation(100.0, 40), &AttackConfig::default()).unwrap();
        let text = out.to_string();
        assert!(text.contains("chance 25.0%"));
        assert!(text.contains("confusion"));
    }

    #[test]
    fn confusion_rows_sum_to_test_counts() {
        let out = mount_attack(&obs_with_separation(50.0, 40), &AttackConfig::default()).unwrap();
        let total: usize = out.confusion.iter().flatten().sum();
        assert_eq!(total, out.test_count);
    }

    #[test]
    fn builder_chain_matches_direct_mutation() {
        let built = AttackConfig::default()
            .classifier(AttackClassifier::Knn { k: 3 })
            .profile_fraction(0.7)
            .seed(9);
        let direct = AttackConfig {
            classifier: AttackClassifier::Knn { k: 3 },
            profile_fraction: 0.7,
            seed: 9,
        };
        assert_eq!(built, direct);
    }

    #[test]
    fn validate_rejects_zero_neighbourhood() {
        let config = AttackConfig::default().classifier(AttackClassifier::Knn { k: 0 });
        assert_eq!(config.validate(), Err(AttackError::ZeroNeighbourhood));
        assert_eq!(
            mount_attack(&obs_with_separation(100.0, 60), &config),
            Err(AttackError::ZeroNeighbourhood)
        );
        assert!(config
            .classifier(AttackClassifier::Knn { k: 1 })
            .validate()
            .is_ok());
    }

    #[test]
    fn validate_rejects_out_of_range_profile_fractions() {
        for bad in [0.0, 1.0, -0.25, 1.5, f64::NAN, f64::INFINITY] {
            let config = AttackConfig::default().profile_fraction(bad);
            assert!(
                matches!(
                    config.validate(),
                    Err(AttackError::InvalidProfileFraction { .. })
                ),
                "fraction {bad} must be rejected"
            );
            assert!(
                mount_attack(&obs_with_separation(100.0, 60), &config).is_err(),
                "mount_attack must refuse fraction {bad}"
            );
        }
        assert!(AttackConfig::default()
            .profile_fraction(0.25)
            .validate()
            .is_ok());
    }

    #[test]
    fn validation_error_converts_to_unified_error() {
        let err: crate::Error = AttackConfig::default()
            .classifier(AttackClassifier::Knn { k: 0 })
            .validate()
            .unwrap_err()
            .into();
        assert!(err.to_string().contains("k-NN"), "{err}");
    }

    #[test]
    fn adversary_profiles_then_attacks_fresh_traces() {
        let obs = obs_with_separation(100.0, 60);
        let mut adversary = ClassifierAdversary::new(AttackConfig::default());
        adversary.profile(&obs).unwrap();
        let report = Adversary::report(&adversary).expect("profile populates the report");
        assert!(report.accuracy > 0.9, "accuracy {}", report.accuracy);

        // A fresh trace near category 3's template: the feature order is
        // the BTreeMap event order reported in `features`.
        assert_eq!(
            report.features,
            vec![HpcEvent::Branches, HpcEvent::CacheMisses]
        );
        let verdict = adversary
            .attack(&[50_011.0, 1000.0 + 3.0 * 100.0 + 8.0])
            .unwrap();
        assert_eq!(verdict, 3);
    }

    #[test]
    fn adversary_refuses_attacks_before_profiling_and_bad_shapes() {
        let adversary = ClassifierAdversary::new(AttackConfig::default());
        assert!(adversary.attack(&[1.0, 2.0]).is_err());
        assert!(Adversary::report(&adversary).is_none());

        let mut adversary = ClassifierAdversary::new(AttackConfig::default());
        adversary
            .profile(&obs_with_separation(100.0, 60)[..])
            .unwrap();
        let err = adversary.attack(&[1.0]).unwrap_err();
        assert!(err.to_string().contains("features"), "{err}");
    }

    #[test]
    fn mount_attack_matches_the_adversary_report() {
        for classifier in [
            AttackClassifier::GaussianTemplate,
            AttackClassifier::Lda,
            AttackClassifier::Knn { k: 5 },
        ] {
            let obs = obs_with_separation(60.0, 50);
            let config = AttackConfig::default().classifier(classifier);
            let direct = mount_attack(&obs, &config).unwrap();
            let mut adversary = ClassifierAdversary::new(config);
            adversary.profile(&obs[..]).unwrap();
            assert_eq!(
                &direct,
                Adversary::report(&adversary).unwrap(),
                "{classifier:?}"
            );
        }
    }

    #[test]
    fn outcome_json_parses_back() {
        let out = mount_attack(
            &obs_with_separation(100.0, 40),
            &AttackConfig::default().classifier(AttackClassifier::Knn { k: 5 }),
        )
        .unwrap();
        let v = crate::json::parse(&out.to_json()).expect("outcome JSON must parse");
        assert_eq!(
            v.get("classifier").and_then(crate::json::Value::as_str),
            Some("knn:5")
        );
        assert_eq!(
            v.get("accuracy").and_then(crate::json::Value::as_f64),
            Some(out.accuracy)
        );
        assert_eq!(
            v.get("confusion")
                .and_then(crate::json::Value::as_array)
                .map(<[crate::json::Value]>::len),
            Some(4)
        );
    }

    #[test]
    fn classifier_flag_round_trips() {
        assert_eq!(
            AttackClassifier::parse_flag("gaussian"),
            Some(AttackClassifier::GaussianTemplate)
        );
        assert_eq!(
            AttackClassifier::parse_flag("lda"),
            Some(AttackClassifier::Lda)
        );
        assert_eq!(
            AttackClassifier::parse_flag("knn"),
            Some(AttackClassifier::Knn { k: 5 })
        );
        assert_eq!(
            AttackClassifier::parse_flag("knn:7"),
            Some(AttackClassifier::Knn { k: 7 })
        );
        assert_eq!(AttackClassifier::parse_flag("forest"), None);
        assert_eq!(AttackClassifier::parse_flag("knn:x"), None);
        for c in [
            AttackClassifier::GaussianTemplate,
            AttackClassifier::Lda,
            AttackClassifier::Knn { k: 9 },
        ] {
            assert_eq!(AttackClassifier::parse_flag(&c.label()), Some(c));
        }
    }
}
