//! Architecture-extraction adversary — reverse engineering the *model*
//! instead of the *input*.
//!
//! The paper's evaluator asks whether HPC footprints leak which input a
//! CNN classified. This module asks the stronger reverse-engineering
//! question its title implies: can an adversary who samples per-layer
//! counter windows reconstruct the **architecture** — depth, layer
//! kinds, dimensions, activation flavour — of a victim network it has
//! never seen?
//!
//! The attack rests on the window protocol of
//! [`SimulatedPmu::measure_layers`]: every traced inference reports a
//! boundary at each layer entry, so one inference yields one counter
//! window per layer. Each traced kernel's footprint is an exact
//! arithmetic function of its dimensions (DESIGN.md §15), and those
//! functions are *invertible*:
//!
//! - **dense** (`in → out`, `nnz` non-zero activations):
//!   `loads = out + in + 2·nnz·out`, `stores = out + nnz·out`, so
//!   `in = loads + out − 2·stores` and `nnz = (stores − out)/out`; a
//!   1-D search over `out` checks the branch/ALU predictions.
//! - **conv** (`C·H·W` input, `out_len` outputs, `M` contributions,
//!   `F` filters): `out_len = alu − loads`,
//!   `CHW = (branches − out_len − 2)/2`, `M = (loads − CHW)/2`,
//!   `F = 2M/(stores − out_len − M)` — a closed-form inversion.
//! - **pool**: `loads/stores = k²`; **relu**: `loads ≈ stores` with the
//!   branch rate telling branchy from branchless; **flatten** retires
//!   nothing.
//!
//! Medians across samples (not means) make the features robust to the
//! simulator's rare interrupt spikes. The [`Extractor`] implements the
//! same [`Adversary`] contract as the input-recovery
//! [`ClassifierAdversary`](crate::attack::ClassifierAdversary):
//! `profile` a corpus, `attack` unseen traces, `report` the result.
//!
//! [`run_extract`] is the campaign driver behind `repro extract`: it
//! measures the victim unprotected and under each
//! [`Countermeasure`], scores every hypothesis against the true layer
//! stack, and tabulates how recovery accuracy degrades — the
//! architecture-extraction analogue of the paper's Table 2 ablation.
//!
//! [`SimulatedPmu::measure_layers`]: scnn_hpc::SimulatedPmu::measure_layers

use crate::artifact;
use crate::attack::{Adversary, AttackError};
use crate::campaign::{map_arms, profile_split, Campaign, TrainedModel};
use crate::collect::{category_seed, TracedClassifier};
use crate::countermeasure::{Countermeasure, ProtectedModel};
use crate::error::Error;
use crate::json::{number, ratio, section, text, ObjectWriter, ToJson, Value};
use crate::pipeline::ExperimentConfig;
use scnn_cache::ArtifactCache;
use scnn_data::Dataset;
use scnn_hpc::SimulatedPmu;
use scnn_nn::spec::LayerSpec;
use scnn_nn::{Network, ReluStyle};
use scnn_par::Threads;
use scnn_tensor::Shape;
use scnn_uarch::CounterSnapshot;

/// The four architectural counters one layer window is reduced to.
///
/// ALU work is derived, not measured directly: the simulated core
/// retires exactly `loads + stores + branches + alu` instructions, so
/// the residue of the instruction counter is the ALU stream.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerWindow {
    /// Retired loads in the window.
    pub loads: f64,
    /// Retired stores in the window.
    pub stores: f64,
    /// Retired branches in the window.
    pub branches: f64,
    /// Retired ALU instructions (instructions minus the other three).
    pub alu: f64,
}

impl LayerWindow {
    /// Reduces one raw counter window to its architectural features.
    pub fn from_snapshot(snap: &CounterSnapshot) -> LayerWindow {
        let mem = snap.loads + snap.stores + snap.branches;
        LayerWindow {
            loads: snap.loads as f64,
            stores: snap.stores as f64,
            branches: snap.branches as f64,
            alu: snap.instructions.saturating_sub(mem) as f64,
        }
    }

    fn total(&self) -> f64 {
        self.loads + self.stores + self.branches + self.alu
    }
}

/// One traced inference: the per-layer counter windows of a single
/// classification (the pre-layer input-staging window already stripped).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InferenceTrace {
    /// Window `i` covers layer `i` of the victim.
    pub windows: Vec<LayerWindow>,
}

/// A corpus of traced inferences of one victim under one measurement
/// environment — the extraction adversary's profiling material.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceCorpus {
    /// The traces, in collection order.
    pub traces: Vec<InferenceTrace>,
}

impl TraceCorpus {
    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when the corpus holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// The corpus restricted to its first `n` traces.
    pub fn prefix(&self, n: usize) -> TraceCorpus {
        TraceCorpus {
            traces: self.traces[..n.min(self.traces.len())].to_vec(),
        }
    }

    /// Per-layer median windows across the corpus.
    ///
    /// The depth is the *modal* window count (ties break toward the
    /// shallower depth), so a stray truncated trace cannot change the
    /// recovered architecture; medians (not means) null the simulator's
    /// rare interrupt spikes.
    pub fn median_windows(&self) -> Vec<LayerWindow> {
        let mut counts: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        for t in &self.traces {
            *counts.entry(t.windows.len()).or_insert(0) += 1;
        }
        let depth = counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(&len, _)| len)
            .unwrap_or(0);
        let mut out = Vec::with_capacity(depth);
        for w in 0..depth {
            let mut loads = Vec::new();
            let mut stores = Vec::new();
            let mut branches = Vec::new();
            let mut alu = Vec::new();
            for t in self.traces.iter().filter(|t| t.windows.len() == depth) {
                loads.push(t.windows[w].loads);
                stores.push(t.windows[w].stores);
                branches.push(t.windows[w].branches);
                alu.push(t.windows[w].alu);
            }
            out.push(LayerWindow {
                loads: median(&mut loads),
                stores: median(&mut stores),
                branches: median(&mut branches),
                alu: median(&mut alu),
            });
        }
        out
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The layer families the extractor can recognise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// 2-D convolution.
    Conv,
    /// ReLU activation.
    Relu,
    /// Max pooling.
    Pool,
    /// Flatten (retires nothing).
    Flatten,
    /// Fully-connected layer.
    Dense,
    /// Softmax.
    Softmax,
    /// No kernel signature matched.
    Unknown,
}

impl LayerKind {
    /// Lower-case slug for tables and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            LayerKind::Conv => "conv",
            LayerKind::Relu => "relu",
            LayerKind::Pool => "pool",
            LayerKind::Flatten => "flatten",
            LayerKind::Dense => "dense",
            LayerKind::Softmax => "softmax",
            LayerKind::Unknown => "unknown",
        }
    }
}

/// The extractor's reconstruction of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerHypothesis {
    /// Recovered layer family.
    pub kind: LayerKind,
    /// Recovered output size (0 when the kind carries no dimension).
    pub dim: usize,
    /// Recovered input size, when the kernel's inversion yields one.
    pub fan_in: Option<usize>,
    /// Recovered filter count (conv only).
    pub filters: Option<usize>,
    /// Branchy (`true`) vs branchless (`false`) activation (relu only).
    pub branchy: Option<bool>,
    /// Recovered pooling window (pool only).
    pub pool_k: Option<usize>,
}

impl LayerHypothesis {
    fn bare(kind: LayerKind, dim: usize) -> LayerHypothesis {
        LayerHypothesis {
            kind,
            dim,
            fan_in: None,
            filters: None,
            branchy: None,
            pool_k: None,
        }
    }
}

impl ToJson for LayerHypothesis {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("kind", self.kind.name())
            .field("dim", &self.dim)
            .field("fan_in", &self.fan_in)
            .field("filters", &self.filters)
            .field("branchy", &self.branchy)
            .field("pool_k", &self.pool_k);
        obj.finish();
    }
}

/// The extractor's reconstruction of the whole victim.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArchitectureHypothesis {
    /// One hypothesis per recovered layer, input to output.
    pub layers: Vec<LayerHypothesis>,
}

impl ArchitectureHypothesis {
    /// Recovered depth.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// The recovered layer-kind sequence.
    pub fn kinds(&self) -> Vec<LayerKind> {
        self.layers.iter().map(|l| l.kind).collect()
    }

    /// One-line rendering, e.g. `conv[400] → relu[400] → pool[100]`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .layers
            .iter()
            .map(|l| {
                if l.dim > 0 {
                    format!("{}[{}]", l.kind.name(), l.dim)
                } else {
                    l.kind.name().to_owned()
                }
            })
            .collect();
        parts.join(" → ")
    }
}

impl ToJson for ArchitectureHypothesis {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("depth", &self.depth())
            .field("layers", &self.layers);
        obj.finish();
    }
}

/// Ground truth for one victim layer, read off the real
/// [`LayerSpec`] stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerTruth {
    /// True layer family.
    pub kind: LayerKind,
    /// True output size (elements).
    pub dim: usize,
    /// True activation flavour (relu only).
    pub branchy: Option<bool>,
    /// True pooling window (pool only).
    pub pool_k: Option<usize>,
}

impl ToJson for LayerTruth {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("kind", self.kind.name())
            .field("dim", &self.dim)
            .field("branchy", &self.branchy)
            .field("pool_k", &self.pool_k);
        obj.finish();
    }
}

/// Reads the true architecture off a live network: per layer, the kind,
/// the output element count for an `input`-shaped image, and the
/// leak-relevant styles.
///
/// # Errors
///
/// Returns [`Error::Nn`] when `input` is incompatible with the network.
pub fn ground_truth(net: &Network, input: &Shape) -> Result<Vec<LayerTruth>, Error> {
    let mut shape = input.clone();
    let mut out = Vec::with_capacity(net.layers().len());
    for layer in net.layers() {
        shape = layer.output_shape(&shape)?;
        let (kind, branchy, pool_k) = match layer.spec() {
            LayerSpec::Conv2d { .. } => (LayerKind::Conv, None, None),
            LayerSpec::Relu { style, .. } => {
                (LayerKind::Relu, Some(style == ReluStyle::Branchy), None)
            }
            LayerSpec::MaxPool2d { k } => (LayerKind::Pool, None, Some(k)),
            LayerSpec::Flatten => (LayerKind::Flatten, None, None),
            LayerSpec::Dense { .. } => (LayerKind::Dense, None, None),
            LayerSpec::Softmax => (LayerKind::Softmax, None, None),
        };
        out.push(LayerTruth {
            kind,
            dim: shape.len(),
            branchy,
            pool_k,
        });
    }
    Ok(out)
}

/// Worst residual (relative branch + ALU misprediction) a dense/conv
/// fit may carry and still name the kind. Noise-free windows fit below
/// 1%; the threshold only has to reject kernels that are *not* the
/// fitted kind, whose residuals sit near 1.
const MAX_FIT_RESIDUAL: f64 = 0.5;

#[derive(Debug, Clone, Copy)]
struct DenseFit {
    input: usize,
    output: usize,
    residual: f64,
}

/// Inverts the dense kernel's footprint. `loads` and `stores` pin
/// `(in, nnz)` for every candidate `out`; the candidate whose predicted
/// branch and ALU counts match best wins.
fn fit_dense(w: &LayerWindow) -> Option<DenseFit> {
    if w.stores < 2.0 {
        return None;
    }
    let max_out = (w.stores.min(65_536.0)) as usize;
    let mut best: Option<DenseFit> = None;
    for out in 1..=max_out {
        let outf = out as f64;
        let input = w.loads + outf - 2.0 * w.stores;
        if input < 0.5 {
            continue;
        }
        let nnz = (w.stores - outf) / outf;
        if nnz < -0.01 {
            continue;
        }
        let lanes = out.div_ceil(8) as f64;
        let b_pred = outf + 2.0 * input + 2.0 + nnz * (lanes + 1.0);
        let a_pred = outf + input + nnz * (2.0 * outf + lanes);
        let residual = (w.branches - b_pred).abs() / w.branches.max(1.0)
            + (w.alu - a_pred).abs() / w.alu.max(1.0);
        if best.is_none_or(|f| residual < f.residual) {
            best = Some(DenseFit {
                input: input.round() as usize,
                output: out,
                residual,
            });
        }
    }
    best
}

#[derive(Debug, Clone, Copy)]
struct ConvFit {
    output: usize,
    input: usize,
    filters: usize,
    residual: f64,
}

/// Inverts the conv kernel's footprint in closed form; `None` when any
/// intermediate goes non-positive (dense windows do, reliably).
fn fit_conv(w: &LayerWindow) -> Option<ConvFit> {
    let out_len = w.alu - w.loads;
    if out_len < 0.5 {
        return None;
    }
    let chw = (w.branches - out_len - 2.0) / 2.0;
    if chw < 0.5 {
        return None;
    }
    let m = (w.loads - chw) / 2.0;
    if m < 0.5 {
        return None;
    }
    let denom = w.stores - out_len - m;
    if denom < 0.5 {
        return None;
    }
    let filters = 2.0 * m / denom;
    if filters < 0.5 {
        return None;
    }
    let f_round = filters.round().max(1.0);
    let s_pred = out_len + m + 2.0 * m / f_round;
    let residual = (w.stores - s_pred).abs() / w.stores.max(1.0)
        + (filters - f_round).abs() / filters.max(1.0);
    Some(ConvFit {
        output: out_len.round() as usize,
        input: chw.round() as usize,
        filters: f_round as usize,
        residual,
    })
}

/// Names one layer window: cheap ratio tests dispatch the
/// constant-shape kernels (flatten, pool, relu, softmax), then the
/// dense and conv inversions compete on residual.
pub fn classify_window(w: &LayerWindow) -> LayerHypothesis {
    if w.total() < 8.0 {
        return LayerHypothesis::bare(LayerKind::Flatten, 0);
    }
    let s = w.stores.max(1.0);
    let ls = w.loads / s;
    let bs = w.branches / s;
    let al = w.alu / s;
    // Pool: k² loads and branches per output, one store and one ALU op
    // per output. The alu/store and branch/load shape guards keep
    // noise-inflated windows (high load/store ratio, but no pooling
    // signature) from landing here.
    if ls >= 3.0 && al <= 1.5 && (bs - ls).abs() / ls <= 0.2 {
        let k = ls.sqrt().round().max(1.0) as usize;
        let mut h = LayerHypothesis::bare(LayerKind::Pool, w.stores.round() as usize);
        h.pool_k = Some(k);
        return h;
    }
    if (ls - 1.0).abs() <= 0.2 && al <= 2.6 {
        let mut h = LayerHypothesis::bare(LayerKind::Relu, w.stores.round() as usize);
        h.branchy = Some(bs >= 1.5);
        return h;
    }
    if (ls - 1.5).abs() <= 0.2 && (bs - 1.5).abs() <= 0.3 && (3.0..=4.0).contains(&al) {
        return LayerHypothesis::bare(LayerKind::Softmax, (w.stores / 2.0).round() as usize);
    }
    let dense = fit_dense(w).filter(|f| f.residual <= MAX_FIT_RESIDUAL);
    let conv = fit_conv(w).filter(|f| f.residual <= MAX_FIT_RESIDUAL);
    match (dense, conv) {
        (Some(d), Some(c)) if d.residual <= c.residual => dense_hypothesis(d),
        (_, Some(c)) => conv_hypothesis(c),
        (Some(d), None) => dense_hypothesis(d),
        (None, None) => LayerHypothesis::bare(LayerKind::Unknown, 0),
    }
}

fn dense_hypothesis(f: DenseFit) -> LayerHypothesis {
    let mut h = LayerHypothesis::bare(LayerKind::Dense, f.output);
    h.fan_in = Some(f.input);
    h
}

fn conv_hypothesis(f: ConvFit) -> LayerHypothesis {
    let mut h = LayerHypothesis::bare(LayerKind::Conv, f.output);
    h.fan_in = Some(f.input);
    h.filters = Some(f.filters);
    h
}

/// The architecture-extraction adversary.
///
/// [`profile`](Adversary::profile) reduces a [`TraceCorpus`] to
/// per-layer median windows and names each one;
/// [`attack`](Adversary::attack) names the layers of a single unseen
/// trace (noisier — useful to check how stable the profiled hypothesis
/// is); [`report`](Adversary::report) returns the profiled
/// [`ArchitectureHypothesis`].
#[derive(Debug, Clone, Default)]
pub struct Extractor {
    hypothesis: Option<ArchitectureHypothesis>,
}

impl Extractor {
    /// A fresh, unprofiled extractor.
    pub fn new() -> Extractor {
        Extractor::default()
    }
}

impl Adversary for Extractor {
    type Corpus = TraceCorpus;
    type Trace = InferenceTrace;
    type Verdict = ArchitectureHypothesis;
    type Report = ArchitectureHypothesis;

    fn profile(&mut self, corpus: &TraceCorpus) -> Result<(), Error> {
        if corpus.is_empty() {
            return Err(Error::msg("cannot profile an empty trace corpus"));
        }
        let layers = corpus
            .median_windows()
            .iter()
            .map(classify_window)
            .collect();
        self.hypothesis = Some(ArchitectureHypothesis { layers });
        Ok(())
    }

    fn attack(&self, trace: &InferenceTrace) -> Result<ArchitectureHypothesis, Error> {
        if self.hypothesis.is_none() {
            return Err(AttackError::NotProfiled.into());
        }
        Ok(ArchitectureHypothesis {
            layers: trace.windows.iter().map(classify_window).collect(),
        })
    }

    fn report(&self) -> Option<&ArchitectureHypothesis> {
        self.hypothesis.as_ref()
    }
}

/// How well a hypothesis matches the truth, per field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryScore {
    /// True depth.
    pub depth_truth: usize,
    /// Recovered depth.
    pub depth_recovered: usize,
    /// Correct layer kinds over recovered layers.
    pub kind_precision: f64,
    /// Correct layer kinds over true layers.
    pub kind_recall: f64,
    /// Aligned non-flatten layers whose recovered size is within ±25%.
    pub dim_accuracy: f64,
    /// True relu layers whose flavour (branchy/branchless) was
    /// recovered.
    pub activation_accuracy: f64,
    /// Weighted aggregate in `[0, 1]`.
    pub overall: f64,
}

impl ToJson for RecoveryScore {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("depth_truth", &self.depth_truth)
            .field("depth_recovered", &self.depth_recovered)
            .field("kind_precision", &self.kind_precision)
            .field("kind_recall", &self.kind_recall)
            .field("dim_accuracy", &self.dim_accuracy)
            .field("activation_accuracy", &self.activation_accuracy)
            .field("overall", &self.overall);
        obj.finish();
    }
}

/// Scores `hypothesis` against the true layer stack.
///
/// Kinds are scored as precision (over recovered layers) and recall
/// (over true layers); dimensions count as recovered when within ±25%
/// of the truth (flatten layers, which carry no work, are exempt);
/// activation accuracy is over true relu layers only. The overall
/// score weighs depth 0.25, kind precision 0.35, dimensions 0.2 and
/// activations 0.2.
pub fn score(hypothesis: &ArchitectureHypothesis, truth: &[LayerTruth]) -> RecoveryScore {
    let depth_truth = truth.len();
    let depth_recovered = hypothesis.depth();
    let aligned = depth_truth.min(depth_recovered);

    let mut kind_correct = 0usize;
    let mut dim_considered = 0usize;
    let mut dim_correct = 0usize;
    let mut act_considered = 0usize;
    let mut act_correct = 0usize;
    for (t, h) in truth.iter().zip(&hypothesis.layers).take(aligned) {
        if t.kind == h.kind {
            kind_correct += 1;
        }
        if t.kind != LayerKind::Flatten && t.dim > 0 {
            dim_considered += 1;
            let err = (h.dim as f64 - t.dim as f64).abs() / t.dim as f64;
            if h.kind == t.kind && err <= 0.25 {
                dim_correct += 1;
            }
        }
        if let Some(truth_branchy) = t.branchy {
            act_considered += 1;
            if h.kind == LayerKind::Relu && h.branchy == Some(truth_branchy) {
                act_correct += 1;
            }
        }
    }

    let ratio = |num: usize, den: usize| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    let depth_score = if depth_truth == 0 {
        1.0
    } else {
        (1.0 - (depth_recovered as f64 - depth_truth as f64).abs() / depth_truth as f64).max(0.0)
    };
    let kind_precision = ratio(kind_correct, depth_recovered);
    let kind_recall = ratio(kind_correct, depth_truth);
    let dim_accuracy = ratio(dim_correct, dim_considered);
    let activation_accuracy = ratio(act_correct, act_considered);
    RecoveryScore {
        depth_truth,
        depth_recovered,
        kind_precision,
        kind_recall,
        dim_accuracy,
        activation_accuracy,
        overall: 0.25 * depth_score
            + 0.35 * kind_precision
            + 0.2 * dim_accuracy
            + 0.2 * activation_accuracy,
    }
}

/// The countermeasure arms `repro extract` evaluates. `dummy_events` is
/// the mean dummy-event budget of the noise arms — the `--dummy-events`
/// flag; the ablation and the frontier share the same knob.
pub fn extraction_arms(dummy_events: u64) -> [(&'static str, Option<Countermeasure>); 4] {
    [
        ("unprotected", None),
        ("constant-time", Some(Countermeasure::ConstantTime)),
        (
            "noise-injection",
            Some(Countermeasure::NoiseInjection { dummy_events }),
        ),
        ("combined", Some(Countermeasure::Combined { dummy_events })),
    ]
}

/// One arm of the extraction campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractRow {
    /// Arm name (`unprotected`, `constant-time`, …).
    pub arm: String,
    /// The countermeasure active on this arm.
    pub countermeasure: Option<Countermeasure>,
    /// The profiled hypothesis.
    pub hypothesis: ArchitectureHypothesis,
    /// Its score against the truth.
    pub score: RecoveryScore,
    /// Fraction of held-out traces whose single-trace attack names the
    /// same kind sequence as the profiled hypothesis (1.0 when no
    /// traces are held out).
    pub holdout_agreement: f64,
    /// The trace corpus was restored from the artifact cache.
    pub trace_cache_hit: bool,
}

impl ToJson for ExtractRow {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("arm", &self.arm)
            .field("countermeasure", &self.countermeasure)
            .field("hypothesis", &self.hypothesis)
            .field("score", &self.score)
            .field("holdout_agreement", &self.holdout_agreement)
            .field("trace_cache_hit", &self.trace_cache_hit);
        obj.finish();
    }
}

/// One point of the recovery-vs-samples curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Profiling traces used.
    pub samples: usize,
    /// Overall recovery score at that corpus size.
    pub overall: f64,
    /// Kind precision at that corpus size.
    pub kind_precision: f64,
}

impl ToJson for SamplePoint {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("samples", &self.samples)
            .field("overall", &self.overall)
            .field("kind_precision", &self.kind_precision);
        obj.finish();
    }
}

/// Everything the extraction campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractOutcome {
    /// The victim's true layer stack.
    pub truth: Vec<LayerTruth>,
    /// One row per arm, in [`extraction_arms`] order.
    pub rows: Vec<ExtractRow>,
    /// Recovery vs profiling-corpus size, on the unprotected arm.
    pub curve: Vec<SamplePoint>,
}

impl ExtractOutcome {
    /// Renders the recovery table for stdout.
    ///
    /// Column layout is fixed (not derived from the data), so the same
    /// scores always produce byte-identical output.
    pub fn render_table(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|r| r.arm.len())
            .max()
            .unwrap_or(3)
            .max("arm".len());
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_w$}  {:>7}  {:>6}  {:>6}  {:>6}  {:>6}  {:>7}  {:>6}\n",
            "arm", "depth", "kind-P", "kind-R", "dims", "act", "overall", "agree"
        ));
        out.push_str(&format!(
            "{:<name_w$}  {:>7}  {:>6}  {:>6}  {:>6}  {:>6}  {:>7}  {:>6}\n",
            "-".repeat(name_w),
            "-------",
            "------",
            "------",
            "------",
            "------",
            "-------",
            "------"
        ));
        for row in &self.rows {
            let s = &row.score;
            out.push_str(&format!(
                "{:<name_w$}  {:>3}/{:<3}  {:>6.2}  {:>6.2}  {:>6.2}  {:>6.2}  {:>7.2}  {:>6.2}\n",
                row.arm,
                s.depth_recovered,
                s.depth_truth,
                s.kind_precision,
                s.kind_recall,
                s.dim_accuracy,
                s.activation_accuracy,
                s.overall,
                row.holdout_agreement,
            ));
        }
        out
    }
}

impl ToJson for ExtractOutcome {
    fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::new(out);
        obj.field("truth", &self.truth)
            .field("rows", &self.rows)
            .field("curve", &self.curve);
        obj.finish();
    }
}

/// Checks an extraction document ([`ExtractOutcome`]'s JSON, as `repro
/// extract --out` writes it): a non-empty `truth` layer stack; at least
/// one row, each with an arm name, every score ratio and the held-out
/// agreement in [0, 1]; and a `curve` whose corpus sizes strictly
/// increase, with its ratios in [0, 1]. Returns a summary, or the
/// first rule the document breaks.
pub fn check_json(root: &Value) -> Result<String, String> {
    let truth = section(root, "truth")?;
    if truth.is_empty() {
        return Err("empty \"truth\" layer stack".into());
    }
    let rows = section(root, "rows")?;
    if rows.is_empty() {
        return Err("empty \"rows\" section".into());
    }
    for row in rows {
        let arm = text(row, "arm").map_err(|e| format!("row {e}"))?;
        let score = row
            .get("score")
            .ok_or_else(|| format!("row {arm:?} missing \"score\""))?;
        for key in [
            "kind_precision",
            "kind_recall",
            "dim_accuracy",
            "activation_accuracy",
            "overall",
        ] {
            ratio(score, key).map_err(|e| format!("row {arm:?} score: {e}"))?;
        }
        ratio(row, "holdout_agreement").map_err(|e| format!("row {arm:?}: {e}"))?;
    }
    let curve = section(root, "curve")?;
    let mut last = 0.0;
    for point in curve {
        let samples = number(point, "samples").map_err(|e| format!("curve point {e}"))?;
        if samples <= last {
            return Err(format!(
                "curve samples not strictly increasing at {samples}"
            ));
        }
        last = samples;
        ratio(point, "overall")?;
        ratio(point, "kind_precision")?;
    }
    Ok(format!(
        "{} truth layers, {} arms, {} curve points",
        truth.len(),
        rows.len(),
        curve.len()
    ))
}

/// Measures `samples` traced inferences, one [`InferenceTrace`] each,
/// cycling the dataset's images. The pre-layer staging window (input
/// copy-in, before the first boundary) is stripped.
fn collect_traces(
    classifier: &mut dyn TracedClassifier,
    dataset: &Dataset,
    pmu: &mut SimulatedPmu,
    samples: usize,
) -> Result<TraceCorpus, Error> {
    let _span = scnn_obs::Span::enter("extract.collect");
    if dataset.is_empty() {
        return Err(Error::msg("cannot trace an empty dataset"));
    }
    let mut traces = Vec::with_capacity(samples);
    for i in 0..samples {
        scnn_obs::counter_add("extract.traces", 1);
        let (image, _) = dataset
            .get(i % dataset.len())
            .ok_or_else(|| Error::msg("dataset index out of range"))?;
        let mut nn_err: Option<scnn_nn::NnError> = None;
        let windows = pmu.measure_layers(&mut |probe| {
            if let Err(e) = classifier.classify_traced(image, probe) {
                nn_err = Some(e);
            }
        });
        if let Some(e) = nn_err {
            return Err(e.into());
        }
        traces.push(InferenceTrace {
            windows: windows
                .iter()
                .skip(1)
                .map(LayerWindow::from_snapshot)
                .collect(),
        });
    }
    Ok(TraceCorpus { traces })
}

/// `net` as one arm's traced victim: wrapped in `cm` (its randomness
/// seeded from `seed`) when there is one, bare otherwise.
pub(crate) fn traced_victim(
    net: &Network,
    cm: Option<Countermeasure>,
    seed: u64,
) -> Box<dyn TracedClassifier> {
    match cm {
        None => Box::new(net.clone()),
        Some(cm) => Box::new(ProtectedModel::new(net.clone(), cm, seed)),
    }
}

/// Loads one arm's trace corpus from `cache` or collects and stores it.
/// Returns the corpus and whether it was a cache hit.
///
/// Per-arm seeds are content-addressed from the countermeasure's
/// canonical JSON ([`artifact::cm_seed_tag`]), exactly like the trace
/// key itself: any two commands (`extract`, `frontier`, …) that share a
/// trace key also produce byte-identical corpora, no matter which ran
/// first or at which arm position.
pub(crate) fn obtain_traces(
    base: &ExperimentConfig,
    net: &Network,
    test_set: &Dataset,
    cm: Option<Countermeasure>,
    cache: Option<&ArtifactCache>,
) -> Result<(TraceCorpus, bool), Error> {
    let samples = base.collection.samples_per_category;
    let mut cfg = base.clone();
    cfg.countermeasure = cm;
    let key = artifact::trace_key(&cfg, samples);
    if let Some(c) = cache {
        if let Some(traces) = c
            .load(artifact::TRACE_KIND, key)
            .and_then(|p| artifact::decode_traces(&p))
        {
            return Ok((TraceCorpus { traces }, true));
        }
    }
    let tag = artifact::cm_seed_tag(&cfg) as usize;
    let mut pmu = SimulatedPmu::new(base.pmu, category_seed(base.seed ^ 0xE47A, tag))?;
    let mut victim = traced_victim(net, cm, category_seed(base.seed ^ 0xE47B, tag));
    let corpus = collect_traces(victim.as_mut(), test_set, &mut pmu, samples)?;
    if let Some(c) = cache {
        let _ = c.store(
            artifact::TRACE_KIND,
            key,
            &artifact::encode_traces(&corpus.traces),
        );
    }
    Ok((corpus, false))
}

/// Profiles `corpus`'s first `profile_n` traces and scores the result;
/// also reports agreement of single-trace attacks on the held-out rest.
pub(crate) fn profile_and_score(
    corpus: &TraceCorpus,
    profile_n: usize,
    truth: &[LayerTruth],
) -> Result<(ArchitectureHypothesis, RecoveryScore, f64), Error> {
    let mut extractor = Extractor::new();
    extractor.profile(&corpus.prefix(profile_n))?;
    let hypothesis = extractor
        .report()
        .cloned()
        .ok_or_else(|| Error::msg("extractor produced no report"))?;
    let holdout = &corpus.traces[profile_n.min(corpus.len())..];
    let agreement = if holdout.is_empty() {
        1.0
    } else {
        let kinds = hypothesis.kinds();
        let mut agree = 0usize;
        for t in holdout {
            if extractor.attack(t)?.kinds() == kinds {
                agree += 1;
            }
        }
        agree as f64 / holdout.len() as f64
    };
    let s = score(&hypothesis, truth);
    Ok((hypothesis, s, agreement))
}

/// Runs the extraction campaign: trains (or restores) the victim once,
/// traces it under every [`extraction_arms`] arm (`dummy_events` sizes
/// the noise arms), profiles the [`Extractor`] on the first
/// `profile_fraction` of each corpus, and scores every hypothesis
/// against the true layer stack. The unprotected arm additionally
/// reports recovery as a function of corpus size.
///
/// Arms run through [`map_arms`] on `threads` workers, on one
/// [`Campaign`]'s shared model (`shared` when the caller holds `base`'s
/// model); every arm's environment is seeded purely from
/// `(seed, countermeasure)`, so the outcome is **bit-identical at every
/// thread count**. With a `cache`, each arm's trace corpus is
/// checkpointed under its own key.
///
/// # Errors
///
/// Returns [`Error`] when `profile_split` rejects the split (checked
/// before any training), or when training, tracing or profiling fails.
pub fn run_extract(
    base: &ExperimentConfig,
    profile_fraction: f64,
    dummy_events: u64,
    threads: Threads,
    cache: Option<&ArtifactCache>,
    shared: Option<&TrainedModel>,
) -> Result<ExtractOutcome, Error> {
    let profile_n = profile_split(base.collection.samples_per_category, profile_fraction)?;
    let _span = scnn_obs::Span::enter("extract.run");
    let campaign = Campaign::new(&base.clone().threads(threads), cache, shared)?;
    let net = &campaign.model().network;
    let test_set = base.generate_dataset(base.test_per_class, base.seed ^ 0xFACE)?;
    let (first_image, _) = test_set
        .get(0)
        .ok_or_else(|| Error::msg("extraction needs a non-empty test set"))?;
    let truth = ground_truth(net, first_image.shape())?;

    let arms = extraction_arms(dummy_events).to_vec();
    let results = map_arms(threads, "extract.arm", arms, |index, (name, cm)| {
        let (corpus, hit) = obtain_traces(base, net, &test_set, cm, cache)?;
        let (hypothesis, arm_score, agreement) = profile_and_score(&corpus, profile_n, &truth)?;
        let row = ExtractRow {
            arm: name.to_owned(),
            countermeasure: cm,
            hypothesis,
            score: arm_score,
            holdout_agreement: agreement,
            trace_cache_hit: hit,
        };
        // The unprotected arm doubles as the sample-count study: the
        // curve reuses prefixes of the corpus already collected, so it
        // costs no extra measurements.
        let mut curve = Vec::new();
        if index == 0 {
            let mut sizes = vec![1, profile_n.div_ceil(2), profile_n];
            sizes.sort_unstable();
            sizes.dedup();
            for n in sizes {
                let (_, s, _) = profile_and_score(&corpus.prefix(n), n, &truth)?;
                curve.push(SamplePoint {
                    samples: n,
                    overall: s.overall,
                    kind_precision: s.kind_precision,
                });
            }
        }
        Ok::<_, Error>((row, curve))
    })?;
    let (rows, curves): (Vec<ExtractRow>, Vec<Vec<SamplePoint>>) = results.into_iter().unzip();
    let curve = curves.into_iter().next().unwrap_or_default();
    Ok(ExtractOutcome { truth, rows, curve })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DatasetKind;
    use scnn_hpc::SimPmuConfig;
    use scnn_nn::models;
    use scnn_uarch::{CoreConfig, NoiseConfig};

    /// Exact dense-kernel footprint for (`input`, `output`, `nnz`).
    fn dense_window(input: usize, output: usize, nnz: usize) -> LayerWindow {
        let (i, o, z) = (input as f64, output as f64, nnz as f64);
        let lanes = output.div_ceil(8) as f64;
        LayerWindow {
            loads: o + i + 2.0 * z * o,
            stores: o + z * o,
            branches: o + 2.0 * i + 2.0 + z * (lanes + 1.0),
            alu: o + i + z * (2.0 * o + lanes),
        }
    }

    /// Exact conv-kernel footprint for (`chw`, `out_len`, `m`, `f`).
    fn conv_window(chw: usize, out_len: usize, m: usize, f: usize) -> LayerWindow {
        let (c, o, mf, ff) = (chw as f64, out_len as f64, m as f64, f as f64);
        LayerWindow {
            loads: c + 2.0 * mf,
            stores: o + mf + 2.0 * mf / ff,
            branches: o + 2.0 * c + 2.0,
            alu: o + 2.0 * mf + c,
        }
    }

    fn pool_window(k: usize, out: usize) -> LayerWindow {
        let (kk, o) = ((k * k) as f64, out as f64);
        LayerWindow {
            loads: kk * o,
            stores: o,
            branches: kk * o + 1.0,
            alu: o,
        }
    }

    fn relu_window(n: usize, branchy: bool) -> LayerWindow {
        let nf = n as f64;
        LayerWindow {
            loads: nf,
            stores: nf,
            branches: if branchy { 2.0 * nf + 1.0 } else { nf + 1.0 },
            alu: if branchy { nf } else { 2.0 * nf },
        }
    }

    #[test]
    fn check_json_names_each_broken_rule() {
        let valid = r#"{"truth":[{"kind":"dense","dim":10}],
            "rows":[{"arm":"unprotected","score":{"kind_precision":1.0,"kind_recall":1.0,
                "dim_accuracy":0.5,"activation_accuracy":1.0,"overall":0.9},"holdout_agreement":1.0}],
            "curve":[{"samples":1,"overall":0.5,"kind_precision":0.5},
                     {"samples":4,"overall":0.9,"kind_precision":1.0}]}"#;
        crate::json::assert_each_rule(
            check_json,
            valid,
            &[
                ("truth", None, "non-array \"truth\""),
                ("truth/0", None, "empty \"truth\""),
                ("rows/0", None, "empty \"rows\""),
                ("rows/0/arm", Some("1"), "row missing string \"arm\""),
                ("rows/0/score", None, "\"unprotected\" missing \"score\""),
                ("rows/0/score/kind_recall", None, "\"kind_recall\""),
                ("rows/0/score/overall", Some("1.5"), "1.5 is outside"),
                ("rows/0/holdout_agreement", Some("-0.1"), "outside [0, 1]"),
                ("curve", Some("null"), "non-array \"curve\""),
                ("curve/1/samples", Some("1"), "not strictly increasing at 1"),
                ("curve/0/samples", None, "curve point missing numeric"),
                ("curve/1/kind_precision", Some("2"), "outside [0, 1]"),
            ],
        );
    }

    #[test]
    fn dense_inversion_recovers_dimensions_exactly() {
        for &(input, output, nnz) in &[(256usize, 64usize, 120usize), (64, 10, 30), (400, 10, 180)]
        {
            let h = classify_window(&dense_window(input, output, nnz));
            assert_eq!(h.kind, LayerKind::Dense, "{input}->{output}");
            assert_eq!(h.dim, output);
            assert_eq!(h.fan_in, Some(input));
        }
    }

    #[test]
    fn conv_inversion_recovers_dimensions_exactly() {
        // mnist-like conv1: 1×28×28 input, 8 filters of 5×5 → 8×24×24,
        // m divisible by f so the synthetic window is exact.
        let h = classify_window(&conv_window(784, 4608, 60_000, 8));
        assert_eq!(h.kind, LayerKind::Conv);
        assert_eq!(h.dim, 4608);
        assert_eq!(h.fan_in, Some(784));
        assert_eq!(h.filters, Some(8));
        // tiny conv: 1×12×12, 4 filters of 3×3 → 4×10×10.
        let h = classify_window(&conv_window(144, 400, 2520, 4));
        assert_eq!(h.kind, LayerKind::Conv);
        assert_eq!(h.dim, 400);
        assert_eq!(h.filters, Some(4));
    }

    #[test]
    fn ratio_kernels_classify_and_parameterise() {
        let h = classify_window(&pool_window(2, 1152));
        assert_eq!(h.kind, LayerKind::Pool);
        assert_eq!(h.dim, 1152);
        assert_eq!(h.pool_k, Some(2));

        let h = classify_window(&relu_window(4608, true));
        assert_eq!(h.kind, LayerKind::Relu);
        assert_eq!(h.branchy, Some(true));
        let h = classify_window(&relu_window(4608, false));
        assert_eq!(h.kind, LayerKind::Relu);
        assert_eq!(h.branchy, Some(false));

        let h = classify_window(&LayerWindow::default());
        assert_eq!(h.kind, LayerKind::Flatten);
    }

    #[test]
    fn conv_fit_rejects_dense_windows() {
        // A dense window's ALU < loads, so the closed-form conv
        // inversion goes negative immediately.
        assert!(fit_conv(&dense_window(64, 10, 40)).is_none());
    }

    #[test]
    fn corrupted_window_goes_unknown_not_misnamed() {
        // A noise-injection arm inflates loads/branches/alu by ~20k
        // while stores stay put: no kernel law explains that shape.
        let mut w = dense_window(64, 10, 40);
        w.loads += 20_000.0;
        w.branches += 20_000.0;
        w.alu += 20_000.0;
        assert_eq!(classify_window(&w).kind, LayerKind::Unknown);
    }

    #[test]
    fn median_windows_null_interrupt_spikes() {
        let clean = dense_window(256, 64, 120);
        let mut spiked = clean;
        spiked.loads += 9_000.0;
        spiked.alu += 40_000.0;
        let corpus = TraceCorpus {
            traces: vec![
                InferenceTrace {
                    windows: vec![clean],
                },
                InferenceTrace {
                    windows: vec![spiked],
                },
                InferenceTrace {
                    windows: vec![clean],
                },
            ],
        };
        let medians = corpus.median_windows();
        assert_eq!(medians.len(), 1);
        assert_eq!(medians[0], clean);
    }

    #[test]
    fn median_depth_is_modal_not_maximal() {
        let w = relu_window(100, true);
        let corpus = TraceCorpus {
            traces: vec![
                InferenceTrace {
                    windows: vec![w, w],
                },
                InferenceTrace {
                    windows: vec![w, w],
                },
                InferenceTrace { windows: vec![w] },
            ],
        };
        assert_eq!(corpus.median_windows().len(), 2);
    }

    #[test]
    fn extractor_refuses_attack_before_profile_and_empty_corpus() {
        let extractor = Extractor::new();
        assert!(extractor.attack(&InferenceTrace::default()).is_err());
        let mut extractor = Extractor::new();
        assert!(extractor.profile(&TraceCorpus::default()).is_err());
        assert!(extractor.report().is_none());
    }

    #[test]
    fn score_weighs_fields_as_documented() {
        let truth = vec![
            LayerTruth {
                kind: LayerKind::Conv,
                dim: 400,
                branchy: None,
                pool_k: None,
            },
            LayerTruth {
                kind: LayerKind::Relu,
                dim: 400,
                branchy: Some(true),
                pool_k: None,
            },
        ];
        let mut perfect = ArchitectureHypothesis::default();
        let mut conv = LayerHypothesis::bare(LayerKind::Conv, 400);
        conv.filters = Some(4);
        perfect.layers.push(conv);
        let mut relu = LayerHypothesis::bare(LayerKind::Relu, 400);
        relu.branchy = Some(true);
        perfect.layers.push(relu);
        let s = score(&perfect, &truth);
        assert_eq!(s.overall, 1.0);
        assert_eq!(s.kind_precision, 1.0);

        // Wrong activation flavour: only the 0.2 activation weight drops.
        let mut ct = perfect.clone();
        ct.layers[1].branchy = Some(false);
        let s = score(&ct, &truth);
        assert_eq!(s.kind_precision, 1.0);
        assert_eq!(s.activation_accuracy, 0.0);
        assert!((s.overall - 0.8).abs() < 1e-12);
    }

    #[test]
    fn quiet_traces_of_a_real_tiny_network_extract_perfectly() {
        // conv → relu → pool → flatten → dense on 1×12×12 inputs.
        let mut net = models::small_cnn(1, 12, 10, 77);
        let ds = crate::pipeline::ExperimentConfig::quick(DatasetKind::Mnist)
            .generate_dataset(4, 11)
            .unwrap();
        let mut pmu = SimulatedPmu::new(
            SimPmuConfig {
                core: CoreConfig::tiny(),
                noise: NoiseConfig::quiet(),
                ..SimPmuConfig::default()
            },
            5,
        )
        .unwrap();
        let corpus = collect_traces(&mut net, &ds, &mut pmu, 6).unwrap();
        let (image, _) = ds.get(0).unwrap();
        let truth = ground_truth(&net, image.shape()).unwrap();

        let mut extractor = Extractor::new();
        extractor.profile(&corpus).unwrap();
        let hypothesis = extractor.report().unwrap();
        assert_eq!(hypothesis.depth(), truth.len());
        let s = score(hypothesis, &truth);
        assert_eq!(s.kind_precision, 1.0, "{}", hypothesis.render());
        assert_eq!(s.dim_accuracy, 1.0, "{}", hypothesis.render());
        assert_eq!(s.activation_accuracy, 1.0);
    }

    #[test]
    fn run_extract_rejects_bad_profile_fractions() {
        let cfg = ExperimentConfig::quick(DatasetKind::Mnist);
        for bad in [0.0, 1.0, -0.5, f64::NAN] {
            let err = run_extract(&cfg, bad, 20_000, Threads::Count(1), None, None);
            assert!(
                matches!(
                    err,
                    Err(Error::Attack(AttackError::InvalidProfileFraction { .. }))
                ),
                "fraction {bad} must be rejected before any work"
            );
        }
    }

    #[test]
    fn outcome_json_round_trips_through_the_strict_parser() {
        let outcome = ExtractOutcome {
            truth: vec![LayerTruth {
                kind: LayerKind::Dense,
                dim: 10,
                branchy: None,
                pool_k: None,
            }],
            rows: vec![ExtractRow {
                arm: "unprotected".to_owned(),
                countermeasure: None,
                hypothesis: ArchitectureHypothesis {
                    layers: vec![LayerHypothesis::bare(LayerKind::Dense, 10)],
                },
                score: score(
                    &ArchitectureHypothesis {
                        layers: vec![LayerHypothesis::bare(LayerKind::Dense, 10)],
                    },
                    &[LayerTruth {
                        kind: LayerKind::Dense,
                        dim: 10,
                        branchy: None,
                        pool_k: None,
                    }],
                ),
                holdout_agreement: 1.0,
                trace_cache_hit: false,
            }],
            curve: vec![SamplePoint {
                samples: 1,
                overall: 1.0,
                kind_precision: 1.0,
            }],
        };
        let parsed = crate::json::parse(&outcome.to_json()).unwrap();
        let rows = parsed.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("arm").unwrap().as_str().unwrap(), "unprotected");
        assert_eq!(
            rows[0]
                .get("score")
                .unwrap()
                .get("overall")
                .unwrap()
                .as_f64()
                .unwrap(),
            1.0
        );
        assert_eq!(
            parsed.get("curve").unwrap().as_array().unwrap()[0]
                .get("samples")
                .unwrap()
                .as_f64()
                .unwrap(),
            1.0
        );
    }
}
